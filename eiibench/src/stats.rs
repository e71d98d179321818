//! Sample statistics. Every function takes samples in any order and sorts
//! its own copy.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The `p`-th percentile by nearest rank: the smallest sample that at least
/// `p` % of the samples do not exceed. For a handful of samples, where
/// interpolating would invent a value between two unlike ones.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The time a repeated measurement takes when nothing disturbs it: the 1st
/// percentile of its samples.
///
/// Everything the sandbox does to a measurement only ever adds time. Its
/// host takes the processor away for milliseconds at a time; a thread the
/// engine spawns waits for a core that another tenant holds; for seconds to
/// minutes everything runs 30–50 % slower. A median over repetitions moves
/// with how many of them were hit, and so does the 10th percentile once a
/// disturbance covers nine tenths of a run (statements that fetch from two
/// sources on two threads are delayed that often whenever both cores have
/// other work). The best percentile stays put as long as one execution in a
/// hundred ran undisturbed, and a change that makes the code slower shifts
/// it as much as it shifts the median.
pub fn settled(times: &[f64]) -> f64 {
    percentile(times, 1.0)
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `compare` judges spread the
/// way the acceptance check does. Needs two samples; otherwise both are
/// the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let m = v.first().copied().unwrap_or(0.0);
        return (m, m);
    }
    let at = |q: usize| {
        // Position q·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn nearest_rank_returns_a_sample() {
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // 10 of 11 samples are only 90.9 %: the 95th percentile is the 11th.
        assert_eq!(nearest_rank(&eleven, 95.0), 11.0);
        assert_eq!(nearest_rank(&eleven, 50.0), 6.0);
        let forty_eight: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(nearest_rank(&forty_eight, 95.0), 46.0);
        assert_eq!(nearest_rank(&[3.0, 1.0], 100.0), 3.0);
        assert_eq!(nearest_rank(&[], 95.0), 0.0);
    }

    #[test]
    fn settled_takes_the_undisturbed_end() {
        let v: Vec<f64> = (0..=200).rev().map(f64::from).collect();
        assert_eq!(settled(&v), 2.0);
        // A handful of samples: just above the fastest one.
        assert!((settled(&[5.0, 3.0, 4.0]) - 3.02).abs() < 1e-9);
        assert_eq!(settled(&[]), 0.0);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-9 && (q3 - 8.25).abs() < 1e-9);
        assert!((spread(&v) - 1.0).abs() < 1e-9);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-9 && (q3 - 2.25).abs() < 1e-9);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
