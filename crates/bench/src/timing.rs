//! Wall-clock cost of a switch, measured one way for every experiment that
//! gates on it (E14: executor instrumentation, E18: telemetry recording).

use std::time::Instant;

use eii::data::Result;

use crate::summary::percentile;

/// What [`paired_overhead`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// Median over the trials of `(on − off) / off`, percent.
    pub pct: f64,
    /// Median wall-clock ms of a pass in each mode.
    pub wall_on_ms: f64,
    pub wall_off_ms: f64,
    /// What the last pass in each mode returned (its simulated ms).
    pub sim_on: f64,
    pub sim_off: f64,
}

/// Time `pass(true)` against `pass(false)`. After one warm-up pass per mode,
/// `trials` trials run back to back, each an on/off/off/on quartet (every
/// other one off/on/on/off): inside a trial both modes sit equally early and
/// equally late, so a drift across it, or a price for running right after the
/// other mode, lands on both. A trial's ratio compares its two on passes with
/// its two off passes, and the overhead is the median of those ratios: a
/// burst of machine noise spoils one trial and moves one ratio, where
/// comparing each mode's fastest pass compares two moments that may be far
/// apart.
pub fn paired_overhead(
    trials: usize,
    mut pass: impl FnMut(bool) -> Result<f64>,
) -> Result<Overhead> {
    let mut timed = |on: bool| -> Result<(f64, f64)> {
        let start = Instant::now();
        let sim = pass(on)?;
        Ok((sim, start.elapsed().as_secs_f64() * 1000.0))
    };
    timed(true)?;
    timed(false)?;
    let (mut sim_on, mut sim_off) = (0.0, 0.0);
    let (mut walls_on, mut walls_off, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for trial in 0..trials {
        let outer = trial % 2 == 0;
        let (mut wall_on, mut wall_off) = (0.0, 0.0);
        for on in [outer, !outer, !outer, outer] {
            let (sim, wall) = timed(on)?;
            if on {
                (sim_on, wall_on) = (sim, wall_on + wall);
            } else {
                (sim_off, wall_off) = (sim, wall_off + wall);
            }
        }
        walls_on.push(wall_on / 2.0);
        walls_off.push(wall_off / 2.0);
        ratios.push((wall_on - wall_off) / wall_off * 100.0);
    }
    Ok(Overhead {
        pct: percentile(&ratios, 50.0),
        wall_on_ms: percentile(&walls_on, 50.0),
        wall_off_ms: percentile(&walls_off, 50.0),
        sim_on,
        sim_off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_the_median_pair_ratio_and_modes_alternate() {
        let mut order = Vec::new();
        let o = paired_overhead(2, |on| {
            order.push(on);
            std::thread::sleep(std::time::Duration::from_millis(if on { 6 } else { 3 }));
            Ok(if on { 1.0 } else { 2.0 })
        })
        .unwrap();
        // Warm-up pair, then on/off/off/on, then off/on/on/off.
        assert_eq!(
            order,
            [true, false, true, false, false, true, false, true, true, false]
        );
        assert!(o.pct > 30.0, "on sleeps twice as long as off: {o:?}");
        assert!(o.wall_on_ms > o.wall_off_ms);
        assert_eq!((o.sim_on, o.sim_off), (1.0, 2.0));
    }
}
