//! `eiibench compare <a> <b>`: judge result file `b` against `a`, metric by
//! metric and workload by workload.
//!
//! A result file is what `--out` appends: one JSON record per run. Several
//! runs of one workload give each metric several values; their median is
//! compared and their interquartile spread (as Python's
//! `statistics.quantiles` computes it) decides whether the comparison can
//! be trusted at all.

use std::process::ExitCode;

use serde_json::Value;

use crate::metrics::{rule_for, Better, Rule};
use crate::stats::{median, spread};

/// `setup_s` differences below this many seconds are never a regression,
/// whatever share of the median they are.
const SETUP_FLOOR_S: f64 = 0.05;

/// The values of each (workload, metric), in first-seen order.
type Table = Vec<((String, String), Vec<f64>)>;

fn get<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    obj.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn values_of<'a>(table: &'a Table, workload: &str, metric: &str) -> Option<&'a Vec<f64>> {
    table
        .iter()
        .find(|((w, m), _)| w == workload && m == metric)
        .map(|(_, values)| values)
}

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut table: Table = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let record: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let workload = get(&record, "workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = get(&record, "result")
            .and_then(|r| get(r, "metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no result.metrics"))?;
        for (name, metric) in metrics {
            let value = get(metric, "value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad(&format!("{name} has no value")))?;
            match table
                .iter_mut()
                .find(|((w, m), _)| w == workload && m == name)
            {
                Some((_, values)) => values.push(value),
                None => table.push(((workload.to_string(), name.clone()), vec![value])),
            }
        }
    }
    Ok(table)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    /// The spread of either side exceeds the bound and the two sides
    /// overlap: the runs cannot resolve a difference this small.
    Unresolved,
    Info,
}

fn judge(name: &str, a: &[f64], b: &[f64]) -> Verdict {
    let (better, rule) = rule_for(name);
    let (ma, mb) = (median(a), median(b));
    match rule {
        Rule::Info => Verdict::Info,
        Rule::Exact => {
            // One value per seed on each side, and the same ones.
            let distinct = |v: &[f64]| {
                let mut v = v.to_vec();
                v.sort_by(f64::total_cmp);
                v.dedup();
                v
            };
            if distinct(a) == distinct(b) {
                Verdict::Ok
            } else {
                Verdict::Worse
            }
        }
        Rule::Bound(bound) => {
            let worse_by = match better {
                Better::Lower => mb - ma,
                Better::Higher => ma - mb,
            };
            let b_clear_of_a = match better {
                Better::Lower => max(b) < min(a),
                Better::Higher => min(b) > max(a),
            };
            if spread(a).max(spread(b)) > bound && !b_clear_of_a {
                Verdict::Unresolved
            } else if worse_by > bound * ma.abs()
                && !(name == "setup_s" && worse_by <= SETUP_FLOOR_S)
            {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("eiibench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<34} {:>14} {:>7} {:>14} {:>7} {:>8}  verdict",
        "workload", "metric", "a.median", "a.iqr%", "b.median", "b.iqr%", "change%"
    );
    let mut worse = 0;
    for ((workload, name), va) in &a {
        let Some(vb) = values_of(&b, workload, name) else {
            println!("{workload:<14} {name:<34} missing from {path_b}");
            worse += 1;
            continue;
        };
        let verdict = judge(name, va, vb);
        let (ma, mb) = (median(va), median(vb));
        let change = if ma == 0.0 {
            0.0
        } else {
            (mb / ma - 1.0) * 100.0
        };
        println!(
            "{workload:<14} {name:<34} {ma:>14.4} {:>7.2} {mb:>14.4} {:>7.2} {change:>+8.2}  {}",
            spread(va) * 100.0,
            spread(vb) * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
                Verdict::Info => "-",
            }
        );
        worse += usize::from(verdict == Verdict::Worse);
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("eiibench compare: {worse} metric(s) worse");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // stmt_per_s: higher is better, bound 25 %.
        assert_eq!(judge("stmt_per_s", &[100.0], &[80.0]), Verdict::Ok);
        assert_eq!(judge("stmt_per_s", &[100.0], &[70.0]), Verdict::Worse);
        assert_eq!(judge("stmt_per_s", &[100.0], &[130.0]), Verdict::Ok);
        // stmt_p50_ms: lower is better, bound 25 %.
        assert_eq!(judge("stmt_p50_ms", &[1.0], &[1.3]), Verdict::Worse);
        // Spread wider than the bound, sides overlapping: no verdict.
        assert_eq!(
            judge("stmt_p50_ms", &[1.0, 1.5, 2.0], &[1.1, 1.6, 2.4]),
            Verdict::Unresolved
        );
        // ... unless every run of b beats every run of a.
        assert_eq!(
            judge("stmt_p50_ms", &[1.0, 1.5, 2.0], &[0.5, 0.7, 0.9]),
            Verdict::Ok
        );
        // Counts must repeat exactly; per-layer timings are not judged.
        assert_eq!(judge("exec.rows_in", &[10.0, 10.0], &[10.0]), Verdict::Ok);
        assert_eq!(judge("exec.rows_in", &[10.0], &[11.0]), Verdict::Worse);
        assert_eq!(
            judge("bytes_shipped_per_stmt", &[5.0, 7.0, 5.0], &[7.0, 5.0]),
            Verdict::Ok
        );
        assert_eq!(judge("sql.parse_us", &[1.0], &[9.0]), Verdict::Info);
        // A 40 % slower set-up that costs 20 ms is not a regression.
        assert_eq!(judge("setup_s", &[0.05], &[0.07]), Verdict::Ok);
        assert_eq!(judge("setup_s", &[1.0], &[1.4]), Verdict::Worse);
    }
}
