//! Machine-readable benchmark summaries: each headline experiment
//! (E13–E20) distills its run into one `BENCH_E<N>.json` file at the repo
//! root — throughput, latency percentiles on the virtual timeline, and
//! bytes shipped — so CI can archive the numbers as artifacts and diff
//! them across commits without parsing rendered tables. [`trajectory`]
//! folds every summary back into one compact table for the CI log.

use std::path::PathBuf;

use eii::data::{EiiError, Result};

/// The headline numbers one experiment emits.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    pub id: String,
    /// Queries measured.
    pub queries: usize,
    /// Queries per simulated second (`queries / total virtual latency`).
    pub throughput_qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Total bytes shipped across the federation during the measured run.
    pub bytes_shipped: usize,
    /// Experiment-specific extras (`hedge.fired`, `shed.count`, ...).
    pub extra: Vec<(String, f64)>,
}

impl BenchSummary {
    /// Summarize a vector of per-query virtual latencies (simulated ms).
    pub fn from_latencies(id: &str, latencies_ms: &[f64], bytes_shipped: usize) -> Self {
        let total: f64 = latencies_ms.iter().sum();
        BenchSummary {
            id: id.to_string(),
            queries: latencies_ms.len(),
            throughput_qps: if total > 0.0 {
                latencies_ms.len() as f64 / (total / 1000.0)
            } else {
                0.0
            },
            p50_ms: percentile(latencies_ms, 50.0),
            p99_ms: percentile(latencies_ms, 99.0),
            bytes_shipped,
            extra: Vec::new(),
        }
    }

    /// Attach an experiment-specific number.
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// The JSON document this summary serializes to.
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            ("id".to_string(), serde_json::to_value(&self.id)),
            ("queries".to_string(), serde_json::to_value(&self.queries)),
            (
                "throughput_qps".to_string(),
                serde_json::to_value(&round3(self.throughput_qps)),
            ),
            ("p50_ms".to_string(), serde_json::to_value(&round3(self.p50_ms))),
            ("p99_ms".to_string(), serde_json::to_value(&round3(self.p99_ms))),
            (
                "bytes_shipped".to_string(),
                serde_json::to_value(&self.bytes_shipped),
            ),
        ];
        for (k, v) in &self.extra {
            entries.push((k.clone(), serde_json::to_value(&round3(*v))));
        }
        serde_json::Value::Obj(entries).to_string()
    }

    /// Write `BENCH_<ID>.json` at the repository root; returns the path.
    /// A debug build writes nothing and returns `None`: the files carry
    /// release-profile numbers, and `cargo test` must not replace them.
    pub fn write(&self) -> Result<Option<PathBuf>> {
        if cfg!(debug_assertions) {
            return Ok(None);
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.id.to_uppercase()));
        std::fs::write(&path, format!("{}\n", self.to_json()))
            .map_err(|e| EiiError::Execution(format!("writing {}: {e}", path.display())))?;
        Ok(Some(path))
    }
}

/// The headline gate experiments, in order, whose `BENCH_E<N>.json`
/// summaries make up the bench trajectory.
pub const TRAJECTORY_IDS: [&str; 8] = ["e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20"];

/// Render the cross-experiment bench trajectory: one row per
/// [`TRAJECTORY_IDS`] summary present at the repo root, so CI (and a
/// reviewer skimming its log) can scan every headline number in one
/// compact table instead of opening eight JSON artifacts. Experiments whose
/// summary file is missing render as dashes rather than failing the step.
pub fn trajectory() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut report = crate::report::Report::new(
        "trajectory",
        "bench trajectory",
        "the gate experiments' headline numbers, one row each, from BENCH_E*.json",
        &["exp", "queries", "qps", "p50 ms", "p99 ms", "bytes", "extras"],
    );
    for id in TRAJECTORY_IDS {
        let path = root.join(format!("BENCH_{}.json", id.to_uppercase()));
        let parsed = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok());
        // A missing or unreadable summary renders as dashes.
        let entries = match parsed {
            Some(serde_json::Value::Obj(entries)) => entries,
            _ => Vec::new(),
        };
        let num = |key: &str| -> Option<String> {
            entries.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
                serde_json::Value::Int(i) => Some(i.to_string()),
                serde_json::Value::Float(f) => Some(crate::report::fmt_f(*f)),
                _ => None,
            })
        };
        let cell = |key: &str| num(key).unwrap_or_else(|| "-".into());
        let headline = ["id", "queries", "throughput_qps", "p50_ms", "p99_ms", "bytes_shipped"];
        let extras: Vec<String> = entries
            .iter()
            .filter(|(k, _)| !headline.contains(&k.as_str()))
            .filter_map(|(k, _)| num(k).map(|v| format!("{k}={v}")))
            .collect();
        report.row(vec![
            id.to_uppercase(),
            cell("queries"),
            cell("throughput_qps"),
            cell("p50_ms"),
            cell("p99_ms"),
            cell("bytes_shipped"),
            if entries.is_empty() {
                "missing".into()
            } else if extras.is_empty() {
                "-".into()
            } else {
                extras.join(" ")
            },
        ]);
    }
    report.render()
}

/// Nearest-rank percentile over an unsorted sample (0 for an empty one).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn trajectory_renders_one_row_per_gate_experiment() {
        let text = trajectory();
        assert!(text.contains("TRAJECTORY"));
        for id in TRAJECTORY_IDS {
            assert!(text.contains(&id.to_uppercase()), "missing row for {id}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn debug_builds_write_no_summary_file() {
        let s = BenchSummary::from_latencies("e99_debug_guard", &[1.0], 0);
        assert_eq!(s.write().unwrap(), None);
    }

    #[test]
    fn summary_serializes_headline_numbers() {
        let s = BenchSummary::from_latencies("e99", &[1.0, 2.0, 3.0, 4.0], 1234)
            .with_extra("hedge.fired", 2.0);
        let json = s.to_json();
        assert!(json.contains("\"id\":\"e99\""));
        assert!(json.contains("\"bytes_shipped\":1234"));
        assert!(json.contains("\"hedge.fired\":2"));
        assert_eq!(s.queries, 4);
        assert!((s.throughput_qps - 400.0).abs() < 1e-9);
    }
}
