//! E13 — fault tolerance. Draper §5: fielded federation systems live with
//! "sources that are slow, unavailable, or return errors"; Carey §4 argues
//! the platform, not the application, should absorb those failures. The
//! sweep injects source faults at increasing rates and measures how much
//! answer the enterprise still gets under each resilience posture.

use eii::data::Result;
use eii::prelude::*;

use crate::fedmark::{join_workload, FedMark};
use crate::report::{fmt_f, Report};
use crate::runner::{run, Step};
use crate::summary::BenchSummary;

const SEED: u64 = 101;
const FAULT_RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
const FAULTED_SOURCES: [&str; 3] = ["crm", "sales", "support"];

/// E13 — success rate, completeness, retry amplification, and staleness as
/// injected source failures climb from 0% to 50%, under four postures:
/// live-only, retry/backoff, retry + stale-snapshot fallback, and retry +
/// partial results.
pub fn e13_fault_tolerance() -> Result<Report> {
    // One three-source join per selectivity knob.
    let queries = join_workload(40, 2);
    let steps = || queries.iter().cloned().map(Step::Query);

    // Ground truth from a pristine environment (same seed, no faults).
    let baseline_rows = run(&FedMark::build(1, SEED)?.system, steps()).checked()?.rows();

    let mut report = Report::new(
        "e13",
        "fault tolerance: graceful degradation under injected source failures",
        "Draper §5 / Carey §4 — naive federation collapses when any source \
         misbehaves; retry/backoff heals transient faults and degradation to \
         stale snapshots keeps answering through hard outages",
        &[
            "fault rate",
            "mode",
            "queries ok",
            "success",
            "completeness",
            "retries",
            "avg stale ms",
        ],
    );

    // Headline summary: the retry + partial-results posture across the
    // whole fault sweep (the posture a production hub would actually run).
    let mut summary_latencies: Vec<f64> = Vec::new();
    let mut summary_bytes = 0usize;

    for rate in FAULT_RATES {
        for (mode, retry, policy) in [
            ("live only", false, DegradationPolicy::Fail),
            ("retry/backoff", true, DegradationPolicy::Fail),
            ("retry + stale fallback", true, DegradationPolicy::Fallback),
            ("retry + partial results", true, DegradationPolicy::PartialResults),
        ] {
            let env = FedMark::build(1, SEED)?;
            // Snapshots are taken while the sources are still healthy —
            // the last good extract before the trouble starts.
            env.system.snapshot_fallback("crm.customers")?;
            env.system.snapshot_fallback("sales.orders")?;
            env.system.snapshot_fallback("support.tickets")?;
            for (i, source) in FAULTED_SOURCES.iter().enumerate() {
                env.system
                    .federation()
                    .inject_faults(source, FaultProfile::failing(rate, 40 + i as u64))?;
                if retry {
                    env.system.federation().harden(
                        source,
                        RetryPolicy::standard(),
                        CircuitBreakerConfig::default(),
                    )?;
                }
            }
            env.system.set_degradation_policy(policy);

            let out = run(&env.system, steps());
            let ok = out.answered().count();
            let stale: Vec<i64> = out
                .answered()
                .flat_map(|r| r.degraded.iter().filter_map(|d| d.stale_ms))
                .collect();
            if policy == DegradationPolicy::PartialResults && retry {
                let latencies = out.answered().map(|r| r.waited_ms as f64 + r.cost.sim_ms);
                summary_latencies.extend(latencies);
                summary_bytes += out.traffic.bytes;
            }
            report.row(vec![
                format!("{:.0}%", rate * 100.0),
                mode.to_string(),
                format!("{ok}/{}", queries.len()),
                format!("{:.0}%", ok as f64 / queries.len() as f64 * 100.0),
                format!("{:.1}%", out.rows() as f64 / baseline_rows as f64 * 100.0),
                out.traffic.retries.to_string(),
                if stale.is_empty() {
                    "-".to_string()
                } else {
                    fmt_f(stale.iter().sum::<i64>() as f64 / stale.len() as f64)
                },
            ]);
        }
    }
    report.note(format!(
        "{} three-source joins over crm (LAN) x sales (WAN) x support \
         (docs); faults injected on all three; snapshots taken pre-outage",
        queries.len()
    ));
    report.note(
        "at 0% every mode is byte-identical to the unhardened system with \
         zero retries — resilience is free until something breaks",
    );

    BenchSummary::from_latencies("e13", &summary_latencies, summary_bytes)
        .with_extra("fault_rates", FAULT_RATES.len() as f64)
        .write()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_rate_is_perfect_in_every_mode() {
        let report = e13_fault_tolerance().unwrap();
        // The first four rows are the 0% sweep: full success, full
        // completeness, no retries, no staleness.
        for row in &report.rows[..4] {
            assert_eq!(row[0], "0%");
            assert_eq!(row[3], "100%");
            assert_eq!(row[4], "100.0%");
            assert_eq!(row[5], "0");
            assert_eq!(row[6], "-");
        }
    }

    #[test]
    fn fallback_beats_live_only_at_heavy_fault_rates() {
        let report = e13_fault_tolerance().unwrap();
        let pct = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let success = |rate: &str, mode: &str| {
            let row = report
                .rows
                .iter()
                .find(|r| r[0] == rate && r[1] == mode)
                .unwrap();
            pct(&row[3])
        };
        assert!(success("30%", "live only") < 50.0);
        assert!(success("30%", "retry + stale fallback") >= 95.0);
        assert!(success("30%", "retry/backoff") > success("30%", "live only"));
    }
}
