//! E16 — concurrent multi-session throughput.
//!
//! Runs the FedMark Q1–Q11 suite through the admission-controlled
//! scheduler at increasing session counts and reports throughput plus
//! p50/p95 per-query latency on the deterministic virtual timeline
//! (simulated ms; the single-core CI box makes wall-clock parallelism
//! unobservable, so the scheduler assigns each completed job's simulated
//! cost to the least-loaded virtual worker slot). Gates, enforced here so
//! CI fails when they regress:
//!
//! - near-linear scaling: 16 sessions must finish the same workload at
//!   least 3x faster (virtual makespan) than 1 session;
//! - exact accounting: total ledger bytes and rows under concurrency must
//!   equal the serial run's, byte for byte.

use eii::data::{EiiError, Result};
use eii::federation::SourceTraffic;
use eii::prelude::{AdmissionConfig, SchedulerStats};

use crate::fedmark::FedMark;
use crate::report::Report;
use crate::runner::run;
use crate::summary::BenchSummary;

/// Sessions per run; each session submits the whole Q1–Q11 suite.
const SESSIONS: [usize; 4] = [1, 4, 16, 64];
const SEED: u64 = 61;
/// CI gate: minimum virtual-timeline speedup at 16 sessions versus 1.
const MIN_SPEEDUP_AT_16: f64 = 3.0;

/// One fresh environment, `sessions` workers admitted over it, every
/// session submitting the full suite: the pool's statistics and the
/// ledger's totals.
fn run_concurrent(sessions: usize) -> Result<(SchedulerStats, SourceTraffic)> {
    let env = FedMark::build(1, SEED)?;
    let scheduler = env.system.scheduler(
        AdmissionConfig::with_workers(sessions).with_source_permits(sessions.div_ceil(2).max(1)),
    );
    let mut tickets = Vec::new();
    for _ in 0..sessions {
        for (_, _, sql) in FedMark::queries() {
            tickets.push(scheduler.submit(sql, "public"));
        }
    }
    for t in tickets {
        t.join()?;
    }
    Ok((scheduler.finish(), env.system.federation().ledger().total()))
}

pub fn e16_concurrent_sessions() -> Result<Report> {
    let mut report = Report::new(
        "e16",
        "Concurrent multi-session throughput",
        "An admission-controlled worker pool over one shared Arc<EiiSystem> scales \
         near-linearly with session count while keeping byte accounting identical to serial",
        &[
            "sessions",
            "queries",
            "serial sim (ms)",
            "makespan (ms)",
            "speedup",
            "p50 (ms)",
            "p95 (ms)",
            "bytes",
        ],
    );

    // Serial oracle: the same per-session workload executed inline, giving
    // the byte/row accounting concurrency must reproduce exactly (per
    // session, since each concurrent session ships the suite once).
    let serial = run(&FedMark::build(1, SEED)?.system, FedMark::suite()).checked()?;
    let (serial_bytes, serial_rows) = (serial.traffic.bytes, serial.traffic.rows);
    let mut speedup_at_16 = 0.0;
    for sessions in SESSIONS {
        let (stats, traffic) = run_concurrent(sessions)?;
        let speedup = stats.serial_sim_ms / stats.makespan_ms.max(f64::EPSILON);
        if sessions == 16 {
            speedup_at_16 = speedup;
            // Headline summary: throughput on the parallel virtual
            // timeline (completed jobs over makespan), not the serial sum.
            BenchSummary {
                id: "e16".to_string(),
                queries: stats.completed as usize,
                throughput_qps: stats.completed as f64
                    / (stats.makespan_ms.max(f64::EPSILON) / 1000.0),
                p50_ms: stats.latency_percentile(50.0),
                p99_ms: stats.latency_percentile(99.0),
                bytes_shipped: traffic.bytes,
                extra: vec![("speedup".to_string(), speedup)],
            }
            .write()?;
        }

        // Gate (b): concurrency must not change what was shipped. Every
        // session runs the suite once, so totals are exact multiples of
        // the serial oracle's.
        if traffic.bytes != serial_bytes * sessions || traffic.rows != serial_rows * sessions {
            return Err(EiiError::Execution(format!(
                "E16 accounting drift at {sessions} sessions: {} bytes / {} rows \
                 concurrent vs {} / {} serial x{sessions}",
                traffic.bytes,
                traffic.rows,
                serial_bytes * sessions,
                serial_rows * sessions,
            )));
        }

        report.row(vec![
            sessions.to_string(),
            stats.completed.to_string(),
            format!("{:.1}", stats.serial_sim_ms),
            format!("{:.1}", stats.makespan_ms),
            format!("{speedup:.2}x"),
            format!("{:.2}", stats.latency_percentile(50.0)),
            format!("{:.2}", stats.latency_percentile(95.0)),
            traffic.bytes.to_string(),
        ]);
    }

    // Gate (a): the pool must actually spread work across sessions.
    if speedup_at_16 < MIN_SPEEDUP_AT_16 {
        return Err(EiiError::Execution(format!(
            "E16 scaling regression: {speedup_at_16:.2}x speedup at 16 sessions \
             (gate: >= {MIN_SPEEDUP_AT_16:.1}x)"
        )));
    }

    report.note(format!(
        "bytes identical to the serial oracle at every session count \
         ({serial_bytes} per session); speedup at 16 sessions: {speedup_at_16:.2}x \
         (gate >= {MIN_SPEEDUP_AT_16:.1}x)"
    ));
    report.note(
        "latencies and makespan are simulated ms on the scheduler's deterministic \
         virtual timeline (single-core CI cannot observe wall-clock parallelism)",
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_gates_hold() {
        let report = e16_concurrent_sessions().expect("E16 gates");
        assert_eq!(report.rows.len(), SESSIONS.len());
    }
}
