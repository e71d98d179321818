//! E18 — the workload telemetry pipeline: the query log, trace store,
//! latency sketches, and SLO monitor record every statement, and must be
//! close to free and perfectly repeatable while doing it.
//!
//! Gates, enforced here so CI fails when they regress:
//!
//! 1. **Overhead** — running the FedMark suite with the telemetry pipeline
//!    enabled vs disabled leaves simulated time bit-identical (telemetry
//!    never touches the simulation) and costs under 5% wall-clock.
//! 2. **Determinism** — two same-seed 16-session chaos runs over freshly
//!    built environments log every statement and produce bit-identical
//!    query-log fingerprint aggregates (order-independent, so thread
//!    interleaving cannot perturb the digest CI diffs across commits).
//! 3. **Export** — a statement that hedged *and* degraded yields a stored
//!    trace whose Chrome trace-event JSON parses and contains the
//!    `hedge:backup` span, so the rescue is visible in Perfetto.
//!
//! The headline artifact is the workload profile the future matview
//! advisor will consume: top-k plan fingerprints by bytes shipped,
//! persisted to `BENCH_E18.json`.

use eii::data::{EiiError, Result};
use eii::obs::WorkloadKey;
use eii::prelude::*;

use crate::chaos::{trace_fingerprint, ChaosScenario};
use crate::fedmark::FedMark;
use crate::report::Report;
use crate::summary::BenchSummary;
use crate::timing::paired_overhead;

const SEED: u64 = 503;
/// On/off/off/on trials timed; see [`paired_overhead`] (and E14 on why many
/// short passes).
const TRIALS: usize = 41;
/// Repetitions of the whole query set inside one pass (~10 ms).
const REPS: usize = 3;
/// Maximum tolerated wall-clock overhead of telemetry recording, percent.
/// The 5% budget is a statement about optimized code — CI enforces it by
/// running the release binary. Unoptimized `cargo test` builds inflate the
/// relative cost of recording, so they get a loose leash; the sim-identity,
/// determinism, and export gates stay strict in every profile.
#[cfg(not(debug_assertions))]
const BUDGET_PCT: f64 = 5.0;
#[cfg(debug_assertions)]
const BUDGET_PCT: f64 = 40.0;
/// Concurrent sessions in the determinism gate.
const SESSIONS: usize = 16;
/// Workload-profile rows reported and persisted.
const TOP_K: usize = 5;

/// One full pass over the FedMark suite through the system facade (parse,
/// plan, execute, record); returns the total sim ms of the last rep.
fn suite_pass(env: &FedMark, telemetry: bool) -> Result<f64> {
    env.system.set_telemetry_enabled(telemetry);
    let mut sim = 0.0;
    for _ in 0..REPS {
        sim = 0.0;
        for (_, _, sql) in FedMark::queries() {
            let out = env.system.execute(sql)?;
            sim += out.query_result()?.cost.sim_ms;
        }
    }
    Ok(sim)
}

/// Gate 1: telemetry on vs off. Errors if recording changes simulated time
/// at all or costs more than [`BUDGET_PCT`] percent wall-clock.
fn overhead_gate() -> Result<(f64, f64)> {
    let env = FedMark::build(1, SEED)?;
    let o = paired_overhead(TRIALS, |on| suite_pass(&env, on))?;
    env.system.set_telemetry_enabled(true);
    if o.sim_on != o.sim_off {
        return Err(EiiError::Execution(format!(
            "E18 telemetry changed simulated time: {} vs {} ms",
            o.sim_on, o.sim_off
        )));
    }
    if o.pct > BUDGET_PCT {
        return Err(EiiError::Execution(format!(
            "E18 telemetry wall overhead {:.1}% exceeds {BUDGET_PCT:.0}% budget \
             ({:.1}ms on vs {:.1}ms off)",
            o.pct, o.wall_on_ms, o.wall_off_ms
        )));
    }
    Ok((o.pct, o.sim_on))
}

/// What one 16-session chaos run leaves behind in the query log.
struct ChaosRun {
    /// Sorted `(fingerprint, count)` aggregate — the determinism digest
    /// input. Order-independent, so worker-thread interleaving (which *does*
    /// perturb per-statement latencies and fault rolls) cannot touch it.
    fingerprints: Vec<(u64, u64)>,
    digest: u64,
    seen: u64,
}

/// One freshly built environment under composed chaos, 16 sessions each
/// submitting the whole suite through the admission-controlled pool.
fn chaos_run() -> Result<ChaosRun> {
    let env = FedMark::build(1, SEED)?;
    ChaosScenario::compose(
        "spikes+flap+storm",
        &[
            ChaosScenario::latency_spikes("crm", 0.3, 20, 17),
            ChaosScenario::flapping("support", 50, 120, 40, 3),
            ChaosScenario::breaker_storm("sales", 0.2, 29),
        ],
    )
    .breaker_cooldown(80)
    .apply(&env.system)?;

    let scheduler = env.system.scheduler(AdmissionConfig::with_workers(SESSIONS));
    let mut tickets = Vec::new();
    for _ in 0..SESSIONS {
        for (_, _, sql) in FedMark::queries() {
            tickets.push(scheduler.submit(sql, "public"));
        }
    }
    // Faulted statements still get logged (with their error kind), so the
    // aggregate below counts every submission either way.
    for t in tickets {
        let _ = t.join();
    }
    scheduler.finish();

    let log = env.system.query_log();
    let fingerprints = log.fingerprints();
    let lines: Vec<String> = fingerprints
        .iter()
        .map(|(fp, n)| format!("{fp:016x} x{n}"))
        .collect();
    Ok(ChaosRun {
        digest: trace_fingerprint(&lines),
        fingerprints,
        seen: log.seen(),
    })
}

/// What the serial profile pass leaves behind: the deterministic numbers
/// the report table and `BENCH_E18.json` are built from.
struct ProfileRun {
    latencies: Vec<f64>,
    bytes: u64,
    top: Vec<eii::obs::FingerprintStats>,
    distinct: usize,
}

/// One clean fault-free serial pass over the suite: per-statement byte
/// accounting is exact (no concurrent traffic on the shared ledger), so
/// the top-k-by-bytes workload profile is bit-stable across runs.
fn profile_run() -> Result<ProfileRun> {
    let env = FedMark::build(1, SEED)?;
    for (_, _, sql) in FedMark::queries() {
        env.system.execute(sql)?;
    }
    let log = env.system.query_log();
    let records = log.records();
    Ok(ProfileRun {
        latencies: records.iter().map(|r| r.sim_ms).collect(),
        bytes: records.iter().map(|r| r.bytes_shipped).sum(),
        top: log.top_k(TOP_K, WorkloadKey::BytesShipped),
        distinct: log.fingerprints().len(),
    })
}

/// Gate 3: force one statement to both hedge (latency-triggered backup on
/// the crm fetch) and degrade (the sales fetch fails hard and falls back
/// to a snapshot), then export its stored trace as Chrome trace-event JSON
/// and check the hedge shows up as a span.
fn chrome_export_gate() -> Result<(u64, usize)> {
    let env = FedMark::build(1, SEED)?;
    env.system.snapshot_fallback("sales.orders")?;
    env.system
        .federation()
        .inject_faults("sales", FaultProfile::failing(1.0, 7))?;
    env.system.set_degradation_policy(DegradationPolicy::Fallback);
    env.system.set_hedge_policy(HedgePolicy {
        threshold_ms: 0.0,
        delay_ms: 0.5,
    });
    // Prime the hedger's latency history: the first fetch per source is
    // never hedged.
    env.system
        .execute("SELECT name FROM crm.customers WHERE region = 'r3'")?;
    let out = env.system.execute(
        "SELECT c.name, o.total FROM crm.customers c \
         JOIN sales.orders o ON c.customer_id = o.customer_id \
         WHERE c.region = 'r1' AND o.total > 900",
    )?;
    let result = out.query_result()?;
    if !result.hedged || result.degraded.is_empty() {
        return Err(EiiError::Execution(format!(
            "E18 export setup failed: hedged={} degraded={:?}",
            result.hedged, result.degraded
        )));
    }
    let stored = env
        .system
        .trace_store()
        .latest()
        .ok_or_else(|| EiiError::Execution("E18: hedged+degraded trace not retained".into()))?;
    if !(stored.flags.hedged && stored.flags.degraded) {
        return Err(EiiError::Execution(format!(
            "E18: stored trace missing flags: {:?}",
            stored.flags
        )));
    }
    let chrome = eii::obs::chrome_trace_json(&stored);
    let parsed: serde_json::Value = serde_json::from_str(&chrome)
        .map_err(|e| EiiError::Execution(format!("E18 Chrome trace JSON unparseable: {e}")))?;
    let events = match &parsed {
        serde_json::Value::Obj(entries) => entries
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v),
        _ => None,
    };
    let n_events = match events {
        Some(serde_json::Value::Arr(items)) => items.len(),
        _ => 0,
    };
    if n_events == 0 {
        return Err(EiiError::Execution(
            "E18 Chrome trace export has no traceEvents".into(),
        ));
    }
    if !chrome.contains("hedge:backup") {
        return Err(EiiError::Execution(
            "E18 Chrome trace export missing the hedge:backup span".into(),
        ));
    }
    Ok((stored.trace_id, n_events))
}

pub fn e18_workload_telemetry() -> Result<Report> {
    let (overhead_pct, sim_suite) = overhead_gate()?;

    // Gate 2: two same-seed runs, compared on the order-independent
    // fingerprint aggregate (thread interleaving must not perturb it).
    let run_a = chaos_run()?;
    let run_b = chaos_run()?;
    if run_a.fingerprints != run_b.fingerprints || run_a.digest != run_b.digest {
        return Err(EiiError::Execution(format!(
            "E18 query-log drift across same-seed runs: digest {:016x} vs {:016x} \
             ({} vs {} fingerprints)",
            run_a.digest,
            run_b.digest,
            run_a.fingerprints.len(),
            run_b.fingerprints.len(),
        )));
    }
    let expected = (SESSIONS * FedMark::queries().len()) as u64;
    if run_a.seen != expected {
        return Err(EiiError::Execution(format!(
            "E18 query log lost statements: saw {} of {expected}",
            run_a.seen
        )));
    }

    let (trace_id, n_events) = chrome_export_gate()?;
    let profile = profile_run()?;

    let mut report = Report::new(
        "e18",
        "workload telemetry: query log, trace store, sketches, SLO monitor",
        "recording every statement into the query log and trace store is \
         near-free, bit-repeatable under 16-session chaos, and exports \
         Perfetto-loadable traces — the workload profile below is the \
         matview advisor's future input",
        &["rank", "fingerprint", "count", "errors", "bytes", "sim ms", "plan"],
    );
    for (rank, stats) in profile.top.iter().enumerate() {
        let mut plan = stats.plan.lines().next().unwrap_or("").to_string();
        if plan.len() > 44 {
            plan.truncate(41);
            plan.push_str("...");
        }
        report.row(vec![
            (rank + 1).to_string(),
            format!("{:016x}", stats.fingerprint),
            stats.count.to_string(),
            stats.errors.to_string(),
            stats.total_bytes.to_string(),
            format!("{:.1}", stats.total_sim_ms),
            plan,
        ]);
    }
    report.note(format!(
        "overhead: telemetry on vs off leaves the suite's simulated time \
         bit-identical ({sim_suite:.1} ms) at {overhead_pct:+.1}% wall \
         (budget {BUDGET_PCT:.0}%, median of {TRIALS} on/off/off/on trial ratios x {REPS} reps)"
    ));
    report.note(format!(
        "determinism: two same-seed {SESSIONS}-session chaos runs logged all \
         {} statements each with identical fingerprint aggregates; \
         digest {:016x}",
        run_a.seen, run_a.digest
    ));
    report.note(format!(
        "export: hedged+degraded statement retained by tail-sampling \
         (trace id {trace_id}), Chrome trace JSON parses with {n_events} \
         events including the hedge:backup span"
    ));

    BenchSummary::from_latencies("e18", &profile.latencies, profile.bytes as usize)
        .with_extra("overhead_pct", overhead_pct)
        .with_extra("fingerprints", profile.distinct as f64)
        .write()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_gates_hold() {
        let report = e18_workload_telemetry().expect("E18 gates");
        assert_eq!(report.rows.len(), TOP_K);
        assert_eq!(report.notes.len(), 3);
    }
}
