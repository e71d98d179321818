//! E17 — robustness under chaos: deadline propagation, cooperative
//! cancellation, hedged requests, and brownout load shedding, exercised by
//! the deterministic chaos harness ([`crate::chaos`]).
//!
//! Three gates, all on the simulated clock:
//!
//! 1. **Determinism** — a composed chaos scenario (latency spikes, a
//!    flapping document store, a crash window, a breaker storm) replayed
//!    from two freshly built environments yields bit-identical recovery
//!    traces.
//! 2. **Hedging** — against a source with a fail-fast error tail, a
//!    latency-triggered backup fetch beats the seed policy (retry with
//!    exponential backoff) on p99 while returning byte-identical answers.
//! 3. **Brownout** — under admission overload, high-priority sessions all
//!    meet their deadline SLA while low-priority queries are shed fast
//!    with a typed `shed` error instead of queueing behind them.

use eii::data::Result;
use eii::prelude::*;

use crate::chaos::{recovery_trace, trace_fingerprint, ChaosScenario};
use crate::fedmark::{join_workload, FedMark};
use crate::report::{fmt_f, Report};
use crate::runner::{run, Run, Step};
use crate::summary::{percentile, BenchSummary};

const SEED: u64 = 401;
/// Fail-fast error rate on the hedged source (gate 2).
const TAIL_FAIL_PROB: f64 = 0.08;
/// Fault-dice seed for gate 2 — chosen so the very first fetch against
/// `sales` succeeds (the first request is never hedged: hedging needs an
/// observed latency history) and no query loses both primary and backup.
const TAIL_FAULT_SEED: u64 = 23;
/// Virtual-time SLA for high-priority work in the brownout gate.
const HIGH_SLA_MS: f64 = 2_000.0;

/// The composed scenario gate 1 replays: spikes on the CRM LAN, a flapping
/// support store, and a crash window on sales inside a breaker storm (sales
/// is hardened, so the breaker trips, fast-fails, and probes half-open).
fn chaos_scenario() -> ChaosScenario {
    // Fast-fails never advance the virtual clock, so the breaker cooldown
    // must be short enough for crm's spikes to carry the timeline past it.
    ChaosScenario::compose(
        "spikes+flap+crash+storm",
        &[
            ChaosScenario::latency_spikes("crm", 0.5, 25, 11),
            ChaosScenario::flapping("support", 60, 100, 30, 3),
            ChaosScenario::crash("sales", 120, 200),
            ChaosScenario::breaker_storm("sales", 0.25, 13),
        ],
    )
    .breaker_cooldown(80)
}

/// Gate 1's replay. `parallel_fetch` is off only because the committed
/// fingerprint was taken that way: the setting selects `then` composition of
/// a join's child costs, which is the `sim=` column of the trace. The replay
/// is deterministic at either value (a statement's fetches advance the shared
/// clock in plan order); the override goes with the cost-model re-baseline.
fn chaos_run() -> Result<Vec<String>> {
    let mut config = PlannerConfig::optimized();
    config.parallel_fetch = false;
    chaos_replay(config)
}

/// Build a fresh environment under `config`, apply the chaos scenario —
/// its faults are *clock-coupled*: outage windows, spike clock advances,
/// breaker cooldowns — and replay the workload, returning the recovery trace.
fn chaos_replay(config: PlannerConfig) -> Result<Vec<String>> {
    let env = FedMark::build_with_config(1, SEED, config)?;
    chaos_scenario().apply(&env.system)?;
    env.system.federation().ledger().reset();
    Ok(recovery_trace(&env.system, &join_workload(30, 3)))
}

/// The tail-latency workload for the hedging gate: crm ⋈ sales joins.
fn tail_workload() -> Vec<String> {
    (1..=80i64)
        .map(|i| {
            format!(
                "SELECT c.name, o.total FROM crm.customers c \
                 JOIN sales.orders o ON c.customer_id = o.customer_id \
                 WHERE o.total > {}",
                (i % 40) * 25
            )
        })
        .collect()
}

/// Run the tail workload against a sales source with fail-fast faults,
/// under either the seed policy (retry/backoff) or hedged requests.
fn posture(hedged: bool) -> Result<Run> {
    let env = FedMark::build(1, SEED)?;
    env.system
        .federation()
        .inject_faults("sales", FaultProfile::failing(TAIL_FAIL_PROB, TAIL_FAULT_SEED))?;
    if hedged {
        // Threshold 0 hedges every fetch after the first per source: a
        // failed primary is rescued by the delayed backup at ~delay + one
        // clean fetch, instead of a retry loop burning backoff time.
        env.system.set_hedge_policy(HedgePolicy {
            threshold_ms: 0.0,
            delay_ms: 0.5,
        });
    } else {
        env.system.federation().harden(
            "sales",
            RetryPolicy::standard(),
            CircuitBreakerConfig::default(),
        )?;
    }
    Ok(run(&env.system, tail_workload().into_iter().map(Step::Query)))
}

/// Each statement's latency: the clock it waited plus its cost (a failed
/// one cost nothing).
fn latencies(run: &Run) -> Vec<f64> {
    run.records.iter().map(|r| r.waited_ms as f64 + r.cost.sim_ms).collect()
}

/// Each statement's answer rows; a failed one's is never "equal".
fn row_counts(run: &Run) -> Vec<usize> {
    let rows = run.records.iter().map(|r| r.batch.as_ref().map(Batch::num_rows));
    rows.map(|n| n.unwrap_or(usize::MAX)).collect()
}

#[derive(Default)]
struct BrownoutRun {
    high_ok: usize,
    high_total: usize,
    high_p99_ms: f64,
    low_shed: usize,
    low_total: usize,
    degraded: u64,
}

/// Overload a two-worker scheduler whose brownout bucket only covers the
/// first few admissions, interleaving High (SLA-bearing) and Low
/// (best-effort) submissions.
fn run_brownout() -> Result<BrownoutRun> {
    let env = FedMark::build(1, SEED)?;
    let scheduler = env.system.scheduler_with_brownout(
        AdmissionConfig::with_workers(2),
        BrownoutConfig {
            capacity_ms: 30.0,
            cost_per_job_ms: 10.0,
            refill_per_job_ms: 0.0,
        },
    );

    let mut run = BrownoutRun::default();
    let mut tickets = Vec::new();
    for (i, sql) in tail_workload().iter().take(24).enumerate() {
        let mut opts = ExecOptions::for_role("public");
        if i % 2 == 0 {
            opts.priority = Priority::High;
            opts.deadline_budget_ms = Some(HIGH_SLA_MS as i64);
            run.high_total += 1;
        } else {
            opts.priority = Priority::Low;
            run.low_total += 1;
        }
        match scheduler.submit_prioritized(sql, &opts) {
            Ok((ticket, _)) => tickets.push((opts.priority, ticket)),
            Err(e) if e.kind() == "shed" => run.low_shed += 1,
            Err(e) => return Err(e),
        }
    }
    for (priority, ticket) in tickets {
        let ok = ticket.join().is_ok();
        if priority == Priority::High && ok {
            run.high_ok += 1;
        }
    }
    let stats = scheduler.finish();
    run.high_p99_ms = stats.latency_percentile_for(Priority::High, 99.0);
    run.degraded = stats.degraded;
    Ok(run)
}

/// E17 — chaos-harness robustness: deterministic recovery traces, a p99
/// win from hedged requests with byte-identical answers, and brownout
/// shedding that protects high-priority SLAs.
pub fn e17_robustness() -> Result<Report> {
    let mut report = Report::new(
        "e17",
        "robustness: deadlines, hedging, and brownout under deterministic chaos",
        "Draper §5 / Carey §4 — a fielded integration platform must absorb \
         slow, flapping, and crashed sources; on a simulated clock the whole \
         recovery story replays bit-identically, so tail-latency and \
         load-shedding wins are provable, not anecdotal",
        &["gate", "metric", "seed policy", "hardened", "verdict"],
    );

    // Gate 1 — determinism: same scenario, two fresh environments.
    let trace_a = chaos_run()?;
    let trace_b = chaos_run()?;
    let identical = trace_a == trace_b;
    let errs = trace_a.iter().filter(|l| l.contains(" err ")).count();
    let oks = trace_a.len() - errs;
    report.row(vec![
        "chaos replay".into(),
        "trace fingerprint".into(),
        format!("{:016x}", trace_fingerprint(&trace_a)),
        format!("{:016x}", trace_fingerprint(&trace_b)),
        if identical { "bit-identical".into() } else { "DIVERGED".into() },
    ]);
    report.row(vec![
        "chaos replay".into(),
        "queries ok / failed".into(),
        format!("{oks} / {errs}"),
        "same".into(),
        "recovered mid-run".into(),
    ]);

    // Gate 2 — hedging vs the seed retry policy on a fail-fast tail.
    let seed_policy = posture(false)?;
    let hedged = posture(true)?;
    let n = tail_workload().len();
    let p99_seed = percentile(&latencies(&seed_policy), 99.0);
    let p99_hedged = percentile(&latencies(&hedged), 99.0);
    let (seed_ok, hedged_ok) = (seed_policy.answered().count(), hedged.answered().count());
    let results_match =
        row_counts(&seed_policy) == row_counts(&hedged) && seed_ok == n && hedged_ok == n;
    report.row(vec![
        "hedged requests".into(),
        "p99 latency (sim ms)".into(),
        fmt_f(p99_seed),
        fmt_f(p99_hedged),
        format!("{:.1}x faster", p99_seed / p99_hedged.max(1e-9)),
    ]);
    report.row(vec![
        "hedged requests".into(),
        "answers".into(),
        format!("{seed_ok}/{n} ok"),
        format!("{hedged_ok}/{n} ok"),
        if results_match { "byte-identical rows".into() } else { "MISMATCH".into() },
    ]);
    report.row(vec![
        "hedged requests".into(),
        "bytes shipped / retries / hedges".into(),
        format!("{} / {} / 0", seed_policy.traffic.bytes, seed_policy.traffic.retries),
        format!(
            "{} / {} / {}",
            hedged.traffic.bytes, hedged.traffic.retries, hedged.traffic.hedges
        ),
        "hedging tax".into(),
    ]);

    // Gate 3 — brownout: High meets its SLA, Low sheds fast.
    let brownout = run_brownout()?;
    report.row(vec![
        "brownout shedding".into(),
        "high-priority SLA".into(),
        format!("{}/{} ok", brownout.high_ok, brownout.high_total),
        format!("p99 {} ms (SLA {})", fmt_f(brownout.high_p99_ms), HIGH_SLA_MS),
        if brownout.high_ok == brownout.high_total && brownout.high_p99_ms <= HIGH_SLA_MS {
            "SLA met".into()
        } else {
            "SLA MISSED".into()
        },
    ]);
    report.row(vec![
        "brownout shedding".into(),
        "low-priority shed".into(),
        format!("{}/{} shed", brownout.low_shed, brownout.low_total),
        format!("{} degraded", brownout.degraded),
        "typed `shed` error, fails fast".into(),
    ]);

    report.note(format!(
        "chaos scenario: {} — crm spikes (p=0.5, +25ms), support flapping \
         (3 windows of 30ms every 100ms), sales crash [120,200)ms inside a \
         25% breaker storm (hardened: retry/backoff + 80ms-cooldown breaker)",
        chaos_scenario().name
    ));
    report.note(
        "hedging gate: sales fails fast 8% of requests; seed policy heals by \
         retry (backoff burns virtual time), hedged posture races a 0.5ms-\
         delayed backup and takes the first arrival — same rows, shorter tail",
    );
    report.note(
        "brownout gate: token bucket covers 3 admissions (30ms @ 10ms/job, \
         no refill); High borrows against future refills, Low sheds before \
         queueing",
    );

    BenchSummary::from_latencies("e17", &latencies(&hedged), hedged.traffic.bytes)
        .with_extra("p99_seed_policy_ms", p99_seed)
        .with_extra("p99_hedged_ms", p99_hedged)
        .with_extra("hedges_fired", hedged.traffic.hedges as f64)
        .with_extra("low_shed", brownout.low_shed as f64)
        .with_extra("high_sla_ok", brownout.high_ok as f64)
        .write()?;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_traces_are_bit_identical_and_show_recovery() {
        let a = chaos_run().unwrap();
        let b = chaos_run().unwrap();
        assert_eq!(a, b, "same seed, same scenario → same trace");
        let errs = a.iter().filter(|l| l.contains(" err ")).count();
        assert!(errs > 0, "chaos must actually break something:\n{}", a.join("\n"));
        let last = a.last().unwrap();
        assert!(
            last.contains(" ok "),
            "the run must recover by the end:\n{}",
            a.join("\n")
        );
    }

    #[test]
    fn clock_coupled_faults_replay_with_parallel_fetch_on() {
        let config = PlannerConfig::optimized();
        assert!(config.parallel_fetch);
        let a = chaos_replay(config.clone()).unwrap();
        let b = chaos_replay(config).unwrap();
        assert!(a.iter().any(|l| l.contains(" err ")), "{}", a.join("\n"));
        // Outcome, rows, sim=, degradations, cumulative retries and the t=
        // clock reading of every statement.
        assert_eq!(a, b, "\n{}\n--\n{}", a.join("\n"), b.join("\n"));
    }

    #[test]
    fn hedging_beats_retry_backoff_on_p99_with_identical_answers() {
        let seed_policy = posture(false).unwrap();
        let hedged = posture(true).unwrap();
        let n = tail_workload().len();
        assert_eq!(seed_policy.answered().count(), n, "seed policy must answer everything");
        assert_eq!(hedged.answered().count(), n, "hedged posture must answer everything");
        assert_eq!(
            row_counts(&seed_policy),
            row_counts(&hedged),
            "hedging must not change any answer"
        );
        assert!(hedged.traffic.hedges > 0, "the backup fetch must actually fire");
        let p99_seed = percentile(&latencies(&seed_policy), 99.0);
        let p99_hedged = percentile(&latencies(&hedged), 99.0);
        assert!(
            p99_hedged < p99_seed,
            "hedged p99 {p99_hedged} must beat seed-policy p99 {p99_seed}"
        );
    }

    #[test]
    fn brownout_protects_high_priority_and_sheds_low_fast() {
        let run = run_brownout().unwrap();
        assert_eq!(run.high_ok, run.high_total, "every High query must succeed");
        assert!(
            run.high_p99_ms <= HIGH_SLA_MS,
            "High p99 {} must meet the {HIGH_SLA_MS}ms SLA",
            run.high_p99_ms
        );
        assert!(run.low_shed > 0, "overload must shed some Low work");
    }
}

