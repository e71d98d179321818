//! E14 — observability overhead: the tracing/metrics/profiling
//! instrumentation is always on, so it must be close to free. Runs the
//! FedMark query set with the executor instrumented and uninstrumented and
//! compares simulated time (must be identical — instrumentation never
//! touches the simulation) and wall-clock time (budgeted under 5%).

use eii::data::{EiiError, Result};
use eii::exec::{ExecMetrics, Executor};
use eii::sql::{parse_statement, Statement};

use crate::fedmark::FedMark;
use crate::report::{fmt_f, Report};
use crate::summary::BenchSummary;
use crate::timing::paired_overhead;

/// On/off/off/on trials timed; see [`paired_overhead`]. Many short passes
/// rather than few long ones: a noisy stretch of the machine then spoils a
/// few trial ratios, and the median ignores them.
const TRIALS: usize = 41;
/// Repetitions of the whole query set inside one pass (~15 ms).
const REPS: usize = 5;
/// Maximum tolerated wall-clock overhead, percent.
const BUDGET_PCT: f64 = 5.0;

/// E14 — instrumented vs. uninstrumented execution of the FedMark queries.
/// Errors (failing the harness and CI) if instrumentation changes simulated
/// time at all or costs more than [`BUDGET_PCT`] percent wall-clock.
pub fn e14_observability_overhead() -> Result<Report> {
    let env = FedMark::build(1, 23)?;
    let sys = &env.system;

    // Plan once; both modes execute identical physical plans.
    let mut plans = Vec::new();
    for (_, _, sql) in FedMark::queries() {
        let Statement::Query(q) = parse_statement(sql)? else {
            continue;
        };
        plans.push(eii::planner::plan_query(
            &q,
            sys.catalog(),
            sys.federation(),
            sys.config(),
        )?);
    }

    // The handles into the registry, resolved once, as the facade does.
    let metrics = ExecMetrics::from(sys.federation().metrics().clone());
    let run_pass = |instrument: bool| -> Result<f64> {
        let mut sim = 0.0;
        for _ in 0..REPS {
            sim = 0.0;
            for plan in &plans {
                let exec = if instrument {
                    Executor::new(sys.federation()).with_metrics(metrics.clone())
                } else {
                    Executor::new(sys.federation()).without_instrumentation()
                };
                sim += exec.execute(plan)?.cost.sim_ms;
            }
        }
        Ok(sim)
    };
    let o = paired_overhead(TRIALS, run_pass)?;
    let (sim_on, sim_off, overhead_pct) = (o.sim_on, o.sim_off, o.pct);

    let mut report = Report::new(
        "e14",
        "observability overhead: instrumented vs uninstrumented executor",
        "tracing, per-operator profiling, and metrics stay on in production \
         because they are near-free: zero simulated-time impact, wall-clock \
         within budget",
        &["mode", "sim ms (set)", "wall ms (median)", "overhead"],
    );
    report.row(vec![
        "uninstrumented".to_string(),
        fmt_f(sim_off),
        fmt_f(o.wall_off_ms),
        "-".to_string(),
    ]);
    report.row(vec![
        "instrumented".to_string(),
        fmt_f(sim_on),
        fmt_f(o.wall_on_ms),
        format!("{overhead_pct:+.1}%"),
    ]);
    report.note(format!(
        "FedMark sf=1, {} queries x {REPS} reps, median of {TRIALS} on/off/off/on \
         trial ratios; budget {BUDGET_PCT:.0}%",
        plans.len()
    ));

    if sim_on != sim_off {
        return Err(EiiError::Execution(format!(
            "instrumentation changed simulated time: {sim_on} vs {sim_off} ms"
        )));
    }
    if overhead_pct > BUDGET_PCT {
        return Err(EiiError::Execution(format!(
            "instrumentation wall overhead {overhead_pct:.1}% exceeds {BUDGET_PCT:.0}% budget \
             ({:.1}ms vs {:.1}ms)",
            o.wall_on_ms, o.wall_off_ms
        )));
    }

    // Headline summary: one clean instrumented pass over the query set.
    sys.federation().ledger().reset();
    let mut latencies = Vec::with_capacity(plans.len());
    for plan in &plans {
        let exec = Executor::new(sys.federation()).with_metrics(metrics.clone());
        latencies.push(exec.execute(plan)?.cost.sim_ms);
    }
    let bytes = sys.federation().ledger().total().bytes;
    BenchSummary::from_latencies("e14", &latencies, bytes)
        .with_extra("overhead_pct", overhead_pct)
        .write()?;
    Ok(report)
}
