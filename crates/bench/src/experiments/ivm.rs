//! E19 — incremental view maintenance, measured: refresh cost under a
//! sustained write stream for a view set maintained by delta propagation
//! versus full recompute, plus freshness (IVM contents must equal a full
//! recompute after every churn round) and determinism (same-seed runs land
//! on bit-identical simulated clocks and view contents).
//!
//! The workload models the live-dashboard traffic ROADMAP calls IVM "the
//! single biggest unlock" for: a fixed view set (filter/project, cross-
//! source join, grouped aggregate) kept fresh while ~1% of the order book
//! churns per round. The gate is the paper's economic claim — refresh cost
//! must scale with the change, not the data.

use eii::data::{EiiError, Result, Row};
use eii::prelude::*;
use eii::row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fedmark::{new_order, sizes, FedMark};
use crate::report::{fmt_f, Report};
use crate::runner::{run, Step};
use crate::summary::BenchSummary;

/// Churn rounds after the initial materialization.
const ROUNDS: usize = 20;
/// FedMark build seed and the write stream's derived seed.
const SEED: u64 = 29;
/// Acceptance bar: incremental refresh must be at least this much cheaper
/// than full recompute over the steady-state rounds.
const MIN_SPEEDUP: f64 = 10.0;

/// The maintained view set: one stateless pipeline, one cross-source
/// equi-join, one grouped aggregate with mergeable partials.
const VIEWS: [(&str, &str); 3] = [
    (
        "v_open_orders",
        "SELECT order_id, total FROM sales.orders WHERE status = 'open'",
    ),
    (
        "v_customer_orders",
        "SELECT c.name, o.order_id FROM crm.customers c \
         JOIN sales.orders o ON c.customer_id = o.customer_id",
    ),
    (
        "v_product_units",
        "SELECT product_id, COUNT(*) AS n, SUM(qty) AS units \
         FROM sales.lineitems GROUP BY product_id",
    ),
];

/// The write stream: `ROUNDS` rounds, each ~1% of the order book churned
/// (new orders, status updates, deletes, new line items) and then every
/// view refreshed.
fn churn(env: &FedMark) -> Result<Vec<Step>> {
    let (n_cust, n_ord, n_prod, ..) = sizes(1);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x19f3);
    let mut live: Vec<i64> = (0..n_ord).collect();
    let mut next_order = 1_000_000i64;
    // Line item ids continue from a range disjoint from the generated ones.
    let mut next_li = 1_000_000i64;
    let sales = env.system.federation().source("sales")?;
    // 1% of the order book churns per round.
    let churn = (n_ord as usize / 100).max(1);

    let mut steps = Vec::new();
    for _ in 0..ROUNDS {
        for _ in 0..churn {
            let op = match rng.gen_range(0..4) {
                0 => {
                    live.push(next_order);
                    next_order += 1;
                    new_order(&mut rng, next_order - 1, n_cust)
                }
                1 => {
                    let id = live[rng.gen_range(0..live.len())];
                    UpdateOp::UpdateByKey {
                        table: "orders".into(),
                        key: Value::Int(id),
                        assignments: vec![(
                            "status".into(),
                            Value::from(if rng.gen_bool(0.5) { "open" } else { "billed" }),
                        )],
                    }
                }
                2 => {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    UpdateOp::DeleteByKey {
                        table: "orders".into(),
                        key: Value::Int(id),
                    }
                }
                _ => {
                    next_li += 1;
                    UpdateOp::Insert {
                        table: "lineitems".into(),
                        row: row![
                            next_li - 1,
                            live[rng.gen_range(0..live.len())],
                            rng.gen_range(0..n_prod),
                            rng.gen_range(1..10i64)
                        ],
                    }
                }
            };
            steps.push(Step::Write(sales.clone(), op));
        }
        steps.extend(VIEWS.map(|(name, _)| Step::Refresh(name.into())));
    }
    Ok(steps)
}

/// Each view's name and final contents, canonically sorted.
type Contents = Vec<(String, Vec<Row>)>;

/// Build a FedMark environment, define the view set (incrementally or
/// not), and run the churn stream. Gives each round's total refresh cost
/// across the view set, each view's contents, the simulated clock at the
/// end and the delta rows maintenance consumed.
fn maintained(incremental: bool) -> Result<(Vec<f64>, Contents, i64, u64)> {
    let env = FedMark::build(1, SEED)?;
    for (name, sql) in VIEWS {
        if incremental {
            if let Some(reason) = env
                .system
                .define_incremental_matview(name, sql, RefreshPolicy::Manual)?
            {
                return Err(EiiError::Execution(format!(
                    "E19 view {name} unexpectedly fell back: {reason}"
                )));
            }
        } else {
            env.system.define_matview(name, sql, RefreshPolicy::Manual)?;
        }
    }
    let records = run(&env.system, churn(&env)?).checked()?.records;
    // A round is its writes, then one refresh per view.
    let rounds = records.chunks(records.len() / ROUNDS);
    let round_ms = rounds
        .map(|round| round[round.len() - VIEWS.len()..].iter().map(|r| r.cost.sim_ms).sum())
        .collect();

    let mgr = env.system.matviews().ok_or_else(|| {
        EiiError::Execution("E19 has no view manager".into())
    })?;
    let mut finals = Vec::new();
    for (name, _) in VIEWS {
        let view = mgr.cached(name)?.ok_or_else(|| {
            EiiError::Execution(format!("E19 view {name} is not materialized"))
        })?;
        let mut rows = view.rows().to_vec();
        rows.sort();
        finals.push((name.to_string(), rows));
    }
    let delta_rows = env.system.metrics().snapshot().counter("ivm.delta_rows");
    Ok((round_ms, finals, env.clock.now_ms(), delta_rows))
}

/// E19 — O(delta) matview refresh under sustained churn. Errors (failing
/// the harness and CI) unless incremental maintenance beats full recompute
/// by `MIN_SPEEDUP`, produces identical view contents, and replays
/// bit-identically under the same seed.
pub fn e19_incremental_maintenance() -> Result<Report> {
    let (inc_rounds, inc_views, inc_clock, inc_deltas) = maintained(true)?;
    let (full_rounds, full_views, full_clock, full_deltas) = maintained(false)?;
    let (_, replay_views, replay_clock, _) = maintained(true)?;
    let inc_ms: f64 = inc_rounds.iter().sum();
    let full_ms: f64 = full_rounds.iter().sum();

    let speedup = full_ms / inc_ms.max(f64::EPSILON);
    let mut report = Report::new(
        "e19",
        "incremental view maintenance: O(delta) refresh vs full recompute",
        "Halevy §3/§7 — mediated views only stay economical at dashboard \
         refresh rates if maintenance cost follows the change stream, not \
         the base data; delta propagation through filter/join/aggregate \
         keeps refreshed views byte-identical to recomputation",
        &[
            "config",
            "refresh sim ms (20 rounds)",
            "per-round mean",
            "per-round max",
            "delta rows",
            "final view rows",
            "sim clock ms",
        ],
    );
    for (name, rounds, total, deltas, views, clock) in [
        ("incremental", &inc_rounds, inc_ms, inc_deltas, &inc_views, inc_clock),
        ("full recompute", &full_rounds, full_ms, full_deltas, &full_views, full_clock),
    ] {
        let max = rounds.iter().cloned().fold(0.0, f64::max);
        report.row(vec![
            name.to_string(),
            fmt_f(total),
            fmt_f(total / ROUNDS as f64),
            fmt_f(max),
            deltas.to_string(),
            views.iter().map(|(_, r)| r.len()).sum::<usize>().to_string(),
            clock.to_string(),
        ]);
    }
    report.note(format!(
        "{} views x {ROUNDS} churn rounds at ~1% of the order book per \
         round; incremental refresh is {}x cheaper (bar: {MIN_SPEEDUP:.0}x)",
        VIEWS.len(),
        fmt_f(speedup),
    ));
    report.note(
        "freshness: after every run the incrementally maintained contents \
         equal a full recompute over the same write stream, row for row",
    );

    // CI regression gates.
    if speedup < MIN_SPEEDUP {
        return Err(EiiError::Execution(format!(
            "incremental refresh only {speedup:.1}x cheaper than full \
             recompute — under the {MIN_SPEEDUP:.0}x bar \
             ({:.2} vs {:.2} sim ms)",
            inc_ms, full_ms
        )));
    }
    for ((name, inc_rows), (_, full_rows)) in inc_views.iter().zip(&full_views) {
        if inc_rows != full_rows {
            return Err(EiiError::Execution(format!(
                "IVM ≢ recompute for {name}: {} maintained rows vs {} \
                 recomputed",
                inc_rows.len(),
                full_rows.len()
            )));
        }
    }
    if replay_clock != inc_clock || replay_views != inc_views {
        return Err(EiiError::Execution(format!(
            "same-seed replay diverged: clock {replay_clock} vs {inc_clock} ms"
        )));
    }
    if inc_deltas == 0 || full_deltas != 0 {
        return Err(EiiError::Execution(
            "ivm.delta_rows miscounted: incremental must consume deltas, \
             full recompute must not"
                .into(),
        ));
    }

    BenchSummary::from_latencies("e19", &inc_rounds, 0)
        .with_extra("speedup_vs_full", speedup)
        .with_extra("delta_rows", inc_deltas as f64)
        .with_extra("full_refresh_ms", full_ms)
        .with_extra("sim_clock_ms", inc_clock as f64)
        .write()?;
    Ok(report)
}
