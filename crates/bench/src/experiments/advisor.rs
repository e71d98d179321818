//! E20 — workload-driven self-tuning, measured: a skewed FedMark query
//! stream with **zero** hand-defined views, where the advisor alone mines
//! the query log, materializes the best candidates under its storage
//! budget as live incrementally-maintained views, and keeps them fresh
//! through a write stream. The gates are the self-tuning claims: bytes
//! shipped must drop at least [`MIN_REDUCTION`]x against the untuned
//! system, every answer must be identical, no human defines a view, and a
//! same-seed replay must be bit-identical — including the advisor's
//! recommendation sequence.

use eii::data::{EiiError, Result, Row};
use eii::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fedmark::{new_order, sizes, FedMark};
use crate::report::{fmt_f, Report};
use crate::runner::{run, Run, Step};
use crate::summary::BenchSummary;

/// Statements in the workload (queries + writes).
const STATEMENTS: usize = 120;
/// FedMark build seed and the workload's derived seed.
const SEED: u64 = 31;
/// Acceptance bar: the tuned run must ship at least this factor fewer
/// bytes than the untuned run over the same statement stream.
const MIN_REDUCTION: f64 = 2.0;

/// The skewed head of the workload: three IVM-eligible shapes (filter,
/// cross-source join, grouped join aggregate — no ORDER BY / DISTINCT /
/// LIMIT, which delta propagation cannot maintain) that soak up ~3/4 of
/// the statement stream. The advisor has to find these on its own.
const HOT: [&str; 3] = [
    "SELECT order_id, total FROM sales.orders WHERE status = 'open'",
    "SELECT c.name, o.total FROM crm.customers c \
     JOIN sales.orders o ON c.customer_id = o.customer_id \
     WHERE c.region = 'r1' AND o.total > 900",
    "SELECT c.region, COUNT(*) AS orders \
     FROM crm.customers c JOIN sales.orders o ON c.customer_id = o.customer_id \
     GROUP BY c.region",
];

/// The seeded statement stream: ~10% new orders (the installed views must
/// stay fresh through them), ~75% hot shapes and a long tail of one-off
/// point lookups whose fingerprints never accumulate enough executions to
/// be candidates.
fn stream(env: &FedMark) -> Result<Vec<Step>> {
    let n_cust = sizes(1).0;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x20e5);
    let sales = env.system.federation().source("sales")?;
    let mut next_order = 1_000_000i64;
    let mut steps = Vec::with_capacity(STATEMENTS);
    for _ in 0..STATEMENTS {
        let pick = rng.gen_range(0..100);
        steps.push(if pick < 10 {
            next_order += 1;
            Step::Write(sales.clone(), new_order(&mut rng, next_order - 1, n_cust))
        } else if pick < 85 {
            Step::Query(HOT[rng.gen_range(0..HOT.len())].into())
        } else {
            let id = rng.gen_range(0..n_cust);
            Step::Query(format!("SELECT name FROM crm.customers WHERE customer_id = {id}"))
        });
    }
    Ok(steps)
}

/// Drive the stream against a fresh FedMark build, with or without the
/// advisor enabled (nothing else differs). Gives the run, the advisor's
/// executed-action journal (empty when untuned), the views installed and
/// the advisor's cycles.
fn drive(tuned: bool) -> Result<(Run, String, usize, u64)> {
    let env = FedMark::build(1, SEED)?;
    if tuned {
        env.system.enable_advisor(AdvisorConfig {
            advise_every: 10,
            min_count: 3,
            ..AdvisorConfig::default()
        });
    }
    let workload = run(&env.system, stream(&env)?).checked()?;
    let views = env
        .system
        .matviews()
        .map_or(Vec::new(), |m| m.defs(env.clock.now_ms()));
    // Zero-admin gate: nothing in this experiment defines a view by hand,
    // so every servable view must be advisor-installed.
    for def in &views {
        if !def.name.starts_with("adv_") {
            return Err(EiiError::Execution(format!(
                "E20 found a non-advisor view: {}",
                def.name
            )));
        }
    }
    let digest = env
        .system
        .advisor()
        .map_or(String::new(), |a| a.replay_digest());
    let cycles = env.system.metrics().snapshot().counter("advisor.cycles");
    Ok((workload, digest, views.len(), cycles))
}

/// Each query's sorted answer rows, by its position in the stream:
/// canonical row order, since a view maintained by delta application may
/// serve rows in a different physical order.
fn answers(run: &Run) -> Vec<(usize, Vec<Row>)> {
    let mut answers = Vec::new();
    let queries = run.records.iter().enumerate();
    for (i, batch) in queries.filter_map(|(i, r)| Some((i, r.batch.as_ref()?))) {
        let mut rows = batch.rows().to_vec();
        rows.sort();
        answers.push((i, rows));
    }
    answers
}

/// Each query's simulated latency, in stream order.
fn latencies(run: &Run) -> Vec<f64> {
    let queries = run.records.iter().filter(|r| r.batch.is_some());
    queries.map(|r| r.cost.sim_ms).collect()
}

/// E20 — the advisor pays for itself. Errors (failing the harness and CI)
/// unless the tuned run ships `MIN_REDUCTION`x fewer bytes with
/// byte-identical answers, installs every view itself, and replays
/// bit-identically — recommendation sequence included.
pub fn e20_self_tuning() -> Result<Report> {
    let (tuned, digest, views_installed, cycles) = drive(true)?;
    let (untuned, _, untuned_views, untuned_cycles) = drive(false)?;
    let (replay, replay_digest, ..) = drive(true)?;
    // Total simulated query time: the determinism signal beside the byte
    // ledger (a replay must land on the exact same value).
    let sim_ms = |r: &Run| -> f64 { latencies(r).iter().sum() };

    let (bytes, untuned_bytes) = (tuned.traffic.bytes, untuned.traffic.bytes);
    let reduction = untuned_bytes as f64 / (bytes as f64).max(1.0);
    let mut report = Report::new(
        "e20",
        "workload-driven self-tuning: matview advisor on a skewed stream",
        "Halevy §7 — an EII deployment cannot assume a DBA who pre-defines \
         the right views; the system has to mine its own workload, \
         materialize what pays, and keep answers identical while doing it",
        &[
            "config",
            "statements",
            "bytes shipped",
            "views installed",
            "advisor cycles",
            "query sim ms",
        ],
    );
    for (name, r, views, cycles) in [
        ("advisor", &tuned, views_installed, cycles),
        ("untuned", &untuned, untuned_views, untuned_cycles),
    ] {
        report.row(vec![
            name.to_string(),
            STATEMENTS.to_string(),
            r.traffic.bytes.to_string(),
            views.to_string(),
            cycles.to_string(),
            format!("{:.1}", sim_ms(r)),
        ]);
    }
    report.note(format!(
        "skewed workload: 3 hot shapes x ~75% of {STATEMENTS} statements + \
         one-off tail + ~10% writes; advisor ships {}x fewer bytes \
         (bar: {MIN_REDUCTION:.0}x) with zero hand-defined views",
        fmt_f(reduction),
    ));
    report.note(
        "every answer matches the untuned system row-for-row (canonical \
         order), and a same-seed replay reproduces the byte ledger, the \
         simulated latencies, and the advisor's recommendation sequence \
         exactly",
    );

    // CI regression gates.
    if reduction < MIN_REDUCTION {
        return Err(EiiError::Execution(format!(
            "advisor only cut bytes shipped by {reduction:.2}x — under the \
             {MIN_REDUCTION:.0}x bar ({} vs {} bytes)",
            bytes, untuned_bytes
        )));
    }
    if views_installed == 0 {
        return Err(EiiError::Execution(
            "advisor installed no views on a skewed workload".into(),
        ));
    }
    if answers(&tuned) != answers(&untuned) {
        return Err(EiiError::Execution(
            "self-tuning changed answers: tuned and untuned result streams \
             differ"
                .into(),
        ));
    }
    if replay.traffic.bytes != bytes
        || sim_ms(&replay) != sim_ms(&tuned)
        || answers(&replay) != answers(&tuned)
        || replay_digest != digest
    {
        return Err(EiiError::Execution(format!(
            "same-seed replay diverged: {} vs {} bytes, {:.3} vs {:.3} sim \
             ms, digests {}equal",
            replay.traffic.bytes,
            bytes,
            sim_ms(&replay),
            sim_ms(&tuned),
            if replay_digest == digest { "" } else { "un" },
        )));
    }

    BenchSummary::from_latencies("e20", &latencies(&tuned), bytes)
        .with_extra("bytes_reduction", reduction)
        .with_extra("views_installed", views_installed as f64)
        .with_extra("advisor_cycles", cycles as f64)
        .with_extra("untuned_bytes", untuned_bytes as f64)
        .with_extra("sim_ms", sim_ms(&tuned))
        .write()?;
    Ok(report)
}
