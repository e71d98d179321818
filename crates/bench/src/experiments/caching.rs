//! E15 — answering queries using views, measured: bytes shipped and
//! simulated latency for a repeated-query workload under four local-answer
//! configurations (nothing / materialized views / semantic result cache /
//! both), plus the crossover against always-federated execution.
//!
//! The repeated workload models the dashboard-style traffic EII hubs serve
//! in practice: the same query suite re-issued round after round. Matviews
//! cut the first round (single-scan subtrees answer locally); the cache
//! erases the repeats entirely.

use eii::data::{EiiError, Result};
use eii::prelude::*;

use crate::fedmark::FedMark;
use crate::report::{fmt_f, Report};
use crate::runner::{run, Run};
use crate::summary::BenchSummary;

/// Rounds of the full FedMark query suite per configuration; rounds after
/// the first are pure repeats, the cache's home turf.
const ROUNDS: usize = 4;
/// The acceptance bar: matview+cache must ship at most half the bytes of
/// plain federated execution on this workload.
const MIN_BYTES_FACTOR: f64 = 2.0;

/// E15 — local-answer ablation on the repeated FedMark workload. Errors
/// (failing the harness and CI) unless the cache strictly reduces shipped
/// bytes, matview+cache reaches the 2x reduction bar, and a disabled cache
/// leaves the simulation untouched.
pub fn e15_views_and_cache() -> Result<Report> {
    // Simulated ms of the first round (all misses), and of a steady round.
    let n = FedMark::queries().len();
    let round1 = |r: &Run| -> f64 { r.records[..n].iter().map(|r| r.cost.sim_ms).sum() };
    let steady = |r: &Run| (r.sim_ms() - round1(r)) / (ROUNDS - 1) as f64;

    let mut report = Report::new(
        "e15",
        "answering queries using views: matview rewrite + semantic cache",
        "Halevy §3 — rewriting queries onto materialized views and memoizing \
         whole results slashes the bytes a federation ships for repeated \
         workloads, without silently serving stale answers",
        &[
            "config",
            "bytes shipped",
            "bytes saved",
            "sim ms (total)",
            "sim ms (round 1)",
            "sim ms (steady round)",
            "cache hits",
            "matview hits",
        ],
    );
    // One configuration: a fresh FedMark environment with its local-answer
    // machinery on, then the repeated workload, one report row. Gives the
    // run, the matview build cost and the cache and matview hits.
    let mut configured = |name: &str, matviews, cache| -> Result<(Run, f64, u64, u64)> {
        let env = FedMark::build(1, 23)?;
        let mut build_ms = 0.0;
        if matviews {
            // The two hottest scan targets in the suite: every Q1/Q2/Q3/Q5..Q11
            // touches customers; orders feeds the join-heavy queries over the
            // WAN link where shipped bytes hurt most.
            build_ms += env.system.define_matview(
                "mv_customers",
                "SELECT * FROM crm.customers",
                RefreshPolicy::Manual,
            )?;
            build_ms += env.system.define_matview(
                "mv_orders",
                "SELECT * FROM sales.orders",
                RefreshPolicy::Manual,
            )?;
        }
        if cache {
            env.system.install_result_cache(CacheConfig::default());
        }
        // Materialization itself ships rows; the run's ledger starts after
        // it, so its bytes are what the queries cost and `build_ms` is the
        // investment.
        let r = run(&env.system, (0..ROUNDS).flat_map(|_| FedMark::suite())).checked()?;
        let snap = env.system.metrics().snapshot();
        let (cache_hits, matview_hits) = (snap.counter("cache.hits"), snap.counter("matview.hits"));
        report.row(vec![
            name.to_string(),
            r.traffic.bytes.to_string(),
            r.traffic.bytes_saved.to_string(),
            fmt_f(r.sim_ms()),
            fmt_f(round1(&r)),
            fmt_f(steady(&r)),
            cache_hits.to_string(),
            matview_hits.to_string(),
        ]);
        Ok((r, build_ms, cache_hits, matview_hits))
    };
    let (federated, _, federated_hits, _) = configured("federated", false, false)?;
    let (_, _, matview_hits, _) = configured("+matview", true, false)?;
    let (cache, ..) = configured("+cache", false, true)?;
    let (both, build_ms, both_hits, both_matview_hits) = configured("+matview+cache", true, true)?;

    // Crossover against always-federated: after how many rounds does the
    // matview investment (build cost + cheaper rounds) pay for itself?
    let per_round_gain = federated.sim_ms() / ROUNDS as f64 - steady(&both);
    let crossover = if per_round_gain > 0.0 {
        format!("{:.1} rounds", build_ms / per_round_gain)
    } else {
        "never".to_string()
    };
    report.note(format!(
        "{} queries x {ROUNDS} rounds at sf=1; matview build cost {:.1} sim ms; \
         crossover vs always-federated after {crossover}",
        n,
        build_ms,
    ));
    report.note(format!(
        "bytes reduction: matview+cache ships {}x fewer bytes than federated \
         (bar: {MIN_BYTES_FACTOR:.0}x)",
        fmt_f(federated.traffic.bytes as f64 / both.traffic.bytes.max(1) as f64)
    ));

    // CI regression gates.
    if cache.traffic.bytes >= federated.traffic.bytes {
        return Err(EiiError::Execution(format!(
            "result cache did not reduce shipped bytes: {} (cached) vs {} \
             (federated)",
            cache.traffic.bytes, federated.traffic.bytes
        )));
    }
    if (federated.traffic.bytes as f64) < MIN_BYTES_FACTOR * both.traffic.bytes as f64 {
        return Err(EiiError::Execution(format!(
            "matview+cache shipped {} bytes vs {} federated — under the \
             {MIN_BYTES_FACTOR:.0}x reduction bar",
            both.traffic.bytes, federated.traffic.bytes
        )));
    }
    if matview_hits != 0 || federated_hits != 0 {
        return Err(EiiError::Execution(
            "cache hits recorded in a configuration with the cache disabled".into(),
        ));
    }
    // A disabled cache must not perturb the simulation, and the cache's
    // probe/fill path must be free in simulated time: round 1 (all misses)
    // matches the federated baseline exactly.
    if round1(&cache) != round1(&federated) {
        return Err(EiiError::Execution(format!(
            "cache probe/fill changed simulated time on a miss-only round: \
             {} vs {} ms",
            round1(&cache),
            round1(&federated)
        )));
    }

    let latencies: Vec<f64> = both.records.iter().map(|r| r.cost.sim_ms).collect();
    BenchSummary::from_latencies("e15", &latencies, both.traffic.bytes)
        .with_extra("cache_hits", both_hits as f64)
        .with_extra("matview_hits", both_matview_hits as f64)
        .write()?;
    Ok(report)
}
