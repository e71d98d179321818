//! Metrics-catalog drift test: the table in `docs/observability.md` is the
//! contract for every metric name the engine emits. A smoke workload
//! exercises each subsystem (queries, cache, matviews, sagas, resilience,
//! hedging, degradation, brownout shedding, deadlines, cancellation, SLOs)
//! and the test fails in both directions — a documented metric the
//! workload never emits (stale docs or dead instrumentation), or an
//! emitted metric the catalog does not list (undocumented telemetry).
//!
//! Catalog placeholders like `<name>` / `<priority>` match exactly one
//! dot-free segment of an emitted metric name.

use std::collections::{BTreeSet, HashMap};

use eii::data::EiiError;
use eii::eai::{MessageBroker, ProcessDef, ProcessEnv, SagaEngine, Step};
use eii::obs::{MetricsSnapshot, SloObjective};
use eii::prelude::*;
use eii::row;
use eii_bench::fedmark::FedMark;

/// Parse the metric catalog out of `docs/observability.md`: rows of the
/// three-column table whose middle cell is a metric type.
fn documented_catalog() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let text = std::fs::read_to_string(path).expect("docs/observability.md is readable");
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() == 3 && matches!(cells[1], "counter" | "histogram") {
            out.push((cells[1].to_string(), cells[0].trim_matches('`').to_string()));
        }
    }
    assert!(
        out.len() >= 30,
        "catalog parse looks broken: only {} rows found",
        out.len()
    );
    out
}

/// `<placeholder>` segments match any one dot-free segment.
fn matches_pattern(pattern: &str, name: &str) -> bool {
    let ps: Vec<&str> = pattern.split('.').collect();
    let ns: Vec<&str> = name.split('.').collect();
    ps.len() == ns.len()
        && ps
            .iter()
            .zip(&ns)
            .all(|(p, n)| (p.starts_with('<') && p.ends_with('>')) || p == n)
}

fn collect(into: &mut BTreeSet<(String, String)>, snap: &MetricsSnapshot) {
    for k in snap.counters.keys() {
        into.insert(("counter".to_string(), k.clone()));
    }
    for k in snap.histograms.keys() {
        into.insert(("histogram".to_string(), k.clone()));
    }
}

/// Queries, labeled session, matview rewrite, result cache (hit / stale
/// hit / eviction / invalidation), deadlines, cancellation, sagas, SLO
/// evaluation — the "happy path plus local machinery" slice.
fn scenario_core() -> MetricsSnapshot {
    let env = FedMark::build(1, 11).unwrap();
    let system = &env.system;
    system.install_result_cache(CacheConfig {
        capacity: 8,
        staleness_budget_ms: 0,
    });
    system
        .define_matview(
            "mv_customers",
            "SELECT * FROM crm.customers",
            RefreshPolicy::Manual,
        )
        .unwrap();
    system.set_slo_objective(SloObjective::new("normal", 100.0));

    // The full suite through a labeled session: 11 distinct cache entries
    // against capacity 8, so the oldest evict.
    let session = system.session().with_label("drift");
    for (_, _, sql) in FedMark::queries() {
        session.execute(sql).unwrap();
    }

    // Fill, hit (age histogram + bytes-saved credit), then turn the entry
    // suspect by writing to its base table: a budgeted session takes a
    // stale hit, the unbudgeted retry invalidates and refetches.
    let hot = "SELECT total FROM sales.orders WHERE total > 950";
    system.execute(hot).unwrap();
    system.execute(hot).unwrap();
    system
        .federation()
        .source("sales")
        .unwrap()
        .update(&UpdateOp::Insert {
            table: "orders".into(),
            row: row![9_000_000i64, 0i64, 999.5f64, "new", Value::Timestamp(0)],
        })
        .unwrap();
    system
        .session()
        .with_staleness_budget(1_000_000_000)
        .execute(hot)
        .unwrap();
    system.execute(hot).unwrap();
    system.invalidate_cached("crm.customers");

    // Incremental view maintenance: one delta-maintained view (bootstrap,
    // delta refresh with staleness tracking, in-place result-cache
    // refresh) and one definition that falls back to recompute.
    let ivm_sql = "SELECT order_id, total FROM sales.orders WHERE total > 990";
    let fallback = system
        .define_incremental_matview("mv_ivm", ivm_sql, RefreshPolicy::Manual)
        .unwrap();
    assert!(fallback.is_none(), "a filter view must incrementalize");
    system.execute(ivm_sql).unwrap(); // fills the cache under the view's plan key
    system
        .federation()
        .source("sales")
        .unwrap()
        .update(&UpdateOp::Insert {
            table: "orders".into(),
            row: row![9_000_001i64, 0i64, 999.75f64, "new", Value::Timestamp(0)],
        })
        .unwrap();
    system.refresh_matview("mv_ivm").unwrap();
    let reason = system
        .define_incremental_matview(
            "mv_ivm_fallback",
            "SELECT order_id FROM sales.orders ORDER BY total LIMIT 5",
            RefreshPolicy::Manual,
        )
        .unwrap();
    assert!(reason.is_some(), "ORDER BY ... LIMIT must fall back");
    system.refresh_matview("mv_ivm_fallback").unwrap();

    // Deadline accounting: one statement finishes inside a generous
    // budget, one federated join cannot fit a 1 ms budget.
    system
        .session()
        .with_deadline_ms(1_000_000)
        .execute("SELECT status FROM sales.orders WHERE total > 990")
        .unwrap();
    let exceeded = system.session().with_deadline_ms(1).execute(
        "SELECT c.name, o.total FROM crm.customers c \
         JOIN sales.orders o ON c.customer_id = o.customer_id",
    );
    assert!(exceeded.is_err(), "a 1 ms deadline must abort a WAN join");

    // Cooperative cancellation via a pre-tripped token.
    let token = CancelToken::new();
    token.cancel("metrics drift smoke");
    let cancelled = system
        .session()
        .with_cancel_token(token)
        .execute("SELECT segment FROM crm.customers WHERE region = 'r2'");
    assert!(cancelled.is_err(), "a tripped token must abort the query");

    // One completed and one compensated saga against this federation.
    let broker = MessageBroker::new();
    let engine = SagaEngine::new(env.clock.clone()).with_metrics(system.metrics().clone());
    let penv = ProcessEnv::new(system.federation(), &broker, &env.clock, HashMap::new());
    let ok = ProcessDef::new("drift_ok").step(Step::new("noop", |_| Ok(())));
    engine.run(&ok, &penv).unwrap();
    let boom = ProcessDef::new("drift_boom")
        .step(Step::new("pre", |_| Ok(())).with_compensation(|_| Ok(())))
        .step(Step::new(
            "explode",
            |_| Err(EiiError::Execution("injected".into())),
        ));
    engine.run(&boom, &penv).unwrap();

    system.slo_status();
    system.metrics().snapshot()
}

/// Retries, failures, and a full breaker lap (open → rejected fast-fail →
/// half-open → closed) driven by an outage window on the virtual clock.
fn scenario_breaker() -> MetricsSnapshot {
    let env = FedMark::build(1, 12).unwrap();
    let system = &env.system;
    let mut profile = FaultProfile::none();
    profile.outages = vec![(0, 400)];
    system.federation().inject_faults("sales", profile).unwrap();
    // After inject_faults, so the resilience layer wraps the faulty
    // transport (as it would in production).
    system
        .federation()
        .harden(
            "sales",
            RetryPolicy::standard(),
            CircuitBreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 50,
                success_threshold: 1,
            },
        )
        .unwrap();
    let sql = "SELECT order_id FROM sales.orders WHERE total > 995";
    let mut recovered = false;
    for _ in 0..40 {
        match system.execute(sql) {
            Ok(_) => {
                recovered = true;
                break;
            }
            Err(_) => {
                env.clock.advance_ms(30);
            }
        }
    }
    assert!(recovered, "the source must heal after its outage window");
    system.metrics().snapshot()
}

/// Hedged requests over a flaky source: backups fire on every non-first
/// fetch and rescue failed primaries.
fn scenario_hedge() -> MetricsSnapshot {
    let env = FedMark::build(1, 13).unwrap();
    env.system
        .federation()
        .inject_faults("sales", FaultProfile::failing(0.4, 99))
        .unwrap();
    env.system.set_hedge_policy(HedgePolicy {
        threshold_ms: 0.0,
        delay_ms: 0.5,
    });
    let sql = "SELECT customer_id FROM sales.orders WHERE total > 900";
    for _ in 0..25 {
        let _ = env.system.execute(sql);
    }
    env.system.metrics().snapshot()
}

/// Stale-snapshot fallback for a fully failing source.
fn scenario_degraded() -> MetricsSnapshot {
    let env = FedMark::build(1, 14).unwrap();
    env.system.snapshot_fallback("sales.orders").unwrap();
    env.system
        .federation()
        .inject_faults("sales", FaultProfile::failing(1.0, 7))
        .unwrap();
    env.system.set_degradation_policy(DegradationPolicy::Fallback);
    env.system
        .execute("SELECT total FROM sales.orders WHERE total > 900")
        .unwrap();
    env.system.metrics().snapshot()
}

/// Brownout admission over an undersized token bucket: Low submissions
/// shed with a typed error, Normal ones degrade to partial results.
fn scenario_shed() -> MetricsSnapshot {
    let env = FedMark::build(1, 15).unwrap();
    let scheduler = env.system.scheduler_with_brownout(
        AdmissionConfig::with_workers(2),
        BrownoutConfig {
            capacity_ms: 30.0,
            cost_per_job_ms: 10.0,
            refill_per_job_ms: 0.0,
        },
    );
    let queries = FedMark::queries();
    let mut tickets = Vec::new();
    for (i, (_, _, sql)) in queries.iter().cycle().take(24).enumerate() {
        let mut opts = ExecOptions::for_role("public");
        opts.priority = match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        if let Ok((ticket, _)) = scheduler.submit_prioritized(sql, &opts) {
            tickets.push(ticket);
        }
    }
    for ticket in tickets {
        let _ = ticket.join();
    }
    scheduler.finish();
    env.system.metrics().snapshot()
}

/// The self-tuning loop: an advisory cycle materializes a hot
/// fingerprint, a later cycle evicts it once its observed hit rate
/// decays, and a divergence factor of 1.0 forces the executor to
/// adaptively re-plan an eligible hub join.
fn scenario_advisor() -> MetricsSnapshot {
    // Hub hash joins only, so the adaptive re-planning hook is eligible.
    let env = FedMark::build_with_config(
        1,
        16,
        PlannerConfig {
            use_bind_joins: false,
            choose_assembly_site: false,
            ..PlannerConfig::optimized()
        },
    )
    .unwrap();
    let system = &env.system;
    system.enable_advisor(AdvisorConfig {
        advise_every: 4,
        min_count: 2,
        grace_statements: 4,
        min_hit_rate: 0.99,
        replan_factor: 1.0,
        ..AdvisorConfig::default()
    });
    // Before any view rewrites exist: every eligible hub join counts as
    // diverged at factor 1.0, so the build side is re-issued bound.
    system
        .execute(
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.customer_id = o.customer_id \
             WHERE o.total > 990",
        )
        .unwrap();
    // Statements 2-5: the hot fingerprint crosses the cycle boundary at
    // 4 with count >= min_count and is materialized as a live IVM view.
    let hot = "SELECT order_id, total FROM sales.orders WHERE status = 'open'";
    for _ in 0..4 {
        system.execute(hot).unwrap();
    }
    // Off-fingerprint tail past the grace window: the installed view's
    // hit rate decays to 0 < 0.99 and a later cycle evicts it.
    for i in 0..8 {
        system
            .execute(&format!(
                "SELECT name FROM crm.customers WHERE customer_id = {i}"
            ))
            .unwrap();
    }
    let snap = system.metrics().snapshot();
    assert!(snap.counter("advisor.materialized") >= 1, "no view installed");
    assert!(snap.counter("advisor.evicted") >= 1, "no view evicted");
    assert!(snap.counter("advisor.replans") >= 1, "no join re-planned");
    snap
}

#[test]
fn metrics_catalog_matches_emitted_names() {
    let documented = documented_catalog();
    let mut emitted = BTreeSet::new();
    let core = scenario_core();
    // FedMark's Int join keys end direct, Q3's `GROUP BY region` hashed.
    for index in ["direct", "hashed"] {
        let name = format!("exec.keys.index.{index}");
        assert!(core.counter(&name) > 0, "no key table ended {index}");
    }
    for snap in [
        core,
        scenario_breaker(),
        scenario_hedge(),
        scenario_degraded(),
        scenario_shed(),
        scenario_advisor(),
    ] {
        collect(&mut emitted, &snap);
    }

    let never_emitted: Vec<String> = documented
        .iter()
        .filter(|(ty, pattern)| {
            !emitted
                .iter()
                .any(|(ety, name)| ety == ty && matches_pattern(pattern, name))
        })
        .map(|(ty, pattern)| format!("{pattern} ({ty})"))
        .collect();
    assert!(
        never_emitted.is_empty(),
        "documented in docs/observability.md but never emitted by the smoke \
         workload (stale docs or dead instrumentation): {never_emitted:?}"
    );

    let undocumented: Vec<String> = emitted
        .iter()
        .filter(|(ty, name)| {
            !documented
                .iter()
                .any(|(dty, pattern)| dty == ty && matches_pattern(pattern, name))
        })
        .map(|(ty, name)| format!("{name} ({ty})"))
        .collect();
    assert!(
        undocumented.is_empty(),
        "emitted by the smoke workload but missing from the \
         docs/observability.md catalog: {undocumented:?}"
    );
}
