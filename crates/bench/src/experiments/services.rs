//! Service-layer experiments: E5 (materialized-view frontier), E6 (record
//! correlation), E8 (enterprise search), E10 (saga resilience).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eii::data::Result;
use eii::eai::{FailureInjector, ProcessDef, ProcessEnv, SagaEngine, SagaOutcome, Step};
use eii::federation::UpdateOp;
use eii::matview::{similarity, CorrelationIndex, MatViewManager, RefreshPolicy};
use eii::prelude::*;
use eii::row;
use eii::search::{index_docstore, index_federation_table, EnterpriseSearch, SearchIndex};

use crate::fedmark::{company_name, keyed_table, FedMark};
use crate::report::{fmt_f, Report};

/// E5 — Draper §5: the latency/staleness frontier of refresh policies.
pub fn e5_matview_frontier() -> Result<Report> {
    let mut report = Report::new(
        "e5",
        "materialized views: cost per fetch vs staleness, by refresh policy",
        "Draper §5 — administrators choose freshness per view; most \
         applications tolerate bounded staleness at a fraction of the cost",
        &[
            "policy",
            "fetches",
            "recomputes",
            "avg cost/fetch (ms)",
            "avg staleness (ms)",
            "max staleness (ms)",
        ],
    );
    let env = FedMark::build(1, 51)?;
    let views = MatViewManager::new(env.system.federation().clone(), env.clock.clone());
    let sql = "SELECT c.region, COUNT(*) AS orders FROM crm.customers c \
               JOIN sales.orders o ON c.customer_id = o.customer_id GROUP BY c.region";
    let policies: Vec<(String, RefreshPolicy)> = vec![
        ("live".into(), RefreshPolicy::Live),
        ("periodic 1s".into(), RefreshPolicy::Periodic { interval_ms: 1_000 }),
        ("periodic 10s".into(), RefreshPolicy::Periodic { interval_ms: 10_000 }),
        ("periodic 60s".into(), RefreshPolicy::Periodic { interval_ms: 60_000 }),
        ("manual".into(), RefreshPolicy::Manual),
    ];
    for (name, policy) in &policies {
        views.define(name, sql, env.system.catalog(), *policy)?;
    }
    let fetches = 60usize; // one every 5 simulated seconds
    let mut totals: HashMap<String, (f64, i64, i64)> = HashMap::new();
    for _ in 0..fetches {
        env.clock.advance_ms(5_000);
        for (name, _) in &policies {
            let (_, o) = views.fetch(name)?;
            let e = totals.entry(name.clone()).or_insert((0.0, 0, 0));
            e.0 += o.sim_ms;
            e.1 += o.staleness_ms;
            e.2 = e.2.max(o.staleness_ms);
        }
    }
    for (name, _) in &policies {
        let (cost, stale_sum, stale_max) = totals[name];
        report.row(vec![
            name.clone(),
            fetches.to_string(),
            views.refresh_count(name).to_string(),
            fmt_f(cost / fetches as f64),
            fmt_f(stale_sum as f64 / fetches as f64),
            stale_max.to_string(),
        ]);
    }
    report.note("fetch cadence: every 5 simulated seconds for 5 minutes".to_string());
    Ok(report)
}

/// Generate `(clean, dirty)` company-name pairs plus unmatched noise.
fn correlation_data(n: usize, seed: u64) -> (Batch, Batch) {
    let mut rng = StdRng::seed_from_u64(seed);
    let suffixes = ["inc", "llc", "ltd", "co", "corporation", "incorporated", ""];
    let left_schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("name", DataType::Str),
    ]));
    let right_schema = Arc::new(Schema::new(vec![
        Field::new("ref", DataType::Int),
        Field::new("company", DataType::Str),
    ]));
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..n {
        let base = company_name(&mut rng, i as i64);
        left.push(row![i as i64, base.clone()]);
        // Dirty variant: random case, random suffix, maybe punctuation.
        let mut dirty = if rng.gen_bool(0.5) {
            base.to_uppercase()
        } else {
            base.clone()
        };
        let suffix = suffixes[rng.gen_range(0..suffixes.len())];
        if !suffix.is_empty() {
            dirty.push(' ');
            dirty.push_str(suffix);
        }
        if rng.gen_bool(0.3) {
            dirty.push('.');
        }
        right.push(row![(10_000 + i) as i64, dirty]);
    }
    // Unmatched noise on the right.
    for i in 0..(n / 4) {
        right.push(row![(20_000 + i) as i64, format!("wayne enterprises {i}")]);
    }
    (
        Batch::new(left_schema, left),
        Batch::new(right_schema, right),
    )
}

/// E6 — Draper §5: the record-correlation join index.
pub fn e6_record_correlation() -> Result<Report> {
    let mut report = Report::new(
        "e6",
        "record correlation: joining sources with no shared key",
        "Draper §5 — exact joins find nothing on dirty identity data; the \
         stored join index recovers matches cheaply and precisely",
        &[
            "pairs",
            "exact matches",
            "candidates (blocked / n^2)",
            "precision",
            "recall",
            "build (wall ms)",
            "indexed join (wall us)",
            "naive fuzzy (wall us)",
        ],
    );
    for n in [50usize, 200, 800] {
        let (left, right) = correlation_data(n, 61);
        // Exact join baseline.
        let exact = left
            .rows()
            .iter()
            .flat_map(|l| right.rows().iter().filter(move |r| l.get(1) == r.get(1)))
            .count();
        let t0 = Instant::now();
        let ix = CorrelationIndex::build_best_match(
            &left, "id", "name", &right, "ref", "company", 0.62,
        )?;
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Ground truth: left i <-> right 10_000 + i.
        let mut tp = 0usize;
        let mut fp = 0usize;
        for c in ix.pairs() {
            let l = c.left_key.as_int().unwrap_or(-1);
            let r = c.right_key.as_int().unwrap_or(-1);
            if r == 10_000 + l {
                tp += 1;
            } else {
                fp += 1;
            }
        }
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        let recall = tp as f64 / n as f64;
        // Join through the index vs re-scoring every pair on the fly.
        let t1 = Instant::now();
        let joined = ix.join(&left, "id", &right, "ref")?;
        let join_us = t1.elapsed().as_secs_f64() * 1e6;
        let t2 = Instant::now();
        // The unindexed alternative: re-score every pair on the fly, keep
        // each left record's best match (same semantics as the index, no
        // blocking, nothing stored).
        let mut naive = 0usize;
        for l in left.rows() {
            let mut best = 0.0f64;
            for r in right.rows() {
                let s = similarity(
                    l.get(1).as_str().unwrap_or(""),
                    r.get(1).as_str().unwrap_or(""),
                );
                best = best.max(s);
            }
            if best >= 0.62 {
                naive += 1;
            }
        }
        let naive_us = t2.elapsed().as_secs_f64() * 1e6;
        if joined.num_rows() > naive {
            return Err(EiiError::Execution(format!(
                "E6 blocked join found {} pairs, the exhaustive loop only {naive}",
                joined.num_rows()
            )));
        }
        report.row(vec![
            n.to_string(),
            exact.to_string(),
            format!("{} / {}", ix.candidates_scored, n * (n + n / 4)),
            format!("{precision:.2}"),
            format!("{recall:.2}"),
            fmt_f(build_ms),
            fmt_f(join_us),
            fmt_f(naive_us),
        ]);
    }
    report.note("threshold 0.62 trigram similarity; blocking on first token".to_string());
    Ok(report)
}

/// E8 — Sikka §8: federated search with security filtering.
pub fn e8_enterprise_search() -> Result<Report> {
    let mut report = Report::new(
        "e8",
        "enterprise search across structured rows and documents",
        "Sikka §8 — one search over business objects and documents, with \
         per-source authorization on every hit",
        &[
            "query",
            "role",
            "hits",
            "structured",
            "documents",
            "filtered out",
            "wall us",
        ],
    );
    let env = FedMark::build(1, 71)?;
    let mut index = SearchIndex::new();
    index_federation_table(&mut index, env.system.federation(), "crm.customers")?;
    index_federation_table(&mut index, env.system.federation(), "hr.employees")?;
    index_docstore(&mut index, "contracts", &env.contracts)?;
    index_docstore(&mut index, "support", &env.tickets)?;
    let catalog = env.system.catalog().clone();
    catalog.grant("hr", "hr-admin"); // employee rows restricted
    let search = EnterpriseSearch::new(index, catalog);

    for (query, role) in [
        ("acme corp renewal", "public"),
        ("gold support tier", "public"),
        ("employee engineering", "public"),
        ("employee engineering", "hr-admin"),
        ("ticket widgets", "public"),
    ] {
        let t0 = Instant::now();
        let (hits, stats) = search.search(query, role, 20)?;
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let structured = hits
            .iter()
            .filter(|h| h.kind == eii::search::ItemKind::Structured)
            .count();
        report.row(vec![
            query.to_string(),
            role.to_string(),
            hits.len().to_string(),
            structured.to_string(),
            (hits.len() - structured).to_string(),
            stats.filtered_out.to_string(),
            fmt_f(wall_us),
        ]);
    }
    report.note("hr rows are ACL-restricted; note the same query's hit count by role".to_string());
    Ok(report)
}

/// A saga step that inserts `row` into `table` at `source`; its
/// compensation deletes the row keyed `key`.
fn insert_step(name: &str, source: &'static str, table: &'static str, row: Row, key: i64) -> Step {
    Step::new(name, move |env: &ProcessEnv<'_>| {
        let row = row.clone();
        env.federation.source(source)?.update(&UpdateOp::Insert { table: table.into(), row })?;
        Ok(())
    })
    .with_compensation(move |env| {
        let key = Value::Int(key);
        env.federation.source(source)?.update(&UpdateOp::DeleteByKey { table: table.into(), key })?;
        Ok(())
    })
}

/// E10 — Carey §4: long-running updates as sagas, under injected failures.
pub fn e10_saga_resilience() -> Result<Report> {
    let mut report = Report::new(
        "e10",
        "onboarding sagas under failure injection",
        "Carey §4 — multi-system updates need compensation, not transactions; \
         failed sagas must leave no partial effects",
        &[
            "failure rate",
            "sagas",
            "completed",
            "compensated",
            "stuck",
            "residue rows",
            "avg duration (sim s)",
        ],
    );
    for rate in [0.0f64, 0.05, 0.10, 0.25, 0.50] {
        let clock = SimClock::new();
        let hr = Database::new("hr", clock.clone());
        keyed_table(&hr, "employees", &[("emp_id", DataType::Int), ("name", DataType::Str)], [])?;
        let it = Database::new("it", clock.clone());
        keyed_table(&it, "assets", &[("asset_id", DataType::Int), ("owner", DataType::Int)], [])?;
        let fed = Federation::new();
        for db in [&hr, &it] {
            let connector = Arc::new(RelationalConnector::new(db.clone()));
            fed.register(connector, LinkProfile::lan(), WireFormat::Native)?;
        }
        let broker = eii::eai::MessageBroker::new();
        let engine = SagaEngine::new(clock.clone())
            .with_injector(FailureInjector::new(rate, 4242));

        let runs = 200usize;
        let mut completed = 0usize;
        let mut compensated = 0usize;
        let mut stuck = 0usize;
        let mut total_ms = 0i64;
        for i in 0..runs {
            let emp = i as i64;
            let hire = insert_step("hr_insert", "hr", "employees", row![emp, format!("emp {emp}")], emp);
            let assign = insert_step("it_assign", "it", "assets", row![emp, emp], emp);
            let def = ProcessDef::new("onboard")
                .step(hire.taking_ms(1_000))
                .step(assign.taking_ms(2_000))
                .step(Step::new("approve", |_| Ok(())).taking_ms(5_000));
            let start = clock.now_ms();
            let env = ProcessEnv::new(&fed, &broker, &clock, HashMap::new());
            let (outcome, _) = engine.run(&def, &env)?;
            total_ms += clock.now_ms() - start;
            match outcome {
                SagaOutcome::Completed => completed += 1,
                SagaOutcome::Compensated { .. } => compensated += 1,
                SagaOutcome::Stuck { .. } => stuck += 1,
                // `run` has no cancel token; nothing can cancel here.
                SagaOutcome::Cancelled { .. } => unreachable!("uncancellable run"),
            }
        }
        // Invariant: sources contain exactly the completed sagas' rows.
        let hr_rows = hr.table("employees")?.read().row_count();
        let it_rows = it.table("assets")?.read().row_count();
        let residue =
            (hr_rows as i64 - completed as i64).abs() + (it_rows as i64 - completed as i64).abs();
        report.row(vec![
            format!("{:.0}%", rate * 100.0),
            runs.to_string(),
            completed.to_string(),
            compensated.to_string(),
            stuck.to_string(),
            residue.to_string(),
            fmt_f(total_ms as f64 / runs as f64 / 1000.0),
        ]);
    }
    report.note("residue rows = partial effects surviving after compensation (must be 0)".to_string());
    Ok(report)
}
