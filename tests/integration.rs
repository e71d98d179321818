//! Cross-crate integration tests: the full platform assembled the way the
//! examples assemble it — federated queries, warehouse refresh consistency,
//! sagas mutating sources that queries then observe, search with ACLs, and
//! record correlation feeding a federated join.

use std::collections::HashMap;
use std::sync::Arc;

use eii::eai::{ProcessDef, SagaOutcome, Step};
use eii::federation::{SourceQuery, UpdateOp};
use eii::matview::CorrelationIndex;
use eii::prelude::*;
use eii::row;
use eii::search::{index_docstore, index_federation_table, EnterpriseSearch, SearchIndex};
use eii::warehouse::{EtlJob, RefreshMode, Transform, Warehouse};

/// The rendered plan of an `EXPLAIN [ANALYZE]` statement.
fn explained(sys: &EiiSystem, statement: &str) -> String {
    sys.execute(statement).unwrap().explained().unwrap().to_string()
}

/// Build the reference enterprise: crm + sales + support docs.
fn build_system() -> (EiiSystem, SimClock) {
    let clock = SimClock::new();

    let crm = Database::new("crm", clock.clone());
    let t = crm
        .create_table(
            TableDef::new(
                "customers",
                Arc::new(Schema::new(vec![
                    Field::new("id", DataType::Int).not_null(),
                    Field::new("name", DataType::Str),
                    Field::new("region", DataType::Str),
                ])),
            )
            .with_primary_key(0),
        )
        .unwrap();
    {
        let mut t = t.write();
        for (i, (n, r)) in [
            ("Acme Corp", "west"),
            ("Globex", "east"),
            ("Initech", "west"),
            ("Umbrella", "north"),
        ]
        .iter()
        .enumerate()
        {
            t.insert(row![i as i64 + 1, *n, *r]).unwrap();
        }
    }

    let sales = Database::new("sales", clock.clone());
    let ot = sales
        .create_table(
            TableDef::new(
                "orders",
                Arc::new(Schema::new(vec![
                    Field::new("order_id", DataType::Int).not_null(),
                    Field::new("customer_id", DataType::Int),
                    Field::new("total", DataType::Float),
                ])),
            )
            .with_primary_key(0),
        )
        .unwrap();
    {
        let mut t = ot.write();
        for i in 0..40i64 {
            t.insert(row![i, i % 4 + 1, (i as f64 + 1.0) * 5.0]).unwrap();
        }
    }

    let docs = DocStore::new();
    docs.insert(Document::from_text(
        "Acme contract",
        "Acme Corp gold support renewal 2005",
    ));
    docs.insert(Document::from_text(
        "Globex note",
        "Globex churned to a competitor",
    ));
    let support = DocumentConnector::new("docs", docs.clone());

    let sys = EiiSystem::new(clock.clone());
    sys.add_source(
        Arc::new(RelationalConnector::new(crm)),
        LinkProfile::lan(),
        WireFormat::Native,
    )
    .unwrap();
    sys.add_source(
        Arc::new(RelationalConnector::new(sales)),
        LinkProfile::wan(),
        WireFormat::Native,
    )
    .unwrap();
    sys.add_source(Arc::new(support), LinkProfile::lan(), WireFormat::Native)
        .unwrap();

    // Attach search over crm + docs.
    let mut index = SearchIndex::new();
    index_federation_table(&mut index, sys.federation(), "crm.customers").unwrap();
    index_docstore(&mut index, "docs", &docs).unwrap();
    sys.catalog().grant("docs", "legal");
    sys.attach_search_service(EnterpriseSearch::new(index, sys.catalog().clone()));

    (sys, clock)
}

#[test]
fn federated_view_and_aggregate() {
    let (sys, _) = build_system();
    sys.execute(
        "CREATE VIEW revenue AS \
         SELECT c.region, o.total FROM crm.customers c \
         JOIN sales.orders o ON c.id = o.customer_id",
    )
    .unwrap();
    let out = sys
        .execute("SELECT region, SUM(total) AS rev FROM revenue GROUP BY region ORDER BY rev DESC")
        .unwrap();
    let batch = out.rows().unwrap().clone();
    assert_eq!(batch.num_rows(), 3);
    // All 40 orders accounted for.
    let out = sys
        .execute("SELECT SUM(total) AS t FROM revenue")
        .unwrap();
    assert_eq!(
        out.rows().unwrap().rows()[0].get(0),
        &Value::Float((1..=40).map(|i| i as f64 * 5.0).sum())
    );
}

#[test]
fn warehouse_agrees_with_live_query_after_refresh() {
    let (sys, clock) = build_system();
    // Warehouse copy of the customers table, cleansed.
    let mut wh = Warehouse::new("wh", sys.federation().clone(), clock.clone());
    wh.add_job(
        EtlJob::copy("dim_customers", "crm.customers", "dim_customers")
            .with_key("id")
            .with_transform(Transform::Normalize("name".into())),
    )
    .unwrap();
    wh.refresh_all(RefreshMode::Full).unwrap();

    // Mutate the source through the wrapper (as EAI would).
    sys.federation()
        .source("crm")
        .unwrap()
        .update(&UpdateOp::Insert {
            table: "customers".into(),
            row: row![99i64, "Newco", "south"],
        })
        .unwrap();

    // Live EII sees the change immediately; the warehouse does after an
    // incremental refresh.
    let live = sys
        .execute("SELECT COUNT(*) AS n FROM crm.customers")
        .unwrap();
    assert_eq!(live.rows().unwrap().rows()[0].get(0), &Value::Int(5));
    let stale = wh.database().table("dim_customers").unwrap().read().row_count();
    assert_eq!(stale, 4, "warehouse serves stale data until refresh");
    wh.refresh("dim_customers", RefreshMode::Incremental).unwrap();
    let fresh = wh.database().table("dim_customers").unwrap().read().row_count();
    assert_eq!(fresh, 5);

    // Register the warehouse itself as a source and query it with SQL:
    // virtualize or persist, same engine either way.
    let sys2 = EiiSystem::new(clock);
    sys2.add_source(
        Arc::new(RelationalConnector::new(wh.database().clone())),
        LinkProfile::local(),
        WireFormat::Native,
    )
    .unwrap();
    let out = sys2
        .execute("SELECT name FROM wh.dim_customers WHERE id = 99")
        .unwrap();
    assert_eq!(out.rows().unwrap().rows()[0].get(0), &Value::str("newco"));
}

#[test]
fn saga_effects_are_visible_to_queries_and_compensation_undoes_them() {
    let (sys, _) = build_system();
    let onboard = |fail: bool| {
        ProcessDef::new("add_customer")
            .step(
                Step::new("insert", move |env| {
                    env.federation.source("crm")?.update(&UpdateOp::Insert {
                        table: "customers".into(),
                        row: row![50i64, "Hooli", "west"],
                    })?;
                    Ok(())
                })
                .with_compensation(|env| {
                    env.federation.source("crm")?.update(&UpdateOp::DeleteByKey {
                        table: "customers".into(),
                        key: Value::Int(50),
                    })?;
                    Ok(())
                }),
            )
            .step(Step::new("verify", move |_| {
                if fail {
                    Err(EiiError::Process("fraud check failed".into()))
                } else {
                    Ok(())
                }
            }))
    };

    // Failing run: insert is compensated away.
    let (outcome, _) = sys.run_process(&onboard(true), HashMap::new()).unwrap();
    assert!(matches!(outcome, SagaOutcome::Compensated { .. }));
    let n = sys
        .execute("SELECT COUNT(*) AS n FROM crm.customers WHERE id = 50")
        .unwrap();
    assert_eq!(n.rows().unwrap().rows()[0].get(0), &Value::Int(0));

    // Successful run: the row is there for the very next federated query.
    let (outcome, _) = sys.run_process(&onboard(false), HashMap::new()).unwrap();
    assert_eq!(outcome, SagaOutcome::Completed);
    let out = sys
        .execute("SELECT name FROM crm.customers WHERE id = 50")
        .unwrap();
    assert_eq!(out.rows().unwrap().rows()[0].get(0), &Value::str("Hooli"));
}

#[test]
fn search_statement_respects_roles_and_source_filter() {
    let sys = Arc::new(build_system().0);
    // docs is restricted to 'legal'; crm rows are open.
    match sys.session().with_role("intern").execute("SEARCH 'acme'").unwrap() {
        eii::ExecOutcome::SearchHits(hits) => {
            assert!(!hits.is_empty());
            assert!(hits.iter().all(|h| h.source != "docs"));
        }
        other => panic!("unexpected {other:?}"),
    }
    match sys.session().with_role("legal").execute("SEARCH 'acme' IN docs").unwrap() {
        eii::ExecOutcome::SearchHits(hits) => {
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].source, "docs");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn correlation_index_joins_sources_without_keys() {
    let (sys, _) = build_system();
    // A partner list whose names are dirty variants of CRM names.
    let partner_schema = Arc::new(Schema::new(vec![
        Field::new("pid", DataType::Int),
        Field::new("company", DataType::Str),
        Field::new("tier", DataType::Str),
    ]));
    let partners = Batch::new(
        partner_schema,
        vec![
            row![700i64, "ACME corp.", "gold"],
            row![701i64, "initech llc", "silver"],
            row![702i64, "Wayne Enterprises", "bronze"],
        ],
    );
    let (handle, table) = sys.federation().resolve("crm.customers").unwrap();
    let (customers, _) = handle.query(&SourceQuery::full_table(table)).unwrap();

    let ix = CorrelationIndex::build(
        &customers, "id", "name", &partners, "pid", "company", 0.5,
    )
    .unwrap();
    let joined = ix.join(&customers, "id", &partners, "pid").unwrap();
    assert_eq!(joined.num_rows(), 2, "Acme and Initech correlate");
    assert!(ix.lookup(&Value::Int(4)).is_empty(), "Umbrella has no partner");
}

#[test]
fn explain_and_predict_are_consistent_with_execution() {
    let (sys, _) = build_system();
    let sql = "SELECT c.name, o.total FROM crm.customers c \
               JOIN sales.orders o ON c.id = o.customer_id WHERE c.region = 'west'";
    let explain = explained(&sys, &format!("EXPLAIN {sql}"));
    assert!(explain.contains("SourceQuery crm"));
    assert!(explain.contains("SourceQuery sales") || explain.contains("BindJoin"));
    let predicted = sys.predict(sql).unwrap();
    let actual = sys.execute(sql).unwrap();
    let actual = actual.query_result().unwrap();
    assert!(predicted.sim_ms > 0.0);
    assert!(actual.cost.sim_ms > 0.0);
    // Prediction within two orders of magnitude — the E12 experiment
    // quantifies this properly; here we just pin that both are sane.
    let ratio = predicted.sim_ms / actual.cost.sim_ms;
    assert!(
        (0.01..=100.0).contains(&ratio),
        "prediction {predicted:?} vs actual {:?}",
        actual.cost
    );
}

#[test]
fn data_service_agreement_detects_stale_warehouse_delivery() {
    use eii::semantics::{DataAgreement, DeliveryObservation, Obligation};
    let (sys, clock) = build_system();
    let mut wh = Warehouse::new("wh", sys.federation().clone(), clock.clone());
    wh.add_job(EtlJob::copy("c", "crm.customers", "customers").with_key("id"))
        .unwrap();
    wh.refresh("c", RefreshMode::Full).unwrap();

    let agreement = DataAgreement::new("crm", "analytics", "crm.customers")
        .obligation(Obligation::MaxStalenessMs(60_000))
        .obligation(Obligation::MinRowsPerDelivery(1));

    // Fresh delivery: compliant.
    let rows = {
        let handle = wh.database().table("customers").unwrap();
        let t = handle.read();
        Batch::new(t.schema().clone(), t.all_rows())
    };
    let obs = DeliveryObservation::from_batch(
        &rows,
        wh.staleness_ms("c").unwrap(),
        "reporting",
    );
    assert!(agreement.check(&obs).is_empty());

    // Ten minutes later without a refresh: the staleness obligation trips.
    clock.advance_ms(600_000);
    let obs = DeliveryObservation::from_batch(
        &rows,
        wh.staleness_ms("c").unwrap(),
        "reporting",
    );
    let violations = agreement.check(&obs);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].obligation.contains("staleness"));

    // A refresh restores compliance.
    wh.refresh("c", RefreshMode::Incremental).unwrap();
    let obs = DeliveryObservation::from_batch(
        &rows,
        wh.staleness_ms("c").unwrap(),
        "reporting",
    );
    assert!(agreement.check(&obs).is_empty());
}

#[test]
fn catalog_export_reimports_into_working_system() {
    let (sys, clock) = build_system();
    sys.execute(
        "CREATE VIEW west AS SELECT id, name FROM crm.customers WHERE region = 'west'",
    )
    .unwrap();
    let json = eii::catalog::CatalogExport::from_catalog(sys.catalog())
        .to_json()
        .unwrap();
    let restored = eii::catalog::CatalogExport::from_json(&json)
        .unwrap()
        .into_catalog()
        .unwrap();
    // Rebuild a system with the restored catalog by re-creating the view.
    let sys2 = EiiSystem::new(clock);
    let crm = Database::new("crm", sys2.clock().clone());
    let t = crm
        .create_table(
            TableDef::new(
                "customers",
                Arc::new(Schema::new(vec![
                    Field::new("id", DataType::Int).not_null(),
                    Field::new("name", DataType::Str),
                    Field::new("region", DataType::Str),
                ])),
            )
            .with_primary_key(0),
        )
        .unwrap();
    t.write().insert(row![1i64, "Acme Corp", "west"]).unwrap();
    sys2.add_source(
        Arc::new(RelationalConnector::new(crm)),
        LinkProfile::lan(),
        WireFormat::Native,
    )
    .unwrap();
    let view = restored.view("west").unwrap();
    sys2.execute(&view.sql).unwrap();
    let out = sys2.execute("SELECT name FROM west").unwrap();
    assert_eq!(out.rows().unwrap().num_rows(), 1);
}

#[test]
fn limit_zero_ships_nothing() {
    let (sys, _) = build_system();
    let out = sys.execute("SELECT name FROM crm.customers LIMIT 0").unwrap();
    let result = out.query_result().unwrap();
    assert_eq!(result.batch.num_rows(), 0);
    assert_eq!(result.batch.schema().len(), 1, "still typed by the projection");
    assert_eq!((result.cost.rows_shipped, result.cost.bytes), (0, 0));
}

#[test]
fn facade_degrades_to_stale_snapshots_when_a_source_dies() {
    let (sys, clock) = build_system();
    let sql = "SELECT c.name, o.total FROM crm.customers c \
               JOIN sales.orders o ON c.id = o.customer_id \
               WHERE o.total > 150";
    let live = sys.execute(sql).unwrap();
    let live_rows = live.rows().unwrap().rows().to_vec();
    assert!(live.query_result().unwrap().fully_live());

    // Snapshot sales before the outage, then kill the source outright.
    sys.snapshot_fallback("sales.orders").unwrap();
    clock.advance_ms(2_000);
    sys.federation()
        .inject_faults("sales", FaultProfile::failing(1.0, 7))
        .unwrap();

    // Strict policy: the query fails.
    assert!(sys.execute(sql).is_err());

    // Fallback policy: same answer, flagged stale.
    sys.set_degradation_policy(DegradationPolicy::Fallback);
    let out = sys.execute(sql).unwrap();
    let result = out.query_result().unwrap();
    assert_eq!(result.batch.rows(), live_rows.as_slice());
    assert!(!result.fully_live());
    assert_eq!(result.degraded[0].stale_ms, Some(2_000));
}

#[test]
fn explain_analyze_annotates_federated_join_with_estimates_and_actuals() {
    let (sys, _) = build_system();
    // Pin the join strategy so the plan shape under test is deterministic.
    let sys = sys.with_config(PlannerConfig {
        use_bind_joins: false,
        ..PlannerConfig::optimized()
    });
    let out = sys
        .execute(
            "EXPLAIN ANALYZE SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id WHERE o.total > 150",
        )
        .unwrap();
    let text = out.explained().unwrap();
    // Every operator line carries estimated and actual rows/bytes/sim-time.
    for line in text.lines().filter(|l| !l.starts_with("Total:")) {
        assert!(line.contains("est rows="), "missing estimate: {line}");
        assert!(line.contains("| act rows="), "missing actuals: {line}");
        assert!(line.contains("sim="), "missing sim time: {line}");
    }
    // The join and both source scans are visible, with pushdown status.
    assert!(text.contains("HashJoin"), "{text}");
    assert!(text.contains("SourceQuery crm"), "{text}");
    assert!(text.contains("SourceQuery sales"), "{text}");
    assert!(text.contains("pushed=["), "{text}");
    assert!(text.contains("Total: rows="), "{text}");
}

#[test]
fn explain_analyze_flags_degraded_sources() {
    let (sys, clock) = build_system();
    let sql = "SELECT c.name, o.total FROM crm.customers c \
               JOIN sales.orders o ON c.id = o.customer_id WHERE o.total > 150";
    sys.snapshot_fallback("sales.orders").unwrap();
    clock.advance_ms(1_500);
    sys.federation()
        .inject_faults("sales", FaultProfile::failing(1.0, 7))
        .unwrap();
    sys.set_degradation_policy(DegradationPolicy::Fallback);
    let text = explained(&sys, &format!("EXPLAIN ANALYZE {sql}"));
    assert!(text.contains("[DEGRADED: orders stale 1500ms]"), "{text}");
    assert!(text.contains("degraded_sources=1"), "{text}");
}

/// `EXPLAIN ANALYZE` runs the query the way the query itself would run:
/// under the caller's cancel token and deadline, and planning once.
#[test]
fn explain_analyze_honours_the_callers_options_and_plans_once() {
    let sys = Arc::new(build_system().0);
    let sql = "EXPLAIN ANALYZE SELECT c.name, o.total FROM crm.customers c \
               JOIN sales.orders o ON c.id = o.customer_id WHERE o.total > 150";
    let requests = || sys.federation().ledger().total().requests;
    let before = requests();

    let cancel = CancelToken::new();
    cancel.cancel("client gone");
    let err = sys.session().with_cancel_token(cancel).execute(sql).unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    // A budget no fetch fits in: the statement never plans, let alone fetches.
    let err = sys.session().with_deadline_ms(0).execute(sql).unwrap_err();
    assert_eq!(err.kind(), "deadline");
    assert_eq!(requests(), before, "neither statement reached a source");
    // One millisecond does not cover the WAN round trip to `sales`.
    let err = sys.session().with_deadline_ms(1).execute(sql).unwrap_err();
    assert_eq!(err.kind(), "deadline");

    sys.install_result_cache(CacheConfig::default());
    let plan_spans = |trace: &eii::obs::QueryTrace| {
        let text = trace.render();
        text.lines().filter(|l| l.trim_start().starts_with("plan ")).count()
    };
    let (out, trace) = sys.execute_with(sql, &ExecOptions::default());
    assert!(out.unwrap().explained().unwrap().contains("| act rows="));
    assert_eq!(plan_spans(&trace), 1, "{}", trace.render());
    // It filled the cache as the query would have: the repeat is a hit.
    let shipped = sys.federation().ledger().total().bytes;
    let (out, trace) = sys.execute_with(sql, &ExecOptions::default());
    assert!(out.unwrap().explained().unwrap().contains("[CACHED]"));
    assert_eq!(plan_spans(&trace), 1, "{}", trace.render());
    assert_eq!(sys.federation().ledger().total().bytes, shipped);
}

#[test]
fn source_health_reports_traffic_retries_and_breaker_under_faults() {
    let (sys, _clock) = build_system();
    sys.federation()
        .inject_faults("crm", FaultProfile::none().with_outage(0, 40))
        .unwrap();
    sys.federation()
        .harden(
            "crm",
            RetryPolicy::standard().with_attempts(6),
            CircuitBreakerConfig::default(),
        )
        .unwrap();
    sys.execute("SELECT name FROM crm.customers WHERE region = 'west'")
        .unwrap();
    let health = sys.source_health();
    assert_eq!(health.len(), 3, "{health:?}");
    let crm = health.iter().find(|h| h.source == "crm").unwrap();
    assert!(crm.available());
    assert!(crm.traffic.requests >= 1);
    assert!(crm.traffic.bytes > 0);
    assert!(crm.traffic.retries >= 1, "{crm:?}");
    let breaker = crm.breaker.as_ref().expect("crm is hardened");
    assert_eq!(breaker.state, eii::federation::BreakerState::Closed);
    // Un-hardened sources report traffic but no breaker.
    let sales = health.iter().find(|h| h.source == "sales").unwrap();
    assert!(sales.breaker.is_none());
    // The same retries surface as metrics.
    let snap = sys.metrics().snapshot();
    assert!(snap.counter("source.crm.retries") >= 1);
    assert!(snap.counter("source.crm.requests") >= 1);
    assert_eq!(snap.counter("exec.queries"), 1);
}

#[test]
fn query_trace_covers_phases_and_operators() {
    let (sys, _) = build_system();
    let sys = Arc::new(sys.with_config(PlannerConfig {
        use_bind_joins: false,
        ..PlannerConfig::optimized()
    }))
    .session();
    sys.execute(
        "SELECT c.name, o.total FROM crm.customers c \
         JOIN sales.orders o ON c.id = o.customer_id",
    )
    .unwrap();
    let trace = sys.last_trace().expect("trace retained");
    for phase in ["statement", "parse", "plan", "execute"] {
        assert!(trace.find(phase).is_some(), "missing {phase} span:\n{}", trace.render());
    }
    let join = trace.find("op:HashJoin").expect("operator span");
    assert!(join
        .annotations
        .iter()
        .any(|(k, v)| k == "rows" && v.parse::<usize>().unwrap() > 0));
    assert_eq!(join.children.len(), 2, "join has both inputs:\n{}", trace.render());
    // Executing another statement replaces the trace.
    sys.execute("SELECT name FROM crm.customers").unwrap();
    let trace2 = sys.last_trace().unwrap();
    assert!(trace2.find("op:HashJoin").is_none());
}

#[test]
fn facade_retries_ride_out_a_transient_outage() {
    let (sys, _clock) = build_system();
    let sql = "SELECT name FROM crm.customers WHERE region = 'west'";
    sys.federation()
        .inject_faults("crm", FaultProfile::none().with_outage(0, 40))
        .unwrap();
    sys.federation()
        .harden(
            "crm",
            RetryPolicy::standard().with_attempts(6),
            CircuitBreakerConfig::default(),
        )
        .unwrap();
    let out = sys.execute(sql).unwrap();
    assert_eq!(out.rows().unwrap().num_rows(), 2);
    assert!(sys.federation().ledger().traffic("crm").retries >= 1);
}

#[test]
fn query_log_fingerprints_collapse_equivalent_statements() {
    let (sys, _) = build_system();
    let sql = "SELECT name FROM crm.customers WHERE region = 'west'";
    sys.execute(sql).unwrap();
    sys.execute(sql).unwrap();
    sys.execute("SELECT order_id FROM sales.orders WHERE total > 150")
        .unwrap();

    let log = sys.query_log();
    assert_eq!(log.seen(), 3);
    let digest = log.fingerprints();
    assert_eq!(digest.len(), 2, "two distinct plans: {digest:?}");
    let last = log.last().expect("records retained");
    assert!(last.plan.contains("orders"), "normalized plan text: {}", last.plan);
    assert!(last.bytes_shipped > 0, "bytes attributed");
    assert!(
        last.per_source_bytes.iter().map(|(_, b)| b).sum::<u64>() > 0,
        "per-source attribution: {:?}",
        last.per_source_bytes
    );
    assert!(
        last.operators.iter().any(|o| o.actual_rows > 0),
        "est-vs-actual operator stats: {:?}",
        last.operators
    );
    let top = log.top_k(1, eii::obs::WorkloadKey::Count);
    assert_eq!(top[0].count, 2, "repeated statement dominates by count");
}

#[test]
fn trace_store_keeps_sessions_apart_and_exports_chrome_json() {
    let (sys, _) = build_system();
    let sys = Arc::new(sys);
    let alice = sys.session().with_label("alice");
    let bob = sys.session().with_label("bob");
    alice
        .execute("SELECT name FROM crm.customers WHERE region = 'west'")
        .unwrap();
    bob.execute("SELECT order_id FROM sales.orders WHERE total > 150")
        .unwrap();

    let a = alice.last_stored_trace().expect("alice's trace retained");
    let b = bob.last_stored_trace().expect("bob's trace retained");
    assert_ne!(a.trace_id, b.trace_id);
    assert_ne!(a.fingerprint, b.fingerprint, "different statements");
    assert!(a.trace.find("op:SourceScan").is_some() || a.trace.find("execute").is_some());

    let json = eii::obs::chrome_trace_json(&a);
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"ph\""), "{json}");
    // The query-log record points back at the stored trace.
    let with_trace = sys
        .query_log()
        .records()
        .into_iter()
        .filter(|r| r.trace_id.is_some())
        .count();
    assert_eq!(with_trace, 2, "both statements link log record to trace");
}

#[test]
fn telemetry_toggle_stops_recording() {
    let (sys, _) = build_system();
    sys.set_telemetry_enabled(false);
    sys.execute("SELECT name FROM crm.customers").unwrap();
    assert_eq!(sys.query_log().seen(), 0);
    assert!(sys.trace_store().is_empty());
    sys.set_telemetry_enabled(true);
    sys.execute("SELECT name FROM crm.customers").unwrap();
    assert_eq!(sys.query_log().seen(), 1);
    assert_eq!(sys.trace_store().len(), 1);
}

#[test]
fn deadline_statements_record_budget_and_spend() {
    let (sys, _) = build_system();
    let opts = ExecOptions {
        deadline_budget_ms: Some(10_000),
        ..ExecOptions::default()
    };
    sys.execute_with("SELECT name FROM crm.customers", &opts).0.unwrap();
    let rec = sys.query_log().last().expect("deadline statements always kept");
    assert_eq!(rec.deadline_budget_ms, Some(10_000.0));
    let spent = rec.deadline_spent_ms.expect("spend recorded");
    assert!((0.0..10_000.0).contains(&spent), "spent={spent}");
}

#[test]
fn degraded_statements_tail_sample_and_flag_explain_analyze() {
    let (sys, clock) = build_system();
    let sql = "SELECT c.name, o.total FROM crm.customers c \
               JOIN sales.orders o ON c.id = o.customer_id WHERE o.total > 150";
    sys.snapshot_fallback("sales.orders").unwrap();
    clock.advance_ms(1_000);
    sys.federation()
        .inject_faults("sales", FaultProfile::failing(1.0, 7))
        .unwrap();
    sys.set_degradation_policy(DegradationPolicy::Fallback);

    let text = explained(&sys, &format!("EXPLAIN ANALYZE {sql}"));
    assert!(text.contains("flags=degraded"), "header flags: {text}");

    sys.execute(sql).unwrap();
    let rec = sys.query_log().last().unwrap();
    assert!(rec.flags.degraded, "degraded flag on the log record");
    let stored = sys.trace_store().latest().expect("degraded trace tail-sampled");
    assert!(stored.flags.degraded);
}

#[test]
fn slo_burn_rates_read_out_per_priority() {
    let (sys, _) = build_system();
    sys.set_slo_objective(eii::obs::SloObjective::new("normal", 50.0));
    for _ in 0..5 {
        sys.execute("SELECT name FROM crm.customers").unwrap();
    }
    let statuses = sys.slo_status();
    assert_eq!(statuses.len(), 1);
    assert_eq!(statuses[0].priority, "normal");
    assert_eq!(statuses[0].total, 5);
    assert_eq!(statuses[0].state(), eii::obs::SloState::Healthy);
    let snap = sys.metrics().snapshot();
    assert!(
        snap.histograms.contains_key("slo.normal.latency_burn"),
        "slo metrics published: {:?}",
        snap.histograms.keys().collect::<Vec<_>>()
    );
}
