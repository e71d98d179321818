//! Fault tolerance through the whole executor: injected source faults,
//! retry healing, stale-snapshot fallback, partial results, the order a
//! `parallel` node issues its requests in, a panicking wrapper failing
//! typed at the source edge, a stalled change-log probe holding up no
//! other caller of the result cache, and the profile tree of the operators
//! that run outside a plain node (an at-site join's site child, live or
//! dead, on either side; an adaptive re-plan; a hedged bind join; a bounded
//! sort); and that a failed statement counts no operator's rows.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eii_catalog::Catalog;
use eii_data::{
    row, Batch, CancelToken, Column, DataType, Deadline, Field, Result, Row, Schema, SchemaRef,
    SimClock, Value,
};
use eii_exec::{
    CacheConfig, CacheLookup, DegradationPolicy, Executor, HedgePolicy, OperatorProfile,
    ReplanPolicy, ResultCache, SnapshotStore,
};
use eii_expr::Expr;
use eii_federation::{
    Binding, CircuitBreakerConfig, Connector, Delivery, Dialect, FaultProfile, Federation, LinkProfile,
    QueryCost, RelationalConnector, RequestCtx, RetryPolicy, SourceAnswer, SourceCapabilities,
    SourceQuery, WireFormat,
};
use eii_planner::{plan_query, CardinalityFeedback, JoinSite, PhysicalPlan, PlannerConfig};
use eii_sql::parse_query;
use eii_storage::{Change, Database, TableDef};
use proptest::prelude::*;

const JOIN_SQL: &str = "SELECT c.name, o.total FROM crm.customers c \
                        JOIN sales.orders o ON c.id = o.customer_id \
                        WHERE o.total > 15";

fn relational(
    fed: &mut Federation,
    clock: &SimClock,
    source: &str,
    table: &str,
    fields: Vec<Field>,
    rows: Vec<Row>,
) {
    let db = Database::new(source, clock.clone());
    let t = db
        .create_table(TableDef::new(table, Arc::new(Schema::new(fields))).with_primary_key(0))
        .unwrap();
    {
        let mut t = t.write();
        for r in rows {
            t.insert(r).unwrap();
        }
    }
    fed.register(
        Arc::new(RelationalConnector::new(db)),
        LinkProfile::lan(),
        WireFormat::Native,
    )
    .unwrap();
}

/// Two-source federation on a shared clock; crm x sales join.
fn federation(clock: &SimClock) -> Federation {
    let mut fed = Federation::with_clock(clock.clone());
    relational(
        &mut fed,
        clock,
        "crm",
        "customers",
        vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
        ],
        (0..20i64).map(|i| row![i, format!("cust{i}")]).collect(),
    );
    relational(
        &mut fed,
        clock,
        "sales",
        "orders",
        vec![
            Field::new("order_id", DataType::Int).not_null(),
            Field::new("customer_id", DataType::Int),
            Field::new("total", DataType::Float),
        ],
        (0..60i64)
            .map(|i| row![i, i % 20, (i as f64) * 1.5])
            .collect(),
    );
    fed
}

fn run(fed: &Federation, exec: &Executor<'_>, sql: &str) -> Result<eii_exec::QueryResult> {
    let q = parse_query(sql)?;
    let plan = plan_query(&q, &Catalog::new(), fed, &PlannerConfig::optimized())?;
    exec.execute(&plan)
}

/// Snapshot every table of every source (taken before faults start).
fn snapshot_all(fed: &Federation, store: &SnapshotStore) {
    for qualified in fed.all_tables() {
        let (h, table) = fed.resolve(&qualified).unwrap();
        let whole = SourceQuery::full_table(table);
        let (columns, _) = h.fetch(&whole, &RequestCtx::new(), Delivery::Ship).unwrap();
        store.put(qualified, columns, fed.clock().now_ms());
    }
    fed.ledger().reset();
}

#[test]
fn dead_source_fails_strict_queries() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    fed.inject_faults("sales", FaultProfile::failing(1.0, 3)).unwrap();
    let exec = Executor::new(&fed);
    let err = run(&fed, &exec, JOIN_SQL).unwrap_err();
    assert_eq!(err.kind(), "source");
}

#[test]
fn retries_heal_a_transient_outage_with_identical_results() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    let exec = Executor::new(&fed);
    let expect = run(&fed, &exec, JOIN_SQL).unwrap();
    assert!(expect.fully_live());

    let clock2 = SimClock::new();
    let fed2 = federation(&clock2);
    fed2.inject_faults("sales", FaultProfile::none().with_outage(0, 30))
        .unwrap();
    fed2.harden(
        "sales",
        RetryPolicy::standard().with_attempts(5),
        CircuitBreakerConfig::default(),
    )
    .unwrap();
    let exec2 = Executor::new(&fed2);
    let got = run(&fed2, &exec2, JOIN_SQL).unwrap();
    assert!(got.fully_live(), "healed answers are live, not degraded");
    assert_eq!(got.batch.rows(), expect.batch.rows(), "byte-identical rows");
    assert!(fed2.ledger().traffic("sales").retries >= 1);
}

#[test]
fn fallback_serves_stale_snapshot_when_source_dies() {
    let clock = SimClock::new();
    let fed_live = federation(&clock);
    let exec_live = Executor::new(&fed_live);
    let expect = run(&fed_live, &exec_live, JOIN_SQL).unwrap();

    let clock2 = SimClock::new();
    let fed = federation(&clock2);
    let store = SnapshotStore::new();
    snapshot_all(&fed, &store);
    clock2.advance_ms(5_000); // snapshots age before the outage
    fed.inject_faults("sales", FaultProfile::failing(1.0, 3)).unwrap();
    let exec = Executor::new(&fed).with_degradation(DegradationPolicy::Fallback, store);
    let got = run(&fed, &exec, JOIN_SQL).unwrap();
    // The data didn't change between snapshot and outage, so the stale
    // answer happens to be complete — and it is labeled stale.
    assert_eq!(got.batch.rows(), expect.batch.rows());
    assert!(!got.fully_live());
    assert_eq!(got.degraded.len(), 1);
    let report = &got.degraded[0];
    assert_eq!((report.source.as_str(), report.table.as_str()), ("sales", "orders"));
    assert_eq!(report.stale_ms, Some(5_000));
    assert!(report.error.contains("injected fault"));
}

#[test]
fn partial_results_keep_surviving_branches() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    fed.inject_faults("sales", FaultProfile::failing(1.0, 3)).unwrap();
    let exec =
        Executor::new(&fed).with_degradation(DegradationPolicy::PartialResults, SnapshotStore::new());

    // The union's crm branch survives; the sales branch comes back empty.
    let sql = "SELECT name FROM crm.customers WHERE id < 3 \
               UNION ALL SELECT name FROM crm.customers WHERE id >= 18";
    let ok = run(&fed, &exec, sql).unwrap();
    assert_eq!(ok.batch.num_rows(), 5);
    assert!(ok.fully_live());

    let joined = run(&fed, &exec, JOIN_SQL).unwrap();
    assert_eq!(joined.batch.num_rows(), 0, "dead join side yields no matches");
    assert_eq!(joined.degraded.len(), 1);
    assert_eq!(joined.degraded[0].stale_ms, None, "dropped, not stale");
}

#[test]
fn degradation_report_resets_between_queries() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    let store = SnapshotStore::new();
    snapshot_all(&fed, &store);
    fed.inject_faults("sales", FaultProfile::failing(1.0, 3)).unwrap();
    let exec = Executor::new(&fed).with_degradation(DegradationPolicy::Fallback, store);
    let first = run(&fed, &exec, JOIN_SQL).unwrap();
    assert_eq!(first.degraded.len(), 1);
    // A crm-only query touches no dead source: its report must be clean.
    let second = run(&fed, &exec, "SELECT name FROM crm.customers WHERE id = 1").unwrap();
    assert!(second.fully_live());
}

/// A connector that panics inside `execute`.
struct PanickingConnector;

impl Connector for PanickingConnector {
    fn name(&self) -> &str {
        "haywire"
    }

    fn tables(&self) -> Vec<String> {
        vec!["t".into()]
    }

    fn table_schema(&self, _table: &str) -> Result<eii_data::SchemaRef> {
        Ok(Arc::new(Schema::new(vec![Field::new(
            "x",
            DataType::Str,
        )])))
    }

    fn capabilities(&self) -> eii_federation::SourceCapabilities {
        eii_federation::SourceCapabilities::relational()
    }

    fn dialect(&self) -> eii_federation::Dialect {
        eii_federation::Dialect::ansi_full()
    }

    fn execute(&self, _query: &SourceQuery) -> Result<SourceAnswer> {
        panic!("haywire wrapper bug: lost connection state");
    }
}

#[test]
fn a_cancelled_query_never_reaches_the_sources() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    let cancel = CancelToken::new();
    cancel.cancel("caller navigated away");
    let exec = Executor::new(&fed).with_request_ctx(RequestCtx::new().with_cancel(cancel));
    let err = run(&fed, &exec, JOIN_SQL).unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(err.message().contains("caller navigated away"));
    assert_eq!(fed.ledger().total().requests, 0, "no fetch was issued");
}

#[test]
fn a_blown_deadline_fails_the_query_instead_of_degrading() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    let store = SnapshotStore::new();
    snapshot_all(&fed, &store);
    // A budget far below one WAN round trip: the first fetch's charge blows
    // it. Degradation must NOT swallow that into a stale answer.
    fed.set_scan_speed("crm", 10.0).unwrap();
    let deadline = Deadline::new(clock.clone(), 1);
    let exec = Executor::new(&fed)
        .with_degradation(DegradationPolicy::Fallback, store)
        .with_request_ctx(RequestCtx::new().with_deadline(deadline.clone()));
    let err = run(&fed, &exec, JOIN_SQL).unwrap_err();
    assert_eq!(err.kind(), "deadline");
    assert!(deadline.expired());
}

#[test]
fn hedging_fires_once_a_source_looks_slow_and_keeps_results_identical() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    let sql = "SELECT name FROM crm.customers WHERE id < 5";

    let plain = Executor::new(&fed);
    let expect = run(&fed, &plain, sql).unwrap();

    let hedged = Executor::new(&fed).with_hedging(HedgePolicy {
        threshold_ms: 0.01,
        delay_ms: 0.5,
    });
    // The first run recorded crm's observed latency, so this one hedges.
    let got = run(&fed, &hedged, sql).unwrap();
    assert_eq!(got.batch.rows(), expect.batch.rows(), "identical answers");
    assert_eq!(fed.ledger().traffic("crm").hedges, 1);
    assert!(
        got.cost.bytes > expect.cost.bytes,
        "the losing request's bytes are charged"
    );
}

#[test]
fn connector_panic_payload_reaches_the_caller_as_an_error() {
    let clock = SimClock::new();
    let fed = federation(&clock);
    fed.register(
        Arc::new(PanickingConnector),
        LinkProfile::lan(),
        WireFormat::Native,
    )
    .unwrap();
    let exec = Executor::new(&fed);
    // Under a `parallel` union beside a healthy branch, and on its own.
    for sql in [
        "SELECT name FROM crm.customers WHERE id < 2 UNION ALL SELECT x FROM haywire.t",
        "SELECT x FROM haywire.t",
    ] {
        let err = run(&fed, &exec, sql).unwrap_err();
        assert_eq!(err.kind(), "execution", "{sql}");
        assert!(
            err.message().contains("connector panicked: haywire wrapper bug"),
            "panic payload must not be swallowed: {err}"
        );
    }
}

/// Delegates to a relational source and counts the component queries that
/// reach it.
struct CountingConnector {
    inner: RelationalConnector,
    calls: Arc<AtomicUsize>,
}

impl Connector for CountingConnector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<String> {
        self.inner.tables()
    }

    fn table_schema(&self, table: &str) -> Result<eii_data::SchemaRef> {
        self.inner.table_schema(table)
    }

    fn capabilities(&self) -> eii_federation::SourceCapabilities {
        self.inner.capabilities()
    }

    fn dialect(&self) -> eii_federation::Dialect {
        self.inner.dialect()
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.execute(query)
    }
}

/// `l.t` and `r.t` behind call counters, and the `parallel` hub join of the
/// two, `l` on the left.
fn counted_pair(clock: &SimClock) -> (Federation, PhysicalPlan, [Arc<AtomicUsize>; 2]) {
    let fed = Federation::with_clock(clock.clone());
    let counters = ["l", "r"].map(|source| {
        let db = Database::new(source, clock.clone());
        let fields = vec![Field::new("id", DataType::Int).not_null()];
        let t = db
            .create_table(TableDef::new("t", Arc::new(Schema::new(fields))).with_primary_key(0))
            .unwrap();
        for i in 0..8i64 {
            t.write().insert(row![i]).unwrap();
        }
        let calls = Arc::new(AtomicUsize::new(0));
        let connector = CountingConnector {
            inner: RelationalConnector::new(db),
            calls: calls.clone(),
        };
        fed.register(Arc::new(connector), LinkProfile::lan(), WireFormat::Native)
            .unwrap();
        calls
    });
    let mut config = PlannerConfig::optimized();
    config.use_bind_joins = false;
    config.choose_assembly_site = false;
    let q = parse_query("SELECT a.id FROM l.t a JOIN r.t b ON a.id = b.id").unwrap();
    let plan = plan_query(&q, &Catalog::new(), &fed, &config).unwrap();
    let shape = plan.display();
    assert!(shape.contains("site=hub parallel"), "{shape}");
    let (l, r) = (shape.find("SourceQuery l:"), shape.find("SourceQuery r:"));
    assert!(l.is_some() && l < r, "{shape}");
    (fed, plan, counters)
}

#[test]
fn a_parallel_join_issues_its_requests_in_plan_order_until_the_query_is_over() {
    // The left fetch spends the whole budget: the right child's node boundary
    // sees the blown deadline, and no request reaches its source.
    let clock = SimClock::new();
    let (fed, plan, [left, right]) = counted_pair(&clock);
    fed.set_scan_speed("l", 10.0).unwrap();
    let deadline = Deadline::new(clock.clone(), 1);
    let exec = Executor::new(&fed).with_request_ctx(RequestCtx::new().with_deadline(deadline));
    assert_eq!(exec.execute(&plan).unwrap_err().kind(), "deadline");
    assert_eq!((left.load(Ordering::Relaxed), right.load(Ordering::Relaxed)), (1, 0));

    // A left child that merely fails does not end the query: the two requests
    // are in flight together, so the right one is issued — and the left error,
    // first in plan order, is the statement's.
    let clock = SimClock::new();
    let (fed, plan, [left, right]) = counted_pair(&clock);
    fed.inject_faults("l", FaultProfile::failing(1.0, 3)).unwrap();
    let err = Executor::new(&fed).execute(&plan).unwrap_err();
    assert_eq!(err.kind(), "source");
    assert!(err.message().contains("l refused the request"), "{err}");
    assert_eq!((left.load(Ordering::Relaxed), right.load(Ordering::Relaxed)), (0, 1));
}

#[path = "../../../tests/support/hazards.rs"]
mod hazards;
use hazards::{hazard_value, P53};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A fresh snapshot answers a component query exactly as the live source
    /// does: the executor evaluates the snapshot with the federation's own
    /// evaluator (`apply_query_locally`), the one the adapters answer through.
    #[test]
    fn fresh_snapshot_fallback_equals_the_live_answer(
        cells in proptest::collection::vec((hazard_value(), hazard_value(), hazard_value()), 0..24),
        filter_mask in 0usize..4,
        bound in proptest::collection::vec(
            (1usize..4, proptest::collection::vec(hazard_value(), 0..6)),
            0..3,
        ),
        projection in 0usize..3,
        limit in 0usize..5,
    ) {
        let columns = [
            ("id", DataType::Int),
            ("k_int", DataType::Int),
            ("k_float", DataType::Float),
            ("k_str", DataType::Str),
        ];
        // A draw of another type than its column's becomes NULL.
        let cell = |v: Value, col: usize| {
            Some(v).filter(|v| v.data_type() == Some(columns[col].1)).unwrap_or(Value::Null)
        };
        let rows = cells
            .into_iter()
            .enumerate()
            .map(|(id, (a, b, c))| {
                Row::new(vec![Value::Int(id as i64), cell(a, 1), cell(b, 2), cell(c, 3)])
            })
            .collect();
        let clock = SimClock::new();
        let mut fed = Federation::with_clock(clock.clone());
        let fields = columns.iter().map(|(name, ty)| Field::new(*name, *ty)).collect();
        relational(&mut fed, &clock, "crm", "t", fields, rows);

        let mut filters = Vec::new();
        if filter_mask & 1 != 0 {
            filters.push(Expr::col("id").gt_eq(Expr::lit(2i64)));
        }
        if filter_mask & 2 != 0 {
            filters.push(Expr::col("k_int").lt_eq(Expr::lit(P53 as f64)));
        }
        let mut bound = bound;
        let mut limit = (limit < 4).then_some(limit);
        // A single binding the source answers key by key (`Table::lookup_in_columns`:
        // binding order, a repeated key's rows repeated) where a snapshot
        // answers in table order. The executor ships distinct keys and joins
        // the answer by key, so that shape is held as a multiset, without a
        // limit that would cut the two orders differently.
        let key_by_key = bound.len() == 1;
        if key_by_key {
            let mut seen = Vec::new();
            bound[0].1.retain(|k| !seen.contains(k) && { seen.push(k.clone()); true });
            limit = limit.filter(|&n| n == 0);
        }
        // Each list a column of its first non-NULL cell's type.
        let bindings = bound
            .into_iter()
            .map(|(col, keys)| {
                let ty = keys.iter().find_map(Value::data_type).unwrap_or(DataType::Int);
                let keys = Arc::new(Column::from_values(&keys, ty));
                Binding { column: columns[col].0.to_string(), keys }
            })
            .collect();
        let projection: Option<Vec<String>> = match projection {
            0 => None,
            1 => Some(vec!["k_str".into(), "id".into()]),
            _ => Some(vec!["k_int".into()]),
        };
        let query = SourceQuery { table: "t".into(), projection, filters, bindings, limit };

        let store = SnapshotStore::new();
        snapshot_all(&fed, &store);
        let handle = fed.source("crm").unwrap();
        // The plan's schema for the scan is the layout the source answers in.
        let schema = handle.query(&query).unwrap().0.schema().clone();
        let plan = PhysicalPlan::Source { source: "crm".into(), query, schema };
        let exec = Executor::new(&fed).with_degradation(DegradationPolicy::Fallback, store);
        let live = exec.execute(&plan).unwrap();
        prop_assert!(live.fully_live());
        fed.inject_faults("crm", FaultProfile::none().with_outage(0, i64::MAX)).unwrap();
        let stale = exec.execute(&plan).unwrap();
        prop_assert_eq!(stale.degraded.len(), 1, "exactly one report");
        prop_assert_eq!(stale.degraded[0].stale_ms, Some(0));

        let (mut live, mut stale) = (live.batch.into_rows(), stale.batch.into_rows());
        if key_by_key {
            live.sort();
            stale.sort();
        }
        prop_assert_eq!(stale, live);
    }
}

/// `sales`, whose change-log probe first says that it has begun.
struct Announcing(RelationalConnector, std::sync::mpsc::Sender<()>);

impl Connector for Announcing {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn tables(&self) -> Vec<String> {
        self.0.tables()
    }
    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        self.0.table_schema(table)
    }
    fn capabilities(&self) -> SourceCapabilities {
        self.0.capabilities()
    }
    fn dialect(&self) -> Dialect {
        self.0.dialect()
    }
    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        self.0.execute(query)
    }
    fn changes_since(&self, table: &str, after: u64) -> Result<(Vec<Change>, u64)> {
        let _ = self.1.send(());
        self.0.changes_since(table, after)
    }
}

/// The result cache's lock is a leaf: while one lookup's version probe
/// stalls — on `sales.orders`' write lock, held here — no other caller of the
/// cache waits for it.
#[test]
fn a_stalled_version_probe_blocks_no_other_cache_call() {
    use std::sync::mpsc::channel;
    use std::time::Duration;

    let clock = SimClock::new();
    let db = Database::new("sales", clock.clone());
    let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int).not_null()]));
    let orders = db.create_table(TableDef::new("orders", schema.clone()).with_primary_key(0)).unwrap();
    let fed = Federation::with_clock(clock);
    let (probing, probe_began) = channel();
    let sales = Arc::new(Announcing(RelationalConnector::new(db), probing));
    fed.register(sales, LinkProfile::lan(), WireFormat::Native).unwrap();
    let cache = ResultCache::new(CacheConfig::default());
    let answer = || Batch::new(schema.clone(), vec![row![1i64]]);
    let versions = vec![("sales.orders".to_string(), Some(0))];
    cache.fill("q", answer(), QueryCost::default(), vec![], versions, 0);
    let stall = orders.write();
    let (answered, lookup) = std::thread::scope(|scope| {
        let lookup = scope.spawn(|| cache.lookup("q", 0, &fed));
        probe_began.recv().expect("the lookup probes sales.orders");
        let (tx, rx) = channel();
        let cache = &cache;
        scope.spawn(move || {
            let len = cache.len();
            cache.fill("other", answer(), QueryCost::default(), vec![], vec![], 0);
            let _ = tx.send(len);
        });
        let answered = rx.recv_timeout(Duration::from_secs(1));
        drop(stall);
        (answered, lookup.join().unwrap())
    });
    assert_eq!(answered, Ok(1), "len and fill waited on another caller's version probe");
    assert!(matches!(lookup, CacheLookup::Hit(_)), "{lookup:?}");
    assert_eq!(cache.len(), 2);
}

#[test]
fn a_failed_statement_counts_no_rows_emitted() {
    let emitted = |fed: &Federation| -> Vec<(String, u64)> {
        let counters = fed.metrics().snapshot().counters;
        counters.into_iter().filter(|(name, _)| name.starts_with("exec.rows_emitted.")).collect()
    };
    // The hub join's left side (crm) answers; its right side (sales) is dead.
    let fed = federation(&SimClock::new());
    fed.inject_faults("sales", FaultProfile::failing(1.0, 3)).unwrap();
    let exec = Executor::new(&fed).with_metrics(fed.metrics().clone());
    let plan = hub_plan(&fed, JOIN_SQL, None);
    assert_eq!(exec.execute(&plan).unwrap_err().kind(), "source");
    assert_eq!(emitted(&fed), []);

    // The executor's next statement starts clean: its profile and counts are
    // a fresh executor's.
    let scan = hub_plan(&fed, "SELECT name FROM crm.customers WHERE id < 3", None);
    let after = exec.execute(&scan).unwrap();
    let fresh_fed = federation(&SimClock::new());
    let fresh = Executor::new(&fresh_fed).with_metrics(fresh_fed.metrics().clone());
    let fresh = fresh.execute(&scan).unwrap();
    let (mut a, mut b) = (String::new(), String::new());
    render_profile(after.profile.as_ref().unwrap(), 0, &mut a);
    render_profile(fresh.profile.as_ref().unwrap(), 0, &mut b);
    assert_eq!(a, b);
    assert_eq!(emitted(&fed), emitted(&fresh_fed));
    assert!(!emitted(&fed).is_empty());
}

/// A profile tree one node a line, indented by depth: label, source, rows,
/// cost, and the flags that are set. Wall time, the one field a rerun moves,
/// is left out.
fn render_profile(p: &OperatorProfile, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let c = &p.cost;
    write!(out, "{:w$}{}", "", p.label, w = 2 * depth).unwrap();
    if let Some(source) = &p.source {
        write!(out, " {source}").unwrap();
    }
    write!(
        out,
        " rows={} sim={:?} bytes={} shipped={} scanned={} requests={}",
        p.rows, c.sim_ms, c.bytes, c.rows_shipped, c.rows_scanned, c.requests
    )
    .unwrap();
    let flags = [(p.hedged, " hedged"), (p.backup_won, " backup_won"), (p.replanned, " replanned")];
    for (_, flag) in flags.iter().filter(|(set, _)| *set) {
        out.push_str(flag);
    }
    if let Some(k) = p.top {
        write!(out, " top={k}").unwrap();
    }
    if let Some((k, n)) = p.columns {
        write!(out, " cols={k}/{n}").unwrap();
    }
    out.push('\n');
    for child in &p.children {
        render_profile(child, depth + 1, out);
    }
}

/// `sql` planned as hub joins over plain scans (no bind joins, no site
/// choice); with `site`, the one hash join is moved to that source.
fn hub_plan(fed: &Federation, sql: &str, site: Option<&str>) -> PhysicalPlan {
    fn move_join(plan: &mut PhysicalPlan, to: &str) {
        match plan {
            PhysicalPlan::HashJoin { site, .. } => *site = JoinSite::AtSource(to.into()),
            PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => move_join(input, to),
            other => panic!("no hash join above {}", other.label()),
        }
    }
    let mut config = PlannerConfig::optimized();
    config.use_bind_joins = false;
    config.choose_assembly_site = false;
    let mut plan = plan_query(&parse_query(sql).unwrap(), &Catalog::new(), fed, &config).unwrap();
    if let Some(to) = site {
        move_join(&mut plan, to);
    }
    plan
}

#[test]
fn the_profile_tree_records_the_operators_that_run_outside_a_plain_node() {
    let mut out = String::new();
    let mut pin = |title: &str, result: eii_exec::QueryResult| {
        out.push_str(&format!("# {title}\n"));
        render_profile(result.profile.as_ref().unwrap(), 0, &mut out);
    };

    // An at-site join whose site answers: the site child is queried in place
    // and the other side is forwarded to it.
    let fed = federation(&SimClock::new());
    let plan = hub_plan(&fed, JOIN_SQL, Some("sales"));
    pin("at-site join, site live", Executor::new(&fed).execute(&plan).unwrap());

    // The same join with its site dead: the site child is the fallback
    // snapshot's answer, and the join runs at the hub.
    let clock = SimClock::new();
    let fed = federation(&clock);
    let store = SnapshotStore::new();
    snapshot_all(&fed, &store);
    fed.inject_faults("sales", FaultProfile::failing(1.0, 3)).unwrap();
    let plan = hub_plan(&fed, JOIN_SQL, Some("sales"));
    let exec = Executor::new(&fed).with_degradation(DegradationPolicy::Fallback, store);
    pin("at-site join, site dead", exec.execute(&plan).unwrap());

    // The join moved to the left child's source: the site child is queried
    // first all the same, and the profile keeps the plan's child order.
    let fed = federation(&SimClock::new());
    let plan = hub_plan(&fed, JOIN_SQL, Some("crm"));
    pin("at-site join, site on the left", Executor::new(&fed).execute(&plan).unwrap());

    // An adaptive re-plan: any divergence counts, so the build side is
    // re-issued as a binding-filtered fetch.
    let fed = federation(&SimClock::new());
    let plan = hub_plan(&fed, JOIN_SQL, None);
    let policy = ReplanPolicy { feedback: Arc::new(CardinalityFeedback::new()), factor: 1.0 };
    pin("adaptive re-plan", Executor::new(&fed).with_replan(policy).execute(&plan).unwrap());

    // A bind join whose source looks slow: its bound fetch is hedged.
    let fed = federation(&SimClock::new());
    let sql = "SELECT c.name, o.total FROM crm.customers c \
               JOIN sales.orders o ON c.id = o.customer_id WHERE c.id < 3";
    let q = parse_query(sql).unwrap();
    let plan = plan_query(&q, &Catalog::new(), &fed, &PlannerConfig::optimized()).unwrap();
    assert!(plan.display().contains("BindJoin"), "{}", plan.display());
    run(&fed, &Executor::new(&fed), "SELECT total FROM sales.orders WHERE order_id < 2").unwrap();
    let hedge = HedgePolicy { threshold_ms: 0.01, delay_ms: 0.5 };
    pin("hedged bind join", Executor::new(&fed).with_hedging(hedge).execute(&plan).unwrap());

    // A sort under a limit puts only the rows the limit reads in order.
    let fed = federation(&SimClock::new());
    let plan = hub_plan(&fed, &format!("{JOIN_SQL} ORDER BY o.total DESC LIMIT 3"), None);
    pin("bounded sort", Executor::new(&fed).execute(&plan).unwrap());

    // The dead site's child reports its snapshot's rows, at hub-local cost.
    let expect = r#"# at-site join, site live
Project rows=49 sim=6.1681799999999996 bytes=2898 shipped=89 scanned=80 requests=4
  HashJoin rows=49 sim=6.14368 bytes=2898 shipped=89 scanned=80 requests=4
    Source crm rows=20 sim=2.0243 bytes=430 shipped=20 scanned=20 requests=1
    Source sales rows=49 sim=2.06 bytes=0 shipped=0 scanned=60 requests=1
# at-site join, site dead
Project rows=49 sim=2.1078000000000006 bytes=430 shipped=20 scanned=20 requests=1
  HashJoin rows=49 sim=2.0833000000000004 bytes=430 shipped=20 scanned=20 requests=1
    Source crm rows=20 sim=2.0243 bytes=430 shipped=20 scanned=20 requests=1
    Source sales rows=49 sim=0.0245 bytes=0 shipped=0 scanned=0 requests=0
# at-site join, site on the left
Project rows=49 sim=6.183479999999999 bytes=3998 shipped=147 scanned=80 requests=4
  HashJoin rows=49 sim=6.15898 bytes=3998 shipped=147 scanned=80 requests=4
    Source crm rows=20 sim=2.02 bytes=0 shipped=0 scanned=20 requests=1
    Source sales rows=49 sim=2.0698 bytes=980 shipped=49 scanned=60 requests=1
# adaptive re-plan
Project rows=49 sim=4.1776 bytes=1410 shipped=69 scanned=80 requests=2
  HashJoin rows=49 sim=4.1531 bytes=1410 shipped=69 scanned=80 requests=2 replanned cols=2/4
    Source crm rows=20 sim=2.0243 bytes=430 shipped=20 scanned=20 requests=1
    Source sales rows=49 sim=2.0698 bytes=980 shipped=49 scanned=60 requests=1
# hedged bind join
Project rows=9 sim=4.046430000000001 bytes=423 shipped=21 scanned=38 requests=3
  BindJoin sales rows=9 sim=4.041930000000001 bytes=423 shipped=21 scanned=38 requests=3 hedged cols=2/4
    Source crm rows=3 sim=2.02063 bytes=63 shipped=3 scanned=20 requests=1
# bounded sort
Limit rows=3 sim=2.1778000000000004 bytes=1410 shipped=69 scanned=80 requests=2
  Project rows=49 sim=2.1778000000000004 bytes=1410 shipped=69 scanned=80 requests=2
    Sort rows=49 sim=2.1533 bytes=1410 shipped=69 scanned=80 requests=2 top=3
      HashJoin rows=49 sim=2.1288 bytes=1410 shipped=69 scanned=80 requests=2 cols=2/4
        Source crm rows=20 sim=2.0243 bytes=430 shipped=20 scanned=20 requests=1
        Source sales rows=49 sim=2.0698 bytes=980 shipped=49 scanned=60 requests=1
"#;
    assert_eq!(out, expect, "{out}");
}
