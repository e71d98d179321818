//! Property-based tests over the whole engine: on randomized data and
//! predicates, the optimized federated plan must agree with the naive plan,
//! pushdown must never change results, the warehouse must converge to the
//! source, and SQL rendering must round-trip.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use eii::prelude::*;
use eii::row;
use eii::warehouse::{EtlJob, RefreshMode, Warehouse};

#[path = "support/hazards.rs"]
mod hazards;
use hazards::hazard_value;

/// Build the crm/sales databases every property runs against.
fn customer_dbs(rows: &[(i64, String, i64)]) -> (Database, Database, SimClock) {
    let clock = SimClock::new();
    let crm = Database::new("crm", clock.clone());
    let t = crm
        .create_table(
            TableDef::new(
                "customers",
                Arc::new(Schema::new(vec![
                    Field::new("id", DataType::Int).not_null(),
                    Field::new("name", DataType::Str),
                    Field::new("score", DataType::Int),
                ])),
            )
            .with_primary_key(0),
        )
        .unwrap();
    {
        let mut tt = t.write();
        for (id, name, score) in rows {
            tt.insert(row![*id, name.clone(), *score]).unwrap();
        }
    }
    let orders = Database::new("sales", clock.clone());
    let ot = orders
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
        let mut tt = ot.write();
        for (i, (id, _, score)) in rows.iter().enumerate() {
            tt.insert(row![i as i64, *id, (*score % 50) as f64]).unwrap();
        }
    }
    (crm, orders, clock)
}

/// `v` as a cell of a column of type `ty`: a draw of another type is NULL.
fn typed(v: &Value, ty: DataType) -> Value {
    if v.data_type() == Some(ty) {
        v.clone()
    } else {
        Value::Null
    }
}

/// A system over two tables keyed by hazards: `crm.ki (id, k Int, v Int,
/// s Str)` and `sales.kf (id, f Float, v Int)`, row `i` of each built from
/// `rows[i]` (`k`, `s` from its first cell, `f` from its second).
fn hazard_system(rows: &[(Value, Value, i64)]) -> EiiSystem {
    let clock = SimClock::new();
    let sys = EiiSystem::new(clock.clone());
    let tables: [(&str, &str, Vec<Field>); 2] = [
        ("crm", "ki", vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("s", DataType::Str),
        ]),
        ("sales", "kf", vec![Field::new("f", DataType::Float), Field::new("v", DataType::Int)]),
    ];
    for (source, table, fields) in tables {
        let db = Database::new(source, clock.clone());
        let fields = [vec![Field::new("id", DataType::Int).not_null()], fields].concat();
        let t = db
            .create_table(TableDef::new(table, Arc::new(Schema::new(fields))).with_primary_key(0))
            .unwrap();
        let mut t = t.write();
        for (i, (a, b, v)) in rows.iter().enumerate() {
            let id = Value::Int(i as i64);
            t.insert(Row::new(match source {
                "crm" => vec![id, typed(a, DataType::Int), Value::Int(*v), typed(a, DataType::Str)],
                _ => vec![id, typed(b, DataType::Float), Value::Int(*v)],
            }))
            .unwrap();
        }
        drop(t);
        let connector = Arc::new(RelationalConnector::new(db));
        sys.add_source(connector, LinkProfile::lan(), WireFormat::Native).unwrap();
    }
    sys
}

/// Build a system whose crm.customers table holds the given rows.
fn system_with_customers(rows: &[(i64, String, i64)]) -> (EiiSystem, SimClock) {
    let (crm, orders, clock) = customer_dbs(rows);
    let sys = EiiSystem::new(clock.clone());
    sys.add_source(
        Arc::new(RelationalConnector::new(crm)),
        LinkProfile::lan(),
        WireFormat::Native,
    )
    .unwrap();
    sys.add_source(
        Arc::new(RelationalConnector::new(orders)),
        LinkProfile::wan(),
        WireFormat::Native,
    )
    .unwrap();
    (sys, clock)
}

/// A connector wrapper that trips a shared [`CancelToken`] after a fixed
/// number of connector calls across the whole federation — a deterministic
/// cancel point that the property sweep can place anywhere inside a plan
/// (mid bind-join, between the two sides of a join, after the last fetch, ...).
struct CancelAfter {
    inner: RelationalConnector,
    token: CancelToken,
    remaining: Arc<AtomicI64>,
}

impl CancelAfter {
    fn tick(&self) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.token.cancel("proptest cancel point reached");
        }
    }
}

impl Connector for CancelAfter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tables(&self) -> Vec<String> {
        self.inner.tables()
    }
    fn table_schema(&self, table: &str) -> eii::data::Result<eii::data::SchemaRef> {
        self.inner.table_schema(table)
    }
    fn capabilities(&self) -> eii::federation::SourceCapabilities {
        self.inner.capabilities()
    }
    fn dialect(&self) -> eii::federation::Dialect {
        self.inner.dialect()
    }
    fn statistics(&self, table: &str) -> eii::data::Result<Arc<eii::storage::TableStats>> {
        self.inner.statistics(table)
    }
    fn execute(
        &self,
        query: &eii::federation::SourceQuery,
    ) -> eii::data::Result<eii::federation::SourceAnswer> {
        self.tick();
        self.inner.execute(query)
    }
}

/// Same data as [`system_with_customers`], but both sources count connector
/// calls and trip the returned token once `cancel_after` calls have landed
/// (`0` = cancelled before any work).
fn cancellable_system(rows: &[(i64, String, i64)], cancel_after: i64) -> (Arc<EiiSystem>, CancelToken) {
    let (crm, orders, clock) = customer_dbs(rows);
    let token = CancelToken::new();
    if cancel_after == 0 {
        token.cancel("cancelled before execution");
    }
    let remaining = Arc::new(AtomicI64::new(cancel_after));
    let sys = EiiSystem::new(clock);
    sys.add_source(
        Arc::new(CancelAfter {
            inner: RelationalConnector::new(crm),
            token: token.clone(),
            remaining: Arc::clone(&remaining),
        }),
        LinkProfile::lan(),
        WireFormat::Native,
    )
    .unwrap();
    sys.add_source(
        Arc::new(CancelAfter {
            inner: RelationalConnector::new(orders),
            token: token.clone(),
            remaining,
        }),
        LinkProfile::wan(),
        WireFormat::Native,
    )
    .unwrap();
    (Arc::new(sys), token)
}

fn unique_rows() -> impl Strategy<Value = Vec<(i64, String, i64)>> {
    proptest::collection::btree_map(0i64..200, ("[a-d]{1,6}", -50i64..50), 0..25)
        .prop_map(|m| m.into_iter().map(|(id, (n, s))| (id, n, s)).collect())
}

/// A small predicate grammar over (id, name, score).
fn predicates() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        (0i64..200).prop_map(|k| format!("id < {k}")),
        (-50i64..50).prop_map(|k| format!("score >= {k}")),
        "[a-d]{1,3}".prop_map(|s| format!("name LIKE '{s}%'")),
        (0i64..200).prop_map(|k| format!("id = {k}")),
        Just("name IS NOT NULL".to_string()),
        (-50i64..50).prop_map(|k| format!("score BETWEEN {} AND {}", k - 10, k + 10)),
    ];
    proptest::collection::vec(atom, 1..3).prop_flat_map(|atoms| {
        prop_oneof![Just("AND"), Just("OR")].prop_map(move |op| {
            atoms
                .iter()
                .map(|a| format!("({a})"))
                .collect::<Vec<_>>()
                .join(&format!(" {op} "))
        })
    })
}

fn sorted(batch: &Batch) -> Vec<Row> {
    let mut rows = batch.rows().to_vec();
    rows.sort();
    rows
}

fn run(sys: &EiiSystem, sql: &str) -> Batch {
    sys.execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows()
        .unwrap()
        .clone()
}

/// `Int(2^53)`, `Float(2^53)` and `Int(2^53 + 1)` meet in one key column (a
/// `COALESCE` over an Int and a Float column). `Value`'s order is total, so
/// every map keyed on it — `COUNT(DISTINCT)`, `DISTINCT`, `GROUP BY`, a bind
/// join's binding list — holds two keys, whichever row order they arrive in.
#[test]
fn keys_past_2_pow_53_do_not_depend_on_row_order() {
    const P53: i64 = 1 << 53;
    let cells = [(Some(P53), None), (None, Some(P53 as f64)), (Some(P53 + 1), None)];
    for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        let clock = SimClock::new();
        let big = Database::new("big", clock.clone());
        let t = big
            .create_table(
                TableDef::new(
                    "t",
                    Arc::new(Schema::new(vec![
                        Field::new("id", DataType::Int).not_null(),
                        Field::new("i", DataType::Int),
                        Field::new("f", DataType::Float),
                    ])),
                )
                .with_primary_key(0),
            )
            .unwrap();
        for (id, &cell) in order.iter().enumerate() {
            let (i, f) = cells[cell];
            t.write().insert(row![id as i64, i, f]).unwrap();
        }
        let dim = Database::new("dim", clock.clone());
        let u = dim
            .create_table(
                TableDef::new(
                    "u",
                    Arc::new(Schema::new(vec![
                        Field::new("k", DataType::Int).not_null(),
                        Field::new("tag", DataType::Str),
                    ])),
                )
                .with_primary_key(0),
            )
            .unwrap();
        u.write().insert(row![P53, "a"]).unwrap();
        u.write().insert(row![P53 + 1, "b"]).unwrap();
        let sys = EiiSystem::builder(clock)
            .source(Arc::new(RelationalConnector::new(big)), LinkProfile::lan(), WireFormat::Native)
            .source(
                // Access-limited: `u` answers only a bound `k`, so the join
                // below has to be a bind join.
                Arc::new(WebServiceConnector::new("dim", dim).require_binding("u", "k")),
                LinkProfile::wan(),
                WireFormat::Native,
            )
            .build()
            .unwrap();

        let keys = "(SELECT COALESCE(i, f) AS k FROM big.t) s";
        let counted = run(&sys, "SELECT COUNT(DISTINCT COALESCE(i, f)) AS n FROM big.t");
        assert_eq!(counted.rows(), [row![2i64]], "order {order:?}");
        let distinct = run(&sys, "SELECT DISTINCT COALESCE(i, f) AS k FROM big.t");
        assert_eq!(sorted(&distinct), [row![P53], row![P53 + 1]], "order {order:?}");
        let grouped = run(&sys, &format!("SELECT k, COUNT(*) AS n FROM {keys} GROUP BY k"));
        assert_eq!(sorted(&grouped), [row![P53, 2i64], row![P53 + 1, 1i64]], "order {order:?}");
        let join = format!("SELECT s.k, u.tag FROM {keys} JOIN dim.u u ON s.k = u.k");
        let plan = sys.execute(&format!("EXPLAIN {join}")).unwrap();
        assert!(plan.explained().unwrap().contains("BindJoin"), "{plan:?}");
        assert_eq!(
            sorted(&run(&sys, &join)),
            [row![P53, "a"], row![P53, "a"], row![P53 + 1, "b"]],
            "order {order:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant: every optimization ablation returns exactly
    /// the rows the naive plan returns.
    #[test]
    fn optimized_equals_naive_on_filters(rows in unique_rows(), pred in predicates()) {
        let sql = format!("SELECT id, name FROM crm.customers WHERE {pred}");
        let (sys, _) = system_with_customers(&rows);
        let optimized = run(&sys, &sql);
        let naive_sys = {
            let (s, _) = system_with_customers(&rows);
            s.with_config(PlannerConfig::naive())
        };
        let naive = run(&naive_sys, &sql);
        prop_assert_eq!(sorted(&optimized), sorted(&naive));
    }

    /// Joins agree too, including the join-reorder and bind-join paths.
    #[test]
    fn optimized_equals_naive_on_joins(rows in unique_rows(), pred in predicates()) {
        let sql = format!(
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id WHERE {pred}"
        );
        let (sys, _) = system_with_customers(&rows);
        let optimized = run(&sys, &sql);
        let naive_sys = {
            let (s, _) = system_with_customers(&rows);
            s.with_config(PlannerConfig::naive())
        };
        let naive = run(&naive_sys, &sql);
        prop_assert_eq!(sorted(&optimized), sorted(&naive));
    }

    /// Aggregates agree between plans and with a hand computation.
    #[test]
    fn aggregates_match_oracle(rows in unique_rows()) {
        let (sys, _) = system_with_customers(&rows);
        let batch = run(&sys, "SELECT COUNT(*) AS n, SUM(score) AS s FROM crm.customers");
        prop_assert_eq!(batch.rows()[0].get(0), &Value::Int(rows.len() as i64));
        if rows.is_empty() {
            prop_assert_eq!(batch.rows()[0].get(1), &Value::Null);
        } else {
            let total: i64 = rows.iter().map(|(_, _, s)| *s).sum();
            prop_assert_eq!(batch.rows()[0].get(1), &Value::Int(total));
        }
    }

    /// ORDER BY returns rows in key order regardless of plan shape.
    #[test]
    fn sort_is_correct(rows in unique_rows()) {
        let (sys, _) = system_with_customers(&rows);
        let batch = run(&sys, "SELECT score FROM crm.customers ORDER BY score DESC");
        let scores: Vec<i64> = batch.rows().iter().map(|r| r.get(0).as_int().unwrap()).collect();
        let mut expected = scores.clone();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(scores, expected);
    }

    /// A copy ETL job converges the warehouse to the source under both
    /// refresh modes, whatever mutations happen in between.
    #[test]
    fn warehouse_converges_to_source(
        rows in unique_rows(),
        extra in proptest::collection::btree_map(200i64..300, ("[a-d]{1,4}", -50i64..50), 0..8)
            .prop_map(|m| m.into_iter().map(|(id, (n, s))| (id, n, s)).collect::<Vec<_>>()),
        incremental in any::<bool>(),
    ) {
        let (sys, clock) = system_with_customers(&rows);
        let mut wh = Warehouse::new("wh", sys.federation().clone(), clock);
        wh.add_job(EtlJob::copy("copy", "crm.customers", "customers").with_key("id")).unwrap();
        wh.refresh("copy", RefreshMode::Full).unwrap();

        // Mutate the source.
        for (id, name, score) in &extra {
            sys.federation().source("crm").unwrap().update(&eii::federation::UpdateOp::Insert {
                table: "customers".into(),
                row: row![*id, name.clone(), *score],
            }).unwrap();
        }
        let mode = if incremental { RefreshMode::Incremental } else { RefreshMode::Full };
        wh.refresh("copy", mode).unwrap();

        let live = run(&sys, "SELECT id, name, score FROM crm.customers");
        let handle = wh.database().table("customers").unwrap();
        let mut warehouse_rows = handle.read().all_rows();
        warehouse_rows.sort();
        prop_assert_eq!(sorted(&live), warehouse_rows);
    }

    /// Expression SQL rendering round-trips through the parser.
    #[test]
    fn predicate_sql_round_trips(pred in predicates()) {
        let parsed = eii::sql::parse_expression(&pred).unwrap();
        let rendered = parsed.to_string();
        let reparsed = eii::sql::parse_expression(&rendered).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    /// `IN (SELECT ...)` agrees with its relational-algebra oracle
    /// (distinct inner join), and `NOT IN` with its complement, on random
    /// data.
    #[test]
    fn in_subquery_matches_join_oracle(rows in unique_rows(), cutoff in -50i64..50) {
        let (sys, _) = system_with_customers(&rows);
        let semi = run(&sys, &format!(
            "SELECT id FROM crm.customers WHERE id IN \
             (SELECT customer_id FROM sales.orders WHERE total >= {cutoff})"
        ));
        let oracle = run(&sys, &format!(
            "SELECT DISTINCT c.id FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id WHERE o.total >= {cutoff}"
        ));
        prop_assert_eq!(sorted(&semi), sorted(&oracle));

        let anti = run(&sys, &format!(
            "SELECT id FROM crm.customers WHERE id NOT IN \
             (SELECT customer_id FROM sales.orders WHERE total >= {cutoff})"
        ));
        // Complement: semi + anti partition the customers exactly.
        let all = run(&sys, "SELECT id FROM crm.customers");
        prop_assert_eq!(semi.num_rows() + anti.num_rows(), all.num_rows());
        let mut union: Vec<Row> = semi.rows().to_vec();
        union.extend(anti.rows().to_vec());
        union.sort();
        prop_assert_eq!(union, sorted(&all));
    }

    /// Transient faults healed by retries are invisible: a hardened source
    /// behind an outage window returns byte-identical rows to a fault-free
    /// run, whatever the data, predicate, or outage length.
    #[test]
    fn healed_retries_are_invisible_to_results(
        rows in unique_rows(),
        pred in predicates(),
        outage_end in 1i64..60,
    ) {
        let sql = format!(
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id WHERE {pred}"
        );
        let (clean, _) = system_with_customers(&rows);
        let expect = run(&clean, &sql);

        let (sys, _) = system_with_customers(&rows);
        sys.federation()
            .inject_faults("sales", FaultProfile::none().with_outage(0, outage_end))
            .unwrap();
        // Backoff accumulates past 60 ms well before the attempt budget
        // runs out, so every outage in range heals.
        sys.federation()
            .harden(
                "sales",
                RetryPolicy::standard().with_attempts(12),
                CircuitBreakerConfig::default(),
            )
            .unwrap();
        let got = run(&sys, &sql);
        prop_assert_eq!(got.rows(), expect.rows());
        let result = sys.execute(&sql).unwrap();
        prop_assert!(result.query_result().unwrap().fully_live());
    }

    /// Answering queries using views is invisible to results: with a
    /// materialized view over the base table and the semantic result cache
    /// enabled, every query — first run (matview rewrite) and repeat run
    /// (cache hit) — returns row-identical results to a plain federated
    /// system, whatever the data and predicate.
    #[test]
    fn matview_and_cache_answers_equal_federated(rows in unique_rows(), pred in predicates()) {
        let sql = format!("SELECT id, name FROM crm.customers WHERE {pred}");
        let (plain, _) = system_with_customers(&rows);
        let expect = run(&plain, &sql);

        let (sys, _) = system_with_customers(&rows);
        sys.define_matview("mv_all", "SELECT * FROM crm.customers", RefreshPolicy::Manual)
            .unwrap();
        sys.install_result_cache(CacheConfig::default());
        let first = run(&sys, &sql);
        prop_assert_eq!(sorted(&first), sorted(&expect));
        let repeat = run(&sys, &sql);
        prop_assert_eq!(repeat.rows(), first.rows());
    }

    /// Cache invalidation: a write to the base source bumps its change-log
    /// watermark, so the next read misses the cache and sees the new row —
    /// the cache never silently serves pre-write data.
    #[test]
    fn cache_misses_after_base_write(rows in unique_rows(), new_id in 500i64..600) {
        let sql = "SELECT id FROM crm.customers";
        let (sys, _) = system_with_customers(&rows);
        sys.install_result_cache(CacheConfig::default());
        let before = run(&sys, sql);
        run(&sys, sql); // repeat: served from cache
        sys.federation().source("crm").unwrap().update(&eii::federation::UpdateOp::Insert {
            table: "customers".into(),
            row: row![new_id, "newcomer", 0i64],
        }).unwrap();
        let after = run(&sys, sql);
        prop_assert_eq!(after.num_rows(), before.num_rows() + 1);
        prop_assert!(after.rows().iter().any(|r| r.get(0) == &Value::Int(new_id)));
    }

    /// Incremental view maintenance ≡ full recompute at every watermark:
    /// whatever random stream of inserts, updates, and deletes lands on
    /// the base tables — including orders whose nullable join key is NULL,
    /// which must never match (the executor's hash join drops NULL keys) —
    /// each delta-maintained view (stateless pipeline, cross-source join,
    /// grouped aggregate with retraction-sensitive MIN/MAX) holds exactly
    /// the rows a fresh federated execution of its defining query returns
    /// after every refresh.
    #[test]
    fn ivm_equals_recompute_at_every_watermark(
        rows in unique_rows(),
        ops in proptest::collection::vec(
            ((0usize..5, 0i64..200), "[a-d]{1,4}", -50i64..50),
            1..24,
        ),
        refresh_every in 1usize..4,
    ) {
        const VIEWS: [(&str, &str); 4] = [
            ("pv_filter", "SELECT id, name FROM crm.customers WHERE score >= 0"),
            (
                "pv_join",
                "SELECT c.name, o.order_id FROM crm.customers c \
                 JOIN sales.orders o ON c.id = o.customer_id",
            ),
            // Self-join on the nullable column: both key sides can be NULL,
            // and NULL must never join NULL.
            (
                "pv_selfjoin",
                "SELECT a.order_id, b.order_id AS other_id FROM sales.orders a \
                 JOIN sales.orders b ON a.customer_id = b.customer_id",
            ),
            (
                "pv_agg",
                "SELECT name, COUNT(*) AS n, SUM(score) AS s, \
                 MIN(score) AS lo, MAX(score) AS hi \
                 FROM crm.customers GROUP BY name",
            ),
        ];
        let (sys, _) = system_with_customers(&rows);
        // Matview rewrite off so the oracle queries always execute
        // federated against the live base tables, never the views.
        let sys = sys.with_config(PlannerConfig {
            rewrite_matviews: false,
            ..PlannerConfig::optimized()
        });
        for (name, sql) in VIEWS {
            let fallback = sys
                .define_incremental_matview(name, sql, RefreshPolicy::Manual)
                .unwrap();
            prop_assert!(fallback.is_none(), "{name} fell back: {fallback:?}");
        }
        let crm = sys.federation().source("crm").unwrap();
        let sales = sys.federation().source("sales").unwrap();
        let last = ops.len() - 1;
        for (i, ((kind, id), name, score)) in ops.iter().enumerate() {
            // Updates and deletes on absent keys are no-ops; inserts use a
            // disjoint id range so they never collide with the primary key.
            match kind {
                0 => crm.update(&eii::federation::UpdateOp::Insert {
                    table: "customers".into(),
                    row: row![1_000 + i as i64, name.clone(), *score],
                }),
                1 => crm.update(&eii::federation::UpdateOp::UpdateByKey {
                    table: "customers".into(),
                    key: Value::Int(*id),
                    assignments: vec![
                        ("name".into(), Value::from(name.as_str())),
                        ("score".into(), Value::Int(*score)),
                    ],
                }),
                2 => crm.update(&eii::federation::UpdateOp::DeleteByKey {
                    table: "customers".into(),
                    key: Value::Int(*id),
                }),
                // Negative scores insert an order whose join key is NULL:
                // it must never appear in pv_join, maintained or recomputed.
                3 => sales.update(&eii::federation::UpdateOp::Insert {
                    table: "orders".into(),
                    row: row![
                        2_000 + i as i64,
                        if *score < 0 { Value::Null } else { Value::Int(*id) },
                        *score as f64
                    ],
                }),
                _ => sales.update(&eii::federation::UpdateOp::DeleteByKey {
                    table: "orders".into(),
                    key: Value::Int(*id),
                }),
            }
            .unwrap();
            if (i + 1) % refresh_every != 0 && i != last {
                continue;
            }
            let mgr = sys.matviews().expect("views defined");
            for (name, sql) in VIEWS {
                sys.refresh_matview(name).unwrap();
                let maintained = mgr.cached(name).unwrap().expect("view materialized");
                let recomputed = run(&sys, sql);
                prop_assert_eq!(
                    sorted(&maintained),
                    sorted(&recomputed),
                    "IVM ≢ recompute for {} after op {}",
                    name,
                    i
                );
                let status = mgr.ivm_status(name).unwrap();
                prop_assert!(status.incremental, "{} lost its IVM state", name);
            }
        }
    }

    /// IVM follows the executor on hazard keys: an `Int` column joined to a
    /// `Float` one (2^53 twins, `i64::MIN` beside -2^63, `0` beside `-0.0`,
    /// NULL on both sides), groups over a `Float` column (NULL, `-0.0` and
    /// `0`, NaN, the twins), MIN/MAX over the hazards themselves — and the
    /// shapes the property above lacks: UNION ALL of an `Int` and a `Float`
    /// column, a computed projection, AVG, a global aggregate, a pushed
    /// filter under a projection, a non-equi residual. Whatever writes land,
    /// after every refresh each maintained view holds the rows a fresh
    /// federated execution returns.
    #[test]
    fn ivm_follows_the_executor_on_hazard_keys(
        rows in proptest::collection::vec((hazard_value(), hazard_value(), -3i64..4), 0..12),
        ops in proptest::collection::vec(((0usize..6, 0i64..16), hazard_value(), -3i64..4), 1..16),
        refresh_every in 1usize..4,
    ) {
        const VIEWS: [(&str, &str); 8] = [
            ("hz_join", "SELECT a.id, a.k, b.id AS bid, b.f FROM crm.ki a JOIN sales.kf b ON a.k = b.f"),
            (
                "hz_residual",
                "SELECT a.id, b.id AS bid FROM crm.ki a JOIN sales.kf b ON a.k = b.f AND a.v < b.v",
            ),
            (
                "hz_groups",
                "SELECT f, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS a \
                 FROM sales.kf GROUP BY f",
            ),
            ("hz_extremes", "SELECT v, MIN(f) AS lo, MAX(f) AS hi FROM sales.kf GROUP BY v"),
            (
                "hz_global",
                "SELECT COUNT(*) AS n, SUM(k) AS sk, AVG(v) AS av, MIN(s) AS lo, MAX(k) AS hi \
                 FROM crm.ki",
            ),
            ("hz_union", "SELECT id, k AS x FROM crm.ki UNION ALL SELECT id, f FROM sales.kf"),
            ("hz_computed", "SELECT id, v * 2 + 1 AS w, k - v AS kv FROM crm.ki WHERE v <> 0"),
            ("hz_pushed", "SELECT id FROM sales.kf WHERE v >= 0 AND f > 0.5"),
        ];
        let sys = hazard_system(&rows).with_config(PlannerConfig {
            rewrite_matviews: false,
            ..PlannerConfig::optimized()
        });
        for (name, sql) in VIEWS {
            let fallback = sys.define_incremental_matview(name, sql, RefreshPolicy::Manual).unwrap();
            prop_assert!(fallback.is_none(), "{name} fell back: {fallback:?}");
        }
        let crm = sys.federation().source("crm").unwrap();
        let sales = sys.federation().source("sales").unwrap();
        let last = ops.len() - 1;
        for (i, ((kind, id), cell, v)) in ops.iter().enumerate() {
            // Writes to absent keys are no-ops; inserts take fresh ids.
            let (new_id, key, v) = (Value::Int(100 + i as i64), Value::Int(*id), Value::Int(*v));
            let (source, op) = match kind {
                0 => (&crm, UpdateOp::Insert {
                    table: "ki".into(),
                    row: Row::new(vec![
                        new_id,
                        typed(cell, DataType::Int),
                        v,
                        typed(cell, DataType::Str),
                    ]),
                }),
                1 => (&crm, UpdateOp::UpdateByKey {
                    table: "ki".into(),
                    key,
                    assignments: vec![("k".into(), typed(cell, DataType::Int)), ("v".into(), v)],
                }),
                2 => (&crm, UpdateOp::DeleteByKey { table: "ki".into(), key }),
                3 => (&sales, UpdateOp::Insert {
                    table: "kf".into(),
                    row: Row::new(vec![new_id, typed(cell, DataType::Float), v]),
                }),
                4 => (&sales, UpdateOp::UpdateByKey {
                    table: "kf".into(),
                    key,
                    assignments: vec![("f".into(), typed(cell, DataType::Float)), ("v".into(), v)],
                }),
                _ => (&sales, UpdateOp::DeleteByKey { table: "kf".into(), key }),
            };
            source.update(&op).unwrap();
            if (i + 1) % refresh_every != 0 && i != last {
                continue;
            }
            let mgr = sys.matviews().expect("views defined");
            for (name, sql) in VIEWS {
                sys.refresh_matview(name).unwrap();
                let maintained = mgr.cached(name).unwrap().expect("view materialized");
                prop_assert_eq!(
                    sorted(&maintained),
                    sorted(&run(&sys, sql)),
                    "IVM ≢ recompute for {} after op {}",
                    name,
                    i
                );
            }
        }
    }

    /// Concurrency is invisible to results: N sessions over one shared
    /// `Arc<EiiSystem>` — racing reads against matview refreshes and cache
    /// invalidations — each see exactly the rows a serial run returns,
    /// whatever the data, predicate, and session count.
    #[test]
    fn concurrent_sessions_equal_serial(
        rows in unique_rows(),
        pred in predicates(),
        sessions in 2usize..6,
    ) {
        let sql = format!("SELECT id, name FROM crm.customers WHERE {pred}");
        let (serial, _) = system_with_customers(&rows);
        serial
            .define_matview("mv_all", "SELECT * FROM crm.customers", RefreshPolicy::Manual)
            .unwrap();
        serial.install_result_cache(CacheConfig::default());
        let expect = sorted(&run(&serial, &sql));

        let (sys, _) = system_with_customers(&rows);
        sys.define_matview("mv_all", "SELECT * FROM crm.customers", RefreshPolicy::Manual)
            .unwrap();
        sys.install_result_cache(CacheConfig::default());
        let sys = Arc::new(sys);
        let got: Vec<(Vec<Row>, Vec<Row>)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in 0..sessions {
                let sys = Arc::clone(&sys);
                let sql = sql.clone();
                handles.push(scope.spawn(move || {
                    let session = sys.session().with_label(&format!("s{i}"));
                    // Mixed workload: refreshes and invalidations race the
                    // reads (neither changes the base data).
                    if i % 2 == 0 {
                        sys.refresh_matview("mv_all").unwrap();
                    }
                    let a = sorted(session.execute(&sql).unwrap().rows().unwrap());
                    if i % 3 == 0 {
                        sys.invalidate_cached("crm.customers");
                    }
                    let b = sorted(session.execute(&sql).unwrap().rows().unwrap());
                    (a, b)
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (a, b) in &got {
            prop_assert_eq!(a, &expect);
            prop_assert_eq!(b, &expect);
        }
    }

    /// Cancellation is clean at *every* point: wherever the cancel lands in
    /// a plan's connector-call sequence, the query either finishes with the
    /// exact uncancelled answer or fails with the typed `cancelled` error;
    /// the cancelled run never ships more bytes than the uncancelled run;
    /// and the system stays healthy — a fresh session immediately gets the
    /// full answer again.
    #[test]
    fn cancellation_is_clean_at_every_point(
        rows in unique_rows(),
        pred in predicates(),
        cancel_after in 0i64..12,
    ) {
        let sql = format!(
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id WHERE {pred}"
        );
        // Oracle: the uncancelled run's answer and traffic.
        let (clean, _) = system_with_customers(&rows);
        let expect = run(&clean, &sql);
        let clean_bytes = clean.federation().ledger().total().bytes;

        let (sys, token) = cancellable_system(&rows, cancel_after);
        let session = sys.session().with_cancel_token(token.clone());
        match session.execute(&sql) {
            Ok(out) => {
                // The cancel point fell past the last fetch (or was never
                // reached): the answer must be the uncancelled one, exactly.
                let got = out.rows().unwrap().clone();
                prop_assert_eq!(sorted(&got), sorted(&expect));
            }
            Err(e) => prop_assert_eq!(e.kind(), "cancelled"),
        }
        let bytes = sys.federation().ledger().total().bytes;
        prop_assert!(
            bytes <= clean_bytes,
            "cancelled run shipped {bytes} bytes, uncancelled only {clean_bytes}"
        );
        // No poisoned state: a session without the tripped token gets the
        // complete answer from the same system.
        let retry = sys.session().execute(&sql);
        prop_assert!(retry.is_ok(), "system unusable after cancel: {:?}", retry.err());
        let again = retry.unwrap().rows().unwrap().clone();
        prop_assert_eq!(sorted(&again), sorted(&expect));
    }

    /// Cancelled jobs release their admission permits: with one worker slot
    /// per source, any mix of queued/running cancellations must leave the
    /// scheduler able to run a probe query to completion afterwards.
    #[test]
    fn cancelled_jobs_release_scheduler_permits(
        rows in unique_rows(),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..7),
    ) {
        let sql = "SELECT c.name, o.total FROM crm.customers c \
                   JOIN sales.orders o ON c.id = o.customer_id";
        let (sys, _) = system_with_customers(&rows);
        let sys = Arc::new(sys);
        let scheduler =
            sys.scheduler(AdmissionConfig::with_workers(2).with_source_permits(1));
        let mut tickets = Vec::new();
        for &kill in &cancel_mask {
            let (ticket, _) = scheduler
                .submit_prioritized(sql, &ExecOptions::default())
                .expect("no brownout configured: admission always accepts");
            if kill {
                // Races the worker on purpose: removed from the queue if
                // still pending, cooperative teardown if already running.
                ticket.cancel("proptest abort");
            }
            tickets.push(ticket);
        }
        for ticket in tickets {
            match ticket.join() {
                Ok(_) => {}
                Err(e) => prop_assert_eq!(e.kind(), "cancelled"),
            }
        }
        // Every permit must be back: the probe would hang (or reject) on a
        // leaked worker slot or source permit.
        let probe = scheduler.submit(sql, "public").join();
        prop_assert!(probe.is_ok(), "probe after cancellations: {:?}", probe.err());
        let stats = scheduler.finish();
        prop_assert!(stats.completed >= 1);
    }

    /// Self-tuning is invisible to correctness: with the advisor enabled
    /// under a deliberately twitchy config (cycle every 3 statements, one
    /// execution qualifies a candidate, an unreachable 0.99 hit-rate floor
    /// so installed views are evicted mid-stream, and a low re-planning
    /// divergence factor), every query in a random query/write workload
    /// returns exactly the rows the untuned system returns — including
    /// statements that run against views the advisor installed, and
    /// statements that run right after it evicted them.
    #[test]
    fn advisor_never_changes_answers(
        rows in unique_rows(),
        workload in proptest::collection::vec((0usize..6, 0i64..100), 1..32),
    ) {
        // IVM-eligible shapes only (no ORDER BY / DISTINCT / LIMIT): the
        // advisor installs candidates as live incrementally-maintained
        // views, so these are the queries it can actually act on.
        const QUERIES: [&str; 4] = [
            "SELECT id, name FROM crm.customers WHERE score >= 0",
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id",
            "SELECT name, COUNT(*) AS n FROM crm.customers GROUP BY name",
            "SELECT order_id, total FROM sales.orders WHERE total >= 10.0",
        ];
        let (tuned, _) = system_with_customers(&rows);
        let (baseline, _) = system_with_customers(&rows);
        prop_assert!(tuned.enable_advisor(AdvisorConfig {
            advise_every: 3,
            min_count: 1,
            grace_statements: 4,
            min_hit_rate: 0.99,
            replan_factor: 1.5,
            ..AdvisorConfig::default()
        }));
        for (i, &(op, key)) in workload.iter().enumerate() {
            match op {
                4 => {
                    // Identical write through both federations; disjoint id
                    // range so inserts never collide with the primary key.
                    for sys in [&tuned, &baseline] {
                        sys.federation()
                            .source("crm")
                            .unwrap()
                            .update(&eii::federation::UpdateOp::Insert {
                                table: "customers".into(),
                                row: row![10_000 + i as i64, "w", key],
                            })
                            .unwrap();
                    }
                }
                5 => {
                    for sys in [&tuned, &baseline] {
                        sys.federation()
                            .source("sales")
                            .unwrap()
                            .update(&eii::federation::UpdateOp::Insert {
                                table: "orders".into(),
                                row: row![20_000 + i as i64, key % 200, (key % 50) as f64],
                            })
                            .unwrap();
                    }
                }
                q => {
                    let sql = QUERIES[q % QUERIES.len()];
                    // Row order may legitimately differ once a view serves
                    // the query (IVM appends deltas); the row *set* with
                    // multiplicity must be identical.
                    prop_assert_eq!(
                        sorted(&run(&tuned, sql)),
                        sorted(&run(&baseline, sql)),
                        "advisor changed answers for {} (advisor state:\n{})",
                        sql,
                        tuned.advisor_report()
                    );
                }
            }
        }
    }

    /// LIMIT never yields more rows than asked, and the prefix matches the
    /// unlimited ordering.
    #[test]
    fn limit_is_a_prefix(rows in unique_rows(), n in 0usize..10) {
        let (sys, _) = system_with_customers(&rows);
        let all = run(&sys, "SELECT id FROM crm.customers ORDER BY id");
        let limited = run(&sys, &format!("SELECT id FROM crm.customers ORDER BY id LIMIT {n}"));
        prop_assert!(limited.num_rows() <= n);
        prop_assert_eq!(
            limited.rows(),
            &all.rows()[..limited.num_rows()]
        );
    }
}

/// Operator-tree skeleton shared by physical plans and span trees.
#[derive(Debug, Clone, PartialEq)]
struct OpTree {
    label: String,
    children: Vec<OpTree>,
}

fn plan_optree(plan: &eii::planner::PhysicalPlan) -> OpTree {
    OpTree {
        label: plan.label().to_string(),
        children: plan.children().into_iter().map(plan_optree).collect(),
    }
}

/// Project a span subtree onto operator spans only: `op:<label>` spans
/// keep their label, synthetic spans (`hedge:backup`) are dropped — they
/// annotate a fetch, they are not plan operators.
fn span_optree(span: &eii::obs::SpanRecord) -> Option<OpTree> {
    let label = span.name.strip_prefix("op:")?;
    Some(OpTree {
        label: label.to_string(),
        children: span.children.iter().filter_map(span_optree).collect(),
    })
}

fn find_span<'a>(
    spans: &'a [eii::obs::SpanRecord],
    name: &str,
) -> Option<&'a eii::obs::SpanRecord> {
    for span in spans {
        if span.name == name {
            return Some(span);
        }
        if let Some(found) = find_span(&span.children, name) {
            return Some(found);
        }
    }
    None
}

/// The physical plan the engine would pick for `sql`, built through the
/// same public pipeline the facade uses (parse → build → optimize →
/// physical), independent of any execution.
fn physical_plan_for(sys: &EiiSystem, sql: &str) -> eii::planner::PhysicalPlan {
    let Ok(eii::sql::Statement::Query(q)) = eii::sql::parse_statement(sql) else {
        panic!("not a query: {sql}");
    };
    let logical = eii::planner::PlanBuilder::new(sys.catalog(), sys.federation())
        .build(&q)
        .unwrap();
    let optimized = eii::planner::optimize(logical, sys.federation(), sys.config()).unwrap();
    eii::planner::PhysicalPlanner::new(sys.federation(), sys.config())
        .create(optimized)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tracer's `op:` span tree under `execute` is isomorphic (same
    /// shape, same operator labels) to the physical plan's operator tree,
    /// across query shapes — with and without hedged backup fetches, whose
    /// extra `hedge:backup` child spans must not disturb the skeleton.
    #[test]
    fn span_tree_is_isomorphic_to_physical_plan(
        rows in unique_rows(),
        pred in predicates(),
        shape in 0usize..6,
        hedge in 0usize..2,
    ) {
        let sql = match shape {
            0 => format!("SELECT id, name FROM crm.customers WHERE {pred}"),
            1 => format!(
                "SELECT c.name, o.total FROM crm.customers c \
                 JOIN sales.orders o ON c.id = o.customer_id WHERE {pred}"
            ),
            2 => format!(
                "SELECT name, score FROM crm.customers WHERE {pred} \
                 ORDER BY score DESC LIMIT 5"
            ),
            3 => "SELECT name, COUNT(*) AS n FROM crm.customers GROUP BY name".to_string(),
            4 => format!("SELECT DISTINCT name FROM crm.customers WHERE {pred}"),
            _ => format!(
                "SELECT id FROM crm.customers WHERE {pred} \
                 UNION ALL SELECT order_id FROM sales.orders"
            ),
        };
        let hedged = hedge == 1;
        let (sys, _) = system_with_customers(&rows);
        let sys = Arc::new(sys);
        if hedged {
            sys.set_hedge_policy(HedgePolicy {
                threshold_ms: 0.0,
                delay_ms: 0.5,
            });
            // Prime per-source latency history: the first fetch per source
            // is never hedged.
            sys.execute("SELECT id FROM crm.customers").unwrap();
            sys.execute("SELECT order_id FROM sales.orders").unwrap();
        }
        let expected = plan_optree(&physical_plan_for(&sys, &sql));
        let session = sys.session();
        session.execute(&sql).unwrap();
        let trace = session.last_trace().expect("executed statements leave a trace");
        let exec_span = find_span(&trace.spans, "execute").expect("execute span present");
        let roots: Vec<OpTree> = exec_span.children.iter().filter_map(span_optree).collect();
        prop_assert_eq!(roots, vec![expected]);
    }
}

/// What running one statement shows of the plan it ran under: the answer,
/// its cost to the bit, and the executed operator tree with each operator's
/// rows and cost — or the error. (Wall-clock fields are left out.)
fn observed(outcome: &eii::data::Result<ExecOutcome>) -> String {
    fn tree(p: &eii::exec::OperatorProfile, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{}{} {:?} rows={} {:?} replanned={} top={:?} cols={:?}\n",
            "  ".repeat(depth), p.label, p.source, p.rows, p.cost, p.replanned, p.top, p.columns,
        ));
        for c in &p.children {
            tree(c, depth + 1, out);
        }
    }
    match outcome {
        Ok(ExecOutcome::Rows(r)) => {
            let mut out = format!("{:?}\n{:?}\n{:?}\n", r.batch.rows(), r.cost, r.degraded);
            if let Some(p) = &r.profile {
                tree(p, 0, &mut out);
            }
            out
        }
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The plan memo can never be seen: a system that remembers its plans
    /// and a twin that forgets them before every statement go through the
    /// same interleaving of repeated statements and of everything that can
    /// change a plan — writes that flip join orders, source
    /// reconfiguration, view DDL, materialized views that come, go and
    /// expire, deadlines, the scheduler — and after every step show the
    /// same answer, cost, executed operator tree, ledger, clock and
    /// query-log record.
    #[test]
    fn memoized_plans_equal_fresh_plans(
        rows in unique_rows(),
        cached in any::<bool>(),
        steps in proptest::collection::vec((0usize..24, 0i64..1000), 1..48),
    ) {
        const STATEMENTS: [&str; 6] = [
            "SELECT name FROM crm.customers WHERE score >= 0",
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id WHERE o.total >= 5.0",
            "SELECT c.name, COUNT(*) AS n FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id GROUP BY c.name",
            "SELECT name, score FROM hot ORDER BY score DESC, name LIMIT 5",
            "SELECT order_id, total FROM sales.orders WHERE total >= 10.0",
            "SELECT h.name, o.total FROM hot h JOIN sales.orders o ON h.id = o.customer_id",
        ];
        use eii::federation::UpdateOp;
        let build = || {
            let (sys, clock) = system_with_customers(&rows);
            if cached {
                sys.install_result_cache(CacheConfig::default());
            }
            (Arc::new(sys), clock)
        };
        let (memo, memo_clock) = build();
        let (twin, twin_clock) = build();
        for (i, &(op, k)) in steps.iter().enumerate() {
            twin.forget_plans();
            // The two statements a materialized view may cover come up twice
            // as often as the rest.
            let sql = STATEMENTS[[0, 1, 2, 3, 4, 5, 1, 4][k as usize % 8]];
            let step = |sys: &Arc<EiiSystem>, clock: &SimClock| -> String {
                let update = |source: &str, op: UpdateOp| {
                    format!("{:?}", sys.federation().source(source).unwrap().update(&op))
                };
                let hot = format!("SELECT id, name, score FROM crm.customers WHERE score >= {}", k % 40 - 20);
                match op {
                    // A burst large enough to flip which side of a join is
                    // the smaller one, or a single row.
                    12 | 13 => (0..if k % 3 == 0 { 30 } else { 1 })
                        .map(|j| {
                            let id = 10_000 + (i * 100 + j) as i64;
                            if op == 12 {
                                let row = row![id, (k + j as i64) % 200, (k % 50) as f64];
                                update("sales", UpdateOp::Insert { table: "orders".into(), row })
                            } else {
                                let row = row![id, "w", k % 50];
                                update("crm", UpdateOp::Insert { table: "customers".into(), row })
                            }
                        })
                        .collect(),
                    14 => update("crm", UpdateOp::UpdateByKey {
                        table: "customers".into(),
                        key: Value::Int(k % 200),
                        assignments: vec![("score".into(), Value::Int(k % 50))],
                    }),
                    15 => update("sales", UpdateOp::DeleteByKey {
                        table: "orders".into(),
                        key: Value::Int(k % 25),
                    }),
                    16 => format!("{:?}", sys.federation().set_scan_speed("crm", 0.001 * (1 + k % 5) as f64)),
                    17 => {
                        let wire = if k % 2 == 0 { WireFormat::Xml } else { WireFormat::Native };
                        format!("{:?}", sys.federation().set_wire_format("sales", wire))
                    }
                    18 => observed(&sys.execute(&format!("CREATE VIEW hot AS {hot}"))),
                    19 => match eii::sql::parse_statement(&hot).unwrap() {
                        eii::sql::Statement::Query(q) => {
                            format!("{:?}", sys.catalog().replace_view("hot", &hot, q))
                        }
                        _ => unreachable!(),
                    },
                    20 => format!("{:?}", sys.catalog().drop_view("hot")),
                    // A view over one of two statements: servable at once,
                    // until dropped or — every other time — until it expires.
                    11 | 21 => {
                        let policy = if k % 2 == 0 {
                            RefreshPolicy::Manual
                        } else {
                            RefreshPolicy::Periodic { interval_ms: 40 }
                        };
                        let over = STATEMENTS[if k % 4 < 2 { 4 } else { 1 }];
                        let defined = sys.define_incremental_matview("mv", over, policy);
                        format!("{:?}", defined.map_err(|e| e.to_string()))
                    }
                    22 => match k % 3 {
                        0 => format!("{:?}", sys.refresh_matview("mv").map_err(|e| e.to_string())),
                        1 => format!("{:?}", sys.matviews().map(|m| m.drop_view("mv").is_ok())),
                        _ => format!("{:?}", clock.advance_ms(k % 100)),
                    },
                    23 if k % 2 == 0 => {
                        let opts = ExecOptions {
                            deadline_budget_ms: Some(5 + k % 400),
                            ..ExecOptions::default()
                        };
                        observed(&sys.execute_with(sql, &opts).0)
                    }
                    23 => {
                        let scheduler = sys.scheduler(AdmissionConfig::with_workers(1));
                        let out = observed(&scheduler.submit(sql, "public").join());
                        scheduler.finish();
                        out
                    }
                    _ => observed(&sys.execute(sql)),
                }
            };
            let state = |sys: &Arc<EiiSystem>, clock: &SimClock| {
                let log = sys.query_log().last().map(|r| {
                    (r.fingerprint, r.plan, r.sql, r.flags, r.rows, r.bytes_shipped, r.sim_ms.to_bits())
                });
                format!("{:?} now={} {:?}", sys.federation().ledger().total(), clock.now_ms(), log)
            };
            prop_assert_eq!(
                step(&memo, &memo_clock),
                step(&twin, &twin_clock),
                "step {} = {:?} ({})", i, (op, k), sql
            );
            prop_assert_eq!(
                state(&memo, &memo_clock),
                state(&twin, &twin_clock),
                "after step {} = {:?} ({})", i, (op, k), sql
            );
        }
    }
}
