//! The engine against a reference evaluator, and against itself across
//! chunk sizes.
//!
//! [`reference`] is deliberately tiny and shares nothing with the executor:
//! it walks the **un-optimized** `LogicalPlan` the plan builder produces,
//! reads base rows straight out of the source databases, joins by nested
//! loops, evaluates every expression with the scalar `BoundExpr::eval`, and
//! computes COUNT/SUM/AVG/MIN/MAX itself. The engine under test runs the
//! whole stack — optimizer, pushdown, bind joins, view rewrite, dead-source
//! fallback, the columnar operators. Whatever the two disagree on is a bug
//! in one of them, and the reference is the one short enough to check by
//! reading.

use std::sync::Arc;

use proptest::prelude::*;

use eii::data::SchemaRef;
use eii::expr::{bind, AggFunc};
use eii::planner::{AggItem, LogicalPlan};
use eii::prelude::*;
use eii::row;
use eii::sql::JoinKind;

mod reference {
    use super::*;

    /// Base rows of `source.table`, in table order.
    pub type BaseRows<'a> = &'a dyn Fn(&str, &str) -> Vec<Row>;

    pub fn eval(plan: &LogicalPlan, base: BaseRows<'_>) -> (SchemaRef, Vec<Row>) {
        let schema = plan.schema().expect("plan has a schema");
        let rows = match plan {
            LogicalPlan::SourceScan {
                source,
                table,
                pushed_filters,
                projection,
                limit,
                ..
            } => {
                assert!(
                    pushed_filters.is_empty() && projection.is_none() && limit.is_none(),
                    "the reference evaluates un-optimized plans"
                );
                base(source, table)
            }
            LogicalPlan::Values { rows, .. } => rows.clone(),
            LogicalPlan::MatViewScan { .. } => {
                unreachable!("view scans appear only after the rewrite pass")
            }
            LogicalPlan::Filter { input, predicate } => {
                let (in_schema, rows) = eval(input, base);
                let pred = bind(predicate, &in_schema).unwrap();
                rows.into_iter()
                    .filter(|r| pred.eval_predicate(r).unwrap())
                    .collect()
            }
            LogicalPlan::Project { input, exprs } => {
                let (in_schema, rows) = eval(input, base);
                let bound: Vec<_> = exprs
                    .iter()
                    .map(|(e, _)| bind(e, &in_schema).unwrap())
                    .collect();
                rows.iter()
                    .map(|r| bound.iter().map(|b| b.eval(r).unwrap()).collect())
                    .collect()
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (ls, lrows) = eval(left, base);
                let (rs, rrows) = eval(right, base);
                let both = Arc::new(ls.join(&rs));
                let on = on.as_ref().map(|e| bind(e, &both).unwrap());
                let nulls: Row = rs.fields().iter().map(|_| Value::Null).collect();
                let mut out = Vec::new();
                for l in &lrows {
                    let matches: Vec<Row> = rrows
                        .iter()
                        .map(|r| l.concat(r))
                        .filter(|pair| on.as_ref().is_none_or(|p| p.eval_predicate(pair).unwrap()))
                        .collect();
                    match kind {
                        JoinKind::Inner | JoinKind::Cross => out.extend(matches),
                        JoinKind::Left if matches.is_empty() => out.push(l.concat(&nulls)),
                        JoinKind::Left => out.extend(matches),
                        JoinKind::Semi if !matches.is_empty() => out.push(l.clone()),
                        JoinKind::Anti if matches.is_empty() => out.push(l.clone()),
                        JoinKind::Semi | JoinKind::Anti => {}
                    }
                }
                out
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (in_schema, rows) = eval(input, base);
                let keys: Vec<_> = group_by
                    .iter()
                    .map(|g| bind(g, &in_schema).unwrap())
                    .collect();
                // Groups in first-seen order, found by linear `==`.
                let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
                for row in rows {
                    let key: Vec<Value> = keys.iter().map(|k| k.eval(&row).unwrap()).collect();
                    match groups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, members)) => members.push(row),
                        None => groups.push((key, vec![row])),
                    }
                }
                if groups.is_empty() && group_by.is_empty() {
                    groups.push((Vec::new(), Vec::new()));
                }
                groups
                    .into_iter()
                    .map(|(key, members)| {
                        let mut out = key;
                        out.extend(aggs.iter().map(|a| aggregate(a, &in_schema, &members)));
                        Row::new(out)
                    })
                    .collect()
            }
            LogicalPlan::Distinct { input } => dedup(eval(input, base).1),
            LogicalPlan::Sort { input, keys } => {
                let (in_schema, rows) = eval(input, base);
                let bound: Vec<_> = keys
                    .iter()
                    .map(|(e, asc)| (bind(e, &in_schema).unwrap(), *asc))
                    .collect();
                let mut keyed: Vec<(Vec<Value>, Row)> = rows
                    .into_iter()
                    .map(|r| (bound.iter().map(|(b, _)| b.eval(&r).unwrap()).collect(), r))
                    .collect();
                // Stable: ties stay in input order.
                keyed.sort_by(|(a, _), (b, _)| {
                    for (i, (_, asc)) in bound.iter().enumerate() {
                        let ord = if *asc { a[i].cmp(&b[i]) } else { b[i].cmp(&a[i]) };
                        if ord.is_ne() {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                keyed.into_iter().map(|(_, r)| r).collect()
            }
            LogicalPlan::Limit { input, n } => {
                let mut rows = eval(input, base).1;
                rows.truncate(*n);
                rows
            }
            LogicalPlan::UnionAll { inputs } => {
                inputs.iter().flat_map(|p| eval(p, base).1).collect()
            }
            LogicalPlan::Alias { input, .. } => eval(input, base).1,
        };
        (schema, rows)
    }

    fn dedup<T: PartialEq>(items: Vec<T>) -> Vec<T> {
        let mut out: Vec<T> = Vec::new();
        for item in items {
            if !out.contains(&item) {
                out.push(item);
            }
        }
        out
    }

    fn aggregate(item: &AggItem, schema: &SchemaRef, members: &[Row]) -> Value {
        if item.func == AggFunc::CountStar {
            return Value::Int(members.len() as i64);
        }
        let arg = bind(item.arg.as_ref().expect("argument"), schema).unwrap();
        let mut vals: Vec<Value> = members
            .iter()
            .map(|r| arg.eval(r).unwrap())
            .filter(|v| !v.is_null())
            .collect();
        if item.distinct {
            vals = dedup(vals);
        }
        let sum = |vals: &[Value]| -> Value {
            if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(vals.iter().map(|v| v.as_int().unwrap()).sum())
            } else {
                Value::Float(vals.iter().map(|v| v.as_float().unwrap()).sum())
            }
        };
        match item.func {
            AggFunc::Count => Value::Int(vals.len() as i64),
            _ if vals.is_empty() => Value::Null,
            AggFunc::Sum => sum(&vals),
            AggFunc::Avg => {
                Value::Float(sum(&vals).as_float().unwrap() / vals.len() as f64)
            }
            AggFunc::Min => vals.into_iter().min().unwrap(),
            AggFunc::Max => vals.into_iter().max().unwrap(),
            AggFunc::CountStar => unreachable!("handled above"),
        }
    }
}

// ---------------------------------------------------------------------------
// The world both sides read: two relational sources, ties and NULLs on purpose.
// ---------------------------------------------------------------------------

/// `(id, name, score)`; ids unique, in arbitrary (not key) order.
type Customer = (i64, String, i64);
/// `(customer_id, total)`; `order_id` is the position. A NULL `customer_id`
/// must never join.
type Order = (Option<i64>, i64);

struct World {
    sys: EiiSystem,
    crm: Database,
    sales: Database,
}

impl World {
    /// crm.customers + sales.orders behind `config`. With `view`, a fresh
    /// materialized view covers crm.customers; with `degrade`, sales is
    /// dead and answered from a snapshot taken one simulated second ago.
    fn build(
        customers: &[Customer],
        orders: &[Order],
        view: bool,
        degrade: bool,
        config: PlannerConfig,
    ) -> World {
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
        for (id, name, score) in customers {
            t.write().insert(row![*id, name.clone(), *score]).unwrap();
        }
        let sales = Database::new("sales", clock.clone());
        let t = sales
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
        for (i, (customer, total)) in orders.iter().enumerate() {
            let customer = customer.map_or(Value::Null, Value::Int);
            t.write().insert(row![i as i64, customer, *total as f64]).unwrap();
        }
        let sys = EiiSystem::new(clock.clone()).with_config(config);
        for (db, link) in [(&crm, LinkProfile::lan()), (&sales, LinkProfile::wan())] {
            sys.add_source(
                Arc::new(RelationalConnector::new(db.clone())),
                link,
                WireFormat::Native,
            )
            .unwrap();
        }
        if view {
            // Statements over crm.customers are answered from it, their own
            // filter and limit applied as compensation.
            sys.define_matview("mv_customers", "SELECT * FROM crm.customers", RefreshPolicy::Manual)
                .unwrap();
        }
        if degrade {
            sys.snapshot_fallback("sales.orders").unwrap();
            clock.advance_ms(1_000);
            sys.federation()
                .inject_faults("sales", FaultProfile::failing(1.0, 7))
                .unwrap();
            sys.set_degradation_policy(DegradationPolicy::Fallback);
        }
        World { sys, crm, sales }
    }

    /// The reference answer: the statement's un-optimized logical plan over
    /// rows read straight from the databases (a dead *link* does not hide
    /// them, and nothing is written after the snapshot, so they are also
    /// what the fallback serves).
    fn reference(&self, sql: &str) -> (SchemaRef, Vec<Row>) {
        let Ok(eii::sql::Statement::Query(q)) = eii::sql::parse_statement(sql) else {
            panic!("not a query: {sql}");
        };
        let plan = eii::planner::PlanBuilder::new(self.sys.catalog(), self.sys.federation())
            .build(&q)
            .unwrap();
        let base = |source: &str, table: &str| -> Vec<Row> {
            let db = if source == "crm" { &self.crm } else { &self.sales };
            db.table(table).unwrap().read().all_rows()
        };
        reference::eval(&plan, &base)
    }
}

fn customers() -> impl Strategy<Value = Vec<Customer>> {
    proptest::collection::vec((0i64..60, "[a-c]{1,2}", -4i64..5), 0..40).prop_map(|mut rows| {
        let mut seen = std::collections::BTreeSet::new();
        rows.retain(|(id, _, _)| seen.insert(*id));
        rows
    })
}

fn orders() -> impl Strategy<Value = Vec<Order>> {
    let order = (0i64..80, 0i64..6)
        .prop_map(|(c, total)| ((c < 60).then_some(c), total));
    proptest::collection::vec(order, 0..50)
}

/// A small predicate grammar over customers' `(id, name, score)`.
fn predicates() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        (0i64..60).prop_map(|k| format!("id < {k}")),
        (-4i64..5).prop_map(|k| format!("score >= {k}")),
        "[a-c]".prop_map(|s| format!("name LIKE '{s}%'")),
        (0i64..60).prop_map(|k| format!("id = {k}")),
        Just("name IS NOT NULL".to_string()),
        (-4i64..5).prop_map(|k| format!("score BETWEEN {} AND {}", k - 2, k + 2)),
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

/// How far the statement pins its row order.
#[derive(Clone, Copy, PartialEq, Debug)]
enum RowOrder {
    /// No ORDER BY: compare as multisets.
    None,
    /// ORDER BY over a join, whose input order is the plan's business: the
    /// named output columns (the sort keys) must match as sequences.
    Keys(&'static [usize]),
    /// ORDER BY over one table's scan: input order is table order on both
    /// sides, so a *stable* sort pins every row's position.
    Total,
}

struct Statement {
    sql: String,
    order: RowOrder,
    /// LIMIT without a total order keeps an arbitrary subset: the answer
    /// must be `n` rows (or all) of what the unlimited statement returns.
    limit: Option<usize>,
    /// A plan operator the statement is there to exercise.
    exercises: &'static str,
}

impl Statement {
    fn world(&self, customers: &[Customer], orders: &[Order], degrade: bool, config: PlannerConfig) -> World {
        World::build(customers, orders, self.exercises == "MatViewScan", degrade, config)
    }
}

const SHAPES: usize = 28;

fn statement(shape: usize, pred: &str, k: i64) -> Statement {
    let plain = |sql: String, exercises| Statement {
        sql,
        order: RowOrder::None,
        limit: None,
        exercises,
    };
    match shape {
        0 => plain(format!("SELECT id, name FROM crm.customers WHERE {pred}"), "MatViewScan"),
        1 => plain(
            format!(
                "SELECT c.name, o.total FROM crm.customers c \
                 JOIN sales.orders o ON c.id = o.customer_id WHERE {pred}"
            ),
            "Join",
        ),
        2 => plain(
            format!(
                "SELECT name, COUNT(*) AS n, SUM(score) AS s, AVG(score) AS a, \
                 MIN(score) AS lo, MAX(score) AS hi \
                 FROM crm.customers WHERE {pred} GROUP BY name"
            ),
            "Aggregate",
        ),
        3 => plain(
            "SELECT c.name, COUNT(*) AS n, SUM(o.total) AS s \
             FROM crm.customers c JOIN sales.orders o ON c.id = o.customer_id \
             GROUP BY c.name"
                .into(),
            "Aggregate",
        ),
        4 => plain(
            format!(
                "SELECT COUNT(*) AS n, SUM(total) AS s, AVG(total) AS a, \
                 COUNT(DISTINCT customer_id) AS d FROM sales.orders WHERE total >= {}.0",
                k.rem_euclid(6)
            ),
            "Aggregate",
        ),
        5 => plain(
            format!(
                "SELECT id, score * 2 + 1 AS s2, score % 7 AS m \
                 FROM crm.customers WHERE {pred}"
            ),
            "Project",
        ),
        // Ties and NULL keys, descending then ascending.
        6 => Statement {
            sql: "SELECT order_id, customer_id, total FROM sales.orders \
                  ORDER BY customer_id DESC, total"
                .into(),
            order: RowOrder::Total,
            limit: None,
            exercises: "Sort",
        },
        7 => Statement {
            sql: format!(
                "SELECT name, score, id FROM crm.customers WHERE {pred} ORDER BY score, name DESC"
            ),
            order: RowOrder::Total,
            limit: None,
            exercises: "Sort",
        },
        8 => Statement {
            sql: "SELECT c.name, o.total, o.order_id FROM crm.customers c \
                  JOIN sales.orders o ON c.id = o.customer_id \
                  ORDER BY o.total DESC, c.name"
                .into(),
            order: RowOrder::Keys(&[1, 0]),
            limit: None,
            exercises: "Sort",
        },
        // A sort that a limit cuts: only rows that survive are gathered.
        9 => Statement {
            sql: format!(
                "SELECT order_id, total FROM sales.orders ORDER BY total DESC, order_id LIMIT {}",
                k.rem_euclid(12)
            ),
            order: RowOrder::Total,
            limit: None,
            exercises: "Limit",
        },
        10 => plain(
            format!("SELECT DISTINCT name, score FROM crm.customers WHERE {pred}"),
            "Distinct",
        ),
        11 => plain(
            format!(
                "SELECT id, score FROM crm.customers WHERE {pred} \
                 UNION ALL SELECT order_id, customer_id FROM sales.orders"
            ),
            "UnionAll",
        ),
        12 => plain(
            "SELECT c.id, o.order_id, o.total FROM crm.customers c \
             LEFT JOIN sales.orders o ON c.id = o.customer_id AND o.total > 2.0"
                .into(),
            "Join",
        ),
        13 => plain(
            format!(
                "SELECT id, name FROM crm.customers WHERE id IN \
                 (SELECT customer_id FROM sales.orders WHERE total >= {}.0)",
                k.rem_euclid(6)
            ),
            "Join",
        ),
        14 => plain(
            format!(
                "SELECT id, name FROM crm.customers WHERE id NOT IN \
                 (SELECT customer_id FROM sales.orders WHERE total >= {}.0)",
                k.rem_euclid(6)
            ),
            "Join",
        ),
        // No equi key: nested loops, inner and outer.
        15 => plain(
            "SELECT c.id, o.order_id FROM crm.customers c \
             JOIN sales.orders o ON c.score > o.total"
                .into(),
            "NestedLoopJoin",
        ),
        16 => plain(
            "SELECT c.id, o.order_id FROM crm.customers c \
             LEFT JOIN sales.orders o ON c.score > o.total + 2.0"
                .into(),
            "NestedLoopJoin",
        ),
        // Keyless anti join: all of the left side or none of it.
        17 => plain(
            format!(
                "SELECT id FROM crm.customers WHERE ({pred}) AND NOT EXISTS \
                 (SELECT 1 FROM sales.orders WHERE total >= {}.0)",
                k.rem_euclid(7)
            ),
            "NestedLoopJoin",
        ),
        // A one-row probe side against the whole orders table: a bind join.
        18 => plain(
            format!(
                "SELECT c.name, o.order_id, o.total FROM crm.customers c \
                 JOIN sales.orders o ON c.id = o.customer_id WHERE c.id = {}",
                k.rem_euclid(60)
            ),
            "BindJoin",
        ),
        // Self-joins on the nullable key: NULL sits on both sides and must
        // still never join — inner drops it, anti keeps it.
        19 => plain(
            "SELECT a.order_id, b.order_id AS other FROM sales.orders a \
             JOIN sales.orders b ON a.customer_id = b.customer_id AND a.total < b.total"
                .into(),
            "HashJoin[INNER",
        ),
        20 => plain(
            format!(
                "SELECT order_id FROM sales.orders WHERE customer_id NOT IN \
                 (SELECT customer_id FROM sales.orders WHERE total >= {}.0)",
                k.rem_euclid(6)
            ),
            "HashJoin[ANTI",
        ),
        // A limit that bounds the sort under it: through a computed
        // projection, and through the alias of a FROM-subquery that sorts.
        21 => Statement {
            sql: format!(
                "SELECT order_id, total * 2 + 1 AS t2 FROM sales.orders \
                 ORDER BY total DESC, order_id LIMIT {}",
                k.rem_euclid(12)
            ),
            order: RowOrder::Total,
            limit: None,
            exercises: "Limit",
        },
        22 => Statement {
            sql: format!(
                "SELECT s.order_id, s.t2 FROM (SELECT order_id, total - 1 AS t2 FROM sales.orders \
                 ORDER BY customer_id, total DESC, order_id) s LIMIT {}",
                k.rem_euclid(12)
            ),
            order: RowOrder::Total,
            limit: None,
            exercises: "Rename",
        },
        // What is read above a join is all the join copies: nothing at all
        // (rows are still counted), build-side columns only under a LEFT JOIN
        // (the null-extended ones), a strict subset through WHERE, ORDER BY
        // and LIMIT — and under DISTINCT or UNION ALL, which read every
        // column they are given, exactly the projection's.
        23 => plain(
            "SELECT COUNT(*) AS n FROM crm.customers c JOIN sales.orders o ON c.id = o.customer_id"
                .into(),
            "Aggregate",
        ),
        24 => plain(
            "SELECT COUNT(o.order_id) AS n, SUM(o.total) AS s, MIN(o.total) AS lo \
             FROM crm.customers c LEFT JOIN sales.orders o ON c.id = o.customer_id"
                .into(),
            "LEFT JOIN",
        ),
        25 => Statement {
            sql: format!(
                "SELECT c.name, o.total FROM crm.customers c \
                 JOIN sales.orders o ON c.id = o.customer_id \
                 WHERE c.score + o.total > {}.0 ORDER BY o.total DESC, c.name LIMIT {}",
                k.rem_euclid(4),
                k.rem_euclid(12)
            ),
            order: RowOrder::Total,
            limit: None,
            exercises: "Limit",
        },
        26 => plain(
            "SELECT DISTINCT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id"
                .into(),
            "Distinct",
        ),
        27 => plain(
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.id = o.customer_id \
             UNION ALL SELECT c.name, o.total FROM crm.customers c \
             LEFT JOIN sales.orders o ON c.id = o.customer_id AND o.total > 2.0"
                .into(),
            "UnionAll",
        ),
        // The view scan with a compensating filter and a limit.
        _ => Statement {
            sql: format!("SELECT id, name, score FROM crm.customers WHERE {pred}"),
            order: RowOrder::None,
            limit: Some(k.rem_euclid(8) as usize),
            exercises: "MatViewScan",
        },
    }
}

fn sorted(rows: &[Row]) -> Vec<Row> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

fn project(rows: &[Row], cols: &[usize]) -> Vec<Row> {
    rows.iter().map(|r| r.project(cols)).collect()
}

fn shape_of(schema: &Schema) -> Vec<(String, DataType)> {
    schema
        .fields()
        .iter()
        .map(|f| (f.name.clone(), f.data_type))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Engine ≡ reference: rows, schema, and the degraded flags.
    #[test]
    fn engine_equals_reference_evaluator(
        customers in customers(),
        orders in orders(),
        pred in predicates(),
        shape in 0usize..SHAPES + 1,
        k in 0i64..1000,
        degrade in any::<bool>(),
    ) {
        let stmt = statement(shape, &pred, k);
        let world = stmt.world(&customers, &orders, degrade, PlannerConfig::optimized());
        let (ref_schema, expect) = world.reference(&stmt.sql);
        let sql = match stmt.limit {
            Some(n) => format!("{} LIMIT {n}", stmt.sql),
            None => stmt.sql.clone(),
        };
        let out = world.sys.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let got = out.query_result().unwrap();
        let rows = got.batch.rows();

        prop_assert_eq!(shape_of(got.batch.schema()), shape_of(&ref_schema), "{}", sql);
        match stmt.limit {
            None => prop_assert_eq!(sorted(rows), sorted(&expect), "{}", sql),
            Some(n) => {
                prop_assert_eq!(rows.len(), n.min(expect.len()), "{}", sql);
                let mut pool = expect.clone();
                for row in rows {
                    let at = pool.iter().position(|r| r == row);
                    prop_assert!(at.is_some(), "{}: {:?} is not in the unlimited answer", sql, row);
                    pool.swap_remove(at.unwrap());
                }
            }
        }
        match stmt.order {
            RowOrder::None => {}
            RowOrder::Keys(cols) => {
                prop_assert_eq!(project(rows, cols), project(&expect, cols), "{}", sql)
            }
            RowOrder::Total => prop_assert_eq!(rows, &expect[..], "{}", sql),
        }

        // Only the dead source is ever flagged, always as the snapshot's age;
        // a statement that must read it cannot come back unflagged.
        for d in &got.degraded {
            prop_assert_eq!((d.source.as_str(), d.stale_ms), ("sales", Some(1_000)), "{}", sql);
        }
        prop_assert!(degrade || got.fully_live());
        if degrade && matches!(shape, 4 | 6 | 9 | 11 | 15 | 19 | 20 | 21 | 22) {
            prop_assert!(!got.fully_live(), "{}", sql);
        }
    }

    /// Chunking invariance: the chunk size is a cancellation granularity,
    /// never an answer. The same statement at 1, 2 and 4096 rows per chunk
    /// returns the same rows in the same order at the same simulated cost.
    #[test]
    fn chunk_size_changes_nothing(
        customers in customers(),
        orders in orders(),
        pred in predicates(),
        shape in 0usize..SHAPES + 1,
        k in 0i64..1000,
        degrade in any::<bool>(),
    ) {
        let stmt = statement(shape, &pred, k);
        let sql = match stmt.limit {
            Some(n) => format!("{} LIMIT {n}", stmt.sql),
            None => stmt.sql.clone(),
        };
        let run = |batch_size: usize| {
            let config = PlannerConfig { batch_size, ..PlannerConfig::optimized() };
            let world = stmt.world(&customers, &orders, degrade, config);
            let out = world.sys.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let r = out.query_result().unwrap();
            (r.batch.clone(), r.cost)
        };
        let whole = run(4096);
        for batch_size in [1, 2] {
            prop_assert_eq!(&run(batch_size), &whole, "{} at {} rows per chunk", sql, batch_size);
        }
    }
}

/// Every shape reaches the operator it is there for (so the properties above
/// cover it), on a world big enough for the cost model to care.
#[test]
fn shapes_exercise_their_operators() {
    let customers: Vec<Customer> = (0..30).map(|i| (i, format!("n{}", i % 3), i % 5 - 2)).collect();
    let orders: Vec<Order> = (0..45).map(|i| ((i % 4 != 0).then_some(i % 30), i % 6)).collect();
    for shape in 0..=SHAPES {
        let stmt = statement(shape, "score >= 0", 7);
        let world = stmt.world(&customers, &orders, false, PlannerConfig::optimized());
        let sql = match stmt.limit {
            Some(n) => format!("{} LIMIT {n}", stmt.sql),
            None => stmt.sql.clone(),
        };
        let out = world.sys.execute(&format!("EXPLAIN {sql}")).unwrap();
        let plan = out.explained().unwrap();
        assert!(plan.contains(stmt.exercises), "shape {shape} ({sql}):\n{plan}");
        if shape == SHAPES {
            assert!(plan.contains("compensate=[") && plan.contains("limit="), "{plan}");
        }
        // The three ORDER BY … LIMIT shapes run their Sort bounded — directly
        // under the Limit, through a computed projection, through a subquery's
        // alias — and only EXPLAIN ANALYZE, which ran it, says so.
        if matches!(shape, 9 | 21 | 22) {
            assert!(!plan.contains("[TOP"), "{plan}");
            let out = world.sys.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            let ran = out.explained().unwrap();
            let sort = ran.lines().find(|l| l.trim_start().starts_with("Sort")).unwrap();
            assert!(sort.ends_with("[TOP 7]"), "shape {shape}:\n{ran}");
        }
        // Likewise for a join that was asked for fewer columns than it has —
        // nested-loop, a bind join's hub half, hash; none at all for COUNT(*).
        let emitted = match shape {
            15 => Some(("NestedLoopJoin", "[COLS 2/4]")),
            18 => Some(("BindJoin", "[COLS 3/5]")),
            23 => Some(("HashJoin", "[COLS 0/2]")),
            24 => Some(("HashJoin", "[COLS 2/4]")),
            25 => Some(("HashJoin", "[COLS 2/5]")),
            _ => None,
        };
        if let Some((join, mark)) = emitted {
            assert!(!plan.contains("[COLS"), "{plan}");
            let out = world.sys.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            let ran = out.explained().unwrap();
            let line = ran.lines().find(|l| l.trim_start().starts_with(join)).unwrap();
            assert!(line.ends_with(mark), "shape {shape}:\n{ran}");
        }
    }
}

/// `eiibench`'s H1 in small: a fact table behind a dialect that evaluates no
/// filter, a dimension with ten rows per key, neither source taking key
/// batches — so the join, its cross-table residual and the aggregate all run
/// at the hub.
fn hub_world() -> Arc<EiiSystem> {
    use eii::federation::{Dialect, SourceCapabilities};
    let clock = SimClock::new();
    let table = |db: &Database, name: &str, cols: &[(&str, DataType)]| {
        let fields = cols.iter().map(|(n, t)| Field::new(*n, *t).not_null()).collect();
        db.create_table(TableDef::new(name, Arc::new(Schema::new(fields)))).unwrap()
    };
    let ops = Database::new("ops", clock.clone());
    let int = DataType::Int;
    let fact = table(&ops, "fact", &[("fk", int), ("grp", int), ("a", int), ("b", DataType::Float)]);
    for i in 0..600i64 {
        fact.write().insert(row![i * 7 % 40, i % 32, i * 13 % 1000, (i % 50) as f64 * 0.5]).unwrap();
    }
    let refd = Database::new("refd", clock.clone());
    let dim = table(&refd, "dim", &[("dk", int), ("w", int)]);
    for i in 0..400i64 {
        dim.write().insert(row![i * 3 % 40, i % 100]).unwrap();
    }
    let no_bindings = SourceCapabilities { bindings: false, ..SourceCapabilities::relational() };
    let ops = RelationalConnector::new(ops)
        .with_dialect(Dialect::legacy_minimal())
        .with_capabilities(no_bindings.clone());
    let refd = RelationalConnector::new(refd).with_capabilities(no_bindings);
    EiiSystem::builder(clock)
        .planner_config(PlannerConfig::optimized())
        .source(Arc::new(ops), LinkProfile::lan(), WireFormat::Native)
        .source(Arc::new(refd), LinkProfile::lan(), WireFormat::Native)
        .build()
        .unwrap()
}

/// The aggregate above H1's join reads `grp`, `a`, `b` and `w`; the join keys
/// are dead once the pairs are found. `EXPLAIN ANALYZE`, which ran it, says
/// the join emitted four of its six columns; `EXPLAIN`, which did not, says
/// what it always said.
#[test]
fn h1_reads_four_of_the_joins_six_columns() {
    let h1 = "SELECT f.grp, COUNT(*) AS n, SUM(f.a + d.w) AS s1, SUM(f.b) AS s2, \
              MIN(f.a * d.w % 1000) AS lo, MAX(f.a - 500 + d.w) AS hi \
              FROM ops.fact f JOIN refd.dim d ON f.fk = d.dk \
              WHERE f.grp <= 27 AND f.a <= 799 AND f.b >= 10.0 AND f.a + d.w > 50 \
              GROUP BY f.grp";
    let sys = hub_world();
    let plan = sys.execute(&format!("EXPLAIN {h1}")).unwrap();
    assert!(!plan.explained().unwrap().contains("[COLS"), "{}", plan.explained().unwrap());
    let ran = sys.execute(&format!("EXPLAIN ANALYZE {h1}")).unwrap();
    let ran = ran.explained().unwrap();
    println!("{ran}");
    let join = ran.lines().find(|l| l.trim_start().starts_with("HashJoin")).unwrap();
    assert!(join.ends_with("[COLS 4/6]"), "{ran}");
    assert_eq!(ran.matches("[COLS").count(), 1, "only the join is marked:\n{ran}");
    assert_eq!(sys.metrics().snapshot().counter("exec.join.columns_skipped"), 2);
}
