//! SQL text → plan memo: a statement planned once is not planned again.
//!
//! An entry is valid exactly while everything planning read is unchanged, and
//! carries what that was — its [`Stamp`] — so nothing that *changes* a planner
//! input has to know the memo exists:
//!
//! | planning reads | guarded by |
//! |---|---|
//! | view definitions | [`Catalog::generation`] |
//! | a source's link, connector, capabilities, dialect | [`Federation::generation`] |
//! | a base table's schema | the `SchemaRef` the plan's scan was built from: the source's is the same `Arc`, or equal |
//! | a base table's statistics | the `Arc<TableStats>` the source handed out: likewise |
//!
//! Not in the stamp: `PlannerConfig` (fixed when the system is built;
//! [`crate::EiiSystem::with_config`] empties the memo) and
//! `CardinalityFeedback` (read by the executor's re-plan, never the planner).
//! View servability depends on the clock and the view store, which no stamp
//! covers: a physical plan is kept only if planned with no view to offer,
//! and used only while there is none. Each part of a stamp is read before the
//! planning step that reads the same thing, and an entry is kept only if its
//! stamp still holds afterwards: a write racing the planner leaves no entry.
//! The lock is a leaf: held for one map operation, never while planning or
//! validating.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use eii_catalog::Catalog;
use eii_data::SchemaRef;
use eii_federation::Federation;
use eii_planner::{LogicalPlan, PhysicalPlan};
use eii_storage::TableStats;

/// Entries held before the insert of a new text empties the memo.
const CAP: usize = 256;

/// One statement text, planned.
pub(crate) struct Planned {
    /// The text, trimmed: the memo's key and the query log's `sql`.
    pub sql: Arc<str>,
    /// The normalized (optimized) logical plan.
    pub optimized: LogicalPlan,
    /// Its rendering: the result-cache key and the query log's `plan`.
    pub key: Arc<str>,
    /// `fingerprint64(key)`.
    pub fingerprint: u64,
    /// Its base tables: result-cache version probes, scheduler permits.
    pub tables: Vec<String>,
    pub stamp: Stamp,
    /// The physical plan, once one was made with no view to offer.
    pub physical: OnceLock<Arc<PhysicalPlan>>,
}

/// Everything planning read (module docs).
pub(crate) struct Stamp {
    federation: u64,
    catalog: u64,
    tables: Vec<TableRead>,
}

struct TableRead {
    source: String,
    table: String,
    schema: SchemaRef,
    stats: Option<Arc<TableStats>>,
}

impl Stamp {
    /// The generations, read before planning starts.
    pub fn begin(federation: &Federation, catalog: &Catalog) -> Self {
        Stamp {
            federation: federation.generation(),
            catalog: catalog.generation(),
            tables: Vec::new(),
        }
    }

    /// Add the *built* plan's tables, before `optimize` reads their statistics.
    pub fn read_tables(&mut self, plan: &LogicalPlan, federation: &Federation) {
        if let LogicalPlan::SourceScan { source, table, base_schema, .. } = plan {
            if !self.tables.iter().any(|t| t.source == *source && t.table == *table) {
                self.tables.push(TableRead {
                    source: source.clone(),
                    table: table.clone(),
                    schema: base_schema.clone(),
                    stats: federation.table_stats(&format!("{source}.{table}")).ok(),
                });
            }
        }
        for child in plan.children() {
            self.read_tables(child, federation);
        }
    }

    /// Would planning read today what it read then?
    pub fn holds(&self, federation: &Federation, catalog: &Catalog) -> bool {
        self.federation == federation.generation()
            && self.catalog == catalog.generation()
            && self.tables.iter().all(|t| {
                let Ok(handle) = federation.source(&t.source) else {
                    return false;
                };
                let connector = handle.connector();
                connector.table_schema(&t.table).is_ok_and(|s| same(&s, &t.schema))
                    && match (connector.statistics(&t.table).ok(), &t.stats) {
                        (Some(now), Some(then)) => same(&now, then),
                        (now, then) => now.is_none() && then.is_none(),
                    }
            })
    }
}

/// The same allocation (one per data version on most sources) or an equal value.
fn same<T: PartialEq>(a: &Arc<T>, b: &Arc<T>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// How a lookup ended, as the counter it bumps: entry found and stamp holds;
/// found, stamp failed (planned again, entry replaced); no entry. The last
/// segment is the `plan` span's `memo=`.
pub(crate) const HIT: &str = "plan.memo.hit";
pub(crate) const STALE: &str = "plan.memo.stale";
pub(crate) const MISS: &str = "plan.memo.miss";

/// Statement text → [`Planned`], at most [`CAP`] of them.
#[derive(Default)]
pub(crate) struct PlanMemo {
    entries: RwLock<HashMap<Arc<str>, Arc<Planned>>>,
}

impl PlanMemo {
    pub fn get(&self, sql: &str) -> Option<Arc<Planned>> {
        self.entries.read().get(sql.trim()).cloned()
    }

    pub fn insert(&self, planned: &Arc<Planned>) {
        let mut entries = self.entries.write();
        if entries.len() >= CAP && !entries.contains_key(&planned.sql) {
            entries.clear();
        }
        entries.insert(planned.sql.clone(), Arc::clone(planned));
    }

    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::CAP;
    use crate::prelude::*;
    use eii_data::row;
    use eii_federation::UpdateOp;
    use std::sync::Arc;

    const JOIN: &str = "SELECT c.name, o.total FROM crm.customers c \
                        JOIN sales.orders o ON c.id = o.customer_id";

    /// `crm.customers` (3 rows, LAN) and `sales.orders` (2 rows, WAN).
    fn system() -> (EiiSystem, Database) {
        let clock = SimClock::new();
        let crm = Database::new("crm", clock.clone());
        let customers = Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
        ]);
        let t = crm
            .create_table(TableDef::new("customers", Arc::new(customers)).with_primary_key(0))
            .unwrap();
        for (id, name) in [(1i64, "alice"), (2, "bob"), (3, "carol")] {
            t.write().insert(row![id, name]).unwrap();
        }
        let sales = Database::new("sales", clock.clone());
        let orders = Schema::new(vec![
            Field::new("order_id", DataType::Int).not_null(),
            Field::new("customer_id", DataType::Int),
            Field::new("total", DataType::Float),
        ]);
        let t = sales
            .create_table(TableDef::new("orders", Arc::new(orders)).with_primary_key(0))
            .unwrap();
        for (id, customer) in [(10i64, 1i64), (11, 2)] {
            t.write().insert(row![id, customer, 5.0]).unwrap();
        }
        let sys = EiiSystem::new(clock);
        for (db, link) in [(crm.clone(), LinkProfile::lan()), (sales, LinkProfile::wan())] {
            sys.add_source(Arc::new(RelationalConnector::new(db)), link, WireFormat::Native)
                .unwrap();
        }
        (sys, crm)
    }

    /// `plan.memo.{hit, stale, miss}`.
    fn counts(sys: &EiiSystem) -> [u64; 3] {
        let snap = sys.metrics().snapshot();
        ["plan.memo.hit", "plan.memo.stale", "plan.memo.miss"].map(|name| snap.counter(name))
    }

    /// Run `sql`; the normalized plan text the statement ran under.
    fn plan_of(sys: &EiiSystem, sql: &str) -> String {
        sys.execute(sql).unwrap();
        sys.query_log().last().unwrap().plan.to_string()
    }

    #[test]
    fn a_repeated_statement_is_planned_once_and_not_parsed_again() {
        let (sys, _) = system();
        let (first, trace) = sys.execute_with(JOIN, &ExecOptions::default());
        assert!(trace.find("parse").is_some());
        let plan = trace.find("plan").unwrap();
        assert_eq!(plan.annotations, [("memo".to_string(), "miss".to_string())]);
        let (again, trace) = sys.execute_with(JOIN, &ExecOptions::default());
        assert!(trace.find("parse").is_none(), "{}", trace.render());
        let plan = trace.find("plan").unwrap();
        assert_eq!(plan.annotations, [("memo".to_string(), "hit".to_string())]);
        assert_eq!(first.unwrap().rows().unwrap(), again.unwrap().rows().unwrap());
        assert_eq!(counts(&sys), [1, 0, 1]);
        // Never memoized, so never a miss: DDL, EXPLAIN, a statement that
        // does not parse.
        sys.execute("CREATE VIEW v AS SELECT id FROM crm.customers").unwrap();
        sys.execute(&format!("EXPLAIN {JOIN}")).unwrap();
        sys.execute(&format!("EXPLAIN ANALYZE {JOIN}")).unwrap();
        sys.execute("SELEKT 1").unwrap_err();
        assert_eq!(counts(&sys), [1, 0, 1]);
    }

    #[test]
    fn a_write_that_flips_the_smaller_join_side_makes_the_entry_stale() {
        let (sys, _) = system();
        let before = plan_of(&sys, JOIN);
        assert_eq!(plan_of(&sys, JOIN), before);
        let orders = sys.federation().source("sales").unwrap();
        for i in 0..40i64 {
            let row = row![100 + i, 1 + i % 3, 7.0];
            orders.update(&UpdateOp::Insert { table: "orders".into(), row }).unwrap();
        }
        let after = plan_of(&sys, JOIN);
        assert_eq!(counts(&sys), [1, 1, 1]);
        let first_scan = |plan: &str| plan.lines().find(|l| l.contains("Scan ")).unwrap().to_string();
        assert!(first_scan(&before).contains("sales.orders"), "{before}");
        assert!(first_scan(&after).contains("crm.customers"), "{after}");
        // The new entry is valid under the new statistics.
        assert_eq!(plan_of(&sys, JOIN), after);
        assert_eq!(counts(&sys), [2, 1, 1]);
    }

    #[test]
    fn a_write_burst_that_is_undone_leaves_the_entry_valid() {
        let (sys, _) = system();
        let before = plan_of(&sys, JOIN);
        let orders = sys.federation().source("sales").unwrap();
        let table = || "orders".to_string();
        let total = |v: f64| UpdateOp::UpdateByKey {
            table: table(),
            key: Value::Int(10),
            assignments: vec![("total".into(), Value::Float(v))],
        };
        let then = orders.connector().statistics("orders").unwrap();
        for op in [
            total(9.0),
            total(5.0),
            UpdateOp::Insert { table: table(), row: row![99i64, 3i64, 1.0] },
            UpdateOp::DeleteByKey { table: table(), key: Value::Int(99) },
        ] {
            orders.update(&op).unwrap();
        }
        // Another snapshot of the statistics, equal to the stamp's by value.
        let now = orders.connector().statistics("orders").unwrap();
        assert!(!Arc::ptr_eq(&then, &now) && then == now);
        assert_eq!(plan_of(&sys, JOIN), before);
        assert_eq!(counts(&sys), [1, 0, 1]);
    }

    #[test]
    fn a_write_burst_costs_each_statement_text_one_stale_lookup() {
        let (sys, _) = system();
        let texts = [JOIN, "SELECT total FROM sales.orders WHERE customer_id = 2"];
        let run = || texts.iter().for_each(|sql| drop(sys.execute(sql).unwrap()));
        run();
        assert_eq!(counts(&sys), [0, 0, 2]);
        let orders = sys.federation().source("sales").unwrap();
        for id in 20..23i64 {
            let row = row![id, 2i64, 1.0];
            orders.update(&UpdateOp::Insert { table: "orders".into(), row }).unwrap();
        }
        run();
        assert_eq!(counts(&sys), [0, 2, 2], "`row_count` moved: one stale lookup per text");
        run();
        assert_eq!(counts(&sys), [2, 2, 2], "and the entries planned under it hold");
    }

    #[test]
    fn reconfiguring_a_source_makes_the_entry_stale() {
        let (sys, _) = system();
        let before = plan_of(&sys, JOIN);
        sys.federation().set_scan_speed("crm", 0.5).unwrap();
        // Nothing the planner reads moved (the executor reads the scan
        // speed), so the plan made again is the plan that was dropped.
        assert_eq!(plan_of(&sys, JOIN), before);
        assert_eq!(counts(&sys), [0, 1, 1]);
        sys.federation().set_wire_format("sales", WireFormat::Xml).unwrap();
        assert_eq!(plan_of(&sys, JOIN), before);
        assert_eq!(counts(&sys), [0, 2, 1]);
    }

    #[test]
    fn view_ddl_makes_the_entry_stale() {
        let (sys, _) = system();
        sys.execute("CREATE VIEW big AS SELECT id, name FROM crm.customers WHERE id >= 2").unwrap();
        let q = "SELECT name FROM big";
        let before = plan_of(&sys, q);
        assert!(before.contains("(id >= 2)"), "{before}");
        let body = "SELECT id, name FROM crm.customers WHERE id >= 3";
        let eii_sql::Statement::Query(parsed) = eii_sql::parse_statement(body).unwrap() else {
            unreachable!()
        };
        sys.catalog().replace_view("big", body, parsed).unwrap();
        let after = plan_of(&sys, q);
        assert!(after.contains("(id >= 3)"), "{after}");
        assert_eq!(counts(&sys), [0, 1, 1]);
        assert_eq!(sys.execute(q).unwrap().rows().unwrap().num_rows(), 1);
        sys.catalog().drop_view("big");
        assert_eq!(sys.execute(q).unwrap_err().kind(), "not_found");
        assert_eq!(counts(&sys), [1, 2, 1]);
    }

    #[test]
    fn a_table_recreated_under_another_schema_makes_the_entry_stale() {
        let (sys, crm) = system();
        let define = |column: &str| {
            let schema = Schema::new(vec![Field::new(column, DataType::Int)]);
            crm.create_table(TableDef::new("t", Arc::new(schema))).unwrap();
        };
        define("a");
        let q = "SELECT * FROM crm.t";
        let columns = |sys: &EiiSystem| {
            let out = sys.execute(q).unwrap();
            out.rows().unwrap().schema().fields().iter().map(|f| f.name.clone()).collect::<Vec<_>>()
        };
        assert_eq!(columns(&sys), ["a"]);
        // Both tables are empty: their statistics are equal by value, and
        // only the schema says the plan is no longer the planner's.
        assert!(crm.drop_table("t"));
        define("b");
        assert_eq!(columns(&sys), ["b"]);
        assert_eq!(counts(&sys), [0, 1, 1]);
    }

    #[test]
    fn the_memo_is_bounded_and_a_failed_plan_is_not_kept() {
        let (sys, _) = system();
        for i in 0..=CAP {
            sys.execute(&format!("SELECT name FROM crm.customers WHERE id = {i}")).unwrap();
            assert!(sys.memo.entries.read().len() <= CAP);
        }
        assert_eq!(sys.memo.entries.read().len(), 1, "a full memo is emptied, then refilled");
        assert_eq!(counts(&sys), [0, 0, CAP as u64 + 1]);

        let q = "SELECT k FROM late.t";
        assert_eq!(sys.execute(q).unwrap_err().kind(), "not_found");
        assert!(sys.memo.get(q).is_none());
        let late = Database::new("late", sys.clock().clone());
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        late.create_table(TableDef::new("t", Arc::new(schema))).unwrap();
        sys.add_source(Arc::new(RelationalConnector::new(late)), LinkProfile::lan(), WireFormat::Native)
            .unwrap();
        assert_eq!(sys.execute(q).unwrap().rows().unwrap().num_rows(), 0);
        assert!(sys.memo.get(q).is_some());
    }

    #[test]
    fn a_scheduled_statement_is_planned_once() {
        let (sys, _) = system();
        let sys = Arc::new(sys);
        let scheduler = sys.scheduler(AdmissionConfig::with_workers(1));
        let rows = scheduler.submit(JOIN, "public").join().unwrap().into_query_result().unwrap();
        assert_eq!(rows.batch.num_rows(), 2);
        scheduler.finish();
        // Permit accounting planned it; the worker ran the entry.
        assert_eq!(counts(&sys), [1, 0, 1]);
        assert!(sys.predict(JOIN).unwrap().rows > 0.0);
        assert_eq!(counts(&sys), [2, 0, 1]);
    }

    #[test]
    fn a_physical_plan_is_kept_only_while_no_view_is_servable() {
        let (sys, _) = system();
        let q = "SELECT order_id, total FROM sales.orders";
        sys.execute(q).unwrap();
        let entry = sys.memo.get(q).unwrap();
        let kept = Arc::clone(entry.physical.get().expect("planned with no view to offer"));
        sys.define_matview("all_orders", q, RefreshPolicy::Manual).unwrap();
        let shipped = sys.federation().ledger().total().bytes;
        sys.execute(q).unwrap();
        assert_eq!(sys.federation().ledger().total().bytes, shipped, "answered by the view");
        assert_eq!(counts(&sys), [1, 0, 1], "the normalized plan was still a hit");
        assert!(Arc::ptr_eq(&kept, sys.memo.get(q).unwrap().physical.get().unwrap()));
        // Planned beside a servable view, a physical plan is not kept.
        let other = "SELECT total FROM sales.orders";
        sys.execute(other).unwrap();
        assert!(sys.memo.get(other).unwrap().physical.get().is_none());
    }
}
