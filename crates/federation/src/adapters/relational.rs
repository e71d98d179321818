//! Adapter for relational sources backed by [`eii_storage::Database`].
//!
//! This is the workhorse wrapper: it pushes the dialect-supported subset of
//! filters into the source engine, honors projections, limits and bind-join
//! batches (probed against the bound column's key index) — reading the table
//! by reference into the columns that ship — and routes EAI updates.

use std::sync::Arc;

use eii_data::{EiiError, Result, SchemaRef};
use eii_storage::{Database, TableStats};

use crate::adapters::answer_from_table;
use crate::capability::SourceCapabilities;
use crate::connector::{Connector, SourceAnswer, SourceQuery, UpdateOp, UpdateResult};
use crate::dialect::Dialect;

/// A wrapped relational database.
pub struct RelationalConnector {
    db: Database,
    dialect: Dialect,
    capabilities: SourceCapabilities,
}

impl RelationalConnector {
    /// Wrap `db` with a full ANSI dialect.
    pub fn new(db: Database) -> Self {
        RelationalConnector {
            db,
            dialect: Dialect::ansi_full(),
            capabilities: SourceCapabilities::relational(),
        }
    }

    /// Wrap with a specific vendor dialect (the fine-grained modeling of
    /// Draper §5 — or a deliberately degraded one for experiment E11).
    pub fn with_dialect(mut self, dialect: Dialect) -> Self {
        self.dialect = dialect;
        self
    }

    /// Override capabilities (e.g. mark the source non-queryable to model
    /// an administrator who refuses external queries).
    pub fn with_capabilities(mut self, caps: SourceCapabilities) -> Self {
        self.capabilities = caps;
        self
    }

    /// Access to the underlying database (for seeding and for the ETL
    /// extract path, which reads change logs directly).
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl Connector for RelationalConnector {
    fn name(&self) -> &str {
        self.db.name()
    }

    fn tables(&self) -> Vec<String> {
        self.db.table_names()
    }

    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        Ok(self.db.table(table)?.read().schema().clone())
    }

    fn capabilities(&self) -> SourceCapabilities {
        self.capabilities.clone()
    }

    fn dialect(&self) -> Dialect {
        self.dialect.clone()
    }

    fn statistics(&self, table: &str) -> Result<Arc<TableStats>> {
        Ok(self.db.table(table)?.read().stats())
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        if !self.capabilities.queryable {
            return Err(EiiError::Source(format!(
                "source {} refuses external queries",
                self.name()
            )));
        }
        // Defensive dialect check: the planner should never push an
        // unsupported predicate, but a remote engine would reject it, so we
        // do too.
        for f in &query.filters {
            if !self.dialect.supports(f) {
                return Err(EiiError::Source(format!(
                    "source {} dialect '{}' rejects predicate {f}",
                    self.name(),
                    self.dialect.name
                )));
            }
        }
        // A single equality binding is resolved by the table; anything else
        // reads the table and filters here.
        match query.bindings.as_slice() {
            [only] => answer_from_table(&self.db, query, Some(only), &[]),
            all => answer_from_table(&self.db, query, None, all),
        }
    }

    fn changes_since(
        &self,
        table: &str,
        after_seq: u64,
    ) -> Result<(Vec<eii_storage::Change>, u64)> {
        let handle = self.db.table(table)?;
        let t = handle.read();
        let log = t.changelog();
        Ok((log.since(after_seq).to_vec(), log.high_watermark()))
    }

    fn update(&self, op: &UpdateOp) -> Result<UpdateResult> {
        if !self.capabilities.updatable {
            return Err(EiiError::Source(format!(
                "source {} is read-only",
                self.name()
            )));
        }
        let handle = self.db.table(op.table())?;
        let mut t = handle.write();
        match op {
            UpdateOp::Insert { row, .. } => {
                t.insert(row.clone())?;
                Ok(UpdateResult { affected: 1 })
            }
            UpdateOp::UpdateByKey {
                key, assignments, ..
            } => {
                let schema = t.schema().clone();
                let resolved = assignments
                    .iter()
                    .map(|(col, v)| Ok((schema.index_of(None, col)?, v.clone())))
                    .collect::<Result<Vec<_>>>()?;
                let hit = t.update_by_pk(key, &resolved)?;
                Ok(UpdateResult {
                    affected: usize::from(hit),
                })
            }
            UpdateOp::DeleteByKey { key, .. } => {
                let hit = t.delete_by_pk(key);
                Ok(UpdateResult {
                    affected: usize::from(hit),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::tests::binding;
    use crate::connector::Binding;
    use eii_data::{row, DataType, Field, Schema, SimClock, Value};
    use eii_expr::Expr;
    use eii_storage::TableDef;
    use std::sync::Arc;

    fn setup() -> RelationalConnector {
        let db = Database::new("crm", SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("region", DataType::Str),
        ]));
        let t = db
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        {
            let mut t = t.write();
            t.insert(row![1i64, "alice", "west"]).unwrap();
            t.insert(row![2i64, "bob", "east"]).unwrap();
            t.insert(row![3i64, "carol", "west"]).unwrap();
        }
        RelationalConnector::new(db)
    }

    #[test]
    fn pushes_filters_and_projection() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            projection: Some(vec!["name".into()]),
            filters: vec![Expr::col("region").eq(Expr::lit("west"))],
            bindings: vec![],
            limit: None,
        };
        let ans = c.execute(&q).unwrap();
        assert_eq!(ans.batch.num_rows(), 2);
        assert_eq!(ans.batch.schema().len(), 1);
        assert_eq!(ans.rows_scanned, 3, "no index help: full scan");
    }

    #[test]
    fn binding_lookup_uses_pk_index() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            projection: None,
            filters: vec![],
            bindings: vec![binding("id", &[Value::Int(1), Value::Int(3)])],
            limit: None,
        };
        let ans = c.execute(&q).unwrap();
        assert_eq!(ans.batch.num_rows(), 2);
        assert_eq!(ans.rows_scanned, 2, "point lookups, not a scan");
    }

    #[test]
    fn dialect_rejection_is_defensive() {
        let c = setup().with_dialect(Dialect::lowest_common_denominator());
        let q = SourceQuery {
            table: "customers".into(),
            projection: None,
            filters: vec![Expr::col("id").lt(Expr::lit(2i64))],
            bindings: vec![],
            limit: None,
        };
        assert_eq!(c.execute(&q).unwrap_err().kind(), "source");
    }

    #[test]
    fn non_queryable_source_refuses() {
        let mut caps = SourceCapabilities::relational();
        caps.queryable = false;
        let c = setup().with_capabilities(caps);
        let err = c.execute(&SourceQuery::full_table("customers")).unwrap_err();
        assert_eq!(err.kind(), "source");
    }

    #[test]
    fn updates_route_to_storage() {
        let c = setup();
        c.update(&UpdateOp::Insert {
            table: "customers".into(),
            row: row![4i64, "dave", "north"],
        })
        .unwrap();
        let r = c
            .update(&UpdateOp::UpdateByKey {
                table: "customers".into(),
                key: Value::Int(4),
                assignments: vec![("region".into(), Value::str("south"))],
            })
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = c
            .update(&UpdateOp::DeleteByKey {
                table: "customers".into(),
                key: Value::Int(4),
            })
            .unwrap();
        assert_eq!(r.affected, 1);
        // Missing key affects zero rows.
        let r = c
            .update(&UpdateOp::DeleteByKey {
                table: "customers".into(),
                key: Value::Int(99),
            })
            .unwrap();
        assert_eq!(r.affected, 0);
    }

    #[test]
    fn limit_is_honored() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            projection: None,
            filters: vec![],
            bindings: vec![],
            limit: Some(2),
        };
        assert_eq!(c.execute(&q).unwrap().batch.num_rows(), 2);
    }

    #[test]
    fn statistics_reflect_table() {
        let c = setup();
        let s = c.statistics("customers").unwrap();
        assert_eq!(s.row_count, 3);
        assert_eq!(s.columns[2].ndv, 2);
    }

    #[test]
    fn statistics_need_no_write_lock() {
        let c = setup();
        let handle = c.database().table("customers").unwrap();
        let reader = handle.read();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(c.statistics("customers").map(|s| s.row_count)));
            // A planner asking for statistics must not queue behind (or
            // ahead of) the queries reading the table.
            let got = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(reader);
            assert_eq!(
                got,
                Ok(Ok(3)),
                "statistics() blocked on a read-locked table"
            );
        });
    }

    #[test]
    fn a_binding_is_resolved_by_the_table_and_charged_its_matches_only() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            bindings: vec![binding(
                "region",
                &[Value::str("east"), Value::str("west"), Value::str("east")],
            )],
            ..SourceQuery::default()
        };
        let ans = c.execute(&q).unwrap();
        let rows = ans.batch.to_batch().into_rows();
        let names: Vec<&str> = rows.iter().filter_map(|r| r.get(1).as_str()).collect();
        assert_eq!(names, ["bob", "alice", "carol", "bob"]);
        assert_eq!(ans.rows_scanned, 4, "priced per matched row");
        assert!(ans.bind_access);
        assert_eq!(ans.indexes_built, 1, "the first bound read builds the column's key index");
        let ans = c.execute(&q).unwrap();
        assert_eq!((ans.rows_scanned, ans.indexes_built), (4, 0), "a warm read costs the same");
    }

    #[test]
    fn bound_query_cost_grows_with_matches_not_with_keys_times_rows() {
        let db = Database::new("sales", SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("product_id", DataType::Int),
        ]));
        let t = db
            .create_table(TableDef::new("lineitems", schema).with_primary_key(0))
            .unwrap();
        t.write()
            .insert_all((0..50_000i64).map(|i| row![i, i % 25_000]))
            .unwrap();
        let c = RelationalConnector::new(db);
        let mut fresh = 50_000i64;
        let ratio = crate::adapters::tests::bound_cost_ratio(|keys| {
            // A write first, under a key no list holds: every read is cold
            // and builds the column's key index once.
            t.write().insert(row![fresh, -1i64]).unwrap();
            fresh += 1;
            let q = SourceQuery {
                table: "lineitems".into(),
                bindings: vec![Binding { column: "product_id".into(), keys: keys.clone() }],
                ..SourceQuery::default()
            };
            assert_eq!(c.execute(&q).unwrap().batch.num_rows(), keys.len() * 2);
        });
        // One scan per key makes this ~100; one index build per query, ~1.
        assert!(ratio < 20.0, "2000 keys cost {ratio:.1}x what 20 keys cost");
    }
}
