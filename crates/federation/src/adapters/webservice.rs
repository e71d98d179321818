//! Adapter for web-service sources with access limitations.
//!
//! A web service exposes operations like `get_orders(customer_id)`: it only
//! answers when the required parameter is bound, and it pays one round trip
//! *per bound value*. The planner must therefore feed it through a bind
//! join. This models Carey's "access to data locked inside applications
//! and/or web services".

use std::collections::BTreeMap;
use std::sync::Arc;

use eii_data::{EiiError, Result, SchemaRef, Value};
use eii_storage::{Database, TableStats};

use crate::adapters::answer_from_table;
use crate::capability::{BindingPattern, SourceCapabilities};
use crate::connector::{Connector, SourceAnswer, SourceQuery};
use crate::dialect::Dialect;

/// A wrapped web-service application. Internally backed by a database (the
/// application's hidden store), but reachable only through its operations.
pub struct WebServiceConnector {
    name: String,
    backing: Database,
    /// table -> column that must be bound per call.
    required: BTreeMap<String, String>,
}

impl WebServiceConnector {
    /// Wrap `backing` as a service named `name`.
    pub fn new(name: impl Into<String>, backing: Database) -> Self {
        WebServiceConnector {
            name: name.into(),
            backing,
            required: BTreeMap::new(),
        }
    }

    /// Declare that `table` is only reachable with `column` bound.
    pub fn require_binding(
        mut self,
        table: impl Into<String>,
        column: impl Into<String>,
    ) -> Self {
        self.required.insert(table.into(), column.into());
        self
    }

    /// The backing database (for seeding).
    pub fn database(&self) -> &Database {
        &self.backing
    }
}

impl Connector for WebServiceConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn tables(&self) -> Vec<String> {
        self.backing.table_names()
    }

    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        Ok(self.backing.table(table)?.read().schema().clone())
    }

    fn capabilities(&self) -> SourceCapabilities {
        SourceCapabilities::web_service(
            self.required
                .iter()
                .map(|(t, c)| BindingPattern {
                    table: t.clone(),
                    required_columns: vec![c.clone()],
                })
                .collect(),
        )
    }

    fn dialect(&self) -> Dialect {
        Dialect::lowest_common_denominator()
    }

    fn statistics(&self, table: &str) -> Result<Arc<TableStats>> {
        // A service does not publish statistics; expose row count only
        // (modeling the planner's uncertainty about opaque sources).
        let rows = self.backing.table(table)?.read().row_count();
        Ok(Arc::new(TableStats {
            row_count: rows,
            columns: Vec::new(),
        }))
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        if !query.filters.is_empty() {
            return Err(EiiError::Source(format!(
                "service {} does not evaluate predicates",
                self.name
            )));
        }
        let Some(col) = self.required.get(&query.table) else {
            // Unrestricted operation: one call dumps the table (any bindings
            // are the caller's to apply).
            return answer_from_table(&self.backing, query, None, &[]);
        };
        let Some(at) = query
            .bindings
            .iter()
            .position(|(c, _)| c.eq_ignore_ascii_case(col))
        else {
            return Err(EiiError::Source(format!(
                "service {}.{} requires {col} to be bound (access limitation)",
                self.name, query.table
            )));
        };
        let bound = &query.bindings[at];
        // Any *other* bindings are applied wrapper-side.
        let other: Vec<(String, Vec<Value>)> = query
            .bindings
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != at)
            .map(|(_, b)| b.clone())
            .collect();
        let ans = answer_from_table(&self.backing, query, Some(bound), &other)?;
        // One call per bound value, however the hidden store resolves them.
        Ok(SourceAnswer {
            calls: bound.1.len().max(1),
            ..ans
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, DataType, Field, Schema, SimClock};
    use eii_storage::TableDef;
    use std::sync::Arc;

    fn backing() -> Database {
        let db = Database::new("orders_svc", SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("order_id", DataType::Int).not_null(),
            Field::new("customer_id", DataType::Int),
            Field::new("total", DataType::Float),
        ]));
        let t = db
            .create_table(TableDef::new("orders", schema).with_primary_key(0))
            .unwrap();
        {
            let mut t = t.write();
            for i in 0..10i64 {
                t.insert(row![i, i % 3, (i as f64) * 10.0]).unwrap();
            }
        }
        db
    }

    fn setup() -> WebServiceConnector {
        WebServiceConnector::new("orders_svc", backing()).require_binding("orders", "customer_id")
    }

    #[test]
    fn an_unrestricted_operation_honours_a_pushed_limit() {
        let c = WebServiceConnector::new("orders_svc", backing());
        for (limit, rows) in [(Some(2), 2), (Some(0), 0), (None, 10)] {
            let q = SourceQuery {
                table: "orders".into(),
                projection: Some(vec!["total".into()]),
                limit,
                ..SourceQuery::default()
            };
            let ans = c.execute(&q).unwrap();
            assert_eq!((ans.batch.num_rows(), ans.batch.schema().len()), (rows, 1));
            assert_eq!(ans.rows_scanned, 10, "one call still reads the table");
        }
    }

    #[test]
    fn unbound_access_is_refused() {
        let c = setup();
        let err = c.execute(&SourceQuery::full_table("orders")).unwrap_err();
        assert_eq!(err.kind(), "source");
        assert!(err.message().contains("customer_id"));
    }

    #[test]
    fn bound_access_pays_one_call_per_value() {
        let c = setup();
        let q = SourceQuery {
            table: "orders".into(),
            bindings: vec![(
                "customer_id".into(),
                vec![Value::Int(0), Value::Int(1)],
            )],
            ..SourceQuery::default()
        };
        let ans = c.execute(&q).unwrap();
        assert_eq!(ans.calls, 2);
        assert_eq!(ans.batch.num_rows(), 7); // customers 0 and 1 have 4+3 orders
    }

    #[test]
    fn capabilities_expose_binding_pattern() {
        let c = setup();
        let caps = c.capabilities();
        let p = caps.pattern_for("orders").unwrap();
        assert_eq!(p.required_columns, vec!["customer_id"]);
    }

    #[test]
    fn filters_are_rejected() {
        let c = setup();
        let q = SourceQuery {
            table: "orders".into(),
            filters: vec![eii_expr::Expr::col("total").gt(eii_expr::Expr::lit(5.0))],
            bindings: vec![("customer_id".into(), vec![Value::Int(0)])],
            ..SourceQuery::default()
        };
        assert_eq!(c.execute(&q).unwrap_err().kind(), "source");
    }
}
