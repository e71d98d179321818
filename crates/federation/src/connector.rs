//! The [`Connector`] trait: the adapter every source implements, plus the
//! component-query and update request types that travel through it.

use std::sync::Arc;

use eii_data::{ColumnarBatch, EiiError, Result, SchemaRef, Value};
use eii_expr::Expr;
use eii_storage::TableStats;

use crate::capability::SourceCapabilities;
use crate::dialect::Dialect;

/// A component query decomposed out of a federated plan, addressed to one
/// table of one source. The planner guarantees it respects the source's
/// capabilities; connectors re-check and reject violations defensively.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceQuery {
    /// Table name within the source.
    pub table: String,
    /// Columns to return (by name), or `None` for all.
    pub projection: Option<Vec<String>>,
    /// Conjunctive filters to evaluate at the source. Each must be
    /// supported by the source's dialect.
    pub filters: Vec<Expr>,
    /// Equality bindings: `(column, values)` — return rows whose column is
    /// any of the values. Used by bind joins and web-service access
    /// patterns.
    pub bindings: Vec<(String, Vec<Value>)>,
    /// Maximum rows to return.
    pub limit: Option<usize>,
}

impl SourceQuery {
    /// Query returning a whole table.
    pub fn full_table(table: impl Into<String>) -> Self {
        SourceQuery {
            table: table.into(),
            ..SourceQuery::default()
        }
    }

    /// Render as source SQL text (diagnostics / EXPLAIN output).
    pub fn to_sql(&self) -> String {
        let cols = match &self.projection {
            Some(p) => p.join(", "),
            None => "*".to_string(),
        };
        let mut sql = format!("SELECT {cols} FROM {}", self.table);
        let mut preds: Vec<String> = self.filters.iter().map(|f| f.to_string()).collect();
        for (col, vals) in &self.bindings {
            let list = vals
                .iter()
                .map(|v| Expr::Literal(v.clone()).to_string())
                .collect::<Vec<_>>()
                .join(", ");
            preds.push(format!("{col} IN ({list})"));
        }
        if !preds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&preds.join(" AND "));
        }
        if let Some(n) = self.limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        sql
    }
}

/// Result of a component query before it crosses the network: the answer,
/// as the columns the adapter scanned it into, plus how much work the source
/// did (for the cost ledger).
#[derive(Debug, Clone)]
pub struct SourceAnswer {
    pub batch: ColumnarBatch,
    /// Rows the source engine examined (scan effort).
    pub rows_scanned: usize,
    /// Round trips the interaction needed (web services pay one per bound
    /// value; set-oriented sources answer in one).
    pub calls: usize,
    /// Whether the source engine resolved a binding itself, from the bound
    /// column's key index (false: an unbound query, or bindings filtered by
    /// the wrapper after a full read).
    pub bind_access: bool,
    /// Columns the table or wrapper had to build to answer: 0 when every
    /// column it read was already held for the current data version.
    pub columns_built: usize,
    /// Key indexes the table had to build to answer: 1 on the first bound
    /// read of a column after a write, 0 when it was held.
    pub indexes_built: usize,
}

impl SourceAnswer {
    /// Single-round-trip answer.
    pub fn one_shot(batch: ColumnarBatch, rows_scanned: usize) -> Self {
        SourceAnswer {
            batch,
            rows_scanned,
            calls: 1,
            bind_access: false,
            columns_built: 0,
            indexes_built: 0,
        }
    }
}

/// A write operation routed to a source (the EAI substrate's verbs).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    Insert {
        table: String,
        row: eii_data::Row,
    },
    UpdateByKey {
        table: String,
        key: Value,
        assignments: Vec<(String, Value)>,
    },
    DeleteByKey {
        table: String,
        key: Value,
    },
}

impl UpdateOp {
    /// Table the operation touches.
    pub fn table(&self) -> &str {
        match self {
            UpdateOp::Insert { table, .. }
            | UpdateOp::UpdateByKey { table, .. }
            | UpdateOp::DeleteByKey { table, .. } => table,
        }
    }
}

/// Outcome of an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateResult {
    /// Rows affected.
    pub affected: usize,
}

/// The adapter contract. One `Connector` wraps one enterprise source.
pub trait Connector: Send + Sync {
    /// Source name (unique within a federation).
    fn name(&self) -> &str;

    /// Tables (or virtual tables) this source exposes.
    fn tables(&self) -> Vec<String>;

    /// Schema of a table.
    fn table_schema(&self, table: &str) -> Result<SchemaRef>;

    /// Coarse capabilities.
    fn capabilities(&self) -> SourceCapabilities;

    /// Expression dialect for pushdown decisions.
    fn dialect(&self) -> Dialect;

    /// Statistics for the cost model, shared rather than copied: the cost
    /// model asks several times per plan, so adapters compute them once per
    /// data version. Default: unknown (empty) stats.
    fn statistics(&self, _table: &str) -> Result<Arc<TableStats>> {
        Ok(Arc::default())
    }

    /// Execute a component query at the source.
    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer>;

    /// Apply an update. Default: not supported.
    fn update(&self, op: &UpdateOp) -> Result<UpdateResult> {
        Err(EiiError::Source(format!(
            "source {} does not accept updates ({:?})",
            self.name(),
            op.table()
        )))
    }

    /// Change-data capture: every change to `table` after sequence
    /// `after_seq`, plus the new high watermark. The warehouse's incremental
    /// ETL refresh reads this. Default: not supported (such sources can only
    /// be refreshed by full re-extract).
    fn changes_since(
        &self,
        table: &str,
        _after_seq: u64,
    ) -> Result<(Vec<eii_storage::Change>, u64)> {
        Err(EiiError::Source(format!(
            "source {} does not expose a change log for {table}",
            self.name()
        )))
    }

    /// Circuit-breaker snapshot, when a breaker protects this connector
    /// somewhere in the wrapper chain. Default: none.
    fn breaker_status(&self) -> Option<crate::resilience::BreakerStatus> {
        None
    }

    /// Message of the most recent failed request, when tracked. Default:
    /// none.
    fn last_error(&self) -> Option<String> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_query_renders_sql() {
        let q = SourceQuery {
            table: "customers".into(),
            projection: Some(vec!["id".into(), "name".into()]),
            filters: vec![Expr::col("region").eq(Expr::lit("west"))],
            bindings: vec![("id".into(), vec![Value::Int(1), Value::Int(2)])],
            limit: Some(10),
        };
        assert_eq!(
            q.to_sql(),
            "SELECT id, name FROM customers WHERE (region = 'west') AND id IN (1, 2) LIMIT 10"
        );
    }

    #[test]
    fn full_table_query_renders_star() {
        assert_eq!(
            SourceQuery::full_table("t").to_sql(),
            "SELECT * FROM t"
        );
    }
}
