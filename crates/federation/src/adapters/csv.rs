//! Adapter for delimited-file sources ("delimited files" in Carey's list of
//! Liquid Data source types).
//!
//! A flat file has no query engine: nothing can be pushed down, every row
//! ships to the assembly site, and updates are impossible. This is the
//! source type that makes pushdown-aware planning visibly matter in the
//! experiments.

use std::collections::BTreeMap;
use std::sync::Arc;

use eii_data::{
    Batch, ColumnarBatch, DataType, EiiError, Field, Result, Row, Schema, SchemaRef, Value,
};
use eii_storage::TableStats;

use crate::adapters::reject_unsupported;
use crate::capability::SourceCapabilities;
use crate::connector::{Connector, SourceAnswer, SourceQuery};
use crate::dialect::Dialect;

/// One delimited file exposed as a table: parsed into columns and analyzed
/// once, when the file is registered — a file never changes afterwards, so
/// every fetch shares the same columns.
#[derive(Debug, Clone)]
struct CsvTable {
    columns: ColumnarBatch,
    stats: Arc<TableStats>,
}

/// A wrapped directory of delimited files.
#[derive(Debug)]
pub struct CsvConnector {
    name: String,
    tables: BTreeMap<String, CsvTable>,
}

impl CsvConnector {
    /// Empty source.
    pub fn new(name: impl Into<String>) -> Self {
        CsvConnector {
            name: name.into(),
            tables: BTreeMap::new(),
        }
    }

    /// Register a file's content under `table`. `text` is delimiter-
    /// separated with a header line; column types are declared by the
    /// caller (flat files carry no type metadata).
    pub fn add_file(
        mut self,
        table: impl Into<String>,
        text: &str,
        delimiter: char,
        types: &[DataType],
    ) -> Result<Self> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| EiiError::Source("empty delimited file".into()))?;
        let names: Vec<&str> = header.split(delimiter).map(str::trim).collect();
        if names.len() != types.len() {
            return Err(EiiError::Source(format!(
                "header has {} columns but {} types were declared",
                names.len(),
                types.len()
            )));
        }
        let schema = Arc::new(Schema::new(
            names
                .iter()
                .zip(types)
                .map(|(n, ty)| Field::new(*n, *ty))
                .collect(),
        ));
        let mut rows = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let cells: Vec<&str> = line.split(delimiter).map(str::trim).collect();
            if cells.len() != names.len() {
                return Err(EiiError::Source(format!(
                    "line {}: expected {} cells, found {}",
                    lineno + 2,
                    names.len(),
                    cells.len()
                )));
            }
            let row: Row = cells
                .iter()
                .zip(types)
                .map(|(cell, ty)| {
                    if cell.is_empty() {
                        Value::Null
                    } else {
                        Value::str(*cell).cast(*ty).unwrap_or(Value::Null)
                    }
                })
                .collect();
            rows.push(row);
        }
        let stats = Arc::new(TableStats::analyze(schema.len(), rows.iter()));
        let columns = ColumnarBatch::from_batch(&Batch::new(schema, rows));
        self.tables
            .insert(table.into(), CsvTable { columns, stats });
        Ok(self)
    }

    fn table(&self, name: &str) -> Result<&CsvTable> {
        self.tables.get(name).ok_or_else(|| {
            EiiError::NotFound(format!("file table {name} in source {}", self.name))
        })
    }
}

impl Connector for CsvConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn tables(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        Ok(self.table(table)?.columns.schema().clone())
    }

    fn capabilities(&self) -> SourceCapabilities {
        SourceCapabilities::flat_file()
    }

    fn dialect(&self) -> Dialect {
        // Nothing is pushable; an empty dialect would also do, but LCD keeps
        // the planner's invariant "dialect ⊆ capabilities" simple.
        Dialect::lowest_common_denominator()
    }

    fn statistics(&self, table: &str) -> Result<Arc<TableStats>> {
        Ok(self.table(table)?.stats.clone())
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        reject_unsupported(&self.name, &query.filters, &query.bindings)?;
        if query.projection.is_some() || query.limit.is_some() {
            return Err(EiiError::Source(format!(
                "source {} ships whole files; projection/limit must run at the assembly site",
                self.name
            )));
        }
        let columns = self.table(&query.table)?.columns.clone();
        let n = columns.num_rows();
        Ok(SourceAnswer::one_shot(columns, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "id,name,amount\n1,alice,10.5\n2,bob,\n3,carol,7.25\n";

    fn setup() -> CsvConnector {
        CsvConnector::new("legacy_export")
            .add_file(
                "payments",
                FILE,
                ',',
                &[DataType::Int, DataType::Str, DataType::Float],
            )
            .unwrap()
    }

    #[test]
    fn parses_with_types_and_nulls() {
        let c = setup();
        let ans = c.execute(&SourceQuery::full_table("payments")).unwrap();
        assert_eq!(ans.batch.num_rows(), 3);
        assert_eq!(ans.batch.value_at(1, 2), Value::Null);
        assert_eq!(ans.batch.value_at(2, 2), Value::Float(7.25));
    }

    #[test]
    fn rejects_pushdown_attempts() {
        let c = setup();
        let q = SourceQuery {
            table: "payments".into(),
            projection: Some(vec!["id".into()]),
            ..SourceQuery::default()
        };
        assert_eq!(c.execute(&q).unwrap_err().kind(), "source");
        let q = SourceQuery {
            table: "payments".into(),
            filters: vec![eii_expr::Expr::col("id").eq(eii_expr::Expr::lit(1i64))],
            ..SourceQuery::default()
        };
        assert_eq!(c.execute(&q).unwrap_err().kind(), "source");
    }

    #[test]
    fn malformed_files_error() {
        let bad = "id,name\n1\n";
        let err = CsvConnector::new("x")
            .add_file("t", bad, ',', &[DataType::Int, DataType::Str])
            .unwrap_err();
        assert_eq!(err.kind(), "source");
        let err = CsvConnector::new("x")
            .add_file("t", "id,name\n", ',', &[DataType::Int])
            .unwrap_err();
        assert_eq!(err.kind(), "source");
    }

    #[test]
    fn unknown_table_not_found() {
        let c = setup();
        assert_eq!(
            c.execute(&SourceQuery::full_table("ghost"))
                .unwrap_err()
                .kind(),
            "not_found"
        );
    }

    #[test]
    fn statistics_from_parsed_rows() {
        let c = setup();
        let s = c.statistics("payments").unwrap();
        assert_eq!(s.row_count, 3);
        assert_eq!(s.columns[2].null_count, 1);
        let parsed = c
            .execute(&SourceQuery::full_table("payments"))
            .unwrap()
            .batch
            .to_batch();
        assert_eq!(*s, TableStats::analyze(3, parsed.rows().iter()));
        assert!(
            Arc::ptr_eq(&s, &c.statistics("payments").unwrap()),
            "analyzed at add_file, not per call"
        );
    }
}
