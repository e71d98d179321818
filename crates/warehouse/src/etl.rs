//! ETL jobs: extract / transform / load definitions.

use std::sync::Arc;

use eii_data::{Batch, ColumnarBatch, DataType, EiiError, Field, Result, Row, Schema, SchemaRef};
use eii_expr::{bind, eval_column, eval_filter, Expr};

/// One step of a transform pipeline.
#[derive(Debug, Clone)]
pub enum Transform {
    /// Keep rows matching the predicate.
    Filter(Expr),
    /// Append a computed column.
    Derive { name: String, expr: Expr },
    /// Keep only the named columns, in this order.
    Select(Vec<String>),
    /// Rename a column.
    Rename { from: String, to: String },
    /// Cast a column to a type (failed casts become NULL — dirty data is
    /// cleansed, not fatal).
    Cast { column: String, to: DataType },
    /// Trim and lowercase a string column (the classic cleansing step).
    Normalize(String),
}

impl Transform {
    /// Apply this step to a batch.
    pub fn apply(&self, batch: Batch) -> Result<Batch> {
        let schema = batch.schema().clone();
        match self {
            Transform::Filter(pred) => {
                let keep = eval_filter(&bind(pred, &schema)?, &ColumnarBatch::from_batch(&batch))?;
                let rows = batch.into_rows();
                Ok(Batch::new(schema, keep.into_iter().map(|i| rows[i as usize].clone()).collect()))
            }
            Transform::Derive { name, expr } => {
                let bound = bind(expr, &schema)?;
                let ty = eii_expr::infer_type(expr, &schema)?.unwrap_or(DataType::Str);
                let mut fields = schema.fields().to_vec();
                fields.push(Field::new(name.clone(), ty));
                let out_schema: SchemaRef = Arc::new(Schema::new(fields));
                let derived = eval_column(&bound, &ColumnarBatch::from_batch(&batch))?;
                let rows = batch.into_rows().into_iter().enumerate();
                let rows = rows.map(|(i, mut row)| {
                    row.push(derived.value(i));
                    row
                });
                Ok(Batch::new(out_schema, rows.collect()))
            }
            Transform::Select(cols) => {
                let indices = cols
                    .iter()
                    .map(|c| schema.index_of(None, c))
                    .collect::<Result<Vec<_>>>()?;
                let out_schema: SchemaRef = Arc::new(Schema::new(
                    indices.iter().map(|&i| schema.field(i).clone()).collect(),
                ));
                let rows = batch
                    .into_rows()
                    .into_iter()
                    .map(|r| r.project(&indices))
                    .collect();
                Ok(Batch::new(out_schema, rows))
            }
            Transform::Rename { from, to } => {
                let idx = schema.index_of(None, from)?;
                let mut fields = schema.fields().to_vec();
                fields[idx].name = to.clone();
                let out_schema: SchemaRef = Arc::new(Schema::new(fields));
                Ok(Batch::new(out_schema, batch.into_rows()))
            }
            Transform::Cast { column, to } => {
                let idx = schema.index_of(None, column)?;
                let mut fields = schema.fields().to_vec();
                fields[idx].data_type = *to;
                fields[idx].nullable = true;
                let out_schema: SchemaRef = Arc::new(Schema::new(fields));
                let rows: Vec<Row> = batch
                    .into_rows()
                    .into_iter()
                    .map(|mut r| {
                        let v = r.get(idx).cast(*to).unwrap_or(eii_data::Value::Null);
                        r.set(idx, v);
                        r
                    })
                    .collect();
                Ok(Batch::new(out_schema, rows))
            }
            Transform::Normalize(column) => {
                let idx = schema.index_of(None, column)?;
                let rows: Vec<Row> = batch
                    .into_rows()
                    .into_iter()
                    .map(|mut r| {
                        if let Some(s) = r.get(idx).as_str() {
                            let cleaned = s.trim().to_lowercase();
                            r.set(idx, eii_data::Value::str(cleaned));
                        }
                        r
                    })
                    .collect();
                Ok(Batch::new(schema, rows))
            }
        }
    }
}

/// An ETL job: where to extract from, how to transform, where to load.
#[derive(Debug, Clone)]
pub struct EtlJob {
    /// Job name (unique within a warehouse).
    pub name: String,
    /// Source, as `source.table` in the federation namespace.
    pub source_table: String,
    /// Transform pipeline applied to extracted batches.
    pub transforms: Vec<Transform>,
    /// Target warehouse table.
    pub target_table: String,
    /// Primary-key column *of the target* (post-transform), used to apply
    /// incremental changes. `None` forces full refresh.
    pub target_key: Option<String>,
}

impl EtlJob {
    /// A pass-through job (no transforms).
    pub fn copy(name: impl Into<String>, source_table: impl Into<String>, target: impl Into<String>) -> Self {
        EtlJob {
            name: name.into(),
            source_table: source_table.into(),
            transforms: Vec::new(),
            target_table: target.into(),
            target_key: None,
        }
    }

    /// Add a transform step.
    pub fn with_transform(mut self, t: Transform) -> Self {
        self.transforms.push(t);
        self
    }

    /// Declare the target's key column, enabling incremental refresh.
    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.target_key = Some(key.into());
        self
    }

    /// Run the transform pipeline over one batch.
    pub fn transform(&self, mut batch: Batch) -> Result<Batch> {
        for t in &self.transforms {
            batch = t.apply(batch)?;
        }
        Ok(batch)
    }

    /// Run the transform pipeline over a single row (incremental path).
    /// Filtered-out rows come back as `None`.
    pub fn transform_row(&self, schema: SchemaRef, row: Row) -> Result<Option<Row>> {
        let batch = self.transform(Batch::new(schema, vec![row]))?;
        Ok(batch.into_rows().into_iter().next())
    }

    /// The source name part of `source_table`.
    pub fn source(&self) -> Result<&str> {
        self.source_table
            .split_once('.')
            .map(|(s, _)| s)
            .ok_or_else(|| {
                EiiError::Etl(format!(
                    "job {}: source table '{}' must be source.table",
                    self.name, self.source_table
                ))
            })
    }

    /// The table name part of `source_table`.
    pub fn table(&self) -> Result<&str> {
        self.source_table
            .split_once('.')
            .map(|(_, t)| t)
            .ok_or_else(|| {
                EiiError::Etl(format!(
                    "job {}: source table '{}' must be source.table",
                    self.name, self.source_table
                ))
            })
    }
}

/// Bookkeeping for one job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EtlStats {
    /// Completed refreshes.
    pub refreshes: usize,
    /// Rows loaded over all refreshes.
    pub rows_loaded: usize,
    /// Simulated time spent refreshing, ms.
    pub refresh_ms: f64,
    /// Simulated time of the last completed refresh.
    pub last_refresh_at_ms: i64,
    /// Change-log watermark consumed so far (incremental jobs).
    pub watermark: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, Value};

    fn batch() -> Batch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("amount", DataType::Str), // dirty: numbers as text
        ]));
        Batch::new(
            schema,
            vec![
                row![1i64, "  Alice ", "10.5"],
                row![2i64, "BOB", "oops"],
                row![3i64, "carol", "7"],
            ],
        )
    }

    #[test]
    fn normalize_and_cast_cleanse_dirty_data() {
        let job = EtlJob::copy("j", "s.t", "t")
            .with_transform(Transform::Normalize("name".into()))
            .with_transform(Transform::Cast {
                column: "amount".into(),
                to: DataType::Float,
            });
        let out = job.transform(batch()).unwrap();
        assert_eq!(out.rows()[0].get(1), &Value::str("alice"));
        assert_eq!(out.rows()[0].get(2), &Value::Float(10.5));
        assert_eq!(out.rows()[1].get(2), &Value::Null, "bad cast becomes NULL");
    }

    #[test]
    fn filter_derive_select_rename() {
        let job = EtlJob::copy("j", "s.t", "t")
            .with_transform(Transform::Filter(Expr::col("id").lt(Expr::lit(3i64))))
            .with_transform(Transform::Derive {
                name: "id2".into(),
                expr: Expr::col("id").binary(eii_expr::BinaryOp::Multiply, Expr::lit(2i64)),
            })
            .with_transform(Transform::Select(vec!["id2".into(), "name".into()]))
            .with_transform(Transform::Rename {
                from: "id2".into(),
                to: "double_id".into(),
            });
        let out = job.transform(batch()).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.schema().field(0).name, "double_id");
        assert_eq!(out.rows()[1].get(0), &Value::Int(4));
    }

    #[test]
    fn a_transform_reports_the_first_failing_rows_error() {
        // Row 2 fails on the right of the sum (a zero divisor), row 4 on the
        // left (a string dividend): the error is row 2's, though a column
        // evaluated left side first meets row 4's.
        let schema = Arc::new(Schema::new(
            ["a", "b", "c", "d"].map(|c| Field::new(c, DataType::Int)).to_vec(),
        ));
        let rows = vec![
            row![1i64, 1i64, 1i64, 1i64],
            row![1i64, 1i64, 1i64, 0i64],
            row![2i64, 1i64, 1i64, 1i64],
            Row::new(vec![Value::str("x"), Value::Int(1), Value::Int(1), Value::Int(1)]),
        ];
        let div = |x: &str, y: &str| Expr::col(x).binary(eii_expr::BinaryOp::Divide, Expr::col(y));
        let sum = div("a", "b").binary(eii_expr::BinaryOp::Plus, div("c", "d"));
        for step in [
            Transform::Derive { name: "s".into(), expr: sum.clone() },
            Transform::Filter(sum.clone().gt(Expr::lit(0i64))),
        ] {
            let err = step.apply(Batch::new(schema.clone(), rows.clone())).unwrap_err();
            assert_eq!(err.to_string(), "execution error: division by zero", "{step:?}");
        }
    }

    #[test]
    fn transform_row_respects_filters() {
        let job = EtlJob::copy("j", "s.t", "t")
            .with_transform(Transform::Filter(Expr::col("id").eq(Expr::lit(1i64))));
        let schema = batch().schema().clone();
        assert!(job
            .transform_row(schema.clone(), row![1i64, "a", "x"])
            .unwrap()
            .is_some());
        assert!(job
            .transform_row(schema, row![2i64, "b", "x"])
            .unwrap()
            .is_none());
    }

    #[test]
    fn source_parsing() {
        let job = EtlJob::copy("j", "crm.customers", "t");
        assert_eq!(job.source().unwrap(), "crm");
        assert_eq!(job.table().unwrap(), "customers");
        let bad = EtlJob::copy("j", "nodot", "t");
        assert_eq!(bad.source().unwrap_err().kind(), "etl");
    }
}
