//! Batches: a schema plus a set of rows — the row form of an answer, handed
//! to the caller and memoized by the result cache.
//!
//! A batch is immutable and keeps its rows behind one `Arc`, so a clone is a
//! reference count: the answer returned to the caller, the result-cache
//! entry it fills and every hit served from that entry share one row set,
//! which nothing can change under a reader. [`Batch::into_rows`] takes the
//! vector back without a copy when the batch is its only holder.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::{EiiError, Result};
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::value::Value;

/// A schema-tagged, immutable collection of rows, shared by cloning.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: SchemaRef,
    rows: Arc<Vec<Row>>,
}

impl Batch {
    /// Build a batch, validating row widths against the schema.
    pub fn try_new(schema: SchemaRef, rows: Vec<Row>) -> Result<Self> {
        if let Some(bad) = rows.iter().find(|r| r.len() != schema.len()) {
            return Err(EiiError::Internal(format!(
                "row width {} does not match schema width {}",
                bad.len(),
                schema.len()
            )));
        }
        Ok(Batch::new(schema, rows))
    }

    /// Build without validation (hot paths that construct rows from the same
    /// schema). Debug-asserts widths.
    pub fn new(schema: SchemaRef, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        let rows = Arc::new(rows);
        Batch { schema, rows }
    }

    /// An empty batch of the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        Batch::new(schema, Vec::new())
    }

    /// The governing schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Rows in order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Consume into rows: the vector itself when this batch is its only
    /// holder, a copy when the rows are shared.
    pub fn into_rows(self) -> Vec<Row> {
        Arc::unwrap_or_clone(self.rows)
    }

    /// Total native wire size of all rows plus per-row schema overhead.
    pub fn wire_size(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.wire_size() + self.schema.row_overhead())
            .sum()
    }

    /// Total wire size when shipped as XML (see [`Row::xml_wire_size`]).
    pub fn xml_wire_size(&self) -> usize {
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        let doc_tags = "<rows></rows>".len();
        doc_tags
            + self
                .rows
                .iter()
                .map(|r| r.xml_wire_size(&names))
                .sum::<usize>()
    }

    /// Column values at position `col` across all rows.
    pub fn column(&self, col: usize) -> impl Iterator<Item = &Value> + '_ {
        self.rows.iter().map(move |r| r.get(col))
    }

    /// Render as an aligned ASCII table — the experiment harness's output
    /// format.
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            let _ = write!(out, " {h:<w$} |");
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, " {cell:<w$} |");
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Field, Schema};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
        ]))
    }

    #[test]
    fn try_new_validates_width() {
        let err = Batch::try_new(schema(), vec![row![1i64]]).unwrap_err();
        assert_eq!(err.kind(), "internal");
        let ok = Batch::try_new(schema(), vec![row![1i64, "a"]]).unwrap();
        assert_eq!(ok.num_rows(), 1);
    }

    #[test]
    fn a_clone_shares_the_rows() {
        let b = Batch::new(schema(), vec![row![1i64, "a"], row![2i64, "b"]]);
        let c = b.clone();
        assert_eq!(c.rows().as_ptr(), b.rows().as_ptr());
        assert_eq!(c, b);
    }

    #[test]
    fn into_rows_of_a_sole_holder_keeps_the_allocation() {
        let b = Batch::new(schema(), vec![row![1i64, "a"], row![2i64, "b"]]);
        let at = b.rows().as_ptr();
        let rows = b.into_rows();
        assert_eq!(rows.as_ptr(), at, "the vector came back, not a copy");
        assert_eq!(rows, vec![row![1i64, "a"], row![2i64, "b"]]);
    }

    #[test]
    fn into_rows_of_a_shared_batch_leaves_the_other_holder_intact() {
        let b = Batch::new(schema(), vec![row![1i64, "a"], row![2i64, "b"]]);
        let kept = b.clone();
        let mut taken = b.into_rows();
        assert_ne!(taken.as_ptr(), kept.rows().as_ptr(), "copied");
        taken.clear();
        assert_eq!(kept.rows(), &[row![1i64, "a"], row![2i64, "b"]]);
    }

    #[test]
    fn ascii_table_contains_headers_and_cells() {
        let b = Batch::new(schema(), vec![row![1i64, "alice"]]);
        let t = b.to_table();
        assert!(t.contains("id"));
        assert!(t.contains("alice"));
        assert!(t.starts_with('+'));
    }

    #[test]
    fn xml_size_exceeds_native() {
        let b = Batch::new(schema(), vec![row![1i64, "alice"], row![2i64, "bob"]]);
        assert!(b.xml_wire_size() > b.wire_size());
    }

    #[test]
    fn column_iterates_single_column() {
        let b = Batch::new(schema(), vec![row![1i64, "a"], row![2i64, "b"]]);
        let ids: Vec<i64> = b.column(0).map(|v| v.as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 2]);
    }
}
