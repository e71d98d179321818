//! Batches: a schema plus a set of rows — the unit of data exchange between
//! operators, wrappers, and the assembly site.

use std::fmt;
use std::fmt::Write as _;


use crate::error::{EiiError, Result};
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::value::Value;

/// A schema-tagged collection of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: SchemaRef,
    rows: Vec<Row>,
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
        Ok(Batch { schema, rows })
    }

    /// Build without validation (hot paths that construct rows from the same
    /// schema). Debug-asserts widths.
    pub fn new(schema: SchemaRef, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        Batch { schema, rows }
    }

    /// An empty batch of the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        Batch {
            schema,
            rows: Vec::new(),
        }
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

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
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

    /// Sort rows by the given column positions (ascending flags parallel).
    pub fn sort_by(&mut self, keys: &[(usize, bool)]) {
        self.rows.sort_by(|a, b| {
            for &(col, asc) in keys {
                let ord = a.get(col).cmp(b.get(col));
                let ord = if asc { ord } else { ord.reverse() };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
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
    fn sort_multi_key() {
        let mut b = Batch::new(
            schema(),
            vec![row![2i64, "b"], row![1i64, "z"], row![1i64, "a"]],
        );
        b.sort_by(&[(0, true), (1, false)]);
        assert_eq!(b.rows()[0], row![1i64, "z"]);
        assert_eq!(b.rows()[1], row![1i64, "a"]);
        assert_eq!(b.rows()[2], row![2i64, "b"]);
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
