//! Table statistics for the federated cost model.
//!
//! The planner's cost model (selectivity estimation, join ordering, assembly-
//! site selection) consumes these. They are exact (sources in the real world
//! would expose estimates, which the wrapper layer can degrade deliberately
//! for the prediction-error experiment, E12) and *kept*: a `StatsAccumulator`
//! holds per column what a row arriving adds and a row leaving takes away, so
//! a table that knows which rows a write changed never walks the rest again.
//! [`TableStats::analyze`] is that accumulator fed every row once.

use std::collections::HashMap;

use eii_data::keys::KeyHasher;
use eii_data::{Row, Value};

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub ndv: usize,
    /// Number of NULLs.
    pub null_count: usize,
    /// Minimum non-null value, if any.
    pub min: Option<Value>,
    /// Maximum non-null value, if any.
    pub max: Option<Value>,
    /// Average wire size of a value in this column, bytes.
    pub avg_width: f64,
}

/// Whole-table statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    pub row_count: usize,
    pub columns: Vec<ColumnStats>,
}

#[derive(Debug, Clone, Default)]
struct ColumnAccumulator {
    /// Each distinct non-null value and how many rows hold it. (An ordered map
    /// would have the extremes for free and charge every bulk load for them.)
    copies: HashMap<Value, u32, KeyHasher>,
    nulls: usize,
    /// Sum of [`Value::wire_size`] over every cell, NULLs included.
    wire_bytes: usize,
    /// The least and greatest keys of `copies`; of equal ones, the first seen.
    min: Option<Value>,
    max: Option<Value>,
}

impl ColumnAccumulator {
    fn add(&mut self, v: &Value) {
        self.wire_bytes += v.wire_size();
        if v.is_null() {
            self.nulls += 1;
        } else if let Some(n) = self.copies.get_mut(v) {
            *n += 1;
        } else {
            self.copies.insert(v.clone(), 1);
            if self.min.as_ref().is_none_or(|min| v < min) {
                self.min = Some(v.clone());
            }
            if self.max.as_ref().is_none_or(|max| v > max) {
                self.max = Some(v.clone());
            }
        }
    }

    fn remove(&mut self, v: &Value) {
        self.wire_bytes -= v.wire_size();
        if v.is_null() {
            self.nulls -= 1;
            return;
        }
        let n = self.copies.get_mut(v).expect("a row removed was added");
        *n -= 1;
        if *n == 0 {
            self.copies.remove(v);
            // The last copy of an extreme left: its successor is among the keys.
            if self.min.as_ref() == Some(v) {
                self.min = self.copies.keys().min().cloned();
            }
            if self.max.as_ref() == Some(v) {
                self.max = self.copies.keys().max().cloned();
            }
        }
    }
}

/// Running, exact statistics of a multiset of rows. `add` and `remove` are
/// O(width) hash operations (removing the last copy of a column's extreme also
/// searches its distinct values for the next); `snapshot` reads off in O(width)
/// what analysing the rows now held would find.
#[derive(Debug, Clone)]
pub(crate) struct StatsAccumulator {
    rows: usize,
    columns: Vec<ColumnAccumulator>,
}

impl StatsAccumulator {
    /// Over `rows`, each `width` cells wide.
    pub fn over<'a>(width: usize, rows: impl Iterator<Item = &'a Row>) -> Self {
        let columns = vec![ColumnAccumulator::default(); width];
        let mut acc = StatsAccumulator { rows: 0, columns };
        rows.for_each(|row| acc.add(row));
        acc
    }

    pub fn add(&mut self, row: &Row) {
        self.rows += 1;
        self.columns.iter_mut().zip(row.values()).for_each(|(c, v)| c.add(v));
    }

    /// `row` is one that was added and has not been removed since.
    pub fn remove(&mut self, row: &Row) {
        self.rows -= 1;
        self.columns.iter_mut().zip(row.values()).for_each(|(c, v)| c.remove(v));
    }

    pub fn snapshot(&self) -> TableStats {
        let rows = self.rows.max(1) as f64;
        let column = |c: &ColumnAccumulator| ColumnStats {
            ndv: c.copies.len(),
            null_count: c.nulls,
            min: c.min.clone(),
            max: c.max.clone(),
            avg_width: c.wire_bytes as f64 / rows,
        };
        let columns = self.columns.iter().map(column).collect();
        TableStats { row_count: self.rows, columns }
    }
}

impl TableStats {
    /// Compute exact statistics from rows.
    pub fn analyze<'a>(width: usize, rows: impl Iterator<Item = &'a Row>) -> TableStats {
        StatsAccumulator::over(width, rows).snapshot()
    }

    /// Average wire size of a full row.
    pub fn avg_row_width(&self) -> f64 {
        self.columns.iter().map(|c| c.avg_width).sum()
    }

    /// Estimated selectivity of `col = literal` under uniformity: `1/ndv`.
    pub fn eq_selectivity(&self, col: usize) -> f64 {
        match self.columns.get(col) {
            Some(c) if c.ndv > 0 => 1.0 / c.ndv as f64,
            _ => 0.1,
        }
    }

    /// Estimated selectivity of a range predicate on `col` covering the
    /// fraction of the [min, max] interval between `low` and `high`
    /// (numeric columns only; defaults to 1/3 otherwise, the classic
    /// System-R guess).
    pub fn range_selectivity(&self, col: usize, low: Option<&Value>, high: Option<&Value>) -> f64 {
        let Some(c) = self.columns.get(col) else {
            return 1.0 / 3.0;
        };
        let (Some(min), Some(max)) = (
            c.min.as_ref().and_then(Value::as_float),
            c.max.as_ref().and_then(Value::as_float),
        ) else {
            return 1.0 / 3.0;
        };
        if max <= min {
            return 1.0;
        }
        let lo = low.and_then(Value::as_float).unwrap_or(min).max(min);
        let hi = high.and_then(Value::as_float).unwrap_or(max).min(max);
        ((hi - lo) / (max - min)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::row;

    fn rows() -> Vec<Row> {
        vec![
            row![1i64, "a", 10.0],
            row![2i64, "b", 20.0],
            row![2i64, "b", 30.0],
            Row::new(vec![Value::Int(3), Value::Null, Value::Float(40.0)]),
        ]
    }

    #[test]
    fn analyze_counts() {
        let rs = rows();
        let s = TableStats::analyze(3, rs.iter());
        assert_eq!(s.row_count, 4);
        assert_eq!(s.columns[0].ndv, 3);
        assert_eq!(s.columns[1].ndv, 2);
        assert_eq!(s.columns[1].null_count, 1);
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(3)));
    }

    #[test]
    fn selectivities() {
        let rs = rows();
        let s = TableStats::analyze(3, rs.iter());
        assert!((s.eq_selectivity(0) - 1.0 / 3.0).abs() < 1e-9);
        // Range covering half of [10, 40].
        let sel = s.range_selectivity(2, Some(&Value::Float(10.0)), Some(&Value::Float(25.0)));
        assert!((sel - 0.5).abs() < 1e-9);
        // Non-numeric column falls back to 1/3.
        assert!((s.range_selectivity(1, None, None) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_table() {
        let s = TableStats::analyze(2, std::iter::empty());
        assert_eq!(s.row_count, 0);
        assert_eq!(s.avg_row_width(), 0.0);
    }
}
