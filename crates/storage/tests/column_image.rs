//! The column image against the rows it is derived from.
//!
//! `Table` keeps its rows as the store of record and answers the two column
//! reads — `scan_columns`, `lookup_in_columns` — from a per-version column
//! image that every mutation must drop. Over random write streams interleaved
//! with reads this checks that the image can never be told from the rows:
//!
//! - `scan_columns(cols, limit)` ≡ `all_rows()`, picked and truncated;
//! - `lookup_in_columns(col, keys, cols)` ≡ the rows an `==` sweep of
//!   `all_rows()` finds for each key in turn — binding order, a key's rows in
//!   slot order, a duplicated key's rows twice — on the primary key and on
//!   every other column, so the key index a write must drop is checked
//!   against the rows, also after a delete freed a slot and an insert reused
//!   it, and where an `Int` key meets its `Float` twin at 2^53 ± 1 or at
//!   `i64::MIN`, `-0.0` meets `0`, a NaN meets itself, and a binding list
//!   mixes Ints and Floats; `lookup_eq` ≡ the same sweep, key by key;
//! - a batch read *before* a write still reads the old cells after it;
//! - a bound column gone `Mixed` (a schema-less source's, never a typed
//!   table's) is matched by the key index's `KeyLists::lookup` exactly as
//!   each key's `==` sweep matches it.
//!
//! The streams reuse slots (delete, then insert), leave slots vacant, write
//! NULLs, repeat and miss keys, and hit constraint errors that must change
//! nothing.

use std::sync::Arc;

use eii_data::keys::KeyLists;
use eii_data::{Column, ColumnarBatch, DataType, Field, Row, Schema, SimClock, Value};
use eii_storage::{Table, TableDef};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[path = "../../../tests/support/hazards.rs"]
mod hazards;
use hazards::hazard_value;

const TYPES: [DataType; 4] = [DataType::Int, DataType::Int, DataType::Float, DataType::Str];

/// `v` as a cell of column `col`: a draw of another type becomes NULL, as a
/// typed table requires.
fn typed(v: Value, col: usize) -> Value {
    if v.data_type() == Some(TYPES[col]) {
        v
    } else {
        Value::Null
    }
}

#[derive(Debug, Clone)]
enum Write {
    /// `(id, k_int, k_float, k_str)`; a live `id` is a constraint error.
    Insert(i64, [Value; 3]),
    /// Set column `1 + col` of row `id`; an absent `id` is a no-op.
    Update(i64, usize, Value),
    /// Move row `id` to another primary key (taken: a constraint error).
    Rekey(i64, i64),
    Delete(i64),
    Truncate,
}

/// Ids come from a domain of 10, so streams revisit, collide with and miss
/// rows; inserts are half of all writes so tables grow past a few rows.
fn write() -> impl Strategy<Value = Write> {
    let id = || 0i64..10;
    let insert = || {
        (id(), (hazard_value(), hazard_value(), hazard_value()))
            .prop_map(|(id, (a, b, c))| Write::Insert(id, [typed(a, 1), typed(b, 2), typed(c, 3)]))
    };
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        (id(), 0usize..3, hazard_value()).prop_map(|(id, c, v)| Write::Update(id, c, typed(v, 1 + c))),
        (id(), id()).prop_map(|(from, to)| Write::Rekey(from, to)),
        id().prop_map(Write::Delete),
        id().prop_map(Write::Delete),
        (0u8..8).prop_map(|n| if n == 0 { Write::Truncate } else { Write::Delete(i64::from(n)) }),
    ]
}

/// The reads made after a write: a scan's columns (any order, repeats, none)
/// and limit, and a lookup's bound column (0 is the primary key) and keys.
#[derive(Debug, Clone)]
struct Reads {
    cols: Vec<usize>,
    limit: usize,
    bound: usize,
    keys: Vec<Value>,
}

fn reads() -> impl Strategy<Value = Reads> {
    let cols = proptest::collection::vec(0usize..4, 0..5);
    let keys = proptest::collection::vec(hazard_value(), 0..6);
    ((cols, 0usize..14), (0usize..4, keys, 0i64..10)).prop_map(|((cols, limit), (bound, keys, id))| {
        // The primary key is probed with ids (and whatever else was drawn).
        let mut keys = keys;
        if bound == 0 {
            keys.extend([Value::Int(id), Value::Int(id)]);
        }
        Reads {
            cols,
            // 12 and 13 stand for "no limit"; 0 is a real `LIMIT 0`.
            limit: if limit < 12 { limit } else { usize::MAX },
            bound,
            keys,
        }
    })
}

/// A table with the primary key on `id`.
fn table() -> Table {
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int).not_null(),
        Field::new("k_int", DataType::Int),
        Field::new("k_float", DataType::Float),
        Field::new("k_str", DataType::Str),
    ]));
    Table::new(TableDef::new("t", schema).with_primary_key(0), SimClock::new())
}

/// Apply `w`; constraint errors are part of the stream.
fn apply(t: &mut Table, w: &Write) {
    match w {
        Write::Insert(id, cells) => {
            let row: Row = std::iter::once(Value::Int(*id)).chain(cells.iter().cloned()).collect();
            let _ = t.insert(row);
        }
        Write::Update(id, col, v) => {
            let _ = t.update_by_pk(&Value::Int(*id), &[(1 + col, v.clone())]);
        }
        Write::Rekey(from, to) => {
            let _ = t.update_by_pk(&Value::Int(*from), &[(0, Value::Int(*to))]);
        }
        Write::Delete(id) => {
            t.delete_by_pk(&Value::Int(*id));
        }
        Write::Truncate => t.truncate(),
    }
}

fn rows_of(batch: &ColumnarBatch) -> Vec<Row> {
    batch.to_batch().rows().to_vec()
}

fn picked<'a>(rows: impl IntoIterator<Item = &'a Row>, cols: &[usize]) -> Vec<Row> {
    rows.into_iter().map(|r| r.project(cols)).collect()
}

/// Both column reads of `t` against its row reads.
fn check_reads(t: &Table, r: &Reads) -> Result<(), TestCaseError> {
    let (scan, _) = t.scan_columns(&r.cols, r.limit);
    let all = t.all_rows();
    prop_assert_eq!(rows_of(&scan), picked(all.iter().take(r.limit), &r.cols));
    prop_assert_eq!(scan.schema().len(), r.cols.len());

    let (found, _) = t.lookup_in_columns(r.bound, &r.keys, &r.cols);
    let matching = |k| all.iter().filter(move |row: &&Row| row.get(r.bound) == k);
    prop_assert_eq!(rows_of(&found), picked(r.keys.iter().flat_map(matching), &r.cols));
    for k in &r.keys {
        prop_assert_eq!(t.lookup_eq(r.bound, k), matching(k).cloned().collect::<Vec<_>>(), "key {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn column_reads_equal_row_reads_across_writes(
        steps in proptest::collection::vec((write(), reads()), 1..40),
    ) {
        let mut t = table();
        // One answer in flight: the batch and the rows it held when it was
        // read, re-checked after every later write.
        let mut held: Option<(ColumnarBatch, Vec<Row>)> = None;
        for (w, r) in &steps {
            apply(&mut t, w);
            if let Some((batch, rows)) = &held {
                prop_assert_eq!(&rows_of(batch), rows, "after {:?}", w);
            }
            check_reads(&t, r)?;
            // Hold the bound lookup when it found something, else the scan.
            let (found, _) = t.lookup_in_columns(r.bound, &r.keys, &[0, 1, 2, 3]);
            let (scan, _) = t.scan_columns(&[0, 1, 2, 3], usize::MAX);
            let keep = if found.is_empty() { scan } else { found };
            held = Some((keep.clone(), rows_of(&keep)));
        }
    }

    /// The bound column a typed table never holds: cells of every type in one
    /// `Mixed` column, against binding lists of the same hazards.
    #[test]
    fn a_bound_column_gone_mixed_is_looked_up_key_by_key(
        cells in proptest::collection::vec(hazard_value(), 0..24),
        keys in proptest::collection::vec(hazard_value(), 0..6),
    ) {
        let col = Arc::new(Column::from_values(&cells, DataType::Int));
        let mut sweep = Vec::new();
        for k in &keys {
            sweep.extend((0..cells.len() as u32).filter(|&i| cells[i as usize] == *k));
        }
        let lists = KeyLists::new(std::slice::from_ref(&col), cells.len(), false);
        prop_assert_eq!(lists.lookup(&keys), sweep);
    }
}
