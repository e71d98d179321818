//! The running statistics against an analysis from scratch.
//!
//! `Table` builds a `StatsAccumulator` at its first `stats()` and from then on
//! tells it, in `touched`, which row every mutation removed and which it
//! added; `stats()` is a snapshot of it. [`oracle`] is the row walk the
//! accumulator replaced — five `HashSet`s and a running min/max — kept here as
//! the reference. Over random write streams this checks that the two can
//! never be told apart, `avg_width` included:
//!
//! - after every step on a table asked after every step, and at random
//!   moments on a twin whose accumulator is born late and fed several writes
//!   between two snapshots;
//! - through `insert`, `update_by_pk` (the same value again, NULL ↔ value, a
//!   primary-key change), `delete_by_pk`, `delete_where`, `truncate` and slot
//!   reuse, and through writes the table *rejects* — duplicate key, NULL in a
//!   non-nullable column, wrong type, wrong width — which must not move it;
//! - over cells from small domains around every hazard: NULL, NaN, `-0.0` and
//!   `0.0`, the infinities, `i64::MIN`/`MAX` (also as keys), the empty string,
//!   many copies of the current extreme, its only copy, the last row.
//!
//! A second property feeds `TableStats::analyze` an *untyped* batch, where an
//! `Int` and its equal `Float` twin share a column (the CSV and document
//! adapters can produce that): of equal values the first seen is the one kept.

use std::collections::HashSet;
use std::sync::Arc;

use eii_data::{DataType, Field, Row, Schema, SimClock, Value};
use eii_storage::{ColumnStats, Table, TableDef, TableStats};
use proptest::prelude::*;

/// `TableStats::analyze` as it was before the accumulator: one walk over the
/// rows, a set of distinct values per column.
fn oracle<'a>(width: usize, rows: impl Iterator<Item = &'a Row>) -> TableStats {
    let mut row_count = 0usize;
    let mut distinct: Vec<HashSet<Value>> = vec![HashSet::new(); width];
    let mut nulls = vec![0usize; width];
    let mut mins: Vec<Option<Value>> = vec![None; width];
    let mut maxs: Vec<Option<Value>> = vec![None; width];
    let mut widths = vec![0usize; width];
    for row in rows {
        row_count += 1;
        for (c, v) in row.values().iter().enumerate() {
            widths[c] += v.wire_size();
            if v.is_null() {
                nulls[c] += 1;
                continue;
            }
            distinct[c].insert(v.clone());
            match &mins[c] {
                Some(m) if m <= v => {}
                _ => mins[c] = Some(v.clone()),
            }
            match &maxs[c] {
                Some(m) if m >= v => {}
                _ => maxs[c] = Some(v.clone()),
            }
        }
    }
    let columns = (0..width)
        .map(|c| ColumnStats {
            ndv: distinct[c].len(),
            null_count: nulls[c],
            min: mins[c].clone(),
            max: maxs[c].clone(),
            avg_width: if row_count == 0 {
                0.0
            } else {
                widths[c] as f64 / row_count as f64
            },
        })
        .collect();
    TableStats { row_count, columns }
}

const P53: i64 = 1 << 53;

/// Primary keys: a domain of ten, so streams revisit, collide with and miss
/// rows, and the two `i64` extremes.
fn id() -> impl Strategy<Value = i64> {
    prop_oneof![0i64..10, 0i64..10, 0i64..10, Just(i64::MIN), Just(i64::MAX)]
}

/// A cell of column `col` (1 `Int`, 2 `Float`, 3 `Str`), NULL one time in
/// five. Each domain is a handful of values, so most rows share the current
/// extreme with others and some hold its only copy.
fn cell(col: usize) -> Box<dyn Strategy<Value = Value>> {
    const INTS: [i64; 6] = [i64::MIN, -1, 0, 1, P53 + 1, i64::MAX];
    const FLOATS: [f64; 8] =
        [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1.0, P53 as f64, f64::INFINITY, f64::NAN];
    const STRS: [&str; 4] = ["", "a", "b", "zz"];
    let typed: Box<dyn Strategy<Value = Value>> = match col {
        1 => Box::new((0..INTS.len()).prop_map(|i| Value::Int(INTS[i]))),
        2 => Box::new((0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i]))),
        _ => Box::new((0..STRS.len()).prop_map(|i| Value::str(STRS[i]))),
    };
    Box::new((0u8..5, typed).prop_map(|(n, v)| if n == 0 { Value::Null } else { v }))
}

#[derive(Debug, Clone)]
enum Write {
    /// `(id, n, x, s)`; a live `id` is a constraint error.
    Insert(i64, [Value; 3]),
    /// A row the table must refuse: 0 a NULL key, 1 a string in the `Int`
    /// column, 2 an integer in the `Float` column, 3 a row one cell short.
    InsertBad(i64, u8),
    /// Set column `col` of row `id`; an absent `id` is a no-op.
    Update(i64, usize, Value),
    /// Write column `col` of row `id` back unchanged.
    UpdateSame(i64, usize),
    /// An assignment the table must refuse: NULL into the key, or a string
    /// into the `Float` column.
    UpdateBad(i64, bool),
    /// Move row `id` to another primary key (taken: a constraint error).
    Rekey(i64, i64),
    Delete(i64),
    /// Delete every row whose column `col` equals the value.
    DeleteWhere(usize, Value),
    Truncate,
}

fn insert() -> impl Strategy<Value = Write> {
    (id(), (cell(1), cell(2), cell(3))).prop_map(|(id, (n, x, s))| Write::Insert(id, [n, x, s]))
}

fn write() -> impl Strategy<Value = Write> {
    let update = |col: usize| (id(), cell(col)).prop_map(move |(id, v)| Write::Update(id, col, v));
    let delete_where = |col: usize| cell(col).prop_map(move |v| Write::DeleteWhere(col, v));
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        (id(), 0u8..4).prop_map(|(id, how)| Write::InsertBad(id, how)),
        update(1),
        update(2),
        update(3),
        (id(), 0usize..4).prop_map(|(id, col)| Write::UpdateSame(id, col)),
        (id(), any::<bool>()).prop_map(|(id, key)| Write::UpdateBad(id, key)),
        (id(), id()).prop_map(|(from, to)| Write::Rekey(from, to)),
        id().prop_map(Write::Delete),
        id().prop_map(Write::Delete),
        id().prop_map(Write::Delete),
        delete_where(1),
        delete_where(2),
        (0u8..3).prop_map(|n| if n == 0 { Write::Truncate } else { Write::DeleteWhere(3, Value::Null) }),
    ]
}

fn table() -> Table {
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int).not_null(),
        Field::new("n", DataType::Int),
        Field::new("x", DataType::Float),
        Field::new("s", DataType::Str),
    ]));
    Table::new(TableDef::new("t", schema).with_primary_key(0), SimClock::new())
}

/// Apply `w`; whether the table refused it (refusals are part of the stream).
fn apply(t: &mut Table, w: &Write) -> bool {
    let key = |id: &i64| Value::Int(*id);
    match w {
        Write::Insert(id, cells) => {
            let row: Row = std::iter::once(key(id)).chain(cells.iter().cloned()).collect();
            t.insert(row).is_err()
        }
        Write::InsertBad(id, how) => {
            let mut cells = vec![key(id), Value::Int(1), Value::Float(1.0), Value::str("a")];
            match how {
                0 => cells[0] = Value::Null,
                1 => cells[1] = Value::str("a"),
                2 => cells[2] = Value::Int(1),
                _ => cells.truncate(3),
            }
            let refused = t.insert(Row::new(cells)).is_err();
            assert!(refused, "{w:?} was accepted");
            refused
        }
        Write::Update(id, col, v) => t.update_by_pk(&key(id), &[(*col, v.clone())]).is_err(),
        Write::UpdateSame(id, col) => {
            let Some((_, row)) = t.get_by_pk(&key(id)) else {
                return false;
            };
            let same = row.get(*col).clone();
            t.update_by_pk(&key(id), &[(*col, same)]).is_err()
        }
        Write::UpdateBad(id, null_key) => {
            let bad = if *null_key { (0, Value::Null) } else { (2, Value::str("a")) };
            let present = t.get_by_pk(&key(id)).is_some();
            let refused = t.update_by_pk(&key(id), &[bad]).is_err();
            assert_eq!(refused, present, "{w:?}");
            refused
        }
        Write::Rekey(from, to) => t.update_by_pk(&key(from), &[(0, key(to))]).is_err(),
        Write::Delete(id) => {
            t.delete_by_pk(&key(id));
            false
        }
        Write::DeleteWhere(col, v) => {
            t.delete_where(|r| r.get(*col) == v);
            false
        }
        Write::Truncate => {
            t.truncate();
            false
        }
    }
}

fn from_scratch(t: &Table) -> TableStats {
    oracle(t.schema().len(), t.iter().map(|(_, r)| r))
}

proptest! {
    #[test]
    fn running_statistics_equal_an_analysis_from_scratch(
        steps in proptest::collection::vec((write(), 0u8..4), 1..60),
        born_at in 0usize..40,
    ) {
        // `every` is asked after every step, so its accumulator is born on an
        // empty or one-row table; `late` is first asked after `born_at` steps
        // and then three steps in four, so it is born over whatever the
        // stream left and takes bursts between snapshots.
        let mut every = table();
        let mut late = table();
        for (at, (w, skip)) in steps.iter().enumerate() {
            let before = every.stats();
            let refused = apply(&mut every, w);
            prop_assert_eq!(apply(&mut late, w), refused);
            prop_assert_eq!(&*every.stats(), &from_scratch(&every), "after {:?}", w);
            if refused {
                prop_assert!(Arc::ptr_eq(&before, &every.stats()), "{:?} was refused and moved the statistics", w);
            }
            if at >= born_at && *skip != 0 {
                prop_assert_eq!(&*late.stats(), &from_scratch(&late), "after {:?}, born at {}", w, born_at);
            }
        }
        prop_assert_eq!(&*late.stats(), &from_scratch(&late), "at the end, born at {}", born_at);
        prop_assert_eq!(late.stats(), every.stats());
        // Emptied, both read what a table that never held a row reads.
        every.truncate();
        prop_assert_eq!(&*every.stats(), &oracle(4, std::iter::empty()));
    }

    #[test]
    fn analyze_over_an_untyped_batch_keeps_the_first_seen_of_equal_values(
        cells in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
    ) {
        // `Int`/`Float` twins (equal, hashed alike, told apart only by
        // `Debug`), integers one apart at 2^53 where `f64` folds them, signed
        // zeros, NaN, NULL, strings: all in one column.
        let hazards = [
            Value::Int(1), Value::Float(1.0), Value::Int(0), Value::Float(0.0), Value::Float(-0.0),
            Value::Int(P53), Value::Float(P53 as f64), Value::Int(P53 + 1),
            Value::Float(f64::NAN), Value::Null, Value::str(""), Value::str("a"),
        ];
        let rows: Vec<Row> = cells
            .iter()
            .map(|&(a, b)| Row::new(vec![hazards[a].clone(), hazards[b].clone()]))
            .collect();
        let found = TableStats::analyze(2, rows.iter());
        let expected = oracle(2, rows.iter());
        prop_assert_eq!(&found, &expected);
        // `==` calls `Int(1)` and `Float(1.0)` equal; the rendering does not.
        prop_assert_eq!(format!("{found:?}"), format!("{expected:?}"));
    }
}
