//! Tables: constraint-checked row storage with a primary-key index, a change
//! log, and derived state — statistics, kept current by every write once
//! somebody has asked for them ([`crate::stats`]), a per-version column image
//! and a per-version key index of each bound column.
//!
//! The rows are the store of record: the change log, IVM, `get_by_pk` and
//! `all_rows` read them. The column reads — [`Table::scan_columns`] and
//! [`Table::lookup_in_columns`], and `lookup_eq` through it — are views of the
//! *image*: field `c` of the live rows in slot order, built by the first reader
//! that asks for column `c` after a mutation (under the table's read lock;
//! concurrent readers build it once) and dropped by every mutation. A scan is
//! `Arc` clones of image columns, a bound lookup the same columns under a
//! selection, so a read copies no cell and an answer already handed out keeps
//! the columns of the version it read — the next write builds new ones.
//!
//! Every column finds a binding list's rows in its *key index*, a
//! [`KeyLists`] over its image column, built by the first bound read of the
//! column after a mutation and dropped with the image; a key's rows come in
//! slot order. Only the primary key (for the write path) and the statistics
//! keep `Value`-keyed maps.

use std::sync::{Arc, OnceLock};

use eii_data::keys::KeyLists;
use eii_data::{
    Column, ColumnBuilder, ColumnarBatch, EiiError, Result, Row, Schema, SchemaRef, SimClock,
    Value,
};

use crate::changelog::{ChangeLog, ChangeOp};
use crate::index::HashIndex;
use crate::stats::{StatsAccumulator, TableStats};

/// Identifies a row slot within a table. Stable across unrelated mutations,
/// recycled after deletion.
pub type RowId = usize;

/// Static description of a table.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: String,
    pub schema: SchemaRef,
    /// Position of the primary-key column, if the table has one.
    pub primary_key: Option<usize>,
}

impl TableDef {
    /// A table without a primary key.
    pub fn new(name: impl Into<String>, schema: SchemaRef) -> Self {
        TableDef {
            name: name.into(),
            schema,
            primary_key: None,
        }
    }

    /// Declare the primary-key column.
    pub fn with_primary_key(mut self, col: usize) -> Self {
        self.primary_key = Some(col);
        self
    }
}

/// A mutable, keyed, logged table.
#[derive(Debug)]
pub struct Table {
    def: TableDef,
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
    live: usize,
    pk_index: Option<HashIndex>,
    log: ChangeLog,
    clock: SimClock,
    /// The running statistics: built from the rows by the first
    /// [`Table::stats`], fed by every mutation from then on.
    stats_acc: OnceLock<StatsAccumulator>,
    /// What `stats_acc` read at the first [`Table::stats`] after a mutation;
    /// every mutation empties it.
    stats_cache: OnceLock<Arc<TableStats>>,
    /// The column image, one cell per schema field: that field of the live
    /// rows in slot order. Filled by the first read of the column after a
    /// mutation; every mutation empties it.
    image: Vec<OnceLock<Arc<Column>>>,
    /// The key indexes, one cell per schema field: a [`KeyLists`] over image
    /// column `c`, filled by the first bound read of it after a mutation;
    /// every mutation empties it.
    key_index: Vec<OnceLock<KeyLists>>,
}

/// What a column read had to build: 0 of each on a warm read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Built {
    /// Image columns.
    pub columns: usize,
    /// Key indexes.
    pub indexes: usize,
}

impl Table {
    /// Create an empty table.
    pub fn new(def: TableDef, clock: SimClock) -> Self {
        let pk_index = def.primary_key.map(HashIndex::new);
        let image = def.schema.fields().iter().map(|_| OnceLock::new()).collect();
        let key_index = def.schema.fields().iter().map(|_| OnceLock::new()).collect();
        Table {
            def,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pk_index,
            log: ChangeLog::new(),
            clock,
            stats_acc: OnceLock::new(),
            stats_cache: OnceLock::new(),
            image,
            key_index,
        }
    }

    /// The table definition.
    pub fn def(&self) -> &TableDef {
        &self.def
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.def.schema
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.live
    }

    /// The change log.
    pub fn changelog(&self) -> &ChangeLog {
        &self.log
    }

    /// The rows changed — `old` left, `new` arrived: tell the statistics, drop
    /// everything else derived from the rows. Every mutation ends here, so a
    /// new one cannot forget a cache.
    fn touched(&mut self, old: Option<&Row>, new: Option<&Row>) {
        if let Some(acc) = self.stats_acc.get_mut() {
            old.into_iter().for_each(|row| acc.remove(row));
            new.into_iter().for_each(|row| acc.add(row));
        }
        self.stats_cache.take();
        for (column, index) in self.image.iter_mut().zip(&mut self.key_index) {
            column.take();
            index.take();
        }
    }

    fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.def.schema.len() {
            return Err(EiiError::Constraint(format!(
                "table {}: row width {} != schema width {}",
                self.def.name,
                row.len(),
                self.def.schema.len()
            )));
        }
        for (i, (v, f)) in row.values().iter().zip(self.def.schema.fields()).enumerate() {
            if v.is_null() {
                if !f.nullable {
                    return Err(EiiError::Constraint(format!(
                        "table {}: NULL in non-nullable column {} ({})",
                        self.def.name, i, f.name
                    )));
                }
                continue;
            }
            if v.data_type() != Some(f.data_type) {
                return Err(EiiError::Constraint(format!(
                    "table {}: column {} ({}) expects {}, got {v}",
                    self.def.name, i, f.name, f.data_type
                )));
            }
        }
        Ok(())
    }

    /// Insert a row, enforcing width, types, not-null, and primary-key
    /// uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.check_row(&row)?;
        if let (Some(pk_col), Some(ix)) = (self.def.primary_key, &self.pk_index) {
            let key = row.get(pk_col);
            if !ix.get(key).is_empty() {
                return Err(EiiError::Constraint(format!(
                    "table {}: duplicate primary key {key}",
                    self.def.name
                )));
            }
        }
        let rid = match self.free.pop() {
            Some(rid) => {
                self.slots[rid] = Some(row.clone());
                rid
            }
            None => {
                self.slots.push(Some(row.clone()));
                self.slots.len() - 1
            }
        };
        self.index_row(rid, &row);
        self.live += 1;
        self.touched(None, Some(&row));
        self.log
            .append(self.clock.now_ms(), ChangeOp::Insert { new: row });
        Ok(rid)
    }

    /// Insert many rows (stops at the first constraint violation).
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    fn index_row(&mut self, rid: RowId, row: &Row) {
        if let Some(ix) = &mut self.pk_index {
            ix.insert(row.get(ix.column).clone(), rid);
        }
    }

    fn unindex_row(&mut self, rid: RowId, row: &Row) {
        if let Some(ix) = &mut self.pk_index {
            ix.remove(row.get(ix.column), rid);
        }
    }

    /// Fetch a live row by id.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.slots.get(rid).and_then(Option::as_ref)
    }

    /// Look the row up by primary key (requires a primary key).
    pub fn get_by_pk(&self, key: &Value) -> Option<(RowId, &Row)> {
        let ix = self.pk_index.as_ref()?;
        let rid = *ix.get(key).first()?;
        self.get(rid).map(|r| (rid, r))
    }

    /// Update selected columns of the row with the given primary key.
    /// Returns true when a row was updated.
    pub fn update_by_pk(&mut self, key: &Value, assignments: &[(usize, Value)]) -> Result<bool> {
        let Some((rid, old)) = self.get_by_pk(key) else {
            return Ok(false);
        };
        let old = old.clone();
        let mut new = old.clone();
        for (col, v) in assignments {
            new.set(*col, v.clone());
        }
        self.check_row(&new)?;
        if let Some(pk_col) = self.def.primary_key {
            if new.get(pk_col) != old.get(pk_col) {
                // PK change: enforce uniqueness of the new key.
                if self
                    .pk_index
                    .as_ref()
                    .is_some_and(|ix| !ix.get(new.get(pk_col)).is_empty())
                {
                    return Err(EiiError::Constraint(format!(
                        "table {}: duplicate primary key {}",
                        self.def.name,
                        new.get(pk_col)
                    )));
                }
            }
        }
        self.unindex_row(rid, &old);
        self.slots[rid] = Some(new.clone());
        self.index_row(rid, &new);
        self.touched(Some(&old), Some(&new));
        self.log
            .append(self.clock.now_ms(), ChangeOp::Update { old, new });
        Ok(true)
    }

    /// Delete the row with the given primary key. Returns true when a row
    /// was deleted.
    pub fn delete_by_pk(&mut self, key: &Value) -> bool {
        let Some((rid, _)) = self.get_by_pk(key) else {
            return false;
        };
        self.delete(rid)
    }

    /// Delete a row by id. Returns true when a live row was deleted.
    pub fn delete(&mut self, rid: RowId) -> bool {
        let Some(row) = self.slots.get_mut(rid).and_then(Option::take) else {
            return false;
        };
        self.unindex_row(rid, &row);
        self.free.push(rid);
        self.live -= 1;
        self.touched(Some(&row), None);
        self.log
            .append(self.clock.now_ms(), ChangeOp::Delete { old: row });
        true
    }

    /// Delete every row matching the predicate; returns the count.
    pub fn delete_where(&mut self, pred: impl Fn(&Row) -> bool) -> usize {
        let victims: Vec<RowId> = self
            .iter()
            .filter(|(_, r)| pred(r))
            .map(|(rid, _)| rid)
            .collect();
        let n = victims.len();
        for rid in victims {
            self.delete(rid);
        }
        n
    }

    /// Remove all rows (logged as individual deletes).
    pub fn truncate(&mut self) {
        self.delete_where(|_| true);
    }

    /// Iterate over live `(RowId, &Row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(rid, s)| s.as_ref().map(|r| (rid, r)))
    }

    /// Full scan with a row predicate, cloning matching rows.
    pub fn scan(&self, pred: impl Fn(&Row) -> bool) -> Vec<Row> {
        self.iter()
            .filter(|(_, r)| pred(r))
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// All rows.
    pub fn all_rows(&self) -> Vec<Row> {
        self.scan(|_| true)
    }

    /// The rows whose cell `col` equals `key`, in slot order: a one-key
    /// [`Self::lookup_in_columns`] of every column.
    pub fn lookup_eq(&self, col: usize, key: &Value) -> Vec<Row> {
        let all: Vec<usize> = (0..self.def.schema.len()).collect();
        let (found, _) = self.lookup_in_columns(col, std::slice::from_ref(key), &all);
        found.to_batch().into_rows()
    }

    /// The schema of a read that ships columns `cols`: the table's own when
    /// that is all of them in order.
    fn schema_of(&self, cols: &[usize]) -> SchemaRef {
        let schema = &self.def.schema;
        if cols.iter().copied().eq(0..schema.len()) {
            return schema.clone();
        }
        Arc::new(Schema::new(
            cols.iter().map(|&c| schema.field(c).clone()).collect(),
        ))
    }

    /// Image column `c`, built here — and counted in `built` — when no read
    /// since the last mutation asked for it.
    fn image_column(&self, c: usize, built: &mut usize) -> Arc<Column> {
        let build = || {
            *built += 1;
            let mut b = ColumnBuilder::new(self.def.schema.field(c).data_type, self.live);
            self.iter().for_each(|(_, row)| b.push(row.get(c)));
            Arc::new(b.finish())
        };
        self.image[c].get_or_init(build).clone()
    }

    /// Image columns `cols` as a batch over every live row.
    fn image_of(&self, cols: &[usize], built: &mut usize) -> ColumnarBatch {
        let columns = cols.iter().map(|&c| self.image_column(c, built)).collect();
        ColumnarBatch::new(self.schema_of(cols), columns, self.live)
    }

    /// Column scan: cells `cols` of the first `limit` live rows, in slot
    /// order, as shared image columns — no cell is copied. Also returns how
    /// many of the columns this call had to build (0 on a warm read).
    pub fn scan_columns(&self, cols: &[usize], limit: usize) -> (ColumnarBatch, usize) {
        let mut built = 0;
        let image = self.image_of(cols, &mut built);
        (image.head(limit), built)
    }

    /// Multi-key equality lookup: cells `cols` of the rows whose cell `col`
    /// equals each of `keys` in turn — binding order, a key's rows in slot
    /// order, a duplicated key's rows twice — as a selection over shared image
    /// columns, and what this call had to build. The list is probed, as one
    /// column, against column `col`'s key index, which the first bound read
    /// after a mutation builds over image column `col`.
    pub fn lookup_in_columns(
        &self,
        col: usize,
        keys: &[Value],
        cols: &[usize],
    ) -> (ColumnarBatch, Built) {
        let mut built = Built::default();
        let build = || {
            built.indexes += 1;
            let column = self.image_column(col, &mut built.columns);
            KeyLists::new(&[column], self.live, false)
        };
        let selection = self.key_index[col].get_or_init(build).lookup(keys);
        let image = self.image_of(cols, &mut built.columns);
        (image.select(selection), built)
    }

    /// Does nothing: every column's key index is built by its first bound
    /// read after a write. Kept for callers written when an index was
    /// declared per column.
    pub fn create_hash_index(&mut self, _col: usize) {}

    /// Table statistics, exactly what analysing the live rows would find: an
    /// O(width) snapshot of the running statistics by the first call after a
    /// mutation, shared by every call until the next one. Only the first call
    /// in the table's life reads the rows.
    pub fn stats(&self) -> Arc<TableStats> {
        let snapshot = || {
            let rows = self.iter().map(|(_, r)| r);
            let acc = self.stats_acc.get_or_init(|| StatsAccumulator::over(self.def.schema.len(), rows));
            Arc::new(acc.snapshot())
        };
        self.stats_cache.get_or_init(snapshot).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, DataType, Field, Schema};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("balance", DataType::Float),
        ]));
        Table::new(
            TableDef::new("customers", schema).with_primary_key(0),
            SimClock::new(),
        )
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table();
        t.insert(row![1i64, "alice", 10.0]).unwrap();
        t.insert(row![2i64, "bob", 20.0]).unwrap();
        assert_eq!(t.row_count(), 2);
        let (_, r) = t.get_by_pk(&Value::Int(2)).unwrap();
        assert_eq!(r.get(1), &Value::str("bob"));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        t.insert(row![1i64, "alice", 10.0]).unwrap();
        let err = t.insert(row![1i64, "bob", 0.0]).unwrap_err();
        assert_eq!(err.kind(), "constraint");
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn type_and_nullability_enforced() {
        let mut t = table();
        assert_eq!(
            t.insert(row!["not an int", "x", 0.0]).unwrap_err().kind(),
            "constraint"
        );
        let null_id = Row::new(vec![Value::Null, Value::str("x"), Value::Float(0.0)]);
        assert_eq!(t.insert(null_id).unwrap_err().kind(), "constraint");
        let null_name = Row::new(vec![Value::Int(5), Value::Null, Value::Float(0.0)]);
        t.insert(null_name).unwrap();
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut t = table();
        assert_eq!(t.insert(row![1i64]).unwrap_err().kind(), "constraint");
    }

    #[test]
    fn update_by_pk_reindexes() {
        let mut t = table();
        t.insert(row![1i64, "alice", 10.0]).unwrap();
        assert!(t.update_by_pk(&Value::Int(1), &[(1, Value::str("alicia"))]).unwrap());
        assert!(t.lookup_eq(1, &Value::str("alice")).is_empty());
        assert_eq!(t.lookup_eq(1, &Value::str("alicia")).len(), 1);
        assert!(!t.update_by_pk(&Value::Int(99), &[]).unwrap());
    }

    #[test]
    fn pk_update_to_existing_key_rejected() {
        let mut t = table();
        t.insert(row![1i64, "a", 0.0]).unwrap();
        t.insert(row![2i64, "b", 0.0]).unwrap();
        let err = t
            .update_by_pk(&Value::Int(2), &[(0, Value::Int(1))])
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn delete_recycles_slots() {
        let mut t = table();
        let rid = t.insert(row![1i64, "a", 0.0]).unwrap();
        assert!(t.delete(rid));
        assert!(!t.delete(rid), "double delete is a no-op");
        assert_eq!(t.row_count(), 0);
        let rid2 = t.insert(row![2i64, "b", 0.0]).unwrap();
        assert_eq!(rid, rid2, "slot recycled");
        // Deleted PK is free again.
        t.insert(row![1i64, "c", 0.0]).unwrap();
    }

    #[test]
    fn changelog_records_mutations() {
        let mut t = table();
        t.insert(row![1i64, "a", 0.0]).unwrap();
        t.update_by_pk(&Value::Int(1), &[(2, Value::Float(5.0))])
            .unwrap();
        t.delete_by_pk(&Value::Int(1));
        let ops: Vec<_> = t.changelog().since(0).iter().map(|c| &c.op).collect();
        assert!(matches!(ops[0], ChangeOp::Insert { .. }));
        assert!(matches!(ops[1], ChangeOp::Update { .. }));
        assert!(matches!(ops[2], ChangeOp::Delete { .. }));
    }

    /// Fill every per-version cache: the statistics snapshot (two calls with
    /// no write between them share it), all image columns and the key index
    /// of each column (a bound read of it builds it).
    fn warm(t: &Table) {
        assert!(Arc::ptr_eq(&t.stats(), &t.stats()));
        t.scan_columns(&[0, 1, 2], usize::MAX);
        t.lookup_in_columns(0, &[Value::Int(1)], &[0]);
        t.lookup_in_columns(1, &[Value::str("a")], &[0]);
        t.lookup_in_columns(2, &[Value::Float(0.0)], &[0]);
        assert!(t.stats_cache.get().is_some() && t.image.iter().all(|c| c.get().is_some()));
        assert!(t.key_index.iter().all(|ix| ix.get().is_some()));
    }

    /// A mutation drops every per-version cache and keeps the running
    /// statistics, which have followed it.
    fn assert_cold(t: &Table, after: &str) {
        assert!(t.stats_cache.get().is_none(), "statistics snapshot survived {after}");
        assert!(t.image.iter().all(|c| c.get().is_none()), "image survived {after}");
        assert!(t.key_index.iter().all(|ix| ix.get().is_none()), "key index survived {after}");
        let kept = t.stats_acc.get().expect("running statistics dropped").snapshot();
        let rows = t.iter().map(|(_, r)| r);
        assert_eq!(kept, TableStats::analyze(t.schema().len(), rows), "after {after}");
    }

    #[test]
    fn stats_cache_invalidation() {
        let mut t = table();
        t.insert(row![1i64, "a", 0.0]).unwrap();
        assert!(t.stats_acc.get().is_none(), "a table nobody asks keeps no statistics");
        assert_eq!(t.stats().row_count, 1);

        warm(&t);
        t.insert(row![2i64, "b", 0.0]).unwrap();
        assert_cold(&t, "insert");
        assert_eq!(t.stats().row_count, 2, "insert");

        warm(&t);
        t.update_by_pk(&Value::Int(2), &[(1, Value::str("a"))])
            .unwrap();
        assert_cold(&t, "update_by_pk");
        assert_eq!(t.stats().columns[1].ndv, 1, "update");

        warm(&t);
        let rid = t.get_by_pk(&Value::Int(2)).unwrap().0;
        assert!(t.delete(rid));
        assert_cold(&t, "delete");
        assert_eq!(t.stats().row_count, 1, "delete");

        // The last slot is vacant now, and an insert reuses it.
        warm(&t);
        assert_eq!(t.insert(row![3i64, "c", 0.0]).unwrap(), rid, "slot reused");
        assert_cold(&t, "an insert into a reused slot");

        warm(&t);
        assert_eq!(t.delete_where(|r| r.get(0) == &Value::Int(3)), 1);
        assert_cold(&t, "delete_where");

        warm(&t);
        t.truncate();
        assert_cold(&t, "truncate");
        assert_eq!(t.stats().row_count, 0, "truncate");

        // A write that fails its constraint changed nothing and drops nothing.
        t.insert(row![1i64, "a", 0.0]).unwrap();
        warm(&t);
        let before = t.stats();
        t.insert(row![1i64, "dup", 0.0]).unwrap_err();
        t.update_by_pk(&Value::Int(1), &[(0, Value::Null)]).unwrap_err();
        assert!(t.image.iter().all(|c| c.get().is_some()));
        assert!(t.key_index.iter().all(|ix| ix.get().is_some()));
        assert!(Arc::ptr_eq(&before, &t.stats()));
    }

    fn rows_of(batch: &ColumnarBatch) -> Vec<Row> {
        batch.to_batch().into_rows()
    }

    /// A bound read keeps the key index and the columns of the version it
    /// read: a held answer reads its old rows after a write, and the next
    /// bound read builds a new index — whose rows of a key come in slot
    /// order, a reused slot included.
    #[test]
    fn a_lookup_held_across_a_write_keeps_its_rows() {
        let mut t = table();
        for i in 0..6i64 {
            t.insert(row![i, format!("n{}", i % 2), i as f64]).unwrap();
        }
        let odd = [Value::str("n1")];
        let (held, built) = t.lookup_in_columns(1, &odd, &[0, 2]);
        assert_eq!(built, Built { columns: 3, indexes: 1 });
        let before = rows_of(&held);
        assert_eq!(before, [row![1i64, 1.0], row![3i64, 3.0], row![5i64, 5.0]]);
        assert_eq!(t.lookup_in_columns(1, &odd, &[0, 2]).1, Built::default());

        t.update_by_pk(&Value::Int(1), &[(2, Value::Float(99.0))]).unwrap();
        t.delete_by_pk(&Value::Int(3));
        t.insert(row![9i64, "n1", 9.0]).unwrap();
        assert_eq!(rows_of(&held), before, "the held answer reads the version it read");
        let (after, built) = t.lookup_in_columns(1, &odd, &[0, 2]);
        assert_eq!(built, Built { columns: 3, indexes: 1 });
        assert_eq!(rows_of(&after), [row![1i64, 99.0], row![9i64, 9.0], row![5i64, 5.0]]);
    }

    #[test]
    fn lookup_in_concatenates_per_key_lookups() {
        let mut t = table();
        for i in 0..12i64 {
            t.insert(row![i, format!("n{}", i % 4), 0.0]).unwrap();
        }
        // A duplicated key, a key with no rows, keys out of table order.
        let keys = [
            Value::str("n3"),
            Value::str("n0"),
            Value::str("zz"),
            Value::str("n3"),
        ];
        let all = [0, 1, 2];
        let sweep = |t: &Table| -> Vec<Row> {
            keys.iter().flat_map(|k| t.scan(|r| r.get(1) == k)).collect()
        };
        let expected = sweep(&t);
        assert_eq!(expected.len(), 9);
        assert_eq!(rows_of(&t.lookup_in_columns(1, &keys, &all).0), expected, "key index");
        // A vacant slot below the rows found: positions, not slot ids.
        t.delete_by_pk(&Value::Int(0));
        let expected = sweep(&t);
        assert_eq!(expected.len(), 8);
        assert_eq!(rows_of(&t.lookup_in_columns(1, &keys, &all).0), expected, "sparse table");
        let one_key: Vec<Row> = keys.iter().flat_map(|k| t.lookup_eq(1, k)).collect();
        assert_eq!(one_key, expected, "lookup_eq is a one-key lookup");
    }

    #[test]
    fn a_read_builds_only_what_it_reads_and_only_once() {
        let mut t = table();
        for i in 0..5i64 {
            t.insert(row![i, format!("n{i}"), i as f64]).unwrap();
        }
        let (first, built) = t.scan_columns(&[2, 0], usize::MAX);
        assert_eq!(built, 2, "a scan of two columns builds those two");
        assert!(t.image[1].get().is_none(), "and not the third");
        let (second, built) = t.scan_columns(&[0, 2], 3);
        assert_eq!((built, second.num_rows()), (0, 3), "a second scan builds nothing");
        assert!(Arc::ptr_eq(first.column(0), second.column(1)), "and shares the first's");
        assert!(Arc::ptr_eq(first.column(1), second.column(0)));
        // A bound lookup is a selection over the same columns; it also reads
        // (here: builds) the bound column and its key index, once.
        let (found, built) = t.lookup_in_columns(0, &[Value::Int(3), Value::Int(3)], &[0, 2]);
        let pk = Built { columns: 0, indexes: 1 };
        assert_eq!((built, found.selection()), (pk, Some(&[3u32, 3][..])));
        assert!(Arc::ptr_eq(found.column(1), first.column(0)));
        let (found, built) = t.lookup_in_columns(1, &[Value::str("n4")], &[0]);
        let cold = Built { columns: 1, indexes: 1 };
        assert_eq!((built, found.selection()), (cold, Some(&[4u32][..])));
        let (_, built) = t.lookup_in_columns(1, &[Value::str("n2")], &[0]);
        assert_eq!(built, Built::default(), "a second bound read of the version builds nothing");

        // An answer keeps the columns of the version it read.
        t.update_by_pk(&Value::Int(0), &[(2, Value::Float(99.0))]).unwrap();
        let (after, built) = t.scan_columns(&[2, 0], usize::MAX);
        assert_eq!(built, 2, "the first read after a write builds again");
        assert_eq!(first.value_at(0, 0), Value::Float(0.0));
        assert_eq!(after.value_at(0, 0), Value::Float(99.0));
    }

    #[test]
    fn sixteen_threads_scanning_a_cold_table_see_one_build() {
        let mut t = table();
        for i in 0..2_000i64 {
            t.insert(row![i, format!("n{i}"), i as f64]).unwrap();
        }
        let barrier = std::sync::Barrier::new(16);
        let scan = || {
            barrier.wait();
            t.scan_columns(&[0, 1, 2], usize::MAX)
        };
        let reads: Vec<(ColumnarBatch, usize)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..16).map(|_| s.spawn(scan)).collect();
            threads.into_iter().map(|h| h.join().expect("scan thread")).collect()
        });
        let built: usize = reads.iter().map(|(_, built)| built).sum();
        assert_eq!(built, 3, "each column built by exactly one of the readers");
        for (batch, _) in &reads {
            for c in 0..3 {
                assert!(Arc::ptr_eq(batch.column(c), reads[0].0.column(c)));
            }
        }
    }

    #[test]
    fn truncate_empties_table() {
        let mut t = table();
        for i in 0..5i64 {
            t.insert(row![i, "x", 0.0]).unwrap();
        }
        t.truncate();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.changelog().len(), 10);
    }
}
