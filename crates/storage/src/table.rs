//! Tables: constraint-checked row storage with secondary indexes, a change
//! log, and cached statistics.

use std::ops::Bound;
use std::sync::{Arc, OnceLock};

use eii_data::{
    ColumnarBatch, EiiError, KeyProbe, Result, Row, Schema, SchemaRef, SimClock, Value,
};

use crate::changelog::{ChangeLog, ChangeOp};
use crate::index::{HashIndex, OrderedIndex};
use crate::stats::TableStats;

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

/// A mutable, indexed, logged table.
#[derive(Debug)]
pub struct Table {
    def: TableDef,
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
    live: usize,
    pk_index: Option<HashIndex>,
    hash_indexes: Vec<HashIndex>,
    ordered_indexes: Vec<OrderedIndex>,
    log: ChangeLog,
    clock: SimClock,
    /// Computed by the first [`Table::stats`] after a mutation; every
    /// mutation empties it.
    stats_cache: OnceLock<Arc<TableStats>>,
}

/// The index an equality lookup on one column goes through.
#[derive(Clone, Copy)]
enum EqIndex<'a> {
    Hash(&'a HashIndex),
    Ordered(&'a OrderedIndex),
}

impl<'a> EqIndex<'a> {
    fn get(self, key: &Value) -> &'a [RowId] {
        match self {
            EqIndex::Hash(ix) => ix.get(key),
            EqIndex::Ordered(ix) => ix.get(key),
        }
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(def: TableDef, clock: SimClock) -> Self {
        let pk_index = def.primary_key.map(HashIndex::new);
        Table {
            def,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pk_index,
            hash_indexes: Vec::new(),
            ordered_indexes: Vec::new(),
            log: ChangeLog::new(),
            clock,
            stats_cache: OnceLock::new(),
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
        self.stats_cache.take();
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
        for ix in &mut self.hash_indexes {
            ix.insert(row.get(ix.column).clone(), rid);
        }
        for ix in &mut self.ordered_indexes {
            ix.insert(row.get(ix.column).clone(), rid);
        }
    }

    fn unindex_row(&mut self, rid: RowId, row: &Row) {
        if let Some(ix) = &mut self.pk_index {
            ix.remove(&row.get(ix.column).clone(), rid);
        }
        for ix in &mut self.hash_indexes {
            ix.remove(&row.get(ix.column).clone(), rid);
        }
        for ix in &mut self.ordered_indexes {
            ix.remove(&row.get(ix.column).clone(), rid);
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
        self.stats_cache.take();
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
        self.stats_cache.take();
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

    /// The primary-key, hash or ordered index over `col`, in that order of
    /// preference.
    fn eq_index(&self, col: usize) -> Option<EqIndex<'_>> {
        let hash = self
            .pk_index
            .iter()
            .chain(&self.hash_indexes)
            .find(|ix| ix.column == col);
        hash.map(EqIndex::Hash).or_else(|| {
            let ordered = self.ordered_indexes.iter().find(|ix| ix.column == col);
            ordered.map(EqIndex::Ordered)
        })
    }

    /// Whether equality lookups on `col` probe an index (true) or scan the
    /// table (false).
    pub fn has_eq_index(&self, col: usize) -> bool {
        self.eq_index(col).is_some()
    }

    fn rows_at<'a>(&'a self, rids: &'a [RowId]) -> impl Iterator<Item = &'a Row> + 'a {
        rids.iter().filter_map(|&rid| self.get(rid))
    }

    /// Equality lookup, index-assisted when an index on `col` exists.
    pub fn lookup_eq(&self, col: usize, key: &Value) -> Vec<Row> {
        match self.eq_index(col) {
            Some(ix) => self.rows_at(ix.get(key)).cloned().collect(),
            None => self.scan(|r| r.get(col) == key),
        }
    }

    /// Multi-key equality lookup, by reference: the rows `lookup_eq` finds
    /// for each of `keys` in turn, concatenated — binding order, table order
    /// within a key, a duplicated key's rows duplicated. With an index on
    /// `col` that is one probe per key; without one it is a single scan that
    /// buckets rows by the keys they equal, not a scan per key.
    fn refs_in(&self, col: usize, keys: &[Value]) -> Vec<&Row> {
        if let Some(ix) = self.eq_index(col) {
            return keys.iter().flat_map(|k| self.rows_at(ix.get(k))).collect();
        }
        let probe = KeyProbe::new(keys);
        let mut per_key: Vec<Vec<&Row>> = vec![Vec::new(); keys.len()];
        for (_, row) in self.iter() {
            for i in probe.positions(row.get(col)) {
                per_key[i].push(row);
            }
        }
        per_key.into_iter().flatten().collect()
    }

    /// Multi-key equality lookup as cloned rows (the row-at-a-time form of
    /// [`Table::lookup_in_columns`]).
    pub fn lookup_in(&self, col: usize, keys: &[Value]) -> Vec<Row> {
        self.refs_in(col, keys).into_iter().cloned().collect()
    }

    /// The schema of a scan that ships columns `cols`: the table's own when
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

    /// Column scan: cells `cols` of the first `limit` live rows, in slot
    /// order, pushed straight into column builders — rows are visited by
    /// reference, and a cell that does not ship is never cloned.
    pub fn scan_columns(&self, cols: &[usize], limit: usize) -> ColumnarBatch {
        let rows = self.iter().map(|(_, r)| r).take(limit);
        ColumnarBatch::from_rows(self.schema_of(cols), cols, rows)
    }

    /// Cells `cols` of the rows [`Table::lookup_in`] returns, in its order,
    /// without cloning a row.
    pub fn lookup_in_columns(&self, col: usize, keys: &[Value], cols: &[usize]) -> ColumnarBatch {
        ColumnarBatch::from_rows(self.schema_of(cols), cols, self.refs_in(col, keys))
    }

    /// Range lookup on `col`, index-assisted when an ordered index exists.
    pub fn lookup_range(
        &self,
        col: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Vec<Row> {
        if let Some(ix) = self.ordered_indexes.iter().find(|ix| ix.column == col) {
            return ix
                .range(low, high)
                .into_iter()
                .filter_map(|rid| self.get(rid))
                .cloned()
                .collect();
        }
        self.scan(|r| {
            let v = r.get(col);
            let lo_ok = match low {
                Bound::Unbounded => true,
                Bound::Included(b) => v >= b,
                Bound::Excluded(b) => v > b,
            };
            let hi_ok = match high {
                Bound::Unbounded => true,
                Bound::Included(b) => v <= b,
                Bound::Excluded(b) => v < b,
            };
            lo_ok && hi_ok
        })
    }

    /// Build a hash index over `col` (no-op if one exists).
    pub fn create_hash_index(&mut self, col: usize) {
        if self.hash_indexes.iter().any(|ix| ix.column == col) {
            return;
        }
        let mut ix = HashIndex::new(col);
        for (rid, row) in self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(rid, s)| s.as_ref().map(|r| (rid, r)))
        {
            ix.insert(row.get(col).clone(), rid);
        }
        self.hash_indexes.push(ix);
    }

    /// Build an ordered index over `col` (no-op if one exists).
    pub fn create_ordered_index(&mut self, col: usize) {
        if self.ordered_indexes.iter().any(|ix| ix.column == col) {
            return;
        }
        let mut ix = OrderedIndex::new(col);
        for (rid, row) in self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(rid, s)| s.as_ref().map(|r| (rid, r)))
        {
            ix.insert(row.get(col).clone(), rid);
        }
        self.ordered_indexes.push(ix);
    }

    /// Table statistics: computed by the first call after a mutation,
    /// shared by every call until the next one.
    pub fn stats(&self) -> Arc<TableStats> {
        self.stats_cache
            .get_or_init(|| {
                let width = self.def.schema.len();
                Arc::new(TableStats::analyze(width, self.iter().map(|(_, r)| r)))
            })
            .clone()
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
        t.create_hash_index(1);
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

    #[test]
    fn range_lookup_with_and_without_index() {
        let mut t = table();
        for i in 0..20i64 {
            t.insert(row![i, format!("c{i}"), i as f64]).unwrap();
        }
        let scan = t.lookup_range(
            2,
            Bound::Included(&Value::Float(5.0)),
            Bound::Excluded(&Value::Float(10.0)),
        );
        t.create_ordered_index(2);
        let indexed = t.lookup_range(
            2,
            Bound::Included(&Value::Float(5.0)),
            Bound::Excluded(&Value::Float(10.0)),
        );
        assert_eq!(scan.len(), 5);
        let mut a = scan.clone();
        let mut b = indexed.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_cache_invalidation() {
        let mut t = table();
        t.insert(row![1i64, "a", 0.0]).unwrap();
        let first = t.stats();
        assert_eq!(first.row_count, 1);
        assert!(
            Arc::ptr_eq(&first, &t.stats()),
            "second call reuses the first's"
        );

        t.insert(row![2i64, "b", 0.0]).unwrap();
        assert_eq!(t.stats().row_count, 2, "insert");
        t.update_by_pk(&Value::Int(2), &[(1, Value::str("a"))])
            .unwrap();
        assert_eq!(t.stats().columns[1].ndv, 1, "update");
        t.delete_by_pk(&Value::Int(2));
        assert_eq!(t.stats().row_count, 1, "delete");
        t.truncate();
        assert_eq!(t.stats().row_count, 0, "truncate");
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
        let expected: Vec<Row> = keys.iter().flat_map(|k| t.lookup_eq(1, k)).collect();
        assert_eq!(expected.len(), 9);
        assert!(!t.has_eq_index(1));
        assert_eq!(t.lookup_in(1, &keys), expected, "one bucketing scan");
        t.create_hash_index(1);
        assert!(t.has_eq_index(1));
        assert_eq!(t.lookup_in(1, &keys), expected, "index probes");
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
