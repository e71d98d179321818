//! Secondary indexes over table rows.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use eii_data::keys::KeyHasher;
use eii_data::Value;

use crate::table::RowId;

/// A hash index from a single column's value to the row ids holding it.
/// Equality lookups only, under [`Value`]'s `Eq` (`Int(2^53)` and
/// `Float(2^53)` are one key, `Int(2^53 + 1)` another), hashed by the fixed
/// [`KeyHasher`].
#[derive(Debug, Default)]
pub struct HashIndex {
    map: HashMap<Value, Vec<RowId>, KeyHasher>,
    pub(crate) column: usize,
}

impl HashIndex {
    /// New empty index over column position `column`.
    pub fn new(column: usize) -> Self {
        HashIndex {
            map: HashMap::default(),
            column,
        }
    }

    /// Column position the index covers.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Register `rid` under `key`.
    pub fn insert(&mut self, key: Value, rid: RowId) {
        self.map.entry(key).or_default().push(rid);
    }

    /// Remove `rid` from under `key`.
    pub fn remove(&mut self, key: &Value, rid: RowId) {
        if let Some(v) = self.map.get_mut(key) {
            v.retain(|r| *r != rid);
            if v.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Row ids with exactly this key.
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// An ordered index supporting range scans.
#[derive(Debug, Default)]
pub struct OrderedIndex {
    map: BTreeMap<Value, Vec<RowId>>,
    pub(crate) column: usize,
}

impl OrderedIndex {
    /// New empty index over column position `column`.
    pub fn new(column: usize) -> Self {
        OrderedIndex {
            map: BTreeMap::new(),
            column,
        }
    }

    /// Column position the index covers.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Register `rid` under `key`.
    pub fn insert(&mut self, key: Value, rid: RowId) {
        self.map.entry(key).or_default().push(rid);
    }

    /// Remove `rid` from under `key`.
    pub fn remove(&mut self, key: &Value, rid: RowId) {
        if let Some(v) = self.map.get_mut(key) {
            v.retain(|r| *r != rid);
            if v.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Row ids with keys in the given (inclusive/exclusive per `Bound`)
    /// range, in key order.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        self.map
            .range((low, high))
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Row ids with exactly this key.
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_insert_get_remove() {
        let mut ix = HashIndex::new(0);
        ix.insert(Value::Int(1), 10);
        ix.insert(Value::Int(1), 11);
        ix.insert(Value::Int(2), 12);
        assert_eq!(ix.get(&Value::Int(1)), &[10, 11]);
        ix.remove(&Value::Int(1), 10);
        assert_eq!(ix.get(&Value::Int(1)), &[11]);
        ix.remove(&Value::Int(1), 11);
        assert!(ix.get(&Value::Int(1)).is_empty());
        assert_eq!(ix.distinct_keys(), 1);
    }

    #[test]
    fn hash_index_keys_are_value_equality_past_2_pow_53() {
        let p53 = 1i64 << 53;
        let mut ix = HashIndex::new(0);
        ix.insert(Value::Int(p53), 0);
        ix.insert(Value::Float(p53 as f64), 1);
        ix.insert(Value::Int(p53 + 1), 2);
        assert_eq!(ix.distinct_keys(), 2);
        assert_eq!(ix.get(&Value::Float(p53 as f64)), &[0, 1]);
        assert_eq!(ix.get(&Value::Int(p53 + 1)), &[2]);
        assert!(ix.get(&Value::Float((p53 + 2) as f64)).is_empty());
    }

    #[test]
    fn ordered_index_range_scan() {
        let mut ix = OrderedIndex::new(0);
        for i in 0..10i64 {
            ix.insert(Value::Int(i), i as RowId);
        }
        let rids = ix.range(
            Bound::Included(&Value::Int(3)),
            Bound::Excluded(&Value::Int(7)),
        );
        assert_eq!(rids, vec![3, 4, 5, 6]);
        let all = ix.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn ordered_index_heterogeneous_keys_do_not_panic() {
        let mut ix = OrderedIndex::new(0);
        ix.insert(Value::Int(1), 0);
        ix.insert(Value::str("a"), 1);
        let all = ix.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 2);
    }
}
