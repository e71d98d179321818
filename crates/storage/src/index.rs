//! The one row-id index a table keeps up on every write: the primary key's,
//! for uniqueness and by-key access. Bound reads do not use it; they probe
//! the per-version key index of the bound column ([`crate::table`]).

use std::collections::HashMap;

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
        HashIndex { column, ..Default::default() }
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
        assert_eq!(ix.map.len(), 1, "an emptied key leaves the map");
    }

    #[test]
    fn hash_index_keys_are_value_equality_past_2_pow_53() {
        let p53 = 1i64 << 53;
        let mut ix = HashIndex::new(0);
        ix.insert(Value::Int(p53), 0);
        ix.insert(Value::Float(p53 as f64), 1);
        ix.insert(Value::Int(p53 + 1), 2);
        assert_eq!(ix.map.len(), 2);
        assert_eq!(ix.get(&Value::Float(p53 as f64)), &[0, 1]);
        assert_eq!(ix.get(&Value::Int(p53 + 1)), &[2]);
        assert!(ix.get(&Value::Float((p53 + 2) as f64)).is_empty());
    }
}
