//! Join, group and binding keys, hashed and compared in place.
//!
//! A key — one row of a few key columns — is never assembled: [`hash_keys`]
//! hashes the columns' typed vectors column by column, [`cells_cmp`] compares
//! two cells where they lie, and a [`KeyTable`] interns keys into dense ids in
//! first-seen order, keeping one copy of each in column builders. The join's
//! build and probe, the group map, DISTINCT, a bind join's binding list at the
//! hub and its match against a bound column at the source
//! ([`lookup_positions`], [`KeyTable::find_rows`]) all use this one table, so
//! they agree on what a key is: cells are one key exactly when [`Value`]'s
//! `Eq` says so (`Int(2)` is `Float(2.0)`, `Int(2^53 + 1)` is not
//! `Float(2^53)`, `-0.0` is not `0`, a NaN is itself), and NULL is a key like
//! any other — callers that must not match it skip it.
//!
//! How keys are compared is chosen once per call ([`KeyTable::incoming`]):
//! when every key column, stored and incoming, is a NULL-free `Int` (or
//! `Timestamp`) vector of one variant, a probe compares raw `i64`s; any other
//! chunk — a bitmap, a `Float` twin, a column gone `Mixed` — takes
//! [`cells_cmp`], and the next call decides again. On such vectors the two are
//! one relation, so this stays one table (one slot array, one `insert`, one id
//! space across chunks of different flavors), not a table per key type.
//!
//! A key's hash is its cells' words folded by [`mix`], with no finalizer, so
//! a one-column Int key `i` hashes to `i·K`; the top bits of `i·K` over dense
//! ids fall on a few arithmetic progressions, which linear probing packed
//! into runs (a mean displacement of 11 slots over `0..12 000`). A slot is
//! therefore taken from [`spread`] of the hash, which folds the low half into
//! the high first (`probes_stay_short_for_dense_and_sparse_ids`).
//!
//! The storage engine's `Value`-keyed std maps (a hash index, the statistics'
//! distinct values) hash through [`KeyHasher`]: the same mix, finished by
//! [`spread`], whose closing xor-shift matters there — std picks a bucket by
//! the low bits, and a small Int hashes as its `f64` bits, ~30 of them zero.
//! The hash is fixed, not seeded per process, so chosen keys could be made to
//! collide; every store here is an in-process simulated source whose keys come
//! from its own loader and workloads, not from an untrusted peer.

use std::cmp::Ordering;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::value::{cmp_int_float, float_as_int};
use crate::{Column, ColumnBuilder, ColumnData, DataType, NullBitmap, Value};

/// One step of the multiply-rotate hash (the rustc-hash construction): no
/// per-key setup, which is what small keys need. Not DoS-resistant — see the
/// module doc.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// The finalizer: every input bit reaches both the top bits (a [`KeyTable`]
/// slot) and the low bits (a std map's bucket).
#[inline]
fn spread(hash: u64) -> u64 {
    let h = (hash ^ (hash >> 32)).wrapping_mul(0x9e_37_79_b9_7f_4a_7c_15);
    h ^ (h >> 32)
}

/// What a NULL cell folds into a key's hash.
const NULL_WORD: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// A float hashes as the integer it equals, when it equals one: the only
/// cross-type pair of cells that is one key.
#[inline]
fn float_word(f: f64) -> u64 {
    float_as_int(f).map_or(f.to_bits(), |i| i as u64)
}

/// `bytes` folded into `hash` eight at a time.
fn fold_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(hash, |hash, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(hash, u64::from_le_bytes(word))
    })
}

fn str_word(s: &str) -> u64 {
    fold_bytes(s.len() as u64, s.as_bytes())
}

fn value_word(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_WORD,
        Value::Bool(b) => *b as u64,
        Value::Int(i) | Value::Timestamp(i) => *i as u64,
        Value::Float(f) => float_word(*f),
        Value::Str(s) => str_word(s),
    }
}

/// Fold one word per cell of `cells` into the running hashes.
fn fold_words<T>(
    hashes: &mut [u64],
    cells: &[T],
    nulls: Option<&NullBitmap>,
    word: impl Fn(&T) -> u64,
) {
    let rows = hashes.iter_mut().zip(cells);
    match nulls {
        None => rows.for_each(|(h, x)| *h = mix(*h, word(x))),
        Some(nulls) => rows.enumerate().for_each(|(i, (h, x))| {
            *h = mix(*h, if nulls.is_null(i) { NULL_WORD } else { word(x) })
        }),
    }
}

/// One hash per row of the compact key columns `cols` (`n` rows each),
/// computed column by column from the typed vectors. Cells that are equal
/// under [`cells_cmp`] hash alike; with no key columns every row hashes alike.
pub fn hash_keys(cols: &[Arc<Column>], n: usize) -> Vec<u64> {
    let mut hashes = vec![0u64; n];
    for col in cols {
        let nulls = col.nulls().filter(|nulls| !nulls.all_valid());
        match col.data() {
            ColumnData::Bool(v) => fold_words(&mut hashes, v, nulls, |&b| b as u64),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => {
                fold_words(&mut hashes, v, nulls, |&i| i as u64)
            }
            ColumnData::Float(v) => fold_words(&mut hashes, v, nulls, |&f| float_word(f)),
            ColumnData::Str(v) => fold_words(&mut hashes, v, nulls, |s| str_word(s)),
            ColumnData::Mixed(v) => fold_words(&mut hashes, v, None, value_word),
        }
    }
    hashes
}

/// The hasher behind [`KeyHasher`]: the words a `Hash` impl writes, folded by
/// [`mix`] and finished by [`spread`].
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_bytes(self.0, bytes);
    }

    fn write_u8(&mut self, i: u8) {
        self.0 = mix(self.0, u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = mix(self.0, i);
    }

    fn finish(&self) -> u64 {
        spread(self.0)
    }
}

/// The one fixed hash of a `Value`-keyed std map on the storage path, in
/// place of the per-process seeded SipHash (see the module doc).
pub type KeyHasher = BuildHasherDefault<WordHasher>;

/// Cell `i` of `a` against cell `j` of `b` as [`Value`]'s total order orders
/// their values (NULL lowest, Int × Float exact), reading the typed vectors
/// in place: a sort's comparator, and — as `is_eq` — the one key equality.
pub fn cells_cmp(a: &Column, i: usize, b: &Column, j: usize) -> Ordering {
    use ColumnData::*;
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => {}
    }
    match (a.data(), b.data()) {
        (Bool(x), Bool(y)) => x[i].cmp(&y[j]),
        (Int(x), Int(y)) | (Timestamp(x), Timestamp(y)) => x[i].cmp(&y[j]),
        (Float(x), Float(y)) => x[i].total_cmp(&y[j]),
        (Int(x), Float(y)) => cmp_int_float(x[i], y[j]),
        (Float(x), Int(y)) => cmp_int_float(y[j], x[i]).reverse(),
        (Str(x), Str(y)) => x[i].cmp(&y[j]),
        (Mixed(x), Mixed(y)) => x[i].cmp(&y[j]),
        // A Mixed column against a typed one, or typed columns of two types.
        _ => a.value(i).cmp(&b.value(j)),
    }
}

/// No key: a vacant slot of the table, or a row whose key was skipped.
pub const NO_KEY: u32 = u32::MAX;

/// One call's incoming key columns and what is decided once for all their
/// rows: whether a cell can be NULL at all, and — `ints`, their raw vectors —
/// whether keys are equal when their `i64`s are (the module doc's rule).
pub struct Incoming<'c> {
    cols: &'c [Arc<Column>],
    ints: Option<Vec<&'c [i64]>>,
    nullable: bool,
}

impl Incoming<'_> {
    /// Is any cell of the key at `row` NULL?
    pub fn is_null(&self, row: usize) -> bool {
        self.nullable && self.cols.iter().any(|c| c.is_null(row))
    }
}

/// Interns keys into dense ids `0, 1, 2, …` in first-seen order. Each
/// distinct key is stored once, as row `id` of the table's key columns.
pub struct KeyTable {
    keys: Vec<ColumnBuilder>,
    /// Hash of each stored key.
    hashes: Vec<u64>,
    /// Open addressing with linear probing: a key id or [`NO_KEY`] per slot.
    /// A power of two, never more than half full, indexed by the top bits of
    /// the [`spread`] hash.
    slots: Vec<u32>,
}

impl KeyTable {
    /// An empty table storing its keys in `keys` (one builder per key
    /// column), with room for `capacity` distinct keys before it regrows.
    pub fn new(keys: Vec<ColumnBuilder>, capacity: usize) -> Self {
        let slots = vec![NO_KEY; (capacity * 2).next_power_of_two().max(16)];
        KeyTable { keys, hashes: Vec::with_capacity(capacity), slots }
    }

    /// The binding list `keys` interned as a one-column table — NULL a key
    /// like any other, as `==` on [`Value`] has it — and each key's id, in
    /// list order.
    pub fn of_values(keys: &[Value]) -> (Self, Vec<u32>) {
        let ty = keys.iter().find_map(Value::data_type).unwrap_or(DataType::Int);
        let col = [Arc::new(Column::from_values(keys, ty))];
        let mut table = KeyTable::new(vec![ColumnBuilder::like(&col[0], keys.len())], keys.len());
        let ids = table.intern_rows(&col, keys.len(), false);
        (table, ids)
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether no key is interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    fn home_slot(&self, hash: u64) -> usize {
        (spread(hash) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// `cols` as one call's incoming keys ([`Incoming`]).
    pub fn incoming<'c>(&self, cols: &'c [Arc<Column>]) -> Incoming<'c> {
        use ColumnData::{Int, Timestamp};
        let nullable = cols.iter().any(|c| !c.no_nulls());
        let plain = !nullable && self.keys.iter().all(|k| k.column().no_nulls());
        let ints = (self.keys.iter().zip(cols))
            .map(|(key, col)| match (key.column().data(), col.data()) {
                (Int(_), Int(y)) | (Timestamp(_), Timestamp(y)) if plain => Some(&y[..]),
                _ => None,
            })
            .collect();
        Incoming { cols, ints, nullable }
    }

    /// The id of the key at row `row` of `key` (whose hash is `hash`), or the
    /// vacant slot where its probe sequence ended.
    pub fn probe(&self, key: &Incoming, row: usize, hash: u64) -> Result<u32, usize> {
        let same = |id: usize| match &key.ints {
            Some(ints) => self.keys.iter().zip(ints).all(|(k, y)| match k.column().data() {
                ColumnData::Int(x) | ColumnData::Timestamp(x) => x[id] == y[row],
                _ => unreachable!("a NULL-free Int vector stays one while Ints are interned"),
            }),
            None => (self.keys.iter().zip(key.cols))
                .all(|(k, col)| cells_cmp(k.column(), id, col, row).is_eq()),
        };
        let mask = self.slots.len() - 1;
        let mut slot = self.home_slot(hash);
        loop {
            let id = self.slots[slot];
            if id == NO_KEY {
                return Err(slot);
            }
            if self.hashes[id as usize] == hash && same(id as usize) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of every row's key, in row order, interning keys on first sight.
    /// With `skip_nulls` a row with a NULL in any key column is not interned and
    /// answers [`NO_KEY`]; without, NULL is a key cell like any other.
    pub fn intern_rows(&mut self, cols: &[Arc<Column>], n: usize, skip_nulls: bool) -> Vec<u32> {
        let hashes = hash_keys(cols, n);
        let key = self.incoming(cols);
        (0..n)
            .map(|row| {
                if skip_nulls && key.is_null(row) {
                    return NO_KEY;
                }
                match self.probe(&key, row, hashes[row]) {
                    Ok(id) => id,
                    Err(slot) => self.insert(slot, cols, row, hashes[row]),
                }
            })
            .collect()
    }

    /// The id of every row's key, in row order, or [`NO_KEY`] where the table
    /// holds no equal key. Interns nothing.
    pub fn find_rows(&self, cols: &[Arc<Column>], n: usize) -> Vec<u32> {
        let hashes = hash_keys(cols, n);
        let key = self.incoming(cols);
        (hashes.iter().enumerate())
            .map(|(row, &hash)| self.probe(&key, row, hash).unwrap_or(NO_KEY))
            .collect()
    }

    fn insert(&mut self, slot: usize, cols: &[Arc<Column>], row: usize, hash: u64) -> u32 {
        let id = self.hashes.len() as u32;
        self.slots[slot] = id;
        self.hashes.push(hash);
        for (key, col) in self.keys.iter_mut().zip(cols) {
            key.push(&col.value(row));
        }
        if self.hashes.len() * 2 > self.slots.len() {
            self.slots = vec![NO_KEY; self.slots.len() * 2];
            let mask = self.slots.len() - 1;
            for (id, &hash) in self.hashes.iter().enumerate() {
                let mut slot = self.home_slot(hash);
                while self.slots[slot] != NO_KEY {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = id as u32;
            }
        }
        id
    }

    /// The distinct keys as columns, key `id` at row `id`.
    pub fn into_columns(self) -> Vec<Column> {
        self.keys.into_iter().map(ColumnBuilder::finish).collect()
    }
}

/// For each of `keys` in turn, the positions of `col` holding a cell equal to
/// it, ascending — binding order, a duplicated key's positions twice: a bound
/// lookup in one hashed pass over the column's typed vector, not a scan per key.
pub fn lookup_positions(col: &Arc<Column>, keys: &[Value]) -> Vec<u32> {
    let (table, key_of) = KeyTable::of_values(keys);
    let mut per_key: Vec<Vec<u32>> = vec![Vec::new(); table.len()];
    let found = table.find_rows(std::slice::from_ref(col), col.len());
    for (at, k) in found.into_iter().enumerate().filter(|&(_, k)| k != NO_KEY) {
        per_key[k as usize].push(at as u32);
    }
    key_of.iter().flat_map(|&k| per_key[k as usize].iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn equal_cells_hash_alike_whatever_their_columns_type() {
        let p53 = 1i64 << 53;
        let cells = [
            Value::Null, Value::Int(2), Value::Float(2.0), Value::Float(2.5), Value::Int(0),
            Value::Float(-0.0), Value::Float(0.0), Value::Float(f64::NAN), Value::Int(p53 + 1),
            Value::Float(p53 as f64), Value::Int(p53), Value::str("2"), Value::str(""),
            Value::Bool(true), Value::Timestamp(2),
        ];
        // Each cell alone in a column of its own type, and all of them in one
        // Mixed column: same words, and `cells_cmp` is `Value`'s `cmp`.
        let mixed = Arc::new(Column::from_values(&cells, DataType::Int));
        let mixed_hashes = hash_keys(std::slice::from_ref(&mixed), cells.len());
        let typed: Vec<Arc<Column>> = (cells.iter())
            .map(|v| {
                let ty = v.data_type().unwrap_or(DataType::Str);
                Arc::new(Column::from_values(std::slice::from_ref(v), ty))
            })
            .collect();
        for (i, a) in cells.iter().enumerate() {
            assert_eq!(hash_keys(&typed[i..=i], 1)[0], mixed_hashes[i], "{a}");
            for (j, b) in cells.iter().enumerate() {
                assert_eq!(cells_cmp(&typed[i], 0, &typed[j], 0), a.cmp(b), "{a} vs {b}");
                assert_eq!(cells_cmp(&typed[i], 0, &mixed, j), a.cmp(b), "{a} vs mixed {b}");
                if a == b {
                    assert_eq!(mixed_hashes[i], mixed_hashes[j], "{a} == {b}");
                    assert_eq!(KeyHasher::default().hash_one(a), KeyHasher::default().hash_one(b));
                }
            }
        }
    }

    /// Mean distance, in slots, from each interned key's home slot to the slot
    /// it was stored in.
    fn mean_displacement(ids: &[i64]) -> f64 {
        let col = [Arc::new(Column::from_values(
            &ids.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>(),
            DataType::Int,
        ))];
        let mut table = KeyTable::new(vec![ColumnBuilder::new(DataType::Int, 0)], 0);
        table.intern_rows(&col, ids.len(), false);
        let mask = table.slots.len() - 1;
        let total: usize = (table.slots.iter().enumerate())
            .filter(|&(_, &id)| id != NO_KEY)
            .map(|(slot, &id)| slot.wrapping_sub(table.home_slot(table.hashes[id as usize])) & mask)
            .sum();
        total as f64 / table.len() as f64
    }

    /// Before the slot hash had a finalizer, dense ids took 11.2 slots on
    /// average for `0..12 000` and 2.2 for `0..2 000`, against 0.27 for
    /// sparse ones.
    #[test]
    fn probes_stay_short_for_dense_and_sparse_ids() {
        let dense: Vec<i64> = (0..12_000).collect();
        let repeated: Vec<i64> = (0..20_000).map(|i| i % 2_000).collect();
        // splitmix64: sparse ids over the whole `i64` range.
        let mut state = 42u64;
        let sparse: Vec<i64> = (0..12_000)
            .map(|_| {
                state = state.wrapping_add(0x9e_37_79_b9_7f_4a_7c_15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xbf_58_47_6d_1c_e4_e5_b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94_d0_49_bb_13_31_11_eb);
                (z ^ (z >> 31)) as i64
            })
            .collect();
        for (name, ids) in [("dense", dense), ("dense x10", repeated), ("sparse", sparse)] {
            let mean = mean_displacement(&ids);
            assert!(mean < 1.0, "{name}: mean displacement {mean:.2} slots");
        }
    }

    /// The storage maps' hash carries high bits down: Ints whose `f64` bits
    /// share their low 30 bits still spread over a small table's buckets.
    #[test]
    fn key_hasher_spreads_small_ints_over_low_bits() {
        let buckets: std::collections::HashSet<u64> = (0..64i64)
            .map(|i| KeyHasher::default().hash_one(Value::Int(i)) & 63)
            .collect();
        assert!(buckets.len() > 32, "{} of 64 buckets", buckets.len());
        let mut h = WordHasher::default();
        Value::Int(7).hash(&mut h);
        assert_eq!(h.finish(), KeyHasher::default().hash_one(Value::Float(7.0)));
    }

    #[test]
    fn lookup_positions_is_a_linear_sweep_per_key() {
        let p53 = 1i64 << 53;
        let cells = [
            Value::Int(p53), Value::Float(p53 as f64), Value::Null, Value::str("a"),
            Value::Int(p53 + 1), Value::Int(p53), Value::Float(-0.0), Value::Int(0),
        ];
        let col = Arc::new(Column::from_values(&cells, DataType::Int));
        let keys = [
            Value::Int(p53 + 1), Value::Int(p53), Value::Float(p53 as f64), Value::Null,
            Value::str("b"), Value::Timestamp(p53), Value::Int(p53), Value::Float(0.0),
        ];
        let mut sweep = Vec::new();
        for k in &keys {
            sweep.extend((0..cells.len() as u32).filter(|&i| cells[i as usize] == *k));
        }
        assert_eq!(lookup_positions(&col, &keys), sweep);
        assert_eq!(sweep, [4, 0, 1, 5, 0, 1, 5, 2, 0, 1, 5, 7]);
    }
}
