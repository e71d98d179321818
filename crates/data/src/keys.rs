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
//! There is one probe loop, generic over its key equality, and how keys are
//! compared is chosen once per call ([`KeyTable::intern_rows`],
//! [`KeyTable::find_rows`]), never per row: when every key column, stored and
//! incoming, is a NULL-free `Int` (or `Timestamp`) vector of one variant, the
//! loop's raw-`i64` instance runs; any other chunk — a bitmap, a `Float` twin,
//! a column gone `Mixed` — its [`cells_cmp`] instance, and the next call
//! decides again. On such vectors the two are one relation, so this stays one
//! table (one slot array, one `insert`, one id space across chunks of
//! different flavors), not a table per key type.
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

/// How one call tells its incoming keys from the stored ones — picked once
/// per call ([`KeyTable::equality`]), so the probe loop is compiled once per
/// equality and branches on neither per row.
trait KeyEq {
    /// Is stored key `id` (of `keys`) the incoming key at `row`?
    fn same(&self, keys: &[ColumnBuilder], id: usize, row: usize) -> bool;
}

/// Raw `i64`s, one incoming vector per key column: every key column, stored
/// and incoming, is a NULL-free `Int` (or `Timestamp`) vector of one variant.
struct RawInts<'c>(Vec<&'c [i64]>);

/// [`cells_cmp`] on each key column: any other call.
struct Cells<'c>(&'c [Arc<Column>]);

impl KeyEq for RawInts<'_> {
    #[inline(always)]
    fn same(&self, keys: &[ColumnBuilder], id: usize, row: usize) -> bool {
        keys.iter().zip(&self.0).all(|(k, y)| match k.column().data() {
            ColumnData::Int(x) | ColumnData::Timestamp(x) => x[id] == y[row],
            _ => unreachable!("a NULL-free Int vector stays one while Ints are interned"),
        })
    }
}

impl KeyEq for Cells<'_> {
    fn same(&self, keys: &[ColumnBuilder], id: usize, row: usize) -> bool {
        (keys.iter().zip(self.0)).all(|(k, col)| cells_cmp(k.column(), id, col, row).is_eq())
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

    /// The equality of one call over the incoming key columns `cols`: `Ok`,
    /// raw `i64`s, when [`RawInts`]' condition holds; `Err`, [`Cells`],
    /// otherwise (the module doc's rule).
    fn equality<'c>(&self, cols: &'c [Arc<Column>]) -> Result<RawInts<'c>, Cells<'c>> {
        use ColumnData::{Int, Timestamp};
        let plain = (cols.iter().map(|c| &**c))
            .chain(self.keys.iter().map(ColumnBuilder::column))
            .all(Column::no_nulls);
        let ints = (self.keys.iter().zip(cols))
            .map(|(key, col)| match (key.column().data(), col.data()) {
                (Int(_), Int(y)) | (Timestamp(_), Timestamp(y)) if plain => Some(&y[..]),
                _ => None,
            })
            .collect::<Option<_>>();
        ints.map(RawInts).ok_or(Cells(cols))
    }

    /// The one probe loop: the id of the key at `row` (whose hash is `hash`)
    /// under `eq`, or the vacant slot where its probe sequence ended. Forced
    /// into each row loop, with the raw equality: left to the compiler, both
    /// stayed calls, a fifth of a 28-group grouping's time.
    #[inline(always)]
    fn probe(&self, eq: &impl KeyEq, row: usize, hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home_slot(hash);
        loop {
            let id = self.slots[slot];
            if id == NO_KEY {
                return Err(slot);
            }
            if self.hashes[id as usize] == hash && eq.same(&self.keys, id as usize, row) {
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
        let skip = skip_nulls && cols.iter().any(|c| !c.no_nulls());
        match self.equality(cols) {
            Ok(ints) => self.intern(&ints, cols, &hashes, skip),
            Err(cells) => self.intern(&cells, cols, &hashes, skip),
        }
    }

    fn intern(
        &mut self,
        eq: &impl KeyEq,
        cols: &[Arc<Column>],
        hashes: &[u64],
        skip: bool,
    ) -> Vec<u32> {
        (hashes.iter().enumerate())
            .map(|(row, &hash)| {
                if skip && cols.iter().any(|c| c.is_null(row)) {
                    return NO_KEY;
                }
                match self.probe(eq, row, hash) {
                    Ok(id) => id,
                    Err(slot) => self.insert(slot, cols, row, hash),
                }
            })
            .collect()
    }

    /// The id of every row's key, in row order, or [`NO_KEY`] where the table
    /// holds no equal key. Interns nothing.
    pub fn find_rows(&self, cols: &[Arc<Column>], n: usize) -> Vec<u32> {
        let hashes = hash_keys(cols, n);
        match self.equality(cols) {
            Ok(ints) => self.find(&ints, &hashes),
            Err(cells) => self.find(&cells, &hashes),
        }
    }

    fn find(&self, eq: &impl KeyEq, hashes: &[u64]) -> Vec<u32> {
        (hashes.iter().enumerate())
            .map(|(row, &hash)| self.probe(eq, row, hash).unwrap_or(NO_KEY))
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

    /// The probe loop's two instances are one relation: the same chunks
    /// interned through raw `i64`s and through `cells_cmp` (forced by a `Mixed`
    /// copy) give the same ids — first-seen order, one id space across a
    /// typed → Mixed → typed sequence — the same stored keys and the same
    /// `find_rows` answers, over one to three key columns of Int hazards. One
    /// Int column hashes injectively, so wider keys also come in twins crafted
    /// to share a hash (and all but their last two cells): only there is an
    /// equality asked to tell keys apart.
    #[test]
    fn raw_and_cells_equality_intern_alike() {
        let p53 = 1i64 << 53;
        let hazards = [0, -1, i64::MIN, i64::MAX, p53 - 1, p53, p53 + 1, -p53 - 1, -p53, -p53 + 1];
        // `key` with `y` in place of its last but one cell, and the last cell
        // that makes the two hash alike.
        let twin = |key: &[i64], y: i64| {
            let (prefix, [x, last]) = key.split_at(key.len() - 2) else { unreachable!() };
            let h = prefix.iter().fold(0, |h, &c| mix(h, c as u64));
            let word = |c: i64| mix(h, c as u64).rotate_left(5);
            let last = word(*x) ^ *last as u64 ^ word(y);
            [prefix, &[y, last as i64]].concat()
        };
        let typed = |v: &Vec<i64>| Arc::new(Column::new(ColumnData::Int(v.clone()), None));
        let mixed = |v: &Vec<i64>| {
            let cells = v.iter().map(|&i| Value::Int(i)).collect();
            Arc::new(Column::new(ColumnData::Mixed(cells), None))
        };
        for width in [1, 2, 3] {
            // Row `r` of chunk `k` holds key `i` of a window of seven, two
            // further on per chunk: keys repeat within a chunk, and each chunk
            // brings old keys and new ones. Column `c` of key `i` is a hazard.
            let cell = |k: usize, c: usize, r: usize| hazards[(r * 3 % 7 + 2 * k) * (c + 1) % 10];
            let mut chunks: Vec<Vec<Vec<i64>>> = (0..3)
                .map(|k| (0..width).map(|c| (0..16).map(|r| cell(k, c, r)).collect()).collect())
                .collect();
            // Chunk `k` brings twin pair `k`, each key after its twin's.
            let seeds = [(p53, p53 + 1, p53 + 1), (i64::MAX, i64::MIN, i64::MIN), (0, -1, p53 - 1)];
            for (k, &(x, last, y)) in seeds.iter().enumerate().filter(|_| width > 1) {
                let key = [vec![-p53; width - 2], vec![x, last]].concat();
                let pair = [key.clone(), twin(&key, y)];
                let hash = |key: &[i64]| {
                    let cols: Vec<_> = key.iter().map(|&c| typed(&vec![c])).collect();
                    hash_keys(&cols, 1)[0]
                };
                assert!(pair[0] != pair[1] && hash(&pair[0]) == hash(&pair[1]));
                for key in [&pair[0], &pair[1], &pair[0]] {
                    (chunks[k].iter_mut().zip(key)).for_each(|(col, &c)| col.push(c));
                }
            }
            let table = || {
                let keys = (0..width).map(|_| ColumnBuilder::new(DataType::Int, 0)).collect();
                KeyTable::new(keys, 0)
            };
            let (mut raw, mut cells, mut switching) = (table(), table(), table());
            let mut first_seen: Vec<Vec<i64>> = Vec::new();
            for (k, chunk) in chunks.iter().enumerate() {
                let n = chunk[0].len();
                let t: Vec<_> = chunk.iter().map(typed).collect();
                let m: Vec<_> = chunk.iter().map(mixed).collect();
                assert!(raw.equality(&t).is_ok() && raw.equality(&m).is_err());
                let unseen = raw.find_rows(&t, n);
                assert!(unseen.contains(&NO_KEY));
                assert!(k == 0 || unseen.iter().any(|&id| id != NO_KEY));
                assert_eq!(cells.find_rows(&m, n), unseen);
                assert_eq!(switching.find_rows(&t, n), unseen);
                let ids = raw.intern_rows(&t, n, false);
                assert_eq!(cells.intern_rows(&m, n, false), ids, "chunk {k}");
                let flavor = if k == 1 { &m } else { &t };
                assert_eq!(switching.intern_rows(flavor, n, false), ids, "chunk {k}");
                for (r, &id) in ids.iter().enumerate() {
                    let key: Vec<i64> = chunk.iter().map(|col| col[r]).collect();
                    if !first_seen.contains(&key) {
                        first_seen.push(key.clone());
                    }
                    assert_eq!(first_seen[id as usize], key);
                }
                for table in [&raw, &cells, &switching] {
                    assert_eq!(table.find_rows(&t, n), ids);
                    assert_eq!(table.find_rows(&m, n), ids);
                }
            }
            assert_eq!(raw.len(), first_seen.len());
            let stored = raw.into_columns();
            assert_eq!(cells.into_columns(), stored);
            assert_eq!(switching.into_columns(), stored);
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
