//! Join, group and binding keys, hashed and compared in place.
//!
//! A key — one row of a few key columns — is never assembled: [`hash_keys`]
//! hashes the columns' typed vectors column by column, [`cells_cmp`] compares
//! two cells where they lie, and a [`KeyTable`] interns keys into dense ids in
//! first-seen order, keeping one copy of each in column builders; a
//! [`KeyLists`] adds each key's rows, grouped by one counting sort. The join's
//! build and probe, the group map, DISTINCT, a bind join's binding list at the
//! hub and its match against a bound column at the source — the column's
//! per-version [`KeyLists`] in a stored table, [`KeyTable::find_rows`] in the
//! wrapper — all use this one table, so
//! they agree on what a key is: cells are one key exactly when [`Value`]'s
//! `Eq` says so (`Int(2)` is `Float(2.0)`, `Int(2^53 + 1)` is not
//! `Float(2^53)`, `-0.0` is not `0`, a NaN is itself), and NULL is a key like
//! any other — callers that must not match it skip it.
//!
//! A table is *direct* while it has one `Int` (or `Timestamp`) key column
//! whose keys span at most four values per key stored or arriving, plus
//! 1 024 (the slot array's memory): key `v`'s id is then `ids[v − base]`, no
//! hash, no probe, and the id array grows twofold at the end that needs room.
//! The first chunk that breaks that — a key past the span, a NULL key
//! interned, another type, `Mixed` — re-interns the stored keys into slots,
//! once and for good; a direct table finds any other chunk (a `Float` twin)
//! by probing its keys, so [`cells_cmp`] stays the one key equality. No
//! caller picks an index, so there is no second table type to keep in step:
//! one key store, one id space. A one-column Int key (`order_id`, `grp`) is
//! direct; a composite, string or `Float` key (`DISTINCT grp, a % 50`) is not.
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
//! The storage engine's two `Value`-keyed std maps, both on its write path
//! (the primary key's index, the statistics' distinct values), hash through
//! [`KeyHasher`]: the same mix, finished by
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

/// `col`'s raw vector, when it is of `key`'s variant, `Int` or `Timestamp`:
/// what a direct index reads.
fn same_ints<'c>(key: &ColumnBuilder, col: &'c Column) -> Option<&'c [i64]> {
    match (key.column().data(), col.data()) {
        (ColumnData::Int(_), ColumnData::Int(v)) => Some(v),
        (ColumnData::Timestamp(_), ColumnData::Timestamp(v)) => Some(v),
        _ => None,
    }
}

/// Widen the direct index `ids` from `base` to hold `lo..=hi` in at most
/// `budget` values, or refuse. It grows at least twofold, with the new room
/// below when only its bottom moved, so keys arriving one at a time cost
/// linear time; never past the budget, so its room never refuses a later key.
fn cover(base: &mut i64, ids: &mut Vec<u32>, lo: i64, hi: i64, budget: i128) -> bool {
    let len = ids.len() as i128;
    let old_lo = if len == 0 { lo as i128 } else { *base as i128 };
    let (lo, hi) = (old_lo.min(lo as i128), (old_lo + len - 1).max(hi as i128));
    let fits = hi - lo < budget;
    if fits && (lo < old_lo || hi >= old_lo + len) {
        let grown_len = (hi - lo + 1).max(2 * len).min(budget);
        let start = if hi < old_lo + len { hi + 1 - grown_len } else { lo };
        let start = start.clamp(i64::MIN as i128, i64::MAX as i128 + 1 - grown_len);
        let mut grown = vec![NO_KEY; grown_len as usize];
        let at = (old_lo - start) as usize;
        grown[at..at + ids.len()].copy_from_slice(ids);
        (*base, *ids) = (start as i64, grown);
    }
    fits
}

/// Interns keys into dense ids `0, 1, 2, …` in first-seen order. Each
/// distinct key is stored once, as row `id` of the table's key columns.
#[derive(Debug)]
pub struct KeyTable {
    keys: Vec<ColumnBuilder>,
    /// While the table is direct (the module doc), `(base, ids)`: key `v`'s id
    /// is `ids[v − base]`, [`NO_KEY`] where none is; the slots are empty.
    direct: Option<(i64, Vec<u32>)>,
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
        match &keys[..] {
            [key] if same_ints(key, key.column()).is_some() => {
                KeyTable { keys, direct: Some((0, Vec::new())), hashes: Vec::new(), slots: Vec::new() }
            }
            _ => KeyTable::hashed(keys, capacity),
        }
    }

    /// [`Self::new`], hashed from the start.
    fn hashed(keys: Vec<ColumnBuilder>, capacity: usize) -> Self {
        let slots = vec![NO_KEY; (capacity * 2).next_power_of_two().max(16)];
        KeyTable { keys, direct: None, hashes: Vec::with_capacity(capacity), slots }
    }

    /// The stored keys interned afresh by a hashed table: the same ids.
    fn hashed_copy(&self) -> Self {
        let stored: Vec<Arc<Column>> = self.columns().map(|c| Arc::new(c.clone())).collect();
        let keys = stored.iter().map(|c| ColumnBuilder::like(c, c.len())).collect();
        let mut copy = KeyTable::hashed(keys, self.len());
        copy.intern_rows(&stored, self.len(), false);
        copy
    }

    /// The binding list `keys` interned as a one-column table — NULL a key
    /// like any other, as `==` on [`Value`] has it.
    pub fn of_values(keys: &[Value]) -> Self {
        let col = [values_column(keys)];
        let mut table = KeyTable::new(vec![ColumnBuilder::like(&col[0], keys.len())], keys.len());
        table.intern_rows(&col, keys.len(), false);
        table
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.direct.as_ref().map_or(self.hashes.len(), |_| self.keys[0].column().len())
    }

    /// Whether no key is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn home_slot(&self, hash: u64) -> usize {
        (spread(hash) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The equality of one call over the incoming key columns `cols`: `Ok`,
    /// raw `i64`s, when [`RawInts`]' condition holds; `Err`, [`Cells`],
    /// otherwise (the module doc's rule).
    fn equality<'c>(&self, cols: &'c [Arc<Column>]) -> Result<RawInts<'c>, Cells<'c>> {
        let plain = (cols.iter().map(|c| &**c))
            .chain(self.keys.iter().map(ColumnBuilder::column))
            .all(Column::no_nulls);
        let ints = (self.keys.iter().zip(cols))
            .map(|(key, col)| same_ints(key, col).filter(|_| plain))
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
        if let Some(ids) = self.intern_direct(cols, n, skip_nulls) {
            return ids;
        } else if self.direct.is_some() {
            *self = self.hashed_copy();
        }
        let hashes = hash_keys(cols, n);
        let skip = skip_nulls && cols.iter().any(|c| !c.no_nulls());
        match self.equality(cols) {
            Ok(ints) => self.intern(&ints, cols, &hashes, skip),
            Err(cells) => self.intern(&cells, cols, &hashes, skip),
        }
    }

    /// [`Self::intern_rows`] by the direct index, or `None`, having changed
    /// nothing, when the table is hashed or `cols` breaks the module doc's rule.
    fn intern_direct(&mut self, cols: &[Arc<Column>], n: usize, skip_nulls: bool) -> Option<Vec<u32>> {
        let (Some((base, ids)), [key]) = (&mut self.direct, &mut self.keys[..]) else { return None };
        let nulls = cols[0].nulls().filter(|nulls| !nulls.all_valid());
        let vals = same_ints(key, &cols[0]).filter(|_| skip_nulls || nulls.is_none())?;
        let null = |row: usize| nulls.is_some_and(|nulls| nulls.is_null(row));
        let mut live = (0..n).filter(|&row| !null(row)).map(|row| vals[row]);
        let range = live.next().map(|first| live.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))));
        // The span budget: four values per key stored or arriving, plus 1 024.
        let budget = 4 * (key.column().len() + n) as i128 + 1024;
        if range.is_some_and(|(lo, hi)| !cover(base, ids, lo, hi, budget)) {
            return None;
        }
        let id_of = |(row, &v): (usize, &i64)| {
            if null(row) {
                return NO_KEY;
            }
            let id = &mut ids[v.wrapping_sub(*base) as usize];
            if *id == NO_KEY {
                *id = key.column().len() as u32;
                key.push(&cols[0].value(row));
            }
            *id
        };
        Some(vals.iter().enumerate().map(id_of).collect())
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
        if let Some((base, ids)) = &self.direct {
            let Some(vals) = same_ints(&self.keys[0], &cols[0]) else {
                return self.find_other_flavor(cols, n);
            };
            let nulls = cols[0].nulls();
            let id_of = |(row, &v): (usize, &i64)| match ids.get(v.wrapping_sub(*base) as usize) {
                Some(&id) if !nulls.is_some_and(|nulls| nulls.is_null(row)) => id,
                _ => NO_KEY,
            };
            return vals.iter().enumerate().map(id_of).collect();
        }
        let hashes = hash_keys(cols, n);
        match self.equality(cols) {
            Ok(ints) => self.find(&ints, &hashes),
            Err(cells) => self.find(&cells, &hashes),
        }
    }

    /// [`Self::find_rows`] of a direct table for cells of another flavor (a
    /// `Float` twin, `Mixed`, `Timestamp` against `Int`), in O(n + keys): the
    /// cells interned (a direct table holds no NULL key), each stored key probed.
    #[cold]
    fn find_other_flavor(&self, cols: &[Arc<Column>], n: usize) -> Vec<u32> {
        let mut cells = KeyTable::hashed(vec![ColumnBuilder::like(&cols[0], n)], n);
        let ids = cells.intern_rows(cols, n, true);
        let mut stored_id = vec![NO_KEY; cells.len()];
        let found = cells.find_rows(&[Arc::new(self.keys[0].column().clone())], self.len());
        for (id, &cell) in found.iter().enumerate().filter(|(_, &cell)| cell != NO_KEY) {
            stored_id[cell as usize] = id as u32;
        }
        ids.iter().map(|&cell| stored_id.get(cell as usize).map_or(NO_KEY, |&id| id)).collect()
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

    /// The distinct keys so far, one column per key column, key `id` at row
    /// `id`.
    pub fn columns(&self) -> impl Iterator<Item = &Column> {
        self.keys.iter().map(ColumnBuilder::column)
    }

    /// The distinct keys as columns, key `id` at row `id`.
    pub fn into_columns(self) -> Vec<Column> {
        self.keys.into_iter().map(ColumnBuilder::finish).collect()
    }
}

/// Each key of some rows and the rows holding it: a [`KeyTable`] of the keys
/// plus one stable counting sort of the rows by key id, so a key's rows are
/// listed in ascending row order. A stored table's per-version key index of a
/// bound column and the hub join's build side group their rows here.
#[derive(Debug)]
pub struct KeyLists {
    table: KeyTable,
    /// Key `id`'s rows are `rows[starts[id]..starts[id + 1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl KeyLists {
    /// The `n` rows of the key columns `cols`, grouped by key. With
    /// `skip_nulls` a row with a NULL key cell is in no list; without, NULL
    /// is a key like any other.
    pub fn new(cols: &[Arc<Column>], n: usize, skip_nulls: bool) -> Self {
        let stored = cols.iter().map(|c| ColumnBuilder::like(c, n)).collect();
        let mut table = KeyTable::new(stored, n);
        let ids = table.intern_rows(cols, n, skip_nulls);
        KeyLists::group(table, &ids)
    }

    /// Row `r` listed under key `ids[r]` of `table`, under none for [`NO_KEY`].
    fn group(table: KeyTable, ids: &[u32]) -> Self {
        let mut starts = vec![0u32; table.len() + 1];
        for &id in ids.iter().filter(|&&id| id != NO_KEY) {
            starts[id as usize + 1] += 1;
        }
        for id in 0..table.len() {
            starts[id + 1] += starts[id];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; starts[table.len()] as usize];
        for (row, &id) in ids.iter().enumerate().filter(|&(_, &id)| id != NO_KEY) {
            rows[next[id as usize] as usize] = row as u32;
            next[id as usize] += 1;
        }
        KeyLists { table, starts, rows }
    }

    /// The lists with row `r` renamed `sel[r]`, a batch's physical row.
    pub fn renumbered(mut self, sel: Option<&[u32]>) -> Self {
        if let Some(sel) = sel {
            self.rows.iter_mut().for_each(|r| *r = sel[*r as usize]);
        }
        self
    }

    /// The table of the keys.
    pub fn table(&self) -> &KeyTable {
        &self.table
    }

    /// Key `id`'s rows, ascending; none for [`NO_KEY`]. Inlined across
    /// crates: a hub join asks once per probe row.
    #[inline]
    pub fn rows_of(&self, id: u32) -> &[u32] {
        if id == NO_KEY {
            return &[];
        }
        let (from, to) = (self.starts[id as usize], self.starts[id as usize + 1]);
        &self.rows[from as usize..to as usize]
    }

    /// For each of `keys` in turn, the rows holding it — binding order, a
    /// duplicated key's rows twice: the list as one column, probed in one call,
    /// O(k) for k keys — O(k + distinct keys) when it is not of a direct
    /// index's own flavor (a `Float` twin, a `Mixed` list), still under a sweep.
    pub fn lookup(&self, keys: &[Value]) -> Vec<u32> {
        let ids = self.table.find_rows(&[values_column(keys)], keys.len());
        ids.iter().flat_map(|&id| self.rows_of(id)).copied().collect()
    }
}

/// A binding list as one column, of its first non-NULL cell's type (`Mixed`
/// if another type follows).
fn values_column(keys: &[Value]) -> Arc<Column> {
    let ty = keys.iter().find_map(Value::data_type).unwrap_or(DataType::Int);
    Arc::new(Column::from_values(keys, ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazards;
    use proptest::prelude::*;
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
    /// it was stored in, by a table pinned hashed: dense ids would otherwise
    /// never reach the slots.
    fn mean_displacement(ids: &[i64]) -> f64 {
        let col = [Arc::new(Column::from_values(
            &ids.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>(),
            DataType::Int,
        ))];
        let mut table = KeyTable::hashed(vec![ColumnBuilder::new(DataType::Int, 0)], 0);
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
    /// sparse ones. A table that picks its own index finds the dense ones by
    /// index instead.
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

    /// The probe loop's two instances and the direct index are one relation:
    /// the same chunks interned through raw `i64`s and through `cells_cmp`
    /// (forced by a `Mixed` copy) by tables pinned hashed, by a table that
    /// picks its own index, and by one that goes typed → Mixed → typed give
    /// the same ids — first-seen order, one id space — the same stored keys and
    /// the same `find_rows` answers, over one to three key columns of Int
    /// hazards, or of small Ints, which one column keeps direct. One Int column
    /// hashes injectively, so wider keys also come in twins crafted to share a
    /// hash (and all but their last two cells): only there is an equality
    /// asked to tell keys apart.
    #[test]
    fn raw_and_cells_equality_intern_alike() {
        let p53 = 1i64 << 53;
        let extremes = [0, -1, i64::MIN, i64::MAX, p53 - 1, p53, p53 + 1, -p53 - 1, -p53, -p53 + 1];
        let small = [0, -1, 1, 2, -2, 3, 4, -3, 5, 6];
        for (hazards, dense) in [(extremes, false), (small, true)] {
            equalities_intern_alike(&hazards, dense);
        }
    }

    fn equalities_intern_alike(hazards: &[i64; 10], dense: bool) {
        let p53 = 1i64 << 53;
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
            let keys = || (0..width).map(|_| ColumnBuilder::new(DataType::Int, 0)).collect();
            let (mut raw, mut cells) = (KeyTable::hashed(keys(), 0), KeyTable::hashed(keys(), 0));
            let (mut switching, mut own) = (KeyTable::new(keys(), 0), KeyTable::new(keys(), 0));
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
                assert_eq!(own.find_rows(&m, n), unseen);
                let ids = raw.intern_rows(&t, n, false);
                assert_eq!(cells.intern_rows(&m, n, false), ids, "chunk {k}");
                let flavor = if k == 1 { &m } else { &t };
                assert_eq!(switching.intern_rows(flavor, n, false), ids, "chunk {k}");
                assert_eq!(own.intern_rows(&t, n, false), ids, "chunk {k}");
                // One small-Int column stays direct; anything else is hashed.
                let direct = width == 1 && dense;
                assert_eq!(own.direct.is_some(), direct);
                assert_eq!(switching.direct.is_some(), direct && k == 0);
                for (r, &id) in ids.iter().enumerate() {
                    let key: Vec<i64> = chunk.iter().map(|col| col[r]).collect();
                    if !first_seen.contains(&key) {
                        first_seen.push(key.clone());
                    }
                    assert_eq!(first_seen[id as usize], key);
                }
                for table in [&raw, &cells, &switching, &own] {
                    assert_eq!(table.find_rows(&t, n), ids);
                    assert_eq!(table.find_rows(&m, n), ids);
                }
            }
            assert_eq!(raw.len(), first_seen.len());
            let stored = raw.into_columns();
            assert_eq!(cells.into_columns(), stored);
            assert_eq!(switching.into_columns(), stored);
            assert_eq!(own.into_columns(), stored);
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
    fn key_lists_lookup_is_a_linear_sweep_per_key() {
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
        let lists = KeyLists::new(std::slice::from_ref(&col), cells.len(), false);
        assert_eq!(lists.lookup(&keys), sweep);
        assert_eq!(sweep, [4, 0, 1, 5, 0, 1, 5, 2, 0, 1, 5, 7]);
    }

    /// `cells` as a column of the first non-NULL cell's type (`Mixed` if
    /// another follows), of `otherwise` when there is none.
    fn column(cells: &[Value], otherwise: DataType) -> Arc<Column> {
        let ty = cells.iter().find_map(Value::data_type).unwrap_or(otherwise);
        Arc::new(Column::from_values(cells, ty))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A table that picks its own index answers as one pinned hashed. Both
        /// take the same chunks — dense runs, runs re-based below the range,
        /// span breakers, empty and all-NULL columns, stray cells gone `Mixed`
        /// — each as drawn, as `Float` twins, as Timestamps against Ints (or
        /// the reverse) or with NULLs, interned with and without `skip_nulls`.
        /// After every chunk they have handed out the same ids and hold the
        /// same keys, and before and after it they find every chunk so far
        /// alike: as interned, as `Float` twins, as Ints, as Timestamps and as
        /// a `Mixed` copy.
        #[test]
        fn direct_and_hashed_tables_answer_alike(
            chunks in proptest::collection::vec((hazards::key_column(), 0usize..5, any::<bool>()), 1..7),
            stamped in any::<bool>(),
        ) {
            type Make = fn(i64) -> Value;
            let (stored, same, other): (_, Make, Make) = if stamped {
                (DataType::Timestamp, Value::Timestamp, Value::Int)
            } else {
                (DataType::Int, Value::Int, Value::Timestamp)
            };
            let mut own = KeyTable::new(vec![ColumnBuilder::new(stored, 0)], 0);
            let mut pinned = KeyTable::hashed(vec![ColumnBuilder::new(stored, 0)], 0);
            let mut asked: Vec<Arc<Column>> = Vec::new();
            for (k, (drawn, flavor, skip_nulls)) in chunks.iter().enumerate() {
                let cells: Vec<Value> = (drawn.iter().enumerate())
                    .map(|(r, v)| match (v, *flavor) {
                        (_, 3) if r % 3 == 0 => Value::Null,
                        (Value::Int(i), 1) => Value::Float(*i as f64),
                        (Value::Int(i), 2) => other(*i),
                        (Value::Int(i), 4) => same(i.wrapping_sub(64)),
                        (Value::Int(i), _) => same(*i),
                        (v, _) => v.clone(),
                    })
                    .collect();
                let (col, n) = ([column(&cells, stored)], cells.len());
                let recast = |to: fn(i64) -> Value| {
                    let recast = cells.iter().map(|v| match v {
                        Value::Int(i) | Value::Timestamp(i) => to(*i),
                        v => v.clone(),
                    });
                    column(&recast.collect::<Vec<_>>(), stored)
                };
                asked.extend([
                    Arc::clone(&col[0]),
                    recast(|i| Value::Float(i as f64)),
                    recast(Value::Int),
                    recast(Value::Timestamp),
                    Arc::new(Column::new(ColumnData::Mixed(cells.clone()), None)),
                ]);
                let found = |table: &KeyTable| -> Vec<Vec<u32>> {
                    asked.iter().map(|q| table.find_rows(std::slice::from_ref(q), q.len())).collect()
                };
                prop_assert_eq!(found(&own), found(&pinned), "before chunk {}", k);
                let ids = own.intern_rows(&col, n, *skip_nulls);
                prop_assert_eq!(&ids, &pinned.intern_rows(&col, n, *skip_nulls), "chunk {}", k);
                prop_assert_eq!(own.len(), pinned.len());
                let keys = |table: &KeyTable| format!("{:?}", table.columns().collect::<Vec<_>>());
                prop_assert_eq!(keys(&own), keys(&pinned), "chunk {}", k);
                prop_assert_eq!(found(&own), found(&pinned), "after chunk {}", k);
            }
            prop_assert_eq!(format!("{:?}", own.into_columns()), format!("{:?}", pinned.into_columns()));
        }

        /// A key index over a column answers every binding list as a `==`
        /// sweep of the column does: each key's rows ascending, NULL a key as
        /// `==` has it, a `Float` twin and a `Mixed` list finding what
        /// `cells_cmp` says — over dense runs (direct), span breakers and
        /// all-NULL columns (hashed) and stray cells (`Mixed`).
        #[test]
        fn key_lists_find_what_a_sweep_finds(
            cells in hazards::key_column(),
            strays in proptest::collection::vec(hazards::stray_value(), 0..6),
            twins in any::<bool>(),
        ) {
            let col = column(&cells, DataType::Int);
            let lists = KeyLists::new(std::slice::from_ref(&col), cells.len(), false);
            let twin = |v: &Value| match v {
                Value::Int(i) if twins => Value::Float(*i as f64),
                v => v.clone(),
            };
            let keys: Vec<Value> = cells.iter().step_by(2).map(twin).chain(strays).collect();
            let mut sweep = Vec::new();
            for k in &keys {
                sweep.extend((0..cells.len() as u32).filter(|&i| cells[i as usize] == *k));
            }
            prop_assert_eq!(lists.lookup(&keys), sweep);
            let ids = lists.table().find_rows(std::slice::from_ref(&col), cells.len());
            for (row, &id) in ids.iter().enumerate() {
                let rows = lists.rows_of(id);
                prop_assert!(rows.contains(&(row as u32)) && rows.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
