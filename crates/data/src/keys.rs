//! Join, group and binding keys, hashed and compared in place.
//!
//! A key — one row of a few key columns — is never assembled: [`hash_keys`]
//! hashes the columns' typed vectors column by column, [`cells_cmp`] compares
//! two cells where they lie, and a [`KeyTable`] interns keys into dense ids in
//! first-seen order, keeping one copy of each in column builders; a
//! [`KeyLists`] adds each key's rows, grouped by one counting sort. The join's
//! build and probe, the group map, DISTINCT, a bind join's binding list at the
//! hub and its match against a bound column at the source — the hub table's
//! own key column, probed as it came against the column's per-version
//! [`KeyLists`] in a stored table, interned for [`KeyTable::find_rows`] in the
//! wrapper — all use this one table, so
//! they agree on what a key is: cells are one key exactly when [`Value`]'s
//! `Eq` says so (`Int(2)` is `Float(2.0)`, `Int(2^53 + 1)` is not
//! `Float(2^53)`, `-0.0` is not `0`, a NaN is itself), and NULL is a key like
//! any other — callers that must not match it skip it.
//!
//! A table is *direct* while its key columns, one or several, are all `Int`
//! (or `Timestamp`) and its keys span at most four values per key stored or
//! arriving, plus 1 024 (the slot array's memory), counted as the product of
//! the columns' spans: key `v`'s id is then `ids` at the mixed-radix offset
//! of `v − base`, no hash, no probe, and a column's window grows twofold at
//! the end that needs room. The first chunk that breaks that — a key past
//! the span, a NULL key interned, another type, `Mixed` — re-interns the
//! stored keys into slots, once and for good; a direct table finds any other
//! chunk (a `Float` twin) by probing its keys, so [`cells_cmp`] stays the one
//! key equality. No caller picks an index, so there is no second table type
//! to keep in step: one key store, one id space. An Int key (`order_id`,
//! `grp`, `DISTINCT grp, a % 50`) is direct; a string or `Float` key is not,
//! but a one-column `Str` key is probed once per dictionary code a call
//! meets, when the dictionary is no larger than the chunk.
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

use crate::columnar::by_entry;
use crate::value::{cmp_int_float, float_as_int};
use crate::{Column, ColumnBuilder, ColumnData, NullBitmap, Value};

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
/// computed column by column from the typed vectors — a `Str` column's words
/// once per dictionary entry ([`by_entry`]). Cells that are equal under
/// [`cells_cmp`] hash alike; with no key columns every row hashes alike.
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
            ColumnData::Str { dict, codes } => {
                let words = by_entry(dict, codes, |s| str_word(s));
                fold_words(&mut hashes, &words, nulls, |&w| w)
            }
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
/// Two `Str` cells under one code of one dictionary are equal unread.
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
        (Str { dict: x, codes: cx }, Str { dict: y, codes: cy }) if cx[i] == cy[j] && Arc::ptr_eq(x, y) => {
            Ordering::Equal
        }
        (Str { dict: x, codes: cx }, Str { dict: y, codes: cy }) => x[cx[i] as usize].cmp(&y[cy[j] as usize]),
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
        keys.iter().zip(&self.0).all(|(k, y)| match k.data() {
            ColumnData::Int(x) | ColumnData::Timestamp(x) => x[id] == y[row],
            _ => unreachable!("a NULL-free Int vector stays one while Ints are interned"),
        })
    }
}

impl KeyEq for Cells<'_> {
    fn same(&self, keys: &[ColumnBuilder], id: usize, row: usize) -> bool {
        (keys.iter().zip(self.0)).all(|(k, col)| k.cmp_cell(id, col, row).is_eq())
    }
}

/// `col`'s raw vector, when it is of `key`'s variant, `Int` or `Timestamp`:
/// what a direct index reads.
fn same_ints<'c>(key: &ColumnBuilder, col: &'c Column) -> Option<&'c [i64]> {
    match (key.data(), col.data()) {
        (ColumnData::Int(_), ColumnData::Int(v)) => Some(v),
        (ColumnData::Timestamp(_), ColumnData::Timestamp(v)) => Some(v),
        _ => None,
    }
}

/// A direct index (the module doc): one window `(base, len)` per key column,
/// and key `v`'s id at the mixed-radix offset `Σ (v[c] − base[c])·stride[c]`
/// of `ids` (the last column's stride is 1), [`NO_KEY`] where none is.
#[derive(Debug, Default)]
struct Direct {
    windows: Vec<(i64, usize)>,
    ids: Vec<u32>,
}

impl Direct {
    /// Each row's offset into `ids`, or [`NO_KEY`] where a cell lies outside
    /// its column's window or one of `nulls` marks the row NULL; computed a
    /// column at a time, into the vector [`KeyTable::intern_rows`] and
    /// [`KeyTable::find_rows`] answer in.
    fn offsets(&self, vals: &[&[i64]], nulls: &[&NullBitmap], n: usize) -> Vec<u32> {
        let within = |v: i64, (base, len): (i64, usize)| Some(v.wrapping_sub(base) as u64 as usize).filter(|&d| d < len);
        let Some((&first, windows)) = self.windows.split_first() else { return vec![NO_KEY; n] };
        let mut at: Vec<u32> = vals[0].iter().map(|&v| within(v, first).map_or(NO_KEY, |d| d as u32)).collect();
        for (vals, &window) in vals[1..].iter().zip(windows) {
            for (at, &v) in at.iter_mut().zip(*vals) {
                *at = match within(v, window) {
                    Some(d) if *at != NO_KEY => (*at as usize * window.1 + d) as u32,
                    _ => NO_KEY,
                };
            }
        }
        for nulls in nulls {
            (at.iter_mut().enumerate()).filter(|(row, _)| nulls.is_null(*row)).for_each(|(_, at)| *at = NO_KEY);
        }
        at
    }

    /// Widen the windows to hold `ranges` (each key column's `lo..=hi`) in at
    /// most `budget` offsets in all — the product of the windows' lengths —
    /// re-laying the stored keys `keys` out, or refuse, having changed nothing.
    /// A window that must move grows at least twofold, as far as the budget
    /// allows, with the new room below when only its bottom moved, so keys
    /// arriving one at a time cost linear time.
    fn cover(&mut self, ranges: &[(i64, i64)], budget: i128, keys: &[ColumnBuilder]) -> bool {
        let fresh = self.windows.is_empty();
        // Each window's old bottom and length, and the bounds it must reach.
        let spans: Vec<(i128, i128, i128, i128)> = (ranges.iter().enumerate())
            .map(|(c, &(lo, hi))| {
                let (base, len) = self.windows.get(c).map_or((lo as i128, 0), |&(b, l)| (b as i128, l as i128));
                (base, len, base.min(lo as i128), (base + len - 1).max(hi as i128))
            })
            .collect();
        let product = |lens: &[i128]| lens.iter().fold(1i128, |p, &l| p.saturating_mul(l));
        let mut lens: Vec<i128> = spans.iter().map(|&(_, _, lo, hi)| hi - lo + 1).collect();
        if product(&lens) > budget {
            return false;
        }
        let moved = |&(base, len, lo, hi): &(i128, i128, i128, i128)| fresh || lo < base || hi >= base + len;
        if !spans.iter().any(moved) {
            return true;
        }
        for (c, span) in spans.iter().enumerate().filter(|(_, span)| moved(span)) {
            let others = product(&lens) / lens[c];
            lens[c] = lens[c].max((2 * span.1).min(budget / others));
        }
        let windows: Vec<(i64, usize)> = (spans.iter().zip(&lens))
            .map(|(&(base, len, lo, hi), &grown)| {
                let start = if !fresh && hi < base + len { hi + 1 - grown } else { lo };
                let start = start.clamp(i64::MIN as i128, i64::MAX as i128 + 1 - grown);
                (start as i64, grown as usize)
            })
            .collect();
        *self = Direct { ids: vec![NO_KEY; product(&lens) as usize], windows };
        let stored: Vec<&[i64]> = keys.iter().map(|k| ints_of(k.data())).collect();
        for (id, at) in self.offsets(&stored, &[], keys[0].len()).into_iter().enumerate() {
            self.ids[at as usize] = id as u32;
        }
        true
    }
}

/// The bitmaps of typed key columns `cols` that mark a NULL: a row has a
/// NULL key cell where one of them says so.
fn typed_nulls(cols: &[Arc<Column>]) -> Vec<&NullBitmap> {
    cols.iter().filter_map(|c| c.nulls().filter(|nulls| !nulls.all_valid())).collect()
}

/// The raw vector of a direct table's stored key column.
fn ints_of(data: &ColumnData) -> &[i64] {
    match data {
        ColumnData::Int(v) | ColumnData::Timestamp(v) => v,
        _ => unreachable!("a direct table stores NULL-free Int or Timestamp keys"),
    }
}

/// The one `Str` key column of `cols`, when its dictionary is no larger than
/// its `n` rows (the rule of [`by_entry`]): what [`by_code`] reads.
fn one_dict(cols: &[Arc<Column>], n: usize) -> Option<(&[Arc<str>], &[u32])> {
    match cols {
        [col] => col.as_dict().filter(|(dict, _)| dict.len() <= n),
        _ => None,
    }
}

/// The id of every row of the one `Str` key column `col` (`n` rows of
/// `codes` into `dict`), `resolve(row, hash)` asked once per dictionary code
/// that occurs — at its first row — and once for NULL, every other row
/// answered by a per-call memo; with `skip` a NULL row answers [`NO_KEY`].
fn by_code(
    col: &Column,
    (dict, codes): (&[Arc<str>], &[u32]),
    n: usize,
    skip: bool,
    mut resolve: impl FnMut(usize, u64) -> u32,
) -> Vec<u32> {
    let mut memo: Vec<Option<u32>> = vec![None; dict.len() + 1];
    (0..n)
        .map(|row| {
            let code = match col.is_null(row) {
                true if skip => return NO_KEY,
                true => dict.len(),
                false => codes[row] as usize,
            };
            // The hash [`hash_keys`] gives the row.
            let word = || dict.get(code).map_or(NULL_WORD, |s| str_word(s));
            *memo[code].get_or_insert_with(|| resolve(row, mix(0, word())))
        })
        .collect()
}

/// The keys a key table over `n` rows reserves for: every row of a small
/// input, an eighth of a larger one; the ids and stored keys grow past it
/// as a vector does.
fn reserve_for(n: usize) -> usize {
    n.min(1024).max(n / 8)
}

/// Interns keys into dense ids `0, 1, 2, …` in first-seen order. Each
/// distinct key is stored once, as row `id` of the table's key columns.
#[derive(Debug)]
pub struct KeyTable {
    keys: Vec<ColumnBuilder>,
    /// While the table is direct (the module doc), its index; the slots are
    /// empty.
    direct: Option<Direct>,
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
        let ints = |k: &ColumnBuilder| matches!(k.data(), ColumnData::Int(_) | ColumnData::Timestamp(_));
        if !keys.is_empty() && keys.iter().all(ints) {
            return KeyTable { keys, direct: Some(Direct::default()), hashes: Vec::new(), slots: Vec::new() };
        }
        KeyTable::hashed(keys, capacity)
    }

    /// [`Self::new`], hashed from the start.
    fn hashed(keys: Vec<ColumnBuilder>, capacity: usize) -> Self {
        let slots = vec![NO_KEY; (capacity * 2).next_power_of_two().max(16)];
        KeyTable { keys, direct: None, hashes: Vec::with_capacity(capacity), slots }
    }

    /// The stored keys interned afresh by a hashed table: the same ids.
    fn hashed_copy(&self) -> Self {
        let all: Vec<u32> = (0..self.len() as u32).collect();
        let stored: Vec<Arc<Column>> = self.gather(&all).map(Arc::new).collect();
        let keys = stored.iter().map(|c| ColumnBuilder::like(c, c.len())).collect();
        let mut copy = KeyTable::hashed(keys, self.len());
        copy.intern_rows(&stored, self.len(), false);
        copy
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.direct.as_ref().map_or(self.hashes.len(), |_| self.keys[0].len())
    }

    /// Whether no key is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the table still finds its keys by the direct index (the
    /// module doc), not by hashing.
    pub fn is_direct(&self) -> bool {
        self.direct.is_some()
    }

    fn home_slot(&self, hash: u64) -> usize {
        (spread(hash) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The equality of one call over the incoming key columns `cols`: `Ok`,
    /// raw `i64`s, when [`RawInts`]' condition holds; `Err`, [`Cells`],
    /// otherwise (the module doc's rule).
    fn equality<'c>(&self, cols: &'c [Arc<Column>]) -> Result<RawInts<'c>, Cells<'c>> {
        let plain = cols.iter().all(|c| c.no_nulls()) && self.keys.iter().all(ColumnBuilder::no_nulls);
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
        if let Some(dict) = one_dict(cols, n) {
            let eq = Cells(cols);
            return by_code(&cols[0], dict, n, skip_nulls, |row, hash| match self.probe(&eq, row, hash) {
                Ok(id) => id,
                Err(slot) => self.insert(slot, cols, row, hash),
            });
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
        let KeyTable { keys, direct: Some(direct), .. } = self else { return None };
        let vals: Vec<&[i64]> = keys.iter().zip(cols).map(|(k, c)| same_ints(k, c)).collect::<Option<_>>()?;
        let nulls = typed_nulls(cols);
        if !(skip_nulls || nulls.is_empty()) {
            return None;
        }
        let live = |row: usize| !nulls.iter().any(|nulls| nulls.is_null(row));
        // Each column's `lo..=hi` over the live rows, `None` with none live.
        let range = |vals: &[i64]| {
            let widen = |(lo, hi): (i64, i64), v: i64| (lo.min(v), hi.max(v));
            let (lo, hi) = match nulls.is_empty() {
                true => vals.iter().fold((i64::MAX, i64::MIN), |r, &v| widen(r, v)),
                false => (0..n).filter(|&row| live(row)).fold((i64::MAX, i64::MIN), |r, row| widen(r, vals[row])),
            };
            (lo <= hi).then_some((lo, hi))
        };
        let ranges: Option<Vec<(i64, i64)>> = vals.iter().map(|v| range(v)).collect();
        // The span budget: four values per key stored or arriving, plus 1 024
        // (and every offset below `NO_KEY`).
        let budget = (4 * (keys[0].len() + n) as i128 + 1024).min(NO_KEY as i128);
        if ranges.is_some_and(|ranges| !direct.cover(&ranges, budget, keys)) {
            return None;
        }
        // Every live row's offset lies in the windows just covered; each
        // becomes the row's id in place.
        let mut ids = direct.offsets(&vals, &nulls, n);
        for (row, at) in ids.iter_mut().enumerate().filter(|(_, at)| **at != NO_KEY) {
            let id = &mut direct.ids[*at as usize];
            if *id == NO_KEY {
                *id = keys[0].len() as u32;
                (keys.iter_mut().zip(cols)).for_each(|(key, col)| key.push(&col.value(row)));
            }
            *at = *id;
        }
        Some(ids)
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
        if let Some(direct) = &self.direct {
            let vals = self.keys.iter().zip(cols).map(|(k, c)| same_ints(k, c)).collect::<Option<Vec<_>>>();
            let Some(vals) = vals else { return self.find_other_flavor(cols, n) };
            let mut ids = direct.offsets(&vals, &typed_nulls(cols), n);
            ids.iter_mut().for_each(|at| *at = direct.ids.get(*at as usize).copied().unwrap_or(NO_KEY));
            return ids;
        }
        if let Some(dict) = one_dict(cols, n) {
            return by_code(&cols[0], dict, n, false, |row, hash| self.probe(&Cells(cols), row, hash).unwrap_or(NO_KEY));
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
        let stored = cols.iter().map(|c| ColumnBuilder::like(c, n)).collect();
        let mut cells = KeyTable::hashed(stored, n);
        let ids = cells.intern_rows(cols, n, true);
        let mut stored_id = vec![NO_KEY; cells.len()];
        let all: Vec<u32> = (0..self.len() as u32).collect();
        let keys: Vec<Arc<Column>> = self.gather(&all).map(Arc::new).collect();
        let found = cells.find_rows(&keys, self.len());
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

    /// Key `id`, one cell per key column.
    pub fn key(&self, id: usize) -> impl Iterator<Item = Value> + '_ {
        self.keys.iter().map(move |k| k.value(id))
    }

    /// The keys `ids` as columns, one per key column, key `ids[i]` at row `i`.
    pub fn gather<'a>(&'a self, ids: &'a [u32]) -> impl Iterator<Item = Column> + 'a {
        self.keys.iter().map(move |k| k.gather(ids))
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
        let stored = cols.iter().map(|c| ColumnBuilder::like(c, reserve_for(n))).collect();
        let mut table = KeyTable::new(stored, reserve_for(n));
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

    /// For each cell of the binding list `keys` in turn, the rows holding it —
    /// binding order, a duplicated key's rows twice: the list probed as it
    /// came, in one call, O(k) for k keys — O(k + distinct keys) when it is not
    /// of a direct index's own flavor (a `Float` twin, a `Mixed` list), still
    /// under a sweep.
    pub fn lookup(&self, keys: &Arc<Column>) -> Vec<u32> {
        let ids = self.table.find_rows(std::slice::from_ref(keys), keys.len());
        ids.iter().flat_map(|&id| self.rows_of(id)).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hazards, DataType};
    use hazards::P53;
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
        assert_eq!(lists.lookup(&column(&keys, DataType::Int)), sweep);
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
                let all: Vec<u32> = (0..own.len() as u32).collect();
                let keys = |table: &KeyTable| format!("{:?}", table.gather(&all).collect::<Vec<_>>());
                prop_assert_eq!(keys(&own), keys(&pinned), "chunk {}", k);
                prop_assert_eq!(found(&own), found(&pinned), "after chunk {}", k);
            }
            prop_assert_eq!(format!("{:?}", own.into_columns()), format!("{:?}", pinned.into_columns()));
        }

        /// Two- and three-column Int/Timestamp keys: a table that picks its
        /// own index answers as one pinned hashed. Column `c` draws around a
        /// base of its own (near zero, far below it, or at either end of
        /// `i64`, so the windows' product overflows `i64`) over a span of its
        /// own; a chunk may add a span breaker at its end, re-base a column
        /// below its window, or hold NULLs, and is interned with or without
        /// `skip_nulls`. After every chunk the two have handed out the same ids
        /// and hold the same keys, and before and after it they find every
        /// chunk so far alike: as interned, as `Float` twins (every column, or
        /// the first alone), as Ints, as Timestamps and as `Mixed` copies.
        #[test]
        fn composite_direct_and_hashed_tables_answer_alike(
            columns in proptest::collection::vec((0usize..4, 1i64..24, any::<bool>()), 2..4),
            chunks in proptest::collection::vec(
                ((proptest::collection::vec(0i64..64, 0..24), 0usize..5), 0usize..4, any::<bool>()),
                1..6,
            ),
        ) {
            let width = columns.len();
            let base = |c: usize| [-2, -1_000, i64::MIN, i64::MAX - 64][columns[c].0];
            let types: Vec<DataType> = (columns.iter())
                .map(|&(_, _, stamped)| if stamped { DataType::Timestamp } else { DataType::Int })
                .collect();
            let typed = |c: usize, i: i64| if columns[c].2 { Value::Timestamp(i) } else { Value::Int(i) };
            let keys = || types.iter().map(|&ty| ColumnBuilder::new(ty, 0)).collect();
            let (mut own, mut pinned) = (KeyTable::new(keys(), 0), KeyTable::hashed(keys(), 0));
            let mut asked: Vec<Vec<Arc<Column>>> = Vec::new();
            for (k, ((picks, flavor), far, skip_nulls)) in chunks.iter().enumerate() {
                // Row `r`'s cell in column `c`: a pick, spread over the columns.
                let mut cells: Vec<Vec<Value>> = (0..width)
                    .map(|c| {
                        let cell = |(r, p): (usize, &i64)| match *flavor {
                            3 if (r + c) % 3 == 0 => Value::Null,
                            4 if c == 0 => typed(c, base(c).wrapping_sub(64).wrapping_add(p % columns[c].1)),
                            _ => typed(c, base(c).wrapping_add((p >> c) % columns[c].1)),
                        };
                        picks.iter().enumerate().map(cell).collect()
                    })
                    .collect();
                if *flavor == 1 {
                    // A span breaker, in one column, at the chunk's end.
                    for (c, col) in cells.iter_mut().enumerate() {
                        let at = if c == *far % width { [P53 + 1, i64::MIN, i64::MAX, -P53][*far] } else { base(c) };
                        col.push(typed(c, at));
                    }
                }
                let n = cells[0].len();
                let as_cols = |to: &dyn Fn(usize, &Value) -> Value| -> Vec<Arc<Column>> {
                    (cells.iter().enumerate())
                        .map(|(c, col)| column(&col.iter().map(|v| to(c, v)).collect::<Vec<_>>(), types[c]))
                        .collect()
                };
                let recast = |to: fn(i64) -> Value, only: Option<usize>| {
                    move |c: usize, v: &Value| match v {
                        Value::Int(i) | Value::Timestamp(i) if only.is_none_or(|o| o == c) => to(*i),
                        v => v.clone(),
                    }
                };
                let col = as_cols(&|_, v| v.clone());
                let mixed = (cells.iter())
                    .map(|col| Arc::new(Column::new(ColumnData::Mixed(col.clone()), None)))
                    .collect();
                asked.extend([
                    col.clone(),
                    as_cols(&recast(|i| Value::Float(i as f64), None)),
                    as_cols(&recast(|i| Value::Float(i as f64), Some(0))),
                    as_cols(&recast(Value::Int, None)),
                    as_cols(&recast(Value::Timestamp, None)),
                    mixed,
                ]);
                let found = |table: &KeyTable| -> Vec<Vec<u32>> {
                    asked.iter().map(|q| table.find_rows(q, q[0].len())).collect()
                };
                prop_assert_eq!(found(&own), found(&pinned), "before chunk {}", k);
                let ids = own.intern_rows(&col, n, *skip_nulls);
                prop_assert_eq!(&ids, &pinned.intern_rows(&col, n, *skip_nulls), "chunk {}", k);
                prop_assert_eq!(own.len(), pinned.len());
                let all: Vec<u32> = (0..own.len() as u32).collect();
                let stored = |table: &KeyTable| format!("{:?}", table.gather(&all).collect::<Vec<_>>());
                prop_assert_eq!(stored(&own), stored(&pinned), "chunk {}", k);
                prop_assert_eq!(found(&own), found(&pinned), "after chunk {}", k);
            }
            prop_assert_eq!(format!("{:?}", own.into_columns()), format!("{:?}", pinned.into_columns()));
        }

        /// One-column `Str` keys: a table answers as one pinned hashed that
        /// is handed every chunk as a `Mixed` copy, whose cells it compares one
        /// by one. Chunks are drawn over dictionaries of their own, repeating
        /// entries, larger and smaller than the chunk, or shared with the
        /// chunk before; a NULL lies over code 0. After every chunk the two
        /// have handed out the same ids and hold the same keys, and they find
        /// every chunk so far alike, as it came and as a `Mixed` copy.
        #[test]
        fn str_key_tables_answer_alike_by_code(
            chunks in proptest::collection::vec(
                (
                    (
                        proptest::collection::vec(0..hazards::STR_HAZARDS.len(), 1..8),
                        proptest::collection::vec((0usize..8, any::<bool>()), 0..24),
                    ),
                    any::<bool>(),
                    any::<bool>(),
                ),
                1..6,
            ),
        ) {
            let keys = || vec![ColumnBuilder::new(DataType::Str, 0)];
            let (mut own, mut pinned) = (KeyTable::new(keys(), 0), KeyTable::hashed(keys(), 0));
            let mut asked: Vec<Arc<Column>> = Vec::new();
            let mut dict: Arc<[Arc<str>]> = Arc::from([]);
            for (k, ((entries, rows), shared, skip_nulls)) in chunks.iter().enumerate() {
                if !(*shared && k > 0) {
                    dict = entries.iter().map(|&e| Arc::from(hazards::STR_HAZARDS[e])).collect();
                }
                let codes: Vec<u32> = rows.iter().map(|&(c, null)| if null { 0 } else { (c % dict.len()) as u32 }).collect();
                let mut nulls = NullBitmap::new_valid(rows.len());
                (rows.iter().enumerate()).filter(|(_, &(_, null))| null).for_each(|(r, _)| nulls.set_null(r));
                let col = Arc::new(Column::new(ColumnData::Str { dict: Arc::clone(&dict), codes }, Some(nulls)));
                let n = col.len();
                let mixed = Arc::new(Column::new(ColumnData::Mixed((0..n).map(|r| col.value(r)).collect()), None));
                asked.extend([Arc::clone(&col), Arc::clone(&mixed)]);
                let found = |table: &KeyTable| -> Vec<Vec<u32>> {
                    asked.iter().map(|q| table.find_rows(std::slice::from_ref(q), q.len())).collect()
                };
                prop_assert_eq!(found(&own), found(&pinned), "before chunk {}", k);
                let ids = own.intern_rows(std::slice::from_ref(&col), n, *skip_nulls);
                prop_assert_eq!(&ids, &pinned.intern_rows(&[mixed], n, *skip_nulls), "chunk {}", k);
                prop_assert_eq!(own.len(), pinned.len());
                let all: Vec<u32> = (0..own.len() as u32).collect();
                prop_assert!(own.gather(&all).eq(pinned.gather(&all)), "chunk {}", k);
                prop_assert_eq!(found(&own), found(&pinned), "after chunk {}", k);
            }
            prop_assert_eq!(own.into_columns(), pinned.into_columns());
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
            prop_assert_eq!(lists.lookup(&column(&keys, DataType::Int)), sweep);
            let ids = lists.table().find_rows(std::slice::from_ref(&col), cells.len());
            for (row, &id) in ids.iter().enumerate() {
                let rows = lists.rows_of(id);
                prop_assert!(rows.contains(&(row as u32)) && rows.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
