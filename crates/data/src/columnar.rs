//! Columnar batches: typed column vectors, null bitmaps, and selection
//! vectors — the batch-first data model behind the vectorized executor.
//!
//! [`ColumnarBatch`] is what flows from a source adapter to the result edge:
//! adapters scan straight into [`ColumnBuilder`]s, the wire is priced over
//! columns ([`ColumnarBatch::wire_size`]), operators pass columns and
//! *selection vectors* (index lists) so a filter costs one `Vec<u32>` instead
//! of materializing rows, and the executor pivots back to a [`Batch`] of
//! [`Row`]s once per query with [`ColumnarBatch::to_batch`]. The row model
//! stays where rows are the point: the result cache, IVM change logs,
//! `ExecOutcome`, and the row-at-a-time baselines.
//!
//! Layout invariants:
//!
//! - every column of a batch has the same *physical* length;
//! - `sel`, when present, lists physical indices in logical row order
//!   (duplicates allowed — a join probe may select a build row many times);
//! - null bitmaps travel with the typed vectors; the value slot under a null
//!   is an arbitrary placeholder and must never be read;
//! - a column whose values do not fit one [`Value`] variant degrades to
//!   [`ColumnData::Mixed`] (heterogeneous, schema-less sources) with nulls
//!   stored inline — correctness never depends on a column being typed.
//!
//! Strings are dictionary-encoded ([`ColumnData::Str`]): a shared
//! `Arc<[Arc<str>]>` of strings plus one `u32` code per row. Gathers and
//! `concat` of chunks that share a dictionary copy codes and clone one `Arc`
//! per column; string kernels and the key hash run once per dictionary entry
//! ([`by_entry`]). No string is hashed to build a column: a store that interns
//! its strings when written gets, from [`ColumnBuilder::sharing`], dictionaries
//! holding each live string once. Correctness never depends on a dictionary
//! being duplicate-free, and [`Column`]'s `==` compares strings, not codes.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::batch::Batch;
use crate::keys::{cells_cmp, KeyHasher};
use crate::row::Row;
use crate::schema::{DataType, SchemaRef};
use crate::value::Value;

/// "No row" in a gather list: [`Column::gather_opt`] answers NULL there — a
/// Left join's build side for a probe row that matched nothing.
pub const NO_ROW: u32 = u32::MAX;

/// A validity bitmap: bit set ⇒ value present, clear ⇒ NULL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// An all-valid bitmap of `len` bits.
    pub fn new_valid(len: usize) -> Self {
        NullBitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        }
    }

    /// An all-NULL bitmap of `len` bits: cleared words, the padding past
    /// `len` left set as everywhere else.
    pub fn new_null(len: usize) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last = u64::MAX << (len % 64);
        }
        NullBitmap { words, len }
    }

    /// Validity of a value that needs both of two operands: the word-wise
    /// AND of their bitmaps, and no bitmap when neither has one. Both cover
    /// the same number of rows.
    pub fn both_valid(a: Option<&NullBitmap>, b: Option<&NullBitmap>) -> Option<NullBitmap> {
        let (Some(a), Some(b)) = (a, b) else {
            return a.or(b).cloned();
        };
        debug_assert_eq!(a.len, b.len);
        let words = a.words.iter().zip(&b.words).map(|(x, y)| x & y).collect();
        Some(NullBitmap { words, len: a.len })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one position.
    pub fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(u64::MAX);
        }
        self.len += 1;
        if null {
            self.set_null(self.len - 1);
        }
    }

    /// Mark position `i` as NULL.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// True iff position `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) == 0
    }

    /// Number of NULL positions.
    pub fn null_count(&self) -> usize {
        let set: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        // Trailing bits past `len` are left set by construction.
        let padding = self.words.len() * 64 - self.len;
        self.len - (set - padding)
    }

    /// True iff no position is NULL.
    pub fn all_valid(&self) -> bool {
        self.null_count() == 0
    }
}

/// The typed storage of one column: one vector per [`Value`] variant, plus a
/// `Mixed` escape hatch for heterogeneous columns.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Strings, dictionary-encoded: row `i` is `dict[codes[i]]`. The
    /// dictionary is shared by gathers and may repeat an entry; every code
    /// indexes it.
    Str { dict: Arc<[Arc<str>]>, codes: Vec<u32> },
    /// Simulated-clock timestamps.
    Timestamp(Vec<i64>),
    /// Heterogeneous values (schema-less sources); NULLs are inline
    /// [`Value::Null`]s and the sibling bitmap is ignored.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Timestamp(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }
}

/// One column: typed data plus an optional null bitmap (`None` ⇒ no NULLs,
/// except for `Mixed` where NULLs are inline).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: Option<NullBitmap>,
}

/// Two `Str` columns are equal when they have the same NULLs and every other
/// row holds the same string, whatever their dictionaries and placeholders.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        let strs = self.as_dict().is_some() && other.as_dict().is_some();
        let same = |i: usize| self.is_null(i) || self.value(i) == other.value(i);
        self.nulls == other.nulls
            && if strs { self.len() == other.len() && (0..self.len()).all(same) } else { self.data == other.data }
    }
}

impl Column {
    /// Build from parts. The bitmap, when present, must match the data length.
    pub fn new(data: ColumnData, nulls: Option<NullBitmap>) -> Self {
        debug_assert!(nulls.as_ref().is_none_or(|n| n.len() == data.len()));
        if let ColumnData::Str { dict, codes } = &data {
            debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        }
        Column { data, nulls }
    }

    /// Build a typed column from scalar values, degrading to `Mixed` when a
    /// non-null value does not fit `ty`.
    pub fn from_values(values: &[Value], ty: DataType) -> Self {
        let mut b = ColumnBuilder::new(ty, values.len());
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// A column of `len` copies of one scalar (literal broadcast).
    pub fn broadcast(value: &Value, len: usize) -> Self {
        match value {
            Value::Null => Column {
                data: ColumnData::Int(vec![0; len]),
                nulls: Some(NullBitmap::new_null(len)),
            },
            Value::Bool(b) => Column::new(ColumnData::Bool(vec![*b; len]), None),
            Value::Int(i) => Column::new(ColumnData::Int(vec![*i; len]), None),
            Value::Float(f) => Column::new(ColumnData::Float(vec![*f; len]), None),
            Value::Str(s) => Column::new(ColumnData::Str { dict: Arc::from([Arc::clone(s)]), codes: vec![0; len] }, None),
            Value::Timestamp(t) => Column::new(ColumnData::Timestamp(vec![*t; len]), None),
        }
    }

    /// Physical length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column holds zero values.
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap, if any position may be NULL (`Mixed` stores NULLs
    /// inline instead).
    pub fn nulls(&self) -> Option<&NullBitmap> {
        self.nulls.as_ref()
    }

    /// True iff position `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        if let ColumnData::Mixed(v) = &self.data {
            return v[i].is_null();
        }
        self.nulls.as_ref().is_some_and(|n| n.is_null(i))
    }

    /// True when no position is NULL.
    pub fn no_nulls(&self) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => v.iter().all(|x| !x.is_null()),
            _ => self.nulls.as_ref().is_none_or(NullBitmap::all_valid),
        }
    }

    /// The scalar at position `i` (clones `Arc` for strings).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str { dict, codes } => Value::Str(Arc::clone(&dict[codes[i] as usize])),
            ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// The integer vector, when this column is typed `Int`.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The float vector, when this column is typed `Float`.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The bool vector, when this column is typed `Bool`.
    pub fn as_bools(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The dictionary and the codes, when this column is typed `Str`: row
    /// `i` is `dict[codes[i]]`, a placeholder under a NULL.
    pub fn as_dict(&self) -> Option<(&[Arc<str>], &[u32])> {
        match &self.data {
            ColumnData::Str { dict, codes } => Some((dict, codes)),
            _ => None,
        }
    }

    /// Copy out the positions in `sel`, producing a compact column.
    pub fn gather(&self, sel: &[u32]) -> Column {
        macro_rules! take {
            ($variant:ident, $v:expr) => {
                ColumnData::$variant(sel.iter().map(|&i| $v[i as usize].clone()).collect())
            };
        }
        let data = match &self.data {
            ColumnData::Bool(v) => take!(Bool, v),
            ColumnData::Int(v) => take!(Int, v),
            ColumnData::Float(v) => take!(Float, v),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: Arc::clone(dict),
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
            },
            ColumnData::Timestamp(v) => take!(Timestamp, v),
            ColumnData::Mixed(v) => take!(Mixed, v),
        };
        Column::new(data, self.gather_nulls(sel))
    }

    /// The null bitmap of [`Self::gather`]`(sel)`.
    fn gather_nulls(&self, sel: &[u32]) -> Option<NullBitmap> {
        self.nulls.as_ref().map(|old| {
            let mut n = NullBitmap::new_valid(sel.len());
            for (out, &i) in sel.iter().enumerate() {
                if old.is_null(i as usize) {
                    n.set_null(out);
                }
            }
            n
        })
    }

    /// [`Self::gather`] with an absent-row sentinel: positions equal to
    /// [`NO_ROW`] come out NULL (outer-join null extension). The column keeps
    /// its representation — a typed vector gains a bitmap, `Mixed` an inline
    /// NULL — so kernels above an outer join stay on their typed paths.
    pub fn gather_opt(&self, sel: &[u32]) -> Column {
        if !sel.contains(&NO_ROW) {
            return self.gather(sel);
        }
        macro_rules! take {
            ($variant:ident, $v:expr, $absent:expr) => {
                ColumnData::$variant(
                    sel.iter()
                        .map(|&i| if i == NO_ROW { $absent } else { $v[i as usize].clone() })
                        .collect(),
                )
            };
        }
        let data = match &self.data {
            ColumnData::Mixed(v) => return Column::new(take!(Mixed, v, Value::Null), None),
            ColumnData::Bool(v) => take!(Bool, v, false),
            ColumnData::Int(v) => take!(Int, v, 0),
            ColumnData::Float(v) => take!(Float, v, 0.0),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                // Code 0 under an absent row: an empty dictionary gains an entry.
                dict: if dict.is_empty() { Arc::from([empty_str()]) } else { Arc::clone(dict) },
                codes: sel.iter().map(|&i| if i == NO_ROW { 0 } else { codes[i as usize] }).collect(),
            },
            ColumnData::Timestamp(v) => take!(Timestamp, v, 0),
        };
        let mut nulls = NullBitmap::new_valid(sel.len());
        for (out, &i) in sel.iter().enumerate() {
            if i == NO_ROW || self.is_null(i as usize) {
                nulls.set_null(out);
            }
        }
        Column::new(data, Some(nulls))
    }
}

impl Column {
    /// Payload bytes of the cells at physical positions `rows`: what
    /// [`Value::wire_size`] counts past each cell's tag byte.
    fn payload_size(&self, rows: impl Iterator<Item = usize>) -> usize {
        let valid = rows.filter(|&i| !self.is_null(i));
        match &self.data {
            ColumnData::Bool(_) => valid.count(),
            ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Timestamp(_) => {
                8 * valid.count()
            }
            ColumnData::Str { dict, codes } => valid.map(|i| 4 + dict[codes[i] as usize].len()).sum(),
            ColumnData::Mixed(v) => valid.map(|i| v[i].wire_size() - 1).sum(),
        }
    }
}

/// The shared placeholder under a NULL of a string column.
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from("")))
}

/// `f` of the string under every code: once per dictionary entry, mapped by
/// code, when the dictionary is no larger than the codes; code by code
/// through it otherwise.
pub fn by_entry<T: Copy>(dict: &[Arc<str>], codes: &[u32], mut f: impl FnMut(&Arc<str>) -> T) -> Vec<T> {
    if dict.len() <= codes.len() {
        let per_entry: Vec<T> = dict.iter().map(&mut f).collect();
        codes.iter().map(|&c| per_entry[c as usize]).collect()
    } else {
        codes.iter().map(|&c| f(&dict[c as usize])).collect()
    }
}

/// Grows one [`Column`] a value, or a whole column, at a time: what every
/// adapter scans into and what [`Column::from_values`] and
/// [`ColumnarBatch::concat`] build through.
///
/// The builder's state is the column so far. It starts as the typed vector
/// of the declared [`DataType`]; the first non-NULL value of another type
/// degrades it to [`ColumnData::Mixed`], and no arm below leads back out of
/// that variant — "Mixed once means Mixed forever" is the shape of the match,
/// not a flag beside it. A `Str` column's new dictionary entries collect in a
/// vector that [`Self::finish`] moves into the dictionary, so a push clones
/// one `Arc`; a builder read while it grows (a key table's) reads them there.
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
    /// A `Str` column's entries, when any were added: the dictionary's
    /// otherwise — taken whole from the first chunk appended, or empty.
    strs: Vec<Arc<str>>,
    /// The entry of each allocation pushed, by address ([`Self::sharing`]).
    by_address: Option<HashMap<u64, u32, KeyHasher>>,
}

/// Add `s` as a new entry and answer its code: pushed onto `strs`, the
/// dictionary's entries copied there first.
fn add_entry(dict: &[Arc<str>], strs: &mut Vec<Arc<str>>, s: &Arc<str>) -> u32 {
    if strs.is_empty() {
        strs.extend_from_slice(dict);
    }
    strs.push(Arc::clone(s));
    (strs.len() - 1) as u32
}

impl ColumnBuilder {
    fn of(data: ColumnData) -> Self {
        ColumnBuilder { column: Column { data, nulls: None }, strs: Vec::new(), by_address: None }
    }

    /// An empty builder for a column declared `ty`, with room for `capacity`
    /// values.
    pub fn new(ty: DataType, capacity: usize) -> Self {
        ColumnBuilder::of(match ty {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(capacity)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(capacity)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(capacity)),
            DataType::Str => ColumnData::Str { dict: Arc::default(), codes: Vec::with_capacity(capacity) },
            DataType::Timestamp => ColumnData::Timestamp(Vec::with_capacity(capacity)),
        })
    }

    /// An empty builder in `like`'s representation (`Mixed` included), with
    /// room for `capacity` values.
    pub fn like(like: &Column, capacity: usize) -> Self {
        match &like.data {
            ColumnData::Bool(_) => ColumnBuilder::new(DataType::Bool, capacity),
            ColumnData::Int(_) => ColumnBuilder::new(DataType::Int, capacity),
            ColumnData::Float(_) => ColumnBuilder::new(DataType::Float, capacity),
            ColumnData::Str { .. } => ColumnBuilder::new(DataType::Str, capacity),
            ColumnData::Timestamp(_) => ColumnBuilder::new(DataType::Timestamp, capacity),
            ColumnData::Mixed(_) => ColumnBuilder::of(ColumnData::Mixed(Vec::with_capacity(capacity))),
        }
    }

    /// [`Self::new`], `Str` cells pushed in one allocation sharing one entry,
    /// found by address (the dictionary keeps what it lists alive, so no
    /// address is reused): an interning store's column lists each string once.
    pub fn sharing(ty: DataType, capacity: usize) -> Self {
        ColumnBuilder { by_address: Some(HashMap::default()), ..ColumnBuilder::new(ty, capacity) }
    }

    /// Number of values so far.
    pub(crate) fn len(&self) -> usize {
        self.column.len()
    }

    /// True when no value so far is NULL.
    pub(crate) fn no_nulls(&self) -> bool {
        self.column.no_nulls()
    }

    /// The typed storage so far, for a key table's `Int` paths: a `Str`
    /// column's cells are read through [`Self::value`].
    pub(crate) fn data(&self) -> &ColumnData {
        &self.column.data
    }

    /// Value `i` so far.
    pub(crate) fn value(&self, i: usize) -> Value {
        match &self.column.data {
            ColumnData::Str { codes, .. } if !self.strs.is_empty() && !self.column.is_null(i) => {
                Value::Str(Arc::clone(&self.strs[codes[i] as usize]))
            }
            _ => self.column.value(i),
        }
    }

    /// [`Column::gather`] of the column built so far.
    pub(crate) fn gather(&self, sel: &[u32]) -> Column {
        let ColumnData::Str { dict, codes } = &self.column.data else { return self.column.gather(sel) };
        let dict = match &self.strs[..] {
            [] if dict.is_empty() => Arc::from([empty_str()]),
            [] => Arc::clone(dict),
            strs => strs.into(),
        };
        let codes = sel.iter().map(|&i| codes[i as usize]).collect();
        Column::new(ColumnData::Str { dict, codes }, self.column.gather_nulls(sel))
    }

    /// [`cells_cmp`] of cell `i` of the column built so far against cell `j`
    /// of `b`, two strings compared in place.
    pub(crate) fn cmp_cell(&self, i: usize, b: &Column, j: usize) -> Ordering {
        match (&self.column.data, b.as_dict()) {
            _ if self.strs.is_empty() => cells_cmp(&self.column, i, b, j),
            (ColumnData::Str { codes, .. }, Some((dict, at))) if !self.column.is_null(i) && !b.is_null(j) => {
                self.strs[codes[i] as usize].cmp(&dict[at[j] as usize])
            }
            _ => self.value(i).cmp(&b.value(j)),
        }
    }

    /// The column built so far.
    pub fn finish(mut self) -> Column {
        self.settle();
        self.column
    }

    /// Move a `Str` column's added entries into its dictionary, which gains
    /// the placeholder the NULLs' code 0 needs when it has no entry.
    fn settle(&mut self) {
        if let ColumnData::Str { dict, codes } = &mut self.column.data {
            if self.strs.is_empty() && dict.is_empty() && !codes.is_empty() {
                self.strs.push(empty_str());
            }
            if !self.strs.is_empty() {
                *dict = std::mem::take(&mut self.strs).into();
            }
        }
    }

    /// Record whether the position just appended to a typed vector is NULL;
    /// the bitmap appears with the first NULL.
    fn push_validity(&mut self, null: bool) {
        match &mut self.column.nulls {
            Some(nulls) => nulls.push(null),
            None if null => {
                let len = self.column.data.len();
                let mut nulls = NullBitmap::new_valid(len);
                nulls.set_null(len - 1);
                self.column.nulls = Some(nulls);
            }
            None => {}
        }
    }

    /// Re-house the values so far as inline [`Value`]s.
    fn degrade(&mut self) {
        self.settle();
        let values = (0..self.column.len()).map(|i| self.column.value(i)).collect();
        self.column = Column {
            data: ColumnData::Mixed(values),
            nulls: None,
        };
    }

    /// Append one value.
    pub fn push(&mut self, v: &Value) {
        let ColumnBuilder { column, strs, by_address } = self;
        match (&mut column.data, v) {
            (ColumnData::Mixed(d), v) => return d.push(v.clone()),
            (ColumnData::Bool(d), Value::Bool(b)) => d.push(*b),
            (ColumnData::Int(d), Value::Int(i)) => d.push(*i),
            (ColumnData::Float(d), Value::Float(f)) => d.push(*f),
            (ColumnData::Str { dict, codes }, Value::Str(s)) => codes.push(match by_address {
                Some(seen) => *seen
                    .entry(Arc::as_ptr(s) as *const u8 as u64)
                    .or_insert_with(|| add_entry(dict, strs, s)),
                None => add_entry(dict, strs, s),
            }),
            (ColumnData::Timestamp(d), Value::Timestamp(t)) => d.push(*t),
            (ColumnData::Bool(d), Value::Null) => d.push(false),
            (ColumnData::Int(d) | ColumnData::Timestamp(d), Value::Null) => d.push(0),
            (ColumnData::Float(d), Value::Null) => d.push(0.0),
            // Code 0 under a NULL: the first entry, or the placeholder
            // `finish` adds when there is none.
            (ColumnData::Str { codes, .. }, Value::Null) => codes.push(0),
            _ => {
                self.degrade();
                return self.push(v);
            }
        }
        self.push_validity(v.is_null());
    }

    /// Append every value of `src`, vector to vector when the two share a
    /// representation.
    pub fn append(&mut self, src: &Column) {
        let old_len = self.column.len();
        let ColumnBuilder { column, strs, .. } = self;
        match (&mut column.data, &src.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            // The first chunk's dictionary is taken whole, and a chunk that
            // shares it adds its codes; any other adds its strings.
            (ColumnData::Str { dict, codes }, ColumnData::Str { dict: from, codes: more }) => {
                if codes.is_empty() && strs.is_empty() {
                    *dict = Arc::clone(from);
                }
                if Arc::ptr_eq(dict, from) {
                    codes.extend_from_slice(more);
                } else {
                    codes.extend(by_entry(from, more, |s| add_entry(dict, strs, s)));
                }
            }
            (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => a.extend_from_slice(b),
            (ColumnData::Mixed(a), _) => return a.extend((0..src.len()).map(|i| src.value(i))),
            _ => {
                self.degrade();
                return self.append(src);
            }
        }
        if self.column.nulls.is_some() || src.nulls.is_some() {
            let nulls = self.column.nulls.get_or_insert_with(|| NullBitmap::new_valid(old_len));
            for i in 0..src.len() {
                nulls.push(src.is_null(i));
            }
        }
    }
}

/// A columnar batch: a schema, one [`Column`] per field (shared via `Arc` so
/// projections and renames are free), and an optional selection vector naming
/// the live rows.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    schema: SchemaRef,
    columns: Vec<Arc<Column>>,
    /// Physical row count (columns may be absent for zero-column schemas).
    base_len: usize,
    /// Logical-order list of live physical indices; `None` ⇒ all rows live.
    sel: Option<Arc<Vec<u32>>>,
}

impl ColumnarBatch {
    /// Build from compact parts (no selection).
    pub fn new(schema: SchemaRef, columns: Vec<Arc<Column>>, base_len: usize) -> Self {
        debug_assert_eq!(columns.len(), schema.len());
        debug_assert!(columns.iter().all(|c| c.len() == base_len));
        ColumnarBatch {
            schema,
            columns,
            base_len,
            sel: None,
        }
    }

    /// An empty batch of the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::from_values(&[], f.data_type)))
            .collect();
        ColumnarBatch {
            schema,
            columns,
            base_len: 0,
            sel: None,
        }
    }

    /// Pivot a row batch into columns. Each field gets a typed vector per its
    /// declared [`DataType`]; columns whose values disagree with the schema
    /// degrade to [`ColumnData::Mixed`].
    pub fn from_batch(batch: &Batch) -> Self {
        let all: Vec<usize> = (0..batch.schema().len()).collect();
        Self::from_rows(Arc::clone(batch.schema()), &all, batch.rows())
    }

    /// Scan rows, visited by reference, into columns: field `k` of `schema`
    /// takes cell `cols[k]` of every row. Only those cells are touched — a
    /// column that is not asked for is never cloned. Room is reserved for the
    /// most rows the iterator says it may yield.
    pub fn from_rows<'a>(
        schema: SchemaRef,
        cols: &[usize],
        rows: impl IntoIterator<Item = &'a Row>,
    ) -> Self {
        debug_assert_eq!(cols.len(), schema.len());
        let rows = rows.into_iter();
        let (at_least, at_most) = rows.size_hint();
        let capacity = at_most.unwrap_or(at_least);
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, capacity))
            .collect();
        let mut base_len = 0;
        for row in rows {
            for (b, &c) in builders.iter_mut().zip(cols) {
                b.push(row.get(c));
            }
            base_len += 1;
        }
        ColumnarBatch {
            schema,
            columns: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            base_len,
            sel: None,
        }
    }

    /// Pivot back to rows, applying the selection (logical order).
    pub fn to_batch(&self) -> Batch {
        let n = self.num_rows();
        let mut rows = Vec::with_capacity(n);
        for logical in 0..n {
            let phys = self.physical_index(logical);
            let values = self.columns.iter().map(|c| c.value(phys)).collect();
            rows.push(Row::new(values));
        }
        Batch::new(Arc::clone(&self.schema), rows)
    }

    /// Physical indices of the live rows, in logical order.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_rows()).map(|logical| self.physical_index(logical))
    }

    /// Total native wire size of the live rows plus per-row schema overhead:
    /// byte for byte [`Batch::wire_size`] of [`Self::to_batch`], without
    /// materializing a row.
    pub fn wire_size(&self) -> usize {
        let payload: usize = self
            .columns
            .iter()
            .map(|c| c.payload_size(self.live()))
            .sum();
        // One tag byte per cell, the schema's overhead per row.
        let per_row = self.columns.len() + self.schema.row_overhead();
        payload + self.num_rows() * per_row
    }

    /// Total wire size when shipped as XML: byte for byte
    /// [`Batch::xml_wire_size`] of [`Self::to_batch`].
    pub fn xml_wire_size(&self) -> usize {
        let tags = |name: &str| 2 * name.len() + 5;
        let fixed: usize = self.schema.fields().iter().map(|f| tags(&f.name)).sum();
        let text: usize = self
            .columns
            .iter()
            .flat_map(|c| self.live().map(|i| c.value(i).to_string().len()))
            .sum();
        "<rows></rows>".len() + self.num_rows() * ("<row></row>".len() + fixed) + text
    }

    /// The governing schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Re-tag with a different schema of the same width (Rename).
    pub fn with_schema(mut self, schema: SchemaRef) -> Self {
        debug_assert_eq!(schema.len(), self.schema.len());
        self.schema = schema;
        self
    }

    /// Logical (selected) row count.
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.base_len,
        }
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Physical row count of the backing columns.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// The selection vector, when one is active.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(Vec::as_slice)
    }

    /// Column `i` (physical layout; index through [`Self::physical_index`]).
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Map a logical row to its physical index.
    #[inline]
    pub fn physical_index(&self, logical: usize) -> usize {
        match &self.sel {
            Some(s) => s[logical] as usize,
            None => logical,
        }
    }

    /// The scalar at (logical row, column).
    pub fn value_at(&self, logical: usize, col: usize) -> Value {
        self.columns[col].value(self.physical_index(logical))
    }

    /// Materialize one logical row.
    pub fn row(&self, logical: usize) -> Row {
        let phys = self.physical_index(logical);
        Row::new(self.columns.iter().map(|c| c.value(phys)).collect())
    }

    /// Restrict to the given logical rows. `keep` holds *logical* indices of
    /// `self` in the new order; composition with an existing selection is
    /// handled here.
    pub fn select(&self, keep: Vec<u32>) -> Self {
        let sel = match &self.sel {
            Some(old) => keep.into_iter().map(|i| old[i as usize]).collect(),
            None => keep,
        };
        ColumnarBatch {
            schema: Arc::clone(&self.schema),
            columns: self.columns.clone(),
            base_len: self.base_len,
            sel: Some(Arc::new(sel)),
        }
    }

    /// The first `n` live rows, by selection.
    pub fn head(self, n: usize) -> Self {
        if self.num_rows() > n {
            self.select((0..n as u32).collect())
        } else {
            self
        }
    }

    /// Copy the live rows into compact columns (drops the selection). A
    /// no-op when no selection is active.
    pub fn compact(&self) -> Self {
        let Some(sel) = self.sel.as_deref() else {
            return self.clone();
        };
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(sel)))
            .collect();
        ColumnarBatch {
            schema: Arc::clone(&self.schema),
            columns,
            base_len: sel.len(),
            sel: None,
        }
    }

    /// Replace the column set (projection); `base_len` and selection carry
    /// over, so the new columns must share the current physical layout.
    pub fn with_columns(&self, schema: SchemaRef, columns: Vec<Arc<Column>>) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == self.base_len));
        ColumnarBatch {
            schema,
            columns,
            base_len: self.base_len,
            sel: self.sel.clone(),
        }
    }

    /// Concatenate chunks of identical schema into one batch. A single chunk
    /// passes through untouched, selection and all; several are copied once
    /// into compact columns reserved at their total length, each column in
    /// the representation of its first chunk.
    pub fn concat(schema: SchemaRef, chunks: &[ColumnarBatch]) -> Self {
        if let [only] = chunks {
            return only.clone().with_schema(schema);
        }
        let live: Vec<ColumnarBatch> = chunks.iter().map(ColumnarBatch::compact).collect();
        let total: usize = live.iter().map(ColumnarBatch::num_rows).sum();
        if live.is_empty() || schema.is_empty() {
            let mut out = ColumnarBatch::empty(schema);
            out.base_len = total;
            return out;
        }
        let columns = (0..schema.len())
            .map(|c| {
                let mut acc = ColumnBuilder::like(&live[0].columns[c], total);
                for chunk in &live {
                    acc.append(&chunk.columns[c]);
                }
                Arc::new(acc.finish())
            })
            .collect();
        ColumnarBatch {
            schema,
            columns,
            base_len: total,
            sel: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hazards, row};
    use crate::schema::{Field, Schema};
    use proptest::prelude::*;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ]))
    }

    fn sample() -> Batch {
        Batch::new(
            schema(),
            vec![
                row![1i64, "a", 1.5f64],
                row![2i64, Value::Null, 2.5f64],
                row![3i64, "c", Value::Null],
            ],
        )
    }

    #[test]
    fn pivot_round_trips() {
        let b = sample();
        let cb = ColumnarBatch::from_batch(&b);
        assert_eq!(cb.num_rows(), 3);
        assert!(cb.column(0).as_ints().is_some());
        assert_eq!(cb.to_batch(), b);
    }

    #[test]
    fn null_bitmap_tracks_nulls() {
        let cb = ColumnarBatch::from_batch(&sample());
        assert!(!cb.column(0).is_null(0));
        assert!(cb.column(1).is_null(1));
        assert!(cb.column(2).is_null(2));
        assert_eq!(cb.column(1).nulls().unwrap().null_count(), 1);
        assert_eq!(cb.value_at(1, 1), Value::Null);
    }

    #[test]
    fn heterogeneous_column_degrades_to_mixed() {
        let s = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let b = Batch::new(Arc::clone(&s), vec![row![1i64], row!["oops"]]);
        let cb = ColumnarBatch::from_batch(&b);
        assert!(matches!(cb.column(0).data(), ColumnData::Mixed(_)));
        assert_eq!(cb.to_batch(), b);
    }

    #[test]
    fn selection_composes_and_compacts() {
        let cb = ColumnarBatch::from_batch(&sample());
        let first = cb.select(vec![2, 0]);
        assert_eq!(first.num_rows(), 2);
        assert_eq!(first.value_at(0, 0), Value::Int(3));
        // Second select indexes into the first's logical order.
        let second = first.select(vec![1]);
        assert_eq!(second.num_rows(), 1);
        assert_eq!(second.value_at(0, 0), Value::Int(1));
        let compact = second.compact();
        assert!(compact.selection().is_none());
        assert_eq!(compact.to_batch().rows()[0], sample().rows()[0]);
    }

    #[test]
    fn concat_merges_chunks_and_nulls() {
        let a = ColumnarBatch::from_batch(&sample());
        let b = ColumnarBatch::from_batch(&sample()).select(vec![1]);
        let merged = ColumnarBatch::concat(schema(), &[a, b]);
        assert_eq!(merged.num_rows(), 4);
        assert!(merged.column(1).is_null(3));
        assert_eq!(merged.value_at(3, 0), Value::Int(2));
        // Copied once, into vectors reserved at the total.
        assert_eq!(merged.column(0).as_ints().map(<[i64]>::len), Some(4));
        // A single chunk is not copied at all: same columns, same selection.
        let b = ColumnarBatch::from_batch(&sample()).select(vec![2, 1]);
        let same = ColumnarBatch::concat(schema(), std::slice::from_ref(&b));
        assert!(Arc::ptr_eq(same.column(0), b.column(0)));
        assert_eq!(same.selection(), b.selection());
    }

    #[test]
    fn gather_opt_null_extends_in_the_columns_own_representation() {
        let cb = ColumnarBatch::from_batch(&sample());
        let ids = cb.column(0).gather_opt(&[2, NO_ROW, 0]);
        assert_eq!(ids.as_ints().map(<[i64]>::len), Some(3));
        let names = cb.column(1).gather_opt(&[NO_ROW, 1, 0]);
        assert!(names.as_dict().is_some());
        let got: Vec<Value> = (0..3).map(|i| names.value(i)).collect();
        assert_eq!(got, vec![Value::Null, Value::Null, Value::str("a")]);
        assert_eq!(
            (0..3).map(|i| ids.value(i)).collect::<Vec<_>>(),
            vec![Value::Int(3), Value::Null, Value::Int(1)]
        );
        // Mixed stays Mixed, its NULLs inline.
        let mixed = Column::from_values(&[Value::Int(1), Value::str("x")], DataType::Int);
        let out = mixed.gather_opt(&[1, NO_ROW]);
        assert!(matches!(out.data(), ColumnData::Mixed(_)) && out.nulls().is_none());
        assert_eq!(out.value(1), Value::Null);
    }

    #[test]
    fn concat_keeps_typed_chunks_after_mixed_fallback() {
        // [Int, Mixed, Int]: the middle chunk forces the Mixed fallback and
        // the trailing typed chunk must still land in the merged column.
        let s = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let ints_a = ColumnarBatch::from_batch(&Batch::new(
            Arc::clone(&s),
            vec![row![1i64], row![2i64]],
        ));
        let mixed = ColumnarBatch::from_batch(&Batch::new(
            Arc::clone(&s),
            vec![row![Value::Null], row!["oops"]],
        ));
        assert!(matches!(mixed.column(0).data(), ColumnData::Mixed(_)));
        let ints_b = ColumnarBatch::from_batch(&Batch::new(
            Arc::clone(&s),
            vec![row![3i64], row![4i64]],
        ));
        let merged = ColumnarBatch::concat(Arc::clone(&s), &[ints_a, mixed, ints_b]);
        assert_eq!(merged.num_rows(), 6);
        assert_eq!(merged.column(0).len(), 6);
        let got: Vec<Value> = (0..6).map(|i| merged.value_at(i, 0)).collect();
        assert_eq!(
            got,
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::Null,
                Value::from("oops"),
                Value::Int(3),
                Value::Int(4),
            ]
        );
    }

    /// Cells around every hazard the source edge meets, mostly of the column's
    /// own type, so typed vectors (with bitmaps) are common and `Mixed`
    /// columns still occur.
    fn cell(ty: DataType) -> impl Strategy<Value = Value> {
        (hazards::stray_value(), 0usize..8).prop_map(move |(v, stray)| {
            if v.data_type() == Some(ty) || stray == 0 {
                v
            } else {
                Value::Null
            }
        })
    }

    fn hazard_rows() -> impl Strategy<Value = Vec<Row>> {
        let row = (cell(DataType::Int), cell(DataType::Str), cell(DataType::Float))
            .prop_map(|(a, b, c)| Row::new(vec![a, b, c]));
        proptest::collection::vec(row, 0..20)
    }

    /// `Column::from_values` as it was before the builder: all-or-nothing.
    fn reference_from_values(values: &[Value], ty: DataType) -> Column {
        if values.iter().any(|v| !v.is_null() && v.data_type() != Some(ty)) {
            return Column::new(ColumnData::Mixed(values.to_vec()), None);
        }
        let mut nulls = NullBitmap::new_valid(values.len());
        for (i, v) in values.iter().enumerate() {
            if v.is_null() {
                nulls.set_null(i);
            }
        }
        let ints = || values.iter().map(|v| v.as_int().unwrap_or(0)).collect();
        let data = match ty {
            DataType::Bool => {
                ColumnData::Bool(values.iter().map(|v| v.as_bool().unwrap_or(false)).collect())
            }
            DataType::Int => ColumnData::Int(ints()),
            DataType::Timestamp => ColumnData::Timestamp(ints()),
            DataType::Float => {
                ColumnData::Float(values.iter().map(|v| v.as_float().unwrap_or(0.0)).collect())
            }
            DataType::Str => ColumnData::Str {
                dict: values.iter().map(|v| Arc::from(v.as_str().unwrap_or(""))).collect(),
                codes: (0..values.len() as u32).collect(),
            },
        };
        let any_null = !nulls.all_valid();
        Column::new(data, any_null.then_some(nulls))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Identity (a): the wire is priced over columns to the byte the row
        /// formulas price it, under any selection.
        #[test]
        fn wire_sizes_equal_the_row_formulas(
            rows in hazard_rows(),
            picks in proptest::collection::vec(0usize..20, 0..30),
            selected in any::<bool>(),
        ) {
            let n = rows.len();
            let mut cb = ColumnarBatch::from_batch(&Batch::new(schema(), rows));
            if selected && n > 0 {
                // Out of order, with duplicates.
                cb = cb.select(picks.into_iter().map(|p| (p % n) as u32).collect());
            }
            let as_rows = cb.to_batch();
            prop_assert_eq!(cb.wire_size(), as_rows.wire_size());
            prop_assert_eq!(cb.xml_wire_size(), as_rows.xml_wire_size());
        }

        /// Identity (b): the builder builds what `from_values` built, and a
        /// scan into builders loses nothing.
        #[test]
        fn builder_equals_from_values_and_round_trips(
            rows in hazard_rows(),
            split in 0usize..20,
        ) {
            for (c, f) in schema().fields().iter().enumerate() {
                let values: Vec<Value> = rows.iter().map(|r| r.get(c).clone()).collect();
                let built = Column::from_values(&values, f.data_type);
                // Compared as rendered: a NaN cell must equal itself, which
                // `==` on a float vector denies. A dictionary's entries are
                // not its rows, so a `Str` column is compared by `==`.
                let reference = reference_from_values(&values, f.data_type);
                if built.as_dict().is_some() {
                    prop_assert!(reference.as_dict().is_some() && built == reference);
                } else {
                    prop_assert_eq!(format!("{built:?}"), format!("{reference:?}"));
                }
                // Appending chunk to chunk is pushing value by value.
                let (head, tail) = values.split_at(split.min(values.len()));
                let head = Column::from_values(head, f.data_type);
                let mut b = ColumnBuilder::like(&head, values.len());
                b.append(&head);
                b.append(&Column::from_values(tail, f.data_type));
                let appended = b.finish();
                prop_assert_eq!(appended.len(), values.len());
                for (i, v) in values.iter().enumerate() {
                    prop_assert_eq!(&appended.value(i), v);
                }
            }
            let batch = Batch::new(schema(), rows);
            prop_assert_eq!(&ColumnarBatch::from_batch(&batch).to_batch(), &batch);
            // A scan that ships two columns, out of order, touches only those.
            let narrow = Arc::new(Schema::new(vec![
                schema().field(2).clone(),
                schema().field(0).clone(),
            ]));
            let picked = ColumnarBatch::from_rows(narrow, &[2, 0], batch.rows()).to_batch();
            let want: Vec<Row> = batch.rows().iter().map(|r| r.project(&[2, 0])).collect();
            prop_assert_eq!(picked.rows(), &want[..]);
        }

        /// A builder read while it grows, as a key table's is, answers the
        /// cells so far: a `Str` column's staged entries and NULLs included.
        #[test]
        fn a_builder_read_while_it_grows_answers_its_cells(
            rows in hazard_rows(),
            split in 0usize..20,
        ) {
            for (c, f) in schema().fields().iter().enumerate() {
                let values: Vec<Value> = rows.iter().map(|r| r.get(c).clone()).collect();
                let (head, tail) = values.split_at(split.min(values.len()));
                let mut b = ColumnBuilder::new(f.data_type, 0);
                b.append(&Column::from_values(head, f.data_type));
                for (n, v) in (head.len() + 1..).zip(tail) {
                    b.push(v);
                    let back: Vec<u32> = (0..n as u32).rev().collect();
                    let gathered = b.gather(&back);
                    prop_assert_eq!(gathered.len(), n);
                    for (j, v) in values[..n].iter().enumerate() {
                        prop_assert_eq!(&b.value(j), v);
                        prop_assert_eq!(&gathered.value(n - 1 - j), v);
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_literal() {
        let c = Column::broadcast(&Value::Int(7), 3);
        assert_eq!(c.value(2), Value::Int(7));
        let n = Column::broadcast(&Value::Null, 2);
        assert!(n.is_null(0) && n.is_null(1));
    }

    #[test]
    fn bitmaps_built_by_the_word_equal_bitmaps_built_by_the_bit() {
        for len in [0, 1, 63, 64, 65, 130] {
            let mut by_bit = NullBitmap::new_valid(len);
            (0..len).for_each(|i| by_bit.set_null(i));
            let all_null = NullBitmap::new_null(len);
            assert_eq!(all_null, by_bit, "{len} bits");
            assert_eq!(all_null.null_count(), len);
            // AND of validity: NULL where either side is.
            let (mut a, mut b) = (NullBitmap::new_valid(len), NullBitmap::new_valid(len));
            (0..len).step_by(3).for_each(|i| a.set_null(i));
            (0..len).step_by(5).for_each(|i| b.set_null(i));
            let both = NullBitmap::both_valid(Some(&a), Some(&b)).unwrap();
            let either = |i: &usize| i.is_multiple_of(3) || i.is_multiple_of(5);
            assert!((0..len).all(|i| both.is_null(i) == either(&i)));
            assert_eq!(both.null_count(), (0..len).filter(either).count());
            assert_eq!(NullBitmap::both_valid(Some(&a), None).as_ref(), Some(&a));
            assert_eq!(NullBitmap::both_valid(None, Some(&b)).as_ref(), Some(&b));
            assert_eq!(NullBitmap::both_valid(None, None), None);
        }
    }

    #[test]
    fn zero_column_schema_keeps_row_count() {
        let s = Arc::new(Schema::empty());
        let b = Batch::new(Arc::clone(&s), vec![Row::new(vec![]), Row::new(vec![])]);
        let cb = ColumnarBatch::from_batch(&b);
        assert_eq!(cb.num_rows(), 2);
        assert_eq!(cb.to_batch().num_rows(), 2);
    }
}
