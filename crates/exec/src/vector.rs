//! The hub's operators: every one consumes and produces [`ColumnarBatch`]es,
//! the only thing that flows between plan nodes in the executor.
//!
//! Filter, project, hash join and aggregate implement [`BatchOperator`]: the
//! executor pushes columnar chunks through `push` and collects emitted
//! chunks, then calls `finish` for whatever the operator buffered
//! (aggregates emit everything there). Chunk boundaries are the executor's
//! cancellation/deadline checkpoints — see [`drive`]. The executor's other
//! operators are built from the same four: a nested-loop join is the keyless
//! [`VecHashJoin`], a bind join's hub half an inner [`VecHashJoin`] over the
//! fetched batch, DISTINCT a [`VecAggregate`] over every column with no
//! aggregates. [`sort_batch`] is the one operator that needs its whole input
//! at once.
//!
//! The contract with the scalar evaluator ([`eii_expr::BoundExpr::eval`]) is
//! *exact semantic equivalence*: the values a row-at-a-time interpreter
//! would produce, in a fixed order that does not depend on the chunk size,
//! and for each expression the scalar evaluator's first failing row. The
//! places where that contract bites are spelled out inline: NULL join keys,
//! Semi/Anti residual short-circuiting, first-seen group order, and the
//! integral-until-float SUM ladder ([`crate::agg::Accumulator`]).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use eii_data::value::float_as_int;
use eii_data::{Column, ColumnData, ColumnarBatch, Result, SchemaRef, Value};
use eii_expr::{eval_column, eval_filter, AggFunc, BoundExpr};
use eii_sql::JoinKind;

use crate::agg::Accumulator;

/// Default rows per chunk when the plan does not specify one.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// A chunk-at-a-time operator: consumes columnar chunks, produces columnar
/// chunks.
///
/// Streaming operators (filter, project, join probe) answer from `push`;
/// blocking operators (aggregate) buffer and answer from `finish`.
pub trait BatchOperator {
    /// Feed one input chunk; `Ok(None)` means nothing to emit yet.
    fn push(&mut self, chunk: &ColumnarBatch) -> Result<Option<ColumnarBatch>>;

    /// Input exhausted; emit anything buffered.
    fn finish(&mut self) -> Result<Option<ColumnarBatch>>;
}

/// Feed `input` through `op` in `batch_size` chunks, calling `check` before
/// each chunk (the cancellation/deadline boundary), and concatenate the
/// emitted chunks into one compact batch of `out_schema`.
pub fn drive(
    op: &mut dyn BatchOperator,
    input: &ColumnarBatch,
    out_schema: SchemaRef,
    batch_size: usize,
    mut check: impl FnMut() -> Result<()>,
) -> Result<ColumnarBatch> {
    let size = if batch_size == 0 {
        DEFAULT_BATCH_SIZE
    } else {
        batch_size
    };
    let n = input.num_rows();
    let mut out = Vec::new();
    if n <= size {
        // Single chunk: skip the selection detour.
        check()?;
        if let Some(b) = op.push(input)? {
            out.push(b);
        }
    } else {
        let mut start = 0usize;
        while start < n {
            check()?;
            let end = (start + size).min(n);
            let chunk = input.select((start as u32..end as u32).collect());
            if let Some(b) = op.push(&chunk)? {
                out.push(b);
            }
            start = end;
        }
    }
    if let Some(b) = op.finish()? {
        out.push(b);
    }
    // A single emitted chunk passes through as-is, keeping its selection
    // vector lazy for the next operator; only multi-chunk output copies.
    if out.len() == 1 {
        return Ok(out.pop().expect("one chunk"));
    }
    Ok(ColumnarBatch::concat(out_schema, &out))
}

/// Filter: evaluates the predicate as a column and narrows the chunk with a
/// selection vector instead of materializing survivor rows.
pub struct VecFilter {
    pred: BoundExpr,
}

impl VecFilter {
    /// Filter by `pred` (already bound against the input schema).
    pub fn new(pred: BoundExpr) -> Self {
        VecFilter { pred }
    }
}

impl BatchOperator for VecFilter {
    fn push(&mut self, chunk: &ColumnarBatch) -> Result<Option<ColumnarBatch>> {
        let keep = eval_filter(&self.pred, chunk)?;
        Ok(Some(chunk.select(keep)))
    }

    fn finish(&mut self) -> Result<Option<ColumnarBatch>> {
        Ok(None)
    }
}

/// Projection: each output column is one kernel evaluation over the whole
/// chunk.
pub struct VecProject {
    exprs: Vec<BoundExpr>,
    schema: SchemaRef,
}

impl VecProject {
    /// Project to `exprs` (bound against the input schema) under `schema`.
    pub fn new(exprs: Vec<BoundExpr>, schema: SchemaRef) -> Self {
        VecProject { exprs, schema }
    }
}

impl BatchOperator for VecProject {
    fn push(&mut self, chunk: &ColumnarBatch) -> Result<Option<ColumnarBatch>> {
        let cols = self
            .exprs
            .iter()
            .map(|e| eval_column(e, chunk))
            .collect::<Result<Vec<_>>>()?;
        // Kernel outputs are compact (logical-row aligned), so the result
        // batch carries no selection.
        Ok(Some(ColumnarBatch::new(
            Arc::clone(&self.schema),
            cols,
            chunk.num_rows(),
        )))
    }

    fn finish(&mut self) -> Result<Option<ColumnarBatch>> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Hashing: a multiply-rotate hasher (the rustc-hash construction) for join
// and group keys. SipHash's per-key setup dominates small-key hashing; this
// is the single biggest lever in the join build/probe loop. Written here by
// hand because the container bakes in no new dependencies.
// ---------------------------------------------------------------------------

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fast non-cryptographic hasher for hub-internal hash tables (join keys,
/// group keys). Not DoS-resistant; never use it on attacker-controlled keys
/// that outlive a query.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// [`BuildHasher`] for [`FxHasher`].
#[derive(Default, Clone)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Sentinel in a build-side gather list meaning "no build row": the gathered
/// column gets NULL there (Left-join null extension).
const NO_ROW: u32 = u32::MAX;

/// The build-side hash table: physical build-row indices per key, in build
/// insertion order (which fixes the output order within a probe row).
enum KeyTable {
    /// Single integer key: hash raw `i64`s, no per-row `Vec<Value>`.
    Int(FxHashMap<i64, Vec<u32>>),
    /// General path: composite or non-integer keys as `Vec<Value>` (whose
    /// `Hash` makes `Int(2)` and `Float(2.0)` collide, as SQL equality
    /// demands).
    General(FxHashMap<Vec<Value>, Vec<u32>>),
}

impl KeyTable {
    fn lookup(&self, key: &ProbeKey) -> Option<&Vec<u32>> {
        match (self, key) {
            (KeyTable::Int(map), ProbeKey::Int(i)) => map.get(i),
            (KeyTable::General(map), ProbeKey::General(k)) => map.get(k),
            // NULL keys never join; an Int-keyed table only matches
            // integral probes (ProbeKey construction already folded exact
            // floats into Int).
            _ => None,
        }
    }
}

/// One probe row's key, shaped to match the table representation.
enum ProbeKey {
    /// Key is NULL (any component): never joins.
    Null,
    /// Integral single key for [`KeyTable::Int`].
    Int(i64),
    /// Key that cannot match an Int table (e.g. a string probe against an
    /// integer build column), or the general representation.
    NoMatch,
    /// General composite key.
    General(Vec<Value>),
}

/// Candidate or output pairs: the probe side's physical row, the build row.
#[derive(Default)]
struct Pairs {
    probe: Vec<u32>,
    build: Vec<u32>,
}

impl Pairs {
    fn push(&mut self, probe: u32, build: u32) {
        self.probe.push(probe);
        self.build.push(build);
    }
}

/// Candidate pairs of one probe chunk that still await the residual.
#[derive(Default)]
struct Pending {
    pairs: Pairs,
    /// Left joins only: `(pairs.probe.len() when the row's candidates
    /// ended, probe row)` per finished probe row.
    row_ends: Vec<(usize, u32)>,
    /// Left joins only: has the probe row being resolved kept a pair yet?
    /// Outlives one `resolve` because a row's candidates may be split.
    matched: bool,
}

/// Hash join: the build side is consumed whole at construction, probe chunks
/// stream through `push`. Output is probe order × build-insertion order;
/// NULL keys never join (Left null-extends, Anti keeps, Semi/Inner drop);
/// Semi/Anti residuals short-circuit at the first matching candidate. With
/// no keys every build row is a candidate for every probe row: the
/// nested-loop join.
pub struct VecHashJoin {
    table: KeyTable,
    build: ColumnarBatch,
    probe_keys: Vec<BoundExpr>,
    kind: JoinKind,
    residual: Option<BoundExpr>,
    /// Schema residuals are bound against (for Semi/Anti this is the
    /// concatenation of both sides even though only left columns flow out).
    pred_schema: SchemaRef,
    schema: SchemaRef,
    /// Most candidate pairs materialized at once for the residual, so a
    /// cross product is filtered before it is ever held whole.
    pair_cap: usize,
}

impl VecHashJoin {
    /// Build the hash table over `build` (the right side). `build_keys` holds
    /// one compact column per key, aligned with `build`'s live rows (what
    /// [`eval_column`] over `build` returns); `probe_keys` are bound against
    /// the probe schema, `residual` against `pred_schema`.
    pub fn new(
        build: &ColumnarBatch,
        build_keys: &[Arc<Column>],
        probe_keys: Vec<BoundExpr>,
        kind: JoinKind,
        residual: Option<BoundExpr>,
        pred_schema: SchemaRef,
        schema: SchemaRef,
    ) -> Self {
        let build = build.compact();
        let n = build.num_rows();
        // Single all-integer key: hash raw i64s. A float probe folds onto this
        // table only when it is exactly an integer (`float_as_int`), which is
        // when `Value` equality says the two are equal.
        let int_col = match build_keys {
            [only] if only.no_nulls() => only.as_ints(),
            _ => None,
        };
        let table = if let Some(ints) = int_col {
            let mut map: FxHashMap<i64, Vec<u32>> =
                HashMap::with_capacity_and_hasher(n, FxBuildHasher);
            for (i, &k) in ints.iter().enumerate() {
                map.entry(k).or_default().push(i as u32);
            }
            KeyTable::Int(map)
        } else {
            let mut map: FxHashMap<Vec<Value>, Vec<u32>> =
                HashMap::with_capacity_and_hasher(n, FxBuildHasher);
            'row: for i in 0..n {
                let mut key = Vec::with_capacity(build_keys.len());
                for col in build_keys {
                    if col.is_null(i) {
                        continue 'row; // NULL keys never join.
                    }
                    key.push(col.value(i));
                }
                map.entry(key).or_default().push(i as u32);
            }
            KeyTable::General(map)
        };
        VecHashJoin {
            table,
            build,
            probe_keys,
            kind,
            residual,
            pred_schema,
            schema,
            pair_cap: DEFAULT_BATCH_SIZE,
        }
    }

    /// Cap the candidate pairs a residual is evaluated over at once (the
    /// executor passes its chunk size); 0 keeps [`DEFAULT_BATCH_SIZE`].
    pub fn with_pair_cap(mut self, pairs: usize) -> Self {
        if pairs > 0 {
            self.pair_cap = pairs;
        }
        self
    }

    /// Shape one probe row's key for the table representation.
    fn probe_key(&self, key_cols: &[Arc<Column>], row: usize) -> ProbeKey {
        if key_cols.iter().any(|c| c.is_null(row)) {
            return ProbeKey::Null;
        }
        match &self.table {
            KeyTable::Int(_) => match key_cols[0].value(row) {
                Value::Int(i) => ProbeKey::Int(i),
                Value::Float(f) => float_as_int(f).map_or(ProbeKey::NoMatch, ProbeKey::Int),
                _ => ProbeKey::NoMatch,
            },
            KeyTable::General(_) => {
                ProbeKey::General(key_cols.iter().map(|c| c.value(row)).collect())
            }
        }
    }

    /// Inner/Left/Cross probe: candidate pairs in probe order, the residual
    /// evaluated over at most `pair_cap` of them at a time, then one gather.
    fn probe_pairs(&self, chunk: &ColumnarBatch) -> Result<ColumnarBatch> {
        let key_cols = self
            .probe_keys
            .iter()
            .map(|k| eval_column(k, chunk))
            .collect::<Result<Vec<_>>>()?;
        let left = matches!(self.kind, JoinKind::Left);
        let mut out = Pairs::default();
        let mut pending = Pending::default();
        for row in 0..chunk.num_rows() {
            let phys = chunk.physical_index(row) as u32;
            let candidates = match self.probe_key(&key_cols, row) {
                ProbeKey::Null | ProbeKey::NoMatch => None,
                key => self.table.lookup(&key),
            };
            for &b in candidates.into_iter().flatten() {
                pending.pairs.push(phys, b);
                if pending.pairs.probe.len() >= self.pair_cap {
                    self.resolve(chunk, &mut pending, &mut out)?;
                }
            }
            if left {
                pending.row_ends.push((pending.pairs.probe.len(), phys));
            }
        }
        self.resolve(chunk, &mut pending, &mut out)?;
        Ok(self.gather_joined(chunk, &out.probe, &out.build))
    }

    /// Run the residual over the pending candidates (every candidate is
    /// evaluated — Inner/Left never short-circuit, so the first failing pair
    /// in probe × build order is the error) and move the survivors to `out`
    /// in candidate order. A Left join's probe row whose candidates have all
    /// been seen and none kept is null-extended in its place.
    fn resolve(&self, chunk: &ColumnarBatch, pending: &mut Pending, out: &mut Pairs) -> Result<()> {
        let Pairs { probe, build } = std::mem::take(&mut pending.pairs);
        let survives: Option<Vec<bool>> = match &self.residual {
            None => None,
            Some(pred) => {
                let kept = eval_filter(pred, &self.pair_batch(chunk, &probe, &build))?;
                let mut mask = vec![false; probe.len()];
                for k in kept {
                    mask[k as usize] = true;
                }
                Some(mask)
            }
        };
        let mut ends = pending.row_ends.drain(..).peekable();
        for p in 0..=probe.len() {
            while let Some((_, phys)) = ends.next_if(|&(end, _)| end == p) {
                if !pending.matched {
                    out.push(phys, NO_ROW);
                }
                pending.matched = false;
            }
            if p < probe.len() && survives.as_ref().is_none_or(|m| m[p]) {
                pending.matched = true;
                out.push(probe[p], build[p]);
            }
        }
        Ok(())
    }

    /// Materialize the candidate-pair batch residuals are evaluated over.
    fn pair_batch(
        &self,
        chunk: &ColumnarBatch,
        pair_probe: &[u32],
        pair_build: &[u32],
    ) -> ColumnarBatch {
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(self.pred_schema.len());
        for c in chunk.columns() {
            cols.push(Arc::new(c.gather(pair_probe)));
        }
        for c in self.build.columns() {
            cols.push(Arc::new(c.gather(pair_build)));
        }
        ColumnarBatch::new(Arc::clone(&self.pred_schema), cols, pair_probe.len())
    }

    /// Gather the output batch from probe/build index lists (`NO_ROW` in the
    /// build list null-extends).
    fn gather_joined(
        &self,
        chunk: &ColumnarBatch,
        out_probe: &[u32],
        out_build: &[u32],
    ) -> ColumnarBatch {
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(self.schema.len());
        for c in chunk.columns() {
            cols.push(Arc::new(c.gather(out_probe)));
        }
        for c in self.build.columns() {
            cols.push(Arc::new(c.gather_opt(out_build)));
        }
        ColumnarBatch::new(Arc::clone(&self.schema), cols, out_probe.len())
    }

    /// Semi/Anti probe: a candidate scan that stops at the first match — a
    /// residual error on a later candidate is unreachable once an earlier
    /// candidate matched, so this stays candidate-at-a-time.
    fn probe_filtering(&self, chunk: &ColumnarBatch) -> Result<ColumnarBatch> {
        let key_cols = self
            .probe_keys
            .iter()
            .map(|k| eval_column(k, chunk))
            .collect::<Result<Vec<_>>>()?;
        let n = chunk.num_rows();
        let anti = matches!(self.kind, JoinKind::Anti);
        let mut keep: Vec<u32> = Vec::new();
        for row in 0..n {
            let candidates = match self.probe_key(&key_cols, row) {
                // NULL keys never match: anti keeps the row, semi drops it.
                ProbeKey::Null | ProbeKey::NoMatch => None,
                key => self.table.lookup(&key),
            };
            let mut matched = false;
            if let Some(rows) = candidates {
                match &self.residual {
                    None => matched = !rows.is_empty(),
                    Some(pred) => {
                        let l = chunk.row(row);
                        for &b in rows {
                            let combined = l.concat(&self.build.row(b as usize));
                            if pred.eval_predicate(&combined)? {
                                matched = true;
                                break;
                            }
                        }
                    }
                }
            }
            if matched != anti {
                keep.push(row as u32);
            }
        }
        Ok(chunk.select(keep).with_schema(Arc::clone(&self.schema)))
    }
}

impl BatchOperator for VecHashJoin {
    fn push(&mut self, chunk: &ColumnarBatch) -> Result<Option<ColumnarBatch>> {
        let out = match self.kind {
            // Keyless joins: every build row sits under the empty key, which
            // every probe row carries.
            JoinKind::Inner | JoinKind::Left | JoinKind::Cross => self.probe_pairs(chunk)?,
            JoinKind::Semi | JoinKind::Anti => self.probe_filtering(chunk)?,
        };
        Ok(Some(out))
    }

    fn finish(&mut self) -> Result<Option<ColumnarBatch>> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// The group-key → group-index map. Single integer group keys skip the
/// per-row `Vec<Value>`; the moment a non-integer key value appears the map
/// migrates to the general representation (group identity is unaffected —
/// both follow `Value` equality, under which `Int(2)` equals `Float(2.0)`).
enum GroupMap {
    Int {
        map: FxHashMap<i64, u32>,
        null_slot: Option<u32>,
    },
    General(FxHashMap<Vec<Value>, u32>),
}

/// Hash aggregation: buffers group state across chunks, emits one batch from
/// `finish`, groups in first-seen order, one [`crate::agg::Accumulator`] per
/// group and aggregate. With every input column as a group key and no
/// aggregates it is DISTINCT: the first row of each group, in input order.
pub struct VecAggregate {
    groups: Vec<BoundExpr>,
    /// One per aggregate; `None` is `COUNT(*)`.
    args: Vec<Option<BoundExpr>>,
    templates: Vec<(AggFunc, bool)>,
    map: GroupMap,
    /// First-seen-order group keys.
    keys: Vec<Vec<Value>>,
    /// `[group][agg]` state.
    accs: Vec<Vec<Accumulator>>,
    schema: SchemaRef,
}

impl VecAggregate {
    /// Aggregate `args` per `groups` (all bound against the input schema),
    /// producing `schema` (group columns then aggregate columns).
    pub fn new(
        groups: Vec<BoundExpr>,
        args: Vec<Option<BoundExpr>>,
        templates: Vec<(AggFunc, bool)>,
        schema: SchemaRef,
    ) -> Self {
        let map = if groups.len() == 1 {
            GroupMap::Int {
                map: HashMap::with_hasher(FxBuildHasher),
                null_slot: None,
            }
        } else {
            GroupMap::General(HashMap::with_hasher(FxBuildHasher))
        };
        VecAggregate {
            groups,
            args,
            templates,
            map,
            keys: Vec::new(),
            accs: Vec::new(),
            schema,
        }
    }

    fn fresh_accs(&self) -> Vec<Accumulator> {
        self.templates
            .iter()
            .map(|&(func, distinct)| Accumulator::new(func, distinct))
            .collect()
    }

    /// Resolve the group index for one row's key columns, creating the group
    /// on first sight.
    fn group_index(&mut self, key_cols: &[Arc<Column>], row: usize) -> u32 {
        // Single-key integer fast path, with on-the-fly migration.
        if let GroupMap::Int { map, null_slot } = &mut self.map {
            let col = &key_cols[0];
            if col.is_null(row) {
                return *null_slot.get_or_insert_with(|| {
                    self.keys.push(vec![Value::Null]);
                    self.accs.push(
                        self.templates
                            .iter()
                            .map(|&(f, d)| Accumulator::new(f, d))
                            .collect(),
                    );
                    (self.keys.len() - 1) as u32
                });
            }
            if let Value::Int(i) = col.value(row) {
                if let Some(&idx) = map.get(&i) {
                    return idx;
                }
                let idx = self.keys.len() as u32;
                map.insert(i, idx);
                self.keys.push(vec![Value::Int(i)]);
                self.accs.push(
                    self.templates
                        .iter()
                        .map(|&(f, d)| Accumulator::new(f, d))
                        .collect(),
                );
                return idx;
            }
            // Non-integer key seen: rebuild as a general map over the keys
            // recorded so far (first-seen order and identity preserved).
            let mut general: FxHashMap<Vec<Value>, u32> =
                HashMap::with_capacity_and_hasher(self.keys.len(), FxBuildHasher);
            for (i, k) in self.keys.iter().enumerate() {
                general.insert(k.clone(), i as u32);
            }
            self.map = GroupMap::General(general);
        }
        let GroupMap::General(map) = &mut self.map else {
            unreachable!("migrated above")
        };
        let key: Vec<Value> = key_cols.iter().map(|c| c.value(row)).collect();
        if let Some(&idx) = map.get(&key) {
            return idx;
        }
        let idx = self.keys.len() as u32;
        map.insert(key.clone(), idx);
        self.keys.push(key);
        self.accs.push(
            self.templates
                .iter()
                .map(|&(f, d)| Accumulator::new(f, d))
                .collect(),
        );
        idx
    }
}

impl BatchOperator for VecAggregate {
    fn push(&mut self, chunk: &ColumnarBatch) -> Result<Option<ColumnarBatch>> {
        let key_cols = self
            .groups
            .iter()
            .map(|g| eval_column(g, chunk))
            .collect::<Result<Vec<_>>>()?;
        let arg_cols = self
            .args
            .iter()
            .map(|a| a.as_ref().map(|e| eval_column(e, chunk)).transpose())
            .collect::<Result<Vec<_>>>()?;
        for row in 0..chunk.num_rows() {
            let idx = if key_cols.is_empty() {
                // Global aggregate: one implicit group.
                if self.keys.is_empty() {
                    self.keys.push(Vec::new());
                    self.accs.push(self.fresh_accs());
                }
                0
            } else {
                self.group_index(&key_cols, row) as usize
            };
            for (acc, arg) in self.accs[idx].iter_mut().zip(&arg_cols) {
                match arg {
                    None => acc.push(None)?,
                    Some(col) => {
                        let v = col.value(row);
                        acc.push(Some(&v))?;
                    }
                }
            }
        }
        Ok(None)
    }

    fn finish(&mut self) -> Result<Option<ColumnarBatch>> {
        let group_width = self.groups.len();
        let mut keys = std::mem::take(&mut self.keys);
        let mut accs = std::mem::take(&mut self.accs);
        if keys.is_empty() && group_width == 0 {
            // Global aggregate over zero rows: one row of defaults.
            keys.push(Vec::new());
            accs.push(self.fresh_accs());
        }
        let n = keys.len();
        let mut out: Vec<Vec<Value>> =
            (0..self.schema.len()).map(|_| Vec::with_capacity(n)).collect();
        for (key, group_accs) in keys.into_iter().zip(accs) {
            for (c, v) in key.into_iter().enumerate() {
                out[c].push(v);
            }
            for (a, acc) in group_accs.into_iter().enumerate() {
                out[group_width + a].push(acc.finish());
            }
        }
        let cols: Vec<Arc<Column>> = out
            .into_iter()
            .zip(self.schema.fields())
            .map(|(vals, f)| Arc::new(Column::from_values(&vals, f.data_type)))
            .collect();
        Ok(Some(ColumnarBatch::new(
            Arc::clone(&self.schema),
            cols,
            n,
        )))
    }
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// Stable sort of the live rows: each key is evaluated as a column over the
/// whole input, then an index sort orders the rows under [`Value`]'s total
/// order (NULL lowest; `false` in a key's flag reverses that key; ties keep
/// input order), comparing the key columns' typed vectors in place. The
/// result is a selection over `input`'s own columns, so a LIMIT above gathers
/// only the rows that survive it.
pub fn sort_batch(input: &ColumnarBatch, keys: &[(BoundExpr, bool)]) -> Result<ColumnarBatch> {
    let keys = keys
        .iter()
        .map(|(expr, asc)| Ok((eval_column(expr, input)?, *asc)))
        .collect::<Result<Vec<_>>>()?;
    let mut order: Vec<u32> = (0..input.num_rows() as u32).collect();
    order.sort_by(|&a, &b| {
        for (col, asc) in &keys {
            let ord = cmp_positions(col, a as usize, b as usize);
            if !ord.is_eq() {
                return if *asc { ord } else { ord.reverse() };
            }
        }
        Ordering::Equal
    });
    Ok(input.select(order))
}

/// Order positions `a` and `b` of one column as [`Value`]'s total order
/// orders their values, without building either.
fn cmp_positions(col: &Column, a: usize, b: usize) -> Ordering {
    match (col.is_null(a), col.is_null(b)) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => match col.data() {
            ColumnData::Bool(v) => v[a].cmp(&v[b]),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v[a].cmp(&v[b]),
            ColumnData::Float(v) => v[a].total_cmp(&v[b]),
            ColumnData::Str(v) => v[a].cmp(&v[b]),
            ColumnData::Mixed(v) => v[a].cmp(&v[b]),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, Batch, DataType, Field, Schema};
    use eii_expr::{bind, BinaryOp, Expr};

    fn schema(fields: &[(&str, DataType)]) -> SchemaRef {
        Arc::new(Schema::new(
            fields.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
        ))
    }

    fn ints(name: &str, vals: &[i64]) -> ColumnarBatch {
        let s = schema(&[(name, DataType::Int)]);
        let rows = vals.iter().map(|&v| row![v]).collect();
        ColumnarBatch::from_batch(&Batch::new(s, rows))
    }

    /// `left JOIN right ON left.<probe> = right.<build>`, one probe chunk.
    fn join_on(
        probe: &str,
        build: &str,
        left: &ColumnarBatch,
        right: &ColumnarBatch,
        kind: JoinKind,
    ) -> ColumnarBatch {
        let joined = Arc::new(left.schema().join(right.schema()));
        let bkey = bind(&Expr::col(build), right.schema()).unwrap();
        let pkey = bind(&Expr::col(probe), left.schema()).unwrap();
        let mut op = VecHashJoin::new(
            right,
            &[eval_column(&bkey, right).unwrap()],
            vec![pkey],
            kind,
            None,
            Arc::clone(&joined),
            joined,
        );
        op.push(left).unwrap().unwrap()
    }

    fn column_values(batch: &ColumnarBatch, col: usize) -> Vec<Value> {
        (0..batch.num_rows()).map(|i| batch.value_at(i, col)).collect()
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(43);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn filter_drops_rows() {
        let batch = ints("x", &[1, 5, 2, 8]);
        let pred = bind(&Expr::col("x").gt(Expr::lit(2i64)), batch.schema()).unwrap();
        let mut op = VecFilter::new(pred);
        let out = op.push(&batch).unwrap().unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value_at(0, 0), Value::Int(5));
        assert_eq!(out.value_at(1, 0), Value::Int(8));
    }

    #[test]
    fn project_computes_columns() {
        let batch = ints("x", &[1, 2]);
        let out_schema = schema(&[("y", DataType::Int)]);
        let expr = bind(
            &Expr::col("x").binary(BinaryOp::Multiply, Expr::lit(10i64)),
            batch.schema(),
        )
        .unwrap();
        let mut op = VecProject::new(vec![expr], out_schema);
        let out = op.push(&batch).unwrap().unwrap();
        assert_eq!(out.value_at(0, 0), Value::Int(10));
        assert_eq!(out.value_at(1, 0), Value::Int(20));
    }

    #[test]
    fn join_matches_and_preserves_order() {
        let left = ints("a", &[1, 2, 3, 2]);
        let right_schema = schema(&[("b", DataType::Int), ("c", DataType::Int)]);
        let right = ColumnarBatch::from_batch(&Batch::new(
            right_schema,
            vec![row![2i64, 20i64], row![3i64, 30i64], row![2i64, 21i64]],
        ));
        let out = join_on("a", "b", &left, &right, JoinKind::Inner);
        // Probe order, then build insertion order within a key.
        let got: Vec<(Value, Value)> = (0..out.num_rows())
            .map(|i| (out.value_at(i, 0), out.value_at(i, 2)))
            .collect();
        assert_eq!(
            got,
            vec![
                (Value::Int(2), Value::Int(20)),
                (Value::Int(2), Value::Int(21)),
                (Value::Int(3), Value::Int(30)),
                (Value::Int(2), Value::Int(20)),
                (Value::Int(2), Value::Int(21)),
            ]
        );
    }

    #[test]
    fn float_probe_beyond_f64_precision_matches_scalar_semantics() {
        // Float(2^53) equals Int(2^53) and nothing else: the raw-i64 table
        // and scalar `Value` equality agree past f64's integer precision.
        let p53 = 1i64 << 53;
        let right = ints("b", &[p53 + 1, p53]);
        let left = {
            let s = schema(&[("a", DataType::Float)]);
            ColumnarBatch::from_batch(&Batch::new(s, vec![row![p53 as f64], row![-0.0f64]]))
        };
        let out = join_on("a", "b", &left, &right, JoinKind::Inner);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value_at(0, 1), Value::Int(p53));
    }

    #[test]
    fn left_join_null_extends() {
        let left = ints("a", &[1, 2]);
        let right = {
            let s = schema(&[("b", DataType::Int)]);
            ColumnarBatch::from_batch(&Batch::new(s, vec![row![2i64]]))
        };
        let out = join_on("a", "b", &left, &right, JoinKind::Left);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value_at(0, 1), Value::Null);
        assert_eq!(out.value_at(1, 1), Value::Int(2));
    }

    #[test]
    fn aggregate_groups_in_first_seen_order() {
        let s = schema(&[("g", DataType::Int), ("v", DataType::Int)]);
        let batch = ColumnarBatch::from_batch(&Batch::new(
            Arc::clone(&s),
            vec![row![2i64, 10i64], row![1i64, 5i64], row![2i64, 1i64]],
        ));
        let out_schema = schema(&[("g", DataType::Int), ("s", DataType::Int)]);
        let g = bind(&Expr::col("g"), &s).unwrap();
        let v = bind(&Expr::col("v"), &s).unwrap();
        let mut op = VecAggregate::new(
            vec![g],
            vec![Some(v)],
            vec![(AggFunc::Sum, false)],
            out_schema,
        );
        op.push(&batch).unwrap();
        let out = op.finish().unwrap().unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value_at(0, 0), Value::Int(2));
        assert_eq!(out.value_at(0, 1), Value::Int(11));
        assert_eq!(out.value_at(1, 0), Value::Int(1));
        assert_eq!(out.value_at(1, 1), Value::Int(5));
    }

    #[test]
    fn drive_chunks_and_checks() {
        let batch = ints("x", &[1, 2, 3, 4, 5]);
        let pred = bind(&Expr::col("x").gt(Expr::lit(1i64)), batch.schema()).unwrap();
        let mut op = VecFilter::new(pred);
        let mut checks = 0;
        let out = drive(&mut op, &batch, batch.schema().clone(), 2, || {
            checks += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(checks, 3); // ceil(5/2)
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.value_at(0, 0), Value::Int(2));
    }

    /// `l.a <op> r.b` with no equi keys, `cap` candidate pairs at a time.
    fn keyless_join(
        left: &ColumnarBatch,
        right: &ColumnarBatch,
        kind: JoinKind,
        on: Option<Expr>,
        cap: usize,
    ) -> ColumnarBatch {
        let both = Arc::new(left.schema().join(right.schema()));
        let out_schema = if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
            left.schema().clone()
        } else {
            Arc::clone(&both)
        };
        let residual = on.map(|e| bind(&e, &both).unwrap());
        let mut op = VecHashJoin::new(right, &[], Vec::new(), kind, residual, both, out_schema)
            .with_pair_cap(cap);
        op.push(left).unwrap().expect("joins emit per chunk")
    }

    #[test]
    fn keyless_join_over_an_empty_side() {
        let some = ints("a", &[1, 2]);
        let none_l = ints("a", &[]);
        let none_r = ints("b", &[]);
        let full_r = ints("b", &[7]);
        let rows = |l: &ColumnarBatch, r: &ColumnarBatch, kind| {
            keyless_join(l, r, kind, None, 4096).to_batch().into_rows()
        };
        for kind in [JoinKind::Inner, JoinKind::Cross] {
            assert!(rows(&some, &none_r, kind).is_empty());
            assert!(rows(&none_l, &full_r, kind).is_empty());
        }
        // Nothing to match: Left null-extends, Anti keeps, Semi drops.
        assert_eq!(
            rows(&some, &none_r, JoinKind::Left),
            vec![row![1i64, Value::Null], row![2i64, Value::Null]]
        );
        assert_eq!(rows(&some, &none_r, JoinKind::Anti), vec![row![1i64], row![2i64]]);
        assert!(rows(&some, &none_r, JoinKind::Semi).is_empty());
        for kind in [JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            assert!(rows(&none_l, &full_r, kind).is_empty());
        }
    }

    #[test]
    fn keyless_join_is_invariant_under_the_pair_cap() {
        let left = ints("a", &[1, 5, 3]);
        let right = ints("b", &[2, 4, 6, 0]);
        let on = || Some(Expr::col("a").gt(Expr::col("b")));
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let whole = keyless_join(&left, &right, kind, on(), 4096).to_batch();
            for cap in [1, 2, 5] {
                let capped = keyless_join(&left, &right, kind, on(), cap).to_batch();
                assert_eq!(capped, whole, "{kind:?} at {cap} pairs");
            }
        }
        // Left: probe order, build order within a row, unmatched rows in place.
        let on = Expr::col("a")
            .gt(Expr::lit(2i64))
            .and(Expr::col("b").gt(Expr::lit(3i64)));
        let l = keyless_join(&left, &right, JoinKind::Left, Some(on), 3);
        assert_eq!(
            l.to_batch().into_rows(),
            vec![
                row![1i64, Value::Null],
                row![5i64, 4i64],
                row![5i64, 6i64],
                row![3i64, 4i64],
                row![3i64, 6i64],
            ]
        );
    }

    fn distinct(batch: &ColumnarBatch) -> ColumnarBatch {
        let groups = (0..batch.schema().len()).map(BoundExpr::Column).collect();
        let mut op = VecAggregate::new(groups, Vec::new(), Vec::new(), batch.schema().clone());
        op.push(batch).unwrap();
        op.finish().unwrap().unwrap()
    }

    #[test]
    fn distinct_is_an_aggregate_with_no_aggregates() {
        // Int(2) and Float(2.0) are one value; NULL is one group; the first
        // occurrence is the one kept, in input order.
        let s = schema(&[("k", DataType::Int), ("v", DataType::Float)]);
        let batch = ColumnarBatch::from_batch(&Batch::new(
            s,
            vec![
                row![2i64, 1.5f64],
                row![Value::Null, Value::Null],
                row![Value::Float(2.0), 1.5f64],
                row![2i64, Value::Null],
                row![Value::Null, Value::Null],
                row![1i64, 1.5f64],
            ],
        ));
        assert_eq!(
            distinct(&batch).to_batch().into_rows(),
            vec![
                row![2i64, 1.5f64],
                row![Value::Null, Value::Null],
                row![2i64, Value::Null],
                row![1i64, 1.5f64],
            ]
        );
        // Single column: the integer fast path and its migration.
        let one = schema(&[("k", DataType::Int)]);
        let batch = ColumnarBatch::from_batch(&Batch::new(
            one,
            vec![row![3i64], row![Value::Null], row![3i64], row![Value::Float(3.0)], row![0.5f64]],
        ));
        assert_eq!(
            column_values(&distinct(&batch), 0),
            vec![Value::Int(3), Value::Null, Value::Float(0.5)]
        );
    }

    fn sort_keys(batch: &ColumnarBatch, keys: &[(Expr, bool)]) -> Vec<(BoundExpr, bool)> {
        keys.iter()
            .map(|(e, asc)| (bind(e, batch.schema()).unwrap(), *asc))
            .collect()
    }

    #[test]
    fn sort_is_stable_and_orders_nulls_first() {
        let s = schema(&[("k", DataType::Int), ("seq", DataType::Int)]);
        let batch = ColumnarBatch::from_batch(&Batch::new(
            s,
            vec![
                row![2i64, 0i64],
                row![Value::Null, 1i64],
                row![1i64, 2i64],
                row![2i64, 3i64],
                row![Value::Null, 4i64],
                row![1i64, 5i64],
            ],
        ));
        let asc = sort_batch(&batch, &sort_keys(&batch, &[(Expr::col("k"), true)])).unwrap();
        assert_eq!(
            column_values(&asc, 1),
            [1, 4, 2, 5, 0, 3].map(Value::Int),
            "NULL lowest, ties in input order"
        );
        // A selection over the input's own columns: nothing was copied.
        assert!(Arc::ptr_eq(asc.column(0), batch.column(0)));
        let desc = sort_batch(&batch, &sort_keys(&batch, &[(Expr::col("k"), false)])).unwrap();
        assert_eq!(
            column_values(&desc, 1),
            [0, 3, 2, 5, 1, 4].map(Value::Int),
            "DESC reverses keys, not ties"
        );
        // Second key breaks the first key's ties; the sort sees only the
        // live rows of a selected input.
        let live = batch.select(vec![5, 3, 2, 0]);
        let two = sort_batch(
            &live,
            &sort_keys(&live, &[(Expr::col("k"), false), (Expr::col("seq"), false)]),
        )
        .unwrap();
        assert_eq!(column_values(&two, 1), [3, 0, 5, 2].map(Value::Int));
    }

    #[test]
    fn typed_key_comparison_is_the_value_order() {
        // One typed Float key, one typed Int key, one key that mixes Int with
        // Float (so its column is Mixed): NULLs, both zeros, both NaNs, and
        // the Int/Float twins around 2^53.
        let p53 = 1i64 << 53;
        let s = schema(&[("f", DataType::Float), ("i", DataType::Int), ("m", DataType::Int)]);
        let floats = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5, f64::INFINITY, p53 as f64];
        let rows: Vec<_> = (0..28usize)
            .map(|r| {
                let f = if r % 5 == 4 { Value::Null } else { Value::Float(floats[r % 7]) };
                let i = if r % 3 == 2 { Value::Null } else { Value::Int((r % 4) as i64) };
                let m = match r % 4 {
                    0 => Value::Int(p53 + (r % 3) as i64 - 1),
                    1 => Value::Float(p53 as f64),
                    2 => Value::Null,
                    _ => Value::Int(p53),
                };
                row![f, i, m]
            })
            .collect();
        let batch = ColumnarBatch::from_batch(&Batch::new(s, rows.clone()));
        assert!(batch.column(0).as_floats().is_some() && batch.column(1).as_ints().is_some());
        assert!(matches!(batch.column(2).data(), ColumnData::Mixed(_)));
        for spec in [
            vec![("f", true)],
            vec![("f", false), ("i", true)],
            vec![("i", false), ("m", true), ("f", true)],
            vec![("m", false), ("i", false)],
        ] {
            let keys: Vec<(Expr, bool)> =
                spec.iter().map(|(c, asc)| (Expr::col(*c), *asc)).collect();
            let got = sort_batch(&batch, &sort_keys(&batch, &keys)).unwrap();
            // The comparator this replaced: one `Value` per key per row.
            let mut want = rows.clone();
            want.sort_by(|a, b| {
                for (c, asc) in &spec {
                    let c = batch.schema().index_of(None, c).unwrap();
                    let ord = a.get(c).cmp(b.get(c));
                    if !ord.is_eq() {
                        return if *asc { ord } else { ord.reverse() };
                    }
                }
                Ordering::Equal
            });
            // NaN != NaN as floats but the total order makes rows comparable.
            assert_eq!(got.to_batch().into_rows(), want, "{spec:?}");
        }
    }

    #[test]
    fn sort_key_error_is_the_scalar_paths_first_failing_row() {
        // `k + 1` over a Mixed column: rows 1 and 2 both fail, differently.
        let s = schema(&[("k", DataType::Int)]);
        let batch = ColumnarBatch::from_batch(&Batch::new(
            s,
            vec![row![1i64], row!["x"], row![true], row![4i64]],
        ));
        let key = Expr::col("k").binary(BinaryOp::Plus, Expr::lit(1i64));
        let keys = sort_keys(&batch, &[(key, true)]);
        let err = sort_batch(&batch, &keys).unwrap_err();
        let scalar = keys[0].0.eval(&batch.row(1)).unwrap_err();
        assert_eq!(err.to_string(), scalar.to_string());
        assert_ne!(
            err.to_string(),
            keys[0].0.eval(&batch.row(2)).unwrap_err().to_string()
        );
    }
}
