//! The hub's operators and what flows between them.
//!
//! A plan node hands the next one [`Chunks`], an ordered list of
//! [`ColumnarBatch`]es of one schema, and nothing in between copies it: an
//! operator is pushed each incoming chunk as it is and emits chunks of its own
//! into a sink. Filter, project, hash join and aggregate implement
//! [`BatchOperator`]; [`drive`] pushes the chunks through `push`, then calls
//! `finish` for whatever the operator buffered (aggregates emit everything
//! there). Chunk boundaries are the executor's cancellation/deadline
//! checkpoints. The executor's other operators are built from the same four: a
//! nested-loop join is the keyless [`VecHashJoin`], a bind join's hub half an
//! inner [`VecHashJoin`] over the fetched batch, DISTINCT a [`VecAggregate`]
//! over every column with no aggregates. [`sort_batch`] is the one operator
//! that needs its whole input at once ([`Chunks::into_one`]) — and the one
//! that can be told how much of its output will be read: under a LIMIT it
//! establishes the first `k` positions of the order and no more.
//!
//! The contract with the scalar evaluator ([`eii_expr::BoundExpr::eval`]) is
//! *exact semantic equivalence*: the values a row-at-a-time interpreter would
//! produce, in a fixed order that depends neither on the chunk size nor on
//! where the incoming list is cut, and for each expression the scalar
//! evaluator's first failing row. The places where that contract bites are
//! spelled out inline: NULL join keys, Semi/Anti residual short-circuiting,
//! first-seen group order, the aggregate's error order, and the
//! integral-until-float SUM ladder ([`crate::agg`]). Keys are hashed and
//! compared in place ([`eii_data::keys`]).

use std::sync::Arc;

use eii_data::keys::{cells_cmp, KeyTable, NO_KEY};
use eii_data::{Column, ColumnBuilder, ColumnarBatch, Result, Schema, SchemaRef, NO_ROW};
use eii_expr::{eval_column, eval_filter, AggFunc, BoundExpr};
use eii_sql::JoinKind;

use crate::agg::GroupedAgg;

/// Default rows per chunk when the plan does not specify one.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// The one size of the data path — rows per pushed chunk, candidate pairs per
/// residual evaluation, rows per chunk a join emits — from the executor's
/// `batch_size`, where 0 means [`DEFAULT_BATCH_SIZE`].
fn chunk_rows(batch_size: usize) -> usize {
    match batch_size {
        0 => DEFAULT_BATCH_SIZE,
        n => n,
    }
}

/// What one plan node hands the next: chunks of one schema, in row order. The
/// list knows its schema even when it is empty, and holds no empty chunk.
#[derive(Debug, Clone)]
pub struct Chunks {
    schema: SchemaRef,
    chunks: Vec<ColumnarBatch>,
}

impl From<ColumnarBatch> for Chunks {
    fn from(batch: ColumnarBatch) -> Self {
        let mut list = Chunks::new(batch.schema().clone());
        list.push(batch);
        list
    }
}

impl Chunks {
    /// An empty list of the given schema.
    pub fn new(schema: SchemaRef) -> Self {
        let chunks = Vec::new();
        Chunks { schema, chunks }
    }

    /// The schema every chunk has.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Live rows over all chunks.
    pub fn num_rows(&self) -> usize {
        self.chunks.iter().map(ColumnarBatch::num_rows).sum()
    }

    /// The chunks, in order.
    pub fn iter(&self) -> std::slice::Iter<'_, ColumnarBatch> {
        self.chunks.iter()
    }

    /// Append one chunk — the sink operators emit into. A chunk with no live
    /// row adds nothing.
    pub fn push(&mut self, chunk: ColumnarBatch) {
        if !chunk.is_empty() {
            self.chunks.push(chunk);
        }
    }

    /// Append another list's chunks under this list's schema (UNION ALL; a
    /// Rename is an append to an empty list).
    pub fn append(&mut self, other: Chunks) {
        let retagged = other.chunks.into_iter().map(|c| c.with_schema(self.schema.clone()));
        self.chunks.extend(retagged);
    }

    /// The first `n` rows: whole chunks, then a selection of the last (LIMIT).
    pub fn head(mut self, n: usize) -> Self {
        let mut left = n;
        self.chunks = (self.chunks.into_iter())
            .map_while(|chunk| {
                let kept = (left > 0).then(|| chunk.head(left))?;
                left -= kept.num_rows();
                Some(kept)
            })
            .collect();
        self
    }

    /// The whole list as one batch, for the consumers that need one: free for
    /// a single chunk, one reserved copy for several. The only concatenation
    /// in the executor.
    pub fn into_one(self) -> ColumnarBatch {
        ColumnarBatch::concat(self.schema, &self.chunks)
    }
}

/// A chunk-at-a-time operator: consumes columnar chunks, emits columnar
/// chunks into `out`.
///
/// Streaming operators (filter, project, join probe) emit from `push`;
/// blocking operators (aggregate) buffer and emit from `finish`.
pub trait BatchOperator {
    /// Feed one input chunk.
    fn push(&mut self, chunk: &ColumnarBatch, out: &mut Chunks) -> Result<()>;

    /// Input exhausted; emit anything buffered.
    fn finish(&mut self, _out: &mut Chunks) -> Result<()> {
        Ok(())
    }
}

/// Feed `input` through `op` and return what it emits, as emitted. A chunk of
/// at most `batch_size` rows is pushed as it is; a larger one (a source's
/// whole answer) is cut by selection. `check` — the cancellation/deadline
/// boundary — runs before every push.
pub fn drive(
    op: &mut dyn BatchOperator,
    input: &Chunks,
    out_schema: SchemaRef,
    batch_size: usize,
    mut check: impl FnMut() -> Result<()>,
) -> Result<Chunks> {
    let size = chunk_rows(batch_size);
    let mut out = Chunks::new(out_schema);
    for chunk in input.iter() {
        let n = chunk.num_rows();
        for start in (0..n).step_by(size) {
            check()?;
            let end = (start + size).min(n);
            if end - start == n {
                op.push(chunk, &mut out)?;
            } else {
                op.push(&chunk.select((start as u32..end as u32).collect()), &mut out)?;
            }
        }
    }
    op.finish(&mut out)?;
    Ok(out)
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
    fn push(&mut self, chunk: &ColumnarBatch, out: &mut Chunks) -> Result<()> {
        let keep = eval_filter(&self.pred, chunk)?;
        // Every row kept: the chunk as it is, so that a column reference
        // above stays an `Arc` clone instead of a gather through an identity
        // selection.
        out.push(if keep.len() == chunk.num_rows() {
            chunk.clone()
        } else {
            chunk.select(keep)
        });
        Ok(())
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
    fn push(&mut self, chunk: &ColumnarBatch, out: &mut Chunks) -> Result<()> {
        let cols = eval_columns(&self.exprs, chunk)?;
        // Kernel outputs are compact (logical-row aligned), so the result
        // batch carries no selection.
        out.push(ColumnarBatch::new(Arc::clone(&self.schema), cols, chunk.num_rows()));
        Ok(())
    }
}

/// Each expression as a compact column over `chunk`, expression-major.
fn eval_columns(exprs: &[BoundExpr], chunk: &ColumnarBatch) -> Result<Vec<Arc<Column>>> {
    exprs.iter().map(|e| eval_column(e, chunk)).collect()
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Candidate or output pairs: the probe side's physical row, the build row
/// ([`NO_ROW`] for a Left join's null extension). Grown by the probe chunk's
/// first pairs, then cleared, not reallocated, after each use.
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

    fn clear(&mut self) {
        self.probe.clear();
        self.build.clear();
    }
}

/// Candidate pairs of one probe chunk that still await the residual.
#[derive(Default)]
struct Pending {
    pairs: Pairs,
    /// Left joins only: `(pairs.probe.len() when the row's candidates ended,
    /// probe row)` per finished probe row.
    row_ends: Vec<(usize, u32)>,
    /// Left joins only: has the probe row being resolved kept a pair yet?
    /// Outlives one `resolve` because a row's candidates may be split.
    matched: bool,
}

/// The columns of a join's probe ++ build row that somebody reads — ascending
/// positions — and the schema they make.
pub struct ColumnPick {
    which: Vec<usize>,
    schema: SchemaRef,
}

impl ColumnPick {
    /// Columns `which` of `full`, qualifiers kept; `None` is all of it.
    pub fn new(full: &SchemaRef, which: Option<Vec<usize>>) -> Self {
        let Some(which) = which.filter(|which| which.len() < full.len()) else {
            return ColumnPick { which: (0..full.len()).collect(), schema: Arc::clone(full) };
        };
        let fields = which.iter().map(|&c| full.field(c).clone()).collect();
        ColumnPick { which, schema: Arc::new(Schema::new(fields)) }
    }

    /// The schema of the picked columns.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

/// Hash join: the build side is consumed whole at construction, probe chunks
/// stream through `push`. Output is probe order × build-insertion order;
/// NULL keys never join (Left null-extends, Anti keeps, Semi/Inner drop);
/// Semi/Anti residuals short-circuit at the first matching candidate. With
/// no keys every build row is a candidate for every probe row: the
/// nested-loop join. Nothing is copied but by [`Self::gather_pairs`], and only
/// the columns its caller names: the residual's for the candidates, the
/// consumer's for the survivors.
pub struct VecHashJoin {
    /// The distinct non-NULL build keys. Key `k`'s build rows are
    /// `rows[starts[k]..starts[k + 1]]`, in build insertion order (which
    /// fixes the output order within a probe row) — physical rows of `build`,
    /// the build side's columns as they lie, under no selection: a filtered
    /// build side is never compacted, so a column nobody reads is never copied.
    table: KeyTable,
    starts: Vec<u32>,
    rows: Vec<u32>,
    build: ColumnarBatch,
    probe_keys: Vec<BoundExpr>,
    kind: JoinKind,
    residual: Option<BoundExpr>,
    /// What the residual is bound against: the columns it reads (for
    /// Semi/Anti the whole concatenation of both sides, a row at a time, even
    /// though only left columns flow out).
    pred: ColumnPick,
    /// What flows out: the columns the consumer reads.
    out: ColumnPick,
    /// Most candidate pairs materialized at once for the residual and most
    /// rows in an emitted chunk, so a cross product is filtered before it is
    /// ever held whole and handed on in bounded pieces.
    pair_cap: usize,
}

impl VecHashJoin {
    /// Build the hash table over `build` (the right side). `build_keys` holds
    /// one compact column per key, aligned with `build`'s live rows (what
    /// [`eval_column`] over `build` returns); `probe_keys` are bound against
    /// the probe schema, `residual` against `pred`'s. `batch_size` (the
    /// executor's; 0 is [`DEFAULT_BATCH_SIZE`]) caps the candidate pairs a
    /// residual sees at once and the rows of an emitted chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        build: &ColumnarBatch,
        build_keys: &[Arc<Column>],
        probe_keys: Vec<BoundExpr>,
        kind: JoinKind,
        residual: Option<BoundExpr>,
        pred: ColumnPick,
        out: ColumnPick,
        batch_size: usize,
    ) -> Self {
        let n = build.num_rows();
        let stored = build_keys.iter().map(|c| ColumnBuilder::like(c, n)).collect();
        let mut table = KeyTable::new(stored, n);
        // NULL keys never join: their rows get no key and are in no list.
        let key_of = table.intern_rows(build_keys, n, true);
        // Counting sort of the build rows by key id; stable, so each key's
        // rows stay in insertion order.
        let mut starts = vec![0u32; table.len() + 1];
        for &k in key_of.iter().filter(|&&k| k != NO_KEY) {
            starts[k as usize + 1] += 1;
        }
        for k in 0..table.len() {
            starts[k + 1] += starts[k];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; starts[table.len()] as usize];
        for (row, &k) in key_of.iter().enumerate().filter(|&(_, &k)| k != NO_KEY) {
            rows[next[k as usize] as usize] = build.physical_index(row) as u32;
            next[k as usize] += 1;
        }
        VecHashJoin {
            table,
            starts,
            rows,
            build: ColumnarBatch::new(
                Arc::clone(build.schema()),
                build.columns().to_vec(),
                build.base_len(),
            ),
            probe_keys,
            kind,
            residual,
            pred,
            out,
            pair_cap: chunk_rows(batch_size),
        }
    }

    /// The build rows of key `id` ([`KeyTable::find_rows`]'s answer for a
    /// probe row): none for [`NO_KEY`] — a key no build row has, or one with a
    /// NULL cell, since NULL keys were never interned and so never join.
    fn rows_of(&self, id: u32) -> &[u32] {
        if id == NO_KEY {
            return &[];
        }
        &self.rows[self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize]
    }

    /// Inner/Left/Cross probe: candidate pairs in probe order, the residual
    /// evaluated over at most `pair_cap` of them at a time, the survivors
    /// gathered and emitted `pair_cap` rows at a time.
    fn probe_pairs(&self, chunk: &ColumnarBatch, out: &mut Chunks) -> Result<()> {
        let key_cols = eval_columns(&self.probe_keys, chunk)?;
        let ids = self.table.find_rows(&key_cols, chunk.num_rows());
        let left = matches!(self.kind, JoinKind::Left);
        let mut kept = Pairs::default();
        let mut pending = Pending::default();
        for (row, &id) in ids.iter().enumerate() {
            let phys = chunk.physical_index(row) as u32;
            for &b in self.rows_of(id) {
                pending.pairs.push(phys, b);
                if pending.pairs.probe.len() >= self.pair_cap {
                    self.resolve(chunk, &mut pending, &mut kept, out)?;
                }
            }
            if left {
                pending.row_ends.push((pending.pairs.probe.len(), phys));
            }
        }
        self.resolve(chunk, &mut pending, &mut kept, out)?;
        self.emit(chunk, &mut kept, out);
        Ok(())
    }

    /// Run the residual over the pending candidates (every candidate is
    /// evaluated — Inner/Left never short-circuit, so the first failing pair
    /// in probe × build order is the error) and move the survivors to `kept`
    /// in candidate order, emitting a chunk whenever `pair_cap` have gathered.
    /// One walk over the survivors' indices serves every kind: each Left probe
    /// row whose candidates have ended is finished once the survivors before
    /// its end are kept, null-extended if it kept none. Inner and Cross have
    /// no row ends.
    fn resolve(
        &self,
        chunk: &ColumnarBatch,
        pending: &mut Pending,
        kept: &mut Pairs,
        out: &mut Chunks,
    ) -> Result<()> {
        let pairs = &pending.pairs;
        let live: Vec<u32> = match &self.residual {
            None => (0..pairs.probe.len() as u32).collect(),
            Some(pred) => eval_filter(pred, &self.gather_pairs(&self.pred, chunk, pairs))?,
        };
        let mut keep = |kept: &mut Pairs, probe: u32, build: u32| {
            kept.push(probe, build);
            if kept.probe.len() >= self.pair_cap {
                self.emit(chunk, kept, out);
            }
        };
        let mut live = live.into_iter().map(|k| k as usize).peekable();
        for (end, phys) in pending.row_ends.drain(..) {
            while let Some(k) = live.next_if(|&k| k < end) {
                pending.matched = true;
                keep(kept, pairs.probe[k], pairs.build[k]);
            }
            if !pending.matched {
                keep(kept, phys, NO_ROW);
            }
            pending.matched = false;
        }
        // What is left belongs to no finished row: every Inner and Cross
        // survivor, and a Left row's whose candidates go on in the next batch.
        pending.matched |= live.peek().is_some();
        live.for_each(|k| keep(kept, pairs.probe[k], pairs.build[k]));
        pending.pairs.clear();
        Ok(())
    }

    /// Columns `pick` of the pairs' probe rows of `chunk` beside their build
    /// rows, as one batch. The join's one copy: a column outside `pick` is
    /// never touched.
    fn gather_pairs(
        &self,
        pick: &ColumnPick,
        chunk: &ColumnarBatch,
        pairs: &Pairs,
    ) -> ColumnarBatch {
        let width = chunk.columns().len();
        let gather = |&c: &usize| match (c.checked_sub(width), self.kind) {
            (None, _) => chunk.column(c).gather(&pairs.probe),
            // Only a Left join's pairs hold `NO_ROW`, which null-extends.
            (Some(b), JoinKind::Left) => self.build.column(b).gather_opt(&pairs.build),
            (Some(b), _) => self.build.column(b).gather(&pairs.build),
        };
        let cols = pick.which.iter().map(gather).map(Arc::new).collect();
        ColumnarBatch::new(Arc::clone(&pick.schema), cols, pairs.probe.len())
    }

    /// Gather the kept pairs into one output chunk and start the next.
    fn emit(&self, chunk: &ColumnarBatch, kept: &mut Pairs, out: &mut Chunks) {
        out.push(self.gather_pairs(&self.out, chunk, kept));
        kept.clear();
    }

    /// Semi/Anti probe: a candidate scan that stops at the first match — a
    /// residual error on a later candidate is unreachable once an earlier
    /// candidate matched, so this stays candidate-at-a-time.
    fn probe_filtering(&self, chunk: &ColumnarBatch, out: &mut Chunks) -> Result<()> {
        let key_cols = eval_columns(&self.probe_keys, chunk)?;
        let ids = self.table.find_rows(&key_cols, chunk.num_rows());
        let anti = matches!(self.kind, JoinKind::Anti);
        let mut keep: Vec<u32> = Vec::new();
        for (row, &id) in ids.iter().enumerate() {
            // NULL keys never match: anti keeps the row, semi drops it.
            let rows = self.rows_of(id);
            let matched = match &self.residual {
                None => !rows.is_empty(),
                Some(pred) => {
                    let l = chunk.row(row);
                    let mut hit = false;
                    for &b in rows {
                        let combined = l.concat(&self.build.row(b as usize));
                        if pred.eval_predicate(&combined)? {
                            hit = true;
                            break;
                        }
                    }
                    hit
                }
            };
            if matched != anti {
                keep.push(row as u32);
            }
        }
        out.push(chunk.select(keep).with_schema(Arc::clone(&self.out.schema)));
        Ok(())
    }
}

impl BatchOperator for VecHashJoin {
    fn push(&mut self, chunk: &ColumnarBatch, out: &mut Chunks) -> Result<()> {
        match self.kind {
            // Keyless joins: every build row sits under the empty key, which
            // every probe row carries.
            JoinKind::Inner | JoinKind::Left | JoinKind::Cross => self.probe_pairs(chunk, out),
            JoinKind::Semi | JoinKind::Anti => self.probe_filtering(chunk, out),
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Hash aggregation: buffers group state across chunks, emits one batch from
/// `finish`, groups in first-seen order. Each chunk is folded in in two
/// phases — its rows' group ids into one vector, then one loop per aggregate
/// over that vector and the argument column ([`crate::agg`]). With every
/// input column as a group key and no aggregates it is DISTINCT: the first
/// row of each group, in input order.
pub struct VecAggregate {
    groups: Vec<BoundExpr>,
    /// One per aggregate; `None` is `COUNT(*)`.
    args: Vec<Option<BoundExpr>>,
    /// The group keys, first-seen order: key id is group id. NULL is a group.
    table: KeyTable,
    /// `[aggregate][group]` state.
    aggs: Vec<GroupedAgg>,
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
        let stored = (schema.fields().iter().take(groups.len()))
            .map(|f| ColumnBuilder::new(f.data_type, 0))
            .collect();
        let mut op = VecAggregate {
            groups,
            args,
            table: KeyTable::new(stored, 0),
            aggs: (templates.into_iter())
                .map(|(func, distinct)| GroupedAgg::new(func, distinct))
                .collect(),
            schema,
        };
        // A global aggregate's one implicit group exists before any row does:
        // over zero rows it still emits its row of defaults.
        let implicit = op.num_groups();
        op.aggs.iter_mut().for_each(|agg| agg.grow(implicit));
        op
    }

    fn num_groups(&self) -> usize {
        if self.groups.is_empty() {
            1
        } else {
            self.table.len()
        }
    }
}

impl BatchOperator for VecAggregate {
    fn push(&mut self, chunk: &ColumnarBatch, _out: &mut Chunks) -> Result<()> {
        let n = chunk.num_rows();
        let key_cols = eval_columns(&self.groups, chunk)?;
        let arg_cols = (self.args.iter())
            .map(|a| a.as_ref().map(|e| eval_column(e, chunk)).transpose())
            .collect::<Result<Vec<_>>>()?;
        let ids = if key_cols.is_empty() {
            vec![0; n]
        } else {
            self.table.intern_rows(&key_cols, n, false)
        };
        let groups = self.num_groups();
        // Typed arguments cannot fail, so each gets a loop of its own; the
        // rest are walked row-major together, so that the error is the first
        // failing row's (and in that row the first failing aggregate's).
        let mut by_value = Vec::new();
        for (agg, arg) in self.aggs.iter_mut().zip(&arg_cols) {
            agg.grow(groups);
            match arg {
                Some(col) if !agg.typed(Some(col)) => by_value.push((agg, col)),
                _ => agg.update(&ids, arg.as_deref()),
            }
        }
        if !by_value.is_empty() {
            for (row, &group) in ids.iter().enumerate() {
                for (agg, col) in &mut by_value {
                    agg.push(group as usize, &col.value(row))?;
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Chunks) -> Result<()> {
        let n = self.num_groups();
        let table = std::mem::replace(&mut self.table, KeyTable::new(Vec::new(), 0));
        let values = std::mem::take(&mut self.aggs).into_iter().map(GroupedAgg::finish);
        let fields = self.schema.fields().iter().skip(self.groups.len());
        let cols = (table.into_columns().into_iter())
            .chain(values.zip(fields).map(|(v, f)| Column::from_values(&v, f.data_type)))
            .map(Arc::new)
            .collect();
        out.push(ColumnarBatch::new(Arc::clone(&self.schema), cols, n));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// Sort of the live rows: each key is evaluated as a column over the whole
/// input, then an index sort orders the rows under [`Value`]'s total order
/// (NULL lowest; `false` in a key's flag reverses that key; ties keep input
/// order), comparing the key columns' typed vectors in place. Ties are broken
/// by row index, which makes the comparator a total order: whatever algorithm
/// runs, the result is the stable sort's.
///
/// `first` is the consumer's promise to read only the first `k` rows (a LIMIT
/// above). Then only those are established — a selection of the `k` smallest,
/// then a sort of that prefix — and the rows past `k` follow in no particular
/// order. All `n` rows are returned either way, as a selection over `input`'s
/// own columns, so a LIMIT above gathers only the rows that survive it.
pub fn sort_batch(
    input: &ColumnarBatch,
    keys: &[(BoundExpr, bool)],
    first: Option<usize>,
) -> Result<ColumnarBatch> {
    let keys = keys
        .iter()
        .map(|(expr, asc)| Ok((eval_column(expr, input)?, *asc)))
        .collect::<Result<Vec<_>>>()?;
    let by_keys_then_row = |a: &u32, b: &u32| {
        for (col, asc) in &keys {
            let ord = cells_cmp(col, *a as usize, col, *b as usize);
            if !ord.is_eq() {
                return if *asc { ord } else { ord.reverse() };
            }
        }
        a.cmp(b)
    };
    let n = input.num_rows();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let k = first.map_or(n, |k| k.min(n));
    if 0 < k && k < n {
        order.select_nth_unstable_by(k - 1, by_keys_then_row);
    }
    order[..k].sort_unstable_by(by_keys_then_row);
    Ok(input.select(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::keys::hash_keys;
    use eii_data::{row, Batch, ColumnData, DataType, Field, Schema, Value};
    use eii_expr::{bind, BinaryOp, Expr};
    use std::cmp::Ordering;

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

    /// Drive `op` over `input` as one list of one chunk and gather what it
    /// emits.
    fn run(op: &mut dyn BatchOperator, input: &ColumnarBatch, out: &SchemaRef) -> ColumnarBatch {
        drive(op, &Chunks::from(input.clone()), out.clone(), 0, || Ok(()))
            .unwrap()
            .into_one()
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
            ColumnPick::new(&joined, None),
            ColumnPick::new(&joined, None),
            0,
        );
        run(&mut op, left, &joined)
    }

    fn column_values(batch: &ColumnarBatch, col: usize) -> Vec<Value> {
        (0..batch.num_rows()).map(|i| batch.value_at(i, col)).collect()
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        // The key hash (the Fx construction, `eii_data::keys`) is a function of
        // the cells alone: no per-table or per-process state.
        let hashes = |vals: &[i64]| hash_keys(ints("k", vals).columns(), vals.len());
        assert_eq!(hashes(&[42, 43]), hashes(&[42, 43]));
        assert_ne!(hashes(&[42])[0], hashes(&[43])[0]);
    }

    #[test]
    fn filter_drops_rows() {
        let batch = ints("x", &[1, 5, 2, 8]);
        let pred = bind(&Expr::col("x").gt(Expr::lit(2i64)), batch.schema()).unwrap();
        let out = run(&mut VecFilter::new(pred), &batch, batch.schema());
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
        let mut op = VecProject::new(vec![expr], out_schema.clone());
        let out = run(&mut op, &batch, &out_schema);
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
    fn null_extended_build_columns_stay_typed() {
        // One unmatched probe row must not turn the build side `Mixed`.
        let left = ints("a", &[2, 1, 3]);
        let right = {
            let s = schema(&[("b", DataType::Int), ("w", DataType::Float), ("t", DataType::Str)]);
            let rows = vec![row![2i64, 0.5f64, "two"], row![3i64, Value::Null, "three"]];
            ColumnarBatch::from_batch(&Batch::new(s, rows))
        };
        let out = join_on("a", "b", &left, &right, JoinKind::Left);
        assert_eq!(out.column(1).as_ints().map(<[i64]>::len), Some(3));
        assert!(out.column(2).as_floats().is_some() && out.column(3).as_strs().is_some());
        assert_eq!(
            out.to_batch().into_rows(),
            vec![
                row![2i64, 2i64, 0.5f64, "two"],
                row![1i64, Value::Null, Value::Null, Value::Null],
                row![3i64, 3i64, Value::Null, "three"],
            ]
        );
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
            out_schema.clone(),
        );
        let out = run(&mut op, &batch, &out_schema);
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
        let input = Chunks::from(batch.clone());
        let out = drive(&mut op, &input, batch.schema().clone(), 2, || {
            checks += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(checks, 3); // ceil(5/2)
        // One emitted chunk per pushed chunk, not one batch.
        let sizes: Vec<usize> = out.iter().map(ColumnarBatch::num_rows).collect();
        assert_eq!(sizes, [1, 2, 1]);
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.into_one().value_at(0, 0), Value::Int(2));
    }

    #[test]
    fn drive_never_concatenates() {
        // Filter -> Project over a 3-chunk list: 3 chunks come back, and a
        // projected column reference *is* the kernel's output column.
        let s = schema(&[("x", DataType::Int), ("y", DataType::Int)]);
        let mut input = Chunks::new(Arc::clone(&s));
        for base in [0i64, 10, 20] {
            let rows = (base..base + 4).map(|v| row![v, v * 2]).collect();
            input.push(ColumnarBatch::from_batch(&Batch::new(Arc::clone(&s), rows)));
        }
        let mut checks = 0;
        let mut check = || {
            checks += 1;
            Ok(())
        };
        let pred = bind(&Expr::col("x").gt(Expr::lit(-1i64)), &s).unwrap();
        let filtered =
            drive(&mut VecFilter::new(pred), &input, Arc::clone(&s), 0, &mut check).unwrap();
        let out_schema = schema(&[("y", DataType::Int), ("z", DataType::Int)]);
        let y = bind(&Expr::col("y"), &s).unwrap();
        let z = bind(&Expr::col("x").binary(BinaryOp::Plus, Expr::lit(1i64)), &s).unwrap();
        let mut project = VecProject::new(vec![y, z], Arc::clone(&out_schema));
        let out = drive(&mut project, &filtered, out_schema, 0, &mut check).unwrap();
        assert_eq!(checks, 6, "one check per pushed chunk");
        assert_eq!(out.iter().count(), 3);
        for ((src, mid), got) in input.iter().zip(filtered.iter()).zip(out.iter()) {
            // The filter kept every row, so it handed the chunk on as it was:
            // no selection, and the projected column reference *is* the
            // source's column.
            assert!(mid.selection().is_none());
            assert!(Arc::ptr_eq(got.column(0), src.column(1)));
            assert_eq!(got.num_rows(), 4);
        }
        // A filter that drops a row narrows by selection over the source's own
        // columns, and the kernel gathers `y` once for the projection.
        let pred = bind(&Expr::col("x").gt(Expr::lit(0i64)), &s).unwrap();
        let mut narrow = VecFilter::new(pred);
        let narrowed = drive(&mut narrow, &input, Arc::clone(&s), 0, || Ok(())).unwrap();
        let (src, mid) = (input.iter().next().unwrap(), narrowed.iter().next().unwrap());
        assert_eq!(mid.selection(), Some(&[1u32, 2, 3][..]));
        assert!(Arc::ptr_eq(mid.column(1), src.column(1)));
        let out = drive(&mut project, &narrowed, Arc::clone(out.schema()), 0, || Ok(())).unwrap();
        let kernel = eval_column(&BoundExpr::Column(1), mid).unwrap();
        assert_eq!(out.iter().next().unwrap().column(0).as_ref(), kernel.as_ref());
        // Without a selection the column reference is the input's `Arc`.
        let passed = drive(&mut project, &input, Arc::clone(out.schema()), 0, || Ok(())).unwrap();
        for (src, got) in input.iter().zip(passed.iter()) {
            assert!(Arc::ptr_eq(got.column(0), src.column(1)));
        }
    }

    #[test]
    fn chunk_lists_limit_append_and_gather() {
        let s = schema(&[("x", DataType::Int)]);
        let list = |parts: &[&[i64]]| {
            let mut l = Chunks::new(Arc::clone(&s));
            parts.iter().for_each(|p| l.push(ints("x", p)));
            l
        };
        let values = |l: Chunks| column_values(&l.into_one(), 0);
        let abc = list(&[&[1, 2], &[], &[3, 4, 5], &[6]]);
        assert_eq!(abc.iter().count(), 3, "an empty chunk adds nothing");
        assert_eq!(abc.num_rows(), 6);
        for n in 0..8 {
            let head = abc.clone().head(n);
            assert_eq!(head.num_rows(), n.min(6));
            assert_eq!(values(head), (1..=n.min(6) as i64).map(Value::Int).collect::<Vec<_>>());
        }
        assert_eq!(abc.clone().head(2).iter().count(), 1, "whole chunks, no trailing empty");
        let renamed = schema(&[("y", DataType::Int)]);
        let mut union = Chunks::new(Arc::clone(&renamed));
        union.append(abc);
        union.append(list(&[&[7]]));
        assert!(union.iter().all(|c| Arc::ptr_eq(c.schema(), &renamed)));
        assert_eq!(values(union), (1..=7).map(Value::Int).collect::<Vec<_>>());
        // An empty list still knows its schema, and gathers to an empty batch.
        let none = Chunks::new(Arc::clone(&s)).into_one();
        assert!(none.is_empty() && Arc::ptr_eq(none.schema(), &s));
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
        let mut op = VecHashJoin::new(
            right,
            &[],
            Vec::new(),
            kind,
            residual,
            ColumnPick::new(&both, None),
            ColumnPick::new(&out_schema, None),
            cap,
        );
        let mut out = Chunks::new(out_schema);
        op.push(left, &mut out).unwrap();
        // The cap bounds what is emitted as it bounds what the residual sees.
        assert!(out.iter().all(|c| c.num_rows() <= cap.max(left.num_rows())));
        out.into_one()
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

    #[test]
    fn join_output_is_emitted_in_bounded_chunks() {
        // 6 probe rows x 5 matches each, Left with two unmatched rows: no
        // emitted chunk exceeds the cap, and the order is the unbounded one.
        let left = ints("a", &[1, 9, 1, 1, 8, 1, 1, 1]);
        let right = ints("b", &[1, 1, 1, 1, 1]);
        let joined = Arc::new(left.schema().join(right.schema()));
        let bkey = bind(&Expr::col("b"), right.schema()).unwrap();
        let pkey = bind(&Expr::col("a"), left.schema()).unwrap();
        let emitted = |cap: usize| {
            let mut op = VecHashJoin::new(
                &right,
                &[eval_column(&bkey, &right).unwrap()],
                vec![pkey.clone()],
                JoinKind::Left,
                None,
                ColumnPick::new(&joined, None),
                ColumnPick::new(&joined, None),
                cap,
            );
            let mut out = Chunks::new(Arc::clone(&joined));
            op.push(&left, &mut out).unwrap();
            out
        };
        let whole = emitted(4096);
        assert_eq!(whole.iter().count(), 1);
        assert_eq!(whole.num_rows(), 32);
        for cap in [1, 3, 4, 7] {
            let out = emitted(cap);
            assert!(out.iter().all(|c| c.num_rows() <= cap), "cap {cap}");
            assert_eq!(out.iter().count(), 32usize.div_ceil(cap));
            assert_eq!(out.into_one().to_batch(), whole.clone().into_one().to_batch());
        }
    }

    fn distinct(batch: &ColumnarBatch) -> ColumnarBatch {
        let groups = (0..batch.schema().len()).map(BoundExpr::Column).collect();
        let mut op = VecAggregate::new(groups, Vec::new(), Vec::new(), batch.schema().clone());
        run(&mut op, batch, batch.schema())
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
        // Single column: an Int key, then a Float that equals it, then one that
        // equals no integer.
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
        let asc = sort_batch(&batch, &sort_keys(&batch, &[(Expr::col("k"), true)]), None).unwrap();
        assert_eq!(
            column_values(&asc, 1),
            [1, 4, 2, 5, 0, 3].map(Value::Int),
            "NULL lowest, ties in input order"
        );
        // A selection over the input's own columns: nothing was copied.
        assert!(Arc::ptr_eq(asc.column(0), batch.column(0)));
        let desc =
            sort_batch(&batch, &sort_keys(&batch, &[(Expr::col("k"), false)]), None).unwrap();
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
            None,
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
            let got = sort_batch(&batch, &sort_keys(&batch, &keys), None).unwrap();
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
        let err = sort_batch(&batch, &keys, Some(1)).unwrap_err();
        let scalar = keys[0].0.eval(&batch.row(1)).unwrap_err();
        assert_eq!(err.to_string(), scalar.to_string());
        assert_ne!(
            err.to_string(),
            keys[0].0.eval(&batch.row(2)).unwrap_err().to_string()
        );
    }
}
