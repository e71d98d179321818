//! Incremental view maintenance: delta propagation through a view's
//! operator tree, on the executor's kernels and key table.
//!
//! Base-table change logs (the ones the result cache's watermark check reads)
//! arrive as **weighted deltas** — z-sets: an insert weighs `+1`, a delete
//! `-1`, an update is a retract/insert pair. In the state tree, which mirrors
//! the view's optimized logical plan, a delta is a [`ColumnarBatch`] beside
//! one weight per row, and each operator runs the executor's code:
//!
//! - **Scan** pivots its table's changed rows once, only the columns its
//!   pushed filters and projection read; **Filter** and pushed filters
//!   narrow through [`eval_filter`], **Project** evaluates through
//!   [`eval_column`], **Alias** re-tags, **UnionAll** concatenates.
//! - **Join** (inner, semi-naive): `ΔL ⋈ R_old ∪ L_new ⋈ ΔR`, weights
//!   multiplied. Each input holds its distinct live rows once, weighted, in a
//!   [`KeyTable`] over the whole row, listed under join keys interned in a
//!   second one as the executor's hash join interns its build side: a key
//!   with a NULL cell is never interned, so its row neither joins nor is
//!   kept, and Int and Float keys meet where the executor's have them meet.
//!   The residual narrows the gathered candidate pairs; with no equi key
//!   every held row is a candidate.
//! - **Aggregate** interns groups in a [`KeyTable`], NULL a group like any
//!   other, and folds each delta through [`fold_chunk`], with its weights,
//!   into the executor's [`GroupedAgg`], one per aggregate, built retractable
//!   (SUM/AVG int-only: [`eii_planner::maintain`]). A touched group emits a
//!   retraction of its old row and an insertion of its new one.
//!
//! A join row or a group whose weight returns to zero is dead (alive again
//! if its key comes back); once dead ids outnumber live ones, its table is
//! rebuilt from the live ones, so state stays O(live rows).
//!
//! The maintained view is a canonical multiset (`BTreeMap<Row, i64>`)
//! materialized in sorted row order, so same-seed runs are bit-identical and
//! IVM ≡ recompute is checkable by sorting the recomputed batch. A refresh
//! costs [`IVM_PROBE_MS`] per base table plus [`IVM_ROW_MS`] per delta row of
//! simulated time — the change, not the data (experiment E19 gates this).

use std::collections::BTreeMap;
use std::sync::Arc;

use eii_data::keys::{KeyTable, NO_KEY};
use eii_data::{
    Column, ColumnBuilder, ColumnarBatch, DataType, EiiError, Result, Row, Schema, SchemaRef,
};
use eii_exec::agg::{fold_chunk, merge_weight, GroupedAgg};
use eii_expr::{bind, eval_column, eval_filter, infer_type, referenced_columns, BoundExpr, Expr};
use eii_planner::{split_join_on, LogicalPlan};
use eii_storage::{Change, ChangeOp};

/// Simulated cost of probing one base table's change log per refresh.
pub const IVM_PROBE_MS: f64 = 0.05;
/// Simulated cost of pushing one delta row through the operator tree.
pub const IVM_ROW_MS: f64 = 0.02;

/// A weighted delta: rows with signed multiplicities (+1 insert, -1
/// delete), keyed by the qualified `source.table` they originate from.
pub type TableDeltas = BTreeMap<String, Vec<(Row, i64)>>;

/// Convert one table's change-log suffix into a weighted delta batch.
pub fn changes_to_delta(changes: &[Change]) -> Vec<(Row, i64)> {
    let mut out = Vec::with_capacity(changes.len());
    for change in changes {
        match &change.op {
            ChangeOp::Insert { new } => out.push((new.clone(), 1)),
            ChangeOp::Delete { old } => out.push((old.clone(), -1)),
            ChangeOp::Update { old, new } => {
                out.push((old.clone(), -1));
                out.push((new.clone(), 1));
            }
        }
    }
    out
}

/// A z-set delta inside the tree: logical row `k` of `batch` weighs
/// `weights[k]`.
struct Delta {
    batch: ColumnarBatch,
    weights: Vec<i64>,
}

impl Delta {
    /// Weighted rows, read by reference, pivoted into `schema`: field `k`
    /// takes cell `cols[k]` of every row.
    fn from_rows(schema: &SchemaRef, cols: &[usize], rows: &[(Row, i64)]) -> Delta {
        let batch = ColumnarBatch::from_rows(Arc::clone(schema), cols, rows.iter().map(|(r, _)| r));
        Delta { batch, weights: rows.iter().map(|&(_, w)| w).collect() }
    }

    fn len(&self) -> usize {
        self.weights.len()
    }

    /// The rows every predicate is TRUE on, each a WHERE over the rows the
    /// ones before it kept.
    fn filter(mut self, preds: &[BoundExpr]) -> Result<Delta> {
        for pred in preds {
            if self.len() == 0 {
                break;
            }
            let keep = eval_filter(pred, &self.batch)?;
            if keep.len() < self.len() {
                self.weights = keep.iter().map(|&k| self.weights[k as usize]).collect();
                self.batch = self.batch.select(keep);
            }
        }
        Ok(self)
    }

    /// `parts` one after another, under `schema`.
    fn concat(schema: &SchemaRef, parts: Vec<Delta>) -> Delta {
        let (batches, weights): (Vec<_>, Vec<Vec<i64>>) =
            parts.into_iter().map(|d| (d.batch, d.weights)).unzip();
        let batch = ColumnarBatch::concat(Arc::clone(schema), &batches);
        Delta { batch, weights: weights.concat() }
    }
}

/// `table` holding only its keys `ids`, renumbered `0..ids.len()` in order.
fn keep_keys(table: &KeyTable, ids: &[u32]) -> KeyTable {
    let cols: Vec<Arc<Column>> = table.gather(ids).map(Arc::new).collect();
    let stored = cols.iter().map(|c| ColumnBuilder::like(c, ids.len())).collect();
    let mut kept = KeyTable::new(stored, ids.len());
    kept.intern_rows(&cols, ids.len(), false);
    kept
}

/// Keys interned in a [`KeyTable`], NULL a key cell like any other, each
/// with a weight: a join input's distinct rows, or an aggregate's groups.
#[derive(Debug)]
struct Interned {
    table: KeyTable,
    weights: Vec<i64>,
    live: usize,
}

impl Interned {
    fn new(types: impl Iterator<Item = DataType>) -> Interned {
        let stored = types.map(|ty| ColumnBuilder::new(ty, 0)).collect();
        Interned { table: KeyTable::new(stored, 0), weights: Vec::new(), live: 0 }
    }

    /// The id of each of the `n` keys in `cols`; a new key weighs 0.
    fn intern(&mut self, cols: &[Arc<Column>], n: usize) -> Vec<u32> {
        let ids = self.table.intern_rows(cols, n, false);
        self.weights.resize(self.table.len(), 0);
        ids
    }

    fn weight(&self, id: u32) -> i64 {
        self.weights[id as usize]
    }

    /// Add `w` to `id`'s weight; true when that brought it to life or killed
    /// it.
    fn add(&mut self, id: u32, w: i64) -> bool {
        let was = self.weight(id) != 0;
        self.weights[id as usize] += w;
        let flipped = was != (self.weight(id) != 0);
        if flipped {
            self.live = if was { self.live - 1 } else { self.live + 1 };
        }
        flipped
    }

    /// Do dead ids outnumber the live ones?
    fn crowded(&self) -> bool {
        self.weights.len() - self.live > self.live
    }

    /// Keep only the live ids `ids`, renumbered `0..ids.len()` in order.
    fn keep(&mut self, ids: &[u32]) {
        self.table = keep_keys(&self.table, ids);
        self.weights = ids.iter().map(|&id| self.weight(id)).collect();
        self.live = ids.len();
    }
}

/// One input of an inner join: its distinct live rows, listed under their
/// join key.
#[derive(Debug)]
struct JoinSide {
    /// The join key, bound against this side's schema.
    key_exprs: Vec<BoundExpr>,
    /// The keys without a NULL cell; `rows_of[k]` lists key `k`'s live rows.
    keys: KeyTable,
    rows_of: Vec<Vec<u32>>,
    rows: Interned,
}

impl JoinSide {
    fn new(keys: &[Expr], schema: &Schema) -> Result<JoinSide> {
        let stored = (keys.iter())
            .map(|k| Ok(ColumnBuilder::new(infer_type(k, schema)?.unwrap_or(DataType::Int), 0)))
            .collect::<Result<_>>()?;
        Ok(JoinSide {
            key_exprs: bind_all(keys, schema)?,
            keys: KeyTable::new(stored, 0),
            rows_of: Vec::new(),
            rows: Interned::new(schema.fields().iter().map(|f| f.data_type)),
        })
    }

    /// Each row of `delta`, whose join keys are `keys`, joined to each live
    /// row held here under an equal key — the delta on the left when `left`
    /// — weighing the product of the two weights. A key with a NULL cell
    /// finds none.
    fn join(&self, schema: &SchemaRef, delta: &Delta, keys: &[Arc<Column>], left: bool) -> Delta {
        let (mut at, mut ids) = (Vec::new(), Vec::new());
        for (row, k) in self.keys.find_rows(keys, delta.len()).into_iter().enumerate() {
            for &id in self.rows_of.get(k as usize).map_or(&[][..], Vec::as_slice) {
                at.push(row as u32);
                ids.push(id);
            }
        }
        let weight = |(&i, &id): (&u32, &u32)| delta.weights[i as usize] * self.rows.weight(id);
        let weights = at.iter().zip(&ids).map(weight).collect();
        let fresh = delta.batch.select(at).compact();
        let fresh = fresh.columns().iter().cloned();
        let held = self.rows.table.gather(&ids).map(Arc::new);
        let cols = if left { fresh.chain(held).collect() } else { held.chain(fresh).collect() };
        Delta { batch: ColumnarBatch::new(Arc::clone(schema), cols, ids.len()), weights }
    }

    /// Fold `delta`, whose join keys are `key_cols`, into the state, all but
    /// the rows whose key has a NULL cell.
    fn merge(&mut self, delta: &Delta, key_cols: &[Arc<Column>]) {
        let n = delta.len();
        let key_of = self.keys.intern_rows(key_cols, n, true);
        self.rows_of.resize_with(self.keys.len(), Vec::new);
        let kept: Vec<u32> = (0..n as u32).filter(|&i| key_of[i as usize] != NO_KEY).collect();
        let rows = delta.batch.select(kept.clone()).compact();
        for (i, id) in kept.into_iter().zip(self.rows.intern(rows.columns(), rows.num_rows())) {
            if self.rows.add(id, delta.weights[i as usize]) {
                let list = &mut self.rows_of[key_of[i as usize] as usize];
                match self.rows.weight(id) {
                    0 => list.retain(|&r| r != id),
                    _ => list.push(id),
                }
            }
        }
        if self.rows.crowded() {
            // Keys that still have a live row, in id order, and their rows
            // renumbered key by key.
            let rows_of = std::mem::take(&mut self.rows_of);
            let live_keys = (0..rows_of.len() as u32).filter(|&k| !rows_of[k as usize].is_empty());
            self.keys = keep_keys(&self.keys, &live_keys.collect::<Vec<_>>());
            let live_rows: Vec<u32> = rows_of.iter().flatten().copied().collect();
            self.rows.keep(&live_rows);
            let mut ids = 0..live_rows.len() as u32;
            let renumbered = rows_of.iter().filter(|r| !r.is_empty());
            self.rows_of = renumbered.map(|r| ids.by_ref().take(r.len()).collect()).collect();
        }
    }
}

/// The operator state tree.
#[derive(Debug)]
enum OpState {
    /// Leaf: deltas of one base table, filtered and projected like the scan.
    Scan {
        qualified: String,
        /// The base columns pivoted — the projection's, then the other ones
        /// the pushed filters read — and their schema, the filters' binding.
        read: Vec<usize>,
        read_schema: SchemaRef,
        filters: Vec<BoundExpr>,
        schema: SchemaRef,
    },
    Filter { input: Box<OpState>, predicate: BoundExpr },
    Project { input: Box<OpState>, exprs: Vec<BoundExpr>, schema: SchemaRef },
    /// Requalifies the schema; the values are untouched.
    Alias { input: Box<OpState>, schema: SchemaRef },
    Union { inputs: Vec<OpState>, schema: SchemaRef },
    Join {
        left: Box<OpState>,
        right: Box<OpState>,
        sides: Box<[JoinSide; 2]>,
        /// Bound against the joined schema.
        residual: Vec<BoundExpr>,
        schema: SchemaRef,
    },
    /// A global aggregate (no GROUP BY) has one group, seeded — its row of
    /// defaults emitted — by the first apply.
    Aggregate {
        input: Box<OpState>,
        group_exprs: Vec<BoundExpr>,
        groups: Interned,
        /// One per aggregate, beside its state; `None` is `COUNT(*)`.
        args: Vec<Option<BoundExpr>>,
        aggs: Vec<GroupedAgg>,
        schema: SchemaRef,
    },
}

fn build(plan: &LogicalPlan) -> Result<OpState> {
    let schema = plan.schema()?;
    Ok(match plan {
        LogicalPlan::SourceScan {
            source,
            table,
            base_schema,
            pushed_filters,
            projection,
            limit,
            ..
        } => {
            if limit.is_some() {
                return Err(EiiError::Plan("ivm: scan-level LIMIT is not incrementalizable".into()));
            }
            let index = |c: &String| base_schema.index_of(None, c);
            let mut read: Vec<usize> = match projection {
                Some(cols) => cols.iter().map(index).collect::<Result<_>>()?,
                None => (0..base_schema.len()).collect(),
            };
            for c in pushed_filters.iter().flat_map(referenced_columns) {
                let c = base_schema.index_of(c.relation.as_deref(), &c.name)?;
                if !read.contains(&c) {
                    read.push(c);
                }
            }
            let fields = read.iter().map(|&c| base_schema.field(c).clone()).collect();
            let read_schema = Arc::new(Schema::new(fields));
            OpState::Scan {
                qualified: format!("{source}.{table}"),
                filters: bind_all(pushed_filters, &read_schema)?,
                read,
                read_schema,
                schema,
            }
        }
        LogicalPlan::Filter { input, predicate } => OpState::Filter {
            predicate: bind(predicate, input.schema()?.as_ref())?,
            input: Box::new(build(input)?),
        },
        LogicalPlan::Project { input, exprs } => {
            let input_schema = input.schema()?;
            OpState::Project {
                exprs: exprs.iter().map(|(e, _)| bind(e, &input_schema)).collect::<Result<_>>()?,
                input: Box::new(build(input)?),
                schema,
            }
        }
        LogicalPlan::Alias { input, .. } => OpState::Alias {
            input: Box::new(build(input)?),
            schema,
        },
        LogicalPlan::UnionAll { inputs } => OpState::Union {
            inputs: inputs.iter().map(build).collect::<Result<_>>()?,
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            if *kind != eii_sql::JoinKind::Inner {
                return Err(EiiError::Plan(format!("ivm: {kind} is not incrementalizable")));
            }
            // Keyed and residual exactly as the executor's join is.
            let (lschema, rschema) = (left.schema()?, right.schema()?);
            let (lkeys, rkeys, residual) = split_join_on(on.as_ref(), &lschema, &rschema);
            let (l, r) = (JoinSide::new(&lkeys, &lschema)?, JoinSide::new(&rkeys, &rschema)?);
            OpState::Join {
                left: Box::new(build(left)?),
                right: Box::new(build(right)?),
                sides: Box::new([l, r]),
                residual: bind_all(&residual, &Schema::join(&lschema, &rschema))?,
                schema,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input_schema = input.schema()?;
            let (mut args, mut states) = (Vec::new(), Vec::new());
            for a in aggs {
                if a.distinct {
                    let msg = "ivm: DISTINCT aggregates are not incrementalizable";
                    return Err(EiiError::Plan(msg.into()));
                }
                args.push(a.arg.as_ref().map(|x| bind(x, &input_schema)).transpose()?);
                states.push(GroupedAgg::retractable(a.func));
            }
            let key_types = schema.fields().iter().take(group_by.len()).map(|f| f.data_type);
            OpState::Aggregate {
                input: Box::new(build(input)?),
                group_exprs: bind_all(group_by, &input_schema)?,
                groups: Interned::new(key_types),
                args,
                aggs: states,
                schema,
            }
        }
        LogicalPlan::Values { .. }
        | LogicalPlan::MatViewScan { .. }
        | LogicalPlan::Distinct { .. }
        | LogicalPlan::Sort { .. }
        | LogicalPlan::Limit { .. } => {
            return Err(EiiError::Plan(format!(
                "ivm: operator is not incrementalizable:\n{}",
                plan.display()
            )))
        }
    })
}

fn bind_all(exprs: &[Expr], schema: &Schema) -> Result<Vec<BoundExpr>> {
    exprs.iter().map(|e| bind(e, schema)).collect()
}

/// Each expression as a compact column over `batch`.
fn eval_columns(exprs: &[BoundExpr], batch: &ColumnarBatch) -> Result<Vec<Arc<Column>>> {
    exprs.iter().map(|e| eval_column(e, batch)).collect()
}

/// Group `g`'s output row: its key, then each aggregate's value.
fn group_row(groups: &Interned, aggs: &[GroupedAgg], g: u32) -> Row {
    let key = groups.table.key(g as usize);
    Row::new(key.chain(aggs.iter().map(|a| a.value(g as usize))).collect())
}

impl OpState {
    fn apply(&mut self, deltas: &TableDeltas) -> Result<Delta> {
        match self {
            OpState::Scan { qualified, read, read_schema, filters, schema } => {
                let rows = deltas.get(qualified).map_or(&[][..], Vec::as_slice);
                let Delta { batch, weights } =
                    Delta::from_rows(read_schema, read, rows).filter(filters)?;
                let cols = batch.columns()[..schema.len()].to_vec();
                Ok(Delta { batch: batch.with_columns(Arc::clone(schema), cols), weights })
            }
            OpState::Filter { input, predicate } => {
                input.apply(deltas)?.filter(std::slice::from_ref(predicate))
            }
            OpState::Project { input, exprs, schema } => {
                let Delta { batch, weights } = input.apply(deltas)?;
                let cols = eval_columns(exprs, &batch)?;
                let batch = ColumnarBatch::new(Arc::clone(schema), cols, weights.len());
                Ok(Delta { batch, weights })
            }
            OpState::Alias { input, schema } => {
                let Delta { batch, weights } = input.apply(deltas)?;
                Ok(Delta { batch: batch.with_schema(Arc::clone(schema)), weights })
            }
            OpState::Union { inputs, schema } => {
                let parts = inputs.iter_mut().map(|i| i.apply(deltas)).collect::<Result<_>>()?;
                Ok(Delta::concat(schema, parts))
            }
            OpState::Join { left, right, sides, residual, schema } => {
                let (dl, dr) = (left.apply(deltas)?, right.apply(deltas)?);
                if dl.len() + dr.len() == 0 {
                    let batch = ColumnarBatch::empty(Arc::clone(schema));
                    return Ok(Delta { batch, weights: Vec::new() });
                }
                let [l, r] = &mut **sides;
                let lkeys = eval_columns(&l.key_exprs, &dl.batch)?;
                let rkeys = eval_columns(&r.key_exprs, &dr.batch)?;
                // ΔL ⋈ R_old; then L becomes L_old ∪ ΔL before the right
                // delta probes it, so ΔL ⋈ ΔR is counted exactly once
                // (semi-naive).
                let old = r.join(schema, &dl, &lkeys, true).filter(residual)?;
                l.merge(&dl, &lkeys);
                let new = l.join(schema, &dr, &rkeys, false).filter(residual)?;
                r.merge(&dr, &rkeys);
                Ok(Delta::concat(schema, vec![old, new]))
            }
            OpState::Aggregate { input, group_exprs, groups, args, aggs, schema } => {
                let delta = input.apply(deltas)?;
                let global = group_exprs.is_empty();
                let mut out = Vec::new();
                if global && groups.weights.is_empty() {
                    // Zero input rows still produce one output row
                    // (COUNT(*)=0, SUM/AVG/MIN/MAX=NULL), matching the
                    // executor's empty-input behavior.
                    groups.intern(&[], 1);
                    aggs.iter_mut().for_each(|a| a.grow(1));
                    out.push((group_row(groups, aggs, 0), 1));
                }
                let ids = groups.intern(&eval_columns(group_exprs, &delta.batch)?, delta.len());
                // A group with no rows left is retracted; it keeps its id,
                // its partials back at zero.
                let row_of = |groups: &Interned, aggs: &[GroupedAgg], g| {
                    (global || groups.weight(g) != 0).then(|| group_row(groups, aggs, g))
                };
                let mut touched = ids.clone();
                touched.sort_unstable();
                touched.dedup();
                let before: Vec<_> = touched.iter().map(|&g| row_of(groups, aggs, g)).collect();
                for (&g, &w) in ids.iter().zip(&delta.weights) {
                    groups.add(g, w);
                }
                let w = |i| delta.weights[i];
                fold_chunk(aggs, args, &delta.batch, &ids, groups.weights.len(), w)?;
                for (&g, old) in touched.iter().zip(before) {
                    let new = row_of(groups, aggs, g);
                    if old != new {
                        out.extend(old.map(|row| (row, -1)));
                        out.extend(new.map(|row| (row, 1)));
                    }
                }
                if !global && groups.crowded() {
                    let live = (0..groups.weights.len() as u32).filter(|&g| groups.weight(g) != 0);
                    let live: Vec<u32> = live.collect();
                    groups.keep(&live);
                    aggs.iter_mut().for_each(|a| a.keep(&live));
                }
                Ok(Delta::from_rows(schema, &(0..schema.len()).collect::<Vec<_>>(), &out))
            }
        }
    }
}

/// Cumulative maintenance statistics for one view.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IvmStats {
    /// Incremental refreshes applied.
    pub refreshes: u64,
    /// Base-table delta rows consumed across all refreshes.
    pub input_rows: u64,
    /// Output delta rows the root operator emitted.
    pub output_rows: u64,
    /// Total simulated maintenance cost.
    pub sim_ms: f64,
}

/// Per-view incremental maintenance state: the operator tree, the
/// maintained result multiset, and one change-log watermark per base
/// table.
#[derive(Debug)]
pub struct IvmState {
    root: OpState,
    result: BTreeMap<Row, i64>,
    schema: SchemaRef,
    watermarks: BTreeMap<String, u64>,
    stats: IvmStats,
}

impl IvmState {
    /// Compile a maintenance state tree from a view's optimized logical
    /// plan (already validated by
    /// [`eii_planner::derive_maintenance_plan`]) and the base tables it
    /// reads. Watermarks start at 0, so the first delta application
    /// replays the whole change log — bootstrap and steady-state refresh
    /// share one code path.
    pub fn build(plan: &LogicalPlan, base_tables: &[String]) -> Result<IvmState> {
        Ok(IvmState {
            root: build(plan)?,
            result: BTreeMap::new(),
            schema: plan.schema()?,
            watermarks: base_tables.iter().map(|t| (t.clone(), 0)).collect(),
            stats: IvmStats::default(),
        })
    }

    /// The base tables this view maintains watermarks for.
    pub fn base_tables(&self) -> Vec<String> {
        self.watermarks.keys().cloned().collect()
    }

    /// The change-log watermark up to which `qualified` has been applied.
    pub fn watermark(&self, qualified: &str) -> u64 {
        self.watermarks.get(qualified).copied().unwrap_or(0)
    }

    /// Cumulative maintenance statistics.
    pub fn stats(&self) -> IvmStats {
        self.stats
    }

    /// Apply one round of per-table deltas, advancing each table's
    /// watermark to the paired sequence number. Returns the simulated cost
    /// of this application.
    pub fn apply(&mut self, deltas: &TableDeltas, new_watermarks: &[(String, u64)]) -> Result<f64> {
        let input_rows: usize = deltas.values().map(Vec::len).sum();
        let out = self.root.apply(deltas)?;
        let output_rows = out.len();
        for (k, &w) in out.weights.iter().enumerate() {
            merge_weight(&mut self.result, out.batch.row(k), w);
        }
        for (table, wm) in new_watermarks {
            self.watermarks.insert(table.clone(), *wm);
        }
        let sim_ms = self.watermarks.len() as f64 * IVM_PROBE_MS
            + (input_rows + output_rows) as f64 * IVM_ROW_MS;
        self.stats.refreshes += 1;
        self.stats.input_rows += input_rows as u64;
        self.stats.output_rows += output_rows as u64;
        self.stats.sim_ms += sim_ms;
        Ok(sim_ms)
    }

    /// Materialize the maintained multiset as columns in canonical
    /// (sorted-row) order: each row is read by reference, once per unit of
    /// its multiplicity, straight into the column builders.
    pub fn materialize(&self) -> Result<ColumnarBatch> {
        let mut len = 0;
        for (row, w) in &self.result {
            if *w < 0 {
                return Err(EiiError::Execution(format!(
                    "ivm: negative multiplicity {w} for row {row:?} — \
                     base change log retracted a row it never inserted"
                )));
            }
            len += *w as usize;
        }
        // `take` bounds the iterator's size hint, so the builders reserve once.
        let rows = self.result.iter().flat_map(|(row, &w)| std::iter::repeat_n(row, w as usize));
        let all: Vec<usize> = (0..self.schema.len()).collect();
        Ok(ColumnarBatch::from_rows(self.schema.clone(), &all, rows.take(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, ColumnData, DataType, Field, Value};
    use eii_expr::AggFunc;
    use eii_planner::AggItem;
    use std::sync::Arc;

    fn orders_scan() -> LogicalPlan {
        LogicalPlan::SourceScan {
            source: "sales".into(),
            table: "orders".into(),
            alias: "o".into(),
            base_schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int).not_null(),
                Field::new("customer_id", DataType::Int),
                Field::new("qty", DataType::Int),
            ])),
            pushed_filters: vec![],
            projection: None,
            limit: None,
        }
    }

    fn customers_scan() -> LogicalPlan {
        LogicalPlan::SourceScan {
            source: "crm".into(),
            table: "customers".into(),
            alias: "c".into(),
            base_schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int).not_null(),
                Field::new("region", DataType::Str),
            ])),
            pushed_filters: vec![],
            projection: None,
            limit: None,
        }
    }

    fn deltas(table: &str, rows: Vec<(Row, i64)>) -> TableDeltas {
        let mut m = TableDeltas::new();
        m.insert(table.into(), rows);
        m
    }

    #[test]
    fn scan_filter_applies_pushed_predicates_per_delta() {
        let mut plan = orders_scan();
        if let LogicalPlan::SourceScan {
            pushed_filters,
            projection,
            ..
        } = &mut plan
        {
            *pushed_filters = vec![Expr::col("qty").gt(Expr::lit(5i64))];
            *projection = Some(vec!["id".into(), "qty".into()]);
        }
        let mut state = IvmState::build(&plan, &["sales.orders".into()]).unwrap();
        state
            .apply(
                &deltas(
                    "sales.orders",
                    vec![(row![1i64, 10i64, 3i64], 1), (row![2i64, 11i64, 9i64], 1)],
                ),
                &[("sales.orders".into(), 2)],
            )
            .unwrap();
        let batch = state.materialize().unwrap().to_batch();
        assert_eq!(batch.rows(), &[row![2i64, 9i64]]);
        assert_eq!(state.watermark("sales.orders"), 2);
        // Retraction removes it again.
        state
            .apply(
                &deltas("sales.orders", vec![(row![2i64, 11i64, 9i64], -1)]),
                &[("sales.orders".into(), 3)],
            )
            .unwrap();
        assert!(state.materialize().unwrap().to_batch().is_empty());
    }

    #[test]
    fn join_is_semi_naive_and_counts_each_pair_once() {
        let plan = LogicalPlan::Join {
            left: Box::new(customers_scan()),
            right: Box::new(orders_scan()),
            kind: eii_sql::JoinKind::Inner,
            on: Some(Expr::qcol("c", "id").eq(Expr::qcol("o", "customer_id"))),
        };
        let mut state =
            IvmState::build(&plan, &["crm.customers".into(), "sales.orders".into()]).unwrap();
        // Both sides change in the same round: the pair must appear once.
        let mut d = TableDeltas::new();
        d.insert("crm.customers".into(), vec![(row![7i64, "r1"], 1)]);
        d.insert("sales.orders".into(), vec![(row![1i64, 7i64, 5i64], 1)]);
        state.apply(&d, &[]).unwrap();
        let batch = state.materialize().unwrap().to_batch();
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(batch.rows()[0], row![7i64, "r1", 1i64, 7i64, 5i64]);
        // Deleting the left row retracts the joined row.
        state
            .apply(
                &deltas("crm.customers", vec![(row![7i64, "r1"], -1)]),
                &[],
            )
            .unwrap();
        assert!(state.materialize().unwrap().to_batch().is_empty());
    }

    #[test]
    fn null_join_keys_never_match() {
        let plan = LogicalPlan::Join {
            left: Box::new(customers_scan()),
            right: Box::new(orders_scan()),
            kind: eii_sql::JoinKind::Inner,
            on: Some(Expr::qcol("c", "id").eq(Expr::qcol("o", "customer_id"))),
        };
        let mut state =
            IvmState::build(&plan, &["crm.customers".into(), "sales.orders".into()]).unwrap();
        let mut d = TableDeltas::new();
        d.insert("crm.customers".into(), vec![(row![7i64, "r1"], 1)]);
        d.insert(
            "sales.orders".into(),
            vec![
                (row![1i64, Value::Null, 5i64], 1),
                (row![2i64, 7i64, 3i64], 1),
            ],
        );
        state.apply(&d, &[]).unwrap();
        let batch = state.materialize().unwrap().to_batch();
        assert_eq!(batch.rows(), &[row![7i64, "r1", 2i64, 7i64, 3i64]]);
        // A NULL-keyed left row arrives while the NULL-keyed order would
        // still be in a naive join state: NULL must not join NULL (the
        // executor's hash join drops both).
        state
            .apply(
                &deltas("crm.customers", vec![(row![Value::Null, "rX"], 1)]),
                &[],
            )
            .unwrap();
        assert_eq!(state.materialize().unwrap().to_batch().num_rows(), 1);
        // Retracting the NULL-keyed rows is symmetric: no output change,
        // no negative multiplicities.
        let mut d = TableDeltas::new();
        d.insert("crm.customers".into(), vec![(row![Value::Null, "rX"], -1)]);
        d.insert(
            "sales.orders".into(),
            vec![(row![1i64, Value::Null, 5i64], -1)],
        );
        state.apply(&d, &[]).unwrap();
        assert_eq!(state.materialize().unwrap().to_batch().num_rows(), 1);
    }

    #[test]
    fn ambiguous_and_literal_conjuncts_stay_residual() {
        // `o.qty = 5`: the literal binds on both schemas, so the conjunct
        // must not be promoted to an equi key — it evaluates as a residual
        // predicate and still filters pairs correctly.
        let on = Expr::qcol("c", "id")
            .eq(Expr::qcol("o", "customer_id"))
            .and(Expr::qcol("o", "qty").eq(Expr::lit(5i64)));
        let plan = LogicalPlan::Join {
            left: Box::new(customers_scan()),
            right: Box::new(orders_scan()),
            kind: eii_sql::JoinKind::Inner,
            on: Some(on),
        };
        let mut state =
            IvmState::build(&plan, &["crm.customers".into(), "sales.orders".into()]).unwrap();
        let mut d = TableDeltas::new();
        d.insert("crm.customers".into(), vec![(row![7i64, "r1"], 1)]);
        d.insert(
            "sales.orders".into(),
            vec![(row![1i64, 7i64, 5i64], 1), (row![2i64, 7i64, 9i64], 1)],
        );
        state.apply(&d, &[]).unwrap();
        let batch = state.materialize().unwrap().to_batch();
        assert_eq!(batch.rows(), &[row![7i64, "r1", 1i64, 7i64, 5i64]]);
    }

    #[test]
    fn join_residual_predicates_filter_pairs() {
        let on = Expr::qcol("c", "id")
            .eq(Expr::qcol("o", "customer_id"))
            .and(Expr::qcol("o", "qty").gt(Expr::lit(10i64)));
        let plan = LogicalPlan::Join {
            left: Box::new(customers_scan()),
            right: Box::new(orders_scan()),
            kind: eii_sql::JoinKind::Inner,
            on: Some(on),
        };
        let mut state =
            IvmState::build(&plan, &["crm.customers".into(), "sales.orders".into()]).unwrap();
        let mut d = TableDeltas::new();
        d.insert("crm.customers".into(), vec![(row![7i64, "r1"], 1)]);
        d.insert(
            "sales.orders".into(),
            vec![(row![1i64, 7i64, 5i64], 1), (row![2i64, 7i64, 50i64], 1)],
        );
        state.apply(&d, &[]).unwrap();
        assert_eq!(state.materialize().unwrap().to_batch().num_rows(), 1);
    }

    fn agg_plan(func: AggFunc, arg: Option<Expr>, grouped: bool) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(orders_scan()),
            group_by: if grouped {
                vec![Expr::qcol("o", "customer_id")]
            } else {
                vec![]
            },
            aggs: vec![AggItem {
                func,
                arg,
                distinct: false,
                name: "agg".into(),
            }],
        }
    }

    #[test]
    fn global_aggregate_over_zero_rows_emits_default_row() {
        let mut state = IvmState::build(
            &agg_plan(AggFunc::CountStar, None, false),
            &["sales.orders".into()],
        )
        .unwrap();
        state.apply(&TableDeltas::new(), &[]).unwrap();
        let batch = state.materialize().unwrap().to_batch();
        assert_eq!(batch.rows(), &[row![0i64]]);
        // Sum over zero rows would be NULL.
        let mut sum = IvmState::build(
            &agg_plan(AggFunc::Sum, Some(Expr::qcol("o", "qty")), false),
            &["sales.orders".into()],
        )
        .unwrap();
        sum.apply(&TableDeltas::new(), &[]).unwrap();
        assert_eq!(sum.materialize().unwrap().to_batch().rows(), &[row![Value::Null]]);
    }

    #[test]
    fn grouped_count_and_sum_track_inserts_updates_deletes() {
        let mut state = IvmState::build(
            &agg_plan(AggFunc::Sum, Some(Expr::qcol("o", "qty")), true),
            &["sales.orders".into()],
        )
        .unwrap();
        state
            .apply(
                &deltas(
                    "sales.orders",
                    vec![
                        (row![1i64, 7i64, 5i64], 1),
                        (row![2i64, 7i64, 3i64], 1),
                        (row![3i64, 8i64, 10i64], 1),
                    ],
                ),
                &[],
            )
            .unwrap();
        assert_eq!(
            state.materialize().unwrap().to_batch().rows(),
            &[row![7i64, 8i64], row![8i64, 10i64]]
        );
        // Update order 2's qty 3 -> 30 (retract + insert).
        state
            .apply(
                &deltas(
                    "sales.orders",
                    vec![(row![2i64, 7i64, 3i64], -1), (row![2i64, 7i64, 30i64], 1)],
                ),
                &[],
            )
            .unwrap();
        assert_eq!(
            state.materialize().unwrap().to_batch().rows(),
            &[row![7i64, 35i64], row![8i64, 10i64]]
        );
        // Delete the whole group 8.
        state
            .apply(
                &deltas("sales.orders", vec![(row![3i64, 8i64, 10i64], -1)]),
                &[],
            )
            .unwrap();
        assert_eq!(state.materialize().unwrap().to_batch().rows(), &[row![7i64, 35i64]]);
    }

    #[test]
    fn min_max_recompute_on_retract() {
        let mut state = IvmState::build(
            &agg_plan(AggFunc::Max, Some(Expr::qcol("o", "qty")), true),
            &["sales.orders".into()],
        )
        .unwrap();
        state
            .apply(
                &deltas(
                    "sales.orders",
                    vec![
                        (row![1i64, 7i64, 5i64], 1),
                        (row![2i64, 7i64, 9i64], 1),
                        (row![3i64, 7i64, 2i64], 1),
                    ],
                ),
                &[],
            )
            .unwrap();
        assert_eq!(state.materialize().unwrap().to_batch().rows(), &[row![7i64, 9i64]]);
        // Retract the maximum: the group rescans and finds 5.
        state
            .apply(
                &deltas("sales.orders", vec![(row![2i64, 7i64, 9i64], -1)]),
                &[],
            )
            .unwrap();
        assert_eq!(state.materialize().unwrap().to_batch().rows(), &[row![7i64, 5i64]]);
    }

    #[test]
    fn avg_matches_executor_null_semantics() {
        let mut state = IvmState::build(
            &agg_plan(AggFunc::Avg, Some(Expr::qcol("o", "qty")), true),
            &["sales.orders".into()],
        )
        .unwrap();
        state
            .apply(
                &deltas(
                    "sales.orders",
                    vec![
                        (row![1i64, 7i64, 4i64], 1),
                        (row![2i64, 7i64, Value::Null], 1),
                        (row![3i64, 7i64, 8i64], 1),
                    ],
                ),
                &[],
            )
            .unwrap();
        // NULL qty is skipped: AVG = (4+8)/2.
        assert_eq!(state.materialize().unwrap().to_batch().rows(), &[row![7i64, 6.0f64]]);
    }

    #[test]
    fn materialize_pivots_the_multiset_into_typed_columns() {
        let mut state = IvmState::build(&customers_scan(), &["crm.customers".into()]).unwrap();
        let rows = vec![
            (row![7i64, "r1"], 2),
            (row![3i64, Value::Null], 1),
            (row![5i64, "r0"], 1),
        ];
        state.apply(&deltas("crm.customers", rows), &[]).unwrap();
        let image = state.materialize().unwrap();
        assert!(matches!(image.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(image.column(1).data(), ColumnData::Str { .. }));
        assert_eq!(
            image.to_batch().rows(),
            &[row![3i64, Value::Null], row![5i64, "r0"], row![7i64, "r1"], row![7i64, "r1"]]
        );
        // A retraction of a row never inserted leaves a negative multiplicity.
        let never = vec![(row![9i64, "r9"], -1)];
        state.apply(&deltas("crm.customers", never), &[]).unwrap();
        assert_eq!(state.materialize().unwrap_err().kind(), "execution");
    }

    #[test]
    fn stats_scale_with_delta_not_result() {
        let plan = orders_scan();
        let mut state = IvmState::build(&plan, &["sales.orders".into()]).unwrap();
        let big: Vec<(Row, i64)> = (0..100i64).map(|i| (row![i, i, i], 1)).collect();
        state.apply(&deltas("sales.orders", big), &[]).unwrap();
        let bootstrap = state.stats();
        assert_eq!(bootstrap.input_rows, 100);
        let one = state
            .apply(
                &deltas("sales.orders", vec![(row![200i64, 0i64, 0i64], 1)]),
                &[],
            )
            .unwrap();
        assert!(one < 1.0, "single-row delta must be cheap, got {one}");
        assert_eq!(state.stats().input_rows, 101);
        assert_eq!(state.materialize().unwrap().to_batch().num_rows(), 101);
    }
}
