//! Incremental view maintenance: delta propagation through a view's
//! operator tree.
//!
//! The engine consumes the base tables' change logs (the same logs the
//! result cache's watermark verification reads) as **weighted delta
//! batches** — z-sets of `(row, weight)` pairs where an insert carries
//! weight `+1`, a delete `-1`, and an update a retract/insert pair — and
//! pushes them through a state tree mirroring the view's optimized logical
//! plan:
//!
//! - **Scan** re-applies the scan's pushed filters and projection to each
//!   changed base row, so deltas enter the pipeline already shaped like the
//!   scan's output.
//! - **Filter / Project / Alias / UnionAll** are stateless: they distribute
//!   over weighted union row by row.
//! - **Join** (inner, semi-naive): keeps both input relations as
//!   equi-key-indexed multisets and computes
//!   `ΔL ⋈ R_old  ∪  (L_old ∪ ΔL) ⋈ ΔR`, multiplying weights. Rows whose
//!   evaluated key contains a NULL are skipped on both the probe and the
//!   state side — NULL keys never join, exactly like the executor's hash
//!   join. Non-equi conjuncts evaluate as residual predicates on the
//!   concatenated row; a join with no equi keys degenerates to nested
//!   loops.
//! - **Aggregate** keeps mergeable per-group partials (COUNT/SUM/AVG add
//!   and subtract exactly; the int-only restriction is enforced at plan
//!   time by [`eii_planner::maintain`]) and maintains MIN/MAX by
//!   compare-on-insert with **recompute-on-retract**: a retraction rescans
//!   only the affected group's retained rows. Each touched group emits a
//!   retraction of its old output row and an insertion of the new one.
//!
//! The maintained view is a canonical multiset (`BTreeMap<Row, i64>`)
//! materialized into columns in sorted row order, so same-seed runs are
//! bit-identical and the IVM ≡ full-recompute property is checkable by
//! sorting the recomputed batch. Refresh cost is charged in simulated time as
//! [`IVM_PROBE_MS`] per base table plus [`IVM_ROW_MS`] per delta row — it
//! scales with the change, not the data (experiment E19 gates this).

use std::collections::BTreeMap;

use eii_data::{ColumnarBatch, EiiError, Result, Row, Schema, SchemaRef, Value};
use eii_expr::{bind, AggFunc, BoundExpr, Expr};
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

/// Merge `(row, weight)` into a multiset, dropping zero-weight entries.
fn merge_weight(map: &mut BTreeMap<Row, i64>, row: Row, w: i64) {
    use std::collections::btree_map::Entry;
    if w == 0 {
        return;
    }
    match map.entry(row) {
        Entry::Occupied(mut o) => {
            *o.get_mut() += w;
            if *o.get() == 0 {
                o.remove();
            }
        }
        Entry::Vacant(v) => {
            v.insert(w);
        }
    }
}

/// One aggregate's mergeable partial state within a group.
#[derive(Debug, Clone)]
enum Partial {
    CountStar,
    Count { non_null: i64 },
    Sum { total: i64, non_null: i64 },
    Avg { total: i64, non_null: i64 },
    Min { current: Option<Value> },
    Max { current: Option<Value> },
}

impl Partial {
    fn new(func: AggFunc, has_arg: bool) -> Partial {
        match func {
            AggFunc::CountStar => Partial::CountStar,
            AggFunc::Count if !has_arg => Partial::CountStar,
            AggFunc::Count => Partial::Count { non_null: 0 },
            AggFunc::Sum => Partial::Sum {
                total: 0,
                non_null: 0,
            },
            AggFunc::Avg => Partial::Avg {
                total: 0,
                non_null: 0,
            },
            AggFunc::Min => Partial::Min { current: None },
            AggFunc::Max => Partial::Max { current: None },
        }
    }
}

/// One aggregate's compiled spec: the function plus its bound argument.
#[derive(Debug)]
struct AggSpec {
    func: AggFunc,
    arg: Option<BoundExpr>,
}

/// Per-group maintenance state.
#[derive(Debug, Default)]
struct GroupState {
    /// Retained input rows with weights — the multiset MIN/MAX rescans on
    /// retraction.
    rows: BTreeMap<Row, i64>,
    /// Sum of weights: the group's row count (`COUNT(*)`).
    weight: i64,
    partials: Vec<Partial>,
}

impl GroupState {
    fn new(specs: &[AggSpec]) -> GroupState {
        GroupState {
            rows: BTreeMap::new(),
            weight: 0,
            partials: specs
                .iter()
                .map(|s| Partial::new(s.func, s.arg.is_some()))
                .collect(),
        }
    }

    /// The group's output values in agg-item order (mirrors
    /// `eii_exec::agg::GroupedAgg::finish`).
    fn finish(&self) -> Vec<Value> {
        self.partials
            .iter()
            .map(|p| match p {
                Partial::CountStar => Value::Int(self.weight),
                Partial::Count { non_null } => Value::Int(*non_null),
                Partial::Sum { total, non_null } => {
                    if *non_null == 0 {
                        Value::Null
                    } else {
                        Value::Int(*total)
                    }
                }
                Partial::Avg { total, non_null } => {
                    if *non_null == 0 {
                        Value::Null
                    } else {
                        Value::Float(*total as f64 / *non_null as f64)
                    }
                }
                Partial::Min { current } | Partial::Max { current } => {
                    current.clone().unwrap_or(Value::Null)
                }
            })
            .collect()
    }
}

/// The operator state tree.
#[derive(Debug)]
enum OpState {
    /// Leaf: deltas of one base table, filtered and projected like the
    /// scan.
    Scan {
        qualified: String,
        filters: Vec<BoundExpr>,
        projection: Option<Vec<usize>>,
    },
    Filter {
        input: Box<OpState>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<OpState>,
        exprs: Vec<BoundExpr>,
    },
    /// Alias nodes requalify the schema but leave row values untouched.
    Pass { input: Box<OpState> },
    Union { inputs: Vec<OpState> },
    Join {
        left: Box<OpState>,
        right: Box<OpState>,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        residual: Vec<BoundExpr>,
        left_rows: BTreeMap<Vec<Value>, BTreeMap<Row, i64>>,
        right_rows: BTreeMap<Vec<Value>, BTreeMap<Row, i64>>,
    },
    Aggregate {
        input: Box<OpState>,
        group_exprs: Vec<BoundExpr>,
        specs: Vec<AggSpec>,
        groups: BTreeMap<Vec<Value>, GroupState>,
        /// Global (no GROUP BY) aggregates emit one default row over zero
        /// input rows; the group is seeded (and its default output
        /// emitted) on the first apply.
        global: bool,
        initialized: bool,
    },
}

fn build(plan: &LogicalPlan) -> Result<OpState> {
    match plan {
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
                return Err(EiiError::Plan(
                    "ivm: scan-level LIMIT is not incrementalizable".into(),
                ));
            }
            let filters = bind_all(pushed_filters, base_schema)?;
            let projection = projection
                .as_ref()
                .map(|cols| {
                    cols.iter()
                        .map(|c| base_schema.index_of(None, c))
                        .collect::<Result<Vec<_>>>()
                })
                .transpose()?;
            Ok(OpState::Scan {
                qualified: format!("{source}.{table}"),
                filters,
                projection,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let schema = input.schema()?;
            Ok(OpState::Filter {
                predicate: bind(predicate, &schema)?,
                input: Box::new(build(input)?),
            })
        }
        LogicalPlan::Project { input, exprs } => {
            let schema = input.schema()?;
            let bound = exprs
                .iter()
                .map(|(e, _)| bind(e, &schema))
                .collect::<Result<Vec<_>>>()?;
            Ok(OpState::Project {
                input: Box::new(build(input)?),
                exprs: bound,
            })
        }
        LogicalPlan::Alias { input, .. } => Ok(OpState::Pass {
            input: Box::new(build(input)?),
        }),
        LogicalPlan::UnionAll { inputs } => Ok(OpState::Union {
            inputs: inputs.iter().map(build).collect::<Result<Vec<_>>>()?,
        }),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            if *kind != eii_sql::JoinKind::Inner {
                return Err(EiiError::Plan(format!(
                    "ivm: {kind} is not incrementalizable"
                )));
            }
            // Keyed and residual exactly as the executor's join is.
            let (lschema, rschema) = (left.schema()?, right.schema()?);
            let (left_keys, right_keys, residual) = split_join_on(on.as_ref(), &lschema, &rschema);
            Ok(OpState::Join {
                left: Box::new(build(left)?),
                right: Box::new(build(right)?),
                left_keys: bind_all(&left_keys, &lschema)?,
                right_keys: bind_all(&right_keys, &rschema)?,
                residual: bind_all(&residual, &Schema::join(&lschema, &rschema))?,
                left_rows: BTreeMap::new(),
                right_rows: BTreeMap::new(),
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let schema = input.schema()?;
            let group_exprs = bind_all(group_by, &schema)?;
            let specs = aggs
                .iter()
                .map(|a| {
                    if a.distinct {
                        return Err(EiiError::Plan(
                            "ivm: DISTINCT aggregates are not incrementalizable".into(),
                        ));
                    }
                    Ok(AggSpec {
                        func: a.func,
                        arg: a.arg.as_ref().map(|x| bind(x, &schema)).transpose()?,
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(OpState::Aggregate {
                input: Box::new(build(input)?),
                group_exprs,
                specs,
                groups: BTreeMap::new(),
                global: group_by.is_empty(),
                initialized: false,
            })
        }
        LogicalPlan::Values { .. }
        | LogicalPlan::MatViewScan { .. }
        | LogicalPlan::Distinct { .. }
        | LogicalPlan::Sort { .. }
        | LogicalPlan::Limit { .. } => Err(EiiError::Plan(format!(
            "ivm: operator is not incrementalizable:\n{}",
            plan.display()
        ))),
    }
}

fn bind_all(exprs: &[Expr], schema: &Schema) -> Result<Vec<BoundExpr>> {
    exprs.iter().map(|e| bind(e, schema)).collect()
}

fn eval_keys(keys: &[BoundExpr], row: &Row) -> Result<Vec<Value>> {
    keys.iter().map(|k| k.eval(row)).collect()
}

/// Evaluate a join-key vector; `None` when any component is NULL. NULL
/// keys never join (mirroring the executor's hash join), so NULL-keyed
/// rows are neither probed nor retained in the join state — a later
/// retraction of such a row evaluates to `None` again and is skipped
/// symmetrically.
fn eval_join_key(keys: &[BoundExpr], row: &Row) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = k.eval(row)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

impl OpState {
    fn apply(&mut self, deltas: &TableDeltas) -> Result<Vec<(Row, i64)>> {
        match self {
            OpState::Scan {
                qualified,
                filters,
                projection,
            } => {
                let mut out = Vec::new();
                if let Some(rows) = deltas.get(qualified) {
                    'row: for (row, w) in rows {
                        for f in filters.iter() {
                            if !f.eval_predicate(row)? {
                                continue 'row;
                            }
                        }
                        let shaped = match projection {
                            Some(idx) => row.project(idx),
                            None => row.clone(),
                        };
                        out.push((shaped, *w));
                    }
                }
                Ok(out)
            }
            OpState::Filter { input, predicate } => {
                let mut out = Vec::new();
                for (row, w) in input.apply(deltas)? {
                    if predicate.eval_predicate(&row)? {
                        out.push((row, w));
                    }
                }
                Ok(out)
            }
            OpState::Project { input, exprs } => {
                let mut out = Vec::new();
                for (row, w) in input.apply(deltas)? {
                    let values = exprs
                        .iter()
                        .map(|e| e.eval(&row))
                        .collect::<Result<Vec<_>>>()?;
                    out.push((Row::new(values), w));
                }
                Ok(out)
            }
            OpState::Pass { input } => input.apply(deltas),
            OpState::Union { inputs } => {
                let mut out = Vec::new();
                for input in inputs {
                    out.extend(input.apply(deltas)?);
                }
                Ok(out)
            }
            OpState::Join {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                left_rows,
                right_rows,
            } => {
                let dl = left.apply(deltas)?;
                let dr = right.apply(deltas)?;
                let mut out = Vec::new();
                let emit = |lrow: &Row,
                            lw: i64,
                            rrow: &Row,
                            rw: i64,
                            out: &mut Vec<(Row, i64)>|
                 -> Result<()> {
                    let joined = lrow.concat(rrow);
                    for pred in residual.iter() {
                        if !pred.eval_predicate(&joined)? {
                            return Ok(());
                        }
                    }
                    out.push((joined, lw * rw));
                    Ok(())
                };
                // ΔL ⋈ R_old
                for (lrow, lw) in &dl {
                    let Some(key) = eval_join_key(left_keys, lrow)? else {
                        continue; // NULL keys never join.
                    };
                    if let Some(matches) = right_rows.get(&key) {
                        for (rrow, rw) in matches {
                            emit(lrow, *lw, rrow, *rw, &mut out)?;
                        }
                    }
                }
                // L becomes L_old ∪ ΔL before the right delta joins, so
                // ΔL ⋈ ΔR is counted exactly once (semi-naive). Buckets
                // whose multiset empties are removed on the spot — only
                // keys this delta touched, never a full state sweep.
                for (lrow, lw) in dl {
                    let Some(key) = eval_join_key(left_keys, &lrow)? else {
                        continue;
                    };
                    let bucket = left_rows.entry(key.clone()).or_default();
                    merge_weight(bucket, lrow, lw);
                    if bucket.is_empty() {
                        left_rows.remove(&key);
                    }
                }
                // L_new ⋈ ΔR
                for (rrow, rw) in &dr {
                    let Some(key) = eval_join_key(right_keys, rrow)? else {
                        continue;
                    };
                    if let Some(matches) = left_rows.get(&key) {
                        for (lrow, lw) in matches {
                            emit(lrow, *lw, rrow, *rw, &mut out)?;
                        }
                    }
                }
                for (rrow, rw) in dr {
                    let Some(key) = eval_join_key(right_keys, &rrow)? else {
                        continue;
                    };
                    let bucket = right_rows.entry(key.clone()).or_default();
                    merge_weight(bucket, rrow, rw);
                    if bucket.is_empty() {
                        right_rows.remove(&key);
                    }
                }
                Ok(out)
            }
            OpState::Aggregate {
                input,
                group_exprs,
                specs,
                groups,
                global,
                initialized,
            } => {
                let delta = input.apply(deltas)?;
                let mut out = Vec::new();
                if *global && !*initialized {
                    // Zero input rows still produce one output row
                    // (COUNT(*)=0, SUM/AVG/MIN/MAX=NULL), matching the
                    // executor's empty-input behavior.
                    let group = groups.entry(Vec::new()).or_insert_with(|| GroupState::new(specs));
                    out.push((Row::new(group.finish()), 1));
                }
                *initialized = true;
                // Bucket the delta per group key.
                let mut touched: BTreeMap<Vec<Value>, Vec<(Row, i64)>> = BTreeMap::new();
                for (row, w) in delta {
                    let key = eval_keys(group_exprs, &row)?;
                    touched.entry(key).or_default().push((row, w));
                }
                for (key, rows) in touched {
                    let existed = groups.contains_key(&key);
                    let group = groups.entry(key.clone()).or_insert_with(|| GroupState::new(specs));
                    let old = existed.then(|| {
                        let mut values = key.clone();
                        values.extend(group.finish());
                        Row::new(values)
                    });
                    let mut rescan: Vec<usize> = Vec::new();
                    for (row, w) in &rows {
                        group.weight += w;
                        for (i, spec) in specs.iter().enumerate() {
                            let value = match &spec.arg {
                                Some(arg) => Some(arg.eval(row)?),
                                None => None,
                            };
                            apply_partial(&mut group.partials[i], value, *w, i, &mut rescan)?;
                        }
                        merge_weight(&mut group.rows, row.clone(), *w);
                    }
                    // Recompute-on-retract: a retraction may have removed
                    // the extremum; rescan this group's retained rows only.
                    rescan.sort_unstable();
                    rescan.dedup();
                    for i in rescan {
                        let arg = specs[i].arg.as_ref().expect("min/max carries an arg");
                        let mut current: Option<Value> = None;
                        let is_min = matches!(group.partials[i], Partial::Min { .. });
                        for row in group.rows.keys() {
                            let v = arg.eval(row)?;
                            if v == Value::Null {
                                continue;
                            }
                            let better = match &current {
                                None => true,
                                Some(c) => {
                                    if is_min {
                                        v < *c
                                    } else {
                                        v > *c
                                    }
                                }
                            };
                            if better {
                                current = Some(v);
                            }
                        }
                        match &mut group.partials[i] {
                            Partial::Min { current: c } | Partial::Max { current: c } => {
                                *c = current;
                            }
                            _ => unreachable!("rescan targets only MIN/MAX"),
                        }
                    }
                    let alive = group.weight != 0 || (*global && key.is_empty());
                    let new = alive.then(|| {
                        let mut values = key.clone();
                        values.extend(group.finish());
                        Row::new(values)
                    });
                    if old != new {
                        if let Some(old) = old {
                            out.push((old, -1));
                        }
                        if let Some(new) = new {
                            out.push((new, 1));
                        }
                    }
                    if !alive {
                        groups.remove(&key);
                    }
                }
                Ok(out)
            }
        }
    }
}

/// Fold one weighted value into a partial; MIN/MAX retractions of non-null
/// values enqueue the spec index for a group rescan.
fn apply_partial(
    partial: &mut Partial,
    value: Option<Value>,
    w: i64,
    spec_index: usize,
    rescan: &mut Vec<usize>,
) -> Result<()> {
    match partial {
        Partial::CountStar => {}
        Partial::Count { non_null } => {
            if !matches!(value, Some(Value::Null) | None) {
                *non_null += w;
            }
        }
        Partial::Sum { total, non_null } | Partial::Avg { total, non_null } => match value {
            Some(Value::Null) | None => {}
            Some(Value::Int(i)) => {
                *total = total.wrapping_add(i.wrapping_mul(w));
                *non_null += w;
            }
            Some(other) => {
                return Err(EiiError::Execution(format!(
                    "ivm: SUM/AVG partial over non-integer value {other} \
                     (plan-time validation should have fallen back)"
                )))
            }
        },
        Partial::Min { current } => match value {
            Some(Value::Null) | None => {}
            Some(v) if w > 0 => {
                if current.as_ref().is_none_or(|c| v < *c) {
                    *current = Some(v);
                }
            }
            Some(_) => rescan.push(spec_index),
        },
        Partial::Max { current } => match value {
            Some(Value::Null) | None => {}
            Some(v) if w > 0 => {
                if current.as_ref().is_none_or(|c| v > *c) {
                    *current = Some(v);
                }
            }
            Some(_) => rescan.push(spec_index),
        },
    }
    Ok(())
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
        for (row, w) in out {
            merge_weight(&mut self.result, row, w);
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
    use eii_data::{row, ColumnData, DataType, Field};
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
        assert!(matches!(image.column(1).data(), ColumnData::Str(_)));
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
