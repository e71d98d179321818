//! The physical-plan interpreter.
//!
//! One representation flows from the source edge to the result edge:
//! [`ColumnarBatch`]. A component fetch, a fallback snapshot and a
//! materialized-view read all arrive as columns; the one pivot to rows is
//! where the answer leaves ([`Executor::run`]), the one pivot from rows the
//! literal rows of a `VALUES` list. Shipments of an at-source join are priced
//! over the columns they are.
//!
//! Between plan nodes the columns travel as [`Chunks`], the list of chunks the
//! node below emitted, handed on as it is (a union appends lists, a rename
//! re-tags, a limit truncates); a sort, a join's build side, a shipment and a
//! view scan's column pick ask for their whole input with `into_one`. One
//! thing travels the other way, a [`Demand`] (`Executor::run_node`): a limit's
//! promise that only the first `k` rows will be read, down to the sort that can
//! use it; an aggregate's or projection's that only some columns will, down to
//! the join that then copies no other.
//!
//! One function talks to sources: [`Executor::fetch`]. Every operator that
//! needs a component query answered — a scan, a bind join, an adaptive
//! re-plan, the at-site child of an assembly-site join — goes through it, so
//! hedging, abort-vs-degrade and the fallback snapshot are decided in one
//! place.
//!
//! A statement runs on the thread that called [`Executor::execute`]. A plan
//! node's `parallel` flag is the planner's statement that its children's
//! requests are in flight together: their costs compose with
//! [`QueryCost::alongside`], and every child's request is issued before any
//! result is read. The children themselves are evaluated in plan order.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eii_data::keys::KeyTable;
use eii_data::{
    Batch, Column, ColumnBuilder, ColumnarBatch, EiiError, Result, Schema, SchemaRef, Value,
};
use eii_expr::{bind, eval_column, referenced_columns, BoundExpr, Expr};
use eii_federation::{
    Delivery, Federation, HedgeOutcome, QueryCost, RequestCtx, SourceHandle, SourceQuery,
};
use eii_obs::MetricsRegistry;
use eii_planner::{CardinalityFeedback, CostModel, JoinSite, PhysicalPlan};
use eii_sql::JoinKind;

use crate::cache::{adapt_batch, SnapshotStore};
use crate::degrade::{degrade, DegradationPolicy, SourceReport};
use crate::profile::OperatorProfile;
use crate::vector::{
    drive, sort_batch, BatchOperator, Chunks, ColumnPick, VecAggregate, VecFilter, VecHashJoin,
    VecProject,
};

/// Simulated ms to open a local materialization (mirrors the planner's
/// estimate for the chosen `MatViewScan` alternative).
const MATVIEW_OPEN_MS: f64 = 0.05;

/// When and how the executor hedges a source fetch: once a source's observed
/// mean per-request latency crosses `threshold_ms`, plain scans against it
/// issue a deterministic backup request `delay_ms` (simulated) after the
/// primary and answer with whichever returns first on the virtual timeline
/// ([`eii_federation::SourceHandle::query_hedged`]). Hedging trades bytes
/// for tail latency: the loser's traffic is still charged in full.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Observed mean per-request latency (simulated ms) above which fetches
    /// from a source are hedged.
    pub threshold_ms: f64,
    /// How long after the primary the backup fires, simulated ms.
    pub delay_ms: f64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            threshold_ms: 50.0,
            delay_ms: 5.0,
        }
    }
}

/// Adaptive re-planning policy: at a hub hash join boundary, the executor
/// runs the probe (left) side first, compares its observed cardinality to
/// the feedback-corrected estimate, and when they diverge by more than
/// `factor` re-enters the plan for the remaining subtree — the build-side
/// scan is re-issued as a binding-filtered fetch (only rows matching an
/// observed probe key ship), which is answer-preserving for inner
/// equi-joins: build rows whose key matches no probe key can never reach
/// the output, and the filter keeps the survivors in scan order.
///
/// With a policy attached, eligible joins' sides are costed one after the
/// other (the probe side must answer before the decision); expect different
/// simulated timings — but byte-identical answers — versus the parallel default.
#[derive(Clone)]
pub struct ReplanPolicy {
    /// Cross-query cardinality corrections consulted for the estimate.
    pub feedback: Arc<CardinalityFeedback>,
    /// Divergence factor (in either direction) that triggers adaptation.
    pub factor: f64,
}

impl ReplanPolicy {
    /// Policy over a feedback store with the default 4x divergence factor.
    pub fn new(feedback: Arc<CardinalityFeedback>) -> Self {
        ReplanPolicy {
            feedback,
            factor: 4.0,
        }
    }
}

/// Errors that must abort the query rather than be absorbed by the
/// degradation policy: the caller cancelled, the scheduler shed the query,
/// or the deadline ran out — serving a stale snapshot then would be lying.
fn is_abortive(err: &EiiError) -> bool {
    matches!(err.kind(), "cancelled" | "deadline" | "shed")
}

/// The result of executing a plan: rows, simulated cost, and real wall time.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub batch: Batch,
    /// Simulated cost (network + source + hub work).
    pub cost: QueryCost,
    /// Real elapsed time of the interpreter.
    pub wall: Duration,
    /// Sources that could not answer live, one entry per degraded
    /// component query. Empty when every answer was live and complete.
    pub degraded: Vec<SourceReport>,
    /// Per-operator actuals mirroring the plan tree; `None` when the
    /// executor ran with instrumentation disabled.
    pub profile: Option<OperatorProfile>,
    /// True when at least one source fetch fired a hedged backup request
    /// during this execution (see [`Executor::with_hedging`]).
    pub hedged: bool,
}

impl QueryResult {
    /// True when every source answered live (nothing stale or dropped).
    pub fn fully_live(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// What one operator hands the next: the chunks it emitted and the simulated
/// cost of producing them (its whole subtree).
type Output = (Chunks, QueryCost);

/// What a consumer tells the node below about how it will read its output. A
/// permission, not an obligation: a node that ignores it returns all its rows
/// and columns, and nothing above can tell.
#[derive(Clone, Copy)]
struct Demand<'a> {
    /// `Some(k)`: only the first `k` rows are read.
    first: Option<usize>,
    /// `Some(cols)`: only these columns of the node's `schema()`, ascending.
    columns: Option<&'a [usize]>,
}

impl Demand<'_> {
    /// Every row, every column.
    const ALL: Demand<'static> = Demand { first: None, columns: None };
}

/// The columns of `schema` that `exprs` read, and `also`, ascending. `None`
/// when a reference is missing or ambiguous in `schema`: then nothing may be
/// narrowed, and the `bind` that follows reports it as it always has.
fn columns_read<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    schema: &Schema,
    also: &[usize],
) -> Option<Vec<usize>> {
    let mut cols: BTreeSet<usize> = also.iter().copied().collect();
    for column in exprs.into_iter().flat_map(referenced_columns) {
        cols.insert(schema.index_of(column.relation.as_deref(), &column.name).ok()?);
    }
    Some(cols.into_iter().collect())
}

/// What one finished operator measured; keyed by its path from the plan
/// root (child indexes), from which the profile tree is reassembled.
struct OpRecord {
    path: Vec<usize>,
    rows: usize,
    width: usize,
    cost: QueryCost,
    wall: Duration,
}

/// What one execution notes on its way through the plan, keyed by operator
/// path where it flags an operator of the profile.
#[derive(Default)]
struct RunNotes {
    degraded: Vec<SourceReport>,
    ops: Vec<OpRecord>,
    /// Hedge outcomes of this run's fetches, by the operator that issued them.
    hedges: BTreeMap<Vec<usize>, HedgeOutcome>,
    /// Operators this run adapted, for `[REPLANNED]` provenance.
    replans: BTreeSet<Vec<usize>>,
    /// The sorts this run bounded, with the `k` rows each was asked to
    /// establish, for `[TOP k]` provenance.
    bounded_sorts: BTreeMap<Vec<usize>, usize>,
}

/// Executes physical plans against a federation.
pub struct Executor<'a> {
    federation: &'a Federation,
    /// Hub-side processing cost per row touched, simulated ms.
    pub hub_ms_per_row: f64,
    degradation: DegradationPolicy,
    fallbacks: SnapshotStore,
    matviews: SnapshotStore,
    instrument: bool,
    metrics: Option<MetricsRegistry>,
    /// Rows per chunk pushed through an operator; 0 = the
    /// [`crate::vector::DEFAULT_BATCH_SIZE`] default.
    batch_size: usize,
    /// The request context (deadline budget, cancel token, trace ID) every
    /// node boundary checks and every fetch runs under.
    base_ctx: RequestCtx,
    /// Tail-latency hedging policy for plain source scans, when enabled.
    hedge: Option<HedgePolicy>,
    /// Adaptive re-planning policy, when enabled (see [`ReplanPolicy`]).
    replan: Option<ReplanPolicy>,
    /// The running statement's notes; `execute` takes them when it ends.
    notes: RefCell<RunNotes>,
}

impl<'a> Executor<'a> {
    /// New executor with the default hub speed (matching the cost model).
    /// Per-operator instrumentation is on; E14 measures it under 5%
    /// overhead, so it stays on unless an experiment turns it off.
    pub fn new(federation: &'a Federation) -> Self {
        Executor {
            federation,
            hub_ms_per_row: 0.0005,
            degradation: DegradationPolicy::Fail,
            fallbacks: SnapshotStore::new(),
            matviews: SnapshotStore::new(),
            instrument: true,
            metrics: None,
            batch_size: 0,
            base_ctx: RequestCtx::new(),
            hedge: None,
            replan: None,
            notes: RefCell::default(),
        }
    }

    /// Attach the request context every source interaction runs under: its
    /// deadline shrinks as fetches are charged against it, and its cancel
    /// token stops the plan at the next operator or batch boundary.
    pub fn with_request_ctx(mut self, ctx: RequestCtx) -> Self {
        self.base_ctx = ctx;
        self
    }

    /// Enable tail-latency hedging for plain source scans.
    pub fn with_hedging(mut self, policy: HedgePolicy) -> Self {
        self.hedge = Some(policy);
        self
    }

    /// Enable adaptive re-planning at hub hash-join boundaries (see
    /// [`ReplanPolicy`]). Adapted operators are flagged in the profile
    /// (`replanned`) and counted as `advisor.replans` when metrics are on.
    pub fn with_replan(mut self, policy: ReplanPolicy) -> Self {
        self.replan = Some(policy);
        self
    }

    /// Rows per chunk pushed through an operator — each chunk boundary is a
    /// cancellation/deadline checkpoint. 0 keeps the default
    /// ([`crate::vector::DEFAULT_BATCH_SIZE`]).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Enable graceful degradation: what to do when a source request fails
    /// past the federation's resilience layer, and which stale snapshots
    /// may stand in for dead sources.
    pub fn with_degradation(mut self, policy: DegradationPolicy, fallbacks: SnapshotStore) -> Self {
        self.degradation = policy;
        self.fallbacks = fallbacks;
        self
    }

    /// Attach the materialized-view store that `MatViewScan` operators
    /// (substituted by the planner's rewrite pass) are served from.
    pub fn with_matviews(mut self, matviews: SnapshotStore) -> Self {
        self.matviews = matviews;
        self
    }

    /// Record query/operator metrics (`exec.queries`,
    /// `exec.rows_emitted.<op>`, `query.exec_sim_ms`, ...) into `metrics`
    /// after every execution.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Disable per-operator instrumentation (the uninstrumented baseline of
    /// overhead experiment E14). [`QueryResult::profile`] will be `None`.
    pub fn without_instrumentation(mut self) -> Self {
        self.instrument = false;
        self
    }

    /// Execute a plan to completion.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<QueryResult> {
        let start = Instant::now();
        let answer = self.run(plan);
        // Taken whatever the outcome: a failed run leaves the next nothing.
        let notes = self.notes.take();
        let (batch, cost) = answer?;
        let hedged = notes.hedges.values().any(|h| h.fired);
        let profile = self
            .instrument
            .then(|| assemble_profile(plan, &notes, &mut Vec::new(), self.metrics.as_ref()));
        let degraded = notes.degraded;
        let wall = start.elapsed();
        if let Some(m) = &self.metrics {
            m.inc("exec.queries");
            m.observe("query.exec_sim_ms", cost.sim_ms);
            m.observe("query.exec_wall_ms", wall.as_secs_f64() * 1000.0);
            if !degraded.is_empty() {
                m.add("exec.degraded_sources", degraded.len() as u64);
            }
        }
        Ok(QueryResult {
            batch,
            cost,
            wall,
            degraded,
            profile,
            hedged,
        })
    }

    fn cpu(&self, rows: usize) -> QueryCost {
        QueryCost {
            sim_ms: rows as f64 * self.hub_ms_per_row,
            ..QueryCost::default()
        }
    }

    /// Hedge a fetch from `source`? Only when a policy is set and the
    /// source's observed mean per-request latency has crossed its threshold.
    fn should_hedge(&self, source: &str) -> Option<HedgePolicy> {
        let policy = self.hedge?;
        let t = self.federation.ledger().traffic(source);
        if t.requests > 0 && t.sim_ms / t.requests as f64 >= policy.threshold_ms {
            Some(policy)
        } else {
            None
        }
    }

    /// The one place a component query leaves the hub and its answer comes
    /// back. A shipping fetch is hedged when [`Executor::should_hedge`] says
    /// the source looks slow (so a hedge can also rescue a transient primary
    /// failure); an abortive error ends the query; any other failure is
    /// resolved by the degradation policy — `fallback` names the query a
    /// snapshot answers (through the federation's own evaluator) and the
    /// schema of the empty stand-in for a dropped branch — and reported.
    ///
    /// The answer's columns are tagged with `ingest_as` (`None` keeps the
    /// layout the source returned). `path` is
    /// the plan node the fetch is made for; `record` says the fetch *is* that
    /// node, run outside [`Executor::run_node`], so it is measured here. The
    /// returned flag is `true` when the source answered live.
    #[allow(clippy::too_many_arguments)]
    fn fetch(
        &self,
        handle: &SourceHandle,
        query: &SourceQuery,
        delivery: Delivery,
        fallback: (&SourceQuery, &SchemaRef),
        ingest_as: Option<&SchemaRef>,
        path: &[usize],
        record: bool,
    ) -> Result<(ColumnarBatch, QueryCost, bool)> {
        let start_wall = Instant::now();
        let source = handle.connector().name();
        let ctx = &self.base_ctx;
        let hedge = match delivery {
            Delivery::Ship => self.should_hedge(source),
            Delivery::StayAtSite => None,
        };
        let answer = match hedge {
            Some(policy) => handle
                .query_hedged(query, ctx, policy.delay_ms)
                .map(|(batch, cost, outcome)| {
                    self.notes.borrow_mut().hedges.insert(path.to_vec(), outcome);
                    if let Some(m) = &self.metrics {
                        m.inc("hedge.fired");
                        if outcome.backup_won {
                            m.inc("hedge.backup_wins");
                        }
                        m.record_event(eii_obs::TelemetryEvent {
                            sim_ms: self.federation.clock().now_ms() as f64,
                            kind: "hedge.fired".to_string(),
                            source: source.to_string(),
                            trace_id: ctx.trace_id,
                            detail: format!("backup_won={}", outcome.backup_won),
                        });
                    }
                    (batch, cost)
                }),
            None => handle.fetch(query, ctx, delivery),
        };
        let (batch, cost, live) = match answer {
            Ok((batch, cost)) => (batch, cost, true),
            Err(err) if is_abortive(&err) => return Err(err),
            Err(err) => {
                let now_ms = self.federation.clock().now_ms();
                let (batch, report) = degrade(
                    self.degradation,
                    &self.fallbacks,
                    source,
                    fallback.0,
                    fallback.1,
                    now_ms,
                    err,
                )?;
                self.notes.borrow_mut().degraded.push(report);
                // A snapshot read is hub-local work: no network, no source scan.
                let cost = self.cpu(batch.num_rows());
                (batch, cost, false)
            }
        };
        let cols = match ingest_as {
            Some(schema) => batch.with_schema(schema.clone()),
            None => batch,
        };
        if record && self.instrument {
            self.notes.borrow_mut().ops.push(OpRecord {
                path: path.to_vec(),
                rows: cols.num_rows(),
                width: cols.schema().len(),
                cost,
                wall: start_wall.elapsed(),
            });
        }
        Ok((cols, cost, live))
    }

    fn run(&self, plan: &PhysicalPlan) -> Result<(Batch, QueryCost)> {
        let (cols, cost) = self.run_node(plan, Vec::new(), Demand::ALL)?;
        // The one pivot back to rows: the result edge, chunk by chunk.
        let mut rows = Vec::with_capacity(cols.num_rows());
        for chunk in cols.iter() {
            rows.extend(chunk.to_batch().into_rows());
        }
        Ok((Batch::new(cols.schema().clone(), rows), cost))
    }

    /// Run one operator, recording its measurements under its path from the
    /// plan root when instrumentation is on. Every operator boundary is a
    /// cancellation point: a cancelled, aborted, or out-of-budget query
    /// stops here instead of starting more work (chunked operators also
    /// check between chunks).
    ///
    /// `want` is the consumer's [`Demand`]. Rows: a `Limit` makes the
    /// promise, `Project` and `Rename` — the nodes that emit exactly their
    /// input rows in input order — pass it down, a `Sort` spends it
    /// ([`sort_batch`]); every other node drops, merges or multiplies rows,
    /// so it promises its children nothing. Columns: `Aggregate` and `Project`
    /// ask for what their expressions read, `Filter` and `Sort` for that and
    /// what they were asked, `Limit` for what it was asked, and a hub join
    /// emits just those (every consumer binds by name against the chunks it
    /// gets); every other node reads positionally or reads all, and asks so.
    fn run_node(&self, plan: &PhysicalPlan, path: Vec<usize>, want: Demand) -> Result<Output> {
        self.base_ctx.check()?;
        if !self.instrument {
            return self.run_inner(plan, &path, want);
        }
        let start_wall = Instant::now();
        let (cols, cost) = self.run_inner(plan, &path, want)?;
        self.notes.borrow_mut().ops.push(OpRecord {
            path,
            rows: cols.num_rows(),
            width: cols.schema().len(),
            cost,
            wall: start_wall.elapsed(),
        });
        Ok((cols, cost))
    }

    fn run_inner(&self, plan: &PhysicalPlan, path: &[usize], want: Demand) -> Result<Output> {
        let Demand { first, columns } = want;
        match plan {
            PhysicalPlan::Source {
                source,
                query,
                schema,
            } => {
                let handle = self.federation.source(source)?;
                // Tagged with the alias-qualified schema.
                let (cols, cost, _) = self.fetch(
                    &handle,
                    query,
                    Delivery::Ship,
                    (query, schema),
                    Some(schema),
                    path,
                    false,
                )?;
                Ok((cols.into(), cost))
            }
            PhysicalPlan::Values { schema, rows } => Ok((
                ColumnarBatch::from_batch(&Batch::new(schema.clone(), rows.clone())).into(),
                QueryCost::default(),
            )),
            PhysicalPlan::MatViewScan {
                name,
                schema,
                filters,
                limit,
                ..
            } => {
                let Some((stored, _)) = self.matviews.get(name) else {
                    return Err(EiiError::Execution(format!(
                        "plan scans materialized view '{name}' but the \
                         executor's store has no materialization for it"
                    )));
                };
                let scanned = stored.num_rows();
                let mut cols = Chunks::from(stored);
                // Compensating filters run over the full materialization
                // (it may hold columns the output projects away), each over
                // the survivors of the one before — a Filter over their
                // conjunction; then the survivors are reshaped to the node's
                // output columns.
                for filter in filters {
                    let pred = bind(filter, cols.schema())?;
                    cols = self.drive_op(&mut VecFilter::new(pred), &cols, cols.schema().clone())?;
                }
                let mut out = Chunks::from(adapt_batch(&cols.into_one(), schema)?);
                if let Some(n) = limit {
                    out = out.head(*n);
                }
                // Hub-local read: no network, no source scan.
                let cost = QueryCost {
                    sim_ms: MATVIEW_OPEN_MS,
                    ..QueryCost::default()
                }
                .then(self.cpu(scanned));
                Ok((out, cost))
            }
            PhysicalPlan::Filter {
                input, predicate, ..
            } => {
                let read = columns.and_then(|c| columns_read([predicate], &input.schema(), c));
                let below = Demand { first: None, columns: read.as_deref() };
                let (cols, cost) = self.run_node(input, child_path(path, 0), below)?;
                let n = cols.num_rows();
                let pred = bind(predicate, cols.schema())?;
                let out = self.drive_op(&mut VecFilter::new(pred), &cols, cols.schema().clone())?;
                Ok((out, cost.then(self.cpu(n))))
            }
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
                ..
            } => {
                let read = columns_read(exprs.iter().map(|(e, _)| e), &input.schema(), &[]);
                let below = Demand { first, columns: read.as_deref() };
                let (cols, cost) = self.run_node(input, child_path(path, 0), below)?;
                let n = cols.num_rows();
                let bound: Vec<BoundExpr> = exprs
                    .iter()
                    .map(|(e, _)| bind(e, cols.schema()))
                    .collect::<Result<_>>()?;
                let mut op = VecProject::new(bound, schema.clone());
                let out = self.drive_op(&mut op, &cols, schema.clone())?;
                Ok((out, cost.then(self.cpu(n))))
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                residual,
                site,
                parallel,
                schema,
                ..
            } => self.run_hash_join(
                left, right, left_keys, right_keys, *kind, residual, site, *parallel, schema,
                path, columns,
            ),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
                parallel,
                schema,
            } => {
                let ((lcols, lc), (rcols, rc)) = self.run_pair(left, right, *parallel, path)?;
                let children_cost = if *parallel { lc.alongside(rc) } else { lc.then(rc) };
                // No keys: every right row is a candidate for every left row.
                let rcols = rcols.into_one();
                let out = self.join(&lcols, &rcols, Vec::new(), &[], *kind, on, schema, columns)?;
                let work = lcols.num_rows() * rcols.num_rows().max(1);
                Ok((out, children_cost.then(self.cpu(work))))
            }
            PhysicalPlan::BindJoin {
                left,
                left_key,
                source,
                template,
                bind_column,
                right_schema,
                residual,
                schema,
            } => {
                let (lcols, lc) = self.run_node(left, child_path(path, 0), Demand::ALL)?;
                let key = bind(left_key, lcols.schema())?;
                let values = distinct_keys(&key, &lcols)?;
                let handle = self.federation.source(source)?;
                // Find the bind column among the returned fields, map the
                // returned columns onto the scan's output schema, and join
                // the fetched rows to the left side at the hub.
                let (fetched, rc) = if values.is_empty() {
                    (ColumnarBatch::empty(right_schema.clone()), QueryCost::default())
                } else {
                    let mut q = template.clone();
                    q.bindings = vec![(bind_column.clone(), values)];
                    let (fetched, rc, _) = self.fetch(
                        &handle,
                        &q,
                        Delivery::Ship,
                        (&q, right_schema),
                        None,
                        path,
                        false,
                    )?;
                    (fetched, rc)
                };
                let bind_idx = fetched.schema().index_of(None, bind_column)?;
                let build = adapt_batch(&fetched, right_schema)?;
                // Aligned with the live rows: a fallback snapshot's answer is
                // a selection over the snapshot.
                let build_keys = [eval_column(&BoundExpr::Column(bind_idx), &fetched)?];
                let out = self.join(
                    &lcols,
                    &build,
                    vec![key],
                    &build_keys,
                    JoinKind::Inner,
                    residual,
                    schema,
                    columns,
                )?;
                let work = lcols.num_rows() + fetched.num_rows() + out.num_rows();
                Ok((out, lc.then(rc).then(self.cpu(work))))
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
                ..
            } => {
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                let read = columns_read(group_by.iter().chain(args), &input.schema(), &[]);
                let below = Demand { first: None, columns: read.as_deref() };
                let (cols, cost) = self.run_node(input, child_path(path, 0), below)?;
                let n = cols.num_rows();
                let groups: Vec<BoundExpr> = group_by
                    .iter()
                    .map(|g| bind(g, cols.schema()))
                    .collect::<Result<_>>()?;
                let args: Vec<Option<BoundExpr>> = aggs
                    .iter()
                    .map(|a| a.arg.as_ref().map(|e| bind(e, cols.schema())).transpose())
                    .collect::<Result<_>>()?;
                let templates = aggs.iter().map(|a| (a.func, a.distinct)).collect();
                let mut op = VecAggregate::new(groups, args, templates, schema.clone());
                let out = self.drive_op(&mut op, &cols, schema.clone())?;
                Ok((out, cost.then(self.cpu(n))))
            }
            PhysicalPlan::Distinct { input } => {
                let (cols, cost) = self.run_node(input, child_path(path, 0), Demand::ALL)?;
                let n = cols.num_rows();
                // A group-by over every column with nothing to aggregate:
                // the first row of each group, in input order. (No rows are
                // no groups; a key-less aggregate would emit its global row.)
                let out = if n == 0 {
                    cols
                } else {
                    let schema = cols.schema().clone();
                    let groups = (0..schema.len()).map(BoundExpr::Column).collect();
                    let mut op = VecAggregate::new(groups, Vec::new(), Vec::new(), schema.clone());
                    self.drive_op(&mut op, &cols, schema)?
                };
                Ok((out, cost.then(self.cpu(n))))
            }
            PhysicalPlan::Sort { input, keys } => {
                let by = keys.iter().map(|(e, _)| e);
                let read = columns.and_then(|c| columns_read(by, &input.schema(), c));
                let below = Demand { first: None, columns: read.as_deref() };
                let (cols, cost) = self.run_node(input, child_path(path, 0), below)?;
                let n = cols.num_rows();
                let keys: Vec<(BoundExpr, bool)> = keys
                    .iter()
                    .map(|(e, asc)| Ok((bind(e, cols.schema())?, *asc)))
                    .collect::<Result<_>>()?;
                // A promise of everything bounds nothing.
                let first = first.filter(|&k| k < n);
                if let Some(k) = first {
                    self.notes.borrow_mut().bounded_sorts.insert(path.to_vec(), k);
                    if let Some(m) = &self.metrics {
                        m.inc("exec.sort.bounded");
                    }
                }
                let sorted = sort_batch(&cols.into_one(), &keys, first)?;
                Ok((sorted.into(), cost.then(self.cpu(n))))
            }
            PhysicalPlan::Limit { input, n } => {
                let below = Demand { first: Some(first.map_or(*n, |k| k.min(*n))), columns };
                let (cols, cost) = self.run_node(input, child_path(path, 0), below)?;
                Ok((cols.head(*n), cost))
            }
            PhysicalPlan::UnionAll {
                inputs,
                parallel,
                schema,
            } => {
                let branches = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| self.run_node(p, child_path(path, i), Demand::ALL));
                let results: Vec<Output> = if *parallel {
                    // In flight together: every branch's request is issued,
                    // and the first failure in input order is the statement's.
                    let all: Vec<Result<Output>> = branches.collect();
                    all.into_iter().collect::<Result<_>>()?
                } else {
                    branches.collect::<Result<_>>()?
                };
                let mut out = Chunks::new(schema.clone());
                let mut cost = QueryCost::default();
                for (cols, c) in results {
                    out.append(cols);
                    cost = if *parallel {
                        cost.alongside(c)
                    } else {
                        cost.then(c)
                    };
                }
                Ok((out, cost))
            }
            PhysicalPlan::Rename { input, schema } => {
                // Re-tagging is positional: every column, the rows it was asked.
                let below = Demand { first, columns: None };
                let (cols, cost) = self.run_node(input, child_path(path, 0), below)?;
                let mut out = Chunks::new(schema.clone());
                out.append(cols);
                Ok((out, cost))
            }
        }
    }

    /// Chunked drive of one operator with the run context checked at every
    /// chunk boundary.
    fn drive_op(
        &self,
        op: &mut dyn BatchOperator,
        input: &Chunks,
        out_schema: SchemaRef,
    ) -> Result<Chunks> {
        drive(op, input, out_schema, self.batch_size, || self.base_ctx.check())
    }

    /// The hub half of every join: `probe` (the left side) streams against a
    /// hash table over `build`, emitting probe order × build order. With no
    /// keys every pair is a candidate and `residual` is the whole condition.
    /// Of `schema`, an Inner/Left/Cross join gathers for its residual the
    /// columns that reads, and emits the columns `want`ed (`None`: all).
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        probe: &Chunks,
        build: &ColumnarBatch,
        probe_keys: Vec<BoundExpr>,
        build_keys: &[Arc<Column>],
        kind: JoinKind,
        residual: &Option<Expr>,
        schema: &SchemaRef,
        want: Option<&[usize]>,
    ) -> Result<Chunks> {
        let (pred, out) = if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
            // A selection of the probe chunk — nothing to narrow — whose
            // condition sees whole rows of both sides, one pair at a time.
            let both = Arc::new(probe.schema().join(build.schema()));
            (ColumnPick::new(&both, None), ColumnPick::new(schema, None))
        } else {
            let read = residual.as_ref().and_then(|r| columns_read([r], schema, &[]));
            (ColumnPick::new(schema, read), ColumnPick::new(schema, want.map(<[usize]>::to_vec)))
        };
        let residual = residual.as_ref().map(|r| bind(r, pred.schema())).transpose()?;
        let out_schema = out.schema().clone();
        let skipped = schema.len() - out_schema.len();
        if let Some(m) = self.metrics.as_ref().filter(|_| skipped > 0) {
            m.add("exec.join.columns_skipped", skipped as u64);
        }
        let mut op = VecHashJoin::new(
            build,
            build_keys,
            probe_keys,
            kind,
            residual,
            pred,
            out,
            self.batch_size,
        );
        self.drive_op(&mut op, probe, out_schema)
    }

    /// Both children of a join, left first. Under `parallel` the two requests
    /// are in flight together: the right one is issued whatever the left one
    /// answered (its ledger bytes and retries are spent), and the left error,
    /// if any, is the statement's. Otherwise a failed left ends the pair.
    fn run_pair(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        parallel: bool,
        path: &[usize],
    ) -> Result<(Output, Output)> {
        let (lp, rp) = (child_path(path, 0), child_path(path, 1));
        if parallel {
            let l = self.run_node(left, lp, Demand::ALL);
            let r = self.run_node(right, rp, Demand::ALL);
            Ok((l?, r?))
        } else {
            Ok((
                self.run_node(left, lp, Demand::ALL)?,
                self.run_node(right, rp, Demand::ALL)?,
            ))
        }
    }

    /// Adaptive re-planning hook for hub hash joins (see [`ReplanPolicy`]).
    ///
    /// Returns `Ok(None)` when the join is ineligible (no policy attached,
    /// not an inner single-key equi-join, build side not a bare source scan,
    /// or the source cannot evaluate bindings) — the caller then takes the
    /// normal parallel path. When eligible, the probe (left) side runs
    /// first; if its observed cardinality diverges from the
    /// feedback-corrected estimate by the policy's factor, the build-side
    /// scan is re-issued as a binding-filtered fetch restricted to the
    /// distinct probe keys actually observed. Either way the sides ran
    /// serially, so the serial costs come back for the caller to combine.
    fn try_adaptive_join(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        left_keys: &[Expr],
        right_keys: &[Expr],
        kind: JoinKind,
        path: &[usize],
    ) -> Result<Option<(Output, Output)>> {
        let Some(policy) = &self.replan else {
            return Ok(None);
        };
        // Only inner equi-joins on a single key pair are answer-preserving
        // under a build-side binding filter: removed build rows match no
        // probe key, so they could never reach the output.
        if !matches!(kind, JoinKind::Inner) || left_keys.len() != 1 || right_keys.len() != 1 {
            return Ok(None);
        }
        // The build side must be a bare scan we can re-issue: no existing
        // bindings (a bind join already filtered it) and no limit (a limit
        // under a new filter would keep a different set of rows).
        let PhysicalPlan::Source {
            source,
            query,
            schema,
        } = right
        else {
            return Ok(None);
        };
        if !query.bindings.is_empty() || query.limit.is_some() {
            return Ok(None);
        }
        let Expr::Column { name: bind_col, .. } = &right_keys[0] else {
            return Ok(None);
        };
        let handle = self.federation.source(source)?;
        if !handle.connector().capabilities().bindings {
            return Ok(None);
        }

        // Probe side first, serially: the adaptation decision needs its
        // actual cardinality.
        let (lcols, lc) = self.run_node(left, child_path(path, 0), Demand::ALL)?;
        let diverged = match CostModel::new(self.federation)
            .with_feedback(policy.feedback.clone())
            .estimate_physical(left)
        {
            Ok(est) => {
                let est_rows = est.rows.max(1e-9);
                let actual = (lcols.num_rows() as f64).max(1.0);
                actual / est_rows >= policy.factor || est_rows / actual >= policy.factor
            }
            // No estimate, no divergence signal: keep the planned scan.
            Err(_) => false,
        };
        if !diverged {
            let right_out = self.run_node(right, child_path(path, 1), Demand::ALL)?;
            return Ok(Some(((lcols, lc), right_out)));
        }

        // Re-plan the build side: ship only rows whose key matches a probe
        // key actually observed, in first-seen probe order.
        let lkey = bind(&left_keys[0], lcols.schema())?;
        let keys = distinct_keys(&lkey, &lcols)?;
        let mut filtered = query.clone();
        filtered.bindings = vec![(bind_col.clone(), keys)];
        let rp = child_path(path, 1);
        // Degrade against the *original* query so a dead source yields the
        // same substitute snapshot the un-adapted plan would get. The adapted
        // fetch bypasses `run_node`, so it is recorded.
        let (rcols, rc, _) = self.fetch(
            &handle,
            &filtered,
            Delivery::Ship,
            (query, schema),
            Some(schema),
            &rp,
            true,
        )?;
        self.notes.borrow_mut().replans.insert(path.to_vec());
        if let Some(m) = &self.metrics {
            m.inc("advisor.replans");
        }
        Ok(Some(((lcols, lc), (rcols.into(), rc))))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_hash_join(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        left_keys: &[Expr],
        right_keys: &[Expr],
        kind: JoinKind,
        residual: &Option<Expr>,
        site: &JoinSite,
        parallel: bool,
        schema: &SchemaRef,
        path: &[usize],
        want: Option<&[usize]>,
    ) -> Result<Output> {
        // A site join's result is priced by the columns it ships: all of them.
        let want = want.filter(|_| matches!(site, JoinSite::Hub));
        // Fetch inputs, honoring the assembly site's cost model.
        let (lcols, rcols, mut cost, result_site) = match site {
            JoinSite::Hub => {
                match self.try_adaptive_join(left, right, left_keys, right_keys, kind, path)? {
                    Some(((lcols, lc), (rcols, rc))) => (lcols, rcols, lc.then(rc), None),
                    None => {
                        let ((lcols, lc), (rcols, rc)) =
                            self.run_pair(left, right, parallel, path)?;
                        let c = if parallel { lc.alongside(rc) } else { lc.then(rc) };
                        (lcols, rcols, c, None)
                    }
                }
            }
            JoinSite::AtSource(site_name) => {
                // The child at the site scans locally and ships nothing; the
                // other child ships normally to the hub and is then
                // forwarded to the site.
                let (site_child, other_child, site_is_left) = match (left, right) {
                    (PhysicalPlan::Source { source, .. }, _) if source == site_name => {
                        (left, right, true)
                    }
                    _ => (right, left, false),
                };
                let PhysicalPlan::Source {
                    source,
                    query,
                    schema: site_schema,
                } = site_child
                else {
                    return Err(EiiError::Execution(
                        "assembly site join expects a source child at the site".into(),
                    ));
                };
                let handle = self.federation.source(source)?;
                let (site_idx, other_idx) = if site_is_left { (0, 1) } else { (1, 0) };
                // The site child bypasses `run_node` (it is queried in-place
                // at the source), so it is recorded.
                let (site_cols, site_cost, site_live) = self.fetch(
                    &handle,
                    query,
                    Delivery::StayAtSite,
                    (query, site_schema),
                    Some(site_schema),
                    &child_path(path, site_idx),
                    true,
                )?;
                let (other_cols, other_cost) =
                    self.run_node(other_child, child_path(path, other_idx), Demand::ALL)?;
                let fetch = if parallel {
                    site_cost.alongside(other_cost)
                } else {
                    site_cost.then(other_cost)
                };
                // Forwarding to the site ships the live rows. A dead site
                // degrades to a hub join: nothing is forwarded to the site
                // and the result needs no return shipment.
                // A shipment is priced as the one batch it is.
                let other_cols = other_cols.into_one();
                let (cost, result_site) = if site_live {
                    (
                        fetch.then(handle.charge_shipment(&other_cols)),
                        Some(source.clone()),
                    )
                } else {
                    (fetch, None)
                };
                if site_is_left {
                    (site_cols.into(), other_cols.into(), cost, result_site)
                } else {
                    (other_cols.into(), site_cols.into(), cost, result_site)
                }
            }
        };

        let rcols = rcols.into_one();
        let build_keys = right_keys
            .iter()
            .map(|e| eval_column(&bind(e, rcols.schema())?, &rcols))
            .collect::<Result<Vec<_>>>()?;
        let probe_keys = left_keys
            .iter()
            .map(|e| bind(e, lcols.schema()))
            .collect::<Result<_>>()?;
        let mut out =
            self.join(&lcols, &rcols, probe_keys, &build_keys, kind, residual, schema, want)?;
        // Both inputs plus the emitted rows.
        let work = lcols.num_rows() + rcols.num_rows() + out.num_rows();
        cost = cost.then(self.cpu(work));
        // At a source site, the joined result still has to reach the hub.
        if let Some(site_name) = result_site {
            let handle = self.federation.source(&site_name)?;
            let shipped = out.into_one();
            cost = cost.then(handle.charge_shipment(&shipped));
            out = shipped.into();
        }
        Ok((out, cost))
    }
}

/// The distinct non-NULL values of `key` over `cols`, in first-seen order:
/// the bindings a bind join or an adaptive re-plan ships to the source,
/// deduplicated under [`Value`]'s equality (`Int(2)` is `Float(2.0)`) by the
/// key table joins and aggregates share — chunk by chunk, nothing gathered,
/// in a table sized once for every row to be a distinct key.
fn distinct_keys(key: &BoundExpr, cols: &Chunks) -> Result<Vec<Value>> {
    let rows = cols.num_rows();
    let mut table: Option<KeyTable> = None;
    for chunk in cols.iter() {
        let keys = [eval_column(key, chunk)?];
        let n = keys[0].len();
        table
            .get_or_insert_with(|| KeyTable::new(vec![ColumnBuilder::like(&keys[0], 0)], rows))
            .intern_rows(&keys, n, true);
    }
    let distinct = table.and_then(|t| t.into_columns().pop());
    Ok(distinct.map_or_else(Vec::new, |col| (0..col.len()).map(|i| col.value(i)).collect()))
}

/// `path` extended by one child index: the address of `plan.children()[i]`.
fn child_path(path: &[usize], i: usize) -> Vec<usize> {
    let mut p = Vec::with_capacity(path.len() + 1);
    p.extend_from_slice(path);
    p.push(i);
    p
}

/// Rebuild the profile tree by walking the plan and matching each node's
/// path against the flat record list the run produced. An operator without
/// a record — a branch short-circuited by an error path, or the at-site
/// child of a degraded site join — reports zeros. Each operator's rows go to
/// its `exec.rows_emitted.<label>` counter on the way.
fn assemble_profile(
    plan: &PhysicalPlan,
    notes: &RunNotes,
    path: &mut Vec<usize>,
    metrics: Option<&MetricsRegistry>,
) -> OperatorProfile {
    let rec = notes.ops.iter().find(|r| r.path == *path);
    let rows = rec.map_or(0, |r| r.rows);
    if let Some(m) = metrics {
        m.add(plan.rows_emitted_metric(), rows as u64);
    }
    let hedge = notes.hedges.get(path.as_slice()).copied().unwrap_or_default();
    let source = match plan {
        PhysicalPlan::Source { source, .. } | PhysicalPlan::BindJoin { source, .. } => {
            Some(source.clone())
        }
        _ => None,
    };
    use PhysicalPlan::{BindJoin, HashJoin, NestedLoopJoin};
    let join = matches!(plan, HashJoin { .. } | NestedLoopJoin { .. } | BindJoin { .. });
    let children = plan
        .children()
        .into_iter()
        .enumerate()
        .map(|(i, child)| {
            path.push(i);
            let p = assemble_profile(child, notes, path, metrics);
            path.pop();
            p
        })
        .collect();
    OperatorProfile {
        label: plan.label(),
        source,
        rows,
        cost: rec.map_or_else(QueryCost::default, |r| r.cost),
        wall: rec.map_or(Duration::ZERO, |r| r.wall),
        hedged: hedge.fired,
        backup_won: hedge.backup_won,
        replanned: notes.replans.contains(path.as_slice()),
        top: notes.bounded_sorts.get(path.as_slice()).copied(),
        columns: rec.filter(|_| join).map(|r| (r.width, plan.schema().len())).filter(|(k, n)| k < n),
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{DataType, Field, Schema};

    fn keys_of(values: &[Value]) -> Vec<Value> {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let col = Arc::new(Column::from_values(values, DataType::Int));
        let batch = ColumnarBatch::new(schema, vec![col], values.len());
        // Cut anywhere, the list answers as the whole does.
        let whole = distinct_keys(&BoundExpr::Column(0), &batch.clone().into()).unwrap();
        for cut in 0..=values.len() as u32 {
            let mut list = Chunks::new(batch.schema().clone());
            list.push(batch.select((0..cut).collect()));
            list.push(batch.select((cut..values.len() as u32).collect()));
            assert_eq!(distinct_keys(&BoundExpr::Column(0), &list).unwrap(), whole);
        }
        whole
    }

    #[test]
    fn distinct_keys_are_first_seen_non_null_and_exact_past_2_53() {
        let p53 = 1i64 << 53;
        let int = Value::Int;
        // Typed integer column: raw i64s, neighbours past 2^53 stay apart.
        assert_eq!(
            keys_of(&[int(p53 + 1), Value::Null, int(7), int(p53), int(p53 + 1), int(7)]),
            [int(p53 + 1), int(7), int(p53)]
        );
        // A float turns the column Mixed: `Float(2^53)` is `Int(2^53)` and
        // neither is `Int(2^53 ± 1)`, whichever comes first.
        let f = Value::Float(p53 as f64);
        assert_eq!(
            keys_of(&[int(p53 - 1), f.clone(), int(p53), Value::Null, int(p53 + 1), f.clone()]),
            [int(p53 - 1), f, int(p53 + 1)]
        );
        assert!(keys_of(&[Value::Null, Value::Null]).is_empty());
    }
}
