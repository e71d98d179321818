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
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use eii_data::keys::KeyTable;
use eii_data::{
    Batch, Column, ColumnBuilder, ColumnarBatch, DataType, EiiError, Result, Schema, SchemaRef,
};
use eii_expr::{bind, eval_column, referenced_columns, BoundExpr, Expr};
use eii_federation::{
    Binding, Delivery, Federation, HedgeOutcome, QueryCost, RequestCtx, SourceHandle, SourceQuery,
};
use eii_obs::{Counter, Histogram, MetricsRegistry};
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
    /// Bytes this execution's own fetches and shipments moved, by source
    /// (named as the ledger charges them), sorted by name, no zero entries:
    /// exact under concurrent sessions, whose traffic is not in it.
    pub shipped: Vec<(String, usize)>,
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

/// An operator that is running: where its children's profiles begin in
/// [`RunNotes::closed`], when it started, and what the run has noted about it
/// so far — the source its fetch asked and what it hedged, whether it is a
/// join the run adapted, `Some(k)` on a sort the run bounded to its first `k`.
struct Open {
    first_child: usize,
    start: Instant,
    source: Option<Arc<str>>,
    hedge: HedgeOutcome,
    replanned: bool,
    top: Option<usize>,
}

/// What one execution notes on its way through the plan. When instrumentation
/// is on, each operator's profile is built as it runs: the operator is opened
/// when it starts, and closed into its profile when it returns, adopting as
/// its children the profiles that closed in between. A run that fails leaves
/// its open operators behind; `execute` drops them with the rest.
#[derive(Default)]
struct RunNotes {
    /// The run's last clock read (the statement's start, or an operator's
    /// close): where the next operator to open starts.
    stamp: Option<Instant>,
    degraded: Vec<SourceReport>,
    /// A fetch fired a hedged backup.
    hedged: bool,
    /// The operators running now, innermost last.
    open: Vec<Open>,
    /// Closed profiles whose parent has not closed yet.
    closed: Vec<OperatorProfile>,
    /// Rows emitted by each kind of operator that ran, and its counter's name.
    emitted: [Option<(&'static str, u64)>; PhysicalPlan::KINDS],
    /// Bytes shipped, by the name the ledger charges them under.
    shipped: BTreeMap<Arc<str>, usize>,
}

impl RunNotes {
    /// Open an operator: the innermost one from now until it closes.
    fn open(&mut self) {
        self.open.push(Open {
            first_child: self.closed.len(),
            start: *self.stamp.get_or_insert_with(Instant::now),
            source: None,
            hedge: HedgeOutcome::default(),
            replanned: false,
            top: None,
        });
    }

    /// The innermost open operator; `None` when instrumentation is off.
    fn current(&mut self) -> Option<&mut Open> {
        self.open.last_mut()
    }

    /// Close the innermost open operator, `plan`, into its profile, with what
    /// it emitted and cost (`width` columns): a join that emitted fewer
    /// columns than its schema has says so.
    fn close(&mut self, plan: &PhysicalPlan, rows: usize, width: usize, cost: QueryCost) {
        let Some(open) = self.open.pop() else {
            return;
        };
        let now = *self.stamp.insert(Instant::now());
        use PhysicalPlan::{BindJoin, HashJoin, NestedLoopJoin};
        let join = matches!(plan, HashJoin { .. } | NestedLoopJoin { .. } | BindJoin { .. });
        let columns = join.then(|| (width, plan.schema().len())).filter(|(k, n)| k < n);
        let children = self.closed.split_off(open.first_child);
        self.closed.push(OperatorProfile {
            label: plan.label(),
            source: open.source,
            rows,
            cost,
            wall: now - open.start,
            hedged: open.hedge.fired,
            backup_won: open.hedge.backup_won,
            replanned: open.replanned,
            top: open.top,
            columns,
            children,
        });
        let emitted = &mut self.emitted[plan.kind()];
        emitted.get_or_insert((plan.rows_emitted_metric(), 0)).1 += rows as u64;
    }
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
    metrics: Option<ExecMetrics>,
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

/// The executor's metric handles, each resolved from one registry once:
/// recording a statement's `exec.queries` and `query.exec_{sim,wall}_ms`, and
/// each operator's `exec.rows_emitted.<Kind>` and [`Count`]s, is an atomic
/// add with no lock and no name lookup. A handle is resolved when first
/// recorded, so a metric appears when it did by name. Clones share the handles: the facade keeps
/// one per registry, and every executor it builds takes a clone.
#[derive(Debug, Clone)]
pub struct ExecMetrics {
    registry: MetricsRegistry,
    handles: Arc<Handles>,
}

#[derive(Debug, Default)]
struct Handles {
    statement: OnceLock<(Counter, Arc<Histogram>, Arc<Histogram>)>,
    rows_emitted: [OnceLock<Counter>; PhysicalPlan::KINDS],
    counts: [OnceLock<Counter>; Count::NAMES.len()],
}

/// A counter the executor adds to per operator, through its handle in
/// [`Handles::counts`].
#[derive(Clone, Copy)]
enum Count {
    KeysHashed,
    KeysDirect,
    SortBounded,
    ColumnsSkipped,
}

impl Count {
    const NAMES: [&'static str; 4] =
        ["exec.keys.index.hashed", "exec.keys.index.direct", "exec.sort.bounded", "exec.join.columns_skipped"];
}

impl From<MetricsRegistry> for ExecMetrics {
    fn from(registry: MetricsRegistry) -> Self {
        ExecMetrics { registry, handles: Arc::default() }
    }
}

impl ExecMetrics {
    fn statement(&self, sim_ms: f64, wall_ms: f64) {
        let (queries, sim, wall) = self.handles.statement.get_or_init(|| {
            let histogram = |name| self.registry.histogram(name);
            let queries = self.registry.counter("exec.queries");
            (queries, histogram("query.exec_sim_ms"), histogram("query.exec_wall_ms"))
        });
        queries.inc();
        sim.observe(sim_ms);
        wall.observe(wall_ms);
    }

    fn rows_emitted(&self, kind: usize, name: &str, rows: u64) {
        let resolve = || self.registry.counter(name);
        self.handles.rows_emitted[kind].get_or_init(resolve).add(rows);
    }

    fn add(&self, count: Count, v: u64) {
        let at = count as usize;
        self.handles.counts[at].get_or_init(|| self.registry.counter(Count::NAMES[at])).add(v);
    }
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
    /// after every execution: a registry, or the handles of one resolved
    /// once ([`ExecMetrics`]).
    pub fn with_metrics(mut self, metrics: impl Into<ExecMetrics>) -> Self {
        self.metrics = Some(metrics.into());
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
        self.notes.borrow_mut().stamp = Some(start);
        let answer = self.run(plan);
        // Taken whatever the outcome: a failed run leaves the next nothing.
        let notes = self.notes.take();
        let (batch, cost) = answer?;
        let RunNotes { degraded, hedged, mut closed, emitted, shipped, .. } = notes;
        let wall = start.elapsed();
        if let Some(m) = &self.metrics {
            // Counted once the statement has succeeded: a failed one counts nothing.
            for (kind, emitted) in emitted.iter().enumerate() {
                if let Some((name, rows)) = emitted {
                    m.rows_emitted(kind, name, *rows);
                }
            }
            m.statement(cost.sim_ms, wall.as_secs_f64() * 1000.0);
            if !degraded.is_empty() {
                m.registry.add("exec.degraded_sources", degraded.len() as u64);
            }
        }
        Ok(QueryResult {
            batch,
            cost,
            wall,
            degraded,
            profile: closed.pop(),
            hedged,
            shipped: shipped
                .into_iter()
                .filter_map(|(source, bytes)| (bytes > 0).then(|| (source.to_string(), bytes)))
                .collect(),
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
        let slow = t.requests > 0 && t.sim_ms / t.requests as f64 >= policy.threshold_ms;
        slow.then_some(policy)
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
    /// layout the source returned). `stands_for` is the plan node the fetch
    /// *is*, run outside [`Executor::run_node`], so it opens and closes that
    /// operator here; otherwise the fetch is part of the innermost open
    /// operator. The source, and a hedge, are noted on the innermost open
    /// operator, the bytes shipped under the source's name. The returned flag
    /// is `true` when the source answered live.
    fn fetch(
        &self,
        handle: &SourceHandle,
        query: &SourceQuery,
        delivery: Delivery,
        fallback: (&SourceQuery, &SchemaRef),
        ingest_as: Option<&SchemaRef>,
        stands_for: Option<&PhysicalPlan>,
    ) -> Result<(ColumnarBatch, QueryCost, bool)> {
        let stands_for = stands_for.filter(|_| self.instrument);
        if stands_for.is_some() {
            self.notes.borrow_mut().open();
        }
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
                    let mut notes = self.notes.borrow_mut();
                    notes.hedged |= outcome.fired;
                    if let Some(open) = notes.current() {
                        open.hedge = outcome;
                    }
                    if let Some(m) = &self.metrics {
                        m.registry.inc("hedge.fired");
                        if outcome.backup_won {
                            m.registry.inc("hedge.backup_wins");
                        }
                        m.registry.record_event(eii_obs::TelemetryEvent {
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
            Ok((batch, cost)) => {
                *self.notes.borrow_mut().shipped.entry(handle.name().clone()).or_default() +=
                    cost.bytes;
                (batch, cost, true)
            }
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
        let mut notes = self.notes.borrow_mut();
        if let Some(open) = notes.current() {
            open.source = Some(handle.name().clone());
        }
        if let Some(node) = stands_for {
            notes.close(node, cols.num_rows(), cols.schema().len(), cost);
        }
        Ok((cols, cost, live))
    }

    /// Ship `batch` across `handle`'s link — an at-site join's forward or
    /// return leg — and note its bytes.
    fn ship(&self, handle: &SourceHandle, batch: &ColumnarBatch) -> QueryCost {
        let cost = handle.charge_shipment(batch);
        *self.notes.borrow_mut().shipped.entry(handle.name().clone()).or_default() += cost.bytes;
        cost
    }

    fn run(&self, plan: &PhysicalPlan) -> Result<(Batch, QueryCost)> {
        let (cols, cost) = self.run_node(plan, Demand::ALL)?;
        // The one pivot back to rows: the result edge, chunk by chunk.
        let mut rows = Vec::with_capacity(cols.num_rows());
        for chunk in cols.iter() {
            rows.extend(chunk.to_batch().into_rows());
        }
        Ok((Batch::new(cols.schema().clone(), rows), cost))
    }

    /// Run one operator, building its profile when instrumentation is on.
    /// Every operator boundary is a cancellation point: a cancelled, aborted,
    /// or out-of-budget query stops here instead of starting more work
    /// (chunked operators also check between chunks).
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
    fn run_node(&self, plan: &PhysicalPlan, want: Demand) -> Result<Output> {
        self.base_ctx.check()?;
        if !self.instrument {
            return self.run_inner(plan, want);
        }
        self.notes.borrow_mut().open();
        let (cols, cost) = self.run_inner(plan, want)?;
        let (rows, width) = (cols.num_rows(), cols.schema().len());
        self.notes.borrow_mut().close(plan, rows, width, cost);
        Ok((cols, cost))
    }

    fn run_inner(&self, plan: &PhysicalPlan, want: Demand) -> Result<Output> {
        let Demand { first, columns } = want;
        match plan {
            PhysicalPlan::Source {
                source,
                query,
                schema,
            } => {
                let handle = self.federation.source(source)?;
                // Tagged with the alias-qualified schema.
                let fallback = (query, schema);
                let (cols, cost, _) =
                    self.fetch(&handle, query, Delivery::Ship, fallback, Some(schema), None)?;
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
                let (cols, cost) = self.run_node(input, below)?;
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
                let (cols, cost) = self.run_node(input, below)?;
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
                columns,
            ),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
                parallel,
                schema,
            } => {
                let ((lcols, lc), (rcols, rc)) = self.run_pair(left, right, *parallel)?;
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
                let (lcols, lc) = self.run_node(left, Demand::ALL)?;
                let key = bind(left_key, lcols.schema())?;
                let (keys, direct) = distinct_keys(&key, &lcols)?;
                self.note_key_index(direct);
                let handle = self.federation.source(source)?;
                // Find the bind column among the returned fields, map the
                // returned columns onto the scan's output schema, and join
                // the fetched rows to the left side at the hub.
                let (fetched, rc) = if keys.is_empty() {
                    (ColumnarBatch::empty(right_schema.clone()), QueryCost::default())
                } else {
                    let mut q = template.clone();
                    q.bindings = vec![Binding { column: bind_column.clone(), keys }];
                    let (fetched, rc, _) =
                        self.fetch(&handle, &q, Delivery::Ship, (&q, right_schema), None, None)?;
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
                let (cols, cost) = self.run_node(input, below)?;
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
                self.note_key_index(op.key_index());
                Ok((out, cost.then(self.cpu(n))))
            }
            PhysicalPlan::Distinct { input } => {
                let (cols, cost) = self.run_node(input, Demand::ALL)?;
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
                    let out = self.drive_op(&mut op, &cols, schema)?;
                    self.note_key_index(op.key_index());
                    out
                };
                Ok((out, cost.then(self.cpu(n))))
            }
            PhysicalPlan::Sort { input, keys } => {
                let by = keys.iter().map(|(e, _)| e);
                let read = columns.and_then(|c| columns_read(by, &input.schema(), c));
                let below = Demand { first: None, columns: read.as_deref() };
                let (cols, cost) = self.run_node(input, below)?;
                let n = cols.num_rows();
                let keys: Vec<(BoundExpr, bool)> = keys
                    .iter()
                    .map(|(e, asc)| Ok((bind(e, cols.schema())?, *asc)))
                    .collect::<Result<_>>()?;
                // A promise of everything bounds nothing.
                let first = first.filter(|&k| k < n);
                if let Some(k) = first {
                    if let Some(open) = self.notes.borrow_mut().current() {
                        open.top = Some(k);
                    }
                    if let Some(m) = &self.metrics {
                        m.add(Count::SortBounded, 1);
                    }
                }
                let sorted = sort_batch(&cols.into_one(), &keys, first)?;
                Ok((sorted.into(), cost.then(self.cpu(n))))
            }
            PhysicalPlan::Limit { input, n } => {
                let below = Demand { first: Some(first.map_or(*n, |k| k.min(*n))), columns };
                let (cols, cost) = self.run_node(input, below)?;
                Ok((cols.head(*n), cost))
            }
            PhysicalPlan::UnionAll {
                inputs,
                parallel,
                schema,
            } => {
                let branches = inputs.iter().map(|p| self.run_node(p, Demand::ALL));
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
                    cost = if *parallel { cost.alongside(c) } else { cost.then(c) };
                }
                Ok((out, cost))
            }
            PhysicalPlan::Rename { input, schema } => {
                // Re-tagging is positional: every column, the rows it was asked.
                let below = Demand { first, columns: None };
                let (cols, cost) = self.run_node(input, below)?;
                let mut out = Chunks::new(schema.clone());
                out.append(cols);
                Ok((out, cost))
            }
        }
    }

    /// Count a key table an operator finished with by the index it ended
    /// on, `exec.keys.index.{direct,hashed}` (`None`: it had none).
    fn note_key_index(&self, direct: Option<bool>) {
        if let (Some(m), Some(direct)) = (&self.metrics, direct) {
            m.add(if direct { Count::KeysDirect } else { Count::KeysHashed }, 1);
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
    /// A join gathers for its residual the columns that reads — of `schema`,
    /// or of both sides for Semi/Anti, which select the probe chunk (nothing
    /// to narrow) — and an Inner/Left/Cross join emits the columns of
    /// `schema` `want`ed (`None`: all).
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
        let filtering = matches!(kind, JoinKind::Semi | JoinKind::Anti);
        let both = filtering.then(|| Arc::new(probe.schema().join(build.schema())));
        let read_from = both.as_ref().unwrap_or(schema);
        let read = residual.as_ref().and_then(|r| columns_read([r], read_from, &[]));
        let pred = ColumnPick::new(read_from, read);
        let out = ColumnPick::new(schema, want.filter(|_| !filtering).map(<[usize]>::to_vec));
        let residual = residual.as_ref().map(|r| bind(r, pred.schema())).transpose()?;
        let out_schema = out.schema().clone();
        let skipped = schema.len() - out_schema.len();
        if let Some(m) = self.metrics.as_ref().filter(|_| skipped > 0) {
            m.add(Count::ColumnsSkipped, skipped as u64);
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
        self.note_key_index(op.key_index());
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
    ) -> Result<(Output, Output)> {
        if parallel {
            let l = self.run_node(left, Demand::ALL);
            let r = self.run_node(right, Demand::ALL);
            Ok((l?, r?))
        } else {
            Ok((self.run_node(left, Demand::ALL)?, self.run_node(right, Demand::ALL)?))
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
    /// distinct probe keys actually observed, and the join's profile says so.
    /// Either way the sides ran serially, so the serial costs come back for
    /// the caller to combine.
    fn try_adaptive_join(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        left_keys: &[Expr],
        right_keys: &[Expr],
        kind: JoinKind,
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
        let (lcols, lc) = self.run_node(left, Demand::ALL)?;
        let model = CostModel::new(self.federation).with_feedback(policy.feedback.clone());
        let est_rows = model.estimate_physical(left).rows.max(1e-9);
        let actual = (lcols.num_rows() as f64).max(1.0);
        let diverged = actual / est_rows >= policy.factor || est_rows / actual >= policy.factor;
        if !diverged {
            let right_out = self.run_node(right, Demand::ALL)?;
            return Ok(Some(((lcols, lc), right_out)));
        }

        // Re-plan the build side: ship only rows whose key matches a probe
        // key actually observed, in first-seen probe order.
        let lkey = bind(&left_keys[0], lcols.schema())?;
        let (keys, direct) = distinct_keys(&lkey, &lcols)?;
        self.note_key_index(direct);
        let mut filtered = query.clone();
        filtered.bindings = vec![Binding { column: bind_col.clone(), keys }];
        // Degrade against the *original* query so a dead source yields the
        // same substitute snapshot the un-adapted plan would get. The adapted
        // fetch bypasses `run_node`, so it stands for the build side.
        let fallback = (query, schema);
        let (rcols, rc, _) =
            self.fetch(&handle, &filtered, Delivery::Ship, fallback, Some(schema), Some(right))?;
        if let Some(open) = self.notes.borrow_mut().current() {
            open.replanned = true;
        }
        if let Some(m) = &self.metrics {
            m.registry.inc("advisor.replans");
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
        want: Option<&[usize]>,
    ) -> Result<Output> {
        // A site join's result is priced by the columns it ships: all of them.
        let want = want.filter(|_| matches!(site, JoinSite::Hub));
        // Fetch inputs, honoring the assembly site's cost model.
        let (lcols, rcols, mut cost, result_site) = match site {
            JoinSite::Hub => {
                match self.try_adaptive_join(left, right, left_keys, right_keys, kind)? {
                    Some(((lcols, lc), (rcols, rc))) => (lcols, rcols, lc.then(rc), None),
                    None => {
                        let ((lcols, lc), (rcols, rc)) = self.run_pair(left, right, parallel)?;
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
                // The site child bypasses `run_node` (it is queried in-place
                // at the source), so the fetch stands for it; it runs first
                // whichever side it is on, and its profile moves back to the
                // right when that is where the plan has it.
                let fallback = (query, site_schema);
                let (site_cols, site_cost, site_live) = self.fetch(
                    &handle,
                    query,
                    Delivery::StayAtSite,
                    fallback,
                    Some(site_schema),
                    Some(site_child),
                )?;
                let (other_cols, other_cost) = self.run_node(other_child, Demand::ALL)?;
                if !site_is_left && self.instrument {
                    let closed = &mut self.notes.borrow_mut().closed;
                    let n = closed.len();
                    closed.swap(n - 2, n - 1);
                }
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
                    (fetch.then(self.ship(&handle, &other_cols)), Some(handle))
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
        if let Some(handle) = result_site {
            let shipped = out.into_one();
            cost = cost.then(self.ship(&handle, &shipped));
            out = shipped.into();
        }
        Ok((out, cost))
    }
}

/// The distinct non-NULL values of `key` over `cols`, in first-seen order:
/// the binding list a bind join or an adaptive re-plan ships to the source,
/// deduplicated under `Value`'s equality (`Int(2)` is `Float(2.0)`) by the
/// key table joins and aggregates share — chunk by chunk, nothing gathered,
/// in a table sized once for every row to be a distinct key. The list is that
/// table's own key column, of the key's flavor (an Int key ships Int, a key
/// gone `Mixed` ships `Mixed`); no `Value` is built per key. Beside the
/// list, whether that table ended direct (`None`: no chunk made one).
fn distinct_keys(key: &BoundExpr, cols: &Chunks) -> Result<(Arc<Column>, Option<bool>)> {
    let rows = cols.num_rows();
    let mut table: Option<KeyTable> = None;
    for chunk in cols.iter() {
        let keys = [eval_column(key, chunk)?];
        let n = keys[0].len();
        table
            .get_or_insert_with(|| KeyTable::new(vec![ColumnBuilder::like(&keys[0], 0)], rows))
            .intern_rows(&keys, n, true);
    }
    let direct = table.as_ref().map(KeyTable::is_direct);
    let distinct = table.and_then(|t| t.into_columns().pop());
    Ok((Arc::new(distinct.unwrap_or_else(|| Column::from_values(&[], DataType::Int))), direct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{Field, Value};

    /// The binding list of an `Int`-declared key column holding `values` (a
    /// float turns it `Mixed`): the same column, flavor and cells, wherever
    /// the rows are cut into two chunks.
    fn keys_of(values: &[Value]) -> Arc<Column> {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let col = Arc::new(Column::from_values(values, DataType::Int));
        let batch = ColumnarBatch::new(schema, vec![col], values.len());
        let whole = distinct_keys(&BoundExpr::Column(0), &batch.clone().into()).unwrap().0;
        for cut in 0..=values.len() as u32 {
            let mut list = Chunks::new(batch.schema().clone());
            list.push(batch.select((0..cut).collect()));
            list.push(batch.select((cut..values.len() as u32).collect()));
            assert_eq!(distinct_keys(&BoundExpr::Column(0), &list).unwrap().0, whole);
        }
        whole
    }

    fn cells(col: &Column) -> Vec<Value> {
        (0..col.len()).map(|i| col.value(i)).collect()
    }

    #[test]
    fn distinct_keys_are_first_seen_non_null_and_exact_past_2_53() {
        let p53 = 1i64 << 53;
        let int = Value::Int;
        // Typed integer column: raw i64s, neighbours past 2^53 stay apart,
        // shipped as a NULL-free Int column, which a stored Int column's
        // direct index probes in place.
        let ints = keys_of(&[int(p53 + 1), Value::Null, int(7), int(p53), int(p53 + 1), int(7)]);
        assert_eq!(cells(&ints), [int(p53 + 1), int(7), int(p53)]);
        assert_eq!(ints.as_ints(), Some(&[p53 + 1, 7, p53][..]));
        assert!(ints.no_nulls());
        // A float turns the column Mixed, and the list ships Mixed:
        // `Float(2^53)` is `Int(2^53)` and neither is `Int(2^53 ± 1)`,
        // whichever comes first.
        let f = Value::Float(p53 as f64);
        let mixed = keys_of(&[int(p53 - 1), f.clone(), int(p53), Value::Null, int(p53 + 1), f.clone()]);
        assert_eq!(cells(&mixed), [int(p53 - 1), f, int(p53 + 1)]);
        assert!(matches!(mixed.data(), eii_data::ColumnData::Mixed(_)));
        // No non-NULL key, no binding.
        assert!(keys_of(&[Value::Null, Value::Null]).is_empty());
        assert!(keys_of(&[]).is_empty());
    }
}
