//! # eii — an Enterprise Information Integration platform
//!
//! A complete implementation of the EII architecture described in
//! *"Enterprise Information Integration: Successes, Challenges and
//! Controversies"* (Halevy et al., SIGMOD 2005): uniform SQL access to
//! multiple heterogeneous sources without first loading them into a
//! warehouse — plus every substrate the paper's discussion depends on
//! (warehouse/ETL baseline, materialized views, record correlation, EAI
//! sagas, semantics management, enterprise search).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use eii::prelude::*;
//!
//! // A relational source...
//! let clock = SimClock::new();
//! let crm = Database::new("crm", clock.clone());
//! let schema = Arc::new(Schema::new(vec![
//!     Field::new("id", DataType::Int).not_null(),
//!     Field::new("name", DataType::Str),
//! ]));
//! let t = crm.create_table(TableDef::new("customers", schema).with_primary_key(0)).unwrap();
//! t.write().insert(eii::row![1i64, "alice"]).unwrap();
//!
//! // ...registered with the EII system and queried through a mediated view.
//! // `build()` returns an `Arc<EiiSystem>` that is `Send + Sync`, so the
//! // same system can serve queries from many threads or [`Session`]s.
//! let system = EiiSystem::builder(clock)
//!     .source(Arc::new(RelationalConnector::new(crm)), LinkProfile::lan(), WireFormat::Native)
//!     .build()
//!     .unwrap();
//! system.execute("CREATE VIEW customers AS SELECT id, name FROM crm.customers").unwrap();
//! let out = system.execute("SELECT name FROM customers WHERE id = 1").unwrap();
//! assert_eq!(out.rows().unwrap().num_rows(), 1);
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;

use eii_advisor::{Advisor, AdvisorAction, AdvisorConfig, Candidate, Proposal};
use eii_catalog::Catalog;
use eii_data::{Batch, CancelToken, Deadline, EiiError, Priority, Result, SimClock};
use eii_eai::{MessageBroker, ProcessDef, ProcessEnv, SagaEngine, SagaOutcome};
use eii_exec::{
    CacheConfig, CacheLookup, CachedResult, DegradationPolicy, ExecMetrics, Executor, HedgePolicy,
    OperatorProfile, QueryResult, ReplanPolicy, ResultCache, SnapshotStore, SourceReport,
};
use eii_federation::{
    Connector, Delivery, Federation, LinkProfile, QueryCost, RequestCtx, SourceHealth, SourceQuery,
    WireFormat,
};
use eii_matview::{MatViewManager, RefreshPolicy};
use eii_planner::FallbackReason;
use eii_obs::{
    fingerprint64, MetricsRegistry, OperatorStat, QueryLog, QueryLogRecord, QueryTrace,
    SloMonitor, SloObjective, SloStatus, StatementFlags, StoredTrace, TelemetryEvent,
    TraceStore, Tracer,
};
use eii_planner::{
    optimize, rewrite_matviews_with_budget, CardinalityFeedback, CostModel, LogicalPlan,
    PhysicalPlan, PhysicalPlanner, PlanBuilder, PlanEstimate, PlannerConfig,
};
use eii_search::{EnterpriseSearch, Hit};
use eii_sql::{parse_statement, SetQuery, Statement};

use memo::{PlanMemo, Planned, Stamp};

/// Simulated ms to serve a memoized result (mirrors a matview cache read).
const CACHE_HIT_MS: f64 = 0.05;
/// Hub-side per-row cost applied to served cache hits (the executor's
/// default rate).
const CACHE_HUB_MS_PER_ROW: f64 = 0.0005;

pub mod builder;
mod memo;
pub mod session;

pub use builder::EiiSystemBuilder;
pub use session::{QueryScheduler, Session};

/// Everything an application typically imports.
pub mod prelude {
    pub use crate::{EiiSystem, EiiSystemBuilder, ExecOptions, ExecOutcome, QueryScheduler, Session};
    pub use eii_exec::{
        AdmissionConfig, BrownoutConfig, HedgePolicy, QueryTicket, SchedulerStats, ShedDecision,
    };
    pub use eii_catalog::{Catalog, SourceMeta};
    pub use eii_data::{
        Batch, CancelToken, DataType, Deadline, EiiError, Field, Priority, Result, Row,
        Schema, SimClock, Value,
    };
    pub use eii_federation::RequestCtx;
    pub use eii_docstore::{DocStore, Document};
    pub use eii_exec::{CacheConfig, DegradationPolicy, SnapshotStore, SourceReport};
    pub use eii_advisor::AdvisorConfig;
    pub use eii_matview::{IvmStatus, RefreshPolicy};
    pub use eii_planner::FallbackReason;
    pub use eii_federation::{
        adapters::document::VirtualTable, CircuitBreakerConfig, Connector, CsvConnector,
        DocumentConnector, FaultProfile, Federation, LinkProfile, RelationalConnector,
        RetryPolicy, UpdateOp, WebServiceConnector, WireFormat,
    };
    pub use eii_planner::PlannerConfig;
    pub use eii_storage::{Database, TableDef};
}

// Re-export the subsystem crates under stable names so downstream users
// depend on `eii` alone.
pub use eii_advisor as advisor;
pub use eii_catalog as catalog;
pub use eii_data as data;
pub use eii_data::row as row_macro;
pub use eii_docstore as docstore;
pub use eii_eai as eai;
pub use eii_exec as exec;
pub use eii_expr as expr;
pub use eii_federation as federation;
pub use eii_matview as matview;
pub use eii_obs as obs;
pub use eii_planner as planner;
pub use eii_search as search;
pub use eii_semantics as semantics;
pub use eii_sql as sql;
pub use eii_storage as storage;
pub use eii_warehouse as warehouse;

// `eii::row!` works because the macro is exported at the crate root of
// eii-data and re-exported here.
pub use eii_data::row;

/// Result of executing one statement.
#[derive(Debug)]
pub enum ExecOutcome {
    /// A query's rows plus cost accounting (boxed: a [`QueryResult`] with
    /// its operator profile dwarfs the other variants).
    Rows(Box<QueryResult>),
    /// `CREATE VIEW` succeeded; the view name.
    ViewCreated(String),
    /// `SEARCH` hits.
    SearchHits(Vec<Hit>),
    /// `EXPLAIN [ANALYZE]` text.
    Explained(String),
    /// A scheduled materialized-view refresh completed; the view name and
    /// the refresh's simulated cost.
    Refreshed {
        /// The refreshed view.
        view: String,
        /// Simulated refresh cost, ms.
        sim_ms: f64,
    },
}

impl ExecOutcome {
    /// The rows, if this outcome carries any.
    pub fn rows(&self) -> Result<&Batch> {
        self.query_result().map(|r| &r.batch)
    }

    /// The full query result, if this outcome is a query.
    pub fn query_result(&self) -> Result<&QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Ok(r),
            other => Err(EiiError::Execution(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }

    /// The rendered plan, if this outcome is an `EXPLAIN [ANALYZE]`.
    pub fn explained(&self) -> Result<&str> {
        match self {
            ExecOutcome::Explained(s) => Ok(s),
            other => Err(EiiError::Execution(format!(
                "statement was not an EXPLAIN: {other:?}"
            ))),
        }
    }

    /// The rows, when this outcome carries any (non-erroring probe).
    pub fn try_rows(&self) -> Option<&Batch> {
        self.try_query_result().map(|r| &r.batch)
    }

    /// The full query result, when this outcome is a query.
    pub fn try_query_result(&self) -> Option<&QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// Consume the outcome into its query result — the typed accessor
    /// scheduler callers use so joined tickets aren't triple-unwrapped.
    pub fn into_query_result(self) -> Result<QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Ok(*r),
            other => Err(EiiError::Execution(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }
}

/// Per-query execution options, carried by [`Session`] handles and
/// accepted directly by [`EiiSystem::execute_with`].
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Role for access-controlled statements (`SEARCH` honors it).
    pub role: String,
    /// Per-query override of the semantic result cache's staleness budget,
    /// in simulated milliseconds (`None`: use the configured budget).
    pub staleness_budget_ms: Option<i64>,
    /// Simulated-time budget for the whole query (`None`: unbounded). When
    /// set, every fetch charges a shared [`Deadline`] and the query fails
    /// with a `deadline` error the moment the budget runs out; the planner
    /// also prefers materialized views that fit the remaining budget.
    pub deadline_budget_ms: Option<i64>,
    /// Priority tier for brownout load shedding (scheduler submissions).
    pub priority: Priority,
    /// Cooperative cancellation token checked at every batch boundary and
    /// before every connector request (`None`: not cancellable).
    pub cancel: Option<CancelToken>,
    /// Set by the brownout controller on a `Degrade` decision: the query
    /// runs under [`DegradationPolicy::PartialResults`] so shedding load
    /// yields partial answers instead of queueing behind high-priority work.
    pub brownout_degraded: bool,
    /// Session label stamped into query-log records and stored traces, so
    /// workload telemetry can be sliced per session ([`Session::with_label`]
    /// sets it automatically).
    pub session: Option<String>,
}

impl ExecOptions {
    /// Options for a role with no overrides.
    pub fn for_role(role: &str) -> Self {
        ExecOptions {
            role: role.to_string(),
            staleness_budget_ms: None,
            deadline_budget_ms: None,
            priority: Priority::Normal,
            cancel: None,
            brownout_degraded: false,
            session: None,
        }
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::for_role("public")
    }
}

/// Per-statement telemetry scratchpad the execute path fills in as facts
/// become known (fingerprint after planning, flags and actuals after
/// execution), consumed by [`EiiSystem::record_statement`].
#[derive(Debug, Default)]
struct StatementTelemetry {
    fingerprint: u64,
    /// The normalized plan text and the trimmed statement text, shared with
    /// the plan they came from; `None` until a plan is known.
    plan: Option<Arc<str>>,
    sql: Option<Arc<str>>,
    flags: StatementFlags,
    per_source_bytes: Vec<(String, u64)>,
    operators: Vec<OperatorStat>,
    deadline_budget_ms: Option<f64>,
    deadline_spent_ms: Option<f64>,
    trace_id: Option<u64>,
    /// Trace-store retention decision, made on the success path as soon as
    /// the outcome's flags are known so the expensive per-operator
    /// cost-model walk only runs for statements whose trace is kept.
    /// `None` on paths that never decided (errors, cache hits, DDL);
    /// [`EiiSystem::record_statement`] then asks the store itself.
    kept: Option<bool>,
}

/// The EII server: a federation of wrapped sources, a metadata catalog, a
/// planner configuration, a message broker, and (optionally) an enterprise
/// search service.
///
/// The system is `Send + Sync` end to end: every piece of genuinely shared
/// state is behind interior mutability (the federation's source registry,
/// the transfer ledger, metrics, the result cache, the materialized-view
/// manager, the fallback store, and the degradation policy), so an
/// `Arc<EiiSystem>` built by [`EiiSystemBuilder`] can serve concurrent
/// sessions from many threads. Hot query paths take only short read locks;
/// see `docs/architecture.md` ("Concurrency model") for the lock map.
pub struct EiiSystem {
    clock: SimClock,
    federation: Federation,
    /// The executor's handles into the federation's metrics, resolved once.
    exec_metrics: ExecMetrics,
    catalog: Catalog,
    config: PlannerConfig,
    broker: MessageBroker,
    search: OnceLock<EnterpriseSearch>,
    degradation: RwLock<DegradationPolicy>,
    fallbacks: SnapshotStore,
    matviews: OnceLock<MatViewManager>,
    cache: OnceLock<ResultCache>,
    hedge: RwLock<Option<HedgePolicy>>,
    query_log: QueryLog,
    traces: TraceStore,
    slo: SloMonitor,
    /// Gate for the whole telemetry pipeline (query log, trace store, SLO
    /// samples). E18 measures the enabled-vs-disabled overhead under 5%.
    telemetry: AtomicBool,
    /// Workload-driven self-tuning, once enabled ([`EiiSystem::enable_advisor`]).
    advisor: OnceLock<AdvisorState>,
    /// Statement text → plan, valid while what planning read is unchanged.
    memo: PlanMemo,
}

/// The advisor runtime: the decision engine plus the cardinality-feedback
/// store shared between statement recording (which writes observed
/// est-vs-actual ratios) and the executor's adaptive re-planning hook
/// (which reads feedback-corrected estimates mid-query).
struct AdvisorState {
    advisor: Advisor,
    feedback: Arc<CardinalityFeedback>,
}

impl EiiSystem {
    /// A new system on the given simulated clock, with all optimizations
    /// enabled. Prefer [`EiiSystem::builder`] for anything beyond a bare
    /// system: it wires sources, policies, caches, and views at build time
    /// and hands back a shareable `Arc<EiiSystem>`.
    pub fn new(clock: SimClock) -> Self {
        let federation = Federation::with_clock(clock.clone());
        EiiSystem {
            exec_metrics: federation.metrics().clone().into(),
            federation,
            clock,
            catalog: Catalog::new(),
            config: PlannerConfig::optimized(),
            broker: MessageBroker::new(),
            search: OnceLock::new(),
            degradation: RwLock::new(DegradationPolicy::Fail),
            fallbacks: SnapshotStore::new(),
            matviews: OnceLock::new(),
            cache: OnceLock::new(),
            hedge: RwLock::new(None),
            query_log: QueryLog::default(),
            traces: TraceStore::default(),
            slo: SloMonitor::new(),
            telemetry: AtomicBool::new(true),
            advisor: OnceLock::new(),
            memo: PlanMemo::default(),
        }
    }

    /// Start configuring a system (see [`EiiSystemBuilder`]).
    pub fn builder(clock: SimClock) -> EiiSystemBuilder {
        EiiSystemBuilder::new(clock)
    }

    /// Replace the planner configuration (ablations, naive mode, ...).
    /// Consumes the system, so it only composes before the system is
    /// shared; after that, configuration is fixed.
    pub fn with_config(mut self, config: PlannerConfig) -> Self {
        self.config = config;
        // Whatever was planned so far was planned under the old one.
        self.memo.clear();
        self
    }

    /// Enable hedged requests: once a source's observed mean latency
    /// crosses the policy threshold, fetches against it race a delayed
    /// backup and the first (virtual-time) arrival wins.
    pub fn set_hedge_policy(&self, policy: HedgePolicy) {
        *self.hedge.write() = Some(policy);
    }

    /// The currently active hedging policy, if any.
    pub fn hedge_policy(&self) -> Option<HedgePolicy> {
        *self.hedge.read()
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The federation: ledger, schemas, handles, and (interior-mutable)
    /// source reconfiguration — fault injection, hardening, wire formats.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The metadata catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The message broker shared with EAI processes.
    pub fn broker(&self) -> &MessageBroker {
        &self.broker
    }

    /// The active planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Register a wrapped source behind a network link.
    pub fn add_source(
        &self,
        connector: Arc<dyn Connector>,
        link: LinkProfile,
        wire: WireFormat,
    ) -> Result<()> {
        self.federation.register(connector, link, wire)
    }

    /// Attach an enterprise-search service (see [`eii_search`]); a no-op if
    /// one is already attached.
    pub fn attach_search_service(&self, search: EnterpriseSearch) {
        let _ = self.search.set(search);
    }

    /// Choose what queries do when a source stays down past the
    /// federation's retry layer (default: fail).
    pub fn set_degradation_policy(&self, policy: DegradationPolicy) {
        *self.degradation.write() = policy;
    }

    /// The currently active degradation policy.
    pub fn degradation_policy(&self) -> DegradationPolicy {
        *self.degradation.read()
    }

    /// Count a query abort (`deadline.exceeded` / `query.cancelled`) so the
    /// dashboards distinguish budget blowouts from caller teardowns.
    fn count_abort(&self, err: &EiiError) {
        let metrics = self.federation.metrics();
        match err.kind() {
            "deadline" => metrics.inc("deadline.exceeded"),
            "cancelled" => metrics.inc("query.cancelled"),
            _ => {}
        }
    }

    /// The stale-snapshot store consulted under
    /// [`DegradationPolicy::Fallback`].
    pub fn fallbacks(&self) -> &SnapshotStore {
        &self.fallbacks
    }

    /// Snapshot `source.table` live right now and register it as the
    /// fallback copy (stamped with the current simulated time).
    pub fn snapshot_fallback(&self, qualified: &str) -> Result<()> {
        let (h, table) = self.federation.resolve(qualified)?;
        let whole = SourceQuery::full_table(table);
        let (columns, _) = h.fetch(&whole, &RequestCtx::new(), Delivery::Ship)?;
        self.fallbacks.put(qualified, columns, self.clock.now_ms());
        Ok(())
    }

    /// Define a materialized view over the federation and materialize it
    /// now; returns the initial refresh's simulated cost. Once a view is
    /// fresh under its policy, the planner's rewrite pass (when
    /// [`PlannerConfig::rewrite_matviews`] is on) answers matching query
    /// subtrees from it instead of the sources.
    ///
    /// The manager snapshots the federation on first use: register every
    /// source before creating views.
    pub fn define_matview(&self, name: &str, sql: &str, policy: RefreshPolicy) -> Result<f64> {
        let mgr = self.matviews.get_or_init(|| {
            MatViewManager::new(self.federation.clone(), self.clock.clone())
        });
        mgr.define(name, sql, &self.catalog, policy)?;
        mgr.refresh(name)
    }

    /// Like [`EiiSystem::define_matview`], but the view refreshes by
    /// **delta propagation** over the base tables' change logs — O(delta),
    /// not O(data) — when its plan is incrementalizable (see
    /// `docs/ivm.md`). Non-incrementalizable views are still created and
    /// refresh by full recompute; the returned [`FallbackReason`] says
    /// why. The initial materialization replays the change logs through
    /// the same delta path.
    pub fn define_incremental_matview(
        &self,
        name: &str,
        sql: &str,
        policy: RefreshPolicy,
    ) -> Result<Option<FallbackReason>> {
        let mgr = self.matviews.get_or_init(|| {
            MatViewManager::new(self.federation.clone(), self.clock.clone())
        });
        let fallback = mgr.define_incremental(name, sql, &self.catalog, policy)?;
        if let Err(e) = mgr.refresh(name) {
            // A failed bootstrap must not leave behind a registered view
            // whose every future refresh would fail the same way.
            let _ = mgr.drop_view(name);
            return Err(e);
        }
        self.refresh_cached_for(name);
        Ok(fallback)
    }

    /// Recompute a materialized view now (incrementally for
    /// delta-maintained views); returns the refresh's simulated cost. Any
    /// result-cache entry keyed by the view's plan is refreshed in place
    /// rather than left to go stale.
    pub fn refresh_matview(&self, name: &str) -> Result<f64> {
        let cost = self
            .matviews
            .get()
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?
            .refresh(name)?;
        self.refresh_cached_for(name);
        Ok(cost)
    }

    /// Push a view's fresh materialization into the result-cache entry
    /// stored under the same normalized plan key (an ad-hoc query textually
    /// matching the view's definition), with re-probed base-table versions.
    /// A cache miss or absent cache is a no-op.
    fn refresh_cached_for(&self, name: &str) {
        let (Some(mgr), Some(cache)) = (self.matviews.get(), self.cache.get()) else {
            return;
        };
        let Ok(key) = mgr.plan_key(name) else {
            return;
        };
        // The materialization is cloned only once the cache holds the key.
        let fresh = || {
            let (batch, tables) = (mgr.cached(name).ok()??, mgr.base_tables(name).ok()?);
            Some((batch, ResultCache::probe_versions(&self.federation, &tables)))
        };
        cache.refresh_entry(&key, fresh, self.clock.now_ms());
    }

    /// The materialized-view manager, once any view has been created.
    pub fn matviews(&self) -> Option<&MatViewManager> {
        self.matviews.get()
    }

    /// Turn on the semantic result cache: query results are memoized under
    /// their normalized plan and served back — version-checked against each
    /// base table's change log — until invalidated, evicted, or older than
    /// the configured staleness budget. Returns `false` (and leaves the
    /// existing cache in place) if one is already installed.
    pub fn install_result_cache(&self, config: CacheConfig) -> bool {
        self.cache
            .set(ResultCache::new(config).with_metrics(self.federation.metrics().clone()))
            .is_ok()
    }

    /// The semantic result cache, when enabled.
    pub fn result_cache(&self) -> Option<&ResultCache> {
        self.cache.get()
    }

    /// Tell the cache a write landed on `source.table`; every dependent
    /// entry is dropped. (Version probing catches change-logged sources on
    /// its own; this is the hook for sources without CDC.)
    pub fn invalidate_cached(&self, qualified: &str) -> usize {
        self.cache
            .get()
            .map_or(0, |c| c.invalidate_table(qualified))
    }

    /// Turn on workload-driven self-tuning: the matview advisor (mines the
    /// query log for materialization candidates and manages the installed
    /// set under the configured storage budget), the cardinality-feedback
    /// store (per-operator est-vs-actual ratios folded in after every
    /// query), and the executor's adaptive re-planning hook (hub joins
    /// whose observed cardinality diverges from the feedback-corrected
    /// estimate re-issue their build side as a binding-filtered fetch).
    ///
    /// Rides the telemetry pipeline: with telemetry disabled
    /// ([`EiiSystem::set_telemetry_enabled`]) the advisor observes nothing
    /// and the loop stalls. Returns `false` (leaving the existing advisor
    /// in place) if one is already enabled.
    pub fn enable_advisor(&self, config: AdvisorConfig) -> bool {
        self.advisor
            .set(AdvisorState {
                advisor: Advisor::new(config),
                feedback: Arc::new(CardinalityFeedback::new()),
            })
            .is_ok()
    }

    /// The advisor's decision engine, when enabled.
    pub fn advisor(&self) -> Option<&Advisor> {
        self.advisor.get().map(|s| &s.advisor)
    }

    /// The advisor's cardinality-feedback store, when enabled: each plan
    /// node's correction, keyed by [`CardinalityFeedback::node_key`].
    pub fn cardinality_feedback(&self) -> Option<&CardinalityFeedback> {
        self.advisor.get().map(|s| &*s.feedback)
    }

    /// Human-readable advisor report: installed views with observed hit
    /// rates, plus the executed-action journal.
    pub fn advisor_report(&self) -> String {
        match self.advisor.get() {
            Some(s) => s.advisor.report(),
            None => "advisor: disabled\n".to_string(),
        }
    }

    /// Run one advisory cycle now: mine the query log's heaviest
    /// fingerprints by bytes shipped, install the best-scoring candidates
    /// under the storage budget as incrementally maintained always-fresh
    /// (`Live`) views, and evict installed views whose observed hit rate
    /// decayed below the floor. Candidates whose plan is not incrementally
    /// maintainable are rejected — their upkeep would be a full recompute
    /// per refresh — and never re-proposed.
    ///
    /// Fires automatically every `advise_every` observed statements;
    /// public so benchmarks and tests can force a cycle. Returns the
    /// actions actually executed this cycle.
    pub fn run_advisor_cycle(&self) -> Vec<AdvisorAction> {
        let Some(state) = self.advisor.get() else {
            return Vec::new();
        };
        let metrics = self.metrics();
        metrics.inc("advisor.cycles");
        let candidates: Vec<Candidate> = self
            .query_log
            .top_k(
                state.advisor.config().top_k,
                eii_obs::WorkloadKey::BytesShipped,
            )
            .into_iter()
            .map(|s| Candidate {
                fingerprint: s.fingerprint,
                rows: s.total_rows.checked_div(s.count).unwrap_or(0),
                sql: s.sql,
                count: s.count,
                total_bytes: s.total_bytes,
            })
            .collect();
        let journal_before = state.advisor.actions().len();
        for proposal in state.advisor.propose(&candidates) {
            match proposal {
                Proposal::Materialize {
                    name,
                    fingerprint,
                    sql,
                    score,
                    rows,
                } => match self.define_incremental_matview(&name, &sql, RefreshPolicy::Live) {
                    Ok(None) => {
                        state
                            .advisor
                            .record_materialized(fingerprint, &name, rows, score);
                        metrics.inc("advisor.materialized");
                    }
                    // Policy: only O(delta)-maintainable views are worth
                    // automatic installation; fallback-only views would
                    // pay a full recompute on every base write.
                    Ok(Some(reason)) => {
                        let _ = self.drop_advisor_view(&name);
                        state
                            .advisor
                            .record_rejected(fingerprint, &format!("{reason:?}"));
                    }
                    Err(e) => state.advisor.record_rejected(fingerprint, e.kind()),
                },
                Proposal::Evict {
                    name, fingerprint, ..
                } => {
                    let _ = self.drop_advisor_view(&name);
                    state.advisor.record_evicted(fingerprint);
                    metrics.inc("advisor.evicted");
                }
            }
        }
        state.advisor.actions().split_off(journal_before)
    }

    /// Drop an advisor-installed view; absent manager or view is a no-op
    /// (the definition may have been rolled back by a failed bootstrap).
    fn drop_advisor_view(&self, name: &str) -> Result<()> {
        match self.matviews.get() {
            Some(mgr) => mgr.drop_view(name),
            None => Ok(()),
        }
    }

    /// Mark scans of advisor-installed views in rendered plan text: an
    /// `[ADVISED]` header says the rows are served by a view the advisor
    /// — not an administrator — materialized.
    fn annotate_advised(&self, mut text: String) -> String {
        let Some(state) = self.advisor.get() else {
            return text;
        };
        for view in state.advisor.installed() {
            let from = format!("MatViewScan {} ", view.name);
            let to = format!("MatViewScan {} [ADVISED] ", view.name);
            text = text.replace(&from, &to);
        }
        text
    }

    /// Execute one SQL statement as the default (`public`) role with no
    /// per-query overrides; the trace is sampled into
    /// [`EiiSystem::trace_store`].
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        self.execute_with(sql, &ExecOptions::default()).0
    }

    /// Execute one SQL statement under explicit per-query options, and hand
    /// back its finished trace. This is the one way a statement enters the
    /// engine: [`EiiSystem::execute`], [`Session::execute`] and the
    /// [`QueryScheduler`] all call it, and `EXPLAIN [ANALYZE]`, `CREATE VIEW`
    /// and `SEARCH` are statements it dispatches. Per-role or stateful work
    /// reads better through a [`Session`], which threads the options and
    /// keeps the trace.
    pub fn execute_with(
        &self,
        sql: &str,
        opts: &ExecOptions,
    ) -> (Result<ExecOutcome>, Arc<QueryTrace>) {
        let tracer = Tracer::new(self.clock.clone());
        let start_wall = Instant::now();
        let start_sim = self.clock.now_ms();
        let mut telemetry = StatementTelemetry::default();
        let outcome = self.dispatch(sql, opts, &tracer, &mut telemetry);
        let trace = Arc::new(tracer.finish());
        self.record_statement(sql, opts, &outcome, &trace, telemetry, start_sim, start_wall);
        (outcome, trace)
    }

    fn dispatch(
        &self,
        sql: &str,
        opts: &ExecOptions,
        tracer: &Tracer,
        telemetry: &mut StatementTelemetry,
    ) -> Result<ExecOutcome> {
        let _statement = tracer.span("statement");
        // A text planned before, under a stamp that still holds, is neither
        // parsed nor planned.
        let missed = match self.recall(sql) {
            Ok(planned) => {
                let hit = Some(memo::HIT);
                let rows = self.run_query(hit, || Ok(planned), false, opts, tracer, telemetry)?;
                return Ok(ExecOutcome::Rows(Box::new(rows.0)));
            }
            Err(why) => why,
        };
        let stmt = {
            let _parse = tracer.span("parse");
            parse_statement(sql)?
        };
        match stmt {
            Statement::Query(q) => {
                let plan = || self.plan_into_memo(sql, &q, missed);
                let rows = self.run_query(Some(missed), plan, false, opts, tracer, telemetry)?;
                Ok(ExecOutcome::Rows(Box::new(rows.0)))
            }
            Statement::Explain { analyze: false, query } => {
                let _plan = tracer.span("plan");
                let budget = opts.deadline_budget_ms.map(|b| b as f64);
                let (logical, physical, _) =
                    self.finish(self.normalize(&query)?.0, budget, LogicalPlan::display)?;
                Ok(ExecOutcome::Explained(self.annotate_advised(format!(
                    "== Logical plan ==\n{logical}== Physical plan ==\n{}",
                    physical.display()
                ))))
            }
            // Run the query exactly as `Statement::Query` would, then render
            // what came back.
            Statement::Explain { analyze: true, query } => {
                let plan = || self.plan(sql, &query).map(Arc::new);
                let (result, answered) = self.run_query(None, plan, true, opts, tracer, telemetry)?;
                let text = match answered {
                    Answered::FromCache { age_ms, original } => {
                        render_cached(&result, age_ms, &original)
                    }
                    Answered::ByPlan(operators) => {
                        let operators = operators.ok_or_else(|| {
                            EiiError::Execution("EXPLAIN ANALYZE needs executor instrumentation".into())
                        })?;
                        self.annotate_advised(render_analyze(operators, &result, telemetry.flags))
                    }
                };
                Ok(ExecOutcome::Explained(text))
            }
            Statement::CreateView { name, query } => {
                // Validate the body plans before accepting the definition.
                self.catalog.create_view(&name, sql, query.clone())?;
                if let Err(e) = self.normalize(&query) {
                    self.catalog.drop_view(&name);
                    return Err(e);
                }
                Ok(ExecOutcome::ViewCreated(name))
            }
            Statement::Search {
                terms,
                sources,
                limit,
            } => {
                let Some(search) = self.search.get() else {
                    return Err(EiiError::Execution(
                        "no search service attached; call attach_search first".into(),
                    ));
                };
                let (mut hits, _) = search.search(&terms, &opts.role, limit.unwrap_or(10))?;
                if !sources.is_empty() {
                    hits.retain(|h| sources.iter().any(|s| s == &h.source));
                }
                Ok(ExecOutcome::SearchHits(hits))
            }
        }
    }

    /// Planning, first step: build the logical plan and optimize it. Its
    /// `display()` is the result-cache key and the statement fingerprint.
    /// Beside it, what a memo entry for the plan is valid under ([`memo`]),
    /// each part read before the step that plans from it.
    fn normalize(&self, q: &SetQuery) -> Result<(LogicalPlan, Stamp)> {
        let mut stamp = Stamp::begin(&self.federation, &self.catalog);
        let logical = PlanBuilder::new(&self.catalog, &self.federation).build(q)?;
        stamp.read_tables(&logical, &self.federation);
        Ok((optimize(logical, &self.federation, &self.config)?, stamp))
    }

    /// Planning, second step (skipped by a result-cache hit): rewrite the
    /// normalized plan against the materialized views servable right now,
    /// then plan it physically. `budget_ms` is what is left of the
    /// statement's deadline: a tight budget can rescue a view substitution
    /// that pure cost comparison would reject — stale-but-local beats
    /// fresh-but-late. Physical planning consumes the rewritten plan, so
    /// `read` looks at it first: `EXPLAIN` renders it, a query passes a
    /// no-op rather than pay for a copy. Last in the answer: was there no
    /// view to offer? Then it is a function of what the plan's stamp covers.
    fn finish<T>(
        &self,
        optimized: LogicalPlan,
        budget_ms: Option<f64>,
        read: impl FnOnce(&LogicalPlan) -> T,
    ) -> Result<(T, PhysicalPlan, bool)> {
        let views = match (self.matviews.get(), self.config.rewrite_matviews) {
            (Some(mgr), true) => mgr.defs(self.clock.now_ms()),
            _ => Vec::new(),
        };
        let rewritten =
            rewrite_matviews_with_budget(optimized, &views, &self.federation, budget_ms)?;
        let seen = read(&rewritten);
        let physical = PhysicalPlanner::new(&self.federation, &self.config).create(rewritten)?;
        Ok((seen, physical, views.is_empty()))
    }

    /// Everything a query's statement text decides, planned from scratch —
    /// the one planning path; the memo only decides whether it runs.
    fn plan(&self, sql: &str, q: &SetQuery) -> Result<Planned> {
        let (optimized, stamp) = self.normalize(q)?;
        // The cache key is the normalized (optimized) plan, so equivalent
        // SQL shares an entry; base tables drive version validation.
        let key: Arc<str> = optimized.display().into();
        Ok(Planned {
            sql: sql.trim().into(),
            fingerprint: fingerprint64(&key),
            tables: optimized.base_tables(),
            key,
            optimized,
            stamp,
            physical: OnceLock::new(),
        })
    }

    /// The memo's entry for `sql` if its stamp still holds, else why not
    /// ([`memo::STALE`], [`memo::MISS`]) — counted by
    /// [`EiiSystem::plan_into_memo`] when a query is planned because of it;
    /// statements that are never memoized are not misses.
    fn recall(&self, sql: &str) -> std::result::Result<Arc<Planned>, &'static str> {
        match self.memo.get(sql) {
            Some(p) if p.stamp.holds(&self.federation, &self.catalog) => {
                self.metrics().inc(memo::HIT);
                Ok(p)
            }
            Some(_) => Err(memo::STALE),
            None => Err(memo::MISS),
        }
    }

    /// [`EiiSystem::plan`] after a lookup `missed`, memoized unless a write
    /// raced the planner: the stamp, read before each planning step, must
    /// still hold after the last. A plan that failed is not memoized.
    fn plan_into_memo(&self, sql: &str, q: &SetQuery, missed: &str) -> Result<Arc<Planned>> {
        self.metrics().inc(missed);
        let planned = Arc::new(self.plan(sql, q)?);
        if planned.stamp.holds(&self.federation, &self.catalog) {
            self.memo.insert(&planned);
        }
        Ok(planned)
    }

    /// The physical plan of `planned` under what is left of the deadline:
    /// the one kept beside it while there is no view to offer (servability
    /// depends on the clock and the view store, which no stamp covers), else
    /// [`EiiSystem::finish`] on a copy of the normalized plan.
    fn physical(&self, planned: &Planned, budget_ms: Option<f64>) -> Result<Arc<PhysicalPlan>> {
        let offering = self.config.rewrite_matviews
            && self.matviews.get().is_some_and(|m| m.any_servable(self.clock.now_ms()));
        if let (false, Some(kept)) = (offering, planned.physical.get()) {
            return Ok(Arc::clone(kept));
        }
        let ((), physical, no_view) = self.finish(planned.optimized.clone(), budget_ms, |_| ())?;
        let physical = Arc::new(physical);
        if no_view && planned.stamp.holds(&self.federation, &self.catalog) {
            let _ = planned.physical.set(Arc::clone(&physical));
        }
        Ok(physical)
    }

    /// The plan of a query given as SQL text, through the memo, for the
    /// callers that plan without running: [`EiiSystem::predict`] and the
    /// scheduler's permit accounting.
    pub(crate) fn normalize_sql(&self, sql: &str) -> Result<Arc<Planned>> {
        let missed = match self.recall(sql) {
            Ok(planned) => return Ok(planned),
            Err(why) => why,
        };
        match parse_statement(sql)? {
            Statement::Query(q) => self.plan_into_memo(sql, &q, missed),
            _ => Err(EiiError::Plan("expected a query".into())),
        }
    }

    /// Forget every memoized plan, so the next statement plans from scratch:
    /// the twin in `memoized_plans_equal_fresh_plans` calls it before each.
    #[doc(hidden)]
    pub fn forget_plans(&self) {
        self.memo.clear();
    }

    /// Plan and run one query, tracing the plan and execute phases and
    /// grafting the executor's per-operator profile into the trace.
    ///
    /// The full answer path: normalize the plan → probe the semantic cache
    /// (hit: serve memoized rows, fresh or stale-flagged) → rewrite against
    /// materialized views → execute federated → memoize the result. `plan`
    /// yields the normalized plan inside the `plan` span — the plan memo's
    /// entry, or [`EiiSystem::plan`] run now — and `lookup` is how the memo
    /// lookup ended, when there was one. With `analyze`, the answer carries
    /// EXPLAIN ANALYZE's operator lines.
    fn run_query(
        &self,
        lookup: Option<&str>,
        plan: impl FnOnce() -> Result<Arc<Planned>>,
        analyze: bool,
        opts: &ExecOptions,
        tracer: &Tracer,
        telemetry: &mut StatementTelemetry,
    ) -> Result<(QueryResult, Answered)> {
        let start = Instant::now();
        let now = self.clock.now_ms();
        let telemetry_on = self.telemetry_enabled();
        let deadline = opts
            .deadline_budget_ms
            .map(|budget| Deadline::new(self.clock.clone(), budget));
        telemetry.deadline_budget_ms = opts.deadline_budget_ms.map(|b| b as f64);
        let mut ctx = RequestCtx::new();
        if let Some(d) = &deadline {
            ctx = ctx.with_deadline(d.clone());
        }
        if let Some(cancel) = &opts.cancel {
            ctx = ctx.with_cancel(cancel.clone());
        }
        if telemetry_on {
            // Allocate the trace ID up front so resilience events fired
            // mid-statement (hedge, breaker, shed) can reference it; the
            // retention decision happens after the outcome is known.
            let trace_id = self.traces.next_trace_id();
            telemetry.trace_id = Some(trace_id);
            ctx = ctx.with_trace_id(trace_id);
        }
        // A pre-cancelled or pre-expired request never plans, let alone
        // fetches.
        ctx.check().inspect_err(|e| self.count_abort(e))?;
        let plan_span = tracer.span("plan");
        if let Some(outcome) = lookup {
            plan_span.annotate("memo", outcome.trim_start_matches("plan.memo."));
        }
        let planned = plan()?;
        telemetry.fingerprint = planned.fingerprint;
        telemetry.plan = Some(Arc::clone(&planned.key));
        telemetry.sql = Some(Arc::clone(&planned.sql));
        let key = &*planned.key;
        if let Some(cache) = self.cache.get() {
            let probe =
                cache.lookup_with_budget(key, now, &self.federation, opts.staleness_budget_ms);
            let hit = match probe {
                CacheLookup::Hit(hit) => Some((hit, Vec::new())),
                CacheLookup::Stale(hit, reports) => Some((hit, reports)),
                CacheLookup::Miss => None,
            };
            if let Some((hit, reports)) = hit {
                drop(plan_span);
                telemetry.flags.cached = true;
                telemetry.flags.degraded = !reports.is_empty();
                return Ok(self.serve_cached(hit, reports, start, tracer));
            }
        }

        let budget = deadline.as_ref().map(|d| d.remaining_ms() as f64);
        let physical = self.physical(&planned, budget)?;
        telemetry.flags.matview = plan_uses_matview(&physical);
        drop(plan_span);

        let execute = tracer.span("execute");
        // Brownout-degraded queries serve partial answers rather than
        // queueing behind high-priority work.
        let policy = if opts.brownout_degraded {
            DegradationPolicy::PartialResults
        } else {
            self.degradation_policy()
        };
        let result = self
            .executor(policy, ctx)
            .execute(&physical)
            .inspect_err(|e| self.count_abort(e));
        if let Some(d) = &deadline {
            let remaining = d.remaining_ms();
            self.federation
                .metrics()
                .observe("deadline.remaining_ms", remaining as f64);
            if let Some(budget) = opts.deadline_budget_ms {
                telemetry.deadline_spent_ms = Some((budget - remaining).max(0) as f64);
            }
        }
        let result = result?;
        telemetry.flags.hedged = result.hedged;
        telemetry.flags.degraded = !result.degraded.is_empty();
        if telemetry_on {
            telemetry.per_source_bytes = result
                .shipped
                .iter()
                .map(|(source, bytes)| (source.clone(), *bytes as u64))
                .collect();
            // Decide trace retention now that the outcome's flags are
            // known: the per-operator cost-model walk (statistics lookups
            // per scan) is the priciest piece of recording, so without the
            // advisor it only runs for statements tail-sampling keeps —
            // which still covers the first execution of every fingerprint
            // plus everything noteworthy. E18's overhead gate is what holds
            // this honest.
            let keep = self
                .traces
                .should_keep(telemetry.fingerprint, telemetry.flags, false);
            telemetry.kept = Some(keep);
        }
        let (advisor, keep) = (self.advisor.get(), telemetry.kept == Some(true));
        let mut analyzed = None;
        let walk = advisor.is_some() || keep || analyze;
        if let Some(profile) = result.profile.as_ref().filter(|_| walk) {
            // One walk for the advisor's feedback, a kept trace's stats and
            // EXPLAIN ANALYZE's operator lines.
            let ops = operators(&physical, profile, &CostModel::new(&self.federation));
            if let Some(state) = advisor {
                observe_feedback(&ops, &state.feedback);
            }
            if keep {
                telemetry.operators = operator_stats(&ops);
            }
            if analyze {
                let mut text = String::new();
                ops.iter().for_each(|op| render_operator(op, &result.degraded, &mut text));
                analyzed = Some(text);
            }
        }
        execute.annotate("rows", result.batch.num_rows());
        execute.annotate("bytes", result.cost.bytes);
        if !result.degraded.is_empty() {
            execute.annotate("degraded", result.degraded.len());
        }
        if let Some(profile) = &result.profile {
            tracer.attach(profile.to_span());
        }
        drop(execute);

        self.credit_matview_savings(&physical);

        if let Some(cache) = self.cache.get() {
            let versions = ResultCache::probe_versions(&self.federation, &planned.tables);
            let shipped = result.shipped.clone();
            cache.fill(key, result.batch.clone(), result.cost, shipped, versions, now);
        }
        Ok((result, Answered::ByPlan(analyzed)))
    }

    /// Serve a memoized result: credit every byte the original execution
    /// shipped to the saved side of the ledger, and report stale entries
    /// exactly like degraded (stale-fallback) answers.
    fn serve_cached(
        &self,
        hit: CachedResult,
        reports: Vec<SourceReport>,
        start: Instant,
        tracer: &Tracer,
    ) -> (QueryResult, Answered) {
        let metrics = self.federation.metrics();
        for (source, bytes) in &hit.per_source_bytes {
            self.federation.note_saved(source, *bytes);
        }
        metrics.add("cache.bytes_saved", hit.cost.bytes as u64);
        metrics.observe("cache.age_ms", hit.age_ms as f64);
        let span = tracer.span("cache_hit");
        span.annotate("rows", hit.batch.num_rows());
        span.annotate("age_ms", hit.age_ms as usize);
        drop(span);
        let rows = hit.batch.num_rows();
        let answered = Answered::FromCache {
            age_ms: hit.age_ms,
            original: hit.cost,
        };
        let result = QueryResult {
            batch: hit.batch,
            cost: QueryCost {
                sim_ms: CACHE_HIT_MS + rows as f64 * CACHE_HUB_MS_PER_ROW,
                ..QueryCost::default()
            },
            wall: start.elapsed(),
            degraded: reports,
            profile: None,
            hedged: false,
            shipped: Vec::new(),
        };
        (result, answered)
    }

    /// Credit the bytes each `MatViewScan` in the executed plan avoided
    /// shipping, per source, and count the rewrites.
    fn credit_matview_savings(&self, plan: &PhysicalPlan) {
        let mut saved: Vec<(String, f64)> = Vec::new();
        let mut scans = 0usize;
        collect_matview_savings(plan, &mut saved, &mut scans);
        if scans == 0 {
            return;
        }
        let metrics = self.federation.metrics();
        metrics.add("matview.hits", scans as u64);
        for (source, bytes) in saved {
            self.federation.note_saved(&source, bytes as usize);
            metrics.add("matview.bytes_saved", bytes as u64);
        }
    }

    /// The executor every statement runs on, wired with everything the
    /// system has configured; the one place an executor option is attached.
    fn executor(&self, policy: DegradationPolicy, ctx: RequestCtx) -> Executor<'_> {
        let mut exec = Executor::new(&self.federation)
            .with_degradation(policy, self.fallbacks.clone())
            .with_metrics(self.exec_metrics.clone())
            .with_batch_size(self.config.batch_size)
            .with_request_ctx(ctx);
        if let Some(policy) = self.hedge_policy() {
            exec = exec.with_hedging(policy);
        }
        if let Some(mgr) = self.matviews.get() {
            exec = exec.with_matviews(mgr.store());
        }
        if let Some(state) = self.advisor.get() {
            exec = exec.with_replan(ReplanPolicy {
                feedback: Arc::clone(&state.feedback),
                factor: state.advisor.config().replan_factor,
            });
        }
        exec
    }

    /// The durable workload query log: per-statement records (sampled into
    /// a bounded ring) plus exact per-fingerprint aggregates and top-k
    /// workload rankings.
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }

    /// The sampled trace store: last-N retention with tail-sampling (every
    /// error/hedged/shed/degraded/cancelled statement keeps its trace) and
    /// Chrome trace-event export via [`eii_obs::chrome_trace_json`].
    pub fn trace_store(&self) -> &TraceStore {
        &self.traces
    }

    /// Register (or replace) a latency/availability objective for a
    /// priority tier.
    pub fn set_slo_objective(&self, objective: SloObjective) {
        self.slo.set_objective(objective);
    }

    /// Evaluate every registered SLO objective at the current virtual time,
    /// publish `slo.<priority>.*` metrics, and return the typed statuses.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        let statuses = self.slo.evaluate(self.clock.now_ms() as f64);
        let metrics = self.metrics();
        for status in &statuses {
            let p = &status.priority;
            let worst = |burns: &[eii_obs::WindowBurn]| {
                burns.iter().map(|b| b.burn_rate).fold(0.0f64, f64::max)
            };
            metrics.observe(&format!("slo.{p}.latency_burn"), worst(&status.latency_burn));
            metrics.observe(
                &format!("slo.{p}.availability_burn"),
                worst(&status.availability_burn),
            );
            metrics.observe(
                &format!("slo.{p}.state"),
                match status.state() {
                    eii_obs::SloState::Healthy => 0.0,
                    eii_obs::SloState::AtRisk => 1.0,
                    eii_obs::SloState::Breached => 2.0,
                },
            );
        }
        statuses
    }

    /// Turn the telemetry pipeline (query log, trace store, SLO samples)
    /// on or off. On by default; E18 holds its overhead under 5%.
    pub fn set_telemetry_enabled(&self, enabled: bool) {
        self.telemetry.store(enabled, Ordering::Relaxed);
    }

    /// Whether the telemetry pipeline is currently recording.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.load(Ordering::Relaxed)
    }

    /// Record one finished statement into the telemetry pipeline: decide
    /// trace retention (tail-sampling), feed the SLO monitor, and append
    /// the query-log record. No-op when telemetry is disabled.
    #[allow(clippy::too_many_arguments)]
    fn record_statement(
        &self,
        sql: &str,
        opts: &ExecOptions,
        outcome: &Result<ExecOutcome>,
        trace: &Arc<QueryTrace>,
        mut t: StatementTelemetry,
        start_sim_ms: i64,
        start_wall: Instant,
    ) {
        if !self.telemetry_enabled() {
            return;
        }
        let end_sim = self.clock.now_ms();
        let (rows, bytes_shipped, sim_ms) = match outcome {
            Ok(ExecOutcome::Rows(r)) => {
                (r.batch.num_rows() as u64, r.cost.bytes as u64, r.cost.sim_ms)
            }
            _ => (0, 0, (end_sim - start_sim_ms) as f64),
        };
        let error = outcome.as_ref().err().map(|e| e.kind().to_string());
        match error.as_deref() {
            Some("cancelled") | Some("deadline") => t.flags.cancelled = true,
            Some("shed") => t.flags.shed = true,
            _ => {}
        }
        let sql = t.sql.unwrap_or_else(|| sql.trim().into());
        // Statements that never reached planning (parse errors, DDL,
        // search) fingerprint on their normalized SQL text.
        let plan = t.plan.unwrap_or_else(|| Arc::clone(&sql));
        if t.fingerprint == 0 {
            t.fingerprint = fingerprint64(&plan);
        }
        let errored = error.is_some();
        let keep = t
            .kept
            .unwrap_or_else(|| self.traces.should_keep(t.fingerprint, t.flags, errored));
        let trace_id = if keep {
            let id = t.trace_id.unwrap_or_else(|| self.traces.next_trace_id());
            self.traces.store(StoredTrace {
                trace_id: id,
                fingerprint: t.fingerprint,
                session: opts.session.clone(),
                start_sim_ms: start_sim_ms as f64,
                flags: t.flags,
                error: error.clone(),
                trace: Arc::clone(trace),
            });
            Some(id)
        } else {
            None
        };
        self.slo
            .record(opts.priority.as_str(), end_sim as f64, sim_ms, !errored);
        let fingerprint = t.fingerprint;
        let advisor_hit = t.flags.matview || t.flags.cached;
        self.query_log.record(QueryLogRecord {
            fingerprint: t.fingerprint,
            plan,
            sql,
            session: opts.session.clone(),
            role: opts.role.clone(),
            priority: opts.priority.as_str().to_string(),
            start_sim_ms: start_sim_ms as f64,
            sim_ms,
            wall_us: start_wall.elapsed().as_micros() as u64,
            rows,
            bytes_shipped,
            per_source_bytes: t.per_source_bytes,
            operators: t.operators,
            deadline_budget_ms: t.deadline_budget_ms,
            deadline_spent_ms: t.deadline_spent_ms,
            flags: t.flags,
            error,
            trace_id,
        });
        // The advisor loop piggybacks on statement recording: observe the
        // outcome (did an installed view or the cache answer it?) and run
        // an advisory cycle at the configured cadence. Cycles execute view
        // definitions directly against the matview manager — no statements
        // run, so this cannot recurse.
        if let Some(state) = self.advisor.get() {
            if state.advisor.observe_statement(fingerprint, advisor_hit) {
                self.run_advisor_cycle();
            }
        }
    }

    /// Record a statement the admission controller turned away (`err` is its
    /// `shed` error): a `shed` telemetry event stamped with the trace ID,
    /// and — through [`EiiSystem::record_statement`], which always retains
    /// an errored statement — a single-span trace, an SLO sample and a
    /// query-log record.
    pub(crate) fn record_shed(&self, sql: &str, opts: &ExecOptions, err: &EiiError) {
        if !self.telemetry_enabled() {
            return;
        }
        let now = self.clock.now_ms();
        let trace_id = self.traces.next_trace_id();
        let tracer = Tracer::new(self.clock.clone());
        tracer.span("shed").annotate("priority", opts.priority.as_str());
        self.metrics().record_event(TelemetryEvent {
            sim_ms: now as f64,
            kind: "shed".to_string(),
            source: "admission".to_string(),
            trace_id: Some(trace_id),
            detail: format!("priority={}", opts.priority.as_str()),
        });
        let telemetry = StatementTelemetry {
            trace_id: Some(trace_id),
            deadline_budget_ms: opts.deadline_budget_ms.map(|b| b as f64),
            ..StatementTelemetry::default()
        };
        let trace = Arc::new(tracer.finish());
        self.record_statement(sql, opts, &Err(err.clone()), &trace, telemetry, now, Instant::now());
    }

    /// The metrics registry every query, source, breaker, and saga records
    /// into.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.federation.metrics()
    }

    /// Current health of every registered source: cumulative traffic,
    /// failures and retries, circuit-breaker state, and the last error.
    pub fn source_health(&self) -> Vec<SourceHealth> {
        self.federation.source_health()
    }

    /// Predict a query's cost without executing it (experiment E12's
    /// "query execution-time prediction").
    pub fn predict(&self, sql: &str) -> Result<PlanEstimate> {
        CostModel::new(&self.federation).estimate(&self.normalize_sql(sql)?.optimized)
    }

    /// Run a business process as a saga (the update half of enterprise
    /// integration; see Carey §4).
    pub fn run_process(
        &self,
        def: &ProcessDef,
        vars: std::collections::HashMap<String, eii_data::Value>,
    ) -> Result<(SagaOutcome, Vec<eii_eai::JournalEntry>)> {
        let env = ProcessEnv::new(&self.federation, &self.broker, &self.clock, vars);
        SagaEngine::new(self.clock.clone())
            .with_metrics(self.federation.metrics().clone())
            .run(def, &env)
    }
}

/// Does the physical plan scan any materialized view?
fn plan_uses_matview(plan: &PhysicalPlan) -> bool {
    matches!(plan, PhysicalPlan::MatViewScan { .. })
        || plan.children().iter().any(|c| plan_uses_matview(c))
}

/// One executed operator, as [`operators`] lists it.
struct Operator<'a> {
    plan: &'a PhysicalPlan,
    profile: &'a OperatorProfile,
    /// Depth in the plan; the root's is 0.
    depth: usize,
    /// The uncorrected cost model's estimate of the operator's subtree.
    est: PlanEstimate,
}

/// Every operator of an executed plan, in preorder, estimated once: each
/// node's estimate is derived from its children's
/// ([`CostModel::estimate_from_children`]), so the whole tree costs one
/// source-statistics lookup per scan. `model` carries no feedback, so the
/// ratios the advisor stores stay actual over raw estimate instead of chasing
/// their own corrections.
fn operators<'a>(
    plan: &'a PhysicalPlan,
    profile: &'a OperatorProfile,
    model: &CostModel,
) -> Vec<Operator<'a>> {
    fn walk<'a>(
        (plan, profile): (&'a PhysicalPlan, &'a OperatorProfile),
        depth: usize,
        model: &CostModel,
        out: &mut Vec<Operator<'a>>,
    ) -> PlanEstimate {
        let slot = out.len();
        out.push(Operator { plan, profile, depth, est: PlanEstimate::default() });
        let children = plan.children().into_iter().zip(&profile.children);
        let kids: Vec<PlanEstimate> = children.map(|c| walk(c, depth + 1, model, out)).collect();
        out[slot].est = model.estimate_from_children(plan, &kids);
        out[slot].est
    }
    let mut out = Vec::new();
    walk((plan, profile), 0, model, &mut out);
    out
}

/// The query log's per-operator estimated-vs-actual stats, keyed by dotted
/// path (`0`, `0.1`, ...).
fn operator_stats(ops: &[Operator]) -> Vec<OperatorStat> {
    let mut path: Vec<usize> = Vec::new();
    let stat = |op: &Operator| {
        // The next operator in preorder is a first child or a later sibling.
        if op.depth == path.len() {
            path.push(0);
        } else {
            path.truncate(op.depth + 1);
            path[op.depth] += 1;
        }
        OperatorStat {
            path: path.iter().map(usize::to_string).collect::<Vec<_>>().join("."),
            label: op.profile.label.to_string(),
            est_rows: op.est.rows.round() as u64,
            actual_rows: op.profile.rows as u64,
            bytes: op.profile.cost.bytes as u64,
            sim_ms: op.profile.cost.sim_ms,
        }
    };
    ops.iter().map(stat).collect()
}

/// Fold one execution's per-operator actuals into the advisor's
/// cardinality-feedback store, keyed by plan-node fingerprint: children
/// before their parent, left to right.
fn observe_feedback(ops: &[Operator], feedback: &CardinalityFeedback) {
    let observe = |op: &Operator| {
        let key = CardinalityFeedback::node_key(op.plan);
        feedback.observe(key, op.est.rows, op.profile.rows as f64);
    };
    // An operator is observed when its subtree ends: at the next operator no
    // deeper than it, or at the end of the plan.
    let mut pending: Vec<&Operator> = Vec::new();
    for op in ops {
        while let Some(&done) = pending.last().filter(|p| p.depth >= op.depth) {
            pending.pop();
            observe(done);
        }
        pending.push(op);
    }
    pending.into_iter().rev().for_each(observe);
}

/// Accumulate the per-source saved-bytes estimates of every `MatViewScan`
/// in the plan, counting the scans.
fn collect_matview_savings(plan: &PhysicalPlan, saved: &mut Vec<(String, f64)>, scans: &mut usize) {
    if let PhysicalPlan::MatViewScan { saved: s, .. } = plan {
        *scans += 1;
        for (source, bytes) in s {
            match saved.iter_mut().find(|(name, _)| name == source) {
                Some((_, acc)) => *acc += bytes,
                None => saved.push((source.clone(), *bytes)),
            }
        }
    }
    for child in plan.children() {
        collect_matview_savings(child, saved, scans);
    }
}

/// How [`EiiSystem::run_query`] came by its answer — what `EXPLAIN ANALYZE`
/// renders next to the result.
enum Answered {
    /// Executed a physical plan; when asked, its operators' EXPLAIN ANALYZE
    /// lines (none when the executor kept no profile).
    ByPlan(Option<String>),
    /// Served from the semantic result cache: the entry's age and what the
    /// execution that filled it cost.
    FromCache { age_ms: i64, original: QueryCost },
}

/// Render the `EXPLAIN ANALYZE` output for a semantic-cache hit: no
/// operator tree ran, so the header says where the rows came from, and any
/// staleness is flagged the way degraded sources are.
fn render_cached(result: &QueryResult, age_ms: i64, original: &QueryCost) -> String {
    let rows = result.batch.num_rows();
    let mut out = String::new();
    let _ = write!(
        out,
        "Result [CACHED] semantic result cache hit (age={age_ms}ms, originally \
         rows={rows} bytes={} sim={:.1}ms)",
        original.bytes, original.sim_ms
    );
    for report in &result.degraded {
        let _ = write!(
            out,
            " [STALE: {}.{} {}ms]",
            report.source,
            report.table,
            report.stale_ms.unwrap_or(0)
        );
    }
    out.push('\n');
    let _ = write!(
        out,
        "Total: rows={rows} bytes=0 sim={:.1}ms (served from cache)",
        result.cost.sim_ms
    );
    out.push('\n');
    out
}

/// Render the `EXPLAIN ANALYZE` output of an executed plan: its operator
/// lines, then the statement's totals and flags.
fn render_analyze(mut out: String, result: &QueryResult, flags: StatementFlags) -> String {
    let _ = write!(
        out,
        "Total: rows={} bytes={} sim={:.1}ms wall={:.1?}",
        result.batch.num_rows(),
        result.cost.bytes,
        result.cost.sim_ms,
        result.wall,
    );
    if !result.fully_live() {
        let _ = write!(out, " degraded_sources={}", result.degraded.len());
    }
    let flags = flags.render();
    if !flags.is_empty() {
        let _ = write!(out, " flags={flags}");
    }
    out.push('\n');
    out
}

/// Render one `EXPLAIN ANALYZE` line per operator: the describe line, the
/// pushdown summary (source-facing operators), the cost model's estimate
/// next to the measured actuals, and a `[DEGRADED: ...]` flag on operators
/// whose source could not answer live.
fn render_operator(op: &Operator, degraded: &[SourceReport], out: &mut String) {
    let (plan, profile, est) = (op.plan, op.profile, op.est);
    out.push_str(&"  ".repeat(op.depth));
    out.push_str(&plan.describe());
    if let Some(p) = plan.pushdown() {
        let _ = write!(out, " {p}");
    }
    let _ = write!(
        out,
        " (est rows={:.0} bytes={:.0} sim={:.1}ms",
        est.rows, est.bytes, est.sim_ms
    );
    let _ = write!(
        out,
        " | act rows={} bytes={} sim={:.1}ms wall={:.1?})",
        profile.rows, profile.cost.bytes, profile.cost.sim_ms, profile.wall
    );
    if profile.replanned {
        out.push_str(" [REPLANNED]");
    }
    if let Some(k) = profile.top {
        let _ = write!(out, " [TOP {k}]");
    }
    if let Some((k, n)) = profile.columns {
        let _ = write!(out, " [COLS {k}/{n}]");
    }
    if let Some(src) = &profile.source {
        for report in degraded.iter().filter(|r| *r.source == **src) {
            match report.stale_ms {
                Some(ms) => {
                    let _ = write!(out, " [DEGRADED: {} stale {}ms]", report.table, ms);
                }
                None => {
                    let _ = write!(out, " [DEGRADED: {} dropped: {}]", report.table, report.error);
                }
            }
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use eii_data::row;

    fn system() -> EiiSystem {
        let clock = SimClock::new();
        let crm = Database::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("region", DataType::Str),
        ]));
        let t = crm
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        {
            let mut t = t.write();
            t.insert(row![1i64, "alice", "west"]).unwrap();
            t.insert(row![2i64, "bob", "east"]).unwrap();
        }
        let sys = EiiSystem::new(clock);
        sys.add_source(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        sys
    }

    /// The rendered plan of an `EXPLAIN [ANALYZE]` statement.
    fn explained(sys: &EiiSystem, statement: &str) -> String {
        sys.execute(statement).unwrap().explained().unwrap().to_string()
    }

    #[test]
    fn query_through_facade() {
        let sys = system();
        let out = sys.execute("SELECT name FROM crm.customers ORDER BY name").unwrap();
        let batch = out.rows().unwrap();
        assert_eq!(batch.num_rows(), 2);
    }

    #[test]
    fn view_lifecycle_through_facade() {
        let sys = system();
        let out = sys
            .execute("CREATE VIEW west AS SELECT * FROM crm.customers WHERE region = 'west'")
            .unwrap();
        assert!(matches!(out, ExecOutcome::ViewCreated(ref n) if n == "west"));
        let rows = sys.execute("SELECT name FROM west").unwrap();
        assert_eq!(rows.rows().unwrap().num_rows(), 1);
    }

    #[test]
    fn bad_view_body_is_rejected_and_not_registered() {
        let sys = system();
        let err = sys
            .execute("CREATE VIEW broken AS SELECT x FROM no.such_table")
            .unwrap_err();
        assert_eq!(err.kind(), "not_found");
        assert!(sys.catalog().view("broken").is_none());
    }

    #[test]
    fn explain_shows_both_plans() {
        let sys = system();
        let text = explained(&sys, "EXPLAIN SELECT name FROM crm.customers WHERE region = 'west'");
        assert!(text.contains("== Logical plan =="));
        assert!(text.contains("SourceQuery crm"));
        assert!(text.contains("pushed="), "{text}");
    }

    #[test]
    fn predict_returns_estimate() {
        let sys = system();
        let est = sys.predict("SELECT name FROM crm.customers").unwrap();
        assert!(est.rows > 0.0);
        assert!(est.sim_ms > 0.0);
    }

    #[test]
    fn search_requires_attachment() {
        let sys = system();
        let err = sys.execute("SEARCH 'acme'").unwrap_err();
        assert_eq!(err.kind(), "execution");
    }

    #[test]
    fn matview_rewrite_answers_locally_and_credits_saved_bytes() {
        let sys = system();
        sys.define_matview(
            "all_customers",
            "SELECT * FROM crm.customers",
            RefreshPolicy::Manual,
        )
        .unwrap();
        let shipped_before = sys.federation().ledger().total().bytes;

        // EXPLAIN shows the substitution with both alternatives' costs.
        let text = explained(&sys, "EXPLAIN SELECT * FROM crm.customers");
        assert!(text.contains("[MATVIEW]"), "{text}");
        assert!(text.contains("rejected federated"), "{text}");

        let out = sys.execute("SELECT * FROM crm.customers").unwrap();
        assert_eq!(out.rows().unwrap().num_rows(), 2);
        let total = sys.federation().ledger().total();
        assert_eq!(
            total.bytes, shipped_before,
            "the rewritten query must ship nothing"
        );
        assert!(total.bytes_saved > 0, "savings are credited to the ledger");
        assert_eq!(sys.metrics().snapshot().counter("matview.hits"), 1);
    }

    #[test]
    fn matview_rewrite_compensates_narrower_scans() {
        let sys = system();
        sys.define_matview(
            "all_customers",
            "SELECT * FROM crm.customers",
            RefreshPolicy::Manual,
        )
        .unwrap();
        let before = sys.federation().ledger().total().bytes;
        let out = sys
            .execute("SELECT name FROM crm.customers WHERE region = 'west'")
            .unwrap();
        let batch = out.rows().unwrap();
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(batch.rows()[0], row!["alice"]);
        assert_eq!(
            sys.federation().ledger().total().bytes,
            before,
            "containment rewrite must not touch the source"
        );
    }

    #[test]
    fn incremental_matview_refreshes_cache_entry_in_place() {
        let clock = SimClock::new();
        let crm = Database::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
        ]));
        let t = crm
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        t.write().insert(row![1i64, "alice"]).unwrap();
        let sys = EiiSystem::new(clock);
        sys.add_source(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        sys.install_result_cache(CacheConfig::default());
        let q = "SELECT name FROM crm.customers";
        // The view's definition matches the query, so both share a plan
        // key in the result cache.
        assert!(sys
            .define_incremental_matview("names", q, RefreshPolicy::Manual)
            .unwrap()
            .is_none());
        sys.execute(q).unwrap(); // fills the cache
        t.write().insert(row![2i64, "bob"]).unwrap();
        // An incremental refresh pushes the delta into the view AND the
        // cached entry: the next read hits fresh data without rerunning.
        sys.refresh_matview("names").unwrap();
        let shipped = sys.federation().ledger().total().bytes;
        let out = sys.execute(q).unwrap();
        assert_eq!(out.rows().unwrap().num_rows(), 2, "hit serves fresh rows");
        assert_eq!(
            sys.federation().ledger().total().bytes,
            shipped,
            "served from the refreshed cache entry, nothing shipped"
        );
        let snap = sys.metrics().snapshot();
        assert_eq!(snap.counter("cache.refreshed"), 1);
        assert_eq!(snap.counter("cache.invalidations"), 0);
        // Bootstrap + explicit refresh, one delta row consumed.
        assert_eq!(snap.counter("ivm.refreshes"), 2);
        assert_eq!(snap.counter("ivm.delta_rows"), 2);
        let status = sys.matviews().unwrap().ivm_status("names").unwrap();
        assert!(status.incremental);
        assert_eq!(status.stats.refreshes, 2);
    }

    #[test]
    fn scheduled_refresh_honors_pool_and_cancellation() {
        let sys = Arc::new(system());
        sys.define_incremental_matview(
            "v",
            "SELECT id FROM crm.customers",
            RefreshPolicy::Manual,
        )
        .unwrap();
        let sched = sys.scheduler(AdmissionConfig::default());
        let (ticket, decision) = sched
            .submit_refresh("v", &ExecOptions::default())
            .unwrap();
        assert_eq!(decision, ShedDecision::Admit);
        let out = ticket.join().unwrap();
        assert!(matches!(out, ExecOutcome::Refreshed { ref view, .. } if view == "v"));
        // A pre-tripped cancel token stops the refresh before any
        // maintenance stage runs.
        let cancel = CancelToken::new();
        cancel.cancel("client gone");
        let opts = ExecOptions {
            cancel: Some(cancel),
            ..ExecOptions::default()
        };
        let (ticket, _) = sched.submit_refresh("v", &opts).unwrap();
        assert_eq!(ticket.join().unwrap_err().kind(), "cancelled");
        sched.finish();
    }

    #[test]
    fn result_cache_serves_repeats_and_invalidates_on_writes() {
        let clock = SimClock::new();
        let crm = Database::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
        ]));
        let t = crm
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        t.write().insert(row![1i64, "alice"]).unwrap();
        let sys = EiiSystem::new(clock);
        sys.add_source(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        sys.install_result_cache(CacheConfig::default());

        let q = "SELECT name FROM crm.customers";
        sys.execute(q).unwrap();
        let shipped_after_first = sys.federation().ledger().total().bytes;
        let out = sys.execute(q).unwrap();
        assert_eq!(out.rows().unwrap().num_rows(), 1);
        assert_eq!(
            sys.federation().ledger().total().bytes,
            shipped_after_first,
            "second run is a cache hit"
        );
        let snap = sys.metrics().snapshot();
        assert_eq!(snap.counter("cache.hits"), 1);
        assert_eq!(snap.counter("cache.misses"), 1);
        assert!(sys.federation().ledger().total().bytes_saved > 0);

        // A write to the base table bumps its change-log watermark: the
        // next read must miss and see the new row.
        t.write().insert(row![2i64, "bob"]).unwrap();
        let out = sys.execute(q).unwrap();
        assert_eq!(out.rows().unwrap().num_rows(), 2, "fresh data after write");
        assert!(
            sys.federation().ledger().total().bytes > shipped_after_first,
            "the refreshed answer came from the source"
        );
    }

    #[test]
    fn explain_analyze_flags_cached_results() {
        let sys = system();
        sys.install_result_cache(CacheConfig::default());
        let q = "SELECT name FROM crm.customers";
        sys.execute(q).unwrap();
        let text = explained(&sys, &format!("EXPLAIN ANALYZE {q}"));
        assert!(text.contains("[CACHED]"), "{text}");
        assert!(text.contains("served from cache"), "{text}");
        // A query the cache has not seen renders the normal operator tree.
        let text = explained(&sys, "EXPLAIN ANALYZE SELECT id FROM crm.customers");
        assert!(!text.contains("[CACHED]"), "{text}");
        assert!(text.contains("act rows="), "{text}");
    }

    #[test]
    fn advisor_materializes_hot_fingerprints_and_annotates_plans() {
        let sys = system();
        assert!(sys.enable_advisor(AdvisorConfig {
            advise_every: 4,
            min_count: 2,
            ..AdvisorConfig::default()
        }));
        assert!(
            !sys.enable_advisor(AdvisorConfig::default()),
            "second enable must be rejected"
        );
        let q = "SELECT name FROM crm.customers";
        let baseline: Vec<Row> = sys.execute(q).unwrap().rows().unwrap().rows().to_vec();
        for _ in 0..3 {
            sys.execute(q).unwrap();
        }
        // The 4th statement crossed the cycle boundary: the hot
        // fingerprint is now materialized as a live IVM view.
        let installed = sys.advisor().unwrap().installed();
        assert_eq!(installed.len(), 1, "{}", sys.advisor_report());
        assert!(installed[0].name.starts_with("adv_"));
        let text = explained(&sys, &format!("EXPLAIN {q}"));
        assert!(text.contains("[ADVISED]"), "{text}");
        // Answers are unchanged, and the repeat ships nothing.
        let shipped = sys.federation().ledger().total().bytes;
        let out = sys.execute(q).unwrap();
        assert_eq!(out.rows().unwrap().rows(), &baseline[..]);
        assert_eq!(sys.federation().ledger().total().bytes, shipped);
        let snap = sys.metrics().snapshot();
        assert!(snap.counter("advisor.cycles") >= 1);
        assert_eq!(snap.counter("advisor.materialized"), 1);
        assert!(sys.advisor_report().contains("materialize adv_"));
    }

    #[test]
    fn advisor_replans_diverging_hub_joins_and_flags_them() {
        let clock = SimClock::new();
        let crm = Database::new("crm", clock.clone());
        let cschema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
        ]));
        let ct = crm
            .create_table(TableDef::new("customers", cschema).with_primary_key(0))
            .unwrap();
        let sales = Database::new("sales", clock.clone());
        let oschema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("customer_id", DataType::Int),
        ]));
        let ot = sales
            .create_table(TableDef::new("orders", oschema).with_primary_key(0))
            .unwrap();
        {
            let mut t = ct.write();
            t.insert(row![1i64, "alice"]).unwrap();
            t.insert(row![2i64, "bob"]).unwrap();
        }
        {
            let mut t = ot.write();
            for i in 0..10i64 {
                t.insert(row![i, i % 2 + 1]).unwrap();
            }
        }
        // Hub hash joins only: no bind joins, no assembly-site pushout.
        let sys = EiiSystem::new(clock).with_config(PlannerConfig {
            use_bind_joins: false,
            choose_assembly_site: false,
            ..PlannerConfig::optimized()
        });
        sys.add_source(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        sys.add_source(
            Arc::new(RelationalConnector::new(sales)),
            LinkProfile::wan(),
            WireFormat::Native,
        )
        .unwrap();
        let q = "SELECT c.name FROM crm.customers c \
                 JOIN sales.orders o ON c.id = o.customer_id ORDER BY c.name";
        let baseline: Vec<Row> = sys.execute(q).unwrap().rows().unwrap().rows().to_vec();
        // Factor 1.0: every eligible join counts as diverged, so the
        // build side is re-issued as a binding-filtered fetch.
        sys.enable_advisor(AdvisorConfig {
            replan_factor: 1.0,
            advise_every: 1_000_000,
            ..AdvisorConfig::default()
        });
        let out = sys.execute(q).unwrap();
        assert_eq!(
            out.rows().unwrap().rows(),
            &baseline[..],
            "adaptation must preserve answers"
        );
        let text = explained(&sys, &format!("EXPLAIN ANALYZE {q}"));
        assert!(text.contains("[REPLANNED]"), "{text}");
        assert!(sys.metrics().snapshot().counter("advisor.replans") >= 1);
    }

    /// The shared-reference facade API covers the whole setup surface the
    /// removed `&mut self` mutators used to: sources, degradation policy,
    /// result cache, matviews, and federation tuning.
    #[test]
    fn facade_setup_api_covers_former_mutators() {
        let clock = SimClock::new();
        let crm = Database::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
        ]));
        let t = crm
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        t.write().insert(row![1i64, "alice"]).unwrap();
        let sys = EiiSystem::new(clock).with_config(PlannerConfig::optimized());
        sys.add_source(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        sys.set_degradation_policy(DegradationPolicy::Fail);
        sys.install_result_cache(CacheConfig::default());
        sys.define_matview(
            "all_customers",
            "SELECT * FROM crm.customers",
            RefreshPolicy::Manual,
        )
        .unwrap();
        sys.federation().set_scan_speed("crm", 0.001).unwrap();
        let out = sys.execute("SELECT name FROM crm.customers").unwrap();
        assert_eq!(out.rows().unwrap().num_rows(), 1);
    }

    /// The feedback store is fed a statement's operators children before
    /// their parent, left to right. Its moving average depends on the order,
    /// so four operators sharing one key (preorder depths 0, 1, 2, 1) end
    /// where feeding their rows by hand in that order ends, and not where
    /// preorder does.
    #[test]
    fn feedback_is_observed_children_first_left_to_right() {
        let plan = PhysicalPlan::Values { schema: Arc::new(Schema::new(vec![])), rows: vec![] };
        let profile = |rows| OperatorProfile {
            label: "Values",
            source: None,
            rows,
            cost: QueryCost::default(),
            wall: std::time::Duration::ZERO,
            hedged: false,
            backup_won: false,
            replanned: false,
            top: None,
            columns: None,
            children: Vec::new(),
        };
        let profiles = [1, 2, 3, 4].map(profile);
        let est = PlanEstimate { rows: 10.0, ..PlanEstimate::default() };
        let ops: Vec<Operator> = profiles
            .iter()
            .zip([0, 1, 2, 1])
            .map(|(profile, depth)| Operator { plan: &plan, profile, depth, est })
            .collect();
        let fed = CardinalityFeedback::new();
        observe_feedback(&ops, &fed);
        let key = CardinalityFeedback::node_key(&plan);
        let by_hand = |order: [u32; 4]| {
            let store = CardinalityFeedback::new();
            for rows in order {
                store.observe(key, 10.0, rows as f64);
            }
            store.correction(key)
        };
        assert_eq!(fed.correction(key), by_hand([3, 2, 4, 1]));
        assert_ne!(fed.correction(key), by_hand([1, 2, 3, 4]));
    }
}
