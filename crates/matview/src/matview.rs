//! Materialized views over the federation.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use eii_catalog::Catalog;
use eii_data::{Batch, ColumnarBatch, EiiError, Result, SchemaRef, SimClock};
use eii_exec::{Executor, SnapshotStore};
use eii_federation::{Federation, RequestCtx};
use eii_planner::{
    derive_maintenance_plan, optimize, FallbackReason, LogicalPlan, MaintenanceDecision,
    MatViewDef, PhysicalPlan, PhysicalPlanner, PlanBuilder, PlannerConfig,
};
use eii_sql::parse_query;

use crate::ivm::{changes_to_delta, IvmState, IvmStats, TableDeltas};

/// When a view's cached result is recomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Never cache: every fetch runs the federated query (fresh, slow).
    Live,
    /// Recompute when the cache is older than the interval.
    Periodic {
        /// Maximum cache age before a fetch recomputes, simulated ms.
        interval_ms: i64,
    },
    /// Recompute only on explicit [`MatViewManager::refresh`].
    Manual,
}

/// How a fetch was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchOutcome {
    /// Simulated cost paid by this fetch (0-ish for cache hits).
    pub sim_ms: f64,
    /// Age of the served data, ms (0 when computed live).
    pub staleness_ms: i64,
    /// Whether the fetch ran the federated query.
    pub recomputed: bool,
}

/// Maintenance status of one view, for experiments and dashboards.
#[derive(Debug)]
pub struct IvmStatus {
    /// Whether refreshes apply change-log deltas instead of recomputing.
    pub incremental: bool,
    /// Why an incrementally-defined view fell back to full recompute.
    pub fallback: Option<FallbackReason>,
    /// Cumulative maintenance statistics (zeroed for non-incremental
    /// views).
    pub stats: IvmStats,
}

struct ViewState {
    plan: PhysicalPlan,
    /// The optimized logical definition, exported to the planner's
    /// answering-queries-using-views rewrite pass.
    logical: Arc<LogicalPlan>,
    schema: SchemaRef,
    policy: RefreshPolicy,
    refresh_count: usize,
    total_refresh_ms: f64,
    /// Delta-maintenance state when the view is incrementally maintained.
    ivm: Option<IvmState>,
    /// Set when [`MatViewManager::define_incremental`] had to fall back.
    fallback: Option<FallbackReason>,
}

impl ViewState {
    /// Is a materialization stamped `as_of_ms` servable at `now_ms` without
    /// a recompute? Periodic views are within their interval; manual views
    /// always. Live views are servable only while incrementally maintained:
    /// eager on-write maintenance ([`Inner::on_base_write`]) keeps their
    /// materialization exactly equal to a fresh recompute, so serving it
    /// *is* serving live data. A live view without IVM state recomputes on
    /// every fetch, as before.
    fn servable(&self, as_of_ms: i64, now_ms: i64) -> bool {
        match self.policy {
            RefreshPolicy::Live => self.ivm.is_some(),
            RefreshPolicy::Periodic { interval_ms } => now_ms - as_of_ms < interval_ms,
            RefreshPolicy::Manual => true,
        }
    }
}

/// Manages a set of materialized views.
///
/// The state lives behind an `Arc` so the federation's write listener —
/// the hook that eagerly maintains [`RefreshPolicy::Live`] views — can
/// hold a *weak* handle back into the manager without a reference cycle
/// (the federation owns the listener, the listener upgrades per write, a
/// dropped manager silently unsubscribes).
pub struct MatViewManager {
    inner: Arc<Inner>,
}

struct Inner {
    federation: Federation,
    clock: SimClock,
    views: Mutex<BTreeMap<String, ViewState>>,
    store: SnapshotStore,
}

impl MatViewManager {
    /// New manager over a federation. Subscribes to the federation's write
    /// stream: every successful write routed through a source handle
    /// eagerly maintains the [`RefreshPolicy::Live`] incrementally-
    /// maintained views that read the written table (writes applied
    /// directly to backing storage are picked up at the next maintenance
    /// round instead, like any other out-of-band change).
    pub fn new(federation: Federation, clock: SimClock) -> Self {
        let inner = Arc::new(Inner {
            federation,
            clock,
            views: Mutex::new(BTreeMap::new()),
            store: SnapshotStore::new(),
        });
        let weak = Arc::downgrade(&inner);
        inner
            .federation
            .add_write_listener(Arc::new(move |source, table| {
                if let Some(inner) = weak.upgrade() {
                    inner.on_base_write(source, table);
                }
            }));
        MatViewManager { inner }
    }

    /// The store holding every view's materialization — its one copy and
    /// its one timestamp. Hand a clone to [`Executor::with_matviews`] so
    /// rewritten plans can scan the views locally.
    pub fn store(&self) -> SnapshotStore {
        self.inner.store.clone()
    }

    /// Would [`MatViewManager::defs`] return anything at `now_ms`? While it
    /// would not, the rewrite pass leaves every plan as it found it.
    pub fn any_servable(&self, now_ms: i64) -> bool {
        let inner = &self.inner;
        inner.views.lock().iter().any(|(name, s)| inner.servable(name, s, now_ms).is_some())
    }

    /// Definitions of every view whose materialization is servable at
    /// `now_ms` under its refresh policy, as plain data for
    /// [`eii_planner::rewrite_matviews`]. Live views (which must always
    /// recompute) and expired or never-materialized views are excluded.
    pub fn defs(&self, now_ms: i64) -> Vec<MatViewDef> {
        self.inner
            .views
            .lock()
            .iter()
            .filter_map(|(name, s)| {
                let (image, _) = self.inner.servable(name, s, now_ms)?;
                Some(MatViewDef {
                    name: name.clone(),
                    plan: s.logical.clone(),
                    schema: s.schema.clone(),
                    rows: image.num_rows(),
                })
            })
            .collect()
    }

    /// Define a materialized view from SQL (planned once against the
    /// catalog and federation, with full optimization).
    pub fn define(
        &self,
        name: &str,
        sql: &str,
        catalog: &Catalog,
        policy: RefreshPolicy,
    ) -> Result<()> {
        self.define_inner(name, sql, catalog, policy, false)
            .map(|_| ())
    }

    /// Define a materialized view that refreshes by **delta propagation**:
    /// each refresh reads the base tables' change logs past the view's
    /// watermarks and pushes the deltas through the maintenance tree
    /// (O(delta), not O(data)). Views whose plans are not
    /// incrementalizable (see [`eii_planner::derive_maintenance_plan`])
    /// are still defined but refresh by full recompute; the returned
    /// [`FallbackReason`] says why.
    pub fn define_incremental(
        &self,
        name: &str,
        sql: &str,
        catalog: &Catalog,
        policy: RefreshPolicy,
    ) -> Result<Option<FallbackReason>> {
        self.define_inner(name, sql, catalog, policy, true)
    }

    fn define_inner(
        &self,
        name: &str,
        sql: &str,
        catalog: &Catalog,
        policy: RefreshPolicy,
        incremental: bool,
    ) -> Result<Option<FallbackReason>> {
        let mut views = self.inner.views.lock();
        if views.contains_key(name) {
            return Err(EiiError::AlreadyExists(format!("materialized view {name}")));
        }
        let query = parse_query(sql)?;
        let config = PlannerConfig::optimized();
        let federation = &self.inner.federation;
        let logical = PlanBuilder::new(catalog, federation).build(&query)?;
        let logical = optimize(logical, federation, &config)?;
        let schema = logical.schema()?;
        let plan = PhysicalPlanner::new(federation, &config).create(logical.clone())?;
        let (ivm, fallback) = if incremental {
            let metrics = federation.metrics();
            match derive_maintenance_plan(&logical) {
                // The plan walk cannot see connector capabilities: a source
                // without change-data capture (CSV files, document stores)
                // would pass validation and then fail every refresh. Probe
                // each base table's change log now and degrade to full
                // recompute instead.
                MaintenanceDecision::Incremental(mplan) => match mplan
                    .base_tables
                    .iter()
                    .find(|q| !self.inner.has_change_log(q))
                {
                    Some(q) => {
                        metrics.inc("ivm.fallbacks");
                        (None, Some(FallbackReason::NoChangeLog(q.clone())))
                    }
                    None => {
                        metrics.inc("ivm.views");
                        (Some(IvmState::build(&logical, &mplan.base_tables)?), None)
                    }
                },
                MaintenanceDecision::FullRecompute(reason) => {
                    metrics.inc("ivm.fallbacks");
                    (None, Some(reason))
                }
            }
        } else {
            (None, None)
        };
        let out = fallback.clone();
        views.insert(
            name.to_string(),
            ViewState {
                plan,
                logical: Arc::new(logical),
                schema,
                policy,
                refresh_count: 0,
                total_refresh_ms: 0.0,
                ivm,
                fallback,
            },
        );
        Ok(out)
    }

    /// Remove a view entirely (definition, maintenance state, and its
    /// materialization in the shared store). Used to roll back a
    /// definition whose bootstrap refresh failed.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        let mut views = self.inner.views.lock();
        views
            .remove(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        self.inner.store.remove(name);
        Ok(())
    }
}

impl Inner {
    /// Whether `qualified`'s connector exposes a change log, probed with
    /// an empty read past the maximum sequence number (the same probe the
    /// result cache's version check uses).
    fn has_change_log(&self, qualified: &str) -> bool {
        self.federation
            .resolve(qualified)
            .and_then(|(h, table)| h.connector().changes_since(&table, u64::MAX))
            .is_ok()
    }

    /// The view's materialization and its stamp, when it is servable at
    /// `now_ms`.
    fn servable(&self, name: &str, state: &ViewState, now_ms: i64) -> Option<(ColumnarBatch, i64)> {
        self.store.get(name).filter(|(_, as_of)| state.servable(*as_of, now_ms))
    }

    /// Materialize the view into the store afresh and return the simulated
    /// cost: by delta propagation when it is incrementally maintained, else
    /// by running its plan, whose rows are pivoted once into the store.
    fn compute(&self, name: &str, state: &mut ViewState, ctx: Option<&RequestCtx>) -> Result<f64> {
        if state.ivm.is_some() {
            return self.apply_deltas(name, state, ctx);
        }
        if let Some(ctx) = ctx {
            ctx.check()?;
        }
        if state.fallback.is_some() {
            self.federation.metrics().inc("ivm.full_recomputes");
        }
        let exec = Executor::new(&self.federation);
        let res = exec.execute(&state.plan)?;
        state.refresh_count += 1;
        state.total_refresh_ms += res.cost.sim_ms;
        self.store.put(name, ColumnarBatch::from_batch(&res.batch), self.clock.now_ms());
        Ok(res.cost.sim_ms)
    }

    /// Incremental refresh: read each base table's change log past the
    /// view's watermark, push the weighted deltas through the maintenance
    /// tree, and — when any arrived — materialize from the maintained
    /// multiset. Cost scales with the delta, not the base data. `ctx` (when
    /// given) is checked between per-table stages so deadlines and
    /// cancellation cut maintenance short.
    fn apply_deltas(
        &self,
        name: &str,
        state: &mut ViewState,
        ctx: Option<&RequestCtx>,
    ) -> Result<f64> {
        let metrics = self.federation.metrics();
        let now = self.clock.now_ms();
        let held = self.store.get(name);
        if let Some((_, as_of)) = &held {
            metrics.observe("ivm.staleness_ms", (now - as_of) as f64);
        }
        let ivm = state.ivm.as_mut().expect("delta path requires ivm state");
        let mut deltas = TableDeltas::new();
        let mut watermarks = Vec::new();
        for qualified in ivm.base_tables() {
            if let Some(ctx) = ctx {
                ctx.check()?;
            }
            let (handle, table) = self.federation.resolve(&qualified)?;
            let (changes, high) = handle
                .connector()
                .changes_since(&table, ivm.watermark(&qualified))?;
            watermarks.push((qualified.clone(), high));
            if !changes.is_empty() {
                deltas.insert(qualified, changes_to_delta(&changes));
            }
        }
        let delta_rows: usize = deltas.values().map(Vec::len).sum();
        let sim_ms = ivm.apply(&deltas, &watermarks)?;
        // Nothing past the watermarks: the image the store holds is the view
        // as of `now` too, and is stamped again, not built again. Otherwise
        // the watermarks moved; if nothing materializes them, the image held
        // must not pass for it at the next empty delta.
        let image = match held.filter(|_| delta_rows == 0) {
            Some((image, _)) => image,
            None => ivm.materialize().inspect_err(|_| self.store.remove(name))?,
        };
        self.store.put(name, image, now);
        metrics.inc("ivm.refreshes");
        metrics.add("ivm.delta_rows", delta_rows as u64);
        metrics.observe("ivm.refresh_ms", sim_ms);
        state.refresh_count += 1;
        state.total_refresh_ms += sim_ms;
        Ok(sim_ms)
    }

    /// Eager-maintenance hook, fired (on the writer's thread, no
    /// federation lock held) after every successful write routed through
    /// the federation. Applies the change-log delta to each materialized
    /// [`RefreshPolicy::Live`] incrementally-maintained view that reads
    /// the written table, so those views stay exactly as fresh as a
    /// recompute. A maintenance failure *invalidates* the view's
    /// materialization instead of leaving stale rows servable — the next
    /// fetch recomputes.
    ///
    /// Lock order: views mutex, then the federation's source-registry
    /// read lock (inside `apply_deltas`) — the same order every refresh
    /// path uses.
    fn on_base_write(&self, source: &str, table: &str) {
        let qualified = format!("{source}.{table}");
        let mut views = self.views.lock();
        for (name, state) in views.iter_mut() {
            if !matches!(state.policy, RefreshPolicy::Live) || self.store.get(name).is_none() {
                continue;
            }
            let reads_table = state
                .ivm
                .as_ref()
                .is_some_and(|ivm| ivm.base_tables().contains(&qualified));
            if reads_table && self.apply_deltas(name, state, None).is_err() {
                self.store.remove(name);
            }
        }
    }
}

impl MatViewManager {
    /// Fetch the view's rows under its policy.
    pub fn fetch(&self, name: &str) -> Result<(Batch, FetchOutcome)> {
        let mut views = self.inner.views.lock();
        let state = views
            .get_mut(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        let now = self.inner.clock.now_ms();
        if let Some((image, as_of)) = self.inner.servable(name, state, now) {
            let outcome = FetchOutcome {
                sim_ms: 0.05, // local cache read
                staleness_ms: now - as_of,
                recomputed: false,
            };
            return Ok((image.to_batch(), outcome));
        }
        let sim_ms = self.inner.compute(name, state, None)?;
        let (image, _) = self.inner.store.get(name).expect("a refresh stores the view");
        let outcome = FetchOutcome {
            sim_ms,
            staleness_ms: 0,
            recomputed: true,
        };
        Ok((image.to_batch(), outcome))
    }

    /// Explicitly recompute the view now (incrementally when the view is
    /// delta-maintained).
    pub fn refresh(&self, name: &str) -> Result<f64> {
        self.refresh_inner(name, None)
    }

    /// Like [`MatViewManager::refresh`], but checks the request context's
    /// deadline and cancellation token between per-table maintenance
    /// stages, so a scheduled refresh sheds cleanly under pressure.
    pub fn refresh_with_ctx(&self, name: &str, ctx: &RequestCtx) -> Result<f64> {
        self.refresh_inner(name, Some(ctx))
    }

    fn refresh_inner(&self, name: &str, ctx: Option<&RequestCtx>) -> Result<f64> {
        let mut views = self.inner.views.lock();
        let state = views
            .get_mut(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        self.inner.compute(name, state, ctx)
    }

    /// Maintenance status for one view.
    pub fn ivm_status(&self, name: &str) -> Result<IvmStatus> {
        let views = self.inner.views.lock();
        let state = views
            .get(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        Ok(IvmStatus {
            incremental: state.ivm.is_some(),
            fallback: state.fallback.clone(),
            stats: state.ivm.as_ref().map(IvmState::stats).unwrap_or_default(),
        })
    }

    /// The rendering of the view's optimized logical plan. The result
    /// cache keys entries by the same rendering, so a cached ad-hoc query
    /// matching the view's definition can be refreshed in place after an
    /// incremental maintenance round.
    pub fn plan_key(&self, name: &str) -> Result<String> {
        let views = self.inner.views.lock();
        let state = views
            .get(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        Ok(state.logical.display())
    }

    /// The qualified `source.table` names the view reads.
    pub fn base_tables(&self, name: &str) -> Result<Vec<String>> {
        let views = self.inner.views.lock();
        let state = views
            .get(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        if let Some(ivm) = &state.ivm {
            return Ok(ivm.base_tables());
        }
        let mut tables = state.logical.base_tables();
        tables.sort();
        Ok(tables)
    }

    /// The view's current materialization, as rows, if one exists.
    pub fn cached(&self, name: &str) -> Result<Option<Batch>> {
        let views = self.inner.views.lock();
        views
            .get(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        Ok(self.inner.store.get(name).map(|(image, _)| image.to_batch()))
    }

    /// Change a view's policy ("the administrator was able to choose").
    pub fn set_policy(&self, name: &str, policy: RefreshPolicy) -> Result<()> {
        let mut views = self.inner.views.lock();
        let state = views
            .get_mut(name)
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {name}")))?;
        state.policy = policy;
        Ok(())
    }

    /// How many times the view was recomputed.
    pub fn refresh_count(&self, name: &str) -> usize {
        self.inner
            .views
            .lock()
            .get(name)
            .map_or(0, |s| s.refresh_count)
    }

    /// Total simulated recomputation cost.
    pub fn total_refresh_ms(&self, name: &str) -> f64 {
        self.inner
            .views
            .lock()
            .get(name)
            .map_or(0.0, |s| s.total_refresh_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, DataType, Field, Schema, Value};
    use eii_federation::{LinkProfile, RelationalConnector, WireFormat};
    use eii_storage::{Database, TableDef};
    use std::sync::Arc;

    fn setup() -> (Catalog, Federation, SimClock, eii_storage::database::TableHandle) {
        let clock = SimClock::new();
        let db = Database::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("region", DataType::Str),
        ]));
        let t = db
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        for i in 0..10i64 {
            t.write().insert(row![i, format!("r{}", i % 2)]).unwrap();
        }
        let fed = Federation::new();
        fed.register(
            Arc::new(RelationalConnector::new(db)),
            LinkProfile::wan(),
            WireFormat::Native,
        )
        .unwrap();
        (Catalog::new(), fed, clock, t)
    }

    #[test]
    fn live_policy_always_recomputes() {
        let (cat, fed, clock, _) = setup();
        let mgr = MatViewManager::new(fed, clock);
        mgr.define("v", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Live)
            .unwrap();
        let (_, o1) = mgr.fetch("v").unwrap();
        let (_, o2) = mgr.fetch("v").unwrap();
        assert!(o1.recomputed && o2.recomputed);
        assert_eq!(mgr.refresh_count("v"), 2);
        assert_eq!(o2.staleness_ms, 0);
    }

    #[test]
    fn periodic_policy_serves_cache_within_interval() {
        let (cat, fed, clock, src) = setup();
        let mgr = MatViewManager::new(fed, clock.clone());
        mgr.define(
            "v",
            "SELECT id FROM crm.customers",
            &cat,
            RefreshPolicy::Periodic { interval_ms: 1000 },
        )
        .unwrap();
        assert!(!mgr.any_servable(clock.now_ms()), "defined, not yet materialized");
        let (b1, o1) = mgr.fetch("v").unwrap();
        assert!(o1.recomputed);
        // Source changes; cache does not see it yet.
        src.write().insert(row![100i64, "r9"]).unwrap();
        clock.advance_ms(500);
        // `any_servable` is `defs` without the copies, at every instant.
        assert!(mgr.any_servable(clock.now_ms()) && mgr.defs(clock.now_ms()).len() == 1);
        assert!(!mgr.any_servable(clock.now_ms() + 600) && mgr.defs(clock.now_ms() + 600).is_empty());
        let (b2, o2) = mgr.fetch("v").unwrap();
        assert!(!o2.recomputed);
        assert_eq!(o2.staleness_ms, 500);
        assert_eq!(b1.num_rows(), b2.num_rows(), "stale data served");
        assert!(o2.sim_ms < o1.sim_ms, "cache hits are cheap");
        // Past the interval the view recomputes and sees the change.
        clock.advance_ms(600);
        let (b3, o3) = mgr.fetch("v").unwrap();
        assert!(o3.recomputed);
        assert_eq!(b3.num_rows(), 11);
    }

    #[test]
    fn manual_policy_until_refresh() {
        let (cat, fed, clock, src) = setup();
        let mgr = MatViewManager::new(fed, clock.clone());
        mgr.define("v", "SELECT COUNT(*) AS n FROM crm.customers", &cat, RefreshPolicy::Manual)
            .unwrap();
        let (b1, _) = mgr.fetch("v").unwrap();
        assert_eq!(b1.rows()[0].get(0), &Value::Int(10));
        src.write().insert(row![100i64, "r9"]).unwrap();
        clock.advance_ms(10_000);
        let (b2, o2) = mgr.fetch("v").unwrap();
        assert!(!o2.recomputed);
        assert_eq!(b2.rows()[0].get(0), &Value::Int(10), "stale until refreshed");
        mgr.refresh("v").unwrap();
        let (b3, _) = mgr.fetch("v").unwrap();
        assert_eq!(b3.rows()[0].get(0), &Value::Int(11));
    }

    #[test]
    fn policy_can_change_at_runtime() {
        let (cat, fed, clock, _) = setup();
        let mgr = MatViewManager::new(fed, clock);
        mgr.define("v", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Manual)
            .unwrap();
        mgr.fetch("v").unwrap();
        mgr.set_policy("v", RefreshPolicy::Live).unwrap();
        let (_, o) = mgr.fetch("v").unwrap();
        assert!(o.recomputed);
    }

    #[test]
    fn defs_export_only_servable_views() {
        let (cat, fed, clock, _) = setup();
        let mgr = MatViewManager::new(fed, clock.clone());
        mgr.define("live", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Live)
            .unwrap();
        mgr.define(
            "periodic",
            "SELECT id FROM crm.customers",
            &cat,
            RefreshPolicy::Periodic { interval_ms: 1000 },
        )
        .unwrap();
        mgr.define("manual", "SELECT region FROM crm.customers", &cat, RefreshPolicy::Manual)
            .unwrap();
        // Nothing materialized yet: nothing servable.
        assert!(mgr.defs(clock.now_ms()).is_empty());
        mgr.fetch("live").unwrap();
        mgr.fetch("periodic").unwrap();
        mgr.refresh("manual").unwrap();
        let defs = mgr.defs(clock.now_ms());
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        // Live views must always recompute, so they never export.
        assert_eq!(names, vec!["manual", "periodic"]);
        assert!(defs.iter().all(|d| d.rows == 10));
        // Past its interval the periodic view's cache expires out.
        clock.advance_ms(5000);
        let names: Vec<String> = mgr
            .defs(clock.now_ms())
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec!["manual".to_string()]);
    }

    #[test]
    fn materializations_sync_into_the_shared_store() {
        let (cat, fed, clock, src) = setup();
        let mgr = MatViewManager::new(fed, clock);
        let store = mgr.store();
        mgr.define("v", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Manual)
            .unwrap();
        assert!(store.get("v").is_none());
        mgr.fetch("v").unwrap();
        assert_eq!(store.get("v").unwrap().0.num_rows(), 10);
        src.write().insert(row![100i64, "r9"]).unwrap();
        mgr.refresh("v").unwrap();
        assert_eq!(store.get("v").unwrap().0.num_rows(), 11);
    }

    #[test]
    fn incremental_view_bootstraps_then_tracks_deltas() {
        let (cat, fed, clock, src) = setup();
        let mgr = MatViewManager::new(fed, clock);
        let fallback = mgr
            .define_incremental(
                "v",
                "SELECT id FROM crm.customers WHERE region = 'r1'",
                &cat,
                RefreshPolicy::Manual,
            )
            .unwrap();
        assert!(fallback.is_none());
        // Bootstrap replays the full change log (10 inserts).
        mgr.refresh("v").unwrap();
        assert_eq!(mgr.cached("v").unwrap().unwrap().num_rows(), 5);
        let s = mgr.ivm_status("v").unwrap();
        assert!(s.incremental && s.fallback.is_none());
        assert_eq!((s.stats.refreshes, s.stats.input_rows), (1, 10));
        // Steady state: one insert, one update out of the view, one delete.
        src.write().insert(row![100i64, "r1"]).unwrap();
        src.write()
            .update_by_pk(&Value::Int(1), &[(1, Value::from("r9"))])
            .unwrap();
        src.write().delete_by_pk(&Value::Int(3));
        mgr.refresh("v").unwrap();
        let batch = mgr.cached("v").unwrap().unwrap();
        // Started with odd ids {1,3,5,7,9}; 1 left the region, 3 deleted,
        // 100 arrived.
        assert_eq!(
            batch.rows().to_vec(),
            vec![row![5i64], row![7i64], row![9i64], row![100i64]]
        );
        let s = mgr.ivm_status("v").unwrap();
        // The second refresh consumed 4 delta rows (insert + update's
        // retract/insert pair + delete), not the whole table.
        assert_eq!((s.stats.refreshes, s.stats.input_rows), (2, 14));
        assert_eq!(mgr.base_tables("v").unwrap(), vec!["crm.customers"]);
    }

    #[test]
    fn a_refresh_with_no_delta_stamps_the_materialization_again() {
        let (cat, fed, clock, src) = setup();
        let mgr = MatViewManager::new(fed.clone(), clock.clone());
        let sql = "SELECT id FROM crm.customers WHERE region = 'r1'";
        mgr.define_incremental("v", sql, &cat, RefreshPolicy::Manual).unwrap();
        mgr.refresh("v").unwrap();
        let (first, at) = mgr.store().get("v").unwrap();
        let rows = mgr.cached("v").unwrap().unwrap();
        clock.advance_ms(500);
        let sim_ms = mgr.refresh("v").unwrap();
        assert!(sim_ms > 0.0, "the change log was still probed");
        let (again, later) = mgr.store().get("v").unwrap();
        assert_eq!(later, at + 500, "stamped at the refresh");
        assert!(Arc::ptr_eq(first.column(0), again.column(0)), "not built again");
        assert_eq!(mgr.cached("v").unwrap().unwrap(), rows);
        let s = mgr.ivm_status("v").unwrap().stats;
        assert_eq!((s.refreshes, s.input_rows, mgr.refresh_count("v")), (2, 10, 2));
        assert_eq!(fed.metrics().snapshot().counter("ivm.refreshes"), 2);
        // A delta builds a new one.
        src.write().insert(row![101i64, "r1"]).unwrap();
        mgr.refresh("v").unwrap();
        let (third, _) = mgr.store().get("v").unwrap();
        assert_eq!((third.num_rows(), mgr.cached("v").unwrap().unwrap().num_rows()), (6, 6));
    }

    #[test]
    fn a_refresh_that_cannot_materialize_leaves_nothing_for_an_empty_delta_to_keep() {
        let clock = SimClock::new();
        let db = Database::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int).not_null()]));
        let create = || {
            db.create_table(TableDef::new("t", schema.clone()).with_primary_key(0)).unwrap()
        };
        let t = create();
        t.write().insert_all((0..3i64).map(|i| row![i])).unwrap();
        let fed = Federation::new();
        let connector = Arc::new(RelationalConnector::new(db.clone()));
        fed.register(connector, LinkProfile::lan(), WireFormat::Native).unwrap();
        let mgr = MatViewManager::new(fed, clock);
        mgr.define_incremental("v", "SELECT id FROM crm.t", &Catalog::new(), RefreshPolicy::Manual)
            .unwrap();
        mgr.refresh("v").unwrap();
        // The table is recreated under the view and its change log restarts:
        // row 9 arrives below the view's watermark (3), its delete above it.
        assert!(db.drop_table("t"));
        let t = create();
        t.write().insert_all([9i64, 10, 11].map(|i| row![i])).unwrap();
        t.write().delete_by_pk(&Value::Int(9));
        assert_eq!(mgr.refresh("v").unwrap_err().kind(), "execution");
        assert!(mgr.cached("v").unwrap().is_none() && mgr.store().get("v").is_none());
        // The log is empty past the new watermark, and that vouches for nothing.
        assert_eq!(mgr.refresh("v").unwrap_err().kind(), "execution");
    }

    #[test]
    fn staleness_is_measured_from_the_stored_stamp() {
        use eii_federation::FaultProfile;
        let clock = SimClock::new();
        let db = Database::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int).not_null()]));
        let t = db.create_table(TableDef::new("t", schema).with_primary_key(0)).unwrap();
        t.write().insert_all((0..3i64).map(|i| row![i])).unwrap();
        let fed = Federation::with_clock(clock.clone());
        let connector = Arc::new(RelationalConnector::new(db));
        fed.register(connector, LinkProfile::lan(), WireFormat::Native).unwrap();
        // Every connector call, the change-log read included, stalls 40 ms.
        fed.inject_faults("crm", FaultProfile::none().with_spikes(1.0, 40)).unwrap();
        let mgr = MatViewManager::new(fed, clock.clone());
        mgr.define_incremental("v", "SELECT id FROM crm.t", &Catalog::new(), RefreshPolicy::Manual)
            .unwrap();
        mgr.refresh("v").unwrap();
        clock.advance_ms(500);
        let (rows, outcome) = mgr.fetch("v").unwrap();
        let (_, as_of) = mgr.store().get("v").unwrap();
        assert!(!outcome.recomputed && rows.num_rows() == 3);
        assert_eq!(outcome.staleness_ms, clock.now_ms() - as_of);
    }

    #[test]
    fn live_ivm_view_is_maintained_eagerly_on_write() {
        use eii_federation::UpdateOp;
        let (cat, fed, clock, _) = setup();
        let mgr = MatViewManager::new(fed.clone(), clock.clone());
        let fallback = mgr
            .define_incremental(
                "v",
                "SELECT id FROM crm.customers WHERE region = 'r1'",
                &cat,
                RefreshPolicy::Live,
            )
            .unwrap();
        assert!(fallback.is_none());
        mgr.refresh("v").unwrap(); // bootstrap
        assert_eq!(mgr.cached("v").unwrap().unwrap().num_rows(), 5);
        let before = mgr.ivm_status("v").unwrap().stats.refreshes;
        // A write routed through the federation maintains the view
        // eagerly, before anyone fetches it.
        let h = fed.source("crm").unwrap();
        h.update(&UpdateOp::Insert {
            table: "customers".into(),
            row: row![100i64, "r1"],
        })
        .unwrap();
        assert_eq!(mgr.cached("v").unwrap().unwrap().num_rows(), 6);
        assert_eq!(mgr.ivm_status("v").unwrap().stats.refreshes, before + 1);
        // Eagerly maintained live views are servable: fetches hit the
        // cache and the view exports to the rewrite pass.
        let (batch, o) = mgr.fetch("v").unwrap();
        assert!(!o.recomputed, "live IVM serves the maintained cache");
        assert_eq!(batch.num_rows(), 6);
        let names: Vec<String> = mgr
            .defs(clock.now_ms())
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec!["v".to_string()]);
        // Writes to unrelated tables leave the maintenance count alone.
        h.update(&UpdateOp::Insert {
            table: "ghost".into(),
            row: row![1i64],
        })
        .unwrap_err();
        assert_eq!(mgr.ivm_status("v").unwrap().stats.refreshes, before + 1);
    }

    #[test]
    fn source_without_change_log_falls_back_to_recompute() {
        use eii_federation::CsvConnector;
        let (cat, fed, clock, _) = setup();
        let csv = CsvConnector::new("files")
            .add_file(
                "extras",
                "id|label\n1|a\n2|b\n",
                '|',
                &[DataType::Int, DataType::Str],
            )
            .unwrap();
        fed.register(Arc::new(csv), LinkProfile::wan(), WireFormat::Native)
            .unwrap();
        let mgr = MatViewManager::new(fed, clock);
        // The plan is perfectly incrementalizable, but CSV files expose no
        // change log: the view must degrade to full recompute instead of
        // erroring on every refresh.
        let fallback = mgr
            .define_incremental(
                "v",
                "SELECT id, label FROM files.extras",
                &cat,
                RefreshPolicy::Manual,
            )
            .unwrap();
        assert_eq!(
            fallback,
            Some(FallbackReason::NoChangeLog("files.extras".into()))
        );
        mgr.refresh("v").unwrap();
        assert_eq!(mgr.cached("v").unwrap().unwrap().num_rows(), 2);
        let s = mgr.ivm_status("v").unwrap();
        assert!(!s.incremental && s.fallback.is_some());
    }

    #[test]
    fn drop_view_rolls_back_a_definition() {
        let (cat, fed, clock, _) = setup();
        let mgr = MatViewManager::new(fed, clock);
        mgr.define("v", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Manual)
            .unwrap();
        mgr.refresh("v").unwrap();
        assert!(mgr.store().get("v").is_some());
        mgr.drop_view("v").unwrap();
        assert!(mgr.store().get("v").is_none());
        assert_eq!(mgr.fetch("v").unwrap_err().kind(), "not_found");
        assert_eq!(mgr.drop_view("v").unwrap_err().kind(), "not_found");
        // The name is free for redefinition.
        mgr.define("v", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Manual)
            .unwrap();
    }

    #[test]
    fn non_incrementalizable_view_falls_back_to_recompute() {
        let (cat, fed, clock, src) = setup();
        let mgr = MatViewManager::new(fed, clock);
        let fallback = mgr
            .define_incremental(
                "v",
                "SELECT id FROM crm.customers ORDER BY id LIMIT 3",
                &cat,
                RefreshPolicy::Manual,
            )
            .unwrap();
        assert!(fallback.is_some(), "ORDER BY/LIMIT must fall back");
        let s = mgr.ivm_status("v").unwrap();
        assert!(!s.incremental && s.fallback.is_some());
        // The view still refreshes correctly, just by full recompute.
        mgr.refresh("v").unwrap();
        assert_eq!(mgr.cached("v").unwrap().unwrap().num_rows(), 3);
        src.write().delete_by_pk(&Value::Int(0));
        mgr.refresh("v").unwrap();
        assert_eq!(
            mgr.cached("v").unwrap().unwrap().rows()[0],
            row![1i64]
        );
    }

    #[test]
    fn incremental_matches_full_recompute_after_churn() {
        let (cat, fed, clock, src) = setup();
        let mgr = MatViewManager::new(fed, clock);
        let sql = "SELECT region, COUNT(*) AS n, SUM(id) AS total \
                   FROM crm.customers GROUP BY region";
        mgr.define_incremental("inc", sql, &cat, RefreshPolicy::Manual)
            .unwrap();
        mgr.define("full", sql, &cat, RefreshPolicy::Manual).unwrap();
        for i in 10..30i64 {
            src.write().insert(row![i, format!("r{}", i % 3)]).unwrap();
            if i % 4 == 0 {
                src.write().delete_by_pk(&Value::Int(i - 5));
            }
            mgr.refresh("inc").unwrap();
        }
        mgr.refresh("full").unwrap();
        let mut inc = mgr.cached("inc").unwrap().unwrap().rows().to_vec();
        let mut full = mgr.cached("full").unwrap().unwrap().rows().to_vec();
        inc.sort();
        full.sort();
        assert_eq!(inc, full);
        assert!(mgr.ivm_status("inc").unwrap().incremental);
    }

    #[test]
    fn unknown_view_not_found() {
        let (_, fed, clock, _) = setup();
        let mgr = MatViewManager::new(fed, clock);
        assert_eq!(mgr.fetch("ghost").unwrap_err().kind(), "not_found");
        assert_eq!(mgr.refresh("ghost").unwrap_err().kind(), "not_found");
    }

    #[test]
    fn duplicate_definition_rejected() {
        let (cat, fed, clock, _) = setup();
        let mgr = MatViewManager::new(fed, clock);
        mgr.define("v", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Live)
            .unwrap();
        assert_eq!(
            mgr.define("v", "SELECT id FROM crm.customers", &cat, RefreshPolicy::Live)
                .unwrap_err()
                .kind(),
            "already_exists"
        );
    }
}
