//! Session handles and the concurrent query scheduler.
//!
//! A [`Session`] is a cheap per-client view over a shared
//! `Arc<EiiSystem>`: it carries the client's role, per-session overrides
//! (staleness budget, deadline, priority, cancel token), an optional
//! metrics label, and its own last-trace slot, so concurrent clients never
//! clobber each other's observability. A [`QueryScheduler`] runs many
//! sessions' statements through the admission-controlled worker pool
//! ([`eii_exec::Scheduler`]), returning [`QueryTicket`] handles.

use std::sync::Arc;

use parking_lot::Mutex;

use eii_data::{CancelToken, Deadline, EiiError, Priority, Result};
use eii_exec::{
    AdmissionConfig, BrownoutConfig, JobOutput, QueryTicket, Scheduler, SchedulerStats,
    ShedDecision,
};
use eii_federation::RequestCtx;
use eii_obs::QueryTrace;

use crate::{EiiSystem, ExecOptions, ExecOutcome};

/// A per-client handle over a shared system; see the module docs.
///
/// Sessions are created with [`EiiSystem::session`] and configured with
/// the `with_*` builder methods. They are `Send + Sync`; each one keeps
/// its own trace slot.
pub struct Session {
    system: Arc<EiiSystem>,
    opts: ExecOptions,
    label: Option<String>,
    last_trace: Mutex<Option<Arc<QueryTrace>>>,
}

impl Session {
    /// Set the role access-controlled statements run as (default
    /// `public`).
    pub fn with_role(mut self, role: &str) -> Self {
        self.opts.role = role.to_string();
        self
    }

    /// Label this session's metrics: each execute bumps
    /// `session.<label>.queries` and observes `session.<label>.sim_ms`.
    /// The label is also stamped into query-log records and stored traces,
    /// so [`Session::last_stored_trace`] can find this session's traces in
    /// the shared store.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = Some(label.to_string());
        self.opts.session = Some(label.to_string());
        self
    }

    /// Override the semantic result cache's staleness budget for this
    /// session's queries (simulated ms; `0` refuses stale hits entirely).
    pub fn with_staleness_budget(mut self, budget_ms: i64) -> Self {
        self.opts.staleness_budget_ms = Some(budget_ms);
        self
    }

    /// Grant every query of this session a simulated-time deadline: the
    /// query fails with a `deadline` error the moment its budget runs out,
    /// and the planner prefers materialized views that fit the budget.
    pub fn with_deadline_ms(mut self, budget_ms: i64) -> Self {
        self.opts.deadline_budget_ms = Some(budget_ms);
        self
    }

    /// Priority tier this session's work runs at under brownout load
    /// shedding (default [`Priority::Normal`]).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.opts.priority = priority;
        self
    }

    /// Attach a cooperative cancellation token: tripping it stops this
    /// session's in-flight query at its next batch boundary.
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.opts.cancel = Some(cancel);
        self
    }

    /// The priority tier this session runs at.
    pub fn priority(&self) -> Priority {
        self.opts.priority
    }

    /// The role this session runs as.
    pub fn role(&self) -> &str {
        &self.opts.role
    }

    /// The shared system this session talks to.
    pub fn system(&self) -> &Arc<EiiSystem> {
        &self.system
    }

    /// Execute one SQL statement under this session's options, keeping its
    /// trace for [`Session::last_trace`].
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        let (outcome, trace) = self.system.execute_with(sql, &self.opts);
        *self.last_trace.lock() = Some(trace);
        if let Some(label) = &self.label {
            let metrics = self.system.metrics();
            metrics.add(&format!("session.{label}.queries"), 1);
            if let Ok(out) = &outcome {
                if let Some(r) = out.try_query_result() {
                    metrics.observe(&format!("session.{label}.sim_ms"), r.cost.sim_ms);
                }
            }
        }
        outcome
    }

    /// The trace of this session's most recent executed statement (not
    /// shared with other sessions).
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.last_trace.lock().as_deref().cloned()
    }

    /// This session's most recent trace *retained by the shared trace
    /// store* (sampling may skip unremarkable statements). Requires a
    /// label ([`Session::with_label`]); unlabeled sessions always get
    /// `None` — use [`Session::last_trace`] for the unconditional copy.
    pub fn last_stored_trace(&self) -> Option<eii_obs::StoredTrace> {
        self.label
            .as_deref()
            .and_then(|label| self.system.trace_store().latest_for_session(label))
    }
}

/// Runs statements through the admission-controlled worker pool. Create
/// one with [`EiiSystem::scheduler`]; submit SQL and join the returned
/// [`QueryTicket`]s. Per-source permits keep one slow source from
/// starving the pool (composing with the federation's circuit breakers),
/// and the stats expose throughput and latency on the deterministic
/// virtual timeline.
pub struct QueryScheduler {
    system: Arc<EiiSystem>,
    pool: Scheduler<ExecOutcome>,
}

impl QueryScheduler {
    /// Submit one statement; always accepted (admission gates execution).
    pub fn submit(&self, sql: &str, role: &str) -> QueryTicket<ExecOutcome> {
        let (sources, work) = self.job(sql, ExecOptions::for_role(role));
        self.pool.submit(sources, work)
    }

    /// Submit one statement only if the admission controller has capacity
    /// right now; otherwise reject with an `Execution` error.
    pub fn try_submit(&self, sql: &str, role: &str) -> Result<QueryTicket<ExecOutcome>> {
        let (sources, work) = self.job(sql, ExecOptions::for_role(role));
        self.pool.try_submit(sources, work)
    }

    /// Submit one statement under full [`ExecOptions`] and a priority tier,
    /// consulting the brownout controller (when this scheduler was built
    /// with one): `Low` work may be turned away with a typed `shed` error,
    /// `Normal` work may be downgraded to partial results, and the
    /// returned ticket's [`QueryTicket::cancel`] stops even a *running*
    /// query cooperatively — the ticket and the query share one
    /// [`CancelToken`].
    pub fn submit_prioritized(
        &self,
        sql: &str,
        opts: &ExecOptions,
    ) -> Result<(QueryTicket<ExecOutcome>, ShedDecision)> {
        let mut opts = opts.clone();
        let cancel = opts.cancel.get_or_insert_with(CancelToken::new).clone();
        let priority = opts.priority;
        let metrics = self.system.metrics();
        let decision = self.pool.admit(priority).inspect_err(|err| {
            if err.kind() == "shed" {
                metrics.inc(&format!("shed.rejected.{}", priority.as_str()));
                self.system.record_shed(sql, &opts, err);
            }
        })?;
        if decision == ShedDecision::Degrade {
            opts.brownout_degraded = true;
            metrics.inc(&format!("shed.degraded.{}", priority.as_str()));
        }
        let (sources, work) = self.job(sql, opts);
        Ok((
            self.pool.submit_admitted(sources, priority, cancel, work),
            decision,
        ))
    }

    /// Submit a materialized-view refresh through the same
    /// admission-controlled pool as queries. The view's base sources claim
    /// per-source permits (a refresh competes fairly with reads against
    /// the same backends), the priority tier consults the brownout
    /// controller, and the options' deadline budget and cancel token are
    /// checked between per-table maintenance stages — an overloaded
    /// system sheds or cuts short refreshes instead of queueing them
    /// forever. Delta-maintained views refresh in O(delta); others fully
    /// recompute.
    pub fn submit_refresh(
        &self,
        view: &str,
        opts: &ExecOptions,
    ) -> Result<(QueryTicket<ExecOutcome>, ShedDecision)> {
        let mgr = self
            .system
            .matviews()
            .ok_or_else(|| EiiError::NotFound(format!("materialized view {view}")))?;
        let sources = sources_of(&mgr.base_tables(view)?);
        let mut opts = opts.clone();
        let cancel = opts.cancel.get_or_insert_with(CancelToken::new).clone();
        let priority = opts.priority;
        let metrics = self.system.metrics();
        let decision = self.pool.admit(priority).inspect_err(|err| {
            if err.kind() == "shed" {
                metrics.inc(&format!("shed.rejected.{}", priority.as_str()));
            }
        })?;
        let system = Arc::clone(&self.system);
        let view = view.to_string();
        let ctx_cancel = cancel.clone();
        let work = move || {
            let mut ctx = RequestCtx::new().with_cancel(ctx_cancel);
            if let Some(budget) = opts.deadline_budget_ms {
                ctx = ctx.with_deadline(Deadline::new(system.clock().clone(), budget));
            }
            let mgr = system
                .matviews()
                .ok_or_else(|| EiiError::NotFound(format!("materialized view {view}")))?;
            let sim_ms = mgr.refresh_with_ctx(&view, &ctx)?;
            system.refresh_cached_for(&view);
            Ok(JobOutput {
                value: ExecOutcome::Refreshed { view, sim_ms },
                sim_ms,
            })
        };
        Ok((
            self.pool.submit_admitted(sources, priority, cancel, work),
            decision,
        ))
    }

    fn job(
        &self,
        sql: &str,
        opts: ExecOptions,
    ) -> (
        Vec<String>,
        impl FnOnce() -> Result<JobOutput<ExecOutcome>> + Send + 'static,
    ) {
        // Statements that don't plan (or aren't queries) claim no permits.
        let sources = self
            .system
            .normalize_sql(sql)
            .map_or_else(|_| Vec::new(), |planned| sources_of(&planned.tables));
        let system = Arc::clone(&self.system);
        let sql = sql.to_string();
        let work = move || {
            let outcome = system.execute_with(&sql, &opts).0?;
            let sim_ms = outcome
                .try_query_result()
                .map_or(0.0, |r| r.cost.sim_ms);
            Ok(JobOutput {
                value: outcome,
                sim_ms,
            })
        };
        (sources, work)
    }

    /// The admission configuration the pool runs under.
    pub fn config(&self) -> AdmissionConfig {
        self.pool.config()
    }

    /// Point-in-time scheduler statistics (virtual timeline).
    pub fn stats(&self) -> SchedulerStats {
        self.pool.stats()
    }

    /// Drain the queue, stop the workers, and return the final
    /// statistics.
    pub fn finish(self) -> SchedulerStats {
        self.pool.join()
    }
}

impl EiiSystem {
    /// A new session over this system with default options (`public`
    /// role, no overrides).
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            system: Arc::clone(self),
            opts: ExecOptions::default(),
            label: None,
            last_trace: Mutex::new(None),
        }
    }

    /// A concurrent query scheduler over this system; see
    /// [`QueryScheduler`].
    pub fn scheduler(self: &Arc<Self>, config: AdmissionConfig) -> QueryScheduler {
        QueryScheduler {
            system: Arc::clone(self),
            pool: Scheduler::new(config),
        }
    }

    /// A scheduler with brownout load shedding: under sustained overload the
    /// admission token bucket sheds `Low`-priority work with a typed `shed`
    /// error and downgrades `Normal` work to partial results, keeping
    /// `High`-priority deadlines intact.
    pub fn scheduler_with_brownout(
        self: &Arc<Self>,
        config: AdmissionConfig,
        brownout: BrownoutConfig,
    ) -> QueryScheduler {
        QueryScheduler {
            system: Arc::clone(self),
            pool: Scheduler::new(config).with_brownout(brownout),
        }
    }
}

/// The distinct sources behind qualified `source.table` names — what the
/// admission controller counts against per-source permits.
fn sources_of(tables: &[String]) -> Vec<String> {
    let qualified = tables.iter().filter_map(|t| t.split_once('.'));
    let mut out: Vec<String> = qualified.map(|(source, _)| source.to_string()).collect();
    out.sort();
    out.dedup();
    out
}
