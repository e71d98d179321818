//! Fault tolerance for source requests: retry with exponential backoff and
//! jitter, per-source circuit breakers, and the [`ResilientConnector`]
//! wrapper that applies both.
//!
//! All waiting happens on the simulated clock, so hardened federations stay
//! deterministic: a retried request advances time by its backoff and is
//! charged an extra round trip in the cost ledger.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eii_data::{EiiError, Result, SimClock};
use eii_obs::MetricsRegistry;
use serde::Serialize;

use crate::connector::{Connector, SourceAnswer, SourceQuery, UpdateOp, UpdateResult};
use crate::net::TransferLedger;

/// How a hardened source retries failed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (1 = no retries).
    pub max_attempts: usize,
    /// Wait before the first retry, simulated ms.
    pub base_backoff_ms: i64,
    /// Backoff multiplier per subsequent retry (exponential backoff).
    pub backoff_multiplier: f64,
    /// Random jitter as a fraction of each backoff (0.0 = none). Jitter is
    /// drawn from a seeded RNG so runs replay exactly.
    pub jitter_frac: f64,
    /// Seed for the jitter RNG.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: one attempt, failures surface immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            backoff_multiplier: 1.0,
            jitter_frac: 0.0,
            jitter_seed: 0,
        }
    }

    /// A sensible default: 3 attempts, 10 ms base backoff doubling each
    /// retry, 10% jitter.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10,
            backoff_multiplier: 2.0,
            jitter_frac: 0.1,
            jitter_seed: 17,
        }
    }

    /// Same policy with a different attempt budget.
    pub fn with_attempts(mut self, max_attempts: usize) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        self.max_attempts = max_attempts;
        self
    }

    /// Backoff before retry number `retry` (1-based), before jitter.
    pub fn backoff_ms(&self, retry: usize) -> i64 {
        let factor = self.backoff_multiplier.powi(retry.saturating_sub(1) as i32);
        (self.base_backoff_ms as f64 * factor).round() as i64
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: usize,
    /// How long an open breaker rejects requests before letting a probe
    /// through (half-open), simulated ms.
    pub cooldown_ms: i64,
    /// Successful probes required to close again from half-open.
    pub success_threshold: usize,
}

impl Default for CircuitBreakerConfig {
    fn default() -> Self {
        CircuitBreakerConfig {
            failure_threshold: 5,
            cooldown_ms: 1_000,
            success_threshold: 1,
        }
    }
}

/// The three classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast without touching the source.
    Open,
    /// A limited number of probe requests are let through.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: usize,
    probe_successes: usize,
    /// Probes admitted (via [`CircuitBreaker::acquire`]) and not yet
    /// resolved. Half-open admits at most `success_threshold` at a time, so
    /// racing sessions cannot stampede a recovering source.
    probes_in_flight: usize,
    opened_at_ms: i64,
    to_open: u64,
    to_half_open: u64,
    to_closed: u64,
}

/// Owned snapshot of a breaker for health reports: current state plus
/// lifetime transition counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BreakerStatus {
    /// Current state (cooldown transitions applied).
    pub state: BreakerState,
    /// Consecutive failures observed while closed.
    pub consecutive_failures: u64,
    /// Simulated ms at which the breaker last tripped open.
    pub opened_at_ms: i64,
    /// Lifetime Closed/HalfOpen → Open transitions.
    pub to_open: u64,
    /// Lifetime Open → HalfOpen transitions.
    pub to_half_open: u64,
    /// Lifetime HalfOpen → Closed transitions.
    pub to_closed: u64,
}

/// Per-source circuit breaker on the simulated clock.
///
/// Closed → (failure_threshold consecutive failures) → Open →
/// (cooldown elapses) → HalfOpen → (success_threshold probe successes) →
/// Closed, or (any probe failure) → Open again.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: CircuitBreakerConfig,
    clock: SimClock,
    inner: Mutex<BreakerInner>,
    /// Where transition counters land (`breaker.<source>.to_open` etc.),
    /// when the federation is instrumented.
    metrics: Option<(MetricsRegistry, String)>,
}

impl CircuitBreaker {
    /// New breaker, initially closed.
    pub fn new(config: CircuitBreakerConfig, clock: SimClock) -> Self {
        CircuitBreaker {
            config,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                probe_successes: 0,
                probes_in_flight: 0,
                opened_at_ms: 0,
                to_open: 0,
                to_half_open: 0,
                to_closed: 0,
            }),
            metrics: None,
        }
    }

    /// Emit transition counters (`breaker.<source>.to_open` / `.to_half_open`
    /// / `.to_closed`) into `metrics` from now on.
    pub fn instrumented(mut self, metrics: MetricsRegistry, source: &str) -> Self {
        self.metrics = Some((metrics, source.to_string()));
        self
    }

    fn note_transition(&self, inner: &mut BreakerInner, to: BreakerState) {
        let (count, suffix) = match to {
            BreakerState::Open => (&mut inner.to_open, "to_open"),
            BreakerState::HalfOpen => (&mut inner.to_half_open, "to_half_open"),
            BreakerState::Closed => (&mut inner.to_closed, "to_closed"),
        };
        *count += 1;
        if let Some((metrics, source)) = &self.metrics {
            metrics.inc(&format!("breaker.{source}.{suffix}"));
            // Stamp the transition into the event log, referencing the
            // owning trace when the ambient request context carries one.
            metrics.record_event(eii_obs::TelemetryEvent {
                sim_ms: self.clock.now_ms() as f64,
                kind: format!("breaker.{suffix}"),
                source: source.clone(),
                trace_id: crate::ctx::current_ctx().and_then(|c| c.trace_id),
                detail: format!("failures={}", inner.consecutive_failures),
            });
        }
    }

    /// Current state, transitioning Open → HalfOpen if the cooldown has
    /// elapsed.
    pub fn state(&self) -> BreakerState {
        let mut inner = self.inner.lock();
        if inner.state == BreakerState::Open
            && self.clock.now_ms() - inner.opened_at_ms >= self.config.cooldown_ms
        {
            inner.state = BreakerState::HalfOpen;
            inner.probe_successes = 0;
            inner.probes_in_flight = 0;
            self.note_transition(&mut inner, BreakerState::HalfOpen);
        }
        inner.state
    }

    /// May a request proceed right now?
    pub fn allow(&self) -> bool {
        self.state() != BreakerState::Open
    }

    /// Admit one request, taking a probe permit when half-open. Closed
    /// admits freely; open rejects; half-open admits at most
    /// `success_threshold` concurrent probes — the rest fail fast exactly as
    /// if the breaker were still open, so racing sessions cannot stampede a
    /// source that is barely back on its feet. The permit is returned by
    /// [`on_success`](Self::on_success) / [`on_failure`](Self::on_failure)
    /// (or [`release_probe`](Self::release_probe) when the request was
    /// abandoned without an outcome).
    pub fn acquire(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.state == BreakerState::Open
            && self.clock.now_ms() - inner.opened_at_ms >= self.config.cooldown_ms
        {
            inner.state = BreakerState::HalfOpen;
            inner.probe_successes = 0;
            inner.probes_in_flight = 0;
            self.note_transition(&mut inner, BreakerState::HalfOpen);
        }
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                let cap = self.config.success_threshold.max(1);
                if inner.probes_in_flight < cap {
                    inner.probes_in_flight += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Return a probe permit without recording an outcome (the request was
    /// cancelled before the source answered).
    pub fn release_probe(&self) {
        let mut inner = self.inner.lock();
        inner.probes_in_flight = inner.probes_in_flight.saturating_sub(1);
    }

    /// Owned snapshot for health reports (cooldown transitions applied
    /// first, so a cooled-down breaker reads half-open, not open).
    pub fn status(&self) -> BreakerStatus {
        let state = self.state();
        let inner = self.inner.lock();
        BreakerStatus {
            state,
            consecutive_failures: inner.consecutive_failures as u64,
            opened_at_ms: inner.opened_at_ms,
            to_open: inner.to_open,
            to_half_open: inner.to_half_open,
            to_closed: inner.to_closed,
        }
    }

    /// Record a successful request.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.probes_in_flight = inner.probes_in_flight.saturating_sub(1);
                inner.probe_successes += 1;
                if inner.probe_successes >= self.config.success_threshold {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_failures = 0;
                    inner.probes_in_flight = 0;
                    self.note_transition(&mut inner, BreakerState::Closed);
                }
            }
            // A success while open can only come from a racing request that
            // was admitted before the trip; ignore it.
            BreakerState::Open => {}
        }
    }

    /// Record a failed request.
    pub fn on_failure(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at_ms = self.clock.now_ms();
                    self.note_transition(&mut inner, BreakerState::Open);
                }
            }
            // Any failure during a probe re-opens immediately.
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at_ms = self.clock.now_ms();
                inner.probes_in_flight = 0;
                self.note_transition(&mut inner, BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }
}

/// A connector wrapper adding retry/backoff and a circuit breaker around an
/// (often faulty) inner connector.
///
/// Each retry advances the simulated clock by its backoff and bumps the
/// answer's `calls` count, so the registry charges the extra round trips to
/// the cost ledger; retries are also counted per source in the
/// [`TransferLedger`].
pub struct ResilientConnector {
    inner: Arc<dyn Connector>,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    clock: SimClock,
    ledger: TransferLedger,
    jitter_rng: Mutex<StdRng>,
    last_error: Mutex<Option<String>>,
    metrics: Option<MetricsRegistry>,
}

impl ResilientConnector {
    /// Harden `inner` with the given retry policy and breaker config.
    pub fn new(
        inner: Arc<dyn Connector>,
        policy: RetryPolicy,
        breaker_config: CircuitBreakerConfig,
        clock: SimClock,
        ledger: TransferLedger,
    ) -> Self {
        let jitter_rng = Mutex::new(StdRng::seed_from_u64(policy.jitter_seed));
        ResilientConnector {
            breaker: CircuitBreaker::new(breaker_config, clock.clone()),
            policy,
            clock,
            ledger,
            jitter_rng,
            last_error: Mutex::new(None),
            metrics: None,
            inner,
        }
    }

    /// Emit retry/failure counters (`source.<name>.retries`,
    /// `source.<name>.failures`) and breaker transition counters into
    /// `metrics` from now on.
    pub fn instrumented(mut self, metrics: MetricsRegistry) -> Self {
        let source = self.inner.name().to_string();
        self.breaker = self.breaker.instrumented(metrics.clone(), &source);
        self.metrics = Some(metrics);
        self
    }

    /// The breaker (observability and tests).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The wrapped connector.
    pub fn inner(&self) -> &Arc<dyn Connector> {
        &self.inner
    }

    /// Backoff for retry number `retry` (1-based) with jitter applied.
    fn jittered_backoff_ms(&self, retry: usize) -> i64 {
        let base = self.policy.backoff_ms(retry);
        if self.policy.jitter_frac <= 0.0 || base == 0 {
            return base;
        }
        let frac = self.policy.jitter_frac.min(1.0);
        let jitter: f64 = self.jitter_rng.lock().gen_range(-frac..frac);
        (base as f64 * (1.0 + jitter)).round().max(0.0) as i64
    }

    /// Run `attempt` with retry + breaker bookkeeping. Returns the result
    /// of the first successful attempt plus the number of retries used.
    fn with_retries<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<(T, usize)> {
        let start_ms = self.clock.now_ms();
        let ctx = crate::ctx::current_ctx();
        if let Some(ctx) = &ctx {
            // A cancelled or out-of-budget query is a caller decision, not
            // a source failure: no breaker bookkeeping, no attempt.
            ctx.check()?;
        }
        if !self.breaker.acquire() {
            let err = EiiError::SourceUnavailable {
                source: self.inner.name().to_string(),
                attempts: 0,
                elapsed_ms: 0,
            };
            self.note_failure(&err, true);
            return Err(err);
        }
        let mut retries = 0usize;
        loop {
            match attempt() {
                Ok(v) => {
                    self.breaker.on_success();
                    return Ok((v, retries));
                }
                Err(err) if matches!(err.kind(), "cancelled" | "deadline") => {
                    // Surfaced from a ctx check inside the attempt: the
                    // source did not fail, the query gave up. Return the
                    // probe permit (if any) untallied.
                    self.breaker.release_probe();
                    return Err(err);
                }
                Err(err) => {
                    self.breaker.on_failure();
                    self.note_failure(&err, false);
                    let attempts = retries + 1;
                    let elapsed_ms = self.clock.now_ms() - start_ms;
                    if attempts >= self.policy.max_attempts {
                        // Exhausted: collapse into the structured error
                        // unless the inner error is already structural
                        // (planner misuse etc. should not be masked).
                        return Err(if err.is_transport() {
                            EiiError::SourceUnavailable {
                                source: self.inner.name().to_string(),
                                attempts,
                                elapsed_ms,
                            }
                        } else {
                            err
                        });
                    }
                    if !err.is_transport() {
                        // Non-transport errors (bad query, missing table)
                        // will not heal with retries.
                        return Err(err);
                    }
                    if !self.breaker.allow() {
                        return Err(EiiError::SourceUnavailable {
                            source: self.inner.name().to_string(),
                            attempts,
                            elapsed_ms,
                        });
                    }
                    let backoff = self.jittered_backoff_ms(attempts);
                    if let Some(deadline) = ctx.as_ref().and_then(|c| c.deadline.as_ref()) {
                        // Not enough budget to back off and try again:
                        // surface the deadline instead of a doomed retry.
                        if deadline.remaining_ms() <= backoff {
                            return Err(EiiError::DeadlineExceeded {
                                budget_ms: deadline.budget_ms(),
                                elapsed_ms: deadline.elapsed_ms(),
                            });
                        }
                    }
                    retries += 1;
                    self.ledger.record_retry(self.inner.name());
                    if let Some(metrics) = &self.metrics {
                        metrics.inc(&format!("source.{}.retries", self.inner.name()));
                    }
                    self.clock.advance_ms(backoff);
                }
            }
        }
    }

    /// Remember the latest error for health reports and count it. Fail-fast
    /// rejections from an open breaker are counted separately — the source
    /// itself was never consulted.
    fn note_failure(&self, err: &EiiError, rejected: bool) {
        *self.last_error.lock() = Some(err.message());
        if let Some(metrics) = &self.metrics {
            let suffix = if rejected { "rejected" } else { "failures" };
            metrics.inc(&format!("source.{}.{suffix}", self.inner.name()));
        }
    }
}

impl Connector for ResilientConnector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<String> {
        self.inner.tables()
    }

    fn table_schema(&self, table: &str) -> Result<eii_data::SchemaRef> {
        self.inner.table_schema(table)
    }

    fn capabilities(&self) -> crate::capability::SourceCapabilities {
        self.inner.capabilities()
    }

    fn dialect(&self) -> crate::dialect::Dialect {
        self.inner.dialect()
    }

    fn statistics(&self, table: &str) -> Result<Arc<eii_storage::TableStats>> {
        self.inner.statistics(table)
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        let (mut ans, retries) = self.with_retries(|| self.inner.execute(query))?;
        // Every retry was a real round trip the cost model must charge.
        ans.calls += retries;
        Ok(ans)
    }

    fn update(&self, op: &UpdateOp) -> Result<UpdateResult> {
        let (res, _retries) = self.with_retries(|| self.inner.update(op))?;
        Ok(res)
    }

    fn changes_since(
        &self,
        table: &str,
        after_seq: u64,
    ) -> Result<(Vec<eii_storage::Change>, u64)> {
        let (res, _retries) = self.with_retries(|| self.inner.changes_since(table, after_seq))?;
        Ok(res)
    }

    fn breaker_status(&self) -> Option<BreakerStatus> {
        Some(self.breaker.status())
    }

    fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A connector that fails its first `fail_first` requests, then
    /// succeeds forever.
    struct FlakyConnector {
        fail_first: usize,
        served: AtomicUsize,
    }

    impl FlakyConnector {
        fn new(fail_first: usize) -> Self {
            FlakyConnector {
                fail_first,
                served: AtomicUsize::new(0),
            }
        }
    }

    impl Connector for FlakyConnector {
        fn name(&self) -> &str {
            "flaky"
        }

        fn tables(&self) -> Vec<String> {
            vec!["t".into()]
        }

        fn table_schema(&self, _table: &str) -> Result<eii_data::SchemaRef> {
            Ok(std::sync::Arc::new(eii_data::Schema::new(vec![
                eii_data::Field::new("x", eii_data::DataType::Int),
            ])))
        }

        fn capabilities(&self) -> crate::capability::SourceCapabilities {
            crate::capability::SourceCapabilities::relational()
        }

        fn dialect(&self) -> crate::dialect::Dialect {
            crate::dialect::Dialect::ansi_full()
        }

        fn execute(&self, _query: &SourceQuery) -> Result<SourceAnswer> {
            let n = self.served.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                Err(EiiError::Source("flaky: refused".into()))
            } else {
                let schema = self.table_schema("t")?;
                Ok(SourceAnswer::one_shot(
                    eii_data::ColumnarBatch::from_batch(&eii_data::Batch::new(
                        schema,
                        vec![eii_data::row![1i64]],
                    )),
                    1,
                ))
            }
        }
    }

    fn hardened(fail_first: usize, policy: RetryPolicy) -> (ResilientConnector, SimClock) {
        let clock = SimClock::new();
        let conn = ResilientConnector::new(
            Arc::new(FlakyConnector::new(fail_first)),
            policy,
            CircuitBreakerConfig::default(),
            clock.clone(),
            TransferLedger::new(),
        );
        (conn, clock)
    }

    #[test]
    fn retries_heal_transient_failures_and_charge_round_trips() {
        let (conn, clock) = hardened(2, RetryPolicy::standard());
        let ans = conn.execute(&SourceQuery::full_table("t")).unwrap();
        assert_eq!(ans.batch.num_rows(), 1);
        assert_eq!(ans.calls, 3, "1 answer + 2 retries");
        // Backoffs advanced the simulated clock: 10ms + 20ms, +/- 10% jitter.
        assert!((27..=33).contains(&clock.now_ms()), "now={}", clock.now_ms());
    }

    #[test]
    fn exhausted_retries_surface_source_unavailable() {
        let (conn, clock) = hardened(100, RetryPolicy::standard());
        let err = conn.execute(&SourceQuery::full_table("t")).unwrap_err();
        assert_eq!(err.kind(), "source_unavailable");
        let EiiError::SourceUnavailable {
            source,
            attempts,
            elapsed_ms,
        } = err
        else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(source, "flaky");
        assert_eq!(attempts, 3);
        // The two backoffs (10 + 20 ms, ±10% jitter) are the elapsed time.
        assert_eq!(elapsed_ms, clock.now_ms());
        assert!((27..=33).contains(&elapsed_ms), "elapsed={elapsed_ms}");
    }

    #[test]
    fn non_transport_errors_do_not_retry() {
        struct BadQuery;
        impl Connector for BadQuery {
            fn name(&self) -> &str {
                "bad"
            }
            fn tables(&self) -> Vec<String> {
                vec![]
            }
            fn table_schema(&self, _t: &str) -> Result<eii_data::SchemaRef> {
                Err(EiiError::NotFound("t".into()))
            }
            fn capabilities(&self) -> crate::capability::SourceCapabilities {
                crate::capability::SourceCapabilities::relational()
            }
            fn dialect(&self) -> crate::dialect::Dialect {
                crate::dialect::Dialect::ansi_full()
            }
            fn execute(&self, _q: &SourceQuery) -> Result<SourceAnswer> {
                Err(EiiError::NotFound("no such table".into()))
            }
        }
        let ledger = TransferLedger::new();
        let conn = ResilientConnector::new(
            Arc::new(BadQuery),
            RetryPolicy::standard(),
            CircuitBreakerConfig::default(),
            SimClock::new(),
            ledger.clone(),
        );
        let err = conn.execute(&SourceQuery::full_table("t")).unwrap_err();
        assert_eq!(err.kind(), "not_found");
        assert_eq!(ledger.traffic("bad").retries, 0);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let clock = SimClock::new();
        let breaker = CircuitBreaker::new(
            CircuitBreakerConfig {
                failure_threshold: 3,
                cooldown_ms: 100,
                success_threshold: 2,
            },
            clock.clone(),
        );
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Two failures + a success reset the streak.
        breaker.on_failure();
        breaker.on_failure();
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Three consecutive failures trip it.
        breaker.on_failure();
        breaker.on_failure();
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow());
        // Cooldown not yet elapsed.
        clock.advance_ms(99);
        assert_eq!(breaker.state(), BreakerState::Open);
        // Cooldown elapses: half-open lets probes through.
        clock.advance_ms(1);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.allow());
        // First probe succeeds but threshold is 2: still half-open.
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_transitions_emit_exact_metric_counts() {
        let clock = SimClock::new();
        let metrics = eii_obs::MetricsRegistry::new();
        let breaker = CircuitBreaker::new(
            CircuitBreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 100,
                success_threshold: 1,
            },
            clock.clone(),
        )
        .instrumented(metrics.clone(), "crm");
        // One full closed -> open -> half-open -> closed walk.
        breaker.on_failure();
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        clock.advance_ms(100);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("breaker.crm.to_open"), 1);
        assert_eq!(snap.counter("breaker.crm.to_half_open"), 1);
        assert_eq!(snap.counter("breaker.crm.to_closed"), 1);
        // The status view carries the same counts.
        let status = breaker.status();
        assert_eq!(status.state, BreakerState::Closed);
        assert_eq!((status.to_open, status.to_half_open, status.to_closed), (1, 1, 1));
        // A second trip increments only the open counter.
        breaker.on_failure();
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("breaker.crm.to_open"), 2);
        assert_eq!(snap.counter("breaker.crm.to_half_open"), 1);
        assert_eq!(snap.counter("breaker.crm.to_closed"), 1);
    }

    #[test]
    fn halfopen_probe_failure_reopens() {
        let clock = SimClock::new();
        let breaker = CircuitBreaker::new(
            CircuitBreakerConfig {
                failure_threshold: 1,
                cooldown_ms: 50,
                success_threshold: 1,
            },
            clock.clone(),
        );
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        clock.advance_ms(50);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        // The cooldown restarts from the re-open.
        clock.advance_ms(49);
        assert_eq!(breaker.state(), BreakerState::Open);
        clock.advance_ms(1);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn open_breaker_fails_fast_without_touching_the_source() {
        let clock = SimClock::new();
        let inner = Arc::new(FlakyConnector::new(usize::MAX));
        let conn = ResilientConnector::new(
            inner.clone(),
            RetryPolicy::none(),
            CircuitBreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 1_000,
                success_threshold: 1,
            },
            clock.clone(),
            TransferLedger::new(),
        );
        let q = SourceQuery::full_table("t");
        assert!(conn.execute(&q).is_err());
        assert!(conn.execute(&q).is_err());
        let before = inner.served.load(Ordering::SeqCst);
        // Breaker is now open: requests are rejected without reaching the
        // inner connector, with attempts = 0.
        let err = conn.execute(&q).unwrap_err();
        assert_eq!(
            err,
            EiiError::SourceUnavailable {
                source: "flaky".into(),
                attempts: 0,
                elapsed_ms: 0,
            }
        );
        assert_eq!(inner.served.load(Ordering::SeqCst), before);
    }

    /// A connector whose first request fails and whose later requests block
    /// until released — so half-open probes from racing threads overlap.
    struct GatedConnector {
        served: AtomicUsize,
        entered: AtomicUsize,
        release: std::sync::atomic::AtomicBool,
    }

    impl GatedConnector {
        fn new() -> Self {
            GatedConnector {
                served: AtomicUsize::new(0),
                entered: AtomicUsize::new(0),
                release: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl Connector for GatedConnector {
        fn name(&self) -> &str {
            "gated"
        }
        fn tables(&self) -> Vec<String> {
            vec!["t".into()]
        }
        fn table_schema(&self, _t: &str) -> Result<eii_data::SchemaRef> {
            Ok(std::sync::Arc::new(eii_data::Schema::new(vec![
                eii_data::Field::new("x", eii_data::DataType::Int),
            ])))
        }
        fn capabilities(&self) -> crate::capability::SourceCapabilities {
            crate::capability::SourceCapabilities::relational()
        }
        fn dialect(&self) -> crate::dialect::Dialect {
            crate::dialect::Dialect::ansi_full()
        }
        fn execute(&self, _q: &SourceQuery) -> Result<SourceAnswer> {
            if self.served.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(EiiError::Source("gated: down".into()));
            }
            self.entered.fetch_add(1, Ordering::SeqCst);
            while !self.release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let schema = self.table_schema("t")?;
            Ok(SourceAnswer::one_shot(
                eii_data::ColumnarBatch::from_batch(&eii_data::Batch::new(
                        schema,
                        vec![eii_data::row![1i64]],
                    )),
                1,
            ))
        }
    }

    #[test]
    fn halfopen_admits_exactly_the_configured_probe_count_under_races() {
        const PROBES: usize = 2;
        const RACERS: usize = 6;
        let clock = SimClock::new();
        let inner = Arc::new(GatedConnector::new());
        let conn = Arc::new(ResilientConnector::new(
            inner.clone(),
            RetryPolicy::none(),
            CircuitBreakerConfig {
                failure_threshold: 1,
                cooldown_ms: 50,
                success_threshold: PROBES,
            },
            clock.clone(),
            TransferLedger::new(),
        ));
        // Trip the breaker, then let the cooldown elapse.
        assert!(conn.execute(&SourceQuery::full_table("t")).is_err());
        assert_eq!(conn.breaker().state(), BreakerState::Open);
        clock.advance_ms(50);

        // Race the recovering source from many sessions at once. The
        // admitted probes block inside the connector until released, so the
        // rest of the pack decides while the permits are genuinely held.
        let results: Vec<Result<SourceAnswer>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    let conn = conn.clone();
                    s.spawn(move || conn.execute(&SourceQuery::full_table("t")))
                })
                .collect();
            // Wait until both probes are inside the source, then make sure
            // nobody else sneaks in before releasing them.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while inner.entered.load(Ordering::SeqCst) < PROBES {
                assert!(std::time::Instant::now() < deadline, "probes never arrived");
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(
                inner.entered.load(Ordering::SeqCst),
                PROBES,
                "only the configured probe count may reach the source"
            );
            inner.release.store(true, Ordering::SeqCst);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, PROBES, "exactly the admitted probes succeed");
        for err in results.iter().filter_map(|r| r.as_ref().err()) {
            assert_eq!(
                *err,
                EiiError::SourceUnavailable {
                    source: "gated".into(),
                    attempts: 0,
                    elapsed_ms: 0,
                },
                "losers fail fast without touching the source"
            );
        }
        // Both probes succeeded, so the breaker closed again.
        assert_eq!(conn.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn retries_stop_when_the_deadline_cannot_afford_the_backoff() {
        let (conn, clock) = hardened(100, RetryPolicy::standard());
        // Budget covers the first backoff (~10 ms) but not the second
        // (~20 ms): the loop surfaces the deadline instead of retry #2.
        let deadline = eii_data::Deadline::new(clock.clone(), 25);
        let ctx = crate::ctx::RequestCtx::new().with_deadline(deadline);
        let err = crate::ctx::with_request_ctx(&ctx, || {
            conn.execute(&SourceQuery::full_table("t"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert!(clock.now_ms() < 25, "the doomed backoff was never taken");
    }

    #[test]
    fn cancelled_queries_never_touch_the_source() {
        let (conn, _clock) = hardened(0, RetryPolicy::standard());
        let cancel = eii_data::CancelToken::new();
        cancel.cancel("caller hung up");
        let ctx = crate::ctx::RequestCtx::new().with_cancel(cancel);
        let err = crate::ctx::with_request_ctx(&ctx, || {
            conn.execute(&SourceQuery::full_table("t"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), "cancelled");
    }
}
