//! The simulated network.
//!
//! Every byte that leaves a source crosses a [`LinkProfile`] (fixed per-
//! request latency plus bandwidth-proportional transfer time) and is recorded
//! in a [`TransferLedger`]. The pushdown experiments (E3, E11) read the
//! ledger; the executor uses [`QueryCost`] to compute a plan's simulated
//! elapsed time (parallel branches take the max, sequential steps add).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use eii_data::ColumnarBatch;

/// How result rows are serialized on the wire.
///
/// `Xml` models the early-EII architecture Bitton criticizes: "Each table
/// would be converted to XML, increasing its size about 3 times".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    #[default]
    Native,
    Xml,
}

impl WireFormat {
    /// Bytes this batch's live rows occupy on the wire in this format.
    pub fn bytes_of(self, batch: &ColumnarBatch) -> usize {
        match self {
            WireFormat::Native => batch.wire_size(),
            WireFormat::Xml => batch.xml_wire_size(),
        }
    }
}

/// Performance characteristics of the link between the EII server and a
/// source (or between two sources, for source-to-source shipping during
/// assembly-site selection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Fixed cost per request round trip, simulated milliseconds.
    pub latency_ms: f64,
    /// Transfer rate, bytes per simulated millisecond.
    pub bandwidth_bytes_per_ms: f64,
}

impl LinkProfile {
    /// A LAN-ish default: 2 ms round trip, 100 KB/ms.
    pub fn lan() -> Self {
        LinkProfile {
            latency_ms: 2.0,
            bandwidth_bytes_per_ms: 100_000.0,
        }
    }

    /// A WAN-ish link: 40 ms round trip, 5 KB/ms.
    pub fn wan() -> Self {
        LinkProfile {
            latency_ms: 40.0,
            bandwidth_bytes_per_ms: 5_000.0,
        }
    }

    /// Zero-cost link (co-located source; also useful in unit tests).
    pub fn local() -> Self {
        LinkProfile {
            latency_ms: 0.0,
            bandwidth_bytes_per_ms: f64::INFINITY,
        }
    }

    /// Simulated time to move `bytes` over this link in one request.
    pub fn transfer_ms(&self, bytes: usize) -> f64 {
        if self.bandwidth_bytes_per_ms.is_infinite() {
            self.latency_ms
        } else {
            self.latency_ms + bytes as f64 / self.bandwidth_bytes_per_ms
        }
    }
}

/// Cost of one source interaction (or an aggregate of several).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryCost {
    /// Simulated elapsed milliseconds.
    pub sim_ms: f64,
    /// Bytes shipped over the network.
    pub bytes: usize,
    /// Rows shipped to the assembly site.
    pub rows_shipped: usize,
    /// Rows the source engine examined to answer.
    pub rows_scanned: usize,
    /// Requests issued.
    pub requests: usize,
}

impl QueryCost {
    /// Sequential composition: costs add.
    pub fn then(self, other: QueryCost) -> QueryCost {
        QueryCost {
            sim_ms: self.sim_ms + other.sim_ms,
            bytes: self.bytes + other.bytes,
            rows_shipped: self.rows_shipped + other.rows_shipped,
            rows_scanned: self.rows_scanned + other.rows_scanned,
            requests: self.requests + other.requests,
        }
    }

    /// Parallel composition: elapsed time is the max, volumes add.
    pub fn alongside(self, other: QueryCost) -> QueryCost {
        QueryCost {
            sim_ms: self.sim_ms.max(other.sim_ms),
            bytes: self.bytes + other.bytes,
            rows_shipped: self.rows_shipped + other.rows_shipped,
            rows_scanned: self.rows_scanned + other.rows_scanned,
            requests: self.requests + other.requests,
        }
    }
}

/// Per-source accumulated transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct SourceTraffic {
    pub requests: usize,
    pub bytes: usize,
    pub rows: usize,
    pub sim_ms: f64,
    /// Requests that failed (injected fault, outage, or timeout).
    pub failures: usize,
    /// Requests that were re-issued after a failure.
    pub retries: usize,
    /// Bytes a federated plan *would* have shipped from this source but did
    /// not, because a materialized view or the semantic result cache
    /// answered instead.
    pub bytes_saved: usize,
    /// Backup (hedged) requests launched against this source. The losing
    /// fetch's bytes and requests are in the plain counters — hedging pays
    /// real traffic for latency — this counts how often it fired.
    pub hedges: usize,
}

/// A shared ledger recording all traffic by source name. Cloning shares the
/// underlying ledger.
#[derive(Debug, Clone, Default)]
pub struct TransferLedger {
    inner: Arc<Mutex<BTreeMap<String, SourceTraffic>>>,
}

impl TransferLedger {
    /// New empty ledger.
    pub fn new() -> Self {
        TransferLedger::default()
    }

    /// Record one transfer from `source`.
    pub fn record(&self, source: &str, bytes: usize, rows: usize, sim_ms: f64) {
        let mut inner = self.inner.lock();
        let t = inner.entry(source.to_string()).or_default();
        t.requests += 1;
        t.bytes += bytes;
        t.rows += rows;
        t.sim_ms += sim_ms;
    }

    /// Record one failed request from `source`.
    pub fn record_failure(&self, source: &str) {
        self.inner.lock().entry(source.to_string()).or_default().failures += 1;
    }

    /// Record one retry (a request re-issued after a failure) to `source`.
    pub fn record_retry(&self, source: &str) {
        self.inner.lock().entry(source.to_string()).or_default().retries += 1;
    }

    /// Record one hedged (backup) request launched against `source`.
    pub fn record_hedge(&self, source: &str) {
        self.inner.lock().entry(source.to_string()).or_default().hedges += 1;
    }

    /// Record bytes a query avoided shipping from `source` (served from a
    /// materialized view or the result cache instead of the live source).
    /// These bytes do NOT count toward [`SourceTraffic::bytes`].
    pub fn record_saved(&self, source: &str, bytes: usize) {
        self.inner
            .lock()
            .entry(source.to_string())
            .or_default()
            .bytes_saved += bytes;
    }

    /// Traffic attributed to one source.
    pub fn traffic(&self, source: &str) -> SourceTraffic {
        self.inner.lock().get(source).copied().unwrap_or_default()
    }

    /// Sum over all sources.
    pub fn total(&self) -> SourceTraffic {
        let inner = self.inner.lock();
        inner.values().fold(SourceTraffic::default(), |a, b| {
            SourceTraffic {
                requests: a.requests + b.requests,
                bytes: a.bytes + b.bytes,
                rows: a.rows + b.rows,
                sim_ms: a.sim_ms + b.sim_ms,
                failures: a.failures + b.failures,
                retries: a.retries + b.retries,
                bytes_saved: a.bytes_saved + b.bytes_saved,
                hedges: a.hedges + b.hedges,
            }
        })
    }

    /// Snapshot of all per-source entries, sorted by source name.
    pub fn snapshot(&self) -> Vec<(String, SourceTraffic)> {
        self.inner
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Clear all counters (between experiment trials).
    pub fn reset(&self) {
        self.inner.lock().clear();
    }
}

// ── Fault injection ─────────────────────────────────────────────────────
//
// Sources in a real enterprise go away: machines reboot, WANs partition,
// engines hang. The fault layer makes that observable and *deterministic* —
// content-addressed dice (a pure function of profile seed, request
// fingerprint, and attempt number) decide each request's fate, and
// transient outages are windows on the simulated clock, so every
// experiment replays exactly, whatever order requests are issued in.

use eii_data::{EiiError, Result, SimClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::connector::{Connector, SourceAnswer, SourceQuery, UpdateOp, UpdateResult};

/// Deterministic fault model for one source.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability an individual request fails outright (connection
    /// refused, engine error).
    pub fail_prob: f64,
    /// Probability an individual request hangs until the client deadline.
    pub timeout_prob: f64,
    /// Probability a request succeeds but suffers a latency spike.
    pub spike_prob: f64,
    /// Extra simulated latency a spike adds, ms.
    pub spike_ms: i64,
    /// How long a caller waits on a hung request before declaring a
    /// timeout, simulated ms.
    pub deadline_ms: i64,
    /// Transient outage windows `[start_ms, end_ms)` on the simulated
    /// clock. Every request inside a window fails regardless of the dice;
    /// once the window passes, the source heals.
    pub outages: Vec<(i64, i64)>,
    /// RNG seed: same profile, same request sequence, same faults.
    pub seed: u64,
}

impl FaultProfile {
    /// A profile that never faults (useful as a baseline control).
    pub fn none() -> Self {
        FaultProfile {
            fail_prob: 0.0,
            timeout_prob: 0.0,
            spike_prob: 0.0,
            spike_ms: 0,
            deadline_ms: 1_000,
            outages: Vec::new(),
            seed: 0,
        }
    }

    /// Each request fails independently with probability `fail_prob`.
    pub fn failing(fail_prob: f64, seed: u64) -> Self {
        FaultProfile {
            fail_prob,
            seed,
            ..FaultProfile::none()
        }
    }

    /// Add a transient outage window `[start_ms, end_ms)`.
    pub fn with_outage(mut self, start_ms: i64, end_ms: i64) -> Self {
        assert!(start_ms <= end_ms, "outage window must not be inverted");
        self.outages.push((start_ms, end_ms));
        self
    }

    /// Requests additionally hang (then time out) with this probability.
    pub fn with_timeouts(mut self, timeout_prob: f64, deadline_ms: i64) -> Self {
        self.timeout_prob = timeout_prob;
        self.deadline_ms = deadline_ms;
        self
    }

    /// Requests additionally suffer latency spikes with this probability.
    pub fn with_spikes(mut self, spike_prob: f64, spike_ms: i64) -> Self {
        self.spike_prob = spike_prob;
        self.spike_ms = spike_ms;
        self
    }

    /// Reseed the fault dice (same profile + seed → same fault sequence).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True if `now_ms` falls inside an outage window.
    pub fn in_outage(&self, now_ms: i64) -> bool {
        self.outages.iter().any(|&(s, e)| now_ms >= s && now_ms < e)
    }
}

/// One request's fate, as decided by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The request goes through, with `extra_ms` of added latency.
    Deliver { extra_ms: i64 },
    /// The request fails immediately.
    Fail,
    /// The request hangs; the caller gives up at its deadline.
    Timeout,
}

/// Mix (seed, fingerprint, attempt) into one word — a splitmix64-style
/// finalizer, so nearby inputs land far apart in roll space.
fn mix3(seed: u64, fingerprint: u64, attempt: u64) -> u64 {
    let mut x = seed ^ fingerprint.rotate_left(25) ^ attempt.rotate_left(47);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Rolls the dice for each request against a [`FaultProfile`].
///
/// Rolls are **content-addressed**, not drawn from one sequential stream:
/// a request's fate is a pure function of `(profile seed, request
/// fingerprint, per-fingerprint attempt number)`. Concurrent requests —
/// parallel plan branches, racing partition fetches — therefore get the
/// same fates regardless of which thread asks first, which is what keeps
/// chaos traces bit-identical under real parallelism. Retries of the same
/// request advance its private attempt counter, so backoff still heals.
#[derive(Debug)]
pub struct FaultInjector {
    profile: FaultProfile,
    attempts: Mutex<BTreeMap<u64, u64>>,
}

impl FaultInjector {
    /// Injector for the given profile.
    pub fn new(profile: FaultProfile) -> Self {
        FaultInjector {
            profile,
            attempts: Mutex::new(BTreeMap::new()),
        }
    }

    /// The profile this injector rolls against.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decide the fate of one request issued at simulated time `now_ms`,
    /// where `fingerprint` identifies the request's content (same query,
    /// same fingerprint; retries share it and are sequenced by an attempt
    /// counter).
    ///
    /// Outage windows override the dice (and do not consume a roll), so
    /// retry behavior around an outage is independent of its timing.
    pub fn decide(&self, now_ms: i64, fingerprint: u64) -> FaultDecision {
        if self.profile.in_outage(now_ms) {
            return FaultDecision::Fail;
        }
        let p = &self.profile;
        if p.fail_prob <= 0.0 && p.timeout_prob <= 0.0 && p.spike_prob <= 0.0 {
            return FaultDecision::Deliver { extra_ms: 0 };
        }
        let attempt = {
            let mut attempts = self.attempts.lock();
            let n = attempts.entry(fingerprint).or_insert(0);
            let a = *n;
            *n += 1;
            a
        };
        let roll: f64 = StdRng::seed_from_u64(mix3(p.seed, fingerprint, attempt))
            .gen_range(0.0..1.0);
        if roll < p.fail_prob {
            FaultDecision::Fail
        } else if roll < p.fail_prob + p.timeout_prob {
            FaultDecision::Timeout
        } else if roll < p.fail_prob + p.timeout_prob + p.spike_prob {
            FaultDecision::Deliver {
                extra_ms: p.spike_ms,
            }
        } else {
            FaultDecision::Deliver { extra_ms: 0 }
        }
    }
}

/// Stable fingerprint of a request's content: FNV-1a over its `Debug`
/// rendering. Identical requests (e.g. a retry of the same pushed-down
/// query) share a fingerprint; any difference in table, filters, bindings,
/// or limit separates them, so each distinct request rolls independent
/// fault dice no matter what order threads issue them in.
fn request_fingerprint(request: &impl std::fmt::Debug) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in format!("{request:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A connector wrapper that subjects every `execute`/`update` to a
/// [`FaultProfile`]. Metadata calls (schemas, statistics, capabilities) are
/// never faulted — they model locally cached catalog information.
pub struct FaultyConnector {
    inner: Arc<dyn Connector>,
    injector: FaultInjector,
    clock: SimClock,
    ledger: TransferLedger,
}

impl FaultyConnector {
    /// Wrap `inner`, rolling faults from `profile` on the given clock and
    /// recording failures in `ledger`.
    pub fn new(
        inner: Arc<dyn Connector>,
        profile: FaultProfile,
        clock: SimClock,
        ledger: TransferLedger,
    ) -> Self {
        FaultyConnector {
            inner,
            injector: FaultInjector::new(profile),
            clock,
            ledger,
        }
    }

    /// The wrapped connector.
    pub fn inner(&self) -> &Arc<dyn Connector> {
        &self.inner
    }

    fn gate(&self, fingerprint: u64) -> Result<i64> {
        // A cancelled or out-of-budget query never reaches the source; that
        // is a caller decision, not a source failure, so nothing is rolled
        // and nothing is recorded against the source.
        let ctx = crate::ctx::current_ctx();
        if let Some(ctx) = &ctx {
            ctx.check()?;
        }
        match self.injector.decide(self.clock.now_ms(), fingerprint) {
            FaultDecision::Deliver { extra_ms } => Ok(extra_ms),
            FaultDecision::Fail => {
                self.ledger.record_failure(self.inner.name());
                Err(EiiError::Source(format!(
                    "injected fault: {} refused the request",
                    self.inner.name()
                )))
            }
            FaultDecision::Timeout => {
                let deadline = self.injector.profile().deadline_ms;
                // The caller waits out its full per-request deadline — or
                // only its remaining query budget, whichever runs out first
                // (a shrinking sub-budget: no point waiting on a hung
                // request past the point the whole query is already late).
                let wait = match ctx.as_ref().and_then(|c| c.remaining_ms()) {
                    Some(remaining) => deadline.min(remaining),
                    None => deadline,
                };
                self.clock.advance_ms(wait);
                self.ledger.record_failure(self.inner.name());
                Err(EiiError::Timeout {
                    source: self.inner.name().to_string(),
                    deadline_ms: deadline,
                    attempts: 1,
                    elapsed_ms: wait,
                })
            }
        }
    }
}

impl Connector for FaultyConnector {
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
        let extra_ms = self.gate(request_fingerprint(&query))?;
        if extra_ms > 0 {
            self.clock.advance_ms(extra_ms);
        }
        self.inner.execute(query)
    }

    fn update(&self, op: &UpdateOp) -> Result<UpdateResult> {
        let extra_ms = self.gate(request_fingerprint(&op))?;
        if extra_ms > 0 {
            self.clock.advance_ms(extra_ms);
        }
        self.inner.update(op)
    }

    fn changes_since(
        &self,
        table: &str,
        after_seq: u64,
    ) -> Result<(Vec<eii_storage::Change>, u64)> {
        let extra_ms = self.gate(request_fingerprint(&(table, after_seq)))?;
        if extra_ms > 0 {
            self.clock.advance_ms(extra_ms);
        }
        self.inner.changes_since(table, after_seq)
    }

    fn breaker_status(&self) -> Option<crate::resilience::BreakerStatus> {
        self.inner.breaker_status()
    }

    fn last_error(&self) -> Option<String> {
        self.inner.last_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, Batch, DataType, Field, Schema};
    use std::sync::Arc as StdArc;

    #[test]
    fn link_cost_includes_latency_and_bandwidth() {
        let link = LinkProfile {
            latency_ms: 10.0,
            bandwidth_bytes_per_ms: 100.0,
        };
        assert!((link.transfer_ms(1000) - 20.0).abs() < 1e-9);
        assert!((LinkProfile::local().transfer_ms(1 << 30) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn xml_format_inflates_bytes() {
        let schema = StdArc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
        ]));
        let rows = Batch::new(schema, vec![row![1i64, "alice"], row![2i64, "bob"]]);
        let b = ColumnarBatch::from_batch(&rows);
        assert!(WireFormat::Xml.bytes_of(&b) > WireFormat::Native.bytes_of(&b));
    }

    #[test]
    fn cost_composition() {
        let a = QueryCost {
            sim_ms: 10.0,
            bytes: 100,
            rows_shipped: 1,
            rows_scanned: 5,
            requests: 1,
        };
        let b = QueryCost {
            sim_ms: 4.0,
            bytes: 50,
            rows_shipped: 2,
            rows_scanned: 3,
            requests: 1,
        };
        let seq = a.then(b);
        assert!((seq.sim_ms - 14.0).abs() < 1e-9);
        assert_eq!(seq.bytes, 150);
        let par = a.alongside(b);
        assert!((par.sim_ms - 10.0).abs() < 1e-9);
        assert_eq!(par.requests, 2);
    }

    #[test]
    fn ledger_accumulates_per_source() {
        let ledger = TransferLedger::new();
        ledger.record("crm", 100, 2, 5.0);
        ledger.record("crm", 50, 1, 2.0);
        ledger.record("orders", 10, 1, 1.0);
        let crm = ledger.traffic("crm");
        assert_eq!(crm.requests, 2);
        assert_eq!(crm.bytes, 150);
        assert_eq!(ledger.total().bytes, 160);
        ledger.reset();
        assert_eq!(ledger.total().requests, 0);
    }

    #[test]
    fn ledger_clones_share_state() {
        let a = TransferLedger::new();
        let b = a.clone();
        a.record("s", 1, 1, 1.0);
        assert_eq!(b.traffic("s").bytes, 1);
    }

    #[test]
    fn ledger_counts_failures_and_retries() {
        let ledger = TransferLedger::new();
        ledger.record_failure("crm");
        ledger.record_failure("crm");
        ledger.record_retry("crm");
        let t = ledger.traffic("crm");
        assert_eq!((t.failures, t.retries), (2, 1));
        assert_eq!(ledger.total().failures, 2);
    }

    #[test]
    fn ledger_counts_hedges() {
        let ledger = TransferLedger::new();
        ledger.record_hedge("crm");
        ledger.record_hedge("crm");
        assert_eq!(ledger.traffic("crm").hedges, 2);
        assert_eq!(ledger.total().hedges, 2);
        assert_eq!(ledger.traffic("crm").requests, 0, "hedge count is separate");
    }

    #[test]
    fn ledger_tracks_saved_bytes_separately() {
        let ledger = TransferLedger::new();
        ledger.record("crm", 100, 2, 5.0);
        ledger.record_saved("crm", 400);
        ledger.record_saved("sales", 50);
        assert_eq!(ledger.traffic("crm").bytes_saved, 400);
        assert_eq!(ledger.traffic("crm").bytes, 100, "saved bytes never shipped");
        assert_eq!(ledger.total().bytes_saved, 450);
    }

    #[test]
    fn fault_injector_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<FaultDecision> {
            let inj = FaultInjector::new(
                FaultProfile::failing(0.3, seed).with_timeouts(0.2, 100),
            );
            (0..50).map(|fp| inj.decide(0, fp)).collect()
        };
        assert_eq!(run(9), run(9), "same seed, same fault sequence");
        assert_ne!(run(9), run(10), "different seeds diverge");
        let faults = run(9)
            .iter()
            .filter(|d| !matches!(d, FaultDecision::Deliver { .. }))
            .count();
        assert!(faults > 0, "a 50% combined fault rate must fire in 50 rolls");
    }

    #[test]
    fn fault_rolls_are_independent_of_draw_order() {
        // Concurrent branches may ask in any order; each request's fate
        // must not depend on who rolled first.
        let make = || FaultInjector::new(FaultProfile::failing(0.5, 42));
        let forward = make();
        let a1 = forward.decide(0, 7);
        let b1 = forward.decide(0, 8);
        let reversed = make();
        let b2 = reversed.decide(0, 8);
        let a2 = reversed.decide(0, 7);
        assert_eq!(a1, a2, "request 7's fate is order-independent");
        assert_eq!(b1, b2, "request 8's fate is order-independent");
        // Retries of the SAME request advance its private attempt counter.
        let retry = make();
        let rolls: Vec<_> = (0..20).map(|_| retry.decide(0, 7)).collect();
        assert!(
            rolls.contains(&FaultDecision::Fail)
                && rolls
                    .iter()
                    .any(|d| matches!(d, FaultDecision::Deliver { .. })),
            "repeated attempts at p=0.5 must mix outcomes: {rolls:?}"
        );
    }

    #[test]
    fn outage_windows_override_the_dice() {
        let inj = FaultInjector::new(FaultProfile::none().with_outage(100, 200));
        assert_eq!(inj.decide(99, 0), FaultDecision::Deliver { extra_ms: 0 });
        assert_eq!(inj.decide(100, 0), FaultDecision::Fail);
        assert_eq!(inj.decide(199, 0), FaultDecision::Fail);
        assert_eq!(inj.decide(200, 0), FaultDecision::Deliver { extra_ms: 0 });
    }
}
