//! Durable workload query log: a bounded ring of serializable
//! per-statement records plus exact per-fingerprint aggregates.
//!
//! Every executed statement produces a [`QueryLogRecord`] keyed by a
//! **normalized-plan fingerprint** (FNV-1a of the optimized logical plan's
//! display form, so literal-identical statements collapse to one workload
//! entry). Two retention tiers keep the log useful at any scale:
//!
//! * **Aggregates** ([`FingerprintStats`]) are updated for *every*
//!   statement — counts, bytes shipped, sim-time, flag tallies. They are
//!   order-independent, so same-seed concurrent runs produce bit-identical
//!   aggregate tables (E18's determinism gate) and
//!   [`QueryLog::top_k`] gives exact workload rankings for the future
//!   matview advisor.
//! * **Records** are sampled into a bounded ring: every
//!   `sample_every`-th occurrence of a fingerprint is kept
//!   (deterministic — a function of the per-fingerprint sequence number,
//!   not of a global RNG), and *noteworthy* statements (errors, shed,
//!   cancelled, hedged, deadline-bound) are always kept so rare failures
//!   survive sampling.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use serde::Serialize;

/// FNV-1a offset basis (matches `bench::chaos::trace_fingerprint`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a normalized plan string — the workload fingerprint.
pub fn fingerprint64(text: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Outcome flags for one statement; drives tail-sampling and top-k slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StatementFlags {
    /// Served from the semantic result cache (fresh or stale hit).
    pub cached: bool,
    /// At least one subtree rewritten to a materialized view.
    pub matview: bool,
    /// A hedged backup request fired during execution.
    pub hedged: bool,
    /// Rejected by brownout admission (no execution happened).
    pub shed: bool,
    /// Completed with degraded (stale-fallback or brownout-partial) data.
    pub degraded: bool,
    /// Aborted by cooperative cancellation or a deadline.
    pub cancelled: bool,
}

impl StatementFlags {
    /// Whether this statement should bypass sampling (tail-sampling keep).
    pub fn noteworthy(&self) -> bool {
        self.hedged || self.shed || self.degraded || self.cancelled
    }

    /// Compact render like `cached|hedged` for headers and reports.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if self.cached {
            parts.push("cached");
        }
        if self.matview {
            parts.push("matview");
        }
        if self.hedged {
            parts.push("hedged");
        }
        if self.shed {
            parts.push("shed");
        }
        if self.degraded {
            parts.push("degraded");
        }
        if self.cancelled {
            parts.push("cancelled");
        }
        parts.join("|")
    }
}

/// Per-operator estimated-vs-actual stats carried on a log record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OperatorStat {
    /// Path of the operator in the physical tree, e.g. `0.1`.
    pub path: String,
    /// Operator label, e.g. `HashJoin`.
    pub label: String,
    /// Optimizer-estimated output rows.
    pub est_rows: u64,
    /// Observed output rows.
    pub actual_rows: u64,
    /// Observed bytes through the operator.
    pub bytes: u64,
    /// Simulated milliseconds attributed to the operator.
    pub sim_ms: f64,
}

/// One statement's telemetry record — everything the workload advisor or a
/// post-incident review needs, serializable via the serde shim.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryLogRecord {
    /// Normalized-plan fingerprint (FNV-1a of the optimized plan display).
    pub fingerprint: u64,
    /// Normalized plan text the fingerprint was computed from (shared: a
    /// repeated statement's records all point at one text).
    pub plan: Arc<str>,
    /// The statement's SQL text as submitted — the advisor re-plans
    /// candidate views from this, so top-k workload entries stay
    /// actionable without grepping traces.
    pub sql: Arc<str>,
    /// Session label, when the statement ran through a labelled session.
    pub session: Option<String>,
    /// Access-control role the statement ran under.
    pub role: String,
    /// Priority tier (`low` / `normal` / `high`).
    pub priority: String,
    /// Virtual-clock timestamp when execution started.
    pub start_sim_ms: f64,
    /// Simulated execution time.
    pub sim_ms: f64,
    /// Wall-clock execution time in microseconds.
    pub wall_us: u64,
    /// Rows returned.
    pub rows: u64,
    /// Total bytes shipped from remote sources for this statement.
    pub bytes_shipped: u64,
    /// Per-source bytes shipped, sorted by source name.
    pub per_source_bytes: Vec<(String, u64)>,
    /// Per-operator estimated-vs-actual stats (empty for cache hits).
    pub operators: Vec<OperatorStat>,
    /// Deadline budget in simulated ms, when one was set.
    pub deadline_budget_ms: Option<f64>,
    /// Simulated ms actually spent against the deadline budget.
    pub deadline_spent_ms: Option<f64>,
    /// Outcome flags.
    pub flags: StatementFlags,
    /// Error kind when the statement failed (e.g. `deadline`, `shed`).
    pub error: Option<String>,
    /// Trace ID when the statement's trace was retained in the store.
    pub trace_id: Option<u64>,
}

/// Exact aggregate for one fingerprint, updated on every statement.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FingerprintStats {
    /// Normalized-plan fingerprint.
    pub fingerprint: u64,
    /// Normalized plan text (first seen).
    pub plan: String,
    /// Representative SQL text (first seen) — what the advisor feeds back
    /// into the planner to define a candidate view for this fingerprint.
    pub sql: String,
    /// Statements observed.
    pub count: u64,
    /// Statements that returned an error.
    pub errors: u64,
    /// Total simulated ms.
    pub total_sim_ms: f64,
    /// Worst single-statement simulated ms.
    pub max_sim_ms: f64,
    /// Total bytes shipped.
    pub total_bytes: u64,
    /// Total rows returned.
    pub total_rows: u64,
    /// Statements served from cache.
    pub cached: u64,
    /// Statements that used a matview rewrite.
    pub matview: u64,
    /// Statements where a hedge fired.
    pub hedged: u64,
    /// Statements shed by admission control.
    pub shed: u64,
    /// Statements completing degraded.
    pub degraded: u64,
    /// Statements cancelled or deadline-aborted.
    pub cancelled: u64,
}

impl FingerprintStats {
    /// Mean simulated ms per statement.
    pub fn mean_sim_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_sim_ms / self.count as f64
        }
    }
}

/// Ranking key for [`QueryLog::top_k`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKey {
    /// Most frequently executed fingerprints.
    Count,
    /// Heaviest fingerprints by total bytes shipped from sources.
    BytesShipped,
    /// Heaviest fingerprints by total simulated time.
    SimMs,
    /// Fingerprints with the most errors.
    Errors,
}

#[derive(Debug, Default)]
struct LogInner {
    ring: VecDeque<QueryLogRecord>,
    stats: BTreeMap<u64, FingerprintStats>,
    seen: u64,
    kept: u64,
}

/// Bounded, sampled, thread-safe workload log. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct QueryLog {
    inner: Arc<Mutex<LogInner>>,
    capacity: usize,
    sample_every: u64,
}

impl Default for QueryLog {
    fn default() -> Self {
        QueryLog::new(1024, 16)
    }
}

impl QueryLog {
    /// A log retaining at most `capacity` sampled records, keeping every
    /// `sample_every`-th occurrence of each fingerprint (1 = keep all).
    pub fn new(capacity: usize, sample_every: u64) -> Self {
        QueryLog {
            inner: Arc::new(Mutex::new(LogInner::default())),
            capacity: capacity.max(1),
            sample_every: sample_every.max(1),
        }
    }

    /// Record one statement. Aggregates always update; the full record is
    /// retained when its per-fingerprint sequence number samples in or the
    /// outcome is noteworthy (error / hedge / shed / cancel / deadline).
    pub fn record(&self, record: QueryLogRecord) {
        let mut inner = self.inner.lock().expect("query log poisoned");
        inner.seen += 1;
        let stats = inner
            .stats
            .entry(record.fingerprint)
            .or_insert_with(|| FingerprintStats {
                fingerprint: record.fingerprint,
                plan: record.plan.to_string(),
                sql: record.sql.to_string(),
                ..FingerprintStats::default()
            });
        stats.count += 1;
        stats.total_sim_ms += record.sim_ms;
        if record.sim_ms > stats.max_sim_ms {
            stats.max_sim_ms = record.sim_ms;
        }
        stats.total_bytes += record.bytes_shipped;
        stats.total_rows += record.rows;
        if record.error.is_some() {
            stats.errors += 1;
        }
        if record.flags.cached {
            stats.cached += 1;
        }
        if record.flags.matview {
            stats.matview += 1;
        }
        if record.flags.hedged {
            stats.hedged += 1;
        }
        if record.flags.shed {
            stats.shed += 1;
        }
        if record.flags.degraded {
            stats.degraded += 1;
        }
        if record.flags.cancelled {
            stats.cancelled += 1;
        }
        let seq = stats.count;
        let keep = record.error.is_some()
            || record.flags.noteworthy()
            || record.deadline_budget_ms.is_some()
            || (seq - 1).is_multiple_of(self.sample_every);
        if keep {
            inner.kept += 1;
            inner.ring.push_back(record);
            while inner.ring.len() > self.capacity {
                inner.ring.pop_front();
            }
        }
    }

    /// Statements observed (sampled or not).
    pub fn seen(&self) -> u64 {
        self.inner.lock().expect("query log poisoned").seen
    }

    /// Records retained by sampling (may exceed ring length if old
    /// records were evicted).
    pub fn kept(&self) -> u64 {
        self.inner.lock().expect("query log poisoned").kept
    }

    /// Sampled records, oldest first.
    pub fn records(&self) -> Vec<QueryLogRecord> {
        let inner = self.inner.lock().expect("query log poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// The most recent sampled record.
    pub fn last(&self) -> Option<QueryLogRecord> {
        let inner = self.inner.lock().expect("query log poisoned");
        inner.ring.back().cloned()
    }

    /// Exact aggregate for one fingerprint.
    pub fn stats(&self, fingerprint: u64) -> Option<FingerprintStats> {
        let inner = self.inner.lock().expect("query log poisoned");
        inner.stats.get(&fingerprint).cloned()
    }

    /// Sorted `(fingerprint, count)` pairs over the whole workload — the
    /// order-independent digest compared across same-seed runs in E18.
    pub fn fingerprints(&self) -> Vec<(u64, u64)> {
        let inner = self.inner.lock().expect("query log poisoned");
        inner.stats.values().map(|s| (s.fingerprint, s.count)).collect()
    }

    /// Top-`k` fingerprints by `key`, descending, fingerprint tie-break.
    pub fn top_k(&self, k: usize, key: WorkloadKey) -> Vec<FingerprintStats> {
        let inner = self.inner.lock().expect("query log poisoned");
        let mut all: Vec<FingerprintStats> = inner.stats.values().cloned().collect();
        drop(inner);
        all.sort_by(|a, b| {
            let (wa, wb) = match key {
                WorkloadKey::Count => (a.count as f64, b.count as f64),
                WorkloadKey::BytesShipped => (a.total_bytes as f64, b.total_bytes as f64),
                WorkloadKey::SimMs => (a.total_sim_ms, b.total_sim_ms),
                WorkloadKey::Errors => (a.errors as f64, b.errors as f64),
            };
            wb.partial_cmp(&wa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        all.truncate(k);
        all
    }

    /// Render the top-`k` by `key` with the fingerprint, the counters the
    /// ranking used, *and* the normalized plan text each fingerprint
    /// hashes — so a workload ranking (or an advisor recommendation built
    /// from one) is debuggable on its own, without grepping traces for
    /// the plan a fingerprint stands for.
    pub fn top_k_report(&self, k: usize, key: WorkloadKey) -> String {
        let mut out = String::new();
        for stats in self.top_k(k, key) {
            out.push_str(&format!(
                "fp={:016x} count={} bytes={} sim_ms={:.1} errors={}\n  sql: {}\n  plan: {}\n",
                stats.fingerprint,
                stats.count,
                stats.total_bytes,
                stats.total_sim_ms,
                stats.errors,
                if stats.sql.is_empty() { "<unknown>" } else { &stats.sql },
                stats.plan.trim_end().replace('\n', "\n        "),
            ));
        }
        out
    }

    /// Drop all records and aggregates.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("query log poisoned");
        *inner = LogInner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(fp: &str, bytes: u64, sim_ms: f64) -> QueryLogRecord {
        QueryLogRecord {
            fingerprint: fingerprint64(fp),
            plan: fp.to_string().into(),
            sql: format!("SELECT {fp}").into(),
            session: None,
            role: "analyst".into(),
            priority: "normal".into(),
            start_sim_ms: 0.0,
            sim_ms,
            wall_us: 10,
            rows: 1,
            bytes_shipped: bytes,
            per_source_bytes: vec![("crm".into(), bytes)],
            operators: Vec::new(),
            deadline_budget_ms: None,
            deadline_spent_ms: None,
            flags: StatementFlags::default(),
            error: None,
            trace_id: None,
        }
    }

    #[test]
    fn fingerprint_is_stable_fnv() {
        assert_eq!(fingerprint64(""), FNV_OFFSET);
        assert_ne!(fingerprint64("a"), fingerprint64("b"));
        assert_eq!(fingerprint64("plan"), fingerprint64("plan"));
    }

    #[test]
    fn aggregates_count_everything_ring_is_bounded() {
        let log = QueryLog::new(4, 1);
        for i in 0..10 {
            log.record(record("q1", 100, i as f64));
        }
        assert_eq!(log.seen(), 10);
        assert_eq!(log.records().len(), 4, "ring bounded");
        let stats = log.stats(fingerprint64("q1")).unwrap();
        assert_eq!(stats.count, 10);
        assert_eq!(stats.total_bytes, 1000);
        assert_eq!(stats.max_sim_ms, 9.0);
    }

    #[test]
    fn sampling_keeps_every_nth_plus_noteworthy() {
        let log = QueryLog::new(64, 4);
        for _ in 0..8 {
            log.record(record("q1", 1, 1.0));
        }
        // seq 1 and 5 sample in.
        assert_eq!(log.records().len(), 2);
        let mut shed = record("q1", 1, 1.0);
        shed.flags.shed = true;
        log.record(shed);
        assert_eq!(log.records().len(), 3, "noteworthy bypasses sampling");
        assert_eq!(log.stats(fingerprint64("q1")).unwrap().count, 9);
        assert_eq!(log.stats(fingerprint64("q1")).unwrap().shed, 1);
    }

    #[test]
    fn top_k_orders_by_requested_key() {
        let log = QueryLog::new(16, 1);
        for _ in 0..3 {
            log.record(record("cheap", 10, 1.0));
        }
        log.record(record("heavy", 9000, 50.0));
        let by_count = log.top_k(2, WorkloadKey::Count);
        assert_eq!(by_count[0].plan, "cheap");
        let by_bytes = log.top_k(2, WorkloadKey::BytesShipped);
        assert_eq!(by_bytes[0].plan, "heavy");
        let by_sim = log.top_k(1, WorkloadKey::SimMs);
        assert_eq!(by_sim[0].plan, "heavy");
        let report = log.top_k_report(2, WorkloadKey::BytesShipped);
        assert!(report.contains("sql: SELECT heavy"), "{report}");
        assert!(report.contains("plan: heavy"), "{report}");
        assert!(report.contains("bytes=9000"), "{report}");
    }

    #[test]
    fn fingerprints_digest_is_sorted_and_exact() {
        let log = QueryLog::new(2, 8); // tiny ring, aggressive sampling
        for _ in 0..5 {
            log.record(record("a", 1, 1.0));
        }
        for _ in 0..3 {
            log.record(record("b", 1, 1.0));
        }
        let digest = log.fingerprints();
        assert_eq!(digest.len(), 2);
        // BTreeMap ordering: sorted by fingerprint.
        assert!(digest[0].0 < digest[1].0);
        let counts: u64 = digest.iter().map(|(_, c)| c).sum();
        assert_eq!(counts, 8, "aggregates unaffected by sampling/eviction");
    }

    #[test]
    fn record_serializes_via_shim() {
        let mut r = record("q", 5, 2.0);
        r.flags.hedged = true;
        r.error = Some("deadline".into());
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"fingerprint\""), "{json}");
        assert!(json.contains("\"hedged\":true"), "{json}");
        assert!(json.contains("\"deadline\""), "{json}");
    }

    #[test]
    fn flags_render_compactly() {
        let mut f = StatementFlags::default();
        assert_eq!(f.render(), "");
        assert!(!f.noteworthy());
        f.hedged = true;
        f.degraded = true;
        assert_eq!(f.render(), "hedged|degraded");
        assert!(f.noteworthy());
    }
}
