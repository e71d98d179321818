//! The metrics registry: named counters and fixed-bucket histograms, the
//! two kinds the engine records.
//!
//! Recording is an atomic add on a cached handle (or one short map lookup
//! when recording by name), so instrumentation can stay always-on.
//! [`MetricsRegistry::snapshot`] produces an owned, serializable
//! [`MetricsSnapshot`] for tests, the bench harness, and health reports.
//!
//! Naming convention (see `docs/observability.md` for the full catalog):
//! dot-separated lowercase, with the variable element in the middle —
//! `source.<name>.bytes_shipped`, `breaker.<name>.to_open`,
//! `exec.rows_emitted.<operator>`, `query.exec_sim_ms`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::tracestore::{EventLog, TelemetryEvent};

/// Every histogram's bucket upper bounds (inclusive): tuned for millisecond
/// latencies from sub-millisecond hub work to multi-second outages.
pub const DEFAULT_MS_BUCKETS: [f64; 10] =
    [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0];

/// A cached counter handle: one atomic add per record.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Observations are `f64`s (milliseconds by
/// convention); the sum is kept in thousandths for atomic accumulation.
/// Its buckets are [`DEFAULT_MS_BUCKETS`].
#[derive(Debug, Default)]
pub struct Histogram {
    /// One slot per bound plus a final overflow slot.
    counts: [AtomicU64; DEFAULT_MS_BUCKETS.len() + 1],
    sum_millis: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let slot = DEFAULT_MS_BUCKETS
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(DEFAULT_MS_BUCKETS.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_millis
            .fetch_add((v.max(0.0) * 1000.0).round() as u64, Ordering::Relaxed);
    }

    /// Owned snapshot of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            bounds: DEFAULT_MS_BUCKETS.to_vec(),
            count: counts.iter().sum(),
            counts,
            sum: self.sum_millis.load(Ordering::Relaxed) as f64 / 1000.0,
        }
    }
}

/// Owned view of a histogram at one instant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive); the last implicit bucket is +inf.
    pub bounds: Vec<f64>,
    /// Observations per bucket (`bounds.len() + 1` slots, last = overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (thousandth precision).
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventLog,
}

/// A shared registry of named metrics. Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get-or-create a counter handle; cache it to skip the name lookup on
    /// hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("metrics lock");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Add 1 to the named counter.
    pub fn inc(&self, name: &str) {
        self.counter(name).inc();
    }

    /// Add `v` to the named counter.
    pub fn add(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    /// Current value of the named counter (0 when never recorded).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .expect("metrics lock")
            .get(name)
            .map(Counter::value)
            .unwrap_or(0)
    }

    /// Get-or-create a histogram handle; cache it to skip the name lookup on
    /// hot paths.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock().expect("metrics lock");
        // Looked up by `&str` first: an `entry` would copy the name on every
        // observation to find a histogram that is almost always there.
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::<Histogram>::default();
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, v: f64) {
        self.histogram(name).observe(v);
    }

    /// The embedded telemetry event log (hedge fires, breaker
    /// transitions, shed decisions — stamped with trace IDs).
    pub fn events(&self) -> &EventLog {
        &self.inner.events
    }

    /// Append one telemetry event to the embedded event log.
    pub fn record_event(&self, event: TelemetryEvent) {
        self.inner.events.record(event);
    }

    /// Owned snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Owned view of a whole registry at one instant.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = MetricsRegistry::new();
        m.inc("q.count");
        m.add("q.count", 2);
        let cached = m.counter("q.count");
        cached.inc();
        assert_eq!(m.counter_value("q.count"), 4);
        assert_eq!(m.counter_value("never"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("q.count"), 4);
    }

    #[test]
    fn clones_share_the_registry() {
        let a = MetricsRegistry::new();
        let b = a.clone();
        a.inc("x");
        assert_eq!(b.counter_value("x"), 1);
    }

    #[test]
    fn sketches_and_events_ride_the_registry() {
        // Per-source latency is a fixed-bucket histogram in the registry.
        let m = MetricsRegistry::new();
        m.observe("source.crm.latency_ms", 10.0);
        m.observe("source.crm.latency_ms", 30.0);
        let snap = &m.snapshot().histograms["source.crm.latency_ms"];
        assert_eq!(snap.count, 2);
        assert!((snap.mean() - 20.0).abs() < 1e-9);
        m.record_event(TelemetryEvent {
            sim_ms: 1.0,
            kind: "hedge.fired".into(),
            source: "crm".into(),
            trace_id: Some(7),
            detail: String::new(),
        });
        assert_eq!(m.events().events_of_kind("hedge.fired").len(), 1);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let m = MetricsRegistry::new();
        let h = m.histogram("lat");
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        h.observe(9000.0);
        let snap = h.snapshot();
        assert_eq!(snap.bounds, DEFAULT_MS_BUCKETS.to_vec());
        assert_eq!(snap.counts, vec![0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1]);
        assert_eq!(snap.count, 4);
        assert!((snap.mean() - 2276.375).abs() < 0.001);
        // observe() by name records into the same histogram.
        m.observe("lat", 0.5);
        assert_eq!(m.snapshot().histograms["lat"].counts[1], 2);
    }

    #[test]
    fn counter_sum_by_prefix() {
        let m = MetricsRegistry::new();
        m.add("exec.rows_emitted.source", 10);
        m.add("exec.rows_emitted.hash_join", 5);
        m.add("other", 99);
        assert_eq!(m.snapshot().counter_sum("exec.rows_emitted."), 15);
    }

    #[test]
    fn snapshot_serializes() {
        let m = MetricsRegistry::new();
        m.inc("a.b");
        m.observe("h", 2.0);
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(json.contains("\"a.b\":1"), "{json}");
    }
}
