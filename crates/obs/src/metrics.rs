//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
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
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::sketch::{QuantileSketch, SketchSnapshot};
use crate::tracestore::{EventLog, TelemetryEvent};

/// Histogram bucket upper bounds (inclusive) used when a histogram is
/// created through [`MetricsRegistry::observe`]: tuned for millisecond
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
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus a final overflow slot.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_millis: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_millis: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_millis
            .fetch_add((v.max(0.0) * 1000.0).round() as u64, Ordering::Relaxed);
    }

    /// Owned snapshot of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: self.total.load(Ordering::Relaxed),
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
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    sketches: Mutex<BTreeMap<String, Arc<Mutex<QuantileSketch>>>>,
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

    /// Set the named gauge.
    pub fn set_gauge(&self, name: &str, v: i64) {
        let mut map = self.inner.gauges.lock().expect("metrics lock");
        map.entry(name.to_string())
            .or_default()
            .store(v, Ordering::Relaxed);
    }

    /// Current value of the named gauge (0 when never set).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.inner
            .gauges
            .lock()
            .expect("metrics lock")
            .get(name)
            .map(|g| g.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Get-or-create a histogram with explicit bucket bounds. Bounds are
    /// fixed at creation; later calls with different bounds reuse the
    /// existing histogram.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock().expect("metrics lock");
        // Looked up by `&str` first: an `entry` would copy the name on every
        // observation to find a histogram that is almost always there.
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new(bounds));
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Record one observation into the named histogram, creating it with
    /// [`DEFAULT_MS_BUCKETS`] if needed.
    pub fn observe(&self, name: &str, v: f64) {
        self.histogram(name, &DEFAULT_MS_BUCKETS).observe(v);
    }

    /// Get-or-create the named quantile sketch.
    pub fn sketch(&self, name: &str) -> Arc<Mutex<QuantileSketch>> {
        let mut map = self.inner.sketches.lock().expect("metrics lock");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(QuantileSketch::new())))
            .clone()
    }

    /// Record one observation into the named quantile sketch (exact
    /// percentiles, unlike the fixed-bucket histograms).
    pub fn record_quantile(&self, name: &str, v: f64) {
        let sketch = self.sketch(name);
        sketch.lock().expect("sketch lock").insert(v);
    }

    /// Owned snapshot of the named sketch (empty snapshot when absent).
    pub fn sketch_snapshot(&self, name: &str) -> SketchSnapshot {
        let map = self.inner.sketches.lock().expect("metrics lock");
        map.get(name)
            .map(|s| s.lock().expect("sketch lock").snapshot())
            .unwrap_or_default()
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
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            sketches: self
                .inner
                .sketches
                .lock()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.lock().expect("sketch lock").snapshot()))
                .collect(),
        }
    }
}

/// Owned view of a whole registry at one instant.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch snapshots by name.
    pub sketches: BTreeMap<String, SketchSnapshot>,
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
    fn gauges_hold_the_latest_value() {
        let m = MetricsRegistry::new();
        m.set_gauge("breaker.crm.state", 1);
        m.set_gauge("breaker.crm.state", 2);
        assert_eq!(m.gauge_value("breaker.crm.state"), 2);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let m = MetricsRegistry::new();
        let h = m.histogram("lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 1, 1]);
        assert_eq!(snap.count, 3);
        assert!((snap.mean() - 35.166).abs() < 0.01);
        // observe() by name reuses the registered bounds.
        m.observe("lat", 0.2);
        assert_eq!(m.snapshot().histograms["lat"].counts[0], 2);
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
    fn sketches_and_events_ride_the_registry() {
        let m = MetricsRegistry::new();
        m.record_quantile("source.crm.latency_ms", 10.0);
        m.record_quantile("source.crm.latency_ms", 30.0);
        let snap = m.sketch_snapshot("source.crm.latency_ms");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.p50, 10.0);
        assert_eq!(snap.max, 30.0);
        assert_eq!(m.snapshot().sketches["source.crm.latency_ms"].count, 2);
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
    fn snapshot_serializes() {
        let m = MetricsRegistry::new();
        m.inc("a.b");
        m.set_gauge("g", -3);
        m.observe("h", 2.0);
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(json.contains("\"a.b\":1"), "{json}");
        assert!(json.contains("\"g\":-3"), "{json}");
    }
}
