//! Sampled trace store with tail-sampling and Chrome trace-event export,
//! plus the resilience telemetry event log.
//!
//! Replaces the single `last_trace()` slot: the store retains the last N
//! [`StoredTrace`]s with deterministic per-fingerprint sampling (every
//! `sample_every`-th statement of each fingerprint keeps its trace) and
//! **tail-sampling** — statements that errored, hit a deadline, were shed,
//! degraded, cancelled, or fired a hedge always keep their trace, because
//! those are precisely the traces someone will ask for. Each stored trace
//! has a process-unique `trace_id`; resilience events (hedge fired, breaker
//! transitions, shed decisions) are stamped with the owning trace's ID in
//! the [`EventLog`] so an incident review can walk from a `breaker.to_open`
//! event straight to the trace of the statement that tripped it.
//!
//! Any stored trace exports as Chrome trace-event JSON
//! ([`chrome_trace_json`]) loadable in `chrome://tracing` or Perfetto:
//! spans become `"ph": "X"` complete events on the *simulated* timeline
//! (ts/dur in microseconds of virtual time), annotations become `args`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Json, Serialize};

use crate::querylog::StatementFlags;
use crate::span::{QueryTrace, SpanRecord};

/// One retained trace plus the statement context needed to find it again.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrace {
    /// Process-unique trace ID (also stamped into resilience events).
    pub trace_id: u64,
    /// Normalized-plan fingerprint of the statement.
    pub fingerprint: u64,
    /// Session label, when the statement ran through a labelled session.
    pub session: Option<String>,
    /// Virtual-clock timestamp when the statement started.
    pub start_sim_ms: f64,
    /// Outcome flags (drives tail-sampling).
    pub flags: StatementFlags,
    /// Error kind when the statement failed.
    pub error: Option<String>,
    /// The span tree, shared with the statement's other observers — an
    /// `Arc` so retaining every trace costs a refcount bump per statement,
    /// not a deep span-tree clone (E18's overhead gate).
    pub trace: Arc<QueryTrace>,
}

#[derive(Debug, Default)]
struct StoreInner {
    ring: VecDeque<StoredTrace>,
    seq: BTreeMap<u64, u64>,
}

/// Bounded, sampled, thread-safe trace retention. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct TraceStore {
    inner: Arc<Mutex<StoreInner>>,
    next_id: Arc<AtomicU64>,
    capacity: usize,
    sample_every: u64,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new(64, 16)
    }
}

impl TraceStore {
    /// A store retaining at most `capacity` traces, sampling every
    /// `sample_every`-th statement per fingerprint (1 = keep all) plus
    /// every noteworthy statement.
    pub fn new(capacity: usize, sample_every: u64) -> Self {
        TraceStore {
            inner: Arc::new(Mutex::new(StoreInner::default())),
            next_id: Arc::new(AtomicU64::new(1)),
            capacity: capacity.max(1),
            sample_every: sample_every.max(1),
        }
    }

    /// Allocate the next trace ID. IDs are handed out before execution so
    /// resilience events fired mid-statement can reference them; note that
    /// under concurrent sessions the *assignment* of IDs to statements
    /// depends on thread interleaving, which is why IDs never participate
    /// in determinism gates.
    pub fn next_trace_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Decide retention for a statement of `fingerprint` with `flags`:
    /// noteworthy outcomes always keep, otherwise the per-fingerprint
    /// sequence number decides deterministically.
    pub fn should_keep(&self, fingerprint: u64, flags: StatementFlags, errored: bool) -> bool {
        if errored || flags.noteworthy() {
            return true;
        }
        let mut inner = self.inner.lock().expect("trace store poisoned");
        let seq = inner.seq.entry(fingerprint).or_insert(0);
        *seq += 1;
        (*seq - 1).is_multiple_of(self.sample_every)
    }

    /// Insert a trace (the caller already consulted [`Self::should_keep`]).
    pub fn store(&self, trace: StoredTrace) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.ring.push_back(trace);
        while inner.ring.len() > self.capacity {
            inner.ring.pop_front();
        }
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").ring.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recently stored trace.
    pub fn latest(&self) -> Option<StoredTrace> {
        let inner = self.inner.lock().expect("trace store poisoned");
        inner.ring.back().cloned()
    }

    /// Look a trace up by ID.
    pub fn by_id(&self, trace_id: u64) -> Option<StoredTrace> {
        let inner = self.inner.lock().expect("trace store poisoned");
        inner.ring.iter().find(|t| t.trace_id == trace_id).cloned()
    }

    /// The most recent trace recorded under a session label.
    pub fn latest_for_session(&self, label: &str) -> Option<StoredTrace> {
        let inner = self.inner.lock().expect("trace store poisoned");
        inner
            .ring
            .iter()
            .rev()
            .find(|t| t.session.as_deref() == Some(label))
            .cloned()
    }

    /// All retained traces, oldest first.
    pub fn traces(&self) -> Vec<StoredTrace> {
        let inner = self.inner.lock().expect("trace store poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// Drop all retained traces and sampling state.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        *inner = StoreInner::default();
    }
}

fn span_to_chrome(span: &SpanRecord, tid: u64, out: &mut Vec<Json>) {
    let mut args: Vec<(String, Json)> = span
        .annotations
        .iter()
        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
        .collect();
    args.push((
        "wall_us".to_string(),
        Json::Int(span.wall.as_micros() as i64),
    ));
    let event = Json::Obj(vec![
        ("name".to_string(), Json::Str(span.name.clone())),
        ("ph".to_string(), Json::Str("X".to_string())),
        ("cat".to_string(), Json::Str("eii".to_string())),
        ("ts".to_string(), Json::Int(span.start_sim_ms * 1000)),
        (
            "dur".to_string(),
            Json::Int((span.sim_ms() * 1000).max(1)),
        ),
        ("pid".to_string(), Json::Int(1)),
        ("tid".to_string(), Json::Int(tid as i64)),
        ("args".to_string(), Json::Obj(args)),
    ]);
    out.push(event);
    for child in &span.children {
        span_to_chrome(child, tid, out);
    }
}

/// Render a stored trace as Chrome trace-event JSON (Perfetto-loadable):
/// `{"traceEvents": [...], "displayTimeUnit": "ms", ...}` with one
/// `"ph": "X"` complete event per span on the simulated timeline.
pub fn chrome_trace_json(stored: &StoredTrace) -> String {
    let mut events = Vec::new();
    for span in &stored.trace.spans {
        span_to_chrome(span, stored.trace_id, &mut events);
    }
    let doc = Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        (
            "displayTimeUnit".to_string(),
            Json::Str("ms".to_string()),
        ),
        (
            "otherData".to_string(),
            Json::Obj(vec![
                ("trace_id".to_string(), Json::Int(stored.trace_id as i64)),
                (
                    "fingerprint".to_string(),
                    Json::Str(format!("{:016x}", stored.fingerprint)),
                ),
                (
                    "session".to_string(),
                    match &stored.session {
                        Some(s) => Json::Str(s.clone()),
                        None => Json::Null,
                    },
                ),
                (
                    "flags".to_string(),
                    Json::Str(stored.flags.render()),
                ),
            ]),
        ),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_else(|_| doc.to_string())
}

/// One resilience/telemetry event, stamped with its owning trace when the
/// ambient request context carried one.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetryEvent {
    /// Virtual-clock timestamp.
    pub sim_ms: f64,
    /// Event kind (`hedge.fired`, `breaker.to_open`, `shed`, ...).
    pub kind: String,
    /// Source or component the event concerns.
    pub source: String,
    /// Owning trace, when known.
    pub trace_id: Option<u64>,
    /// Free-form detail.
    pub detail: String,
}

/// Bounded ring of [`TelemetryEvent`]s. Cloning shares the ring; the
/// metrics registry embeds one so the resilience layer can record events
/// without new plumbing.
#[derive(Debug, Clone)]
pub struct EventLog {
    ring: Arc<Mutex<VecDeque<TelemetryEvent>>>,
    capacity: usize,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(512)
    }
}

impl EventLog {
    /// A log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            ring: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// Append an event, evicting the oldest past capacity.
    pub fn record(&self, event: TelemetryEvent) {
        let mut ring = self.ring.lock().expect("event log poisoned");
        ring.push_back(event);
        while ring.len() > self.capacity {
            ring.pop_front();
        }
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.ring.lock().expect("event log poisoned").iter().cloned().collect()
    }

    /// Retained events of one kind, oldest first.
    pub fn events_of_kind(&self, kind: &str) -> Vec<TelemetryEvent> {
        self.ring
            .lock()
            .expect("event log poisoned")
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stored(id: u64, fp: u64, session: Option<&str>) -> StoredTrace {
        StoredTrace {
            trace_id: id,
            fingerprint: fp,
            session: session.map(str::to_string),
            start_sim_ms: 0.0,
            flags: StatementFlags::default(),
            error: None,
            trace: Arc::new(QueryTrace {
                spans: vec![SpanRecord {
                    name: "statement".into(),
                    start_sim_ms: 0,
                    end_sim_ms: 12,
                    wall: Duration::from_micros(34),
                    annotations: vec![("rows".into(), "5".into())],
                    children: vec![SpanRecord {
                        name: "execute".into(),
                        start_sim_ms: 1,
                        end_sim_ms: 11,
                        wall: Duration::from_micros(20),
                        annotations: vec![],
                        children: vec![],
                    }],
                }],
            }),
        }
    }

    #[test]
    fn ring_bounds_and_lookup() {
        let store = TraceStore::new(2, 1);
        for i in 1..=3 {
            store.store(stored(i, 7, None));
        }
        assert_eq!(store.len(), 2);
        assert!(store.by_id(1).is_none(), "oldest evicted");
        assert_eq!(store.by_id(3).unwrap().trace_id, 3);
        assert_eq!(store.latest().unwrap().trace_id, 3);
    }

    #[test]
    fn per_session_retrieval_is_isolated() {
        let store = TraceStore::new(8, 1);
        store.store(stored(1, 7, Some("alice")));
        store.store(stored(2, 7, Some("bob")));
        store.store(stored(3, 7, Some("alice")));
        assert_eq!(store.latest_for_session("alice").unwrap().trace_id, 3);
        assert_eq!(store.latest_for_session("bob").unwrap().trace_id, 2);
        assert!(store.latest_for_session("carol").is_none());
    }

    #[test]
    fn tail_sampling_keeps_noteworthy() {
        let store = TraceStore::new(8, 100); // sample ~nothing
        assert!(store.should_keep(1, StatementFlags::default(), false), "seq 1 samples in");
        assert!(!store.should_keep(1, StatementFlags::default(), false));
        assert!(!store.should_keep(1, StatementFlags::default(), false));
        let hedged = StatementFlags {
            hedged: true,
            ..StatementFlags::default()
        };
        assert!(store.should_keep(1, hedged, false), "hedged always kept");
        assert!(store.should_keep(1, StatementFlags::default(), true), "errors always kept");
    }

    #[test]
    fn trace_ids_are_unique_and_monotonic() {
        let store = TraceStore::default();
        let a = store.next_trace_id();
        let b = store.next_trace_id();
        assert!(b > a);
    }

    #[test]
    fn chrome_export_parses_and_carries_spans() {
        let store = TraceStore::new(4, 1);
        store.store(stored(9, 0xabcd, Some("alice")));
        let json = chrome_trace_json(&store.by_id(9).unwrap());
        let doc: Json = serde_json::from_str(&json).expect("chrome JSON parses");
        let Json::Obj(fields) = &doc else {
            panic!("expected object")
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents");
        let Json::Arr(events) = events else {
            panic!("expected array")
        };
        assert_eq!(events.len(), 2, "one complete event per span");
        assert!(json.contains("\"ph\""), "{json}");
        assert!(json.contains("\"execute\""), "{json}");
        assert!(json.contains("\"displayTimeUnit\""), "{json}");
        // statement span: ts 0, dur 12ms = 12000µs
        assert!(json.contains("12000"), "{json}");
    }

    #[test]
    fn event_log_bounds_and_filters() {
        let log = EventLog::new(2);
        for i in 0..3 {
            log.record(TelemetryEvent {
                sim_ms: i as f64,
                kind: if i == 2 { "hedge.fired" } else { "shed" }.into(),
                source: "crm".into(),
                trace_id: Some(i),
                detail: String::new(),
            });
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events_of_kind("hedge.fired").len(), 1);
        assert_eq!(log.events_of_kind("hedge.fired")[0].trace_id, Some(2));
    }
}
