//! # eii-obs
//!
//! The observability core of the EII engine: query tracing, metrics, and
//! the workload telemetry pipeline.
//!
//! The paper's performance arguments — pushdown opportunity, bytes shipped,
//! round trips, and the cost of live sources that are "slow, unavailable, or
//! return errors" — are only arguments if they are *measurable*. This crate
//! provides the primitives the rest of the engine threads through its hot
//! paths:
//!
//! - [`Tracer`] / [`SpanGuard`] / [`QueryTrace`]: nested spans timed by both
//!   the shared [`eii_data::SimClock`] (simulated milliseconds) and the wall
//!   clock, collected into a per-query tree covering parse → plan →
//!   optimize → execute.
//! - [`MetricsRegistry`]: named counters and fixed-bucket histograms with
//!   cheap recording and a [`MetricsRegistry::snapshot`] for tests and the
//!   bench harness; it also embeds the [`EventLog`] of trace-stamped
//!   resilience events.
//! - [`QueryLog`]: the durable workload log — a bounded ring of sampled,
//!   serializable [`QueryLogRecord`]s plus exact per-fingerprint aggregates
//!   with [`QueryLog::top_k`] workload rankings (the matview advisor's
//!   future input).
//! - [`TraceStore`]: last-N trace retention with deterministic sampling and
//!   tail-sampling (errors / hedges / sheds / cancels always kept), plus
//!   Chrome trace-event export ([`chrome_trace_json`]) loadable in Perfetto.
//! - [`SloMonitor`]: per-priority latency/availability objectives evaluated
//!   as multi-window burn rates on the virtual clock.
//!
//! The tracing and metrics primitives use standard-library atomics and
//! mutexes only, so every crate in the workspace can afford to depend on
//! them and recording can stay always-on: a counter is one atomic add, a
//! span is two clock reads plus one `Vec` push. Serialization goes through
//! the workspace-vendored `serde`/`serde_json` shims.

#![deny(missing_docs)]

pub mod metrics;
pub mod querylog;
pub mod slo;
pub mod span;
pub mod tracestore;

pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, DEFAULT_MS_BUCKETS,
};
pub use querylog::{
    fingerprint64, FingerprintStats, OperatorStat, QueryLog, QueryLogRecord, StatementFlags,
    WorkloadKey,
};
pub use slo::{SloMonitor, SloObjective, SloState, SloStatus, SloWindow, WindowBurn};
pub use span::{QueryTrace, SpanGuard, SpanRecord, Tracer};
pub use tracestore::{chrome_trace_json, EventLog, StoredTrace, TelemetryEvent, TraceStore};
