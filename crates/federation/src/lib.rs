//! # eii-federation
//!
//! The wrapper layer of the EII engine: everything between the federated
//! planner/executor and the heterogeneous sources.
//!
//! - [`Connector`]: the adapter trait a source implements ("data wrappers
//!   that push down RDBMS-specific SQL queries to the sources" — Bitton §3).
//! - [`Dialect`]: fine-grained per-vendor SQL capability modeling — Draper
//!   §5: "we modeled the individual quirks of different vendors and versions
//!   of databases to a much finer degree ... it meant we could push
//!   predicates that other systems wouldn't".
//! - [`SourceCapabilities`] and binding patterns: what a source can evaluate
//!   (web-service sources only answer given bound inputs).
//! - [`LinkProfile`] + [`TransferLedger`]: the simulated network that makes
//!   bytes-shipped and latency measurable and deterministic.
//! - [`FaultProfile`] + [`ResilientConnector`]: deterministic source fault
//!   injection (failures, timeouts, latency spikes, outage windows) and the
//!   retry/backoff + circuit-breaker machinery that survives it.
//! - [`SourceHealth`]: per-source introspection unifying ledger traffic,
//!   fault outcomes, breaker state, and the last observed error.
//! - Adapters: relational ([`RelationalConnector`]), document
//!   ([`DocumentConnector`]), delimited-file ([`CsvConnector`]), and
//!   web-service ([`WebServiceConnector`]) sources.
//! - [`Federation`]: the registry of wrapped sources the engine talks to.

pub mod adapters;
pub mod capability;
pub mod connector;
pub mod ctx;
pub mod dialect;
pub mod health;
pub mod net;
pub mod registry;
pub mod resilience;

pub use adapters::csv::CsvConnector;
pub use adapters::document::DocumentConnector;
pub use adapters::relational::RelationalConnector;
pub use adapters::webservice::WebServiceConnector;
pub use adapters::apply_query_locally;
pub use capability::{BindingPattern, SourceCapabilities};
pub use connector::{BindAccess, Connector, SourceAnswer, SourceQuery, UpdateOp, UpdateResult};
pub use ctx::{current_ctx, with_request_ctx, RequestCtx};
pub use dialect::Dialect;
pub use net::{
    FaultDecision, FaultInjector, FaultProfile, FaultyConnector, LinkProfile, QueryCost,
    SourceTraffic, TransferLedger, WireFormat,
};
pub use health::SourceHealth;
pub use registry::{Delivery, Federation, HedgeOutcome, SourceHandle};
pub use resilience::{
    BreakerState, BreakerStatus, CircuitBreaker, CircuitBreakerConfig, ResilientConnector,
    RetryPolicy,
};
