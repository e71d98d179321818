//! # eii-exec
//!
//! The federated executor: runs [`eii_planner::PhysicalPlan`]s against a
//! [`eii_federation::Federation`], costing independent sources as overlapping
//! fetches and running them in plan order on the caller's thread, joining at
//! the chosen assembly site, and accounting every byte and
//! simulated millisecond in a [`eii_federation::QueryCost`] — "critical EII
//! performance factors will relate to ... (a) maximize parallelism in inter
//! and intra query processing; (b) minimize the amount of data shipped for
//! assembly" (Bitton §3).
//!
//! There is one data path: columns arrive from the source edge, every hub
//! operator in [`vector`] consumes and emits [`ColumnarBatch`] chunks, plan
//! nodes hand each other chunk lists ([`Chunks`]) without copying them, and
//! rows are built once, at the result edge (see [`executor`] and
//! `docs/vectorized.md`).
//!
//! The re-export list below is the crate's deliberate public surface — new
//! modules add their types here explicitly rather than via globs.

pub mod agg;
pub mod cache;
pub mod degrade;
pub mod executor;
pub mod profile;
pub mod scheduler;
pub mod vector;

// The columnar batch type crosses this crate's public API (operators consume
// and produce it), so callers get it without naming eii-data.
pub use eii_data::ColumnarBatch;

pub use cache::{
    adapt_batch, CacheConfig, CacheLookup, CachedResult, ResultCache, SnapshotStore,
};
pub use degrade::{DegradationPolicy, SourceReport};
pub use executor::{Executor, HedgePolicy, QueryResult, ReplanPolicy};
pub use profile::OperatorProfile;
pub use scheduler::{
    AdmissionConfig, BrownoutConfig, JobOutput, QueryTicket, Scheduler, SchedulerStats,
    ShedDecision,
};
pub use vector::{
    drive, sort_batch, BatchOperator, Chunks, ColumnPick, VecAggregate, VecFilter, VecHashJoin,
    VecProject, DEFAULT_BATCH_SIZE,
};
