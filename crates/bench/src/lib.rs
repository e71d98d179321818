//! # eii-bench
//!
//! The evaluation harness for the reproduction. The paper (a SIGMOD 2005
//! panel collection) has no tables or figures of its own; DESIGN.md §3 maps
//! its *testable claims* to experiments E1–E20, all regenerated by
//!
//! ```text
//! cargo run -p eii-bench --release --bin experiments -- all
//! ```
//!
//! Wall-clock measurement is `eiibench`'s job (`/eiibench`, a package of its
//! own), not this crate's.
//!
//! [`fedmark`] is the "standardized benchmark – a la TPC" Bitton calls for:
//! a deterministic generator for a six-source enterprise (relational CRM,
//! relational sales with a legacy dialect, relational HR, document-store
//! support, flat-file payments, access-limited credit web service) at a
//! scale factor, plus the
//! Q1–Q11 query suite. [`runner`] is the one statement runner the
//! experiments share.

pub mod chaos;
pub mod experiments;
pub mod fedmark;
pub mod report;
pub mod runner;
pub mod summary;
pub mod timing;

pub use chaos::ChaosScenario;
pub use fedmark::{FedMark, ScaleFactor};
pub use report::Report;
pub use summary::BenchSummary;
