//! The E1–E20 experiment suite (see DESIGN.md §3 for the claim-to-
//! experiment mapping). Each function regenerates one table; the
//! `experiments` binary prints them.

pub mod advisor;
pub mod caching;
pub mod concurrency;
pub mod economics;
pub mod engine;
pub mod ivm;
pub mod observability;
pub mod resilience;
pub mod robustness;
pub mod services;
pub mod telemetry;

use eii::data::{EiiError, Result};

use crate::report::Report;

/// Regenerate one experiment's table.
pub type Experiment = fn() -> Result<Report>;

/// Every experiment in order: its id and the function that regenerates it.
pub const ALL: [(&str, Experiment); 20] = [
    ("e1", economics::e1_eii_vs_warehouse),
    ("e2", economics::e2_schema_economics),
    ("e3", engine::e3_pushdown_ablation),
    ("e4", engine::e4_views_vs_handwritten),
    ("e5", services::e5_matview_frontier),
    ("e6", services::e6_record_correlation),
    ("e7", economics::e7_mapping_topologies),
    ("e8", services::e8_enterprise_search),
    ("e9", engine::e9_fedmark),
    ("e10", services::e10_saga_resilience),
    ("e11", engine::e11_dialect_ablation),
    ("e12", engine::e12_prediction),
    ("e13", resilience::e13_fault_tolerance),
    ("e14", observability::e14_observability_overhead),
    ("e15", caching::e15_views_and_cache),
    ("e16", concurrency::e16_concurrent_sessions),
    ("e17", robustness::e17_robustness),
    ("e18", telemetry::e18_workload_telemetry),
    ("e19", ivm::e19_incremental_maintenance),
    ("e20", advisor::e20_self_tuning),
];

/// Run one experiment by id.
pub fn run(id: &str) -> Result<Report> {
    match ALL.iter().find(|(known, _)| *known == id) {
        Some((_, experiment)) => experiment(),
        None => Err(EiiError::NotFound(format!(
            "experiment {id}; known: {}",
            ALL.map(|(known, _)| known).join(", ")
        ))),
    }
}
