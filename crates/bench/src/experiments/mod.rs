//! The E1–E12 experiment suite (see DESIGN.md §3 for the claim-to-
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

use eii::data::Result;

use crate::report::Report;

/// All experiment ids in order.
pub const ALL: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
    "e15", "e16", "e17", "e18", "e19", "e20",
];

/// Run one experiment by id.
pub fn run(id: &str) -> Result<Report> {
    match id {
        "e1" => economics::e1_eii_vs_warehouse(),
        "e2" => economics::e2_schema_economics(),
        "e3" => engine::e3_pushdown_ablation(),
        "e4" => engine::e4_views_vs_handwritten(),
        "e5" => services::e5_matview_frontier(),
        "e6" => services::e6_record_correlation(),
        "e7" => economics::e7_mapping_topologies(),
        "e8" => services::e8_enterprise_search(),
        "e9" => engine::e9_fedmark(),
        "e10" => services::e10_saga_resilience(),
        "e11" => engine::e11_dialect_ablation(),
        "e12" => engine::e12_prediction(),
        "e13" => resilience::e13_fault_tolerance(),
        "e14" => observability::e14_observability_overhead(),
        "e15" => caching::e15_views_and_cache(),
        "e16" => concurrency::e16_concurrent_sessions(),
        "e17" => robustness::e17_robustness(),
        "e18" => telemetry::e18_workload_telemetry(),
        "e19" => ivm::e19_incremental_maintenance(),
        "e20" => advisor::e20_self_tuning(),
        other => Err(eii::data::EiiError::NotFound(format!(
            "experiment {other}; known: {}",
            ALL.join(", ")
        ))),
    }
}
