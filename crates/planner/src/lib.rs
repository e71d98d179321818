//! # eii-planner
//!
//! The federated query planner: "query processing would begin by
//! reformulating a query posed over the virtual schema into queries over the
//! data sources, and then executing it efficiently with an engine that
//! created plans that span multiple data sources and dealt with the
//! limitations and capabilities of each source" (Halevy §1).
//!
//! Pipeline: SQL AST → [`LogicalPlan`] (with GAV view unfolding against the
//! catalog) → rewrite rules (constant folding, predicate pushdown, projection
//! pruning) → join ordering → [`PhysicalPlan`] (source decomposition into
//! component [`eii_federation::SourceQuery`]s, join-strategy and assembly-
//! site selection) → cost prediction.
//!
//! Every optimization is individually switchable through [`PlannerConfig`] —
//! that is what the paper's ablation experiments (E3, E4, E11) toggle.

pub mod build;
pub mod config;
pub mod cost;
pub mod feedback;
pub mod join_order;
pub mod logical;
pub mod maintain;
pub mod physical;
pub mod rewrite;
pub mod rules;
pub(crate) mod util;

pub use build::PlanBuilder;
pub use config::PlannerConfig;
pub use cost::{CostModel, PlanEstimate};
pub use feedback::{plan_fingerprint, CardinalityFeedback};
pub use logical::{AggItem, LogicalPlan};
pub use maintain::{
    derive_maintenance_plan, FallbackReason, MaintenanceDecision, MaintenancePlan,
};
pub use physical::{split_join_on, JoinSite, PhysicalPlan, PhysicalPlanner};
pub use rewrite::{rewrite_matviews, rewrite_matviews_with_budget, MatViewDef};
pub use rules::optimize;

use eii_catalog::Catalog;
use eii_data::Result;
use eii_federation::Federation;
use eii_sql::SetQuery;

/// One-stop planning: SQL query AST → optimized physical plan.
pub fn plan_query(
    query: &SetQuery,
    catalog: &Catalog,
    federation: &Federation,
    config: &PlannerConfig,
) -> Result<PhysicalPlan> {
    plan_query_with_views(query, catalog, federation, config, &[])
}

/// Like [`plan_query`], but after rule-based optimization the plan is also
/// matched against the given materialized-view definitions ("answering
/// queries using views") when [`PlannerConfig::rewrite_matviews`] is on.
/// Subtrees a view can answer more cheaply become
/// [`LogicalPlan::MatViewScan`] nodes served from the local store.
pub fn plan_query_with_views(
    query: &SetQuery,
    catalog: &Catalog,
    federation: &Federation,
    config: &PlannerConfig,
    views: &[MatViewDef],
) -> Result<PhysicalPlan> {
    let logical = PlanBuilder::new(catalog, federation).build(query)?;
    let logical = optimize(logical, federation, config)?;
    let logical = if config.rewrite_matviews && !views.is_empty() {
        rewrite_matviews(logical, views, federation)?
    } else {
        logical
    };
    PhysicalPlanner::new(federation, config).create(logical)
}
