//! Planner configuration: each optimization the paper's articles discuss is
//! an independent switch, so experiments can ablate them one at a time.

use eii_federation::Dialect;

/// Optimizer switches.
#[derive(Debug, Clone, Default)]
pub struct PlannerConfig {
    /// Push dialect-supported filters into component queries.
    pub pushdown_filters: bool,
    /// Ask sources for only the needed columns.
    pub pushdown_projection: bool,
    /// Reorder inner joins by estimated cost.
    pub reorder_joins: bool,
    /// Push LIMIT into source component queries where the source honors it
    /// and no assembly-site work sits between the limit and the scan.
    pub pushdown_limits: bool,
    /// Use bind joins (ship join keys to the source) where profitable or
    /// required by access patterns.
    pub use_bind_joins: bool,
    /// Choose the cheapest assembly site for cross-source joins instead of
    /// always assembling at the hub.
    pub choose_assembly_site: bool,
    /// Cost independent sources as fetched in parallel: their simulated
    /// elapsed times overlap (`QueryCost::alongside`); bytes do not change.
    /// The executor runs them in plan order either way.
    pub parallel_fetch: bool,
    /// Rewrite query subtrees that a registered materialized view can
    /// answer ("answering queries using views") when the cost model says
    /// the local materialization beats federated execution.
    pub rewrite_matviews: bool,
    /// When set, the planner ignores each source's declared dialect and
    /// assumes this one for pushdown decisions (the lowest-common-
    /// denominator wrapper of experiment E11). It must be a *subset* of
    /// every real dialect or sources will reject component queries.
    pub dialect_override: Option<Dialect>,
    /// Rows per columnar chunk fed through the executor's operators (the
    /// cancellation/deadline check granularity). 0 means the executor
    /// default.
    pub batch_size: usize,
}

impl PlannerConfig {
    /// Everything on — the real EII engine.
    pub fn optimized() -> Self {
        PlannerConfig {
            pushdown_filters: true,
            pushdown_projection: true,
            reorder_joins: true,
            pushdown_limits: true,
            use_bind_joins: true,
            choose_assembly_site: true,
            parallel_fetch: true,
            rewrite_matviews: true,
            dialect_override: None,
            batch_size: 0,
        }
    }

    /// Everything off — the "simplistic approach that some early EII vendors
    /// used ... pull out the relevant data from all the data sources and
    /// process it entirely there" (Bitton §3). Bind joins stay available
    /// only where an access pattern *requires* them (there is no other way
    /// to talk to such sources).
    pub fn naive() -> Self {
        PlannerConfig::default()
    }

    /// Naive except filters (the first optimization every engine grew).
    pub fn filters_only() -> Self {
        PlannerConfig {
            pushdown_filters: true,
            ..PlannerConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(PlannerConfig::optimized().pushdown_filters);
        assert!(!PlannerConfig::naive().pushdown_filters);
        assert!(PlannerConfig::filters_only().pushdown_filters);
        assert!(!PlannerConfig::filters_only().reorder_joins);
    }
}
