//! Build-time configuration for a shareable [`EiiSystem`].
//!
//! The builder collects everything the pre-builder mutator API set up
//! incrementally — sources, planner configuration, degradation policy,
//! the semantic result cache, materialized views, enterprise search —
//! and produces an immutable `Arc<EiiSystem>` in one shot. Because every
//! piece of post-build mutability lives behind interior mutability, the
//! returned handle is `Send + Sync` and can be cloned across threads and
//! [`crate::Session`]s freely.

use std::sync::Arc;

use eii_data::{Result, SimClock};
use eii_exec::{CacheConfig, DegradationPolicy, HedgePolicy};
use eii_federation::{Connector, LinkProfile, WireFormat};
use eii_matview::RefreshPolicy;
use eii_planner::PlannerConfig;
use eii_search::EnterpriseSearch;

use crate::EiiSystem;

/// Declarative configuration for an [`EiiSystem`]; see the module docs.
///
/// ```
/// use std::sync::Arc;
/// use eii::prelude::*;
///
/// let clock = SimClock::new();
/// let crm = Database::new("crm", clock.clone());
/// let schema = Arc::new(Schema::new(vec![
///     Field::new("id", DataType::Int).not_null(),
/// ]));
/// crm.create_table(TableDef::new("customers", schema).with_primary_key(0)).unwrap();
/// let system: Arc<EiiSystem> = EiiSystem::builder(clock)
///     .source(Arc::new(RelationalConnector::new(crm)), LinkProfile::lan(), WireFormat::Native)
///     .degradation(DegradationPolicy::Fail)
///     .build()
///     .unwrap();
/// ```
pub struct EiiSystemBuilder {
    clock: SimClock,
    config: Option<PlannerConfig>,
    sources: Vec<(Arc<dyn Connector>, LinkProfile, WireFormat)>,
    degradation: Option<DegradationPolicy>,
    cache: Option<CacheConfig>,
    matviews: Vec<(String, String, RefreshPolicy)>,
    search: Option<EnterpriseSearch>,
    hedge: Option<HedgePolicy>,
}

impl EiiSystemBuilder {
    /// Start a builder on the given simulated clock.
    pub fn new(clock: SimClock) -> Self {
        EiiSystemBuilder {
            clock,
            config: None,
            sources: Vec::new(),
            degradation: None,
            cache: None,
            matviews: Vec::new(),
            search: None,
            hedge: None,
        }
    }

    /// Replace the planner configuration (default:
    /// [`PlannerConfig::optimized`]).
    pub fn planner_config(mut self, config: PlannerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Register a wrapped source behind a network link.
    pub fn source(
        mut self,
        connector: Arc<dyn Connector>,
        link: LinkProfile,
        wire: WireFormat,
    ) -> Self {
        self.sources.push((connector, link, wire));
        self
    }

    /// Choose what queries do when a source stays down past the retry
    /// layer (default: fail).
    pub fn degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = Some(policy);
        self
    }

    /// Turn on the semantic result cache.
    pub fn result_cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Define (and materialize at build time) a view over the federation.
    pub fn matview(mut self, name: &str, sql: &str, policy: RefreshPolicy) -> Self {
        self.matviews
            .push((name.to_string(), sql.to_string(), policy));
        self
    }

    /// Attach an enterprise-search service.
    pub fn search(mut self, search: EnterpriseSearch) -> Self {
        self.search = Some(search);
        self
    }

    /// Hedge slow source fetches: once a source's observed mean latency
    /// crosses the policy threshold, each fetch launches a delayed backup
    /// request and takes whichever answer lands first on the virtual
    /// timeline (default: no hedging).
    pub fn hedging(mut self, policy: HedgePolicy) -> Self {
        self.hedge = Some(policy);
        self
    }

    /// Build the system and wrap it in an `Arc` ready to share across
    /// threads and sessions.
    pub fn build(self) -> Result<Arc<EiiSystem>> {
        Ok(Arc::new(self.build_owned()?))
    }

    /// Build the system without the `Arc` wrapper — for callers that embed
    /// it in their own ownership structure.
    pub fn build_owned(self) -> Result<EiiSystem> {
        let mut system = EiiSystem::new(self.clock);
        if let Some(config) = self.config {
            system = system.with_config(config);
        }
        if let Some(policy) = self.hedge {
            system.set_hedge_policy(policy);
        }
        for (connector, link, wire) in self.sources {
            system.add_source(connector, link, wire)?;
        }
        if let Some(policy) = self.degradation {
            system.set_degradation_policy(policy);
        }
        if let Some(config) = self.cache {
            system.install_result_cache(config);
        }
        if let Some(search) = self.search {
            system.attach_search_service(search);
        }
        // Views snapshot the federation's topology, so they are defined
        // only after every source is registered.
        for (name, sql, policy) in self.matviews {
            system.define_matview(&name, &sql, policy)?;
        }
        Ok(system)
    }
}
