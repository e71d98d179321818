//! The federation registry: every wrapped source the EII engine can reach,
//! each behind its simulated network link.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eii_data::{Batch, ColumnarBatch, EiiError, Result, SchemaRef, SimClock};
use eii_obs::MetricsRegistry;
use eii_storage::TableStats;
use parking_lot::RwLock;

use crate::connector::{Connector, SourceAnswer, SourceQuery, UpdateOp, UpdateResult};
use crate::ctx::{with_request_ctx, RequestCtx};
use crate::health::SourceHealth;
use crate::net::{FaultProfile, FaultyConnector, LinkProfile, QueryCost, TransferLedger, WireFormat};
use crate::resilience::{CircuitBreakerConfig, ResilientConnector, RetryPolicy};

/// What a hedged fetch ([`SourceHandle::query_hedged`]) actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HedgeOutcome {
    /// A backup request was launched.
    pub fired: bool,
    /// The backup's answer won the race (arrived before the primary's).
    pub backup_won: bool,
}

/// Where the answer to a component query is consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The rows cross the link to the hub.
    Ship,
    /// The rows stay at the source site (it is hosting an at-site join):
    /// the source does its scan work and pays the request round trip, but
    /// ships nothing.
    StayAtSite,
}

/// Callback fired after a successful write routed through a
/// [`SourceHandle`], with the source and table names. Listeners run on the
/// writer's thread with no federation lock held; they must not issue
/// further writes through the federation (re-entrant maintenance would
/// recurse).
pub type WriteListener = Arc<dyn Fn(&str, &str) + Send + Sync>;

/// `source.<name>.{bytes_shipped,requests,latency_ms}`.
struct TrafficNames {
    bytes_shipped: String,
    requests: String,
    latency_ms: String,
}

impl TrafficNames {
    fn of(source: &str) -> Self {
        TrafficNames {
            bytes_shipped: format!("source.{source}.bytes_shipped"),
            requests: format!("source.{source}.requests"),
            latency_ms: format!("source.{source}.latency_ms"),
        }
    }
}

/// A registered source: connector + link + wire format.
#[derive(Clone)]
pub struct SourceHandle {
    connector: Arc<dyn Connector>,
    link: LinkProfile,
    wire: WireFormat,
    ledger: TransferLedger,
    metrics: MetricsRegistry,
    /// Source-engine scan speed, simulated ms per row examined.
    scan_ms_per_row: f64,
    /// The metric names [`SourceHandle::note_traffic`] records under, built
    /// once at registration instead of formatted on every fetch.
    traffic_names: Arc<TrafficNames>,
    /// Shared with the owning [`Federation`]: listeners registered after
    /// this handle was cloned out still fire.
    write_listeners: Arc<RwLock<Vec<WriteListener>>>,
}

impl SourceHandle {
    /// The wrapped connector.
    pub fn connector(&self) -> &Arc<dyn Connector> {
        &self.connector
    }

    /// The link profile.
    pub fn link(&self) -> LinkProfile {
        self.link
    }

    /// The one accounted fetch: execute a component query at the source,
    /// price it (source work, link latency, and — for [`Delivery::Ship`] —
    /// the transfer) and record the traffic in the federation's ledger.
    ///
    /// Under a non-empty `ctx` the fetch is skipped when the query is already
    /// cancelled or out of budget, the context is visible to the
    /// fault/resilience wrappers while it runs (so a hung request waits only
    /// the remaining budget and a retry loop stops when cancelled), and the
    /// simulated cost is charged against the deadline afterwards.
    ///
    /// The answer comes back as the columns the adapter built; nothing on
    /// this path materializes a row. A wrapper that panics fails the fetch
    /// with its payload as an [`EiiError::Execution`]; the caller does not
    /// unwind.
    pub fn fetch(
        &self,
        q: &SourceQuery,
        ctx: &RequestCtx,
        delivery: Delivery,
    ) -> Result<(ColumnarBatch, QueryCost)> {
        let run = || {
            let ans = catch_unwind(AssertUnwindSafe(|| self.connector.execute(q)))
                .unwrap_or_else(|payload| Err(EiiError::from_panic("connector", payload)))?;
            let cost = self.account(&ans, delivery);
            Ok((ans.batch, cost))
        };
        if ctx.is_empty() {
            return run();
        }
        Self::under_ctx(ctx, run)
    }

    /// [`SourceHandle::fetch`] shipping to the hub under no request context,
    /// pivoted to rows: for the callers that want rows (ETL extract, search
    /// indexing, tests), not for the statement path.
    pub fn query(&self, q: &SourceQuery) -> Result<(Batch, QueryCost)> {
        let (columns, cost) = self.fetch(q, &RequestCtx::new(), Delivery::Ship)?;
        Ok((columns.to_batch(), cost))
    }

    /// Price one source answer — link latency per call, the transfer of
    /// what ships, the source engine's scan work — and record it in the
    /// ledger and the per-source metrics.
    fn account(&self, ans: &SourceAnswer, delivery: Delivery) -> QueryCost {
        let (bytes, rows_shipped) = match delivery {
            Delivery::Ship => (self.wire.bytes_of(&ans.batch), ans.batch.num_rows()),
            Delivery::StayAtSite => (0, 0),
        };
        let transfer = if self.link.bandwidth_bytes_per_ms.is_infinite() {
            0.0
        } else {
            bytes as f64 / self.link.bandwidth_bytes_per_ms
        };
        let sim_ms = self.link.latency_ms * ans.calls as f64
            + transfer
            + ans.rows_scanned as f64 * self.scan_ms_per_row;
        self.ledger
            .record(self.connector.name(), bytes, rows_shipped, sim_ms);
        self.note_traffic(bytes, ans.calls, sim_ms);
        if ans.bind_access {
            self.metrics.inc("federation.bind.index_lookups");
        }
        if ans.columns_built > 0 {
            self.metrics
                .add("federation.source.columns_built", ans.columns_built as u64);
        }
        if ans.indexes_built > 0 {
            self.metrics
                .add("federation.source.indexes_built", ans.indexes_built as u64);
        }
        QueryCost {
            sim_ms,
            bytes,
            rows_shipped,
            rows_scanned: ans.rows_scanned,
            requests: ans.calls,
        }
    }

    /// Run accounted work under a request context: check, install, charge
    /// the deadline (see [`SourceHandle::fetch`]).
    fn under_ctx<T>(
        ctx: &RequestCtx,
        fetch: impl FnOnce() -> Result<(T, QueryCost)>,
    ) -> Result<(T, QueryCost)> {
        ctx.check()?;
        let (out, cost) = with_request_ctx(ctx, fetch)?;
        if let Some(deadline) = &ctx.deadline {
            deadline.charge(cost.sim_ms);
            deadline.check()?;
        }
        Ok((out, cost))
    }

    /// A hedged shipping fetch: two [`SourceHandle::fetch`]es — the primary
    /// and a deterministic backup `delay_ms` (simulated) later — answered by
    /// whichever returns first on the virtual timeline. Both requests really
    /// run under `ctx` — the loser's bytes, rows, and round trips are charged
    /// to the ledger exactly as any other fetch (hedging buys latency with
    /// traffic), the deadline is charged the winner's latency once, and
    /// the hedge itself is counted via [`TransferLedger::record_hedge`].
    /// The race is resolved on simulated time, so the winner — and the
    /// combined cost — replays identically across runs.
    ///
    /// A hedge also papers over a transient fault: if one of the two
    /// requests fails, the surviving answer is used.
    pub fn query_hedged(
        &self,
        q: &SourceQuery,
        ctx: &RequestCtx,
        delay_ms: f64,
    ) -> Result<(ColumnarBatch, QueryCost, HedgeOutcome)> {
        let ((batch, out), cost) = Self::under_ctx(ctx, || {
            // Inside `under_ctx` already: each request runs as a plain fetch.
            let plain = RequestCtx::new();
            let primary = self.fetch(q, &plain, Delivery::Ship);
            self.ledger.record_hedge(self.connector.name());
            let backup = self.fetch(q, &plain, Delivery::Ship);
            let outcome = |backup_won| HedgeOutcome {
                fired: true,
                backup_won,
            };
            Ok(match (primary, backup) {
                (Ok((pb, pc)), Ok((bb, bc))) => {
                    // Both answered: the race is decided on virtual time. The
                    // loser's volumes still count — those bytes really moved.
                    let backup_arrival = delay_ms + bc.sim_ms;
                    let backup_won = backup_arrival < pc.sim_ms;
                    let combined = QueryCost {
                        sim_ms: pc.sim_ms.min(backup_arrival),
                        bytes: pc.bytes + bc.bytes,
                        rows_shipped: pc.rows_shipped + bc.rows_shipped,
                        rows_scanned: pc.rows_scanned + bc.rows_scanned,
                        requests: pc.requests + bc.requests,
                    };
                    let batch = if backup_won { bb } else { pb };
                    ((batch, outcome(backup_won)), combined)
                }
                (Err(_), Ok((bb, bc))) => {
                    let cost = QueryCost {
                        sim_ms: delay_ms + bc.sim_ms,
                        ..bc
                    };
                    ((bb, outcome(true)), cost)
                }
                (Ok((pb, pc)), Err(_)) => ((pb, outcome(false)), pc),
                (Err(pe), Err(_)) => return Err(pe),
            })
        })?;
        Ok((batch, cost, out))
    }

    /// Record shipped bytes and round trips as per-source counters, and
    /// the interaction's simulated latency into the per-source quantile
    /// sketch (`source.<name>.latency_ms`). Latencies are simulated, so
    /// the sketch's percentiles are deterministic across same-seed runs.
    fn note_traffic(&self, bytes: usize, requests: usize, sim_ms: f64) {
        let names = &self.traffic_names;
        self.metrics.add(&names.bytes_shipped, bytes as u64);
        self.metrics.add(&names.requests, requests as u64);
        self.metrics.record_quantile(&names.latency_ms, sim_ms);
    }

    /// Charge a shipment of `batch`'s live rows across this source's link
    /// (used when an intermediate result moves to or from this site during
    /// an at-source join). Records the traffic and returns its cost.
    pub fn charge_shipment(&self, batch: &ColumnarBatch) -> QueryCost {
        let bytes = self.wire.bytes_of(batch);
        let sim_ms = self.link.transfer_ms(bytes);
        let cost = QueryCost {
            sim_ms,
            bytes,
            rows_shipped: batch.num_rows(),
            rows_scanned: 0,
            requests: 1,
        };
        self.ledger
            .record(self.connector.name(), bytes, batch.num_rows(), sim_ms);
        self.note_traffic(bytes, 1, sim_ms);
        cost
    }

    /// Route an update through the wrapper (one round trip). Successful
    /// writes notify the federation's [`WriteListener`]s — the hook eager
    /// (`RefreshPolicy::Live`-style) view maintenance rides.
    pub fn update(&self, op: &UpdateOp) -> Result<(UpdateResult, QueryCost)> {
        let res = self.connector.update(op)?;
        let cost = QueryCost {
            sim_ms: self.link.latency_ms,
            bytes: 64, // request envelope
            rows_shipped: 0,
            rows_scanned: 0,
            requests: 1,
        };
        self.ledger.record(self.connector.name(), 64, 0, cost.sim_ms);
        let listeners: Vec<WriteListener> = self.write_listeners.read().clone();
        for listener in listeners {
            listener(self.connector.name(), op.table());
        }
        Ok((res, cost))
    }
}

/// The set of sources participating in an integration application.
///
/// The registry is interior-mutable: registration, fault injection,
/// hardening, and wire-format switches all take `&self` (a short write
/// lock), so a `Federation` inside an `Arc<EiiSystem>` can be reconfigured
/// while concurrent queries hold only read locks. Cloning snapshots the
/// source map (the ledger, clock, and metrics stay shared), which is what
/// the materialized-view manager relies on to pin the source topology it
/// refreshes against.
#[derive(Default)]
pub struct Federation {
    sources: RwLock<BTreeMap<String, SourceHandle>>,
    /// Bumped under the source map's write lock; see [`Federation::generation`].
    generation: AtomicU64,
    ledger: TransferLedger,
    clock: SimClock,
    metrics: MetricsRegistry,
    /// Fired after every successful write through any handle; shared (like
    /// the ledger) across clones and cloned-out handles.
    write_listeners: Arc<RwLock<Vec<WriteListener>>>,
}

impl Clone for Federation {
    fn clone(&self) -> Self {
        Federation {
            sources: RwLock::new(self.sources.read().clone()),
            generation: AtomicU64::new(self.generation()),
            ledger: self.ledger.clone(),
            clock: self.clock.clone(),
            metrics: self.metrics.clone(),
            write_listeners: self.write_listeners.clone(),
        }
    }
}

impl Federation {
    /// Empty federation on its own clock.
    pub fn new() -> Self {
        Federation::default()
    }

    /// Empty federation telling time through `clock` (fault windows,
    /// retry backoff, and breaker cooldowns all read it).
    pub fn with_clock(clock: SimClock) -> Self {
        Federation {
            clock,
            ..Federation::default()
        }
    }

    /// The shared traffic ledger.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// The clock the federation's fault and resilience machinery reads.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared metrics registry every source and breaker records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// How many times the source map has been written (a source registered
    /// or reconfigured). Everything a plan reads from a [`SourceHandle`] —
    /// link, wire format, scan speed, the connector and its capabilities —
    /// is unchanged while this is: the bump happens under the map's write
    /// lock, so a reader that saw the new value reads the new map.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Unified health view of every source, sorted by name: accumulated
    /// traffic from the [`TransferLedger`] plus, for hardened sources,
    /// breaker state and the last observed error.
    pub fn source_health(&self) -> Vec<SourceHealth> {
        self.sources
            .read()
            .iter()
            .map(|(name, h)| SourceHealth {
                source: name.clone(),
                traffic: self.ledger.traffic(name),
                breaker: h.connector.breaker_status(),
                last_error: h.connector.last_error(),
            })
            .collect()
    }

    /// Register a connector behind a link. The source name comes from the
    /// connector.
    pub fn register(
        &self,
        connector: Arc<dyn Connector>,
        link: LinkProfile,
        wire: WireFormat,
    ) -> Result<()> {
        let name = connector.name().to_string();
        let mut sources = self.sources.write();
        self.generation.fetch_add(1, Ordering::SeqCst);
        if sources.contains_key(&name) {
            return Err(EiiError::AlreadyExists(format!("source {name}")));
        }
        let traffic_names = Arc::new(TrafficNames::of(&name));
        sources.insert(
            name,
            SourceHandle {
                connector,
                link,
                wire,
                ledger: self.ledger.clone(),
                metrics: self.metrics.clone(),
                scan_ms_per_row: 0.001,
                traffic_names,
                write_listeners: self.write_listeners.clone(),
            },
        );
        Ok(())
    }

    /// Register a callback fired after every successful write through any
    /// of this federation's sources (including handles cloned out before
    /// the registration). Eager view maintenance subscribes here.
    pub fn add_write_listener(&self, listener: WriteListener) {
        self.write_listeners.write().push(listener);
    }

    /// Run `f` on the named source's handle under the write lock.
    fn with_source_mut(
        &self,
        source: &str,
        f: impl FnOnce(&mut SourceHandle),
    ) -> Result<()> {
        let mut sources = self.sources.write();
        self.generation.fetch_add(1, Ordering::SeqCst);
        let h = sources
            .get_mut(source)
            .ok_or_else(|| EiiError::NotFound(format!("source {source}")))?;
        f(h);
        Ok(())
    }

    /// Adjust a registered source's scan speed (experiments that model slow
    /// engines).
    pub fn set_scan_speed(&self, source: &str, ms_per_row: f64) -> Result<()> {
        self.with_source_mut(source, |h| h.scan_ms_per_row = ms_per_row)
    }

    /// Subject a registered source to a [`FaultProfile`]: every subsequent
    /// `execute`/`update` rolls seeded dice and may fail, hang, or slow
    /// down. Layer [`Federation::harden`] on top to survive the faults.
    pub fn inject_faults(&self, source: &str, profile: FaultProfile) -> Result<()> {
        let clock = self.clock.clone();
        let ledger = self.ledger.clone();
        self.with_source_mut(source, |h| {
            h.connector = Arc::new(FaultyConnector::new(
                h.connector.clone(),
                profile,
                clock,
                ledger,
            ));
        })
    }

    /// Harden a registered source with retry/backoff and a circuit breaker.
    /// Apply after [`Federation::inject_faults`] so the resilience layer
    /// wraps the faulty transport, as it would in production.
    pub fn harden(
        &self,
        source: &str,
        policy: RetryPolicy,
        breaker: CircuitBreakerConfig,
    ) -> Result<()> {
        let clock = self.clock.clone();
        let ledger = self.ledger.clone();
        let metrics = self.metrics.clone();
        self.with_source_mut(source, |h| {
            h.connector = Arc::new(
                ResilientConnector::new(h.connector.clone(), policy, breaker, clock, ledger)
                    .instrumented(metrics),
            );
        })
    }

    /// Replace a registered source's wire format (the naive-XML ablation).
    pub fn set_wire_format(&self, source: &str, wire: WireFormat) -> Result<()> {
        self.with_source_mut(source, |h| h.wire = wire)
    }

    /// Fetch a source handle. The handle is an owned, cheap clone (shared
    /// connector, ledger, and metrics), so queries through it never hold
    /// the registry lock.
    pub fn source(&self, name: &str) -> Result<SourceHandle> {
        self.sources
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EiiError::NotFound(format!("source {name}")))
    }

    /// All source names, sorted.
    pub fn source_names(&self) -> Vec<String> {
        self.sources.read().keys().cloned().collect()
    }

    /// Resolve a `source.table` qualified name into its parts.
    ///
    /// Errors if the name has no dot or the source is unknown.
    pub fn resolve(&self, qualified: &str) -> Result<(SourceHandle, String)> {
        let (source, table) = qualified.split_once('.').ok_or_else(|| {
            EiiError::NotFound(format!(
                "table name '{qualified}' must be qualified as source.table"
            ))
        })?;
        Ok((self.source(source)?, table.to_string()))
    }

    /// Schema of `source.table`.
    pub fn table_schema(&self, qualified: &str) -> Result<SchemaRef> {
        let (h, table) = self.resolve(qualified)?;
        h.connector.table_schema(&table)
    }

    /// Statistics of `source.table`.
    pub fn table_stats(&self, qualified: &str) -> Result<Arc<TableStats>> {
        let (h, table) = self.resolve(qualified)?;
        h.connector.statistics(&table)
    }

    /// Every `source.table` pair in the federation.
    pub fn all_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, h) in self.sources.read().iter() {
            for t in h.connector.tables() {
                out.push(format!("{name}.{t}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::relational::RelationalConnector;
    use eii_data::{row, DataType, Field, Schema, SimClock};
    use eii_storage::{Database, TableDef};

    fn federation() -> Federation {
        let db = Database::new("crm", SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
        ]));
        let t = db
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        for i in 0..100i64 {
            t.write().insert(row![i, format!("cust{i}")]).unwrap();
        }
        let fed = Federation::new();
        fed.register(
            Arc::new(RelationalConnector::new(db)),
            LinkProfile::wan(),
            WireFormat::Native,
        )
        .unwrap();
        fed
    }

    #[test]
    fn resolve_and_schema() {
        let fed = federation();
        let s = fed.table_schema("crm.customers").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(fed.table_schema("crm.ghost").unwrap_err().kind(), "not_found");
        assert_eq!(
            fed.table_schema("unqualified").unwrap_err().kind(),
            "not_found"
        );
        assert_eq!(fed.all_tables(), vec!["crm.customers"]);
    }

    #[test]
    fn generation_counts_writes_to_the_source_map() {
        let fed = federation();
        let registered = fed.generation();
        assert!(fed.source("crm").is_ok() && fed.table_stats("crm.customers").is_ok());
        assert_eq!(fed.generation(), registered, "reads leave it alone");
        fed.set_scan_speed("crm", 0.01).unwrap();
        fed.set_wire_format("crm", WireFormat::Xml).unwrap();
        fed.inject_faults("crm", FaultProfile::failing(0.0, 1)).unwrap();
        fed.harden("crm", RetryPolicy::standard(), CircuitBreakerConfig::default()).unwrap();
        assert_eq!(fed.generation(), registered + 4);
        assert_eq!(fed.clone().generation(), fed.generation(), "a clone starts where it was cut");
    }

    #[test]
    fn query_records_costs_in_ledger() {
        let fed = federation();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let (batch, cost) = h.query(&SourceQuery::full_table(table)).unwrap();
        assert_eq!(batch.num_rows(), 100);
        assert!(cost.sim_ms > LinkProfile::wan().latency_ms);
        assert_eq!(cost.bytes, batch.wire_size());
        let traffic = fed.ledger().traffic("crm");
        assert_eq!(traffic.requests, 1);
        assert_eq!(traffic.rows, 100);
    }

    #[test]
    fn columns_built_counts_the_first_read_after_a_write_only() {
        let fed = federation();
        let h = fed.source("crm").unwrap();
        let built = || fed.metrics().counter_value("federation.source.columns_built");
        let ids = SourceQuery {
            projection: Some(vec!["id".into()]),
            ..SourceQuery::full_table("customers")
        };
        h.query(&ids).unwrap();
        assert_eq!(built(), 1, "a cold read builds the column it ships");
        h.query(&ids).unwrap();
        assert_eq!(built(), 1, "a warm read builds nothing");
        h.query(&SourceQuery::full_table("customers")).unwrap();
        assert_eq!(built(), 2, "the other column, once someone reads it");
        let renamed = UpdateOp::UpdateByKey {
            table: "customers".into(),
            key: eii_data::Value::Int(7),
            assignments: vec![("name".into(), "seven".into())],
        };
        h.update(&renamed).unwrap();
        h.query(&SourceQuery::full_table("customers")).unwrap();
        assert_eq!(built(), 4, "a write empties the image: both columns again");
        h.query(&SourceQuery::full_table("customers")).unwrap();
        assert_eq!(built(), 4);
    }

    #[test]
    fn indexes_built_counts_the_first_bound_read_after_a_write_only() {
        let fed = federation();
        let h = fed.source("crm").unwrap();
        let built = || fed.metrics().counter_value("federation.source.indexes_built");
        let bound = |col: &str, key: eii_data::Value| SourceQuery {
            bindings: vec![(col.into(), vec![key])],
            ..SourceQuery::full_table("customers")
        };
        let by_id = bound("id", eii_data::Value::Int(7));
        let by_name = bound("name", "cust7".into());
        h.query(&SourceQuery::full_table("customers")).unwrap();
        assert_eq!(built(), 0, "an unbound read builds none");
        h.query(&by_name).unwrap();
        assert_eq!(built(), 1, "the first bound read of an unmarked column builds its index");
        h.query(&by_name).unwrap();
        assert_eq!(built(), 1, "its second builds none");
        h.query(&by_id).unwrap();
        assert_eq!(built(), 2, "the first bound read of the primary key builds its index");
        h.query(&by_id).unwrap();
        assert_eq!(built(), 2, "a warm bound read builds nothing");
        let renamed = UpdateOp::UpdateByKey {
            table: "customers".into(),
            key: eii_data::Value::Int(7),
            assignments: vec![("name".into(), "seven".into())],
        };
        h.update(&renamed).unwrap();
        h.query(&SourceQuery::full_table("customers")).unwrap();
        assert_eq!(built(), 2, "a write drops the indexes; an unbound read does not rebuild one");
        h.query(&by_id).unwrap();
        h.query(&by_id).unwrap();
        assert_eq!(built(), 3, "the first bound read after the write does, once");
    }

    #[test]
    fn xml_wire_format_ships_more_bytes() {
        let fed = federation();
        let q = SourceQuery::full_table("customers");
        let (_, native) = fed.resolve("crm.customers").unwrap().0.query(&q).unwrap();
        fed.set_wire_format("crm", WireFormat::Xml).unwrap();
        let (_, xml) = fed.resolve("crm.customers").unwrap().0.query(&q).unwrap();
        assert!(
            xml.bytes as f64 > 1.5 * native.bytes as f64,
            "xml={} native={}",
            xml.bytes,
            native.bytes
        );
        assert!(xml.sim_ms > native.sim_ms);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let fed = federation();
        let db = Database::new("crm", SimClock::new());
        let err = fed
            .register(
                Arc::new(RelationalConnector::new(db)),
                LinkProfile::lan(),
                WireFormat::Native,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "already_exists");
    }

    #[test]
    fn injected_faults_fail_queries_and_are_counted() {
        let fed = federation();
        fed.inject_faults("crm", FaultProfile::failing(1.0, 5)).unwrap();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let err = h.query(&SourceQuery::full_table(table)).unwrap_err();
        assert_eq!(err.kind(), "source");
        assert_eq!(fed.ledger().traffic("crm").failures, 1);
        assert_eq!(fed.ledger().traffic("crm").requests, 0, "nothing shipped");
    }

    #[test]
    fn injected_timeouts_wait_out_the_deadline() {
        let fed = federation();
        fed.inject_faults(
            "crm",
            FaultProfile::none().with_timeouts(1.0, 500),
        )
        .unwrap();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let err = h.query(&SourceQuery::full_table(table)).unwrap_err();
        assert_eq!(
            err,
            eii_data::EiiError::Timeout {
                source: "crm".into(),
                deadline_ms: 500,
                attempts: 1,
                elapsed_ms: 500,
            }
        );
        assert_eq!(fed.clock().now_ms(), 500);
    }

    #[test]
    fn a_deadline_caps_the_wait_on_a_hung_request() {
        let fed = federation();
        fed.inject_faults("crm", FaultProfile::none().with_timeouts(1.0, 500))
            .unwrap();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        // 120 ms of budget: the hung request is abandoned there, not at the
        // full 500 ms per-request deadline.
        let deadline = eii_data::Deadline::new(fed.clock().clone(), 120);
        let ctx = RequestCtx::new().with_deadline(deadline);
        let err = h.fetch(&SourceQuery::full_table(table), &ctx, Delivery::Ship).unwrap_err();
        assert_eq!(err.kind(), "timeout");
        if let eii_data::EiiError::Timeout { elapsed_ms, .. } = err {
            assert_eq!(elapsed_ms, 120, "waited only the remaining budget");
        }
        assert_eq!(fed.clock().now_ms(), 120);
    }

    #[test]
    fn cancelled_queries_skip_the_fetch_entirely() {
        let fed = federation();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let cancel = eii_data::CancelToken::new();
        cancel.cancel("test teardown");
        let ctx = RequestCtx::new().with_cancel(cancel);
        let err = h.fetch(&SourceQuery::full_table(table), &ctx, Delivery::Ship).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert_eq!(fed.ledger().traffic("crm").requests, 0, "nothing shipped");
    }

    #[test]
    fn query_ctx_charges_the_deadline_for_accounted_work() {
        let fed = federation();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let deadline = eii_data::Deadline::new(fed.clock().clone(), 10_000);
        let ctx = RequestCtx::new().with_deadline(deadline.clone());
        let (_, cost) = h.fetch(&SourceQuery::full_table(table), &ctx, Delivery::Ship).unwrap();
        assert!(cost.sim_ms > 0.0);
        assert_eq!(deadline.elapsed_ms(), cost.sim_ms.round() as i64);
    }

    #[test]
    fn hedged_fetch_is_deterministic_and_charges_both_requests() {
        let serial = federation();
        let (h, table) = serial.resolve("crm.customers").unwrap();
        let (sb, sc) = h.query(&SourceQuery::full_table(table)).unwrap();

        let fed = federation();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let ctx = RequestCtx::new();
        let (batch, cost, out) = h
            .query_hedged(&SourceQuery::full_table(&table), &ctx, 5.0)
            .unwrap();
        let batch = batch.to_batch();
        assert_eq!(batch.rows(), sb.rows(), "hedged answer is bit-identical");
        assert!(out.fired);
        assert!(
            !out.backup_won,
            "identical latencies: the primary wins (backup starts later)"
        );
        assert_eq!(cost.bytes, 2 * sc.bytes, "the losing fetch still shipped");
        assert_eq!(cost.requests, 2 * sc.requests);
        assert!((cost.sim_ms - sc.sim_ms).abs() < 1e-9, "latency is the winner's");
        assert_eq!(fed.ledger().traffic("crm").hedges, 1);
        assert_eq!(fed.ledger().traffic("crm").bytes, 2 * sc.bytes);

        // Same seed, same race: replay and compare exactly.
        let fed2 = federation();
        let (h2, table2) = fed2.resolve("crm.customers").unwrap();
        let (b2, c2, o2) = h2
            .query_hedged(&SourceQuery::full_table(&table2), &ctx, 5.0)
            .unwrap();
        assert_eq!(b2.to_batch().rows(), batch.rows());
        assert_eq!(c2, cost);
        assert_eq!(o2, out);
    }

    #[test]
    fn hedged_fetch_survives_a_failing_primary() {
        // Find a seed whose dice kill the primary but deliver the backup
        // (the backup is attempt #2 of the same content-addressed request,
        // so the probe below replays exactly what the hedge will roll).
        let (fed, batch, cost, out) = (0..200u64)
            .find_map(|s| {
                let fed = federation();
                fed.inject_faults("crm", FaultProfile::failing(0.5, s))
                    .unwrap();
                let (h, table) = fed.resolve("crm.customers").unwrap();
                let ctx = RequestCtx::new();
                let (batch, cost, out) = h
                    .query_hedged(&SourceQuery::full_table(&table), &ctx, 5.0)
                    .ok()?;
                (fed.ledger().traffic("crm").failures == 1)
                    .then_some((fed, batch, cost, out))
            })
            .expect("some seed rolls fail-then-deliver");
        assert_eq!(batch.num_rows(), 100, "the backup's answer saved the query");
        assert!(out.fired && out.backup_won);
        assert!(cost.sim_ms >= 5.0, "the backup's latency includes its delay");
        assert_eq!(fed.ledger().traffic("crm").failures, 1);
        assert_eq!(fed.ledger().traffic("crm").hedges, 1);
    }

    #[test]
    fn hardened_source_retries_through_a_transient_outage() {
        let fed = federation();
        fed.inject_faults("crm", FaultProfile::none().with_outage(0, 25))
            .unwrap();
        fed.harden(
            "crm",
            crate::resilience::RetryPolicy::standard().with_attempts(5),
            crate::resilience::CircuitBreakerConfig::default(),
        )
        .unwrap();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let (batch, cost) = h.query(&SourceQuery::full_table(table)).unwrap();
        assert_eq!(batch.num_rows(), 100, "outage healed, full answer");
        assert!(cost.requests >= 2, "retries are charged as round trips");
        let traffic = fed.ledger().traffic("crm");
        assert!(traffic.retries >= 1);
        assert!(traffic.failures >= 1);
        assert!(fed.clock().now_ms() >= 25, "backoff advanced past the outage");
    }

    #[test]
    fn zero_fault_profile_changes_nothing() {
        let plain = federation();
        let (h, table) = plain.resolve("crm.customers").unwrap();
        let (expect, expect_cost) = h.query(&SourceQuery::full_table(table)).unwrap();

        let fed = federation();
        fed.inject_faults("crm", FaultProfile::none()).unwrap();
        fed.harden(
            "crm",
            crate::resilience::RetryPolicy::standard(),
            crate::resilience::CircuitBreakerConfig::default(),
        )
        .unwrap();
        let (h, table) = fed.resolve("crm.customers").unwrap();
        let (got, got_cost) = h.query(&SourceQuery::full_table(table)).unwrap();
        assert_eq!(got.rows(), expect.rows());
        assert_eq!(got_cost, expect_cost);
        assert_eq!(fed.ledger().traffic("crm").retries, 0);
        assert_eq!(fed.clock().now_ms(), 0);
    }

    #[test]
    fn write_listeners_fire_on_successful_updates_only() {
        use std::sync::Mutex;
        let fed = federation();
        let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        fed.add_write_listener(Arc::new(move |source, table| {
            sink.lock().unwrap().push((source.to_string(), table.to_string()));
        }));
        // The handle was cloned out BEFORE more listeners could exist; a
        // second listener registered now must still fire through it.
        let (h, _) = fed.resolve("crm.customers").unwrap();
        h.update(&UpdateOp::Insert {
            table: "customers".into(),
            row: row![2000i64, "listener"],
        })
        .unwrap();
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[("crm".to_string(), "customers".to_string())]
        );
        // Failed writes do not notify.
        h.update(&UpdateOp::Insert {
            table: "ghost".into(),
            row: row![1i64],
        })
        .unwrap_err();
        assert_eq!(seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn updates_pay_a_round_trip() {
        let fed = federation();
        let (h, _) = fed.resolve("crm.customers").unwrap();
        let (res, cost) = h
            .update(&UpdateOp::Insert {
                table: "customers".into(),
                row: row![1000i64, "newbie"],
            })
            .unwrap();
        assert_eq!(res.affected, 1);
        assert!((cost.sim_ms - LinkProfile::wan().latency_ms).abs() < 1e-9);
    }
}
