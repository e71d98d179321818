//! The local answer stores: [`SnapshotStore`] — named, timestamped columnar
//! batches; one instance holds the materializations behind the planner's
//! `MatViewScan` nodes, another the stale table copies degradation falls
//! back to — and the semantic result cache that short-circuits whole queries.
//!
//! Both are clone-shared so the application, the matview manager, and the
//! executor can hold the same store.
//!
//! The result cache is *semantic*: its key is the normalized (optimized)
//! logical plan, so two syntactically different queries that optimize to
//! the same plan share an entry. Freshness is version-based — at fill time
//! the cache records each base table's change-log high watermark, and a
//! lookup re-probes them: all unchanged ⇒ a silent hit; changed or
//! unverifiable ⇒ the entry is stale, servable only within the configured
//! staleness budget and then reported exactly like stale fallback data
//! (per-source [`SourceReport`]s), composing with the degradation layer's
//! contract that "the answer" is never silently stale.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use eii_data::{Batch, ColumnarBatch, Result, SchemaRef};
use eii_federation::{Federation, QueryCost};
use eii_obs::MetricsRegistry;

use crate::degrade::SourceReport;

/// Columnar batches keyed by name, each stamped with the simulated time it
/// was taken; shared by cloning. The matview manager fills one on
/// define/refresh (view name → materialization) for the executor's
/// `MatViewScan`; the application fills another (`source.table` → last
/// extract) for
/// [`DegradationPolicy::Fallback`](crate::degrade::DegradationPolicy). A
/// read hands out the stored columns themselves (`Arc` clones): nothing is
/// copied under the lock.
#[derive(Debug, Clone, Default)]
pub struct SnapshotStore {
    inner: Arc<Mutex<BTreeMap<String, (ColumnarBatch, i64)>>>,
}

impl SnapshotStore {
    /// Empty store.
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// Insert (or replace) the batch for `name`, taken at `as_of_ms`.
    pub fn put(&self, name: impl Into<String>, batch: ColumnarBatch, as_of_ms: i64) {
        self.inner
            .lock()
            .expect("snapshot store lock")
            .insert(name.into(), (batch, as_of_ms));
    }

    /// The batch for `name` and when it was taken, if present.
    pub fn get(&self, name: &str) -> Option<(ColumnarBatch, i64)> {
        self.inner
            .lock()
            .expect("snapshot store lock")
            .get(name)
            .cloned()
    }

    /// Drop the batch for `name`.
    pub fn remove(&self, name: &str) {
        self.inner.lock().expect("snapshot store lock").remove(name);
    }
}

/// Re-shape a batch read from a store to `target`'s columns by name
/// (qualifiers are ignored — the stored rows come from a single relation): a
/// column pick, no values move. Lets one materialization serve scans that
/// project fewer columns or use a different alias.
pub fn adapt_batch(stored: &ColumnarBatch, target: &SchemaRef) -> Result<ColumnarBatch> {
    let columns = target
        .fields()
        .iter()
        .map(|f| Ok(Arc::clone(stored.column(stored.schema().index_of(None, &f.name)?))))
        .collect::<Result<Vec<_>>>()?;
    Ok(stored.with_columns(target.clone(), columns))
}

/// Result-cache tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum cached results; least-recently-used entries evict beyond it.
    pub capacity: usize,
    /// How old (simulated ms) a result whose base tables changed — or
    /// cannot be verified — may be and still be served, reported as stale.
    /// `0` means only version-verified hits are ever served.
    pub staleness_budget_ms: i64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 64,
            staleness_budget_ms: 0,
        }
    }
}

/// A result served from the cache.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The memoized rows: the batch the fill stored, shared (a `Batch` clone
    /// is a reference count) with the entry and every other hit.
    pub batch: Batch,
    /// What the original federated execution cost — the spend this hit
    /// avoided.
    pub cost: QueryCost,
    /// Bytes the original execution shipped, per source; credited to the
    /// ledger's bytes-saved account on a hit.
    pub per_source_bytes: Vec<(String, usize)>,
    /// Simulated ms since the entry was filled.
    pub age_ms: i64,
}

/// Outcome of a cache probe.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Entry present and every base table's version verified unchanged.
    Hit(CachedResult),
    /// Entry present but base data changed (or could not be verified);
    /// still within the staleness budget, so it may be served — flagged
    /// with one report per suspect table, like stale fallback data.
    Stale(CachedResult, Vec<SourceReport>),
    /// No servable entry.
    Miss,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    batch: Batch,
    cost: QueryCost,
    per_source_bytes: Vec<(String, usize)>,
    /// `source.table` → change-log high watermark at fill time (`None`
    /// when the source exposes no change log).
    versions: Vec<(String, Option<u64>)>,
    filled_at_ms: i64,
    /// The tick of the fill or in-place refresh that wrote this entry: a
    /// lookup that probed with the lock released judges only the entry it
    /// read.
    stamp: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: BTreeMap<String, CacheEntry>,
    tick: u64,
    evictions: u64,
    invalidations: u64,
}

/// Bounded, freshness-aware semantic result cache, shared by cloning.
#[derive(Debug, Clone)]
pub struct ResultCache {
    inner: Arc<Mutex<CacheInner>>,
    config: CacheConfig,
    metrics: Option<MetricsRegistry>,
}

impl ResultCache {
    /// Empty cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        ResultCache {
            inner: Arc::new(Mutex::new(CacheInner::default())),
            config,
            metrics: None,
        }
    }

    /// Record cache events (`cache.hits`, `cache.misses`,
    /// `cache.stale_hits`, `cache.evictions`, `cache.invalidations`) into
    /// `metrics`.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Record a `cache.*` event — never under the cache lock, a leaf
    /// (`docs/architecture.md`, rule 2).
    fn metric(&self, name: &str, delta: u64) {
        if let Some(m) = &self.metrics {
            m.add(name, delta);
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("result cache lock")
    }

    /// Current change-log high watermark of each `source.table`, probed
    /// through the federation (`None` where the source has no change log).
    /// Probes read connector metadata only — no rows ship, nothing is
    /// charged to the transfer ledger.
    pub fn probe_versions(
        federation: &Federation,
        tables: &[String],
    ) -> Vec<(String, Option<u64>)> {
        tables
            .iter()
            .map(|qualified| {
                let version = qualified.split_once('.').and_then(|(source, table)| {
                    let handle = federation.source(source).ok()?;
                    let (_, watermark) = handle.connector().changes_since(table, u64::MAX).ok()?;
                    Some(watermark)
                });
                (qualified.clone(), version)
            })
            .collect()
    }

    /// Probe the cache for `key` at simulated time `now_ms`, re-validating
    /// the entry's base-table versions against the federation.
    pub fn lookup(&self, key: &str, now_ms: i64, federation: &Federation) -> CacheLookup {
        self.lookup_with_budget(key, now_ms, federation, None)
    }

    /// [`ResultCache::lookup`] with a per-query staleness budget override
    /// (milliseconds a stale entry may still be served): sessions can relax
    /// or tighten the configured budget without touching the shared config.
    pub fn lookup_with_budget(
        &self,
        key: &str,
        now_ms: i64,
        federation: &Federation,
        staleness_budget_ms: Option<i64>,
    ) -> CacheLookup {
        let budget = staleness_budget_ms.unwrap_or(self.config.staleness_budget_ms);
        // The cache lock is a leaf: the entry's versions are copied out and
        // probed with it released, then the entry is judged under a second
        // lock — a miss if it was refilled or removed in between.
        let read = (self.lock().entries.get(key))
            .map(|e| (e.versions.clone(), e.filled_at_ms, e.stamp));
        let Some((versions, filled_at_ms, stamp)) = read else {
            self.metric("cache.misses", 1);
            return CacheLookup::Miss;
        };
        let tables: Vec<String> = versions.iter().map(|(t, _)| t.clone()).collect();
        let current = Self::probe_versions(federation, &tables);
        let age_ms = (now_ms - filled_at_ms).max(0);
        let mut suspect: Vec<SourceReport> = Vec::new();
        for ((qualified, filled_version), (_, current)) in versions.iter().zip(current) {
            let verified = matches!((filled_version, current), (Some(a), Some(b)) if *a == b);
            if !verified {
                let (source, table) = qualified
                    .split_once('.')
                    .unwrap_or((qualified.as_str(), ""));
                suspect.push(SourceReport {
                    source: source.to_string(),
                    table: table.to_string(),
                    stale_ms: Some(age_ms),
                    error: match (filled_version, current) {
                        (Some(a), Some(b)) => format!(
                            "cached result is stale: {qualified} changed \
                             (watermark {a} -> {b})"
                        ),
                        _ => format!("cached result age unverifiable for {qualified}"),
                    },
                });
            }
        }
        let (lookup, invalidated) = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.get_mut(key).filter(|e| e.stamp == stamp) {
                None => (CacheLookup::Miss, false),
                Some(entry) => {
                    entry.last_used = tick;
                    // O(1) under the lock: the batch is a shared row set.
                    let result = CachedResult {
                        batch: entry.batch.clone(),
                        cost: entry.cost,
                        per_source_bytes: entry.per_source_bytes.clone(),
                        age_ms,
                    };
                    if suspect.is_empty() {
                        (CacheLookup::Hit(result), false)
                    } else if budget > 0 && age_ms <= budget {
                        (CacheLookup::Stale(result, suspect), false)
                    } else {
                        inner.entries.remove(key);
                        inner.invalidations += 1;
                        (CacheLookup::Miss, true)
                    }
                }
            }
        };
        if invalidated {
            self.metric("cache.invalidations", 1);
        }
        self.metric(
            match lookup {
                CacheLookup::Hit(_) => "cache.hits",
                CacheLookup::Stale(..) => "cache.stale_hits",
                CacheLookup::Miss => "cache.misses",
            },
            1,
        );
        lookup
    }

    /// Memoize a freshly executed result under `key`, evicting the least
    /// recently used entries beyond capacity.
    pub fn fill(
        &self,
        key: impl Into<String>,
        batch: Batch,
        cost: QueryCost,
        per_source_bytes: Vec<(String, usize)>,
        versions: Vec<(String, Option<u64>)>,
        now_ms: i64,
    ) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key.into(),
            CacheEntry {
                batch,
                cost,
                per_source_bytes,
                versions,
                filled_at_ms: now_ms,
                stamp: tick,
                last_used: tick,
            },
        );
        let mut evicted = 0;
        while inner.entries.len() > self.config.capacity.max(1) {
            let Some(lru) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.entries.remove(&lru);
            inner.evictions += 1;
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.metric("cache.evictions", evicted);
        }
    }

    /// Refresh an existing entry in place: replace its batch and base-table
    /// versions and reset its fill time, without touching LRU order or
    /// capacity. Incremental view maintenance uses this to push a freshly
    /// maintained result into the cache instead of invalidating it —
    /// readers keep hitting instead of rerunning. `fresh` produces the batch
    /// and its base-table versions and is asked only when `key` is cached —
    /// outside this cache's lock, which is a leaf: `fresh` reads other
    /// subsystems. Returns false (and changes nothing) when `key` is not
    /// cached, or when `fresh` has nothing to offer.
    pub fn refresh_entry(
        &self,
        key: &str,
        fresh: impl FnOnce() -> Option<(Batch, Vec<(String, Option<u64>)>)>,
        now_ms: i64,
    ) -> bool {
        if !self.lock().entries.contains_key(key) {
            return false;
        }
        let Some((batch, versions)) = fresh() else {
            return false;
        };
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let stamp = inner.tick;
            let Some(entry) = inner.entries.get_mut(key) else {
                return false;
            };
            entry.batch = batch;
            entry.versions = versions;
            entry.filled_at_ms = now_ms;
            entry.stamp = stamp;
        }
        self.metric("cache.refreshed", 1);
        true
    }

    /// Drop every entry that depends on `source.table` (a write landed
    /// there); returns how many were invalidated.
    pub fn invalidate_table(&self, qualified: &str) -> usize {
        let doomed = {
            let mut inner = self.lock();
            let doomed: Vec<String> = inner
                .entries
                .iter()
                .filter(|(_, e)| e.versions.iter().any(|(t, _)| t == qualified))
                .map(|(k, _)| k.clone())
                .collect();
            for k in &doomed {
                inner.entries.remove(k);
            }
            inner.invalidations += doomed.len() as u64;
            doomed.len()
        };
        self.metric("cache.invalidations", doomed as u64);
        doomed
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Total entries dropped for staleness or explicit invalidation.
    pub fn invalidations(&self) -> u64 {
        self.lock().invalidations
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.lock().entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, DataType, Field, Schema};
    use std::sync::Arc as StdArc;

    fn batch() -> Batch {
        let schema = StdArc::new(Schema::new(vec![
            Field::new("id", DataType::Int).with_relation("c"),
            Field::new("name", DataType::Str).with_relation("c"),
        ]));
        Batch::new(schema, vec![row![1i64, "alice"], row![2i64, "bob"]])
    }

    #[test]
    fn matview_store_round_trips() {
        let store = SnapshotStore::new();
        assert!(store.get("top").is_none());
        let stored = ColumnarBatch::from_batch(&batch());
        store.put("top", stored.clone(), 5);
        let (b, at) = store.get("top").unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(at, 5);
        assert!(
            StdArc::ptr_eq(b.column(0), stored.column(0)),
            "a read shares the stored columns"
        );
        store.remove("top");
        assert!(store.get("top").is_none());
    }

    #[test]
    fn adapt_batch_projects_and_requalifies() {
        let target = StdArc::new(Schema::new(vec![
            Field::new("name", DataType::Str).with_relation("x")
        ]));
        let out = adapt_batch(&ColumnarBatch::from_batch(&batch()), &target).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.schema().field(0).relation.as_deref(), Some("x"));
        assert_eq!(out.to_batch().rows()[0], row!["alice"]);
    }

    #[test]
    fn adapt_batch_rejects_missing_columns() {
        let target = StdArc::new(Schema::new(vec![Field::new("ghost", DataType::Str)]));
        assert!(adapt_batch(&ColumnarBatch::from_batch(&batch()), &target).is_err());
    }

    #[test]
    fn refresh_entry_replaces_in_place_without_eviction() {
        let fed = Federation::new();
        let cache = ResultCache::new(CacheConfig {
            capacity: 2,
            staleness_budget_ms: 0,
        });
        assert!(
            !cache.refresh_entry("ghost", || Some((batch(), vec![])), 0),
            "absent keys are not created"
        );
        cache.fill("q1", batch(), QueryCost::default(), vec![], vec![], 0);
        let fresh = Batch::new(batch().schema().clone(), vec![row![9i64, "zoe"]]);
        assert!(cache.refresh_entry("q1", || Some((fresh, vec![])), 50));
        match cache.lookup("q1", 50, &fed) {
            CacheLookup::Hit(r) => {
                assert_eq!(r.batch.rows()[0], row![9i64, "zoe"]);
                assert_eq!(r.age_ms, 0, "fill time was reset");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn hits_share_the_filled_rows() {
        let fed = Federation::new();
        let cache = ResultCache::new(CacheConfig::default());
        let filled = batch();
        cache.fill("q", filled.clone(), QueryCost::default(), vec![], vec![], 0);
        let hit = || match cache.lookup("q", 0, &fed) {
            CacheLookup::Hit(r) => r.batch,
            other => panic!("expected hit, got {other:?}"),
        };
        let (first, second) = (hit(), hit());
        assert_eq!(first.rows().as_ptr(), filled.rows().as_ptr());
        assert_eq!(second.rows().as_ptr(), filled.rows().as_ptr());
        // A refresh swaps the entry's rows; an answer already handed out
        // keeps the ones it was given.
        let fresh = Batch::new(filled.schema().clone(), vec![row![9i64, "zoe"]]);
        assert!(cache.refresh_entry("q", || Some((fresh.clone(), vec![])), 10));
        assert_eq!(first, batch());
        assert_eq!(first.rows().as_ptr(), filled.rows().as_ptr());
        assert_eq!(hit().rows().as_ptr(), fresh.rows().as_ptr());
    }

    #[test]
    fn refresh_entry_asks_for_the_batch_only_when_the_key_is_cached() {
        let metrics = MetricsRegistry::new();
        let cache = ResultCache::new(CacheConfig::default()).with_metrics(metrics.clone());
        cache.fill("q1", batch(), QueryCost::default(), vec![], vec![], 0);
        let asked = std::cell::Cell::new(0);
        let fresh = || {
            asked.set(asked.get() + 1);
            None
        };
        assert!(!cache.refresh_entry("ghost", fresh, 10));
        assert_eq!(asked.get(), 0, "nobody holds the key: no materialization is cloned");
        assert!(!cache.refresh_entry("q1", fresh, 10), "nothing offered, nothing replaced");
        assert_eq!(asked.get(), 1);
        assert_eq!(metrics.counter_value("cache.refreshed"), 0);
    }

    #[test]
    fn cache_fill_hit_and_lru_eviction() {
        let fed = Federation::new();
        let cache = ResultCache::new(CacheConfig {
            capacity: 2,
            staleness_budget_ms: 0,
        });
        // No version tracking: empty versions always verify.
        cache.fill("q1", batch(), QueryCost::default(), vec![], vec![], 0);
        cache.fill("q2", batch(), QueryCost::default(), vec![], vec![], 0);
        assert!(matches!(cache.lookup("q1", 0, &fed), CacheLookup::Hit(_)));
        // q2 is now least-recently-used; a third fill evicts it.
        cache.fill("q3", batch(), QueryCost::default(), vec![], vec![], 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(matches!(cache.lookup("q2", 0, &fed), CacheLookup::Miss));
        assert!(matches!(cache.lookup("q1", 0, &fed), CacheLookup::Hit(_)));
    }

    #[test]
    fn unverifiable_entries_respect_the_staleness_budget() {
        let fed = Federation::new();
        let budget = ResultCache::new(CacheConfig {
            capacity: 8,
            staleness_budget_ms: 100,
        });
        // A version over a source the federation does not know: never
        // verifiable.
        let versions = vec![("ghost.t".to_string(), None)];
        budget.fill("q", batch(), QueryCost::default(), vec![], versions, 0);
        match budget.lookup("q", 50, &fed) {
            CacheLookup::Stale(res, reports) => {
                assert_eq!(res.age_ms, 50);
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].source, "ghost");
                assert_eq!(reports[0].stale_ms, Some(50));
            }
            other => panic!("expected stale hit, got {other:?}"),
        }
        // Past the budget the entry dies.
        assert!(matches!(budget.lookup("q", 200, &fed), CacheLookup::Miss));
        assert_eq!(budget.invalidations(), 1);
        assert!(budget.is_empty());
    }

    #[test]
    fn invalidate_table_drops_dependents_only() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.fill(
            "q1",
            batch(),
            QueryCost::default(),
            vec![],
            vec![("crm.customers".into(), Some(3))],
            0,
        );
        cache.fill(
            "q2",
            batch(),
            QueryCost::default(),
            vec![],
            vec![("sales.orders".into(), Some(7))],
            0,
        );
        assert_eq!(cache.invalidate_table("crm.customers"), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidations(), 1);
    }
}
