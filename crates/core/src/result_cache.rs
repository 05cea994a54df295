//! The in-memory query result cache.
//!
//! Keyed by [`crate::fingerprint::PlanFingerprint`] over the optimized
//! plan, validated by per-dataset repository **generation counters**: an
//! entry records the generation of every source dataset at the time the
//! result was computed, and a lookup revalidates those generations, so a
//! `save`/`delete`/`migrate` of any input invalidates dependent entries
//! lazily — no scan, no epoch sweep.
//!
//! Entries hold `Arc`-shared materialized outputs accounted in *encoded
//! bytes* ([`nggc_gdm::Dataset::encoded_size`]), the same currency the
//! governor budgets and the server `MemoryPool` use. Eviction is a
//! byte-aware LRU ([`nggc_obs::ByteLru`]). Concurrent identical misses
//! are **single-flighted** ([`nggc_obs::SingleFlight`], the mechanism
//! under the repository's cold-load coalescing too): one caller executes,
//! the rest wait and share its `Arc`.
//!
//! Byte accounting is pluggable via [`CacheBudget`] so `nggc serve` can
//! carve cache bytes lazily out of its server-wide memory pool — cached
//! results and in-flight queries then compete for one budget, and the
//! cache yields (evicts) when queries need headroom.

use nggc_gdm::Dataset;
use nggc_obs::{ByteLru, SingleFlight};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// Materialized query outputs: output dataset name → dataset.
pub type QueryOutputs = HashMap<String, Dataset>;

/// Where cache bytes come from. `reserve` returns `false` when the
/// budget cannot cover `bytes`; the cache then evicts and retries, and
/// finally skips caching rather than overcommitting.
pub trait CacheBudget: Send + Sync {
    /// Try to take `bytes` from the budget.
    fn reserve(&self, bytes: u64) -> bool;
    /// Return `bytes` previously taken with `reserve`.
    fn release(&self, bytes: u64);
}

/// The default budget: unlimited (the cache's own `capacity_bytes` is
/// then the only bound).
struct Unbounded;

impl CacheBudget for Unbounded {
    fn reserve(&self, _bytes: u64) -> bool {
        true
    }
    fn release(&self, _bytes: u64) {}
}

/// How a [`ResultCache::get_or_compute`] call was satisfied: served from
/// cache without executing (`Hit`), executed and offered to the cache
/// (`Miss`), or shared with a concurrent identical execution
/// (`Coalesced`) — the single-flight's own account.
pub use nggc_obs::FlightOutcome as CacheOutcome;

/// Point-in-time cache statistics (for `ServeStats` and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Entries currently resident.
    pub entries: u64,
    /// Encoded bytes currently resident.
    pub bytes: u64,
    /// Lifetime hits.
    pub hits: u64,
    /// Lifetime misses (executions).
    pub misses: u64,
    /// Lifetime evictions (capacity or budget pressure).
    pub evictions: u64,
    /// Lifetime invalidations (generation mismatch on lookup).
    pub invalidations: u64,
    /// Lifetime coalesced waits on a concurrent identical execution.
    pub coalesced: u64,
}

struct Entry {
    outputs: Arc<QueryOutputs>,
    /// `(source dataset, generation at execution time)` — the validity
    /// condition of this entry.
    gens: Vec<(String, u64)>,
}

impl Entry {
    fn is_current(&self, gen_of: &dyn Fn(&str) -> Option<u64>) -> bool {
        self.gens.iter().all(|(name, gen)| gen_of(name) == Some(*gen))
    }
}

#[derive(Default)]
struct Inner {
    lru: ByteLru<u64, Entry>,
    evictions: u64,
    invalidations: u64,
}

impl Inner {
    /// Evict the least recently used entry; returns the bytes freed
    /// (0 when the cache is empty).
    fn evict_lru(&mut self) -> u64 {
        let Some((.., freed)) = self.lru.pop_lru() else {
            return 0;
        };
        self.evictions += 1;
        nggc_obs::global().counter("nggc_result_cache_evictions_total").inc();
        freed
    }

    /// Remove every entry `stale` picks, counted as invalidations;
    /// returns how many went and the bytes they held.
    fn invalidate(&mut self, stale: impl Fn(&Entry) -> bool) -> (u64, u64) {
        let keys: Vec<u64> = self.lru.iter().filter(|(_, e)| stale(e)).map(|(&k, _)| k).collect();
        let freed = keys.iter().filter_map(|key| self.lru.remove(key)).map(|(_, b)| b).sum();
        self.invalidations += keys.len() as u64;
        (keys.len() as u64, freed)
    }
}

/// A bounded, byte-aware, plan-keyed LRU of materialized query results.
///
/// Thread-safe; all methods take `&self`.
pub struct ResultCache {
    capacity_bytes: u64,
    budget: Arc<dyn CacheBudget>,
    inner: Mutex<Inner>,
    inflight: SingleFlight<u64, Arc<QueryOutputs>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ResultCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .finish()
    }
}

impl ResultCache {
    /// A cache bounded only by `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> ResultCache {
        ResultCache::with_budget(capacity_bytes, Arc::new(Unbounded))
    }

    /// A cache bounded by `capacity_bytes` **and** an external byte
    /// budget (e.g. the serve memory pool): every resident byte is also
    /// reserved from `budget`, and released on eviction/invalidation.
    pub fn with_budget(capacity_bytes: u64, budget: Arc<dyn CacheBudget>) -> ResultCache {
        ResultCache {
            capacity_bytes,
            budget,
            inner: Mutex::new(Inner::default()),
            inflight: SingleFlight::default(),
            hits: 0.into(),
            misses: 0.into(),
            coalesced: 0.into(),
        }
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// What every mutation ends with, once the cache lock is released:
    /// `freed` bytes go back to the budget, `invalidated` entries are
    /// counted, and the gauge shows the `resident` bytes that were read
    /// under the lock.
    fn settle(&self, freed: u64, invalidated: u64, resident: u64) {
        if freed > 0 {
            self.budget.release(freed);
        }
        let reg = nggc_obs::global();
        if invalidated > 0 {
            reg.counter("nggc_result_cache_invalidations_total").add(invalidated);
        }
        reg.gauge("nggc_result_cache_bytes").set(resident as i64);
    }

    /// Look up `key`, revalidating source generations via `gen_of`
    /// (current repository generation of a dataset, `None` when it no
    /// longer exists). A stale entry is removed and counted as an
    /// invalidation; the call then misses.
    pub fn lookup(
        &self,
        key: u64,
        gen_of: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<Arc<QueryOutputs>> {
        let mut inner = self.inner();
        let entry = inner.lru.get(&key)?;
        if !entry.is_current(gen_of) {
            let freed = inner.lru.remove(&key).map_or(0, |(_, bytes)| bytes);
            inner.invalidations += 1;
            let resident = inner.lru.bytes();
            drop(inner);
            self.settle(freed, 1, resident);
            return None;
        }
        let outputs = Arc::clone(&entry.outputs);
        drop(inner);
        self.hits.fetch_add(1, Relaxed);
        nggc_obs::global().counter("nggc_result_cache_hits_total").inc();
        Some(outputs)
    }

    /// Offer a computed result to the cache. `gens` is the generation
    /// snapshot taken **before** execution started (so a source mutated
    /// mid-execution makes the entry stale immediately). Oversized
    /// results (larger than the whole cache) and results whose bytes
    /// cannot be reserved from the budget even after evicting everything
    /// are silently not cached.
    pub fn insert(&self, key: u64, gens: Vec<(String, u64)>, outputs: Arc<QueryOutputs>) {
        let bytes: u64 = outputs.values().map(|d| d.encoded_size() as u64).sum();
        if bytes > self.capacity_bytes {
            return;
        }
        let mut inner = self.inner();
        // Replacing an entry (same fingerprint, e.g. recomputed after an
        // invalidation raced past lookup) releases the old bytes first.
        if let Some((_, replaced)) = inner.lru.remove(&key) {
            self.budget.release(replaced);
        }
        // Make room in our own capacity (every evicted byte goes back to
        // the budget it was reserved from)…
        while inner.lru.bytes() + bytes > self.capacity_bytes {
            let freed = inner.evict_lru();
            if freed == 0 {
                break;
            }
            self.budget.release(freed);
        }
        // …and in the external budget, evicting our own entries to free
        // budget when the reservation fails.
        let mut reserved = self.budget.reserve(bytes);
        while !reserved {
            let freed = inner.evict_lru();
            if freed == 0 {
                break;
            }
            self.budget.release(freed);
            reserved = self.budget.reserve(bytes);
        }
        if reserved {
            inner.lru.insert(key, Entry { outputs, gens }, bytes);
            nggc_obs::global().counter("nggc_result_cache_insert_bytes_total").add(bytes);
        }
        let resident = inner.lru.bytes();
        drop(inner);
        self.settle(0, 0, resident);
    }

    /// Drop every entry whose validity depends on dataset `name`.
    /// Lookup-time revalidation already catches stale entries; this is
    /// for callers that want bytes back immediately after a mutation.
    pub fn invalidate_dataset(&self, name: &str) {
        let mut inner = self.inner();
        let (stale, freed) = inner.invalidate(|e| e.gens.iter().any(|(n, _)| n == name));
        let resident = inner.lru.bytes();
        drop(inner);
        self.settle(freed, stale, resident);
    }

    /// Eagerly drop every entry whose recorded source generations no
    /// longer match `gen_of` (the same validity condition `lookup`
    /// checks lazily). Returns the number of entries removed. `nggc
    /// fsck --repair` and maintenance sweeps use this to reclaim bytes
    /// from entries that would never be looked up again.
    pub fn sweep_stale(&self, gen_of: &dyn Fn(&str) -> Option<u64>) -> u64 {
        let mut inner = self.inner();
        let (stale, freed) = inner.invalidate(|e| !e.is_current(gen_of));
        let resident = inner.lru.bytes();
        drop(inner);
        self.settle(freed, stale, resident);
        stale
    }

    /// Evict least-recently-used entries until at least `bytes` of
    /// budget have been returned (or the cache is empty). The serve pool
    /// calls this when a query's reservation fails: queries outrank
    /// cached results.
    pub fn shrink(&self, bytes: u64) -> u64 {
        let mut inner = self.inner();
        let mut freed = 0;
        while freed < bytes {
            let f = inner.evict_lru();
            if f == 0 {
                break;
            }
            freed += f;
        }
        let resident = inner.lru.bytes();
        drop(inner);
        self.settle(freed, 0, resident);
        freed
    }

    /// Serve `key` from cache, or execute `compute` — at most once
    /// across concurrent identical calls (single-flight). `sources` are
    /// the plan's input datasets; their generations are snapshotted via
    /// `gen_of` *before* `compute` runs and stored with the entry. When
    /// any source has no generation (unknown dataset, generations
    /// unsupported), the result is returned but not cached.
    ///
    /// On a leader failure (`compute` returns `Err` or panics), waiting
    /// followers retry from scratch — each surfaces its own error or
    /// succeeds if the failure was transient.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        sources: &[String],
        gen_of: &dyn Fn(&str) -> Option<u64>,
        compute: &mut dyn FnMut() -> Result<QueryOutputs, E>,
    ) -> Result<(Arc<QueryOutputs>, CacheOutcome), E> {
        let reg = nggc_obs::global();
        let lookup = || self.lookup(key, gen_of);
        let (outputs, outcome) = self.inflight.run(&key, lookup, || {
            // Snapshot generations before executing: a save that lands
            // mid-execution bumps the live generation past the snapshot,
            // so the entry is stale the moment it's born and the next
            // lookup re-executes.
            let gens: Option<Vec<(String, u64)>> =
                sources.iter().map(|s| gen_of(s).map(|g| (s.clone(), g))).collect();
            self.misses.fetch_add(1, Relaxed);
            reg.counter("nggc_result_cache_misses_total").inc();
            let outputs = Arc::new(compute()?);
            if let Some(gens) = gens {
                self.insert(key, gens, Arc::clone(&outputs));
            }
            Ok(outputs)
        })?;
        if outcome == CacheOutcome::Coalesced {
            self.coalesced.fetch_add(1, Relaxed);
            reg.counter("nggc_result_cache_coalesced_total").inc();
        }
        Ok((outputs, outcome))
    }

    /// Drop everything, returning all bytes to the budget.
    pub fn clear(&self) {
        let mut inner = self.inner();
        let freed = inner.lru.bytes();
        inner.lru.clear();
        drop(inner);
        self.settle(freed, 0, 0);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.inner();
        ResultCacheStats {
            entries: inner.lru.len() as u64,
            bytes: inner.lru.bytes(),
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            coalesced: self.coalesced.load(Relaxed),
        }
    }

    /// Configured byte capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Sample, Schema, Strand, ValueType};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn dataset(name: &str, regions: usize) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new(name, schema);
        let regs: Vec<GRegion> = (0..regions)
            .map(|i| {
                GRegion::new("chr1", i as u64 * 10, i as u64 * 10 + 5, Strand::Pos)
                    .with_values(vec![0.5.into()])
            })
            .collect();
        ds.add_sample(Sample::new("s1", name).with_regions(regs)).unwrap();
        ds
    }

    fn outputs(name: &str, regions: usize) -> QueryOutputs {
        let mut m = QueryOutputs::new();
        m.insert(name.to_owned(), dataset(name, regions));
        m
    }

    fn gens_fixed(g: u64) -> impl Fn(&str) -> Option<u64> {
        move |_| Some(g)
    }

    #[test]
    fn hit_after_insert_and_invalidation_on_gen_bump() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(42, vec![("SRC".into(), 1)], Arc::new(outputs("R", 3)));
        assert!(cache.lookup(42, &gens_fixed(1)).is_some());
        assert_eq!(cache.stats().hits, 1);
        // Source moved to generation 2: stale, removed, miss.
        assert!(cache.lookup(42, &gens_fixed(2)).is_none());
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        // Deleted source (no generation): also stale.
        cache.insert(42, vec![("SRC".into(), 2)], Arc::new(outputs("R", 3)));
        assert!(cache.lookup(42, &|_| None).is_none());
    }

    #[test]
    fn byte_aware_lru_eviction_under_tiny_budget() {
        let one = outputs("R", 4);
        let bytes: u64 = one.values().map(|d| d.encoded_size() as u64).sum();
        // Room for two entries, not three.
        let cache = ResultCache::new(bytes * 2 + bytes / 2);
        for key in 0..3u64 {
            cache.insert(key, vec![("S".into(), 1)], Arc::new(outputs("R", 4)));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= cache.capacity_bytes());
        // Key 0 was the LRU victim; 1 and 2 survive.
        assert!(cache.lookup(0, &gens_fixed(1)).is_none());
        assert!(cache.lookup(1, &gens_fixed(1)).is_some());
        assert!(cache.lookup(2, &gens_fixed(1)).is_some());
        // An entry larger than the whole cache is refused outright.
        let huge = ResultCache::new(8);
        huge.insert(9, vec![("S".into(), 1)], Arc::new(outputs("R", 100)));
        assert_eq!(huge.stats().entries, 0);
    }

    #[test]
    fn external_budget_is_reserved_and_released() {
        struct Pool {
            capacity: u64,
            used: AtomicU64,
        }
        impl CacheBudget for Pool {
            fn reserve(&self, bytes: u64) -> bool {
                let mut cur = self.used.load(Ordering::SeqCst);
                loop {
                    if cur + bytes > self.capacity {
                        return false;
                    }
                    match self.used.compare_exchange(
                        cur,
                        cur + bytes,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => return true,
                        Err(c) => cur = c,
                    }
                }
            }
            fn release(&self, bytes: u64) {
                self.used.fetch_sub(bytes, Ordering::SeqCst);
            }
        }
        let one = outputs("R", 4);
        let bytes: u64 = one.values().map(|d| d.encoded_size() as u64).sum();
        let pool = Arc::new(Pool { capacity: bytes + bytes / 2, used: AtomicU64::new(0) });
        // Cache capacity is huge; the pool (room for one entry) is the
        // binding constraint, so inserting a second entry evicts the
        // first to free pool budget.
        let cache = ResultCache::with_budget(1 << 30, Arc::clone(&pool) as Arc<dyn CacheBudget>);
        cache.insert(1, vec![("S".into(), 1)], Arc::new(outputs("R", 4)));
        assert_eq!(pool.used.load(Ordering::SeqCst), bytes);
        cache.insert(2, vec![("S".into(), 1)], Arc::new(outputs("R", 4)));
        let s = cache.stats();
        assert_eq!(s.entries, 1, "pool pressure evicts the LRU entry");
        assert_eq!(pool.used.load(Ordering::SeqCst), bytes);
        assert!(cache.lookup(2, &gens_fixed(1)).is_some());
        // clear() returns everything.
        cache.clear();
        assert_eq!(pool.used.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn get_or_compute_executes_once_then_hits() {
        let cache = ResultCache::new(1 << 20);
        let mut calls = 0;
        let gen_of = gens_fixed(7);
        let sources = vec!["S".to_string()];
        for round in 0..3 {
            let (out, outcome) = cache
                .get_or_compute::<()>(5, &sources, &gen_of, &mut || {
                    calls += 1;
                    Ok(outputs("R", 2))
                })
                .unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(outcome, if round == 0 { CacheOutcome::Miss } else { CacheOutcome::Hit });
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn unknown_source_generation_disables_caching() {
        let cache = ResultCache::new(1 << 20);
        let mut calls = 0;
        let sources = vec!["S".to_string()];
        for _ in 0..2 {
            cache
                .get_or_compute::<()>(5, &sources, &|_| None, &mut || {
                    calls += 1;
                    Ok(outputs("R", 2))
                })
                .unwrap();
        }
        assert_eq!(calls, 2, "uncacheable results re-execute");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn concurrent_identical_misses_coalesce_to_one_execution() {
        use std::sync::Barrier;
        let cache = Arc::new(ResultCache::new(1 << 20));
        let executions = Arc::new(AtomicU64::new(0));
        const N: usize = 8;
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let executions = Arc::clone(&executions);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let sources = vec!["S".to_string()];
                    let (out, _) = cache
                        .get_or_compute::<()>(9, &sources, &|_| Some(1), &mut || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            // Give followers time to pile onto the flight.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(outputs("R", 2))
                        })
                        .unwrap();
                    out
                })
            })
            .collect();
        let results: Vec<Arc<QueryOutputs>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(executions.load(Ordering::SeqCst), 1, "one execution for {N} identical misses");
        assert!(
            results.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "coalesced callers share the leader's Arc"
        );
    }

    #[test]
    fn leader_failure_does_not_wedge_followers() {
        use std::sync::Barrier;
        let cache = Arc::new(ResultCache::new(1 << 20));
        const N: usize = 6;
        let barrier = Arc::new(Barrier::new(N));
        let failures = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                let failures = Arc::clone(&failures);
                std::thread::spawn(move || {
                    barrier.wait();
                    let sources = vec!["S".to_string()];
                    let r = cache.get_or_compute::<&'static str>(
                        3,
                        &sources,
                        &|_| Some(1),
                        &mut || {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            failures.fetch_add(1, Ordering::SeqCst);
                            Err("boom")
                        },
                    );
                    assert!(r.is_err());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.inflight.is_idle(), "failed flights must not leak in-flight entries");
    }

    #[test]
    fn invalidate_dataset_drops_dependent_entries_only() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(1, vec![("A".into(), 1)], Arc::new(outputs("R", 2)));
        cache.insert(2, vec![("B".into(), 1)], Arc::new(outputs("R", 2)));
        cache.insert(3, vec![("A".into(), 1), ("B".into(), 1)], Arc::new(outputs("R", 2)));
        cache.invalidate_dataset("A");
        assert!(cache.lookup(1, &gens_fixed(1)).is_none());
        assert!(cache.lookup(2, &gens_fixed(1)).is_some());
        assert!(cache.lookup(3, &gens_fixed(1)).is_none());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn sweep_stale_evicts_mismatched_generations_eagerly() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(1, vec![("A".into(), 1)], Arc::new(outputs("R", 2)));
        cache.insert(2, vec![("B".into(), 5)], Arc::new(outputs("R", 2)));
        cache.insert(3, vec![("GONE".into(), 1)], Arc::new(outputs("R", 2)));
        // A is current at gen 1; B moved on; GONE was deleted.
        let gen_of = |name: &str| match name {
            "A" => Some(1),
            "B" => Some(6),
            _ => None,
        };
        assert_eq!(cache.sweep_stale(&gen_of), 2);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.invalidations, 2);
        assert!(cache.lookup(1, &gen_of).is_some());
        // A second sweep finds nothing.
        assert_eq!(cache.sweep_stale(&gen_of), 0);
    }

    #[test]
    fn shrink_frees_at_least_requested_bytes() {
        let one = outputs("R", 4);
        let bytes: u64 = one.values().map(|d| d.encoded_size() as u64).sum();
        let cache = ResultCache::new(bytes * 10);
        for key in 0..4u64 {
            cache.insert(key, vec![("S".into(), 1)], Arc::new(outputs("R", 4)));
        }
        let freed = cache.shrink(bytes + 1);
        assert!(freed > bytes || freed == bytes * 2);
        assert!(cache.stats().entries <= 2);
        // Shrinking an empty cache is a no-op.
        cache.clear();
        assert_eq!(cache.shrink(1024), 0);
    }
}
