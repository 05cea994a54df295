//! The dataset repository: a directory of GDM-native datasets plus a
//! catalog.
//!
//! The paper's integration vision (§4.3) assumes repositories of curated
//! datasets "with both regions and metadata" addressable by name. A
//! [`Repository`] manages such a directory: datasets persist in the
//! GDM-native layout, and a JSON catalog keeps name → schema/statistics
//! so that queries can be compiled (and their result sizes estimated,
//! §4.4) without touching region files.

use crate::durable;
use crate::error::RepoError;
use crate::recovery::{self, RepoHealth, State};
use nggc_formats::native_v2::{self, Layout, Materialize, ScanOptions, StorageVersion};
use nggc_formats::FormatError;
use nggc_gdm::{Dataset, DatasetStats, Metadata, Schema};
use nggc_obs::{ByteLru, FlightOutcome, SingleFlight};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Datasets kept in the in-memory read cache (count backstop for the
/// byte-aware LRU eviction).
const CACHE_CAPACITY: usize = 8;

/// Encoded bytes the in-memory read cache may hold. The byte bound is
/// the primary eviction criterion — a handful of huge datasets must not
/// blow past any memory budget just because they fit the count cap.
const CACHE_BYTE_CAPACITY: u64 = 256 << 20;

/// One catalog entry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CatalogEntry {
    /// Dataset name.
    pub name: String,
    /// Region schema.
    pub schema: Schema,
    /// Cardinality statistics at save time.
    pub stats: DatasetStats,
    /// Monotonic per-dataset generation, bumped on every save (and thus
    /// migrate). The query result cache keys entry validity on it.
    pub generation: u64,
}

/// An on-disk dataset repository with a small in-memory read cache.
///
/// Datasets persist in the GDM-native layout: every save writes the v2
/// binary columnar container ([`nggc_formats::native_v2`]) at its one
/// header revision; loads read that container, or a legacy v1 text
/// directory where there is none. [`Repository::migrate`] rewrites a v1
/// dataset as v2 in place.
///
/// [`Repository::load`] keeps the last [`CACHE_CAPACITY`] used datasets
/// in memory behind [`Arc`]s (LRU eviction), so a cache hit is a
/// reference-count bump rather than a deep copy; `save` populates the
/// cache with the just-saved dataset and `delete` invalidates it. Cache
/// traffic, load/save latency, and load/save bytes are reported to the
/// global `nggc-obs` registry (`nggc_repo_*`).
#[derive(Debug)]
pub struct Repository {
    root: PathBuf,
    /// The catalog, and the next generation to assign on save: monotonic
    /// across reopen/delete/recreate, so a recreated dataset never reuses
    /// a generation a cached result might still reference. As read at
    /// open, then as this handle last wrote it.
    state: State,
    cache: Mutex<DatasetCache>,
    /// Cold full reads in progress, by name: concurrent misses for the
    /// same dataset wait on one leader's disk read instead of each
    /// reading and decoding the full dataset (cold-load stampede).
    inflight: SingleFlight<String, Arc<Dataset>>,
    /// What [`Repository::open`] found and cleaned up; surfaced by
    /// `nggc stats` and `nggc serve` as a one-line health summary.
    health: RepoHealth,
    /// This process's shared lock on the repository.
    _lock: Arc<fs::File>,
}

/// Open a dataset directory's v2 container for a pruned read.
fn open_container(dir: &Path) -> std::io::Result<fs::File> {
    #[cfg(test)]
    tests::CONTAINER_OPENS.with(|n| n.set(n.get() + 1));
    fs::File::open(dir.join(native_v2::CONTAINER_FILE))
}

/// The read cache's policy over the shared [`ByteLru`]: a byte bound
/// with an entry-count backstop, and the newest entry always stays.
#[derive(Debug)]
struct DatasetCache {
    lru: ByteLru<String, Arc<Dataset>>,
    max_entries: usize,
    max_bytes: u64,
}

impl Default for DatasetCache {
    fn default() -> DatasetCache {
        DatasetCache::bounded(CACHE_CAPACITY, CACHE_BYTE_CAPACITY)
    }
}

impl DatasetCache {
    fn bounded(max_entries: usize, max_bytes: u64) -> DatasetCache {
        DatasetCache { lru: ByteLru::default(), max_entries, max_bytes }
    }

    /// A cache that keeps nothing: every insert is dropped on the spot.
    fn none() -> DatasetCache {
        DatasetCache::bounded(0, 0)
    }

    fn get(&mut self, name: &str) -> Option<Arc<Dataset>> {
        self.lru.get(name).cloned()
    }

    /// Insert `dataset`, charged at `bytes` (the catalog's encoded-size
    /// estimate), then evict LRU entries while either bound — bytes
    /// first, entry count as a backstop — is exceeded. The newest entry
    /// always stays resident, even when it alone exceeds `max_bytes`:
    /// it is the one the caller is actively using, and evicting it
    /// would only force an immediate reload.
    fn insert(&mut self, name: String, dataset: Arc<Dataset>, bytes: u64) {
        if self.max_entries == 0 {
            return;
        }
        self.lru.insert(name, dataset, bytes);
        while self.lru.len() > 1
            && (self.lru.bytes() > self.max_bytes || self.lru.len() > self.max_entries)
        {
            self.lru.pop_lru();
            nggc_obs::global().counter("nggc_repo_cache_evictions_total").inc();
        }
    }

    fn invalidate(&mut self, name: &str) {
        self.lru.remove(name);
    }
}

/// Total bytes of all files under `dir` (recursive).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            total += dir_bytes(&path);
        } else if let Ok(meta) = entry.metadata() {
            total += meta.len();
        }
    }
    total
}

/// Asked once per stored sample, with the name and metadata in front of
/// its blocks: `false` leaves the sample out of a [`Repository::scan`].
pub type SampleAdmit<'a> = dyn Fn(&str, &Metadata) -> bool + 'a;

/// What a [`Repository::scan`] may leave out, and what it may cost. The
/// default asks for everything, unbounded.
#[derive(Default)]
pub struct ScanRequest<'a> {
    /// Chromosome blocks and value columns to decode.
    pub opts: ScanOptions,
    /// Which samples to read; `None` admits all.
    pub admit: Option<&'a SampleAdmit<'a>>,
    /// Which rows and cells a cold pruned read builds of the blocks it
    /// decodes. It shapes a read that `opts` or `admit` restricts anyway,
    /// and is ignored by every other: a request that restricts nothing
    /// else is a full read, and a resident dataset is served whole.
    pub build: Materialize,
    /// Bytes the caller can still afford — typically a query governor's
    /// remaining allowance; `None` = no limit.
    pub budget: Option<u64>,
}

impl ScanRequest<'_> {
    fn admits(&self, sample: &str, metadata: &Metadata) -> bool {
        self.admit.is_none_or(|admit| admit(sample, metadata))
    }
}

/// Outcome of a whole-repository migration sweep
/// ([`Repository::migrate_all`]): per-dataset results, partitioned the
/// way `load_directory`'s `LoadReport` partitions imports. One corrupt
/// dataset no longer aborts the sweep — it lands in `failed` and the
/// remaining datasets still migrate.
#[derive(Debug, Default)]
pub struct MigrationSweep {
    /// Datasets rewritten as v2, in name order.
    pub migrated: Vec<MigrationReport>,
    /// Datasets whose migration failed: `(name, error)`, in name order.
    pub failed: Vec<(String, RepoError)>,
}

impl MigrationSweep {
    /// Did every dataset migrate?
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }

    /// Total datasets visited by the sweep.
    pub fn total(&self) -> usize {
        self.migrated.len() + self.failed.len()
    }
}

/// Outcome of [`Repository::migrate`] for one dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// Dataset name.
    pub name: String,
    /// Storage version found on disk before migrating.
    pub from: StorageVersion,
    /// On-disk bytes before migration.
    pub bytes_before: u64,
    /// On-disk bytes after migration (v2 container size).
    pub bytes_after: u64,
}

impl Repository {
    /// Open (or initialise) a repository at `root`, recovering what a
    /// crash left first (docs/robustness.md, "Recovery");
    /// [`Repository::health`] says what was done. The repository is held
    /// under a shared lock until it is dropped.
    pub fn open(root: impl Into<PathBuf>) -> Result<Repository, RepoError> {
        let root = root.into();
        let (state, health, lock) = recovery::open(&root)?;
        Ok(Repository {
            root,
            state,
            cache: Mutex::new(DatasetCache::default()),
            inflight: SingleFlight::default(),
            health,
            _lock: lock,
        })
    }

    /// This repository without its in-memory dataset cache: nothing a
    /// save writes or a full read loads is kept, so a reader owns the only
    /// handle to what it loaded. For a process that reads each dataset
    /// once and exits, where a cached copy would only be paid for: an
    /// operator would copy survivors out of region buffers it shares with
    /// the cache instead of rewriting them in place.
    pub fn without_dataset_cache(mut self) -> Repository {
        self.cache = Mutex::new(DatasetCache::none());
        self
    }

    /// What [`Repository::open`] found and cleaned up.
    pub fn health(&self) -> &RepoHealth {
        &self.health
    }

    /// The repository root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Save (or replace) a dataset as one v2 container,
    /// `datasets/NAME/data.gdm2`, written by [`durable::atomic_write`];
    /// updates the catalog and, once the container is published,
    /// populates the cache with the saved copy, so a save-then-load round
    /// trip hits memory and a save that fails is never served.
    ///
    /// It writes in the repository's write turn, to the catalog as read in
    /// that turn, so no other process's save or delete is written over.
    /// The order of the writes keeps two rules:
    ///
    /// * A name already in the catalog gets its new generation and
    ///   catalog entry first and its container last. The old container
    ///   stays whole until the rename, so a crash in between leaves the
    ///   old data under a new generation: every result cached against
    ///   the old data is already invalid. The reverse order could leave
    ///   new data under the old generation, and a stale cached result
    ///   would revalidate against it.
    /// * A new name gets its container and the directory entry holding it
    ///   published first, so the catalog never names a missing container.
    ///   A container the catalog does not list is invisible until `fsck
    ///   --repair` indexes it under a fresh generation.
    ///
    /// A save over a v1 text directory removes the text files once the
    /// container is published.
    pub fn save(&mut self, dataset: &Dataset) -> Result<(), RepoError> {
        let format = StorageVersion::V2.name();
        let mut span = nggc_obs::span("repo.save");
        span.field("dataset", &dataset.name).field("format", format);
        let t0 = Instant::now();
        dataset.validate().map_err(RepoError::Model)?;
        let bytes = native_v2::encode_dataset_v2(dataset)?;
        span.field("bytes", bytes.len());
        let stats = dataset.stats();
        let dir = self.dataset_dir(&dataset.name);
        let container = dir.join(native_v2::CONTAINER_FILE);
        let (turn, mut state) = State::begin(&self.root)?;
        let replacing = state.datasets.contains_key(&dataset.name);
        if !replacing {
            durable::atomic_write(&container, &bytes)?;
            // The new directory's own entry in `datasets/`.
            durable::fsync_dir(&self.root.join("datasets"))?;
            durable::crashpoint("save.published");
        }
        let (name, schema, generation) =
            (dataset.name.clone(), dataset.schema.clone(), state.fresh());
        state.datasets.insert(name.clone(), CatalogEntry { name, schema, stats, generation });
        state.write(&self.root, &turn)?;
        durable::crashpoint("save.catalog");
        // The cached copy is stale now; the cache gets the new one once
        // the container holds it.
        self.adopt(state);
        if replacing {
            durable::atomic_write(&container, &bytes)?;
            durable::crashpoint("save.published");
        }
        let cache = self.cache.get_mut().unwrap_or_else(|p| p.into_inner());
        if cache.max_entries > 0 {
            cache.insert(dataset.name.clone(), Arc::new(dataset.clone()), stats.bytes as u64);
        }
        // The v1 text layout this container replaces, if any.
        fs::remove_file(dir.join("schema.gdm")).ok();
        fs::remove_dir_all(dir.join("files")).ok();
        let reg = nggc_obs::global();
        reg.counter("nggc_repo_saves_total").inc();
        reg.counter_with("nggc_repo_save_bytes_total", &[("format", format)])
            .add(bytes.len() as u64);
        reg.histogram("nggc_repo_save_ns").record_duration(t0.elapsed());
        Ok(())
    }

    /// Load a dataset by name: [`Repository::scan`] with nothing left out
    /// and nothing bounded.
    pub fn load(&self, name: &str) -> Result<Arc<Dataset>, RepoError> {
        self.scan(name, &ScanRequest::default())
    }

    /// Load what `req` asks for of a dataset — the one read path. What
    /// comes back is always a **superset** of the request — callers
    /// re-apply their own predicates.
    ///
    /// A request that restricts nothing, or a dataset stored as v1 text
    /// (no container to prune against), is read in full, from the
    /// in-memory cache when possible. A cache hit is an `Arc` clone — no
    /// region data is copied. Cold full reads take whichever layout the
    /// dataset directory holds ([`native_v2::read_dataset_auto`]) and
    /// are **single-flighted** per name: one caller reads disk while the
    /// others wait for (and share) its `Arc`. Coalesced waits are counted
    /// in `nggc_repo_load_coalesced_total`; exactly one
    /// `nggc_repo_loads_total` increment happens per actual disk read.
    ///
    /// A restricting request opens the v2 container once and reads the
    /// chromosome blocks and value columns of `req.opts` (skipped columns
    /// come back as typed nulls so the schema stays stable) of the samples
    /// `req.admit` lets in; refused samples are absent from what a cold
    /// read returns, and so are the rows and columns `req.build` leaves
    /// out. A dataset without a container is read in full.
    ///
    /// With `req.budget`, the size of what the read would materialise is
    /// checked first, before any block is read (and on cache hits too, so
    /// that a bounded query behaves the same warm or cold): an oversized
    /// dataset is refused without allocating. The catalog estimate
    /// ([`DatasetStats::bytes`], recorded at save time) describes the
    /// *whole* dataset; when that does not fit a pruned read, the
    /// container's index is walked (no block is read) and the estimate is
    /// scaled by the share of block bytes the request selects — admitted
    /// samples × wanted chromosomes. So a query for one chromosome or two
    /// samples is not refused for data it would never load.
    ///
    /// Cache discipline — a pruned read must never poison a full-load
    /// hit, so the two kinds of read are deliberately asymmetric:
    ///
    /// * a cached **full** dataset is served as a superset (SELECT slices
    ///   it by sort order and filters its samples itself) — and it is
    ///   looked for first, so that a resident dataset is answered without
    ///   touching its files, and charged at its full size — but
    /// * a cold pruned read is **never inserted** into the cache and
    ///   does not join the single-flight — partial data under the plain
    ///   dataset name would be served to later full loads.
    pub fn scan(&self, name: &str, req: &ScanRequest<'_>) -> Result<Arc<Dataset>, RepoError> {
        let entry =
            self.state.datasets.get(name).ok_or_else(|| RepoError::NotFound(name.to_owned()))?;
        let cached = || self.cache.lock().unwrap_or_else(|p| p.into_inner()).get(name);
        let restricts = req.opts != ScanOptions::default() || req.admit.is_some();
        let resident = if restricts { cached() } else { None };
        // The container a cold restricting read prunes; none for a v1
        // text dataset, which is read in full.
        let container = if restricts && resident.is_none() {
            match open_container(&self.dataset_dir(name)) {
                Ok(file) => Some(file),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(FormatError::from(e).into()),
            }
        } else {
            None
        };
        if let Some(budget) = req.budget {
            let mut estimated = entry.stats.bytes as u64;
            if let Some(file) = container.as_ref().filter(|_| estimated > budget) {
                // The index of the container this read has open: a
                // `save` in between cannot swap in another generation's.
                let index = native_v2::read_index_from(file)?;
                let (wanted, total) = index.block_bytes(&req.opts, |s, m| req.admits(s, m));
                if total > 0 {
                    estimated =
                        (u128::from(estimated) * u128::from(wanted)).div_ceil(total.into()) as u64;
                }
            }
            if estimated > budget {
                nggc_obs::global().counter("nggc_repo_load_rejections_total").inc();
                return Err(RepoError::Budget { name: name.to_owned(), estimated, budget });
            }
        }
        let reg = nggc_obs::global();
        // A coalesced wait shares another caller's read: neither a hit
        // nor a miss, in the registry and in the caller's read account.
        let answered = |outcome: &str, hit: bool| {
            if hit {
                reg.counter("nggc_repo_cache_hits_total").inc();
                nggc_obs::record_read(|a| a.cache_hits += 1);
            } else {
                reg.counter("nggc_repo_load_coalesced_total").inc();
            }
            let mut span = nggc_obs::span("repo.cache");
            span.field("dataset", name).field("outcome", outcome);
        };
        if let Some(cached) = resident {
            // A full dataset is a superset of every pruned view of it.
            answered("hit_superset", true);
            return Ok(cached);
        }
        if let Some(container) = container {
            return self.read(name, Some((req, container)));
        }
        let (dataset, how) = self.inflight.run(name, cached, || {
            let dataset = self.read(name, None)?;
            // Charge the cache at the catalog's encoded-size estimate
            // (recorded at save time) so eviction is byte-aware without
            // an extra full walk of the regions just loaded.
            self.cache.lock().unwrap_or_else(|p| p.into_inner()).insert(
                name.to_owned(),
                dataset.clone(),
                entry.stats.bytes as u64,
            );
            Ok::<_, RepoError>(dataset)
        })?;
        match how {
            FlightOutcome::Hit => answered(how.name(), true),
            FlightOutcome::Coalesced => answered(how.name(), false),
            FlightOutcome::Miss => {}
        }
        Ok(dataset)
    }

    /// One actual disk read and decode, with its metrics, span and entry
    /// in the reading thread's account: of the whole dataset, or of what
    /// `pruned` selects from its opened v2 container. A full read goes
    /// into the dataset cache, when there is one, and so builds its rows
    /// in its decode jobs ([`Layout::Rows`]); every other read hands its
    /// batches on.
    fn read(
        &self,
        name: &str,
        pruned: Option<(&ScanRequest<'_>, fs::File)>,
    ) -> Result<Arc<Dataset>, RepoError> {
        let reg = nggc_obs::global();
        reg.counter("nggc_repo_cache_misses_total").inc();
        nggc_obs::record_read(|a| a.cache_misses += 1);
        let mut span =
            nggc_obs::span(if pruned.is_some() { "repo.load_pruned" } else { "repo.load" });
        span.field("dataset", name);
        let t0 = Instant::now();
        let dataset = match pruned {
            Some((req, container)) => {
                let (dataset, stats) = native_v2::materialize_dataset_v2_from(
                    container,
                    &req.opts,
                    &req.build,
                    |s: &str, m: &Metadata| req.admits(s, m),
                )?;
                nggc_obs::record_read(|a| {
                    a.scan_pruned += 1;
                    a.scan_bytes_read += stats.bytes_read;
                    a.scan_bytes_skipped += stats.bytes_skipped;
                    a.scan_blocks_read += stats.blocks_read;
                    a.scan_blocks_skipped += stats.blocks_skipped;
                });
                reg.counter("nggc_scan_pruned_total").inc();
                reg.counter("nggc_scan_bytes_read_total").add(stats.bytes_read);
                reg.counter("nggc_scan_bytes_skipped_total").add(stats.bytes_skipped);
                reg.counter("nggc_scan_chrom_blocks_read_total").add(stats.blocks_read);
                reg.counter("nggc_scan_chrom_blocks_skipped_total").add(stats.blocks_skipped);
                if req.admit.is_some() {
                    reg.counter("nggc_scan_samples_skipped_total").add(stats.samples_skipped);
                }
                // Registered by the first read that has something to count.
                for (counter, n) in [
                    ("nggc_scan_rows_skipped_total", stats.rows_skipped),
                    ("nggc_scan_cells_decoded_total", stats.cells_decoded),
                ] {
                    if n > 0 {
                        reg.counter(counter).add(n);
                    }
                }
                span.field("blocks_read", stats.blocks_read)
                    .field("blocks_skipped", stats.blocks_skipped)
                    .field("bytes_read", stats.bytes_read)
                    .field("bytes_skipped", stats.bytes_skipped)
                    .field("samples_read", stats.samples_read)
                    .field("samples_skipped", stats.samples_skipped)
                    .field("rows_skipped", stats.rows_skipped)
                    .field("cells", stats.cells);
                dataset
            }
            None => {
                let cached = self.cache.lock().unwrap_or_else(|p| p.into_inner()).max_entries > 0;
                let layout = if cached { Layout::Rows } else { Layout::Batches };
                let (dataset, version, bytes) =
                    native_v2::read_dataset_auto(&self.dataset_dir(name), layout)?;
                reg.counter_with("nggc_repo_load_bytes_total", &[("format", version.name())])
                    .add(bytes);
                span.field("format", version.name());
                dataset
            }
        };
        reg.counter("nggc_repo_loads_total").inc();
        span.field("samples", dataset.sample_count()).field("regions", dataset.region_count());
        reg.histogram("nggc_repo_load_ns").record_duration(t0.elapsed());
        Ok(Arc::new(dataset))
    }

    /// The storage version a dataset currently uses on disk, or `None`
    /// when the dataset is unknown or its directory is unreadable.
    pub fn storage_version(&self, name: &str) -> Option<StorageVersion> {
        if !self.state.datasets.contains_key(name) {
            return None;
        }
        native_v2::detect_version(&self.dataset_dir(name))
    }

    /// Rewrite one dataset in the v2 binary format (idempotent: already-
    /// v2 datasets are recompacted). Returns what was found and the
    /// before/after on-disk sizes.
    pub fn migrate(&mut self, name: &str) -> Result<MigrationReport, RepoError> {
        if !self.state.datasets.contains_key(name) {
            return Err(RepoError::NotFound(name.to_owned()));
        }
        let dir = self.dataset_dir(name);
        let from = native_v2::detect_version(&dir).unwrap_or(StorageVersion::V1);
        let bytes_before = dir_bytes(&dir);
        let dataset = self.load(name)?;
        self.save(&dataset)?;
        let bytes_after = dir_bytes(&self.dataset_dir(name));
        nggc_obs::global().counter("nggc_repo_migrations_total").inc();
        Ok(MigrationReport { name: name.to_owned(), from, bytes_before, bytes_after })
    }

    /// Migrate every dataset in the repository to v2, visiting each one
    /// even when some fail: a corrupt directory lands in
    /// [`MigrationSweep::failed`] instead of aborting the sweep with the
    /// remaining datasets unrecorded.
    pub fn migrate_all(&mut self) -> MigrationSweep {
        let names: Vec<String> = self.state.datasets.keys().cloned().collect();
        let mut sweep = MigrationSweep::default();
        for name in names {
            match self.migrate(&name) {
                Ok(report) => sweep.migrated.push(report),
                Err(e) => sweep.failed.push((name, e)),
            }
        }
        sweep
    }

    /// Delete a dataset.
    ///
    /// The catalog is persisted *before* the dataset directory is
    /// touched: a crash between the two leaves at worst an orphaned
    /// directory for `fsck` to deal with, never a catalog entry whose
    /// generation could revalidate a stale cached result against data
    /// that is gone. The directory itself is renamed into `.trash` before
    /// removal so a crash can never expose a half-deleted container as
    /// live data.
    pub fn delete(&mut self, name: &str) -> Result<(), RepoError> {
        let (turn, mut state) = State::begin(&self.root)?;
        if state.datasets.remove(name).is_none() {
            return Err(RepoError::NotFound(name.to_owned()));
        }
        state.write(&self.root, &turn)?;
        durable::crashpoint("delete.cataloged");
        self.adopt(state);
        let dir = self.dataset_dir(name);
        if dir.exists() {
            let trashed = durable::move_to_trash(&dir, &self.root.join(".trash"))?;
            durable::crashpoint("delete.trashed");
            fs::remove_dir_all(&trashed).ok();
        }
        Ok(())
    }

    /// List catalog entries in name order.
    pub fn list(&self) -> Vec<&CatalogEntry> {
        self.state.datasets.values().collect()
    }

    /// Catalog entry of one dataset.
    pub fn entry(&self, name: &str) -> Option<&CatalogEntry> {
        self.state.datasets.get(name)
    }

    /// Schema of a dataset (for GMQL compilation) without loading regions.
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        self.state.datasets.get(name).map(|e| e.schema.clone())
    }

    /// Dataset existence check.
    pub fn contains(&self, name: &str) -> bool {
        self.state.datasets.contains_key(name)
    }

    /// Current generation of a dataset, or `None` when it does not
    /// exist. Every save (and thus migrate) bumps the generation;
    /// deleting removes it; a recreated dataset gets a strictly higher
    /// one. The query result cache validates entries against this.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.state.datasets.get(name).map(|e| e.generation)
    }

    /// Take `state`, as just written, for this handle's own, and drop
    /// every cached dataset whose generation moved or that went away.
    fn adopt(&mut self, state: State) {
        let cache = self.cache.get_mut().unwrap_or_else(|p| p.into_inner());
        for (name, entry) in &self.state.datasets {
            if state.datasets.get(name).map(|e| e.generation) != Some(entry.generation) {
                cache.invalidate(name);
            }
        }
        self.state = state;
    }

    /// Build (or rebuild) the persistent metadata index over every
    /// dataset in the repository, writing it to `meta_index.json` with the
    /// generation of each dataset it read. The index powers search without
    /// loading any region data afterwards.
    pub fn build_meta_index(&self) -> Result<crate::MetaIndex, RepoError> {
        let mut index = crate::MetaIndex::new();
        for name in self.state.datasets.keys() {
            let ds = self.load(name)?;
            index.add_dataset(&ds);
        }
        let text = serde_json::to_string(&(self.generations(), &index))?;
        durable::atomic_write(&self.root.join("meta_index.json"), text.as_bytes())?;
        Ok(index)
    }

    /// The persisted metadata index when it was built from the datasets
    /// this catalog lists, at their generations; else a rebuilt one.
    pub fn meta_index(&self) -> Result<crate::MetaIndex, RepoError> {
        let text = fs::read_to_string(self.root.join("meta_index.json")).unwrap_or_default();
        match serde_json::from_str::<(BTreeMap<String, u64>, crate::MetaIndex)>(&text) {
            Ok((generations, index)) if generations == self.generations() => Ok(index),
            _ => self.build_meta_index(),
        }
    }

    /// Dataset name → generation, over the catalog.
    fn generations(&self) -> BTreeMap<String, u64> {
        self.state.datasets.iter().map(|(name, e)| (name.clone(), e.generation)).collect()
    }

    fn dataset_dir(&self, name: &str) -> PathBuf {
        self.root.join("datasets").join(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Metadata, Sample, Strand, ValueType};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Containers [`open_container`] opened on this thread.
        pub(super) static CONTAINER_OPENS: Cell<usize> = const { Cell::new(0) };
    }

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nggc_repo_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn dataset(name: &str) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new(name, schema);
        ds.add_sample(
            Sample::new("s1", name)
                .with_regions(vec![
                    GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![0.5.into()])
                ])
                .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
        )
        .unwrap();
        ds
    }

    /// `dataset` saved, then its container swapped for the v1 text
    /// layout older releases wrote.
    fn save_v1(repo: &mut Repository, dataset: &Dataset) {
        repo.save(dataset).unwrap();
        let dir = repo.dataset_dir(&dataset.name);
        fs::remove_file(dir.join(native_v2::CONTAINER_FILE)).unwrap();
        nggc_formats::native::write_dataset(dataset, &dir).unwrap();
    }

    /// File names directly under `dir`, sorted.
    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_load_roundtrip() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("PEAKS")).unwrap();
        let back = repo.load("PEAKS").unwrap();
        assert_eq!(back.sample_count(), 1);
        assert!(back.samples[0].metadata.has("cell", "HeLa"));
        fs::remove_dir_all(&root).ok();
    }

    fn two_chrom_dataset(name: &str) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new(name, schema);
        ds.add_sample(
            Sample::new("s1", name)
                .with_regions(vec![
                    GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![0.5.into()]),
                    GRegion::new("chr2", 5, 25, Strand::Neg).with_values(vec![0.9.into()]),
                ])
                .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
        )
        .unwrap();
        ds
    }

    fn chr2_only() -> ScanRequest<'static> {
        let chroms = Some(std::iter::once("chr2".to_string()).collect());
        ScanRequest { opts: ScanOptions { chroms, columns: None }, ..ScanRequest::default() }
    }

    #[test]
    fn pruned_load_restricts_chromosomes() {
        let root = tmp();
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&two_chrom_dataset("DS")).unwrap();
        }
        // Reopen: `save` seeds the cache, and a warm cache would serve
        // the full dataset as a superset.
        let repo = Repository::open(&root).unwrap();
        let pruned = repo.scan("DS", &chr2_only()).unwrap();
        assert_eq!(pruned.region_count(), 1);
        assert_eq!(pruned.samples[0].regions[0].chrom.as_str(), "chr2");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pruned_load_never_poisons_full_cache() {
        let root = tmp();
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&two_chrom_dataset("DS")).unwrap();
        }
        let repo = Repository::open(&root).unwrap();
        // Cold pruned load first: must not seed the cache with a
        // partial dataset under the plain name.
        let pruned = repo.scan("DS", &chr2_only()).unwrap();
        assert_eq!(pruned.region_count(), 1);
        let full = repo.load("DS").unwrap();
        assert_eq!(full.region_count(), 2, "full load after pruned load must see every region");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pruned_load_serves_cached_full_dataset_as_superset() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&two_chrom_dataset("DS")).unwrap();
        let full = repo.load("DS").unwrap();
        let served = repo.scan("DS", &chr2_only()).unwrap();
        assert!(Arc::ptr_eq(&full, &served), "warm pruned load shares the cached full Arc");
        // No file is touched on the way: with the dataset's directory
        // gone (so that the storage version cannot even be detected) the
        // resident copy still answers, bounded or not.
        fs::remove_dir_all(repo.dataset_dir("DS")).unwrap();
        let served = repo.scan("DS", &chr2_only()).unwrap();
        assert!(Arc::ptr_eq(&full, &served));
        let served =
            repo.scan("DS", &ScanRequest { budget: Some(u64::MAX), ..chr2_only() }).unwrap();
        assert!(Arc::ptr_eq(&full, &served));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scan_leaves_out_refused_samples_and_never_caches_them() {
        let root = tmp();
        let mut ds = two_chrom_dataset("DS");
        ds.add_sample(
            Sample::new("s2", "DS")
                .with_regions(vec![
                    GRegion::new("chr1", 3, 9, Strand::Pos).with_values(vec![0.1.into()])
                ])
                .with_metadata(Metadata::from_pairs([("cell", "K562")])),
        )
        .unwrap();
        Repository::open(&root).unwrap().save(&ds).unwrap();
        let repo = Repository::open(&root).unwrap();
        let k562 = |_: &str, m: &Metadata| m.has("cell", "K562");
        let req = ScanRequest { admit: Some(&k562), ..ScanRequest::default() };
        let cold = repo.scan("DS", &req).unwrap();
        assert_eq!(cold.sample_count(), 1);
        assert_eq!(cold.samples[0].name, "s2");
        assert_eq!(cold.region_count(), 1);
        // Not cached: the full load sees both samples, and once it is
        // resident the same request is served the superset.
        let full = repo.load("DS").unwrap();
        assert_eq!(full.sample_count(), 2);
        assert!(Arc::ptr_eq(&full, &repo.scan("DS", &req).unwrap()));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_pruned_scan_builds_only_its_window_and_width() {
        let root = tmp();
        Repository::open(&root).unwrap().save(&two_chrom_dataset("DS")).unwrap();
        let repo = Repository::open(&root).unwrap();
        let build = Materialize { lo: Some(1), hi: None, width: Some(BTreeSet::new()) };
        // Nothing else restricted: a full read, at full width.
        let windowed = ScanRequest { build: build.clone(), ..ScanRequest::default() };
        let full = repo.scan("DS", &windowed).unwrap();
        assert_eq!((full.region_count(), full.schema.len()), (2, 1));
        let repo = Repository::open(&root).unwrap();
        let pruned = repo.scan("DS", &ScanRequest { build, ..chr2_only() }).unwrap();
        assert_eq!((pruned.region_count(), pruned.schema.len()), (1, 0));
        // chr2's one region starts at 5: a window past it builds nothing.
        let past = Materialize { lo: Some(6), ..Materialize::default() };
        let empty = repo.scan("DS", &ScanRequest { build: past, ..chr2_only() }).unwrap();
        assert_eq!((empty.sample_count(), empty.region_count()), (1, 0));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn without_a_dataset_cache_a_reader_owns_what_it_loads() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap().without_dataset_cache();
        repo.save(&two_chrom_dataset("DS")).unwrap();
        for _ in 0..2 {
            let mut full = repo.load("DS").unwrap();
            assert_eq!(full.region_count(), 2);
            assert!(Arc::get_mut(&mut full).is_some(), "no copy stays behind");
        }
        assert!(repo.cache.lock().unwrap().lru.is_empty());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pruned_load_falls_back_to_full_for_v1_datasets() {
        let root = tmp();
        save_v1(&mut Repository::open(&root).unwrap(), &two_chrom_dataset("OLD"));
        let repo = Repository::open(&root).unwrap();
        let ds = repo.scan("OLD", &chr2_only()).unwrap();
        assert_eq!(ds.region_count(), 2, "v1 has no block index; falls back to full load");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn catalog_persists_across_open() {
        let root = tmp();
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("A")).unwrap();
            repo.save(&dataset("B")).unwrap();
        }
        let repo = Repository::open(&root).unwrap();
        let names: Vec<&str> = repo.list().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]);
        assert!(repo.schema_of("A").unwrap().get("p").is_some());
        assert_eq!(repo.entry("A").unwrap().stats.regions, 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn delete_removes_everything() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("X")).unwrap();
        repo.delete("X").unwrap();
        assert!(!repo.contains("X"));
        assert!(matches!(repo.load("X"), Err(RepoError::NotFound(_))));
        assert!(matches!(repo.delete("X"), Err(RepoError::NotFound(_))));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn meta_index_builds_and_persists() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("A")).unwrap();
        let idx = repo.build_meta_index().unwrap();
        assert_eq!(idx.lookup("cell", "HeLa").len(), 1);
        assert!(root.join("meta_index.json").exists());
        // Loading uses the persisted file.
        let idx2 = repo.meta_index().unwrap();
        assert_eq!(idx2.documents(), 1);
        // A corrupt file falls back to a rebuild.
        fs::write(root.join("meta_index.json"), "garbage").unwrap();
        let idx3 = repo.meta_index().unwrap();
        assert_eq!(idx3.documents(), 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_meta_index_built_from_an_older_catalog_is_not_served_to_a_newer_one() {
        let root = tmp();
        Repository::open(&root).unwrap().save(&dataset("OLD")).unwrap();
        let first = Repository::open(&root).unwrap();
        Repository::open(&root).unwrap().save(&dataset("NEW")).unwrap();
        // Built from the catalog `first` read at open, which lacks NEW.
        assert_eq!(first.meta_index().unwrap().documents(), 1);
        let index = Repository::open(&root).unwrap().meta_index().unwrap();
        let datasets: Vec<&str> =
            index.lookup("cell", "HeLa").iter().map(|s| s.dataset.as_str()).collect();
        assert_eq!(datasets, ["NEW", "OLD"]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_write_takes_the_catalog_as_other_handles_left_it() {
        let root = tmp();
        let mut first = Repository::open(&root).unwrap();
        first.save(&dataset("DS")).unwrap();
        let mut second = Repository::open(&root).unwrap();
        second.save(&two_chrom_dataset("DS")).unwrap();
        second.save(&dataset("NEW")).unwrap();
        // `first` serves the catalog it read, and DS from its cache…
        assert_eq!(first.load("DS").unwrap().region_count(), 1);
        assert!(!first.contains("NEW"));
        // …until a write of its own: it keeps what `second` wrote, and
        // no longer serves the copy whose generation moved.
        first.save(&dataset("OTHER")).unwrap();
        assert_eq!(first.generation("DS"), second.generation("DS"));
        assert_eq!(first.load("DS").unwrap().region_count(), 2);
        let names: Vec<&str> = first.list().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["DS", "NEW", "OTHER"]);
        first.delete("NEW").unwrap();
        assert_eq!(Repository::open(&root).unwrap().list().len(), 2);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cache_hits_and_invalidation() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("C")).unwrap();
        let reg = nggc_obs::global();
        let hits0 = reg.counter("nggc_repo_cache_hits_total").get();
        let first = repo.load("C").unwrap();
        let second = repo.load("C").unwrap();
        assert_eq!(first.sample_count(), second.sample_count());
        assert_eq!(first.region_count(), second.region_count());
        assert!(
            reg.counter("nggc_repo_cache_hits_total").get() > hits0,
            "second load should hit the cache"
        );
        // Saving a new version must invalidate the cached copy.
        let mut v2 = dataset("C");
        v2.add_sample(Sample::new("s2", "C").with_regions(vec![
            GRegion::new("chr3", 1, 4, Strand::Pos).with_values(vec![0.9.into()]),
        ]))
        .unwrap();
        repo.save(&v2).unwrap();
        assert_eq!(repo.load("C").unwrap().sample_count(), 2);
        // Deleting drops both catalog entry and cache.
        repo.delete("C").unwrap();
        assert!(matches!(repo.load("C"), Err(RepoError::NotFound(_))));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn save_writes_v2_container_by_default() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("BIN")).unwrap();
        assert_eq!(repo.storage_version("BIN"), Some(StorageVersion::V2));
        assert!(root.join("datasets/BIN/data.gdm2").exists());
        assert!(!root.join("datasets/BIN/schema.gdm").exists());
        // A replace leaves the one file too: nothing staged, nothing
        // trashed.
        repo.save(&two_chrom_dataset("BIN")).unwrap();
        assert_eq!(names_in(&root.join("datasets")), ["BIN"]);
        assert_eq!(names_in(&root.join("datasets/BIN")), ["data.gdm2"]);
        assert!(!root.join(".trash").exists());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_sweeps_unpublished_containers_and_older_staging_trees() {
        let root = tmp();
        Repository::open(&root).unwrap().save(&dataset("DS")).unwrap();
        // A replace of DS and a first save of NEW, both cut before their
        // rename, and a staging tree an older release left.
        let datasets = root.join("datasets");
        fs::write(datasets.join("DS/.tmp-1-data.gdm2"), b"half").unwrap();
        fs::create_dir_all(datasets.join("NEW")).unwrap();
        fs::write(datasets.join("NEW/.tmp-1-data.gdm2"), b"half").unwrap();
        fs::create_dir_all(datasets.join(".stage-1-DS")).unwrap();
        let repo = Repository::open(&root).unwrap();
        assert_eq!(repo.health().swept, 4, "{:?}", repo.health());
        assert_eq!(names_in(&datasets), ["DS"]);
        assert_eq!(names_in(&datasets.join("DS")), ["data.gdm2"]);
        assert_eq!(repo.load("DS").unwrap().region_count(), 1);
        assert_eq!(Repository::open(&root).unwrap().health().swept, 0);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn v1_datasets_load_transparently_and_migrate() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        save_v1(&mut repo, &dataset("OLD"));
        assert_eq!(repo.storage_version("OLD"), Some(StorageVersion::V1));
        assert!(root.join("datasets/OLD/schema.gdm").exists());

        // Reopen so the cache is cold: the load must go through the v1
        // text reader.
        let mut repo = Repository::open(&root).unwrap();
        let ds = repo.load("OLD").unwrap();
        assert_eq!(ds.sample_count(), 1);
        assert!(ds.samples[0].metadata.has("cell", "HeLa"));

        let report = repo.migrate("OLD").unwrap();
        assert_eq!(report.from, StorageVersion::V1);
        assert!(report.bytes_before > 0 && report.bytes_after > 0);
        assert_eq!(repo.storage_version("OLD"), Some(StorageVersion::V2));
        assert_eq!(names_in(&root.join("datasets/OLD")), ["data.gdm2"], "no v1 file is left");
        // Reload from disk (fresh repo, cold cache) — same content.
        let repo = Repository::open(&root).unwrap();
        let back = repo.load("OLD").unwrap();
        assert_eq!(back.sample_count(), 1);
        assert_eq!(back.samples[0].regions, ds.samples[0].regions);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn migrate_all_reports_every_dataset() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        save_v1(&mut repo, &dataset("A"));
        repo.save(&dataset("B")).unwrap();
        let sweep = repo.migrate_all();
        assert!(sweep.is_clean());
        assert_eq!(sweep.total(), 2);
        assert_eq!(sweep.migrated[0].from, StorageVersion::V1);
        assert_eq!(sweep.migrated[1].from, StorageVersion::V2);
        assert!(repo
            .list()
            .iter()
            .all(|e| repo.storage_version(&e.name) == Some(StorageVersion::V2)));
        assert!(matches!(repo.migrate("MISSING"), Err(RepoError::NotFound(_))));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn migrate_all_keeps_going_past_a_corrupt_dataset() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        for name in ["A", "BAD", "C"] {
            save_v1(&mut repo, &dataset(name));
        }
        // Corrupt BAD's on-disk layout so its load fails mid-sweep, and
        // reopen so the sweep cannot be rescued by the warm save cache.
        fs::write(root.join("datasets/BAD/schema.gdm"), "not a schema\x00\x01").unwrap();
        let mut repo = Repository::open(&root).unwrap();
        let sweep = repo.migrate_all();
        assert!(!sweep.is_clean());
        assert_eq!(sweep.total(), 3);
        let migrated: Vec<&str> = sweep.migrated.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(migrated, vec!["A", "C"], "the sweep must not stop at BAD");
        assert_eq!(sweep.failed.len(), 1);
        assert_eq!(sweep.failed[0].0, "BAD");
        // The survivors really are v2 on disk now.
        assert_eq!(repo.storage_version("A"), Some(StorageVersion::V2));
        assert_eq!(repo.storage_version("C"), Some(StorageVersion::V2));
        assert_eq!(repo.storage_version("BAD"), Some(StorageVersion::V1));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_cold_loads_single_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let root = tmp();
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("STAMPEDE")).unwrap();
        }
        // Fresh open: the cache is cold, so every thread below races
        // through the miss path together.
        let repo = Arc::new(Repository::open(&root).unwrap());
        let reg = nggc_obs::global();
        let loads0 = reg.counter("nggc_repo_loads_total").get();
        let coalesced0 = reg.counter("nggc_repo_load_coalesced_total").get();
        const N: usize = 16;
        let barrier = Arc::new(Barrier::new(N));
        let errors = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let repo = Arc::clone(&repo);
                let barrier = Arc::clone(&barrier);
                let errors = Arc::clone(&errors);
                std::thread::spawn(move || {
                    barrier.wait();
                    match repo.load("STAMPEDE") {
                        Ok(ds) => ds,
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            panic!("load failed");
                        }
                    }
                })
            })
            .collect();
        let datasets: Vec<Arc<Dataset>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(errors.load(Ordering::Relaxed), 0);
        // Every thread shares one allocation: no duplicate decode.
        assert!(
            datasets.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "stampeding loads must share the leader's Arc"
        );
        assert_eq!(
            reg.counter("nggc_repo_loads_total").get() - loads0,
            1,
            "exactly one disk load for {N} concurrent cold misses"
        );
        let coalesced = reg.counter("nggc_repo_load_coalesced_total").get() - coalesced0;
        let hits_after: u64 = N as u64 - 1;
        assert!(
            coalesced <= hits_after,
            "coalesced ({coalesced}) cannot exceed the {hits_after} non-leader loads"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_single_flight_load_does_not_wedge_followers() {
        let root = tmp();
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("GONE")).unwrap();
        }
        let repo = Arc::new(Repository::open(&root).unwrap());
        // Remove the data files (catalog entry survives) so every load
        // takes the error path; followers must all observe an error
        // rather than blocking on a flight that never completes.
        fs::remove_dir_all(root.join("datasets/GONE")).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let repo = Arc::clone(&repo);
                std::thread::spawn(move || repo.load("GONE").is_err())
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "every load of the missing dataset errors");
        }
        assert!(repo.inflight.is_idle(), "failed flights must not leak in-flight entries");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn save_populates_cache_so_next_load_hits() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        let reg = nggc_obs::global();
        let misses0 = reg.counter("nggc_repo_cache_misses_total").get();
        let hits0 = reg.counter("nggc_repo_cache_hits_total").get();
        repo.save(&dataset("WARM")).unwrap();
        let ds = repo.load("WARM").unwrap();
        assert_eq!(ds.sample_count(), 1);
        assert_eq!(
            reg.counter("nggc_repo_cache_misses_total").get(),
            misses0,
            "save-then-load must not miss"
        );
        assert!(reg.counter("nggc_repo_cache_hits_total").get() > hits0);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_save_whose_container_write_fails_is_never_served() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("A")).unwrap();
        // A non-empty directory where the container was: the rename that
        // publishes the next container fails, whoever runs it.
        let container = repo.dataset_dir("A").join(native_v2::CONTAINER_FILE);
        fs::remove_file(&container).unwrap();
        fs::create_dir_all(container.join("in_the_way")).unwrap();
        let unsaved = two_chrom_dataset("A");
        assert!(repo.save(&unsaved).is_err());
        if let Ok(served) = repo.load("A") {
            assert_ne!(served.region_count(), unsaved.region_count(), "the unsaved copy is served");
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cache_hit_shares_the_same_allocation() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("SHARED")).unwrap();
        let a = repo.load("SHARED").unwrap();
        let b = repo.load("SHARED").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache hits must be pointer bumps, not deep copies");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut cache = DatasetCache::default();
        let mk = |n: &str| Arc::new(dataset(n));
        for i in 0..CACHE_CAPACITY {
            cache.insert(format!("D{i}"), mk(&format!("D{i}")), 100);
        }
        // Touch the oldest entry, then overflow: the second-oldest must
        // be the one evicted.
        assert!(cache.get("D0").is_some());
        cache.insert("EXTRA".into(), mk("EXTRA"), 100);
        assert!(cache.get("D0").is_some(), "recently used survives");
        assert!(cache.get("D1").is_none(), "least recently used is evicted");
        assert!(cache.get("EXTRA").is_some());
        assert_eq!(cache.lru.len(), CACHE_CAPACITY);
        assert_eq!(cache.lru.bytes(), 100 * CACHE_CAPACITY as u64);
    }

    #[test]
    fn eviction_is_byte_aware_with_count_backstop() {
        // Byte budget for two small datasets; count cap far away. Three
        // entries of 400 bytes each must not all stay resident.
        let mut cache = DatasetCache::bounded(CACHE_CAPACITY, 1000);
        let mk = |n: &str| Arc::new(dataset(n));
        cache.insert("A".into(), mk("A"), 400);
        cache.insert("B".into(), mk("B"), 400);
        cache.insert("C".into(), mk("C"), 400);
        assert!(cache.get("A").is_none(), "byte pressure evicts the LRU entry");
        assert!(cache.get("B").is_some());
        assert!(cache.get("C").is_some());
        assert_eq!(cache.lru.bytes(), 800);
        // Replacing an entry re-charges it instead of double counting.
        cache.insert("C".into(), mk("C"), 500);
        assert_eq!(cache.lru.bytes(), 900);
        // A single dataset larger than the whole budget stays resident
        // alone (evicting it would just force an immediate reload)…
        cache.insert("HUGE".into(), mk("HUGE"), 5000);
        assert!(cache.get("HUGE").is_some());
        assert_eq!(cache.lru.len(), 1, "everything else is evicted");
        assert_eq!(cache.lru.bytes(), 5000);
        // …and is the first to go once anything newer arrives.
        cache.insert("D".into(), mk("D"), 100);
        assert!(cache.get("HUGE").is_none());
        assert!(cache.get("D").is_some());
        assert_eq!(cache.lru.bytes(), 100);
    }

    #[test]
    fn generations_bump_on_save_and_vanish_on_delete() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        assert_eq!(repo.generation("G"), None);
        repo.save(&dataset("G")).unwrap();
        let g1 = repo.generation("G").unwrap();
        assert!(g1 >= 1);
        repo.save(&dataset("G")).unwrap();
        let g2 = repo.generation("G").unwrap();
        assert!(g2 > g1, "every save bumps the generation");
        // Migrate goes through save and bumps too.
        repo.migrate("G").unwrap();
        assert!(repo.generation("G").unwrap() > g2);
        repo.delete("G").unwrap();
        assert_eq!(repo.generation("G"), None);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn generations_survive_reopen_and_never_reuse_after_recreate() {
        let root = tmp();
        let last = {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("R")).unwrap();
            repo.save(&dataset("R")).unwrap();
            let g = repo.generation("R").unwrap();
            repo.delete("R").unwrap();
            g
        };
        // Reopen after the delete: the catalog holds no generations at
        // all, but the persisted high-water mark must still advance a
        // recreated dataset past every generation ever handed out.
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("R")).unwrap();
        assert!(
            repo.generation("R").unwrap() > last,
            "recreated dataset must not reuse generation {last}"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_budgeted_pruned_scan_sizes_itself_from_the_container_it_opened() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&two_chrom_dataset("DS")).unwrap();
        let repo = repo.without_dataset_cache();
        let whole = repo.entry("DS").unwrap().stats.bytes as u64;
        // Below the whole dataset's estimate, so the index is walked; at
        // or above the one chromosome's share, so the read goes ahead.
        let req = ScanRequest { budget: Some(whole - 1), ..chr2_only() };
        CONTAINER_OPENS.with(|n| n.set(0));
        let ds = repo.scan("DS", &req).unwrap();
        assert_eq!(ds.region_count(), 1);
        assert_eq!(CONTAINER_OPENS.with(|n| n.get()), 1, "one open serves index and blocks");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bounded_load_rejects_before_reading() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("BIG")).unwrap();
        let bounded = |budget| ScanRequest { budget: Some(budget), ..ScanRequest::default() };
        let estimated = repo.entry("BIG").unwrap().stats.bytes as u64;
        assert!(estimated > 0);
        // A budget below the estimate refuses without touching regions.
        let err = repo.scan("BIG", &bounded(estimated - 1)).unwrap_err();
        match err {
            RepoError::Budget { name, estimated: e, budget } => {
                assert_eq!(name, "BIG");
                assert_eq!(e, estimated);
                assert_eq!(budget, estimated - 1);
            }
            other => panic!("expected Budget error, got {other:?}"),
        }
        // An adequate budget loads normally.
        let ds = repo.scan("BIG", &bounded(estimated)).unwrap();
        assert_eq!(ds.sample_count(), 1);
        // Unknown datasets still surface NotFound, not Budget.
        assert!(matches!(repo.scan("NOPE", &bounded(u64::MAX)), Err(RepoError::NotFound(_))));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn save_replaces() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("X")).unwrap();
        let mut ds2 = dataset("X");
        ds2.add_sample(Sample::new("s2", "X").with_regions(vec![
            GRegion::new("chr2", 0, 5, Strand::Neg).with_values(vec![0.1.into()]),
        ]))
        .unwrap();
        repo.save(&ds2).unwrap();
        assert_eq!(repo.load("X").unwrap().sample_count(), 2);
        fs::remove_dir_all(&root).ok();
    }
}
