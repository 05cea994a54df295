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
use nggc_formats::native;
use nggc_formats::native_v2::{self, ScanOptions, StorageVersion};
use nggc_formats::FormatError;
use nggc_gdm::{Dataset, DatasetStats, Metadata, Schema};
use nggc_obs::{ByteLru, FlightOutcome, SingleFlight};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
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
    /// Catalogs written before generations existed deserialize as 0.
    #[serde(default)]
    pub generation: u64,
}

/// An on-disk dataset repository with a small in-memory read cache.
///
/// Datasets persist in the GDM-native layout: new saves write the v2
/// binary columnar container ([`nggc_formats::native_v2`]); loads
/// transparently read either v2 containers or legacy v1 text
/// directories, detected by magic bytes. [`Repository::migrate`]
/// rewrites a v1 dataset as v2 in place.
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
    catalog: BTreeMap<String, CatalogEntry>,
    cache: Mutex<DatasetCache>,
    /// Cold full reads in progress, by name: concurrent misses for the
    /// same dataset wait on one leader's disk read instead of each
    /// reading and decoding the full dataset (cold-load stampede).
    inflight: SingleFlight<String, Arc<Dataset>>,
    /// Next generation to assign on save. Monotonic across the whole
    /// repository *and* across reopen/delete/recreate (persisted in
    /// `generations.json`), so a deleted-then-recreated dataset never
    /// reuses a generation a cached result might still reference.
    next_generation: u64,
    /// What [`Repository::open`] found and cleaned up; surfaced by
    /// `nggc stats` and `nggc serve` as a one-line health summary.
    health: RepoHealth,
}

/// Repository state observed (and recovered) while opening.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepoHealth {
    /// Catalogued datasets.
    pub datasets_ok: usize,
    /// Entries sitting in `quarantine/` (unreadable datasets set aside
    /// by catalog recovery or `fsck --repair`).
    pub quarantined: usize,
    /// Orphaned temp/staging/trash entries swept while opening —
    /// leftovers of writes a crash interrupted before publication.
    pub swept: usize,
    /// Whether the catalog was torn/corrupt and had to be rebuilt by
    /// scanning the dataset directories.
    pub catalog_rebuilt: bool,
    /// Catalogued datasets whose directory vanished mid-replace and was
    /// brought back from staging (new version) or trash (old version).
    pub rescued: usize,
}

impl fmt::Display for RepoHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dataset{} ok, {} quarantined, {} orphan temp entr{} swept",
            self.datasets_ok,
            if self.datasets_ok == 1 { "" } else { "s" },
            self.quarantined,
            self.swept,
            if self.swept == 1 { "y" } else { "ies" },
        )?;
        if self.rescued > 0 {
            write!(f, ", {} rescued from an interrupted replace", self.rescued)?;
        }
        if self.catalog_rebuilt {
            write!(f, ", catalog rebuilt from dataset scan")?;
        }
        Ok(())
    }
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

/// Persisted shape of `generations.json`: the next generation to hand
/// out, flushed on every save so it survives reopen.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct GenerationFile {
    pub(crate) next: u64,
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

/// Remove every orphaned staging artefact under `root` — write-side
/// temp files (`.tmp-*`), dataset staging dirs (`datasets/.stage-*`)
/// and trashed trees (`.trash/*`). All of them are pre- or
/// post-publication leftovers of the durable-write protocols, so
/// removing them can never lose published data. Returns how many
/// entries were swept.
pub(crate) fn sweep_orphans(root: &Path) -> usize {
    let mut swept = 0usize;
    let mut sweep_matching = |dir: &Path, prefix: &str| {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.filter_map(|e| e.ok()) {
            let name = entry.file_name();
            if !prefix.is_empty() && !name.to_string_lossy().starts_with(prefix) {
                continue;
            }
            let path = entry.path();
            let removed = if path.is_dir() {
                fs::remove_dir_all(&path).is_ok()
            } else {
                fs::remove_file(&path).is_ok()
            };
            if removed {
                swept += 1;
            }
        }
    };
    sweep_matching(root, ".tmp-");
    sweep_matching(&root.join("datasets"), ".stage-");
    sweep_matching(&root.join("result_cache"), ".tmp-");
    sweep_matching(&root.join(".trash"), "");
    swept
}

/// Try to resurrect the directory of a catalogued dataset that vanished
/// mid-replace (a crash between trashing the old tree and renaming the
/// staged one in). Preference order:
///
/// 1. a **fully readable staged tree** (`datasets/.stage-*-{name}`) —
///    the post-mutation state, completely written before the old
///    directory was touched;
/// 2. the **trashed old tree** (`.trash/{name}-{pid}-{seq}`) — the
///    pre-mutation state.
///
/// Either restores an exact version, never a blend. Must run *before*
/// any orphan sweep, which would otherwise delete both copies. Returns
/// where the data came from, or `None` if nothing needed (or could be)
/// rescued.
pub(crate) fn rescue_dataset(root: &Path, name: &str) -> Option<&'static str> {
    let dir = root.join("datasets").join(name);
    if dir.exists() {
        return None;
    }
    let list = |parent: &Path| -> Vec<PathBuf> {
        fs::read_dir(parent)
            .map(|entries| {
                entries.filter_map(|e| e.ok()).map(|e| e.path()).filter(|p| p.is_dir()).collect()
            })
            .unwrap_or_default()
    };
    let staged_suffix = format!("-{name}");
    let mut staged: Vec<PathBuf> = list(&root.join("datasets"))
        .into_iter()
        .filter(|p| {
            p.file_name().is_some_and(|n| {
                let n = n.to_string_lossy();
                n.starts_with(".stage-") && n.ends_with(&staged_suffix)
            })
        })
        .collect();
    staged.sort();
    for cand in staged {
        if native_v2::read_dataset_auto(&cand).is_ok() && fs::rename(&cand, &dir).is_ok() {
            nggc_obs::global().counter("nggc_repo_rescued_total").inc();
            return Some("staging");
        }
    }
    let trash_prefix = format!("{name}-");
    let mut trashed: Vec<PathBuf> = list(&root.join(".trash"))
        .into_iter()
        .filter(|p| {
            p.file_name().is_some_and(|n| {
                let n = n.to_string_lossy();
                // `{name}-{pid}-{seq}` exactly, so dataset "a" never
                // claims the trash of dataset "a-b".
                n.strip_prefix(&trash_prefix).is_some_and(|rest| {
                    let parts: Vec<&str> = rest.split('-').collect();
                    parts.len() == 2
                        && parts
                            .iter()
                            .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
                })
            })
        })
        .collect();
    trashed.sort();
    for cand in trashed {
        if native_v2::read_dataset_auto(&cand).is_ok() && fs::rename(&cand, &dir).is_ok() {
            nggc_obs::global().counter("nggc_repo_rescued_total").inc();
            return Some("trash");
        }
    }
    None
}

/// [`rescue_dataset`] for every catalogued name; returns how many
/// datasets were brought back.
pub(crate) fn rescue_datasets(root: &Path, catalog: &BTreeMap<String, CatalogEntry>) -> usize {
    catalog.keys().filter(|name| rescue_dataset(root, name).is_some()).count()
}

/// Move an unreadable dataset directory into `quarantine/` under a
/// unique name and drop a sibling `.reason.txt` explaining why.
pub(crate) fn quarantine_dataset(
    root: &Path,
    dir: &Path,
    reason: &str,
) -> std::io::Result<PathBuf> {
    let dest = durable::move_to_trash(dir, &root.join("quarantine"))?;
    let mut reason_path = dest.clone().into_os_string();
    reason_path.push(".reason.txt");
    fs::write(PathBuf::from(reason_path), reason).ok();
    nggc_obs::global().counter("nggc_repo_quarantined_total").inc();
    Ok(dest)
}

/// Entries currently sitting in `quarantine/` (directories only; their
/// sibling reason files don't count).
pub(crate) fn quarantine_count(root: &Path) -> usize {
    fs::read_dir(root.join("quarantine"))
        .map(|entries| entries.filter_map(|e| e.ok()).filter(|e| e.path().is_dir()).count())
        .unwrap_or(0)
}

/// Rebuild a catalog by scanning `datasets/`: every readable dataset is
/// re-indexed with a **fresh** generation (starting at
/// `first_generation`) so no result cached against the lost catalog can
/// revalidate; unreadable directories are quarantined. Returns the
/// catalog, how many datasets were quarantined, and the next free
/// generation.
pub(crate) fn rebuild_catalog(
    root: &Path,
    first_generation: u64,
) -> (BTreeMap<String, CatalogEntry>, usize, u64) {
    let mut catalog = BTreeMap::new();
    let mut quarantined = 0usize;
    let mut next = first_generation.max(1);
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("datasets"))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .filter(|p| p.file_name().is_some_and(|n| !n.to_string_lossy().starts_with('.')))
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    for dir in dirs {
        let name = dir.file_name().expect("filtered above").to_string_lossy().into_owned();
        match native_v2::read_dataset_auto(&dir) {
            Ok(ds) => {
                let generation = next;
                next += 1;
                let stats = ds.stats();
                catalog.insert(
                    name.clone(),
                    CatalogEntry { name, schema: ds.schema.clone(), stats, generation },
                );
            }
            Err(e) => {
                quarantine_dataset(root, &dir, &format!("unreadable during catalog rebuild: {e}"))
                    .ok();
                quarantined += 1;
            }
        }
    }
    (catalog, quarantined, next)
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
    /// Open (or initialise) a repository at `root`.
    ///
    /// Opening is also the first line of crash recovery: orphaned
    /// staging/trash leftovers are swept (they are never published
    /// data), and a torn or corrupt `catalog.json` is rebuilt by
    /// scanning the dataset directories — readable datasets are
    /// re-indexed under fresh generations, unreadable ones are moved to
    /// `quarantine/` with a reason file instead of failing the whole
    /// repository. What happened is recorded in [`Repository::health`].
    pub fn open(root: impl Into<PathBuf>) -> Result<Repository, RepoError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        // The persisted high-water mark keeps generations monotonic
        // across delete → reopen → recreate; a missing or unreadable
        // file falls back to the catalog's own maximum.
        let persisted_next = fs::read_to_string(root.join("generations.json"))
            .ok()
            .and_then(|text| serde_json::from_str::<GenerationFile>(&text).ok())
            .map(|g| g.next)
            .unwrap_or(0);
        let catalog_path = root.join("catalog.json");
        let mut catalog_rebuilt = false;
        let catalog: BTreeMap<String, CatalogEntry> = if catalog_path.exists() {
            let parsed = fs::read_to_string(&catalog_path)
                .ok()
                .and_then(|text| serde_json::from_str(&text).ok());
            match parsed {
                Some(catalog) => catalog,
                None => {
                    // Torn catalog. Rebuild from the datasets themselves
                    // with fresh generations, and drop the on-disk result
                    // cache wholesale: without a trustworthy catalog its
                    // generation stamps cannot be validated.
                    catalog_rebuilt = true;
                    let (rebuilt, _, _) = rebuild_catalog(&root, persisted_next);
                    fs::remove_dir_all(root.join("result_cache")).ok();
                    rebuilt
                }
            }
        } else {
            BTreeMap::new()
        };
        // A crash between trashing a dataset's old tree and renaming in
        // its staged replacement leaves a catalogued name with no
        // directory; bring back an exact version (staged = new, trashed
        // = old) BEFORE the orphan sweep deletes both copies.
        let rescued = rescue_datasets(&root, &catalog);
        let swept = sweep_orphans(&root);
        let catalog_next = catalog.values().map(|e| e.generation + 1).max().unwrap_or(1);
        let health = RepoHealth {
            datasets_ok: catalog.len(),
            quarantined: quarantine_count(&root),
            swept,
            catalog_rebuilt,
            rescued,
        };
        let repo = Repository {
            root,
            catalog,
            cache: Mutex::new(DatasetCache::default()),
            inflight: SingleFlight::default(),
            next_generation: persisted_next.max(catalog_next).max(1),
            health,
        };
        if catalog_rebuilt {
            // Persist the recovered state so the next open is clean.
            repo.flush_generations()?;
            repo.flush_catalog()?;
        }
        Ok(repo)
    }

    /// What [`Repository::open`] found and cleaned up.
    pub fn health(&self) -> &RepoHealth {
        &self.health
    }

    /// The repository root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Save (or replace) a dataset in the default (v2 binary) format;
    /// updates the catalog and populates the cache with the saved copy,
    /// so a save-then-load round trip hits memory.
    pub fn save(&mut self, dataset: &Dataset) -> Result<(), RepoError> {
        self.save_with_version(dataset, StorageVersion::V2)
    }

    /// [`Repository::save`] with an explicit storage version (v1 text is
    /// kept writable for migration tests and benchmarks).
    pub fn save_with_version(
        &mut self,
        dataset: &Dataset,
        version: StorageVersion,
    ) -> Result<(), RepoError> {
        let mut span = nggc_obs::span("repo.save");
        span.field("dataset", &dataset.name).field("format", version.name());
        let t0 = Instant::now();
        dataset.validate().map_err(RepoError::Model)?;
        // Encode into a staging directory first; the live dataset dir is
        // untouched until the staged tree is complete and fsynced.
        let dir = self.dataset_dir(&dataset.name);
        let staging = self.staging_dir(&dataset.name);
        fs::remove_dir_all(&staging).ok();
        let bytes = match version {
            StorageVersion::V2 => native_v2::write_dataset_v2(dataset, &staging)?,
            StorageVersion::V1 => {
                native::write_dataset(dataset, &staging)?;
                dir_bytes(&staging)
            }
        };
        span.field("bytes", bytes);
        // Any persisted metadata index is now stale; the cache gets the
        // fresh copy instead of going cold.
        fs::remove_file(self.root.join("meta_index.json")).ok();
        let stats = dataset.stats();
        self.cache.lock().unwrap_or_else(|p| p.into_inner()).insert(
            dataset.name.clone(),
            Arc::new(dataset.clone()),
            stats.bytes as u64,
        );
        // Publish the new generation *before* swapping the data in: if
        // we crash between the two, the catalog's bumped generation has
        // already invalidated every result cached against the old data,
        // and the dataset itself still reads as the old version. The
        // reverse order could leave new data under the old generation —
        // a stale cached result would then revalidate against it.
        let generation = self.next_generation;
        self.next_generation += 1;
        self.flush_generations()?;
        durable::crashpoint("save.generations");
        self.catalog.insert(
            dataset.name.clone(),
            CatalogEntry {
                name: dataset.name.clone(),
                schema: dataset.schema.clone(),
                stats,
                generation,
            },
        );
        self.flush_catalog()?;
        durable::crashpoint("save.catalog");
        durable::atomic_replace_dir(&staging, &dir, &self.root.join(".trash"))?;
        durable::crashpoint("save.swapped");
        let reg = nggc_obs::global();
        reg.counter("nggc_repo_saves_total").inc();
        reg.counter_with("nggc_repo_save_bytes_total", &[("format", version.name())]).add(bytes);
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
    /// (no block index to prune against), is read in full, from the
    /// in-memory cache when possible. A cache hit is an `Arc` clone — no
    /// region data is copied. Cold full reads take whichever storage
    /// version the dataset directory holds (detected by magic bytes) and
    /// are **single-flighted** per name: one caller reads disk while the
    /// others wait for (and share) its `Arc`. Coalesced waits are counted
    /// in `nggc_repo_load_coalesced_total`; exactly one
    /// `nggc_repo_loads_total` increment happens per actual disk read.
    ///
    /// A restricting request reads the chromosome blocks and value
    /// columns of `req.opts` (skipped columns come back as typed nulls so
    /// the schema stays stable) of the samples `req.admit` lets in, from
    /// the v2 container; refused samples are absent from what a cold read
    /// returns.
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
        let entry = self.catalog.get(name).ok_or_else(|| RepoError::NotFound(name.to_owned()))?;
        let cached = || self.cache.lock().unwrap_or_else(|p| p.into_inner()).get(name);
        let restricts = !req.opts.is_full() || req.admit.is_some();
        let resident = if restricts { cached() } else { None };
        let prunable = restricts
            && resident.is_none()
            && self.storage_version(name) == Some(StorageVersion::V2);
        if let Some(budget) = req.budget {
            let mut estimated = entry.stats.bytes as u64;
            if estimated > budget && prunable {
                let index = native_v2::read_index(&self.dataset_dir(name))?;
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
        if prunable {
            return self.read(name, Some(req));
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
    /// `pruned` selects from its v2 container.
    fn read(
        &self,
        name: &str,
        pruned: Option<&ScanRequest<'_>>,
    ) -> Result<Arc<Dataset>, RepoError> {
        let reg = nggc_obs::global();
        reg.counter("nggc_repo_cache_misses_total").inc();
        nggc_obs::record_read(|a| a.cache_misses += 1);
        let mut span =
            nggc_obs::span(if pruned.is_some() { "repo.load_pruned" } else { "repo.load" });
        span.field("dataset", name);
        let t0 = Instant::now();
        let dir = self.dataset_dir(name);
        let (dataset, stats) = match pruned {
            Some(req) => {
                let container = fs::File::open(dir.join(native_v2::CONTAINER_FILE))
                    .map_err(FormatError::from)?;
                let (dataset, stats) = native_v2::scan_dataset_v2_from(
                    container,
                    &req.opts,
                    |s: &str, m: &Metadata| req.admits(s, m),
                )?;
                (dataset, Some(stats))
            }
            None => (native_v2::read_dataset_auto(&dir)?, None),
        };
        reg.counter("nggc_repo_loads_total").inc();
        span.field("samples", dataset.sample_count()).field("regions", dataset.region_count());
        match stats.zip(pruned) {
            Some((stats, req)) => {
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
                span.field("blocks_read", stats.blocks_read)
                    .field("blocks_skipped", stats.blocks_skipped)
                    .field("bytes_read", stats.bytes_read)
                    .field("bytes_skipped", stats.bytes_skipped)
                    .field("samples_read", stats.samples_read)
                    .field("samples_skipped", stats.samples_skipped);
            }
            None => {
                let version = native_v2::detect_version(&dir).unwrap_or(StorageVersion::V1);
                reg.counter_with("nggc_repo_load_bytes_total", &[("format", version.name())])
                    .add(dir_bytes(&dir));
                span.field("format", version.name());
            }
        }
        reg.histogram("nggc_repo_load_ns").record_duration(t0.elapsed());
        Ok(Arc::new(dataset))
    }

    /// The storage version a dataset currently uses on disk, or `None`
    /// when the dataset is unknown or its directory is unreadable.
    pub fn storage_version(&self, name: &str) -> Option<StorageVersion> {
        if !self.catalog.contains_key(name) {
            return None;
        }
        native_v2::detect_version(&self.dataset_dir(name))
    }

    /// Rewrite one dataset in the v2 binary format (idempotent: already-
    /// v2 datasets are recompacted). Returns what was found and the
    /// before/after on-disk sizes.
    pub fn migrate(&mut self, name: &str) -> Result<MigrationReport, RepoError> {
        if !self.catalog.contains_key(name) {
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
        let names: Vec<String> = self.catalog.keys().cloned().collect();
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
    /// The catalog (and generation high-water mark) is persisted
    /// *before* the dataset directory is touched: a crash between the
    /// two leaves at worst an orphaned directory for `fsck` to deal
    /// with, never a catalog entry whose generation could revalidate a
    /// stale cached result against data that is gone. The directory
    /// itself is renamed into `.trash` before removal so a crash can
    /// never expose a half-deleted container as live data.
    pub fn delete(&mut self, name: &str) -> Result<(), RepoError> {
        if self.catalog.remove(name).is_none() {
            return Err(RepoError::NotFound(name.to_owned()));
        }
        self.cache.lock().unwrap_or_else(|p| p.into_inner()).invalidate(name);
        fs::remove_file(self.root.join("meta_index.json")).ok();
        self.flush_generations()?;
        self.flush_catalog()?;
        durable::crashpoint("delete.cataloged");
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
        self.catalog.values().collect()
    }

    /// Catalog entry of one dataset.
    pub fn entry(&self, name: &str) -> Option<&CatalogEntry> {
        self.catalog.get(name)
    }

    /// Schema of a dataset (for GMQL compilation) without loading regions.
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        self.catalog.get(name).map(|e| e.schema.clone())
    }

    /// Dataset existence check.
    pub fn contains(&self, name: &str) -> bool {
        self.catalog.contains_key(name)
    }

    /// Current generation of a dataset, or `None` when it does not
    /// exist. Every save (and thus migrate) bumps the generation;
    /// deleting removes it; a recreated dataset gets a strictly higher
    /// one. The query result cache validates entries against this.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.catalog.get(name).map(|e| e.generation)
    }

    /// Build (or rebuild) the persistent metadata index over every
    /// dataset in the repository, writing it to `meta_index.json`. The
    /// index powers search without loading any region data afterwards.
    pub fn build_meta_index(&self) -> Result<crate::MetaIndex, RepoError> {
        let mut index = crate::MetaIndex::new();
        for name in self.catalog.keys() {
            let ds = self.load(name)?;
            index.add_dataset(&ds);
        }
        let text = serde_json::to_string(&index)?;
        durable::atomic_write(&self.root.join("meta_index.json"), text.as_bytes())?;
        Ok(index)
    }

    /// Load the persisted metadata index, or rebuild it when absent /
    /// unreadable.
    pub fn meta_index(&self) -> Result<crate::MetaIndex, RepoError> {
        let path = self.root.join("meta_index.json");
        if let Ok(text) = fs::read_to_string(&path) {
            if let Ok(index) = serde_json::from_str(&text) {
                return Ok(index);
            }
        }
        self.build_meta_index()
    }

    fn dataset_dir(&self, name: &str) -> PathBuf {
        self.root.join("datasets").join(name)
    }

    /// Sibling staging directory a save encodes into before the atomic
    /// swap. Dot-prefixed so catalog rebuild scans skip it; pid-tagged
    /// so concurrent processes never collide.
    fn staging_dir(&self, name: &str) -> PathBuf {
        self.root.join("datasets").join(format!(".stage-{}-{name}", std::process::id()))
    }

    fn flush_catalog(&self) -> Result<(), RepoError> {
        let text = serde_json::to_string_pretty(&self.catalog)?;
        durable::atomic_write(&self.root.join("catalog.json"), text.as_bytes())?;
        Ok(())
    }

    fn flush_generations(&self) -> Result<(), RepoError> {
        let text = serde_json::to_string(&GenerationFile { next: self.next_generation })?;
        durable::atomic_write(&self.root.join("generations.json"), text.as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Metadata, Sample, Strand, ValueType};

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

    #[test]
    fn open_rescues_dataset_stranded_mid_replace() {
        // Simulate a crash between `replace.trashed` and
        // `replace.renamed`: the catalogued directory is gone, the old
        // tree sits in .trash and the staged new tree in datasets/.
        let root = tmp();
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("DS")).unwrap();
        }
        let dir = root.join("datasets/DS");
        let staged = root.join("datasets/.stage-1-DS");
        fs::rename(&dir, &staged).unwrap();
        let repo = Repository::open(&root).unwrap();
        assert_eq!(repo.health().rescued, 1, "{:?}", repo.health());
        assert!(repo.load("DS").is_ok(), "rescued dataset must be readable");
        // A second open finds nothing left to rescue or sweep.
        let again = Repository::open(&root).unwrap();
        assert_eq!(again.health().rescued, 0);
        assert_eq!(again.health().swept, 0);

        // Same crash state but with an unreadable staged tree: recovery
        // falls back to the trashed (old) copy.
        let root2 = tmp2();
        {
            let mut repo = Repository::open(&root2).unwrap();
            repo.save(&dataset("DS")).unwrap();
        }
        let dir = root2.join("datasets/DS");
        let trash = root2.join(".trash");
        fs::create_dir_all(&trash).unwrap();
        fs::rename(&dir, trash.join("DS-1-0")).unwrap();
        fs::create_dir_all(root2.join("datasets/.stage-1-DS")).unwrap();
        fs::write(root2.join("datasets/.stage-1-DS/data.gdm2"), b"torn").unwrap();
        let repo = Repository::open(&root2).unwrap();
        assert_eq!(repo.health().rescued, 1, "{:?}", repo.health());
        assert!(repo.load("DS").is_ok(), "trashed copy must be restored");
        fs::remove_dir_all(&root).ok();
        fs::remove_dir_all(&root2).ok();
    }

    fn tmp2() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nggc_repo2_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
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
    fn pruned_load_falls_back_to_full_for_v1_datasets() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save_with_version(&two_chrom_dataset("OLD"), StorageVersion::V1).unwrap();
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
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn v1_datasets_load_transparently_and_migrate() {
        let root = tmp();
        let mut repo = Repository::open(&root).unwrap();
        repo.save_with_version(&dataset("OLD"), StorageVersion::V1).unwrap();
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
        repo.save_with_version(&dataset("A"), StorageVersion::V1).unwrap();
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
        repo.save_with_version(&dataset("A"), StorageVersion::V1).unwrap();
        repo.save_with_version(&dataset("BAD"), StorageVersion::V1).unwrap();
        repo.save_with_version(&dataset("C"), StorageVersion::V1).unwrap();
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
