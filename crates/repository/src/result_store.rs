//! The on-disk query result cache (`<repo>/result_cache/`).
//!
//! One-shot `nggc query` processes cannot share an in-memory cache, so
//! repeated queries from the shell get a persistent layer instead: each
//! entry is a directory named by the plan fingerprint's hex, holding a
//! `meta.json` (format version, the generation snapshot of every source
//! dataset, output names, encoded bytes) plus one v2 binary container
//! per output. Validation mirrors the in-memory cache: an entry is
//! served only when every recorded source generation still matches the
//! repository catalog ([`crate::Repository::generation`]); otherwise it
//! is deleted on sight. Eviction is mtime-LRU under a byte budget — a
//! served hit sets the mtime of the entry's `meta.json` and writes
//! nothing else.
//!
//! All writes are best-effort and crash-safe: entries are staged in a
//! temp directory, fsynced, and renamed into place (the
//! [`crate::durable`] protocol), and any unreadable entry is treated as
//! a miss and removed.

use crate::durable;
use crate::error::RepoError;
use nggc_formats::native_v2;
use nggc_gdm::Dataset;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Bump when the entry layout or `meta.json` shape changes: older
/// entries then self-expire instead of being misread.
const STORE_VERSION: u32 = 1;

/// Persisted per-entry metadata.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct EntryMeta {
    version: u32,
    /// `(source dataset, generation when the result was computed)`.
    gens: Vec<(String, u64)>,
    /// Output dataset names, in the order of the `out<N>` directories.
    outputs: Vec<String>,
    /// Total encoded bytes of the outputs (for eviction accounting).
    bytes: u64,
}

/// A byte-bounded on-disk store of materialized query results.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    capacity_bytes: u64,
}

impl ResultStore {
    /// Open (or create) a store rooted at `dir` with an eviction budget
    /// of `capacity_bytes` of encoded output data.
    pub fn open(dir: impl Into<PathBuf>, capacity_bytes: u64) -> ResultStore {
        let dir = dir.into();
        fs::create_dir_all(&dir).ok();
        ResultStore { dir, capacity_bytes }
    }

    fn entry_dir(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}"))
    }

    /// Look up `key`, revalidating the recorded source generations via
    /// `gen_of`. Stale, corrupt, or version-mismatched entries are
    /// removed and reported as a miss. A hit refreshes the entry for
    /// LRU purposes and increments `nggc_result_cache_hits_total`.
    pub fn lookup(
        &self,
        key: u64,
        gen_of: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<HashMap<String, Dataset>> {
        let reg = nggc_obs::global();
        let dir = self.entry_dir(key);
        let meta_path = dir.join("meta.json");
        let text = match fs::read_to_string(&meta_path) {
            Ok(t) => t,
            Err(_) => {
                reg.counter("nggc_result_cache_misses_total").inc();
                return None;
            }
        };
        let meta: EntryMeta = match serde_json::from_str(&text) {
            Ok(m) => m,
            Err(_) => {
                fs::remove_dir_all(&dir).ok();
                reg.counter("nggc_result_cache_misses_total").inc();
                return None;
            }
        };
        if meta.version != STORE_VERSION {
            fs::remove_dir_all(&dir).ok();
            reg.counter("nggc_result_cache_misses_total").inc();
            return None;
        }
        if !meta.gens.iter().all(|(name, gen)| gen_of(name) == Some(*gen)) {
            fs::remove_dir_all(&dir).ok();
            reg.counter("nggc_result_cache_invalidations_total").inc();
            reg.counter("nggc_result_cache_misses_total").inc();
            return None;
        }
        let mut outputs = HashMap::new();
        for (i, name) in meta.outputs.iter().enumerate() {
            match native_v2::read_dataset_auto(&dir.join(format!("out{i}"))) {
                Ok(ds) => {
                    outputs.insert(name.clone(), ds);
                }
                Err(_) => {
                    fs::remove_dir_all(&dir).ok();
                    reg.counter("nggc_result_cache_misses_total").inc();
                    return None;
                }
            }
        }
        // meta.json's mtime is the LRU recency signal eviction sorts on.
        // Only the timestamp moves: no byte of a live entry is rewritten,
        // so there is nothing to tear and nothing to fsync — recency lost
        // in a crash costs at worst one early eviction.
        if let Ok(file) = fs::File::options().write(true).open(&meta_path) {
            file.set_modified(SystemTime::now()).ok();
        }
        reg.counter("nggc_result_cache_hits_total").inc();
        Some(outputs)
    }

    /// Persist a computed result under `key` with its pre-execution
    /// generation snapshot, then evict least-recently-used entries over
    /// the byte budget. Results larger than the whole budget are not
    /// stored. Crash-safe: the entry is staged and renamed into place.
    pub fn store(
        &self,
        key: u64,
        gens: &[(String, u64)],
        outputs: &HashMap<String, Dataset>,
    ) -> Result<(), RepoError> {
        let bytes: u64 = outputs.values().map(|d| d.encoded_size() as u64).sum();
        if bytes > self.capacity_bytes {
            return Ok(());
        }
        // Sort outputs by name so `out<N>` indices are deterministic.
        let mut names: Vec<&String> = outputs.keys().collect();
        names.sort();
        let staging = self.dir.join(format!(".tmp-{key:016x}-{}", std::process::id()));
        fs::remove_dir_all(&staging).ok();
        fs::create_dir_all(&staging)?;
        for (i, name) in names.iter().enumerate() {
            native_v2::write_dataset_v2(&outputs[name.as_str()], &staging.join(format!("out{i}")))?;
        }
        let meta = EntryMeta {
            version: STORE_VERSION,
            gens: gens.to_vec(),
            outputs: names.into_iter().cloned().collect(),
            bytes,
        };
        fs::write(staging.join("meta.json"), serde_json::to_string(&meta)?)?;
        // Fsync the staged entry and swap it in durably: a crash leaves
        // either the previous entry, no entry, or the complete new one.
        let dir = self.entry_dir(key);
        durable::atomic_replace_dir(&staging, &dir, &self.dir.join(".trash"))?;
        nggc_obs::global().counter("nggc_result_cache_insert_bytes_total").add(bytes);
        self.evict_over_budget(Some(key));
        Ok(())
    }

    /// Every entry directory with its metadata, `None` when that is
    /// missing or unreadable. Dot-named directories (staging, trash) are
    /// not entries.
    fn entries(&self) -> Vec<(PathBuf, Option<EntryMeta>)> {
        let Ok(read) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        read.filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|path| {
                path.is_dir()
                    && !path.file_name().is_some_and(|n| n.to_string_lossy().starts_with('.'))
            })
            .map(|path| {
                let meta = fs::read_to_string(path.join("meta.json"))
                    .ok()
                    .and_then(|t| serde_json::from_str::<EntryMeta>(&t).ok());
                (path, meta)
            })
            .collect()
    }

    /// Remove oldest entries (by `meta.json` mtime) until total encoded
    /// bytes fit the budget. `keep` is never evicted — it is the entry
    /// the caller just wrote.
    fn evict_over_budget(&self, keep: Option<u64>) {
        let keep_dir = keep.map(|k| self.entry_dir(k));
        let mut entries: Vec<(PathBuf, SystemTime, u64)> = Vec::new();
        for (path, meta) in self.entries() {
            let Some(meta) = meta else {
                // Half-written or foreign directory: reclaim it.
                fs::remove_dir_all(&path).ok();
                continue;
            };
            let mtime = fs::metadata(path.join("meta.json"))
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((path, mtime, meta.bytes));
        }
        let mut total: u64 = entries.iter().map(|(_, _, b)| b).sum();
        entries.sort_by_key(|(_, mtime, _)| *mtime);
        let reg = nggc_obs::global();
        for (path, _, bytes) in entries {
            if total <= self.capacity_bytes {
                break;
            }
            if keep_dir.as_deref() == Some(path.as_path()) {
                continue;
            }
            fs::remove_dir_all(&path).ok();
            reg.counter("nggc_result_cache_evictions_total").inc();
            total -= bytes;
        }
    }

    /// Entries whose recorded source generations no longer match
    /// `gen_of` (or whose metadata is unreadable): they can only ever
    /// miss. Pure inspection — nothing is removed.
    pub fn stale_entries(&self, gen_of: &dyn Fn(&str) -> Option<u64>) -> Vec<PathBuf> {
        let dead = |meta: &EntryMeta| {
            meta.version != STORE_VERSION
                || !meta.gens.iter().all(|(name, gen)| gen_of(name) == Some(*gen))
        };
        // Unreadable metadata is as dead as a stale snapshot.
        let entries = self.entries().into_iter();
        entries.filter(|(_, meta)| meta.as_ref().is_none_or(dead)).map(|(path, _)| path).collect()
    }

    /// Remove every entry [`ResultStore::stale_entries`] flags — the
    /// eager counterpart of the delete-on-sight validation
    /// [`ResultStore::lookup`] performs lazily. `nggc fsck --repair`
    /// runs this so a repaired repository carries no cached result
    /// whose source generation is gone. Returns how many entries were
    /// evicted.
    pub fn sweep_stale(&self, gen_of: &dyn Fn(&str) -> Option<u64>) -> u64 {
        let reg = nggc_obs::global();
        let mut evicted = 0;
        for path in self.stale_entries(gen_of) {
            if fs::remove_dir_all(&path).is_ok() {
                evicted += 1;
                reg.counter("nggc_result_cache_invalidations_total").inc();
            }
        }
        evicted
    }

    /// `(entries, encoded bytes)` currently resident — for tests and
    /// `nggc stats`.
    pub fn usage(&self) -> (u64, u64) {
        let metas: Vec<EntryMeta> = self.entries().into_iter().filter_map(|(_, m)| m).collect();
        (metas.len() as u64, metas.iter().map(|m| m.bytes).sum())
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Sample, Schema, Strand, ValueType};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nggc_result_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

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

    fn outputs(name: &str, regions: usize) -> HashMap<String, Dataset> {
        let mut m = HashMap::new();
        m.insert(name.to_owned(), dataset(name, regions));
        m
    }

    #[test]
    fn store_lookup_roundtrip_and_generation_invalidation() {
        let store = ResultStore::open(tmp("roundtrip"), 1 << 20);
        store.store(7, &[("SRC".into(), 3)], &outputs("R", 5)).unwrap();
        let back = store.lookup(7, &|_| Some(3)).expect("valid entry hits");
        assert_eq!(back["R"].region_count(), 5);
        // Generation moved on: entry is deleted on sight.
        assert!(store.lookup(7, &|_| Some(4)).is_none());
        assert!(store.lookup(7, &|_| Some(3)).is_none(), "stale entry was removed");
        assert_eq!(store.usage().0, 0);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn deleted_source_invalidates() {
        let store = ResultStore::open(tmp("deleted"), 1 << 20);
        store.store(1, &[("A".into(), 1), ("B".into(), 2)], &outputs("R", 2)).unwrap();
        assert!(store.lookup(1, &|n| if n == "A" { Some(1) } else { None }).is_none());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn multiple_outputs_roundtrip() {
        let store = ResultStore::open(tmp("multi"), 1 << 20);
        let mut outs = outputs("R1", 2);
        outs.insert("R2".into(), dataset("R2", 4));
        store.store(9, &[("S".into(), 1)], &outs).unwrap();
        let back = store.lookup(9, &|_| Some(1)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back["R1"].region_count(), 2);
        assert_eq!(back["R2"].region_count(), 4);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn eviction_under_tiny_budget_drops_oldest() {
        let one_bytes: u64 = outputs("R", 5).values().map(|d| d.encoded_size() as u64).sum();
        let store = ResultStore::open(tmp("evict"), one_bytes * 2 + 1);
        for key in 0..3u64 {
            store.store(key, &[("S".into(), 1)], &outputs("R", 5)).unwrap();
            // mtime granularity: make sure ordering is observable.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let (entries, bytes) = store.usage();
        assert_eq!(entries, 2, "third insert evicts the oldest entry");
        assert!(bytes <= store.capacity_bytes);
        assert!(store.lookup(0, &|_| Some(1)).is_none());
        assert!(store.lookup(2, &|_| Some(1)).is_some());
        // A hit is a use: entry 1, older than entry 2 but served since,
        // outlives it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(store.lookup(1, &|_| Some(1)).is_some());
        let meta_before = fs::read(store.entry_dir(1).join("meta.json")).unwrap();
        store.store(3, &[("S".into(), 1)], &outputs("R", 5)).unwrap();
        assert!(store.lookup(1, &|_| Some(1)).is_some(), "the entry hit last survives");
        assert!(store.lookup(2, &|_| Some(1)).is_none(), "the untouched older entry goes");
        assert_eq!(fs::read(store.entry_dir(1).join("meta.json")).unwrap(), meta_before);
        // An oversized result is simply not stored.
        let big = ResultStore::open(tmp("evict_big"), 4);
        big.store(5, &[("S".into(), 1)], &outputs("R", 50)).unwrap();
        assert_eq!(big.usage().0, 0);
        fs::remove_dir_all(store.dir()).ok();
        fs::remove_dir_all(big.dir()).ok();
    }

    #[test]
    fn sweep_stale_evicts_eagerly() {
        let store = ResultStore::open(tmp("sweep"), 1 << 20);
        store.store(1, &[("A".into(), 1)], &outputs("R", 2)).unwrap();
        store.store(2, &[("B".into(), 7)], &outputs("R", 2)).unwrap();
        // A's generation moved on; B's source is gone entirely.
        let evicted = store.sweep_stale(&|n| if n == "A" { Some(2) } else { None });
        assert_eq!(evicted, 2);
        assert_eq!(store.usage().0, 0);
        // Valid entries survive a sweep.
        store.store(3, &[("C".into(), 5)], &outputs("R", 2)).unwrap();
        assert_eq!(store.sweep_stale(&|_| Some(5)), 0);
        assert!(store.lookup(3, &|_| Some(5)).is_some());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_entries_are_reclaimed_as_misses() {
        let store = ResultStore::open(tmp("corrupt"), 1 << 20);
        store.store(4, &[("S".into(), 1)], &outputs("R", 3)).unwrap();
        fs::write(store.entry_dir(4).join("meta.json"), "not json").unwrap();
        assert!(store.lookup(4, &|_| Some(1)).is_none());
        assert!(!store.entry_dir(4).exists(), "corrupt entry is removed");
        fs::remove_dir_all(store.dir()).ok();
    }
}
