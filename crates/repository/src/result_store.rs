//! The on-disk query result cache (`<repo>/result_cache/`).
//!
//! One-shot `nggc query` processes cannot share an in-memory cache, so
//! repeated queries from the shell get a persistent layer instead: each
//! entry is one regular file named by the plan fingerprint's hex. It
//! holds a small header — the store version and the generation snapshot
//! of every source dataset, covered by a CRC32C — and then the result's
//! outputs exactly as [`encode_outputs`] frames them, which are the bytes
//! the federation stages for the same result:
//!
//! ```text
//! magic      8 bytes  "NGGCRSLT"
//! version    u32 LE   STORE_VERSION
//! sources    u32 LE   count, then per source dataset:
//!                       u32 LE name length, UTF-8 name, u64 LE generation
//! crc        u32 LE   CRC32C of every header byte before it
//! outputs    encode_outputs bytes, to the end of the file
//! ```
//!
//! Validation mirrors the in-memory cache: an entry is served only when
//! its header checks out and every recorded source generation still
//! matches the repository catalog ([`crate::Repository::generation`]);
//! otherwise it is deleted on sight, and so is an entry whose outputs do
//! not decode. Eviction is mtime-LRU over the entries' file lengths under
//! a byte budget, read from file metadata alone — a served hit sets the
//! file's mtime and writes nothing else.
//!
//! A store is one [`durable::atomic_write`]: a crash leaves the previous
//! entry, no entry, or the complete new one, and at worst a `.tmp-` file
//! that the next repository open or `nggc fsck --repair` reclaims.

use crate::durable;
use crate::error::RepoError;
use nggc_formats::native_v2::{crc32c, decode_outputs, encode_outputs};
use nggc_gdm::Dataset;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

const MAGIC: &[u8; 8] = b"NGGCRSLT";

/// Bump when the entry layout changes: older entries then self-expire
/// instead of being misread. Version 1 kept an entry as a directory
/// (`meta.json` plus one container directory per output).
const STORE_VERSION: u32 = 2;

/// The header of an entry that records `gens`, checksum included.
fn entry_header(gens: &[(String, u64)]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend(STORE_VERSION.to_le_bytes());
    out.extend((gens.len() as u32).to_le_bytes());
    for (name, generation) in gens {
        out.extend((name.len() as u32).to_le_bytes());
        out.extend(name.as_bytes());
        out.extend(generation.to_le_bytes());
    }
    out.extend(crc32c(&out).to_le_bytes());
    out
}

/// `(source dataset, generation when the result was computed)`, per source.
type Snapshot = Vec<(String, u64)>;

/// Split an entry file into its generation snapshot and its outputs'
/// bytes; `None` unless the magic, the version and the header checksum
/// all hold.
fn parse_entry(file: &[u8]) -> Option<(Snapshot, &[u8])> {
    fn take<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
        let (head, tail) = (*rest).split_first_chunk::<N>()?;
        *rest = tail;
        Some(*head)
    }
    let mut rest = file.strip_prefix(MAGIC.as_slice())?;
    if u32::from_le_bytes(take(&mut rest)?) != STORE_VERSION {
        return None;
    }
    let count = u32::from_le_bytes(take(&mut rest)?);
    let mut gens = Vec::new();
    for _ in 0..count {
        let len = u32::from_le_bytes(take(&mut rest)?) as usize;
        let name = std::str::from_utf8(rest.get(..len)?).ok()?.to_owned();
        rest = &rest[len..];
        gens.push((name, u64::from_le_bytes(take(&mut rest)?)));
    }
    let header = &file[..file.len() - rest.len()];
    (u32::from_le_bytes(take(&mut rest)?) == crc32c(header)).then_some((gens, rest))
}

/// Whether every recorded source generation is still the current one.
fn current(gens: &[(String, u64)], gen_of: &dyn Fn(&str) -> Option<u64>) -> bool {
    gens.iter().all(|(name, generation)| gen_of(name) == Some(*generation))
}

/// A byte-bounded on-disk store of materialized query results.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    capacity_bytes: u64,
}

impl ResultStore {
    /// Open (or create) a store rooted at `dir` with an eviction budget
    /// of `capacity_bytes` of entry files.
    pub fn open(dir: impl Into<PathBuf>, capacity_bytes: u64) -> ResultStore {
        let dir = dir.into();
        fs::create_dir_all(&dir).ok();
        ResultStore { dir, capacity_bytes }
    }

    fn entry_path(&self, key: u64) -> PathBuf {
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
        let path = self.entry_path(key);
        let Ok(file) = fs::read(&path) else {
            // Absent, or not a file (an entry of the directory layout):
            // nothing here to serve or to remove.
            reg.counter("nggc_result_cache_misses_total").inc();
            return None;
        };
        let outputs = match parse_entry(&file) {
            Some((gens, _)) if !current(&gens, gen_of) => {
                reg.counter("nggc_result_cache_invalidations_total").inc();
                None
            }
            Some((_, body)) => decode_outputs(body).ok(),
            None => None,
        };
        let Some(outputs) = outputs else {
            fs::remove_file(&path).ok();
            reg.counter("nggc_result_cache_misses_total").inc();
            return None;
        };
        // The file's mtime is the LRU recency signal eviction sorts on.
        // Only the timestamp moves: no byte of a live entry is rewritten,
        // so there is nothing to tear and nothing to fsync — recency lost
        // in a crash costs at worst one early eviction.
        if let Ok(file) = fs::File::options().write(true).open(&path) {
            file.set_modified(SystemTime::now()).ok();
        }
        reg.counter("nggc_result_cache_hits_total").inc();
        Some(outputs)
    }

    /// Persist a computed result under `key` with its pre-execution
    /// generation snapshot, then evict least-recently-used entries over
    /// the byte budget. A result whose entry file would be larger than
    /// the whole budget is not stored. Crash-safe: the file is written
    /// with [`durable::atomic_write`].
    pub fn store(
        &self,
        key: u64,
        gens: &[(String, u64)],
        outputs: &HashMap<String, Dataset>,
    ) -> Result<(), RepoError> {
        // The outputs are encoded once, and the header goes in front of
        // them in the same buffer.
        let mut file = encode_outputs(outputs)?;
        file.splice(0..0, entry_header(gens));
        let bytes = file.len() as u64;
        if bytes > self.capacity_bytes {
            return Ok(());
        }
        let path = self.entry_path(key);
        if path.is_dir() {
            // An entry of the directory layout: a rename cannot replace it.
            fs::remove_dir_all(&path)?;
        }
        durable::atomic_write(&path, &file)?;
        nggc_obs::global().counter("nggc_result_cache_insert_bytes_total").add(bytes);
        self.evict_over_budget(&path);
        Ok(())
    }

    /// Everything in the store's directory but the dot-named staging
    /// files, with its metadata. Entries are the regular files; anything
    /// else is left over from an older layout.
    fn listing(&self) -> Vec<(PathBuf, fs::Metadata)> {
        let Ok(read) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        read.filter_map(|e| e.ok())
            .filter(|e| !e.file_name().to_string_lossy().starts_with('.'))
            .filter_map(|e| Some((e.path(), e.metadata().ok()?)))
            .collect()
    }

    /// Remove oldest entries (by file mtime) until their total length
    /// fits the budget. `keep` is never evicted — it is the entry the
    /// caller just wrote. Directories of the older layout are reclaimed.
    fn evict_over_budget(&self, keep: &Path) {
        let mut entries: Vec<(PathBuf, SystemTime, u64)> = Vec::new();
        for (path, meta) in self.listing() {
            if meta.is_dir() {
                fs::remove_dir_all(&path).ok();
            } else {
                entries.push((path, meta.modified().unwrap_or(SystemTime::UNIX_EPOCH), meta.len()));
            }
        }
        let mut total: u64 = entries.iter().map(|(_, _, b)| b).sum();
        entries.sort_by_key(|(_, mtime, _)| *mtime);
        let reg = nggc_obs::global();
        for (path, _, bytes) in entries {
            if total <= self.capacity_bytes {
                break;
            }
            if path == keep {
                continue;
            }
            fs::remove_file(&path).ok();
            reg.counter("nggc_result_cache_evictions_total").inc();
            total -= bytes;
        }
    }

    /// Entries whose recorded source generations no longer match
    /// `gen_of`, whose header does not check out, and directories of the
    /// older layout: they can only ever miss. Pure inspection — nothing
    /// is removed.
    pub fn stale_entries(&self, gen_of: &dyn Fn(&str) -> Option<u64>) -> Vec<PathBuf> {
        let live = |path: &Path| {
            let file = fs::read(path).unwrap_or_default();
            parse_entry(&file).is_some_and(|(gens, _)| current(&gens, gen_of))
        };
        let listing = self.listing().into_iter();
        listing.filter(|(path, meta)| meta.is_dir() || !live(path)).map(|(path, _)| path).collect()
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
            if crate::recovery::remove(&path) {
                evicted += 1;
                reg.counter("nggc_result_cache_invalidations_total").inc();
            }
        }
        evicted
    }

    /// `(entries, file bytes)` currently resident — for tests and
    /// `nggc stats`.
    pub fn usage(&self) -> (u64, u64) {
        let files: Vec<fs::Metadata> =
            self.listing().into_iter().map(|(_, m)| m).filter(|m| m.is_file()).collect();
        (files.len() as u64, files.iter().map(|m| m.len()).sum())
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nggc_formats::native_v2::encode_dataset_v2;
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

    /// What the previous store version left for `key`: a directory
    /// holding `meta.json` and one container directory per output.
    pub(crate) fn write_directory_entry(dir: &Path, key: u64, gens: &[(String, u64)]) -> PathBuf {
        let entry = dir.join(format!("{key:016x}"));
        let (out0, container) = (entry.join("out0"), encode_dataset_v2(&dataset("R", 3)).unwrap());
        fs::create_dir_all(&out0).unwrap();
        fs::write(out0.join(nggc_formats::native_v2::CONTAINER_FILE), &container).unwrap();
        let bytes = container.len();
        let gens = serde_json::to_string(gens).unwrap();
        let meta = format!(r#"{{"version":1,"gens":{gens},"outputs":["R"],"bytes":{bytes}}}"#);
        fs::write(entry.join("meta.json"), meta).unwrap();
        entry
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
    fn an_entry_is_one_file_of_header_and_framed_outputs() {
        let store = ResultStore::open(tmp("one_file"), 1 << 20);
        let mut outs = outputs("R2", 4);
        outs.insert("R1".into(), dataset("R1", 2));
        let gens = [("A".to_owned(), 1), ("B".to_owned(), 9)];
        store.store(9, &gens, &outs).unwrap();
        let names: Vec<String> = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [format!("{:016x}", 9)]);
        let file = fs::read(store.entry_path(9)).unwrap();
        let header = entry_header(&gens);
        assert_eq!(file[..header.len()], header[..]);
        assert_eq!(file[header.len()..], encode_outputs(&outs).unwrap()[..]);
        assert_eq!(store.usage(), (1, file.len() as u64), "an entry's bytes are its length");
        let back = store.lookup(9, &|n| if n == "A" { Some(1) } else { Some(9) }).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back["R1"].region_count(), 2);
        assert_eq!(back["R2"].region_count(), 4);
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
    fn eviction_under_tiny_budget_drops_oldest() {
        let probe = ResultStore::open(tmp("evict_probe"), 1 << 20);
        probe.store(0, &[("S".into(), 1)], &outputs("R", 5)).unwrap();
        let one_bytes = probe.usage().1;
        fs::remove_dir_all(probe.dir()).ok();
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
        let entry_before = fs::read(store.entry_path(1)).unwrap();
        store.store(3, &[("S".into(), 1)], &outputs("R", 5)).unwrap();
        assert!(store.lookup(1, &|_| Some(1)).is_some(), "the entry hit last survives");
        assert!(store.lookup(2, &|_| Some(1)).is_none(), "the untouched older entry goes");
        assert_eq!(fs::read(store.entry_path(1)).unwrap(), entry_before);
        // An oversized result is simply not stored.
        let big = ResultStore::open(tmp("evict_big"), one_bytes - 1);
        big.store(5, &[("S".into(), 1)], &outputs("R", 5)).unwrap();
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
    fn every_flipped_byte_of_an_entry_is_a_miss_that_removes_it() {
        let store = ResultStore::open(tmp("flips"), 1 << 20);
        let outs = outputs("R", 3);
        // Recorded at generation 6, one bit away from the current 7.
        store.store(4, &[("SRC".into(), 6)], &outs).unwrap();
        let path = store.entry_path(4);
        let clean = fs::read(&path).unwrap();
        let at_six = |_: &str| Some(6);
        let back = store.lookup(4, &at_six).expect("the clean entry hits");
        assert_eq!(encode_outputs(&back).unwrap(), encode_outputs(&outs).unwrap());
        for i in 0..clean.len() {
            for mask in [0xFF, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80] {
                let mut flipped = clean.clone();
                flipped[i] ^= mask;
                fs::write(&path, &flipped).unwrap();
                assert!(store.lookup(4, &at_six).is_none(), "byte {i} ^ {mask:#04x} was served");
                assert!(!path.exists(), "byte {i} ^ {mask:#04x}: the entry was kept");
            }
        }
        // The flip that makes the stale generation 6 read as the current
        // 7 is caught by the header checksum.
        let at = clean.windows(8).position(|w| w == 6u64.to_le_bytes()).unwrap();
        let mut forged = clean.clone();
        forged[at] ^= 0x01;
        fs::write(&path, &forged).unwrap();
        assert!(store.lookup(4, &|_| Some(7)).is_none());
        assert!(!path.exists());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn a_directory_entry_of_the_older_layout_misses_and_is_replaced() {
        let store = ResultStore::open(tmp("older"), 1 << 20);
        let gens = [("S".to_owned(), 1)];
        let old = write_directory_entry(store.dir(), 5, &gens);
        assert!(store.lookup(5, &|_| Some(1)).is_none(), "a miss, not an error");
        assert!(old.is_dir(), "a lookup leaves it");
        assert_eq!(store.usage(), (0, 0), "it is not an entry");
        store.store(5, &gens, &outputs("R", 2)).unwrap();
        assert!(store.entry_path(5).is_file());
        assert_eq!(store.lookup(5, &|_| Some(1)).unwrap()["R"].region_count(), 2);
        // Stores of other keys reclaim the rest.
        let other = write_directory_entry(store.dir(), 6, &gens);
        store.store(7, &gens, &outputs("R", 2)).unwrap();
        assert!(!other.exists());
        fs::remove_dir_all(store.dir()).ok();
    }
}
