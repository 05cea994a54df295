//! Repository integrity checking and repair (`nggc fsck`).
//!
//! [`fsck`] walks a repository the way a filesystem checker walks a
//! disk: catalog ↔ dataset-directory cross-checks, container
//! magic/header validation (`--deep` adds a full checksum pass over
//! every block), leftovers of interrupted writes, and result-cache
//! entries that can only miss. Every finding is an [`FsckIssue`]. It
//! reads, judges and repairs the state and leftovers the way
//! `Repository::open` does, through the same recovery module; the
//! dataset and result-cache checks are its own. What each issue's
//! repair is: docs/robustness.md, "Recovery".

use crate::catalog::CatalogEntry;
use crate::error::RepoError;
use crate::recovery::{self, Others, State};
use crate::result_store::ResultStore;
use nggc_formats::{native_v2, FormatError};
use nggc_gdm::Schema;
use std::path::Path;

/// What [`fsck`] should do.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsckOptions {
    /// Fully decode every dataset, verifying all checksums, instead of
    /// only validating magic bytes, headers and block indexes.
    pub deep: bool,
    /// Fix what can be fixed (re-index, quarantine, sweep) instead of
    /// only reporting.
    pub repair: bool,
}

/// Category of one [`FsckIssue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// `catalog.json` exists but does not parse.
    TornCatalog,
    /// A catalog entry whose dataset directory is missing.
    MissingDataset,
    /// A dataset directory the catalog does not know about.
    OrphanDataset,
    /// A catalog entry whose schema, sample count or region count is not
    /// what its dataset directory holds: a replacing save that flushed its
    /// entry and died before it published the container.
    CatalogMismatch,
    /// A dataset that fails header validation or (deep mode) a
    /// checksum/decode pass.
    UnreadableDataset,
    /// A leftover staging/temp/trash entry from an interrupted write.
    OrphanTemp,
    /// A result-cache entry that can only miss: its source generations
    /// are gone, its header fails its checksum, or it is a directory of
    /// the older store layout.
    StaleResult,
}

impl IssueKind {
    /// Short name for report lines and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            IssueKind::TornCatalog => "torn-catalog",
            IssueKind::MissingDataset => "missing-dataset",
            IssueKind::OrphanDataset => "orphan-dataset",
            IssueKind::CatalogMismatch => "catalog-mismatch",
            IssueKind::UnreadableDataset => "unreadable-dataset",
            IssueKind::OrphanTemp => "orphan-temp",
            IssueKind::StaleResult => "stale-result",
        }
    }
}

/// One finding of a [`fsck`] run.
#[derive(Debug)]
pub struct FsckIssue {
    /// What category of damage this is.
    pub kind: IssueKind,
    /// What is damaged (dataset name, file, or path).
    pub subject: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Whether this run fixed it (always `false` without `repair`).
    pub repaired: bool,
}

/// Outcome of a [`fsck`] run.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Datasets that passed every check this run performed.
    pub datasets_ok: usize,
    /// Entries currently in `quarantine/` (including ones moved there
    /// by this run).
    pub quarantined: usize,
    /// Everything found wrong, in discovery order.
    pub issues: Vec<FsckIssue>,
    /// Whether the run was a deep (full checksum) pass.
    pub deep: bool,
}

impl FsckReport {
    /// No issues at all?
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Issues this run did not (or could not) fix.
    pub fn unrepaired(&self) -> usize {
        self.issues.iter().filter(|i| !i.repaired).count()
    }

    /// Record an issue, not repaired yet.
    fn found(&mut self, kind: IssueKind, subject: impl ToString, detail: impl Into<String>) {
        let (subject, detail) = (subject.to_string(), detail.into());
        self.issues.push(FsckIssue { kind, subject, detail, repaired: false });
    }

    /// Mark the issue found last as repaired.
    fn repaired(&mut self) {
        self.issues.last_mut().expect("an issue was found").repaired = true;
    }
}

/// What a dataset directory holds, as far as its catalog entry describes
/// it: the schema, the sample count and the region count.
type Held = (Schema, usize, usize);

fn describe((schema, samples, regions): &Held) -> String {
    format!("{schema}, {samples} samples, {regions} regions")
}

/// Validate one dataset directory and say what it holds. Shallow mode
/// parses a container's magic, header and block index (no region
/// decode); deep mode, and a directory without a container, fully decode
/// the dataset, which for a container verifies the whole-file trailer
/// and every block checksum.
fn check_dataset(dir: &Path, deep: bool) -> Result<Held, String> {
    let full = || {
        let (ds, ..) = native_v2::read_dataset_auto(dir, native_v2::Layout::Batches)?;
        Ok((ds.schema.clone(), ds.sample_count(), ds.region_count()))
    };
    let checked = if deep {
        full()
    } else {
        match native_v2::read_index(dir) {
            Err(FormatError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => full(),
            index => index.map(|i| (i.schema.clone(), i.samples.len(), i.region_count() as usize)),
        }
    };
    checked.map_err(|e: FormatError| e.to_string())
}

/// Walk the repository at `root`, verifying catalog, datasets, staging
/// areas and the on-disk result cache; optionally repair. Leftovers are
/// judged only when no one else holds the repository; while another
/// process holds it, this fails with [`std::io::ErrorKind::ResourceBusy`]
/// and reads nothing.
pub fn fsck(root: &Path, opts: FsckOptions) -> Result<FsckReport, RepoError> {
    let reg = nggc_obs::global();
    reg.counter("nggc_repo_fsck_runs_total").inc();
    let (_lock, report) = recovery::hold(root, |others| match others {
        Others::OtherProcess => Err(RepoError::Io(std::io::Error::new(
            std::io::ErrorKind::ResourceBusy,
            format!("repository {} is in use by another process", root.display()),
        ))),
        others => check(root, opts, others == Others::None),
    })?;
    let report = report?;
    reg.counter("nggc_repo_fsck_issues_total").add(report.issues.len() as u64);
    reg.counter("nggc_repo_fsck_repairs_total")
        .add(report.issues.iter().filter(|i| i.repaired).count() as u64);
    Ok(report)
}

/// [`fsck`] with the repository held by this process; `alone` when no
/// other handle of it is open either, so leftovers may be judged.
fn check(root: &Path, opts: FsckOptions, alone: bool) -> Result<FsckReport, RepoError> {
    use IssueKind::*;
    let mut report = FsckReport { deep: opts.deep, ..FsckReport::default() };

    // -- state -------------------------------------------------------------
    // A repair writes in the write turn, so it takes it before it reads.
    let turn = if opts.repair { Some(recovery::turn(root)?) } else { None };
    let mut state = State::read(root);
    if state.torn {
        report.found(TornCatalog, recovery::CATALOG, "exists but does not parse");
    }
    let mut dirty = state.torn && opts.repair;
    if dirty {
        state.repair_torn(root);
    }

    // -- datasets --------------------------------------------------------
    let (dirs, leftovers) = recovery::survey(root);
    if !state.torn {
        // Catalog entries whose directory vanished.
        let on_disk = |name: &str| dirs.iter().any(|d| d.file_name().is_some_and(|n| n == name));
        for name in state.datasets.keys().filter(|n| !on_disk(n)).cloned().collect::<Vec<_>>() {
            report.found(MissingDataset, &name, "catalogued but no dataset directory on disk");
            if opts.repair {
                state.datasets.remove(&name);
                dirty = true;
                report.repaired();
            }
        }
        // Directories: readability, then catalog membership and whether
        // the entry describes what the directory holds.
        for dir in &dirs {
            let name = dir.file_name().expect("dataset dirs have names").to_string_lossy();
            let reason = match check_dataset(dir, opts.deep) {
                Ok(held) => {
                    let listed =
                        |e: &CatalogEntry| (e.schema.clone(), e.stats.samples, e.stats.regions);
                    let (kind, detail) = match state.datasets.get(name.as_ref()).map(listed) {
                        Some(listed) if listed == held => {
                            report.datasets_ok += 1;
                            continue;
                        }
                        Some(listed) => {
                            let (listed, held) = (describe(&listed), describe(&held));
                            let detail =
                                format!("the catalog lists {listed}; the dataset holds {held}");
                            (CatalogMismatch, detail)
                        }
                        None => (OrphanDataset, "dataset directory not in the catalog".to_owned()),
                    };
                    report.found(kind, &name, detail);
                    if !opts.repair {
                        continue;
                    }
                    // Re-indexed under a fresh generation, so no result
                    // cached against the entry can revalidate.
                    match state.index(dir, &name) {
                        Ok(()) => {
                            dirty = true;
                            report.repaired();
                            continue;
                        }
                        // Readable shallowly but not fully: treat like
                        // any unreadable dataset.
                        Err(e) => format!("re-index during fsck failed: {e}"),
                    }
                }
                Err(reason) => {
                    report.found(UnreadableDataset, &name, reason.clone());
                    reason
                }
            };
            if opts.repair && recovery::quarantine(root, dir, &reason).is_ok() {
                dirty |= state.datasets.remove(name.as_ref()).is_some();
                report.repaired();
            }
        }
    }

    // -- leftovers of interrupted writes ----------------------------------
    // Only while no one else holds the repository: any of them may be a
    // live write's.
    for path in if alone { leftovers } else { Vec::new() } {
        report.found(OrphanTemp, path.display(), "leftover from an interrupted write");
        if opts.repair && recovery::remove(&path) {
            report.repaired();
        }
    }

    // -- result cache -----------------------------------------------------
    if !state.torn && root.join("result_cache").exists() {
        let store = ResultStore::open(root.join("result_cache"), u64::MAX);
        let gen_of = |name: &str| state.datasets.get(name).map(|e| e.generation);
        for path in store.stale_entries(&gen_of) {
            let detail = "cached result that can only miss (source generation gone, bad header or older layout)";
            report.found(StaleResult, path.display(), detail);
        }
        if opts.repair {
            let swept = store.sweep_stale(&gen_of) as usize;
            let stale = report.issues.iter_mut().rev().filter(|i| i.kind == StaleResult);
            stale.take(swept).for_each(|i| i.repaired = true);
        }
    }

    // -- persist repairs ---------------------------------------------------
    if let Some(turn) = turn.filter(|_| dirty) {
        state.write(root, &turn)?;
        report.issues.iter_mut().filter(|i| i.kind == TornCatalog).for_each(|i| i.repaired = true);
    }
    report.quarantined = recovery::quarantine_count(root);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Repository;
    use nggc_gdm::{Attribute, Dataset, GRegion, Sample, Schema, Strand, ValueType};
    use std::collections::BTreeMap;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nggc_fsck_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn dataset(name: &str) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new(name, schema);
        ds.add_sample(Sample::new("s1", name).with_regions(vec![
            GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![0.5.into()]),
        ]))
        .unwrap();
        ds
    }

    fn seeded(tag: &str) -> PathBuf {
        let root = tmp(tag);
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("A")).unwrap();
        repo.save(&dataset("B")).unwrap();
        root
    }

    /// Edit the entries of `root`'s catalog behind its repositories' backs.
    fn edit_catalog(root: &Path, edit: impl FnOnce(&mut BTreeMap<String, CatalogEntry>)) {
        let mut state = State::read(root);
        edit(&mut state.datasets);
        state.write(root, &recovery::turn(root).unwrap()).unwrap();
    }

    #[test]
    fn clean_repo_is_clean() {
        let root = seeded("clean");
        let report = fsck(&root, FsckOptions::default()).unwrap();
        assert!(report.is_clean(), "unexpected issues: {:?}", report.issues);
        assert_eq!(report.datasets_ok, 2);
        let deep = fsck(&root, FsckOptions { deep: true, repair: false }).unwrap();
        assert!(deep.is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn orphan_dataset_is_reindexed_with_fresh_generation() {
        let root = seeded("orphan");
        // Remove A from the catalog, keeping its directory.
        let mut repo = Repository::open(&root).unwrap();
        let old_gen = repo.generation("A").unwrap();
        repo.delete("A").unwrap();
        // Resurrect the directory only (simulating a crash between
        // catalog persist and directory removal).
        let mut r2 = Repository::open(&root).unwrap();
        r2.save(&dataset("A")).unwrap();
        let resave_gen = r2.generation("A").unwrap();
        edit_catalog(&root, |catalog| {
            catalog.remove("A");
        });

        let report = fsck(&root, FsckOptions::default()).unwrap();
        assert_eq!(report.issues.len(), 1);
        assert_eq!(report.issues[0].kind, IssueKind::OrphanDataset);
        assert_eq!(report.unrepaired(), 1, "report-only run fixes nothing");

        let repaired = fsck(&root, FsckOptions { deep: false, repair: true }).unwrap();
        assert_eq!(repaired.unrepaired(), 0);
        let repo = Repository::open(&root).unwrap();
        assert!(repo.contains("A"));
        let new_gen = repo.generation("A").unwrap();
        assert!(new_gen > old_gen && new_gen > resave_gen, "re-index must use a fresh generation");
        assert!(fsck(&root, FsckOptions::default()).unwrap().is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_entry_that_misdescribes_its_container_is_reindexed() {
        let root = seeded("mismatch");
        let old_gen = Repository::open(&root).unwrap().generation("A").unwrap();
        // What a replacing save that died between its catalog flush and
        // its container rename leaves: the entry of data not on disk.
        edit_catalog(&root, |catalog| {
            let entry = catalog.get_mut("A").unwrap();
            entry.stats.regions += 2;
            entry.schema = nggc_gdm::Schema::empty();
        });

        for deep in [false, true] {
            let report = fsck(&root, FsckOptions { deep, repair: false }).unwrap();
            assert_eq!(report.issues.len(), 1, "{:?}", report.issues);
            assert_eq!(
                (report.issues[0].kind, report.datasets_ok),
                (IssueKind::CatalogMismatch, 1)
            );
            assert!(report.issues[0].detail.contains("3 regions; the dataset holds"));
        }
        let repaired = fsck(&root, FsckOptions { deep: false, repair: true }).unwrap();
        assert_eq!((repaired.issues.len(), repaired.unrepaired()), (1, 0));
        let repo = Repository::open(&root).unwrap();
        assert!(repo.generation("A").unwrap() > old_gen, "re-indexed under a fresh generation");
        let loaded = repo.load("A").unwrap();
        let entry = repo.entry("A").unwrap();
        assert_eq!((&entry.schema, entry.stats), (&loaded.schema, loaded.stats()));
        assert!(fsck(&root, FsckOptions::default()).unwrap().is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_dataset_entry_is_dropped() {
        let root = seeded("missing");
        fs::remove_dir_all(root.join("datasets/B")).unwrap();
        let report = fsck(&root, FsckOptions::default()).unwrap();
        assert!(report.issues.iter().any(|i| i.kind == IssueKind::MissingDataset));
        let repaired = fsck(&root, FsckOptions { deep: false, repair: true }).unwrap();
        assert_eq!(repaired.unrepaired(), 0);
        let repo = Repository::open(&root).unwrap();
        assert!(!repo.contains("B"));
        assert!(repo.contains("A"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_container_quarantined_only_by_deep_pass() {
        let root = seeded("deepquar");
        // Flip a bit inside B's container, past header and index: the
        // shallow pass (magic + header + index) cannot see it.
        let container = root.join("datasets/B/data.gdm2");
        let mut bytes = fs::read(&container).unwrap();
        let pos = bytes.len() - 6; // inside the last block, before the trailer
        bytes[pos] ^= 0x01;
        fs::write(&container, &bytes).unwrap();

        let shallow = fsck(&root, FsckOptions::default()).unwrap();
        assert!(shallow.is_clean(), "shallow pass skips block checksums: {:?}", shallow.issues);
        let deep = fsck(&root, FsckOptions { deep: true, repair: false }).unwrap();
        assert_eq!(deep.issues.len(), 1);
        assert_eq!(deep.issues[0].kind, IssueKind::UnreadableDataset);
        assert!(deep.issues[0].detail.contains("checksum mismatch"), "{}", deep.issues[0].detail);

        let repaired = fsck(&root, FsckOptions { deep: true, repair: true }).unwrap();
        assert_eq!(repaired.unrepaired(), 0);
        assert_eq!(repaired.quarantined, 1);
        // The damaged bytes are preserved for forensics, with a reason.
        let quarantine: Vec<_> = fs::read_dir(root.join("quarantine"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(quarantine.iter().any(|n| n.starts_with("B") && n.ends_with(".reason.txt")));
        let repo = Repository::open(&root).unwrap();
        assert!(!repo.contains("B"));
        assert!(repo.contains("A"));
        assert!(fsck(&root, FsckOptions { deep: true, repair: false }).unwrap().is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_catalog_rebuilds_and_stale_results_swept() {
        let root = seeded("torn");
        // A cached result recorded against current generations…
        let store = ResultStore::open(root.join("result_cache"), 1 << 20);
        let repo = Repository::open(&root).unwrap();
        let gens = vec![("A".to_owned(), repo.generation("A").unwrap())];
        let mut outs = std::collections::HashMap::new();
        outs.insert("R".to_owned(), dataset("R"));
        store.store(42, &gens, &outs).unwrap();
        drop(repo);
        // …then the catalog is torn mid-write.
        fs::write(root.join("catalog.json"), "{\"A\": {\"name\":").unwrap();

        let report = fsck(&root, FsckOptions::default()).unwrap();
        assert!(report.issues.iter().any(|i| i.kind == IssueKind::TornCatalog));
        let repaired = fsck(&root, FsckOptions { deep: false, repair: true }).unwrap();
        assert_eq!(repaired.unrepaired(), 0);
        // Rebuilt catalog knows both datasets again, under fresh
        // generations, and the untrustworthy result cache is gone.
        let repo = Repository::open(&root).unwrap();
        assert!(repo.contains("A") && repo.contains("B"));
        assert_eq!(ResultStore::open(root.join("result_cache"), 1 << 20).usage().0, 0);
        assert!(fsck(&root, FsckOptions::default()).unwrap().is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_directory_entry_of_the_older_result_layout_is_stale_and_repaired() {
        let root = seeded("older_result");
        let repo = Repository::open(&root).unwrap();
        // Recorded against A's current generation: only its layout is old.
        let gens = vec![("A".to_owned(), repo.generation("A").unwrap())];
        drop(repo);
        let old = crate::result_store::tests::write_directory_entry(
            &root.join("result_cache"),
            42,
            &gens,
        );
        let report = fsck(&root, FsckOptions::default()).unwrap();
        assert_eq!(report.issues.len(), 1, "{:?}", report.issues);
        assert_eq!(report.issues[0].kind, IssueKind::StaleResult);
        assert_eq!(report.issues[0].subject, old.display().to_string());
        let repaired = fsck(&root, FsckOptions { deep: false, repair: true }).unwrap();
        assert_eq!(repaired.unrepaired(), 0);
        assert!(!old.exists());
        assert!(fsck(&root, FsckOptions::default()).unwrap().is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn orphan_temp_entries_reported_and_swept() {
        let root = seeded("temp");
        fs::create_dir_all(root.join("datasets/.stage-999-X")).unwrap();
        fs::write(root.join(".tmp-999-catalog.json"), "half").unwrap();
        fs::create_dir_all(root.join(".trash/X-1-0")).unwrap();
        // A first save of Y cut before its rename leaves a directory
        // holding only the temp file: neither is a dataset. A replace of
        // A cut the same way leaves A whole.
        fs::create_dir_all(root.join("datasets/Y")).unwrap();
        fs::write(root.join("datasets/Y/.tmp-999-data.gdm2"), "half").unwrap();
        fs::write(root.join("datasets/A/.tmp-999-data.gdm2"), "half").unwrap();
        let report = fsck(&root, FsckOptions::default()).unwrap();
        let kinds: Vec<IssueKind> = report.issues.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, [IssueKind::OrphanTemp; 6], "{:?}", report.issues);
        assert_eq!(report.datasets_ok, 2);
        let repaired = fsck(&root, FsckOptions { deep: false, repair: true }).unwrap();
        assert_eq!(repaired.unrepaired(), 0);
        assert!(fsck(&root, FsckOptions { deep: true, repair: false }).unwrap().is_clean());
        assert!(!root.join("datasets/.stage-999-X").exists());
        assert!(!root.join("datasets/Y").exists());
        fs::remove_dir_all(&root).ok();
    }
}
