//! Crash recovery: reading a repository's state, judging what a crash
//! left behind, and repairing both. [`Repository::open`] and [`fsck`]
//! read, judge and repair a repository through this module alone, and
//! `save` and `delete` write the state through it; which repairs each of
//! them makes is tabled in docs/robustness.md, "Recovery".
//!
//! The state is one file, `catalog.json`, written by
//! [`durable::atomic_write`] in a writer's [`Turn`]. One that does not
//! parse was damaged outside that protocol: it is *torn*. A *leftover*
//! ([`survey`]) is what an interrupted write leaves, and also what a live
//! write is made of, so only a process that holds the repository alone
//! judges them: a [`Repository`] holds a shared lock on `<root>/.lock`
//! for its whole life, and [`hold`] tries it exclusively, without
//! waiting, to learn who else does. A crashed process's locks die with
//! it.
//!
//! [`Repository::open`]: crate::Repository::open
//! [`Repository`]: crate::Repository
//! [`fsck`]: crate::fsck::fsck

use crate::catalog::CatalogEntry;
use crate::durable;
use crate::error::RepoError;
use nggc_formats::native_v2::{self, Layout};
use nggc_formats::FormatError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, TryLockError};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

pub(crate) const CATALOG: &str = "catalog.json";

/// Dataset name → catalog entry.
pub(crate) type Catalog = BTreeMap<String, CatalogEntry>;

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
        if self.catalog_rebuilt {
            write!(f, ", catalog rebuilt from dataset scan")?;
        }
        Ok(())
    }
}

/// A repository's state: `catalog.json` as read.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct State {
    /// The next generation to hand out: above every one this file has
    /// handed out, deleted datasets' included, since it was last rebuilt.
    pub(crate) next: u64,
    /// The catalog: empty when `catalog.json` is absent or torn.
    pub(crate) datasets: Catalog,
    /// Whether `catalog.json` exists but does not parse.
    #[serde(skip)]
    pub(crate) torn: bool,
}

/// A writer's turn: an exclusive `flock` on `<root>/.write`, held until
/// it is dropped. It cannot be `.lock`, which every open repository holds
/// shared for its whole life.
pub(crate) struct Turn {
    _lock: File,
}

/// Wait for `root`'s write turn. Every write of the state happens in one.
pub(crate) fn turn(root: &Path) -> io::Result<Turn> {
    let file = File::options().append(true).create(true).open(root.join(".write"))?;
    file.lock()?;
    Ok(Turn { _lock: file })
}

impl State {
    /// Read `catalog.json` under `root`: an empty state when it is absent,
    /// an empty torn one when it does not parse.
    pub(crate) fn read(root: &Path) -> State {
        let fresh = |torn| State { next: 1, datasets: Catalog::new(), torn };
        match fs::read_to_string(root.join(CATALOG)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => fresh(false),
            text => text.ok().and_then(|t| serde_json::from_str(&t).ok()).unwrap_or(fresh(true)),
        }
    }

    /// Wait for `root`'s write turn and read the state in it, as a writer
    /// does before it changes anything: what other processes wrote since
    /// this one last read is in it. A torn state is not a writer's to
    /// repair.
    pub(crate) fn begin(root: &Path) -> Result<(Turn, State), RepoError> {
        let turn = turn(root)?;
        let state = State::read(root);
        if state.torn {
            return Err(RepoError::Torn(root.to_path_buf()));
        }
        Ok((turn, state))
    }

    /// Repair a torn state in memory: rebuild the catalog from the
    /// datasets under fresh generations, quarantining the unreadable
    /// ones, and drop the result cache, whose stamps cannot be validated.
    pub(crate) fn repair_torn(&mut self, root: &Path) {
        for dir in survey(root).0 {
            let name = dir.file_name().expect("a dataset directory").to_string_lossy();
            if let Err(e) = self.index(&dir, &name) {
                let reason = format!("unreadable during catalog rebuild: {e}");
                quarantine(root, &dir, &reason).ok();
            }
        }
        fs::remove_dir_all(root.join("result_cache")).ok();
        self.torn = false;
    }

    /// Catalog dataset directory `dir` as `name`, read in full: its
    /// schema and stats as stored, under a fresh generation.
    pub(crate) fn index(&mut self, dir: &Path, name: &str) -> Result<(), FormatError> {
        let (ds, ..) = native_v2::read_dataset_auto(dir, Layout::Batches)?;
        let (name, stats, generation) = (name.to_owned(), ds.stats(), self.fresh());
        self.datasets
            .insert(name.clone(), CatalogEntry { name, stats, schema: ds.schema, generation });
        Ok(())
    }

    /// Hand out the next generation.
    pub(crate) fn fresh(&mut self) -> u64 {
        let generation = self.next;
        self.next += 1;
        generation
    }

    /// Write `catalog.json`: one atomic write, in the writer's turn.
    pub(crate) fn write(&self, root: &Path, _: &Turn) -> Result<(), RepoError> {
        let text = serde_json::to_string_pretty(self)?;
        Ok(durable::atomic_write(&root.join(CATALOG), text.as_bytes())?)
    }
}

/// Who holds a repository besides the caller, as its lock says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Others {
    /// Nobody: the caller holds the repository alone.
    None,
    /// Other handles of the caller's own process, and no other process.
    OwnProcess,
    /// Another process.
    OtherProcess,
}

/// The repository locks this process holds, by root as given: every
/// handle one process opens on a root shares one.
static HELD: Mutex<BTreeMap<PathBuf, Weak<File>>> = Mutex::new(BTreeMap::new());

/// Take `root`'s lock exclusively if no one else holds it, run `f` with
/// who does, then leave the lock shared in the handle returned — the one
/// every handle of this process on `root` shares, and which releases the
/// lock once the last of them is dropped.
pub(crate) fn hold<T>(root: &Path, f: impl FnOnce(Others) -> T) -> io::Result<(Arc<File>, T)> {
    let mut held = HELD.lock().unwrap_or_else(|p| p.into_inner());
    held.retain(|_, file| file.strong_count() > 0);
    let own = held.get(root).and_then(Weak::upgrade);
    let shared = own.is_some();
    // Read-only once it exists: a lock needs no write access, so a user
    // who may only read the repository can still hold it.
    let path = root.join(".lock");
    let open =
        || File::open(&path).or_else(|_| File::options().append(true).create(true).open(&path));
    let file = own.map_or_else(|| open().map(Arc::new), Ok)?;
    // Converting this process's shared lock may drop it for a moment: a
    // conversion that fails leaves it to the other process's lock, and
    // `lock_shared` below takes it back.
    let others = match file.try_lock() {
        Ok(()) if shared => Others::OwnProcess,
        Ok(()) => Others::None,
        Err(TryLockError::WouldBlock) => Others::OtherProcess,
        Err(TryLockError::Error(e)) => return Err(e),
    };
    let out = f(others);
    file.lock_shared()?;
    held.insert(root.to_path_buf(), Arc::downgrade(&file));
    Ok((file, out))
}

/// What [`Repository::open`](crate::Repository::open) recovers at
/// `root`, with the lock it keeps from then on.
pub(crate) fn open(root: &Path) -> Result<(State, RepoHealth, Arc<File>), RepoError> {
    fs::create_dir_all(root)?;
    let (lock, swept) = hold(root, |others| match others {
        Others::None => survey(root).1.iter().filter(|p| remove(p)).count(),
        _ => 0,
    })?;
    let mut state = State::read(root);
    let mut catalog_rebuilt = false;
    if state.torn {
        // Read again in the turn: another process may have repaired it.
        let turn = turn(root)?;
        state = State::read(root);
        catalog_rebuilt = state.torn;
        if catalog_rebuilt {
            state.repair_torn(root);
            state.write(root, &turn)?;
        }
    }
    let datasets_ok = state.datasets.len();
    let health =
        RepoHealth { datasets_ok, quarantined: quarantine_count(root), swept, catalog_rebuilt };
    Ok((state, health, lock))
}

/// The entries of `dir`, or none when it cannot be read.
fn entries(dir: &Path) -> Vec<fs::DirEntry> {
    fs::read_dir(dir).map(|e| e.filter_map(Result::ok).collect()).unwrap_or_default()
}

fn named(entry: &fs::DirEntry, prefix: &str) -> bool {
    entry.file_name().to_string_lossy().starts_with(prefix)
}

/// A temp file [`durable::atomic_write`] stages before its rename.
fn is_temp(entry: &fs::DirEntry) -> bool {
    named(entry, ".tmp-")
}

/// What `root` holds outside its state file: the dataset directories,
/// in name order, and every leftover, in path order — temp files of
/// [`durable::atomic_write`] (beside `catalog.json`, in a dataset
/// directory, in `result_cache/`); a dataset directory holding nothing
/// else (a first save cut before its container was published); trashed
/// trees (`.trash/*`); and older releases' staging trees
/// (`datasets/.stage-*`). No leftover is published data.
pub(crate) fn survey(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let datasets = root.join("datasets");
    let (mut dirs, mut leftovers) = (Vec::new(), Vec::new());
    for (dir, prefix) in [
        (root.to_path_buf(), ".tmp-"),
        (root.join("result_cache"), ".tmp-"),
        (root.join(".trash"), ""),
        (datasets.clone(), ".stage-"),
    ] {
        leftovers.extend(entries(&dir).iter().filter(|e| named(e, prefix)).map(|e| e.path()));
    }
    for dir in entries(&datasets).iter().filter(|e| !named(e, ".")).map(|e| e.path()) {
        let inside = entries(&dir);
        leftovers.extend(inside.iter().filter(|e| is_temp(e)).map(|e| e.path()));
        if dir.is_dir() {
            if inside.iter().all(is_temp) { &mut leftovers } else { &mut dirs }.push(dir);
        }
    }
    dirs.sort();
    leftovers.sort();
    (dirs, leftovers)
}

/// Remove a file or a whole tree; whether it is gone afterwards (a tree
/// an earlier removal took with it counts).
pub(crate) fn remove(path: &Path) -> bool {
    if path.is_dir() {
        fs::remove_dir_all(path).ok();
    } else {
        fs::remove_file(path).ok();
    }
    fs::symlink_metadata(path).is_err()
}

/// Move an unreadable dataset directory into `quarantine/` under a
/// unique name and drop a sibling `.reason.txt` explaining why.
pub(crate) fn quarantine(root: &Path, dir: &Path, reason: &str) -> io::Result<PathBuf> {
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
    entries(&root.join("quarantine")).iter().filter(|e| e.path().is_dir()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsck::{fsck, FsckOptions, IssueKind};
    use crate::{Repository, ResultStore};
    use nggc_gdm::{Attribute, Dataset, GRegion, Sample, Schema, Strand, ValueType};

    fn one_region(name: &str) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new(name, schema);
        ds.add_sample(Sample::new("s1", name).with_regions(vec![
            GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![0.5.into()]),
        ]))
        .unwrap();
        ds
    }

    fn seeded(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "nggc_recovery_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&root).ok();
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("DS", schema);
        ds.add_sample(Sample::new("s1", "DS").with_regions(vec![
            GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![0.5.into()]),
        ]))
        .unwrap();
        Repository::open(&root).unwrap().save(&ds).unwrap();
        root
    }

    /// Write `path` under `root`: a directory when it ends in `/`.
    fn plant(root: &Path, path: &str) {
        match path.strip_suffix('/') {
            Some(dir) => fs::create_dir_all(root.join(dir)).unwrap(),
            None => {
                fs::create_dir_all(root.join(path).parent().unwrap()).unwrap();
                fs::write(root.join(path), "half").unwrap();
            }
        }
    }

    /// The kinds of issue a plain fsck of `root` reports.
    fn fsck_kinds(root: &Path) -> Vec<IssueKind> {
        fsck(root, FsckOptions::default()).unwrap().issues.iter().map(|i| i.kind).collect()
    }

    #[test]
    fn open_repairs_what_fsck_would_report() {
        let healthy = RepoHealth { datasets_ok: 1, ..RepoHealth::default() };
        let torn = "{\"DS\": {";
        // (damage: paths planted, or a state file torn; what open says)
        let table: [(&[&str], Option<&str>, RepoHealth); 7] = [
            (&[], Some(CATALOG), RepoHealth { catalog_rebuilt: true, ..healthy.clone() }),
            (&[".tmp-1-catalog.json"], None, RepoHealth { swept: 1, ..healthy.clone() }),
            (&["datasets/DS/.tmp-1-data.gdm2"], None, RepoHealth { swept: 1, ..healthy.clone() }),
            (&["datasets/NEW/.tmp-1-data.gdm2"], None, RepoHealth { swept: 2, ..healthy.clone() }),
            (
                &["result_cache/.tmp-1-00000000000000aa"],
                None,
                RepoHealth { swept: 1, ..healthy.clone() },
            ),
            (&[".trash/DS-1-0/data.gdm2"], None, RepoHealth { swept: 1, ..healthy.clone() }),
            (&["datasets/.stage-1-DS/"], None, RepoHealth { swept: 1, ..healthy.clone() }),
        ];
        for (row, (planted, torn_file, health)) in table.into_iter().enumerate() {
            let root = seeded(&format!("agree_{row}"));
            planted.iter().for_each(|path| plant(&root, path));
            if let Some(file) = torn_file {
                fs::write(root.join(file), torn).unwrap();
            }
            let found = fsck_kinds(&root);
            assert!(!found.is_empty(), "row {row}: fsck sees no damage");
            assert_eq!(Repository::open(&root).unwrap().health(), &health, "row {row}");
            let left = fsck_kinds(&root);
            assert!(
                !left.contains(&IssueKind::TornCatalog) && !left.contains(&IssueKind::OrphanTemp),
                "row {row}: after open, fsck still reports {left:?}"
            );
            assert_eq!(Repository::open(&root).unwrap().health(), &healthy, "row {row}: again");
            fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn a_live_writers_files_survive_until_its_repository_is_dropped() {
        let root = seeded("live");
        let live = Repository::open(&root).unwrap();
        let staged = [
            "datasets/DS/.tmp-1-data.gdm2",
            "datasets/NEW/.tmp-1-data.gdm2",
            "result_cache/.tmp-1-00000000000000aa",
        ];
        staged.iter().for_each(|path| plant(&root, path));
        let second = Repository::open(&root).unwrap();
        assert_eq!(second.health().swept, 0);
        for repair in [false, true] {
            let report = fsck(&root, FsckOptions { deep: false, repair }).unwrap();
            assert!(report.is_clean(), "repair {repair}: {:?}", report.issues);
        }
        assert!(staged.iter().all(|path| root.join(path).exists()), "a live write was removed");
        drop((live, second));
        // The temp files, and NEW, which held nothing else.
        assert_eq!(Repository::open(&root).unwrap().health().swept, 4);
        assert!(staged.iter().all(|path| !root.join(path).exists()));
        assert!(fsck(&root, FsckOptions::default()).unwrap().is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_older_releases_catalog_and_mark_are_rebuilt_without_losing_a_dataset() {
        let root = seeded("older");
        Repository::open(&root).unwrap().save(&one_region("OTHER")).unwrap();
        // What an older release kept: a bare map of entries, and the next
        // generation in a file of its own.
        let bare = serde_json::to_string_pretty(&State::read(&root).datasets).unwrap();
        fs::write(root.join(CATALOG), bare).unwrap();
        fs::write(root.join("generations.json"), "{\"next\":3}").unwrap();
        let repo = Repository::open(&root).unwrap();
        let health = RepoHealth { datasets_ok: 2, catalog_rebuilt: true, ..RepoHealth::default() };
        assert_eq!(repo.health(), &health);
        let names: Vec<&str> = repo.list().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["DS", "OTHER"]);
        assert_eq!(repo.load("OTHER").unwrap().region_count(), 1);
        // Read by nothing, and left where it was.
        assert_eq!(fs::read_to_string(root.join("generations.json")).unwrap(), "{\"next\":3}");
        assert!(fsck(&root, FsckOptions::default()).unwrap().is_clean());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_result_stored_before_the_catalog_tore_is_not_served_after_the_rebuild() {
        let root = seeded("torn_result");
        let mut repo = Repository::open(&root).unwrap();
        repo.delete("DS").unwrap();
        repo.save(&one_region("DS")).unwrap();
        // A second name, sorted first: the rebuild below indexes it first
        // and hands DS the very generation the result is stored under.
        repo.save(&one_region("A")).unwrap();
        let stored = repo.generation("DS").unwrap();
        let store = ResultStore::open(root.join("result_cache"), 1 << 20);
        let outputs = std::collections::HashMap::from([("R".to_owned(), one_region("R"))]);
        store.store(7, &[("DS".to_owned(), stored)], &outputs).unwrap();
        drop(repo);
        fs::write(root.join(CATALOG), "{\"next\": 4, \"datasets\": {").unwrap();
        let repo = Repository::open(&root).unwrap();
        assert!(repo.health().catalog_rebuilt);
        assert_eq!(repo.generation("DS"), Some(stored), "the rebuild reuses the generation");
        let store = ResultStore::open(root.join("result_cache"), 1 << 20);
        assert!(
            store.lookup(7, &|name| repo.generation(name)).is_none(),
            "a stale result is served"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_writer_that_finds_the_catalog_torn_leaves_it_to_the_next_open() {
        let root = seeded("torn_writer");
        let mut repo = Repository::open(&root).unwrap();
        fs::write(root.join(CATALOG), "{").unwrap();
        let err = repo.save(&one_region("NEW")).unwrap_err();
        assert!(matches!(err, RepoError::Torn(_)) && err.to_string().contains("reopen"), "{err}");
        assert!(matches!(repo.delete("DS"), Err(RepoError::Torn(_))));
        assert_eq!(fs::read_to_string(root.join(CATALOG)).unwrap(), "{");
        assert!(!root.join("datasets/NEW").exists());
        drop(repo);
        let repo = Repository::open(&root).unwrap();
        assert!(repo.health().catalog_rebuilt);
        assert_eq!(repo.list().len(), 1);
        fs::remove_dir_all(&root).ok();
    }
}
