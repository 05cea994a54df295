//! Crash-atomic durable writes and deterministic crash injection.
//!
//! Every mutation the repository makes to disk goes through this
//! module, so the whole storage layer shares one durability protocol:
//!
//! * [`atomic_write`] — stage bytes into a sibling temp file, fsync the
//!   file, rename it into place, fsync the parent directory. A crash at
//!   any instant leaves either the old bytes or the new bytes, never a
//!   torn file.
//! * [`atomic_replace_dir`] — the same contract for whole directories
//!   (dataset containers): the staged tree is fsynced recursively, the
//!   old directory is renamed into a `.trash` staging area, the new one
//!   renamed in, and the parent fsynced. Trash is swept afterwards;
//!   leftovers from a crash are swept on the next open or by fsck.
//!
//! ## Crash injection
//!
//! `NGGC_CRASHPOINT=<site>:<n>` makes the process abort (SIGABRT, no
//! destructors, no flushes — as close to `kill -9` at the worst instant
//! as a deterministic test can get) at the *n*-th execution of the
//! named fault [`crashpoint`]. Sites are placed immediately after each
//! state transition of the protocols above, so a test harness can kill
//! a real `nggc` binary between any two steps and assert recovery. The
//! registered sites are listed in [`CRASH_SITES`]; `nggc fsck
//! --crashpoints` prints them for CI matrices.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable arming the crash-injection hook:
/// `<site>:<n>` aborts at the n-th hit of `site` (1-based).
pub const CRASHPOINT_ENV: &str = "NGGC_CRASHPOINT";

/// Every registered fault site, in the order a `save` hits them. Test
/// harnesses iterate this list; keep it in sync with the `crashpoint`
/// calls below and in `catalog.rs`.
pub const CRASH_SITES: &[&str] = &[
    // atomic_write (catalog.json, generations.json, result-store entries)
    "durable.staged",
    "durable.renamed",
    // atomic_replace_dir (dataset containers only: a result-store entry
    // is one file)
    "replace.staged",
    "replace.trashed",
    "replace.renamed",
    // catalog.rs save / delete protocols
    "save.generations",
    "save.catalog",
    "save.swapped",
    "delete.cataloged",
    "delete.trashed",
];

fn armed() -> Option<&'static (String, u64)> {
    static SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
    SPEC.get_or_init(|| {
        let raw = std::env::var(CRASHPOINT_ENV).ok()?;
        let (site, n) = raw.split_once(':')?;
        let n: u64 = n.parse().ok()?;
        (n > 0).then(|| (site.to_string(), n))
    })
    .as_ref()
}

/// Deterministic fault site: aborts the process at the n-th hit of
/// `site` when `NGGC_CRASHPOINT=<site>:<n>` is set; a no-op otherwise.
pub fn crashpoint(site: &str) {
    static HITS: AtomicU64 = AtomicU64::new(0);
    if let Some((armed_site, n)) = armed() {
        if armed_site == site {
            let hit = HITS.fetch_add(1, Ordering::SeqCst) + 1;
            if hit == *n {
                eprintln!("crashpoint {site}:{n} reached, aborting");
                std::process::abort();
            }
        }
    }
}

fn fsync_counter() {
    nggc_obs::global().counter("nggc_repo_fsync_total").inc();
}

/// Fsync an already-open file, counting it in `nggc_repo_fsync_total`.
pub fn fsync_file(f: &fs::File) -> io::Result<()> {
    f.sync_all()?;
    fsync_counter();
    Ok(())
}

/// Fsync a directory so renames inside it are durable. On platforms
/// where directories cannot be opened for sync this is a no-op.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let f = fs::File::open(dir)?;
        f.sync_all()?;
        fsync_counter();
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// Fsync every regular file under `dir`, then each directory bottom-up,
/// so a subsequent rename of `dir` publishes fully durable contents.
pub fn fsync_dir_recursive(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            fsync_dir_recursive(&path)?;
        } else {
            fsync_file(&fs::File::open(&path)?)?;
        }
    }
    fsync_dir(dir)
}

/// Sibling temp path for staging a write to `path`; same directory so
/// the final rename never crosses a filesystem boundary.
fn staging_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    path.with_file_name(format!(".tmp-{}-{}", std::process::id(), name))
}

/// Durably replace the contents of `path` with `bytes`: write a sibling
/// temp file, fsync it, rename over `path`, fsync the parent directory.
/// A crash at any point leaves either the previous file or the new one.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty()).map(Path::to_path_buf);
    if let Some(parent) = &parent {
        fs::create_dir_all(parent)?;
    }
    let tmp = staging_path(path);
    {
        use std::io::Write;
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        crashpoint("durable.staged");
        fsync_file(&f)?;
    }
    fs::rename(&tmp, path)?;
    crashpoint("durable.renamed");
    if let Some(parent) = &parent {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Move `path` into `trash_root` under a unique name, creating the
/// trash directory if needed. Returns the trashed path.
pub fn move_to_trash(path: &Path, trash_root: &Path) -> io::Result<PathBuf> {
    fs::create_dir_all(trash_root)?;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dest = trash_root.join(format!("{name}-{}-{seq}", std::process::id()));
    fs::rename(path, &dest)?;
    Ok(dest)
}

/// Durably replace directory `dest` with the fully-written `staging`
/// tree. The staged files are fsynced, any existing `dest` is renamed
/// into `trash_root` (never deleted in place), `staging` is renamed to
/// `dest`, the parent is fsynced, and only then is the trash removed.
/// A crash at any point leaves `dest` as either the old tree, absent
/// with the old tree intact in trash, or the new tree — never a blend.
pub fn atomic_replace_dir(staging: &Path, dest: &Path, trash_root: &Path) -> io::Result<()> {
    fsync_dir_recursive(staging)?;
    crashpoint("replace.staged");
    let trashed = if dest.exists() {
        let t = move_to_trash(dest, trash_root)?;
        crashpoint("replace.trashed");
        Some(t)
    } else {
        None
    };
    fs::rename(staging, dest)?;
    crashpoint("replace.renamed");
    if let Some(parent) = dest.parent().filter(|p| !p.as_os_str().is_empty()) {
        fsync_dir(parent)?;
    }
    if let Some(trashed) = trashed {
        fs::remove_dir_all(&trashed).ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nggc_durable_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = tmp("aw");
        let path = dir.join("catalog.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "staging files must not survive a successful write");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_replace_dir_swaps_whole_trees() {
        let dir = tmp("ard");
        let dest = dir.join("ds");
        let trash = dir.join(".trash");
        fs::create_dir_all(&dest).unwrap();
        fs::write(dest.join("data"), b"old").unwrap();
        let staging = dir.join(".stage");
        fs::create_dir_all(staging.join("nested")).unwrap();
        fs::write(staging.join("data"), b"new").unwrap();
        fs::write(staging.join("nested/extra"), b"x").unwrap();
        atomic_replace_dir(&staging, &dest, &trash).unwrap();
        assert_eq!(fs::read(dest.join("data")).unwrap(), b"new");
        assert_eq!(fs::read(dest.join("nested/extra")).unwrap(), b"x");
        assert!(!staging.exists());
        // Trash is swept after a successful swap.
        let trashed = trash.exists() && fs::read_dir(&trash).unwrap().next().is_some();
        assert!(!trashed, "trash must be empty after a clean replace");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashpoint_is_inert_without_env() {
        // The test runner must never have NGGC_CRASHPOINT set; every
        // registered site is then a no-op.
        for site in CRASH_SITES {
            crashpoint(site);
        }
    }
}
