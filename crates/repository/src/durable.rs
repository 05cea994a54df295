//! Crash-atomic durable writes and deterministic crash injection.
//!
//! Every mutation the repository makes to disk goes through this
//! module, so the whole storage layer shares one durability protocol:
//!
//! [`atomic_write`] stages bytes into a sibling temp file, fsyncs the
//! file, renames it into place and fsyncs the parent directory. A crash
//! at any instant leaves either the old bytes or the new bytes, never a
//! torn file; a temp file a crash leaves behind is swept on the next
//! open or by fsck. Every file the repository keeps — catalog, dataset
//! containers, result-store entries — is written this way.
//!
//! ## Crash injection
//!
//! `NGGC_CRASHPOINT=<site>:<n>` makes the process abort (SIGABRT, no
//! destructors, no flushes — as close to `kill -9` at the worst instant
//! as a deterministic test can get) at the *n*-th execution of the
//! named fault [`crashpoint`]. Sites are placed immediately after each
//! state transition of the write protocols, so a test harness can kill
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
    // atomic_write (catalog.json, dataset containers, result-store
    // entries)
    "durable.staged",
    "durable.renamed",
    // catalog.rs save / delete protocols
    "save.catalog",
    "save.published",
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
    fn crashpoint_is_inert_without_env() {
        // The test runner must never have NGGC_CRASHPOINT set; every
        // registered site is then a no-op.
        for site in CRASH_SITES {
            crashpoint(site);
        }
    }
}
