//! End-to-end tests for the query result cache (docs/caching.md):
//! the serve-side in-memory layer (plan-fingerprint keyed, single
//! flight, generation invalidation) and the CLI's on-disk layer under
//! `<repo>/result_cache`.

#[path = "common/watchdog.rs"]
mod watchdog;

use nggc::gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, ValueType};
use nggc::repository::Repository;
use nggc::server::{
    Client, ServeConfig, ServeErrorKind, ServeStats, Server, ServerHandle, ServerReply,
};
use std::path::PathBuf;
use std::process::Command;
use watchdog::with_watchdog;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_rcache_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn dataset(name: &str, regions: usize) -> Dataset {
    let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
    let mut ds = Dataset::new(name, schema);
    let regions: Vec<GRegion> = (0..regions)
        .map(|i| {
            GRegion::new("chr1", (i * 100) as u64, (i * 100 + 50) as u64, Strand::Pos)
                .with_values(vec![(i as f64).into()])
        })
        .collect();
    ds.add_sample(
        Sample::new("s1", name)
            .with_regions(regions)
            .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
    )
    .unwrap();
    ds
}

fn repo_with(tag: &str, name: &str) -> (PathBuf, Repository) {
    let root = tmp(tag);
    {
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset(name, 64)).unwrap();
    }
    (root.clone(), Repository::open(&root).unwrap())
}

fn start(
    repo: Repository,
    config: ServeConfig,
) -> (String, ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", repo, config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

fn stats(client: &mut Client) -> ServeStats {
    match client.stats().unwrap() {
        ServerReply::Stats(s) => s,
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn identical_requery_is_answered_from_cache() {
    with_watchdog("rcache_hit", 60, || {
        let (root, repo) = repo_with("hit", "PEAKS");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();

        let q = "A = SELECT() PEAKS; R = SELECT(region: score >= 0) A; MATERIALIZE R;";
        match client.query(q, None, None, 2).unwrap() {
            ServerReply::Result { cached, outputs, .. } => {
                assert!(!cached, "first run must execute");
                assert_eq!(outputs[0].regions, 64);
            }
            other => panic!("expected Result, got {other:?}"),
        }
        // Different whitespace and a renamed intermediate variable, same
        // optimized plan and same materialized name: the fingerprint
        // must collide on purpose.
        let respelled =
            "B  =  SELECT()   PEAKS;\nR = SELECT(region: score >= 0) B;\nMATERIALIZE R;";
        match client.query(respelled, None, None, 2).unwrap() {
            ServerReply::Result { cached, outputs, trace_id, .. } => {
                assert!(cached, "respelled re-query must be a cache hit");
                assert!(trace_id != 0, "hits still carry a trace id");
                assert_eq!(outputs[0].regions, 64, "cached reply carries the same outputs");
            }
            other => panic!("expected Result, got {other:?}"),
        }
        let s = stats(&mut client);
        assert_eq!(s.result_cache_hits, 1, "{s:?}");
        assert_eq!(s.result_cache_misses, 1, "{s:?}");
        assert_eq!(s.result_cache_entries, 1, "{s:?}");
        assert!(s.result_cache_bytes > 0 && s.result_cache_bytes <= s.result_cache_capacity);

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn concurrent_identical_misses_coalesce_into_one_execution() {
    with_watchdog("rcache_coalesce", 60, || {
        let (root, repo) = repo_with("coalesce", "COAL");
        let (addr, handle, runner) = start(repo, ServeConfig::default());

        const N: usize = 10;
        let clients: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    client.query("R = SELECT() COAL; MATERIALIZE R;", None, None, 0).unwrap()
                })
            })
            .collect();
        for c in clients {
            match c.join().unwrap() {
                ServerReply::Result { outputs, .. } => assert_eq!(outputs[0].regions, 64),
                other => panic!("expected Result, got {other:?}"),
            }
        }
        let mut client = Client::connect(&addr).unwrap();
        let s = stats(&mut client);
        assert_eq!(s.result_cache_misses, 1, "exactly one execution: {s:?}");
        assert_eq!(
            s.result_cache_hits + s.result_cache_coalesced,
            (N - 1) as u64,
            "everyone else rides it: {s:?}"
        );

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn no_cache_bypasses_lookup_and_population() {
    with_watchdog("rcache_bypass", 60, || {
        let (root, repo) = repo_with("bypass", "BYP");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();

        let q = "R = SELECT() BYP; MATERIALIZE R;";
        for _ in 0..2 {
            match client.query_full(q, None, None, 0, true).unwrap() {
                ServerReply::Result { cached, .. } => assert!(!cached, "no_cache must execute"),
                other => panic!("expected Result, got {other:?}"),
            }
        }
        let s = stats(&mut client);
        assert_eq!(s.result_cache_hits, 0, "{s:?}");
        assert_eq!(s.result_cache_misses, 0, "bypass never consults the cache: {s:?}");
        assert_eq!(s.result_cache_entries, 0, "bypass never populates: {s:?}");

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn results_larger_than_the_budget_are_never_cached() {
    with_watchdog("rcache_oversize", 60, || {
        let (root, repo) = repo_with("oversize", "BIG");
        // A 64-byte cache cannot hold any real result; every request
        // must execute and the cache must stay empty.
        let config = ServeConfig { result_cache_bytes: 64, ..ServeConfig::default() };
        let (addr, handle, runner) = start(repo, config);
        let mut client = Client::connect(&addr).unwrap();

        let q = "R = SELECT() BIG; MATERIALIZE R;";
        for _ in 0..2 {
            match client.query(q, None, None, 0).unwrap() {
                ServerReply::Result { cached, .. } => assert!(!cached),
                other => panic!("expected Result, got {other:?}"),
            }
        }
        let s = stats(&mut client);
        assert_eq!(s.result_cache_entries, 0, "{s:?}");
        assert_eq!(s.result_cache_bytes, 0, "{s:?}");
        assert_eq!(s.result_cache_misses, 2, "both runs executed: {s:?}");
        assert_eq!(s.result_cache_capacity, 64, "{s:?}");

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn save_delete_and_migrate_invalidate_cached_results() {
    with_watchdog("rcache_invalidate", 60, || {
        // Component-level: the in-memory cache revalidates entries
        // against the repository's generation counters on every lookup,
        // so any mutation path that bumps (or removes) a generation
        // invalidates without explicit hooks.
        let root = tmp("invalidate");
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset("GENES", 8)).unwrap();

        let cache = nggc::gmql::ResultCache::new(1 << 20);
        let key = 0xfeed;
        let outputs: std::collections::HashMap<String, Dataset> =
            [("R".to_owned(), dataset("R", 1))].into();

        let fill = |repo: &Repository| {
            let gens = vec![("GENES".to_owned(), repo.generation("GENES").unwrap())];
            cache.insert(key, gens, std::sync::Arc::new(outputs.clone()));
            assert!(cache.lookup(key, &|n| repo.generation(n)).is_some(), "fresh entry must hit");
        };

        // Save bumps the generation → stale.
        fill(&repo);
        repo.save(&dataset("GENES", 9)).unwrap();
        assert!(cache.lookup(key, &|n| repo.generation(n)).is_none(), "save must invalidate");

        // Migrate rewrites through save → stale.
        fill(&repo);
        repo.migrate("GENES").unwrap();
        assert!(cache.lookup(key, &|n| repo.generation(n)).is_none(), "migrate must invalidate");

        // Delete removes the generation entirely → stale, and a
        // recreated dataset never reuses the old generation.
        fill(&repo);
        let gen_before = repo.generation("GENES").unwrap();
        repo.delete("GENES").unwrap();
        assert!(cache.lookup(key, &|n| repo.generation(n)).is_none(), "delete must invalidate");
        repo.save(&dataset("GENES", 8)).unwrap();
        assert!(repo.generation("GENES").unwrap() > gen_before, "generations never reused");

        let stats = cache.stats();
        assert_eq!(stats.invalidations, 3, "{stats:?}");
        std::fs::remove_dir_all(&root).ok();
    });
}

/// Drive the real binary: the CLI's on-disk result cache answers the
/// second invocation of an identical query across processes, and an
/// import (save) invalidates it.
#[test]
fn cli_disk_cache_hits_across_processes_and_invalidates_on_import() {
    with_watchdog("rcache_cli", 120, || {
        let root = tmp("cli");
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("PEAKS", 16)).unwrap();
        }
        let run = |args: &[&str]| {
            let out = Command::new(env!("CARGO_BIN_EXE_nggc"))
                .arg("--repo")
                .arg(&root)
                .args(args)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "nggc {args:?} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        };

        let q = "R = SELECT() PEAKS; MATERIALIZE R;";
        let first = run(&["query", "-e", q]);
        assert!(!first.contains("cached"), "first run executes:\n{first}");
        let second = run(&["query", "-e", q]);
        assert!(second.contains(", cached)"), "second run hits the disk cache:\n{second}");
        assert!(root.join("result_cache").is_dir(), "store lives under the repository root");
        // --no-cache bypasses even a warm store.
        let bypassed = run(&["query", "--no-cache", "-e", q]);
        assert!(!bypassed.contains("cached"), "--no-cache executes:\n{bypassed}");

        // A mutation of the source dataset invalidates: import appends
        // a sample to PEAKS, bumping its generation.
        let bed = root.join("peaks.bed");
        std::fs::write(&bed, "chr1\t10\t20\tname\t5\t+\n").unwrap();
        run(&["import", bed.to_str().unwrap(), "PEAKS"]);
        let after = run(&["query", "-e", q]);
        assert!(!after.contains(", cached)"), "stale entry must not answer after import:\n{after}");

        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn cache_hits_skip_admission_even_when_the_pool_is_pinned() {
    with_watchdog("rcache_pinned", 60, || {
        let (root, repo) = repo_with("pinned", "PIN");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();

        let q = "R = SELECT() PIN; MATERIALIZE R;";
        match client.query(q, None, None, 0).unwrap() {
            ServerReply::Result { cached, .. } => assert!(!cached),
            other => panic!("expected Result, got {other:?}"),
        }
        // Pin the entire pool: an executing query could not reserve a
        // single byte, but a hit never touches the pool. (The cached
        // entry's bytes were carved from the pool at insert time, so pin
        // whatever remains.)
        let pool = handle.memory_pool();
        let remaining = pool.capacity() - pool.reserved();
        let _pin = pool.reserve(remaining).unwrap();
        match client.query(q, None, None, 0).unwrap() {
            ServerReply::Result { cached, .. } => assert!(cached, "hit despite exhausted pool"),
            other => panic!("expected Result, got {other:?}"),
        }

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn cache_yields_bytes_back_to_the_pool_under_query_pressure() {
    with_watchdog("rcache_shrink", 60, || {
        let (root, repo) = repo_with("shrink", "SHR");
        // Pool and cache share the same small arena, so the cached
        // entry plus a full-pool budget request cannot coexist.
        let config = ServeConfig {
            mem_pool_bytes: 1 << 20,
            result_cache_bytes: 1 << 20,
            ..ServeConfig::default()
        };
        let (addr, handle, runner) = start(repo, config);
        let mut client = Client::connect(&addr).unwrap();

        let q = "R = SELECT() SHR; MATERIALIZE R;";
        match client.query(q, None, None, 0).unwrap() {
            ServerReply::Result { cached, .. } => assert!(!cached),
            other => panic!("expected Result, got {other:?}"),
        }
        let cached_bytes = stats(&mut client).result_cache_bytes;
        assert!(cached_bytes > 0, "result landed in the cache");
        // A fresh (different) query asking for the whole pool forces the
        // cache to evict; queries outrank cached results.
        let big = "R = SELECT() SHR; S = SELECT(region: score > 1) R; MATERIALIZE S;";
        match client.query_full(big, None, Some(1 << 20), 0, true).unwrap() {
            ServerReply::Result { .. } | ServerReply::Error { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
        let s = stats(&mut client);
        assert_eq!(s.result_cache_bytes, 0, "cache yielded its bytes: {s:?}");
        assert!(s.result_cache_evictions >= 1, "{s:?}");
        assert_eq!(handle.memory_pool().reserved(), 0, "pool drains after the query");

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

/// The on-disk store is a cache: a write that fails must cost the next
/// process a miss, not this one its result. A regular file where the
/// store's directory belongs makes every write fail, also for root (a
/// read-only directory would not stop root).
#[test]
fn cli_query_survives_a_result_cache_it_cannot_write() {
    with_watchdog("rcache_unwritable", 120, || {
        let root = tmp("unwritable");
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("PEAKS", 16)).unwrap();
        }
        let store = root.join("result_cache");
        std::fs::remove_dir_all(&store).ok();
        std::fs::write(&store, b"not a directory").unwrap();

        let out = Command::new(env!("CARGO_BIN_EXE_nggc"))
            .arg("--repo")
            .arg(&root)
            .args(["query", "-e", "R = SELECT() PEAKS; MATERIALIZE R;"])
            .output()
            .unwrap();
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "a cache write failure failed the query:\n{stderr}");
        assert!(stdout.contains("== R ::") && stdout.contains("16 regions"), "{stdout}");
        let warnings: Vec<&str> = stderr.lines().filter(|l| l.starts_with("warning:")).collect();
        assert_eq!(warnings.len(), 1, "one warning line:\n{stderr}");
        assert!(warnings[0].contains("result cache"), "{stderr}");
        assert!(store.is_file(), "the file in the store's place is left alone");
        std::fs::remove_dir_all(&root).ok();
    });
}

/// The one query path's serve-side guarantees: a hit or a coalesced wait
/// never passes admission or the memory pool — with one in-flight slot
/// and no queue, ten identical concurrent requests are all answered — and
/// a draining server refuses a query before its cache is asked.
#[test]
fn answers_from_the_cache_never_queue_and_draining_refuses_first() {
    with_watchdog("rcache_no_admission", 60, || {
        let (root, repo) = repo_with("no_admission", "ADM");
        let config = ServeConfig { max_inflight: 1, max_queue: 0, ..ServeConfig::default() };
        let (addr, handle, runner) = start(repo, config);
        let q = "R = SELECT() ADM; MATERIALIZE R;";

        const N: usize = 10;
        let clients: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || Client::connect(&addr).unwrap().query(q, None, None, 0))
            })
            .collect();
        for c in clients {
            match c.join().unwrap().unwrap() {
                ServerReply::Result { outputs, .. } => assert_eq!(outputs[0].regions, 64),
                other => panic!("an answer from the cache went through admission: {other:?}"),
            }
        }
        let mut client = Client::connect(&addr).unwrap();
        let s = stats(&mut client);
        assert_eq!(s.result_cache_misses, 1, "{s:?}");
        assert_eq!(s.rejected, 0, "{s:?}");

        // Drain: the cached answer is not given out any more.
        handle.admission().begin_shutdown();
        match client.query(q, None, None, 0).unwrap() {
            ServerReply::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::ShuttingDown),
            other => panic!("a draining server answered from its cache: {other:?}"),
        }
        assert_eq!(stats(&mut client).result_cache_hits, s.result_cache_hits, "cache not asked");

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}
