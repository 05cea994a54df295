//! Acceptance tests for `nggc serve` — the concurrent multi-client
//! query service (docs/serving.md).
//!
//! Covers the ISSUE-7 acceptance criteria: ≥8 concurrent clients
//! through admission, typed retry-after rejection above the in-flight
//! cap, per-query governor budgets carved from the server-wide pool
//! (one client trips its budget while the rest succeed), concurrent
//! cold loads hitting disk exactly once, and SIGTERM draining the real
//! binary to exit 0.

#[path = "common/flight.rs"]
mod flight;
#[path = "common/watchdog.rs"]
mod watchdog;

use nggc::gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, ValueType};
use nggc::repository::Repository;
use nggc::server::{
    Client, FlightRecorder, ServeConfig, ServeErrorKind, Server, ServerHandle, ServerReply,
};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;
use watchdog::with_watchdog;

/// Serve tests share the process-global metrics registry; serialize
/// them so counter deltas stay attributable.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_serve_{tag}_{}", std::process::id()));
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

/// A repository on disk with one saved dataset, reopened cold.
fn cold_repo(tag: &str, name: &str) -> (PathBuf, Repository) {
    let root = tmp(tag);
    {
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&dataset(name, 64)).unwrap();
    }
    (root.clone(), Repository::open(&root).unwrap())
}

/// Start a server on an ephemeral port; returns its address, handle,
/// and the `run()` thread (joined by the caller after shutdown).
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

#[test]
fn eight_concurrent_clients_share_one_cold_load() {
    let _guard = test_lock();
    with_watchdog("eight_concurrent_clients", 60, || {
        let (root, repo) = cold_repo("concurrent", "PEAKS");
        let reg = nggc::obs::global();
        let loads0 = reg.counter("nggc_repo_loads_total").get();
        let (addr, handle, runner) = start(repo, ServeConfig::default());

        const N: usize = 10;
        let clients: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    client.query("R = SELECT() PEAKS; MATERIALIZE R;", None, None, 2).unwrap()
                })
            })
            .collect();
        for c in clients {
            match c.join().unwrap() {
                ServerReply::Result { outputs, trace_id, .. } => {
                    assert!(trace_id != 0, "every request runs under a trace");
                    assert_eq!(outputs.len(), 1);
                    assert_eq!(outputs[0].samples, 1);
                    assert_eq!(outputs[0].regions, 64);
                    assert_eq!(outputs[0].head.len(), 2, "head rows as requested");
                }
                other => panic!("expected Result, got {other:?}"),
            }
        }
        // All ten concurrent queries read PEAKS from disk exactly once:
        // the single-flight leader loads, everyone else shares its Arc.
        assert_eq!(
            reg.counter("nggc_repo_loads_total").get() - loads0,
            1,
            "concurrent cold loads must hit disk exactly once"
        );
        assert!(reg.counter("nggc_serve_requests_total").get() >= N as u64);

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

/// Three chromosomes, two samples, `per_chrom` regions per chromosome
/// and sample at `left = 0, 100, 200, …`.
fn three_chrom_dataset(name: &str, per_chrom: usize) -> Dataset {
    let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
    let mut ds = Dataset::new(name, schema);
    for sample in ["s1", "s2"] {
        let regions: Vec<GRegion> = ["chr1", "chr2", "chr3"]
            .iter()
            .flat_map(|chrom| {
                (0..per_chrom).map(move |i| {
                    GRegion::new(*chrom, (i * 100) as u64, (i * 100 + 50) as u64, Strand::Pos)
                        .with_values(vec![(i as f64).into()])
                })
            })
            .collect();
        ds.add_sample(Sample::new(sample, name).with_regions(regions)).unwrap();
    }
    ds
}

#[test]
fn window_query_is_the_same_cold_and_resident_and_scans_only_its_window() {
    let _guard = test_lock();
    with_watchdog("window_query_cold_and_resident", 60, || {
        const PER_CHROM: usize = 400;
        let root = tmp("window");
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&three_chrom_dataset("PEAKS", PER_CHROM)).unwrap();
        }
        let dataset_regions = (2 * 3 * PER_CHROM) as u64;
        let (addr, handle, runner) =
            start(Repository::open(&root).unwrap(), ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();
        let scanned = |client: &mut Client| match client.stats().unwrap() {
            ServerReply::Stats(s) => s.select_regions_scanned,
            other => panic!("expected Stats, got {other:?}"),
        };
        let ask = |client: &mut Client, text: &str| {
            let before = scanned(client);
            // `no_cache`: every query below is executed, never replayed.
            match client.query_full(text, None, None, 10_000, true).unwrap() {
                ServerReply::Result { outputs, .. } => (outputs, scanned(client) - before),
                other => panic!("expected Result, got {other:?}"),
            }
        };
        // left 10 000 … 19 900 is 100 regions per sample; `right <= 19 950`
        // keeps them all, `score` drops the first.
        let window = "R = SELECT(region: chr == 'chr2' AND left >= 10000 AND right <= 19950 \
                      AND score > 100) PEAKS; MATERIALIZE R;";
        let loads0 = nggc::obs::global().counter("nggc_scan_pruned_total").get();

        // Cold: the container's chromosome index delivers chr2 only.
        let (cold, cold_scanned) = ask(&mut client, window);
        assert_eq!(nggc::obs::global().counter("nggc_scan_pruned_total").get() - loads0, 1);
        assert_eq!((cold[0].samples, cold[0].regions), (2, 2 * 99));
        assert_eq!(cold_scanned, 2 * 100, "the predicate saw the window, not the chromosome");

        // A full read makes the dataset resident …
        let (full, full_scanned) = ask(&mut client, "R = SELECT() PEAKS; MATERIALIZE R;");
        assert_eq!(full[0].regions as u64, dataset_regions);
        assert_eq!(full_scanned, dataset_regions, "no predicate: the window is everything");

        // … and the same query is now answered from the full copy, sliced
        // by sort order: same reply, same 200 regions looked at.
        let (resident, resident_scanned) = ask(&mut client, window);
        assert_eq!(nggc::obs::global().counter("nggc_scan_pruned_total").get() - loads0, 1);
        assert_eq!(resident, cold);
        assert_eq!(resident_scanned, 2 * 100);
        assert!(resident_scanned < dataset_regions);

        // A chromosome alone: its run; a bound alone: one window per
        // chromosome present.
        let (chr3, chr3_scanned) =
            ask(&mut client, "R = SELECT(region: chr == 'chr3') PEAKS; MATERIALIZE R;");
        assert_eq!((chr3[0].regions, chr3_scanned), (2 * PER_CHROM, 2 * PER_CHROM as u64));
        let (tail, tail_scanned) =
            ask(&mut client, "R = SELECT(region: left >= 39000) PEAKS; MATERIALIZE R;");
        assert_eq!((tail[0].regions, tail_scanned), (2 * 3 * 10, 2 * 3 * 10));

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

/// serve and the CLI share one provider, so a pruned load is pre-checked
/// at the share of the dataset it would materialise — not, as serve used
/// to, at the catalog estimate of the whole dataset. Under a budget the
/// dataset does not fit in, a one-chromosome query and a one-cell query
/// are answered; the unrestricted one is still refused up front.
#[test]
fn selective_queries_fit_a_budget_the_whole_dataset_does_not() {
    let _guard = test_lock();
    with_watchdog("selective_under_budget", 60, || {
        const PER_BLOCK: usize = 500;
        let cells = ["HeLa", "K562", "HeLa", "GM12878"];
        let mut ds = Dataset::new("WIDE", Schema::empty());
        for (s, cell) in cells.iter().enumerate() {
            let regions: Vec<GRegion> = ["chr1", "chr2", "chr3", "chr4"]
                .iter()
                .flat_map(|chrom| {
                    (0..PER_BLOCK).map(move |i| {
                        GRegion::new(*chrom, (i * 100) as u64, (i * 100 + 50) as u64, Strand::Pos)
                    })
                })
                .collect();
            ds.add_sample(
                Sample::new(format!("s{s}"), "WIDE")
                    .with_regions(regions)
                    .with_metadata(Metadata::from_pairs([("cell", *cell)])),
            )
            .unwrap();
        }
        let root = tmp("selective");
        Repository::open(&root).unwrap().save(&ds).unwrap();
        let repo = Repository::open(&root).unwrap();
        let full = repo.entry("WIDE").unwrap().stats.bytes as u64;
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();
        // A quarter of the dataset for the source and a quarter for
        // SELECT's output fit; the dataset does not.
        let budget = Some(full * 3 / 4);
        let mut ask = |text: &str| client.query_full(text, None, budget, 0, true).unwrap();

        let samples_skipped =
            || nggc::obs::global().counter("nggc_scan_samples_skipped_total").get();
        let skipped0 = samples_skipped();
        match ask("R = SELECT(region: chr == 'chr3') WIDE; MATERIALIZE R;") {
            ServerReply::Result { outputs, .. } => {
                assert_eq!((outputs[0].samples, outputs[0].regions), (4, 4 * PER_BLOCK));
            }
            other => panic!("a one-chromosome query must fit, got {other:?}"),
        }
        assert_eq!(samples_skipped(), skipped0, "no sample axis, no sample skipped");
        match ask("R = SELECT(cell == 'K562') WIDE; MATERIALIZE R;") {
            ServerReply::Result { outputs, .. } => {
                assert_eq!((outputs[0].samples, outputs[0].regions), (1, 4 * PER_BLOCK));
            }
            other => panic!("a one-cell query must fit, got {other:?}"),
        }
        assert_eq!(samples_skipped() - skipped0, 3, "three samples never left the disk");
        match ask("R = SELECT(region: left >= 0) WIDE; MATERIALIZE R;") {
            ServerReply::Error { kind, message, .. } => {
                assert_eq!(kind, ServeErrorKind::MemoryExhausted);
                assert!(message.contains("LOAD WIDE"), "refused at the load: {message}");
            }
            other => panic!("the whole dataset must be refused, got {other:?}"),
        }

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn admission_rejects_above_cap_with_retry_after() {
    let _guard = test_lock();
    with_watchdog("admission_rejects", 60, || {
        let (root, repo) = cold_repo("admission", "ADM");
        let config = ServeConfig {
            max_inflight: 2,
            max_queue: 0,
            retry_after: Duration::from_millis(250),
            ..ServeConfig::default()
        };
        let (addr, handle, runner) = start(repo, config);
        let mut client = Client::connect(&addr).unwrap();

        // Pin the whole in-flight capacity, as a saturated server would.
        let held: Vec<_> = (0..2).map(|_| handle.admission().try_admit().unwrap()).collect();
        match client.query("R = SELECT() ADM; MATERIALIZE R;", None, None, 0).unwrap() {
            ServerReply::Error { kind, retry_after_ms, .. } => {
                assert_eq!(kind, ServeErrorKind::Rejected);
                assert_eq!(retry_after_ms, Some(250), "rejection carries the back-off hint");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // Capacity returned: the same connection now succeeds.
        drop(held);
        match client.query("R = SELECT() ADM; MATERIALIZE R;", None, None, 0).unwrap() {
            ServerReply::Result { .. } => {}
            other => panic!("expected Result after capacity freed, got {other:?}"),
        }

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn one_budget_trip_does_not_disturb_other_clients() {
    let _guard = test_lock();
    with_watchdog("budget_trip", 60, || {
        let (root, repo) = cold_repo("budget", "BUD");
        let (addr, handle, runner) = start(repo, ServeConfig::default());

        // Eight concurrent clients: one with a 16-byte budget that no
        // real dataset fits, seven unconstrained. The starved client
        // bypasses the result cache — a cache hit costs no execution
        // memory, so riding a peer's result would (correctly) not trip
        // its governor, and this test is about the trip's isolation.
        let clients: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let budget = if i == 0 { Some(16) } else { None };
                    client
                        .query_full("R = SELECT() BUD; MATERIALIZE R;", None, budget, 0, i == 0)
                        .unwrap()
                })
            })
            .collect();
        let replies: Vec<ServerReply> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        match &replies[0] {
            ServerReply::Error { kind, .. } => {
                assert_eq!(*kind, ServeErrorKind::MemoryExhausted, "16 B budget must trip");
            }
            other => panic!("expected MemoryExhausted for the starved client, got {other:?}"),
        }
        for reply in &replies[1..] {
            assert!(
                matches!(reply, ServerReply::Result { .. }),
                "an unconstrained client was disturbed: {reply:?}"
            );
        }

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn budgets_carve_from_the_server_pool() {
    let _guard = test_lock();
    with_watchdog("pool_carve", 60, || {
        let (root, repo) = cold_repo("pool", "POOL");
        let config = ServeConfig { mem_pool_bytes: 1024, ..ServeConfig::default() };
        let (addr, handle, runner) = start(repo, config);
        let mut client = Client::connect(&addr).unwrap();

        // A request whose budget exceeds the whole pool is refused as
        // retryable before any execution.
        match client.query("R = SELECT() POOL; MATERIALIZE R;", None, Some(4096), 0).unwrap() {
            ServerReply::Error { kind, retry_after_ms, .. } => {
                assert_eq!(kind, ServeErrorKind::PoolExhausted);
                assert!(retry_after_ms.is_some());
            }
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        // Pin most of the pool; a fitting budget still passes the pool
        // gate (and then trips its own tiny governor — proving the
        // reservation, not the dataset, was the constraint above).
        let reservation = handle.memory_pool().reserve(1000).unwrap();
        match client.query("R = SELECT() POOL; MATERIALIZE R;", None, Some(24), 0).unwrap() {
            ServerReply::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::MemoryExhausted),
            other => panic!("expected MemoryExhausted, got {other:?}"),
        }
        drop(reservation);
        assert_eq!(handle.memory_pool().reserved(), 0, "reservations return on drop");

        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn zero_deadline_trips_typed_deadline_error() {
    let _guard = test_lock();
    with_watchdog("deadline", 60, || {
        let (root, repo) = cold_repo("deadline", "DL");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();
        match client.query("R = SELECT() DL; MATERIALIZE R;", Some(0), None, 0).unwrap() {
            ServerReply::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

/// The flight recorder armed in `ServeConfig` (docs/observability.md):
/// one collector serves every request, and each record must hold its
/// own request's spans only — in the schema the CLI writes.
#[test]
fn flight_records_of_concurrent_requests_keep_to_their_own_trace() {
    let _guard = test_lock();
    with_watchdog("flight", 60, || {
        let (root, repo) = cold_repo("flight", "FL");
        let sink = root.join("flight.jsonl");
        let flight = FlightRecorder { threshold: Some(Duration::ZERO), sink: Some(sink.clone()) };
        let (addr, handle, runner) =
            start(repo, ServeConfig { flight: Some(flight), ..ServeConfig::default() });
        let clients: Vec<_> = ["left >= 0", "left >= 100"]
            .into_iter()
            .map(|predicate| {
                let addr = addr.clone();
                let query = format!("R = SELECT(region: {predicate}) FL; MATERIALIZE R;");
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    match client.query(&query, None, None, 0).unwrap() {
                        ServerReply::Result { trace_id, .. } => (query, trace_id),
                        other => panic!("expected Result, got {other:?}"),
                    }
                })
            })
            .collect();
        let replies: Vec<(String, u64)> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        handle.shutdown();
        runner.join().unwrap().unwrap();
        nggc::obs::clear_subscribers();

        let records = flight::read_records(&sink);
        assert_eq!(records.len(), 2, "a zero threshold records every executed request");
        for (query, trace_id) in &replies {
            let record = records
                .iter()
                .find(|r| flight::number(flight::get(r, "trace_id")) == *trace_id)
                .unwrap_or_else(|| panic!("no record for trace {trace_id:x}"));
            assert_eq!(flight::text_of(flight::get(record, "outcome")), "slow");
            assert_eq!(flight::text_of(flight::get(record, "query")), query);
            let trace = flight::items(flight::get(record, "trace"));
            assert!(
                trace.iter().all(|s| flight::number(flight::get(s, "trace_id")) == *trace_id),
                "a record holds only its own request's spans"
            );
            let spans: Vec<&str> =
                trace.iter().map(|s| flight::text_of(flight::get(s, "name"))).collect();
            assert_eq!(spans.iter().filter(|name| **name == "serve.request").count(), 1);
            assert!(spans.contains(&"exec.plan"), "{spans:?}");
            assert_eq!(flight::items(flight::get(record, "nodes")).len(), 2, "SOURCE and SELECT");
        }
        assert_ne!(replies[0].1, replies[1].1);
        std::fs::remove_dir_all(&root).ok();
    });
}

/// The read columns of a flight record's SOURCE node, in a fixed order.
fn source_reads(record: &serde::Content) -> Vec<u64> {
    let nodes = flight::items(flight::get(record, "nodes"));
    let source = nodes
        .iter()
        .find(|node| flight::text_of(flight::get(node, "operator")) == "SOURCE")
        .expect("a SOURCE node");
    ["cache_hits", "cache_misses", "scan_pruned", "scan_bytes_read", "scan_bytes_skipped"]
        .map(|key| flight::number(flight::get(source, key)))
        .to_vec()
}

/// Two clients query disjoint cold datasets at once, with every executed
/// request flight-recorded (what `NGGC_SLOW_QUERY_MS=0` arms): each
/// record's SOURCE node carries its own dataset's read, exactly as when
/// the query runs alone. Pruned reads are never cached, so every run of
/// these chromosome queries reads its container again.
#[test]
fn concurrent_flight_records_carry_their_own_reads() {
    let _guard = test_lock();
    with_watchdog("own_reads", 60, || {
        let root = tmp("own_reads");
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&three_chrom_dataset("SMALL", 20)).unwrap();
            repo.save(&three_chrom_dataset("LARGE", 400)).unwrap();
        }
        let sink = root.join("flight.jsonl");
        let flight = FlightRecorder { threshold: Some(Duration::ZERO), sink: Some(sink.clone()) };
        let config = ServeConfig { flight: Some(flight), ..ServeConfig::default() };
        let (addr, handle, runner) = start(Repository::open(&root).unwrap(), config);
        let queries = ["SMALL", "LARGE"]
            .map(|name| format!("R = SELECT(region: chr == 'chr2') {name}; MATERIALIZE R;"));
        let run = |query: &str| {
            let mut client = Client::connect(&addr).unwrap();
            match client.query_full(query, None, None, 0, true).unwrap() {
                ServerReply::Result { .. } => {}
                other => panic!("expected Result, got {other:?}"),
            }
        };
        for query in &queries {
            run(query);
        }
        let start_line = std::sync::Barrier::new(queries.len());
        std::thread::scope(|s| {
            for query in &queries {
                let (run, start_line) = (&run, &start_line);
                s.spawn(move || {
                    start_line.wait();
                    run(query);
                });
            }
        });
        handle.shutdown();
        runner.join().unwrap().unwrap();
        nggc::obs::clear_subscribers();

        let records = flight::read_records(&sink);
        assert_eq!(records.len(), 4, "two runs of each query, all executed");
        let mut alone = Vec::new();
        for query in &queries {
            let reads: Vec<Vec<u64>> = records
                .iter()
                .filter(|r| flight::text_of(flight::get(r, "query")) == query)
                .map(source_reads)
                .collect();
            assert_eq!(reads.len(), 2, "{query}");
            assert_eq!(reads[0], reads[1], "{query}: alone, then alongside the other query");
            assert_eq!(reads[0][..3], [0, 1, 1], "{query}: one cold pruned read, nothing else");
            assert!(reads[0][3] > 0, "{query}: {:?}", reads[0]);
            alone.push(reads[0].clone());
        }
        assert_ne!(alone[0], alone[1], "the two datasets read different bytes");
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn parse_errors_are_typed_not_fatal() {
    let _guard = test_lock();
    with_watchdog("parse_error", 60, || {
        let (root, repo) = cold_repo("parse", "P");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();
        match client.query("THIS IS NOT GMQL !!!", None, None, 0).unwrap() {
            ServerReply::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::Parse),
            other => panic!("expected Parse error, got {other:?}"),
        }
        // The connection survives a bad query.
        match client.query("R = SELECT() P; MATERIALIZE R;", None, None, 0).unwrap() {
            ServerReply::Result { .. } => {}
            other => panic!("expected Result, got {other:?}"),
        }
        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn shutdown_refuses_new_queries_and_run_returns() {
    let _guard = test_lock();
    with_watchdog("shutdown", 60, || {
        let (root, repo) = cold_repo("shutdown", "SD");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let mut client = Client::connect(&addr).unwrap();
        match client.query("R = SELECT() SD; MATERIALIZE R;", None, None, 0).unwrap() {
            ServerReply::Result { .. } => {}
            other => panic!("expected Result, got {other:?}"),
        }
        handle.shutdown();
        // run() drains and returns cleanly.
        runner.join().unwrap().unwrap();
        // The drained server no longer answers.
        assert!(client.query("R = SELECT() SD; MATERIALIZE R;", None, None, 0).is_err());
        std::fs::remove_dir_all(&root).ok();
    });
}

/// SIGTERM against the real binary: banner parsed for the port, one
/// query served, then a clean drain to exit 0 (the CI smoke contract).
#[test]
#[cfg(unix)]
fn sigterm_drains_the_real_binary_to_exit_zero() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let _guard = test_lock();
    with_watchdog("sigterm", 120, || {
        let root = tmp("sigterm_bin");
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dataset("SIG", 16)).unwrap();
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_nggc"))
            .args(["--repo", root.to_str().unwrap(), "serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().unwrap().unwrap();
        let addr = banner.strip_prefix("listening on ").unwrap_or_else(|| {
            panic!("unexpected banner: {banner:?}");
        });

        let mut client = Client::connect(addr).unwrap();
        match client.query("R = SELECT() SIG; MATERIALIZE R;", None, None, 1).unwrap() {
            ServerReply::Result { outputs, .. } => assert_eq!(outputs[0].regions, 16),
            other => panic!("expected Result, got {other:?}"),
        }

        let term = Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
        assert!(term.success(), "kill -TERM failed");
        let status = child.wait().unwrap();
        assert!(status.success(), "serve must drain and exit 0 on SIGTERM, got {status:?}");
        std::fs::remove_dir_all(&root).ok();
    });
}

/// Governor parity between the two front ends: one deadline-tripping
/// JOIN is exit 124 from `nggc query --timeout` and `DeadlineExceeded`
/// from serve, and both flight records call it a `deadline`.
#[test]
fn one_deadline_tripping_join_trips_alike_in_the_cli_and_in_serve() {
    let _guard = test_lock();
    with_watchdog("deadline_parity", 120, || {
        let root = tmp("deadline_parity");
        let big = (0..3000u64)
            .map(|i| {
                GRegion::new("chr1", i * 137 % 1_000_000, i * 137 % 1_000_000 + 400, Strand::Pos)
            })
            .collect();
        let mut ds = Dataset::new("BIG", Schema::empty());
        ds.add_sample(Sample::new("s", "BIG").with_regions(big)).unwrap();
        Repository::open(&root).unwrap().save(&ds).unwrap();
        let query = "J = JOIN(DLE(1000000)) BIG BIG; MATERIALIZE J;";
        let outcome = |sink: &PathBuf| {
            let records = flight::read_records(sink);
            assert_eq!(records.len(), 1, "one record in {}", sink.display());
            flight::text_of(flight::get(&records[0], "outcome")).to_owned()
        };

        let cli_sink = root.join("cli.jsonl");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nggc"))
            .arg("--repo")
            .arg(&root)
            .args(["query", "--no-cache", "-e", query, "--timeout", "50ms"])
            .env("NGGC_SLOW_QUERY_MS", "600000")
            .env("NGGC_FLIGHT_RECORDER", &cli_sink)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(124), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(outcome(&cli_sink), "deadline");

        let serve_sink = root.join("serve.jsonl");
        let flight = FlightRecorder {
            threshold: Some(Duration::from_secs(600)),
            sink: Some(serve_sink.clone()),
        };
        let repo = Repository::open(&root).unwrap();
        let (addr, handle, runner) =
            start(repo, ServeConfig { flight: Some(flight), ..ServeConfig::default() });
        match Client::connect(&addr).unwrap().query(query, Some(50), None, 0).unwrap() {
            ServerReply::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        handle.shutdown();
        runner.join().unwrap().unwrap();
        assert_eq!(outcome(&serve_sink), "deadline");
        std::fs::remove_dir_all(&root).ok();
    });
}
