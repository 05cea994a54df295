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
#[path = "common/printed.rs"]
mod printed;
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
fn repeated_requests_plan_once_and_answer_alike() {
    let _guard = test_lock();
    with_watchdog("prepared_plans", 60, || {
        let (root, repo) = cold_repo("prepared", "PP");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let reg = nggc::obs::global();
        let prepared = || reg.counter("nggc_session_plans_prepared_total").get();
        let reused = || reg.counter("nggc_session_plans_reused_total").get();
        let (prepared0, reused0) = (prepared(), reused());
        const N: u64 = 5;
        let text = "R = SELECT(region: score >= 3) PP; MATERIALIZE R;";
        let mut client = Client::connect(&addr).unwrap();
        let heads: Vec<Vec<String>> = (0..N)
            .map(|i| match client.query_full(text, None, None, 4, i == 2).unwrap() {
                ServerReply::Result { mut outputs, .. } => outputs.remove(0).head,
                other => panic!("expected Result, got {other:?}"),
            })
            .collect();
        // One prepare; every later request, the uncached one included,
        // reuses the plan.
        assert_eq!((prepared() - prepared0, reused() - reused0), (1, N - 1));
        assert_eq!(heads[0].len(), 4);
        assert!(heads.iter().all(|h| h == &heads[0]), "{heads:?}");
        handle.shutdown();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).ok();
    });
}

#[test]
fn a_hit_reuses_its_rendered_reply_only_at_an_unchanged_head() {
    let _guard = test_lock();
    with_watchdog("kept_renderings", 60, || {
        let (root, repo) = cold_repo("renderings", "KR");
        let (addr, handle, runner) = start(repo, ServeConfig::default());
        let reg = nggc::obs::global();
        let reused = || reg.counter("nggc_serve_replies_reused_total").get();
        let rendered = || reg.counter("nggc_serve_replies_rendered_total").get();
        let text = "R = SELECT(region: score >= 3) KR; MATERIALIZE R;";
        let mut client = Client::connect(&addr).unwrap();
        let mut ask = |head: usize, no_cache: bool| match client
            .query_full(text, None, None, head, no_cache)
            .unwrap()
        {
            ServerReply::Result { mut outputs, cached, .. } => (outputs.remove(0).head, cached),
            other => panic!("expected Result, got {other:?}"),
        };
        let mut counts = Vec::new();
        for (i, head) in [2, 5, 2, 2].into_iter().enumerate() {
            let (reused0, rendered0) = (reused(), rendered());
            let (rows, cached) = ask(head, false);
            counts.push((reused() - reused0, rendered() - rendered0));
            assert_eq!(cached, i > 0, "request {i}: the first executes, the rest hit");
            // The rows are those of an execution at the same head.
            let (executed, _) = ask(head, true);
            assert_eq!(rows.len(), head);
            assert_eq!(rows, executed, "request {i}, head {head}");
        }
        // Rendered by the miss (and kept), by the hit at 5 and by the hit
        // back at 2 (each replacing the rendering kept); reused by the
        // repeat.
        assert_eq!(counts, [(0, 1), (0, 1), (0, 1), (1, 0)]);
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

/// The real binaries end to end (docs/serving.md): `nggc serve` with the
/// flight recorder armed at threshold 0, driven by `nggc client`. The
/// executed query leaves one flight record and the counts `nggc query`
/// gives; a repeat is a cache hit whose rows at heads 1, 2 and 3 are an
/// execution's; a chromosome query on the resident dataset scans its
/// window, not the dataset; `--ping` answers; a zero deadline exits 124;
/// and SIGTERM drains to exit 0.
#[test]
#[cfg(unix)]
fn sigterm_drains_the_real_binary_to_exit_zero() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Child, Command, Output, Stdio};

    /// Kills the server if the test fails before it drains.
    struct Serving(Child);
    impl Drop for Serving {
        fn drop(&mut self) {
            self.0.kill().ok();
            self.0.wait().ok();
        }
    }

    let _guard = test_lock();
    with_watchdog("sigterm", 120, || {
        let root = tmp("sigterm_bin");
        std::fs::create_dir_all(&root).unwrap();
        let repo = root.join("repo");
        let nggc = || {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_nggc"));
            cmd.arg("--repo").arg(&repo);
            cmd
        };
        let succeeded = |out: Output, what: &str| {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{what}: {:?}\n{stderr}", out.status);
            String::from_utf8(out.stdout).unwrap()
        };
        let bed = root.join("peaks.bed");
        std::fs::write(
            &bed,
            "chr1\t100\t300\t0.0001\nchr1\t500\t800\t0.0002\nchr2\t100\t300\t0.0003\n",
        )
        .unwrap();
        succeeded(
            nggc().args(["import", bed.to_str().unwrap(), "PEAKS"]).output().unwrap(),
            "import",
        );

        let sink = root.join("flight.jsonl");
        let mut server = Serving(
            nggc()
                .args(["serve", "--addr", "127.0.0.1:0"])
                .env("NGGC_SLOW_QUERY_MS", "0")
                .env("NGGC_FLIGHT_RECORDER", &sink)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap(),
        );
        let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner.trim_end().strip_prefix("listening on ").unwrap_or_else(|| {
            panic!("unexpected banner: {banner:?}");
        });
        let client = |args: &[&str]| {
            Command::new(env!("CARGO_BIN_EXE_nggc"))
                .args(["client", "--addr", addr])
                .args(args)
                .output()
                .unwrap()
        };
        let answer = |args: &[&str]| succeeded(client(args), &format!("client {args:?}"));
        let stat = |name: &str| -> u64 {
            let stats = answer(&["--stats"]);
            let value = stats.lines().find_map(|line| {
                let mut words = line.split_whitespace();
                (words.next() == Some(name)).then(|| words.next()).flatten()
            });
            value.unwrap_or_else(|| panic!("no {name} in {stats}")).parse().expect("a number")
        };
        let rows = |out: &str| -> Vec<String> {
            out.lines().filter(|line| line.starts_with("  ")).map(str::to_owned).collect()
        };

        let all = "R = SELECT() PEAKS; MATERIALIZE R;";
        let served = answer(&["-e", all, "--head", "2"]);
        let records = flight::read_records(&sink);
        assert_eq!(records.len(), 1, "one record for the one executed query");
        assert_eq!(flight::text_of(flight::get(&records[0], "query")), all);
        // One query path: the CLI gives the server's counts.
        let cli = nggc().args(["query", "--no-cache", "--head", "2", "-e", all]).output().unwrap();
        assert_eq!(printed::counts(&succeeded(cli, "query")), printed::counts(&served));
        assert_eq!(printed::counts(&served), (1, 3), "{served}");

        // The repeat is a cache hit, and at each head its rows are those
        // of an execution at that head (the kept rendering is one head's).
        for head in ["2", "1", "3"] {
            let hit = answer(&["-e", all, "--head", head]);
            assert!(printed::cached(&hit), "head {head}: {hit}");
            let executed = answer(&["--no-cache", "-e", all, "--head", head]);
            assert!(!printed::cached(&executed), "head {head}: {executed}");
            assert_eq!(rows(&hit), rows(&executed), "head {head}");
            assert_eq!(rows(&hit).len().to_string(), head, "{hit}");
        }
        assert!(stat("result_cache_hits") >= 1);

        // A full read leaves PEAKS resident; a chromosome query on it is
        // then sliced by sort order: SELECT looks at chr2's one region,
        // not at the dataset's three.
        answer(&["--no-cache", "-e", all, "--head", "0"]);
        let before = stat("select_regions_scanned");
        let chr2 = "R = SELECT(region: chr == 'chr2') PEAKS; MATERIALIZE R;";
        assert_eq!(printed::counts(&answer(&["--no-cache", "-e", chr2, "--head", "0"])), (1, 1));
        let rose = stat("select_regions_scanned") - before;
        assert!((1..3).contains(&rose), "the chr2 query scanned {rose} regions");

        assert!(answer(&["--ping"]).starts_with("pong"));
        // A serve error kind is the client's exit code: a zero deadline
        // always trips, and DeadlineExceeded is 124 as in `nggc query`.
        let tripped = client(&["--no-cache", "--timeout", "0ms", "-e", all]);
        let stderr = String::from_utf8_lossy(&tripped.stderr);
        assert_eq!(tripped.status.code(), Some(124), "{stderr}");
        assert!(stderr.contains("DeadlineExceeded"), "{stderr}");

        let term =
            Command::new("kill").args(["-TERM", &server.0.id().to_string()]).status().unwrap();
        assert!(term.success(), "kill -TERM failed");
        let status = server.0.wait().unwrap();
        assert!(status.success(), "serve must drain and exit 0 on SIGTERM, got {status:?}");
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("drained; bye"), "{rest}");
        std::fs::remove_dir_all(&root).ok();
    });
}

/// `n` regions on one chromosome, all within 1 Mb of each other.
fn dense_dataset(name: &str, n: u64) -> Dataset {
    let big = (0..n)
        .map(|i| GRegion::new("chr1", i * 137 % 1_000_000, i * 137 % 1_000_000 + 400, Strand::Pos))
        .collect();
    let mut ds = Dataset::new(name, Schema::empty());
    ds.add_sample(Sample::new("s", name).with_regions(big)).unwrap();
    ds
}

/// Governor parity between the two front ends: one deadline-tripping
/// JOIN is exit 124 from `nggc query --timeout` and `DeadlineExceeded`
/// from serve, and both flight records call it a `deadline`.
#[test]
fn one_deadline_tripping_join_trips_alike_in_the_cli_and_in_serve() {
    let _guard = test_lock();
    with_watchdog("deadline_parity", 120, || {
        let root = tmp("deadline_parity");
        Repository::open(&root).unwrap().save(&dense_dataset("BIG", 3000)).unwrap();
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

/// How requests share the cores (docs/serving.md): on a two-worker server
/// with one long join in flight, a second query has company, so it runs
/// at width 2 / 2 = 1. It answers exactly as it does alone, and its
/// flight record holds its own `exec.node` spans.
#[test]
fn a_query_with_company_runs_at_width_one_and_answers_as_alone() {
    let _guard = test_lock();
    with_watchdog("company", 120, || {
        let root = tmp("company");
        {
            let mut repo = Repository::open(&root).unwrap();
            repo.save(&dense_dataset("BIG", 20_000)).unwrap();
            repo.save(&three_chrom_dataset("SMALL", 20)).unwrap();
        }
        let sink = root.join("flight.jsonl");
        let flight = FlightRecorder { threshold: Some(Duration::ZERO), sink: Some(sink.clone()) };
        let config = ServeConfig { workers: 2, flight: Some(flight), ..ServeConfig::default() };
        let (addr, handle, runner) = start(Repository::open(&root).unwrap(), config);
        let query = "R = SELECT(region: chr == 'chr2') SMALL; MATERIALIZE R;";
        let mut client = Client::connect(&addr).unwrap();
        let mut run = || match client.query_full(query, None, None, 5, true).unwrap() {
            ServerReply::Result { outputs, trace_id, .. } => (outputs, trace_id),
            other => panic!("expected Result, got {other:?}"),
        };
        let (alone, alone_trace) = run();

        let with_company = nggc::obs::global().counter("nggc_exec_with_company_total");
        let before = with_company.get();
        // 400M candidate pairs, almost none of them kept: seconds of
        // work in little memory, until the deadline stops it.
        let join = "J = JOIN(DLE(1000000), DGE(999900)) BIG BIG; MATERIALIZE J;";
        let blocker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                Client::connect(&addr).unwrap().query(join, Some(1000), None, 0).unwrap()
            })
        };
        // The join is admitted, so it is inside `Session::run` until its
        // deadline.
        let mut probe = Client::connect(&addr).unwrap();
        while !matches!(probe.ping().unwrap(), ServerReply::Pong { inflight: 1.., .. }) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (company, company_trace) = run();
        assert_eq!(with_company.get() - before, 1, "the second query, and only it, had company");
        match blocker.join().unwrap() {
            ServerReply::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(alone, company, "a width-1 run answers as a lone one");
        handle.shutdown();
        runner.join().unwrap().unwrap();
        nggc::obs::clear_subscribers();

        let records = flight::read_records(&sink);
        let width_of = |trace_id: u64| {
            let record = records
                .iter()
                .find(|r| flight::number(flight::get(r, "trace_id")) == trace_id)
                .unwrap_or_else(|| panic!("no record for trace {trace_id:x}"));
            let trace = flight::items(flight::get(record, "trace"));
            assert!(trace.iter().all(|s| flight::number(flight::get(s, "trace_id")) == trace_id));
            let named = |name: &str| {
                trace.iter().filter(|s| flight::text_of(flight::get(s, "name")) == name).count()
            };
            assert_eq!(named("exec.node"), 2, "SOURCE and SELECT, under trace {trace_id:x}");
            let plan = trace
                .iter()
                .find(|s| flight::text_of(flight::get(s, "name")) == "exec.plan")
                .expect("an exec.plan span");
            flight::items(flight::get(plan, "fields"))
                .iter()
                .map(flight::items)
                .find(|pair| flight::text_of(&pair[0]) == "width")
                .map(|pair| flight::text_of(&pair[1]).to_owned())
                .expect("exec.plan carries its width")
        };
        assert_eq!(width_of(alone_trace), "2", "alone: the whole pool");
        assert_eq!(width_of(company_trace), "1", "in company: one worker");
        std::fs::remove_dir_all(&root).ok();
    });
}
