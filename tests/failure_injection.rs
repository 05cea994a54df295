//! Failure injection: corrupted files, truncated payloads, failing
//! providers, and misbehaving federation peers — the system must
//! degrade with errors (or partial results plus a health report),
//! never panics, hangs, or silent corruption.

#[path = "common/watchdog.rs"]
mod watchdog;

use nggc::federation::{
    BreakerState, CallPolicy, ChaosConfig, ChaosNode, Federation, FederationError, FederationNode,
    NodeStatus, Request, TransferLog,
};
use nggc::formats::native;
use nggc::gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, ValueType};
use nggc::gmql::{run_with_provider, ExecOptions, GmqlError};
use nggc::repository::{decode_outputs, encode_dataset_v2, Repository};
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use watchdog::with_watchdog;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_fail_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn corrupt_native_schema_is_an_error() {
    let dir = tmp("schema");
    let ds_dir = dir.join("D");
    fs::create_dir_all(ds_dir.join("files")).unwrap();
    fs::write(ds_dir.join("schema.gdm"), "p_value\tnot_a_type\n").unwrap();
    assert!(native::read_dataset(&ds_dir).is_err());

    fs::write(ds_dir.join("schema.gdm"), "no_tab_here\n").unwrap();
    assert!(native::read_dataset(&ds_dir).is_err());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_native_region_rows_are_errors_with_line_numbers() {
    let dir = tmp("rows");
    let ds_dir = dir.join("D");
    fs::create_dir_all(ds_dir.join("files")).unwrap();
    fs::write(ds_dir.join("schema.gdm"), "score\tfloat\n").unwrap();
    // Wrong arity on line 2.
    fs::write(ds_dir.join("files/s.gdm"), "chr1\t0\t10\t+\t1.5\nchr1\t20\t30\t+\n").unwrap();
    let err = native::read_dataset(&ds_dir).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");

    // Garbage coordinates.
    fs::write(ds_dir.join("files/s.gdm"), "chr1\tzero\t10\t+\t1.5\n").unwrap();
    assert!(native::read_dataset(&ds_dir).is_err());

    // Bad strand.
    fs::write(ds_dir.join("files/s.gdm"), "chr1\t0\t10\tx\t1.5\n").unwrap();
    assert!(native::read_dataset(&ds_dir).is_err());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_schema_file_is_an_io_error() {
    let dir = tmp("noschema");
    let ds_dir = dir.join("D");
    fs::create_dir_all(ds_dir.join("files")).unwrap();
    assert!(native::read_dataset(&ds_dir).is_err());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_repository_catalog_rebuilds_on_open() {
    // A torn catalog no longer fails open: recovery rebuilds it by
    // scanning the dataset directories (docs/robustness.md). With no
    // datasets on disk the rebuilt catalog is simply empty, and the
    // repair is reported via health and persisted for the next open.
    let dir = tmp("catalog");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("catalog.json"), "{ not json").unwrap();
    let repo = Repository::open(&dir).unwrap();
    assert!(repo.health().catalog_rebuilt);
    assert!(repo.list().is_empty());
    let again = Repository::open(&dir).unwrap();
    assert!(!again.health().catalog_rebuilt, "repair is persisted, second open is clean");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn repository_survives_deleted_dataset_directory() {
    let dir = tmp("ghost");
    let mut repo = Repository::open(&dir).unwrap();
    let schema = Schema::new(vec![Attribute::new("x", ValueType::Int)]).unwrap();
    let mut ds = Dataset::new("D", schema);
    ds.add_sample(Sample::new("s", "D").with_regions(vec![
        GRegion::new("chr1", 0, 5, Strand::Pos).with_values(vec![1i64.into()]),
    ]))
    .unwrap();
    repo.save(&ds).unwrap();
    // Someone deletes the files behind the catalog's back. The warm
    // in-process cache (populated by save) still serves the dataset…
    fs::remove_dir_all(dir.join("datasets").join("D")).unwrap();
    assert!(repo.load("D").is_ok(), "warm cache outlives the on-disk copy");
    // …but a fresh open has a cold cache and reports the loss.
    let cold = Repository::open(&dir).unwrap();
    assert!(cold.load("D").is_err(), "load reports the loss instead of panicking");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_federation_payload_rejected() {
    // A valid frame followed by garbage truncations.
    let ds = Dataset::new("X", Schema::empty());
    let body = encode_dataset_v2(&ds).unwrap();
    let mut payload = Vec::new();
    payload.extend((body.len() as u64).to_le_bytes());
    payload.extend(&body);
    assert_eq!(decode_outputs(&payload).unwrap().len(), 1);

    // Truncate mid-body.
    assert!(decode_outputs(&payload[..payload.len() - 3]).is_err());
    // Truncate mid-header.
    assert!(decode_outputs(&payload[..4]).is_err());
    // Corrupt the container body (the byte before its CRC trailer): the
    // checksum rejects it.
    let mut corrupt = payload.clone();
    let n = corrupt.len();
    corrupt[n - 5] ^= 0xA5;
    let err = decode_outputs(&corrupt).unwrap_err().to_string();
    assert!(err.contains("checksum mismatch"), "{err}");
}

#[test]
fn failing_provider_aborts_query_cleanly() {
    let schema_of = |name: &str| -> Option<Schema> { (name == "D").then(Schema::empty) };
    let provider =
        |_: &str| -> Result<Dataset, GmqlError> { Err(GmqlError::runtime("disk on fire")) };
    let ctx = nggc::engine::ExecContext::with_workers(2);
    let err = run_with_provider(
        "X = SELECT(a == 1) D; MATERIALIZE X;",
        &schema_of,
        &provider,
        &ctx,
        &ExecOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("disk on fire"));
}

// ---------------------------------------------------------------------
// ChaosNode scenarios: deadlines, retries, breakers, degraded modes.
// Every test runs under a watchdog so a reintroduced blocking recv()
// fails the suite instead of wedging it, and every test uses unique
// node ids so the global per-node metric labels stay isolated.
// ---------------------------------------------------------------------

/// A small dataset a federation node can own and answer queries over.
fn fed_dataset(name: &str, samples: usize, regions_per_sample: usize) -> Dataset {
    let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
    let mut ds = Dataset::new(name, schema);
    for i in 0..samples {
        let regions = (0..regions_per_sample)
            .map(|j| {
                GRegion::new("chr1", (j * 500) as u64, (j * 500 + 100) as u64, Strand::Unstranded)
                    .with_values(vec![0.01.into()])
            })
            .collect();
        ds.add_sample(
            Sample::new(format!("s{i}"), name)
                .with_regions(regions)
                .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
        )
        .unwrap();
    }
    ds
}

/// Millisecond-scale policy so fault scenarios finish fast.
fn fast_policy() -> CallPolicy {
    CallPolicy {
        deadline: Duration::from_millis(50),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        jitter_seed: 1,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(150),
    }
}

#[test]
fn hung_node_hits_the_deadline_not_forever() {
    with_watchdog("hung_node_deadline", 60, || {
        let mut fed = Federation::with_policy(CallPolicy {
            max_retries: 0,
            deadline: Duration::from_millis(30),
            ..fast_policy()
        });
        let mut node = FederationNode::new("hung-deadline", 1);
        node.own(fed_dataset("HUNGD", 1, 4));
        fed.add_node(ChaosNode::new(node, ChaosConfig::hung(Duration::from_millis(250))));
        let t0 = Instant::now();
        let mut log = TransferLog::default();
        let err = fed.call("hung-deadline", Request::ListDatasets, &mut log).unwrap_err();
        assert!(matches!(err, FederationError::Timeout(_)), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5), "deadline bounded the wait");
    });
}

#[test]
fn flaky_node_succeeds_within_the_retry_budget() {
    with_watchdog("flaky_retry_budget", 60, || {
        let reg = nggc::obs::global();
        let retries_before =
            reg.counter_with("nggc_fed_retries_total", &[("node", "flaky-retry")]).get();
        let mut fed = Federation::with_policy(CallPolicy { max_retries: 3, ..fast_policy() });
        let mut node = FederationNode::new("flaky-retry", 1);
        node.own(fed_dataset("FLAKY", 2, 4));
        // The first two responses are lost; the third attempt lands.
        fed.add_node(ChaosNode::new(node, ChaosConfig::flaky(2)));
        let mut log = TransferLog::default();
        let inventory = fed.discover(&mut log).unwrap();
        assert_eq!(inventory.len(), 1);
        assert_eq!(inventory[0].1[0].name, "FLAKY");
        let retries = reg.counter_with("nggc_fed_retries_total", &[("node", "flaky-retry")]).get()
            - retries_before;
        assert!(retries >= 2, "two lost responses cost two retries, saw {retries}");
    });
}

#[test]
fn breaker_opens_after_repeated_failures_and_recovers_half_open() {
    with_watchdog("breaker_lifecycle", 60, || {
        let policy =
            CallPolicy { max_retries: 0, deadline: Duration::from_millis(30), ..fast_policy() };
        let cooldown = policy.breaker_cooldown;
        let mut fed = Federation::with_policy(policy);
        let mut node = FederationNode::new("breaker-node", 1);
        node.own(fed_dataset("BRK", 1, 4));
        // Exactly three lost responses, then the node behaves again.
        fed.add_node(ChaosNode::new(node, ChaosConfig::flaky(3)));
        let mut log = TransferLog::default();
        for _ in 0..3 {
            let err = fed.call("breaker-node", Request::ListDatasets, &mut log).unwrap_err();
            assert!(matches!(err, FederationError::Timeout(_)), "{err}");
        }
        assert_eq!(fed.breaker_state("breaker-node"), BreakerState::Open);
        // While open: rejected locally, without touching the node.
        let err = fed.call("breaker-node", Request::ListDatasets, &mut log).unwrap_err();
        assert!(matches!(err, FederationError::CircuitOpen(_)), "{err}");
        // After the cooldown a half-open probe goes through and, now that
        // the chaos window is exhausted, closes the breaker again.
        std::thread::sleep(cooldown + Duration::from_millis(50));
        let listed = fed.call("breaker-node", Request::ListDatasets, &mut log).unwrap();
        assert!(matches!(listed, nggc::federation::Response::Datasets(_)));
        assert_eq!(fed.breaker_state("breaker-node"), BreakerState::Closed);
    });
}

#[test]
fn discover_degraded_returns_partial_inventory_with_one_node_down() {
    with_watchdog("discover_degraded", 60, || {
        let mut fed = Federation::with_policy(CallPolicy {
            max_retries: 1,
            deadline: Duration::from_millis(30),
            ..fast_policy()
        });
        // The dead node comes first to prove discovery keeps going.
        fed.add_node(ChaosNode::new(
            FederationNode::new("part-dead", 1),
            ChaosConfig::unresponsive(),
        ));
        let mut alive = FederationNode::new("part-alive", 1);
        alive.own(fed_dataset("ALIVE", 2, 4));
        fed.add_node(alive);

        // Strict discovery fails on the dead node…
        let mut log = TransferLog::default();
        assert!(matches!(fed.discover(&mut log), Err(FederationError::Timeout(_))));
        // …degraded discovery returns the partial inventory plus health.
        let (inventory, health) = fed.discover_degraded(&mut log);
        assert_eq!(inventory.len(), 1);
        assert_eq!(inventory[0].0, "part-alive");
        assert_eq!(inventory[0].1[0].name, "ALIVE");
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].node, "part-dead");
        assert_eq!(health[0].status, NodeStatus::Unavailable);
        assert!(health[0].error.as_deref().unwrap_or("").contains("timed out"));
        assert_eq!(health[1].node, "part-alive");
        assert_eq!(health[1].status, NodeStatus::Healthy);
    });
}

#[test]
fn ticket_released_after_midstream_chunk_failure() {
    with_watchdog("midstream_release", 60, || {
        let mut fed = Federation::with_policy(fast_policy());
        let mut node = FederationNode::new("midfail", 1);
        node.own(fed_dataset("MID", 3, 40));
        // Only chunk fetches fail (more than the retry budget absorbs);
        // Execute/Release/Status are untouched.
        fed.add_node(ChaosNode::new(
            node,
            ChaosConfig {
                fail_first: 8,
                only_kinds: vec!["FetchChunk".to_owned()],
                ..ChaosConfig::default()
            },
        ));
        let err = fed.ship_query("midfail", "X = SELECT() MID; MATERIALIZE X;", 1024).unwrap_err();
        assert!(matches!(err, FederationError::Remote(ref m) if m.contains("chaos")), "{err}");
        // The error path released the staged ticket: nothing leaks.
        assert_eq!(fed.staged_results("midfail").unwrap(), 0);
    });
}

#[test]
fn garbled_chunks_are_protocol_errors_and_release_the_ticket() {
    with_watchdog("garbled_chunks", 60, || {
        let mut fed = Federation::with_policy(fast_policy());
        let mut node = FederationNode::new("garbler", 1);
        node.own(fed_dataset("GARBLE", 3, 40));
        fed.add_node(ChaosNode::new(
            node,
            ChaosConfig {
                garble_rate: 1.0,
                only_kinds: vec!["FetchChunk".to_owned()],
                ..ChaosConfig::default()
            },
        ));
        let err =
            fed.ship_query("garbler", "X = SELECT() GARBLE; MATERIALIZE X;", 2048).unwrap_err();
        assert!(matches!(err, FederationError::Protocol(_)), "{err}");
        assert_eq!(fed.staged_results("garbler").unwrap(), 0);
    });
}

#[test]
fn upload_accounting_survives_query_failure() {
    with_watchdog("upload_accounting", 60, || {
        let reg = nggc::obs::global();
        let sent = || reg.counter_with("nggc_fed_bytes_sent_total", &[("node", "acct")]).get();
        let drops = || {
            reg.counter_with("nggc_fed_requests_total", &[("node", "acct"), ("kind", "DropUpload")])
                .get()
        };
        let (sent_before, drops_before) = (sent(), drops());

        let mut fed = Federation::with_policy(fast_policy());
        let mut node = FederationNode::new("acct", 1);
        node.own(fed_dataset("ACCT", 2, 4));
        fed.add_node(node);
        let mine = fed_dataset("MINE", 1, 8);
        // The query references a dataset that does not exist, so the
        // remote Execute fails after the upload went over the wire.
        let err = fed
            .ship_query_with_upload("acct", &mine, "R = SELECT() GHOST; MATERIALIZE R;", 4096)
            .unwrap_err();
        assert!(matches!(err, FederationError::Remote(_)), "{err}");

        let upload_size =
            Request::Upload { name: "MINE".to_owned(), data: encode_dataset_v2(&mine).unwrap() }
                .wire_size() as u64;
        assert!(
            sent() - sent_before >= upload_size,
            "failed conversation still accounts its sent bytes"
        );
        assert_eq!(drops() - drops_before, 1, "the private upload was dropped despite the error");
    });
}

/// The ISSUE acceptance scenario: one of three nodes is hung, another is
/// flaky. A federated query completes within the deadline budget,
/// returns degraded results with an accurate health report, and leaves
/// zero staged tickets on the surviving nodes.
#[test]
fn three_node_federation_degrades_gracefully() {
    with_watchdog("three_node_degraded", 120, || {
        let mut fed = Federation::with_policy(CallPolicy {
            deadline: Duration::from_millis(40),
            max_retries: 2,
            ..fast_policy()
        });
        // alpha: healthy, owns the big experiment dataset.
        let mut alpha = FederationNode::new("acc-alpha", 2);
        alpha.own(fed_dataset("AAA", 6, 60));
        fed.add_node(alpha);
        // bravo: flaky (loses its first response), owns the small one.
        let mut bravo = FederationNode::new("acc-bravo", 1);
        bravo.own(fed_dataset("BBB", 1, 3));
        fed.add_node(ChaosNode::new(bravo, ChaosConfig::flaky(1)));
        // hung: stalls on every request; owns nothing the query needs.
        let mut hung = FederationNode::new("acc-hung", 1);
        hung.own(fed_dataset("CCC", 1, 2));
        fed.add_node(ChaosNode::new(hung, ChaosConfig::hung(Duration::from_millis(150))));

        const Q: &str = "R = MAP(n AS COUNT) BBB AAA; MATERIALIZE R;";
        let t0 = Instant::now();
        let outcome = fed.execute_distributed_degraded(Q, 8192).unwrap();
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_secs(10), "bounded by the deadline budget: {elapsed:?}");

        // Partial results: computed from the reachable majority, and
        // identical to a fully-local reference run.
        assert_eq!(outcome.plan.host, "acc-alpha");
        assert_eq!(outcome.plan.shipped, vec![("BBB".to_string(), "acc-bravo".to_string())]);
        let mut local = nggc::gmql::GmqlEngine::with_workers(2);
        local.register(fed_dataset("AAA", 6, 60));
        local.register(fed_dataset("BBB", 1, 3));
        let expected = local.run(Q).unwrap();
        assert_eq!(outcome.outputs["R"].sample_count(), expected["R"].sample_count());
        assert_eq!(outcome.outputs["R"].region_count(), expected["R"].region_count());

        // Accurate health report.
        assert!(!outcome.fully_healthy());
        assert_eq!(outcome.unavailable_nodes(), vec!["acc-hung"]);
        let by_node = |id: &str| outcome.health.iter().find(|h| h.node == id).unwrap();
        assert_eq!(by_node("acc-alpha").status, NodeStatus::Healthy);
        assert_eq!(by_node("acc-bravo").status, NodeStatus::Degraded);
        assert!(by_node("acc-bravo").retries >= 1);
        assert_eq!(by_node("acc-hung").status, NodeStatus::Unavailable);
        assert!(by_node("acc-hung").error.is_some());

        // Zero staged tickets on every surviving node.
        assert_eq!(fed.staged_results("acc-alpha").unwrap(), 0);
        assert_eq!(fed.staged_results("acc-bravo").unwrap(), 0);

        // The retry/timeout/breaker metrics observed the trouble.
        let reg = nggc::obs::global();
        assert!(reg.counter_with("nggc_fed_timeouts_total", &[("node", "acc-hung")]).get() >= 1);
        assert!(reg.counter_with("nggc_fed_retries_total", &[("node", "acc-bravo")]).get() >= 1);
        assert_eq!(fed.breaker_state("acc-hung"), BreakerState::Open);
    });
}

#[test]
fn query_text_abuse_is_rejected_not_panicking() {
    let mut engine = nggc::gmql::GmqlEngine::with_workers(1);
    engine.register(Dataset::new("D", Schema::empty()));
    for bad in [
        "",
        ";;;",
        "X = ;",
        "X = SELECT( D;",
        "X = SELECT() D extra;",
        "X = JOIN(DLE()) D D;",
        "X = COVER(ANY) D;",
        "MATERIALIZE GHOST;",
        "X = MAP(n AS NOSUCHAGG) D D;",
        "X = SELECT(region: 1 +) D;",
        "X = PROJECT(zzz) D;",
        "♥ = SELECT() D;",
    ] {
        assert!(engine.run(bad).is_err(), "{bad:?} must be rejected");
    }
}

// ---------------------------------------------------------------------
// Governor chaos: deadline mid-JOIN, budget rejection of an oversized
// intermediate, and cancellation during a federated conversation.
// Typed errors with partial progress, bounded wall time, no leaked
// staging tickets (ISSUE 4 satellite).
// ---------------------------------------------------------------------

use nggc::gmql::{run_with_provider_governed, GovernorLimits, QueryGovernor};

/// Dense single-chromosome dataset: every region is within DLE(1e6) of
/// every other, so a self-JOIN enumerates ~n² candidate pairs.
fn dense_dataset(regions: usize) -> Dataset {
    let mut ds = Dataset::new("D", Schema::empty());
    let rs = (0..regions)
        .map(|i| {
            let left = ((i as u64) * 137) % 1_000_000;
            GRegion::new("chr1", left, left + 400, Strand::Unstranded)
        })
        .collect();
    ds.add_sample(Sample::new("s", "D").with_regions(rs)).unwrap();
    ds
}

fn dense_schema(name: &str) -> Option<Schema> {
    (name == "D").then(Schema::empty)
}

#[test]
fn governor_deadline_trips_mid_join_with_partial_progress() {
    with_watchdog("governor_deadline_join", 120, || {
        let ds = dense_dataset(3000);
        let provider = move |_: &str| -> Result<Dataset, GmqlError> { Ok(ds.clone()) };
        let governor = QueryGovernor::new(GovernorLimits {
            timeout: Some(Duration::from_millis(150)),
            max_memory: None,
        });
        let ctx = nggc::engine::ExecContext::with_workers(2);
        let t0 = Instant::now();
        let err = run_with_provider_governed(
            "J = JOIN(DLE(1000000)) D D; MATERIALIZE J;",
            &dense_schema,
            &provider,
            &ctx,
            &ExecOptions::default(),
            &governor,
        )
        .unwrap_err();
        // Un-governed, this join enumerates ~9M pairs (tens of seconds in
        // a debug build); the cooperative checkpoints must stop it within
        // a small multiple of the deadline.
        assert!(t0.elapsed() < Duration::from_secs(30), "kernel checkpoints bound the overrun");
        match err {
            GmqlError::DeadlineExceeded { ref node, elapsed_ms, limit_ms, .. } => {
                assert_eq!(node, "J", "the join node is named in the report");
                assert_eq!(limit_ms, 150);
                assert!(elapsed_ms >= 150, "elapsed covers at least the limit");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    });
}

#[test]
fn governor_budget_rejects_oversized_intermediate() {
    with_watchdog("governor_budget_join", 120, || {
        let ds = dense_dataset(400);
        let provider = move |_: &str| -> Result<Dataset, GmqlError> { Ok(ds.clone()) };
        let budget = 256 * 1024;
        let governor =
            QueryGovernor::new(GovernorLimits { timeout: None, max_memory: Some(budget) });
        let ctx = nggc::engine::ExecContext::with_workers(2);
        let err = run_with_provider_governed(
            "J = JOIN(DLE(1000000)) D D; MATERIALIZE J;",
            &dense_schema,
            &provider,
            &ctx,
            &ExecOptions::default(),
            &governor,
        )
        .unwrap_err();
        match err {
            GmqlError::MemoryExhausted { ref node, requested, budget: b, charged } => {
                assert_eq!(node, "J", "the oversized intermediate is the join output");
                assert_eq!(b, budget);
                assert!(requested > budget, "join output exceeds the whole budget: {requested}");
                assert!(charged <= budget, "accepted charges never exceed the budget");
            }
            other => panic!("expected MemoryExhausted, got {other:?}"),
        }
        // The trip was counted and the peak gauge exported.
        let reg = nggc::obs::global();
        assert!(reg.counter("nggc_query_mem_rejections_total").get() >= 1);
    });
}

#[test]
fn cancel_during_federated_query_releases_staged_ticket() {
    with_watchdog("governor_fed_cancel", 120, || {
        let mut fed = Federation::with_policy(fast_policy());
        let mut node = FederationNode::new("gov-cancel", 1);
        node.own(fed_dataset("GOVC", 3, 400));
        // Every chunk fetch stalls 25 ms (within the per-call deadline),
        // stretching the streaming phase so the cancel lands mid-stream.
        fed.add_node(ChaosNode::new(
            node,
            ChaosConfig {
                delay_rate: 1.0,
                delay: Duration::from_millis(25),
                only_kinds: vec!["FetchChunk".to_owned()],
                ..ChaosConfig::default()
            },
        ));
        let governor = QueryGovernor::unbounded();
        // Ctrl-C equivalent: an external cancel shortly after the
        // conversation starts — Execute has staged a ticket by then.
        let token = governor.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            token.cancel();
        });
        let err = fed
            .ship_query_governed("gov-cancel", "X = SELECT() GOVC; MATERIALIZE X;", 512, &governor)
            .unwrap_err();
        canceller.join().unwrap();
        match err {
            FederationError::Interrupted(ref msg) => {
                assert!(msg.contains("cancelled"), "{msg}");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // The interrupted conversation still released its staged ticket.
        assert_eq!(fed.staged_results("gov-cancel").unwrap(), 0);
    });
}
