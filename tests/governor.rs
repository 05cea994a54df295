//! Acceptance test for the query resource governor (ISSUE 4): a
//! deliberately pathological cartesian-heavy JOIN under
//! `--timeout 500ms --max-memory 64MiB`-equivalent limits terminates
//! promptly with a typed error naming the plan node and the resources
//! spent — and the **same process** then serves the next query from the
//! warm repository cache, proving a runaway query no longer takes the
//! engine (or its caches) down with it.

#[path = "common/watchdog.rs"]
mod watchdog;

use nggc::gdm::{Dataset, GRegion, Metadata, Sample, Schema, Strand};
use nggc::gmql::{
    run_with_provider_governed, ExecOptions, GmqlError, GovernorLimits, QueryGovernor,
};
use nggc::repository::{RepoError, Repository, ScanRequest};
use nggc::RepoProvider;
use std::time::{Duration, Instant};
use watchdog::with_watchdog;

/// 5000 dense regions on one chromosome: a DLE(1e6) self-join
/// enumerates ~25M candidate pairs — many seconds of kernel time and
/// hundreds of MB of output if left unbounded.
fn big_dataset() -> Dataset {
    let mut ds = Dataset::new("BIG", Schema::empty());
    let regions = (0..5000u64)
        .map(|i| {
            let left = (i * 137) % 1_000_000;
            GRegion::new("chr1", left, left + 500, Strand::Unstranded)
        })
        .collect();
    ds.add_sample(Sample::new("s", "BIG").with_regions(regions)).unwrap();
    ds
}

#[test]
fn pathological_join_trips_governor_then_process_serves_from_warm_cache() {
    with_watchdog("governor_acceptance", 180, || {
        let dir = std::env::temp_dir().join(format!("nggc_gov_accept_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut repo = Repository::open(&dir).unwrap();
        repo.save(&big_dataset()).unwrap();

        let limits = GovernorLimits {
            timeout: Some(Duration::from_millis(500)),
            max_memory: Some(64 * 1024 * 1024),
        };
        let schema_of = |name: &str| repo.schema_of(name);
        let ctx = nggc::engine::ExecContext::with_workers(2);

        // Query 1: the pathological join. Typed resource-limit error,
        // naming the plan node, with the spend in the report.
        let governor = QueryGovernor::new(limits);
        let t0 = Instant::now();
        let err = run_with_provider_governed(
            "J = JOIN(DLE(1000000)) BIG BIG; MATERIALIZE J;",
            &schema_of,
            &RepoProvider::governed(&repo, &governor),
            &ctx,
            &ExecOptions::default(),
            &governor,
        )
        .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(60),
            "prompt termination, not a 25M-pair run: {elapsed:?}"
        );
        match err {
            GmqlError::DeadlineExceeded { ref node, elapsed_ms, limit_ms, .. } => {
                assert_eq!(node, "J");
                assert_eq!(limit_ms, 500);
                assert!(elapsed_ms >= 500);
            }
            GmqlError::MemoryExhausted { ref node, requested, budget, .. } => {
                assert_eq!(node, "J");
                assert!(requested > budget);
            }
            ref other => panic!("expected a resource-limit error, got {other:?}"),
        }
        assert!(err.is_resource_limit());
        assert!(governor.mem_peak() > 0, "partial progress includes governed memory spend");

        // Query 2, same process, same limits: a sane query over the same
        // source succeeds — served from the repository cache warmed by
        // the failed run.
        let reg = nggc::obs::global();
        let hits_before = reg.counter("nggc_repo_cache_hits_total").get();
        let governor2 = QueryGovernor::new(limits);
        let (outputs, _metrics) = run_with_provider_governed(
            "X = SELECT(region: left < 1000) BIG; MATERIALIZE X;",
            &schema_of,
            &RepoProvider::governed(&repo, &governor2),
            &ctx,
            &ExecOptions::default(),
            &governor2,
        )
        .unwrap();
        assert!(outputs["X"].region_count() > 0);
        assert!(
            reg.counter("nggc_repo_cache_hits_total").get() > hits_before,
            "second query hit the cache the failed query warmed"
        );

        // The trip metrics recorded the incident.
        let tripped = reg.counter("nggc_query_deadline_exceeded_total").get()
            + reg.counter("nggc_query_mem_rejections_total").get();
        assert!(tripped >= 1, "the governor trip was counted");

        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn cancelled_query_reports_partial_progress_and_engine_survives() {
    with_watchdog("governor_cancel_survives", 180, || {
        let ds = big_dataset();
        let provider = move |_: &str| -> Result<Dataset, GmqlError> { Ok(ds.clone()) };
        let schema_of = |name: &str| (name == "BIG").then(Schema::empty);
        let ctx = nggc::engine::ExecContext::with_workers(2);

        // Ctrl-C equivalent: cancel from another thread mid-join.
        let governor = QueryGovernor::unbounded();
        let token = governor.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            token.cancel();
        });
        let err = run_with_provider_governed(
            "J = JOIN(DLE(1000000)) BIG BIG; MATERIALIZE J;",
            &schema_of,
            &provider,
            &ctx,
            &ExecOptions::default(),
            &governor,
        )
        .unwrap_err();
        canceller.join().unwrap();
        match err {
            GmqlError::Cancelled { ref node, elapsed_ms, .. } => {
                assert!(!node.is_empty(), "the interrupted node is named");
                assert!(elapsed_ms >= 150, "elapsed time is reported");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // The same ExecContext still executes follow-up work: the cancel
        // poisoned the governor, not the engine.
        let ds2 = big_dataset();
        let provider2 = move |_: &str| -> Result<Dataset, GmqlError> { Ok(ds2.clone()) };
        let governor2 = QueryGovernor::unbounded();
        let (outputs, _) = run_with_provider_governed(
            "X = SELECT(region: left < 1000) BIG; MATERIALIZE X;",
            &schema_of,
            &provider2,
            &ctx,
            &ExecOptions::default(),
            &governor2,
        )
        .unwrap();
        assert!(outputs["X"].region_count() > 0);
    });
}

/// Eight equally sized chromosomes, so a one-chromosome read
/// materialises an eighth of the dataset.
fn eight_chrom_dataset() -> Dataset {
    let mut ds = Dataset::new("WIDE8", Schema::empty());
    let regions = (1..=8u64)
        .flat_map(|c| {
            (0..2000u64).map(move |i| {
                GRegion::new(format!("chr{c}").as_str(), i * 50, i * 50 + 40, Strand::Unstranded)
            })
        })
        .collect();
    ds.add_sample(Sample::new("s", "WIDE8").with_regions(regions)).unwrap();
    ds
}

/// Run `query` on `repo` through the governed [`RepoProvider`] under a
/// memory budget; the outputs and the governor's peak.
fn run_under_budget(
    repo: &Repository,
    max_memory: u64,
    query: &str,
) -> Result<(std::collections::HashMap<String, Dataset>, u64), GmqlError> {
    let limits = GovernorLimits { timeout: None, max_memory: Some(max_memory) };
    let governor = QueryGovernor::new(limits);
    run_with_provider_governed(
        query,
        &|name| repo.schema_of(name),
        &RepoProvider::governed(repo, &governor),
        &nggc::engine::ExecContext::with_workers(2),
        &ExecOptions::default(),
        &governor,
    )
    .map(|(outputs, _)| (outputs, governor.mem_peak()))
}

/// ROADMAP item 4a: the pre-check of a pruned load uses the share of the
/// dataset the scan spec selects, not the whole catalog estimate. Under
/// a budget between the two, the one-chromosome query runs and the
/// unfiltered one is still refused before anything is decoded.
#[test]
fn memory_budget_admits_a_pruned_load_it_would_refuse_in_full() {
    let dir = std::env::temp_dir().join(format!("nggc_gov_pruned_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Repository::open(&dir).unwrap().save(&eight_chrom_dataset()).unwrap();
    // Reopened: `save` leaves its dataset resident, and a resident full
    // copy is served (and accounted) as the full dataset.
    let repo = Repository::open(&dir).unwrap();
    let full = repo.entry("WIDE8").unwrap().stats.bytes as u64;
    // Room for the pruned source and SELECT's output (an eighth each),
    // not for the dataset.
    let run = |query: &str| run_under_budget(&repo, full / 2, query);

    let (outputs, peak) = run("X = SELECT(region: chr == 'chr3') WIDE8; MATERIALIZE X;").unwrap();
    assert_eq!(outputs["X"].region_count(), 2000);
    assert!(peak > 0 && peak <= full / 2, "peak {peak} of a {full}-byte dataset");

    match run("X = SELECT(region: left >= 0) WIDE8; MATERIALIZE X;").unwrap_err() {
        GmqlError::MemoryExhausted { node, requested, budget, .. } => {
            assert_eq!(node, "LOAD WIDE8");
            assert_eq!((requested, budget), (full, full / 2));
        }
        other => panic!("expected MemoryExhausted, got {other:?}"),
    }
    // The pruned load never became resident: a budget the dataset fits
    // in reads all of it.
    let fits = ScanRequest { budget: Some(full), ..ScanRequest::default() };
    assert_eq!(repo.scan("WIDE8", &fits).unwrap().region_count(), 16_000);
    std::fs::remove_dir_all(&dir).ok();
}

/// The same for the sample axis: eight equally sized samples, two of them
/// K562. Under a budget between "the admitted samples" and "the whole
/// dataset" the metadata-selective query runs, and the unrestricted one
/// is refused before any block is read — shown by a damaged block, which
/// a read would have reported instead.
#[test]
fn memory_budget_admits_a_sample_pruned_scan_it_would_refuse_in_full() {
    let dir = std::env::temp_dir().join(format!("nggc_gov_samples_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut ds = Dataset::new("CELLS8", Schema::empty());
    for s in 0..8u64 {
        let regions = (0..2000u64)
            .map(|i| GRegion::new("chr1", i * 50 + s, i * 50 + 40, Strand::Unstranded))
            .collect();
        let cell = if s < 2 { "K562" } else { "HeLa" };
        ds.add_sample(
            Sample::new(format!("s{s}"), "CELLS8")
                .with_regions(regions)
                .with_metadata(Metadata::from_pairs([("cell", cell)])),
        )
        .unwrap();
    }
    Repository::open(&dir).unwrap().save(&ds).unwrap();
    let repo = Repository::open(&dir).unwrap();
    let full = repo.entry("CELLS8").unwrap().stats.bytes as u64;
    // The last block of the container belongs to s7, a HeLa sample.
    let container = dir.join("datasets/CELLS8").join(nggc::formats::native_v2::CONTAINER_FILE);
    let mut bytes = std::fs::read(&container).unwrap();
    let at = bytes.len() - 4 - 64;
    bytes[at] ^= 0x20;
    std::fs::write(&container, &bytes).unwrap();

    // Room for the two admitted samples and SELECT's copy of them (a
    // quarter each), not for the dataset.
    let (outputs, peak) =
        run_under_budget(&repo, full / 2, "X = SELECT(cell == 'K562') CELLS8; MATERIALIZE X;")
            .unwrap();
    assert_eq!((outputs["X"].sample_count(), outputs["X"].region_count()), (2, 4000));
    assert!(peak > 0 && peak <= full / 2, "peak {peak} of a {full}-byte dataset");

    match run_under_budget(&repo, full / 2, "X = SELECT(region: left >= 0) CELLS8; MATERIALIZE X;")
        .unwrap_err()
    {
        GmqlError::MemoryExhausted { node, requested, budget, .. } => {
            assert_eq!(node, "LOAD CELLS8");
            assert_eq!((requested, budget), (full, full / 2));
        }
        other => panic!("expected MemoryExhausted before any block is read, got {other:?}"),
    }
    // `Repository::scan` itself: the share is computed from the index, and
    // the budget is checked against it.
    let k562 = |_: &str, m: &Metadata| m.has("cell", "K562");
    let hela = |_: &str, m: &Metadata| m.has("cell", "HeLa");
    let req = |admit, budget| ScanRequest { admit: Some(admit), budget, ..ScanRequest::default() };
    assert_eq!(repo.scan("CELLS8", &req(&k562, Some(full / 4 + 8))).unwrap().sample_count(), 2);
    match repo.scan("CELLS8", &req(&hela, Some(full / 2))).unwrap_err() {
        RepoError::Budget { estimated, budget, .. } => {
            assert!(estimated > budget && estimated < full, "{estimated} of {full}");
        }
        other => panic!("expected a budget refusal, got {other}"),
    }
    // Unbounded, the HeLa scan reads the damaged block and says so.
    let damaged = repo.scan("CELLS8", &req(&hela, None)).unwrap_err();
    assert!(damaged.to_string().contains("s7/chr1"), "{damaged}");
    std::fs::remove_dir_all(&dir).ok();
}

/// SELECT and PROJECT rewrite a source in place when they are its last
/// user — but only a source nobody else holds. A dataset resident in the
/// repository cache is shared with every later query and must come out
/// of any number of queries exactly as it went in.
#[test]
fn queries_never_mutate_a_dataset_the_repository_cache_holds() {
    let dir = std::env::temp_dir().join(format!("nggc_gov_shared_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut repo = Repository::open(&dir).unwrap();
    let schema = Schema::new(vec![
        nggc::gdm::Attribute::new("score", nggc::gdm::ValueType::Float),
        nggc::gdm::Attribute::new("name", nggc::gdm::ValueType::Str),
    ])
    .unwrap();
    let mut ds = Dataset::new("SHARED", schema);
    let regions = (0..500u64)
        .map(|i| {
            GRegion::new(if i % 2 == 0 { "chr1" } else { "chr2" }, i * 10, i * 10 + 5, Strand::Pos)
                .with_values(vec![(i as f64).into(), format!("r{i}").as_str().into()])
        })
        .collect();
    ds.add_sample(Sample::new("s", "SHARED").with_regions(regions)).unwrap();
    repo.save(&ds).unwrap();
    let resident = repo.load("SHARED").unwrap();
    let before = (*resident).clone();

    let schema_of = |name: &str| repo.schema_of(name);
    let ctx = nggc::engine::ExecContext::with_workers(2);
    for query in [
        "X = SELECT(region: chr == 'chr1' AND score > 100) SHARED; MATERIALIZE X;",
        "X = PROJECT(name; half AS score / 2) SHARED; MATERIALIZE X;",
        "A = SELECT(region: left >= 0) SHARED; X = PROJECT(score) A; MATERIALIZE X;",
    ] {
        let governor = QueryGovernor::unbounded();
        let (outputs, metrics) = run_with_provider_governed(
            query,
            &schema_of,
            &RepoProvider::governed(&repo, &governor),
            &ctx,
            &ExecOptions::default(),
            &governor,
        )
        .unwrap();
        assert!(outputs["X"].region_count() > 0, "{query}");
        assert!(metrics.iter().any(|m| m.operator == "SOURCE"), "{query}");
        let after = repo.load("SHARED").unwrap();
        assert!(std::sync::Arc::ptr_eq(&resident, &after), "{query}: still the resident copy");
        assert_eq!(after.samples[0].regions, before.samples[0].regions, "{query}");
        assert_eq!(after.samples[0].metadata, before.samples[0].metadata, "{query}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replicas of one wide experiment on a single chromosome: one pool job
/// holds all the work, and the accumulation depth (about 30) makes
/// HISTOGRAM with order statistics the slowest shape COVER has.
fn wide_replicas() -> Dataset {
    let schema =
        Schema::new(vec![nggc::gdm::Attribute::new("score", nggc::gdm::ValueType::Float)]).unwrap();
    let mut ds = Dataset::new("WIDE", schema);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for s in 0..8 {
        let regions = (0..15_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let left = (state >> 33) % 1_200_000;
                GRegion::new("chr1", left, left + 300, Strand::Unstranded)
                    .with_values(vec![(((state >> 20) % 1000) as f64 / 10.0).into()])
            })
            .collect();
        ds.add_sample(Sample::new(format!("rep{s}"), "WIDE").with_regions(regions)).unwrap();
    }
    ds
}

/// Hands out one resident dataset, as a warm repository does: the source
/// node copies nothing, so nearly all of the clock runs in COVER.
struct Resident(std::sync::Arc<Dataset>);

impl nggc::gmql::DatasetProvider for Resident {
    fn load(&self, _: &str) -> Result<Dataset, GmqlError> {
        Ok((*self.0).clone())
    }
    fn load_shared(&self, _: &str) -> Result<std::sync::Arc<Dataset>, GmqlError> {
        Ok(self.0.clone())
    }
}

/// A deadline that falls inside COVER's kernel makes the kernel stop
/// early with part of its output; the query must end as the typed
/// deadline error naming the node — never as that truncated result — and
/// well before the kernel would have finished.
#[test]
fn deadline_inside_a_wide_cover_is_a_typed_error_not_a_truncated_result() {
    with_watchdog("governor_cover_deadline", 300, || {
        let ds = wide_replicas();
        let provider = Resident(std::sync::Arc::new(ds.clone()));
        let schema_of = |name: &str| (name == "WIDE").then(|| ds.schema.clone());
        let ctx = nggc::engine::ExecContext::with_workers(2);
        let query = "C = HISTOGRAM(1, ANY; aggregate: m AS MEDIAN(score), b AS BAG(score)) WIDE; \
                     MATERIALIZE C;";
        let run = |governor: &QueryGovernor| {
            let t0 = Instant::now();
            let result = run_with_provider_governed(
                query,
                &schema_of,
                &provider,
                &ctx,
                &ExecOptions::default(),
                governor,
            );
            (result, t0.elapsed())
        };

        let (full, full_wall) = run(&QueryGovernor::unbounded());
        let (outputs, _) = full.unwrap();
        assert!(outputs["C"].region_count() > 100_000, "a wide cover");

        let limits = GovernorLimits { timeout: Some(full_wall / 4), max_memory: None };
        let (cut, cut_wall) = run(&QueryGovernor::new(limits));
        match cut {
            Err(GmqlError::DeadlineExceeded { ref node, elapsed_ms, limit_ms, .. }) => {
                assert_eq!(node, "C", "the deadline fell in COVER, not before it");
                assert!(elapsed_ms >= limit_ms);
            }
            Ok((outputs, _)) => panic!(
                "a truncated result got out: {} regions after {cut_wall:?} of a {full_wall:?} run",
                outputs["C"].region_count()
            ),
            Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            cut_wall < full_wall * 3 / 4,
            "the kernel stopped early ({cut_wall:?}), it did not run out its {full_wall:?}"
        );
    });
}
