//! The one query path, over the whole script corpus: every script runs
//! through `Session::run` with no result tier, with the CLI's on-disk
//! store and with serve's in-memory cache, each cold and then warm, and
//! all of that twice: alone, at the pool's full width, and with another
//! request in flight, at width 1. All twelve runs must
//! produce the same outputs, those outputs must match the script's
//! `.expect`, and a tier must execute the cold run and answer the warm
//! one. Only the first of them plans the script; the other eleven
//! reuse its prepared plan.
//!
//! Operators share the region buffers of the resident fixtures
//! copy-on-write, so after all of it each fixture must still encode to
//! the bytes it had before the first script ran.
//!
//! Then the prepared plans' validity: a repeated text reuses its plan,
//! a source saved again forces a new one, and a text that did not
//! compile is not kept.

#[path = "../../../tests/common/corpus.rs"]
mod corpus;

use nggc_core::{fingerprint, CacheOutcome, GovernorLimits, ResultCache};
use nggc_engine::ExecContext;
use nggc_formats::native_v2::encode_dataset_v2;
use nggc_gdm::{Attribute, Dataset, GRegion, Sample, Schema, Strand, Value, ValueType};
use nggc_repository::{Repository, ResultStore};
use nggc_server::{Planning, QueryReport, Request, RunError, Session, Tier};
use std::collections::HashMap;
use std::convert::Infallible;
use std::path::Path;
use std::sync::Arc;

/// Everything an output holds that a result tier must give back: names,
/// schema, sample metadata and every region with its values.
fn content(outputs: &HashMap<String, Dataset>) -> String {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let ds = &outputs[name];
        out.push_str(&format!("== {name} :: {}\n", ds.schema));
        for sample in &ds.samples {
            let meta: Vec<String> =
                sample.metadata.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("  {} [{}]\n", sample.name, meta.join(", ")));
            for region in sample.regions.iter() {
                out.push_str(&format!("    {region}\n"));
            }
        }
    }
    out
}

/// Every script through every tier, cold then warm, on a fresh store
/// and cache: the outputs must match the `.expect` and `reference`
/// (filled on first use per script), and a tier must execute the cold
/// run and answer the warm one.
fn run_corpus(session: &Session, root: &Path, pass: &str, reference: &mut HashMap<String, String>) {
    let store = ResultStore::open(root.join(format!("result_cache_{pass}")), 64 << 20);
    let cache = ResultCache::new(64 << 20);
    let scripts =
        corpus::scripts(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/gmql_scripts"));
    for (name, query, expected) in scripts {
        // A script this session has not run yet is planned once, by its
        // first run; every other run reuses that plan.
        let mut planning =
            if reference.contains_key(&name) { Planning::Reused } else { Planning::Prepared };
        for (tier_name, tier) in
            [("none", Tier::None), ("disk", Tier::Disk(&store)), ("memory", Tier::Memory(&cache))]
        {
            let mut outcomes = Vec::new();
            for _ in ["cold", "warm"] {
                let request = Request {
                    text: &query,
                    tier,
                    admit: || Ok::<_, Infallible>((Some(GovernorLimits::default()), ())),
                    register: |_| (),
                };
                let report = session
                    .run(request)
                    .unwrap_or_else(|e| panic!("{pass}: script {name}, tier {tier_name}: {e}"));
                let outputs = (report.outputs.as_ref())
                    .unwrap_or_else(|e| panic!("{pass}: script {name}, tier {tier_name}: {e}"));
                assert_eq!(corpus::summarize(outputs), expected, "{pass}: {name}, {tier_name}");
                let got = content(outputs);
                let want = reference.entry(name.clone()).or_insert_with(|| got.clone());
                assert_eq!(&got, want, "{pass}: script {name}: tier {tier_name} changed it");
                assert_eq!(report.planning, planning, "{pass}: {name}, {tier_name}");
                planning = Planning::Reused;
                outcomes.push(report.outcome);
            }
            let warm =
                if matches!(tier, Tier::None) { CacheOutcome::Miss } else { CacheOutcome::Hit };
            assert_eq!(outcomes, [CacheOutcome::Miss, warm], "{pass}: {name}, tier {tier_name}");
        }
    }
}

#[test]
fn every_script_is_the_same_through_every_tier_cold_and_warm() {
    let root = std::env::temp_dir().join(format!("nggc_session_corpus_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    {
        let mut repo = Repository::open(&root).unwrap();
        for dataset in corpus::fixture_datasets() {
            repo.save(&dataset).unwrap();
        }
    }
    let repo = Repository::open(&root).unwrap();
    let session = Session::new(repo, ExecContext::with_workers(2), "test", None);
    let mut reference = HashMap::new();
    // The fixtures, resident, and their bytes: operators share these
    // buffers, so the bytes must be the same after every script ran.
    let resident: Vec<(Arc<Dataset>, Vec<u8>)> = corpus::fixture_datasets()
        .iter()
        .map(|d| {
            let loaded = session.repo.load(&d.name).unwrap();
            let bytes = encode_dataset_v2(&loaded).unwrap();
            (loaded, bytes)
        })
        .collect();

    // Alone: every miss runs with the whole pool.
    let with_company = nggc_obs::global().counter("nggc_exec_with_company_total");
    run_corpus(&session, &root, "alone", &mut reference);
    assert_eq!(with_company.get(), 0, "a request alone has the whole pool");

    // In company: a second request sits inside `Session::run`, held in
    // admission, so each miss runs at width 2 / 2 = 1: inline, serially.
    let (release, held) = std::sync::mpsc::channel::<()>();
    let (entered, entering) = std::sync::mpsc::channel::<()>();
    let shared = &session;
    std::thread::scope(|s| {
        let companion = s.spawn(move || {
            let dataset = &corpus::fixture_datasets()[0].name;
            let text = format!("X = SELECT() {dataset}; MATERIALIZE X;");
            let request = Request {
                text: &text,
                tier: Tier::None,
                admit: || {
                    entered.send(()).unwrap();
                    held.recv().ok();
                    Err::<(Option<GovernorLimits>, ()), _>("released")
                },
                register: |_| (),
            };
            matches!(shared.run(request), Err(RunError::Refused("released")))
        });
        entering.recv().unwrap();
        run_corpus(&session, &root, "in_company", &mut reference);
        drop(release);
        assert!(companion.join().unwrap());
    });
    assert!(with_company.get() > 0, "a request in company runs at a fair width");
    // No operator wrote into a buffer it shared with a resident dataset.
    for (dataset, bytes) in &resident {
        for sample in &dataset.samples {
            let walked: usize = sample.regions.iter().map(GRegion::encoded_size).sum();
            assert_eq!(sample.regions.known_size(), Some(walked), "{}", dataset.name);
        }
        assert_eq!(&encode_dataset_v2(dataset).unwrap(), bytes, "{} was written", dataset.name);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A temporary repository root, empty.
fn tmp(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("nggc_session_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// Dataset `name`: one sample of three chr1 regions, each carrying one
/// value per attribute of `attributes`, made from the region's index.
fn dataset(name: &str, attributes: &[(&str, ValueType)]) -> Dataset {
    let schema =
        Schema::new(attributes.iter().map(|&(a, ty)| Attribute::new(a, ty)).collect()).unwrap();
    let mut ds = Dataset::new(name, schema);
    let regions = (0..3u64)
        .map(|i| {
            let values = (attributes.iter())
                .map(|&(_, ty)| match ty {
                    ValueType::Int => Value::Int(i as i64),
                    ValueType::Float => Value::Float(i as f64),
                    ValueType::Bool => Value::Bool(i % 2 == 0),
                    ValueType::Str => Value::Str(format!("r{i}")),
                })
                .collect();
            GRegion::new("chr1", i * 100, i * 100 + 50, Strand::Pos).with_values(values)
        })
        .collect();
    ds.add_sample(Sample::new("s1", name).with_regions(regions)).unwrap();
    ds
}

/// A session over a fresh repository holding `datasets`.
fn session_with(tag: &str, datasets: &[Dataset]) -> (std::path::PathBuf, Session) {
    let root = tmp(tag);
    let mut repo = Repository::open(&root).unwrap();
    for ds in datasets {
        repo.save(ds).unwrap();
    }
    (root, Session::new(repo, ExecContext::with_workers(2), "test", None))
}

/// Run `text` through `session` with `tier`, ungoverned.
fn run(session: &Session, text: &str, tier: Tier<'_>) -> Result<QueryReport, RunError<Infallible>> {
    session.run(Request { text, tier, admit: || Ok::<_, Infallible>((None, ())), register: |_| () })
}

#[test]
fn a_repeated_text_reuses_its_plan_and_gives_the_same_outputs() {
    let (root, session) = session_with("repeat", &[dataset("D", &[("score", ValueType::Float)])]);
    let text = "X = SELECT(region: score >= 1) D; Y = SELECT(region: score < 2) X; MATERIALIZE Y;";
    let cache = ResultCache::new(1 << 20);
    let first = run(&session, text, Tier::None).unwrap();
    let second = run(&session, text, Tier::None).unwrap();
    assert_eq!((first.planning, second.planning), (Planning::Prepared, Planning::Reused));
    assert!(std::sync::Arc::ptr_eq(&first.plan, &second.plan), "the same plan, not a copy");
    assert_eq!(fingerprint(&first.plan), fingerprint(&second.plan));
    // The optimizer's account travels with the plan.
    assert_eq!(first.optimizer, second.optimizer);
    assert_eq!(second.optimizer.selects_fused, 1);
    let outputs = |r: &QueryReport| content(r.outputs.as_ref().unwrap());
    assert_eq!(outputs(&first), outputs(&second));
    assert!(outputs(&first).contains("chr1:100-150"), "{}", outputs(&first));
    // A reused plan reaches the result tier like a prepared one.
    let cold = run(&session, text, Tier::Memory(&cache)).unwrap();
    let warm = run(&session, text, Tier::Memory(&cache)).unwrap();
    assert_eq!((cold.planning, cold.outcome), (Planning::Reused, CacheOutcome::Miss));
    assert_eq!((warm.planning, warm.outcome), (Planning::Reused, CacheOutcome::Hit));
    assert_eq!(outputs(&warm), outputs(&first));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_source_saved_again_with_another_schema_is_planned_again() {
    let (root, mut session) =
        session_with("resave", &[dataset("D", &[("score", ValueType::Float)])]);
    let text = "X = SELECT() D; MATERIALIZE X;";
    let before = run(&session, text, Tier::None).unwrap();
    assert!(content(before.outputs.as_ref().unwrap()).contains(", score: float)"));

    // The same name, a new schema, through the session's own repository.
    let wider = [("name", ValueType::Str), ("score", ValueType::Int)];
    session.repo.save(&dataset("D", &wider)).unwrap();
    let after = run(&session, text, Tier::None).unwrap();
    assert_eq!(after.planning, Planning::Prepared, "D moved to a new generation");
    let got = content(after.outputs.as_ref().unwrap());
    assert!(got.contains(", name: string, score: int)"), "the new schema: {got}");
    assert!(got.contains("[r1,1]"), "the new values: {got}");
    assert_eq!(run(&session, text, Tier::None).unwrap().planning, Planning::Reused);

    // A plan that no longer compiles against the new schema is not run.
    let filtered = "X = SELECT(region: score > 0.5) D; MATERIALIZE X;";
    run(&session, filtered, Tier::None).unwrap();
    session.repo.save(&dataset("D", &[("name", ValueType::Str)])).unwrap();
    assert!(matches!(run(&session, filtered, Tier::None), Err(RunError::Compile(_))));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_text_that_did_not_compile_is_not_kept() {
    let (root, mut session) = session_with("uncompiled", &[]);
    let text = "X = SELECT() LATER; MATERIALIZE X;";
    assert!(matches!(run(&session, text, Tier::None), Err(RunError::Compile(_))));
    assert!(matches!(run(&session, "X = SELECT(", Tier::None), Err(RunError::Parse(_))));
    session.repo.save(&dataset("LATER", &[("score", ValueType::Float)])).unwrap();
    let report = run(&session, text, Tier::None).unwrap();
    assert_eq!(report.planning, Planning::Prepared);
    assert_eq!(corpus::summarize(report.outputs.as_ref().unwrap()).lines().count(), 1);
    std::fs::remove_dir_all(&root).ok();
}

/// Every output buffer of `report` is batch-backed and still holds no
/// row.
fn assert_no_rows(report: &QueryReport, when: &str) {
    for ds in report.outputs.as_ref().unwrap().values() {
        for sample in &ds.samples {
            assert!(sample.regions.batch().is_some(), "{when}: {} is batch-backed", ds.name);
            assert!(!sample.regions.has_rows(), "{when}: {} built its rows", ds.name);
        }
    }
}

/// Save every output of `report` under its own name.
fn save_outputs(session: &mut Session, report: &QueryReport) {
    for ds in report.outputs.as_ref().unwrap().values() {
        session.repo.save(ds).unwrap();
    }
}

#[test]
fn writing_a_cold_output_builds_none_of_its_rows() {
    let root = tmp("no_rows");
    let d = dataset("D", &[("name", ValueType::Str), ("score", ValueType::Float)]);
    Repository::open(&root).unwrap().save(&d).unwrap();
    // Without a dataset cache, as a one-shot query opens it: every read is
    // cold.
    let repo = Repository::open(&root).unwrap().without_dataset_cache();
    let mut session = Session::new(repo, ExecContext::with_workers(2), "test", None);
    let store = ResultStore::open(root.join("result_cache"), 64 << 20);
    for text in [
        "X = PROJECT(score) D; MATERIALIZE X;",
        "X = SELECT(region: chr == 'chr1') D; MATERIALIZE X;",
    ] {
        let cold = run(&session, text, Tier::Disk(&store)).unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss, "{text}");
        assert_no_rows(&cold, &format!("{text}: after the store write"));
        save_outputs(&mut session, &cold);
        assert_no_rows(&cold, &format!("{text}: after the save"));
        let hit = run(&session, text, Tier::Disk(&store)).unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit, "{text}");
        save_outputs(&mut session, &hit);
        assert_no_rows(&hit, &format!("{text}: after a store hit and a save"));
        assert_eq!(content(hit.outputs.as_ref().unwrap()), content(cold.outputs.as_ref().unwrap()));
    }
    std::fs::remove_dir_all(&root).ok();
}
