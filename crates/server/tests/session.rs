//! The one query path, over the whole script corpus: every script runs
//! through `Session::run` with no result tier, with the CLI's on-disk
//! store and with serve's in-memory cache, each cold and then warm, and
//! all of that twice: alone, at the pool's full width, and with another
//! request in flight, at width 1. All twelve runs must
//! produce the same outputs, those outputs must match the script's
//! `.expect`, and a tier must execute the cold run and answer the warm
//! one.

#[path = "../../../tests/common/corpus.rs"]
mod corpus;

use nggc_core::{CacheOutcome, GovernorLimits, ResultCache};
use nggc_engine::ExecContext;
use nggc_gdm::Dataset;
use nggc_repository::{Repository, ResultStore};
use nggc_server::{Request, RunError, Session, Tier};
use std::collections::HashMap;
use std::convert::Infallible;
use std::path::Path;

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
            for region in &sample.regions {
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
    std::fs::remove_dir_all(&root).ok();
}
