//! The one query path, over the whole script corpus: every script runs
//! through `Session::run` with no result tier, with the CLI's on-disk
//! store and with serve's in-memory cache, each cold and then warm. All
//! six runs must produce the same outputs, those outputs must match the
//! script's `.expect`, and a tier must execute the cold run and answer
//! the warm one.

#[path = "../../../tests/common/corpus.rs"]
mod corpus;

use nggc_core::{CacheOutcome, GovernorLimits, ResultCache};
use nggc_engine::ExecContext;
use nggc_gdm::Dataset;
use nggc_repository::{Repository, ResultStore};
use nggc_server::{Request, Session, Tier};
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
    let session = Session { repo, ctx: ExecContext::with_workers(2), span: "test", flight: None };
    let store = ResultStore::open(root.join("result_cache"), 64 << 20);
    let cache = ResultCache::new(64 << 20);
    let scripts =
        corpus::scripts(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/gmql_scripts"));

    for (name, query, expected) in scripts {
        let mut reference: Option<String> = None;
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
                    .unwrap_or_else(|e| panic!("script {name}, tier {tier_name}: {e}"));
                let outputs = (report.outputs.as_ref())
                    .unwrap_or_else(|e| panic!("script {name}, tier {tier_name}: {e}"));
                assert_eq!(corpus::summarize(outputs), expected, "script {name}, {tier_name}");
                let got = content(outputs);
                let want = reference.get_or_insert_with(|| got.clone());
                assert_eq!(&got, want, "script {name}: tier {tier_name} changed the outputs");
                outcomes.push(report.outcome);
            }
            let warm =
                if matches!(tier, Tier::None) { CacheOutcome::Miss } else { CacheOutcome::Hit };
            assert_eq!(outcomes, [CacheOutcome::Miss, warm], "script {name}, tier {tier_name}");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
