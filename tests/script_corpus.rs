//! Script corpus: every `.gmql` file in `tests/gmql_scripts/` runs
//! against the fixture world and must produce the output cardinalities
//! recorded in its `.expect` sidecar (`name<TAB>samples<TAB>regions`
//! lines, sorted by output name).
//!
//! Each script also runs twice — optimized and unoptimized, serial and
//! parallel — and all four configurations must agree, making the corpus
//! a cheap metamorphic test bed: add a script, record its expectation,
//! and every engine configuration is covered. A fifth run reads the
//! fixture world out of a cold repository, so every script's sources go
//! through the pruned container scan its plan derives.

#[path = "common/corpus.rs"]
mod corpus;

use corpus::{fixture_datasets, summarize};
use nggc::gmql::{ExecOptions, GmqlEngine};
use std::path::Path;

/// Every script of the corpus with its expectation.
fn corpus() -> Vec<(String, String, String)> {
    corpus::scripts(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/gmql_scripts"))
}

/// The same hand-checked world as `tests/gmql_operators.rs`.
fn fixture(workers: usize, opts: ExecOptions) -> GmqlEngine {
    let mut engine = GmqlEngine::with_workers(workers).with_options(opts);
    for dataset in fixture_datasets() {
        engine.register(dataset);
    }
    engine
}

#[test]
fn corpus_matches_expectations_in_all_configurations() {
    let configurations = [
        (1, ExecOptions { meta_first: true, optimize: true }),
        (4, ExecOptions { meta_first: true, optimize: true }),
        (4, ExecOptions { meta_first: false, optimize: false }),
        (2, ExecOptions { meta_first: true, optimize: false }),
    ];

    for (name, query, expected) in corpus() {
        let mut summaries = Vec::new();
        for (workers, opts) in configurations {
            let engine = fixture(workers, opts);
            let out = engine
                .run(&query)
                .unwrap_or_else(|e| panic!("script {name} failed ({workers} workers): {e}"));
            summaries.push(summarize(&out));
        }
        for s in &summaries {
            assert_eq!(s, &summaries[0], "script {name}: all configurations must agree");
        }
        assert_eq!(
            summaries[0], expected,
            "script {name}: cardinalities changed (update its .expect if intentional)"
        );
    }
}

/// The same expectations with the world stored in a repository that is
/// cold for every script: sources with a non-trivial scan spec are read
/// through `Repository::scan` (chromosomes, columns and samples pruned at
/// the container), the others in full.
#[test]
fn corpus_matches_expectations_from_a_cold_repository() {
    let root = std::env::temp_dir().join(format!("nggc_corpus_repo_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    {
        let mut repo = nggc::repository::Repository::open(&root).unwrap();
        for dataset in fixture_datasets() {
            repo.save(&dataset).unwrap();
        }
    }
    let ctx = nggc::engine::ExecContext::with_workers(2);
    for (name, query, expected) in corpus() {
        // `save` and full loads leave datasets resident: reopen.
        let repo = nggc::repository::Repository::open(&root).unwrap();
        let out = nggc::gmql::run_with_provider(
            &query,
            &|dataset| repo.schema_of(dataset),
            &nggc::RepoProvider::new(&repo),
            &ctx,
            &ExecOptions::default(),
        )
        .unwrap_or_else(|e| panic!("script {name} failed on a cold repository: {e}"));
        assert_eq!(summarize(&out), expected, "script {name} from a cold repository");
    }
    std::fs::remove_dir_all(&root).ok();
}
