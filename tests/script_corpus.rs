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

use nggc::gdm::*;
use nggc::gmql::{ExecOptions, GmqlEngine};
use std::path::Path;

/// The same hand-checked world as `tests/gmql_operators.rs`.
fn fixture(workers: usize, opts: ExecOptions) -> GmqlEngine {
    let mut engine = GmqlEngine::with_workers(workers).with_options(opts);
    for dataset in fixture_datasets() {
        engine.register(dataset);
    }
    engine
}

fn fixture_datasets() -> [Dataset; 2] {
    let genes_schema = Schema::new(vec![
        Attribute::new("annType", ValueType::Str),
        Attribute::new("name", ValueType::Str),
    ])
    .unwrap();
    let mut genes = Dataset::new("GENES", genes_schema);
    genes
        .add_sample(
            Sample::new("ref", "GENES")
                .with_regions(vec![
                    GRegion::new("chr1", 100, 200, Strand::Pos)
                        .with_values(vec!["gene".into(), "A".into()]),
                    GRegion::new("chr1", 400, 500, Strand::Neg)
                        .with_values(vec!["gene".into(), "B".into()]),
                    GRegion::new("chr1", 800, 900, Strand::Pos)
                        .with_values(vec!["gene".into(), "C".into()]),
                ])
                .with_metadata(Metadata::from_pairs([("source", "ucsc")])),
        )
        .unwrap();

    let peaks_schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
    let mut peaks = Dataset::new("PEAKS", peaks_schema);
    peaks
        .add_sample(
            Sample::new("hela", "PEAKS")
                .with_regions(vec![
                    GRegion::new("chr1", 120, 140, Strand::Unstranded)
                        .with_values(vec![5.0.into()]),
                    GRegion::new("chr1", 150, 260, Strand::Unstranded)
                        .with_values(vec![7.0.into()]),
                    GRegion::new("chr1", 600, 650, Strand::Unstranded)
                        .with_values(vec![1.0.into()]),
                ])
                .with_metadata(Metadata::from_pairs([("cell", "HeLa"), ("age", "30")])),
        )
        .unwrap();
    peaks
        .add_sample(
            Sample::new("k562", "PEAKS")
                .with_regions(vec![
                    GRegion::new("chr1", 410, 450, Strand::Unstranded)
                        .with_values(vec![9.0.into()]),
                    GRegion::new("chr1", 860, 880, Strand::Unstranded)
                        .with_values(vec![3.0.into()]),
                ])
                .with_metadata(Metadata::from_pairs([("cell", "K562"), ("age", "20")])),
        )
        .unwrap();
    [genes, peaks]
}

fn summarize(out: &std::collections::HashMap<String, Dataset>) -> String {
    let mut lines: Vec<String> = out
        .iter()
        .map(|(name, ds)| format!("{name}\t{}\t{}", ds.sample_count(), ds.region_count()))
        .collect();
    lines.sort();
    lines.join("\n")
}

/// Every script of the corpus with its expectation: `(name, query, expected)`.
fn corpus() -> Vec<(String, String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/gmql_scripts");
    let mut scripts: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "gmql").unwrap_or(false))
        .collect();
    scripts.sort();
    assert!(scripts.len() >= 5, "corpus present");
    scripts
        .into_iter()
        .map(|script| {
            let name = script.file_stem().unwrap().to_string_lossy().into_owned();
            let query = std::fs::read_to_string(&script).unwrap();
            let expect_path = script.with_extension("expect");
            let expected = std::fs::read_to_string(&expect_path)
                .unwrap_or_else(|_| panic!("missing {}", expect_path.display()))
                .trim()
                .to_owned();
            (name, query, expected)
        })
        .collect()
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
