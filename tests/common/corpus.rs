//! The GMQL script corpus (`tests/gmql_scripts/`) and the hand-checked
//! world it runs against — shared by `tests/script_corpus.rs` and the
//! session tests of `nggc-server`, which include this file by path.

#![allow(dead_code)]

use nggc_gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, ValueType};
use std::collections::HashMap;
use std::path::Path;

/// The same hand-checked world as `tests/gmql_operators.rs`.
pub fn fixture_datasets() -> [Dataset; 2] {
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

/// `name<TAB>samples<TAB>regions` per output, sorted: the `.expect` format.
pub fn summarize(out: &HashMap<String, Dataset>) -> String {
    let mut lines: Vec<String> = out
        .iter()
        .map(|(name, ds)| format!("{name}\t{}\t{}", ds.sample_count(), ds.region_count()))
        .collect();
    lines.sort();
    lines.join("\n")
}

/// Every script in `dir` with its expectation: `(name, query, expected)`.
pub fn scripts(dir: &Path) -> Vec<(String, String, String)> {
    let mut scripts: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
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
