//! A region buffer remembers its encoded size: a cold read sizes every
//! sample inside the decode job that builds it, and an operator that
//! hands a buffer on whole hands its size on with it, so nothing after
//! the read walks the rows again to size them.

use nggc::gdm::{
    Attribute, Dataset, GRegion, Metadata, Regions, Sample, Schema, Strand, Value, ValueType,
};
use nggc::repository::{Repository, ScanOptions, ScanRequest};
use std::collections::HashMap;

fn dataset() -> Dataset {
    let schema = Schema::new(vec![
        Attribute::new("score", ValueType::Float),
        Attribute::new("name", ValueType::Str),
    ])
    .unwrap();
    let mut ds = Dataset::new("D", schema);
    for s in 0..3u64 {
        let regions = ["chr1", "chr2", "chrX"]
            .iter()
            .flat_map(|chrom| {
                (0..200u64).map(move |i| {
                    GRegion::new(*chrom, i * 40 + s, i * 40 + 25, Strand::Neg)
                        .with_values(vec![Value::Float(i as f64), Value::Str(format!("r{i}"))])
                })
            })
            .collect();
        let cell = ["K562", "HeLa", "K562"][s as usize];
        ds.add_sample(
            Sample::new(format!("s{s}"), "D")
                .with_regions(regions)
                .with_metadata(Metadata::from_pairs([("cell", cell)])),
        )
        .unwrap();
    }
    ds
}

/// `dataset()` saved into a fresh repository, reopened cold.
fn repo(tag: &str) -> (std::path::PathBuf, Repository) {
    let root = std::env::temp_dir().join(format!("nggc_remembered_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    Repository::open(&root).unwrap().save(&dataset()).unwrap();
    (root.clone(), Repository::open(&root).unwrap())
}

/// Every sample's buffer knows its size, and it is what a walk counts.
fn assert_sized(ds: &Dataset) {
    assert!(ds.region_count() > 0, "{} is empty", ds.name);
    for sample in &ds.samples {
        let walked: usize = sample.regions.iter().map(GRegion::encoded_size).sum();
        assert_eq!(sample.regions.known_size(), Some(walked), "{}/{}", ds.name, sample.name);
    }
}

#[test]
fn cold_full_and_pruned_reads_come_back_sized() {
    let (root, repo) = repo("cold");
    let repo = repo.without_dataset_cache();
    assert_sized(&repo.load("D").unwrap());
    let k562 = |_: &str, metadata: &Metadata| metadata.has("cell", "K562");
    let req = ScanRequest {
        opts: ScanOptions { chroms: Some(["chr2".to_owned()].into()), columns: None },
        admit: Some(&k562),
        ..ScanRequest::default()
    };
    let pruned = repo.scan("D", &req).unwrap();
    assert_eq!(pruned.sample_count(), 2);
    assert_sized(&pruned);
    std::fs::remove_dir_all(&root).ok();
}

fn run(repo: &Repository, query: &str) -> HashMap<String, Dataset> {
    nggc::gmql::run_with_provider(
        query,
        &|name: &str| repo.schema_of(name),
        &nggc::RepoProvider::new(repo),
        &nggc::engine::ExecContext::with_workers(2),
        &nggc::gmql::ExecOptions::default(),
    )
    .unwrap()
}

#[test]
fn an_identity_project_shares_the_buffer_and_its_known_size() {
    let identity = "X = PROJECT(score, name) D; MATERIALIZE X;";
    // Cold: the read sized the buffers the PROJECT hands on.
    let (root, repo) = repo("project");
    let cold = repo.without_dataset_cache();
    assert_sized(&run(&cold, identity)["X"]);

    // Resident: the output holds the cached dataset's very buffers.
    let (_, repo) = self::repo("project");
    let resident = repo.load("D").unwrap();
    assert_sized(&resident);
    let out = run(&repo, identity);
    let x = &out["X"];
    assert_eq!(x.sample_count(), resident.sample_count());
    for (got, held) in x.samples.iter().zip(&resident.samples) {
        assert!(Regions::ptr_eq(&got.regions, &held.regions), "{} was copied", got.name);
    }
    assert_sized(x);
    std::fs::remove_dir_all(&root).ok();
}
