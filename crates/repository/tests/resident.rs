//! A dataset the repository hands out already knows its size: the region
//! buffers of a full read, a cached copy, a saved copy and a cold pruned
//! read each remember their encoded size, and that size is what a fresh
//! walk over the rows counts. A write to a buffer forgets it. A dataset
//! that goes resident holds rows; one read without a dataset cache holds
//! the batches it decoded into.

#[path = "../../../tests/common/corpus.rs"]
mod corpus;

use nggc_gdm::{Dataset, GRegion};
use nggc_repository::{Repository, ScanOptions, ScanRequest};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_resident_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The corpus saved into a fresh repository, reopened with a cold cache.
fn corpus_repo(tag: &str) -> (PathBuf, Repository) {
    let root = tmp(tag);
    {
        let mut repo = Repository::open(&root).unwrap();
        for dataset in corpus::fixture_datasets() {
            repo.save(&dataset).unwrap();
        }
    }
    (root.clone(), Repository::open(&root).unwrap())
}

/// Every sample's buffer remembers a size, and it is the one a fresh walk
/// over its rows counts.
fn assert_sized_at_its_walk(dataset: &Dataset) {
    for sample in &dataset.samples {
        let walked: usize = sample.regions.iter().map(GRegion::encoded_size).sum();
        assert_eq!(sample.regions.known_size(), Some(walked), "{}/{}", dataset.name, sample.name);
    }
}

#[test]
fn a_full_read_knows_its_size() {
    let (root, repo) = corpus_repo("full");
    for dataset in corpus::fixture_datasets() {
        let loaded = repo.load(&dataset.name).unwrap();
        assert_sized_at_its_walk(&loaded);
        // A warm read hands out the same allocation, size and all.
        let again = repo.load(&dataset.name).unwrap();
        assert!(Arc::ptr_eq(&loaded, &again));
        assert_sized_at_its_walk(&again);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_saved_copy_knows_its_size() {
    let root = tmp("saved");
    let mut repo = Repository::open(&root).unwrap();
    for dataset in corpus::fixture_datasets() {
        repo.save(&dataset).unwrap();
        let cached = repo.load(&dataset.name).unwrap();
        assert_sized_at_its_walk(&cached);
        assert_eq!(cached.encoded_size(), dataset.encoded_size(), "{}", dataset.name);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_cold_pruned_read_knows_its_size() {
    let (root, repo) = corpus_repo("pruned");
    let chroms = Some(std::iter::once("chr1".to_owned()).collect());
    let req = ScanRequest { opts: ScanOptions { chroms, columns: None }, ..ScanRequest::default() };
    let pruned = repo.scan("PEAKS", &req).unwrap();
    assert!(pruned.region_count() > 0);
    assert_sized_at_its_walk(&pruned);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_copy_shares_the_size_until_it_writes() {
    let (root, mut repo) = corpus_repo("replaced");
    let before = repo.load("GENES").unwrap();
    let mut changed = (*before).clone();
    assert_sized_at_its_walk(&changed);
    changed.samples[0].regions_mut().pop();
    assert_eq!(changed.samples[0].regions.known_size(), None, "a write forgets the size");
    assert_sized_at_its_walk(&before);
    repo.save(&changed).unwrap();
    // Saving sized the written buffer again, and the cache keeps it.
    let after = repo.load("GENES").unwrap();
    assert_sized_at_its_walk(&after);
    assert_eq!(after.region_count() + 1, before.region_count());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_resident_read_holds_rows_and_a_cacheless_one_batches() {
    let (root, repo) = corpus_repo("forms");
    let cacheless = Repository::open(&root).unwrap().without_dataset_cache();
    for dataset in corpus::fixture_datasets() {
        let resident = repo.load(&dataset.name).unwrap();
        let read = cacheless.load(&dataset.name).unwrap();
        for (kept, once) in resident.samples.iter().zip(&read.samples) {
            assert!(kept.regions.has_rows() && kept.regions.batch().is_none(), "{}", kept.name);
            assert!(once.regions.batch().is_some() && !once.regions.has_rows(), "{}", once.name);
            assert_eq!(kept.regions.known_size(), once.regions.known_size());
            assert_eq!(kept.regions, once.regions);
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
