//! `Repository::resident_bytes`: a dataset the cache holds is sized at
//! what its entry was charged, and that charge is what walking it counts.
//! Anything the cache does not hold by that very allocation has no
//! resident size.

#[path = "../../../tests/common/corpus.rs"]
mod corpus;

use nggc_gdm::Dataset;
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

#[test]
fn a_full_read_is_sized_at_its_walk() {
    let (root, repo) = corpus_repo("full");
    for dataset in corpus::fixture_datasets() {
        let loaded = repo.load(&dataset.name).unwrap();
        let walked = loaded.encoded_size() as u64;
        assert_eq!(repo.resident_bytes(&dataset.name, &loaded), Some(walked), "{}", dataset.name);
        // A warm read hands out the same allocation, at the same size.
        let again = repo.load(&dataset.name).unwrap();
        assert!(Arc::ptr_eq(&loaded, &again));
        assert_eq!(repo.resident_bytes(&dataset.name, &again), Some(walked));
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_saved_copy_is_sized_at_its_walk() {
    let root = tmp("saved");
    let mut repo = Repository::open(&root).unwrap();
    for dataset in corpus::fixture_datasets() {
        repo.save(&dataset).unwrap();
        let cached = repo.load(&dataset.name).unwrap();
        assert_eq!(
            repo.resident_bytes(&dataset.name, &cached),
            Some(dataset.encoded_size() as u64),
            "{}",
            dataset.name
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_pruned_read_has_no_resident_size() {
    let (root, repo) = corpus_repo("pruned");
    let chroms = Some(std::iter::once("chr1".to_owned()).collect());
    let req = ScanRequest { opts: ScanOptions { chroms, columns: None }, ..ScanRequest::default() };
    let pruned = repo.scan("PEAKS", &req).unwrap();
    assert_eq!(repo.resident_bytes("PEAKS", &pruned), None, "a cold pruned read is not cached");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_replaced_entry_or_a_foreign_arc_has_no_resident_size() {
    let (root, mut repo) = corpus_repo("replaced");
    let before = repo.load("GENES").unwrap();
    let foreign: Arc<Dataset> = Arc::new((*before).clone());
    assert_eq!(repo.resident_bytes("GENES", &foreign), None, "same content, other allocation");
    assert_eq!(repo.resident_bytes("PEAKS", &before), None, "another dataset's entry");
    assert_eq!(repo.resident_bytes("MISSING", &before), None);
    let mut changed = (*before).clone();
    changed.samples.truncate(0);
    repo.save(&changed).unwrap();
    assert_eq!(repo.resident_bytes("GENES", &before), None, "replaced by a later save");
    let after = repo.load("GENES").unwrap();
    assert_eq!(repo.resident_bytes("GENES", &after), Some(after.encoded_size() as u64));
    std::fs::remove_dir_all(&root).ok();
}
