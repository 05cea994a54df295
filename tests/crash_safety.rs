//! Crash-injection proof of the storage layer's durability protocol.
//!
//! For every registered crashpoint (`nggc::repository::CRASH_SITES`)
//! and every hit count until the site stops firing, a real `nggc`
//! binary is killed mid-mutation (`import` onto an existing name and of
//! a new one, `migrate` of a v1 and of a v2 dataset, `delete`, and a
//! `query` storing its result) via `NGGC_CRASHPOINT=<site>:<n>`. After
//! each kill the harness asserts the recovery contract:
//!
//! 1. `nggc fsck --repair` succeeds,
//! 2. a plain `nggc fsck` then finds nothing (exit 0),
//! 3. the dataset equals **exactly** the pre-mutation or post-mutation
//!    version — never a blend of the two — and its catalog entry
//!    describes exactly what loads: the same schema and stats.

use nggc::repository::{
    fsck, FsckOptions, IssueKind, Repository, StorageVersion, CRASHPOINT_ENV, CRASH_SITES,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn nggc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nggc"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_crash_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap().filter_map(|e| e.ok()) {
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Run the binary with a crashpoint armed. Returns `true` when the
/// process aborted (the site fired), `false` when it completed.
fn run_armed(repo: &Path, site: &str, n: u64, args: &[&str]) -> bool {
    let out = nggc()
        .arg("--repo")
        .arg(repo)
        .args(args)
        .env(CRASHPOINT_ENV, format!("{site}:{n}"))
        .output()
        .expect("binary runs");
    !out.status.success()
}

/// Run the binary with no crashpoint in the environment; returns
/// (success, stdout, stderr).
fn run_clean(repo: &Path, args: &[&str]) -> (bool, String, String) {
    let out = nggc()
        .arg("--repo")
        .arg(repo)
        .args(args)
        .env_remove(CRASHPOINT_ENV)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// What `DS` holds: sample count, total region count and schema.
type State<'a> = (usize, usize, &'a str);

/// The schema of a BED6 import.
const BED6: &str = "(chr, left, right, strand, name: string, score: float)";

/// The state of `DS`, or `None` when absent. Its catalog entry must
/// describe exactly what loads: the same schema and the same stats.
fn observe(repo: &Path, context: &str) -> Option<(usize, usize, String)> {
    let r = Repository::open(repo).ok()?;
    let entry = r.entry("DS")?;
    let ds = r.load("DS").ok()?;
    assert_eq!(
        (&entry.schema, entry.stats),
        (&ds.schema, ds.stats()),
        "[{context}] the catalog entry of DS is not what loads"
    );
    Some((ds.samples.len(), ds.region_count(), ds.schema.to_string()))
}

/// An observed state, to compare with a [`State`].
fn state(got: &Option<(usize, usize, String)>) -> Option<State<'_>> {
    got.as_ref().map(|(samples, regions, schema)| (*samples, *regions, schema.as_str()))
}

/// After a kill: repair, verify clean, and return the observed state.
fn recover(repo: &Path, context: &str) -> Option<(usize, usize, String)> {
    let (ok, stdout, stderr) = run_clean(repo, &["fsck", "--repair"]);
    assert!(ok, "[{context}] fsck --repair failed:\n{stdout}\n{stderr}");
    let (ok, stdout, stderr) = run_clean(repo, &["fsck"]);
    assert!(ok, "[{context}] repo not clean after repair:\n{stdout}\n{stderr}");
    observe(repo, context)
}

/// Drive `args` through every (site, hit) pair. `base` is copied fresh
/// for each run; `pre`/`post` are the only two states the repository
/// may be in after recovery. `after_kill` inspects each killed copy
/// before it is repaired.
fn crash_matrix(
    tag: &str,
    base: &Path,
    args: &[&str],
    pre: Option<State<'_>>,
    post: Option<State<'_>>,
    after_kill: &dyn Fn(&Path, &str),
) {
    let mut fired_total = 0;
    for site in CRASH_SITES {
        for n in 1..=4u64 {
            let repo = tmp(&format!("{tag}_{}_{n}", site.replace('.', "_")));
            copy_dir(base, &repo);
            let aborted = run_armed(&repo, site, n, args);
            if !aborted {
                // The n-th hit never happened: the command completed.
                // Its effects must equal the post state exactly.
                let context = format!("{tag} {site}:{n} completed");
                assert_eq!(state(&observe(&repo, &context)), post, "[{context}]");
                fs::remove_dir_all(&repo).ok();
                break;
            }
            fired_total += 1;
            let context = format!("{tag} {site}:{n} aborted");
            after_kill(&repo, &context);
            let got = recover(&repo, &context);
            let got = state(&got);
            assert!(
                got == pre || got == post,
                "[{context}] recovered state {got:?} is neither pre {pre:?} nor post {post:?}"
            );
            fs::remove_dir_all(&repo).ok();
        }
    }
    assert!(fired_total > 0, "{tag}: no crashpoint ever fired — matrix is vacuous");
}

/// Base repository: dataset DS with one sample of three regions,
/// imported through the real binary.
fn seed_base(tag: &str) -> PathBuf {
    let base = tmp(&format!("{tag}_base"));
    let bed = base.join("first.bed");
    fs::write(&bed, "chr1\t100\t200\tp1\t5\t+\nchr1\t400\t500\tp2\t9\t-\nchr2\t0\t50\tp3\t2\t+\n")
        .unwrap();
    let repo = base.join("repo");
    let (ok, stdout, stderr) = run_clean(&repo, &["import", bed.to_str().unwrap(), "DS"]);
    assert!(ok, "seed import failed:\n{stdout}\n{stderr}");
    base
}

#[test]
fn import_killed_at_every_crashpoint_recovers_to_pre_or_post() {
    let base = seed_base("imp");
    let second = base.join("second.bed");
    fs::write(&second, "chr3\t10\t60\tq1\t1\t+\nchr3\t70\t90\tq2\t4\t-\n").unwrap();
    // Import appends a second sample: pre = (1 sample, 3 regions),
    // post = (2 samples, 5 regions).
    crash_matrix(
        "import",
        &base.join("repo"),
        &["import", second.to_str().unwrap(), "DS"],
        Some((1, 3, BED6)),
        Some((2, 5, BED6)),
        &|_, _| {},
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn first_import_killed_at_every_crashpoint_recovers_to_absent_or_post() {
    // DS does not exist yet; another dataset keeps the catalog non-empty.
    let base = seed_base("new");
    let repo = base.join("repo");
    let (ok, stdout, stderr) = run_clean(&repo, &["delete", "DS"]);
    assert!(ok, "seed delete failed:\n{stdout}\n{stderr}");
    let other = base.join("other.bed");
    fs::write(&other, "chr5\t1\t9\to1\t3\t+\n").unwrap();
    let (ok, stdout, stderr) = run_clean(&repo, &["import", other.to_str().unwrap(), "OTHER"]);
    assert!(ok, "seed import failed:\n{stdout}\n{stderr}");
    let after_kill = |repo: &Path, context: &str| {
        // A plain open (on a copy: it sweeps) lists only names whose
        // container is on disk.
        let copy = repo.with_extension("open");
        copy_dir(repo, &copy);
        let opened = Repository::open(&copy).unwrap();
        for entry in opened.list() {
            assert_eq!(
                opened.storage_version(&entry.name),
                Some(StorageVersion::V2),
                "[{context}] {} is listed without its container",
                entry.name
            );
        }
        fs::remove_dir_all(&copy).ok();
    };
    let first = base.join("first.bed");
    crash_matrix(
        "first_import",
        &repo,
        &["import", first.to_str().unwrap(), "DS"],
        None,
        Some((1, 3, BED6)),
        &after_kill,
    );
    fs::remove_dir_all(&base).ok();
}

/// Replace the container of catalogued dataset `ds` under `repo_dir`
/// with the v1 text layout older releases wrote.
fn rewrite_as_v1(repo_dir: &Path, ds: &nggc::gdm::Dataset) {
    let dir = repo_dir.join("datasets").join(&ds.name);
    fs::remove_file(dir.join(nggc::formats::native_v2::CONTAINER_FILE)).unwrap();
    nggc::formats::native::write_dataset(ds, &dir).unwrap();
}

#[test]
fn migrate_killed_at_every_crashpoint_recovers_to_pre_or_post() {
    let base = tmp("mig_base");
    let repo_dir = base.join("repo");
    {
        // A v1 (text) dataset, so `migrate` has real work to do.
        let mut repo = Repository::open(&repo_dir).unwrap();
        let ds = {
            use nggc::gdm::{Attribute, Dataset, GRegion, Sample, Schema, Strand, ValueType};
            let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
            let mut ds = Dataset::new("DS", schema);
            let regions: Vec<GRegion> = (0..3)
                .map(|i| {
                    GRegion::new("chr1", i * 100, i * 100 + 50, Strand::Pos)
                        .with_values(vec![(i as f64).into()])
                })
                .collect();
            ds.add_sample(Sample::new("s1", "DS").with_regions(regions)).unwrap();
            ds
        };
        repo.save(&ds).unwrap();
        rewrite_as_v1(&repo_dir, &ds);
        assert_eq!(
            Repository::open(&repo_dir).unwrap().storage_version("DS"),
            Some(StorageVersion::V1)
        );
    }
    // Migration rewrites in place: pre and post carry identical logical
    // content, so blend detection rides on fsck + load succeeding (a
    // half-written container fails its checksum pass).
    let score = "(chr, left, right, strand, score: float)";
    let same = Some((1, 3, score));
    crash_matrix("migrate", &repo_dir, &["migrate", "DS"], same, same, &|_, _| {});
    // A v2 dataset is recompacted: the same publish, from a container.
    let v2 = seed_base("mig_v2");
    crash_matrix(
        "migrate_v2",
        &v2.join("repo"),
        &["migrate", "DS"],
        Some((1, 3, BED6)),
        Some((1, 3, BED6)),
        &|_, _| {},
    );
    fs::remove_dir_all(&v2).ok();
    // Also assert deep fsck passes on a surviving migrated copy.
    let repo = tmp("mig_post");
    copy_dir(&repo_dir, &repo);
    let (ok, stdout, stderr) = run_clean(&repo, &["migrate", "DS"]);
    assert!(ok, "clean migrate failed:\n{stdout}\n{stderr}");
    let (ok, stdout, stderr) = run_clean(&repo, &["fsck", "--deep"]);
    assert!(ok, "deep fsck after migrate failed:\n{stdout}\n{stderr}");
    let left: Vec<_> =
        fs::read_dir(repo.join("datasets/DS")).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["data.gdm2"], "a migrated directory holds only its container");
    fs::remove_dir_all(&repo).ok();
    fs::remove_dir_all(&base).ok();
}

#[test]
fn delete_killed_at_every_crashpoint_leaves_dataset_whole_or_gone() {
    let base = seed_base("del");
    // pre = dataset intact, post = dataset gone.
    let pre = Some((1, 3, BED6));
    crash_matrix("delete", &base.join("repo"), &["delete", "DS"], pre, None, &|_, _| {});
    fs::remove_dir_all(&base).ok();
}

/// A query's printed answer without its timing line, and whether that
/// line said the answer came from the result store.
fn answer(stdout: &str) -> (String, bool) {
    let (body, timing) = stdout.trim_end().rsplit_once('\n').expect("an answer and a timing line");
    (body.to_owned(), timing.ends_with(", cached)"))
}

#[test]
fn query_killed_while_storing_its_result_leaves_a_usable_store() {
    let base = seed_base("qry");
    let repo = base.join("repo");
    let query = ["query", "-e", "X = SELECT(region: left >= 100) DS; MATERIALIZE X;"];
    let (ok, stdout, stderr) = run_clean(&repo, &[&query[..], &["--no-cache"]].concat());
    assert!(ok, "uncached query failed:\n{stdout}\n{stderr}");
    let (expected, _) = answer(&stdout);
    assert!(expected.contains("2 regions"), "{expected}");
    let after_kill = |repo: &Path, context: &str| {
        // Before anything touches it: at most the staged file is left.
        let report = fsck(repo, FsckOptions::default()).unwrap();
        for issue in &report.issues {
            let reclaimable = issue.kind == IssueKind::OrphanTemp
                && Path::new(&issue.subject).parent() == Some(&repo.join("result_cache"))
                && issue.subject.contains("/.tmp-");
            assert!(reclaimable, "[{context}] {issue:?}");
        }
        let (ok, stdout, stderr) = run_clean(repo, &query);
        assert!(ok, "[{context}] next query failed:\n{stdout}\n{stderr}");
        assert_eq!(answer(&stdout).0, expected, "[{context}] next query");
        let (ok, stdout, _) = run_clean(repo, &query);
        assert!(ok);
        assert_eq!(answer(&stdout), (expected.clone(), true), "[{context}] the one after it");
    };
    // A query changes no dataset: pre and post are the seeded DS.
    let seeded = Some((1, 3, BED6));
    crash_matrix("query", &repo, &query, seeded, seeded, &after_kill);
    fs::remove_dir_all(&base).ok();
}

#[test]
fn a_query_saving_over_ds_with_another_schema_recovers_to_pre_or_post() {
    let base = seed_base("qsave");
    let repo = base.join("repo");
    let first = base.join("first.bed");
    let (ok, stdout, stderr) = run_clean(&repo, &["import", first.to_str().unwrap(), "SRC"]);
    assert!(ok, "seed import failed:\n{stdout}\n{stderr}");
    // DS (name, score) is replaced by a one-column copy of SRC: the
    // catalog entry and the container disagree between the two writes.
    let query = ["query", "--save", "-e", "DS = PROJECT(score) SRC; MATERIALIZE DS;"];
    let post = Some((1, 3, "(chr, left, right, strand, score: float)"));
    crash_matrix("query_save", &repo, &query, Some((1, 3, BED6)), post, &|_, _| {});
    fs::remove_dir_all(&base).ok();
}
