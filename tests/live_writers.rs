//! Processes beside one another on one repository: a reader never
//! removes a live writer's staging files, and `fsck` refuses a repository
//! another process holds. Leftovers are judged only by a process that
//! holds the repository alone (docs/robustness.md, "Concurrent
//! processes").

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn nggc(repo: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_nggc"));
    command.arg("--repo").arg(repo);
    command
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_live_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run to completion: (success, stdout, stderr).
fn run(repo: &Path, args: &[&str]) -> (bool, String, String) {
    let out = nggc(repo).args(args).output().expect("binary runs");
    let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    (out.status.success(), text(out.stdout), text(out.stderr))
}

/// A BED6 file of `n` regions over three chromosomes.
fn write_bed(path: &Path, n: usize) {
    let mut text = String::new();
    for i in 0..n {
        let left = i * 100;
        text += &format!("chr{}\t{left}\t{}\tp{i}\t{}\t+\n", 1 + i % 3, left + 50, i % 1000);
    }
    fs::write(path, text).unwrap();
}

#[test]
fn a_list_loop_beside_an_import_removes_none_of_its_files() {
    let dir = tmp("race");
    let (repo, bed) = (dir.join("repo"), dir.join("big.bed"));
    // Long enough an import that the lists below overlap its writes.
    write_bed(&bed, 50_000);
    assert!(run(&repo, &["init"]).0);
    for round in 0..3 {
        let name = format!("DS{round}");
        let mut import = nggc(&repo)
            .args(["import", bed.to_str().unwrap(), &name])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut lists = 0;
        let status = loop {
            if let Some(status) = import.try_wait().unwrap() {
                break status;
            }
            let (ok, _, stderr) = run(&repo, &["list"]);
            assert!(ok, "round {round}: list failed: {stderr}");
            lists += 1;
        };
        let mut stderr = String::new();
        import.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
        assert!(
            status.success(),
            "round {round}: the import beside {lists} lists failed: {stderr}"
        );
        assert!(lists > 0, "round {round}: no list ran beside the import");
    }
    let (ok, stdout, stderr) = run(&repo, &["fsck"]);
    assert!(ok, "fsck after the race:\n{stdout}{stderr}");
    assert!(stdout.contains("3 datasets ok") && stdout.contains(" 0 issues"), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_refuses_a_repository_serve_holds_and_judges_it_once_serve_is_gone() {
    let dir = tmp("serve");
    let (repo, bed) = (dir.join("repo"), dir.join("small.bed"));
    write_bed(&bed, 10);
    assert!(run(&repo, &["import", bed.to_str().unwrap(), "DS"]).0);
    let mut serve = nggc(&repo)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(serve.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening on"), "{banner}");
    // What a writer beside serve would be staging.
    let staged = repo.join(".tmp-1-catalog.json");
    fs::write(&staged, "half").unwrap();

    let (ok, stdout, _) = run(&repo, &["list"]);
    assert!(ok && stdout.contains("DS"), "{stdout}");
    for args in [&["fsck"][..], &["fsck", "--repair"]] {
        let (ok, stdout, stderr) = run(&repo, args);
        assert!(!ok && stderr.contains("in use by another process"), "{args:?}:\n{stdout}{stderr}");
    }
    assert!(staged.exists(), "a process beside serve removed its staging file");

    // A killed holder's lock dies with it.
    serve.kill().unwrap();
    serve.wait().unwrap();
    let (ok, stdout, _) = run(&repo, &["fsck"]);
    assert!(!ok && stdout.contains("orphan-temp"), "{stdout}");
    assert!(run(&repo, &["fsck", "--repair"]).0);
    assert!(!staged.exists());
    assert!(run(&repo, &["fsck"]).0);
    fs::remove_dir_all(&dir).ok();
}

/// Two imports of two different names at once, for three rounds. Each
/// writer waits its turn on `<root>/.write` and re-reads the catalog in
/// it, so neither writes back a catalog that lacks what the other added.
#[test]
fn concurrent_imports_of_two_names_keep_both() {
    let dir = tmp("writers");
    let (repo, bed) = (dir.join("repo"), dir.join("mid.bed"));
    write_bed(&bed, 20_000);
    assert!(run(&repo, &["init"]).0);
    let mut names = Vec::new();
    for round in 1..=3 {
        let imports: Vec<_> = ["A", "B"]
            .map(|prefix| format!("{prefix}{round}"))
            .into_iter()
            .map(|name| {
                let import = nggc(&repo)
                    .args(["import", bed.to_str().unwrap(), &name])
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .unwrap();
                names.push(name);
                import
            })
            .collect();
        for import in imports {
            let out = import.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "round {round}: an import failed: {stderr}");
        }
    }
    let (ok, stdout, stderr) = run(&repo, &["list"]);
    assert!(ok, "{stderr}");
    let listed: Vec<&str> = stdout.lines().filter_map(|l| l.split_whitespace().next()).collect();
    let lost: Vec<&String> = names.iter().filter(|n| !listed.contains(&n.as_str())).collect();
    assert!(lost.is_empty(), "not in the catalog: {lost:?}\n{stdout}");
    let (ok, stdout, stderr) = run(&repo, &["fsck"]);
    assert!(ok, "fsck after the race:\n{stdout}{stderr}");
    assert!(stdout.contains("6 datasets ok") && stdout.contains(" 0 issues"), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}
