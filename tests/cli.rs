//! End-to-end tests of the `nggc` command-line interface.

#[path = "common/flight.rs"]
mod flight;

use std::path::PathBuf;
use std::process::Command;

fn nggc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nggc"))
}

fn tmp_repo(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run(repo: &PathBuf, args: &[&str]) -> (bool, String, String) {
    let out = nggc().arg("--repo").arg(repo).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_cli_workflow() {
    let repo = tmp_repo("flow");

    // init
    let (ok, stdout, _) = run(&repo, &["init"]);
    assert!(ok);
    assert!(stdout.contains("repository initialised"));

    // import a BED file
    let bed = repo.join("peaks.bed");
    std::fs::create_dir_all(&repo).unwrap();
    std::fs::write(
        &bed,
        "chr1\t100\t200\tp1\t5\t+\nchr1\t400\t500\tp2\t9\t-\nchr2\t0\t50\tp3\t2\t+\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = run(&repo, &["import", bed.to_str().unwrap(), "PEAKS"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("imported 3 regions"), "{stdout}");

    // list + info
    let (ok, stdout, _) = run(&repo, &["list"]);
    assert!(ok);
    assert!(stdout.contains("PEAKS"));
    let (ok, stdout, _) = run(&repo, &["info", "PEAKS"]);
    assert!(ok);
    assert!(stdout.contains("3 regions"));
    assert!(stdout.contains("imported_from"));

    // query with --save
    let (ok, stdout, stderr) = run(
        &repo,
        &[
            "query",
            "-e",
            "X = SELECT(region: left >= 100) PEAKS; MATERIALIZE X INTO FILTERED;",
            "--save",
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("FILTERED"), "{stdout}");
    assert!(stdout.contains("2 regions"), "{stdout}");
    let (ok, stdout, _) = run(&repo, &["list"]);
    assert!(ok);
    assert!(stdout.contains("FILTERED"), "--save persisted the output: {stdout}");

    // explain
    let (ok, stdout, _) = run(
        &repo,
        &[
            "query",
            "-e",
            "X = SELECT(a == 1) PEAKS; Y = SELECT(b == 2) X; MATERIALIZE Y;",
            "--explain",
        ],
    );
    assert!(ok);
    assert!(stdout.contains("optimized"));
    assert!(stdout.contains("selects_fused: 1"), "{stdout}");

    // analyze: per-node metrics
    let (ok, stdout, _) = run(
        &repo,
        &["query", "-e", "X = SELECT(region: left >= 100) PEAKS; MATERIALIZE X;", "--analyze"],
    );
    assert!(ok);
    assert!(stdout.contains("execution metrics"), "{stdout}");
    assert!(stdout.contains("SOURCE"), "{stdout}");
    assert!(stdout.contains("SELECT"), "{stdout}");

    // search (metadata carries the import markers)
    let (ok, stdout, _) = run(&repo, &["search", "bed"]);
    assert!(ok);
    assert!(stdout.contains("PEAKS/peaks"), "{stdout}");

    // export
    let out_bed = repo.join("export.bed");
    let (ok, stdout, _) = run(&repo, &["export", "FILTERED", out_bed.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("exported 2 regions"));
    let text = std::fs::read_to_string(&out_bed).unwrap();
    assert!(text.contains("track name="));
    assert!(text.contains("chr1\t100\t200"));

    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_profile_emits_one_span_per_plan_node() {
    let repo = tmp_repo("profile");
    std::fs::create_dir_all(&repo).unwrap();
    let bed = repo.join("peaks.bed");
    std::fs::write(&bed, "chr1\t100\t200\tp1\t5\t+\nchr1\t400\t500\tp2\t9\t-\n").unwrap();
    let (ok, _, stderr) = run(&repo, &["import", bed.to_str().unwrap(), "PEAKS"]);
    assert!(ok, "{stderr}");

    // Plan: SOURCE(PEAKS) -> SELECT -> MERGE = 3 nodes.
    let (ok, stdout, stderr) = run(
        &repo,
        &[
            "query",
            "-e",
            "X = SELECT(region: left >= 100) PEAKS; Y = MERGE() X; MATERIALIZE Y;",
            "--profile",
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("-- profile: span tree --"), "{stdout}");
    assert!(stdout.contains("exec.plan"), "{stdout}");
    let node_spans = stdout.matches("exec.node").count();
    assert_eq!(node_spans, 3, "one exec.node span per plan node:\n{stdout}");
    for op in ["SOURCE", "SELECT", "MERGE"] {
        assert!(stdout.contains(&format!("op={op}")), "missing {op} span:\n{stdout}");
    }
    // Cardinality and size fields ride on each node span.
    assert!(stdout.contains("samples_in="), "{stdout}");
    assert!(stdout.contains("regions_out="), "{stdout}");
    assert!(stdout.contains("bytes_est="), "{stdout}");
    // Optimizer decisions ride on the plan span.
    assert!(stdout.contains("selects_fused="), "{stdout}");
    // Top-k operator table.
    assert!(stdout.contains("-- profile: top operators by self time --"), "{stdout}");
    assert!(stdout.contains("operator"), "{stdout}");
    assert!(stdout.contains("self"), "{stdout}");
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_stats_dumps_registry() {
    let repo = tmp_repo("stats");
    std::fs::create_dir_all(&repo).unwrap();
    let bed = repo.join("peaks.bed");
    std::fs::write(&bed, "chr1\t100\t200\tp1\t5\t+\n").unwrap();
    let (ok, _, stderr) = run(&repo, &["import", bed.to_str().unwrap(), "PEAKS"]);
    assert!(ok, "{stderr}");

    // Warm the registry with a query, then dump Prometheus text.
    let q = "X = SELECT(region: left >= 100) PEAKS; MATERIALIZE X;";
    let (ok, stdout, stderr) = run(&repo, &["stats", "-e", q]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# TYPE nggc_exec_nodes_total counter"), "{stdout}");
    assert!(stdout.contains("nggc_exec_nodes_total{op=\"SOURCE\"} 1"), "{stdout}");
    assert!(stdout.contains("nggc_repo_cache_misses_total"), "{stdout}");
    assert!(stdout.contains("nggc_exec_node_wall_ns_count"), "{stdout}");

    // JSON export of the same registry.
    let (ok, stdout, stderr) = run(&repo, &["stats", "--json", "-e", q]);
    assert!(ok, "{stderr}");
    assert!(stdout.trim().starts_with('['), "{stdout}");
    assert!(stdout.contains("\"name\":\"nggc_exec_nodes_total\""), "{stdout}");
    assert!(stdout.contains("\"type\":\"histogram\""), "{stdout}");
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_stats_fed_selftest_surfaces_fault_metrics() {
    let repo = tmp_repo("fedself");
    std::fs::create_dir_all(&repo).unwrap();

    // The selftest needs no repository content: it spins an in-process
    // three-node federation (one flaky, one hung peer) and the ensuing
    // retries, timeouts, and breaker transitions land in the registry
    // dumped right after.
    let (ok, stdout, stderr) = run(&repo, &["stats", "--fed-selftest"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("fed-selftest: host=alpha"), "{stdout}");
    assert!(stdout.contains("node=flaky status=Degraded"), "{stdout}");
    assert!(stdout.contains("node=hung status=Unavailable"), "{stdout}");
    assert!(stdout.contains("nggc_fed_retries_total{node=\"flaky\"}"), "{stdout}");
    assert!(stdout.contains("nggc_fed_timeouts_total{node=\"hung\"}"), "{stdout}");
    assert!(stdout.contains("nggc_fed_breaker_state{node=\"hung\"} 2"), "{stdout}");
    assert!(stdout.contains("nggc_fed_breaker_opens_total{node=\"hung\"} 1"), "{stdout}");
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_errors_are_reported() {
    let repo = tmp_repo("err");
    let (ok, _, stderr) = run(&repo, &["info", "NOPE"]);
    assert!(!ok);
    assert!(stderr.contains("not found"), "{stderr}");

    let (ok, _, stderr) = run(&repo, &["query", "-e", "X = SELEKT() D;"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");

    let (ok, _, stderr) = run(&repo, &["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = run(&repo, &["import", "missing.xyz"]);
    assert!(!ok);
    assert!(stderr.contains("unknown format"), "{stderr}");
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_import_dir_groups_by_format() {
    let repo = tmp_repo("dir");
    let data = repo.join("incoming");
    std::fs::create_dir_all(&data).unwrap();
    std::fs::write(data.join("a.bed"), "chr1\t0\t10\tx\t1\t+\n").unwrap();
    std::fs::write(data.join("a.bed.meta"), "cell\tHeLa\n").unwrap();
    std::fs::write(data.join("v.vcf"), "chr1\t5\t.\tA\tT\t9\tPASS\t.\n").unwrap();
    std::fs::write(data.join("junk.xyz"), "???").unwrap();
    let (ok, stdout, stderr) = run(&repo, &["import-dir", data.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("INCOMING_BED"), "{stdout}");
    assert!(stdout.contains("INCOMING_VCF"), "{stdout}");
    assert!(stdout.contains("skipped"), "{stdout}");
    let (ok, stdout, _) = run(&repo, &["info", "INCOMING_BED"]);
    assert!(ok);
    assert!(stdout.contains("HeLa"), "sidecar metadata imported: {stdout}");
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_import_appends_to_existing_dataset() {
    let repo = tmp_repo("append");
    std::fs::create_dir_all(&repo).unwrap();
    let a = repo.join("rep1.bed");
    let b = repo.join("rep2.bed");
    std::fs::write(&a, "chr1\t0\t10\tx\t1\t+\n").unwrap();
    std::fs::write(&b, "chr1\t20\t30\ty\t1\t-\n").unwrap();
    let (ok, _, e1) = run(&repo, &["import", a.to_str().unwrap(), "REPS"]);
    assert!(ok, "{e1}");
    let (ok, stdout, e2) = run(&repo, &["import", b.to_str().unwrap(), "REPS"]);
    assert!(ok, "{e2}");
    assert!(stdout.contains("2 samples total"), "{stdout}");
    std::fs::remove_dir_all(&repo).ok();
}

// ---------------------------------------------------------------------
// Resource-governor exit codes: 124 = deadline (timeout(1) convention),
// 3 = memory budget, 130 = SIGINT (128 + 2). The partial-progress dump
// lands on stderr in every case.
// ---------------------------------------------------------------------

/// Import a dataset big enough that a DLE self-join takes seconds.
fn import_big(repo: &PathBuf) {
    std::fs::create_dir_all(repo).unwrap();
    let mut text = String::new();
    for i in 0..5000u64 {
        let left = (i * 137) % 1_000_000;
        text.push_str(&format!("chr1\t{}\t{}\n", left, left + 500));
    }
    let bed = repo.join("big.bed");
    std::fs::write(&bed, text).unwrap();
    let (ok, _, stderr) = run(repo, &["import", bed.to_str().unwrap(), "BIG"]);
    assert!(ok, "{stderr}");
}

const PATHOLOGICAL: &str = "J = JOIN(DLE(1000000)) BIG BIG; MATERIALIZE J;";

#[test]
fn cli_timeout_exits_124_with_partial_metrics() {
    let repo = tmp_repo("timeout");
    import_big(&repo);
    let out = nggc()
        .arg("--repo")
        .arg(&repo)
        .args(["query", "-e", PATHOLOGICAL, "--timeout", "300ms"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(124), "DeadlineExceeded exit code:\n{stderr}");
    assert!(stderr.contains("partial progress"), "{stderr}");
    assert!(stderr.contains("deadline"), "typed error on stderr: {stderr}");
    assert!(stderr.contains("\"J\""), "the plan node is named: {stderr}");
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_memory_budget_exits_3() {
    let repo = tmp_repo("membudget");
    import_big(&repo);
    // Generous time, tiny memory: the join output trips the budget.
    let out = nggc()
        .arg("--repo")
        .arg(&repo)
        .args(["query", "-e", "X = SELECT() BIG; MATERIALIZE X;", "--max-memory", "4KiB"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "MemoryExhausted exit code:\n{stderr}");
    assert!(stderr.contains("memory"), "{stderr}");
    std::fs::remove_dir_all(&repo).ok();
}

#[test]
fn cli_env_defaults_apply_and_flags_override() {
    let repo = tmp_repo("envgov");
    import_big(&repo);
    // Env default alone trips the query…
    let out = nggc()
        .arg("--repo")
        .arg(&repo)
        .env("NGGC_QUERY_TIMEOUT", "300ms")
        .args(["query", "-e", PATHOLOGICAL])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(124));
    // …and a malformed env value is a hard error, not silently ignored.
    let out = nggc()
        .arg("--repo")
        .arg(&repo)
        .env("NGGC_QUERY_TIMEOUT", "soon")
        .args(["query", "-e", "X = SELECT() BIG; MATERIALIZE X;"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("NGGC_QUERY_TIMEOUT"));
    std::fs::remove_dir_all(&repo).ok();
}

/// The flight recorder (docs/observability.md): with a zero threshold
/// every query is slow, and a governor trip is recorded whatever the
/// threshold — one JSON line each, appended to the sink.
#[test]
fn cli_flight_recorder_appends_one_line_per_slow_or_tripped_query() {
    let repo = tmp_repo("flight");
    import_big(&repo);
    let sink = repo.join("flight.jsonl");
    let recorded = |args: &[&str]| {
        let out = nggc()
            .arg("--repo")
            .arg(&repo)
            .env("NGGC_SLOW_QUERY_MS", " 0 ")
            .env("NGGC_FLIGHT_RECORDER", &sink)
            .args(args)
            .output()
            .expect("binary runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };

    let select = "X = SELECT(region: left >= 100) BIG; MATERIALIZE X;";
    let (code, stderr) = recorded(&["query", "-e", select, "--no-cache"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("flight recorder: slow query recorded to"), "{stderr}");
    let records = flight::read_records(&sink);
    assert_eq!(records.len(), 1);
    let slow = &records[0];
    assert_eq!(flight::text_of(flight::get(slow, "outcome")), "slow");
    assert_eq!(flight::text_of(flight::get(slow, "query")), select);
    let trace = flight::items(flight::get(slow, "trace"));
    let trace_id = flight::number(flight::get(slow, "trace_id"));
    assert!(trace_id != 0 && !trace.is_empty());
    assert!(trace.iter().all(|span| flight::number(flight::get(span, "trace_id")) == trace_id));
    let names: Vec<&str> =
        trace.iter().map(|span| flight::text_of(flight::get(span, "name"))).collect();
    assert!(names.contains(&"repo.load"), "the cold read is in the trace: {names:?}");
    let nodes = flight::items(flight::get(slow, "nodes"));
    let operators: Vec<&str> =
        nodes.iter().map(|node| flight::text_of(flight::get(node, "operator"))).collect();
    assert_eq!(operators, ["SOURCE", "SELECT"]);
    assert_eq!(flight::items(flight::get(&nodes[1], "inputs")).len(), 1);

    // A governor trip: same sink, second line, exit code unchanged.
    let (code, stderr) = recorded(&["query", "-e", PATHOLOGICAL, "--timeout", "1ms"]);
    assert_eq!(code, Some(124), "{stderr}");
    assert!(stderr.contains("partial progress"), "{stderr}");
    let records = flight::read_records(&sink);
    assert_eq!(records.len(), 2);
    assert_eq!(flight::text_of(flight::get(&records[1], "outcome")), "deadline");
    assert!(flight::items(flight::get(&records[1], "nodes")).is_empty(), "it did not complete");

    // Without a sink the line itself goes to stderr; a threshold the
    // query stays under records nothing; a malformed one is an error.
    let out = nggc()
        .arg("--repo")
        .arg(&repo)
        .env("NGGC_SLOW_QUERY_MS", "0")
        .args(["query", "-e", select])
        .output()
        .expect("binary runs");
    assert!(String::from_utf8_lossy(&out.stderr).contains(r#"{"kind":"nggc_flight_record""#));
    for (threshold, code) in [("3600000", 0), ("soon", 1)] {
        let out = nggc()
            .arg("--repo")
            .arg(&repo)
            .env("NGGC_SLOW_QUERY_MS", threshold)
            .args(["query", "-e", select])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{stderr}");
        assert!(!stderr.contains("nggc_flight_record"), "{stderr}");
        assert_eq!(stderr.contains("NGGC_SLOW_QUERY_MS"), code == 1, "{stderr}");
    }
    std::fs::remove_dir_all(&repo).ok();
}

/// EXPLAIN ANALYZE's I/O columns are the query's own reads, not the
/// metrics registry's: with the registry off, a chr-filtered query's
/// SOURCE still shows its one cold, pruned read.
#[test]
fn explain_analyze_reads_do_not_depend_on_the_registry() {
    let repo = tmp_repo("analyze_reads");
    std::fs::create_dir_all(&repo).unwrap();
    let bed = repo.join("peaks.bed");
    std::fs::write(
        &bed,
        "chr1\t100\t300\t0.0001\nchr1\t500\t800\t0.0002\nchr2\t100\t300\t0.00015\n\
         chr2\t450\t700\t0.00014\nchr3\t900\t1100\t0.00016\n",
    )
    .unwrap();
    let (ok, _, stderr) = run(&repo, &["import", bed.to_str().unwrap(), "PEAKS"]);
    assert!(ok, "{stderr}");
    let query = "X = SELECT(region: chr == 'chr2') PEAKS; MATERIALIZE X;";
    let out = nggc()
        .arg("--repo")
        .arg(&repo)
        .env("NGGC_METRICS", "off")
        .args(["query", "-e", query, "--explain-analyze", "--json"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc: serde::Content = serde_json::from_str(&stdout).expect("a JSON document");
    let nodes = flight::items(flight::get(&doc, "nodes"));
    let source = nodes
        .iter()
        .find(|node| flight::text_of(flight::get(node, "operator")) == "SOURCE")
        .expect("a SOURCE node");
    let column = |key: &str| flight::number(flight::get(source, key));
    assert_eq!(column("cache_misses"), 1, "{stdout}");
    assert_eq!(column("scan_pruned"), 1, "{stdout}");
    assert!(column("scan_bytes_read") > 0, "{stdout}");
    std::fs::remove_dir_all(&repo).ok();
}

/// Ctrl-C during `nggc query` exits gracefully: code 130, partial
/// metrics on stderr, no killed-process signal status.
#[cfg(unix)]
#[test]
fn cli_sigint_exits_130_with_partial_metrics() {
    use std::time::{Duration, Instant};
    let repo = tmp_repo("sigint");
    import_big(&repo);
    let mut child = nggc()
        .arg("--repo")
        .arg(&repo)
        .args(["query", "-e", PATHOLOGICAL])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // Let the query get into the join, then deliver SIGINT.
    std::thread::sleep(Duration::from_millis(600));
    let kill =
        Command::new("kill").args(["-INT", &child.id().to_string()]).status().expect("kill runs");
    assert!(kill.success());
    // Graceful exit must come promptly; a regression here would run the
    // full multi-second join (or forever), so poll with a budget.
    let t0 = Instant::now();
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        if t0.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            panic!("SIGINT did not interrupt the query");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("collect output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(status.code(), Some(130), "graceful exit, not a signal kill:\n{stderr}");
    assert!(stderr.contains("partial progress"), "{stderr}");
    assert!(stderr.contains("cancelled"), "{stderr}");
    assert!(stderr.contains("nggc_query_cancelled_total"), "{stderr}");
    std::fs::remove_dir_all(&repo).ok();
}
