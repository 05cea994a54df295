//! End-to-end tests of the `nggc` command-line interface.

#[path = "common/flight.rs"]
mod flight;
#[path = "common/printed.rs"]
mod printed;

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

    // A duration too large for `Duration` is an input error, by flag or
    // by environment, not a panic.
    let huge = "99999999999999999999s";
    let query = ["query", "-e", "X = SELECT() D; MATERIALIZE X;"];
    let by_flag = nggc().arg("--repo").arg(&repo).args(query).args(["--timeout", huge]).output();
    let by_env =
        nggc().arg("--repo").arg(&repo).args(query).env("NGGC_QUERY_TIMEOUT", huge).output();
    for out in [by_flag, by_env] {
        let out = out.expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("overflows") && !stderr.contains("panicked"), "{stderr}");
    }
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

/// The value of an unlabelled counter in `nggc stats --json` output; 0
/// when nothing registered it.
/// A client timeout is sent as milliseconds in a u64: one that does not
/// fit is a flag error, raised before any connection is tried.
#[test]
fn client_timeout_too_long_for_the_wire_is_a_flag_error() {
    let out = nggc()
        .args(["client", "--addr", "127.0.0.1:1", "--timeout", "18446744073709552s"])
        .args(["-e", "X = SELECT() D; MATERIALIZE X;"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("--timeout"), "{stderr}");
    assert!(!stderr.contains("connect"), "refused before connecting: {stderr}");
}

/// A stored container whose version byte reads 2 (bit 0 of the 3
/// flipped) is refused, by a pruned read and by a full one: every query
/// over it fails, none is answered from unchecked bytes.
#[test]
fn a_stored_dataset_whose_version_byte_reads_2_fails_every_query() {
    let repo = tmp_repo("rev2");
    std::fs::create_dir_all(&repo).unwrap();
    let bed = repo.join("peaks.bed");
    std::fs::write(&bed, "chr1\t100\t200\tp1\t5\t+\nchr2\t0\t50\tp2\t2\t+\n").unwrap();
    let (ok, _, stderr) = run(&repo, &["import", bed.to_str().unwrap(), "PEAKS"]);
    assert!(ok, "{stderr}");
    let container = repo.join("datasets/PEAKS/data.gdm2");
    let mut bytes = std::fs::read(&container).unwrap();
    assert_eq!(bytes[8], 3);
    bytes[8] ^= 1;
    std::fs::write(&container, &bytes).unwrap();
    for query in [
        "X = SELECT(region: chr == 'chr2') PEAKS; MATERIALIZE X;",
        "X = SELECT(region: left >= 0) PEAKS; MATERIALIZE X;",
    ] {
        let (ok, stdout, stderr) = run(&repo, &["query", "--no-cache", "-e", query]);
        assert!(!ok, "{query} answered: {stdout}");
        assert!(stderr.contains("unsupported container version 2"), "{query}: {stderr}");
    }
    std::fs::remove_dir_all(&repo).ok();
}

fn counter(stats: &str, name: &str) -> u64 {
    let doc: serde::Content = serde_json::from_str(stats).expect("a JSON document");
    let unlabelled = |metric: &&serde::Content| {
        flight::text_of(flight::get(metric, "name")) == name
            && flight::text_of(flight::get(metric, "type")) == "counter"
            && matches!(flight::get(metric, "labels"), serde::Content::Map(labels) if labels.is_empty())
    };
    flight::items(&doc)
        .iter()
        .find(unlabelled)
        .map_or(0, |m| flight::number(flight::get(m, "value")))
}

/// A one-shot query keeps no dataset cache, so the SELECT over a full
/// read owns its input and filters it in place: no region is cloned. A
/// pruned read skips the chromosomes and samples it does not select, and
/// builds only the rows of its window and, under a PROJECT, only the
/// listed column's cells. A source with two consumers is shared, not
/// copied, and the disk result store answers as an execution does.
#[test]
fn one_shot_queries_build_and_copy_only_what_they_keep() {
    let repo = tmp_repo("late");
    std::fs::create_dir_all(&repo).unwrap();
    let bed = repo.join("peaks.bed");
    std::fs::write(
        &bed,
        "chr1\t100\t300\tp1\t5\t+\nchr1\t500\t800\tp2\t9\t-\nchr2\t100\t300\tp3\t2\t+\n\
         chr2\t450\t700\tp4\t7\t+\nchr3\t900\t1100\tp5\t1\t-\n",
    )
    .unwrap();
    let (ok, _, stderr) = run(&repo, &["import", bed.to_str().unwrap(), "PEAKS"]);
    assert!(ok, "{stderr}");
    let stats = |query: &str| {
        let (ok, stdout, stderr) = run(&repo, &["stats", "--json", "-e", query]);
        assert!(ok, "{query}: {stderr}");
        stdout
    };

    let full = stats("X = SELECT(region: left >= 0) PEAKS; MATERIALIZE X;");
    assert_eq!(counter(&full, "nggc_repo_loads_total"), 1, "{full}");
    assert_eq!(counter(&full, "nggc_scan_pruned_total"), 0, "a full read: {full}");
    assert_eq!(counter(&full, "nggc_exec_regions_cloned_total"), 0, "{full}");
    // A second consumer still has to be served: the first SELECT shares
    // the buffer when it keeps every region...
    let two = stats(
        "X = SELECT(region: left >= 0) PEAKS; Y = SELECT(region: right >= 0) PEAKS; \
         MATERIALIZE X; MATERIALIZE Y;",
    );
    assert_eq!(counter(&two, "nggc_exec_regions_cloned_total"), 0, "{two}");
    assert_eq!(counter(&two, "nggc_exec_samples_shared_total"), 2, "{two}");
    // ...and copies its survivors when it does not; the second, left
    // alone with the buffer, filters it in place.
    let two = stats(
        "X = SELECT(region: left >= 200) PEAKS; Y = SELECT(region: right >= 0) PEAKS; \
         MATERIALIZE X; MATERIALIZE Y;",
    );
    assert_eq!(counter(&two, "nggc_exec_regions_cloned_total"), 3, "{two}");
    assert_eq!(counter(&two, "nggc_exec_samples_shared_total"), 0, "{two}");

    // chr2 has two regions; the window keeps the one starting at 450.
    let chr2 = stats("X = SELECT(region: chr == 'chr2') PEAKS; MATERIALIZE X;");
    let window = stats("X = SELECT(region: chr == 'chr2' AND left >= 400) PEAKS; MATERIALIZE X;");
    assert_eq!(counter(&window, "nggc_scan_rows_skipped_total"), 1, "{window}");
    assert_eq!(counter(&chr2, "nggc_scan_rows_skipped_total"), 0, "{chr2}");
    let read = |s: &str| counter(s, "nggc_scan_bytes_read_total");
    assert_eq!(read(&window), read(&chr2), "the window drops rows, not blocks");
    assert_eq!(counter(&window, "nggc_exec_regions_cloned_total"), 0);
    // The chromosome itself is a pruned read: fewer bytes than the
    // container holds.
    let container = repo.join("datasets/PEAKS/data.gdm2");
    let container_bytes = || std::fs::metadata(&container).unwrap().len();
    assert!(counter(&chr2, "nggc_scan_bytes_skipped_total") > 0, "{chr2}");
    assert!(read(&chr2) > 0 && read(&chr2) < container_bytes(), "{chr2}");

    // BED imports two value columns: the narrowed read decodes one.
    let project = stats("X = PROJECT(score) PEAKS; MATERIALIZE X;");
    assert_eq!(counter(&project, "nggc_scan_cells_decoded_total"), 5, "{project}");
    let (ok, stdout, stderr) =
        run(&repo, &["query", "-e", "X = PROJECT(score) PEAKS; MATERIALIZE X;", "--profile"]);
    assert!(ok, "{stderr}");
    let pruned = stdout.lines().find(|l| l.contains("repo.load_pruned")).expect("a pruned read");
    assert!(pruned.contains("cells=5") && pruned.contains("regions=5"), "{pruned}");

    // The sample axis: a second import appends a sample carrying its own
    // `imported_from`, and a SELECT on it passes over the other sample
    // where it is stored.
    let more = repo.join("more.bed");
    std::fs::write(&more, "chr1\t150\t350\tq1\t3\t+\nchr2\t120\t320\tq2\t4\t-\n").unwrap();
    let (ok, _, stderr) = run(&repo, &["import", more.to_str().unwrap(), "PEAKS"]);
    assert!(ok, "{stderr}");
    let sample =
        stats(&format!("X = SELECT(imported_from == '{}') PEAKS; MATERIALIZE X;", more.display()));
    assert_eq!(counter(&sample, "nggc_scan_samples_skipped_total"), 1, "{sample}");
    assert!(counter(&sample, "nggc_scan_bytes_skipped_total") > 0, "{sample}");
    assert!(read(&sample) > 0 && read(&sample) < container_bytes(), "{sample}");

    // PEAKS has two consumers, so neither owns it: the metadata SELECT
    // and the EXTEND hand its samples' buffers on, and so does UNION,
    // whose sides both have the merged layout. Nothing is copied.
    let shared = format!(
        "A = SELECT(imported_from == '{}') PEAKS; B = EXTEND(n AS COUNT) PEAKS; \
         R = UNION() A B; MATERIALIZE R;",
        bed.display()
    );
    let union = stats(&shared);
    assert!(counter(&union, "nggc_exec_samples_shared_total") > 0, "{union}");
    assert_eq!(counter(&union, "nggc_exec_regions_cloned_total"), 0, "{union}");
    // The disk result store answers it as an execution does.
    let query = |extra: &[&str]| {
        let (ok, stdout, stderr) =
            run(&repo, &[&["query", "--head", "0", "-e", &shared], extra].concat());
        assert!(ok, "{stderr}");
        stdout
    };
    let executed = printed::counts(&query(&["--no-cache"]));
    assert_eq!(executed, (3, 12), "PEAKS' first sample, then both extended");
    let stored = query(&[]);
    assert!(!printed::cached(&stored), "{stored}");
    assert_eq!(printed::counts(&stored), executed, "{stored}");
    let hit = query(&[]);
    assert!(printed::cached(&hit), "{hit}");
    assert_eq!(printed::counts(&hit), executed, "{hit}");
    std::fs::remove_dir_all(&repo).ok();
}

/// A one-shot query reads its datasets into columnar batches, and
/// PROJECT, metadata SELECT, chromosome SELECT and windowed SELECT all
/// work on them: none builds a row (the `exec.plan` span of `--profile`
/// counts the rows built while the plan ran). The summary and `--head`
/// rows read the batches, and print what rows did.
#[test]
fn one_shot_selects_and_projects_build_no_rows() {
    let repo = tmp_repo("batches");
    std::fs::create_dir_all(&repo).unwrap();
    let bed = repo.join("peaks.bed");
    std::fs::write(
        &bed,
        "chr1\t100\t300\tp1\t5\t+\nchr1\t500\t800\tp2\t9\t-\nchr2\t100\t300\tp3\t2\t+\n\
         chr2\t450\t700\tp4\t7\t+\nchr3\t900\t1100\tp5\t1\t-\n",
    )
    .unwrap();
    let more = repo.join("more.bed");
    std::fs::write(
        &more,
        "chr1\t150\t350\tq1\t3\t+\nchr2\t120\t320\tq2\t4\t-\nchr2\t600\t900\tq3\t8\t+\n",
    )
    .unwrap();
    // Imported by relative name, so the sizes printed below do not
    // depend on where the repository lies.
    for file in ["peaks.bed", "more.bed"] {
        let out = nggc().current_dir(&repo).args(["import", file, "PEAKS"]).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let repo = repo.join("nggc-repo");
    let queries = [
        "X = PROJECT(score) PEAKS; MATERIALIZE X;".to_owned(),
        "X = SELECT(imported_from == 'more.bed') PEAKS; MATERIALIZE X;".to_owned(),
        "X = SELECT(region: chr == 'chr2') PEAKS; MATERIALIZE X;".to_owned(),
        "X = SELECT(region: chr == 'chr2' AND left >= 400) PEAKS; MATERIALIZE X;".to_owned(),
    ];
    let query = |text: &str, extra: &[&str]| {
        let (ok, stdout, stderr) =
            run(&repo, &[&["query", "--no-cache", "-e", text], extra].concat());
        assert!(ok, "{text}: {stderr}");
        stdout
    };
    let mut printed = String::new();
    for text in &queries {
        let profile = query(text, &["--head", "0", "--profile"]);
        let plan = profile.lines().find(|l| l.contains("exec.plan")).expect("an exec.plan span");
        assert!(plan.contains(" rows_built=0"), "{text}: {plan}");
        let rows = query(text, &["--head", "2"]);
        printed.extend(rows.lines().filter(|l| !l.starts_with('(')).map(|l| format!("{l}\n")));
    }
    // What the same queries printed when every read built rows.
    let expected = "\
== X :: (chr, left, right, strand, score: float) ==
2 samples, 8 regions, 4 metadata pairs, ~301 bytes
  sample peaks (5 regions)
    chr1:100-300(+)[5]
    chr1:500-800(-)[9]
    … 3 more
  sample more (3 regions)
    chr1:150-350(+)[3]
    chr2:120-320(-)[4]
    … 1 more
== X :: (chr, left, right, strand, name: string, score: float) ==
1 samples, 3 regions, 2 metadata pairs, ~139 bytes
  sample more (3 regions)
    chr1:150-350(+)[q1,3]
    chr2:120-320(-)[q2,4]
    … 1 more
== X :: (chr, left, right, strand, name: string, score: float) ==
2 samples, 4 regions, 4 metadata pairs, ~209 bytes
  sample peaks (2 regions)
    chr2:100-300(+)[p3,2]
    chr2:450-700(+)[p4,7]
  sample more (2 regions)
    chr2:120-320(-)[q2,4]
    chr2:600-900(+)[q3,8]
== X :: (chr, left, right, strand, name: string, score: float) ==
2 samples, 2 regions, 4 metadata pairs, ~139 bytes
  sample peaks (1 regions)
    chr2:450-700(+)[p4,7]
  sample more (1 regions)
    chr2:600-900(+)[q3,8]
";
    assert_eq!(printed, expected);
    std::fs::remove_dir_all(repo.parent().unwrap()).ok();
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
