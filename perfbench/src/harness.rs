//! The end-to-end side: build and locate the real `nggc` binary, set a
//! workload up, drive it from outside (one CLI process per operation, or
//! closed-loop clients on the serve wire protocol) with tracing off, and
//! read the resource use of the `nggc` processes from the operating system.

use crate::workloads::{Action, Expect, Kind, Op, Plan, CHURN_NAMES};
use nggc::repository::Repository;
use nggc::server::{Client, ServeStats, ServerReply};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where things are: the checkout, the binary under test, scratch space.
pub struct Env {
    pub root: PathBuf,
    pub nggc: PathBuf,
    /// Cargo's build directory: everything this program writes is under it.
    pub target: PathBuf,
    /// Scratch directory inside the build directory; removed on drop.
    pub work: PathBuf,
    pub nproc: usize,
    /// Starts every CLI process that is measured (see [`Spawner`]).
    spawner: Mutex<Spawner>,
}

impl Drop for Env {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.work).ok();
        // The shared parent goes too, unless another run is using it.
        if let Some(parent) = self.work.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// The source files Cargo recorded as inputs of `binary` (its `.d` file)
/// that were modified after it was built.
fn stale_sources(binary: &Path) -> Result<Vec<String>, String> {
    let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified());
    let built = modified(binary).map_err(|e| format!("{}: {e}", binary.display()))?;
    let dep_info = binary.with_extension("d");
    let text = std::fs::read_to_string(&dep_info).map_err(|e| {
        format!("{}: {e} (cannot tell what the binary was built from)", dep_info.display())
    })?;
    let sources = text.split_once(": ").map(|(_, deps)| deps).unwrap_or("");
    Ok(sources
        .split_whitespace()
        .filter(|src| modified(Path::new(src)).map_or(true, |t| t > built))
        .map(str::to_owned)
        .collect())
}

impl Env {
    /// Must run from the root of an nggc checkout. Builds `nggc` in release
    /// mode (a no-op when fresh) and refuses a binary older than its sources.
    pub fn prepare() -> Result<Env, String> {
        // First of all, while this process is still small.
        let spawner = Mutex::new(Spawner::start()?);
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        for needed in ["Cargo.toml", "src/bin/nggc.rs", "crates", "vendor"] {
            if !root.join(needed).exists() {
                return Err(format!(
                    "{} is not the root of an nggc checkout: {needed} is missing",
                    root.display()
                ));
            }
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let built = Command::new(cargo)
            .current_dir(&root)
            .args(["build", "--release", "--offline", "--quiet", "--bin", "nggc"])
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !built.success() {
            return Err("cargo build --release --bin nggc failed".into());
        }
        let nggc = target.join("release").join("nggc");
        let stale = stale_sources(&nggc)?;
        if !stale.is_empty() {
            return Err(format!(
                "{} is older than the sources it was built from ({}): refusing to measure it",
                nggc.display(),
                stale.join(", ")
            ));
        }
        let work = target.join("perfbench-work").join(std::process::id().to_string());
        std::fs::remove_dir_all(&work).ok();
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Ok(Env { root, nggc, target, work, nproc, spawner })
    }

    /// Run `nggc --repo <repo> <args>` to completion through the spawner.
    fn run_cli(&self, repo: &Path, args: Vec<String>) -> Result<Finished, String> {
        let mut full = vec!["--repo".to_owned(), repo.display().to_string()];
        full.extend(args);
        let job = CliRun { program: self.nggc.clone(), args: full };
        self.spawner.lock().expect("no thread panics holding the spawner").run(&job)
    }
}

// ---------------------------------------------------------------------------
// Resource use of the nggc processes
// ---------------------------------------------------------------------------

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// `program` with no `NGGC_*` variable in its environment and no stdin.
fn clean_command(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NGGC_") {
            cmd.env_remove(key);
        }
    }
    cmd.stdin(Stdio::null());
    cmd
}

/// One CLI process to run: program and arguments.
#[derive(serde::Serialize, serde::Deserialize)]
struct CliRun {
    program: PathBuf,
    args: Vec<String>,
}

/// What one CLI process did: exit status, output, wall time from spawn to
/// exit, and its own resource use as `wait4` reports it.
#[derive(Default, serde::Serialize, serde::Deserialize)]
struct Finished {
    success: bool,
    stdout: String,
    wall_us: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

impl CliRun {
    /// Run to completion, capturing stdout.
    fn run_to_end(&self) -> Result<Finished, String> {
        let t0 = Instant::now();
        let mut child = clean_command(&self.program)
            .args(&self.args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.program.display()))?;
        let mut stdout = String::new();
        let read = child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout);
        let (mut status, mut usage) = (0i32, RUsage::default());
        loop {
            // SAFETY: `status` and `usage` are live and writable, `usage` has
            // the layout the kernel fills on 64-bit Linux (two timevals, then
            // 14 longs), and the pid is a child of ours that nothing else
            // waits for: `child` is never waited on through std.
            let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
            if rc == child.id() as i32 {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(format!("wait4: {err}"));
            }
        }
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        read.map_err(|e| format!("reading child output: {e}"))?;
        let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Ok(Finished {
            // Exited (not signalled) with code 0.
            success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
            stdout,
            wall_us,
            cpu_s: seconds(usage.utime) + seconds(usage.stime),
            peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        })
    }
}

/// A helper process (this executable, `--spawner`) that starts every measured
/// CLI process on request and reports how it went. It exists because Linux
/// seeds a new process's `ru_maxrss` with the peak resident set of the
/// process that spawned it: started from the runner itself, which holds the
/// generated datasets, every `nggc` child would report the runner's size.
/// The helper is started first, while the runner is a few megabytes, and
/// stays that small.
struct Spawner {
    child: Child,
    to: std::process::ChildStdin,
    from: BufReader<std::process::ChildStdout>,
}

impl Spawner {
    fn start() -> Result<Spawner, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the spawner: {e}"))?;
        let to = child.stdin.take().expect("stdin is piped");
        let from = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Spawner { child, to, from })
    }

    fn run(&mut self, job: &CliRun) -> Result<Finished, String> {
        let request = serde_json::to_string(job).map_err(|e| e.to_string())?;
        writeln!(self.to, "{request}").map_err(|e| format!("spawner: {e}"))?;
        let mut reply = String::new();
        self.from.read_line(&mut reply).map_err(|e| format!("spawner: {e}"))?;
        serde_json::from_str(&reply).map_err(|e| format!("spawner replied {reply:?}: {e}"))
    }
}

/// However the run ends, the helper is stopped and waited for.
impl Drop for Spawner {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// The `--spawner` mode: one request per line in, one reply per line out,
/// until stdin closes.
pub fn spawner_main() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        // A process that could not be run is a failed one, with the reason
        // where its output would be.
        let finished = serde_json::from_str::<CliRun>(&line)
            .map_err(|e| e.to_string())
            .and_then(|job| job.run_to_end())
            .unwrap_or_else(|e| Finished { stdout: e, ..Finished::default() });
        let reply = serde_json::to_string(&finished).map_err(|e| e.to_string())?;
        writeln!(stdout, "{reply}").and_then(|()| stdout.flush()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Clock ticks per second of `/proc/<pid>/stat` times (USER_HZ).
const CLK_TCK: f64 = 100.0;

/// A running `nggc serve`.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Kept open: the server prints a second banner line after the address
    /// and would die of a broken pipe if its stdout were closed.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn start(env: &Env, repo: &Path, cache_bytes: u64) -> Result<Server, String> {
        let mut child = clean_command(&env.nggc)
            .arg("--repo")
            .arg(repo)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &env.nproc.to_string()])
            .args(["--result-cache", &cache_bytes.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start nggc serve: {e}"))?;
        let mut banner = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        stdout.read_line(&mut banner).map_err(|e| e.to_string())?;
        match banner.trim().strip_prefix("listening on ") {
            Some(addr) => Ok(Server { child, addr: addr.to_owned(), _stdout: stdout }),
            None => {
                child.kill().ok();
                child.wait().ok();
                Err(format!("nggc serve did not announce its address: {banner:?}"))
            }
        }
    }

    /// User + system CPU seconds so far, from `/proc/<pid>/stat`.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the line.
        let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or(&stat);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok((u + s) / CLK_TCK),
            _ => Err(format!("{path}: unexpected format")),
        }
    }

    /// Peak resident set (`VmHWM`) in MB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

/// However the run ends, the server is stopped and waited for.
impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

// ---------------------------------------------------------------------------
// Running one operation from outside
// ---------------------------------------------------------------------------

/// What came back from one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Succeeded and matched the oracle.
    pub ok: bool,
    /// Served from a cache (serve result cache / on-disk result store).
    pub cached: bool,
    /// Spawn-to-exit wall time of the CLI process, as its spawner saw it
    /// (CLI only; a served operation is timed by its client).
    pub wall_us: f64,
    /// Server-side execution time the reply carried (serve only).
    pub server_us: f64,
    /// CPU seconds and peak resident set of the CLI process (CLI only).
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Say why an operation failed — the first few times only, so a broken
/// build does not bury the result under thousands of lines.
fn note_failure(op: &Op, got: &dyn std::fmt::Debug) {
    static NOTED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    if NOTED.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 5 {
        eprintln!("FAILED {:?}: expected {:?}, got {got:?}", op.action, op.expect);
    }
}

/// First `N samples, M regions` line of `nggc query` output.
fn parse_counts(stdout: &str) -> Option<(usize, usize)> {
    stdout.lines().find_map(|line| {
        let (samples, rest) = line.split_once(" samples, ")?;
        let (regions, _) = rest.split_once(" regions")?;
        Some((samples.trim().parse().ok()?, regions.parse().ok()?))
    })
}

/// A set-up workload: its repository and, for served workloads, the server.
pub struct Live {
    pub repo: PathBuf,
    pub server: Option<Server>,
    pub batch_files: Vec<PathBuf>,
}

impl Live {
    /// Run `op` as a CLI process and check it against the oracle.
    fn run_cli(&self, env: &Env, plan: &Plan, op: &Op) -> Outcome {
        let mut args: Vec<String> = Vec::new();
        match &op.action {
            Action::Query { text, save } => {
                args.extend(["query", "--head", "0", "-e", text].map(str::to_owned));
                if *save {
                    args.push("--save".into());
                }
                if plan.kind.cli_no_cache() {
                    args.push("--no-cache".into());
                }
            }
            Action::Import { batch, dataset } => {
                let file = self.batch_files[*batch].display().to_string();
                args.extend(["import".to_owned(), file, dataset.clone()]);
            }
            Action::Delete { dataset } => args.extend(["delete".to_owned(), dataset.clone()]),
        }
        let out = match env.run_cli(&self.repo, args) {
            Ok(out) => out,
            Err(e) => {
                note_failure(op, &e);
                return Outcome::default();
            }
        };
        let stdout = &out.stdout;
        let matches = match op.expect {
            Expect::Output { samples, regions } => parse_counts(stdout) == Some((samples, regions)),
            Expect::Imported { regions } => {
                stdout.starts_with(&format!("imported {regions} regions into dataset "))
            }
            Expect::Done => true,
        };
        let saved = match &op.action {
            Action::Query { save: true, .. } => stdout.contains(" to repository"),
            _ => true,
        };
        let ok = out.success && matches && saved;
        if !ok {
            note_failure(op, stdout);
        }
        Outcome {
            ok,
            cached: stdout.contains(", cached)"),
            wall_us: out.wall_us,
            server_us: 0.0,
            cpu_s: out.cpu_s,
            peak_rss_mb: out.peak_rss_mb,
        }
    }

    /// Send `op` over `client` and check the reply against the oracle.
    fn run_served(plan: &Plan, client: &mut Client, op: &Op) -> Outcome {
        let Action::Query { text, .. } = &op.action else {
            return Outcome::default();
        };
        let (head, no_cache) = plan.kind.serve_request();
        match client.query_full(text, None, None, head, no_cache) {
            Ok(ServerReply::Result { outputs, cached, elapsed_us, .. }) => {
                let got = Expect::Output {
                    samples: outputs.iter().map(|o| o.samples).sum(),
                    regions: outputs.iter().map(|o| o.regions).sum(),
                };
                if got != op.expect {
                    note_failure(op, &got);
                }
                Outcome {
                    ok: got == op.expect,
                    cached,
                    server_us: elapsed_us as f64,
                    ..Outcome::default()
                }
            }
            other => {
                note_failure(op, &other);
                Outcome::default()
            }
        }
    }

    /// Stop the server, if any, and wait until it has ended.
    pub fn stop_server(&mut self) {
        self.server = None;
    }

    /// Stop the server and remove the repository.
    pub fn tear_down(mut self) {
        self.stop_server();
        std::fs::remove_dir_all(&self.repo).ok();
    }
}

fn connect(server: &Server) -> Result<Client, String> {
    Client::connect(&server.addr).map_err(|e| format!("connect {}: {e}", server.addr))
}

fn serve_stats(server: &Server) -> Result<ServeStats, String> {
    match connect(server)?.stats() {
        Ok(ServerReply::Stats(stats)) => Ok(stats),
        other => Err(format!("unexpected reply to Stats: {other:?}")),
    }
}

/// Set the workload up in a fresh directory: save the generated datasets
/// (the repository's own encode + durable write path), start the server,
/// run the warm-up pass. Returns the live workload and how long all of that
/// took — generation and the oracle are the harness's work, not the
/// system's, and are not in it.
pub fn set_up(env: &Env, plan: &Plan, slot: usize) -> Result<(Live, Duration), String> {
    let dir = env.work.join(format!("{}-{slot}", plan.kind.name()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let batch_files: Vec<PathBuf> =
        (0..plan.batches.len()).map(|j| dir.join(format!("batch_{j}.narrowPeak"))).collect();
    for (path, text) in batch_files.iter().zip(&plan.batches) {
        std::fs::write(path, text).map_err(|e| e.to_string())?;
    }
    let t0 = Instant::now();
    let mut live = Live { repo: dir.join("repo"), server: None, batch_files };
    {
        let mut repo = Repository::open(&live.repo).map_err(|e| e.to_string())?;
        for ds in &plan.datasets {
            repo.save(ds).map_err(|e| e.to_string())?;
        }
    }
    let fail = |live: Live, what: String| -> Result<(Live, Duration), String> {
        live.tear_down();
        Err(what)
    };
    if plan.kind == Kind::IngestChurn {
        // Every rotating name exists, with its derived dataset, before the
        // window opens, so each measured cycle replaces rather than creates.
        for cycle in plan.ops.chunks(5).take(CHURN_NAMES) {
            for op in &cycle[1..3] {
                if !live.run_cli(env, plan, op).ok {
                    return fail(live, format!("set-up operation failed: {:?}", op.action));
                }
            }
        }
    }
    if plan.kind.served() {
        match Server::start(env, &live.repo, plan.result_cache_bytes) {
            Ok(server) => live.server = Some(server),
            Err(e) => return fail(live, e),
        }
    }
    let mut client = match &live.server {
        Some(server) => match connect(server) {
            Ok(c) => Some(c),
            Err(e) => return fail(live, e),
        },
        None => None,
    };
    for &i in &plan.warmup {
        let op = &plan.ops[i];
        let outcome = match &mut client {
            Some(c) => Live::run_served(plan, c, op),
            None => live.run_cli(env, plan, op),
        };
        if !outcome.ok {
            return fail(live, format!("warm-up operation failed: {:?}", op.action));
        }
    }
    Ok((live, t0.elapsed()))
}

// ---------------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------------

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Index into [`Plan::ops`].
    pub op: usize,
    pub latency_us: f64,
    /// Completion time, µs since the window opened.
    pub end_us: f64,
    pub outcome: Outcome,
}

/// Everything observed during one window.
pub struct Window {
    /// Per client, in completion order.
    pub timed: Vec<Vec<Timed>>,
    pub elapsed_s: f64,
    /// CPU seconds the `nggc` processes used inside the window.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Serve `Stats` before and after the window.
    pub stats: Option<(ServeStats, ServeStats)>,
}

/// Drive the workload closed-loop for `seconds`, tracing off. Client `c`
/// enters its sequence at `resume[c]` (where an earlier window of the same
/// run left off).
pub fn measure(
    env: &Env,
    plan: &Plan,
    live: &Live,
    seconds: f64,
    resume: &[usize],
) -> Result<Window, String> {
    let window = Duration::from_secs_f64(seconds);
    let run_client = |sequence: &[usize],
                      resume: usize,
                      t0: Instant,
                      mut run: Box<dyn FnMut(&Op) -> Outcome + '_>|
     -> Vec<Timed> {
        let mut timed = Vec::new();
        for &op in sequence.iter().cycle().skip(resume % sequence.len()) {
            let start = Instant::now();
            if start.duration_since(t0) >= window {
                break;
            }
            let outcome = run(&plan.ops[op]);
            let end = Instant::now();
            timed.push(Timed {
                op,
                latency_us: if outcome.wall_us > 0.0 {
                    outcome.wall_us
                } else {
                    end.duration_since(start).as_secs_f64() * 1e6
                },
                end_us: end.duration_since(t0).as_secs_f64() * 1e6,
                outcome,
            });
        }
        timed
    };
    match &live.server {
        None => {
            let t0 = Instant::now();
            let timed = run_client(
                &plan.sequences[0],
                resume[0],
                t0,
                Box::new(|op| live.run_cli(env, plan, op)),
            );
            Ok(Window {
                elapsed_s: t0.elapsed().as_secs_f64(),
                cpu_s: timed.iter().map(|x| x.outcome.cpu_s).sum(),
                peak_rss_mb: timed.iter().map(|x| x.outcome.peak_rss_mb).fold(0.0, f64::max),
                timed: vec![timed],
                stats: None,
            })
        }
        Some(server) => {
            let mut clients = Vec::new();
            for _ in &plan.sequences {
                clients.push(connect(server)?);
            }
            let before = serve_stats(server)?;
            let cpu0 = server.cpu_seconds()?;
            let t0 = Instant::now();
            let timed: Vec<Vec<Timed>> = std::thread::scope(|scope| {
                let handles: Vec<_> = plan
                    .sequences
                    .iter()
                    .zip(&mut clients)
                    .zip(resume)
                    .map(|((sequence, client), resume)| {
                        scope.spawn(move || {
                            run_client(
                                sequence,
                                *resume,
                                t0,
                                Box::new(|op| Live::run_served(plan, client, op)),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            });
            let elapsed_s = t0.elapsed().as_secs_f64();
            let cpu_s = server.cpu_seconds()? - cpu0;
            let after = serve_stats(server)?;
            Ok(Window {
                timed,
                elapsed_s,
                cpu_s,
                peak_rss_mb: server.peak_rss_mb()?,
                stats: Some((before, after)),
            })
        }
    }
}

/// Repository bytes on disk divided by the regions its catalog holds.
pub fn stored_bytes_per_region(repo: &Path) -> Result<f64, String> {
    fn dir_bytes(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    let regions: usize = Repository::open(repo)
        .map_err(|e| e.to_string())?
        .list()
        .iter()
        .map(|entry| entry.stats.regions)
        .sum();
    if regions == 0 {
        return Err("the repository holds no regions at the end of the run".into());
    }
    Ok(dir_bytes(repo) as f64 / regions as f64)
}
