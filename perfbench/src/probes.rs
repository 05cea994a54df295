//! The probes of the traced replay: one small function per probe, each a
//! span around one call into a layer's public function. This file is the
//! complete list of library functions the per-layer metrics pin; when a
//! later change moves or renames one of them, its probe is re-pointed here
//! and nowhere else.
//!
//! | probe | library function |
//! |---|---|
//! | `cli.process` | the `nggc` binary itself (`nggc help`) |
//! | `cli.report` | `Dataset::stats` + `Display` (what `cmd_query --head 0` prints) |
//! | `gdm.drop` | `Drop` of materialised `Dataset`s |
//! | `repository.open` | `Repository::open` |
//! | `repository.save` / `.delete` | `Repository::save` / `Repository::delete` |
//! | `repository.result_store.lookup` / `.store` | `ResultStore::lookup` / `ResultStore::store` |
//! | `formats.index_read` | `native_v2::read_index` |
//! | `formats.block_read` | `std::fs::read` of `native_v2::CONTAINER_FILE` |
//! | `formats.decode` | `native_v2::decode_dataset_v2` / `decode_dataset_v2_pruned` |
//! | `formats.encode` | `native_v2::encode_dataset_v2` |
//! | `formats.text_parse` | `FileFormat::NarrowPeak.parse` (`formats::parse_peaks`) |
//! | `core.parse` … `core.fingerprint` | `gmql::parse`, `LogicalPlan::compile`, `gmql::optimize`, `gmql::derive_scan_specs`, `gmql::fingerprint` + `gmql::source_datasets` |
//! | `core.exec` | `gmql::execute_governed` (its `NodeMetrics` give `core.exec.node_ms.*`) |
//! | `core.result_cache` | `ResultCache::get_or_compute` |
//! | `server.frame_decode` | `protocol::read_frame` + `serde_json::from_slice::<ClientRequest>` |
//! | `server.reply_encode` | `OutputSummary` rows + `protocol::encode_frame` |

use crate::trace::Tracer;
use nggc::engine::ExecContext;
use nggc::formats::native_v2::{self, ScanOptions, ScanStats, V2Index};
use nggc::formats::FileFormat;
use nggc::gdm::{Dataset, GRegion, Schema};
use nggc::gmql::ast::Statement;
use nggc::gmql::result_cache::QueryOutputs;
use nggc::gmql::{
    self, CacheOutcome, DatasetProvider, ExecOptions, LogicalPlan, NodeId, NodeMetrics,
    QueryGovernor, ResultCache, ScanSpec,
};
use nggc::repository::{Repository, ResultStore};
use nggc::server::protocol::{encode_frame, read_frame};
use nggc::server::{ClientRequest, OutputSummary, ServerReply};
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Start the real binary and wait for it, doing no work: what every
/// one-shot CLI operation pays before and after its own layers run.
pub fn cli_process(t: &Tracer, nggc: &Path) -> Res<()> {
    t.span("cli.process", || {
        let status = Command::new(nggc)
            .arg("help")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(text)?;
        status.success().then_some(()).ok_or_else(|| "nggc help failed".to_owned())
    })
}

/// Render the per-output statistics `nggc query --head 0` prints.
pub fn cli_report(t: &Tracer, outputs: &QueryOutputs) -> String {
    t.span("cli.report", || {
        let mut names: Vec<&String> = outputs.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let ds = &outputs[name];
                format!("== {name} :: {} ==\n{}\n", ds.schema, ds.stats())
            })
            .collect()
    })
}

/// Free materialised data (row representation: every region owns its
/// chromosome handle and value vector).
pub fn gdm_drop<T>(t: &Tracer, value: T) {
    t.span("gdm.drop", || drop(value));
}

pub fn repository_open(t: &Tracer, root: &Path) -> Res<Repository> {
    t.span("repository.open", || Repository::open(root).map_err(text))
}

pub fn repository_save(t: &Tracer, repo: &mut Repository, dataset: &Dataset) -> Res<()> {
    t.span("repository.save", || repo.save(dataset).map_err(text))
}

pub fn repository_delete(t: &Tracer, repo: &mut Repository, name: &str) -> Res<()> {
    t.span("repository.delete", || repo.delete(name).map_err(text))
}

pub fn result_store_lookup(
    t: &Tracer,
    store: &ResultStore,
    key: u64,
    gen_of: &dyn Fn(&str) -> Option<u64>,
) -> Option<QueryOutputs> {
    t.span("repository.result_store.lookup", || store.lookup(key, gen_of))
}

pub fn result_store_store(
    t: &Tracer,
    store: &ResultStore,
    key: u64,
    gens: &[(String, u64)],
    outputs: &QueryOutputs,
) -> Res<()> {
    t.span("repository.result_store.store", || store.store(key, gens, outputs).map_err(text))
}

pub fn formats_index_read(t: &Tracer, dataset_dir: &Path) -> Res<V2Index> {
    t.span("formats.index_read", || native_v2::read_index(dataset_dir).map_err(text))
}

pub fn formats_block_read(t: &Tracer, dataset_dir: &Path) -> Res<Vec<u8>> {
    t.span("formats.block_read", || {
        std::fs::read(dataset_dir.join(native_v2::CONTAINER_FILE)).map_err(text)
    })
}

/// Decode a container: pruned by `opts` (per-block checksums, as
/// `Repository::load_pruned` does) or in full (trailer checksum, as
/// `Repository::load` does).
pub fn formats_decode(
    t: &Tracer,
    container: &[u8],
    opts: Option<&ScanOptions>,
) -> Res<(Dataset, Option<ScanStats>)> {
    t.span("formats.decode", || match opts {
        Some(opts) => native_v2::decode_dataset_v2_pruned(container, opts)
            .map(|(ds, stats)| (ds, Some(stats)))
            .map_err(text),
        None => native_v2::decode_dataset_v2(container).map(|ds| (ds, None)).map_err(text),
    })
}

pub fn formats_encode(t: &Tracer, dataset: &Dataset) -> Res<Vec<u8>> {
    t.span("formats.encode", || native_v2::encode_dataset_v2(dataset).map_err(text))
}

pub fn formats_text_parse(t: &Tracer, narrowpeak: &str) -> Res<Vec<GRegion>> {
    t.span("formats.text_parse", || FileFormat::NarrowPeak.parse(narrowpeak).map_err(text))
}

pub fn core_parse(t: &Tracer, query: &str) -> Res<Vec<Statement>> {
    t.span("core.parse", || gmql::parse(query).map_err(text))
}

pub fn core_compile(
    t: &Tracer,
    statements: &[Statement],
    schema_of: &dyn Fn(&str) -> Option<Schema>,
) -> Res<LogicalPlan> {
    t.span("core.compile", || LogicalPlan::compile(statements, schema_of).map_err(text))
}

pub fn core_optimize(t: &Tracer, plan: &LogicalPlan) -> LogicalPlan {
    t.span("core.optimize", || gmql::optimize(plan).0)
}

pub fn core_scan_spec(t: &Tracer, plan: &LogicalPlan) -> HashMap<NodeId, ScanSpec> {
    t.span("core.scan_spec", || gmql::derive_scan_specs(plan))
}

/// Cache key and source list, as both front ends derive them.
pub fn core_fingerprint(t: &Tracer, plan: &LogicalPlan) -> (u64, Vec<String>) {
    t.span("core.fingerprint", || (gmql::fingerprint(plan).0, gmql::source_datasets(plan)))
}

/// Execute an already optimized plan under `governor`.
pub fn core_exec(
    t: &Tracer,
    plan: &LogicalPlan,
    provider: &dyn DatasetProvider,
    ctx: &ExecContext,
    governor: &QueryGovernor,
) -> Res<(QueryOutputs, Vec<NodeMetrics>)> {
    let opts = ExecOptions { optimize: false, ..ExecOptions::default() };
    t.span("core.exec", || {
        gmql::execute_governed(plan, provider, ctx, &opts, Some(governor)).map_err(text)
    })
}

pub fn core_result_cache(
    t: &Tracer,
    cache: &ResultCache,
    key: u64,
    sources: &[String],
    gen_of: &dyn Fn(&str) -> Option<u64>,
    compute: &mut dyn FnMut() -> Res<QueryOutputs>,
) -> Res<(Arc<QueryOutputs>, CacheOutcome)> {
    t.span("core.result_cache", || cache.get_or_compute(key, sources, gen_of, compute))
}

/// Read one request frame off the wire and parse it.
pub fn server_frame_decode(t: &Tracer, wire: &[u8]) -> Res<ClientRequest> {
    t.span("server.frame_decode", || {
        let body = read_frame(&mut std::io::Cursor::new(wire))
            .map_err(text)?
            .ok_or_else(|| "empty request stream".to_owned())?;
        serde_json::from_slice::<ClientRequest>(&body).map_err(text)
    })
}

/// Build the `Result` reply serve sends (outputs in name order, up to
/// `head` region rows each) and encode it as one frame.
pub fn server_reply_encode(
    t: &Tracer,
    outputs: &QueryOutputs,
    head: usize,
    cached: bool,
) -> Res<Vec<u8>> {
    t.span("server.reply_encode", || {
        let mut names: Vec<&String> = outputs.keys().collect();
        names.sort();
        let summaries = names
            .into_iter()
            .map(|name| {
                let ds = &outputs[name];
                let rows = ds
                    .samples
                    .iter()
                    .flat_map(|s| s.regions.iter().map(move |r| format!("{}\t{r}", s.name)))
                    .take(head)
                    .collect();
                OutputSummary {
                    name: name.clone(),
                    samples: ds.sample_count(),
                    regions: ds.region_count(),
                    head: rows,
                }
            })
            .collect();
        let reply = ServerReply::Result { trace_id: 0, elapsed_us: 0, outputs: summaries, cached };
        encode_frame(&reply).map_err(|e| format!("reply of {} bytes is too large", e.bytes))
    })
}
