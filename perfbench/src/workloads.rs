//! The four workloads: their query templates, the seeded operation
//! sequences, and the correctness oracle.
//!
//! Every workload is a closed loop (CLI users and pipeline scripts wait for
//! a reply). A workload is a table of distinct operations plus, per client,
//! a sequence of indices into it; clients walk their sequence cyclically
//! until the window closes. Round-robin workloads repeat one cycle over
//! their templates; `serve_mixed` draws template parameters Zipf-distributed
//! from a seeded pool.

use crate::data::{self, Scale};
use crate::stats::{fnv1a, Zipf, FNV_OFFSET};
use nggc::engine::ExecContext;
use nggc::formats::FileFormat;
use nggc::gdm::{Dataset, GRegion, Sample};
use nggc::gmql::GmqlEngine;
use nggc::synth::Genome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanCold,
    OperatorsWarm,
    ServeMixed,
    IngestChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::ScanCold, Kind::OperatorsWarm, Kind::ServeMixed, Kind::IngestChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanCold => "scan_cold",
            Kind::OperatorsWarm => "operators_warm",
            Kind::ServeMixed => "serve_mixed",
            Kind::IngestChurn => "ingest_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Does the workload talk to a `nggc serve` process (as opposed to
    /// spawning one CLI process per operation)?
    pub fn served(self) -> bool {
        matches!(self, Kind::OperatorsWarm | Kind::ServeMixed)
    }

    /// `(head, no_cache)` of the workload's serve requests: `serve_mixed` is
    /// interactive (20 head rows, result cache on), `operators_warm` wants
    /// summaries only and bypasses the cache.
    pub fn serve_request(self) -> (usize, bool) {
        if self == Kind::ServeMixed {
            (20, false)
        } else {
            (0, true)
        }
    }

    /// Do the workload's CLI queries pass `--no-cache` (bypassing the
    /// on-disk result store)?
    pub fn cli_no_cache(self) -> bool {
        self == Kind::ScanCold
    }
}

/// What one operation does.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Action {
    /// A GMQL query: `nggc query` (optionally `--save`) or a serve request.
    Query { text: String, save: bool },
    /// `nggc import <batch file> <dataset>`.
    Import { batch: usize, dataset: String },
    /// `nggc delete <dataset>`.
    Delete { dataset: String },
}

/// The result the oracle computed for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Expect {
    /// `(samples, regions)` of the materialised output.
    Output { samples: usize, regions: usize },
    /// Regions `nggc import` must report.
    Imported { regions: usize },
    /// The operation only has to succeed.
    Done,
}

/// One distinct operation of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into [`Plan::templates`].
    pub template: usize,
    pub action: Action,
    pub expect: Expect,
    /// Encoded size of the oracle's output (sizes the serve result cache).
    pub result_bytes: u64,
}

/// Everything one run of a workload needs, generated from the seed.
pub struct Plan {
    pub kind: Kind,
    pub templates: Vec<&'static str>,
    /// Datasets saved into the repository at set-up.
    pub datasets: Vec<Dataset>,
    /// narrowPeak texts written next to the repository (`ingest_churn`).
    pub batches: Vec<String>,
    pub ops: Vec<Op>,
    /// Per client: indices into `ops`, walked cyclically.
    pub sequences: Vec<Vec<usize>>,
    /// Indices into `ops` run once at the end of set-up.
    pub warmup: Vec<usize>,
    /// Ops per throughput block and client (one cycle of the templates).
    pub block: usize,
    /// `--result-cache` bytes for the serve process (0 = cache off).
    pub result_cache_bytes: u64,
    /// FNV-1a over the generated operations and sequences.
    pub op_hash: u64,
}

/// The §2 query, as `nggc_bench::MAP_QUERY` spells it.
const MAP_QUERY: &str = "PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
 PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
 RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
 MATERIALIZE RESULT;";

/// The E6 trio, as `exp_parallel_scaling` spells it.
const E6_Q1_MAP: &str = "PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
 R = MAP(n AS COUNT, s AS AVG(signal_value)) PROMS ENCODE;
 MATERIALIZE R;";
const E6_Q2_JOIN: &str = "PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
 R = JOIN(DLE(20000); output: LEFT) PROMS ENCODE;
 MATERIALIZE R;";
const E6_Q3_HISTOGRAM: &str = "R = HISTOGRAM(2, ANY) ENCODE;
 MATERIALIZE R;";
const COVER: &str = "R = COVER(2, ANY) ENCODE;
 MATERIALIZE R;";

/// The E4 pipeline of `exp_case_studies` (6 statements) over `E4_*`.
const E4_PIPELINE: &str = "CONTROL = SELECT(condition == 'control') E4_EXPRESSION;
 INDUCED = SELECT(condition == 'induced') E4_EXPRESSION;
 BOTH    = JOIN(DLE(-1); output: LEFT) CONTROL INDUCED;
 DISREG  = SELECT(region: left.expression > right.expression * 2
                  AND left.gene == right.gene) BOTH;
 BROKEN  = JOIN(DLE(0); output: LEFT) DISREG E4_BREAKS;
 RESULT  = MAP(mutation_count AS COUNT) BROKEN E4_MUTATIONS;
 MATERIALIZE RESULT;";

/// The E5 pipeline of `exp_case_studies` (17 statements) over `E5_*` and the
/// study's `ANNOTATIONS`.
const E5_PIPELINE: &str = "K27    = SELECT(antibody == 'H3K27ac') E5_MARKS;
 K4ME1  = SELECT(antibody == 'H3K4me1') E5_MARKS;
 K4ME3  = SELECT(antibody == 'H3K4me3') E5_MARKS;
 ENH0   = JOIN(DLE(-1); output: INT) K27 K4ME1;
 ENH    = PROJECT(esig AS left.signal) ENH0;
 PROMS  = SELECT(region: annType == 'promoter') ANNOTATIONS;
 APROM0 = JOIN(DLE(-1); output: LEFT) PROMS K4ME3;
 APROM1 = PROJECT(gene0 AS left.name) APROM0;
 EXPR   = SELECT(region: expression > 10) E5_EXPRESSION;
 APROM2 = JOIN(DLE(0); output: LEFT) APROM1 EXPR;
 APROM3 = SELECT(region: left.gene0 == right.gene) APROM2;
 APROM  = PROJECT(gene AS left.gene0) APROM3;
 LE0    = JOIN(DLE(-1); output: RIGHT) E5_CTCF_LOOPS ENH;
 LE     = PROJECT(eloop AS left.loop_id) LE0;
 LP0    = JOIN(DLE(-1); output: RIGHT) E5_CTCF_LOOPS APROM;
 LP     = PROJECT(ploop AS left.loop_id, pgene AS right.gene) LP0;
 PAIRS0 = JOIN(DLE(500000); output: CAT) LE LP;
 PAIRS  = SELECT(region: left.eloop == right.ploop) PAIRS0;
 MATERIALIZE PAIRS;";

/// Dataset names `ingest_churn` rotates over.
pub const CHURN_NAMES: usize = 12;
/// Distinct narrowPeak batches; coprime with [`CHURN_NAMES`], so a name
/// receives different content each time round.
const CHURN_BATCHES: usize = 5;
/// Windows per chromosome in the `serve_mixed` parameter pool.
const WINDOWS_PER_CHROM: usize = 2;
/// Ops per throughput block and client on `serve_mixed`.
const SERVE_BLOCK: usize = 64;
/// Ops per client in a `serve_mixed` sequence (walked cyclically).
const SERVE_SEQUENCE: usize = 1 << 14;
/// Share of each template's parameter pool, most popular first, whose
/// results the `serve_mixed` result cache is sized to hold.
const RESIDENT_SHARE: f64 = 0.4;
/// Zipf exponent of the `serve_mixed` parameter draw.
const ZIPF_S: f64 = 1.1;

fn query(template: usize, text: String) -> Op {
    Op {
        template,
        action: Action::Query { text, save: false },
        expect: Expect::Done,
        result_bytes: 0,
    }
}

/// `[A, B)` window covering a quarter of `chrom`, starting at `slot`
/// eighths of its length.
fn window(genome: &Genome, chrom: &str, slot: usize) -> (u64, u64) {
    let len = genome.len_of(&nggc::gdm::Chrom::new(chrom)).expect("known chromosome");
    let lo = len * slot as u64 / 8;
    (lo, lo + len / 4)
}

/// Generate the plan of `kind` from `seed` and run the oracle over it.
pub fn plan(kind: Kind, seed: u64, scale: &Scale) -> Result<Plan, String> {
    let genome = Genome::human(scale.genome);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let annotations = || data::annotations(&genome, scale.genes, seed ^ 0xa0a0);
    let mut plan = match kind {
        Kind::ScanCold => {
            let encode =
                data::encode_dataset(&genome, scale.encode_samples, scale.encode_peaks, seed);
            // Four chromosomes of different sizes, in seeded order; the
            // window slides with the cycle.
            let mut chroms = ["chr1", "chr4", "chr9", "chr17"];
            for i in (1..chroms.len()).rev() {
                chroms.swap(i, rng.gen_range(0..=i));
            }
            let mut ops = Vec::new();
            for (i, chrom) in chroms.iter().enumerate() {
                let (lo, hi) = window(&genome, chrom, i * 2);
                ops.push(query(
                    0,
                    format!("X = SELECT(region: chr == '{chrom}') ENCODE; MATERIALIZE X;"),
                ));
                ops.push(query(
                    1,
                    format!(
                        "X = SELECT(region: chr == '{chrom}' AND left >= {lo} AND right <= {hi}) \
                         ENCODE; MATERIALIZE X;"
                    ),
                ));
                ops.push(query(2, "X = PROJECT(signal_value) ENCODE; MATERIALIZE X;".into()));
                let cell = data::CELLS[i % data::CELLS.len()];
                ops.push(query(3, format!("X = SELECT(cell == '{cell}') ENCODE; MATERIALIZE X;")));
            }
            Plan {
                kind,
                templates: vec!["chr_select", "chr_window_select", "project_column", "meta_select"],
                datasets: vec![encode, annotations()],
                batches: Vec::new(),
                sequences: vec![(0..ops.len()).collect()],
                warmup: (0..4).collect(),
                block: 4,
                ops,
                result_cache_bytes: 0,
                op_hash: 0,
            }
        }
        Kind::OperatorsWarm => {
            // Eight datasets: exactly what the server's dataset LRU holds, so
            // nothing is evicted once the warm-up has loaded them. ENCODE
            // shares the E5 study's genome and its ANNOTATIONS.
            let genome = Genome::human(data::CASE_STUDY_GENOME);
            let encode =
                data::encode_dataset(&genome, scale.encode_s_samples, scale.encode_s_peaks, seed);
            let mut datasets = vec![encode];
            datasets.extend(data::case_studies(seed));
            let texts = [
                MAP_QUERY,
                E6_Q1_MAP,
                E6_Q2_JOIN,
                E6_Q3_HISTOGRAM,
                COVER,
                E4_PIPELINE,
                E5_PIPELINE,
            ];
            let mut ops: Vec<Op> =
                texts.iter().enumerate().map(|(t, q)| query(t, (*q).to_owned())).collect();
            let cycle = ops.len();
            // Warm-up only: a full (unprunable) read of every dataset makes
            // it resident, then one pass over the templates.
            let mut warmup: Vec<usize> = (cycle..cycle + datasets.len()).collect();
            warmup.extend(0..cycle);
            ops.extend(datasets.iter().map(|ds| {
                query(0, format!("X = SELECT(region: left >= 0) {}; MATERIALIZE X;", ds.name))
            }));
            Plan {
                kind,
                templates: vec![
                    "map_s2",
                    "e6_q1_map",
                    "e6_q2_join",
                    "e6_q3_histogram",
                    "cover",
                    "e4_pipeline",
                    "e5_pipeline",
                ],
                datasets,
                batches: Vec::new(),
                sequences: vec![(0..cycle).collect()],
                warmup,
                block: cycle,
                ops,
                result_cache_bytes: 0,
                op_hash: 0,
            }
        }
        Kind::ServeMixed => {
            let encode =
                data::encode_dataset(&genome, scale.encode_samples, scale.encode_peaks, seed);
            let chroms: Vec<String> =
                genome.chromosomes().iter().map(|(c, _)| c.as_str().to_owned()).collect();
            // Per template: its parameterised ops, most popular first.
            let mut pools: Vec<Vec<Op>> = vec![Vec::new(); 4];
            for chrom in &chroms {
                for w in 0..WINDOWS_PER_CHROM {
                    let (lo, hi) = window(&genome, chrom, w * 4);
                    pools[0].push(query(
                        0,
                        format!(
                            "X = SELECT(region: chr == '{chrom}' AND left >= {lo} AND \
                             right <= {hi}) ENCODE; MATERIALIZE X;"
                        ),
                    ));
                }
                pools[1].push(query(
                    1,
                    format!(
                        "P = SELECT(region: annType == 'promoter' AND chr == '{chrom}') \
                         ANNOTATIONS; R = MAP(n AS COUNT) P ENCODE; MATERIALIZE R;"
                    ),
                ));
                pools[3].push(query(
                    3,
                    format!(
                        "S = SELECT(region: chr == '{chrom}') ENCODE; R = COVER(2, ANY) S; \
                         MATERIALIZE R;"
                    ),
                ));
            }
            for (attr, values) in [
                ("cell", &data::CELLS[..]),
                ("antibody", &data::ANTIBODIES[..]),
                ("treatment", &["IFNg", "None"][..]),
                ("dataType", &["ChipSeq", "DnaseSeq"][..]),
            ] {
                for v in values {
                    pools[2].push(query(
                        2,
                        format!(
                            "X = SELECT({attr} == '{v}'; region: signal_value > 40) ENCODE; \
                             MATERIALIZE X;"
                        ),
                    ));
                }
            }
            let mut ops = Vec::new();
            let mut ranked: Vec<(usize, Zipf)> = Vec::new();
            // Popularity rank is the pool order, the same on every seed
            // (chr1 is asked for most), so that what a popular request costs
            // and how big its result is do not change with the seed; the
            // draws themselves are seeded.
            for pool in &mut pools {
                ranked.push((ops.len(), Zipf::new(pool.len(), ZIPF_S)));
                ops.append(pool);
            }
            // Two clients; templates round-robin (so each is a quarter of
            // the ops on every seed); within each block of SERVE_BLOCK ops a
            // template's parameters are a stratified Zipf sample in seeded
            // order, so the request mix — and with it the hit ratio — is
            // the same on every seed while the order is not.
            let per_template = SERVE_BLOCK / ranked.len();
            let sequences: Vec<Vec<usize>> = (0..2)
                .map(|client| {
                    let mut sequence = Vec::with_capacity(SERVE_SEQUENCE);
                    for _ in 0..SERVE_SEQUENCE / SERVE_BLOCK {
                        let draws: Vec<Vec<usize>> = ranked
                            .iter()
                            .map(|(_, zipf)| zipf.stratified(per_template, &mut rng))
                            .collect();
                        for j in 0..SERVE_BLOCK {
                            let t = (j + client) % ranked.len();
                            sequence.push(ranked[t].0 + draws[t][j / ranked.len()]);
                        }
                    }
                    sequence
                })
                .collect();
            // Warm-up: a full (unprunable) read of both datasets, so they
            // are resident in the server's dataset LRU before the window
            // opens, then every template's popular parameters, least popular
            // first, so the result cache starts the window as full as it
            // runs.
            let mut warmup = vec![ops.len(), ops.len() + 1];
            for (base, zipf) in &ranked {
                let resident = (zipf.ranks() as f64 * RESIDENT_SHARE).ceil() as usize;
                warmup.extend((*base..*base + resident).rev());
            }
            for name in ["ENCODE", "ANNOTATIONS"] {
                ops.push(query(0, format!("X = SELECT(region: left >= 0) {name}; MATERIALIZE X;")));
            }
            Plan {
                kind,
                templates: vec!["window_select", "chr_map", "meta_select", "chr_cover"],
                datasets: vec![encode, annotations()],
                batches: Vec::new(),
                sequences,
                warmup,
                block: SERVE_BLOCK,
                ops,
                result_cache_bytes: 0, // sized from the oracle's outputs below
                op_hash: 0,
            }
        }
        Kind::IngestChurn => {
            let batches: Vec<String> = (0..CHURN_BATCHES)
                .map(|j| {
                    data::narrowpeak_batch(&genome, scale.churn_regions, seed ^ (j as u64 + 1))
                })
                .collect();
            // One cycle per (name, batch) pairing: delete, import, derive
            // and save, query (invalidated miss), same query (hit).
            let mut ops = Vec::new();
            for k in 0..CHURN_NAMES * CHURN_BATCHES {
                let (name, batch) = (format!("CH_{:02}", k % CHURN_NAMES), k % CHURN_BATCHES);
                let derived = format!("CHD_{:02}", k % CHURN_NAMES);
                ops.push(Op {
                    template: 0,
                    action: Action::Delete { dataset: name.clone() },
                    expect: Expect::Done,
                    result_bytes: 0,
                });
                ops.push(Op {
                    template: 1,
                    action: Action::Import { batch, dataset: name.clone() },
                    expect: Expect::Imported { regions: scale.churn_regions },
                    result_bytes: 0,
                });
                ops.push(Op {
                    template: 2,
                    action: Action::Query {
                        text: format!(
                            "{derived} = SELECT(region: signal_value > 25) {name}; \
                             MATERIALIZE {derived};"
                        ),
                        save: true,
                    },
                    expect: Expect::Done,
                    result_bytes: 0,
                });
                let probe = format!("R = SELECT(region: score >= 500) {name}; MATERIALIZE R;");
                ops.push(query(3, probe.clone()));
                ops.push(query(4, probe));
            }
            Plan {
                kind,
                templates: vec!["delete", "import", "query_save", "query_miss", "query_hit"],
                datasets: Vec::new(),
                batches,
                sequences: vec![(0..ops.len()).collect()],
                // Set-up imports every name once and runs the first cycle.
                warmup: (0..5).collect(),
                block: 5,
                ops,
                result_cache_bytes: 0,
                op_hash: 0,
            }
        }
    };
    oracle(&mut plan)?;
    if kind == Kind::ServeMixed {
        // Room for exactly what the warm-up puts there (after its two
        // dataset reads): the popular results stay resident, the tail keeps
        // evicting.
        plan.result_cache_bytes =
            plan.warmup.iter().skip(2).map(|&i| plan.ops[i].result_bytes).sum();
    }
    let mut hash = FNV_OFFSET;
    for op in &plan.ops {
        hash = fnv1a(hash, format!("{:?}|{:?}\n", op.action, op.expect).as_bytes());
    }
    for seq in &plan.sequences {
        for i in seq {
            hash = fnv1a(hash, &(*i as u64).to_le_bytes());
        }
    }
    plan.op_hash = hash;
    Ok(plan)
}

/// The dataset `nggc import FILE NAME` creates for a fresh `name` from the
/// parsed narrowPeak `regions`.
pub fn imported_dataset(name: &str, regions: Vec<GRegion>) -> Result<Dataset, String> {
    let mut ds = Dataset::new(name, FileFormat::NarrowPeak.schema());
    ds.add_sample(Sample::new("batch", name).with_regions(regions)).map_err(|e| e.to_string())?;
    Ok(ds)
}

/// The correctness oracle: compute the expected result of every distinct
/// query with an in-process **serial, unpruned, uncached** run (a plain
/// `GmqlEngine` over the generated datasets, no repository, no container,
/// no scan specs, no worker pool), and fill in [`Op::expect`].
fn oracle(plan: &mut Plan) -> Result<(), String> {
    let mut engine = GmqlEngine::new(ExecContext::serial());
    for ds in &plan.datasets {
        engine.register(ds.clone());
    }
    let run = |engine: &GmqlEngine, text: &str| -> Result<(Expect, u64), String> {
        let out = engine.run(text).map_err(|e| format!("oracle: {e}\n{text}"))?;
        let samples = out.values().map(Dataset::sample_count).sum();
        let regions = out.values().map(Dataset::region_count).sum();
        let bytes = out.values().map(|d| d.encoded_size() as u64).sum();
        Ok((Expect::Output { samples, regions }, bytes))
    };
    if plan.kind == Kind::IngestChurn {
        // Every cycle's three queries depend only on the batch imported.
        for cycle in plan.ops.chunks_mut(5) {
            let Action::Import { batch, dataset } = &cycle[1].action else {
                return Err("churn cycle must import second".into());
            };
            let regions =
                FileFormat::NarrowPeak.parse(&plan.batches[*batch]).map_err(|e| e.to_string())?;
            engine.register(imported_dataset(dataset, regions)?);
            for op in &mut cycle[2..] {
                let Action::Query { text, .. } = &op.action else { continue };
                (op.expect, op.result_bytes) = run(&engine, text)?;
            }
        }
        return Ok(());
    }
    for op in &mut plan.ops {
        if let Action::Query { text, .. } = &op.action {
            (op.expect, op.result_bytes) = run(&engine, text)?;
        }
    }
    Ok(())
}
