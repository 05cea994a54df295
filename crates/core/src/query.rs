//! High-level query API: register datasets, run GMQL text.
//!
//! ```
//! use nggc_core::GmqlEngine;
//! use nggc_gdm::*;
//!
//! let mut engine = GmqlEngine::with_workers(2);
//! let schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
//! let mut peaks = Dataset::new("PEAKS", schema);
//! peaks.add_sample(
//!     Sample::new("s1", "PEAKS")
//!         .with_regions(vec![
//!             GRegion::new("chr1", 0, 100, Strand::Pos).with_values(vec![0.001.into()]),
//!         ])
//!         .with_metadata(Metadata::from_pairs([("karyotype", "cancer")])),
//! ).unwrap();
//! engine.register(peaks);
//!
//! let out = engine.run("R = SELECT(karyotype == 'cancer') PEAKS; MATERIALIZE R;").unwrap();
//! assert_eq!(out["R"].sample_count(), 1);
//! ```

use crate::error::GmqlError;
use crate::exec::{execute_governed, ExecOptions};
use crate::optimizer::{optimize, OptimizerReport};
use crate::parser::parse;
use crate::plan::LogicalPlan;
use nggc_engine::ExecContext;
use nggc_gdm::{Dataset, Schema};
use std::collections::HashMap;

/// A GMQL engine over a set of registered in-memory datasets.
///
/// For repository-backed execution see `nggc-repository`, which provides
/// a [`crate::exec::DatasetProvider`] over on-disk datasets.
pub struct GmqlEngine {
    datasets: HashMap<String, Dataset>,
    ctx: ExecContext,
    opts: ExecOptions,
}

impl GmqlEngine {
    /// Engine with an explicit execution context.
    pub fn new(ctx: ExecContext) -> GmqlEngine {
        GmqlEngine { datasets: HashMap::new(), ctx, opts: ExecOptions::default() }
    }

    /// Engine with `workers` threads.
    pub fn with_workers(workers: usize) -> GmqlEngine {
        GmqlEngine::new(ExecContext::with_workers(workers))
    }

    /// Override execution options (ablations).
    pub fn with_options(mut self, opts: ExecOptions) -> GmqlEngine {
        self.opts = opts;
        self
    }

    /// The engine's execution context.
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    /// Register a dataset under its name, replacing any previous one.
    pub fn register(&mut self, dataset: Dataset) {
        self.datasets.insert(dataset.name.clone(), dataset);
    }

    /// Remove a registered dataset; returns true when it existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        self.datasets.remove(name).is_some()
    }

    /// Registered dataset by name.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.get(name)
    }

    /// Compile query text into a logical plan (no execution).
    pub fn compile(&self, query: &str) -> Result<LogicalPlan, GmqlError> {
        let statements = parse(query)?;
        LogicalPlan::compile(&statements, &|name| self.datasets.get(name).map(|d| d.schema.clone()))
    }

    /// Explain: compiled plan, optimized plan, and optimizer report.
    pub fn explain(&self, query: &str) -> Result<(String, String, OptimizerReport), GmqlError> {
        let plan = self.compile(query)?;
        let (opt, report) = optimize(&plan);
        Ok((plan.explain(), opt.explain(), report))
    }

    /// Run a query, returning materialized outputs keyed by name.
    pub fn run(&self, query: &str) -> Result<HashMap<String, Dataset>, GmqlError> {
        self.run_analyze(query).map(|(out, _)| out)
    }

    /// Run a query and also return per-node execution metrics (EXPLAIN
    /// ANALYZE).
    pub fn run_analyze(
        &self,
        query: &str,
    ) -> Result<(HashMap<String, Dataset>, Vec<crate::exec::NodeMetrics>), GmqlError> {
        let plan = self.compile(query)?;
        let provider = |name: &str| -> Result<Dataset, GmqlError> {
            self.datasets
                .get(name)
                .cloned()
                .ok_or_else(|| GmqlError::semantic(format!("unknown dataset {name:?}")))
        };
        execute_governed(&plan, &provider, &self.ctx, &self.opts, None)
    }

    /// Estimate the output size of a query without running it, from
    /// source statistics (used by the federation protocol, §4.4). The
    /// estimate multiplies source cardinalities through per-operator
    /// selectivity heuristics and is intentionally cheap and rough.
    pub fn estimate(&self, query: &str) -> Result<QueryEstimate, GmqlError> {
        let plan = self.compile(query)?;
        let (plan, _) = optimize(&plan);
        let mut regions: Vec<f64> = Vec::with_capacity(plan.nodes.len());
        let mut samples: Vec<f64> = Vec::with_capacity(plan.nodes.len());
        for node in &plan.nodes {
            use crate::ast::Operator as Op;
            use crate::plan::PlanOp;
            let (s, r) = match &node.op {
                PlanOp::Source(name) => {
                    let d = self
                        .datasets
                        .get(name)
                        .ok_or_else(|| GmqlError::semantic(format!("unknown dataset {name:?}")))?;
                    (d.sample_count() as f64, d.region_count() as f64)
                }
                PlanOp::Apply(op) => {
                    let input = |i: usize| (samples[node.inputs[i]], regions[node.inputs[i]]);
                    match op {
                        Op::Select { region, .. } => {
                            let (s, r) = input(0);
                            // Classic 1/3 selectivity per predicate level.
                            let rf = if region.is_some() { 1.0 / 3.0 } else { 1.0 };
                            (s / 3.0, r * rf / 3.0)
                        }
                        Op::Project { .. } | Op::Extend { .. } | Op::Order { .. } => input(0),
                        Op::Merge { .. } | Op::Group { .. } => {
                            let (_, r) = input(0);
                            (1.0, r)
                        }
                        Op::Union => {
                            let (s0, r0) = input(0);
                            let (s1, r1) = input(1);
                            (s0 + s1, r0 + r1)
                        }
                        Op::Difference { .. } => {
                            let (s, r) = input(0);
                            (s, r / 2.0)
                        }
                        Op::Join { .. } => {
                            let (s0, r0) = input(0);
                            let (s1, r1) = input(1);
                            // Distance joins are sparse: assume 1% pairing.
                            (s0 * s1, (r0 * r1).sqrt() * 0.01 * (r0.max(r1)).sqrt())
                        }
                        Op::Map { .. } => {
                            let (s0, r0) = input(0);
                            let (s1, _) = input(1);
                            (s0 * s1, r0 * s1)
                        }
                        Op::Cover { .. } => {
                            let (_, r) = input(0);
                            (1.0, r)
                        }
                    }
                }
            };
            samples.push(s);
            regions.push(r);
        }
        let mut est = QueryEstimate::default();
        for (name, id) in &plan.outputs {
            est.outputs.push(EstimatedOutput {
                name: name.clone(),
                samples: samples[*id].ceil() as usize,
                regions: regions[*id].ceil() as usize,
                // ~48 bytes per coordinate row + 16 per variable attribute.
                bytes: (regions[*id] * (48.0 + 16.0 * plan.nodes[*id].schema.len() as f64)).ceil()
                    as usize,
            });
        }
        Ok(est)
    }
}

/// Size estimate for a query's outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryEstimate {
    /// One entry per MATERIALIZE output.
    pub outputs: Vec<EstimatedOutput>,
}

/// Estimated cardinalities of one output dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimatedOutput {
    /// Output name.
    pub name: String,
    /// Estimated sample count.
    pub samples: usize,
    /// Estimated region count.
    pub regions: usize,
    /// Estimated serialized bytes.
    pub bytes: usize,
}

/// Convenience: compile + optimize + execute against a schema catalog and
/// provider (the repository/federation entry point).
pub fn run_with_provider(
    query: &str,
    schema_of: &dyn Fn(&str) -> Option<Schema>,
    provider: &dyn crate::exec::DatasetProvider,
    ctx: &ExecContext,
    opts: &ExecOptions,
) -> Result<HashMap<String, Dataset>, GmqlError> {
    let statements = parse(query)?;
    let plan = LogicalPlan::compile(&statements, schema_of)?;
    execute_governed(&plan, provider, ctx, opts, None).map(|(out, _)| out)
}

/// [`run_with_provider`] under a [`QueryGovernor`](crate::governor::QueryGovernor),
/// additionally returning per-node metrics (the partial-progress /
/// profiling path of `nggc query --timeout/--max-memory`).
pub fn run_with_provider_governed(
    query: &str,
    schema_of: &dyn Fn(&str) -> Option<Schema>,
    provider: &dyn crate::exec::DatasetProvider,
    ctx: &ExecContext,
    opts: &ExecOptions,
    governor: &crate::governor::QueryGovernor,
) -> Result<(HashMap<String, Dataset>, Vec<crate::exec::NodeMetrics>), GmqlError> {
    let statements = parse(query)?;
    let plan = LogicalPlan::compile(&statements, schema_of)?;
    execute_governed(&plan, provider, ctx, opts, Some(governor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Metadata, Sample, Strand, ValueType};

    fn engine() -> GmqlEngine {
        let mut engine = GmqlEngine::with_workers(2);

        let annot_schema = Schema::new(vec![Attribute::new("annType", ValueType::Str)]).unwrap();
        let mut annotations = Dataset::new("ANNOTATIONS", annot_schema);
        annotations
            .add_sample(Sample::new("ucsc", "ANNOTATIONS").with_regions(vec![
                GRegion::new("chr1", 0, 1000, Strand::Unstranded)
                    .with_values(vec!["promoter".into()]),
                GRegion::new("chr1", 5000, 6000, Strand::Unstranded)
                    .with_values(vec!["promoter".into()]),
                GRegion::new("chr1", 2000, 3000, Strand::Unstranded)
                    .with_values(vec!["enhancer".into()]),
            ]))
            .unwrap();
        engine.register(annotations);

        let peak_schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
        let mut encode = Dataset::new("ENCODE", peak_schema);
        for (name, datatype, positions) in [
            ("chip1", "ChipSeq", vec![100u64, 200, 5100]),
            ("chip2", "ChipSeq", vec![700]),
            ("dnase1", "DnaseSeq", vec![100]),
        ] {
            let regions = positions
                .iter()
                .map(|&p| {
                    GRegion::new("chr1", p, p + 50, Strand::Unstranded)
                        .with_values(vec![0.001.into()])
                })
                .collect();
            encode
                .add_sample(
                    Sample::new(name, "ENCODE")
                        .with_regions(regions)
                        .with_metadata(Metadata::from_pairs([("dataType", datatype)])),
                )
                .unwrap();
        }
        engine.register(encode);
        engine
    }

    #[test]
    fn full_paper_query_runs() {
        let engine = engine();
        let out = engine
            .run(
                "PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
                 PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
                 RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
                 MATERIALIZE RESULT;",
            )
            .unwrap();
        let result = &out["RESULT"];
        // 1 annotation sample × 2 ChipSeq samples.
        assert_eq!(result.sample_count(), 2);
        for s in &result.samples {
            assert_eq!(s.region_count(), 2, "two promoter regions each");
        }
        let counts: Vec<i64> = result.samples[0]
            .regions
            .iter()
            .map(|r| r.values.last().unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(counts, vec![2, 1], "chip1: 2 peaks in promoter 1, 1 in promoter 2");
        result.validate().unwrap();
    }

    #[test]
    fn unknown_dataset_fails_compile() {
        let engine = engine();
        assert!(engine.run("X = SELECT(a == 1) NOPE;").is_err());
    }

    #[test]
    fn explain_reports_optimizations() {
        let engine = engine();
        let (_, optimized, report) = engine
            .explain(
                "A = SELECT(dataType == 'ChipSeq') ENCODE;
                 B = SELECT(dataType == 'ChipSeq') ENCODE;
                 M = MAP(n AS COUNT) A B;
                 MATERIALIZE M;",
            )
            .unwrap();
        assert_eq!(report.nodes_deduplicated, 1);
        assert!(optimized.contains("MAP"));
    }

    #[test]
    fn estimate_produces_positive_sizes() {
        let engine = engine();
        let est = engine
            .estimate(
                "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
                 R = MAP(n AS COUNT) ANNOTATIONS PEAKS;
                 MATERIALIZE R;",
            )
            .unwrap();
        assert_eq!(est.outputs.len(), 1);
        assert!(est.outputs[0].bytes > 0);
        assert!(est.outputs[0].regions > 0);
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let engine = engine();
        let q = "A = SELECT(dataType == 'ChipSeq') ENCODE;
                 B = SELECT(region: p_value < 0.01) A;
                 MATERIALIZE B;";
        let opt = engine.run(q).unwrap();
        let engine2 = engine.with_options(ExecOptions { meta_first: false, optimize: false });
        let raw = engine2.run(q).unwrap();
        assert_eq!(opt["B"].sample_count(), raw["B"].sample_count());
        assert_eq!(opt["B"].region_count(), raw["B"].region_count());
    }

    #[test]
    fn semijoin_restricts_by_external_metadata() {
        let mut engine = engine();
        // External dataset: only ChipSeq-typed samples.
        let mut ext = Dataset::new("EXT", Schema::empty());
        ext.add_sample(
            Sample::new("probe", "EXT")
                .with_metadata(Metadata::from_pairs([("dataType", "ChipSeq")])),
        )
        .unwrap();
        engine.register(ext);
        let out =
            engine.run("X = SELECT(semijoin: dataType IN EXT) ENCODE; MATERIALIZE X;").unwrap();
        assert_eq!(out["X"].sample_count(), 2, "the two ChipSeq samples");
        // Negated form keeps the complement.
        let out =
            engine.run("X = SELECT(semijoin: dataType NOT IN EXT) ENCODE; MATERIALIZE X;").unwrap();
        assert_eq!(out["X"].sample_count(), 1, "only the DnaseSeq sample");
        // Combined with a metadata predicate.
        let out = engine
            .run(
                "X = SELECT(dataType == 'DnaseSeq'; semijoin: dataType IN EXT) ENCODE;
                 MATERIALIZE X;",
            )
            .unwrap();
        assert_eq!(out["X"].sample_count(), 0);
    }

    #[test]
    fn semijoin_unknown_external_fails_compile() {
        let engine = engine();
        assert!(engine.run("X = SELECT(semijoin: cell IN NOPE) ENCODE; MATERIALIZE X;").is_err());
    }

    #[test]
    fn project_meta_section_drops_metadata() {
        let engine = engine();
        let out =
            engine.run("X = PROJECT(p_value; meta: dataType) ENCODE; MATERIALIZE X;").unwrap();
        let s = &out["X"].samples[0];
        assert!(s.metadata.contains_attribute("dataType"));
        assert_eq!(s.metadata.len(), 1, "all other metadata dropped");
        assert_eq!(out["X"].schema.len(), 1);
    }

    #[test]
    fn provenance_flows_through_pipeline() {
        let engine = engine();
        let out = engine
            .run(
                "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
                 R = MAP(n AS COUNT) ANNOTATIONS PEAKS;
                 MATERIALIZE R;",
            )
            .unwrap();
        let s = &out["R"].samples[0];
        let chain = s.provenance.operator_chain();
        assert_eq!(chain[0], "MAP");
        let sources = s.provenance.sources();
        assert!(sources.contains(&("ANNOTATIONS".to_string(), "ucsc".to_string())));
        assert!(sources.iter().any(|(d, _)| d == "ENCODE"));
    }
}
