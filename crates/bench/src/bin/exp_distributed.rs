//! **E7b** — multi-node distributed execution (§4.4).
//!
//! A federation where the datasets a query needs live on *different*
//! nodes: ANNOTATIONS on one, per-center ENCODE slices on others. The
//! coordinator places execution on the owner of the largest referenced
//! bytes, ships the smaller datasets there as private temporary uploads,
//! and retrieves only results — reporting placement and bytes at growing
//! annotation sizes. `B/region` divides the bytes moved by the regions
//! that travelled: the result's, and the shipped annotation's twice
//! (owner to coordinator, coordinator to host).

use nggc_bench::{human_bytes, Table};
use nggc_core::GmqlEngine;
use nggc_federation::{Federation, FederationNode};
use nggc_synth::{generate_annotations, generate_encode, AnnotationConfig, EncodeConfig, Genome};
use std::time::Instant;

const QUERY: &str = "
    PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
    PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
    R     = MAP(peak_count AS COUNT) PROMS PEAKS;
    HOT   = SELECT(region: peak_count >= 2) R;
    MATERIALIZE HOT;
";

fn main() {
    let genome = Genome::human(0.003);
    println!("== E7b: distributed execution across dataset owners ==\n");
    let mut table = Table::new(&[
        "genes@broad",
        "host",
        "shipped",
        "bytes_moved",
        "B/region",
        "time",
        "regions",
    ]);
    for genes in [100usize, 400, 1200] {
        let mut federation = Federation::new();
        // polimi owns the (large) experiment data.
        let mut polimi = FederationNode::new("polimi", 2);
        let mut encode = generate_encode(
            &genome,
            &EncodeConfig {
                samples: 8,
                mean_peaks_per_sample: 4_000.0,
                seed: 11,
                ..Default::default()
            },
        );
        encode.name = "ENCODE".into();
        let mut local = GmqlEngine::with_workers(2);
        local.register(encode.clone());
        polimi.own(encode);
        federation.add_node(polimi);
        // broad owns the (smaller) annotation.
        let mut broad = FederationNode::new("broad", 2);
        let (mut ann, _) = generate_annotations(
            &genome,
            &AnnotationConfig { genes, seed: 5, ..Default::default() },
        );
        ann.name = "ANNOTATIONS".into();
        let shipped_regions = ann.region_count();
        local.register(ann.clone());
        broad.own(ann);
        federation.add_node(broad);

        let t0 = Instant::now();
        let (out, plan, log) =
            federation.execute_distributed(QUERY, 64 * 1024).expect("distributed run");
        let elapsed = t0.elapsed();
        let moved_regions = 2 * shipped_regions + out["HOT"].region_count();
        table.row(&[
            genes.to_string(),
            plan.host.clone(),
            plan.shipped
                .iter()
                .map(|(d, owner)| format!("{d}<-{owner}"))
                .collect::<Vec<_>>()
                .join(","),
            human_bytes(log.total()),
            format!("{:.1}", log.total() as f64 / moved_regions as f64),
            format!("{elapsed:.2?}"),
            out["HOT"].region_count().to_string(),
        ]);
        assert_eq!(plan.host, "polimi", "execution follows the big data");
        let expected = &local.run(QUERY).expect("local run")["HOT"];
        assert_eq!(out["HOT"].sample_count(), expected.sample_count());
        for (got, want) in out["HOT"].samples.iter().zip(&expected.samples) {
            assert_eq!(got.regions, want.regions, "distributed equals local");
            assert_eq!(got.metadata, want.metadata, "distributed equals local");
        }
    }
    println!("{}", table.render());
    println!(
        "placement follows the data: the annotation (small) travels as a private upload;\n\
         the experiments (large) never move — §4.4's \"distributing the processing to data\"."
    );
}
