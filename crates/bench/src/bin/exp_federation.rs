//! **E7** — federation: ship-query vs ship-data (§4.4).
//!
//! The paper claims GMQL queries over a federation "are short texts and
//! produce short answers", so moving the query to the data beats today's
//! full-data-transmission practice. This binary quantifies that on a
//! three-node federation at growing data sizes: bytes moved and wall
//! time for both strategies, plus the cost of remote compilation with
//! size estimates (which moves only protocol-sized messages). Both
//! strategies ship datasets as v2 containers, so `data_B/region` is the
//! container's density: ship-data's bytes over the regions it fetched.
//!
//! Usage: `exp_federation [samples_per_node]` (default 8).

use nggc_bench::{human_bytes, Table};
use nggc_federation::{Federation, FederationNode, TransferLog};
use nggc_synth::{generate_annotations, generate_encode, AnnotationConfig, EncodeConfig, Genome};
use std::time::Instant;

const QUERY: &str = "
    PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
    PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
    R     = MAP(peak_count AS COUNT) PROMS PEAKS;
    HOT   = SELECT(region: peak_count >= 3) R;
    MATERIALIZE HOT;
";

fn main() {
    let samples: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let genome = Genome::human(0.004);
    println!("== E7: ship-query vs ship-data over a 3-node federation ==\n");

    let mut table = Table::new(&[
        "polimi_peaks",
        "query_bytes",
        "data_bytes",
        "byte_ratio",
        "data_B/region",
        "query_time",
        "data_time",
    ]);
    for mean_peaks in [500.0, 2_000.0, 8_000.0] {
        let mut federation = Federation::new();
        // polimi is the node both strategies talk to: its peaks, and the
        // regions ship-data fetches from it (ENCODE and ANNOTATIONS).
        let (mut polimi_peaks, mut fetched_regions) = (0, 0);
        for (i, id) in ["polimi", "broad", "sanger"].iter().enumerate() {
            let mut node = FederationNode::new(*id, 2);
            let mut encode = generate_encode(
                &genome,
                &EncodeConfig {
                    samples,
                    mean_peaks_per_sample: mean_peaks,
                    seed: i as u64 + 1,
                    ..Default::default()
                },
            );
            encode.name = "ENCODE".into();
            let peaks = encode.region_count();
            node.own(encode);
            let (mut ann, _) = generate_annotations(
                &genome,
                &AnnotationConfig { genes: 200, seed: 77, ..Default::default() },
            );
            ann.name = "ANNOTATIONS".into();
            if i == 0 {
                (polimi_peaks, fetched_regions) = (peaks, peaks + ann.region_count());
            }
            node.own(ann);
            federation.add_node(node);
        }

        // Compile first: correctness + estimates, tiny transfer.
        let mut clog = TransferLog::default();
        let estimates = federation.compile_remote("polimi", QUERY, &mut clog).expect("compiles");
        assert!(!estimates.is_empty());

        let t0 = Instant::now();
        let (q_out, q_log) = federation.ship_query("polimi", QUERY, 64 * 1024).expect("ship-query");
        let q_time = t0.elapsed();

        let t0 = Instant::now();
        let (d_out, d_log) = federation
            .ship_data("polimi", &["ANNOTATIONS", "ENCODE"], QUERY, 2)
            .expect("ship-data");
        let d_time = t0.elapsed();

        let (q_hot, d_hot) = (&q_out["HOT"], &d_out["HOT"]);
        assert_eq!(q_hot.sample_count(), d_hot.sample_count());
        for (q, d) in q_hot.samples.iter().zip(&d_hot.samples) {
            assert_eq!(q.regions, d.regions, "both strategies give the same regions");
            assert_eq!(q.metadata, d.metadata, "both strategies give the same metadata");
        }
        table.row(&[
            polimi_peaks.to_string(),
            human_bytes(q_log.total()),
            human_bytes(d_log.total()),
            format!("{:.1}x", d_log.total() as f64 / q_log.total().max(1) as f64),
            format!("{:.1}", d_log.total() as f64 / fetched_regions as f64),
            format!("{q_time:.2?}"),
            format!("{d_time:.2?}"),
        ]);
    }
    println!("{}", table.render());
    println!("remote compilation (schemas + size estimates) moves <1 KiB per query.");
}
