//! MAP, JOIN, the COVER family, MERGE and GROUP write their outputs as
//! columnar batches, and nothing downstream of them on serve's path or
//! the CLI's turns those batches into rows: over resident inputs the
//! process-wide `nggc_gdm::rows_built` count stays where it was.
//!
//! The count is process-wide, so this file is a test binary of its own
//! with one test in it.

use nggc::engine::ExecContext;
use nggc::gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, Value, ValueType};
use nggc::repository::{Repository, ResultStore};
use nggc::server::{Client, Request, ServeConfig, Server, ServerReply, Session, Tier};
use std::convert::Infallible;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nggc_columnar_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Three replicas of peaks with a text and a numeric column over two
/// chromosomes, overlapping so COVER(2, ANY) keeps regions, and one
/// sample of genes near them.
fn datasets() -> [Dataset; 2] {
    let schema = Schema::new(vec![
        Attribute::new("name", ValueType::Str),
        Attribute::new("score", ValueType::Float),
    ])
    .unwrap();
    let mut peaks = Dataset::new("PEAKS", schema);
    for (k, cell) in ["HeLa", "HeLa", "K562"].into_iter().enumerate() {
        let regions = ["chr1", "chr2"]
            .into_iter()
            .flat_map(|chrom| {
                (0..40u64).map(move |i| {
                    let left = i * 500 + k as u64 * 60;
                    let score = if i % 4 == 0 { Value::Null } else { Value::Float(i as f64) };
                    GRegion::new(chrom, left, left + 200, Strand::Pos)
                        .with_values(vec![Value::Str(format!("p{k}_{i}")), score])
                })
            })
            .collect();
        let metadata = Metadata::from_pairs([("cell", cell)]);
        let sample = Sample::new(format!("rep{k}"), "PEAKS").with_regions(regions);
        peaks.add_sample(sample.with_metadata(metadata)).unwrap();
    }
    let schema = Schema::new(vec![Attribute::new("gene", ValueType::Str)]).unwrap();
    let mut genes = Dataset::new("GENES", schema);
    let regions = (0..10u64)
        .map(|i| {
            GRegion::new("chr1", i * 2_000 + 900, i * 2_000 + 1_400, Strand::Neg)
                .with_values(vec![Value::Str(format!("G{i}"))])
        })
        .collect();
    genes.add_sample(Sample::new("genes", "GENES").with_regions(regions)).unwrap();
    [peaks, genes]
}

const QUERIES: [&str; 6] = [
    "R = MAP(n AS COUNT, top AS MAX(score)) GENES PEAKS; MATERIALIZE R;",
    "R = JOIN(DLE(1000); output: LEFT) GENES PEAKS; MATERIALIZE R;",
    "R = HISTOGRAM(2, ANY) PEAKS; MATERIALIZE R;",
    "R = COVER(2, ANY) PEAKS; MATERIALIZE R;",
    "R = MERGE(groupby: cell) PEAKS; MATERIALIZE R;",
    "R = GROUP(cell; aggregate: n AS COUNT, top AS MAX(score)) PEAKS; MATERIALIZE R;",
];

/// Full reads of both datasets, as serve's warm-up makes them resident.
const WARM_UP: [&str; 2] = [
    "X = SELECT(region: left >= 0) PEAKS; MATERIALIZE X;",
    "X = SELECT(region: left >= 0) GENES; MATERIALIZE X;",
];

#[test]
fn join_cover_merge_and_group_outputs_reach_serve_and_the_cli_without_rows() {
    let root = tmp("rows");
    let mut repo = Repository::open(&root).unwrap();
    for ds in datasets() {
        repo.save(&ds).unwrap();
    }
    drop(repo);

    // Serve's path: each query a miss through `Session::run` with the
    // memory tier, its reply rendered with 20 head rows; then a hit.
    let server = Server::bind(
        "127.0.0.1:0",
        Repository::open(&root).unwrap(),
        ServeConfig { workers: 2, ..ServeConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();
    for text in WARM_UP {
        assert!(matches!(client.query(text, None, None, 0).unwrap(), ServerReply::Result { .. }));
    }
    let before = nggc::gdm::rows_built();
    for text in QUERIES {
        for _ in 0..2 {
            match client.query(text, None, None, 20).unwrap() {
                ServerReply::Result { outputs, .. } => {
                    assert!(outputs[0].regions > 0, "{text}: {outputs:?}");
                    assert_eq!(outputs[0].head.len(), outputs[0].regions.min(20), "{text}");
                }
                other => panic!("{text}: {other:?}"),
            }
        }
        assert_eq!(nggc::gdm::rows_built(), before, "{text} through serve built rows");
    }
    handle.shutdown();
    runner.join().unwrap().unwrap();

    // The CLI's path: the on-disk result store on, a miss then a hit,
    // and what `nggc query --head 5` prints of the outputs.
    let session =
        Session::new(Repository::open(&root).unwrap(), ExecContext::with_workers(2), "test", None);
    let store = ResultStore::open(root.join("result_cache"), 64 << 20);
    let run = |text: &str, tier: Tier<'_>| {
        let request =
            Request { text, tier, admit: || Ok::<_, Infallible>((None, ())), register: |_| () };
        session.run(request).unwrap().outputs.unwrap()
    };
    for text in WARM_UP {
        run(text, Tier::None);
    }
    let before = nggc::gdm::rows_built();
    for text in QUERIES {
        for round in 0..2 {
            let outputs = run(text, Tier::Disk(&store));
            let ds = &outputs["R"];
            if round == 0 {
                // The miss's own outputs: columns, not rows.
                assert!(ds.samples.iter().any(|s| s.regions.batch().is_some()), "{text}");
            }
            let mut printed = format!("{}\n{}\n", ds.schema, ds.stats());
            for s in ds.samples.iter().take(5) {
                for r in s.regions.each_row().take(5) {
                    printed.push_str(&format!("    {r}\n"));
                }
            }
            assert!(printed.lines().count() > 2, "{text}: {printed}");
        }
        assert_eq!(nggc::gdm::rows_built(), before, "{text} through the CLI's path built rows");
    }
    drop(session);
    std::fs::remove_dir_all(&root).ok();
}
