//! What the federation puts on the wire: every dataset crosses as a v2
//! container, so cells arrive bit for bit, a flipped byte is a checksum
//! error, and a shipped result starts its lineage at the node's output.
//! A result is one byte stream: the on-disk result store keeps the very
//! bytes a node stages.

use nggc::federation::{
    Federation, FederationError, FederationNode, NodeService, Request, Response,
};
use nggc::gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, Value, ValueType};
use nggc::gmql::GmqlEngine;
use nggc::repository::{encode_dataset_v2, encode_outputs, ResultStore};
use std::collections::HashMap;

const ODD_FLOATS: [f64; 5] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 1.5];

/// One sample whose float column holds every value JSON cannot carry.
fn odd_floats() -> Dataset {
    let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
    let mut ds = Dataset::new("ODD", schema);
    let regions = ODD_FLOATS
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let left = i as u64 * 100;
            GRegion::new("chr1", left, left + 50, Strand::Pos).with_values(vec![Value::Float(p)])
        })
        .collect();
    ds.add_sample(
        Sample::new("odd", "ODD")
            .with_regions(regions)
            .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
    )
    .unwrap();
    ds
}

/// A plain dataset larger than [`odd_floats`], so a distributed query
/// over both runs where this one lives.
fn peaks() -> Dataset {
    let schema = Schema::new(vec![Attribute::new("score", ValueType::Int)]).unwrap();
    let mut ds = Dataset::new("PEAKS", schema);
    for s in 0..2 {
        let regions = (0..40u64)
            .map(|j| {
                GRegion::new("chr2", j * 1000, j * 1000 + 300, Strand::Unstranded)
                    .with_values(vec![Value::Int(j as i64)])
            })
            .collect();
        ds.add_sample(Sample::new(format!("p{s}"), "PEAKS").with_regions(regions)).unwrap();
    }
    ds
}

/// Every float cell of `ds`, as bits, sample by sample.
fn float_bits(ds: &Dataset) -> Vec<Vec<u64>> {
    ds.samples
        .iter()
        .map(|s| {
            s.regions
                .iter()
                .flat_map(|r| &r.values)
                .map(|v| match v {
                    Value::Float(f) => f.to_bits(),
                    other => panic!("not a float: {other:?}"),
                })
                .collect()
        })
        .collect()
}

fn local(query: &str) -> HashMap<String, Dataset> {
    let mut engine = GmqlEngine::with_workers(1);
    engine.register(odd_floats());
    engine.register(peaks());
    engine.run(query).unwrap()
}

const SELECT_ODD: &str = "X = SELECT(cell == 'HeLa') ODD; MATERIALIZE X;";

#[test]
fn non_finite_floats_survive_every_shipping_path() {
    let expected = float_bits(&local(SELECT_ODD)["X"]);
    assert_eq!(expected[0], ODD_FLOATS.map(f64::to_bits), "the local run keeps every value");

    let mut fed = Federation::new();
    let mut node = FederationNode::new("remote", 1);
    node.own(odd_floats());
    fed.add_node(node);
    let (shipped, _) = fed.ship_query("remote", SELECT_ODD, 4096).unwrap();
    assert_eq!(float_bits(&shipped["X"]), expected, "ship-query");
    let (fetched, _) = fed.ship_data("remote", &["ODD"], SELECT_ODD, 1).unwrap();
    assert_eq!(float_bits(&fetched["X"]), expected, "ship-data");

    // ODD lives apart from the larger PEAKS, so it travels to PEAKS's
    // node as FetchDataset, then Upload.
    let mut fed = Federation::new();
    let mut big = FederationNode::new("big", 1);
    big.own(peaks());
    fed.add_node(big);
    let mut small = FederationNode::new("small", 1);
    small.own(odd_floats());
    fed.add_node(small);
    let query = "X = SELECT(cell == 'HeLa') ODD; Y = SELECT() PEAKS; MATERIALIZE X; MATERIALIZE Y;";
    let (out, plan, _) = fed.execute_distributed(query, 4096).unwrap();
    assert_eq!(plan.shipped, vec![("ODD".to_owned(), "small".to_owned())]);
    assert_eq!(float_bits(&out["X"]), float_bits(&local(query)["X"]), "distributed");
}

/// A node that flips the byte just before the CRC trailer of every
/// container it sends: inside the container, never in a length prefix.
struct Flipper(FederationNode);

fn flip_before_trailer(data: &mut [u8]) {
    let n = data.len();
    data[n - 5] ^= 0x5A;
}

impl NodeService for Flipper {
    fn id(&self) -> &str {
        &self.0.id
    }

    fn serve(&mut self, request: &Request) -> Option<Response> {
        let mut response = self.0.handle(request);
        if let Response::Chunk { data, .. } | Response::WholeDataset { data } = &mut response {
            flip_before_trailer(data);
        }
        Some(response)
    }
}

fn flipping_federation() -> Federation {
    let mut node = FederationNode::new("flip", 1);
    node.own(odd_floats());
    let mut fed = Federation::new();
    fed.add_node(Flipper(node));
    fed
}

fn assert_checksum_error(err: FederationError) {
    match err {
        FederationError::Protocol(msg) => {
            assert!(msg.contains("checksum mismatch"), "not a checksum error: {msg}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn a_flipped_byte_in_a_staged_chunk_is_a_checksum_error() {
    let fed = flipping_federation();
    assert_checksum_error(fed.ship_query("flip", SELECT_ODD, 4096).unwrap_err());
    assert_eq!(fed.staged_results("flip").unwrap(), 0, "the ticket was still released");
}

#[test]
fn a_flipped_byte_in_a_whole_dataset_is_a_checksum_error() {
    let fed = flipping_federation();
    assert_checksum_error(fed.ship_data("flip", &["ODD"], SELECT_ODD, 1).unwrap_err());
}

#[test]
fn a_flipped_byte_in_an_upload_is_refused_by_the_node() {
    let mut node = FederationNode::new("n", 1);
    let mut data = encode_dataset_v2(&odd_floats()).unwrap();
    flip_before_trailer(&mut data);
    match node.handle(&Request::Upload { name: "MINE".to_owned(), data }) {
        Response::Error(msg) => assert!(msg.contains("checksum mismatch"), "{msg}"),
        other => panic!("expected an error, got {other:?}"),
    }
    assert!(node.uploads().is_empty(), "nothing was registered");
}

#[test]
fn a_shipped_result_starts_its_lineage_at_the_output() {
    let mut fed = Federation::new();
    let mut node = FederationNode::new("remote", 1);
    node.own(odd_floats());
    fed.add_node(node);
    let (out, _) = fed.ship_query("remote", SELECT_ODD, 4096).unwrap();
    let sample = &out["X"].samples[0];
    // The container carries no provenance: the node's SELECT over ODD
    // is not visible, the lineage begins at the output it shipped.
    assert_eq!(sample.provenance.sources(), vec![("X".to_owned(), sample.name.clone())]);
    assert!(sample.provenance.operator_chain().is_empty());
}

#[test]
fn a_result_store_entry_holds_the_bytes_a_node_stages() {
    let query = "Y = SELECT() PEAKS; X = SELECT(cell == 'HeLa') ODD; MATERIALIZE Y; MATERIALIZE X;";
    let mut node = FederationNode::new("remote", 1);
    node.own(odd_floats());
    node.own(peaks());
    let (ticket, chunks) =
        match node.handle(&Request::Execute { query: query.into(), chunk_bytes: 1024 }) {
            Response::Accepted { ticket, chunks, .. } => (ticket, chunks),
            other => panic!("{other:?}"),
        };
    let mut staged = Vec::new();
    for chunk in 0..chunks {
        match node.handle(&Request::FetchChunk { ticket, chunk }) {
            Response::Chunk { data, .. } => staged.extend(data),
            other => panic!("{other:?}"),
        }
    }
    let outputs = local(query);
    assert_eq!(encode_outputs(&outputs).unwrap(), staged);

    let dir = std::env::temp_dir().join(format!("nggc_wire_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ResultStore::open(&dir, 1 << 20);
    store.store(0xfeed, &[("ODD".into(), 1), ("PEAKS".into(), 1)], &outputs).unwrap();
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "an entry is one file");
    let entry = std::fs::read(&files[0]).unwrap();
    // A header naming two sources, then the staged payload byte for byte.
    assert!(entry.ends_with(&staged));
    assert!(entry.len() - staged.len() < 64, "{} header bytes", entry.len() - staged.len());
    let back = store.lookup(0xfeed, &|_| Some(1)).expect("the entry hits");
    assert_eq!(float_bits(&back["X"]), float_bits(&outputs["X"]));
    std::fs::remove_dir_all(&dir).ok();
}
