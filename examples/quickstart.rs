//! Quickstart: the paper's Figure 2 dataset and §2 example query.
//!
//! Builds the exact PEAKS instance of Figure 2 (two ChIP-seq samples with
//! a `p_value` attribute, metadata incl. `karyotype: cancer` and
//! `sex: female`), persists it in the GDM native format, and runs the
//! paper's three-operation MAP query over a small promoter annotation.
//!
//! Run with: `cargo run --example quickstart`

use nggc::formats::native;
use nggc::gdm::*;
use nggc::gmql::GmqlEngine;

fn main() {
    // ---- Figure 2: the PEAKS dataset ------------------------------------
    let peaks_schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
    let mut peaks = Dataset::new("PEAKS", peaks_schema);

    // Sample 1: five stranded regions, karyotype "cancer".
    peaks
        .add_sample(
            Sample::new("sample_1", "PEAKS")
                .with_regions(vec![
                    GRegion::new("chr1", 2940, 3400, Strand::Pos).with_values(vec![0.0001.into()]),
                    GRegion::new("chr1", 6120, 7030, Strand::Neg).with_values(vec![0.00005.into()]),
                    GRegion::new("chr1", 9140, 10400, Strand::Pos).with_values(vec![0.0003.into()]),
                    GRegion::new("chr2", 120, 680, Strand::Pos).with_values(vec![0.00002.into()]),
                    GRegion::new("chr2", 830, 1070, Strand::Neg).with_values(vec![0.0007.into()]),
                ])
                .with_metadata(Metadata::from_pairs([
                    ("antibody_target", "CTCF"),
                    ("karyotype", "cancer"),
                    ("organism", "Homo sapiens"),
                    ("dataType", "ChipSeq"),
                ])),
        )
        .unwrap();

    // Sample 2: four unstranded regions, taken from a female donor.
    peaks
        .add_sample(
            Sample::new("sample_2", "PEAKS")
                .with_regions(vec![
                    GRegion::new("chr1", 886, 1456, Strand::Unstranded)
                        .with_values(vec![0.0004.into()]),
                    GRegion::new("chr1", 1860, 2430, Strand::Unstranded)
                        .with_values(vec![0.0001.into()]),
                    GRegion::new("chr2", 400, 960, Strand::Unstranded)
                        .with_values(vec![0.0005.into()]),
                    GRegion::new("chr2", 1800, 2400, Strand::Unstranded)
                        .with_values(vec![0.00006.into()]),
                ])
                .with_metadata(Metadata::from_pairs([
                    ("antibody_target", "CTCF"),
                    ("sex", "female"),
                    ("dataType", "ChipSeq"),
                ])),
        )
        .unwrap();
    peaks.validate().expect("Figure-2 dataset satisfies the GDM constraints");

    println!("== Figure 2: PEAKS dataset ==");
    println!("{}", peaks.stats());
    for s in &peaks.samples {
        println!("  {} ({} regions)", s.name, s.region_count());
        for r in s.regions.iter() {
            println!("    {r}");
        }
    }

    // Persist in the GDM native layout and read it back.
    let dir = std::env::temp_dir().join("nggc_quickstart").join("PEAKS");
    native::write_dataset(&peaks, &dir).expect("write native dataset");
    let reloaded = native::read_dataset(&dir).expect("read native dataset");
    assert_eq!(reloaded.region_count(), peaks.region_count());
    println!("\nround-tripped through {} ✓", dir.display());

    // ---- Annotations: a miniature UCSC sample -----------------------------
    let ann_schema = Schema::new(vec![Attribute::new("annType", ValueType::Str)]).unwrap();
    let mut annotations = Dataset::new("ANNOTATIONS", ann_schema);
    annotations
        .add_sample(
            Sample::new("ucsc", "ANNOTATIONS")
                .with_regions(vec![
                    GRegion::new("chr1", 2500, 3500, Strand::Unstranded)
                        .with_values(vec!["promoter".into()]),
                    GRegion::new("chr1", 6000, 7500, Strand::Unstranded)
                        .with_values(vec!["promoter".into()]),
                    GRegion::new("chr2", 0, 1000, Strand::Unstranded)
                        .with_values(vec!["promoter".into()]),
                    GRegion::new("chr2", 1500, 2000, Strand::Unstranded)
                        .with_values(vec!["enhancer".into()]),
                ])
                .with_metadata(Metadata::from_pairs([("source", "UCSC")])),
        )
        .unwrap();

    // ---- The paper's §2 query, verbatim shape ------------------------------
    let mut engine = GmqlEngine::with_workers(4);
    engine.register(annotations);
    engine.register(peaks);

    let query = "
        PROMS  = SELECT(region: annType == 'promoter') ANNOTATIONS;
        PEAKS2 = SELECT(dataType == 'ChipSeq') PEAKS;
        RESULT = MAP(peak_count AS COUNT) PROMS PEAKS2;
        MATERIALIZE RESULT;
    ";
    println!("\n== GMQL query ==\n{query}");
    let (plan, optimized, report) = engine.explain(query).unwrap();
    println!("-- logical plan --\n{plan}");
    println!("-- optimized ({report:?}) --\n{optimized}");

    let out = engine.run(query).unwrap();
    let result = &out["RESULT"];
    println!("== RESULT: one sample per (reference, experiment) pair ==");
    for s in &result.samples {
        println!("  {}", s.name);
        for r in s.regions.iter() {
            println!("    {r}");
        }
        println!("    provenance:\n{}", indent(&s.provenance.to_string(), 6));
    }
    assert_eq!(result.sample_count(), 2);
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines().map(|l| format!("{pad}{l}")).collect::<Vec<_>>().join("\n")
}
