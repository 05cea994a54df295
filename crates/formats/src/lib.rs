//! # `nggc-formats` — interoperability with genomic file formats
//!
//! GDM's goal is to "guarantee interoperability between existing data
//! formats" (paper abstract): every processed-data format maps onto
//! regions + schema + metadata. This crate implements parsers and writers
//! for the formats the paper's scenarios touch:
//!
//! | Format | Module | GDM mapping |
//! |---|---|---|
//! | BED 3–6 (+extra columns) | [`bed`] | `name: string`, `score: float`, extra typed |
//! | ENCODE narrowPeak / broadPeak | [`peak`] | peak-calling attributes incl. `p_value` |
//! | GTF annotations | [`gtf`] | `source, feature, score, frame, gene_id, transcript_id` |
//! | VCF-lite variants | [`vcf`] | `id, ref, alt, qual, filter, info`; 1 bp SNVs |
//! | GFF3 annotations | [`gff3`] | GTF columns + `id, name, parent` hierarchy |
//! | bedGraph signals | [`bedgraph`] | single `signal: float` |
//! | WIG signals | [`wig`] | fixed/variable step → `signal: float` regions |
//! | GDM native v1 | [`native`] | schema file + per-sample region/`.meta` text files |
//! | GDM native v2 | [`native_v2`] | binary columnar container with per-chromosome index |
//!
//! [`detect::FileFormat`] dispatches by extension, so mixed directories
//! load uniformly.

#![warn(missing_docs)]

pub mod bed;
pub mod bedgraph;
pub mod detect;
pub mod error;
pub mod gff3;
pub mod gtf;
pub mod loader;
pub mod native;
pub mod native_v2;
pub mod peak;
pub mod vcf;
pub mod wig;

pub use bed::{parse_bed, write_bed, BedOptions};
pub use bedgraph::{bedgraph_schema, parse_bedgraph, write_bedgraph};
pub use detect::FileFormat;
pub use error::FormatError;
pub use gff3::{gff3_schema, parse_gff3, write_gff3};
pub use gtf::{gtf_schema, parse_gtf, write_gtf};
pub use loader::{load_directory, LoadReport};
pub use native::{read_dataset, write_dataset};
pub use native_v2::{detect_version, read_dataset_auto, ScanOptions, ScanStats, StorageVersion};
pub use peak::{parse_peaks, write_peaks, PeakKind};
pub use vcf::{parse_vcf, vcf_schema, write_vcf};
pub use wig::{parse_wig, wig_schema};
