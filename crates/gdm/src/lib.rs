//! # `nggc-gdm` — the Genomic Data Model
//!
//! Implementation of **GDM**, the data model proposed in *"Data Management
//! for Next Generation Genomic Computing"* (Ceri et al., EDBT 2016, §2).
//!
//! GDM rests on two entities:
//!
//! * **Genomic regions** ([`GRegion`]) — rows of a normalized schema whose
//!   fixed attributes are the sample identifier and the region coordinates
//!   (`chr`, `left`, `right`, `strand`), followed by typed variable
//!   attributes reflecting the calling process that produced the data
//!   (peaks, mutations, signals, loops, break points…).
//! * **Metadata** ([`Metadata`]) — arbitrary, semi-structured
//!   attribute–value pairs extended into triples by the sample identifier.
//!
//! Samples ([`Sample`]) tie the two together; a [`Dataset`] groups samples
//! under one shared region [`Schema`] (the single GDM constraint), and
//! [`Schema::merge`] implements the *schema merging* that gives
//! interoperability across heterogeneous processed-data formats.
//! Every sample also carries a [`Provenance`] lineage tree — tracing why
//! result regions were produced is a distinguishing feature of the
//! approach.
//!
//! ## Example: the Figure-2 PEAKS dataset
//!
//! ```
//! use nggc_gdm::*;
//!
//! let schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
//! let mut peaks = Dataset::new("PEAKS", schema);
//!
//! let s1 = Sample::new("sample_1", "PEAKS")
//!     .with_regions(vec![
//!         GRegion::new("chr1", 2940, 3400, Strand::Pos).with_values(vec![0.0001.into()]),
//!         GRegion::new("chr1", 6120, 7030, Strand::Neg).with_values(vec![0.00005.into()]),
//!     ])
//!     .with_metadata(Metadata::from_pairs([("karyotype", "cancer"), ("organism", "human")]));
//! peaks.add_sample(s1).unwrap();
//!
//! assert_eq!(peaks.sample_count(), 1);
//! peaks.validate().unwrap();
//! ```

#![warn(missing_docs)]

pub mod coords;
pub mod dataset;
pub mod error;
pub mod metadata;
pub mod provenance;
pub mod region;
pub mod sample;
pub mod schema;
pub mod value;

pub use coords::{genome_order, Chrom, ChromInterner, Strand};
pub use dataset::{Dataset, DatasetStats};
pub use error::GdmError;
pub use metadata::Metadata;
pub use provenance::Provenance;
pub use region::{interval_overlap, GRegion};
pub use sample::{Sample, SampleId};
pub use schema::{Attribute, MergedSchema, Schema, FIXED_ATTRIBUTES};
pub use value::{Value, ValueParseError, ValueType};
