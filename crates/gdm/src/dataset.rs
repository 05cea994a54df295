//! Datasets: named collections of samples sharing a region schema.
//!
//! "Data samples can be included into a named dataset when their genomic
//! regions have the same schema" (paper §2) — the single integrity
//! constraint of GDM. [`Dataset::validate`] enforces it together with the
//! genome-order invariant of every sample.

use crate::error::GdmError;
use crate::sample::{Sample, SampleId};
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A GDM dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// The shared variable-attribute schema of all samples' regions.
    pub schema: Schema,
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new(name: impl Into<String>, schema: Schema) -> Dataset {
        Dataset { name: name.into(), schema, samples: Vec::new() }
    }

    /// Add a sample after validating its rows against the schema.
    pub fn add_sample(&mut self, sample: Sample) -> Result<(), GdmError> {
        sample.regions.check(&self.schema)?;
        self.samples.push(sample);
        Ok(())
    }

    /// Add a sample without row validation (for operators that construct
    /// rows already known to match). Debug builds still assert.
    pub fn add_sample_unchecked(&mut self, sample: Sample) {
        debug_assert!(
            sample.regions.check(&self.schema).is_ok(),
            "sample rows violate dataset schema"
        );
        self.samples.push(sample);
    }

    /// Full integrity check: every region row matches the schema and every
    /// sample is in genome order. This is the GDM dataset constraint.
    pub fn validate(&self) -> Result<(), GdmError> {
        for s in &self.samples {
            if !s.is_sorted() {
                return Err(GdmError::UnsortedSample(s.name.clone()));
            }
            s.regions.check(&self.schema).map_err(|e| match e {
                GdmError::ArityMismatch { expected, got } => GdmError::SampleSchemaMismatch {
                    sample: s.name.clone(),
                    reason: format!("row arity {got}, schema arity {expected}"),
                },
                GdmError::TypeMismatch { attribute, expected, got } => {
                    GdmError::SampleSchemaMismatch {
                        sample: s.name.clone(),
                        reason: format!("attribute {attribute}: expected {expected}, got {got}"),
                    }
                }
                other => other,
            })?;
        }
        Ok(())
    }

    /// Number of samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Total region count across samples.
    pub fn region_count(&self) -> usize {
        self.samples.iter().map(Sample::region_count).sum()
    }

    /// Look up a sample by ID.
    pub fn sample(&self, id: SampleId) -> Option<&Sample> {
        self.samples.iter().find(|s| s.id == id)
    }

    /// Look up a sample by name.
    pub fn sample_by_name(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Approximate serialized size in bytes — the quantity the paper's
    /// §2 experiment reports ("producing as result 29 GB of data") and the
    /// federation protocol estimates before transfer (§4.4).
    pub fn encoded_size(&self) -> usize {
        self.samples.iter().map(Sample::encoded_size).sum()
    }

    /// Summary statistics used by logging and the repository catalog.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            samples: self.sample_count(),
            regions: self.region_count(),
            bytes: self.encoded_size(),
            meta_pairs: self.samples.iter().map(|s| s.metadata.len()).sum(),
        }
    }
}

/// Cardinality summary of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of samples.
    pub samples: usize,
    /// Total regions across samples.
    pub regions: usize,
    /// Approximate serialized bytes.
    pub bytes: usize,
    /// Total metadata attribute–value pairs.
    pub meta_pairs: usize,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, {} regions, {} metadata pairs, ~{} bytes",
            self.samples, self.regions, self.meta_pairs, self.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Strand;
    use crate::region::GRegion;
    use crate::schema::Attribute;
    use crate::value::{Value, ValueType};

    fn peaks_schema() -> Schema {
        Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap()
    }

    fn peak(c: &str, l: u64, r: u64, p: f64) -> GRegion {
        GRegion::new(c, l, r, Strand::Unstranded).with_values(vec![Value::Float(p)])
    }

    #[test]
    fn add_sample_validates_rows() {
        let mut ds = Dataset::new("PEAKS", peaks_schema());
        let good = Sample::new("s1", "PEAKS").with_regions(vec![peak("chr1", 0, 10, 0.01)]);
        ds.add_sample(good).unwrap();
        let bad =
            Sample::new("s2", "PEAKS")
                .with_regions(vec![GRegion::new("chr1", 0, 5, Strand::Pos)
                    .with_values(vec![Value::Str("x".into())])]);
        assert!(ds.add_sample(bad).is_err());
        assert_eq!(ds.sample_count(), 1);
    }

    #[test]
    fn validate_detects_unsorted() {
        let mut ds = Dataset::new("D", peaks_schema());
        let mut s = Sample::new("s", "D");
        s.regions = vec![peak("chr2", 0, 5, 0.1), peak("chr1", 0, 5, 0.1)].into(); // not sorted
        ds.samples.push(s);
        assert!(matches!(ds.validate(), Err(GdmError::UnsortedSample(_))));
    }

    #[test]
    fn validate_reports_schema_mismatch_with_sample() {
        let mut ds = Dataset::new("D", peaks_schema());
        let mut s = Sample::new("s", "D");
        s.regions = vec![GRegion::new("chr1", 0, 5, Strand::Pos)].into(); // arity 0 != 1
        ds.samples.push(s);
        match ds.validate() {
            Err(GdmError::SampleSchemaMismatch { sample, .. }) => assert_eq!(sample, "s"),
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn stats_and_lookup() {
        let mut ds = Dataset::new("D", peaks_schema());
        let s1 = Sample::new("a", "D").with_regions(vec![peak("chr1", 0, 10, 0.5)]);
        let id = s1.id;
        ds.add_sample(s1).unwrap();
        ds.add_sample(Sample::new("b", "D").with_regions(vec![peak("chr1", 5, 9, 0.1)])).unwrap();
        assert_eq!(ds.region_count(), 2);
        assert_eq!(ds.sample(id).unwrap().name, "a");
        assert_eq!(ds.sample_by_name("b").unwrap().region_count(), 1);
        let st = ds.stats();
        assert_eq!(st.samples, 2);
        assert!(st.bytes > 0);
    }
}
