//! Genome spaces: the regions × experiments matrix of Figure 4.
//!
//! "Every map operation produces what we call a genome space, i.e., a
//! tabular space of regions vs. experiments, which is the starting point
//! for data analysis" (§4.1). A MAP result dataset has one sample per
//! (reference, experiment) pair, each carrying the same reference
//! regions; stacking one aggregate attribute across samples yields the
//! matrix.

use nggc_gdm::{Chrom, Dataset, RegionRow, Regions, Strand, ValueRef};
use std::fmt;

/// A region's identity within a genome space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegionKey {
    /// Chromosome.
    pub chrom: Chrom,
    /// Left end.
    pub left: u64,
    /// Right end.
    pub right: u64,
    /// Strand.
    pub strand: Strand,
    /// Optional label (e.g. gene name) taken from a string attribute.
    pub label: Option<String>,
}

impl fmt::Display for RegionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            Some(l) => write!(f, "{l}"),
            None => write!(f, "{}:{}-{}", self.chrom, self.left, self.right),
        }
    }
}

/// The regions × experiments matrix.
#[derive(Debug, Clone)]
pub struct GenomeSpace {
    /// Row identities (reference regions).
    pub regions: Vec<RegionKey>,
    /// Column identities (experiment sample names).
    pub experiments: Vec<String>,
    /// Row-major values; `values[r][c]` is region `r` in experiment `c`.
    pub values: Vec<Vec<f64>>,
}

/// Errors building a genome space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenomeSpaceError {
    /// The dataset has no samples.
    Empty,
    /// The named attribute is missing or non-numeric.
    BadAttribute(String),
    /// Samples disagree on their reference regions.
    RaggedSamples {
        /// Offending sample name.
        sample: String,
    },
}

impl fmt::Display for GenomeSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenomeSpaceError::Empty => write!(f, "dataset has no samples"),
            GenomeSpaceError::BadAttribute(a) => {
                write!(f, "attribute {a:?} missing or non-numeric")
            }
            GenomeSpaceError::RaggedSamples { sample } => {
                write!(f, "sample {sample:?} disagrees on reference regions")
            }
        }
    }
}

impl std::error::Error for GenomeSpaceError {}

/// `f` of each region of `regions` with its position, in order, read in
/// place: from the columns of a batch-backed buffer, whose rows stay
/// unbuilt, else from the rows.
fn read<T, C: FromIterator<T>>(regions: &Regions, f: impl Fn(usize, &dyn RegionRow) -> T) -> C {
    match regions.batch() {
        Some(batch) => batch.rows_in(0..batch.len()).map(|r| f(r.index(), &r)).collect(),
        None => regions.iter().enumerate().map(|(i, r)| f(i, r)).collect(),
    }
}

impl GenomeSpace {
    /// Build from a MAP result: `value_attr` supplies cell values;
    /// `label_attr` (optional) supplies row labels (e.g. the gene name).
    /// Missing values (nulls) become 0.
    pub fn from_map_result(
        dataset: &Dataset,
        value_attr: &str,
        label_attr: Option<&str>,
    ) -> Result<GenomeSpace, GenomeSpaceError> {
        let first = dataset.samples.first().ok_or(GenomeSpaceError::Empty)?;
        let value_pos = dataset
            .schema
            .position(value_attr)
            .ok_or_else(|| GenomeSpaceError::BadAttribute(value_attr.to_owned()))?;
        let label_pos = match label_attr {
            Some(a) => Some(
                dataset
                    .schema
                    .position(a)
                    .ok_or_else(|| GenomeSpaceError::BadAttribute(a.to_owned()))?,
            ),
            None => None,
        };
        let regions: Vec<RegionKey> = read(&first.regions, |_, r| RegionKey {
            chrom: r.chrom().clone(),
            left: r.left(),
            right: r.right(),
            strand: r.strand(),
            label: match label_pos.and_then(|p| r.cell(p)) {
                Some(ValueRef::Str(l)) => Some(l.to_owned()),
                _ => None,
            },
        });
        let mut experiments = Vec::with_capacity(dataset.samples.len());
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(dataset.samples.len());
        for s in &dataset.samples {
            let column: Option<Vec<f64>> = read(&s.regions, |i, r| {
                let k = regions.get(i)?;
                let same = *r.chrom() == k.chrom && r.left() == k.left && r.right() == k.right;
                same.then(|| r.cell(value_pos).and_then(ValueRef::as_f64).unwrap_or(0.0))
            });
            match column {
                Some(column) if column.len() == regions.len() => columns.push(column),
                _ => return Err(GenomeSpaceError::RaggedSamples { sample: s.name.clone() }),
            }
            experiments.push(s.name.clone());
        }
        // Transpose columns into row-major values.
        let values: Vec<Vec<f64>> =
            (0..regions.len()).map(|r| columns.iter().map(|c| c[r]).collect()).collect();
        Ok(GenomeSpace { regions, experiments, values })
    }

    /// Number of regions (rows).
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of experiments (columns).
    pub fn n_experiments(&self) -> usize {
        self.experiments.len()
    }

    /// One row.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.values[r]
    }

    /// Render as a TSV table (Figure 4's middle representation).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("region");
        for e in &self.experiments {
            out.push('\t');
            out.push_str(e);
        }
        out.push('\n');
        for (k, row) in self.regions.iter().zip(&self.values) {
            out.push_str(&k.to_string());
            for v in row {
                out.push('\t');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Sample, Schema, Value, ValueType};

    fn map_result() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::new("name", ValueType::Str),
            Attribute::new("count", ValueType::Int),
        ])
        .unwrap();
        let mut ds = Dataset::new("R", schema);
        for (exp, counts) in [("e1", [3i64, 0, 7]), ("e2", [1, 2, 0])] {
            let regions = counts
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    GRegion::new("chr1", i as u64 * 100, i as u64 * 100 + 50, Strand::Unstranded)
                        .with_values(vec![Value::Str(format!("R{}", i + 1)), Value::Int(c)])
                })
                .collect();
            ds.add_sample(Sample::new(exp, "R").with_regions(regions)).unwrap();
        }
        ds
    }

    #[test]
    fn matrix_shape_and_values() {
        let gs = GenomeSpace::from_map_result(&map_result(), "count", Some("name")).unwrap();
        assert_eq!(gs.n_regions(), 3);
        assert_eq!(gs.n_experiments(), 2);
        assert_eq!(gs.row(0), &[3.0, 1.0]);
        assert_eq!(gs.row(2), &[7.0, 0.0]);
        assert_eq!(gs.regions[0].label.as_deref(), Some("R1"));
    }

    #[test]
    fn a_map_output_is_read_in_place() {
        let mut engine = nggc_core::GmqlEngine::with_workers(1);
        let mut refs = map_result();
        refs.name = "REFS".into();
        refs.samples.truncate(1);
        engine.register(refs);
        engine.register(map_result());
        let out = engine.run("S = MAP(n AS COUNT) REFS R; MATERIALIZE S;").unwrap();
        let gs = GenomeSpace::from_map_result(&out["S"], "n", Some("name")).unwrap();
        assert_eq!((gs.n_regions(), gs.n_experiments()), (3, 2));
        assert_eq!(gs.row(1), &[1.0, 1.0]);
        assert_eq!(gs.regions[2].label.as_deref(), Some("R3"));
        for s in &out["S"].samples {
            assert!(s.regions.batch().is_some() && !s.regions.has_rows(), "{}", s.name);
        }
    }

    #[test]
    fn tsv_rendering() {
        let gs = GenomeSpace::from_map_result(&map_result(), "count", Some("name")).unwrap();
        let tsv = gs.to_tsv();
        assert!(tsv.starts_with("region\te1\te2\n"));
        assert!(tsv.contains("R3\t7\t0"));
    }

    #[test]
    fn errors() {
        let ds = map_result();
        assert!(matches!(
            GenomeSpace::from_map_result(&ds, "zzz", None),
            Err(GenomeSpaceError::BadAttribute(_))
        ));
        let empty = Dataset::new("E", Schema::empty());
        assert!(matches!(
            GenomeSpace::from_map_result(&empty, "x", None),
            Err(GenomeSpaceError::Empty)
        ));
        let mut ragged = map_result();
        ragged.samples[1].regions_mut().pop();
        assert!(matches!(
            GenomeSpace::from_map_result(&ragged, "count", None),
            Err(GenomeSpaceError::RaggedSamples { .. })
        ));
    }
}
