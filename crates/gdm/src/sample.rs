//! Samples: the unit linking regions and metadata.
//!
//! The sample ID provides the many-to-many connection between regions and
//! metadata of one experimental sample (paper §2, Figure 2). A sample owns
//! its regions (kept in genome order), its metadata, and its provenance.

use crate::metadata::Metadata;
use crate::provenance::Provenance;
use crate::region::GRegion;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Opaque sample identifier, unique within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SampleId(pub u64);

static NEXT_SAMPLE_ID: AtomicU64 = AtomicU64::new(1);

impl SampleId {
    /// Allocate a fresh process-unique identifier.
    pub fn fresh() -> SampleId {
        SampleId(NEXT_SAMPLE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for SampleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One experimental sample: regions + metadata + provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Unique identifier.
    pub id: SampleId,
    /// Human-readable name (file stem for loaded samples).
    pub name: String,
    /// Regions in genome order (enforced by [`Sample::sort_regions`] and
    /// checked by [`Sample::is_sorted`]).
    pub regions: Vec<GRegion>,
    /// Region-invariant metadata of the sample.
    pub metadata: Metadata,
    /// Lineage of the sample.
    pub provenance: Arc<Provenance>,
}

impl Sample {
    /// Create a sample with a fresh ID and source provenance.
    pub fn new(name: impl Into<String>, dataset: &str) -> Sample {
        let name = name.into();
        Sample {
            id: SampleId::fresh(),
            provenance: Provenance::source(dataset, name.clone()),
            name,
            regions: Vec::new(),
            metadata: Metadata::new(),
        }
    }

    /// Create a derived sample carrying explicit provenance.
    pub fn derived(name: impl Into<String>, provenance: Arc<Provenance>) -> Sample {
        Sample {
            id: SampleId::fresh(),
            name: name.into(),
            regions: Vec::new(),
            metadata: Metadata::new(),
            provenance,
        }
    }

    /// Builder: attach regions (sorted on insertion).
    pub fn with_regions(mut self, regions: Vec<GRegion>) -> Sample {
        self.regions = regions;
        self.sort_regions();
        self
    }

    /// Builder: attach metadata.
    pub fn with_metadata(mut self, metadata: Metadata) -> Sample {
        self.metadata = metadata;
        self
    }

    /// Sort regions into genome order (stable, so attribute order among
    /// coordinate ties is preserved).
    pub fn sort_regions(&mut self) {
        self.regions.sort_by(|a, b| a.cmp_coords(b));
    }

    /// True when regions are in genome order.
    pub fn is_sorted(&self) -> bool {
        self.regions.windows(2).all(|w| w[0].cmp_coords(&w[1]) != std::cmp::Ordering::Greater)
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total bases covered, counting overlaps multiply.
    pub fn total_region_length(&self) -> u64 {
        self.regions.iter().map(GRegion::len).sum()
    }

    /// The regions of one chromosome, as a contiguous slice (requires the
    /// sample to be sorted). Returns an empty slice when absent.
    pub fn chrom_slice(&self, chrom: &crate::coords::Chrom) -> &[GRegion] {
        debug_assert!(self.is_sorted(), "chrom_slice requires genome order");
        let start = self.regions.partition_point(|r| r.chrom < *chrom);
        let end = start + self.regions[start..].partition_point(|r| r.chrom == *chrom);
        &self.regions[start..end]
    }

    /// Where the regions of `chrom` with `lo <= left <= hi` lie in
    /// [`Sample::regions`] (requires the sample to be sorted): genome
    /// order sorts a chromosome's run by `left`, so three binary searches
    /// find them. Empty — at the position the regions would take — when
    /// there are none, `lo > hi` included. Since `left <= right`, the
    /// range holds every region with `left >= lo` and `right <= hi`.
    ///
    /// The run is the one [`Chrom`](crate::coords::Chrom)'s *ordering*
    /// puts `chrom` in, which compares digit runs as numbers: a name
    /// that differs only there (`chr01`) shares the run of `chr1`, so
    /// what is returned is a superset of the regions named `chrom`.
    pub fn window(&self, chrom: &crate::coords::Chrom, lo: u64, hi: u64) -> Range<usize> {
        debug_assert!(self.is_sorted(), "window requires genome order");
        let run_start = self.regions.partition_point(|r| r.chrom < *chrom);
        let run = &self.regions[run_start..];
        let run = &run[..run.partition_point(|r| r.chrom <= *chrom)];
        let start = run.partition_point(|r| r.left < lo);
        let end = start + run[start..].partition_point(|r| r.left <= hi);
        run_start + start..run_start + end
    }

    /// Distinct chromosomes present, in genome order (requires sortedness).
    /// Gallops: from each chromosome's first region a binary search finds
    /// the next chromosome's, so the cost is `O(chromosomes · log n)`.
    pub fn chromosomes(&self) -> Vec<crate::coords::Chrom> {
        debug_assert!(self.is_sorted(), "chromosomes requires genome order");
        let mut out: Vec<crate::coords::Chrom> = Vec::new();
        let mut rest = &self.regions[..];
        while let Some(first) = rest.first() {
            out.push(first.chrom.clone());
            rest = &rest[rest.partition_point(|r| r.chrom == first.chrom)..];
        }
        out
    }

    /// Approximate serialized size in bytes (regions + metadata).
    pub fn encoded_size(&self) -> usize {
        self.regions.iter().map(GRegion::encoded_size).sum::<usize>() + self.metadata.encoded_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Strand;

    fn r(c: &str, l: u64, rr: u64) -> GRegion {
        GRegion::new(c, l, rr, Strand::Unstranded)
    }

    #[test]
    fn fresh_ids_are_unique() {
        let a = SampleId::fresh();
        let b = SampleId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn with_regions_sorts() {
        let s = Sample::new("s", "D").with_regions(vec![
            r("chr2", 0, 10),
            r("chr1", 50, 60),
            r("chr1", 5, 10),
        ]);
        assert!(s.is_sorted());
        assert_eq!(s.regions[0].left, 5);
        assert_eq!(s.regions[2].chrom.as_str(), "chr2");
    }

    #[test]
    fn chrom_slice_boundaries() {
        let s = Sample::new("s", "D").with_regions(vec![
            r("chr1", 0, 10),
            r("chr1", 20, 30),
            r("chr2", 0, 5),
            r("chr10", 0, 5),
        ]);
        assert_eq!(s.chrom_slice(&"chr1".into()).len(), 2);
        assert_eq!(s.chrom_slice(&"chr2".into()).len(), 1);
        assert_eq!(s.chrom_slice(&"chr10".into()).len(), 1);
        assert_eq!(s.chrom_slice(&"chr3".into()).len(), 0);
    }

    #[test]
    fn window_is_the_left_range_inside_the_chromosome_run() {
        let s = Sample::new("s", "D").with_regions(vec![
            r("chr1", 0, 10),
            r("chr2", 5, 6),
            r("chr2", 10, 40),
            r("chr2", 10, 12),
            r("chr2", 20, 20),
            r("chr2", 30, 35),
            r("chr10", 0, 5),
        ]);
        let chr2 = "chr2".into();
        let lefts =
            |range: Range<usize>| -> Vec<u64> { s.regions[range].iter().map(|r| r.left).collect() };
        assert_eq!(s.window(&chr2, 0, u64::MAX), 1..6, "unbounded: the whole run");
        assert_eq!(lefts(s.window(&chr2, 10, 20)), vec![10, 10, 20], "both ends inclusive");
        assert_eq!(lefts(s.window(&chr2, 6, 9)), Vec::<u64>::new());
        // Empty windows sit where their regions would.
        assert_eq!(s.window(&chr2, 31, u64::MAX), 6..6, "lo > every left");
        assert_eq!(s.window(&chr2, 0, 4), 1..1, "hi < every left");
        assert_eq!(s.window(&chr2, 20, 10), 4..4, "lo > hi");
        assert_eq!(s.window(&"chr3".into(), 0, u64::MAX), 6..6, "absent chromosome");
        assert_eq!(s.window(&"chrX".into(), 0, u64::MAX), 7..7);
        assert_eq!(Sample::new("e", "D").window(&chr2, 0, u64::MAX), 0..0, "empty sample");
        // It agrees with `chrom_slice` on every chromosome present.
        for chrom in s.chromosomes() {
            assert_eq!(&s.regions[s.window(&chrom, 0, u64::MAX)], s.chrom_slice(&chrom));
        }
    }

    #[test]
    fn window_takes_the_run_the_ordering_gives() {
        // `chr01` and `chr1` compare equal in genome order (and so
        // interleave by `left`) though their names differ.
        let s = Sample::new("s", "D").with_regions(vec![
            r("chr1", 0, 5),
            r("chr01", 3, 5),
            r("chr1", 7, 9),
            r("chr2", 0, 5),
        ]);
        assert_eq!(s.window(&"chr1".into(), 0, u64::MAX), 0..3);
        assert_eq!(s.window(&"chr01".into(), 1, 7), 1..3);
    }

    #[test]
    fn chromosomes_in_genome_order() {
        let s = Sample::new("s", "D").with_regions(vec![
            r("chr10", 0, 5),
            r("chr2", 0, 5),
            r("chr2", 9, 12),
        ]);
        let chroms: Vec<String> = s.chromosomes().iter().map(|c| c.as_str().into()).collect();
        assert_eq!(chroms, vec!["chr2", "chr10"]);
    }

    #[test]
    fn chromosomes_gallop_over_runs_of_any_length() {
        let names = |s: &Sample| -> Vec<String> {
            s.chromosomes().iter().map(|c| c.as_str().to_owned()).collect()
        };
        let one_each = Sample::new("s", "D").with_regions(vec![
            r("chr3", 0, 5),
            r("chr1", 0, 5),
            r("chrX", 0, 5),
            r("chr2", 0, 5),
        ]);
        assert_eq!(names(&one_each), vec!["chr1", "chr2", "chr3", "chrX"]);
        let single =
            Sample::new("s", "D").with_regions((0..100).map(|i| r("chr7", i, i + 3)).collect());
        assert_eq!(names(&single), vec!["chr7"]);
        assert!(Sample::new("s", "D").chromosomes().is_empty());
        // Long and short runs mixed: every run boundary is found.
        let mut regions: Vec<GRegion> = (0..50).map(|i| r("chr1", i, i + 1)).collect();
        regions.push(r("chr2", 4, 9));
        regions.extend((0..33).map(|i| r("chr10", i * 2, i * 2 + 1)));
        assert_eq!(
            names(&Sample::new("s", "D").with_regions(regions)),
            vec!["chr1", "chr2", "chr10"]
        );
    }

    #[test]
    fn stats() {
        let s = Sample::new("s", "D").with_regions(vec![r("chr1", 0, 10), r("chr1", 5, 25)]);
        assert_eq!(s.region_count(), 2);
        assert_eq!(s.total_region_length(), 30);
        assert!(s.encoded_size() > 0);
    }

    #[test]
    fn source_provenance_recorded() {
        let s = Sample::new("rep1", "PEAKS");
        assert_eq!(s.provenance.sources(), vec![("PEAKS".into(), "rep1".into())]);
    }
}
