//! Samples: the unit linking regions and metadata.
//!
//! The sample ID provides the many-to-many connection between regions and
//! metadata of one experimental sample (paper §2, Figure 2). A sample owns
//! its metadata and its provenance; its regions (kept in genome order) sit
//! in a [`Regions`] buffer shared copy-on-write, so an operator that keeps a
//! sample's regions exactly hands the buffer on with a reference-count
//! bump, and one that changes them edits in place only when it holds the
//! buffer alone ([`Sample::regions_mut`]). The buffer remembers its
//! encoded size once computed, so sizing a sample whose rows did not
//! change costs nothing.

use crate::batch::RegionBatch;
use crate::error::GdmError;
use crate::metadata::Metadata;
use crate::provenance::Provenance;
use crate::region::GRegion;
use crate::schema::Schema;
use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Opaque sample identifier, unique within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// A sample's region buffer: the rows, shared copy-on-write, and their
/// encoded size ([`GRegion::encoded_size`] summed), remembered once it is
/// computed. A clone shares the rows and the remembered size; every way
/// to write the rows ([`Regions::get_mut`], [`Regions::make_mut`]) forgets
/// the size, and a buffer built from a `Vec` starts without one, so a
/// remembered size is always that of the rows beside it.
///
/// A buffer built from a [`RegionBatch`] is *batch-backed*: it answers
/// its length, order, windows and size from the columns, and builds its
/// rows at most once, on the first access to them (through `Deref`, from
/// any thread); [`rows_built`] counts the rows so built. Building the
/// rows lets the batch go, so a buffer holds one form of its regions
/// once a reader that borrowed the batch ([`Regions::batch`]) is done.
#[derive(Clone)]
pub struct Regions(Arc<Buffer>);

struct Buffer {
    /// The rows: there from the start for a buffer built from rows,
    /// built from `batch` on first access for a batch-backed one.
    rows: OnceLock<Vec<GRegion>>,
    /// The columns of a batch-backed buffer, until its rows are built.
    batch: Mutex<Option<Arc<RegionBatch>>>,
    size: OnceLock<usize>,
}

/// Rows batch-backed buffers have built, process-wide.
static ROWS_BUILT: AtomicU64 = AtomicU64::new(0);

/// How many rows batch-backed region buffers have built in this process:
/// a work counter that stays flat while every operator reads batches.
pub fn rows_built() -> u64 {
    ROWS_BUILT.load(Ordering::Relaxed)
}

fn build_rows(batch: &RegionBatch) -> Vec<GRegion> {
    ROWS_BUILT.fetch_add(batch.len() as u64, Ordering::Relaxed);
    batch.to_rows()
}

fn walk_size(rows: &[GRegion]) -> usize {
    rows.iter().map(GRegion::encoded_size).sum()
}

/// A buffer's regions as they are held right now.
enum View<'a> {
    Rows(&'a [GRegion]),
    Batch(Arc<RegionBatch>),
}

impl<'a> View<'a> {
    fn len(&self) -> usize {
        match self {
            View::Rows(rows) => rows.len(),
            View::Batch(batch) => batch.len(),
        }
    }

    fn row(&self, i: usize) -> Cow<'a, GRegion> {
        match self {
            View::Rows(rows) => Cow::Borrowed(&rows[i]),
            View::Batch(batch) => Cow::Owned(batch.row(i).to_region()),
        }
    }
}

impl Buffer {
    fn batch(&self) -> Option<Arc<RegionBatch>> {
        self.batch.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The rows, built from the batch on first access; the batch is let
    /// go once they are.
    fn rows(&self) -> &Vec<GRegion> {
        self.rows.get_or_init(|| {
            let rows = build_rows(&self.batch().expect("rows or a batch"));
            *self.batch.lock().unwrap_or_else(PoisonError::into_inner) = None;
            rows
        })
    }

    fn view(&self) -> View<'_> {
        if let Some(rows) = self.rows.get() {
            return View::Rows(rows);
        }
        match self.batch() {
            Some(batch) => View::Batch(batch),
            // Another thread built the rows and let the batch go, and is
            // about to publish them: wait for them.
            None => View::Rows(self.rows()),
        }
    }

    /// The rows for writing: a batch-backed buffer builds them (unless
    /// built already) and lets its batch go.
    fn rows_mut(&mut self) -> &mut Vec<GRegion> {
        if let Some(batch) = self.batch.get_mut().unwrap_or_else(PoisonError::into_inner).take() {
            let _ = self.rows.set(build_rows(&batch));
        }
        self.rows.get_mut().expect("rows or a batch")
    }
}

impl Regions {
    /// True when both are the one buffer.
    pub fn ptr_eq(a: &Regions, b: &Regions) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The address of the buffer, for telling buffers apart.
    pub fn as_ptr(&self) -> *const () {
        Arc::as_ptr(&self.0).cast()
    }

    /// True when another holder shares the buffer.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }

    /// Number of regions, without building rows.
    pub fn len(&self) -> usize {
        self.0.view().len()
    }

    /// True when there are no regions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The columns of a batch-backed buffer; `None` once its rows are
    /// built, or for a buffer built from rows.
    pub fn batch(&self) -> Option<Arc<RegionBatch>> {
        match self.0.view() {
            View::Batch(batch) => Some(batch),
            View::Rows(_) => None,
        }
    }

    /// True when the rows exist: built from the start, or built since
    /// from the batch.
    pub fn has_rows(&self) -> bool {
        self.0.rows.get().is_some()
    }

    /// Every region as a row, in order, without building a batch-backed
    /// buffer's rows: each is built on its own as it is reached, so a
    /// printer that takes a few pays for those.
    pub fn each_row(&self) -> impl Iterator<Item = Cow<'_, GRegion>> {
        let view = self.0.view();
        (0..view.len()).map(move |i| view.row(i))
    }

    /// The batch of a batch-backed buffer held alone, the buffer given
    /// up for it; the buffer back otherwise.
    pub fn into_batch(self) -> Result<RegionBatch, Regions> {
        if self.has_rows() {
            return Err(self);
        }
        match Arc::try_unwrap(self.0) {
            Ok(Buffer { rows, batch, size }) => {
                match batch.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    // A reader that still borrows the batch keeps its own.
                    Some(batch) => Ok(Arc::unwrap_or_clone(batch)),
                    None => Err(Regions(Arc::new(Buffer { rows, batch: Mutex::new(None), size }))),
                }
            }
            Err(shared) => Err(Regions(shared)),
        }
    }

    /// Check every region against `schema` as [`Schema::check_row`]
    /// does, on the columns of a batch-backed buffer.
    pub fn check(&self, schema: &Schema) -> Result<(), GdmError> {
        match self.0.view() {
            View::Batch(batch) => batch.check(schema),
            View::Rows(rows) => rows.iter().try_for_each(|r| schema.check_row(&r.values)),
        }
    }

    /// The rows for writing in place, when this is the only holder of the
    /// buffer; the remembered size is forgotten. `None` when shared.
    pub fn get_mut(&mut self) -> Option<&mut Vec<GRegion>> {
        let buffer = Arc::get_mut(&mut self.0)?;
        buffer.size.take();
        Some(buffer.rows_mut())
    }

    /// The rows for writing: in place when held alone, else on a private
    /// copy (copy-on-write). The remembered size is forgotten.
    pub fn make_mut(&mut self) -> &mut Vec<GRegion> {
        if Arc::get_mut(&mut self.0).is_none() {
            let rows = match self.0.view() {
                View::Rows(rows) => rows.to_vec(),
                View::Batch(batch) => build_rows(&batch),
            };
            *self = rows.into();
        }
        self.get_mut().expect("held alone")
    }

    /// The encoded size of the rows: the remembered one, computed and
    /// remembered on the first call after a write — from the columns of
    /// a batch-backed buffer, without building its rows.
    pub fn encoded_size(&self) -> usize {
        let size = *self.0.size.get_or_init(|| match self.0.view() {
            View::Batch(batch) => batch.encoded_size(),
            View::Rows(rows) => walk_size(rows),
        });
        if let Some(rows) = self.0.rows.get() {
            debug_assert_eq!(size, walk_size(rows), "remembered size of a written buffer");
        }
        size
    }

    /// The remembered encoded size, if it has been computed since the
    /// last write.
    pub fn known_size(&self) -> Option<usize> {
        self.0.size.get().copied()
    }
}

impl Default for Regions {
    fn default() -> Regions {
        Vec::new().into()
    }
}

impl Deref for Regions {
    type Target = [GRegion];

    fn deref(&self) -> &[GRegion] {
        self.0.rows()
    }
}

impl From<Vec<GRegion>> for Regions {
    fn from(rows: Vec<GRegion>) -> Regions {
        Regions(Arc::new(Buffer {
            rows: OnceLock::from(rows),
            batch: Mutex::new(None),
            size: OnceLock::new(),
        }))
    }
}

/// A batch-backed buffer: no rows until something asks for them.
impl From<RegionBatch> for Regions {
    fn from(batch: RegionBatch) -> Regions {
        Regions(Arc::new(Buffer {
            rows: OnceLock::new(),
            batch: Mutex::new(Some(Arc::new(batch))),
            size: OnceLock::new(),
        }))
    }
}

/// Region by region, building no rows of a batch-backed buffer.
impl PartialEq for Regions {
    fn eq(&self, other: &Regions) -> bool {
        match (self.0.view(), other.0.view()) {
            (View::Rows(a), View::Rows(b)) => a == b,
            (a, b) => a.len() == b.len() && (0..a.len()).all(|i| a.row(i) == b.row(i)),
        }
    }
}

/// The rows alone: whether the size is remembered, or the rows are built
/// yet, is not content.
impl fmt::Debug for Regions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.each_row()).finish()
    }
}

/// One experimental sample: regions + metadata + provenance.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Unique identifier.
    pub id: SampleId,
    /// Human-readable name (file stem for loaded samples).
    pub name: String,
    /// Regions in genome order (enforced by [`Sample::sort_regions`] and
    /// checked by [`Sample::is_sorted`]), shared copy-on-write: cloning a
    /// sample shares the buffer and its remembered size, and every write
    /// goes through [`Regions::get_mut`] or [`Regions::make_mut`] (see
    /// [`Sample::regions_mut`]).
    pub regions: Regions,
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
            regions: Regions::default(),
            metadata: Metadata::new(),
        }
    }

    /// Create a derived sample carrying explicit provenance.
    pub fn derived(name: impl Into<String>, provenance: Arc<Provenance>) -> Sample {
        Sample {
            id: SampleId::fresh(),
            name: name.into(),
            regions: Regions::default(),
            metadata: Metadata::new(),
            provenance,
        }
    }

    /// Builder: attach regions (sorted on insertion).
    pub fn with_regions(mut self, regions: Vec<GRegion>) -> Sample {
        self.regions = regions.into();
        self.sort_regions();
        self
    }

    /// The regions for writing: in place when this sample holds its
    /// buffer alone, else on a private copy of it (copy-on-write). An
    /// operator that keeps only some regions of a shared buffer should
    /// copy those instead of calling this and filtering the copy.
    pub fn regions_mut(&mut self) -> &mut Vec<GRegion> {
        self.regions.make_mut()
    }

    /// Builder: attach metadata.
    pub fn with_metadata(mut self, metadata: Metadata) -> Sample {
        self.metadata = metadata;
        self
    }

    /// Sort regions into genome order (stable, so attribute order among
    /// coordinate ties is preserved).
    /// A buffer already in order is left as it is, shared or not.
    pub fn sort_regions(&mut self) {
        if !self.is_sorted() {
            self.regions_mut().sort_by(|a, b| a.cmp_coords(b));
        }
    }

    /// True when regions are in genome order.
    pub fn is_sorted(&self) -> bool {
        if let Some(batch) = self.regions.batch() {
            return batch.is_sorted();
        }
        self.regions.windows(2).all(|w| w[0].cmp_coords(&w[1]) != std::cmp::Ordering::Greater)
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total bases covered, counting overlaps multiply.
    pub fn total_region_length(&self) -> u64 {
        if let Some(batch) = self.regions.batch() {
            return batch.total_length();
        }
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
        if let Some(batch) = self.regions.batch() {
            return batch.window(chrom, lo, hi);
        }
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
        if let Some(batch) = self.regions.batch() {
            return batch.chromosomes();
        }
        let mut out: Vec<crate::coords::Chrom> = Vec::new();
        let mut rest = &self.regions[..];
        while let Some(first) = rest.first() {
            out.push(first.chrom.clone());
            rest = &rest[rest.partition_point(|r| r.chrom == first.chrom)..];
        }
        out
    }

    /// Approximate serialized size in bytes (regions + metadata). The
    /// regions' part is the size their buffer remembers
    /// ([`Regions::encoded_size`]), so only a buffer written since it was
    /// last sized is walked.
    pub fn encoded_size(&self) -> usize {
        self.regions.encoded_size() + self.metadata.encoded_size()
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
    fn a_clone_shares_its_regions_until_one_side_writes() {
        let original =
            Sample::new("s", "D").with_regions(vec![r("chr1", 0, 10), r("chr1", 20, 30)]);
        let mut copy = original.clone();
        assert!(Regions::ptr_eq(&original.regions, &copy.regions), "a clone bumps a count");
        copy.regions_mut().retain(|g| g.left > 0);
        assert!(!Regions::ptr_eq(&original.regions, &copy.regions), "a write copies first");
        assert_eq!(copy.region_count(), 1);
        assert_eq!(original.region_count(), 2, "the original is as it was");
        assert_eq!((original.regions[0].left, original.regions[1].left), (0, 20));
        // Held alone, the buffer is written where it is.
        let at = copy.regions.as_ptr();
        copy.regions_mut().clear();
        assert_eq!(copy.regions.as_ptr(), at);
    }

    #[test]
    fn sorting_a_sorted_shared_buffer_leaves_it_shared() {
        let original = Sample::new("s", "D").with_regions(vec![r("chr1", 5, 9), r("chr1", 0, 4)]);
        let mut copy = original.clone();
        copy.sort_regions();
        assert!(Regions::ptr_eq(&original.regions, &copy.regions));
    }

    #[test]
    fn a_clone_shares_the_remembered_size_and_every_write_forgets_it() {
        let rows = vec![r("chr1", 0, 10), r("chr1", 20, 30)];
        let walked: usize = rows.iter().map(GRegion::encoded_size).sum();
        let mut original = Sample::new("s", "D").with_regions(rows);
        assert_eq!(original.regions.known_size(), None, "a new buffer is not sized");
        assert_eq!(original.regions.encoded_size(), walked);
        assert_eq!(original.regions.known_size(), Some(walked), "sized once, remembered");
        let mut copy = original.clone();
        assert_eq!(copy.regions.known_size(), Some(walked), "a clone shares the size");

        // `regions_mut` on a shared buffer: the private copy is unsized,
        // the original keeps its size.
        copy.regions_mut().pop();
        assert_eq!(copy.regions.known_size(), None);
        assert_eq!(original.regions.known_size(), Some(walked));
        assert_eq!(copy.regions.encoded_size(), r("chr1", 0, 10).encoded_size());

        // `regions_mut` on a buffer held alone.
        copy.regions_mut();
        assert_eq!(copy.regions.known_size(), None, "held alone, written in place");

        // `get_mut`: refused while shared (the size stays), forgets it once
        // held alone.
        let shared = original.clone();
        assert!(original.regions.get_mut().is_none());
        assert_eq!(original.regions.known_size(), Some(walked));
        drop(shared);
        original.regions.get_mut().expect("held alone").push(r("chr2", 0, 5));
        assert_eq!(original.regions.known_size(), None);
        assert_eq!(original.regions.encoded_size(), walked + r("chr2", 0, 5).encoded_size());

        // Reassignment: a buffer built from a `Vec` starts unsized.
        assert!(original.regions.known_size().is_some());
        original.regions = vec![r("chr3", 0, 1)].into();
        assert_eq!(original.regions.known_size(), None);
        assert_eq!(original.encoded_size(), r("chr3", 0, 1).encoded_size());
    }

    #[test]
    fn source_provenance_recorded() {
        let s = Sample::new("rep1", "PEAKS");
        assert_eq!(s.provenance.sources(), vec![("PEAKS".into(), "rep1".into())]);
    }
}
