//! Genomic regions: the first GDM entity.
//!
//! A region is `(chr, left, right, strand)` plus the schema-typed variable
//! attributes produced by the calling process (paper §2, Figure 2).
//! Coordinates follow the 0-based half-open convention (`left` inclusive,
//! `right` exclusive), the same convention as BED and the GMQL system.

use crate::coords::{genome_order, Chrom, Strand};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A genomic region with its schema-typed attribute values.
///
/// The attribute *names and types* live in the dataset
/// [`Schema`](crate::schema::Schema); a region stores only the values, in
/// schema order. This keeps per-region memory proportional to the data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GRegion {
    /// Chromosome the region belongs to.
    pub chrom: Chrom,
    /// Left end (0-based, inclusive).
    pub left: u64,
    /// Right end (exclusive). Invariant: `left <= right`.
    pub right: u64,
    /// Strand: `+`, `-`, or `*`.
    pub strand: Strand,
    /// Variable attribute values, positionally matching the schema.
    pub values: Vec<Value>,
}

impl GRegion {
    /// Create a region, normalising `left > right` by swapping (defensive
    /// against malformed input rows).
    pub fn new(chrom: impl Into<Chrom>, left: u64, right: u64, strand: Strand) -> GRegion {
        let (left, right) = if left <= right { (left, right) } else { (right, left) };
        GRegion { chrom: chrom.into(), left, right, strand, values: Vec::new() }
    }

    /// Attach attribute values (builder style).
    pub fn with_values(mut self, values: Vec<Value>) -> GRegion {
        self.values = values;
        self
    }

    /// Region length in base pairs.
    pub fn len(&self) -> u64 {
        self.right - self.left
    }

    /// True for zero-length (point) regions, e.g. insertion variants.
    pub fn is_empty(&self) -> bool {
        self.left == self.right
    }

    /// Midpoint of the region (integer floor).
    pub fn midpoint(&self) -> u64 {
        self.left + (self.right - self.left) / 2
    }

    /// The 5' start: `left` on `+`/`*`, `right` on `-`. Used by UPSTREAM /
    /// DOWNSTREAM genometric clauses.
    pub fn five_prime(&self) -> u64 {
        match self.strand {
            Strand::Neg => self.right,
            _ => self.left,
        }
    }

    /// True when `self` and `other` are on the same chromosome and their
    /// half-open intervals intersect. Zero-length regions overlap when they
    /// fall strictly inside the other (BED convention).
    pub fn overlaps(&self, other: &GRegion) -> bool {
        self.chrom == other.chrom
            && interval_overlap(self.left, self.right, other.left, other.right)
    }

    /// Overlap that additionally requires strand compatibility, the default
    /// matching rule of GMQL MAP / JOIN / DIFFERENCE.
    pub fn overlaps_stranded(&self, other: &GRegion) -> bool {
        self.strand.compatible(other.strand) && self.overlaps(other)
    }

    /// Width of the intersection in bp (0 when disjoint or cross-chromosome).
    pub fn overlap_len(&self, other: &GRegion) -> u64 {
        if self.chrom != other.chrom {
            return 0;
        }
        let lo = self.left.max(other.left);
        let hi = self.right.min(other.right);
        hi.saturating_sub(lo)
    }

    /// True when `self` fully contains `other` (same chromosome).
    pub fn contains(&self, other: &GRegion) -> bool {
        self.chrom == other.chrom && self.left <= other.left && other.right <= self.right
    }

    /// Genometric distance between two regions on the same chromosome:
    /// number of bases strictly between them, `0` for touching or
    /// overlapping regions, `None` across chromosomes.
    ///
    /// This is the distance GMQL genometric clauses (`DLE`, `DGE`, `MD`)
    /// evaluate. Following the GMQL convention, overlapping regions have
    /// *negative* distance equal to minus their overlap width, so that
    /// `DLE(0)` means "overlapping or adjacent" while `DGE(1)` excludes
    /// overlap.
    pub fn distance(&self, other: &GRegion) -> Option<i64> {
        if self.chrom != other.chrom {
            return None;
        }
        if self.right <= other.left {
            Some((other.left - self.right) as i64)
        } else if other.right <= self.left {
            Some((self.left - other.right) as i64)
        } else {
            // Overlapping: negative overlap width.
            Some(-(self.overlap_len(other) as i64))
        }
    }

    /// True when `other` lies strictly upstream of `self`, respecting
    /// `self`'s strand (upstream of a `-` region is to its right).
    pub fn is_upstream_of_me(&self, other: &GRegion) -> bool {
        if self.chrom != other.chrom {
            return false;
        }
        match self.strand {
            Strand::Neg => other.left >= self.right,
            _ => other.right <= self.left,
        }
    }

    /// True when `other` lies strictly downstream of `self`, respecting
    /// `self`'s strand.
    pub fn is_downstream_of_me(&self, other: &GRegion) -> bool {
        if self.chrom != other.chrom {
            return false;
        }
        match self.strand {
            Strand::Neg => other.right <= self.left,
            _ => other.left >= self.right,
        }
    }

    /// Genome-order comparison on coordinates only (ignores values).
    #[inline]
    pub fn cmp_coords(&self, other: &GRegion) -> Ordering {
        genome_order(
            (&self.chrom, self.left, self.right, self.strand),
            (&other.chrom, other.left, other.right, other.strand),
        )
    }

    /// Approximate serialized size in bytes (coordinates + values), used
    /// for result-size estimation and transfer accounting.
    pub fn encoded_size(&self) -> usize {
        let coord = self.chrom.as_str().len() + 8 + 8 + 1;
        coord + self.values.iter().map(Value::encoded_size).sum::<usize>()
    }
}

/// Half-open interval intersection with the BED zero-length convention:
/// a zero-length interval `[p, p)` overlaps `[a, b)` iff `a <= p < b`
/// or (both zero-length) `p == a`.
pub fn interval_overlap(l1: u64, r1: u64, l2: u64, r2: u64) -> bool {
    if l1 == r1 && l2 == r2 {
        return l1 == l2;
    }
    if l1 == r1 {
        return l2 <= l1 && l1 < r2;
    }
    if l2 == r2 {
        return l1 <= l2 && l2 < r1;
    }
    l1 < r2 && l2 < r1
}

impl fmt::Display for GRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}-{}({})", self.chrom, self.left, self.right, self.strand)?;
        if !self.values.is_empty() {
            write!(f, "[")?;
            for (i, v) in self.values.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(chrom: &str, l: u64, rr: u64) -> GRegion {
        GRegion::new(chrom, l, rr, Strand::Unstranded)
    }

    #[test]
    fn constructor_normalises_swapped_ends() {
        let x = GRegion::new("chr1", 100, 50, Strand::Pos);
        assert_eq!((x.left, x.right), (50, 100));
        assert_eq!(x.len(), 50);
    }

    #[test]
    fn overlap_half_open() {
        assert!(r("chr1", 0, 10).overlaps(&r("chr1", 9, 20)));
        assert!(!r("chr1", 0, 10).overlaps(&r("chr1", 10, 20)), "touching is not overlap");
        assert!(!r("chr1", 0, 10).overlaps(&r("chr2", 0, 10)), "different chromosomes");
    }

    #[test]
    fn overlap_zero_length() {
        assert!(r("chr1", 5, 5).overlaps(&r("chr1", 0, 10)));
        assert!(!r("chr1", 10, 10).overlaps(&r("chr1", 0, 10)), "point at right end is outside");
        assert!(r("chr1", 3, 3).overlaps(&r("chr1", 3, 3)));
        assert!(!r("chr1", 3, 3).overlaps(&r("chr1", 4, 4)));
    }

    #[test]
    fn stranded_overlap() {
        let plus = GRegion::new("chr1", 0, 10, Strand::Pos);
        let minus = GRegion::new("chr1", 5, 15, Strand::Neg);
        let any = GRegion::new("chr1", 5, 15, Strand::Unstranded);
        assert!(!plus.overlaps_stranded(&minus));
        assert!(plus.overlaps_stranded(&any));
    }

    #[test]
    fn distance_semantics() {
        assert_eq!(r("chr1", 0, 10).distance(&r("chr1", 20, 30)), Some(10));
        assert_eq!(r("chr1", 20, 30).distance(&r("chr1", 0, 10)), Some(10));
        assert_eq!(r("chr1", 0, 10).distance(&r("chr1", 10, 20)), Some(0), "adjacent = 0");
        assert_eq!(r("chr1", 0, 10).distance(&r("chr1", 5, 20)), Some(-5), "overlap negative");
        assert_eq!(r("chr1", 0, 10).distance(&r("chr2", 0, 10)), None);
    }

    #[test]
    fn five_prime_and_orientation() {
        let fwd = GRegion::new("chr1", 100, 200, Strand::Pos);
        let rev = GRegion::new("chr1", 100, 200, Strand::Neg);
        assert_eq!(fwd.five_prime(), 100);
        assert_eq!(rev.five_prime(), 200);

        let up = GRegion::new("chr1", 0, 50, Strand::Unstranded);
        let down = GRegion::new("chr1", 300, 400, Strand::Unstranded);
        assert!(fwd.is_upstream_of_me(&up));
        assert!(fwd.is_downstream_of_me(&down));
        // For a minus-strand region the sides flip.
        assert!(rev.is_upstream_of_me(&down));
        assert!(rev.is_downstream_of_me(&up));
    }

    #[test]
    fn contains_and_overlap_len() {
        assert!(r("chr1", 0, 100).contains(&r("chr1", 10, 90)));
        assert!(!r("chr1", 0, 100).contains(&r("chr1", 10, 101)));
        assert_eq!(r("chr1", 0, 100).overlap_len(&r("chr1", 90, 200)), 10);
        assert_eq!(r("chr1", 0, 10).overlap_len(&r("chr1", 10, 20)), 0);
    }

    #[test]
    fn display_renders_attributes() {
        let x = r("chr1", 1, 5).with_values(vec![Value::Float(0.5), Value::Str("p".into())]);
        assert_eq!(x.to_string(), "chr1:1-5(*)[0.5,p]");
    }

    #[test]
    fn midpoint() {
        assert_eq!(r("chr1", 10, 20).midpoint(), 15);
        assert_eq!(r("chr1", 10, 11).midpoint(), 10);
    }
}
