//! Genomic coordinates: chromosomes and strands.
//!
//! GDM fixes the first region attributes to `(chr, left, right, strand)`
//! (paper §2, Figure 2). Chromosome names are interned behind an
//! [`std::sync::Arc`] so that cloning a region is cheap even with
//! free-form contig names, and the handle is one pointer wide so that it
//! costs every region 8 bytes, not 16.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A chromosome (contig) name.
///
/// Cheap to clone (a reference-count bump) and one pointer wide: the
/// name's length sits with its bytes behind the shared pointer instead of
/// in every handle, as an `Arc<str>` would keep it. Ordering is *genome
/// order*: `chr2 < chr10` (numeric-aware comparison of digit runs), which
/// matches the ordering used by genome browsers and the GDM native format.
#[derive(Debug, Clone)]
pub struct Chrom(Arc<String>);

impl Chrom {
    /// Create a chromosome from a name. Leading/trailing whitespace is
    /// trimmed; the name is otherwise stored verbatim.
    pub fn new(name: &str) -> Chrom {
        Chrom(Arc::new(name.trim().to_owned()))
    }

    /// The chromosome name as a string slice.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }

    /// True when both handles point at the same allocation — the case
    /// equality and ordering decide without looking at the name.
    pub fn ptr_eq(&self, other: &Chrom) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Numeric-aware comparison: digit runs compare as integers, other
    /// characters bytewise. `chr2` sorts before `chr10`.
    fn genome_cmp(a: &str, b: &str) -> Ordering {
        let (mut ia, mut ib) = (a.as_bytes().iter().peekable(), b.as_bytes().iter().peekable());
        loop {
            match (ia.peek().copied(), ib.peek().copied()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(&ca), Some(&cb)) => {
                    if ca.is_ascii_digit() && cb.is_ascii_digit() {
                        // Compare the whole digit runs numerically.
                        let mut na: u64 = 0;
                        while let Some(&&c) = ia.peek() {
                            if c.is_ascii_digit() {
                                na = na.saturating_mul(10).saturating_add(u64::from(c - b'0'));
                                ia.next();
                            } else {
                                break;
                            }
                        }
                        let mut nb: u64 = 0;
                        while let Some(&&c) = ib.peek() {
                            if c.is_ascii_digit() {
                                nb = nb.saturating_mul(10).saturating_add(u64::from(c - b'0'));
                                ib.next();
                            } else {
                                break;
                            }
                        }
                        match na.cmp(&nb) {
                            Ordering::Equal => {}
                            ord => return ord,
                        }
                    } else {
                        match ca.cmp(&cb) {
                            Ordering::Equal => {
                                ia.next();
                                ib.next();
                            }
                            ord => return ord,
                        }
                    }
                }
            }
        }
    }
}

impl PartialEq for Chrom {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for Chrom {}

impl PartialOrd for Chrom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Chrom {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        Chrom::genome_cmp(self.as_str(), other.as_str())
    }
}

impl std::hash::Hash for Chrom {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for Chrom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Chrom {
    fn from(s: &str) -> Self {
        Chrom::new(s)
    }
}

impl std::borrow::Borrow<str> for Chrom {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

/// Hands out one shared [`Chrom`] per distinct name, so that the regions
/// of one parse or decode call compare chromosomes by pointer
/// ([`Chrom::ptr_eq`]) instead of by name, and a region costs a
/// reference-count bump instead of a string allocation.
#[derive(Debug, Default)]
pub struct ChromInterner {
    /// The handle returned last: region files list one chromosome's rows
    /// together, so this answers nearly every call without hashing.
    last: Option<Chrom>,
    seen: HashSet<Chrom>,
}

impl ChromInterner {
    /// An interner that has seen no name yet.
    pub fn new() -> ChromInterner {
        ChromInterner::default()
    }

    /// The shared handle for `name` (trimmed, as [`Chrom::new`] does).
    pub fn intern(&mut self, name: &str) -> Chrom {
        let name = name.trim();
        if let Some(last) = self.last.as_ref().filter(|c| c.as_str() == name) {
            return last.clone();
        }
        let chrom = match self.seen.get(name) {
            Some(known) => known.clone(),
            None => {
                let fresh = Chrom::new(name);
                self.seen.insert(fresh.clone());
                fresh
            }
        };
        self.last = Some(chrom.clone());
        chrom
    }
}

/// DNA strand of a region: `+`, `-`, or `*` when the region is unstranded
/// (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strand {
    /// Forward (`+`) strand.
    Pos,
    /// Reverse (`-`) strand.
    Neg,
    /// Not stranded (`*`).
    #[default]
    Unstranded,
}

impl Strand {
    /// Parse `+`, `-`, `*` (and `.` as an unstranded alias used by BED).
    pub fn parse(token: &str) -> Option<Strand> {
        match token {
            "+" => Some(Strand::Pos),
            "-" => Some(Strand::Neg),
            "*" | "." | "" => Some(Strand::Unstranded),
            _ => None,
        }
    }

    /// Canonical single-character rendering.
    pub fn symbol(self) -> char {
        char::from(self.as_str().as_bytes()[0])
    }

    /// [`Strand::symbol`] as a string that needs no allocation.
    pub fn as_str(self) -> &'static str {
        match self {
            Strand::Pos => "+",
            Strand::Neg => "-",
            Strand::Unstranded => "*",
        }
    }

    /// GMQL strand-compatibility rule: two regions are strand-compatible
    /// when either is unstranded or both have the same orientation. Used
    /// by genometric JOIN, MAP, DIFFERENCE and COVER.
    pub fn compatible(self, other: Strand) -> bool {
        self == Strand::Unstranded || other == Strand::Unstranded || self == other
    }
}

impl fmt::Display for Strand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// An order key placing regions in genome order: by chromosome, then left
/// end, then right end, then strand (`+` < `-` < `*`).
#[inline]
pub fn genome_order(a: (&Chrom, u64, u64, Strand), b: (&Chrom, u64, u64, Strand)) -> Ordering {
    fn strand_rank(s: Strand) -> u8 {
        match s {
            Strand::Pos => 0,
            Strand::Neg => 1,
            Strand::Unstranded => 2,
        }
    }
    a.0.cmp(b.0)
        .then(a.1.cmp(&b.1))
        .then(a.2.cmp(&b.2))
        .then(strand_rank(a.3).cmp(&strand_rank(b.3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrom_numeric_order() {
        let c2 = Chrom::new("chr2");
        let c10 = Chrom::new("chr10");
        let cx = Chrom::new("chrX");
        assert!(c2 < c10, "chr2 must sort before chr10");
        assert!(c10 < cx, "numbers before letters");
        assert_eq!(Chrom::new(" chr1 "), Chrom::new("chr1"));
    }

    #[test]
    fn chrom_equal_names_equal() {
        assert_eq!(Chrom::new("chr7"), Chrom::new("chr7"));
        assert_ne!(Chrom::new("chr7"), Chrom::new("chr8"));
    }

    #[test]
    fn interner_shares_one_handle_per_name() {
        let mut chroms = ChromInterner::new();
        let a = chroms.intern("chr1");
        let b = chroms.intern("chr2");
        let c = chroms.intern(" chr1 ");
        assert!(a.ptr_eq(&c), "equal names share one allocation");
        assert!(!a.ptr_eq(&b));
        assert!(chroms.intern("chr2").ptr_eq(&b));
        assert_eq!(a, Chrom::new("chr1"));
        assert!(!a.ptr_eq(&Chrom::new("chr1")), "a fresh handle is its own allocation");
    }

    #[test]
    fn strand_parse_and_symbol() {
        assert_eq!(Strand::parse("+"), Some(Strand::Pos));
        assert_eq!(Strand::parse("-"), Some(Strand::Neg));
        assert_eq!(Strand::parse("*"), Some(Strand::Unstranded));
        assert_eq!(Strand::parse("."), Some(Strand::Unstranded));
        assert_eq!(Strand::parse("x"), None);
        assert_eq!(Strand::Pos.symbol(), '+');
        for s in [Strand::Pos, Strand::Neg, Strand::Unstranded] {
            assert_eq!(s.as_str(), s.symbol().to_string());
        }
    }

    #[test]
    fn strand_compatibility() {
        use Strand::*;
        assert!(Pos.compatible(Pos));
        assert!(!Pos.compatible(Neg));
        assert!(Pos.compatible(Unstranded));
        assert!(Unstranded.compatible(Neg));
    }

    #[test]
    fn genome_order_keys() {
        let c1 = Chrom::new("chr1");
        let c2 = Chrom::new("chr2");
        assert_eq!(
            genome_order((&c1, 10, 20, Strand::Pos), (&c2, 0, 5, Strand::Pos)),
            Ordering::Less
        );
        assert_eq!(
            genome_order((&c1, 10, 20, Strand::Pos), (&c1, 10, 30, Strand::Pos)),
            Ordering::Less
        );
        assert_eq!(
            genome_order((&c1, 10, 20, Strand::Pos), (&c1, 10, 20, Strand::Unstranded)),
            Ordering::Less
        );
    }

    #[test]
    fn digit_run_overflow_is_saturating() {
        // Absurdly long digit runs must not panic.
        let a = Chrom::new("chr99999999999999999999999999");
        let b = Chrom::new("chr1");
        assert!(b < a);
    }
}
