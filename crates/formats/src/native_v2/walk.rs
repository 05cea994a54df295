//! The walk over a container's header and sample indexes, through `ContainerSource`.

use super::layout::{corrupt_at, type_from_tag, MAGIC, VARINT_MAX_BYTES, VERSION};
use super::{ScanOptions, ScanStats, CONTAINER_FILE};
use crate::error::FormatError;
use nggc_gdm::{Attribute, Chrom, ChromInterner, Metadata, Schema};
use std::borrow::Cow;
use std::fs;
use std::io;
use std::path::Path;

/// A container that can be read at any offset, from several threads at
/// once: the decode jobs of one read each fetch their own sample's
/// blocks. A file reads with positional reads and no shared cursor; bytes
/// in memory behind [`std::io::Cursor`] lend their blocks out uncopied.
pub trait ContainerSource: Sync {
    /// The container's length in bytes.
    fn size(&self) -> io::Result<u64>;

    /// Fill `buf` with the bytes at `offset`. A container that ends first
    /// is an [`io::ErrorKind::UnexpectedEof`] error. The walk over the
    /// header and the indexes reads through this.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// The `len` bytes at `offset`, in a buffer of their own unless the
    /// container is in memory and can lend them.
    fn extent(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
        let mut bytes = vec![0u8; len];
        self.read_exact_at(&mut bytes, offset)?;
        Ok(Cow::Owned(bytes))
    }
}

impl ContainerSource for fs::File {
    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }

    #[cfg(windows)]
    fn read_exact_at(&self, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
        while !buf.is_empty() {
            match std::os::windows::fs::FileExt::seek_read(self, buf, offset)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => (buf, offset) = (&mut buf[n..], offset + n as u64),
            }
        }
        Ok(())
    }
}

impl<T: AsRef<[u8]> + Sync> ContainerSource for io::Cursor<T> {
    fn size(&self) -> io::Result<u64> {
        Ok(self.get_ref().as_ref().len() as u64)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        buf.copy_from_slice(&self.extent(offset, buf.len())?);
        Ok(())
    }

    fn extent(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
        let bytes = self.get_ref().as_ref();
        usize::try_from(offset)
            .ok()
            .and_then(|start| bytes.get(start..start.checked_add(len)?))
            .map(Cow::Borrowed)
            .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }
}

impl<S: ContainerSource + ?Sized> ContainerSource for &S {
    fn size(&self) -> io::Result<u64> {
        (**self).size()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        (**self).read_exact_at(buf, offset)
    }

    fn extent(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
        (**self).extent(offset, len)
    }
}

/// Bytes a walk reads ahead of its position: the header and the indexes
/// come in reads of this size, and a skip that lands inside them costs no
/// read.
const READ_AHEAD: usize = 8 * 1024;

/// Sequential reader over a whole container, reading through its
/// [`ContainerSource`] alone. The header and the per-sample indexes are
/// parsed through it; the chromosome blocks are stepped over and left to
/// the decode jobs, so the walk itself reads no block.
///
/// Every read and skip is first checked against the container length:
/// truncation and extents that point past the end fail as
/// [`FormatError::Corrupt`] before any I/O, and no allocation is sized
/// from a length the container cannot hold.
pub(super) struct Walker<'a, S: ?Sized> {
    src: &'a S,
    /// Offset of the next unread byte.
    pos: u64,
    len: u64,
    /// Bytes read ahead, from container offset `ahead_at` on.
    ahead: Vec<u8>,
    ahead_at: u64,
}

impl<'a, S: ContainerSource + ?Sized> Walker<'a, S> {
    pub(super) fn new(src: &'a S) -> Result<Walker<'a, S>, FormatError> {
        Ok(Walker { src, pos: 0, len: src.size()?, ahead: Vec::new(), ahead_at: 0 })
    }

    fn corrupt(&self, reason: impl Into<String>) -> FormatError {
        corrupt_at(self.pos, reason)
    }

    /// Check that `n` more bytes exist and step over them in `pos`.
    fn claim(&mut self, n: u64) -> Result<(), FormatError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.len)
            .ok_or_else(|| self.corrupt(format!("need {n} bytes past end of container")))?;
        self.pos = end;
        Ok(())
    }

    /// Claim the next `out.len()` bytes and copy them out: from the bytes
    /// read ahead when they hold them, else with one read at their offset,
    /// which reads ahead from there unless they alone fill a read.
    fn fill(&mut self, out: &mut [u8]) -> Result<(), FormatError> {
        let at = self.pos;
        self.claim(out.len() as u64)?;
        let held = (at.checked_sub(self.ahead_at))
            .and_then(|start| usize::try_from(start).ok())
            .and_then(|start| self.ahead.get(start..)?.get(..out.len()));
        if let Some(held) = held {
            out.copy_from_slice(held);
        } else if out.len() >= READ_AHEAD {
            self.src.read_exact_at(out, at)?;
        } else {
            // The claim vouched for `out.len()` bytes at `at`.
            let ahead = (self.len - at).min(READ_AHEAD as u64) as usize;
            self.ahead.resize(ahead, 0);
            self.src.read_exact_at(&mut self.ahead, at)?;
            self.ahead_at = at;
            out.copy_from_slice(&self.ahead[..out.len()]);
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        let mut byte = [0u8];
        self.fill(&mut byte)?;
        Ok(byte[0])
    }

    fn varint(&mut self) -> Result<u64, FormatError> {
        let mut v: u64 = 0;
        for i in 0..VARINT_MAX_BYTES {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.corrupt("varint longer than 64 bits"))
    }

    fn len_prefixed(&mut self, what: &str) -> Result<usize, FormatError> {
        let n = self.varint()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n as u64 <= self.len)
            .ok_or_else(|| self.corrupt(format!("{what} length {n} exceeds container size")))
    }

    fn string(&mut self) -> Result<String, FormatError> {
        // No longer than the container, which `fill` checks before it reads.
        let mut bytes = vec![0u8; self.len_prefixed("string")?];
        self.fill(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| self.corrupt("invalid UTF-8 string"))
    }
}

/// What every reader learns from a container's first bytes.
pub(super) struct Header {
    pub(super) name: String,
    pub(super) schema: Schema,
}

impl<S: ContainerSource + ?Sized> Walker<'_, S> {
    /// Magic and version byte; errors on any revision but [`VERSION`].
    pub(super) fn version(&mut self) -> Result<(), FormatError> {
        let mut magic = [0u8; 8];
        self.fill(&mut magic)?;
        if &magic != MAGIC {
            return Err(self.corrupt("bad magic: not a v2 container"));
        }
        match self.u8()? {
            VERSION => Ok(()),
            version => Err(self.corrupt(format!("unsupported container version {version}"))),
        }
    }

    /// Version, dataset name and schema, leaving the walker at the
    /// sample count.
    fn header(&mut self) -> Result<Header, FormatError> {
        self.version()?;
        let name = self.string()?;
        let n_attrs = self.len_prefixed("schema")?;
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let attr_name = self.string()?;
            let tag = self.u8()?;
            let ty = type_from_tag(tag)
                .ok_or_else(|| self.corrupt(format!("unknown value type tag {tag}")))?;
            attrs.push(Attribute::new(attr_name, ty));
        }
        let schema =
            Schema::new(attrs).map_err(|e| self.corrupt(format!("invalid schema: {e}")))?;
        Ok(Header { name, schema })
    }

    /// One sample's name, metadata and chromosome index, leaving the
    /// walker at the sample's first block.
    fn sample_index(&mut self) -> Result<(String, Metadata, Vec<ChromIndexEntry>), FormatError> {
        let sample_name = self.string()?;
        let n_pairs = self.len_prefixed("metadata")?;
        let mut metadata = Metadata::new();
        for _ in 0..n_pairs {
            let k = self.string()?;
            let v = self.string()?;
            metadata.insert(&k, v);
        }
        let n_chroms = self.len_prefixed("chrom index")?;
        let mut chroms = Vec::with_capacity(n_chroms);
        for _ in 0..n_chroms {
            let chrom = self.string()?;
            let regions = self.varint()?;
            let bytes = self.varint()?;
            let mut crc = [0u8; 4];
            self.fill(&mut crc)?;
            let crc = u32::from_le_bytes(crc);
            chroms.push(ChromIndexEntry { chrom, regions, bytes, crc });
        }
        Ok((sample_name, metadata, chroms))
    }
}

/// One chromosome's entry in a sample's block index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromIndexEntry {
    /// Chromosome name.
    pub chrom: String,
    /// Regions in the block.
    pub regions: u64,
    /// Encoded block size in bytes.
    pub bytes: u64,
    /// CRC32C of the block.
    pub crc: u32,
}

/// Per-sample index of a v2 container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleIndexEntry {
    /// Sample name.
    pub name: String,
    /// Sample metadata, stored in front of the blocks.
    pub metadata: Metadata,
    /// Chromosome blocks, in stored order.
    pub chroms: Vec<ChromIndexEntry>,
}

/// The container-level index of a v2 dataset: everything except the
/// region blocks themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V2Index {
    /// Dataset name as stored in the container.
    pub name: String,
    /// Region schema.
    pub schema: Schema,
    /// One entry per sample.
    pub samples: Vec<SampleIndexEntry>,
}

impl V2Index {
    /// Total regions across all samples and chromosomes.
    pub fn region_count(&self) -> u64 {
        self.blocks().map(|c| c.regions).sum()
    }

    /// Bytes of the chromosome blocks a read under `opts` and `admit`
    /// decodes, and of all blocks: the share of the dataset such a read
    /// materialises, known before any block is touched.
    pub fn block_bytes(
        &self,
        opts: &ScanOptions,
        mut admit: impl FnMut(&str, &Metadata) -> bool,
    ) -> (u64, u64) {
        let wanted = self
            .samples
            .iter()
            .filter(|s| admit(&s.name, &s.metadata))
            .flat_map(|s| &s.chroms)
            .filter(|c| opts.wants_chrom(&c.chrom))
            .map(|c| c.bytes)
            .sum();
        (wanted, self.blocks().map(|c| c.bytes).sum())
    }

    fn blocks(&self) -> impl Iterator<Item = &ChromIndexEntry> {
        self.samples.iter().flat_map(|s| s.chroms.iter())
    }
}

/// One chromosome block a walk found wanted: where it lies in the
/// container, which the container length has already vouched for.
pub(super) struct WantedBlock {
    /// Interned per walk: equal names share one handle across samples.
    pub(super) chrom: Chrom,
    pub(super) regions: u64,
    pub(super) crc: u32,
    pub(super) offset: u64,
    pub(super) len: usize,
}

impl WantedBlock {
    pub(super) fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

/// What a walk hands over per sample: its index entry in full, and the
/// blocks the caller asked for.
pub(super) struct SampleScan {
    pub(super) name: String,
    pub(super) metadata: Metadata,
    pub(super) chroms: Vec<ChromIndexEntry>,
    pub(super) wanted: Vec<WantedBlock>,
}

/// The one walk over a container that every reader shares: parse the
/// header, then per sample its index; a sample `admit` refuses on its
/// name and metadata is passed over whole — one skip for all its blocks,
/// `on_sample` not called. Of an admitted sample, note where the blocks
/// `wants` names lie and hand the sample to `on_sample`. The walk reads
/// no block: it steps over every one, and the caller fetches the wanted.
pub(super) fn walk_container<S: ContainerSource + ?Sized>(
    src: &S,
    mut admit: impl FnMut(&str, &Metadata) -> bool,
    wants: impl Fn(&str) -> bool,
    mut on_sample: impl FnMut(SampleScan),
) -> Result<(Header, ScanStats), FormatError> {
    let mut w = Walker::new(src)?;
    let header = w.header()?;
    let mut stats = ScanStats { container_bytes: w.len, ..ScanStats::default() };
    let mut interner = ChromInterner::new();
    let n_samples = w.len_prefixed("sample count")?;
    for _ in 0..n_samples {
        let (name, metadata, chroms) = w.sample_index()?;
        if !admit(&name, &metadata) {
            let extent = chroms
                .iter()
                .try_fold(0u64, |sum, entry| sum.checked_add(entry.bytes))
                .ok_or_else(|| w.corrupt("block extents exceed u64"))?;
            w.claim(extent)?;
            stats.samples_skipped += 1;
            stats.blocks_skipped += chroms.len() as u64;
            stats.bytes_skipped += extent;
            continue;
        }
        stats.samples_read += 1;
        let mut wanted = Vec::new();
        for entry in &chroms {
            let offset = w.pos;
            w.claim(entry.bytes)?;
            if wants(&entry.chrom) {
                let len = usize::try_from(entry.bytes)
                    .map_err(|_| corrupt_at(offset, "block extent exceeds usize"))?;
                stats.blocks_read += 1;
                stats.bytes_read += entry.bytes;
                wanted.push(WantedBlock {
                    chrom: interner.intern(&entry.chrom),
                    regions: entry.regions,
                    crc: entry.crc,
                    offset,
                    len,
                });
            } else {
                stats.blocks_skipped += 1;
                stats.bytes_skipped += entry.bytes;
            }
        }
        on_sample(SampleScan { name, metadata, chroms, wanted });
    }
    Ok((header, stats))
}

/// Read only the index of a dataset directory's v2 container (schema,
/// sample names and metadata, per-chromosome region counts, byte extents
/// and checksums): every block is stepped over, none is read or decoded.
pub fn read_index(dir: &Path) -> Result<V2Index, FormatError> {
    read_index_from(&fs::File::open(dir.join(CONTAINER_FILE))?)
}

/// The `admit` of a read that leaves no sample out.
pub(super) fn admit_all(_name: &str, _metadata: &Metadata) -> bool {
    true
}

/// [`read_index`] of a container already open, or held in memory: the
/// index of exactly the bytes `src` holds.
pub fn read_index_from<S: ContainerSource + ?Sized>(src: &S) -> Result<V2Index, FormatError> {
    let mut samples = Vec::new();
    let (header, _) = walk_container(
        src,
        admit_all,
        |_| false,
        |scan| {
            samples.push(SampleIndexEntry {
                name: scan.name,
                metadata: scan.metadata,
                chroms: scan.chroms,
            })
        },
    )?;
    Ok(V2Index { name: header.name, schema: header.schema, samples })
}
