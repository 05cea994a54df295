//! GDM native on-disk format, version 2: binary columnar storage.
//!
//! Version 1 ([`crate::native`]) keeps a dataset as text TSV files that
//! must be re-tokenised and re-parsed on every cold read. Version 2
//! stores the same logical content — schema, per-sample regions and
//! metadata — in a single binary container designed around how region
//! data is actually shaped: sorted coordinates compress well as deltas,
//! strands fit in two bits, and a column of one declared type decodes
//! without per-cell dispatch.
//!
//! ```text
//! <dataset>/
//!   data.gdm2             # the whole dataset, one container file
//! ```
//!
//! ## Container layout
//!
//! All integers are LEB128 varints unless stated otherwise; `str` means
//! varint byte length followed by UTF-8 bytes.
//!
//! ```text
//! magic           8 bytes  "NGGCGDM2"
//! version         1 byte   (3)
//! dataset name    str
//! schema          varint n_attrs, then per attribute: str name, u8 type tag
//! sample count    varint
//! per sample:
//!   name          str
//!   metadata      varint n_pairs, then per pair: str key, str value
//!   chrom index   varint n_chroms, then per chromosome:
//!                   str name, varint n_regions, varint block_bytes,
//!                   u32 LE CRC32C of the chromosome block
//!   chrom blocks  back-to-back, in index order
//! trailer         u32 LE CRC32C over every preceding byte of the file
//! ```
//!
//! The chromosome index doubles as an offset table: `block_bytes` lets a
//! reader *skip* any chromosome without decoding it. A sample's name and
//! metadata sit in front of its index and blocks, so a reader can decide
//! on them whether the sample is wanted at all and pass over every block
//! of one that is not in a single skip.
//!
//! ## Readers
//!
//! One entry point per use: [`read_dataset_auto`] reads a dataset
//! directory whole (its container, or a v1 text directory),
//! [`decode_dataset_v2`] a whole container in memory,
//! [`decode_dataset_v2_pruned`] a part of one, [`materialize_dataset_v2_from`]
//! a part of a container file — chromosomes, columns, samples, and rows
//! of a coordinate window — without reading the rest, [`read_index`] the
//! index alone, and [`decode_outputs`] a query's framed outputs. Every
//! container read is the same walk of the container.
//!
//! A read does its per-region work once, in parallel: one thread walks
//! the header and the per-sample indexes and decides which samples and
//! blocks are wanted, then one decode job per admitted sample reads that
//! sample's wanted blocks itself ([`ContainerSource`]: one positional read
//! per run of adjacent blocks from a file, a borrow from bytes in
//! memory), verifies their checksums, decodes them into a columnar
//! [`RegionBatch`], checks it against the schema and sizes it from its
//! columns. A sample comes back with its encoded size remembered
//! ([`nggc_gdm::Regions`]), so nothing after the read walks it again to
//! size it, and as a batch-backed buffer that builds rows only when
//! something asks for them — or, for a dataset that goes resident
//! ([`Layout::Rows`]), with its rows built in the job and the batch let
//! go.
//!
//! ## Checksums
//!
//! Each chromosome index entry carries a CRC32C (Castagnoli) of its
//! block, and the file ends with a CRC32C trailer covering every
//! preceding byte. Verification is *lazy per section read*: a full
//! decode checks the trailer up front, a pruned read checks only the
//! blocks it actually decodes — a flipped bit in one chromosome fails
//! that chromosome's read with [`FormatError::ChecksumMismatch`] while
//! every other section of the same container stays readable, and a read
//! that refuses a sample checks none of that sample's blocks. Every
//! reader refuses a version byte other than [`VERSION`]: the
//! checksum-free revision 2 of earlier releases is no longer read, so no
//! flipped bit can turn a checksummed container into one read unchecked.
//!
//! ## Chromosome block encoding
//!
//! Regions of one chromosome are stored column-major:
//!
//! 1. **lefts** — zigzag varint deltas from the previous left (first
//!    delta from 0). Sorted input makes these small positive numbers;
//!    zigzag keeps unsorted input safe.
//! 2. **lengths** — varint `right - left` per region (never negative by
//!    the [`GRegion`] invariant).
//! 3. **strands** — 2 bits per region (`0=+`, `1=-`, `2=*`), packed
//!    four per byte.
//! 4. **value columns**, one per schema attribute, each a null bitmap
//!    (1 bit per region) followed by the non-null payloads in row
//!    order: `int` as zigzag varint, `float` as 8 raw little-endian
//!    bytes (NaN-exact), `bool` packed 8 per byte, `string` as `str`.
//!
//! Type tags: `0=int`, `1=float`, `2=string`, `3=bool`.

use crate::error::FormatError;
use crate::native;
use nggc_engine::WorkerPool;
use nggc_gdm::{
    Attribute, Chrom, ChromInterner, Column, Dataset, GRegion, Metadata, RegionBatch, Sample,
    Schema, Strand, Value, ValueRef, ValueType,
};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::OnceLock;

/// Shared worker pool for block decoding. Sized to the machine once and
/// reused across every decode so concurrent loads don't oversubscribe
/// the CPU with nested pools.
static DECODE_POOL: OnceLock<WorkerPool> = OnceLock::new();

fn decode_pool() -> &'static WorkerPool {
    DECODE_POOL.get_or_init(WorkerPool::with_default_size)
}

/// What a pruned read should decode: which chromosome blocks and which
/// value columns. `None` means "everything" for either axis, so the
/// default options describe a full read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOptions {
    /// Chromosomes to decode; blocks for any other chromosome are
    /// skipped via the offset index. `None` decodes every chromosome.
    pub chroms: Option<BTreeSet<String>>,
    /// Value columns to decode, matched case-insensitively against the
    /// schema. Skipped columns are filled with [`Value::Null`] so the
    /// schema (and every region's value arity) stays stable. `None`
    /// decodes every column.
    pub columns: Option<BTreeSet<String>>,
}

impl ScanOptions {
    /// True when the options restrict neither chromosomes nor columns —
    /// a pruned read with full options is exactly a full read.
    pub fn is_full(&self) -> bool {
        self.chroms.is_none() && self.columns.is_none()
    }

    fn wants_chrom(&self, chrom: &str) -> bool {
        self.chroms.as_ref().is_none_or(|set| set.contains(chrom))
    }
}

/// What a pruned read builds of the blocks [`ScanOptions`] has it decode:
/// late materialization. The decoder still parses every region and cell
/// of a decoded block — the cursor has to cross them — but keeps only a
/// region whose `left` lies in `lo..=hi`, and gives it a cell only for
/// the columns in `width`. The default keeps every region at full
/// width, as a read with [`ScanOptions`] alone does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Materialize {
    /// Build only regions with `left >= lo`; `None` = no lower bound.
    pub lo: Option<u64>,
    /// Build only regions with `left <= hi`; `None` = no upper bound.
    pub hi: Option<u64>,
    /// The columns the read's schema keeps, matched case-insensitively
    /// and kept in stored order; a row has a cell for each of them and
    /// for no other. `None` keeps every stored column (those
    /// [`ScanOptions::columns`] leaves out as typed nulls).
    pub width: Option<BTreeSet<String>>,
}

/// What a read hands each sample's regions on as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A batch-backed buffer ([`nggc_gdm::Regions`]): the columns the
    /// decode job filled, rows built only when something asks for them.
    Batches,
    /// Rows, built in the decode job, the batch let go: for a dataset
    /// that stays resident, so its memory is what it was when every read
    /// built rows.
    Rows,
}

/// What a pruned read actually touched, for observability: block and
/// byte counts of decoded vs skipped chromosome blocks, the samples
/// admitted and refused, plus the total container size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chromosome blocks decoded.
    pub blocks_read: u64,
    /// Chromosome blocks skipped via the offset index, those of refused
    /// samples included.
    pub blocks_skipped: u64,
    /// Bytes of chromosome blocks decoded.
    pub bytes_read: u64,
    /// Bytes of chromosome blocks skipped without decoding.
    pub bytes_skipped: u64,
    /// Samples admitted: present in the dataset read.
    pub samples_read: u64,
    /// Samples refused on their name and metadata: absent from the
    /// dataset read, none of their blocks fetched.
    pub samples_skipped: u64,
    /// Regions of decoded blocks that were parsed but not kept: outside
    /// [`Materialize`]'s coordinate window.
    pub rows_skipped: u64,
    /// Value cells of the regions the read kept, typed nulls included:
    /// the kept regions times the width of the read's schema. A typed
    /// null of a pruned column costs a batch no storage.
    pub cells: u64,
    /// Of [`ScanStats::cells`], those holding a value decoded from the
    /// container rather than a typed null.
    pub cells_decoded: u64,
    /// Total size of the container file in bytes.
    pub container_bytes: u64,
}

/// Magic bytes opening every v2 container.
pub const MAGIC: &[u8; 8] = b"NGGCGDM2";

/// The one header revision written and read: per-block CRC32C plus a
/// whole-file trailer checksum.
pub const VERSION: u8 = 3;

/// Container file name inside a dataset directory.
pub const CONTAINER_FILE: &str = "data.gdm2";

/// Which on-disk layout a dataset directory uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageVersion {
    /// Text TSV side-by-side files (`schema.gdm` + `files/*.gdm`).
    V1,
    /// Binary columnar container (`data.gdm2`).
    V2,
}

impl StorageVersion {
    /// Short name for logs and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            StorageVersion::V1 => "v1",
            StorageVersion::V2 => "v2",
        }
    }
}

/// Detect the storage version of a dataset directory by magic bytes:
/// a `data.gdm2` file starting with [`MAGIC`] means v2, a `schema.gdm`
/// file means v1, anything else is unrecognised.
pub fn detect_version(dir: &Path) -> Option<StorageVersion> {
    let container = dir.join(CONTAINER_FILE);
    if let Ok(mut f) = fs::File::open(&container) {
        let mut head = [0u8; 8];
        if f.read_exact(&mut head).is_ok() && &head == MAGIC {
            return Some(StorageVersion::V2);
        }
    }
    if dir.join("schema.gdm").exists() {
        return Some(StorageVersion::V1);
    }
    None
}

/// Read a whole dataset directory in whichever storage version it holds:
/// its v2 container when it has one (its samples in `layout`), else its
/// v1 text files (as rows). Returns the version read and the bytes read
/// for it. The container is opened once; there is no separate probe of
/// its version.
pub fn read_dataset_auto(
    dir: &Path,
    layout: Layout,
) -> Result<(Dataset, StorageVersion, u64), FormatError> {
    match fs::read(dir.join(CONTAINER_FILE)) {
        Ok(buf) => Ok((decode_full(&buf, layout)?, StorageVersion::V2, buf.len() as u64)),
        Err(e) if e.kind() == io::ErrorKind::NotFound && dir.join("schema.gdm").exists() => {
            let (dataset, bytes) = native::read_dataset_counted(dir)?;
            Ok((dataset, StorageVersion::V1, bytes))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Err(FormatError::UnknownFormat(format!(
            "{}: neither a v2 container nor a v1 native dataset",
            dir.display()
        ))),
        Err(e) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli)
// ---------------------------------------------------------------------------

const fn crc32c_table() -> [u32; 256] {
    // Reflected Castagnoli polynomial, the iSCSI/ext4 variant.
    const POLY: u32 = 0x82f6_3b78;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32C_TABLE: [u32; 256] = crc32c_table();

/// CRC32C one byte at a time through the lookup table: what runs where
/// the CPU has no CRC32C instruction, and the reference the hardware
/// path is tested against.
fn crc32c_table_loop(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// CRC32C through the CPU's own CRC32C instruction (SSE4.2 on x86_64,
/// detected at run time), eight bytes a step; `None` where there is no
/// such instruction. The instruction implements the same reflected
/// Castagnoli polynomial as the table, so both give the same value.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn crc32c_hardware(bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

        #[target_feature(enable = "sse4.2")]
        fn sse42(bytes: &[u8]) -> u32 {
            let mut words = bytes.chunks_exact(8);
            let mut crc = u64::from(!0u32);
            for word in &mut words {
                crc = _mm_crc32_u64(crc, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
            let mut crc = crc as u32;
            for &b in words.remainder() {
                crc = _mm_crc32_u8(crc, b);
            }
            !crc
        }

        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `sse42` is safe code whose only requirement is that
            // the CPU executes SSE4.2 instructions, which the run-time
            // detection on the line above has just established.
            return Some(unsafe { sse42(bytes) });
        }
    }
    None
}

/// CRC32C (Castagnoli) of `bytes` — the checksum revision-3 containers
/// store per chromosome block and as the whole-file trailer.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_hardware(bytes).unwrap_or_else(|| crc32c_table_loop(bytes))
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A LEB128 varint holds at most ten bytes of a `u64`.
const VARINT_MAX_BYTES: usize = 10;

/// Byte cursor over one chromosome block, with offset-carrying decode
/// errors. `base` is where the block starts in its container, so errors
/// report container offsets whether the block is a slice of an in-memory
/// container or an extent read from a file.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], base: u64) -> Cursor<'a> {
        Cursor { buf, pos: 0, base }
    }

    fn corrupt(&self, reason: impl Into<String>) -> FormatError {
        corrupt_at(self.base + self.pos as u64, reason)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt(format!("need {n} bytes past end of block")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// One varint, read off the slice: a single bounds check up front
    /// instead of one per byte.
    fn varint(&mut self) -> Result<u64, FormatError> {
        let rest = &self.buf[self.pos..];
        let mut v: u64 = 0;
        for (i, &byte) in rest.iter().take(VARINT_MAX_BYTES).enumerate() {
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        self.pos += rest.len().min(VARINT_MAX_BYTES);
        Err(self.corrupt(if rest.len() < VARINT_MAX_BYTES {
            "need 1 bytes past end of block"
        } else {
            "varint longer than 64 bits"
        }))
    }

    fn len_prefixed(&mut self, what: &str) -> Result<usize, FormatError> {
        let n = self.varint()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| self.corrupt(format!("{what} length {n} exceeds block size")))
    }

    fn str(&mut self) -> Result<&'a str, FormatError> {
        let n = self.len_prefixed("string")?;
        let bytes = self.bytes(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("invalid UTF-8 string"))
    }

    fn skip(&mut self, n: usize) -> Result<(), FormatError> {
        self.bytes(n).map(|_| ())
    }
}

fn corrupt_at(offset: u64, reason: impl Into<String>) -> FormatError {
    FormatError::Corrupt {
        offset: usize::try_from(offset).unwrap_or(usize::MAX),
        reason: reason.into(),
    }
}

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

/// A [`ContainerSource`] read front to back, for the walk over the header
/// and the indexes.
struct Sequential<'a, S: ?Sized> {
    src: &'a S,
    pos: u64,
    len: u64,
}

impl<'a, S: ContainerSource + ?Sized> Sequential<'a, S> {
    fn new(src: &'a S) -> io::Result<Sequential<'a, S>> {
        Ok(Sequential { src, pos: 0, len: src.size()? })
    }
}

impl<S: ContainerSource + ?Sized> Read for Sequential<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n =
            buf.len().min(usize::try_from(self.len.saturating_sub(self.pos)).unwrap_or(usize::MAX));
        self.src.read_exact_at(&mut buf[..n], self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl<S: ContainerSource + ?Sized> Seek for Sequential<'_, S> {
    fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
        let pos = match to {
            SeekFrom::Start(n) => Some(n),
            SeekFrom::End(d) => self.len.checked_add_signed(d),
            SeekFrom::Current(d) => self.pos.checked_add_signed(d),
        };
        self.pos = pos.ok_or_else(|| io::Error::from(io::ErrorKind::InvalidInput))?;
        Ok(self.pos)
    }
}

/// Sequential reader over a whole container. The header and the
/// per-sample indexes are parsed through it; the chromosome blocks are
/// skipped with a seek and left to the decode jobs, so the walk itself
/// reads no block.
///
/// Every read and skip is first checked against the container length:
/// truncation and extents that point past the end fail as
/// [`FormatError::Corrupt`] before any I/O, and no allocation is sized
/// from a length the container cannot hold.
struct Walker<R> {
    src: R,
    /// Offset of the next unread byte.
    pos: u64,
    len: u64,
    /// Bytes skipped but not yet seeked over: runs of unwanted blocks
    /// cost one seek, and a trailing run none at all.
    pending_skip: u64,
}

impl<R: Read + Seek> Walker<R> {
    fn new(mut src: R) -> Result<Walker<R>, FormatError> {
        let len = src.seek(SeekFrom::End(0))?;
        src.rewind()?;
        Ok(Walker { src, pos: 0, len, pending_skip: 0 })
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

    fn skip(&mut self, n: u64) -> Result<(), FormatError> {
        self.claim(n)?;
        self.pending_skip += n;
        Ok(())
    }

    /// Claim the next `n` bytes and hand out the source positioned at the
    /// first of them, for the caller to consume exactly those.
    fn source_for(&mut self, n: u64) -> Result<&mut R, FormatError> {
        self.claim(n)?;
        if self.pending_skip > 0 {
            let offset = i64::try_from(self.pending_skip)
                .map_err(|_| self.corrupt("block extents exceed i64"))?;
            self.src.seek_relative(offset)?;
            self.pending_skip = 0;
        }
        Ok(&mut self.src)
    }

    fn fill(&mut self, out: &mut [u8]) -> Result<(), FormatError> {
        self.source_for(out.len() as u64)?.read_exact(out)?;
        Ok(())
    }

    /// The next `n` bytes, allocated only once the container is known to
    /// hold them.
    fn take(&mut self, n: usize) -> Result<Vec<u8>, FormatError> {
        let mut bytes = vec![0u8; n];
        self.fill(&mut bytes)?;
        Ok(bytes)
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
        let n = self.len_prefixed("string")?;
        String::from_utf8(self.take(n)?).map_err(|_| self.corrupt("invalid UTF-8 string"))
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
    }
}

fn type_from_tag(tag: u8) -> Option<ValueType> {
    match tag {
        0 => Some(ValueType::Int),
        1 => Some(ValueType::Float),
        2 => Some(ValueType::Str),
        3 => Some(ValueType::Bool),
        _ => None,
    }
}

fn strand_bits(s: Strand) -> u8 {
    match s {
        Strand::Pos => 0,
        Strand::Neg => 1,
        Strand::Unstranded => 2,
    }
}

fn strand_from_bits(bits: u8) -> Option<Strand> {
    match bits {
        0 => Some(Strand::Pos),
        1 => Some(Strand::Neg),
        2 => Some(Strand::Unstranded),
        _ => None,
    }
}

/// Encode one chromosome's regions (all sharing a chromosome) into a
/// column-major block.
fn encode_chrom_block(
    regions: &[&GRegion],
    schema: &Schema,
    out: &mut Vec<u8>,
) -> Result<(), FormatError> {
    // Column 1: lefts as zigzag deltas.
    let mut prev: i64 = 0;
    for r in regions {
        let left = i64::try_from(r.left)
            .map_err(|_| FormatError::Corrupt { offset: 0, reason: "left exceeds i64".into() })?;
        put_varint(out, zigzag(left - prev));
        prev = left;
    }
    // Column 2: lengths.
    for r in regions {
        put_varint(out, r.right - r.left);
    }
    // Column 3: strands, 2 bits each.
    let mut byte = 0u8;
    for (i, r) in regions.iter().enumerate() {
        byte |= strand_bits(r.strand) << ((i % 4) * 2);
        if i % 4 == 3 {
            out.push(byte);
            byte = 0;
        }
    }
    if !regions.is_empty() && !regions.len().is_multiple_of(4) {
        out.push(byte);
    }
    // Value columns: null bitmap + typed payload.
    for (col, attr) in schema.attributes().iter().enumerate() {
        let mut bitmap = vec![0u8; regions.len().div_ceil(8)];
        for (i, r) in regions.iter().enumerate() {
            let v = r.values.get(col).unwrap_or(&Value::Null);
            if v.is_null() {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bitmap);
        match attr.ty {
            ValueType::Int => {
                for r in regions {
                    match r.values.get(col).unwrap_or(&Value::Null) {
                        Value::Int(v) => put_varint(out, zigzag(*v)),
                        Value::Null => {}
                        other => return Err(column_type_error(&attr.name, other)),
                    }
                }
            }
            ValueType::Float => {
                for r in regions {
                    match r.values.get(col).unwrap_or(&Value::Null) {
                        Value::Float(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
                        Value::Null => {}
                        other => return Err(column_type_error(&attr.name, other)),
                    }
                }
            }
            ValueType::Bool => {
                let mut bits = Vec::new();
                for r in regions {
                    match r.values.get(col).unwrap_or(&Value::Null) {
                        Value::Bool(v) => bits.push(*v),
                        Value::Null => {}
                        other => return Err(column_type_error(&attr.name, other)),
                    }
                }
                let mut byte = 0u8;
                for (i, b) in bits.iter().enumerate() {
                    if *b {
                        byte |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        out.push(byte);
                        byte = 0;
                    }
                }
                if !bits.is_empty() && bits.len() % 8 != 0 {
                    out.push(byte);
                }
            }
            ValueType::Str => {
                for r in regions {
                    match r.values.get(col).unwrap_or(&Value::Null) {
                        Value::Str(s) => put_str(out, s),
                        Value::Null => {}
                        other => return Err(column_type_error(&attr.name, other)),
                    }
                }
            }
        }
    }
    Ok(())
}

fn column_type_error(attr: &str, value: &Value) -> FormatError {
    FormatError::Corrupt {
        offset: 0,
        reason: format!("column {attr:?} cannot encode a {value:?} value"),
    }
}

/// Serialise a whole dataset into container bytes at header revision
/// [`VERSION`]: per-block CRC32C entries plus a whole-file trailer
/// checksum.
pub fn encode_dataset_v2(dataset: &Dataset) -> Result<Vec<u8>, FormatError> {
    let mut out = Vec::with_capacity(64 * 1024);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_str(&mut out, &dataset.name);
    // Schema block.
    put_varint(&mut out, dataset.schema.len() as u64);
    for a in dataset.schema.attributes() {
        put_str(&mut out, &a.name);
        out.push(type_tag(a.ty));
    }
    put_varint(&mut out, dataset.samples.len() as u64);
    for sample in &dataset.samples {
        put_str(&mut out, &sample.name);
        // Metadata pairs.
        let pairs: Vec<(&str, &str)> = sample.metadata.iter().collect();
        put_varint(&mut out, pairs.len() as u64);
        for (k, v) in pairs {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        // Group regions per chromosome, preserving first-appearance order
        // (identical to region order for sorted samples).
        let mut chrom_order: Vec<&Chrom> = Vec::new();
        let mut groups: Vec<Vec<&GRegion>> = Vec::new();
        // Group of the previous region: a sorted sample changes group
        // only at a chromosome boundary.
        let mut current = 0;
        for r in sample.regions.iter() {
            if chrom_order.get(current) != Some(&&r.chrom) {
                current = chrom_order.iter().position(|c| **c == r.chrom).unwrap_or_else(|| {
                    chrom_order.push(&r.chrom);
                    groups.push(Vec::new());
                    groups.len() - 1
                });
            }
            groups[current].push(r);
        }
        // Encode blocks first so the index can carry byte lengths.
        let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut block = Vec::new();
            encode_chrom_block(group, &dataset.schema, &mut block)?;
            blocks.push(block);
        }
        put_varint(&mut out, chrom_order.len() as u64);
        for ((chrom, group), block) in chrom_order.iter().zip(&groups).zip(&blocks) {
            put_str(&mut out, chrom.as_str());
            put_varint(&mut out, group.len() as u64);
            put_varint(&mut out, block.len() as u64);
            out.extend_from_slice(&crc32c(block).to_le_bytes());
        }
        for block in &blocks {
            out.extend_from_slice(block);
        }
    }
    let trailer = crc32c(&out);
    out.extend_from_slice(&trailer.to_le_bytes());
    Ok(out)
}

/// Serialise a query's outputs as one byte stream: for each output, in
/// name order, its container's length as a `u64` LE and then the
/// container, which names the output (the key of each dataset is its
/// name). The federation stages a result in this form and the on-disk
/// result store keeps it; [`decode_outputs`] reverses it.
pub fn encode_outputs(outputs: &HashMap<String, Dataset>) -> Result<Vec<u8>, FormatError> {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        debug_assert_eq!(&outputs[name].name, name, "an output is keyed by its name");
        let container = encode_dataset_v2(&outputs[name])?;
        out.extend_from_slice(&(container.len() as u64).to_le_bytes());
        out.extend_from_slice(&container);
    }
    Ok(out)
}

/// Write a dataset to `dir` as a v2 binary container, creating
/// directories. Returns the container size in bytes.
pub fn write_dataset_v2(dataset: &Dataset, dir: &Path) -> Result<u64, FormatError> {
    let bytes = encode_dataset_v2(dataset)?;
    fs::create_dir_all(dir)?;
    fs::write(dir.join(CONTAINER_FILE), &bytes)?;
    Ok(bytes.len() as u64)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode one chromosome block and append the regions `plan` builds of
/// it to `out`. Every region and cell is parsed — the cursor must land
/// exactly at the block's end, and a corrupt field fails the block whether
/// its region is built or not — but only a region inside the plan's window
/// is appended, and only a column the plan keeps gets its cell: a decoded
/// value, or a typed null where the column is pruned but keeps its
/// position. The block's regions form one run of `chrom`.
fn decode_chrom_block(
    cur: &mut Cursor<'_>,
    chrom: &Chrom,
    n: usize,
    plan: &RowPlan,
    out: &mut RegionBatch,
) -> Result<(), FormatError> {
    // Each region contributes at least one byte (its left-delta varint),
    // so a count beyond the remaining bytes is corrupt — reject it before
    // sizing any allocation from it.
    if n > cur.remaining() {
        return Err(cur.corrupt(format!("region count {n} exceeds remaining block bytes")));
    }
    // Coordinates. The strands sit behind both coordinate columns, so a
    // region can be appended only once all three have been located.
    let mut coords: Vec<(u64, u64)> = Vec::with_capacity(n);
    let mut prev: i64 = 0;
    for _ in 0..n {
        let delta = unzigzag(cur.varint()?);
        prev =
            prev.checked_add(delta).ok_or_else(|| cur.corrupt("left coordinate overflows i64"))?;
        if prev < 0 {
            return Err(cur.corrupt("negative left coordinate"));
        }
        coords.push((prev as u64, 0));
    }
    for (left, right) in &mut coords {
        let len = cur.varint()?;
        *right =
            left.checked_add(len).ok_or_else(|| cur.corrupt("right coordinate overflows u64"))?;
    }
    let strands = cur.bytes(n.div_ceil(4))?;
    out.reserve(coords.iter().filter(|&&(left, _)| plan.builds(left)).count());
    for (i, &(left, right)) in coords.iter().enumerate() {
        let bits = (strands[i / 4] >> ((i % 4) * 2)) & 0b11;
        let strand = strand_from_bits(bits)
            .ok_or_else(|| cur.corrupt(format!("invalid strand bits {bits}")))?;
        if plan.builds(left) {
            out.push_coords(left, right, strand);
        }
    }
    // Value columns, in stored order; `columns` walks those the read
    // keeps, in the same order. `built` walks the stored regions: whether
    // region `i` was appended and takes its cell.
    let built = || coords.iter().map(|&(left, _)| plan.builds(left)).enumerate();
    let mut columns = out.columns_mut().iter_mut();
    for (attr, cell) in plan.stored.attributes().iter().zip(&plan.cells) {
        let bitmap = cur.bytes(n.div_ceil(8))?;
        let is_null = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
        if *cell != Cell::Decoded {
            skip_column_payload(cur, attr.ty, n, bitmap)?;
            if *cell == Cell::Null {
                // An all-null column takes no cells.
                columns.next().expect("a column per kept attribute");
            }
            continue;
        }
        let column = columns.next().expect("a column per kept attribute");
        match attr.ty {
            ValueType::Int => {
                for (i, build) in built() {
                    let v = if is_null(i) {
                        ValueRef::Null
                    } else {
                        ValueRef::Int(unzigzag(cur.varint()?))
                    };
                    if build {
                        column.push(v);
                    }
                }
            }
            ValueType::Float => {
                let mut floats = packed_payload(cur, attr.ty, n, bitmap)?.chunks_exact(8);
                for (i, build) in built() {
                    let v = if is_null(i) {
                        ValueRef::Null
                    } else {
                        let raw = floats.next().expect("one payload per non-null row");
                        ValueRef::Float(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
                    };
                    if build {
                        column.push(v);
                    }
                }
            }
            ValueType::Bool => {
                let packed = packed_payload(cur, attr.ty, n, bitmap)?;
                let mut k = 0usize;
                for (i, build) in built() {
                    let v = if is_null(i) {
                        ValueRef::Null
                    } else {
                        let b = packed[k / 8] & (1 << (k % 8)) != 0;
                        k += 1;
                        ValueRef::Bool(b)
                    };
                    if build {
                        column.push(v);
                    }
                }
            }
            ValueType::Str => {
                for (i, build) in built() {
                    match (is_null(i), build) {
                        (true, true) => column.push_null(),
                        (true, false) => {}
                        (false, true) => column.push(ValueRef::Str(cur.str()?)),
                        (false, false) => {
                            let len = cur.len_prefixed("string")?;
                            cur.skip(len)?;
                        }
                    }
                }
            }
        }
    }
    out.end_run(chrom);
    Ok(())
}

/// Rows of `n` the null bitmap marks non-null. The bits past row `n` in
/// the last byte are padding and do not count, whatever they hold.
fn non_null(bitmap: &[u8], n: usize) -> usize {
    let nulls: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    let pad = match (n % 8, bitmap.last()) {
        (0, _) | (_, None) => 0,
        (tail, Some(last)) => (last >> tail).count_ones() as usize,
    };
    n - (nulls - pad)
}

/// The payload of a fixed-width column, whose size follows from the null
/// bitmap alone: 8 bytes per non-null `float`, 1 bit per non-null `bool`.
fn packed_payload<'a>(
    cur: &mut Cursor<'a>,
    ty: ValueType,
    n: usize,
    bitmap: &[u8],
) -> Result<&'a [u8], FormatError> {
    let non_null = non_null(bitmap, n);
    let len = match ty {
        ValueType::Float => non_null
            .checked_mul(8)
            .ok_or_else(|| cur.corrupt("float column payload overflows usize"))?,
        _ => non_null.div_ceil(8),
    };
    cur.bytes(len)
}

/// Advance the cursor past one column's payload without materialising
/// values. The null bitmap has already been consumed.
fn skip_column_payload(
    cur: &mut Cursor<'_>,
    ty: ValueType,
    n: usize,
    bitmap: &[u8],
) -> Result<(), FormatError> {
    let is_null = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
    match ty {
        ValueType::Int => {
            for i in 0..n {
                if !is_null(i) {
                    cur.varint()?;
                }
            }
        }
        ValueType::Float | ValueType::Bool => {
            packed_payload(cur, ty, n, bitmap)?;
        }
        ValueType::Str => {
            for i in 0..n {
                if !is_null(i) {
                    let len = cur.len_prefixed("string")?;
                    cur.skip(len)?;
                }
            }
        }
    }
    Ok(())
}

/// What every reader learns from a container's first bytes.
struct Header {
    name: String,
    schema: Schema,
}

impl<R: Read + Seek> Walker<R> {
    /// Magic and version byte; errors on any revision but [`VERSION`].
    fn version(&mut self) -> Result<(), FormatError> {
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

/// Verify the whole-file CRC32C trailer of a container.
fn verify_trailer(buf: &[u8]) -> Result<(), FormatError> {
    // 8 magic + 1 version + 4 trailer is the absolute minimum.
    if buf.len() < 13 {
        return Err(FormatError::Corrupt {
            offset: buf.len(),
            reason: "container too short to hold a checksum trailer".into(),
        });
    }
    let body = &buf[..buf.len() - 4];
    let expected = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
    let got = crc32c(body);
    if got != expected {
        return Err(FormatError::ChecksumMismatch { section: "file".into(), expected, got });
    }
    Ok(())
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

/// What a read makes of one stored column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Decoded into a cell of every row built.
    Decoded,
    /// A typed null in every row built: pruned, but keeping its position.
    Null,
    /// No cell at all: outside the read's schema.
    Absent,
}

/// How one read builds its rows, worked out once from the stored schema,
/// the [`ScanOptions`] and the [`Materialize`]: what every stored column
/// becomes, the schema the rows follow, and the window of `left` a region
/// must lie in to become a row.
struct RowPlan {
    stored: Schema,
    cells: Vec<Cell>,
    /// The stored attributes that are not [`Cell::Absent`], in order.
    schema: Schema,
    lo: u64,
    hi: u64,
}

impl RowPlan {
    fn new(stored: Schema, opts: &ScanOptions, build: &Materialize) -> RowPlan {
        // Case-insensitive membership; `None` names every column.
        let lowered = |set: &Option<BTreeSet<String>>| {
            set.as_ref().map(|s| s.iter().map(|c| c.to_ascii_lowercase()).collect::<BTreeSet<_>>())
        };
        let (wanted, width) = (lowered(&opts.columns), lowered(&build.width));
        let names = |set: &Option<BTreeSet<String>>, attr: &Attribute| {
            set.as_ref().is_none_or(|s| s.contains(&attr.name.to_ascii_lowercase()))
        };
        let cells: Vec<Cell> = stored
            .attributes()
            .iter()
            .map(|a| match (names(&width, a), names(&wanted, a)) {
                (false, _) => Cell::Absent,
                (true, true) => Cell::Decoded,
                (true, false) => Cell::Null,
            })
            .collect();
        let schema = if width.is_none() {
            stored.clone()
        } else {
            let kept = stored.attributes().iter().zip(&cells).filter(|(_, c)| **c != Cell::Absent);
            Schema::new(kept.map(|(a, _)| a.clone()).collect())
                .expect("a subset of a valid schema is valid")
        };
        RowPlan {
            stored,
            cells,
            schema,
            lo: build.lo.unwrap_or(0),
            hi: build.hi.unwrap_or(u64::MAX),
        }
    }

    /// Whether a region starting at `left` is built.
    fn builds(&self, left: u64) -> bool {
        self.lo <= left && left <= self.hi
    }

    /// An empty batch with a column per attribute of the read's schema,
    /// room for `capacity` regions in each decoded one.
    fn batch(&self, capacity: usize) -> RegionBatch {
        let columns = (self.stored.attributes().iter().zip(&self.cells))
            .filter_map(|(attr, cell)| match cell {
                Cell::Decoded => Some(Column::with_capacity(attr.ty, capacity)),
                Cell::Null => Some(Column::nulls()),
                Cell::Absent => None,
            })
            .collect();
        let mut batch = RegionBatch::new(columns);
        batch.reserve(capacity);
        batch
    }
}

/// One chromosome block a walk found wanted: where it lies in the
/// container, which the container length has already vouched for.
struct WantedBlock {
    /// Interned per walk: equal names share one handle across samples.
    chrom: Chrom,
    regions: u64,
    crc: u32,
    offset: u64,
    len: usize,
}

impl WantedBlock {
    fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

/// What a walk hands over per sample: its index entry in full, and the
/// blocks the caller asked for.
struct SampleScan {
    name: String,
    metadata: Metadata,
    chroms: Vec<ChromIndexEntry>,
    wanted: Vec<WantedBlock>,
}

/// The one walk over a container that every reader shares: parse the
/// header, then per sample its index; a sample `admit` refuses on its
/// name and metadata is passed over whole — one skip for all its blocks,
/// `on_sample` not called. Of an admitted sample, note where the blocks
/// `wants` names lie and hand the sample to `on_sample`. The walk reads
/// no block: it seeks over every one, and the caller fetches the wanted.
fn walk_container<S: ContainerSource + ?Sized>(
    src: &S,
    mut admit: impl FnMut(&str, &Metadata) -> bool,
    wants: impl Fn(&str) -> bool,
    mut on_sample: impl FnMut(SampleScan),
) -> Result<(Header, ScanStats), FormatError> {
    let mut w = Walker::new(BufReader::new(Sequential::new(src)?))?;
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
            w.skip(extent)?;
            stats.samples_skipped += 1;
            stats.blocks_skipped += chroms.len() as u64;
            stats.bytes_skipped += extent;
            continue;
        }
        stats.samples_read += 1;
        let mut wanted = Vec::new();
        for entry in &chroms {
            let offset = w.pos;
            w.skip(entry.bytes)?;
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

/// Fetch a sample's wanted blocks from `src` — one read per run of
/// adjacent blocks — and decode them, in stored order, straight into one
/// batch sized for all of them. With `verify` each block's CRC32C is
/// checked first.
fn decode_blocks<S: ContainerSource + ?Sized>(
    src: &S,
    sample: &str,
    wanted: &[WantedBlock],
    plan: &RowPlan,
    verify: bool,
) -> Result<RegionBatch, FormatError> {
    // A block holds at most one region per byte (`decode_chrom_block`
    // rejects more), which bounds the reservation by the bytes wanted.
    // Under a window the blocks reserve what they build, one by one.
    let total: u64 = wanted.iter().map(|b| b.regions.min(b.len as u64)).sum();
    let windowed = (plan.lo, plan.hi) != (0, u64::MAX);
    let mut batch = plan.batch(if windowed { 0 } else { total as usize });
    for run in wanted.chunk_by(|a, b| a.end() == b.offset) {
        let (first, last) = (&run[0], &run[run.len() - 1]);
        let len = usize::try_from(last.end() - first.offset)
            .map_err(|_| corrupt_at(first.offset, "block extents exceed usize"))?;
        let fetched = src.extent(first.offset, len).map_err(|e| match e.kind() {
            // The container shrank since its length was taken.
            io::ErrorKind::UnexpectedEof => {
                corrupt_at(first.offset, format!("need {len} bytes past end of container"))
            }
            _ => FormatError::Io(e),
        })?;
        let mut rest: &[u8] = &fetched;
        for block in run {
            let (bytes, next) = rest.split_at(block.len);
            rest = next;
            let mut cur = Cursor::new(bytes, block.offset);
            if verify {
                let got = crc32c(bytes);
                if got != block.crc {
                    return Err(FormatError::ChecksumMismatch {
                        section: format!("{sample}/{}", block.chrom),
                        expected: block.crc,
                        got,
                    });
                }
            }
            let n = usize::try_from(block.regions)
                .map_err(|_| cur.corrupt("region count exceeds usize"))?;
            decode_chrom_block(&mut cur, &block.chrom, n, plan, &mut batch)?;
            if cur.remaining() != 0 {
                return Err(cur.corrupt(format!(
                    "chrom block for {:?} decoded {} bytes, index says {}",
                    block.chrom.as_str(),
                    cur.pos,
                    bytes.len()
                )));
            }
        }
    }
    Ok(batch)
}

/// Shared read core: one [`walk_container`] finds the blocks `opts`
/// wants of the samples `admit` lets in, then the samples are read **in
/// parallel** on the shared [`WorkerPool`], one job per sample doing all
/// of its per-region work: fetch its blocks ([`decode_blocks`]), verify
/// and decode them into its own [`RegionBatch`], holding the regions and
/// cells `build` asks for, sort it, check it against the schema, and
/// size it. A [`Layout::Rows`] read then builds the rows in the same job,
/// which lets the batch go; a [`Layout::Batches`] read hands the batch
/// on, and rows are built only if something asks for them. Assembly then
/// only pushes the finished samples, in stored order.
///
/// `verify_blocks` selects the integrity regime: pruned reads verify
/// each decoded block's CRC32C lazily (skipped blocks stay unchecked),
/// while full reads rely on the caller having verified the whole-file
/// trailer up front.
fn read_with<S: ContainerSource + ?Sized>(
    src: &S,
    opts: &ScanOptions,
    build: &Materialize,
    admit: impl FnMut(&str, &Metadata) -> bool,
    verify_blocks: bool,
    layout: Layout,
) -> Result<(Dataset, ScanStats), FormatError> {
    let mut scans = Vec::new();
    let (header, mut stats) =
        walk_container(src, admit, |chrom| opts.wants_chrom(chrom), |scan| scans.push(scan))?;
    let plan = RowPlan::new(header.schema, opts, build);
    // The index's region counts, which every decoded block has to meet.
    let listed: u64 = scans.iter().flat_map(|s| &s.wanted).map(|b| b.regions).sum();
    // Samples are created here, in stored order, so their ids ascend in
    // that order whichever worker decodes which.
    let jobs: Vec<(Sample, Vec<WantedBlock>)> = scans
        .into_iter()
        .map(|s| (Sample::new(s.name, &header.name).with_metadata(s.metadata), s.wanted))
        .collect();
    let samples = decode_pool().parallel_map(jobs, |(mut sample, wanted)| {
        let mut batch = decode_blocks(src, &sample.name, &wanted, &plan, verify_blocks)?;
        batch.check(&plan.schema)?;
        batch.sort();
        sample.regions = batch.into();
        // Sized here, on the worker, from the columns, and remembered
        // with the buffer, which keeps it when it builds its rows.
        sample.regions.encoded_size();
        if layout == Layout::Rows {
            // Built through the shared read path, which lets the batch go
            // and keeps the size.
            let _: &[GRegion] = &sample.regions;
        }
        Ok::<Sample, FormatError>(sample)
    });
    let decoded = plan.cells.iter().filter(|c| **c == Cell::Decoded).count() as u64;
    let mut dataset = Dataset::new(header.name, plan.schema);
    // The first error in stored sample order is the one reported; every
    // batch the jobs built has been checked against the schema.
    for sample in samples {
        dataset.add_sample_unchecked(sample?);
    }
    let built = dataset.region_count() as u64;
    stats.rows_skipped = listed - built;
    stats.cells = built * dataset.schema.len() as u64;
    stats.cells_decoded = built * decoded;
    Ok((dataset, stats))
}

/// The `admit` of a read that leaves no sample out.
fn admit_all(_name: &str, _metadata: &Metadata) -> bool {
    true
}

/// [`read_with`] over an in-memory container: blocks are borrowed from
/// `buf`, not copied.
fn decode_slice(
    buf: &[u8],
    opts: &ScanOptions,
    verify_blocks: bool,
    layout: Layout,
) -> Result<(Dataset, ScanStats), FormatError> {
    let build = Materialize::default();
    read_with(&io::Cursor::new(buf), opts, &build, admit_all, verify_blocks, layout)
}

/// Decode a full v2 container from bytes. Magic and version are checked
/// first, then the whole-file trailer: any other flipped bit in the
/// buffer — header, index or block — surfaces as
/// [`FormatError::ChecksumMismatch`] before a single region decodes.
/// Samples then decode in parallel on the shared worker pool, into
/// batches ([`Layout::Batches`]).
pub fn decode_dataset_v2(buf: &[u8]) -> Result<Dataset, FormatError> {
    decode_full(buf, Layout::Batches)
}

/// [`decode_dataset_v2`] in the `layout` asked for.
fn decode_full(buf: &[u8], layout: Layout) -> Result<Dataset, FormatError> {
    Walker::new(io::Cursor::new(buf))?.version()?;
    verify_trailer(buf)?;
    decode_slice(buf, &ScanOptions::default(), false, layout).map(|(ds, _)| ds)
}

/// Decode the output stream [`encode_outputs`] writes. Each frame's
/// length is checked against the bytes left before anything is sliced,
/// each container is decoded in full (its trailer checksum verified),
/// and an output name may appear once. A truncated frame, a corrupt
/// container or a repeated name is an error.
pub fn decode_outputs(buf: &[u8]) -> Result<HashMap<String, Dataset>, FormatError> {
    let mut outputs = HashMap::new();
    let mut rest = buf;
    while !rest.is_empty() {
        let at = (buf.len() - rest.len()) as u64;
        let Some((len, body)) = rest.split_first_chunk::<8>() else {
            return Err(corrupt_at(at, "truncated output frame header"));
        };
        let len = u64::from_le_bytes(*len);
        if len > body.len() as u64 {
            return Err(corrupt_at(at, format!("output frame of {len} bytes is truncated")));
        }
        let (container, next) = body.split_at(len as usize);
        let dataset = decode_dataset_v2(container)?;
        if outputs.contains_key(&dataset.name) {
            return Err(corrupt_at(at, format!("output {:?} appears twice", dataset.name)));
        }
        outputs.insert(dataset.name.clone(), dataset);
        rest = next;
    }
    Ok(outputs)
}

/// Decode a v2 container restricted by [`ScanOptions`]: only wanted
/// chromosome blocks are decoded (samples in parallel), unwanted value
/// columns are skipped and null-filled, and every sample is kept —
/// possibly with empty regions — so metadata stays addressable.
/// Verification is lazy per decoded block; skipped blocks are never
/// checksummed.
pub fn decode_dataset_v2_pruned(
    buf: &[u8],
    opts: &ScanOptions,
) -> Result<(Dataset, ScanStats), FormatError> {
    decode_slice(buf, opts, true, Layout::Batches)
}

/// Read a v2 container restricted on all three axes: `admit` is asked
/// once per sample, with the name and metadata stored in front of its
/// blocks, and a sample it refuses is **absent** from the dataset
/// returned — its blocks are seeked over in one step and never read,
/// checksummed or decoded. Of the admitted samples, wanted block extents
/// are read whole and verified lazily, unwanted ones are seeked over,
/// and unwanted columns are null-filled, as [`ScanOptions`] describes.
/// Admitted samples keep their stored order. Of the blocks read, only
/// what `build` asks for is built: the rows inside its coordinate
/// window, each with a cell for the columns of its width only. Every
/// block read is parsed whole and checksummed all the same; what it does
/// not build is counted in [`ScanStats::rows_skipped`].
///
/// The bytes of a skipped block never leave the source. Each admitted
/// sample's decode job reads its own wanted blocks, one positional read
/// per run of adjacent blocks, and holds them only while it decodes them.
pub fn materialize_dataset_v2_from<S: ContainerSource>(
    src: S,
    opts: &ScanOptions,
    build: &Materialize,
    admit: impl FnMut(&str, &Metadata) -> bool,
) -> Result<(Dataset, ScanStats), FormatError> {
    read_with(&src, opts, build, admit, true, Layout::Batches)
}

/// Read only the index of a dataset directory's v2 container (schema,
/// sample names and metadata, per-chromosome region counts, byte extents
/// and checksums): every block is seeked over, none is read or decoded.
pub fn read_index(dir: &Path) -> Result<V2Index, FormatError> {
    read_index_from(&fs::File::open(dir.join(CONTAINER_FILE))?)
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

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::Attribute;

    fn wide_schema() -> Schema {
        Schema::new(vec![
            Attribute::new("score", ValueType::Float),
            Attribute::new("name", ValueType::Str),
            Attribute::new("count", ValueType::Int),
            Attribute::new("flagged", ValueType::Bool),
        ])
        .unwrap()
    }

    fn wide_dataset() -> Dataset {
        let mut ds = Dataset::new("WIDE", wide_schema());
        ds.add_sample(
            Sample::new("s1", "WIDE")
                .with_regions(vec![
                    GRegion::new("chr1", 100, 200, Strand::Pos).with_values(vec![
                        Value::Float(0.5),
                        Value::Str("peak_a".into()),
                        Value::Int(-3),
                        Value::Bool(true),
                    ]),
                    GRegion::new("chr1", 150, 150, Strand::Neg).with_values(vec![
                        Value::Null,
                        Value::Null,
                        Value::Int(7),
                        Value::Bool(false),
                    ]),
                    GRegion::new("chr2", 0, 50, Strand::Unstranded).with_values(vec![
                        Value::Float(f64::NAN),
                        Value::Str("".into()),
                        Value::Null,
                        Value::Null,
                    ]),
                ])
                .with_metadata(Metadata::from_pairs([("cell", "K562"), ("assay", "ChIP-seq")])),
        )
        .unwrap();
        ds.add_sample(
            Sample::new("s2", "WIDE").with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
        )
        .unwrap();
        ds
    }

    fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.sample_count(), b.sample_count());
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.name, sb.name);
            assert_eq!(sa.metadata, sb.metadata);
            assert_eq!(sa.regions.len(), sb.regions.len());
            for (ra, rb) in sa.regions.iter().zip(sb.regions.iter()) {
                assert_eq!(
                    (ra.chrom.as_str(), ra.left, ra.right, ra.strand),
                    (rb.chrom.as_str(), rb.left, rb.right, rb.strand)
                );
                assert_eq!(ra.values.len(), rb.values.len());
                for (va, vb) in ra.values.iter().zip(&rb.values) {
                    match (va, vb) {
                        (Value::Float(x), Value::Float(y)) => {
                            assert_eq!(x.to_bits(), y.to_bits(), "float bits must round-trip")
                        }
                        _ => assert_eq!(va, vb),
                    }
                }
            }
        }
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nggc_v2_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A whole dataset directory, through the one directory reader.
    fn read_full(dir: &Path) -> Result<Dataset, FormatError> {
        read_dataset_auto(dir, Layout::Batches).map(|(ds, ..)| ds)
    }

    /// [`materialize_dataset_v2_from`] building every row and cell.
    fn scan_from<S: ContainerSource>(
        src: S,
        opts: &ScanOptions,
        admit: impl FnMut(&str, &Metadata) -> bool,
    ) -> Result<(Dataset, ScanStats), FormatError> {
        materialize_dataset_v2_from(src, opts, &Materialize::default(), admit)
    }

    /// A pruned read of a dataset directory's container, admitting every
    /// sample.
    fn pruned(dir: &Path, opts: &ScanOptions) -> Result<(Dataset, ScanStats), FormatError> {
        scan_from(fs::File::open(dir.join(CONTAINER_FILE))?, opts, admit_all)
    }

    /// [`read_index`] of a container held in memory.
    fn index_of(bytes: &[u8]) -> Result<V2Index, FormatError> {
        read_index_from(&io::Cursor::new(bytes))
    }

    /// The bits of a null bitmap past the block's last region are
    /// padding: set, they change neither the payload sizes nor a cell.
    #[test]
    fn set_pad_bits_in_a_null_bitmap_change_nothing() {
        let schema = Schema::new(vec![
            Attribute::new("f", ValueType::Float),
            Attribute::new("b", ValueType::Bool),
        ])
        .unwrap();
        let rows = (0..5u64)
            .map(|i| {
                let f = if i == 2 { Value::Null } else { Value::Float(i as f64 / 3.0) };
                GRegion::new("chr1", i * 10, i * 10 + 5, Strand::Pos)
                    .with_values(vec![f, Value::Bool(i % 2 == 0)])
            })
            .collect();
        let mut ds = Dataset::new("PAD", schema);
        ds.add_sample(Sample::new("s", "PAD").with_regions(rows)).unwrap();
        let bytes = encode_dataset_v2(&ds).unwrap();
        // One sample of one block, right before the trailer; its index
        // entry's checksum right before it. In the block, five one-byte
        // left deltas and lengths and two bytes of strands come first,
        // then `f`'s bitmap and four floats, then `b`'s bitmap.
        let block_len = index_of(&bytes).unwrap().samples[0].chroms[0].bytes as usize;
        let block = bytes.len() - 4 - block_len;
        let (f_bitmap, b_bitmap) = (block + 12, block + 12 + 1 + 4 * 8);
        assert_eq!((bytes[f_bitmap], bytes[b_bitmap]), (0b0000_0100, 0));
        let mut padded = bytes.clone();
        padded[f_bitmap] |= 0b1110_0000;
        padded[b_bitmap] |= 0b1110_0000;
        let crc = crc32c(&padded[block..block + block_len]);
        padded[block - 4..block].copy_from_slice(&crc.to_le_bytes());
        let body = padded.len() - 4;
        let trailer = crc32c(&padded[..body]);
        padded[body..].copy_from_slice(&trailer.to_le_bytes());

        let (want, got) = (decode_dataset_v2(&bytes).unwrap(), decode_dataset_v2(&padded).unwrap());
        assert_datasets_equal(&want, &got);
        assert_datasets_equal(&ds, &got);
        assert_eq!(got.samples[0].regions.encoded_size(), ds.samples[0].regions.encoded_size());
        let (pruned, _) = decode_dataset_v2_pruned(&padded, &ScanOptions::default()).unwrap();
        assert_datasets_equal(&ds, &pruned);
    }

    #[test]
    fn the_index_of_an_open_file_is_that_of_its_directory() {
        let dir = tmp("index_from");
        let ds = tall_dataset_with_cells();
        write_dataset_v2(&ds, &dir).unwrap();
        let bytes = fs::read(dir.join(CONTAINER_FILE)).unwrap();
        let by_dir = read_index(&dir).unwrap();
        let file = fs::File::open(dir.join(CONTAINER_FILE)).unwrap();
        assert_eq!(read_index_from(&file).unwrap(), by_dir);
        assert_eq!(index_of(&bytes).unwrap(), by_dir);
        assert_eq!(by_dir.region_count(), ds.region_count() as u64);
        // The open file is what it reads: a container renamed over the
        // directory's, as a save publishes one, does not change the index
        // of the handle opened first.
        let next = dir.join("next");
        fs::write(&next, encode_dataset_v2(&wide_dataset()).unwrap()).unwrap();
        fs::rename(&next, dir.join(CONTAINER_FILE)).unwrap();
        assert_eq!(read_index_from(&file).unwrap(), by_dir);
        assert_ne!(read_index(&dir).unwrap(), by_dir);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_roundtrip_all_types_nulls_nan_zero_length() {
        let ds = wide_dataset();
        let bytes = encode_dataset_v2(&ds).unwrap();
        assert_eq!(&bytes[..8], MAGIC);
        let back = decode_dataset_v2(&bytes).unwrap();
        assert_datasets_equal(&ds, &back);
    }

    #[test]
    fn disk_roundtrip_and_detection() {
        let ds = wide_dataset();
        let dir = tmp("disk");
        let dsdir = dir.join("WIDE");
        let written = write_dataset_v2(&ds, &dsdir).unwrap();
        assert!(written > 0);
        assert_eq!(detect_version(&dsdir), Some(StorageVersion::V2));
        // The auto reader picks v2 and counts the container's bytes, in
        // either layout: batches that build no row until asked, or rows
        // with the batch let go, their sizes remembered either way.
        for layout in [Layout::Batches, Layout::Rows] {
            let (back, version, bytes) = read_dataset_auto(&dsdir, layout).unwrap();
            for s in &back.samples {
                assert_eq!(s.regions.has_rows(), layout == Layout::Rows);
                assert_eq!(s.regions.batch().is_some(), layout == Layout::Batches);
                assert!(s.regions.known_size().is_some());
            }
            assert_datasets_equal(&ds, &back);
            assert_eq!((version, bytes), (StorageVersion::V2, written));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_directories_detected_and_auto_read() {
        let ds = wide_dataset();
        let dir = tmp("v1auto");
        let dsdir = dir.join("WIDE");
        native::write_dataset(&ds, &dsdir).unwrap();
        assert_eq!(detect_version(&dsdir), Some(StorageVersion::V1));
        let (back, version, bytes) = read_dataset_auto(&dsdir, Layout::Batches).unwrap();
        assert_eq!(back.sample_count(), ds.sample_count());
        // The bytes read are those of every file the text layout holds.
        let files = fs::read_dir(dsdir.join("files")).unwrap();
        let on_disk = files.map(|f| f.unwrap().metadata().unwrap().len()).sum::<u64>()
            + fs::metadata(dsdir.join("schema.gdm")).unwrap().len();
        assert_eq!((version, bytes), (StorageVersion::V1, on_disk));
        assert_eq!(detect_version(&dir), None, "parent dir is no dataset");
        assert!(matches!(
            read_dataset_auto(&dir, Layout::Batches),
            Err(FormatError::UnknownFormat(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chromosome_granular_read() {
        let ds = wide_dataset();
        let dir = tmp("chrom");
        let dsdir = dir.join("WIDE");
        write_dataset_v2(&ds, &dsdir).unwrap();
        let chr2 = pruned(&dsdir, &chroms_only(&["chr2"])).map(|(ds, _)| ds).unwrap();
        assert_eq!(chr2.sample_count(), 2, "samples survive even without the chromosome");
        assert_eq!(chr2.samples[0].region_count(), 1);
        assert_eq!(chr2.samples[0].regions[0].chrom.as_str(), "chr2");
        assert_eq!(chr2.samples[1].region_count(), 0);
        assert!(chr2.samples[1].metadata.has("cell", "HeLa"));
        let none = pruned(&dsdir, &chroms_only(&["chr9"])).map(|(ds, _)| ds).unwrap();
        assert_eq!(none.region_count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_reads_without_decoding_blocks() {
        let ds = wide_dataset();
        let dir = tmp("index");
        let dsdir = dir.join("WIDE");
        write_dataset_v2(&ds, &dsdir).unwrap();
        let index = read_index(&dsdir).unwrap();
        assert_eq!(index.name, "WIDE");
        assert_eq!(index.schema, ds.schema);
        assert_eq!(index.samples.len(), 2);
        assert_eq!(index.samples[0].chroms.len(), 2);
        assert_eq!(index.samples[0].chroms[0].chrom, "chr1");
        assert_eq!(index.samples[0].chroms[0].regions, 2);
        assert_eq!(index.region_count(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_containers_rejected() {
        let ds = wide_dataset();
        let mut bytes = encode_dataset_v2(&ds).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_dataset_v2(&bad), Err(FormatError::Corrupt { .. })));
        // Bad version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(decode_dataset_v2(&bad), Err(FormatError::Corrupt { .. })));
        // Truncation anywhere must error, never panic.
        bytes.truncate(bytes.len() / 2);
        assert!(decode_dataset_v2(&bytes).is_err());
        assert!(decode_dataset_v2(&[]).is_err());
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 300, -300, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut cur = Cursor::new(&buf, 0);
            assert_eq!(unzigzag(cur.varint().unwrap()), v);
        }
    }

    type Crc = fn(&[u8]) -> u32;

    /// Every implementation this machine can run: the table loop always,
    /// the CPU instruction where there is one.
    fn crc32c_implementations() -> Vec<(&'static str, Crc)> {
        let mut all: Vec<(&'static str, Crc)> =
            vec![("dispatch", crc32c), ("table", crc32c_table_loop)];
        if crc32c_hardware(b"").is_some() {
            all.push(("hardware", |bytes| crc32c_hardware(bytes).expect("detected above")));
        }
        all
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (name, crc) in crc32c_implementations() {
            assert_eq!(crc(b""), 0, "{name}");
            assert_eq!(crc(&[0u8; 32]), 0x8a91_36aa, "{name}");
            assert_eq!(crc(&[0xffu8; 32]), 0x62a8_ab43, "{name}");
            assert_eq!(crc(&ascending), 0x46dd_794e, "{name}");
            assert_eq!(crc(&descending), 0x113f_db5c, "{name}");
            assert_eq!(crc(b"123456789"), 0xe306_9283, "{name}");
        }
    }

    #[test]
    fn crc32c_hardware_equals_table() {
        // xorshift64*: fixed seed, no dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut noise = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
                })
                .collect()
        };
        // Every length around the eight-byte step, at every alignment the
        // slice start can have, then buffers of container size.
        let mut cases: Vec<Vec<u8>> = (0..=64).map(&mut noise).collect();
        cases.extend([1 << 12, (1 << 16) + 3, 3_000_001].map(&mut noise));
        for bytes in &cases {
            for skip in 0..bytes.len().min(8) {
                let want = crc32c_table_loop(&bytes[skip..]);
                assert_eq!(crc32c(&bytes[skip..]), want, "len {} skip {skip}", bytes.len());
                if let Some(got) = crc32c_hardware(&bytes[skip..]) {
                    assert_eq!(got, want, "len {} skip {skip}", bytes.len());
                }
            }
        }
    }

    /// `encode_dataset_v2(&wide_dataset())` as the parent of the commit
    /// that introduced the hardware CRC wrote it (table CRC, per-region
    /// chromosome lookup): 160 bytes, FNV-1a 0x0d870cc7071ac068.
    const WIDE_CONTAINER_BEFORE: &str = "4e47474347444d32030457494445040573636f726501046e616d\
        650205636f756e740007666c616767656403020273310205617373617908436849502d7365710463656c\
        6c044b353632020463687231021cc01987570463687232011024921990c8016464000402000000000000\
        e03f02067065616b5f6100050e000100320200000000000000f87f00000101027332010463656c6c0448\
        654c61009c883acf";

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn container_bytes_are_what_they_were() {
        let before = unhex(WIDE_CONTAINER_BEFORE);
        let now = encode_dataset_v2(&wide_dataset()).unwrap();
        let fnv = now.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((now.len(), fnv), (160, 0x0d87_0cc7_071a_c068));
        assert_eq!(now, before, "the encoder writes the bytes it wrote before");
        // And what the old encoder wrote still reads back in full.
        assert_datasets_equal(&wide_dataset(), &decode_dataset_v2(&before).unwrap());
    }

    /// Regions of one sample and chromosome, by decoded dataset.
    fn assert_blocks_share_chrom_handles(ds: &Dataset) {
        for sample in &ds.samples {
            for pair in sample.regions.windows(2) {
                if pair[0].chrom == pair[1].chrom {
                    assert!(
                        pair[0].chrom.ptr_eq(&pair[1].chrom),
                        "{}: regions of one block hold one chromosome allocation",
                        sample.name
                    );
                }
            }
        }
    }

    #[test]
    fn one_chrom_allocation_per_block_in_every_reader() {
        let ds = wide_dataset();
        let dir = tmp("handles");
        write_dataset_v2(&ds, &dir).unwrap();
        let full = read_full(&dir).unwrap();
        assert_eq!(full.samples[0].regions.len(), 3);
        assert_blocks_share_chrom_handles(&full);
        assert!(full.samples[0].regions[0].chrom.ptr_eq(&full.samples[0].regions[1].chrom));
        let chr1 = pruned(&dir, &chroms_only(&["chr1"])).map(|(ds, _)| ds).unwrap();
        assert_eq!(chr1.samples[0].regions.len(), 2);
        assert_blocks_share_chrom_handles(&chr1);
        let columns = ScanOptions {
            chroms: None,
            columns: Some(std::iter::once("count".to_string()).collect()),
        };
        assert_blocks_share_chrom_handles(&pruned(&dir, &columns).unwrap().0);
        let bytes = fs::read(dir.join(CONTAINER_FILE)).unwrap();
        assert_blocks_share_chrom_handles(&decode_dataset_v2_pruned(&bytes, &columns).unwrap().0);
        fs::remove_dir_all(&dir).ok();
    }

    /// Counts the bytes a reader pulls out of its source, and logs the
    /// extents its decode jobs fetch.
    struct Counting<S> {
        inner: S,
        read: std::sync::atomic::AtomicU64,
        fetched: std::sync::Mutex<Vec<(u64, usize)>>,
    }

    impl<S> Counting<S> {
        fn new(inner: S) -> Counting<S> {
            Counting { inner, read: Default::default(), fetched: Default::default() }
        }

        fn read(&self) -> u64 {
            self.read.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn fetched(&self) -> Vec<(u64, usize)> {
            let mut fetched = self.fetched.lock().unwrap().clone();
            fetched.sort_unstable();
            fetched
        }
    }

    impl<S: ContainerSource> ContainerSource for Counting<S> {
        fn size(&self) -> io::Result<u64> {
            self.inner.size()
        }

        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            self.read.fetch_add(buf.len() as u64, std::sync::atomic::Ordering::SeqCst);
            self.inner.read_exact_at(buf, offset)
        }

        fn extent(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
            self.read.fetch_add(len as u64, std::sync::atomic::Ordering::SeqCst);
            self.fetched.lock().unwrap().push((offset, len));
            self.inner.extent(offset, len)
        }
    }

    /// Four samples of three chromosomes, big enough that the blocks dwarf
    /// both the indexes and a reader's buffer.
    fn tall_dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("TALL", schema);
        for s in 0..4u64 {
            let regions = ["chr1", "chr2", "chr3"]
                .iter()
                .flat_map(|chrom| {
                    (0..4000u64).map(move |i| {
                        GRegion::new(*chrom, i * 100 + s, i * 100 + 60, Strand::Pos)
                            .with_values(vec![Value::Float(i as f64)])
                    })
                })
                .collect();
            ds.add_sample(Sample::new(format!("s{s}"), "TALL").with_regions(regions)).unwrap();
        }
        ds
    }

    #[test]
    fn skipped_blocks_are_never_read() {
        let ds = tall_dataset();
        let bytes = encode_dataset_v2(&ds).unwrap();
        let total = bytes.len() as u64;

        let index = index_of(&bytes).unwrap();
        assert_eq!(index.region_count(), 48_000);
        // The index read never looks inside a block: one with a flipped
        // byte (the middle of the file is block data) reads the same
        // index, while a full decode fails its checksum.
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x40;
        assert_eq!(index_of(&flipped).unwrap().region_count(), 48_000);
        assert!(matches!(decode_dataset_v2(&flipped), Err(FormatError::ChecksumMismatch { .. })));

        let opts = ScanOptions {
            chroms: Some(std::iter::once("chr2".to_string()).collect()),
            columns: None,
        };
        let src = Counting::new(io::Cursor::new(&bytes));
        let (chr2, stats) = scan_from(&src, &opts, admit_all).unwrap();
        assert_eq!(chr2.region_count(), 16_000);
        assert_eq!(stats.bytes_read + stats.bytes_skipped, index.block_bytes(&opts, admit_all).1);
        assert_eq!(stats.bytes_read, index.block_bytes(&opts, admit_all).0);
        assert!(
            src.read() < stats.bytes_read + total / 4,
            "a one-chromosome read pulled {} of {total} bytes for {} wanted",
            src.read(),
            stats.bytes_read
        );
        assert!(src.read() * 2 < total);
        // Each sample's job fetched its one wanted block, and nothing else.
        let fetched = src.fetched();
        assert_eq!(fetched.len(), 4);
        assert_eq!(fetched.iter().map(|&(_, len)| len as u64).sum::<u64>(), stats.bytes_read);
        // The bytes it did not read make no difference to what it returns.
        let (same, same_stats) = decode_dataset_v2_pruned(&bytes, &opts).unwrap();
        assert_datasets_equal(&chr2, &same);
        assert_eq!(stats, same_stats);
    }

    /// [`tall_dataset`] with a `cell` per sample: s0 and s2 are K562.
    fn tall_dataset_with_cells() -> Dataset {
        let mut ds = tall_dataset();
        for (sample, cell) in ds.samples.iter_mut().zip(["K562", "HeLa", "K562", "GM12878"]) {
            sample.metadata.insert("cell", cell);
        }
        ds
    }

    fn k562(_name: &str, metadata: &Metadata) -> bool {
        metadata.has("cell", "K562")
    }

    /// Every column of the named chromosomes.
    fn chroms_only(names: &[&str]) -> ScanOptions {
        ScanOptions { chroms: Some(names.iter().map(|c| c.to_string()).collect()), columns: None }
    }

    #[test]
    fn refused_samples_are_absent_and_counted() {
        let ds = tall_dataset_with_cells();
        let bytes = encode_dataset_v2(&ds).unwrap();
        let index = index_of(&bytes).unwrap();
        let cells: Vec<&str> =
            index.samples.iter().map(|s| s.metadata.first("cell").unwrap()).collect();
        assert_eq!(cells, ["K562", "HeLa", "K562", "GM12878"], "the index carries metadata");

        let all = ScanOptions::default();
        let (got, stats) = scan_from(io::Cursor::new(&bytes), &all, k562).unwrap();
        let names: Vec<&str> = got.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["s0", "s2"], "admitted samples, in stored order");
        assert!(got.samples[0].id < got.samples[1].id, "ids ascend in stored order");
        assert_eq!(got.region_count(), 24_000);
        assert_eq!((stats.samples_read, stats.samples_skipped), (2, 2));
        assert_eq!((stats.blocks_read, stats.blocks_skipped), (6, 6));
        let (wanted, total) = index.block_bytes(&all, k562);
        assert_eq!((stats.bytes_read, stats.bytes_read + stats.bytes_skipped), (wanted, total));
        assert!(wanted * 2 <= total + 8, "half the samples, about half the bytes");
        // An admitted sample is what a full decode makes of it.
        let full = decode_dataset_v2(&bytes).unwrap();
        for (sample, i) in got.samples.iter().zip([0, 2]) {
            assert_eq!(sample.metadata, full.samples[i].metadata);
            assert_eq!(sample.regions, full.samples[i].regions);
        }

        // Both axes at once: chr2 of the K562 samples.
        let chr2 = chroms_only(&["chr2"]);
        let (got, stats) = scan_from(io::Cursor::new(&bytes), &chr2, k562).unwrap();
        assert_eq!((got.sample_count(), got.region_count()), (2, 8_000));
        assert_eq!((stats.blocks_read, stats.blocks_skipped), (2, 10));
        assert_eq!(stats.bytes_read, index.block_bytes(&chr2, k562).0);

        // Refusing everyone leaves the schema and no sample.
        let (none, stats) =
            scan_from(io::Cursor::new(&bytes), &all, |_: &str, _: &Metadata| false).unwrap();
        assert_eq!((none.sample_count(), &none.schema), (0, &ds.schema));
        assert_eq!((stats.samples_read, stats.samples_skipped, stats.bytes_read), (0, 4, 0));
        // `admit` sees every sample once, by its stored name.
        let mut asked = Vec::new();
        scan_from(io::Cursor::new(&bytes), &all, |name: &str, _: &Metadata| {
            asked.push(name.to_owned());
            true
        })
        .unwrap();
        assert_eq!(asked, ["s0", "s1", "s2", "s3"]);
    }

    #[test]
    fn a_refused_sample_costs_no_block_bytes_and_a_run_one_read() {
        let bytes = encode_dataset_v2(&tall_dataset_with_cells()).unwrap();
        let total = bytes.len() as u64;
        // Where every sample's blocks lie, from a walk that wants them all.
        let mut blocks = Vec::new();
        walk_container(
            &io::Cursor::new(&bytes),
            admit_all,
            |_| true,
            |scan| blocks.push(scan.wanted.iter().map(|b| (b.offset, b.len)).collect::<Vec<_>>()),
        )
        .unwrap();
        let whole = |s: usize| {
            let (first, last) = (blocks[s][0], blocks[s][blocks[s].len() - 1]);
            (first.0, (last.0 + last.1 as u64 - first.0) as usize)
        };
        let src = Counting::new(io::Cursor::new(&bytes));
        let opts = ScanOptions::default();
        let (_, stats) = scan_from(&src, &opts, k562).unwrap();
        assert_eq!(stats.samples_skipped, 2);
        // s0 and s2: their three adjacent blocks in one read each.
        assert_eq!(src.fetched(), [whole(0), whole(2)]);
        assert!(
            src.read() < stats.bytes_read + total / 8,
            "pulled {} of {total} bytes for {} admitted",
            src.read(),
            stats.bytes_read
        );
        // Skipping the middle chromosome splits each run in two.
        let chr13 = chroms_only(&["chr1", "chr3"]);
        let src = Counting::new(io::Cursor::new(&bytes));
        scan_from(&src, &chr13, k562).unwrap();
        assert_eq!(src.fetched(), [blocks[0][0], blocks[0][2], blocks[2][0], blocks[2][2]]);
        let edges = |name: &str, _: &Metadata| name == "s0" || name == "s3";
        let src = Counting::new(io::Cursor::new(&bytes));
        let (got, _) = scan_from(&src, &opts, edges).unwrap();
        assert_eq!((got.sample_count(), src.fetched()), (2, vec![whole(0), whole(3)]));
    }

    #[test]
    fn a_flipped_bit_in_a_refused_sample_is_not_looked_at() {
        let bytes = encode_dataset_v2(&tall_dataset_with_cells()).unwrap();
        // The last block of the container is s3/chr3: GM12878, refused.
        let mut flipped = bytes.clone();
        let at = flipped.len() - 4 - 100;
        flipped[at] ^= 0x04;
        let opts = ScanOptions::default();
        let (got, _) = scan_from(io::Cursor::new(&flipped), &opts, k562).unwrap();
        let (clean, _) = scan_from(io::Cursor::new(&bytes), &opts, k562).unwrap();
        assert_datasets_equal(&got, &clean);
        // Whoever admits that sample is told, and so is a full decode.
        let gm = |_: &str, m: &Metadata| m.has("cell", "GM12878");
        match scan_from(io::Cursor::new(&flipped), &opts, gm) {
            Err(FormatError::ChecksumMismatch { section, .. }) => assert_eq!(section, "s3/chr3"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        assert!(matches!(decode_dataset_v2(&flipped), Err(FormatError::ChecksumMismatch { .. })));
    }

    #[test]
    fn readers_that_admit_everyone_are_what_they_were() {
        let ds = tall_dataset_with_cells();
        let bytes = encode_dataset_v2(&ds).unwrap();
        let opts = chroms_only(&["chr2"]);
        let (a, a_stats) = decode_dataset_v2_pruned(&bytes, &opts).unwrap();
        let dir = tmp("admit_all");
        write_dataset_v2(&ds, &dir).unwrap();
        let (b, b_stats) = pruned(&dir, &opts).unwrap();
        let (c, c_stats) = scan_from(io::Cursor::new(&bytes), &opts, admit_all).unwrap();
        assert_datasets_equal(&a, &b);
        assert_datasets_equal(&a, &c);
        assert_eq!((a_stats, a_stats), (b_stats, c_stats));
        assert_eq!((a_stats.samples_read, a_stats.samples_skipped), (4, 0));
        assert_eq!(a.sample_count(), 4, "every sample is kept, with or without regions");
        assert_datasets_equal(&decode_dataset_v2(&bytes).unwrap(), &ds);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_readers_fail_typed_on_truncation_and_bad_extents() {
        let bytes = encode_dataset_v2(&wide_dataset()).unwrap();
        let all = ScanOptions {
            chroms: None,
            columns: Some(std::iter::once("count".to_string()).collect()),
        };
        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            // The trailer alone may be missing; anything shorter cuts into
            // an index or a block.
            let structural = cut < bytes.len() - 4;
            let index = index_of(short);
            let pruned = scan_from(io::Cursor::new(short), &all, admit_all);
            let late =
                materialize_dataset_v2_from(io::Cursor::new(short), &all, &late(), admit_all);
            for (what, failed) in [
                ("index", index.is_err()),
                ("pruned", pruned.is_err()),
                ("windowed and narrowed", late.is_err()),
            ] {
                assert_eq!(failed, structural, "{what} read of the first {cut} bytes");
            }
            if let Err(e) = index {
                assert!(matches!(e, FormatError::Corrupt { .. }), "cut {cut}: {e}");
            }
            if let Err(e) = late {
                assert!(matches!(e, FormatError::Corrupt { .. }), "cut {cut}: {e}");
            }
        }
        // An extent that points past the end is caught before it is
        // seeked over or allocated: grow the last block's length varint.
        let index = index_of(&bytes).unwrap();
        let chr2 = &index.samples[0].chroms[1];
        // Index entry: str name, varint regions, varint bytes, u32 crc.
        let entry = bytes.windows(5).position(|w| w == b"\x04chr2").unwrap();
        let at = entry + 5 + 1;
        assert_eq!(u64::from(bytes[at]), chr2.bytes, "the block-length byte of s1/chr2");
        let mut long = bytes.clone();
        long[at] = 0x7f;
        assert!(matches!(index_of(&long), Err(FormatError::Corrupt { .. })));
    }

    /// A container whose version byte reads 2: the one flip of bit 0 of a
    /// revision-3 version byte.
    fn revision_2(bytes: &[u8]) -> Vec<u8> {
        let mut flipped = bytes.to_vec();
        assert_eq!(flipped[8], VERSION);
        flipped[8] ^= 1;
        assert_eq!(flipped[8], 2);
        flipped
    }

    #[test]
    fn revision_2_containers_are_refused_by_every_reader() {
        let bytes = encode_dataset_v2(&wide_dataset()).unwrap();
        let old = revision_2(&bytes);
        let unsupported = |read: Result<(), FormatError>| match read {
            Err(FormatError::Corrupt { offset: 9, reason }) => {
                assert_eq!(reason, "unsupported container version 2")
            }
            other => panic!("expected a refused version, got {other:?}"),
        };
        unsupported(decode_dataset_v2(&old).map(|_| ()));
        unsupported(decode_dataset_v2_pruned(&old, &chroms_only(&["chr2"])).map(|_| ()));
        unsupported(
            materialize_dataset_v2_from(
                io::Cursor::new(&old),
                &chroms_only(&[]),
                &late(),
                admit_all,
            )
            .map(|_| ()),
        );
        unsupported(index_of(&old).map(|_| ()));
        let framed = [(old.len() as u64).to_le_bytes().to_vec(), old.clone()].concat();
        unsupported(decode_outputs(&framed).map(|_| ()));
        // The directory reader too: a dataset with that flip does not load.
        let dir = tmp("rev2");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CONTAINER_FILE), &old).unwrap();
        unsupported(read_dataset_auto(&dir, Layout::Batches).map(|_| ()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn current_revision_carries_checksums() {
        let ds = wide_dataset();
        let bytes = encode_dataset_v2(&ds).unwrap();
        assert_eq!(bytes[8], VERSION);
        let dir = tmp("v3index");
        let dsdir = dir.join("WIDE");
        fs::create_dir_all(&dsdir).unwrap();
        fs::write(dsdir.join(CONTAINER_FILE), &bytes).unwrap();
        // Each index entry holds its block's length and CRC32C.
        let index = read_index(&dsdir).unwrap();
        for (entry, chrom) in index.samples[0].chroms.iter().zip(["chr1", "chr2"]) {
            let group: Vec<&GRegion> =
                ds.samples[0].regions.iter().filter(|r| r.chrom.as_str() == chrom).collect();
            let mut block = Vec::new();
            encode_chrom_block(&group, &ds.schema, &mut block).unwrap();
            assert_eq!((entry.bytes, entry.crc), (block.len() as u64, crc32c(&block)));
        }
        // Trailer is the CRC of everything before it.
        let body = &bytes[..bytes.len() - 4];
        let trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(trailer, crc32c(body));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_fails_only_the_flipped_section() {
        let ds = wide_dataset();
        let bytes = encode_dataset_v2(&ds).unwrap();
        let dir = tmp("flip");
        let dsdir = dir.join("WIDE");
        fs::create_dir_all(&dsdir).unwrap();
        // Blocks sit back-to-back just before the 4-byte trailer; the
        // chr2 block is the last one, so flip a bit inside its extent.
        let index = {
            fs::write(dsdir.join(CONTAINER_FILE), &bytes).unwrap();
            read_index(&dsdir).unwrap()
        };
        let chr2_bytes = index.samples[0].chroms[1].bytes as usize;
        assert_eq!(index.samples[0].chroms[1].chrom, "chr2");
        let mut flipped = bytes.clone();
        let pos = flipped.len() - 4 - chr2_bytes;
        flipped[pos] ^= 0x10;
        fs::write(dsdir.join(CONTAINER_FILE), &flipped).unwrap();
        // The damaged section fails with a typed checksum error...
        match pruned(&dsdir, &chroms_only(&["chr2"])).map(|(ds, _)| ds) {
            Err(FormatError::ChecksumMismatch { section, expected, got }) => {
                assert_eq!(section, "s1/chr2");
                assert_ne!(expected, got);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // ...whatever the read builds of it: a window that builds none of
        // its rows and a width without its columns read the block all the
        // same, and check it.
        let chr2 = chroms_only(&["chr2"]);
        let nothing = Materialize { lo: Some(1_000), ..late() };
        for build in [late(), nothing] {
            let read =
                materialize_dataset_v2_from(io::Cursor::new(&flipped), &chr2, &build, admit_all);
            match read {
                Err(FormatError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, "s1/chr2")
                }
                other => panic!("{build:?}: expected ChecksumMismatch, got {other:?}"),
            }
        }
        // ...while every other section of the same container stays
        // readable (lazy per-section verification).
        let chr1 = pruned(&dsdir, &chroms_only(&["chr1"])).map(|(ds, _)| ds).unwrap();
        assert_eq!(chr1.samples[0].region_count(), 2);
        assert!(read_index(&dsdir).is_ok());
        // A full read checks the whole-file trailer up front.
        match read_full(&dsdir) {
            Err(FormatError::ChecksumMismatch { section, .. }) => assert_eq!(section, "file"),
            other => panic!("expected trailer mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_bit_flip_is_rejected_by_full_decode() {
        let ds = wide_dataset();
        let bytes = encode_dataset_v2(&ds).unwrap();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                let res = decode_dataset_v2(&flipped);
                assert!(res.is_err(), "flip at byte {i} bit {bit} decoded silently");
                // Past magic + version, the trailer guarantees the error
                // is the typed checksum mismatch, not structural luck.
                if i >= 9 {
                    assert!(
                        matches!(res, Err(FormatError::ChecksumMismatch { .. })),
                        "flip at byte {i} bit {bit} gave {res:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_read_restricts_chroms_and_reports_stats() {
        let dir = tmp("pruned_chroms");
        write_dataset_v2(&wide_dataset(), &dir).unwrap();
        let opts = ScanOptions {
            chroms: Some(std::iter::once("chr2".to_string()).collect()),
            columns: None,
        };
        let (ds, stats) = pruned(&dir, &opts).unwrap();
        // Both samples survive; only chr2 regions decode.
        assert_eq!(ds.sample_count(), 2);
        assert_eq!(ds.samples[0].regions.len(), 1);
        assert_eq!(ds.samples[0].regions[0].chrom.as_str(), "chr2");
        assert!(ds.samples[1].regions.is_empty());
        // s1 has chr1 + chr2 blocks: one read, one skipped.
        assert_eq!(stats.blocks_read, 1);
        assert_eq!(stats.blocks_skipped, 1);
        assert!(stats.bytes_read > 0);
        assert!(stats.bytes_skipped > 0);
        assert!(stats.container_bytes > stats.bytes_read);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_read_null_fills_masked_columns() {
        let dir = tmp("pruned_cols");
        write_dataset_v2(&wide_dataset(), &dir).unwrap();
        // Keep only `count`; match case-insensitively.
        let opts = ScanOptions {
            chroms: None,
            columns: Some(std::iter::once("COUNT".to_string()).collect()),
        };
        let (ds, stats) = pruned(&dir, &opts).unwrap();
        assert_eq!(stats.blocks_skipped, 0, "column pruning alone skips no blocks");
        let full = read_full(&dir).unwrap();
        assert_eq!(ds.samples[0].regions.len(), full.samples[0].regions.len());
        for (r, rf) in ds.samples[0].regions.iter().zip(full.samples[0].regions.iter()) {
            assert_eq!((r.left, r.right, r.strand), (rf.left, rf.right, rf.strand));
            assert_eq!(r.values.len(), 4, "value arity must match the schema");
            assert_eq!(r.values[2], rf.values[2], "kept column decodes normally");
            for &i in &[0usize, 1, 3] {
                assert_eq!(r.values[i], Value::Null, "masked column is null-filled");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_read_with_full_options_equals_full_read() {
        let dir = tmp("pruned_full");
        write_dataset_v2(&wide_dataset(), &dir).unwrap();
        let (ds, stats) = pruned(&dir, &ScanOptions::default()).unwrap();
        assert_datasets_equal(&ds, &read_full(&dir).unwrap());
        assert_eq!(stats.blocks_skipped, 0);
        assert_eq!(stats.bytes_skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A window over `left` and a width of `count` and `score`, of which
    /// only `count` is decoded: both kinds of cell, and rows left out.
    fn late() -> Materialize {
        Materialize {
            lo: Some(100),
            hi: Some(150),
            width: Some(["Count".to_string(), "score".to_string()].into_iter().collect()),
        }
    }

    #[test]
    fn a_window_builds_exactly_the_rows_whose_left_lies_in_it() {
        // Zero-length regions, and regions straddling either bound.
        let schema = Schema::new(vec![
            Attribute::new("name", ValueType::Str),
            Attribute::new("n", ValueType::Int),
        ])
        .unwrap();
        let spans = [(0, 0), (40, 120), (99, 99), (100, 100), (100, 300), (150, 150), (150, 900)];
        let more = [(151, 151), (160, 170), (400, 500)];
        let region = |(i, &(left, right)): (usize, &(u64, u64))| {
            GRegion::new("chr1", left, right, Strand::Pos)
                .with_values(vec![Value::Str(format!("r{i}")), Value::Int(i as i64)])
        };
        let regions: Vec<GRegion> = spans.iter().chain(&more).enumerate().map(region).collect();
        let mut ds = Dataset::new("W", schema);
        ds.add_sample(Sample::new("s", "W").with_regions(regions.clone())).unwrap();
        let bytes = encode_dataset_v2(&ds).unwrap();
        let build = Materialize { lo: Some(100), hi: Some(150), width: None };
        let (got, stats) = materialize_dataset_v2_from(
            io::Cursor::new(&bytes),
            &ScanOptions::default(),
            &build,
            admit_all,
        )
        .unwrap();
        let want: Vec<GRegion> =
            regions.iter().filter(|r| (100..=150).contains(&r.left)).cloned().collect();
        assert_eq!(want.len(), 4);
        assert_eq!(*got.samples[0].regions, want, "the rows a resident window would hold");
        assert_eq!(got.schema, ds.schema);
        assert_eq!((stats.rows_skipped, stats.cells), (6, 8));
        assert_eq!(
            (stats.blocks_read, stats.bytes_read),
            (1, index_of(&bytes).unwrap().block_bytes(&ScanOptions::default(), admit_all).0)
        );
        // One bound at a time, and a window nothing lies in.
        for (lo, hi, built) in [(Some(151), None, 3), (None, Some(99), 3), (Some(901), None, 0)] {
            let build = Materialize { lo, hi, width: None };
            let (got, stats) = materialize_dataset_v2_from(
                io::Cursor::new(&bytes),
                &ScanOptions::default(),
                &build,
                admit_all,
            )
            .unwrap();
            assert_eq!(got.region_count(), built, "{build:?}");
            assert_eq!(stats.rows_skipped as usize, regions.len() - built, "{build:?}");
        }
    }

    #[test]
    fn a_width_leaves_every_other_column_out_of_the_rows() {
        let ds = wide_dataset();
        let bytes = encode_dataset_v2(&ds).unwrap();
        // `score` in the width but not decoded: a typed null in place.
        let opts = ScanOptions { chroms: None, columns: Some(["COUNT".to_string()].into()) };
        let build = Materialize { width: late().width, ..Materialize::default() };
        let (got, stats) =
            materialize_dataset_v2_from(io::Cursor::new(&bytes), &opts, &build, admit_all).unwrap();
        let names: Vec<&str> = got.schema.attributes().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["score", "count"], "stored order, not the width's");
        let full = decode_dataset_v2(&bytes).unwrap();
        for (r, rf) in got.samples[0].regions.iter().zip(full.samples[0].regions.iter()) {
            assert_eq!((r.left, r.right, r.strand), (rf.left, rf.right, rf.strand));
            assert_eq!(r.values, [Value::Null, rf.values[2].clone()]);
        }
        assert_eq!((stats.rows_skipped, stats.cells, stats.cells_decoded), (0, 6, 3));
        got.validate().unwrap();
        // Every column decoded, the other two absent: what a PROJECT of
        // the two would hold.
        let (got, _) = materialize_dataset_v2_from(
            io::Cursor::new(&bytes),
            &ScanOptions::default(),
            &build,
            admit_all,
        )
        .unwrap();
        for (r, rf) in got.samples[0].regions.iter().zip(full.samples[0].regions.iter()) {
            assert_eq!(r.values.len(), 2);
            assert_eq!(
                (&r.values[1], r.values[0].is_null()),
                (&rf.values[2], rf.values[0].is_null())
            );
        }
        // A width naming no stored column leaves rows without cells.
        let build = Materialize { width: Some(BTreeSet::new()), ..Materialize::default() };
        let (got, stats) = materialize_dataset_v2_from(
            io::Cursor::new(&bytes),
            &ScanOptions::default(),
            &build,
            admit_all,
        )
        .unwrap();
        assert_eq!((got.schema.len(), got.region_count(), stats.cells), (0, 3, 0));
        assert!(got.samples[0].regions.iter().all(|r| r.values.is_empty()));
    }

    #[test]
    fn windowed_and_narrowed_rows_are_those_of_a_full_read() {
        let ds = wide_dataset();
        let bytes = encode_dataset_v2(&ds).unwrap();
        let chr1 = chroms_only(&["chr1"]);
        let (got, stats) =
            materialize_dataset_v2_from(io::Cursor::new(&bytes), &chr1, &late(), admit_all)
                .unwrap();
        // s1/chr1 holds 100-200 and 150-150, both inside; `score` and
        // `count` keep their cells, `name` and `flagged` have none.
        let full = decode_dataset_v2(&bytes).unwrap();
        let want: Vec<Vec<Value>> = full.samples[0].regions[..2]
            .iter()
            .map(|r| vec![r.values[0].clone(), r.values[2].clone()])
            .collect();
        let values: Vec<Vec<Value>> =
            got.samples[0].regions.iter().map(|r| r.values.clone()).collect();
        assert_eq!(values, want);
        assert_eq!((stats.rows_skipped, stats.cells, stats.blocks_read), (0, 4, 1));
        assert_blocks_share_chrom_handles(&got);
    }

    #[test]
    fn binary_is_smaller_than_text_for_numeric_data() {
        // A numeric-heavy sample: the shape ENCODE peak files have.
        let schema = Schema::new(vec![
            Attribute::new("signal", ValueType::Float),
            Attribute::new("p_value", ValueType::Float),
        ])
        .unwrap();
        let mut ds = Dataset::new("NUM", schema);
        let regions: Vec<GRegion> = (0..2000)
            .map(|i| {
                GRegion::new("chr1", i * 137, i * 137 + 400, Strand::Pos)
                    .with_values(vec![Value::Float(i as f64 * 0.25), Value::Float(1e-9)])
            })
            .collect();
        ds.add_sample(Sample::new("s", "NUM").with_regions(regions)).unwrap();
        let v2 = encode_dataset_v2(&ds).unwrap().len();
        let v1 = native::render_regions(&ds.samples[0].regions).len();
        assert!(v2 < v1, "v2 container ({v2} B) should undercut v1 text regions alone ({v1} B)");
    }

    /// `n` one-region samples, each with a score of its own that is
    /// stored nowhere else in the container.
    fn marked_samples(n: u64) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("MARKED", schema);
        for s in 0..n {
            let region = GRegion::new("chr1", s * 10, s * 10 + 5, Strand::Pos)
                .with_values(vec![Value::Float(1000.25 + s as f64)]);
            ds.add_sample(Sample::new(format!("s{s}"), "MARKED").with_regions(vec![region]))
                .unwrap();
        }
        ds
    }

    #[test]
    fn of_two_corrupt_samples_the_first_stored_is_reported() {
        let bytes = encode_dataset_v2(&marked_samples(40)).unwrap();
        let mut flipped = bytes.clone();
        for s in [31u64, 6] {
            let mark = (1000.25 + s as f64).to_le_bytes();
            let at = bytes.windows(8).position(|w| w == mark).expect("the score is stored");
            flipped[at] ^= 0x01;
        }
        // Per-block verification: every sample decodes on the pool, and
        // the error is the one of s6, whichever worker met s31 first.
        for _ in 0..8 {
            match decode_dataset_v2_pruned(&flipped, &ScanOptions::default()) {
                Err(FormatError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, "s6/chr1")
                }
                other => panic!("expected a checksum mismatch, got {other:?}"),
            }
        }
    }

    fn outputs_of(datasets: Vec<Dataset>) -> HashMap<String, Dataset> {
        datasets.into_iter().map(|d| (d.name.clone(), d)).collect()
    }

    #[test]
    fn outputs_roundtrip_as_length_framed_containers_in_name_order() {
        assert!(encode_outputs(&HashMap::new()).unwrap().is_empty());
        assert!(decode_outputs(&[]).unwrap().is_empty());
        let mut wide = wide_dataset();
        wide.name = "A".into();
        let outputs = outputs_of(vec![marked_samples(3), wide]);
        let bytes = encode_outputs(&outputs).unwrap();
        let mut framed = Vec::new();
        for name in ["A", "MARKED"] {
            let container = encode_dataset_v2(&outputs[name]).unwrap();
            framed.extend((container.len() as u64).to_le_bytes());
            framed.extend(container);
        }
        assert_eq!(bytes, framed);
        let back = decode_outputs(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        for (name, ds) in &outputs {
            assert_datasets_equal(&back[name], ds);
        }
    }

    #[test]
    fn malformed_output_streams_are_errors() {
        let one = encode_outputs(&outputs_of(vec![marked_samples(2)])).unwrap();
        // Every truncation: inside a length, inside a container.
        for cut in 1..one.len() {
            assert!(decode_outputs(&one[..cut]).is_err(), "cut at {cut} decoded");
        }
        // A length past the end is refused before anything is sliced.
        let mut long = one.clone();
        long[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_outputs(&long), Err(FormatError::Corrupt { offset: 0, .. })));
        // The same output twice.
        let twice = [one.clone(), one.clone()].concat();
        assert!(decode_outputs(&twice).unwrap_err().to_string().contains("appears twice"));
        // Every single bit flip, that of the version byte 3 -> 2 included.
        for i in 0..one.len() {
            for bit in 0..8 {
                let mut flipped = one.clone();
                flipped[i] ^= 1 << bit;
                assert!(decode_outputs(&flipped).is_err(), "flip at byte {i} bit {bit} decoded");
            }
        }
    }
}
