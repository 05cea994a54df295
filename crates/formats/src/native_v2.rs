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
//! version         1 byte   (2 or 3)
//! dataset name    str
//! schema          varint n_attrs, then per attribute: str name, u8 type tag
//! sample count    varint
//! per sample:
//!   name          str
//!   metadata      varint n_pairs, then per pair: str key, str value
//!   chrom index   varint n_chroms, then per chromosome:
//!                   str name, varint n_regions, varint block_bytes
//!                   [v3] u32 LE CRC32C of the chromosome block
//!   chrom blocks  back-to-back, in index order
//! [v3] trailer    u32 LE CRC32C over every preceding byte of the file
//! ```
//!
//! The chromosome index doubles as an offset table: `block_bytes` lets a
//! reader *skip* any chromosome without decoding it, which is what
//! [`read_dataset_v2_chrom`] uses for chromosome-granular reads. A
//! sample's name and metadata sit in front of its index and blocks, so a
//! reader can decide on them whether the sample is wanted at all and
//! pass over every block of one that is not in a single skip
//! ([`scan_dataset_v2_from`]).
//!
//! ## Header revision 3: checksums
//!
//! Revision 3 keeps the byte layout of revision 2 and adds integrity
//! metadata: each chromosome index entry carries a CRC32C (Castagnoli)
//! of its block, and the file ends with a CRC32C trailer covering every
//! preceding byte. Verification is *lazy per section read*: a full
//! decode checks the trailer up front, a chromosome-granular read
//! checks only the blocks it actually decodes — a flipped bit in one
//! chromosome fails that chromosome's read with
//! [`FormatError::ChecksumMismatch`] while every other section of the
//! same container stays readable, and a read that refuses a sample
//! checks none of that sample's blocks. Writers emit revision 3; readers
//! accept both, so containers from the previous release load unchanged.
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
    Attribute, Chrom, ChromInterner, Dataset, GRegion, Metadata, Sample, Schema, Strand, Value,
    ValueType,
};
use std::collections::BTreeSet;
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
    /// Total size of the container file in bytes.
    pub container_bytes: u64,
}

/// Magic bytes opening every v2 container.
pub const MAGIC: &[u8; 8] = b"NGGCGDM2";

/// Header revision written by this release: per-block CRC32C plus a
/// whole-file trailer checksum.
pub const VERSION: u8 = 3;

/// Header revision of the previous release: no checksums. Still fully
/// readable; [`encode_dataset_v2_legacy`] emits it for compatibility
/// tests.
pub const VERSION_LEGACY: u8 = 2;

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

/// Read a dataset in whichever version the directory holds (v2 binary
/// preferred, v1 text fallback).
pub fn read_dataset_auto(dir: &Path) -> Result<Dataset, FormatError> {
    match detect_version(dir) {
        Some(StorageVersion::V2) => read_dataset_v2(dir),
        Some(StorageVersion::V1) => native::read_dataset(dir),
        None => Err(FormatError::UnknownFormat(format!(
            "{}: neither a v2 container nor a v1 native dataset",
            dir.display()
        ))),
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

    fn string(&mut self) -> Result<String, FormatError> {
        let n = self.len_prefixed("string")?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid UTF-8 string"))
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

/// Read the next `len` bytes of `src` — an extent the container length has
/// already vouched for.
fn read_extent<R: Read>(src: &mut R, len: usize) -> Result<Vec<u8>, FormatError> {
    let mut bytes = vec![0u8; len];
    src.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Sequential reader over a whole container — a file or an in-memory
/// slice behind [`std::io::Cursor`]. The header and the per-sample
/// indexes are parsed through it; chromosome blocks are handed to the
/// caller as extents to fetch or skipped with a seek, so a reader that
/// wants one chromosome never pulls the others off the disk.
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
        read_extent(self.source_for(n as u64)?, n)
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

/// Serialise a whole dataset into container bytes at the current header
/// revision ([`VERSION`]): per-block CRC32C entries plus a whole-file
/// trailer checksum.
pub fn encode_dataset_v2(dataset: &Dataset) -> Result<Vec<u8>, FormatError> {
    encode_dataset_with_version(dataset, VERSION)
}

/// Serialise a dataset as the previous release wrote it (header
/// revision 2, no checksums). Exists so compatibility tests can prove
/// old containers still load; new code should use
/// [`encode_dataset_v2`].
pub fn encode_dataset_v2_legacy(dataset: &Dataset) -> Result<Vec<u8>, FormatError> {
    encode_dataset_with_version(dataset, VERSION_LEGACY)
}

fn encode_dataset_with_version(dataset: &Dataset, version: u8) -> Result<Vec<u8>, FormatError> {
    debug_assert!(version == VERSION_LEGACY || version == VERSION);
    let checksums = version >= VERSION;
    let mut out = Vec::with_capacity(64 * 1024);
    out.extend_from_slice(MAGIC);
    out.push(version);
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
        for r in &sample.regions {
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
            if checksums {
                out.extend_from_slice(&crc32c(block).to_le_bytes());
            }
        }
        for block in &blocks {
            out.extend_from_slice(block);
        }
    }
    if checksums {
        let trailer = crc32c(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
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

/// Decode one chromosome block and append its regions to `out`,
/// optionally materialising only the schema columns whose `keep` entry
/// is true. Masked-out columns are still *consumed* (the cursor must
/// land exactly at the block's end) but their payloads are skipped and
/// their cells filled with [`Value::Null`], so region value arity
/// matches the schema either way.
///
/// Every region of the block shares the one `chrom` handle, and is built
/// once with its value vector already at schema width.
fn decode_chrom_block(
    cur: &mut Cursor<'_>,
    chrom: &Chrom,
    n: usize,
    schema: &Schema,
    keep: Option<&[bool]>,
    out: &mut Vec<GRegion>,
) -> Result<(), FormatError> {
    // Each region contributes at least one byte (its left-delta varint),
    // so a count beyond the remaining bytes is corrupt — reject it before
    // sizing any allocation from it.
    if n > cur.remaining() {
        return Err(cur.corrupt(format!("region count {n} exceeds remaining block bytes")));
    }
    // Coordinates. The strands sit behind both coordinate columns, so a
    // region can be built only once all three have been located.
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
    let base = out.len();
    out.reserve(n);
    for (i, &(left, right)) in coords.iter().enumerate() {
        let bits = (strands[i / 4] >> ((i % 4) * 2)) & 0b11;
        let strand = strand_from_bits(bits)
            .ok_or_else(|| cur.corrupt(format!("invalid strand bits {bits}")))?;
        out.push(GRegion {
            chrom: chrom.clone(),
            left,
            right,
            strand,
            values: Vec::with_capacity(schema.len()),
        });
    }
    // Value columns.
    for (ci, attr) in schema.attributes().iter().enumerate() {
        let bitmap = cur.bytes(n.div_ceil(8))?;
        let is_null = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
        let rows = &mut out[base..];
        if !keep.is_none_or(|k| k[ci]) {
            skip_column_payload(cur, attr.ty, n, &is_null)?;
            for r in rows {
                r.values.push(Value::Null);
            }
            continue;
        }
        let rows = rows.iter_mut().enumerate();
        match attr.ty {
            ValueType::Int => {
                for (i, r) in rows {
                    let v =
                        if is_null(i) { Value::Null } else { Value::Int(unzigzag(cur.varint()?)) };
                    r.values.push(v);
                }
            }
            ValueType::Float => {
                let mut floats = packed_payload(cur, attr.ty, n, &is_null)?.chunks_exact(8);
                for (i, r) in rows {
                    let v = if is_null(i) {
                        Value::Null
                    } else {
                        let raw = floats.next().expect("one payload per non-null row");
                        Value::Float(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
                    };
                    r.values.push(v);
                }
            }
            ValueType::Bool => {
                let packed = packed_payload(cur, attr.ty, n, &is_null)?;
                let mut k = 0usize;
                for (i, r) in rows {
                    let v = if is_null(i) {
                        Value::Null
                    } else {
                        let b = packed[k / 8] & (1 << (k % 8)) != 0;
                        k += 1;
                        Value::Bool(b)
                    };
                    r.values.push(v);
                }
            }
            ValueType::Str => {
                for (i, r) in rows {
                    let v = if is_null(i) { Value::Null } else { Value::Str(cur.string()?) };
                    r.values.push(v);
                }
            }
        }
    }
    Ok(())
}

/// The payload of a fixed-width column, whose size follows from the null
/// bitmap alone: 8 bytes per non-null `float`, 1 bit per non-null `bool`.
fn packed_payload<'a>(
    cur: &mut Cursor<'a>,
    ty: ValueType,
    n: usize,
    is_null: &impl Fn(usize) -> bool,
) -> Result<&'a [u8], FormatError> {
    let non_null = (0..n).filter(|&i| !is_null(i)).count();
    let len = match ty {
        ValueType::Float => non_null
            .checked_mul(8)
            .ok_or_else(|| cur.corrupt("float column payload overflows usize"))?,
        _ => non_null.div_ceil(8),
    };
    cur.bytes(len)
}

/// Advance the cursor past one column's payload without materialising
/// values. The null bitmap has already been consumed; `is_null` answers
/// from it.
fn skip_column_payload(
    cur: &mut Cursor<'_>,
    ty: ValueType,
    n: usize,
    is_null: &impl Fn(usize) -> bool,
) -> Result<(), FormatError> {
    match ty {
        ValueType::Int => {
            for i in 0..n {
                if !is_null(i) {
                    cur.varint()?;
                }
            }
        }
        ValueType::Float | ValueType::Bool => {
            packed_payload(cur, ty, n, is_null)?;
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
    version: u8,
}

impl<R: Read + Seek> Walker<R> {
    /// Magic and version byte; errors on unknown header revisions.
    fn version(&mut self) -> Result<u8, FormatError> {
        let mut magic = [0u8; 8];
        self.fill(&mut magic)?;
        if &magic != MAGIC {
            return Err(self.corrupt("bad magic: not a v2 container"));
        }
        let version = self.u8()?;
        if version != VERSION_LEGACY && version != VERSION {
            return Err(self.corrupt(format!("unsupported container version {version}")));
        }
        Ok(version)
    }

    /// Version, dataset name and schema, leaving the walker at the
    /// sample count.
    fn header(&mut self) -> Result<Header, FormatError> {
        let version = self.version()?;
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
        Ok(Header { name, schema, version })
    }

    /// One sample's name, metadata and chromosome index, leaving the
    /// walker at the sample's first block.
    fn sample_index(
        &mut self,
        version: u8,
    ) -> Result<(String, Metadata, Vec<ChromIndexEntry>), FormatError> {
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
            let crc = if version >= VERSION {
                let mut raw = [0u8; 4];
                self.fill(&mut raw)?;
                Some(u32::from_le_bytes(raw))
            } else {
                None
            };
            chroms.push(ChromIndexEntry { chrom, regions, bytes, crc });
        }
        Ok((sample_name, metadata, chroms))
    }
}

/// Verify the whole-file CRC32C trailer of a revision-3 container.
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
    /// CRC32C of the block (`None` for revision-2 containers, which
    /// store no checksums).
    pub crc: Option<u32>,
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

/// Map `opts.columns` onto schema positions (case-insensitive). Returns
/// `None` when every column is kept, so the hot path stays mask-free.
fn column_mask(schema: &Schema, opts: &ScanOptions) -> Option<Vec<bool>> {
    let wanted = opts.columns.as_ref()?;
    let lowered: BTreeSet<String> = wanted.iter().map(|c| c.to_ascii_lowercase()).collect();
    let mask: Vec<bool> = schema
        .attributes()
        .iter()
        .map(|a| lowered.contains(&a.name.to_ascii_lowercase()))
        .collect();
    if mask.iter().all(|&m| m) {
        None
    } else {
        Some(mask)
    }
}

/// One chromosome block a walk fetched for decoding. `B` is how its
/// bytes are held: a slice of an in-memory container, or the extent read
/// from a file.
struct WantedBlock<B> {
    /// Interned per walk: equal names share one handle across samples.
    chrom: Chrom,
    regions: u64,
    crc: Option<u32>,
    /// Where the block starts in the container, for error offsets.
    offset: u64,
    bytes: B,
}

/// What a walk hands over per sample: its index entry in full, and the
/// blocks the caller asked for.
struct SampleScan<B> {
    name: String,
    metadata: Metadata,
    chroms: Vec<ChromIndexEntry>,
    wanted: Vec<WantedBlock<B>>,
}

/// The one walk over a container that every reader shares: parse the
/// header, then per sample its index; a sample `admit` refuses on its
/// name and metadata is passed over whole — one skip for all its blocks,
/// nothing fetched, `on_sample` not called. Of an admitted sample,
/// `fetch` the extents of the blocks `wants` names and seek over the
/// others, and hand the sample to `on_sample` — which returns `false` to
/// stop the walk early.
///
/// `fetch` receives the source positioned at a block and its length
/// (already checked against the container length) and must consume
/// exactly that extent.
fn walk_container<R: Read + Seek, B>(
    src: R,
    mut admit: impl FnMut(&str, &Metadata) -> bool,
    wants: impl Fn(&str) -> bool,
    mut fetch: impl FnMut(&mut R, usize) -> Result<B, FormatError>,
    mut on_sample: impl FnMut(&Header, SampleScan<B>) -> Result<bool, FormatError>,
) -> Result<(Header, ScanStats), FormatError> {
    let mut w = Walker::new(src)?;
    let header = w.header()?;
    let mut stats = ScanStats { container_bytes: w.len, ..ScanStats::default() };
    let mut interner = ChromInterner::new();
    let n_samples = w.len_prefixed("sample count")?;
    for _ in 0..n_samples {
        let (name, metadata, chroms) = w.sample_index(header.version)?;
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
            if wants(&entry.chrom) {
                let len = usize::try_from(entry.bytes)
                    .map_err(|_| w.corrupt("block extent exceeds usize"))?;
                let offset = w.pos;
                let bytes = fetch(w.source_for(entry.bytes)?, len)?;
                stats.blocks_read += 1;
                stats.bytes_read += entry.bytes;
                wanted.push(WantedBlock {
                    chrom: interner.intern(&entry.chrom),
                    regions: entry.regions,
                    crc: entry.crc,
                    offset,
                    bytes,
                });
            } else {
                w.skip(entry.bytes)?;
                stats.blocks_skipped += 1;
                stats.bytes_skipped += entry.bytes;
            }
        }
        if !on_sample(&header, SampleScan { name, metadata, chroms, wanted })? {
            break;
        }
    }
    Ok((header, stats))
}

/// Decode a sample's fetched blocks, in stored order, straight into one
/// region vector sized for all of them. With `verify` each block's
/// CRC32C is checked first (revision-2 blocks carry none and pass).
fn decode_blocks<B: AsRef<[u8]>>(
    sample: &str,
    wanted: &[WantedBlock<B>],
    schema: &Schema,
    keep: Option<&[bool]>,
    verify: bool,
) -> Result<Vec<GRegion>, FormatError> {
    // A block holds at most one region per byte (`decode_chrom_block`
    // rejects more), which bounds the reservation by the bytes fetched.
    let total: u64 = wanted.iter().map(|b| b.regions.min(b.bytes.as_ref().len() as u64)).sum();
    let mut regions = Vec::with_capacity(total as usize);
    for block in wanted {
        let bytes = block.bytes.as_ref();
        let mut cur = Cursor::new(bytes, block.offset);
        if let Some(expected) = block.crc.filter(|_| verify) {
            let got = crc32c(bytes);
            if got != expected {
                return Err(FormatError::ChecksumMismatch {
                    section: format!("{sample}/{}", block.chrom),
                    expected,
                    got,
                });
            }
        }
        let n = usize::try_from(block.regions)
            .map_err(|_| cur.corrupt("region count exceeds usize"))?;
        decode_chrom_block(&mut cur, &block.chrom, n, schema, keep, &mut regions)?;
        if cur.remaining() != 0 {
            return Err(cur.corrupt(format!(
                "chrom block for {:?} decoded {} bytes, index says {}",
                block.chrom.as_str(),
                cur.pos,
                bytes.len()
            )));
        }
    }
    Ok(regions)
}

/// Shared read core: one [`walk_container`] fetches the blocks `opts`
/// wants of the samples `admit` lets in, then the samples decode **in
/// parallel** on the shared [`WorkerPool`] — each into its own region
/// vector, so nothing is copied together afterwards.
///
/// `verify_blocks` selects the integrity regime: pruned reads verify
/// each decoded block's CRC32C lazily (skipped blocks stay unchecked),
/// while full reads rely on the caller having verified the whole-file
/// trailer up front.
fn read_with<R: Read + Seek, B: AsRef<[u8]> + Send>(
    src: R,
    opts: &ScanOptions,
    admit: impl FnMut(&str, &Metadata) -> bool,
    verify_blocks: bool,
    fetch: impl FnMut(&mut R, usize) -> Result<B, FormatError>,
) -> Result<(Dataset, ScanStats), FormatError> {
    let mut scans = Vec::new();
    let (header, stats) = walk_container(
        src,
        admit,
        |chrom| opts.wants_chrom(chrom),
        fetch,
        |_, scan| {
            scans.push(scan);
            Ok(true)
        },
    )?;
    let mask = column_mask(&header.schema, opts);
    // Samples are created here, in stored order, so their ids ascend in
    // that order whichever worker decodes which.
    let jobs: Vec<(Sample, Vec<WantedBlock<B>>)> = scans
        .into_iter()
        .map(|s| (Sample::new(s.name, &header.name).with_metadata(s.metadata), s.wanted))
        .collect();
    let samples = decode_pool().try_parallel_map(jobs, |(mut sample, wanted)| {
        sample.regions =
            decode_blocks(&sample.name, &wanted, &header.schema, mask.as_deref(), verify_blocks)?;
        sample.sort_regions();
        Ok::<Sample, FormatError>(sample)
    })?;
    let mut dataset = Dataset::new(header.name, header.schema);
    for sample in samples {
        dataset.add_sample(sample)?;
    }
    Ok((dataset, stats))
}

/// The `admit` of a read that leaves no sample out.
fn admit_all(_name: &str, _metadata: &Metadata) -> bool {
    true
}

/// [`read_with`] over an in-memory container: blocks are borrowed from
/// `buf`, not copied.
fn decode_slice<'a>(
    buf: &'a [u8],
    opts: &ScanOptions,
    verify_blocks: bool,
) -> Result<(Dataset, ScanStats), FormatError> {
    read_with(io::Cursor::new(buf), opts, admit_all, verify_blocks, |src, len| {
        let start = src.position() as usize;
        src.set_position((start + len) as u64);
        let whole: &'a [u8] = src.get_ref();
        Ok(&whole[start..start + len])
    })
}

/// Decode a full v2 container from bytes. For revision-3 containers
/// the whole-file trailer is verified up front: any flipped bit in the
/// buffer — header, index or block — surfaces as
/// [`FormatError::ChecksumMismatch`] before a single region decodes.
/// Samples then decode in parallel on the shared worker pool.
pub fn decode_dataset_v2(buf: &[u8]) -> Result<Dataset, FormatError> {
    if Walker::new(io::Cursor::new(buf))?.version()? >= VERSION {
        verify_trailer(buf)?;
    }
    decode_slice(buf, &ScanOptions::default(), false).map(|(ds, _)| ds)
}

/// Read a whole dataset from a v2 container directory.
pub fn read_dataset_v2(dir: &Path) -> Result<Dataset, FormatError> {
    let buf = fs::read(dir.join(CONTAINER_FILE))?;
    decode_dataset_v2(&buf)
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
    decode_slice(buf, opts, true)
}

/// Read a v2 container restricted on all three axes: `admit` is asked
/// once per sample, with the name and metadata stored in front of its
/// blocks, and a sample it refuses is **absent** from the dataset
/// returned — its blocks are seeked over in one step and never read,
/// checksummed or decoded. Of the admitted samples, wanted block extents
/// are read whole and verified lazily, unwanted ones are seeked over,
/// and unwanted columns are null-filled, as [`ScanOptions`] describes.
/// Admitted samples keep their stored order.
///
/// The bytes of a skipped block never leave the source. The other pruned
/// readers are this one admitting every sample.
pub fn scan_dataset_v2_from<R: Read + Seek>(
    src: R,
    opts: &ScanOptions,
    admit: impl FnMut(&str, &Metadata) -> bool,
) -> Result<(Dataset, ScanStats), FormatError> {
    read_with(BufReader::new(src), opts, admit, true, read_extent)
}

/// Read a dataset from a v2 container directory, pruned by
/// [`ScanOptions`]: [`decode_dataset_v2_pruned`] over a container that is
/// not in memory, [`scan_dataset_v2_from`] keeping every sample.
pub fn read_dataset_v2_pruned(
    dir: &Path,
    opts: &ScanOptions,
) -> Result<(Dataset, ScanStats), FormatError> {
    scan_dataset_v2_from(fs::File::open(dir.join(CONTAINER_FILE))?, opts, admit_all)
}

/// Read a dataset restricted to one chromosome: only that chromosome's
/// blocks are read and decoded, every other block is seeked over via the
/// offset index. Samples without the chromosome are kept with empty
/// regions so metadata stays addressable.
pub fn read_dataset_v2_chrom(dir: &Path, chrom: &str) -> Result<Dataset, FormatError> {
    let opts =
        ScanOptions { chroms: Some(std::iter::once(chrom.to_owned()).collect()), columns: None };
    read_dataset_v2_pruned(dir, &opts).map(|(ds, _)| ds)
}

/// Read only the index of a dataset directory's v2 container (schema,
/// sample names and metadata, per-chromosome region counts, byte extents
/// and checksums): every block is seeked over, none is read or decoded.
pub fn read_index(dir: &Path) -> Result<V2Index, FormatError> {
    let mut samples = Vec::new();
    let (header, _) = walk_container(
        BufReader::new(fs::File::open(dir.join(CONTAINER_FILE))?),
        admit_all,
        |_| false,
        |_, _| Ok(()),
        |_, scan| {
            samples.push(SampleIndexEntry {
                name: scan.name,
                metadata: scan.metadata,
                chroms: scan.chroms,
            });
            Ok(true)
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
            for (ra, rb) in sa.regions.iter().zip(&sb.regions) {
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

    /// [`read_index`] of a container held in memory.
    fn index_of(bytes: &[u8]) -> Result<V2Index, FormatError> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = tmp(&format!("index_{n}"));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CONTAINER_FILE), bytes).unwrap();
        let index = read_index(&dir);
        fs::remove_dir_all(&dir).ok();
        index
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
        let back = read_dataset_v2(&dsdir).unwrap();
        assert_datasets_equal(&ds, &back);
        // Auto reader picks v2.
        let auto = read_dataset_auto(&dsdir).unwrap();
        assert_datasets_equal(&ds, &auto);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_directories_detected_and_auto_read() {
        let ds = wide_dataset();
        let dir = tmp("v1auto");
        let dsdir = dir.join("WIDE");
        native::write_dataset(&ds, &dsdir).unwrap();
        assert_eq!(detect_version(&dsdir), Some(StorageVersion::V1));
        let back = read_dataset_auto(&dsdir).unwrap();
        assert_eq!(back.sample_count(), ds.sample_count());
        assert_eq!(detect_version(&dir), None, "parent dir is no dataset");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chromosome_granular_read() {
        let ds = wide_dataset();
        let dir = tmp("chrom");
        let dsdir = dir.join("WIDE");
        write_dataset_v2(&ds, &dsdir).unwrap();
        let chr2 = read_dataset_v2_chrom(&dsdir, "chr2").unwrap();
        assert_eq!(chr2.sample_count(), 2, "samples survive even without the chromosome");
        assert_eq!(chr2.samples[0].region_count(), 1);
        assert_eq!(chr2.samples[0].regions[0].chrom.as_str(), "chr2");
        assert_eq!(chr2.samples[1].region_count(), 0);
        assert!(chr2.samples[1].metadata.has("cell", "HeLa"));
        let none = read_dataset_v2_chrom(&dsdir, "chr9").unwrap();
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
        let full = read_dataset_v2(&dir).unwrap();
        assert_eq!(full.samples[0].regions.len(), 3);
        assert_blocks_share_chrom_handles(&full);
        assert!(full.samples[0].regions[0].chrom.ptr_eq(&full.samples[0].regions[1].chrom));
        let chr1 = read_dataset_v2_chrom(&dir, "chr1").unwrap();
        assert_eq!(chr1.samples[0].regions.len(), 2);
        assert_blocks_share_chrom_handles(&chr1);
        let columns = ScanOptions {
            chroms: None,
            columns: Some(std::iter::once("count".to_string()).collect()),
        };
        assert_blocks_share_chrom_handles(&read_dataset_v2_pruned(&dir, &columns).unwrap().0);
        let bytes = fs::read(dir.join(CONTAINER_FILE)).unwrap();
        assert_blocks_share_chrom_handles(&decode_dataset_v2_pruned(&bytes, &columns).unwrap().0);
        fs::remove_dir_all(&dir).ok();
    }

    /// Counts the bytes a reader pulls out of its source, and its seeks.
    struct Counting<R> {
        inner: R,
        read: u64,
        seeks: u64,
    }

    impl<R> Counting<R> {
        fn new(inner: R) -> Counting<R> {
            Counting { inner, read: 0, seeks: 0 }
        }
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n as u64;
            Ok(n)
        }
    }

    impl<R: Seek> Seek for Counting<R> {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.seeks += 1;
            self.inner.seek(pos)
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
        let mut src = Counting::new(io::Cursor::new(&bytes));
        let (chr2, stats) = scan_dataset_v2_from(&mut src, &opts, admit_all).unwrap();
        assert_eq!(chr2.region_count(), 16_000);
        assert_eq!(stats.bytes_read + stats.bytes_skipped, index.block_bytes(&opts, admit_all).1);
        assert_eq!(stats.bytes_read, index.block_bytes(&opts, admit_all).0);
        assert!(
            src.read < stats.bytes_read + total / 4,
            "a one-chromosome read pulled {} of {total} bytes for {} wanted",
            src.read,
            stats.bytes_read
        );
        assert!(src.read * 2 < total);
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
        let (got, stats) = scan_dataset_v2_from(io::Cursor::new(&bytes), &all, k562).unwrap();
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
        let (got, stats) = scan_dataset_v2_from(io::Cursor::new(&bytes), &chr2, k562).unwrap();
        assert_eq!((got.sample_count(), got.region_count()), (2, 8_000));
        assert_eq!((stats.blocks_read, stats.blocks_skipped), (2, 10));
        assert_eq!(stats.bytes_read, index.block_bytes(&chr2, k562).0);

        // Refusing everyone leaves the schema and no sample.
        let (none, stats) =
            scan_dataset_v2_from(io::Cursor::new(&bytes), &all, |_: &str, _: &Metadata| false)
                .unwrap();
        assert_eq!((none.sample_count(), &none.schema), (0, &ds.schema));
        assert_eq!((stats.samples_read, stats.samples_skipped, stats.bytes_read), (0, 4, 0));
        // `admit` sees every sample once, by its stored name.
        let mut asked = Vec::new();
        scan_dataset_v2_from(io::Cursor::new(&bytes), &all, |name: &str, _: &Metadata| {
            asked.push(name.to_owned());
            true
        })
        .unwrap();
        assert_eq!(asked, ["s0", "s1", "s2", "s3"]);
    }

    #[test]
    fn a_refused_sample_costs_one_seek_and_no_block_bytes() {
        let bytes = encode_dataset_v2(&tall_dataset_with_cells()).unwrap();
        let total = bytes.len() as u64;
        // Opening a walk seeks twice (to the end for the length, and back).
        let mut src = Counting::new(io::Cursor::new(&bytes));
        let opts = ScanOptions::default();
        let (_, stats) = scan_dataset_v2_from(&mut src, &opts, k562).unwrap();
        assert_eq!(stats.samples_skipped, 2);
        assert_eq!(src.seeks, 2 + 1, "one seek over s1, none over the trailing s3");
        assert!(
            src.read < stats.bytes_read + total / 8,
            "pulled {} of {total} bytes for {} admitted",
            src.read,
            stats.bytes_read
        );
        // Skipping a chromosome of every sample seeks inside each sample;
        // refusing the sample does not.
        let chr13 = chroms_only(&["chr1", "chr3"]);
        let mut src = Counting::new(io::Cursor::new(&bytes));
        scan_dataset_v2_from(&mut src, &chr13, k562).unwrap();
        assert_eq!(src.seeks, 2 + 1 + 2, "s1 whole, chr2 of s0 and of s2");
        // Refused samples in a row still cost one each: the next sample's
        // index sits behind the blocks and has to be read.
        let mut src = Counting::new(io::Cursor::new(&bytes));
        let edges = |name: &str, _: &Metadata| name == "s0" || name == "s3";
        let (got, _) = scan_dataset_v2_from(&mut src, &opts, edges).unwrap();
        assert_eq!((got.sample_count(), src.seeks), (2, 2 + 2));
    }

    #[test]
    fn a_flipped_bit_in_a_refused_sample_is_not_looked_at() {
        let bytes = encode_dataset_v2(&tall_dataset_with_cells()).unwrap();
        // The last block of the container is s3/chr3: GM12878, refused.
        let mut flipped = bytes.clone();
        let at = flipped.len() - 4 - 100;
        flipped[at] ^= 0x04;
        let opts = ScanOptions::default();
        let (got, _) = scan_dataset_v2_from(io::Cursor::new(&flipped), &opts, k562).unwrap();
        let (clean, _) = scan_dataset_v2_from(io::Cursor::new(&bytes), &opts, k562).unwrap();
        assert_datasets_equal(&got, &clean);
        // Whoever admits that sample is told, and so is a full decode.
        let gm = |_: &str, m: &Metadata| m.has("cell", "GM12878");
        match scan_dataset_v2_from(io::Cursor::new(&flipped), &opts, gm) {
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
        let (b, b_stats) = read_dataset_v2_pruned(&dir, &opts).unwrap();
        let (c, c_stats) = scan_dataset_v2_from(io::Cursor::new(&bytes), &opts, admit_all).unwrap();
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
            let pruned = scan_dataset_v2_from(io::Cursor::new(short), &all, admit_all);
            for (what, failed) in [("index", index.is_err()), ("pruned", pruned.is_err())] {
                assert_eq!(failed, structural, "{what} read of the first {cut} bytes");
            }
            if let Err(e) = index {
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

    #[test]
    fn legacy_v2_containers_still_load() {
        let ds = wide_dataset();
        let legacy = encode_dataset_v2_legacy(&ds).unwrap();
        assert_eq!(legacy[8], VERSION_LEGACY);
        let back = decode_dataset_v2(&legacy).unwrap();
        assert_datasets_equal(&ds, &back);
        // Disk paths (full, chrom-granular, index-only) accept it too.
        let dir = tmp("legacy");
        let dsdir = dir.join("WIDE");
        fs::create_dir_all(&dsdir).unwrap();
        fs::write(dsdir.join(CONTAINER_FILE), &legacy).unwrap();
        assert_eq!(detect_version(&dsdir), Some(StorageVersion::V2));
        assert_datasets_equal(&ds, &read_dataset_v2(&dsdir).unwrap());
        assert_eq!(read_dataset_v2_chrom(&dsdir, "chr2").unwrap().region_count(), 1);
        let index = read_index(&dsdir).unwrap();
        assert!(index.samples[0].chroms.iter().all(|c| c.crc.is_none()));
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
        let index = read_index(&dsdir).unwrap();
        assert!(index.samples[0].chroms.iter().all(|c| c.crc.is_some()));
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
        match read_dataset_v2_chrom(&dsdir, "chr2") {
            Err(FormatError::ChecksumMismatch { section, expected, got }) => {
                assert_eq!(section, "s1/chr2");
                assert_ne!(expected, got);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // ...while every other section of the same container stays
        // readable (lazy per-section verification).
        let chr1 = read_dataset_v2_chrom(&dsdir, "chr1").unwrap();
        assert_eq!(chr1.samples[0].region_count(), 2);
        assert!(read_index(&dsdir).is_ok());
        // A full read checks the whole-file trailer up front.
        match read_dataset_v2(&dsdir) {
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
                if i == 8 && bit == 0 {
                    // Residual risk documented in docs/storage.md: this
                    // one flip downgrades the version byte 3 -> 2, and a
                    // revision-2 reader checks no checksums. Structural
                    // decoding still has to not panic.
                    let _ = res;
                    continue;
                }
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
        let (ds, stats) = read_dataset_v2_pruned(&dir, &opts).unwrap();
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
        let (ds, stats) = read_dataset_v2_pruned(&dir, &opts).unwrap();
        assert_eq!(stats.blocks_skipped, 0, "column pruning alone skips no blocks");
        let full = read_dataset_v2(&dir).unwrap();
        assert_eq!(ds.samples[0].regions.len(), full.samples[0].regions.len());
        for (r, rf) in ds.samples[0].regions.iter().zip(&full.samples[0].regions) {
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
        let (ds, stats) = read_dataset_v2_pruned(&dir, &ScanOptions::default()).unwrap();
        assert_datasets_equal(&ds, &read_dataset_v2(&dir).unwrap());
        assert_eq!(stats.blocks_skipped, 0);
        assert_eq!(stats.bytes_skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
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
}
