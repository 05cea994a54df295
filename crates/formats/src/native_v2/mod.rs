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
//! of one that is not in a single skip. `layout.rs` holds the bytes'
//! primitives, `encode.rs` the writer, `walk.rs` the walk over header and
//! indexes, `decode.rs` the blocks and the readers.
//!
//! ## Writer and readers
//!
//! [`encode_dataset_v2`] writes a sample from its rows, or a batch-backed
//! one from its columns in place, building no row; both give the same
//! bytes. One reader per use: [`read_dataset_auto`] a dataset directory
//! whole (its container, or a v1 text directory), [`decode_dataset_v2`] a
//! container in memory, [`decode_dataset_v2_pruned`] a part of one,
//! [`materialize_dataset_v2_from`] a part of a container file —
//! chromosomes, columns, samples, rows of a coordinate window — without
//! reading the rest, [`read_index`] the index alone, [`decode_outputs`] a
//! query's framed outputs. Every read is one walk of the container.
//!
//! A read does its per-region work once, in parallel: one thread walks
//! the header and the per-sample indexes through a [`ContainerSource`]
//! and decides which samples and blocks are wanted, then one decode job
//! per admitted sample reads that sample's wanted blocks itself from the
//! same source (one positional read per run of adjacent blocks from a
//! file, a borrow from bytes in memory), verifies their checksums,
//! decodes them into a columnar [`nggc_gdm::RegionBatch`], checks it
//! against the schema and sizes it from its columns. A sample comes back
//! with its encoded size remembered ([`nggc_gdm::Regions`]), so nothing
//! after the read walks it again to size it, and as a batch-backed
//! buffer that builds rows only when something asks for them — or, for
//! a dataset that goes resident ([`Layout::Rows`]), with its rows built
//! in the job and the batch let go.
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
//!    the [`nggc_gdm::GRegion`] invariant).
//! 3. **strands** — 2 bits per region (`0=+`, `1=-`, `2=*`), packed
//!    four per byte.
//! 4. **value columns**, one per schema attribute, each a null bitmap
//!    (1 bit per region) followed by the non-null payloads in row
//!    order: `int` as zigzag varint, `float` as 8 raw little-endian
//!    bytes (NaN-exact), `bool` packed 8 per byte, `string` as `str`.
//!
//! Type tags: `0=int`, `1=float`, `2=string`, `3=bool`.

mod decode;
mod encode;
mod layout;
#[cfg(test)]
mod tests;
mod walk;

pub use decode::{
    decode_dataset_v2, decode_dataset_v2_pruned, decode_outputs, materialize_dataset_v2_from,
};
pub use encode::{encode_dataset_v2, encode_outputs};
pub use layout::{crc32c, MAGIC, VERSION};
pub use walk::{
    read_index, read_index_from, ChromIndexEntry, ContainerSource, SampleIndexEntry, V2Index,
};

use crate::error::FormatError;
use crate::native;
use decode::decode_full;
use nggc_gdm::Dataset;
use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Read};
use std::path::Path;

/// What a pruned read should decode: which chromosome blocks and which
/// value columns. `None` means "everything" for either axis, so the
/// default options describe a full read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOptions {
    /// Chromosomes to decode; blocks for any other chromosome are
    /// skipped via the offset index. `None` decodes every chromosome.
    pub chroms: Option<BTreeSet<String>>,
    /// Value columns to decode, matched case-insensitively against the
    /// schema. Skipped columns are filled with typed nulls so the schema
    /// (and every region's value arity) stays stable. `None` decodes
    /// every column.
    pub columns: Option<BTreeSet<String>>,
}

impl ScanOptions {
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
