//! Decoding chromosome blocks into region batches, and the readers built on one walk.

use super::layout::{
    corrupt_at, crc32c, strand_from_bits, unzigzag, verify_trailer, VARINT_MAX_BYTES,
};
use super::walk::{admit_all, walk_container, ContainerSource, Walker, WantedBlock};
use super::{Layout, Materialize, ScanOptions, ScanStats};
use crate::error::FormatError;
use nggc_engine::WorkerPool;
use nggc_gdm::{
    Attribute, Chrom, Column, Dataset, GRegion, Metadata, RegionBatch, Sample, Schema, ValueRef,
    ValueType,
};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::OnceLock;

/// Shared worker pool for block decoding. Sized to the machine once and
/// reused across every decode so concurrent loads don't oversubscribe
/// the CPU with nested pools.
static DECODE_POOL: OnceLock<WorkerPool> = OnceLock::new();

fn decode_pool() -> &'static WorkerPool {
    DECODE_POOL.get_or_init(WorkerPool::with_default_size)
}

/// Byte cursor over one chromosome block, with offset-carrying decode
/// errors. `base` is where the block starts in its container, so errors
/// report container offsets whether the block is a slice of an in-memory
/// container or an extent read from a file.
pub(super) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(buf: &'a [u8], base: u64) -> Cursor<'a> {
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
    pub(super) fn varint(&mut self) -> Result<u64, FormatError> {
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
pub(super) fn decode_full(buf: &[u8], layout: Layout) -> Result<Dataset, FormatError> {
    Walker::new(&io::Cursor::new(buf))?.version()?;
    verify_trailer(buf)?;
    let (all, build) = (ScanOptions::default(), Materialize::default());
    read_with(&io::Cursor::new(buf), &all, &build, admit_all, false, layout).map(|(ds, _)| ds)
}

/// Decode the output stream [`encode_outputs`](super::encode_outputs)
/// writes. Each frame's length is checked against the bytes left before
/// anything is sliced, each container is decoded in full (its trailer
/// checksum verified), and an output name may appear once. A truncated
/// frame, a corrupt container or a repeated name is an error.
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
    let build = Materialize::default();
    read_with(&io::Cursor::new(buf), opts, &build, admit_all, true, Layout::Batches)
}

/// Read a v2 container restricted on all three axes: `admit` is asked
/// once per sample, with the name and metadata stored in front of its
/// blocks, and a sample it refuses is **absent** from the dataset
/// returned — its blocks are passed over whole and never read,
/// checksummed or decoded. Of the admitted samples, wanted block extents
/// are read whole and verified lazily, unwanted ones are stepped over,
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
