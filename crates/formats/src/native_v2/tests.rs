//! Tests of the container codec: round trips, pruned reads, checksums and the walk.

use super::decode::*;
use super::encode::*;
use super::layout::*;
use super::walk::*;
use super::*;
use nggc_gdm::{Attribute, GRegion, Metadata, Sample, Schema, Strand, Value, ValueType};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io;

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

/// Lay `dataset` out as a dataset directory: its container, written as
/// `dir/data.gdm2`. Returns the container's size in bytes.
fn write_dataset_v2(dataset: &Dataset, dir: &Path) -> Result<u64, FormatError> {
    let bytes = encode_dataset_v2(dataset)?;
    fs::create_dir_all(dir)?;
    fs::write(dir.join(CONTAINER_FILE), &bytes)?;
    Ok(bytes.len() as u64)
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
    assert!(matches!(read_dataset_auto(&dir, Layout::Batches), Err(FormatError::UnknownFormat(_))));
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
    let columns =
        ScanOptions { chroms: None, columns: Some(std::iter::once("count".to_string()).collect()) };
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

    let opts =
        ScanOptions { chroms: Some(std::iter::once("chr2".to_string()).collect()), columns: None };
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
    let all =
        ScanOptions { chroms: None, columns: Some(std::iter::once("count".to_string()).collect()) };
    for cut in 0..bytes.len() {
        let short = &bytes[..cut];
        // The trailer alone may be missing; anything shorter cuts into
        // an index or a block.
        let structural = cut < bytes.len() - 4;
        let index = index_of(short);
        let pruned = scan_from(io::Cursor::new(short), &all, admit_all);
        let late = materialize_dataset_v2_from(io::Cursor::new(short), &all, &late(), admit_all);
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
        materialize_dataset_v2_from(io::Cursor::new(&old), &chroms_only(&[]), &late(), admit_all)
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
        let read = materialize_dataset_v2_from(io::Cursor::new(&flipped), &chr2, &build, admit_all);
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
    let opts =
        ScanOptions { chroms: Some(std::iter::once("chr2".to_string()).collect()), columns: None };
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
    let opts =
        ScanOptions { chroms: None, columns: Some(std::iter::once("COUNT".to_string()).collect()) };
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
        assert_eq!((&r.values[1], r.values[0].is_null()), (&rf.values[2], rf.values[0].is_null()));
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
        materialize_dataset_v2_from(io::Cursor::new(&bytes), &chr1, &late(), admit_all).unwrap();
    // s1/chr1 holds 100-200 and 150-150, both inside; `score` and
    // `count` keep their cells, `name` and `flagged` have none.
    let full = decode_dataset_v2(&bytes).unwrap();
    let want: Vec<Vec<Value>> = full.samples[0].regions[..2]
        .iter()
        .map(|r| vec![r.values[0].clone(), r.values[2].clone()])
        .collect();
    let values: Vec<Vec<Value>> = got.samples[0].regions.iter().map(|r| r.values.clone()).collect();
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
        ds.add_sample(Sample::new(format!("s{s}"), "MARKED").with_regions(vec![region])).unwrap();
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
