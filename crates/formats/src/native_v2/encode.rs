//! Writing a dataset as a container, and a query's outputs as framed containers.

use super::layout::{crc32c, put_str, put_varint, strand_bits, type_tag, zigzag, MAGIC, VERSION};
use crate::error::FormatError;
use nggc_gdm::{Dataset, RegionRow, Schema, ValueRef, ValueType};
use std::collections::HashMap;

/// The cell of `r` at schema position `col`; past the row's width, a null.
fn cell<R: RegionRow>(r: &R, col: usize) -> ValueRef<'_> {
    r.cell(col).unwrap_or(ValueRef::Null)
}

/// Bits packed eight per byte, first bit lowest, the last byte padded
/// with zeros.
fn pack_bits(out: &mut Vec<u8>, bits: impl Iterator<Item = bool>) {
    let mut byte = 0u8;
    let mut n = 0usize;
    for bit in bits {
        byte |= u8::from(bit) << (n % 8);
        n += 1;
        if n.is_multiple_of(8) {
            out.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        out.push(byte);
    }
}

/// Encode one chromosome's regions (all sharing a chromosome) into a
/// column-major block. A region is read through [`RegionRow`]: a row, or
/// a position of a batch read in place, give the same bytes.
pub(super) fn encode_chrom_block<R: RegionRow>(
    regions: &[R],
    schema: &Schema,
    out: &mut Vec<u8>,
) -> Result<(), FormatError> {
    // Column 1: lefts as zigzag deltas.
    let mut prev: i64 = 0;
    for r in regions {
        let left = i64::try_from(r.left())
            .map_err(|_| FormatError::Corrupt { offset: 0, reason: "left exceeds i64".into() })?;
        put_varint(out, zigzag(left - prev));
        prev = left;
    }
    // Column 2: lengths.
    for r in regions {
        put_varint(out, r.right() - r.left());
    }
    // Column 3: strands, 2 bits each.
    for four in regions.chunks(4) {
        let bits = four.iter().enumerate().map(|(i, r)| strand_bits(r.strand()) << (i * 2));
        out.push(bits.fold(0, |byte, b| byte | b));
    }
    // Value columns: null bitmap + typed payload.
    for (col, attr) in schema.attributes().iter().enumerate() {
        pack_bits(out, regions.iter().map(|r| cell(r, col) == ValueRef::Null));
        let mismatch = |v: ValueRef<'_>| FormatError::Corrupt {
            offset: 0,
            reason: format!("column {:?} cannot encode a {v:?} value", attr.name),
        };
        let mut bools = Vec::new();
        for r in regions {
            match (attr.ty, cell(r, col)) {
                (_, ValueRef::Null) => {}
                (ValueType::Int, ValueRef::Int(v)) => put_varint(out, zigzag(v)),
                (ValueType::Float, ValueRef::Float(v)) => {
                    out.extend_from_slice(&v.to_bits().to_le_bytes())
                }
                (ValueType::Bool, ValueRef::Bool(v)) => bools.push(v),
                (ValueType::Str, ValueRef::Str(s)) => put_str(out, s),
                (_, other) => return Err(mismatch(other)),
            }
        }
        pack_bits(out, bools.into_iter());
    }
    Ok(())
}

/// One sample's chromosome index and blocks: its regions grouped per
/// chromosome in first-appearance order (region order for a sorted
/// sample), each group one block.
fn encode_regions<R: RegionRow>(
    out: &mut Vec<u8>,
    regions: impl Iterator<Item = R>,
    schema: &Schema,
) -> Result<(), FormatError> {
    let mut groups: Vec<Vec<R>> = Vec::new();
    // Group of the previous region: a sorted sample changes group only at
    // a chromosome boundary.
    let mut current = 0;
    for r in regions {
        if groups.get(current).is_none_or(|g| g[0].chrom() != r.chrom()) {
            current = match groups.iter().position(|g| g[0].chrom() == r.chrom()) {
                Some(k) => k,
                None => {
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
        }
        groups[current].push(r);
    }
    // The blocks are written in place; the index in front of them, which
    // carries their lengths, is slid in once they are written.
    let at = out.len();
    let mut ends = Vec::with_capacity(groups.len());
    for group in &groups {
        encode_chrom_block(group, schema, out)?;
        ends.push(out.len());
    }
    let mut index = Vec::new();
    put_varint(&mut index, groups.len() as u64);
    let mut start = at;
    for (group, &end) in groups.iter().zip(&ends) {
        put_str(&mut index, group[0].chrom().as_str());
        put_varint(&mut index, group.len() as u64);
        put_varint(&mut index, (end - start) as u64);
        index.extend_from_slice(&crc32c(&out[start..end]).to_le_bytes());
        start = end;
    }
    out.splice(at..at, index);
    Ok(())
}

/// Serialise a whole dataset into container bytes at header revision
/// [`VERSION`]: per-block CRC32C entries plus a whole-file trailer
/// checksum. A batch-backed sample is written from its columns in place
/// and builds no row; a sample held as rows is written from its rows.
pub fn encode_dataset_v2(dataset: &Dataset) -> Result<Vec<u8>, FormatError> {
    let mut out = Vec::with_capacity(64 * 1024);
    encode_container(dataset, &mut out)?;
    Ok(out)
}

/// Append `dataset`'s container to `out`, its trailer the checksum of
/// the container's own bytes.
fn encode_container(dataset: &Dataset, out: &mut Vec<u8>) -> Result<(), FormatError> {
    let start = out.len();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_str(out, &dataset.name);
    // Schema block.
    put_varint(out, dataset.schema.len() as u64);
    for a in dataset.schema.attributes() {
        put_str(out, &a.name);
        out.push(type_tag(a.ty));
    }
    put_varint(out, dataset.samples.len() as u64);
    for sample in &dataset.samples {
        put_str(out, &sample.name);
        // Metadata pairs.
        let pairs: Vec<(&str, &str)> = sample.metadata.iter().collect();
        put_varint(out, pairs.len() as u64);
        for (k, v) in pairs {
            put_str(out, k);
            put_str(out, v);
        }
        match sample.regions.batch() {
            Some(batch) => encode_regions(out, batch.rows_in(0..batch.len()), &dataset.schema),
            None => encode_regions(out, sample.regions.iter(), &dataset.schema),
        }?;
    }
    let trailer = crc32c(&out[start..]);
    out.extend_from_slice(&trailer.to_le_bytes());
    Ok(())
}

/// Serialise a query's outputs as one byte stream: for each output, in
/// name order, its container's length as a `u64` LE and then the
/// container, which names the output (the key of each dataset is its
/// name). The federation stages a result in this form and the on-disk
/// result store keeps it; [`decode_outputs`](super::decode_outputs)
/// reverses it.
pub fn encode_outputs(outputs: &HashMap<String, Dataset>) -> Result<Vec<u8>, FormatError> {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        debug_assert_eq!(&outputs[name].name, name, "an output is keyed by its name");
        // Each container is written in place, its length patched in once
        // it is known.
        let at = out.len();
        out.extend_from_slice(&[0; 8]);
        encode_container(&outputs[name], &mut out)?;
        let len = (out.len() - at - 8) as u64;
        out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
    Ok(out)
}
