//! The container's bytes: magic, version, varints, type tags, strand bits and CRC32C.

use crate::error::FormatError;
use nggc_gdm::{Strand, ValueType};

/// Magic bytes opening every v2 container.
pub const MAGIC: &[u8; 8] = b"NGGCGDM2";

/// The one header revision written and read: per-block CRC32C plus a
/// whole-file trailer checksum.
pub const VERSION: u8 = 3;

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
pub(super) fn crc32c_table_loop(bytes: &[u8]) -> u32 {
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
pub(super) fn crc32c_hardware(bytes: &[u8]) -> Option<u32> {
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

pub(super) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

pub(super) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(super) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(super) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A LEB128 varint holds at most ten bytes of a `u64`.
pub(super) const VARINT_MAX_BYTES: usize = 10;

pub(super) fn corrupt_at(offset: u64, reason: impl Into<String>) -> FormatError {
    FormatError::Corrupt {
        offset: usize::try_from(offset).unwrap_or(usize::MAX),
        reason: reason.into(),
    }
}

pub(super) fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
    }
}

pub(super) fn type_from_tag(tag: u8) -> Option<ValueType> {
    match tag {
        0 => Some(ValueType::Int),
        1 => Some(ValueType::Float),
        2 => Some(ValueType::Str),
        3 => Some(ValueType::Bool),
        _ => None,
    }
}

pub(super) fn strand_bits(s: Strand) -> u8 {
    match s {
        Strand::Pos => 0,
        Strand::Neg => 1,
        Strand::Unstranded => 2,
    }
}

pub(super) fn strand_from_bits(bits: u8) -> Option<Strand> {
    match bits {
        0 => Some(Strand::Pos),
        1 => Some(Strand::Neg),
        2 => Some(Strand::Unstranded),
        _ => None,
    }
}

/// Verify the whole-file CRC32C trailer of a container.
pub(super) fn verify_trailer(buf: &[u8]) -> Result<(), FormatError> {
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
