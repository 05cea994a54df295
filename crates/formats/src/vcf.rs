//! VCF-lite — variant calls as GDM regions.
//!
//! Mutations are one of the processed-data types GDM unifies (paper §2:
//! "a single model describes ... mutations"). We implement the site-level
//! core of VCF 4.x: `CHROM POS ID REF ALT QUAL FILTER INFO` (genotype
//! columns are ignored). A variant at 1-based `POS` with reference allele
//! `REF` maps to the half-open region `[POS-1, POS-1+len(REF))` — so SNVs
//! are 1 bp regions and pure insertions are zero-length points. Symbolic
//! alleles (`<DEL>`, `<DUP>`, …) carry their true extent in the INFO
//! `END=` key (1-based inclusive), which maps to `[POS-1, END)`.

use crate::error::FormatError;
use nggc_gdm::{Attribute, ChromInterner, GRegion, Schema, Strand, Value, ValueType};

/// The GDM schema for VCF sites.
pub fn vcf_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("id", ValueType::Str),
        Attribute::new("ref", ValueType::Str),
        Attribute::new("alt", ValueType::Str),
        Attribute::new("qual", ValueType::Float),
        Attribute::new("filter", ValueType::Str),
        Attribute::new("info", ValueType::Str),
    ])
    .expect("VCF schema attributes are valid")
}

/// Parse VCF text (header lines `#...` skipped) into GDM regions.
pub fn parse_vcf(text: &str) -> Result<Vec<GRegion>, FormatError> {
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 8 {
            return Err(FormatError::malformed(
                lineno,
                format!("expected 8 fields, found {}", fields.len()),
            ));
        }
        let pos: u64 = fields[1]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad POS {:?}", fields[1])))?;
        if pos == 0 {
            return Err(FormatError::malformed(lineno, "VCF POS is 1-based; 0 is invalid"));
        }
        let reference = fields[3];
        // Symbolic alleles (<DEL>, <INS>) have no literal length; their
        // extent, if any, is in INFO's END key. Without END, 1 bp.
        let ref_len = if reference.starts_with('<') { 1 } else { reference.len() as u64 };
        let left = pos - 1;
        let right = match info_end(fields[7]) {
            Some(Ok(end)) => {
                // END is the 1-based inclusive last base, i.e. the
                // half-open right bound in 0-based coordinates.
                if end < left {
                    return Err(FormatError::malformed(
                        lineno,
                        format!("INFO END={end} precedes POS {pos}"),
                    ));
                }
                end
            }
            Some(Err(bad)) => {
                return Err(FormatError::malformed(lineno, format!("bad INFO END {bad:?}")));
            }
            None => left.checked_add(ref_len).ok_or_else(|| {
                FormatError::malformed(lineno, "coordinate overflow (POS + REF length)")
            })?,
        };
        let qual = Value::parse_as(fields[5], ValueType::Float)
            .map_err(|e| FormatError::malformed(lineno, e.to_string()))?;
        let values = vec![
            Value::parse_as(fields[2], ValueType::Str).unwrap_or(Value::Null),
            Value::Str(reference.to_owned()),
            Value::Str(fields[4].to_owned()),
            qual,
            Value::Str(fields[6].to_owned()),
            Value::Str(fields[7].to_owned()),
        ];
        out.push(
            GRegion::new(chroms.intern(fields[0]), left, right, Strand::Unstranded)
                .with_values(values),
        );
    }
    Ok(out)
}

/// Extract the `END=` key from a semicolon-separated INFO column.
/// Returns `None` when absent, `Some(Err(raw))` when unparseable.
fn info_end(info: &str) -> Option<Result<u64, String>> {
    info.split(';').find_map(|kv| {
        let end = kv.strip_prefix("END=")?;
        Some(end.parse::<u64>().map_err(|_| end.to_owned()))
    })
}

/// Serialise regions (under [`vcf_schema`]) back to VCF body lines with a
/// minimal header.
pub fn write_vcf(regions: &[GRegion]) -> String {
    let mut out =
        String::from("##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n");
    for r in regions {
        let v = |i: usize| r.values.get(i).map(Value::render).unwrap_or_else(|| ".".into());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.chrom,
            r.left + 1,
            v(0),
            v(1),
            v(2),
            v(3),
            v(4),
            v(5),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const VCF: &str = "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\nchr17\t7675088\trs28934578\tC\tT\t228\tPASS\tDP=100\n";

    #[test]
    fn snv_is_one_bp_region() {
        let rs = parse_vcf(VCF).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!((rs[0].left, rs[0].right), (7675087, 7675088));
        assert_eq!(rs[0].values[0], Value::Str("rs28934578".into()));
        assert_eq!(rs[0].values[3], Value::Float(228.0));
    }

    #[test]
    fn deletion_spans_ref_allele() {
        let text = "chr1\t100\t.\tACGT\tA\t.\tPASS\t.\n";
        let rs = parse_vcf(text).unwrap();
        assert_eq!((rs[0].left, rs[0].right), (99, 103));
        assert_eq!(rs[0].values[0], Value::Null, "missing ID is null");
        assert_eq!(rs[0].values[3], Value::Null, "missing QUAL is null");
    }

    #[test]
    fn symbolic_allele_without_end_is_point() {
        let text = "chr1\t500\t.\t<DEL>\tN\t.\tPASS\tSVLEN=-100\n";
        let rs = parse_vcf(text).unwrap();
        assert_eq!(rs[0].len(), 1);
    }

    #[test]
    fn symbolic_allele_spans_info_end() {
        // A 100 bp deletion: POS 500, END 599 (1-based inclusive)
        // → 0-based half-open [499, 599).
        let text = "chr1\t500\tsv1\t<DEL>\tN\t.\tPASS\tSVTYPE=DEL;END=599;SVLEN=-100\n";
        let rs = parse_vcf(text).unwrap();
        assert_eq!((rs[0].left, rs[0].right), (499, 599));
        assert_eq!(rs[0].len(), 100);

        // <DUP> gets the same treatment.
        let text = "chr2\t1000\t.\t<DUP>\tN\t.\tPASS\tEND=1499\n";
        let rs = parse_vcf(text).unwrap();
        assert_eq!((rs[0].left, rs[0].right), (999, 1499));
    }

    #[test]
    fn info_end_applies_to_literal_alleles_too() {
        let text = "chr1\t100\t.\tA\t<DEL>\t.\tPASS\tEND=150\n";
        let rs = parse_vcf(text).unwrap();
        assert_eq!((rs[0].left, rs[0].right), (99, 150));
    }

    #[test]
    fn rejects_end_before_pos_and_garbage_end() {
        assert!(parse_vcf("chr1\t500\t.\t<DEL>\tN\t.\tPASS\tEND=10\n").is_err());
        assert!(parse_vcf("chr1\t500\t.\t<DEL>\tN\t.\tPASS\tEND=soon\n").is_err());
    }

    #[test]
    fn end_equal_to_left_makes_zero_length_region() {
        // END=POS-1 encodes a zero-length breakpoint (e.g. pure insertion).
        let text = "chr1\t500\t.\t<INS>\tN\t.\tPASS\tEND=499\n";
        let rs = parse_vcf(text).unwrap();
        assert_eq!((rs[0].left, rs[0].right), (499, 499));
        assert_eq!(rs[0].len(), 0);
    }

    #[test]
    fn rejects_pos_zero() {
        assert!(parse_vcf("chr1\t0\t.\tA\tC\t.\tPASS\t.\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let rs = parse_vcf(VCF).unwrap();
        let rs2 = parse_vcf(&write_vcf(&rs)).unwrap();
        assert_eq!(rs, rs2);
    }
}
