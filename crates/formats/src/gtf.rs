//! GTF (Gene Transfer Format) — gene/transcript annotations.
//!
//! GDM treats annotations (genes, promoters, enhancers) as just another
//! region dataset (paper §2 loads reference regions "from the UCSC
//! database"). GTF columns:
//! `seqname source feature start end score strand frame attributes`.
//!
//! GTF coordinates are **1-based inclusive**; the GDM mapping converts to
//! 0-based half-open (`left = start-1`, `right = end`).

use crate::error::FormatError;
use nggc_gdm::{Attribute, ChromInterner, GRegion, Schema, Strand, Value, ValueType};

/// The GDM schema for GTF rows: `source`, `feature`, `score`, `frame`,
/// plus the two near-universal attributes `gene_id` and `transcript_id`.
pub fn gtf_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("source", ValueType::Str),
        Attribute::new("feature", ValueType::Str),
        Attribute::new("score", ValueType::Float),
        Attribute::new("frame", ValueType::Str),
        Attribute::new("gene_id", ValueType::Str),
        Attribute::new("transcript_id", ValueType::Str),
    ])
    .expect("GTF schema attributes are valid")
}

/// Parse GTF text into regions under [`gtf_schema`].
pub fn parse_gtf(text: &str) -> Result<Vec<GRegion>, FormatError> {
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 9 {
            return Err(FormatError::malformed(
                lineno,
                format!("expected 9 fields, found {}", fields.len()),
            ));
        }
        let start: u64 = fields[3]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad start {:?}", fields[3])))?;
        let end: u64 = fields[4]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad end {:?}", fields[4])))?;
        if start == 0 {
            return Err(FormatError::malformed(
                lineno,
                "GTF coordinates are 1-based; start 0 is invalid",
            ));
        }
        if end < start {
            return Err(FormatError::malformed(lineno, format!("end {end} < start {start}")));
        }
        let strand = Strand::parse(fields[6])
            .ok_or_else(|| FormatError::malformed(lineno, format!("bad strand {:?}", fields[6])))?;
        let score = Value::parse_as(fields[5], ValueType::Float)
            .map_err(|e| FormatError::malformed(lineno, e.to_string()))?;
        let (gene_id, transcript_id) = parse_gtf_attributes(fields[8]);
        let values = vec![
            Value::Str(fields[1].to_owned()),
            Value::Str(fields[2].to_owned()),
            score,
            Value::Str(fields[7].to_owned()),
            gene_id.map(Value::Str).unwrap_or(Value::Null),
            transcript_id.map(Value::Str).unwrap_or(Value::Null),
        ];
        out.push(
            GRegion::new(chroms.intern(fields[0]), start - 1, end, strand).with_values(values),
        );
    }
    Ok(out)
}

/// Extract `gene_id` and `transcript_id` from a GTF attribute blob like
/// `gene_id "TP53"; transcript_id "TP53-201";`.
fn parse_gtf_attributes(blob: &str) -> (Option<String>, Option<String>) {
    let mut gene = None;
    let mut transcript = None;
    for part in blob.split(';') {
        let part = part.trim();
        if let Some(rest) = part.strip_prefix("gene_id") {
            gene = Some(rest.trim().trim_matches('"').to_owned());
        } else if let Some(rest) = part.strip_prefix("transcript_id") {
            transcript = Some(rest.trim().trim_matches('"').to_owned());
        }
    }
    (gene.filter(|s| !s.is_empty()), transcript.filter(|s| !s.is_empty()))
}

/// Serialise regions (under [`gtf_schema`]) back to GTF text.
pub fn write_gtf(regions: &[GRegion]) -> String {
    let mut out = String::new();
    for r in regions {
        let v = |i: usize| r.values.get(i).cloned().unwrap_or(Value::Null);
        let mut attrs = String::new();
        if let Value::Str(g) = v(4) {
            attrs.push_str(&format!("gene_id \"{g}\"; "));
        }
        if let Value::Str(t) = v(5) {
            attrs.push_str(&format!("transcript_id \"{t}\"; "));
        }
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.chrom,
            v(0).render(),
            v(1).render(),
            r.left + 1,
            r.right,
            v(2).render(),
            r.strand.symbol(),
            v(3).render(),
            attrs.trim_end(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GTF: &str = "chr1\thavana\tgene\t11869\t14409\t.\t+\t.\tgene_id \"DDX11L1\"; transcript_id \"DDX11L1-202\";\n";

    #[test]
    fn coordinates_convert_to_half_open() {
        let rs = parse_gtf(GTF).unwrap();
        assert_eq!(rs[0].left, 11868);
        assert_eq!(rs[0].right, 14409);
        assert_eq!(rs[0].strand, Strand::Pos);
    }

    #[test]
    fn attributes_extracted() {
        let rs = parse_gtf(GTF).unwrap();
        assert_eq!(rs[0].values[4], Value::Str("DDX11L1".into()));
        assert_eq!(rs[0].values[5], Value::Str("DDX11L1-202".into()));
        assert_eq!(rs[0].values[1], Value::Str("gene".into()));
        assert_eq!(rs[0].values[2], Value::Null, "dot score is null");
    }

    #[test]
    fn missing_attributes_null() {
        let text = "chr1\tsrc\texon\t10\t20\t1.5\t-\t0\tother_key \"x\";\n";
        let rs = parse_gtf(text).unwrap();
        assert_eq!(rs[0].values[4], Value::Null);
        assert_eq!(rs[0].values[2], Value::Float(1.5));
    }

    #[test]
    fn rejects_zero_start() {
        assert!(parse_gtf("chr1\ts\tf\t0\t10\t.\t+\t.\tx\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let rs = parse_gtf(GTF).unwrap();
        let rs2 = parse_gtf(&write_gtf(&rs)).unwrap();
        assert_eq!(rs, rs2);
    }

    #[test]
    fn comment_lines_skipped() {
        let rs = parse_gtf("#!genome-build GRCh38\n").unwrap();
        assert!(rs.is_empty());
    }
}
