//! bedGraph — dense genomic signals.
//!
//! Signals ("regions with higher DNA read density", paper §1) are the
//! third major processed-data type. bedGraph rows are
//! `chrom start end value` with 0-based half-open coordinates.

use crate::error::FormatError;
use nggc_gdm::{Attribute, ChromInterner, GRegion, Schema, Strand, Value, ValueType};

/// The GDM schema for bedGraph: a single float `signal` attribute.
pub fn bedgraph_schema() -> Schema {
    Schema::new(vec![Attribute::new("signal", ValueType::Float)])
        .expect("bedGraph schema attributes are valid")
}

/// Parse bedGraph text into regions under [`bedgraph_schema`].
pub fn parse_bedgraph(text: &str) -> Result<Vec<GRegion>, FormatError> {
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') || line.starts_with("track") {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 4 {
            return Err(FormatError::malformed(
                lineno,
                format!("expected 4 fields, found {}", fields.len()),
            ));
        }
        let start: u64 = fields[1]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad start {:?}", fields[1])))?;
        let end: u64 = fields[2]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad end {:?}", fields[2])))?;
        if end <= start {
            return Err(FormatError::malformed(lineno, "bedGraph intervals must be non-empty"));
        }
        let signal = Value::parse_as(fields[3], ValueType::Float)
            .map_err(|e| FormatError::malformed(lineno, e.to_string()))?;
        out.push(
            GRegion::new(chroms.intern(fields[0]), start, end, Strand::Unstranded)
                .with_values(vec![signal]),
        );
    }
    Ok(out)
}

/// Serialise regions (under [`bedgraph_schema`]) to bedGraph text.
pub fn write_bedgraph(regions: &[GRegion]) -> String {
    let mut out = String::new();
    for r in regions {
        let v = r.values.first().map(Value::render).unwrap_or_else(|| ".".into());
        out.push_str(&format!("{}\t{}\t{}\t{}\n", r.chrom, r.left, r.right, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parse() {
        let rs = parse_bedgraph("chr1\t0\t100\t1.5\nchr1\t100\t200\t2.25\n").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[1].values[0], Value::Float(2.25));
    }

    #[test]
    fn space_separated_accepted() {
        let rs = parse_bedgraph("chr1 0 10 3\n").unwrap();
        assert_eq!(rs[0].values[0], Value::Float(3.0));
    }

    #[test]
    fn empty_interval_rejected() {
        assert!(parse_bedgraph("chr1\t5\t5\t1\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let text = "chr1\t0\t100\t1.5\nchr2\t7\t9\t-0.25\n";
        let rs = parse_bedgraph(text).unwrap();
        assert_eq!(write_bedgraph(&rs), text);
    }
}
