//! GFF3 (Generic Feature Format v3) — the successor of GTF.
//!
//! Same nine-column layout as GTF but with `key=value` attribute pairs
//! and a formal `ID`/`Parent` hierarchy. Coordinates are 1-based
//! inclusive and convert to 0-based half-open.

use crate::error::FormatError;
use nggc_gdm::{Attribute, ChromInterner, GRegion, Schema, Strand, Value, ValueType};

/// The GDM schema for GFF3 rows.
pub fn gff3_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("source", ValueType::Str),
        Attribute::new("type", ValueType::Str),
        Attribute::new("score", ValueType::Float),
        Attribute::new("phase", ValueType::Str),
        Attribute::new("id", ValueType::Str),
        Attribute::new("name", ValueType::Str),
        Attribute::new("parent", ValueType::Str),
    ])
    .expect("GFF3 schema attributes are valid")
}

/// Parse GFF3 text into regions under [`gff3_schema`]. Directives (`##`)
/// and comments are skipped; the `###` resolution directive and FASTA
/// section terminate region parsing per the spec.
pub fn parse_gff3(text: &str) -> Result<Vec<GRegion>, FormatError> {
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line == "##FASTA" {
            break;
        }
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
        if start == 0 || end < start {
            return Err(FormatError::malformed(lineno, "invalid 1-based coordinates"));
        }
        let strand = Strand::parse(fields[6])
            .or(if fields[6] == "?" { Some(Strand::Unstranded) } else { None })
            .ok_or_else(|| FormatError::malformed(lineno, format!("bad strand {:?}", fields[6])))?;
        let score = Value::parse_as(fields[5], ValueType::Float)
            .map_err(|e| FormatError::malformed(lineno, e.to_string()))?;
        let attrs = parse_gff3_attributes(fields[8]);
        let get = |key: &str| -> Value {
            attrs
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(key))
                .map(|(_, v)| Value::Str(v.clone()))
                .unwrap_or(Value::Null)
        };
        let values = vec![
            Value::Str(fields[1].to_owned()),
            Value::Str(fields[2].to_owned()),
            score,
            Value::parse_as(fields[7], ValueType::Str).unwrap_or(Value::Null),
            get("ID"),
            get("Name"),
            get("Parent"),
        ];
        out.push(
            GRegion::new(chroms.intern(fields[0]), start - 1, end, strand).with_values(values),
        );
    }
    Ok(out)
}

/// Split a GFF3 attribute column into `(key, value)` pairs, decoding the
/// three percent-escapes the spec requires in values.
fn parse_gff3_attributes(blob: &str) -> Vec<(String, String)> {
    blob.split(';')
        .filter_map(|part| {
            let part = part.trim();
            let (k, v) = part.split_once('=')?;
            let v =
                v.replace("%3B", ";").replace("%3D", "=").replace("%26", "&").replace("%2C", ",");
            Some((k.to_owned(), v))
        })
        .collect()
}

/// Serialise regions (under [`gff3_schema`]) to GFF3 text.
pub fn write_gff3(regions: &[GRegion]) -> String {
    let mut out = String::from("##gff-version 3\n");
    for r in regions {
        let v = |i: usize| r.values.get(i).cloned().unwrap_or(Value::Null);
        let mut attrs = Vec::new();
        for (key, idx) in [("ID", 4), ("Name", 5), ("Parent", 6)] {
            if let Value::Str(s) = v(idx) {
                attrs.push(format!("{key}={}", s.replace(';', "%3B").replace('=', "%3D")));
            }
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
            if attrs.is_empty() { ".".to_owned() } else { attrs.join(";") },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GFF: &str = "##gff-version 3\nchr1\thavana\tgene\t11869\t14409\t.\t+\t.\tID=gene:ENSG1;Name=DDX11L1\nchr1\thavana\tmRNA\t11869\t14409\t.\t+\t.\tID=tx:ENST1;Parent=gene:ENSG1\n";

    #[test]
    fn parses_hierarchy_attributes() {
        let rs = parse_gff3(GFF).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].values[4], Value::Str("gene:ENSG1".into()));
        assert_eq!(rs[0].values[5], Value::Str("DDX11L1".into()));
        assert_eq!(rs[1].values[6], Value::Str("gene:ENSG1".into()));
        assert_eq!(rs[0].left, 11868, "1-based converts to half-open");
    }

    #[test]
    fn percent_escapes_decoded() {
        let text = "chr1\ts\tt\t1\t5\t.\t+\t.\tID=a;Name=x%3By%3Dz\n";
        let rs = parse_gff3(text).unwrap();
        assert_eq!(rs[0].values[5], Value::Str("x;y=z".into()));
    }

    #[test]
    fn fasta_section_terminates() {
        let text = "chr1\ts\tt\t1\t5\t.\t+\t.\tID=a\n##FASTA\n>chr1\nACGT\n";
        let rs = parse_gff3(text).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn question_mark_strand_is_unstranded() {
        let text = "chr1\ts\tt\t1\t5\t.\t?\t.\tID=a\n";
        let rs = parse_gff3(text).unwrap();
        assert_eq!(rs[0].strand, Strand::Unstranded);
    }

    #[test]
    fn roundtrip() {
        let rs = parse_gff3(GFF).unwrap();
        let rs2 = parse_gff3(&write_gff3(&rs)).unwrap();
        assert_eq!(rs, rs2);
    }

    #[test]
    fn schema_check() {
        let rs = parse_gff3(GFF).unwrap();
        for r in &rs {
            gff3_schema().check_row(&r.values).unwrap();
        }
    }
}
