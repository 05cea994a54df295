//! BED format (3–6 fixed columns plus optional extra typed columns).
//!
//! BED is the lingua franca of processed region data (the paper's §2
//! example loads ENCODE samples "in BED format"). Columns:
//! `chrom start end [name] [score] [strand] [extra...]`.
//!
//! The GDM mapping keeps `name` as a string attribute, `score` as a float,
//! and any extra columns according to a caller-provided schema.

use crate::error::FormatError;
use nggc_gdm::{Attribute, ChromInterner, GRegion, Schema, Strand, Value, ValueType};

/// Parsing configuration for BED-family files.
#[derive(Debug, Clone)]
pub struct BedOptions {
    /// Number of standard columns expected (3..=6).
    pub standard_columns: usize,
    /// Schema of extra columns beyond the standard ones.
    pub extra: Vec<Attribute>,
}

impl Default for BedOptions {
    fn default() -> Self {
        BedOptions { standard_columns: 6, extra: Vec::new() }
    }
}

impl BedOptions {
    /// BED3: coordinates only.
    pub fn bed3() -> BedOptions {
        BedOptions { standard_columns: 3, extra: Vec::new() }
    }

    /// BED6: coordinates + name + score + strand.
    pub fn bed6() -> BedOptions {
        BedOptions::default()
    }

    /// The GDM schema induced by these options.
    pub fn schema(&self) -> Schema {
        let mut attrs = Vec::new();
        if self.standard_columns >= 4 {
            attrs.push(Attribute::new("name", ValueType::Str));
        }
        if self.standard_columns >= 5 {
            attrs.push(Attribute::new("score", ValueType::Float));
        }
        attrs.extend(self.extra.iter().cloned());
        Schema::new(attrs).expect("BED schema attributes are valid")
    }
}

/// Parse BED text into regions according to `opts`. Lines starting with
/// `#`, `track` or `browser` and blank lines are skipped.
pub fn parse_bed(text: &str, opts: &BedOptions) -> Result<Vec<GRegion>, FormatError> {
    if !(3..=6).contains(&opts.standard_columns) {
        return Err(FormatError::UnknownFormat(format!(
            "BED with {} standard columns",
            opts.standard_columns
        )));
    }
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty()
            || line.starts_with('#')
            || line.starts_with("track")
            || line.starts_with("browser")
        {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let min = opts.standard_columns.min(3);
        if fields.len() < min {
            return Err(FormatError::malformed(lineno, format!("expected ≥{min} fields")));
        }
        let chrom = fields[0];
        let start: u64 = fields[1]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad start {:?}", fields[1])))?;
        let end: u64 = fields[2]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad end {:?}", fields[2])))?;
        if end < start {
            return Err(FormatError::malformed(lineno, format!("end {end} < start {start}")));
        }
        let strand = if opts.standard_columns >= 6 {
            fields
                .get(5)
                .map(|s| {
                    Strand::parse(s)
                        .ok_or_else(|| FormatError::malformed(lineno, format!("bad strand {s:?}")))
                })
                .transpose()?
                .unwrap_or(Strand::Unstranded)
        } else {
            Strand::Unstranded
        };

        let mut values = Vec::new();
        if opts.standard_columns >= 4 {
            values.push(match fields.get(3) {
                Some(v) => Value::parse_as(v, ValueType::Str).map_err(nggc_gdm::GdmError::from)?,
                None => Value::Null,
            });
        }
        if opts.standard_columns >= 5 {
            values.push(match fields.get(4) {
                Some(v) => {
                    Value::parse_as(v, ValueType::Float).map_err(nggc_gdm::GdmError::from)?
                }
                None => Value::Null,
            });
        }
        for (i, attr) in opts.extra.iter().enumerate() {
            let col = opts.standard_columns + i;
            values.push(match fields.get(col) {
                Some(v) => Value::parse_as(v, attr.ty).map_err(nggc_gdm::GdmError::from)?,
                None => Value::Null,
            });
        }
        out.push(GRegion::new(chroms.intern(chrom), start, end, strand).with_values(values));
    }
    Ok(out)
}

/// Serialise regions as BED text (inverse of [`parse_bed`] for the same
/// options).
pub fn write_bed(regions: &[GRegion], opts: &BedOptions) -> String {
    let mut out = String::new();
    for r in regions {
        out.push_str(r.chrom.as_str());
        out.push('\t');
        out.push_str(&r.left.to_string());
        out.push('\t');
        out.push_str(&r.right.to_string());
        let mut vi = 0;
        if opts.standard_columns >= 4 {
            out.push('\t');
            out.push_str(&r.values.get(vi).map(Value::render).unwrap_or_else(|| ".".into()));
            vi += 1;
        }
        if opts.standard_columns >= 5 {
            out.push('\t');
            out.push_str(&r.values.get(vi).map(Value::render).unwrap_or_else(|| ".".into()));
            vi += 1;
        }
        if opts.standard_columns >= 6 {
            out.push('\t');
            out.push(r.strand.symbol());
        }
        for _ in &opts.extra {
            out.push('\t');
            out.push_str(&r.values.get(vi).map(Value::render).unwrap_or_else(|| ".".into()));
            vi += 1;
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bed3_minimal() {
        let rs = parse_bed("chr1\t10\t20\nchr2\t0\t5\n", &BedOptions::bed3()).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].len(), 10);
        assert_eq!(rs[0].strand, Strand::Unstranded);
        assert!(rs[0].values.is_empty());
    }

    #[test]
    fn bed6_full() {
        let rs = parse_bed("chr1\t10\t20\tpeak1\t77.5\t-\n", &BedOptions::bed6()).unwrap();
        assert_eq!(rs[0].strand, Strand::Neg);
        assert_eq!(rs[0].values, vec![Value::Str("peak1".into()), Value::Float(77.5)]);
    }

    #[test]
    fn skips_headers_and_blank_lines() {
        let text = "# comment\ntrack name=x\nbrowser position chr1\n\nchr1\t0\t1\n";
        let rs = parse_bed(text, &BedOptions::bed3()).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn extra_columns_typed() {
        let opts = BedOptions {
            standard_columns: 6,
            extra: vec![Attribute::new("p_value", ValueType::Float)],
        };
        let rs = parse_bed("chr1\t0\t5\tp\t1\t+\t0.003\n", &opts).unwrap();
        assert_eq!(rs[0].values[2], Value::Float(0.003));
        assert_eq!(opts.schema().len(), 3);
    }

    #[test]
    fn missing_trailing_columns_become_null() {
        let rs = parse_bed("chr1\t0\t5\n", &BedOptions::bed6()).unwrap();
        assert_eq!(rs[0].values, vec![Value::Null, Value::Null]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_bed("chr1\t0\t5\nchr1\tX\t9\n", &BedOptions::bed3()).unwrap_err();
        match err {
            FormatError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_inverted_coordinates() {
        assert!(parse_bed("chr1\t20\t10\n", &BedOptions::bed3()).is_err());
    }

    #[test]
    fn roundtrip_bed6() {
        let opts = BedOptions::bed6();
        let text = "chr1\t0\t5\tp1\t3.5\t+\nchr2\t9\t20\t.\t.\t*\n";
        let rs = parse_bed(text, &opts).unwrap();
        assert_eq!(write_bed(&rs, &opts), text);
    }
}
