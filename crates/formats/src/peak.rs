//! ENCODE narrowPeak / broadPeak formats.
//!
//! These are the processed ChIP-seq outputs that the paper's §2 example
//! (the PEAKS dataset, Figure 2) models: each region carries the peak's
//! statistical significance among other calling attributes.
//!
//! narrowPeak = BED6 + `signalValue pValue qValue peak` (10 columns);
//! broadPeak  = BED6 + `signalValue pValue qValue`       (9 columns).

use crate::error::FormatError;
use nggc_gdm::{Attribute, ChromInterner, GRegion, Schema, Strand, Value, ValueType};

/// Which peak flavour to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakKind {
    /// 10-column ENCODE narrowPeak (point-source calls).
    Narrow,
    /// 9-column ENCODE broadPeak (broad enriched domains).
    Broad,
}

impl PeakKind {
    /// Total column count of the flavour.
    pub fn columns(self) -> usize {
        match self {
            PeakKind::Narrow => 10,
            PeakKind::Broad => 9,
        }
    }

    /// The GDM schema of the flavour's variable attributes.
    pub fn schema(self) -> Schema {
        let mut attrs = vec![
            Attribute::new("name", ValueType::Str),
            Attribute::new("score", ValueType::Float),
            Attribute::new("signal_value", ValueType::Float),
            Attribute::new("p_value", ValueType::Float),
            Attribute::new("q_value", ValueType::Float),
        ];
        if self == PeakKind::Narrow {
            attrs.push(Attribute::new("peak", ValueType::Int));
        }
        Schema::new(attrs).expect("peak schema attributes are valid")
    }
}

/// Parse narrowPeak/broadPeak text into regions.
pub fn parse_peaks(text: &str, kind: PeakKind) -> Result<Vec<GRegion>, FormatError> {
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') || line.starts_with("track") {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < kind.columns() {
            return Err(FormatError::malformed(
                lineno,
                format!("expected {} fields, found {}", kind.columns(), fields.len()),
            ));
        }
        let start: u64 = fields[1]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad start {:?}", fields[1])))?;
        let end: u64 = fields[2]
            .parse()
            .map_err(|_| FormatError::malformed(lineno, format!("bad end {:?}", fields[2])))?;
        if end < start {
            return Err(FormatError::malformed(lineno, format!("end {end} < start {start}")));
        }
        let strand = Strand::parse(fields[5])
            .ok_or_else(|| FormatError::malformed(lineno, format!("bad strand {:?}", fields[5])))?;

        let parse = |col: usize, ty: ValueType| -> Result<Value, FormatError> {
            // ENCODE uses -1 for "not assigned" in p/q/peak columns;
            // preserve it verbatim (downstream predicates filter on it).
            Value::parse_as(fields[col], ty)
                .map_err(|e| FormatError::malformed(lineno, e.to_string()))
        };

        let mut values = Vec::with_capacity(kind.columns() - 4);
        values.push(parse(3, ValueType::Str)?);
        for col in [4, 6, 7, 8] {
            values.push(parse(col, ValueType::Float)?);
        }
        if kind == PeakKind::Narrow {
            values.push(parse(9, ValueType::Int)?);
        }
        out.push(GRegion::new(chroms.intern(fields[0]), start, end, strand).with_values(values));
    }
    Ok(out)
}

/// Serialise regions in narrowPeak/broadPeak layout.
pub fn write_peaks(regions: &[GRegion], kind: PeakKind) -> String {
    let mut out = String::new();
    for r in regions {
        let v = |i: usize| r.values.get(i).map(Value::render).unwrap_or_else(|| ".".into());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.chrom,
            r.left,
            r.right,
            v(0),
            v(1),
            r.strand.symbol(),
            v(2),
            v(3),
            v(4),
        ));
        if kind == PeakKind::Narrow {
            out.push('\t');
            out.push_str(&v(5));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const NARROW: &str = "chr1\t9356548\t9356648\tpeak_1\t182\t.\t6.1\t-1\t5.2\t50\n";

    #[test]
    fn narrowpeak_parses_all_columns() {
        let rs = parse_peaks(NARROW, PeakKind::Narrow).unwrap();
        assert_eq!(rs.len(), 1);
        let r = &rs[0];
        assert_eq!(r.len(), 100);
        assert_eq!(r.values[0], Value::Str("peak_1".into()));
        assert_eq!(r.values[2], Value::Float(6.1));
        assert_eq!(r.values[3], Value::Float(-1.0), "ENCODE 'not assigned' preserved");
        assert_eq!(r.values[5], Value::Int(50));
    }

    #[test]
    fn broadpeak_has_nine_columns() {
        let text = "chr2\t100\t900\tbp1\t55\t+\t3.3\t0.01\t0.05\n";
        let rs = parse_peaks(text, PeakKind::Broad).unwrap();
        assert_eq!(rs[0].values.len(), 5);
        assert_eq!(rs[0].strand, Strand::Pos);
        assert!(parse_peaks(text, PeakKind::Narrow).is_err(), "narrow needs 10 columns");
    }

    #[test]
    fn schema_shapes() {
        assert_eq!(PeakKind::Narrow.schema().len(), 6);
        assert_eq!(PeakKind::Broad.schema().len(), 5);
        assert_eq!(PeakKind::Narrow.schema().get("p_value").unwrap().ty, ValueType::Float);
    }

    #[test]
    fn roundtrip() {
        let rs = parse_peaks(NARROW, PeakKind::Narrow).unwrap();
        let text = write_peaks(&rs, PeakKind::Narrow);
        let rs2 = parse_peaks(&text, PeakKind::Narrow).unwrap();
        assert_eq!(rs, rs2);
    }
}
