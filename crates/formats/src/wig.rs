//! WIG (wiggle) — dense signal tracks.
//!
//! Two declaration styles, both 1-based:
//!
//! * `fixedStep chrom=chrN start=S step=T [span=W]` followed by one value
//!   per line;
//! * `variableStep chrom=chrN [span=W]` followed by `position value`
//!   lines.
//!
//! Each value becomes a GDM region of `span` bases with a `signal`
//! attribute — the same schema as bedGraph, so WIG tracks interoperate
//! with bedGraph signals out of the box.

use crate::bedgraph::bedgraph_schema;
use crate::error::FormatError;
use nggc_gdm::{Chrom, ChromInterner, GRegion, Schema, Strand, Value, ValueType};

/// The GDM schema for WIG: identical to bedGraph (`signal: float`).
pub fn wig_schema() -> Schema {
    bedgraph_schema()
}

#[derive(Debug, Clone)]
enum Mode {
    Fixed { chrom: Chrom, next_start: u64, step: u64, span: u64 },
    Variable { chrom: Chrom, span: u64 },
}

/// Parse WIG text into regions under [`wig_schema`].
pub fn parse_wig(text: &str) -> Result<Vec<GRegion>, FormatError> {
    let mut out = Vec::new();
    let mut chroms = ChromInterner::new();
    let mut mode: Option<Mode> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("track") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("fixedStep") {
            let (chrom, start, step, span) = parse_decl(rest, lineno, true)?;
            if start == 0 {
                return Err(FormatError::malformed(lineno, "WIG start is 1-based"));
            }
            let chrom = chroms.intern(&chrom);
            mode = Some(Mode::Fixed { chrom, next_start: start - 1, step, span });
            continue;
        }
        if let Some(rest) = line.strip_prefix("variableStep") {
            let (chrom, _, _, span) = parse_decl(rest, lineno, false)?;
            mode = Some(Mode::Variable { chrom: chroms.intern(&chrom), span });
            continue;
        }
        match &mut mode {
            None => {
                return Err(FormatError::malformed(
                    lineno,
                    "value line before fixedStep/variableStep declaration",
                ))
            }
            Some(Mode::Fixed { chrom, next_start, step, span }) => {
                let signal = Value::parse_as(line, ValueType::Float)
                    .map_err(|e| FormatError::malformed(lineno, e.to_string()))?;
                // Declarations near u64::MAX would wrap the coordinate
                // arithmetic; reject instead of panicking under
                // overflow-checks.
                let right = next_start.checked_add(*span).ok_or_else(|| {
                    FormatError::malformed(lineno, "coordinate overflow (start + span)")
                })?;
                out.push(
                    GRegion::new(chrom.clone(), *next_start, right, Strand::Unstranded)
                        .with_values(vec![signal]),
                );
                *next_start = next_start.checked_add(*step).ok_or_else(|| {
                    FormatError::malformed(lineno, "coordinate overflow (start + step)")
                })?;
            }
            Some(Mode::Variable { chrom, span }) => {
                let mut parts = line.split_whitespace();
                let pos: u64 = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| FormatError::malformed(lineno, "expected position"))?;
                if pos == 0 {
                    return Err(FormatError::malformed(lineno, "WIG positions are 1-based"));
                }
                let value =
                    parts.next().ok_or_else(|| FormatError::malformed(lineno, "expected value"))?;
                let signal = Value::parse_as(value, ValueType::Float)
                    .map_err(|e| FormatError::malformed(lineno, e.to_string()))?;
                let right = (pos - 1).checked_add(*span).ok_or_else(|| {
                    FormatError::malformed(lineno, "coordinate overflow (position + span)")
                })?;
                out.push(
                    GRegion::new(chrom.clone(), pos - 1, right, Strand::Unstranded)
                        .with_values(vec![signal]),
                );
            }
        }
    }
    Ok(out)
}

fn parse_decl(
    rest: &str,
    lineno: usize,
    require_start: bool,
) -> Result<(String, u64, u64, u64), FormatError> {
    let mut chrom = None;
    let mut start = None;
    let mut step = None;
    let mut span = 1u64;
    for part in rest.split_whitespace() {
        let Some((k, v)) = part.split_once('=') else {
            return Err(FormatError::malformed(lineno, format!("bad declaration field {part:?}")));
        };
        match k {
            "chrom" => chrom = Some(v.to_owned()),
            "start" => {
                start = Some(
                    v.parse()
                        .map_err(|_| FormatError::malformed(lineno, format!("bad start {v:?}")))?,
                )
            }
            "step" => {
                step = Some(
                    v.parse()
                        .map_err(|_| FormatError::malformed(lineno, format!("bad step {v:?}")))?,
                )
            }
            "span" => {
                span = v
                    .parse()
                    .map_err(|_| FormatError::malformed(lineno, format!("bad span {v:?}")))?
            }
            other => {
                return Err(FormatError::malformed(lineno, format!("unknown field {other:?}")))
            }
        }
    }
    let chrom = chrom.ok_or_else(|| FormatError::malformed(lineno, "declaration missing chrom"))?;
    if span == 0 {
        return Err(FormatError::malformed(lineno, "span must be positive"));
    }
    if require_start {
        let start =
            start.ok_or_else(|| FormatError::malformed(lineno, "fixedStep requires start"))?;
        let step = step.unwrap_or(span);
        Ok((chrom, start, step, span))
    } else {
        Ok((chrom, 0, 0, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_step_positions() {
        let text = "fixedStep chrom=chr1 start=101 step=100 span=25\n1.5\n2.5\n3.5\n";
        let rs = parse_wig(text).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!((rs[0].left, rs[0].right), (100, 125));
        assert_eq!((rs[1].left, rs[1].right), (200, 225));
        assert_eq!(rs[2].values[0], Value::Float(3.5));
    }

    #[test]
    fn variable_step_positions() {
        let text = "variableStep chrom=chr2 span=10\n51 7.0\n201 9.0\n";
        let rs = parse_wig(text).unwrap();
        assert_eq!((rs[0].left, rs[0].right), (50, 60));
        assert_eq!((rs[1].left, rs[1].right), (200, 210));
    }

    #[test]
    fn default_step_equals_span_and_default_span_one() {
        let text = "fixedStep chrom=chr1 start=1 step=1\n5\n6\n";
        let rs = parse_wig(text).unwrap();
        assert_eq!((rs[0].left, rs[0].right), (0, 1));
        assert_eq!((rs[1].left, rs[1].right), (1, 2));
    }

    #[test]
    fn multiple_declarations_switch_context() {
        let text = "fixedStep chrom=chr1 start=1 step=5 span=5\n1\nvariableStep chrom=chr2\n10 2\n";
        let rs = parse_wig(text).unwrap();
        assert_eq!(rs[0].chrom.as_str(), "chr1");
        assert_eq!(rs[1].chrom.as_str(), "chr2");
        assert_eq!(rs[1].len(), 1);
    }

    #[test]
    fn errors() {
        assert!(parse_wig("5.0\n").is_err(), "value before declaration");
        assert!(parse_wig("fixedStep chrom=chr1 step=1\n1\n").is_err(), "missing start");
        assert!(parse_wig("fixedStep chrom=chr1 start=0 step=1\n1\n").is_err(), "0 start");
        assert!(parse_wig("variableStep chrom=chr1\n0 5\n").is_err(), "0 position");
        assert!(parse_wig("fixedStep chrom=chr1 start=1 step=1 span=0\n").is_err(), "0 span");
        assert!(parse_wig("fixedStep bogus\n").is_err());
    }

    #[test]
    fn track_lines_skipped_and_schema_matches() {
        let text = "track type=wiggle_0\nfixedStep chrom=chr1 start=1 step=1\n2.25\n";
        let rs = parse_wig(text).unwrap();
        wig_schema().check_row(&rs[0].values).unwrap();
    }
}
