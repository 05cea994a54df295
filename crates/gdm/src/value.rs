//! Typed attribute values carried by genomic regions.
//!
//! The GDM region schema is a table of *typed* attributes (paper §2); a
//! [`Value`] is one cell of that table. Values support a **total order**
//! (NaN sorts last among floats, cross-type order is by type tag) so that
//! regions can always be sorted and aggregated deterministically.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The type of a region attribute, as declared in a dataset schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean flag.
    Bool,
}

impl ValueType {
    /// Canonical lowercase name used by the GDM native format and GMQL.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "string",
            ValueType::Bool => "bool",
        }
    }

    /// Parse a type name as written in schema files. Accepts the aliases
    /// used by the original GMQL repository (`long`, `double`, `char`).
    pub fn parse(name: &str) -> Option<ValueType> {
        match name.to_ascii_lowercase().as_str() {
            "int" | "integer" | "long" => Some(ValueType::Int),
            "float" | "double" => Some(ValueType::Float),
            "string" | "str" | "char" | "text" => Some(ValueType::Str),
            "bool" | "boolean" | "flag" => Some(ValueType::Bool),
            _ => None,
        }
    }

    /// True when values of this type can be used in numeric aggregates.
    pub fn is_numeric(self) -> bool {
        matches!(self, ValueType::Int | ValueType::Float)
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One attribute value of a genomic region.
///
/// `Value` is intentionally small (24 bytes + string spill) because region
/// files routinely carry tens of millions of rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating point value. May be NaN (e.g. missing signal).
    Float(f64),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
    /// Explicit null — produced by schema merging for attributes a sample
    /// does not carry (paper §2, "schema merging").
    Null,
}

impl Value {
    /// The type of this value, or `None` for `Null` (null is typeless and
    /// admissible in any column).
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Null => None,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, for aggregates and arithmetic predicates.
    /// Integers widen to `f64`; booleans map to 0/1; strings and nulls are
    /// not numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(_) | Value::Null => None,
        }
    }

    /// Integer view, truncating floats.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.is_finite() => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// String view (only for `Str`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse a textual token into a value of the requested type.
    ///
    /// The conventions follow BED-family files: `.` and the empty string
    /// denote null; case-insensitive `true`/`false` for booleans.
    pub fn parse_as(token: &str, ty: ValueType) -> Result<Value, ValueParseError> {
        if token.is_empty() || token == "." || token.eq_ignore_ascii_case("null") {
            return Ok(Value::Null);
        }
        let err = || ValueParseError { token: token.to_owned(), ty };
        match ty {
            ValueType::Int => token
                .parse::<i64>()
                // Tolerate "12.0"-style integers emitted by float-happy tools.
                .or_else(|_| token.parse::<f64>().map(|f| f as i64))
                .map(Value::Int)
                .map_err(|_| err()),
            ValueType::Float => token.parse::<f64>().map(Value::Float).map_err(|_| err()),
            ValueType::Str => Ok(Value::Str(token.to_owned())),
            ValueType::Bool => match token.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Ok(Value::Bool(true)),
                "false" | "f" | "0" => Ok(Value::Bool(false)),
                _ => Err(err()),
            },
        }
    }

    /// Render the value in the GDM native / BED textual convention
    /// (nulls as `.`).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Total order used for sorting and MIN/MAX/MEDIAN aggregates.
    ///
    /// Within a type the natural order applies (NaN greater than all other
    /// floats); across types the order is Null < Bool < Int ~ Float < Str,
    /// with ints and floats compared numerically.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(_) | Float(_), Int(_) | Float(_)) => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.total_cmp(&b)
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Approximate serialized size in bytes, used for result-size
    /// estimation in the federation protocol (paper §4.4).
    pub fn encoded_size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() + 4,
            Value::Null => 1,
        }
    }
}

/// The GDM native / BED textual convention, written straight into the
/// formatter (no `String` per cell). Width and fill flags are ignored:
/// a cell is always its bare text.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.is_nan() => f.write_str("NaN"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Null => f.write_str("."),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Error produced when a token cannot be parsed as the declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueParseError {
    /// The offending token.
    pub token: String,
    /// The type it was expected to have.
    pub ty: ValueType,
}

impl fmt::Display for ValueParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse {:?} as {}", self.token, self.ty)
    }
}

impl std::error::Error for ValueParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_roundtrip() {
        for ty in [ValueType::Int, ValueType::Float, ValueType::Str, ValueType::Bool] {
            assert_eq!(ValueType::parse(ty.name()), Some(ty));
        }
        assert_eq!(ValueType::parse("DOUBLE"), Some(ValueType::Float));
        assert_eq!(ValueType::parse("long"), Some(ValueType::Int));
        assert_eq!(ValueType::parse("whatever"), None);
    }

    #[test]
    fn parse_null_conventions() {
        assert_eq!(Value::parse_as(".", ValueType::Float).unwrap(), Value::Null);
        assert_eq!(Value::parse_as("", ValueType::Int).unwrap(), Value::Null);
        assert_eq!(Value::parse_as("NULL", ValueType::Str).unwrap(), Value::Null);
    }

    #[test]
    fn parse_int_tolerates_float_notation() {
        assert_eq!(Value::parse_as("12.0", ValueType::Int).unwrap(), Value::Int(12));
        assert_eq!(Value::parse_as("-3", ValueType::Int).unwrap(), Value::Int(-3));
        assert!(Value::parse_as("abc", ValueType::Int).is_err());
    }

    #[test]
    fn parse_bool_variants() {
        for t in ["true", "T", "1"] {
            assert_eq!(Value::parse_as(t, ValueType::Bool).unwrap(), Value::Bool(true));
        }
        for t in ["false", "F", "0"] {
            assert_eq!(Value::parse_as(t, ValueType::Bool).unwrap(), Value::Bool(false));
        }
        assert!(Value::parse_as("yes?", ValueType::Bool).is_err());
    }

    #[test]
    fn total_order_mixed_numerics() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        // NaN sorts above every finite float.
        assert_eq!(Value::Float(f64::NAN).total_cmp(&Value::Float(1e308)), Ordering::Greater);
        // Cross-type rank: Null < Bool < numeric < Str.
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Ordering::Less);
        assert_eq!(Value::Str("a".into()).total_cmp(&Value::Int(9)), Ordering::Greater);
    }

    #[test]
    fn render_roundtrip() {
        let v = Value::parse_as("3.25", ValueType::Float).unwrap();
        assert_eq!(v.render(), "3.25");
        assert_eq!(Value::Null.render(), ".");
        assert_eq!(
            Value::parse_as(&Value::Int(-7).render(), ValueType::Int).unwrap(),
            Value::Int(-7)
        );
    }

    #[test]
    fn display_writes_what_the_string_building_render_did() {
        // The rendering `Display` replaced, kept as the reference.
        fn built(v: &Value) -> String {
            match v {
                Value::Int(i) => i.to_string(),
                Value::Float(f) if f.is_nan() => "NaN".to_owned(),
                Value::Float(f) => format!("{f}"),
                Value::Str(s) => s.clone(),
                Value::Bool(b) => b.to_string(),
                Value::Null => ".".to_owned(),
            }
        }
        let values = [
            Value::Int(0),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(3.25),
            Value::Float(1e-300),
            Value::Float(1e300),
            Value::Float(0.1 + 0.2),
            Value::Str(String::new()),
            Value::Str("peak 1\t.".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
        ];
        for v in &values {
            let want = built(v);
            assert_eq!(v.render(), want, "{v:?}");
            assert_eq!(format!("{v}"), want, "{v:?}");
            // As before, width flags do not pad a cell.
            assert_eq!(format!("{v:>8}"), want, "{v:?}");
        }
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Float(2.9).as_i64(), Some(2));
        assert_eq!(Value::Null.as_i64(), None);
    }

    #[test]
    fn encoded_sizes() {
        assert_eq!(Value::Int(1).encoded_size(), 8);
        assert_eq!(Value::Str("abcd".into()).encoded_size(), 8);
        assert_eq!(Value::Null.encoded_size(), 1);
    }
}
