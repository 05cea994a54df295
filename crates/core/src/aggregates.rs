//! Aggregate functions.
//!
//! Aggregates appear in three GMQL positions: MAP (aggregate experiment
//! regions over each reference region — the paper's `peak_count AS COUNT`
//! example), EXTEND (region aggregates lifted into sample metadata), and
//! COVER/GROUP region-attribute aggregation.

use crate::error::GmqlError;
use nggc_gdm::{Schema, Value, ValueType};
use std::fmt;

/// The aggregate function set of GMQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of regions (takes no argument).
    Count,
    /// Sum of a numeric attribute.
    Sum,
    /// Arithmetic mean of a numeric attribute.
    Avg,
    /// Minimum (by total value order).
    Min,
    /// Maximum (by total value order).
    Max,
    /// Median (lower median for even counts).
    Median,
    /// First quartile (lower, by the nearest-rank method).
    Q1,
    /// Third quartile (lower, by the nearest-rank method).
    Q3,
    /// Population standard deviation.
    Std,
    /// Distinct values joined by `,` in first-seen order.
    Bag,
}

impl AggFunc {
    /// Parse a (case-insensitive) function name.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" | "MEAN" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "MEDIAN" | "Q2" => Some(AggFunc::Median),
            "Q1" => Some(AggFunc::Q1),
            "Q3" => Some(AggFunc::Q3),
            "STD" | "STDEV" => Some(AggFunc::Std),
            "BAG" => Some(AggFunc::Bag),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Median => "MEDIAN",
            AggFunc::Q1 => "Q1",
            AggFunc::Q3 => "Q3",
            AggFunc::Std => "STD",
            AggFunc::Bag => "BAG",
        }
    }

    /// True when the function requires an attribute argument.
    pub fn needs_attr(self) -> bool {
        !matches!(self, AggFunc::Count)
    }

    /// The result type given the input attribute type.
    pub fn result_type(self, input: Option<ValueType>) -> ValueType {
        match self {
            AggFunc::Count => ValueType::Int,
            AggFunc::Sum => input.unwrap_or(ValueType::Float),
            AggFunc::Avg | AggFunc::Std => ValueType::Float,
            AggFunc::Min | AggFunc::Max | AggFunc::Median | AggFunc::Q1 | AggFunc::Q3 => {
                input.unwrap_or(ValueType::Float)
            }
            AggFunc::Bag => ValueType::Str,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An aggregate call: function + optional attribute argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// The attribute the function ranges over (`None` for COUNT).
    pub attr: Option<String>,
}

impl Aggregate {
    /// `COUNT` aggregate.
    pub fn count() -> Aggregate {
        Aggregate { func: AggFunc::Count, attr: None }
    }

    /// Aggregate over an attribute.
    pub fn over(func: AggFunc, attr: impl Into<String>) -> Aggregate {
        Aggregate { func, attr: Some(attr.into()) }
    }

    /// Validate against a schema and return `(attribute position, result
    /// type)`; position is `None` for COUNT.
    pub fn resolve(&self, schema: &Schema) -> Result<(Option<usize>, ValueType), GmqlError> {
        match (&self.attr, self.func.needs_attr()) {
            (None, true) => {
                Err(GmqlError::semantic(format!("{} requires an attribute", self.func)))
            }
            (Some(a), false) => {
                Err(GmqlError::semantic(format!("{} takes no attribute, got {a:?}", self.func)))
            }
            (None, false) => Ok((None, ValueType::Int)),
            (Some(a), true) => {
                let pos = schema
                    .position(a)
                    .ok_or_else(|| GmqlError::semantic(format!("unknown attribute {a:?}")))?;
                let ty = schema.attributes()[pos].ty;
                if !matches!(
                    self.func,
                    AggFunc::Bag
                        | AggFunc::Min
                        | AggFunc::Max
                        | AggFunc::Median
                        | AggFunc::Q1
                        | AggFunc::Q3
                ) && !ty.is_numeric()
                {
                    return Err(GmqlError::semantic(format!(
                        "{} requires a numeric attribute, {a:?} is {ty}",
                        self.func
                    )));
                }
                Ok((Some(pos), self.func.result_type(Some(ty))))
            }
        }
    }

    /// Compute the aggregate over the values of the resolved attribute
    /// (one entry per region; nulls are skipped, matching SQL semantics).
    /// `n_regions` is the group size, used by COUNT.
    pub fn compute(&self, values: &[&Value], n_regions: usize) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(n_regions as i64),
            AggFunc::Sum => match numeric(values).next() {
                None => Value::Null,
                Some(_) => render_numeric(numeric(values).sum(), values),
            },
            AggFunc::Avg => match numeric(values).count() {
                0 => Value::Null,
                n => Value::Float(numeric(values).sum::<f64>() / n as f64),
            },
            AggFunc::Std => match numeric(values).count() {
                0 => Value::Null,
                n => {
                    let mean = numeric(values).sum::<f64>() / n as f64;
                    let var =
                        numeric(values).map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
                    Value::Float(var.sqrt())
                }
            },
            AggFunc::Min => order_pick(values, false),
            AggFunc::Max => order_pick(values, true),
            AggFunc::Median | AggFunc::Q1 | AggFunc::Q3 => {
                let mut non_null: Vec<&Value> =
                    values.iter().copied().filter(|v| !v.is_null()).collect();
                if non_null.is_empty() {
                    return Value::Null;
                }
                non_null.sort_by(|a, b| a.total_cmp(b));
                // Nearest-rank (lower) quantiles: q in {0.25, 0.5, 0.75}.
                let q = match self.func {
                    AggFunc::Q1 => 0.25,
                    AggFunc::Q3 => 0.75,
                    _ => 0.5,
                };
                let idx = ((non_null.len() as f64 - 1.0) * q).floor() as usize;
                non_null[idx].clone()
            }
            AggFunc::Bag => {
                let mut seen: Vec<String> = Vec::new();
                for v in values {
                    if v.is_null() {
                        continue;
                    }
                    let s = v.render();
                    if !seen.contains(&s) {
                        seen.push(s);
                    }
                }
                if seen.is_empty() {
                    Value::Null
                } else {
                    Value::Str(seen.join(","))
                }
            }
        }
    }
}

/// The numeric, non-NaN values, in order; walked once per use instead of
/// collected, so an aggregate allocates nothing.
fn numeric<'v>(values: &'v [&Value]) -> impl Iterator<Item = f64> + 'v {
    values.iter().filter_map(|v| v.as_f64()).filter(|f| !f.is_nan())
}

/// SUM keeps integer typing when all inputs are integers.
fn render_numeric(sum: f64, values: &[&Value]) -> Value {
    if values.iter().all(|v| matches!(v, Value::Int(_) | Value::Null)) {
        Value::Int(sum as i64)
    } else {
        Value::Float(sum)
    }
}

fn order_pick(values: &[&Value], max: bool) -> Value {
    let non_null = values.iter().copied().filter(|v| !v.is_null());
    let picked = if max {
        non_null.max_by(|a, b| a.total_cmp(b))
    } else {
        non_null.min_by(|a, b| a.total_cmp(b))
    };
    picked.cloned().unwrap_or(Value::Null)
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.attr {
            Some(a) => write!(f, "{}({a})", self.func),
            None => write!(f, "{}", self.func),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::Attribute;

    fn vals(xs: &[Value]) -> Vec<&Value> {
        xs.iter().collect()
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggFunc::parse("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("MEAN"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("nope"), None);
    }

    #[test]
    fn count_uses_group_size() {
        let agg = Aggregate::count();
        assert_eq!(agg.compute(&[], 7), Value::Int(7));
    }

    #[test]
    fn sum_integer_stays_integer() {
        let xs = [Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(Aggregate::over(AggFunc::Sum, "x").compute(&vals(&xs), 3), Value::Int(3));
        let ys = [Value::Int(1), Value::Float(0.5)];
        assert_eq!(Aggregate::over(AggFunc::Sum, "x").compute(&vals(&ys), 2), Value::Float(1.5));
    }

    #[test]
    fn avg_and_std() {
        let xs = [Value::Float(2.0), Value::Float(4.0)];
        assert_eq!(Aggregate::over(AggFunc::Avg, "x").compute(&vals(&xs), 2), Value::Float(3.0));
        assert_eq!(Aggregate::over(AggFunc::Std, "x").compute(&vals(&xs), 2), Value::Float(1.0));
    }

    #[test]
    fn empty_numeric_aggregates_are_null() {
        for f in [AggFunc::Sum, AggFunc::Avg, AggFunc::Std, AggFunc::Min, AggFunc::Median] {
            assert_eq!(Aggregate::over(f, "x").compute(&[], 0), Value::Null, "{f}");
        }
    }

    #[test]
    fn median_lower_for_even() {
        let xs = [Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)];
        assert_eq!(Aggregate::over(AggFunc::Median, "x").compute(&vals(&xs), 4), Value::Int(2));
    }

    #[test]
    fn quartiles_nearest_rank() {
        let xs: Vec<Value> = (1..=8).map(Value::Int).collect();
        let v = vals(&xs);
        assert_eq!(Aggregate::over(AggFunc::Q1, "x").compute(&v, 8), Value::Int(2));
        assert_eq!(Aggregate::over(AggFunc::Median, "x").compute(&v, 8), Value::Int(4));
        assert_eq!(Aggregate::over(AggFunc::Q3, "x").compute(&v, 8), Value::Int(6));
        assert_eq!(Aggregate::over(AggFunc::Q1, "x").compute(&[], 0), Value::Null);
        assert_eq!(AggFunc::parse("q2"), Some(AggFunc::Median));
    }

    #[test]
    fn minmax_skip_nulls() {
        let xs = [Value::Null, Value::Int(5), Value::Int(2)];
        assert_eq!(Aggregate::over(AggFunc::Min, "x").compute(&vals(&xs), 3), Value::Int(2));
        assert_eq!(Aggregate::over(AggFunc::Max, "x").compute(&vals(&xs), 3), Value::Int(5));
    }

    #[test]
    fn bag_distinct_in_order() {
        let xs = [Value::Str("b".into()), Value::Str("a".into()), Value::Str("b".into())];
        assert_eq!(
            Aggregate::over(AggFunc::Bag, "x").compute(&vals(&xs), 3),
            Value::Str("b,a".into())
        );
    }

    /// COVER, GROUP and MAP push each aggregate into a column of the type
    /// `result_type` declares, so every function returns that type or a
    /// null, whatever its input column holds.
    #[test]
    fn every_aggregate_returns_its_declared_type_or_null() {
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Median,
            AggFunc::Q1,
            AggFunc::Q3,
            AggFunc::Std,
            AggFunc::Bag,
        ];
        let inputs = [
            (ValueType::Int, vec![Value::Int(3), Value::Int(-1), Value::Null, Value::Int(3)]),
            (ValueType::Float, vec![Value::Float(2.5), Value::Null, Value::Float(f64::NAN)]),
            (ValueType::Str, vec![Value::Str("b".into()), Value::Null, Value::Str("a".into())]),
            (ValueType::Int, vec![Value::Null, Value::Null]),
            (ValueType::Float, vec![Value::Null]),
            (ValueType::Str, vec![Value::Null, Value::Null]),
            (ValueType::Float, vec![]),
        ];
        for func in funcs {
            for (ty, xs) in &inputs {
                let agg = Aggregate { func, attr: func.needs_attr().then(|| "x".to_owned()) };
                let got = agg.compute(&vals(xs), xs.len());
                let want = func.result_type(Some(*ty));
                assert!(
                    got.value_type().is_none_or(|t| t == want),
                    "{func} over {ty} {xs:?}: {got:?}, declared {want}"
                );
            }
        }
    }

    #[test]
    fn resolve_validates() {
        let schema = Schema::new(vec![
            Attribute::new("score", ValueType::Float),
            Attribute::new("name", ValueType::Str),
        ])
        .unwrap();
        let (pos, ty) = Aggregate::over(AggFunc::Sum, "score").resolve(&schema).unwrap();
        assert_eq!((pos, ty), (Some(0), ValueType::Float));
        assert!(Aggregate::over(AggFunc::Sum, "name").resolve(&schema).is_err(), "SUM of string");
        assert!(Aggregate::over(AggFunc::Bag, "name").resolve(&schema).is_ok());
        assert!(Aggregate::over(AggFunc::Sum, "zzz").resolve(&schema).is_err());
        assert!(Aggregate { func: AggFunc::Sum, attr: None }.resolve(&schema).is_err());
        assert!(Aggregate { func: AggFunc::Count, attr: Some("x".into()) }
            .resolve(&schema)
            .is_err());
        assert_eq!(Aggregate::count().resolve(&schema).unwrap(), (None, ValueType::Int));
    }
}
