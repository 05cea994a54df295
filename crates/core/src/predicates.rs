//! Predicate and expression languages.
//!
//! GMQL SELECT filters at two levels (paper §2's example filters metadata:
//! `SELECT(annType == 'promoter')`): **metadata predicates** over a
//! sample's attribute–value pairs and **region expressions** over a
//! region's fixed and schema attributes. Region expressions double as the
//! computed-attribute language of PROJECT.

use crate::error::GmqlError;
use nggc_gdm::{GRegion, Metadata, Schema, Value, ValueType};
use std::fmt;

/// Comparison operators shared by both predicate languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn apply_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Render the operator symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A predicate over sample metadata.
///
/// Comparisons are satisfied when **any** value of the attribute
/// satisfies them (metadata are multimaps). String comparisons are
/// case-insensitive for `==`/`!=` (repositories are liberal with case);
/// when both sides parse as numbers the comparison is numeric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaPredicate {
    /// Compare an attribute against a literal.
    Cmp {
        /// Metadata attribute name.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal right-hand side.
        value: String,
    },
    /// The attribute exists with at least one value.
    Exists(String),
    /// Conjunction.
    And(Box<MetaPredicate>, Box<MetaPredicate>),
    /// Disjunction.
    Or(Box<MetaPredicate>, Box<MetaPredicate>),
    /// Negation.
    Not(Box<MetaPredicate>),
    /// Always true (SELECT with no metadata predicate).
    True,
}

impl MetaPredicate {
    /// Evaluate against one sample's metadata.
    pub fn eval(&self, meta: &Metadata) -> bool {
        match self {
            MetaPredicate::Cmp { attr, op, value } => {
                meta.get(attr).iter().any(|v| compare_meta(v, *op, value))
            }
            MetaPredicate::Exists(attr) => meta.contains_attribute(attr),
            MetaPredicate::And(a, b) => a.eval(meta) && b.eval(meta),
            MetaPredicate::Or(a, b) => a.eval(meta) || b.eval(meta),
            MetaPredicate::Not(p) => !p.eval(meta),
            MetaPredicate::True => true,
        }
    }

    /// Convenience: `attr == value`.
    pub fn eq(attr: impl Into<String>, value: impl Into<String>) -> MetaPredicate {
        MetaPredicate::Cmp { attr: attr.into(), op: CmpOp::Eq, value: value.into() }
    }

    /// Conjunction builder.
    pub fn and(self, other: MetaPredicate) -> MetaPredicate {
        MetaPredicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction builder.
    pub fn or(self, other: MetaPredicate) -> MetaPredicate {
        MetaPredicate::Or(Box::new(self), Box::new(other))
    }
}

fn compare_meta(actual: &str, op: CmpOp, expected: &str) -> bool {
    if let (Ok(a), Ok(b)) = (actual.trim().parse::<f64>(), expected.trim().parse::<f64>()) {
        return op.apply_ord(a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal));
    }
    match op {
        CmpOp::Eq => actual.eq_ignore_ascii_case(expected),
        CmpOp::Ne => !actual.eq_ignore_ascii_case(expected),
        _ => op.apply_ord(actual.cmp(expected)),
    }
}

impl fmt::Display for MetaPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaPredicate::Cmp { attr, op, value } => write!(f, "{attr} {} '{value}'", op.symbol()),
            MetaPredicate::Exists(a) => write!(f, "EXISTS({a})"),
            MetaPredicate::And(a, b) => write!(f, "({a} AND {b})"),
            MetaPredicate::Or(a, b) => write!(f, "({a} OR {b})"),
            MetaPredicate::Not(p) => write!(f, "NOT ({p})"),
            MetaPredicate::True => write!(f, "TRUE"),
        }
    }
}

/// Binary operators of region expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float).
    Div,
    /// Comparison.
    Cmp(CmpOp),
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

/// An expression over one region's attributes.
///
/// Attribute references resolve against the fixed coordinate attributes
/// (`chr`, `left`, `right`, `strand`, plus the derived `len`) and the
/// dataset schema. Evaluation is dynamically typed with SQL-ish null
/// propagation: any comparison or arithmetic with null yields null/false.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionExpr {
    /// Attribute reference.
    Attr(String),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Binary(Box<RegionExpr>, BinOp, Box<RegionExpr>),
    /// Logical negation.
    Not(Box<RegionExpr>),
}

impl RegionExpr {
    /// Literal number.
    pub fn num(v: f64) -> RegionExpr {
        RegionExpr::Lit(Value::Float(v))
    }

    /// Attribute reference.
    pub fn attr(name: impl Into<String>) -> RegionExpr {
        RegionExpr::Attr(name.into())
    }

    /// `self <op> other` comparison.
    pub fn cmp(self, op: CmpOp, other: RegionExpr) -> RegionExpr {
        RegionExpr::Binary(Box::new(self), BinOp::Cmp(op), Box::new(other))
    }

    /// Validate attribute references against a schema and report the
    /// expression's static result type (`None` when it depends on nulls).
    pub fn check(&self, schema: &Schema) -> Result<Option<ValueType>, GmqlError> {
        match self {
            RegionExpr::Attr(name) => match name.to_ascii_lowercase().as_str() {
                "chr" | "strand" => Ok(Some(ValueType::Str)),
                "left" | "right" | "len" => Ok(Some(ValueType::Int)),
                _ => schema.get(name).map(|a| Some(a.ty)).ok_or_else(|| {
                    GmqlError::semantic(format!("unknown region attribute {name:?}"))
                }),
            },
            RegionExpr::Lit(v) => Ok(v.value_type()),
            RegionExpr::Not(e) => {
                e.check(schema)?;
                Ok(Some(ValueType::Bool))
            }
            RegionExpr::Binary(a, op, b) => {
                let ta = a.check(schema)?;
                let tb = b.check(schema)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        for t in [ta, tb].into_iter().flatten() {
                            if !t.is_numeric() {
                                return Err(GmqlError::semantic(format!(
                                    "arithmetic on non-numeric type {t}"
                                )));
                            }
                        }
                        if *op == BinOp::Div {
                            Ok(Some(ValueType::Float))
                        } else if ta == Some(ValueType::Int) && tb == Some(ValueType::Int) {
                            Ok(Some(ValueType::Int))
                        } else {
                            Ok(Some(ValueType::Float))
                        }
                    }
                    BinOp::Cmp(_) | BinOp::And | BinOp::Or => Ok(Some(ValueType::Bool)),
                }
            }
        }
    }

    /// Resolve every attribute reference against `schema`, once, so that
    /// evaluation per region neither looks names up nor allocates. An
    /// operator binds its expressions once per call.
    pub fn bind(&self, schema: &Schema) -> BoundExpr<'_> {
        BoundExpr(self.bind_node(schema))
    }

    fn bind_node(&self, schema: &Schema) -> Node<'_> {
        match self {
            RegionExpr::Attr(name) => Node::Slot(match name.to_ascii_lowercase().as_str() {
                "chr" => Slot::Chr,
                "left" => Slot::Left,
                "right" => Slot::Right,
                "len" => Slot::Len,
                "strand" => Slot::Strand,
                _ => schema.position(name).map_or(Slot::Missing, Slot::Col),
            }),
            RegionExpr::Lit(v) => Node::Lit(Scalar::of(v)),
            RegionExpr::Not(e) => Node::Not(Box::new(e.bind_node(schema))),
            RegionExpr::Binary(a, op, b) => {
                Node::Binary(Box::new(a.bind_node(schema)), *op, Box::new(b.bind_node(schema)))
            }
        }
    }

    /// The unbound evaluator the bound one replaced, kept as the oracle
    /// [`BoundExpr`] and SELECT's windows are tested against: it resolves
    /// names and clones values per region.
    #[cfg(test)]
    pub(crate) fn eval(&self, region: &GRegion, schema: &Schema) -> Value {
        match self {
            RegionExpr::Attr(name) => match name.to_ascii_lowercase().as_str() {
                "chr" => Value::Str(region.chrom.as_str().to_owned()),
                "left" => Value::Int(region.left as i64),
                "right" => Value::Int(region.right as i64),
                "len" => Value::Int(region.len() as i64),
                "strand" => Value::Str(region.strand.symbol().to_string()),
                _ => schema
                    .position(name)
                    .and_then(|i| region.values.get(i))
                    .cloned()
                    .unwrap_or(Value::Null),
            },
            RegionExpr::Lit(v) => v.clone(),
            RegionExpr::Not(e) => match e.eval(region, schema) {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                _ => Value::Null,
            },
            RegionExpr::Binary(a, op, b) => {
                let va = a.eval(region, schema);
                let vb = b.eval(region, schema);
                eval_binary(&va, *op, &vb)
            }
        }
    }
}

#[cfg(test)]
fn eval_binary(a: &Value, op: BinOp, b: &Value) -> Value {
    match op {
        BinOp::And => match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => Value::Bool(*x && *y),
            _ => Value::Null,
        },
        BinOp::Or => match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => Value::Bool(*x || *y),
            _ => Value::Null,
        },
        BinOp::Cmp(c) => {
            if a.is_null() || b.is_null() {
                return Value::Null;
            }
            // Strings compare as strings; anything numeric compares
            // numerically via the total order.
            match (a.as_str(), b.as_str()) {
                (Some(x), Some(y)) => Value::Bool(match c {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    _ => c.apply_ord(x.cmp(y)),
                }),
                _ => Value::Bool(c.apply_ord(a.total_cmp(b))),
            }
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else { return Value::Null };
            let result = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                _ => unreachable!(),
            };
            let ints = matches!(a, Value::Int(_)) && matches!(b, Value::Int(_));
            if ints && op != BinOp::Div {
                Value::Int(result as i64)
            } else {
                Value::Float(result)
            }
        }
    }
}

/// Where a bound attribute reference reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Chr,
    Left,
    Right,
    Len,
    Strand,
    /// Position in the region's value vector.
    Col(usize),
    /// Not in the schema: evaluates to null.
    Missing,
}

/// One value during evaluation: a [`Value`] whose string is borrowed from
/// the region, the expression or a constant, so that producing it costs
/// nothing.
#[derive(Debug, Clone, Copy)]
enum Scalar<'a> {
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
    Null,
}

impl<'a> Scalar<'a> {
    fn of(v: &'a Value) -> Scalar<'a> {
        match v {
            Value::Int(i) => Scalar::Int(*i),
            Value::Float(f) => Scalar::Float(*f),
            Value::Str(s) => Scalar::Str(s),
            Value::Bool(b) => Scalar::Bool(*b),
            Value::Null => Scalar::Null,
        }
    }

    fn into_value(self) -> Value {
        match self {
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Str(s) => Value::Str(s.to_owned()),
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Null => Value::Null,
        }
    }

    /// As [`Value::as_f64`].
    fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(i as f64),
            Scalar::Float(f) => Some(f),
            Scalar::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            Scalar::Str(_) | Scalar::Null => None,
        }
    }

    /// As [`Value::total_cmp`], for the non-null pairs a comparison sees.
    fn total_cmp(self, other: Scalar<'_>) -> std::cmp::Ordering {
        fn rank(v: Scalar<'_>) -> u8 {
            match v {
                Scalar::Null => 0,
                Scalar::Bool(_) => 1,
                Scalar::Int(_) | Scalar::Float(_) => 2,
                Scalar::Str(_) => 3,
            }
        }
        match (self, other) {
            (Scalar::Bool(a), Scalar::Bool(b)) => a.cmp(&b),
            (Scalar::Int(a), Scalar::Int(b)) => a.cmp(&b),
            (Scalar::Str(a), Scalar::Str(b)) => a.cmp(b),
            (Scalar::Int(_) | Scalar::Float(_), Scalar::Int(_) | Scalar::Float(_)) => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.total_cmp(&b)
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// A [`RegionExpr`] bound to a schema by [`RegionExpr::bind`]: attribute
/// names are resolved, literals are borrowed, and evaluation allocates
/// only for a string *result*.
#[derive(Debug, Clone)]
pub struct BoundExpr<'e>(Node<'e>);

#[derive(Debug, Clone)]
enum Node<'e> {
    Slot(Slot),
    Lit(Scalar<'e>),
    Not(Box<Node<'e>>),
    Binary(Box<Node<'e>>, BinOp, Box<Node<'e>>),
}

impl BoundExpr<'_> {
    /// Evaluate over a region of the schema the expression was bound to.
    pub fn eval(&self, region: &GRegion) -> Value {
        self.0.eval(region).into_value()
    }

    /// Evaluate as a boolean predicate (null ⇒ false).
    pub fn eval_bool(&self, region: &GRegion) -> bool {
        matches!(self.0.eval(region), Scalar::Bool(true))
    }
}

impl<'e> Node<'e> {
    fn eval<'a>(&'a self, region: &'a GRegion) -> Scalar<'a>
    where
        'e: 'a,
    {
        match self {
            Node::Slot(slot) => match *slot {
                Slot::Chr => Scalar::Str(region.chrom.as_str()),
                Slot::Left => Scalar::Int(region.left as i64),
                Slot::Right => Scalar::Int(region.right as i64),
                Slot::Len => Scalar::Int(region.len() as i64),
                Slot::Strand => Scalar::Str(region.strand.as_str()),
                Slot::Col(i) => region.values.get(i).map_or(Scalar::Null, Scalar::of),
                Slot::Missing => Scalar::Null,
            },
            Node::Lit(v) => *v,
            Node::Not(e) => match e.eval(region) {
                Scalar::Bool(b) => Scalar::Bool(!b),
                _ => Scalar::Null,
            },
            Node::Binary(a, op, b) => binary(a.eval(region), *op, b.eval(region)),
        }
    }
}

fn binary<'a>(a: Scalar<'a>, op: BinOp, b: Scalar<'a>) -> Scalar<'a> {
    match op {
        BinOp::And => match (a, b) {
            (Scalar::Bool(x), Scalar::Bool(y)) => Scalar::Bool(x && y),
            _ => Scalar::Null,
        },
        BinOp::Or => match (a, b) {
            (Scalar::Bool(x), Scalar::Bool(y)) => Scalar::Bool(x || y),
            _ => Scalar::Null,
        },
        BinOp::Cmp(c) => match (a, b) {
            (Scalar::Null, _) | (_, Scalar::Null) => Scalar::Null,
            // Strings compare as strings; anything numeric compares
            // numerically via the total order.
            (Scalar::Str(x), Scalar::Str(y)) => Scalar::Bool(match c {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                _ => c.apply_ord(x.cmp(y)),
            }),
            _ => Scalar::Bool(c.apply_ord(a.total_cmp(b))),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else { return Scalar::Null };
            let result = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                _ => x / y,
            };
            let ints = matches!((a, b), (Scalar::Int(_), Scalar::Int(_)));
            if ints && op != BinOp::Div {
                Scalar::Int(result as i64)
            } else {
                Scalar::Float(result)
            }
        }
    }
}

impl fmt::Display for RegionExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionExpr::Attr(a) => write!(f, "{a}"),
            RegionExpr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            RegionExpr::Not(e) => write!(f, "NOT ({e})"),
            RegionExpr::Binary(a, op, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Cmp(c) => c.symbol(),
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, Strand};
    use proptest::prelude::*;

    fn meta() -> Metadata {
        Metadata::from_pairs([
            ("dataType", "ChipSeq"),
            ("antibody", "CTCF"),
            ("antibody", "POLR2A"),
            ("age", "47"),
        ])
    }

    #[test]
    fn meta_eq_case_insensitive_any_value() {
        assert!(MetaPredicate::eq("datatype", "chipseq").eval(&meta()));
        assert!(MetaPredicate::eq("antibody", "POLR2A").eval(&meta()), "any value matches");
        assert!(!MetaPredicate::eq("antibody", "H3K4me3").eval(&meta()));
        assert!(!MetaPredicate::eq("missing", "x").eval(&meta()));
    }

    #[test]
    fn meta_numeric_comparison() {
        let p = MetaPredicate::Cmp { attr: "age".into(), op: CmpOp::Gt, value: "40".into() };
        assert!(p.eval(&meta()));
        let p = MetaPredicate::Cmp { attr: "age".into(), op: CmpOp::Lt, value: "40".into() };
        assert!(!p.eval(&meta()));
    }

    #[test]
    fn meta_boolean_combinators() {
        let p = MetaPredicate::eq("dataType", "ChipSeq").and(MetaPredicate::eq("antibody", "CTCF"));
        assert!(p.eval(&meta()));
        let q = MetaPredicate::Not(Box::new(MetaPredicate::eq("dataType", "DnaseSeq")));
        assert!(q.eval(&meta()));
        let r = MetaPredicate::eq("x", "1").or(MetaPredicate::Exists("age".into()));
        assert!(r.eval(&meta()));
        assert!(MetaPredicate::True.eval(&meta()));
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("p_value", ValueType::Float),
            Attribute::new("name", ValueType::Str),
        ])
        .unwrap()
    }

    fn region() -> GRegion {
        GRegion::new("chr2", 100, 250, Strand::Pos)
            .with_values(vec![Value::Float(0.002), Value::Str("peak7".into())])
    }

    #[test]
    fn region_fixed_attributes() {
        let s = schema();
        let r = region();
        assert_eq!(RegionExpr::attr("chr").bind(&s).eval(&r), Value::Str("chr2".into()));
        assert_eq!(RegionExpr::attr("LEFT").bind(&s).eval(&r), Value::Int(100));
        assert_eq!(RegionExpr::attr("len").bind(&s).eval(&r), Value::Int(150));
        assert_eq!(RegionExpr::attr("strand").bind(&s).eval(&r), Value::Str("+".into()));
    }

    #[test]
    fn region_predicate_on_schema_attribute() {
        let s = schema();
        let r = region();
        let p = RegionExpr::attr("p_value").cmp(CmpOp::Lt, RegionExpr::num(0.01));
        assert!(p.bind(&s).eval_bool(&r));
        let q = RegionExpr::attr("name").cmp(CmpOp::Eq, RegionExpr::Lit("peak7".into()));
        assert!(q.bind(&s).eval_bool(&r));
    }

    #[test]
    fn arithmetic_and_typing() {
        let s = schema();
        let r = region();
        let e = RegionExpr::Binary(
            Box::new(RegionExpr::attr("right")),
            BinOp::Sub,
            Box::new(RegionExpr::attr("left")),
        );
        assert_eq!(e.bind(&s).eval(&r), Value::Int(150));
        assert_eq!(e.check(&s).unwrap(), Some(ValueType::Int));
        let d =
            RegionExpr::Binary(Box::new(e), BinOp::Div, Box::new(RegionExpr::Lit(Value::Int(2))));
        assert_eq!(d.bind(&s).eval(&r), Value::Float(75.0));
        assert_eq!(d.check(&s).unwrap(), Some(ValueType::Float));
    }

    #[test]
    fn null_propagation() {
        let s = schema();
        let mut r = region();
        r.values[0] = Value::Null;
        let p = RegionExpr::attr("p_value").cmp(CmpOp::Lt, RegionExpr::num(0.01));
        assert!(!p.bind(&s).eval_bool(&r), "null comparison is not true");
        let e = RegionExpr::Binary(
            Box::new(RegionExpr::attr("p_value")),
            BinOp::Add,
            Box::new(RegionExpr::num(1.0)),
        );
        assert_eq!(e.bind(&s).eval(&r), Value::Null);
    }

    #[test]
    fn check_rejects_unknown_and_bad_types() {
        let s = schema();
        assert!(RegionExpr::attr("nope").check(&s).is_err());
        let bad = RegionExpr::Binary(
            Box::new(RegionExpr::attr("name")),
            BinOp::Add,
            Box::new(RegionExpr::num(1.0)),
        );
        assert!(bad.check(&s).is_err());
    }

    #[test]
    fn logical_ops_on_regions() {
        let s = schema();
        let r = region();
        let p = RegionExpr::Binary(
            Box::new(RegionExpr::attr("left").cmp(CmpOp::Ge, RegionExpr::Lit(Value::Int(100)))),
            BinOp::And,
            Box::new(RegionExpr::attr("chr").cmp(CmpOp::Eq, RegionExpr::Lit("chr2".into()))),
        );
        assert!(p.bind(&s).eval_bool(&r));
        let n = RegionExpr::Not(Box::new(p));
        assert!(!n.bind(&s).eval_bool(&r));
    }

    /// Expressions over every attribute kind (fixed, schema, missing; any
    /// case), every literal kind and every operator — most of them
    /// ill-typed, which evaluation has to survive as null.
    fn any_expr() -> impl Strategy<Value = RegionExpr> {
        let attr = prop_oneof![
            Just("chr"),
            Just("LEFT"),
            Just("right"),
            Just("Len"),
            Just("strand"),
            Just("count"),
            Just("P_Value"),
            Just("name"),
            Just("flag"),
            Just("nowhere"),
        ]
        .prop_map(RegionExpr::attr);
        let lit = prop_oneof![
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(|n| Value::Float(n as f64 / 2.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Int(i64::MAX)),
            prop_oneof![Just("chr1"), Just("+"), Just("peak"), Just("")].prop_map(Value::from),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Null),
        ]
        .prop_map(RegionExpr::Lit);
        prop_oneof![attr, lit].prop_recursive(4, 32, 2, |inner| {
            let cmp = prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
            ];
            let op = prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::Div),
                Just(BinOp::And),
                Just(BinOp::Or),
                cmp.prop_map(BinOp::Cmp),
            ];
            prop_oneof![
                (inner.clone(), op, inner.clone()).prop_map(|(a, o, b)| RegionExpr::Binary(
                    Box::new(a),
                    o,
                    Box::new(b)
                )),
                inner.prop_map(|e| RegionExpr::Not(Box::new(e))),
            ]
        })
    }

    /// A cell of column `ty`: null, or a small value of that type (floats
    /// include NaN).
    fn any_cell(ty: ValueType) -> BoxedStrategy<Value> {
        let typed = match ty {
            ValueType::Int => (-3i64..4).prop_map(Value::Int).boxed(),
            ValueType::Float => prop_oneof![
                (-3i64..4).prop_map(|n| Value::Float(n as f64 / 2.0)),
                Just(Value::Float(f64::NAN)),
            ]
            .boxed(),
            ValueType::Str => {
                prop_oneof![Just("peak"), Just("chr1"), Just("")].prop_map(Value::from).boxed()
            }
            ValueType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        };
        prop_oneof![typed, Just(Value::Null)].boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bound evaluator gives what the reference evaluator gives,
        /// variant for variant and bit for bit.
        #[test]
        fn bound_evaluation_equals_reference(
            expr in any_expr(),
            chrom in prop_oneof![Just("chr1"), Just("chr2")],
            left in 0u64..5,
            width in 0u64..5,
            strand in prop_oneof![Just(Strand::Pos), Just(Strand::Neg), Just(Strand::Unstranded)],
            cells in (
                any_cell(ValueType::Int),
                any_cell(ValueType::Float),
                any_cell(ValueType::Str),
                any_cell(ValueType::Bool),
            ),
            arity in 0usize..5,
        ) {
            let schema = Schema::new(vec![
                Attribute::new("count", ValueType::Int),
                Attribute::new("p_value", ValueType::Float),
                Attribute::new("name", ValueType::Str),
                Attribute::new("flag", ValueType::Bool),
            ])
            .unwrap();
            // A row shorter than the schema reads its missing cells as null.
            let mut values = vec![cells.0, cells.1, cells.2, cells.3];
            values.truncate(arity);
            let region = GRegion::new(chrom, left, left + width, strand).with_values(values);
            let bound = expr.bind(&schema);
            let (got, want) = (bound.eval(&region), expr.eval(&region, &schema));
            let same = match (&got, &want) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => got == want,
            };
            prop_assert!(same, "{} over {}: bound {:?}, reference {:?}", expr, region, got, want);
            prop_assert_eq!(bound.eval_bool(&region), want == Value::Bool(true));
        }
    }

    #[test]
    fn display_roundtrippable_shape() {
        let p = RegionExpr::attr("p_value").cmp(CmpOp::Lt, RegionExpr::num(0.01));
        assert_eq!(p.to_string(), "(p_value < 0.01)");
        let m = MetaPredicate::eq("a", "b").and(MetaPredicate::Exists("c".into()));
        assert_eq!(m.to_string(), "(a == 'b' AND EXISTS(c))");
    }
}
