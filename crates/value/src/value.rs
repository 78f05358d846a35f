//! The runtime value universe of ADL.

use crate::{Name, Oid, Set, Tuple, Type, ValueError, F64};
use std::fmt;

/// A complex object value.
///
/// The constructors mirror the paper's data model (§2, §3): atomic values
/// (`bool`, `int`, `float`, `string`, `date`), object identity (`oid`), and
/// the tuple `⟨⟩` and set `{}` constructors, which nest arbitrarily.
///
/// `Null` is **not** part of ADL proper — the paper's algebra is null-free.
/// It exists solely to implement the outerjoin repair of the COUNT bug
/// discussed in §5.2.2 ("in using the outerjoin, NULL values are used to
/// represent the empty set"); ordinary operators never produce it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// Outerjoin padding only; see type-level docs.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Total-ordered float.
    Float(F64),
    /// String.
    Str(Name),
    /// Date, stored as the paper writes them: `yymmdd`/`yyyymmdd` integers
    /// (Example Query 2 compares `d.date = 940101`).
    Date(i64),
    /// Object identifier.
    Oid(Oid),
    /// Tuple constructor `⟨a₁ = v₁, …⟩`.
    Tuple(Tuple),
    /// Set constructor `{v₁, …}`.
    Set(Set),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Name::from(s))
    }

    /// Builds a float value.
    pub fn float(f: f64) -> Value {
        Value::Float(F64::new(f))
    }

    /// Builds a set value from an iterator.
    pub fn set<I: IntoIterator<Item = Value>>(vs: I) -> Value {
        Value::Set(vs.into_iter().collect())
    }

    /// Builds a tuple value from `(&str, Value)` pairs.
    pub fn tuple<'a, I: IntoIterator<Item = (&'a str, Value)>>(pairs: I) -> Value {
        Value::Tuple(Tuple::from_pairs(pairs))
    }

    /// The empty set.
    pub fn empty_set() -> Value {
        Value::Set(Set::empty())
    }

    /// True/false literals.
    pub const TRUE: Value = Value::Bool(true);
    /// See [`Value::TRUE`].
    pub const FALSE: Value = Value::Bool(false);

    /// Expects a boolean.
    pub fn as_bool(&self) -> Result<bool, ValueError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ValueError::TypeMismatch {
                op: "boolean context",
                lhs: other.to_string(),
                rhs: "bool".into(),
            }),
        }
    }

    /// Expects a set.
    pub fn as_set(&self) -> Result<&Set, ValueError> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(ValueError::NotASet(other.to_string())),
        }
    }

    /// Expects a set, by value.
    pub fn into_set(self) -> Result<Set, ValueError> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(ValueError::NotASet(other.to_string())),
        }
    }

    /// Expects a tuple.
    pub fn as_tuple(&self) -> Result<&Tuple, ValueError> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(ValueError::NotATuple(other.to_string())),
        }
    }

    /// Expects a tuple, by value.
    pub fn into_tuple(self) -> Result<Tuple, ValueError> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(ValueError::NotATuple(other.to_string())),
        }
    }

    /// Expects an oid.
    pub fn as_oid(&self) -> Result<Oid, ValueError> {
        match self {
            Value::Oid(o) => Ok(*o),
            other => Err(ValueError::TypeMismatch {
                op: "oid context",
                lhs: other.to_string(),
                rhs: "oid".into(),
            }),
        }
    }

    /// Expects an integer.
    pub fn as_int(&self) -> Result<i64, ValueError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ValueError::TypeMismatch {
                op: "integer context",
                lhs: other.to_string(),
                rhs: "int".into(),
            }),
        }
    }

    /// The most specific [`Type`] describing this value.
    ///
    /// Empty sets type as `{⊥}` (set of [`Type::Unknown`]), which unifies
    /// with any set type.
    pub fn type_of(&self) -> Type {
        match self {
            Value::Null => Type::Unknown,
            Value::Bool(_) => Type::Bool,
            Value::Int(_) => Type::Int,
            Value::Float(_) => Type::Float,
            Value::Str(_) => Type::Str,
            Value::Date(_) => Type::Date,
            Value::Oid(_) => Type::Oid(None),
            Value::Tuple(t) => {
                let fields = t
                    .iter()
                    .map(|(n, v)| (n.clone(), v.type_of()))
                    .collect::<Vec<_>>();
                Type::Tuple(crate::TupleType::new_unchecked(fields))
            }
            Value::Set(s) => {
                let mut elem = Type::Unknown;
                for v in s.iter() {
                    elem = elem.unify(&v.type_of()).unwrap_or(Type::Unknown);
                }
                Type::set(elem)
            }
        }
    }

    /// Structural deep size (number of atomic values), used by benchmarks
    /// to report result volumes.
    pub fn deep_size(&self) -> usize {
        match self {
            Value::Tuple(t) => t.iter().map(|(_, v)| v.deep_size()).sum(),
            Value::Set(s) => s.iter().map(Value::deep_size).sum(),
            _ => 1,
        }
    }

    /// Arithmetic on ints/floats with overflow checking.
    pub fn arith(op: ArithOp, lhs: &Value, rhs: &Value) -> Result<Value, ValueError> {
        use ArithOp::*;
        match (lhs, rhs) {
            (Value::Int(a), Value::Int(b)) => match op {
                Add => a
                    .checked_add(*b)
                    .map(Value::Int)
                    .ok_or(ValueError::Overflow("+")),
                Sub => a
                    .checked_sub(*b)
                    .map(Value::Int)
                    .ok_or(ValueError::Overflow("-")),
                Mul => a
                    .checked_mul(*b)
                    .map(Value::Int)
                    .ok_or(ValueError::Overflow("*")),
                Div => {
                    if *b == 0 {
                        Err(ValueError::DivisionByZero)
                    } else {
                        Ok(Value::Int(a / b))
                    }
                }
                Mod => {
                    if *b == 0 {
                        Err(ValueError::DivisionByZero)
                    } else {
                        Ok(Value::Int(a % b))
                    }
                }
            },
            (Value::Float(a), Value::Float(b)) => {
                let (a, b) = (a.get(), b.get());
                let r = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a % b,
                };
                Ok(Value::float(r))
            }
            // int/float mixing promotes to float, as OOSQL's checker allows
            (Value::Int(a), Value::Float(_)) => Value::arith(op, &Value::float(*a as f64), rhs),
            (Value::Float(_), Value::Int(b)) => Value::arith(op, lhs, &Value::float(*b as f64)),
            _ => Err(ValueError::TypeMismatch {
                op: op.symbol(),
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            }),
        }
    }

    /// Ordered comparison; errors when the values are not comparable
    /// (different constructors), except that any two values can be checked
    /// for (in)equality.
    pub fn compare(op: CmpOp, lhs: &Value, rhs: &Value) -> Result<bool, ValueError> {
        use CmpOp::*;
        // Equality is structural and total.
        match op {
            Eq => return Ok(lhs == rhs),
            Ne => return Ok(lhs != rhs),
            _ => {}
        }
        let comparable = matches!(
            (lhs, rhs),
            (Value::Int(_), Value::Int(_))
                | (Value::Float(_), Value::Float(_))
                | (Value::Int(_), Value::Float(_))
                | (Value::Float(_), Value::Int(_))
                | (Value::Str(_), Value::Str(_))
                | (Value::Date(_), Value::Date(_))
                | (Value::Bool(_), Value::Bool(_))
        );
        if !comparable {
            return Err(ValueError::TypeMismatch {
                op: op.symbol(),
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            });
        }
        let ord = match (lhs, rhs) {
            (Value::Int(a), Value::Float(b)) => F64::new(*a as f64).cmp(b),
            (Value::Float(a), Value::Int(b)) => a.cmp(&F64::new(*b as f64)),
            _ => lhs.cmp(rhs),
        };
        Ok(match op {
            Lt => ord.is_lt(),
            Le => ord.is_le(),
            Gt => ord.is_gt(),
            Ge => ord.is_ge(),
            Eq | Ne => unreachable!("handled above"),
        })
    }
}

/// Arithmetic operators available in OOSQL / ADL expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl ArithOp {
    /// Source symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

/// Scalar comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Source symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        }
    }

    /// The logical negation (`¬(a < b) ≡ a ≥ b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with operands swapped (`a < b ≡ b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// The set-comparison operators of the paper (§5.2, Table 1), plus their
/// negations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SetCmpOp {
    /// `x ∈ S` — membership (element on the left).
    In,
    /// `x ∉ S`.
    NotIn,
    /// `A ⊂ B` — proper subset.
    Subset,
    /// `A ⊆ B`.
    SubsetEq,
    /// `A = B` — set equality.
    SetEq,
    /// `A ≠ B`.
    SetNe,
    /// `A ⊇ B`.
    SupersetEq,
    /// `A ⊃ B` — proper superset.
    Superset,
    /// `A ∋ x` — containment (element on the right); paper Table 1 last row.
    Contains,
    /// `A ∌ x`.
    NotContains,
}

impl SetCmpOp {
    /// Source symbol (paper notation).
    pub fn symbol(self) -> &'static str {
        match self {
            SetCmpOp::In => "∈",
            SetCmpOp::NotIn => "∉",
            SetCmpOp::Subset => "⊂",
            SetCmpOp::SubsetEq => "⊆",
            SetCmpOp::SetEq => "=",
            SetCmpOp::SetNe => "≠",
            SetCmpOp::SupersetEq => "⊇",
            SetCmpOp::Superset => "⊃",
            SetCmpOp::Contains => "∋",
            SetCmpOp::NotContains => "∌",
        }
    }

    /// Direct negation where one exists in the operator set.
    ///
    /// `⊂ ⊆ ⊇ ⊃` have no single-symbol negations; the rewriter negates
    /// those at the formula level ("negating the operator negates the
    /// quantifier expression; antijoins are used instead of semijoins and
    /// vice versa", §5.2.1).
    pub fn direct_negation(self) -> Option<SetCmpOp> {
        match self {
            SetCmpOp::In => Some(SetCmpOp::NotIn),
            SetCmpOp::NotIn => Some(SetCmpOp::In),
            SetCmpOp::SetEq => Some(SetCmpOp::SetNe),
            SetCmpOp::SetNe => Some(SetCmpOp::SetEq),
            SetCmpOp::Contains => Some(SetCmpOp::NotContains),
            SetCmpOp::NotContains => Some(SetCmpOp::Contains),
            _ => None,
        }
    }

    /// Evaluates the operator on runtime values.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> Result<bool, ValueError> {
        match self {
            SetCmpOp::In => Ok(rhs.as_set()?.contains(lhs)),
            SetCmpOp::NotIn => Ok(!rhs.as_set()?.contains(lhs)),
            SetCmpOp::Subset => Ok(lhs.as_set()?.subset(rhs.as_set()?)),
            SetCmpOp::SubsetEq => Ok(lhs.as_set()?.subset_eq(rhs.as_set()?)),
            SetCmpOp::SetEq => Ok(lhs.as_set()? == rhs.as_set()?),
            SetCmpOp::SetNe => Ok(lhs.as_set()? != rhs.as_set()?),
            SetCmpOp::SupersetEq => Ok(lhs.as_set()?.superset_eq(rhs.as_set()?)),
            SetCmpOp::Superset => Ok(lhs.as_set()?.superset(rhs.as_set()?)),
            SetCmpOp::Contains => Ok(lhs.as_set()?.contains(rhs)),
            SetCmpOp::NotContains => Ok(!lhs.as_set()?.contains(rhs)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => {
                // escape so printed literals re-lex correctly
                write!(f, "\"")?;
                for ch in s.chars() {
                    match ch {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\t' => write!(f, "\\t")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, "\"")
            }
            Value::Date(d) => write!(f, "date({d})"),
            Value::Oid(o) => write!(f, "{o}"),
            Value::Tuple(t) => write!(f, "{t}"),
            Value::Set(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_basics() {
        let v = Value::arith(ArithOp::Add, &Value::Int(2), &Value::Int(3)).unwrap();
        assert_eq!(v, Value::Int(5));
        let v = Value::arith(ArithOp::Mul, &Value::Int(2), &Value::float(1.5)).unwrap();
        assert_eq!(v, Value::float(3.0));
        assert!(matches!(
            Value::arith(ArithOp::Div, &Value::Int(1), &Value::Int(0)),
            Err(ValueError::DivisionByZero)
        ));
        assert!(matches!(
            Value::arith(ArithOp::Add, &Value::Int(i64::MAX), &Value::Int(1)),
            Err(ValueError::Overflow(_))
        ));
        assert!(Value::arith(ArithOp::Add, &Value::Int(1), &Value::str("x")).is_err());
    }

    #[test]
    fn comparisons() {
        assert!(Value::compare(CmpOp::Lt, &Value::Int(1), &Value::Int(2)).unwrap());
        assert!(Value::compare(CmpOp::Ge, &Value::float(2.0), &Value::Int(2)).unwrap());
        assert!(Value::compare(CmpOp::Eq, &Value::str("a"), &Value::str("a")).unwrap());
        // equality across constructors is false, not an error
        assert!(!Value::compare(CmpOp::Eq, &Value::Int(1), &Value::str("1")).unwrap());
        // ordering across constructors is an error
        assert!(Value::compare(CmpOp::Lt, &Value::Int(1), &Value::str("1")).is_err());
    }

    #[test]
    fn cmp_op_negate_and_flip() {
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn set_cmp_eval_matches_set_methods() {
        let a = Value::set([Value::Int(1), Value::Int(2)]);
        let b = Value::set([Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(SetCmpOp::Subset.eval(&a, &b).unwrap());
        assert!(SetCmpOp::SubsetEq.eval(&a, &b).unwrap());
        assert!(!SetCmpOp::SetEq.eval(&a, &b).unwrap());
        assert!(SetCmpOp::SetNe.eval(&a, &b).unwrap());
        assert!(SetCmpOp::Superset.eval(&b, &a).unwrap());
        assert!(SetCmpOp::In.eval(&Value::Int(2), &b).unwrap());
        assert!(SetCmpOp::NotIn.eval(&Value::Int(9), &b).unwrap());
        assert!(SetCmpOp::Contains.eval(&b, &Value::Int(3)).unwrap());
        assert!(SetCmpOp::NotContains.eval(&a, &Value::Int(3)).unwrap());
    }

    #[test]
    fn empty_set_cases_match_table_3() {
        // P(x, ∅) column of Table 3: ⊂ → false, ⊇ → true, others run-time.
        let c = Value::set([Value::Int(1)]);
        let empty = Value::empty_set();
        assert!(!SetCmpOp::Subset.eval(&c, &empty).unwrap());
        assert!(SetCmpOp::SupersetEq.eval(&c, &empty).unwrap());
        // run-time dependent ones, both branches:
        assert!(!SetCmpOp::SubsetEq.eval(&c, &empty).unwrap());
        assert!(SetCmpOp::SubsetEq.eval(&empty, &empty).unwrap());
        assert!(SetCmpOp::Superset.eval(&c, &empty).unwrap());
        assert!(!SetCmpOp::Superset.eval(&empty, &empty).unwrap());
    }

    #[test]
    fn type_of_reconstructs_structure() {
        let v = Value::tuple([
            ("sname", Value::str("s1")),
            ("parts", Value::set([Value::Oid(Oid(1))])),
        ]);
        let ty = v.type_of();
        match ty {
            Type::Tuple(tt) => {
                assert_eq!(tt.field("sname").unwrap(), &Type::Str);
                assert_eq!(tt.field("parts").unwrap(), &Type::set(Type::Oid(None)));
            }
            other => panic!("expected tuple type, got {other}"),
        }
    }

    #[test]
    fn value_is_three_words() {
        // tuples and sets are one fat pointer each, like `Str`
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn shared_and_rebuilt_values_are_indistinguishable() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hashes = |v: &Value| {
            (
                BuildHasherDefault::<crate::fxhash::FxHasher>::default().hash_one(v),
                BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default()
                    .hash_one(v),
            )
        };
        let build = |order: &[i64]| {
            Value::tuple([
                ("name", Value::str("s1")),
                ("parts", Value::set(order.iter().map(|i| Value::Int(*i)))),
            ])
        };
        let original = build(&[1, 2, 3]);
        let shared = original.clone();
        let rebuilt = build(&[3, 1, 2]);
        assert_eq!(shared, rebuilt);
        assert_eq!(shared.cmp(&rebuilt), std::cmp::Ordering::Equal);
        assert_eq!(hashes(&shared), hashes(&rebuilt));
        assert_eq!(format!("{shared:?}"), format!("{rebuilt:?}"));
        assert_eq!(shared.to_string(), rebuilt.to_string());
    }

    #[test]
    fn deep_size_counts_atoms() {
        let v = Value::tuple([
            ("a", Value::Int(1)),
            ("b", Value::set([Value::Int(2), Value::Int(3)])),
        ]);
        assert_eq!(v.deep_size(), 3);
    }
}
