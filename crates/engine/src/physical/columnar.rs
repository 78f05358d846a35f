//! Column-at-a-time execution helpers.
//!
//! The streaming pipeline ships [`Batch`]es that are columnar by default
//! (see `oodb_value::batch`). Operators stay expression-generic — any
//! ADL sub-expression still works through the row view — but the hot
//! shapes get a column fast path, gated by one question: *is this
//! expression a simple attribute access over the operator's variable?*
//!
//! * [`simple_attr`] answers it (`x.a` with `x` the bound variable);
//! * [`SimplePred`] compiles `x.a ⟨cmp⟩ literal` filters so selections
//!   scan one unboxed column instead of materializing rows and
//!   re-entering the interpreter (semantics — including `NULL`
//!   rejection and type-mismatch errors — mirror `Evaluator`'s `Cmp`
//!   exactly);
//! * [`ProbeInput`] lets the join family probe either a plain row slice
//!   (the materialized path, exchange worker chunks) or a streaming
//!   [`Batch`], evaluating simple join keys straight off key columns
//!   without materializing probe rows.
//!
//! Every fast path preserves the reference work counters: the callers
//! keep charging `predicate_evals` / `hash_probes` per row, and a simple
//! expression evaluates no stats-bearing operator, so row and columnar
//! layouts produce identical [`crate::stats::Stats`].

use crate::eval::EvalError;
use crate::stats::Stats;
use oodb_adl::expr::Expr;
use oodb_value::{Batch, CmpOp, Column, ColumnarBatch, Name, Oid, Value};
use std::borrow::Cow;

/// The process default for the vectorized fast paths: `OODB_VECTORIZE`
/// (`on`/`off`, `1`/`0`, `true`/`false`) if set, on otherwise. Like
/// `OODB_BATCH_KIND`, a malformed value **panics** — CI's `off` pass
/// must never silently run vectorized.
pub fn vectorize_from_env() -> bool {
    match std::env::var("OODB_VECTORIZE") {
        Err(_) => true,
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "on" | "1" | "true" => true,
            "off" | "0" | "false" => false,
            other => panic!("OODB_VECTORIZE must be `on` or `off`, got {other:?}"),
        },
    }
}

/// The attribute `e` reads, when `e` is exactly `var.attr`.
pub fn simple_attr<'e>(e: &'e Expr, var: &Name) -> Option<&'e Name> {
    match e {
        Expr::Field(base, attr) if matches!(base.as_ref(), Expr::Var(v) if v == var) => Some(attr),
        _ => None,
    }
}

/// A compiled `var.attr ⟨cmp⟩ literal` (or flipped) predicate — the
/// filter shape that runs column-at-a-time.
#[derive(Debug, Clone)]
pub struct SimplePred {
    /// The attribute the predicate reads.
    pub attr: Name,
    op: CmpOp,
    rhs: Value,
    /// True when the literal is the *left* operand (`lit ⟨cmp⟩ x.a`).
    flipped: bool,
}

impl SimplePred {
    /// Compiles `pred` if it has the simple shape; `None` otherwise
    /// (the caller falls back to the row view + interpreter).
    pub fn compile(var: &Name, pred: &Expr) -> Option<SimplePred> {
        let Expr::Cmp(op, a, b) = pred else {
            return None;
        };
        if let (Some(attr), Expr::Lit(c)) = (simple_attr(a, var), b.as_ref()) {
            return Some(SimplePred {
                attr: attr.clone(),
                op: *op,
                rhs: c.clone(),
                flipped: false,
            });
        }
        if let (Expr::Lit(c), Some(attr)) = (a.as_ref(), simple_attr(b, var)) {
            return Some(SimplePred {
                attr: attr.clone(),
                op: *op,
                rhs: c.clone(),
                flipped: true,
            });
        }
        None
    }

    /// Evaluates the predicate on one column value, with exactly the
    /// reference `Cmp` semantics (`NULL` operands are rejected, ordering
    /// across constructors is a type mismatch).
    pub fn eval(&self, v: &Value) -> Result<bool, EvalError> {
        if matches!(v, Value::Null) || matches!(self.rhs, Value::Null) {
            return Err(EvalError::NullNotAllowed("comparison"));
        }
        let r = if self.flipped {
            Value::compare(self.op, &self.rhs, v)
        } else {
            Value::compare(self.op, v, &self.rhs)
        };
        r.map_err(EvalError::Value)
    }

    /// Tier-1 mask kernel: evaluates the predicate over a whole column
    /// in one chunk-friendly pass. Only sound after a witness
    /// evaluation succeeded (see [`MaskExpr`]) — rows `expect` success.
    fn eval_column(&self, col: &Column, len: usize) -> Vec<bool> {
        match (col, &self.rhs) {
            (Column::Int(xs), Value::Int(c)) => {
                let (op, c, flipped) = (self.op, *c, self.flipped);
                xs[..len]
                    .iter()
                    .map(|&x| {
                        if flipped {
                            cmp_scalar(op, c, x)
                        } else {
                            cmp_scalar(op, x, c)
                        }
                    })
                    .collect()
            }
            (Column::Float(xs), Value::Float(c)) => {
                let (op, c, flipped) = (self.op, *c, self.flipped);
                xs[..len]
                    .iter()
                    .map(|&x| {
                        if flipped {
                            cmp_scalar(op, c, x)
                        } else {
                            cmp_scalar(op, x, c)
                        }
                    })
                    .collect()
            }
            _ => (0..len)
                .map(|i| self.eval(&col.value_at(i)).expect("classified infallible"))
                .collect(),
        }
    }
}

/// One comparison leaf of a compiled mask tree.
#[derive(Debug, Clone)]
pub enum MaskLeaf {
    /// `x.a ⟨cmp⟩ literal` (either orientation).
    Lit(SimplePred),
    /// `x.a ⟨cmp⟩ x.b`.
    Cols { left: Name, op: CmpOp, right: Name },
}

/// A compiled `AND`/`OR`/`NOT` tree over simple comparison leaves
/// (`x.a ⟨cmp⟩ lit`, `x.a ⟨cmp⟩ x.b`) — the compound-predicate shape
/// that evaluates as fused selection masks over primitive columns.
///
/// Per batch, [`MaskExpr::eval_batch`] picks one of three tiers:
///
/// 1. **Bitmask** — every leaf binds to a live column and provably
///    cannot error on any row of it (primitive columns are
///    constructor-uniform and never hold `NULL`, so one witness
///    comparison per leaf decides this). Leaves evaluate whole columns
///    in chunk-friendly loops (`i64`/`f64` specializations), `AND`
///    short-circuits when its left mask is all-false and `OR` when
///    all-true.
/// 2. **Per-row tree walk** — every leaf binds but some could error
///    (interned columns, `NULL` literals, uncomparable constructors).
///    Rows evaluate in order with the interpreter's exact left-to-right
///    short-circuit, so the first error surfaced is identical.
/// 3. **Row fallback** — a leaf's column is missing from this batch:
///    `eval_batch` returns `None` and the caller re-enters the row
///    interpreter, which reports the exact reference error.
///
/// All tiers preserve the reference counters: `predicate_evals` is
/// charged once per row reached, exactly like the row path.
#[derive(Debug, Clone)]
pub enum MaskExpr {
    /// A single comparison.
    Leaf(MaskLeaf),
    /// Logical conjunction, left-to-right short-circuit.
    And(Box<MaskExpr>, Box<MaskExpr>),
    /// Logical disjunction, left-to-right short-circuit.
    Or(Box<MaskExpr>, Box<MaskExpr>),
    /// Logical negation.
    Not(Box<MaskExpr>),
}

impl MaskExpr {
    /// Compiles `pred` when every leaf has a simple shape over `var`;
    /// `None` otherwise (the caller keeps the row interpreter).
    pub fn compile(var: &Name, pred: &Expr) -> Option<MaskExpr> {
        match pred {
            Expr::And(a, b) => Some(MaskExpr::And(
                Box::new(MaskExpr::compile(var, a)?),
                Box::new(MaskExpr::compile(var, b)?),
            )),
            Expr::Or(a, b) => Some(MaskExpr::Or(
                Box::new(MaskExpr::compile(var, a)?),
                Box::new(MaskExpr::compile(var, b)?),
            )),
            Expr::Not(e) => Some(MaskExpr::Not(Box::new(MaskExpr::compile(var, e)?))),
            Expr::Cmp(op, a, b) => {
                if let (Some(l), Some(r)) = (simple_attr(a, var), simple_attr(b, var)) {
                    return Some(MaskExpr::Leaf(MaskLeaf::Cols {
                        left: l.clone(),
                        op: *op,
                        right: r.clone(),
                    }));
                }
                SimplePred::compile(var, pred).map(|p| MaskExpr::Leaf(MaskLeaf::Lit(p)))
            }
            _ => None,
        }
    }

    /// Binds every leaf to its column in `cb`; `None` when one is
    /// missing (tier 3).
    fn bind<'a>(&'a self, cb: &'a ColumnarBatch) -> Option<Bound<'a>> {
        Some(match self {
            MaskExpr::Leaf(MaskLeaf::Lit(pred)) => Bound::Lit {
                pred,
                col: cb.column(&pred.attr)?,
            },
            MaskExpr::Leaf(MaskLeaf::Cols { left, op, right }) => Bound::Cols {
                op: *op,
                left: cb.column(left)?,
                right: cb.column(right)?,
            },
            MaskExpr::And(a, b) => Bound::And(Box::new(a.bind(cb)?), Box::new(b.bind(cb)?)),
            MaskExpr::Or(a, b) => Bound::Or(Box::new(a.bind(cb)?), Box::new(b.bind(cb)?)),
            MaskExpr::Not(e) => Bound::Not(Box::new(e.bind(cb)?)),
        })
    }

    /// Evaluates the tree over one columnar batch: `Some(keep)` when
    /// every leaf binds to a live column, `None` when one is missing —
    /// the caller falls back to the row interpreter for this batch.
    /// Charges `predicate_evals` once per row reached (all of them on
    /// success; up to and including the erroring row on failure) and
    /// `mask_batches` once, so row and mask paths keep identical
    /// reference counters.
    pub fn eval_batch(
        &self,
        cb: &ColumnarBatch,
        stats: &mut Stats,
    ) -> Option<Result<Vec<bool>, EvalError>> {
        let bound = self.bind(cb)?;
        stats.mask_batches += 1;
        if bound.infallible() {
            stats.predicate_evals += cb.len() as u64;
            return Some(Ok(bound.eval_mask(cb.len())));
        }
        let mut keep = Vec::with_capacity(cb.len());
        for i in 0..cb.len() {
            stats.predicate_evals += 1;
            match bound.eval_row(i) {
                Ok(k) => keep.push(k),
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok(keep))
    }
}

/// A representative value of a primitive column's constructor, or
/// `None` for interned columns (which can hold anything, including
/// `NULL`). Primitive columns are constructor-uniform, so whether a
/// comparison errors is decided by one witness evaluation.
fn witness(col: &Column) -> Option<Value> {
    Some(match col {
        Column::Int(_) => Value::Int(0),
        Column::Float(_) => Value::float(0.0),
        Column::Bool(_) => Value::Bool(false),
        Column::Date(_) => Value::Date(0),
        Column::Oid(_) => Value::Oid(Oid(0)),
        Column::Str { .. } => Value::Str(Name::from("")),
        Column::Interned { .. } => return None,
    })
}

/// Scalar comparison on unboxed operands — the loop body of the
/// specialized mask kernels.
fn cmp_scalar<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// A mask tree bound to one batch's columns.
enum Bound<'a> {
    Lit {
        pred: &'a SimplePred,
        col: &'a Column,
    },
    Cols {
        op: CmpOp,
        left: &'a Column,
        right: &'a Column,
    },
    And(Box<Bound<'a>>, Box<Bound<'a>>),
    Or(Box<Bound<'a>>, Box<Bound<'a>>),
    Not(Box<Bound<'a>>),
}

impl Bound<'_> {
    /// True when no row of this batch can make the tree error: every
    /// leaf's witness comparison succeeds. (`NOT`/`AND`/`OR` over
    /// boolean leaves never error themselves.)
    fn infallible(&self) -> bool {
        match self {
            Bound::Lit { pred, col } => {
                matches!(witness(col), Some(w) if pred.eval(&w).is_ok())
            }
            Bound::Cols { op, left, right } => matches!(
                (witness(left), witness(right)),
                (Some(wl), Some(wr)) if Value::compare(*op, &wl, &wr).is_ok()
            ),
            Bound::And(a, b) | Bound::Or(a, b) => a.infallible() && b.infallible(),
            Bound::Not(e) => e.infallible(),
        }
    }

    /// Tier 1: whole-column evaluation. Only sound after
    /// [`Bound::infallible`] holds — leaves `expect` success.
    fn eval_mask(&self, len: usize) -> Vec<bool> {
        match self {
            Bound::Lit { pred, col } => pred.eval_column(col, len),
            Bound::Cols { op, left, right } => match (left, right) {
                (Column::Int(l), Column::Int(r)) => {
                    (0..len).map(|i| cmp_scalar(*op, l[i], r[i])).collect()
                }
                (Column::Float(l), Column::Float(r)) => {
                    (0..len).map(|i| cmp_scalar(*op, l[i], r[i])).collect()
                }
                _ => (0..len)
                    .map(|i| {
                        let (a, b) = (left.value_at(i), right.value_at(i));
                        Value::compare(*op, &a, &b).expect("classified infallible")
                    })
                    .collect(),
            },
            Bound::And(a, b) => {
                let mut m = a.eval_mask(len);
                // short-circuit: an all-false left mask settles the AND
                if m.iter().any(|&x| x) {
                    for (x, y) in m.iter_mut().zip(b.eval_mask(len)) {
                        *x &= y;
                    }
                }
                m
            }
            Bound::Or(a, b) => {
                let mut m = a.eval_mask(len);
                // short-circuit: an all-true left mask settles the OR
                if m.iter().any(|&x| !x) {
                    for (x, y) in m.iter_mut().zip(b.eval_mask(len)) {
                        *x |= y;
                    }
                }
                m
            }
            Bound::Not(e) => {
                let mut m = e.eval_mask(len);
                for x in m.iter_mut() {
                    *x = !*x;
                }
                m
            }
        }
    }

    /// Tier 2: one row, with the interpreter's exact left-to-right
    /// short-circuit and error order.
    fn eval_row(&self, i: usize) -> Result<bool, EvalError> {
        match self {
            Bound::Lit { pred, col } => pred.eval(&col.value_at(i)),
            Bound::Cols { op, left, right } => {
                let (a, b) = (left.value_at(i), right.value_at(i));
                if matches!(a, Value::Null) || matches!(b, Value::Null) {
                    return Err(EvalError::NullNotAllowed("comparison"));
                }
                Value::compare(*op, &a, &b).map_err(EvalError::Value)
            }
            Bound::And(a, b) => Ok(a.eval_row(i)? && b.eval_row(i)?),
            Bound::Or(a, b) => Ok(a.eval_row(i)? || b.eval_row(i)?),
            Bound::Not(e) => Ok(!e.eval_row(i)?),
        }
    }
}

/// What a join probe phase iterates: a borrowed row slice (materialized
/// entry points, exchange worker chunks) or a streaming [`Batch`] whose
/// key columns can be read without materializing rows.
pub enum ProbeInput<'a> {
    /// Plain rows.
    Rows(&'a [Value]),
    /// A pipeline batch in either layout.
    Batch(&'a Batch),
}

impl<'a> From<&'a [Value]> for ProbeInput<'a> {
    fn from(rows: &'a [Value]) -> Self {
        ProbeInput::Rows(rows)
    }
}

impl<'a> From<&'a Vec<Value>> for ProbeInput<'a> {
    fn from(rows: &'a Vec<Value>) -> Self {
        ProbeInput::Rows(rows)
    }
}

impl<'a> From<&'a Batch> for ProbeInput<'a> {
    fn from(batch: &'a Batch) -> Self {
        ProbeInput::Batch(batch)
    }
}

impl<'a> ProbeInput<'a> {
    /// Probe rows available.
    pub fn len(&self) -> usize {
        match self {
            ProbeInput::Rows(r) => r.len(),
            ProbeInput::Batch(b) => b.len(),
        }
    }

    /// True when there is nothing to probe.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`: borrowed where the input owns rows or a columnar batch
    /// keeps its origin ([`Batch::row_at`]), materialized from columns
    /// otherwise. Probe loops call this lazily — only when the full row
    /// is actually needed (residuals, output construction).
    pub fn row_at(&self, i: usize) -> Cow<'a, Value> {
        match self {
            ProbeInput::Rows(r) => Cow::Borrowed(&r[i]),
            ProbeInput::Batch(b) => b.row_at(i),
        }
    }

    /// The column `key` reads, when `key` is `var.attr` and the input is
    /// a columnar batch carrying that attribute.
    pub fn key_column(&self, key: &Expr, var: &Name) -> Option<&'a Column> {
        let ProbeInput::Batch(Batch::Columnar(cb)) = self else {
            return None;
        };
        cb.column(simple_attr(key, var)?)
    }

    /// The columns a composite key reads — `Some` only when *every* key
    /// is a simple attribute with a live column, so the whole key vector
    /// evaluates without materializing the row.
    pub fn key_columns(&self, keys: &[Expr], var: &Name) -> Option<Vec<&'a Column>> {
        keys.iter().map(|k| self.key_column(k, var)).collect()
    }
}

/// Takes the (lazily materialized) probe row out of its cache, reading
/// it from the input if nothing cached it yet — the "emit the probe row
/// itself" path of semi/anti joins, with no extra clone for columnar
/// inputs.
pub(crate) fn take_row(
    cache: &mut Option<Cow<'_, Value>>,
    probe: &ProbeInput<'_>,
    i: usize,
) -> Value {
    match cache.take() {
        Some(c) => c.into_owned(),
        None => probe.row_at(i).into_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_value::batch::BatchKind;

    fn rows() -> Vec<Value> {
        (0..5)
            .map(|i| {
                Value::tuple([
                    ("a", Value::Int(i)),
                    ("s", Value::str(if i < 3 { "lo" } else { "hi" })),
                ])
            })
            .collect()
    }

    #[test]
    fn simple_pred_compiles_both_orientations() {
        let v: Name = "x".into();
        let p = SimplePred::compile(&v, &lt(var("x").field("a"), int(3))).unwrap();
        assert_eq!(p.attr.as_ref(), "a");
        assert!(p.eval(&Value::Int(2)).unwrap());
        assert!(!p.eval(&Value::Int(3)).unwrap());
        // flipped: 3 < x.a
        let p = SimplePred::compile(&v, &lt(int(3), var("x").field("a"))).unwrap();
        assert!(p.eval(&Value::Int(4)).unwrap());
        assert!(!p.eval(&Value::Int(3)).unwrap());
        // non-simple shapes don't compile
        assert!(SimplePred::compile(&v, &lt(var("y").field("a"), int(3))).is_none());
        assert!(SimplePred::compile(
            &v,
            &and(
                eq(var("x").field("a"), int(1)),
                eq(var("x").field("a"), int(2))
            )
        )
        .is_none());
    }

    #[test]
    fn simple_pred_matches_reference_error_semantics() {
        let v: Name = "x".into();
        let p = SimplePred::compile(&v, &lt(var("x").field("a"), int(3))).unwrap();
        // ordering across constructors is a type mismatch, like Value::compare
        assert!(matches!(
            p.eval(&Value::str("oops")),
            Err(EvalError::Value(_))
        ));
        // NULL operands are rejected, like the evaluator's Cmp
        assert!(matches!(
            p.eval(&Value::Null),
            Err(EvalError::NullNotAllowed(_))
        ));
    }

    #[test]
    fn probe_input_reads_keys_off_columns() {
        let v: Name = "x".into();
        let batch = Batch::of(BatchKind::Columnar, rows());
        let probe: ProbeInput = (&batch).into();
        let cols = probe
            .key_columns(&[var("x").field("a")], &v)
            .expect("simple key over a live column");
        assert_eq!(cols[0].value_at(3), Value::Int(3));
        // a non-simple key or a missing column defeats the fast path
        assert!(probe
            .key_columns(&[var("x").field("missing")], &v)
            .is_none());
        assert!(probe
            .key_columns(&[var("x").field("a"), lit(Value::Int(1))], &v)
            .is_none());
        // row batches have no columns
        let rb = Batch::of(BatchKind::Row, rows());
        let probe: ProbeInput = (&rb).into();
        assert!(probe.key_columns(&[var("x").field("a")], &v).is_none());
        assert_eq!(probe.row_at(2).as_ref(), &rows()[2]);
    }
}
