//! Column-at-a-time execution helpers.
//!
//! A pipeline [`Batch`] is a row batch or a view of a stored chunk: a
//! scan chunk the catalog cached with its columns, narrowed by a
//! selection as filters pass it on (see `oodb_value::batch`). Operators
//! evaluate their [bound](crate::bound) expressions over the row view,
//! but the hot shapes get a column fast path over a chunk view. Every
//! fast path reads its shape from the operator's `BoundExpr`, so the
//! binder is the one lowering that decides what runs column-at-a-time,
//! and `row_column` is the one test: *is this a field of the operator's
//! row, `Field(Row(0), a)`, with a live column?* Every column read goes
//! through the view's selection ([`ColumnView`]).
//!
//! * `filter_mask` binds the leaves of a filter's `AND`/`OR`/`NOT`
//!   tree of comparisons (a row field against a literal or another row
//!   field) to the chunk's columns and evaluates the predicate as a
//!   selection mask, with the [`Evaluator`](crate::eval::Evaluator)'s
//!   exact `Cmp` semantics (`NULL` rejection, type-mismatch errors and
//!   their order); the caller narrows the view's selection by it;
//! * a `Map` whose body is a row field reads that column;
//! * [`ProbeInput`] lets the join family probe either a plain row slice
//!   (the materialized path) or a streaming [`Batch`], lending every
//!   probe row and reading the join's bound left keys straight off key
//!   columns instead of evaluating them over the row.
//!
//! Every fast path preserves the reference work counters: the callers
//! keep charging `predicate_evals` / `hash_probes` per selected row, and
//! a column read evaluates no stats-bearing operator, so row and
//! columnar layouts produce identical [`crate::stats::Stats`].

use crate::bound::BoundExpr;
use crate::eval::EvalError;
use crate::stats::Stats;
use oodb_value::{Batch, CmpOp, Column, ColumnView, ColumnarBatch, Name, Oid, Value, F64};
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

/// The column `e` reads from `cb`, through its selection: `Some` when
/// `e` is a field of the operator's (first) row variable,
/// `Field(Row(0), a)`, and `cb` carries attribute `a`. The one shape
/// test of every column fast path.
pub(crate) fn row_column<'a>(e: &BoundExpr, cb: &'a ColumnarBatch) -> Option<ColumnView<'a>> {
    match e {
        BoundExpr::Field(base, attr) if matches!(**base, BoundExpr::Row(0)) => cb.column(attr),
        _ => None,
    }
}

/// Evaluates a filter's bound predicate over one chunk view as a
/// selection mask, when its leaves bind to the chunk's columns. The
/// mask has one entry per row of the view.
///
/// The predicate must be an `AND`/`OR`/`NOT` tree whose leaves compare
/// a row field with a literal (either side) or with another row field:
/// `Cmp` over `Field(Row(0), a)` and `Lit` or `Field(Row(0), b)`. For
/// each batch the leaves bind to the chunk's full columns, and one of
/// three tiers runs:
///
/// 1. **Bitmask** — no leaf can error on any row (primitive and string
///    columns are constructor-uniform and never hold `NULL`, so one
///    witness comparison per leaf decides this). Leaves evaluate whole
///    chunk columns in chunk-friendly loops (`i64`/`f64`/string
///    specializations that compare values in place), `AND`
///    short-circuits when its left mask is all-false and `OR` when
///    all-true; the result is read through the view's selection.
/// 2. **Per-row tree walk** — some leaf could error (value columns,
///    `NULL` literals, uncomparable constructors). The selected rows
///    evaluate in order with the interpreter's left-to-right
///    short-circuit, so the first error surfaced is the reference one
///    and a row an earlier filter removed raises none.
/// 3. **Row fallback** — the predicate has another shape, or a leaf's
///    column is missing from this batch: `None`, and the caller
///    evaluates the bound predicate over the row view, which reports the
///    reference error.
///
/// Charges `predicate_evals` once per selected row reached (all of them
/// on success; up to and including the erroring row on failure) and
/// `mask_batches` once, so row and mask paths keep identical reference
/// counters.
pub(crate) fn filter_mask(
    pred: &BoundExpr,
    cb: &ColumnarBatch,
    stats: &mut Stats,
) -> Option<Result<Vec<bool>, EvalError>> {
    let mask = Mask::bind(pred, cb)?;
    stats.mask_batches += 1;
    if mask.infallible() {
        stats.predicate_evals += cb.len() as u64;
        let chunk = mask.eval_mask(cb.chunk_len());
        return Some(Ok(cb.selected().map(|j| chunk[j]).collect()));
    }
    let mut keep = Vec::with_capacity(cb.len());
    for j in cb.selected() {
        stats.predicate_evals += 1;
        match mask.eval_row(j) {
            Ok(k) => keep.push(k),
            Err(e) => return Some(Err(e)),
        }
    }
    Some(Ok(keep))
}

/// The reference `Cmp`: `NULL` operands are rejected, and ordering
/// across constructors is a type mismatch.
fn compare(op: CmpOp, a: &Value, b: &Value) -> Result<bool, EvalError> {
    if matches!(a, Value::Null) || matches!(b, Value::Null) {
        return Err(EvalError::NullNotAllowed("comparison"));
    }
    Value::compare(op, a, b).map_err(EvalError::Value)
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

/// An operand's values of one kind, borrowed: a column, or one literal
/// for every row.
enum Lane<'a, T> {
    Col(&'a [T]),
    Const(&'a T),
}

/// Tier-1 kernel over two lanes. Values are compared in place, so a
/// string lane clones no `Arc` per row.
fn cmp_lanes<T: PartialOrd>(op: CmpOp, l: Lane<'_, T>, r: Lane<'_, T>, len: usize) -> Vec<bool> {
    match (l, r) {
        (Lane::Col(a), Lane::Const(c)) => a[..len].iter().map(|x| cmp_scalar(op, x, c)).collect(),
        (Lane::Const(c), Lane::Col(b)) => b[..len].iter().map(|y| cmp_scalar(op, c, y)).collect(),
        (Lane::Col(a), Lane::Col(b)) => a[..len]
            .iter()
            .zip(&b[..len])
            .map(|(x, y)| cmp_scalar(op, x, y))
            .collect(),
        (Lane::Const(a), Lane::Const(b)) => vec![cmp_scalar(op, a, b); len],
    }
}

/// One side of a mask comparison, bound to a chunk.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// A row field's column, every row of the chunk.
    Col(&'a Column),
    /// A literal of the plan.
    Lit(&'a Value),
}

impl<'a> Operand<'a> {
    fn bind(e: &'a BoundExpr, cb: &'a ColumnarBatch) -> Option<Self> {
        match e {
            BoundExpr::Lit(v) => Some(Operand::Lit(v)),
            _ => row_column(e, cb).map(|c| Operand::Col(c.chunk())),
        }
    }

    /// Chunk row `i`'s value.
    fn at(self, i: usize) -> Cow<'a, Value> {
        match self {
            Operand::Col(c) => Cow::Owned(c.value_at(i)),
            Operand::Lit(v) => Cow::Borrowed(v),
        }
    }

    /// A value of the constructor every row holds: the literal, or a
    /// representative of a primitive or string column's constructor.
    /// `None` for [`Column::Values`], which can hold anything, including
    /// `NULL`. The other kinds are constructor-uniform, so whether a
    /// comparison errors is decided by one witness evaluation.
    fn witness(self) -> Option<Cow<'a, Value>> {
        let col = match self {
            Operand::Lit(v) => return Some(Cow::Borrowed(v)),
            Operand::Col(col) => col,
        };
        Some(Cow::Owned(match col {
            Column::Int(_) => Value::Int(0),
            Column::Float(_) => Value::float(0.0),
            Column::Bool(_) => Value::Bool(false),
            Column::Date(_) => Value::Date(0),
            Column::Oid(_) => Value::Oid(Oid(0)),
            Column::Str(_) => Value::Str(Name::from("")),
            Column::Values(_) => return None,
        }))
    }

    fn ints(self) -> Option<Lane<'a, i64>> {
        match self {
            Operand::Col(Column::Int(xs)) => Some(Lane::Col(xs)),
            Operand::Lit(Value::Int(c)) => Some(Lane::Const(c)),
            _ => None,
        }
    }

    fn floats(self) -> Option<Lane<'a, F64>> {
        match self {
            Operand::Col(Column::Float(xs)) => Some(Lane::Col(xs)),
            Operand::Lit(Value::Float(c)) => Some(Lane::Const(c)),
            _ => None,
        }
    }

    fn strs(self) -> Option<Lane<'a, Name>> {
        match self {
            Operand::Col(Column::Str(xs)) => Some(Lane::Col(xs)),
            Operand::Lit(Value::Str(c)) => Some(Lane::Const(c)),
            _ => None,
        }
    }
}

/// A filter predicate's leaves bound to one chunk's columns.
enum Mask<'a> {
    /// A comparison with at least one column operand.
    Cmp(CmpOp, Operand<'a>, Operand<'a>),
    And(Box<Mask<'a>>, Box<Mask<'a>>),
    Or(Box<Mask<'a>>, Box<Mask<'a>>),
    Not(Box<Mask<'a>>),
}

impl<'a> Mask<'a> {
    /// Binds `e`'s leaves to `cb`'s columns; `None` when `e` has another
    /// shape or reads a column `cb` lacks (tier 3).
    fn bind(e: &'a BoundExpr, cb: &'a ColumnarBatch) -> Option<Self> {
        let sub = |e: &'a BoundExpr| Mask::bind(e, cb).map(Box::new);
        Some(match e {
            BoundExpr::And(a, b) => Mask::And(sub(a)?, sub(b)?),
            BoundExpr::Or(a, b) => Mask::Or(sub(a)?, sub(b)?),
            BoundExpr::Not(inner) => Mask::Not(sub(inner)?),
            BoundExpr::Cmp(op, a, b) => match (Operand::bind(a, cb)?, Operand::bind(b, cb)?) {
                (Operand::Lit(_), Operand::Lit(_)) => return None,
                (l, r) => Mask::Cmp(*op, l, r),
            },
            _ => return None,
        })
    }

    /// True when no row of this batch can make the tree error: every
    /// leaf's witness comparison succeeds. (`NOT`/`AND`/`OR` over
    /// boolean leaves never error themselves.)
    fn infallible(&self) -> bool {
        match self {
            Mask::Cmp(op, l, r) => matches!(
                (l.witness(), r.witness()),
                (Some(a), Some(b)) if compare(*op, &a, &b).is_ok()
            ),
            Mask::And(a, b) | Mask::Or(a, b) => a.infallible() && b.infallible(),
            Mask::Not(e) => e.infallible(),
        }
    }

    /// Tier 1: whole-column evaluation. Only sound after
    /// [`Mask::infallible`] holds — leaves `expect` success.
    fn eval_mask(&self, len: usize) -> Vec<bool> {
        match self {
            Mask::Cmp(op, l, r) => {
                if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
                    return cmp_lanes(*op, a, b, len);
                }
                if let (Some(a), Some(b)) = (l.floats(), r.floats()) {
                    return cmp_lanes(*op, a, b, len);
                }
                if let (Some(a), Some(b)) = (l.strs(), r.strs()) {
                    return cmp_lanes(*op, a, b, len);
                }
                (0..len)
                    .map(|i| compare(*op, &l.at(i), &r.at(i)).expect("classified infallible"))
                    .collect()
            }
            Mask::And(a, b) => {
                let mut m = a.eval_mask(len);
                // short-circuit: an all-false left mask settles the AND
                if m.iter().any(|&x| x) {
                    for (x, y) in m.iter_mut().zip(b.eval_mask(len)) {
                        *x &= y;
                    }
                }
                m
            }
            Mask::Or(a, b) => {
                let mut m = a.eval_mask(len);
                // short-circuit: an all-true left mask settles the OR
                if m.iter().any(|&x| !x) {
                    for (x, y) in m.iter_mut().zip(b.eval_mask(len)) {
                        *x |= y;
                    }
                }
                m
            }
            Mask::Not(e) => {
                let mut m = e.eval_mask(len);
                for x in m.iter_mut() {
                    *x = !*x;
                }
                m
            }
        }
    }

    /// Tier 2: one chunk row, with the interpreter's left-to-right
    /// short-circuit and error order.
    fn eval_row(&self, i: usize) -> Result<bool, EvalError> {
        match self {
            Mask::Cmp(op, l, r) => compare(*op, &l.at(i), &r.at(i)),
            Mask::And(a, b) => Ok(a.eval_row(i)? && b.eval_row(i)?),
            Mask::Or(a, b) => Ok(a.eval_row(i)? || b.eval_row(i)?),
            Mask::Not(e) => Ok(!e.eval_row(i)?),
        }
    }
}

/// What a join probe phase iterates: a borrowed row slice (the
/// materialized join) or a streaming [`Batch`], whose key columns can be
/// read instead of evaluating the keys.
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

    /// Row `i`, borrowed: a row of the input or a chunk's stored tuple
    /// ([`Batch::row_at`]).
    pub fn row_at(&self, i: usize) -> &'a Value {
        match self {
            ProbeInput::Rows(r) => &r[i],
            ProbeInput::Batch(b) => b.row_at(i),
        }
    }

    /// The column `key` reads, through the selection, when the input is
    /// a chunk view and `key` a field of the probe row with a live
    /// column (see [`row_column`]).
    pub(crate) fn key_column(&self, key: &BoundExpr) -> Option<ColumnView<'a>> {
        let ProbeInput::Batch(Batch::Columnar(cb)) = self else {
            return None;
        };
        row_column(key, cb)
    }

    /// The column of attribute `name`, through the selection, when the
    /// input is a chunk view that has one.
    pub(crate) fn column(&self, name: &str) -> Option<ColumnView<'a>> {
        match self {
            ProbeInput::Batch(b) => b.column(name),
            ProbeInput::Rows(_) => None,
        }
    }

    /// The columns a composite key reads — `Some` only when *every* key
    /// has one, so the whole key vector evaluates without reading the
    /// row.
    pub(crate) fn key_columns(&self, keys: &[BoundExpr]) -> Option<Vec<ColumnView<'a>>> {
        keys.iter().map(|k| self.key_column(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_catalog::Table;
    use oodb_value::batch::BatchKind;
    use oodb_value::Oid;

    fn rows() -> Vec<Value> {
        (0..5)
            .map(|i| row(i, Value::str(if i < 3 { "lo" } else { "hi" })))
            .collect()
    }

    fn row(i: i64, s: Value) -> Value {
        Value::tuple([
            ("a", Value::Int(i)),
            ("id", Value::Oid(Oid(i as u64))),
            ("s", s),
        ])
    }

    /// Scan chunk 0 of a table of `rows`, in layout `kind`.
    fn chunk(rows: Vec<Value>, kind: BatchKind) -> Batch {
        let mut t = Table::new("id".into());
        for r in rows {
            t.insert(&"T".into(), r.as_tuple().unwrap().clone())
                .unwrap();
        }
        t.chunk(0, kind).unwrap()
    }

    /// `Field(Row(row), attr)`.
    fn field(row: usize, attr: &str) -> BoundExpr {
        BoundExpr::Field(Box::new(BoundExpr::Row(row)), attr.into())
    }

    #[test]
    fn probe_input_reads_keys_off_columns() {
        let batch = chunk(rows(), BatchKind::Columnar);
        let probe: ProbeInput = (&batch).into();
        let cols = probe
            .key_columns(&[field(0, "a")])
            .expect("a row field over a live column");
        assert_eq!(cols[0].value_at(3), Value::Int(3));
        // another shape, another row or a missing column defeats the
        // fast path
        assert!(probe.key_columns(&[field(0, "missing")]).is_none());
        assert!(probe
            .key_columns(&[field(0, "a"), BoundExpr::Lit(Value::Int(1))])
            .is_none());
        assert!(probe.key_columns(&[field(1, "a")]).is_none());
        // a filtered view reads its keys through the selection
        let Batch::Columnar(cb) = &batch else {
            panic!("uniform tuples get columns")
        };
        let odd = Batch::Columnar(cb.filter(&[false, true, false, true, false]));
        let probe: ProbeInput = (&odd).into();
        let cols = probe.key_columns(&[field(0, "a")]).unwrap();
        assert_eq!(cols[0].value_at(1), Value::Int(3));
        assert_eq!(probe.row_at(1), &rows()[3]);
        // row batches have no columns
        let rb = chunk(rows(), BatchKind::Row);
        let probe: ProbeInput = (&rb).into();
        assert!(probe.key_columns(&[field(0, "a")]).is_none());
        assert_eq!(probe.row_at(2), &rows()[2]);
    }

    /// The mask tier binds the chunk's full columns and reads its result
    /// through the view's selection, on both tiers, and charges only the
    /// selected rows.
    #[test]
    fn masks_read_through_the_selection() {
        let Batch::Columnar(cb) = chunk(rows(), BatchKind::Columnar) else {
            panic!("columnar")
        };
        let view = cb.filter(&[true, false, true, true, false]); // a = 0, 2, 3
        let lo = |lit: Value| {
            BoundExpr::Cmp(
                CmpOp::Lt,
                Box::new(field(0, "a")),
                Box::new(BoundExpr::Lit(lit)),
            )
        };
        // infallible (bitmask), then fallible (per-row walk): `a < "x"`
        // errors on every row the `OR` reaches
        let fallible = BoundExpr::Or(Box::new(lo(Value::Int(3))), Box::new(lo(Value::str("x"))));
        let mut stats = Stats::new();
        let keep = filter_mask(&lo(Value::Int(3)), &view, &mut stats).unwrap();
        assert_eq!(keep.unwrap(), [true, true, false]);
        assert_eq!((stats.predicate_evals, stats.mask_batches), (3, 1));
        let narrowed = view.filter(&[true, true, false]); // a = 0, 2
        let keep = filter_mask(&fallible, &narrowed, &mut stats).unwrap();
        assert_eq!(keep.unwrap(), [true, true]);
        assert_eq!((stats.predicate_evals, stats.mask_batches), (5, 2));
        assert!(filter_mask(&fallible, &view, &mut stats).unwrap().is_err());
    }

    /// A string column is constructor-uniform and so has a witness: a
    /// comparison over it runs whole-column (tier 1). A value column can
    /// hold any constructor and has none.
    #[test]
    fn string_columns_have_a_witness_value_columns_none() {
        let mut mixed = rows();
        mixed.push(row(9, Value::Null));
        let Batch::Columnar(uniform) = chunk(rows(), BatchKind::Columnar) else {
            panic!("columnar")
        };
        let Batch::Columnar(padded) = chunk(mixed, BatchKind::Columnar) else {
            panic!("columnar")
        };
        let s = field(0, "s");
        let str_col = Operand::bind(&s, &uniform).unwrap();
        assert!(matches!(str_col, Operand::Col(Column::Str(_))));
        assert_eq!(str_col.witness().as_deref(), Some(&Value::str("")));
        let values_col = Operand::bind(&s, &padded).unwrap();
        assert!(matches!(values_col, Operand::Col(Column::Values(_))));
        assert!(values_col.witness().is_none());
        // so `s = "lo"` is infallible over the string column only
        let eq = BoundExpr::Cmp(
            CmpOp::Eq,
            Box::new(s.clone()),
            Box::new(BoundExpr::Lit(Value::str("lo"))),
        );
        assert!(Mask::bind(&eq, &uniform).unwrap().infallible());
        assert!(!Mask::bind(&eq, &padded).unwrap().infallible());
    }
}
