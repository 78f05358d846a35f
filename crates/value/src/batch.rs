//! Columnar batches: the cache-friendly row-block representation the
//! streaming pipeline ships between operators.
//!
//! The paper's whole argument is set-oriented evaluation, but a batch of
//! boxed [`Value`]s still chases a heap pointer per attribute access.
//! This module flattens a batch of same-schema tuples into **columns**:
//! unboxed `i64`/`f64`/`bool`/oid vectors, a vector of shared strings,
//! and one value per row for nested `Set`/`Tuple` attributes. Column
//! fast paths read a primitive column without touching a tuple; the
//! algebra on top is unchanged.
//!
//! * [`Batch`] — what operators exchange: either a legacy row batch
//!   (`Vec<Value>`) or a [`ColumnarBatch`]. [`Batch::of`] builds the
//!   layout a [`BatchKind`] asks for, falling back to rows whenever the
//!   batch is not a uniform block of tuples (scalar streams, mixed
//!   schemas), so columnar mode is always total.
//! * [`Column`] — one attribute's values. Primitive kinds are unboxed;
//!   [`Column::Str`] holds one shared string per row; [`Column::Values`]
//!   holds everything else (nested values, `Null` padding, mixed kinds).
//! * Row view: [`Batch::row_at`] / [`ColumnarBatch::row`] give a single
//!   row on demand; operators whose expression is not a simple attribute
//!   access fall back to this view and keep exact reference semantics
//!   (including error messages). A scan chunk cut from a shared [`Set`]
//!   by [`Batch::shared`] keeps that set as its *origin*, so its row view
//!   hands out the stored tuples (a borrow or an `Arc` clone); any other
//!   batch materializes the row from its columns.
//! * Sharing: the column list and each column sit behind an `Arc`, so
//!   cloning a batch is a reference-count bump, and projection and
//!   renaming copy names and pointers, never column data.
//!
//! Batches have no byte encoding of their own: spill files and the wire
//! protocol write a batch's rows with the row codec
//! ([`crate::codec::encode_rows`]), whatever its layout.
//!
//! Row order is preserved exactly in every conversion, so the two
//! layouts are observationally equivalent (the row/columnar differential
//! tests depend on this).

use crate::{Name, Oid, Set, Tuple, Value, F64};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Rows per batch. Batches are soft-bounded: operators that expand rows
/// (unnest, inner joins) may exceed it rather than split mid-tuple-group.
/// Base-extent scan chunks are cut at exactly these boundaries, by the
/// catalog that caches them and the engine that streams them alike.
pub const BATCH_SIZE: usize = 1024;

/// Which layout the pipeline ships batches in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchKind {
    /// Legacy layout: a batch is a `Vec<Value>` of boxed rows.
    Row,
    /// Columnar layout (the default): uniform tuple batches flatten
    /// into [`ColumnarBatch`]es; everything else stays a row batch.
    #[default]
    Columnar,
}

impl BatchKind {
    /// The process default: `OODB_BATCH_KIND` (`row` or `columnar`) if
    /// set, columnar otherwise. Like `OODB_MEMORY_BUDGET`, a malformed
    /// value **panics** — an operator who asked for a layout meant to
    /// get it, and CI's row-layout pass must never silently run
    /// columnar.
    pub fn from_env() -> Self {
        match std::env::var("OODB_BATCH_KIND") {
            Err(_) => BatchKind::Columnar,
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "row" => BatchKind::Row,
                "columnar" | "col" => BatchKind::Columnar,
                other => {
                    panic!("OODB_BATCH_KIND must be `row` or `columnar`, got {other:?}")
                }
            },
        }
    }
}

/// One attribute's values across a batch, unboxed where the kind allows.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// `Value::Int` values.
    Int(Vec<i64>),
    /// `Value::Float` values (canonical [`F64`] bit patterns).
    Float(Vec<F64>),
    /// `Value::Bool` values.
    Bool(Vec<bool>),
    /// `Value::Date` values.
    Date(Vec<i64>),
    /// `Value::Oid` values.
    Oid(Vec<u64>),
    /// `Value::Str` values. A kind of its own, like the unboxed ones,
    /// because every row holds the same constructor: a comparison with a
    /// string column errors for all rows or for none.
    Str(Vec<Name>),
    /// Everything else: nested `Set`/`Tuple` values, `Null` padding and
    /// mixed-kind columns, one value per row.
    Values(Vec<Value>),
}

impl Column {
    /// An empty column of the kind `v` starts, with room for `capacity`
    /// rows.
    fn for_value(v: &Value, capacity: usize) -> Column {
        match v {
            Value::Int(_) => Column::Int(Vec::with_capacity(capacity)),
            Value::Float(_) => Column::Float(Vec::with_capacity(capacity)),
            Value::Bool(_) => Column::Bool(Vec::with_capacity(capacity)),
            Value::Date(_) => Column::Date(Vec::with_capacity(capacity)),
            Value::Oid(_) => Column::Oid(Vec::with_capacity(capacity)),
            Value::Str(_) => Column::Str(Vec::with_capacity(capacity)),
            _ => Column::Values(Vec::with_capacity(capacity)),
        }
    }

    /// Appends `v`, upgrading the column to [`Column::Values`] on the
    /// first value that does not fit the kind it started with.
    fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::Int(xs), Value::Int(i)) => xs.push(i),
            (Column::Float(xs), Value::Float(f)) => xs.push(f),
            (Column::Bool(xs), Value::Bool(b)) => xs.push(b),
            (Column::Date(xs), Value::Date(d)) => xs.push(d),
            (Column::Oid(xs), Value::Oid(Oid(o))) => xs.push(o),
            (Column::Str(xs), Value::Str(s)) => xs.push(s),
            (Column::Values(xs), v) => xs.push(v),
            (_, v) => {
                let mut values: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
                values.push(v);
                *self = Column::Values(values);
            }
        }
    }

    /// Rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) | Column::Date(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Oid(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Values(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes row `i`'s value: a copy for primitive kinds, a
    /// reference-count bump for strings, a clone for [`Column::Values`].
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Date(v) => Value::Date(v[i]),
            Column::Oid(v) => Value::Oid(Oid(v[i])),
            Column::Str(v) => Value::Str(v[i].clone()),
            Column::Values(v) => v[i].clone(),
        }
    }

    /// The rows where `keep[i]` holds, preserving order.
    fn filter(&self, keep: &[bool]) -> Column {
        fn sel<T: Clone>(v: &[T], keep: &[bool]) -> Vec<T> {
            v.iter()
                .zip(keep)
                .filter(|(_, k)| **k)
                .map(|(x, _)| x.clone())
                .collect()
        }
        match self {
            Column::Int(v) => Column::Int(sel(v, keep)),
            Column::Float(v) => Column::Float(sel(v, keep)),
            Column::Bool(v) => Column::Bool(sel(v, keep)),
            Column::Date(v) => Column::Date(sel(v, keep)),
            Column::Oid(v) => Column::Oid(sel(v, keep)),
            Column::Str(v) => Column::Str(sel(v, keep)),
            Column::Values(v) => Column::Values(sel(v, keep)),
        }
    }
}

/// A batch of same-schema tuples stored column-wise. Columns are kept in
/// the tuples' canonical (name-sorted) attribute order, so materialized
/// rows are canonical without re-sorting.
///
/// The column list and every column are shared (`Arc`), so a clone is a
/// reference-count bump. A batch built by [`Batch::shared`] also keeps
/// the rows it was transposed from (its *origin*); equality looks at
/// the columns only, so such a batch equals the same rows built by
/// [`Batch::of`].
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    len: usize,
    cols: Arc<[(Name, Arc<Column>)]>,
    origin: Option<Origin>,
}

/// The shared set a scan chunk was cut from and the chunk's first row in
/// it: rows `start .. start + len` of `set` are the batch's rows.
#[derive(Clone)]
struct Origin {
    set: Set,
    start: usize,
}

impl fmt::Debug for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Origin")
            .field("start", &self.start)
            .field("of", &self.set.len())
            .finish()
    }
}

impl PartialEq for ColumnarBatch {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.cols == other.cols
    }
}

impl ColumnarBatch {
    /// A batch with no origin over `cols`.
    fn of_cols(len: usize, cols: Vec<(Name, Arc<Column>)>) -> ColumnarBatch {
        ColumnarBatch {
            len,
            cols: cols.into(),
            origin: None,
        }
    }

    /// Flattens `rows` into columns. Every row must be a tuple with the
    /// same attribute names; otherwise the rows are handed back so the
    /// caller can keep the row layout (`Batch::of` does exactly that).
    /// The empty batch has no schema and also stays row-shaped.
    #[allow(clippy::result_large_err)]
    pub fn try_new(rows: Vec<Value>) -> Result<ColumnarBatch, Vec<Value>> {
        ColumnarBatch::transpose(&rows).ok_or(rows)
    }

    /// The columns of `rows`, when they are a non-empty block of tuples
    /// with one schema.
    fn transpose(rows: &[Value]) -> Option<ColumnarBatch> {
        let Some(Value::Tuple(first)) = rows.first() else {
            return None;
        };
        let names = first.attr_names();
        let uniform = rows.iter().all(|r| match r {
            Value::Tuple(t) => {
                t.arity() == names.len() && t.iter().map(|(n, _)| n).eq(names.iter())
            }
            _ => false,
        });
        if !uniform {
            return None;
        }
        let len = rows.len();
        let mut cols: Vec<Column> = first
            .iter()
            .map(|(_, v)| Column::for_value(v, len))
            .collect();
        for row in rows {
            let Value::Tuple(t) = row else {
                unreachable!("uniformity checked above")
            };
            for (c, (_, v)) in cols.iter_mut().zip(t.iter()) {
                c.push(v.clone());
            }
        }
        Some(ColumnarBatch::of_cols(
            len,
            names
                .into_iter()
                .zip(cols.into_iter().map(Arc::new))
                .collect(),
        ))
    }

    /// The stored rows this batch was cut from, when it has an origin.
    fn origin_rows(&self) -> Option<&[Value]> {
        let o = self.origin.as_ref()?;
        Some(&o.set.as_slice()[o.start..o.start + self.len])
    }

    /// The set this batch was cut from by [`Batch::shared`] and the
    /// position of its first row in it; `None` for every other batch.
    pub fn origin(&self) -> Option<(&Set, usize)> {
        self.origin.as_ref().map(|o| (&o.set, o.start))
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared column for `name`, if the schema has it.
    fn shared_column(&self, name: &str) -> Option<&Arc<Column>> {
        self.cols
            .binary_search_by(|(n, _)| n.as_ref().cmp(name))
            .ok()
            .map(|i| &self.cols[i].1)
    }

    /// The column for `name`, if the schema has it.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.shared_column(name).map(|c| &**c)
    }

    /// Row `i` as a canonical tuple value: the stored tuple for a batch
    /// with an origin, materialized from the columns otherwise.
    pub fn row(&self, i: usize) -> Value {
        if let Some(rows) = self.origin_rows() {
            return rows[i].clone();
        }
        let fields = self
            .cols
            .iter()
            .map(|(n, c)| (n.clone(), c.value_at(i)))
            .collect();
        // columns are sorted and unique by construction
        Value::Tuple(Tuple::from_sorted_unchecked(fields))
    }

    /// Every row, in order (see [`ColumnarBatch::row`]).
    pub fn to_rows(&self) -> Vec<Value> {
        match self.origin_rows() {
            Some(rows) => rows.to_vec(),
            None => (0..self.len).map(|i| self.row(i)).collect(),
        }
    }

    /// The rows where `keep[i]` holds — the column-at-a-time filter.
    pub fn filter(&self, keep: &[bool]) -> ColumnarBatch {
        debug_assert_eq!(keep.len(), self.len);
        let len = keep.iter().filter(|k| **k).count();
        ColumnarBatch::of_cols(
            len,
            self.cols
                .iter()
                .map(|(n, c)| (n.clone(), Arc::new(c.filter(keep))))
                .collect(),
        )
    }

    /// Tuple subscription `π[attrs]` as a column selection. `None` when
    /// an attribute is missing or duplicated — the caller falls back to
    /// the row view, which reports the exact reference error.
    pub fn project(&self, attrs: &[Name]) -> Option<ColumnarBatch> {
        let mut cols: Vec<(Name, Arc<Column>)> = Vec::with_capacity(attrs.len());
        for a in attrs {
            cols.push((a.clone(), Arc::clone(self.shared_column(a)?)));
        }
        cols.sort_by(|a, b| a.0.cmp(&b.0));
        if cols.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some(ColumnarBatch::of_cols(self.len, cols))
    }

    /// Attribute renaming `ρ` as a column relabeling. `None` when an old
    /// name is missing or a rename collides — row-view fallback. The
    /// pairs apply **sequentially with a collision check after each
    /// one**, mirroring the row path (`Tuple::rename` per pair), so a
    /// chain like `[(a→b), (b→c)]` over a schema that already has `b`
    /// falls back and reports exactly the reference error instead of
    /// silently relabeling through the transient duplicate.
    pub fn rename(&self, pairs: &[(Name, Name)]) -> Option<ColumnarBatch> {
        let mut cols = self.cols.to_vec();
        for (old, new) in pairs {
            let i = cols.iter().position(|(n, _)| n == old)?;
            cols[i].0 = new.clone();
            let mut names: Vec<&Name> = cols.iter().map(|(n, _)| n).collect();
            names.sort();
            if names.windows(2).any(|w| w[0] == w[1]) {
                return None;
            }
        }
        cols.sort_by(|a, b| a.0.cmp(&b.0));
        Some(ColumnarBatch::of_cols(self.len, cols))
    }
}

/// One batch of rows flowing between streaming operators, in either
/// layout. Operators read it through the row view ([`Batch::row_at`] /
/// [`Batch::into_values`]) unless they have a column fast path.
#[derive(Debug, Clone, PartialEq)]
pub enum Batch {
    /// Legacy layout: boxed rows.
    Rows(Vec<Value>),
    /// Columnar layout (uniform tuple batches only).
    Columnar(ColumnarBatch),
}

impl Batch {
    /// Builds a batch in the layout `kind` asks for. Columnar mode falls
    /// back to rows when the batch is not a uniform block of tuples.
    pub fn of(kind: BatchKind, rows: Vec<Value>) -> Batch {
        match kind {
            BatchKind::Row => Batch::Rows(rows),
            BatchKind::Columnar => match ColumnarBatch::try_new(rows) {
                Ok(cb) => Batch::Columnar(cb),
                Err(rows) => Batch::Rows(rows),
            },
        }
    }

    /// A row-layout batch (scalar streams and layout-agnostic callers).
    pub fn from_rows(rows: Vec<Value>) -> Batch {
        Batch::Rows(rows)
    }

    /// Rows `rows` of the shared `set` in the layout `kind` asks for, as
    /// [`Batch::of`] lays them out. A columnar batch keeps `set` as its
    /// origin, so its row view hands out the stored tuples instead of
    /// materializing them from the columns. This is how scan chunks are
    /// cut, by the catalog and by the engine's buffered operators alike.
    pub fn shared(kind: BatchKind, set: &Set, rows: Range<usize>) -> Batch {
        let slice = &set.as_slice()[rows.clone()];
        if kind == BatchKind::Columnar {
            if let Some(mut cb) = ColumnarBatch::transpose(slice) {
                cb.origin = Some(Origin {
                    set: set.clone(),
                    start: rows.start,
                });
                return Batch::Columnar(cb);
            }
        }
        Batch::Rows(slice.to_vec())
    }

    /// Points the origin of a batch built by [`Batch::shared`] at `set`,
    /// which must hold the same rows at the same positions (a set merged
    /// from the origin that kept this batch's prefix). Other batches are
    /// left as they are.
    pub fn move_origin(&mut self, set: &Set) {
        if let Batch::Columnar(ColumnarBatch {
            len,
            origin: Some(o),
            ..
        }) = self
        {
            debug_assert_eq!(
                set.as_slice().get(o.start..o.start + *len),
                Some(&o.set.as_slice()[o.start..o.start + *len])
            );
            o.set = set.clone();
        }
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        match self {
            Batch::Rows(v) => v.len(),
            Batch::Columnar(cb) => cb.len(),
        }
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column for `name`, when the batch is columnar and has it.
    pub fn column(&self, name: &str) -> Option<&Column> {
        match self {
            Batch::Rows(_) => None,
            Batch::Columnar(cb) => cb.column(name),
        }
    }

    /// Row `i`: borrowed from a row batch or a columnar batch's origin,
    /// materialized from columns otherwise.
    pub fn row_at(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Batch::Rows(v) => Cow::Borrowed(&v[i]),
            Batch::Columnar(cb) => match cb.origin_rows() {
                Some(rows) => Cow::Borrowed(&rows[i]),
                None => Cow::Owned(cb.row(i)),
            },
        }
    }

    /// Every row, in order: borrowed from a row batch or a columnar
    /// batch's origin, materialized from the columns otherwise.
    pub fn rows(&self) -> Cow<'_, [Value]> {
        match self {
            Batch::Rows(v) => Cow::Borrowed(v),
            Batch::Columnar(cb) => match cb.origin_rows() {
                Some(rows) => Cow::Borrowed(rows),
                None => Cow::Owned(cb.to_rows()),
            },
        }
    }

    /// Every row, in order, consuming the batch.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Batch::Rows(v) => v,
            Batch::Columnar(cb) => cb.to_rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec, name, Set};

    fn row(i: i64) -> Value {
        Value::tuple([
            ("id", Value::Oid(Oid(100 + i as u64))),
            ("n", Value::Int(i)),
            ("name", Value::str(if i % 2 == 0 { "even" } else { "odd" })),
            (
                "refs",
                Value::set((0..(i % 3)).map(|k| Value::Oid(Oid(k as u64)))),
            ),
        ])
    }

    #[test]
    fn columnar_roundtrips_rows_in_order() {
        let rows: Vec<Value> = (0..40).map(row).collect();
        let b = Batch::of(BatchKind::Columnar, rows.clone());
        let Batch::Columnar(cb) = &b else {
            panic!("uniform tuples must go columnar")
        };
        assert_eq!(cb.len(), 40);
        // unboxed primitive columns, a string column, a value column
        // for the nested sets
        assert!(matches!(cb.column("n"), Some(Column::Int(_))));
        assert!(matches!(cb.column("id"), Some(Column::Oid(_))));
        assert!(matches!(cb.column("name"), Some(Column::Str(v)) if v.len() == 40));
        assert!(matches!(cb.column("refs"), Some(Column::Values(v)) if v.len() == 40));
        assert_eq!(b.clone().into_values(), rows);
        for (i, want) in rows.iter().enumerate() {
            assert_eq!(b.row_at(i).as_ref(), want);
        }
    }

    #[test]
    fn non_uniform_batches_stay_rows() {
        // scalar stream
        let b = Batch::of(BatchKind::Columnar, vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(b, Batch::Rows(_)));
        // mixed schemas
        let b = Batch::of(
            BatchKind::Columnar,
            vec![
                Value::tuple([("a", Value::Int(1))]),
                Value::tuple([("b", Value::Int(2))]),
            ],
        );
        assert!(matches!(b, Batch::Rows(_)));
        // empty batches have no schema
        assert!(matches!(
            Batch::of(BatchKind::Columnar, vec![]),
            Batch::Rows(_)
        ));
        // row mode never converts
        let b = Batch::of(BatchKind::Row, (0..4).map(row).collect());
        assert!(matches!(b, Batch::Rows(_)));
    }

    #[test]
    fn mixed_kind_column_upgrades_to_pool() {
        let rows = vec![
            Value::tuple([("a", Value::Int(1))]),
            Value::tuple([("a", Value::str("two"))]),
            Value::tuple([("a", Value::Int(1))]),
        ];
        let b = Batch::of(BatchKind::Columnar, rows.clone());
        let Batch::Columnar(cb) = &b else {
            panic!("uniform schema must go columnar")
        };
        // the Int column becomes a value column at the first string
        assert_eq!(
            cb.column("a"),
            Some(&Column::Values(vec![
                Value::Int(1),
                Value::str("two"),
                Value::Int(1)
            ]))
        );
        assert_eq!(b.clone().into_values(), rows);
    }

    #[test]
    fn filter_project_rename_match_row_semantics() {
        let rows: Vec<Value> = (0..20).map(row).collect();
        let Batch::Columnar(cb) = Batch::of(BatchKind::Columnar, rows.clone()) else {
            panic!("columnar")
        };
        // filter
        let keep: Vec<bool> = (0..20).map(|i| i % 3 == 0).collect();
        let filtered = cb.filter(&keep);
        let want: Vec<Value> = rows
            .iter()
            .zip(&keep)
            .filter(|(_, k)| **k)
            .map(|(r, _)| r.clone())
            .collect();
        assert_eq!(filtered.to_rows(), want);
        // every column keeps its kind through the filter
        for (n, c) in filtered.cols.iter() {
            assert_eq!(
                std::mem::discriminant(&**c),
                std::mem::discriminant(cb.column(n).unwrap()),
                "{n}"
            );
            assert_eq!(c.len(), 7, "{n}");
        }
        // project
        let p = cb.project(&[name("n"), name("id")]).unwrap();
        let want: Vec<Value> = rows
            .iter()
            .map(|r| {
                Value::Tuple(
                    r.as_tuple()
                        .unwrap()
                        .subscript(&[name("n"), name("id")])
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(p.to_rows(), want);
        assert!(cb.project(&[name("missing")]).is_none());
        assert!(cb.project(&[name("n"), name("n")]).is_none());
        // rename
        let r = cb.rename(&[(name("n"), name("zz"))]).unwrap();
        let want: Vec<Value> = rows
            .iter()
            .map(|v| Value::Tuple(v.as_tuple().unwrap().rename("n", &name("zz")).unwrap()))
            .collect();
        assert_eq!(r.to_rows(), want);
        assert!(cb.rename(&[(name("missing"), name("zz"))]).is_none());
        assert!(cb.rename(&[(name("n"), name("id"))]).is_none(), "collision");
        // a chain through a transient duplicate must fall back too — the
        // row path errors on the *first* colliding pair, and relabeling
        // through the duplicate would silently swap columns
        assert!(
            cb.rename(&[(name("n"), name("id")), (name("id"), name("x"))])
                .is_none(),
            "transient collision"
        );
        // a collision-free chain (including reusing a freed name) is fine
        let chained = cb
            .rename(&[(name("n"), name("tmp")), (name("tmp"), name("n"))])
            .unwrap();
        assert_eq!(chained.to_rows(), rows);
    }

    #[test]
    fn float_columns_keep_canonical_nan_and_zero() {
        let rows = vec![
            Value::tuple([("f", Value::float(f64::NAN))]),
            Value::tuple([("f", Value::float(-0.0))]),
            Value::tuple([("f", Value::float(1.5))]),
        ];
        let Batch::Columnar(cb) = Batch::of(BatchKind::Columnar, rows.clone()) else {
            panic!("columnar")
        };
        assert_eq!(cb.to_rows(), rows);
    }

    #[test]
    fn null_padding_lands_in_the_pool() {
        // outer-join padded rows carry Null — must round-trip
        let rows = vec![
            Value::tuple([("a", Value::Int(1)), ("pad", Value::Null)]),
            Value::tuple([("a", Value::Int(2)), ("pad", Value::str("y"))]),
        ];
        let b = Batch::of(BatchKind::Columnar, rows.clone());
        assert_eq!(
            b.column("pad"),
            Some(&Column::Values(vec![Value::Null, Value::str("y")]))
        );
        assert_eq!(b.into_values(), rows);
        let _ = Set::from_values(rows); // still canonicalizable downstream
    }

    /// A columnar batch cut from a shared set, with its origin.
    fn shared(rows: &[Value], start: usize, end: usize) -> (Set, Batch) {
        let set = Set::from_values(rows.to_vec());
        let b = Batch::shared(BatchKind::Columnar, &set, start..end);
        assert!(matches!(&b, Batch::Columnar(cb) if cb.origin().is_some()));
        (set, b)
    }

    #[test]
    fn clone_shares_column_storage() {
        let Batch::Columnar(cb) = Batch::of(BatchKind::Columnar, (0..8).map(row).collect()) else {
            panic!("columnar")
        };
        let copy = cb.clone();
        assert!(Arc::ptr_eq(&cb.cols, &copy.cols));
        // projection and renaming share the columns too
        let p = cb.project(&[name("n"), name("refs")]).unwrap();
        let r = cb.rename(&[(name("n"), name("zz"))]).unwrap();
        for (out, attr, from) in [(&p, "n", "n"), (&p, "refs", "refs"), (&r, "zz", "n")] {
            assert!(Arc::ptr_eq(
                out.shared_column(attr).unwrap(),
                cb.shared_column(from).unwrap()
            ));
        }
    }

    #[test]
    fn a_shared_chunk_hands_out_the_stored_tuples() {
        let rows: Vec<Value> = (0..20).map(row).collect();
        let (set, b) = shared(&rows, 4, 12);
        let stored = &set.as_slice()[4..12];
        // one tuple storage: the first fields sit at the same address
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Tuple(x), Value::Tuple(y)) => {
                std::ptr::eq(x.iter().next().unwrap().1, y.iter().next().unwrap().1)
            }
            _ => false,
        };
        let Batch::Columnar(cb) = &b else {
            unreachable!("checked by `shared`")
        };
        for (i, want) in stored.iter().enumerate() {
            let Cow::Borrowed(got) = b.row_at(i) else {
                panic!("row {i} was materialized")
            };
            assert!(std::ptr::eq(got, want));
            assert!(same(&cb.row(i), want));
        }
        let values = b.into_values();
        assert_eq!(values.len(), stored.len());
        assert!(values.iter().zip(stored).all(|(a, b)| same(a, b)));
    }

    #[test]
    fn the_origin_is_invisible_to_equality_and_the_codec() {
        let rows: Vec<Value> = (0..20).map(row).collect();
        let (set, b) = shared(&rows, 3, 17);
        let plain = Batch::of(BatchKind::Columnar, set.as_slice()[3..17].to_vec());
        assert_eq!(b, plain);
        let (Batch::Columnar(cb), Batch::Columnar(pb)) = (&b, &plain) else {
            panic!("columnar")
        };
        assert!(pb.origin().is_none());
        // both encode as the same row block
        let (mut x, mut y) = (Vec::new(), Vec::new());
        codec::encode_rows(&cb.to_rows(), &mut x);
        codec::encode_rows(&pb.to_rows(), &mut y);
        assert_eq!(x, y);
        // the row layout of a shared cut is a plain slice copy
        assert_eq!(
            Batch::shared(BatchKind::Row, &set, 3..17),
            Batch::of(BatchKind::Row, set.as_slice()[3..17].to_vec())
        );
    }

    #[test]
    fn derived_batches_drop_the_origin() {
        let rows: Vec<Value> = (0..20).map(row).collect();
        let (_, b) = shared(&rows, 0, 20);
        let Batch::Columnar(cb) = b else {
            panic!("columnar")
        };
        let keep: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let all: Vec<Name> = cb.cols.iter().map(|(n, _)| n.clone()).collect();
        let derived = [
            cb.filter(&keep),
            cb.project(&[name("n")]).unwrap(),
            cb.rename(&[(name("n"), name("zz"))]).unwrap(),
            cb.project(&all).unwrap(),
        ];
        for d in &derived {
            assert!(d.origin().is_none(), "{d:?}");
        }
        // with no origin the rows come from the columns, unchanged
        assert_eq!(derived[3].to_rows(), cb.to_rows());
        assert_eq!(derived[0].to_rows().len(), 10);
    }

    #[test]
    fn batch_kind_default_is_columnar() {
        assert_eq!(BatchKind::default(), BatchKind::Columnar);
    }
}
