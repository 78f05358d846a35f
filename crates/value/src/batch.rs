//! Batches: what the streaming pipeline ships between operators, either
//! a row batch or a view of a stored chunk.
//!
//! The paper stores each object as one clustered tuple, so the stored
//! tuple is the data and a column is a derived index over it. Columns
//! therefore exist only next to the stored rows they index: in the scan
//! chunks a table snapshot caches.
//!
//! * [`Batch`] — what operators exchange: a row batch (`Vec<Value>`) or
//!   a [`ColumnarBatch`].
//! * [`ColumnarBatch`] — a view of one scan chunk: the snapshot [`Set`]
//!   the chunk was cut from and the chunk's first row in it (its
//!   *origin*), the chunk's shared columns, and an optional *selection*
//!   of chunk-relative row indices. [`Batch::scan_chunk`], which the
//!   catalog calls to fill its chunk cache, is the only constructor. A
//!   filter narrows the selection ([`ColumnarBatch::filter`]): no column
//!   is copied and the origin is kept.
//! * [`Column`] — one attribute's values across a chunk. Primitive kinds
//!   are unboxed; [`Column::Str`] holds one shared string per row;
//!   [`Column::Values`] holds everything else (nested values, `Null`
//!   padding, mixed kinds). Readers see a column through the batch's
//!   selection, as a [`ColumnView`].
//! * Row view: [`Batch::row_at`], [`Batch::rows`] and
//!   [`Batch::into_values`] hand out a chunk's stored tuples through its
//!   selection, as borrows or `Arc` clones. No row is ever rebuilt from
//!   columns, and no row batch is ever transposed into columns.
//!
//! Batches have no byte encoding of their own: spill files and the wire
//! protocol write a batch's rows with the row codec
//! ([`crate::codec::encode_rows`]), whatever its layout.

use crate::{Name, Oid, Set, Value, F64};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Rows per batch. Batches are soft-bounded: operators that expand rows
/// (unnest, inner joins) may exceed it rather than split mid-tuple-group.
/// Base-extent scan chunks are cut at exactly these boundaries, by the
/// catalog that caches them and the engine that streams them alike.
pub const BATCH_SIZE: usize = 1024;

/// Whether a scan chunk carries columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchKind {
    /// Scan chunks are row batches.
    Row,
    /// Scan chunks of uniform tuples (the default) are [`ColumnarBatch`]es,
    /// so the column fast paths can read them; everything else is a row
    /// batch.
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

/// One attribute's values across a chunk, unboxed where the kind allows.
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
}

/// A chunk's column read through a batch's selection: row `i` of the
/// view is the chunk row the selection's `i`-th entry names.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    col: &'a Column,
    sel: Option<&'a [u32]>,
}

impl<'a> ColumnView<'a> {
    /// The whole chunk's column, every row, whatever the selection.
    pub fn chunk(self) -> &'a Column {
        self.col
    }

    /// Row `i` of the view's value (see [`Column::value_at`]).
    pub fn value_at(self, i: usize) -> Value {
        self.col.value_at(self.sel.map_or(i, |sel| sel[i] as usize))
    }
}

/// A view of one scan chunk: rows `start .. start + chunk_len` of the
/// snapshot `set` (its origin), their columns in the tuples' canonical
/// (name-sorted) attribute order, and the selected chunk rows.
///
/// The columns sit behind one `Arc`, so a clone or a filter shares them.
/// Equality compares the views: two batches holding the same rows in
/// the same order, with the same columns read through their selections,
/// are equal wherever they were cut from.
#[derive(Clone)]
pub struct ColumnarBatch {
    set: Set,
    start: usize,
    chunk_len: usize,
    cols: Arc<[(Name, Column)]>,
    /// The chunk rows the view holds, ascending; `None` for all of them.
    sel: Option<Arc<[u32]>>,
}

impl fmt::Debug for ColumnarBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnarBatch")
            .field("start", &self.start)
            .field("of", &self.set.len())
            .field("chunk_len", &self.chunk_len)
            .field("sel", &self.sel)
            .finish()
    }
}

impl PartialEq for ColumnarBatch {
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows()
            && self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(other.cols.iter())
                .all(|((n, a), (m, b))| {
                    let (a, b) = (self.view(a), other.view(b));
                    n == m && (0..self.len()).all(|i| a.value_at(i) == b.value_at(i))
                })
    }
}

impl ColumnarBatch {
    /// Rows `rows` of `set` with their columns, when they are a non-empty
    /// block of tuples with one schema.
    fn cut(set: &Set, rows: Range<usize>) -> Option<ColumnarBatch> {
        let slice = &set.as_slice()[rows.clone()];
        let Some(Value::Tuple(first)) = slice.first() else {
            return None;
        };
        let names = first.attr_names();
        let uniform = slice.iter().all(|r| match r {
            Value::Tuple(t) => {
                t.arity() == names.len() && t.iter().map(|(n, _)| n).eq(names.iter())
            }
            _ => false,
        });
        if !uniform {
            return None;
        }
        let mut cols: Vec<Column> = first
            .iter()
            .map(|(_, v)| Column::for_value(v, slice.len()))
            .collect();
        for row in slice {
            let Value::Tuple(t) = row else {
                unreachable!("uniformity checked above")
            };
            for (c, (_, v)) in cols.iter_mut().zip(t.iter()) {
                c.push(v.clone());
            }
        }
        Some(ColumnarBatch {
            set: set.clone(),
            start: rows.start,
            chunk_len: slice.len(),
            cols: names.into_iter().zip(cols).collect(),
            sel: None,
        })
    }

    /// The snapshot this chunk was cut from and the position of its
    /// first row in it.
    pub fn origin(&self) -> (&Set, usize) {
        (&self.set, self.start)
    }

    /// Rows in the view.
    pub fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.chunk_len, |sel| sel.len())
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows in the chunk, and so in each of its columns.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// The chunk row that row `i` of the view is.
    fn chunk_row(&self, i: usize) -> usize {
        self.sel.as_ref().map_or(i, |sel| sel[i] as usize)
    }

    /// The chunk rows the view holds, in order: row `i` of the view is
    /// the `i`-th of them.
    pub fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|i| self.chunk_row(i))
    }

    /// `col`, one of this chunk's columns, read through the selection.
    fn view<'a>(&'a self, col: &'a Column) -> ColumnView<'a> {
        ColumnView {
            col,
            sel: self.sel.as_deref(),
        }
    }

    /// The column for `name`, read through the selection, if the schema
    /// has it.
    pub fn column(&self, name: &str) -> Option<ColumnView<'_>> {
        let i = self
            .cols
            .binary_search_by(|(n, _)| n.as_ref().cmp(name))
            .ok()?;
        Some(self.view(&self.cols[i].1))
    }

    /// The chunk's stored rows, every one of them.
    fn chunk_rows(&self) -> &[Value] {
        &self.set.as_slice()[self.start..self.start + self.chunk_len]
    }

    /// Row `i` of the view: the stored tuple.
    pub fn row_at(&self, i: usize) -> &Value {
        &self.chunk_rows()[self.chunk_row(i)]
    }

    /// Every row of the view, in order: the stored tuples, borrowed when
    /// nothing is deselected and reference-count bumps otherwise.
    pub fn rows(&self) -> Cow<'_, [Value]> {
        let rows = self.chunk_rows();
        match &self.sel {
            None => Cow::Borrowed(rows),
            Some(sel) => Cow::Owned(sel.iter().map(|&j| rows[j as usize].clone()).collect()),
        }
    }

    /// The view's rows where `keep[i]` holds: the selection narrowed,
    /// the columns and the origin shared.
    pub fn filter(&self, keep: &[bool]) -> ColumnarBatch {
        debug_assert_eq!(keep.len(), self.len());
        if keep.iter().all(|&k| k) {
            return self.clone();
        }
        let sel = self
            .selected()
            .zip(keep)
            .filter_map(|(j, k)| k.then_some(j as u32))
            .collect();
        ColumnarBatch {
            sel: Some(sel),
            ..self.clone()
        }
    }
}

/// One batch of rows flowing between streaming operators. Operators read
/// it through the row view ([`Batch::row_at`] / [`Batch::into_values`])
/// unless they have a column fast path.
#[derive(Debug, Clone, PartialEq)]
pub enum Batch {
    /// Rows.
    Rows(Vec<Value>),
    /// A view of a scan chunk (uniform tuple chunks only).
    Columnar(ColumnarBatch),
}

impl Batch {
    /// A row batch.
    pub fn from_rows(rows: Vec<Value>) -> Batch {
        Batch::Rows(rows)
    }

    /// Scan chunk `rows` of the snapshot `set`: a [`ColumnarBatch`] over
    /// it under [`BatchKind::Columnar`] when the rows are a uniform block
    /// of tuples, a row batch of the slice otherwise. The catalog's chunk
    /// cache (`Table::chunk`) is the caller; nothing else builds columns.
    pub fn scan_chunk(kind: BatchKind, set: &Set, rows: Range<usize>) -> Batch {
        if kind == BatchKind::Columnar {
            if let Some(cb) = ColumnarBatch::cut(set, rows.clone()) {
                return Batch::Columnar(cb);
            }
        }
        Batch::Rows(set.as_slice()[rows].to_vec())
    }

    /// Points the origin of a columnar chunk at `set`, which must hold
    /// the same rows at the same positions (a set merged from the origin
    /// that kept this chunk's prefix). A row batch is left as it is.
    pub fn move_origin(&mut self, set: &Set) {
        if let Batch::Columnar(cb) = self {
            debug_assert_eq!(
                set.as_slice().get(cb.start..cb.start + cb.chunk_len),
                Some(cb.chunk_rows())
            );
            cb.set = set.clone();
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

    /// The column for `name`, read through the selection, when the batch
    /// is a chunk view and has it.
    pub fn column(&self, name: &str) -> Option<ColumnView<'_>> {
        match self {
            Batch::Rows(_) => None,
            Batch::Columnar(cb) => cb.column(name),
        }
    }

    /// Row `i`, borrowed: a row batch's row or a chunk's stored tuple.
    pub fn row_at(&self, i: usize) -> &Value {
        match self {
            Batch::Rows(v) => &v[i],
            Batch::Columnar(cb) => cb.row_at(i),
        }
    }

    /// Every row, in order (see [`ColumnarBatch::rows`]).
    pub fn rows(&self) -> Cow<'_, [Value]> {
        match self {
            Batch::Rows(v) => Cow::Borrowed(v),
            Batch::Columnar(cb) => cb.rows(),
        }
    }

    /// Every row, in order, consuming the batch.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Batch::Rows(v) => v,
            Batch::Columnar(cb) => cb.rows().into_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;

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

    /// The snapshot of `rows` and its columnar scan chunk `range`.
    fn chunk(rows: Vec<Value>, range: Range<usize>) -> (Set, ColumnarBatch) {
        let set = Set::from_values(rows);
        let Batch::Columnar(cb) = Batch::scan_chunk(BatchKind::Columnar, &set, range) else {
            panic!("uniform tuples must get columns")
        };
        (set, cb)
    }

    /// One tuple storage: the first fields sit at the same address.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Tuple(x), Value::Tuple(y)) => {
                std::ptr::eq(x.iter().next().unwrap().1, y.iter().next().unwrap().1)
            }
            _ => false,
        }
    }

    /// Every column of `cb`, read through its selection, holds the
    /// fields of the batch's rows.
    fn assert_columns_match_rows(cb: &ColumnarBatch) {
        for (i, r) in cb.rows().iter().enumerate() {
            for (n, v) in r.as_tuple().unwrap().iter() {
                assert_eq!(&cb.column(n).unwrap().value_at(i), v, "row {i}, {n}");
            }
        }
    }

    #[test]
    fn columnar_roundtrips_rows_in_order() {
        let (set, cb) = chunk((0..40).map(row).collect(), 0..40);
        assert_eq!(cb.len(), 40);
        // unboxed primitive columns, a string column, a value column
        // for the nested sets
        let kind = |n: &str| cb.column(n).unwrap().chunk();
        assert!(matches!(kind("n"), Column::Int(_)));
        assert!(matches!(kind("id"), Column::Oid(_)));
        assert!(matches!(kind("name"), Column::Str(v) if v.len() == 40));
        assert!(matches!(kind("refs"), Column::Values(v) if v.len() == 40));
        assert_columns_match_rows(&cb);
        let b = Batch::Columnar(cb);
        for (i, want) in set.as_slice().iter().enumerate() {
            assert_eq!(b.row_at(i), want);
        }
        assert_eq!(b.into_values(), set.as_slice());
    }

    #[test]
    fn non_uniform_batches_stay_rows() {
        let cut = |rows: Vec<Value>, kind| {
            let set = Set::from_values(rows);
            Batch::scan_chunk(kind, &set, 0..set.len())
        };
        // scalar stream
        let b = cut(vec![Value::Int(1), Value::Int(2)], BatchKind::Columnar);
        assert!(matches!(b, Batch::Rows(_)));
        // mixed schemas
        let b = cut(
            vec![
                Value::tuple([("a", Value::Int(1))]),
                Value::tuple([("b", Value::Int(2))]),
            ],
            BatchKind::Columnar,
        );
        assert!(matches!(b, Batch::Rows(_)));
        // empty chunks have no schema
        assert!(matches!(cut(vec![], BatchKind::Columnar), Batch::Rows(_)));
        // row mode never builds columns
        let b = cut((0..4).map(row).collect(), BatchKind::Row);
        assert!(matches!(b, Batch::Rows(_)));
    }

    #[test]
    fn mixed_kind_column_upgrades_to_pool() {
        let (set, cb) = chunk(
            vec![
                Value::tuple([("a", Value::Int(1))]),
                Value::tuple([("a", Value::str("two"))]),
                Value::tuple([("a", Value::Int(3))]),
            ],
            0..3,
        );
        // the column starts with the first row's kind and becomes a
        // value column at the first row of another
        let want: Vec<Value> = set
            .iter()
            .map(|r| r.as_tuple().unwrap().get("a").unwrap().clone())
            .collect();
        assert_eq!(cb.column("a").unwrap().chunk(), &Column::Values(want));
        assert_eq!(Batch::Columnar(cb).into_values(), set.as_slice());
    }

    #[test]
    fn float_columns_keep_canonical_nan_and_zero() {
        let (set, cb) = chunk(
            vec![
                Value::tuple([("f", Value::float(f64::NAN))]),
                Value::tuple([("f", Value::float(-0.0))]),
                Value::tuple([("f", Value::float(1.5))]),
            ],
            0..3,
        );
        assert!(matches!(cb.column("f").unwrap().chunk(), Column::Float(_)));
        assert_columns_match_rows(&cb);
        assert_eq!(cb.rows(), set.as_slice());
    }

    #[test]
    fn null_padding_lands_in_the_pool() {
        // outer-join padded rows carry Null
        let (set, cb) = chunk(
            vec![
                Value::tuple([("a", Value::Int(1)), ("pad", Value::Null)]),
                Value::tuple([("a", Value::Int(2)), ("pad", Value::str("y"))]),
            ],
            0..2,
        );
        let want: Vec<Value> = set
            .iter()
            .map(|r| r.as_tuple().unwrap().get("pad").unwrap().clone())
            .collect();
        assert_eq!(cb.column("pad").unwrap().chunk(), &Column::Values(want));
        assert_columns_match_rows(&cb);
    }

    #[test]
    fn clone_shares_column_storage() {
        let (_, cb) = chunk((0..8).map(row).collect(), 0..8);
        let copy = cb.clone();
        assert!(Arc::ptr_eq(&cb.cols, &copy.cols));
        // a filter shares the columns too
        let keep: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        assert!(Arc::ptr_eq(&cb.cols, &cb.filter(&keep).cols));
    }

    #[test]
    fn a_shared_chunk_hands_out_the_stored_tuples() {
        let (set, cb) = chunk((0..20).map(row).collect(), 4..12);
        let stored = &set.as_slice()[4..12];
        let b = Batch::Columnar(cb);
        for (i, want) in stored.iter().enumerate() {
            assert!(std::ptr::eq(b.row_at(i), want));
        }
        assert!(matches!(b.rows(), Cow::Borrowed(_)));
        let values = b.into_values();
        assert_eq!(values.len(), stored.len());
        assert!(values.iter().zip(stored).all(|(a, b)| same(a, b)));
    }

    #[test]
    fn the_origin_is_invisible_to_equality_and_the_codec() {
        let rows: Vec<Value> = (0..20).map(row).collect();
        let (set, cb) = chunk(rows, 3..17);
        // the same rows cut from another snapshot, at another offset
        let (other, ob) = chunk(set.as_slice()[3..17].to_vec(), 0..14);
        assert_eq!(cb.origin().1, 3);
        assert_eq!(ob.origin().1, 0);
        assert!(!std::ptr::eq(cb.origin().0.as_slice(), other.as_slice()));
        assert_eq!(cb, ob);
        // both encode as the same row block
        let (mut x, mut y) = (Vec::new(), Vec::new());
        codec::encode_rows(&cb.rows(), &mut x);
        codec::encode_rows(&ob.rows(), &mut y);
        assert_eq!(x, y);
        // the row layout of a chunk is a plain slice copy
        assert_eq!(
            Batch::scan_chunk(BatchKind::Row, &set, 3..17),
            Batch::Rows(set.as_slice()[3..17].to_vec())
        );
    }

    /// A filter narrows the selection: the view keeps the origin and the
    /// columns, and its row view is the stored tuples it kept. Stacked
    /// filters narrow in chunk terms.
    #[test]
    fn a_filtered_chunk_hands_out_the_stored_tuples() {
        let (set, cb) = chunk((0..40).map(row).collect(), 8..40);
        let stored = &set.as_slice()[8..40];
        let keep: Vec<bool> = (0..32).map(|i| i % 3 != 0).collect();
        let once = cb.filter(&keep);
        let keep: Vec<bool> = (0..once.len()).map(|i| i % 2 == 0).collect();
        let twice = once.filter(&keep);
        let kept: Vec<usize> = (0..32).filter(|i| i % 3 != 0).step_by(2).collect();
        assert_eq!(twice.selected().collect::<Vec<_>>(), kept);
        assert_eq!(twice.len(), kept.len());
        assert!(std::ptr::eq(twice.origin().0.as_slice(), set.as_slice()));
        assert_eq!(twice.origin().1, 8);
        assert_columns_match_rows(&twice);
        let b = Batch::Columnar(twice);
        for (i, &j) in kept.iter().enumerate() {
            assert!(std::ptr::eq(b.row_at(i), &stored[j]), "row {i}");
        }
        for (got, &j) in b.rows().iter().zip(&kept) {
            assert!(same(got, &stored[j]));
        }
        let values = b.into_values();
        assert_eq!(values.len(), kept.len());
        assert!(values.iter().zip(&kept).all(|(v, &j)| same(v, &stored[j])));
        // a filter that keeps every row is the view it filtered
        let all = cb.filter(&vec![true; cb.len()]);
        assert!(all.sel.is_none());
        assert!(matches!(all.rows(), Cow::Borrowed(_)));
    }

    /// A filtered chunk's row block is the codec's block of the stored
    /// rows it kept, so a CHUNK frame of it carries exactly those.
    #[test]
    fn a_filtered_chunk_encodes_its_kept_stored_rows() {
        let (set, cb) = chunk((0..30).map(row).collect(), 10..30);
        let keep: Vec<bool> = (0..20).map(|i| i % 4 == 1).collect();
        let filtered = Batch::Columnar(cb.filter(&keep));
        let kept: Vec<Value> = set.as_slice()[10..30]
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(r, _)| r.clone())
            .collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        codec::encode_rows(&filtered.rows(), &mut got);
        codec::encode_rows(&kept, &mut want);
        assert_eq!(got, want);
        assert_eq!(codec::decode_rows(&got).unwrap(), kept);
    }

    #[test]
    fn batch_kind_default_is_columnar() {
        assert_eq!(BatchKind::default(), BatchKind::Columnar);
    }
}
