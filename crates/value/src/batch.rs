//! Columnar batches: the cache-friendly row-block representation the
//! streaming pipeline ships between operators.
//!
//! The paper's whole argument is set-oriented evaluation, but a batch of
//! boxed [`Value`]s still chases a heap pointer per attribute access.
//! This module flattens a batch of same-schema tuples into **columns of
//! unboxed primitives** — `i64`/`f64`/`bool`/oid vectors, dictionary-
//! interned strings — with nested `Set`/`Tuple` values dictionary-
//! interned into a per-batch pool, in the spirit of query shredding
//! (Cheney, Lindley & Wadler): nested collections flatten into efficient
//! flat representations while the algebra on top is unchanged.
//!
//! * [`Batch`] — what operators exchange: either a legacy row batch
//!   (`Vec<Value>`) or a [`ColumnarBatch`]. [`Batch::of`] builds the
//!   layout a [`BatchKind`] asks for, falling back to rows whenever the
//!   batch is not a uniform block of tuples (scalar streams, mixed
//!   schemas), so columnar mode is always total.
//! * [`Column`] — one attribute's values. Primitive kinds are unboxed;
//!   [`Column::Str`] and [`Column::Interned`] store `u32` dictionary ids
//!   next to a per-batch pool, so equal nested values are stored once.
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
//! * Wire codec: [`ColumnarBatch::encode_into`] / [`ColumnarBatch::decode`]
//!   serialize whole column blocks (length-prefixed per column) instead
//!   of row-by-row values — the wire protocol's columnar CHUNK format.
//!
//! Row order is preserved exactly in every conversion, so the two
//! layouts are observationally equivalent (the row/columnar differential
//! tests depend on this).

use crate::fxhash::FxHashMap;
use crate::{codec, Name, Oid, Set, Tuple, Value, ValueError, F64};
use std::borrow::Cow;
use std::collections::HashMap;
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
    /// `Value::Str` values, dictionary-interned: `ids[i]` indexes `dict`.
    Str {
        /// Per-row dictionary ids.
        ids: Vec<u32>,
        /// Distinct strings, in first-appearance order.
        dict: Vec<Name>,
    },
    /// Everything else — nested `Set`/`Tuple` values, `Null` padding,
    /// mixed-kind columns — dictionary-interned into a per-batch pool.
    Interned {
        /// Per-row dictionary ids.
        ids: Vec<u32>,
        /// Distinct values, in first-appearance order.
        dict: Vec<Value>,
    },
}

impl Column {
    /// Rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) | Column::Date(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Oid(v) => v.len(),
            Column::Str { ids, .. } | Column::Interned { ids, .. } => ids.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes row `i`'s value. Cheap for primitive kinds (a copy);
    /// a clone of the pooled value for interned kinds.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Date(v) => Value::Date(v[i]),
            Column::Oid(v) => Value::Oid(Oid(v[i])),
            Column::Str { ids, dict } => Value::Str(dict[ids[i] as usize].clone()),
            Column::Interned { ids, dict } => dict[ids[i] as usize].clone(),
        }
    }

    /// The rows where `keep[i]` holds, preserving order. Interned kinds
    /// re-map their dictionary to the entries surviving rows actually
    /// reference — a selective filter must not deep-clone pooled nested
    /// values no output row can reach.
    fn filter(&self, keep: &[bool]) -> Column {
        fn sel<T: Copy>(v: &[T], keep: &[bool]) -> Vec<T> {
            v.iter()
                .zip(keep)
                .filter(|(_, k)| **k)
                .map(|(x, _)| *x)
                .collect()
        }
        /// Selects surviving ids and clones only the referenced
        /// dictionary entries, renumbered in first-reference order.
        fn sel_dict<T: Clone>(ids: &[u32], keep: &[bool], dict: &[T]) -> (Vec<u32>, Vec<T>) {
            let mut remap: Vec<u32> = vec![u32::MAX; dict.len()];
            let mut new_dict = Vec::new();
            let mut new_ids = Vec::new();
            for (id, k) in ids.iter().zip(keep) {
                if !*k {
                    continue;
                }
                let slot = &mut remap[*id as usize];
                if *slot == u32::MAX {
                    *slot = new_dict.len() as u32;
                    new_dict.push(dict[*id as usize].clone());
                }
                new_ids.push(*slot);
            }
            (new_ids, new_dict)
        }
        match self {
            Column::Int(v) => Column::Int(sel(v, keep)),
            Column::Float(v) => Column::Float(sel(v, keep)),
            Column::Bool(v) => Column::Bool(sel(v, keep)),
            Column::Date(v) => Column::Date(sel(v, keep)),
            Column::Oid(v) => Column::Oid(sel(v, keep)),
            Column::Str { ids, dict } => {
                let (ids, dict) = sel_dict(ids, keep, dict);
                Column::Str { ids, dict }
            }
            Column::Interned { ids, dict } => {
                let (ids, dict) = sel_dict(ids, keep, dict);
                Column::Interned { ids, dict }
            }
        }
    }
}

/// Accumulates one column, upgrading to the interned pool on the first
/// value that does not fit the kind the column started with.
enum ColumnBuilder {
    Int(Vec<i64>),
    Float(Vec<F64>),
    Bool(Vec<bool>),
    Date(Vec<i64>),
    Oid(Vec<u64>),
    /// `map` is the only store while building (no value is held twice);
    /// [`ColumnBuilder::finish`] rebuilds the id-ordered dictionary.
    /// Strings keep the std hasher: FxHash leaves the low bits of short,
    /// similar strings (`part-0` … `part-1023`) clustered, and hashbrown
    /// picks buckets by those bits. Nested values, hashed whole, take
    /// FxHash.
    Str {
        ids: Vec<u32>,
        map: HashMap<Name, u32>,
    },
    Interned {
        ids: Vec<u32>,
        map: FxHashMap<Value, u32>,
    },
}

impl ColumnBuilder {
    fn for_value(v: &Value, capacity: usize) -> ColumnBuilder {
        match v {
            Value::Int(_) => ColumnBuilder::Int(Vec::with_capacity(capacity)),
            Value::Float(_) => ColumnBuilder::Float(Vec::with_capacity(capacity)),
            Value::Bool(_) => ColumnBuilder::Bool(Vec::with_capacity(capacity)),
            Value::Date(_) => ColumnBuilder::Date(Vec::with_capacity(capacity)),
            Value::Oid(_) => ColumnBuilder::Oid(Vec::with_capacity(capacity)),
            Value::Str(_) => ColumnBuilder::Str {
                ids: Vec::with_capacity(capacity),
                map: HashMap::new(),
            },
            _ => ColumnBuilder::Interned {
                ids: Vec::with_capacity(capacity),
                map: FxHashMap::default(),
            },
        }
    }

    /// Converts the values accumulated so far into an interned builder —
    /// the upgrade path when a column turns out to be mixed-kind.
    fn into_interned(self) -> ColumnBuilder {
        let built = self.finish();
        let n = built.len();
        let mut up = ColumnBuilder::Interned {
            ids: Vec::with_capacity(n),
            map: FxHashMap::default(),
        };
        for i in 0..n {
            up.push(built.value_at(i));
        }
        up
    }

    fn push(&mut self, v: Value) {
        match (&mut *self, &v) {
            (ColumnBuilder::Int(xs), Value::Int(i)) => xs.push(*i),
            (ColumnBuilder::Float(xs), Value::Float(f)) => xs.push(*f),
            (ColumnBuilder::Bool(xs), Value::Bool(b)) => xs.push(*b),
            (ColumnBuilder::Date(xs), Value::Date(d)) => xs.push(*d),
            (ColumnBuilder::Oid(xs), Value::Oid(Oid(o))) => xs.push(*o),
            (ColumnBuilder::Str { ids, map }, Value::Str(_)) => {
                let Value::Str(s) = v else { unreachable!() };
                let next = map.len() as u32;
                ids.push(*map.entry(s).or_insert(next));
            }
            (ColumnBuilder::Interned { ids, map }, _) => {
                // one hash per row, no clone: the map is the pool until
                // `finish` lays it out in id order
                let next = map.len() as u32;
                ids.push(*map.entry(v).or_insert(next));
            }
            // kind mismatch: upgrade everything accumulated so far
            _ => {
                let upgraded = std::mem::replace(self, ColumnBuilder::Int(Vec::new()));
                *self = upgraded.into_interned();
                self.push(v);
            }
        }
    }

    fn finish(self) -> Column {
        /// Lays the interning map out as the id-ordered dictionary.
        fn dict_of<T, S>(map: HashMap<T, u32, S>) -> Vec<T> {
            let mut pairs: Vec<(u32, T)> = map.into_iter().map(|(v, id)| (id, v)).collect();
            pairs.sort_unstable_by_key(|(id, _)| *id);
            pairs.into_iter().map(|(_, v)| v).collect()
        }
        match self {
            ColumnBuilder::Int(v) => Column::Int(v),
            ColumnBuilder::Float(v) => Column::Float(v),
            ColumnBuilder::Bool(v) => Column::Bool(v),
            ColumnBuilder::Date(v) => Column::Date(v),
            ColumnBuilder::Oid(v) => Column::Oid(v),
            ColumnBuilder::Str { ids, map } => Column::Str {
                ids,
                dict: dict_of(map),
            },
            ColumnBuilder::Interned { ids, map } => Column::Interned {
                ids,
                dict: dict_of(map),
            },
        }
    }
}

/// A batch of same-schema tuples stored column-wise. Columns are kept in
/// the tuples' canonical (name-sorted) attribute order, so materialized
/// rows are canonical without re-sorting.
///
/// The column list and every column are shared (`Arc`), so a clone is a
/// reference-count bump. A batch built by [`Batch::shared`] also keeps
/// the rows it was transposed from (its *origin*); equality and the
/// codec look at the columns only, so such a batch equals, and encodes
/// like, the same rows built by [`Batch::of`].
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
        let mut builders: Vec<ColumnBuilder> = first
            .iter()
            .map(|(_, v)| ColumnBuilder::for_value(v, len))
            .collect();
        for row in rows {
            let Value::Tuple(t) = row else {
                unreachable!("uniformity checked above")
            };
            for (b, (_, v)) in builders.iter_mut().zip(t.iter()) {
                b.push(v.clone());
            }
        }
        Some(ColumnarBatch::of_cols(
            len,
            names
                .into_iter()
                .zip(builders.into_iter().map(|b| Arc::new(b.finish())))
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

    /// The schema's columns in canonical order.
    pub fn columns(&self) -> &[(Name, Arc<Column>)] {
        &self.cols
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

    // -----------------------------------------------------------------
    // Wire codec: length-prefixed column blocks.

    /// Serializes the batch as a column block: row/column counts, then
    /// each column as a length-prefixed name, a kind tag, and the
    /// column's packed payload (dictionaries written once).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_u32(out, self.len as u32);
        push_u32(out, self.cols.len() as u32);
        for (name, col) in self.cols.iter() {
            push_u32(out, name.len() as u32);
            out.extend_from_slice(name.as_bytes());
            match &**col {
                Column::Int(v) => {
                    out.push(col_tag::INT);
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                Column::Float(v) => {
                    out.push(col_tag::FLOAT);
                    for x in v {
                        out.extend_from_slice(&x.get().to_bits().to_le_bytes());
                    }
                }
                Column::Bool(v) => {
                    out.push(col_tag::BOOL);
                    out.extend(v.iter().map(|b| u8::from(*b)));
                }
                Column::Date(v) => {
                    out.push(col_tag::DATE);
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                Column::Oid(v) => {
                    out.push(col_tag::OID);
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                Column::Str { ids, dict } => {
                    out.push(col_tag::STR);
                    push_u32(out, dict.len() as u32);
                    for s in dict {
                        push_u32(out, s.len() as u32);
                        out.extend_from_slice(s.as_bytes());
                    }
                    for id in ids {
                        push_u32(out, *id);
                    }
                }
                Column::Interned { ids, dict } => {
                    out.push(col_tag::INTERNED);
                    push_u32(out, dict.len() as u32);
                    for v in dict {
                        let at = out.len();
                        push_u32(out, 0);
                        codec::encode_into(v, out);
                        let n = (out.len() - at - 4) as u32;
                        out[at..at + 4].copy_from_slice(&n.to_le_bytes());
                    }
                    for id in ids {
                        push_u32(out, *id);
                    }
                }
            }
        }
    }

    /// Decodes a block produced by [`ColumnarBatch::encode_into`].
    pub fn decode(bytes: &[u8]) -> Result<ColumnarBatch, ValueError> {
        let mut pos = 0usize;
        let len = read_u32(bytes, &mut pos)? as usize;
        let ncols = read_u32(bytes, &mut pos)? as usize;
        // A column costs at least its name length and its tag.
        let mut cols = capped(ncols, bytes, pos, 5);
        for _ in 0..ncols {
            let name = read_str(bytes, &mut pos)?;
            let tag = *bytes
                .get(pos)
                .ok_or_else(|| ValueError::Codec("truncated column tag".into()))?;
            pos += 1;
            let col = match tag {
                col_tag::INT => Column::Int(read_i64s(bytes, &mut pos, len)?),
                col_tag::FLOAT => {
                    let mut v = capped(len, bytes, pos, 8);
                    for _ in 0..len {
                        v.push(F64::new(f64::from_bits(read_u64(bytes, &mut pos)?)));
                    }
                    Column::Float(v)
                }
                col_tag::BOOL => {
                    let slice = codec::take(bytes, &mut pos, len)?;
                    Column::Bool(slice.iter().map(|b| *b != 0).collect())
                }
                col_tag::DATE => Column::Date(read_i64s(bytes, &mut pos, len)?),
                col_tag::OID => {
                    let mut v = capped(len, bytes, pos, 8);
                    for _ in 0..len {
                        v.push(read_u64(bytes, &mut pos)?);
                    }
                    Column::Oid(v)
                }
                col_tag::STR => {
                    let n = read_u32(bytes, &mut pos)? as usize;
                    let mut dict = capped(n, bytes, pos, 4);
                    for _ in 0..n {
                        dict.push(read_str(bytes, &mut pos)?);
                    }
                    let ids = read_ids(bytes, &mut pos, len, n)?;
                    Column::Str { ids, dict }
                }
                col_tag::INTERNED => {
                    let n = read_u32(bytes, &mut pos)? as usize;
                    let mut dict = capped(n, bytes, pos, 5);
                    let mut decoder = codec::Decoder::default();
                    for _ in 0..n {
                        let vlen = read_u32(bytes, &mut pos)? as usize;
                        let end = pos + vlen;
                        let payload = bytes
                            .get(pos..end)
                            .ok_or_else(|| ValueError::Codec("truncated pooled value".into()))?;
                        let (v, used) = decoder.prefix(payload)?;
                        if used != vlen {
                            return Err(ValueError::Codec("pooled value length mismatch".into()));
                        }
                        pos = end;
                        dict.push(v);
                    }
                    let ids = read_ids(bytes, &mut pos, len, n)?;
                    Column::Interned { ids, dict }
                }
                other => {
                    return Err(ValueError::Codec(format!("unknown column tag {other}")));
                }
            };
            cols.push((name, Arc::new(col)));
        }
        if pos != bytes.len() {
            return Err(ValueError::Codec(
                "trailing bytes after column block".into(),
            ));
        }
        Ok(ColumnarBatch::of_cols(len, cols))
    }
}

/// Column kind tags of the column block format.
mod col_tag {
    pub const INT: u8 = 0;
    pub const FLOAT: u8 = 1;
    pub const BOOL: u8 = 2;
    pub const DATE: u8 = 3;
    pub const OID: u8 = 4;
    pub const STR: u8 = 5;
    pub const INTERNED: u8 = 6;
}

// Byte-cursor helpers delegate to the value codec's primitives
// (`codec.rs` owns them; a second implementation would let the column
// block and value formats drift).

fn push_u32(out: &mut Vec<u8>, v: u32) {
    codec::push_len(out, v as usize);
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, ValueError> {
    Ok(codec::take_u32(bytes, pos)? as u32)
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, ValueError> {
    codec::take_u64(bytes, pos)
}

/// An empty vector with room for `n` items of at least `min_bytes`
/// encoded bytes each, capped by the bytes left after `pos`: a hostile
/// count must not allocate ahead of the bytes that back it.
fn capped<T>(n: usize, bytes: &[u8], pos: usize, min_bytes: usize) -> Vec<T> {
    Vec::with_capacity(n.min(bytes.len().saturating_sub(pos) / min_bytes))
}

fn read_i64s(bytes: &[u8], pos: &mut usize, n: usize) -> Result<Vec<i64>, ValueError> {
    let mut v = capped(n, bytes, *pos, 8);
    for _ in 0..n {
        v.push(read_u64(bytes, pos)? as i64);
    }
    Ok(v)
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Result<Name, ValueError> {
    let n = codec::take_u32(bytes, pos)?;
    let slice = codec::take(bytes, pos, n)?;
    let s =
        std::str::from_utf8(slice).map_err(|e| ValueError::Codec(format!("invalid utf-8: {e}")))?;
    Ok(Name::from(s))
}

fn read_ids(
    bytes: &[u8],
    pos: &mut usize,
    n: usize,
    dict_len: usize,
) -> Result<Vec<u32>, ValueError> {
    let mut ids = capped(n, bytes, *pos, 4);
    for _ in 0..n {
        let id = read_u32(bytes, pos)?;
        if id as usize >= dict_len {
            return Err(ValueError::Codec(format!(
                "dictionary id {id} out of range (pool size {dict_len})"
            )));
        }
        ids.push(id);
    }
    Ok(ids)
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
    use crate::{name, Set};

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
        // unboxed primitive columns, interned strings, pooled sets
        assert!(matches!(cb.column("n"), Some(Column::Int(_))));
        assert!(matches!(cb.column("id"), Some(Column::Oid(_))));
        match cb.column("name") {
            Some(Column::Str { dict, .. }) => assert_eq!(dict.len(), 2),
            other => panic!("expected interned strings, got {other:?}"),
        }
        match cb.column("refs") {
            Some(Column::Interned { dict, .. }) => assert_eq!(dict.len(), 3),
            other => panic!("expected pooled sets, got {other:?}"),
        }
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
        match cb.column("a") {
            Some(Column::Interned { dict, ids }) => {
                assert_eq!(dict.len(), 2); // 1 and "two", deduplicated
                assert_eq!(ids, &vec![0, 1, 0]);
            }
            other => panic!("expected pooled column, got {other:?}"),
        }
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
    fn column_blocks_roundtrip_through_the_codec() {
        let rows: Vec<Value> = (0..33)
            .map(|i| {
                Value::tuple([
                    ("b", Value::Bool(i % 2 == 0)),
                    ("d", Value::Date(940101 + i)),
                    ("f", Value::float(i as f64 / 3.0)),
                    ("n", Value::Int(i)),
                    ("nested", Value::set([Value::Int(i % 5), Value::str("x")])),
                    ("s", Value::str(&format!("s{}", i % 4))),
                ])
            })
            .collect();
        let Batch::Columnar(cb) = Batch::of(BatchKind::Columnar, rows.clone()) else {
            panic!("columnar")
        };
        let mut bytes = Vec::new();
        cb.encode_into(&mut bytes);
        let back = ColumnarBatch::decode(&bytes).unwrap();
        assert_eq!(back, cb);
        assert_eq!(back.to_rows(), rows);
        // corrupt id → defined error, not a panic
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] = 0xFF;
        assert!(matches!(
            ColumnarBatch::decode(&bad),
            Err(ValueError::Codec(_))
        ));
        assert!(matches!(
            ColumnarBatch::decode(&bytes[..bytes.len() - 2]),
            Err(ValueError::Codec(_))
        ));
    }

    /// A hostile row or column count is an error, not an allocation of
    /// the size it claims: every preallocation is capped by the bytes
    /// left to back it.
    #[test]
    fn hostile_counts_are_codec_errors() {
        let mut huge_len = Vec::new();
        push_u32(&mut huge_len, u32::MAX); // len
        push_u32(&mut huge_len, 1); // ncols
        push_u32(&mut huge_len, 1);
        huge_len.push(b'a');
        huge_len.push(col_tag::INT);
        assert_eq!(huge_len.len(), 14);
        let mut huge_ncols = Vec::new();
        push_u32(&mut huge_ncols, 1);
        push_u32(&mut huge_ncols, u32::MAX);
        for body in [huge_len, huge_ncols] {
            assert!(matches!(
                ColumnarBatch::decode(&body),
                Err(ValueError::Codec(_))
            ));
        }
        // The same for every other counted column kind and dictionary.
        for (tag, tail) in [
            (col_tag::FLOAT, vec![]),
            (col_tag::OID, vec![]),
            (col_tag::DATE, vec![]),
            (col_tag::STR, 0u32.to_le_bytes().to_vec()),
            (col_tag::STR, u32::MAX.to_le_bytes().to_vec()),
            (col_tag::INTERNED, u32::MAX.to_le_bytes().to_vec()),
        ] {
            let mut body = Vec::new();
            push_u32(&mut body, u32::MAX);
            push_u32(&mut body, 1);
            push_u32(&mut body, 1);
            body.push(b'a');
            body.push(tag);
            body.extend_from_slice(&tail);
            assert!(
                matches!(ColumnarBatch::decode(&body), Err(ValueError::Codec(_))),
                "tag {tag}"
            );
        }
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
        let mut bytes = Vec::new();
        cb.encode_into(&mut bytes);
        assert_eq!(ColumnarBatch::decode(&bytes).unwrap().to_rows(), rows);
    }

    #[test]
    fn null_padding_lands_in_the_pool() {
        // outer-join padded rows carry Null — must round-trip
        let rows = vec![
            Value::tuple([("a", Value::Int(1)), ("pad", Value::Null)]),
            Value::tuple([("a", Value::Int(2)), ("pad", Value::str("y"))]),
        ];
        let b = Batch::of(BatchKind::Columnar, rows.clone());
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
        let (mut x, mut y) = (Vec::new(), Vec::new());
        cb.encode_into(&mut x);
        pb.encode_into(&mut y);
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
        let mut bytes = Vec::new();
        cb.encode_into(&mut bytes);
        let derived = [
            cb.filter(&keep),
            cb.project(&[name("n")]).unwrap(),
            cb.rename(&[(name("n"), name("zz"))]).unwrap(),
            ColumnarBatch::decode(&bytes).unwrap(),
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
