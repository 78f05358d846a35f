//! Extents (base tables) with oid indexes.

use crate::CatalogError;
use oodb_value::batch::BATCH_SIZE;
use oodb_value::fxhash::FxHashMap;
use oodb_value::{Batch, BatchKind, Name, Oid, Set, Tuple, Value};
use std::sync::OnceLock;

/// A populated class extension: a table of complex objects.
///
/// Rows are stored in insertion order (scans are cheap and deterministic);
/// the `oid → row` index makes object identifiers behave like *physical*
/// pointers, which is the property pointer-based joins (assembly, §6.2)
/// rely on. Set-valued attributes are stored inline with their tuple —
/// the paper's "assuming set-valued attributes are stored clustered" (§3),
/// which is why unnesting them is undesirable.
///
/// Readers see the extent as a canonical [`Set`] (the *snapshot*, see
/// [`Table::as_set`]) cut into [`BATCH_SIZE`]-row scan chunks (see
/// [`Table::chunk`]). Both are built lazily — the snapshot on the first
/// read, each columnar chunk the first time a scan reads it — and kept
/// until the extent changes: [`Table::insert`] and [`Table::create_index`],
/// the only writers, drop them together with the version bump. A scan
/// therefore sorts and transposes the extent once per version, not once
/// per query and worker.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Identity attribute name within each row tuple.
    identity: Name,
    rows: Vec<Tuple>,
    oid_index: FxHashMap<Oid, usize>,
    /// Secondary hash indexes: attribute → (value → row positions). These
    /// back the *index nested-loop join* the paper lists among the join
    /// implementations unnesting makes available (§6).
    secondary: FxHashMap<Name, FxHashMap<Value, Vec<usize>>>,
    /// Monotonic write counter: bumped by every successful [`Table::insert`]
    /// and [`Table::create_index`]. Caches keyed on query results (the
    /// server's plan/result caches) stamp entries with the versions of the
    /// extents they read and treat any bump as invalidation.
    version: u64,
    /// The snapshot and its scan chunks for the current version; empty
    /// until first read, emptied by every write.
    scan: OnceLock<Snapshot>,
}

/// What readers of one version of a [`Table`] share.
#[derive(Clone, Debug)]
struct Snapshot {
    /// The rows as a canonical set.
    set: Set,
    /// Cell `i` holds `Batch::of(Columnar, set[i·BATCH_SIZE ..][..BATCH_SIZE])`,
    /// built by the first scan that reads it.
    columnar: Box<[OnceLock<Batch>]>,
}

impl Table {
    /// An empty table whose rows carry their oid in attribute `identity`.
    pub fn new(identity: Name) -> Self {
        Table {
            identity,
            rows: Vec::new(),
            oid_index: FxHashMap::default(),
            secondary: FxHashMap::default(),
            version: 0,
            scan: OnceLock::new(),
        }
    }

    /// The extent's write version (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Builds (or rebuilds) a secondary hash index on `attr`. Rows lacking
    /// the attribute are rejected.
    pub fn create_index(&mut self, attr: &Name) -> Result<(), CatalogError> {
        let mut idx: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
        for (i, row) in self.rows.iter().enumerate() {
            let v = row.get(attr).ok_or_else(|| CatalogError::SchemaViolation {
                extent: self.identity.clone(),
                detail: format!("cannot index missing attribute `{attr}`"),
            })?;
            idx.entry(v.clone()).or_default().push(i);
        }
        self.secondary.insert(attr.clone(), idx);
        self.bump_version();
        Ok(())
    }

    /// True if a secondary index exists on `attr`.
    pub fn has_index(&self, attr: &str) -> bool {
        self.secondary.contains_key(attr)
    }

    /// Probes the secondary index on `attr` for `key`, yielding the
    /// matching rows. `None` when no such index exists.
    pub fn index_probe(&self, attr: &str, key: &Value) -> Option<Vec<&Tuple>> {
        let idx = self.secondary.get(attr)?;
        Some(
            idx.get(key)
                .map(|rows| rows.iter().map(|&i| &self.rows[i]).collect())
                .unwrap_or_default(),
        )
    }

    /// Name of the identity attribute.
    pub fn identity(&self) -> &Name {
        &self.identity
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the extent is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts an object; maintains the oid index. The caller (the
    /// [`crate::Database`]) has already schema-checked the tuple. Every
    /// check runs before anything changes, so a rejected insert leaves
    /// the table as it was.
    pub fn insert(&mut self, extent: &Name, row: Tuple) -> Result<(), CatalogError> {
        let oid = row
            .get(&self.identity)
            .and_then(|v| v.as_oid().ok())
            .ok_or_else(|| CatalogError::SchemaViolation {
                extent: extent.clone(),
                detail: format!("missing oid attribute `{}`", self.identity),
            })?;
        if self.oid_index.contains_key(&oid) {
            return Err(CatalogError::DuplicateOid {
                extent: extent.clone(),
                oid,
            });
        }
        if let Some(attr) = self.secondary.keys().find(|attr| row.get(attr).is_none()) {
            return Err(CatalogError::SchemaViolation {
                extent: extent.clone(),
                detail: format!("indexed attribute `{attr}` missing"),
            });
        }
        let pos = self.rows.len();
        for (attr, idx) in self.secondary.iter_mut() {
            let v = row.get(attr).expect("checked above");
            idx.entry(v.clone()).or_default().push(pos);
        }
        self.oid_index.insert(oid, pos);
        self.rows.push(row);
        self.bump_version();
        Ok(())
    }

    /// A write happened: new version, and the snapshot of the old one
    /// goes.
    fn bump_version(&mut self) {
        self.version += 1;
        self.scan = OnceLock::new();
    }

    /// Row lookup by oid — the pointer dereference behind the materialize
    /// operator.
    pub fn by_oid(&self, oid: Oid) -> Option<&Tuple> {
        self.oid_index.get(&oid).map(|&i| &self.rows[i])
    }

    /// Scans rows in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// The rows after the first `start`, in insertion order: what was
    /// appended since the extent held `start` rows.
    pub fn rows_since(&self, start: usize) -> &[Tuple] {
        &self.rows[start.min(self.rows.len())..]
    }

    /// Row access by position (used by generators).
    pub fn row(&self, i: usize) -> Option<&Tuple> {
        self.rows.get(i)
    }

    /// All oids in this extent, in insertion order.
    pub fn oids(&self) -> impl Iterator<Item = Oid> + '_ {
        let id = self.identity.clone();
        self.rows
            .iter()
            .filter_map(move |r| r.get(&id).and_then(|v| v.as_oid().ok()))
    }

    /// The current version's snapshot, built on first use.
    fn snapshot(&self) -> &Snapshot {
        self.scan.get_or_init(|| {
            let set = Set::from_values(self.rows.iter().cloned().map(Value::Tuple).collect());
            let columnar = (0..set.len().div_ceil(BATCH_SIZE))
                .map(|_| OnceLock::new())
                .collect();
            Snapshot { set, columnar }
        })
    }

    /// The extent as a canonical set. Sorted once per version and shared
    /// by every reader until the next write.
    pub fn as_set(&self) -> &Set {
        &self.snapshot().set
    }

    /// The extent as an ADL set value (what a `Table` leaf of an ADL
    /// expression evaluates to): the shared snapshot, so a reference-count
    /// bump.
    pub fn as_set_value(&self) -> Value {
        Value::Set(self.as_set().clone())
    }

    /// Scan chunk `i` in layout `kind`: rows `i·BATCH_SIZE ..` of
    /// [`Table::as_set`], at most [`BATCH_SIZE`] of them; `None` past the
    /// last chunk. A columnar chunk is transposed by the first call that
    /// asks for it and cloned from then on; a row chunk is a slice copy.
    pub fn chunk(&self, i: usize, kind: BatchKind) -> Option<Batch> {
        let snap = self.snapshot();
        let cell = snap.columnar.get(i)?;
        let rows = || {
            let all = snap.set.as_slice();
            all[i * BATCH_SIZE..all.len().min((i + 1) * BATCH_SIZE)].to_vec()
        };
        Some(match kind {
            BatchKind::Row => Batch::Rows(rows()),
            BatchKind::Columnar => cell.get_or_init(|| Batch::of(kind, rows())).clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_value::name;

    fn row(oid: u64, pname: &str) -> Tuple {
        Tuple::from_pairs([("pid", Value::Oid(Oid(oid))), ("pname", Value::str(pname))])
    }

    #[test]
    fn insert_and_lookup_by_oid() {
        let mut t = Table::new(name("pid"));
        t.insert(&name("PART"), row(1, "bolt")).unwrap();
        t.insert(&name("PART"), row(2, "nut")).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.by_oid(Oid(2)).unwrap().get("pname"),
            Some(&Value::str("nut"))
        );
        assert!(t.by_oid(Oid(9)).is_none());
    }

    #[test]
    fn duplicate_oid_rejected() {
        let mut t = Table::new(name("pid"));
        t.insert(&name("PART"), row(1, "bolt")).unwrap();
        let err = t.insert(&name("PART"), row(1, "nut")).unwrap_err();
        assert!(matches!(err, CatalogError::DuplicateOid { .. }));
    }

    #[test]
    fn missing_identity_rejected() {
        let mut t = Table::new(name("pid"));
        let bad = Tuple::from_pairs([("pname", Value::str("bolt"))]);
        assert!(matches!(
            t.insert(&name("PART"), bad),
            Err(CatalogError::SchemaViolation { .. })
        ));
    }

    #[test]
    fn as_set_value_is_a_set_of_tuples() {
        let mut t = Table::new(name("pid"));
        t.insert(&name("PART"), row(2, "nut")).unwrap();
        t.insert(&name("PART"), row(1, "bolt")).unwrap();
        let v = t.as_set_value();
        let s = v.as_set().unwrap();
        assert_eq!(s.len(), 2);
        // oids enumerate in insertion order
        let oids: Vec<Oid> = t.oids().collect();
        assert_eq!(oids, vec![Oid(2), Oid(1)]);
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use oodb_value::name;

    fn row(oid: u64) -> Tuple {
        Tuple::from_pairs([
            ("pid", Value::Oid(Oid(oid))),
            (
                "color",
                Value::str(["red", "blue", "green"][oid as usize % 3]),
            ),
            ("refs", Value::set((0..oid % 4).map(|k| Value::Oid(Oid(k))))),
        ])
    }

    /// `n` rows inserted in descending oid order, so insertion order and
    /// canonical order differ.
    fn table(n: u64) -> Table {
        let mut t = Table::new(name("pid"));
        for oid in (0..n).rev() {
            t.insert(&name("PART"), row(oid)).unwrap();
        }
        t
    }

    /// Reads every columnar chunk, filling the cache.
    fn read_all(t: &Table) {
        let mut i = 0;
        while t.chunk(i, BatchKind::Columnar).is_some() {
            i += 1;
        }
    }

    /// The snapshot and every chunk equal what is rebuilt from `rows()`
    /// without the cache.
    fn assert_current(t: &Table) {
        let rebuilt = Set::from_values(t.rows().cloned().map(Value::Tuple).collect());
        assert_eq!(t.as_set(), &rebuilt);
        let chunks: Vec<&[Value]> = rebuilt.as_slice().chunks(BATCH_SIZE).collect();
        for kind in [BatchKind::Columnar, BatchKind::Row] {
            for (i, rows) in chunks.iter().enumerate() {
                assert_eq!(t.chunk(i, kind), Some(Batch::of(kind, rows.to_vec())));
            }
            assert_eq!(t.chunk(chunks.len(), kind), None);
        }
    }

    #[test]
    fn reads_share_one_snapshot() {
        let t = table(10);
        let a = t.as_set_value();
        let b = t.as_set_value();
        assert!(std::ptr::eq(
            a.as_set().unwrap().as_slice(),
            b.as_set().unwrap().as_slice()
        ));
    }

    #[test]
    fn snapshot_and_chunks_follow_every_write() {
        let mut t = table(2 * BATCH_SIZE as u64 + 5);
        read_all(&t);
        assert_current(&t);
        // a write lands in the middle of the canonical order, shifting
        // every later chunk boundary
        t.insert(&name("PART"), row(1 << 20)).unwrap();
        assert_current(&t);
        read_all(&t);
        t.create_index(&name("color")).unwrap();
        assert_current(&t);
        // the last chunk fills exactly, then a new one starts
        let mut t = table(BATCH_SIZE as u64 - 1);
        read_all(&t);
        t.insert(&name("PART"), row(5000)).unwrap();
        assert_current(&t);
        read_all(&t);
        t.insert(&name("PART"), row(5001)).unwrap();
        assert_current(&t);
    }

    #[test]
    fn empty_table_has_no_chunks() {
        let t = Table::new(name("pid"));
        assert!(t.as_set().is_empty());
        assert_eq!(t.chunk(0, BatchKind::Columnar), None);
        assert_eq!(t.chunk(0, BatchKind::Row), None);
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use oodb_value::name;

    fn row(oid: u64, color: &str) -> Tuple {
        Tuple::from_pairs([("pid", Value::Oid(Oid(oid))), ("color", Value::str(color))])
    }

    #[test]
    fn create_and_probe_index() {
        let mut t = Table::new(name("pid"));
        t.insert(&name("PART"), row(1, "red")).unwrap();
        t.insert(&name("PART"), row(2, "blue")).unwrap();
        t.insert(&name("PART"), row(3, "red")).unwrap();
        assert!(!t.has_index("color"));
        t.create_index(&name("color")).unwrap();
        assert!(t.has_index("color"));
        let reds = t.index_probe("color", &Value::str("red")).unwrap();
        assert_eq!(reds.len(), 2);
        let none = t.index_probe("color", &Value::str("green")).unwrap();
        assert!(none.is_empty());
        assert!(t.index_probe("nope", &Value::str("red")).is_none());
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = Table::new(name("pid"));
        t.create_index(&name("color")).unwrap();
        t.insert(&name("PART"), row(1, "red")).unwrap();
        t.insert(&name("PART"), row(2, "red")).unwrap();
        let reds = t.index_probe("color", &Value::str("red")).unwrap();
        assert_eq!(reds.len(), 2);
    }
}
