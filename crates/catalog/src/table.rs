//! Extents (base tables) with their indexes: the oid index, secondary
//! hash indexes, and reverse-reference indexes on set-of-oid attributes.

use crate::CatalogError;
use oodb_value::batch::BATCH_SIZE;
use oodb_value::fxhash::FxHashMap;
use oodb_value::{Batch, BatchKind, Name, Oid, Set, Tuple, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A populated class extension: a table of complex objects.
///
/// Rows are stored in insertion order (scans are cheap and deterministic);
/// the `oid → row` index makes object identifiers behave like *physical*
/// pointers: dereferencing one (§6.2's `deref`) is one hash lookup, not a
/// scan of the extent. Set-valued attributes are stored inline with their tuple —
/// the paper's "assuming set-valued attributes are stored clustered" (§3),
/// which is why unnesting them is undesirable.
///
/// Three kinds of index sit next to the rows, and [`Table::insert`]
/// maintains all of them:
/// * the **oid index** (`oid → row`), always;
/// * **secondary hash indexes** (`value → rows`), one per attribute
///   named to [`Table::create_index`]; they back the index nested-loop
///   join ([`Table::index_probe`]);
/// * **reverse-reference indexes** (`element → owners`), one per
///   set-of-oid attribute named to [`Table::with_owner_indexes`] — every
///   such attribute of a [`crate::Database`] extent: the objects whose
///   set holds a given oid ([`Table::owners`]). They answer `x.a ⊇ E`,
///   `x.a = E` and `x.a ∋ e` by intersecting posting lists instead of
///   reading the extent, and they find the owners of every right row
///   of a nestjoin, semijoin or antijoin on `k(y) ∈ x.a`.
///
/// Both probes return ascending insertion positions, which
/// [`Table::rows_at`] turns into rows without copying a list, and
/// [`Table::position`] gives the position of a row read from the
/// snapshot.
///
/// Readers see the extent as a canonical [`Set`] (the *snapshot*, see
/// [`Table::as_set`]) cut into [`BATCH_SIZE`]-row scan chunks (see
/// [`Table::chunk`]). Both are built lazily — the snapshot on the first
/// read, each columnar chunk the first time a scan reads it — and shared
/// by every reader until the rows change: a scan gets the cached chunk
/// itself (a reference-count bump), and its row view is the snapshot's
/// own tuples. [`Table::insert`] sets the snapshot aside, and the first
/// read after it merges only the appended rows into it: they are sorted
/// alone and placed by binary search, and every chunk wholly before the
/// first placed row is kept, transposed or not. [`Table::create_index`]
/// keeps the snapshot, since no row changed. A scan therefore sorts each
/// row once and transposes a chunk again only when a write shifted it.
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
    /// Reverse-reference indexes: set-of-oid attribute → (element → the
    /// ascending positions of the rows whose set holds it).
    owners: FxHashMap<Name, FxHashMap<Oid, Vec<usize>>>,
    /// Monotonic write counter: bumped by every successful [`Table::insert`]
    /// and [`Table::create_index`]. Caches keyed on query results (the
    /// server's plan/result caches) stamp entries with the versions of the
    /// extents they read and treat any bump as invalidation.
    version: u64,
    /// The snapshot and its scan chunks for the current rows; empty
    /// until the first read after an insert.
    scan: OnceLock<Snapshot>,
    /// The snapshot an insert retired, until the next read merges the
    /// appended rows into it.
    set_aside: SetAside,
    /// What building the snapshots has cost so far.
    work: WorkCounters,
}

/// What readers of one set of rows of a [`Table`] share. The default is
/// the snapshot of no rows, which every build merges into.
#[derive(Clone, Debug, Default)]
struct Snapshot {
    /// The rows as a canonical set. Rows are unique by oid, so its length
    /// is the number of rows it covers: the first `set.len()` of the table.
    set: Set,
    /// Cell `i` holds `Batch::scan_chunk(Columnar, set, i·BATCH_SIZE ..)`, at
    /// most [`BATCH_SIZE`] rows, built by the first scan that reads it.
    /// Its origin is `set`, never a retired snapshot's.
    columnar: Box<[OnceLock<Batch>]>,
}

impl Snapshot {
    /// This snapshot with `added` merged in. The added rows are sorted
    /// alone and placed by binary search ([`Set::union_small`]); the
    /// cells of the chunks that lie wholly before the first placed row
    /// move over, their origin pointed at the merged set (whose prefix
    /// is the same rows), and the cells after it start empty. From the
    /// empty snapshot this is the whole build.
    fn merge(self, added: &[Tuple], work: &WorkCounters) -> Snapshot {
        let added = Set::from_values(added.iter().cloned().map(Value::Tuple).collect());
        work.rows_sorted
            .fetch_add(added.len() as u64, Ordering::Relaxed);
        let Some(first) = added.iter().next() else {
            return self;
        };
        let kept = self.set.as_slice().partition_point(|v| v < first) / BATCH_SIZE;
        let set = self.set.union_small(&added);
        let mut columnar = self.columnar.into_vec();
        columnar.truncate(kept);
        for chunk in columnar.iter_mut().filter_map(OnceLock::get_mut) {
            chunk.move_origin(&set);
        }
        columnar.resize_with(set.len().div_ceil(BATCH_SIZE), OnceLock::new);
        Snapshot {
            set,
            columnar: columnar.into(),
        }
    }
}

/// At most one retired [`Snapshot`], kept from the insert that retired it
/// until the next read takes it. A clone of the table starts without one
/// (its first read builds from scratch), so nothing but the table itself
/// ever holds an old snapshot. Each update replaces the whole `Option`,
/// so a poisoned lock still holds a valid value and is used as is.
#[derive(Debug, Default)]
struct SetAside(Mutex<Option<Snapshot>>);

impl Clone for SetAside {
    fn clone(&self) -> Self {
        SetAside::default()
    }
}

impl SetAside {
    fn put(&mut self, snap: Snapshot) {
        *self.0.get_mut().unwrap_or_else(PoisonError::into_inner) = Some(snap);
    }

    /// The retired snapshot, or the empty one.
    fn take(&self) -> Snapshot {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_default()
    }
}

/// Running totals behind [`Table::snapshot_work`]. A clone of the table
/// starts from the totals of the original.
#[derive(Debug, Default)]
struct WorkCounters {
    rows_sorted: AtomicU64,
    chunks_transposed: AtomicU64,
}

impl Clone for WorkCounters {
    fn clone(&self) -> Self {
        let work = self.get();
        WorkCounters {
            rows_sorted: AtomicU64::new(work.rows_sorted),
            chunks_transposed: AtomicU64::new(work.chunks_transposed),
        }
    }
}

impl WorkCounters {
    fn get(&self) -> SnapshotWork {
        SnapshotWork {
            rows_sorted: self.rows_sorted.load(Ordering::Relaxed),
            chunks_transposed: self.chunks_transposed.load(Ordering::Relaxed),
        }
    }
}

/// What building a table's snapshots has cost so far (see
/// [`Table::snapshot_work`]); [`crate::Database::snapshot_work`] sums it
/// over the extents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotWork {
    /// Rows sorted into a snapshot. A row is sorted by the first read
    /// after the insert that added it, and never again.
    pub rows_sorted: u64,
    /// Columnar scan chunks transposed from the snapshot's rows.
    pub chunks_transposed: u64,
}

impl std::iter::Sum for SnapshotWork {
    fn sum<I: Iterator<Item = SnapshotWork>>(iter: I) -> SnapshotWork {
        iter.fold(SnapshotWork::default(), |a, b| SnapshotWork {
            rows_sorted: a.rows_sorted + b.rows_sorted,
            chunks_transposed: a.chunks_transposed + b.chunks_transposed,
        })
    }
}

impl Table {
    /// An empty table whose rows carry their oid in attribute `identity`.
    pub fn new(identity: Name) -> Self {
        Table::with_owner_indexes(identity, [])
    }

    /// An empty table that keeps a reverse-reference index on each of
    /// `attrs`, set-of-oid attributes every row must carry.
    pub fn with_owner_indexes(identity: Name, attrs: impl IntoIterator<Item = Name>) -> Self {
        Table {
            identity,
            rows: Vec::new(),
            oid_index: FxHashMap::default(),
            secondary: FxHashMap::default(),
            owners: attrs
                .into_iter()
                .map(|a| (a, FxHashMap::default()))
                .collect(),
            version: 0,
            scan: OnceLock::new(),
            set_aside: SetAside::default(),
            work: WorkCounters::default(),
        }
    }

    /// The extent's write version (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Builds (or rebuilds) a secondary hash index on `attr`. Rows lacking
    /// the attribute are rejected. The snapshot stays: no row changed.
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

    /// Probes the secondary index on `attr` for `key`: the ascending
    /// positions of the matching rows (see [`Table::rows_at`]). `None`
    /// when no such index exists.
    pub fn index_probe(&self, attr: &str, key: &Value) -> Option<&[usize]> {
        let idx = self.secondary.get(attr)?;
        Some(idx.get(key).map_or(&[], Vec::as_slice))
    }

    /// True if a reverse-reference index exists on `attr`.
    pub fn has_owner_index(&self, attr: &str) -> bool {
        self.owners.contains_key(attr)
    }

    /// Probes the reverse-reference index on `attr` for `elem`: the
    /// ascending insertion positions of the rows whose `attr` set holds
    /// it (see [`Table::rows_at`] and [`Table::position`]). Empty for an
    /// element no row holds, a non-oid one included; `None` when no such
    /// index exists.
    pub fn owners(&self, attr: &str, elem: &Value) -> Option<&[usize]> {
        Some(self.owner_index(attr)?.owners(elem))
    }

    /// The reverse-reference index on `attr`, resolved once for a caller
    /// that probes it many times; `None` when no such index exists.
    pub fn owner_index(&self, attr: &str) -> Option<OwnerIndex<'_>> {
        self.owners.get(attr).map(OwnerIndex)
    }

    /// The insertion position of the row with oid `oid`, one lookup in
    /// the oid index: what relates a row read from the snapshot (which
    /// is in canonical order) to the positions [`Table::owners`] and
    /// [`Table::index_probe`] return.
    pub fn position(&self, oid: Oid) -> Option<usize> {
        self.oid_index.get(&oid).copied()
    }

    /// The rows at `positions`, as an index probe returns them.
    pub fn rows_at<'a>(&'a self, positions: &'a [usize]) -> impl Iterator<Item = &'a Tuple> {
        positions.iter().map(|&i| &self.rows[i])
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
    /// the table as it was, snapshot included. An accepted one sets the
    /// current snapshot aside for the next read to merge into.
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
        if let Some(attr) = self
            .owners
            .keys()
            .find(|attr| oid_set(&row, attr).is_none())
        {
            return Err(CatalogError::SchemaViolation {
                extent: extent.clone(),
                detail: format!("reference-set attribute `{attr}` is not a set of oids"),
            });
        }
        let pos = self.rows.len();
        for (attr, idx) in self.secondary.iter_mut() {
            let v = row.get(attr).expect("checked above");
            idx.entry(v.clone()).or_default().push(pos);
        }
        for (attr, idx) in self.owners.iter_mut() {
            for elem in oid_set(&row, attr).expect("checked above").iter() {
                let oid = elem.as_oid().expect("checked above");
                idx.entry(oid).or_default().push(pos);
            }
        }
        self.oid_index.insert(oid, pos);
        self.rows.push(row);
        if let Some(snap) = self.scan.take() {
            self.set_aside.put(snap);
        }
        self.bump_version();
        Ok(())
    }

    /// A write happened: new version. The snapshot is the writer's
    /// business: [`Table::insert`] sets it aside, [`Table::create_index`]
    /// keeps it.
    fn bump_version(&mut self) {
        self.version += 1;
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

    /// The snapshot of the current rows. The first read after an insert
    /// takes the set-aside snapshot (or the empty one) and merges the rows
    /// appended since into it; concurrent first readers wait for that one
    /// merge.
    fn snapshot(&self) -> &Snapshot {
        self.scan.get_or_init(|| {
            let old = self.set_aside.take();
            let covered = old.set.len();
            old.merge(self.rows_since(covered), &self.work)
        })
    }

    /// What building this table's snapshots has cost so far.
    pub fn snapshot_work(&self) -> SnapshotWork {
        self.work.get()
    }

    /// The extent as a canonical set, shared by every reader until the
    /// next insert.
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
    /// [`Table::as_set`], at most [`BATCH_SIZE`] of them, cut by
    /// [`Batch::scan_chunk`]; `None` past the last chunk. This is the one
    /// place columns are built: a columnar chunk is transposed by the
    /// first call that asks for it, kept across an insert that did not
    /// shift it, and shared with every caller. A clone of it is a
    /// reference-count bump, and its row view is the snapshot's tuples.
    /// A row chunk is a slice copy.
    pub fn chunk(&self, i: usize, kind: BatchKind) -> Option<Batch> {
        let snap = self.snapshot();
        let cell = snap.columnar.get(i)?;
        let rows = i * BATCH_SIZE..snap.set.len().min((i + 1) * BATCH_SIZE);
        Some(match kind {
            BatchKind::Row => Batch::scan_chunk(kind, &snap.set, rows),
            BatchKind::Columnar => cell
                .get_or_init(|| {
                    self.work.chunks_transposed.fetch_add(1, Ordering::Relaxed);
                    Batch::scan_chunk(kind, &snap.set, rows)
                })
                .clone(),
        })
    }
}

/// One reverse-reference index of a [`Table`] (see
/// [`Table::owner_index`]).
#[derive(Clone, Copy, Debug)]
pub struct OwnerIndex<'t>(&'t FxHashMap<Oid, Vec<usize>>);

impl<'t> OwnerIndex<'t> {
    /// The ascending insertion positions of the rows whose set holds
    /// `elem`; empty for an element no row holds, a non-oid one
    /// included.
    pub fn owners(self, elem: &Value) -> &'t [usize] {
        match elem {
            Value::Oid(oid) => self.0.get(oid).map_or(&[], Vec::as_slice),
            _ => &[],
        }
    }
}

/// `row`'s `attr`, when it is a set of oids.
fn oid_set<'r>(row: &'r Tuple, attr: &str) -> Option<&'r Set> {
    let set = row.get(attr)?.as_set().ok()?;
    set.iter()
        .all(|v| matches!(v, Value::Oid(_)))
        .then_some(set)
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
                let at = i * BATCH_SIZE;
                let fresh = Batch::scan_chunk(kind, &rebuilt, at..at + rows.len());
                assert_eq!(t.chunk(i, kind), Some(fresh));
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

    /// Which columnar cells of the current snapshot are filled.
    fn filled(t: &Table) -> Vec<bool> {
        t.snapshot()
            .columnar
            .iter()
            .map(|c| c.get().is_some())
            .collect()
    }

    #[test]
    fn an_append_that_sorts_last_keeps_the_old_chunks() {
        let mut t = table(2 * BATCH_SIZE as u64 + 5);
        read_all(&t);
        let before = t.snapshot_work();
        // "yellow" sorts after every colour `row` gives
        for oid in [1 << 20, 1 << 21] {
            let late = row(oid).except(&[(name("color"), Value::str("yellow"))]);
            t.insert(&name("PART"), late.unwrap()).unwrap();
        }
        // the two full chunks stay transposed; the partial last one
        // starts over
        assert_eq!(filled(&t), [true, true, false]);
        let work = t.snapshot_work();
        assert_eq!(work.rows_sorted - before.rows_sorted, 2);
        assert_current(&t);
        assert_eq!(
            t.snapshot_work().chunks_transposed - work.chunks_transposed,
            1
        );
    }

    #[test]
    fn create_index_keeps_the_snapshot() {
        let mut t = table(BATCH_SIZE as u64 + 3);
        read_all(&t);
        let set = t.as_set().as_slice() as *const [Value];
        let work = t.snapshot_work();
        t.create_index(&name("color")).unwrap();
        assert!(std::ptr::eq(t.as_set().as_slice(), set));
        assert_eq!(filled(&t), [true, true]);
        assert_eq!(t.snapshot_work(), work);
        assert_current(&t);
    }

    #[test]
    fn first_readers_after_a_write_share_one_merge() {
        let mut t = table(BATCH_SIZE as u64 + 3);
        read_all(&t);
        for oid in 5000..5004 {
            t.insert(&name("PART"), row(oid)).unwrap();
        }
        let before = t.snapshot_work().rows_sorted;
        let start = std::sync::Barrier::new(2);
        let sets: Vec<Set> = std::thread::scope(|scope| {
            let read = || {
                start.wait();
                t.as_set().clone()
            };
            let readers: Vec<_> = (0..2).map(|_| scope.spawn(read)).collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(std::ptr::eq(sets[0].as_slice(), sets[1].as_slice()));
        assert_eq!(t.snapshot_work().rows_sorted - before, 4);
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
        assert_eq!(reds, [0, 2]);
        let pids: Vec<_> = t.rows_at(reds).map(|r| r.get("pid").unwrap()).collect();
        assert_eq!(pids, [&Value::Oid(Oid(1)), &Value::Oid(Oid(3))]);
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

#[cfg(test)]
mod owner_index_tests {
    use super::*;
    use oodb_value::name;

    fn supplier(eid: u64, parts: &[u64]) -> Tuple {
        Tuple::from_pairs([
            ("eid", Value::Oid(Oid(eid))),
            (
                "parts",
                Value::set(parts.iter().map(|&p| Value::Oid(Oid(p)))),
            ),
        ])
    }

    fn table(rows: &[(u64, &[u64])]) -> Table {
        let mut t = Table::with_owner_indexes(name("eid"), [name("parts")]);
        for &(eid, parts) in rows {
            t.insert(&name("SUPPLIER"), supplier(eid, parts)).unwrap();
        }
        t
    }

    #[test]
    fn owners_are_ascending_positions_kept_by_insert() {
        let mut t = table(&[(1, &[10, 11]), (2, &[]), (3, &[11])]);
        assert!(t.has_owner_index("parts"));
        assert!(!t.has_owner_index("eid"));
        let oid = |o: u64| Value::Oid(Oid(o));
        assert_eq!(t.owners("parts", &oid(11)), Some(&[0, 2][..]));
        assert_eq!(t.owners("parts", &oid(10)), Some(&[0][..]));
        // an element no row holds, and one that is no oid at all
        assert_eq!(t.owners("parts", &oid(99)), Some(&[][..]));
        assert_eq!(t.owners("parts", &Value::Int(11)), Some(&[][..]));
        assert_eq!(t.owners("eid", &oid(1)), None);
        t.insert(&name("SUPPLIER"), supplier(4, &[11, 12])).unwrap();
        assert_eq!(t.owners("parts", &oid(11)), Some(&[0, 2, 3][..]));
        let eids: Vec<_> = t
            .rows_at(t.owners("parts", &oid(12)).unwrap())
            .map(|r| r.get("eid").unwrap().clone())
            .collect();
        assert_eq!(eids, [oid(4)]);
    }

    #[test]
    fn a_row_whose_reference_set_is_not_oids_changes_nothing() {
        let mut t = table(&[(1, &[10])]);
        let version = t.version();
        for parts in [Value::Int(3), Value::set([Value::Int(10)])] {
            let bad = Tuple::from_pairs([("eid", Value::Oid(Oid(2))), ("parts", parts)]);
            assert!(matches!(
                t.insert(&name("SUPPLIER"), bad),
                Err(CatalogError::SchemaViolation { .. })
            ));
        }
        let missing = Tuple::from_pairs([("eid", Value::Oid(Oid(2)))]);
        assert!(t.insert(&name("SUPPLIER"), missing).is_err());
        assert_eq!((t.len(), t.version()), (1, version));
        assert_eq!(t.owners("parts", &Value::Oid(Oid(10))), Some(&[0][..]));
    }
}
