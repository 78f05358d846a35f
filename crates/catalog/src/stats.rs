//! Catalog statistics for cost-based planning.
//!
//! The paper's closing argument (§7) is that join queries beat nested
//! loops *because* the optimizer can choose among many set-oriented
//! implementations. Choosing needs numbers: per-extent cardinalities,
//! per-attribute distinct counts, and — specific to complex objects —
//! the average size of set-valued attributes (the fan-out of the §6.2
//! materialization patterns). [`CatalogStats`] carries those numbers,
//! either collected from a populated [`Database`] or synthesized from
//! generator parameters (see `oodb_datagen`).

use crate::{ClassDef, Database, Table};
use oodb_value::fxhash::{FxHashMap, FxHashSet};
use oodb_value::{Name, Tuple, Value};

/// Statistics for one attribute of one extent.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// Number of distinct values. For set-valued attributes this counts
    /// distinct *elements* across all sets (the domain the elements key
    /// into), not distinct sets.
    pub distinct: u64,
    /// Mean cardinality of the attribute when it is set-valued
    /// (`None` for scalar attributes).
    pub avg_set_len: Option<f64>,
}

/// Statistics for one extent (base table).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Number of stored objects.
    pub rows: u64,
    /// Per-attribute statistics.
    pub attrs: FxHashMap<Name, AttrStats>,
    /// Mean encoded row width in bytes
    /// ([`oodb_value::codec::encoded_size`]) — what the external-memory
    /// subsystem's spill-volume estimates are denominated in. `None`
    /// when unknown (synthetic statistics may approximate it).
    pub avg_row_bytes: Option<f64>,
}

/// Per-extent statistics over a whole object base.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogStats {
    tables: FxHashMap<Name, TableStats>,
    /// Observed per-operator output cardinalities from executed plans,
    /// keyed by operator label (e.g. `Scan(SUPPLIER)`, `Filter`). Fed by
    /// [`CatalogStats::absorb_observed`], consumed by the cost model as
    /// an override when a re-planned query contains the same operator —
    /// the adaptive feedback loop.
    observed: FxHashMap<String, u64>,
}

/// Two cardinalities differ *materially* when one is more than twice
/// the other (or exactly one of them is zero) — the tolerance that
/// decides whether absorbing an observation should trigger
/// re-optimization. A loose band keeps the feedback loop convergent:
/// re-planning with observed numbers reproduces the same observations,
/// so the second absorption is a no-op and cached plans stabilize.
fn materially_differs(old: u64, new: u64) -> bool {
    if old == new {
        return false;
    }
    if old == 0 || new == 0 {
        return true;
    }
    let (lo, hi) = (old.min(new) as f64, old.max(new) as f64);
    hi / lo > 2.0
}

impl CatalogStats {
    /// An empty statistics set (every lookup answers `None`).
    pub fn new() -> Self {
        CatalogStats::default()
    }

    /// Collects exact statistics by scanning every extent of `db`.
    pub fn from_database(db: &Database) -> Self {
        let mut stats = CatalogStats::new();
        for (class, table) in extents(db) {
            let mut sums = ExtentSums::<FxHashSet<&Value>>::new(class);
            sums.fold(table.rows_since(0));
            stats
                .tables
                .insert(class.extent.clone(), sums.finish(&class.identity));
        }
        stats
    }

    /// Registers (or replaces) statistics for an extent — used by
    /// synthesized statistics providers.
    pub fn set_table(&mut self, extent: Name, stats: TableStats) {
        self.tables.insert(extent, stats);
    }

    /// Statistics for an extent.
    pub fn table(&self, extent: &str) -> Option<&TableStats> {
        self.tables.get(extent)
    }

    /// Cardinality of an extent.
    pub fn cardinality(&self, extent: &str) -> Option<u64> {
        self.table(extent).map(|t| t.rows)
    }

    /// Distinct-value count of `extent.attr`.
    pub fn distinct(&self, extent: &str, attr: &str) -> Option<u64> {
        self.table(extent)
            .and_then(|t| t.attrs.get(attr))
            .map(|a| a.distinct)
    }

    /// Average set size of a set-valued `extent.attr` (`None` when the
    /// attribute is scalar or unknown).
    pub fn avg_set_len(&self, extent: &str, attr: &str) -> Option<f64> {
        self.table(extent)
            .and_then(|t| t.attrs.get(attr))
            .and_then(|a| a.avg_set_len)
    }

    /// Mean encoded row width of an extent in bytes (`None` when
    /// unknown).
    pub fn avg_row_bytes(&self, extent: &str) -> Option<f64> {
        self.table(extent).and_then(|t| t.avg_row_bytes)
    }

    /// True when no statistics are present at all.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Folds measured per-operator output cardinalities (label →
    /// `rows_out`, as produced by `Stats::operator_rows_by_label` after
    /// executing a plan) back into the statistics. `Scan(EXTENT)` rows
    /// update the extent cardinality itself; every label lands in the
    /// observed-cardinality override map the cost model consults on the
    /// next planning round.
    ///
    /// Returns `true` when any observation **materially** changed what
    /// the statistics previously claimed (more than 2× off, or a
    /// first-time observation of a label) — the signal that cached
    /// plans priced on the old numbers should be invalidated. Absorbing
    /// the same profile twice returns `false`, so the feedback loop
    /// converges instead of invalidating forever.
    pub fn absorb_observed<'p>(
        &mut self,
        profile: impl IntoIterator<Item = (&'p str, u64)>,
    ) -> bool {
        let mut material = false;
        for (label, rows) in profile {
            if let Some(extent) = label
                .strip_prefix("Scan(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                if let Some(t) = self.tables.get_mut(extent) {
                    if materially_differs(t.rows, rows) {
                        material = true;
                    }
                    t.rows = rows;
                }
            }
            match self.observed.get(label) {
                None => material = true,
                Some(&old) if materially_differs(old, rows) => material = true,
                Some(_) => {}
            }
            self.observed.insert(label.to_string(), rows);
        }
        material
    }

    /// The observed output cardinality previously absorbed for an
    /// operator label, if any.
    pub fn observed_rows(&self, label: &str) -> Option<u64> {
        self.observed.get(label).copied()
    }

    /// Whether any execution feedback has been absorbed.
    pub fn has_observations(&self) -> bool {
        !self.observed.is_empty()
    }
}

/// Every extent of `db` with its class, in catalog order.
fn extents(db: &Database) -> impl Iterator<Item = (&ClassDef, &Table)> {
    db.catalog()
        .classes()
        .filter_map(|class| Some((class, db.table(&class.extent)?)))
}

/// A set of distinct attribute values: borrowed from the table for a
/// one-off scan, owned when the sums outlive the scan.
trait Distinct<'a>: Default {
    fn add(&mut self, value: &'a Value);
    fn count(&self) -> usize;
}

impl<'a> Distinct<'a> for FxHashSet<&'a Value> {
    fn add(&mut self, value: &'a Value) {
        self.insert(value);
    }
    fn count(&self) -> usize {
        self.len()
    }
}

/// Clones only values not seen yet; a string, tuple or set clone is a
/// reference-count bump, so the table's data is not copied.
impl Distinct<'_> for FxHashSet<Value> {
    fn add(&mut self, value: &Value) {
        if !self.contains(value) {
            self.insert(value.clone());
        }
    }
    fn count(&self) -> usize {
        self.len()
    }
}

/// Running sums for one attribute.
struct AttrSums<D> {
    attr: Name,
    distinct: D,
    /// `(sets, elements)` when the attribute is set-valued.
    sets: Option<(u64, u64)>,
}

/// Running sums over a prefix of one extent's rows, from which
/// [`TableStats`] follow exactly.
struct ExtentSums<D> {
    rows: u64,
    bytes: usize,
    /// Every attribute but the identity, whose distinct count is the
    /// row count because [`Table::insert`] rejects duplicate oids.
    attrs: Vec<AttrSums<D>>,
}

impl<D: Default> ExtentSums<D> {
    fn new(class: &ClassDef) -> Self {
        ExtentSums {
            rows: 0,
            bytes: 0,
            attrs: class
                .attrs
                .iter()
                .filter(|(attr, _)| **attr != class.identity)
                .map(|(attr, _)| AttrSums {
                    attr: attr.clone(),
                    distinct: D::default(),
                    sets: None,
                })
                .collect(),
        }
    }

    /// The row walk: folds `rows` into the sums.
    fn fold<'a>(&mut self, rows: &'a [Tuple])
    where
        D: Distinct<'a>,
    {
        self.rows += rows.len() as u64;
        self.bytes += rows
            .iter()
            .map(oodb_value::codec::encoded_row_size)
            .sum::<usize>();
        for sums in &mut self.attrs {
            for row in rows {
                match row.get(&sums.attr) {
                    Some(Value::Set(s)) => {
                        let (n, total) = sums.sets.unwrap_or((0, 0));
                        sums.sets = Some((n + 1, total + s.len() as u64));
                        for elem in s.iter() {
                            sums.distinct.add(elem);
                        }
                    }
                    Some(v) => sums.distinct.add(v),
                    None => {}
                }
            }
        }
    }

    fn finish<'a>(&self, identity: &Name) -> TableStats
    where
        D: Distinct<'a>,
    {
        let mut attrs: FxHashMap<Name, AttrStats> = self
            .attrs
            .iter()
            .map(|sums| {
                let stats = AttrStats {
                    distinct: sums.distinct.count() as u64,
                    avg_set_len: sums
                        .sets
                        .map(|(n, total)| total as f64 / (n as f64).max(1.0)),
                };
                (sums.attr.clone(), stats)
            })
            .collect();
        attrs.insert(
            identity.clone(),
            AttrStats {
                distinct: self.rows,
                avg_set_len: None,
            },
        );
        TableStats {
            rows: self.rows,
            attrs,
            avg_row_bytes: (self.rows > 0).then(|| self.bytes as f64 / self.rows as f64),
        }
    }
}

/// [`CatalogStats::from_database`] kept current across writes: each
/// extent is walked once per version at most, and an extent that only
/// grew since the last [`StatsCollector::collect`] has just its
/// appended rows walked.
///
/// Per extent the collector keeps the last [`TableStats`] with the
/// extent's version and row count. While both are unchanged — or only
/// the version moved, as [`Database::create_index`] does, because tables
/// are append-only — the stats are reused. On an extent's first change
/// the collector walks it once more, this time keeping owned running
/// sums; from then on each collect folds in only the rows appended
/// since. Extents never written keep no sums, so a read-only server
/// holds no more than its [`TableStats`].
///
/// A collector follows one database *lineage*: one [`Database`] and
/// the writes applied to it. An extent whose version or row count went
/// down is taken for another database and walked afresh, but another
/// database that happens to look like a later version of this one would
/// be folded as if it were.
#[derive(Default)]
pub struct StatsCollector {
    extents: FxHashMap<Name, Kept>,
    /// Extents whose version moved in the last collect.
    moved: Vec<Name>,
    /// Rows walked over the collector's lifetime.
    rows_scanned: u64,
}

/// What [`StatsCollector`] keeps of one extent.
struct Kept {
    version: u64,
    rows: usize,
    stats: TableStats,
    /// Owned running sums, from the extent's first change on.
    sums: Option<ExtentSums<FxHashSet<Value>>>,
}

impl Kept {
    /// Whether an extent at `version` holding `rows` can be this one
    /// after appends and index builds. Rows only arrive with a version
    /// bump, so anything else is another database.
    fn precedes(&self, version: u64, rows: usize) -> bool {
        version >= self.version
            && rows >= self.rows
            && (version > self.version || rows == self.rows)
    }
}

impl StatsCollector {
    /// A collector that has seen no database yet.
    pub fn new() -> Self {
        StatsCollector::default()
    }

    /// Statistics of `db`, equal to [`CatalogStats::from_database`]`(db)`.
    pub fn collect(&mut self, db: &Database) -> CatalogStats {
        let mut kept = FxHashMap::default();
        let mut stats = CatalogStats::new();
        self.moved.clear();
        for (class, table) in extents(db) {
            let (version, rows) = (table.version(), table.len());
            let mut ext = match self.extents.remove(&class.extent) {
                Some(k) if k.precedes(version, rows) => k,
                _ => {
                    let mut sums = ExtentSums::<FxHashSet<&Value>>::new(class);
                    sums.fold(table.rows_since(0));
                    self.rows_scanned += rows as u64;
                    self.moved.push(class.extent.clone());
                    Kept {
                        version,
                        rows,
                        stats: sums.finish(&class.identity),
                        sums: None,
                    }
                }
            };
            if ext.version != version {
                self.moved.push(class.extent.clone());
            }
            if ext.rows != rows {
                // The first change walks the whole extent into owned
                // sums; later ones walk only what was appended.
                let from = if ext.sums.is_some() { ext.rows } else { 0 };
                let appended = table.rows_since(from);
                let sums = ext.sums.get_or_insert_with(|| ExtentSums::new(class));
                sums.fold(appended);
                self.rows_scanned += appended.len() as u64;
                ext.stats = sums.finish(&class.identity);
                ext.rows = rows;
            }
            ext.version = version;
            stats.tables.insert(class.extent.clone(), ext.stats.clone());
            kept.insert(class.extent.clone(), ext);
        }
        self.extents = kept;
        stats
    }

    /// The extents whose version moved in the last
    /// [`StatsCollector::collect`], including those seen for the first
    /// time.
    pub fn moved(&self) -> &[Name] {
        &self.moved
    }

    /// Rows walked by every [`StatsCollector::collect`] so far.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::supplier_part_db;

    #[test]
    fn collects_cardinalities_and_distincts() {
        let db = supplier_part_db();
        let s = CatalogStats::from_database(&db);
        assert_eq!(s.cardinality("PART"), Some(7));
        assert_eq!(s.cardinality("SUPPLIER"), Some(5));
        assert_eq!(s.cardinality("DELIVERY"), Some(3));
        // 7 distinct pids, 4 distinct colors in the fixture
        assert_eq!(s.distinct("PART", "pid"), Some(7));
        assert_eq!(s.distinct("PART", "color"), Some(4));
        assert_eq!(s.cardinality("NOPE"), None);
        assert_eq!(s.distinct("PART", "nope"), None);
    }

    #[test]
    fn set_valued_attrs_get_avg_len_and_element_domain() {
        let db = supplier_part_db();
        let s = CatalogStats::from_database(&db);
        // s1..s5 supply 3+2+4+0+2 = 11 part refs over 5 suppliers
        let avg = s.avg_set_len("SUPPLIER", "parts").unwrap();
        assert!((avg - 11.0 / 5.0).abs() < 1e-9, "avg {avg}");
        // element domain: distinct referenced oids (11..14, 17, 999) = 6
        assert_eq!(s.distinct("SUPPLIER", "parts"), Some(6));
        // scalar attr has no set length
        assert_eq!(s.avg_set_len("PART", "color"), None);
    }

    #[test]
    fn empty_and_synthetic_tables() {
        let mut s = CatalogStats::new();
        assert!(s.is_empty());
        let mut ts = TableStats {
            rows: 1000,
            attrs: FxHashMap::default(),
            avg_row_bytes: None,
        };
        ts.attrs.insert(
            Name::from("k"),
            AttrStats {
                distinct: 1000,
                avg_set_len: None,
            },
        );
        s.set_table(Name::from("T"), ts);
        assert_eq!(s.cardinality("T"), Some(1000));
        assert_eq!(s.distinct("T", "k"), Some(1000));
        assert!(!s.is_empty());
    }

    #[test]
    fn absorb_observed_updates_scans_and_converges() {
        let mut s = CatalogStats::new();
        s.set_table(
            Name::from("T"),
            TableStats {
                rows: 1000,
                attrs: FxHashMap::default(),
                avg_row_bytes: None,
            },
        );
        assert!(!s.has_observations());
        // First absorption: scan cardinality corrected, new labels are
        // material.
        let material = s.absorb_observed([("Scan(T)", 120), ("Filter", 7)]);
        assert!(material, "first observation is material");
        assert_eq!(s.cardinality("T"), Some(120));
        assert_eq!(s.observed_rows("Filter"), Some(7));
        assert!(s.has_observations());
        // Same profile again: converged, nothing material.
        assert!(!s.absorb_observed([("Scan(T)", 120), ("Filter", 7)]));
        // Small drift stays within the 2x band.
        assert!(!s.absorb_observed([("Filter", 9)]));
        assert_eq!(s.observed_rows("Filter"), Some(9));
        // A >2x shift is material again.
        assert!(s.absorb_observed([("Filter", 40)]));
    }
}
