//! Version-stamped plan and result caches.
//!
//! Both caches key on **canonical ADL text** ([`oodb_adl::normal_key`]):
//! alpha-equivalent queries from different sessions share entries. Every
//! entry carries a [`Stamp`] — the versions of the extents the cached
//! artifact depends on, captured when the entry was built. Extent writes
//! bump per-table version counters ([`oodb_catalog::Database`]), so a
//! lookup simply compares the stamp against the live catalog: any
//! intervening write makes the entry invisible (and a subsequent insert
//! replaces it). There is no eager invalidation path to get wrong — a
//! stale entry is dead weight until FIFO eviction reclaims it.
//!
//! The dependency footprint of an ADL expression is the set of extents
//! it can read: base-table scans ([`oodb_adl::referenced_tables`]) plus
//! the extents of every class it dereferences pointers into
//! ([`oodb_adl::referenced_classes`] mapped through the catalog). The
//! planner never introduces a table the expression does not mention —
//! index nested-loop joins probe extents already present as `Table`
//! nodes, and every dereference is a `Deref` node — so the expression-level
//! footprint bounds the plan's reads.
//!
//! Eviction differs per cache. The **plan cache** evicts by
//! cost×frequency weight — the entry whose loss is cheapest to repair
//! (few hits, fast to re-plan) goes first, so one burst of throwaway
//! queries cannot flush a hot, expensive-to-optimize plan. The **result
//! cache** evicts FIFO: result values have no comparable "cost to
//! recompute" signal at insert time, and FIFO keeps the concurrency
//! tests deterministic. Instead it has a doorkeeper (TinyLFU's, Einziger
//! et al., ACM TOS 2017) that decides, when a miss starts executing,
//! whether its result is kept at all ([`ResultCache::lookup`]). A
//! newcomer is admitted while the cache has a free slot, and a key that
//! already has an entry (current or stale) always is. Once the cache is
//! full, a newcomer is only admitted on its second sighting among the
//! last `capacity` declined keys. A declined result streams without
//! being accumulated, sorted or inserted, so one-off queries cost the
//! cache nothing and evict nothing.
//!
//! Neither cache frees what it evicts or replaces while its lock is
//! held: the map hands the victims back, and they are dropped after
//! the guard.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use oodb_adl::expr::Expr;
use oodb_catalog::Database;
use oodb_core::strategy::Optimized;
use oodb_engine::{PhysPlan, Stats};
use oodb_value::{codec, Name, Value};

/// Extent versions at the time a cache entry was built. An entry is
/// *current* iff every listed extent still has its recorded version.
pub type Stamp = Vec<(Name, u64)>;

/// The extents (base tables) whose contents can influence the value of
/// any of `exprs`, sorted and deduplicated: scanned tables plus the
/// extents of dereferenced classes.
pub fn footprint(exprs: &[&Expr], db: &Database) -> Vec<Name> {
    let mut out: Vec<Name> = Vec::new();
    for e in exprs {
        out.extend(oodb_adl::referenced_tables(e));
        for class in oodb_adl::referenced_classes(e) {
            if let Some(def) = db.catalog().class(class.as_ref()) {
                out.push(def.extent.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Captures the current version of each extent in `extents`.
pub fn stamp(extents: &[Name], db: &Database) -> Stamp {
    extents
        .iter()
        .map(|n| (n.clone(), db.extent_version(n.as_ref())))
        .collect()
}

/// Whether no stamped extent has been written since the stamp was taken.
pub fn stamp_is_current(stamp: &Stamp, db: &Database) -> bool {
    stamp
        .iter()
        .all(|(n, v)| db.extent_version(n.as_ref()) == *v)
}

/// A fully planned query, reusable by any session whose planner
/// configuration fingerprint matches the cache key. Everything here is
/// lifetime-free: [`PhysPlan`] owns its expressions, so a cached plan
/// can outlive the `Planner` that built it.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// Optimizer output (rewritten expression + rule trace) — replayed
    /// into the output of cache-hit runs, which skip the optimizer.
    pub rewrite: Optimized,
    /// The physical plan, streamed directly through a
    /// [`ResultStream`](oodb_engine::ResultStream) on hits (skipping
    /// costing).
    pub phys: PhysPlan,
    /// EXPLAIN rendering captured at plan time (cost annotations
    /// included when the planner was cost-based).
    pub explain: String,
    /// Dependency footprint: every extent the query can read.
    pub extents: Vec<Name>,
    /// Versions of `extents` when this plan was cached.
    pub stamp: Stamp,
}

/// A cached query (or hoisted-`let` subquery) result.
///
/// A hit replays the value in slices ([`CachedResult::slice`]) cut at
/// the row counts of the chunks the live read streamed, so a hit repeats
/// the live read's chunk count. Each slice has one slot for its encoded
/// CHUNK body, filled by the first wire reader of that slice and shared
/// by every later one, so a result is encoded at most once however often
/// it is served. In-process readers never fill a slot.
#[derive(Debug)]
pub struct CachedResult {
    /// The materialized value.
    pub value: Value,
    /// Versions of the result's extent footprint at execution time.
    pub stamp: Stamp,
    /// The execution profile recorded when the value was computed
    /// (cache-hit counters zeroed). Replayed into the per-query `Stats`
    /// on a hit, so a served result reports the same per-operator work
    /// as the execution it stands in for — the differential suites can
    /// then assert identical profiles whether or not a value came from
    /// the cache.
    pub profile: Stats,
    /// Where each replay slice ends in the value's rows, ascending.
    ends: Box<[usize]>,
    /// `chunks[i]` holds the CHUNK body of slice `i` once a wire reader
    /// asked for it.
    chunks: Box<[OnceLock<Box<[u8]>>]>,
}

impl CachedResult {
    /// An entry whose replay cuts the value's rows at `chunk_rows`, the
    /// row counts of the chunks its live read streamed, with one empty
    /// chunk slot per slice. The value's rows are the streamed rows
    /// deduplicated, never more, so a slice that comes out empty is
    /// skipped. A hoisted `let` binding is never replayed as chunks and
    /// passes no counts.
    pub fn new(value: Value, stamp: Stamp, profile: Stats, chunk_rows: &[usize]) -> Self {
        let total = replay_rows(&value).len();
        let mut ends = Vec::with_capacity(chunk_rows.len());
        let mut end = 0;
        for &rows in chunk_rows {
            let next = (end + rows).min(total);
            if next > end {
                ends.push(next);
                end = next;
            }
        }
        CachedResult {
            value,
            stamp,
            profile,
            chunks: ends.iter().map(|_| OnceLock::new()).collect(),
            ends: ends.into(),
        }
    }

    /// Replay slice `i`: the value's rows, a set's in canonical order,
    /// from the end of slice `i - 1` to the end of slice `i`; any other
    /// (scalar) value is one 1-row slice, and an empty set has none.
    /// `None` past the last slice.
    pub fn slice(&self, i: usize) -> Option<&[Value]> {
        let end = *self.ends.get(i)?;
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        Some(&replay_rows(&self.value)[start..end])
    }

    /// Slice `i`'s row count and CHUNK body — exactly what
    /// [`crate::wire::encode_chunk`] writes for a batch of the slice's
    /// rows, in either layout: the slice as one row block. The first
    /// caller encodes the body; concurrent first callers race safely and
    /// all get the one stored copy. `None` past the last slice.
    pub fn chunk_body(&self, i: usize) -> Option<(usize, &[u8])> {
        let rows = self.slice(i)?;
        let body = self.chunks[i].get_or_init(|| {
            let mut body = Vec::new();
            codec::encode_rows(rows, &mut body);
            body.into_boxed_slice()
        });
        Some((rows.len(), body))
    }

    /// Bytes held by the filled chunk slots.
    pub fn encoded_bytes(&self) -> usize {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .map(|b| b.len())
            .sum()
    }
}

/// The rows a hit replays: a set's elements, or the one scalar value.
fn replay_rows(value: &Value) -> &[Value] {
    match value {
        Value::Set(s) => s.as_slice(),
        scalar => std::slice::from_ref(scalar),
    }
}

/// Bounded map with FIFO eviction — insertion order, not LRU, because
/// eviction policy is not what these tests exercise and FIFO keeps the
/// behavior deterministic under concurrency.
struct FifoMap<V> {
    capacity: usize,
    map: HashMap<String, V>,
    order: VecDeque<String>,
}

impl<V> FifoMap<V> {
    fn new(capacity: usize) -> Self {
        FifoMap {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &str) -> Option<&V> {
        self.map.get(key)
    }

    fn is_full(&self) -> bool {
        self.map.len() >= self.capacity
    }

    /// Inserts `value` under `key` and returns what the map let go: the
    /// value it replaced, or the oldest entries it evicted. The caller
    /// drops them, after any lock it holds.
    fn insert(&mut self, key: String, value: V) -> Vec<V> {
        let mut victims = Vec::new();
        match self.map.insert(key.clone(), value) {
            Some(replaced) => victims.push(replaced),
            None => self.order.push_back(key),
        }
        while self.map.len() > self.capacity {
            match self.order.pop_front() {
                Some(oldest) => victims.extend(self.map.remove(&oldest)),
                None => break,
            }
        }
        victims
    }
}

/// One weighted-cache slot: the entry plus the signals eviction ranks
/// on.
struct Weighted<V> {
    value: V,
    /// Times this entry was served.
    hits: u64,
    /// What building the entry cost (for plans: planning wall-clock in
    /// microseconds) — the price of evicting it wrongly.
    cost: u64,
    /// Insertion sequence number, the deterministic tie-breaker.
    seq: u64,
}

/// Bounded map with cost×frequency-weighted eviction: the victim is the
/// entry with the smallest `(1 + hits) × cost` — cheap to rebuild *and*
/// rarely used — with ties broken oldest-first. A burst of one-off
/// queries therefore cannot flush a hot, expensive-to-plan entry the
/// way FIFO would.
struct WeightedMap<V> {
    capacity: usize,
    next_seq: u64,
    map: HashMap<String, Weighted<V>>,
}

impl<V> WeightedMap<V> {
    fn new(capacity: usize) -> Self {
        WeightedMap {
            capacity: capacity.max(1),
            next_seq: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<&V> {
        self.map.get_mut(key).map(|w| {
            w.hits += 1;
            &w.value
        })
    }

    /// Inserts `value` under `key` and returns what the map let go: the
    /// value it replaced, or the entries it evicted. The caller drops
    /// them, after any lock it holds.
    fn insert(&mut self, key: String, value: V, cost: u64) -> Vec<V> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut victims = Vec::new();
        let weighted = Weighted {
            value,
            hits: 0,
            cost,
            seq,
        };
        if let Some(replaced) = self.map.insert(key.clone(), weighted) {
            victims.push(replaced.value);
        }
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key) // the newcomer always gets its chance
                .min_by_key(|(_, w)| ((1 + w.hits).saturating_mul(w.cost.max(1)), w.seq))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => victims.extend(self.map.remove(&k).map(|w| w.value)),
                None => break,
            }
        }
        victims
    }
}

/// Shared plan cache. Keys are `fingerprint ␟ epoch ␟ canonical-ADL`
/// strings (built by the session layer); values are [`CachedPlan`]s
/// behind `Arc` so hits hand out references without holding the lock.
/// Eviction is cost×frequency-weighted by planning time and hit count.
pub struct PlanCache {
    inner: Mutex<WeightedMap<Arc<CachedPlan>>>,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(WeightedMap::new(capacity)),
        }
    }

    /// The entry under `key` **if its stamp is still current** against
    /// `db`; stale entries are invisible (the caller replans and
    /// replaces them via [`PlanCache::insert`]). A hit bumps the
    /// entry's frequency weight.
    pub fn get_current(&self, key: &str, db: &Database) -> Lookup<Arc<CachedPlan>> {
        match self.inner.lock().unwrap().get(key) {
            Some(entry) if stamp_is_current(&entry.stamp, db) => Lookup::Hit(entry.clone()),
            Some(_) => Lookup::Stale,
            None => Lookup::Miss,
        }
    }

    /// Caches a plan; `planning_micros` (how long rewrite + costing
    /// took) becomes its eviction cost weight.
    pub fn insert(&self, key: String, entry: Arc<CachedPlan>, planning_micros: u64) {
        let victims = self
            .inner
            .lock()
            .expect("a plan-cache holder panicked")
            .insert(key, entry, planning_micros);
        // The guard is gone: freeing the victims keeps no lookup waiting.
        drop(victims);
    }
}

/// Shared result cache (whole-query results under `q␟…` keys, hoisted
/// `let` values under `let␟…` keys — the session layer prefixes).
/// Entries sit behind `Arc`, as in [`PlanCache`], so a hit holds the lock
/// only for a pointer copy and replays the shared value without cloning
/// it. A miss is admitted or declined by [`ResultCache::lookup`].
pub struct ResultCache {
    inner: Mutex<ResultSlots>,
}

/// What the result cache's one lock guards.
struct ResultSlots {
    entries: FifoMap<Arc<CachedResult>>,
    /// The doorkeeper: keys of the last `capacity` declined misses. A
    /// key found here is admitted; it then ages out like any other.
    ghosts: FifoMap<()>,
}

/// Outcome of a [`ResultCache::lookup`].
pub enum ResultLookup {
    /// A current entry: replay it.
    Hit(Arc<CachedResult>),
    /// A miss whose result is to be kept: accumulate it and
    /// [`ResultCache::insert`] it when it is complete.
    Admit,
    /// A miss whose result is not to be kept: stream it and drop it.
    Decline,
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(ResultSlots {
                entries: FifoMap::new(capacity),
                ghosts: FifoMap::new(capacity),
            }),
        }
    }

    /// The entry under `key` if its stamp is current, else the admission
    /// decision for the miss, taken under the one lock. A miss is
    /// admitted if `key` already has an entry, current or stale (so the
    /// first miss after a write refreshes it), if the cache has a free
    /// slot, or if `key` is among the last `capacity` declined keys (its
    /// second sighting). Otherwise it is declined, and `key` joins those.
    pub fn lookup(&self, key: &str, db: &Database) -> ResultLookup {
        let mut slots = self.inner.lock().expect("a result-cache holder panicked");
        if let Some(entry) = slots.entries.get(key).cloned() {
            drop(slots);
            return if stamp_is_current(&entry.stamp, db) {
                ResultLookup::Hit(entry)
            } else {
                ResultLookup::Admit
            };
        }
        if !slots.entries.is_full() || slots.ghosts.get(key).is_some() {
            return ResultLookup::Admit;
        }
        slots.ghosts.insert(key.to_string(), ());
        ResultLookup::Decline
    }

    /// Caches `entry` under `key`, evicting the oldest entry when the
    /// cache is full.
    pub fn insert(&self, key: String, entry: CachedResult) {
        let entry = Arc::new(entry);
        let victims = self
            .inner
            .lock()
            .expect("a result-cache holder panicked")
            .entries
            .insert(key, entry);
        // The guard is gone: freeing an evicted value (possibly a large
        // set) keeps no lookup waiting.
        drop(victims);
    }

    /// Bytes held by the filled chunk slots of every cached entry.
    pub fn encoded_bytes(&self) -> usize {
        let slots = self.inner.lock().expect("a result-cache holder panicked");
        slots.entries.map.values().map(|e| e.encoded_bytes()).sum()
    }
}

/// Outcome of a stamped cache lookup — distinguishing *stale* (an entry
/// existed but a write invalidated it) from *miss* (never planned) so
/// the server can count invalidations separately.
pub enum Lookup<T> {
    Hit(T),
    Stale,
    Miss,
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_catalog::fixtures::supplier_part_db;

    #[test]
    fn fifo_map_evicts_oldest() {
        let mut m: FifoMap<u32> = FifoMap::new(2);
        assert!(m.insert("a".into(), 1).is_empty());
        assert!(m.insert("b".into(), 2).is_empty());
        // A re-insert must not double-count; it hands back what it
        // replaced.
        assert_eq!(m.insert("a".into(), 10), vec![1]);
        assert_eq!(m.insert("c".into(), 3), vec![10], "oldest key evicted");
        assert!(m.get("a").is_none());
        assert_eq!(m.get("b"), Some(&2));
        assert_eq!(m.get("c"), Some(&3));
        assert_eq!(m.insert("d".into(), 4), vec![2], "then the next oldest");
        assert_eq!(m.map.len(), 2);
        assert_eq!(m.order.len(), 2);
    }

    #[test]
    fn weighted_map_evicts_cold_cheap_entries_first() {
        let mut m: WeightedMap<u32> = WeightedMap::new(2);
        m.insert("expensive".into(), 1, 1000);
        m.insert("cheap".into(), 2, 10);
        // Overflow: the cheap, never-hit entry goes, not the expensive
        // one (FIFO would have evicted "expensive").
        assert_eq!(m.insert("new".into(), 3, 10), vec![2]);
        assert!(m.get("cheap").is_none());
        assert_eq!(m.get("expensive"), Some(&1));
        assert_eq!(m.get("new"), Some(&3));
    }

    #[test]
    fn weighted_map_frequency_protects_cheap_entries() {
        let mut m: WeightedMap<u32> = WeightedMap::new(2);
        m.insert("a".into(), 1, 10);
        m.insert("b".into(), 2, 10);
        // Three hits on "a" outweigh equal cost; "b" is the victim.
        for _ in 0..3 {
            assert!(m.get("a").is_some());
        }
        assert_eq!(m.insert("c".into(), 3, 10), vec![2]);
        assert!(m.get("b").is_none());
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.get("c"), Some(&3));
    }

    #[test]
    fn weighted_map_reinsert_does_not_grow_and_newcomer_survives() {
        let mut m: WeightedMap<u32> = WeightedMap::new(2);
        assert!(m.insert("a".into(), 1, 10).is_empty());
        // Replace in place, handing back the old value.
        assert_eq!(m.insert("a".into(), 11, 10), vec![1]);
        assert_eq!(m.get("a"), Some(&11));
        assert!(m.insert("b".into(), 2, 1_000_000).is_empty());
        // The newcomer is never its own victim, even at minimal weight.
        assert_eq!(m.insert("c".into(), 3, 1), vec![11]);
        assert_eq!(m.get("c"), Some(&3));
        assert_eq!(m.map.len(), 2);
    }

    /// A result entry over `db`'s SUPPLIER extent, current as of now.
    fn supplier_entry(db: &Database) -> CachedResult {
        let extents = [Name::from("SUPPLIER")];
        CachedResult::new(Value::Int(1), stamp(&extents, db), Stats::default(), &[1])
    }

    fn admits(cache: &ResultCache, key: &str, db: &Database) -> bool {
        match cache.lookup(key, db) {
            ResultLookup::Hit(_) => panic!("{key}: unexpected hit"),
            ResultLookup::Admit => true,
            ResultLookup::Decline => false,
        }
    }

    fn ghost_count(cache: &ResultCache) -> usize {
        cache.inner.lock().unwrap().ghosts.map.len()
    }

    #[test]
    fn result_cache_admits_while_a_slot_is_free() {
        let db = supplier_part_db();
        let cache = ResultCache::new(2);
        assert!(admits(&cache, "a", &db), "rule (b): empty cache");
        cache.insert("a".into(), supplier_entry(&db));
        assert!(admits(&cache, "b", &db), "rule (b): one slot left");
        cache.insert("b".into(), supplier_entry(&db));
        assert!(!admits(&cache, "c", &db), "full, first sighting");
        assert_eq!(ghost_count(&cache), 1, "the declined key is remembered");
        assert!(matches!(cache.lookup("a", &db), ResultLookup::Hit(_)));
    }

    #[test]
    fn result_cache_readmits_a_stale_key() {
        let mut db = supplier_part_db();
        let cache = ResultCache::new(2);
        cache.insert("a".into(), supplier_entry(&db));
        cache.insert("b".into(), supplier_entry(&db));
        let identity = db
            .catalog()
            .class_by_extent("SUPPLIER")
            .expect("fixture class")
            .identity
            .clone();
        db.create_index("SUPPLIER", identity.as_ref())
            .expect("create index");
        // Rule (a): full cache, never declined, but "a" has an entry.
        assert!(admits(&cache, "a", &db));
        assert_eq!(ghost_count(&cache), 0, "an admitted key is not a ghost");
        cache.insert("a".into(), supplier_entry(&db));
        assert!(matches!(cache.lookup("a", &db), ResultLookup::Hit(_)));
    }

    #[test]
    fn result_cache_admits_on_second_sighting() {
        let db = supplier_part_db();
        let cache = ResultCache::new(2);
        cache.insert("a".into(), supplier_entry(&db));
        cache.insert("b".into(), supplier_entry(&db));
        assert!(!admits(&cache, "c", &db));
        // Rule (c): the ghost list remembers "c".
        assert!(admits(&cache, "c", &db));
        cache.insert("c".into(), supplier_entry(&db));
        assert!(matches!(cache.lookup("c", &db), ResultLookup::Hit(_)));
        assert!(
            matches!(cache.lookup("a", &db), ResultLookup::Decline),
            "the admitted newcomer evicted the oldest entry"
        );
    }

    #[test]
    fn result_cache_ghost_list_holds_at_most_capacity_keys() {
        let db = supplier_part_db();
        let cache = ResultCache::new(2);
        cache.insert("a".into(), supplier_entry(&db));
        cache.insert("b".into(), supplier_entry(&db));
        for key in ["g0", "g1", "g2", "g3", "g4"] {
            assert!(!admits(&cache, key, &db));
            assert!(ghost_count(&cache) <= 2);
        }
        assert_eq!(ghost_count(&cache), 2);
        // Only the last two declined keys are remembered.
        assert!(!admits(&cache, "g0", &db), "g0 aged out of the ghosts");
        assert!(admits(&cache, "g4", &db));
    }

    #[test]
    fn footprint_maps_classes_to_extents() {
        use oodb_adl::dsl::*;
        let db = supplier_part_db();
        let class = db.catalog().classes().next().expect("fixture has classes");
        let e = Expr::Deref(Box::new(var("x")), class.name.clone());
        let fp = footprint(&[&e], &db);
        assert_eq!(fp, vec![class.extent.clone()]);
    }

    #[test]
    fn stamps_expire_on_extent_writes() {
        let mut db = supplier_part_db();
        let extent = Name::from("SUPPLIER");
        let s = stamp(std::slice::from_ref(&extent), &db);
        assert!(stamp_is_current(&s, &db));
        let identity = db
            .catalog()
            .class_by_extent("SUPPLIER")
            .expect("fixture class")
            .identity
            .clone();
        db.create_index("SUPPLIER", identity.as_ref())
            .expect("create index");
        assert!(!stamp_is_current(&s, &db), "write bumps the version");
    }
}
