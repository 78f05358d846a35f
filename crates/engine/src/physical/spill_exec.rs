//! Out-of-core execution: grace hash join and external merge sort — the
//! engine half of the `oodb-spill` subsystem.
//!
//! Under an unbounded [`MemoryBudget`] (the default) every operator keeps
//! its state in memory, and of this code only a sort-merge join's
//! [`MergeCursor`] runs, over one in-memory run per side. Under a bounded
//! budget:
//!
//! * **Grace hash join** ([`grace_join`]):
//!   when a build side's keyed rows exceed the budget, both build *and*
//!   probe rows are hash-partitioned to spill files and the join runs
//!   partition by partition, recursively re-partitioning any partition
//!   that still exceeds the budget (skew). Equi-keyed probe rows route
//!   to exactly one partition, so semi/anti/outer handling stays local;
//!   membership probes may span partitions, so matches are tracked by
//!   probe-row ordinal and resolved in a final pass over a pending file.
//! * **External merge sort** ([`MergeCursor`] /
//!   [`budgeted_canonical_set`]): sort-merge join sides and canonical-set
//!   boundaries accumulate at most a budget's worth of rows, sort and
//!   spill them as a run, and k-way merge the runs back (deduplicating
//!   at set boundaries, exactly like `Set::from_values`). A sort-merge
//!   join merges its two sides' runs into output a chunk at a time, so
//!   its output streams under a budget too.
//!
//! Every spill file holds row records of one shape, the keys followed by
//! the row; a canonical-set run is a keyed run with empty keys. The
//! pipeline's batch layout never reaches disk.
//!
//! §6.2's set materialization has no spill path of its own: the
//! `nestjoin-map` rewrite turns it into a membership nestjoin, whose
//! build side spills through the grace hash join above like any other
//! member join.
//!
//! All partition routing hashes the canonical key values with a
//! per-recursion-level remix, so equal keys always meet in the same
//! partition and recursion actually redistributes.

use super::hashjoin::{
    self, BoundJoin, JoinFamily, JoinHashTable, JoinMode, Keyed, MemberHashTable, MemberShape,
    RowMatches,
};
use super::operator::{BoxOp, ExecCtx};
use crate::bound::Cx;
use crate::eval::EvalError;
use crate::stats::Stats;
use oodb_adl::expr::JoinKind;
use oodb_spill::{MemoryBudget, SpillManager, SpillMetrics, SpillReader};
use oodb_value::codec::encoded_size;
use oodb_value::fxhash::{FxHashMap, FxHashSet};
use oodb_value::{Name, Set, Value};

/// An equal-key group from a merged run stream: the key and its rows.
type KeyGroup = (Vec<Value>, Vec<Value>);

/// Spill partitions per grace pass. Skewed partitions re-partition with
/// the same fan-out at the next recursion level.
pub(crate) const GRACE_FANOUT: usize = 8;

/// Recursion bound for grace re-partitioning: a partition whose keys are
/// all equal cannot be split, so after this many levels it is built
/// whole regardless of the budget (honest grace degrades, it never
/// loops).
pub(crate) const MAX_GRACE_DEPTH: u32 = 4;

/// The partition a hashed key routes to at a recursion level. Levels are
/// remixed so recursion redistributes instead of re-creating the parent
/// partition.
fn partition_of(h: u64, level: u32) -> usize {
    let mixed = (h ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(level) + 1))
        .rotate_left(7 * (level + 1))
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    (mixed % GRACE_FANOUT as u64) as usize
}

/// Groups a row's keys by the partition each routes to at `level` —
/// the one routing invariant build and probe sides (and every
/// recursion level) must share: equal keys always meet in the same
/// partition.
fn group_by_partition(
    keys: impl IntoIterator<Item = Value>,
    level: u32,
) -> Vec<(usize, Vec<Value>)> {
    let mut per_part: Vec<(usize, Vec<Value>)> = Vec::new();
    for k in keys {
        let p = partition_of(hashjoin::value_hash(&k), level);
        match per_part.iter_mut().find(|(q, _)| *q == p) {
            Some((_, ks)) => ks.push(k),
            None => per_part.push((p, vec![k])),
        }
    }
    per_part
}

/// Encoded size of one keyed entry — the unit the budget is charged in.
pub(crate) fn entry_bytes(keys: &[Value], row: &Value) -> usize {
    keys.iter().map(encoded_size).sum::<usize>() + encoded_size(row)
}

/// Folds a manager's I/O totals into the operator-local metrics and the
/// pipeline-global counters.
fn account(local: &mut SpillMetrics, stats: &mut Stats, mgr: &SpillManager) {
    local.absorb(&mgr.metrics);
    stats.spill_bytes += mgr.metrics.bytes;
    stats.spill_partitions += mgr.metrics.partitions;
    stats.spill_passes += mgr.metrics.passes;
}

/// A keyed record on disk: the keys followed by the row (`keys` +
/// `[row]`), so `rec[..rec.len()-1]` are the keys and the last value is
/// the row — no arity prefix needed.
fn split_keyed(mut rec: Vec<Value>) -> (Vec<Value>, Value) {
    let row = rec.pop().expect("keyed records carry at least the row");
    (rec, row)
}

/// Writes one keyed record without cloning any value — grace recursion
/// re-writes surviving rows once per level, so a deep clone here would
/// be the hottest allocation in the spill path (the short pointer
/// buffer is cheap by comparison).
fn write_keyed(
    w: &mut oodb_spill::SpillWriter,
    keys: &[Value],
    row: &Value,
) -> Result<(), EvalError> {
    let mut parts: Vec<&Value> = Vec::with_capacity(keys.len() + 1);
    parts.extend(keys.iter());
    parts.push(row);
    w.write_record_refs(&parts)?;
    Ok(())
}

/// Reads a sealed partition back as keyed entries, with their total
/// encoded size.
fn read_keyed(reader: Option<SpillReader>) -> Result<(Vec<Keyed>, usize), EvalError> {
    let mut entries = Vec::new();
    let mut bytes = 0usize;
    if let Some(mut r) = reader {
        while let Some(rec) = r.next_record()? {
            let (keys, row) = split_keyed(rec);
            bytes += entry_bytes(&keys, &row);
            entries.push((keys, row));
        }
    }
    Ok((entries, bytes))
}

// ---------------------------------------------------------------------
// Grace hash join.

/// Grace hash join for the hash join family `join` executes, within
/// the context's budget. `keyed_build` is the fully drained,
/// key-evaluated build side that was found to exceed the budget; `probe`
/// is the still-streaming probe child, drained batch by batch straight
/// into partition files (it is never materialized whole).
pub(crate) fn grace_join(
    join: &BoundJoin,
    keyed_build: Vec<Keyed>,
    probe: &mut BoxOp,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    let budget = ctx.opts.budget.clone();
    match &join.spec.family {
        JoinFamily::Equi { .. } => grace_equi_join(join, keyed_build, probe, &budget, local, ctx),
        JoinFamily::Member { shape } => {
            grace_member_join(join, shape, keyed_build, probe, &budget, local, ctx)
        }
        JoinFamily::Loop
        | JoinFamily::Index { .. }
        | JoinFamily::Sorted { .. }
        | JoinFamily::Owners { .. } => hashjoin::not_hashed(),
    }
}

/// [`grace_join`] for the equi-keyed family ([`JoinFamily::Equi`]:
/// `HashJoin` / `HashNestJoin`).
fn grace_equi_join(
    join: &BoundJoin,
    keyed_build: Vec<Keyed>,
    probe: &mut BoxOp,
    budget: &MemoryBudget,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    let mut mgr = SpillManager::new(budget);

    // Pass 0: partition the build side.
    mgr.metrics.passes += 1;
    let mut bw = mgr.partition_writers(GRACE_FANOUT)?;
    for (keys, row) in keyed_build {
        let p = partition_of(hashjoin::key_hash(&keys), 0);
        write_keyed(&mut bw[p], &keys, &row)?;
    }

    // Partition the probe side as it streams past.
    let mut pw = mgr.partition_writers(GRACE_FANOUT)?;
    while let Some(batch) = probe.next_batch(ctx)? {
        let mut cx = join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
        for x in batch.into_values() {
            let keys = join.left_keys(&x, &mut cx)?;
            let p = partition_of(hashjoin::key_hash(&keys), 0);
            write_keyed(&mut pw[p], &keys, &x)?;
        }
    }

    let mut work: Vec<(Option<SpillReader>, Option<SpillReader>, u32)> = bw
        .into_iter()
        .zip(pw)
        .map(|(b, p)| Ok((mgr.seal(b)?, mgr.seal(p)?, 0)))
        .collect::<Result<_, EvalError>>()?;

    // Partition-at-a-time join, recursing on partitions that still
    // exceed the budget.
    let mut out = Vec::new();
    while let Some((build, probe_r, level)) = work.pop() {
        let Some(mut probe_r) = probe_r else {
            continue; // no probe rows: every join kind emits nothing
        };
        let (entries, bytes) = read_keyed(build)?;
        if budget.exceeded_by(bytes) && level < MAX_GRACE_DEPTH && entries.len() > 1 {
            mgr.metrics.passes += 1;
            let mut bw = mgr.partition_writers(GRACE_FANOUT)?;
            for (keys, row) in entries {
                let p = partition_of(hashjoin::key_hash(&keys), level + 1);
                write_keyed(&mut bw[p], &keys, &row)?;
            }
            let mut pw = mgr.partition_writers(GRACE_FANOUT)?;
            while let Some(rec) = probe_r.next_record()? {
                let (keys, row) = split_keyed(rec);
                let p = partition_of(hashjoin::key_hash(&keys), level + 1);
                write_keyed(&mut pw[p], &keys, &row)?;
            }
            for (b, p) in bw.into_iter().zip(pw) {
                work.push((mgr.seal(b)?, mgr.seal(p)?, level + 1));
            }
            continue;
        }
        let table = JoinHashTable::from_keyed(entries, &mut ctx.stats.hash_build_rows);
        let mut cx = join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
        while let Some(rec) = probe_r.next_record()? {
            let (keys, x) = split_keyed(rec);
            table.probe_row(join, &keys, &x, &mut out, &mut cx)?;
        }
    }
    account(local, ctx.stats, &mgr);
    Ok(out)
}

/// [`grace_join`] for the membership family ([`JoinFamily::Member`]:
/// `HashMemberJoin` / `MemberNestJoin`). Build rows are replicated per
/// partition with only that partition's index keys; probe rows may
/// probe several partitions, so each carries its ordinal and matches
/// are folded across partitions: semi/anti and outer padding resolve in
/// a final pass over a once-written pending file, and nestjoin groups
/// accumulate per ordinal.
fn grace_member_join(
    join: &BoundJoin,
    shape: &MemberShape,
    keyed_build: Vec<Keyed>,
    probe: &mut BoxOp,
    budget: &MemoryBudget,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    let (spec, mode) = (&join.spec, &join.spec.mode);
    let inner_join = matches!(
        mode,
        JoinMode::Join {
            kind: JoinKind::Inner,
            ..
        }
    );
    let semi_like = matches!(
        mode,
        JoinMode::Join {
            kind: JoinKind::Semi | JoinKind::Anti,
            ..
        }
    );
    let mut mgr = SpillManager::new(budget);

    // Pass 0: route each build row's keys, replicating the row into
    // every partition that owns one of them.
    mgr.metrics.passes += 1;
    let mut bw = mgr.partition_writers(GRACE_FANOUT)?;
    for (keys, row) in keyed_build {
        for (p, ks) in group_by_partition(keys, 0) {
            write_keyed(&mut bw[p], &ks, &row)?;
        }
    }

    // Probe records carry [ordinal, keys.., row]; matches fold by
    // ordinal. An inner join needs no pending pass (pairs are emitted
    // inline and provably unique across partitions).
    let mut out = Vec::new();
    let mut pw = mgr.partition_writers(GRACE_FANOUT)?;
    let mut pending = (!inner_join).then(|| mgr.writer()).transpose()?;
    let mut ordinal: i64 = 0;
    while let Some(batch) = probe.next_batch(ctx)? {
        let mut cx = join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
        for x in batch.into_values() {
            let probes = join.probe_keys(shape, &x, &mut cx)?;
            let probes = probes.as_slice();
            if probes.is_empty() {
                spec.finish_row(RowMatches::default(), &x, &mut out)?;
                continue;
            }
            let id = ordinal;
            ordinal += 1;
            for (p, ks) in group_by_partition(probes.iter().cloned(), 0) {
                let idv = Value::Int(id);
                let mut parts: Vec<&Value> = Vec::with_capacity(ks.len() + 2);
                parts.push(&idv);
                parts.extend(ks.iter());
                parts.push(&x);
                pw[p].write_record_refs(&parts)?;
            }
            if let Some(pend) = &mut pending {
                pend.write_record(&[Value::Int(id), x])?;
            }
        }
    }

    let mut work: Vec<(Option<SpillReader>, Option<SpillReader>, u32)> = bw
        .into_iter()
        .zip(pw)
        .map(|(b, p)| Ok((mgr.seal(b)?, mgr.seal(p)?, 0)))
        .collect::<Result<_, EvalError>>()?;

    // Cross-partition fold state.
    let mut matched: FxHashSet<i64> = FxHashSet::default();
    let mut groups: FxHashMap<i64, Vec<Value>> = FxHashMap::default();

    while let Some((build, probe_r, level)) = work.pop() {
        let Some(mut probe_r) = probe_r else {
            continue;
        };
        let (entries, bytes) = read_keyed(build)?;
        if budget.exceeded_by(bytes) && level < MAX_GRACE_DEPTH && entries.len() > 1 {
            mgr.metrics.passes += 1;
            let mut bw = mgr.partition_writers(GRACE_FANOUT)?;
            for (keys, row) in entries {
                for (p, ks) in group_by_partition(keys, level + 1) {
                    write_keyed(&mut bw[p], &ks, &row)?;
                }
            }
            let mut pw = mgr.partition_writers(GRACE_FANOUT)?;
            while let Some(mut rec) = probe_r.next_record()? {
                let row = rec.pop().expect("probe record has a row");
                let id = rec.remove(0);
                for (p, ks) in group_by_partition(rec, level + 1) {
                    let mut parts: Vec<&Value> = Vec::with_capacity(ks.len() + 2);
                    parts.push(&id);
                    parts.extend(ks.iter());
                    parts.push(&row);
                    pw[p].write_record_refs(&parts)?;
                }
            }
            for (b, p) in bw.into_iter().zip(pw) {
                work.push((mgr.seal(b)?, mgr.seal(p)?, level + 1));
            }
            continue;
        }
        let table: MemberHashTable =
            MemberHashTable::from_keyed(entries, &mut ctx.stats.hash_build_rows);
        let mut cx = join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
        while let Some(mut rec) = probe_r.next_record()? {
            let x = rec.pop().expect("probe record has a row");
            let id = rec.remove(0).as_int()?;
            // semi/anti need only existence, and only if not already known
            if semi_like && matched.contains(&id) {
                // still charge the probes a serial semi-join would skip?
                // No: a serial semi-join also stops at the first match.
                continue;
            }
            // inner and outer pairs go straight to `out`; the rest folds
            let mut row = RowMatches::default();
            table.match_keys(join, &rec, &x, &mut row, &mut out, &mut cx)?;
            if row.matched {
                matched.insert(id);
            }
            if !row.group.is_empty() {
                groups.entry(id).or_default().extend(row.group);
            }
        }
    }

    // Final pass: resolve per-ordinal outcomes.
    if let Some(pend) = pending {
        if let Some(mut r) = mgr.seal(pend)? {
            while let Some(mut rec) = r.next_record()? {
                let x = rec.pop().expect("pending record has a row");
                let id = rec.remove(0).as_int()?;
                let row = RowMatches {
                    matched: matched.contains(&id),
                    group: groups.remove(&id).unwrap_or_default(),
                    sorted: false,
                };
                spec.finish_row(row, &x, &mut out)?;
            }
        }
    }
    account(local, ctx.stats, &mgr);
    Ok(out)
}

// ---------------------------------------------------------------------
// Streaming ν (incremental grouping).

/// Incremental group table for the streaming ν operator: rows arrive
/// batch by batch, each contributing its `A`-projection to the group
/// keyed by the remaining attributes (paper def. 8). Result-identical
/// to [`crate::eval::nest_set`] over the canonical set of the same
/// rows: duplicate inputs collapse inside each group's result `Set` and
/// the caller canonicalizes the emitted rows, so no pre-deduplicating
/// drain is needed.
///
/// Under a bounded budget a full table flushes its `(key, collected)`
/// pairs to hash partitions through the [`SpillManager`]. Equal keys
/// route to the same partition at every flush, so partial groups
/// re-meet at rebuild time; a rebuilt partition that still exceeds the
/// budget re-partitions recursively, exactly like the grace joins.
pub(crate) struct StreamingNest {
    as_attr: Name,
    budget: MemoryBudget,
    groups: FxHashMap<Value, Vec<Value>>,
    order: Vec<Value>,
    bytes: usize,
    mgr: Option<SpillManager>,
    writers: Vec<oodb_spill::SpillWriter>,
}

impl StreamingNest {
    pub(crate) fn new(as_attr: &Name, budget: &MemoryBudget) -> Self {
        StreamingNest {
            as_attr: as_attr.clone(),
            budget: budget.clone(),
            groups: FxHashMap::default(),
            order: Vec::new(),
            bytes: 0,
            mgr: None,
            writers: Vec::new(),
        }
    }

    /// Extracts a row's group key and collected projection (the row
    /// minus / restricted to `attrs`) and adds it to the table,
    /// flushing to partitions when the budget is exceeded.
    pub(crate) fn push(&mut self, row: &Value, attrs: &[Name]) -> Result<(), EvalError> {
        let t = row.as_tuple()?;
        let collected = Value::Tuple(t.subscript(attrs)?);
        let mut key = t.clone();
        for a in attrs {
            key = key.without(a);
        }
        let key = Value::Tuple(key);
        self.bytes += encoded_size(&key) + encoded_size(&collected);
        match self.groups.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(collected),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.order.push(key);
                e.insert(vec![collected]);
            }
        }
        if self.budget.exceeded_by(self.bytes) {
            self.flush()?;
        }
        Ok(())
    }

    /// Spills every resident `(key, collected)` pair to its hash
    /// partition and clears the table.
    fn flush(&mut self) -> Result<(), EvalError> {
        if self.mgr.is_none() {
            let mut mgr = SpillManager::new(&self.budget);
            mgr.metrics.passes += 1;
            self.writers = mgr.partition_writers(GRACE_FANOUT)?;
            self.mgr = Some(mgr);
        }
        for key in self.order.drain(..) {
            let vals = self.groups.remove(&key).expect("group exists");
            let p = partition_of(hashjoin::value_hash(&key), 0);
            for v in vals {
                write_keyed(&mut self.writers[p], std::slice::from_ref(&key), &v)?;
            }
        }
        self.bytes = 0;
        Ok(())
    }

    /// Closes the table: merges spilled partials (if any) with the
    /// resident groups and emits one row per group. Rows come out in
    /// partition/insertion order — the caller canonicalizes.
    pub(crate) fn finish(
        mut self,
        local: &mut SpillMetrics,
        stats: &mut Stats,
    ) -> Result<Vec<Value>, EvalError> {
        let mut out = Vec::with_capacity(self.order.len());
        if self.mgr.is_none() {
            for key in self.order {
                let vals = self.groups.remove(&key).expect("group exists");
                emit_group(key, vals, &self.as_attr, &mut out)?;
            }
            return Ok(out);
        }
        // Something spilled: the resident partials must join their
        // partitioned siblings, or a key split across a flush and the
        // tail would emit two half-groups.
        self.flush()?;
        let mut mgr = self.mgr.take().expect("flushed above");
        let mut work: Vec<(Option<SpillReader>, u32)> = Vec::new();
        for w in self.writers.drain(..) {
            work.push((mgr.seal(w)?, 0));
        }
        while let Some((reader, level)) = work.pop() {
            let (entries, bytes) = read_keyed(reader)?;
            if entries.is_empty() {
                continue;
            }
            let mut groups: FxHashMap<Value, Vec<Value>> = FxHashMap::default();
            let mut order: Vec<Value> = Vec::new();
            for (mut keys, collected) in entries {
                let key = keys.pop().expect("single group key");
                match groups.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().push(collected)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        order.push(key);
                        e.insert(vec![collected]);
                    }
                }
            }
            if self.budget.exceeded_by(bytes) && level < MAX_GRACE_DEPTH && order.len() > 1 {
                // skewed partition: redistribute at the next level
                mgr.metrics.passes += 1;
                let mut pw = mgr.partition_writers(GRACE_FANOUT)?;
                for key in order {
                    let vals = groups.remove(&key).expect("group exists");
                    let p = partition_of(hashjoin::value_hash(&key), level + 1);
                    for v in vals {
                        write_keyed(&mut pw[p], std::slice::from_ref(&key), &v)?;
                    }
                }
                for w in pw {
                    work.push((mgr.seal(w)?, level + 1));
                }
                continue;
            }
            for key in order {
                let vals = groups.remove(&key).expect("group exists");
                emit_group(key, vals, &self.as_attr, &mut out)?;
            }
        }
        account(local, stats, &mgr);
        Ok(out)
    }
}

/// One ν output row: the group key concatenated with the collected
/// projections as a set-valued attribute (deduplicated by the `Set`
/// constructor, exactly like the reference `nest_set`).
fn emit_group(
    key: Value,
    vals: Vec<Value>,
    as_attr: &Name,
    out: &mut Vec<Value>,
) -> Result<(), EvalError> {
    let with_set = key
        .as_tuple()?
        .insert(as_attr, Value::Set(Set::from_values(vals)))?;
    out.push(Value::Tuple(with_set));
    Ok(())
}

// ---------------------------------------------------------------------
// External merge sort.

/// One side of an external sort: spilled sorted runs plus the in-memory
/// tail run, k-way merged into a single `(key, row)` stream ordered by
/// `(key, row)`.
struct KeyedRuns {
    readers: Vec<SpillReader>,
    heads: Vec<Option<(Vec<Value>, Value)>>,
    mem: std::vec::IntoIter<(Vec<Value>, Value)>,
    mem_head: Option<(Vec<Value>, Value)>,
}

impl KeyedRuns {
    /// A merge cursor over the in-memory tail run (already sorted by
    /// `(key, row)`) and every sealed spilled run — the one place the
    /// head-priming happens, so no caller can forget a run's refill.
    fn new(
        mem: Vec<Keyed>,
        mgr: &mut SpillManager,
        writers: Vec<oodb_spill::SpillWriter>,
    ) -> Result<Self, EvalError> {
        let mut runs = KeyedRuns {
            readers: Vec::new(),
            heads: Vec::new(),
            mem: mem.into_iter(),
            mem_head: None,
        };
        runs.mem_head = runs.mem.next();
        for w in writers {
            if let Some(r) = mgr.seal(w)? {
                runs.readers.push(r);
                let i = runs.heads.len();
                runs.heads.push(None);
                runs.refill(i)?;
            }
        }
        Ok(runs)
    }

    fn refill(&mut self, i: usize) -> Result<(), EvalError> {
        self.heads[i] = self.readers[i].next_record()?.map(split_keyed);
        Ok(())
    }

    /// Index of the source holding the global minimum entry, if any:
    /// `usize::MAX` denotes the in-memory run.
    fn min_source(&self) -> Option<usize> {
        let mut best: Option<(usize, &(Vec<Value>, Value))> = None;
        for (i, h) in self.heads.iter().enumerate() {
            if let Some(e) = h {
                if best.is_none_or(|(_, b)| e < b) {
                    best = Some((i, e));
                }
            }
        }
        if let Some(e) = &self.mem_head {
            if best.is_none_or(|(_, b)| e < b) {
                best = Some((usize::MAX, e));
            }
        }
        best.map(|(i, _)| i)
    }

    fn next_entry(&mut self) -> Result<Option<(Vec<Value>, Value)>, EvalError> {
        let Some(i) = self.min_source() else {
            return Ok(None);
        };
        if i == usize::MAX {
            let e = self.mem_head.take();
            self.mem_head = self.mem.next();
            Ok(e)
        } else {
            let e = self.heads[i].take();
            self.refill(i)?;
            Ok(e)
        }
    }

    /// All rows of the next equal-key group, deduplicated: every source
    /// run is sorted and unique, so the merged `(key, row)` stream is
    /// non-decreasing and equal rows from different runs arrive
    /// adjacent — comparing against the group's last row suffices.
    /// This is where the canonical-set semantics live for sort-merge
    /// inputs (under a budget the join sides arrive raw, not
    /// pre-canonicalized).
    fn next_group(&mut self) -> Result<Option<KeyGroup>, EvalError> {
        let Some((key, row)) = self.next_entry()? else {
            return Ok(None);
        };
        let mut rows = vec![row];
        loop {
            let same = match self.min_source() {
                Some(usize::MAX) => self.mem_head.as_ref().map(|(k, _)| k == &key) == Some(true),
                Some(i) => self.heads[i].as_ref().map(|(k, _)| k == &key) == Some(true),
                None => false,
            };
            if !same {
                return Ok(Some((key, rows)));
            }
            let next = self.next_entry()?.expect("peeked above").1;
            if rows.last() != Some(&next) {
                rows.push(next);
            }
        }
    }
}

/// Evaluates keys and builds bounded sorted runs for one join side,
/// spilling each full run through `mgr` (under an unbounded budget the
/// rows stay one in-memory run). Each run is deduplicated before it is
/// spilled (equal rows have equal keys, so they sort adjacent), and
/// [`KeyedRuns::next_group`] drops the cross-run duplicates the per-run
/// pass cannot see — together they reproduce the canonical-set semantics
/// without the separate canonicalize-and-spill pass the inputs used to
/// pay.
fn build_keyed_runs(
    rows: Vec<Value>,
    mut key_of: impl FnMut(&Value) -> Result<Vec<Value>, EvalError>,
    budget: &MemoryBudget,
    mgr: &mut SpillManager,
) -> Result<KeyedRuns, EvalError> {
    let mut buf: Vec<(Vec<Value>, Value)> = Vec::new();
    let mut bytes = 0usize;
    let mut writers = Vec::new();
    for v in rows {
        let key = key_of(&v)?;
        bytes += entry_bytes(&key, &v);
        buf.push((key, v));
        if budget.exceeded_by(bytes) {
            buf.sort();
            buf.dedup();
            let mut w = mgr.writer()?;
            for (k, r) in buf.drain(..) {
                write_keyed(&mut w, &k, &r)?;
            }
            writers.push(w);
            bytes = 0;
        }
    }
    buf.sort();
    buf.dedup();
    if !writers.is_empty() {
        mgr.metrics.passes += 1;
    }
    KeyedRuns::new(buf, mgr, writers)
}

/// A sort-merge join's merge cursor: both sides' keyed runs, merged
/// group by group into join output a chunk at a time. It owns the runs
/// and the [`SpillManager`] their files live under (deleted when the
/// cursor drops), so one merge serves the in-memory and the external
/// sort alike.
pub(crate) struct MergeCursor {
    left: KeyedRuns,
    right: KeyedRuns,
    /// The right side's current key group: the least key not below any
    /// left key merged so far.
    right_group: Option<KeyGroup>,
    _mgr: SpillManager,
}

impl MergeCursor {
    /// The sort phase: keys both sides' rows (left first) and sorts them
    /// into runs, spilled under `budget` with the volume charged to
    /// `local`. The rows are a canonical set or a raw drain; either way
    /// the merge sees each side as a set.
    pub(crate) fn new(
        join: &BoundJoin,
        left: Vec<Value>,
        right: Vec<Value>,
        budget: &MemoryBudget,
        local: &mut SpillMetrics,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Self, EvalError> {
        let JoinFamily::Sorted { .. } = &join.spec.family else {
            unreachable!("only a sort-merge join merges");
        };
        let mut mgr = SpillManager::new(budget);
        let left = build_keyed_runs(left, |x| join.left_keys(x, cx), budget, &mut mgr)?;
        let right = build_keyed_runs(right, |y| join.right_keys(y, cx), budget, &mut mgr);
        let mut right = right?;
        account(local, cx.stats, &mgr);
        Ok(MergeCursor {
            right_group: right.next_group()?,
            left,
            right,
            _mgr: mgr,
        })
    }

    /// Merges left key groups until at least `min_rows` output rows exist
    /// (or the left side is exhausted); `None` once fully drained. Each
    /// left group is emitted whole, so a chunk can exceed `min_rows`.
    /// Every left row is finished, so an antijoin, outer join or
    /// nestjoin emits its unmatched rows too.
    pub(crate) fn next_chunk(
        &mut self,
        join: &BoundJoin,
        min_rows: usize,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Option<Vec<Value>>, EvalError> {
        let mut out = Vec::new();
        while let Some((key, xs)) = self.left.next_group()? {
            while self.right_group.as_ref().is_some_and(|(k, _)| *k < key) {
                self.right_group = self.right.next_group()?;
            }
            let ys = match &self.right_group {
                Some((k, ys)) if *k == key => ys.as_slice(),
                _ => &[],
            };
            out.extend(join.probe_loop(ys, xs.as_slice().into(), cx)?);
            if out.len() >= min_rows {
                break;
            }
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

// ---------------------------------------------------------------------
// Budgeted canonical sets (the engine's "Sort" under a memory budget).

/// Drains a child into a canonical [`Set`] under the budget: rows
/// accumulate up to the budget, each full buffer is canonicalized
/// (sorted + deduplicated) and spilled as a run, and the runs k-way
/// merge back with duplicate elimination — external merge sort with the
/// algebra's set semantics. With no spilled run this is exactly
/// `Set::from_values`.
pub(crate) fn budgeted_canonical_set(
    op: &mut BoxOp,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Set, EvalError> {
    let budget = ctx.opts.budget.clone();
    let mut buf: Vec<Value> = Vec::new();
    let mut bytes = 0usize;
    let mut mgr: Option<SpillManager> = None;
    let mut writers = Vec::new();
    while let Some(batch) = op.next_batch(ctx)? {
        for v in batch.into_values() {
            bytes += encoded_size(&v);
            buf.push(v);
            if budget.exceeded_by(bytes) {
                buf.sort();
                buf.dedup();
                let m = mgr.get_or_insert_with(|| SpillManager::new(&budget));
                let mut w = m.writer()?;
                for v in buf.drain(..) {
                    write_keyed(&mut w, &[], &v)?;
                }
                writers.push(w);
                bytes = 0;
            }
        }
    }
    let Some(mut mgr) = mgr else {
        return Ok(Set::from_values(buf));
    };
    mgr.metrics.passes += 1;

    // K-way merge with dedupe through the shared [`KeyedRuns`] cursor
    // (a canonical-set run is a keyed run with empty keys, ordered by
    // the row itself): every source is sorted and unique, so the merged
    // stream is non-decreasing and `last` suffices to dedupe.
    buf.sort();
    buf.dedup();
    let mem: Vec<Keyed> = buf.into_iter().map(|v| (Vec::new(), v)).collect();
    let mut runs = KeyedRuns::new(mem, &mut mgr, writers)?;
    let mut out: Vec<Value> = Vec::new();
    while let Some((_, v)) = runs.next_entry()? {
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    account(local, ctx.stats, &mgr);
    Set::from_sorted(out).ok_or(EvalError::OperatorProtocol(
        "spilled runs merged out of canonical order",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Env, Evaluator};
    use crate::physical::operator::{ExecOptions, Operator};
    use oodb_catalog::fixtures::supplier_part_db;
    use oodb_value::{Batch, BatchKind};

    /// A source that hands out fixed row batches.
    struct Chunks(Vec<Vec<Value>>);

    impl Operator for Chunks {
        fn open(&mut self, _: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
            Ok(())
        }

        fn next_batch(&mut self, _: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
            Ok((!self.0.is_empty()).then(|| Batch::from_rows(self.0.remove(0))))
        }

        fn close(&mut self, _: &mut ExecCtx<'_, '_>) {}
    }

    #[test]
    fn canonical_set_runs_dedupe_across_runs() {
        // two of three rows recur in several budget-sized runs (and
        // within them); every third row occurs once, so a lost run shows.
        // The merged rows go through `Set::from_sorted`, so a duplicate
        // the merge lets through fails the drain.
        let rows: Vec<Value> = (0..120)
            .map(|i| {
                let k = if i % 3 == 0 { 1000 + i } else { i % 13 };
                Value::tuple([("k", Value::Int(k)), ("s", Value::str(&format!("v-{k}")))])
            })
            .collect();
        let db = supplier_part_db();
        let root = std::env::temp_dir().join(format!("oodb-canonical-runs-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let mut spilled = Vec::new();
        for batch_kind in [BatchKind::Columnar, BatchKind::Row] {
            let mut stats = Stats::new();
            let mut ctx = ExecCtx {
                ev: Evaluator::new(&db),
                env: Env::new(),
                stats: &mut stats,
                opts: ExecOptions {
                    budget: MemoryBudget::bytes(256).with_spill_dir(&root),
                    batch_kind,
                    vectorize: true,
                    timing: false,
                },
            };
            let mut op: BoxOp = Box::new(Chunks(rows.chunks(16).map(<[_]>::to_vec).collect()));
            let mut local = SpillMetrics::default();
            let set = budgeted_canonical_set(&mut op, &mut local, &mut ctx).unwrap();
            assert_eq!(set, Set::from_values(rows.clone()), "{batch_kind:?}");
            assert!(local.partitions >= 3, "{batch_kind:?}: {local:?}");
            assert!(stats.spill_bytes > 0, "{batch_kind:?}");
            spilled.push(stats.spill_bytes);
            let left: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
            assert!(left.is_empty(), "{batch_kind:?}: {left:?}");
        }
        // runs are row records whatever the pipeline's batch layout
        assert_eq!(spilled[0], spilled[1]);
        std::fs::remove_dir(&root).unwrap();
    }
}
