//! Out-of-core execution: grace hash join, external merge sort, and the
//! spill-backed PNHL — the engine half of the `oodb-spill` subsystem.
//!
//! Under an unbounded [`MemoryBudget`] (the default) none of this code
//! runs and every operator keeps its legacy in-memory behavior. Under a
//! bounded budget:
//!
//! * **Grace hash join** ([`grace_join`]):
//!   when a build side's keyed rows exceed the budget, both build *and*
//!   probe rows are hash-partitioned to spill files and the join runs
//!   partition by partition, recursively re-partitioning any partition
//!   that still exceeds the budget (skew). Equi-keyed probe rows route
//!   to exactly one partition, so semi/anti/outer handling stays local;
//!   membership probes may span partitions, so matches are tracked by
//!   probe-row ordinal and resolved in a final pass over a pending file.
//! * **External merge sort** ([`external_sort_merge_join`] /
//!   [`budgeted_canonical_set`]): sort-merge runs and canonical-set
//!   boundaries accumulate at most a budget's worth of rows, sort and
//!   spill them as a run, and k-way merge the runs back (deduplicating
//!   at set boundaries, exactly like `Set::from_values`).
//! * **PNHL** ([`pnhl_spill_rows`]): instead of re-probing every outer
//!   element once per build segment, inner rows and probe elements are
//!   hash-partitioned through the [`SpillManager`] and each element is
//!   probed exactly once, against the one partition that can match it.
//!
//! All partition routing hashes the canonical key values with a
//! per-recursion-level remix, so equal keys always meet in the same
//! partition and recursion actually redistributes.

use super::columnar::ProbeInput;
use super::hashjoin::{
    self, eval_keys, eval_under, HashMode, JoinFamily, JoinHashTable, JoinSpec, Keyed,
    MemberHashTable, MemberShape,
};
use super::operator::{BoxOp, ExecCtx};
use super::MatchKeys;
use crate::eval::EvalError;
use crate::stats::Stats;
use oodb_adl::expr::{Expr, JoinKind};
use oodb_spill::{MemoryBudget, SpillManager, SpillMetrics, SpillReader};
use oodb_value::codec::encoded_size;
use oodb_value::fxhash::{FxHashMap, FxHashSet};
use oodb_value::{Name, Set, Tuple, Value};

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

/// Rows per spilled column block. Bounds the k-way merge's residency:
/// each run's reader holds at most one decoded block, so the merge
/// keeps `runs × SPILL_BLOCK_ROWS` rows resident instead of whole runs.
pub(crate) const SPILL_BLOCK_ROWS: usize = 128;

/// The partition a hashed key routes to at a recursion level. Levels are
/// remixed so recursion redistributes instead of re-creating the parent
/// partition, and so grace routing stays decorrelated from the parallel
/// exchange's `hash % dop` routing.
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

/// Grace hash join for the hash join family `spec` describes, within
/// the context's budget. `keyed_build` is the fully drained,
/// key-evaluated build side that was found to exceed the budget; `probe`
/// is the still-streaming probe child, drained batch by batch straight
/// into partition files (it is never materialized whole).
pub(crate) fn grace_join(
    spec: &JoinSpec,
    keyed_build: Vec<Keyed>,
    probe: &mut BoxOp,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    let budget = ctx.opts.budget.clone();
    match &spec.family {
        JoinFamily::Equi { lkeys, .. } => {
            grace_equi_join(spec, lkeys, keyed_build, probe, &budget, local, ctx)
        }
        JoinFamily::Member { shape } => {
            grace_member_join(spec, shape, keyed_build, probe, &budget, local, ctx)
        }
    }
}

/// [`grace_join`] for the equi-keyed family (`HashJoin` /
/// `HashNestJoin`).
fn grace_equi_join(
    spec: &JoinSpec,
    lkeys: &[Expr],
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
        for x in batch.into_values() {
            let keys = eval_keys(lkeys, &spec.lvar, &x, &ctx.ev, &mut ctx.env, ctx.stats)?;
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
        let tables = std::slice::from_ref(&table);
        while let Some(rec) = probe_r.next_record()? {
            let (keys, x) = split_keyed(rec);
            let row = [x];
            let (ev, env, stats) = (&ctx.ev, &mut ctx.env, &mut *ctx.stats);
            let probe = ProbeInput::Rows(&row);
            JoinHashTable::probe_row(
                tables, spec, &keys, &probe, 0, &mut None, &mut out, ev, env, stats,
            )?;
        }
    }
    account(local, ctx.stats, &mgr);
    Ok(out)
}

/// [`grace_join`] for the membership family (`HashMemberJoin` /
/// `MemberNestJoin`). Build rows are replicated per partition with only
/// that partition's index keys (mirroring the parallel exchange's
/// routing); probe rows may probe several partitions, so each carries
/// its ordinal and matches are folded across partitions: semi/anti and
/// outer padding resolve in a final pass over a once-written pending
/// file, and nestjoin groups accumulate per ordinal.
fn grace_member_join(
    spec: &JoinSpec,
    shape: &MemberShape,
    keyed_build: Vec<Keyed>,
    probe: &mut BoxOp,
    budget: &MemoryBudget,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    let mode = &spec.mode;
    let inner_join = matches!(
        mode,
        HashMode::Join {
            kind: JoinKind::Inner,
            ..
        }
    );
    let semi_like = matches!(
        mode,
        HashMode::Join {
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
        for x in batch.into_values() {
            let probes = MemberHashTable::<Value>::probe_keys(
                shape,
                &spec.lvar,
                &x,
                &ctx.ev,
                &mut ctx.env,
                ctx.stats,
            )?;
            if probes.is_empty() {
                spec.finish_owned_row(x, false, Vec::new(), &mut out)?;
                continue;
            }
            let id = ordinal;
            ordinal += 1;
            for (p, ks) in group_by_partition(probes, 0) {
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
        while let Some(mut rec) = probe_r.next_record()? {
            let x = rec.pop().expect("probe record has a row");
            let id = rec.remove(0).as_int()?;
            // semi/anti need only existence, and only if not already known
            if semi_like && matched.contains(&id) {
                // still charge the probes a serial semi-join would skip?
                // No: a serial semi-join also stops at the first match.
                continue;
            }
            let ys =
                table.keyed_matches(spec, &rec, &x, semi_like, &ctx.ev, &mut ctx.env, ctx.stats)?;
            if ys.is_empty() {
                continue;
            }
            matched.insert(id);
            match mode {
                HashMode::Join { kind, .. } => match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        for y in ys {
                            out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                        }
                    }
                    JoinKind::Semi | JoinKind::Anti => {}
                },
                HashMode::Nest { rfunc, as_attr: _ } => {
                    let group = groups.entry(id).or_default();
                    for y in ys {
                        group.push(hashjoin::collect_right(
                            rfunc.as_ref(),
                            &spec.rvar,
                            y,
                            &ctx.ev,
                            &mut ctx.env,
                            ctx.stats,
                        )?);
                    }
                }
            }
        }
    }

    // Final pass: resolve per-ordinal outcomes.
    if let Some(pend) = pending {
        if let Some(mut r) = mgr.seal(pend)? {
            while let Some(mut rec) = r.next_record()? {
                let x = rec.pop().expect("pending record has a row");
                let id = rec.remove(0).as_int()?;
                let group = groups.remove(&id).unwrap_or_default();
                spec.finish_owned_row(x, matched.contains(&id), group, &mut out)?;
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
    let with_set = key.as_tuple()?.concat(&Tuple::from_pairs([(
        as_attr.as_ref(),
        Value::Set(Set::from_values(vals)),
    )]))?;
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
    /// inputs (the join sides arrive raw, not pre-canonicalized).
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
/// spilling each full run through `mgr`. Each run is deduplicated
/// before it is spilled (equal rows have equal keys, so they sort
/// adjacent), and [`KeyedRuns::next_group`] drops the cross-run
/// duplicates the per-run pass cannot see — together they reproduce the
/// canonical-set semantics without the separate canonicalize-and-spill
/// pass the inputs used to pay.
fn build_keyed_runs(
    rows: Vec<Value>,
    keys: &[Expr],
    var: &Name,
    budget: &MemoryBudget,
    mgr: &mut SpillManager,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<KeyedRuns, EvalError> {
    let mut buf: Vec<(Vec<Value>, Value)> = Vec::new();
    let mut bytes = 0usize;
    let mut writers = Vec::new();
    for v in rows {
        let key = eval_keys(keys, var, &v, &ctx.ev, &mut ctx.env, ctx.stats)?;
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

/// Sort-merge join over externally sorted runs: both sides generate
/// budget-bounded sorted runs, spill them, and the merge joins the two
/// k-way-merged streams group by group. Inputs arrive **raw** (not
/// canonicalized): set dedupe is folded into the keyed merge itself —
/// per-run dedupe before each spill plus adjacent-duplicate elimination
/// in the group cursor — so each side is spilled once instead of twice.
#[allow(clippy::too_many_arguments)]
pub(crate) fn external_sort_merge_join(
    lvar: &Name,
    rvar: &Name,
    lkeys: &[Expr],
    rkeys: &[Expr],
    residual: Option<&Expr>,
    left_rows: Vec<Value>,
    right_rows: Vec<Value>,
    budget: &MemoryBudget,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    let mut mgr = SpillManager::new(budget);
    let mut l = build_keyed_runs(left_rows, lkeys, lvar, budget, &mut mgr, ctx)?;
    let mut r = build_keyed_runs(right_rows, rkeys, rvar, budget, &mut mgr, ctx)?;
    let mut out = Vec::new();
    let mut lg = l.next_group()?;
    let mut rg = r.next_group()?;
    while let (Some((lk, lrows)), Some((rk, rrows))) = (&lg, &rg) {
        match lk.cmp(rk) {
            std::cmp::Ordering::Less => lg = l.next_group()?,
            std::cmp::Ordering::Greater => rg = r.next_group()?,
            std::cmp::Ordering::Equal => {
                for x in lrows {
                    for y in rrows {
                        ctx.stats.loop_iterations += 1;
                        if hashjoin::residual_holds(
                            residual,
                            lvar,
                            x,
                            rvar,
                            y,
                            &ctx.ev,
                            &mut ctx.env,
                            ctx.stats,
                        )? {
                            out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                        }
                    }
                }
                lg = l.next_group()?;
                rg = r.next_group()?;
            }
        }
    }
    account(local, ctx.stats, &mgr);
    Ok(out)
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
    let batch_kind = ctx.opts.batch_kind;
    let mut buf: Vec<Value> = Vec::new();
    let mut bytes = 0usize;
    let mut mgr: Option<SpillManager> = None;
    let mut writers = Vec::new();
    while let Some(batch) = op.next_batch(ctx)? {
        for v in batch.into_values() {
            bytes += encoded_size(&v);
            buf.push(v);
            if budget.exceeded_by(bytes) {
                let mut rows = std::mem::take(&mut buf);
                rows.sort();
                rows.dedup();
                let m = mgr.get_or_insert_with(|| SpillManager::new(&budget));
                let mut w = m.writer()?;
                // Runs persist in the pipeline's batch layout: columnar
                // mode serializes each run as length-prefixed column
                // blocks (dictionaries written once per block), row
                // mode as the legacy row-by-row records. Readers are
                // transparent to the difference, so the k-way merge
                // below is unchanged. Blocks are **bounded** at
                // SPILL_BLOCK_ROWS rows: a reader buffers one decoded
                // block, and the merge holds one block per run — a
                // whole-run block would re-materialize every run at
                // merge time, exactly the residency the budget exists
                // to prevent.
                while !rows.is_empty() {
                    let tail = rows.split_off(rows.len().min(SPILL_BLOCK_ROWS));
                    w.write_batch(&oodb_value::Batch::of(batch_kind, rows))?;
                    rows = tail;
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
    // already sorted and unique, but go through the canonical
    // constructor so the invariant is enforced in one place
    Ok(Set::from_values(out))
}

// ---------------------------------------------------------------------
// Spill-backed PNHL.

/// PNHL under a byte budget: the inner (flat, build) operand is
/// hash-partitioned by its key through the [`SpillManager`], and the
/// probe elements — `(outer ordinal, element key)` pairs — are
/// partitioned the same way and **persisted**, so each element is
/// probed exactly once against the single partition that can match it,
/// instead of the legacy re-scan of every outer element per segment.
/// Partial results still merge per outer tuple (phase 2 of \[DeLa92\]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pnhl_spill_rows(
    outer: &Set,
    set_attr: &Name,
    inner: &Set,
    keys: &MatchKeys,
    budget: &MemoryBudget,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    // Key the build side; a fitting build degenerates to the single
    // in-memory segment of the legacy algorithm.
    let mut keyed: Vec<(Value, Value)> = Vec::new();
    let mut bytes = 0usize;
    for y in inner.iter() {
        let k = eval_under(
            &keys.inner_key,
            &keys.inner_var,
            y,
            &ctx.ev,
            &mut ctx.env,
            ctx.stats,
        )?;
        bytes += encoded_size(&k) + encoded_size(y);
        keyed.push((k, y.clone()));
    }

    let mut partial: Vec<Vec<Value>> = vec![Vec::new(); outer.len()];
    if !budget.exceeded_by(bytes) {
        ctx.stats.partitions += 1;
        let mut table: FxHashMap<Value, Vec<Value>> = FxHashMap::default();
        for (k, y) in keyed {
            ctx.stats.hash_build_rows += 1;
            table.entry(k).or_default().push(y);
        }
        probe_pnhl_elements(outer, set_attr, keys, &table, &mut partial, ctx)?;
    } else {
        let mut mgr = SpillManager::new(budget);
        mgr.metrics.passes += 1;
        let mut bw = mgr.partition_writers(GRACE_FANOUT)?;
        for (k, y) in keyed {
            let p = partition_of(hashjoin::value_hash(&k), 0);
            write_keyed(&mut bw[p], std::slice::from_ref(&k), &y)?;
        }
        // Persist the probe partitions: (ordinal, element key) pairs.
        let mut pw = mgr.partition_writers(GRACE_FANOUT)?;
        for (xi, x) in outer.iter().enumerate() {
            let elems = x.as_tuple()?.field(set_attr)?.as_set()?.clone();
            for e in elems.iter() {
                let k = eval_under(
                    &keys.elem_key,
                    &keys.elem_var,
                    e,
                    &ctx.ev,
                    &mut ctx.env,
                    ctx.stats,
                )?;
                let p = partition_of(hashjoin::value_hash(&k), 0);
                pw[p].write_record(&[Value::Int(xi as i64), k])?;
            }
        }
        let mut work: Vec<(Option<SpillReader>, Option<SpillReader>, u32)> = bw
            .into_iter()
            .zip(pw)
            .map(|(b, p)| Ok((mgr.seal(b)?, mgr.seal(p)?, 0)))
            .collect::<Result<_, EvalError>>()?;
        while let Some((build, probe_r, level)) = work.pop() {
            let Some(mut probe_r) = probe_r else { continue };
            let (entries, part_bytes) = read_keyed(build)?;
            if budget.exceeded_by(part_bytes) && level < MAX_GRACE_DEPTH && entries.len() > 1 {
                mgr.metrics.passes += 1;
                let mut bw = mgr.partition_writers(GRACE_FANOUT)?;
                for (k, y) in entries {
                    let p = partition_of(hashjoin::value_hash(&k[0]), level + 1);
                    write_keyed(&mut bw[p], &k, &y)?;
                }
                let mut pw = mgr.partition_writers(GRACE_FANOUT)?;
                while let Some(rec) = probe_r.next_record()? {
                    let p = partition_of(hashjoin::value_hash(&rec[1]), level + 1);
                    pw[p].write_record(&rec)?;
                }
                for (b, p) in bw.into_iter().zip(pw) {
                    work.push((mgr.seal(b)?, mgr.seal(p)?, level + 1));
                }
                continue;
            }
            ctx.stats.partitions += 1;
            let mut table: FxHashMap<Value, Vec<Value>> = FxHashMap::default();
            for (mut k, y) in entries {
                ctx.stats.hash_build_rows += 1;
                table
                    .entry(k.pop().expect("single key"))
                    .or_default()
                    .push(y);
            }
            while let Some(rec) = probe_r.next_record()? {
                let xi = rec[0].as_int()? as usize;
                ctx.stats.hash_probes += 1;
                if let Some(matches) = table.get(&rec[1]) {
                    partial[xi].extend(matches.iter().cloned());
                }
            }
        }
        account(local, ctx.stats, &mgr);
    }

    // Phase 2: merge partial results per outer tuple.
    let mut out = Vec::with_capacity(outer.len());
    for (xi, x) in outer.iter().enumerate() {
        let merged = Set::from_values(std::mem::take(&mut partial[xi]));
        let t = x
            .as_tuple()?
            .except(&[(set_attr.clone(), Value::Set(merged))])
            .map_err(EvalError::Value)?;
        out.push(Value::Tuple(t));
    }
    Ok(out)
}

/// Probes every outer element against one in-memory PNHL table.
fn probe_pnhl_elements(
    outer: &Set,
    set_attr: &Name,
    keys: &MatchKeys,
    table: &FxHashMap<Value, Vec<Value>>,
    partial: &mut [Vec<Value>],
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<(), EvalError> {
    for (xi, x) in outer.iter().enumerate() {
        let elems = x.as_tuple()?.field(set_attr)?.as_set()?.clone();
        for e in elems.iter() {
            let k = eval_under(
                &keys.elem_key,
                &keys.elem_var,
                e,
                &ctx.ev,
                &mut ctx.env,
                ctx.stats,
            )?;
            ctx.stats.hash_probes += 1;
            if let Some(matches) = table.get(&k) {
                partial[xi].extend(matches.iter().cloned());
            }
        }
    }
    Ok(())
}
