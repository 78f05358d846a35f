//! The join family: one hash join for every equi- and membership-keyed
//! join, plus the index and nested-loop joins it replaces.
//!
//! "For example, the join can be implemented as an index nested-loop
//! join, a sort-merge join, a hash join, etc." (paper §6), and "to
//! implement the nestjoin, common join implementation methods like the
//! sort-merge join, or the hash join can be adapted" (§6.1). Here one
//! hash implementation serves the join, semijoin, antijoin, outerjoin
//! and nestjoin alike:
//!
//! * **One description.** A `JoinSpec` — key family (equi keys or a
//!   [`MemberShape`]), output mode (join rows or nestjoin groups), the
//!   two variables and the residual — is read off a `HashJoin`,
//!   `HashNestJoin`, `HashMemberJoin` or `MemberNestJoin` node, and
//!   nothing else in execution reads those nodes.
//! * **One build.** The spec evaluates every build row's keys once and
//!   hashes the keyed rows into `JoinHashTable`s or
//!   `MemberHashTable`s: one table, or one per [`key_hash`] partition
//!   of a parallel build.
//! * **One probe.** Every probe row consults the partition that owns its
//!   key and turns its residual-checked matches into output the same
//!   way, whether it came from a streaming batch, a materialized set or
//!   a grace-join spill partition.
//! * **One streaming operator**, at any degree of parallelism. At dop 1
//!   it runs on the calling thread and streams its probe side batch by
//!   batch; at dop > 1 (under a hash `Exchange`) its build and probe run
//!   on the worker pool. Under a bounded memory budget an oversized
//!   build falls back to the grace hash join at every dop.
//!
//! Keys are arbitrary ADL expressions over one side's variable; the
//! residual predicate (non-equi conjuncts) is re-checked after a key
//! match.

use super::columnar::{take_row, ProbeInput};
use super::exchange::{duplicate_free, run_workers, segment_scan, Segment, Share};
use super::operator::{drain_rows, drain_to_set, BoxOp, Buffered, ExecCtx, ExecOptions, Operator};
use super::{spill_exec, Partitioning, PhysPlan};
use crate::eval::{Env, EvalError, Evaluator};
use crate::stats::Stats;
use oodb_adl::expr::{Expr, JoinKind};
use oodb_spill::SpillMetrics;
use oodb_value::fxhash::FxHashMap;
use oodb_value::{Batch, BatchKind, ColumnarBatch, Name, Set, Tuple, Value};
use std::borrow::{Borrow, Cow};

/// The two supported membership predicate shapes.
#[derive(Debug, Clone)]
pub enum MemberShape {
    /// `rkey(y) ∈ lset(x)` — e.g. `p.pid ∈ s.parts` (Example Query 5/6).
    RightInLeftSet {
        /// Set-valued expression over the left variable.
        lset: Expr,
        /// Scalar key over the right variable.
        rkey: Expr,
    },
    /// `lkey(x) ∈ rset(y)`.
    LeftInRightSet {
        /// Scalar key over the left variable.
        lkey: Expr,
        /// Set-valued expression over the right variable.
        rset: Expr,
    },
}

/// Stable partition hash of a composite join key. Both sides of a
/// hash-partitioned parallel join use this function — build rows are
/// routed to the partition table it names, and a probe key consults
/// exactly that partition — so it must stay deterministic across
/// workers and runs (FxHash over the canonical key values is).
pub fn key_hash(key: &[Value]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = oodb_value::fxhash::FxHasher::default();
    for part in key {
        part.hash(&mut h);
    }
    h.finish()
}

/// [`key_hash`] of a single membership key.
pub fn value_hash(v: &Value) -> u64 {
    key_hash(std::slice::from_ref(v))
}

/// Evaluates an expression under a single variable binding.
pub(crate) fn eval_under(
    e: &Expr,
    var: &Name,
    val: &Value,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Value, EvalError> {
    env.push(var, val.clone());
    let r = ev.eval(e, env, stats);
    env.pop();
    r
}

/// Evaluates the composite key `keys` under `var = val`.
pub(crate) fn eval_keys(
    keys: &[Expr],
    var: &Name,
    val: &Value,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Vec<Value>, EvalError> {
    env.push(var, val.clone());
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        match ev.eval(k, env, stats) {
            Ok(v) => out.push(v),
            Err(e) => {
                env.pop();
                return Err(e);
            }
        }
    }
    env.pop();
    Ok(out)
}

/// Evaluates the residual predicate under both join variables.
#[allow(clippy::too_many_arguments)]
pub(crate) fn residual_holds(
    residual: Option<&Expr>,
    lvar: &Name,
    x: &Value,
    rvar: &Name,
    y: &Value,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<bool, EvalError> {
    let Some(pred) = residual else {
        return Ok(true);
    };
    stats.predicate_evals += 1;
    env.push(lvar, x.clone());
    env.push(rvar, y.clone());
    let r = ev.eval(pred, env, stats);
    env.pop();
    env.pop();
    r?.as_bool().map_err(EvalError::Value)
}

pub(crate) fn null_pad(x: &Value, right_attrs: &[Name]) -> Result<Value, EvalError> {
    let mut padded = x.as_tuple()?.clone();
    let updates: Vec<(Name, Value)> = right_attrs
        .iter()
        .map(|a| (a.clone(), Value::Null))
        .collect();
    padded = padded.except(&updates).map_err(EvalError::Value)?;
    Ok(Value::Tuple(padded))
}

// ---------------------------------------------------------------------
// The description.

/// Which key machinery a hash join uses.
pub(crate) enum JoinFamily {
    /// Equi-keyed (`HashJoin` / `HashNestJoin`): `lkeys(x) = rkeys(y)`.
    Equi { lkeys: Vec<Expr>, rkeys: Vec<Expr> },
    /// Membership-keyed (`HashMemberJoin` / `MemberNestJoin`).
    Member { shape: MemberShape },
}

/// Whether a join emits join rows or nestjoin groups.
pub(crate) enum HashMode {
    /// `⋈ ⋉ ▷ ⟕`; an outer join pads `right_attrs` with `Null`.
    Join {
        kind: JoinKind,
        right_attrs: Vec<Name>,
    },
    /// `⊣` — one output row per probe row, carrying its group.
    Nest { rfunc: Option<Expr>, as_attr: Name },
}

/// One build row with its index keys: the composite key of an equi
/// join, or the membership keys the row is reachable under.
pub(crate) type Keyed<V = Value> = (Vec<Value>, V);

/// What a hash join computes: build on the right (`rvar`), probe with
/// the left (`lvar`), keyed by `family`, emitting per `mode`, with the
/// non-key conjuncts re-checked as `residual` after a key match.
pub(crate) struct JoinSpec {
    pub(crate) family: JoinFamily,
    pub(crate) mode: HashMode,
    pub(crate) lvar: Name,
    pub(crate) rvar: Name,
    pub(crate) residual: Option<Expr>,
}

/// The output a probe row has accumulated from its matches so far.
#[derive(Default)]
struct RowMatches {
    matched: bool,
    /// The nestjoin group (empty in join mode).
    group: Vec<Value>,
}

impl JoinSpec {
    /// The spec of a hash-family join node with its (probe, build)
    /// children, or `None` for any other node — the one place execution
    /// reads the four hash join variants.
    pub(crate) fn from_plan(plan: &PhysPlan) -> Option<(JoinSpec, &PhysPlan, &PhysPlan)> {
        let equi = |lkeys: &[Expr], rkeys: &[Expr]| JoinFamily::Equi {
            lkeys: lkeys.to_vec(),
            rkeys: rkeys.to_vec(),
        };
        let join = |kind: &JoinKind, right_attrs: &[Name]| HashMode::Join {
            kind: *kind,
            right_attrs: right_attrs.to_vec(),
        };
        let nest = |rfunc: &Option<Expr>, as_attr: &Name| HashMode::Nest {
            rfunc: rfunc.clone(),
            as_attr: as_attr.clone(),
        };
        let member = |shape: &MemberShape| JoinFamily::Member {
            shape: shape.clone(),
        };
        let (family, mode, lvar, rvar, residual, left, right) = match plan {
            PhysPlan::HashJoin {
                kind,
                lvar,
                rvar,
                lkeys,
                rkeys,
                residual,
                right_attrs,
                left,
                right,
            } => (
                equi(lkeys, rkeys),
                join(kind, right_attrs),
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            PhysPlan::HashNestJoin {
                lvar,
                rvar,
                lkeys,
                rkeys,
                residual,
                rfunc,
                as_attr,
                left,
                right,
            } => (
                equi(lkeys, rkeys),
                nest(rfunc, as_attr),
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            PhysPlan::HashMemberJoin {
                kind,
                lvar,
                rvar,
                shape,
                residual,
                right_attrs,
                left,
                right,
            } => (
                member(shape),
                join(kind, right_attrs),
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            PhysPlan::MemberNestJoin {
                lvar,
                rvar,
                shape,
                residual,
                rfunc,
                as_attr,
                left,
                right,
            } => (
                member(shape),
                nest(rfunc, as_attr),
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            _ => return None,
        };
        let spec = JoinSpec {
            family,
            mode,
            lvar: lvar.clone(),
            rvar: rvar.clone(),
            residual: residual.clone(),
        };
        Some((spec, left, right))
    }

    /// A build row's index keys: its composite key for an equi join;
    /// `rkey(y)` (`RightInLeftSet`) or every element of `rset(y)`
    /// (`LeftInRightSet`) for a membership join. Every build evaluates
    /// them here, once per row.
    fn build_keys(
        &self,
        y: &Value,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Vec<Value>, EvalError> {
        let rvar = &self.rvar;
        Ok(match &self.family {
            JoinFamily::Equi { rkeys, .. } => eval_keys(rkeys, rvar, y, ev, env, stats)?,
            JoinFamily::Member {
                shape: MemberShape::RightInLeftSet { rkey, .. },
            } => vec![eval_under(rkey, rvar, y, ev, env, stats)?],
            JoinFamily::Member {
                shape: MemberShape::LeftInRightSet { rset, .. },
            } => {
                let s = eval_under(rset, rvar, y, ev, env, stats)?;
                s.as_set()?.iter().cloned().collect()
            }
        })
    }

    /// One table over pre-keyed build entries; each index insertion is
    /// counted into `inserted` (the `hash_build_rows` counter).
    fn table<V: Borrow<Value>>(
        &self,
        entries: impl IntoIterator<Item = Keyed<V>>,
        inserted: &mut u64,
    ) -> HashTables<V> {
        match self.family {
            JoinFamily::Equi { .. } => {
                HashTables::Equi(vec![JoinHashTable::from_keyed(entries, inserted)])
            }
            JoinFamily::Member { .. } => {
                HashTables::Member(vec![MemberHashTable::from_keyed(entries, inserted)])
            }
        }
    }

    /// Keys `rows` and hashes them into one table as they stream past —
    /// the build of every join that needs neither partitions nor a
    /// budget check. Generic over row ownership: the streaming operator
    /// moves owned rows in (`V = Value`, so the table outlives any one
    /// probe batch), the materialized join borrows its input set
    /// (`V = &Value`, zero copies).
    fn build<V: Borrow<Value>>(
        &self,
        rows: impl IntoIterator<Item = V>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<HashTables<V>, EvalError> {
        let mut err = None;
        let mut inserted = 0;
        let keyed =
            rows.into_iter()
                .map_while(|y| match self.build_keys(y.borrow(), ev, env, stats) {
                    Ok(keys) => Some((keys, y)),
                    Err(e) => {
                        err = Some(e);
                        None
                    }
                });
        let tables = self.table(keyed, &mut inserted);
        stats.hash_build_rows += inserted;
        err.map_or(Ok(tables), Err)
    }

    /// Routes one keyed build row into `buckets` (one per partition).
    /// For equi joins the whole key vector hashes as a unit; for
    /// membership joins each key routes separately, and a row reachable
    /// from several partitions is replicated into each, indexed only
    /// under that partition's keys (a keyless row — empty `rset` —
    /// indexes nowhere, exactly as in a one-table build). A single
    /// bucket takes every row whole, with all its keys.
    fn route(&self, keys: Vec<Value>, row: Value, buckets: &mut [Vec<Keyed>]) {
        let parts = buckets.len() as u64;
        if parts == 1 {
            buckets[0].push((keys, row));
            return;
        }
        match &self.family {
            JoinFamily::Equi { .. } => {
                let p = (key_hash(&keys) % parts) as usize;
                buckets[p].push((keys, row));
            }
            JoinFamily::Member { .. } => {
                let mut per_part: Vec<(usize, Vec<Value>)> = Vec::new();
                for k in keys {
                    let p = (value_hash(&k) % parts) as usize;
                    match per_part.iter_mut().find(|(q, _)| *q == p) {
                        Some((_, ks)) => ks.push(k),
                        None => per_part.push((p, vec![k])),
                    }
                }
                let replicas = per_part.len();
                let mut row = Some(row);
                for (i, (p, ks)) in per_part.into_iter().enumerate() {
                    let r = if i + 1 == replicas {
                        row.take().expect("moved into the last replica only")
                    } else {
                        row.as_ref().expect("not yet moved").clone()
                    };
                    buckets[p].push((ks, r));
                }
            }
        }
    }

    /// The partition tables of a parallel build, built concurrently on
    /// the worker pool: partition *p* from bucket *p* of every routing
    /// worker, in worker order. With `canonical` each key's candidates
    /// are put back in canonical row order (see
    /// [`JoinHashTable::sort_candidates`]).
    fn partition_tables(
        &self,
        partitions: Vec<Vec<Vec<Keyed>>>,
        canonical: bool,
        ctx: &mut ExecCtx<'_, '_>,
    ) -> Result<HashTables, EvalError> {
        Ok(match self.family {
            JoinFamily::Equi { .. } => HashTables::Equi(run_workers(partitions, ctx, |b, w| {
                let entries = b.into_iter().flatten();
                let mut t = JoinHashTable::from_keyed(entries, &mut w.stats.hash_build_rows);
                if canonical {
                    t.sort_candidates();
                }
                Ok(t)
            })?),
            JoinFamily::Member { .. } => {
                HashTables::Member(run_workers(partitions, ctx, |b, w| {
                    let entries = b.into_iter().flatten();
                    let mut t = MemberHashTable::from_keyed(entries, &mut w.stats.hash_build_rows);
                    if canonical {
                        t.sort_candidates();
                    }
                    Ok(t)
                })?)
            }
        })
    }

    /// Probes one batch of left rows against `tables`, producing output
    /// rows. Each probe key consults exactly the partition [`key_hash`]
    /// (equi) or [`value_hash`] (membership) assigns it, so a
    /// partitioned probe does the same lookups as a one-table probe.
    fn probe<V: Borrow<Value>>(
        &self,
        tables: &HashTables<V>,
        probe: ProbeInput<'_>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Vec<Value>, EvalError> {
        match (&self.family, tables) {
            (JoinFamily::Equi { lkeys, .. }, HashTables::Equi(t)) => {
                JoinHashTable::probe_batch(t, self, lkeys, probe, ev, env, stats)
            }
            (JoinFamily::Member { shape }, HashTables::Member(t)) => {
                MemberHashTable::probe_batch(t, self, shape, probe, ev, env, stats)
            }
            _ => unreachable!("a spec only probes the tables it built"),
        }
    }

    /// The materialized join: builds over `right` and probes with
    /// `left`, both borrowed.
    pub(crate) fn join_sets(
        &self,
        left: &Set,
        right: &Set,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Value, EvalError> {
        let tables = self.build(right.iter(), ev, env, stats)?;
        let out = self.probe(&tables, left.as_slice().into(), ev, env, stats)?;
        Ok(Value::Set(Set::from_values(out)))
    }

    /// Records one residual-checked `(x, y)` match of the current probe
    /// row: inner and outer joins emit the pair, nestjoins add `y`'s
    /// contribution to the group. Returns whether the row wants further
    /// matches (semi- and antijoins stop at the first).
    #[allow(clippy::too_many_arguments)]
    fn matched(
        &self,
        x: &Value,
        y: &Value,
        row: &mut RowMatches,
        out: &mut Vec<Value>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<bool, EvalError> {
        row.matched = true;
        match &self.mode {
            HashMode::Join {
                kind: JoinKind::Inner | JoinKind::LeftOuter,
                ..
            } => {
                out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                Ok(true)
            }
            HashMode::Join { .. } => Ok(false),
            HashMode::Nest { rfunc, .. } => {
                let v = collect_right(rfunc.as_ref(), &self.rvar, y, ev, env, stats)?;
                row.group.push(v);
                Ok(true)
            }
        }
    }

    /// What probe row `i` emits once its matches are in: a semijoin
    /// keeps a matched row, an antijoin an unmatched one, an outer join
    /// pads an unmatched one, a nestjoin attaches the (possibly empty)
    /// group. `xc` holds the row if it was already materialized.
    fn finish_row<'p>(
        &self,
        row: RowMatches,
        xc: &mut Option<Cow<'p, Value>>,
        probe: &ProbeInput<'p>,
        i: usize,
        out: &mut Vec<Value>,
    ) -> Result<(), EvalError> {
        match &self.mode {
            HashMode::Join {
                kind: JoinKind::Semi,
                ..
            } if row.matched => out.push(take_row(xc, probe, i)),
            HashMode::Join {
                kind: JoinKind::Anti,
                ..
            } if !row.matched => out.push(take_row(xc, probe, i)),
            HashMode::Join {
                kind: JoinKind::LeftOuter,
                right_attrs,
            } if !row.matched => {
                let x = xc.get_or_insert_with(|| probe.row_at(i));
                out.push(null_pad(x, right_attrs)?);
            }
            HashMode::Nest { as_attr, .. } => {
                let x = xc.get_or_insert_with(|| probe.row_at(i));
                out.push(with_group(x, as_attr, row.group)?);
            }
            HashMode::Join { .. } => {}
        }
        Ok(())
    }

    /// [`JoinSpec::finish_row`] for an owned probe row whose matches
    /// were folded elsewhere (the membership grace join folds them
    /// across partitions). The row is already in hand, so no probe input
    /// is read.
    pub(crate) fn finish_owned_row(
        &self,
        x: Value,
        matched: bool,
        group: Vec<Value>,
        out: &mut Vec<Value>,
    ) -> Result<(), EvalError> {
        let row = RowMatches { matched, group };
        let none = ProbeInput::Rows(&[]);
        self.finish_row(row, &mut Some(Cow::Owned(x)), &none, 0, out)
    }

    /// The columnar view of a one-table build, when the vectorized probe
    /// applies: a residual-free equi inner/semi/anti join under
    /// `vectorize`, over batchable build rows.
    fn indexed(&self, tables: &HashTables, opts: &ExecOptions) -> Option<IndexedBuild> {
        match (tables, &self.mode) {
            (
                HashTables::Equi(t),
                HashMode::Join {
                    kind: JoinKind::Inner | JoinKind::Semi | JoinKind::Anti,
                    ..
                },
            ) if opts.vectorize && self.residual.is_none() && t.len() == 1 => t[0].indexed(),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// The tables.

/// The built side of a hash join: one table, or one per hash partition
/// of a parallel build.
enum HashTables<V = Value> {
    /// Equi-join tables.
    Equi(Vec<JoinHashTable<V>>),
    /// Membership-join tables.
    Member(Vec<MemberHashTable<V>>),
}

/// A built hash table over the right (build) side of an equi-join,
/// keyed by the evaluated key vector. Generic over row ownership (see
/// `JoinSpec::build`).
pub(crate) struct JoinHashTable<V = Value> {
    map: FxHashMap<Vec<Value>, Vec<V>>,
}

impl<V: Borrow<Value>> JoinHashTable<V> {
    /// Build phase over pre-evaluated `(key, row)` pairs: only the
    /// insertions are counted (into `inserted`), because whoever keyed
    /// the rows already charged the key evaluation.
    pub(crate) fn from_keyed(
        pairs: impl IntoIterator<Item = Keyed<V>>,
        inserted: &mut u64,
    ) -> Self {
        let mut map: FxHashMap<Vec<Value>, Vec<V>> = FxHashMap::default();
        for (key, y) in pairs {
            *inserted += 1;
            map.entry(key).or_default().push(y);
        }
        JoinHashTable { map }
    }

    /// Puts every key's candidates in canonical row order — the order a
    /// build over a canonical set inserts them in. A parallel build fed
    /// by strided workers inserts them in worker order instead, and a
    /// residual observes candidate order (semi/anti probes stop at the
    /// first match, and the first failing candidate names the error).
    fn sort_candidates(&mut self) {
        for ys in self.map.values_mut() {
            if ys.len() > 1 {
                ys.sort_by(|a, b| a.borrow().cmp(b.borrow()));
            }
        }
    }

    /// Probe phase over one batch. Columnar probe batches whose keys are
    /// simple attributes read the whole key vector straight off the key
    /// columns; the probe row itself is materialized only when actually
    /// needed (residual checks, output construction) — semi/anti misses
    /// never touch it.
    fn probe_batch(
        tables: &[Self],
        spec: &JoinSpec,
        lkeys: &[Expr],
        probe: ProbeInput<'_>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Vec<Value>, EvalError> {
        let key_cols = probe.key_columns(lkeys, &spec.lvar);
        let mut out = Vec::new();
        for i in 0..probe.len() {
            let mut xc = None;
            let key = match &key_cols {
                Some(cols) => cols.iter().map(|c| c.value_at(i)).collect::<Vec<_>>(),
                None => {
                    let x = xc.get_or_insert_with(|| probe.row_at(i));
                    eval_keys(lkeys, &spec.lvar, x, ev, env, stats)?
                }
            };
            Self::probe_row(
                tables, spec, &key, &probe, i, &mut xc, &mut out, ev, env, stats,
            )?;
        }
        Ok(out)
    }

    /// Probes row `i` of `probe` under its evaluated `key` — also the
    /// grace join's per-row probe, whose keys were evaluated to route
    /// the row to its partition file. Kind-specific unmatched handling
    /// is safe there too: an equi-keyed probe row can only ever match
    /// inside its own partition.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_row<'p>(
        tables: &[Self],
        spec: &JoinSpec,
        key: &[Value],
        probe: &ProbeInput<'p>,
        i: usize,
        xc: &mut Option<Cow<'p, Value>>,
        out: &mut Vec<Value>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<(), EvalError> {
        stats.hash_probes += 1;
        let mut row = RowMatches::default();
        let table = if tables.len() == 1 {
            &tables[0]
        } else {
            &tables[(key_hash(key) % tables.len() as u64) as usize]
        };
        if let Some(candidates) = table.map.get(key) {
            let x = xc.get_or_insert_with(|| probe.row_at(i));
            for y in candidates {
                let y = y.borrow();
                let (lvar, rvar) = (&spec.lvar, &spec.rvar);
                if residual_holds(spec.residual.as_ref(), lvar, x, rvar, y, ev, env, stats)?
                    && !spec.matched(x, y, &mut row, out, ev, env, stats)?
                {
                    break;
                }
            }
        }
        spec.finish_row(row, xc, probe, i, out)
    }
}

/// A columnar re-materialization of an in-memory [`JoinHashTable`]:
/// the build rows flattened into one [`ColumnarBatch`] plus a
/// key → row-index multimap over it. Probing produces
/// (probe-selection, build-gather-indices) pairs materialized
/// column-at-a-time through [`ColumnarBatch::gather`] /
/// [`ColumnarBatch::filter`] instead of boxed row concatenation, so
/// residual-free equi-join output never leaves columnar form.
struct IndexedBuild {
    cb: ColumnarBatch,
    map: FxHashMap<Vec<Value>, Vec<usize>>,
}

impl JoinHashTable<Value> {
    /// The columnar view of this table's build rows, or `None` when
    /// they do not form a uniform block of primitive-typed tuples. No
    /// counters are charged — the build itself was already counted;
    /// this only re-shapes it.
    fn indexed(&self) -> Option<IndexedBuild> {
        let mut rows = Vec::new();
        let mut map: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
        for (key, bucket) in &self.map {
            let start = rows.len();
            rows.extend(bucket.iter().cloned());
            map.insert(key.clone(), (start..rows.len()).collect());
        }
        let cb = ColumnarBatch::try_new(rows).ok()?;
        Some(IndexedBuild { cb, map })
    }
}

impl IndexedBuild {
    /// Probes one batch entirely in columnar form, when it is columnar
    /// and `spec`'s keys read straight off its key columns (the spec is
    /// one [`JoinSpec::indexed`] accepted): inner joins gather matching
    /// (probe, build) row pairs and concatenate them column-wise;
    /// semi/anti joins reduce to a selection mask over the probe batch.
    ///
    /// Returns `None` for any other batch, or when the output schemas
    /// collide (`concat` fails); the caller then probes the same batch
    /// through the row path, which reports the exact reference error —
    /// so `hash_probes` is charged here only on success, and the
    /// counter totals stay identical to a pure row-probe run.
    fn probe_columnar(&self, spec: &JoinSpec, batch: &Batch, stats: &mut Stats) -> Option<Batch> {
        let (Batch::Columnar(probe), JoinFamily::Equi { lkeys, .. }, HashMode::Join { kind, .. }) =
            (batch, &spec.family, &spec.mode)
        else {
            return None;
        };
        let key_cols = ProbeInput::from(batch).key_columns(lkeys, &spec.lvar)?;
        let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
        let out = match kind {
            JoinKind::Semi | JoinKind::Anti => {
                let want = matches!(kind, JoinKind::Semi);
                let keep: Vec<bool> = (0..probe.len())
                    .map(|i| {
                        key.clear();
                        key.extend(key_cols.iter().map(|c| c.value_at(i)));
                        self.map.contains_key(&key) == want
                    })
                    .collect();
                Batch::Columnar(probe.filter(&keep))
            }
            JoinKind::Inner => {
                let (mut pidx, mut bidx) = (Vec::new(), Vec::new());
                for i in 0..probe.len() {
                    key.clear();
                    key.extend(key_cols.iter().map(|c| c.value_at(i)));
                    if let Some(matches) = self.map.get(&key) {
                        for &j in matches {
                            pidx.push(i);
                            bidx.push(j);
                        }
                    }
                }
                Batch::Columnar(probe.gather(&pidx).concat(&self.cb.gather(&bidx))?)
            }
            // outer padding introduces `Null`s no primitive column holds
            JoinKind::LeftOuter => return None,
        };
        stats.hash_probes += probe.len() as u64;
        Some(out)
    }
}

/// A built hash table for membership joins: right rows are stored once
/// and indexed by key (for `RightInLeftSet`, `rkey(y)`; for
/// `LeftInRightSet`, every element of `rset(y)`). Row *indices* in the
/// multimap make the per-left-tuple dedupe exact even though the rows
/// are owned.
pub(crate) struct MemberHashTable<V = Value> {
    rows: Vec<V>,
    index: FxHashMap<Value, Vec<usize>>,
}

impl<V: Borrow<Value>> MemberHashTable<V> {
    /// Build phase over pre-evaluated `(keys, row)` entries — one entry
    /// per row, carrying every index key the row is reachable under in
    /// **this** partition (a `LeftInRightSet` row whose set elements
    /// hash to several partitions is replicated, each replica indexed
    /// only under its partition's elements). Each index insertion is
    /// counted into `inserted`, as in [`JoinHashTable::from_keyed`].
    pub(crate) fn from_keyed(
        entries: impl IntoIterator<Item = Keyed<V>>,
        inserted: &mut u64,
    ) -> Self {
        let entries = entries.into_iter();
        let mut rows = Vec::with_capacity(entries.size_hint().0);
        let mut index: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
        for (keys, y) in entries {
            let yi = rows.len();
            for k in keys {
                *inserted += 1;
                index.entry(k).or_default().push(yi);
            }
            rows.push(y);
        }
        MemberHashTable { rows, index }
    }

    /// [`JoinHashTable::sort_candidates`] for membership keys: every
    /// key's row indices in canonical order of the rows they name.
    fn sort_candidates(&mut self) {
        let rows = &self.rows;
        for ix in self.index.values_mut() {
            if ix.len() > 1 {
                ix.sort_by(|&a, &b| rows[a].borrow().cmp(rows[b].borrow()));
            }
        }
    }

    /// The partition of `tables` that owns probe key `p`, with its
    /// index (for cross-partition dedupe bookkeeping).
    fn pick<'t>(tables: &'t [Self], p: &Value) -> (usize, &'t Self) {
        if tables.len() == 1 {
            (0, &tables[0])
        } else {
            let ti = (value_hash(p) % tables.len() as u64) as usize;
            (ti, &tables[ti])
        }
    }

    /// The distinct right rows a pre-keyed probe row reaches in this
    /// **single** (grace-partition) table through `keys`, residual
    /// checked, deduplicated per probe row. With `first_only` the scan
    /// stops at the first match (semi/anti probes need only existence).
    /// Cross-partition dedupe is unnecessary: equal key values always
    /// land in the same partition, so one `(x, y)` pair can match in at
    /// most one partition.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn keyed_matches(
        &self,
        spec: &JoinSpec,
        keys: &[Value],
        x: &Value,
        first_only: bool,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Vec<&Value>, EvalError> {
        let mut seen: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        let (lvar, rvar, residual) = (&spec.lvar, &spec.rvar, spec.residual.as_ref());
        for k in keys {
            stats.hash_probes += 1;
            if let Some(candidates) = self.index.get(k) {
                for &yi in candidates {
                    if seen.contains(&yi) {
                        continue;
                    }
                    let y = self.rows[yi].borrow();
                    if residual_holds(residual, lvar, x, rvar, y, ev, env, stats)? {
                        seen.push(yi);
                        out.push(y);
                        if first_only {
                            return Ok(out);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The probe keys one left tuple contributes.
    pub(crate) fn probe_keys(
        shape: &MemberShape,
        lvar: &Name,
        x: &Value,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Vec<Value>, EvalError> {
        Ok(match shape {
            MemberShape::RightInLeftSet { lset, .. } => {
                let s = eval_under(lset, lvar, x, ev, env, stats)?;
                s.as_set()?.iter().cloned().collect()
            }
            MemberShape::LeftInRightSet { lkey, .. } => {
                vec![eval_under(lkey, lvar, x, ev, env, stats)?]
            }
        })
    }

    /// The expression the probe side evaluates over the left variable —
    /// what a columnar probe batch may hold as a plain column.
    fn probe_left_expr(shape: &MemberShape) -> &Expr {
        match shape {
            MemberShape::RightInLeftSet { lset, .. } => lset,
            MemberShape::LeftInRightSet { lkey, .. } => lkey,
        }
    }

    /// [`MemberHashTable::probe_keys`] for probe row `i` of a batch,
    /// reading the set/key column directly when the probe side is
    /// columnar and the expression is a simple attribute — the row is
    /// not materialized. `cache` receives the row only when the slow
    /// path had to build it.
    #[allow(clippy::too_many_arguments)]
    fn probe_keys_at<'p>(
        shape: &MemberShape,
        lvar: &Name,
        probe: &ProbeInput<'p>,
        left_col: Option<&oodb_value::Column>,
        i: usize,
        cache: &mut Option<Cow<'p, Value>>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Vec<Value>, EvalError> {
        match (left_col, shape) {
            (Some(col), MemberShape::RightInLeftSet { .. }) => Ok(col
                .value_at(i)
                .into_set()
                .map_err(EvalError::Value)?
                .into_values()),
            (Some(col), MemberShape::LeftInRightSet { .. }) => Ok(vec![col.value_at(i)]),
            (None, _) => {
                let x = cache.get_or_insert_with(|| probe.row_at(i));
                Self::probe_keys(shape, lvar, x, ev, env, stats)
            }
        }
    }

    /// Probe phase over one batch of left rows. Every probe key consults
    /// its owning partition, and the per-left-tuple dedupe tracks
    /// `(partition, row)` pairs so a row matched through several set
    /// elements still joins once.
    fn probe_batch(
        tables: &[Self],
        spec: &JoinSpec,
        shape: &MemberShape,
        probe: ProbeInput<'_>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Vec<Value>, EvalError> {
        let (lvar, rvar, residual) = (&spec.lvar, &spec.rvar, spec.residual.as_ref());
        let left_col = probe.key_column(Self::probe_left_expr(shape), lvar);
        let mut out = Vec::new();
        for i in 0..probe.len() {
            let mut xc = None;
            let probes =
                Self::probe_keys_at(shape, lvar, &probe, left_col, i, &mut xc, ev, env, stats)?;
            let mut row = RowMatches::default();
            let mut seen: Vec<(usize, usize)> = Vec::new();
            'probe: for p in &probes {
                stats.hash_probes += 1;
                let (ti, table) = Self::pick(tables, p);
                if let Some(candidates) = table.index.get(p) {
                    let x = xc.get_or_insert_with(|| probe.row_at(i));
                    for &yi in candidates {
                        // A right tuple may match through several
                        // elements — dedupe per left tuple.
                        if seen.contains(&(ti, yi)) {
                            continue;
                        }
                        let y = table.rows[yi].borrow();
                        if residual_holds(residual, lvar, x, rvar, y, ev, env, stats)? {
                            seen.push((ti, yi));
                            if !spec.matched(x, y, &mut row, &mut out, ev, env, stats)? {
                                break 'probe;
                            }
                        }
                    }
                }
            }
            spec.finish_row(row, &mut xc, &probe, i, &mut out)?;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The streaming operator.

/// One side of a [`HashJoinOp`].
struct JoinInput {
    /// The compiled child, drained on the calling thread whenever the
    /// side does not stride.
    op: BoxOp,
    /// At dop > 1, the segment under a round-robin exchange child, whose
    /// strides the join's own workers run instead of gathering them. On
    /// the build side only a [`duplicate_free`] segment strides.
    stride: Option<Segment>,
}

impl JoinInput {
    /// Compiles child `plan` at pre-order ordinal `ord`. `set_input`
    /// marks the build side, whose rows must form a set.
    fn new(plan: &PhysPlan, ord: usize, set_input: bool, dop: usize) -> Self {
        let stride = match plan {
            PhysPlan::Exchange {
                partitioning: Partitioning::RoundRobin,
                input,
                ..
            } if dop > 1
                && segment_scan(input).is_some()
                && (!set_input || duplicate_free(input)) =>
            {
                Some(Segment {
                    plan: (**input).clone(),
                    ord: ord + 1,
                })
            }
            _ => None,
        };
        JoinInput {
            op: plan.compile_rows(ord, 0, 1),
            stride,
        }
    }
}

/// The hash join family's streaming operator, at any degree of
/// parallelism: the four hash join nodes compile to it at dop 1, and a
/// hash `Exchange` over one compiles to it at the exchange's dop.
///
/// **dop 1** runs on the calling thread with the caller's context. The
/// build side drains through the canonical-set breaker and is hashed
/// into one table; then the probe side streams, one left batch per
/// `next_batch` (residual-free equi inner/semi/anti joins probe
/// columnar batches in columnar form under `vectorize`).
///
/// **dop > 1** runs build and probe on the worker pool. `dop` build
/// workers each take a share of the build side, evaluate its keys and
/// route every keyed row into one bucket per partition; partition *p*'s
/// table is built from bucket *p* of every worker, in worker order, with
/// the tables built concurrently. Then `dop` probe workers each stream a
/// share of the probe side through the shared tables, and the output is
/// buffered. A share is a worker's stride of the side's segment when the
/// side is a round-robin exchange over one (its batches reach the probe
/// with their key columns in place), else a contiguous chunk of the side
/// drained on the calling thread — the build side through the usual
/// canonical-set breaker, which is also how a build segment that may
/// emit duplicate rows keeps its set semantics.
///
/// Under a bounded memory budget the build side always drains and stays
/// one partition, and a build that does not fit the budget falls back
/// to the grace hash join (see `spill_exec::grace_join`) at every dop.
pub(crate) struct HashJoinOp {
    spec: JoinSpec,
    dop: usize,
    left: JoinInput,
    right: JoinInput,
    state: JoinState,
    spill: SpillMetrics,
}

/// Where a [`HashJoinOp`] is between `open` and exhaustion.
enum JoinState {
    /// Build side not yet drained.
    Pending,
    /// dop 1 with an in-memory build: probe batches stream against it.
    Probing {
        tables: HashTables,
        /// The columnar view of the build, when the columnar probe
        /// applies (see [`JoinSpec::indexed`]).
        indexed: Option<IndexedBuild>,
    },
    /// The whole output, buffered: the grace join's, or the parallel
    /// probe's.
    Done(Buffered),
}

/// What a build produced: tables to probe, or — when a bounded build
/// did not fit its budget — the output of the grace join it ran instead.
enum Built {
    Tables(HashTables),
    Spilled(Vec<Value>),
}

impl HashJoinOp {
    /// The operator for a hash-family join node at pre-order ordinal
    /// `ord`; `None` for any other plan shape.
    pub(crate) fn from_plan(plan: &PhysPlan, ord: usize, dop: usize) -> Option<Self> {
        let (spec, left, right) = JoinSpec::from_plan(plan)?;
        let kids = plan.child_ordinals(ord);
        Some(HashJoinOp {
            spec,
            dop,
            left: JoinInput::new(left, kids[0], false, dop),
            right: JoinInput::new(right, kids[1], true, dop),
            state: JoinState::Pending,
            spill: SpillMetrics::default(),
        })
    }

    /// Runs the build — and at dop > 1 the whole probe — on the first
    /// pull.
    fn start(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<JoinState, EvalError> {
        let built = if self.dop == 1 {
            self.build_serial(ctx)?
        } else {
            self.build_parallel(ctx)?
        };
        Ok(match built {
            Built::Spilled(rows) => JoinState::Done(Buffered::new(rows)),
            Built::Tables(tables) if self.dop == 1 => JoinState::Probing {
                indexed: self.spec.indexed(&tables, &ctx.opts),
                tables,
            },
            Built::Tables(tables) => {
                JoinState::Done(Buffered::new(self.probe_parallel(&tables, ctx)?))
            }
        })
    }

    /// The dop 1 build, on the calling thread.
    fn build_serial(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Built, EvalError> {
        let rows = drain_to_set(&mut self.right.op, &mut self.spill, ctx)?.into_values();
        if !ctx.opts.budget.is_bounded() {
            let tables = self.spec.build(rows, &ctx.ev, &mut ctx.env, ctx.stats)?;
            return Ok(Built::Tables(tables));
        }
        let keyed = rows
            .into_iter()
            .map(|y| {
                let keys = self.spec.build_keys(&y, &ctx.ev, &mut ctx.env, ctx.stats)?;
                Ok((keys, y))
            })
            .collect::<Result<Vec<_>, EvalError>>()?;
        self.build_bounded(keyed, ctx)
    }

    /// The dop > 1 build: the workers key and route their shares. A
    /// strided share skips the breaker (a duplicate-free segment is
    /// already a set); anything else drains through it first.
    fn build_parallel(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Built, EvalError> {
        let (dop, spec) = (self.dop, &self.spec);
        let bounded = ctx.opts.budget.is_bounded();
        let build_stride = self.right.stride.as_ref().filter(|_| !bounded);
        let shares = match build_stride {
            Some(seg) => Share::strides(seg, dop),
            None => {
                let set = drain_to_set(&mut self.right.op, &mut self.spill, ctx)?;
                Share::chunks(set.into_values(), dop)
            }
        };
        let parts = if bounded { 1 } else { dop };
        let routed = run_workers(shares, ctx, |share, wctx| {
            let mut buckets: Vec<Vec<Keyed>> = (0..parts).map(|_| Vec::new()).collect();
            share.for_each_batch(wctx, |batch, c| {
                for y in batch.into_values() {
                    let keys = spec.build_keys(&y, &c.ev, &mut c.env, c.stats)?;
                    spec.route(keys, y, &mut buckets);
                }
                Ok(())
            })?;
            Ok(buckets)
        })?;
        if bounded {
            let keyed = routed.into_iter().flatten().flatten().collect();
            return self.build_bounded(keyed, ctx);
        }
        // Partition p takes bucket p of every worker, in worker order.
        let mut partitions: Vec<Vec<Vec<Keyed>>> = (0..parts).map(|_| Vec::new()).collect();
        for buckets in routed {
            for (p, bucket) in buckets.into_iter().enumerate() {
                partitions[p].push(bucket);
            }
        }
        // Strided buckets hold each key's candidates in worker order; a
        // residual can observe that order, so those tables restore the
        // canonical order a one-table build has.
        let canonical = build_stride.is_some() && spec.residual.is_some();
        Ok(Built::Tables(
            spec.partition_tables(partitions, canonical, ctx)?,
        ))
    }

    /// The bounded build of every dop: keyed rows that fit the budget
    /// become one table; an oversized build falls back to the grace hash
    /// join, which partitions both sides through the spill manager
    /// (partition-at-a-time, within the budget). The probe side is still
    /// undrained, so grace streams it straight into partition files.
    fn build_bounded(
        &mut self,
        keyed: Vec<Keyed>,
        ctx: &mut ExecCtx<'_, '_>,
    ) -> Result<Built, EvalError> {
        let bytes: usize = keyed
            .iter()
            .map(|(ks, row)| spill_exec::entry_bytes(ks, row))
            .sum();
        if ctx.opts.budget.exceeded_by(bytes) {
            let rows =
                spill_exec::grace_join(&self.spec, keyed, &mut self.left.op, &mut self.spill, ctx)?;
            return Ok(Built::Spilled(rows));
        }
        let tables = self.spec.table(keyed, &mut ctx.stats.hash_build_rows);
        Ok(Built::Tables(tables))
    }

    /// The dop > 1 probe: each worker streams its share's batches
    /// through the shared tables. The probe side is a raw row stream
    /// (no probe deduplicates it).
    fn probe_parallel(
        &mut self,
        tables: &HashTables,
        ctx: &mut ExecCtx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let shares = match &self.left.stride {
            Some(seg) => Share::strides(seg, self.dop),
            None => Share::chunks(drain_rows(&mut self.left.op, ctx)?, self.dop),
        };
        let spec = &self.spec;
        let outs = run_workers(shares, ctx, |share, wctx| {
            let mut out = Vec::new();
            share.for_each_batch(wctx, |batch, c| {
                out.extend(spec.probe(tables, (&batch).into(), &c.ev, &mut c.env, c.stats)?);
                Ok(())
            })?;
            Ok(out)
        })?;
        Ok(outs.into_iter().flatten().collect())
    }
}

impl Operator for HashJoinOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.state = JoinState::Pending;
        self.left.op.open(ctx)?;
        self.right.op.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if matches!(self.state, JoinState::Pending) {
            self.state = self.start(ctx)?;
        }
        let (tables, indexed) = match &mut self.state {
            JoinState::Done(buf) => return Ok(buf.next_chunk(BatchKind::Row)),
            JoinState::Probing { tables, indexed } => (&*tables, indexed.as_ref()),
            JoinState::Pending => unreachable!("started above"),
        };
        loop {
            let Some(batch) = self.left.op.next_batch(ctx)? else {
                return Ok(None);
            };
            // Columnar fast path: output via gather, never building boxed
            // rows. `None` falls through to the row probe, which reports
            // the reference error and charges the counters itself.
            if let Some(out) =
                indexed.and_then(|ib| ib.probe_columnar(&self.spec, &batch, ctx.stats))
            {
                if out.is_empty() {
                    continue;
                }
                return Ok(Some(out));
            }
            let out = self
                .spec
                .probe(tables, (&batch).into(), &ctx.ev, &mut ctx.env, ctx.stats)?;
            if !out.is_empty() {
                return Ok(Some(Batch::from_rows(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.state = JoinState::Pending;
        self.left.op.close(ctx);
        self.right.op.close(ctx);
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }
}

// ---------------------------------------------------------------------
// Index and nested-loop joins.

/// Index nested-loop join: probes a secondary hash index on
/// `extent.attr` with `lkey(x)` for every left tuple — "the join can be
/// implemented as an index nested-loop join, …" (§6).
#[allow(clippy::too_many_arguments)]
pub fn index_nl_join(
    kind: JoinKind,
    lvar: &Name,
    rvar: &Name,
    lkey: &Expr,
    attr: &Name,
    extent: &Name,
    residual: Option<&Expr>,
    right_attrs: &[Name],
    left: &Set,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Value, EvalError> {
    let out = index_nl_join_batch(
        kind,
        lvar,
        rvar,
        lkey,
        attr,
        extent,
        residual,
        right_attrs,
        left.as_slice().into(),
        ev,
        env,
        stats,
    )?;
    Ok(Value::Set(Set::from_values(out)))
}

/// [`index_nl_join`] over one batch of left rows, producing output rows.
/// A simple probe key over a columnar batch reads the key column
/// without materializing the row.
#[allow(clippy::too_many_arguments)]
pub fn index_nl_join_batch(
    kind: JoinKind,
    lvar: &Name,
    rvar: &Name,
    lkey: &Expr,
    attr: &Name,
    extent: &Name,
    residual: Option<&Expr>,
    right_attrs: &[Name],
    probe: ProbeInput<'_>,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Vec<Value>, EvalError> {
    let table = ev
        .db()
        .table(extent)
        .ok_or_else(|| EvalError::UnknownTable(extent.clone()))?;
    if !table.has_index(attr) {
        // the planner guards this (see `Planner::indexed_equi_key`), so
        // reaching it means a hand-built or stale plan — fail loudly
        // instead of probing a missing index
        return Err(EvalError::MissingIndex {
            extent: extent.clone(),
            attr: attr.clone(),
        });
    }
    let key_col = probe.key_column(lkey, lvar);
    let mut out = Vec::new();
    for i in 0..probe.len() {
        let mut xc = None;
        let key = match key_col {
            Some(col) => col.value_at(i),
            None => {
                let x = xc.get_or_insert_with(|| probe.row_at(i));
                eval_under(lkey, lvar, x, ev, env, stats)?
            }
        };
        stats.index_probes += 1;
        let candidates = table.index_probe(attr, &key).unwrap_or_default();
        let mut matched = false;
        if !candidates.is_empty() {
            let x = xc.get_or_insert_with(|| probe.row_at(i));
            for row in candidates {
                let y = Value::Tuple(row.clone());
                if residual_holds(residual, lvar, x, rvar, &y, ev, env, stats)? {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => {
                            out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?))
                        }
                        JoinKind::Semi | JoinKind::Anti => break,
                    }
                }
            }
        }
        match kind {
            JoinKind::Semi if matched => out.push(take_row(&mut xc, &probe, i)),
            JoinKind::Anti if !matched => out.push(take_row(&mut xc, &probe, i)),
            JoinKind::LeftOuter if !matched => {
                let x = xc.get_or_insert_with(|| probe.row_at(i));
                out.push(null_pad(x, right_attrs)?);
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Nested-loop join — the fallback for arbitrary predicates, and the
/// baseline the set-oriented implementations are measured against.
#[allow(clippy::too_many_arguments)]
pub fn nl_join(
    kind: JoinKind,
    lvar: &Name,
    rvar: &Name,
    pred: &Expr,
    right_attrs: &[Name],
    left: &Set,
    right: &Set,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Value, EvalError> {
    let out = nl_join_batch(
        kind,
        lvar,
        rvar,
        pred,
        right_attrs,
        left.as_slice().into(),
        right,
        ev,
        env,
        stats,
    )?;
    Ok(Value::Set(Set::from_values(out)))
}

/// [`nl_join`] over one batch of left rows, producing output rows. The
/// arbitrary predicate needs the full row, so the probe input is read
/// through its row view.
#[allow(clippy::too_many_arguments)]
pub fn nl_join_batch(
    kind: JoinKind,
    lvar: &Name,
    rvar: &Name,
    pred: &Expr,
    right_attrs: &[Name],
    probe: ProbeInput<'_>,
    right: &Set,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Vec<Value>, EvalError> {
    let mut out = Vec::new();
    for i in 0..probe.len() {
        let mut xc = None;
        let x = xc.get_or_insert_with(|| probe.row_at(i));
        let mut matched = false;
        for y in right.iter() {
            stats.loop_iterations += 1;
            if residual_holds(Some(pred), lvar, x, rvar, y, ev, env, stats)? {
                matched = true;
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?))
                    }
                    JoinKind::Semi | JoinKind::Anti => break,
                }
            }
        }
        match kind {
            JoinKind::Semi if matched => out.push(take_row(&mut xc, &probe, i)),
            JoinKind::Anti if !matched => out.push(take_row(&mut xc, &probe, i)),
            JoinKind::LeftOuter if !matched => {
                let x = xc.get_or_insert_with(|| probe.row_at(i));
                out.push(null_pad(x, right_attrs)?);
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Appends the collected group to a left tuple.
pub(crate) fn with_group(x: &Value, as_attr: &Name, group: Vec<Value>) -> Result<Value, EvalError> {
    let t = x.as_tuple()?.concat(&Tuple::from_pairs([(
        as_attr.as_ref(),
        Value::Set(Set::from_values(group)),
    )]))?;
    Ok(Value::Tuple(t))
}

/// Applies the optional right-tuple function of the extended nestjoin.
pub(crate) fn collect_right(
    rfunc: Option<&Expr>,
    rvar: &Name,
    y: &Value,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Value, EvalError> {
    match rfunc {
        Some(g) => eval_under(g, rvar, y, ev, env, stats),
        None => Ok(y.clone()),
    }
}

/// Nested-loop nestjoin — definition 1 executed literally.
#[allow(clippy::too_many_arguments)]
pub fn nl_nestjoin(
    lvar: &Name,
    rvar: &Name,
    pred: &Expr,
    rfunc: Option<&Expr>,
    as_attr: &Name,
    left: &Set,
    right: &Set,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Value, EvalError> {
    let out = nl_nestjoin_batch(
        lvar,
        rvar,
        pred,
        rfunc,
        as_attr,
        left.as_slice().into(),
        right,
        ev,
        env,
        stats,
    )?;
    Ok(Value::Set(Set::from_values(out)))
}

/// [`nl_nestjoin`] over one batch of left rows, producing output rows.
#[allow(clippy::too_many_arguments)]
pub fn nl_nestjoin_batch(
    lvar: &Name,
    rvar: &Name,
    pred: &Expr,
    rfunc: Option<&Expr>,
    as_attr: &Name,
    probe: ProbeInput<'_>,
    right: &Set,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Vec<Value>, EvalError> {
    let mut out = Vec::with_capacity(probe.len());
    for i in 0..probe.len() {
        let xc = probe.row_at(i);
        let x = xc.as_ref();
        let mut group = Vec::new();
        for y in right.iter() {
            stats.loop_iterations += 1;
            if residual_holds(Some(pred), lvar, x, rvar, y, ev, env, stats)? {
                group.push(collect_right(rfunc, rvar, y, ev, env, stats)?);
            }
        }
        out.push(with_group(x, as_attr, group)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::physical::operator::{ResultStream, BATCH_SIZE};
    use crate::plan::PlannerConfig;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{figure3_db, supplier_part_db};
    use oodb_spill::MemoryBudget;

    fn run(
        db: &oodb_catalog::Database,
        f: impl FnOnce(&Evaluator, &mut Env, &mut Stats) -> Result<Value, EvalError>,
    ) -> (Value, Stats) {
        let ev = Evaluator::new(db);
        let mut env = Env::new();
        let mut stats = Stats::new();
        let v = f(&ev, &mut env, &mut stats).unwrap();
        (v, stats)
    }

    fn set_of(db: &oodb_catalog::Database, table_name: &str) -> Set {
        db.table(table_name)
            .unwrap()
            .as_set_value()
            .into_set()
            .unwrap()
    }

    /// A spec joining `l` (probe) with `r` (build).
    fn spec(
        l: &str,
        r: &str,
        family: JoinFamily,
        mode: HashMode,
        residual: Option<Expr>,
    ) -> JoinSpec {
        JoinSpec {
            family,
            mode,
            lvar: l.into(),
            rvar: r.into(),
            residual,
        }
    }

    fn equi(lkeys: Vec<Expr>, rkeys: Vec<Expr>) -> JoinFamily {
        JoinFamily::Equi { lkeys, rkeys }
    }

    fn joining(kind: JoinKind) -> HashMode {
        HashMode::Join {
            kind,
            right_attrs: Vec::new(),
        }
    }

    #[test]
    fn hash_join_agrees_with_nl_join_figure3() {
        let db = figure3_db();
        let x = set_of(&db, "X");
        let y = set_of(&db, "Y");
        let pred = eq(var("x").field("b"), var("y").field("d"));
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            let keys = equi(vec![var("x").field("b")], vec![var("y").field("d")]);
            let hash = spec("x", "y", keys, joining(kind), None);
            let (h, hs) = run(&db, |ev, env, st| hash.join_sets(&x, &y, ev, env, st));
            let (n, ns) = run(&db, |ev, env, st| {
                nl_join(
                    kind,
                    &"x".into(),
                    &"y".into(),
                    &pred,
                    &[],
                    &x,
                    &y,
                    ev,
                    env,
                    st,
                )
            });
            assert_eq!(h, n, "kind {kind:?}");
            // the hash join must do fewer pairwise iterations
            assert_eq!(hs.loop_iterations, 0);
            assert!(ns.loop_iterations > 0);
        }
    }

    #[test]
    fn hash_join_residual_filters() {
        let db = figure3_db();
        let x = set_of(&db, "X");
        let y = set_of(&db, "Y");
        // join on b = d with residual y.c > 1: x1/x2 match only y(c=2,d=1)
        let keys = equi(vec![var("x").field("b")], vec![var("y").field("d")]);
        let residual = Some(gt(var("y").field("c"), int(1)));
        let hash = spec("x", "y", keys, joining(JoinKind::Inner), residual);
        let (v, _) = run(&db, |ev, env, st| hash.join_sets(&x, &y, ev, env, st));
        assert_eq!(v.as_set().unwrap().len(), 2);
    }

    #[test]
    fn member_join_semijoin_query5() {
        // SUPPLIER ⋉_{s,p : p.pid ∈ s.parts ∧ p.color = red} PART
        let db = supplier_part_db();
        let s = set_of(&db, "SUPPLIER");
        let p = set_of(&db, "PART");
        let shape = MemberShape::RightInLeftSet {
            lset: var("s").field("parts"),
            rkey: var("p").field("pid"),
        };
        let residual = Some(eq(var("p").field("color"), str_lit("red")));
        let member = spec(
            "s",
            "p",
            JoinFamily::Member { shape },
            joining(JoinKind::Semi),
            residual,
        );
        let (v, stats) = run(&db, |ev, env, st| member.join_sets(&s, &p, ev, env, st));
        let names: Vec<&Value> = v
            .as_set()
            .unwrap()
            .iter()
            .map(|t| t.as_tuple().unwrap().get("sname").unwrap())
            .collect();
        assert_eq!(
            names,
            vec![&Value::str("s1"), &Value::str("s2"), &Value::str("s3")]
        );
        assert!(stats.hash_build_rows == 7);
        assert_eq!(stats.loop_iterations, 0);
    }

    #[test]
    fn member_join_left_in_right_set() {
        // PART ⋉_{p,s : p.pid ∈ s.parts} SUPPLIER — parts supplied by anyone
        let db = supplier_part_db();
        let p = set_of(&db, "PART");
        let s = set_of(&db, "SUPPLIER");
        let shape = MemberShape::LeftInRightSet {
            lkey: var("p").field("pid"),
            rset: var("s").field("parts"),
        };
        let member = spec(
            "p",
            "s",
            JoinFamily::Member { shape },
            joining(JoinKind::Semi),
            None,
        );
        let (v, _) = run(&db, |ev, env, st| member.join_sets(&p, &s, ev, env, st));
        // supplied parts: 11,12,13,14,17 (15,16 unsupplied)
        assert_eq!(v.as_set().unwrap().len(), 5);
    }

    #[test]
    fn member_inner_join_dedupes_multi_element_matches() {
        // If a right tuple could match via several set elements it must
        // appear once per (x, y) pair, not once per element.
        let db = supplier_part_db();
        let left = Set::from_values(vec![Value::tuple([
            ("k", Value::Int(1)),
            ("elems", Value::set([Value::Int(10), Value::Int(20)])),
        ])]);
        let right = Set::from_values(vec![Value::tuple([
            ("ks", Value::set([Value::Int(10), Value::Int(20)])),
            ("tag", Value::str("y")),
        ])]);
        let inner = |shape| {
            spec(
                "x",
                "y",
                JoinFamily::Member { shape },
                joining(JoinKind::Inner),
                None,
            )
        };
        // x.k = 1 not in {10, 20}: no match
        let miss = inner(MemberShape::LeftInRightSet {
            lkey: var("x").field("k"),
            rset: var("y").field("ks"),
        });
        let (v, _) = run(&db, |ev, env, st| {
            miss.join_sets(&left, &right, ev, env, st)
        });
        assert_eq!(v.as_set().unwrap().len(), 0);
        // rkey constant → both probes of x.elems reach the same right tuple
        let dup = inner(MemberShape::RightInLeftSet {
            lset: var("x").field("elems"),
            rkey: Expr::int(10),
        });
        let (v2, _) = run(&db, |ev, env, st| dup.join_sets(&left, &right, ev, env, st));
        // only the elem 10 probe hits; elem 20 misses; and the single
        // (x,y) pair appears exactly once
        assert_eq!(v2.as_set().unwrap().len(), 1);
    }

    #[test]
    fn hash_nestjoin_matches_figure_3_and_nl() {
        let db = figure3_db();
        let x = set_of(&db, "X");
        let y = set_of(&db, "Y");
        let nest = HashMode::Nest {
            rfunc: None,
            as_attr: "ys".into(),
        };
        let keys = equi(vec![var("x").field("b")], vec![var("y").field("d")]);
        let hash = spec("x", "y", keys, nest, None);
        let (h, hs) = run(&db, |ev, env, st| hash.join_sets(&x, &y, ev, env, st));
        let pred = eq(var("x").field("b"), var("y").field("d"));
        let (n, _) = run(&db, |ev, env, st| {
            nl_nestjoin(
                &"x".into(),
                &"y".into(),
                &pred,
                None,
                &"ys".into(),
                &x,
                &y,
                ev,
                env,
                st,
            )
        });
        assert_eq!(h, n);
        assert_eq!(hs.loop_iterations, 0);
        // all three left tuples survive; x3 with empty group
        assert_eq!(h.as_set().unwrap().len(), 3);
    }

    #[test]
    fn member_nestjoin_query6() {
        // SUPPLIER ⊣_{s,p : p.pid ∈ s.parts; parts_suppl} PART
        let db = supplier_part_db();
        let s = set_of(&db, "SUPPLIER");
        let p = set_of(&db, "PART");
        let shape = MemberShape::RightInLeftSet {
            lset: var("s").field("parts"),
            rkey: var("p").field("pid"),
        };
        let nest = HashMode::Nest {
            rfunc: Some(var("p").field("pname")),
            as_attr: "pnames".into(),
        };
        let member = spec("s", "p", JoinFamily::Member { shape }, nest, None);
        let (v, _) = run(&db, |ev, env, st| member.join_sets(&s, &p, ev, env, st));
        let rows = v.as_set().unwrap();
        assert_eq!(rows.len(), 5);
        let s4 = rows
            .iter()
            .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s4")))
            .unwrap();
        assert_eq!(
            s4.as_tuple().unwrap().get("pnames"),
            Some(&Value::empty_set())
        );
        let s1 = rows
            .iter()
            .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s1")))
            .unwrap();
        assert_eq!(
            s1.as_tuple()
                .unwrap()
                .get("pnames")
                .unwrap()
                .as_set()
                .unwrap()
                .len(),
            3
        );
        // s5 has one real part (pin) and one dangling pointer: group = {pin}
        let s5 = rows
            .iter()
            .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s5")))
            .unwrap();
        assert_eq!(
            s5.as_tuple().unwrap().get("pnames").unwrap(),
            &Value::set([Value::str("pin")])
        );
    }

    #[test]
    fn outer_join_pads_via_hash() {
        let db = figure3_db();
        let x = set_of(&db, "X");
        let y = set_of(&db, "Y");
        let outer = HashMode::Join {
            kind: JoinKind::LeftOuter,
            right_attrs: vec!["c".into(), "d".into(), "yid".into()],
        };
        let keys = equi(vec![var("x").field("b")], vec![var("y").field("d")]);
        let hash = spec("x", "y", keys, outer, None);
        let (v, _) = run(&db, |ev, env, st| hash.join_sets(&x, &y, ev, env, st));
        let rows = v.as_set().unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows
            .iter()
            .any(|r| r.as_tuple().unwrap().get("c") == Some(&Value::Null)));
    }

    /// `σ[x : x.price < 1000](L)` over a literal `L` of `rows` tuples
    /// `⟨k, price, elems⟩`, canonically ordered by `k`. The rows of the
    /// last batch carry a `Null` price, so the filter fails only there.
    fn failing_tail_probe(rows: usize) -> PhysPlan {
        let first_bad = rows - BATCH_SIZE / 2;
        let tuples: Vec<Value> = (0..rows)
            .map(|k| {
                let price = if k >= first_bad {
                    Value::Null
                } else {
                    Value::Int(k as i64 % 100)
                };
                Value::tuple([
                    ("k", Value::Int(k as i64)),
                    ("price", price),
                    ("elems", Value::set([Value::Int(k as i64)])),
                ])
            })
            .collect();
        PhysPlan::Filter {
            var: "x".into(),
            pred: lt(var("x").field("price"), int(1000)),
            input: Box::new(PhysPlan::Literal(Value::Set(Set::from_values(tuples)))),
        }
    }

    #[test]
    fn dop_1_streams_its_probe_side() {
        // A probe side of 3+ batches whose last batch fails to evaluate:
        // a streaming probe hands out output before it reaches the
        // failure; a buffering one would fail on the first pull.
        let rows = 3 * BATCH_SIZE + 17;
        let build = (0..rows)
            .map(|k| Value::tuple([("k", Value::Int(k as i64))]))
            .collect();
        let build = Box::new(PhysPlan::Literal(Value::Set(Set::from_values(build))));
        let semijoin = PhysPlan::HashJoin {
            kind: JoinKind::Semi,
            lvar: "x".into(),
            rvar: "y".into(),
            lkeys: vec![var("x").field("k")],
            rkeys: vec![var("y").field("k")],
            residual: None,
            right_attrs: Vec::new(),
            left: Box::new(failing_tail_probe(rows)),
            right: build.clone(),
        };
        let nestjoin = PhysPlan::MemberNestJoin {
            lvar: "x".into(),
            rvar: "y".into(),
            shape: MemberShape::RightInLeftSet {
                lset: var("x").field("elems"),
                rkey: var("y").field("k"),
            },
            residual: None,
            rfunc: None,
            as_attr: "ys".into(),
            left: Box::new(failing_tail_probe(rows)),
            right: build,
        };
        let db = supplier_part_db();
        for plan in [semijoin, nestjoin] {
            for (batch_kind, vectorize) in [
                (BatchKind::Columnar, true),
                (BatchKind::Columnar, false),
                (BatchKind::Row, true),
            ] {
                // an in-memory build: a grace fallback must drain the
                // probe side whole, so it cannot stream
                let opts = ExecOptions {
                    budget: MemoryBudget::unbounded(),
                    batch_kind,
                    vectorize,
                    ..PlannerConfig::default().exec_options()
                };
                let mut stream = ResultStream::with_options(&plan, &db, opts);
                let first = stream.next_chunk();
                assert!(
                    matches!(first, Ok(Some(_))),
                    "{}: first pull {first:?}",
                    plan.op_label()
                );
                let err = loop {
                    match stream.next_chunk() {
                        Ok(Some(_)) => continue,
                        Ok(None) => panic!("{}: the failing tail never surfaced", plan.op_label()),
                        Err(e) => break e,
                    }
                };
                assert!(
                    matches!(err, EvalError::NullNotAllowed(_)),
                    "{}: {err}",
                    plan.op_label()
                );
            }
        }
    }

    use oodb_adl::expr::Expr;
}
