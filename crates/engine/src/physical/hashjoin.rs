//! The join family: one `JoinSpec` and one operator for every join the
//! planner emits — hash, membership, sort-merge, nested-loop, product,
//! index and owner joins.
//!
//! "For example, the join can be implemented as an index nested-loop
//! join, a sort-merge join, a hash join, etc." (paper §6), and "to
//! implement the nestjoin, common join implementation methods like the
//! sort-merge join, or the hash join can be adapted" (§6.1). Here one
//! implementation serves the join, semijoin, antijoin, outerjoin and
//! nestjoin alike, and only the way candidates are found differs:
//!
//! * **One description.** A [`JoinSpec`] — key family, output mode
//!   (join rows or nestjoin groups), the two variables and the residual —
//!   is the payload of the one join node, [`PhysPlan::Join`], so the
//!   planner, the cost model, EXPLAIN and the executor read the same
//!   value. The [`JoinFamily`] is equi keys or a [`MemberShape`] (hash
//!   tables), `Sorted` (both sides sorted on equi keys and merged),
//!   `Loop` (no keys: every row of the drained right set is a candidate),
//!   `Index` (no right child: candidates come from the extent's
//!   secondary index) or `Owners` (a membership predicate `k(y) ∈ x.a`
//!   answered by the reverse-reference index of the extent the left
//!   side scans); the [`JoinMode`] is join rows or nestjoin groups.
//!   Family and mode also name the operator ([`JoinSpec::node_line`],
//!   [`JoinSpec::op_label`]).
//! * **One build.** A hash family evaluates every build row's keys once
//!   and hashes the keyed rows into one `JoinHashTable` or
//!   `MemberHashTable` at every dop (a parallel build keys its shares on
//!   the worker pool first). A loop build keeps the drained rows; an
//!   index build only checks that the extent and its index exist. An owner
//!   build looks each drained right row's key up once in the left
//!   extent's owner index and inverts the owners into per-left-position
//!   lists of right rows (`OwnerLists`: two `u32` arrays, no hash
//!   table). A sort-merge join builds nothing: it keys and sorts both
//!   sides into the runs of one merge cursor (`spill_exec::MergeCursor`).
//! * **One probe.** Every probe row turns its residual-checked
//!   candidates into output the same way, whether it came from a
//!   streaming batch, a materialized set, a grace-join spill partition
//!   or a sort-merge key group.
//! * **One streaming operator.** At dop 1 it runs on the calling thread
//!   and streams its probe side batch by batch (a sort-merge join streams
//!   its merge instead); a hash family at dop > 1 (under a hash
//!   `Exchange`) keys its build and runs its probe on the worker pool,
//!   around the one table. Under a bounded memory budget an oversized
//!   hash build falls back to the grace hash join at every dop, and a
//!   sort-merge join sorts in spilled runs.
//!
//! Keys are arbitrary ADL expressions over one side's variable; the
//! residual predicate (non-equi conjuncts, or a nested-loop join's whole
//! predicate) is checked on every candidate. The operator executes a
//! `BoundJoin`: the spec with its keys, residual and nestjoin function
//! [bound](crate::bound) once when the operator is compiled (`lvar` and
//! `rvar` become row slots over the borrowed probe and build rows), and
//! evaluated through one `Cx` per batch. Only the materialized
//! [`PhysPlan::exec`] binds a spec per call (`JoinSpec::join_sets`).

use super::columnar::ProbeInput;
use super::exchange::{duplicate_free, run_workers, segment_scan, Segment, Share};
use super::operator::{
    drain_raw, drain_rows, drain_to_set, BoxOp, Buffered, ExecCtx, Operator, BATCH_SIZE,
};
use super::spill_exec::{self, MergeCursor};
use super::{Partitioning, PhysPlan};
use crate::bound::{Binder, BoundExpr, Cx, Outer};
use crate::eval::{Env, EvalError, Evaluator};
use crate::stats::Stats;
use oodb_adl::expr::{Expr, JoinKind};
use oodb_catalog::{Database, Table};
use oodb_spill::{MemoryBudget, SpillMetrics};
use oodb_value::fxhash::FxHashMap;
use oodb_value::{Batch, Name, Set, Value};
use std::borrow::Borrow;

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

/// Stable hash of a composite join key: the grace join routes build and
/// probe rows to spill partitions by it (see `spill_exec`), so equal keys
/// must meet in the same partition on every run (FxHash over the
/// canonical key values does).
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

/// How a join finds a probe row's candidates.
#[derive(Debug, Clone)]
pub enum JoinFamily {
    /// Equi-keyed hash join: `lkeys(x) = rkeys(y)`, build on the right.
    Equi {
        /// Key expressions over the left variable (conjunctive equi-keys).
        lkeys: Vec<Expr>,
        /// Key expressions over the right variable, pairwise with `lkeys`.
        rkeys: Vec<Expr>,
    },
    /// Membership-keyed hash join (e.g. `p.pid ∈ s.parts`).
    Member {
        /// The membership predicate's shape.
        shape: MemberShape,
    },
    /// Sort-merge join on `lkeys(x) = rkeys(y)`: both sides are sorted on
    /// their keys and merged, and every pair of an equal-key group is a
    /// candidate, counted in `loop_iterations`.
    Sorted {
        /// Key expressions over the left variable.
        lkeys: Vec<Expr>,
        /// Key expressions over the right variable, pairwise with `lkeys`.
        rkeys: Vec<Expr>,
    },
    /// No keys: every row of the drained right set is a candidate,
    /// counted in `loop_iterations` — a nested loop, or the Cartesian
    /// product when the join has no predicate.
    Loop,
    /// Index nested loop: no build and no right child; the candidates
    /// are the rows the secondary index on `extent.attr` holds under
    /// `lkey(x)`, each probe counted in `index_probes` (§6's "index
    /// nested-loop join").
    Index {
        /// Key expression over the left variable.
        lkey: Expr,
        /// Indexed attribute of the right extent.
        attr: Name,
        /// The right extent.
        extent: Name,
    },
    /// Owner join, for `rkey(y) ∈ x.attr` when the left side scans
    /// `extent`, whose reverse-reference index on `attr` lists the
    /// owners of every oid: no hash table and no hash probe. Each right
    /// row's key is looked up once in that index (one `index_probes`
    /// each), the owners are inverted into left-position → right-row
    /// lists, and each left row finds its list by its oid's position
    /// (one `oid_lookups` each). Only nestjoins, semijoins and
    /// antijoins, and only as a cost-based choice.
    Owners {
        /// Scalar key over the right variable.
        rkey: Expr,
        /// The left extent's reverse-indexed set-of-oid attribute.
        attr: Name,
        /// The left extent.
        extent: Name,
    },
}

impl JoinFamily {
    /// Whether the family builds hash tables — the only families that
    /// key their build on the worker pool or fall back to the grace join.
    pub(crate) fn hashed(&self) -> bool {
        matches!(self, JoinFamily::Equi { .. } | JoinFamily::Member { .. })
    }
}

/// Whether a join emits join rows or nestjoin groups.
#[derive(Debug, Clone)]
pub enum JoinMode {
    /// `⋈ ⋉ ▷ ⟕`; an outer join pads `right_attrs` with `Null`.
    Join {
        /// Join kind.
        kind: JoinKind,
        /// Right-hand attribute names (the outer join's padding schema).
        right_attrs: Vec<Name>,
    },
    /// `⊣` — one output row per probe row, carrying its group (paper
    /// §6.1); dangling left rows keep an empty group.
    Nest {
        /// Function over matching right rows (`None` = identity).
        rfunc: Option<Expr>,
        /// The new set-valued attribute.
        as_attr: Name,
    },
}

/// One build row with its index keys: the composite key of an equi
/// join, or the membership keys the row is reachable under.
pub(crate) type Keyed<V = Value> = (Vec<Value>, V);

/// The probe keys one membership-join row contributes, held without
/// copying a set's elements: every element of `lset(x)`
/// (`RightInLeftSet`), or the one `lkey(x)`.
pub(crate) enum ProbeKeys {
    /// The elements of `lset(x)`.
    Elems(Set),
    /// `lkey(x)`.
    One(Value),
}

impl ProbeKeys {
    /// The keys of a row whose `lset` or `lkey` (per `shape`) is `v`.
    fn new(shape: &MemberShape, v: Value) -> Result<ProbeKeys, EvalError> {
        Ok(match shape {
            MemberShape::RightInLeftSet { .. } => ProbeKeys::Elems(v.into_set()?),
            MemberShape::LeftInRightSet { .. } => ProbeKeys::One(v),
        })
    }

    /// The keys, in probe order.
    pub(crate) fn as_slice(&self) -> &[Value] {
        match self {
            ProbeKeys::Elems(s) => s.as_slice(),
            ProbeKeys::One(v) => std::slice::from_ref(v),
        }
    }
}

/// What a join computes: build on the right (`rvar`), probe with the
/// left (`lvar`), finding candidates per `family`, emitting per `mode`,
/// with `residual` checked on every candidate. The payload of
/// [`PhysPlan::Join`]: the planner, the cost model, EXPLAIN and the
/// executor all read this one description.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// How candidates are found.
    pub family: JoinFamily,
    /// What a probe row emits.
    pub mode: JoinMode,
    /// Left (probe) variable.
    pub lvar: Name,
    /// Right (build) variable.
    pub rvar: Name,
    /// Predicate checked on every candidate pair after its keys match
    /// (a nested loop's whole predicate); `None` accepts every candidate.
    pub residual: Option<Expr>,
}

/// The output a probe row has accumulated from its matches so far.
#[derive(Default)]
pub(crate) struct RowMatches {
    pub(crate) matched: bool,
    /// The nestjoin group (empty in join mode).
    pub(crate) group: Vec<Value>,
    /// Whether `group` is collected in canonical order, so it is checked
    /// instead of sorted: an owner join's identity group, which takes
    /// right rows of a canonical set in ascending index order.
    pub(crate) sorted: bool,
}

impl JoinSpec {
    /// The Cartesian product: a loop inner join with no predicate. It
    /// binds no variables, so its spec never evaluates anything under
    /// them.
    pub fn product() -> JoinSpec {
        let unbound = Name::from("");
        JoinSpec {
            family: JoinFamily::Loop,
            mode: JoinMode::Join {
                kind: JoinKind::Inner,
                right_attrs: Vec::new(),
            },
            lvar: unbound.clone(),
            rvar: unbound,
            residual: None,
        }
    }

    /// Whether this is the Cartesian product: a loop inner join with no
    /// predicate.
    pub(crate) fn is_product(&self) -> bool {
        self.bare() && matches!(self.family, JoinFamily::Loop)
    }

    /// Whether the operator's name alone labels it: the product, and the
    /// sort-merge inner join (the only sort-merge join the planner emits).
    fn bare(&self) -> bool {
        let inner = matches!(
            self.mode,
            JoinMode::Join {
                kind: JoinKind::Inner,
                ..
            }
        );
        inner
            && match self.family {
                JoinFamily::Loop => self.residual.is_none(),
                JoinFamily::Sorted { .. } => true,
                _ => false,
            }
    }

    /// The operator's name, from its family and mode — the one place a
    /// join is named.
    fn name(&self) -> &'static str {
        let nest = matches!(self.mode, JoinMode::Nest { .. });
        match &self.family {
            _ if self.is_product() => "Product",
            JoinFamily::Equi { .. } if nest => "HashNestJoin",
            JoinFamily::Equi { .. } => "HashJoin",
            JoinFamily::Member { .. } if nest => "MemberNestJoin",
            JoinFamily::Member { .. } => "HashMemberJoin",
            JoinFamily::Sorted { .. } if nest => "SortMergeNestJoin",
            JoinFamily::Sorted { .. } => "SortMergeJoin",
            JoinFamily::Loop if nest => "NLNestJoin",
            JoinFamily::Loop => "NLJoin",
            JoinFamily::Index { .. } => "IndexNLJoin",
            JoinFamily::Owners { .. } if nest => "OwnersNestJoin",
            JoinFamily::Owners { .. } => "OwnersJoin",
        }
    }

    /// The EXPLAIN line: `HashJoin Semi`, `MemberNestJoin ⊣→ys`,
    /// `IndexNLJoin Inner on PART.pid`, `OwnersNestJoin ⊣→ys on
    /// SUPPLIER.parts`, `Product`, `SortMergeJoin`.
    pub fn node_line(&self) -> String {
        let name = self.name();
        let on = match &self.family {
            JoinFamily::Index { attr, extent, .. } | JoinFamily::Owners { attr, extent, .. } => {
                format!(" on {extent}.{attr}")
            }
            _ => String::new(),
        };
        match &self.mode {
            _ if self.bare() => name.into(),
            JoinMode::Join { kind, .. } => format!("{name} {kind:?}{on}"),
            JoinMode::Nest { as_attr, .. } => format!("{name} ⊣→{as_attr}{on}"),
        }
    }

    /// The materialized join of [`PhysPlan::exec`]: binds this spec for
    /// the one call (see [`BoundJoin::join_sets`]).
    pub(crate) fn join_sets(
        &self,
        left: &Set,
        right: Option<&Set>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Value, EvalError> {
        BoundJoin::new(self).join_sets(left, right, ev, env, stats)
    }

    /// The operator label `Stats::operators` reports:
    /// `HashJoin(Semi)`, `MemberNestJoin(ys)`, `OwnersJoin(Semi)`,
    /// `Product`, `SortMergeJoin`.
    pub fn op_label(&self) -> String {
        let name = self.name();
        match &self.mode {
            _ if self.bare() => name.into(),
            JoinMode::Join { kind, .. } => format!("{name}({kind:?})"),
            JoinMode::Nest { as_attr, .. } => format!("{name}({as_attr})"),
        }
    }

    /// One table over pre-keyed build entries; each index insertion is
    /// counted into `inserted` (the `hash_build_rows` counter). With
    /// `canonical` each key's candidates are put back in canonical row
    /// order (see [`JoinHashTable::sort_candidates`]).
    fn table<V: Borrow<Value>>(
        &self,
        entries: impl IntoIterator<Item = Keyed<V>>,
        canonical: bool,
        inserted: &mut u64,
    ) -> BuildSide<V> {
        match self.family {
            JoinFamily::Equi { .. } => {
                let mut t = JoinHashTable::from_keyed(entries, inserted);
                if canonical {
                    t.sort_candidates();
                }
                BuildSide::Equi(t)
            }
            JoinFamily::Member { .. } => {
                let mut t = MemberHashTable::from_keyed(entries, inserted);
                if canonical {
                    t.sort_candidates();
                }
                BuildSide::Member(t)
            }
            JoinFamily::Loop
            | JoinFamily::Index { .. }
            | JoinFamily::Sorted { .. }
            | JoinFamily::Owners { .. } => not_hashed(),
        }
    }

    /// What probe row `x` emits once its matches are in: a semijoin
    /// keeps a matched row, an antijoin an unmatched one, an outer join
    /// pads an unmatched one, a nestjoin attaches the (possibly empty)
    /// group.
    pub(crate) fn finish_row(
        &self,
        row: RowMatches,
        x: &Value,
        out: &mut Vec<Value>,
    ) -> Result<(), EvalError> {
        match &self.mode {
            JoinMode::Join {
                kind: JoinKind::Semi,
                ..
            } if row.matched => out.push(x.clone()),
            JoinMode::Join {
                kind: JoinKind::Anti,
                ..
            } if !row.matched => out.push(x.clone()),
            JoinMode::Join {
                kind: JoinKind::LeftOuter,
                right_attrs,
            } if !row.matched => out.push(null_pad(x, right_attrs)?),
            JoinMode::Nest { as_attr, .. } => {
                let group = if row.sorted {
                    Set::from_sorted(row.group).ok_or(EvalError::OperatorProtocol(
                        "an owner join's group is out of canonical order",
                    ))?
                } else {
                    Set::from_values(row.group)
                };
                out.push(with_group(x, as_attr, group)?);
            }
            JoinMode::Join { .. } => {}
        }
        Ok(())
    }
}

/// A [`JoinSpec`] with its expressions [bound](crate::bound): what the
/// join operator, the grace join and the merge cursor execute. The probe
/// side's keys, the build side's keys, the residual and the nestjoin
/// function are lowered once, when the operator is compiled (the
/// materialized [`PhysPlan::exec`] binds per call), by one binder, so
/// one [`Cx`] per batch evaluates all of them.
pub(crate) struct BoundJoin {
    /// The join executed.
    pub(crate) spec: JoinSpec,
    outer: Outer,
    /// Over `lvar`: an equi or sort-merge join's `lkeys`, an index join's
    /// `lkey`, a membership join's `lset` or `lkey`.
    left: Vec<BoundExpr>,
    /// Over `rvar`: an equi or sort-merge join's `rkeys`, a membership
    /// or owner join's `rkey`, a membership join's `rset`.
    right: Vec<BoundExpr>,
    /// Over `lvar` and `rvar`.
    residual: Option<BoundExpr>,
    /// The nestjoin's function, over `rvar`.
    rfunc: Option<BoundExpr>,
}

impl BoundJoin {
    /// Binds `spec`'s expressions.
    pub(crate) fn new(spec: &JoinSpec) -> Self {
        let (lvar, rvar) = (&spec.lvar, &spec.rvar);
        let (left, right): (Vec<&Expr>, Vec<&Expr>) = match &spec.family {
            JoinFamily::Equi { lkeys, rkeys } | JoinFamily::Sorted { lkeys, rkeys } => {
                (lkeys.iter().collect(), rkeys.iter().collect())
            }
            JoinFamily::Member {
                shape: MemberShape::RightInLeftSet { lset, rkey },
            } => (vec![lset], vec![rkey]),
            JoinFamily::Member {
                shape: MemberShape::LeftInRightSet { lkey, rset },
            } => (vec![lkey], vec![rset]),
            JoinFamily::Index { lkey, .. } => (vec![lkey], Vec::new()),
            JoinFamily::Owners { rkey, .. } => (Vec::new(), vec![rkey]),
            JoinFamily::Loop => (Vec::new(), Vec::new()),
        };
        let mut b = Binder::new();
        let left = left.into_iter().map(|e| b.bind(e, &[lvar])).collect();
        let right = right.into_iter().map(|e| b.bind(e, &[rvar])).collect();
        let residual = spec.residual.as_ref().map(|p| b.bind(p, &[lvar, rvar]));
        let rfunc = match &spec.mode {
            JoinMode::Nest { rfunc: Some(g), .. } => Some(b.bind(g, &[rvar])),
            _ => None,
        };
        BoundJoin {
            spec: spec.clone(),
            outer: b.finish(),
            left,
            right,
            residual,
            rfunc,
        }
    }

    /// The evaluation context of one batch (see [`Cx::new`]).
    pub(crate) fn cx<'r, 'db>(
        &self,
        ev: &'r Evaluator<'db>,
        env: &'r mut Env,
        stats: &'r mut Stats,
    ) -> Cx<'r, 'db> {
        Cx::new(ev, env, stats, &self.outer)
    }

    /// The probe row's composite key: an equi, sort-merge or index
    /// join's left keys, in order.
    pub(crate) fn left_keys(
        &self,
        x: &Value,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        self.left.iter().map(|k| cx.value(k, &[x])).collect()
    }

    /// A sort-merge build row's composite key.
    pub(crate) fn right_keys(
        &self,
        y: &Value,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        self.right.iter().map(|k| cx.value(k, &[y])).collect()
    }

    /// The probe keys a membership join's left row contributes: every
    /// element of `lset(x)` (`RightInLeftSet`), or `lkey(x)`.
    pub(crate) fn probe_keys(
        &self,
        shape: &MemberShape,
        x: &Value,
        cx: &mut Cx<'_, '_>,
    ) -> Result<ProbeKeys, EvalError> {
        ProbeKeys::new(shape, cx.value(&self.left[0], &[x])?)
    }

    /// Whether the residual holds on `(x, y)`; each check is one
    /// predicate evaluation.
    fn residual_holds(&self, x: &Value, y: &Value, cx: &mut Cx<'_, '_>) -> Result<bool, EvalError> {
        let Some(pred) = &self.residual else {
            return Ok(true);
        };
        cx.stats.predicate_evals += 1;
        cx.truth(pred, &[x, y])
    }

    /// What a nestjoin collects from matching right row `y`: the
    /// extended nestjoin's function of it, or `y` itself.
    fn collect_right(&self, y: &Value, cx: &mut Cx<'_, '_>) -> Result<Value, EvalError> {
        match &self.rfunc {
            Some(g) => cx.value(g, &[y]),
            None => Ok(y.clone()),
        }
    }

    /// A build row's index keys: its composite key for an equi join;
    /// `rkey(y)` (`RightInLeftSet`) or every element of `rset(y)`
    /// (`LeftInRightSet`) for a membership join. Every build evaluates
    /// them here, once per row.
    fn build_keys(&self, y: &Value, cx: &mut Cx<'_, '_>) -> Result<Vec<Value>, EvalError> {
        match &self.spec.family {
            JoinFamily::Equi { .. } => self.right_keys(y, cx),
            JoinFamily::Member {
                shape: MemberShape::RightInLeftSet { .. },
            } => Ok(vec![cx.value(&self.right[0], &[y])?]),
            JoinFamily::Member {
                shape: MemberShape::LeftInRightSet { .. },
            } => cx.with(&self.right[0], &[y], |s| {
                Ok(s.as_set()?.as_slice().to_vec())
            }),
            JoinFamily::Loop
            | JoinFamily::Index { .. }
            | JoinFamily::Sorted { .. }
            | JoinFamily::Owners { .. } => not_hashed(),
        }
    }

    /// The build of every join that needs neither workers nor a budget
    /// check: a hash family keys `rows` and hashes them into one table
    /// as they stream past, a loop keeps them, an index join
    /// (whose `rows` are empty) checks its extent and index, and an owner
    /// join inverts the owners of its rows' keys into
    /// [`OwnerLists`]. Generic over row ownership: the streaming operator
    /// moves owned rows in (`V = Value`, so the build outlives any one
    /// probe batch), the materialized join borrows its input set
    /// (`V = &Value`, zero copies).
    fn build<V: Borrow<Value>>(
        &self,
        rows: impl IntoIterator<Item = V>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<BuildSide<V>, EvalError> {
        match &self.spec.family {
            JoinFamily::Loop => return Ok(BuildSide::Loop(rows.into_iter().collect())),
            JoinFamily::Index { attr, extent, .. } => {
                index_table(cx.db(), extent, attr, false)?;
                return Ok(BuildSide::Index);
            }
            JoinFamily::Owners { attr, extent, .. } => {
                let table = index_table(cx.db(), extent, attr, true)?;
                let lists = self.owner_lists(table, attr, rows.into_iter().collect(), cx)?;
                return Ok(BuildSide::Owners(lists));
            }
            JoinFamily::Sorted { .. } => not_hashed(),
            JoinFamily::Equi { .. } | JoinFamily::Member { .. } => {}
        }
        let mut err = None;
        let mut inserted = 0;
        let keyed = rows
            .into_iter()
            .map_while(|y| match self.build_keys(y.borrow(), cx) {
                Ok(keys) => Some((keys, y)),
                Err(e) => {
                    err = Some(e);
                    None
                }
            });
        let tables = self.spec.table(keyed, false, &mut inserted);
        cx.stats.hash_build_rows += inserted;
        err.map_or(Ok(tables), Err)
    }

    /// Probes one batch of left rows against `build`, producing output
    /// rows.
    fn probe<V: Borrow<Value>>(
        &self,
        build: &BuildSide<V>,
        probe: ProbeInput<'_>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        match (&self.spec.family, build) {
            (JoinFamily::Equi { .. }, BuildSide::Equi(t)) => t.probe_batch(self, probe, cx),
            (JoinFamily::Member { shape }, BuildSide::Member(t)) => {
                t.probe_batch(self, shape, probe, cx)
            }
            (JoinFamily::Loop, BuildSide::Loop(rows)) => self.probe_loop(rows, probe, cx),
            (JoinFamily::Index { attr, extent, .. }, BuildSide::Index) => {
                let table = index_table(cx.db(), extent, attr, false)?;
                self.probe_index(table, attr, probe, cx)
            }
            (JoinFamily::Owners { attr, extent, .. }, BuildSide::Owners(lists)) => {
                let table = index_table(cx.db(), extent, attr, true)?;
                self.probe_owners(lists, table, probe, cx)
            }
            _ => unreachable!("a spec only probes the side it built"),
        }
    }

    /// An owner join's build over the right `rows` (a canonical set, in
    /// order): each row's key is looked up once in `table`'s owner index
    /// on `attr`, and the owners are inverted into [`OwnerLists`], so
    /// each left row's list holds its right rows in ascending order.
    fn owner_lists<V: Borrow<Value>>(
        &self,
        table: &Table,
        attr: &Name,
        rows: Vec<V>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<OwnerLists<V>, EvalError> {
        let index = table.owner_index(attr).expect("index_table checked it");
        let mut owners = Vec::with_capacity(rows.len());
        for y in &rows {
            cx.stats.index_probes += 1;
            owners.push(cx.with(&self.right[0], &[y.borrow()], |k| Ok(index.owners(k)))?);
        }
        let postings: usize = owners.iter().map(|o| o.len()).sum();
        if u32::try_from(rows.len().max(postings)).is_err() {
            return Err(EvalError::OperatorProtocol(
                "an owner join holds over u32::MAX rows or postings",
            ));
        }
        // counting sort by left position: offsets[p]..offsets[p + 1]
        // is position p's slice of `indices`
        let mut offsets = vec![0u32; table.len() + 1];
        for &p in owners.iter().flat_map(|o| o.iter()) {
            offsets[p + 1] += 1;
        }
        for p in 1..offsets.len() {
            offsets[p] += offsets[p - 1];
        }
        let mut next = offsets.clone();
        let mut indices = vec![0u32; postings];
        for (j, o) in owners.iter().enumerate() {
            for &p in o.iter() {
                indices[next[p] as usize] = j as u32;
                next[p] += 1;
            }
        }
        Ok(OwnerLists {
            rows,
            offsets,
            indices,
        })
    }

    /// The owner probe: each probe row — an object of `table`, the
    /// extent the left side scans — finds its candidates in `lists`
    /// under its position, one oid lookup per row. A columnar batch
    /// gives the oid off its identity column.
    fn probe_owners<V: Borrow<Value>>(
        &self,
        lists: &OwnerLists<V>,
        table: &Table,
        probe: ProbeInput<'_>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let identity = table.identity();
        let ids = probe.column(identity);
        let nest = matches!(self.spec.mode, JoinMode::Nest { .. });
        let mut out = Vec::new();
        for i in 0..probe.len() {
            let x = probe.row_at(i);
            let oid = match ids {
                Some(col) => col.value_at(i).as_oid().ok(),
                None => x.as_tuple()?.get(identity).and_then(|v| v.as_oid().ok()),
            };
            cx.stats.oid_lookups += 1;
            let Some(pos) = oid.and_then(|o| table.position(o)) else {
                return Err(EvalError::OperatorProtocol(
                    "an owner join's left row is not an object of its extent",
                ));
            };
            let matches = lists.at(pos);
            let mut row = RowMatches {
                group: Vec::with_capacity(if nest { matches.len() } else { 0 }),
                sorted: self.rfunc.is_none(),
                ..RowMatches::default()
            };
            for &j in matches {
                if !self.candidate(x, lists.row(j), &mut row, &mut out, cx)? {
                    break;
                }
            }
            self.spec.finish_row(row, x, &mut out)?;
        }
        Ok(out)
    }

    /// The loop probe: every row of `rows` is a candidate of every probe
    /// row — a nested loop's drained right set, or the equal-key group a
    /// sort-merge join merges a left key group with.
    pub(crate) fn probe_loop<V: Borrow<Value>>(
        &self,
        rows: &[V],
        probe: ProbeInput<'_>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let mut out = Vec::new();
        for i in 0..probe.len() {
            let x = probe.row_at(i);
            let mut row = RowMatches::default();
            for y in rows {
                cx.stats.loop_iterations += 1;
                if !self.candidate(x, y.borrow(), &mut row, &mut out, cx)? {
                    break;
                }
            }
            self.spec.finish_row(row, x, &mut out)?;
        }
        Ok(out)
    }

    /// The index probe: each probe row's candidates are the rows of
    /// `table`'s index on `attr` under `lkey(x)`. A key that is a field
    /// of the probe row reads its column of a columnar batch.
    fn probe_index(
        &self,
        table: &Table,
        attr: &Name,
        probe: ProbeInput<'_>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let key_col = probe.key_column(&self.left[0]);
        let mut out = Vec::new();
        for i in 0..probe.len() {
            let x = probe.row_at(i);
            let key = match key_col {
                Some(col) => col.value_at(i),
                None => cx.value(&self.left[0], &[x])?,
            };
            cx.stats.index_probes += 1;
            let mut row = RowMatches::default();
            let candidates = table.index_probe(attr, &key).unwrap_or_default();
            for t in table.rows_at(candidates) {
                let y = Value::Tuple(t.clone());
                if !self.candidate(x, &y, &mut row, &mut out, cx)? {
                    break;
                }
            }
            self.spec.finish_row(row, x, &mut out)?;
        }
        Ok(out)
    }

    /// The materialized join: builds over `right` (absent for an index
    /// join) and probes with `left`, both borrowed; a sort-merge join
    /// runs its merge cursor to the end instead.
    pub(crate) fn join_sets(
        &self,
        left: &Set,
        right: Option<&Set>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Value, EvalError> {
        let rows = right.into_iter().flat_map(|r| r.iter());
        let mut cx = self.cx(ev, env, stats);
        let out = if let JoinFamily::Sorted { .. } = self.spec.family {
            let (l, r) = (left.iter().cloned().collect(), rows.cloned().collect());
            let (budget, local) = (MemoryBudget::unbounded(), &mut SpillMetrics::default());
            let mut merge = MergeCursor::new(self, l, r, &budget, local, &mut cx)?;
            let out = merge.next_chunk(self, usize::MAX, &mut cx)?;
            out.unwrap_or_default()
        } else {
            let build = self.build(rows, &mut cx)?;
            self.probe(&build, left.as_slice().into(), &mut cx)?
        };
        Ok(Value::Set(Set::from_values(out)))
    }

    /// Checks candidate `y` of probe row `x` against the residual and
    /// records it as a match if it holds. Returns whether the row wants
    /// further candidates.
    fn candidate(
        &self,
        x: &Value,
        y: &Value,
        row: &mut RowMatches,
        out: &mut Vec<Value>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<bool, EvalError> {
        Ok(!self.residual_holds(x, y, cx)? || self.matched(x, y, row, out, cx)?)
    }

    /// Records one residual-checked `(x, y)` match of the current probe
    /// row: inner and outer joins emit the pair, nestjoins add `y`'s
    /// contribution to the group. Returns whether the row wants further
    /// matches (semi- and antijoins stop at the first).
    fn matched(
        &self,
        x: &Value,
        y: &Value,
        row: &mut RowMatches,
        out: &mut Vec<Value>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<bool, EvalError> {
        row.matched = true;
        match &self.spec.mode {
            JoinMode::Join {
                kind: JoinKind::Inner | JoinKind::LeftOuter,
                ..
            } => {
                out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                Ok(true)
            }
            JoinMode::Join { .. } => Ok(false),
            JoinMode::Nest { .. } => {
                row.group.push(self.collect_right(y, cx)?);
                Ok(true)
            }
        }
    }
}

/// The arm of a hash-only step (keying, tables, grace) for a family
/// without hash tables: the operator never sends one there
/// (see [`JoinFamily::hashed`]).
pub(crate) fn not_hashed() -> ! {
    unreachable!("only the hash families key, partition or spill build rows")
}

/// The extent an index join probes, checked to carry the secondary
/// index on `attr`, or (`owners`) the extent an owner join's left side
/// scans, checked to carry the reverse-reference index on `attr`. The
/// planner guards this (see `Planner::index_nl_candidate` and
/// `Planner::owners_family`), so a failure means a hand-built or stale
/// plan — fail loudly instead of probing a missing index.
fn index_table<'db>(
    db: &'db Database,
    extent: &Name,
    attr: &Name,
    owners: bool,
) -> Result<&'db Table, EvalError> {
    let table = db
        .table(extent)
        .ok_or_else(|| EvalError::UnknownTable(extent.clone()))?;
    let indexed = if owners {
        table.has_owner_index(attr)
    } else {
        table.has_index(attr)
    };
    if !indexed {
        return Err(EvalError::MissingIndex {
            extent: extent.clone(),
            attr: attr.clone(),
        });
    }
    Ok(table)
}

// ---------------------------------------------------------------------
// The tables.

/// The built side of a join: for a hash family its table; for a loop
/// the drained right rows; nothing for an index join, which probes its extent's index;
/// for an owner join the right rows listed by left position.
enum BuildSide<V = Value> {
    /// The equi-join table.
    Equi(JoinHashTable<V>),
    /// The membership-join table.
    Member(MemberHashTable<V>),
    /// The right set, every row a candidate.
    Loop(Vec<V>),
    /// The index join's checked extent, looked up per probe batch.
    Index,
    /// The owner join's lists.
    Owners(OwnerLists<V>),
}

/// An owner join's build ([`JoinFamily::Owners`]): the right rows of a
/// canonical set, and for every insertion position `p` of the left
/// extent the ascending indices of the right rows whose key its set
/// holds, `indices[offsets[p]..offsets[p + 1]]` (two `u32` arrays, one
/// entry per posting, in place of a hash table).
struct OwnerLists<V = Value> {
    rows: Vec<V>,
    offsets: Vec<u32>,
    indices: Vec<u32>,
}

impl<V: Borrow<Value>> OwnerLists<V> {
    /// The indices of left position `p`'s right rows, ascending.
    fn at(&self, p: usize) -> &[u32] {
        &self.indices[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Right row `j`.
    fn row(&self, j: u32) -> &Value {
        self.rows[j as usize].borrow()
    }
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
    /// fields of the probe row read the whole key vector straight off the
    /// key columns.
    fn probe_batch(
        &self,
        join: &BoundJoin,
        probe: ProbeInput<'_>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let key_cols = probe.key_columns(&join.left);
        let mut out = Vec::new();
        for i in 0..probe.len() {
            let x = probe.row_at(i);
            let key = match &key_cols {
                Some(cols) => cols.iter().map(|c| c.value_at(i)).collect::<Vec<_>>(),
                None => join.left_keys(x, cx)?,
            };
            self.probe_row(join, &key, x, &mut out, cx)?;
        }
        Ok(out)
    }

    /// Probes row `x` under its evaluated `key` — also the grace join's
    /// per-row probe, whose keys were evaluated to route the row to its
    /// partition file. Kind-specific unmatched handling is safe there
    /// too: an equi-keyed probe row can only ever match inside its own
    /// partition.
    pub(crate) fn probe_row(
        &self,
        join: &BoundJoin,
        key: &[Value],
        x: &Value,
        out: &mut Vec<Value>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<(), EvalError> {
        cx.stats.hash_probes += 1;
        let mut row = RowMatches::default();
        for y in self.map.get(key).map_or(&[][..], Vec::as_slice) {
            if !join.candidate(x, y.borrow(), &mut row, out, cx)? {
                break;
            }
        }
        join.spec.finish_row(row, x, out)
    }
}

/// A built hash table for membership joins: right rows are stored once
/// and indexed by key (for `RightInLeftSet`, `rkey(y)`; for
/// `LeftInRightSet`, every element of `rset(y)`), so a row reachable
/// under several keys is not copied.
pub(crate) struct MemberHashTable<V = Value> {
    rows: Vec<V>,
    index: FxHashMap<Value, Vec<usize>>,
}

impl<V: Borrow<Value>> MemberHashTable<V> {
    /// Build phase over pre-evaluated `(keys, row)` entries — one entry
    /// per row, carrying every index key the row is reachable under.
    /// Each index insertion is counted into `inserted`, as in
    /// [`JoinHashTable::from_keyed`].
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

    /// Walks the candidates of probe row `x` under its membership `keys`,
    /// one hash probe per key, checking each against the residual and
    /// recording it into `row`, until the row wants no more (see
    /// [`BoundJoin::candidate`]). Both the streaming probe and the grace
    /// join's run through here. No right row is reached twice: a build
    /// row sits under distinct keys (the elements of its `rset`, or its
    /// one `rkey`), and the probe keys are distinct too (the elements of
    /// `lset(x)`, or its one `lkey`), so each `(x, y)` pair meets under
    /// at most one key.
    pub(crate) fn match_keys(
        &self,
        join: &BoundJoin,
        keys: &[Value],
        x: &Value,
        row: &mut RowMatches,
        out: &mut Vec<Value>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<(), EvalError> {
        for k in keys {
            cx.stats.hash_probes += 1;
            for &yi in self.index.get(k).map_or(&[][..], Vec::as_slice) {
                if !join.candidate(x, self.rows[yi].borrow(), row, out, cx)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Probe phase over one batch of left rows. A columnar batch whose
    /// `lset`/`lkey` is a field of the probe row reads it off its column.
    fn probe_batch(
        &self,
        join: &BoundJoin,
        shape: &MemberShape,
        probe: ProbeInput<'_>,
        cx: &mut Cx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let left_col = probe.key_column(&join.left[0]);
        let mut out = Vec::new();
        for i in 0..probe.len() {
            let x = probe.row_at(i);
            let keys = match left_col {
                Some(col) => ProbeKeys::new(shape, col.value_at(i))?,
                None => join.probe_keys(shape, x, cx)?,
            };
            let mut row = RowMatches::default();
            self.match_keys(join, keys.as_slice(), x, &mut row, &mut out, cx)?;
            join.spec.finish_row(row, x, &mut out)?;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The streaming operator.

/// One side of a [`JoinOp`].
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

/// The join family's streaming operator: every [`PhysPlan::Join`]
/// compiles to it at dop 1, and a hash
/// `Exchange` over a hash-family join compiles to it at the exchange's
/// dop (any other family is clamped to dop 1).
///
/// **dop 1** runs on the calling thread with the caller's context. The
/// build side drains through the canonical-set breaker and is hashed
/// into one table (a loop keeps the drained rows; an owner join lists
/// them by left position; an index join has no build side and only
/// checks its extent and index); then the probe side streams, one left
/// batch per `next_batch`. A sort-merge join
/// drains both sides instead, sorts them into the runs of one
/// [`MergeCursor`] (spilled runs under a bounded budget), and streams
/// the merge, one chunk of key groups per `next_batch`.
///
/// **dop > 1** (hash families only) runs build and probe on the worker
/// pool around one table. `dop` build workers each take a share of the
/// build side and evaluate its keys; the keyed rows are then hashed
/// into one table on the calling thread, in worker order. Then `dop`
/// probe workers each stream a share of the probe side through the
/// shared table, and the output is buffered. A share is a worker's
/// stride of the side's segment when the side is a round-robin exchange
/// over one (its batches reach the probe with their key columns in
/// place), else a contiguous chunk of the side drained on the calling
/// thread — the build side through the usual canonical-set breaker,
/// which is also how a build segment that may emit duplicate rows keeps
/// its set semantics.
///
/// Under a bounded memory budget a hash build side always drains, and
/// a hash build that does not fit the budget falls back to the grace
/// hash join (see `spill_exec::grace_join`) at every dop.
pub(crate) struct JoinOp {
    join: BoundJoin,
    dop: usize,
    left: JoinInput,
    /// The build side; `None` for an index join.
    right: Option<JoinInput>,
    state: JoinState,
    spill: SpillMetrics,
    /// An owner join's probed rows not yet handed out (see
    /// [`JoinOp::next_batch`]).
    carry: Vec<Value>,
}

/// Where a [`JoinOp`] is between `open` and exhaustion.
enum JoinState {
    /// Build side not yet drained.
    Pending,
    /// dop 1 with an in-memory build: probe batches stream against it.
    Probing(BuildSide),
    /// A sort-merge join: the merge cursor over both sides' sorted runs
    /// emits output a chunk at a time.
    Merging(Box<MergeCursor>),
    /// The whole output, buffered: the grace join's, or the parallel
    /// probe's.
    Done(Buffered),
}

/// What a build produced: a side to probe, or — when a bounded hash
/// build did not fit its budget — the output of the grace join it ran
/// instead.
enum Built {
    Side(BuildSide),
    Spilled(Vec<Value>),
}

impl JoinOp {
    /// The operator for a [`PhysPlan::Join`] at pre-order ordinal
    /// `ord`; `None` for any other node.
    pub(crate) fn from_plan(plan: &PhysPlan, ord: usize, dop: usize) -> Option<Self> {
        let PhysPlan::Join { spec, left, right } = plan else {
            return None;
        };
        let dop = if spec.family.hashed() { dop } else { 1 };
        let kids = plan.child_ordinals(ord);
        Some(JoinOp {
            join: BoundJoin::new(spec),
            dop,
            left: JoinInput::new(left, kids[0], false, dop),
            right: right
                .as_deref()
                .map(|r| JoinInput::new(r, kids[1], true, dop)),
            state: JoinState::Pending,
            spill: SpillMetrics::default(),
            carry: Vec::new(),
        })
    }

    /// Runs the build — and at dop > 1 the whole probe — on the first
    /// pull; a sort-merge join sorts both sides instead.
    fn start(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<JoinState, EvalError> {
        if let JoinFamily::Sorted { .. } = self.join.spec.family {
            return Ok(JoinState::Merging(Box::new(self.sort(ctx)?)));
        }
        let built = if self.dop == 1 {
            self.build_serial(ctx)?
        } else {
            self.build_parallel(ctx)?
        };
        Ok(match built {
            Built::Spilled(rows) => JoinState::Done(Buffered::new(rows)),
            Built::Side(build) if self.dop == 1 => JoinState::Probing(build),
            Built::Side(build) => JoinState::Done(Buffered::new(self.probe_parallel(&build, ctx)?)),
        })
    }

    /// The sort phase of a sort-merge join: both sides drain, left
    /// first. Unbounded, each canonical set becomes one in-memory run.
    /// Bounded, the sides drain raw into budget-sized spilled runs, which
    /// deduplicate as they merge, so no side pays a separate
    /// canonicalize-and-spill pass first.
    fn sort(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<MergeCursor, EvalError> {
        let Some(right) = &mut self.right else {
            unreachable!("a sort-merge join has a right side");
        };
        let (left, right, spill) = (&mut self.left.op, &mut right.op, &mut self.spill);
        let budget = ctx.opts.budget.clone();
        let (l, r) = if budget.is_bounded() {
            (drain_raw(left, ctx)?, drain_raw(right, ctx)?)
        } else {
            let l = drain_to_set(left, spill, ctx)?.into_values();
            (l, drain_to_set(right, spill, ctx)?.into_values())
        };
        let mut cx = self.join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
        MergeCursor::new(&self.join, l, r, &budget, spill, &mut cx)
    }

    /// The dop 1 build, on the calling thread. Only a hash build is
    /// held to the budget.
    fn build_serial(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Built, EvalError> {
        let rows = match &mut self.right {
            Some(right) => drain_to_set(&mut right.op, &mut self.spill, ctx)?.into_values(),
            None => Vec::new(),
        };
        let mut cx = self.join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
        if !self.join.spec.family.hashed() || !ctx.opts.budget.is_bounded() {
            return Ok(Built::Side(self.join.build(rows, &mut cx)?));
        }
        let keyed = rows
            .into_iter()
            .map(|y| Ok((self.join.build_keys(&y, &mut cx)?, y)))
            .collect::<Result<Vec<_>, EvalError>>()?;
        self.build_bounded(keyed, ctx)
    }

    /// The dop > 1 build: the workers key their shares, and the keyed
    /// rows make one table in worker order. A strided share skips the
    /// breaker (a duplicate-free segment is already a set); anything else
    /// drains through it first and is cut into contiguous chunks, which
    /// keep canonical order.
    fn build_parallel(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Built, EvalError> {
        let (dop, join) = (self.dop, &self.join);
        let right = self.right.as_mut().expect("a hash join has a build side");
        let bounded = ctx.opts.budget.is_bounded();
        let build_stride = right.stride.as_ref().filter(|_| !bounded);
        let shares = match build_stride {
            Some(seg) => Share::strides(seg, dop),
            None => {
                let set = drain_to_set(&mut right.op, &mut self.spill, ctx)?;
                Share::chunks(set.into_values(), dop)
            }
        };
        let keyed = run_workers(shares, ctx, |share, wctx| {
            let mut keyed: Vec<Keyed> = Vec::new();
            share.for_each_batch(wctx, |batch, c| {
                let mut cx = join.cx(&c.ev, &mut c.env, c.stats);
                for y in batch.into_values() {
                    keyed.push((join.build_keys(&y, &mut cx)?, y));
                }
                Ok(())
            })?;
            Ok(keyed)
        })?;
        // Strided shares hold each key's candidates in worker order; a
        // residual can observe that order, so their table restores the
        // canonical order a dop 1 build has.
        let canonical = build_stride.is_some() && join.spec.residual.is_some();
        let keyed = keyed.into_iter().flatten();
        if bounded {
            return self.build_bounded(keyed.collect(), ctx);
        }
        let inserted = &mut ctx.stats.hash_build_rows;
        Ok(Built::Side(join.spec.table(keyed, canonical, inserted)))
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
                spill_exec::grace_join(&self.join, keyed, &mut self.left.op, &mut self.spill, ctx)?;
            return Ok(Built::Spilled(rows));
        }
        let inserted = &mut ctx.stats.hash_build_rows;
        Ok(Built::Side(self.join.spec.table(keyed, false, inserted)))
    }

    /// The dop > 1 probe: each worker streams its share's batches
    /// through the shared table. The probe side is a raw row stream
    /// (no probe deduplicates it).
    fn probe_parallel(
        &mut self,
        build: &BuildSide,
        ctx: &mut ExecCtx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let shares = match &self.left.stride {
            Some(seg) => Share::strides(seg, self.dop),
            None => Share::chunks(drain_rows(&mut self.left.op, ctx)?, self.dop),
        };
        let join = &self.join;
        let outs = run_workers(shares, ctx, |share, wctx| {
            let mut out = Vec::new();
            share.for_each_batch(wctx, |batch, c| {
                let mut cx = join.cx(&c.ev, &mut c.env, c.stats);
                out.extend(join.probe(build, (&batch).into(), &mut cx)?);
                Ok(())
            })?;
            Ok(out)
        })?;
        Ok(outs.into_iter().flatten().collect())
    }
}

impl Operator for JoinOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.state = JoinState::Pending;
        self.carry.clear();
        self.left.op.open(ctx)?;
        match &mut self.right {
            Some(right) => right.op.open(ctx),
            None => Ok(()),
        }
    }

    /// A join at dop 1 hands out what each probe batch produced. An
    /// owner join instead hands out full [`BATCH_SIZE`] batches, as the
    /// buffered parallel hash join it replaces did: its probe batches
    /// are a scan's chunks, of which a semi- or antijoin keeps a part,
    /// and a served result is replayed from the cache in full batches,
    /// so a live read and its replay then agree chunk for chunk.
    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if matches!(self.state, JoinState::Pending) {
            self.state = self.start(ctx)?;
        }
        let build = match &mut self.state {
            JoinState::Done(buf) => return Ok(buf.next_chunk()),
            JoinState::Merging(merge) => {
                let mut cx = self.join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
                let out = merge.next_chunk(&self.join, BATCH_SIZE, &mut cx)?;
                return Ok(out.map(Batch::from_rows));
            }
            JoinState::Probing(build) => &*build,
            JoinState::Pending => unreachable!("started above"),
        };
        let coalesce = matches!(self.join.spec.family, JoinFamily::Owners { .. });
        loop {
            if self.carry.len() >= BATCH_SIZE {
                let rest = self.carry.split_off(BATCH_SIZE);
                let full = std::mem::replace(&mut self.carry, rest);
                return Ok(Some(Batch::from_rows(full)));
            }
            let Some(batch) = self.left.op.next_batch(ctx)? else {
                let rest = std::mem::take(&mut self.carry);
                return Ok((!rest.is_empty()).then(|| Batch::from_rows(rest)));
            };
            let mut cx = self.join.cx(&ctx.ev, &mut ctx.env, ctx.stats);
            let out = self.join.probe(build, (&batch).into(), &mut cx)?;
            if coalesce {
                self.carry.extend(out);
            } else if !out.is_empty() {
                return Ok(Some(Batch::from_rows(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.state = JoinState::Pending;
        self.carry = Vec::new();
        self.left.op.close(ctx);
        if let Some(right) = &mut self.right {
            right.op.close(ctx);
        }
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }
}

// ---------------------------------------------------------------------
// Output helpers.

/// Appends the collected group to a left tuple, inserting the plan's
/// `as_attr` at its sorted slot in one allocation (a left tuple that
/// already has it fails with `concat`'s `DuplicateField`).
pub(crate) fn with_group(x: &Value, as_attr: &Name, group: Set) -> Result<Value, EvalError> {
    let t = x.as_tuple()?.insert(as_attr, Value::Set(group))?;
    Ok(Value::Tuple(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::physical::operator::{ExecOptions, ResultStream, BATCH_SIZE};
    use crate::plan::PlannerConfig;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{figure3_db, supplier_part_db};
    use oodb_value::BatchKind;

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
        mode: JoinMode,
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

    fn joining(kind: JoinKind) -> JoinMode {
        JoinMode::Join {
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
            let (h, hs) = run(&db, |ev, env, st| hash.join_sets(&x, Some(&y), ev, env, st));
            let nl = spec(
                "x",
                "y",
                JoinFamily::Loop,
                joining(kind),
                Some(pred.clone()),
            );
            let (n, ns) = run(&db, |ev, env, st| nl.join_sets(&x, Some(&y), ev, env, st));
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
        let (v, _) = run(&db, |ev, env, st| hash.join_sets(&x, Some(&y), ev, env, st));
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
        let (v, stats) = run(&db, |ev, env, st| {
            member.join_sets(&s, Some(&p), ev, env, st)
        });
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
        let (v, _) = run(&db, |ev, env, st| {
            member.join_sets(&p, Some(&s), ev, env, st)
        });
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
            miss.join_sets(&left, Some(&right), ev, env, st)
        });
        assert_eq!(v.as_set().unwrap().len(), 0);
        // rkey constant → both probes of x.elems reach the same right tuple
        let dup = inner(MemberShape::RightInLeftSet {
            lset: var("x").field("elems"),
            rkey: Expr::int(10),
        });
        let (v2, _) = run(&db, |ev, env, st| {
            dup.join_sets(&left, Some(&right), ev, env, st)
        });
        // only the elem 10 probe hits; elem 20 misses; and the single
        // (x,y) pair appears exactly once
        assert_eq!(v2.as_set().unwrap().len(), 1);
    }

    #[test]
    fn hash_nestjoin_matches_figure_3_and_nl() {
        let db = figure3_db();
        let x = set_of(&db, "X");
        let y = set_of(&db, "Y");
        let nest = JoinMode::Nest {
            rfunc: None,
            as_attr: "ys".into(),
        };
        let keys = equi(vec![var("x").field("b")], vec![var("y").field("d")]);
        let hash = spec("x", "y", keys, nest, None);
        let (h, hs) = run(&db, |ev, env, st| hash.join_sets(&x, Some(&y), ev, env, st));
        let pred = eq(var("x").field("b"), var("y").field("d"));
        let nest = JoinMode::Nest {
            rfunc: None,
            as_attr: "ys".into(),
        };
        let nl = spec("x", "y", JoinFamily::Loop, nest, Some(pred));
        let (n, _) = run(&db, |ev, env, st| nl.join_sets(&x, Some(&y), ev, env, st));
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
        let nest = JoinMode::Nest {
            rfunc: Some(var("p").field("pname")),
            as_attr: "pnames".into(),
        };
        let member = spec("s", "p", JoinFamily::Member { shape }, nest, None);
        let (v, _) = run(&db, |ev, env, st| {
            member.join_sets(&s, Some(&p), ev, env, st)
        });
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
        let outer = JoinMode::Join {
            kind: JoinKind::LeftOuter,
            right_attrs: vec!["c".into(), "d".into(), "yid".into()],
        };
        let keys = equi(vec![var("x").field("b")], vec![var("y").field("d")]);
        let hash = spec("x", "y", keys, outer, None);
        let (v, _) = run(&db, |ev, env, st| hash.join_sets(&x, Some(&y), ev, env, st));
        let rows = v.as_set().unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows
            .iter()
            .any(|r| r.as_tuple().unwrap().get("c") == Some(&Value::Null)));
    }

    #[test]
    fn sort_merge_agrees_with_hash_join() {
        let db = figure3_db();
        let x = set_of(&db, "X");
        let y = set_of(&db, "Y");
        let (lkeys, rkeys) = (vec![var("x").field("b")], vec![var("y").field("d")]);
        let inner = || joining(JoinKind::Inner);
        let sorted = JoinFamily::Sorted {
            lkeys: lkeys.clone(),
            rkeys: rkeys.clone(),
        };
        let merge = spec("x", "y", sorted, inner(), None);
        let (smj, _) = run(&db, |ev, env, st| {
            merge.join_sets(&x, Some(&y), ev, env, st)
        });
        let hash = spec("x", "y", equi(lkeys, rkeys), inner(), None);
        let (hj, _) = run(&db, |ev, env, st| hash.join_sets(&x, Some(&y), ev, env, st));
        assert_eq!(smj, hj);
        assert_eq!(smj.as_set().unwrap().len(), 4);
    }

    #[test]
    fn sort_merge_residual_applies_within_groups() {
        let db = figure3_db();
        let x = set_of(&db, "X");
        let y = set_of(&db, "Y");
        let sorted = JoinFamily::Sorted {
            lkeys: vec![var("x").field("b")],
            rkeys: vec![var("y").field("d")],
        };
        let residual = Some(lt(var("x").field("a"), var("y").field("c")));
        let merge = spec("x", "y", sorted, joining(JoinKind::Inner), residual);
        let (v, _) = run(&db, |ev, env, st| {
            merge.join_sets(&x, Some(&y), ev, env, st)
        });
        // matches on b=d=1: pairs (x1,y1),(x1,y2),(x2,y1),(x2,y2) — keep a<c:
        // (1,2) only... x1=(a=1) with y(c=2): 1<2 ✓; x1 with y(c=1): ✗;
        // x2=(a=2): 2<1 ✗, 2<2 ✗ → exactly 1 row
        assert_eq!(v.as_set().unwrap().len(), 1);
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
        let join = |family, mode, residual, right| PhysPlan::Join {
            spec: Box::new(spec("x", "y", family, mode, residual)),
            left: Box::new(failing_tail_probe(rows)),
            right,
        };
        let semijoin = join(
            equi(vec![var("x").field("k")], vec![var("y").field("k")]),
            joining(JoinKind::Semi),
            None,
            Some(build.clone()),
        );
        let grouping = || JoinMode::Nest {
            rfunc: None,
            as_attr: "ys".into(),
        };
        let shape = MemberShape::RightInLeftSet {
            lset: var("x").field("elems"),
            rkey: var("y").field("k"),
        };
        let nestjoin = join(JoinFamily::Member { shape }, grouping(), None, Some(build));
        // The nested loops get a small build side: every probe row scans
        // all of it.
        let small = (0..17)
            .map(|k| Value::tuple([("k", Value::Int(k))]))
            .collect();
        let small = Box::new(PhysPlan::Literal(Value::Set(Set::from_values(small))));
        let pred = eq(var("x").field("k"), var("y").field("k"));
        let nl_join = join(
            JoinFamily::Loop,
            joining(JoinKind::Semi),
            Some(pred.clone()),
            Some(small.clone()),
        );
        let nl_nestjoin = join(JoinFamily::Loop, grouping(), Some(pred), Some(small));
        // PART's prices are few and small: nearly every probe row misses.
        let index = JoinFamily::Index {
            lkey: var("x").field("k"),
            attr: "price".into(),
            extent: "PART".into(),
        };
        let index_join = join(index, joining(JoinKind::Anti), None, None);
        let mut db = supplier_part_db();
        db.create_index("PART", "price").unwrap();
        for plan in [semijoin, nestjoin, nl_join, nl_nestjoin, index_join] {
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

    #[test]
    fn sort_merge_streams_its_output() {
        // A merge over 3+ batches of key groups whose residual fails only
        // in the last groups (a `Null` price): a streaming merge hands out
        // output before it reaches the failure, in memory and with both
        // sides sorted in spilled runs; a buffering one would fail on the
        // first pull.
        let rows = 3 * BATCH_SIZE + 17;
        let first_bad = rows - BATCH_SIZE / 2;
        let left = (0..rows)
            .map(|k| {
                let price = if k >= first_bad {
                    Value::Null
                } else {
                    Value::Int(k as i64 % 100)
                };
                Value::tuple([("k", Value::Int(k as i64)), ("price", price)])
            })
            .collect();
        let right = (0..rows)
            .map(|k| Value::tuple([("j", Value::Int(k as i64))]))
            .collect();
        let literal = |rows| Box::new(PhysPlan::Literal(Value::Set(Set::from_values(rows))));
        let sorted = JoinFamily::Sorted {
            lkeys: vec![var("x").field("k")],
            rkeys: vec![var("y").field("j")],
        };
        let residual = Some(lt(var("x").field("price"), int(1000)));
        let plan = PhysPlan::Join {
            spec: Box::new(spec("x", "y", sorted, joining(JoinKind::Inner), residual)),
            left: literal(left),
            right: Some(literal(right)),
        };
        let db = supplier_part_db();
        for budget in [MemoryBudget::unbounded(), MemoryBudget::bytes(16 * 1024)] {
            let opts = ExecOptions {
                budget: budget.clone(),
                ..PlannerConfig::default().exec_options()
            };
            let mut stream = ResultStream::with_options(&plan, &db, opts);
            let first = stream.next_chunk();
            assert!(
                matches!(first, Ok(Some(_))),
                "{budget:?}: first pull {first:?}"
            );
            let err = loop {
                match stream.next_chunk() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("{budget:?}: the failing tail never surfaced"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, EvalError::NullNotAllowed(_)),
                "{budget:?}: {err}"
            );
            // the bounded merge really read spilled runs
            assert_eq!(stream.stats().spill_bytes > 0, budget.is_bounded());
        }
    }

    use oodb_adl::expr::Expr;
}
