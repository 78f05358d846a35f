//! Set-oriented physical operators.
//!
//! "It is better to transform nested queries into join queries, because
//! join queries can be implemented in many different ways (set-oriented
//! query processing)" — paper §7. This module provides those many ways:
//!
//! * [`hashjoin`] — hash implementations of `⋈`, `⋉`, `▷`, `⟕`, the
//!   nestjoin `⊣`, and membership variants for predicates like
//!   `p.pid ∈ s.parts`;
//! * [`sortmerge`] — sort-merge join;
//! * [`pnhl`] — the Partitioned Nested-Hashed-Loops algorithm of \[DeLa92\]
//!   for materializing set-valued attributes under a memory budget (§6.2);
//! * [`assembly`] — the pointer-based materialize operator of \[BlMG93\]
//!   (§6.2), using the catalog's oid indexes;
//! * nested-loop fallbacks for non-equi predicates.
//!
//! [`PhysPlan`] is the operator tree; [`PhysPlan::execute_on`] runs it.

pub mod assembly;
pub mod columnar;
pub mod exchange;
pub mod hashjoin;
pub mod operator;
pub mod pnhl;
pub mod sortmerge;
pub(crate) mod spill_exec;

use crate::eval::{aggregate, nest_set, unnest_set, Env, EvalError, Evaluator};
use crate::stats::Stats;
use oodb_adl::expr::{AggOp, Expr, JoinKind, SetOp};
use oodb_catalog::Database;
use oodb_value::{Name, Set, Value};

/// How an [`PhysPlan::Exchange`] distributes its input across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Each worker executes a clone of the input segment with every base
    /// scan strided round-robin over batch boundaries; each input batch
    /// is processed by exactly one worker (morsel-driven parallelism for
    /// per-row pipelines: filters, maps, projections, unnests,
    /// assembly).
    RoundRobin,
    /// Hash-partitioned parallel build **and** probe for the hash join
    /// family: build rows are routed by join-key hash to per-worker
    /// partition tables (built concurrently), and probe rows are split
    /// across workers, each probe key consulting exactly its owning
    /// partition. The exchange's input must be a
    /// `HashJoin`/`HashNestJoin`/`HashMemberJoin`/`MemberNestJoin` node.
    Hash,
}

/// How a materialization operator matches set elements to inner tuples.
#[derive(Debug, Clone)]
pub struct MatchKeys {
    /// Variable bound to one element of the set-valued attribute.
    pub elem_var: Name,
    /// Key over the element (`ekey(e)`).
    pub elem_key: Expr,
    /// Variable bound to an inner (build) tuple.
    pub inner_var: Name,
    /// Key over the inner tuple (`ikey(y)`).
    pub inner_key: Expr,
}

/// A physical operator tree.
///
/// Operators own the ADL sub-expressions they evaluate per tuple
/// (predicates, keys, map bodies); those are interpreted by the reference
/// [`Evaluator`] under the operator's variable bindings, so arbitrarily
/// complex (even nested) parameters work inside any physical operator.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// Base table scan.
    Scan(Name),
    /// A constant.
    Literal(Value),
    /// Fallback: interpret an expression with the reference evaluator.
    Eval(Expr),
    /// `σ` — per-tuple predicate filter.
    Filter {
        /// Bound variable.
        var: Name,
        /// Predicate.
        pred: Expr,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `α` — per-tuple function application.
    MapOp {
        /// Bound variable.
        var: Name,
        /// Body.
        body: Expr,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `π`.
    ProjectOp {
        /// Retained attributes.
        attrs: Vec<Name>,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `ρ`.
    RenameOp {
        /// `(old, new)` pairs.
        pairs: Vec<(Name, Name)>,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `μ`.
    UnnestOp {
        /// Attribute to unnest.
        attr: Name,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `ν`.
    NestOp {
        /// Collected attributes.
        attrs: Vec<Name>,
        /// New set-valued attribute.
        as_attr: Name,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `⋃`.
    FlattenOp {
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `∪ ∩ −`.
    SetOpNode {
        /// Operator.
        op: SetOp,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Aggregate.
    AggNode {
        /// Aggregate function.
        op: AggOp,
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// `let` — uncorrelated subquery hoisting: `value` runs once.
    LetOp {
        /// Bound variable.
        var: Name,
        /// Value plan.
        value: Box<PhysPlan>,
        /// Body plan (may reference `var`).
        body: Box<PhysPlan>,
    },
    /// Extended Cartesian product (block nested loop).
    ProductOp {
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Hash join on extracted equi-keys.
    HashJoin {
        /// Join kind (`⋈`, `⋉`, `▷`, `⟕`).
        kind: JoinKind,
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// Left key expressions (conjunctive equi-keys).
        lkeys: Vec<Expr>,
        /// Right key expressions.
        rkeys: Vec<Expr>,
        /// Residual predicate checked after key match.
        residual: Option<Expr>,
        /// Right-hand attribute names (outer-join padding schema).
        right_attrs: Vec<Name>,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Hash join for membership predicates `rkey(y) ∈ lset(x)` (e.g.
    /// `p.pid ∈ s.parts` of Example Query 5) or `lkey(x) ∈ rset(y)`.
    HashMemberJoin {
        /// Join kind.
        kind: JoinKind,
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// The membership shape.
        shape: hashjoin::MemberShape,
        /// Residual predicate.
        residual: Option<Expr>,
        /// Right-hand attribute names (outer-join padding schema).
        right_attrs: Vec<Name>,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Index nested-loop join: the right operand is an indexed extent;
    /// each left tuple probes the secondary hash index (§6's "index
    /// nested-loop join").
    IndexNLJoin {
        /// Join kind.
        kind: JoinKind,
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// Key expression over the left variable.
        lkey: Expr,
        /// Indexed attribute of the right extent.
        attr: Name,
        /// The right extent name.
        extent: Name,
        /// Residual predicate.
        residual: Option<Expr>,
        /// Right-hand attribute names (outer-join padding schema).
        right_attrs: Vec<Name>,
        /// Left plan.
        left: Box<PhysPlan>,
    },
    /// Nested-loop join (fallback for arbitrary predicates).
    NLJoin {
        /// Join kind.
        kind: JoinKind,
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// Full predicate.
        pred: Expr,
        /// Right-hand attribute names (outer-join padding schema).
        right_attrs: Vec<Name>,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Sort-merge implementation of the regular equi-join.
    SortMergeJoin {
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// Left key.
        lkeys: Vec<Expr>,
        /// Right key.
        rkeys: Vec<Expr>,
        /// Residual predicate.
        residual: Option<Expr>,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Hash nestjoin `⊣` — grouping during join (paper §6.1); dangling
    /// left tuples keep an empty group.
    HashNestJoin {
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// Left keys.
        lkeys: Vec<Expr>,
        /// Right keys.
        rkeys: Vec<Expr>,
        /// Residual predicate.
        residual: Option<Expr>,
        /// Function over matching right tuples (`None` = identity).
        rfunc: Option<Expr>,
        /// New set-valued attribute.
        as_attr: Name,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Membership-keyed nestjoin (e.g. Example Query 6's
    /// `p.pid ∈ s.parts`).
    MemberNestJoin {
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// The membership shape.
        shape: hashjoin::MemberShape,
        /// Residual predicate.
        residual: Option<Expr>,
        /// Function over matching right tuples.
        rfunc: Option<Expr>,
        /// New set-valued attribute.
        as_attr: Name,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// Nested-loop nestjoin (fallback).
    NLNestJoin {
        /// Left variable.
        lvar: Name,
        /// Right variable.
        rvar: Name,
        /// Predicate.
        pred: Expr,
        /// Function over matching right tuples.
        rfunc: Option<Expr>,
        /// New set-valued attribute.
        as_attr: Name,
        /// Left plan.
        left: Box<PhysPlan>,
        /// Right plan.
        right: Box<PhysPlan>,
    },
    /// PNHL (\[DeLa92\]): materialize a set-valued attribute by joining its
    /// elements with a flat build table under a memory budget.
    Pnhl {
        /// Outer plan (complex tuples with the set-valued attribute).
        outer: Box<PhysPlan>,
        /// The set-valued attribute being materialized.
        set_attr: Name,
        /// Inner (flat, build-side) plan.
        inner: Box<PhysPlan>,
        /// Element/inner key pair.
        keys: MatchKeys,
        /// Maximum build-table rows per segment — "segments of the operand
        /// that fit into main memory".
        budget: usize,
    },
    /// Unnest–join–nest materialization (§6.2's third strategy): builds
    /// the whole flat table once and probes every set element against it,
    /// paying tuple duplication instead of PNHL's per-segment passes.
    /// The cost-based planner picks it when the memory budget would force
    /// PNHL through many probe passes.
    UnnestJoin {
        /// Outer plan (complex tuples with the set-valued attribute).
        outer: Box<PhysPlan>,
        /// The set-valued attribute being materialized.
        set_attr: Name,
        /// Inner (flat, build-side) plan.
        inner: Box<PhysPlan>,
        /// Element/inner key pair.
        keys: MatchKeys,
    },
    /// Assembly (\[BlMG93\]): pointer-based materialization of oid-valued
    /// (or set-of-oid-valued) attributes through the extent's oid index.
    Assemble {
        /// Input plan.
        input: Box<PhysPlan>,
        /// The oid-carrying attribute.
        attr: Name,
        /// Referenced class.
        class: Name,
        /// Whether `attr` is a single oid or a set of oids.
        set_valued: bool,
    },
    /// Exchange: evaluates `input` with `dop` workers under the given
    /// [`Partitioning`] (see [`exchange`]). Semantically the identity —
    /// the materialized executor runs the input serially, and the
    /// streaming pipeline guarantees canonical-set-identical results at
    /// every degree of parallelism.
    Exchange {
        /// Work distribution strategy.
        partitioning: Partitioning,
        /// Degree of parallelism (worker count).
        dop: usize,
        /// The parallelized input plan.
        input: Box<PhysPlan>,
    },
}

impl PhysPlan {
    /// Executes the plan against `db` through the streaming
    /// [`operator`] pipeline (the default execution path): rows flow in
    /// batches, only pipeline breakers materialize, and
    /// [`Stats::operators`] records per-operator rows/batches. The one
    /// streaming entry point: a collect-all drain of a
    /// [`ResultStream`](operator::ResultStream) under `opts` (budget,
    /// batch layout, vectorization, timing — see
    /// [`PlannerConfig::exec_options`](crate::plan::PlannerConfig::exec_options)),
    /// so the library path and the serving layer's streamed cursors
    /// drive the very same machinery. Mirrors the result contract of
    /// the materialized executor: row-producing roots collect into a
    /// canonical set, scalar roots return their single value.
    pub fn execute_streaming(
        &self,
        db: &Database,
        stats: &mut Stats,
        opts: &operator::ExecOptions,
    ) -> Result<Value, EvalError> {
        let mut stream = operator::ResultStream::with_options(self, db, opts.clone());
        let result = stream.drain_value();
        stream.close();
        stats.merge(stream.stats());
        let v = result?;
        if let Value::Set(s) = &v {
            stats.output_rows += s.len() as u64;
        }
        Ok(v)
    }

    /// Executes the plan against `db` with whole-set materialization at
    /// every operator boundary (the reference set-at-a-time semantics
    /// the streaming pipeline is checked against).
    pub fn execute_on(&self, db: &Database, stats: &mut Stats) -> Result<Value, EvalError> {
        let ev = Evaluator::new(db);
        let mut env = Env::new();
        let v = self.exec(&ev, &mut env, stats)?;
        if let Value::Set(s) = &v {
            stats.output_rows += s.len() as u64;
        }
        Ok(v)
    }

    /// Executes under an environment (used by `LetOp` bodies and tests).
    pub fn exec(
        &self,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Value, EvalError> {
        match self {
            PhysPlan::Scan(name) => {
                let t = ev
                    .db()
                    .table(name)
                    .ok_or_else(|| EvalError::UnknownTable(name.clone()))?;
                stats.rows_scanned += t.len() as u64;
                Ok(t.as_set_value())
            }
            PhysPlan::Literal(v) => Ok(v.clone()),
            PhysPlan::Eval(e) => ev.eval(e, env, stats),
            PhysPlan::Filter { var, pred, input } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s {
                    stats.predicate_evals += 1;
                    env.push(var, elem.clone());
                    let keep = ev.eval(pred, env, stats);
                    env.pop();
                    if keep?.as_bool()? {
                        out.push(elem);
                    }
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            PhysPlan::MapOp { var, body, input } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s {
                    stats.predicate_evals += 1;
                    env.push(var, elem);
                    let r = ev.eval(body, env, stats);
                    env.pop();
                    out.push(r?);
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            PhysPlan::ProjectOp { attrs, input } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s.iter() {
                    out.push(Value::Tuple(elem.as_tuple()?.subscript(attrs)?));
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            PhysPlan::RenameOp { pairs, input } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s.iter() {
                    let mut t = elem.as_tuple()?.clone();
                    for (old, new) in pairs {
                        t = t.rename(old, new)?;
                    }
                    out.push(Value::Tuple(t));
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            PhysPlan::UnnestOp { attr, input } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                unnest_set(&s, attr)
            }
            PhysPlan::NestOp {
                attrs,
                as_attr,
                input,
            } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                nest_set(&s, attrs, as_attr)
            }
            PhysPlan::FlattenOp { input } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                Ok(Value::Set(s.flatten()?))
            }
            PhysPlan::SetOpNode { op, left, right } => {
                let l = left.exec(ev, env, stats)?.into_set()?;
                let r = right.exec(ev, env, stats)?.into_set()?;
                Ok(Value::Set(match op {
                    SetOp::Union => l.union(&r),
                    SetOp::Intersect => l.intersect(&r),
                    SetOp::Difference => l.difference(&r),
                }))
            }
            PhysPlan::AggNode { op, input } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                aggregate(*op, &s)
            }
            PhysPlan::LetOp { var, value, body } => {
                let v = value.exec(ev, env, stats)?;
                env.push(var, v);
                let r = body.exec(ev, env, stats);
                env.pop();
                r
            }
            PhysPlan::ProductOp { left, right } => {
                let l = left.exec(ev, env, stats)?.into_set()?;
                let r = right.exec(ev, env, stats)?.into_set()?;
                let mut out = Vec::with_capacity(l.len() * r.len());
                for x in l.iter() {
                    for y in r.iter() {
                        stats.loop_iterations += 1;
                        out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                    }
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            PhysPlan::HashJoin { .. }
            | PhysPlan::HashNestJoin { .. }
            | PhysPlan::HashMemberJoin { .. }
            | PhysPlan::MemberNestJoin { .. } => {
                let (spec, left, right) =
                    hashjoin::JoinSpec::from_plan(self).expect("a hash-family join node");
                let l = left.exec(ev, env, stats)?.into_set()?;
                let r = right.exec(ev, env, stats)?.into_set()?;
                spec.join_sets(&l, &r, ev, env, stats)
            }
            PhysPlan::IndexNLJoin {
                kind,
                lvar,
                rvar,
                lkey,
                attr,
                extent,
                residual,
                right_attrs,
                left,
            } => {
                let l = left.exec(ev, env, stats)?.into_set()?;
                hashjoin::index_nl_join(
                    *kind,
                    lvar,
                    rvar,
                    lkey,
                    attr,
                    extent,
                    residual.as_ref(),
                    right_attrs,
                    &l,
                    ev,
                    env,
                    stats,
                )
            }
            PhysPlan::NLJoin {
                kind,
                lvar,
                rvar,
                pred,
                right_attrs,
                left,
                right,
            } => {
                let l = left.exec(ev, env, stats)?.into_set()?;
                let r = right.exec(ev, env, stats)?.into_set()?;
                hashjoin::nl_join(*kind, lvar, rvar, pred, right_attrs, &l, &r, ev, env, stats)
            }
            PhysPlan::SortMergeJoin {
                lvar,
                rvar,
                lkeys,
                rkeys,
                residual,
                left,
                right,
            } => {
                let l = left.exec(ev, env, stats)?.into_set()?;
                let r = right.exec(ev, env, stats)?.into_set()?;
                sortmerge::sort_merge_join(
                    lvar,
                    rvar,
                    lkeys,
                    rkeys,
                    residual.as_ref(),
                    &l,
                    &r,
                    ev,
                    env,
                    stats,
                )
            }
            PhysPlan::NLNestJoin {
                lvar,
                rvar,
                pred,
                rfunc,
                as_attr,
                left,
                right,
            } => {
                let l = left.exec(ev, env, stats)?.into_set()?;
                let r = right.exec(ev, env, stats)?.into_set()?;
                hashjoin::nl_nestjoin(
                    lvar,
                    rvar,
                    pred,
                    rfunc.as_ref(),
                    as_attr,
                    &l,
                    &r,
                    ev,
                    env,
                    stats,
                )
            }
            PhysPlan::Pnhl {
                outer,
                set_attr,
                inner,
                keys,
                budget,
            } => {
                let o = outer.exec(ev, env, stats)?.into_set()?;
                let i = inner.exec(ev, env, stats)?.into_set()?;
                pnhl::pnhl_materialize(&o, set_attr, &i, keys, *budget, ev, env, stats)
            }
            PhysPlan::UnnestJoin {
                outer,
                set_attr,
                inner,
                keys,
            } => {
                let o = outer.exec(ev, env, stats)?.into_set()?;
                let i = inner.exec(ev, env, stats)?.into_set()?;
                pnhl::unnest_join_nest(&o, set_attr, &i, keys, ev, env, stats)
            }
            PhysPlan::Assemble {
                input,
                attr,
                class,
                set_valued,
            } => {
                let s = input.exec(ev, env, stats)?.into_set()?;
                assembly::assemble(&s, attr, class, *set_valued, ev.db(), stats)
            }
            // The exchange is semantically the identity; the materialized
            // reference path evaluates its input serially.
            PhysPlan::Exchange { input, .. } => input.exec(ev, env, stats),
        }
    }

    /// A short operator-tree rendering for EXPLAIN-style output.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let line = self.node_line();
        let _ = writeln!(out, "{pad}{line}");
        for child in self.children() {
            child.explain_into(depth + 1, out);
        }
    }

    /// The one-line EXPLAIN rendering of this operator (no children).
    pub fn node_line(&self) -> String {
        match self {
            PhysPlan::Scan(n) => format!("Scan {n}"),
            PhysPlan::Literal(_) => "Literal".into(),
            PhysPlan::Eval(e) => format!("Eval {e}"),
            PhysPlan::Filter { pred, .. } => format!("Filter [{pred}]"),
            PhysPlan::MapOp { body, .. } => format!("Map [{body}]"),
            PhysPlan::ProjectOp { attrs, .. } => format!(
                "Project [{}]",
                attrs
                    .iter()
                    .map(|a| a.as_ref())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            PhysPlan::RenameOp { .. } => "Rename".into(),
            PhysPlan::UnnestOp { attr, .. } => format!("Unnest μ_{attr}"),
            PhysPlan::NestOp { as_attr, .. } => format!("Nest ν→{as_attr}"),
            PhysPlan::FlattenOp { .. } => "Flatten".into(),
            PhysPlan::SetOpNode { op, .. } => format!("SetOp {}", op.symbol()),
            PhysPlan::AggNode { op, .. } => format!("Agg {}", op.name()),
            PhysPlan::LetOp { var, .. } => format!("Let {var}"),
            PhysPlan::ProductOp { .. } => "Product".into(),
            PhysPlan::HashJoin { kind, .. } => format!("HashJoin {kind:?}"),
            PhysPlan::HashMemberJoin { kind, .. } => {
                format!("HashMemberJoin {kind:?}")
            }
            PhysPlan::IndexNLJoin {
                kind, extent, attr, ..
            } => {
                format!("IndexNLJoin {kind:?} on {extent}.{attr}")
            }
            PhysPlan::NLJoin { kind, .. } => format!("NLJoin {kind:?}"),
            PhysPlan::SortMergeJoin { .. } => "SortMergeJoin".into(),
            PhysPlan::HashNestJoin { as_attr, .. } => {
                format!("HashNestJoin ⊣→{as_attr}")
            }
            PhysPlan::MemberNestJoin { as_attr, .. } => {
                format!("MemberNestJoin ⊣→{as_attr}")
            }
            PhysPlan::NLNestJoin { as_attr, .. } => format!("NLNestJoin ⊣→{as_attr}"),
            PhysPlan::Pnhl {
                set_attr, budget, ..
            } => {
                format!("PNHL μ⋈ {set_attr} (budget {budget})")
            }
            PhysPlan::UnnestJoin { set_attr, .. } => {
                format!("UnnestJoin μ⋈ν {set_attr}")
            }
            PhysPlan::Assemble {
                attr,
                class,
                set_valued,
                ..
            } => {
                format!(
                    "Assemble {attr}→{class}{}",
                    if *set_valued { " (set)" } else { "" }
                )
            }
            PhysPlan::Exchange {
                partitioning, dop, ..
            } => {
                let how = match partitioning {
                    Partitioning::RoundRobin => "round-robin",
                    Partitioning::Hash => "hash",
                };
                format!("Exchange {how} dop={dop}")
            }
        }
    }

    /// The operator's direct children, in explain order.
    pub fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::Scan(_) | PhysPlan::Literal(_) | PhysPlan::Eval(_) => vec![],
            PhysPlan::Filter { input, .. }
            | PhysPlan::MapOp { input, .. }
            | PhysPlan::ProjectOp { input, .. }
            | PhysPlan::RenameOp { input, .. }
            | PhysPlan::UnnestOp { input, .. }
            | PhysPlan::NestOp { input, .. }
            | PhysPlan::FlattenOp { input }
            | PhysPlan::AggNode { input, .. }
            | PhysPlan::Assemble { input, .. }
            | PhysPlan::Exchange { input, .. }
            | PhysPlan::IndexNLJoin { left: input, .. } => vec![input],
            PhysPlan::SetOpNode { left, right, .. }
            | PhysPlan::ProductOp { left, right }
            | PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::HashMemberJoin { left, right, .. }
            | PhysPlan::NLJoin { left, right, .. }
            | PhysPlan::SortMergeJoin { left, right, .. }
            | PhysPlan::HashNestJoin { left, right, .. }
            | PhysPlan::MemberNestJoin { left, right, .. }
            | PhysPlan::NLNestJoin { left, right, .. } => vec![left, right],
            PhysPlan::LetOp { value, body, .. } => vec![value, body],
            PhysPlan::Pnhl { outer, inner, .. } | PhysPlan::UnnestJoin { outer, inner, .. } => {
                vec![outer, inner]
            }
        }
    }

    /// Pre-order ordinals of the direct children, given this node's own
    /// — the numbering of EXPLAIN's lines.
    pub(crate) fn child_ordinals(&self, ord: usize) -> Vec<usize> {
        let mut next = ord + 1;
        self.children()
            .into_iter()
            .map(|c| {
                let at = next;
                next += c.node_count();
                at
            })
            .collect()
    }

    /// Nodes in this subtree, itself included.
    fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod plan_node_tests {
    use super::*;
    use crate::eval::Env;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::supplier_part_db;
    use oodb_value::Value;

    fn run(plan: &PhysPlan) -> (Value, Stats) {
        let db = supplier_part_db();
        let mut stats = Stats::new();
        let v = plan.execute_on(&db, &mut stats).unwrap();
        (v, stats)
    }

    fn scan(t: &str) -> Box<PhysPlan> {
        Box::new(PhysPlan::Scan(t.into()))
    }

    #[test]
    fn filter_and_map_nodes() {
        let plan = PhysPlan::MapOp {
            var: "p".into(),
            body: var("p").field("pname"),
            input: Box::new(PhysPlan::Filter {
                var: "p".into(),
                pred: eq(var("p").field("color"), str_lit("red")),
                input: scan("PART"),
            }),
        };
        let (v, stats) = run(&plan);
        assert_eq!(v.as_set().unwrap().len(), 3);
        assert_eq!(stats.rows_scanned, 7);
        assert!(stats.predicate_evals >= 7);
    }

    #[test]
    fn project_rename_nodes() {
        let plan = PhysPlan::RenameOp {
            pairs: vec![("pname".into(), "name".into())],
            input: Box::new(PhysPlan::ProjectOp {
                attrs: vec!["pid".into(), "pname".into()],
                input: scan("PART"),
            }),
        };
        let (v, _) = run(&plan);
        let first = v.as_set().unwrap().iter().next().unwrap();
        let t = first.as_tuple().unwrap();
        assert!(t.get("name").is_some());
        assert!(t.get("pname").is_none());
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn unnest_nest_flatten_nodes() {
        let unnested = PhysPlan::UnnestOp {
            attr: "supply".into(),
            input: scan("DELIVERY"),
        };
        let (v, _) = run(&unnested);
        assert_eq!(v.as_set().unwrap().len(), 5); // 2 + 1 + 2 supply lines
        let renested = PhysPlan::NestOp {
            attrs: vec!["part".into(), "quantity".into()],
            as_attr: "supply".into(),
            input: Box::new(unnested),
        };
        let (v2, _) = run(&renested);
        assert_eq!(v2.as_set().unwrap().len(), 3);
        let flat = PhysPlan::FlattenOp {
            input: Box::new(PhysPlan::MapOp {
                var: "s".into(),
                body: var("s").field("parts"),
                input: scan("SUPPLIER"),
            }),
        };
        let (v3, _) = run(&flat);
        // distinct referenced part oids: 11,12,13,14,17,999
        assert_eq!(v3.as_set().unwrap().len(), 6);
    }

    #[test]
    fn setop_agg_let_product_nodes() {
        let reds = PhysPlan::Filter {
            var: "p".into(),
            pred: eq(var("p").field("color"), str_lit("red")),
            input: scan("PART"),
        };
        let cheaps = PhysPlan::Filter {
            var: "p".into(),
            pred: lt(var("p").field("price"), int(8)),
            input: scan("PART"),
        };
        let inter = PhysPlan::SetOpNode {
            op: oodb_adl::SetOp::Intersect,
            left: Box::new(reds),
            right: Box::new(cheaps),
        };
        let (v, _) = run(&inter);
        assert_eq!(v.as_set().unwrap().len(), 1); // screw (red, 7)
        let count_node = PhysPlan::AggNode {
            op: AggOp::Count,
            input: scan("PART"),
        };
        assert_eq!(run(&count_node).0, Value::Int(7));
        let let_node = PhysPlan::LetOp {
            var: "n".into(),
            value: Box::new(count_node),
            body: Box::new(PhysPlan::Eval(arith(
                oodb_value::ArithOp::Add,
                var("n"),
                int(1),
            ))),
        };
        assert_eq!(run(&let_node).0, Value::Int(8));
        let prod = PhysPlan::ProductOp {
            left: Box::new(PhysPlan::ProjectOp {
                attrs: vec!["eid".into()],
                input: scan("SUPPLIER"),
            }),
            right: Box::new(PhysPlan::ProjectOp {
                attrs: vec!["pid".into()],
                input: scan("PART"),
            }),
        };
        assert_eq!(run(&prod).0.as_set().unwrap().len(), 35);
    }

    #[test]
    fn literal_and_eval_nodes_with_env() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let mut env = Env::new();
        env.push(&"x".into(), Value::Int(41));
        let mut stats = Stats::new();
        let plan = PhysPlan::Eval(arith(oodb_value::ArithOp::Add, var("x"), int(1)));
        let v = plan.exec(&ev, &mut env, &mut stats).unwrap();
        assert_eq!(v, Value::Int(42));
        let lit = PhysPlan::Literal(Value::str("hello"));
        assert_eq!(
            lit.exec(&ev, &mut env, &mut stats).unwrap(),
            Value::str("hello")
        );
    }

    #[test]
    fn explain_covers_every_simple_node() {
        let plan = PhysPlan::LetOp {
            var: "v".into(),
            value: Box::new(PhysPlan::AggNode {
                op: AggOp::Count,
                input: scan("PART"),
            }),
            body: Box::new(PhysPlan::FlattenOp {
                input: Box::new(PhysPlan::MapOp {
                    var: "s".into(),
                    body: var("s").field("parts"),
                    input: Box::new(PhysPlan::NestOp {
                        attrs: vec!["sname".into()],
                        as_attr: "g".into(),
                        input: Box::new(PhysPlan::UnnestOp {
                            attr: "supply".into(),
                            input: scan("DELIVERY"),
                        }),
                    }),
                }),
            }),
        };
        let text = plan.explain();
        for needle in [
            "Let v",
            "Agg count",
            "Flatten",
            "Map",
            "Nest ν→g",
            "Unnest μ_supply",
            "Scan DELIVERY",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
