//! Set-oriented physical operators.
//!
//! "It is better to transform nested queries into join queries, because
//! join queries can be implemented in many different ways (set-oriented
//! query processing)" — paper §7. This module provides those many ways:
//!
//! * [`hashjoin`] — one join node ([`PhysPlan::Join`], described by a
//!   [`JoinSpec`]) and one operator for `⋈`, `⋉`, `▷`, `⟕` and the
//!   nestjoin `⊣`, implemented as a hash join (equi keys, or membership
//!   keys for predicates like `p.pid ∈ s.parts`), a sort-merge join, an
//!   index nested-loop join, an owner join (`p.pid ∈ s.parts` read off
//!   SUPPLIER's reverse-reference index), or a nested loop (the
//!   fallback for arbitrary predicates, and the Cartesian product).
//! * [`set_index`] — the set-index scan ([`PhysPlan::SetIndexScan`]):
//!   a selection on `x.a ⊇ E`, `x.a = E` or `x.a ∋ e` reads the rows an
//!   extent's reverse-reference index names instead of the extent.
//!
//! [`PhysPlan`] is the operator tree; [`PhysPlan::execute_on`] runs it.

pub mod columnar;
pub mod exchange;
pub mod hashjoin;
pub mod operator;
pub mod set_index;
pub(crate) mod spill_exec;

use crate::eval::{aggregate, nest_set, unnest_set, Env, EvalError, Evaluator};
use crate::stats::Stats;
pub use hashjoin::{JoinFamily, JoinMode, JoinSpec};
use oodb_adl::expr::{AggOp, Expr, SetOp};
use oodb_catalog::Database;
use oodb_value::{Name, Set, Value};
pub use set_index::SetKey;

/// How an [`PhysPlan::Exchange`] distributes its input across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Each worker executes a clone of the input segment with every base
    /// scan strided round-robin over batch boundaries; each input batch
    /// is processed by exactly one worker (morsel-driven parallelism for
    /// per-row pipelines: filters, maps, projections, unnests).
    RoundRobin,
    /// Parallel build **and** probe for the hash join family: build
    /// workers evaluate the keys of their share of the build rows, which
    /// are hashed into one table in worker order, and probe rows are
    /// split across workers that share that table. The exchange's input
    /// must be a [`PhysPlan::Join`] of a hash family (equi or membership
    /// keys).
    Hash,
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
    /// Set-index scan: the rows of `extent` whose set-of-oid attribute
    /// `attr` can satisfy `key`, read off the extent's reverse-reference
    /// index (see [`set_index`]). The planner puts one only under a
    /// `Filter` whose first conjunct it answers; the filter re-checks
    /// every row it emits.
    SetIndexScan {
        /// The extent read.
        extent: Name,
        /// The reverse-indexed attribute.
        attr: Name,
        /// What each row's set must hold.
        key: SetKey,
    },
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
    /// Every join — `⋈ ⋉ ▷ ⟕`, the nestjoin `⊣` (paper §6.1) and the
    /// Cartesian product — as one [`JoinSpec`]: its [`JoinFamily`] says
    /// how candidates are found (hash on equi keys, hash on a membership
    /// predicate, sort-merge on equi keys, nested loop, a secondary
    /// index, or the left extent's reverse-reference index), its
    /// [`JoinMode`] whether join rows or nestjoin groups come out.
    Join {
        /// What the join computes (boxed: the spec is several times
        /// the size of any other variant).
        spec: Box<JoinSpec>,
        /// Left (probe) plan.
        left: Box<PhysPlan>,
        /// Right (build) plan; `None` exactly for the index family, which
        /// probes its extent's index instead.
        right: Option<Box<PhysPlan>>,
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
            PhysPlan::SetIndexScan { extent, attr, key } => {
                set_index::exec(extent, attr, key, ev, env, stats)
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
            PhysPlan::Join { spec, left, right } => {
                let l = left.exec(ev, env, stats)?.into_set()?;
                let r = match right {
                    Some(right) => Some(right.exec(ev, env, stats)?.into_set()?),
                    None => None,
                };
                spec.join_sets(&l, r.as_ref(), ev, env, stats)
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
            PhysPlan::SetIndexScan { extent, attr, key } => {
                format!("SetIndexScan {extent}.{attr} {key}")
            }
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
            PhysPlan::Join { spec, .. } => spec.node_line(),
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

    /// The operator's direct children, in explain order. With
    /// [`PhysPlan::children_mut`], the only place that lists which fields
    /// of a node are children.
    pub fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::Scan(_)
            | PhysPlan::SetIndexScan { .. }
            | PhysPlan::Literal(_)
            | PhysPlan::Eval(_) => vec![],
            PhysPlan::Filter { input, .. }
            | PhysPlan::MapOp { input, .. }
            | PhysPlan::ProjectOp { input, .. }
            | PhysPlan::RenameOp { input, .. }
            | PhysPlan::UnnestOp { input, .. }
            | PhysPlan::NestOp { input, .. }
            | PhysPlan::FlattenOp { input }
            | PhysPlan::AggNode { input, .. }
            | PhysPlan::Exchange { input, .. } => vec![input],
            PhysPlan::SetOpNode { left, right, .. } => vec![left, right],
            PhysPlan::Join { left, right, .. } => {
                std::iter::once(&**left).chain(right.as_deref()).collect()
            }
            PhysPlan::LetOp { value, body, .. } => vec![value, body],
        }
    }

    /// The operator's direct children, mutably, in the order of
    /// [`PhysPlan::children`].
    pub fn children_mut(&mut self) -> Vec<&mut PhysPlan> {
        match self {
            PhysPlan::Scan(_)
            | PhysPlan::SetIndexScan { .. }
            | PhysPlan::Literal(_)
            | PhysPlan::Eval(_) => vec![],
            PhysPlan::Filter { input, .. }
            | PhysPlan::MapOp { input, .. }
            | PhysPlan::ProjectOp { input, .. }
            | PhysPlan::RenameOp { input, .. }
            | PhysPlan::UnnestOp { input, .. }
            | PhysPlan::NestOp { input, .. }
            | PhysPlan::FlattenOp { input }
            | PhysPlan::AggNode { input, .. }
            | PhysPlan::Exchange { input, .. } => vec![input],
            PhysPlan::SetOpNode { left, right, .. } => vec![left, right],
            PhysPlan::Join { left, right, .. } => std::iter::once(&mut **left)
                .chain(right.as_deref_mut())
                .collect(),
            PhysPlan::LetOp { value, body, .. } => vec![value, body],
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
        let prod = PhysPlan::Join {
            spec: Box::new(JoinSpec::product()),
            left: Box::new(PhysPlan::ProjectOp {
                attrs: vec!["eid".into()],
                input: scan("SUPPLIER"),
            }),
            right: Some(Box::new(PhysPlan::ProjectOp {
                attrs: vec!["pid".into()],
                input: scan("PART"),
            })),
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

/// Object assembly — the paper's materialize (§6.2) — through the
/// physical executors.
///
/// "path expressions are represented by the operator materialize […]
/// implemented by an access algorithm called assembly". There is no
/// assembly operator: the planner lowers each materialization as the
/// correlated [`PhysPlan::MapOp`] it is, and the reference evaluator
/// answers its body (a `deref` charges one oid lookup and raises
/// [`crate::eval::EvalError::DanglingPointer`]; the correlated σ drops
/// dangling members). These tests hold both executors to that.
#[cfg(test)]
mod assembly {
    mod tests {
        use crate::eval::{EvalError, Evaluator};
        use crate::physical::PhysPlan;
        use crate::plan::Planner;
        use crate::stats::Stats;
        use oodb_adl::dsl::*;
        use oodb_adl::expr::Expr;
        use oodb_catalog::fixtures::supplier_part_db;
        use oodb_catalog::Database;
        use oodb_value::{Oid, Value};

        /// α[d : d except (supplier = deref⟨class⟩(d.supplier))](input)
        fn single(class: &str, input: Expr) -> Expr {
            map(
                "d",
                except(
                    var("d"),
                    vec![("supplier", deref(var("d").field("supplier"), class))],
                ),
                input,
            )
        }

        /// Plans `e` as a map, streams it, and checks the evaluator's answer.
        fn assemble(db: &Database, e: &Expr) -> (Value, Stats) {
            let plan = Planner::new(db).plan(e).unwrap();
            assert!(
                matches!(plan.phys, PhysPlan::MapOp { .. }),
                "{}",
                plan.explain()
            );
            let mut stats = Stats::new();
            let v = plan.execute_streaming(&mut stats).unwrap();
            assert_eq!(v, Evaluator::new(db).eval_closed(e).unwrap());
            (v, stats)
        }

        /// The errors of `e` on the streaming and the materializing executor.
        fn errors(db: &Database, e: &Expr) -> [EvalError; 2] {
            let plan = Planner::new(db).plan(e).unwrap();
            [
                plan.execute_streaming(&mut Stats::new()).unwrap_err(),
                plan.execute(&mut Stats::new()).unwrap_err(),
            ]
        }

        #[test]
        fn assembles_single_references() {
            let db = supplier_part_db();
            let (v, stats) = assemble(&db, &single("Supplier", table("DELIVERY")));
            for row in v.as_set().unwrap().iter() {
                let sup = row.as_tuple().unwrap().get("supplier").unwrap();
                assert!(sup.as_tuple().unwrap().get("sname").is_some());
            }
            // one oid lookup per delivery
            assert_eq!(stats.oid_lookups, 3);
        }

        #[test]
        fn assembles_set_references_dropping_dangling() {
            let db = supplier_part_db();
            // α[s : s except (parts = σ[p : p.pid ∈ s.parts](PART))](SUPPLIER)
            let e = map(
                "s",
                except(
                    var("s"),
                    vec![(
                        "parts",
                        select(
                            "p",
                            member(var("p").field("pid"), var("s").field("parts")),
                            table("PART"),
                        ),
                    )],
                ),
                table("SUPPLIER"),
            );
            let (v, _) = assemble(&db, &e);
            let s5 = v
                .as_set()
                .unwrap()
                .iter()
                .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s5")))
                .unwrap();
            // s5 referenced {@17, @999}: the dangling @999 is dropped
            let parts = s5.as_tuple().unwrap().get("parts").unwrap();
            assert_eq!(parts.as_set().unwrap().len(), 1);
        }

        #[test]
        fn dangling_single_reference_errors() {
            let db = supplier_part_db();
            let fake = Expr::Lit(Value::set([Value::tuple([
                ("supplier", Value::Oid(Oid(4040))),
                ("k", Value::Int(1)),
            ])]));
            for err in errors(&db, &single("Supplier", fake)) {
                assert!(matches!(err, EvalError::DanglingPointer { .. }), "{err}");
            }
        }

        #[test]
        fn unknown_class_errors() {
            let db = supplier_part_db();
            for err in errors(&db, &single("Nope", table("DELIVERY"))) {
                assert!(matches!(err, EvalError::UnknownClass(_)), "{err}");
            }
        }
    }
}
