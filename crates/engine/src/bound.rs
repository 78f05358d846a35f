//! Bound expressions: operator parameters resolved once per plan, not
//! once per row.
//!
//! After the rewrites, a nested query runs as joins and selections, and
//! the per-row work is their ADL parameters: `σ` predicates, `α` bodies,
//! join keys, residuals and nestjoin functions. Interpreting them with
//! the reference [`Evaluator`] pays, on every row, an [`Env`] push and
//! pop, a by-name scan of the environment for every variable, a clone of
//! every operand and a sort of every tuple constructor. This module
//! lowers such an expression once, when its operator is compiled, into a
//! `BoundExpr` — iteration variables become *positions*, as in Grust et
//! al.'s join-graph isolation, and as risinglight's binder turns names
//! into column references before the physical plan exists:
//!
//! * **Variables.** The operator's row variables (a `Filter`/`Map`
//!   variable, a join's `lvar`/`rvar`) are row slots that point at the
//!   borrowed rows of the current batch ([`Batch::row_at`]). The
//!   variables of a nested `Map`/`Select`/quantifier are local slots.
//!   Every other variable — a hoisted `let` such as q31's `sub`, or a
//!   correlated outer binding — is an outer slot, read from the [`Env`]
//!   once per batch.
//! * **Values are borrowed.** Evaluation returns a [`Cow`]: a variable,
//!   literal or field read hands out a reference into the row or the
//!   plan, so `s.parts ⊇ sub` compares two borrowed sets and clones
//!   nothing.
//! * **Tuple constructors** sort their attribute names (and reject
//!   duplicates) at bind time and build the tuple in one allocation.
//! * **The interpreter leaf.** A subtree the binder does not lower — a
//!   base table, a join, a nest, `let`, division, projection, renaming,
//!   unnesting — is one interpreter leaf, evaluated by
//!   [`Evaluator::eval`] under an [`Env`] holding the slots it reads.
//!
//! A bound expression computes exactly what the [`Evaluator`] computes on
//! the same bindings: the same value, the same [`EvalError`], and the same
//! [`Stats`] counters, in the same order (the `bound_matches_evaluator`
//! differential suite checks all three). The physical plan, EXPLAIN, the
//! cost model and the plan cache keep their [`Expr`]s; only the executor
//! sees the bound form.
//!
//! [`Batch::row_at`]: oodb_value::Batch::row_at

use crate::eval::{aggregate, Env, EvalError, Evaluator};
use crate::stats::Stats;
use oodb_adl::expr::{AggOp, Expr, QuantKind, SetOp};
use oodb_catalog::Database;
use oodb_value::{ArithOp, CmpOp, Name, Set, SetCmpOp, Tuple, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Where a bound variable reads its value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// The operator's row variable `i` (a join's `lvar` is 0, `rvar` 1).
    Row(usize),
    /// The variable of the nested iterator at depth `d` (0 outermost).
    Local(usize),
}

/// An expression lowered against its operator's variables. Built by a
/// [`Binder`]; evaluated through a [`Cx`] resolved for the same binder's
/// [`Outer`] table.
#[derive(Debug, Clone)]
pub(crate) enum BoundExpr {
    /// A constant, borrowed from the plan.
    Lit(Value),
    /// One of the operator's row variables.
    Row(usize),
    /// The variable of the enclosing nested iterator at this depth.
    Local(usize),
    /// A free variable: entry `.0` of the [`Outer`] table, named `.1`.
    Outer(usize, Name),
    /// `e.a`.
    Field(Box<BoundExpr>, Name),
    /// `e[a₁, …, aₙ]`.
    TupleProject(Box<BoundExpr>, Vec<Name>),
    /// `⟨a₁ = e₁, …⟩` with its names sorted at bind time: `fields` are in
    /// source (evaluation) order, `names` in canonical order, and field
    /// `i` lands at `names[at[i]]`.
    TupleCons {
        /// The attribute names, sorted and unique.
        names: Arc<[Name]>,
        /// Canonical position of each source field.
        at: Vec<usize>,
        /// The field expressions, in source order.
        fields: Vec<BoundExpr>,
    },
    /// `e except (a = e′, …)`.
    Except(Box<BoundExpr>, Vec<(Name, BoundExpr)>),
    /// `e ∘ e′`.
    Concat(Box<BoundExpr>, Box<BoundExpr>),
    /// `deref(e, class)`.
    Deref(Box<BoundExpr>, Name),
    /// Comparison.
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
    /// `¬e`.
    Not(Box<BoundExpr>),
    /// `e is null`.
    IsNull(Box<BoundExpr>),
    /// Short-circuit `∧`.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Short-circuit `∨`.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// `{e₁, …}`.
    SetCons(Vec<BoundExpr>),
    /// `∪ ∩ −`.
    SetOp(SetOp, Box<BoundExpr>, Box<BoundExpr>),
    /// `⊂ ⊆ = ⊇ ⊃ ∈ …`.
    SetCmp(SetCmpOp, Box<BoundExpr>, Box<BoundExpr>),
    /// `⋃e`.
    Flatten(Box<BoundExpr>),
    /// Aggregate.
    Agg(AggOp, Box<BoundExpr>),
    /// `α[x : body](input)`, `x` the local slot at `depth`.
    Map {
        /// Depth of the slot the elements bind.
        depth: usize,
        /// Per-element body.
        body: Box<BoundExpr>,
        /// The set iterated.
        input: Box<BoundExpr>,
    },
    /// `σ[x : pred](input)`, `x` the local slot at `depth`.
    Select {
        /// Depth of the slot the elements bind.
        depth: usize,
        /// Per-element predicate.
        pred: Box<BoundExpr>,
        /// The set iterated.
        input: Box<BoundExpr>,
    },
    /// `∃/∀ x ∈ range • pred`, `x` the local slot at `depth`.
    Quant {
        /// Which quantifier.
        q: QuantKind,
        /// Depth of the slot the elements bind.
        depth: usize,
        /// The set quantified over.
        range: Box<BoundExpr>,
        /// Per-element predicate.
        pred: Box<BoundExpr>,
    },
    /// A subtree left to the interpreter. `scope` lists the row and
    /// local slots it reads, outermost first; they are pushed onto the
    /// [`Env`] (above the outer bindings already there) for the call.
    Leaf {
        /// The interpreted subtree.
        expr: Expr,
        /// The slots bound around it, by name.
        scope: Vec<(Name, Slot)>,
    },
}

/// The free variables of the expressions one [`Binder`] lowered: what a
/// [`Cx`] reads from the [`Env`] once per batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct Outer(Vec<Name>);

/// Lowers [`Expr`]s into [`BoundExpr`]s. Expressions bound by one binder
/// share its [`Outer`] table (a join binds its keys, residual and
/// nestjoin function together), so one [`Cx`] evaluates all of them.
#[derive(Debug, Default)]
pub(crate) struct Binder {
    outer: Vec<Name>,
    /// Visible variables, innermost last.
    scope: Vec<(Name, Slot)>,
    /// Nesting depth of local slots at the current point.
    depth: usize,
}

impl Binder {
    /// A binder with an empty outer table.
    pub fn new() -> Self {
        Binder::default()
    }

    /// Lowers `e` with `vars` as the row slots `0, 1, …` (a later
    /// variable shadows an earlier one of the same name, as a later
    /// [`Env::push`] does).
    pub fn bind(&mut self, e: &Expr, vars: &[&Name]) -> BoundExpr {
        self.scope = vars
            .iter()
            .enumerate()
            .map(|(i, v)| ((*v).clone(), Slot::Row(i)))
            .collect();
        self.depth = 0;
        self.lower(e)
    }

    /// The outer table of everything bound so far.
    pub fn finish(self) -> Outer {
        Outer(self.outer)
    }

    fn var(&mut self, n: &Name) -> BoundExpr {
        if let Some((_, slot)) = self.scope.iter().rev().find(|(v, _)| v == n) {
            return match *slot {
                Slot::Row(i) => BoundExpr::Row(i),
                Slot::Local(d) => BoundExpr::Local(d),
            };
        }
        let i = match self.outer.iter().position(|v| v == n) {
            Some(i) => i,
            None => {
                self.outer.push(n.clone());
                self.outer.len() - 1
            }
        };
        BoundExpr::Outer(i, n.clone())
    }

    fn boxed(&mut self, e: &Expr) -> Box<BoundExpr> {
        Box::new(self.lower(e))
    }

    /// Lowers `body` with `var` bound to a fresh local slot; returns the
    /// slot's depth and the lowered body.
    fn under(&mut self, var: &Name, body: &Expr) -> (usize, Box<BoundExpr>) {
        let depth = self.depth;
        self.scope.push((var.clone(), Slot::Local(depth)));
        self.depth += 1;
        let body = self.boxed(body);
        self.depth -= 1;
        self.scope.pop();
        (depth, body)
    }

    fn leaf(&self, e: &Expr) -> BoundExpr {
        let scope = self
            .scope
            .iter()
            .filter(|(n, _)| oodb_adl::is_free_in(n, e))
            .map(|(n, slot)| (n.clone(), *slot))
            .collect();
        BoundExpr::Leaf {
            expr: e.clone(),
            scope,
        }
    }

    fn lower(&mut self, e: &Expr) -> BoundExpr {
        use BoundExpr as B;
        match e {
            Expr::Lit(v) => B::Lit(v.clone()),
            Expr::Var(n) => self.var(n),
            Expr::Field(inner, attr) => B::Field(self.boxed(inner), attr.clone()),
            Expr::TupleProject(inner, attrs) => B::TupleProject(self.boxed(inner), attrs.clone()),
            Expr::TupleCons(fields) => {
                let mut names: Vec<Name> = fields.iter().map(|(n, _)| n.clone()).collect();
                names.sort();
                if names.windows(2).any(|w| w[0] == w[1]) {
                    // the interpreter reports the duplicate after
                    // evaluating every field
                    return self.leaf(e);
                }
                let at = fields
                    .iter()
                    .map(|(n, _)| names.binary_search(n).expect("a listed name"))
                    .collect();
                let fields = fields.iter().map(|(_, fe)| self.lower(fe)).collect();
                B::TupleCons {
                    names: names.into(),
                    at,
                    fields,
                }
            }
            Expr::Except(inner, updates) => B::Except(
                self.boxed(inner),
                updates
                    .iter()
                    .map(|(n, ue)| (n.clone(), self.lower(ue)))
                    .collect(),
            ),
            Expr::Concat(a, b) => B::Concat(self.boxed(a), self.boxed(b)),
            Expr::Deref(inner, class) => B::Deref(self.boxed(inner), class.clone()),
            Expr::Cmp(op, a, b) => B::Cmp(*op, self.boxed(a), self.boxed(b)),
            Expr::Arith(op, a, b) => B::Arith(*op, self.boxed(a), self.boxed(b)),
            Expr::Not(inner) => B::Not(self.boxed(inner)),
            Expr::IsNull(inner) => B::IsNull(self.boxed(inner)),
            Expr::And(a, b) => B::And(self.boxed(a), self.boxed(b)),
            Expr::Or(a, b) => B::Or(self.boxed(a), self.boxed(b)),
            Expr::SetCons(es) => B::SetCons(es.iter().map(|se| self.lower(se)).collect()),
            Expr::SetOp(op, a, b) => B::SetOp(*op, self.boxed(a), self.boxed(b)),
            Expr::SetCmp(op, a, b) => B::SetCmp(*op, self.boxed(a), self.boxed(b)),
            Expr::Flatten(inner) => B::Flatten(self.boxed(inner)),
            Expr::Agg(op, inner) => B::Agg(*op, self.boxed(inner)),
            Expr::Map { var, body, input } => {
                let input = self.boxed(input);
                let (depth, body) = self.under(var, body);
                B::Map { depth, body, input }
            }
            Expr::Select { var, pred, input } => {
                let input = self.boxed(input);
                let (depth, pred) = self.under(var, pred);
                B::Select { depth, pred, input }
            }
            Expr::Quant {
                q,
                var,
                range,
                pred,
            } => {
                let range = self.boxed(range);
                let (depth, pred) = self.under(var, pred);
                B::Quant {
                    q: *q,
                    depth,
                    range,
                    pred,
                }
            }
            Expr::Table(_)
            | Expr::Project { .. }
            | Expr::Rename { .. }
            | Expr::Unnest { .. }
            | Expr::Nest { .. }
            | Expr::Product(..)
            | Expr::Join { .. }
            | Expr::NestJoin { .. }
            | Expr::Div(..)
            | Expr::Let { .. } => self.leaf(e),
        }
    }
}

/// One expression bound on its own (a `Filter` predicate, a `Map` body,
/// a scalar `Eval`), with its outer table.
#[derive(Debug, Clone)]
pub struct Bound {
    outer: Outer,
    expr: BoundExpr,
}

impl Bound {
    /// Lowers `e` with `vars` as its row slots.
    pub fn new(e: &Expr, vars: &[&Name]) -> Self {
        let mut binder = Binder::new();
        let expr = binder.bind(e, vars);
        Bound {
            outer: binder.finish(),
            expr,
        }
    }

    /// The lowered expression.
    pub(crate) fn expr(&self) -> &BoundExpr {
        &self.expr
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

    /// Evaluates the expression once with `rows` in its row slots — the
    /// bound counterpart of [`Evaluator::eval`] under `env` with the row
    /// variables pushed.
    pub fn eval(
        &self,
        rows: &[&Value],
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Value, EvalError> {
        self.cx(ev, env, stats).value(&self.expr, rows)
    }
}

/// The evaluation context of one batch: the leaf interpreter with its
/// environment, the statistics sink, and the outer variables of one
/// [`Outer`] table, read from the environment when the context is made.
pub(crate) struct Cx<'r, 'db> {
    ev: &'r Evaluator<'db>,
    env: &'r mut Env,
    /// Work counters (the same sink the interpreter would charge).
    pub stats: &'r mut Stats,
    outer: Vec<Option<Value>>,
}

impl<'r, 'db> Cx<'r, 'db> {
    /// Reads `outer`'s variables from `env`. One that is unbound fails
    /// only when an evaluation reaches it, with the interpreter's
    /// [`EvalError::UnboundVar`].
    pub fn new(
        ev: &'r Evaluator<'db>,
        env: &'r mut Env,
        stats: &'r mut Stats,
        outer: &Outer,
    ) -> Self {
        let outer = outer.0.iter().map(|n| env.get(n).cloned()).collect();
        Cx {
            ev,
            env,
            stats,
            outer,
        }
    }

    /// The database the leaf interpreter reads.
    pub fn db(&self) -> &'db Database {
        self.ev.db()
    }

    /// `e`'s value with `rows` in the row slots: borrowed where it names
    /// a row, a field or a literal, owned where it was computed.
    fn eval<'a>(&'a mut self, e: &'a BoundExpr, rows: &'a [&'a Value]) -> Eval<'a> {
        let frame = Frame {
            outer: &self.outer,
            rows,
            local: None,
        };
        let mut run = Run {
            ev: self.ev,
            env: self.env,
            stats: self.stats,
        };
        e.eval(&frame, &mut run)
    }

    /// Applies `f` to `e`'s value with `rows` in the row slots, without
    /// cloning a value it only reads.
    pub fn with<T>(
        &mut self,
        e: &BoundExpr,
        rows: &[&Value],
        f: impl FnOnce(&Value) -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        let v = self.eval(e, rows)?;
        f(&v)
    }

    /// `e`'s value with `rows` in the row slots.
    pub fn value(&mut self, e: &BoundExpr, rows: &[&Value]) -> Result<Value, EvalError> {
        Ok(self.eval(e, rows)?.into_owned())
    }

    /// `e` as a predicate (its value must be a boolean).
    pub fn truth(&mut self, e: &BoundExpr, rows: &[&Value]) -> Result<bool, EvalError> {
        self.with(e, rows, |v| Ok(v.as_bool()?))
    }
}

/// The slot values visible to an evaluation.
#[derive(Clone, Copy)]
struct Frame<'a> {
    outer: &'a [Option<Value>],
    rows: &'a [&'a Value],
    /// The innermost local slot, if any.
    local: Option<&'a Local<'a>>,
}

/// One local slot and the ones around it.
struct Local<'a> {
    depth: usize,
    val: &'a Value,
    up: Option<&'a Local<'a>>,
}

impl<'a> Frame<'a> {
    fn local(&self, depth: usize) -> &'a Value {
        let mut at = self.local;
        while let Some(l) = at {
            if l.depth == depth {
                return l.val;
            }
            at = l.up;
        }
        unreachable!("the binder only emits local slots in scope")
    }

    fn slot(&self, s: Slot) -> &'a Value {
        match s {
            Slot::Row(i) => self.rows[i],
            Slot::Local(d) => self.local(d),
        }
    }

    /// This frame with `local` as its innermost local slot.
    fn with_local<'b>(&'b self, local: &'b Local<'b>) -> Frame<'b> {
        Frame {
            outer: self.outer,
            rows: self.rows,
            local: Some(local),
        }
    }
}

/// The interpreter state an evaluation threads through.
struct Run<'r, 'db> {
    ev: &'r Evaluator<'db>,
    env: &'r mut Env,
    stats: &'r mut Stats,
}

type Eval<'a> = Result<Cow<'a, Value>, EvalError>;

fn owned<'a>(v: Value) -> Eval<'a> {
    Ok(Cow::Owned(v))
}

impl BoundExpr {
    fn eval<'a>(&'a self, f: &Frame<'a>, run: &mut Run<'_, '_>) -> Eval<'a> {
        use BoundExpr as B;
        match self {
            B::Lit(v) => Ok(Cow::Borrowed(v)),
            B::Row(i) => Ok(Cow::Borrowed(f.rows[*i])),
            B::Local(d) => Ok(Cow::Borrowed(f.local(*d))),
            B::Outer(i, n) => f.outer[*i]
                .as_ref()
                .map(Cow::Borrowed)
                .ok_or_else(|| EvalError::UnboundVar(n.clone())),
            B::Field(inner, attr) => match inner.eval(f, run)? {
                Cow::Borrowed(v) => Ok(Cow::Borrowed(v.as_tuple()?.field(attr)?)),
                Cow::Owned(v) => owned(v.as_tuple()?.field(attr)?.clone()),
            },
            B::TupleProject(inner, attrs) => owned(Value::Tuple(
                inner.eval(f, run)?.as_tuple()?.subscript(attrs)?,
            )),
            B::TupleCons { names, at, fields } => {
                // One allocation: the canonical field list, filled in
                // source order (the order errors and counters follow).
                let mut tuple: Arc<[(Name, Value)]> =
                    names.iter().map(|n| (n.clone(), Value::Null)).collect();
                let slots = Arc::get_mut(&mut tuple).expect("a fresh allocation");
                for (fe, &i) in fields.iter().zip(at) {
                    slots[i].1 = fe.eval(f, run)?.into_owned();
                }
                owned(Value::Tuple(Tuple::from_sorted_unchecked(tuple)))
            }
            B::Except(inner, updates) => {
                let v = inner.eval(f, run)?;
                let mut ups = Vec::with_capacity(updates.len());
                for (n, ue) in updates {
                    ups.push((n.clone(), ue.eval(f, run)?.into_owned()));
                }
                owned(Value::Tuple(v.as_tuple()?.except(&ups)?))
            }
            B::Concat(a, b) => {
                let va = a.eval(f, run)?;
                let vb = b.eval(f, run)?;
                owned(Value::Tuple(va.as_tuple()?.concat(vb.as_tuple()?)?))
            }
            B::Deref(inner, class) => {
                let oid = inner.eval(f, run)?.as_oid()?;
                run.stats.oid_lookups += 1;
                let db = run.ev.db();
                db.catalog()
                    .class(class)
                    .ok_or_else(|| EvalError::UnknownClass(class.clone()))?;
                db.deref(class, oid)
                    .map(|t| Cow::Owned(Value::Tuple(t.clone())))
                    .ok_or_else(|| EvalError::DanglingPointer {
                        class: class.clone(),
                        oid,
                    })
            }
            B::Cmp(op, a, b) => {
                let va = a.eval(f, run)?;
                let vb = b.eval(f, run)?;
                if matches!(*va, Value::Null) || matches!(*vb, Value::Null) {
                    return Err(EvalError::NullNotAllowed("comparison"));
                }
                owned(Value::Bool(Value::compare(*op, &va, &vb)?))
            }
            B::Arith(op, a, b) => {
                let va = a.eval(f, run)?;
                let vb = b.eval(f, run)?;
                owned(Value::arith(*op, &va, &vb)?)
            }
            B::Not(inner) => owned(Value::Bool(!inner.eval(f, run)?.as_bool()?)),
            B::IsNull(inner) => owned(Value::Bool(matches!(*inner.eval(f, run)?, Value::Null))),
            B::And(a, b) => {
                if !a.eval(f, run)?.as_bool()? {
                    return owned(Value::FALSE);
                }
                owned(Value::Bool(b.eval(f, run)?.as_bool()?))
            }
            B::Or(a, b) => {
                if a.eval(f, run)?.as_bool()? {
                    return owned(Value::TRUE);
                }
                owned(Value::Bool(b.eval(f, run)?.as_bool()?))
            }
            B::SetCons(es) => {
                let mut out = Vec::with_capacity(es.len());
                for se in es {
                    out.push(se.eval(f, run)?.into_owned());
                }
                owned(Value::Set(Set::from_values(out)))
            }
            B::SetOp(op, a, b) => {
                let va = a.eval(f, run)?;
                let vb = b.eval(f, run)?;
                let (sa, sb) = (va.as_set()?, vb.as_set()?);
                owned(Value::Set(match op {
                    SetOp::Union => sa.union(sb),
                    SetOp::Intersect => sa.intersect(sb),
                    SetOp::Difference => sa.difference(sb),
                }))
            }
            B::SetCmp(op, a, b) => {
                let va = a.eval(f, run)?;
                let vb = b.eval(f, run)?;
                owned(Value::Bool(op.eval(&va, &vb)?))
            }
            B::Flatten(inner) => owned(Value::Set(inner.eval(f, run)?.as_set()?.flatten()?)),
            B::Agg(op, inner) => owned(aggregate(*op, inner.eval(f, run)?.as_set()?)?),
            B::Map { depth, body, input } => {
                let v = input.eval(f, run)?;
                let s = v.as_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s.iter() {
                    run.stats.loop_iterations += 1;
                    run.stats.predicate_evals += 1;
                    let local = Local {
                        depth: *depth,
                        val: elem,
                        up: f.local,
                    };
                    out.push(body.eval(&f.with_local(&local), run)?.into_owned());
                }
                owned(Value::Set(Set::from_values(out)))
            }
            B::Select { depth, pred, input } => {
                let v = input.eval(f, run)?;
                let s = v.as_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s.iter() {
                    run.stats.loop_iterations += 1;
                    run.stats.predicate_evals += 1;
                    let local = Local {
                        depth: *depth,
                        val: elem,
                        up: f.local,
                    };
                    if pred.eval(&f.with_local(&local), run)?.as_bool()? {
                        out.push(elem.clone());
                    }
                }
                owned(Value::Set(Set::from_values(out)))
            }
            B::Quant {
                q,
                depth,
                range,
                pred,
            } => {
                let v = range.eval(f, run)?;
                for elem in v.as_set()?.iter() {
                    run.stats.loop_iterations += 1;
                    run.stats.predicate_evals += 1;
                    let local = Local {
                        depth: *depth,
                        val: elem,
                        up: f.local,
                    };
                    let truth = pred.eval(&f.with_local(&local), run)?.as_bool()?;
                    match q {
                        QuantKind::Exists if truth => return owned(Value::TRUE),
                        QuantKind::Forall if !truth => return owned(Value::FALSE),
                        _ => {}
                    }
                }
                owned(Value::Bool(matches!(q, QuantKind::Forall)))
            }
            B::Leaf { expr, scope } => {
                for (n, s) in scope {
                    run.env.push(n, f.slot(*s).clone());
                }
                let r = run.ev.eval(expr, run.env, run.stats);
                for _ in scope {
                    run.env.pop();
                }
                r.map(Cow::Owned)
            }
        }
    }
}
