//! The reference evaluator: nested-loop (tuple-oriented) semantics.
//!
//! "The dominant strategy to handle nesting is to execute it by means of
//! nested-loop processing" (paper §1) — this module *is* that baseline.
//! Every ADL operator is interpreted directly from its definition in §3;
//! iterators evaluate their parameter function once per element, so a
//! nested subquery re-executes for every outer tuple. The physical
//! operators in [`crate::physical`] are checked against this evaluator in
//! property tests: same input, same answer, different cost profile.

use crate::stats::Stats;
use oodb_adl::expr::{AggOp, Expr, JoinKind, QuantKind};
use oodb_catalog::Database;
use oodb_value::{Name, Oid, Set, Tuple, Value, ValueError};
use std::fmt;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Dynamic value-level error (type confusion, overflow, …).
    Value(ValueError),
    /// Unbound variable at runtime (indicates a malformed plan).
    UnboundVar(Name),
    /// Unknown base table.
    UnknownTable(Name),
    /// Unknown class in a deref.
    UnknownClass(Name),
    /// A pointer named no object — referential integrity violation
    /// surfaced by materialization (Example Query 4 *queries for* such
    /// pointers without dereferencing them; dereferencing one is an
    /// error).
    DanglingPointer {
        /// The class whose extent was consulted.
        class: Name,
        /// The dangling oid.
        oid: Oid,
    },
    /// Division operands violated the schema condition at runtime.
    BadDivision(String),
    /// `NULL` reached an operator that is not null-aware (outerjoin
    /// padding escaping its intended scope).
    NullNotAllowed(&'static str),
    /// An index nested-loop join or a set-index scan reached an extent
    /// attribute that has no such index — the planner must never emit
    /// such a plan.
    MissingIndex {
        /// The extent that was probed.
        extent: Name,
        /// The unindexed attribute.
        attr: Name,
    },
    /// A streaming operator was driven through an illegal state
    /// transition — `next_batch` before `open` or after `close`, a
    /// scalar child that emitted no value, or a subtree that left the
    /// environment stack unbalanced. Returned instead of panicking so a
    /// failing pipeline can still be closed and reported cleanly.
    OperatorProtocol(&'static str),
    /// Spill-file I/O failed (creating the spill directory, writing a
    /// grace partition or sort run, reading one back). Carries what was
    /// being attempted and the rendered `std::io::Error`; no spill path
    /// panics on a full disk or an unwritable scratch directory.
    Io {
        /// What the external-memory subsystem was doing.
        context: &'static str,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Value(e) => write!(f, "{e}"),
            EvalError::UnboundVar(n) => write!(f, "unbound variable `{n}` at runtime"),
            EvalError::UnknownTable(n) => write!(f, "unknown base table `{n}`"),
            EvalError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
            EvalError::DanglingPointer { class, oid } => {
                write!(f, "dangling pointer: no `{class}` object with oid {oid}")
            }
            EvalError::BadDivision(s) => write!(f, "bad division: {s}"),
            EvalError::NullNotAllowed(op) => {
                write!(f, "NULL reached non-null-aware operator `{op}`")
            }
            EvalError::MissingIndex { extent, attr } => {
                write!(f, "index probe of unindexed attribute `{extent}.{attr}`")
            }
            EvalError::OperatorProtocol(what) => {
                write!(f, "streaming operator protocol violation: {what}")
            }
            EvalError::Io { context, message } => {
                write!(f, "spill I/O error ({context}): {message}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ValueError> for EvalError {
    fn from(e: ValueError) -> Self {
        EvalError::Value(e)
    }
}

impl From<oodb_spill::SpillError> for EvalError {
    fn from(e: oodb_spill::SpillError) -> Self {
        EvalError::Io {
            context: e.context,
            message: e.message,
        }
    }
}

/// A runtime variable environment (lexically scoped stack).
#[derive(Debug, Default, Clone)]
pub struct Env {
    stack: Vec<(Name, Value)>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Pushes a binding; pair with [`Env::pop`].
    pub fn push(&mut self, var: &Name, v: Value) {
        self.stack.push((var.clone(), v));
    }

    /// Pops the innermost binding.
    pub fn pop(&mut self) {
        self.stack.pop();
    }

    /// Pops and returns the innermost binding (lets the streaming `let`
    /// operator move its bound value back out instead of cloning it).
    pub fn pop_binding(&mut self) -> Option<(Name, Value)> {
        self.stack.pop()
    }

    /// Current stack depth. Operators that push bindings around child
    /// pulls record the depth first, so an error path that left the
    /// stack unbalanced can be unwound back to a known frame instead of
    /// trusting `pop` counts.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Innermost binding for `var`.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.stack
            .iter()
            .rev()
            .find(|(n, _)| n.as_ref() == var)
            .map(|(_, v)| v)
    }

    /// Iterates visible bindings, innermost last.
    pub fn bindings(&self) -> impl Iterator<Item = (&Name, &Value)> {
        self.stack.iter().map(|(n, v)| (n, v))
    }
}

/// Whether `e` names a value instead of computing one: a literal, a
/// variable, or an attribute path over a variable. Resolving such an
/// expression reads no table and counts no work.
fn names_value(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Var(_) => true,
        Expr::Field(inner, _) => names_value(inner),
        _ => false,
    }
}

/// Resolves an expression that [`names_value`] by reference into the
/// plan or `env`, failing exactly as [`Evaluator::eval`] would.
fn resolve<'v>(e: &'v Expr, env: &'v Env) -> Result<&'v Value, EvalError> {
    match e {
        Expr::Lit(v) => Ok(v),
        Expr::Var(n) => env.get(n).ok_or_else(|| EvalError::UnboundVar(n.clone())),
        Expr::Field(inner, attr) => Ok(resolve(inner, env)?.as_tuple()?.field(attr)?),
        _ => unreachable!("resolve is only called where names_value holds"),
    }
}

/// The nested-loop interpreter over a [`Database`].
pub struct Evaluator<'a> {
    db: &'a Database,
}

impl<'a> Evaluator<'a> {
    /// An evaluator bound to a database.
    pub fn new(db: &'a Database) -> Self {
        Evaluator { db }
    }

    /// The database this evaluator reads.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// Evaluates a closed expression, discarding statistics.
    pub fn eval_closed(&self, e: &Expr) -> Result<Value, EvalError> {
        let mut stats = Stats::new();
        self.eval_closed_with(e, &mut stats)
    }

    /// Evaluates a closed expression, accumulating statistics.
    pub fn eval_closed_with(&self, e: &Expr, stats: &mut Stats) -> Result<Value, EvalError> {
        let mut env = Env::new();
        let v = self.eval(e, &mut env, stats)?;
        if let Value::Set(s) = &v {
            stats.output_rows += s.len() as u64;
        }
        Ok(v)
    }

    /// Applies `f` to the two operands of a comparison, evaluated left
    /// to right. An operand that [names a value](names_value) is
    /// borrowed from the plan or `env` instead of cloned — a clone is an
    /// atomic refcount bump on a shared literal or row, which parallel
    /// workers probing the same plan would contend on. As in plain
    /// evaluation, the left operand's error wins and a failing left
    /// operand leaves the right one unevaluated.
    fn with_operands(
        &self,
        a: &Expr,
        b: &Expr,
        env: &mut Env,
        stats: &mut Stats,
        f: impl FnOnce(&Value, &Value) -> Result<Value, EvalError>,
    ) -> Result<Value, EvalError> {
        match (names_value(a), names_value(b)) {
            (true, true) => f(resolve(a, env)?, resolve(b, env)?),
            (false, true) => {
                let va = self.eval(a, env, stats)?;
                f(&va, resolve(b, env)?)
            }
            (true, false) => {
                resolve(a, env)?;
                let vb = self.eval(b, env, stats)?;
                f(resolve(a, env)?, &vb)
            }
            (false, false) => {
                let va = self.eval(a, env, stats)?;
                let vb = self.eval(b, env, stats)?;
                f(&va, &vb)
            }
        }
    }

    /// Evaluates `e` under `env`.
    pub fn eval(&self, e: &Expr, env: &mut Env, stats: &mut Stats) -> Result<Value, EvalError> {
        use Expr::*;
        match e {
            Lit(v) => Ok(v.clone()),
            Var(n) => env
                .get(n)
                .cloned()
                .ok_or_else(|| EvalError::UnboundVar(n.clone())),
            Table(n) => {
                let t = self
                    .db
                    .table(n)
                    .ok_or_else(|| EvalError::UnknownTable(n.clone()))?;
                stats.rows_scanned += t.len() as u64;
                Ok(t.as_set_value())
            }
            TupleCons(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (n, fe) in fields {
                    out.push((n.clone(), self.eval(fe, env, stats)?));
                }
                Ok(Value::Tuple(Tuple::new(out).map_err(EvalError::Value)?))
            }
            Field(inner, attr) => {
                let v = self.eval(inner, env, stats)?;
                let t = v.as_tuple()?;
                Ok(t.field(attr)?.clone())
            }
            TupleProject(inner, attrs) => {
                let v = self.eval(inner, env, stats)?;
                Ok(Value::Tuple(v.as_tuple()?.subscript(attrs)?))
            }
            Except(inner, updates) => {
                let v = self.eval(inner, env, stats)?;
                let mut ups = Vec::with_capacity(updates.len());
                for (n, ue) in updates {
                    ups.push((n.clone(), self.eval(ue, env, stats)?));
                }
                Ok(Value::Tuple(v.as_tuple()?.except(&ups)?))
            }
            Concat(a, b) => {
                let va = self.eval(a, env, stats)?;
                let vb = self.eval(b, env, stats)?;
                Ok(Value::Tuple(va.as_tuple()?.concat(vb.as_tuple()?)?))
            }
            Deref(inner, class) => {
                let v = self.eval(inner, env, stats)?;
                let oid = v.as_oid()?;
                stats.oid_lookups += 1;
                self.db
                    .catalog()
                    .class(class)
                    .ok_or_else(|| EvalError::UnknownClass(class.clone()))?;
                self.db
                    .deref(class, oid)
                    .map(|t| Value::Tuple(t.clone()))
                    .ok_or_else(|| EvalError::DanglingPointer {
                        class: class.clone(),
                        oid,
                    })
            }
            Cmp(op, a, b) => self.with_operands(a, b, env, stats, |va, vb| {
                if matches!(va, Value::Null) || matches!(vb, Value::Null) {
                    return Err(EvalError::NullNotAllowed("comparison"));
                }
                Ok(Value::Bool(Value::compare(*op, va, vb)?))
            }),
            Arith(op, a, b) => {
                let va = self.eval(a, env, stats)?;
                let vb = self.eval(b, env, stats)?;
                Ok(Value::arith(*op, &va, &vb)?)
            }
            Not(inner) => Ok(Value::Bool(!self.eval(inner, env, stats)?.as_bool()?)),
            IsNull(inner) => {
                let v = self.eval(inner, env, stats)?;
                Ok(Value::Bool(matches!(v, Value::Null)))
            }
            And(a, b) => {
                // short-circuit
                if !self.eval(a, env, stats)?.as_bool()? {
                    return Ok(Value::FALSE);
                }
                Ok(Value::Bool(self.eval(b, env, stats)?.as_bool()?))
            }
            Or(a, b) => {
                if self.eval(a, env, stats)?.as_bool()? {
                    return Ok(Value::TRUE);
                }
                Ok(Value::Bool(self.eval(b, env, stats)?.as_bool()?))
            }
            SetCons(es) => {
                let mut out = Vec::with_capacity(es.len());
                for se in es {
                    out.push(self.eval(se, env, stats)?);
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            SetOp(op, a, b) => {
                let va = self.eval(a, env, stats)?;
                let vb = self.eval(b, env, stats)?;
                let (sa, sb) = (va.as_set()?, vb.as_set()?);
                Ok(Value::Set(match op {
                    oodb_adl::SetOp::Union => sa.union(sb),
                    oodb_adl::SetOp::Intersect => sa.intersect(sb),
                    oodb_adl::SetOp::Difference => sa.difference(sb),
                }))
            }
            SetCmp(op, a, b) => {
                self.with_operands(a, b, env, stats, |va, vb| Ok(Value::Bool(op.eval(va, vb)?)))
            }
            Flatten(inner) => {
                let v = self.eval(inner, env, stats)?;
                Ok(Value::Set(v.as_set()?.flatten()?))
            }
            Agg(op, inner) => {
                let v = self.eval(inner, env, stats)?;
                aggregate(*op, v.as_set()?)
            }
            Map { var, body, input } => {
                let v = self.eval(input, env, stats)?;
                let s = v.into_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s {
                    stats.loop_iterations += 1;
                    stats.predicate_evals += 1;
                    env.push(var, elem);
                    let r = self.eval(body, env, stats);
                    env.pop();
                    out.push(r?);
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            Select { var, pred, input } => {
                let v = self.eval(input, env, stats)?;
                let s = v.into_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s {
                    stats.loop_iterations += 1;
                    stats.predicate_evals += 1;
                    env.push(var, elem.clone());
                    let keep = self.eval(pred, env, stats);
                    env.pop();
                    if keep?.as_bool()? {
                        out.push(elem);
                    }
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            Project { attrs, input } => {
                let v = self.eval(input, env, stats)?;
                let s = v.as_set()?;
                let mut out = Vec::with_capacity(s.len());
                for elem in s.iter() {
                    out.push(Value::Tuple(elem.as_tuple()?.subscript(attrs)?));
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            Rename { pairs, input } => {
                let v = self.eval(input, env, stats)?;
                let s = v.as_set()?;
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
            Unnest { attr, input } => {
                let v = self.eval(input, env, stats)?;
                unnest_set(v.as_set()?, attr)
            }
            Nest {
                attrs,
                as_attr,
                input,
            } => {
                let v = self.eval(input, env, stats)?;
                nest_set(v.as_set()?, attrs, as_attr)
            }
            Product(a, b) => {
                let va = self.eval(a, env, stats)?;
                let vb = self.eval(b, env, stats)?;
                let (sa, sb) = (va.as_set()?, vb.as_set()?);
                let mut out = Vec::with_capacity(sa.len() * sb.len());
                for x in sa.iter() {
                    for y in sb.iter() {
                        stats.loop_iterations += 1;
                        out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                    }
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            Join {
                kind,
                lvar,
                rvar,
                pred,
                left,
                right,
            } => {
                let vl = self.eval(left, env, stats)?;
                let vr = self.eval(right, env, stats)?;
                self.nl_join(
                    *kind,
                    lvar,
                    rvar,
                    pred,
                    vl.as_set()?,
                    vr.as_set()?,
                    e,
                    env,
                    stats,
                )
            }
            NestJoin {
                lvar,
                rvar,
                pred,
                rfunc,
                as_attr,
                left,
                right,
            } => {
                let vl = self.eval(left, env, stats)?;
                let vr = self.eval(right, env, stats)?;
                let (sl, sr) = (vl.as_set()?, vr.as_set()?);
                let mut out = Vec::with_capacity(sl.len());
                for x in sl.iter() {
                    let mut group = Vec::new();
                    for y in sr.iter() {
                        stats.loop_iterations += 1;
                        stats.predicate_evals += 1;
                        env.push(lvar, x.clone());
                        env.push(rvar, y.clone());
                        let hit = self.eval(pred, env, stats);
                        let collected = match &hit {
                            Ok(v) if v.is_bool_true() => match rfunc {
                                Some(g) => Some(self.eval(g, env, stats)),
                                None => Some(Ok(y.clone())),
                            },
                            _ => None,
                        };
                        env.pop();
                        env.pop();
                        hit?;
                        if let Some(c) = collected {
                            group.push(c?);
                        }
                    }
                    let with_group = x
                        .as_tuple()?
                        .insert(as_attr, Value::Set(Set::from_values(group)))?;
                    out.push(Value::Tuple(with_group));
                }
                Ok(Value::Set(Set::from_values(out)))
            }
            Quant {
                q,
                var,
                range,
                pred,
            } => {
                let v = self.eval(range, env, stats)?;
                let s = v.into_set()?;
                for elem in s {
                    stats.loop_iterations += 1;
                    stats.predicate_evals += 1;
                    env.push(var, elem);
                    let r = self.eval(pred, env, stats);
                    env.pop();
                    let truth = r?.as_bool()?;
                    match q {
                        QuantKind::Exists if truth => return Ok(Value::TRUE),
                        QuantKind::Forall if !truth => return Ok(Value::FALSE),
                        _ => {}
                    }
                }
                Ok(Value::Bool(matches!(q, QuantKind::Forall)))
            }
            Div(a, b) => {
                let va = self.eval(a, env, stats)?;
                let vb = self.eval(b, env, stats)?;
                divide(va.as_set()?, vb.as_set()?, stats)
            }
            Let { var, value, body } => {
                let v = self.eval(value, env, stats)?;
                env.push(var, v);
                let r = self.eval(body, env, stats);
                env.pop();
                r
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn nl_join(
        &self,
        kind: JoinKind,
        lvar: &Name,
        rvar: &Name,
        pred: &Expr,
        sl: &Set,
        sr: &Set,
        whole: &Expr,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Value, EvalError> {
        let mut out = Vec::new();
        for x in sl.iter() {
            let mut matched = false;
            for y in sr.iter() {
                stats.loop_iterations += 1;
                stats.predicate_evals += 1;
                env.push(lvar, x.clone());
                env.push(rvar, y.clone());
                let hit = self.eval(pred, env, stats);
                env.pop();
                env.pop();
                if hit?.as_bool()? {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => {
                            out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                        }
                        JoinKind::Semi => break,
                        JoinKind::Anti => break,
                    }
                }
            }
            match kind {
                JoinKind::Semi if matched => out.push(x.clone()),
                JoinKind::Anti if !matched => out.push(x.clone()),
                JoinKind::LeftOuter if !matched => {
                    out.push(Value::Tuple(self.null_pad(x, whole, env)?));
                }
                _ => {}
            }
        }
        Ok(Value::Set(Set::from_values(out)))
    }

    /// Pads a dangling left tuple with `NULL` right attributes
    /// (the \[GaWo87\] outerjoin repair, §5.2.2).
    fn null_pad(&self, x: &Value, join: &Expr, env: &Env) -> Result<Tuple, EvalError> {
        let Expr::Join { right, .. } = join else {
            unreachable!("null_pad is only called on joins")
        };
        let attrs = self.right_attrs(right, env)?;
        let mut padded = x.as_tuple()?.clone();
        for a in attrs {
            padded = padded
                .except(&[(a, Value::Null)])
                .map_err(EvalError::Value)?;
        }
        Ok(padded)
    }

    /// The attribute names of a table expression, derived from its static
    /// type under the current environment (needed when the right operand
    /// is empty and no sample tuple exists).
    fn right_attrs(&self, right: &Expr, env: &Env) -> Result<Vec<Name>, EvalError> {
        let mut tenv = oodb_adl::TypeEnv::new();
        for (n, v) in env.bindings() {
            tenv = tenv.bind(n, v.type_of());
        }
        let t = oodb_adl::infer(right, &tenv, self.db.catalog()).map_err(|e| {
            EvalError::Value(ValueError::TypeMismatch {
                op: "outer join schema",
                lhs: right.to_string(),
                rhs: e.to_string(),
            })
        })?;
        t.sch()
            .ok_or_else(|| EvalError::Value(ValueError::NotASet(right.to_string())))
    }
}

/// `μ_a` on a concrete set (paper def. 7): `{x' ∘ x[b₁,…,bₘ] | x ∈ e ∧ x' ∈ x.a}`.
///
/// Tuples whose `a` is empty vanish — the lossiness that makes
/// unnest/nest **not** inverses on non-PNF relations (§4, option 1).
pub fn unnest_set(s: &Set, attr: &Name) -> Result<Value, EvalError> {
    let mut out = Vec::new();
    for x in s.iter() {
        unnest_value(x, attr, &mut out)?;
    }
    Ok(Value::Set(Set::from_values(out)))
}

/// `μ_a` of a single tuple, appending the flattened records to `out`
/// (the per-row step the streaming pipeline maps over batches).
pub fn unnest_value(x: &Value, attr: &Name, out: &mut Vec<Value>) -> Result<(), EvalError> {
    let t = x.as_tuple()?;
    let inner = t.field(attr)?.as_set()?.clone();
    let rest = t.without(attr);
    for x_prime in inner.iter() {
        match x_prime {
            // paper def. 7: tuple elements are concatenated with the rest
            Value::Tuple(tp) => out.push(Value::Tuple(tp.concat(&rest)?)),
            // generalized μ: an atomic element replaces the attribute,
            // inserted at its sorted slot in one allocation
            atom => out.push(Value::Tuple(rest.insert(attr, atom.clone())?)),
        }
    }
    Ok(())
}

/// `ν_{A→a}` on a concrete set (paper def. 8): group on `B = SCH ∖ A`,
/// collecting `A`-projections.
pub fn nest_set(s: &Set, attrs: &[Name], as_attr: &Name) -> Result<Value, EvalError> {
    use oodb_value::fxhash::FxHashMap;
    let mut groups: FxHashMap<Tuple, Vec<Value>> = FxHashMap::default();
    let mut order: Vec<Tuple> = Vec::new();
    for x in s.iter() {
        let t = x.as_tuple()?;
        let collected = t.subscript(attrs)?;
        let mut key = t.clone();
        for a in attrs {
            key = key.without(a);
        }
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                order.push(key);
                Vec::new()
            })
            .push(Value::Tuple(collected));
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let vals = groups.remove(&key).expect("group exists");
        let with_set = key.insert(as_attr, Value::Set(Set::from_values(vals)))?;
        out.push(Value::Tuple(with_set));
    }
    Ok(Value::Set(Set::from_values(out)))
}

/// Relational division `e₁ ÷ e₂`.
///
/// Schemas are derived from the data (the evaluator is untyped), so a
/// **run-time empty divisor** is ambiguous: its attribute set cannot be
/// recovered from zero tuples, and the quotient degenerates to the full
/// dividend. This is the classical domain-dependence of division — one
/// more reason the paper prefers the antijoin for universal
/// quantification (see `oodb-core::rules::division` for the pinned
/// anomaly).
fn divide(sa: &Set, sb: &Set, stats: &mut Stats) -> Result<Value, EvalError> {
    // A = SCH(e1) − SCH(e2), computed from the first tuples.
    let Some(first_a) = sa.iter().next() else {
        return Ok(Value::Set(Set::empty()));
    };
    let a_tuple = first_a.as_tuple()?;
    let b_names: Vec<Name> = match sb.iter().next() {
        Some(fb) => fb.as_tuple()?.attr_names(),
        None => Vec::new(),
    };
    let quotient_names: Vec<Name> = a_tuple
        .attr_names()
        .into_iter()
        .filter(|n| !b_names.contains(n))
        .collect();
    if quotient_names.is_empty() {
        return Err(EvalError::BadDivision(
            "divisor schema covers the whole dividend".into(),
        ));
    }
    let mut out = Vec::new();
    for x in sa.iter() {
        let xq = x.as_tuple()?.subscript(&quotient_names)?;
        let mut all = true;
        for y in sb.iter() {
            stats.loop_iterations += 1;
            let combined = xq.concat(y.as_tuple()?)?;
            if !sa.contains(&Value::Tuple(combined)) {
                all = false;
                break;
            }
        }
        if all {
            out.push(Value::Tuple(xq));
        }
    }
    Ok(Value::Set(Set::from_values(out)))
}

/// Aggregate evaluation shared by the evaluator and physical operators.
pub fn aggregate(op: AggOp, s: &Set) -> Result<Value, EvalError> {
    match op {
        AggOp::Count => Ok(Value::Int(s.len() as i64)),
        AggOp::Sum => {
            let mut acc = Value::Int(0);
            let mut float = false;
            for v in s.iter() {
                if matches!(v, Value::Float(_)) {
                    float = true;
                }
                acc = Value::arith(oodb_value::ArithOp::Add, &acc, v)?;
            }
            if float && matches!(acc, Value::Int(_)) {
                let i = acc.as_int()?;
                return Ok(Value::float(i as f64));
            }
            Ok(acc)
        }
        AggOp::Min => s
            .iter()
            .next()
            .cloned()
            .ok_or(EvalError::Value(ValueError::EmptyAggregate("min"))),
        AggOp::Max => s
            .iter()
            .last()
            .cloned()
            .ok_or(EvalError::Value(ValueError::EmptyAggregate("max"))),
        AggOp::Avg => {
            if s.is_empty() {
                return Err(EvalError::Value(ValueError::EmptyAggregate("avg")));
            }
            let mut total = 0.0;
            for v in s.iter() {
                total += match v {
                    Value::Int(i) => *i as f64,
                    Value::Float(x) => x.get(),
                    other => {
                        return Err(EvalError::Value(ValueError::TypeMismatch {
                            op: "avg",
                            lhs: other.to_string(),
                            rhs: "number".into(),
                        }))
                    }
                };
            }
            Ok(Value::float(total / s.len() as f64))
        }
    }
}

/// Boolean shortcut used by operators.
trait BoolCheck {
    fn is_bool_true(&self) -> bool;
}

impl BoolCheck for Value {
    fn is_bool_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{figure3_db, supplier_part_db};
    use oodb_value::ArithOp;
    use std::sync::Arc;

    fn names_of(v: &Value) -> Vec<String> {
        v.as_set()
            .unwrap()
            .iter()
            .map(|x| match x {
                Value::Str(s) => s.to_string(),
                other => other.to_string(),
            })
            .collect()
    }

    #[test]
    fn table_scan_and_map() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let q = map("s", var("s").field("sname"), table("SUPPLIER"));
        let v = ev.eval_closed(&q).unwrap();
        assert_eq!(names_of(&v), vec!["s1", "s2", "s3", "s4", "s5"]);
    }

    #[test]
    fn selection_filters() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let q = map(
            "p",
            var("p").field("pname"),
            select(
                "p",
                eq(var("p").field("color"), str_lit("red")),
                table("PART"),
            ),
        );
        let v = ev.eval_closed(&q).unwrap();
        assert_eq!(names_of(&v), vec!["bolt", "gear", "screw"]);
    }

    #[test]
    fn exists_over_base_table() {
        // Example Query 5 nested form: suppliers supplying red parts
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let q = map(
            "s",
            var("s").field("sname"),
            select(
                "s",
                exists(
                    "x",
                    var("s").field("parts"),
                    exists(
                        "p",
                        table("PART"),
                        and(
                            eq(var("x"), var("p").field("pid")),
                            eq(var("p").field("color"), str_lit("red")),
                        ),
                    ),
                ),
                table("SUPPLIER"),
            ),
        );
        let v = ev.eval_closed(&q).unwrap();
        // s1 {bolt,nut,screw}: red ✓; s2 {nut,screw}: screw red ✓;
        // s3 ⊇ s1 ✓; s4 ∅ ✗; s5 {pin,@999} ✗
        assert_eq!(names_of(&v), vec!["s1", "s2", "s3"]);
    }

    #[test]
    fn semijoin_matches_nested_exists() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        // SUPPLIER ⋉_{s,p : p.pid ∈ s.parts ∧ p.color = red} PART
        let sj = map(
            "s2",
            var("s2").field("sname"),
            semijoin(
                "s",
                "p",
                and(
                    member(var("p").field("pid"), var("s").field("parts")),
                    eq(var("p").field("color"), str_lit("red")),
                ),
                table("SUPPLIER"),
                table("PART"),
            ),
        );
        let v = ev.eval_closed(&sj).unwrap();
        assert_eq!(names_of(&v), vec!["s1", "s2", "s3"]);
    }

    #[test]
    fn antijoin_finds_referential_violations() {
        // Example Query 4: suppliers with parts matching no PART object
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let q = map(
            "s2",
            var("s2").field("sname"),
            select(
                "s",
                exists(
                    "x",
                    var("s").field("parts"),
                    not(exists(
                        "p",
                        table("PART"),
                        eq(var("x"), var("p").field("pid")),
                    )),
                ),
                table("SUPPLIER"),
            ),
        );
        let v = ev.eval_closed(&q).unwrap();
        assert_eq!(names_of(&v), vec!["s5"]);
    }

    #[test]
    fn forall_with_empty_range_is_true() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        // s4 has no parts: ∀x ∈ s4.parts • false ≡ true
        let q = map(
            "s",
            var("s").field("sname"),
            select(
                "s",
                forall("x", var("s").field("parts"), Expr::false_()),
                table("SUPPLIER"),
            ),
        );
        let v = ev.eval_closed(&q).unwrap();
        assert_eq!(names_of(&v), vec!["s4"]);
        // ∃ over empty delivers false (paper §4)
        let q2 = select(
            "s",
            exists("x", var("s").field("parts"), Expr::true_()),
            table("SUPPLIER"),
        );
        let v2 = ev.eval_closed(&q2).unwrap();
        assert_eq!(v2.as_set().unwrap().len(), 4);
    }

    use oodb_adl::expr::Expr;

    #[test]
    fn nestjoin_matches_figure_3() {
        let db = figure3_db();
        let ev = Evaluator::new(&db);
        // X ⊣_{x,y : x.b = y.d; ys} Y, projected on (a, b, ys-projected-c)
        let q = nestjoin(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            "ys",
            table("X"),
            table("Y"),
        );
        let v = ev.eval_closed(&q).unwrap();
        let rows = v.as_set().unwrap();
        assert_eq!(rows.len(), 3);
        // x₃ = (a=3,b=3) has an EMPTY group — kept, not lost
        let x3 = rows
            .iter()
            .find(|r| r.as_tuple().unwrap().get("a") == Some(&Value::Int(3)))
            .unwrap();
        assert_eq!(x3.as_tuple().unwrap().get("ys"), Some(&Value::empty_set()));
        // x₁ and x₂ (b = 1) each collect both y-tuples with d = 1
        let x1 = rows
            .iter()
            .find(|r| r.as_tuple().unwrap().get("a") == Some(&Value::Int(1)))
            .unwrap();
        assert_eq!(
            x1.as_tuple()
                .unwrap()
                .get("ys")
                .unwrap()
                .as_set()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn unnest_drops_empty_sets_nest_does_not_restore() {
        // §4 option 1: nest∘unnest ≠ identity when empty sets exist
        let db = figure3_db(); // reuse any db; operate on literals
        let ev = Evaluator::new(&db);
        let x = Expr::Lit(Value::set([
            Value::tuple([
                ("a", Value::Int(1)),
                ("c", Value::set([Value::tuple([("e", Value::Int(7))])])),
            ]),
            Value::tuple([("a", Value::Int(2)), ("c", Value::empty_set())]),
        ]));
        let roundtrip = nest(&["e"], "c", unnest("c", x.clone()));
        let v = ev.eval_closed(&roundtrip).unwrap();
        // the (a=2, c=∅) tuple is gone
        assert_eq!(v.as_set().unwrap().len(), 1);
        let direct = ev.eval_closed(&x).unwrap();
        assert_eq!(direct.as_set().unwrap().len(), 2);
    }

    #[test]
    fn outerjoin_pads_with_null() {
        let db = figure3_db();
        let ev = Evaluator::new(&db);
        let q = outerjoin(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let v = ev.eval_closed(&q).unwrap();
        let rows = v.as_set().unwrap();
        // 2 matches for x1 + 2 for x2 + 1 padded row for x3
        assert_eq!(rows.len(), 5);
        let padded = rows
            .iter()
            .find(|r| r.as_tuple().unwrap().get("a") == Some(&Value::Int(3)))
            .unwrap();
        assert_eq!(padded.as_tuple().unwrap().get("c"), Some(&Value::Null));
        assert_eq!(padded.as_tuple().unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn deref_and_dangling() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let ok = map(
            "d",
            deref(var("d").field("supplier"), "Supplier").field("sname"),
            table("DELIVERY"),
        );
        let v = ev.eval_closed(&ok).unwrap();
        assert_eq!(names_of(&v), vec!["s1", "s2"]);
        // dereferencing s5's dangling part pointer fails loudly
        let bad = map(
            "s",
            map(
                "x",
                deref(var("x"), "Part").field("pname"),
                var("s").field("parts"),
            ),
            select(
                "s",
                eq(var("s").field("sname"), str_lit("s5")),
                table("SUPPLIER"),
            ),
        );
        assert!(matches!(
            ev.eval_closed(&bad),
            Err(EvalError::DanglingPointer { .. })
        ));
    }

    #[test]
    fn division_computes_universal() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        // deliveries-by-part ÷ parts-delivered-by-d1 : which deliveries
        // include all parts that d1 includes?  Build from supply pairs.
        let pairs = project(&["did", "part"], unnest("supply", table("DELIVERY")));
        let d1_parts = project(
            &["part"],
            unnest(
                "supply",
                select(
                    "d",
                    eq(
                        var("d").field("did"),
                        Expr::Lit(Value::Oid(oodb_value::Oid(21))),
                    ),
                    table("DELIVERY"),
                ),
            ),
        );
        let q = div(pairs, d1_parts);
        let v = ev.eval_closed(&q).unwrap();
        // only delivery 21 includes both p11 and p12
        assert_eq!(v.as_set().unwrap().len(), 1);
    }

    #[test]
    fn aggregates_work() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        assert_eq!(
            ev.eval_closed(&count(table("PART"))).unwrap(),
            Value::Int(7)
        );
        let prices = map("p", var("p").field("price"), table("PART"));
        assert_eq!(
            ev.eval_closed(&agg(oodb_adl::AggOp::Min, prices.clone()))
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            ev.eval_closed(&agg(oodb_adl::AggOp::Max, prices.clone()))
                .unwrap(),
            Value::Int(50)
        );
        // sum over distinct prices (sets dedupe!)
        assert_eq!(
            ev.eval_closed(&agg(oodb_adl::AggOp::Sum, prices)).unwrap(),
            Value::Int(105)
        );
        assert!(matches!(
            ev.eval_closed(&agg(oodb_adl::AggOp::Min, Expr::empty_set())),
            Err(EvalError::Value(ValueError::EmptyAggregate(_)))
        ));
    }

    #[test]
    fn stats_count_nested_loop_work() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let mut stats = Stats::new();
        let q = select(
            "s",
            exists(
                "p",
                table("PART"),
                eq(var("p").field("pid"), var("s").field("eid")),
            ),
            table("SUPPLIER"),
        );
        ev.eval_closed_with(&q, &mut stats).unwrap();
        // 5 suppliers × full PART scan (no matches): 35 inner iterations
        assert_eq!(stats.loop_iterations, 5 + 35);
        assert!(stats.rows_scanned >= 5 + 7);
    }

    #[test]
    fn let_binds_constants() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let q = let_("n", count(table("PART")), eq(var("n"), Expr::int(7)));
        assert_eq!(ev.eval_closed(&q).unwrap(), Value::TRUE);
    }

    #[test]
    fn comparisons_report_the_left_operands_error() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let mut env = Env::new();
        // `p` is no tuple, so every path over it fails
        env.push(&"p".into(), Value::Int(3));
        // failing operands that name a value, and ones that compute one
        let lefts = [var("u1"), arith(ArithOp::Add, var("u2"), int(1))];
        let rights = [
            var("p").field("price"),
            arith(ArithOp::Add, var("p").field("pid"), int(1)),
        ];
        for a in &lefts {
            let want = ev.eval(a, &mut env, &mut Stats::new()).unwrap_err();
            for b in &rights {
                for e in [lt(a.clone(), b.clone()), member(a.clone(), b.clone())] {
                    let got = ev.eval(&e, &mut env, &mut Stats::new()).unwrap_err();
                    assert_eq!(got, want, "{e}");
                }
            }
        }
        for b in &rights {
            let want = ev.eval(b, &mut env, &mut Stats::new()).unwrap_err();
            let got = ev.eval(&lt(int(1), b.clone()), &mut env, &mut Stats::new());
            assert_eq!(got.unwrap_err(), want);
        }
        // a failing left operand leaves the right one unevaluated
        let mut stats = Stats::new();
        let e = lt(var("u1"), count(table("PART")));
        assert!(ev.eval(&e, &mut env, &mut stats).is_err());
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn comparison_operands_are_borrowed_not_cloned() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let first = |extent: &str| db.table(extent).unwrap().as_set().iter().next().cloned();
        let (part, supplier) = (first("PART").unwrap(), first("SUPPLIER").unwrap());
        let mut env = Env::new();
        env.push(&"p".into(), part.clone());
        env.push(&"s".into(), supplier);
        let color = match part.as_tuple().unwrap().get("color") {
            Some(Value::Str(n)) => n.clone(),
            other => panic!("PART.color is a string, got {other:?}"),
        };
        let by_color = eq(var("p").field("color"), str_lit("red"));
        let Expr::Cmp(_, _, red_lit) = &by_color else {
            unreachable!("eq builds a comparison")
        };
        let Expr::Lit(Value::Str(red)) = &**red_lit else {
            unreachable!("str_lit builds a string literal")
        };
        let counts = || (Arc::strong_count(&color), Arc::strong_count(red));
        let before = counts();
        // The operands resolve to references into the environment's row
        // and the plan's literal: nothing is cloned while they are held.
        let (price_path, color_path) = (var("p").field("price"), var("p").field("color"));
        let price = resolve(&price_path, &env).unwrap();
        assert!(std::ptr::eq(
            price,
            part.as_tuple().unwrap().get("price").unwrap()
        ));
        let held = (
            resolve(&color_path, &env).unwrap(),
            resolve(red_lit, &env).unwrap(),
        );
        assert!(matches!(held.0, Value::Str(n) if Arc::ptr_eq(n, &color)));
        assert!(matches!(held.1, Value::Str(n) if Arc::ptr_eq(n, red)));
        assert_eq!(counts(), before);
        // … and evaluating a comparison leaves every count where it was
        let by_price = lt(var("p").field("price"), int(510));
        let by_part = member(var("p").field("pid"), var("s").field("parts"));
        for e in [&by_price, &by_part, &by_color] {
            ev.eval(e, &mut env, &mut Stats::new()).unwrap();
            assert_eq!(counts(), before, "{e}");
        }
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        assert!(matches!(
            ev.eval_closed(&var("nope")),
            Err(EvalError::UnboundVar(_))
        ));
        assert!(matches!(
            ev.eval_closed(&table("NOPE")),
            Err(EvalError::UnknownTable(_))
        ));
    }
}
