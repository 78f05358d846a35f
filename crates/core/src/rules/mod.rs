//! The rewrite rule catalogue and the fixpoint driver.

pub mod attr_unnest;
pub mod division;
pub mod grouping;
pub mod hoist;
pub mod nestjoin;
pub mod normalize;
pub mod pushdown;
pub mod range;
pub mod rule1;
pub mod rule2;
pub mod setcmp;

use crate::trace::RewriteTrace;
use oodb_adl::expr::{Expr, QuantKind};
use oodb_adl::vars::free_vars;
use oodb_catalog::Catalog;
use oodb_value::{CmpOp, Name, SetCmpOp, Value};

/// Shared context handed to every rule.
pub struct RewriteCtx<'a> {
    /// The schema — rules need it to compute `SCH(X)` for projections and
    /// nestjoin group attributes.
    pub catalog: &'a Catalog,
}

/// A local rewrite rule. `apply` returns `Some(replacement)` when the rule
/// matches at this node, `None` otherwise.
pub trait Rule {
    /// Stable identifier used in traces and tests.
    fn name(&self) -> &'static str;
    /// Attempts the rewrite at `e`.
    fn apply(&self, e: &Expr, ctx: &RewriteCtx<'_>) -> Option<Expr>;
}

/// Applies `rules` everywhere in `e`, repeatedly, until no rule fires.
///
/// Each pass walks top-down: at every node the first matching rule is
/// applied (repeatedly, bounded), then children are visited. Passes repeat
/// until a fixpoint; `None` is returned if `max_passes` is exhausted
/// (which indicates a non-terminating rule pair — a bug).
pub fn rewrite_fixpoint(
    e: Expr,
    rules: &[&dyn Rule],
    ctx: &RewriteCtx<'_>,
    trace: &mut RewriteTrace,
    max_passes: usize,
) -> Option<Expr> {
    let mut cur = e;
    for _ in 0..max_passes {
        let mut changed = false;
        cur = rewrite_pass(cur, rules, ctx, trace, &mut changed);
        if !changed {
            return Some(cur);
        }
    }
    None
}

fn rewrite_pass(
    e: Expr,
    rules: &[&dyn Rule],
    ctx: &RewriteCtx<'_>,
    trace: &mut RewriteTrace,
    changed: &mut bool,
) -> Expr {
    let mut cur = e;
    // Apply rules at this node until none fires (bounded by node growth,
    // which the pass budget of the caller ultimately limits).
    let mut local_budget = 64usize;
    'retry: while local_budget > 0 {
        for r in rules {
            if let Some(next) = r.apply(&cur, ctx) {
                trace.record(r.name(), &cur, &next);
                cur = next;
                *changed = true;
                local_budget -= 1;
                continue 'retry;
            }
        }
        break;
    }
    cur.map_children(&mut |c| rewrite_pass(c, rules, ctx, trace, changed))
}

/// Replaces every occurrence of `target` (by structural equality) inside
/// `e` with `replacement`.
pub fn replace_subexpr(e: &Expr, target: &Expr, replacement: &Expr) -> Expr {
    if e == target {
        return replacement.clone();
    }
    e.clone()
        .map_children(&mut |c| replace_subexpr(&c, target, replacement))
}

/// Counts occurrences of `target` inside `e` (structural equality).
pub fn count_subexpr(e: &Expr, target: &Expr) -> usize {
    if e == target {
        return 1;
    }
    let mut n = 0;
    e.for_each_child(&mut |c| n += count_subexpr(c, target));
    n
}

/// Negation-normal-form negation that never *introduces* a universal
/// quantifier: `¬∀` becomes `∃¬`, while `¬∃` is kept as an explicit
/// negation (the shape Rule 1.2 consumes). This is the §5.2.1 "pushing
/// through negation".
pub fn nnf_negate(e: &Expr) -> Expr {
    match e {
        Expr::Not(p) => (**p).clone(),
        Expr::Lit(Value::Bool(b)) => Expr::Lit(Value::Bool(!b)),
        Expr::And(a, b) => Expr::Or(Box::new(nnf_negate(a)), Box::new(nnf_negate(b))),
        Expr::Or(a, b) => Expr::And(Box::new(nnf_negate(a)), Box::new(nnf_negate(b))),
        Expr::Cmp(op, a, b) => Expr::Cmp(op.negate(), a.clone(), b.clone()),
        Expr::Quant {
            q: QuantKind::Forall,
            var,
            range,
            pred,
        } => Expr::Quant {
            q: QuantKind::Exists,
            var: var.clone(),
            range: range.clone(),
            pred: Box::new(nnf_negate(pred)),
        },
        Expr::SetCmp(op, a, b) => match op.direct_negation() {
            Some(neg) => Expr::SetCmp(neg, a.clone(), b.clone()),
            None => Expr::Not(Box::new(e.clone())),
        },
        other => Expr::Not(Box::new(other.clone())),
    }
}

/// A decomposed subquery `Y' = α[y : G](σ[y : Q](Y))` — the general
/// two-block format of §5.1 (either the `α` or the `σ` may be absent).
#[derive(Debug, Clone)]
pub struct Subquery {
    /// The iteration variable `y` (normalized: `G` and `Q` both use it).
    pub var: Name,
    /// The inner predicate `Q(x, y)`; `true` when no selection is present.
    pub pred: Expr,
    /// The function `G(x, y)` applied by the map; `None` means identity.
    pub gfunc: Option<Expr>,
    /// The operand `Y` (what remains under the σ/α chain).
    pub base: Expr,
}

/// Decomposes `e` as a subquery block if it has the shape
/// `α[v : G](σ[u : Q](B))`, `α[v : G](B)` or `σ[u : Q](B)`.
pub fn split_subquery(e: &Expr) -> Option<Subquery> {
    match e {
        Expr::Map { var, body, input } => match input.as_ref() {
            Expr::Select {
                var: svar,
                pred,
                input: base,
            } => {
                // normalize the σ variable to the α variable
                let pred = if svar == var {
                    (**pred).clone()
                } else {
                    oodb_adl::subst(pred, svar, &Expr::Var(var.clone()))
                };
                Some(Subquery {
                    var: var.clone(),
                    pred,
                    gfunc: Some((**body).clone()),
                    base: (**base).clone(),
                })
            }
            _ => Some(Subquery {
                var: var.clone(),
                pred: Expr::true_(),
                gfunc: Some((**body).clone()),
                base: (**input).clone(),
            }),
        },
        Expr::Select { var, pred, input } => Some(Subquery {
            var: var.clone(),
            pred: (**pred).clone(),
            gfunc: None,
            base: (**input).clone(),
        }),
        _ => None,
    }
}

/// Is `e` a *base table expression* in the paper's sense: closed (no free
/// variables) and reading at least one class extension?
pub fn is_base_table_expr(e: &Expr) -> bool {
    e.mentions_table() && free_vars(e).is_empty()
}

/// True if `Var(v)` occurs in `e` other than as the base of a `Field` or
/// `TupleProject` — i.e. the variable is used "as a whole tuple".
pub fn uses_whole_var(e: &Expr, v: &str) -> bool {
    match e {
        Expr::Var(n) => n.as_ref() == v,
        Expr::Field(base, _) | Expr::TupleProject(base, _) => {
            if matches!(base.as_ref(), Expr::Var(n) if n.as_ref() == v) {
                false
            } else {
                uses_whole_var(base, v)
            }
        }
        // shadowing binders stop the search
        Expr::Map { var, body, input }
        | Expr::Select {
            var,
            pred: body,
            input,
        } => uses_whole_var(input, v) || (var.as_ref() != v && uses_whole_var(body, v)),
        Expr::Quant {
            var, range, pred, ..
        } => uses_whole_var(range, v) || (var.as_ref() != v && uses_whole_var(pred, v)),
        Expr::Let { var, value, body } => {
            uses_whole_var(value, v) || (var.as_ref() != v && uses_whole_var(body, v))
        }
        Expr::Join {
            lvar,
            rvar,
            pred,
            left,
            right,
            ..
        } => {
            uses_whole_var(left, v)
                || uses_whole_var(right, v)
                || (lvar.as_ref() != v && rvar.as_ref() != v && uses_whole_var(pred, v))
        }
        Expr::NestJoin {
            lvar,
            rvar,
            pred,
            rfunc,
            left,
            right,
            ..
        } => {
            uses_whole_var(left, v)
                || uses_whole_var(right, v)
                || (lvar.as_ref() != v
                    && rvar.as_ref() != v
                    && (uses_whole_var(pred, v)
                        || rfunc.as_ref().is_some_and(|g| uses_whole_var(g, v))))
        }
        other => {
            let mut found = false;
            other.for_each_child(&mut |c| {
                if !found && uses_whole_var(c, v) {
                    found = true;
                }
            });
            found
        }
    }
}

/// Convenience constructors shared by rules.
pub(crate) fn eq_expr(a: Expr, b: Expr) -> Expr {
    Expr::Cmp(CmpOp::Eq, Box::new(a), Box::new(b))
}

pub(crate) fn member_expr(elem: Expr, set: Expr) -> Expr {
    Expr::SetCmp(SetCmpOp::In, Box::new(elem), Box::new(set))
}

pub(crate) fn not_member_expr(elem: Expr, set: Expr) -> Expr {
    Expr::SetCmp(SetCmpOp::NotIn, Box::new(elem), Box::new(set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;

    #[test]
    fn replace_subexpr_hits_all_occurrences() {
        let s = select("y", var("q"), table("Y"));
        let p = and(member(var("a"), s.clone()), eq(count(s.clone()), int(0)));
        let replaced = replace_subexpr(&p, &s, &var("Y1"));
        assert_eq!(count_subexpr(&replaced, &s), 0);
        assert_eq!(count_subexpr(&replaced, &var("Y1")), 2);
    }

    #[test]
    fn nnf_negate_keeps_not_exists() {
        let e = exists("y", table("Y"), var("p"));
        assert_eq!(nnf_negate(&e), not(exists("y", table("Y"), var("p"))));
        // ¬∀ becomes ∃¬ (no universal quantifier survives)
        let f = forall("y", table("Y"), eq(var("y"), int(1)));
        assert_eq!(
            nnf_negate(&f),
            exists("y", table("Y"), ne(var("y"), int(1)))
        );
        // double negation
        assert_eq!(nnf_negate(&not(var("p"))), var("p"));
    }

    #[test]
    fn split_subquery_decomposes_both_shapes() {
        let s = select("y", var("q"), table("Y"));
        let sq = split_subquery(&s).unwrap();
        assert!(sq.gfunc.is_none());
        assert_eq!(sq.base, table("Y"));

        let m = map("u", var("u").field("e"), select("y", var("q"), table("Y")));
        let sq = split_subquery(&m).unwrap();
        assert_eq!(sq.var.as_ref(), "u");
        assert!(sq.gfunc.is_some());
        // σ var renamed to α var
        assert_eq!(sq.pred, var("q"));

        assert!(split_subquery(&table("Y")).is_none());
    }

    #[test]
    fn split_subquery_renames_sigma_var() {
        let m = map(
            "u",
            var("u").field("e"),
            select("y", eq(var("y").field("a"), int(1)), table("Y")),
        );
        let sq = split_subquery(&m).unwrap();
        assert_eq!(sq.pred, eq(var("u").field("a"), int(1)));
    }

    #[test]
    fn base_table_expr_requires_closed_and_table() {
        assert!(is_base_table_expr(&table("Y")));
        assert!(is_base_table_expr(&select(
            "y",
            var("y").field("a"),
            table("Y")
        )));
        // correlated: x free
        assert!(!is_base_table_expr(&select(
            "y",
            eq(var("y").field("a"), var("x").field("a")),
            table("Y")
        )));
        // no table
        assert!(!is_base_table_expr(&var("x").field("c")));
    }

    #[test]
    fn whole_var_detection() {
        assert!(uses_whole_var(&var("x"), "x"));
        assert!(!uses_whole_var(&var("x").field("a"), "x"));
        assert!(!uses_whole_var(&tuple_project(var("x"), &["a"]), "x"));
        assert!(uses_whole_var(&eq(var("x"), var("y")), "x"));
        // shadowed occurrences don't count
        let shadowed = exists("x", var("z").field("c"), eq(var("x"), int(1)));
        assert!(!uses_whole_var(&shadowed, "x"));
        // but the range is visible
        let in_range = exists("u", var("x").field("c"), eq(var("x"), int(1)));
        assert!(uses_whole_var(&in_range, "x"));
    }

    #[test]
    fn fixpoint_driver_applies_until_stable() {
        struct Shrink;
        impl Rule for Shrink {
            fn name(&self) -> &'static str {
                "shrink"
            }
            fn apply(&self, e: &Expr, _: &RewriteCtx<'_>) -> Option<Expr> {
                match e {
                    Expr::Not(inner) => match inner.as_ref() {
                        Expr::Not(p) => Some((**p).clone()),
                        _ => None,
                    },
                    _ => None,
                }
            }
        }
        let cat = oodb_catalog::Catalog::new();
        let ctx = RewriteCtx { catalog: &cat };
        let mut trace = RewriteTrace::new();
        let e = not(not(not(not(var("p")))));
        let out = rewrite_fixpoint(e, &[&Shrink], &ctx, &mut trace, 10).unwrap();
        assert_eq!(out, var("p"));
        assert_eq!(trace.len(), 2);
    }
}
