//! Selection pushdown into join operands.
//!
//! > `X ⊣_{x,y : φ(x,y) ∧ ψ(y)} Y ≡ X ⊣_{x,y : φ(x,y)} σ[y : ψ(y)](Y)`
//!
//! The same law holds for `⋈`, `⋉`, `▷` and `⟕`: a conjunct that reads
//! only the right tuple decides whether that tuple can match *any* left
//! tuple, so it can filter the right operand once instead of being
//! re-checked for every candidate pair. This is the first step of
//! structure-guided evaluation: reduce each relation by what the query
//! already implies before joining it.
//!
//! The pushed conjunct is evaluated for every right tuple, where the
//! nested form evaluates it only for pairs that reach it. So the rule
//! moves only conjuncts that cannot raise an error on a stored extent:
//! literals, variables, attribute paths, comparisons, set comparisons and
//! the boolean connectives. Stored attributes never hold `NULL`
//! (`conforms` rejects it), so such a comparison cannot fail; operands
//! that could hold `NULL` (outer-join padding) or anything but a stored
//! extent are left alone.

use super::{RewriteCtx, Rule};
use oodb_adl::expr::{conjoin, conjuncts, Expr};
use oodb_adl::vars::{free_vars, subst};
use oodb_value::{Name, Value};

/// Moves right-only conjuncts of a join or nestjoin predicate into a
/// selection over the right operand.
pub struct JoinOperandSelect;

impl Rule for JoinOperandSelect {
    fn name(&self) -> &'static str {
        "join-operand-select"
    }

    fn apply(&self, e: &Expr, _: &RewriteCtx<'_>) -> Option<Expr> {
        match e {
            Expr::Join {
                kind,
                lvar,
                rvar,
                pred,
                left,
                right,
            } => {
                let (pred, right) = push(lvar, rvar, pred, right)?;
                Some(Expr::Join {
                    kind: *kind,
                    lvar: lvar.clone(),
                    rvar: rvar.clone(),
                    pred: Box::new(pred),
                    left: left.clone(),
                    right: Box::new(right),
                })
            }
            Expr::NestJoin {
                lvar,
                rvar,
                pred,
                rfunc,
                as_attr,
                left,
                right,
            } => {
                let (pred, right) = push(lvar, rvar, pred, right)?;
                Some(Expr::NestJoin {
                    lvar: lvar.clone(),
                    rvar: rvar.clone(),
                    pred: Box::new(pred),
                    rfunc: rfunc.clone(),
                    as_attr: as_attr.clone(),
                    left: left.clone(),
                    right: Box::new(right),
                })
            }
            _ => None,
        }
    }
}

/// Splits `pred` into the conjuncts that stay and those pushed into
/// `right`; returns the new predicate and operand, or `None` when there is
/// nothing to push or the operand is not a (selected) stored extent.
fn push(lvar: &Name, rvar: &Name, pred: &Expr, right: &Expr) -> Option<(Expr, Expr)> {
    if lvar == rvar {
        return None;
    }
    let (extent, existing) = match right {
        Expr::Table(t) => (t, None),
        Expr::Select { var, pred, input } => match input.as_ref() {
            Expr::Table(t) => (t, Some((var, pred.as_ref()))),
            _ => return None,
        },
        _ => return None,
    };
    let (pushed, kept): (Vec<&Expr>, Vec<&Expr>) = conjuncts(pred)
        .into_iter()
        .partition(|c| safe_on_extent(c) && only_var(c, rvar));
    // a predicate left with no two-sided conjunct is a product, not a join
    let two_sided = |c: &&Expr| {
        let fv = free_vars(c);
        fv.contains(lvar) && fv.contains(rvar)
    };
    if pushed.is_empty() || !kept.iter().any(two_sided) {
        return None;
    }
    let (var, mut filter) = match existing {
        Some((var, p)) => (var.clone(), vec![p.clone()]),
        None => (rvar.clone(), Vec::new()),
    };
    let target = Expr::Var(var.clone());
    filter.extend(pushed.into_iter().map(|c| subst(c, rvar, &target)));
    let right = Expr::Select {
        var,
        pred: Box::new(conjoin(filter)),
        input: Box::new(Expr::Table(extent.clone())),
    };
    Some((conjoin(kept.into_iter().cloned().collect()), right))
}

/// True when `v` is the only free variable of `e`.
fn only_var(e: &Expr, v: &Name) -> bool {
    let fv = free_vars(e);
    fv.len() == 1 && fv.contains(v)
}

/// True for the expressions the rule may evaluate eagerly: literals
/// (other than `NULL`), variables, attribute paths, comparisons, set
/// comparisons, `¬`, `∧` and `∨`. No dereference, arithmetic, aggregate
/// or subquery.
fn safe_on_extent(e: &Expr) -> bool {
    match e {
        Expr::Cmp(_, a, b) | Expr::SetCmp(_, a, b) => operand(a) && operand(b),
        Expr::Not(p) => safe_on_extent(p),
        Expr::And(a, b) | Expr::Or(a, b) => safe_on_extent(a) && safe_on_extent(b),
        other => operand(other),
    }
}

/// A literal other than `NULL`, or an attribute path.
fn operand(e: &Expr) -> bool {
    match e {
        Expr::Lit(v) => !matches!(v, Value::Null),
        other => is_path(other),
    }
}

/// `v` or `v.a₁.….aₙ`.
fn is_path(e: &Expr) -> bool {
    match e {
        Expr::Var(_) => true,
        Expr::Field(base, _) => is_path(base),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::supplier_part_catalog;

    fn apply(e: &Expr) -> Option<Expr> {
        let cat = supplier_part_catalog();
        JoinOperandSelect.apply(e, &RewriteCtx { catalog: &cat })
    }

    fn member_pid() -> Expr {
        member(var("p").field("pid"), var("s").field("parts"))
    }

    fn red() -> Expr {
        eq(var("p").field("color"), str_lit("red"))
    }

    #[test]
    fn declines_without_a_two_sided_conjunct() {
        let e = semijoin("s", "p", red(), table("SUPPLIER"), table("PART"));
        assert!(apply(&e).is_none());
        // a left-only conjunct does not make a join
        let s1 = eq(var("s").field("sname"), str_lit("s1"));
        let e = semijoin("s", "p", and(s1, red()), table("SUPPLIER"), table("PART"));
        assert!(apply(&e).is_none());
    }

    #[test]
    fn guard_rejects_null_literals() {
        let null_cmp = eq(var("p").field("color"), Expr::Lit(Value::Null));
        let e = semijoin(
            "s",
            "p",
            and(member_pid(), null_cmp),
            table("SUPPLIER"),
            table("PART"),
        );
        assert!(apply(&e).is_none());
    }
}
