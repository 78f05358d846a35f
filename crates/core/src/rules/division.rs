//! Division-based universal quantification — the classical relational
//! alternative to the antijoin.
//!
//! "Existential quantification is mapped to a projection on a join (or
//! product); universal quantification is handled by means of the division
//! operator \[Codd72\]" (§5.2.1, describing \[CeGo85\]). The paper prefers
//! the antijoin ("it can be employed to efficiently process tree queries
//! involving universal quantification"); this module implements the
//! division route as an **ablation** so the two can be compared.
//!
//! The rewrite targets the shape
//!
//! ```text
//! σ[x : ∀y ∈ Y • key(y) ∈ x.c](X)      (X a class extension)
//! ⇒  X ⋉_{x,q : x.id = q.id} (π_{id,c}(μ_c(X)) ÷ α[y : ⟨c = key(y)⟩](Y))
//! ```
//!
//! **Caveat (tested, documented):** like every unnesting built on `μ`,
//! the division loses left tuples with `c = ∅` — and when the divisor is
//! *empty*, `∀` over `∅` is true for every `x`, so those tuples belong in
//! the answer. The rewrite is therefore only semantics-preserving when
//! the divisor is non-empty at run time; it is exposed for study, not
//! wired into the default strategy (where `forall-to-not-exists` +
//! Rule 1.2 yield the always-correct antijoin).

use super::{RewriteCtx, Rule};
use oodb_adl::expr::{Expr, JoinKind, QuantKind};
use oodb_adl::vars::{free_vars, is_free_in};
use oodb_value::{Name, SetCmpOp};

/// The division ablation rewrite.
pub struct ForallToDivision;

impl Rule for ForallToDivision {
    fn name(&self) -> &'static str {
        "forall-to-division"
    }

    fn apply(&self, e: &Expr, ctx: &RewriteCtx<'_>) -> Option<Expr> {
        let Expr::Select {
            var: x,
            pred,
            input,
        } = e
        else {
            return None;
        };
        // input must be a plain class extension so we have an identity key
        let Expr::Table(extent) = input.as_ref() else {
            return None;
        };
        let class = ctx.catalog.class_by_extent(extent)?;
        let id = class.identity.clone();

        // pred: ∀y ∈ Y • key(y) ∈ x.c  with Y a base table expression
        let Expr::Quant {
            q: QuantKind::Forall,
            var: y,
            range,
            pred: inner,
        } = pred.as_ref()
        else {
            return None;
        };
        if !super::is_base_table_expr(range) || is_free_in(x, range) {
            return None;
        }
        let Expr::SetCmp(SetCmpOp::In, key, set) = inner.as_ref() else {
            return None;
        };
        // the membership set must be x.c for a set-valued attribute c
        let Expr::Field(base, attr) = set.as_ref() else {
            return None;
        };
        if !matches!(base.as_ref(), Expr::Var(v) if v == x) {
            return None;
        }
        // key over y only
        if free_vars(key).iter().any(|n| n != y) || key.mentions_table() {
            return None;
        }
        // c must be a set of atoms for π_{id,c}(μ_c(X)) to be flat
        let attr_ty = class.attrs.field(attr)?;
        if !attr_ty.elem().map(|t| t.is_atomic()).unwrap_or(false) {
            return None;
        }

        // dividend: π_{id, c}(μ_c(X))
        let dividend = Expr::Project {
            attrs: vec![id.clone(), attr.clone()],
            input: Box::new(Expr::Unnest {
                attr: attr.clone(),
                input: input.clone(),
            }),
        };
        // divisor: α[y : ⟨c = key(y)⟩](Y)
        let divisor = Expr::Map {
            var: y.clone(),
            body: Box::new(Expr::TupleCons(vec![(attr.clone(), (**key).clone())])),
            input: range.clone(),
        };
        let quotient = Expr::Div(Box::new(dividend), Box::new(divisor));
        // join back to the full objects
        let qvar = Name::from("q");
        Some(Expr::Join {
            kind: JoinKind::Semi,
            lvar: x.clone(),
            rvar: qvar.clone(),
            pred: Box::new(Expr::Cmp(
                oodb_value::CmpOp::Eq,
                Box::new(Expr::Field(Box::new(Expr::Var(x.clone())), id.clone())),
                Box::new(Expr::Field(Box::new(Expr::Var(qvar)), id)),
            )),
            left: input.clone(),
            right: Box::new(quotient),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{supplier_part_catalog, supplier_part_db};
    use oodb_engine::Evaluator;

    /// σ[s : ∀p ∈ σ[p : color = red](PART) • p.pid ∈ s.parts](SUPPLIER)
    fn forall_query(color: &str) -> Expr {
        select(
            "s",
            forall(
                "p",
                select(
                    "p",
                    eq(var("p").field("color"), str_lit(color)),
                    table("PART"),
                ),
                member(var("p").field("pid"), var("s").field("parts")),
            ),
            table("SUPPLIER"),
        )
    }

    #[test]
    fn division_rewrite_fires_and_agrees_when_divisor_nonempty() {
        let cat = supplier_part_catalog();
        let ctx = RewriteCtx { catalog: &cat };
        // "green" parts: just the washer (pid 14) — s3 supplies it
        let q = forall_query("green");
        let rewritten = ForallToDivision.apply(&q, &ctx).expect("fires");
        assert!(matches!(
            rewritten,
            Expr::Join {
                kind: JoinKind::Semi,
                ..
            }
        ));
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let direct = ev.eval_closed(&q).unwrap();
        let via_div = ev.eval_closed(&rewritten).unwrap();
        assert_eq!(direct, via_div);
        assert_eq!(direct.as_set().unwrap().len(), 1); // s3
    }

    #[test]
    fn division_anomaly_on_empty_divisor() {
        // no "purple" parts: ∀ over ∅ is true for EVERY supplier,
        // including s4 whose `parts` set is empty. The division route
        // builds its dividend with μ_parts, which drops s4 — the same
        // dangling-tuple pathology as the grouping bug, in relational
        // clothing. The paper's antijoin (default strategy) is correct.
        let cat = supplier_part_catalog();
        let ctx = RewriteCtx { catalog: &cat };
        let q = forall_query("purple");
        let rewritten = ForallToDivision.apply(&q, &ctx).expect("fires");
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let direct = ev.eval_closed(&q).unwrap();
        assert_eq!(direct.as_set().unwrap().len(), 5, "∀ over ∅ is true");
        let via_div = ev.eval_closed(&rewritten).unwrap();
        assert_eq!(
            via_div.as_set().unwrap().len(),
            4,
            "division loses the empty-parts supplier"
        );
        let lost_s4 = !via_div
            .as_set()
            .unwrap()
            .iter()
            .any(|r| r.as_tuple().unwrap().get("sname") == Some(&oodb_value::Value::str("s4")));
        assert!(lost_s4);
        // the default strategy's antijoin is correct on the same query
        let opt = crate::Optimizer.optimize(&q, &cat).unwrap();
        assert!(opt.trace.fired("rule1-not-exists"));
        assert_eq!(ev.eval_closed(&opt.expr).unwrap(), direct);
    }

    #[test]
    fn guards_reject_non_matching_shapes() {
        let cat = supplier_part_catalog();
        let ctx = RewriteCtx { catalog: &cat };
        // existential quantifier: no
        let q1 = select(
            "s",
            exists(
                "p",
                table("PART"),
                member(var("p").field("pid"), var("s").field("parts")),
            ),
            table("SUPPLIER"),
        );
        assert!(ForallToDivision.apply(&q1, &ctx).is_none());
        // set-valued range: no
        let q2 = select(
            "s",
            forall(
                "z",
                var("s").field("parts"),
                member(var("z"), var("s").field("parts")),
            ),
            table("SUPPLIER"),
        );
        assert!(ForallToDivision.apply(&q2, &ctx).is_none());
        // membership into something that is not x.c: no
        let q3 = select(
            "s",
            forall(
                "p",
                table("PART"),
                member(var("p").field("pid"), var("other")),
            ),
            table("SUPPLIER"),
        );
        assert!(ForallToDivision.apply(&q3, &ctx).is_none());
        // non-extension input: no
        let q4 = select(
            "s",
            forall(
                "p",
                table("PART"),
                member(var("p").field("pid"), var("s").field("parts")),
            ),
            project(&["eid", "parts"], table("SUPPLIER")),
        );
        assert!(ForallToDivision.apply(&q4, &ctx).is_none());
    }
}
