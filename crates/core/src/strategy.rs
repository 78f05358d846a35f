//! The four-step optimization strategy of §4.
//!
//! > "Given these options for optimization of nested ADL queries, the
//! > rewrite strategy is as follows:
//! >
//! > 1. Try to rewrite to the various relational join operators (join,
//! >    antijoin, or semijoin).
//! > 2. If the above is not possible, try to flatten set-valued
//! >    attributes; if the nesting phase can be skipped, this may be a
//! >    strategy worthwhile considering.
//! > 3. If the above is not possible, try to rewrite to one of the newly
//! >    defined operators, because they were introduced to get a better
//! >    performance compared to nested-loop processing.
//! > 4. If none of the above works, leave the query as it is, which means
//! >    that it is executed by means of nested loops."
//!
//! [`Optimizer::optimize`] runs it as fixpoint phases:
//!
//! 0. normalization (constants hoisted, booleans simplified, `∀ → ¬∃`,
//!    Table 2 predicate rewrites);
//! 1. relational join operators (range extraction, quantifier exchange,
//!    Rules 1 and 2);
//! 2. attribute unnesting, then phase 1 again;
//! 3. the nestjoin, then phase 1 again;
//! 4. selection pushdown (`join-operand-select`): conjuncts of a join or
//!    nestjoin predicate that read only the right tuple become a
//!    selection over the right operand. It comes last because range
//!    extraction moves selections the other way;
//! 5. whatever is left runs as nested loops.

use crate::rules::setcmp::SetCmpToQuant;
use crate::rules::{
    attr_unnest::AttrUnnest,
    hoist::{HoistUncorrelated, LetUp},
    nestjoin::{NestJoinMap, NestJoinSelect},
    normalize::{
        ForallToNotExists, IdentityMap, MergeSelects, PredToQuant, PushNegation, SimplifyBool,
    },
    pushdown::JoinOperandSelect,
    range::{ExistsExchange, QuantSplitIndependent, QuantToMember, RangeExtract},
    rewrite_fixpoint,
    rule1::{UnnestExists, UnnestNotExists},
    rule2::MapJoin,
    RewriteCtx, Rule,
};
use crate::trace::RewriteTrace;
use crate::RewriteError;
use oodb_adl::expr::Expr;
use oodb_catalog::Catalog;

/// The result of optimization: the rewritten expression plus the full
/// rule-firing trace.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The (hopefully) unnested expression.
    pub expr: Expr,
    /// Every rule application, in order.
    pub trace: RewriteTrace,
}

/// Fixpoint passes each phase may take before the rewrite fails with
/// [`RewriteError::PassLimit`].
const MAX_PASSES: usize = 32;

/// Strategy driver: runs every phase, then re-infers the rewritten
/// expression's type and checks it against the input's.
#[derive(Debug, Clone, Copy, Default)]
pub struct Optimizer;

impl Optimizer {
    /// Runs the full §4 strategy on a closed ADL expression.
    pub fn optimize(&self, e: &Expr, catalog: &Catalog) -> Result<Optimized, RewriteError> {
        let ctx = RewriteCtx { catalog };
        let mut trace = RewriteTrace::new();
        let original_ty = oodb_adl::infer_closed(e, catalog).map_err(RewriteError::Type)?;

        let mut cur = e.clone();

        // Phase 0 — normalization: constants out, booleans simplified,
        // ∀ → ¬∃ canonical form, Table 2 predicate rewrites.
        let normalize: Vec<&dyn Rule> = vec![
            &SimplifyBool,
            &IdentityMap,
            &MergeSelects,
            &HoistUncorrelated,
            &LetUp,
            &PredToQuant,
            &ForallToNotExists,
            &PushNegation,
        ];
        cur = self.run_phase(cur, &normalize, &ctx, &mut trace)?;

        // Phase 1 — relational join operators (priority 1): profitable
        // Table 1 expansions, range extraction, quantifier exchange,
        // Rules 1 and 2.
        let relational: Vec<&dyn Rule> = vec![
            &SimplifyBool,
            &PushNegation,
            &SetCmpToQuant,
            &ForallToNotExists,
            &RangeExtract,
            &ExistsExchange,
            &UnnestExists,
            &UnnestNotExists,
            &MapJoin,
            &QuantSplitIndependent,
            &QuantToMember,
        ];
        cur = self.run_phase(cur, &relational, &ctx, &mut trace)?;

        // Phase 2 — unnesting of set-valued attributes (priority 2),
        // which can re-enable Rule 1; rerun the relational phase after.
        let before = cur.clone();
        cur = self.run_phase(cur, &[&AttrUnnest], &ctx, &mut trace)?;
        if cur != before {
            cur = self.run_phase(cur, &relational, &ctx, &mut trace)?;
        }

        // Phase 3 — new operators (priority 3): the nestjoin.
        let before = cur.clone();
        cur = self.run_phase(cur, &[&NestJoinSelect, &NestJoinMap], &ctx, &mut trace)?;
        if cur != before {
            // nestjoin may expose further relational opportunities in what
            // remains of the predicates
            cur = self.run_phase(cur, &relational, &ctx, &mut trace)?;
        }

        // Phase 4 — selection pushdown: right-only conjuncts of join and
        // nestjoin predicates filter the right operand. It runs last, so it
        // never competes with range extraction, which moves selections into
        // predicates.
        cur = self.run_phase(cur, &[&JoinOperandSelect], &ctx, &mut trace)?;

        // Phase 5 — whatever is left runs as nested loops.

        let rewritten_ty = oodb_adl::infer_closed(&cur, catalog).map_err(RewriteError::Type)?;
        if original_ty.unify(&rewritten_ty).is_none() {
            return Err(RewriteError::TypeChanged {
                before: original_ty.to_string(),
                after: rewritten_ty.to_string(),
            });
        }
        Ok(Optimized { expr: cur, trace })
    }

    fn run_phase(
        &self,
        e: Expr,
        rules: &[&dyn Rule],
        ctx: &RewriteCtx<'_>,
        trace: &mut RewriteTrace,
    ) -> Result<Expr, RewriteError> {
        rewrite_fixpoint(e, rules, ctx, trace, MAX_PASSES)
            .ok_or(RewriteError::PassLimit(MAX_PASSES))
    }
}

/// Counts base-table references nested inside iterator parameter
/// expressions — the paper's measure of remaining nesting ("the goal is
/// to transform nested expressions […] into join expressions in which
/// base tables occur only at top level", §3). Zero means fully unnested.
pub fn nested_table_score(e: &Expr) -> usize {
    fn count_tables(e: &Expr) -> usize {
        let mut n = usize::from(matches!(e, Expr::Table(_)));
        e.for_each_child(&mut |c| n += count_tables(c));
        n
    }
    fn walk(e: &Expr, in_param: bool) -> usize {
        let mut score = 0;
        match e {
            Expr::Table(_) if in_param => score += 1,
            Expr::Map { body, input, .. } => {
                score += walk(body, true) + walk(input, in_param);
                return score;
            }
            Expr::Select { pred, input, .. } => {
                score += walk(pred, true) + walk(input, in_param);
                return score;
            }
            Expr::Join {
                pred, left, right, ..
            } => {
                score += walk(pred, true) + walk(left, in_param) + walk(right, in_param);
                return score;
            }
            Expr::NestJoin {
                pred,
                rfunc,
                left,
                right,
                ..
            } => {
                score += walk(pred, true)
                    + rfunc.as_ref().map_or(0, |g| walk(g, true))
                    + walk(left, in_param)
                    + walk(right, in_param);
                return score;
            }
            Expr::Quant { range, pred, .. } => {
                // a quantifier itself only occurs inside parameters; its
                // range and body inherit the parameter context
                score += walk(range, in_param) + walk(pred, in_param);
                return score;
            }
            Expr::Let { value, body, .. } => {
                score += walk(value, in_param) + walk(body, in_param);
                return score;
            }
            _ => {}
        }
        let _ = count_tables; // silence unused when in_param paths cover all
        e.for_each_child(&mut |c| score += walk(c, in_param));
        score
    }
    walk(e, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{figure12_db, supplier_part_catalog, supplier_part_db};
    use oodb_engine::Evaluator;
    use oodb_value::SetCmpOp;

    fn optimize(e: &Expr) -> Optimized {
        Optimizer.optimize(e, &supplier_part_catalog()).unwrap()
    }

    /// Example Query 5's nested translation.
    fn query5() -> Expr {
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
        )
    }

    #[test]
    fn query5_becomes_a_semijoin() {
        let out = optimize(&query5());
        assert!(out.trace.fired("exists-exchange"));
        assert!(out.trace.fired("rule1-exists"));
        assert!(matches!(
            out.expr,
            Expr::Join {
                kind: oodb_adl::JoinKind::Semi,
                ..
            }
        ));
        assert_eq!(nested_table_score(&out.expr), 0);
        // semantics preserved
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        assert_eq!(
            ev.eval_closed(&out.expr).unwrap(),
            ev.eval_closed(&query5()).unwrap()
        );
    }

    #[test]
    fn rewriting_example_1_membership() {
        // σ[x : x.a ∈ α[y : y.e](σ[y : q](Y))](X) ⇒ semijoin
        // (uncorrelated q would be hoisted; use a correlated q)
        let q = eq(var("y").field("d"), var("x").field("a"));
        let e = select(
            "x",
            member(
                var("x").field("a"),
                map("y", var("y").field("e"), select("y", q.clone(), table("Y"))),
            ),
            table("X"),
        );
        let db = figure12_db();
        let out = Optimizer.optimize(&e, db.catalog()).unwrap();
        assert!(out.trace.fired("setcmp-to-quant"));
        assert!(out.trace.fired("range-extract"));
        assert!(out.trace.fired("rule1-exists"));
        assert!(matches!(
            out.expr,
            Expr::Join {
                kind: oodb_adl::JoinKind::Semi,
                ..
            }
        ));
        let ev = Evaluator::new(&db);
        assert_eq!(
            ev.eval_closed(&out.expr).unwrap(),
            ev.eval_closed(&e).unwrap()
        );
    }

    #[test]
    fn rewriting_example_2_set_inclusion() {
        // σ[x : σ[y : q](Y) ⊆ x.c](X) ⇒ X ▷_{x,y : q ∧ y ∉ x.c} Y
        let q = eq(var("y").field("d"), var("x").field("a"));
        let e = select(
            "x",
            set_cmp(
                SetCmpOp::SubsetEq,
                map("y", var("y").field("e"), select("y", q.clone(), table("Y"))),
                var("x").field("c"),
            ),
            table("X"),
        );
        let db = figure12_db();
        let out = Optimizer.optimize(&e, db.catalog()).unwrap();
        assert!(out.trace.fired("rule1-not-exists"));
        assert!(matches!(
            out.expr,
            Expr::Join {
                kind: oodb_adl::JoinKind::Anti,
                ..
            }
        ));
        let ev = Evaluator::new(&db);
        assert_eq!(
            ev.eval_closed(&out.expr).unwrap(),
            ev.eval_closed(&e).unwrap()
        );
    }

    #[test]
    fn query4_uses_attr_unnest_then_antijoin() {
        let e = project(
            &["eid"],
            select(
                "s",
                exists(
                    "z",
                    var("s").field("parts"),
                    not(exists(
                        "p",
                        table("PART"),
                        eq(var("z"), var("p").field("pid")),
                    )),
                ),
                table("SUPPLIER"),
            ),
        );
        let out = optimize(&e);
        assert!(out.trace.fired("attr-unnest"));
        assert!(out.trace.fired("rule1-not-exists"));
        // π_eid(μ_parts(SUPPLIER) ▷ PART)
        let Expr::Project { input, .. } = &out.expr else {
            panic!("{}", out.expr)
        };
        assert!(matches!(
            input.as_ref(),
            Expr::Join {
                kind: oodb_adl::JoinKind::Anti,
                ..
            }
        ));
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        assert_eq!(
            ev.eval_closed(&out.expr).unwrap(),
            ev.eval_closed(&e).unwrap()
        );
        assert_eq!(nested_table_score(&out.expr), 0);
    }

    #[test]
    fn figure1_query_reaches_nestjoin() {
        let sub = map(
            "y",
            var("y").field("e"),
            select(
                "y",
                eq(var("x").field("a"), var("y").field("d")),
                table("Y"),
            ),
        );
        let e = select(
            "x",
            set_cmp(SetCmpOp::SubsetEq, var("x").field("c"), sub),
            table("X"),
        );
        let db = figure12_db();
        let out = Optimizer.optimize(&e, db.catalog()).unwrap();
        assert!(out.trace.fired("nestjoin-select"));
        assert_eq!(nested_table_score(&out.expr), 0);
        let ev = Evaluator::new(&db);
        assert_eq!(
            ev.eval_closed(&out.expr).unwrap(),
            ev.eval_closed(&e).unwrap()
        );
    }

    #[test]
    fn uncorrelated_subquery_hoisted_to_let() {
        // Example Query 3.1 (with flatten): uncorrelated subquery
        let sub = flatten(map(
            "t",
            var("t").field("parts"),
            select(
                "t",
                eq(var("t").field("sname"), str_lit("s1")),
                table("SUPPLIER"),
            ),
        ));
        let e = select(
            "s",
            set_cmp(SetCmpOp::SupersetEq, var("s").field("parts"), sub),
            table("SUPPLIER"),
        );
        let out = optimize(&e);
        assert!(out.trace.fired("hoist-uncorrelated"));
        assert!(matches!(out.expr, Expr::Let { .. }));
        assert_eq!(nested_table_score(&out.expr), 0);
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let v = ev.eval_closed(&out.expr).unwrap();
        assert_eq!(v, ev.eval_closed(&e).unwrap());
        // s1 and s3 supply ⊇ s1's parts
        assert_eq!(v.as_set().unwrap().len(), 2);
    }

    #[test]
    fn forall_query_becomes_antijoin() {
        // σ[s : ∀p ∈ σ[p : red](PART) • p.pid ∈ s.parts](SUPPLIER)
        let e = select(
            "s",
            forall(
                "p",
                select(
                    "p",
                    eq(var("p").field("color"), str_lit("red")),
                    table("PART"),
                ),
                member(var("p").field("pid"), var("s").field("parts")),
            ),
            table("SUPPLIER"),
        );
        let out = optimize(&e);
        assert!(out.trace.fired("forall-to-not-exists"));
        assert!(out.trace.fired("rule1-not-exists"));
        assert!(matches!(
            out.expr,
            Expr::Join {
                kind: oodb_adl::JoinKind::Anti,
                ..
            }
        ));
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let v = ev.eval_closed(&out.expr).unwrap();
        assert_eq!(v, ev.eval_closed(&e).unwrap());
        // suppliers stocking all red parts (bolt, screw, gear): none do —
        // wait: s3 has {11,12,13,14}: red parts are 11,13,15; 15 missing.
        // Nobody supplies gear(15): result is empty.
        assert!(v.as_set().unwrap().is_empty());
    }

    #[test]
    fn example_query6_full_strategy() {
        let sub = select(
            "p",
            member(var("p").field("pid"), var("s").field("parts")),
            table("PART"),
        );
        let e = map(
            "s",
            tuple(vec![
                ("sname", var("s").field("sname")),
                ("partssuppl", sub),
            ]),
            table("SUPPLIER"),
        );
        let out = optimize(&e);
        assert!(out.trace.fired("nestjoin-map"));
        assert_eq!(nested_table_score(&out.expr), 0);
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        assert_eq!(
            ev.eval_closed(&out.expr).unwrap(),
            ev.eval_closed(&e).unwrap()
        );
    }

    #[test]
    fn already_flat_queries_are_untouched() {
        let e = semijoin(
            "s",
            "p",
            member(var("p").field("pid"), var("s").field("parts")),
            table("SUPPLIER"),
            table("PART"),
        );
        let out = optimize(&e);
        assert!(out.trace.is_empty());
        assert_eq!(out.expr, e);
    }

    #[test]
    fn type_verification_passes_on_all_rewrites() {
        // spot-check that every strategy output type checks (guard is on
        // by default, so reaching Ok proves it)
        let _ = optimize(&query5());
    }

    #[test]
    fn nested_table_score_counts_correctly() {
        assert_eq!(nested_table_score(&query5()), 1);
        assert_eq!(nested_table_score(&table("PART")), 0);
        let flat = semijoin("a", "b", Expr::true_(), table("X"), table("Y"));
        assert_eq!(nested_table_score(&flat), 0);
        let in_pred = select("x", exists("y", table("Y"), Expr::true_()), table("X"));
        assert_eq!(nested_table_score(&in_pred), 1);
    }

    use oodb_adl::expr::Expr;
}
