//! The nestjoin rewrites (§6.1) — grouping during join.
//!
//! For the general two-block formats that flat relational operators cannot
//! express without losing dangling tuples:
//!
//! * where-clause nesting:
//!   `σ[x : P(x, Y')](X)` with `Y' = α[y : G](σ[y : Q(x,y)](Y))`
//!   `⇒ π_{SCH(X)}(σ[z : P'](X ⊣_{x,y : Q; G; ys} Y))`
//! * select-clause nesting:
//!   `α[x : F(x, Y')](X) ⇒ α[z : F'](X ⊣_{x,y : Q; G; ys} Y)`
//!
//! where `P' = P[Y' → z.ys]` (and whole-tuple uses of `x` become
//! `z[SCH(X)]`). "Instead of producing the concatenation of every pair of
//! matching tuples, each left operand tuple is concatenated with the set
//! of matching right operand tuples" — dangling left tuples keep `∅`, so
//! no Complex Object bug arises.

use super::{replace_subexpr, split_subquery, uses_whole_var, RewriteCtx, Rule, Subquery};
use oodb_adl::expr::Expr;
use oodb_adl::infer_closed;
use oodb_adl::vars::{free_vars, fresh_name, is_free_in};
use oodb_value::fxhash::FxHashSet;
use oodb_value::Name;

/// Finds a correlated base-table subquery inside an iterator parameter.
///
/// The subquery must (1) decompose as `α[y:G](σ[y:Q](Y))`, (2) have a
/// *closed* base-table operand `Y`, (3) be correlated with exactly the
/// iterator variable `x` (uncorrelated operands are hoisted constants,
/// other variables would escape their scope).
fn find_subquery(param: &Expr, x: &str) -> Option<(Expr, Subquery)> {
    // candidate positions: any descendant that splits as a subquery
    fn walk(e: &Expr, x: &str, out: &mut Option<(Expr, Subquery)>) {
        if out.is_some() {
            return;
        }
        if let Some(sq) = split_subquery(e) {
            let fv = free_vars(e);
            let correlated = fv.iter().any(|n| n.as_ref() == x);
            let only_x = fv.iter().all(|n| n.as_ref() == x);
            if correlated && only_x && super::is_base_table_expr(&sq.base) {
                *out = Some((e.clone(), sq));
                return;
            }
        }
        e.for_each_child(&mut |c| walk(c, x, out));
    }
    let mut found = None;
    walk(param, x, &mut found);
    found
}

/// Builds the nestjoin node plus the parameter rewrite shared by both
/// rules. Returns `(nestjoin, new_param, needs_subscript)`.
fn build(
    x: &Name,
    param: &Expr,
    occurrence: &Expr,
    sq: Subquery,
    input: &Expr,
    ctx: &RewriteCtx<'_>,
) -> Option<(Expr, Expr, Vec<Name>)> {
    // SCH(X) for the final projection / whole-tuple subscription
    let input_ty = infer_closed(input, ctx.catalog).ok()?;
    let sch = input_ty.sch()?;
    // fresh group attribute
    let mut avoid: FxHashSet<Name> = sch.iter().cloned().collect();
    avoid.extend(free_vars(param));
    let ys = fresh_name("ys", &avoid);
    // the nestjoin's right variable must differ from x
    let y = if sq.var == *x {
        let mut avoid2 = avoid.clone();
        avoid2.insert(x.clone());
        fresh_name("y", &avoid2)
    } else {
        sq.var.clone()
    };
    let (pred, gfunc) = if y == sq.var {
        (sq.pred, sq.gfunc)
    } else {
        let renamed_pred = oodb_adl::subst(&sq.pred, &sq.var, &Expr::Var(y.clone()));
        let renamed_g = sq
            .gfunc
            .map(|g| oodb_adl::subst(&g, &sq.var, &Expr::Var(y.clone())));
        (renamed_pred, renamed_g)
    };
    // Q may reference x and y (find_subquery admits no other free
    // variable), but the collected function G is bound to y alone — the
    // nestjoin evaluates it per right row, with no left row in scope. A
    // G that mentions x (`d : s.sname`) has no nestjoin form; decline
    // and leave the block to the other rules.
    if gfunc.as_ref().is_some_and(|g| is_free_in(x, g)) {
        return None;
    }
    let nj = Expr::NestJoin {
        lvar: x.clone(),
        rvar: y,
        pred: Box::new(pred),
        rfunc: gfunc.map(Box::new),
        as_attr: ys.clone(),
        left: Box::new(input.clone()),
        right: Box::new(sq.base),
    };
    // P' : the subquery occurrence becomes x.ys …
    let ys_ref = Expr::Field(Box::new(Expr::Var(x.clone())), ys.clone());
    let mut new_param = replace_subexpr(param, occurrence, &ys_ref);
    // … and whole-tuple uses of x become x[SCH(X)]
    if uses_whole_var(&new_param, x) {
        new_param = subst_whole_var(&new_param, x, &sch);
    }
    Some((nj, new_param, sch))
}

/// Replaces whole-tuple uses of `v` by `v[attrs]`, leaving `v.a` accesses
/// untouched.
fn subst_whole_var(e: &Expr, v: &str, attrs: &[Name]) -> Expr {
    match e {
        Expr::Var(n) if n.as_ref() == v => Expr::TupleProject(Box::new(e.clone()), attrs.to_vec()),
        Expr::Field(base, a) => {
            if matches!(base.as_ref(), Expr::Var(n) if n.as_ref() == v) {
                e.clone()
            } else {
                Expr::Field(Box::new(subst_whole_var(base, v, attrs)), a.clone())
            }
        }
        Expr::TupleProject(base, ns) => {
            if matches!(base.as_ref(), Expr::Var(n) if n.as_ref() == v) {
                e.clone()
            } else {
                Expr::TupleProject(Box::new(subst_whole_var(base, v, attrs)), ns.clone())
            }
        }
        // binders that shadow v stop the substitution
        Expr::Map { var, .. }
        | Expr::Select { var, .. }
        | Expr::Quant { var, .. }
        | Expr::Let { var, .. }
            if var.as_ref() == v =>
        {
            // only the non-scoped children may still see v; conservative:
            // the input/range/value of these binders is handled by the
            // generic recursion below when names differ, so for a shadowing
            // binder we only recurse into the operand position.
            match e {
                Expr::Map { var, body, input } => Expr::Map {
                    var: var.clone(),
                    body: body.clone(),
                    input: Box::new(subst_whole_var(input, v, attrs)),
                },
                Expr::Select { var, pred, input } => Expr::Select {
                    var: var.clone(),
                    pred: pred.clone(),
                    input: Box::new(subst_whole_var(input, v, attrs)),
                },
                Expr::Quant {
                    q,
                    var,
                    range,
                    pred,
                } => Expr::Quant {
                    q: *q,
                    var: var.clone(),
                    range: Box::new(subst_whole_var(range, v, attrs)),
                    pred: pred.clone(),
                },
                Expr::Let { var, value, body } => Expr::Let {
                    var: var.clone(),
                    value: Box::new(subst_whole_var(value, v, attrs)),
                    body: body.clone(),
                },
                _ => unreachable!(),
            }
        }
        other => other
            .clone()
            .map_children(&mut |c| subst_whole_var(&c, v, attrs)),
    }
}

/// Nestjoin rewrite for nesting in the **where-clause**.
pub struct NestJoinSelect;

impl Rule for NestJoinSelect {
    fn name(&self) -> &'static str {
        "nestjoin-select"
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
        let (occurrence, sq) = find_subquery(pred, x)?;
        let (nj, new_pred, sch) = build(x, pred, &occurrence, sq, input, ctx)?;
        Some(Expr::Project {
            attrs: sch,
            input: Box::new(Expr::Select {
                var: x.clone(),
                pred: Box::new(new_pred),
                input: Box::new(nj),
            }),
        })
    }
}

/// Nestjoin rewrite for nesting in the **select-clause** (Example
/// Queries 1 and 6).
pub struct NestJoinMap;

impl Rule for NestJoinMap {
    fn name(&self) -> &'static str {
        "nestjoin-map"
    }

    fn apply(&self, e: &Expr, ctx: &RewriteCtx<'_>) -> Option<Expr> {
        let Expr::Map {
            var: x,
            body,
            input,
        } = e
        else {
            return None;
        };
        // an input σ over another variable whose predicate mentions `x`
        // would capture the map's `x` once the nestjoin binds it: decline.
        // A σ over `x` itself (an outer `where` on the mapped range) binds
        // its own `x` and is safe to join.
        if let Expr::Select { var, pred, .. } = input.as_ref() {
            if var != x && is_free_in(x, pred) {
                return None;
            }
        }
        let (occurrence, sq) = find_subquery(body, x)?;
        let (nj, new_body, _) = build(x, body, &occurrence, sq, input, ctx)?;
        Some(Expr::Map {
            var: x.clone(),
            body: Box::new(new_body),
            input: Box::new(nj),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{figure12_db, supplier_part_catalog};
    use oodb_value::SetCmpOp;

    fn ctx_catalog() -> oodb_catalog::Catalog {
        supplier_part_catalog()
    }

    #[test]
    fn figure1_query_rewrites_to_nestjoin() {
        // σ[x : x.c ⊆ α[y : y.e](σ[y : x.a = y.d](Y))](X)
        let db = figure12_db();
        let ctx = RewriteCtx {
            catalog: db.catalog(),
        };
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
        let out = NestJoinSelect.apply(&e, &ctx).unwrap();
        // π_{a,c,xid}(σ[x : x.c ⊆ x.ys](X ⊣_{x,y : x.a = y.d; y.e; ys} Y))
        let Expr::Project { attrs, input } = &out else {
            panic!("{out}")
        };
        assert!(attrs.iter().any(|a| a.as_ref() == "c"));
        let Expr::Select {
            pred, input: nj, ..
        } = input.as_ref()
        else {
            panic!("{out}")
        };
        assert_eq!(
            **pred,
            set_cmp(
                SetCmpOp::SubsetEq,
                var("x").field("c"),
                var("x").field("ys")
            )
        );
        let Expr::NestJoin {
            pred: q,
            rfunc,
            as_attr,
            ..
        } = nj.as_ref()
        else {
            panic!("{out}")
        };
        assert_eq!(**q, eq(var("x").field("a"), var("y").field("d")));
        assert_eq!(*rfunc.as_ref().unwrap().as_ref(), var("y").field("e"));
        assert_eq!(as_attr.as_ref(), "ys");
    }

    #[test]
    fn example_query6_rewrites_to_nestjoin_map() {
        // α[s : ⟨sname = s.sname, partssuppl = σ[p : p.pid ∈ s.parts](PART)⟩](SUPPLIER)
        let cat = ctx_catalog();
        let ctx = RewriteCtx { catalog: &cat };
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
        let out = NestJoinMap.apply(&e, &ctx).unwrap();
        let Expr::Map { body, input, .. } = &out else {
            panic!("{out}")
        };
        assert!(matches!(input.as_ref(), Expr::NestJoin { .. }));
        assert_eq!(
            **body,
            tuple(vec![
                ("sname", var("s").field("sname")),
                ("partssuppl", var("s").field("ys")),
            ])
        );
    }

    #[test]
    fn uncorrelated_subquery_is_not_a_nestjoin_case() {
        let cat = ctx_catalog();
        let ctx = RewriteCtx { catalog: &cat };
        let sub = select(
            "p",
            eq(var("p").field("color"), str_lit("red")),
            table("PART"),
        );
        let e = select(
            "s",
            set_cmp(SetCmpOp::SubsetEq, var("s").field("parts"), sub),
            table("SUPPLIER"),
        );
        assert!(NestJoinSelect.apply(&e, &ctx).is_none());
    }

    #[test]
    fn set_attribute_subqueries_stay_nested() {
        // Y' ranges over a set-valued attribute — no base table, no ⊣
        let cat = ctx_catalog();
        let ctx = RewriteCtx { catalog: &cat };
        let sub = select("z", gt(var("z"), int(1)), var("s").field("parts"));
        let e = select(
            "s",
            set_cmp(SetCmpOp::SetEq, var("s").field("parts"), sub),
            table("SUPPLIER"),
        );
        assert!(NestJoinSelect.apply(&e, &ctx).is_none());
    }

    #[test]
    fn whole_tuple_use_gets_subscripted() {
        // P compares x itself: P' must reference x[SCH(X)]
        let db = figure12_db();
        let ctx = RewriteCtx {
            catalog: db.catalog(),
        };
        let sub = select(
            "y",
            eq(var("x").field("a"), var("y").field("d")),
            table("Y"),
        );
        let e = select("x", member(var("x"), sub), table("X"));
        let out = NestJoinSelect.apply(&e, &ctx).unwrap();
        let Expr::Project { input, .. } = &out else {
            panic!("{out}")
        };
        let Expr::Select { pred, .. } = input.as_ref() else {
            panic!("{out}")
        };
        let Expr::SetCmp(SetCmpOp::In, lhs, _) = pred.as_ref() else {
            panic!("{out}")
        };
        assert!(matches!(lhs.as_ref(), Expr::TupleProject(..)));
    }

    #[test]
    fn fresh_group_attribute_avoids_collisions() {
        // X already has an attribute named ys? — here: use variables named
        // ys in the predicate to force ys_1
        let db = figure12_db();
        let ctx = RewriteCtx {
            catalog: db.catalog(),
        };
        let sub = select(
            "y",
            eq(var("x").field("a"), var("y").field("d")),
            table("Y"),
        );
        let e = select(
            "x",
            and(
                eq(var("ys"), var("ys")),
                set_cmp(SetCmpOp::SubsetEq, var("x").field("c"), sub),
            ),
            table("X"),
        );
        let out = NestJoinSelect.apply(&e, &ctx).unwrap();
        let Expr::Project { input, .. } = &out else {
            panic!("{out}")
        };
        let Expr::Select { input: nj, .. } = input.as_ref() else {
            panic!("{out}")
        };
        let Expr::NestJoin { as_attr, .. } = nj.as_ref() else {
            panic!("{out}")
        };
        assert_eq!(as_attr.as_ref(), "ys_1");
    }

    #[test]
    fn collected_function_over_the_left_variable_declines() {
        // ⋃ α[s : α[d : s.sname](σ[d : s.eid = d.supplier](DELIVERY))](SUPPLIER)
        // — G = s.sname mentions the left variable, which a nestjoin's
        // collected function cannot see
        let cat = ctx_catalog();
        let ctx = RewriteCtx { catalog: &cat };
        let sub = map(
            "d",
            var("s").field("sname"),
            select(
                "d",
                eq(var("s").field("eid"), var("d").field("supplier")),
                table("DELIVERY"),
            ),
        );
        let e = map("s", sub, table("SUPPLIER"));
        assert!(NestJoinMap.apply(&e, &ctx).is_none());
    }

    use oodb_adl::expr::Expr;
}
