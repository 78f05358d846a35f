//! The three worked derivations of §5.2.1 (Rewriting Examples 1–3),
//! reproduced step by step through the rewrite trace, plus the Table 2
//! row 4 derivation that falls out of the same machinery, and the
//! selection pushdown into join operands that runs after them.

use oodb::adl::dsl::*;
use oodb::adl::expr::Expr;
use oodb::adl::JoinKind;
use oodb::catalog::fixtures::{figure12_db, supplier_part_db};
use oodb::catalog::Database;
use oodb::core::strategy::nested_table_score;
use oodb::core::{Optimized, Optimizer};
use oodb::engine::{Evaluator, Planner, Stats};
use oodb::value::{ArithOp, SetCmpOp};

/// Rewriting Example 1 — SET MEMBERSHIP:
/// `σ[x : x.c ∈ σ[y : q](Y)](X)` ≡ … ≡ `X ⋉_{x,y : y = x.c ∧ q} Y`.
#[test]
fn rewriting_example_1_set_membership() {
    // q correlated (the general case: q ≡ Q(x, y))
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

    // the paper's three steps, in order:
    let rules = out.trace.rule_sequence();
    let pos = |name: &str| rules.iter().position(|r| *r == name).unwrap_or(usize::MAX);
    assert!(pos("setcmp-to-quant") < pos("range-extract"), "{:?}", rules);
    assert!(pos("range-extract") < pos("rule1-exists"), "{:?}", rules);

    // final form: a semijoin with no nested base tables
    assert!(matches!(
        out.expr,
        Expr::Join {
            kind: JoinKind::Semi,
            ..
        }
    ));
    assert_eq!(nested_table_score(&out.expr), 0);

    let ev = Evaluator::new(&db);
    assert_eq!(
        ev.eval_closed(&out.expr).unwrap(),
        ev.eval_closed(&e).unwrap()
    );
}

/// Rewriting Example 2 — SET INCLUSION:
/// `σ[x : σ[y : q](Y) ⊆ x.c](X)` ≡ … ≡ `X ▷_{x,y : q ∧ y ∉ x.c} Y`.
/// The universal quantifier is "transformed into a negated existential
/// quantifier by pushing through negation to enable transformation into
/// the antijoin operation".
#[test]
fn rewriting_example_2_set_inclusion() {
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

    let rules = out.trace.rule_sequence();
    let pos = |name: &str| rules.iter().position(|r| *r == name).unwrap_or(usize::MAX);
    assert!(
        pos("setcmp-to-quant") < pos("forall-to-not-exists"),
        "{:?}",
        rules
    );
    assert!(
        pos("forall-to-not-exists") < pos("rule1-not-exists"),
        "{:?}",
        rules
    );

    assert!(matches!(
        out.expr,
        Expr::Join {
            kind: JoinKind::Anti,
            ..
        }
    ));
    assert_eq!(nested_table_score(&out.expr), 0);

    let ev = Evaluator::new(&db);
    assert_eq!(
        ev.eval_closed(&out.expr).unwrap(),
        ev.eval_closed(&e).unwrap()
    );
}

/// Rewriting Example 3 — EXCHANGING QUANTIFIERS:
/// `∀z ∈ x.c • z ⊇ Y'  ⇒  ¬∃y ∈ Y' • ∃z ∈ x.c • y ∉ z`
/// (Table 2, last row). Quantification over the base table moves to the
/// left of the quantifier expression.
#[test]
fn rewriting_example_3_exchanging_quantifiers() {
    // X rows carry c : {{int}} (set of sets) for this one; build the
    // predicate over a free variable x and optimize a σ around it.
    let yprime = select(
        "y",
        eq(var("y").field("d"), var("x").field("a")),
        table("Y"),
    );
    let yprime_vals = map("y", var("y").field("e"), yprime);
    let pred = forall(
        "z",
        var("x").field("cs"),
        set_cmp(SetCmpOp::SupersetEq, var("z"), yprime_vals),
    );
    // normalize just the predicate (wrap in σ over a literal so the
    // optimizer has a closed expression; use the raw phases via Optimizer)
    let db = figure12_db();
    let e = select(
        "x",
        pred,
        Expr::Lit(oodb::value::Value::set([oodb::value::Value::tuple([
            ("a", oodb::value::Value::Int(1)),
            (
                "cs",
                oodb::value::Value::set([oodb::value::Value::set([oodb::value::Value::Int(1)])]),
            ),
        ])])),
    );
    let out = Optimizer.optimize(&e, db.catalog()).unwrap();
    let rules = out.trace.rule_sequence();
    // the ⊇ row of Table 1 fires, ∀ normalizes to ¬∃, double negation
    // cancels, and the base-table quantifier is exchanged outward
    assert!(rules.contains(&"setcmp-to-quant"), "{rules:?}");
    assert!(rules.contains(&"forall-to-not-exists"), "{rules:?}");
    assert!(rules.contains(&"exists-exchange"), "{rules:?}");
    // semantics preserved
    let ev = Evaluator::new(&db);
    assert_eq!(
        ev.eval_closed(&out.expr).unwrap(),
        ev.eval_closed(&e).unwrap()
    );
}

/// The same derivation pinned at the formula level: expanding `z ⊇ Y'`
/// and normalizing must yield exactly Table 2's
/// `¬∃y ∈ Y' • ∃z ∈ x.c • y ∉ z`.
#[test]
fn table2_row4_via_general_machinery() {
    use oodb::core::rules::normalize::ForallToNotExists;
    use oodb::core::rules::range::ExistsExchange;
    use oodb::core::rules::setcmp::SetCmpToQuant;
    use oodb::core::rules::{rewrite_fixpoint, RewriteCtx};
    use oodb::core::RewriteTrace;

    let db = figure12_db();
    let ctx = RewriteCtx {
        catalog: db.catalog(),
    };
    let mut trace = RewriteTrace::new();
    // ∀z ∈ x.c • z ⊇ Y'   with Y' a base table expression
    let e = forall(
        "z",
        var("x").field("c"),
        set_cmp(SetCmpOp::SupersetEq, var("z"), table("Y")),
    );
    let rules: Vec<&dyn oodb::core::rules::Rule> =
        vec![&SetCmpToQuant, &ForallToNotExists, &ExistsExchange];
    let normalized = rewrite_fixpoint(e, &rules, &ctx, &mut trace, 16).unwrap();
    // also need ¬¬-elimination for the final shape
    use oodb::core::rules::normalize::PushNegation;
    let mut trace2 = RewriteTrace::new();
    let rules2: Vec<&dyn oodb::core::rules::Rule> = vec![&PushNegation, &ExistsExchange];
    let final_form = rewrite_fixpoint(normalized, &rules2, &ctx, &mut trace2, 16).unwrap();

    // ¬∃y ∈ Y • ∃z ∈ x.c • y ∉ z
    let expected = not(exists(
        "y",
        table("Y"),
        exists(
            "z",
            var("x").field("c"),
            set_cmp(SetCmpOp::NotIn, var("y"), var("z")),
        ),
    ));
    assert!(
        oodb::adl::alpha_eq(&final_form, &expected),
        "got {final_form}, want {expected}"
    );
}

/// Runs the optimizer and checks the rewrite against the nested form,
/// through the naive evaluator and through the planned, streamed plan.
fn optimize_checked(db: &Database, e: &Expr) -> Optimized {
    let out = Optimizer.optimize(e, db.catalog()).unwrap();
    let ev = Evaluator::new(db);
    let reference = ev.eval_closed(e).unwrap();
    assert_eq!(ev.eval_closed(&out.expr).unwrap(), reference, "{e}");
    let streamed = Planner::new(db)
        .plan(&out.expr)
        .unwrap()
        .execute_streaming(&mut Stats::new())
        .unwrap();
    assert_eq!(streamed, reference, "{}", out.expr);
    out
}

/// Selection pushdown into join operands:
/// `X ⊕_{x,y : φ(x,y) ∧ ψ(y)} Y ≡ X ⊕_{x,y : φ(x,y)} σ[y : ψ(y)](Y)` for
/// every join kind ⊕ ∈ {⋈, ⋉, ▷, ⟕} and the nestjoin ⊣.
#[test]
fn join_operand_select_for_every_join_kind() {
    let db = supplier_part_db();
    let supplies = member(var("p").field("pid"), var("s").field("parts"));
    let red = eq(var("p").field("color"), str_lit("red"));
    let pred = and(supplies.clone(), red.clone());
    let (s, p) = (table("SUPPLIER"), table("PART"));
    let red_parts = select("p", red.clone(), p.clone());
    type JoinCtor = fn(&str, &str, Expr, Expr, Expr) -> Expr;
    let kinds: [(&str, JoinCtor); 5] = [
        ("⋈", join),
        ("⋉", semijoin),
        ("▷", antijoin),
        ("⟕", outerjoin),
        ("⊣", |l, r, pred, x, y| nestjoin(l, r, pred, "ps", x, y)),
    ];
    for (kind, mk) in kinds {
        let e = mk("s", "p", pred.clone(), s.clone(), p.clone());
        let out = optimize_checked(&db, &e);
        assert_eq!(out.trace.rule_sequence(), ["join-operand-select"], "{kind}");
        let pushed = mk("s", "p", supplies.clone(), s.clone(), red_parts.clone());
        assert_eq!(out.expr, pushed, "{kind}");
    }

    // an existing selection over the operand absorbs the conjunct under
    // its own variable
    let cheap = lt(var("q").field("price"), int(20));
    let e = semijoin(
        "s",
        "p",
        pred,
        s.clone(),
        select("q", cheap.clone(), p.clone()),
    );
    let out = optimize_checked(&db, &e);
    let merged = select(
        "q",
        and(cheap, eq(var("q").field("color"), str_lit("red"))),
        p,
    );
    assert_eq!(out.expr, semijoin("s", "p", supplies, s, merged));
}

/// The pushed conjunct runs once per right tuple, where the nested form
/// runs it only for pairs that reach it, so a conjunct that could fail is
/// never pushed: not a pointer dereference, not arithmetic. Nor is a
/// conjunct pushed into a right operand that is itself a join (an outer
/// join there pads with `NULL`).
#[test]
fn join_operand_select_declines_unsafe_conjuncts_and_join_operands() {
    let db = supplier_part_db();
    let supplies = member(var("p").field("pid"), var("s").field("parts"));
    let by_s1 = eq(
        deref(var("d").field("supplier"), "Supplier").field("sname"),
        str_lit("s1"),
    );
    let doubled = lt(
        arith(ArithOp::Mul, var("p").field("price"), int(2)),
        int(30),
    );
    let red = eq(var("p").field("color"), str_lit("red"));
    let supplied_parts = semijoin(
        "q",
        "t",
        member(var("q").field("pid"), var("t").field("parts")),
        table("PART"),
        table("SUPPLIER"),
    );
    let cases = [
        (
            "dereference",
            semijoin(
                "s",
                "d",
                and(eq(var("d").field("supplier"), var("s").field("eid")), by_s1),
                table("SUPPLIER"),
                table("DELIVERY"),
            ),
        ),
        (
            "arithmetic",
            semijoin(
                "s",
                "p",
                and(supplies.clone(), doubled),
                table("SUPPLIER"),
                table("PART"),
            ),
        ),
        (
            "join operand",
            semijoin(
                "s",
                "p",
                and(supplies, red),
                table("SUPPLIER"),
                supplied_parts,
            ),
        ),
    ];
    for (what, e) in cases {
        let out = optimize_checked(&db, &e);
        assert!(
            !out.trace.fired("join-operand-select"),
            "{what}: {}",
            out.trace
        );
        assert_eq!(out.expr, e, "{what}");
    }
}
