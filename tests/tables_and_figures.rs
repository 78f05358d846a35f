//! Executable reproductions of every table and figure in the paper.
//!
//! * Table 1 — each set-comparison → quantifier expansion is verified
//!   *semantically*: for an exhaustive grid of small sets, the original
//!   operator and its expansion evaluate identically.
//! * Table 2 — the predicate rewrites, same verification.
//! * Table 3 — the `P(x, ∅)` column, pinned value by value.
//! * Figure 1/2 — the Complex Object bug: the nested query's ground truth,
//!   the buggy GaWo87 join pipeline, and both repairs (outerjoin,
//!   nestjoin).
//! * Figure 3 — the nestjoin example, pinned tuple for tuple.

use oodb::adl::dsl::*;
use oodb::adl::expr::Expr;
use oodb::catalog::fixtures::{figure12_db, figure3_db};
use oodb::core::emptiness::{table3_rows, Truth};
use oodb::core::rules::grouping::{Gawo87Unsafe, OuterjoinGroup};
use oodb::core::rules::nestjoin::NestJoinSelect;
use oodb::core::rules::setcmp::table1_expansion;
use oodb::core::rules::{RewriteCtx, Rule};
use oodb::engine::Evaluator;
use oodb::value::{SetCmpOp, Value};

/// All subsets of {1, 2, 3} as set values.
fn small_sets() -> Vec<Value> {
    let elems = [1i64, 2, 3];
    let mut out = Vec::new();
    for mask in 0u8..8 {
        let s: Vec<Value> = elems
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, v)| Value::Int(*v))
            .collect();
        out.push(Value::set(s));
    }
    out
}

#[test]
fn table1_expansions_are_semantically_equivalent() {
    let db = figure3_db(); // any database; operands are literals
    let ev = Evaluator::new(&db);
    let sets = small_sets();
    // the set-set operators
    for op in [
        SetCmpOp::Subset,
        SetCmpOp::SubsetEq,
        SetCmpOp::SetEq,
        SetCmpOp::SetNe,
        SetCmpOp::SupersetEq,
        SetCmpOp::Superset,
    ] {
        for a in &sets {
            for b in &sets {
                let direct = set_cmp(op, lit(a.clone()), lit(b.clone()));
                let expanded = table1_expansion(op, &lit(a.clone()), &lit(b.clone()));
                assert_eq!(
                    ev.eval_closed(&direct).unwrap(),
                    ev.eval_closed(&expanded).unwrap(),
                    "{op:?} disagrees on {a} vs {b}"
                );
            }
        }
    }
    // membership: element on the left
    for op in [SetCmpOp::In, SetCmpOp::NotIn] {
        for elem in [Value::Int(1), Value::Int(9)] {
            for b in &sets {
                let direct = set_cmp(op, lit(elem.clone()), lit(b.clone()));
                let expanded = table1_expansion(op, &lit(elem.clone()), &lit(b.clone()));
                assert_eq!(
                    ev.eval_closed(&direct).unwrap(),
                    ev.eval_closed(&expanded).unwrap(),
                    "{op:?} disagrees on {elem} ∈ {b}"
                );
            }
        }
    }
    // containment: c has set-of-set type (the paper's last row)
    for op in [SetCmpOp::Contains, SetCmpOp::NotContains] {
        for b in &sets {
            let c = Value::set(sets[1..4].to_vec()); // a set of sets
            let direct = set_cmp(op, lit(c.clone()), lit(b.clone()));
            let expanded = table1_expansion(op, &lit(c.clone()), &lit(b.clone()));
            assert_eq!(
                ev.eval_closed(&direct).unwrap(),
                ev.eval_closed(&expanded).unwrap(),
                "{op:?} disagrees on {c} ∋ {b}"
            );
        }
    }
}

#[test]
fn table2_predicates_are_semantically_equivalent() {
    // Y' = ∅ ≡ ¬∃y ∈ Y' • true ; count(Y') = 0 likewise; x.c ∩ Y' = ∅ ≡
    // ¬∃y ∈ Y' • y ∈ x.c — checked over the small-set grid.
    let db = figure3_db();
    let ev = Evaluator::new(&db);
    for yp in small_sets() {
        let emptiness = set_cmp(SetCmpOp::SetEq, lit(yp.clone()), Expr::empty_set());
        let quant = not(exists("y", lit(yp.clone()), Expr::true_()));
        assert_eq!(
            ev.eval_closed(&emptiness).unwrap(),
            ev.eval_closed(&quant).unwrap()
        );
        let count_form = eq(count(lit(yp.clone())), int(0));
        assert_eq!(
            ev.eval_closed(&count_form).unwrap(),
            ev.eval_closed(&quant).unwrap()
        );
        for c in small_sets() {
            let inter = set_cmp(
                SetCmpOp::SetEq,
                set_op(oodb::adl::SetOp::Intersect, lit(c.clone()), lit(yp.clone())),
                Expr::empty_set(),
            );
            let inter_quant = not(exists(
                "y",
                lit(yp.clone()),
                member(var("y"), lit(c.clone())),
            ));
            assert_eq!(
                ev.eval_closed(&inter).unwrap(),
                ev.eval_closed(&inter_quant).unwrap(),
                "∩-row disagrees on {c} ∩ {yp}"
            );
        }
    }
}

#[test]
fn table3_pinned_exactly() {
    assert_eq!(
        table3_rows(),
        vec![
            ("x.c ⊂ Y'", Truth::False),
            ("x.c ⊆ Y'", Truth::Runtime),
            ("x.c = Y'", Truth::Runtime),
            ("x.c ⊇ Y'", Truth::True),
            ("x.c ⊃ Y'", Truth::Runtime),
            ("x.c ∋ Y'", Truth::Runtime),
        ]
    );
}

/// Figure 1's nested query over the Figure 2 tables.
fn figure_query() -> Expr {
    select(
        "x",
        set_cmp(
            SetCmpOp::SubsetEq,
            var("x").field("c"),
            map(
                "y",
                var("y").field("e"),
                select(
                    "y",
                    eq(var("x").field("a"), var("y").field("d")),
                    table("Y"),
                ),
            ),
        ),
        table("X"),
    )
}

fn a_column(v: &Value) -> Vec<i64> {
    v.as_set()
        .unwrap()
        .iter()
        .map(|t| t.as_tuple().unwrap().get("a").unwrap().as_int().unwrap())
        .collect()
}

#[test]
fn figure2_complex_object_bug_full_story() {
    let db = figure12_db();
    let ctx = RewriteCtx {
        catalog: db.catalog(),
    };
    let ev = Evaluator::new(&db);
    let wrap = |e: Expr| project(&["a", "c"], e);

    // Ground truth (nested-loop): ⟨a=1⟩ matches, ⟨a=2, c=∅⟩ matches via
    // ∅ ⊆ ∅, ⟨a=3⟩ does not ({2,3} ⊈ {3}).
    let truth = ev.eval_closed(&wrap(figure_query())).unwrap();
    assert_eq!(a_column(&truth), vec![1, 2]);

    // The GaWo87 grouping pipeline loses ⟨a=2⟩ — the Complex Object bug.
    let buggy = Gawo87Unsafe.apply(&figure_query(), &ctx).unwrap();
    let buggy_v = ev.eval_closed(&wrap(buggy)).unwrap();
    assert_eq!(a_column(&buggy_v), vec![1], "bug must reproduce");

    // Repair 1: outerjoin (GaWo87's own fix).
    let outer = OuterjoinGroup.apply(&figure_query(), &ctx).unwrap();
    assert_eq!(ev.eval_closed(&wrap(outer)).unwrap(), truth);

    // Repair 2: the paper's nestjoin.
    let nest = NestJoinSelect.apply(&figure_query(), &ctx).unwrap();
    assert_eq!(ev.eval_closed(&wrap(nest)).unwrap(), truth);
}

#[test]
fn figure3_nestjoin_pinned_tuple_for_tuple() {
    let db = figure3_db();
    let ev = Evaluator::new(&db);
    // X ⊣_{x,y : x.b = y.d; ys} Y, with Y-side c,d collected; drop the
    // surrogate ids for comparison with the figure
    let e = map(
        "r",
        tuple(vec![
            ("a", var("r").field("a")),
            ("b", var("r").field("b")),
            (
                "ys",
                map(
                    "y",
                    tuple(vec![("c", var("y").field("c")), ("d", var("y").field("d"))]),
                    var("r").field("ys"),
                ),
            ),
        ]),
        nestjoin(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            "ys",
            table("X"),
            table("Y"),
        ),
    );
    let v = ev.eval_closed(&e).unwrap();
    let matched_group = Value::set([
        Value::tuple([("c", Value::Int(1)), ("d", Value::Int(1))]),
        Value::tuple([("c", Value::Int(2)), ("d", Value::Int(1))]),
    ]);
    let expected = Value::set([
        Value::tuple([
            ("a", Value::Int(1)),
            ("b", Value::Int(1)),
            ("ys", matched_group.clone()),
        ]),
        Value::tuple([
            ("a", Value::Int(2)),
            ("b", Value::Int(1)),
            ("ys", matched_group),
        ]),
        Value::tuple([
            ("a", Value::Int(3)),
            ("b", Value::Int(3)),
            ("ys", Value::empty_set()),
        ]),
    ]);
    assert_eq!(v, expected);
}

/// The guarded grouping rewrite refuses Figure 2's query (`⊆` is
/// run-time dependent under `∅`) but the whole-pipeline nestjoin strategy
/// handles it — §5.2.2's "to improve matters we have defined […] the
/// nestjoin operator".
#[test]
fn strategy_routes_figure_query_to_nestjoin() {
    use oodb::core::Optimizer;
    let db = figure12_db();
    let out = Optimizer.optimize(&figure_query(), db.catalog()).unwrap();
    assert!(out.trace.fired("nestjoin-select"), "{}", out.trace);
    assert!(!out.trace.fired("gawo87-grouping-unsafe"));
    let ev = Evaluator::new(&db);
    assert_eq!(
        ev.eval_closed(&out.expr).unwrap(),
        ev.eval_closed(&figure_query()).unwrap()
    );
}
