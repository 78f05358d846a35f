//! Beyond the paper's worked examples: multiple subqueries per predicate
//! and multi-level nesting — the cases §7 lists as future work ("the
//! ultimate goal is a general translation/optimization algorithm for
//! arbitrary nested OOSQL queries, including queries with multiple
//! subqueries and multiple nesting levels"). These tests pin what the
//! implemented strategy achieves on them, and that semantics are always
//! preserved even where unnesting is partial.

use oodb::adl::dsl::*;
use oodb::adl::expr::{Expr, JoinKind};
use oodb::catalog::fixtures::{supplier_part_catalog, supplier_part_db};
use oodb::core::strategy::nested_table_score;
use oodb::core::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{Evaluator, Planner, Stats};
use oodb::value::Value;

fn check_equiv(e: &Expr) -> oodb::core::Optimized {
    let db = supplier_part_db();
    let out = Optimizer.optimize(e, db.catalog()).unwrap();
    let ev = Evaluator::new(&db);
    assert_eq!(
        ev.eval_closed(&out.expr).unwrap(),
        ev.eval_closed(e).unwrap(),
        "semantics changed:\n{}",
        out.trace
    );
    // also via the physical planner on a generated database
    let big = generate(&GenConfig::scaled(200));
    let ev2 = Evaluator::new(&big);
    let out2 = Optimizer.optimize(e, big.catalog()).unwrap();
    let planner = Planner::new(&big);
    let mut stats = Stats::new();
    let planned = planner
        .plan(&out2.expr)
        .unwrap()
        .execute(&mut stats)
        .unwrap();
    assert_eq!(planned, ev2.eval_closed(e).unwrap());
    out
}

/// Two independent base-table subqueries in one predicate: both unnest,
/// yielding a chain of semijoins.
#[test]
fn two_subqueries_chain_joins() {
    // suppliers that supply a red part AND have some delivery
    let e = select(
        "s",
        and(
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
            exists(
                "d",
                table("DELIVERY"),
                eq(var("d").field("supplier"), var("s").field("eid")),
            ),
        ),
        table("SUPPLIER"),
    );
    let out = check_equiv(&e);
    assert_eq!(nested_table_score(&out.expr), 0, "{}", out.expr);
    // two rule-1 firings → nested semijoins
    let rule1_count = out
        .trace
        .rule_sequence()
        .iter()
        .filter(|r| **r == "rule1-exists")
        .count();
    assert_eq!(rule1_count, 2, "{}", out.trace);
    // shape: (SUPPLIER ⋉ …) ⋉ …
    let Expr::Join {
        kind: JoinKind::Semi,
        left,
        ..
    } = &out.expr
    else {
        panic!("{}", out.expr)
    };
    assert!(matches!(
        left.as_ref(),
        Expr::Join {
            kind: JoinKind::Semi,
            ..
        }
    ));
}

/// Positive and negative subqueries mix: semijoin + antijoin chain.
#[test]
fn mixed_polarity_subqueries() {
    // suppliers with a red part but NO delivery
    let e = select(
        "s",
        and(
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
            not(exists(
                "d",
                table("DELIVERY"),
                eq(var("d").field("supplier"), var("s").field("eid")),
            )),
        ),
        table("SUPPLIER"),
    );
    let out = check_equiv(&e);
    assert_eq!(nested_table_score(&out.expr), 0);
    assert!(out.trace.fired("rule1-exists"));
    assert!(out.trace.fired("rule1-not-exists"));
    // fixture answer: s3 has red parts (11, 13) and no delivery
    let db = supplier_part_db();
    let ev = Evaluator::new(&db);
    let v = ev.eval_closed(&out.expr).unwrap();
    let names: Vec<&Value> = v
        .as_set()
        .unwrap()
        .iter()
        .map(|r| r.as_tuple().unwrap().get("sname").unwrap())
        .collect();
    assert_eq!(names, vec![&Value::str("s3")]);
}

/// Three-level nesting: a subquery inside a subquery. The strategy
/// unnests level by level — inner first (within the DELIVERY predicate),
/// then the outer.
#[test]
fn three_level_nesting() {
    // suppliers supplying a part that some delivery includes
    let e = select(
        "s",
        exists(
            "x",
            var("s").field("parts"),
            exists(
                "p",
                table("PART"),
                and(
                    eq(var("x"), var("p").field("pid")),
                    exists(
                        "d",
                        table("DELIVERY"),
                        exists(
                            "u",
                            var("d").field("supply"),
                            eq(var("u").field("part"), var("p").field("pid")),
                        ),
                    ),
                ),
            ),
        ),
        table("SUPPLIER"),
    );
    let out = check_equiv(&e);
    // full unnesting is future work for arbitrary shapes; the strategy
    // must at least reach the outer semijoin and must never regress
    assert!(out.trace.fired("rule1-exists"), "{}", out.trace);
    assert!(
        nested_table_score(&out.expr) < nested_table_score(&e),
        "no progress: {} → {}",
        e,
        out.expr
    );
    // fixture answer: deliveries cover parts 11,12,13,14,15 → s1,s2,s3,s5? —
    // s5 supplies pin(17) + dangling: no. s4: none. So s1,s2,s3.
    let db = supplier_part_db();
    let ev = Evaluator::new(&db);
    assert_eq!(
        ev.eval_closed(&out.expr).unwrap().as_set().unwrap().len(),
        3
    );
}

/// Nesting in both clauses at once: a nestjoin result whose selection also
/// carries a base-table quantifier.
#[test]
fn nesting_in_select_and_where_together() {
    let e = map(
        "s",
        tuple(vec![
            ("sname", var("s").field("sname")),
            (
                "reds",
                map(
                    "p",
                    var("p").field("pname"),
                    select(
                        "p",
                        and(
                            member(var("p").field("pid"), var("s").field("parts")),
                            eq(var("p").field("color"), str_lit("red")),
                        ),
                        table("PART"),
                    ),
                ),
            ),
        ]),
        select(
            "s",
            exists(
                "d",
                table("DELIVERY"),
                eq(var("d").field("supplier"), var("s").field("eid")),
            ),
            table("SUPPLIER"),
        ),
    );
    let out = check_equiv(&e);
    assert!(out.trace.fired("rule1-exists"));
    assert!(out.trace.fired("nestjoin-map"), "{}", out.trace);
    assert_eq!(nested_table_score(&out.expr), 0, "{}", out.expr);
    // s1 and s2 have deliveries; s1's reds = {bolt, screw}, s2's = {screw}
    let db = supplier_part_db();
    let ev = Evaluator::new(&db);
    let rows = ev.eval_closed(&out.expr).unwrap();
    assert_eq!(rows.as_set().unwrap().len(), 2);
}

/// Everything still works on completely empty extents.
#[test]
fn empty_database_edge_cases() {
    let db = oodb::catalog::Database::new(supplier_part_catalog()).unwrap();
    let ev = Evaluator::new(&db);
    let queries: Vec<Expr> = vec![
        select(
            "s",
            exists(
                "p",
                table("PART"),
                member(var("p").field("pid"), var("s").field("parts")),
            ),
            table("SUPPLIER"),
        ),
        semijoin(
            "s",
            "p",
            member(var("p").field("pid"), var("s").field("parts")),
            table("SUPPLIER"),
            table("PART"),
        ),
        nestjoin(
            "s",
            "p",
            Expr::true_(),
            "g",
            table("SUPPLIER"),
            table("PART"),
        ),
        count(table("PART")),
        unnest("supply", table("DELIVERY")),
        nest(
            &["part", "quantity"],
            "supply",
            unnest("supply", table("DELIVERY")),
        ),
    ];
    for q in queries {
        let direct = ev.eval_closed(&q).unwrap();
        let out = Optimizer.optimize(&q, db.catalog()).unwrap();
        assert_eq!(ev.eval_closed(&out.expr).unwrap(), direct);
        let planner = Planner::new(&db);
        let mut stats = Stats::new();
        assert_eq!(
            planner
                .plan(&out.expr)
                .unwrap()
                .execute(&mut stats)
                .unwrap(),
            direct
        );
        match direct {
            Value::Set(s) => assert!(s.is_empty()),
            Value::Int(n) => assert_eq!(n, 0),
            other => panic!("unexpected {other}"),
        }
    }
}

/// A deliberately adversarial query: shadowed variable names everywhere.
#[test]
fn shadowed_variables_survive_rewriting() {
    // every binder is named `x`
    let e = select(
        "x",
        exists(
            "x",
            var("x").field("parts"), // inner x shadows outer in pred, but
            // the RANGE still sees the outer x
            exists("p", table("PART"), eq(var("x"), var("p").field("pid"))),
        ),
        table("SUPPLIER"),
    );
    let out = check_equiv(&e);
    // must still unnest the PART quantifier
    assert!(out.trace.fired("rule1-exists") || out.trace.fired("exists-exchange"));
}
