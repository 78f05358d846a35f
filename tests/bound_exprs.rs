//! The bound-expression differential suite.
//!
//! Every `Filter` predicate, `Map` body, join key, residual and nestjoin
//! function runs as a [`Bound`] expression, lowered once per plan
//! (`oodb_engine::bound`). Its contract is exact agreement with the
//! reference [`Evaluator`] on the same bindings: the same value, the same
//! `EvalError`, and the same `Stats` counters. This suite draws random
//! expressions over one or two row variables (`x`, `y`) and an outer
//! `Env` variable (`o`), with nested `Map`/`Select`/quantifiers, `deref`,
//! tuple constructors and interpreter-leaf subtrees (a base table, a
//! `let`, an unnest), and evaluates each both ways over rows of the
//! paper's fixture and of a scale-200 generated database. Ill-typed
//! draws are kept on purpose: missing fields, unbound variables, type
//! mismatches, comparisons with `NULL` and dangling pointers must fail
//! identically too.
//!
//! The filter's column fast path (the selection-mask tier) reads the same
//! bound predicate: the shapes it accepts, the ones it leaves to the row
//! path, and its error parity are pinned at the end.

use oodb::adl::dsl::*;
use oodb::adl::expr::{AggOp, Expr, SetOp};
use oodb::catalog::fixtures::supplier_part_db;
use oodb::catalog::{Catalog, ClassDef, Database};
use oodb::datagen::{generate, GenConfig};
use oodb::engine::bound::Bound;
use oodb::engine::{BatchKind, Env, EvalError, Evaluator, Planner, PlannerConfig, Stats};
use oodb::value::{ArithOp, CmpOp, Name, Oid, SetCmpOp, Tuple, TupleType, Type, Value, ValueError};
use proptest::prelude::*;
use proptest::sample::select as pick;
use std::rc::Rc;

/// Expression strategies by result type, over the row variables `x`
/// (a SUPPLIER row) and `y` (a PART row), the outer variable `o` (a set
/// of PART oids) and, inside a nested iterator, the local `z` (a PART
/// oid). A few leaves are ill-typed on purpose (a missing field, an
/// unbound variable, `NULL`, a dangling oid), so every error path is
/// drawn along with the well-typed ones.
#[derive(Clone)]
struct Typed {
    int: BoxedStrategy<Expr>,
    str: BoxedStrategy<Expr>,
    oid: BoxedStrategy<Expr>,
    oids: BoxedStrategy<Expr>,
    tup: BoxedStrategy<Expr>,
    tups: BoxedStrategy<Expr>,
    bool: BoxedStrategy<Expr>,
}

fn lits<T: Clone + 'static>(xs: Vec<T>, f: fn(T) -> Expr) -> BoxedStrategy<Expr> {
    pick(xs).prop_map(f).boxed()
}

impl Typed {
    /// The leaves; `local` adds the nested iterator's `z`.
    fn leaves(local: bool) -> Typed {
        let mut oid = vec![
            var("y").field("pid"),
            var("y").field("pid"),
            var("y").field("pid"),
            var("x").field("eid"),
            lit(Value::Oid(Oid(999_999))),
        ];
        if local {
            oid.extend([var("z"), var("z")]);
        }
        Typed {
            int: prop_oneof![
                lits(
                    vec![var("y").field("price"), var("x").field("sname")],
                    |e| e
                ),
                (0i64..1100).prop_map(int),
                Just(lit(Value::Null)),
            ]
            .boxed(),
            str: lits(
                vec![
                    var("x").field("sname"),
                    var("y").field("pname"),
                    var("y").field("color"),
                    str_lit("red"),
                    str_lit("s1"),
                ],
                |e| e,
            ),
            oid: lits(oid, |e| e),
            oids: lits(
                vec![
                    var("x").field("parts"),
                    var("x").field("parts"),
                    var("x").field("parts"),
                    var("o"),
                    var("o"),
                    var("o"),
                    Expr::empty_set(),
                    var("u"),
                ],
                |e| e,
            ),
            tup: lits(
                vec![var("x"), var("y"), var("y"), var("x").field("nope")],
                |e| e,
            ),
            tups: lits(
                vec![table("PART"), unnest("supply", table("DELIVERY"))],
                |e| e,
            ),
            bool: lits(vec![Expr::true_(), Expr::false_(), lit(Value::Null)], |e| e),
        }
    }

    /// One more level: every shape over `self`, nested iterators with
    /// their bodies drawn from `body` (the level that sees `z`).
    fn grow(&self, body: &Typed) -> Typed {
        let c = self.clone();
        let b = body.clone();
        let cmp = pick(vec![CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge]);
        Typed {
            int: prop_oneof![
                c.int.clone(),
                (c.int.clone(), c.int.clone()).prop_map(|(a, e)| arith(ArithOp::Add, a, e)),
                c.oids.clone().prop_map(count),
                c.tups.clone().prop_map(count),
                (
                    pick(vec![AggOp::Sum, AggOp::Min]),
                    b.int.clone(),
                    c.oids.clone()
                )
                    .prop_map(|(op, body, over)| agg(op, map("z", body, over))),
                (c.int.clone(), b.int.clone()).prop_map(|(v, body)| let_(
                    "v",
                    v,
                    arith(ArithOp::Add, var("v"), body)
                )),
            ]
            .boxed(),
            str: prop_oneof![
                c.str.clone(),
                (pick(vec!["pname", "color"]), c.oid.clone())
                    .prop_map(|(a, o)| deref(o, "Part").field(a)),
                c.tup.clone().prop_map(|t| t.field("b")),
            ]
            .boxed(),
            oid: prop_oneof![
                c.oid.clone(),
                c.oid.clone().prop_map(|o| deref(o, "Part").field("pid")),
            ]
            .boxed(),
            oids: prop_oneof![
                c.oids.clone(),
                (
                    pick(vec![SetOp::Union, SetOp::Difference, SetOp::Intersect]),
                    c.oids.clone(),
                    c.oids.clone()
                )
                    .prop_map(|(op, a, e)| set_op(op, a, e)),
                (c.oid.clone(), c.oid.clone()).prop_map(|(a, e)| Expr::SetCons(vec![a, e])),
                (b.bool.clone(), c.oids.clone()).prop_map(|(p, over)| select("z", p, over)),
                (b.oid.clone(), c.oids.clone()).prop_map(|(e, over)| map("z", e, over)),
                (c.oids.clone(), c.oids.clone())
                    .prop_map(|(a, e)| flatten(Expr::SetCons(vec![a, e]))),
            ]
            .boxed(),
            tup: prop_oneof![
                c.tup.clone(),
                c.oid.clone().prop_map(|o| deref(o, "Part")),
                (
                    pick(vec![("a", "b"), ("b", "a"), ("a", "a")]),
                    c.int.clone(),
                    c.str.clone()
                )
                    .prop_map(|((n, m), i, s)| tuple(vec![(n, i), (m, s)])),
                (c.tup.clone(), c.int.clone()).prop_map(|(t, i)| except(t, vec![("price", i)])),
                (c.int.clone(), c.str.clone())
                    .prop_map(|(i, s)| { concat(tuple(vec![("a", i)]), tuple(vec![("b", s)])) }),
                c.tup
                    .clone()
                    .prop_map(|t| tuple_project(t, &["pid", "pname"])),
            ]
            .boxed(),
            tups: prop_oneof![
                c.tups.clone(),
                (b.tup.clone(), c.oids.clone()).prop_map(|(t, over)| map("z", t, over)),
                (c.int.clone(), c.oids.clone()).prop_map(|(i, over)| {
                    select(
                        "p",
                        and(
                            lt(var("p").field("price"), i),
                            member(var("p").field("pid"), over),
                        ),
                        table("PART"),
                    )
                }),
            ]
            .boxed(),
            bool: prop_oneof![
                c.bool.clone(),
                (cmp, c.int.clone(), c.int.clone()).prop_map(|(op, a, e)| Expr::Cmp(
                    op,
                    a.into(),
                    e.into()
                )),
                (c.str.clone(), c.str.clone()).prop_map(|(a, e)| eq(a, e)),
                (c.oid.clone(), c.oids.clone()).prop_map(|(a, e)| member(a, e)),
                (
                    pick(vec![SetCmpOp::SupersetEq, SetCmpOp::SubsetEq]),
                    c.oids.clone(),
                    c.oids.clone()
                )
                    .prop_map(|(op, a, e)| set_cmp(op, a, e)),
                (c.bool.clone(), c.bool.clone()).prop_map(|(a, e)| and(a, e)),
                (c.bool.clone(), c.bool.clone()).prop_map(|(a, e)| or(a, e)),
                c.bool.clone().prop_map(not),
                c.int.clone().prop_map(|i| Expr::IsNull(i.into())),
                (any::<bool>(), c.oids.clone(), b.bool.clone()).prop_map(|(all, over, p)| {
                    if all {
                        forall("z", over, p)
                    } else {
                        exists("z", over, p)
                    }
                }),
                (c.tup.clone(), c.tup.clone()).prop_map(|(a, e)| eq(a, e)),
            ]
            .boxed(),
        }
    }
}

/// Random expressions of every type, nested up to four levels.
fn expr() -> BoxedStrategy<Expr> {
    let (mut outer, mut local) = (Typed::leaves(false), Typed::leaves(true));
    for _ in 0..4 {
        let next_local = local.grow(&local);
        outer = outer.grow(&local);
        local = next_local;
    }
    prop_oneof![
        outer.bool.clone(),
        outer.bool,
        outer.int,
        outer.str,
        outer.oids,
        outer.tup,
        outer.tups,
    ]
    .boxed()
}

/// A database and the rows a case binds: `x` ranges over SUPPLIER, `y`
/// over PART, and `o` over the suppliers' part sets.
struct Fixture {
    db: Database,
    suppliers: Vec<Value>,
    parts: Vec<Value>,
}

impl Fixture {
    fn new(db: Database) -> Self {
        let rows = |extent: &str| -> Vec<Value> {
            db.table(extent)
                .expect("a generated extent")
                .as_set()
                .iter()
                .cloned()
                .collect()
        };
        let (suppliers, parts) = (rows("SUPPLIER"), rows("PART"));
        Fixture {
            db,
            suppliers,
            parts,
        }
    }

    fn supplier(&self, i: usize) -> &Value {
        &self.suppliers[i % self.suppliers.len()]
    }

    fn part(&self, i: usize) -> &Value {
        &self.parts[i % self.parts.len()]
    }
}

thread_local! {
    /// The paper's fixture and a scale-200 generated database, built once
    /// per test thread.
    static FIXTURES: Rc<[Fixture; 2]> = Rc::new([
        Fixture::new(supplier_part_db()),
        Fixture::new(generate(&GenConfig {
            seed: 7,
            ..GenConfig::scaled(200)
        })),
    ]);
}

fn fixtures() -> Rc<[Fixture; 2]> {
    FIXTURES.with(Rc::clone)
}

/// One evaluation's result and counters.
type Outcome = (Result<Value, EvalError>, Stats);

/// Runs `e` both ways with `rows` bound to `vars` above an `Env` holding
/// `o = outer`; returns the bound and then the reference outcome.
fn both(
    db: &Database,
    e: &Expr,
    vars: &[&str],
    rows: &[&Value],
    outer: &Value,
) -> (Outcome, Outcome) {
    let ev = Evaluator::new(db);
    let mut env = Env::new();
    env.push(&Name::from("o"), outer.clone());
    let mut reference = env.clone();
    for (v, row) in vars.iter().zip(rows) {
        reference.push(&Name::from(*v), (*row).clone());
    }
    let mut ref_stats = Stats::new();
    let want = ev.eval(e, &mut reference, &mut ref_stats);
    let names: Vec<Name> = vars.iter().map(|v| Name::from(*v)).collect();
    let slots: Vec<&Name> = names.iter().collect();
    let bound = Bound::new(e, &slots);
    let mut stats = Stats::new();
    let got = bound.eval(rows, &ev, &mut env, &mut stats);
    assert_eq!(
        env.depth(),
        1,
        "the bound evaluation left the Env unbalanced"
    );
    ((got, stats), (want, ref_stats))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, ..ProptestConfig::default() })]

    #[test]
    fn bound_matches_evaluator(
        e in expr(),
        picks in (0usize..100_000, 0usize..100_000, 0usize..100_000),
        two in (0u8..4).prop_map(|n| n > 0),
    ) {
        let (i, j, k) = picks;
        for fx in fixtures().iter() {
            let (x, y) = (fx.supplier(i), fx.part(j));
            let outer = fx.supplier(k).as_tuple().unwrap().get("parts").unwrap();
            let (vars, rows): (&[&str], Vec<&Value>) = if two {
                (&["x", "y"], vec![x, y])
            } else {
                (&["x"], vec![x])
            };
            let ((got, stats), (want, ref_stats)) = both(&fx.db, &e, vars, &rows, outer);
            prop_assert_eq!(&got, &want, "value/error of {} over {:?}", e, vars);
            prop_assert_eq!(&stats, &ref_stats, "counters of {}", e);
        }
    }
}

/// The error classes the random draws must reach are each pinned once,
/// so the suite cannot silently drift into comparing only successes.
#[test]
fn every_error_class_agrees() {
    let fx = &fixtures()[0];
    let sname = |r: &&Value| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s5"));
    let (supplier, s5) = (fx.supplier(0), fx.suppliers.iter().find(sname).unwrap());
    type Class = fn(&EvalError) -> bool;
    let cases: Vec<(Expr, Class)> = vec![
        (var("x").field("nope"), |e| {
            matches!(e, EvalError::Value(ValueError::NoSuchField { .. }))
        }),
        (eq(var("u"), int(1)), |e| {
            matches!(e, EvalError::UnboundVar(_))
        }),
        (lt(var("x").field("sname"), int(3)), |e| {
            matches!(e, EvalError::Value(ValueError::TypeMismatch { .. }))
        }),
        (eq(var("x").field("sname"), lit(Value::Null)), |e| {
            matches!(e, EvalError::NullNotAllowed(_))
        }),
        (
            map(
                "p",
                deref(var("p"), "Part").field("pname"),
                var("x").field("parts"),
            ),
            |e| matches!(e, EvalError::DanglingPointer { .. }),
        ),
    ];
    for (e, class) in cases {
        // s5 holds a pointer to no PART object
        let row = if matches!(&e, Expr::Map { .. }) {
            s5
        } else {
            supplier
        };
        let ((got, stats), (want, ref_stats)) = both(&fx.db, &e, &["x"], &[row], supplier);
        assert_eq!(got, want, "{e}");
        assert_eq!(stats, ref_stats, "{e}");
        assert!(class(got.as_ref().unwrap_err()), "{e}: {got:?}");
    }
}

// --------------------------------------------------------------------
// The selection-mask tier.

/// `PT`: 40 rows over every column kind the mask tier meets: two `Int`
/// columns, a `Float`, two strings and a tuple-valued attribute.
fn mask_db() -> Database {
    let mut cat = Catalog::new();
    cat.add_class(
        ClassDef::new(
            Name::from("Point"),
            Name::from("PT"),
            Name::from("id"),
            TupleType::from_pairs([
                ("id", Type::Oid(Some(Name::from("Point")))),
                ("n", Type::Int),
                ("m", Type::Int),
                ("f", Type::Float),
                ("color", Type::Str),
                ("name", Type::Str),
                ("at", Type::tuple([("x", Type::Int)])),
            ]),
        )
        .expect("valid class"),
    )
    .expect("fresh catalog");
    let mut db = Database::new(cat).expect("closed catalog");
    let colors = ["red", "green", "blue"];
    for i in 0..40i64 {
        let row = Tuple::from_pairs([
            ("id", Value::Oid(Oid(1000 + i as u64))),
            ("n", Value::Int(i)),
            ("m", Value::Int(30 - i)),
            ("f", Value::float(i as f64 * 0.5)),
            ("color", Value::str(colors[i as usize % 3])),
            ("name", Value::str(if i % 4 == 0 { "red" } else { "other" })),
            ("at", Value::tuple([("x", Value::Int(i % 7))])),
        ]);
        db.insert("PT", row).expect("row conforms");
    }
    db
}

/// `σ[p : pred](PT)` run through the streaming pipeline, serially.
fn filter_pt(
    db: &Database,
    q: &Expr,
    vectorize: bool,
    batch_kind: BatchKind,
) -> (Result<Value, EvalError>, Stats) {
    let config = PlannerConfig {
        vectorize,
        batch_kind,
        parallelism: 1,
        memory_budget: 0,
        ..Default::default()
    };
    let mut stats = Stats::new();
    let got = Planner::with_config(db, config)
        .plan(q)
        .expect("plan")
        .execute_streaming(&mut stats);
    (got, stats)
}

fn p(attr: &str) -> Expr {
    var("p").field(attr)
}

/// Every shape the mask tier accepts — a row field compared with a
/// literal on either side or with another row field, under `NOT`, `OR`
/// and `AND` — runs as a mask and gives the `Evaluator`'s result.
#[test]
fn mask_tier_accepts_column_comparison_trees() {
    let db = mask_db();
    let ev = Evaluator::new(&db);
    let preds = [
        lt(p("n"), int(20)),
        ge(int(20), p("n")),
        le(p("n"), p("m")),
        gt(p("f"), lit(Value::float(7.5))),
        lt(p("n"), lit(Value::float(3.5))),
        eq(p("color"), str_lit("red")),
        ne(p("color"), p("name")),
        not(lt(p("n"), int(10))),
        or(lt(p("n"), int(5)), gt(p("m"), int(20))),
        and(
            ne(p("n"), p("m")),
            not(or(eq(p("color"), str_lit("blue")), lt(int(30), p("n")))),
        ),
    ];
    for pred in preds {
        let q = select("p", pred, table("PT"));
        let want = ev.eval_closed(&q);
        let (got, stats) = filter_pt(&db, &q, true, BatchKind::Columnar);
        assert_eq!(got, want, "{q}");
        assert!(stats.mask_batches > 0, "{q} did not run as a mask");
    }
}

/// Shapes the mask tier leaves to the row path, and the two switches
/// that turn it off, give the same results with no mask batch.
#[test]
fn mask_tier_declines_other_shapes_and_layouts() {
    let db = mask_db();
    let ev = Evaluator::new(&db);
    let simple = select("p", lt(p("n"), int(20)), table("PT"));
    let cases = [
        // an outer slot is not a literal of the plan
        (
            let_(
                "sub",
                int(20),
                select("p", lt(p("n"), var("sub")), table("PT")),
            ),
            true,
            BatchKind::Columnar,
        ),
        // a nested field reads no column
        (
            select("p", lt(p("at").field("x"), int(3)), table("PT")),
            true,
            BatchKind::Columnar,
        ),
        (simple.clone(), true, BatchKind::Row),
        (simple, false, BatchKind::Columnar),
    ];
    for (q, vectorize, batch_kind) in cases {
        let want = ev.eval_closed(&q);
        assert!(want.is_ok(), "{q}: {want:?}");
        let (got, stats) = filter_pt(&db, &q, vectorize, batch_kind);
        assert_eq!(got, want, "{q} vectorize={vectorize} {batch_kind:?}");
        assert_eq!(
            stats.mask_batches, 0,
            "{q} vectorize={vectorize} {batch_kind:?} ran as a mask"
        );
    }
}

/// A `NULL` literal and an ordered comparison across constructors fail
/// on the mask tier with the `Evaluator`'s exact error — also when a
/// short-circuit lets the first rows pass.
#[test]
fn mask_tier_errors_match_evaluator() {
    let db = mask_db();
    let ev = Evaluator::new(&db);
    let preds = [
        eq(p("n"), lit(Value::Null)),
        lt(lit(Value::Null), p("f")),
        lt(p("color"), int(3)),
        or(lt(p("n"), int(10)), lt(p("color"), int(3))),
        and(gt(p("m"), int(0)), lt(p("name"), p("n"))),
    ];
    for pred in preds {
        let q = select("p", pred, table("PT"));
        let want = ev.eval_closed(&q);
        assert!(want.is_err(), "{q}: {want:?}");
        let (got, stats) = filter_pt(&db, &q, true, BatchKind::Columnar);
        assert_eq!(got, want, "{q}");
        assert!(stats.mask_batches > 0, "{q} did not run as a mask");
    }
}
