//! Set-index scans over the reverse-reference index.
//!
//! Every set-of-oid attribute of an extent keeps an *element → owners*
//! index, and the planner lowers `σ[x : x.a ⊇ E …](T)` — and `⊃`, `=`,
//! `∋` and their mirrors — to the unchanged `Filter` over a
//! `SetIndexScan` leaf that reads only the rows the posting lists name
//! (`oodb_engine::physical::set_index`). Its contract is the
//! interpreter's: the same result and the same `EvalError` as the
//! reference `Evaluator`, on both executors, under every execution
//! option (dop 1 and 4, a 4 KiB budget, the row layout, vectorization
//! off), after inserts, and through the library, a `Session`, the wire
//! and a cached replay. The edge cases are pinned by name: an anchor
//! with an empty set and an unknown anchor (both `E = ∅`), a dangling
//! oid, a non-set probe, an error behind the keyed conjunct, and an
//! empty extent.

use oodb::adl::dsl::*;
use oodb::adl::expr::Expr;
use oodb::catalog::Database;
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{
    BatchKind, EvalError, Evaluator, JoinAlgo, JoinOrder, PhysPlan, Planner, PlannerConfig, Stats,
};
use oodb::server::wire::WireClient;
use oodb::server::{net, QueryServer, ServerConfig};
use oodb::value::{ArithOp, CmpOp, Oid, Set, SetCmpOp, Tuple, Value};
use oodb::Pipeline;
use std::sync::Arc;

/// 400 suppliers over 800 parts; a tenth of the suppliers have no parts
/// and a tenth of the references dangle.
fn db() -> Database {
    generate(&GenConfig {
        empty_supplier_fraction: 0.1,
        dangling_fraction: 0.1,
        ..GenConfig::scaled(1_600)
    })
}

/// Every execution option the CI passes vary, each pinned here so one
/// run covers them all: dop 1 and 4, a 4 KiB budget, the row layout
/// and vectorization off.
fn configs() -> Vec<(&'static str, PlannerConfig)> {
    let base = PlannerConfig {
        join_algo: JoinAlgo::Cheapest,
        parallelism: 1,
        parallel_threshold: 0,
        memory_budget: 0,
        batch_kind: BatchKind::Columnar,
        vectorize: true,
        join_order: JoinOrder::Dp,
        timing: false,
    };
    vec![
        ("dop=1", base.clone()),
        (
            "dop=4",
            PlannerConfig {
                parallelism: 4,
                ..base.clone()
            },
        ),
        (
            "budget=4096",
            PlannerConfig {
                memory_budget: 4096,
                ..base.clone()
            },
        ),
        (
            "row",
            PlannerConfig {
                batch_kind: BatchKind::Row,
                ..base.clone()
            },
        ),
        (
            "vectorize=off",
            PlannerConfig {
                vectorize: false,
                ..base
            },
        ),
    ]
}

fn oid(o: u64) -> Value {
    Value::Oid(Oid(o))
}

fn parts_of(row: &Tuple) -> Set {
    row.get("parts").unwrap().as_set().unwrap().clone()
}

/// The suppliers' `parts` sets, in insertion order.
fn supplier_parts(db: &Database) -> Vec<Set> {
    let t = db.table("SUPPLIER").unwrap();
    t.rows().map(parts_of).collect()
}

/// The name of the first supplier whose `parts` size `pick` accepts.
fn anchor(db: &Database, pick: impl Fn(usize) -> bool) -> String {
    let t = db.table("SUPPLIER").unwrap();
    let row = t
        .rows()
        .find(|r| pick(parts_of(r).len()))
        .expect("the generator makes such a supplier");
    match row.get("sname") {
        Some(Value::Str(s)) => s.to_string(),
        other => panic!("{other:?}"),
    }
}

/// An oid some supplier holds that is no part's pid: a dangling
/// reference the index still lists.
fn held_dangling(db: &Database) -> Value {
    let parts = db.table("PART").unwrap();
    supplier_parts(db)
        .iter()
        .flat_map(|s| s.iter().cloned().collect::<Vec<_>>())
        .find(|v| parts.by_oid(v.as_oid().unwrap()).is_none())
        .expect("the generator dangles some references")
}

fn s_parts() -> Expr {
    var("s").field("parts")
}

/// `α[s : s.sname](σ[s : pred](SUPPLIER))`.
fn suppliers_where(pred: Expr) -> Expr {
    map(
        "s",
        var("s").field("sname"),
        select("s", pred, table("SUPPLIER")),
    )
}

/// `⋃ α[t : t.parts](σ[t : t.sname = name](SUPPLIER))`: q31's probe.
fn parts_named(name: &str) -> Expr {
    flatten(map(
        "t",
        var("t").field("parts"),
        select(
            "t",
            eq(var("t").field("sname"), str_lit(name)),
            table("SUPPLIER"),
        ),
    ))
}

/// The shapes a set-index scan answers, with the set-valued probe `e`.
fn set_shapes(e: &Expr) -> Vec<Expr> {
    use SetCmpOp::*;
    vec![
        set_cmp(SupersetEq, s_parts(), e.clone()),
        set_cmp(Superset, s_parts(), e.clone()),
        set_cmp(SetEq, s_parts(), e.clone()),
        Expr::Cmp(CmpOp::Eq, Box::new(e.clone()), Box::new(s_parts())),
        set_cmp(SubsetEq, e.clone(), s_parts()),
        set_cmp(Subset, e.clone(), s_parts()),
    ]
}

/// The shapes with a one-element probe `e`.
fn element_shapes(e: &Expr) -> Vec<Expr> {
    vec![
        set_cmp(SetCmpOp::Contains, s_parts(), e.clone()),
        set_cmp(SetCmpOp::In, e.clone(), s_parts()),
    ]
}

fn has_set_index_scan(p: &PhysPlan) -> bool {
    matches!(p, PhysPlan::SetIndexScan { .. }) || p.children().into_iter().any(has_set_index_scan)
}

/// Plans `e` (unrewritten) under every config and checks both executors
/// against the `Evaluator`: value or error. Returns the streamed runs'
/// `rows_scanned` per config.
fn check(db: &Database, e: &Expr, indexed: bool) -> Vec<u64> {
    let want = Evaluator::new(db).eval_closed(e);
    let mut scanned = Vec::new();
    for (name, config) in configs() {
        let plan = Planner::with_config(db, config).plan(e).unwrap();
        assert_eq!(
            has_set_index_scan(&plan.phys),
            indexed,
            "{name}: {e}\n{}",
            plan.explain()
        );
        let mut streamed = Stats::new();
        let got = plan.execute_streaming(&mut streamed);
        assert_eq!(got, want, "{name} streaming: {e}\n{}", plan.explain());
        let mut materialized = Stats::new();
        let got = plan.execute(&mut materialized);
        assert_eq!(got, want, "{name} materialized: {e}");
        if want.is_ok() {
            assert_eq!(
                streamed.rows_scanned, materialized.rows_scanned,
                "{name}: {e}"
            );
            assert_eq!(streamed.index_probes, materialized.index_probes);
        }
        scanned.push(streamed.rows_scanned);
    }
    scanned
}

#[test]
fn every_shape_agrees_with_the_evaluator() {
    let db = db();
    let suppliers = db.table("SUPPLIER").unwrap().len() as u64;
    let held = anchor(&db, |n| (2..=12).contains(&n));
    let held_set = supplier_parts(&db)
        .into_iter()
        .find(|s| (2..=12).contains(&s.len()))
        .unwrap();
    let first = held_set.iter().next().unwrap().clone();
    let dangling = held_dangling(&db);
    let probes = [
        // a mid-sized anchor, through a subquery and a literal
        parts_named(&held),
        lit(Value::Set(held_set.clone())),
        // E = ∅: an anchor with no parts, an unknown anchor
        parts_named(&anchor(&db, |n| n == 0)),
        parts_named("no-such-supplier"),
        // an oid nobody holds, alone and next to a held one
        lit(Value::set([oid(999_999_999)])),
        lit(Value::set([first.clone(), oid(999_999_999)])),
        // a dangling reference some supplier holds
        lit(Value::set([dangling.clone()])),
    ];
    for probe in &probes {
        for pred in set_shapes(probe) {
            check(&db, &suppliers_where(pred), true);
        }
    }
    // the probe bound by an enclosing `let`: an outer slot of the scan
    for pred in set_shapes(&var("sub")) {
        let e = let_("sub", parts_named(&held), suppliers_where(pred));
        check(&db, &e, true);
    }
    for elem in [first.clone(), oid(999_999_999), dangling, Value::Int(3)] {
        for pred in element_shapes(&lit(elem)) {
            let scanned = check(&db, &suppliers_where(pred), true);
            assert!(scanned.iter().all(|&n| n < suppliers), "{scanned:?}");
        }
    }
    // the held anchor reads its posting lists, not the extent: the
    // anchor lookup's scan and the few rows that hold its parts
    let pred = set_cmp(SetCmpOp::SupersetEq, s_parts(), var("sub"));
    let e = let_("sub", parts_named(&held), suppliers_where(pred));
    for n in check(&db, &e, true) {
        assert!(n < 2 * suppliers, "{n}");
    }
    // a second conjunct is re-checked on the candidates
    let e = suppliers_where(and(
        set_cmp(SetCmpOp::Contains, s_parts(), lit(first)),
        ne(var("s").field("sname"), str_lit(&held)),
    ));
    check(&db, &e, true);
}

#[test]
fn errors_match_the_evaluator() {
    let db = db();
    let held = anchor(&db, |n| (2..=12).contains(&n));
    let cases = [
        // a non-set probe, as ADL: the interpreter's type error
        set_cmp(SetCmpOp::SupersetEq, s_parts(), int(5)),
        set_cmp(SetCmpOp::SubsetEq, str_lit("x"), s_parts()),
        Expr::Cmp(CmpOp::Eq, Box::new(s_parts()), Box::new(lit(Value::Null))),
        // a probe whose evaluation fails
        set_cmp(SetCmpOp::SupersetEq, s_parts(), var("unbound")),
        set_cmp(
            SetCmpOp::Contains,
            s_parts(),
            arith(ArithOp::Div, int(1), int(0)),
        ),
        // an error behind the keyed conjunct, on the rows that pass it
        and(
            set_cmp(SetCmpOp::SupersetEq, s_parts(), parts_named(&held)),
            eq(arith(ArithOp::Add, var("s").field("sname"), int(1)), int(2)),
        ),
    ];
    for pred in cases {
        let e = suppliers_where(pred);
        assert!(Evaluator::new(&db).eval_closed(&e).is_err(), "{e}");
        check(&db, &e, true);
    }
    // a keyed shape behind a conjunct that fails on every row is not
    // keyed on: the index would skip the rows that raise
    let e = suppliers_where(and(
        eq(arith(ArithOp::Add, var("s").field("sname"), int(1)), int(2)),
        set_cmp(SetCmpOp::SupersetEq, s_parts(), parts_named(&held)),
    ));
    assert!(matches!(
        Evaluator::new(&db).eval_closed(&e),
        Err(EvalError::Value(_))
    ));
    check(&db, &e, false);
}

#[test]
fn an_empty_extent_evaluates_no_probe() {
    let db = Database::new(db().catalog().clone()).unwrap();
    for pred in [
        set_cmp(SetCmpOp::SupersetEq, s_parts(), int(5)),
        set_cmp(SetCmpOp::SupersetEq, s_parts(), var("unbound")),
        set_cmp(SetCmpOp::Contains, s_parts(), lit(oid(1))),
        set_cmp(SetCmpOp::SetEq, s_parts(), parts_named("supplier-0")),
    ] {
        let e = suppliers_where(pred);
        assert_eq!(Evaluator::new(&db).eval_closed(&e), Ok(Value::empty_set()));
        check(&db, &e, true);
    }
}

#[test]
fn reads_after_inserts_see_the_new_postings() {
    let mut db = db();
    let held = supplier_parts(&db)
        .into_iter()
        .find(|s| !s.is_empty())
        .unwrap();
    let old = held.iter().next().unwrap().clone();
    let fresh = oid(888_888_888);
    let probe = lit(Value::set([old.clone(), fresh.clone()]));
    let e = suppliers_where(set_cmp(SetCmpOp::SupersetEq, s_parts(), probe));
    let by_fresh = suppliers_where(set_cmp(SetCmpOp::Contains, s_parts(), lit(fresh.clone())));
    assert_eq!(Evaluator::new(&db).eval_closed(&e), Ok(Value::empty_set()));
    check(&db, &e, true);
    // read once so the snapshot exists, then write
    let mut stats = Stats::new();
    Planner::new(&db)
        .plan(&by_fresh)
        .unwrap()
        .execute_streaming(&mut stats)
        .unwrap();
    for (k, parts) in [
        (0, vec![old.clone(), fresh.clone()]),
        (1, vec![fresh.clone()]),
    ] {
        db.insert(
            "SUPPLIER",
            Tuple::from_pairs([
                ("eid", oid(777_000_000 + k)),
                ("sname", Value::str(&format!("new-{k}"))),
                ("parts", Value::set(parts)),
            ]),
        )
        .unwrap();
    }
    assert_eq!(
        Evaluator::new(&db).eval_closed(&e),
        Ok(Value::set([Value::str("new-0")]))
    );
    check(&db, &e, true);
    assert_eq!(
        Evaluator::new(&db).eval_closed(&by_fresh),
        Ok(Value::set([Value::str("new-0"), Value::str("new-1")]))
    );
    check(&db, &by_fresh, true);
}

/// q31 and its `⊃`, `=` and mirrored `⊆` variants.
fn q31_texts(db: &Database) -> Vec<String> {
    let sub = |name: &str| {
        format!("flatten(select t.parts from t in SUPPLIER where t.sname = \"{name}\")")
    };
    let held = anchor(db, |n| (2..=12).contains(&n));
    let empty = anchor(db, |n| n == 0);
    let mut texts = Vec::new();
    for name in [held.as_str(), empty.as_str(), "no-such-supplier"] {
        for op in ["supseteq", "supset", "="] {
            texts.push(format!(
                "select s.sname from s in SUPPLIER where s.parts {op} {}",
                sub(name)
            ));
        }
        texts.push(format!(
            "select s.sname from s in SUPPLIER where {} subseteq s.parts",
            sub(name)
        ));
    }
    texts
}

#[test]
fn library_session_and_cached_replay_agree() {
    let db = db();
    let naive = Pipeline::new(&db);
    for (name, config) in configs() {
        let library = Pipeline::with_config(&db, config.clone());
        let server = QueryServer::with_config(
            &db,
            ServerConfig {
                planner: config,
                ..ServerConfig::default()
            },
        );
        let session = server.session();
        for text in q31_texts(&db) {
            let want = naive.run_naive(&text).unwrap();
            let out = library.run(&text).unwrap();
            assert_eq!(out.result, want, "{name} library: {text}");
            assert!(out.explain.contains("SetIndexScan"), "{}", out.explain);
            let first = session.run(&text).unwrap();
            assert_eq!(first.result, want, "{name} session: {text}");
            let replay = session.run(&text).unwrap();
            assert_eq!(replay.result, want, "{name} replay: {text}");
            assert!(replay.stats.result_cache_hits > 0, "{name}: {text}");
        }
    }
}

#[test]
fn the_wire_agrees() {
    let db = Arc::new(db());
    let naive = Pipeline::new(&db);
    let handle = net::serve(Arc::clone(&db), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    for (i, text) in q31_texts(&db).iter().enumerate() {
        let want = naive.run_naive(text).unwrap();
        // the second round trip replays the cached result
        for round in 0..2 {
            let (_, rows) = client
                .query((2 * i + round) as u32, text)
                .unwrap()
                .unwrap_or_else(|(code, msg)| panic!("{text}: {code} {msg}"));
            assert_eq!(Value::set(rows), want, "round {round}: {text}");
        }
    }
    drop(client);
    handle.shutdown();
}

/// The node whose input is the set-index scan, and its parent.
fn keyed_filter<'p>(
    p: &'p PhysPlan,
    parent: Option<&'p PhysPlan>,
) -> Option<(&'p PhysPlan, Option<&'p PhysPlan>)> {
    if let PhysPlan::Filter { input, .. } = p {
        if matches!(**input, PhysPlan::SetIndexScan { .. }) {
            return Some((p, parent));
        }
    }
    p.children()
        .into_iter()
        .find_map(|c| keyed_filter(c, Some(p)))
}

#[test]
fn q31_plans_a_set_index_scan_without_an_exchange() {
    let db = db();
    let text = q31_texts(&db).remove(0);
    let query = oodb::oosql::parse(&text).unwrap();
    let nested = oodb::translate::translate(&query, db.catalog()).unwrap();
    let rewritten = Optimizer.optimize(&nested, db.catalog()).unwrap().expr;
    for (name, config) in configs() {
        let plan = Planner::with_config(&db, config).plan(&rewritten).unwrap();
        let explain = plan.explain();
        assert!(
            explain.contains("SetIndexScan SUPPLIER.parts ⊇ sub"),
            "{name}:\n{explain}"
        );
        let (filter, parent) = keyed_filter(&plan.phys, None).expect("a keyed filter");
        let PhysPlan::Filter { pred, .. } = filter else {
            unreachable!()
        };
        assert!(
            matches!(pred, Expr::SetCmp(SetCmpOp::SupersetEq, ..)),
            "{pred}"
        );
        assert!(
            !matches!(parent, Some(PhysPlan::Exchange { .. })),
            "{name}:\n{explain}"
        );
        // the filter's estimate is the posting list's, not a fixed
        // fraction of the extent
        let analyzed = plan.explain_analyze(&mut Stats::new()).unwrap();
        let line = analyzed
            .text
            .lines()
            .find(|l| l.contains("Filter [(s.parts ⊇ sub)]"))
            .unwrap();
        let err: f64 = line
            .rsplit("err=")
            .next()
            .and_then(|s| s.trim_end_matches(")").trim_end_matches('x').parse().ok())
            .unwrap_or_else(|| panic!("{line}"));
        assert!(err < 10.0, "{name}: {line}");
    }
}
