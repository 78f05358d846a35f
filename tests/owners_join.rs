//! Owner joins: nestjoins, semijoins and antijoins on `k(y) ∈ x.a`
//! driven from the left extent's reverse-reference index.
//!
//! When the left operand is a bare scan of an extent that keeps an
//! *element → owners* index on `a`, the planner may pick
//! `JoinFamily::Owners`: each right row's key is looked up once in that
//! index, and each left row finds its matches by its oid's position — no
//! hash table, no hash probe, no hash exchange. Its contract is the
//! interpreter's: the same result and the same `EvalError` as the
//! reference `Evaluator`, on both executors, at dop 1 and 2, in both
//! batch layouts, after inserts into both extents, and through a
//! memory-capped `QueryServer`; and one `index_probes` per right row.
//! The plan shape is pinned too: the family is chosen for a bare-scan
//! left and declined for a filtered left, under a bounded planner
//! budget and under every forced `JoinAlgo`.

use oodb::adl::dsl::*;
use oodb::adl::expr::{Expr, SetOp};
use oodb::catalog::Database;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::physical::JoinFamily;
use oodb::engine::{
    BatchKind, Evaluator, JoinAlgo, JoinOrder, PhysPlan, Planner, PlannerConfig, Stats,
};
use oodb::server::{QueryServer, ServerConfig};
use oodb::value::{ArithOp, Oid, Tuple, Value};
use oodb::Pipeline;

/// 100 suppliers over 200 parts; a tenth of the suppliers have no parts
/// and a tenth hold a dangling reference.
fn db() -> Database {
    generate(&GenConfig {
        empty_supplier_fraction: 0.1,
        dangling_fraction: 0.1,
        ..GenConfig::scaled(400)
    })
}

fn base() -> PlannerConfig {
    PlannerConfig {
        join_algo: JoinAlgo::Cheapest,
        parallelism: 1,
        parallel_threshold: 0,
        memory_budget: 0,
        batch_kind: BatchKind::Columnar,
        vectorize: true,
        join_order: JoinOrder::Dp,
        timing: false,
    }
}

/// dop 1 and 2, each in both batch layouts (the exchange threshold is 0,
/// so dop 2 inserts every exchange it can).
fn configs() -> Vec<(String, PlannerConfig)> {
    let mut out = Vec::new();
    for parallelism in [1, 2] {
        for batch_kind in [BatchKind::Columnar, BatchKind::Row] {
            let name = format!("dop={parallelism} {batch_kind:?}");
            let config = PlannerConfig {
                parallelism,
                batch_kind,
                ..base()
            };
            out.push((name, config));
        }
    }
    out
}

fn oid(o: u64) -> Value {
    Value::Oid(Oid(o))
}

/// The owner join in `p`, if any.
fn owner_join(p: &PhysPlan) -> Option<&PhysPlan> {
    match p {
        PhysPlan::Join { spec, .. } if matches!(spec.family, JoinFamily::Owners { .. }) => Some(p),
        other => other.children().into_iter().find_map(owner_join),
    }
}

/// `p.pid ∈ s.parts`.
fn holds() -> Expr {
    member(var("p").field("pid"), var("s").field("parts"))
}

/// `σ[p : p.price < bound](PART)`.
fn parts_under(bound: i64) -> Expr {
    select("p", lt(var("p").field("price"), int(bound)), table("PART"))
}

/// The three modes over `SUPPLIER` and `right` on `pred`.
fn modes(pred: &Expr, right: &Expr) -> Vec<Expr> {
    let s = || table("SUPPLIER");
    vec![
        nestjoin("s", "p", pred.clone(), "ys", s(), right.clone()),
        semijoin("s", "p", pred.clone(), s(), right.clone()),
        antijoin("s", "p", pred.clone(), s(), right.clone()),
    ]
}

/// Plans `e` (unrewritten) under every config, asserts that it runs an
/// owner join whose left is the bare `SUPPLIER` scan, and checks both
/// executors against the `Evaluator`: value or error; on success one
/// index probe per row of `right`, one oid lookup per supplier, and no
/// hash work.
fn check(db: &Database, e: &Expr, right: &Expr) {
    let ev = Evaluator::new(db);
    let want = ev.eval_closed(e);
    let right_rows = ev
        .eval_closed(right)
        .map(|r| r.as_set().unwrap().len() as u64);
    let suppliers = db.table("SUPPLIER").unwrap().len() as u64;
    for (name, config) in configs() {
        let plan = Planner::with_config(db, config).plan(e).unwrap();
        let explain = plan.explain();
        let Some(PhysPlan::Join { left, .. }) = owner_join(&plan.phys) else {
            panic!("{name}: no owner join for {e}\n{explain}");
        };
        assert!(
            matches!(&**left, PhysPlan::Scan(t) if t.as_ref() == "SUPPLIER"),
            "{name}: the left scan is not bare\n{explain}"
        );
        assert!(!explain.contains("Exchange hash"), "{name}:\n{explain}");
        let mut streamed = Stats::new();
        let got = plan.execute_streaming(&mut streamed);
        assert_eq!(got, want, "{name} streaming: {e}\n{explain}");
        let mut materialized = Stats::new();
        let got = plan.execute(&mut materialized);
        assert_eq!(got, want, "{name} materialized: {e}");
        if want.is_ok() {
            let right_rows = right_rows.clone().unwrap();
            for (how, stats) in [("streaming", &streamed), ("materialized", &materialized)] {
                let context = format!("{name} {how}: {e}");
                assert_eq!(stats.index_probes, right_rows, "{context}");
                assert_eq!(stats.oid_lookups, suppliers, "{context}");
                assert_eq!(stats.hash_build_rows, 0, "{context}");
                assert_eq!(stats.hash_probes, 0, "{context}");
            }
        }
    }
}

#[test]
fn every_mode_agrees_with_the_evaluator() {
    let db = db();
    let right = parts_under(500);
    for e in modes(&holds(), &right) {
        check(&db, &e, &right);
    }
    // a residual that reads both rows
    let both = and(
        holds(),
        lt(
            var("p").field("price"),
            arith(ArithOp::Mul, count(var("s").field("parts")), int(60)),
        ),
    );
    for e in modes(&both, &right) {
        check(&db, &e, &right);
    }
    // the whole extent on the right
    for e in modes(&holds(), &table("PART")) {
        check(&db, &e, &table("PART"));
    }
}

#[test]
fn projecting_groups_are_canonical() {
    let db = db();
    let right = parts_under(700);
    // `p.color` repeats within a group: the group dedupes it
    for rfunc in [var("p").field("pname"), var("p").field("color")] {
        let e = nestjoin_with(
            "s",
            "p",
            holds(),
            rfunc,
            "ys",
            table("SUPPLIER"),
            right.clone(),
        );
        check(&db, &e, &right);
        let got = Planner::new(&db)
            .plan(&e)
            .unwrap()
            .execute_streaming(&mut Stats::new())
            .unwrap();
        let mut grouped = 0;
        for row in got.as_set().unwrap().iter() {
            let group = row.as_tuple().unwrap().get("ys").unwrap().as_set().unwrap();
            assert!(group.as_slice().windows(2).all(|w| w[0] < w[1]), "{row}");
            grouped += usize::from(group.len() > 1);
        }
        assert!(grouped > 0, "no group of two or more");
    }
}

#[test]
fn an_empty_right_side_probes_nothing() {
    let db = db();
    let right = parts_under(0);
    for e in modes(&holds(), &right) {
        check(&db, &e, &right);
    }
}

/// An oid some supplier holds that is no part's pid.
fn held_dangling(db: &Database) -> Value {
    let parts = db.table("PART").unwrap();
    db.table("SUPPLIER")
        .unwrap()
        .rows()
        .flat_map(|r| {
            r.get("parts")
                .unwrap()
                .as_set()
                .unwrap()
                .as_slice()
                .to_vec()
        })
        .find(|v| parts.by_oid(v.as_oid().unwrap()).is_none())
        .expect("the generator dangles some references")
}

#[test]
fn dangling_references_and_shared_keys() {
    let db = db();
    let dangling = held_dangling(&db);
    let a_part = db
        .table("PART")
        .unwrap()
        .row(0)
        .unwrap()
        .get("pid")
        .unwrap()
        .clone();
    let keyed = |k: Value, tag: &str| Value::tuple([("k", k), ("tag", Value::str(tag))]);
    // a right operand that names the dangling oid: its owners match it
    let literal = lit(Value::set([
        keyed(dangling.clone(), "dangling"),
        keyed(a_part.clone(), "part"),
        keyed(oid(999_999_999), "nobody"),
    ]));
    let on_k = member(var("p").field("k"), var("s").field("parts"));
    for e in modes(&on_k, &literal) {
        check(&db, &e, &literal);
    }
    // two distinct right rows per key
    let tagged = |tag: &str| {
        map(
            "p",
            tuple(vec![("k", var("p").field("pid")), ("tag", str_lit(tag))]),
            table("PART"),
        )
    };
    let twice = set_op(SetOp::Union, tagged("a"), tagged("b"));
    for e in modes(&on_k, &twice) {
        check(&db, &e, &twice);
    }
    let e = nestjoin("s", "p", on_k, "ys", table("SUPPLIER"), twice);
    let got = Evaluator::new(&db).eval_closed(&e).unwrap();
    assert!(got.as_set().unwrap().iter().any(|row| {
        let ys = row.as_tuple().unwrap().get("ys").unwrap();
        ys.as_set().unwrap().len() == 2
    }));
}

#[test]
fn errors_match_the_evaluator() {
    let db = db();
    let right = parts_under(600);
    let p = |a: &str| var("p").field(a);
    let cases = [
        // a residual that fails on every candidate pair
        and(
            holds(),
            eq(
                arith(ArithOp::Add, var("s").field("sname"), p("price")),
                int(2),
            ),
        ),
        // one that fails only on some candidates (a price of 500)
        and(
            holds(),
            gt(
                div(int(100), arith(ArithOp::Sub, p("price"), int(500))),
                int(0),
            ),
        ),
    ];
    for pred in &cases {
        for e in modes(pred, &right) {
            assert!(Evaluator::new(&db).eval_closed(&e).is_err(), "{e}");
            check(&db, &e, &right);
        }
    }
    // a key that fails on every right row
    let bad_key = member(
        arith(ArithOp::Add, p("pname"), int(1)),
        var("s").field("parts"),
    );
    for e in modes(&bad_key, &right) {
        assert!(Evaluator::new(&db).eval_closed(&e).is_err(), "{e}");
        check(&db, &e, &right);
    }
    // a nestjoin function that fails on every match
    let e = nestjoin_with(
        "s",
        "p",
        holds(),
        div(p("price"), int(0)),
        "ys",
        table("SUPPLIER"),
        right.clone(),
    );
    assert!(Evaluator::new(&db).eval_closed(&e).is_err(), "{e}");
    check(&db, &e, &right);
}

#[test]
fn inserts_into_both_extents_are_seen() {
    let mut db = db();
    let right = parts_under(500);
    let probes = modes(&holds(), &right);
    // read once so both snapshots exist, then write
    for e in &probes {
        check(&db, e, &right);
    }
    let old = db.table("PART").unwrap().row(3).unwrap().clone();
    let old_part = old.get("pid").unwrap().clone();
    let old_matches = usize::from(old.get("price").unwrap().as_int().unwrap() < 500);
    // low oids sort ahead of every generated row: the new rows lead the
    // snapshot but sit last in insertion order
    for k in 0..3 {
        db.insert(
            "PART",
            Tuple::from_pairs([
                ("pid", oid(10 + k)),
                ("pname", Value::str(&format!("new-part-{k}"))),
                ("price", Value::Int(100 * k as i64 + 1)),
                ("color", Value::str("red")),
            ]),
        )
        .unwrap();
    }
    for (k, parts) in [
        (0, vec![oid(10), oid(11), old_part.clone()]),
        (1, vec![oid(12)]),
        (2, vec![]),
    ] {
        db.insert(
            "SUPPLIER",
            Tuple::from_pairs([
                ("eid", oid(20 + k)),
                ("sname", Value::str(&format!("new-supplier-{k}"))),
                ("parts", Value::set(parts)),
            ]),
        )
        .unwrap();
    }
    for e in &probes {
        check(&db, e, &right);
    }
    let e = nestjoin("s", "p", holds(), "ys", table("SUPPLIER"), right.clone());
    let got = Evaluator::new(&db).eval_closed(&e).unwrap();
    let first = got
        .as_set()
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .as_tuple()
        .unwrap();
    assert_eq!(first.get("eid"), Some(&oid(20)));
    let ys = first.get("ys").unwrap().as_set().unwrap();
    assert_eq!(ys.len(), 2 + old_matches);
}

/// q6 and q5 as the repo benchmark words them, at one literal, and a
/// nestjoin over the whole of PART, whose canonical set outgrows a
/// 4 KiB cap.
const TEXTS: [(&str, bool); 3] = [
    (
        "select (sname := s.sname, partssuppl := select p from p in PART \
         where p.pid in s.parts and p.price < 510 and p.color <> \"red\" \
         and p.pname <> \"part-3\") from s in SUPPLIER",
        false,
    ),
    (
        "select s.sname from s in SUPPLIER where exists x in s.parts : \
         exists p in PART : x = p.pid and p.color = \"red\" and p.price < 510 \
         and p.pname <> \"part-3\"",
        false,
    ),
    (
        "select (sname := s.sname, partssuppl := select p.pname from p in PART \
         where p.pid in s.parts) from s in SUPPLIER",
        true,
    ),
];

#[test]
fn a_memory_capped_server_gives_the_unbounded_answer() {
    let db = db();
    let naive = Pipeline::new(&db);
    for (name, planner) in configs() {
        let capped = QueryServer::with_config(
            &db,
            ServerConfig {
                planner: planner.clone(),
                global_memory_bytes: 4096,
                ..ServerConfig::default()
            },
        );
        let unbounded = Pipeline::with_config(&db, planner);
        for (text, spills) in TEXTS {
            let want = naive.run_naive(text).unwrap();
            let free = unbounded.run(text).unwrap();
            assert_eq!(free.result, want, "{name} unbounded: {text}");
            let out = capped.session().run(text).unwrap();
            assert_eq!(out.result, want, "{name} capped: {text}");
            assert!(out.explain.contains("Owners"), "{name}:\n{}", out.explain);
            // the right side's canonical set spills its sort under the cap
            if spills {
                assert!(out.stats.spill_bytes > 0, "{name}: {text}");
            }
            assert_eq!(free.stats.spill_bytes, 0, "{name}: {text}");
        }
    }
}

#[test]
fn the_plan_shape() {
    let db = db();
    let right = parts_under(500);
    let chosen = |e: &Expr, config: PlannerConfig| {
        let plan = Planner::with_config(&db, config).plan(e).unwrap();
        (owner_join(&plan.phys).is_some(), plan.explain())
    };
    // chosen for a bare-scan left, with the documented labels
    let [nest, semi, anti]: [Expr; 3] = modes(&holds(), &right).try_into().unwrap();
    for (e, line, label) in [
        (
            &nest,
            "OwnersNestJoin ⊣→ys on SUPPLIER.parts",
            "OwnersNestJoin(ys)",
        ),
        (
            &semi,
            "OwnersJoin Semi on SUPPLIER.parts",
            "OwnersJoin(Semi)",
        ),
        (
            &anti,
            "OwnersJoin Anti on SUPPLIER.parts",
            "OwnersJoin(Anti)",
        ),
    ] {
        let plan = Planner::with_config(&db, base()).plan(e).unwrap();
        assert!(plan.explain().contains(line), "{}", plan.explain());
        let mut stats = Stats::new();
        plan.execute_streaming(&mut stats).unwrap();
        assert!(stats.operators.iter().any(|o| o.op == label), "{stats:?}");
    }
    // declined for a filtered left: the membership hash join keeps it
    let filtered = select(
        "s",
        ne(var("s").field("sname"), str_lit("supplier-3")),
        table("SUPPLIER"),
    );
    let e = nestjoin("s", "p", holds(), "ys", filtered, right.clone());
    let (owners, explain) = chosen(&e, base());
    assert!(!owners && explain.contains("MemberNestJoin"), "{explain}");
    // declined for inner and outer joins
    for e in [
        join("s", "p", holds(), table("SUPPLIER"), right.clone()),
        outerjoin("s", "p", holds(), table("SUPPLIER"), right.clone()),
    ] {
        let (owners, explain) = chosen(&e, base());
        assert!(!owners, "{explain}");
    }
    for e in [&nest, &semi, &anti] {
        // declined under a bounded planner budget
        let bounded = PlannerConfig {
            memory_budget: 4096,
            ..base()
        };
        let (owners, explain) = chosen(e, bounded);
        assert!(!owners && explain.contains("Member"), "{explain}");
        // and never ranked by a forced algorithm
        for join_algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
            let forced = PlannerConfig {
                join_algo,
                ..base()
            };
            let (owners, explain) = chosen(e, forced);
            assert!(!owners, "{join_algo:?}:\n{explain}");
        }
    }
}

/// A served owner semijoin hands out full batches, so its live read and
/// its cached replay (which slices the result into full batches) agree
/// chunk for chunk; a nestjoin emits one row per supplier either way.
#[test]
fn a_live_read_and_its_replay_hand_out_the_same_chunks() {
    let db = generate(&GenConfig {
        seed: 1,
        ..GenConfig::scaled(12_000)
    });
    let server = QueryServer::with_config(
        &db,
        ServerConfig {
            planner: PlannerConfig {
                parallelism: 2,
                ..base()
            },
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    for (text, _) in TEXTS {
        let read = || {
            let mut cursor = session.open_stream(text).unwrap();
            let mut sizes = Vec::new();
            while let Some(batch) = cursor.next_chunk().unwrap() {
                sizes.push(batch.len());
            }
            (cursor.result_hit(), sizes)
        };
        let (live_hit, live) = read();
        let (replay_hit, replay) = read();
        assert!(!live_hit && replay_hit, "{text}");
        assert_eq!(live, replay, "{text}");
        assert!(live.len() > 1, "{text}: {live:?}");
    }
}
