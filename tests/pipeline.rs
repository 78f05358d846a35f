//! Pipeline-level integration: error surfacing, plan explanation, and the
//! headline claim — set-oriented execution does asymptotically less work
//! than nested loops on the same query.

use oodb::datagen::{generate, GenConfig};
use oodb::engine::{Evaluator, JoinAlgo, Planner, PlannerConfig, Stats};
use oodb::{Pipeline, PipelineError};

#[test]
fn parse_errors_surface_with_position() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    let err = Pipeline::new(&db).run("select from nowhere").unwrap_err();
    match err {
        PipelineError::Parse(e) => assert!(e.to_string().contains("at byte")),
        other => panic!("expected parse error, got {other}"),
    }
}

#[test]
fn type_errors_surface_with_context() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    let err = Pipeline::new(&db)
        .run("select s.sname from s in SUPPLIER where s.sname = 42")
        .unwrap_err();
    match err {
        PipelineError::Type(e) => {
            assert!(e.to_string().contains("string"), "{e}");
        }
        other => panic!("expected type error, got {other}"),
    }
    let err = Pipeline::new(&db)
        .run("select x.nope from x in PART")
        .unwrap_err();
    assert!(matches!(err, PipelineError::Type(_)));
}

#[test]
fn unknown_table_is_a_type_error() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    let err = Pipeline::new(&db)
        .run("select x from x in NO_SUCH")
        .unwrap_err();
    match err {
        PipelineError::Type(e) => assert!(e.to_string().contains("NO_SUCH")),
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn explain_shows_set_oriented_operators() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    // unbounded: under a bounded budget (the CI spilling pass) the owner
    // join gives way to a membership hash join
    let config = PlannerConfig {
        memory_budget: 0,
        ..PlannerConfig::default()
    };
    let pipeline = Pipeline::with_config(&db, config.clone());
    let out = pipeline
        .run(
            "select s.sname from s in SUPPLIER where exists x in s.parts : \
             exists p in PART : x = p.pid and p.color = \"red\"",
        )
        .unwrap();
    let planner = Planner::with_config(&db, config);
    let plan = planner.plan(&out.rewrite.expr).unwrap();
    let explain = plan.explain();
    assert!(explain.contains("OwnersJoin Semi"), "plan:\n{explain}");
    assert!(explain.contains("Scan SUPPLIER"));
    // a selection on SUPPLIER ahead of a nestjoin leaves no bare scan to
    // read owners for: the membership hash join keeps the job
    let out = pipeline
        .run(
            "select (sname := s.sname, partssuppl := select p from p in PART \
             where p.pid in s.parts) from s in SUPPLIER where s.sname <> \"s2\"",
        )
        .unwrap();
    let explain = planner.plan(&out.rewrite.expr).unwrap().explain();
    assert!(explain.contains("MemberNestJoin"), "plan:\n{explain}");
    assert!(explain.contains("Filter [(s.sname ≠ \"s2\")]"));
}

/// `Pipeline::run` is a session of the pipeline's own query server: a
/// repeat of the same text is served from its caches — same result,
/// same operator profile, the hits reported in the stats — and a
/// pipeline under another planner configuration has a server (and
/// hence caches) of its own.
#[test]
fn repeated_runs_hit_the_pipelines_own_caches() {
    let db = generate(&GenConfig::scaled(200));
    let src = "select s.sname from s in SUPPLIER where exists x in s.parts : \
               exists p in PART : x = p.pid and p.color = \"red\"";
    let pipeline = Pipeline::new(&db);
    let first = pipeline.run(src).unwrap();
    assert_eq!(first.stats.plan_cache_hits, 0);
    assert_eq!(first.stats.result_cache_hits, 0);

    let second = pipeline.run(src).unwrap();
    assert_eq!(second.result, first.result);
    assert_eq!(second.explain, first.explain);
    assert_eq!(second.stats.plan_cache_hits, 1, "repeat must skip planning");
    assert_eq!(
        second.stats.result_cache_hits, 1,
        "repeat must skip execution"
    );
    // a hit replays the recorded profile: work and per-operator rows
    // are what executing again would have reported
    assert_eq!(second.stats.work(), first.stats.work());
    assert_eq!(second.stats.operators, first.stats.operators);

    // no cross-config sharing: another configuration plans and executes
    // for itself, and arrives at the same answer by another plan
    let nested_loops = PlannerConfig {
        join_algo: JoinAlgo::NestedLoop,
        ..PlannerConfig::default()
    };
    let other = Pipeline::with_config(&db, nested_loops).run(src).unwrap();
    assert_eq!(other.stats.plan_cache_hits, 0);
    assert_eq!(other.stats.result_cache_hits, 0);
    assert_eq!(other.result, first.result);
    assert_ne!(other.explain, first.explain);
}

/// The paper's core claim, measured with deterministic work counters:
/// rewriting Example Query 5 from nested loops to a semijoin turns
/// O(|SUPPLIER| · |PART|) predicate evaluations into O(|SUPPLIER| + |PART|)
/// hash work.
#[test]
fn optimized_plans_do_asymptotically_less_work() {
    let db = generate(&GenConfig::scaled(2_000));
    let src = "select s.sname from s in SUPPLIER where exists x in s.parts : \
               exists p in PART : x = p.pid and p.color = \"red\"";
    let q = oodb::oosql::parse(src).unwrap();
    let nested = oodb::translate::translate(&q, db.catalog()).unwrap();

    // naive nested-loop execution
    let ev = Evaluator::new(&db);
    let mut naive_stats = Stats::new();
    let naive = ev.eval_closed_with(&nested, &mut naive_stats).unwrap();

    // optimized execution
    let pipeline = Pipeline::new(&db);
    let out = pipeline.run(src).unwrap();
    assert_eq!(out.result, naive);

    let naive_work = naive_stats.work();
    let opt_work = out.stats.work();
    assert!(
        opt_work * 10 < naive_work,
        "expected ≥10× less work, got naive={naive_work} optimized={opt_work}"
    );
    // and the shape is right: zero nested-loop iterations, linear hash work
    assert_eq!(out.stats.loop_iterations, 0);
    let linear_bound =
        (db.table("SUPPLIER").unwrap().len() + db.table("PART").unwrap().len()) as u64;
    assert!(out.stats.hash_probes <= 20 * linear_bound);
}

/// Uncorrelated subqueries run once after hoisting, not once per tuple.
#[test]
fn hoisted_subquery_evaluated_once() {
    let db = generate(&GenConfig::scaled(1_000));
    let src = "select s.sname from s in SUPPLIER \
               where s.parts supseteq \
                 flatten(select t.parts from t in SUPPLIER \
                         where t.sname = \"supplier-0\")";
    let pipeline = Pipeline::new(&db);
    let out = pipeline.run(src).unwrap();

    let q = oodb::oosql::parse(src).unwrap();
    let nested = oodb::translate::translate(&q, db.catalog()).unwrap();
    let ev = Evaluator::new(&db);
    let mut naive_stats = Stats::new();
    let naive = ev.eval_closed_with(&nested, &mut naive_stats).unwrap();

    assert_eq!(out.result, naive);
    // naive: |SUPPLIER| × (subquery scan of SUPPLIER); hoisted: 2 scans
    let suppliers = db.table("SUPPLIER").unwrap().len() as u64;
    assert!(naive_stats.rows_scanned >= suppliers * suppliers);
    assert!(out.stats.rows_scanned <= 3 * suppliers);
}

/// Every OOSQL feature in one query — a smoke test for the full surface.
#[test]
fn kitchen_sink_query_runs() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    let out = Pipeline::new(&db)
        .run(
            "with expensive as (select p.pid from p in PART where p.price >= 30) \
             select (name := s.sname, \
                     n := count(s.parts), \
                     exp := s.parts intersect expensive) \
             from s in SUPPLIER \
             where (exists x in s.parts : x in expensive) \
                or s.sname = \"s4\" and not (s.parts != {})",
        )
        .unwrap();
    let rows = out.result.as_set().unwrap();
    // expensive = {gear(50), axle(30)}: nobody supplies them except...
    // s5 supplies pin(1) + dangling; s1..s3 supply cheap parts; s4 empty.
    // The `or` arm admits s4 (empty parts). So exactly s4.
    assert_eq!(rows.len(), 1);
    let t = rows.iter().next().unwrap().as_tuple().unwrap();
    assert_eq!(t.get("name"), Some(&oodb::value::Value::str("s4")));
    assert_eq!(t.get("n"), Some(&oodb::value::Value::Int(0)));
}
