//! Property-based equivalence testing.
//!
//! The load-bearing invariant of the whole system: **every rewrite and
//! every physical operator preserves the reference nested-loop
//! semantics** — on arbitrary databases, not just the paper's fixtures.

use oodb::adl::dsl::*;
use oodb::adl::expr::Expr;
use oodb::core::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{BatchKind, Evaluator, JoinAlgo, Planner, PlannerConfig, Stats};
use oodb::value::{SetCmpOp, Value};
use oodb::Pipeline;
use proptest::prelude::*;

/// The OOSQL sources of every paper query exercised end-to-end in
/// `tests/paper_queries.rs` (Example Queries 1–6), plus the kitchen-sink
/// query of `tests/pipeline.rs`.
fn paper_query_sources() -> Vec<&'static str> {
    vec![
        // Example Query 1 — nesting in the select-clause
        "select (sname := s.sname, pnames := select p.pname from p in PART \
          where p.pid in s.parts and p.color = \"red\") from s in SUPPLIER",
        // Example Query 2 — nesting in the from-clause
        "select d from d in (select e from e in DELIVERY \
          where e.supplier.sname = \"s1\") where d.date = date(940101)",
        // Example Query 3.1 — set comparison between blocks
        "select s.sname from s in SUPPLIER where s.parts supseteq \
          flatten(select t.parts from t in SUPPLIER where t.sname = \"s1\")",
        // Example Query 3.2 — quantifier over a set-valued attribute
        "select d from d in DELIVERY \
          where exists x in d.supply : x.part.color = \"red\"",
        // Example Query 4 — referential integrity violators
        "select s.eid from s in SUPPLIER \
          where exists x in s.parts : not (exists p in PART : x = p.pid)",
        // Example Query 5 — suppliers supplying red parts
        "select s.sname from s in SUPPLIER where exists x in s.parts : \
          exists p in PART : x = p.pid and p.color = \"red\"",
        // Example Query 6 — supplier portfolios (nestjoin)
        "select (sname := s.sname, partssuppl := select p from p in PART \
          where p.pid in s.parts) from s in SUPPLIER",
        // the benchmark's q5 and q6: PART-only conjuncts pushed under the
        // semijoin's and the nestjoin's build side
        "select s.sname from s in SUPPLIER where exists x in s.parts : \
          exists p in PART : x = p.pid and p.color = \"red\" and p.price < 510 \
          and p.pname <> \"part-3\"",
        "select (sname := s.sname, partssuppl := select p from p in PART \
          where p.pid in s.parts and p.price < 510 and p.color <> \"red\" \
          and p.pname <> \"part-3\") from s in SUPPLIER",
        // kitchen sink — with-binding, aggregate, set ops, quantifier
        "with expensive as (select p.pid from p in PART where p.price >= 30) \
         select (name := s.sname, n := count(s.parts), \
                 exp := s.parts intersect expensive) \
         from s in SUPPLIER \
         where (exists x in s.parts : x in expensive) \
            or s.sname = \"s4\" and not (s.parts != {})",
    ]
}

/// The optimized ADL of an OOSQL text: parse, type check, translate and
/// rewrite, as `Pipeline::run` does before planning.
fn optimized(db: &oodb::catalog::Database, src: &str) -> Expr {
    let query = oodb::oosql::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    oodb::oosql::typecheck(&query, db.catalog()).unwrap_or_else(|e| panic!("{src}: {e}"));
    let nested =
        oodb::translate::translate(&query, db.catalog()).unwrap_or_else(|e| panic!("{src}: {e}"));
    Optimizer
        .optimize(&nested, db.catalog())
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .expr
}

/// Streaming-vs-materialized equivalence on every paper query: the
/// pipeline's streaming run and the materialized executor
/// (`Plan::execute`, the benchmark's reference) must both agree with the
/// naive nested-loop evaluation, and the same plan must do the same
/// classic work either way.
#[test]
fn paper_queries_agree_streaming_vs_materialized() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    let pipeline = Pipeline::new(&db);
    let planner = Planner::new(&db);
    for src in paper_query_sources() {
        let naive = pipeline.run_naive(src).unwrap();
        let streamed = pipeline.run(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(streamed.result, naive, "streaming ≠ nested-loop for {src}");
        let plan = planner.plan(&optimized(&db, src)).expect("plan");
        let mut ms = Stats::new();
        let materialized = plan
            .execute(&mut ms)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(materialized, naive, "materialized ≠ nested-loop for {src}");
        let mut ss = Stats::new();
        let plan_streamed = plan.execute_streaming(&mut ss).unwrap();
        assert_eq!(
            plan_streamed, naive,
            "streaming plan ≠ nested-loop for {src}"
        );
        // the streaming path carries a per-operator profile; the
        // materialized path does not
        assert!(!ss.operators.is_empty(), "no operator stats for {src}");
        assert!(ms.operators.is_empty());
        // the classic work counters agree between the two physical paths
        assert_eq!(ss.rows_scanned, ms.rows_scanned, "{src}");
        assert_eq!(ss.hash_build_rows, ms.hash_build_rows, "{src}");
    }
}

/// The same equivalence on a *generated* database, where dangling
/// pointers and empty sets are far more frequent than in the fixture.
#[test]
fn paper_queries_agree_on_generated_databases() {
    let db = generate(&GenConfig {
        empty_supplier_fraction: 0.2,
        dangling_fraction: 0.2,
        ..GenConfig::scaled(200)
    });
    let pipeline = Pipeline::new(&db);
    for src in paper_query_sources() {
        // fixture-specific selections may be empty here; equality is the point
        if src.contains("date(") {
            continue; // generated dates never equal the fixture constant
        }
        let streamed = pipeline.run(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let naive = pipeline.run_naive(src).unwrap();
        assert_eq!(streamed.result, naive, "streaming ≠ nested-loop for {src}");
    }
}

/// Serial (dop = 1) and parallel (dop ∈ {2, 4, 7}) execution of every
/// paper query produce identical canonical sets **and** identical merged
/// per-operator row totals — the morsel-driven exchanges only change
/// who does the work, never what work is done.
#[test]
fn parallel_execution_matches_serial_sets_and_operator_totals() {
    let db = generate(&GenConfig {
        empty_supplier_fraction: 0.15,
        dangling_fraction: 0.15,
        ..GenConfig::scaled(400)
    });
    let config = |dop: usize| PlannerConfig {
        parallelism: dop,
        // force exchanges even at this scale, so the dops are live
        parallel_threshold: 0,
        ..Default::default()
    };
    for src in paper_query_sources() {
        if src.contains("date(") {
            continue; // generated dates never equal the fixture constant
        }
        let serial = Pipeline::with_config(&db, config(1))
            .run(src)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        for dop in [2usize, 4, 7] {
            let parallel = Pipeline::with_config(&db, config(dop))
                .run(src)
                .unwrap_or_else(|e| panic!("{src} at dop {dop}: {e}"));
            assert_eq!(
                parallel.result.as_set().unwrap(),
                serial.result.as_set().unwrap(),
                "dop {dop} changed the result of {src}"
            );
            assert_eq!(
                parallel.stats.operator_rows_by_label(),
                serial.stats.operator_rows_by_label(),
                "dop {dop} changed the operator row totals of {src}"
            );
            assert_eq!(
                parallel.stats.rows_scanned, serial.stats.rows_scanned,
                "dop {dop} re-scanned rows for {src}"
            );
        }
    }
}

/// Small random database configurations.
fn db_config() -> impl Strategy<Value = GenConfig> {
    (
        2usize..25,  // parts
        2usize..15,  // suppliers
        0usize..10,  // deliveries
        1usize..5,   // parts per supplier
        0.0f64..0.5, // empty fraction
        0.0f64..0.4, // dangling fraction
        0.0f64..1.0, // red fraction
        any::<u64>(),
    )
        .prop_map(
            |(parts, suppliers, deliveries, pps, empty, dangling, red, seed)| GenConfig {
                parts,
                suppliers,
                deliveries,
                parts_per_supplier: pps,
                empty_supplier_fraction: empty,
                dangling_fraction: dangling,
                red_fraction: red,
                supply_per_delivery: 2,
                seed,
            },
        )
}

/// The nested query corpus the optimizer is exercised on.
fn query_corpus() -> Vec<Expr> {
    vec![
        // Query 5 shape (∃∃ exchange + semijoin)
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
        ),
        // Query 4 shape (attr unnest + antijoin)
        project(
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
        ),
        // ∀ over a selected base table (antijoin)
        select(
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
        ),
        // correlated ⊆ between blocks (nestjoin)
        select(
            "s",
            set_cmp(
                SetCmpOp::SubsetEq,
                var("s").field("parts"),
                map(
                    "p",
                    var("p").field("pid"),
                    select("p", gt(var("p").field("price"), int(500)), table("PART")),
                ),
            ),
            table("SUPPLIER"),
        ),
        // nesting in the select-clause (nestjoin-map)
        map(
            "s",
            tuple(vec![
                ("sname", var("s").field("sname")),
                (
                    "cheap",
                    map(
                        "p",
                        var("p").field("pname"),
                        select(
                            "p",
                            and(
                                member(var("p").field("pid"), var("s").field("parts")),
                                lt(var("p").field("price"), int(300)),
                            ),
                            table("PART"),
                        ),
                    ),
                ),
            ]),
            table("SUPPLIER"),
        ),
        // uncorrelated subquery (hoist)
        select(
            "s",
            set_cmp(
                SetCmpOp::SupersetEq,
                var("s").field("parts"),
                map(
                    "p",
                    var("p").field("pid"),
                    select("p", lt(var("p").field("price"), int(50)), table("PART")),
                ),
            ),
            table("SUPPLIER"),
        ),
        // count-emptiness predicate (Table 2)
        select(
            "s",
            eq(
                count(select(
                    "p",
                    member(var("p").field("pid"), var("s").field("parts")),
                    table("PART"),
                )),
                int(0),
            ),
            table("SUPPLIER"),
        ),
        // Rule 2: flatten of a map-of-concat
        flatten(map(
            "s",
            map(
                "d",
                concat(var("s"), var("d")),
                select(
                    "d",
                    eq(var("d").field("supplier"), var("s").field("eid")),
                    rename(&[("did", "d_id"), ("date", "d_date")], table("DELIVERY")),
                ),
            ),
            project(&["eid", "sname"], table("SUPPLIER")),
        )),
        // selection pushdown: right-only conjuncts (comparisons, ≠, ∨, ¬)
        // leave the join and nestjoin predicates for the PART operand
        map(
            "s",
            tuple(vec![
                ("sname", var("s").field("sname")),
                (
                    "partssuppl",
                    select(
                        "p",
                        and(
                            and(
                                member(var("p").field("pid"), var("s").field("parts")),
                                lt(var("p").field("price"), int(500)),
                            ),
                            or(
                                ne(var("p").field("color"), str_lit("red")),
                                not(eq(var("p").field("pname"), str_lit("part-3"))),
                            ),
                        ),
                        table("PART"),
                    ),
                ),
            ]),
            table("SUPPLIER"),
        ),
        // … into an antijoin's operand
        select(
            "s",
            not(exists(
                "p",
                table("PART"),
                and(
                    member(var("p").field("pid"), var("s").field("parts")),
                    ne(var("p").field("color"), str_lit("red")),
                ),
            )),
            table("SUPPLIER"),
        ),
        // … into a Rule 2 join's operand, next to a residual that stays
        flatten(map(
            "s",
            map(
                "p",
                concat(var("s"), var("p")),
                select(
                    "p",
                    and(
                        member(var("p").field("pid"), var("s").field("parts")),
                        ge(var("p").field("price"), int(250)),
                    ),
                    table("PART"),
                ),
            ),
            table("SUPPLIER"),
        )),
    ]
}

/// The last three corpus shapes are there for `join-operand-select`; keep
/// them reaching it.
#[test]
fn pushdown_shapes_in_the_corpus_reach_the_rule() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    let corpus = query_corpus();
    for q in &corpus[corpus.len() - 3..] {
        let out = Optimizer.optimize(q, db.catalog()).unwrap();
        assert!(
            out.trace.fired("join-operand-select"),
            "{q}\ntrace:\n{}",
            out.trace
        );
    }
}

/// Random `AND`/`OR`/`NOT` trees over PART's primitive columns — the
/// compound shapes the mask tier binds to columns: `x.a ⟨cmp⟩ lit` in both
/// orientations over `Int` and `Str` columns, plus the column-column
/// leaf `x.a ⟨cmp⟩ x.b`, composed with every connective up to three
/// levels deep.
fn mask_pred() -> BoxedStrategy<Expr> {
    let leaf = (0usize..6, 0usize..5, 0i64..1_050, 0usize..5).prop_map(|(op, shape, n, s)| {
        let cmps: [fn(Expr, Expr) -> Expr; 6] = [eq, ne, lt, le, gt, ge];
        let cmp = cmps[op];
        let strs = ["red", "green", "blue", "part-3", "zzz"];
        match shape {
            0 => cmp(var("p").field("price"), int(n)),
            1 => cmp(int(n), var("p").field("price")),
            2 => cmp(var("p").field("color"), str_lit(strs[s])),
            3 => cmp(str_lit(strs[s]), var("p").field("color")),
            _ => cmp(var("p").field("color"), var("p").field("pname")),
        }
    });
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| or(a, b)),
            inner.clone().prop_map(not),
            inner,
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The vectorized selection-mask layer is semantically invisible: on
    /// random databases and random compound predicate trees, vectorize
    /// on/off produce identical results, identical per-operator row
    /// totals and identical classic work counters — crossed with
    /// batch_kind × dop ∈ {1, 4} × budget ∈ {unbounded, 4 KiB}, so
    /// every mask tier meets its row-interpreter twin through the
    /// exchanges and the spill paths, and the streaming `Agg` scalar
    /// root meets the drain-to-set reference. The last input stacks a
    /// second `Filter` on the first: its predicate reads the columns
    /// through the first filter's selection, and would raise a type
    /// mismatch on exactly the rows the first one removed, so a
    /// selection that leaks a removed row fails it.
    #[test]
    fn compound_masks_agree(config in db_config(), pred in mask_pred()) {
        let db = generate(&config);
        let ev = Evaluator::new(&db);
        let errs_where_removed = or(pred.clone(), lt(var("p").field("price"), str_lit("x")));
        let stacked = select(
            "p",
            and(errs_where_removed, le(var("p").field("color"), var("p").field("pname"))),
            select("p", pred.clone(), table("PART")),
        );
        let queries = [
            select("p", pred.clone(), table("PART")),
            count(select("p", pred, table("PART"))),
            stacked,
        ];
        let mk = |vectorize: bool, batch_kind: BatchKind, dop: usize, budget: usize| {
            PlannerConfig {
                vectorize,
                batch_kind,
                parallelism: dop,
                memory_budget: budget,
                parallel_threshold: 0,
                ..Default::default()
            }
        };
        for q in &queries {
            let mut es = Stats::new();
            let reference = ev.eval_closed_with(q, &mut es);
            for batch_kind in [BatchKind::Columnar, BatchKind::Row] {
                for dop in [1usize, 4] {
                    for budget in [0usize, 4 << 10] {
                        let run = |vectorize: bool, stats: &mut Stats| {
                            Planner::with_config(&db, mk(vectorize, batch_kind, dop, budget))
                                .plan(q)
                                .expect("plan")
                                .execute_streaming(stats)
                        };
                        let mut vs = Stats::new();
                        let vectorized = run(true, &mut vs);
                        let mut rs = Stats::new();
                        let row = run(false, &mut rs);
                        prop_assert_eq!(
                            &vectorized, &reference,
                            "vectorized ≠ reference at {:?} dop {} budget {}",
                            batch_kind, dop, budget
                        );
                        prop_assert_eq!(
                            &vectorized, &row,
                            "vectorize on/off diverged at {:?} dop {} budget {}",
                            batch_kind, dop, budget
                        );
                        prop_assert_eq!(
                            vs.operator_rows_by_label(),
                            rs.operator_rows_by_label(),
                            "operator row totals diverged at {:?} dop {} budget {}",
                            batch_kind, dop, budget
                        );
                        prop_assert_eq!(vs.rows_scanned, es.rows_scanned);
                        prop_assert_eq!(vs.predicate_evals, es.predicate_evals);
                        prop_assert_eq!(vs.rows_scanned, rs.rows_scanned);
                        prop_assert_eq!(vs.predicate_evals, rs.predicate_evals);
                        prop_assert_eq!(vs.loop_iterations, rs.loop_iterations);
                        prop_assert_eq!(vs.hash_probes, rs.hash_probes);
                        prop_assert_eq!(vs.hash_build_rows, rs.hash_build_rows);
                        prop_assert_eq!(vs.oid_lookups, rs.oid_lookups);
                        prop_assert_eq!(vs.index_probes, rs.index_probes);
                        prop_assert_eq!(vs.spill_bytes, rs.spill_bytes);
                        prop_assert_eq!(vs.output_rows, rs.output_rows);
                    }
                }
            }
        }
    }

    /// Optimized plans agree with the nested-loop reference on random
    /// databases, and executing them via the physical planner agrees too.
    #[test]
    fn optimizer_preserves_semantics(config in db_config()) {
        let db = generate(&config);
        let ev = Evaluator::new(&db);
        let opt = Optimizer;
        for q in query_corpus() {
            let naive = ev.eval_closed(&q).expect("naive evaluation succeeds");
            let rewritten = opt.optimize(&q, db.catalog()).expect("optimize succeeds");
            let via_eval = ev.eval_closed(&rewritten.expr).expect("rewritten evaluates");
            prop_assert_eq!(&via_eval, &naive, "rewrite changed semantics: {}", rewritten.trace);
            let planner = Planner::new(&db);
            let plan = planner.plan(&rewritten.expr).expect("plan succeeds");
            let mut stats = Stats::new();
            let via_plan = plan.execute(&mut stats).expect("plan executes");
            prop_assert_eq!(&via_plan, &naive, "physical plan changed semantics");
            let mut sstats = Stats::new();
            let via_stream = plan.execute_streaming(&mut sstats).expect("streaming executes");
            prop_assert_eq!(&via_stream, &naive, "streaming pipeline changed semantics");
            prop_assert!(!sstats.operators.is_empty(), "streaming left no operator stats");
        }
    }

    /// Every join algorithm produces identical results for equi- and
    /// membership joins.
    #[test]
    fn join_algorithms_agree(config in db_config()) {
        let db = generate(&config);
        let ev = Evaluator::new(&db);
        let joins = vec![
            join(
                "s", "d",
                eq(var("s").field("eid"), var("d").field("supplier")),
                project(&["eid", "sname"], table("SUPPLIER")),
                project(&["did", "supplier"], table("DELIVERY")),
            ),
            semijoin(
                "s", "p",
                member(var("p").field("pid"), var("s").field("parts")),
                table("SUPPLIER"),
                table("PART"),
            ),
            antijoin(
                "s", "p",
                member(var("p").field("pid"), var("s").field("parts")),
                table("SUPPLIER"),
                table("PART"),
            ),
            nestjoin(
                "s", "d",
                eq(var("s").field("eid"), var("d").field("supplier")),
                "ds",
                table("SUPPLIER"),
                table("DELIVERY"),
            ),
        ];
        for q in joins {
            let reference = ev.eval_closed(&q).expect("reference");
            for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
                let planner = Planner::with_config(
                    &db,
                    PlannerConfig { join_algo: algo, ..Default::default() },
                );
                let plan = planner.plan(&q).expect("plan");
                let mut stats = Stats::new();
                let got = plan.execute(&mut stats).expect("execute");
                prop_assert_eq!(&got, &reference, "algo {:?} diverged", algo);
                let mut sstats = Stats::new();
                let streamed = plan.execute_streaming(&mut sstats).expect("streaming");
                prop_assert_eq!(&streamed, &reference, "algo {:?} diverged (streaming)", algo);
            }
        }
    }

    /// Exchange-parallelized plans agree with serial streaming on
    /// arbitrary databases and degrees of parallelism.
    #[test]
    fn parallel_plans_preserve_semantics(config in db_config(), dop in 2usize..8) {
        let db = generate(&config);
        let opt = Optimizer;
        let mk = |parallelism: usize| PlannerConfig {
            parallelism,
            parallel_threshold: 0,
            ..Default::default()
        };
        for q in query_corpus().into_iter().take(4) {
            let rewritten = opt.optimize(&q, db.catalog()).expect("optimize succeeds");
            let mut ss = Stats::new();
            let serial = Planner::with_config(&db, mk(1))
                .plan(&rewritten.expr)
                .expect("plan")
                .execute_streaming(&mut ss)
                .expect("serial streaming");
            let mut ps = Stats::new();
            let parallel = Planner::with_config(&db, mk(dop))
                .plan(&rewritten.expr)
                .expect("plan")
                .execute_streaming(&mut ps)
                .expect("parallel streaming");
            prop_assert_eq!(&parallel, &serial, "dop {} diverged", dop);
            prop_assert_eq!(ps.rows_scanned, ss.rows_scanned, "dop {} re-scanned", dop);
        }
    }

    /// Spilling is semantically invisible: on random databases, tiny
    /// byte budgets (small enough to force grace-hash recursion and
    /// multi-run external sorts at this scale) produce exactly the
    /// unbounded results, serially and through the exchanges — and an
    /// unbounded run never touches the spill subsystem.
    #[test]
    fn spilling_preserves_semantics(config in db_config(), budget in 64usize..2048, dop in 2usize..6) {
        let db = generate(&config);
        let opt = Optimizer;
        let mk = |memory_budget: usize, parallelism: usize| PlannerConfig {
            memory_budget,
            parallelism,
            parallel_threshold: 0,
            ..Default::default()
        };
        for q in query_corpus().into_iter().take(5) {
            let rewritten = opt.optimize(&q, db.catalog()).expect("optimize succeeds");
            let mut us = Stats::new();
            let unbounded = Planner::with_config(&db, mk(0, 1))
                .plan(&rewritten.expr)
                .expect("plan")
                .execute_streaming(&mut us)
                .expect("unbounded streaming");
            prop_assert_eq!(us.spill_bytes, 0, "unbounded run spilled");
            let mut ss = Stats::new();
            let spilled = Planner::with_config(&db, mk(budget, 1))
                .plan(&rewritten.expr)
                .expect("plan")
                .execute_streaming(&mut ss)
                .expect("budgeted streaming");
            prop_assert_eq!(&spilled, &unbounded, "budget {} diverged", budget);
            let mut ps = Stats::new();
            let parallel = Planner::with_config(&db, mk(budget, dop))
                .plan(&rewritten.expr)
                .expect("plan")
                .execute_streaming(&mut ps)
                .expect("budgeted parallel streaming");
            prop_assert_eq!(&parallel, &unbounded, "budget {} dop {} diverged", budget, dop);
        }
    }

    /// The batch layout is semantically invisible: on random databases,
    /// the columnar default and the legacy row layout produce identical
    /// canonical sets, identical per-operator row totals and identical
    /// classic work counters — crossed with dop ∈ {1, 4} and
    /// budget ∈ {unbounded, 4 KiB}, so the column fast paths (filters,
    /// maps, join key columns), the exchanges and the column-block
    /// spill codec are all exercised against their row twins.
    #[test]
    fn batch_layouts_agree(config in db_config()) {
        let db = generate(&config);
        let opt = Optimizer;
        let mk = |batch_kind: BatchKind, parallelism: usize, memory_budget: usize| PlannerConfig {
            batch_kind,
            parallelism,
            memory_budget,
            parallel_threshold: 0,
            ..Default::default()
        };
        for q in query_corpus().into_iter().take(5) {
            let rewritten = opt.optimize(&q, db.catalog()).expect("optimize succeeds");
            for dop in [1usize, 4] {
                for budget in [0usize, 4 << 10] {
                    let mut cs = Stats::new();
                    let columnar = Planner::with_config(&db, mk(BatchKind::Columnar, dop, budget))
                        .plan(&rewritten.expr)
                        .expect("plan")
                        .execute_streaming(&mut cs)
                        .expect("columnar streaming");
                    let mut rs = Stats::new();
                    let row = Planner::with_config(&db, mk(BatchKind::Row, dop, budget))
                        .plan(&rewritten.expr)
                        .expect("plan")
                        .execute_streaming(&mut rs)
                        .expect("row streaming");
                    prop_assert_eq!(
                        &columnar, &row,
                        "layouts diverged at dop {} budget {}", dop, budget
                    );
                    prop_assert_eq!(
                        cs.operator_rows_by_label(),
                        rs.operator_rows_by_label(),
                        "operator row totals diverged at dop {} budget {}", dop, budget
                    );
                    prop_assert_eq!(cs.rows_scanned, rs.rows_scanned);
                    prop_assert_eq!(cs.predicate_evals, rs.predicate_evals);
                    prop_assert_eq!(cs.hash_probes, rs.hash_probes);
                    prop_assert_eq!(cs.hash_build_rows, rs.hash_build_rows);
                }
            }
        }
    }

    /// §6.2's materialization is invariant under a random byte budget:
    /// the rewritten plan (a membership nestjoin, spilling when the
    /// budget is tight) and the unrewritten pattern (a correlated map)
    /// both agree with the naive evaluation, and the single-reference
    /// pattern dereferences exactly one pointer per row.
    #[test]
    fn materialization_byte_budget_invariance(config in db_config(), budget in 0usize..2048) {
        let db = generate(&config);
        let ev = Evaluator::new(&db);
        // α[s : s except (parts = σ[p : p.pid ∈ s.parts](PART))](SUPPLIER)
        let q = map(
            "s",
            except(
                var("s"),
                vec![(
                    "parts",
                    select(
                        "p",
                        member(var("p").field("pid"), var("s").field("parts")),
                        table("PART"),
                    ),
                )],
            ),
            table("SUPPLIER"),
        );
        let reference = ev.eval_closed(&q).expect("reference");
        let planner = Planner::with_config(
            &db,
            PlannerConfig {
                memory_budget: budget,
                ..Default::default()
            },
        );
        // the rewritten (nestjoin) plan under the random budget
        let rewritten = Optimizer
            .optimize(&q, db.catalog())
            .expect("optimize")
            .expr;
        let mut s1 = Stats::new();
        let via_nestjoin = planner
            .plan(&rewritten)
            .expect("plan")
            .execute_streaming(&mut s1)
            .expect("nestjoin");
        prop_assert_eq!(&via_nestjoin, &reference);
        // the unrewritten pattern: a correlated map
        let via_map = planner
            .plan(&q)
            .expect("plan")
            .execute_streaming(&mut Stats::new())
            .expect("map");
        prop_assert_eq!(&via_map, &reference);
        // α[d : d except (supplier = deref⟨Supplier⟩(d.supplier))](DELIVERY):
        // one oid lookup per delivery
        let single = map(
            "d",
            except(
                var("d"),
                vec![("supplier", deref(var("d").field("supplier"), "Supplier"))],
            ),
            table("DELIVERY"),
        );
        let mut s2 = Stats::new();
        let via_deref = planner
            .plan(&single)
            .expect("plan")
            .execute_streaming(&mut s2)
            .expect("deref");
        prop_assert_eq!(&via_deref, &ev.eval_closed(&single).expect("reference"));
        prop_assert_eq!(s2.oid_lookups, db.table("DELIVERY").unwrap().len() as u64);
    }

    /// §4 option 1's caveat: `ν ∘ μ` is the identity exactly when no
    /// empty set-valued attributes exist; tuples with empty sets vanish.
    #[test]
    fn nest_unnest_roundtrip(config in db_config()) {
        let db = generate(&config);
        let ev = Evaluator::new(&db);
        // μ then ν on DELIVERY.supply (supply is never empty by generation)
        let round = nest(
            &["part", "quantity"],
            "supply",
            unnest("supply", table("DELIVERY")),
        );
        let direct = ev.eval_closed(&table("DELIVERY")).expect("scan");
        let rt = ev.eval_closed(&round).expect("roundtrip");
        prop_assert_eq!(&rt, &direct, "supply sets are non-empty ⇒ identity");
        // SUPPLIER.parts may be empty: the roundtrip loses exactly those
        let round_s = nest(&["parts"], "parts_set", unnest("parts", table("SUPPLIER")));
        let rt_s = ev.eval_closed(&round_s).expect("roundtrip");
        let kept = rt_s.as_set().unwrap().len();
        let non_empty = db
            .table("SUPPLIER")
            .unwrap()
            .rows()
            .filter(|r| !r.get("parts").unwrap().as_set().unwrap().is_empty())
            .count();
        prop_assert_eq!(kept, non_empty);
    }

    /// Random-set Table 1 equivalence (bigger sets than the grid test).
    #[test]
    fn table1_random_sets(
        a in proptest::collection::btree_set(0i64..12, 0..8),
        b in proptest::collection::btree_set(0i64..12, 0..8),
    ) {
        use oodb::core::rules::setcmp::table1_expansion;
        let db = generate(&GenConfig::scaled(8));
        let ev = Evaluator::new(&db);
        let va = Value::set(a.into_iter().map(Value::Int));
        let vb = Value::set(b.into_iter().map(Value::Int));
        for op in [
            SetCmpOp::Subset,
            SetCmpOp::SubsetEq,
            SetCmpOp::SetEq,
            SetCmpOp::SetNe,
            SetCmpOp::SupersetEq,
            SetCmpOp::Superset,
        ] {
            let direct = set_cmp(op, lit(va.clone()), lit(vb.clone()));
            let expanded = table1_expansion(op, &lit(va.clone()), &lit(vb.clone()));
            prop_assert_eq!(
                ev.eval_closed(&direct).unwrap(),
                ev.eval_closed(&expanded).unwrap(),
                "{:?} on {} vs {}", op, va, vb
            );
        }
    }
}
