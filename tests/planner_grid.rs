//! Differential plan-equivalence harness.
//!
//! Every paper query (the OOSQL texts of `tests/paper_queries.rs`,
//! re-anchored to a `GenConfig::scaled` database, plus the §7 ADL
//! workloads shared with the benchmarks) runs under the **full**
//! [`PlannerConfig`] grid — every `JoinAlgo` × dop × memory budget ×
//! batch layout × vectorization — and every configuration
//! must produce exactly the canonical result of the naive nested-loop
//! evaluator. A plan picked by
//! cost is allowed to be *faster*; it is never allowed to be *different*.

use oodb::catalog::{AttrStats, CatalogStats, Database, TableStats};
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{BatchKind, JoinAlgo, JoinOrder, PlannerConfig};
use oodb::Pipeline;
use oodb_bench::{
    join_supplier_delivery_query, materialize_query, multi_join_chain_query, nu_group_query,
    query31_nested, query4_nested, query5_nested, query6_nested, run_naive, run_optimized_with,
    run_planned_streaming,
};
use proptest::prelude::*;

/// The full configuration grid: 5 planner picks × 3 dop × 3 budgets ×
/// 2 batch layouts × 2 vectorize = 180 configurations. The five picks are [`JoinAlgo::Cheapest`] with
/// DP-over-subsets join-order enumeration on and off — reordering may
/// change which association executes, never the answer — and the three
/// forced algorithms, which keep the rewrite's join order and so have
/// no `join_order` axis. The
/// `parallelism` axis runs every configuration serially (`1`, today's
/// exact pipeline) and through the exchange operators at dop 2 and 4;
/// `parallel_threshold: 0` forces exchanges to appear even at this
/// test's small scale, so the parallel grid points are live. The
/// `memory_budget` axis runs unbounded (legacy in-memory), 64 KiB
/// (borderline: some operators spill) and 4 KiB (every sizable hash
/// build grace-partitions, sorts go external) — spilling may change the
/// work profile, never the answer. The `batch_kind` axis runs every
/// point under both the columnar default and the legacy row layout —
/// the layout may change cache behavior, never the answer. The
/// `vectorize` axis runs every point with the vectorized fast paths
/// (selection masks, column-at-a-time transforms, streaming ν/`Agg`)
/// on and off — the strategy may change throughput, never the answer
/// nor the classic work counters.
fn full_grid() -> Vec<PlannerConfig> {
    let picks = [
        (JoinAlgo::Cheapest, JoinOrder::Dp),
        (JoinAlgo::Cheapest, JoinOrder::Off),
        (JoinAlgo::Hash, JoinOrder::Dp),
        (JoinAlgo::SortMerge, JoinOrder::Dp),
        (JoinAlgo::NestedLoop, JoinOrder::Dp),
    ];
    let mut grid = Vec::new();
    for (join_algo, join_order) in picks {
        for parallelism in [1usize, 2, 4] {
            for memory_budget in [0usize, 64 << 10, 4 << 10] {
                for batch_kind in [BatchKind::Columnar, BatchKind::Row] {
                    for vectorize in [true, false] {
                        grid.push(PlannerConfig {
                            join_algo,
                            parallelism,
                            parallel_threshold: 0,
                            memory_budget,
                            batch_kind,
                            vectorize,
                            join_order,
                            timing: true,
                        });
                    }
                }
            }
        }
    }
    grid
}

/// A scaled database with secondary indexes, so index nested-loop plans
/// are live grid points rather than dead configuration.
fn grid_db(scale: usize) -> Database {
    let mut db = generate(&GenConfig::scaled(scale));
    db.create_index("PART", "pid").expect("indexable");
    db.create_index("PART", "color").expect("indexable");
    db.create_index("DELIVERY", "supplier").expect("indexable");
    db
}

/// The six paper queries, re-anchored to names/dates the generator
/// produces (`supplier-0`, dates in January 1994).
const OOSQL_QUERIES: [&str; 6] = [
    // Example Query 1 — nesting in the select-clause
    "select (sname := s.sname, \
             pnames := select p.pname from p in PART \
                       where p.pid in s.parts and p.color = \"red\") \
     from s in SUPPLIER",
    // Example Query 2 — nesting in the from-clause
    "select d from d in (select e from e in DELIVERY \
      where e.supplier.sname = \"supplier-0\") \
     where d.date = date(940105)",
    // Example Query 3.1 — set comparison between blocks
    "select s.sname from s in SUPPLIER \
     where s.parts supseteq \
       flatten(select t.parts from t in SUPPLIER where t.sname = \"supplier-0\")",
    // Example Query 3.2 — quantifier over a set-valued attribute
    "select d from d in DELIVERY \
     where exists x in d.supply : x.part.color = \"red\"",
    // Example Query 4 — referential integrity violators
    "select s.eid from s in SUPPLIER \
     where exists x in s.parts : not (exists p in PART : x = p.pid)",
    // Example Query 5 — suppliers supplying red parts
    "select s.sname from s in SUPPLIER \
     where exists x in s.parts : \
           exists p in PART : x = p.pid and p.color = \"red\"",
];

#[test]
fn oosql_paper_queries_agree_across_the_full_grid() {
    let db = grid_db(120);
    for q in OOSQL_QUERIES {
        let reference = Pipeline::new(&db)
            .run_naive(q)
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        for cfg in full_grid() {
            let pipeline = Pipeline::with_config(&db, cfg.clone());
            let streamed = pipeline.run(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert_eq!(
                streamed.result, reference,
                "streaming diverged\nquery: {q}\nconfig: {cfg:?}\nplan:\n{}",
                streamed.explain
            );
        }
    }
}

/// Example Query 6 is grid-tested through its ADL translation below;
/// here all eight §7 ADL workloads `BENCH_streaming.json` counts
/// (including the §6.2 materialization map, which OOSQL cannot express
/// directly) cover the nestjoin, grouping and plain equi-join arms of
/// the grid. Each runs rewritten, as the benchmark runs it, so the
/// materialization is a membership nestjoin here; its unrewritten form,
/// a correlated map, is covered by
/// `materialization_strategies_agree_under_any_budget`. The bench report runs them at
/// dop 1 only; every other point of every axis is checked here.
#[test]
fn adl_section7_workloads_agree_across_the_full_grid() {
    let db = grid_db(100);
    let workloads = [
        ("q5", query5_nested()),
        ("q4", query4_nested()),
        ("q6", query6_nested()),
        ("q31", query31_nested("supplier-0")),
        ("materialize", materialize_query()),
        ("nu_group", nu_group_query()),
        ("join_supplier_delivery", join_supplier_delivery_query()),
        ("multi_join_chain", multi_join_chain_query()),
    ];
    for (label, q) in workloads {
        let (reference, _) = run_naive(&db, &q);
        let optimized = Optimizer.optimize(&q, db.catalog()).expect("optimize");
        for cfg in full_grid() {
            // materialized execution never batches; once per point
            if cfg.batch_kind == BatchKind::Columnar {
                let (materialized, _, _) = run_optimized_with(&db, &q, cfg.clone());
                assert_eq!(
                    materialized, reference,
                    "{label}: materialized diverged under {cfg:?}"
                );
            }
            let (streamed, _) = run_planned_streaming(&db, &optimized.expr, cfg.clone());
            assert_eq!(
                streamed, reference,
                "{label}: streaming diverged under {cfg:?}"
            );
        }
    }
}

/// SUPPLIER ⋈ μ_supply(DELIVERY) ⋈ PART, associated left-deep the way
/// the rewrite pipeline emits it — the 3-relation chain the join-order
/// satellite reorders.
fn chain_query() -> oodb::adl::expr::Expr {
    use oodb::adl::dsl::*;
    join(
        "sd",
        "p",
        eq(var("sd").field("part"), var("p").field("pid")),
        join(
            "s",
            "d",
            eq(var("s").field("eid"), var("d").field("supplier")),
            table("SUPPLIER"),
            unnest("supply", table("DELIVERY")),
        ),
        table("PART"),
    )
}

/// Statistics skewed so the rewrite's first step (SUPPLIER ⋈
/// μ(DELIVERY)) is a many-to-many blow-up while μ(DELIVERY) ⋈ PART is
/// tiny — cheapest-first enumeration must flip the build order.
fn skewed_chain_stats() -> CatalogStats {
    use oodb::value::Name;
    let attr = |distinct, avg_set_len| AttrStats {
        distinct,
        avg_set_len,
    };
    let mut s = CatalogStats::new();
    let mut supplier = TableStats {
        rows: 1000,
        attrs: Default::default(),
        avg_row_bytes: Some(64.0),
    };
    supplier.attrs.insert(Name::from("eid"), attr(2, None));
    s.set_table(Name::from("SUPPLIER"), supplier);
    let mut delivery = TableStats {
        rows: 500,
        attrs: Default::default(),
        avg_row_bytes: Some(64.0),
    };
    delivery.attrs.insert(Name::from("supplier"), attr(2, None));
    delivery
        .attrs
        .insert(Name::from("supply"), attr(2000, Some(4.0)));
    s.set_table(Name::from("DELIVERY"), delivery);
    let mut part = TableStats {
        rows: 3,
        attrs: Default::default(),
        avg_row_bytes: Some(64.0),
    };
    part.attrs.insert(Name::from("pid"), attr(3, None));
    s.set_table(Name::from("PART"), part);
    s
}

/// Per-operator output totals, aggregated by label.
fn op_rows(stats: &oodb::engine::Stats) -> Vec<(String, u64)> {
    stats.operator_rows_by_label()
}

/// Satellite: the chain workload where DP provably flips the build
/// order (cheapest pair first) — the reordered plan differs
/// structurally, carries the `order=` EXPLAIN annotation, and still
/// produces exactly the naive evaluator's answer.
#[test]
fn dp_reorders_the_join_chain_without_changing_answers() {
    use oodb::engine::{Planner, Stats};
    let db = grid_db(120);
    let e = chain_query();
    let (reference, _) = run_naive(&db, &e);
    let mk = |join_order| PlannerConfig {
        join_order,
        ..Default::default()
    };
    let dp = Planner::with_stats(&db, mk(JoinOrder::Dp), skewed_chain_stats());
    let off = Planner::with_stats(&db, mk(JoinOrder::Off), skewed_chain_stats());
    let dp_plan = dp.plan(&e).unwrap();
    let off_plan = off.plan(&e).unwrap();

    assert_eq!(dp_plan.order_notes().len(), 1, "{}", dp_plan.explain());
    let note = &dp_plan.order_notes()[0];
    assert!(
        !note.contains("(SUPPLIER ⋈ Unnest(supply))")
            && !note.contains("(Unnest(supply) ⋈ SUPPLIER)"),
        "DP must not start with the blow-up pair: {note}"
    );
    assert!(off_plan.order_notes().is_empty());
    assert_ne!(dp_plan.phys.explain(), off_plan.phys.explain());

    let mut dp_stats = Stats::new();
    let mut off_stats = Stats::new();
    let dp_v = dp_plan.execute_streaming(&mut dp_stats).unwrap();
    let off_v = off_plan.execute_streaming(&mut off_stats).unwrap();
    assert_eq!(dp_v, reference);
    assert_eq!(off_v, reference);
}

/// Satellite: the `join_order` axis is *transparent* wherever DP
/// declines to reorder (no `order=` note): identical plans, identical
/// answers, identical per-operator row totals. Where it does reorder,
/// the answer still matches — covered per-config by the full grid.
#[test]
fn join_order_axis_is_transparent_when_dp_declines() {
    let db = grid_db(120);
    for q in OOSQL_QUERIES {
        let mk = |join_order| PlannerConfig {
            join_order,
            ..Default::default()
        };
        let off = Pipeline::with_config(&db, mk(JoinOrder::Off))
            .run(q)
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        let dp = Pipeline::with_config(&db, mk(JoinOrder::Dp))
            .run(q)
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_eq!(dp.result, off.result, "{q}");
        if !dp.explain.contains("order=") {
            assert_eq!(dp.explain, off.explain, "{q}");
            assert_eq!(op_rows(&dp.stats), op_rows(&off.stats), "{q}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Satellite: enumeration never returns a plan it priced *above*
    /// the rewrite order. Either DP declines (plan byte-identical to
    /// `join_order: off`) or the `order=` note's own numbers show
    /// `est_cost <= rewrite_cost` — and the answer matches either way.
    #[test]
    fn dp_never_picks_a_costlier_plan_than_the_rewrite_order(
        s_rows in 1u64..2000,
        s_distinct in 1u64..50,
        d_rows in 1u64..2000,
        d_distinct in 1u64..50,
        set_distinct in 1u64..3000,
        set_len in 1u64..8,
        p_rows in 1u64..2000,
        p_distinct in 1u64..50,
    ) {
        use oodb::engine::{Planner, Stats};
        use oodb::value::Name;
        let db = oodb::catalog::fixtures::supplier_part_db();
        let attr = |distinct, avg_set_len| AttrStats { distinct, avg_set_len };
        let mut stats = CatalogStats::new();
        let mut supplier = TableStats { rows: s_rows, attrs: Default::default(), avg_row_bytes: Some(64.0) };
        supplier.attrs.insert(Name::from("eid"), attr(s_distinct.min(s_rows), None));
        stats.set_table(Name::from("SUPPLIER"), supplier);
        let mut delivery = TableStats { rows: d_rows, attrs: Default::default(), avg_row_bytes: Some(64.0) };
        delivery.attrs.insert(Name::from("supplier"), attr(d_distinct.min(d_rows), None));
        delivery.attrs.insert(Name::from("supply"), attr(set_distinct, Some(set_len as f64)));
        stats.set_table(Name::from("DELIVERY"), delivery);
        let mut part = TableStats { rows: p_rows, attrs: Default::default(), avg_row_bytes: Some(64.0) };
        part.attrs.insert(Name::from("pid"), attr(p_distinct.min(p_rows), None));
        stats.set_table(Name::from("PART"), part);

        let e = chain_query();
        let mk = |join_order| PlannerConfig { join_order, ..Default::default() };
        let dp_plan = Planner::with_stats(&db, mk(JoinOrder::Dp), stats.clone())
            .plan(&e)
            .unwrap();
        let off_plan = Planner::with_stats(&db, mk(JoinOrder::Off), stats)
            .plan(&e)
            .unwrap();
        match dp_plan.order_notes().first() {
            None => prop_assert_eq!(dp_plan.phys.explain(), off_plan.phys.explain()),
            Some(note) => {
                let grab = |tag: &str| -> u64 {
                    let at = note.find(tag).unwrap_or_else(|| panic!("{tag} in {note}")) + tag.len();
                    note[at..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .unwrap()
                };
                let (est, rewrite) = (grab("est_cost="), grab("rewrite_cost="));
                prop_assert!(est <= rewrite, "DP chose {est} over rewrite {rewrite}: {note}");
            }
        }
        let mut ds = Stats::new();
        let mut os = Stats::new();
        let dp_v = dp_plan.execute_streaming(&mut ds).unwrap();
        let off_v = off_plan.execute_streaming(&mut os).unwrap();
        prop_assert_eq!(dp_v, off_v);
    }
}

/// §6.2's materialization runs two ways on the same query. Unrewritten,
/// it is a correlated map, whose body the reference evaluator answers
/// per supplier; rewritten, `nestjoin-map` has made it a membership
/// nestjoin: an owner join without a budget, and under one a membership
/// hash join, which a tight byte budget spills through the grace hash
/// join. Each runs under every memory budget of the grid at dop 1 and 2,
/// must show its operator in EXPLAIN (so the check cannot go vacuous),
/// and must stream exactly the naive result.
#[test]
fn materialization_strategies_agree_under_any_budget() {
    use oodb::engine::{Planner, Stats};
    let db = grid_db(80);
    let q = materialize_query();
    let (reference, _) = run_naive(&db, &q);
    let rewritten = Optimizer.optimize(&q, db.catalog()).expect("optimize").expr;
    for (expr, rewritten) in [(&q, false), (&rewritten, true)] {
        for memory_budget in [0usize, 64 << 10, 4 << 10] {
            // unbounded, the nestjoin reads SUPPLIER's owner index;
            // bounded, the membership hash join can spill
            let op = match (rewritten, memory_budget) {
                (false, _) => "Map",
                (true, 0) => "OwnersNestJoin",
                (true, _) => "MemberNestJoin",
            };
            for parallelism in [1usize, 2] {
                let cfg = PlannerConfig {
                    memory_budget,
                    parallelism,
                    parallel_threshold: 0,
                    ..Default::default()
                };
                let plan = Planner::with_config(&db, cfg.clone())
                    .plan(expr)
                    .expect("plan");
                let explain = plan.explain();
                let context = format!("{op}, {cfg:?}:\n{explain}");
                assert!(operator_names(&explain).contains(&op), "{context}");
                let streamed = plan
                    .execute_streaming(&mut Stats::new())
                    .expect("streaming");
                assert_eq!(streamed, reference, "{context}");
            }
        }
    }
}

/// The operator names of an EXPLAIN text, one per operator line (the
/// `order=` notes above the tree are not operators).
fn operator_names(explain: &str) -> Vec<&str> {
    explain
        .lines()
        .filter(|l| !l.starts_with("order="))
        .filter_map(|l| l.split_whitespace().next())
        .collect()
}

/// A forced algorithm picks from the same candidate list the cost-based
/// planner prices, so its plans carry estimates — but the pick stays
/// forced: no join-order enumeration and no hash, sort-merge or index
/// join under forced nested loops, although the database is indexed.
#[test]
fn forced_algorithms_stay_forced() {
    use oodb::engine::Planner;
    let db = grid_db(120);
    let workloads = [
        query5_nested(),
        query4_nested(),
        query6_nested(),
        query31_nested("supplier-0"),
        materialize_query(),
        nu_group_query(),
        join_supplier_delivery_query(),
        multi_join_chain_query(),
    ];
    // The `order=` check below is live: the cost-based planner reorders
    // the join chain on this database.
    let chain = Optimizer
        .optimize(&multi_join_chain_query(), db.catalog())
        .expect("optimize");
    let cheapest = Planner::new(&db).plan(&chain.expr).expect("plan");
    assert_eq!(cheapest.order_notes().len(), 1, "{}", cheapest.explain());
    for join_algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
        let cfg = PlannerConfig {
            join_algo,
            ..Default::default()
        };
        let mut explains: Vec<String> = OOSQL_QUERIES
            .iter()
            .map(|q| {
                Pipeline::with_config(&db, cfg.clone())
                    .run(q)
                    .unwrap_or_else(|e| panic!("{q}: {e}"))
                    .explain
            })
            .collect();
        for q in &workloads {
            let optimized = Optimizer.optimize(q, db.catalog()).expect("optimize");
            let plan = Planner::with_config(&db, cfg.clone())
                .plan(&optimized.expr)
                .expect("plan");
            explains.push(plan.explain());
        }
        for explain in &explains {
            let context = format!("{join_algo:?}:\n{explain}");
            assert!(explain.contains("est_cost="), "{context}");
            assert!(
                !explain.lines().any(|l| l.starts_with("order=")),
                "{context}"
            );
            let ops = operator_names(explain);
            if join_algo == JoinAlgo::NestedLoop {
                for set_oriented in [
                    "HashJoin",
                    "HashMemberJoin",
                    "HashNestJoin",
                    "MemberNestJoin",
                    "SortMergeJoin",
                    "IndexNLJoin",
                    "OwnersJoin",
                    "OwnersNestJoin",
                ] {
                    assert!(!ops.contains(&set_oriented), "{context}");
                }
            }
        }
    }
}
