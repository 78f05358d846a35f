//! Cost-model accuracy and EXPLAIN snapshot tests.
//!
//! The cost model only has to *rank* plans, but a model whose
//! cardinalities drift arbitrarily far from reality ranks garbage: these
//! tests pin every estimated per-operator cardinality on the §7
//! workloads to within an order of magnitude of the rows the streaming
//! pipeline actually measured (`Stats::operators`), so the model cannot
//! silently rot as operators evolve.

use oodb::catalog::Database;
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{JoinAlgo, Planner, PlannerConfig, Stats};
use oodb::Pipeline;
use oodb_bench::{
    join_supplier_delivery_query, materialize_query, multi_join_chain_query, nu_group_query,
    query31_nested, query4_nested, query5_nested, query6_nested,
};
use std::collections::BTreeMap;

#[test]
fn estimated_cardinalities_within_an_order_of_magnitude() {
    let db = generate(&GenConfig::scaled(800));
    let workloads = [
        ("q5_red_part_suppliers", query5_nested()),
        ("q4_referential_integrity", query4_nested()),
        ("q6_portfolios_nestjoin", query6_nested()),
        ("q31_superset_of_anchor", query31_nested("supplier-0")),
        ("materialize_section_6_2", materialize_query()),
        ("nu_group", nu_group_query()),
        ("join_supplier_delivery", join_supplier_delivery_query()),
        ("multi_join_chain", multi_join_chain_query()),
    ];
    for (label, q) in workloads {
        let optimized = Optimizer.optimize(&q, db.catalog()).expect("optimize");
        let planner = Planner::new(&db);
        let plan = planner.plan(&optimized.expr).expect("plan");

        // EXPLAIN ANALYZE pairs each node's estimate with the rows it
        // actually produced; summing both sides per operator label
        // mirrors how `Stats::operators` aggregates repeated instances.
        let mut stats = Stats::new();
        let analyzed = plan.explain_analyze(&mut stats).expect("analyze");
        let mut estimated: BTreeMap<&str, f64> = BTreeMap::new();
        let mut actual: BTreeMap<&str, f64> = BTreeMap::new();
        for op in &analyzed.ops {
            if let Some(est) = op.est_rows {
                *estimated.entry(&op.label).or_insert(0.0) += est;
            }
            if let Some(act) = op.actual_rows {
                *actual.entry(&op.label).or_insert(0.0) += act as f64;
            }
        }

        let mut compared = 0;
        for (op, est) in &estimated {
            let Some(act) = actual.get(op) else {
                continue;
            };
            // order-of-magnitude band, with a ±10-row affine slack so
            // near-empty operators (e.g. the handful of referential
            // integrity violators) do not trip on noise
            let (est_c, act_c) = (est.max(1.0), act.max(1.0));
            assert!(
                est_c <= 10.0 * act_c + 10.0 && act_c <= 10.0 * est_c + 10.0,
                "{label}: operator {op} estimated {est_c:.1} rows, measured {act_c:.1}\n{}",
                analyzed.text
            );
            compared += 1;
        }
        assert!(
            compared >= 2,
            "{label}: too few comparable operators ({compared})\nestimated: {estimated:?}\nactual: {actual:?}"
        );
    }
}

#[test]
fn root_estimate_tracks_result_cardinality() {
    let db = generate(&GenConfig::scaled(800));
    for q in [query5_nested(), query6_nested(), materialize_query()] {
        let optimized = Optimizer.optimize(&q, db.catalog()).expect("optimize");
        let plan = Planner::new(&db).plan(&optimized.expr).expect("plan");
        let est = plan.estimate().rows.max(1.0);
        let mut stats = Stats::new();
        let v = plan.execute_streaming(&mut stats).expect("execute");
        let actual = v.as_set().map(|s| s.len() as f64).unwrap_or(1.0).max(1.0);
        assert!(
            est <= 10.0 * actual + 10.0 && actual <= 10.0 * est + 10.0,
            "root estimate {est:.1} vs actual {actual:.1}\n{}",
            plan.explain()
        );
    }
}

// --------------------------------------------------------------------
// EXPLAIN snapshots

#[test]
fn explain_shows_algorithm_and_estimates_for_paper_queries() {
    let db = oodb::catalog::fixtures::supplier_part_db();
    // unbounded: under a bounded budget (the CI spilling pass) the owner
    // joins give way to membership hash joins
    let config = PlannerConfig {
        memory_budget: 0,
        ..PlannerConfig::default()
    };
    let pipeline = Pipeline::with_config(&db, config);
    // (query, operator the cost-based planner must surface in EXPLAIN)
    let cases = [
        (
            "select s.sname from s in SUPPLIER where exists x in s.parts : \
             exists p in PART : x = p.pid and p.color = \"red\"",
            "OwnersJoin Semi on SUPPLIER.parts",
        ),
        (
            "select s.eid from s in SUPPLIER \
             where exists x in s.parts : not (exists p in PART : x = p.pid)",
            "HashJoin Anti",
        ),
        (
            "select (sname := s.sname, partssuppl := select p from p in PART \
             where p.pid in s.parts) from s in SUPPLIER",
            "OwnersNestJoin ⊣→ys on SUPPLIER.parts",
        ),
        // a selection on SUPPLIER ahead of the nestjoin: no bare scan to
        // read owners for, so the membership hash join keeps the job
        (
            "select (sname := s.sname, partssuppl := select p from p in PART \
             where p.pid in s.parts) from s in SUPPLIER where s.sname <> \"s2\"",
            "MemberNestJoin ⊣→ys",
        ),
    ];
    for (q, operator) in cases {
        let out = pipeline.run(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert!(
            out.explain.contains(operator),
            "expected `{operator}` in plan for {q}:\n{}",
            out.explain
        );
        for needle in ["est_rows=", "est_cost="] {
            assert!(
                out.explain.contains(needle),
                "missing {needle} in plan:\n{}",
                out.explain
            );
        }
    }
}

/// The build side of a hash join in an EXPLAIN rendering: children
/// print left (probe) first, right (build) second, so the second Scan
/// under the topmost HashJoin is the build input.
fn build_side_scan(explain: &str) -> Option<String> {
    let mut lines = explain.lines();
    lines.find(|l| l.trim_start().starts_with("HashJoin"))?;
    // children print in order: left (probe) first, right (build) second
    let scans: Vec<&str> = lines
        .filter(|l| l.trim_start().starts_with("Scan "))
        .take(2)
        .collect();
    scans
        .get(1)
        .map(|s| s.trim_start().trim_start_matches("Scan ").to_string())
}

#[test]
fn cost_based_planning_flips_the_build_side_with_scale() {
    use oodb::adl::dsl::*;
    // same inner join, two databases with opposite size skews: the build
    // side must follow the smaller operand
    let join_expr = |l: &str, r: &str, lv: &str, rv: &str| {
        join(
            lv,
            rv,
            eq(var(lv).field("eid"), var(rv).field("supplier")),
            table(l),
            table(r),
        )
    };
    let e = join_expr("SUPPLIER", "DELIVERY", "s", "d");

    let small_deliveries: Database = generate(&GenConfig {
        suppliers: 400,
        deliveries: 40,
        parts: 50,
        ..GenConfig::default()
    });
    let small_suppliers: Database = generate(&GenConfig {
        suppliers: 40,
        deliveries: 400,
        parts: 50,
        ..GenConfig::default()
    });

    let plan_a = Planner::new(&small_deliveries).plan(&e).expect("plan");
    let plan_b = Planner::new(&small_suppliers).plan(&e).expect("plan");
    let build_a = build_side_scan(&plan_a.explain()).expect("hash join with two scans");
    let build_b = build_side_scan(&plan_b.explain()).expect("hash join with two scans");
    assert!(
        build_a.starts_with("DELIVERY"),
        "40-row DELIVERY should be the build side:\n{}",
        plan_a.explain()
    );
    assert!(
        build_b.starts_with("SUPPLIER"),
        "40-row SUPPLIER should be the build side:\n{}",
        plan_b.explain()
    );

    // forced hash joins have no such flip: build side is always the
    // syntactic right operand
    let rule = PlannerConfig {
        join_algo: JoinAlgo::Hash,
        ..Default::default()
    };
    let plan_c = Planner::with_config(&small_suppliers, rule)
        .plan(&e)
        .expect("plan");
    let build_c = build_side_scan(&plan_c.explain()).expect("hash join");
    assert!(build_c.starts_with("DELIVERY"), "{}", plan_c.explain());

    // the flipped plans still agree with the reference evaluator
    for (db, plan) in [(&small_deliveries, plan_a), (&small_suppliers, plan_b)] {
        let mut stats = Stats::new();
        let v = plan.execute_streaming(&mut stats).expect("execute");
        let ev = oodb::engine::Evaluator::new(db);
        assert_eq!(v, ev.eval_closed(&e).expect("reference"));
    }
}
