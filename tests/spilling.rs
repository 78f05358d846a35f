//! External-memory subsystem acceptance tests.
//!
//! The contract of `oodb-spill` + the engine's grace/external operators:
//! a memory budget changes **where** intermediate state lives (RAM vs
//! spill files) and how much I/O the plan pays — never the answer. Every
//! paper query and §7 ADL workload must return canonical-set-identical
//! results at `memory_budget ∈ {unbounded, 64 KiB, 4 KiB}` × `dop ∈ {1,
//! 4}`, the spill paths must *actually execute* under the 4 KiB budget
//! (observable as per-operator `spill_bytes`), and spill-file I/O
//! failures must surface as `EvalError::Io`, not panics.

use oodb::catalog::Database;
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{EvalError, ExecOptions, JoinAlgo, MemoryBudget, Planner, PlannerConfig, Stats};
use oodb::Pipeline;
use oodb_bench::{
    materialize_query, query31_nested, query4_nested, query5_nested, query6_nested, run_naive,
};

/// Budgets of the acceptance matrix: unbounded (legacy), 64 KiB (some
/// operators spill at this scale), 4 KiB (every sizable hash build
/// grace-partitions, sorts go external).
const BUDGETS: [usize; 3] = [0, 64 << 10, 4 << 10];

/// The paper queries re-anchored to generator names (see
/// `tests/planner_grid.rs`).
const OOSQL_QUERIES: [&str; 6] = [
    "select (sname := s.sname, \
             pnames := select p.pname from p in PART \
                       where p.pid in s.parts and p.color = \"red\") \
     from s in SUPPLIER",
    "select d from d in (select e from e in DELIVERY \
      where e.supplier.sname = \"supplier-0\") \
     where d.date = date(940105)",
    "select s.sname from s in SUPPLIER \
     where s.parts supseteq \
       flatten(select t.parts from t in SUPPLIER where t.sname = \"supplier-0\")",
    "select d from d in DELIVERY \
     where exists x in d.supply : x.part.color = \"red\"",
    "select s.eid from s in SUPPLIER \
     where exists x in s.parts : not (exists p in PART : x = p.pid)",
    "select s.sname from s in SUPPLIER \
     where exists x in s.parts : \
           exists p in PART : x = p.pid and p.color = \"red\"",
];

fn config(memory_budget: usize, dop: usize) -> PlannerConfig {
    PlannerConfig {
        memory_budget,
        parallelism: dop,
        // keep the exchanges live at test scale, so budget × dop points
        // exercise the parallel spill composition
        parallel_threshold: 0,
        ..Default::default()
    }
}

fn scaled_db(scale: usize) -> Database {
    generate(&GenConfig {
        empty_supplier_fraction: 0.15,
        dangling_fraction: 0.15,
        ..GenConfig::scaled(scale)
    })
}

/// Per-label operator row totals with the owner joins named as the
/// membership hash joins they stand in for: an unbounded plan reads a
/// membership predicate off the left extent's owner index, a bounded
/// one hashes it, and both emit the same rows.
fn rows_by_family(stats: &Stats) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = stats
        .operator_rows_by_label()
        .into_iter()
        .map(|(label, n)| {
            let label = label
                .replace("OwnersNestJoin", "MemberNestJoin")
                .replace("OwnersJoin", "HashMemberJoin");
            (label, n)
        })
        .collect();
    rows.sort();
    rows
}

/// The acceptance matrix: every paper query at every budget × dop
/// agrees with the unbounded serial reference — results *and* merged
/// per-operator row totals (spilling changes the work profile, never
/// what rows each operator emits; see [`rows_by_family`]).
#[test]
fn paper_queries_identical_across_budgets_and_dop() {
    let db = scaled_db(400);
    for q in OOSQL_QUERIES {
        let reference = Pipeline::with_config(&db, config(0, 1))
            .run(q)
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        for budget in BUDGETS {
            for dop in [1usize, 4] {
                let out = Pipeline::with_config(&db, config(budget, dop))
                    .run(q)
                    .unwrap_or_else(|e| panic!("{q} at budget {budget} dop {dop}: {e}"));
                assert_eq!(
                    out.result.as_set().unwrap(),
                    reference.result.as_set().unwrap(),
                    "budget {budget} dop {dop} changed the result of {q}"
                );
                assert_eq!(
                    rows_by_family(&out.stats),
                    rows_by_family(&reference.stats),
                    "budget {budget} dop {dop} changed operator row totals of {q}"
                );
            }
        }
    }
}

/// The §7 ADL workloads (including the §6.2 materialization map) under
/// the same budget × dop matrix, against the naive nested-loop answer.
#[test]
fn adl_workloads_identical_across_budgets_and_dop() {
    let db = scaled_db(300);
    let workloads = [
        ("q5", query5_nested()),
        ("q4", query4_nested()),
        ("q6", query6_nested()),
        ("q31", query31_nested("supplier-0")),
        ("materialize", materialize_query()),
    ];
    let opt = Optimizer;
    for (label, q) in workloads {
        let (reference, _) = run_naive(&db, &q);
        let rewritten = opt.optimize(&q, db.catalog()).expect("optimize");
        for budget in BUDGETS {
            for dop in [1usize, 4] {
                let planner = Planner::with_config(&db, config(budget, dop));
                let plan = planner.plan(&rewritten.expr).expect("plan");
                let mut stats = Stats::new();
                let got = plan
                    .execute_streaming(&mut stats)
                    .unwrap_or_else(|e| panic!("{label} at budget {budget} dop {dop}: {e}"));
                assert_eq!(
                    got, reference,
                    "{label}: budget {budget} dop {dop} diverged"
                );
                // an unbounded run must never touch the spill subsystem
                if budget == 0 {
                    assert_eq!(stats.spill_bytes, 0, "{label} spilled with no budget");
                }
            }
        }
    }
}

/// Proof the spill paths run: under the 4 KiB budget a hash-family join
/// and a sort both report `spill_bytes > 0` in their per-operator
/// statistics, and results still match the unbounded run.
#[test]
fn hash_join_and_sort_spill_under_4k() {
    let db = scaled_db(400);
    // q5 without a PART-only conjunct plans a membership hash join over
    // all of PART (≫ 4 KiB encoded); a colour conjunct would be pushed
    // under the build side and shrink it below the budget
    let hash_q = "select s.sname from s in SUPPLIER \
                  where exists x in s.parts : \
                        exists p in PART : x = p.pid";
    let unbounded = Pipeline::with_config(&db, config(0, 1))
        .run(hash_q)
        .unwrap();
    let spilled = Pipeline::with_config(&db, config(4 << 10, 1))
        .run(hash_q)
        .unwrap();
    assert_eq!(spilled.result, unbounded.result);
    let hash_op = spilled
        .stats
        .operators
        .iter()
        .find(|o| o.op.contains("Join") && o.spill_bytes > 0)
        .unwrap_or_else(|| panic!("no spilling join in {:?}", spilled.stats.operators));
    assert!(hash_op.spill_partitions > 0, "{hash_op:?}");
    assert!(hash_op.spill_passes > 0, "{hash_op:?}");

    // a forced sort-merge join: its runs must go external
    let join = oodb::adl::dsl::join(
        "s",
        "d",
        oodb::adl::dsl::eq(
            oodb::adl::dsl::var("s").field("eid"),
            oodb::adl::dsl::var("d").field("supplier"),
        ),
        oodb::adl::dsl::table("SUPPLIER"),
        oodb::adl::dsl::table("DELIVERY"),
    );
    let smj_cfg = PlannerConfig {
        join_algo: JoinAlgo::SortMerge,
        ..config(4 << 10, 1)
    };
    let mut smj_stats = Stats::new();
    let smj = Planner::with_config(&db, smj_cfg)
        .plan(&join)
        .expect("plan")
        .execute_streaming(&mut smj_stats)
        .expect("spilled sort-merge join");
    let mut ref_stats = Stats::new();
    let reference = Planner::with_config(&db, config(0, 1))
        .plan(&join)
        .expect("plan")
        .execute_streaming(&mut ref_stats)
        .expect("unbounded join");
    assert_eq!(smj, reference);
    let smj_op = smj_stats.operator("SortMergeJoin").expect("smj op");
    assert!(
        smj_op.spill_bytes > 0,
        "sort runs did not spill: {smj_op:?}"
    );
    assert!(smj_stats.spill_bytes > 0);
}

/// The streaming ν group table spills under the 4 KiB budget: grouping
/// DELIVERY's unnested supply rows back together exceeds the budget at
/// this scale, so the incremental group table flushes key-hashed
/// partitions through the `SpillManager` — observable as `spill_bytes`
/// and incremental `in_batches` on the `Nest` operator — while the
/// result stays identical to the unbounded run and to the drain-to-set
/// reference path (`vectorize: false`).
#[test]
fn streaming_nest_spills_under_4k() {
    use oodb::adl::dsl::{nest, table, unnest};
    let db = scaled_db(400);
    let q = nest(
        &["part", "quantity"],
        "supply",
        unnest("supply", table("DELIVERY")),
    );
    // pin the streaming path on: this test asserts on the incremental
    // group table specifically, so it must not inherit OODB_VECTORIZE
    let on = |budget| PlannerConfig {
        vectorize: true,
        ..config(budget, 1)
    };
    let mut ref_stats = Stats::new();
    let reference = Planner::with_config(&db, on(0))
        .plan(&q)
        .expect("plan")
        .execute_streaming(&mut ref_stats)
        .expect("unbounded nest");
    let mut stats = Stats::new();
    let got = Planner::with_config(&db, on(4 << 10))
        .plan(&q)
        .expect("plan")
        .execute_streaming(&mut stats)
        .expect("spilled nest");
    assert_eq!(got, reference);
    let op = stats.operator("Nest").expect("nest op");
    assert!(op.spill_bytes > 0, "streaming ν did not spill: {op:?}");
    assert!(op.spill_partitions > 0, "{op:?}");
    assert!(op.in_batches > 0, "streaming ν consumed no batches: {op:?}");
    // the unbounded run streams too (grouping incrementally, in memory)
    let ref_op = ref_stats.operator("Nest").expect("nest op");
    assert!(ref_op.in_batches > 0, "{ref_op:?}");
    assert_eq!(ref_op.spill_bytes, 0, "unbounded ν spilled: {ref_op:?}");
    // the kill switch forces the drain-to-set reference path — same
    // answer, same per-operator row totals, no incremental consumption
    let off_cfg = PlannerConfig {
        vectorize: false,
        ..config(4 << 10, 1)
    };
    let mut off = Stats::new();
    let got_off = Planner::with_config(&db, off_cfg)
        .plan(&q)
        .expect("plan")
        .execute_streaming(&mut off)
        .expect("drain-to-set nest");
    assert_eq!(got_off, reference);
    let off_op = off.operator("Nest").expect("nest op");
    assert_eq!(
        off_op.in_batches, 0,
        "kill switch still streamed: {off_op:?}"
    );
    assert_eq!(stats.operator_rows_by_label(), off.operator_rows_by_label());
}

/// A budget far below the partition fan-out's reach forces grace
/// recursion (re-partitioning passes beyond the first).
#[test]
fn tiny_budgets_force_grace_recursion() {
    let db = scaled_db(800);
    let q = "select s.sname from s in SUPPLIER \
             where exists x in s.parts : \
                   exists p in PART : x = p.pid and p.color = \"red\"";
    let reference = Pipeline::with_config(&db, config(0, 1)).run(q).unwrap();
    let out = Pipeline::with_config(&db, config(512, 1)).run(q).unwrap();
    assert_eq!(out.result, reference.result);
    assert!(
        out.stats.spill_passes >= 2,
        "expected recursive re-partitioning: {}",
        out.stats
    );
}

/// §6.2's materialization, rewritten into a membership nestjoin, spills
/// through that join's grace partitions under a 4 KiB budget and
/// returns exactly the unbounded run's answer.
#[test]
fn materialization_spills_through_member_nestjoin() {
    let db = scaled_db(400);
    let q = Optimizer
        .optimize(&materialize_query(), db.catalog())
        .expect("optimize")
        .expr;
    let run = |budget: usize, stats: &mut Stats| {
        Planner::with_config(&db, config(budget, 1))
            .plan(&q)
            .expect("plan")
            .execute_streaming(stats)
            .expect("execute")
    };
    let reference = run(0, &mut Stats::new());
    let mut stats = Stats::new();
    let got = run(4 << 10, &mut stats);
    assert_eq!(got, reference);
    let op = stats.operator("MemberNestJoin").expect("MemberNestJoin op");
    assert!(op.spill_bytes > 0, "the nestjoin did not spill: {op:?}");
    assert!(op.spill_partitions > 1, "one partition only: {op:?}");
}

/// EXPLAIN carries the estimated spill volume under a bounded budget.
#[test]
fn explain_surfaces_estimated_spill() {
    let db = scaled_db(400);
    let q = "select s.sname from s in SUPPLIER \
             where exists x in s.parts : \
                   exists p in PART : x = p.pid and p.color = \"red\"";
    let out = Pipeline::with_config(&db, config(1 << 10, 1))
        .run(q)
        .unwrap();
    assert!(
        out.explain.contains("est_spill="),
        "no est_spill in:\n{}",
        out.explain
    );
    let unbounded = Pipeline::with_config(&db, config(0, 1)).run(q).unwrap();
    assert!(
        !unbounded.explain.contains("est_spill="),
        "unbounded plan priced spill:\n{}",
        unbounded.explain
    );
    // A nested-loop join drains its right side through the spilling
    // canonical-set breaker: EXPLAIN estimates the spill it then does.
    let forced = PlannerConfig {
        join_algo: JoinAlgo::NestedLoop,
        ..config(1 << 10, 1)
    };
    let nl = Pipeline::with_config(&db, forced).run(q).unwrap();
    let line = nl
        .explain
        .lines()
        .find(|l| l.trim_start().starts_with("NLJoin"))
        .unwrap_or_else(|| panic!("no NLJoin in:\n{}", nl.explain));
    assert!(line.contains("est_spill="), "{line}");
    let op = nl
        .stats
        .operators
        .iter()
        .find(|op| op.op.starts_with("NLJoin"))
        .expect("an NLJoin operator");
    assert!(op.spill_bytes > 0, "{op:?}");
}

/// Spill-file I/O failures surface as `EvalError::Io` — no panic, no
/// partial result. The spill directory is overridden with a regular
/// file, so creating partition files fails deterministically.
#[test]
fn unwritable_spill_dir_reports_io_error() {
    let db = scaled_db(300);
    let marker =
        std::env::temp_dir().join(format!("oodb-not-a-dir-{}-{}", std::process::id(), line!()));
    std::fs::write(&marker, b"regular file, not a directory").unwrap();
    let opts = ExecOptions {
        budget: MemoryBudget::bytes(256).with_spill_dir(&marker),
        ..config(256, 1).exec_options()
    };

    // a hash-family join whose build side must spill…
    let q = query5_nested();
    let rewritten = Optimizer.optimize(&q, db.catalog()).expect("optimize");
    let plan = Planner::with_config(&db, config(256, 1))
        .plan(&rewritten.expr)
        .expect("plan");
    let mut stats = Stats::new();
    let err = plan
        .phys
        .execute_streaming(&db, &mut stats, &opts)
        .expect_err("spilling into a file-as-directory must fail");
    assert!(
        matches!(err, EvalError::Io { .. }),
        "expected EvalError::Io, got {err:?}"
    );
    assert!(err.to_string().contains("spill I/O"), "{err}");

    // …and a forced sort-merge join spilling its runs
    let join = oodb::adl::dsl::join(
        "s",
        "d",
        oodb::adl::dsl::eq(
            oodb::adl::dsl::var("s").field("eid"),
            oodb::adl::dsl::var("d").field("supplier"),
        ),
        oodb::adl::dsl::table("SUPPLIER"),
        oodb::adl::dsl::table("DELIVERY"),
    );
    let smj_cfg = PlannerConfig {
        join_algo: JoinAlgo::SortMerge,
        ..config(256, 1)
    };
    let plan = Planner::with_config(&db, smj_cfg)
        .plan(&join)
        .expect("plan");
    let mut stats = Stats::new();
    let err = plan
        .phys
        .execute_streaming(&db, &mut stats, &opts)
        .expect_err("run spill must fail");
    assert!(matches!(err, EvalError::Io { .. }), "{err:?}");

    std::fs::remove_file(&marker).unwrap();
}
