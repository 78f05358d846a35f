//! Golden EXPLAIN and operator-label file.
//!
//! Every paper OOSQL text and every §7 ADL workload the planner grid
//! checks is planned on one scale-400 database (with its secondary
//! indexes) under each join pick (`Cheapest` and the three forced
//! algorithms) × memory budget {unbounded, 4 KiB} × dop {1, 2}. For each plan the
//! test records the annotated `Plan::explain()` text (node lines,
//! `est_rows`/`est_cost`/`est_spill` and join-order notes) and the
//! `Stats::operators` labels of its streamed run, and compares the
//! whole rendering byte for byte with `tests/golden/explain.txt`.
//!
//! A plan, an estimate, an EXPLAIN line or an operator label that moves
//! fails here by name. Every `PlannerConfig` field is pinned, so the
//! `OODB_*` environment defaults cannot move a golden point. On a
//! mismatch the actual rendering is written to
//! `target/explain_golden.actual`; diff it against the golden file, and
//! copy it over only when the change is intended.

use oodb::catalog::Database;
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{BatchKind, JoinAlgo, JoinOrder, Planner, PlannerConfig, Stats};
use oodb::Pipeline;
use oodb_bench::{
    join_supplier_delivery_query, materialize_query, multi_join_chain_query, nu_group_query,
    query31_nested, query4_nested, query5_nested, query6_nested,
};
use std::fmt::Write;
use std::path::Path;

const GOLDEN: &str = "tests/golden/explain.txt";
const ACTUAL: &str = "target/explain_golden.actual";

/// The paper's six OOSQL examples, re-anchored to the generator's
/// names and dates (the texts of `tests/planner_grid.rs`).
const OOSQL_QUERIES: [(&str, &str); 6] = [
    (
        "oosql q1",
        "select (sname := s.sname, \
                 pnames := select p.pname from p in PART \
                           where p.pid in s.parts and p.color = \"red\") \
         from s in SUPPLIER",
    ),
    (
        "oosql q2",
        "select d from d in (select e from e in DELIVERY \
          where e.supplier.sname = \"supplier-0\") \
         where d.date = date(940105)",
    ),
    (
        "oosql q3.1",
        "select s.sname from s in SUPPLIER \
         where s.parts supseteq \
           flatten(select t.parts from t in SUPPLIER where t.sname = \"supplier-0\")",
    ),
    (
        "oosql q3.2",
        "select d from d in DELIVERY \
         where exists x in d.supply : x.part.color = \"red\"",
    ),
    (
        "oosql q4",
        "select s.eid from s in SUPPLIER \
         where exists x in s.parts : not (exists p in PART : x = p.pid)",
    ),
    (
        "oosql q5",
        "select s.sname from s in SUPPLIER \
         where exists x in s.parts : \
               exists p in PART : x = p.pid and p.color = \"red\"",
    ),
];

/// The grid: 4 join picks × 2 budgets × 2 dop. Every field
/// is spelled out — none may fall back to an environment default.
fn grid() -> Vec<PlannerConfig> {
    let mut grid = Vec::new();
    for join_algo in [
        JoinAlgo::Cheapest,
        JoinAlgo::Hash,
        JoinAlgo::SortMerge,
        JoinAlgo::NestedLoop,
    ] {
        for memory_budget in [0usize, 4096] {
            for parallelism in [1usize, 2] {
                grid.push(PlannerConfig {
                    join_algo,
                    parallelism,
                    parallel_threshold: 0,
                    memory_budget,
                    batch_kind: BatchKind::Columnar,
                    vectorize: true,
                    join_order: JoinOrder::Dp,
                    timing: false,
                });
            }
        }
    }
    grid
}

fn header(label: &str, cfg: &PlannerConfig) -> String {
    format!(
        "== {label} | {:?} budget={} dop={}\n",
        cfg.join_algo, cfg.memory_budget, cfg.parallelism
    )
}

/// The operator labels of one streamed run, sorted by pre-order
/// ordinal (exchange workers report in slot order, but a sorted list
/// does not depend on it).
fn op_lines(stats: &Stats) -> String {
    let mut ops: Vec<(usize, &str)> = stats
        .operators
        .iter()
        .map(|op| (op.ordinal.0, op.op.as_str()))
        .collect();
    ops.sort_unstable();
    let mut out = String::new();
    for (ord, label) in ops {
        let _ = writeln!(out, "  op {ord} {label}");
    }
    out
}

/// A scale-400 database with the planner grid's secondary indexes, so
/// index nested-loop plans are live golden points.
fn golden_db() -> Database {
    let mut db = generate(&GenConfig::scaled(400));
    db.create_index("PART", "pid").expect("indexable");
    db.create_index("PART", "color").expect("indexable");
    db.create_index("DELIVERY", "supplier").expect("indexable");
    db
}

fn render(db: &Database) -> String {
    let mut out = String::new();
    for (label, q) in OOSQL_QUERIES {
        for cfg in grid() {
            out.push_str(&header(label, &cfg));
            let run = Pipeline::with_config(db, cfg)
                .run(q)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            out.push_str(&run.explain);
            out.push_str(&op_lines(&run.stats));
        }
    }
    let workloads = [
        ("adl q5", query5_nested()),
        ("adl q4", query4_nested()),
        ("adl q6", query6_nested()),
        ("adl q31", query31_nested("supplier-0")),
        ("adl materialize", materialize_query()),
        ("adl nu_group", nu_group_query()),
        ("adl join_supplier_delivery", join_supplier_delivery_query()),
        ("adl multi_join_chain", multi_join_chain_query()),
    ];
    for (label, q) in workloads {
        let rewritten = Optimizer.optimize(&q, db.catalog()).expect("optimize");
        for cfg in grid() {
            out.push_str(&header(label, &cfg));
            let plan = Planner::with_config(db, cfg)
                .plan(&rewritten.expr)
                .expect("plan");
            out.push_str(&plan.explain());
            let mut stats = Stats::new();
            plan.execute_streaming(&mut stats)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            out.push_str(&op_lines(&stats));
        }
    }
    out
}

#[test]
fn explain_and_operator_labels_match_the_golden_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let actual = render(&golden_db());
    let golden = std::fs::read_to_string(root.join(GOLDEN)).unwrap_or_default();
    if actual == golden {
        return;
    }
    let path = root.join(ACTUAL);
    std::fs::create_dir_all(path.parent().expect("has a parent")).expect("target dir");
    std::fs::write(&path, &actual).expect("write the actual rendering");
    let first = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "EXPLAIN/operator-label rendering differs from {GOLDEN} (first at line {}); \
         see `diff {GOLDEN} {ACTUAL}`, and copy the actual file over the golden one \
         only if the change is intended",
        first + 1
    );
}
