//! End-to-end reproduction of the paper's six example queries (§2, §4):
//! OOSQL source → parse → type check → translate → optimize → execute,
//! asserting both the *plan shape* (which rewrite rules fired) and the
//! exact results on the §2 fixture database — and that the optimized plan
//! agrees with the naive nested-loop execution.

use oodb::adl::Expr;
use oodb::catalog::fixtures::supplier_part_db;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::physical::JoinFamily;
use oodb::engine::{PhysPlan, Planner};
use oodb::value::{Oid, Value};
use oodb::{Pipeline, PipelineOutput};

fn run(src: &str) -> PipelineOutput {
    let db = supplier_part_db();
    let pipeline = Pipeline::new(&db);
    let out = pipeline.run(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let naive = pipeline.run_naive(src).unwrap();
    assert_eq!(out.result, naive, "optimized ≠ nested-loop for {src}");
    out
}

fn snames(v: &Value) -> Vec<String> {
    v.as_set()
        .unwrap()
        .iter()
        .map(|x| match x {
            Value::Str(s) => s.to_string(),
            Value::Tuple(t) => t.get("sname").unwrap().to_string(),
            other => other.to_string(),
        })
        .collect()
}

/// Example Query 1 — nesting in the select-clause: supplier names with
/// the names of the red parts supplied.
#[test]
fn example_query_1_select_clause_nesting() {
    let out = run("select (sname := s.sname, \
                 pnames := select p.pname from p in PART \
                           where p.pid in s.parts and p.color = \"red\") \
         from s in SUPPLIER");
    assert!(
        out.rewrite.trace.fired("nestjoin-map"),
        "trace:\n{}",
        out.rewrite.trace
    );
    let rows = out.result.as_set().unwrap();
    assert_eq!(rows.len(), 5);
    let by_name = |n: &str| {
        rows.iter()
            .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str(n)))
            .unwrap()
            .as_tuple()
            .unwrap()
            .get("pnames")
            .unwrap()
            .clone()
    };
    assert_eq!(
        by_name("s1"),
        Value::set([Value::str("bolt"), Value::str("screw")])
    );
    assert_eq!(by_name("s2"), Value::set([Value::str("screw")]));
    assert_eq!(
        by_name("s3"),
        Value::set([Value::str("bolt"), Value::str("screw")])
    );
    // the suppliers with no red parts keep EMPTY sets — no dangling loss
    assert_eq!(by_name("s4"), Value::empty_set());
    assert_eq!(by_name("s5"), Value::empty_set());
}

/// Example Query 2 — nesting in the from-clause: deliveries by s1 dated
/// January 1, 1994. "Nesting in the from-clause […] can be removed
/// easily."
#[test]
fn example_query_2_from_clause_nesting() {
    let out = run("select d from d in (select e from e in DELIVERY \
          where e.supplier.sname = \"s1\") \
         where d.date = date(940101)");
    assert!(out.rewrite.trace.fired("identity-map"));
    assert!(out.rewrite.trace.fired("merge-selects"));
    let rows = out.result.as_set().unwrap();
    assert_eq!(rows.len(), 2); // d21 and d23
    for r in rows.iter() {
        assert_eq!(
            r.as_tuple().unwrap().get("date"),
            Some(&Value::Date(940101))
        );
        assert_eq!(
            r.as_tuple().unwrap().get("supplier"),
            Some(&Value::Oid(Oid(1)))
        );
    }
}

/// Example Query 3.1 — set comparison between blocks: suppliers supplying
/// all parts supplied by s1. (The subquery is uncorrelated: it is treated
/// as a constant, per §3.)
#[test]
fn example_query_3_1_superset_between_blocks() {
    let out = run("select s.sname from s in SUPPLIER \
         where s.parts supseteq \
           flatten(select t.parts from t in SUPPLIER where t.sname = \"s1\")");
    assert!(
        out.rewrite.trace.fired("hoist-uncorrelated"),
        "{}",
        out.rewrite.trace
    );
    assert_eq!(snames(&out.result), vec!["s1", "s3"]);
}

/// Example Query 3.2 — quantifier over a set-valued attribute: deliveries
/// that include red parts. Iteration over the clustered `supply` attribute
/// is deliberately left nested (§3).
#[test]
fn example_query_3_2_exists_over_set_attribute() {
    let out = run("select d from d in DELIVERY \
         where exists x in d.supply : x.part.color = \"red\"");
    let rows = out.result.as_set().unwrap();
    assert_eq!(rows.len(), 2); // d21 (bolt) and d23 (screw, gear)
    let dids: Vec<Oid> = rows
        .iter()
        .map(|r| r.as_tuple().unwrap().get("did").unwrap().as_oid().unwrap())
        .collect();
    assert_eq!(dids, vec![Oid(21), Oid(23)]);
}

/// Example Query 4 — referential integrity violators: option 1
/// (attribute unnesting) followed by Rule 1.2 (antijoin), exactly the
/// paper's derivation `π(μ_parts(SUPPLIER) ▷ PART)`.
#[test]
fn example_query_4_referential_integrity() {
    let out = run("select s.eid from s in SUPPLIER \
         where exists x in s.parts : not (exists p in PART : x = p.pid)");
    assert!(
        out.rewrite.trace.fired("attr-unnest"),
        "{}",
        out.rewrite.trace
    );
    assert!(out.rewrite.trace.fired("rule1-not-exists"));
    assert_eq!(out.result, Value::set([Value::Oid(Oid(5))])); // s5
}

/// Example Query 5 — suppliers supplying red parts: quantifier exchange
/// then Rule 1.1, reaching the paper's semijoin
/// `SUPPLIER ⋉ σ[p : p.color = "red"](PART)`.
#[test]
fn example_query_5_semijoin() {
    let out = run("select s.sname from s in SUPPLIER \
         where exists x in s.parts : \
               exists p in PART : x = p.pid and p.color = \"red\"");
    assert!(
        out.rewrite.trace.fired("exists-exchange"),
        "{}",
        out.rewrite.trace
    );
    assert!(out.rewrite.trace.fired("rule1-exists"));
    assert_eq!(snames(&out.result), vec!["s1", "s2", "s3"]);
    // the optimized plan does set-oriented work, not nested-loop work:
    // owner-index probes (the owner semijoin an unbounded budget picks) or
    // hash probes (the membership hash join under a bounded one)
    assert_eq!(out.stats.loop_iterations, 0, "stats: {}", out.stats);
    assert!(out.stats.index_probes + out.stats.hash_probes > 0);
}

/// Example Query 6 — supplier names together with the part objects
/// supplied: the nestjoin rewrite (§6.1, "cannot be rewritten into a
/// relational join query").
#[test]
fn example_query_6_nestjoin() {
    let out = run("select (sname := s.sname, \
                 partssuppl := select p from p in PART where p.pid in s.parts) \
         from s in SUPPLIER");
    assert!(
        out.rewrite.trace.fired("nestjoin-map"),
        "{}",
        out.rewrite.trace
    );
    let rows = out.result.as_set().unwrap();
    assert_eq!(rows.len(), 5);
    let s1 = rows
        .iter()
        .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s1")))
        .unwrap();
    let parts = s1
        .as_tuple()
        .unwrap()
        .get("partssuppl")
        .unwrap()
        .as_set()
        .unwrap();
    assert_eq!(parts.len(), 3);
    // full part OBJECTS, not just pointers
    assert!(parts
        .iter()
        .all(|p| p.as_tuple().unwrap().get("price").is_some()));
    // s4 keeps its empty set — the nestjoin preserves dangling tuples
    let s4 = rows
        .iter()
        .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s4")))
        .unwrap();
    assert_eq!(
        s4.as_tuple().unwrap().get("partssuppl"),
        Some(&Value::empty_set())
    );
}

/// All six queries leave zero base tables nested inside iterator
/// parameters (the §3 goal) — except Query 3.2, which iterates a
/// clustered set-valued attribute and is *correctly* left nested.
#[test]
fn unnesting_goal_reached() {
    use oodb::core::strategy::nested_table_score;
    let db = supplier_part_db();
    let pipeline = Pipeline::new(&db);
    let queries = [
        "select (sname := s.sname, pnames := select p.pname from p in PART \
          where p.pid in s.parts and p.color = \"red\") from s in SUPPLIER",
        "select d from d in (select e from e in DELIVERY \
          where e.supplier.sname = \"s1\") where d.date = date(940101)",
        "select s.sname from s in SUPPLIER where s.parts supseteq \
          flatten(select t.parts from t in SUPPLIER where t.sname = \"s1\")",
        "select s.eid from s in SUPPLIER \
          where exists x in s.parts : not (exists p in PART : x = p.pid)",
        "select s.sname from s in SUPPLIER where exists x in s.parts : \
          exists p in PART : x = p.pid and p.color = \"red\"",
        "select (sname := s.sname, partssuppl := select p from p in PART \
          where p.pid in s.parts) from s in SUPPLIER",
    ];
    for q in queries {
        let out = pipeline.run(q).unwrap();
        assert_eq!(
            nested_table_score(&out.rewrite.expr),
            0,
            "still nested: {}\ntrace:\n{}",
            out.rewrite.expr,
            out.rewrite.trace
        );
    }
}

/// A two-variable from-clause join whose select-clause reads only the
/// left variable. `nestjoin-map` used to turn it into a nestjoin whose
/// collected function `d : s.sname` mentions `s`, which a nestjoin
/// cannot bind, and the rewrite died with "unbound variable s". The rule
/// now declines; the answer must be the nested loop's.
#[test]
fn two_variable_join_selecting_the_left_variable() {
    let out = run("select s.sname from s in SUPPLIER, d in DELIVERY where s.eid = d.supplier");
    assert!(
        !out.rewrite.trace.fired("nestjoin-map"),
        "trace:\n{}",
        out.rewrite.trace
    );
    let mut names = snames(&out.result);
    names.sort();
    assert_eq!(names, ["s1", "s2"]);
}

/// The benchmark's q5 and q6 texts: the PART-only conjuncts next to the
/// membership conjunct.
const BENCH_Q5: &str = "select s.sname from s in SUPPLIER where exists x in s.parts : \
     exists p in PART : x = p.pid and p.color = \"red\" and p.price < 510 \
     and p.pname <> \"part-3\"";
const BENCH_Q6: &str = "select (sname := s.sname, partssuppl := select p from p in PART \
     where p.pid in s.parts and p.price < 510 and p.color <> \"red\" \
     and p.pname <> \"part-3\") from s in SUPPLIER";

/// Skips the exchanges the planner puts around operands at dop > 1.
fn under_exchanges(p: &PhysPlan) -> &PhysPlan {
    match p {
        PhysPlan::Exchange { input, .. } => under_exchanges(input),
        other => other,
    }
}

/// The residual and build side of the first membership join in `p`: a
/// membership hash join, or an owner join (the same predicate read off
/// the left extent's reverse-reference index).
fn member_join(p: &PhysPlan) -> Option<(&Option<Expr>, &PhysPlan)> {
    match p {
        PhysPlan::Join {
            spec,
            right: Some(right),
            ..
        } if matches!(
            spec.family,
            JoinFamily::Member { .. } | JoinFamily::Owners { .. }
        ) =>
        {
            Some((&spec.residual, right))
        }
        other => other.children().into_iter().find_map(member_join),
    }
}

/// `join-operand-select` moves q5's and q6's PART-only conjuncts out of
/// the semijoin and nestjoin predicates: the join keeps no residual, and
/// a `Filter` over PART feeds its build side, so each part is checked
/// once instead of once per candidate pair.
#[test]
fn benchmark_q5_q6_filter_part_before_the_build() {
    let db = generate(&GenConfig::scaled(800));
    let pipeline = Pipeline::new(&db);
    for src in [BENCH_Q5, BENCH_Q6] {
        let out = pipeline.run(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert!(
            out.rewrite.trace.fired("join-operand-select"),
            "{src}\ntrace:\n{}",
            out.rewrite.trace
        );
        assert_eq!(out.result, pipeline.run_naive(src).unwrap(), "{src}");
        assert!(!out.result.as_set().unwrap().is_empty(), "{src}");

        let plan = Planner::new(&db).plan(&out.rewrite.expr).unwrap();
        let (residual, build) = member_join(&plan.phys)
            .unwrap_or_else(|| panic!("no membership join:\n{}", plan.explain()));
        assert!(residual.is_none(), "residual left:\n{}", plan.explain());
        let PhysPlan::Filter { input, .. } = under_exchanges(build) else {
            panic!("no Filter under the build side:\n{}", plan.explain())
        };
        assert!(
            matches!(under_exchanges(input), PhysPlan::Scan(t) if t.as_ref() == "PART"),
            "{}",
            plan.explain()
        );
    }
}

/// Example Query 6 with an outer selection. The map's input is
/// `σ[s : s.sname ≠ …](SUPPLIER)`, a σ over the map's own variable.
/// `nestjoin-map` used to read that `s` as a collision with the map's
/// `s` and decline, which left a nested loop that rescanned PART per
/// supplier. The nestjoin must fire, no base table may stay nested, and
/// the answer must be the nested loop's.
#[test]
fn example_query_6_with_an_outer_selection() {
    use oodb::core::strategy::nested_table_score;
    let src = "select (sname := s.sname, partssuppl := select p from p in PART \
         where p.pid in s.parts) from s in SUPPLIER where s.sname <> \"supplier-3\"";
    let db = generate(&GenConfig::scaled(200));
    let pipeline = Pipeline::new(&db);
    let out = pipeline.run(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    assert!(
        out.rewrite.trace.fired("nestjoin-map"),
        "trace:\n{}",
        out.rewrite.trace
    );
    assert_eq!(
        nested_table_score(&out.rewrite.expr),
        0,
        "still nested: {}",
        out.rewrite.expr
    );
    assert_eq!(out.result, pipeline.run_naive(src).unwrap());
    let names = snames(&out.result);
    assert_eq!(names.len(), db.table("SUPPLIER").unwrap().len() - 1);
    assert!(!names.iter().any(|n| n == "supplier-3"));
}
