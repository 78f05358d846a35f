//! Adaptive re-optimization acceptance: measured per-operator
//! cardinalities folded back into the planning statistics must actually
//! change what the planner believes — and the serving layer's staleness
//! epoch must guarantee that once feedback lands, no session is ever
//! handed a plan priced on the pre-feedback numbers.
//!
//! * Library level: after `CatalogStats::absorb_observed`, EXPLAIN
//!   `est_rows` reports the observed cardinality (for scans *and* for
//!   interior operator labels), and replanning converges — absorbing
//!   the profile of the replanned query is immaterial.
//! * Server level (`adaptive_stats: true`): run 1 executes and absorbs
//!   its profile (material: first observations) which bumps the epoch;
//!   run 2 re-plans — a plan-cache *miss*, the pre-feedback plan is
//!   unreachable — on the observed cardinalities, while the result
//!   cache still replays run 1's profile; run 3 hits the now-stable
//!   plan cache. Results are byte-identical throughout.

use oodb::catalog::{CatalogStats, Database};
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{Planner, PlannerConfig};
use oodb::server::{QueryServer, ServerConfig};
use oodb::value::{Oid, Value};

fn db() -> Database {
    generate(&GenConfig::scaled(240))
}

fn plan_explain(db: &Database, stats: CatalogStats, q: &str) -> String {
    let query = oodb::oosql::parse(q).unwrap();
    oodb::oosql::typecheck(&query, db.catalog()).unwrap();
    let nested = oodb::translate::translate(&query, db.catalog()).unwrap();
    let rewrite = Optimizer.optimize(&nested, db.catalog()).unwrap();
    let planner = Planner::with_stats(db, PlannerConfig::default(), stats);
    planner.plan(&rewrite.expr).unwrap().explain()
}

/// Feedback on a scan cardinality: plans priced on a stale row count
/// show the stale `est_rows`; absorbing the observed count re-prices
/// the same plan on the measured number.
#[test]
fn explain_reports_observed_scan_cardinality_after_feedback() {
    let db = db();
    let actual = db.table("SUPPLIER").unwrap().len() as u64;
    // A deliberately stale statistics set: claims 7 suppliers.
    let mut stale = CatalogStats::from_database(&db);
    let mut ts = stale.table("SUPPLIER").cloned().unwrap();
    ts.rows = 7;
    stale.set_table("SUPPLIER".into(), ts);
    assert_ne!(actual, 7, "test needs a scale where the lie is a lie");

    let q = "select s.sname from s in SUPPLIER";
    let before = plan_explain(&db, stale.clone(), q);
    assert!(
        before.contains("Scan SUPPLIER (est_rows=7"),
        "stale stats must surface in EXPLAIN:\n{before}"
    );

    // One feedback round: the measured scan cardinality lands.
    let material = stale.absorb_observed([("Scan(SUPPLIER)", actual)]);
    assert!(material, "7 -> {actual} is a material correction");
    let after = plan_explain(&db, stale.clone(), q);
    assert!(
        after.contains(&format!("Scan SUPPLIER (est_rows={actual}")),
        "replanning must price the observed cardinality:\n{after}"
    );

    // Convergence: absorbing the same observation again is immaterial.
    assert!(!stale.absorb_observed([("Scan(SUPPLIER)", actual)]));
}

/// Feedback on an interior operator: an absorbed observation for a
/// label occurring exactly once in the plan overrides that node's
/// estimated cardinality.
#[test]
fn explain_reports_observed_operator_cardinality_after_feedback() {
    let db = db();
    let q = "select s.sname from s in SUPPLIER where s.sname = \"supplier-0\"";
    let mut stats = CatalogStats::from_database(&db);
    let before = plan_explain(&db, stats.clone(), q);
    assert!(
        !before.contains("est_rows=12345"),
        "sentinel must not pre-exist:\n{before}"
    );
    assert!(stats.absorb_observed([("Filter", 12345u64)]));
    let after = plan_explain(&db, stats, q);
    assert!(
        after.contains("est_rows=12345"),
        "observed Filter cardinality must override the estimate:\n{after}"
    );
}

/// The serving-layer feedback loop: material feedback bumps the
/// staleness epoch so the next run *misses* the plan cache (zero stale
/// pre-feedback plans served) and re-plans on the observed
/// cardinalities; an immediately repeated run then hits the stabilized
/// cache. The result cache keeps replaying the recorded profile
/// throughout.
#[test]
fn server_feedback_replans_once_then_stabilizes() {
    let db = db();
    let q = "select s.sname from s in SUPPLIER where exists x in s.parts : \
             exists p in PART : x = p.pid and p.color = \"red\"";
    let server = QueryServer::with_config(
        &db,
        ServerConfig {
            adaptive_stats: true,
            ..Default::default()
        },
    );
    let session = server.session();
    let shared = server.shared();

    assert_eq!(shared.stats_epoch(), 0);
    let first = session.run(q).unwrap();
    assert_eq!(first.stats.plan_cache_hits, 0);
    assert_eq!(first.stats.result_cache_hits, 0);
    let epoch_after_first = shared.stats_epoch();
    assert!(
        epoch_after_first >= 1,
        "first-time operator observations are material feedback"
    );

    // Run 2: the epoch moved, so the pre-feedback plan is unreachable —
    // a plan-cache miss that re-plans on the absorbed cardinalities.
    // The result cache still serves the memoized value, replaying run
    // 1's execution profile (so no new absorption happens and the
    // epoch holds still).
    let second = session.run(q).unwrap();
    assert_eq!(
        second.stats.plan_cache_hits, 0,
        "a stale pre-feedback plan must never be served"
    );
    assert_eq!(second.stats.result_cache_hits, 1);
    assert_eq!(second.result, first.result);
    assert_eq!(
        second.stats.operator_rows_by_label(),
        first.stats.operator_rows_by_label(),
        "replay must report the recorded profile"
    );
    assert_eq!(shared.stats_epoch(), epoch_after_first);

    // Run 3: same epoch, the re-planned entry is cached — the loop has
    // converged to plan-cache hits.
    let third = session.run(q).unwrap();
    assert_eq!(third.stats.plan_cache_hits, 1);
    assert_eq!(third.result, first.result);

    let m = shared.metrics();
    assert_eq!(
        (m.plan_hits, m.plan_misses),
        (1, 2),
        "exactly one re-plan after feedback, then stable hits"
    );
}

/// With `adaptive_stats` off (the default), the epoch never moves and
/// repeated queries hit the plan cache immediately — the feedback loop
/// is fully opt-in.
#[test]
fn feedback_is_inert_when_disabled() {
    let db = db();
    let q = "select s.sname from s in SUPPLIER";
    let server = QueryServer::new(&db);
    let session = server.session();
    let first = session.run(q).unwrap();
    let second = session.run(q).unwrap();
    assert_eq!(server.shared().stats_epoch(), 0);
    assert_eq!(first.stats.plan_cache_hits, 0);
    assert_eq!(second.stats.plan_cache_hits, 1);
    assert_eq!(second.result, first.result);
}

/// A write between two servers reaches the adaptive statistics: the
/// rebuild replaces the written extent's statistics in the accumulator
/// (keeping its observations), so the next plan is priced on the
/// post-write distinct count, not on the count seeded before the write.
#[test]
fn adaptive_stats_follow_a_write_between_servers() {
    let mut db = db();
    let config = ServerConfig {
        adaptive_stats: true,
        ..Default::default()
    };
    let shared = {
        let server = QueryServer::with_config(&db, config.clone());
        // Seeds the accumulator; observes SUPPLIER, never PART.
        server
            .session()
            .run("select s.sname from s in SUPPLIER")
            .unwrap();
        server.shared()
    };
    let before = CatalogStats::from_database(&db);
    let proto = db.table("PART").unwrap().rows().next().unwrap().clone();
    for i in 0..40u64 {
        let row = proto
            .except(&[
                ("pid".into(), Value::Oid(Oid(7_000_000 + i))),
                ("color".into(), Value::str(&format!("color-{i}"))),
            ])
            .unwrap();
        db.insert("PART", row).unwrap();
    }
    let after = CatalogStats::from_database(&db);
    let (old, new) = (
        before.distinct("PART", "color").unwrap(),
        after.distinct("PART", "color").unwrap(),
    );
    assert!(
        new > 2 * old,
        "the write must move the distinct count >2x: {old} -> {new}"
    );

    let server = QueryServer::with_shared(&db, config, shared);
    let q = "select p.pname from p in PART where p.color = \"red\"";
    let explain = server.session().run(q).unwrap().explain;
    let fresh = plan_explain(&db, after, q);
    let stale = plan_explain(&db, before, q);
    let filter = |text: &str| {
        text.lines()
            .find(|l| l.trim_start().starts_with("Filter"))
            .unwrap_or_else(|| panic!("no Filter in:\n{text}"))
            .to_string()
    };
    assert_ne!(
        filter(&fresh),
        filter(&stale),
        "the estimate must depend on the count"
    );
    assert_eq!(
        filter(&explain),
        filter(&fresh),
        "priced on the post-write distinct count ({new}), not {old}:\n{explain}"
    );
}
