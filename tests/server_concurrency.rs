//! Serving-layer acceptance: the multi-session query server must be a
//! *transparent* wrapper over library execution — same bytes, same
//! per-operator row totals — while adding plan/result caching and
//! global admission control:
//!
//! * N concurrent sessions × the paper-query workload return results
//!   byte-identical to serial library execution, and per-operator
//!   `rows_out` totals are unchanged, at every (clients × dop × budget)
//!   grid point.
//! * Cached plans and results are invalidated by extent writes
//!   (property test over random write/run interleavings):
//!   `plan_cache_hits` increments **only** when no invalidating write
//!   occurred since the entry was cached, and a cached re-run always
//!   matches a fresh execution.
//! * Admission control: under a global byte cap, the sum of live
//!   memory grants never exceeds the cap (high-water mark) and every
//!   queued query completes.
//! * `Stats` worker merges fold deterministically (keyed on
//!   (query, task) order, not OS thread) — repeated runs of the same
//!   parallel query produce identical operator profiles even while
//!   other clients hammer the shared pool.

use std::collections::BTreeMap;
use std::sync::Arc;

use oodb::catalog::{CatalogStats, Database};
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{Evaluator, Planner, PlannerConfig, Stats};
use oodb::server::{net, QueryServer, ServerConfig};
use oodb::value::{Oid, Value};
use proptest::prelude::*;

/// The paper queries, anchored to generator names (same set as the
/// spilling and planner-grid suites).
const QUERIES: [&str; 6] = [
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
    "select s.sname from s in SUPPLIER where exists x in s.parts : \
     exists p in PART : x = p.pid and p.color = \"red\"",
];

fn scaled_db(scale: usize) -> Database {
    generate(&GenConfig {
        empty_supplier_fraction: 0.15,
        dangling_fraction: 0.15,
        ..GenConfig::scaled(scale)
    })
}

fn config(dop: usize, memory_budget: usize) -> PlannerConfig {
    PlannerConfig {
        parallelism: dop,
        memory_budget,
        // keep exchanges live at test scale so dop actually runs morsels
        // through the shared pool
        parallel_threshold: 0,
        ..Default::default()
    }
}

/// Direct library execution — deliberately *not* `Pipeline`, which
/// itself runs through a `QueryServer`. This is the serial reference
/// the server must be indistinguishable from.
fn library_run(db: &Database, config: &PlannerConfig, q: &str) -> (Value, Stats) {
    let query = oodb::oosql::parse(q).unwrap();
    oodb::oosql::typecheck(&query, db.catalog()).unwrap();
    let nested = oodb::translate::translate(&query, db.catalog()).unwrap();
    let rewrite = Optimizer.optimize(&nested, db.catalog()).unwrap();
    let planner = Planner::with_stats(db, config.clone(), CatalogStats::from_database(db));
    let plan = planner.plan(&rewrite.expr).unwrap();
    let mut stats = Stats::default();
    let result = plan.execute_streaming(&mut stats).unwrap();
    (result, stats)
}

/// Per-operator output totals, aggregated by label — the work profile
/// that must not change when execution moves behind the server.
fn op_rows(stats: &Stats) -> Vec<(String, u64)> {
    let mut m: BTreeMap<String, u64> = BTreeMap::new();
    for o in &stats.operators {
        *m.entry(o.op.clone()).or_default() += o.rows_out;
    }
    m.into_iter().collect()
}

/// Satellite 1: the (clients × dop × budget) grid. Every client session
/// gets byte-identical results and identical operator row totals to the
/// serial library reference, at every point.
#[test]
fn concurrent_sessions_match_serial_library_execution() {
    let db = scaled_db(240);
    for &clients in &[1usize, 3] {
        for &dop in &[1usize, 4] {
            for &budget in &[0usize, 4 << 10] {
                let cfg = config(dop, budget);
                let baseline: Vec<(String, Vec<(String, u64)>)> = QUERIES
                    .iter()
                    .map(|q| {
                        let (v, s) = library_run(&db, &cfg, q);
                        (v.to_string(), op_rows(&s))
                    })
                    .collect();
                let server = QueryServer::with_config(
                    &db,
                    ServerConfig {
                        planner: cfg,
                        ..ServerConfig::default()
                    },
                );
                std::thread::scope(|scope| {
                    for client in 0..clients {
                        let server = &server;
                        let baseline = &baseline;
                        scope.spawn(move || {
                            let session = server.session();
                            // Stagger start points so clients overlap on
                            // *different* queries, not in lockstep.
                            for i in 0..QUERIES.len() {
                                let qi = (client + i) % QUERIES.len();
                                let out = session.run(QUERIES[qi]).unwrap();
                                assert_eq!(
                                    out.result.to_string(),
                                    baseline[qi].0,
                                    "client {client} query {qi} diverged \
                                     (clients={clients} dop={dop} budget={budget})"
                                );
                                assert_eq!(
                                    op_rows(&out.stats),
                                    baseline[qi].1,
                                    "client {client} query {qi} operator rows diverged \
                                     (clients={clients} dop={dop} budget={budget})"
                                );
                            }
                        });
                    }
                });
                let m = server.shared().metrics();
                assert_eq!(
                    m.plan_hits + m.plan_misses,
                    (clients * QUERIES.len()) as u64,
                    "every run is a hit or a miss"
                );
            }
        }
    }
}

/// Satellite 4 (regression): `Stats::absorb_worker` folds in task-slot
/// order under the shared pool, so a parallel query's operator profile
/// (labels, rows, batches, in order) is identical run-to-run even while
/// concurrent clients contend for the same workers.
#[test]
fn parallel_stats_fold_deterministically_under_contention() {
    let db = scaled_db(240);
    let cfg = config(4, 4 << 10);
    let server = QueryServer::with_config(
        &db,
        ServerConfig {
            planner: cfg,
            ..ServerConfig::default()
        },
    );
    let profile = |stats: &Stats| -> Vec<(String, u64, u64)> {
        stats
            .operators
            .iter()
            .map(|o| (o.op.clone(), o.rows_out, o.batches))
            .collect()
    };
    let reference: Vec<Vec<(String, u64, u64)>> = QUERIES
        .iter()
        .map(|q| profile(&server.session().run(q).unwrap().stats))
        .collect();
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let server = &server;
            let reference = &reference;
            scope.spawn(move || {
                let session = server.session();
                for round in 0..2 {
                    for (qi, q) in QUERIES.iter().enumerate() {
                        let out = session.run(q).unwrap();
                        assert_eq!(
                            &profile(&out.stats),
                            &reference[qi],
                            "operator profile not deterministic \
                             (client {client}, round {round}, query {qi})"
                        );
                    }
                }
            });
        }
    });
}

/// Satellite 3: admission control. Three spill-heavy queries race for a
/// global 8 KiB budget while each requests 4 KiB: the high-water mark
/// of live grants never exceeds the cap, nobody starves (all three
/// complete, correctly), and the workload genuinely spills.
#[test]
fn global_budget_cap_is_never_exceeded_and_nobody_starves() {
    let db = scaled_db(400);
    let cfg = config(2, 4 << 10);
    let cap = 8 << 10;
    let server = QueryServer::with_config(
        &db,
        ServerConfig {
            planner: cfg.clone(),
            global_memory_bytes: cap,
            ..ServerConfig::default()
        },
    );
    // q5 without a PART-only conjunct builds all of PART; at a 4 KiB
    // budget its hash state spills (the spilling suite pins this).
    let q = "select s.sname from s in SUPPLIER \
             where exists x in s.parts : exists p in PART : x = p.pid";
    let (expect, _) = library_run(&db, &cfg, q);
    let expect = expect.to_string();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let server = &server;
            let expect = &expect;
            scope.spawn(move || {
                let out = server.session().run(q).unwrap();
                assert_eq!(&out.result.to_string(), expect);
                assert!(
                    out.stats.spill_bytes > 0,
                    "workload must be spill-heavy for the test to mean anything"
                );
            });
        }
    });
    let pool = server.shared();
    let pool = pool.budget_pool();
    assert!(
        pool.high_water() <= cap,
        "live grants peaked at {} over the {cap}-byte cap",
        pool.high_water()
    );
    assert!(
        pool.high_water() >= 4 << 10,
        "at least one grant must have been admitted"
    );
    assert_eq!(pool.in_use(), 0, "all grants released");
}

/// Acceptance: a repeated query skips rewrite + costing — observable as
/// `plan_cache_hits`, a reused EXPLAIN, and a replayed rewrite trace.
/// Alpha-equivalent queries (renamed binders) share the cache entry.
#[test]
fn repeated_queries_hit_the_plan_cache() {
    let db = scaled_db(120);
    let server = QueryServer::new(&db);
    let session = server.session();
    let q = "select s.sname from s in SUPPLIER where exists x in s.parts : \
             exists p in PART : x = p.pid and p.color = \"red\"";
    let first = session.run(q).unwrap();
    assert_eq!(first.stats.plan_cache_hits, 0);
    assert!(!first.rewrite.trace.is_empty(), "the rewrite fired");

    let second = session.run(q).unwrap();
    assert_eq!(second.stats.plan_cache_hits, 1, "repeat must hit");
    assert_eq!(second.result, first.result);
    assert_eq!(second.explain, first.explain);
    assert!(
        !second.rewrite.trace.is_empty(),
        "cache hits replay the rewrite trace"
    );

    // Alpha-equivalent spelling: different binder names, same entry.
    let renamed = "select w.sname from w in SUPPLIER where exists y in w.parts : \
                   exists z in PART : y = z.pid and z.color = \"red\"";
    let third = server.session().run(renamed).unwrap();
    assert_eq!(
        third.stats.plan_cache_hits, 1,
        "alpha-equivalent query must share the plan"
    );
    assert_eq!(third.result, first.result);

    let m = server.shared().metrics();
    assert_eq!((m.plan_hits, m.plan_misses), (2, 1));
}

/// Opt-in result caching: the second run serves the memoized value
/// (execution skipped — `result_cache_hits`), and an extent write makes
/// the server recompute.
#[test]
fn result_cache_serves_then_invalidates_on_write() {
    let mut db = scaled_db(60);
    let cfg = ServerConfig {
        planner: config(1, 0),
        cache_results: true,
        ..ServerConfig::default()
    };
    let q = "select p.pname from p in PART where p.color = \"red\"";
    let shared = {
        let server = QueryServer::with_shared(&db, cfg.clone(), {
            let s = QueryServer::with_config(&db, cfg.clone());
            s.shared()
        });
        let session = server.session();
        let first = session.run(q).unwrap();
        assert_eq!(first.stats.result_cache_hits, 0);
        let second = session.run(q).unwrap();
        assert_eq!(second.stats.result_cache_hits, 1, "memoized");
        assert_eq!(second.result.to_string(), first.result.to_string());
        assert_eq!(second.stats.output_rows, first.stats.output_rows);
        server.shared()
    };
    insert_fresh_row(&mut db, "PART", 7_700_000);
    let server = QueryServer::with_shared(&db, cfg.clone(), shared);
    let out = server.session().run(q).unwrap();
    assert_eq!(out.stats.result_cache_hits, 0, "write invalidates");
    assert_eq!(out.stats.plan_cache_hits, 0, "plan entry stamped too");
    let (fresh, _) = library_run(&db, &cfg.planner, q);
    assert_eq!(out.result.to_string(), fresh.to_string());
}

/// Three distinct texts for a two-slot result cache: the first two take
/// the free slots, the third meets a full cache.
const DOORKEEPER_TEXTS: [&str; 3] = [
    "select p.pname from p in PART where p.color = \"red\"",
    "select s.sname from s in SUPPLIER where exists x in s.parts : \
     exists p in PART : x = p.pid and p.color = \"red\"",
    "select d from d in DELIVERY where exists x in d.supply : x.part.color = \"red\"",
];

fn doorkeeper_config() -> ServerConfig {
    ServerConfig {
        planner: config(1, 0),
        result_cache_capacity: 2,
        ..ServerConfig::default()
    }
}

/// The reference answer: the nested-loop `Evaluator` over the
/// translated (unrewritten) query.
fn evaluator_answer(db: &Database, q: &str) -> Value {
    let query = oodb::oosql::parse(q).unwrap();
    oodb::oosql::typecheck(&query, db.catalog()).unwrap();
    let nested = oodb::translate::translate(&query, db.catalog()).unwrap();
    Evaluator::new(db).eval_closed(&nested).unwrap()
}

/// `oodb_result_cache_declined_total` of `server`.
fn declined(server: &QueryServer<'_>) -> u64 {
    const FAMILY: &str = "oodb_result_cache_declined_total ";
    server
        .render_metrics()
        .lines()
        .find_map(|l| l.strip_prefix(FAMILY)?.parse().ok())
        .expect("declined counter rendered")
}

/// Runs `q` and reports whether any of its values came from the result
/// cache, checking the answer against the `Evaluator` on the way.
fn served_from_cache(server: &QueryServer<'_>, db: &Database, q: &str) -> bool {
    let out = server.session().run(q).unwrap();
    assert_eq!(
        out.result.to_string(),
        evaluator_answer(db, q).to_string(),
        "{q}"
    );
    out.stats.result_cache_hits > 0
}

/// The result cache's doorkeeper: once both slots are taken, a new text
/// is streamed uncached on its first run, cached on its second, and
/// served on its third.
#[test]
fn result_cache_admits_a_newcomer_on_its_second_sighting() {
    let db = scaled_db(60);
    let server = QueryServer::with_config(&db, doorkeeper_config());
    let [a, b, c] = DOORKEEPER_TEXTS;
    for q in [a, b] {
        assert!(!served_from_cache(&server, &db, q));
        assert!(
            served_from_cache(&server, &db, q),
            "{q}: cached on its first run"
        );
    }
    assert!(!served_from_cache(&server, &db, c));
    assert!(
        !served_from_cache(&server, &db, c),
        "a declined result must not be cached"
    );
    assert!(
        served_from_cache(&server, &db, c),
        "cached on its second run"
    );
    assert!(
        !served_from_cache(&server, &db, a),
        "admitting the newcomer evicted the oldest entry"
    );
    // `c` on its first run, and `a` just now.
    assert_eq!(declined(&server), 2);
}

/// A write makes a cached result stale; in a full cache its first miss
/// after the write is still admitted (its key has an entry), so the
/// second read hits again.
#[test]
fn result_cache_readmits_a_stale_key_on_its_first_miss() {
    let mut db = scaled_db(60);
    let cfg = doorkeeper_config();
    let [a, b, _] = DOORKEEPER_TEXTS;
    let shared = {
        let server = QueryServer::with_config(&db, cfg.clone());
        for q in [a, b] {
            assert!(!served_from_cache(&server, &db, q));
        }
        assert!(served_from_cache(&server, &db, a));
        server.shared()
    };
    insert_fresh_row(&mut db, "PART", 7_710_000);
    let server = QueryServer::with_shared(&db, cfg, shared);
    assert!(!served_from_cache(&server, &db, a), "the write invalidates");
    assert!(
        served_from_cache(&server, &db, a),
        "re-admitted on its first miss"
    );
    assert_eq!(declined(&server), 0);
}

/// A closed hoisted `let` value passes the same doorkeeper as a whole
/// result. Three texts share one `let` binding over a full cache: the
/// binding is declined with the first, admitted with the second and
/// replayed into the third.
#[test]
fn hoisted_let_values_pass_the_same_doorkeeper() {
    let db = scaled_db(60);
    let server = QueryServer::with_config(&db, doorkeeper_config());
    let [a, b, _] = DOORKEEPER_TEXTS;
    for q in [a, b] {
        assert!(!served_from_cache(&server, &db, q));
    }
    let sharing_a_let = |i: usize| {
        format!(
            "select s from s in SUPPLIER where s.sname <> \"supplier-{i}\" and \
             s.parts supseteq flatten(select t.parts from t in SUPPLIER \
                                      where t.sname = \"supplier-0\")"
        )
    };
    let first = sharing_a_let(1);
    let explain = server.session().run(&first).unwrap().explain;
    assert!(
        explain.starts_with("Let "),
        "the binding is hoisted:\n{explain}"
    );
    assert_eq!(declined(&server), 2, "the text's result and its binding");
    assert!(
        !served_from_cache(&server, &db, &sharing_a_let(2)),
        "a declined binding must not be cached"
    );
    assert_eq!(declined(&server), 3, "only the second text's result");
    assert!(
        served_from_cache(&server, &db, &sharing_a_let(3)),
        "the binding was cached on its second sighting"
    );
    assert_eq!(declined(&server), 4);
}

/// `into_output` of a declined text still assembles its whole value,
/// which equals the `Evaluator`'s, and leaves the cache as it was.
#[test]
fn a_declined_result_is_assembled_but_not_cached() {
    let db = scaled_db(60);
    let server = QueryServer::with_config(&db, doorkeeper_config());
    let [a, b, c] = DOORKEEPER_TEXTS;
    for q in [a, b] {
        assert!(!served_from_cache(&server, &db, q));
    }
    let cursor = server.session().open_stream(c).unwrap();
    assert!(!cursor.result_hit());
    let out = cursor.into_output().unwrap();
    assert_eq!(out.result.to_string(), evaluator_answer(&db, c).to_string());
    for q in [a, b] {
        assert!(served_from_cache(&server, &db, q), "{q}: still cached");
    }
    assert_eq!(declined(&server), 1);
}

/// Clones an existing row of `extent` with a fresh identity oid and
/// inserts it — a schema-valid invalidating write.
fn insert_fresh_row(db: &mut Database, extent: &str, oid: u64) {
    let identity = db
        .catalog()
        .class_by_extent(extent)
        .expect("extent has a class")
        .identity
        .clone();
    let row = db
        .table(extent)
        .expect("extent exists")
        .rows()
        .next()
        .expect("extent non-empty")
        .except(&[(identity, Value::Oid(Oid(oid)))])
        .expect("identity attr present");
    db.insert(extent, row).expect("fresh-oid insert");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Satellite 2: random interleavings of extent write batches and
    /// cached re-runs. After every step the cached path agrees with a
    /// fresh library execution, and `plan_cache_hits` increments iff no
    /// invalidating write happened since the plan was cached. Writes to
    /// an extent *outside* the query's footprint must not invalidate.
    #[test]
    fn cached_runs_track_extent_writes(ops in proptest::collection::vec(0..4usize, 4..14)) {
        // Footprint of the query is {PART}; DELIVERY writes are noise.
        let q = "select p.pname from p in PART where p.color = \"red\"";
        let mut db = scaled_db(60);
        let cfg = ServerConfig {
            planner: config(1, 0),
            cache_results: true,
            ..ServerConfig::default()
        };
        let shared = QueryServer::with_config(&db, cfg.clone()).shared();
        let mut next_oid = 8_800_000u64;
        // None = nothing cached yet; Some(dirty) = entry exists, dirty
        // iff a footprint write happened after it was (re)cached.
        let mut cached: Option<bool> = None;
        for op in ops {
            match op {
                0 => {
                    insert_fresh_row(&mut db, "PART", next_oid);
                    next_oid += 1;
                    cached = cached.map(|_| true);
                }
                1 => {
                    insert_fresh_row(&mut db, "DELIVERY", next_oid);
                    next_oid += 1;
                }
                _ => {
                    let expect_hit = cached == Some(false);
                    let server = QueryServer::with_shared(&db, cfg.clone(), shared.clone());
                    let out = server.session().run(q).unwrap();
                    let (fresh, fresh_stats) = library_run(&db, &cfg.planner, q);
                    prop_assert_eq!(
                        out.result.to_string(),
                        fresh.to_string(),
                        "cached path diverged from fresh execution"
                    );
                    prop_assert_eq!(out.stats.output_rows, fresh_stats.output_rows);
                    prop_assert_eq!(
                        out.stats.plan_cache_hits,
                        u64::from(expect_hit),
                        "plan_cache_hits must increment iff no invalidating write"
                    );
                    prop_assert_eq!(out.stats.result_cache_hits, u64::from(expect_hit));
                    cached = Some(false);
                }
            }
        }
    }
}

/// The TCP layer: concurrent connections over one shared cache; plan
/// hits visible in the protocol; STATS and QUIT round-trip.
#[test]
fn tcp_protocol_serves_concurrent_clients() {
    use oodb::server::wire::{flags, kind, verb, WireClient};
    use oodb::server::ErrorCode;
    use oodb::value::Set;
    use std::net::TcpStream;

    let db = Arc::new(scaled_db(60));
    let handle = net::serve(Arc::clone(&db), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let q = "select s.sname from s in SUPPLIER where exists x in s.parts : \
             exists p in PART : x = p.pid and p.color = \"red\"";

    // One connection per exchange: `f` speaks, then QUIT must answer BYE.
    fn on_connection<T>(
        addr: std::net::SocketAddr,
        f: impl FnOnce(&mut WireClient<TcpStream>) -> T,
    ) -> T {
        let mut client = WireClient::connect(addr).unwrap();
        let out = f(&mut client);
        client.send(9, verb::QUIT, &[]).unwrap();
        let bye = client.read_frame().unwrap().expect("BYE before hang-up");
        assert_eq!((bye.tag, bye.kind), (9, kind::BYE));
        out
    }
    let query = |q: &str| -> (u8, String) {
        on_connection(addr, |c| {
            let (flags, rows) = c.query(1, q).unwrap().expect("query errored");
            (flags, Value::Set(Set::from_values(rows)).to_string())
        })
    };

    // Concurrent first wave: everyone gets the same payload.
    let payloads: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3).map(|_| scope.spawn(|| query(q).1)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(payloads.windows(2).all(|w| w[0] == w[1]));

    // A later connection hits the shared plan cache.
    let (header, payload) = query(q);
    assert_ne!(header & flags::PLAN_HIT, 0, "got flags {header:#b}");
    assert_eq!(payload, payloads[0]);

    let stats = on_connection(addr, |c| c.text_request(1, verb::STATS, "").unwrap())
        .expect("STATS errored");
    assert!(stats.contains("plan_hits="), "got {stats:?}");

    let err = on_connection(addr, |c| c.text_request(1, 0xEE, "").unwrap())
        .expect_err("an unknown verb must be refused");
    assert_eq!(ErrorCode::from_u16(err.0), Some(ErrorCode::UnknownVerb));

    handle.shutdown();
}
