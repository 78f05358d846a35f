//! Observability invariants: per-operator timing capture, EXPLAIN
//! ANALYZE exactness, the metrics registry's Prometheus exposition, the
//! query-phase trace log, and the wire protocol around all of them.
//!
//! The contract under test is the one the planner documents: timing is
//! *observation only*. Results, operator row totals, and every classic
//! work counter must be bit-identical whether the instrumentation shim
//! reads the clock or not — and whatever EXPLAIN ANALYZE reports as
//! `actual_rows` must be exactly what `Stats::operators` measured, not
//! an estimate of it.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use oodb::catalog::{CatalogStats, Database};
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{BatchKind, Planner, PlannerConfig, Stats};
use oodb::server::wire::{verb, WireClient};
use oodb::server::{net, QueryServer, ServerConfig, ServerShared};
use oodb::value::{Oid, Value};
use oodb_bench::{
    join_supplier_delivery_query, multi_join_chain_query, query31_nested, query5_nested,
};

fn scaled_db(scale: usize) -> Database {
    generate(&GenConfig {
        empty_supplier_fraction: 0.15,
        dangling_fraction: 0.15,
        ..GenConfig::scaled(scale)
    })
}

fn config(timing: bool, dop: usize, budget: usize, batch_kind: BatchKind) -> PlannerConfig {
    PlannerConfig {
        timing,
        parallelism: dop,
        memory_budget: budget,
        batch_kind,
        // keep exchanges live at test scale so dop actually exercises
        // the worker-side timing fold
        parallel_threshold: 0,
        ..Default::default()
    }
}

fn run(db: &Database, cfg: PlannerConfig, q: &oodb::adl::Expr) -> (oodb::value::Value, Stats) {
    let optimized = Optimizer.optimize(q, db.catalog()).expect("optimize");
    let planner = Planner::with_stats(db, cfg, CatalogStats::from_database(db));
    let plan = planner.plan(&optimized.expr).expect("plan");
    let mut stats = Stats::new();
    let v = plan.execute_streaming(&mut stats).expect("execute");
    (v, stats)
}

/// Per-operator row totals aggregated by label.
fn rows_by_label(stats: &Stats) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = BTreeMap::new();
    for o in &stats.operators {
        *m.entry(o.op.clone()).or_default() += o.rows_out;
    }
    m
}

// --------------------------------------------------------------------
// Tentpole invariant: the timing flag observes, never perturbs.

#[test]
fn timing_flag_never_changes_results_or_counters() {
    let db = scaled_db(240);
    let queries = [
        ("q5", query5_nested()),
        ("join_sd", join_supplier_delivery_query()),
        ("chain", multi_join_chain_query()),
    ];
    for (label, q) in &queries {
        for dop in [1usize, 4] {
            for budget in [0usize, 64 * 1024] {
                for batch_kind in [BatchKind::Columnar, BatchKind::Row] {
                    let (v_off, s_off) = run(&db, config(false, dop, budget, batch_kind), q);
                    let (v_on, s_on) = run(&db, config(true, dop, budget, batch_kind), q);
                    let point = format!("{label} dop={dop} budget={budget} {batch_kind:?}");
                    assert_eq!(v_off, v_on, "{point}: results diverged under timing");
                    // Stats equality is deliberately timing-blind
                    // (OpTiming compares equal always), so this pins
                    // every counter and per-operator row total at once.
                    assert_eq!(s_off, s_on, "{point}: counters diverged under timing");
                    // ...but the captured nanoseconds are not part of
                    // equality, so check the flag actually gates them.
                    let ns_off: u64 = s_off.operators.iter().map(|o| o.timing.total_ns()).sum();
                    let ns_on: u64 = s_on.operators.iter().map(|o| o.timing.total_ns()).sum();
                    assert_eq!(ns_off, 0, "{point}: timing=off still read the clock");
                    assert!(ns_on > 0, "{point}: timing=on captured no time at all");
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// EXPLAIN ANALYZE exactness.

#[test]
fn explain_analyze_actuals_match_stats_exactly() {
    let db = scaled_db(400);
    let q = multi_join_chain_query();
    let optimized = Optimizer.optimize(&q, db.catalog()).expect("optimize");
    for dop in [1usize, 4] {
        let planner = Planner::with_stats(
            &db,
            config(true, dop, 0, BatchKind::Columnar),
            CatalogStats::from_database(&db),
        );
        let plan = planner.plan(&optimized.expr).expect("plan");

        let mut reference = Stats::new();
        let expected = plan.execute_streaming(&mut reference).expect("execute");

        let mut stats = Stats::new();
        let analyzed = plan.explain_analyze(&mut stats).expect("analyze");
        assert_eq!(
            analyzed.value, expected,
            "dop={dop}: ANALYZE ran a different query"
        );
        for needle in ["actual_rows=", "actual_ms=", "est_rows="] {
            assert!(
                analyzed.text.contains(needle),
                "dop={dop}: missing {needle} in:\n{}",
                analyzed.text
            );
        }

        // Aggregate the annotated actuals by operator label and compare
        // against what the very same run's Stats measured — exactly, not
        // within tolerance: ANALYZE reports measurements, not estimates.
        let mut annotated: BTreeMap<String, u64> = BTreeMap::new();
        for op in &analyzed.ops {
            if let Some(act) = op.actual_rows {
                *annotated.entry(op.label.clone()).or_default() += act;
            }
        }
        let measured = rows_by_label(&stats);
        for (op, rows) in &annotated {
            assert_eq!(
                Some(rows),
                measured.get(op),
                "dop={dop}: ANALYZE disagrees with Stats for {op}\n{}",
                analyzed.text
            );
        }
        if dop == 1 {
            // Serial plans have no exchange machinery: every measured
            // operator must surface in the annotated tree.
            assert_eq!(
                annotated, measured,
                "dop=1: annotated tree and Stats cover different operators\n{}",
                analyzed.text
            );
        }
        // The run behind ANALYZE is the same plan: row totals agree with
        // the plain streaming execution too.
        assert_eq!(
            rows_by_label(&reference),
            measured,
            "dop={dop}: ANALYZE execution profile diverged from execute_streaming"
        );
    }
}

/// Every instrumented node reports its first-batch time, and it is part
/// of the node's total: `first_ms ≤ actual_ms`, serial and with the
/// exchange's worker fold, on a plan with scans, joins and nesting.
#[test]
fn explain_analyze_first_batch_time_is_part_of_the_total() {
    let db = scaled_db(400);
    for q in [multi_join_chain_query(), query5_nested()] {
        let optimized = Optimizer.optimize(&q, db.catalog()).expect("optimize");
        for dop in [1usize, 4] {
            let planner = Planner::with_stats(
                &db,
                config(true, dop, 0, BatchKind::Columnar),
                CatalogStats::from_database(&db),
            );
            let plan = planner.plan(&optimized.expr).expect("plan");
            let analyzed = plan.explain_analyze(&mut Stats::new()).expect("analyze");
            let text = &analyzed.text;
            // join-order notes precede the tree's one line per node
            let lines: Vec<&str> = text.lines().collect();
            let tree = &lines[lines.len() - analyzed.ops.len()..];
            let mut scans = 0;
            for (op, line) in analyzed.ops.iter().zip(tree) {
                let Some(actual) = op.actual_ns else {
                    assert!(!line.contains("first_ms="), "dop={dop}: {line}");
                    continue;
                };
                let first = op
                    .first_ns
                    .expect("instrumented nodes time the first batch");
                assert!(
                    first <= actual,
                    "dop={dop}: {} first {first} ns > total {actual} ns\n{text}",
                    op.label
                );
                assert!(line.contains("first_ms="), "dop={dop}: {line}");
                scans += usize::from(op.label.starts_with("Scan"));
            }
            assert!(scans > 0, "dop={dop}: no timed Scan line in\n{text}");
        }
    }
}

/// An operator's `actual_ms` includes its subtree, so no child may
/// read more than its parent. Under an exchange the workers of one
/// node run side by side: their time folds by the slowest worker, not
/// by the sum, or a child under a parallel segment would outgrow its
/// parent (q31's `Filter` under its `Let`, say). Checked at dop 2 with
/// every exchange live, each reported node against its nearest reported
/// ancestor.
#[test]
fn explain_analyze_child_time_never_exceeds_its_parent() {
    let db = scaled_db(4000);
    let queries = [
        ("q31", query31_nested("supplier-0")),
        ("q5", query5_nested()),
        ("chain", multi_join_chain_query()),
        ("join_sd", join_supplier_delivery_query()),
    ];
    for (label, q) in &queries {
        let optimized = Optimizer.optimize(q, db.catalog()).expect("optimize");
        let planner = Planner::with_stats(
            &db,
            config(true, 2, 0, BatchKind::Columnar),
            CatalogStats::from_database(&db),
        );
        let plan = planner.plan(&optimized.expr).expect("plan");
        let analyzed = plan.explain_analyze(&mut Stats::new()).expect("analyze");
        let text = &analyzed.text;
        // join-order notes precede the tree's one line per node
        let lines: Vec<&str> = text.lines().collect();
        let tree = &lines[lines.len() - analyzed.ops.len()..];
        let depth = |l: &str| (l.len() - l.trim_start().len()) / 2;
        // the reported ancestors of the current line: (depth, ns, index)
        let mut path: Vec<(usize, u64, usize)> = Vec::new();
        let mut checked = 0;
        for (i, (op, line)) in analyzed.ops.iter().zip(tree).enumerate() {
            let d = depth(line);
            while path.last().is_some_and(|&(pd, _, _)| pd >= d) {
                path.pop();
            }
            let Some(ns) = op.actual_ns else { continue };
            if let Some(&(_, parent_ns, p)) = path.last() {
                assert!(
                    ns <= parent_ns,
                    "{label}: {} ({ns} ns) reads more than its parent {} ({parent_ns} ns)\n{text}",
                    op.label,
                    analyzed.ops[p].label
                );
                checked += 1;
            }
            path.push((d, ns, i));
        }
        assert!(
            checked > 0,
            "{label}: no timed parent/child pair in\n{text}"
        );
    }
}

/// Operators report when their stream is exhausted, not in tree order,
/// and a label may sit on several nodes. Here two `Map` nodes are in the
/// plan and the inner one is exhausted first. Each node must still get its
/// own actuals: the root reports the result's cardinality, a `Map` emits
/// exactly what its child emitted, and per-label totals match `Stats`.
#[test]
fn explain_analyze_gives_each_node_its_own_actuals() {
    let db = scaled_db(400);
    let cfg = ServerConfig {
        planner: PlannerConfig {
            parallelism: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = QueryServer::with_config(&db, cfg);
    let (analyzed, stats) = server
        .session()
        .analyze(
            "select s.sname from s in SUPPLIER where s.parts supseteq \
             flatten(select t.parts from t in SUPPLIER where t.sname <> \"supplier-3\")",
        )
        .expect("analyze");
    let labels: Vec<&str> = analyzed.ops.iter().map(|o| o.label.as_str()).collect();
    assert!(
        labels.iter().filter(|l| **l == "Map").count() >= 2,
        "the query should plan two Map nodes:\n{}",
        analyzed.text
    );
    let result_rows = analyzed.value.as_set().expect("set result").len() as u64;
    assert_eq!(
        analyzed.ops[0].actual_rows,
        Some(result_rows),
        "root actuals disagree with the result:\n{}",
        analyzed.text
    );
    // Rebuild the tree from the pre-order rendering's indentation and
    // check every Map against its only child.
    let depths: Vec<usize> = analyzed
        .text
        .lines()
        .map(|l| (l.len() - l.trim_start().len()) / 2)
        .collect();
    assert_eq!(depths.len(), analyzed.ops.len(), "{}", analyzed.text);
    for (i, op) in analyzed.ops.iter().enumerate() {
        if op.label != "Map" {
            continue;
        }
        let child = &analyzed.ops[i + 1];
        assert_eq!(depths[i + 1], depths[i] + 1, "{}", analyzed.text);
        assert_eq!(
            op.actual_rows, child.actual_rows,
            "Map at line {i} and its child {} disagree:\n{}",
            child.label, analyzed.text
        );
    }
    let mut annotated: BTreeMap<String, u64> = BTreeMap::new();
    for op in &analyzed.ops {
        if let Some(act) = op.actual_rows {
            *annotated.entry(op.label.clone()).or_default() += act;
        }
    }
    assert_eq!(annotated, rows_by_label(&stats), "{}", analyzed.text);
}

// --------------------------------------------------------------------
// Metrics over the wire.

/// Connects a wire client to the server behind `handle`.
fn connect(handle: &net::ServeHandle) -> WireClient<TcpStream> {
    WireClient::connect(handle.addr()).expect("connect")
}

/// One text-answering verb (STATS / METRICS / TRACE), split into lines.
fn ask(client: &mut WireClient<TcpStream>, tag: u32, verb: u8) -> Vec<String> {
    client
        .text_request(tag, verb, "")
        .expect("text round trip")
        .unwrap_or_else(|(code, msg)| panic!("verb {verb} failed: {code} {msg}"))
        .lines()
        .map(String::from)
        .collect()
}

/// Parses `oodb_query_latency_ms` buckets out of a Prometheus payload:
/// `(upper_bound_ms, cumulative_count)` pairs, `+Inf` last.
fn latency_buckets(metrics: &[String]) -> Vec<(f64, u64)> {
    let mut out = Vec::new();
    for l in metrics {
        let Some(rest) = l.strip_prefix("oodb_query_latency_ms_bucket{le=\"") else {
            continue;
        };
        let (bound, count) = rest.split_once("\"} ").expect("bucket line shape");
        let bound = if bound == "+Inf" {
            f64::INFINITY
        } else {
            bound.parse::<f64>().expect("bucket bound")
        };
        out.push((bound, count.parse::<u64>().expect("bucket count")));
    }
    out
}

/// Nearest-rank quantile over cumulative buckets: the upper bound of the
/// first bucket holding the rank, and the previous bucket's bound as the
/// lower edge.
fn quantile_from_buckets(buckets: &[(f64, u64)], q: f64) -> (f64, f64) {
    let total = buckets.last().expect("buckets").1;
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut lo = 0.0;
    for &(bound, cum) in buckets {
        if cum >= rank {
            return (lo, bound);
        }
        lo = bound;
    }
    unreachable!("+Inf bucket holds every rank")
}

#[test]
fn metrics_endpoint_exposes_consistent_prometheus_text() {
    let db = Arc::new(scaled_db(240));
    let handle = net::serve(db, ServerConfig::default(), "127.0.0.1:0").expect("serve");
    let mut client = connect(&handle);

    let queries = [
        "select d from d in DELIVERY where exists x in d.supply : x.part.color = \"red\"",
        "select p.pname from p in PART where p.color = \"red\"",
    ];
    let mut client_ms: Vec<f64> = Vec::new();
    for _ in 0..6 {
        for q in queries {
            let t0 = Instant::now();
            let resp = client.query(1, q).expect("query round trip");
            client_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(resp.is_ok(), "{:?}", resp.err());
        }
    }
    let n = client_ms.len() as u64; // 12 successful queries
    client_ms.sort_by(f64::total_cmp);
    let client_p50 = client_ms[client_ms.len() / 2];
    let client_p99 = *client_ms.last().unwrap();

    let metrics = &ask(&mut client, 2, verb::METRICS);

    for family in [
        "# TYPE oodb_queries_total counter",
        "# TYPE oodb_query_errors_total counter",
        "# TYPE oodb_plan_cache_hits_total counter",
        "# TYPE oodb_plan_cache_misses_total counter",
        "# TYPE oodb_result_cache_hits_total counter",
        "# TYPE oodb_result_cache_misses_total counter",
        "# TYPE oodb_result_cache_declined_total counter",
        "# TYPE oodb_query_latency_ms histogram",
        "# TYPE oodb_rows_out_total counter",
        "# TYPE oodb_spill_bytes_total counter",
        "# TYPE oodb_pool_in_use_bytes gauge",
        "# TYPE oodb_pool_queue_depth gauge",
        "# TYPE oodb_budget_high_water_bytes gauge",
    ] {
        assert!(
            metrics.iter().any(|l| l == family),
            "missing `{family}` in:\n{}",
            metrics.join("\n")
        );
    }
    let value_of = |name: &str| -> u64 {
        metrics
            .iter()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse().ok()))
            .unwrap_or_else(|| panic!("no sample for {name}"))
    };
    assert_eq!(value_of("oodb_queries_total "), n);
    assert_eq!(value_of("oodb_query_errors_total "), 0);
    assert_eq!(value_of("oodb_query_latency_ms_count "), n);

    let buckets = latency_buckets(metrics);
    assert!(buckets.len() > 2, "histogram rendered no buckets");
    assert!(
        buckets
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0),
        "buckets must be cumulative and ordered: {buckets:?}"
    );
    assert_eq!(
        buckets.last().unwrap().1,
        n,
        "+Inf bucket must count everything"
    );

    // Bracketing: the server-side quantile's lower bucket edge cannot
    // exceed the client-observed quantile — the client measurement
    // includes the server's, plus loopback transport.
    let (p50_lo, p50_hi) = quantile_from_buckets(&buckets, 0.50);
    let (p99_lo, _) = quantile_from_buckets(&buckets, 0.99);
    assert!(p50_lo < p50_hi);
    assert!(
        p50_lo <= client_p50 + 1e-6,
        "server p50 bucket [{p50_lo}, {p50_hi}]ms above client p50 {client_p50}ms"
    );
    assert!(
        p99_lo <= client_p99 + 1e-6,
        "server p99 lower edge {p99_lo}ms above client p99 {client_p99}ms"
    );
    // The exposition mirrors the live histogram: the rendered finite
    // buckets are a prefix of the full 40-bucket ladder (the renderer
    // stops once a bucket holds everything, then emits `+Inf`).
    let hist = handle.shared().latency_histogram().cumulative_buckets();
    let live: Vec<u64> = hist.iter().map(|&(_, c)| c).collect();
    let parsed: Vec<u64> = buckets.iter().map(|&(_, c)| c).collect();
    let finite = &parsed[..parsed.len() - 1];
    assert_eq!(
        finite,
        &live[..finite.len()],
        "rendered buckets diverge from the live histogram"
    );

    client.send(99, verb::QUIT, &[]).expect("send QUIT");
    handle.shutdown();
}

/// `oodb_result_cache_declined_total` counts the misses the result
/// cache's doorkeeper streamed without caching: over a one-slot cache,
/// a second text is declined on its first sighting, admitted on its
/// second and served on its third.
#[test]
fn metrics_count_declined_result_cache_admissions() {
    let db = Arc::new(scaled_db(60));
    let config = ServerConfig {
        result_cache_capacity: 1,
        ..ServerConfig::default()
    };
    let handle = net::serve(db, config, "127.0.0.1:0").expect("serve");
    let mut client = connect(&handle);
    let first = "select p.pname from p in PART where p.color = \"red\"";
    let second = "select d from d in DELIVERY where exists x in d.supply : x.part.color = \"red\"";
    let mut answers = Vec::new();
    for (tag, q) in (1..).zip([first, second, second, second]) {
        let (_, rows) = client
            .query(tag, q)
            .expect("query round trip")
            .unwrap_or_else(|(code, msg)| panic!("{q} failed: {code} {msg}"));
        answers.push(Value::Set(oodb::value::Set::from_values(rows)));
    }
    assert!(answers[1..].windows(2).all(|w| w[0] == w[1]));

    let metrics = ask(&mut client, 9, verb::METRICS);
    let value_of = |family: &str| -> u64 {
        metrics
            .iter()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {family}"))
    };
    assert_eq!(value_of("oodb_result_cache_declined_total"), 1);
    assert_eq!(value_of("oodb_result_cache_misses_total"), 3);
    assert_eq!(value_of("oodb_result_cache_hits_total"), 1);

    client.send(99, verb::QUIT, &[]).expect("send QUIT");
    handle.shutdown();
}

// --------------------------------------------------------------------
// STATS + TRACE protocol round-trip.

#[test]
fn stats_and_trace_round_trip_over_the_wire() {
    let db = Arc::new(scaled_db(240));
    let handle = net::serve(db, ServerConfig::default(), "127.0.0.1:0").expect("serve");
    let mut client = connect(&handle);

    let q = "select p.pname from p in PART where p.color = \"red\"";
    for _ in 0..2 {
        let resp = client.query(1, q).expect("query round trip");
        assert!(resp.is_ok(), "{:?}", resp.err());
    }

    let stats = ask(&mut client, 2, verb::STATS);
    assert_eq!(stats.len(), 2, "STATS answers two lines: {stats:?}");
    // line 1: server-wide serving counters; line 2: this connection's
    // accumulated execution counters (documented in net.rs).
    for key in [
        "plan_hits=",
        "plan_misses=",
        "result_hits=",
        "result_misses=",
        "budget_high_water=",
        "pool_in_use=",
        "pool_waiting=",
    ] {
        assert!(stats[0].contains(key), "missing {key} in {:?}", stats[0]);
    }
    for key in ["work=", "rows_scanned=", "spill_bytes=", "output_rows="] {
        assert!(stats[1].contains(key), "missing {key} in {:?}", stats[1]);
    }
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {line:?}"))
    };
    // identical text twice: second run hits the plan cache
    assert_eq!(field(&stats[0], "plan_hits="), 1);
    assert_eq!(field(&stats[0], "plan_misses="), 1);
    assert!(field(&stats[1], "work=") > 0, "{:?}", stats[1]);
    assert!(field(&stats[1], "output_rows=") > 0, "{:?}", stats[1]);

    let trace = ask(&mut client, 3, verb::TRACE);
    let body = trace.join("\n");
    assert_eq!(
        trace
            .iter()
            .filter(|l| l.contains("query total_ms="))
            .count(),
        2,
        "expected one trace per served query:\n{body}"
    );
    for span in ["parse", "typecheck", "translate", "plan", "execute"] {
        assert!(
            trace.iter().any(|l| l.trim_start().starts_with(span)),
            "span `{span}` missing from:\n{body}"
        );
    }
    // second run was a plan-cache hit: its timeline records the lookup
    assert!(
        trace
            .iter()
            .any(|l| l.trim_start().starts_with("plan_cache_lookup")),
        "no plan_cache_lookup span in:\n{body}"
    );

    client.send(99, verb::QUIT, &[]).expect("send QUIT");
    handle.shutdown();
}

// --------------------------------------------------------------------
// Slow-query log.

#[test]
fn slow_query_log_keeps_explain_and_the_ring_drops_it() {
    let db = scaled_db(120);
    let q = "select p.pname from p in PART where p.color = \"red\"";

    // Threshold 0 classifies every query as slow — the documented way
    // for tests (and operators flushing a problem live) to capture the
    // full diagnostic record without manufacturing a genuinely slow query.
    let eager = ServerConfig {
        slow_query_ms: 0,
        ..Default::default()
    };
    let server = QueryServer::with_config(&db, eager);
    server.session().run(q).expect("run");
    let shared = server.shared();
    let slow = shared.traces().slow();
    assert_eq!(slow.len(), 1);
    let explain = slow[0]
        .explain
        .as_deref()
        .expect("slow entry keeps EXPLAIN");
    assert!(explain.contains("Scan"), "unexpected explain: {explain}");
    assert!(!slow[0].error);
    assert!(slow[0].spans.iter().any(|s| s.name == "execute"));
    // the ring sees the same query, but lean: no explain attached
    let recent = shared.traces().recent();
    assert_eq!(recent.len(), 1);
    assert!(
        recent[0].explain.is_none(),
        "ring entries must drop EXPLAIN"
    );
    assert_eq!(recent[0].query, q);

    // At the default threshold (250ms) this tiny query is not slow.
    let server = QueryServer::with_config(&db, ServerConfig::default());
    server.session().run(q).expect("run");
    let shared = server.shared();
    assert!(shared.traces().slow().is_empty());
    assert_eq!(shared.traces().recent().len(), 1);

    // Failures still trace (and flag the error) — the trace is often
    // the only record of a query that never produced output.
    assert!(server.session().run("select x from x in NO_SUCH").is_err());
    let recent = server.shared().traces().recent();
    assert_eq!(recent.len(), 2);
    assert!(
        recent[1].error,
        "failed query must be marked error in the trace"
    );
}

// --------------------------------------------------------------------
// Statistics collection.

/// The current value of one unlabelled metric family.
fn metric(shared: &ServerShared, family: &str) -> u64 {
    shared
        .render_metrics()
        .lines()
        .find_map(|l| l.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{family} missing from METRICS"))
}

/// Inserts `k` fresh PART objects, each a copy of the first with a new
/// oid.
fn insert_parts(db: &mut Database, first_oid: u64, k: u64) {
    let proto = db.table("PART").unwrap().rows().next().unwrap().clone();
    for oid in first_oid..first_oid + k {
        let row = proto
            .except(&[("pid".into(), Value::Oid(Oid(oid)))])
            .unwrap();
        db.insert("PART", row).unwrap();
    }
}

/// `oodb_stats_rows_scanned_total` counts the rows walked to collect
/// catalog statistics: the whole database once, nothing on a rebuild
/// with no write, the written extent on its first write, and after
/// that exactly the rows a write appended.
#[test]
fn stats_rows_scanned_counts_only_appended_rows() {
    const FAMILY: &str = "oodb_stats_rows_scanned_total";
    let mut db = scaled_db(120);
    let config = ServerConfig::default();
    let shared = ServerShared::new(&config);
    assert_eq!(metric(&shared, FAMILY), 0);
    let rebuild = |db: &Database| {
        let before = metric(&shared, FAMILY);
        let server = QueryServer::with_shared(db, config.clone(), Arc::clone(&shared));
        server
            .session()
            .run("select p.pname from p in PART")
            .unwrap();
        metric(&shared, FAMILY) - before
    };
    assert_eq!(rebuild(&db), db.object_count() as u64);
    assert_eq!(rebuild(&db), 0, "no write, no walk");

    insert_parts(&mut db, 9_000_000, 1);
    let parts = db.table("PART").unwrap().len() as u64;
    assert_eq!(rebuild(&db), parts, "first write walks PART once");
    for k in [3, 1, 5] {
        let first = 9_100_000 + 10 * k;
        insert_parts(&mut db, first, k);
        assert_eq!(rebuild(&db), k, "a {k}-object write walks {k} rows");
    }
    assert_eq!(rebuild(&db), 0);

    // Two connections to an unchanged database scan once between them.
    let served = Arc::new(scaled_db(120));
    let objects = served.object_count() as u64;
    let handle = net::serve(served, config.clone(), "127.0.0.1:0").expect("serve");
    let mut clients = [connect(&handle), connect(&handle)];
    for (tag, client) in clients.iter_mut().enumerate() {
        // An answered request proves the connection's server exists.
        ask(client, tag as u32, verb::STATS);
    }
    assert_eq!(metric(&handle.shared(), FAMILY), objects);
    for client in &mut clients {
        client.send(99, verb::QUIT, &[]).expect("send QUIT");
    }
    handle.shutdown();
}

// --------------------------------------------------------------------
// Snapshot work.

/// `oodb_snapshot_rows_sorted_total` and
/// `oodb_scan_chunks_transposed_total` count the work behind the extent
/// snapshots scans read. A write keeps PART's snapshot: the next full
/// read sorts only the written rows and, when they sort last, transposes
/// only the chunks from the old last one on. A second read, and a read
/// after `create_index`, do no work at all.
#[test]
fn snapshot_work_follows_only_the_written_rows() {
    use oodb::engine::BATCH_SIZE;
    const SORTED: &str = "oodb_snapshot_rows_sorted_total";
    const TRANSPOSED: &str = "oodb_scan_chunks_transposed_total";
    let mut db = scaled_db(5000);
    let config = ServerConfig {
        planner: config(false, 1, 0, BatchKind::Columnar),
        ..ServerConfig::default()
    };
    let shared = ServerShared::new(&config);
    // Runs `text` on a server rebuilt over `db` and returns the rows
    // sorted and chunks transposed meanwhile, as METRICS reports them.
    let read = |db: &Database, text: &str| {
        let server = QueryServer::with_shared(db, config.clone(), Arc::clone(&shared));
        let family = |name: &str| {
            server
                .render_metrics()
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("{name} missing from METRICS"))
        };
        let before: (u64, u64) = (family(SORTED), family(TRANSPOSED));
        server.session().run(text).unwrap();
        (family(SORTED) - before.0, family(TRANSPOSED) - before.1)
    };
    let parts = db.table("PART").unwrap().len();
    let chunks = |rows: usize| rows.div_ceil(BATCH_SIZE) as u64;
    assert!(!parts.is_multiple_of(BATCH_SIZE) && parts > 2 * BATCH_SIZE);
    assert_eq!(
        read(&db, "select p.pname from p in PART"),
        (parts as u64, chunks(parts))
    );

    // "yellow" sorts after every generated colour, and PART's canonical
    // order is colour first: the new rows land after the old ones.
    let k = BATCH_SIZE / 2 + 100;
    let proto = db.table("PART").unwrap().rows().next().unwrap().clone();
    for oid in 0..k as u64 {
        let row = proto
            .except(&[
                ("pid".into(), Value::Oid(Oid(9_000_000 + oid))),
                ("color".into(), Value::str("yellow")),
            ])
            .unwrap();
        db.insert("PART", row).unwrap();
    }
    let old_last = (parts / BATCH_SIZE) as u64;
    assert_eq!(
        read(&db, "select p.pname from p in PART"),
        (k as u64, chunks(parts + k) - old_last)
    );
    assert_eq!(read(&db, "select p.pid from p in PART"), (0, 0));

    db.create_index("PART", "color").unwrap();
    assert_eq!(read(&db, "select p.pname from p in PART"), (0, 0));
}
