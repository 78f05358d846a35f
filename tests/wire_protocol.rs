//! Wire-protocol acceptance: the binary frame protocol must be a
//! transparent, *streaming* transport over the same serving path as the
//! library —
//!
//! * pipelined tagged requests route responses tag-correctly;
//! * decoded results are byte-identical to serial library execution
//!   across dop × budget × layout;
//! * the first result chunk leaves the server before the pipeline is
//!   exhausted;
//! * a result-cache hit replays the cached set in the live read's chunk
//!   sizes, each chunk encoded once and sent as the same bytes to every
//!   connection;
//! * a cached round trip does not wait on Nagle's algorithm;
//! * malformed / truncated frames and mid-stream client disconnects
//!   never panic the server or leak an admission-pool slot (property
//!   test over random interleavings).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oodb::catalog::{CatalogStats, Database};
use oodb::core::strategy::Optimizer;
use oodb::datagen::{generate, GenConfig};
use oodb::engine::{Planner, PlannerConfig, Stats, BATCH_SIZE};
use oodb::server::wire::{self, verb, WireClient};
use oodb::server::{net, ErrorCode, QueryServer, ServerConfig, ServerShared};
use oodb::value::{Batch, BatchKind, Set, Value};
use proptest::prelude::*;

/// The paper-query workload (same set as the server-concurrency suite).
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

/// Serial library reference (deliberately not `Pipeline`, which itself
/// runs through a `QueryServer`).
fn library_run(db: &Database, config: &PlannerConfig, q: &str) -> Value {
    let query = oodb::oosql::parse(q).unwrap();
    oodb::oosql::typecheck(&query, db.catalog()).unwrap();
    let nested = oodb::translate::translate(&query, db.catalog()).unwrap();
    let rewrite = Optimizer.optimize(&nested, db.catalog()).unwrap();
    let planner = Planner::with_stats(db, config.clone(), CatalogStats::from_database(db));
    let plan = planner.plan(&rewrite.expr).unwrap();
    let mut stats = Stats::default();
    plan.execute_streaming(&mut stats).unwrap()
}

/// Reassembles a streamed binary result the way a client consuming set
/// semantics would: deduplicating set construction, mirroring the
/// engine's own collect-all assembly.
fn reassemble(flags: u8, rows: Vec<Value>) -> Value {
    if flags & wire::flags::SCALAR != 0 {
        rows.into_iter().next().unwrap_or(Value::Null)
    } else {
        Value::Set(Set::from_values(rows))
    }
}

fn binary_client(addr: std::net::SocketAddr) -> WireClient<TcpStream> {
    WireClient::connect(addr).unwrap()
}

/// Pipelining: four QUERYs and an ANALYZE sent back-to-back before any
/// response is read; every response frame must echo its request's tag
/// and carry that request's result.
#[test]
fn pipelined_requests_route_responses_by_tag() {
    let db = Arc::new(scaled_db(80));
    let handle = net::serve(Arc::clone(&db), ServerConfig::default(), "127.0.0.1:0").unwrap();

    let expected: Vec<String> = QUERIES[..4]
        .iter()
        .map(|q| library_run(&db, &PlannerConfig::default(), q).to_string())
        .collect();

    let mut client = binary_client(handle.addr());
    // Send phase: nothing read until every request is on the wire.
    for (i, q) in QUERIES[..4].iter().enumerate() {
        client
            .send(100 + i as u32, verb::QUERY, q.as_bytes())
            .unwrap();
    }
    client
        .send(999, verb::ANALYZE, QUERIES[0].as_bytes())
        .unwrap();
    // Read phase: responses arrive in request order, each tagged.
    for (i, want) in expected.iter().enumerate() {
        let (flags, rows) = client
            .read_query_response(100 + i as u32)
            .unwrap()
            .unwrap_or_else(|(code, msg)| panic!("query {i} failed: {code} {msg}"));
        assert_eq!(&reassemble(flags, rows).to_string(), want, "query {i}");
    }
    let analyzed = client.read_text_response(999).unwrap().unwrap();
    assert!(
        analyzed.contains("actual_rows"),
        "ANALYZE text missing annotations: {analyzed:?}"
    );

    client.send(7, verb::QUIT, &[]).unwrap();
    let bye = client.read_frame().unwrap().unwrap();
    assert_eq!((bye.tag, bye.kind), (7, wire::kind::BYE));
    handle.shutdown();
}

/// Byte identity: decoded wire results equal serial library execution
/// at every dop × budget × layout grid point.
#[test]
fn wire_results_match_library_across_grid() {
    let db = Arc::new(scaled_db(120));
    for &dop in &[1usize, 4] {
        for &budget in &[0usize, 4 << 10] {
            for &layout in &[BatchKind::Row, BatchKind::Columnar] {
                let cfg = PlannerConfig {
                    parallelism: dop,
                    memory_budget: budget,
                    parallel_threshold: 0,
                    batch_kind: layout,
                    ..Default::default()
                };
                let config = ServerConfig {
                    planner: cfg.clone(),
                    ..ServerConfig::default()
                };
                let handle = net::serve(Arc::clone(&db), config, "127.0.0.1:0").unwrap();
                let mut client = binary_client(handle.addr());
                for (i, q) in QUERIES.iter().enumerate() {
                    let lib = library_run(&db, &cfg, q).to_string();
                    let (flags, rows) = client
                        .query(i as u32, q)
                        .unwrap()
                        .unwrap_or_else(|(code, msg)| panic!("{q}: {code} {msg}"));
                    assert_eq!(
                        reassemble(flags, rows).to_string(),
                        lib,
                        "wire vs library diverged (dop={dop} budget={budget} layout={layout:?})"
                    );
                }
                // Hang up before shutdown — the handle joins every
                // connection thread, which waits on our socket's EOF.
                drop(client);
                handle.shutdown();
            }
        }
    }
}

/// The streaming pin: on a scan bigger than one batch, the cursor hands
/// the first chunk to the consumer while the pipeline is *not* yet
/// exhausted — the server-side TTFB precedes full drain structurally,
/// not just on a stopwatch.
#[test]
fn first_chunk_arrives_before_pipeline_is_exhausted() {
    let db = generate(&GenConfig {
        parts: 3 * BATCH_SIZE,
        ..GenConfig::scaled(80)
    });
    // No result caching: accumulation off is the pure streaming path.
    let server = QueryServer::with_config(
        &db,
        ServerConfig {
            cache_results: false,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    let mut cursor = session
        .open_stream("select p.pname from p in PART")
        .unwrap();
    let first = cursor.next_chunk().unwrap().expect("at least one chunk");
    assert!(!first.is_empty());
    assert!(
        !cursor.finished(),
        "first chunk must arrive before the stream is exhausted"
    );
    assert!(cursor.ttfb_us().is_some(), "TTFB recorded with chunk one");
    let mut total = first.len() as u64;
    while let Some(batch) = cursor.next_chunk().unwrap() {
        total += batch.len() as u64;
    }
    assert!(cursor.finished());
    assert_eq!(total, cursor.rows_streamed());
    assert!(
        cursor.chunks_streamed() >= 2,
        "a {total}-row scan must stream multiple chunks"
    );
    assert!(
        total as usize >= 3 * BATCH_SIZE,
        "scan should cover the generated extent"
    );
    // The cursor finalizes exactly once: stats carry the execution.
    assert!(cursor.stats().output_rows >= cursor.rows_streamed());
}

/// One QUERY over the wire, frame by frame: the HEADER flags, each
/// CHUNK's rows, and the END totals.
fn query_chunks(
    client: &mut WireClient<TcpStream>,
    tag: u32,
    text: &str,
) -> (u8, Vec<Vec<Value>>, (u64, u64)) {
    let (flags, bodies, end) = query_bodies(client, tag, text);
    let chunks = bodies
        .iter()
        .map(|b| wire::decode_chunk(b).unwrap())
        .collect();
    (flags, chunks, end)
}

/// [`query_chunks`] without the decode: the raw CHUNK bodies.
fn query_bodies(
    client: &mut WireClient<TcpStream>,
    tag: u32,
    text: &str,
) -> (u8, Vec<Vec<u8>>, (u64, u64)) {
    client.send(tag, verb::QUERY, text.as_bytes()).unwrap();
    let mut flags = None;
    let mut bodies = Vec::new();
    loop {
        let frame = client.read_frame().unwrap().expect("frame");
        assert_eq!(frame.tag, tag);
        match frame.kind {
            wire::kind::HEADER => flags = Some(frame.body[0]),
            wire::kind::CHUNK => bodies.push(frame.body),
            wire::kind::END => {
                let end = wire::decode_end(&frame.body).unwrap();
                return (flags.expect("HEADER first"), bodies, end);
            }
            other => panic!("{text}: unexpected frame kind {other}"),
        }
    }
}

/// The current value of one unlabelled metric family.
fn metric(shared: &ServerShared, family: &str) -> u64 {
    shared
        .render_metrics()
        .lines()
        .find_map(|l| l.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{family} missing from METRICS"))
}

/// The CHUNK bodies a hit on `rows` must send: each `BATCH_SIZE` slice
/// of the canonical set, encoded as a row batch.
fn replay_bodies(rows: &[Value]) -> Vec<Vec<u8>> {
    Set::from_values(rows.to_vec())
        .as_slice()
        .chunks(BATCH_SIZE)
        .map(|slice| {
            let mut body = Vec::new();
            wire::encode_chunk(&Batch::from_rows(slice.to_vec()), &mut body);
            body
        })
        .collect()
}

/// Bytes held by one stored copy of `bodies`.
fn held(bodies: &[Vec<u8>]) -> u64 {
    bodies.iter().map(|b| b.len() as u64).sum()
}

/// A result-cache hit replays the cached set in `BATCH_SIZE` slices cut
/// from the shared value: ⌈n/BATCH_SIZE⌉ chunks, all full but the last,
/// the live run's rows in the live run's order, and matching END totals.
/// Each slice is encoded once, by the first hit that sends it: every hit,
/// on any connection, sends byte-identical CHUNK bodies — the encoding of
/// the slice as a row batch — and `oodb_wire_cached_chunks_total` counts
/// them, while a miss leaves it alone. An empty hit streams no chunk; a
/// scalar hit one 1-row chunk.
#[test]
fn result_cache_hits_replay_in_batch_sized_chunks() {
    let n = 3 * BATCH_SIZE + 7;
    let db = Arc::new(generate(&GenConfig {
        parts: n,
        ..GenConfig::scaled(80)
    }));
    // Serial, so the live run streams the extent in canonical order —
    // the order a hit replays the cached set in.
    let config = ServerConfig {
        planner: PlannerConfig {
            parallelism: 1,
            ..Default::default()
        },
        ..ServerConfig::default()
    };
    let handle = net::serve(Arc::clone(&db), config, "127.0.0.1:0").unwrap();
    let shared = handle.shared();
    let cached_chunks = || metric(&shared, "oodb_wire_cached_chunks_total");
    let encoded_bytes = || metric(&shared, "oodb_result_cache_encoded_bytes");
    let mut client = binary_client(handle.addr());

    let all = "select p from p in PART";
    let (live_flags, live, live_end) = query_chunks(&mut client, 1, all);
    assert_eq!(live_flags & wire::flags::RESULT_HIT, 0, "first run is live");
    let live_rows: Vec<Value> = live.concat();
    assert_eq!(live_rows.len(), n);
    assert_eq!(live_end, (n as u64, live.len() as u64));
    assert_eq!(cached_chunks(), 0, "a miss sends no cached chunk");
    assert_eq!(encoded_bytes(), 0, "a miss fills no chunk slot");

    let want = replay_bodies(&live_rows);
    let slices = n.div_ceil(BATCH_SIZE) as u64;
    assert_eq!(want.len() as u64, slices);
    // Hits 2 and 3 on the first connection, then one from a second.
    let mut second = binary_client(handle.addr());
    for (hits, (on_second, tag)) in (1..).zip([(false, 2), (false, 3), (true, 1)]) {
        let conn = if on_second { &mut second } else { &mut client };
        let (flags, bodies, end) = query_bodies(conn, tag, all);
        assert_ne!(flags & wire::flags::RESULT_HIT, 0, "hit {hits}");
        assert_eq!(bodies, want, "hit {hits} sent other bytes");
        assert_eq!(end, (n as u64, slices));
        assert_eq!(cached_chunks(), hits * slices);
        assert_eq!(encoded_bytes(), held(&want), "one stored body per slice");
        let hit: Vec<Vec<Value>> = bodies
            .iter()
            .map(|b| wire::decode_chunk(b).unwrap())
            .collect();
        let (last, full) = hit.split_last().unwrap();
        assert!(full.iter().all(|c| c.len() == BATCH_SIZE));
        assert_eq!(last.len(), n % BATCH_SIZE);
        assert_eq!(
            hit.concat(),
            live_rows,
            "replayed rows differ from the live run"
        );
    }
    drop(second);

    let none = "select p from p in PART where p.price < 0";
    for tag in [3, 4] {
        let (flags, chunks, end) = query_chunks(&mut client, tag, none);
        assert_eq!(flags & wire::flags::RESULT_HIT != 0, tag == 4);
        assert!(chunks.is_empty(), "an empty result streams no chunk");
        assert_eq!(end, (0, 0));
    }
    assert_eq!(cached_chunks(), 3 * slices);

    let scalar = "count(select p from p in PART)";
    for tag in [5, 6] {
        let (flags, chunks, end) = query_chunks(&mut client, tag, scalar);
        assert_ne!(flags & wire::flags::SCALAR, 0);
        assert_eq!(flags & wire::flags::RESULT_HIT != 0, tag == 6);
        assert_eq!(chunks, vec![vec![Value::Int(n as i64)]]);
        assert_eq!(end, (1, 1));
    }
    assert_eq!(cached_chunks(), 3 * slices + 1);
    drop(client);
    handle.shutdown();
}

/// On one worker a `Filter` streams each scan chunk's survivors as one
/// chunk of fewer than `BATCH_SIZE` rows. A result-cache hit repeats the
/// live read's chunk boundaries: the same row count of every chunk, and
/// so the same `(rows, chunks)` totals, in process and in the wire END
/// frame.
#[test]
fn result_cache_hits_repeat_the_live_chunk_boundaries() {
    let db = Arc::new(generate(&GenConfig {
        parts: 3 * BATCH_SIZE + 7,
        ..GenConfig::scaled(80)
    }));
    let config = ServerConfig {
        planner: PlannerConfig {
            parallelism: 1,
            ..Default::default()
        },
        ..ServerConfig::default()
    };
    let selective = "select p from p in PART where p.price < 300";

    let server = QueryServer::with_config(&db, config.clone());
    let session = server.session();
    let read = || {
        let mut cursor = session.open_stream(selective).unwrap();
        let mut lens = Vec::new();
        while let Some(batch) = cursor.next_chunk().unwrap() {
            lens.push(batch.len());
        }
        let end = (cursor.rows_streamed(), cursor.chunks_streamed());
        (cursor.result_hit(), lens, end)
    };
    let (hit, live, live_end) = read();
    assert!(!hit, "first run is live");
    assert!(live.len() > 1, "{live:?}");
    assert!(live.iter().all(|&n| n < BATCH_SIZE), "{live:?}");
    let (hit, replay, end) = read();
    assert!(hit, "second run is a hit");
    assert_eq!(replay, live);
    assert_eq!(end, live_end);

    let handle = net::serve(Arc::clone(&db), config, "127.0.0.1:0").unwrap();
    let mut client = binary_client(handle.addr());
    let lens = |chunks: Vec<Vec<Value>>| chunks.iter().map(Vec::len).collect::<Vec<_>>();
    let (flags, live, live_end) = query_chunks(&mut client, 1, selective);
    assert_eq!(flags & wire::flags::RESULT_HIT, 0, "first run is live");
    let (flags, hit, end) = query_chunks(&mut client, 2, selective);
    assert_ne!(flags & wire::flags::RESULT_HIT, 0, "second run is a hit");
    assert_eq!(end, live_end);
    assert_eq!(lens(hit), lens(live));
    drop(client);
    handle.shutdown();
}

/// Two connections that fire the first hit on an entry at the same
/// moment race to fill its chunk slots; both send the one stored
/// encoding, byte for byte, and the cache keeps one copy of it.
#[test]
fn concurrent_first_hits_send_identical_bytes() {
    let n = 2 * BATCH_SIZE + 3;
    let db = Arc::new(generate(&GenConfig {
        parts: n,
        ..GenConfig::scaled(80)
    }));
    let handle = net::serve(Arc::clone(&db), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let text = "select p from p in PART";
    let (_, live) = binary_client(handle.addr())
        .query(1, text)
        .unwrap()
        .unwrap();
    let want = replay_bodies(&live);
    let addr = handle.addr();
    let barrier = std::sync::Barrier::new(2);
    let bodies: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = binary_client(addr);
                    barrier.wait();
                    let (flags, bodies, _) = query_bodies(&mut client, 7, text);
                    assert_ne!(flags & wire::flags::RESULT_HIT, 0);
                    bodies
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[0], want);
    let shared = handle.shared();
    assert_eq!(
        metric(&shared, "oodb_wire_cached_chunks_total"),
        2 * n.div_ceil(BATCH_SIZE) as u64
    );
    assert_eq!(
        metric(&shared, "oodb_result_cache_encoded_bytes"),
        held(&want)
    );
    handle.shutdown();
}

/// Transport latency pin: a result-cache hit over loopback is a round
/// trip of a few hundred microseconds. A frame split over several writes,
/// or a HEADER flushed ahead of its CHUNK, waits on Nagle's algorithm for
/// the client's delayed ACK — about 40 ms, twice per round trip. The bound
/// sits well below that floor and far above the expected time.
#[test]
fn cached_round_trips_do_not_wait_for_delayed_acks() {
    let db = Arc::new(scaled_db(40));
    let handle = net::serve(Arc::clone(&db), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = binary_client(handle.addr());
    let text = QUERIES[5];
    let (_, warm) = client.query(1, text).unwrap().unwrap();
    assert!(!warm.is_empty(), "the pinned query must stream a chunk");
    let mut times: Vec<Duration> = (0..30)
        .map(|i| {
            let start = Instant::now();
            let (flags, rows) = client.query(2 + i, text).unwrap().unwrap();
            let took = start.elapsed();
            assert_ne!(
                flags & wire::flags::RESULT_HIT,
                0,
                "round trip {i} is a hit"
            );
            assert_eq!(rows, warm);
            took
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median cached round trip {median:?} (all: {times:?})"
    );
    drop(client);
    handle.shutdown();
}

/// Error frames carry the stable numeric codes.
#[test]
fn error_frames_carry_stable_codes() {
    let db = Arc::new(scaled_db(40));
    let handle = net::serve(Arc::clone(&db), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = binary_client(handle.addr());
    // Parse failure → code 10.
    let err = client
        .query(1, "select from nonsense !!")
        .unwrap()
        .unwrap_err();
    assert_eq!(ErrorCode::from_u16(err.0), Some(ErrorCode::Parse));
    // Unknown verb → code 2; connection stays usable.
    client.send(2, 200, &[]).unwrap();
    let frame = client.read_frame().unwrap().unwrap();
    assert_eq!((frame.tag, frame.kind), (2, wire::kind::ERROR));
    let (code, _) = wire::decode_error(&frame.body).unwrap();
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::UnknownVerb));
    // Type failure → code 11, after the unknown verb.
    let err = client
        .query(3, "select s.no_such_attr from s in SUPPLIER")
        .unwrap()
        .unwrap_err();
    assert_eq!(ErrorCode::from_u16(err.0), Some(ErrorCode::Type));
    drop(client);
    handle.shutdown();
}

/// Waits for every admission-pool slot to come home (connection threads
/// release grants asynchronously after a disconnect).
fn assert_pool_drains(shared: &oodb::server::ServerShared) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if shared.budget_pool().in_use() == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "admission pool slot leaked: {} bytes still in use",
            shared.budget_pool().in_use()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A client action in the random protocol interleaving.
#[derive(Debug, Clone)]
enum Op {
    Query(usize),
    Explain(usize),
    Stats,
    Metrics,
    Trace,
    UnknownVerb,
    BadUtf8Query,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..QUERIES.len()).prop_map(Op::Query),
        (0..QUERIES.len()).prop_map(Op::Explain),
        Just(Op::Stats),
        Just(Op::Metrics),
        Just(Op::Trace),
        Just(Op::UnknownVerb),
        Just(Op::BadUtf8Query),
    ]
}

/// How the connection ends after the pipelined exchange.
#[derive(Debug, Clone)]
enum Ending {
    CleanQuit,
    /// Drop the socket with a request mid-frame on the wire.
    TruncatedFrame,
    /// Send a corrupt length prefix (frame too short to be real).
    MalformedLength,
    /// Pipeline one more query and hang up without reading its stream.
    MidStreamDisconnect,
}

fn ending_strategy() -> impl Strategy<Value = Ending> {
    prop_oneof![
        Just(Ending::CleanQuit),
        Just(Ending::TruncatedFrame),
        Just(Ending::MalformedLength),
        Just(Ending::MidStreamDisconnect),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Random pipelined interleavings — valid requests mixed with
    /// protocol violations and abrupt disconnects. The server must
    /// route every response to its tag, keep answering after in-band
    /// errors, survive every ending without panicking, and return all
    /// admission-pool bytes.
    #[test]
    fn random_pipelined_interleavings_are_safe(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        ending in ending_strategy(),
        seed_tag in 0u32..1000,
    ) {
        let db = Arc::new(scaled_db(40));
        let expected: Vec<String> = QUERIES
            .iter()
            .map(|q| library_run(&db, &PlannerConfig::default(), q).to_string())
            .collect();
        let handle = net::serve(
            Arc::clone(&db),
            ServerConfig {
                // Small but real budgets so a leaked grant is visible.
                planner: PlannerConfig {
                    memory_budget: 1 << 20,
                    ..Default::default()
                },
                global_memory_bytes: 64 << 20,
                cache_results: false,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let shared = handle.shared();

        {
            let mut client = binary_client(handle.addr());
            // Send phase: the whole interleaving is pipelined.
            for (i, op) in ops.iter().enumerate() {
                let tag = seed_tag.wrapping_add(i as u32);
                match op {
                    Op::Query(q) => client.send(tag, verb::QUERY, QUERIES[*q].as_bytes()),
                    Op::Explain(q) => client.send(tag, verb::EXPLAIN, QUERIES[*q].as_bytes()),
                    Op::Stats => client.send(tag, verb::STATS, &[]),
                    Op::Metrics => client.send(tag, verb::METRICS, &[]),
                    Op::Trace => client.send(tag, verb::TRACE, &[]),
                    Op::UnknownVerb => client.send(tag, 250, &[]),
                    Op::BadUtf8Query => client.send(tag, verb::QUERY, &[0xFF, 0xFE, 0x41]),
                }
                .unwrap();
            }
            // Read phase: every response echoes its request tag, in
            // request order.
            for (i, op) in ops.iter().enumerate() {
                let tag = seed_tag.wrapping_add(i as u32);
                match op {
                    Op::Query(q) => {
                        let (flags, rows) = client
                            .read_query_response(tag)
                            .unwrap()
                            .map_err(|(c, m)| format!("{c} {m}"))
                            .unwrap();
                        prop_assert_eq!(
                            reassemble(flags, rows).to_string(),
                            expected[*q].clone(),
                            "query {} under interleaving {:?}",
                            q,
                            ops
                        );
                    }
                    Op::Explain(_) => {
                        let text = client.read_text_response(tag).unwrap().unwrap();
                        prop_assert!(!text.is_empty());
                    }
                    Op::Stats => {
                        let text = client.read_text_response(tag).unwrap().unwrap();
                        prop_assert!(text.contains("plan_hits="));
                    }
                    Op::Metrics => {
                        let text = client.read_text_response(tag).unwrap().unwrap();
                        prop_assert!(text.contains("oodb_queries_total"));
                    }
                    Op::Trace => {
                        client.read_text_response(tag).unwrap().unwrap();
                    }
                    Op::UnknownVerb => {
                        let frame = client.read_frame().unwrap().unwrap();
                        prop_assert_eq!(frame.tag, tag);
                        prop_assert_eq!(frame.kind, wire::kind::ERROR);
                        let (code, _) = wire::decode_error(&frame.body).unwrap();
                        prop_assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::UnknownVerb));
                    }
                    Op::BadUtf8Query => {
                        let frame = client.read_frame().unwrap().unwrap();
                        prop_assert_eq!(frame.tag, tag);
                        prop_assert_eq!(frame.kind, wire::kind::ERROR);
                        let (code, _) = wire::decode_error(&frame.body).unwrap();
                        prop_assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::Malformed));
                    }
                }
            }
            match ending {
                Ending::CleanQuit => {
                    client.send(u32::MAX, verb::QUIT, &[]).unwrap();
                    let bye = client.read_frame().unwrap().unwrap();
                    prop_assert_eq!(bye.kind, wire::kind::BYE);
                }
                Ending::TruncatedFrame => {
                    // A plausible header, then silence: the body never
                    // arrives because the socket drops here.
                    client.send_raw(&[40, 0, 0, 0, 1, 2, 3]).unwrap();
                }
                Ending::MalformedLength => {
                    client.send_raw(&2u32.to_le_bytes()).unwrap();
                    // The server answers one Malformed ERROR (tag 0)
                    // and hangs up.
                    let frame = client.read_frame().unwrap().unwrap();
                    prop_assert_eq!(frame.tag, 0);
                    let (code, _) = wire::decode_error(&frame.body).unwrap();
                    prop_assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::Malformed));
                    prop_assert!(client.read_frame().unwrap().is_none());
                }
                Ending::MidStreamDisconnect => {
                    client
                        .send(424242, verb::QUERY, QUERIES[0].as_bytes())
                        .unwrap();
                    // Read the HEADER so the stream is known live, then
                    // drop the connection without draining it.
                    let frame = client.read_frame().unwrap().unwrap();
                    prop_assert_eq!(frame.tag, 424242);
                }
            }
            // client drops here — for the abrupt endings that is the
            // disconnect itself.
        }

        // Whatever happened, the server keeps serving fresh
        // connections and every admission grant comes home.
        assert_pool_drains(&shared);
        let mut probe = binary_client(handle.addr());
        let (flags, rows) = probe.query(1, QUERIES[1]).unwrap().unwrap();
        prop_assert_eq!(reassemble(flags, rows).to_string(), expected[1].clone());
        drop(probe);
        handle.shutdown();
    }
}
