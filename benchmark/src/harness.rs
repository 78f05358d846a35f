//! Set-up, the closed-loop drivers and result checking.
//!
//! One call to [`run`] is one restart of the system: generate the
//! database, index it, build the server (and for the wire workload bind
//! and connect), warm up — that is `setup_s` — then, if asked, the timed
//! phase and the post-phase verification against an independent
//! reference.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use oodb_catalog::{CatalogStats, Database};
use oodb_core::Optimizer;
use oodb_datagen::{generate, GenConfig, PART_BASE, SUPPLIER_BASE};
use oodb_engine::{Evaluator, Planner, Stats};
use oodb_server::wire::{self, kind, verb, WireClient};
use oodb_server::{
    net, CacheMetrics, QueryServer, ResultCursor, ServerConfig, ServerShared, Session,
};
use oodb_value::{Oid, Set, Tuple, Value};

use crate::spans::Tracer;
use crate::util::peak_rss_mib;
use crate::workload::{
    DbInfo, Mix, Op, OpStream, Query, Rng, Transport, Workload, GATE_SCALE, READS_PER_TEXT, SCALE,
    WRITE_BATCH,
};

/// Every this-many-th op of a client has its rows kept and fingerprinted
/// (after the op's clock stopped).
const CONTENT_STRIDE: u64 = 16;
/// Fresh-literal ops re-run on the reference executor after the phase.
const MAX_REFERENCE_CHECKS: usize = 12;

/// What users get: defaults, with every `OODB_*` variable scrubbed by
/// `main` before the first call.
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
}

/// Times of one set-up, for `setup_s` and the set-up layer metrics.
#[derive(Clone, Copy, Default, Debug)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_ms: f64,
    pub create_index_ms: f64,
}

pub fn build_db(seed: u64, scale: usize, times: &mut SetupTimes) -> Database {
    let t = Instant::now();
    let mut db = generate(&GenConfig {
        seed,
        ..GenConfig::scaled(scale)
    });
    times.generate_ms = ms(t.elapsed());
    let t = Instant::now();
    for (extent, attr) in [("PART", "pid"), ("PART", "color"), ("DELIVERY", "supplier")] {
        db.create_index(extent, attr)
            .expect("generated extents are indexable");
    }
    times.create_index_ms = ms(t.elapsed());
    db
}

pub fn db_info(db: &Database) -> DbInfo {
    let suppliers = db.table("SUPPLIER").expect("SUPPLIER extent");
    let n = suppliers.len();
    let mid_sized = |i: &usize| {
        let parts = suppliers.row(*i).and_then(|r| r.get("parts"));
        parts
            .and_then(|p| p.as_set().ok())
            .is_some_and(|s| (4..=12).contains(&s.len()))
    };
    let q31_anchor = (17..n).chain(0..17.min(n)).find(mid_sized).unwrap_or(0);
    DbInfo {
        suppliers: n as u64,
        q31_anchor: q31_anchor as u64,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Order-independent fingerprint of a result set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Content {
    pub set_len: u64,
    pub checksum: u64,
}

fn row_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Streamed rows arrive before duplicate elimination and the references
/// are sets, so equal rows count once. Only the 8-byte hashes of a kept
/// result are held, so checking adds nothing to speak of to
/// `peak_rss_mb`.
fn content_of(mut hashes: Vec<u64>) -> Content {
    hashes.sort_unstable();
    hashes.dedup();
    Content {
        set_len: hashes.len() as u64,
        checksum: hashes.iter().fold(0, |acc, h| acc.wrapping_add(*h)),
    }
}

fn content_of_set(set: &Set) -> Content {
    content_of(set.iter().map(row_hash).collect())
}

/// What one read op returned and when.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    pub start: Instant,
    /// Until the cursor was open / the request was sent.
    pub opened_ns: u64,
    /// Until the first chunk was in the client's hands (the whole
    /// latency for an empty result).
    pub ttfc_ns: u64,
    pub latency_ns: u64,
    pub rows: u64,
    pub chunks: u64,
    /// CHUNK body bytes (wire transport only).
    pub bytes: u64,
    pub result_hit: bool,
    /// Row hashes, when the caller asked to keep the content.
    pub kept: Option<Vec<u64>>,
}

/// Opens `query` on `session`: OOSQL text, or the ADL form where the
/// front end cannot express the query.
pub fn open_cursor<'srv, 'db>(
    session: &Session<'srv, 'db>,
    query: &Query,
) -> Result<ResultCursor<'srv, 'db>, String> {
    match &query.adl {
        Some(expr) => session.open_expr_stream(expr.clone()),
        None => session.open_stream(&query.text),
    }
    .map_err(|e| e.to_string())
}

pub fn read_in_process(
    session: &Session<'_, '_>,
    query: &Query,
    keep: bool,
) -> Result<ReadOutcome, String> {
    let start = Instant::now();
    let mut cursor = open_cursor(session, query)?;
    let opened_ns = start.elapsed().as_nanos() as u64;
    let (mut rows, mut chunks, mut ttfc_ns) = (0u64, 0u64, None);
    let mut kept = keep.then(Vec::new);
    while let Some(batch) = cursor.next_chunk().map_err(|e| e.to_string())? {
        ttfc_ns.get_or_insert_with(|| start.elapsed().as_nanos() as u64);
        rows += batch.len() as u64;
        chunks += 1;
        if let Some(kept) = &mut kept {
            kept.extend(batch.into_values().iter().map(row_hash));
        }
    }
    let latency_ns = start.elapsed().as_nanos() as u64;
    if (rows, chunks) != (cursor.rows_streamed(), cursor.chunks_streamed()) {
        return Err(format!(
            "pulled {rows} rows in {chunks} chunks, cursor counted {} in {}",
            cursor.rows_streamed(),
            cursor.chunks_streamed()
        ));
    }
    Ok(ReadOutcome {
        start,
        opened_ns,
        ttfc_ns: ttfc_ns.unwrap_or(latency_ns),
        latency_ns,
        rows,
        chunks,
        bytes: 0,
        result_hit: cursor.result_hit(),
        kept,
    })
}

pub fn read_wire(
    client: &mut WireClient<TcpStream>,
    tag: u32,
    query: &Query,
    keep: bool,
) -> Result<ReadOutcome, String> {
    let start = Instant::now();
    client
        .send(tag, verb::QUERY, query.text.as_bytes())
        .map_err(|e| e.to_string())?;
    let opened_ns = start.elapsed().as_nanos() as u64;
    let (mut rows, mut chunks, mut bytes, mut ttfc_ns) = (0u64, 0u64, 0u64, None);
    let mut flags = None;
    let mut kept = keep.then(Vec::new);
    loop {
        let frame = client
            .read_frame()
            .map_err(|e| e.to_string())?
            .ok_or("connection closed mid-response")?;
        if frame.tag != tag {
            return Err(format!("tag {} answers request {tag}", frame.tag));
        }
        match frame.kind {
            kind::HEADER => flags = frame.body.first().copied(),
            kind::CHUNK => {
                let decoded = wire::decode_chunk(&frame.body).map_err(|e| e.to_string())?;
                ttfc_ns.get_or_insert_with(|| start.elapsed().as_nanos() as u64);
                rows += decoded.len() as u64;
                chunks += 1;
                bytes += frame.body.len() as u64;
                if let Some(kept) = &mut kept {
                    kept.extend(decoded.iter().map(row_hash));
                }
            }
            kind::END => {
                let latency_ns = start.elapsed().as_nanos() as u64;
                let end = wire::decode_end(&frame.body).map_err(|e| e.to_string())?;
                if end != (rows, chunks) {
                    return Err(format!(
                        "END says {end:?}, received {rows} rows in {chunks} chunks"
                    ));
                }
                let flags = flags.ok_or("END before HEADER")?;
                return Ok(ReadOutcome {
                    start,
                    opened_ns,
                    ttfc_ns: ttfc_ns.unwrap_or(latency_ns),
                    latency_ns,
                    rows,
                    chunks,
                    bytes,
                    result_hit: flags & wire::flags::RESULT_HIT != 0,
                    kept,
                });
            }
            kind::ERROR => {
                let (code, msg) = wire::decode_error(&frame.body).map_err(|e| e.to_string())?;
                return Err(format!("server error {code}: {msg}"));
            }
            other => return Err(format!("unexpected frame kind {other}")),
        }
    }
}

/// Connects and waits for the first `STATS` answer: only then has the
/// connection's server-side `QueryServer` been built.
pub fn connect_ready(addr: std::net::SocketAddr) -> Result<WireClient<TcpStream>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut client = WireClient::new(stream);
    client
        .text_request(0, verb::STATS, "")
        .map_err(|e| e.to_string())?
        .map_err(|(code, msg)| format!("STATS failed: {code} {msg}"))?;
    Ok(client)
}

/// The library path on the materialising executor: shares no executor,
/// cache or transport code with the serving path it checks.
pub fn reference_content(
    db: &Database,
    stats: &CatalogStats,
    query: &Query,
) -> Result<Content, String> {
    let nested = translate(db, query)?;
    let optimized = Optimizer::default()
        .optimize(&nested, db.catalog())
        .map_err(|e| e.to_string())?;
    let config = server_config().planner;
    let plan = Planner::with_stats(db, config, stats.clone())
        .plan(&optimized.expr)
        .map_err(|e| e.to_string())?;
    match plan
        .execute(&mut Stats::default())
        .map_err(|e| e.to_string())?
    {
        Value::Set(set) => Ok(content_of_set(&set)),
        other => Err(format!("reference returned a non-set: {other}")),
    }
}

pub fn translate(db: &Database, query: &Query) -> Result<oodb_adl::Expr, String> {
    if let Some(expr) = &query.adl {
        return Ok(expr.clone());
    }
    let ast = oodb_oosql::parse(&query.text).map_err(|e| e.to_string())?;
    oodb_oosql::typecheck(&ast, db.catalog()).map_err(|e| e.to_string())?;
    oodb_translate::translate(&ast, db.catalog()).map_err(|e| e.to_string())
}

/// The correctness gate: every template of the workload, through the
/// workload's own serving path on a small database, against the naive
/// nested-loop evaluator on the un-rewritten expression — the paper's
/// equivalence, checked by a reference that shares nothing with the
/// optimised path. Returns the number of templates checked.
pub fn gate(workload: &Workload, seed: u64) -> Result<usize, String> {
    let db = Arc::new(build_db(seed, GATE_SCALE, &mut SetupTimes::default()));
    let stream = OpStream::new(workload.mix, seed, 0, db_info(&db));
    let mut ops = stream.warm_up_ops();
    ops.truncate(ops.len() / 3);
    let served: Vec<Vec<u64>> = match workload.transport {
        Transport::InProcess => {
            let server = QueryServer::with_config(&db, server_config());
            let session = server.session();
            ops.iter()
                .map(|(_, q)| read_in_process(&session, q, true).map(|o| o.kept.unwrap()))
                .collect::<Result<_, _>>()?
        }
        Transport::Wire => {
            let handle = net::serve(Arc::clone(&db), server_config(), "127.0.0.1:0")
                .map_err(|e| e.to_string())?;
            let mut client = connect_ready(handle.addr())?;
            let rows = ops
                .iter()
                .enumerate()
                .map(|(i, (_, q))| {
                    read_wire(&mut client, i as u32 + 1, q, true).map(|o| o.kept.unwrap())
                })
                .collect::<Result<_, _>>();
            drop(client);
            handle.shutdown();
            rows?
        }
    };
    for ((_, query), rows) in ops.iter().zip(served) {
        let nested = translate(&db, query)?;
        let naive = Evaluator::new(&db)
            .eval_closed(&nested)
            .map_err(|e| e.to_string())?;
        let naive = match &naive {
            Value::Set(set) => content_of_set(set),
            other => return Err(format!("gate: {} is not set-valued: {other}", query.text)),
        };
        if content_of(rows) != naive {
            return Err(format!(
                "gate: served result differs from the nested-loop evaluator for {}",
                query.text
            ));
        }
    }
    Ok(ops.len())
}

/// One timed op. `class` is `2 * template + result_hit` for reads and
/// [`WRITE_CLASS`] for writes.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: u16,
    pub ok: bool,
    pub latency_ns: u64,
    /// Zero for writes and failed ops.
    pub ttfc_ns: u64,
}

pub const WRITE_CLASS: u16 = u16::MAX;

impl Sample {
    /// A read of `template` that failed, `started` ago.
    fn failed(template: usize, started: Instant) -> Sample {
        Sample {
            class: (2 * template) as u16,
            ok: false,
            latency_ns: started.elapsed().as_nanos() as u64,
            ttfc_ns: 0,
        }
    }
}

/// What the warm-up pass saw for a fixed text.
#[derive(Clone, Copy, Debug)]
struct Expected {
    rows: u64,
    chunks: u64,
    content: Content,
}

/// Everything a timed phase produced.
#[derive(Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Serving-layer counter movement over the phase.
    pub cache: CacheMetrics,
    /// `VmHWM` when the last client finished, before the reference
    /// checks allocate anything.
    pub peak_rss_mib: f64,
    /// Post-phase reference checks that failed (each also counts as a
    /// failed op).
    pub reference_failures: u64,
    pub reference_checks: u64,
    /// First few failure messages, for the operator.
    pub messages: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl PhaseResult {
    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

#[derive(Clone, Copy)]
pub struct Phase {
    pub seconds: f64,
    /// Record client-visible spans per op (the traced run's second
    /// phase; the difference in `qps` is the tracing overhead).
    pub traced: bool,
}

/// One client's share of a phase.
struct ClientLog {
    samples: Vec<Sample>,
    end: Instant,
    messages: Vec<String>,
    /// Fresh-literal ops kept for the reference check.
    to_check: Vec<(Query, Content)>,
    tracer: Option<Tracer>,
}

fn cache_delta(before: CacheMetrics, after: CacheMetrics) -> CacheMetrics {
    CacheMetrics {
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        plan_invalidations: after.plan_invalidations - before.plan_invalidations,
        result_hits: after.result_hits - before.result_hits,
        result_misses: after.result_misses - before.result_misses,
    }
}

/// Runs the warm-up pass through `read` and, for fixed texts, returns
/// what each template answered on its last round.
fn warm_up(
    stream: &OpStream,
    mut read: impl FnMut(&Query) -> Result<ReadOutcome, String>,
) -> Result<Vec<Expected>, String> {
    let ops = stream.warm_up_ops();
    let templates = ops.len() / 3;
    let mut expected = Vec::new();
    for (i, (_, query)) in ops.iter().enumerate() {
        let out = read(query).map_err(|e| format!("warm-up of {}: {e}", query.text))?;
        // The last round visits the templates in index order.
        if i >= 2 * templates {
            expected.push(Expected {
                rows: out.rows,
                chunks: out.chunks,
                content: content_of(out.kept.expect("warm-up keeps rows")),
            });
        }
    }
    Ok(expected)
}

/// The closed loop of one read-only client: next op only after the
/// previous answer was fully consumed and checked.
fn drive_reads(
    workload: &Workload,
    stream: &mut OpStream,
    expected: &[Expected],
    deadline: Instant,
    traced: bool,
    mut read: impl FnMut(u64, &Query, bool) -> Result<ReadOutcome, String>,
) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::with_capacity(1 << 16),
        end: Instant::now(),
        messages: Vec::new(),
        to_check: Vec::new(),
        tracer: traced.then(Tracer::new),
    };
    let mut n = 0u64;
    while Instant::now() < deadline {
        let Op::Read { template, query } = stream.next_op() else {
            unreachable!("read-only mixes hold no writes")
        };
        let keep = n.is_multiple_of(CONTENT_STRIDE);
        let started = Instant::now();
        let sample = match read(n, &query, keep) {
            Ok(mut out) => {
                let mut ok = true;
                let content = out.kept.take().map(content_of);
                if workload.mix == Mix::Hot {
                    let want = expected[template];
                    if (out.rows, out.chunks) != (want.rows, want.chunks)
                        || content.is_some_and(|c| c != want.content)
                    {
                        ok = false;
                        log.messages.push(format!(
                            "{}: {} rows/{} chunks, warm-up saw {}/{}",
                            query.text, out.rows, out.chunks, want.rows, want.chunks
                        ));
                    }
                } else if let Some(c) = content {
                    if log.to_check.len() < MAX_REFERENCE_CHECKS {
                        log.to_check.push((query.clone(), c));
                    }
                }
                if let Some(tracer) = &mut log.tracer {
                    record_client_spans(tracer, n as u32, &out);
                }
                Sample {
                    class: (2 * template + out.result_hit as usize) as u16,
                    ok,
                    latency_ns: out.latency_ns,
                    ttfc_ns: out.ttfc_ns,
                }
            }
            Err(e) => {
                log.messages.push(format!("{}: {e}", query.text));
                Sample::failed(template, started)
            }
        };
        log.samples.push(sample);
        n += 1;
    }
    log.end = Instant::now();
    log
}

/// The spans a client can see from outside: the op, and inside it the
/// open, the wait for the first chunk, and the drain.
fn record_client_spans(tracer: &mut Tracer, op_id: u32, out: &ReadOutcome) {
    let t0 = tracer.at(out.start);
    let op = tracer.push("client.op", None, op_id, t0, t0 + out.latency_ns);
    tracer.push("client.open", Some(op), op_id, t0, t0 + out.opened_ns);
    tracer.push(
        "client.first_chunk",
        Some(op),
        op_id,
        t0 + out.opened_ns,
        t0 + out.ttfc_ns,
    );
    tracer.push(
        "client.drain",
        Some(op),
        op_id,
        t0 + out.ttfc_ns,
        t0 + out.latency_ns,
    );
}

/// Folds the clients' logs into one result and runs the reference check
/// on the fresh-literal ops they kept.
fn finish_reads(logs: Vec<ClientLog>, start: Instant, db: &Database, traced: bool) -> PhaseResult {
    let mut result = PhaseResult {
        tracer: traced.then(Tracer::new),
        peak_rss_mib: peak_rss_mib(),
        ..PhaseResult::default()
    };
    let end = logs
        .iter()
        .map(|l| l.end)
        .max()
        .expect("at least one client");
    result.wall_s = end.duration_since(start).as_secs_f64();
    let stats = CatalogStats::from_database(db);
    for log in logs {
        result.samples.extend(log.samples);
        for m in log.messages {
            result.note(m);
        }
        if let (Some(all), Some(own)) = (&mut result.tracer, log.tracer) {
            all.absorb(own);
        }
        for (query, got) in log.to_check {
            result.reference_checks += 1;
            let want = reference_content(db, &stats, &query);
            if want != Ok(got) {
                result.reference_failures += 1;
                result.note(format!(
                    "{}: served {got:?}, reference {want:?}",
                    query.text
                ));
            }
        }
    }
    result
}

/// Checks what warm-up saw for each fixed text against the reference.
fn check_expected(
    result: &mut PhaseResult,
    db: &Database,
    stream: &OpStream,
    expected: &[Expected],
) {
    let stats = CatalogStats::from_database(db);
    for ((_, query), want) in stream.warm_up_ops().iter().zip(expected) {
        result.reference_checks += 1;
        let reference = reference_content(db, &stats, query);
        if reference != Ok(want.content) {
            result.reference_failures += 1;
            result.note(format!(
                "{}: served {:?}, reference {reference:?}",
                query.text, want.content
            ));
        }
    }
}

/// One restart of the system under `workload`, and optionally one timed
/// phase on it.
pub fn run(
    workload: &Workload,
    seed: u64,
    phase: Option<Phase>,
) -> Result<(SetupTimes, Option<PhaseResult>), String> {
    match (workload.transport, workload.mix) {
        (Transport::InProcess, Mix::WriteCycle) => run_write_cycle(workload, seed, phase),
        (Transport::InProcess, _) => run_in_process(workload, seed, phase),
        (Transport::Wire, _) => run_wire(workload, seed, phase),
    }
}

fn run_in_process(
    workload: &Workload,
    seed: u64,
    phase: Option<Phase>,
) -> Result<(SetupTimes, Option<PhaseResult>), String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let db = build_db(seed, SCALE, &mut times);
    let server = QueryServer::with_config(&db, server_config());
    let info = db_info(&db);
    let mut streams: Vec<OpStream> = (0..workload.clients)
        .map(|c| OpStream::new(workload.mix, seed, c, info))
        .collect();
    let session = server.session();
    let expected = warm_up(&streams[0], |q| read_in_process(&session, q, true))?;
    times.total_s = t0.elapsed().as_secs_f64();
    let Some(phase) = phase else {
        return Ok((times, None));
    };

    let shared = server.shared();
    let before = shared.metrics();
    let barrier = Barrier::new(workload.clients);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let (server, expected, barrier) = (&server, &expected, &barrier);
                scope.spawn(move || {
                    let session = server.session();
                    barrier.wait();
                    drive_reads(
                        workload,
                        stream,
                        expected,
                        deadline,
                        phase.traced,
                        |_, q, keep| read_in_process(&session, q, keep),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut result = finish_reads(logs, start, &db, phase.traced);
    result.cache = cache_delta(before, shared.metrics());
    if workload.mix == Mix::Hot {
        check_expected(&mut result, &db, &streams[0], &expected);
    }
    Ok((times, Some(result)))
}

fn run_wire(
    workload: &Workload,
    seed: u64,
    phase: Option<Phase>,
) -> Result<(SetupTimes, Option<PhaseResult>), String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let db = Arc::new(build_db(seed, SCALE, &mut times));
    let handle =
        net::serve(Arc::clone(&db), server_config(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut clients: Vec<WireClient<TcpStream>> = (0..workload.clients)
        .map(|_| connect_ready(handle.addr()))
        .collect::<Result<_, _>>()?;
    let info = db_info(&db);
    let mut streams: Vec<OpStream> = (0..workload.clients)
        .map(|c| OpStream::new(workload.mix, seed, c, info))
        .collect();
    let mut tag = 0u32;
    let expected = warm_up(&streams[0], |q| {
        tag += 1;
        read_wire(&mut clients[0], tag, q, true)
    })?;
    times.total_s = t0.elapsed().as_secs_f64();
    let Some(phase) = phase else {
        drop(clients);
        handle.shutdown();
        return Ok((times, None));
    };

    let shared = handle.shared();
    let before = shared.metrics();
    let barrier = Barrier::new(workload.clients);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(clients.iter_mut())
            .map(|(stream, client)| {
                let (expected, barrier) = (&expected, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    drive_reads(
                        workload,
                        stream,
                        expected,
                        deadline,
                        phase.traced,
                        |n, q, keep| read_wire(client, 1_000 + n as u32, q, keep),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut result = finish_reads(logs, start, &db, phase.traced);
    result.cache = cache_delta(before, shared.metrics());
    // The in-process twin: what the wire delivered during warm-up must be
    // what the library computes on the same database.
    check_expected(&mut result, &db, &streams[0], &expected);
    drop(clients);
    handle.shutdown();
    Ok((times, Some(result)))
}

/// Inserts [`WRITE_BATCH`] generated objects: new parts, and new
/// suppliers pointing at existing parts.
pub fn apply_write(db: &mut Database, rng: &mut Rng) -> Result<(), String> {
    let parts = db.table("PART").map_or(0, |t| t.len()) as u64;
    let suppliers = db.table("SUPPLIER").map_or(0, |t| t.len()) as u64;
    for k in 0..(WRITE_BATCH / 2) as u64 {
        let n = parts + k;
        let color = if rng.below(5) == 0 { "red" } else { "blue" };
        db.insert(
            "PART",
            Tuple::from_pairs([
                ("pid", Value::Oid(Oid(PART_BASE + n))),
                ("pname", Value::str(&format!("part-{n}"))),
                ("price", Value::Int(1 + rng.below(1_000) as i64)),
                ("color", Value::str(color)),
            ]),
        )
        .map_err(|e| e.to_string())?;
    }
    for k in 0..(WRITE_BATCH / 2) as u64 {
        let n = suppliers + k;
        let refs: Vec<Value> = (0..1 + rng.below(16))
            .map(|_| Value::Oid(Oid(PART_BASE + rng.below(parts))))
            .collect();
        db.insert(
            "SUPPLIER",
            Tuple::from_pairs([
                ("eid", Value::Oid(Oid(SUPPLIER_BASE + n))),
                ("sname", Value::str(&format!("supplier-{n}"))),
                ("parts", Value::set(refs)),
            ]),
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn run_write_cycle(
    workload: &Workload,
    seed: u64,
    phase: Option<Phase>,
) -> Result<(SetupTimes, Option<PhaseResult>), String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let mut db = build_db(seed, SCALE, &mut times);
    let config = server_config();
    // The shared caches outlive each server, as they do for any owner of
    // a `Database` who writes between server lifetimes.
    let shared = ServerShared::new(&config);
    let info = db_info(&db);
    let mut stream = OpStream::new(workload.mix, seed, 0, info);
    let mut rng = Rng::new(seed ^ 0x005E_ED0F);
    {
        let server = QueryServer::with_shared(&db, config.clone(), Arc::clone(&shared));
        let session = server.session();
        warm_up(&stream, |q| read_in_process(&session, q, true))?;
    }
    // This workload's warm-up also takes the write path once: a write,
    // a rebuild, and every text recomputed.
    apply_write(&mut db, &mut rng)?;
    {
        let server = QueryServer::with_shared(&db, config.clone(), Arc::clone(&shared));
        let session = server.session();
        for query in crate::workload::fixed_queries(workload.mix, info) {
            read_in_process(&session, &query, false)?;
        }
    }
    times.total_s = t0.elapsed().as_secs_f64();
    let Some(phase) = phase else {
        return Ok((times, None));
    };

    let mut result = PhaseResult {
        tracer: phase.traced.then(Tracer::new),
        ..PhaseResult::default()
    };
    let before = shared.metrics();
    let texts = crate::workload::templates(workload.mix).len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase.seconds);
    let mut n = 0u32;
    // The deadline is checked between cycles, so every run holds whole
    // cycles and the class shares are exact.
    while Instant::now() < deadline {
        let Op::Write = stream.next_op() else {
            unreachable!("a cycle starts with its write")
        };
        let t_write = Instant::now();
        let written = apply_write(&mut db, &mut rng);
        let server = QueryServer::with_shared(&db, config.clone(), Arc::clone(&shared));
        let latency_ns = t_write.elapsed().as_nanos() as u64;
        if let Some(tracer) = &mut result.tracer {
            let t = tracer.at(t_write);
            tracer.push("client.write", None, n, t, t + latency_ns);
        }
        if let Err(e) = &written {
            result.note(format!("write: {e}"));
        }
        result.samples.push(Sample {
            class: WRITE_CLASS,
            ok: written.is_ok(),
            latency_ns,
            ttfc_ns: 0,
        });
        n += 1;
        let session = server.session();
        // What each text answered on its first read after the write.
        let mut fresh: Vec<Option<(u64, u64)>> = vec![None; texts];
        for _ in 0..READS_PER_TEXT * texts {
            let Op::Read { template, query } = stream.next_op() else {
                unreachable!("reads follow the write")
            };
            let started = Instant::now();
            let sample = match read_in_process(&session, &query, false) {
                Ok(out) => {
                    // A hit on the first read would be a result that
                    // predates the write; later reads must repeat it.
                    let ok = match fresh[template] {
                        None => !out.result_hit,
                        Some(seen) => out.result_hit && seen == (out.rows, out.chunks),
                    };
                    if !ok {
                        result.note(format!(
                            "{}: hit={} {} rows after the write, first read {:?}",
                            query.text, out.result_hit, out.rows, fresh[template]
                        ));
                    }
                    fresh[template].get_or_insert((out.rows, out.chunks));
                    if let Some(tracer) = &mut result.tracer {
                        record_client_spans(tracer, n, &out);
                    }
                    Sample {
                        class: (2 * template + out.result_hit as usize) as u16,
                        ok,
                        latency_ns: out.latency_ns,
                        ttfc_ns: out.ttfc_ns,
                    }
                }
                Err(e) => {
                    result.note(format!("{}: {e}", query.text));
                    Sample::failed(template, started)
                }
            };
            result.samples.push(sample);
            n += 1;
        }
    }
    result.wall_s = start.elapsed().as_secs_f64();
    result.peak_rss_mib = peak_rss_mib();
    result.cache = cache_delta(before, shared.metrics());

    // After all the invalidation cycles, what the caches now serve must
    // be what the library computes on the final database.
    let server = QueryServer::with_shared(&db, config, Arc::clone(&shared));
    let session = server.session();
    let stats = CatalogStats::from_database(&db);
    for query in crate::workload::fixed_queries(workload.mix, info) {
        result.reference_checks += 1;
        let served = read_in_process(&session, &query, true)
            .map(|out| content_of(out.kept.expect("rows were kept")));
        let reference = reference_content(&db, &stats, &query);
        if served.is_err() || served != reference {
            result.reference_failures += 1;
            result.note(format!(
                "{}: served {served:?}, reference {reference:?}",
                query.text
            ));
        }
    }
    Ok((times, Some(result)))
}
