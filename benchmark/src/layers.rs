//! The traced run's layer replay: the first [`REPLAY_OPS`] ops of the
//! workload, with the benchmark itself calling each layer's public
//! functions and timing them from outside.
//!
//! For every read op it (1) runs the op through the real serving path,
//! (2) replays, one public call at a time, the layers the server had to
//! run for that op — the front end always, rewrite and planning only on
//! a plan-cache miss, execution only on a result-cache miss — so a layer
//! a workload bypasses reads zero, (3) re-chunks and re-frames the
//! captured batches through the wire codec, and (4) for the first
//! [`TWIN_OPS`] ops sends the same text over a real connection and to an
//! in-process session on the same caches: the difference is the
//! transport. Writes are timed call by call; every write is followed by
//! a timed statistics scan and server rebuild. Two probe writes are
//! appended on read-only workloads so the write path is priced on every
//! workload.

use std::sync::Arc;
use std::time::Instant;

use oodb_catalog::{CatalogStats, Database};
use oodb_core::Optimizer;
use oodb_engine::{MemoryBudget, Planner, ResultStream, Stats};
use oodb_server::wire;
use oodb_server::{net, QueryServer, ServerShared, Session};
use oodb_value::Batch;

use crate::harness::{
    apply_write, build_db, connect_ready, db_info, open_cursor, read_in_process, read_wire,
    server_config, SetupTimes,
};
use crate::spans::Tracer;
use crate::util::{mean, median};
use crate::workload::{Mix, Op, OpStream, Query, Rng, Workload, WRITE_BATCH};

/// Ops replayed layer by layer.
pub const REPLAY_OPS: usize = 200;
/// Of those, how many are also sent over a real connection: each costs
/// three wire round trips, which at the baseline is a quarter second.
const TWIN_OPS: usize = 30;
/// Batches per op pushed through the codec and framing probes.
const CODEC_BATCHES: usize = 2;

/// Sums over the replayed ops; they repeat bit for bit for a seed.
#[derive(Default)]
struct Counts {
    work_units: u64,
    rows_scanned: u64,
    hash_probes: u64,
    mask_batches: u64,
    rules_fired: u64,
    spill_bytes: u64,
    result_rows: u64,
    wire_chunks: u64,
    wire_queries: u64,
}

pub struct LayerReport {
    /// `(metric name, value)`; units are fixed in `main`'s metric table.
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
}

/// Per-family operator time, inclusive of children as `OpStats::timing`
/// is, in nanoseconds. Exchanges have no family: the engine does not
/// instrument them, so no `Stats::operators` entry carries their label.
#[derive(Default)]
struct OpFamilies {
    scan: u64,
    join: u64,
    nest: u64,
}

impl OpFamilies {
    fn absorb(&mut self, stats: &Stats) {
        for op in &stats.operators {
            let ns = op.timing.total_ns();
            let l = op.op.as_str();
            let nesting = ["Nest", "PNHL", "Assemble", "Unnest", "Flatten"];
            if l.starts_with("Scan(") {
                self.scan += ns;
            } else if nesting.iter().any(|n| l.contains(n)) {
                self.nest += ns;
            } else if l.contains("Join") {
                self.join += ns;
            }
        }
    }
}

struct Replay<'a> {
    tracer: Tracer,
    counts: Counts,
    families: OpFamilies,
    first_chunk_us: Vec<f64>,
    engine_first_chunk_us: Vec<f64>,
    joinorder_us: f64,
    chunk_bytes: u64,
    chunk_rows: u64,
    wire_bytes: u64,
    wire_rows: u64,
    overhead_us: Vec<f64>,
    reads: usize,
    twin: Option<Twin<'a>>,
}

/// The real connection and the in-process session on the same caches.
struct Twin<'a> {
    client: wire::WireClient<std::net::TcpStream>,
    session: Session<'a, 'a>,
    tag: u32,
    left: usize,
}

pub fn replay(workload: &Workload, seed: u64) -> Result<LayerReport, String> {
    let mut times = SetupTimes::default();
    let mut db = build_db(seed, crate::workload::SCALE, &mut times);
    let info = db_info(&db);
    let config = server_config();
    let shared = ServerShared::new(&config);

    // The wire twin serves a copy, so the replayed writes never reach it.
    let wire_db = Arc::new(db.clone());
    let handle = net::serve(Arc::clone(&wire_db), config.clone(), "127.0.0.1:0")
        .map_err(|e| e.to_string())?;
    let mut connect_ms = Vec::new();
    let mut client = None;
    for _ in 0..3 {
        let t = Instant::now();
        client = Some(connect_ready(handle.addr())?);
        connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let twin_server = QueryServer::with_shared(&wire_db, config.clone(), handle.shared());

    let mut stream = OpStream::new(workload.mix, seed, 0, info);
    let warm = stream.warm_up_ops();
    {
        let server = QueryServer::with_shared(&db, config.clone(), Arc::clone(&shared));
        let session = server.session();
        for (_, q) in &warm {
            read_in_process(&session, q, false)?;
        }
    }
    let mut ops: Vec<Op> = (0..REPLAY_OPS).map(|_| stream.next_op()).collect();
    if workload.mix != Mix::WriteCycle {
        // The write probe: no reads follow it, so it prices the write
        // path without touching the read attribution.
        ops.extend([Op::Write, Op::Write]);
    }

    let mut r = Replay {
        tracer: Tracer::new(),
        counts: Counts::default(),
        families: OpFamilies::default(),
        first_chunk_us: Vec::new(),
        engine_first_chunk_us: Vec::new(),
        joinorder_us: 0.0,
        chunk_bytes: 0,
        chunk_rows: 0,
        wire_bytes: 0,
        wire_rows: 0,
        overhead_us: Vec::new(),
        reads: 0,
        twin: Some(Twin {
            client: client.expect("three connects succeeded"),
            session: twin_server.session(),
            tag: 0,
            left: TWIN_OPS,
        }),
    };
    let mut rng = Rng::new(seed ^ 0x005E_ED0F);
    let mut i = 0;
    let mut writes = 0usize;
    loop {
        // One server lifetime: from here to the next write.
        let stats = r.tracer.leaf("catalog.collect_stats", None, i as u32, || {
            CatalogStats::from_database(&db)
        });
        let server = r.tracer.leaf("server.rebuild", None, i as u32, || {
            QueryServer::with_shared(&db, config.clone(), Arc::clone(&shared))
        });
        let session = server.session();
        while let Some(Op::Read { query, .. }) = ops.get(i) {
            r.read(&db, &stats, &session, query, i as u32)?;
            i += 1;
        }
        drop(server);
        if i == ops.len() {
            break;
        }
        r.tracer.leaf("catalog.insert", None, i as u32, || {
            apply_write(&mut db, &mut rng)
        })?;
        writes += 1;
        i += 1;
    }
    r.twin = None;
    handle.shutdown();

    let render_us: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(shared.render_metrics());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    let t = &r.tracer;
    let n = r.reads.max(1) as f64;
    let per_read_us = |name: &str| t.total_ns(name) as f64 / 1e3 / n;
    let layer_sum: f64 = [
        "oosql.parse",
        "oosql.typecheck",
        "translate.translate",
        "adl.normal_key",
        "core.rewrite",
        "engine.plan",
        "engine.exec",
    ]
    .iter()
    .map(|l| per_read_us(l))
    .sum();
    let c = &r.counts;
    let metrics = vec![
        ("oosql.parse_us", per_read_us("oosql.parse")),
        ("oosql.typecheck_us", per_read_us("oosql.typecheck")),
        ("translate.translate_us", per_read_us("translate.translate")),
        ("adl.normal_key_us", per_read_us("adl.normal_key")),
        ("core.rewrite_us", per_read_us("core.rewrite")),
        ("core.rules_fired", c.rules_fired as f64),
        ("engine.plan_us", per_read_us("engine.plan")),
        ("engine.joinorder_us", r.joinorder_us / n),
        ("engine.exec_us", per_read_us("engine.exec")),
        ("engine.first_chunk_us", mean(&r.engine_first_chunk_us)),
        ("engine.op_ms.scan", r.families.scan as f64 / 1e6),
        ("engine.op_ms.join", r.families.join as f64 / 1e6),
        ("engine.op_ms.nest", r.families.nest as f64 / 1e6),
        ("engine.work_units", c.work_units as f64),
        ("engine.rows_scanned", c.rows_scanned as f64),
        ("engine.hash_probes", c.hash_probes as f64),
        ("engine.mask_batches", c.mask_batches as f64),
        (
            "engine.rows_per_result",
            c.rows_scanned as f64 / c.result_rows.max(1) as f64,
        ),
        ("spill.bytes", c.spill_bytes as f64),
        (
            "spill.budget_high_water_bytes",
            shared.budget_pool().high_water() as f64,
        ),
        (
            "value.encode_chunk_us",
            mean(&t.durations_us("value.encode_chunk")),
        ),
        (
            "value.decode_chunk_us",
            mean(&t.durations_us("value.decode_chunk")),
        ),
        (
            "value.chunk_bytes_per_row",
            r.chunk_bytes as f64 / r.chunk_rows.max(1) as f64,
        ),
        (
            "wire.frame_write_us",
            mean(&t.durations_us("wire.frame_write")),
        ),
        (
            "wire.frame_read_us",
            mean(&t.durations_us("wire.frame_read")),
        ),
        (
            "net.chunks_per_query",
            c.wire_chunks as f64 / c.wire_queries.max(1) as f64,
        ),
        (
            "net.bytes_per_row",
            r.wire_bytes as f64 / r.wire_rows.max(1) as f64,
        ),
        ("net.roundtrip_overhead_us", median(&r.overhead_us)),
        ("net.connect_ready_ms", median(&connect_ms)),
        ("server.session_us", per_read_us("server.session")),
        (
            "server.overhead_us",
            per_read_us("server.session") - layer_sum,
        ),
        ("server.first_chunk_us", mean(&r.first_chunk_us)),
        ("server.replay_us", mean(&t.durations_us("server.replay"))),
        ("server.rebuild_us", mean(&t.durations_us("server.rebuild"))),
        (
            "catalog.collect_stats_ms",
            mean(&t.durations_us("catalog.collect_stats")) / 1e3,
        ),
        (
            "catalog.insert_us",
            t.total_ns("catalog.insert") as f64 / 1e3 / (writes * WRITE_BATCH).max(1) as f64,
        ),
        ("catalog.create_index_ms", times.create_index_ms),
        ("datagen.generate_ms", times.generate_ms),
        (
            "obs.server_latency_p50_ms",
            bucket_quantile_us(&shared.latency_histogram().cumulative_buckets(), 0.5) / 1e3,
        ),
        ("obs.render_metrics_us", median(&render_us)),
    ];
    Ok(LayerReport {
        metrics,
        tracer: r.tracer,
    })
}

/// The `q`-quantile of a histogram given as `(upper bound, cumulative
/// count)` buckets, placed inside its bucket in proportion to its rank
/// (as Prometheus' `histogram_quantile` does): the server's own bucket
/// bound would read the same on every run.
fn bucket_quantile_us(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total = buckets.last().map_or(0, |b| b.1);
    let rank = q * total as f64;
    let (mut lower, mut below) = (0u64, 0u64);
    for &(upper, cumulative) in buckets {
        if cumulative > below && cumulative as f64 >= rank {
            let inside = (rank - below as f64) / (cumulative - below) as f64;
            return lower as f64 + inside * (upper - lower) as f64;
        }
        (lower, below) = (upper, cumulative);
    }
    0.0
}

impl Replay<'_> {
    fn read(
        &mut self,
        db: &Database,
        stats: &CatalogStats,
        session: &Session<'_, '_>,
        query: &Query,
        id: u32,
    ) -> Result<(), String> {
        self.reads += 1;
        let op = self.tracer.open("op", None, id);
        let parent = Some(op);

        // (1) The real serving path, batches kept for the codec probes.
        let span = self.tracer.open("server.session", parent, id);
        let t_open = Instant::now();
        let mut cursor = open_cursor(session, query)?;
        let t_opened = Instant::now();
        let mut batches: Vec<Batch> = Vec::new();
        while let Some(batch) = cursor.next_chunk().map_err(|e| e.to_string())? {
            if batches.is_empty() {
                self.first_chunk_us
                    .push(t_open.elapsed().as_secs_f64() * 1e6);
            }
            batches.push(batch);
        }
        self.tracer.close(span);
        let (plan_hit, result_hit) = (cursor.plan_hit(), cursor.result_hit());
        drop(cursor);
        if result_hit {
            let (from, to) = (self.tracer.at(t_opened), self.tracer.spans[span].end_ns);
            self.tracer.push("server.replay", parent, id, from, to);
        } else {
            // What a hit on this very result costs: run it again.
            let again = read_in_process(session, query, false)?;
            if again.result_hit {
                let t0 = self.tracer.at(again.start);
                let (from, to) = (t0 + again.opened_ns, t0 + again.latency_ns);
                self.tracer.push("server.replay", parent, id, from, to);
            }
        }

        // (2) The layers the server had to run for this op.
        let tr = &mut self.tracer;
        let catalog = db.catalog();
        let nested = match &query.adl {
            Some(expr) => expr.clone(),
            None => {
                let ast = tr
                    .leaf("oosql.parse", parent, id, || oodb_oosql::parse(&query.text))
                    .map_err(|e| e.to_string())?;
                tr.leaf("oosql.typecheck", parent, id, || {
                    oodb_oosql::typecheck(&ast, catalog)
                })
                .map_err(|e| e.to_string())?;
                tr.leaf("translate.translate", parent, id, || {
                    oodb_translate::translate(&ast, catalog)
                })
                .map_err(|e| e.to_string())?
            }
        };
        std::hint::black_box(tr.leaf("adl.normal_key", parent, id, || {
            oodb_adl::normal_key(&nested)
        }));
        if !result_hit {
            // Planning is needed to execute; it is only recorded when
            // the server had to plan too.
            let config = server_config().planner;
            let started = Instant::now();
            let optimized = Optimizer::default()
                .optimize(&nested, catalog)
                .map_err(|e| e.to_string())?;
            let rewritten = Instant::now();
            let plan = Planner::with_stats(db, config.clone(), stats.clone())
                .plan(&optimized.expr)
                .map_err(|e| e.to_string())?;
            let planned = Instant::now();
            if !plan_hit {
                let (a, b, c) = (tr.at(started), tr.at(rewritten), tr.at(planned));
                tr.push("core.rewrite", parent, id, a, b);
                tr.push("engine.plan", parent, id, b, c);
                self.counts.rules_fired += optimized.trace.len() as u64;
                self.joinorder_us += plan.joinorder_micros() as f64;
            }
            let budget = match config.memory_budget {
                0 => MemoryBudget::unbounded(),
                bytes => MemoryBudget::bytes(bytes),
            };
            let span = tr.open("engine.exec", parent, id);
            let t = Instant::now();
            let mut rs = ResultStream::new(
                &plan.phys,
                db,
                budget,
                config.batch_kind,
                config.vectorize,
                config.timing,
            );
            let mut rows = 0u64;
            let mut first = true;
            while let Some(batch) = rs.next_chunk().map_err(|e| e.to_string())? {
                if std::mem::take(&mut first) {
                    self.engine_first_chunk_us
                        .push(t.elapsed().as_secs_f64() * 1e6);
                }
                rows += batch.len() as u64;
            }
            tr.close(span);
            let s = rs.stats();
            self.counts.work_units += s.work();
            self.counts.rows_scanned += s.rows_scanned;
            self.counts.hash_probes += s.hash_probes;
            self.counts.mask_batches += s.mask_batches;
            self.counts.spill_bytes += s.spill_bytes;
            self.counts.result_rows += rows;
            self.families.absorb(s);
        }

        // (3) The captured batches through the chunk codec and framing.
        let mut body = Vec::new();
        let mut framed = Vec::new();
        for batch in batches.iter().take(CODEC_BATCHES) {
            body.clear();
            tr.leaf("value.encode_chunk", parent, id, || {
                wire::encode_chunk(batch, &mut body)
            });
            let decoded = tr
                .leaf("value.decode_chunk", parent, id, || {
                    wire::decode_chunk(&body)
                })
                .map_err(|e| e.to_string())?;
            self.chunk_bytes += body.len() as u64;
            self.chunk_rows += decoded.len() as u64;
            framed.clear();
            tr.leaf("wire.frame_write", parent, id, || {
                wire::write_frame(&mut framed, id, wire::kind::CHUNK, &body)
            })
            .map_err(|e| e.to_string())?;
            tr.leaf("wire.frame_read", parent, id, || {
                wire::read_frame(&mut framed.as_slice(), wire::MAX_RESPONSE_LEN)
            })
            .map_err(|e| e.to_string())?;
        }

        // (4) The transport twin, hit against hit on one set of caches.
        if let (Some(twin), None) = (&mut self.twin, &query.adl) {
            if twin.left > 0 {
                twin.left -= 1;
                twin.tag += 2;
                read_wire(&mut twin.client, twin.tag, query, false)?;
                let over = read_wire(&mut twin.client, twin.tag + 1, query, false)?;
                let local = read_in_process(&twin.session, query, false)?;
                for (name, out) in [("net.roundtrip", &over), ("net.twin_in_process", &local)] {
                    let from = tr.at(out.start);
                    tr.push(name, parent, id, from, from + out.latency_ns);
                }
                self.overhead_us
                    .push((over.latency_ns as f64 - local.latency_ns as f64) / 1e3);
                self.counts.wire_chunks += over.chunks;
                self.counts.wire_queries += 1;
                self.wire_bytes += over.bytes;
                self.wire_rows += over.rows;
            }
        }
        self.tracer.close(op);
        Ok(())
    }
}
