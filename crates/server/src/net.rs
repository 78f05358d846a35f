//! TCP transport over [`QueryServer`]: the binary frame protocol of
//! [`crate::wire`].
//!
//! One thread per connection, every connection sharing one
//! [`ServerShared`] (caches + global admission pool) — the network layer
//! adds transport, not semantics; everything interesting stays testable
//! through the in-process API.
//!
//! Every request is a tagged frame `(u32 len, u32 tag, u8 verb, body)`;
//! every response frame echoes the request's tag, so clients may
//! **pipeline** requests. A `QUERY` answer **streams**: HEADER, then one
//! CHUNK per pipeline batch — each encoded and flushed the moment the
//! operator tree yields it, so the first chunk reaches the client while
//! the pipeline is still running — then END with row/chunk totals.
//! HEADER is not flushed on its own: it leaves in the same write as the
//! first CHUNK (or as END or ERROR when there is none). Every flush is
//! one `write_all` of whole frames, and accepted sockets set
//! `TCP_NODELAY`, so no frame waits on Nagle's algorithm for the
//! client's delayed ACK.
//! `EXPLAIN`/`ANALYZE`/`STATS`/`METRICS`/`TRACE` answer with one TEXT
//! frame; `QUIT` with BYE. Failures are ERROR frames carrying a stable
//! [`ErrorCode`] + message; a malformed frame is
//! answered with an ERROR (tag 0) and the connection closed, since
//! framing can no longer be trusted. Request frames are capped at
//! [`wire::MAX_REQUEST_LEN`].
//!
//! `STATS` answers two space-separated `key=value` lines:
//!
//! 1. **server-wide** serving-layer counters —
//!    `plan_hits= plan_misses= plan_invalidations= result_hits=
//!    result_misses= budget_high_water= pool_in_use= pool_waiting=`;
//! 2. **this connection's** accumulated execution counters across its
//!    successful `QUERY`s — `work= rows_scanned= loop_iterations=
//!    predicate_evals= hash_build_rows= hash_probes= partitions=
//!    oid_lookups= index_probes= mask_batches= spill_bytes=
//!    output_rows= plan_cache_hits= result_cache_hits=`.
//!
//! `METRICS` answers the metrics registry in Prometheus text exposition
//! format; `TRACE` the recent + slow query-phase span trees (indented
//! lines).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use oodb_catalog::Database;
use oodb_engine::Stats;

use crate::wire::{self, kind, verb};
use crate::{ErrorCode, QueryServer, ServerConfig, ServerShared};

/// Handle on a listening server; dropping it (or calling
/// [`ServeHandle::shutdown`]) stops the accept loop and joins every
/// connection thread.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<ServerShared>,
}

impl ServeHandle {
    /// The bound address (bind to port `0` and read the real port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cache/admission state every connection shares.
    pub fn shared(&self) -> Arc<ServerShared> {
        Arc::clone(&self.shared)
    }

    /// Stops accepting, waits for in-flight connections to finish.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `db` until the
/// returned handle is shut down. The database is shared immutably —
/// this protocol is read-only by design (writes go through whoever owns
/// the `Database`, between server lifetimes).
pub fn serve(db: Arc<Database>, config: ServerConfig, addr: &str) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let shared = ServerShared::new(&config);
    let accept = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("oodb-accept".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Reap finished connections so the handle list
                    // tracks live connections, not every one ever made.
                    conns.retain(|c| !c.is_finished());
                    let Ok(stream) = stream else { continue };
                    let db = Arc::clone(&db);
                    let config = config.clone();
                    let conn_shared = Arc::clone(&shared);
                    let spawned =
                        std::thread::Builder::new()
                            .name("oodb-conn".into())
                            .spawn(move || {
                                let server = QueryServer::with_shared(&db, config, conn_shared);
                                let _ = handle_connection(stream, &server);
                            });
                    match spawned {
                        Ok(conn) => conns.push(conn),
                        // Out of threads: the closure (and with it the
                        // socket) is dropped, which hangs up on this one
                        // client; the listener keeps serving.
                        Err(_) => shared.metrics.connections_refused.inc(),
                    }
                }
                for conn in conns {
                    let _ = conn.join();
                }
            })?
    };
    Ok(ServeHandle {
        addr: local,
        stop,
        accept: Some(accept),
        shared,
    })
}

/// Renders the two STATS `key=value` lines.
fn render_stats(server: &QueryServer<'_>, acc: &Stats) -> String {
    let shared = server.shared();
    let m = shared.metrics();
    let pool = shared.budget_pool();
    format!(
        "plan_hits={} plan_misses={} plan_invalidations={} \
         result_hits={} result_misses={} budget_high_water={} \
         pool_in_use={} pool_waiting={}\n\
         work={} rows_scanned={} loop_iterations={} predicate_evals={} \
         hash_build_rows={} hash_probes={} partitions={} oid_lookups={} \
         index_probes={} mask_batches={} spill_bytes={} output_rows={} \
         plan_cache_hits={} result_cache_hits={}",
        m.plan_hits,
        m.plan_misses,
        m.plan_invalidations,
        m.result_hits,
        m.result_misses,
        pool.high_water(),
        pool.in_use(),
        pool.waiting(),
        acc.work(),
        acc.rows_scanned,
        acc.loop_iterations,
        acc.predicate_evals,
        acc.hash_build_rows,
        acc.hash_probes,
        acc.partitions,
        acc.oid_lookups,
        acc.index_probes,
        acc.mask_batches,
        acc.spill_bytes,
        acc.output_rows,
        acc.plan_cache_hits,
        acc.result_cache_hits,
    )
}

/// Renders the recent + slow trace listing.
fn render_traces(server: &QueryServer<'_>) -> String {
    let shared = server.shared();
    let mut out = String::new();
    for t in shared.traces().recent() {
        for l in t.render().lines() {
            out.push(' ');
            out.push_str(l);
            out.push('\n');
        }
    }
    let slow = shared.traces().slow();
    if !slow.is_empty() {
        out.push_str(" slow:\n");
        for t in slow {
            for l in t.render().lines() {
                out.push_str("  ");
                out.push_str(l);
                out.push('\n');
            }
        }
    }
    out
}

/// A connection's outgoing side. Response frames are staged in one
/// buffer and leave in a single `write_all` at each [`Outbox::flush`],
/// so a frame — or a HEADER staged ahead of its first CHUNK — never
/// straddles two writes.
struct Outbox {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Outbox {
    /// Stages one frame without sending it.
    fn stage(&mut self, tag: u32, kind: u8, body: &[u8]) {
        wire::push_frame(&mut self.buf, tag, kind, |out| out.extend_from_slice(body));
    }

    /// Stages one frame and sends everything staged.
    fn send(&mut self, tag: u32, kind: u8, body: &[u8]) -> std::io::Result<()> {
        self.stage(tag, kind, body);
        self.flush()
    }

    /// Sends an ERROR frame for `code` and `message`.
    fn send_error(&mut self, tag: u32, code: u16, message: &str) -> std::io::Result<()> {
        self.send(tag, kind::ERROR, &wire::encode_error(code, message))
    }

    /// Writes everything staged in one call.
    fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.stream.write_all(&self.buf);
        self.buf.clear();
        sent
    }
}

/// One connection: read tagged request frames in order, answer each
/// with tag-echoing response frames. Pipelining falls out of processing
/// requests sequentially while the client is free to send ahead.
fn handle_connection(stream: TcpStream, server: &QueryServer<'_>) -> std::io::Result<()> {
    // Every flush is a complete answer or a chunk the client is waiting
    // for; Nagle's algorithm would only hold it back.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = Outbox {
        stream,
        buf: Vec::new(),
    };
    let session = server.session();
    let shared = server.shared();
    // This connection's execution counters, accumulated across its
    // successful QUERYs for the second STATS line. Only the scalar
    // counters matter here, so the per-operator entries each merge
    // brings along are dropped to keep long connections bounded.
    let mut acc = Stats::default();
    loop {
        let frame = match wire::read_frame(&mut reader, wire::MAX_REQUEST_LEN) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary: client hung up.
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Framing is broken — after a bad length prefix nothing
                // downstream can be trusted. Report and hang up.
                return out.send_error(0, ErrorCode::Malformed.as_u16(), &e.to_string());
            }
            // EOF mid-frame (or a transport error): nothing to answer.
            Err(_) => return Ok(()),
        };
        let tag = frame.tag;
        // Every current verb carries UTF-8 text (possibly empty).
        let text = match std::str::from_utf8(&frame.body) {
            Ok(t) => t.trim(),
            Err(e) => {
                out.send_error(
                    tag,
                    ErrorCode::Malformed.as_u16(),
                    &format!("request body is not utf-8: {e}"),
                )?;
                continue;
            }
        };
        match frame.kind {
            verb::QUIT => {
                out.send(tag, kind::BYE, &[])?;
                return Ok(());
            }
            verb::QUERY => match session.open_stream(text) {
                Ok(mut cursor) => {
                    let mut flag_bits = 0u8;
                    if cursor.scalar() {
                        flag_bits |= wire::flags::SCALAR;
                    }
                    if cursor.plan_hit() {
                        flag_bits |= wire::flags::PLAN_HIT;
                    }
                    if cursor.result_hit() {
                        flag_bits |= wire::flags::RESULT_HIT;
                    }
                    // HEADER waits for the first CHUNK (or END/ERROR) so
                    // both leave in one write.
                    out.stage(tag, kind::HEADER, &[flag_bits]);
                    loop {
                        match cursor.next_chunk() {
                            Ok(Some(batch)) => {
                                let len = wire::push_frame(&mut out.buf, tag, kind::CHUNK, |b| {
                                    wire::encode_chunk(&batch, b)
                                });
                                shared.metrics.streamed_bytes.add(len as u64);
                                // Flush per chunk: the client must see
                                // the first one while the pipeline is
                                // still producing.
                                out.flush()?;
                            }
                            Ok(None) => {
                                acc.merge(cursor.stats());
                                acc.operators.clear();
                                let end = wire::encode_end(
                                    cursor.rows_streamed(),
                                    cursor.chunks_streamed(),
                                );
                                out.send(tag, kind::END, &end)?;
                                break;
                            }
                            Err(e) => {
                                // Mid-stream failure: the ERROR frame
                                // terminates this tag's stream; the
                                // connection stays usable.
                                out.send_error(tag, e.code().as_u16(), &e.to_string())?;
                                break;
                            }
                        }
                    }
                }
                Err(e) => out.send_error(tag, e.code().as_u16(), &e.to_string())?,
            },
            verb::EXPLAIN => match session.open_stream(text) {
                Ok(mut cursor) => {
                    // EXPLAIN executes but answers with the plan text
                    // only; drain so caches, traces and the admission
                    // grant settle normally.
                    let outcome = loop {
                        match cursor.next_chunk() {
                            Ok(Some(_)) => {}
                            Ok(None) => break Ok(()),
                            Err(e) => break Err(e),
                        }
                    };
                    match outcome {
                        Ok(()) => {
                            acc.merge(cursor.stats());
                            acc.operators.clear();
                            out.send(tag, kind::TEXT, cursor.explain().as_bytes())?;
                        }
                        Err(e) => out.send_error(tag, e.code().as_u16(), &e.to_string())?,
                    }
                }
                Err(e) => out.send_error(tag, e.code().as_u16(), &e.to_string())?,
            },
            verb::ANALYZE => match session.analyze(text) {
                Ok((analyzed, stats)) => {
                    acc.merge(&stats);
                    acc.operators.clear();
                    out.send(tag, kind::TEXT, analyzed.text.as_bytes())?;
                }
                Err(e) => out.send_error(tag, e.code().as_u16(), &e.to_string())?,
            },
            verb::STATS => out.send(tag, kind::TEXT, render_stats(server, &acc).as_bytes())?,
            verb::METRICS => {
                out.send(tag, kind::TEXT, server.shared().render_metrics().as_bytes())?
            }
            verb::TRACE => out.send(tag, kind::TEXT, render_traces(server).as_bytes())?,
            other => out.send_error(
                tag,
                ErrorCode::UnknownVerb.as_u16(),
                &format!("unknown request verb {other}"),
            )?,
        }
    }
}
