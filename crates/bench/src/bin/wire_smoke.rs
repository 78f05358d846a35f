//! CI smoke check for the wire protocol.
//!
//! Boots a TCP server on a generated database, then
//! **pipelines** four tagged `QUERY` requests plus an `ANALYZE` in one
//! send burst before reading anything — the protocol's core promises
//! (tag-correct routing, streamed chunks that decode to exactly the
//! library result, END totals that match what arrived) are all asserted
//! on the way back. Every CHUNK body, live or cached, must be one row
//! block of the value codec: `codec::decode_rows` must read from it the
//! rows `wire::decode_chunk` returns, so a second chunk encoding fails
//! here. Two repeats of one query must be result-cache hits that send
//! identical CHUNK bytes, counted by `oodb_wire_cached_chunks_total`. A
//! deliberate error and a `METRICS` request at the end make the
//! error-code and uniform-verb paths part of the smoke.
//! Exits non-zero if any step fails.

use std::net::TcpStream;
use std::sync::Arc;

use oodb_datagen::{generate, GenConfig};
use oodb_server::wire::{self, verb, WireClient};
use oodb_server::{net, ErrorCode, ServerConfig};
use oodb_value::{codec, Set, Value};

const QUERIES: [&str; 4] = [
    "select d from d in DELIVERY where exists x in d.supply : x.part.color = \"red\"",
    "select s.sname from s in SUPPLIER where exists x in s.parts : \
     exists p in PART : x = p.pid and p.color = \"red\"",
    "select p.pname from p in PART where p.color = \"red\"",
    "select s.eid from s in SUPPLIER \
     where exists x in s.parts : not (exists p in PART : x = p.pid)",
];

/// The rows of one CHUNK body, which must be exactly one row block of
/// the value codec.
fn chunk_rows(body: &[u8]) -> Vec<Value> {
    let rows = wire::decode_chunk(body).expect("decode CHUNK");
    let block = codec::decode_rows(body).expect("CHUNK body is not a row block");
    assert_eq!(block, rows, "the row codec reads other rows from a CHUNK");
    rows
}

/// One QUERY response, frame by frame: the HEADER flags and the raw
/// CHUNK bodies, checked against the END totals.
fn read_chunk_bodies(client: &mut WireClient<TcpStream>, tag: u32) -> (u8, Vec<Vec<u8>>) {
    let mut flags = None;
    let mut bodies = Vec::new();
    loop {
        let frame = client
            .read_frame()
            .expect("read frame")
            .expect("server hung up mid-stream");
        assert_eq!(frame.tag, tag, "frame for another request");
        match frame.kind {
            wire::kind::HEADER => flags = Some(frame.body[0]),
            wire::kind::CHUNK => bodies.push(frame.body),
            wire::kind::END => {
                let (rows, chunks) = wire::decode_end(&frame.body).expect("decode END");
                assert_eq!(chunks, bodies.len() as u64, "END chunk total");
                let received: usize = bodies.iter().map(|b| chunk_rows(b).len()).sum();
                assert_eq!(rows, received as u64, "END row total");
                return (flags.expect("HEADER before END"), bodies);
            }
            wire::kind::ERROR => {
                let (code, msg) = wire::decode_error(&frame.body).expect("decode ERROR");
                panic!("request {tag} failed: {code} {msg}");
            }
            other => panic!("request {tag}: unexpected frame kind {other}"),
        }
    }
}

/// Sends one QUERY and reads its response ([`read_chunk_bodies`]).
fn chunk_bodies(client: &mut WireClient<TcpStream>, tag: u32, text: &str) -> (u8, Vec<Vec<u8>>) {
    client
        .send(tag, verb::QUERY, text.as_bytes())
        .expect("send QUERY");
    read_chunk_bodies(client, tag)
}

fn main() {
    let db = Arc::new(generate(&GenConfig::scaled(300)));
    let handle = net::serve(Arc::clone(&db), ServerConfig::default(), "127.0.0.1:0")
        .expect("bind wire-smoke server");

    let mut client = WireClient::connect(handle.addr()).expect("connect");

    // Pipelined burst: four QUERYs and an ANALYZE, no reads in between.
    for (i, q) in QUERIES.iter().enumerate() {
        client
            .send(10 + i as u32, verb::QUERY, q.as_bytes())
            .expect("pipeline QUERY");
    }
    client
        .send(99, verb::ANALYZE, QUERIES[0].as_bytes())
        .expect("pipeline ANALYZE");

    // Responses come back in request order, each echoing its tag.
    let mut results = Vec::new();
    for i in 0..QUERIES.len() {
        let (flags, bodies) = read_chunk_bodies(&mut client, 10 + i as u32);
        let rows: Vec<Value> = bodies.iter().flat_map(|b| chunk_rows(b)).collect();
        assert_eq!(
            flags & wire::flags::SCALAR,
            0,
            "workload queries are set-valued"
        );
        results.push(Value::Set(Set::from_values(rows)).to_string());
    }
    let analyzed = client
        .read_text_response(99)
        .expect("read ANALYZE response")
        .unwrap_or_else(|(code, msg)| panic!("ANALYZE failed: {code} {msg}"));
    assert!(
        analyzed.contains("actual_rows="),
        "analyzed plan carries no actuals"
    );

    // A repeat of query 0 must hit the shared caches and return the
    // same rows; a second repeat must send the first hit's CHUNK bodies
    // byte for byte (both are the cached entry's stored encoding).
    let (flags, first_hit) = chunk_bodies(&mut client, 500, QUERIES[0]);
    assert_ne!(flags & wire::flags::PLAN_HIT, 0, "repeat missed plan cache");
    assert_ne!(
        flags & wire::flags::RESULT_HIT,
        0,
        "repeat missed result cache"
    );
    let rows: Vec<Value> = first_hit.iter().flat_map(|b| chunk_rows(b)).collect();
    assert_eq!(
        Value::Set(Set::from_values(rows)).to_string(),
        results[0],
        "cached repeat diverged"
    );
    let (_, second_hit) = chunk_bodies(&mut client, 501, QUERIES[0]);
    assert_eq!(
        second_hit, first_hit,
        "repeated hits sent different CHUNK bytes"
    );

    // A deliberate error carries its stable code.
    let (code, msg) = client
        .query(600, "select x from x in NO_SUCH_CLASS")
        .expect("error round trip")
        .expect_err("bogus query must fail");
    assert_eq!(
        ErrorCode::from_u16(code),
        Some(ErrorCode::Type),
        "unexpected code {code}: {msg}"
    );

    // METRICS over the uniform frame shape; print for the CI grep.
    let metrics = client
        .text_request(700, verb::METRICS, "")
        .expect("metrics round trip")
        .expect("metrics errored");
    assert!(
        metrics.contains("oodb_streamed_chunks_total"),
        "streaming counters missing from metrics"
    );
    let cached_chunks: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("oodb_wire_cached_chunks_total "))
        .expect("oodb_wire_cached_chunks_total missing from metrics")
        .parse()
        .expect("counter value");
    assert!(cached_chunks > 0, "result hits sent no cached chunk");
    println!("{metrics}");

    client.send(999, verb::QUIT, &[]).expect("send QUIT");
    let bye = client
        .read_frame()
        .expect("read BYE")
        .expect("server hung up before BYE");
    assert_eq!((bye.tag, bye.kind), (999, wire::kind::BYE));
    drop(client);
    handle.shutdown();
    println!(
        "wire-smoke: ok ({} pipelined queries + ANALYZE)",
        QUERIES.len()
    );
}
