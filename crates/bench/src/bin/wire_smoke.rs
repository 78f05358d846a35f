//! CI smoke check for the wire protocol.
//!
//! Boots a TCP server on a generated database, then
//! **pipelines** four tagged `QUERY` requests plus an `ANALYZE` in one
//! send burst before reading anything — the protocol's core promises
//! (tag-correct routing, streamed chunks that decode to exactly the
//! library result, END totals that match what arrived) are all asserted
//! on the way back. A deliberate error and a `METRICS` request at the
//! end make the error-code and uniform-verb paths part of the smoke.
//! Exits non-zero if any step fails.

use std::sync::Arc;

use oodb_datagen::{generate, GenConfig};
use oodb_server::wire::{self, verb, WireClient};
use oodb_server::{net, ErrorCode, ServerConfig};
use oodb_value::{Set, Value};

const QUERIES: [&str; 4] = [
    "select d from d in DELIVERY where exists x in d.supply : x.part.color = \"red\"",
    "select s.sname from s in SUPPLIER where exists x in s.parts : \
     exists p in PART : x = p.pid and p.color = \"red\"",
    "select p.pname from p in PART where p.color = \"red\"",
    "select s.eid from s in SUPPLIER \
     where exists x in s.parts : not (exists p in PART : x = p.pid)",
];

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
    for (i, q) in QUERIES.iter().enumerate() {
        let (flags, rows) = client
            .read_query_response(10 + i as u32)
            .expect("read pipelined response")
            .unwrap_or_else(|(code, msg)| panic!("query {q:?} failed: {code} {msg}"));
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
    // same bytes.
    let (flags, rows) = client
        .query(500, QUERIES[0])
        .expect("repeat query")
        .expect("repeat query errored");
    assert_ne!(flags & wire::flags::PLAN_HIT, 0, "repeat missed plan cache");
    assert_eq!(
        Value::Set(Set::from_values(rows)).to_string(),
        results[0],
        "cached repeat diverged"
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
