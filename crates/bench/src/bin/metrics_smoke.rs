//! CI smoke check for the server metrics layer.
//!
//! Boots a TCP server on a generated database, runs a handful of
//! queries (including one EXPLAIN ANALYZE and one deliberate error),
//! then prints the `METRICS` payload — Prometheus text exposition — to
//! stdout so the CI step can grep the metric families it expects.
//! Exits non-zero if any protocol step fails.

use std::sync::Arc;

use oodb_datagen::{generate, GenConfig};
use oodb_server::wire::{verb, WireClient};
use oodb_server::{net, ServerConfig};

const QUERIES: [&str; 3] = [
    "select d from d in DELIVERY where exists x in d.supply : x.part.color = \"red\"",
    "select s.sname from s in SUPPLIER where exists x in s.parts : \
     exists p in PART : x = p.pid and p.color = \"red\"",
    "select p.pname from p in PART where p.color = \"red\"",
];

fn main() {
    let db = Arc::new(generate(&GenConfig::scaled(300)));
    let handle =
        net::serve(db, ServerConfig::default(), "127.0.0.1:0").expect("bind metrics-smoke server");
    let mut client = WireClient::connect(handle.addr()).expect("connect");

    for (tag, q) in (1u32..).zip(QUERIES) {
        let resp = client.query(tag, q).expect("QUERY round trip");
        assert!(resp.is_ok(), "QUERY failed: {:?}", resp.err());
    }
    // One analyzed query (exercises the diagnostic path) and one error
    // (exercises oodb_query_errors_total).
    let analyzed = client
        .text_request(10, verb::ANALYZE, QUERIES[0])
        .expect("ANALYZE round trip")
        .unwrap_or_else(|(code, msg)| panic!("ANALYZE failed: {code} {msg}"));
    assert!(
        analyzed.contains("actual_rows="),
        "analyzed plan carries no actuals"
    );
    let resp = client
        .query(11, "select x from x in NO_SUCH_CLASS")
        .expect("error round trip");
    assert!(resp.is_err(), "expected an ERROR frame, got {resp:?}");

    let metrics = client
        .text_request(12, verb::METRICS, "")
        .expect("METRICS round trip")
        .unwrap_or_else(|(code, msg)| panic!("METRICS failed: {code} {msg}"));
    print!("{metrics}");
    client.send(13, verb::QUIT, &[]).expect("send QUIT");
    handle.shutdown();
}
