//! # Length-prefixed binary frame protocol
//!
//! The wire format of the streaming TCP server. Every message — request
//! or response — is one **frame**:
//!
//! ```text
//! ┌─────────────┬─────────────┬──────────┬───────────────┐
//! │ u32 LE len  │ u32 LE tag  │ u8 kind  │ body (len-5)  │
//! └─────────────┴─────────────┴──────────┴───────────────┘
//! ```
//!
//! `len` counts everything after itself (tag + kind + body). `tag` is a
//! client-chosen request identifier; every response frame echoes the tag
//! of the request it answers, which is what makes **pipelining** safe:
//! a client may send N tagged requests without waiting, and responses —
//! processed in order — stay attributable. `kind` is a request verb
//! ([`verb`]) on the client→server direction and a response kind
//! ([`kind`]) on the way back.
//!
//! A `QUERY` answer is a *stream*: one `HEADER` frame (scalar/cache
//! flags), zero or more `CHUNK` frames — each one pipeline batch,
//! encoded the moment it is pulled from the operator tree, or on a
//! result-cache hit one `BATCH_SIZE` slice of the cached set in row
//! layout, sent from the bytes its cache entry stored when the slice was
//! first served ([`crate::cache::CachedResult::chunk_body`]) — and an
//! `END` frame carrying row/chunk totals. The server writes each frame whole
//! and holds HEADER back until the first CHUNK (or END/ERROR) is ready,
//! so both leave in one write; chunks are still flushed one by one as
//! they are encoded. A chunk body is the batch's rows as one row block
//! of the [`Value`] codec ([`codec::encode_rows`]), the format spill
//! files use too, whatever layout the batch had in the pipeline: a live
//! chunk and a cached slice of the same rows are the same bytes. Errors
//! are `ERROR` frames carrying a stable [`ErrorCode`](crate::ErrorCode)
//! `u16` plus a rendered message.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use oodb_value::{codec, Batch, Value, ValueError};

/// Request verbs (the `kind` byte of a client→server frame). The body
/// is the UTF-8 query text for `QUERY`/`EXPLAIN`/`ANALYZE` and empty for
/// the rest — one uniform frame shape for every verb.
pub mod verb {
    /// Execute a query; the response is HEADER, CHUNK*, END.
    pub const QUERY: u8 = 1;
    /// Plan only; the response is TEXT (the EXPLAIN rendering), END.
    pub const EXPLAIN: u8 = 2;
    /// Plan and execute with per-operator timing; TEXT, END.
    pub const ANALYZE: u8 = 3;
    /// Server + session statistics; TEXT.
    pub const STATS: u8 = 4;
    /// Prometheus metrics exposition; TEXT.
    pub const METRICS: u8 = 5;
    /// Recent query traces; TEXT.
    pub const TRACE: u8 = 6;
    /// Close the connection; the server answers BYE and hangs up.
    pub const QUIT: u8 = 7;
}

/// Response kinds (the `kind` byte of a server→client frame).
pub mod kind {
    /// Start of a query result stream; body is one flags byte
    /// ([`super::flags`]).
    pub const HEADER: u8 = 1;
    /// One result chunk; body is the chunk's rows as one row block
    /// ([`oodb_value::codec::encode_rows`]).
    pub const CHUNK: u8 = 2;
    /// A whole-text response (EXPLAIN/ANALYZE/STATS/METRICS/TRACE).
    pub const TEXT: u8 = 3;
    /// End of a stream; body is `u64 rows, u64 chunks` (LE).
    pub const END: u8 = 4;
    /// Failure; body is `u16 code` (LE) then the rendered message.
    pub const ERROR: u8 = 5;
    /// Acknowledges QUIT.
    pub const BYE: u8 = 6;
}

/// HEADER flag bits.
pub mod flags {
    /// The result is scalar (a single aggregate value, not a set).
    pub const SCALAR: u8 = 1;
    /// Planning was served from the plan cache.
    pub const PLAN_HIT: u8 = 1 << 1;
    /// The chunks replay a memoized result-cache value.
    pub const RESULT_HIT: u8 = 1 << 2;
}

/// Upper bound on an accepted request frame. Requests are query text;
/// anything past this is a corrupt length prefix (or a hostile client),
/// and reading it would let one connection allocate unboundedly.
pub const MAX_REQUEST_LEN: u32 = 1 << 20;

/// Upper bound a *client* accepts on a response frame — generous,
/// because chunk frames carry data, but still a guard against a corrupt
/// stream (1 GiB).
pub const MAX_RESPONSE_LEN: u32 = 1 << 30;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request identifier; responses echo the request's tag.
    pub tag: u32,
    /// Verb (requests) or response kind.
    pub kind: u8,
    /// Payload.
    pub body: Vec<u8>,
}

/// Appends one frame to `out`, letting `body` encode the payload in
/// place after the tag and kind; the length prefix is filled in once
/// the body's size is known. Returns the body's length.
pub(crate) fn push_frame(
    out: &mut Vec<u8>,
    tag: u32,
    kind: u8,
    body: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&tag.to_le_bytes());
    out.push(kind);
    body(out);
    let len = out.len() - start - 4;
    debug_assert!(len <= u32::MAX as usize);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    len - 5
}

/// Writes one frame with a single `write_all`: a frame split over
/// several writes on a socket leaves its tail to Nagle's algorithm,
/// which holds it until the peer's delayed ACK arrives. The caller
/// flushes.
pub fn write_frame(w: &mut impl Write, tag: u32, kind: u8, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + 4 + 1 + body.len());
    push_frame(&mut frame, tag, kind, |out| out.extend_from_slice(body));
    w.write_all(&frame)
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF exactly at
/// a frame boundary); EOF anywhere inside a frame is
/// [`io::ErrorKind::UnexpectedEof`], and a length prefix that is too
/// short to hold the tag and kind or exceeds `max_len` is
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read: a clean EOF before any byte is a closed
    // connection, not an error.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame length",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len < 5 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} cannot hold a tag and kind"),
        ));
    }
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max_len}-byte limit"),
        ));
    }
    let mut tag_buf = [0u8; 4];
    r.read_exact(&mut tag_buf)?;
    let mut kind_buf = [0u8; 1];
    r.read_exact(&mut kind_buf)?;
    let mut body = vec![0u8; len as usize - 5];
    r.read_exact(&mut body)?;
    Ok(Some(Frame {
        tag: u32::from_le_bytes(tag_buf),
        kind: kind_buf[0],
        body,
    }))
}

/// Encodes one pipeline batch as a CHUNK body: its rows as one row
/// block ([`codec::encode_rows`]). A row batch is encoded from the rows
/// it holds; a scan chunk view from the stored tuples it selects.
pub fn encode_chunk(batch: &Batch, out: &mut Vec<u8>) {
    codec::encode_rows(&batch.rows(), out);
}

/// Decodes a CHUNK body back to rows. Malformed input is an error, never
/// a panic or an allocation larger than the body justifies (the row
/// codec caps its preallocation by the body's size).
pub fn decode_chunk(body: &[u8]) -> Result<Vec<Value>, ValueError> {
    codec::decode_rows(body)
}

/// Encodes an END body.
pub fn encode_end(rows: u64, chunks: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&chunks.to_le_bytes());
    out
}

/// Decodes an END body to `(rows, chunks)`.
pub fn decode_end(body: &[u8]) -> Result<(u64, u64), ValueError> {
    if body.len() != 16 {
        return Err(ValueError::Codec(format!(
            "END body is {} bytes, expected 16",
            body.len()
        )));
    }
    let rows = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let chunks = u64::from_le_bytes(body[8..].try_into().expect("8 bytes"));
    Ok((rows, chunks))
}

/// Encodes an ERROR body.
pub fn encode_error(code: u16, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&code.to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes an ERROR body to `(code, message)`.
pub fn decode_error(body: &[u8]) -> Result<(u16, String), ValueError> {
    if body.len() < 2 {
        return Err(ValueError::Codec("ERROR body shorter than its code".into()));
    }
    let code = u16::from_le_bytes(body[..2].try_into().expect("2 bytes"));
    let message = std::str::from_utf8(&body[2..])
        .map_err(|e| ValueError::Codec(format!("invalid utf-8 in error message: {e}")))?
        .to_string();
    Ok((code, message))
}

/// A minimal blocking client for the binary protocol — used by the test
/// suites, the smoke binary and the benchmark harness. It exposes the
/// protocol's pipelining directly: [`WireClient::send`] queues a tagged
/// request without reading anything; [`WireClient::read_frame`] pulls
/// the next response frame, whatever request it answers.
pub struct WireClient<S: Read + Write> {
    stream: S,
}

impl WireClient<TcpStream> {
    /// Connects over TCP with `TCP_NODELAY` set, so a request — and
    /// every request pipelined behind it — leaves the moment it is sent
    /// instead of waiting for the ACK of the one before.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient::new(stream))
    }
}

impl<S: Read + Write> WireClient<S> {
    /// Wraps an established connection (a TCP one through
    /// [`WireClient::connect`], which also sets `TCP_NODELAY`).
    pub fn new(stream: S) -> Self {
        WireClient { stream }
    }

    /// Sends one tagged request frame and flushes.
    pub fn send(&mut self, tag: u32, verb: u8, body: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, tag, verb, body)?;
        self.stream.flush()
    }

    /// Sends raw bytes verbatim — the escape hatch the malformed-frame
    /// tests use to speak protocol violations.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads the next response frame; `Ok(None)` when the server closed
    /// the connection cleanly.
    pub fn read_frame(&mut self) -> io::Result<Option<Frame>> {
        read_frame(&mut self.stream, MAX_RESPONSE_LEN)
    }

    /// Drives one `QUERY` round trip to completion: sends the query,
    /// then reads its HEADER/CHUNK*/END (or ERROR) response, asserting
    /// every frame echoes `tag`. Returns the reassembled rows in arrival
    /// order plus the HEADER flags, or the error `(code, message)`.
    #[allow(clippy::type_complexity)]
    pub fn query(
        &mut self,
        tag: u32,
        text: &str,
    ) -> io::Result<Result<(u8, Vec<Value>), (u16, String)>> {
        self.send(tag, verb::QUERY, text.as_bytes())?;
        self.read_query_response(tag)
    }

    /// Reads one complete `QUERY` response for `tag` (the read half of
    /// [`WireClient::query`] — used directly when requests were
    /// pipelined ahead).
    #[allow(clippy::type_complexity)]
    pub fn read_query_response(
        &mut self,
        tag: u32,
    ) -> io::Result<Result<(u8, Vec<Value>), (u16, String)>> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut header_flags = None;
        let mut rows = Vec::new();
        let mut chunks = 0u64;
        loop {
            let frame = self
                .read_frame()?
                .ok_or_else(|| bad("connection closed mid-response".into()))?;
            if frame.tag != tag {
                return Err(bad(format!(
                    "response tag {} does not echo request tag {tag}",
                    frame.tag
                )));
            }
            match frame.kind {
                kind::HEADER => {
                    header_flags = Some(*frame.body.first().unwrap_or(&0));
                }
                kind::CHUNK => {
                    let decoded =
                        decode_chunk(&frame.body).map_err(|e| bad(format!("bad chunk: {e}")))?;
                    chunks += 1;
                    rows.extend(decoded);
                }
                kind::END => {
                    let (end_rows, end_chunks) =
                        decode_end(&frame.body).map_err(|e| bad(format!("bad END: {e}")))?;
                    if end_rows != rows.len() as u64 || end_chunks != chunks {
                        return Err(bad(format!(
                            "END totals ({end_rows} rows, {end_chunks} chunks) disagree with \
                             received ({} rows, {chunks} chunks)",
                            rows.len()
                        )));
                    }
                    let flags = header_flags.ok_or_else(|| bad("END before HEADER".into()))?;
                    return Ok(Ok((flags, rows)));
                }
                kind::ERROR => {
                    let (code, msg) =
                        decode_error(&frame.body).map_err(|e| bad(format!("bad ERROR: {e}")))?;
                    return Ok(Err((code, msg)));
                }
                other => return Err(bad(format!("unexpected frame kind {other} in stream"))),
            }
        }
    }

    /// Drives one text-answering verb (EXPLAIN/ANALYZE/STATS/METRICS/
    /// TRACE) to completion, returning the text or the error.
    pub fn text_request(
        &mut self,
        tag: u32,
        verb: u8,
        body: &str,
    ) -> io::Result<Result<String, (u16, String)>> {
        self.send(tag, verb, body.as_bytes())?;
        self.read_text_response(tag)
    }

    /// Reads one TEXT (or ERROR) response for `tag`.
    pub fn read_text_response(&mut self, tag: u32) -> io::Result<Result<String, (u16, String)>> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let frame = self
            .read_frame()?
            .ok_or_else(|| bad("connection closed mid-response".into()))?;
        if frame.tag != tag {
            return Err(bad(format!(
                "response tag {} does not echo request tag {tag}",
                frame.tag
            )));
        }
        match frame.kind {
            kind::TEXT => {
                let text = String::from_utf8(frame.body)
                    .map_err(|e| bad(format!("invalid utf-8 in TEXT: {e}")))?;
                Ok(Ok(text))
            }
            kind::ERROR => {
                let (code, msg) =
                    decode_error(&frame.body).map_err(|e| bad(format!("bad ERROR: {e}")))?;
                Ok(Err((code, msg)))
            }
            other => Err(bad(format!("unexpected frame kind {other} for text verb"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, verb::QUERY, b"select!").unwrap();
        write_frame(&mut buf, 8, verb::QUIT, b"").unwrap();
        let mut r = &buf[..];
        let f1 = read_frame(&mut r, MAX_REQUEST_LEN).unwrap().unwrap();
        assert_eq!(
            (f1.tag, f1.kind, f1.body.as_slice()),
            (7, verb::QUERY, &b"select!"[..])
        );
        let f2 = read_frame(&mut r, MAX_REQUEST_LEN).unwrap().unwrap();
        assert_eq!((f2.tag, f2.kind, f2.body.len()), (8, verb::QUIT, 0));
        assert!(read_frame(&mut r, MAX_REQUEST_LEN).unwrap().is_none());
    }

    /// Counts the `write` calls that reach it.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for body in [&b""[..], b"select!", &[7u8; 100_000]] {
            let mut w = CountingWriter {
                writes: 0,
                bytes: Vec::new(),
            };
            write_frame(&mut w, 9, kind::CHUNK, body).unwrap();
            assert_eq!(w.writes, 1, "{}-byte body", body.len());
            let frame = read_frame(&mut &w.bytes[..], MAX_RESPONSE_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(
                (frame.tag, frame.kind, &frame.body[..]),
                (9, kind::CHUNK, body)
            );
        }
    }

    #[test]
    fn pushed_frames_read_back_in_order() {
        let mut out = Vec::new();
        push_frame(&mut out, 3, kind::HEADER, |b| b.push(flags::RESULT_HIT));
        let len = push_frame(&mut out, 3, kind::CHUNK, |b| b.extend_from_slice(b"rows"));
        assert_eq!(len, 4);
        let mut r = &out[..];
        let header = read_frame(&mut r, MAX_RESPONSE_LEN).unwrap().unwrap();
        assert_eq!(
            (header.kind, header.body),
            (kind::HEADER, vec![flags::RESULT_HIT])
        );
        let chunk = read_frame(&mut r, MAX_RESPONSE_LEN).unwrap().unwrap();
        assert_eq!(
            (chunk.tag, chunk.kind, chunk.body),
            (3, kind::CHUNK, b"rows".to_vec())
        );
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_and_oversize_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, verb::QUERY, b"hello").unwrap();
        // EOF inside the body
        let mut r = &buf[..buf.len() - 2];
        assert_eq!(
            read_frame(&mut r, MAX_REQUEST_LEN).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // EOF inside the length prefix
        let mut r = &buf[..2];
        assert_eq!(
            read_frame(&mut r, MAX_REQUEST_LEN).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // length too small to hold tag + kind
        let mut r = &[3u8, 0, 0, 0, 0xAA][..];
        assert_eq!(
            read_frame(&mut r, MAX_REQUEST_LEN).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // length over the cap
        let huge = (MAX_REQUEST_LEN + 1).to_le_bytes();
        let mut r = &huge[..];
        assert_eq!(
            read_frame(&mut r, MAX_REQUEST_LEN).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// Scan chunk 0 of a table of `rows` (each carries its oid in
    /// `id`), with columns.
    fn scan_chunk(rows: Vec<Value>) -> Batch {
        let mut t = oodb_catalog::Table::new("id".into());
        for r in rows {
            t.insert(&"T".into(), r.as_tuple().unwrap().clone())
                .unwrap();
        }
        t.chunk(0, oodb_value::BatchKind::Columnar).unwrap()
    }

    /// Every CHUNK body is the row codec's block of the batch's rows,
    /// whatever the batch's layout or selection, and a cached slice sends
    /// the same bytes a live batch of its rows would.
    #[test]
    fn every_chunk_is_one_row_block() {
        use crate::cache::CachedResult;
        use oodb_value::{batch::BATCH_SIZE, Oid, Tuple};
        let row = |i: i64| {
            Value::tuple([
                ("a", Value::Int(i)),
                ("b", Value::str(&format!("s{}", i % 3))),
                ("c", Value::set([Value::Oid(Oid(i as u64))])),
                ("id", Value::Oid(Oid(i as u64))),
            ])
        };
        let rows: Vec<Value> = (0..10).map(row).collect();
        let chunk = scan_chunk(rows.clone());
        let Batch::Columnar(cb) = &chunk else {
            panic!("uniform tuples get columns")
        };
        let keep: Vec<bool> = (0..10).map(|i| i % 3 == 1).collect();
        let filtered = Batch::Columnar(cb.filter(&keep));
        let mixed = (1..4).map(|i| {
            let pad = [Value::Null, Value::str("y"), Value::Int(7)][i as usize - 1].clone();
            Value::tuple([
                ("a", Value::Int(i)),
                ("id", Value::Oid(Oid(i as u64))),
                ("pad", pad),
            ])
        });
        let batches = [
            ("rows", Batch::from_rows(rows.clone())),
            ("chunk", chunk.clone()),
            ("filtered chunk", filtered),
            ("mixed", scan_chunk(mixed.collect())),
            (
                "empty tuples",
                Batch::from_rows(vec![Value::Tuple(Tuple::empty()); 3]),
            ),
        ];
        assert!(matches!(&batches[3].1, Batch::Columnar(_)));
        for (what, batch) in batches {
            let mut body = Vec::new();
            encode_chunk(&batch, &mut body);
            let want = batch.into_values();
            let mut block = Vec::new();
            codec::encode_rows(&want, &mut block);
            assert_eq!(body, block, "{what}");
            assert_eq!(decode_chunk(&body).unwrap(), want, "{what}");
        }

        let n = 2 * BATCH_SIZE + 5;
        let value = Value::set((0..n as i64).map(row));
        let cached = CachedResult::new(value, Vec::new(), Default::default(), &[BATCH_SIZE; 3]);
        let mut i = 0;
        while let Some((len, body)) = cached.chunk_body(i) {
            let slice = cached.slice(i).unwrap();
            assert_eq!(len, slice.len());
            let mut live = Vec::new();
            encode_chunk(&Batch::from_rows(slice.to_vec()), &mut live);
            assert_eq!(body, &live[..], "slice {i}");
            if i == 0 {
                let mut from_chunk = Vec::new();
                encode_chunk(&scan_chunk(slice.to_vec()), &mut from_chunk);
                assert_eq!(body, &from_chunk[..], "slice {i} as a scan chunk");
            }
            i += 1;
        }
        assert_eq!(i, n.div_ceil(BATCH_SIZE));
    }

    /// A row batch and a scan chunk of the same rows both decode back to
    /// those rows; an empty body, or one whose count runs past its
    /// bytes, does not decode.
    #[test]
    fn chunk_bodies_round_trip_both_layouts() {
        let rows = vec![
            Value::tuple([("a", Value::Int(1)), ("id", Value::Oid(oodb_value::Oid(1)))]),
            Value::tuple([("a", Value::Int(2)), ("id", Value::Oid(oodb_value::Oid(2)))]),
        ];
        for batch in [Batch::from_rows(rows.clone()), scan_chunk(rows.clone())] {
            let mut body = Vec::new();
            encode_chunk(&batch, &mut body);
            assert_eq!(decode_chunk(&body).unwrap(), rows, "{batch:?}");
        }
        assert!(decode_chunk(&[]).is_err());
        assert!(decode_chunk(&[9, 0, 0, 0, 0]).is_err());
    }

    /// Rows of empty tuples hold no field, yet each row still spends at
    /// least one byte of the body, so a body claiming more rows than
    /// bytes is refused before any row is materialized.
    #[test]
    fn chunks_spend_a_byte_per_row() {
        let rows = vec![Value::Tuple(oodb_value::Tuple::empty()); 3];
        let batch = Batch::from_rows(rows.clone());
        let mut body = Vec::new();
        encode_chunk(&batch, &mut body);
        assert!(body.len() >= 4 + rows.len(), "{} bytes", body.len());
        assert_eq!(decode_chunk(&body).unwrap(), rows);

        let mut hostile = u32::MAX.to_le_bytes().to_vec(); // rows
        hostile.extend_from_slice(&body[4..]);
        assert!(matches!(decode_chunk(&hostile), Err(ValueError::Codec(_))));
    }

    /// Malformed CHUNK bodies are codec errors. The preallocation of
    /// `decode_rows` is capped by the body's size, so a count of
    /// `u32::MAX` rows allocates a few slots, not billions of them.
    #[test]
    fn hostile_chunk_bodies_are_codec_errors() {
        let mut valid = Vec::new();
        encode_chunk(
            &Batch::from_rows(vec![Value::Int(1), Value::str("x")]),
            &mut valid,
        );
        let mut past_the_bytes = valid.clone();
        past_the_bytes[..4].copy_from_slice(&3u32.to_le_bytes());
        let mut trailing = valid.clone();
        trailing.push(0);
        // `u32::MAX` rows claimed, one NULL row present
        let mut huge_count = u32::MAX.to_le_bytes().to_vec();
        huge_count.push(0);
        // the retired column-block shape: a layout byte, then a row count
        let mut column_block = vec![1];
        column_block.extend_from_slice(&u32::MAX.to_le_bytes());
        column_block.extend_from_slice(&1u32.to_le_bytes());
        for (what, body) in [
            ("empty", Vec::new()),
            ("short count", vec![1, 0]),
            ("count past the bytes", past_the_bytes),
            ("trailing bytes", trailing),
            ("u32::MAX rows", huge_count),
            ("column block", column_block),
        ] {
            assert!(
                matches!(decode_chunk(&body), Err(ValueError::Codec(_))),
                "{what}"
            );
        }
        assert_eq!(
            decode_chunk(&valid).unwrap(),
            vec![Value::Int(1), Value::str("x")]
        );
    }

    /// A row nested 100 000 sets deep is refused by the decoder's depth
    /// cap instead of overflowing the client's stack.
    #[test]
    fn deeply_nested_chunk_rows_are_codec_errors() {
        // `{null}` encodes as a one-element SET header plus the null
        let set_of_null = codec::encode(&Value::set([Value::Null]));
        let (header, null) = set_of_null.split_at(set_of_null.len() - 1);
        let mut hostile = 1u32.to_le_bytes().to_vec(); // rows
        for _ in 0..100_000 {
            hostile.extend_from_slice(header);
        }
        hostile.extend_from_slice(null);
        assert!(matches!(decode_chunk(&hostile), Err(ValueError::Codec(_))));
    }

    #[test]
    fn end_and_error_bodies_round_trip() {
        assert_eq!(decode_end(&encode_end(42, 7)).unwrap(), (42, 7));
        assert!(decode_end(&[0; 15]).is_err());
        let body = encode_error(14, "planning error: no index");
        assert_eq!(
            decode_error(&body).unwrap(),
            (14, "planning error: no index".to_string())
        );
        assert!(decode_error(&[1]).is_err());
    }
}
