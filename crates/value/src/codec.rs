//! Compact binary encoding of [`Value`]s for spill files and the wire.
//!
//! The external-memory subsystem (`oodb-spill`) persists rows to disk as
//! length-prefixed records, and the wire protocol sends every result
//! chunk as one row block ([`encode_rows`]); this module is the payload
//! format of both. The encoding is:
//!
//! * **canonical** — encoding a value and decoding it yields a value that
//!   is `==` to the original (tuples and sets keep their canonical field
//!   and element order, floats round-trip through their canonicalised bit
//!   pattern, so even NaN survives);
//! * **self-delimiting** — every value starts with a one-byte tag and
//!   fixed-width or length-prefixed payloads, so records can be
//!   concatenated without separators;
//! * **deterministic** — equal values produce identical byte strings,
//!   which the spill-partition hashing and the round-trip property tests
//!   rely on.
//!
//! [`encoded_size`] computes the exact byte length without allocating —
//! it is the unit of account of the engine's `MemoryBudget`.

use crate::{Name, Oid, Set, Tuple, Value, ValueError, F64};

/// Value tags (first byte of every encoded value).
mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const STR: u8 = 5;
    pub const DATE: u8 = 6;
    pub const OID: u8 = 7;
    pub const TUPLE: u8 = 8;
    pub const SET: u8 = 9;
}

/// Appends the encoding of `v` to `out`.
pub fn encode_into(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(tag::NULL),
        Value::Bool(false) => out.push(tag::FALSE),
        Value::Bool(true) => out.push(tag::TRUE),
        Value::Int(i) => {
            out.push(tag::INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&x.get().to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(tag::STR);
            push_len(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(tag::DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Oid(Oid(o)) => {
            out.push(tag::OID);
            out.extend_from_slice(&o.to_le_bytes());
        }
        Value::Tuple(t) => {
            out.push(tag::TUPLE);
            push_len(out, t.arity());
            for (name, field) in t.iter() {
                push_len(out, name.len());
                out.extend_from_slice(name.as_bytes());
                encode_into(field, out);
            }
        }
        Value::Set(s) => {
            out.push(tag::SET);
            push_len(out, s.len());
            for elem in s.iter() {
                encode_into(elem, out);
            }
        }
    }
}

/// The encoding of `v` as a fresh buffer.
pub fn encode(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size(v));
    encode_into(v, &mut out);
    out
}

/// Exact byte length [`encode`] would produce, without allocating. This
/// is the memory-accounting unit of the spill subsystem: a hash table or
/// sort run "holds N bytes" when the encoded sizes of its rows sum to N.
pub fn encoded_size(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) | Value::Date(_) | Value::Oid(_) => 9,
        Value::Str(s) => 1 + 4 + s.len(),
        Value::Tuple(t) => encoded_row_size(t),
        Value::Set(s) => 1 + 4 + s.iter().map(encoded_size).sum::<usize>(),
    }
}

/// [`encoded_size`] of a tuple-shaped row without wrapping it in a
/// [`Value`] — statistics collectors measure whole extents, so the
/// wrap (a deep clone) would dominate.
pub fn encoded_row_size(t: &Tuple) -> usize {
    1 + 4
        + t.iter()
            .map(|(n, f)| 4 + n.len() + encoded_size(f))
            .sum::<usize>()
}

/// Encodes `rows` as a length-prefixed row block — a `u32` count
/// followed by the concatenated self-delimiting encodings. This is the
/// body of every wire CHUNK: the serving layer frames each pipeline
/// batch and each cached slice with this exact encoding, so the wire
/// format and the spill format share one codec.
pub fn encode_rows(rows: &[Value], out: &mut Vec<u8>) {
    push_len(out, rows.len());
    for v in rows {
        encode_into(v, out);
    }
}

/// Decodes a row block produced by [`encode_rows`], consuming all of
/// `bytes`.
pub fn decode_rows(bytes: &[u8]) -> Result<Vec<Value>, ValueError> {
    if bytes.len() < 4 {
        return Err(codec_err("row block shorter than its count".into()));
    }
    let n = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let mut pos = 4usize;
    // Cap the preallocation: a hostile count must not allocate ahead of
    // the bytes that back it.
    let mut rows = Vec::with_capacity(n.min(bytes.len() / 2 + 1));
    let mut decoder = Decoder::default();
    for _ in 0..n {
        rows.push(decoder.value(bytes, &mut pos, 0)?);
    }
    if pos != bytes.len() {
        return Err(codec_err(format!(
            "trailing garbage after row block: {} of {} bytes unread",
            bytes.len() - pos,
            bytes.len()
        )));
    }
    Ok(rows)
}

/// Decodes one value from the front of `bytes`, returning it and the
/// number of bytes consumed.
pub fn decode_prefix(bytes: &[u8]) -> Result<(Value, usize), ValueError> {
    Decoder::default().prefix(bytes)
}

/// Decodes exactly one value spanning all of `bytes`.
pub fn decode(bytes: &[u8]) -> Result<Value, ValueError> {
    let (v, used) = decode_prefix(bytes)?;
    if used != bytes.len() {
        return Err(codec_err(format!(
            "trailing garbage: {} of {} bytes unread",
            bytes.len() - used,
            bytes.len()
        )));
    }
    Ok(v)
}

fn codec_err(msg: String) -> ValueError {
    ValueError::Codec(msg)
}

pub(crate) fn take<'b>(bytes: &'b [u8], pos: &mut usize, n: usize) -> Result<&'b [u8], ValueError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| codec_err(format!("truncated value: needed {n} bytes at {pos}")))?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

pub(crate) fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<usize, ValueError> {
    let b = take(bytes, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
}

pub(crate) fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, ValueError> {
    let b = take(bytes, pos, 8)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

pub(crate) fn push_len(out: &mut Vec<u8>, len: usize) {
    // lengths are bounded by in-memory sizes, which fit u32 on every
    // platform this engine targets
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Most distinct field names one [`Decoder`] shares. Rows of one chunk
/// repeat a handful of names; past the cap, names are allocated per
/// field, so a hostile input cannot grow the list or make its linear
/// lookup quadratic.
const MAX_INTERNED_NAMES: usize = 64;

/// Deepest nesting of sets and tuples one decoded value may have. The
/// decoder recurses once per level, so without a cap a run of nested
/// SET headers from a socket could overflow the reader's stack; values
/// the engine builds nest a handful of levels deep.
pub const MAX_DEPTH: usize = 256;

/// Scratch state of one decode call: a row block or one value.
///
/// * **Field names are interned**: every tuple of the block that carries
///   a name shares one [`Name`] for it instead of allocating its own.
/// * **Canonical input is stored as is**: the encoder writes tuple fields
///   and set elements in canonical order, so a linear strictly-increasing
///   check replaces the sort. Input that fails it (bytes not from this
///   encoder) goes through [`Tuple::new`] / [`Set::from_values`], so the
///   result — or the [`ValueError::DuplicateField`] — is the same for
///   every input.
/// * **One allocation per tuple or set**: children are decoded onto a
///   scratch stack and moved from there straight into the shared storage.
///   Nested values push above their parent's entries and drain them
///   before the parent continues, so one stack per kind serves every
///   depth.
#[derive(Default)]
pub(crate) struct Decoder {
    names: Vec<Name>,
    fields: Vec<(Name, Value)>,
    elems: Vec<Value>,
}

impl Decoder {
    /// Decodes one value from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    pub(crate) fn prefix(&mut self, bytes: &[u8]) -> Result<(Value, usize), ValueError> {
        let mut pos = 0usize;
        let v = self.value(bytes, &mut pos, 0)?;
        Ok((v, pos))
    }

    /// Decodes the value at `*pos`, which sits `depth` sets or tuples
    /// deep in the value being decoded.
    fn value(&mut self, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ValueError> {
        let t = take(bytes, pos, 1)?[0];
        if matches!(t, tag::TUPLE | tag::SET) && depth == MAX_DEPTH {
            return Err(codec_err(format!(
                "value nests deeper than {MAX_DEPTH} sets or tuples"
            )));
        }
        Ok(match t {
            tag::NULL => Value::Null,
            tag::FALSE => Value::Bool(false),
            tag::TRUE => Value::Bool(true),
            tag::INT => Value::Int(take_u64(bytes, pos)? as i64),
            tag::FLOAT => {
                // the encoder wrote the canonicalised bit pattern, so
                // rebuilding through `F64::new` is the identity — but it
                // keeps the canonicalisation invariant even for bytes that
                // did not come from our encoder
                Value::Float(F64::new(f64::from_bits(take_u64(bytes, pos)?)))
            }
            tag::STR => {
                let n = take_u32(bytes, pos)?;
                let s = std::str::from_utf8(take(bytes, pos, n)?)
                    .map_err(|e| codec_err(format!("invalid utf-8 in string: {e}")))?;
                Value::Str(Name::from(s))
            }
            tag::DATE => Value::Date(take_u64(bytes, pos)? as i64),
            tag::OID => Value::Oid(Oid(take_u64(bytes, pos)?)),
            tag::TUPLE => {
                let n = take_u32(bytes, pos)?;
                let base = self.fields.len();
                for _ in 0..n {
                    let nl = take_u32(bytes, pos)?;
                    let name = self.name(take(bytes, pos, nl)?)?;
                    let field = self.value(bytes, pos, depth + 1)?;
                    self.fields.push((name, field));
                }
                let canonical = self.fields[base..].windows(2).all(|w| w[0].0 < w[1].0);
                let fields = self.fields.drain(base..);
                Value::Tuple(if canonical {
                    Tuple::from_sorted_unchecked(fields.collect())
                } else {
                    Tuple::new(fields.collect())?
                })
            }
            tag::SET => {
                let n = take_u32(bytes, pos)?;
                let base = self.elems.len();
                for _ in 0..n {
                    let elem = self.value(bytes, pos, depth + 1)?;
                    self.elems.push(elem);
                }
                let canonical = self.elems[base..].windows(2).all(|w| w[0] < w[1]);
                let elems = self.elems.drain(base..);
                Value::Set(if canonical {
                    Set::from_sorted_unchecked(elems.collect())
                } else {
                    Set::from_values(elems.collect())
                })
            }
            other => return Err(codec_err(format!("unknown value tag {other}"))),
        })
    }

    /// The field name spelled by `raw`: the interned copy when one exists
    /// (its bytes were validated when it was interned), else a fresh one,
    /// interned while the list has room.
    fn name(&mut self, raw: &[u8]) -> Result<Name, ValueError> {
        if let Some(n) = self.names.iter().find(|n| n.as_bytes() == raw) {
            return Ok(n.clone());
        }
        let name = Name::from(
            std::str::from_utf8(raw)
                .map_err(|e| codec_err(format!("invalid utf-8 in field name: {e}")))?,
        );
        if self.names.len() < MAX_INTERNED_NAMES {
            self.names.push(name.clone());
        }
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let bytes = encode(v);
        assert_eq!(bytes.len(), encoded_size(v), "size mismatch for {v}");
        assert_eq!(&decode(&bytes).unwrap(), v, "roundtrip failed for {v}");
    }

    #[test]
    fn atoms_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::float(3.5),
            Value::float(-0.0),
            Value::float(f64::NAN),
            Value::float(f64::INFINITY),
            Value::float(f64::NEG_INFINITY),
            Value::float(f64::MIN_POSITIVE / 2.0), // subnormal
            Value::str(""),
            Value::str("héllo \"quoted\"\n"),
            Value::Date(940101),
            Value::Oid(Oid(u64::MAX)),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::tuple([
            ("a", Value::Int(1)),
            (
                "b",
                Value::set([
                    Value::tuple([("x", Value::str("s")), ("y", Value::empty_set())]),
                    Value::Null,
                ]),
            ),
            ("c", Value::set([])),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn row_size_matches_wrapped_size() {
        let t = crate::Tuple::from_pairs([
            ("a", Value::Int(1)),
            ("b", Value::set([Value::str("x"), Value::Null])),
        ]);
        assert_eq!(encoded_row_size(&t), encoded_size(&Value::Tuple(t.clone())));
        assert_eq!(
            encoded_row_size(&crate::Tuple::empty()),
            encoded_size(&Value::Tuple(crate::Tuple::empty()))
        );
    }

    #[test]
    fn equal_values_encode_identically() {
        // construction order differs, canonical encoding must not
        let a = Value::set([Value::Int(2), Value::Int(1)]);
        let b = Value::set([Value::Int(1), Value::Int(2)]);
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn nested_encoding_is_pinned() {
        // The wire and spill formats are this byte layout; sharing
        // storage must not change a byte of it.
        let v = Value::tuple([
            ("id", Value::Oid(Oid(7))),
            ("name", Value::str("s1")),
            (
                "parts",
                Value::set([
                    Value::tuple([("p", Value::Int(-2)), ("q", Value::float(1.5))]),
                    Value::tuple([("p", Value::Int(3)), ("q", Value::Null)]),
                ]),
            ),
            ("tags", Value::set([Value::Bool(true), Value::Date(940101)])),
        ]);
        #[rustfmt::skip]
        let expected: [u8; 130] = [
            8, 4, 0, 0, 0,
            2, 0, 0, 0, b'i', b'd', 7, 7, 0, 0, 0, 0, 0, 0, 0,
            4, 0, 0, 0, b'n', b'a', b'm', b'e', 5, 2, 0, 0, 0, b's', b'1',
            5, 0, 0, 0, b'p', b'a', b'r', b't', b's', 9, 2, 0, 0, 0,
            8, 2, 0, 0, 0,
            1, 0, 0, 0, b'p', 3, 254, 255, 255, 255, 255, 255, 255, 255,
            1, 0, 0, 0, b'q', 4, 0, 0, 0, 0, 0, 0, 248, 63,
            8, 2, 0, 0, 0,
            1, 0, 0, 0, b'p', 3, 3, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, b'q', 0,
            4, 0, 0, 0, b't', b'a', b'g', b's', 9, 2, 0, 0, 0,
            2, 6, 69, 88, 14, 0, 0, 0, 0, 0,
        ];
        assert_eq!(encode(&v), expected);
        roundtrip(&v);
    }

    /// Hand-built encodings, free to break the canonical order the
    /// encoder guarantees.
    fn int_bytes(i: i64) -> Vec<u8> {
        let mut out = vec![tag::INT];
        out.extend_from_slice(&i.to_le_bytes());
        out
    }

    fn set_bytes(elems: &[Vec<u8>]) -> Vec<u8> {
        let mut out = vec![tag::SET];
        push_len(&mut out, elems.len());
        elems.iter().for_each(|e| out.extend_from_slice(e));
        out
    }

    fn tuple_bytes(fields: &[(&str, Vec<u8>)]) -> Vec<u8> {
        let mut out = vec![tag::TUPLE];
        push_len(&mut out, fields.len());
        for (name, field) in fields {
            push_len(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(field);
        }
        out
    }

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&i| Value::Int(i)).collect()
    }

    fn int_fields(names: &[&str], vs: &[i64]) -> Vec<(Name, Value)> {
        names.iter().map(|n| Name::from(*n)).zip(ints(vs)).collect()
    }

    #[test]
    fn non_canonical_input_decodes_like_the_constructors() {
        let unsorted = set_bytes(&[int_bytes(3), int_bytes(1), int_bytes(2)]);
        assert_eq!(
            decode(&unsorted).unwrap(),
            Value::Set(Set::from_values(ints(&[3, 1, 2])))
        );
        let duplicated = set_bytes(&[int_bytes(1), int_bytes(1), int_bytes(2)]);
        let set = Set::from_values(ints(&[1, 1, 2]));
        assert_eq!(set.len(), 2);
        assert_eq!(decode(&duplicated).unwrap(), Value::Set(set));

        let swapped = tuple_bytes(&[("b", int_bytes(1)), ("a", int_bytes(2))]);
        assert_eq!(
            decode(&swapped).unwrap(),
            Value::Tuple(Tuple::new(int_fields(&["b", "a"], &[1, 2])).unwrap())
        );
        let twice = tuple_bytes(&[("a", int_bytes(1)), ("a", int_bytes(2))]);
        let expected = Tuple::new(int_fields(&["a", "a"], &[1, 2])).unwrap_err();
        assert_eq!(expected, ValueError::DuplicateField(Name::from("a")));
        assert_eq!(decode(&twice).unwrap_err(), expected);

        // Non-canonical levels nested inside canonical ones, and the
        // reverse: every level is checked on its own.
        let inner = [
            tuple_bytes(&[("y", int_bytes(1)), ("x", int_bytes(2))]),
            tuple_bytes(&[("x", int_bytes(0))]),
        ];
        let nested = tuple_bytes(&[
            ("a", set_bytes(&[int_bytes(9), int_bytes(4)])),
            ("b", set_bytes(&inner)),
        ]);
        let expected = Value::tuple([
            ("a", Value::set(ints(&[9, 4]))),
            (
                "b",
                Value::set([
                    Value::tuple([("y", Value::Int(1)), ("x", Value::Int(2))]),
                    Value::tuple([("x", Value::Int(0))]),
                ]),
            ),
        ]);
        assert_eq!(decode(&nested).unwrap(), expected);
        assert_eq!(encode(&decode(&nested).unwrap()), encode(&expected));
    }

    #[test]
    fn field_names_are_shared_up_to_the_cap() {
        let names: Vec<String> = (0..100).map(|i| format!("f{i:03}")).collect();
        let fields: Vec<(&str, Vec<u8>)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), int_bytes(i as i64)))
            .collect();
        let row = tuple_bytes(&fields);
        let mut block = Vec::new();
        push_len(&mut block, 2);
        block.extend_from_slice(&row);
        block.extend_from_slice(&row);
        let rows = decode_rows(&block).unwrap();
        let expected = Tuple::new(
            names
                .iter()
                .enumerate()
                .map(|(i, n)| (Name::from(n.as_str()), Value::Int(i as i64)))
                .collect(),
        )
        .unwrap();
        assert_eq!(rows, vec![Value::Tuple(expected.clone()); 2]);
        let (Value::Tuple(a), Value::Tuple(b)) = (&rows[0], &rows[1]) else {
            panic!("rows are tuples");
        };
        let shared = a
            .iter()
            .zip(b.iter())
            .map(|((x, _), (y, _))| std::sync::Arc::ptr_eq(x, y))
            .collect::<Vec<_>>();
        assert!(shared[..MAX_INTERNED_NAMES].iter().all(|&s| s));
        assert!(shared[MAX_INTERNED_NAMES..].iter().all(|&s| !s));

        // Past the cap a name is still validated: an invalid one errors.
        let mut bad = row.clone();
        let at = bad.len() - 9 - 4;
        bad[at] = 0xFF;
        assert!(matches!(decode(&bad), Err(ValueError::Codec(_))));
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let bytes = encode(&Value::str("hello"));
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode(&[0xFF]).is_err());
        assert!(decode(&[]).is_err());
        // trailing garbage after a complete value
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode(&extended).is_err());
    }

    /// `levels` one-element SET headers around the integer 7.
    fn nested_sets(levels: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(levels * 5 + 9);
        for _ in 0..levels {
            bytes.push(tag::SET);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.extend_from_slice(&int_bytes(7));
        bytes
    }

    #[test]
    fn nesting_past_the_depth_cap_is_a_codec_error() {
        // deep enough to overflow the stack without the cap
        for levels in [MAX_DEPTH + 1, 100_000] {
            let err = decode(&nested_sets(levels)).unwrap_err();
            assert!(matches!(err, ValueError::Codec(_)), "{err}");
        }
        // a value nested exactly to the cap still round-trips
        let mut v = Value::Int(7);
        for _ in 0..MAX_DEPTH {
            v = Value::set([v]);
        }
        assert_eq!(encode(&v), nested_sets(MAX_DEPTH));
        roundtrip(&v);
    }
}
