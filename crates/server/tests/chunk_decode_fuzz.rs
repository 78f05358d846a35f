//! Fuzzing the CHUNK decoder.
//!
//! A client decodes whatever bytes arrive in a CHUNK frame, so
//! [`wire::decode_chunk`] must answer `Ok` or `Err` for any body — never
//! panic, and never abort on an allocation sized by a count the bytes do
//! not back. The property starts from valid encodings of random row
//! batches and damages them: it truncates them, flips bytes in them, or
//! overwrites a length/count word with a large value.

use oodb_server::wire;
use oodb_value::{Batch, Oid, Value};
use proptest::prelude::*;

fn atom() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::float),
        (0u64..50).prop_map(|n| Value::str(&format!("s{n}"))),
        (900101i64..991231).prop_map(Value::Date),
        any::<u64>().prop_map(|o| Value::Oid(Oid(o))),
    ]
}

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// Values nesting sets and tuples up to three levels deep.
fn value() -> BoxedStrategy<Value> {
    atom().boxed().prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            inner.clone(),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            proptest::collection::vec(inner, 0..4)
                .prop_map(|vs| Value::tuple(NAMES.iter().copied().zip(vs))),
        ]
    })
}

/// The rows of one chunk: tuples over the first `k` names (a uniform
/// block; `k = 0` is rows of empty tuples), or arbitrary values.
fn rows() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        (
            0usize..5,
            proptest::collection::vec(proptest::collection::vec(value(), 4..5), 1..12)
        )
            .prop_map(|(k, rows)| {
                rows.into_iter()
                    .map(|vs| Value::tuple(NAMES[..k].iter().copied().zip(vs)))
                    .collect()
            }),
        proptest::collection::vec(value(), 0..12),
    ]
}

/// One way of damaging a body.
#[derive(Debug, Clone)]
enum Damage {
    /// Keep only the first `at` bytes.
    Truncate(usize),
    /// XOR the byte at `at` with a non-zero mask.
    Flip(usize, u8),
    /// Overwrite the little-endian `u32` at `at` with `word`. Offset 0
    /// is the row count every body starts with; offset 5 is the first
    /// row's field or element count when that row is a tuple or set.
    Count(usize, u32),
}

fn damage() -> impl Strategy<Value = Damage> {
    let at = prop_oneof![Just(0usize), Just(5usize), any::<usize>()];
    let word = prop_oneof![
        Just(u32::MAX),
        Just(1u32 << 31),
        Just(1u32 << 20),
        any::<u32>()
    ];
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip(at, mask)),
        (at, word).prop_map(|(at, word)| Damage::Count(at, word)),
    ]
}

fn apply(body: &mut Vec<u8>, damage: &Damage) {
    if body.is_empty() {
        return;
    }
    match *damage {
        Damage::Truncate(at) => body.truncate(at % body.len()),
        Damage::Flip(at, mask) => {
            let n = body.len();
            body[at % n] ^= mask;
        }
        Damage::Count(at, word) => {
            let at = at % body.len();
            let end = (at + 4).min(body.len());
            body[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every damaged body decodes to `Ok` or `Err` — the call returning
    /// at all is the property; an undamaged body decodes to its rows.
    #[test]
    fn damaged_chunks_decode_or_error(
        rows in rows(),
        damages in proptest::collection::vec(damage(), 1..4),
    ) {
        let mut body = Vec::new();
        wire::encode_chunk(&Batch::from_rows(rows.clone()), &mut body);
        prop_assert_eq!(wire::decode_chunk(&body).expect("valid body"), rows);
        for d in &damages {
            apply(&mut body, d);
            let _ = wire::decode_chunk(&body);
        }
    }
}
