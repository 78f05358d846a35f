//! A table's merged snapshot is exact: after any interleaving of writes
//! and reads, `Table::as_set` and every scan chunk equal what is built
//! from scratch out of the table's rows.
//!
//! Each columnar chunk also keeps the rows it was cut from: its row view
//! must be those rows, and its origin the current snapshot, never one a
//! write retired.
//!
//! Rows are inserted out of canonical order (canonical order is colour
//! first, then oid), and the steps cover inserts that land before,
//! inside and after the last read snapshot, bulk inserts that cross
//! several `BATCH_SIZE` boundaries, several writes between two reads,
//! `create_index`, rejected inserts (a duplicate oid and a missing
//! indexed attribute), partial reads in both batch layouts, and table
//! clones, which start without the retired snapshot.

use oodb_catalog::{CatalogError, Table};
use oodb_value::batch::BATCH_SIZE;
use oodb_value::{name, Batch, BatchKind, Oid, Set, Tuple, Value};
use proptest::prelude::*;

/// Colours the initial rows carry; a write picks one of these to land
/// inside the snapshot, or one sorting before or after all of them.
const INSIDE: [&str; 3] = ["blue", "green", "red"];
const BEFORE: &str = "amber";
const AFTER: &str = "yellow";

/// One random step: `(kind, a, b)`, interpreted by [`apply`].
type Step = (u8, u64, usize);

fn step() -> impl Strategy<Value = Step> {
    (0u8..12, 0u64..1 << 20, 0usize..64)
}

fn row(oid: u64, color: &str) -> Tuple {
    Tuple::from_pairs([
        ("pid", Value::Oid(Oid(oid))),
        ("color", Value::str(color)),
        ("refs", Value::set((0..oid % 3).map(|k| Value::Oid(Oid(k))))),
    ])
}

/// Where a write lands relative to the rows already there.
fn color(b: usize) -> &'static str {
    match b % 5 {
        0 => BEFORE,
        4 => AFTER,
        i => INSIDE[i % 3],
    }
}

/// `n` rows in an order unrelated to the canonical one.
fn table(n: u64) -> Table {
    let mut t = Table::new(name("pid"));
    for i in 0..n {
        let oid = (i * 7919) % n.max(1) + 1;
        t.insert(&name("PART"), row(oid, INSIDE[(i % 3) as usize]))
            .unwrap();
    }
    t
}

/// Reads the chunks picked by `mask` (bit `i % 64` for chunk `i`) in
/// layout `kind`, so some columnar cells are filled and some are not.
fn read(t: &Table, kind: BatchKind, mask: u64) {
    for i in 0..t.len().div_ceil(BATCH_SIZE) {
        if mask >> (i % 64) & 1 == 1 {
            assert!(t.chunk(i, kind).is_some(), "chunk {i} of {} rows", t.len());
        }
    }
}

/// The snapshot and every chunk, in both layouts, equal a from-scratch
/// build from the table's rows: their row views and their columns. Every columnar chunk's origin is
/// the current snapshot at the chunk's offset, never `retired`, the
/// snapshot a write since the last check set aside.
fn assert_exact(t: &Table, retired: Option<&Set>, context: &str) {
    let rebuilt = Set::from_values(t.rows().cloned().map(Value::Tuple).collect());
    let current = t.as_set();
    assert_eq!(current, &rebuilt, "{context}");
    let chunks: Vec<&[Value]> = rebuilt.as_slice().chunks(BATCH_SIZE).collect();
    for kind in [BatchKind::Columnar, BatchKind::Row] {
        for (i, rows) in chunks.iter().enumerate() {
            let chunk = t.chunk(i, kind);
            let at = i * BATCH_SIZE;
            assert_eq!(
                chunk,
                Some(Batch::scan_chunk(kind, &rebuilt, at..at + rows.len())),
                "{context}: chunk {i} ({kind:?})"
            );
            let chunk = chunk.unwrap();
            if let Batch::Columnar(cb) = &chunk {
                let (origin, start) = cb.origin();
                assert!(
                    std::ptr::eq(origin.as_slice(), current.as_slice()),
                    "{context}: chunk {i} is cut from another set"
                );
                assert_eq!(start, i * BATCH_SIZE, "{context}: chunk {i}");
                if let Some(old) = retired.filter(|old| old.as_slice() != current.as_slice()) {
                    assert!(!std::ptr::eq(origin.as_slice(), old.as_slice()));
                }
            }
            assert_eq!(chunk.into_values(), rows.to_vec(), "{context}: chunk {i}");
        }
        assert_eq!(t.chunk(chunks.len(), kind), None, "{context}");
    }
}

/// Applies one step to `t`; `next_oid` hands out fresh identities. True
/// for a read, after which the caller checks the table.
fn apply(t: &mut Table, (kind, a, b): Step, next_oid: &mut u64) -> bool {
    let part = name("PART");
    match kind {
        // One to three fresh rows, landing before, inside or after.
        0..=4 => {
            for i in 0..=(a % 3) {
                *next_oid += 1 + a % 5;
                t.insert(&part, row(*next_oid, color(b + i as usize)))
                    .expect("fresh-oid insert");
            }
        }
        // A bulk write across several chunk boundaries, interleaved
        // with the rows already there.
        5 => {
            for i in 0..(BATCH_SIZE as u64 + a % 700) {
                *next_oid += 1;
                t.insert(&part, row(*next_oid, INSIDE[((a + i) % 3) as usize]))
                    .expect("fresh-oid insert");
            }
        }
        // An oid the table already holds: rejected.
        6 => {
            let held = t.oids().nth(a as usize % t.len().max(1));
            if let Some(oid) = held {
                let err = t.insert(&part, row(oid.0, color(b))).unwrap_err();
                assert!(matches!(err, CatalogError::DuplicateOid { .. }));
            }
        }
        // A row without the indexed colour: rejected.
        7 => {
            if !t.has_index("color") {
                t.create_index(&name("color")).unwrap();
            }
            *next_oid += 1;
            let bad = Tuple::from_pairs([("pid", Value::Oid(Oid(*next_oid)))]);
            let err = t.insert(&part, bad).unwrap_err();
            assert!(matches!(err, CatalogError::SchemaViolation { .. }));
        }
        // An index: a new version, the same rows.
        8 => t.create_index(&name(["color", "refs"][b % 2])).unwrap(),
        // A read of some chunks in either layout.
        9 | 10 => {
            let layout = [BatchKind::Columnar, BatchKind::Row][b % 2];
            read(t, layout, a.rotate_left(b as u32) ^ a);
            return true;
        }
        // A clone replaces the table: it carries no retired snapshot.
        _ => *t = t.clone(),
    }
    false
}

/// Runs `steps` on a table of `n` rows, checking it after every read.
/// The check reads a clone, so the table keeps the cells a partial read
/// left empty.
fn check_steps(n: u64, steps: &[Step]) {
    let mut t = table(n);
    let mut next_oid = 10_000_000;
    if n.is_multiple_of(2) {
        read(&t, BatchKind::Columnar, u64::MAX);
    }
    // the snapshot the last check saw, retired by any write since
    let mut seen: Option<Set> = None;
    for (i, &s) in steps.iter().enumerate() {
        if apply(&mut t, s, &mut next_oid) {
            assert_exact(&t.clone(), seen.as_ref(), &format!("after step {i}: {s:?}"));
            seen = Some(t.as_set().clone());
        }
    }
    assert_exact(&t, seen.as_ref(), "at the end");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn merged_snapshot_equals_a_rebuild(
        n in 0u64..2600,
        steps in proptest::collection::vec(step(), 1..16)
    ) {
        check_steps(n, &steps);
    }
}
