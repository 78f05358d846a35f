//! `StatsCollector` is exact: after any interleaving of writes, what it
//! collects — by reusing, folding in appended rows, or walking an
//! extent afresh — equals what `CatalogStats::from_database` collects
//! by walking everything.
//!
//! The steps cover inserts into each extent (repeated and new strings,
//! empty and overlapping `parts`/`supply` sets), multi-row writes
//! between two collects, `create_index`, and rejected inserts
//! (colliding oids, ill-typed rows), on the paper's fixture and on a
//! scale-200 generated database.

use oodb_catalog::fixtures::supplier_part_db;
use oodb_catalog::{CatalogStats, Database, StatsCollector};
use oodb_datagen::{generate, GenConfig};
use oodb_value::{Oid, Tuple, Value};
use proptest::prelude::*;

const EXTENTS: [&str; 3] = ["SUPPLIER", "PART", "DELIVERY"];
const NAMES: [&str; 4] = ["bolt", "nut", "supplier-1", "red"];
/// Part oids of both databases, plus a dangling one.
const PARTS: [u64; 6] = [11, 12, 17, 999, 1_000_000, 1_000_003];

/// One random step: `(kind, extent, a, b, c)`, interpreted by [`apply`].
type Step = (u8, usize, u64, usize, usize);

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..3, 0u64..64, 0usize..8, 0usize..64)
}

/// A string: one of a few repeated ones, or a new one.
fn string(b: usize, fresh: u64) -> Value {
    match NAMES.get(b) {
        Some(s) => Value::str(s),
        None => Value::str(&format!("new-{fresh}")),
    }
}

/// The part oids picked by the bits of `mask` (empty for `0`).
fn part_refs(mask: usize) -> Vec<Value> {
    (0..PARTS.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| Value::Oid(Oid(PARTS[i])))
        .collect()
}

/// A schema-valid row of `extent` with identity `oid`.
fn row(extent: &str, oid: u64, a: u64, b: usize, c: usize) -> Tuple {
    let oid = Value::Oid(Oid(oid));
    match extent {
        "SUPPLIER" => Tuple::from_pairs([
            ("eid", oid),
            ("sname", string(b, a)),
            ("parts", Value::set(part_refs(c))),
        ]),
        "PART" => Tuple::from_pairs([
            ("pid", oid),
            ("pname", string(b, a)),
            ("price", Value::Int(a as i64 % 7)),
            ("color", string(c % 6, a)),
        ]),
        _ => Tuple::from_pairs([
            ("did", oid),
            ("supplier", Value::Oid(Oid(a % 4))),
            (
                "supply",
                Value::set(part_refs(c).into_iter().map(|part| {
                    Value::tuple([("part", part), ("quantity", Value::Int(b as i64))])
                })),
            ),
            ("date", Value::Date(940101 + a as i64 % 3)),
        ]),
    }
}

/// Applies one step to `db`; `next_oid` hands out fresh identities.
fn apply(db: &mut Database, (kind, e, a, b, c): Step, next_oid: &mut u64) {
    let extent = EXTENTS[e];
    match kind {
        // One to three fresh rows between two collects.
        0..=5 => {
            for i in 0..=(kind as u64 % 3) {
                *next_oid += 1;
                db.insert(extent, row(extent, *next_oid, a + i, b, c))
                    .expect("fresh-oid insert");
            }
        }
        // An oid the extent already holds: rejected.
        6 => {
            let table = db.table(extent).unwrap();
            let Some(oid) = table.oids().nth(a as usize % table.len().max(1)) else {
                return;
            };
            assert!(db.insert(extent, row(extent, oid.0, a, b, c)).is_err());
        }
        // An ill-typed row: rejected.
        7 => {
            *next_oid += 1;
            let bad = row(extent, *next_oid, a, b, c)
                .except(&[(db.table(extent).unwrap().identity().clone(), Value::Int(1))])
                .unwrap();
            assert!(db.insert(extent, bad).is_err());
        }
        // An index: a new version, the same rows.
        8 => {
            let class = db.catalog().class_by_extent(extent).unwrap();
            let attrs: Vec<_> = class.attrs.iter().map(|(n, _)| n.clone()).collect();
            db.create_index(extent, &attrs[c % attrs.len()]).unwrap();
        }
        // No write at all.
        _ => {}
    }
}

/// Runs `steps` on `db`, checking the collector after every one.
fn check_steps(collector: &mut StatsCollector, mut db: Database, steps: &[Step]) {
    let mut next_oid = 5_000_000;
    assert_eq!(collector.collect(&db), CatalogStats::from_database(&db));
    for (i, &s) in steps.iter().enumerate() {
        apply(&mut db, s, &mut next_oid);
        assert_eq!(
            collector.collect(&db),
            CatalogStats::from_database(&db),
            "after step {i}: {s:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn collector_equals_a_full_scan_on_the_fixture(
        steps in proptest::collection::vec(step(), 1..40)
    ) {
        check_steps(&mut StatsCollector::new(), supplier_part_db(), &steps);
    }

    #[test]
    fn collector_equals_a_full_scan_on_a_generated_database(
        steps in proptest::collection::vec(step(), 1..24)
    ) {
        let mut collector = StatsCollector::new();
        check_steps(&mut collector, generate(&GenConfig::scaled(200)), &steps);
        // The same collector on another, smaller database: every
        // extent shrank, so each is walked afresh.
        let other = supplier_part_db();
        prop_assert_eq!(collector.collect(&other), CatalogStats::from_database(&other));
    }
}

/// How many rows the collector walks: all of them on first sight, none
/// while nothing changed or after an index, every row of an extent on
/// its first change, and only the appended rows after that.
#[test]
fn collector_walks_each_row_once_per_change() {
    let mut db = supplier_part_db();
    let mut collector = StatsCollector::new();
    let walked = |c: &mut StatsCollector, db: &Database| {
        let before = c.rows_scanned();
        assert_eq!(c.collect(db), CatalogStats::from_database(db));
        c.rows_scanned() - before
    };
    assert_eq!(walked(&mut collector, &db), db.object_count() as u64);
    assert_eq!(collector.moved().len(), 3, "first sight moves every extent");
    assert_eq!(walked(&mut collector, &db), 0);
    assert!(collector.moved().is_empty());

    db.create_index("PART", "color").unwrap();
    assert_eq!(walked(&mut collector, &db), 0);
    assert_eq!(collector.moved(), [oodb_value::name("PART")]);

    db.insert("PART", row("PART", 100, 1, 0, 0)).unwrap();
    assert_eq!(walked(&mut collector, &db), 8, "first change: all of PART");
    for oid in 101..104 {
        db.insert("PART", row("PART", oid, 2, 5, 3)).unwrap();
    }
    assert_eq!(
        walked(&mut collector, &db),
        3,
        "then only what was appended"
    );
    assert_eq!(walked(&mut collector, &db), 0);
}
