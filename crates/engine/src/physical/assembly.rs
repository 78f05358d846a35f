//! The materialize / assembly operator (\[BlMG93\], paper §6.2).
//!
//! "Object identifiers can be implemented either as physical or as
//! logical pointers. Implementing object identifiers as physical pointers
//! opens the way to new join implementation methods (pointer-based
//! joins). […] path expressions are represented by the operator
//! materialize […] implemented by an access algorithm called assembly, a
//! generalization of the concept of a pointer-based join."
//!
//! Our oids are physical in the relevant sense: every extent keeps an
//! oid → row index, so materializing a reference costs one hash lookup
//! instead of a join against the whole extent.

use crate::eval::EvalError;
use crate::stats::Stats;
use oodb_catalog::Database;
use oodb_value::{Name, Set, Value};

/// Replaces the oid-carrying attribute `attr` of every row in `batch`
/// with the referenced object(s) of `class`. Pointer dereferencing is
/// per-tuple work, so the streaming pipeline maps batches through this
/// without materializing its input. The caller is responsible for
/// checking that `class` exists.
///
/// * `set_valued = false`: `attr` holds one oid → it is replaced by the
///   referenced tuple. Dangling pointers raise
///   [`EvalError::DanglingPointer`].
/// * `set_valued = true`: `attr` holds a set of oids → it is replaced by
///   the set of referenced tuples; dangling pointers are silently dropped
///   (matching the semijoin semantics of element materialization, and the
///   membership nestjoin the rewriter makes of the same query).
pub fn assemble_batch(
    batch: &[Value],
    attr: &Name,
    class: &Name,
    set_valued: bool,
    db: &Database,
    stats: &mut Stats,
) -> Result<Vec<Value>, EvalError> {
    let mut out = Vec::with_capacity(batch.len());
    for x in batch {
        let t = x.as_tuple()?;
        let v = t.field(attr)?;
        let new_val = if set_valued {
            let oids = v.as_set()?;
            let mut objs = Vec::with_capacity(oids.len());
            for o in oids.iter() {
                let oid = o.as_oid()?;
                stats.oid_lookups += 1;
                if let Some(obj) = db.deref(class, oid) {
                    objs.push(Value::Tuple(obj.clone()));
                }
            }
            Value::Set(Set::from_values(objs))
        } else {
            let oid = v.as_oid()?;
            stats.oid_lookups += 1;
            match db.deref(class, oid) {
                Some(obj) => Value::Tuple(obj.clone()),
                None => {
                    return Err(EvalError::DanglingPointer {
                        class: class.clone(),
                        oid,
                    })
                }
            }
        };
        out.push(Value::Tuple(
            t.except(&[(attr.clone(), new_val)])
                .map_err(EvalError::Value)?,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::PhysPlan;
    use oodb_catalog::fixtures::supplier_part_db;

    #[test]
    fn assembles_single_references() {
        let db = supplier_part_db();
        let deliveries = db
            .table("DELIVERY")
            .unwrap()
            .as_set_value()
            .into_set()
            .unwrap();
        let mut stats = Stats::new();
        let v = assemble_batch(
            deliveries.as_slice(),
            &"supplier".into(),
            &"Supplier".into(),
            false,
            &db,
            &mut stats,
        )
        .unwrap();
        let v = Value::Set(Set::from_values(v));
        for row in v.as_set().unwrap().iter() {
            let sup = row.as_tuple().unwrap().get("supplier").unwrap();
            assert!(sup.as_tuple().unwrap().get("sname").is_some());
        }
        assert_eq!(stats.oid_lookups, 3);
    }

    #[test]
    fn assembles_set_references_dropping_dangling() {
        let db = supplier_part_db();
        let suppliers = db
            .table("SUPPLIER")
            .unwrap()
            .as_set_value()
            .into_set()
            .unwrap();
        let mut stats = Stats::new();
        let v = assemble_batch(
            suppliers.as_slice(),
            &"parts".into(),
            &"Part".into(),
            true,
            &db,
            &mut stats,
        )
        .unwrap();
        let v = Value::Set(Set::from_values(v));
        let s5 = v
            .as_set()
            .unwrap()
            .iter()
            .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str("s5")))
            .unwrap();
        // s5 referenced {@17, @999}: the dangling @999 is dropped
        let parts = s5
            .as_tuple()
            .unwrap()
            .get("parts")
            .unwrap()
            .as_set()
            .unwrap();
        assert_eq!(parts.len(), 1);
        // 2+2+4+0+2 pointers +? s1{3} s2{2} s3{4} s4{0} s5{2} = 11
        assert_eq!(stats.oid_lookups, 11);
    }

    #[test]
    fn dangling_single_reference_errors() {
        let db = supplier_part_db();
        let fake = Set::from_values(vec![Value::tuple([
            ("supplier", Value::Oid(oodb_value::Oid(4040))),
            ("k", Value::Int(1)),
        ])]);
        let mut stats = Stats::new();
        let err = assemble_batch(
            fake.as_slice(),
            &"supplier".into(),
            &"Supplier".into(),
            false,
            &db,
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::DanglingPointer { .. }));
    }

    #[test]
    fn unknown_class_errors() {
        // the executors check the class before calling the kernel
        let db = supplier_part_db();
        let plan = PhysPlan::Assemble {
            input: Box::new(PhysPlan::Literal(Value::empty_set())),
            attr: "x".into(),
            class: "Nope".into(),
            set_valued: false,
        };
        let mut stats = Stats::new();
        let err = plan.execute_on(&db, &mut stats).unwrap_err();
        assert!(matches!(err, EvalError::UnknownClass(_)));
    }
}
