//! The Partitioned Nested-Hashed-Loops algorithm (\[DeLa92\], paper §6.2).
//!
//! Materializes a set-valued attribute by joining its elements with a flat
//! build table under a memory budget:
//!
//! > "The algorithm builds a hash table for those segments of operand
//! > PART that fit into main memory and then probes operand SUPPLIER
//! > against each segment of the hash table, thus building partial
//! > results. Partial results are merged in the second phase of the
//! > algorithm. […] in the PNHL algorithm, only the flat table can be the
//! > build table."
//!
//! The memory budget is modeled as a maximum number of build rows per
//! segment; each segment incurs a full probe pass over the outer operand,
//! exactly like the disk-constrained original. Compared with the
//! unnest–join–nest method it avoids duplicating the outer tuples'
//! remaining attributes and the final restructuring.

use super::MatchKeys;
use crate::eval::{Env, EvalError, Evaluator};
use crate::stats::Stats;
use oodb_value::fxhash::FxHashMap;
use oodb_value::{Name, Set, Tuple, Value};

/// Runs PNHL: for every outer tuple `x`, replaces `x.set_attr` by the set
/// of inner tuples `y` with `ikey(y) = ekey(e)` for some `e ∈ x.set_attr`.
/// Returns the output rows, which the streaming pipeline emits in
/// batches after the (inherently blocking) partitioned probe phases.
#[allow(clippy::too_many_arguments)]
pub fn pnhl_rows(
    outer: &Set,
    set_attr: &Name,
    inner: &Set,
    keys: &MatchKeys,
    budget: usize,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Vec<Value>, EvalError> {
    assert!(budget > 0, "PNHL budget must be positive");
    let inner_rows: Vec<&Value> = inner.iter().collect();

    // Phase 1: per segment of the (flat) build table, probe ALL outer
    // tuples and accumulate partial results indexed by outer position.
    let mut partial: Vec<Vec<Value>> = vec![Vec::new(); outer.len()];
    for segment in inner_rows.chunks(budget) {
        stats.partitions += 1;
        let mut table: FxHashMap<Value, Vec<&Value>> = FxHashMap::default();
        for y in segment {
            env.push(&keys.inner_var, (*y).clone());
            let k = ev.eval(&keys.inner_key, env, stats);
            env.pop();
            stats.hash_build_rows += 1;
            table.entry(k?).or_default().push(*y);
        }
        for (xi, x) in outer.iter().enumerate() {
            let elems = x.as_tuple()?.field(set_attr)?.as_set()?.clone();
            for e in elems.iter() {
                env.push(&keys.elem_var, e.clone());
                let k = ev.eval(&keys.elem_key, env, stats);
                env.pop();
                stats.hash_probes += 1;
                if let Some(matches) = table.get(&k?) {
                    partial[xi].extend(matches.iter().map(|y| (*y).clone()));
                }
            }
        }
    }

    // Phase 2: merge partial results per outer tuple.
    let mut out = Vec::with_capacity(outer.len());
    for (xi, x) in outer.iter().enumerate() {
        let merged = Set::from_values(std::mem::take(&mut partial[xi]));
        let t = x
            .as_tuple()?
            .except(&[(set_attr.clone(), Value::Set(merged))])
            .map_err(EvalError::Value)?;
        out.push(Value::Tuple(t));
    }
    Ok(out)
}

/// The unnest–join–nest alternative PNHL is measured against (§6.2):
/// conceptually `ν(μ(outer) ⋈ inner)`; implemented here directly for the
/// benchmark comparison. Note its structural defect: outer tuples whose
/// set is empty are *lost* by the unnest (and a nest cannot restore them),
/// so this helper additionally re-attaches them — the bookkeeping PNHL
/// never needs.
///
/// Unlike PNHL it ignores the memory budget: the whole flat table is
/// built at once, every outer element probes exactly one table, and the
/// unnest duplicates the outer tuple per element (the `loop_iterations`
/// it pays that PNHL does not). The cost-based planner picks it when a
/// tight budget would force PNHL through 3+ probe passes. Returns the
/// output rows, mirroring [`pnhl_rows`].
#[allow(clippy::too_many_arguments)]
pub fn unnest_join_rows(
    outer: &Set,
    set_attr: &Name,
    inner: &Set,
    keys: &MatchKeys,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Vec<Value>, EvalError> {
    // Build once (no memory budget — the comparison point).
    let mut table: FxHashMap<Value, Vec<&Value>> = FxHashMap::default();
    for y in inner.iter() {
        env.push(&keys.inner_var, y.clone());
        let k = ev.eval(&keys.inner_key, env, stats);
        env.pop();
        stats.hash_build_rows += 1;
        table.entry(k?).or_default().push(y);
    }
    // Unnest: one flat record per (outer, element) — this duplicates every
    // other outer attribute, which is PNHL's claimed saving.
    let mut out = Vec::with_capacity(outer.len());
    for x in outer.iter() {
        let xt = x.as_tuple()?;
        let elems = xt.field(set_attr)?.as_set()?.clone();
        let mut group: Vec<Value> = Vec::new();
        for e in elems.iter() {
            // the flattened record (materialized to model unnest cost)
            let _flat: Tuple = xt.without(set_attr);
            stats.loop_iterations += 1;
            env.push(&keys.elem_var, e.clone());
            let k = ev.eval(&keys.elem_key, env, stats);
            env.pop();
            stats.hash_probes += 1;
            if let Some(matches) = table.get(&k?) {
                group.extend(matches.iter().map(|y| (*y).clone()));
            }
        }
        // Nest phase (group-by on all non-set attributes).
        let t = xt
            .except(&[(set_attr.clone(), Value::Set(Set::from_values(group)))])
            .map_err(EvalError::Value)?;
        out.push(Value::Tuple(t));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::supplier_part_db;

    fn keys() -> MatchKeys {
        MatchKeys {
            elem_var: "e".into(),
            elem_key: var("e"),
            inner_var: "p".into(),
            inner_key: var("p").field("pid"),
        }
    }

    /// The output rows as the set the materialized executor returns.
    fn set_of(rows: Result<Vec<Value>, EvalError>) -> Value {
        Value::Set(Set::from_values(rows.unwrap()))
    }

    fn materialized_parts(v: &Value, sname: &str) -> Set {
        v.as_set()
            .unwrap()
            .iter()
            .find(|r| r.as_tuple().unwrap().get("sname") == Some(&Value::str(sname)))
            .unwrap()
            .as_tuple()
            .unwrap()
            .get("parts")
            .unwrap()
            .as_set()
            .unwrap()
            .clone()
    }

    #[test]
    fn pnhl_materializes_part_tuples() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let outer = db
            .table("SUPPLIER")
            .unwrap()
            .as_set_value()
            .into_set()
            .unwrap();
        let inner = db.table("PART").unwrap().as_set_value().into_set().unwrap();
        let mut env = Env::new();
        let mut stats = Stats::new();
        let v = set_of(pnhl_rows(
            &outer,
            &"parts".into(),
            &inner,
            &keys(),
            100,
            &ev,
            &mut env,
            &mut stats,
        ));
        // s1 gets its three part OBJECTS
        let s1_parts = materialized_parts(&v, "s1");
        assert_eq!(s1_parts.len(), 3);
        assert!(s1_parts
            .iter()
            .all(|p| p.as_tuple().unwrap().get("pname").is_some()));
        // s4 keeps an empty set; s5's dangling pointer just finds nothing
        assert!(materialized_parts(&v, "s4").is_empty());
        assert_eq!(materialized_parts(&v, "s5").len(), 1);
        assert_eq!(stats.partitions, 1);
    }

    #[test]
    fn smaller_budget_means_more_segments_same_answer() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let outer = db
            .table("SUPPLIER")
            .unwrap()
            .as_set_value()
            .into_set()
            .unwrap();
        let inner = db.table("PART").unwrap().as_set_value().into_set().unwrap();
        let mut env = Env::new();

        let mut wide = Stats::new();
        let v_wide = set_of(pnhl_rows(
            &outer,
            &"parts".into(),
            &inner,
            &keys(),
            100,
            &ev,
            &mut env,
            &mut wide,
        ));
        let mut tight = Stats::new();
        let v_tight = set_of(pnhl_rows(
            &outer,
            &"parts".into(),
            &inner,
            &keys(),
            2,
            &ev,
            &mut env,
            &mut tight,
        ));
        assert_eq!(v_wide, v_tight);
        assert_eq!(wide.partitions, 1);
        assert_eq!(tight.partitions, 4); // ⌈7 / 2⌉
        assert!(tight.hash_probes > wide.hash_probes);
    }

    #[test]
    fn unnest_join_nest_agrees_with_pnhl() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let outer = db
            .table("SUPPLIER")
            .unwrap()
            .as_set_value()
            .into_set()
            .unwrap();
        let inner = db.table("PART").unwrap().as_set_value().into_set().unwrap();
        let mut env = Env::new();
        let mut s1 = Stats::new();
        let a = set_of(pnhl_rows(
            &outer,
            &"parts".into(),
            &inner,
            &keys(),
            64,
            &ev,
            &mut env,
            &mut s1,
        ));
        let mut s2 = Stats::new();
        let b = set_of(unnest_join_rows(
            &outer,
            &"parts".into(),
            &inner,
            &keys(),
            &ev,
            &mut env,
            &mut s2,
        ));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let db = supplier_part_db();
        let ev = Evaluator::new(&db);
        let outer = db
            .table("SUPPLIER")
            .unwrap()
            .as_set_value()
            .into_set()
            .unwrap();
        let inner = db.table("PART").unwrap().as_set_value().into_set().unwrap();
        let mut env = Env::new();
        let mut stats = Stats::new();
        let _ = pnhl_rows(
            &outer,
            &"parts".into(),
            &inner,
            &keys(),
            0,
            &ev,
            &mut env,
            &mut stats,
        );
    }
}
