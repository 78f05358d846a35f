//! Sort-merge implementation of the regular equi-join.
//!
//! Listed by the paper (§6) among the implementation choices the optimizer
//! gains by rewriting to joins. Both inputs are sorted by their key
//! vector; matching key groups produce the cross product of their tuples
//! (filtered by the residual predicate).

use crate::eval::{Env, EvalError, Evaluator};
use crate::stats::Stats;
use oodb_adl::expr::Expr;
use oodb_value::{Name, Set, Value};

/// The sort phase of the sort-merge join, holding both sorted runs and
/// the merge cursor. [`SortMergeState::next_chunk`] then emits matches
/// incrementally — the streaming `Operator` pipeline pulls one chunk
/// per batch instead of materializing the whole join result.
pub struct SortMergeState<V = Value> {
    ls: Vec<(Vec<Value>, V)>,
    rs: Vec<(Vec<Value>, V)>,
    i: usize,
    j: usize,
}

impl<V: std::borrow::Borrow<Value>> SortMergeState<V> {
    /// Evaluates and sorts both key runs (the blocking phase). Generic
    /// over row ownership: the streaming pipeline moves owned rows in
    /// (`V = Value`), the materialized entry point borrows its sets
    /// (`V = &Value`, zero copies).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        lvar: &Name,
        rvar: &Name,
        lkeys: &[Expr],
        rkeys: &[Expr],
        left: impl IntoIterator<Item = V>,
        right: impl IntoIterator<Item = V>,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Self, EvalError> {
        let mut ls = keyed(left, lkeys, lvar, ev, env, stats)?;
        let mut rs = keyed(right, rkeys, rvar, ev, env, stats)?;
        ls.sort_by(|a, b| a.0.cmp(&b.0));
        rs.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(SortMergeState { ls, rs, i: 0, j: 0 })
    }

    /// Advances the merge until at least `min_rows` output rows exist (or
    /// input is exhausted); `None` once fully drained. Equal-key groups
    /// are emitted whole, so a chunk can exceed `min_rows`.
    #[allow(clippy::too_many_arguments)]
    pub fn next_chunk(
        &mut self,
        lvar: &Name,
        rvar: &Name,
        residual: Option<&Expr>,
        min_rows: usize,
        ev: &Evaluator<'_>,
        env: &mut Env,
        stats: &mut Stats,
    ) -> Result<Option<Vec<Value>>, EvalError> {
        if self.i >= self.ls.len() || self.j >= self.rs.len() {
            return Ok(None);
        }
        let mut out = Vec::new();
        while self.i < self.ls.len() && self.j < self.rs.len() {
            match self.ls[self.i].0.cmp(&self.rs[self.j].0) {
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
                std::cmp::Ordering::Equal => {
                    // find the extent of the equal-key group on each side
                    let key = &self.ls[self.i].0;
                    let i_end = self.ls[self.i..]
                        .iter()
                        .take_while(|(k, _)| k == key)
                        .count()
                        + self.i;
                    let j_end = self.rs[self.j..]
                        .iter()
                        .take_while(|(k, _)| k == key)
                        .count()
                        + self.j;
                    for li in self.i..i_end {
                        for rj in self.j..j_end {
                            stats.loop_iterations += 1;
                            let x = self.ls[li].1.borrow();
                            let y = self.rs[rj].1.borrow();
                            let keep = match residual {
                                None => true,
                                Some(pred) => {
                                    stats.predicate_evals += 1;
                                    env.push(lvar, x.clone());
                                    env.push(rvar, y.clone());
                                    let r = ev.eval(pred, env, stats);
                                    env.pop();
                                    env.pop();
                                    r?.as_bool()?
                                }
                            };
                            if keep {
                                out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                            }
                        }
                    }
                    self.i = i_end;
                    self.j = j_end;
                    if out.len() >= min_rows {
                        return Ok(Some(out));
                    }
                }
            }
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }
}

/// Sort-merge inner join.
#[allow(clippy::too_many_arguments)]
pub fn sort_merge_join(
    lvar: &Name,
    rvar: &Name,
    lkeys: &[Expr],
    rkeys: &[Expr],
    residual: Option<&Expr>,
    left: &Set,
    right: &Set,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Value, EvalError> {
    let mut state = SortMergeState::build(
        lvar,
        rvar,
        lkeys,
        rkeys,
        left.iter(),
        right.iter(),
        ev,
        env,
        stats,
    )?;
    let mut out = Vec::new();
    while let Some(chunk) = state.next_chunk(lvar, rvar, residual, usize::MAX, ev, env, stats)? {
        out.extend(chunk);
    }
    Ok(Value::Set(Set::from_values(out)))
}

/// Pairs every tuple with its evaluated key vector.
fn keyed<V: std::borrow::Borrow<Value>>(
    s: impl IntoIterator<Item = V>,
    keys: &[Expr],
    var: &Name,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Vec<(Vec<Value>, V)>, EvalError> {
    let mut out = Vec::new();
    for v in s {
        env.push(var, v.borrow().clone());
        let mut key = Vec::with_capacity(keys.len());
        for k in keys {
            match ev.eval(k, env, stats) {
                Ok(kv) => key.push(kv),
                Err(e) => {
                    env.pop();
                    return Err(e);
                }
            }
        }
        env.pop();
        out.push((key, v));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::hashjoin::{HashMode, JoinFamily, JoinSpec};
    use oodb_adl::dsl::*;
    use oodb_adl::expr::JoinKind;
    use oodb_catalog::fixtures::figure3_db;

    #[test]
    fn agrees_with_hash_join() {
        let db = figure3_db();
        let ev = Evaluator::new(&db);
        let x = db.table("X").unwrap().as_set_value().into_set().unwrap();
        let y = db.table("Y").unwrap().as_set_value().into_set().unwrap();
        let lk = [var("x").field("b")];
        let rk = [var("y").field("d")];

        let mut env = Env::new();
        let mut s1 = Stats::new();
        let smj = sort_merge_join(
            &"x".into(),
            &"y".into(),
            &lk,
            &rk,
            None,
            &x,
            &y,
            &ev,
            &mut env,
            &mut s1,
        )
        .unwrap();

        let mut s2 = Stats::new();
        let hash = JoinSpec {
            family: JoinFamily::Equi {
                lkeys: lk.to_vec(),
                rkeys: rk.to_vec(),
            },
            mode: HashMode::Join {
                kind: JoinKind::Inner,
                right_attrs: Vec::new(),
            },
            lvar: "x".into(),
            rvar: "y".into(),
            residual: None,
        };
        let hj = hash.join_sets(&x, &y, &ev, &mut env, &mut s2).unwrap();
        assert_eq!(smj, hj);
        assert_eq!(smj.as_set().unwrap().len(), 4);
    }

    #[test]
    fn residual_applies_within_groups() {
        let db = figure3_db();
        let ev = Evaluator::new(&db);
        let x = db.table("X").unwrap().as_set_value().into_set().unwrap();
        let y = db.table("Y").unwrap().as_set_value().into_set().unwrap();
        let mut env = Env::new();
        let mut st = Stats::new();
        let v = sort_merge_join(
            &"x".into(),
            &"y".into(),
            &[var("x").field("b")],
            &[var("y").field("d")],
            Some(&lt(var("x").field("a"), var("y").field("c"))),
            &x,
            &y,
            &ev,
            &mut env,
            &mut st,
        )
        .unwrap();
        // matches on b=d=1: pairs (x1,y1),(x1,y2),(x2,y1),(x2,y2) — keep a<c:
        // (1,2) only... x1=(a=1) with y(c=2): 1<2 ✓; x1 with y(c=1): ✗;
        // x2=(a=2): 2<1 ✗, 2<2 ✗ → exactly 1 row
        assert_eq!(v.as_set().unwrap().len(), 1);
    }
}
