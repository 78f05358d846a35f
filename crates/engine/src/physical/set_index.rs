//! Set-index scans: `σ[x : x.a ⊇ E …](T)` answered from `T`'s
//! reverse-reference index instead of reading `T`.
//!
//! Every set-of-oid attribute of an extent carries an *element → owners*
//! index ([`Table::owners`]): for each oid, the ascending positions of
//! the objects whose set holds it. A selection whose first conjunct asks
//! a row's set for what an expression `E` free of the row gives —
//!
//! * `x.a ⊇ E`, `x.a ⊃ E`, `x.a = E` (and `E ⊆ x.a`, `E ⊂ x.a`): the
//!   row's set holds every element of `E`;
//! * `x.a ∋ e` (and `e ∈ x.a`): the row's set holds `e` —
//!
//! is planned as the unchanged [`PhysPlan::Filter`] over a
//! [`PhysPlan::SetIndexScan`] leaf. The leaf evaluates `E` once, looks
//! up each element's posting list, intersects them shortest first and
//! emits only the rows in the intersection. The filter re-checks the
//! whole predicate on those rows, so the leaf only has to emit a
//! superset of the rows that pass:
//!
//! * `E = ∅`, a value that is not a set, or an evaluation error reads the
//!   whole extent, and the filter's first row then raises the error the
//!   interpreter would have raised on it (`E` does not mention `x`, so
//!   every row raises the same one);
//! * an element with no postings (a dangling oid, or no oid at all)
//!   empties the intersection: no row holds it.
//!
//! Only the *first* conjunct is keyed on: the interpreter evaluates the
//! conjuncts left to right on every row, so an earlier conjunct could
//! raise an error on a row the index would skip.
//!
//! [`Table::owners`]: oodb_catalog::Table::owners
//! [`PhysPlan::Filter`]: super::PhysPlan::Filter
//! [`PhysPlan::SetIndexScan`]: super::PhysPlan::SetIndexScan

use super::operator::{Batch, ExecCtx, Operator, BATCH_SIZE};
use crate::bound::Bound;
use crate::eval::{Env, EvalError, Evaluator};
use crate::stats::Stats;
use oodb_adl::expr::{conjuncts, Expr};
use oodb_adl::vars::is_free_in;
use oodb_catalog::{Database, Table};
use oodb_value::{CmpOp, Name, SetCmpOp, Value};
use std::fmt;

/// What a [`PhysPlan::SetIndexScan`](super::PhysPlan::SetIndexScan)
/// asks of each row's set.
#[derive(Debug, Clone)]
pub enum SetKey {
    /// Every element of this set (`x.a ⊇ E`, `x.a ⊃ E`, `x.a = E`): the
    /// intersection of the elements' posting lists.
    AllOf(Expr),
    /// This one element (`x.a ∋ e`): its posting list.
    Element(Expr),
}

impl SetKey {
    /// The expression the scan evaluates once per open.
    pub fn expr(&self) -> &Expr {
        match self {
            SetKey::AllOf(e) | SetKey::Element(e) => e,
        }
    }

    /// The ascending positions of the rows of `table` whose `attr` can
    /// satisfy the key, given the key expression's value `probe` (see
    /// the module docs); `None` reads the whole extent. Charges one
    /// `index_probes` per posting list read.
    fn candidates(
        &self,
        table: &Table,
        attr: &str,
        probe: &Value,
        stats: &mut Stats,
    ) -> Option<Vec<usize>> {
        let mut owners = |elem: &Value| {
            stats.index_probes += 1;
            table.owners(attr, elem).unwrap_or_default()
        };
        let elems = match self {
            SetKey::Element(_) => return Some(owners(probe).to_vec()),
            SetKey::AllOf(_) => probe.as_set().ok().filter(|s| !s.is_empty())?,
        };
        let mut lists = Vec::with_capacity(elems.len());
        for elem in elems.iter() {
            let list = owners(elem);
            if list.is_empty() {
                return Some(Vec::new());
            }
            lists.push(list);
        }
        lists.sort_by_key(|l| l.len());
        let (shortest, rest) = lists.split_first().expect("E is not empty");
        let mut out = shortest.to_vec();
        for list in rest {
            out.retain(|p| list.binary_search(p).is_ok());
            if out.is_empty() {
                break;
            }
        }
        Some(out)
    }
}

impl fmt::Display for SetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetKey::AllOf(e) => write!(f, "⊇ {e}"),
            SetKey::Element(e) => write!(f, "∋ {e}"),
        }
    }
}

/// The attribute and key of a set-index scan for `σ[var : pred](T)` when
/// `pred`'s first conjunct is one of the module's shapes over an
/// attribute `table` keeps a reverse-reference index on.
pub(crate) fn set_index_key(pred: &Expr, var: &Name, table: &Table) -> Option<(Name, SetKey)> {
    use SetCmpOp::*;
    let first = *conjuncts(pred).first()?;
    // (the row's set, the other side, whether the other side is one element)
    let sides = match first {
        Expr::SetCmp(SupersetEq | Superset, s, e) | Expr::SetCmp(SubsetEq | Subset, e, s) => {
            vec![(s, e, false)]
        }
        Expr::SetCmp(SetEq, a, b) | Expr::Cmp(CmpOp::Eq, a, b) => {
            vec![(a, b, false), (b, a, false)]
        }
        Expr::SetCmp(Contains, s, e) | Expr::SetCmp(In, e, s) => vec![(s, e, true)],
        _ => return None,
    };
    sides.into_iter().find_map(|(set, other, element)| {
        let Expr::Field(row, attr) = &**set else {
            return None;
        };
        let own_row = matches!(&**row, Expr::Var(v) if v == var);
        if !own_row || !table.has_owner_index(attr) || is_free_in(var, other) {
            return None;
        }
        let other = (**other).clone();
        let key = if element {
            SetKey::Element(other)
        } else {
            SetKey::AllOf(other)
        };
        Some((attr.clone(), key))
    })
}

/// The extent a set-index scan reads, checked to carry the index on
/// `attr`. The planner only builds the scan over such an attribute, so a
/// failure means a hand-built or stale plan.
fn indexed_table<'db>(
    db: &'db Database,
    extent: &Name,
    attr: &Name,
) -> Result<&'db Table, EvalError> {
    let table = db
        .table(extent)
        .ok_or_else(|| EvalError::UnknownTable(extent.clone()))?;
    if !table.has_owner_index(attr) {
        return Err(EvalError::MissingIndex {
            extent: extent.clone(),
            attr: attr.clone(),
        });
    }
    Ok(table)
}

/// The candidate positions of one scan; `None` reads the whole extent.
/// Charges the rows the scan will emit to `rows_scanned`. `probe` is the
/// key expression's value, an error reading the whole extent too.
fn scan_rows(
    table: &Table,
    attr: &str,
    key: &SetKey,
    probe: Result<Value, EvalError>,
    stats: &mut Stats,
) -> Option<Vec<usize>> {
    let rows = probe
        .ok()
        .and_then(|v| key.candidates(table, attr, &v, stats));
    stats.rows_scanned += rows.as_ref().map_or(table.len(), Vec::len) as u64;
    rows
}

/// The materialized executor's set-index scan: the candidate rows as one
/// set, the key evaluated under `env`.
pub(crate) fn exec(
    extent: &Name,
    attr: &Name,
    key: &SetKey,
    ev: &Evaluator<'_>,
    env: &mut Env,
    stats: &mut Stats,
) -> Result<Value, EvalError> {
    let table = indexed_table(ev.db(), extent, attr)?;
    let probe = ev.eval(key.expr(), env, stats);
    Ok(match scan_rows(table, attr, key, probe, stats) {
        None => table.as_set_value(),
        Some(rows) => Value::set(table.rows_at(&rows).cloned().map(Value::Tuple)),
    })
}

/// Where a streaming set-index scan is.
enum Cursor {
    /// Reading the whole extent: the next scan chunk.
    Extent(usize),
    /// Emitting candidate positions from `.1` on.
    Rows(Vec<usize>, usize),
}

/// The streaming set-index scan. The key is bound with no row variables
/// (its free variables are outer slots, such as a hoisted `let`) and
/// evaluated on the first pull after each open, when the bindings of
/// the enclosing `let`s are in the environment.
pub(crate) struct SetIndexScanOp {
    extent: Name,
    attr: Name,
    key: SetKey,
    bound: Bound,
    /// `None` until the first pull.
    cursor: Option<Cursor>,
}

impl SetIndexScanOp {
    pub(crate) fn new(extent: &Name, attr: &Name, key: &SetKey) -> Self {
        SetIndexScanOp {
            extent: extent.clone(),
            attr: attr.clone(),
            bound: Bound::new(key.expr(), &[]),
            key: key.clone(),
            cursor: None,
        }
    }
}

impl Operator for SetIndexScanOp {
    fn open(&mut self, _ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.cursor = None;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        let table = indexed_table(ctx.ev.db(), &self.extent, &self.attr)?;
        let cursor = match &mut self.cursor {
            Some(cursor) => cursor,
            None => {
                let probe = self.bound.eval(&[], &ctx.ev, &mut ctx.env, ctx.stats);
                let rows = scan_rows(table, &self.attr, &self.key, probe, ctx.stats);
                self.cursor.insert(match rows {
                    None => Cursor::Extent(0),
                    Some(rows) => Cursor::Rows(rows, 0),
                })
            }
        };
        Ok(match cursor {
            Cursor::Extent(i) => {
                *i += 1;
                table.chunk(*i - 1, ctx.opts.batch_kind)
            }
            Cursor::Rows(rows, at) if *at < rows.len() => {
                let end = (*at + BATCH_SIZE).min(rows.len());
                let chunk = table.rows_at(&rows[*at..end]);
                *at = end;
                Some(Batch::from_rows(chunk.cloned().map(Value::Tuple).collect()))
            }
            Cursor::Rows(..) => None,
        })
    }

    fn close(&mut self, _ctx: &mut ExecCtx<'_, '_>) {
        self.cursor = None;
    }
}
