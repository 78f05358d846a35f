//! The streaming operator pipeline: `open` / `next_batch` / `close`.
//!
//! The materialized executor ([`PhysPlan::exec`]) builds a full
//! [`Value::Set`] at every operator boundary — faithful to the algebra,
//! but every selection, map and probe side pays an extra clone of its
//! whole input. This module is the set-oriented engine the paper argues
//! *for*, restructured as a pull-based (Volcano-with-batches) pipeline in
//! the style of risinglight's executor layer:
//!
//! * every physical operator implements [`Operator`] — `open` prepares
//!   children, `next_batch` yields up to [`BATCH_SIZE`] rows, `close`
//!   flushes per-operator statistics;
//! * **pipeline breakers are explicit**: hash-join build sides, sort
//!   runs, `ν`/aggregate/set-operation inputs and PNHL operands are
//!   drained into canonical [`Set`]s (preserving the algebra's
//!   deduplicating semantics), while selections, maps, projections,
//!   unnests, assembly and every join **probe side stream** batch by
//!   batch;
//! * each operator is wrapped in an `Instrument` shim recording
//!   rows/batches emitted into [`Stats::operators`].
//!
//! Entry point: [`PhysPlan::execute_streaming`], which
//! [`crate::plan::Plan::execute_streaming`] calls with the planner
//! configuration's [`ExecOptions`]; [`ResultStream`] is the same
//! pipeline pulled chunk by chunk.

use super::columnar::{simple_attr, MaskExpr};
use super::hashjoin::{self, HashJoinOp, HashMode};
use super::sortmerge::SortMergeState;
use super::{pnhl, spill_exec, MatchKeys, PhysPlan};
use crate::eval::{aggregate, nest_set, unnest_value, Env, EvalError, Evaluator};
use crate::stats::{OpStats, OpTiming, PlanOrdinal, Stats};
use oodb_adl::expr::{AggOp, Expr, JoinKind, SetOp};
use oodb_catalog::Database;
use oodb_spill::{MemoryBudget, SpillMetrics};
use oodb_value::fxhash::FxHashSet;
use oodb_value::{BatchKind, Name, Set, Value};
use std::time::Instant;

pub use oodb_value::batch::BATCH_SIZE;

/// One batch of rows flowing between operators — columnar by default,
/// legacy `Vec<Value>` rows under `BatchKind::Row` (see
/// [`oodb_value::batch`]).
pub use oodb_value::Batch;

/// A boxed operator node.
pub type BoxOp = Box<dyn Operator>;

/// How one streaming execution runs: the four execution-time values of
/// [`PlannerConfig`](crate::plan::PlannerConfig), carried as one value
/// from the planner configuration
/// ([`PlannerConfig::exec_options`](crate::plan::PlannerConfig::exec_options))
/// through [`PhysPlan::execute_streaming`] / [`ResultStream`] into every
/// operator's [`ExecCtx`]. Results and the classic work counters are
/// identical under every combination — the options only select
/// residency, layout and machinery.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// The memory budget pipeline state (hash tables, sort runs, PNHL
    /// segments) is held to; shared across the pipeline, divided into
    /// per-worker shares by the exchanges.
    pub budget: MemoryBudget,
    /// Which layout batch *sources* (scans, scalar-set streams,
    /// round-robin exchange gathers, spilled canonical-set runs) build
    /// their batches in — [`BatchKind::Columnar`] or the legacy boxed
    /// rows of [`BatchKind::Row`]. Layout-preserving transforms keep
    /// columnar batches columnar; operators that construct fresh rows
    /// (join outputs, blocking drains) emit row batches.
    pub batch_kind: BatchKind,
    /// Master switch for the vectorized fast paths: compiled selection
    /// masks, column-at-a-time transforms, columnar hash-join outputs
    /// and the streaming ν/`Agg` group tables. `false` forces every
    /// operator onto the row-interpreter / drain-to-set reference paths
    /// for differential testing.
    pub vectorize: bool,
    /// Capture per-operator wall-clock timings (`OpStats::timing`) in
    /// the instrumentation shim. `false` skips the monotonic-clock reads
    /// on the hot path; only the nanosecond totals stay zero.
    pub timing: bool,
}

/// Everything an operator needs at runtime: the expression interpreter
/// (for predicates, keys and map bodies), the variable environment, the
/// shared statistics sink, and the run's [`ExecOptions`].
pub struct ExecCtx<'db, 's> {
    /// Interpreter over the bound database.
    pub ev: Evaluator<'db>,
    /// Lexically scoped variable bindings.
    pub env: Env,
    /// Work counters shared by the whole pipeline.
    pub stats: &'s mut Stats,
    /// Budget, batch layout, vectorization and timing of this run.
    pub opts: ExecOptions,
}

/// A pull-based physical operator.
pub trait Operator {
    /// Prepares this operator and (recursively) its children. Blocking
    /// work (hash build, sorting) is deferred to the first
    /// [`Operator::next_batch`] so `open` stays cheap.
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError>;

    /// The next batch of rows; `None` once exhausted.
    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError>;

    /// Releases state and flushes instrumentation (idempotent).
    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>);

    /// True when this operator produces exactly one (possibly non-set)
    /// value instead of a stream of set elements.
    fn scalar(&self) -> bool {
        false
    }

    /// Spill I/O this operator performed (bytes written, partitions
    /// created, partitioning passes). Zero for operators that never
    /// touch the external-memory subsystem; the instrumentation shim
    /// copies it into the operator's [`OpStats`] entry.
    fn spill_metrics(&self) -> SpillMetrics {
        SpillMetrics::default()
    }

    /// Input batches a grouped breaker consumed **incrementally**
    /// (streaming ν / streaming `Agg`); zero for everything else. The
    /// instrumentation shim copies it into the operator's [`OpStats`]
    /// entry so EXPLAIN shows the streaming group table instead of an
    /// opaque drain.
    fn in_batches(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// Draining helpers (the explicit pipeline breakers).

pub(crate) fn drain_rows(
    op: &mut BoxOp,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Vec<Value>, EvalError> {
    let mut rows = Vec::new();
    while let Some(b) = op.next_batch(ctx)? {
        rows.extend(b.into_values());
    }
    Ok(rows)
}

fn drain_scalar(op: &mut BoxOp, ctx: &mut ExecCtx<'_, '_>) -> Result<Value, EvalError> {
    debug_assert!(op.scalar());
    let mut rows = drain_rows(op, ctx)?;
    // A scalar operator emits exactly one value. Zero means the child
    // was already exhausted (a retry after an error, or a state-machine
    // misuse); more than one means a non-scalar child was miswired.
    // Both used to panic here — return a defined error instead so the
    // pipeline can be closed and the failure reported.
    match rows.len() {
        1 => Ok(rows.pop().expect("len checked")),
        0 => Err(EvalError::OperatorProtocol(
            "scalar operator emitted no value (drained twice?)",
        )),
        _ => Err(EvalError::OperatorProtocol(
            "scalar operator emitted more than one value",
        )),
    }
}

/// Materializes a child as a canonical set — the deduplicating boundary
/// every blocking input goes through, mirroring `into_set()` on the
/// materialized path (including its error on non-set scalars). Under a
/// bounded memory budget the canonicalization runs as an external merge
/// sort: budget-sized runs are deduplicated, spilled, and k-way merged
/// (spill volume charged to `local`, i.e. the draining operator).
pub(crate) fn drain_to_set(
    op: &mut BoxOp,
    local: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Set, EvalError> {
    if op.scalar() {
        let v = drain_scalar(op, ctx)?;
        Ok(v.into_set()?)
    } else if ctx.opts.budget.is_bounded() {
        spill_exec::budgeted_canonical_set(op, local, ctx)
    } else {
        Ok(Set::from_values(drain_rows(op, ctx)?))
    }
}

/// Materializes a child as raw (possibly duplicate-bearing) rows for a
/// consumer that performs its own set dedupe — the keyed external merge
/// sort. Scalar children keep the set/error contract of
/// [`drain_to_set`]; their single set value is already canonical.
fn drain_raw(op: &mut BoxOp, ctx: &mut ExecCtx<'_, '_>) -> Result<Vec<Value>, EvalError> {
    if op.scalar() {
        Ok(drain_scalar(op, ctx)?.into_set()?.into_values())
    } else {
        drain_rows(op, ctx)
    }
}

/// Materializes a child as a single value (sets stay sets).
fn drain_value(op: &mut BoxOp, ctx: &mut ExecCtx<'_, '_>) -> Result<Value, EvalError> {
    if op.scalar() {
        drain_scalar(op, ctx)
    } else {
        Ok(Value::Set(Set::from_values(drain_rows(op, ctx)?)))
    }
}

/// Buffered rows emitted in [`BATCH_SIZE`] chunks (blocking operators'
/// output side). Owned rows are moved out chunk by chunk; a shared set
/// is cut into chunks in place, so buffering it copies nothing.
#[derive(Debug)]
pub(crate) struct Buffered {
    rows: Rows,
    pos: usize,
}

#[derive(Debug)]
enum Rows {
    Owned(Vec<Value>),
    Shared(Set),
}

impl Buffered {
    pub(crate) fn new(rows: Vec<Value>) -> Self {
        Buffered {
            rows: Rows::Owned(rows),
            pos: 0,
        }
    }

    /// Every chunk of a shared set, in canonical order.
    pub(crate) fn shared(set: Set) -> Self {
        Buffered {
            rows: Rows::Shared(set),
            pos: 0,
        }
    }

    pub(crate) fn next_chunk(&mut self, kind: BatchKind) -> Option<Batch> {
        let total = match &self.rows {
            Rows::Owned(v) => v.len(),
            Rows::Shared(s) => s.len(),
        };
        if self.pos >= total {
            return None;
        }
        let end = (self.pos + BATCH_SIZE).min(total);
        let chunk: Vec<Value> = match &mut self.rows {
            // Move rows out (leaving cheap `Null`s) — each buffered row
            // is emitted exactly once.
            Rows::Owned(v) => v[self.pos..end]
                .iter_mut()
                .map(|v| std::mem::replace(v, Value::Null))
                .collect(),
            Rows::Shared(s) => s.as_slice()[self.pos..end].to_vec(),
        };
        self.pos = end;
        Some(Batch::of(kind, chunk))
    }
}

// ---------------------------------------------------------------------
// Instrumentation.

/// Lifecycle of an instrumented operator. The shim enforces the
/// `open → next_batch* → close` protocol at one chokepoint so the inner
/// state machines (`expect("built above")`, `expect("drained above")`)
/// can never be reached through a misuse path: pulling before `open` or
/// after `close` returns [`EvalError::OperatorProtocol`] instead of
/// re-running (or panicking in) stale inner state, and an exhausted
/// stream is fused — further pulls yield `None` without polling the
/// inner operator again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InstrState {
    /// Compiled, `open` not yet called.
    Created,
    /// Open and streaming.
    Open,
    /// Inner stream returned `None`; fused.
    Exhausted,
    /// Closed; only `open` may revive it.
    Closed,
}

/// Wraps every compiled operator, counting rows/batches emitted and
/// reporting them into [`Stats::operators`] when the stream ends.
struct Instrument {
    label: String,
    /// The plan node's pre-order ordinal, reported with the entry.
    ordinal: usize,
    inner: BoxOp,
    rows_out: u64,
    batches: u64,
    reported: bool,
    state: InstrState,
    /// Wall-clock accumulators (see [`OpTiming`]): inclusive of the
    /// whole subtree below this shim, Postgres-style, because the clock
    /// brackets the inner call which recursively pulls its children.
    /// Stay zero unless `ExecCtx::timing`.
    timing: OpTiming,
    /// Index of the [`OpStats`] entry `report` pushed, so `close` can
    /// fold its own duration into an entry that was already published
    /// at exhaustion (entries are append-only during a run, so the
    /// index stays valid).
    pushed: Option<usize>,
}

impl Instrument {
    fn new(label: String, ordinal: usize, inner: BoxOp) -> Self {
        Instrument {
            label,
            ordinal,
            inner,
            rows_out: 0,
            batches: 0,
            reported: false,
            state: InstrState::Created,
            timing: OpTiming::default(),
            pushed: None,
        }
    }

    fn report(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        if !self.reported {
            self.reported = true;
            let spill = self.inner.spill_metrics();
            self.pushed = Some(ctx.stats.operators.len());
            ctx.stats.operators.push(OpStats {
                op: self.label.clone(),
                rows_out: self.rows_out,
                batches: self.batches,
                in_batches: self.inner.in_batches(),
                spill_bytes: spill.bytes,
                spill_partitions: spill.partitions,
                spill_passes: spill.passes,
                timing: self.timing,
                ordinal: PlanOrdinal(self.ordinal),
            });
        }
    }
}

impl Operator for Instrument {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.rows_out = 0;
        self.batches = 0;
        self.reported = false;
        self.state = InstrState::Open;
        self.timing = OpTiming::default();
        self.pushed = None;
        if ctx.opts.timing {
            let t0 = Instant::now();
            let r = self.inner.open(ctx);
            self.timing.open_ns += t0.elapsed().as_nanos() as u64;
            r
        } else {
            self.inner.open(ctx)
        }
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        match self.state {
            InstrState::Open => {}
            InstrState::Exhausted => return Ok(None),
            InstrState::Created => {
                return Err(EvalError::OperatorProtocol("next_batch before open"))
            }
            InstrState::Closed => {
                return Err(EvalError::OperatorProtocol("next_batch after close"))
            }
        }
        let next = if ctx.opts.timing {
            let t0 = Instant::now();
            let r = self.inner.next_batch(ctx);
            let ns = t0.elapsed().as_nanos() as u64;
            self.timing.next_ns += ns;
            // no batch yet and not exhausted: this call is the first
            if self.batches == 0 {
                self.timing.first_ns = self.timing.open_ns + ns;
            }
            r
        } else {
            self.inner.next_batch(ctx)
        };
        match next? {
            Some(b) => {
                self.rows_out += b.len() as u64;
                self.batches += 1;
                Ok(Some(b))
            }
            None => {
                self.state = InstrState::Exhausted;
                self.report(ctx);
                Ok(None)
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.state = InstrState::Closed;
        // Report first (spill metrics are read before the inner state is
        // released), then fold the close duration back into the entry.
        self.report(ctx);
        if ctx.opts.timing {
            let t0 = Instant::now();
            self.inner.close(ctx);
            self.timing.close_ns += t0.elapsed().as_nanos() as u64;
            if let Some(entry) = self.pushed.and_then(|i| ctx.stats.operators.get_mut(i)) {
                entry.timing = self.timing;
            }
        } else {
            self.inner.close(ctx);
        }
    }

    fn scalar(&self) -> bool {
        self.inner.scalar()
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.inner.spill_metrics()
    }

    fn in_batches(&self) -> u64 {
        self.inner.in_batches()
    }
}

// ---------------------------------------------------------------------
// Leaf operators.

/// Base-table scan, emitted in batches: the table's own scan chunks
/// ([`oodb_catalog::Table::chunk`]), which it sorts and transposes once
/// per extent version, so a scan only clones them.
///
/// `(part, parts)` is the morsel stride: worker `part` of a round-robin
/// exchange takes exactly the chunks whose index is ≡ `part`
/// (mod `parts`), so every row is scanned by exactly one worker and
/// per-worker `rows_scanned` sums to the serial count. `(0, 1)` is the
/// ordinary serial scan.
struct ScanOp {
    table: Name,
    part: usize,
    parts: usize,
    /// The next chunk of the stride; `None` until the first pull.
    next: Option<usize>,
}

impl Operator for ScanOp {
    fn open(&mut self, _ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.next = None;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        let t = ctx
            .ev
            .db()
            .table(&self.table)
            .ok_or_else(|| EvalError::UnknownTable(self.table.clone()))?;
        let parts = self.parts.max(1);
        let i = match self.next {
            Some(i) => i,
            None => {
                let total = t.as_set().len();
                ctx.stats.rows_scanned += (self.part * BATCH_SIZE..total)
                    .step_by(parts * BATCH_SIZE)
                    .map(|start| (total - start).min(BATCH_SIZE))
                    .sum::<usize>() as u64;
                self.part
            }
        };
        self.next = Some(i + parts);
        // the chunk comes in the layout every operator above inherits
        Ok(t.chunk(i, ctx.opts.batch_kind))
    }

    fn close(&mut self, _ctx: &mut ExecCtx<'_, '_>) {
        self.next = None;
    }
}

/// What a scalar leaf computes.
enum ScalarKind {
    /// A constant.
    Literal(Value),
    /// An arbitrary expression handed to the reference evaluator.
    Eval(Expr),
    /// An aggregate over a drained child.
    Agg { op: AggOp, child: BoxOp },
}

/// Single-value producer (`Literal`, `Eval`, aggregates).
struct ScalarOp {
    kind: ScalarKind,
    done: bool,
    spill: SpillMetrics,
    in_batches: u64,
}

impl Operator for ScalarOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.done = false;
        self.in_batches = 0;
        if let ScalarKind::Agg { child, .. } = &mut self.kind {
            child.open(ctx)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let v = match &mut self.kind {
            ScalarKind::Literal(v) => v.clone(),
            ScalarKind::Eval(e) => ctx.ev.eval(e, &mut ctx.env, ctx.stats)?,
            ScalarKind::Agg { op, child } => {
                if ctx.opts.vectorize {
                    streaming_aggregate(*op, child, &mut self.in_batches, &mut self.spill, ctx)?
                } else {
                    let s = drain_to_set(child, &mut self.spill, ctx)?;
                    aggregate(*op, &s)?
                }
            }
        };
        Ok(Some(Batch::from_rows(vec![v])))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        if let ScalarKind::Agg { child, .. } = &mut self.kind {
            child.close(ctx);
        }
    }

    fn scalar(&self) -> bool {
        true
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }

    fn in_batches(&self) -> u64 {
        self.in_batches
    }
}

/// Streaming aggregation: consumes the child batch by batch instead of
/// draining it into a canonical set first.
///
/// * `min`/`max` keep a running extreme under **any** budget: the
///   extreme of the raw stream equals the extreme of its deduplicated
///   set, and the canonical `Set` order makes the reference `min`/`max`
///   exactly the `Value`-order extremes.
/// * `count`/`sum`/`avg` need the **distinct** values (sets
///   deduplicate). Under an unbounded budget they stream into an
///   incremental distinct table; `sum`/`avg` then finish through the
///   reference [`aggregate`] on the canonicalized distinct values,
///   preserving its fold order (float addition is order-sensitive) and
///   its exact error behavior. Under a bounded budget the distinct
///   table would be unbounded state, so they keep the spill-aware
///   canonical drain.
fn streaming_aggregate(
    op: AggOp,
    child: &mut BoxOp,
    in_batches: &mut u64,
    spill: &mut SpillMetrics,
    ctx: &mut ExecCtx<'_, '_>,
) -> Result<Value, EvalError> {
    if child.scalar() {
        // a scalar child is one set value, not a row stream; the drain
        // keeps its set/error contract
        return aggregate(op, &drain_to_set(child, spill, ctx)?);
    }
    match op {
        AggOp::Min | AggOp::Max => {
            let mut best: Option<Value> = None;
            while let Some(b) = child.next_batch(ctx)? {
                *in_batches += 1;
                for v in b.into_values() {
                    let better = match &best {
                        None => true,
                        Some(cur) if matches!(op, AggOp::Min) => v < *cur,
                        Some(cur) => v > *cur,
                    };
                    if better {
                        best = Some(v);
                    }
                }
            }
            best.ok_or(EvalError::Value(oodb_value::ValueError::EmptyAggregate(
                if matches!(op, AggOp::Min) {
                    "min"
                } else {
                    "max"
                },
            )))
        }
        AggOp::Count | AggOp::Sum | AggOp::Avg if !ctx.opts.budget.is_bounded() => {
            let mut distinct: FxHashSet<Value> = FxHashSet::default();
            while let Some(b) = child.next_batch(ctx)? {
                *in_batches += 1;
                for v in b.into_values() {
                    distinct.insert(v);
                }
            }
            if matches!(op, AggOp::Count) {
                return Ok(Value::Int(distinct.len() as i64));
            }
            aggregate(op, &Set::from_values(distinct.into_iter().collect()))
        }
        _ => aggregate(op, &drain_to_set(child, spill, ctx)?),
    }
}

/// Adapts a scalar child for a row-consuming parent: the single value
/// must be a set, whose elements become the stream.
struct ScalarRows {
    child: BoxOp,
    buf: Option<Buffered>,
}

impl Operator for ScalarRows {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.buf = None;
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if self.buf.is_none() {
            let v = drain_scalar(&mut self.child, ctx)?;
            self.buf = Some(Buffered::shared(v.into_set()?));
        }
        Ok(self
            .buf
            .as_mut()
            .expect("buffered above")
            .next_chunk(ctx.opts.batch_kind))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.buf = None;
        self.child.close(ctx);
    }
}

// ---------------------------------------------------------------------
// Streaming one-child transforms.

/// The per-row transforms that never block the pipeline.
enum RowTransform {
    /// `σ` — predicate filter. `mask` is the compiled selection-mask
    /// tree when the predicate is an `AND`/`OR`/`NOT` composition of
    /// simple conjuncts (`var.attr ⟨cmp⟩ literal`, `var.a ⟨cmp⟩ var.b`).
    Filter {
        var: Name,
        pred: Expr,
        mask: Option<MaskExpr>,
    },
    /// `α` — function application. `simple` names the attribute when the
    /// body is exactly `var.attr` (a column extraction).
    Map {
        var: Name,
        body: Expr,
        simple: Option<Name>,
    },
    /// `π`.
    Project { attrs: Vec<Name> },
    /// `ρ`.
    Rename { pairs: Vec<(Name, Name)> },
    /// `μ`.
    Unnest { attr: Name },
    /// `⋃` — every input row must itself be a set.
    Flatten,
}

/// Applies a [`RowTransform`] to each input batch as it streams past.
///
/// Columnar batches run column-at-a-time where the expression is a
/// simple attribute shape (filter on `x.a ⟨cmp⟩ lit`, map to `x.a`,
/// project, rename); anything else — or any irregularity the column
/// fast path cannot express (missing attributes, name collisions) —
/// falls back to the row view, which reproduces the reference
/// semantics and error messages exactly.
struct TransformOp {
    t: RowTransform,
    child: BoxOp,
}

impl TransformOp {
    /// The columnar fast path for this batch, if the transform shape and
    /// the batch layout both allow one. `None` falls through to
    /// [`TransformOp::apply_rows`].
    fn apply_columns(
        &self,
        batch: &Batch,
        ctx: &mut ExecCtx<'_, '_>,
    ) -> Result<Option<Batch>, EvalError> {
        if !ctx.opts.vectorize {
            return Ok(None); // kill-switch: every batch takes the row view
        }
        let Batch::Columnar(cb) = batch else {
            return Ok(None);
        };
        match &self.t {
            RowTransform::Filter {
                mask: Some(mask), ..
            } => match mask.eval_batch(cb, ctx.stats) {
                // unbound column: row view reports the NoSuchField
                None => Ok(None),
                Some(keep) => Ok(Some(Batch::Columnar(cb.filter(&keep?)))),
            },
            RowTransform::Map {
                simple: Some(attr), ..
            } => {
                let Some(col) = cb.column(attr) else {
                    return Ok(None);
                };
                ctx.stats.predicate_evals += cb.len() as u64;
                let out: Vec<Value> = (0..cb.len()).map(|i| col.value_at(i)).collect();
                Ok(Some(Batch::from_rows(out)))
            }
            RowTransform::Project { attrs } => Ok(cb.project(attrs).map(Batch::Columnar)),
            RowTransform::Rename { pairs } => Ok(cb.rename(pairs).map(Batch::Columnar)),
            _ => Ok(None),
        }
    }

    fn apply_rows(&self, batch: Vec<Value>, ctx: &mut ExecCtx<'_, '_>) -> Result<Batch, EvalError> {
        let mut out = Vec::with_capacity(batch.len());
        match &self.t {
            RowTransform::Filter { var, pred, .. } => {
                for elem in batch {
                    ctx.stats.predicate_evals += 1;
                    ctx.env.push(var, elem.clone());
                    let keep = ctx.ev.eval(pred, &mut ctx.env, ctx.stats);
                    ctx.env.pop();
                    if keep?.as_bool()? {
                        out.push(elem);
                    }
                }
            }
            RowTransform::Map { var, body, .. } => {
                for elem in batch {
                    ctx.stats.predicate_evals += 1;
                    ctx.env.push(var, elem);
                    let r = ctx.ev.eval(body, &mut ctx.env, ctx.stats);
                    ctx.env.pop();
                    out.push(r?);
                }
            }
            RowTransform::Project { attrs } => {
                for elem in &batch {
                    out.push(Value::Tuple(elem.as_tuple()?.subscript(attrs)?));
                }
            }
            RowTransform::Rename { pairs } => {
                for elem in &batch {
                    let mut t = elem.as_tuple()?.clone();
                    for (old, new) in pairs {
                        t = t.rename(old, new)?;
                    }
                    out.push(Value::Tuple(t));
                }
            }
            RowTransform::Unnest { attr } => {
                for elem in &batch {
                    unnest_value(elem, attr, &mut out)?;
                }
            }
            RowTransform::Flatten => {
                for elem in batch {
                    match elem {
                        Value::Set(s) => out.extend_from_slice(s.as_slice()),
                        other => {
                            return Err(EvalError::Value(oodb_value::ValueError::NotASet(
                                other.to_string(),
                            )))
                        }
                    }
                }
            }
        }
        Ok(Batch::from_rows(out))
    }

    fn apply(&self, batch: Batch, ctx: &mut ExecCtx<'_, '_>) -> Result<Batch, EvalError> {
        if let Some(out) = self.apply_columns(&batch, ctx)? {
            return Ok(out);
        }
        self.apply_rows(batch.into_values(), ctx)
    }
}

impl Operator for TransformOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        loop {
            let Some(batch) = self.child.next_batch(ctx)? else {
                return Ok(None);
            };
            let out = self.apply(batch, ctx)?;
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.child.close(ctx);
    }
}

/// Assembly (\[BlMG93\]): pointer dereferencing is per-tuple work, so the
/// operator streams its input through [`hashjoin`]-independent
/// [`super::assembly::assemble_batch`] calls.
struct AssembleOp {
    attr: Name,
    class: Name,
    set_valued: bool,
    checked: bool,
    child: BoxOp,
}

impl Operator for AssembleOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.checked = false;
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if !self.checked {
            ctx.ev
                .db()
                .catalog()
                .class(&self.class)
                .ok_or_else(|| EvalError::UnknownClass(self.class.clone()))?;
            self.checked = true;
        }
        loop {
            let Some(batch) = self.child.next_batch(ctx)? else {
                return Ok(None);
            };
            let rows = batch.into_values();
            let out = super::assembly::assemble_batch(
                &rows,
                &self.attr,
                &self.class,
                self.set_valued,
                ctx.ev.db(),
                ctx.stats,
            )?;
            if !out.is_empty() {
                return Ok(Some(Batch::from_rows(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.child.close(ctx);
    }
}

// ---------------------------------------------------------------------
// Blocking one/two-child operators.

/// What a blocking (fully materializing) operator computes.
enum BlockingKind {
    /// `ν` — grouping needs the whole input.
    Nest {
        attrs: Vec<Name>,
        as_attr: Name,
        child: BoxOp,
    },
    /// `∪ ∩ −` over two drained sets.
    SetOp {
        op: SetOp,
        left: BoxOp,
        right: BoxOp,
    },
    /// PNHL — both operands drained, output emitted in batches.
    Pnhl {
        outer: BoxOp,
        set_attr: Name,
        inner: BoxOp,
        keys: Box<MatchKeys>,
        budget: usize,
    },
    /// Unnest–join–nest materialization — both operands drained, output
    /// emitted in batches.
    UnnestJoin {
        outer: BoxOp,
        set_attr: Name,
        inner: BoxOp,
        keys: Box<MatchKeys>,
    },
}

/// Drains its input(s), computes, then emits the result in batches.
struct BlockingOp {
    kind: BlockingKind,
    buf: Option<Buffered>,
    spill: SpillMetrics,
    in_batches: u64,
}

impl Operator for BlockingOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.buf = None;
        self.in_batches = 0;
        match &mut self.kind {
            BlockingKind::Nest { child, .. } => child.open(ctx),
            BlockingKind::SetOp { left, right, .. } => {
                left.open(ctx)?;
                right.open(ctx)
            }
            BlockingKind::Pnhl { outer, inner, .. }
            | BlockingKind::UnnestJoin { outer, inner, .. } => {
                outer.open(ctx)?;
                inner.open(ctx)
            }
        }
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if self.buf.is_none() {
            let spill = &mut self.spill;
            let in_batches = &mut self.in_batches;
            let buf = match &mut self.kind {
                BlockingKind::Nest {
                    attrs,
                    as_attr,
                    child,
                } => {
                    if ctx.opts.vectorize && !child.scalar() {
                        // streaming ν: the group table reads the child
                        // batch by batch — no canonical-set drain. The
                        // final Set::from_values canonicalizes exactly
                        // like the reference nest_set output.
                        let budget = ctx.opts.budget.clone();
                        let mut nest = spill_exec::StreamingNest::new(as_attr, &budget);
                        while let Some(b) = child.next_batch(ctx)? {
                            *in_batches += 1;
                            for row in b.into_values() {
                                nest.push(&row, attrs)?;
                            }
                        }
                        let grouped = nest.finish(spill, ctx.stats)?;
                        Buffered::shared(Set::from_values(grouped))
                    } else {
                        let s = drain_to_set(child, spill, ctx)?;
                        Buffered::shared(nest_set(&s, attrs, as_attr)?.into_set()?)
                    }
                }
                BlockingKind::SetOp { op, left, right } => {
                    let l = drain_to_set(left, spill, ctx)?;
                    let r = drain_to_set(right, spill, ctx)?;
                    let out = match op {
                        SetOp::Union => l.union(&r),
                        SetOp::Intersect => l.intersect(&r),
                        SetOp::Difference => l.difference(&r),
                    };
                    Buffered::shared(out)
                }
                BlockingKind::Pnhl {
                    outer,
                    set_attr,
                    inner,
                    keys,
                    budget,
                } => {
                    let o = drain_to_set(outer, spill, ctx)?;
                    let i = drain_to_set(inner, spill, ctx)?;
                    if ctx.opts.budget.is_bounded() {
                        // spill-backed PNHL: probe partitions persist
                        // through the SpillManager instead of
                        // re-scanning every outer element per segment
                        let budget = ctx.opts.budget.clone();
                        Buffered::new(spill_exec::pnhl_spill_rows(
                            &o, set_attr, &i, keys, &budget, spill, ctx,
                        )?)
                    } else {
                        Buffered::new(pnhl::pnhl_rows(
                            &o,
                            set_attr,
                            &i,
                            keys,
                            *budget,
                            &ctx.ev,
                            &mut ctx.env,
                            ctx.stats,
                        )?)
                    }
                }
                BlockingKind::UnnestJoin {
                    outer,
                    set_attr,
                    inner,
                    keys,
                } => {
                    let o = drain_to_set(outer, spill, ctx)?;
                    let i = drain_to_set(inner, spill, ctx)?;
                    Buffered::new(pnhl::unnest_join_rows(
                        &o,
                        set_attr,
                        &i,
                        keys,
                        &ctx.ev,
                        &mut ctx.env,
                        ctx.stats,
                    )?)
                }
            };
            self.buf = Some(buf);
        }
        Ok(self
            .buf
            .as_mut()
            .expect("buffered above")
            .next_chunk(BatchKind::Row))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.buf = None;
        match &mut self.kind {
            BlockingKind::Nest { child, .. } => child.close(ctx),
            BlockingKind::SetOp { left, right, .. } => {
                left.close(ctx);
                right.close(ctx);
            }
            BlockingKind::Pnhl { outer, inner, .. }
            | BlockingKind::UnnestJoin { outer, inner, .. } => {
                outer.close(ctx);
                inner.close(ctx);
            }
        }
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }

    fn in_batches(&self) -> u64 {
        self.in_batches
    }
}

/// `let` — runs the value subplan once, then streams the body with the
/// binding pushed around each pull (strict scoping: the binding never
/// leaks into sibling subtrees between pulls).
struct LetOp {
    var: Name,
    value: BoxOp,
    body: BoxOp,
    bound: Option<Value>,
}

impl Operator for LetOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.bound = None;
        self.value.open(ctx)?;
        self.body.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if self.bound.is_none() {
            self.bound = Some(drain_value(&mut self.value, ctx)?);
        }
        // Move the binding in for the pull and take it back afterwards,
        // so the body streams with no buffering and no per-pull deep
        // clone. The restore must not trust the body to have left the
        // stack balanced: an operator failing mid-batch (e.g. a probe
        // side erroring) may leak frames, and a panic here would tear
        // down the whole pipeline. Instead, remember the depth of our
        // own frame and unwind back to it.
        let v = match self.bound.take() {
            Some(v) => v,
            // A previous pull failed while draining the value subplan
            // and the caller retried: surface a defined error.
            None => {
                return Err(EvalError::OperatorProtocol(
                    "let binding unavailable after a failed pull",
                ))
            }
        };
        let base = ctx.env.depth();
        ctx.env.push(&self.var, v);
        let r = self.body.next_batch(ctx);
        // Pop any frames the body leaked above ours…
        while ctx.env.depth() > base + 1 {
            ctx.env.pop();
        }
        // …then reclaim our binding — but only if our frame is still
        // there. An underflow (the body popped *through* our binding)
        // must not steal an enclosing scope's frame; report it instead,
        // preferring the body's own error.
        if ctx.env.depth() == base + 1 {
            if let Some((name, v)) = ctx.env.pop_binding() {
                if name == self.var {
                    self.bound = Some(v);
                    return r;
                }
            }
        }
        r.and(Err(EvalError::OperatorProtocol(
            "let body consumed the binding frame",
        )))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.bound = None;
        self.value.close(ctx);
        self.body.close(ctx);
    }

    fn scalar(&self) -> bool {
        self.body.scalar()
    }
}

// ---------------------------------------------------------------------
// Joins: build once, stream the probe side.

/// Extended Cartesian product: right side drained, left side streamed.
struct ProductOp {
    left: BoxOp,
    right: BoxOp,
    right_set: Option<Set>,
    spill: SpillMetrics,
}

impl Operator for ProductOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.right_set = None;
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if self.right_set.is_none() {
            self.right_set = Some(drain_to_set(&mut self.right, &mut self.spill, ctx)?);
        }
        let r = self.right_set.as_ref().expect("drained above");
        loop {
            let Some(batch) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            // every row is concatenated |r| times: materialize the rows
            // once up front
            let rows = batch.into_values();
            let mut out = Vec::with_capacity(rows.len() * r.len());
            for x in &rows {
                for y in r.iter() {
                    ctx.stats.loop_iterations += 1;
                    out.push(Value::Tuple(x.as_tuple()?.concat(y.as_tuple()?)?));
                }
            }
            if !out.is_empty() {
                return Ok(Some(Batch::from_rows(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.right_set = None;
        self.left.close(ctx);
        self.right.close(ctx);
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }
}

/// Index nested-loop join: the left side streams, each row probing the
/// right extent's secondary hash index.
struct IndexNLJoinOp {
    kind: JoinKind,
    lvar: Name,
    rvar: Name,
    lkey: Expr,
    attr: Name,
    extent: Name,
    residual: Option<Expr>,
    right_attrs: Vec<Name>,
    checked: bool,
    left: BoxOp,
}

impl Operator for IndexNLJoinOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.checked = false;
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if !self.checked {
            // Resolve the extent before the first pull so an unknown
            // table errors even when the probe side is empty, exactly
            // like the materialized path.
            ctx.ev
                .db()
                .table(&self.extent)
                .ok_or_else(|| EvalError::UnknownTable(self.extent.clone()))?;
            self.checked = true;
        }
        loop {
            let Some(batch) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            let out = hashjoin::index_nl_join_batch(
                self.kind,
                &self.lvar,
                &self.rvar,
                &self.lkey,
                &self.attr,
                &self.extent,
                self.residual.as_ref(),
                &self.right_attrs,
                (&batch).into(),
                &ctx.ev,
                &mut ctx.env,
                ctx.stats,
            )?;
            if !out.is_empty() {
                return Ok(Some(Batch::from_rows(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.left.close(ctx);
    }
}

/// Nested-loop fallback (join and nestjoin): the right side is drained
/// once, the left side streams against it.
struct NLJoinOp {
    mode: HashMode,
    lvar: Name,
    rvar: Name,
    pred: Expr,
    left: BoxOp,
    right: BoxOp,
    right_set: Option<Set>,
    spill: SpillMetrics,
}

impl Operator for NLJoinOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.right_set = None;
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if self.right_set.is_none() {
            self.right_set = Some(drain_to_set(&mut self.right, &mut self.spill, ctx)?);
        }
        loop {
            let Some(batch) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            let r = self.right_set.as_ref().expect("drained above");
            let out = match &self.mode {
                HashMode::Join { kind, right_attrs } => hashjoin::nl_join_batch(
                    *kind,
                    &self.lvar,
                    &self.rvar,
                    &self.pred,
                    right_attrs,
                    (&batch).into(),
                    r,
                    &ctx.ev,
                    &mut ctx.env,
                    ctx.stats,
                )?,
                HashMode::Nest { rfunc, as_attr } => hashjoin::nl_nestjoin_batch(
                    &self.lvar,
                    &self.rvar,
                    &self.pred,
                    rfunc.as_ref(),
                    as_attr,
                    (&batch).into(),
                    r,
                    &ctx.ev,
                    &mut ctx.env,
                    ctx.stats,
                )?,
            };
            if !out.is_empty() {
                return Ok(Some(Batch::from_rows(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.right_set = None;
        self.left.close(ctx);
        self.right.close(ctx);
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }
}

/// How a sort-merge join holds its sorted inputs.
enum SmjState {
    /// Inputs not yet drained.
    Pending,
    /// Fully in-memory sorted runs with an incremental merge cursor
    /// (the unbounded path).
    InMem(SortMergeState),
    /// External merge sort ran under the budget; output buffered.
    External(Buffered),
}

/// Sort-merge join: both runs sorted up front (the blocking phase), then
/// match groups are emitted chunk by chunk from the merge cursor. Under
/// a bounded memory budget each side sorts in budget-sized spilled runs
/// that are k-way merged (see [`spill_exec::external_sort_merge_join`]).
struct SortMergeJoinOp {
    lvar: Name,
    rvar: Name,
    lkeys: Vec<Expr>,
    rkeys: Vec<Expr>,
    residual: Option<Expr>,
    left: BoxOp,
    right: BoxOp,
    state: SmjState,
    spill: SpillMetrics,
}

impl Operator for SortMergeJoinOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.state = SmjState::Pending;
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if matches!(self.state, SmjState::Pending) {
            self.state = if ctx.opts.budget.is_bounded() {
                // raw drains: the canonical-set dedupe is folded into
                // the keyed external merge (runs deduplicate before
                // each spill, the group cursor drops cross-run
                // duplicates), so each side spills once instead of
                // paying a separate canonicalize-and-spill pass first
                let l = drain_raw(&mut self.left, ctx)?;
                let r = drain_raw(&mut self.right, ctx)?;
                let budget = ctx.opts.budget.clone();
                let rows = spill_exec::external_sort_merge_join(
                    &self.lvar,
                    &self.rvar,
                    &self.lkeys,
                    &self.rkeys,
                    self.residual.as_ref(),
                    l,
                    r,
                    &budget,
                    &mut self.spill,
                    ctx,
                )?;
                SmjState::External(Buffered::new(rows))
            } else {
                let l = drain_to_set(&mut self.left, &mut self.spill, ctx)?;
                let r = drain_to_set(&mut self.right, &mut self.spill, ctx)?;
                SmjState::InMem(SortMergeState::build(
                    &self.lvar,
                    &self.rvar,
                    &self.lkeys,
                    &self.rkeys,
                    l.into_values(),
                    r.into_values(),
                    &ctx.ev,
                    &mut ctx.env,
                    ctx.stats,
                )?)
            };
        }
        match &mut self.state {
            SmjState::External(buf) => Ok(buf.next_chunk(BatchKind::Row)),
            SmjState::InMem(state) => {
                let rows = state.next_chunk(
                    &self.lvar,
                    &self.rvar,
                    self.residual.as_ref(),
                    BATCH_SIZE,
                    &ctx.ev,
                    &mut ctx.env,
                    ctx.stats,
                )?;
                Ok(rows.map(Batch::from_rows))
            }
            SmjState::Pending => unreachable!("resolved above"),
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.state = SmjState::Pending;
        self.left.close(ctx);
        self.right.close(ctx);
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }
}

// ---------------------------------------------------------------------
// Compilation.

impl PhysPlan {
    /// Compiles this plan into a streaming operator tree. Every node is
    /// wrapped in an instrumentation shim that records rows/batches
    /// emitted into [`Stats::operators`] under the node's pre-order
    /// ordinal (the root is 0).
    pub fn compile(&self) -> BoxOp {
        self.compile_stride(0, 0, 1)
    }

    /// Compiles the node at pre-order ordinal `ord` with a morsel stride:
    /// base scans in per-row segments emit only the batches worker `part`
    /// of `parts` owns (see [`ScanOp`]). The round-robin exchange
    /// compiles one clone of its segment per worker through this entry
    /// point; `(0, 1)` is the ordinary serial compilation.
    pub(crate) fn compile_stride(&self, ord: usize, part: usize, parts: usize) -> BoxOp {
        match self {
            // A round-robin exchange runs its own instrumented workers
            // and merges their reports by label; wrapping the exchange
            // itself would double-count every segment operator.
            PhysPlan::Exchange {
                partitioning: super::Partitioning::RoundRobin,
                ..
            } => self.compile_node(ord, part, parts),
            // A hash exchange *replaces* the join node it wraps, so it
            // reports under the join's own label and ordinal — serial and
            // parallel plans keep identical per-operator profiles.
            PhysPlan::Exchange {
                partitioning: super::Partitioning::Hash,
                input,
                ..
            } => Box::new(Instrument::new(
                input.op_label(),
                ord + 1,
                self.compile_node(ord, part, parts),
            )),
            // A literal contributes no work of its own; leaving it
            // uninstrumented keeps profiles identical whether a value
            // was computed inline or substituted from a memo (the
            // server's let-spine memoization relies on this).
            PhysPlan::Literal(_) => self.compile_node(ord, part, parts),
            _ => Box::new(Instrument::new(
                self.op_label(),
                ord,
                self.compile_node(ord, part, parts),
            )),
        }
    }

    /// Compiles a child whose parent consumes rows: scalar-shaped nodes
    /// are adapted so their single set value streams as elements.
    pub(crate) fn compile_rows(&self, ord: usize, part: usize, parts: usize) -> BoxOp {
        let op = self.compile_stride(ord, part, parts);
        if op.scalar() {
            Box::new(ScalarRows {
                child: op,
                buf: None,
            })
        } else {
            op
        }
    }

    /// Compiles one node. The stride propagates only through the
    /// operators a round-robin segment may contain (per-row transforms,
    /// assembly, scans); everything else — joins, blocking operators,
    /// `let`, scalars — compiles its children serially, so a stride can
    /// never split the two sides of a join inconsistently.
    fn compile_node(&self, ord: usize, part: usize, parts: usize) -> BoxOp {
        let kids = self.child_ordinals(ord);
        match self {
            PhysPlan::Scan(name) => Box::new(ScanOp {
                table: name.clone(),
                part,
                parts,
                next: None,
            }),
            PhysPlan::Literal(v) => Box::new(ScalarOp {
                kind: ScalarKind::Literal(v.clone()),
                done: false,
                spill: SpillMetrics::default(),
                in_batches: 0,
            }),
            PhysPlan::Eval(e) => Box::new(ScalarOp {
                kind: ScalarKind::Eval(e.clone()),
                done: false,
                spill: SpillMetrics::default(),
                in_batches: 0,
            }),
            PhysPlan::AggNode { op, input } => Box::new(ScalarOp {
                kind: ScalarKind::Agg {
                    op: *op,
                    child: input.compile_rows(kids[0], 0, 1),
                },
                done: false,
                spill: SpillMetrics::default(),
                in_batches: 0,
            }),
            PhysPlan::Filter { var, pred, input } => Box::new(TransformOp {
                t: RowTransform::Filter {
                    var: var.clone(),
                    pred: pred.clone(),
                    mask: MaskExpr::compile(var, pred),
                },
                child: input.compile_rows(kids[0], part, parts),
            }),
            PhysPlan::MapOp { var, body, input } => Box::new(TransformOp {
                t: RowTransform::Map {
                    var: var.clone(),
                    body: body.clone(),
                    simple: simple_attr(body, var).cloned(),
                },
                child: input.compile_rows(kids[0], part, parts),
            }),
            PhysPlan::ProjectOp { attrs, input } => Box::new(TransformOp {
                t: RowTransform::Project {
                    attrs: attrs.clone(),
                },
                child: input.compile_rows(kids[0], part, parts),
            }),
            PhysPlan::RenameOp { pairs, input } => Box::new(TransformOp {
                t: RowTransform::Rename {
                    pairs: pairs.clone(),
                },
                child: input.compile_rows(kids[0], part, parts),
            }),
            PhysPlan::UnnestOp { attr, input } => Box::new(TransformOp {
                t: RowTransform::Unnest { attr: attr.clone() },
                child: input.compile_rows(kids[0], part, parts),
            }),
            PhysPlan::FlattenOp { input } => Box::new(TransformOp {
                t: RowTransform::Flatten,
                child: input.compile_rows(kids[0], part, parts),
            }),
            PhysPlan::NestOp {
                attrs,
                as_attr,
                input,
            } => Box::new(BlockingOp {
                kind: BlockingKind::Nest {
                    attrs: attrs.clone(),
                    as_attr: as_attr.clone(),
                    child: input.compile_rows(kids[0], 0, 1),
                },
                buf: None,
                spill: SpillMetrics::default(),
                in_batches: 0,
            }),
            PhysPlan::SetOpNode { op, left, right } => Box::new(BlockingOp {
                kind: BlockingKind::SetOp {
                    op: *op,
                    left: left.compile_rows(kids[0], 0, 1),
                    right: right.compile_rows(kids[1], 0, 1),
                },
                buf: None,
                spill: SpillMetrics::default(),
                in_batches: 0,
            }),
            PhysPlan::Pnhl {
                outer,
                set_attr,
                inner,
                keys,
                budget,
            } => Box::new(BlockingOp {
                kind: BlockingKind::Pnhl {
                    outer: outer.compile_rows(kids[0], 0, 1),
                    set_attr: set_attr.clone(),
                    inner: inner.compile_rows(kids[1], 0, 1),
                    keys: Box::new(keys.clone()),
                    budget: *budget,
                },
                buf: None,
                spill: SpillMetrics::default(),
                in_batches: 0,
            }),
            PhysPlan::UnnestJoin {
                outer,
                set_attr,
                inner,
                keys,
            } => Box::new(BlockingOp {
                kind: BlockingKind::UnnestJoin {
                    outer: outer.compile_rows(kids[0], 0, 1),
                    set_attr: set_attr.clone(),
                    inner: inner.compile_rows(kids[1], 0, 1),
                    keys: Box::new(keys.clone()),
                },
                buf: None,
                spill: SpillMetrics::default(),
                in_batches: 0,
            }),
            PhysPlan::LetOp { var, value, body } => Box::new(LetOp {
                var: var.clone(),
                value: value.compile_stride(kids[0], 0, 1),
                body: body.compile_stride(kids[1], 0, 1),
                bound: None,
            }),
            PhysPlan::ProductOp { left, right } => Box::new(ProductOp {
                left: left.compile_rows(kids[0], 0, 1),
                right: right.compile_rows(kids[1], 0, 1),
                right_set: None,
                spill: SpillMetrics::default(),
            }),
            PhysPlan::HashJoin { .. }
            | PhysPlan::HashNestJoin { .. }
            | PhysPlan::HashMemberJoin { .. }
            | PhysPlan::MemberNestJoin { .. } => {
                Box::new(HashJoinOp::from_plan(self, ord, 1).expect("a hash-family join node"))
            }
            PhysPlan::IndexNLJoin {
                kind,
                lvar,
                rvar,
                lkey,
                attr,
                extent,
                residual,
                right_attrs,
                left,
            } => Box::new(IndexNLJoinOp {
                kind: *kind,
                lvar: lvar.clone(),
                rvar: rvar.clone(),
                lkey: lkey.clone(),
                attr: attr.clone(),
                extent: extent.clone(),
                residual: residual.clone(),
                right_attrs: right_attrs.clone(),
                checked: false,
                left: left.compile_rows(kids[0], 0, 1),
            }),
            PhysPlan::NLJoin {
                kind,
                lvar,
                rvar,
                pred,
                right_attrs,
                left,
                right,
            } => Box::new(NLJoinOp {
                mode: HashMode::Join {
                    kind: *kind,
                    right_attrs: right_attrs.clone(),
                },
                lvar: lvar.clone(),
                rvar: rvar.clone(),
                pred: pred.clone(),
                left: left.compile_rows(kids[0], 0, 1),
                right: right.compile_rows(kids[1], 0, 1),
                right_set: None,
                spill: SpillMetrics::default(),
            }),
            PhysPlan::NLNestJoin {
                lvar,
                rvar,
                pred,
                rfunc,
                as_attr,
                left,
                right,
            } => Box::new(NLJoinOp {
                mode: HashMode::Nest {
                    rfunc: rfunc.clone(),
                    as_attr: as_attr.clone(),
                },
                lvar: lvar.clone(),
                rvar: rvar.clone(),
                pred: pred.clone(),
                left: left.compile_rows(kids[0], 0, 1),
                right: right.compile_rows(kids[1], 0, 1),
                right_set: None,
                spill: SpillMetrics::default(),
            }),
            PhysPlan::SortMergeJoin {
                lvar,
                rvar,
                lkeys,
                rkeys,
                residual,
                left,
                right,
            } => Box::new(SortMergeJoinOp {
                lvar: lvar.clone(),
                rvar: rvar.clone(),
                lkeys: lkeys.clone(),
                rkeys: rkeys.clone(),
                residual: residual.clone(),
                left: left.compile_rows(kids[0], 0, 1),
                right: right.compile_rows(kids[1], 0, 1),
                state: SmjState::Pending,
                spill: SpillMetrics::default(),
            }),
            PhysPlan::Assemble {
                input,
                attr,
                class,
                set_valued,
            } => Box::new(AssembleOp {
                attr: attr.clone(),
                class: class.clone(),
                set_valued: *set_valued,
                checked: false,
                child: input.compile_rows(kids[0], part, parts),
            }),
            PhysPlan::Exchange {
                partitioning,
                dop,
                input,
            } => super::exchange::compile_exchange(*partitioning, *dop, input, kids[0]),
        }
    }

    /// Short operator label used by the per-operator statistics.
    pub fn op_label(&self) -> String {
        match self {
            PhysPlan::Scan(n) => format!("Scan({n})"),
            PhysPlan::Literal(_) => "Literal".into(),
            PhysPlan::Eval(_) => "Eval".into(),
            PhysPlan::Filter { .. } => "Filter".into(),
            PhysPlan::MapOp { .. } => "Map".into(),
            PhysPlan::ProjectOp { .. } => "Project".into(),
            PhysPlan::RenameOp { .. } => "Rename".into(),
            PhysPlan::UnnestOp { attr, .. } => format!("Unnest({attr})"),
            PhysPlan::NestOp { as_attr, .. } => format!("Nest({as_attr})"),
            PhysPlan::FlattenOp { .. } => "Flatten".into(),
            PhysPlan::SetOpNode { op, .. } => format!("SetOp({})", op.symbol()),
            PhysPlan::AggNode { op, .. } => format!("Agg({})", op.name()),
            PhysPlan::LetOp { var, .. } => format!("Let({var})"),
            PhysPlan::ProductOp { .. } => "Product".into(),
            PhysPlan::HashJoin { kind, .. } => format!("HashJoin({kind:?})"),
            PhysPlan::HashMemberJoin { kind, .. } => format!("HashMemberJoin({kind:?})"),
            PhysPlan::IndexNLJoin { kind, .. } => format!("IndexNLJoin({kind:?})"),
            PhysPlan::NLJoin { kind, .. } => format!("NLJoin({kind:?})"),
            PhysPlan::SortMergeJoin { .. } => "SortMergeJoin".into(),
            PhysPlan::HashNestJoin { as_attr, .. } => format!("HashNestJoin({as_attr})"),
            PhysPlan::MemberNestJoin { as_attr, .. } => format!("MemberNestJoin({as_attr})"),
            PhysPlan::NLNestJoin { as_attr, .. } => format!("NLNestJoin({as_attr})"),
            PhysPlan::Pnhl { set_attr, .. } => format!("PNHL({set_attr})"),
            PhysPlan::UnnestJoin { set_attr, .. } => format!("UnnestJoin({set_attr})"),
            PhysPlan::Assemble { attr, class, .. } => format!("Assemble({attr}->{class})"),
            PhysPlan::Exchange {
                partitioning, dop, ..
            } => format!("Exchange({partitioning:?},{dop})"),
        }
    }
}

/// Where a [`ResultStream`] is in its lifecycle.
enum StreamState {
    /// Compiled, not yet opened — the first [`ResultStream::next_chunk`]
    /// opens the root.
    Created,
    /// Open and producing chunks.
    Streaming,
    /// Exhausted, failed, or closed; `next_chunk` returns `Ok(None)`.
    Done,
}

/// A pull-based cursor over one plan execution — `open` (implicit on the
/// first pull) / [`ResultStream::next_chunk`] / [`ResultStream::close`],
/// mirroring the [`Operator`] contract one level up. This is the handoff
/// the serving layer consumes: each call pulls exactly one batch out of
/// the pipeline, so a consumer can ship the first chunk before the plan
/// has finished executing — nothing here materializes the result set.
///
/// The stream owns its execution state ([`Stats`], [`Env`], the compiled
/// operator tree) and borrows only the database, so it can outlive the
/// plan it was compiled from. Chunks are *raw* pipeline output: they may
/// carry duplicates and arrive in pipeline order — the canonical
/// (deduplicated) set is whatever [`Set::from_values`] makes of their
/// concatenation, which is exactly how [`PhysPlan::execute_streaming`]
/// assembles it.
pub struct ResultStream<'db> {
    root: BoxOp,
    db: &'db Database,
    env: Env,
    stats: Stats,
    opts: ExecOptions,
    scalar: bool,
    state: StreamState,
}

impl<'db> ResultStream<'db> {
    /// Compiles `plan` into a cursor. Nothing executes until the first
    /// [`ResultStream::next_chunk`] (which opens the root), so creation
    /// is cheap and infallible.
    pub fn with_options(
        plan: &PhysPlan,
        db: &'db Database,
        opts: ExecOptions,
    ) -> ResultStream<'db> {
        let root = plan.compile();
        let scalar = root.scalar();
        ResultStream {
            root,
            db,
            env: Env::new(),
            stats: Stats::default(),
            opts,
            scalar,
            state: StreamState::Created,
        }
    }

    /// [`ResultStream::with_options`] with the [`ExecOptions`] spelled
    /// out positionally.
    pub fn new(
        plan: &PhysPlan,
        db: &'db Database,
        budget: MemoryBudget,
        batch_kind: BatchKind,
        vectorize: bool,
        timing: bool,
    ) -> ResultStream<'db> {
        let opts = ExecOptions {
            budget,
            batch_kind,
            vectorize,
            timing,
        };
        ResultStream::with_options(plan, db, opts)
    }

    /// True when the root produces exactly one (possibly non-set) value;
    /// such a stream yields exactly one single-row chunk.
    pub fn scalar(&self) -> bool {
        self.scalar
    }

    /// True once the stream has been exhausted, failed, or closed.
    pub fn finished(&self) -> bool {
        matches!(self.state, StreamState::Done)
    }

    /// Execution statistics accumulated so far (complete once the stream
    /// is finished). `output_rows` is *not* set here — only whoever
    /// assembles the canonical result knows the deduplicated cardinality.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Builds a per-call [`ExecCtx`] around the stream's owned state and
    /// runs `f` with it. The [`Evaluator`] is a cheap wrapper over the
    /// database reference and [`ExecOptions`] is stateless
    /// configuration, so rebuilding both per pull costs nothing; the
    /// environment is threaded through by value so bindings survive
    /// across pulls.
    fn with_ctx<T>(&mut self, f: impl FnOnce(&mut BoxOp, &mut ExecCtx<'_, '_>) -> T) -> T {
        let env = std::mem::replace(&mut self.env, Env::new());
        let mut ctx = ExecCtx {
            ev: Evaluator::new(self.db),
            env,
            stats: &mut self.stats,
            opts: self.opts.clone(),
        };
        let out = f(&mut self.root, &mut ctx);
        self.env = std::mem::replace(&mut ctx.env, Env::new());
        out
    }

    /// Pulls the next non-empty chunk out of the pipeline. `Ok(None)`
    /// once exhausted (the stream closes itself); an error also closes
    /// the stream, and every later call returns `Ok(None)`.
    pub fn next_chunk(&mut self) -> Result<Option<Batch>, EvalError> {
        loop {
            match self.state {
                StreamState::Done => return Ok(None),
                StreamState::Created => {
                    match self.with_ctx(|root, ctx| root.open(ctx)) {
                        Ok(()) => self.state = StreamState::Streaming,
                        Err(e) => {
                            // Parity with the historical collect-all
                            // path: a failed open is not followed by
                            // close (the root never opened).
                            self.state = StreamState::Done;
                            return Err(e);
                        }
                    }
                }
                StreamState::Streaming => {
                    if self.scalar {
                        let r = self.with_ctx(drain_scalar);
                        self.close();
                        return r.map(|v| Some(Batch::from_rows(vec![v])));
                    }
                    match self.with_ctx(|root, ctx| root.next_batch(ctx)) {
                        Ok(Some(b)) if b.is_empty() => continue,
                        Ok(Some(b)) => return Ok(Some(b)),
                        Ok(None) => {
                            self.close();
                            return Ok(None);
                        }
                        Err(e) => {
                            self.close();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Drains the stream to completion, assembling the same value the
    /// collect-all executor produces: scalar roots return their single
    /// value, row roots a canonical (deduplicated) set.
    pub fn drain_value(&mut self) -> Result<Value, EvalError> {
        if self.scalar {
            let chunk = self.next_chunk()?.ok_or(EvalError::OperatorProtocol(
                "scalar stream yielded no chunk",
            ))?;
            let mut rows = chunk.into_values();
            debug_assert_eq!(rows.len(), 1);
            rows.pop().ok_or(EvalError::OperatorProtocol(
                "scalar stream yielded an empty chunk",
            ))
        } else {
            let mut rows = Vec::new();
            while let Some(b) = self.next_chunk()? {
                rows.extend(b.into_values());
            }
            Ok(Value::Set(Set::from_values(rows)))
        }
    }

    /// Closes the root (releasing operator state and flushing
    /// instrumentation) if it was opened. Idempotent; also runs on drop.
    pub fn close(&mut self) {
        if matches!(self.state, StreamState::Streaming) {
            self.with_ctx(|root, ctx| root.close(ctx));
        }
        self.state = StreamState::Done;
    }
}

impl Drop for ResultStream<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinAlgo, Planner, PlannerConfig};
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{figure3_db, supplier_part_db};

    /// The process-default options — whatever layout / budget /
    /// vectorization the CI pass configured through `PlannerConfig`.
    fn default_opts() -> ExecOptions {
        PlannerConfig::default().exec_options()
    }

    /// [`default_opts`] for the hand-built contexts below: the pass's
    /// batch layout, but always in-memory and vectorized.
    fn unbounded_opts() -> ExecOptions {
        ExecOptions {
            budget: MemoryBudget::unbounded(),
            vectorize: true,
            ..default_opts()
        }
    }

    fn both_paths(db: &Database, e: &Expr) -> (Value, Stats, Value, Stats) {
        let plan = Planner::new(db).plan(e).unwrap();
        let mut ms = Stats::new();
        let materialized = plan.execute(&mut ms).unwrap();
        let mut ss = Stats::new();
        let streamed = plan.execute_streaming(&mut ss).unwrap();
        (materialized, ms, streamed, ss)
    }

    #[test]
    fn streaming_agrees_on_scan_filter_map() {
        let db = supplier_part_db();
        let e = map(
            "p",
            var("p").field("pname"),
            select(
                "p",
                eq(var("p").field("color"), str_lit("red")),
                table("PART"),
            ),
        );
        let (m, ms, s, ss) = both_paths(&db, &e);
        assert_eq!(m, s);
        // identical classic work profile…
        assert_eq!(ms.rows_scanned, ss.rows_scanned);
        assert_eq!(ms.predicate_evals, ss.predicate_evals);
        // …plus the per-operator profile only streaming records
        assert!(ms.operators.is_empty());
        assert_eq!(
            ss.operators.len(),
            3,
            "scan, filter, map: {:?}",
            ss.operators
        );
        let scan = ss.operator("Scan(PART)").unwrap();
        assert_eq!(scan.rows_out, 7);
        assert_eq!(scan.batches, 1);
        let filter = ss.operator("Filter").unwrap();
        assert_eq!(filter.rows_out, 3);
    }

    #[test]
    fn streaming_agrees_on_every_join_algorithm() {
        let db = figure3_db();
        let e = join(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
            let planner = Planner::with_config(
                &db,
                PlannerConfig {
                    join_algo: algo,
                    ..Default::default()
                },
            );
            let plan = planner.plan(&e).unwrap();
            let mut ms = Stats::new();
            let m = plan.execute(&mut ms).unwrap();
            let mut ss = Stats::new();
            let s = plan.execute_streaming(&mut ss).unwrap();
            assert_eq!(m, s, "algo {algo:?}");
            assert!(!ss.operators.is_empty(), "algo {algo:?} not instrumented");
        }
    }

    #[test]
    fn streaming_agrees_on_member_semijoin_with_probe_stats() {
        let db = supplier_part_db();
        let e = semijoin(
            "s",
            "p",
            and(
                member(var("p").field("pid"), var("s").field("parts")),
                eq(var("p").field("color"), str_lit("red")),
            ),
            table("SUPPLIER"),
            table("PART"),
        );
        let (m, ms, s, ss) = both_paths(&db, &e);
        assert_eq!(m, s);
        assert_eq!(ms.hash_build_rows, ss.hash_build_rows);
        assert_eq!(ms.hash_probes, ss.hash_probes);
        assert_eq!(ss.loop_iterations, 0);
        let join_op = ss.operator("HashMemberJoin").unwrap();
        assert_eq!(join_op.rows_out, 3); // s1, s2, s3
    }

    #[test]
    fn streaming_agrees_on_nestjoin_pnhl_and_assembly() {
        let db = supplier_part_db();
        // membership nestjoin (Example Query 6 shape)
        let nj = nestjoin_with(
            "s",
            "p",
            member(var("p").field("pid"), var("s").field("parts")),
            var("p").field("pname"),
            "pnames",
            table("SUPPLIER"),
            table("PART"),
        );
        let (m, _, s, ss) = both_paths(&db, &nj);
        assert_eq!(m, s);
        assert_eq!(ss.operator("MemberNestJoin").unwrap().rows_out, 5);

        // §6.2 materialization: assembly (identity key) and PNHL
        let mat = map(
            "s",
            except(
                var("s"),
                vec![(
                    "parts",
                    select(
                        "p",
                        member(var("p").field("pid"), var("s").field("parts")),
                        table("PART"),
                    ),
                )],
            ),
            table("SUPPLIER"),
        );
        let (m2, _, s2, ss2) = both_paths(&db, &mat);
        assert_eq!(m2, s2);
        assert!(ss2.operator("Assemble").is_some(), "{:?}", ss2.operators);

        let pnhl_planner = Planner::with_config(
            &db,
            PlannerConfig {
                // rule-based so `prefer_assembly: false` really forces PNHL
                cost_based: false,
                prefer_assembly: false,
                pnhl_budget: 2,
                // the assertion below counts the *row*-budget segments;
                // a byte budget (e.g. CI's OODB_MEMORY_BUDGET pass)
                // would switch to the spill-backed PNHL instead
                memory_budget: 0,
                ..Default::default()
            },
        );
        let plan = pnhl_planner.plan(&mat).unwrap();
        let mut ss3 = Stats::new();
        let s3 = plan.execute_streaming(&mut ss3).unwrap();
        assert_eq!(m2, s3);
        assert!(ss3.operator("PNHL").is_some(), "{:?}", ss3.operators);
        assert_eq!(ss3.partitions, 4); // ⌈7 / 2⌉ segments
    }

    #[test]
    fn scalar_roots_return_plain_values() {
        let db = supplier_part_db();
        let count_plan = PhysPlan::AggNode {
            op: oodb_adl::AggOp::Count,
            input: Box::new(PhysPlan::Scan("PART".into())),
        };
        let mut stats = Stats::new();
        let v = count_plan
            .execute_streaming(&db, &mut stats, &default_opts())
            .unwrap();
        assert_eq!(v, Value::Int(7));
        // aggregates drain their input through the instrumented pipeline
        assert!(stats.operator("Scan(PART)").is_some());

        let lit = PhysPlan::Literal(Value::str("hello"));
        let mut s2 = Stats::new();
        assert_eq!(
            lit.execute_streaming(&db, &mut s2, &default_opts())
                .unwrap(),
            Value::str("hello")
        );
    }

    #[test]
    fn let_bindings_stay_scoped_to_the_body() {
        let db = supplier_part_db();
        let e = let_(
            "reds",
            map(
                "p",
                var("p").field("pid"),
                select(
                    "p",
                    eq(var("p").field("color"), str_lit("red")),
                    table("PART"),
                ),
            ),
            select(
                "s",
                exists("x", var("s").field("parts"), member(var("x"), var("reds"))),
                table("SUPPLIER"),
            ),
        );
        let (m, _, s, ss) = both_paths(&db, &e);
        assert_eq!(m, s);
        assert_eq!(s.as_set().unwrap().len(), 3);
        assert!(ss.operator("Let(reds)").is_some(), "{:?}", ss.operators);
    }

    #[test]
    fn large_scans_stream_in_multiple_batches() {
        use oodb_catalog::fixtures::supplier_part_catalog;
        use oodb_value::{Oid, Tuple};
        let mut db = Database::new(supplier_part_catalog()).unwrap();
        let n = 3 * BATCH_SIZE + 17;
        for i in 0..n {
            db.insert(
                "PART",
                Tuple::from_pairs([
                    ("pid", Value::Oid(Oid(1_000_000 + i as u64))),
                    ("pname", Value::str(&format!("part-{i}"))),
                    ("price", Value::Int((i % 97) as i64)),
                    ("color", Value::str(if i % 3 == 0 { "red" } else { "blue" })),
                ]),
            )
            .unwrap();
        }
        let e = select("p", lt(var("p").field("price"), int(50)), table("PART"));
        let plan = Planner::new(&db).plan(&e).unwrap();
        let mut ss = Stats::new();
        let got = plan.execute_streaming(&mut ss).unwrap();
        let scan = ss.operator("Scan(PART)").unwrap();
        assert_eq!(scan.rows_out, n as u64);
        assert_eq!(scan.batches, 4, "expected ⌈{n}/{BATCH_SIZE}⌉ batches");
        let filter = ss.operator("Filter").unwrap();
        assert!(filter.batches >= 2);
        assert_eq!(got.as_set().unwrap().len(), filter.rows_out as usize);
        // agrees with the materialized path
        let mut ms = Stats::new();
        assert_eq!(plan.execute(&mut ms).unwrap(), got);
    }

    #[test]
    fn product_and_setop_stream_correctly() {
        let db = supplier_part_db();
        let prod = PhysPlan::ProductOp {
            left: Box::new(PhysPlan::ProjectOp {
                attrs: vec!["eid".into()],
                input: Box::new(PhysPlan::Scan("SUPPLIER".into())),
            }),
            right: Box::new(PhysPlan::ProjectOp {
                attrs: vec!["pid".into()],
                input: Box::new(PhysPlan::Scan("PART".into())),
            }),
        };
        let mut ss = Stats::new();
        let v = prod
            .execute_streaming(&db, &mut ss, &default_opts())
            .unwrap();
        assert_eq!(v.as_set().unwrap().len(), 35);
        assert_eq!(ss.loop_iterations, 35);

        let inter = PhysPlan::SetOpNode {
            op: SetOp::Intersect,
            left: Box::new(PhysPlan::Filter {
                var: "p".into(),
                pred: eq(var("p").field("color"), str_lit("red")),
                input: Box::new(PhysPlan::Scan("PART".into())),
            }),
            right: Box::new(PhysPlan::Filter {
                var: "p".into(),
                pred: lt(var("p").field("price"), int(8)),
                input: Box::new(PhysPlan::Scan("PART".into())),
            }),
        };
        let mut s2 = Stats::new();
        let v2 = inter
            .execute_streaming(&db, &mut s2, &default_opts())
            .unwrap();
        assert_eq!(v2.as_set().unwrap().len(), 1); // screw (red, 7)
    }

    #[test]
    fn index_nl_join_streams_with_index_probes() {
        let mut db = supplier_part_db();
        db.create_index("DELIVERY", "supplier").unwrap();
        let e = join(
            "s",
            "d",
            eq(var("s").field("eid"), var("d").field("supplier")),
            project(&["eid", "sname"], table("SUPPLIER")),
            table("DELIVERY"),
        );
        let plan = Planner::new(&db).plan(&e).unwrap();
        assert!(matches!(plan.phys, PhysPlan::IndexNLJoin { .. }));
        let mut ss = Stats::new();
        let s = plan.execute_streaming(&mut ss).unwrap();
        assert!(ss.index_probes > 0);
        assert!(ss.operator("IndexNLJoin").is_some());
        let mut ms = Stats::new();
        assert_eq!(plan.execute(&mut ms).unwrap(), s);
    }

    #[test]
    fn errors_propagate_through_the_pipeline() {
        let db = supplier_part_db();
        let bad = PhysPlan::Scan("NO_SUCH".into());
        let mut stats = Stats::new();
        assert!(matches!(
            bad.execute_streaming(&db, &mut stats, &default_opts()),
            Err(EvalError::UnknownTable(_))
        ));
        // flatten of non-set rows errors exactly like the materialized path
        let flat = PhysPlan::FlattenOp {
            input: Box::new(PhysPlan::MapOp {
                var: "p".into(),
                body: var("p").field("pname"),
                input: Box::new(PhysPlan::Scan("PART".into())),
            }),
        };
        let mut s2 = Stats::new();
        let streaming_err = flat.execute_streaming(&db, &mut s2, &default_opts());
        let mut s3 = Stats::new();
        let materialized_err = flat.execute_on(&db, &mut s3);
        assert!(streaming_err.is_err());
        assert!(materialized_err.is_err());
    }

    #[test]
    fn empty_aggregates_error_like_the_reference_not_panic() {
        // Regression: an aggregate whose child yields no rows used to be
        // able to reach `drain_scalar`'s `expect` — it must return the
        // same defined `EmptyAggregate` error as `eval.rs`.
        let db = supplier_part_db();
        let empty = PhysPlan::Filter {
            var: "p".into(),
            pred: lit(Value::Bool(false)),
            input: Box::new(PhysPlan::Scan("PART".into())),
        };
        for op in [
            oodb_adl::AggOp::Min,
            oodb_adl::AggOp::Max,
            oodb_adl::AggOp::Avg,
        ] {
            let agg = PhysPlan::AggNode {
                op,
                input: Box::new(empty.clone()),
            };
            let mut ss = Stats::new();
            let streaming = agg.execute_streaming(&db, &mut ss, &default_opts());
            let mut ms = Stats::new();
            let materialized = agg.execute_on(&db, &mut ms);
            assert!(
                matches!(
                    streaming,
                    Err(EvalError::Value(oodb_value::ValueError::EmptyAggregate(_)))
                ),
                "{op:?}: {streaming:?}"
            );
            assert_eq!(
                format!("{}", streaming.unwrap_err()),
                format!("{}", materialized.unwrap_err()),
                "{op:?} diverged from the reference semantics"
            );
        }
        // count and sum of nothing are defined values, not errors
        let count = PhysPlan::AggNode {
            op: oodb_adl::AggOp::Count,
            input: Box::new(empty),
        };
        let mut ss = Stats::new();
        assert_eq!(
            count
                .execute_streaming(&db, &mut ss, &default_opts())
                .unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn scalar_drained_twice_is_a_protocol_error_not_a_panic() {
        let db = supplier_part_db();
        let plan = PhysPlan::AggNode {
            op: oodb_adl::AggOp::Count,
            input: Box::new(PhysPlan::Scan("PART".into())),
        };
        let mut stats = Stats::new();
        let mut ctx = ExecCtx {
            ev: Evaluator::new(&db),
            env: Env::new(),
            stats: &mut stats,
            opts: unbounded_opts(),
        };
        let mut op = plan.compile();
        op.open(&mut ctx).unwrap();
        assert_eq!(drain_scalar(&mut op, &mut ctx).unwrap(), Value::Int(7));
        // the stream is fused; draining again finds no value
        assert!(matches!(
            drain_scalar(&mut op, &mut ctx),
            Err(EvalError::OperatorProtocol(_))
        ));
        op.close(&mut ctx);
    }

    #[test]
    fn illegal_lifecycle_transitions_return_errors_not_panics() {
        let db = supplier_part_db();
        let plan = PhysPlan::Scan("PART".into());
        let mut stats = Stats::new();
        let mut ctx = ExecCtx {
            ev: Evaluator::new(&db),
            env: Env::new(),
            stats: &mut stats,
            opts: unbounded_opts(),
        };
        // next_batch before open
        let mut op = plan.compile();
        assert!(matches!(
            op.next_batch(&mut ctx),
            Err(EvalError::OperatorProtocol(_))
        ));
        // next_batch after close
        op.open(&mut ctx).unwrap();
        op.close(&mut ctx);
        assert!(matches!(
            op.next_batch(&mut ctx),
            Err(EvalError::OperatorProtocol(_))
        ));
        // double close is idempotent, re-open revives
        op.close(&mut ctx);
        op.open(&mut ctx).unwrap();
        let batch = op.next_batch(&mut ctx).unwrap().unwrap();
        assert_eq!(batch.len(), 7);
        // exhausted streams are fused: pulling past None stays None
        assert!(op.next_batch(&mut ctx).unwrap().is_none());
        assert!(op.next_batch(&mut ctx).unwrap().is_none());
        op.close(&mut ctx);
    }

    #[test]
    fn let_body_error_restores_the_env_without_unwinding() {
        let db = supplier_part_db();
        // body errors on every row: field access on a string
        let plan = PhysPlan::LetOp {
            var: "n".into(),
            value: Box::new(PhysPlan::AggNode {
                op: oodb_adl::AggOp::Count,
                input: Box::new(PhysPlan::Scan("PART".into())),
            }),
            body: Box::new(PhysPlan::Filter {
                var: "p".into(),
                pred: lt(var("p").field("pname").field("oops"), var("n")),
                input: Box::new(PhysPlan::Scan("PART".into())),
            }),
        };
        let mut stats = Stats::new();
        let mut ctx = ExecCtx {
            ev: Evaluator::new(&db),
            env: Env::new(),
            stats: &mut stats,
            opts: unbounded_opts(),
        };
        let mut op = plan.compile();
        op.open(&mut ctx).unwrap();
        let err = loop {
            match op.next_batch(&mut ctx) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected the body to error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, EvalError::Value(_)), "{err}");
        // the let restored the env: nothing leaked past the failed pull
        assert_eq!(ctx.env.depth(), 0, "env unbalanced after body error");
        // closing after the error must not panic
        op.close(&mut ctx);
        // and the whole-plan entry point reports the error cleanly too
        let mut s2 = Stats::new();
        assert!(plan
            .execute_streaming(&db, &mut s2, &default_opts())
            .is_err());
    }
}
