//! Exchange operators: intra-query parallelism over batch boundaries.
//!
//! The streaming pipeline of [`super::operator`] pulls batches through a
//! single thread. This module adds the morsel-driven parallel execution
//! the ROADMAP calls for, in the shape practical engines use (cf.
//! risinglight's exchange executors): plans are split at **pipeline
//! breaker boundaries** — hash/member build sides, sort runs, PNHL
//! operands, aggregate drains — and the per-row segments between them
//! fan out to a fixed worker pool.
//!
//! Two partitioning strategies (see [`Partitioning`]):
//!
//! * **Round-robin** ([`ExchangeOp`]): each worker executes a clone of
//!   the same per-row segment (filters, maps, projections, unnests,
//!   assembly over one base scan), with the scan strided so each
//!   [`BATCH_SIZE`](super::operator::BATCH_SIZE)-aligned morsel belongs to exactly one worker. The
//!   exchange gathers worker outputs in worker order — a blocking
//!   boundary, like the breaker it feeds.
//! * **Hash** ([`ParallelHashJoinOp`]): hash-partitioned parallel build
//!   *and* probe for the hash join family. A join input that is a
//!   round-robin exchange over a segment is not gathered: the join's own
//!   build and probe workers each run their stride of the segment. Build
//!   workers evaluate route keys and route rows by [`hashjoin::key_hash`]
//!   into per-partition buckets, partition tables are built concurrently
//!   from those buckets, and probe workers stream their stride's batches
//!   into the shared tables, each probe key consulting exactly its
//!   owning partition — the same lookups a serial probe performs.
//!
//! **Determinism.** Results are canonical-set identical to serial
//! execution at every degree of parallelism (each row is scanned,
//! transformed and probed exactly once; only the transient row order
//! changes, which every canonical [`Set`] boundary erases), and worker
//! statistics are merged in worker-id order with per-operator entries
//! folded by label ([`Stats::absorb_worker`]), so `Stats::operators`
//! row totals match a serial run of the same plan.

use super::hashjoin::{self, JoinHashTable, MemberHashTable, MemberShape};
use super::operator::{
    drain_rows, drain_to_set, Batch, BoxOp, Buffered, ExecCtx, ExecOptions, HashMode, InstrState,
    Operator,
};
use super::{spill_exec, Partitioning, PhysPlan};
use crate::eval::{EvalError, Evaluator};
use crate::pool::WorkerPool;
use crate::stats::Stats;
use oodb_adl::expr::{Expr, JoinKind};
#[cfg(test)]
use oodb_spill::MemoryBudget;
use oodb_spill::SpillMetrics;
use oodb_value::{BatchKind, Name, Value};

/// Compiles an `Exchange` node into its streaming operator. Called from
/// [`PhysPlan::compile`]'s node dispatch.
/// `ord` is `input`'s pre-order ordinal.
pub(crate) fn compile_exchange(
    partitioning: Partitioning,
    dop: usize,
    input: &PhysPlan,
    ord: usize,
) -> BoxOp {
    match partitioning {
        Partitioning::RoundRobin => {
            // A round-robin exchange is only valid over a per-row
            // segment (the planner guarantees this); anything else
            // degrades to one worker, which is plain serial execution.
            let dop = if segment_scan(input).is_some() {
                dop
            } else {
                1
            };
            Box::new(ExchangeOp {
                segment: Segment {
                    plan: input.clone(),
                    ord,
                },
                dop: dop.max(1),
                buf: None,
                state: InstrState::Created,
            })
        }
        Partitioning::Hash => match ParallelHashJoinOp::from_plan(input, ord, dop.max(1)) {
            Some(op) => Box::new(op),
            // Not a hash-family join: degrade to the input's own
            // serial compilation (unreachable through the planner).
            None => input.compile_rows(ord, 0, 1),
        },
    }
}

/// The base scan a round-robin segment strides over, if `plan` is a
/// valid segment: a chain of per-row operators (`σ α π ρ μ ⋃`,
/// assembly) over exactly one [`PhysPlan::Scan`] leaf. The planner and
/// [`compile_exchange`] share this definition, so an exchange can never
/// stride a plan whose semantics depend on seeing all rows.
pub(crate) fn segment_scan(plan: &PhysPlan) -> Option<&Name> {
    match plan {
        PhysPlan::Scan(n) => Some(n),
        PhysPlan::Filter { input, .. }
        | PhysPlan::MapOp { input, .. }
        | PhysPlan::ProjectOp { input, .. }
        | PhysPlan::RenameOp { input, .. }
        | PhysPlan::UnnestOp { input, .. }
        | PhysPlan::FlattenOp { input }
        | PhysPlan::Assemble { input, .. } => segment_scan(input),
        _ => None,
    }
}

/// Whether a segment can never emit the same row twice: a scan of an
/// extent (a set) under any number of filters. Maps, projections,
/// unnests and assembly can collapse distinct rows into equal ones, so
/// a build side made of them still goes through the canonical-set
/// breaker.
fn duplicate_free(plan: &PhysPlan) -> bool {
    match plan {
        PhysPlan::Scan(_) => true,
        PhysPlan::Filter { input, .. } => duplicate_free(input),
        _ => false,
    }
}

/// Splits `rows` into `n` contiguous chunks (first chunks one longer
/// when the split is uneven) — the deterministic work assignment for
/// inputs drained on the calling thread.
fn split_chunks(mut rows: Vec<Value>, n: usize) -> Vec<Vec<Value>> {
    let total = rows.len();
    let mut out = Vec::with_capacity(n);
    let base = total / n;
    let extra = total % n;
    // Split from the back so each `split_off` is O(chunk).
    let mut sizes: Vec<usize> = (0..n).map(|i| base + usize::from(i < extra)).collect();
    while let Some(size) = sizes.pop() {
        let at = rows.len() - size;
        out.push(rows.split_off(at));
    }
    out.reverse();
    out
}

/// Joins worker results in worker-id order: outputs are collected,
/// statistics folded via [`Stats::absorb_worker`], and the first error
/// (by worker id, for determinism) wins.
fn gather<A>(
    results: Vec<Result<(A, Stats), EvalError>>,
    folded: &mut Stats,
) -> Result<Vec<A>, EvalError> {
    let mut out = Vec::with_capacity(results.len());
    let mut first_err = None;
    for r in results {
        match r {
            Ok((a, stats)) => {
                folded.absorb_worker(&stats);
                out.push(a);
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// One exchange worker's closure: produces its output plus its private
/// [`Stats`], or the first error it hit.
type WorkerTask<'env, A> = Box<dyn FnOnce() -> Result<(A, Stats), EvalError> + Send + 'env>;

/// Runs `tasks` on the [shared worker pool](crate::pool), mapping
/// per-task panics to the same error the scoped-thread implementation
/// produced. Results come back in task-submission order — the
/// (query, worker) key [`gather`]'s deterministic fold depends on —
/// regardless of which pool threads (or the submitting thread itself)
/// executed the morsels.
fn pool_run<'env, A: Send + 'env>(
    tasks: Vec<WorkerTask<'env, A>>,
) -> Vec<Result<(A, Stats), EvalError>> {
    WorkerPool::global()
        .scope_run(tasks)
        .into_iter()
        .map(|r| r.unwrap_or(Err(EvalError::OperatorProtocol("parallel worker panicked"))))
        .collect()
}

/// A per-row segment and its pre-order ordinal in the whole tree — what
/// a worker compiles its stride from.
struct Segment {
    plan: PhysPlan,
    ord: usize,
}

/// One worker's share of an exchange or join input.
enum Share<'p> {
    /// Stride `part` of `parts` of a segment, run in the worker.
    Stride {
        seg: &'p Segment,
        part: usize,
        parts: usize,
    },
    /// A contiguous chunk of an input drained on the calling thread.
    Rows(Vec<Value>),
}

impl<'p> Share<'p> {
    /// The `dop` strides of `seg`, one per worker.
    fn strides(seg: &'p Segment, dop: usize) -> Vec<Self> {
        (0..dop)
            .map(|part| Share::Stride {
                seg,
                part,
                parts: dop,
            })
            .collect()
    }

    /// `rows` cut into `dop` contiguous chunks, one per worker.
    fn chunks(rows: Vec<Value>, dop: usize) -> Vec<Self> {
        split_chunks(rows, dop)
            .into_iter()
            .map(Share::Rows)
            .collect()
    }

    /// Feeds every batch of this share to `f`. A stride compiles and
    /// runs the segment's instrumented operators in the calling worker,
    /// so their reports land in the worker's [`Stats`].
    fn for_each_batch(
        self,
        ctx: &mut ExecCtx<'_, '_>,
        mut f: impl FnMut(Batch, &mut ExecCtx<'_, '_>) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        match self {
            Share::Stride { seg, part, parts } => {
                let mut op = seg.plan.compile_stride(seg.ord, part, parts);
                op.open(ctx)?;
                let mut pull = || -> Result<(), EvalError> {
                    while let Some(b) = op.next_batch(ctx)? {
                        f(b, ctx)?;
                    }
                    Ok(())
                };
                let r = pull();
                op.close(ctx);
                r
            }
            Share::Rows(rows) => f(Batch::from_rows(rows), ctx),
        }
    }
}

/// Runs `work` once per share on the worker pool. Each worker gets its
/// own [`ExecCtx`] — a clone of the caller's environment, private
/// [`Stats`] and a `1/dop` share of the memory budget, so the workers
/// together stay within it. Outputs come back in worker order; worker
/// statistics are folded into `ctx` (see [`gather`]) even on error.
fn run_workers<'p, A: Send>(
    shares: Vec<Share<'p>>,
    ctx: &mut ExecCtx<'_, '_>,
    work: impl Fn(Share<'p>, &mut ExecCtx<'_, '_>) -> Result<A, EvalError> + Sync,
) -> Result<Vec<A>, EvalError> {
    let db = ctx.ev.db();
    let opts = ExecOptions {
        budget: ctx.opts.budget.share(shares.len()),
        ..ctx.opts.clone()
    };
    let work = &work;
    let tasks: Vec<WorkerTask<'_, A>> = shares
        .into_iter()
        .map(|share| {
            let env = ctx.env.clone();
            let opts = opts.clone();
            Box::new(move || {
                let mut stats = Stats::new();
                let mut wctx = ExecCtx {
                    ev: Evaluator::new(db),
                    env,
                    stats: &mut stats,
                    opts,
                };
                let out = work(share, &mut wctx)?;
                Ok((out, stats))
            }) as WorkerTask<'_, A>
        })
        .collect();
    let mut folded = Stats::new();
    let gathered = gather(pool_run(tasks), &mut folded);
    ctx.stats.merge(&folded);
    gathered
}

// ---------------------------------------------------------------------
// Round-robin exchange.

/// Gathers a per-row segment executed by `dop` strided workers; see the
/// module docs. Blocking on its first pull, then emits the gathered
/// rows in [`BATCH_SIZE`](super::operator::BATCH_SIZE) chunks.
struct ExchangeOp {
    segment: Segment,
    dop: usize,
    buf: Option<Buffered>,
    /// Round-robin exchanges skip the [`Instrument`] shim (their
    /// workers report instead), so they enforce the
    /// `open → next_batch* → close` protocol themselves — pulling a
    /// created or closed exchange must error, not silently re-run the
    /// whole worker fan-out.
    ///
    /// [`Instrument`]: super::operator
    state: InstrState,
}

impl ExchangeOp {
    fn run_workers(&self, ctx: &mut ExecCtx<'_, '_>) -> Result<Vec<Value>, EvalError> {
        let shares = Share::strides(&self.segment, self.dop);
        let outs = run_workers(shares, ctx, |share, wctx| {
            let mut rows = Vec::new();
            share.for_each_batch(wctx, |b, _| {
                rows.extend(b.into_values());
                Ok(())
            })?;
            Ok(rows)
        })?;
        Ok(outs.into_iter().flatten().collect())
    }
}

impl Operator for ExchangeOp {
    fn open(&mut self, _ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.buf = None;
        self.state = InstrState::Open;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        match self.state {
            InstrState::Open | InstrState::Exhausted => {}
            InstrState::Created => {
                return Err(EvalError::OperatorProtocol("next_batch before open"))
            }
            InstrState::Closed => {
                return Err(EvalError::OperatorProtocol("next_batch after close"))
            }
        }
        if self.buf.is_none() {
            let rows = self.run_workers(ctx)?;
            self.buf = Some(Buffered::new(rows));
        }
        let chunk = self
            .buf
            .as_mut()
            .expect("gathered above")
            .next_chunk(ctx.opts.batch_kind);
        if chunk.is_none() {
            self.state = InstrState::Exhausted;
        }
        Ok(chunk)
    }

    fn close(&mut self, _ctx: &mut ExecCtx<'_, '_>) {
        self.buf = None;
        self.state = InstrState::Closed;
    }
}

// ---------------------------------------------------------------------
// Hash-partitioned parallel join.

/// Which key machinery the join family uses.
enum JoinFamily {
    /// Equi-keyed (`HashJoin` / `HashNestJoin`).
    Equi { lkeys: Vec<Expr>, rkeys: Vec<Expr> },
    /// Membership-keyed (`HashMemberJoin` / `MemberNestJoin`).
    Member { shape: MemberShape },
}

/// Whether the join emits join rows or nestjoin groups (mirrors the
/// serial operators' `HashMode`).
enum OutputMode {
    Join {
        kind: JoinKind,
        right_attrs: Vec<Name>,
    },
    Nest {
        rfunc: Option<Expr>,
        as_attr: Name,
    },
}

/// One partition's pre-keyed build entries: the route keys (one
/// composite key for equi joins; the partition's subset of membership
/// keys) and the row.
type Keyed = (Vec<Value>, Value);

/// One side of a [`ParallelHashJoinOp`].
struct JoinInput {
    /// The compiled child, drained on the calling thread whenever the
    /// side does not stride.
    op: BoxOp,
    /// The segment under a round-robin exchange child, whose strides
    /// the join's own workers run instead of gathering them. On the
    /// build side only a [`duplicate_free`] segment strides.
    stride: Option<Segment>,
}

impl JoinInput {
    /// Compiles child `plan` at pre-order ordinal `ord`. `set_input`
    /// marks the build side, whose rows must form a set.
    fn new(plan: &PhysPlan, ord: usize, set_input: bool) -> Self {
        let stride = match plan {
            PhysPlan::Exchange {
                partitioning: Partitioning::RoundRobin,
                input,
                ..
            } if segment_scan(input).is_some() && (!set_input || duplicate_free(input)) => {
                Some(Segment {
                    plan: (**input).clone(),
                    ord: ord + 1,
                })
            }
            _ => None,
        };
        JoinInput {
            op: plan.compile_rows(ord, 0, 1),
            stride,
        }
    }
}

/// Hash-partitioned parallel build + probe for the hash join family.
///
/// Replaces the serial `HashJoinOp`/`MemberJoinOp` when the planner
/// wraps a join in `Exchange { partitioning: Hash }`. `dop` build
/// workers each take a share of the build side, evaluate its route keys
/// and route every keyed row into one bucket per partition; partition
/// *p*'s table is built from bucket *p* of every worker, in worker
/// order, with the tables built concurrently. Then `dop` probe workers
/// each stream a share of the probe side through the shared tables.
///
/// A share is a worker's stride of the side's segment when the side is
/// a round-robin exchange over one (its batches reach the probe with
/// their key columns in place), else a contiguous chunk of the side
/// drained on the calling thread — the build side through the usual
/// canonical-set breaker, which is also how a build segment that may
/// emit duplicate rows keeps its set semantics. Under a bounded memory
/// budget the build side always drains and stays one partition, so an
/// oversized build can fall back to the grace hash join unchanged.
struct ParallelHashJoinOp {
    spec: JoinSpec,
    dop: usize,
    left: JoinInput,
    right: JoinInput,
    buf: Option<Buffered>,
    spill: SpillMetrics,
}

/// What the join computes — everything its workers share.
struct JoinSpec {
    family: JoinFamily,
    mode: OutputMode,
    lvar: Name,
    rvar: Name,
    residual: Option<Expr>,
}

impl ParallelHashJoinOp {
    /// Builds the operator from a hash-family join node at pre-order
    /// ordinal `ord`; `None` for any other plan shape.
    fn from_plan(plan: &PhysPlan, ord: usize, dop: usize) -> Option<Self> {
        let (family, mode, lvar, rvar, residual, left, right) = match plan {
            PhysPlan::HashJoin {
                kind,
                lvar,
                rvar,
                lkeys,
                rkeys,
                residual,
                right_attrs,
                left,
                right,
            } => (
                JoinFamily::Equi {
                    lkeys: lkeys.clone(),
                    rkeys: rkeys.clone(),
                },
                OutputMode::Join {
                    kind: *kind,
                    right_attrs: right_attrs.clone(),
                },
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            PhysPlan::HashNestJoin {
                lvar,
                rvar,
                lkeys,
                rkeys,
                residual,
                rfunc,
                as_attr,
                left,
                right,
            } => (
                JoinFamily::Equi {
                    lkeys: lkeys.clone(),
                    rkeys: rkeys.clone(),
                },
                OutputMode::Nest {
                    rfunc: rfunc.clone(),
                    as_attr: as_attr.clone(),
                },
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            PhysPlan::HashMemberJoin {
                kind,
                lvar,
                rvar,
                shape,
                residual,
                right_attrs,
                left,
                right,
            } => (
                JoinFamily::Member {
                    shape: shape.clone(),
                },
                OutputMode::Join {
                    kind: *kind,
                    right_attrs: right_attrs.clone(),
                },
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            PhysPlan::MemberNestJoin {
                lvar,
                rvar,
                shape,
                residual,
                rfunc,
                as_attr,
                left,
                right,
            } => (
                JoinFamily::Member {
                    shape: shape.clone(),
                },
                OutputMode::Nest {
                    rfunc: rfunc.clone(),
                    as_attr: as_attr.clone(),
                },
                lvar,
                rvar,
                residual,
                left,
                right,
            ),
            _ => return None,
        };
        let kids = plan.child_ordinals(ord);
        Some(ParallelHashJoinOp {
            spec: JoinSpec {
                family,
                mode,
                lvar: lvar.clone(),
                rvar: rvar.clone(),
                residual: residual.clone(),
            },
            dop,
            left: JoinInput::new(left, kids[0], false),
            right: JoinInput::new(right, kids[1], true),
            buf: None,
            spill: SpillMetrics::default(),
        })
    }

    /// Runs build and probe to completion, returning the joined rows.
    fn execute(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Vec<Value>, EvalError> {
        let (dop, spec) = (self.dop, &self.spec);
        let bounded = ctx.opts.budget.is_bounded();

        // Build: the workers key and route their shares. A strided
        // share skips the breaker (a duplicate-free segment is already
        // a set); anything else drains through it first.
        let build_stride = self.right.stride.as_ref().filter(|_| !bounded);
        let shares = match build_stride {
            Some(seg) => Share::strides(seg, dop),
            None => {
                let set = drain_to_set(&mut self.right.op, &mut self.spill, ctx)?;
                Share::chunks(set.into_values(), dop)
            }
        };
        // Under a bounded budget the build stays one partition: the
        // grace fallback needs every row once, with all its keys.
        let parts = if bounded { 1 } else { dop };
        let routed = run_workers(shares, ctx, |share, wctx| {
            let mut buckets: Vec<Vec<Keyed>> = (0..parts).map(|_| Vec::new()).collect();
            share.for_each_batch(wctx, |batch, c| {
                for y in batch.into_values() {
                    let keys = spec.build_keys(&y, c)?;
                    spec.route(keys, y, &mut buckets);
                }
                Ok(())
            })?;
            Ok(buckets)
        })?;
        // Partition p takes bucket p of every worker, in worker order.
        let mut partitions: Vec<Vec<Vec<Keyed>>> = (0..parts).map(|_| Vec::new()).collect();
        for buckets in routed {
            for (p, bucket) in buckets.into_iter().enumerate() {
                partitions[p].push(bucket);
            }
        }

        // An oversized build side falls back to the grace hash join,
        // which partitions both sides through the SpillManager
        // (partition-at-a-time, within the budget at any dop); the
        // probe side is still undrained, so grace streams it straight
        // into partition files.
        if bounded {
            let keyed: Vec<Keyed> = partitions.drain(..).flatten().flatten().collect();
            let bytes: usize = keyed
                .iter()
                .map(|(ks, row)| spill_exec::entry_bytes(ks, row))
                .sum();
            if ctx.opts.budget.exceeded_by(bytes) {
                let mode = spec.hash_mode();
                let budget = ctx.opts.budget.clone();
                return match &spec.family {
                    JoinFamily::Equi { lkeys, .. } => spill_exec::grace_equi_join(
                        &mode,
                        &spec.lvar,
                        &spec.rvar,
                        lkeys,
                        spec.residual.as_ref(),
                        keyed,
                        &mut self.left.op,
                        &budget,
                        &mut self.spill,
                        ctx,
                    ),
                    JoinFamily::Member { shape } => spill_exec::grace_member_join(
                        &mode,
                        &spec.lvar,
                        &spec.rvar,
                        shape,
                        spec.residual.as_ref(),
                        keyed,
                        &mut self.left.op,
                        &budget,
                        &mut self.spill,
                        ctx,
                    ),
                };
            }
            partitions.push(vec![keyed]);
        }

        // The partition tables, built concurrently. Strided buckets hold
        // each key's candidates in worker order; a residual can observe
        // that order, so those tables restore the serial build's
        // canonical order.
        let member = matches!(spec.family, JoinFamily::Member { .. });
        let canonical = build_stride.is_some() && spec.residual.is_some();
        let build_tasks: Vec<WorkerTask<'_, Tables>> = partitions
            .into_iter()
            .map(|buckets| {
                Box::new(move || {
                    let mut stats = Stats::new();
                    let entries = buckets.into_iter().flatten();
                    let table = if member {
                        let mut t = MemberHashTable::from_keyed(entries, &mut stats);
                        if canonical {
                            t.sort_candidates();
                        }
                        Tables::Member(t)
                    } else {
                        let mut t = JoinHashTable::from_keyed(entries, &mut stats);
                        if canonical {
                            t.sort_candidates();
                        }
                        Tables::Equi(t)
                    };
                    Ok((table, stats))
                }) as WorkerTask<'_, Tables>
            })
            .collect();
        let mut folded = Stats::new();
        let tables = gather(pool_run(build_tasks), &mut folded);
        ctx.stats.merge(&folded);
        let (equi_tables, member_tables) = split_tables(tables?);

        // Probe: each worker streams its share's batches through the
        // shared tables. The probe side is a raw row stream (the serial
        // probe does not deduplicate either).
        let shares = match &self.left.stride {
            Some(seg) => Share::strides(seg, dop),
            None => Share::chunks(drain_rows(&mut self.left.op, ctx)?, dop),
        };
        let tables = (&equi_tables[..], &member_tables[..]);
        let outs = run_workers(shares, ctx, |share, wctx| {
            let mut out = Vec::new();
            share.for_each_batch(wctx, |batch, c| {
                out.extend(spec.probe(tables, &batch, c)?);
                Ok(())
            })?;
            Ok(out)
        })?;
        Ok(outs.into_iter().flatten().collect())
    }
}

impl JoinSpec {
    /// The serial [`HashMode`] equivalent of this operator's output mode
    /// (what the grace fallback executes partition-by-partition).
    fn hash_mode(&self) -> HashMode {
        match &self.mode {
            OutputMode::Join { kind, right_attrs } => HashMode::Join {
                kind: *kind,
                right_attrs: right_attrs.clone(),
            },
            OutputMode::Nest { rfunc, as_attr } => HashMode::Nest {
                rfunc: rfunc.clone(),
                as_attr: as_attr.clone(),
            },
        }
    }

    /// A build row's route keys: equi joins route each row under its
    /// single composite key; membership joins under `rkey(y)`
    /// (`RightInLeftSet`) or every element of `rset(y)`
    /// (`LeftInRightSet`).
    fn build_keys(&self, y: &Value, ctx: &mut ExecCtx<'_, '_>) -> Result<Vec<Value>, EvalError> {
        let (ev, env, stats, rvar) = (&ctx.ev, &mut ctx.env, &mut *ctx.stats, &self.rvar);
        Ok(match &self.family {
            JoinFamily::Equi { rkeys, .. } => hashjoin::eval_keys(rkeys, rvar, y, ev, env, stats)?,
            JoinFamily::Member { shape } => match shape {
                MemberShape::RightInLeftSet { rkey, .. } => {
                    vec![hashjoin::eval_under(rkey, rvar, y, ev, env, stats)?]
                }
                MemberShape::LeftInRightSet { rset, .. } => {
                    let s = hashjoin::eval_under(rset, rvar, y, ev, env, stats)?;
                    s.as_set()?.iter().cloned().collect()
                }
            },
        })
    }

    /// Routes one keyed build row into `buckets` (one per partition).
    /// For equi joins the whole key vector hashes as a unit; for
    /// membership joins each key routes separately, and a row reachable
    /// from several partitions is replicated into each, indexed only
    /// under that partition's keys (a keyless row — empty `rset` —
    /// indexes nowhere, exactly as in the serial build). A single
    /// bucket takes every row whole, with all its keys.
    fn route(&self, keys: Vec<Value>, row: Value, buckets: &mut [Vec<Keyed>]) {
        let parts = buckets.len() as u64;
        if parts == 1 {
            buckets[0].push((keys, row));
            return;
        }
        match &self.family {
            JoinFamily::Equi { .. } => {
                let p = (hashjoin::key_hash(&keys) % parts) as usize;
                buckets[p].push((keys, row));
            }
            JoinFamily::Member { .. } => {
                let mut per_part: Vec<(usize, Vec<Value>)> = Vec::new();
                for k in keys {
                    let p = (hashjoin::value_hash(&k) % parts) as usize;
                    match per_part.iter_mut().find(|(q, _)| *q == p) {
                        Some((_, ks)) => ks.push(k),
                        None => per_part.push((p, vec![k])),
                    }
                }
                let replicas = per_part.len();
                let mut row = Some(row);
                for (i, (p, ks)) in per_part.into_iter().enumerate() {
                    let r = if i + 1 == replicas {
                        row.take().expect("moved into the last replica only")
                    } else {
                        row.as_ref().expect("not yet moved").clone()
                    };
                    buckets[p].push((ks, r));
                }
            }
        }
    }

    /// Probes one batch of left rows against the partition tables.
    fn probe(
        &self,
        tables: (&[JoinHashTable], &[MemberHashTable]),
        batch: &Batch,
        ctx: &mut ExecCtx<'_, '_>,
    ) -> Result<Vec<Value>, EvalError> {
        let (equi_tables, member_tables) = tables;
        let (lvar, rvar, residual) = (&self.lvar, &self.rvar, self.residual.as_ref());
        let (ev, env, stats) = (&ctx.ev, &mut ctx.env, &mut *ctx.stats);
        match (&self.family, &self.mode) {
            (JoinFamily::Equi { lkeys, .. }, OutputMode::Join { kind, right_attrs }) => {
                JoinHashTable::probe_batch(
                    equi_tables,
                    *kind,
                    lvar,
                    rvar,
                    lkeys,
                    residual,
                    right_attrs,
                    batch.into(),
                    ev,
                    env,
                    stats,
                )
            }
            (JoinFamily::Equi { lkeys, .. }, OutputMode::Nest { rfunc, as_attr }) => {
                JoinHashTable::probe_nest_batch(
                    equi_tables,
                    lvar,
                    rvar,
                    lkeys,
                    residual,
                    rfunc.as_ref(),
                    as_attr,
                    batch.into(),
                    ev,
                    env,
                    stats,
                )
            }
            (JoinFamily::Member { shape }, OutputMode::Join { kind, right_attrs }) => {
                MemberHashTable::probe_batch(
                    member_tables,
                    *kind,
                    lvar,
                    rvar,
                    shape,
                    residual,
                    right_attrs,
                    batch.into(),
                    ev,
                    env,
                    stats,
                )
            }
            (JoinFamily::Member { shape }, OutputMode::Nest { rfunc, as_attr }) => {
                MemberHashTable::probe_nest_batch(
                    member_tables,
                    lvar,
                    rvar,
                    shape,
                    residual,
                    rfunc.as_ref(),
                    as_attr,
                    batch.into(),
                    ev,
                    env,
                    stats,
                )
            }
        }
    }
}

/// A built partition table of either join family.
enum Tables {
    Equi(JoinHashTable),
    Member(MemberHashTable),
}

/// Splits the heterogeneous partition list into the two homogeneous
/// slices the probe entry points take (exactly one of them is
/// non-empty).
fn split_tables(tables: Vec<Tables>) -> (Vec<JoinHashTable>, Vec<MemberHashTable>) {
    let mut equi = Vec::new();
    let mut member = Vec::new();
    for t in tables {
        match t {
            Tables::Equi(t) => equi.push(t),
            Tables::Member(t) => member.push(t),
        }
    }
    (equi, member)
}

impl Operator for ParallelHashJoinOp {
    fn open(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<(), EvalError> {
        self.buf = None;
        self.left.op.open(ctx)?;
        self.right.op.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Option<Batch>, EvalError> {
        if self.buf.is_none() {
            let rows = self.execute(ctx)?;
            self.buf = Some(Buffered::new(rows));
        }
        Ok(self
            .buf
            .as_mut()
            .expect("joined above")
            .next_chunk(BatchKind::Row))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_, '_>) {
        self.buf = None;
        self.left.op.close(ctx);
        self.right.op.close(ctx);
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Env;
    use crate::physical::operator::BATCH_SIZE;
    use crate::plan::{JoinAlgo, Planner, PlannerConfig};
    use oodb_adl::dsl::*;
    use oodb_adl::expr::JoinKind;
    use oodb_catalog::fixtures::{supplier_part_catalog, supplier_part_db};
    use oodb_catalog::Database;
    use oodb_value::{Oid, Set, Tuple};

    /// A PART extent big enough to span many batches.
    fn big_part_db(n: usize) -> Database {
        let mut db = Database::new(supplier_part_catalog()).unwrap();
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
        db
    }

    fn config(dop: usize) -> PlannerConfig {
        PlannerConfig {
            parallelism: dop,
            parallel_threshold: 0,
            ..Default::default()
        }
    }

    #[test]
    fn segment_scan_recognizes_per_row_chains() {
        let seg = PhysPlan::Filter {
            var: "p".into(),
            pred: lt(var("p").field("price"), int(50)),
            input: Box::new(PhysPlan::ProjectOp {
                attrs: vec!["pid".into(), "price".into()],
                input: Box::new(PhysPlan::Scan("PART".into())),
            }),
        };
        assert_eq!(segment_scan(&seg).map(|n| n.as_ref()), Some("PART"));
        // a join is not a segment
        let join = PhysPlan::ProductOp {
            left: Box::new(PhysPlan::Scan("PART".into())),
            right: Box::new(PhysPlan::Scan("SUPPLIER".into())),
        };
        assert!(segment_scan(&join).is_none());
    }

    #[test]
    fn round_robin_exchange_matches_serial_rows_and_stats() {
        let n = 3 * BATCH_SIZE + 17;
        let db = big_part_db(n);
        let e = select("p", lt(var("p").field("price"), int(50)), table("PART"));

        let serial_plan = Planner::with_config(&db, config(1)).plan(&e).unwrap();
        let mut serial = Stats::new();
        let want = serial_plan.execute_streaming(&mut serial).unwrap();

        for dop in [2usize, 3, 4, 7] {
            let plan = Planner::with_config(&db, config(dop)).plan(&e).unwrap();
            assert!(
                matches!(plan.phys, PhysPlan::Exchange { .. }),
                "dop {dop} plan not exchanged:\n{}",
                plan.explain()
            );
            let mut stats = Stats::new();
            let got = plan.execute_streaming(&mut stats).unwrap();
            assert_eq!(got, want, "dop {dop}");
            assert_eq!(stats.rows_scanned, serial.rows_scanned, "dop {dop}");
            assert_eq!(stats.predicate_evals, serial.predicate_evals, "dop {dop}");
            assert_eq!(
                stats.operator_rows_by_label(),
                serial.operator_rows_by_label(),
                "dop {dop} operator profile diverged"
            );
        }
    }

    #[test]
    fn more_workers_than_batches_leaves_idle_workers_harmless() {
        let db = big_part_db(10); // a single batch
        let e = select("p", lt(var("p").field("price"), int(5)), table("PART"));
        let plan = Planner::with_config(&db, config(8)).plan(&e).unwrap();
        let mut stats = Stats::new();
        let got = plan.execute_streaming(&mut stats).unwrap();
        assert_eq!(got.as_set().unwrap().len(), 5);
        assert_eq!(stats.rows_scanned, 10);
    }

    #[test]
    fn exchange_enforces_the_operator_protocol() {
        // Round-robin exchanges skip the instrumentation shim, so they
        // must enforce open → next_batch* → close themselves: a created
        // or closed exchange errors instead of silently re-running the
        // whole worker fan-out (and re-counting its work).
        let db = big_part_db(2 * BATCH_SIZE);
        let e = select("p", lt(var("p").field("price"), int(50)), table("PART"));
        let plan = Planner::with_config(&db, config(4)).plan(&e).unwrap();
        assert!(matches!(plan.phys, PhysPlan::Exchange { .. }));
        let mut stats = Stats::new();
        let mut ctx = ExecCtx {
            ev: Evaluator::new(&db),
            env: Env::new(),
            stats: &mut stats,
            opts: ExecOptions {
                budget: MemoryBudget::unbounded(),
                vectorize: true,
                ..PlannerConfig::default().exec_options()
            },
        };
        let mut op = plan.phys.compile();
        assert!(matches!(
            op.next_batch(&mut ctx),
            Err(EvalError::OperatorProtocol(_))
        ));
        op.open(&mut ctx).unwrap();
        let mut rows = 0usize;
        while let Some(b) = op.next_batch(&mut ctx).unwrap() {
            rows += b.len();
        }
        assert!(rows > 0);
        let scanned = ctx.stats.rows_scanned;
        // exhausted streams are fused — no re-execution, no re-counting
        assert!(op.next_batch(&mut ctx).unwrap().is_none());
        assert_eq!(ctx.stats.rows_scanned, scanned);
        op.close(&mut ctx);
        assert!(matches!(
            op.next_batch(&mut ctx),
            Err(EvalError::OperatorProtocol(_))
        ));
        assert_eq!(
            ctx.stats.rows_scanned, scanned,
            "close misuse re-ran workers"
        );
    }

    /// A database whose extents all span several batches: `n` parts
    /// (as [`big_part_db`]), `n` suppliers holding up to three part oids
    /// each (some dangling, some none) and `n` deliveries, several per
    /// supplier and some naming no supplier.
    fn big_join_db(n: usize) -> Database {
        let mut db = big_part_db(n);
        let pid = |i: usize| Value::Oid(Oid(1_000_000 + (i % n) as u64));
        for i in 0..n {
            let parts = match i % 10 {
                0 => vec![],
                1 => vec![pid(i), Value::Oid(Oid(9_999_999))],
                _ => vec![pid(i), pid(i * 7 + 3), pid(i / 2)],
            };
            db.insert(
                "SUPPLIER",
                Tuple::from_pairs([
                    ("eid", Value::Oid(Oid(2_000_000 + i as u64))),
                    ("sname", Value::str(&format!("supplier-{i}"))),
                    ("parts", Value::Set(Set::from_values(parts))),
                ]),
            )
            .unwrap();
            let supply =
                Tuple::from_pairs([("part", pid(i)), ("quantity", Value::Int((i % 50) as i64))]);
            db.insert(
                "DELIVERY",
                Tuple::from_pairs([
                    ("did", Value::Oid(Oid(3_000_000 + i as u64))),
                    (
                        "supplier",
                        Value::Oid(Oid(2_000_000 + (i * 3 % (n + n / 4)) as u64)),
                    ),
                    ("supply", Value::Set(Set::singleton(Value::Tuple(supply)))),
                    ("date", Value::Date(940_101 + (i % 28) as i64)),
                ]),
            )
            .unwrap();
        }
        db
    }

    /// [`config`] with the hash join family pinned: rule-based planning
    /// never trades it for sort-merge, even under a tight budget.
    fn hash_config(dop: usize) -> PlannerConfig {
        PlannerConfig {
            cost_based: false,
            join_algo: JoinAlgo::Hash,
            ..config(dop)
        }
    }

    /// Runs `e` serially and at every dop in `dops` (each through a hash
    /// exchange), asserting the parallel runs return the serial answer
    /// with the serial work counters and per-operator row profile.
    fn assert_parallel_matches_serial(db: &Database, e: &Expr, dops: &[usize]) {
        let mut serial = Stats::new();
        let want = Planner::with_config(db, hash_config(1))
            .plan(e)
            .unwrap()
            .execute_streaming(&mut serial)
            .unwrap();
        for &dop in dops {
            let plan = Planner::with_config(db, hash_config(dop)).plan(e).unwrap();
            let explain = plan.explain();
            assert!(
                explain.contains("Exchange hash"),
                "dop {dop}: no parallel join for {e}:\n{explain}"
            );
            let mut stats = Stats::new();
            let got = plan.execute_streaming(&mut stats).unwrap();
            assert_eq!(got, want, "dop {dop}: {e}");
            assert_eq!(stats.rows_scanned, serial.rows_scanned, "dop {dop}: {e}");
            assert_eq!(
                stats.predicate_evals, serial.predicate_evals,
                "dop {dop}: {e}"
            );
            assert_eq!(
                stats.hash_build_rows, serial.hash_build_rows,
                "dop {dop}: {e}"
            );
            assert_eq!(stats.hash_probes, serial.hash_probes, "dop {dop}: {e}");
            assert_eq!(
                stats.operator_rows_by_label(),
                serial.operator_rows_by_label(),
                "dop {dop}: {e}"
            );
        }
    }

    #[test]
    fn parallel_hash_join_matches_serial_for_every_kind() {
        let fixture = supplier_part_db();
        let big = big_join_db(3 * BATCH_SIZE + 17);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            let join = |pred: Expr, right: Expr| Expr::Join {
                kind,
                lvar: "s".into(),
                rvar: "d".into(),
                pred: Box::new(pred),
                left: Box::new(project(&["eid", "sname"], table("SUPPLIER"))),
                right: Box::new(right),
            };
            let keys = eq(var("s").field("eid"), var("d").field("supplier"));
            // a projected build side drains through the set breaker; a
            // bare extent is strided by the build workers
            let projected = join(
                keys.clone(),
                project(&["did", "supplier"], table("DELIVERY")),
            );
            let extent = join(keys.clone(), table("DELIVERY"));
            // a residual over several candidates per key observes their
            // order: semi/anti probes stop at the first match. DELIVERY's
            // canonical order is by date, and this threshold falls inside
            // batch 2, which worker 0 of 2 owns — its rows reach the
            // build ahead of batch 1's.
            let residual = join(
                and(keys, lt(var("d").field("date"), lit(Value::Date(940_119)))),
                table("DELIVERY"),
            );
            assert_parallel_matches_serial(&fixture, &projected, &[4]);
            for e in [projected, extent, residual] {
                assert_parallel_matches_serial(&big, &e, &[2, 3, 4, 7]);
            }
        }
    }

    #[test]
    fn parallel_member_join_and_nestjoins_match_serial() {
        let queries = vec![
            // membership semijoin (Query 5 shape)
            semijoin(
                "s",
                "p",
                and(
                    member(var("p").field("pid"), var("s").field("parts")),
                    eq(var("p").field("color"), str_lit("red")),
                ),
                table("SUPPLIER"),
                table("PART"),
            ),
            // membership antijoin
            antijoin(
                "s",
                "p",
                member(var("p").field("pid"), var("s").field("parts")),
                table("SUPPLIER"),
                table("PART"),
            ),
            // membership inner join
            join(
                "s",
                "p",
                member(var("p").field("pid"), var("s").field("parts")),
                project(&["eid", "parts"], table("SUPPLIER")),
                project(&["pid", "price"], table("PART")),
            ),
            // LeftInRightSet membership
            semijoin(
                "p",
                "s",
                member(var("p").field("pid"), var("s").field("parts")),
                table("PART"),
                table("SUPPLIER"),
            ),
            // membership nestjoin (Query 6 shape)
            nestjoin_with(
                "s",
                "p",
                member(var("p").field("pid"), var("s").field("parts")),
                var("p").field("pname"),
                "pnames",
                table("SUPPLIER"),
                table("PART"),
            ),
            // equi nestjoin
            nestjoin(
                "s",
                "d",
                eq(var("s").field("eid"), var("d").field("supplier")),
                "ds",
                table("SUPPLIER"),
                table("DELIVERY"),
            ),
        ];
        let fixture = supplier_part_db();
        let big = big_join_db(3 * BATCH_SIZE + 17);
        for e in &queries {
            assert_parallel_matches_serial(&fixture, e, &[2, 4, 7]);
            assert_parallel_matches_serial(&big, e, &[2, 3, 4, 7]);
        }
    }

    #[test]
    fn duplicate_bearing_build_segments_keep_set_semantics() {
        // α[p : ⟨color = p.color⟩](PART) emits one row per part but only
        // two distinct rows: the build must see the set, as serially.
        let db = big_part_db(3 * BATCH_SIZE + 17);
        let left = map(
            "p",
            tuple(vec![
                ("pid", var("p").field("pid")),
                ("pcolor", var("p").field("color")),
            ]),
            table("PART"),
        );
        let colors = map(
            "p",
            tuple(vec![("color", var("p").field("color"))]),
            table("PART"),
        );
        let keys = eq(var("x").field("pcolor"), var("c").field("color"));
        let queries = [
            join("x", "c", keys.clone(), left.clone(), colors.clone()),
            nestjoin("x", "c", keys, "cs", left, colors),
        ];
        for e in &queries {
            let mut serial = Stats::new();
            Planner::with_config(&db, hash_config(1))
                .plan(e)
                .unwrap()
                .execute_streaming(&mut serial)
                .unwrap();
            assert_eq!(serial.hash_build_rows, 2, "{e}");
            assert_parallel_matches_serial(&db, e, &[4]);
        }
    }

    #[test]
    fn worker_errors_surface_deterministically() {
        // a predicate that errors on some rows: field access on an int
        let n = 2 * BATCH_SIZE;
        let db = big_part_db(n);
        let e = select(
            "p",
            lt(var("p").field("price").field("oops"), int(50)),
            table("PART"),
        );
        let serial_err = Planner::with_config(&db, config(1))
            .plan(&e)
            .unwrap()
            .execute_streaming(&mut Stats::new())
            .unwrap_err();
        let parallel_err = Planner::with_config(&db, config(4))
            .plan(&e)
            .unwrap()
            .execute_streaming(&mut Stats::new())
            .unwrap_err();
        // both fail with the same value-level error (no panic, no hang)
        assert_eq!(
            std::mem::discriminant(&serial_err),
            std::mem::discriminant(&parallel_err),
            "serial {serial_err} vs parallel {parallel_err}"
        );
    }

    #[test]
    fn split_chunks_is_exhaustive_and_contiguous() {
        let rows: Vec<Value> = (0..10).map(Value::Int).collect();
        let chunks = split_chunks(rows.clone(), 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 4); // 4, 3, 3
        let flat: Vec<Value> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, rows);
        // more workers than rows
        let chunks = split_chunks((0..2).map(Value::Int).collect(), 5);
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks.iter().map(Vec::len).sum::<usize>(), 2);
    }
}
