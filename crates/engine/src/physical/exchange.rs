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
//!   *and* probe for the hash join family. Build keys are evaluated in
//!   parallel, rows are routed by [`hashjoin::key_hash`] to per-worker
//!   partition tables built concurrently, and probe rows are split
//!   across workers, each probe key consulting exactly its owning
//!   partition — the same lookups a serial probe performs.
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
use crate::eval::{Env, EvalError, Evaluator};
use crate::pool::WorkerPool;
use crate::stats::Stats;
use oodb_adl::expr::{Expr, JoinKind};
use oodb_catalog::Database;
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
                plan: input.clone(),
                ord,
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

/// Splits `rows` into `n` contiguous chunks (first chunks one longer
/// when the split is uneven) — the deterministic work assignment for
/// build-key evaluation and probe phases.
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

/// Joins worker results in worker-id order: outputs are concatenated,
/// statistics folded via [`Stats::absorb_worker`], and the first error
/// (by worker id, for determinism) wins.
fn gather<T>(
    results: Vec<Result<(Vec<T>, Stats), EvalError>>,
    folded: &mut Stats,
) -> Result<Vec<Vec<T>>, EvalError> {
    let mut out = Vec::with_capacity(results.len());
    let mut first_err = None;
    for r in results {
        match r {
            Ok((rows, stats)) => {
                folded.absorb_worker(&stats);
                out.push(rows);
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

/// One exchange worker's closure: produces its output slice plus its
/// private [`Stats`], or the first error it hit.
type WorkerTask<'env, T> = Box<dyn FnOnce() -> Result<(Vec<T>, Stats), EvalError> + Send + 'env>;

/// Runs `tasks` on the [shared worker pool](crate::pool), mapping
/// per-task panics to the same error the scoped-thread implementation
/// produced. Results come back in task-submission order — the
/// (query, worker) key [`gather`]'s deterministic fold depends on —
/// regardless of which pool threads (or the submitting thread itself)
/// executed the morsels.
fn pool_run<'env, T: Send + 'env>(
    tasks: Vec<WorkerTask<'env, T>>,
) -> Vec<Result<(Vec<T>, Stats), EvalError>> {
    WorkerPool::global()
        .scope_run(tasks)
        .into_iter()
        .map(|r| r.unwrap_or(Err(EvalError::OperatorProtocol("parallel worker panicked"))))
        .collect()
}

// ---------------------------------------------------------------------
// Round-robin exchange.

/// Gathers a per-row segment executed by `dop` strided workers; see the
/// module docs. Blocking on its first pull, then emits the gathered
/// rows in [`BATCH_SIZE`](super::operator::BATCH_SIZE) chunks.
struct ExchangeOp {
    plan: PhysPlan,
    /// `plan`'s pre-order ordinal in the whole tree.
    ord: usize,
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
        let db: &Database = ctx.ev.db();
        let env = &ctx.env;
        let plan = &self.plan;
        let ord = self.ord;
        let dop = self.dop;
        // Each worker's pipeline state gets an equal share of the
        // memory budget, so the whole exchange stays within it.
        let opts = ExecOptions {
            budget: ctx.opts.budget.share(dop),
            ..ctx.opts.clone()
        };
        let tasks: Vec<WorkerTask<'_, Value>> = (0..dop)
            .map(|w| {
                let env = env.clone();
                let opts = opts.clone();
                Box::new(move || {
                    let mut stats = Stats::new();
                    let mut wctx = ExecCtx {
                        ev: Evaluator::new(db),
                        env,
                        stats: &mut stats,
                        opts,
                    };
                    let mut op = plan.compile_stride(ord, w, dop);
                    op.open(&mut wctx)?;
                    let rows = drain_rows(&mut op, &mut wctx);
                    op.close(&mut wctx);
                    rows.map(|r| (r, stats))
                }) as WorkerTask<'_, Value>
            })
            .collect();
        let results = pool_run(tasks);
        let mut folded = Stats::new();
        let gathered = gather(results, &mut folded);
        ctx.stats.merge(&folded);
        Ok(gathered?.into_iter().flatten().collect())
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

/// Hash-partitioned parallel build + probe for the hash join family.
///
/// Replaces the serial `HashJoinOp`/`MemberJoinOp` when the planner
/// wraps a join in `Exchange { partitioning: Hash }`: both sides are
/// drained (the build side through the usual canonical-set breaker),
/// build keys are evaluated in parallel and rows routed by key hash to
/// `dop` partition tables built concurrently, then probe rows are split
/// across `dop` workers probing the shared partition tables.
struct ParallelHashJoinOp {
    family: JoinFamily,
    mode: OutputMode,
    lvar: Name,
    rvar: Name,
    residual: Option<Expr>,
    dop: usize,
    left: BoxOp,
    right: BoxOp,
    buf: Option<Buffered>,
    spill: SpillMetrics,
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
            family,
            mode,
            lvar: lvar.clone(),
            rvar: rvar.clone(),
            residual: residual.clone(),
            dop,
            left: left.compile_rows(kids[0], 0, 1),
            right: right.compile_rows(kids[1], 0, 1),
            buf: None,
            spill: SpillMetrics::default(),
        })
    }

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

    /// Phase 1: evaluate every build row's route keys in parallel.
    /// Equi joins route each row under its single composite key;
    /// membership joins route under `rkey(y)` (`RightInLeftSet`) or
    /// every element of `rset(y)` (`LeftInRightSet`).
    fn eval_build_keys(
        &self,
        db: &Database,
        env: &Env,
        build: Vec<Value>,
        folded: &mut Stats,
    ) -> Result<Vec<Keyed>, EvalError> {
        let chunks = split_chunks(build, self.dop);
        let family = &self.family;
        let rvar = &self.rvar;
        let tasks: Vec<WorkerTask<'_, Keyed>> = chunks
            .into_iter()
            .map(|chunk| {
                let env = env.clone();
                Box::new(move || {
                    let ev = Evaluator::new(db);
                    let mut env = env;
                    let mut stats = Stats::new();
                    let mut out = Vec::with_capacity(chunk.len());
                    for y in chunk {
                        let keys = match family {
                            JoinFamily::Equi { rkeys, .. } => {
                                hashjoin::eval_keys(rkeys, rvar, &y, &ev, &mut env, &mut stats)?
                            }
                            JoinFamily::Member { shape } => match shape {
                                MemberShape::RightInLeftSet { rkey, .. } => {
                                    vec![hashjoin::eval_under(
                                        rkey, rvar, &y, &ev, &mut env, &mut stats,
                                    )?]
                                }
                                MemberShape::LeftInRightSet { rset, .. } => {
                                    let s = hashjoin::eval_under(
                                        rset, rvar, &y, &ev, &mut env, &mut stats,
                                    )?;
                                    s.as_set()?.iter().cloned().collect()
                                }
                            },
                        };
                        out.push((keys, y));
                    }
                    Ok((out, stats))
                }) as WorkerTask<'_, Keyed>
            })
            .collect();
        let results = pool_run(tasks);
        Ok(gather(results, folded)?.into_iter().flatten().collect())
    }

    /// Phase 2: route keyed rows to their partitions. For equi joins
    /// the whole key vector hashes as a unit; for membership joins each
    /// key routes separately, and a row reachable from several
    /// partitions is replicated into each, indexed only under that
    /// partition's keys (a keyless row — empty `rset` — indexes
    /// nowhere, exactly as in the serial build).
    fn partition_buckets(&self, keyed: Vec<Keyed>) -> Vec<Vec<Keyed>> {
        let dop = self.dop as u64;
        let mut buckets: Vec<Vec<Keyed>> = (0..self.dop).map(|_| Vec::new()).collect();
        match &self.family {
            JoinFamily::Equi { .. } => {
                for (key, row) in keyed {
                    let p = (hashjoin::key_hash(&key) % dop) as usize;
                    buckets[p].push((key, row));
                }
            }
            JoinFamily::Member { .. } => {
                for (keys, row) in keyed {
                    let mut per_part: Vec<(usize, Vec<Value>)> = Vec::new();
                    for k in keys {
                        let p = (hashjoin::value_hash(&k) % dop) as usize;
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
        buckets
    }

    /// Runs build and probe to completion, returning the joined rows.
    fn execute(&mut self, ctx: &mut ExecCtx<'_, '_>) -> Result<Vec<Value>, EvalError> {
        // The build side drains up front through the usual canonical-set
        // breaker.
        let build = drain_to_set(&mut self.right, &mut self.spill, ctx)?.into_values();
        let db: &Database = ctx.ev.db();
        let env = ctx.env.clone();

        // Phase 1: parallel build-key evaluation — bounded or not, the
        // keys are needed either way (for routing, or for the grace
        // partition files), so the budget never serializes this phase.
        let keyed = {
            let mut folded = Stats::new();
            let r = self.eval_build_keys(db, &env, build, &mut folded);
            ctx.stats.merge(&folded);
            r?
        };

        // An oversized build side falls back to the grace hash join,
        // which partitions both sides through the SpillManager
        // (partition-at-a-time, within the budget at any dop); the
        // probe side is still undrained, so grace streams it straight
        // into partition files.
        if ctx.opts.budget.is_bounded() {
            let bytes: usize = keyed
                .iter()
                .map(|(ks, row)| spill_exec::entry_bytes(ks, row))
                .sum();
            if ctx.opts.budget.exceeded_by(bytes) {
                let mode = self.hash_mode();
                let budget = ctx.opts.budget.clone();
                return match &self.family {
                    JoinFamily::Equi { lkeys, .. } => spill_exec::grace_equi_join(
                        &mode,
                        &self.lvar,
                        &self.rvar,
                        lkeys,
                        self.residual.as_ref(),
                        keyed,
                        &mut self.left,
                        &budget,
                        &mut self.spill,
                        ctx,
                    ),
                    JoinFamily::Member { shape } => spill_exec::grace_member_join(
                        &mode,
                        &self.lvar,
                        &self.rvar,
                        shape,
                        self.residual.as_ref(),
                        keyed,
                        &mut self.left,
                        &budget,
                        &mut self.spill,
                        ctx,
                    ),
                };
            }
        }

        // The probe side drains as a raw row stream (the serial probe
        // does not deduplicate either). Phase 2: routing.
        let probe = drain_rows(&mut self.left, ctx)?;
        let mut folded = Stats::new();
        let buckets = self.partition_buckets(keyed);

        // Phase 3: build the partition tables concurrently.
        let build_tasks: Vec<WorkerTask<'_, Tables>> = buckets
            .into_iter()
            .map(|bucket| {
                let member = matches!(self.family, JoinFamily::Member { .. });
                Box::new(move || {
                    let mut stats = Stats::new();
                    let table = if member {
                        Tables::Member(MemberHashTable::from_keyed(bucket, &mut stats))
                    } else {
                        Tables::Equi(JoinHashTable::from_keyed(bucket, &mut stats))
                    };
                    Ok((vec![table], stats))
                }) as WorkerTask<'_, Tables>
            })
            .collect();
        let build_results = pool_run(build_tasks);
        let tables: Vec<Tables> = match gather(build_results, &mut folded) {
            Ok(ts) => ts.into_iter().flatten().collect(),
            Err(e) => {
                ctx.stats.merge(&folded);
                return Err(e);
            }
        };
        let (equi_tables, member_tables) = split_tables(tables);

        // Phase 4: parallel probe over the shared partition tables.
        let chunks = split_chunks(probe, self.dop);
        let (family, mode, lvar, rvar, residual) = (
            &self.family,
            &self.mode,
            &self.lvar,
            &self.rvar,
            &self.residual,
        );
        let (equi_tables, member_tables) = (&equi_tables, &member_tables);
        let probe_tasks: Vec<WorkerTask<'_, Value>> = chunks
            .into_iter()
            .map(|chunk| {
                let env = env.clone();
                Box::new(move || {
                    let ev = Evaluator::new(db);
                    let mut env = env;
                    let mut stats = Stats::new();
                    let out = match (family, mode) {
                        (
                            JoinFamily::Equi { lkeys, .. },
                            OutputMode::Join { kind, right_attrs },
                        ) => JoinHashTable::probe_batch(
                            equi_tables,
                            *kind,
                            lvar,
                            rvar,
                            lkeys,
                            residual.as_ref(),
                            right_attrs,
                            (&chunk).into(),
                            &ev,
                            &mut env,
                            &mut stats,
                        )?,
                        (JoinFamily::Equi { lkeys, .. }, OutputMode::Nest { rfunc, as_attr }) => {
                            JoinHashTable::probe_nest_batch(
                                equi_tables,
                                lvar,
                                rvar,
                                lkeys,
                                residual.as_ref(),
                                rfunc.as_ref(),
                                as_attr,
                                (&chunk).into(),
                                &ev,
                                &mut env,
                                &mut stats,
                            )?
                        }
                        (JoinFamily::Member { shape }, OutputMode::Join { kind, right_attrs }) => {
                            MemberHashTable::probe_batch(
                                member_tables,
                                *kind,
                                lvar,
                                rvar,
                                shape,
                                residual.as_ref(),
                                right_attrs,
                                (&chunk).into(),
                                &ev,
                                &mut env,
                                &mut stats,
                            )?
                        }
                        (JoinFamily::Member { shape }, OutputMode::Nest { rfunc, as_attr }) => {
                            MemberHashTable::probe_nest_batch(
                                member_tables,
                                lvar,
                                rvar,
                                shape,
                                residual.as_ref(),
                                rfunc.as_ref(),
                                as_attr,
                                (&chunk).into(),
                                &ev,
                                &mut env,
                                &mut stats,
                            )?
                        }
                    };
                    Ok((out, stats))
                }) as WorkerTask<'_, Value>
            })
            .collect();
        let probe_results = pool_run(probe_tasks);
        let gathered = gather(probe_results, &mut folded);
        ctx.stats.merge(&folded);
        Ok(gathered?.into_iter().flatten().collect())
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
        self.left.open(ctx)?;
        self.right.open(ctx)
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
        self.left.close(ctx);
        self.right.close(ctx);
    }

    fn spill_metrics(&self) -> SpillMetrics {
        self.spill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::operator::BATCH_SIZE;
    use crate::plan::{Planner, PlannerConfig};
    use oodb_adl::dsl::*;
    use oodb_adl::expr::JoinKind;
    use oodb_catalog::fixtures::{supplier_part_catalog, supplier_part_db};
    use oodb_catalog::Database;
    use oodb_value::{Oid, Tuple};

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

    #[test]
    fn parallel_hash_join_matches_serial_for_every_kind() {
        let db = supplier_part_db();
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            let e = Expr::Join {
                kind,
                lvar: "s".into(),
                rvar: "d".into(),
                pred: Box::new(eq(var("s").field("eid"), var("d").field("supplier"))),
                left: Box::new(project(&["eid", "sname"], table("SUPPLIER"))),
                right: Box::new(project(&["did", "supplier"], table("DELIVERY"))),
            };
            let serial_plan = Planner::with_config(&db, config(1)).plan(&e).unwrap();
            let mut serial = Stats::new();
            let want = serial_plan.execute_streaming(&mut serial).unwrap();
            let plan = Planner::with_config(&db, config(4)).plan(&e).unwrap();
            let mut stats = Stats::new();
            let got = plan.execute_streaming(&mut stats).unwrap();
            assert_eq!(got, want, "kind {kind:?}");
            assert_eq!(
                stats.hash_build_rows, serial.hash_build_rows,
                "kind {kind:?}"
            );
            assert_eq!(stats.hash_probes, serial.hash_probes, "kind {kind:?}");
            assert_eq!(
                stats.operator_rows_by_label(),
                serial.operator_rows_by_label(),
                "kind {kind:?}"
            );
        }
    }

    #[test]
    fn parallel_member_join_and_nestjoins_match_serial() {
        let db = supplier_part_db();
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
        for e in queries {
            let mut serial = Stats::new();
            let want = Planner::with_config(&db, config(1))
                .plan(&e)
                .unwrap()
                .execute_streaming(&mut serial)
                .unwrap();
            for dop in [2usize, 4, 7] {
                let plan = Planner::with_config(&db, config(dop)).plan(&e).unwrap();
                let mut stats = Stats::new();
                let got = plan.execute_streaming(&mut stats).unwrap();
                assert_eq!(got, want, "dop {dop}: {e}");
                assert_eq!(stats.hash_build_rows, serial.hash_build_rows, "{e}");
                assert_eq!(stats.hash_probes, serial.hash_probes, "{e}");
            }
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
