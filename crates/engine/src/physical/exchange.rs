//! Exchange operators: intra-query parallelism over batch boundaries.
//!
//! The streaming pipeline of [`super::operator`] pulls batches through a
//! single thread. This module adds the morsel-driven parallel execution
//! the ROADMAP calls for, in the shape practical engines use (cf.
//! risinglight's exchange executors): plans are split at **pipeline
//! breaker boundaries** — hash/member build sides, sort runs, aggregate
//! drains — and the per-row segments between them fan out to a fixed
//! worker pool.
//!
//! Two partitioning strategies (see [`Partitioning`]):
//!
//! * **Round-robin** (`ExchangeOp`): each worker executes a clone of the
//!   same per-row segment (filters, maps, projections, unnests over one
//!   base scan), with the scan strided so each
//!   [`BATCH_SIZE`](super::operator::BATCH_SIZE)-aligned morsel belongs
//!   to exactly one worker. The exchange gathers worker outputs in
//!   worker order — a blocking boundary, like the breaker it feeds.
//! * **Hash**: the hash join family's one operator
//!   ([`super::hashjoin`]) at the exchange's degree of parallelism — the
//!   same operator a plain join node runs at dop 1, with the same one
//!   hash table. Its build and probe workers run on the harness below,
//!   each taking its stride of a round-robin input segment instead of
//!   gathering it: build workers key their rows, which are then hashed
//!   into the one table in worker order, and probe workers share it.
//!
//! The worker harness (`run_workers` over per-worker `Share`s of an
//! input) is shared by both: each worker gets its own execution context
//! and a `1/dop` share of the memory budget.
//!
//! **Determinism.** Results are canonical-set identical to serial
//! execution at every degree of parallelism (each row is scanned,
//! transformed and probed exactly once; only the transient row order
//! changes, which every canonical [`Set`](oodb_value::Set) boundary
//! erases), and worker statistics are merged in worker-id order with
//! per-operator entries folded by label ([`Stats::absorb_worker`]), so
//! `Stats::operators` row totals match a serial run of the same plan.

use super::hashjoin::JoinOp;
use super::operator::{Batch, BoxOp, Buffered, ExecCtx, ExecOptions, InstrState, Operator};
use super::{Partitioning, PhysPlan};
use crate::eval::{EvalError, Evaluator};
use crate::pool::WorkerPool;
use crate::stats::Stats;
#[cfg(test)]
use oodb_spill::MemoryBudget;
use oodb_value::{Name, Value};

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
        // A join of any other family runs at dop 1 (the operator clamps
        // it); not a join at all degrades to the input's own serial
        // compilation. Neither is reachable through the planner.
        Partitioning::Hash => match JoinOp::from_plan(input, ord, dop.max(1)) {
            Some(op) => Box::new(op),
            None => input.compile_rows(ord, 0, 1),
        },
    }
}

/// The base scan a round-robin segment strides over, if `plan` is a
/// valid segment: a chain of per-row operators (`σ α π ρ μ ⋃`) over
/// exactly one [`PhysPlan::Scan`] leaf. The planner and
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
        | PhysPlan::FlattenOp { input } => segment_scan(input),
        _ => None,
    }
}

/// Whether a segment can never emit the same row twice: a scan of an
/// extent (a set) under any number of filters. Maps, projections and
/// unnests can collapse distinct rows into equal ones, so
/// a build side made of them still goes through the canonical-set
/// breaker.
pub(crate) fn duplicate_free(plan: &PhysPlan) -> bool {
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
pub(crate) struct Segment {
    pub(crate) plan: PhysPlan,
    pub(crate) ord: usize,
}

/// One worker's share of an exchange or join input.
pub(crate) enum Share<'p> {
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
    pub(crate) fn strides(seg: &'p Segment, dop: usize) -> Vec<Self> {
        (0..dop)
            .map(|part| Share::Stride {
                seg,
                part,
                parts: dop,
            })
            .collect()
    }

    /// `rows` cut into `dop` contiguous chunks, one per worker.
    pub(crate) fn chunks(rows: Vec<Value>, dop: usize) -> Vec<Self> {
        split_chunks(rows, dop)
            .into_iter()
            .map(Share::Rows)
            .collect()
    }

    /// Feeds every batch of this share to `f`. A stride compiles and
    /// runs the segment's instrumented operators in the calling worker,
    /// so their reports land in the worker's [`Stats`].
    pub(crate) fn for_each_batch(
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

/// Runs `work` once per share (a [`Share`] of an input, or any other
/// unit of per-worker work) on the worker pool. Each worker gets its own
/// [`ExecCtx`] — a clone of the caller's environment, private [`Stats`]
/// and a `1/n` share of the memory budget, so the workers together stay
/// within it. Outputs come back in worker order; worker statistics are
/// folded into `ctx` (see [`gather`]) even on error.
pub(crate) fn run_workers<S: Send, A: Send>(
    shares: Vec<S>,
    ctx: &mut ExecCtx<'_, '_>,
    work: impl Fn(S, &mut ExecCtx<'_, '_>) -> Result<A, EvalError> + Sync,
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
    /// Round-robin exchanges skip the `Instrument` shim (their
    /// workers report instead), so they enforce the
    /// `open → next_batch* → close` protocol themselves — pulling a
    /// created or closed exchange must error, not silently re-run the
    /// whole worker fan-out.
    ///
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
        let chunk = self.buf.as_mut().expect("gathered above").next_chunk();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Env;
    use crate::physical::operator::BATCH_SIZE;
    use crate::plan::{JoinAlgo, Planner, PlannerConfig};
    use oodb_adl::dsl::*;
    use oodb_adl::expr::Expr;
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
        let join = PhysPlan::Join {
            spec: Box::new(crate::physical::JoinSpec::product()),
            left: Box::new(PhysPlan::Scan("PART".into())),
            right: Some(Box::new(PhysPlan::Scan("SUPPLIER".into()))),
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

    /// Columns exist only in the catalog's scan chunks: an exchange's
    /// gathered rows, and every buffered output, leave as row batches
    /// even when scans hand out columnar chunks.
    #[test]
    fn exchange_and_buffered_output_are_row_batches() {
        let db = big_part_db(2 * BATCH_SIZE + 3);
        let e = select("p", lt(var("p").field("price"), int(50)), table("PART"));
        let plan = Planner::with_config(&db, config(2)).plan(&e).unwrap();
        assert!(matches!(plan.phys, PhysPlan::Exchange { .. }));
        let mut stats = Stats::new();
        let mut ctx = ExecCtx {
            ev: Evaluator::new(&db),
            env: Env::new(),
            stats: &mut stats,
            opts: ExecOptions {
                budget: MemoryBudget::unbounded(),
                batch_kind: oodb_value::BatchKind::Columnar,
                vectorize: true,
                timing: false,
            },
        };
        let mut op = plan.phys.compile();
        op.open(&mut ctx).unwrap();
        let mut chunks = 0;
        while let Some(b) = op.next_batch(&mut ctx).unwrap() {
            assert!(matches!(b, Batch::Rows(_)), "{b:?}");
            chunks += 1;
        }
        assert!(chunks > 1);
        op.close(&mut ctx);

        let set = db.table("PART").unwrap().as_set().clone();
        for mut buf in [
            Buffered::shared(set.clone()),
            Buffered::new(set.into_values()),
        ] {
            let mut rows = 0;
            while let Some(b) = buf.next_chunk() {
                assert!(matches!(b, Batch::Rows(_)), "{b:?}");
                rows += b.len();
            }
            assert_eq!(rows, 2 * BATCH_SIZE + 3);
        }
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

    /// [`config`] with the hash join family pinned: a forced algorithm
    /// never trades it for sort-merge, even under a tight budget.
    fn hash_config(dop: usize) -> PlannerConfig {
        PlannerConfig {
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
                and(
                    keys.clone(),
                    lt(var("d").field("date"), lit(Value::Date(940_119))),
                ),
                table("DELIVERY"),
            );
            // A residual that fails on one candidate a semi/anti probe
            // never reaches at dop 1: supplier 57's deliveries are dids
            // 2593 and 1306 (canonical batch 1) and 19 (batch 2), so the
            // probe stops at 2593 before it reaches 19. Strided over two
            // workers, worker 0 (batches 0 and 2) keys 19 first; only
            // canonical candidate order keeps the error unraised.
            let failing = Value::Oid(Oid(3_000_019));
            let early_stop = join(
                and(
                    keys,
                    or(
                        ne(var("d").field("did"), lit(failing)),
                        eq(var("s").field("sname").field("oops"), int(0)),
                    ),
                ),
                table("DELIVERY"),
            );
            assert_parallel_matches_serial(&fixture, &projected, &[4]);
            let mut queries = vec![projected, extent, residual];
            if kind != JoinKind::Inner {
                queries.push(early_stop);
            }
            for e in queries {
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
            // LeftInRightSet inner join over a bare (strided) build: a
            // supplier sits under each of its parts, and each (part,
            // supplier) pair must come out once
            join(
                "p",
                "s",
                member(var("p").field("pid"), var("s").field("parts")),
                table("PART"),
                table("SUPPLIER"),
            ),
            // membership nestjoin with a residual over both sides, which
            // drops about half of the (part, supplier) pairs
            nestjoin(
                "p",
                "s",
                and(
                    member(var("p").field("pid"), var("s").field("parts")),
                    or(
                        lt(var("p").field("price"), int(48)),
                        eq(var("s").field("sname"), str_lit("supplier-2")),
                    ),
                ),
                "ss",
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

        // Build keys that fail, through the hash join at every dop: an
        // equi key dereferencing the deliveries' dangling supplier oids
        // (some build rows only), and a `LeftInRightSet` "set" that is a
        // string (every build row).
        let db = big_join_db(3 * BATCH_SIZE + 17);
        let dangling = join(
            "s",
            "d",
            eq(
                var("s").field("eid"),
                deref(var("d").field("supplier"), "Supplier").field("eid"),
            ),
            project(&["eid", "sname"], table("SUPPLIER")),
            table("DELIVERY"),
        );
        let not_a_set = semijoin(
            "p",
            "s",
            member(var("p").field("pid"), var("s").field("sname")),
            table("PART"),
            table("SUPPLIER"),
        );
        let is_dangling: fn(&EvalError) -> bool =
            |e| matches!(e, EvalError::DanglingPointer { .. });
        let is_value_error: fn(&EvalError) -> bool = |e| matches!(e, EvalError::Value(_));
        for (e, expected) in [(dangling, is_dangling), (not_a_set, is_value_error)] {
            let errors: Vec<EvalError> = [1usize, 2, 4]
                .into_iter()
                .map(|dop| {
                    let plan = Planner::with_config(&db, hash_config(dop))
                        .plan(&e)
                        .unwrap();
                    let explain = plan.explain();
                    assert_eq!(
                        explain.contains("Exchange hash"),
                        dop > 1,
                        "dop {dop}: {e}\n{explain}"
                    );
                    plan.execute_streaming(&mut Stats::new()).unwrap_err()
                })
                .collect();
            assert!(expected(&errors[0]), "{e} failed with {}", errors[0]);
            for err in &errors[1..] {
                assert_eq!(
                    std::mem::discriminant(err),
                    std::mem::discriminant(&errors[0]),
                    "{e}: {err} vs dop 1's {}",
                    errors[0]
                );
            }
        }
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
