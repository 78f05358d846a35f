//! Physical planning: lowering ADL expressions to operator trees.
//!
//! The point of the paper's rewrites is that once a query *is* a join
//! query, "the optimizer may choose from a number of different join
//! processing strategies" (§5.1). This planner is that chooser:
//!
//! * join predicates are split into **equi-key conjuncts**, **membership
//!   conjuncts** (`p.pid ∈ s.parts`) and a residual, and every
//!   implementation the split allows becomes a candidate — hash (both
//!   build sides of an inner join), sort-merge, index nested-loop,
//!   membership hash — with nested loops always among them;
//! * lowering is otherwise structural: every ADL operator becomes its
//!   physical counterpart, so a join-shaped plan is chosen nowhere but
//!   in that one candidate list. The one access-path choice is a
//!   selection over an extent whose first conjunct asks a
//!   reverse-indexed set for what an expression free of the row gives
//!   (`x.a ⊇ E`, `x.a = E`, `x.a ∋ e`, …): its input becomes a
//!   [`PhysPlan::SetIndexScan`] (see [`crate::physical::set_index`]).
//!   The materialization patterns of §6.2
//!   (`α[x : x except (a = σ[y : key(y) ∈ x.a](T))](X)` and
//!   `α[x : x except (a = deref(x.a))](X)`) are ordinary correlated maps
//!   here; the `nestjoin-map` rewrite turns the set pattern into a
//!   membership nestjoin, which the join node plans and spills like any
//!   join;
//! * one pick per operator keeps a candidate: the cheapest under the
//!   [`CostModel`] ([`JoinAlgo::Cheapest`], the default), or the first a
//!   forced [`JoinAlgo`] ranks (how benchmarks price one algorithm
//!   against the others); inner equi-join chains are re-ordered on top
//!   (see [`crate::joinorder`]) under `Cheapest` only;
//! * iterator parameter bodies that remain nested (set-valued attribute
//!   iteration the paper deliberately leaves in place) are evaluated by
//!   the reference evaluator inside the enclosing operator.

use crate::cost::{CostModel, Estimate};
use crate::physical::hashjoin::MemberShape;
use crate::physical::operator::ExecOptions;
use crate::physical::set_index::set_index_key;
use crate::physical::{exchange, JoinFamily, JoinMode, JoinSpec, Partitioning, PhysPlan};
use crate::stats::{OpTiming, Stats};
use oodb_adl::expr::{conjuncts, Expr, JoinKind};
use oodb_adl::vars::free_vars;
use oodb_adl::AdlTypeError;
use oodb_catalog::{CatalogStats, Database};
use oodb_spill::MemoryBudget;
use oodb_value::{BatchKind, CmpOp, Name, SetCmpOp, Value};
use std::fmt;

/// How the planner picks among the candidates it enumerates for every
/// join and nestjoin. Every variant picks from the same candidate list:
/// [`JoinAlgo::Cheapest`] by estimated cost, the forced variants by a
/// fixed preference rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// The candidate with the lowest estimated cost (see [`CostModel`]),
    /// with join-order enumeration on top (default). This is the §7
    /// argument: join queries win *because* the optimizer can choose.
    #[default]
    Cheapest,
    /// Forced hash joins: an index nested-loop join when the right
    /// operand is an extent indexed on an equi-key, else a hash join
    /// building on the right operand, else a membership hash join, else
    /// nested loops.
    Hash,
    /// Forced sort-merge joins: as [`JoinAlgo::Hash`], with a sort-merge
    /// join ahead of the hash join for inner equi-joins (the other join
    /// kinds keep hash).
    SortMerge,
    /// Forced nested loops everywhere — the paper's baseline, useful for
    /// benchmarking the benefit of set-oriented execution.
    NestedLoop,
}

impl JoinAlgo {
    /// Where a forced algorithm ranks a candidate (lower wins); `None`
    /// when it never picks it. Swapped build sides and owner joins are
    /// cost-based choices only. (`Cheapest` picks by cost and ranks no
    /// join.)
    fn rank(self, cand: Cand) -> Option<usize> {
        use Cand::*;
        let joins: &[Cand] = match self {
            JoinAlgo::Cheapest => &[],
            JoinAlgo::Hash => &[Index, Hash, Member, NestedLoop],
            JoinAlgo::SortMerge => &[Index, SortMerge, Hash, Member, NestedLoop],
            JoinAlgo::NestedLoop => &[NestedLoop],
        };
        joins.iter().position(|&j| j == cand)
    }
}

/// The kind of one planning candidate: what a forced [`JoinAlgo`] ranks.
/// The join kinds are declared in the order [`Planner::plan_join`] lists
/// them, which decides cost ties (the earlier candidate wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Cand {
    Hash,
    SwappedHash,
    SortMerge,
    Index,
    SwappedIndex,
    Member,
    Owners,
    NestedLoop,
}

/// Join-order search strategy for inner equi-join chains (see
/// [`crate::joinorder`]). Enumeration prices orders with the cost model,
/// so it runs only under [`JoinAlgo::Cheapest`]; forced algorithms keep
/// the rewrite's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrder {
    /// Keep exactly the join order the rewrite produced.
    Off,
    /// DPsize enumeration over connected subsets of the extracted join
    /// graph, with interesting orders and a greedy fallback above
    /// [`crate::joinorder::DP_RELATION_LIMIT`] relations (default).
    Dp,
}

/// Planner tuning knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// How join implementations are picked: by estimated cost
    /// ([`JoinAlgo::Cheapest`], the default) or by a forced algorithm's
    /// preference rank.
    pub join_algo: JoinAlgo,
    /// Degree of intra-query parallelism: worker count for the
    /// [`PhysPlan::Exchange`] operators the planner inserts at pipeline
    /// breaker boundaries. `1` (always honored) preserves exactly the
    /// serial pipeline; the default is the machine's available
    /// parallelism, overridable with the `OODB_PARALLELISM` environment
    /// variable (how CI pins both a serial and a parallel pass).
    pub parallelism: usize,
    /// Minimum estimated input rows before an operator is worth an
    /// exchange — thread startup costs real time, so tiny inputs stay
    /// serial. Estimated through the cost model's [`CatalogStats`].
    pub parallel_threshold: usize,
    /// Memory budget in **bytes** for pipeline state (hash-join build
    /// tables, sort runs, grouping state, canonical-set boundaries),
    /// measured as the encoded size of the buffered rows. `0` =
    /// unbounded (the legacy all-in-memory behavior). The default comes
    /// from the `OODB_MEMORY_BUDGET` environment variable (how CI runs
    /// the whole suite under a 4 KiB budget); exchanges divide the
    /// budget into per-worker shares. Bounded budgets switch oversized
    /// hash and member builds to grace hash join and sorts to external
    /// merge sort — and feed an I/O term into the cost model, so
    /// candidate selection can prefer, say, sort-merge when grace
    /// recursion would be expensive.
    pub memory_budget: usize,
    /// Whether scan chunks carry columns. Columnar (the default) hands
    /// out the catalog's cached chunks with their unboxed columns, with
    /// strings and nested values stored one per row, as views that
    /// filters narrow (see `oodb_value::batch`); `Row` cuts them as row
    /// batches. The `OODB_BATCH_KIND` environment variable supplies the
    /// process default (how CI runs a whole pass under the row layout);
    /// results, operator row totals and classic work counters are
    /// identical under either — only the memory layout changes.
    pub batch_kind: BatchKind,
    /// Whether the streaming pipeline takes its vectorized fast paths
    /// (selection masks, column-at-a-time transforms, streaming
    /// ν/`Agg` group tables). `false` forces those operators onto their
    /// row-at-a-time / drain-to-set reference paths; join probes read
    /// key columns either way. The `OODB_VECTORIZE` environment variable
    /// supplies the process default (`on` unless set to `off`);
    /// results, operator row totals and classic work counters are
    /// identical either way — only the evaluation strategy changes.
    pub vectorize: bool,
    /// Join-*order* search over inner equi-join chains (the cost model
    /// alone only picks the best *algorithm* per join, in whatever
    /// order the rewrite produced). [`JoinOrder::Dp`] (the default)
    /// extracts a join graph and runs DPsize enumeration with
    /// interesting orders; [`JoinOrder::Off`] keeps the rewrite order.
    /// Results are identical either way — only the order joins execute
    /// in changes.
    pub join_order: JoinOrder,
    /// Whether the streaming pipeline's instrumentation shim captures
    /// per-operator wall-clock timings (`OpStats::timing`, the numbers
    /// behind `EXPLAIN ANALYZE`'s `actual_ms`). On by default; results
    /// and every work counter are bit-identical either way — disabling
    /// only skips the monotonic-clock reads and leaves the nanosecond
    /// totals zero.
    pub timing: bool,
}

impl PlannerConfig {
    /// The execution-time part of the configuration — memory budget,
    /// batch layout, vectorization and timing — as the one value the
    /// streaming pipeline takes.
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            budget: MemoryBudget::bytes(self.memory_budget),
            batch_kind: self.batch_kind,
            vectorize: self.vectorize,
            timing: self.timing,
        }
    }
}

/// Default worker count: the `OODB_PARALLELISM` environment variable if
/// set, the machine's available parallelism otherwise.
fn default_parallelism() -> usize {
    parallelism_from(std::env::var("OODB_PARALLELISM").ok().as_deref())
}

/// The worker count an `OODB_PARALLELISM` value asks for (`0` runs
/// serially, like `1`); unset, the machine's available parallelism.
/// Like `OODB_MEMORY_BUDGET`, a malformed value **panics** — CI's
/// pinned-dop passes must never silently run at another dop.
fn parallelism_from(var: Option<&str>) -> usize {
    match var {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("OODB_PARALLELISM must be a worker count, got {v:?}"))
            .max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            join_algo: JoinAlgo::Cheapest,
            parallelism: default_parallelism(),
            parallel_threshold: 2 * crate::physical::operator::BATCH_SIZE,
            memory_budget: default_memory_budget(),
            batch_kind: BatchKind::from_env(),
            vectorize: crate::physical::columnar::vectorize_from_env(),
            join_order: JoinOrder::Dp,
            timing: true,
        }
    }
}

/// Default memory budget: the `OODB_MEMORY_BUDGET` environment variable
/// (bytes) if set, unbounded (`0`) if unset. A malformed value panics
/// (see [`MemoryBudget::from_env`]).
fn default_memory_budget() -> usize {
    MemoryBudget::from_env().limit().unwrap_or(0)
}

/// Planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Type inference failed while computing an outer-join padding schema.
    Type(AdlTypeError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Type(e) => write!(f, "planning type error: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// An executable plan bound to its database.
pub struct Plan<'a> {
    /// The operator tree.
    pub phys: PhysPlan,
    db: &'a Database,
    /// Cost model the plan was built with.
    cost: CostModel<'a>,
    /// What streaming execution runs under (from
    /// [`PlannerConfig::exec_options`]).
    opts: ExecOptions,
    /// Microseconds join-order enumeration spent while lowering this
    /// plan (zero when enumeration never fired) — the `joinorder` span
    /// in the server's query-phase traces.
    joinorder_micros: u64,
    /// One `order=` line per join-order enumeration that fired while
    /// lowering: the chosen permutation with its estimated cost next to
    /// the rewrite order's (see [`crate::joinorder`]). Prepended to
    /// [`Plan::explain`].
    order_notes: Vec<String>,
}

impl Plan<'_> {
    /// Runs the plan through the streaming operator pipeline (the
    /// default execution path — see [`crate::physical::operator`]),
    /// under the planner configuration's [`ExecOptions`].
    pub fn execute_streaming(&self, stats: &mut Stats) -> Result<Value, crate::eval::EvalError> {
        self.phys.execute_streaming(self.db, stats, &self.opts)
    }

    /// Runs the plan with whole-set materialization at every operator
    /// boundary (the reference set-at-a-time path).
    pub fn execute(&self, stats: &mut Stats) -> Result<Value, crate::eval::EvalError> {
        self.phys.execute_on(self.db, stats)
    }

    /// EXPLAIN-style rendering: every operator line is annotated with
    /// `est_rows`/`est_cost`.
    pub fn explain(&self) -> String {
        let tree = self.cost.explain(&self.phys);
        if self.order_notes.is_empty() {
            tree
        } else {
            let mut out = String::new();
            for note in &self.order_notes {
                out.push_str(note);
                out.push('\n');
            }
            out.push_str(&tree);
            out
        }
    }

    /// The `order=` annotations join-order enumeration produced while
    /// this plan was lowered (empty when enumeration never fired).
    pub fn order_notes(&self) -> &[String] {
        &self.order_notes
    }

    /// Estimated output rows and total cost of the whole plan.
    pub fn estimate(&self) -> Estimate {
        self.cost.estimate(&self.phys)
    }

    /// Microseconds join-order enumeration spent while this plan was
    /// lowered (zero when enumeration never fired).
    pub fn joinorder_micros(&self) -> u64 {
        self.joinorder_micros
    }

    /// EXPLAIN ANALYZE: executes the plan through the streaming
    /// pipeline (per-operator timing forced on) and renders the EXPLAIN
    /// tree with `actual_rows`/`actual_ms`/`first_ms` next to the
    /// estimates, plus an `err=` estimate-error factor per operator where
    /// both are known.
    ///
    /// Actuals come from the [`Stats::operators`] entries carrying the
    /// node's pre-order ordinal (its line index here): entries arrive in
    /// exhaustion order and a label may sit on several nodes, so neither
    /// order nor label identifies a node. Entries sharing an ordinal (a
    /// re-opened operator) fold. Nodes with no entry (round-robin
    /// `Exchange` gathers, whose *workers* report the segment operators
    /// below; `Literal` leaves) render without actuals. `actual_ms` on an
    /// operator is inclusive of its subtree, Postgres-style.
    pub fn explain_analyze(
        &self,
        stats: &mut Stats,
    ) -> Result<AnalyzedPlan, crate::eval::EvalError> {
        let opts = ExecOptions {
            timing: true,
            ..self.opts.clone()
        };
        let value = self.phys.execute_streaming(self.db, stats, &opts)?;
        let mut by_node: std::collections::HashMap<usize, (u64, OpTiming)> =
            std::collections::HashMap::new();
        for op in &stats.operators {
            let (rows, timing) = by_node.entry(op.ordinal.0).or_default();
            *rows += op.rows_out;
            timing.absorb(&op.timing);
        }
        let lines = self.cost.annotated_lines(&self.phys);
        // `AnalyzedOp`s carry `op_label`s, EXPLAIN lines `node_line`s;
        // both walks are pre-order, so a line's index is its ordinal.
        let labels = op_labels(&self.phys);
        debug_assert_eq!(labels.len(), lines.len());
        let mut text = String::new();
        for note in &self.order_notes {
            text.push_str(note);
            text.push('\n');
        }
        let mut ops = Vec::new();
        for (ord, (line, label)) in lines.iter().zip(&labels).enumerate() {
            let actual = by_node.get(&ord);
            let est_rows = line.est_rows as f64;
            for _ in 0..line.depth {
                text.push_str("  ");
            }
            text.push_str(&line.node);
            text.push_str(&line.annot);
            if let Some((rows, timing)) = actual {
                text.push_str(&format!(
                    " (actual_rows={rows}, actual_ms={:.3}, first_ms={:.3}",
                    timing.total_ms(),
                    timing.first_ms()
                ));
                // Symmetric over/under-estimate factor, 1-row floors so
                // empty streams don't divide by zero.
                let est = est_rows.max(1.0);
                let act = (*rows as f64).max(1.0);
                text.push_str(&format!(", err={:.1}x", est.max(act) / est.min(act)));
                text.push(')');
            }
            ops.push(AnalyzedOp {
                label: label.clone(),
                est_rows: Some(est_rows),
                actual_rows: actual.map(|(rows, _)| *rows),
                actual_ns: actual.map(|(_, timing)| timing.total_ns()),
                first_ns: actual.map(|(_, timing)| timing.first_ns),
            });
            text.push('\n');
        }
        Ok(AnalyzedPlan { text, value, ops })
    }
}

/// One operator line of an [`AnalyzedPlan`]: the node label with its
/// estimate and measured actuals (when
/// the node's instrumentation reported — see
/// [`Plan::explain_analyze`] for which nodes don't).
#[derive(Debug, Clone)]
pub struct AnalyzedOp {
    /// The operator's `op_label`, the key its `Stats::operators` entry
    /// reports under (e.g. `HashJoin(Inner)`).
    pub label: String,
    /// Estimated output rows, as the EXPLAIN line prints them.
    pub est_rows: Option<f64>,
    /// Measured output rows, when instrumented.
    pub actual_rows: Option<u64>,
    /// Measured wall-clock nanoseconds (open+next+close, inclusive of
    /// the subtree), when instrumented.
    pub actual_ns: Option<u64>,
    /// Measured wall-clock nanoseconds until the node's first batch (or
    /// its exhaustion, when it emits none), inclusive of the subtree;
    /// never more than `actual_ns`. The slowest worker's, under an
    /// exchange.
    pub first_ns: Option<u64>,
}

/// The result of [`Plan::explain_analyze`]: the annotated EXPLAIN text,
/// the query result, and the per-operator rows/estimates in tree
/// pre-order.
#[derive(Debug)]
pub struct AnalyzedPlan {
    /// EXPLAIN tree with `(est_…)` and `(actual_…)` annotations.
    pub text: String,
    /// The query result (the pipeline really ran).
    pub value: Value,
    /// Per-operator annotations in explain (pre-)order.
    pub ops: Vec<AnalyzedOp>,
}

/// Pre-order `op_label`s of the whole tree — the keys
/// `Stats::operators` entries report under, aligned index-by-index with
/// [`CostModel::annotated_lines`].
fn op_labels(plan: &PhysPlan) -> Vec<String> {
    fn walk(p: &PhysPlan, out: &mut Vec<String>) {
        out.push(p.op_label());
        for c in p.children() {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// The physical planner.
pub struct Planner<'a> {
    pub(crate) db: &'a Database,
    pub(crate) config: PlannerConfig,
    /// Cost model pricing the candidates (and, for the exchange gate,
    /// the input rows).
    pub(crate) cost: CostModel<'a>,
    /// `order=` annotations accumulated while lowering (one per
    /// join-order enumeration that fired); drained into the [`Plan`].
    /// Interior mutability because lowering takes `&self`.
    pub(crate) order_notes: std::cell::RefCell<Vec<String>>,
    /// Microseconds spent in join-order enumeration while lowering;
    /// drained into the [`Plan`] alongside `order_notes`.
    pub(crate) joinorder_micros: std::cell::Cell<u64>,
}

impl<'a> Planner<'a> {
    /// A planner with default configuration (cost-based, statistics
    /// collected by scanning `db`).
    pub fn new(db: &'a Database) -> Self {
        Planner::with_config(db, PlannerConfig::default())
    }

    /// A planner with explicit configuration, its statistics collected by
    /// scanning `db`.
    pub fn with_config(db: &'a Database, config: PlannerConfig) -> Self {
        Planner::with_stats(db, config, CatalogStats::from_database(db))
    }

    /// A planner with externally supplied statistics (e.g. synthesized
    /// from `oodb_datagen::GenConfig` without scanning).
    pub fn with_stats(db: &'a Database, config: PlannerConfig, stats: CatalogStats) -> Self {
        let cost = CostModel::with_stats(db, stats).with_memory_budget(config.memory_budget);
        Planner {
            db,
            config,
            cost,
            order_notes: Default::default(),
            joinorder_micros: Default::default(),
        }
    }

    /// Lowers a closed ADL expression into an executable [`Plan`].
    pub fn plan(&self, e: &Expr) -> Result<Plan<'a>, PlanError> {
        self.order_notes.borrow_mut().clear();
        self.joinorder_micros.set(0);
        let mut phys = self.lower(e)?;
        if self.config.parallelism > 1 {
            self.parallelize(&mut phys);
        }
        Ok(Plan {
            phys,
            db: self.db,
            cost: CostModel::with_stats(self.db, self.cost.stats().clone())
                .with_memory_budget(self.config.memory_budget),
            opts: self.config.exec_options(),
            joinorder_micros: self.joinorder_micros.take(),
            order_notes: self.order_notes.take(),
        })
    }

    // -----------------------------------------------------------------
    // Exchange insertion (morsel-driven parallelism).

    /// Estimated rows an extent contributes, preferring statistics.
    fn extent_rows(&self, extent: &Name) -> f64 {
        if let Some(c) = self.cost.stats().cardinality(extent) {
            return c as f64;
        }
        self.db.table(extent).map(|t| t.len() as f64).unwrap_or(0.0)
    }

    /// Estimated rows flowing into a join (both sides).
    fn join_input_rows(&self, left: &PhysPlan, right: &PhysPlan) -> f64 {
        self.cost.estimate(left).rows + self.cost.estimate(right).rows
    }

    /// The "picks serial when estimated rows are tiny" gate: thread
    /// startup costs real time, so an exchange must move at least
    /// `parallel_threshold` estimated input rows.
    fn worth_exchange(&self, input_rows: f64) -> bool {
        input_rows >= self.config.parallel_threshold as f64
    }

    /// Inserts [`PhysPlan::Exchange`] operators into a lowered plan:
    /// maximal per-row segments over a base scan fan out round-robin
    /// (this is where pipelines split at breaker boundaries — hash and
    /// member build sides, sort runs and aggregate drains all pull
    /// their segment through an exchange), and
    /// hash-family joins get a parallel build (keyed by the workers,
    /// hashed into one table) and a parallel probe of that table.
    /// An owner join runs at dop 1 with no exchange under it: its left
    /// scan is read row by row, where an exchange would only gather a
    /// cached scan, and its right side drains into one canonical set,
    /// where a round-robin exchange would transpose the gathered rows
    /// into batches only for the drain to take them apart again. Only
    /// called with `parallelism > 1`; `1` preserves the serial plan
    /// exactly.
    fn parallelize(&self, plan: &mut PhysPlan) {
        // A maximal per-row segment: wrap it whole (nothing inside a
        // segment can parallelize on its own).
        if let Some(extent) = exchange::segment_scan(plan) {
            if self.worth_exchange(self.extent_rows(extent)) {
                exchanged(plan, Partitioning::RoundRobin, self.config.parallelism);
            }
            return;
        }
        if matches!(
            plan,
            PhysPlan::Join { spec, .. } if matches!(spec.family, JoinFamily::Owners { .. })
        ) {
            return;
        }
        for child in plan.children_mut() {
            self.parallelize(child);
        }
        // Hash-family joins additionally parallelize their own build +
        // probe when enough rows flow through them.
        if let PhysPlan::Join {
            spec,
            left,
            right: Some(right),
        } = plan
        {
            if spec.family.hashed() && self.worth_exchange(self.join_input_rows(left, right)) {
                exchanged(plan, Partitioning::Hash, self.config.parallelism);
            }
        }
    }

    pub(crate) fn lower(&self, e: &Expr) -> Result<PhysPlan, PlanError> {
        Ok(match e {
            Expr::Table(n) => PhysPlan::Scan(n.clone()),
            Expr::Lit(v) => PhysPlan::Literal(v.clone()),
            Expr::Select { var, pred, input } => PhysPlan::Filter {
                var: var.clone(),
                pred: (**pred).clone(),
                input: Box::new(self.select_input(var, pred, input)?),
            },
            Expr::Map { var, body, input } => PhysPlan::MapOp {
                var: var.clone(),
                body: (**body).clone(),
                input: Box::new(self.lower(input)?),
            },
            Expr::Project { attrs, input } => PhysPlan::ProjectOp {
                attrs: attrs.clone(),
                input: Box::new(self.lower(input)?),
            },
            Expr::Rename { pairs, input } => PhysPlan::RenameOp {
                pairs: pairs.clone(),
                input: Box::new(self.lower(input)?),
            },
            Expr::Unnest { attr, input } => PhysPlan::UnnestOp {
                attr: attr.clone(),
                input: Box::new(self.lower(input)?),
            },
            Expr::Nest {
                attrs,
                as_attr,
                input,
            } => PhysPlan::NestOp {
                attrs: attrs.clone(),
                as_attr: as_attr.clone(),
                input: Box::new(self.lower(input)?),
            },
            Expr::Flatten(input) => PhysPlan::FlattenOp {
                input: Box::new(self.lower(input)?),
            },
            Expr::SetOp(op, l, r) => PhysPlan::SetOpNode {
                op: *op,
                left: Box::new(self.lower(l)?),
                right: Box::new(self.lower(r)?),
            },
            Expr::Agg(op, input) => PhysPlan::AggNode {
                op: *op,
                input: Box::new(self.lower(input)?),
            },
            Expr::Let { var, value, body } => PhysPlan::LetOp {
                var: var.clone(),
                value: Box::new(self.lower(value)?),
                body: Box::new(self.lower(body)?),
            },
            Expr::Product(l, r) => PhysPlan::Join {
                spec: Box::new(JoinSpec::product()),
                left: Box::new(self.lower(l)?),
                right: Some(Box::new(self.lower(r)?)),
            },
            Expr::Join {
                kind,
                lvar,
                rvar,
                pred,
                left,
                right,
            } => self.plan_join(*kind, lvar, rvar, pred, left, right)?,
            Expr::NestJoin {
                lvar,
                rvar,
                pred,
                rfunc,
                as_attr,
                left,
                right,
            } => {
                // The nestjoin is not commutative (the left side keeps its
                // dangling tuples with empty groups), so only the
                // implementation is a choice, not the build side.
                let mode = JoinMode::Nest {
                    rfunc: rfunc.as_deref().cloned(),
                    as_attr: as_attr.clone(),
                };
                let (l, r) = (self.lower(left)?, self.lower(right)?);
                self.pick(self.join_candidates(mode, lvar, rvar, pred, &l, &r))
            }
            // Scalar or irreducible expressions: reference evaluator.
            other => PhysPlan::Eval(other.clone()),
        })
    }

    /// The input of `σ[var : pred](input)`: a set-index scan when `input`
    /// is an extent whose reverse-reference index answers `pred`'s first
    /// conjunct (see [`crate::physical::set_index`]), else its lowering.
    fn select_input(&self, var: &Name, pred: &Expr, input: &Expr) -> Result<PhysPlan, PlanError> {
        if let Expr::Table(extent) = input {
            let table = self.db.table(extent);
            if let Some((attr, key)) = table.and_then(|t| set_index_key(pred, var, t)) {
                let extent = extent.clone();
                return Ok(PhysPlan::SetIndexScan { extent, attr, key });
            }
        }
        self.lower(input)
    }

    /// The padding schema for a left outer join.
    fn right_attrs(&self, right: &Expr) -> Result<Vec<Name>, PlanError> {
        let t = oodb_adl::infer_closed(right, self.db.catalog()).map_err(PlanError::Type)?;
        t.sch().ok_or_else(|| {
            PlanError::Type(AdlTypeError::Shape {
                op: "outer join",
                found: t.to_string(),
            })
        })
    }

    fn plan_join(
        &self,
        kind: JoinKind,
        lvar: &Name,
        rvar: &Name,
        pred: &Expr,
        left: &Expr,
        right: &Expr,
    ) -> Result<PhysPlan, PlanError> {
        // Join-*order* enumeration: an inner equi-join chain of three or
        // more relations is collapsed into a join graph and re-ordered
        // by DPsize (see `crate::joinorder`). Anything the extraction
        // cannot prove safe falls through to the rewrite-order path.
        if kind == JoinKind::Inner
            && self.config.join_order == JoinOrder::Dp
            && self.config.join_algo == JoinAlgo::Cheapest
        {
            let t0 = std::time::Instant::now();
            let reordered = crate::joinorder::try_reorder(self, lvar, rvar, pred, left, right)?;
            self.joinorder_micros
                .set(self.joinorder_micros.get() + t0.elapsed().as_micros() as u64);
            if let Some(plan) = reordered {
                return Ok(plan);
            }
        }
        let l = self.lower(left)?;
        let r = self.lower(right)?;
        let right_attrs = if kind == JoinKind::LeftOuter {
            self.right_attrs(right)?
        } else {
            Vec::new()
        };
        let mode = JoinMode::Join { kind, right_attrs };
        let mut candidates = self.join_candidates(mode.clone(), lvar, rvar, pred, &l, &r);
        if kind == JoinKind::Inner {
            // The inner join is commutative (tuples are canonically
            // attribute-ordered), so the build side is a choice: the
            // swapped hash join builds on the original left, the swapped
            // index join probes the original left's index.
            let swapped = self.join_candidates(mode, rvar, lvar, pred, &r, &l);
            candidates.extend(swapped.into_iter().filter_map(|(cand, plan)| match cand {
                Cand::Hash => Some((Cand::SwappedHash, plan)),
                Cand::Index => Some((Cand::SwappedIndex, plan)),
                _ => None,
            }));
            candidates.sort_by_key(|(cand, _)| *cand);
        }
        Ok(self.pick(candidates))
    }

    /// The physical candidates of one orientation of a join `l ⋈ r` or
    /// nestjoin `l ⊣ r`, in tie-break order: hash, sort-merge (inner
    /// joins), index nested-loop (joins whose `r` scans an extent indexed
    /// on an equi-key), membership hash, owner join (see
    /// [`Planner::owners_family`]), nested loops. [`Planner::plan_join`]
    /// adds an inner join's swapped build sides; join-order enumeration
    /// prices both orientations.
    pub(crate) fn join_candidates(
        &self,
        mode: JoinMode,
        lvar: &Name,
        rvar: &Name,
        pred: &Expr,
        l: &PhysPlan,
        r: &PhysPlan,
    ) -> Vec<(Cand, PhysPlan)> {
        let split = split_pred(pred, lvar, rvar);
        let join = |family, residual| PhysPlan::Join {
            spec: Box::new(JoinSpec {
                family,
                mode: mode.clone(),
                lvar: lvar.clone(),
                rvar: rvar.clone(),
                residual,
            }),
            left: Box::new(l.clone()),
            right: Some(Box::new(r.clone())),
        };
        let join_kind = match mode {
            JoinMode::Join { kind, .. } => Some(kind),
            JoinMode::Nest { .. } => None,
        };
        // A keyed candidate checks every conjunct it does not key on: the
        // equi-keyed ones the membership conjunct, the membership-keyed one
        // the equi conjuncts.
        let mut candidates = Vec::new();
        if !split.equi.is_empty() {
            let (lkeys, rkeys): (Vec<Expr>, Vec<Expr>) = split.equi.iter().cloned().unzip();
            let member = split.member.as_ref().map(|(_, conjunct)| conjunct.clone());
            let rest: Vec<Expr> = split.residual.iter().cloned().chain(member).collect();
            let residual = build_residual(rest.clone());
            let keys = JoinFamily::Equi {
                lkeys: lkeys.clone(),
                rkeys: rkeys.clone(),
            };
            candidates.push((Cand::Hash, join(keys, residual.clone())));
            if join_kind == Some(JoinKind::Inner) {
                let sorted = JoinFamily::Sorted { lkeys, rkeys };
                candidates.push((Cand::SortMerge, join(sorted, residual)));
            }
            if join_kind.is_some() {
                let index = self.index_nl_candidate(&mode, lvar, rvar, &split.equi, &rest, l, r);
                candidates.extend(index.map(|plan| (Cand::Index, plan)));
            }
        }
        if let Some((shape, _)) = split.member {
            let equi = split.equi.into_iter();
            let equi = equi.map(|(lk, rk)| Expr::Cmp(CmpOp::Eq, lk.into(), rk.into()));
            let residual = build_residual(split.residual.into_iter().chain(equi).collect());
            let owners = self.owners_family(&mode, lvar, &shape, l);
            candidates.push((
                Cand::Member,
                join(JoinFamily::Member { shape }, residual.clone()),
            ));
            candidates.extend(owners.map(|family| (Cand::Owners, join(family, residual))));
        }
        candidates.push((Cand::NestedLoop, join(JoinFamily::Loop, Some(pred.clone()))));
        candidates
    }

    /// Builds an index nested-loop join if `right` scans an extent with a
    /// secondary index on one of the equi-key attributes. The `has_index`
    /// check *is* the planner-level guard: execution refuses to probe a
    /// missing index (`EvalError::MissingIndex`), so no path may
    /// construct an index-family [`PhysPlan::Join`] without it.
    #[allow(clippy::too_many_arguments)]
    fn index_nl_candidate(
        &self,
        mode: &JoinMode,
        lvar: &Name,
        rvar: &Name,
        equi: &[(Expr, Expr)],
        residual: &[Expr],
        left: &PhysPlan,
        right: &PhysPlan,
    ) -> Option<PhysPlan> {
        let PhysPlan::Scan(extent) = right else {
            return None;
        };
        let t = self.db.table(extent)?;
        let indexed = equi.iter().position(|(_, rk)| {
            matches!(
                rk,
                Expr::Field(b, a)
                    if matches!(b.as_ref(), Expr::Var(v) if v == rvar)
                        && t.has_index(a)
            )
        })?;
        let mut equi = equi.to_vec();
        let (lkey, rkey) = equi.remove(indexed);
        let attr = match rkey {
            Expr::Field(_, a) => a,
            _ => unreachable!("shape checked above"),
        };
        let mut residual_parts = residual.to_vec();
        for (lk, rk) in equi {
            residual_parts.push(Expr::Cmp(CmpOp::Eq, Box::new(lk), Box::new(rk)));
        }
        Some(PhysPlan::Join {
            spec: Box::new(JoinSpec {
                family: JoinFamily::Index {
                    lkey,
                    attr,
                    extent: extent.clone(),
                },
                mode: mode.clone(),
                lvar: lvar.clone(),
                rvar: rvar.clone(),
                residual: build_residual(residual_parts),
            }),
            left: Box::new(left.clone()),
            right: None,
        })
    }

    /// The owner-join family ([`JoinFamily::Owners`]) of a membership
    /// join `rkey(y) ∈ x.attr`, when `left` scans an extent that keeps a
    /// reverse-reference index on `attr`. Only for nestjoins, semijoins
    /// and antijoins (an inner or outer join would order the rows within
    /// one left row differently from the membership hash join), and only
    /// under an unbounded budget: under a bounded one the grace
    /// membership join keeps the job.
    fn owners_family(
        &self,
        mode: &JoinMode,
        lvar: &Name,
        shape: &MemberShape,
        left: &PhysPlan,
    ) -> Option<JoinFamily> {
        let modes = matches!(
            mode,
            JoinMode::Nest { .. }
                | JoinMode::Join {
                    kind: JoinKind::Semi | JoinKind::Anti,
                    ..
                }
        );
        let (MemberShape::RightInLeftSet { lset, rkey }, PhysPlan::Scan(extent)) = (shape, left)
        else {
            return None;
        };
        let Expr::Field(base, attr) = lset else {
            return None;
        };
        let indexed = self.db.table(extent)?.has_owner_index(attr);
        let over_left = matches!(base.as_ref(), Expr::Var(v) if v == lvar);
        (modes && self.config.memory_budget == 0 && over_left && indexed).then(|| {
            JoinFamily::Owners {
                rkey: rkey.clone(),
                attr: attr.clone(),
                extent: extent.clone(),
            }
        })
    }

    /// Keeps one candidate: under [`JoinAlgo::Cheapest`] the one with the
    /// lowest estimated cost, earlier candidates winning ties (so callers
    /// list their preferred implementation first); under a forced
    /// algorithm the one it ranks first.
    fn pick(&self, candidates: Vec<(Cand, PhysPlan)>) -> PhysPlan {
        let algo = self.config.join_algo;
        candidates
            .into_iter()
            .filter_map(|(cand, plan)| {
                let score = match algo {
                    JoinAlgo::Cheapest => self.cost.estimate(&plan).cost,
                    forced => forced.rank(cand)? as f64,
                };
                Some((score, plan))
            })
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(_, plan)| plan)
            .expect("nested loops is a candidate every algorithm accepts")
    }
}

/// Wraps `plan` in an exchange of `dop` workers, in place.
fn exchanged(plan: &mut PhysPlan, partitioning: Partitioning, dop: usize) {
    let input = std::mem::replace(plan, PhysPlan::Scan(Name::from("")));
    *plan = PhysPlan::Exchange {
        partitioning,
        dop,
        input: Box::new(input),
    };
}

struct SplitPred {
    equi: Vec<(Expr, Expr)>,
    /// The membership shape with the conjunct it came from.
    member: Option<(MemberShape, Expr)>,
    residual: Vec<Expr>,
}

/// Splits a join predicate into equi-key pairs, at most one membership
/// shape, and residual conjuncts.
fn split_pred(pred: &Expr, lvar: &Name, rvar: &Name) -> SplitPred {
    let mut equi = Vec::new();
    let mut member: Option<(MemberShape, Expr)> = None;
    let mut residual = Vec::new();

    let only_over =
        |e: &Expr, v: &Name| -> bool { !e.mentions_table() && free_vars(e).iter().all(|n| n == v) };

    for c in conjuncts(pred) {
        match c {
            Expr::Cmp(CmpOp::Eq, a, b) => {
                // Both sides must actually reference their variable — a
                // one-sided constant comparison is a filter, not a key.
                let (af, bf) = (free_vars(a), free_vars(b));
                if !af.is_empty() && !bf.is_empty() && only_over(a, lvar) && only_over(b, rvar) {
                    equi.push(((**a).clone(), (**b).clone()));
                    continue;
                }
                if !af.is_empty() && !bf.is_empty() && only_over(a, rvar) && only_over(b, lvar) {
                    equi.push(((**b).clone(), (**a).clone()));
                    continue;
                }
                residual.push(c.clone());
            }
            Expr::SetCmp(SetCmpOp::In, k, s) if member.is_none() && !free_vars(s).is_empty() => {
                let shape = if only_over(k, rvar) && only_over(s, lvar) {
                    MemberShape::RightInLeftSet {
                        lset: (**s).clone(),
                        rkey: (**k).clone(),
                    }
                } else if only_over(k, lvar) && only_over(s, rvar) {
                    MemberShape::LeftInRightSet {
                        lkey: (**k).clone(),
                        rset: (**s).clone(),
                    }
                } else {
                    residual.push(c.clone());
                    continue;
                };
                member = Some((shape, c.clone()));
            }
            other => residual.push(other.clone()),
        }
    }
    SplitPred {
        equi,
        member,
        residual,
    }
}

pub(crate) fn build_residual(parts: Vec<Expr>) -> Option<Expr> {
    if parts.is_empty() {
        None
    } else {
        Some(oodb_adl::expr::conjoin(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::{figure3_db, supplier_part_db};

    /// The family and mode of a join node, for shape assertions.
    pub(super) fn join_shape(p: &PhysPlan) -> Option<(&JoinFamily, &JoinMode)> {
        match p {
            PhysPlan::Join { spec, .. } => Some((&spec.family, &spec.mode)),
            _ => None,
        }
    }

    fn plan_and_run(db: &Database, e: &Expr) -> (PhysPlan, Value, Stats) {
        plan_and_run_with(db, e, PlannerConfig::default())
    }

    fn plan_and_run_with(
        db: &Database,
        e: &Expr,
        config: PlannerConfig,
    ) -> (PhysPlan, Value, Stats) {
        let planner = Planner::with_config(db, config);
        let plan = planner.plan(e).unwrap();
        let mut stats = Stats::new();
        let v = plan.execute(&mut stats).unwrap();
        (plan.phys, v, stats)
    }

    /// The default configuration under memory budget `bytes` (`0`:
    /// unbounded), whatever the environment sets.
    fn budgeted(bytes: usize) -> PlannerConfig {
        PlannerConfig {
            memory_budget: bytes,
            ..PlannerConfig::default()
        }
    }

    #[test]
    fn equi_join_goes_to_hash() {
        let db = figure3_db();
        let e = join(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let (phys, v, stats) = plan_and_run(&db, &e);
        assert!(
            matches!(
                join_shape(&phys),
                Some((JoinFamily::Equi { .. }, JoinMode::Join { .. }))
            ),
            "{}",
            phys.explain()
        );
        assert_eq!(v.as_set().unwrap().len(), 4);
        assert_eq!(stats.loop_iterations, 0);
        // agrees with the reference evaluator
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    #[test]
    fn member_pred_goes_to_member_join() {
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
        // unbounded, the bare SUPPLIER scan's owner index answers the
        // membership; bounded, the membership hash join does
        for (bytes, owners) in [(0, true), (4096, false)] {
            let (phys, v, _) = plan_and_run_with(&db, &e, budgeted(bytes));
            assert!(
                matches!(
                    &phys,
                    PhysPlan::Join { spec, .. } if matches!(
                        (&spec.family, &spec.mode, &spec.residual),
                        (JoinFamily::Owners { .. }, JoinMode::Join { .. }, Some(_)) if owners
                    ) || matches!(
                        (&spec.family, &spec.mode, &spec.residual),
                        (JoinFamily::Member { .. }, JoinMode::Join { .. }, Some(_)) if !owners
                    )
                ),
                "{}",
                phys.explain()
            );
            let ev = Evaluator::new(&db);
            assert_eq!(v, ev.eval_closed(&e).unwrap());
            assert_eq!(v.as_set().unwrap().len(), 3);
        }
    }

    #[test]
    fn every_candidate_checks_the_conjuncts_it_does_not_key_on() {
        // x.k = y.j ∧ y.v ∈ x.ks: the hash, sort-merge and index joins
        // key on the equality and must still check the membership, the
        // membership join the other way round. Only ⟨k = 1⟩ satisfies
        // both; ⟨k = 2⟩ matches on the key alone.
        let mut db = supplier_part_db();
        db.create_index("PART", "price").unwrap();
        let left = Expr::Lit(Value::set([
            Value::tuple([("k", Value::Int(1)), ("ks", Value::set([Value::Int(10)]))]),
            Value::tuple([("k", Value::Int(2)), ("ks", Value::set([Value::Int(20)]))]),
        ]));
        let both = |r: &str| {
            and(
                eq(var("x").field("k"), var("y").field(r)),
                member(var("y").field("pid"), var("x").field("ks")),
            )
        };
        let ev = Evaluator::new(&db);
        let planner = Planner::new(&db);
        let l = planner.lower(&left).unwrap();
        let right = project(&["j", "pid"], rename(&[("price", "j")], table("PART")));
        let cases = [
            (both("j"), planner.lower(&right).unwrap(), right),
            // an extent scan, so the index candidate is live
            (both("price"), PhysPlan::Scan("PART".into()), table("PART")),
        ];
        for (pred, r, right) in cases {
            let modes = [
                JoinMode::Join {
                    kind: JoinKind::Inner,
                    right_attrs: vec![],
                },
                JoinMode::Join {
                    kind: JoinKind::Semi,
                    right_attrs: vec![],
                },
                JoinMode::Nest {
                    rfunc: None,
                    as_attr: "ys".into(),
                },
            ];
            for mode in modes {
                let e = match &mode {
                    JoinMode::Join { kind, .. } => Expr::Join {
                        kind: *kind,
                        lvar: "x".into(),
                        rvar: "y".into(),
                        pred: Box::new(pred.clone()),
                        left: Box::new(left.clone()),
                        right: Box::new(right.clone()),
                    },
                    JoinMode::Nest { .. } => {
                        nestjoin("x", "y", pred.clone(), "ys", left.clone(), right.clone())
                    }
                };
                let want = ev.eval_closed(&e).unwrap();
                let candidates =
                    planner.join_candidates(mode, &"x".into(), &"y".into(), &pred, &l, &r);
                for (cand, plan) in candidates {
                    let got = plan.execute_on(&db, &mut Stats::new()).unwrap();
                    assert_eq!(got, want, "{cand:?}:\n{}", plan.explain());
                }
            }
        }
    }

    #[test]
    fn non_equi_falls_back_to_nested_loop() {
        let db = figure3_db();
        let e = join(
            "x",
            "y",
            lt(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let (phys, v, stats) = plan_and_run(&db, &e);
        assert!(matches!(
            join_shape(&phys),
            Some((JoinFamily::Loop, JoinMode::Join { .. }))
        ));
        assert!(stats.loop_iterations > 0);
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    #[test]
    fn nested_loop_config_forces_nl() {
        let db = figure3_db();
        let e = join(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let planner = Planner::with_config(
            &db,
            PlannerConfig {
                join_algo: JoinAlgo::NestedLoop,
                ..Default::default()
            },
        );
        let plan = planner.plan(&e).unwrap();
        assert!(matches!(
            join_shape(&plan.phys),
            Some((JoinFamily::Loop, JoinMode::Join { .. }))
        ));
    }

    #[test]
    fn sort_merge_config_used_for_inner() {
        let db = figure3_db();
        let e = join(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let planner = Planner::with_config(
            &db,
            PlannerConfig {
                join_algo: JoinAlgo::SortMerge,
                ..Default::default()
            },
        );
        let plan = planner.plan(&e).unwrap();
        assert!(matches!(
            join_shape(&plan.phys),
            Some((
                JoinFamily::Sorted { .. },
                JoinMode::Join {
                    kind: JoinKind::Inner,
                    ..
                }
            ))
        ));
        let mut stats = Stats::new();
        let v = plan.execute(&mut stats).unwrap();
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
        // semijoin keeps hash under sort-merge preference
        let sj = semijoin(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        assert!(matches!(
            join_shape(&planner.plan(&sj).unwrap().phys),
            Some((JoinFamily::Equi { .. }, JoinMode::Join { .. }))
        ));
    }

    #[test]
    fn nestjoin_plans_member_variant() {
        let db = supplier_part_db();
        let e = nestjoin_with(
            "s",
            "p",
            member(var("p").field("pid"), var("s").field("parts")),
            var("p").field("pname"),
            "pnames",
            table("SUPPLIER"),
            table("PART"),
        );
        // unbounded an owner nestjoin, bounded a membership hash one
        let (phys, v, _) = plan_and_run_with(&db, &e, budgeted(0));
        assert!(matches!(
            join_shape(&phys),
            Some((JoinFamily::Owners { .. }, JoinMode::Nest { .. }))
        ));
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
        let (phys, v, _) = plan_and_run_with(&db, &e, budgeted(4096));
        assert!(matches!(
            join_shape(&phys),
            Some((JoinFamily::Member { .. }, JoinMode::Nest { .. }))
        ));
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    /// α[s : s except (parts = σ[p : key(p) ∈ s.parts](PART))](SUPPLIER)
    fn set_materialization(key: &str) -> Expr {
        map(
            "s",
            except(
                var("s"),
                vec![(
                    "parts",
                    select(
                        "p",
                        member(var("p").field(key), var("s").field("parts")),
                        table("PART"),
                    ),
                )],
            ),
            table("SUPPLIER"),
        )
    }

    // §6.2's patterns lower structurally, as the maps they are; the
    // executors' answers are checked in `physical::assembly`

    #[test]
    fn identity_key_materialization_is_a_correlated_map() {
        let db = supplier_part_db();
        let e = set_materialization("pid");
        let (phys, v, _) = plan_and_run(&db, &e);
        assert!(matches!(phys, PhysPlan::MapOp { .. }), "{phys:?}");
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    #[test]
    fn non_identity_key_materialization_is_a_correlated_map() {
        let db = supplier_part_db();
        // same shape, but keyed on pname (not the identity)
        let e = set_materialization("pname");
        let (phys, v, _) = plan_and_run(&db, &e);
        assert!(matches!(phys, PhysPlan::MapOp { .. }), "{phys:?}");
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    #[test]
    fn single_deref_materialization_is_a_correlated_map() {
        let db = supplier_part_db();
        let e = map(
            "d",
            except(
                var("d"),
                vec![("supplier", deref(var("d").field("supplier"), "Supplier"))],
            ),
            table("DELIVERY"),
        );
        let (phys, v, stats) = plan_and_run(&db, &e);
        assert!(matches!(phys, PhysPlan::MapOp { .. }), "{phys:?}");
        assert_eq!(stats.oid_lookups, 3);
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    #[test]
    fn parallelism_parses_a_worker_count() {
        assert_eq!(parallelism_from(Some("4")), 4);
        assert_eq!(parallelism_from(Some(" 2\n")), 2);
        assert_eq!(parallelism_from(Some("0")), 1);
        assert!(parallelism_from(None) >= 1);
    }

    #[test]
    #[should_panic(expected = "OODB_PARALLELISM must be a worker count")]
    fn malformed_parallelism_panics() {
        parallelism_from(Some("4x"));
    }

    #[test]
    fn outer_join_padding_schema_computed() {
        let db = figure3_db();
        let e = outerjoin(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let (phys, v, _) = plan_and_run(&db, &e);
        match join_shape(&phys) {
            Some((JoinFamily::Equi { .. }, JoinMode::Join { right_attrs, .. })) => {
                assert_eq!(right_attrs.len(), 3); // c, d, yid
            }
            _ => panic!("expected hash join, got {}", phys.explain()),
        }
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    #[test]
    fn let_runs_value_once() {
        let db = supplier_part_db();
        // let reds = σ[p: color=red](PART) in SUPPLIER ⋉_{s,p2: p2 ∈ reds…}
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
        let (phys, v, _) = plan_and_run(&db, &e);
        assert!(matches!(phys, PhysPlan::LetOp { .. }));
        assert_eq!(v.as_set().unwrap().len(), 3);
    }

    #[test]
    fn cost_based_builds_on_the_smaller_side() {
        let db = supplier_part_db();
        // DELIVERY (3 rows) ⋈ SUPPLIER (5 rows): building the hash table
        // on the 5-row side is wasteful, so the cost-based planner swaps
        // the commutative inner join and builds on DELIVERY.
        let e = join(
            "d",
            "s",
            eq(var("d").field("supplier"), var("s").field("eid")),
            table("DELIVERY"),
            table("SUPPLIER"),
        );
        let (phys, v, _) = plan_and_run(&db, &e);
        match &phys {
            PhysPlan::Join {
                spec,
                left,
                right: Some(right),
            } if matches!(
                (&spec.family, &spec.mode),
                (JoinFamily::Equi { .. }, JoinMode::Join { .. })
            ) =>
            {
                assert!(
                    matches!(left.as_ref(), PhysPlan::Scan(n) if n.as_ref() == "SUPPLIER"),
                    "expected probe side SUPPLIER:\n{}",
                    phys.explain()
                );
                assert!(matches!(right.as_ref(), PhysPlan::Scan(n) if n.as_ref() == "DELIVERY"));
            }
            other => panic!("expected hash join, got {}", other.explain()),
        }
        // the swap is semantics-preserving
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
        // the reverse orientation already builds on the small side — no swap
        let e2 = join(
            "s",
            "d",
            eq(var("s").field("eid"), var("d").field("supplier")),
            table("SUPPLIER"),
            table("DELIVERY"),
        );
        let planner = Planner::new(&db);
        match planner.plan(&e2).unwrap().phys {
            PhysPlan::Join {
                spec,
                right: Some(right),
                ..
            } if matches!(
                (&spec.family, &spec.mode),
                (JoinFamily::Equi { .. }, JoinMode::Join { .. })
            ) =>
            {
                assert!(matches!(right.as_ref(), PhysPlan::Scan(n) if n.as_ref() == "DELIVERY"));
            }
            other => panic!("expected hash join, got {}", other.explain()),
        }
    }

    #[test]
    fn plan_estimate_and_annotated_explain() {
        let db = figure3_db();
        let e = join(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let plan = Planner::new(&db).plan(&e).unwrap();
        let est = plan.estimate();
        assert!(est.rows > 0.0 && est.cost > 0.0);
        let text = plan.explain();
        assert!(text.contains("est_rows="), "{text}");
        assert!(text.contains("est_cost="), "{text}");
        // a forced plan is priced by the same model
        let forced = Planner::with_config(
            &db,
            PlannerConfig {
                join_algo: JoinAlgo::NestedLoop,
                ..Default::default()
            },
        )
        .plan(&e)
        .unwrap();
        assert!(
            forced.explain().contains("est_cost="),
            "{}",
            forced.explain()
        );
    }

    #[test]
    fn explain_renders_tree() {
        let db = figure3_db();
        let e = join(
            "x",
            "y",
            eq(var("x").field("b"), var("y").field("d")),
            table("X"),
            table("Y"),
        );
        let text = Planner::new(&db).plan(&e).unwrap().explain();
        assert!(text.contains("HashJoin"));
        assert!(text.contains("Scan X"));
        assert!(text.contains("Scan Y"));
    }
}

#[cfg(test)]
mod index_tests {
    use super::tests::join_shape;
    use super::*;
    use crate::eval::Evaluator;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::supplier_part_db;

    #[test]
    fn indexed_extent_uses_index_nl_join() {
        let mut db = supplier_part_db();
        db.create_index("PART", "color").unwrap();
        // PART-color equi-join against a color list
        let colors = map(
            "c",
            tuple(vec![("col", var("c"))]),
            Expr::Lit(oodb_value::Value::set([
                oodb_value::Value::str("red"),
                oodb_value::Value::str("green"),
            ])),
        );
        let e = join(
            "c",
            "p",
            eq(var("c").field("col"), var("p").field("color")),
            colors,
            table("PART"),
        );
        let planner = Planner::new(&db);
        let plan = planner.plan(&e).unwrap();
        assert!(
            matches!(
                join_shape(&plan.phys),
                Some((JoinFamily::Index { .. }, JoinMode::Join { .. }))
            ),
            "{}",
            plan.explain()
        );
        let mut stats = Stats::new();
        let v = plan.execute(&mut stats).unwrap();
        assert!(stats.index_probes > 0);
        // agrees with the reference evaluator: 3 red + 1 green part
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
        assert_eq!(v.as_set().unwrap().len(), 4);
    }

    #[test]
    fn no_index_no_index_join() {
        let db = supplier_part_db(); // no secondary indexes
        let e = join(
            "s",
            "d",
            eq(var("s").field("eid"), var("d").field("supplier")),
            project(&["eid", "sname"], table("SUPPLIER")),
            table("DELIVERY"),
        );
        let planner = Planner::new(&db);
        assert!(matches!(
            join_shape(&planner.plan(&e).unwrap().phys),
            Some((JoinFamily::Equi { .. }, JoinMode::Join { .. }))
        ));
        // with the index present, the index join is offered and wins
        let mut db2 = supplier_part_db();
        db2.create_index("DELIVERY", "supplier").unwrap();
        let planner2 = Planner::new(&db2);
        assert!(matches!(
            join_shape(&planner2.plan(&e).unwrap().phys),
            Some((JoinFamily::Index { .. }, JoinMode::Join { .. }))
        ));
    }

    #[test]
    fn cost_based_never_emits_index_nl_without_an_index() {
        // the cost-based pick must respect the same planner-level guard
        // as the forced ones: no index, no index nested-loop join
        let db = supplier_part_db();
        let e = join(
            "s",
            "d",
            eq(var("s").field("eid"), var("d").field("supplier")),
            table("SUPPLIER"),
            table("DELIVERY"),
        );
        let plan = Planner::new(&db).plan(&e).unwrap();
        fn no_index_nl(p: &PhysPlan) {
            assert!(
                !matches!(join_shape(p), Some((JoinFamily::Index { .. }, _))),
                "{}",
                p.explain()
            );
            for c in p.children() {
                no_index_nl(c);
            }
        }
        no_index_nl(&plan.phys);
    }

    #[test]
    fn executing_index_nl_on_unindexed_attr_is_a_real_error() {
        // hand-built plan that violates the planner guard: execution must
        // fail loudly (this used to be a debug_assert!) — also when the
        // probe side is empty, so no probe ever reaches the index
        let db = supplier_part_db();
        let suppliers = PhysPlan::Scan("SUPPLIER".into());
        let no_suppliers = PhysPlan::Filter {
            var: "s".into(),
            pred: lit(Value::Bool(false)),
            input: Box::new(suppliers.clone()),
        };
        for left in [suppliers, no_suppliers] {
            let bad = PhysPlan::Join {
                spec: Box::new(JoinSpec {
                    family: JoinFamily::Index {
                        lkey: var("s").field("eid"),
                        attr: "supplier".into(),
                        extent: "DELIVERY".into(),
                    },
                    mode: JoinMode::Join {
                        kind: JoinKind::Inner,
                        right_attrs: vec![],
                    },
                    lvar: "s".into(),
                    rvar: "d".into(),
                    residual: None,
                }),
                left: Box::new(left),
                right: None,
            };
            let mut stats = Stats::new();
            let err = bad.execute_on(&db, &mut stats).unwrap_err();
            assert!(
                matches!(
                    &err,
                    crate::eval::EvalError::MissingIndex { extent, attr }
                        if extent.as_ref() == "DELIVERY" && attr.as_ref() == "supplier"
                ),
                "{err}"
            );
            // the streaming pipeline refuses identically
            let mut s2 = Stats::new();
            assert!(matches!(
                bad.execute_streaming(&db, &mut s2, &PlannerConfig::default().exec_options())
                    .unwrap_err(),
                crate::eval::EvalError::MissingIndex { .. }
            ));
        }
    }

    #[test]
    fn index_join_kinds_agree_with_reference() {
        let mut db = supplier_part_db();
        db.create_index("DELIVERY", "supplier").unwrap();
        let ev = Evaluator::new(&db);
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let e = Expr::Join {
                kind,
                lvar: "s".into(),
                rvar: "d".into(),
                pred: Box::new(eq(var("s").field("eid"), var("d").field("supplier"))),
                left: Box::new(table("SUPPLIER")),
                right: Box::new(table("DELIVERY")),
            };
            let planner = Planner::new(&db);
            let plan = planner.plan(&e).unwrap();
            assert!(matches!(
                join_shape(&plan.phys),
                Some((JoinFamily::Index { .. }, JoinMode::Join { .. }))
            ));
            let mut stats = Stats::new();
            assert_eq!(
                plan.execute(&mut stats).unwrap(),
                ev.eval_closed(&e).unwrap()
            );
        }
    }
}
