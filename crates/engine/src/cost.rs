//! Cardinality and cost estimation for physical plans.
//!
//! "The optimizer may choose from a number of different join processing
//! strategies" (§5.1) — this module supplies the numbers the chooser
//! needs. Costs are denominated in the same **work units** as
//! [`Stats::work`](crate::stats::Stats::work): scanned rows, loop
//! iterations, predicate evaluations, hash build rows, hash probes,
//! pointer dereferences and index probes, so estimated costs are directly
//! comparable to measured work. (Sort-merge additionally charges its
//! comparison count, which the runtime counters do not track — without
//! that term a sort would look free.)
//!
//! Cardinalities come from [`CatalogStats`]: extent sizes, per-attribute
//! distinct counts, and the mean size of set-valued attributes (the
//! fan-out of the §6.2 materialization patterns). Arbitrary ADL key
//! expressions fall back to textbook default selectivities.

use crate::physical::hashjoin::MemberShape;
use crate::physical::{JoinFamily, JoinMode, JoinSpec, PhysPlan, SetKey};
use oodb_adl::expr::{conjuncts, Expr, JoinKind, SetOp};
use oodb_adl::vars::free_vars;
use oodb_catalog::{CatalogStats, Database};
use oodb_value::{CmpOp, Name, SetCmpOp};

/// One operator line of [`CostModel::annotated_lines`].
#[derive(Debug, Clone)]
pub struct AnnotatedLine {
    /// The node's depth in the tree (its indentation level).
    pub depth: usize,
    /// The node's `node_line`.
    pub node: String,
    /// The `" (est_rows=…, est_cost=…)"` annotation, with `est_spill=`
    /// when the node is expected to spill.
    pub annot: String,
    /// The estimated output rows, rounded as `annot` prints them.
    pub est_rows: u64,
}

/// Estimated output cardinality and cumulative cost of a plan node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated rows the operator emits.
    pub rows: f64,
    /// Estimated cumulative work units (node + its inputs).
    pub cost: f64,
}

/// Internal estimate carrying the provenance of the node's tuples — the
/// extent attribute statistics still apply to, if any.
#[derive(Debug, Clone)]
struct NodeEst {
    rows: f64,
    cost: f64,
    /// The extent this node's tuples structurally come from (scans,
    /// filters and projections preserve it; joins and maps do not).
    source: Option<Name>,
}

impl NodeEst {
    fn public(&self) -> Estimate {
        Estimate {
            rows: self.rows,
            cost: self.cost,
        }
    }
}

/// Cardinality assumed for nodes nothing is known about.
const DEFAULT_ROWS: f64 = 16.0;
/// Selectivity of a non-equality comparison.
const CMP_SEL: f64 = 1.0 / 3.0;
/// Selectivity of a whole-set comparison (⊆, ⊇, set equality): every
/// element of one side must appear in the other, which compounds like a
/// conjunction of equalities.
const SETCMP_SEL: f64 = 0.05;
/// Selectivity of an equality whose distinct count is unknown.
const EQ_SEL: f64 = 0.1;
/// Mean set-valued-attribute size assumed when statistics are silent.
const DEFAULT_SET_LEN: f64 = 4.0;
/// Output selectivity of a generic (non-equi) join predicate.
const NL_JOIN_SEL: f64 = 0.1;
/// Relative cost of inserting one row into a hash table versus probing
/// it once. Building also bounds memory, so the model charges build rows
/// double — this is what makes the build side of a commutative join a
/// real choice (build on the smaller input).
const BUILD_WEIGHT: f64 = 2.0;
/// Floor match probability: even "every key matches" containment
/// estimates leave this fraction unmatched (the paper's Example Query 4
/// exists *because* referential integrity can be violated).
const MISMATCH_FLOOR: f64 = 0.002;
/// Per-worker startup charge of an exchange (thread spawn + context
/// clone), in work units. Together with the planner's
/// `parallel_threshold` gate this is why tiny inputs stay serial.
const EXCHANGE_STARTUP: f64 = 64.0;
/// Work units charged per byte moved through a spill file (each
/// estimated spilled byte is written once and read once, so the charge
/// is applied to 2× the spill volume). Calibrated so that, under a
/// tight budget, the extra grace-recursion passes of a big hash build
/// can outweigh a sort-merge join's comparison cost — giving the
/// planner a reason to prefer external sort over grace recursion.
const SPILL_BYTE_COST: f64 = 0.2;
/// Estimated encoded row width when no statistics exist.
const DEFAULT_ROW_BYTES: f64 = 64.0;

/// Estimates cardinalities and work-unit costs for [`PhysPlan`] trees
/// against one database's [`CatalogStats`].
pub struct CostModel<'a> {
    db: &'a Database,
    stats: CatalogStats,
    /// Memory budget in bytes (`0` = unbounded): adds the spill I/O
    /// term to operators whose state would exceed it.
    memory_budget: usize,
    /// Observed-cardinality overrides for the plan currently being
    /// estimated (adaptive feedback, see
    /// [`CatalogStats::absorb_observed`]): operator label → measured
    /// `rows_out`. Primed per [`CostModel::estimate`]/[`CostModel::explain`]
    /// call with the labels that occur **exactly once** in that plan —
    /// absorbed profiles are folded by label, so an ambiguous label
    /// (two `Filter`s) carries a summed count that applies to neither
    /// node. Empty whenever the statistics carry no observations.
    observed: std::cell::RefCell<oodb_value::fxhash::FxHashMap<String, f64>>,
}

impl<'a> CostModel<'a> {
    /// A model with exact statistics collected by scanning `db`.
    pub fn new(db: &'a Database) -> Self {
        CostModel {
            stats: CatalogStats::from_database(db),
            db,
            memory_budget: 0,
            observed: Default::default(),
        }
    }

    /// A model with externally supplied statistics (e.g. synthesized
    /// from generator parameters).
    pub fn with_stats(db: &'a Database, stats: CatalogStats) -> Self {
        CostModel {
            db,
            stats,
            memory_budget: 0,
            observed: Default::default(),
        }
    }

    /// Prices plans under a byte memory budget (`0` = unbounded): hash
    /// builds and sort runs that would not fit gain an I/O term for the
    /// spill bytes and grace/merge passes they would incur.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// The statistics backing this model.
    pub fn stats(&self) -> &CatalogStats {
        &self.stats
    }

    /// Estimated output rows and cumulative cost of `plan`.
    pub fn estimate(&self, plan: &PhysPlan) -> Estimate {
        self.prime_observed(plan);
        let e = self.est(plan).public();
        self.observed.borrow_mut().clear();
        e
    }

    /// EXPLAIN rendering with per-operator `est_rows`/`est_cost`.
    pub fn explain(&self, plan: &PhysPlan) -> String {
        let mut out = String::new();
        for line in self.annotated_lines(plan) {
            out.push_str(&"  ".repeat(line.depth));
            out.push_str(&line.node);
            out.push_str(&line.annot);
            out.push('\n');
        }
        out
    }

    /// Fills the observed-cardinality override map for one
    /// `estimate`/`explain` call: labels occurring exactly once in
    /// `plan` that the statistics carry an absorbed observation for. A
    /// no-op (and the common fast path) when no feedback was absorbed.
    fn prime_observed(&self, plan: &PhysPlan) {
        let mut map = self.observed.borrow_mut();
        map.clear();
        if !self.stats.has_observations() {
            return;
        }
        fn count_labels(p: &PhysPlan, counts: &mut oodb_value::fxhash::FxHashMap<String, u32>) {
            *counts.entry(p.op_label()).or_insert(0) += 1;
            for c in p.children() {
                count_labels(c, counts);
            }
        }
        let mut counts = oodb_value::fxhash::FxHashMap::default();
        count_labels(plan, &mut counts);
        for (label, n) in counts {
            if n == 1 {
                if let Some(rows) = self.stats.observed_rows(&label) {
                    map.insert(label, rows as f64);
                }
            }
        }
    }

    /// The sort term a sort-merge join ([`JoinFamily::Sorted`]) charges
    /// for sorting `input` (comparisons plus external-sort I/O under the
    /// configured budget). Join-order enumeration subtracts it when an
    /// input already carries a matching **interesting order** — a prior
    /// sort-merge output sorted on the same keys feeds the merge for
    /// free instead of being re-derived.
    pub fn smj_sort_term(&self, input: &PhysPlan) -> f64 {
        let e = self.est(input);
        let (io, _) = self.sort_io(e.rows * self.row_bytes(input));
        e.rows * e.rows.max(2.0).log2() + io
    }

    /// The per-operator EXPLAIN lines, in the same pre-order `explain`
    /// renders — the cost-model half of
    /// [`crate::plan::Plan::explain_analyze`], which appends measured
    /// actuals to each line.
    pub fn annotated_lines(&self, plan: &PhysPlan) -> Vec<AnnotatedLine> {
        self.prime_observed(plan);
        let mut out = Vec::new();
        self.annotate_into(plan, 0, &mut out);
        self.observed.borrow_mut().clear();
        out
    }

    fn annotate_into(&self, plan: &PhysPlan, depth: usize, out: &mut Vec<AnnotatedLine>) {
        let e = self.est(plan);
        let spill = self.est_spill(plan);
        let est_rows = e.rows.round() as u64;
        let mut annot = format!(" (est_rows={est_rows}, est_cost={}", e.cost.round() as u64);
        if spill > 0.0 {
            annot.push_str(&format!(", est_spill={}", spill.round() as u64));
        }
        annot.push(')');
        out.push(AnnotatedLine {
            depth,
            node: plan.node_line(),
            annot,
            est_rows,
        });
        for child in plan.children() {
            self.annotate_into(child, depth + 1, out);
        }
    }

    /// The byte budget as a float, `None` when unbounded.
    fn budget_bytes(&self) -> Option<f64> {
        (self.memory_budget > 0).then_some(self.memory_budget as f64)
    }

    /// Estimated encoded bytes of one row produced by `plan`: measured
    /// per extent by [`CatalogStats`], summed across join sides,
    /// defaulted elsewhere.
    fn row_bytes(&self, plan: &PhysPlan) -> f64 {
        match plan {
            PhysPlan::Scan(n) | PhysPlan::SetIndexScan { extent: n, .. } => {
                self.stats.avg_row_bytes(n).unwrap_or(DEFAULT_ROW_BYTES)
            }
            PhysPlan::Filter { input, .. }
            | PhysPlan::ProjectOp { input, .. }
            | PhysPlan::RenameOp { input, .. }
            | PhysPlan::UnnestOp { input, .. }
            | PhysPlan::NestOp { input, .. }
            | PhysPlan::Exchange { input, .. } => self.row_bytes(input),
            // nestjoins emit the left row plus a grouped set of right
            // rows (an index join has no right plan to measure)
            PhysPlan::Join {
                spec,
                left,
                right: Some(right),
            } => match spec.mode {
                JoinMode::Join { .. } => self.row_bytes(left) + self.row_bytes(right),
                JoinMode::Nest { .. } => {
                    self.row_bytes(left) + DEFAULT_SET_LEN * self.row_bytes(right)
                }
            },
            _ => DEFAULT_ROW_BYTES,
        }
    }

    /// `(io_cost, spill_bytes)` of grace-hash-joining a build side of
    /// `build_bytes` against a probe side of `probe_bytes`: every
    /// recursion pass re-spills both sides, so a budget deep below the
    /// build size prices hash joins out in favor of sort-merge.
    fn grace_io(&self, build_bytes: f64, probe_bytes: f64) -> (f64, f64) {
        let Some(budget) = self.budget_bytes() else {
            return (0.0, 0.0);
        };
        if build_bytes <= budget {
            return (0.0, 0.0);
        }
        let fanout = crate::physical::spill_exec::GRACE_FANOUT as f64;
        let passes = (build_bytes / budget).log(fanout).ceil().max(1.0);
        let spilled = (build_bytes + probe_bytes) * passes;
        (2.0 * spilled * SPILL_BYTE_COST, spilled)
    }

    /// `(io_cost, spill_bytes)` of externally sorting `bytes`: runs are
    /// written once and merged back in one pass.
    fn sort_io(&self, bytes: f64) -> (f64, f64) {
        let Some(budget) = self.budget_bytes() else {
            return (0.0, 0.0);
        };
        if bytes <= budget {
            return (0.0, 0.0);
        }
        (2.0 * bytes * SPILL_BYTE_COST, bytes)
    }

    /// Estimated spill bytes this node (not its children) would write
    /// under the configured budget — the `est_spill` EXPLAIN column.
    fn est_spill(&self, plan: &PhysPlan) -> f64 {
        match plan {
            PhysPlan::Join { spec, left, right } => self.est_join(spec, left, right.as_deref()).1,
            // streaming ν grace-partitions grouped state beyond the
            // budget, like a hash build with no separate probe side
            PhysPlan::NestOp { input, .. } => {
                let i = self.est(input);
                self.grace_io(i.rows * self.row_bytes(input), 0.0).1
            }
            _ => 0.0,
        }
    }

    /// Cardinality of an extent, preferring statistics over the live
    /// table (synthesized statistics may describe a larger instance).
    fn extent_rows(&self, extent: &Name) -> f64 {
        self.stats
            .cardinality(extent)
            .map(|r| r as f64)
            .or_else(|| self.db.table(extent).map(|t| t.len() as f64))
            .unwrap_or(DEFAULT_ROWS)
    }

    /// Distinct count of a key expression over `var`, when it is a plain
    /// attribute of a node whose source extent is known.
    fn key_ndv(&self, key: &Expr, var: &Name, input: &NodeEst) -> Option<f64> {
        let attr = plain_attr(key, var)?;
        let source = input.source.as_ref()?;
        self.stats.distinct(source, attr).map(|d| d as f64)
    }

    /// Mean set size of a set-valued expression over `var`.
    fn set_len(&self, set: &Expr, var: &Name, input: &NodeEst) -> f64 {
        plain_attr(set, var)
            .and_then(|attr| {
                let source = input.source.as_ref()?;
                self.stats.avg_set_len(source, attr)
            })
            .unwrap_or(DEFAULT_SET_LEN)
    }

    /// Selectivity of one predicate conjunct over tuples of `input`.
    fn conjunct_selectivity(&self, c: &Expr, var: &Name, input: &NodeEst) -> f64 {
        match c {
            Expr::Cmp(CmpOp::Eq, a, b) => self.eq_selectivity(a, b, var, input),
            // an inequality keeps what the equality would drop
            Expr::Cmp(CmpOp::Ne, a, b) => 1.0 - self.eq_selectivity(a, b, var, input),
            Expr::Cmp(_, _, _) => CMP_SEL,
            // single-element membership is an equality against any of
            // the set's elements; whole-set comparisons compound
            Expr::SetCmp(SetCmpOp::In | SetCmpOp::NotIn, _, _) => CMP_SEL,
            Expr::SetCmp(_, _, _) => SETCMP_SEL,
            Expr::Not(inner) => 1.0 - self.conjunct_selectivity(inner, var, input),
            _ => CMP_SEL,
        }
    }

    /// Selectivity of `a = b`: an equality against a value free of `var`
    /// keys on the var side's distinct count.
    fn eq_selectivity(&self, a: &Expr, b: &Expr, var: &Name, input: &NodeEst) -> f64 {
        for (side, other) in [(a, b), (b, a)] {
            if free_vars(other).iter().all(|n| n != var) {
                if let Some(ndv) = self.key_ndv(side, var, input) {
                    return 1.0 / ndv.max(1.0);
                }
            }
        }
        EQ_SEL
    }

    /// Selectivity of `pred`'s conjuncts after the first `skip`.
    fn pred_selectivity(&self, pred: &Expr, skip: usize, var: &Name, input: &NodeEst) -> f64 {
        conjuncts(pred)[skip..]
            .iter()
            .map(|c| self.conjunct_selectivity(c, var, input))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Probability that one left key finds a match among the right keys
    /// (containment assumption with a referential-integrity floor).
    fn containment(&self, ndv_l: Option<f64>, ndv_r: Option<f64>, r_rows: f64) -> f64 {
        let ndv_l = ndv_l.unwrap_or(f64::MAX);
        let ndv_r = ndv_r.unwrap_or(r_rows).max(1.0);
        (ndv_r.min(r_rows) / ndv_l.max(1.0)).clamp(0.0, 1.0 - MISMATCH_FLOOR)
    }

    /// Join-kind specific output cardinality given the per-left-tuple
    /// match probability `p_match` and the expected matched pair count.
    fn join_rows(kind: JoinKind, l_rows: f64, pairs: f64, p_match: f64) -> f64 {
        match kind {
            JoinKind::Inner => pairs,
            JoinKind::Semi => l_rows * p_match,
            JoinKind::Anti => l_rows * (1.0 - p_match),
            JoinKind::LeftOuter => pairs.max(l_rows),
        }
    }

    fn est(&self, plan: &PhysPlan) -> NodeEst {
        let mut e = self.est_node(plan);
        // Adaptive feedback: a measured output cardinality beats the
        // estimate. Only primed (non-empty) when observations exist and
        // the label is unambiguous in the current plan.
        {
            let observed = self.observed.borrow();
            if !observed.is_empty() {
                if let Some(&rows) = observed.get(&plan.op_label()) {
                    e.rows = rows;
                }
            }
        }
        e
    }

    fn est_node(&self, plan: &PhysPlan) -> NodeEst {
        match plan {
            PhysPlan::Scan(n) => {
                let rows = self.extent_rows(n);
                NodeEst {
                    rows,
                    cost: rows,
                    source: Some(n.clone()),
                }
            }
            PhysPlan::SetIndexScan { extent, attr, key } => {
                // One posting list holds n·avg_set_len/distinct rows; a
                // key of several elements reads that many lists, and the
                // intersection is at most the shortest of them.
                let n = self.extent_rows(extent);
                let len = self
                    .stats
                    .avg_set_len(extent, attr)
                    .unwrap_or(DEFAULT_SET_LEN);
                let ndv = self.stats.distinct(extent, attr).map_or(n, |d| d as f64);
                let postings = (n * len / ndv.max(1.0)).min(n);
                let probes = match key {
                    SetKey::AllOf(_) => len,
                    SetKey::Element(_) => 1.0,
                };
                NodeEst {
                    rows: postings,
                    cost: probes + postings,
                    source: Some(extent.clone()),
                }
            }
            PhysPlan::Literal(v) => NodeEst {
                rows: v.as_set().map(|s| s.len() as f64).unwrap_or(1.0),
                cost: 0.0,
                source: None,
            },
            PhysPlan::Eval(_) => NodeEst {
                rows: 1.0,
                cost: 1.0,
                source: None,
            },
            PhysPlan::Filter { var, pred, input } => {
                let i = self.est(input);
                // a set-index scan's rows already satisfy the first
                // conjunct, which it keyed on
                let keyed = usize::from(matches!(**input, PhysPlan::SetIndexScan { .. }));
                let sel = self.pred_selectivity(pred, keyed, var, &i);
                NodeEst {
                    rows: (i.rows * sel).max(i.rows.min(1.0)),
                    cost: i.cost + i.rows,
                    source: i.source,
                }
            }
            PhysPlan::MapOp { input, .. } => {
                let i = self.est(input);
                NodeEst {
                    rows: i.rows,
                    cost: i.cost + i.rows,
                    source: None,
                }
            }
            PhysPlan::ProjectOp { input, .. } => {
                let i = self.est(input);
                NodeEst { ..i }
            }
            PhysPlan::RenameOp { input, .. } => {
                let i = self.est(input);
                NodeEst {
                    rows: i.rows,
                    cost: i.cost,
                    source: None,
                }
            }
            PhysPlan::UnnestOp { attr, input } => {
                let i = self.est(input);
                let fanout = i
                    .source
                    .as_ref()
                    .and_then(|s| self.stats.avg_set_len(s, attr))
                    .unwrap_or(DEFAULT_SET_LEN);
                NodeEst {
                    rows: i.rows * fanout,
                    cost: i.cost,
                    // unnesting keeps the other attributes and replaces
                    // `attr` by one element — the element-domain distinct
                    // count recorded for `attr` still applies
                    source: i.source,
                }
            }
            PhysPlan::NestOp { input, .. } => {
                let i = self.est(input);
                // streaming hash grouping: every input row is one
                // group-table insert (weighted like a hash build — the
                // table also bounds memory), and grouped state beyond
                // the budget grace-partitions to disk
                let (io, _) = self.grace_io(i.rows * self.row_bytes(input), 0.0);
                NodeEst {
                    rows: (i.rows / 2.0).max(i.rows.min(1.0)),
                    cost: i.cost + BUILD_WEIGHT * i.rows + io,
                    source: None,
                }
            }
            PhysPlan::FlattenOp { input } => {
                let i = self.est(input);
                NodeEst {
                    rows: i.rows * DEFAULT_SET_LEN,
                    cost: i.cost,
                    source: None,
                }
            }
            PhysPlan::SetOpNode { op, left, right } => {
                let l = self.est(left);
                let r = self.est(right);
                NodeEst {
                    rows: match op {
                        SetOp::Union => l.rows + r.rows,
                        SetOp::Intersect => l.rows.min(r.rows),
                        SetOp::Difference => l.rows,
                    },
                    cost: l.cost + r.cost,
                    source: None,
                }
            }
            PhysPlan::AggNode { input, .. } => {
                let i = self.est(input);
                NodeEst {
                    rows: 1.0,
                    // streaming aggregation folds each row into the
                    // running accumulator exactly once
                    cost: i.cost + i.rows,
                    source: None,
                }
            }
            PhysPlan::LetOp { value, body, .. } => {
                let v = self.est(value);
                let b = self.est(body);
                NodeEst {
                    rows: b.rows,
                    cost: v.cost + b.cost,
                    source: b.source,
                }
            }
            PhysPlan::Join { spec, left, right } => self.est_join(spec, left, right.as_deref()).0,
            PhysPlan::Exchange { dop, input, .. } => {
                let i = self.est(input);
                let dop = (*dop).max(1) as f64;
                NodeEst {
                    rows: i.rows,
                    // the input's work divides across the workers
                    // (latency, not total work — this estimate is what
                    // EXPLAIN shows for dop>1 variants), plus startup
                    // per worker and the gather pass over the output
                    cost: i.cost / dop + EXCHANGE_STARTUP * dop + i.rows,
                    source: i.source,
                }
            }
        }
    }

    /// One [`PhysPlan::Join`], and the bytes it would spill under the
    /// budget. The family prices how candidates are found — the build,
    /// the probes, the candidates read, the matched pairs, the match
    /// probability and the spill I/O; the mode prices what comes out —
    /// the output rows and the residual evaluations.
    fn est_join(
        &self,
        spec: &JoinSpec,
        left: &PhysPlan,
        right: Option<&PhysPlan>,
    ) -> (NodeEst, f64) {
        let (lvar, rvar) = (&spec.lvar, &spec.rvar);
        let l = self.est(left);
        // the right operand and the bytes its build or drain holds (an
        // index join has neither: it probes the extent's index)
        let (r, r_bytes) = match right {
            Some(right) => {
                let r = self.est(right);
                let bytes = r.rows * self.row_bytes(right);
                (r, bytes)
            }
            None => (
                NodeEst {
                    rows: 0.0,
                    cost: 0.0,
                    source: None,
                },
                0.0,
            ),
        };
        let f = match &spec.family {
            JoinFamily::Equi { lkeys, rkeys } => {
                let ndv_l = self.keys_ndv(lkeys, lvar, &l);
                let (pairs, p_match) =
                    self.equi_pairs(l.rows, r.rows, ndv_l, self.keys_ndv(rkeys, rvar, &r));
                FamilyEst {
                    // build the right side, probe with the left
                    build: r.rows,
                    probes: l.rows,
                    candidates: 0.0,
                    pairs,
                    p_match,
                    checked: pairs,
                    io: [self.grace_io(r_bytes, l.rows * self.row_bytes(left)), NO_IO],
                }
            }
            JoinFamily::Member { shape } => {
                let (build, probes, pairs, p_match) =
                    self.member_shape_est(shape, lvar, rvar, &l, &r);
                FamilyEst {
                    build,
                    probes,
                    candidates: 0.0,
                    pairs,
                    p_match,
                    checked: pairs,
                    io: [self.grace_io(r_bytes, l.rows * self.row_bytes(left)), NO_IO],
                }
            }
            JoinFamily::Sorted { lkeys, rkeys } => {
                let ndv_l = self.keys_ndv(lkeys, lvar, &l);
                let (pairs, p_match) =
                    self.equi_pairs(l.rows, r.rows, ndv_l, self.keys_ndv(rkeys, rvar, &r));
                FamilyEst {
                    // sort both sides (n log n comparisons each, plus the
                    // external sort's I/O), then merge the matched pairs
                    build: 0.0,
                    probes: l.rows * l.rows.max(2.0).log2() + r.rows * r.rows.max(2.0).log2(),
                    candidates: pairs,
                    pairs,
                    p_match,
                    checked: pairs,
                    io: [
                        self.sort_io(l.rows * self.row_bytes(left)),
                        self.sort_io(r_bytes),
                    ],
                }
            }
            JoinFamily::Index { lkey, attr, extent } => {
                let r_rows = self.extent_rows(extent);
                let ndv_r = self
                    .stats
                    .distinct(extent, attr)
                    .map(|d| d as f64)
                    .unwrap_or(r_rows);
                let ndv_l = self.key_ndv(lkey, lvar, &l);
                let (pairs, p_match) = self.equi_pairs(l.rows, r_rows, ndv_l, Some(ndv_r));
                FamilyEst {
                    // no scan and no build of the right side: one index
                    // probe per left row plus candidate inspection
                    build: 0.0,
                    probes: l.rows,
                    candidates: pairs,
                    pairs,
                    p_match,
                    checked: pairs,
                    io: [NO_IO; 2],
                }
            }
            JoinFamily::Owners { rkey, attr, .. } => {
                let shape = MemberShape::RightInLeftSet {
                    lset: Expr::Var(lvar.clone()).field(attr.as_ref()),
                    rkey: rkey.clone(),
                };
                let (_, _, pairs, p_match) = self.member_shape_est(&shape, lvar, rvar, &l, &r);
                FamilyEst {
                    // no build and no hash probes: one owner lookup per
                    // right row, one oid lookup per left row, and the
                    // postings they read (one per matched pair)
                    build: 0.0,
                    probes: r.rows + l.rows,
                    candidates: pairs,
                    pairs,
                    p_match,
                    checked: pairs,
                    // the right side drains to a canonical set, as a
                    // loop's does
                    io: [self.sort_io(r_bytes), NO_IO],
                }
            }
            JoinFamily::Loop => {
                // every pair is iterated and the predicate evaluated;
                // without one (the product) every pair matches
                let all = l.rows * r.rows;
                let (probes, pairs) = match spec.residual {
                    Some(_) => (all + all, all * NL_JOIN_SEL),
                    None => (all, all),
                };
                FamilyEst {
                    build: 0.0,
                    probes,
                    candidates: 0.0,
                    pairs,
                    p_match: 0.5,
                    // the probes already evaluated the predicate
                    checked: 0.0,
                    // draining the right side to a canonical set spills
                    // runs under a bounded budget, so NL is no spill-free
                    // haven
                    io: [self.sort_io(r_bytes), NO_IO],
                }
            }
        };
        let (rows, checks) = match &spec.mode {
            JoinMode::Join { kind, .. } => {
                let rows = Self::join_rows(*kind, l.rows, f.pairs, f.p_match).max(0.0);
                (
                    rows,
                    if spec.residual.is_some() {
                        f.checked
                    } else {
                        0.0
                    },
                )
            }
            // the nestjoin emits exactly one row per left tuple and
            // collects every match into its group
            JoinMode::Nest { .. } => (l.rows, f.checked),
        };
        let [(lio, lspill), (rio, rspill)] = f.io;
        let cost = l.cost + r.cost + BUILD_WEIGHT * f.build + f.probes + f.candidates + checks;
        let est = NodeEst {
            rows,
            cost: cost + lio + rio,
            source: None,
        };
        (est, lspill + rspill)
    }

    /// Matched pairs of an equi join of `l_rows` with `r_rows` given the
    /// key distinct counts, and the per-left-tuple match probability.
    fn equi_pairs(
        &self,
        l_rows: f64,
        r_rows: f64,
        ndv_l: Option<f64>,
        ndv_r: Option<f64>,
    ) -> (f64, f64) {
        let pairs = l_rows * r_rows
            / ndv_l
                .unwrap_or(l_rows)
                .max(ndv_r.unwrap_or(r_rows))
                .max(1.0);
        (pairs, self.containment(ndv_l, ndv_r, r_rows))
    }

    /// Distinct count of a composite key over `var` (see
    /// [`composite_ndv`]).
    fn keys_ndv(&self, keys: &[Expr], var: &Name, input: &NodeEst) -> Option<f64> {
        composite_ndv(keys.iter().map(|k| self.key_ndv(k, var, input)))
    }

    /// Build cost, probe cost, matched pair count and per-left-tuple
    /// match probability of a membership join.
    fn member_shape_est(
        &self,
        shape: &MemberShape,
        lvar: &Name,
        rvar: &Name,
        l: &NodeEst,
        r: &NodeEst,
    ) -> (f64, f64, f64, f64) {
        match shape {
            MemberShape::RightInLeftSet { lset, rkey } => {
                let avg = self.set_len(lset, lvar, l);
                let ndv_elems = plain_attr(lset, lvar)
                    .zip(l.source.as_ref())
                    .and_then(|(a, s)| self.stats.distinct(s, a))
                    .map(|d| d as f64);
                let ndv_r = self.key_ndv(rkey, rvar, r);
                // probability one set element finds a right match
                let p_elem = self.containment(ndv_elems, ndv_r, r.rows);
                let pairs = l.rows * avg * p_elem;
                let p_match = 1.0 - (1.0 - p_elem).powf(avg.max(0.0));
                (r.rows, l.rows * avg, pairs, p_match)
            }
            MemberShape::LeftInRightSet { lkey, rset } => {
                let avg = self.set_len(rset, rvar, r);
                let ndv_elems = plain_attr(rset, rvar)
                    .zip(r.source.as_ref())
                    .and_then(|(a, s)| self.stats.distinct(s, a))
                    .map(|d| d as f64);
                let ndv_l = self.key_ndv(lkey, lvar, l);
                let p_match = self.containment(ndv_l, ndv_elems, r.rows * avg);
                let pairs = l.rows * p_match * (r.rows * avg / r.rows.max(1.0)).max(1.0);
                (r.rows * avg, l.rows, pairs, p_match)
            }
        }
    }
}

/// What a join family costs before its mode is applied (see
/// [`CostModel::est_join`]).
struct FamilyEst {
    /// Rows inserted into the build (each charged `BUILD_WEIGHT`).
    build: f64,
    /// Probe work: hash or index probes, a loop's pair iterations, or a
    /// sort-merge join's sort comparisons.
    probes: f64,
    /// Candidate rows read beyond the probes (index rows, merged pairs).
    candidates: f64,
    /// Expected matched pairs.
    pairs: f64,
    /// Probability that one left row finds a match.
    p_match: f64,
    /// Pairs a residual is checked on (and a nestjoin collects).
    checked: f64,
    /// `(io_cost, spill_bytes)` under the budget, of the left and the
    /// right spill: a sort-merge join sorts both sides, every other
    /// family spills at most one pass (and leaves the right [`NO_IO`]).
    io: [(f64, f64); 2],
}

/// The `io` of a spill that does not happen.
const NO_IO: (f64, f64) = (0.0, 0.0);

/// `e` as a plain attribute access `var.attr`, if it is one.
fn plain_attr<'e>(e: &'e Expr, var: &Name) -> Option<&'e Name> {
    match e {
        Expr::Field(base, attr) if matches!(base.as_ref(), Expr::Var(v) if v == var) => Some(attr),
        _ => None,
    }
}

/// Distinct count of a composite key: the max of its parts (attribute
/// independence would multiply, but the max is the safer bound for the
/// join denominators used here). `None` when no part is resolvable.
fn composite_ndv(parts: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    parts.flatten().fold(None, |acc, d| {
        Some(match acc {
            None => d,
            Some(a) => a.max(d),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::supplier_part_db;

    fn scan(t: &str) -> Box<PhysPlan> {
        Box::new(PhysPlan::Scan(t.into()))
    }

    #[test]
    fn scan_estimates_are_exact() {
        let db = supplier_part_db();
        let m = CostModel::new(&db);
        let e = m.estimate(&PhysPlan::Scan("PART".into()));
        assert_eq!(e.rows, 7.0);
        assert_eq!(e.cost, 7.0);
    }

    #[test]
    fn equality_filter_uses_distinct_counts() {
        let db = supplier_part_db();
        let m = CostModel::new(&db);
        let plan = PhysPlan::Filter {
            var: "p".into(),
            pred: eq(var("p").field("color"), str_lit("red")),
            input: scan("PART"),
        };
        let e = m.estimate(&plan);
        // 7 parts / 4 distinct colors
        assert!((e.rows - 7.0 / 4.0).abs() < 1e-9, "rows {}", e.rows);
        assert_eq!(e.cost, 14.0); // scan 7 + 7 predicate evaluations
    }

    #[test]
    fn hash_join_cheaper_than_nl_join() {
        let db = supplier_part_db();
        let m = CostModel::new(&db);
        let join = |family, residual| PhysPlan::Join {
            spec: Box::new(JoinSpec {
                family,
                mode: JoinMode::Join {
                    kind: JoinKind::Inner,
                    right_attrs: vec![],
                },
                lvar: "s".into(),
                rvar: "d".into(),
                residual,
            }),
            left: scan("SUPPLIER"),
            right: Some(scan("DELIVERY")),
        };
        let keys = JoinFamily::Equi {
            lkeys: vec![var("s").field("eid")],
            rkeys: vec![var("d").field("supplier")],
        };
        let hash = join(keys, None);
        let pred = eq(var("s").field("eid"), var("d").field("supplier"));
        let nl = join(JoinFamily::Loop, Some(pred));
        assert!(m.estimate(&hash).cost < m.estimate(&nl).cost);
    }

    #[test]
    fn explain_is_annotated() {
        let db = supplier_part_db();
        let m = CostModel::new(&db);
        let text = m.explain(&PhysPlan::Scan("PART".into()));
        assert!(
            text.contains("Scan PART (est_rows=7, est_cost=7)"),
            "{text}"
        );
    }
}
