//! Join-*order* enumeration over inner equi-join chains.
//!
//! The rewrite pipeline turns nested queries into join queries, but it
//! fixes the join *order*: whatever association the rules produced is
//! what the planner lowers, and the cost model only picks the best
//! *algorithm* per join. This module adds the classic next optimizer
//! layer, in the spirit of "XQuery Join Graph Isolation": isolate an
//! explicit **join graph** from the rewritten ADL, then search orders
//! over it.
//!
//! * **Extraction** (`JoinGraph::extract`): a chain of `Inner`
//!   [`Expr::Join`] nodes is flattened into *leaves* (the non-join
//!   operands, left opaque — nest/assembly/PNHL subtrees stay exactly
//!   the composite vertices the §6.2 materialization detection built)
//!   and *predicates*, each conjunct re-anchored onto the leaves whose
//!   attributes it touches. Anything the extraction cannot prove safe —
//!   a bare tuple reference, an attribute owned by no unique leaf, a
//!   non-inner join — aborts the whole attempt and the rewrite order is
//!   kept.
//! * **Enumeration** (`enumerate`): DPsize over connected subsets
//!   (cross products are never considered), pricing every candidate
//!   through the existing [`CostModel`] — including its spill and
//!   exchange terms — with **interesting orders**: a sort-merge join's
//!   output is sorted on its keys, and a downstream sort-merge join
//!   over the same keys inherits that order instead of re-deriving it
//!   (the sort term is subtracted, mirroring how the adaptive run-sort
//!   consumes pre-sorted input in linear time). Above
//!   [`DP_RELATION_LIMIT`] relations the search degrades to greedy
//!   cheapest-pair combination.
//! * **Guarantee**: the rewrite's own association is priced through the
//!   same machinery, and a reordered plan is returned **only when it is
//!   strictly cheaper** — otherwise the planner falls through to the
//!   rewrite-order path unchanged. Enumeration can therefore never
//!   return a higher-estimated-cost plan than the rewrite order.

use crate::cost::CostModel;
use crate::physical::PhysPlan;
use crate::plan::{build_residual, split_pred, PlanError, Planner, SplitPred};
use oodb_adl::expr::{conjuncts, Expr, JoinKind};
use oodb_adl::vars::free_vars;
use oodb_value::fxhash::FxHashMap;
use oodb_value::Name;

/// Exact DPsize enumeration is exponential in the relation count; above
/// this many leaves the search falls back to greedy cheapest-pair
/// combination.
pub const DP_RELATION_LIMIT: usize = 10;

/// One relation of the join graph: an opaque ADL operand with its
/// lowered plan and output schema.
struct Leaf {
    /// The original ADL subexpression (needed for index-NL candidates,
    /// which must see a bare `Table`).
    expr: Expr,
    /// Lowered physical plan, single-leaf filter conjuncts pushed.
    plan: PhysPlan,
    /// Marker variable the rewritten predicates reference this leaf by.
    marker: Name,
    /// Display label for the `order=` annotation.
    label: String,
}

/// One join-predicate conjunct, rewritten so every join-variable field
/// access targets the *leaf marker variable* owning that attribute.
struct GraphPred {
    expr: Expr,
    /// Bitmask of the leaves the conjunct references.
    leaves: u64,
}

/// The isolated join graph: relations plus predicate hyperedges.
struct JoinGraph {
    leaves: Vec<Leaf>,
    preds: Vec<GraphPred>,
    /// The rewrite's own association over leaf bitmasks, kept so its
    /// cost can be priced through the same candidate machinery.
    rewrite_shape: Shape,
}

/// Binary association tree over leaf bitmasks (the rewrite's original
/// parenthesization).
enum Shape {
    Leaf(usize),
    Join(Box<Shape>, Box<Shape>),
}

impl Shape {
    fn mask(&self) -> u64 {
        match self {
            Shape::Leaf(i) => 1u64 << i,
            Shape::Join(l, r) => l.mask() | r.mask(),
        }
    }
}

/// A priced subplan for one subset of the leaves.
#[derive(Clone)]
struct Entry {
    plan: PhysPlan,
    /// Adjusted cumulative cost: the model's estimate minus any
    /// interesting-order sort terms earned along the way.
    cost: f64,
    /// The model's unadjusted cumulative estimate for `plan` (what a
    /// parent's estimate will embed for this subtree).
    raw: f64,
    /// Interesting order: per sort position, the set of attributes the
    /// output is known sorted by (a sort-merge join's output is sorted
    /// by its left *and* right key attributes, which are equal).
    order: Option<Vec<Vec<Name>>>,
    /// Parenthesized association over leaf labels, e.g.
    /// `(SUPPLIER ⋈ (Unnest(supply) ⋈ PART))` — what the `order=`
    /// annotation shows.
    desc: String,
}

/// Entry point from [`Planner::plan_join`]: attempt to extract a join
/// graph rooted at this inner join and return a re-ordered plan — but
/// only when enumeration finds a *strictly cheaper* association than
/// the rewrite's. `Ok(None)` means "fall through to the rewrite-order
/// path".
pub(crate) fn try_reorder(
    planner: &Planner<'_>,
    lvar: &Name,
    rvar: &Name,
    pred: &Expr,
    left: &Expr,
    right: &Expr,
) -> Result<Option<PhysPlan>, PlanError> {
    let Some(model) = planner.cost.as_ref() else {
        return Ok(None);
    };
    let Some(graph) = JoinGraph::extract(planner, lvar, rvar, pred, left, right)? else {
        return Ok(None);
    };
    if graph.leaves.len() < 3 {
        // Two-way joins already get both build orientations from the
        // ordinary cost-based path; nothing to enumerate.
        return Ok(None);
    }
    if !graph.connected((1u64 << graph.leaves.len()) - 1) {
        // A disconnected graph would force cross products; keep the
        // rewrite order.
        return Ok(None);
    }
    let singles = graph.singleton_entries(model);
    let rewrite = graph
        .price_shape(planner, model, &graph.rewrite_shape, &singles)
        .into_iter()
        .map(|e| e.cost)
        .fold(f64::INFINITY, f64::min);
    let best = if graph.leaves.len() <= DP_RELATION_LIMIT {
        graph.enumerate(planner, model, &singles)
    } else {
        graph.greedy(planner, model, &singles)
    };
    let Some(best) = best else {
        return Ok(None);
    };
    if best.cost >= rewrite - 1e-9 {
        // No strict win: fall through so the plan is byte-identical to
        // the `JoinOrder::Off` path.
        return Ok(None);
    }
    planner.order_notes.borrow_mut().push(format!(
        "order={} (est_cost={}, rewrite_cost={})",
        best.desc,
        best.cost.round() as u64,
        rewrite.round() as u64,
    ));
    Ok(Some(best.plan))
}

/// Fresh, collision-free variable names: the translator and rewriter
/// never generate `__jo`-prefixed names.
fn marker(i: usize) -> Name {
    Name::from(format!("__jo{i}"))
}

const JOIN_LVAR: &str = "__jl";
const JOIN_RVAR: &str = "__jr";

impl JoinGraph {
    /// Flattens the inner-join chain rooted at `(lvar, rvar, pred,
    /// left, right)` into a graph. Returns `Ok(None)` whenever any part
    /// of the tree cannot be proven safe to reorder.
    fn extract(
        planner: &Planner<'_>,
        lvar: &Name,
        rvar: &Name,
        pred: &Expr,
        left: &Expr,
        right: &Expr,
    ) -> Result<Option<Self>, PlanError> {
        // Pass 1: collect leaves and the raw per-node predicates.
        let mut leaf_exprs: Vec<Expr> = Vec::new();
        let mut raw: Vec<(Expr, Name, Name, u64, u64)> = Vec::new();
        let shape = match collect(lvar, rvar, pred, left, right, &mut leaf_exprs, &mut raw) {
            Some(s) => s,
            None => return Ok(None),
        };
        if leaf_exprs.len() < 3 || leaf_exprs.len() > 32 {
            return Ok(None);
        }
        // Pass 2: leaf schemas → attribute ownership map.
        let mut owner: FxHashMap<Name, usize> = FxHashMap::default();
        let mut leaves: Vec<Leaf> = Vec::new();
        for (i, e) in leaf_exprs.iter().enumerate() {
            let Ok(t) = oodb_adl::infer_closed(e, planner.db.catalog()) else {
                return Ok(None);
            };
            let Some(attrs) = t.sch() else {
                return Ok(None);
            };
            for a in attrs {
                if owner.insert(a, i).is_some() {
                    // Ambiguous attribute: cannot re-anchor predicates.
                    return Ok(None);
                }
            }
            let plan = planner.lower(e)?;
            let label = match e {
                Expr::Table(n) => n.to_string(),
                _ => plan.op_label(),
            };
            leaves.push(Leaf {
                expr: e.clone(),
                plan,
                marker: marker(i),
                label,
            });
        }
        // Pass 3: rewrite every conjunct onto the leaf markers.
        let mut preds: Vec<GraphPred> = Vec::new();
        let mut single: Vec<Vec<Expr>> = vec![Vec::new(); leaves.len()];
        for (node_pred, nl, nr, lmask, rmask) in &raw {
            for c in conjuncts(node_pred) {
                if matches!(c, Expr::Lit(_)) {
                    // `true` placeholder predicates carry no constraint.
                    continue;
                }
                // Every free variable must be one of the node's join
                // variables (otherwise the conjunct is correlated with
                // an enclosing scope and cannot move).
                if !free_vars(c).iter().all(|v| v == nl || v == nr) {
                    return Ok(None);
                }
                // An inner binder shadowing a join variable would make
                // the occurrence rewrite unsound; bail out.
                if binds_name(c, nl) || binds_name(c, nr) {
                    return Ok(None);
                }
                let mut refs = 0u64;
                let mut ok = true;
                let rewritten =
                    rewrite_conjunct(c, nl, nr, *lmask, *rmask, &owner, &mut refs, &mut ok);
                if !ok {
                    return Ok(None);
                }
                match refs.count_ones() {
                    0 => return Ok(None), // constant conjunct: keep rewrite order
                    1 => single[refs.trailing_zeros() as usize].push(rewritten),
                    _ => preds.push(GraphPred {
                        expr: rewritten,
                        leaves: refs,
                    }),
                }
            }
        }
        // Push single-leaf conjuncts as filters on their leaf plans.
        for (i, parts) in single.into_iter().enumerate() {
            if let Some(p) = build_residual(parts) {
                let input = std::mem::replace(&mut leaves[i].plan, PhysPlan::Scan(Name::from("")));
                leaves[i].plan = PhysPlan::Filter {
                    var: leaves[i].marker.clone(),
                    pred: p,
                    input: Box::new(input),
                };
            }
        }
        Ok(Some(JoinGraph {
            leaves,
            preds,
            rewrite_shape: shape,
        }))
    }

    /// Whether the leaves of `mask` are connected through predicates
    /// whose leaf sets lie entirely inside `mask`.
    fn connected(&self, mask: u64) -> bool {
        if mask == 0 {
            return false;
        }
        let mut reached = 1u64 << mask.trailing_zeros();
        loop {
            let before = reached;
            for p in &self.preds {
                if p.leaves & !mask == 0 && p.leaves & reached != 0 {
                    reached |= p.leaves;
                }
            }
            if reached == before {
                break;
            }
        }
        reached == mask
    }

    /// Pareto entries for every singleton subset.
    fn singleton_entries(&self, model: &CostModel<'_>) -> Vec<Vec<Entry>> {
        self.leaves
            .iter()
            .map(|leaf| {
                let raw = model.estimate(&leaf.plan).cost;
                vec![Entry {
                    plan: leaf.plan.clone(),
                    cost: raw,
                    raw,
                    order: None,
                    desc: leaf.label.clone(),
                }]
            })
            .collect()
    }

    /// The predicates a join of `s1` and `s2` must apply: first covered
    /// by `s1 ∪ s2`, spanning both sides. (Predicates inside either
    /// side were applied when that side was built.)
    fn applicable(&self, s1: u64, s2: u64) -> Vec<&GraphPred> {
        let mask = s1 | s2;
        self.preds
            .iter()
            .filter(|p| p.leaves & !mask == 0 && p.leaves & s1 != 0 && p.leaves & s2 != 0)
            .collect()
    }

    /// All candidate joins of two priced subsets (both hash
    /// orientations, sort-merge with interesting-order reuse, index-NL
    /// against single-table sides, membership hash, nested loops),
    /// pushed through `add` for pareto retention.
    fn join_candidates(
        &self,
        planner_model: (&Planner<'_>, &CostModel<'_>),
        s1: u64,
        s2: u64,
        e1: &Entry,
        e2: &Entry,
        out: &mut Vec<Entry>,
    ) {
        let (planner, model) = planner_model;
        let preds = self.applicable(s1, s2);
        if preds.is_empty() {
            return; // never consider cross products
        }
        let lv = Name::from(JOIN_LVAR);
        let rv = Name::from(JOIN_RVAR);
        // Orientation A ⋈ B and B ⋈ A both matter (build side, probe
        // order, index side); generate candidates for each.
        for &(sa, sb, ea, eb) in &[(s1, s2, e1, e2), (s2, s1, e2, e1)] {
            let parts: Vec<Expr> = preds
                .iter()
                .map(|p| anchor_sides(&p.expr, sa, &lv, &rv))
                .collect();
            let pred = oodb_adl::expr::conjoin(parts);
            let split = split_pred(&pred, &lv, &rv);
            for cand in self.physical_candidates(planner, &lv, &rv, &split, &pred, sb, ea, eb) {
                push_entry(out, self.price(model, cand, ea, eb));
            }
        }
    }

    /// The physical implementations of one oriented join, mirroring the
    /// rewrite-order cost-based path.
    #[allow(clippy::too_many_arguments)]
    fn physical_candidates(
        &self,
        planner: &Planner<'_>,
        lv: &Name,
        rv: &Name,
        split: &SplitPred,
        pred: &Expr,
        sb: u64,
        ea: &Entry,
        eb: &Entry,
    ) -> Vec<PhysPlan> {
        let mut cands: Vec<PhysPlan> = Vec::new();
        if !split.equi.is_empty() {
            let (lkeys, rkeys): (Vec<Expr>, Vec<Expr>) = split.equi.iter().cloned().unzip();
            let residual = build_residual(split.residual.clone());
            cands.push(PhysPlan::HashJoin {
                kind: JoinKind::Inner,
                lvar: lv.clone(),
                rvar: rv.clone(),
                lkeys: lkeys.clone(),
                rkeys: rkeys.clone(),
                residual: residual.clone(),
                right_attrs: Vec::new(),
                left: Box::new(ea.plan.clone()),
                right: Box::new(eb.plan.clone()),
            });
            cands.push(PhysPlan::SortMergeJoin {
                lvar: lv.clone(),
                rvar: rv.clone(),
                lkeys,
                rkeys,
                residual,
                left: Box::new(ea.plan.clone()),
                right: Box::new(eb.plan.clone()),
            });
            // Index nested loop: the inner side must be a bare indexed
            // extent, i.e. an unfiltered single-leaf subset.
            if planner.config.use_indexes && sb.count_ones() == 1 {
                let leaf = &self.leaves[sb.trailing_zeros() as usize];
                if matches!(leaf.plan, PhysPlan::Scan(_)) {
                    if let Some(plan) = planner.index_nl_candidate(
                        JoinKind::Inner,
                        lv,
                        rv,
                        &split.equi,
                        &split.residual,
                        &leaf.expr,
                        ea.plan.clone(),
                        Vec::new(),
                    ) {
                        cands.push(plan);
                    }
                }
            }
        }
        if let Some(shape) = &split.member {
            cands.push(PhysPlan::HashMemberJoin {
                kind: JoinKind::Inner,
                lvar: lv.clone(),
                rvar: rv.clone(),
                shape: shape.clone(),
                residual: build_residual(split.residual.clone()),
                right_attrs: Vec::new(),
                left: Box::new(ea.plan.clone()),
                right: Box::new(eb.plan.clone()),
            });
        }
        cands.push(PhysPlan::NLJoin {
            kind: JoinKind::Inner,
            lvar: lv.clone(),
            rvar: rv.clone(),
            pred: pred.clone(),
            right_attrs: Vec::new(),
            left: Box::new(ea.plan.clone()),
            right: Box::new(eb.plan.clone()),
        });
        cands
    }

    /// Prices one candidate whose children are `ea` (left) and `eb`
    /// (right): the model's local cost on top of the children's
    /// *adjusted* costs, minus any sort term an interesting order pays
    /// for, with the output order a sort-merge join establishes.
    fn price(&self, model: &CostModel<'_>, cand: PhysPlan, ea: &Entry, eb: &Entry) -> Entry {
        let est = model.estimate(&cand);
        let raw = est.cost;
        let mut cost = ea.cost + eb.cost + (raw - ea.raw - eb.raw);
        let mut order = None;
        if let PhysPlan::SortMergeJoin {
            lvar,
            rvar,
            lkeys,
            rkeys,
            ..
        } = &cand
        {
            let lattrs = plain_attrs(lkeys, lvar);
            let rattrs = plain_attrs(rkeys, rvar);
            if let Some(la) = &lattrs {
                if order_matches(&ea.order, la) {
                    cost -= model.smj_sort_term(&ea.plan);
                }
            }
            if let Some(ra) = &rattrs {
                if order_matches(&eb.order, ra) {
                    cost -= model.smj_sort_term(&eb.plan);
                }
            }
            if let (Some(la), Some(ra)) = (lattrs, rattrs) {
                order = Some(
                    la.into_iter()
                        .zip(ra)
                        .map(|(a, b)| {
                            let mut class = vec![a, b];
                            class.sort();
                            class.dedup();
                            class
                        })
                        .collect(),
                );
            }
        }
        Entry {
            plan: cand,
            cost,
            raw,
            order,
            desc: format!("({} ⋈ {})", ea.desc, eb.desc),
        }
    }

    /// DPsize over connected subsets; returns the cheapest entry for
    /// the full leaf set.
    fn enumerate(
        &self,
        planner: &Planner<'_>,
        model: &CostModel<'_>,
        singles: &[Vec<Entry>],
    ) -> Option<Entry> {
        let n = self.leaves.len();
        let full = (1u64 << n) - 1;
        let mut best: Vec<Vec<Entry>> = vec![Vec::new(); (full + 1) as usize];
        for (i, entries) in singles.iter().enumerate() {
            best[1usize << i] = entries.clone();
        }
        for mask in 1..=full {
            if mask.count_ones() < 2 || !self.connected(mask) {
                continue;
            }
            let mut entries: Vec<Entry> = Vec::new();
            // Enumerate unordered partitions: s1 strictly below its
            // complement keeps each pair visited once (both
            // orientations are generated inside `join_candidates`).
            let mut s1 = (mask - 1) & mask;
            while s1 > 0 {
                let s2 = mask & !s1;
                if s1 < s2 {
                    for e1 in &best[s1 as usize] {
                        for e2 in &best[s2 as usize] {
                            self.join_candidates((planner, model), s1, s2, e1, e2, &mut entries);
                        }
                    }
                }
                s1 = (s1 - 1) & mask;
            }
            best[mask as usize] = entries;
        }
        best[full as usize]
            .iter()
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .cloned()
    }

    /// Greedy fallback above [`DP_RELATION_LIMIT`]: repeatedly combine
    /// the connected pair with the cheapest join candidate.
    fn greedy(
        &self,
        planner: &Planner<'_>,
        model: &CostModel<'_>,
        singles: &[Vec<Entry>],
    ) -> Option<Entry> {
        let mut comps: Vec<(u64, Vec<Entry>)> = singles
            .iter()
            .enumerate()
            .map(|(i, e)| (1u64 << i, e.clone()))
            .collect();
        while comps.len() > 1 {
            let mut pick: Option<(usize, usize, Vec<Entry>)> = None;
            let mut pick_cost = f64::INFINITY;
            for i in 0..comps.len() {
                for j in (i + 1)..comps.len() {
                    let (s1, s2) = (comps[i].0, comps[j].0);
                    let mut entries: Vec<Entry> = Vec::new();
                    for e1 in &comps[i].1 {
                        for e2 in &comps[j].1 {
                            self.join_candidates((planner, model), s1, s2, e1, e2, &mut entries);
                        }
                    }
                    let cheapest = entries.iter().map(|e| e.cost).fold(f64::INFINITY, f64::min);
                    if cheapest < pick_cost {
                        pick_cost = cheapest;
                        pick = Some((i, j, entries));
                    }
                }
            }
            let (i, j, entries) = pick?;
            let merged_mask = comps[i].0 | comps[j].0;
            comps.remove(j);
            comps[i] = (merged_mask, entries);
        }
        comps.pop()?.1.into_iter().min_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Prices one fixed association (the rewrite's) through the same
    /// candidate machinery, so the DP winner is compared apples to
    /// apples.
    fn price_shape(
        &self,
        planner: &Planner<'_>,
        model: &CostModel<'_>,
        shape: &Shape,
        singles: &[Vec<Entry>],
    ) -> Vec<Entry> {
        match shape {
            Shape::Leaf(i) => singles[*i].clone(),
            Shape::Join(l, r) => {
                let le = self.price_shape(planner, model, l, singles);
                let re = self.price_shape(planner, model, r, singles);
                let (s1, s2) = (l.mask(), r.mask());
                let mut entries: Vec<Entry> = Vec::new();
                for e1 in &le {
                    for e2 in &re {
                        self.join_candidates((planner, model), s1, s2, e1, e2, &mut entries);
                    }
                }
                entries
            }
        }
    }
}

/// Whether a subplan's known output order satisfies the wanted sort
/// attributes, position by position.
fn order_matches(order: &Option<Vec<Vec<Name>>>, wanted: &[Name]) -> bool {
    match order {
        Some(classes) => {
            classes.len() == wanted.len()
                && classes
                    .iter()
                    .zip(wanted)
                    .all(|(class, w)| class.contains(w))
        }
        None => false,
    }
}

/// The plain attribute name of every key, if all keys are plain
/// `var.attr` accesses.
fn plain_attrs(keys: &[Expr], var: &Name) -> Option<Vec<Name>> {
    keys.iter()
        .map(|k| match k {
            Expr::Field(b, a) if matches!(b.as_ref(), Expr::Var(v) if v == var) => Some(a.clone()),
            _ => None,
        })
        .collect()
}

/// Pareto insertion: keep an entry unless an existing one is at least
/// as cheap *and* at least as ordered; evict entries the newcomer
/// dominates.
fn push_entry(entries: &mut Vec<Entry>, e: Entry) {
    if entries
        .iter()
        .any(|x| x.cost <= e.cost && (x.order == e.order || e.order.is_none()))
    {
        return;
    }
    entries.retain(|x| !(e.cost <= x.cost && (e.order == x.order || x.order.is_none())));
    entries.push(e);
}

/// Re-anchors a marker-variable conjunct onto one oriented join's
/// variables: markers in `left_mask` become the left variable, the rest
/// the right variable.
fn anchor_sides(e: &Expr, left_mask: u64, lv: &Name, rv: &Name) -> Expr {
    match e {
        Expr::Field(b, a) => {
            if let Expr::Var(v) = b.as_ref() {
                if let Some(i) = marker_index(v) {
                    let side = if left_mask & (1u64 << i) != 0 { lv } else { rv };
                    return Expr::Field(Box::new(Expr::Var(side.clone())), a.clone());
                }
            }
            Expr::Field(Box::new(anchor_sides(b, left_mask, lv, rv)), a.clone())
        }
        other => other
            .clone()
            .map_children(&mut |c| anchor_sides(&c, left_mask, lv, rv)),
    }
}

/// The index of a `__jo{i}` marker variable.
fn marker_index(v: &Name) -> Option<usize> {
    v.as_ref().strip_prefix("__jo")?.parse().ok()
}

/// Whether any node inside `e` *binds* a variable named `n` (which
/// would shadow a join variable and make occurrence rewriting unsound).
fn binds_name(e: &Expr, n: &Name) -> bool {
    let mut found = false;
    fn walk(e: &Expr, n: &Name, found: &mut bool) {
        if *found {
            return;
        }
        let binds = match e {
            Expr::Map { var, .. }
            | Expr::Select { var, .. }
            | Expr::Quant { var, .. }
            | Expr::Let { var, .. } => var == n,
            Expr::Join { lvar, rvar, .. } | Expr::NestJoin { lvar, rvar, .. } => {
                lvar == n || rvar == n
            }
            _ => false,
        };
        if binds {
            *found = true;
            return;
        }
        e.for_each_child(&mut |c| walk(c, n, found));
    }
    walk(e, n, &mut found);
    found
}

/// Rewrites one conjunct of a flattened join node: every `v.attr`
/// access through the node's join variables is re-anchored onto the
/// marker variable of the leaf owning `attr` (recorded in `refs`); any
/// other occurrence of a join variable poisons `ok`.
#[allow(clippy::too_many_arguments)]
fn rewrite_conjunct(
    e: &Expr,
    nl: &Name,
    nr: &Name,
    lmask: u64,
    rmask: u64,
    owner: &FxHashMap<Name, usize>,
    refs: &mut u64,
    ok: &mut bool,
) -> Expr {
    if !*ok {
        return e.clone();
    }
    match e {
        Expr::Field(b, a) => {
            if let Expr::Var(v) = b.as_ref() {
                if v == nl || v == nr {
                    let side = if v == nl { lmask } else { rmask };
                    match owner.get(a) {
                        Some(&i) if side & (1u64 << i) != 0 => {
                            *refs |= 1u64 << i;
                            return Expr::Field(Box::new(Expr::Var(marker(i))), a.clone());
                        }
                        _ => {
                            *ok = false;
                            return e.clone();
                        }
                    }
                }
            }
            Expr::Field(
                Box::new(rewrite_conjunct(b, nl, nr, lmask, rmask, owner, refs, ok)),
                a.clone(),
            )
        }
        Expr::Var(v) if v == nl || v == nr => {
            *ok = false;
            e.clone()
        }
        other => other
            .clone()
            .map_children(&mut |c| rewrite_conjunct(&c, nl, nr, lmask, rmask, owner, refs, ok)),
    }
}

/// Recursive flattening of the inner-join chain: every `Inner`
/// [`Expr::Join`] node contributes its predicate; anything else becomes
/// an opaque leaf. Returns the association [`Shape`] of the original
/// tree, or `None` when a nested node disqualifies the whole chain.
fn collect(
    lvar: &Name,
    rvar: &Name,
    pred: &Expr,
    left: &Expr,
    right: &Expr,
    leaves: &mut Vec<Expr>,
    raw: &mut Vec<(Expr, Name, Name, u64, u64)>,
) -> Option<Shape> {
    let lshape = collect_side(left, leaves, raw)?;
    let rshape = collect_side(right, leaves, raw)?;
    let (lmask, rmask) = (lshape.mask(), rshape.mask());
    raw.push((pred.clone(), lvar.clone(), rvar.clone(), lmask, rmask));
    Some(Shape::Join(Box::new(lshape), Box::new(rshape)))
}

fn collect_side(
    e: &Expr,
    leaves: &mut Vec<Expr>,
    raw: &mut Vec<(Expr, Name, Name, u64, u64)>,
) -> Option<Shape> {
    match e {
        Expr::Join {
            kind: JoinKind::Inner,
            lvar,
            rvar,
            pred,
            left,
            right,
        } => collect(lvar, rvar, pred, left, right, leaves, raw),
        other => {
            if leaves.len() >= 32 {
                return None;
            }
            leaves.push(other.clone());
            Some(Shape::Leaf(leaves.len() - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::plan::{JoinOrder, PlannerConfig};
    use crate::stats::Stats;
    use oodb_adl::dsl::*;
    use oodb_catalog::fixtures::supplier_part_db;
    use oodb_catalog::{AttrStats, CatalogStats, TableStats};

    /// SUPPLIER ⋈ μ_supply(DELIVERY) ⋈ PART, associated left-deep the
    /// way the rewrite pipeline would emit it.
    fn chain_query() -> Expr {
        join(
            "sd",
            "p",
            eq(var("sd").field("part"), var("p").field("pid")),
            join(
                "s",
                "d",
                eq(var("s").field("eid"), var("d").field("supplier")),
                table("SUPPLIER"),
                unnest("supply", table("DELIVERY")),
            ),
            table("PART"),
        )
    }

    /// Statistics skewed so the rewrite's (SUPPLIER ⋈ μ(DELIVERY))
    /// first step is a many-to-many blow-up (only two distinct join
    /// keys) while μ(DELIVERY) ⋈ PART is tiny — DP must start with the
    /// selective pair.
    fn skewed_stats() -> CatalogStats {
        let mut s = CatalogStats::new();
        let mut supplier = TableStats {
            rows: 1000,
            attrs: Default::default(),
            avg_row_bytes: Some(64.0),
        };
        supplier.attrs.insert(
            Name::from("eid"),
            AttrStats {
                distinct: 2,
                avg_set_len: None,
            },
        );
        s.set_table(Name::from("SUPPLIER"), supplier);
        let mut delivery = TableStats {
            rows: 500,
            attrs: Default::default(),
            avg_row_bytes: Some(64.0),
        };
        delivery.attrs.insert(
            Name::from("supplier"),
            AttrStats {
                distinct: 2,
                avg_set_len: None,
            },
        );
        delivery.attrs.insert(
            Name::from("supply"),
            AttrStats {
                distinct: 2000,
                avg_set_len: Some(4.0),
            },
        );
        s.set_table(Name::from("DELIVERY"), delivery);
        let mut part = TableStats {
            rows: 3,
            attrs: Default::default(),
            avg_row_bytes: Some(64.0),
        };
        part.attrs.insert(
            Name::from("pid"),
            AttrStats {
                distinct: 3,
                avg_set_len: None,
            },
        );
        s.set_table(Name::from("PART"), part);
        s
    }

    fn run<'a>(planner: &Planner<'a>, e: &Expr) -> (crate::plan::Plan<'a>, oodb_value::Value) {
        let plan = planner.plan(e).unwrap();
        let mut stats = Stats::new();
        let v = plan.execute(&mut stats).unwrap();
        (plan, v)
    }

    #[test]
    fn dp_flips_join_order_on_skewed_stats() {
        let db = supplier_part_db();
        let e = chain_query();
        // Pin the axis explicitly: the default reads OODB_JOIN_ORDER, and
        // this test must assert enumeration behavior even under the CI
        // kill-switch pass.
        let dp = Planner::with_stats(
            &db,
            PlannerConfig {
                join_order: JoinOrder::Dp,
                ..Default::default()
            },
            skewed_stats(),
        );
        let off = Planner::with_stats(
            &db,
            PlannerConfig {
                join_order: JoinOrder::Off,
                ..Default::default()
            },
            skewed_stats(),
        );
        let (dp_plan, dp_v) = run(&dp, &e);
        let (off_plan, off_v) = run(&off, &e);
        assert_eq!(
            dp_plan.order_notes().len(),
            1,
            "DP should fire exactly once on the chain:\n{}",
            dp_plan.explain()
        );
        let note = &dp_plan.order_notes()[0];
        // The blow-up pair (two distinct join keys over 1000×2000 rows)
        // must never be joined directly — DP starts from the selective
        // Unnest ⋈ PART pair instead.
        assert!(
            !note.contains("(SUPPLIER ⋈ Unnest(supply))")
                && !note.contains("(Unnest(supply) ⋈ SUPPLIER)"),
            "DP must not join the blow-up pair first: {note}"
        );
        assert!(off_plan.order_notes().is_empty());
        assert_ne!(
            dp_plan.phys.explain(),
            off_plan.phys.explain(),
            "skewed stats must actually change the plan"
        );
        // Same answers in any order, and both agree with the reference
        // evaluator.
        assert_eq!(dp_v, off_v);
        let ev = Evaluator::new(&db);
        assert_eq!(dp_v, ev.eval_closed(&e).unwrap());
        // The note's annotation format is load-bearing (EXPLAIN shows it).
        assert!(
            note.contains("est_cost=") && note.contains("rewrite_cost="),
            "{note}"
        );
    }

    #[test]
    fn dp_best_never_costs_more_than_rewrite_association() {
        let db = supplier_part_db();
        let e = chain_query();
        let planner = Planner::with_stats(&db, PlannerConfig::default(), skewed_stats());
        let model = planner.cost.as_ref().unwrap();
        let Expr::Join {
            lvar,
            rvar,
            pred,
            left,
            right,
            ..
        } = &e
        else {
            unreachable!()
        };
        let graph = JoinGraph::extract(&planner, lvar, rvar, pred, left, right)
            .unwrap()
            .expect("chain extracts");
        assert_eq!(graph.leaves.len(), 3);
        let singles = graph.singleton_entries(model);
        let rewrite = graph
            .price_shape(&planner, model, &graph.rewrite_shape, &singles)
            .into_iter()
            .map(|en| en.cost)
            .fold(f64::INFINITY, f64::min);
        let best = graph.enumerate(&planner, model, &singles).unwrap();
        assert!(rewrite.is_finite());
        assert!(
            best.cost <= rewrite + 1e-6,
            "DP best {} must not exceed rewrite order {rewrite}",
            best.cost
        );
    }

    #[test]
    fn ambiguous_attributes_keep_rewrite_order() {
        // A self-join chain: SUPPLIER appears twice, so attribute
        // ownership is ambiguous and extraction must bail.
        let db = supplier_part_db();
        let e = join(
            "xp",
            "y",
            eq(var("xp").field("eid"), var("y").field("eid")),
            join(
                "x",
                "p",
                eq(var("x").field("eid"), var("p").field("pid")),
                table("SUPPLIER"),
                table("PART"),
            ),
            table("SUPPLIER"),
        );
        let planner = Planner::new(&db);
        let plan = planner.plan(&e).unwrap();
        assert!(plan.order_notes().is_empty(), "{}", plan.explain());
        let mut stats = Stats::new();
        let v = plan.execute(&mut stats).unwrap();
        let ev = Evaluator::new(&db);
        assert_eq!(v, ev.eval_closed(&e).unwrap());
    }

    #[test]
    fn two_way_joins_are_left_alone() {
        let db = supplier_part_db();
        let e = join(
            "s",
            "d",
            eq(var("s").field("eid"), var("d").field("supplier")),
            table("SUPPLIER"),
            table("DELIVERY"),
        );
        let planner = Planner::new(&db);
        let plan = planner.plan(&e).unwrap();
        assert!(plan.order_notes().is_empty());
    }

    #[test]
    fn pareto_retains_ordered_entry_alongside_cheaper_unordered() {
        let scan = PhysPlan::Scan(Name::from("T"));
        let entry = |cost: f64, order: Option<Vec<Vec<Name>>>| Entry {
            plan: scan.clone(),
            cost,
            raw: cost,
            order,
            desc: String::from("T"),
        };
        let ord = Some(vec![vec![Name::from("k")]]);
        let mut entries = Vec::new();
        push_entry(&mut entries, entry(10.0, None));
        // More expensive but sorted: survives (its order may pay off
        // upstream).
        push_entry(&mut entries, entry(12.0, ord.clone()));
        assert_eq!(entries.len(), 2);
        // Cheaper *and* sorted: dominates both.
        push_entry(&mut entries, entry(8.0, ord.clone()));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].cost, 8.0);
        // Unordered never dominates an ordered entry, even at equal cost.
        push_entry(&mut entries, entry(8.0, None));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].order, ord);
    }

    #[test]
    fn order_matching_is_positional() {
        let class = |names: &[&str]| names.iter().map(|n| Name::from(*n)).collect::<Vec<_>>();
        let order = Some(vec![class(&["a", "b"]), class(&["c"])]);
        assert!(order_matches(&order, &[Name::from("b"), Name::from("c")]));
        assert!(!order_matches(&order, &[Name::from("c"), Name::from("b")]));
        assert!(!order_matches(&order, &[Name::from("a")]));
        assert!(!order_matches(&None, &[Name::from("a")]));
    }
}
