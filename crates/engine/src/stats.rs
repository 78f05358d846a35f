//! Operator statistics.
//!
//! Wall-clock alone does not show *why* a plan wins; these counters expose
//! the work profile the paper reasons about — nested-loop iterations
//! versus hash build/probe work, spill partitions under a memory budget,
//! and pointer dereferences through the oid index.

use std::fmt;

/// Work counters accumulated during evaluation/execution.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Tuples produced by scans of base tables.
    pub rows_scanned: u64,
    /// Inner iterations of nested-loop style operators (the quadratic
    /// term the paper's rewrites eliminate).
    pub loop_iterations: u64,
    /// Predicate / lambda-body evaluations.
    pub predicate_evals: u64,
    /// Tuples inserted into hash tables (build side).
    pub hash_build_rows: u64,
    /// Hash table probes.
    pub hash_probes: u64,
    /// Pointer dereferences through an oid index (`deref`).
    pub oid_lookups: u64,
    /// Index probes: a secondary-index probe of an index nested-loop
    /// join, or a posting-list lookup of a set-index scan.
    pub index_probes: u64,
    /// Batches whose filter predicate evaluated as a selection mask
    /// over the batch's columns (either mask tier) instead of row by
    /// row. A throughput indicator for the bench report, **not**
    /// a work term: the mask path charges the same `predicate_evals`
    /// as the row path, so [`Stats::work`] excludes this.
    pub mask_batches: u64,
    /// Bytes written to spill files by the external-memory subsystem
    /// (grace hash partitions, sort runs). Zero under an unbounded
    /// memory budget.
    pub spill_bytes: u64,
    /// Spill partition files created.
    pub spill_partitions: u64,
    /// Spill passes: one per initial grace partitioning / run
    /// generation, plus one per recursive re-partitioning of a skewed
    /// partition.
    pub spill_passes: u64,
    /// Tuples in the final result (top-level set cardinality).
    pub output_rows: u64,
    /// Times this query's physical plan came out of a serving-layer plan
    /// cache instead of being rewritten + costed from scratch (`1` on a
    /// cache-hit run, `0` otherwise; sessions accumulate). **Not** a work
    /// term — cache hits change planning latency, never execution work,
    /// so [`Stats::work`] excludes it.
    pub plan_cache_hits: u64,
    /// Times a cached (whole-query or hoisted-`let` subplan) result was
    /// served without re-executing its pipeline. Zero unless a serving
    /// layer with result caching enabled ran the query.
    pub result_cache_hits: u64,
    /// Per-operator emission profile of the streaming pipeline (one entry
    /// per physical operator, in close order; empty under the
    /// materialized executor).
    pub operators: Vec<OpStats>,
}

/// Rows and batches one streaming operator emitted.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Operator label, e.g. `HashJoin(Semi)` or `Scan(SUPPLIER)`.
    pub op: String,
    /// Rows the operator emitted downstream.
    pub rows_out: u64,
    /// Batches the operator emitted downstream.
    pub batches: u64,
    /// Input batches a grouped breaker consumed **incrementally**
    /// (streaming ν / streaming `Agg`); zero for per-row operators and
    /// for drain-to-set breakers. Shows in `Stats::operators` that the
    /// group table read its input batch-by-batch instead of buffering
    /// it behind an opaque drain.
    pub in_batches: u64,
    /// Bytes this operator wrote to spill files (see
    /// [`Stats::spill_bytes`]).
    pub spill_bytes: u64,
    /// Spill partitions this operator created.
    pub spill_partitions: u64,
    /// Spill passes this operator performed.
    pub spill_passes: u64,
    /// Wall-clock nanoseconds spent *inside* this operator's
    /// `open`/`next_batch`/`close` calls (inclusive of its children —
    /// a pull-based driver charges the whole subtree to the puller,
    /// like `EXPLAIN ANALYZE` in Postgres). All-zero unless the run
    /// had timing on ([`crate::plan::PlannerConfig::timing`]).
    pub timing: OpTiming,
    /// Which plan node reported this entry.
    pub ordinal: PlanOrdinal,
}

/// A plan node's pre-order position — the index of its line in EXPLAIN,
/// assigned when the operator tree is compiled. Reports arrive in
/// exhaustion order and a label may sit on several nodes, so this is how
/// `EXPLAIN ANALYZE` hands each node its own actuals. Like [`OpTiming`]
/// it identifies, it does not measure: equality ignores it, so profiles
/// of differently shaped plans (serial vs. exchange, a memoized `let`
/// binding compiled on its own) still compare by work alone.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanOrdinal(pub usize);

impl PartialEq for PlanOrdinal {
    /// Never part of `Stats` equality (see the type docs).
    fn eq(&self, _: &PlanOrdinal) -> bool {
        true
    }
}

impl Eq for PlanOrdinal {}

/// Per-operator timing totals. A **measurement**, not a semantic
/// counter: two runs that did identical work at different speeds are
/// the same run as far as every differential suite is concerned, so
/// `PartialEq` here is intentionally always-true — `Stats`/`OpStats`
/// equality stays timing-blind and the dop/layout/budget equivalence
/// tests (and result-cache profile replay) keep comparing exact work,
/// never wall clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTiming {
    /// Nanoseconds in `open` (usually trivial — blocking work is
    /// deferred to the first `next_batch`).
    pub open_ns: u64,
    /// Nanoseconds across all `next_batch` calls (where pipelines
    /// spend their time).
    pub next_ns: u64,
    /// Nanoseconds in `close`.
    pub close_ns: u64,
    /// Nanoseconds until the first batch: `open` plus the first
    /// `next_batch` call, which returns the first batch or, for an empty
    /// stream, reports exhaustion. Part of the total, never more.
    pub first_ns: u64,
}

impl OpTiming {
    /// Total nanoseconds across the operator lifecycle.
    pub fn total_ns(&self) -> u64 {
        self.open_ns + self.next_ns + self.close_ns
    }

    /// Total milliseconds (the `actual_ms` EXPLAIN ANALYZE column).
    pub fn total_ms(&self) -> f64 {
        self.total_ns() as f64 / 1e6
    }

    /// First-batch milliseconds (the `first_ms` EXPLAIN ANALYZE column).
    pub fn first_ms(&self) -> f64 {
        self.first_ns as f64 / 1e6
    }

    /// Adds a sequential instance's timing (a re-opened operator).
    /// Phase totals add up; the first batch is the slowest instance's.
    pub fn absorb(&mut self, other: &OpTiming) {
        self.open_ns += other.open_ns;
        self.next_ns += other.next_ns;
        self.close_ns += other.close_ns;
        self.first_ns = self.first_ns.max(other.first_ns);
    }

    /// Folds a parallel instance's timing: workers run side by side and
    /// the consumer waits for all of them, so the node took as long as
    /// its slowest worker (whose phases are kept), and its first batch
    /// is the slowest worker's first batch.
    pub fn absorb_parallel(&mut self, other: &OpTiming) {
        let first_ns = self.first_ns.max(other.first_ns);
        if other.total_ns() > self.total_ns() {
            *self = *other;
        }
        self.first_ns = first_ns;
    }
}

impl OpStats {
    /// Adds `op` to the entry in `ops` for the same node (label and
    /// ordinal), timing folded by `timing`, or appends it.
    fn fold_into(ops: &mut Vec<OpStats>, op: &OpStats, timing: fn(&mut OpTiming, &OpTiming)) {
        let same = |o: &&mut OpStats| o.op == op.op && o.ordinal.0 == op.ordinal.0;
        match ops.iter_mut().find(same) {
            Some(mine) => {
                mine.rows_out += op.rows_out;
                mine.batches += op.batches;
                mine.in_batches += op.in_batches;
                mine.spill_bytes += op.spill_bytes;
                mine.spill_partitions += op.spill_partitions;
                mine.spill_passes += op.spill_passes;
                timing(&mut mine.timing, &op.timing);
            }
            None => ops.push(op.clone()),
        }
    }
}

impl PartialEq for OpTiming {
    /// Timing never participates in `Stats` equality (see the type
    /// docs): any two timings compare equal.
    fn eq(&self, _: &OpTiming) -> bool {
        true
    }
}

impl Eq for OpTiming {}

impl Stats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Adds `other` into `self` (merging parallel branches).
    pub fn merge(&mut self, other: &Stats) {
        self.rows_scanned += other.rows_scanned;
        self.loop_iterations += other.loop_iterations;
        self.predicate_evals += other.predicate_evals;
        self.hash_build_rows += other.hash_build_rows;
        self.hash_probes += other.hash_probes;
        self.oid_lookups += other.oid_lookups;
        self.index_probes += other.index_probes;
        self.mask_batches += other.mask_batches;
        self.spill_bytes += other.spill_bytes;
        self.spill_partitions += other.spill_partitions;
        self.spill_passes += other.spill_passes;
        self.output_rows += other.output_rows;
        self.plan_cache_hits += other.plan_cache_hits;
        self.result_cache_hits += other.result_cache_hits;
        self.operators.extend(other.operators.iter().cloned());
    }

    /// Adds a parallel worker's counters into `self`, **folding**
    /// per-operator entries with the same label together instead of
    /// appending them. Exchange workers execute clones of the same
    /// operator segment, so their emissions are one logical operator's
    /// work; folding (in worker-id order) keeps `operators` identical in
    /// shape to a serial run of the same plan. Entries fold when label
    /// and node ordinal both agree, so two same-label nodes in one
    /// segment stay apart; entry order follows the first worker that
    /// reported each node. Counters add up; timing folds by the slowest
    /// worker ([`OpTiming::absorb_parallel`]), after one worker's own
    /// re-opens of a node add up ([`OpTiming::absorb`]). `self` holds
    /// the workers of one parallel run only.
    pub fn absorb_worker(&mut self, other: &Stats) {
        self.rows_scanned += other.rows_scanned;
        self.loop_iterations += other.loop_iterations;
        self.predicate_evals += other.predicate_evals;
        self.hash_build_rows += other.hash_build_rows;
        self.hash_probes += other.hash_probes;
        self.oid_lookups += other.oid_lookups;
        self.index_probes += other.index_probes;
        self.mask_batches += other.mask_batches;
        self.spill_bytes += other.spill_bytes;
        self.spill_partitions += other.spill_partitions;
        self.spill_passes += other.spill_passes;
        self.output_rows += other.output_rows;
        self.plan_cache_hits += other.plan_cache_hits;
        self.result_cache_hits += other.result_cache_hits;
        let mut own: Vec<OpStats> = Vec::new();
        for op in &other.operators {
            OpStats::fold_into(&mut own, op, OpTiming::absorb);
        }
        for op in &own {
            OpStats::fold_into(&mut self.operators, op, OpTiming::absorb_parallel);
        }
    }

    /// The first per-operator entry whose label starts with `prefix`
    /// (convenience for tests and reports).
    pub fn operator(&self, prefix: &str) -> Option<&OpStats> {
        self.operators.iter().find(|o| o.op.starts_with(prefix))
    }

    /// Per-label `rows_out` totals, sorted by label — the canonical
    /// form for comparing operator profiles across runs (serial entries
    /// and parallel workers' folded entries alike). The dop-equivalence
    /// tests assert this is invariant under `parallelism`.
    pub fn operator_rows_by_label(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = Vec::new();
        for op in &self.operators {
            match v.iter_mut().find(|(l, _)| *l == op.op) {
                Some((_, r)) => *r += op.rows_out,
                None => v.push((op.op.clone(), op.rows_out)),
            }
        }
        v.sort();
        v
    }

    /// Total batches emitted across all streaming operators.
    pub fn total_batches(&self) -> u64 {
        self.operators.iter().map(|o| o.batches).sum()
    }

    /// Total "work units": a crude, hardware-independent cost proxy used
    /// by the benchmark report next to wall-clock times.
    pub fn work(&self) -> u64 {
        self.rows_scanned
            + self.loop_iterations
            + self.predicate_evals
            + self.hash_build_rows
            + self.hash_probes
            + self.oid_lookups
            + self.index_probes
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scan={} loop={} pred={} build={} probe={} deref={} idx={} out={}",
            self.rows_scanned,
            self.loop_iterations,
            self.predicate_evals,
            self.hash_build_rows,
            self.hash_probes,
            self.oid_lookups,
            self.index_probes,
            self.output_rows
        )?;
        if self.spill_bytes > 0 {
            write!(
                f,
                " spill={}B/{}parts/{}passes",
                self.spill_bytes, self.spill_partitions, self.spill_passes
            )?;
        }
        if self.plan_cache_hits > 0 || self.result_cache_hits > 0 {
            write!(
                f,
                " plan_hits={} result_hits={}",
                self.plan_cache_hits, self.result_cache_hits
            )?;
        }
        if !self.operators.is_empty() {
            write!(
                f,
                " ops={} batches={}",
                self.operators.len(),
                self.total_batches()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = Stats {
            rows_scanned: 1,
            hash_probes: 2,
            ..Stats::default()
        };
        let b = Stats {
            rows_scanned: 10,
            loop_iterations: 5,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 11);
        assert_eq!(a.loop_iterations, 5);
        assert_eq!(a.hash_probes, 2);
    }

    #[test]
    fn work_excludes_output() {
        let s = Stats {
            output_rows: 100,
            rows_scanned: 3,
            ..Stats::default()
        };
        assert_eq!(s.work(), 3);
    }

    #[test]
    fn display_is_compact() {
        let s = Stats::default();
        assert!(s.to_string().starts_with("scan=0"));
    }

    #[test]
    fn timing_is_equality_blind_but_folds() {
        let timed = OpStats {
            op: "Scan(X)".into(),
            rows_out: 5,
            timing: OpTiming {
                open_ns: 1,
                next_ns: 2,
                close_ns: 3,
                first_ns: 2,
            },
            ..OpStats::default()
        };
        let untimed = OpStats {
            op: "Scan(X)".into(),
            rows_out: 5,
            ..OpStats::default()
        };
        // identical work at different speeds is the same profile
        assert_eq!(timed, untimed);
        assert_eq!(timed.timing.total_ns(), 6);
        // absorb_worker adds the counters of parallel workers but takes
        // the slowest worker's time: they ran side by side
        let slower = OpStats {
            timing: OpTiming {
                open_ns: 0,
                next_ns: 10,
                close_ns: 0,
                first_ns: 1,
            },
            ..timed.clone()
        };
        let mut a = Stats::default();
        a.absorb_worker(&Stats {
            operators: vec![timed.clone()],
            ..Stats::default()
        });
        a.absorb_worker(&Stats {
            operators: vec![slower],
            ..Stats::default()
        });
        assert_eq!(a.operators.len(), 1);
        assert_eq!(a.operators[0].rows_out, 10);
        assert_eq!(a.operators[0].timing.total_ns(), 10);
        assert_eq!(a.operators[0].timing.next_ns, 10);
        // ...and the first batch is the latest of the workers' first batches
        assert_eq!(a.operators[0].timing.first_ns, 2);
        // one worker's re-opens of a node ran one after the other: they add
        let mut b = Stats::default();
        b.absorb_worker(&Stats {
            operators: vec![timed.clone(), timed],
            ..Stats::default()
        });
        assert_eq!(b.operators.len(), 1);
        assert_eq!(b.operators[0].rows_out, 10);
        assert_eq!(b.operators[0].timing.total_ns(), 12);
    }
}
