//! # Observability primitives
//!
//! The engine's [`Stats`] counters say *what work* a query did; this
//! crate supplies the layer that says *where the time went* and makes it
//! scrapeable:
//!
//! * [`Counter`] / [`Gauge`] — lock-free monotonic and point-in-time
//!   cells.
//! * [`Histogram`] — log-bucketed (powers of two of a microsecond)
//!   latency histogram with `p50/p90/p99/max` summaries and
//!   [`Histogram::quantile_bounds`]: the bucket bracketing a quantile,
//!   so a test can assert a measured latency provably lies inside the
//!   histogram's answer instead of comparing two noisy wall clocks.
//! * [`Registry`] — named metric families rendered in [Prometheus text
//!   exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//!   by [`Registry::render`].
//! * [`SpanRecorder`] / [`QueryTrace`] / [`TraceLog`] — a per-query span
//!   timeline (parse → translate → plan → admission → execute → …) in a
//!   fixed-size ring buffer, with a separate slow-query log that keeps
//!   the full span tree plus EXPLAIN text for queries over a threshold.
//!
//! Everything here is dependency-free and engine-agnostic; the serving
//! layer (`oodb-server`) owns the wiring.
//!
//! [`Stats`]: https://docs.rs (the `oodb_engine::Stats` counters)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counters and gauges.

/// A monotonic counter (wraps an `AtomicU64`; cheap to clone and share).
#[derive(Debug, Default, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raises the counter to `total` if it is below: how a counter
    /// mirrors a monotonic total kept elsewhere. A lower `total` is
    /// ignored, so the counter never goes down.
    pub fn raise_to(&self, total: u64) {
        self.cell.fetch_max(total, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge (set, not accumulated).
#[derive(Debug, Default, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Log-bucketed histogram.

/// Bucket count: bucket `i` holds samples in `(2^(i-1), 2^i]`
/// microseconds (bucket 0 holds `(0, 1]` µs and zero), bucket 39 tops
/// out above nine minutes — far past any latency this engine serves.
const BUCKETS: usize = 40;

/// A log-bucketed latency histogram over microsecond samples.
///
/// Buckets are powers of two of a microsecond, so recording costs one
/// `leading_zeros` plus two atomic adds and the relative error of any
/// quantile read is bounded by the bucket ratio (2×). Alongside the
/// buckets it tracks the exact count, sum and max, so `_sum`/`_count`
/// in the Prometheus rendering are exact even though the quantiles are
/// bucket bounds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(us: u64) -> usize {
        if us <= 1 {
            0
        } else {
            (64 - (us - 1).leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Upper bound (inclusive) of bucket `i`, in microseconds.
    fn bucket_upper_us(i: usize) -> u64 {
        1u64 << i
    }

    /// Records one sample of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] sample.
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_us(d.as_micros() as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Exact maximum sample, in microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The `(lower, upper]` microsecond bounds of the bucket containing
    /// the `q`-quantile (`0.0 ..= 1.0`), or `None` when empty. Every
    /// recorded sample at that quantile provably lies inside the
    /// returned interval — the deterministic "bracketing" contract the
    /// acceptance tests assert instead of comparing two noisy clocks.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        // rank of the q-quantile sample, 1-based, nearest-rank method
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                let lower = if i == 0 {
                    0
                } else {
                    Self::bucket_upper_us(i - 1)
                };
                return Some((lower, Self::bucket_upper_us(i)));
            }
        }
        None
    }

    /// The upper bucket bound of the `q`-quantile, in milliseconds
    /// (0.0 when empty) — the `p50/p90/p99` summary figure.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_bounds(q)
            .map(|(_, hi)| hi as f64 / 1e3)
            .unwrap_or(0.0)
    }

    /// `(count, cumulative_count)` per bucket with its upper bound in
    /// microseconds — the raw data behind the Prometheus `_bucket`
    /// series, exposed for tests.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(BUCKETS);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.buckets[i].load(Ordering::Relaxed);
            out.push((Self::bucket_upper_us(i), cum));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Registry + Prometheus text exposition.

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

struct Family {
    name: String,
    help: String,
    metric: Metric,
}

/// A registry of named metric families, rendered in registration order
/// by [`Registry::render`]. Handles returned by the `register_*`
/// methods are cheap clones sharing the registered cell.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a counter family; returns the shared handle.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let c = Counter::new();
        self.families.lock().unwrap().push(Family {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Counter(c.clone()),
        });
        c
    }

    /// Registers a gauge family; returns the shared handle.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let g = Gauge::new();
        self.families.lock().unwrap().push(Family {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Gauge(g.clone()),
        });
        g
    }

    /// Registers a histogram family; returns the shared handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.families.lock().unwrap().push(Family {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Renders every family in Prometheus text exposition format.
    /// Histogram bucket bounds are emitted in the family's unit
    /// (milliseconds for `*_ms` families), `_sum`/`_count` are exact.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for f in self.families.lock().unwrap().iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            match &f.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", f.name);
                    let _ = writeln!(out, "{} {}", f.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", f.name);
                    let _ = writeln!(out, "{} {}", f.name, g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", f.name);
                    // suppress empty trailing buckets: emit up to the
                    // highest non-empty bucket, then +Inf
                    let cum = h.cumulative_buckets();
                    let total = h.count();
                    let mut last_needed = 0usize;
                    for (i, (_, c)) in cum.iter().enumerate() {
                        if *c < total {
                            last_needed = i + 1;
                        }
                    }
                    for (upper_us, c) in cum.iter().take(last_needed + 1) {
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            f.name,
                            *upper_us as f64 / 1e3,
                            c
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", f.name, total);
                    let _ = writeln!(out, "{}_sum {}", f.name, h.sum_us() as f64 / 1e3);
                    let _ = writeln!(out, "{}_count {}", f.name, total);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Query-phase span traces.

/// One timed phase of a query. `depth` nests sub-phases under their
/// parent in renderings (`joinorder` inside `plan`); `start_us` is
/// relative to the query's start.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Phase name (`parse`, `plan`, `execute`, …).
    pub name: String,
    /// Nesting depth: 0 = top-level phase, 1 = sub-phase.
    pub depth: usize,
    /// Microseconds from query start to phase start.
    pub start_us: u64,
    /// Phase duration in microseconds.
    pub dur_us: u64,
}

/// The span timeline of one served query.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The query text (or a label for expression-level entry points).
    pub query: String,
    /// End-to-end serving time in microseconds.
    pub total_us: u64,
    /// Phases in start order.
    pub spans: Vec<SpanRec>,
    /// Whether the query failed (the error phase is the last span).
    pub error: bool,
    /// EXPLAIN text, retained only for slow-query-log entries.
    pub explain: Option<String>,
}

impl QueryTrace {
    /// A compact one-trace rendering: the query line, then one indented
    /// line per span.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query total_ms={:.3}{} {}",
            self.total_us as f64 / 1e3,
            if self.error { " error=1" } else { "" },
            self.query
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "  {}{} start_ms={:.3} dur_ms={:.3}",
                "  ".repeat(s.depth),
                s.name,
                s.start_us as f64 / 1e3,
                s.dur_us as f64 / 1e3
            );
        }
        out
    }
}

/// Records one query's spans against a single start instant.
#[derive(Debug)]
pub struct SpanRecorder {
    started: Instant,
    spans: Vec<SpanRec>,
}

impl SpanRecorder {
    /// Starts the query clock.
    pub fn start() -> Self {
        SpanRecorder {
            started: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the query started.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Times `f` as a top-level span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span_at(name, 0, f)
    }

    /// Times `f` as a span at `depth`.
    pub fn span_at<T>(&mut self, name: &str, depth: usize, f: impl FnOnce() -> T) -> T {
        let start_us = self.elapsed_us();
        let v = f();
        let dur_us = self.elapsed_us() - start_us;
        self.spans.push(SpanRec {
            name: name.to_string(),
            depth,
            start_us,
            dur_us,
        });
        v
    }

    /// Appends an already-measured span (for phases timed elsewhere,
    /// e.g. join-order enumeration inside the planner).
    pub fn push(&mut self, name: &str, depth: usize, start_us: u64, dur_us: u64) {
        self.spans.push(SpanRec {
            name: name.to_string(),
            depth,
            start_us,
            dur_us,
        });
    }

    /// Finishes the trace.
    pub fn finish(self, query: impl Into<String>, error: bool) -> QueryTrace {
        let total_us = self.started.elapsed().as_micros() as u64;
        QueryTrace {
            query: query.into(),
            total_us,
            spans: self.spans,
            error,
            explain: None,
        }
    }
}

/// A fixed-capacity ring buffer of recent [`QueryTrace`]s plus a
/// separate slow-query log. Ordinary entries drop their EXPLAIN text;
/// entries over the slow threshold keep it (that's the whole point of a
/// slow-query log: everything needed to diagnose the query after the
/// fact).
#[derive(Debug)]
pub struct TraceLog {
    capacity: usize,
    slow_capacity: usize,
    inner: Mutex<TraceLogInner>,
}

#[derive(Debug, Default)]
struct TraceLogInner {
    recent: std::collections::VecDeque<QueryTrace>,
    slow: std::collections::VecDeque<QueryTrace>,
}

impl TraceLog {
    /// A log retaining the last `capacity` traces and the last
    /// `slow_capacity` slow-query traces.
    pub fn new(capacity: usize, slow_capacity: usize) -> Self {
        TraceLog {
            capacity,
            slow_capacity,
            inner: Mutex::new(TraceLogInner::default()),
        }
    }

    /// Records `trace`; when `slow` it also enters the slow-query log
    /// (with whatever `explain` text the caller attached).
    pub fn record(&self, trace: QueryTrace, slow: bool) {
        let mut inner = self.inner.lock().unwrap();
        if slow {
            if inner.slow.len() == self.slow_capacity {
                inner.slow.pop_front();
            }
            inner.slow.push_back(trace.clone());
        }
        let mut recent = trace;
        recent.explain = None; // the ring buffer stays lean
        if inner.recent.len() == self.capacity {
            inner.recent.pop_front();
        }
        inner.recent.push_back(recent);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.inner.lock().unwrap().recent.iter().cloned().collect()
    }

    /// The retained slow-query traces (EXPLAIN attached), oldest first.
    pub fn slow(&self) -> Vec<QueryTrace> {
        self.inner.lock().unwrap().slow.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_bracket_every_sample() {
        let h = Histogram::new();
        for us in [1u64, 3, 900, 1000, 1024, 1025, 70_000] {
            h.observe_us(us);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_us(), 70_000);
        // every quantile's bounds contain the nearest-rank sample
        let mut sorted = [1u64, 3, 900, 1000, 1024, 1025, 70_000];
        sorted.sort();
        for (i, q) in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0].iter().enumerate() {
            let (lo, hi) = h.quantile_bounds(*q).unwrap();
            let rank = ((q * 7.0).ceil() as usize).clamp(1, 7);
            let sample = sorted[rank - 1];
            assert!(
                lo < sample || (sample <= 1 && lo == 0),
                "q[{i}]={q}: lower bound {lo} not below sample {sample}"
            );
            assert!(
                hi >= sample,
                "q[{i}]={q}: upper bound {hi} < sample {sample}"
            );
        }
    }

    #[test]
    fn histogram_bucket_edges_are_exclusive_inclusive() {
        // (2^(i-1), 2^i]: 1024 lands in the le=1024 bucket, 1025 above it
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(1025), 11);
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = Registry::new();
        let c = r.counter("oodb_queries_total", "Queries served.");
        let g = r.gauge("oodb_pool_in_use_bytes", "Live grant bytes.");
        let h = r.histogram("oodb_query_latency_ms", "Per-query latency.");
        c.add(3);
        c.raise_to(2);
        g.set(42);
        h.observe_us(1500);
        let text = r.render();
        assert!(text.contains("# TYPE oodb_queries_total counter"), "{text}");
        assert!(text.contains("oodb_queries_total 3"), "{text}");
        assert!(
            text.contains("# TYPE oodb_pool_in_use_bytes gauge"),
            "{text}"
        );
        assert!(text.contains("oodb_pool_in_use_bytes 42"), "{text}");
        assert!(
            text.contains("# TYPE oodb_query_latency_ms histogram"),
            "{text}"
        );
        // 1500 µs = le 2.048 ms bucket; +Inf and exact sum/count present
        assert!(
            text.contains("oodb_query_latency_ms_bucket{le=\"2.048\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("oodb_query_latency_ms_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("oodb_query_latency_ms_sum 1.5"), "{text}");
        assert!(text.contains("oodb_query_latency_ms_count 1"), "{text}");
    }

    #[test]
    fn trace_log_is_a_ring_and_slow_entries_keep_explain() {
        let log = TraceLog::new(2, 2);
        for i in 0..3 {
            let mut rec = SpanRecorder::start();
            rec.span("parse", || {});
            let mut t = rec.finish(format!("q{i}"), false);
            t.explain = Some("Scan X".into());
            log.record(t, i == 2);
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 2, "ring capacity enforced");
        assert_eq!(recent[0].query, "q1");
        assert!(recent[1].explain.is_none(), "ring entries drop explain");
        let slow = log.slow();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].explain.as_deref(), Some("Scan X"));
        assert!(slow[0].render().contains("parse"));
    }
}
