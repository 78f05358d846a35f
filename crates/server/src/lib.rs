//! # Serving layer: multi-session query server
//!
//! PR 3 gave every query its own scoped threads and its own memory
//! budget; fine for a library, wrong for a server — N concurrent clients
//! would multiply both. This crate puts a session front end over the
//! existing `oosql` parse → typecheck → translate → optimize → plan →
//! execute path with three serving-layer properties:
//!
//! * **Shared execution resources.** All queries' exchange morsels run
//!   on the process-wide [`oodb_engine::WorkerPool`], so total dop is
//!   capped at the pool size regardless of client count; and each query
//!   is *admitted* against a global [`BudgetPool`] — the sum of live
//!   per-query memory grants never exceeds the server's byte cap, with
//!   FIFO fairness when oversubscribed (no query starves, earlier
//!   arrivals admit first).
//! * **Plan caching.** Plans are cached under their canonical ADL key
//!   ([`oodb_adl::normal_key`]) plus a planner-configuration
//!   fingerprint: a repeated (or alpha-equivalent) query skips the
//!   rewrite engine *and* costing entirely and goes straight to
//!   execution ([`oodb_engine::Stats::plan_cache_hits`] reports it).
//!   Entries are stamped with extent versions; any write to a referenced
//!   extent makes the entry invisible, so a hit is only ever served from
//!   a plan whose dependencies are unchanged.
//! * **Result caching** (on by default, [`ServerConfig::cache_results`]).
//!   Whole-query results and hoisted-`let` subquery values are cached
//!   under the same stamped-key regime and shared across sessions; a hit
//!   skips execution (reported via
//!   [`oodb_engine::Stats::result_cache_hits`]) but *replays* the
//!   execution profile recorded when the value was computed, so
//!   `Stats::operators` reports the same per-operator work either way —
//!   the differential suites can assert identical profiles whether or
//!   not a value came from the cache. Once the cache is full, a result
//!   seen for the first time is streamed without being kept (see
//!   [`ResultCache::lookup`]), so one-off queries evict nothing.
//! * **Adaptive re-optimization** (opt-in,
//!   [`ServerConfig::adaptive_stats`]). After each executed query the
//!   measured per-operator cardinalities are folded into a shared
//!   statistics accumulator ([`CatalogStats::absorb_observed`]); when an
//!   observation materially contradicts the planner's estimates the
//!   server bumps a **staleness epoch** that is part of every plan-cache
//!   key, so all cached plans priced on the stale numbers become
//!   invisible at once and the next run re-plans on real cardinalities.
//!
//! [`net`] wraps all of this in a TCP transport (thread-per-connection
//! over one shared cache/budget state) speaking the length-prefixed
//! binary frame protocol of [`wire`] — pipelined tagged requests,
//! results streamed chunk by chunk straight out of a [`ResultCursor`].

pub mod cache;
pub mod net;
pub mod wire;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oodb_adl::expr::Expr;
use oodb_catalog::{CatalogStats, Database, StatsCollector};
use oodb_core::strategy::{Optimized, Optimizer};
use oodb_engine::eval::EvalError;
use oodb_engine::{ExecOptions, PhysPlan, Planner, PlannerConfig, ResultStream, Stats};
use oodb_obs::{Counter, Gauge, Histogram, Registry, SpanRecorder, TraceLog};
use oodb_spill::{BudgetGrant, BudgetPool};
use oodb_value::{Batch, Set, Value};

use cache::{CachedPlan, CachedResult, Lookup, PlanCache, ResultCache, ResultLookup};

/// Server-level configuration: the per-query planner configuration plus
/// the serving-layer knobs layered on top of it.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Planner configuration applied to every session's queries.
    /// `planner.memory_budget` is the *per-query* budget request; the
    /// grant actually handed to execution is clamped by the global pool.
    pub planner: PlannerConfig,
    /// Global memory cap in bytes across all concurrently executing
    /// queries (`0` = unbounded). Admission control blocks a query until
    /// its budget request fits under this cap alongside the grants
    /// already live.
    pub global_memory_bytes: usize,
    /// Plan cache capacity (entries; cost×frequency-weighted eviction).
    pub plan_cache_capacity: usize,
    /// Result / `let`-subquery cache capacity (entries; FIFO eviction).
    /// It also sizes the admission doorkeeper: once every slot is taken,
    /// a new key is cached only when it is among the last this many
    /// declined keys, that is on its second sighting.
    pub result_cache_capacity: usize,
    /// Serve memoized whole-query results and hoisted-`let` values when
    /// their extent stamps are current. On by default: a hit skips
    /// execution but replays the recorded execution profile, so
    /// `Stats::operators` is indistinguishable from a real run. A miss
    /// is cached if its key already has an entry (current or stale), if
    /// the cache has a free slot, or on the key's second sighting;
    /// otherwise it streams as it would with this off.
    pub cache_results: bool,
    /// Fold measured per-operator cardinalities back into the planning
    /// statistics after every executed query, re-planning (via a
    /// staleness epoch in the plan-cache key) when an observation
    /// materially contradicts the estimates. Off by default: feedback
    /// deliberately changes plans between repeats of the same query,
    /// which the plan-stability suites assert against.
    pub adaptive_stats: bool,
    /// Queries whose end-to-end latency reaches this many milliseconds
    /// land in the slow-query log ([`ServerShared::traces`]) with their
    /// full span tree *and* EXPLAIN text retained; faster queries only
    /// keep their span tree in the bounded recent-trace ring.
    pub slow_query_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            planner: PlannerConfig::default(),
            global_memory_bytes: 0,
            plan_cache_capacity: 128,
            result_cache_capacity: 128,
            cache_results: true,
            adaptive_stats: false,
            slow_query_ms: 250,
        }
    }
}

/// Monotonic serving-layer counters (whole-server totals; per-query
/// numbers live in [`Stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Plan-cache hits: rewrite + costing skipped.
    pub plan_hits: u64,
    /// Plan-cache misses with no prior entry.
    pub plan_misses: u64,
    /// Plan-cache lookups that found an entry invalidated by an extent
    /// write (counted *in addition to* a miss).
    pub plan_invalidations: u64,
    /// Result/`let`-cache hits: execution skipped.
    pub result_hits: u64,
    /// Result/`let`-cache misses (only counted when result caching is
    /// enabled).
    pub result_misses: u64,
}

/// The server's metric families, registered once per [`ServerShared`]
/// in a [`Registry`] (the `METRICS` protocol command renders it in
/// Prometheus text exposition format) with typed handles kept for the
/// hot-path increments. The old ad-hoc cache counters live here now;
/// [`ServerShared::metrics`] still snapshots them as [`CacheMetrics`].
struct ServerMetrics {
    registry: Registry,
    queries: Counter,
    query_errors: Counter,
    plan_hits: Counter,
    plan_misses: Counter,
    plan_invalidations: Counter,
    result_hits: Counter,
    result_misses: Counter,
    /// Result/`let`-cache misses the doorkeeper declined to cache.
    result_declined: Counter,
    /// End-to-end query latency (parse through execute), log-bucketed.
    latency: Arc<Histogram>,
    /// Time from admission to the first result chunk leaving the
    /// cursor — the latency a streaming client actually experiences,
    /// as opposed to `latency` which runs to exhaustion.
    ttfb: Arc<Histogram>,
    spill_bytes: Counter,
    rows_out: Counter,
    /// Result chunks handed to streaming consumers (in-process cursors
    /// and the wire alike).
    streamed_chunks: Counter,
    /// Encoded chunk bytes written by the wire protocol.
    streamed_bytes: Counter,
    /// CHUNK frames the wire served from a cached result's encoded
    /// bytes, with no encoder call.
    wire_cached_chunks: Counter,
    /// Accepted TCP connections dropped because no connection thread
    /// could be spawned for them.
    connections_refused: Counter,
    /// Refreshed from the [`BudgetPool`] at render time.
    pool_in_use: Gauge,
    pool_queue_depth: Gauge,
    budget_high_water: Gauge,
    /// Refreshed from the [`ResultCache`] at render time.
    result_cache_encoded_bytes: Gauge,
    /// Rows walked to collect catalog statistics.
    stats_rows_scanned: Counter,
    /// Raised to the database's
    /// [`SnapshotWork`](oodb_catalog::SnapshotWork) totals by
    /// [`QueryServer::render_metrics`].
    snapshot_rows_sorted: Counter,
    scan_chunks_transposed: Counter,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        ServerMetrics {
            queries: registry.counter("oodb_queries_total", "Queries accepted by the serving path"),
            query_errors: registry.counter(
                "oodb_query_errors_total",
                "Queries that failed in any phase (parse through execute)",
            ),
            plan_hits: registry.counter(
                "oodb_plan_cache_hits_total",
                "Plan-cache hits (rewrite + costing skipped)",
            ),
            plan_misses: registry.counter(
                "oodb_plan_cache_misses_total",
                "Plan-cache misses with no current entry",
            ),
            plan_invalidations: registry.counter(
                "oodb_plan_cache_invalidations_total",
                "Plan-cache lookups that found an entry invalidated by an extent write",
            ),
            result_hits: registry.counter(
                "oodb_result_cache_hits_total",
                "Result/let-cache hits (execution skipped)",
            ),
            result_misses: registry.counter(
                "oodb_result_cache_misses_total",
                "Result/let-cache misses (counted only when result caching is enabled)",
            ),
            result_declined: registry.counter(
                "oodb_result_cache_declined_total",
                "Result/let-cache misses streamed without being cached (first sighting, cache full)",
            ),
            latency: registry.histogram(
                "oodb_query_latency_ms",
                "End-to-end query latency (parse through execute), log-bucketed",
            ),
            ttfb: registry.histogram(
                "oodb_query_ttfb_ms",
                "Time from admission to the first streamed result chunk, log-bucketed",
            ),
            streamed_chunks: registry.counter(
                "oodb_streamed_chunks_total",
                "Result chunks handed to streaming consumers",
            ),
            streamed_bytes: registry.counter(
                "oodb_streamed_bytes_total",
                "Encoded result-chunk bytes written by the wire protocol",
            ),
            wire_cached_chunks: registry.counter(
                "oodb_wire_cached_chunks_total",
                "CHUNK frames sent from a cached result's encoded bytes",
            ),
            connections_refused: registry.counter(
                "oodb_connections_refused_total",
                "Accepted connections dropped because no connection thread could be spawned",
            ),
            spill_bytes: registry.counter(
                "oodb_spill_bytes_total",
                "Bytes written by the external-memory subsystem across all queries",
            ),
            rows_out: registry.counter(
                "oodb_rows_out_total",
                "Result rows produced across all queries",
            ),
            pool_in_use: registry.gauge(
                "oodb_pool_in_use_bytes",
                "Bytes currently held by live admission grants",
            ),
            pool_queue_depth: registry.gauge(
                "oodb_pool_queue_depth",
                "Queries queued for memory admission",
            ),
            budget_high_water: registry.gauge(
                "oodb_budget_high_water_bytes",
                "Largest sum of live admission grants ever observed",
            ),
            result_cache_encoded_bytes: registry.gauge(
                "oodb_result_cache_encoded_bytes",
                "Encoded CHUNK bytes held by result-cache entries",
            ),
            stats_rows_scanned: registry.counter(
                "oodb_stats_rows_scanned_total",
                "Rows walked to collect catalog statistics",
            ),
            snapshot_rows_sorted: registry.counter(
                "oodb_snapshot_rows_sorted_total",
                "Rows sorted into extent snapshots by the first read after a write",
            ),
            scan_chunks_transposed: registry.counter(
                "oodb_scan_chunks_transposed_total",
                "Extent scan chunks transposed into the columnar layout",
            ),
            registry,
        }
    }
}

/// Cache + admission state shared by every session of a server — and,
/// via [`QueryServer::with_shared`], across *server instances*: because
/// [`QueryServer`] borrows the database immutably, interleaving writes
/// means dropping the server, mutating, and rebuilding it; detaching the
/// shared state lets the caches (and their version stamps) survive that
/// round trip so invalidation is actually exercised. The catalog
/// statistics survive it too: each rebuild walks only the rows written
/// since the last one.
///
/// A `ServerShared` serves one database *lineage*: one [`Database`] and
/// the writes applied to it. Its caches are stamped with extent versions
/// and its statistics are kept per extent version, so servers over an
/// unrelated database must not share it.
pub struct ServerShared {
    plan_cache: PlanCache,
    result_cache: ResultCache,
    pool: BudgetPool,
    metrics: ServerMetrics,
    /// Recent + slow query-phase traces (see [`Session::run`]).
    traces: TraceLog,
    /// Latency threshold for the slow-query log, from
    /// [`ServerConfig::slow_query_ms`] at creation.
    slow_query_ms: u64,
    /// Statistics-staleness epoch, embedded in every plan-cache key.
    /// Bumped when adaptive feedback materially changes the statistics;
    /// all plans priced on the old numbers become unreachable at once
    /// (they age out of the cache by weight), so a feedback round never
    /// serves a stale pre-feedback plan.
    stats_epoch: AtomicU64,
    /// The adaptive statistics accumulator: the server's collected
    /// [`CatalogStats`] plus every observation absorbed so far. `None`
    /// until the first executed query under `adaptive_stats`. Lives in
    /// the shared state so feedback survives server rebuilds around
    /// database writes; a rebuild after a write replaces the written
    /// extents' statistics with the fresh ones and keeps the
    /// observations.
    adaptive: std::sync::Mutex<Option<CatalogStats>>,
    /// Catalog statistics of the database lineage, kept current by each
    /// [`QueryServer::with_shared`].
    collector: std::sync::Mutex<StatsCollector>,
}

impl ServerShared {
    /// Fresh shared state sized by `config`.
    pub fn new(config: &ServerConfig) -> Arc<ServerShared> {
        Arc::new(ServerShared {
            plan_cache: PlanCache::new(config.plan_cache_capacity),
            result_cache: ResultCache::new(config.result_cache_capacity),
            pool: BudgetPool::new(config.global_memory_bytes),
            metrics: ServerMetrics::new(),
            traces: TraceLog::new(128, 32),
            slow_query_ms: config.slow_query_ms,
            stats_epoch: AtomicU64::new(0),
            adaptive: std::sync::Mutex::new(None),
            collector: std::sync::Mutex::new(StatsCollector::new()),
        })
    }

    /// The current statistics-staleness epoch (monotonic; bumped by
    /// material adaptive-feedback updates).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Relaxed)
    }

    /// The global admission-control pool (tests assert on its
    /// high-water mark).
    pub fn budget_pool(&self) -> &BudgetPool {
        &self.pool
    }

    /// Snapshot of the serving-layer counters.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            plan_hits: self.metrics.plan_hits.get(),
            plan_misses: self.metrics.plan_misses.get(),
            plan_invalidations: self.metrics.plan_invalidations.get(),
            result_hits: self.metrics.result_hits.get(),
            result_misses: self.metrics.result_misses.get(),
        }
    }

    /// The whole metrics registry rendered in Prometheus text exposition
    /// format. Pool and result-cache gauges are refreshed from the
    /// [`BudgetPool`] and the [`ResultCache`] first, so point-in-time
    /// values are current as of this call. The snapshot families live in
    /// the database and are current only through
    /// [`QueryServer::render_metrics`], the `METRICS` protocol payload.
    pub fn render_metrics(&self) -> String {
        self.metrics.pool_in_use.set(self.pool.in_use() as u64);
        self.metrics.pool_queue_depth.set(self.pool.waiting());
        self.metrics
            .budget_high_water
            .set(self.pool.high_water() as u64);
        self.metrics
            .result_cache_encoded_bytes
            .set(self.result_cache.encoded_bytes() as u64);
        self.metrics.registry.render()
    }

    /// The end-to-end query-latency histogram (log-bucketed
    /// microseconds; quantile helpers report milliseconds).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.metrics.latency
    }

    /// The time-to-first-chunk histogram (admission to first streamed
    /// result chunk).
    pub fn ttfb_histogram(&self) -> &Histogram {
        &self.metrics.ttfb
    }

    /// Recent + slow query-phase traces.
    pub fn traces(&self) -> &TraceLog {
        &self.traces
    }
}

/// The in-process query server: a database binding plus shared caches
/// and admission control. Open one [`Session`] per client; sessions are
/// cheap and each carries only a reference back here.
pub struct QueryServer<'db> {
    db: &'db Database,
    config: ServerConfig,
    /// Exact fingerprint of the planner configuration, prefixed onto
    /// plan-cache keys: two sessions share a plan only when every
    /// planning knob matches.
    fingerprint: String,
    /// Catalog statistics as of construction, taken from the shared
    /// [`StatsCollector`]: an extent is walked once per version at most,
    /// and after a write only its appended rows are — the serving loop
    /// never re-scans the database per query.
    stats: CatalogStats,
    shared: Arc<ServerShared>,
}

impl<'db> QueryServer<'db> {
    /// A server over `db` with the default configuration.
    pub fn new(db: &'db Database) -> Self {
        QueryServer::with_config(db, ServerConfig::default())
    }

    /// A server with an explicit configuration and fresh shared state.
    pub fn with_config(db: &'db Database, config: ServerConfig) -> Self {
        let shared = ServerShared::new(&config);
        QueryServer::with_shared(db, config, shared)
    }

    /// A server reusing existing shared state (caches, budget pool and
    /// catalog statistics) — how caches survive database writes between
    /// server instances, and how every TCP connection thread shares one
    /// cache. `db` must be of the lineage `shared` already serves (see
    /// [`ServerShared`]). The statistics come from the shared collector:
    /// reused while no extent changed, and after a write only the
    /// appended rows are walked. Under [`ServerConfig::adaptive_stats`],
    /// every extent whose version moved also replaces its statistics in
    /// the adaptive accumulator, which keeps its observations.
    pub fn with_shared(db: &'db Database, config: ServerConfig, shared: Arc<ServerShared>) -> Self {
        let stats = {
            let mut collector = shared.collector.lock().unwrap();
            let scanned = collector.rows_scanned();
            let stats = collector.collect(db);
            shared
                .metrics
                .stats_rows_scanned
                .add(collector.rows_scanned() - scanned);
            if let Some(acc) = shared.adaptive.lock().unwrap().as_mut() {
                for extent in collector.moved() {
                    if let Some(fresh) = stats.table(extent) {
                        acc.set_table(extent.clone(), fresh.clone());
                    }
                }
            }
            stats
        };
        let fingerprint = format!("{:?}", config.planner);
        QueryServer {
            db,
            config,
            fingerprint,
            stats,
            shared,
        }
    }

    /// The shared cache/admission state, detachable for reuse via
    /// [`QueryServer::with_shared`].
    pub fn shared(&self) -> Arc<ServerShared> {
        Arc::clone(&self.shared)
    }

    /// [`ServerShared::render_metrics`] with the snapshot families
    /// brought up to the database's
    /// [`SnapshotWork`](oodb_catalog::SnapshotWork) totals first: the
    /// `METRICS` protocol payload.
    pub fn render_metrics(&self) -> String {
        let work = self.db.snapshot_work();
        let metrics = &self.shared.metrics;
        metrics.snapshot_rows_sorted.raise_to(work.rows_sorted);
        metrics
            .scan_chunks_transposed
            .raise_to(work.chunks_transposed);
        self.shared.render_metrics()
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Opens a client session.
    pub fn session(&self) -> Session<'_, 'db> {
        Session { server: self }
    }

    /// A planner over this server's database and configuration, priced
    /// on the statistics collected at construction (so no caller
    /// re-scans the database to plan).
    pub fn planner(&self) -> Planner<'db> {
        self.planner_with(self.stats.clone())
    }

    fn planner_with(&self, stats: CatalogStats) -> Planner<'db> {
        Planner::with_stats(self.db, self.config.planner.clone(), stats)
    }
}

/// One client's handle on a [`QueryServer`]. Sessions hold no state of
/// their own today (caches are deliberately global so clients benefit
/// from each other's work); the type exists so per-session state —
/// transactions, prepared statements — has somewhere to live.
pub struct Session<'srv, 'db> {
    server: &'srv QueryServer<'db>,
}

impl<'srv, 'db> Session<'srv, 'db> {
    /// Parses, type checks and translates `oosql_text`, then executes it
    /// through the serving path — recording a query-phase span timeline
    /// (parse → typecheck → translate → plan-cache lookup → rewrite →
    /// plan/joinorder → result-cache lookup → admission → execute, with
    /// a `first_chunk` child span) into the shared [`TraceLog`] and
    /// folding the end-to-end latency into the metrics registry.
    ///
    /// A thin collect-all wrapper over [`Session::open_stream`]: it
    /// drains the cursor and assembles the canonical result — what the
    /// facade's `Pipeline::run` returns.
    pub fn run(&self, oosql_text: &str) -> Result<ServerOutput, ServerError> {
        self.open_stream(oosql_text)?.into_output()
    }

    /// Executes a translated (nested) ADL expression through the
    /// serving path, tracing and metering it like [`Session::run`] (the
    /// trace's query label is the placeholder `<expr>` — there is no
    /// source text at this entry point).
    pub fn run_expr(&self, nested: Expr) -> Result<ServerOutput, ServerError> {
        self.open_expr_stream(nested)?.into_output()
    }

    /// Parses, type checks and translates `oosql_text` and opens a
    /// [`ResultCursor`] over its execution: the cursor's first
    /// [`ResultCursor::next_chunk`] can return before the pipeline has
    /// finished — this is the entry point of the streamed wire protocol.
    /// Phase errors before execution are traced and metered here;
    /// everything after the cursor opens is traced when it finishes (or
    /// is dropped).
    pub fn open_stream(&self, oosql_text: &str) -> Result<ResultCursor<'srv, 'db>, ServerError> {
        let db = self.server.db;
        let mut rec = SpanRecorder::start();
        let translated = (|| {
            let query = rec.span("parse", || {
                oodb_oosql::parse(oosql_text).map_err(ServerError::Parse)
            })?;
            rec.span("typecheck", || {
                oodb_oosql::typecheck(&query, db.catalog()).map_err(ServerError::Type)
            })?;
            rec.span("translate", || {
                oodb_translate::translate(&query, db.catalog()).map_err(ServerError::Translate)
            })
        })();
        match translated {
            Ok(nested) => self.open_expr_recorded(nested, oosql_text.to_string(), rec),
            Err(e) => {
                self.trace_failure(oosql_text, rec);
                Err(e)
            }
        }
    }

    /// [`Session::open_stream`] for an already-translated expression.
    pub fn open_expr_stream(&self, nested: Expr) -> Result<ResultCursor<'srv, 'db>, ServerError> {
        self.open_expr_recorded(nested, "<expr>".to_string(), SpanRecorder::start())
    }

    /// Records a query that failed before its cursor existed: counted,
    /// metered, and traced as an error.
    fn trace_failure(&self, query: &str, rec: SpanRecorder) {
        let shared = &self.server.shared;
        let m = &shared.metrics;
        m.queries.inc();
        m.query_errors.inc();
        let elapsed_us = rec.elapsed_us();
        m.latency.observe_us(elapsed_us);
        let slow = elapsed_us / 1000 >= shared.slow_query_ms;
        shared.traces.record(rec.finish(query, true), slow);
    }

    /// Plan-cache lookup under the canonical key, rewrite + costing only
    /// on miss — the planning phase shared by every serving-path entry.
    fn lookup_or_plan(
        &self,
        nested: &Expr,
        plan_key: String,
        rec: &mut SpanRecorder,
    ) -> Result<(Arc<CachedPlan>, bool), ServerError> {
        let server = self.server;
        let db = server.db;
        let shared = &server.shared;
        let lookup = rec.span("plan_cache_lookup", || {
            shared.plan_cache.get_current(&plan_key, db)
        });
        match lookup {
            Lookup::Hit(entry) => {
                shared.metrics.plan_hits.inc();
                Ok((entry, true))
            }
            outcome => {
                if matches!(outcome, Lookup::Stale) {
                    shared.metrics.plan_invalidations.inc();
                }
                shared.metrics.plan_misses.inc();
                let started = std::time::Instant::now();
                let rewrite = rec.span("rewrite", || {
                    Optimizer
                        .optimize(nested, db.catalog())
                        .map_err(ServerError::Rewrite)
                })?;
                // Adaptive feedback replans on the absorbed statistics
                // when any are present; the server's collected baseline
                // otherwise.
                let absorbed = if server.config.adaptive_stats {
                    shared.adaptive.lock().unwrap().clone()
                } else {
                    None
                };
                let planner = server.planner_with(absorbed.unwrap_or_else(|| server.stats.clone()));
                let plan_start = rec.elapsed_us();
                let plan = planner.plan(&rewrite.expr).map_err(ServerError::Plan)?;
                rec.push("plan", 0, plan_start, rec.elapsed_us() - plan_start);
                // Join-order enumeration is timed inside the planner;
                // surface it as a child span of `plan` when it fired.
                let joinorder_us = plan.joinorder_micros();
                if joinorder_us > 0 {
                    rec.push("joinorder", 1, plan_start, joinorder_us);
                }
                let explain = plan.explain();
                let extents = cache::footprint(&[nested, &rewrite.expr], db);
                let stamp = cache::stamp(&extents, db);
                let entry = Arc::new(CachedPlan {
                    phys: plan.phys.clone(),
                    rewrite,
                    explain,
                    extents,
                    stamp,
                });
                let planning_micros = started.elapsed().as_micros() as u64;
                shared
                    .plan_cache
                    .insert(plan_key, Arc::clone(&entry), planning_micros);
                Ok((entry, false))
            }
        }
    }

    /// The serving pipeline proper, cursor-shaped: plan-cache lookup
    /// under the canonical key, result / hoisted-`let` memoization when
    /// the server enables it, global memory admission — and then, rather
    /// than draining the pipeline, a [`ResultCursor`] the caller pulls
    /// chunk by chunk. A result-cache hit is served through the same
    /// cursor surface (its chunks replay the memoized value), so every
    /// consumer handles the two sources identically.
    fn open_expr_recorded(
        &self,
        nested: Expr,
        query: String,
        mut rec: SpanRecorder,
    ) -> Result<ResultCursor<'srv, 'db>, ServerError> {
        let server = self.server;
        let db = server.db;
        let shared = &server.shared;
        let key = oodb_translate::plan_cache_key(&nested);
        // The staleness epoch is always part of the key (constantly 0
        // when adaptive feedback is off): bumping it on a material
        // statistics update makes every pre-feedback plan unreachable.
        let epoch = shared.stats_epoch.load(Ordering::Relaxed);
        let plan_key = format!("{}\u{1f}{}\u{1f}{}", server.fingerprint, epoch, key.text);

        let (entry, plan_hit) = match self.lookup_or_plan(&nested, plan_key, &mut rec) {
            Ok(v) => v,
            Err(e) => {
                self.trace_failure(&query, rec);
                return Err(e);
            }
        };

        let mut stats = Stats::default();
        if plan_hit {
            stats.plan_cache_hits = 1;
        }

        let result_key = format!("q\u{1f}{}", key.text);
        let mut admitted = false;
        if server.config.cache_results {
            let lookup = rec.span("result_cache_lookup", || {
                shared.result_cache.lookup(&result_key, db)
            });
            if let ResultLookup::Hit(cached) = lookup {
                shared.metrics.result_hits.inc();
                // Replay the profile recorded when the value was
                // computed: a served result reports the same counters
                // and per-operator rows as the execution it replaces.
                stats.merge(&cached.profile);
                stats.result_cache_hits += 1;
                let exec_start_us = rec.elapsed_us();
                let scalar = !matches!(cached.value, Value::Set(_));
                let final_value = Some(cached.value.clone());
                return Ok(ResultCursor {
                    server,
                    query,
                    rec: Some(rec),
                    stats,
                    entry,
                    nested: Some(nested),
                    source: CursorSource::Replay { cached, next: 0 },
                    grant: None,
                    result_key,
                    admitted: false,
                    accumulate: None,
                    chunk_rows: Vec::new(),
                    scalar,
                    exec_start_us,
                    ttfb_us: None,
                    rows_streamed: 0,
                    chunks_streamed: 0,
                    finished: false,
                    final_value,
                });
            }
            admitted = matches!(lookup, ResultLookup::Admit);
            if !admitted {
                shared.metrics.result_declined.inc();
            }
            shared.metrics.result_misses.inc();
        }

        // Admission: block (FIFO-fairly) until this query's budget
        // request fits under the global cap, then execute under the
        // granted budget. The grant is an RAII lease held by the cursor
        // while it streams — released when the cursor finishes (or is
        // dropped mid-stream), waking queued queries.
        let grant = rec.span("admission", || {
            shared.pool.grant(server.config.planner.memory_budget)
        });
        let opts = ExecOptions {
            budget: grant.budget(),
            ..server.config.planner.exec_options()
        };

        let exec_start_us = rec.elapsed_us();
        let phys = if server.config.cache_results {
            match self.resolve_let_spine(&entry.phys, &entry.rewrite.expr, &mut stats, &opts) {
                Ok(p) => p,
                Err(e) => {
                    drop(grant);
                    self.trace_failure(&query, rec);
                    return Err(ServerError::Exec(e));
                }
            }
        } else {
            entry.phys.clone()
        };

        let stream = ResultStream::with_options(&phys, db, opts);
        let scalar = stream.scalar();
        Ok(ResultCursor {
            server,
            query,
            rec: Some(rec),
            stats,
            entry,
            nested: Some(nested),
            source: CursorSource::Live(Box::new(stream)),
            grant: Some(grant),
            result_key,
            admitted,
            accumulate: admitted.then(Vec::new),
            chunk_rows: Vec::new(),
            scalar,
            exec_start_us,
            ttfb_us: None,
            rows_streamed: 0,
            chunks_streamed: 0,
            finished: false,
            final_value: None,
        })
    }

    /// EXPLAIN ANALYZE through the serving front end: parses, type
    /// checks, translates, rewrites and plans `oosql_text` **fresh**,
    /// deliberately bypassing the plan and result caches (this is a
    /// diagnostic path — it must really plan and really execute), then
    /// runs the plan with per-operator timing forced on. Returns the
    /// annotated plan (EXPLAIN text with `actual_rows`/`actual_ms`/
    /// `err=` per operator, the result value, structured per-operator
    /// rows) and the execution statistics. Global memory admission
    /// still applies — an ANALYZE is a real query.
    pub fn analyze(
        &self,
        oosql_text: &str,
    ) -> Result<(oodb_engine::plan::AnalyzedPlan, Stats), ServerError> {
        let server = self.server;
        let db = server.db;
        let query = oodb_oosql::parse(oosql_text).map_err(ServerError::Parse)?;
        oodb_oosql::typecheck(&query, db.catalog()).map_err(ServerError::Type)?;
        let nested =
            oodb_translate::translate(&query, db.catalog()).map_err(ServerError::Translate)?;
        let rewrite = Optimizer
            .optimize(&nested, db.catalog())
            .map_err(ServerError::Rewrite)?;
        let plan = server
            .planner()
            .plan(&rewrite.expr)
            .map_err(ServerError::Plan)?;
        let grant = server
            .shared
            .pool
            .grant(server.config.planner.memory_budget);
        let mut stats = Stats::default();
        let analyzed = plan
            .explain_analyze(&mut stats)
            .map_err(ServerError::Exec)?;
        drop(grant);
        Ok((analyzed, stats))
    }

    /// Walks the chain of root-level `let` bindings that hoisting
    /// produces, substituting a memoized value (or executing the value
    /// subplan once, and memoizing it if the result cache admits it) for
    /// every **closed** binding. The physical and algebraic spines are
    /// walked in lockstep — closedness and cache keys come from the
    /// expression, the substitution happens in the plan — and the walk
    /// stops at the first node where they disagree, so any plan shape the
    /// planner produces stays correct (it just caches fewer bindings).
    fn resolve_let_spine(
        &self,
        plan: &PhysPlan,
        expr: &Expr,
        stats: &mut Stats,
        opts: &ExecOptions,
    ) -> Result<PhysPlan, EvalError> {
        let server = self.server;
        let db = server.db;
        let shared = &server.shared;
        if let (
            PhysPlan::LetOp { var, value, body },
            Expr::Let {
                var: evar,
                value: evalue,
                body: ebody,
            },
        ) = (plan, expr)
        {
            if var == evar && oodb_adl::free_vars(evalue).is_empty() {
                let key = format!("let\u{1f}{}", oodb_adl::normal_key(evalue));
                let memoized = match shared.result_cache.lookup(&key, db) {
                    ResultLookup::Hit(cached) => {
                        shared.metrics.result_hits.inc();
                        // Replay the binding's recorded execution profile,
                        // exactly as if the value subplan had run here.
                        stats.merge(&cached.profile);
                        stats.result_cache_hits += 1;
                        cached.value.clone()
                    }
                    miss => {
                        shared.metrics.result_misses.inc();
                        // Execute under a local `Stats` so the binding's
                        // own profile can be snapshotted for replay, then
                        // fold it into the query's counters as before.
                        let mut local = Stats::default();
                        let v = value.execute_streaming(db, &mut local, opts)?;
                        if matches!(miss, ResultLookup::Admit) {
                            let extents = cache::footprint(&[evalue], db);
                            shared.result_cache.insert(
                                key,
                                CachedResult::new(
                                    v.clone(),
                                    cache::stamp(&extents, db),
                                    local.clone(),
                                    &[],
                                ),
                            );
                        } else {
                            shared.metrics.result_declined.inc();
                        }
                        stats.merge(&local);
                        v
                    }
                };
                let body = self.resolve_let_spine(body, ebody, stats, opts)?;
                return Ok(PhysPlan::LetOp {
                    var: var.clone(),
                    value: Box::new(PhysPlan::Literal(memoized)),
                    body: Box::new(body),
                });
            }
        }
        Ok(plan.clone())
    }
}

/// Where a [`ResultCursor`]'s chunks come from: a live streaming
/// pipeline, or the replay of a shared result-cache entry in its slices
/// ([`CachedResult::slice`]), cut where the live read's chunks ended, so
/// both sources look identical to the consumer.
enum CursorSource<'db> {
    Live(Box<ResultStream<'db>>),
    /// The shared cache entry and the index of the next slice to replay.
    Replay {
        cached: Arc<CachedResult>,
        next: usize,
    },
}

/// A server-side cursor over one executing query — the session API's
/// analogue of the engine's `Operator` protocol. [`Session::open_stream`]
/// is `open`; [`ResultCursor::next_chunk`] pulls one batch at a time
/// (the first can return before the pipeline has finished, which is what
/// the wire protocol's streamed responses and TTFB metric are built on);
/// dropping the cursor is `close` — mid-stream abandonment (a client
/// disconnect) releases the admission grant and records an error trace,
/// so no pool slot leaks.
///
/// The cursor owns the whole post-planning query state: the span
/// recorder, the statistics, the admission grant, and (when the result
/// cache admitted the result) the accumulating row buffer that becomes
/// the cached value. [`ResultCursor::into_output`] drains to completion and
/// assembles the canonical [`ServerOutput`] — that is all the collect-all
/// [`Session::run`] wrapper does.
pub struct ResultCursor<'srv, 'db> {
    server: &'srv QueryServer<'db>,
    query: String,
    rec: Option<SpanRecorder>,
    stats: Stats,
    entry: Arc<CachedPlan>,
    nested: Option<Expr>,
    source: CursorSource<'db>,
    grant: Option<BudgetGrant>,
    result_key: String,
    /// Whether the result cache admitted this result: it is then
    /// accumulated and inserted at the end of the stream.
    admitted: bool,
    /// `Some` while rows must be retained (an admitted result, or a
    /// collect-all consumer); `None` on the pure streaming path — the
    /// server then never holds a whole `Vec<Value>` result.
    accumulate: Option<Vec<Value>>,
    /// The row count of each chunk pulled while `accumulate` was on: a
    /// cached replay of the result cuts its slices at these counts.
    chunk_rows: Vec<usize>,
    scalar: bool,
    exec_start_us: u64,
    ttfb_us: Option<u64>,
    rows_streamed: u64,
    chunks_streamed: u64,
    finished: bool,
    final_value: Option<Value>,
}

impl<'srv, 'db> ResultCursor<'srv, 'db> {
    /// Whether the plan's root is scalar-valued (an aggregate): the
    /// stream is then a single one-row chunk.
    pub fn scalar(&self) -> bool {
        self.scalar
    }

    /// Whether planning was served from the plan cache.
    pub fn plan_hit(&self) -> bool {
        self.stats.plan_cache_hits > 0
    }

    /// Whether the chunks replay a memoized result-cache value.
    pub fn result_hit(&self) -> bool {
        matches!(self.source, CursorSource::Replay { .. })
    }

    /// EXPLAIN rendering of the (cached or fresh) plan.
    pub fn explain(&self) -> &str {
        &self.entry.explain
    }

    /// Statistics accumulated so far; complete once the cursor finished.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Rows pulled through the cursor so far.
    pub fn rows_streamed(&self) -> u64 {
        self.rows_streamed
    }

    /// Chunks pulled through the cursor so far.
    pub fn chunks_streamed(&self) -> u64 {
        self.chunks_streamed
    }

    /// Microseconds from execution start to the first chunk, once one
    /// arrived — the server's TTFB measure.
    pub fn ttfb_us(&self) -> Option<u64> {
        self.ttfb_us
    }

    /// Whether the stream has been fully drained (or failed).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Pulls the next non-empty result chunk. `Ok(None)` marks the end
    /// of the stream — the cursor then finalizes: merges execution
    /// statistics, releases the admission grant, inserts into the result
    /// cache (when it admitted the result), and records the query's
    /// trace and metrics.
    /// An `Err` finalizes likewise (as an error trace) and the cursor
    /// yields nothing further.
    pub fn next_chunk(&mut self) -> Result<Option<Batch>, ServerError> {
        if self.finished {
            return Ok(None);
        }
        let mut batch = None;
        let pulled = match &mut self.source {
            CursorSource::Live(stream) => stream.next_chunk().map(|b| {
                batch = b;
                batch.as_ref().map(Batch::len)
            }),
            CursorSource::Replay { cached, next } => Ok(cached.slice(*next).map(|rows| {
                *next += 1;
                batch = Some(Batch::from_rows(rows.to_vec()));
                rows.len()
            })),
        };
        self.settle(pulled)?;
        if let (Some(b), Some(acc)) = (&batch, &mut self.accumulate) {
            acc.extend(b.clone().into_values());
        }
        Ok(batch)
    }

    /// The wire protocol's [`ResultCursor::next_chunk`]: appends the
    /// next chunk to `out` as a CHUNK frame tagged `tag` and returns
    /// whether there was one. A live chunk is encoded as it is pulled;
    /// a result-cache hit copies its entry's encoded slice
    /// ([`CachedResult::chunk_body`]) and builds no batch. Counters,
    /// traces and finalization are those of `next_chunk`.
    pub fn next_chunk_frame(&mut self, tag: u32, out: &mut Vec<u8>) -> Result<bool, ServerError> {
        if self.finished {
            return Ok(false);
        }
        let metrics = &self.server.shared.metrics;
        let accumulate = &mut self.accumulate;
        let pulled = match &mut self.source {
            CursorSource::Live(stream) => stream.next_chunk().map(|b| {
                b.map(|batch| {
                    let len = wire::push_frame(out, tag, wire::kind::CHUNK, |body| {
                        wire::encode_chunk(&batch, body)
                    });
                    metrics.streamed_bytes.add(len as u64);
                    let rows = batch.len();
                    if let Some(acc) = accumulate {
                        acc.extend(batch.into_values());
                    }
                    rows
                })
            }),
            CursorSource::Replay { cached, next } => {
                Ok(cached.chunk_body(*next).map(|(rows, body)| {
                    *next += 1;
                    let len = wire::push_frame(out, tag, wire::kind::CHUNK, |b| {
                        b.extend_from_slice(body)
                    });
                    metrics.streamed_bytes.add(len as u64);
                    metrics.wire_cached_chunks.inc();
                    rows
                }))
            }
        };
        self.settle(pulled)
    }

    /// Bookkeeping shared by every way of pulling a chunk. `pulled` is
    /// the row count of the chunk just handed out, `None` at the end of
    /// the stream, or the pipeline's error; the cursor counts the chunk
    /// (TTFB on the first) or finalizes.
    fn settle(&mut self, pulled: Result<Option<usize>, EvalError>) -> Result<bool, ServerError> {
        match pulled {
            Ok(Some(rows)) => {
                if self.ttfb_us.is_none() {
                    let now = self.rec.as_ref().map_or(0, SpanRecorder::elapsed_us);
                    let ttfb = now.saturating_sub(self.exec_start_us);
                    self.ttfb_us = Some(ttfb);
                    self.server.shared.metrics.ttfb.observe_us(ttfb);
                }
                self.rows_streamed += rows as u64;
                self.chunks_streamed += 1;
                if self.accumulate.is_some() {
                    self.chunk_rows.push(rows);
                }
                self.server.shared.metrics.streamed_chunks.inc();
                Ok(true)
            }
            Ok(None) => {
                self.finish_success();
                Ok(false)
            }
            Err(e) => {
                self.finish_error();
                Err(ServerError::Exec(e))
            }
        }
    }

    /// Drains the remaining chunks and assembles the canonical
    /// collect-all output (the result value, deduplicated exactly as
    /// the library pipeline would). A result the cache declined is
    /// assembled all the same, but not inserted.
    pub fn into_output(mut self) -> Result<ServerOutput, ServerError> {
        if self.final_value.is_none() && !self.finished && self.accumulate.is_none() {
            self.accumulate = Some(Vec::new());
        }
        while self.next_chunk()?.is_some() {}
        let nested = self.nested.take().expect("cursor consumed once");
        Ok(ServerOutput {
            nested,
            rewrite: self.entry.rewrite.clone(),
            result: self
                .final_value
                .take()
                .expect("finished cursor has a value"),
            explain: self.entry.explain.clone(),
            stats: self.stats.clone(),
        })
    }

    /// End-of-stream housekeeping for the success path.
    fn finish_success(&mut self) {
        self.finished = true;
        let server = self.server;
        let shared = &server.shared;
        match &mut self.source {
            CursorSource::Live(stream) => {
                stream.close();
                self.stats.merge(stream.stats());
                let now = self.rec.as_ref().map_or(0, SpanRecorder::elapsed_us);
                if let Some(rec) = &mut self.rec {
                    rec.push("execute", 0, self.exec_start_us, now - self.exec_start_us);
                    if let Some(ttfb) = self.ttfb_us {
                        rec.push("first_chunk", 1, self.exec_start_us, ttfb);
                    }
                }
                self.grant = None;
                if let Some(rows) = self.accumulate.take() {
                    // Assemble the canonical value exactly as the
                    // engine's collect-all path would: scalars pass
                    // through, everything else becomes a deduplicating
                    // set (so `output_rows` counts distinct results).
                    let value = if self.scalar {
                        rows.into_iter().next().unwrap_or(Value::Null)
                    } else {
                        Value::Set(Set::from_values(rows))
                    };
                    if let Value::Set(s) = &value {
                        self.stats.output_rows += s.len() as u64;
                    }
                    if self.admitted {
                        // Snapshot the profile with the cache-hit
                        // counters zeroed: a future hit adds its own,
                        // and replay must report exactly what executing
                        // again would have.
                        let mut profile = self.stats.clone();
                        profile.plan_cache_hits = 0;
                        profile.result_cache_hits = 0;
                        shared.result_cache.insert(
                            self.result_key.clone(),
                            CachedResult::new(
                                value.clone(),
                                cache::stamp(&self.entry.extents, server.db),
                                profile,
                                &self.chunk_rows,
                            ),
                        );
                    }
                    self.final_value = Some(value);
                } else {
                    // Pure streaming: rows left as they were pulled (a
                    // consumer that needs set semantics deduplicates on
                    // its side); the counter reports what was streamed.
                    self.stats.output_rows += self.rows_streamed;
                }
                if server.config.adaptive_stats {
                    let profile = self.stats.operator_rows_by_label();
                    let mut guard = shared.adaptive.lock().unwrap();
                    let acc = guard.get_or_insert_with(|| server.stats.clone());
                    let material =
                        acc.absorb_observed(profile.iter().map(|(l, r)| (l.as_str(), *r)));
                    if material {
                        shared.stats_epoch.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            CursorSource::Replay { .. } => {
                // The replayed profile was merged when the cursor
                // opened; nothing executed here.
            }
        }
        self.record_trace(false);
    }

    /// End-of-stream housekeeping for the failure path (an execution
    /// error, or a dropped cursor): close the pipeline, release the
    /// grant, record an error trace.
    fn finish_error(&mut self) {
        self.finished = true;
        if let CursorSource::Live(stream) = &mut self.source {
            stream.close();
            self.stats.merge(stream.stats());
        }
        self.grant = None;
        self.record_trace(true);
    }

    /// Folds the finished query into the observability state: latency
    /// histogram and counters, and a trace in the recent-trace ring —
    /// also in the slow-query log (EXPLAIN text retained) when
    /// end-to-end latency reached [`ServerConfig::slow_query_ms`].
    fn record_trace(&mut self, error: bool) {
        let Some(rec) = self.rec.take() else { return };
        let shared = &self.server.shared;
        let m = &shared.metrics;
        m.queries.inc();
        let elapsed_us = rec.elapsed_us();
        m.latency.observe_us(elapsed_us);
        let trace = if error {
            m.query_errors.inc();
            rec.finish(&self.query, true)
        } else {
            m.spill_bytes.add(self.stats.spill_bytes);
            m.rows_out.add(self.stats.output_rows);
            let mut t = rec.finish(&self.query, false);
            t.explain = Some(self.entry.explain.clone());
            t
        };
        let slow = elapsed_us / 1000 >= shared.slow_query_ms;
        shared.traces.record(trace, slow);
    }
}

impl Drop for ResultCursor<'_, '_> {
    fn drop(&mut self) {
        if !self.finished {
            // Abandoned mid-stream (client disconnect, consumer error):
            // close the pipeline, free the pool slot, trace as an error.
            self.finish_error();
        }
    }
}

/// Everything one serving-path query produced — field-for-field the
/// library pipeline's output, so the facade can route through the
/// server transparently.
#[derive(Debug)]
pub struct ServerOutput {
    /// The nested ADL translation of the query.
    pub nested: Expr,
    /// Optimizer output (from the cache on plan hits — identical to
    /// what a fresh rewrite would produce, since the entry's stamp
    /// guarantees nothing it depends on changed).
    pub rewrite: Optimized,
    /// The query result (always a set value).
    pub result: Value,
    /// EXPLAIN rendering of the executed plan.
    pub explain: String,
    /// Execution statistics; `plan_cache_hits` / `result_cache_hits`
    /// report what the serving layer skipped.
    pub stats: Stats,
}

/// Union of the per-phase error types, mirroring the facade's
/// `PipelineError` so the two paths stay interchangeable.
#[derive(Debug)]
pub enum ServerError {
    /// Lexing/parsing failed.
    Parse(oodb_oosql::ParseError),
    /// The query does not type check against the catalog.
    Type(oodb_oosql::TypeError),
    /// Translation to ADL failed.
    Translate(oodb_translate::TranslateError),
    /// A rewrite rule misfired (internal invariant violation).
    Rewrite(oodb_core::RewriteError),
    /// Physical planning failed.
    Plan(oodb_engine::plan::PlanError),
    /// Execution failed.
    Exec(EvalError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Parse(e) => write!(f, "parse error: {e}"),
            ServerError::Type(e) => write!(f, "type error: {e}"),
            ServerError::Translate(e) => write!(f, "translation error: {e}"),
            ServerError::Rewrite(e) => write!(f, "rewrite error: {e}"),
            ServerError::Plan(e) => write!(f, "planning error: {e}"),
            ServerError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Stable numeric wire error codes — the protocol-level identity of
/// every failure the server can report, carried as the `u16` of the
/// ERROR frame. Codes are append-only: 1–9 are protocol-level
/// (no query ever ran), 10–19 are the query-compilation phases, 20+ are
/// execution failures (one code per [`EvalError`] variant, so a client
/// can distinguish, say, a dangling pointer from a spill I/O failure
/// without parsing the message).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request frame could not be decoded (bad length, bad UTF-8).
    Malformed = 1,
    /// The request verb byte names no known verb.
    UnknownVerb = 2,
    /// Lexing/parsing failed.
    Parse = 10,
    /// The query does not type check.
    Type = 11,
    /// Translation to ADL failed.
    Translate = 12,
    /// A rewrite rule misfired.
    Rewrite = 13,
    /// Physical planning failed.
    Plan = 14,
    /// Execution failed (unclassified).
    Exec = 20,
    /// Dynamic value-level execution error.
    ExecValue = 21,
    /// Unbound variable at runtime.
    ExecUnboundVar = 22,
    /// Unknown base table.
    ExecUnknownTable = 23,
    /// Unknown class in a deref.
    ExecUnknownClass = 24,
    /// A pointer named no object.
    ExecDanglingPointer = 25,
    /// Division operands violated the schema condition.
    ExecBadDivision = 26,
    /// `NULL` reached a non-null-aware operator.
    ExecNullNotAllowed = 27,
    /// An index join found no secondary index.
    ExecMissingIndex = 28,
    /// A streaming operator was driven through an illegal transition.
    ExecOperatorProtocol = 29,
    /// Spill-file I/O failed.
    ExecIo = 30,
}

impl ErrorCode {
    /// The numeric wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire code back to the enum; unknown codes (from a
    /// newer server) map to `None` so clients degrade gracefully.
    pub fn from_u16(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownVerb,
            10 => ErrorCode::Parse,
            11 => ErrorCode::Type,
            12 => ErrorCode::Translate,
            13 => ErrorCode::Rewrite,
            14 => ErrorCode::Plan,
            20 => ErrorCode::Exec,
            21 => ErrorCode::ExecValue,
            22 => ErrorCode::ExecUnboundVar,
            23 => ErrorCode::ExecUnknownTable,
            24 => ErrorCode::ExecUnknownClass,
            25 => ErrorCode::ExecDanglingPointer,
            26 => ErrorCode::ExecBadDivision,
            27 => ErrorCode::ExecNullNotAllowed,
            28 => ErrorCode::ExecMissingIndex,
            29 => ErrorCode::ExecOperatorProtocol,
            30 => ErrorCode::ExecIo,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_u16())
    }
}

impl ServerError {
    /// The stable wire code of this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServerError::Parse(_) => ErrorCode::Parse,
            ServerError::Type(_) => ErrorCode::Type,
            ServerError::Translate(_) => ErrorCode::Translate,
            ServerError::Rewrite(_) => ErrorCode::Rewrite,
            ServerError::Plan(_) => ErrorCode::Plan,
            ServerError::Exec(e) => match e {
                EvalError::Value(_) => ErrorCode::ExecValue,
                EvalError::UnboundVar(_) => ErrorCode::ExecUnboundVar,
                EvalError::UnknownTable(_) => ErrorCode::ExecUnknownTable,
                EvalError::UnknownClass(_) => ErrorCode::ExecUnknownClass,
                EvalError::DanglingPointer { .. } => ErrorCode::ExecDanglingPointer,
                EvalError::BadDivision(_) => ErrorCode::ExecBadDivision,
                EvalError::NullNotAllowed(_) => ErrorCode::ExecNullNotAllowed,
                EvalError::MissingIndex { .. } => ErrorCode::ExecMissingIndex,
                EvalError::OperatorProtocol(_) => ErrorCode::ExecOperatorProtocol,
                EvalError::Io { .. } => ErrorCode::ExecIo,
            },
        }
    }
}
