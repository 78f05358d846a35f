//! # oodb — From Nested-Loop to Join Queries in OODB
//!
//! A full reproduction of Steenhagen, Apers, Blanken & de By,
//! *From Nested-Loop to Join Queries in OODB*, VLDB 1994 (pp. 618–629):
//! the OOSQL query language, the ADL complex object algebra, the
//! unnesting/rewrite strategy that turns nested (tuple-oriented) queries
//! into join (set-oriented) queries, and an execution engine with the
//! physical operators the paper discusses (hash join, semijoin, antijoin,
//! nestjoin, index nested-loop join).
//!
//! This facade crate re-exports the member crates and offers [`Pipeline`],
//! a one-call parse → typecheck → translate → optimize → execute API.
//!
//! ```
//! use oodb::Pipeline;
//!
//! let db = oodb::catalog::fixtures::supplier_part_db();
//! let pipeline = Pipeline::new(&db);
//! let out = pipeline
//!     .run("select s.sname from s in SUPPLIER where exists p in PART : \
//!           p.pid in s.parts and p.color = \"red\"")
//!     .unwrap();
//! assert!(!out.rewrite.trace.is_empty()); // the semijoin rewrite fired
//! ```

pub use oodb_adl as adl;
pub use oodb_catalog as catalog;
pub use oodb_core as core;
pub use oodb_datagen as datagen;
pub use oodb_engine as engine;
pub use oodb_obs as obs;
pub use oodb_oosql as oosql;
pub use oodb_server as server;
pub use oodb_translate as translate;
pub use oodb_value as value;

use oodb_adl::expr::Expr;
use oodb_catalog::Database;
use oodb_core::strategy::Optimized;
use oodb_engine::eval::Evaluator;
use oodb_engine::plan::PlannerConfig;
use oodb_engine::stats::Stats;
use oodb_server::{QueryServer, ServerConfig, ServerError};
use oodb_value::Value;

/// Everything the pipeline produced for one query, from source text to
/// result set.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The nested ADL expression the translator produced (§3: an sfw block
    /// maps to `α[x : e₁](σ[x : e₃](e₂))`).
    pub nested: Expr,
    /// The optimizer result: rewritten expression plus rule trace.
    pub rewrite: Optimized,
    /// The query result (always a set value).
    pub result: Value,
    /// EXPLAIN rendering of the executed physical plan; each operator
    /// line carries `est_rows`/`est_cost` annotations.
    pub explain: String,
    /// Operator statistics from executing the **optimized** plan —
    /// including per-operator rows/batches from the streaming pipeline
    /// (see [`oodb_engine::stats::OpStats`]); `plan_cache_hits` /
    /// `result_cache_hits` report when a repeat of an earlier query
    /// skipped planning or execution.
    pub stats: Stats,
}

/// One-call façade over the full query processing pipeline.
pub struct Pipeline<'db> {
    db: &'db Database,
    /// The serving path every [`Pipeline::run`] goes through: plan and
    /// result caches, shared-pool admission, and the catalog statistics
    /// collected once at construction — `run` in a loop must not re-scan
    /// the database per query. Owned, so each pipeline (and hence each
    /// planner configuration) has caches of its own.
    server: QueryServer<'db>,
}

impl<'db> Pipeline<'db> {
    /// A pipeline bound to a database (schema + extents), planning with
    /// the default configuration (cost-based).
    pub fn new(db: &'db Database) -> Self {
        Pipeline::with_config(db, PlannerConfig::default())
    }

    /// A pipeline with an explicit planner configuration — how the
    /// differential planner-grid suite forces every physical strategy
    /// through the same front end. `PlannerConfig::parallelism` is the
    /// pipeline's threading knob: it defaults to the machine's
    /// available parallelism (`OODB_PARALLELISM` overrides it), `1`
    /// preserves the exact serial pipeline, and any setting returns
    /// canonical-set-identical results (see the README's threading
    /// model section). `PlannerConfig::memory_budget` bounds pipeline
    /// state in bytes (`OODB_MEMORY_BUDGET` supplies the default, `0`
    /// = unbounded): oversized hash and member builds run as grace
    /// hash joins (§6.2's materialization among them, as a membership
    /// nestjoin) and sorts go external — same results, different
    /// residency (see the README's memory-budget section).
    pub fn with_config(db: &'db Database, config: PlannerConfig) -> Self {
        let config = ServerConfig {
            planner: config,
            ..ServerConfig::default()
        };
        Pipeline {
            db,
            server: QueryServer::with_config(db, config),
        }
    }

    /// Parses, type checks, translates, optimizes and executes an OOSQL
    /// query through the **streaming operator pipeline**, returning
    /// every intermediate artifact. This *is* a session of the
    /// pipeline's own [`QueryServer`]: a repeat of an earlier query is
    /// served from its caches with identical results and operator
    /// profile.
    pub fn run(&self, oosql_text: &str) -> Result<PipelineOutput, PipelineError> {
        let out = self.server.session().run(oosql_text)?;
        Ok(PipelineOutput {
            nested: out.nested,
            rewrite: out.rewrite,
            result: out.result,
            explain: out.explain,
            stats: out.stats,
        })
    }

    /// Executes the *unoptimized* nested translation with the reference
    /// nested-loop evaluator — the baseline the paper argues against.
    pub fn run_naive(&self, oosql_text: &str) -> Result<Value, PipelineError> {
        let query = oodb_oosql::parse(oosql_text).map_err(PipelineError::Parse)?;
        oodb_oosql::typecheck(&query, self.db.catalog()).map_err(PipelineError::Type)?;
        let nested = oodb_translate::translate(&query, self.db.catalog())
            .map_err(PipelineError::Translate)?;
        Evaluator::new(self.db)
            .eval_closed(&nested)
            .map_err(PipelineError::Exec)
    }
}

/// Union of the per-phase error types.
#[derive(Debug)]
pub enum PipelineError {
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
    Exec(oodb_engine::eval::EvalError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::Type(e) => write!(f, "type error: {e}"),
            PipelineError::Translate(e) => write!(f, "translation error: {e}"),
            PipelineError::Rewrite(e) => write!(f, "rewrite error: {e}"),
            PipelineError::Plan(e) => write!(f, "planning error: {e}"),
            PipelineError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ServerError> for PipelineError {
    fn from(e: ServerError) -> Self {
        match e {
            ServerError::Parse(e) => PipelineError::Parse(e),
            ServerError::Type(e) => PipelineError::Type(e),
            ServerError::Translate(e) => PipelineError::Translate(e),
            ServerError::Rewrite(e) => PipelineError::Rewrite(e),
            ServerError::Plan(e) => PipelineError::Plan(e),
            ServerError::Exec(e) => PipelineError::Exec(e),
        }
    }
}
