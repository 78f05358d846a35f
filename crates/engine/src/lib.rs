//! # Execution engine: tuple-oriented baseline + set-oriented operators
//!
//! Two execution paths for ADL expressions (the comparison at the heart of
//! *From Nested-Loop to Join Queries in OODB*):
//!
//! * [`eval::Evaluator`] — the **reference nested-loop interpreter**:
//!   every operator executed from its §3 definition, iterators re-running
//!   their parameter expressions per element. This is the tuple-oriented
//!   baseline the paper argues against.
//! * [`plan::Planner`] + [`physical::PhysPlan`] — **set-oriented
//!   execution**: hash / sort-merge / membership-hash joins, semijoins,
//!   antijoins, index nested-loop joins and the nestjoin `⊣` (§6.1, which
//!   also runs §6.2's materialization once the rewriter has unnested it),
//!   with statistics that expose the work profile ([`stats::Stats`]).
//!
//! Physical operators are property-tested to agree with the reference
//! evaluator on arbitrary inputs — same answers, different asymptotics.

pub mod bound;
pub mod cost;
pub mod eval;
pub mod joinorder;
pub mod physical;
pub mod plan;
pub mod pool;
pub mod stats;

pub use cost::{CostModel, Estimate};
pub use eval::{Env, EvalError, Evaluator};
// The external-memory subsystem's budget handle, re-exported so callers
// configuring `PlannerConfig::memory_budget` (or running plans under an
// explicit budget) need not depend on `oodb-spill` directly.
pub use oodb_spill::{MemoryBudget, SpillManager, SpillMetrics};
// The batch layout selector, re-exported so callers configuring
// `PlannerConfig::batch_kind` need not depend on `oodb-value` paths.
pub use oodb_value::BatchKind;
pub use physical::operator::{ExecOptions, ResultStream, BATCH_SIZE};
pub use physical::{Partitioning, PhysPlan};
pub use plan::{JoinAlgo, JoinOrder, Plan, PlanError, Planner, PlannerConfig};
pub use pool::WorkerPool;
pub use stats::Stats;
