//! Complex object values and types for the ADL algebra of
//! *From Nested-Loop to Join Queries in OODB* (Steenhagen, Apers, Blanken,
//! de By; VLDB 1994).
//!
//! ADL is a typed algebra for complex objects in the style of the NF²
//! algebra: among the constructors supported are the tuple (`⟨⟩`) and set
//! (`{}`) type constructors, and the basic type `oid` is used to represent
//! object identity (paper, §3). This crate provides exactly that data
//! model:
//!
//! * [`Value`] — runtime values: booleans, integers, floats, strings,
//!   dates, object identifiers, tuples and sets;
//! * [`Tuple`] — field-name → value records with the paper's tuple
//!   operations: subscription `e[a₁,…,aₙ]`, update/extension `except`, and
//!   concatenation `∘`;
//! * [`Set`] — order-canonical sets (sorted, duplicate free) so that value
//!   equality and hashing are structural, which set-oriented join operators
//!   depend on;
//! * [`Type`] / [`TupleType`] — the type language, including the schema
//!   function `SCH` that, applied to a table type, delivers the top-level
//!   attribute names;
//! * [`fxhash`] — a small, fast, deterministic hasher used for hash joins
//!   (oid and integer keys dominate join columns).
//!
//! Everything is deterministic and `Ord`-ered so query results can be
//! compared structurally in tests and property checks.

pub mod batch;
pub mod codec;
pub mod error;
pub mod float;
pub mod fxhash;
pub mod oid;
pub mod set;
pub mod tuple;
pub mod types;
pub mod value;

pub use batch::{Batch, BatchKind, Column, ColumnView, ColumnarBatch};
pub use error::ValueError;
pub use float::F64;
pub use oid::{Oid, OidGenerator};
pub use set::Set;
pub use tuple::Tuple;
pub use types::{TupleType, Type};
pub use value::{ArithOp, CmpOp, SetCmpOp, Value};

use std::sync::Arc;

/// Interned-ish attribute / class / variable name.
///
/// `Arc<str>` keeps clones cheap; names are small and shared across plans.
pub type Name = Arc<str>;

/// Convenience constructor for [`Name`].
pub fn name(s: &str) -> Name {
    Arc::from(s)
}
