//! Class catalog and object store for the OODB reproduction.
//!
//! The paper's mapping of OOSQL types to ADL (§3): *"each class extension
//! is mapped to a table of (possibly complex) objects; a field of type oid
//! is added to represent object identity, and class references are
//! implemented by pointers, also of type oid"*. Analogous to relational
//! convention, class extensions are called **base tables** (§2).
//!
//! This crate provides
//! * [`ClassDef`] — structural class definitions (name, extent, attributes,
//!   identity field);
//! * [`Catalog`] — the schema: classes indexed by class name and by extent
//!   name;
//! * [`Table`] — an extent: tuples plus an oid → row index (the *physical
//!   pointer* map every `deref` of §6.2's materialization goes through),
//!   secondary hash indexes, and an element → owners index on every
//!   set-of-oid attribute;
//! * [`Database`] — catalog plus populated extents;
//! * [`fixtures`] — the paper's supplier–part database (§2) and the exact
//!   example tables of Figures 1–3.

pub mod class;
pub mod database;
pub mod error;
pub mod fixtures;
pub mod stats;
pub mod table;

pub use class::ClassDef;
pub use database::{Catalog, Database};
pub use error::CatalogError;
pub use stats::{AttrStats, CatalogStats, StatsCollector, TableStats};
pub use table::{OwnerIndex, SnapshotWork, Table};
