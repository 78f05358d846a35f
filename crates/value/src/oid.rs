//! Object identity.
//!
//! The basic type `oid` is used to represent object identity (paper §3). In
//! the logical database design each class extension is mapped to a table of
//! (possibly complex) objects; a field of type `oid` is added to represent
//! object identity, and class references are implemented by pointers, also
//! of type `oid`.
//!
//! Oids here are plain 64-bit integers: the catalog maintains the
//! oid → row index maps that make them *physical* pointers, so a
//! dereference is one hash lookup (`oodb_catalog::Database::deref`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// An object identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Oid(pub u64);

impl Oid {
    /// The raw identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A monotonically increasing oid source.
///
/// Thread-safe so parallel loaders can share one generator; deterministic
/// given a fixed allocation order (the datagen crate allocates from a fresh
/// generator per database, so generated databases are reproducible).
#[derive(Debug)]
pub struct OidGenerator {
    next: AtomicU64,
}

impl OidGenerator {
    /// A generator starting at oid `@1` (`@0` is reserved as a null-ish
    /// sentinel that never names an object).
    pub fn new() -> Self {
        OidGenerator {
            next: AtomicU64::new(1),
        }
    }

    /// A generator whose first handed-out oid is `start`.
    pub fn starting_at(start: u64) -> Self {
        OidGenerator {
            next: AtomicU64::new(start),
        }
    }

    /// Allocates a fresh oid.
    pub fn fresh(&self) -> Oid {
        Oid(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// The next oid that would be handed out (for snapshot/restore).
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

impl Default for OidGenerator {
    fn default() -> Self {
        OidGenerator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_oids_are_distinct_and_increasing() {
        let g = OidGenerator::new();
        let a = g.fresh();
        let b = g.fresh();
        assert!(a < b);
        assert_ne!(a, b);
        assert_eq!(a, Oid(1));
    }

    #[test]
    fn starting_at_controls_first_oid() {
        let g = OidGenerator::starting_at(100);
        assert_eq!(g.fresh(), Oid(100));
        assert_eq!(g.peek(), 101);
    }

    #[test]
    fn display_uses_at_sign() {
        assert_eq!(Oid(17).to_string(), "@17");
    }
}
