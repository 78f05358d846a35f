//! Order-canonical sets of complex values.
//!
//! ADL tables and set-valued attributes are sets, not bags: duplicate
//! elimination is part of the algebra's semantics (projection, map and
//! union all deduplicate). [`Set`] keeps elements **sorted and unique**, so
//!
//! * `Eq`, `Ord` and `Hash` are structural (two sets with the same members
//!   are the same value, regardless of construction order), and
//! * membership and the set-comparison operators `⊂ ⊆ = ⊇ ⊃` are
//!   logarithmic/linear merges rather than quadratic scans.

use crate::{Value, ValueError};
use std::fmt;
use std::sync::Arc;

/// A set of [`Value`]s with canonical (sorted, deduplicated) storage.
///
/// The elements live behind an [`Arc`], so `clone` is a reference-count
/// bump and a cached or scanned set is shared, not copied. Sets are
/// immutable; the set operations build new ones.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Set {
    elems: Arc<[Value]>,
}

impl Set {
    /// The empty set `∅`.
    pub fn empty() -> Self {
        Set::default()
    }

    /// Builds a set from arbitrary (unsorted, possibly duplicated) values.
    pub fn from_values(mut elems: Vec<Value>) -> Self {
        elems.sort();
        elems.dedup();
        Set {
            elems: elems.into(),
        }
    }

    /// Builds a set from elements in canonical (strictly increasing)
    /// order, checked in one pass and never sorted; `None` when they are
    /// out of order or repeat one. For producers that sort and dedupe on
    /// their own, such as a merge of sorted runs.
    pub fn from_sorted(elems: Vec<Value>) -> Option<Self> {
        elems.windows(2).all(|w| w[0] < w[1]).then(|| Set {
            elems: elems.into(),
        })
    }

    /// Builds a set from elements already in canonical (strictly
    /// increasing) order — the codec's path, which checks the order it
    /// reads. Debug builds verify the invariant.
    pub(crate) fn from_sorted_unchecked(elems: Arc<[Value]>) -> Self {
        debug_assert!(
            elems.windows(2).all(|w| w[0] < w[1]),
            "elements must be sorted and unique"
        );
        Set { elems }
    }

    /// A singleton set.
    pub fn singleton(v: Value) -> Self {
        Set {
            elems: Arc::new([v]),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True for `∅`.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Membership test `v ∈ self`.
    pub fn contains(&self, v: &Value) -> bool {
        self.elems.binary_search(v).is_ok()
    }

    /// Iterates elements in canonical order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.elems.iter()
    }

    /// The elements as a slice (canonical order).
    pub fn as_slice(&self) -> &[Value] {
        &self.elems
    }

    /// The elements in canonical order, as an owned vector. The storage
    /// may be shared, so each element is cloned (a reference-count bump
    /// for nested values); callers that only iterate read [`Set::as_slice`].
    pub fn into_values(self) -> Vec<Value> {
        self.elems.to_vec()
    }

    /// Set union `self ∪ other` (linear merge).
    pub fn union(&self, other: &Set) -> Set {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.elems.len() && j < other.elems.len() {
            match self.elems[i].cmp(&other.elems[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.elems[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.elems[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.elems[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.elems[i..]);
        out.extend_from_slice(&other.elems[j..]);
        Set { elems: out.into() }
    }

    /// Set union `self ∪ other` for an `other` much smaller than `self`:
    /// each element of `other` is placed by binary search in what is left
    /// of `self`, and the runs of `self` between them are copied as
    /// slices — O(k log n) comparisons instead of [`Set::union`]'s n + k.
    pub fn union_small(&self, other: &Set) -> Set {
        if self.is_empty() {
            return other.clone();
        }
        let mut out = Vec::with_capacity(self.len() + other.len());
        let mut rest: &[Value] = &self.elems;
        for v in other.iter() {
            let (copy, skip) = match rest.binary_search(v) {
                Ok(i) => (i, 1),
                Err(i) => (i, 0),
            };
            out.extend_from_slice(&rest[..copy]);
            out.push(v.clone());
            rest = &rest[copy + skip..];
        }
        out.extend_from_slice(rest);
        Set::from_sorted_unchecked(out.into())
    }

    /// Set intersection `self ∩ other`.
    pub fn intersect(&self, other: &Set) -> Set {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        Set {
            elems: small
                .elems
                .iter()
                .filter(|v| large.contains(v))
                .cloned()
                .collect(),
        }
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &Set) -> Set {
        Set {
            elems: self
                .elems
                .iter()
                .filter(|v| !other.contains(v))
                .cloned()
                .collect(),
        }
    }

    /// `self ⊆ other`.
    pub fn subset_eq(&self, other: &Set) -> bool {
        if self.len() > other.len() {
            return false;
        }
        self.elems.iter().all(|v| other.contains(v))
    }

    /// `self ⊂ other` (proper subset).
    pub fn subset(&self, other: &Set) -> bool {
        self.len() < other.len() && self.subset_eq(other)
    }

    /// `self ⊇ other`.
    pub fn superset_eq(&self, other: &Set) -> bool {
        other.subset_eq(self)
    }

    /// `self ⊃ other` (proper superset).
    pub fn superset(&self, other: &Set) -> bool {
        other.subset(self)
    }

    /// Multiple union / `flatten` `⋃(e) = {z | z ∈ X ∧ X ∈ e}`
    /// (paper §3 def. 1). Every element of `self` must itself be a set.
    pub fn flatten(&self) -> Result<Set, ValueError> {
        let mut out = Vec::new();
        for v in self.elems.iter() {
            match v {
                Value::Set(inner) => out.extend(inner.elems.iter().cloned()),
                other => return Err(ValueError::NotASet(other.to_string())),
            }
        }
        Ok(Set::from_values(out))
    }
}

impl FromIterator<Value> for Set {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Set::from_values(iter.into_iter().collect())
    }
}

impl IntoIterator for Set {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_values().into_iter()
    }
}

impl<'a> IntoIterator for &'a Set {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.elems.iter()
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vs: &[i64]) -> Set {
        Set::from_values(vs.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        assert_eq!(ints(&[3, 1, 2, 1, 3]), ints(&[1, 2, 3]));
        assert_eq!(ints(&[3, 1, 2, 1]).len(), 3);
    }

    #[test]
    fn from_sorted_checks_strict_order() {
        let vals = |vs: &[i64]| vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>();
        assert_eq!(Set::from_sorted(vals(&[1, 2, 3])), Some(ints(&[1, 2, 3])));
        assert_eq!(Set::from_sorted(Vec::new()), Some(Set::empty()));
        assert_eq!(Set::from_sorted(vals(&[1, 2, 2])), None);
        assert_eq!(Set::from_sorted(vals(&[2, 1])), None);
    }

    #[test]
    fn membership_and_insert() {
        // sets are immutable: "insert" is a union with a singleton, and
        // the source set is left as it was
        let s = ints(&[1, 3]);
        assert!(s.contains(&Value::Int(1)));
        assert!(!s.contains(&Value::Int(2)));
        let t = s.union(&Set::singleton(Value::Int(2)));
        assert_eq!(t, ints(&[1, 2, 3]));
        assert_eq!(t.union(&Set::singleton(Value::Int(2))), t);
        assert_eq!(s, ints(&[1, 3]));
    }

    #[test]
    fn union_intersect_difference() {
        let a = ints(&[1, 2, 3]);
        let b = ints(&[2, 3, 4]);
        assert_eq!(a.union(&b), ints(&[1, 2, 3, 4]));
        assert_eq!(a.intersect(&b), ints(&[2, 3]));
        assert_eq!(a.difference(&b), ints(&[1]));
        assert_eq!(b.difference(&a), ints(&[4]));
    }

    #[test]
    fn union_small_equals_union() {
        let big = ints(&(0..40).map(|i| 3 * i).collect::<Vec<_>>());
        for small in [
            ints(&[]),
            ints(&[-1]),
            ints(&[200]),
            ints(&[-5, 4, 9, 61, 62, 500]),
            ints(&[0, 3, 117]),
        ] {
            assert_eq!(big.union_small(&small), big.union(&small), "{small:?}");
            assert_eq!(small.union_small(&big), big.union(&small), "{small:?}");
        }
    }

    #[test]
    fn subset_family() {
        let a = ints(&[1, 2]);
        let b = ints(&[1, 2, 3]);
        assert!(a.subset_eq(&b));
        assert!(a.subset(&b));
        assert!(!b.subset(&a));
        assert!(b.superset(&a));
        assert!(b.superset_eq(&b));
        assert!(!b.superset(&b));
        // ∅ relationships — these drive Table 3 of the paper
        let empty = Set::empty();
        assert!(empty.subset_eq(&a));
        assert!(empty.subset(&a));
        assert!(!empty.subset(&empty));
        assert!(empty.subset_eq(&empty));
    }

    #[test]
    fn flatten_is_multiple_union() {
        let nested = Set::from_values(vec![
            Value::Set(ints(&[1, 2])),
            Value::Set(ints(&[2, 3])),
            Value::Set(Set::empty()),
        ]);
        assert_eq!(nested.flatten().unwrap(), ints(&[1, 2, 3]));
    }

    #[test]
    fn flatten_rejects_non_set_elements() {
        let bad = Set::from_values(vec![Value::Int(1)]);
        assert!(matches!(bad.flatten(), Err(ValueError::NotASet(_))));
    }

    #[test]
    fn display_canonical() {
        assert_eq!(ints(&[2, 1]).to_string(), "{1, 2}");
        assert_eq!(Set::empty().to_string(), "{}");
    }

    #[test]
    fn clone_shares_storage() {
        let a = ints(&[1, 2, 3]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.elems, &b.elems));
    }

    #[test]
    fn operations_leave_shared_inputs_untouched() {
        let a = ints(&[1, 2, 3]);
        let alias = a.clone();
        let b = ints(&[3, 4]);
        assert_eq!(a.union(&b), ints(&[1, 2, 3, 4]));
        assert_eq!(a.intersect(&b), ints(&[3]));
        assert_eq!(a.difference(&b), ints(&[1, 2]));
        assert_eq!(a.clone().into_values().len(), 3);
        assert_eq!(a, ints(&[1, 2, 3]));
        assert_eq!(b, ints(&[3, 4]));
        assert!(Arc::ptr_eq(&a.elems, &alias.elems));
    }
}
