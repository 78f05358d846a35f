//! Tuples (records) and the paper's tuple operations.
//!
//! ADL supports tuple subscription `e[a₁, …, aₙ]`, tuple update/extension
//! `except`, and tuple concatenation `∘` (paper §3, definitions 2, 3 and
//! the operator `o`). Fields are kept **sorted by attribute name** so that
//! tuple equality, ordering and hashing are structural and independent of
//! construction order.

use crate::{Name, Value, ValueError};
use std::fmt;
use std::sync::Arc;

/// A complex-object tuple: attribute name → value, canonically ordered.
///
/// The fields live behind an [`Arc`], so `clone` is a reference-count
/// bump: binding a row, probing a join or replaying a cached result shares
/// the nested object instead of copying it. Tuples are immutable; every
/// operation below builds a new one and leaves its inputs (and their other
/// clones) untouched.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tuple {
    /// Sorted by name; names are unique.
    fields: Arc<[(Name, Value)]>,
}

impl Tuple {
    /// The empty tuple `⟨⟩`.
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Builds a tuple from `(name, value)` pairs.
    ///
    /// Returns [`ValueError::DuplicateField`] if two pairs share a name.
    pub fn new(mut fields: Vec<(Name, Value)>) -> Result<Self, ValueError> {
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        for w in fields.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(ValueError::DuplicateField(w[0].0.clone()));
            }
        }
        Ok(Tuple {
            fields: fields.into(),
        })
    }

    /// Builds a tuple from fields already in canonical (sorted, unique)
    /// order — the hot row-materialization paths of the columnar batch,
    /// whose schema is canonical by construction, of the codec, which
    /// checks the order it reads, and of the engine's bound tuple
    /// constructors, whose names are sorted when the plan is bound. The
    /// caller guarantees the order; debug builds verify it.
    pub fn from_sorted_unchecked(fields: Arc<[(Name, Value)]>) -> Self {
        debug_assert!(
            fields.windows(2).all(|w| w[0].0 < w[1].0),
            "fields must be sorted and unique"
        );
        Tuple { fields }
    }

    /// Builds a tuple from `(&str, Value)` pairs; panics on duplicates.
    ///
    /// Convenience for fixtures and tests.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: AsRef<str>,
    {
        Tuple::new(
            pairs
                .into_iter()
                .map(|(n, v)| (Name::from(n.as_ref()), v))
                .collect(),
        )
        .expect("duplicate field in Tuple::from_pairs")
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// True if this is the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field lookup.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .binary_search_by(|(n, _)| n.as_ref().cmp(name))
            .ok()
            .map(|i| &self.fields[i].1)
    }

    /// Field lookup that reports a [`ValueError::NoSuchField`].
    pub fn field(&self, name: &Name) -> Result<&Value, ValueError> {
        self.get(name).ok_or_else(|| ValueError::NoSuchField {
            field: name.clone(),
            tuple: self.to_string(),
        })
    }

    /// Iterates `(name, value)` pairs in canonical (name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Value)> {
        self.fields.iter().map(|(n, v)| (n, v))
    }

    /// The attribute names, in canonical order. This is the tuple-level
    /// schema function `SCH`.
    pub fn attr_names(&self) -> Vec<Name> {
        self.fields.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Tuple subscription `e[a₁, …, aₙ]` (paper §3 def. 2): the sub-tuple
    /// containing exactly the named attributes.
    pub fn subscript(&self, names: &[Name]) -> Result<Tuple, ValueError> {
        let mut out = Vec::with_capacity(names.len());
        for n in names {
            out.push((n.clone(), self.field(n)?.clone()));
        }
        Tuple::new(out)
    }

    /// Tuple update/extension `except` (paper §3 def. 3): fields present in
    /// `updates` replace existing values **or** extend the tuple with new
    /// attributes; all other fields are left as they are.
    pub fn except(&self, updates: &[(Name, Value)]) -> Result<Tuple, ValueError> {
        let mut fields = self.fields.to_vec();
        for (n, v) in updates {
            match fields.binary_search_by(|(field, _)| field.cmp(n)) {
                Ok(i) => fields[i].1 = v.clone(),
                Err(i) => fields.insert(i, (n.clone(), v.clone())),
            }
        }
        // updates may themselves contain duplicates: last one wins by the
        // loop above, so the invariant (sorted, unique) already holds.
        Ok(Tuple {
            fields: fields.into(),
        })
    }

    /// Tuple concatenation `x ∘ y`.
    ///
    /// The paper assumes no naming conflicts (§3); we return
    /// [`ValueError::DuplicateField`] when the assumption is violated.
    pub fn concat(&self, other: &Tuple) -> Result<Tuple, ValueError> {
        let mut fields = Vec::with_capacity(self.fields.len() + other.fields.len());
        let (mut i, mut j) = (0, 0);
        while i < self.fields.len() && j < other.fields.len() {
            match self.fields[i].0.cmp(&other.fields[j].0) {
                std::cmp::Ordering::Less => {
                    fields.push(self.fields[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    fields.push(other.fields[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    return Err(ValueError::DuplicateField(self.fields[i].0.clone()))
                }
            }
        }
        fields.extend_from_slice(&self.fields[i..]);
        fields.extend_from_slice(&other.fields[j..]);
        Ok(Tuple {
            fields: fields.into(),
        })
    }

    /// `self ∘ ⟨name = v⟩`, built in one allocation: `name` goes in at its
    /// sorted position. Fails like [`Tuple::concat`] with
    /// [`ValueError::DuplicateField`] when `self` already has `name`.
    pub fn insert(&self, name: &Name, v: Value) -> Result<Tuple, ValueError> {
        let at = match self.fields.binary_search_by(|(n, _)| n.cmp(name)) {
            Ok(_) => return Err(ValueError::DuplicateField(name.clone())),
            Err(at) => at,
        };
        let (before, after) = self.fields.split_at(at);
        Ok(Tuple {
            fields: before
                .iter()
                .cloned()
                .chain(std::iter::once((name.clone(), v)))
                .chain(after.iter().cloned())
                .collect(),
        })
    }

    /// Removes the named attribute, returning the remaining tuple.
    pub fn without(&self, name: &str) -> Tuple {
        Tuple {
            fields: self
                .fields
                .iter()
                .filter(|(n, _)| n.as_ref() != name)
                .cloned()
                .collect(),
        }
    }

    /// Renames attribute `from` to `to` (the ADL renaming operator `ρ` at
    /// tuple level).
    pub fn rename(&self, from: &str, to: &Name) -> Result<Tuple, ValueError> {
        let mut fields = Vec::with_capacity(self.fields.len());
        let mut found = false;
        for (n, v) in self.fields.iter() {
            if n.as_ref() == from {
                fields.push((to.clone(), v.clone()));
                found = true;
            } else {
                fields.push((n.clone(), v.clone()));
            }
        }
        if !found {
            return Err(ValueError::NoSuchField {
                field: Name::from(from),
                tuple: self.to_string(),
            });
        }
        Tuple::new(fields)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n} = {v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;

    fn t(pairs: &[(&str, i64)]) -> Tuple {
        Tuple::from_pairs(pairs.iter().map(|(n, v)| (*n, Value::Int(*v))))
    }

    #[test]
    fn construction_is_order_insensitive() {
        let a = t(&[("a", 1), ("b", 2)]);
        let b = t(&[("b", 2), ("a", 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_fields_rejected() {
        let err =
            Tuple::new(vec![(name("a"), Value::Int(1)), (name("a"), Value::Int(2))]).unwrap_err();
        assert_eq!(err, ValueError::DuplicateField(name("a")));
    }

    #[test]
    fn subscription_projects_named_fields() {
        let x = t(&[("a", 1), ("b", 2), ("c", 3)]);
        let s = x.subscript(&[name("c"), name("a")]).unwrap();
        assert_eq!(s, t(&[("a", 1), ("c", 3)]));
    }

    #[test]
    fn subscription_missing_field_errors() {
        let x = t(&[("a", 1)]);
        assert!(matches!(
            x.subscript(&[name("z")]),
            Err(ValueError::NoSuchField { .. })
        ));
    }

    #[test]
    fn except_updates_and_extends() {
        // paper §3 def. 3: update existing fields, keep the rest, extend
        // with new fields.
        let x = t(&[("a", 1), ("b", 2)]);
        let y = x
            .except(&[(name("a"), Value::Int(10)), (name("c"), Value::Int(3))])
            .unwrap();
        assert_eq!(y, t(&[("a", 10), ("b", 2), ("c", 3)]));
    }

    #[test]
    fn concat_merges_disjoint_tuples() {
        let x = t(&[("a", 1)]);
        let y = t(&[("b", 2)]);
        assert_eq!(x.concat(&y).unwrap(), t(&[("a", 1), ("b", 2)]));
    }

    #[test]
    fn concat_conflict_is_an_error() {
        let x = t(&[("a", 1)]);
        let y = t(&[("a", 2)]);
        assert_eq!(
            x.concat(&y).unwrap_err(),
            ValueError::DuplicateField(name("a"))
        );
    }

    #[test]
    fn insert_is_concat_with_a_one_field_tuple() {
        let x = t(&[("a", 1), ("c", 3)]);
        for (n, v) in [("0", 9), ("b", 2), ("d", 4)] {
            let one = t(&[(n, v)]);
            assert_eq!(x.insert(&name(n), Value::Int(v)), x.concat(&one));
        }
        assert_eq!(
            x.insert(&name("c"), Value::Int(0)).unwrap_err(),
            x.concat(&t(&[("c", 0)])).unwrap_err()
        );
    }

    #[test]
    fn rename_moves_value_to_new_attribute() {
        let x = t(&[("a", 1), ("b", 2)]);
        let y = x.rename("a", &name("z")).unwrap();
        assert_eq!(y, t(&[("b", 2), ("z", 1)]));
        assert!(x.rename("nope", &name("z")).is_err());
    }

    #[test]
    fn without_drops_attribute() {
        let x = t(&[("a", 1), ("b", 2)]);
        assert_eq!(x.without("a"), t(&[("b", 2)]));
        assert_eq!(x.without("zzz"), x);
    }

    #[test]
    fn display_is_paper_style() {
        let x = t(&[("a", 1), ("c", 0)]);
        assert_eq!(x.to_string(), "⟨a = 1, c = 0⟩");
    }

    #[test]
    fn clone_shares_storage() {
        let x = t(&[("a", 1), ("b", 2)]);
        let y = x.clone();
        assert!(Arc::ptr_eq(&x.fields, &y.fields));
    }

    #[test]
    fn operations_leave_shared_inputs_untouched() {
        let x = t(&[("a", 1), ("b", 2)]);
        let alias = x.clone();
        let before = t(&[("a", 1), ("b", 2)]);
        let _ = x.except(&[(name("a"), Value::Int(9)), (name("c"), Value::Int(3))]);
        let _ = x.concat(&t(&[("z", 0)])).unwrap();
        let _ = x.rename("a", &name("y")).unwrap();
        let _ = x.without("b");
        assert_eq!(x, before);
        assert_eq!(alias, before);
        assert!(Arc::ptr_eq(&x.fields, &alias.fields));
    }
}
