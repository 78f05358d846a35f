//! The catalog (schema) and the database (populated extents).

use crate::{CatalogError, ClassDef, SnapshotWork, Table};
use oodb_value::fxhash::FxHashMap;
use oodb_value::{Name, Oid, Tuple, Type, Value};

/// The schema of an object base: a collection of class definitions,
/// addressable by class name and by extent (base table) name.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    classes: Vec<ClassDef>,
    by_class: FxHashMap<Name, usize>,
    by_extent: FxHashMap<Name, usize>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a class; rejects duplicate class or extent names.
    pub fn add_class(&mut self, def: ClassDef) -> Result<(), CatalogError> {
        if self.by_class.contains_key(&def.name) {
            return Err(CatalogError::DuplicateClass(def.name.clone()));
        }
        if self.by_extent.contains_key(&def.extent) {
            return Err(CatalogError::DuplicateExtent(def.extent.clone()));
        }
        let idx = self.classes.len();
        self.by_class.insert(def.name.clone(), idx);
        self.by_extent.insert(def.extent.clone(), idx);
        self.classes.push(def);
        Ok(())
    }

    /// Looks up a class by class name.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.by_class.get(name).map(|&i| &self.classes[i])
    }

    /// Looks up a class by extent (base table) name.
    pub fn class_by_extent(&self, extent: &str) -> Option<&ClassDef> {
        self.by_extent.get(extent).map(|&i| &self.classes[i])
    }

    /// The ADL type of an extent: `{⟨attrs⟩}`.
    pub fn extent_type(&self, extent: &str) -> Option<Type> {
        self.class_by_extent(extent).map(ClassDef::extent_type)
    }

    /// True if `name` is a known extent.
    pub fn is_extent(&self, name: &str) -> bool {
        self.by_extent.contains_key(name)
    }

    /// All classes, in definition order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.iter()
    }

    /// Validates that every class referenced by attributes is defined.
    pub fn validate(&self) -> Result<(), CatalogError> {
        for c in &self.classes {
            for r in c.referenced_classes() {
                if !self.by_class.contains_key(&r) {
                    return Err(CatalogError::UnknownClass(r));
                }
            }
        }
        Ok(())
    }
}

/// A populated object base: a [`Catalog`] plus one [`Table`] per extent.
#[derive(Clone, Debug)]
pub struct Database {
    catalog: Catalog,
    tables: FxHashMap<Name, Table>,
}

impl Database {
    /// An empty database over the given (validated) catalog.
    pub fn new(catalog: Catalog) -> Result<Self, CatalogError> {
        catalog.validate()?;
        let mut tables = FxHashMap::default();
        for c in catalog.classes() {
            // every set-of-oid attribute gets a reverse-reference index
            let ref_sets = c.attrs.iter().filter_map(|(a, t)| match t {
                Type::Set(elem) if matches!(**elem, Type::Oid(_)) => Some(a.clone()),
                _ => None,
            });
            let table = Table::with_owner_indexes(c.identity.clone(), ref_sets);
            tables.insert(c.extent.clone(), table);
        }
        Ok(Database { catalog, tables })
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The extent called `name`.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// The extent called `name`, or an error.
    pub fn table_required(&self, name: &str) -> Result<&Table, CatalogError> {
        self.table(name)
            .ok_or_else(|| CatalogError::UnknownExtent(Name::from(name)))
    }

    /// Inserts an object into an extent, checking it against the class's
    /// attribute types.
    pub fn insert(&mut self, extent: &str, row: Tuple) -> Result<(), CatalogError> {
        let class = self
            .catalog
            .class_by_extent(extent)
            .ok_or_else(|| CatalogError::UnknownExtent(Name::from(extent)))?;
        if let Err(detail) = conforms_tuple(&row, &class.attrs) {
            return Err(CatalogError::SchemaViolation {
                extent: class.extent.clone(),
                detail,
            });
        }
        let extent_name = class.extent.clone();
        self.tables
            .get_mut(&extent_name)
            .expect("table exists for every extent")
            .insert(&extent_name, row)
    }

    /// Builds a secondary hash index on `extent.attr` (used by the index
    /// nested-loop join).
    pub fn create_index(&mut self, extent: &str, attr: &str) -> Result<(), CatalogError> {
        let class = self
            .catalog
            .class_by_extent(extent)
            .ok_or_else(|| CatalogError::UnknownExtent(Name::from(extent)))?;
        if !class.attrs.has_field(attr) {
            return Err(CatalogError::SchemaViolation {
                extent: class.extent.clone(),
                detail: format!("no attribute `{attr}` to index"),
            });
        }
        let extent_name = class.extent.clone();
        self.tables
            .get_mut(&extent_name)
            .expect("table exists for every extent")
            .create_index(&Name::from(attr))
    }

    /// The write version of extent `name`: bumped by every successful
    /// [`Database::insert`] / [`Database::create_index`] against it.
    /// Unknown extents report `0` (they can only ever be read as errors,
    /// which no cache stores). Version stamps taken from these counters
    /// are how the serving layer invalidates cached results on writes.
    pub fn extent_version(&self, name: &str) -> u64 {
        self.tables.get(name).map(Table::version).unwrap_or(0)
    }

    /// Pointer dereference: the object of `class` identified by `oid`
    /// (`None` for dangling pointers — which Example Query 4 hunts for).
    pub fn deref(&self, class: &str, oid: Oid) -> Option<&Tuple> {
        let c = self.catalog.class(class)?;
        self.tables.get(&c.extent)?.by_oid(oid)
    }

    /// What building every extent's snapshots has cost so far (see
    /// [`Table::snapshot_work`]).
    pub fn snapshot_work(&self) -> SnapshotWork {
        self.tables.values().map(Table::snapshot_work).sum()
    }

    /// Total number of stored objects (all extents).
    pub fn object_count(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

/// Structural conformance check of a value against a type.
///
/// `Unknown` accepts anything; empty sets conform to any set type; oid
/// class tags are checked only for presence of *an* oid (tag verification
/// against actual referents is referential integrity, which the paper
/// deliberately allows to be violated — Example Query 4 queries for it).
pub fn conforms(value: &Value, ty: &Type) -> Result<(), String> {
    match (value, ty) {
        (_, Type::Unknown) => Ok(()),
        (Value::Bool(_), Type::Bool)
        | (Value::Int(_), Type::Int)
        | (Value::Float(_), Type::Float)
        | (Value::Str(_), Type::Str)
        | (Value::Date(_), Type::Date)
        | (Value::Oid(_), Type::Oid(_)) => Ok(()),
        (Value::Set(s), Type::Set(elem)) => {
            for v in s.iter() {
                conforms(v, elem)?;
            }
            Ok(())
        }
        (Value::Tuple(t), Type::Tuple(tt)) => conforms_tuple(t, tt),
        (v, t) => Err(format!("value {v} does not conform to type {t}")),
    }
}

fn conforms_tuple(t: &Tuple, tt: &oodb_value::TupleType) -> Result<(), String> {
    if t.arity() != tt.arity() {
        return Err(format!(
            "tuple {t} has {} attributes, type {tt} expects {}",
            t.arity(),
            tt.arity()
        ));
    }
    for (n, v) in t.iter() {
        match tt.field(n) {
            Some(ft) => conforms(v, ft)?,
            None => return Err(format!("unexpected attribute `{n}`")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_value::{name, TupleType};

    fn part_class() -> ClassDef {
        ClassDef::new(
            name("Part"),
            name("PART"),
            name("pid"),
            TupleType::from_pairs([
                ("pid", Type::Oid(Some(name("Part")))),
                ("pname", Type::Str),
                ("price", Type::Int),
                ("color", Type::Str),
            ]),
        )
        .unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_class(part_class()).unwrap();
        c
    }

    fn part(oid: u64, pname: &str, price: i64, color: &str) -> Tuple {
        Tuple::from_pairs([
            ("pid", Value::Oid(Oid(oid))),
            ("pname", Value::str(pname)),
            ("price", Value::Int(price)),
            ("color", Value::str(color)),
        ])
    }

    #[test]
    fn add_and_lookup_classes() {
        let c = catalog();
        assert!(c.class("Part").is_some());
        assert!(c.class_by_extent("PART").is_some());
        assert!(c.is_extent("PART"));
        assert!(!c.is_extent("Part"));
        assert!(c.extent_type("PART").unwrap().is_set());
    }

    #[test]
    fn duplicate_class_and_extent_rejected() {
        let mut c = catalog();
        assert!(matches!(
            c.add_class(part_class()),
            Err(CatalogError::DuplicateClass(_))
        ));
        let other = ClassDef::new(
            name("Part2"),
            name("PART"),
            name("pid"),
            TupleType::from_pairs([("pid", Type::Oid(Some(name("Part2"))))]),
        )
        .unwrap();
        assert!(matches!(
            c.add_class(other),
            Err(CatalogError::DuplicateExtent(_))
        ));
    }

    #[test]
    fn validate_catches_unknown_references() {
        let mut c = Catalog::new();
        c.add_class(
            ClassDef::new(
                name("Supplier"),
                name("SUPPLIER"),
                name("eid"),
                TupleType::from_pairs([
                    ("eid", Type::Oid(Some(name("Supplier")))),
                    ("parts", Type::set(Type::Oid(Some(name("Part"))))),
                ]),
            )
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            Database::new(c),
            Err(CatalogError::UnknownClass(_))
        ));
    }

    #[test]
    fn insert_checks_schema() {
        let mut db = Database::new(catalog()).unwrap();
        db.insert("PART", part(1, "bolt", 10, "red")).unwrap();
        // wrong type for price:
        let bad = Tuple::from_pairs([
            ("pid", Value::Oid(Oid(2))),
            ("pname", Value::str("nut")),
            ("price", Value::str("not a number")),
            ("color", Value::str("red")),
        ]);
        assert!(matches!(
            db.insert("PART", bad),
            Err(CatalogError::SchemaViolation { .. })
        ));
        // missing attribute:
        let short = Tuple::from_pairs([("pid", Value::Oid(Oid(3)))]);
        assert!(db.insert("PART", short).is_err());
        // unknown extent:
        assert!(matches!(
            db.insert("NOPE", part(4, "x", 1, "blue")),
            Err(CatalogError::UnknownExtent(_))
        ));
        assert_eq!(db.object_count(), 1);
    }

    #[test]
    fn deref_follows_pointers() {
        let mut db = Database::new(catalog()).unwrap();
        db.insert("PART", part(7, "bolt", 10, "red")).unwrap();
        let t = db.deref("Part", Oid(7)).unwrap();
        assert_eq!(t.get("pname"), Some(&Value::str("bolt")));
        assert!(db.deref("Part", Oid(8)).is_none()); // dangling
        assert!(db.deref("Nope", Oid(7)).is_none());
    }

    #[test]
    fn rejected_insert_changes_nothing() {
        let mut db = crate::fixtures::supplier_part_db();
        db.create_index("PART", "color").unwrap();
        let table = db.table("PART").unwrap();
        let first = table.row(0).unwrap().clone();
        let oid = first.get("pid").unwrap().as_oid().unwrap();
        let (len, version, before) = (table.len(), table.version(), table.as_set_value());
        let red = table
            .index_probe("color", &Value::str("red"))
            .unwrap()
            .len();
        assert!(matches!(
            db.insert("PART", first.clone()),
            Err(CatalogError::DuplicateOid { .. })
        ));
        let table = db.table("PART").unwrap();
        assert_eq!(table.len(), len);
        assert_eq!(table.version(), version);
        assert_eq!(table.by_oid(oid), Some(&first));
        assert_eq!(table.as_set_value(), before);
        let reds = table.index_probe("color", &Value::str("red")).unwrap();
        assert_eq!(reds.len(), red);
        // the next successful insert does not disturb the old object
        db.insert("PART", part(99, "cog", 3, "red")).unwrap();
        let table = db.table("PART").unwrap();
        assert_eq!(table.by_oid(oid), Some(&first));
        assert_eq!(table.len(), len + 1);
    }

    #[test]
    fn set_of_oid_attributes_get_reverse_reference_indexes() {
        let db = crate::fixtures::supplier_part_db();
        let suppliers = db.table("SUPPLIER").unwrap();
        assert!(suppliers.has_owner_index("parts"));
        assert!(!suppliers.has_owner_index("sname"));
        // a set of tuples is no reference set
        assert!(!db.table("DELIVERY").unwrap().has_owner_index("supply"));
        let holders = suppliers.owners("parts", &Value::Oid(Oid(17))).unwrap();
        assert!(!holders.is_empty());
        for row in suppliers.rows_at(holders) {
            let parts = row.get("parts").unwrap().as_set().unwrap();
            assert!(parts.contains(&Value::Oid(Oid(17))));
        }
    }

    #[test]
    fn conforms_accepts_empty_sets_anywhere() {
        let ty = Type::set(Type::Oid(Some(name("Part"))));
        assert!(conforms(&Value::empty_set(), &ty).is_ok());
        assert!(conforms(&Value::Int(3), &ty).is_err());
    }
}
