//! Relation schemas.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::datatype::DataType;
use crate::error::{DaisyError, Result};
use crate::ids::ColumnId;

/// A single attribute (column) of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Attribute name, unique within a schema.
    pub name: String,
    /// Logical type of the attribute.
    pub data_type: DataType,
}

impl Field {
    /// Creates a new field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.data_type)
    }
}

/// An ordered collection of [`Field`]s describing a relation.
///
/// Schemas are cheaply cloneable via [`SchemaRef`].  Joins produce schemas
/// whose field names are qualified with the source relation name
/// (`lineorder.suppkey`), matching the paper's examples (`C.Zip`, `E.Zip`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Shared reference to a schema.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Creates a schema from fields.  Field names must be unique.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(DaisyError::Schema(format!(
                    "duplicate field name `{}`",
                    f.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// Creates an empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<Self> {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Returns the ordinal position of a column by name.
    ///
    /// Lookup is tolerant to qualification: `zip` matches both `zip` and
    /// `cities.zip`, and a qualified request `cities.zip` matches the
    /// unqualified field `zip` only if exactly one candidate exists.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        // Exact match first.
        if let Some(idx) = self.fields.iter().position(|f| f.name == name) {
            return Ok(idx);
        }
        // Unqualified request matching qualified fields (suffix `.name`),
        // compared in place: this runs per predicate operand.
        let mut qualified = self.fields.iter().enumerate().filter(|(_, f)| {
            f.name
                .strip_suffix(name)
                .is_some_and(|qualifier| qualifier.ends_with('.'))
        });
        if let Some((idx, _)) = qualified.next() {
            return match qualified.count() {
                0 => Ok(idx),
                more => Err(DaisyError::Schema(format!(
                    "ambiguous column `{name}`: {} matches",
                    more + 1
                ))),
            };
        }
        // Qualified request matching an unqualified field (strip the prefix).
        if let Some((_, bare)) = name.rsplit_once('.') {
            if let Some(idx) = self.fields.iter().position(|f| f.name == bare) {
                return Ok(idx);
            }
        }
        Err(DaisyError::Schema(format!("unknown column `{name}`")))
    }

    /// Returns the [`ColumnId`] of a column by name.
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.index_of(name).map(ColumnId::from)
    }

    /// Returns a field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Returns a field by ordinal position.
    pub fn field_at(&self, idx: usize) -> Result<&Field> {
        self.fields
            .get(idx)
            .ok_or_else(|| DaisyError::Schema(format!("column index {idx} out of bounds")))
    }

    /// `true` if the schema has a column with this name (qualified or not).
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_ok()
    }

    /// Returns a new schema restricted to the named columns, in the order given.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            fields.push(self.field(name)?.clone());
        }
        Schema::new(fields)
    }

    /// Returns a new schema whose field names are prefixed with `qualifier.`.
    ///
    /// Fields that are already qualified keep their original qualifier.
    pub fn qualify(&self, qualifier: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| {
                    if f.name.contains('.') {
                        f.clone()
                    } else {
                        Field::new(format!("{qualifier}.{}", f.name), f.data_type)
                    }
                })
                .collect(),
        }
    }

    /// Concatenates two schemas (used by joins).  Duplicate names are allowed
    /// only when they are distinguished by qualification.
    pub fn join(&self, other: &Schema) -> Result<Schema> {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// The column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cities() -> Schema {
        Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap()
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Str)]);
        assert!(err.is_err());
    }

    #[test]
    fn index_of_exact_and_unknown() {
        let s = cities();
        assert_eq!(s.index_of("zip").unwrap(), 0);
        assert_eq!(s.index_of("city").unwrap(), 1);
        assert!(s.index_of("state").is_err());
    }

    #[test]
    fn qualified_lookup_both_directions() {
        let q = cities().qualify("cities");
        assert_eq!(q.index_of("cities.zip").unwrap(), 0);
        assert_eq!(q.index_of("zip").unwrap(), 0);
        // A name's tail alone is not a qualified match.
        assert!(q.index_of("ip").is_err());

        let bare = cities();
        assert_eq!(bare.index_of("cities.zip").unwrap(), 0);
    }

    #[test]
    fn ambiguous_unqualified_lookup_fails() {
        let joined = cities().qualify("a").join(&cities().qualify("b")).unwrap();
        assert!(joined.index_of("zip").is_err());
        assert_eq!(joined.index_of("a.zip").unwrap(), 0);
        assert_eq!(joined.index_of("b.zip").unwrap(), 2);
    }

    #[test]
    fn project_preserves_requested_order() {
        let s = cities();
        let p = s.project(&["city", "zip"]).unwrap();
        assert_eq!(p.names(), vec!["city", "zip"]);
        assert!(s.project(&["nope"]).is_err());
    }

    #[test]
    fn join_concatenates_and_detects_collisions() {
        let joined = cities().qualify("c").join(&cities().qualify("e")).unwrap();
        assert_eq!(joined.len(), 4);
        assert!(cities().join(&cities()).is_err());
    }

    #[test]
    fn display_lists_fields() {
        assert_eq!(cities().to_string(), "(zip: int, city: string)");
    }
}
