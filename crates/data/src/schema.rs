//! Schemas: the typed shape of relational data.
//!
//! A [`Schema`] is an ordered list of [`Field`]s. Fields carry an optional
//! *relation qualifier* so that plans over joins can resolve ambiguous column
//! names (`crm.customers.id` vs `orders.orders.id`) the way the federated
//! planner needs to.

use std::fmt;
use std::sync::Arc;


use crate::error::{EiiError, Result};

/// Scalar data types supported by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Timestamp,
}

impl DataType {
    /// True if values of this type participate in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// The common supertype of two types when used together in arithmetic or
    /// comparisons, or `None` if they are incompatible.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        match (self, other) {
            (a, b) if a == b => Some(a),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                Some(DataType::Float)
            }
            (DataType::Int, DataType::Timestamp) | (DataType::Timestamp, DataType::Int) => {
                Some(DataType::Timestamp)
            }
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A named, typed column, optionally qualified by the relation it came from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Relation (table, view, or alias) qualifier, if any.
    pub relation: Option<String>,
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl Field {
    /// A nullable field with no qualifier.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            relation: None,
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// Attach/replace the relation qualifier.
    pub fn with_relation(mut self, relation: impl Into<String>) -> Self {
        self.relation = Some(relation.into());
        self
    }

    /// Mark the field non-nullable.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// `relation.name` if qualified, else `name`.
    pub fn qualified_name(&self) -> String {
        match &self.relation {
            Some(r) => format!("{r}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Does this field answer to `name` (and `relation` when given)?
    pub fn matches(&self, relation: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match relation {
            None => true,
            Some(r) => self
                .relation
                .as_deref()
                .is_some_and(|fr| fr.eq_ignore_ascii_case(r)),
        }
    }
}

/// Shared, immutable schema handle.
pub type SchemaRef = Arc<Schema>;

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Empty schema (zero columns), used by constant relations.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Resolve a possibly-qualified column reference to its index.
    ///
    /// Fails with `NotFound` when no field matches and with `Type` when the
    /// reference is ambiguous (matches more than one field), mirroring SQL
    /// name-resolution rules.
    pub fn index_of(&self, relation: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.matches(relation, name) {
                if let Some(prev) = found {
                    return Err(EiiError::Type(format!(
                        "ambiguous column reference '{}' (matches {} and {})",
                        name,
                        self.fields[prev].qualified_name(),
                        f.qualified_name()
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            let want = match relation {
                Some(r) => format!("{r}.{name}"),
                None => name.to_string(),
            };
            EiiError::NotFound(format!("column '{want}' not found in schema {self}"))
        })
    }

    /// Concatenate two schemas (used by joins); re-qualification is the
    /// caller's business.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// A copy of this schema with every field re-qualified to `relation`
    /// (applied when a subquery or table gets an alias).
    pub fn qualified(&self, relation: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| f.clone().with_relation(relation))
                .collect(),
        }
    }

    /// Sum of per-row wire size lower bound: header per field. Used by the
    /// cost model as the fixed overhead per shipped row.
    pub fn row_overhead(&self) -> usize {
        self.fields.len()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.qualified_name(), field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int).with_relation("c").not_null(),
            Field::new("name", DataType::Str).with_relation("c"),
            Field::new("id", DataType::Int).with_relation("o"),
        ])
    }

    #[test]
    fn unqualified_lookup_of_unique_name() {
        let s = sample();
        assert_eq!(s.index_of(None, "name").unwrap(), 1);
        assert_eq!(s.index_of(None, "NAME").unwrap(), 1);
    }

    #[test]
    fn ambiguous_lookup_fails() {
        let s = sample();
        let err = s.index_of(None, "id").unwrap_err();
        assert_eq!(err.kind(), "type");
    }

    #[test]
    fn qualified_lookup_disambiguates() {
        let s = sample();
        assert_eq!(s.index_of(Some("c"), "id").unwrap(), 0);
        assert_eq!(s.index_of(Some("o"), "id").unwrap(), 2);
    }

    #[test]
    fn missing_column_reports_not_found() {
        let s = sample();
        assert_eq!(s.index_of(None, "ghost").unwrap_err().kind(), "not_found");
        assert_eq!(
            s.index_of(Some("zz"), "id").unwrap_err().kind(),
            "not_found"
        );
    }

    #[test]
    fn join_concatenates_in_order() {
        let a = Schema::new(vec![Field::new("x", DataType::Int)]);
        let b = Schema::new(vec![Field::new("y", DataType::Str)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        assert_eq!(j.field(0).name, "x");
        assert_eq!(j.field(1).name, "y");
    }

    #[test]
    fn qualify_rewrites_all_relations() {
        let s = sample().qualified("t");
        assert!(s.fields().iter().all(|f| f.relation.as_deref() == Some("t")));
        assert_eq!(s.index_of(Some("t"), "name").unwrap(), 1);
    }

    #[test]
    fn type_unification() {
        assert_eq!(
            DataType::Int.unify(DataType::Float),
            Some(DataType::Float)
        );
        assert_eq!(DataType::Str.unify(DataType::Int), None);
        assert_eq!(DataType::Bool.unify(DataType::Bool), Some(DataType::Bool));
        assert_eq!(
            DataType::Timestamp.unify(DataType::Int),
            Some(DataType::Timestamp)
        );
    }
}
