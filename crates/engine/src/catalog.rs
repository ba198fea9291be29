//! Schema catalog and row storage.
//!
//! The catalog doubles as the metadata source for the ontology
//! generator: primary keys and foreign keys declared here become the
//! concepts and relationships of the derived domain ontology (the
//! Jammi-et-al. tooling-framework path described in §4.1).

use std::collections::HashMap;

use crate::error::EngineError;
use crate::value::Value;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// Double-precision float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
    /// ISO-8601 date stored as text.
    Date,
}

impl ColumnType {
    /// Does `v` inhabit this type (NULL inhabits all)?
    #[allow(clippy::match_like_matches_macro)] // table form reads better
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true,
            (ColumnType::Int, Value::Int(_)) => true,
            (ColumnType::Float, Value::Float(_) | Value::Int(_)) => true,
            (ColumnType::Text, Value::Str(_)) => true,
            (ColumnType::Bool, Value::Bool(_)) => true,
            (ColumnType::Date, Value::Str(_)) => true,
            _ => false,
        }
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (snake_case by convention).
    pub name: String,
    /// Data type.
    pub ty: ColumnType,
}

/// A foreign-key edge from a column of this table to a column of
/// another table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column in this table.
    pub column: String,
    /// Referenced table.
    pub references_table: String,
    /// Referenced column.
    pub references_column: String,
}

/// Table schema definition (builder-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
    /// Primary-key column name, if declared.
    pub primary_key: Option<String>,
    /// Outgoing foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// Start a schema for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TableSchema {
            name: name.into(),
            columns: Vec::new(),
            primary_key: None,
            foreign_keys: Vec::new(),
        }
    }

    /// Append a column.
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.columns.push(Column {
            name: name.into(),
            ty,
        });
        self
    }

    /// Declare the primary key (must be an existing column).
    pub fn primary_key(mut self, name: impl Into<String>) -> Self {
        self.primary_key = Some(name.into());
        self
    }

    /// Declare a foreign key.
    pub fn foreign_key(
        mut self,
        column: impl Into<String>,
        references_table: impl Into<String>,
        references_column: impl Into<String>,
    ) -> Self {
        self.foreign_keys.push(ForeignKey {
            column: column.into(),
            references_table: references_table.into(),
            references_column: references_column.into(),
        });
        self
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// A table: schema + materialized rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// The schema.
    pub schema: TableSchema,
    /// Row store.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All distinct non-null values of a column (order of first
    /// appearance) — used to build the value index.
    pub fn distinct_values(&self, column: &str) -> Vec<Value> {
        let Some(idx) = self.schema.column_index(column) else {
            return Vec::new();
        };
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for row in &self.rows {
            let v = &row[idx];
            if !v.is_null() && seen.insert(v.group_key()) {
                out.push(v.clone());
            }
        }
        out
    }
}

/// A named collection of tables.
#[derive(Debug, Clone)]
pub struct Database {
    /// Database name.
    pub name: String,
    tables: HashMap<String, Table>,
    /// Creation order, for deterministic iteration.
    order: Vec<String>,
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            tables: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Register a table schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), EngineError> {
        if self.tables.contains_key(&schema.name) {
            return Err(EngineError::DuplicateTable(schema.name));
        }
        if let Some(pk) = &schema.primary_key {
            if schema.column_index(pk).is_none() {
                return Err(EngineError::SchemaViolation(format!(
                    "primary key {pk} is not a column of {}",
                    schema.name
                )));
            }
        }
        self.order.push(schema.name.clone());
        self.tables.insert(
            schema.name.clone(),
            Table {
                schema,
                rows: Vec::new(),
            },
        );
        Ok(())
    }

    /// Insert one row, checking arity and types.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), EngineError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        if row.len() != t.schema.columns.len() {
            return Err(EngineError::SchemaViolation(format!(
                "{table}: expected {} values, got {}",
                t.schema.columns.len(),
                row.len()
            )));
        }
        for (col, v) in t.schema.columns.iter().zip(&row) {
            if !col.ty.admits(v) {
                return Err(EngineError::SchemaViolation(format!(
                    "{table}.{}: value {v:?} does not fit {:?}",
                    col.name, col.ty
                )));
            }
        }
        t.rows.push(row);
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, EngineError> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Tables in creation order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.order.iter().filter_map(|n| self.tables.get(n))
    }

    /// Total row count across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("score", ColumnType::Float)
            .primary_key("id")
    }

    #[test]
    fn create_and_insert() {
        let mut db = Database::new("test");
        db.create_table(schema()).unwrap();
        db.insert(
            "t",
            vec![Value::Int(1), Value::from("a"), Value::Float(0.5)],
        )
        .unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
        assert_eq!(db.total_rows(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Database::new("test");
        db.create_table(schema()).unwrap();
        assert_eq!(
            db.create_table(schema()),
            Err(EngineError::DuplicateTable("t".into()))
        );
    }

    #[test]
    fn bad_primary_key_rejected() {
        let mut db = Database::new("test");
        let s = TableSchema::new("x")
            .column("a", ColumnType::Int)
            .primary_key("nope");
        assert!(matches!(
            db.create_table(s),
            Err(EngineError::SchemaViolation(_))
        ));
    }

    #[test]
    fn arity_checked() {
        let mut db = Database::new("test");
        db.create_table(schema()).unwrap();
        assert!(matches!(
            db.insert("t", vec![Value::Int(1)]),
            Err(EngineError::SchemaViolation(_))
        ));
    }

    #[test]
    fn type_checked_with_widening() {
        let mut db = Database::new("test");
        db.create_table(schema()).unwrap();
        // Int widens into Float column.
        db.insert("t", vec![Value::Int(1), Value::from("a"), Value::Int(2)])
            .unwrap();
        // Str into Int column is rejected.
        assert!(matches!(
            db.insert("t", vec![Value::from("x"), Value::from("a"), Value::Null]),
            Err(EngineError::SchemaViolation(_))
        ));
        // NULL fits anywhere.
        db.insert("t", vec![Value::Int(2), Value::Null, Value::Null])
            .unwrap();
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new("test");
        assert!(matches!(
            db.table("ghost"),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn distinct_values_dedup() {
        let mut db = Database::new("test");
        db.create_table(schema()).unwrap();
        for (i, n) in [(1, "a"), (2, "b"), (3, "a")] {
            db.insert("t", vec![Value::Int(i), Value::from(n), Value::Null])
                .unwrap();
        }
        let t = db.table("t").unwrap();
        assert_eq!(
            t.distinct_values("name"),
            vec![Value::from("a"), Value::from("b")]
        );
        assert!(t.distinct_values("score").is_empty());
        assert!(t.distinct_values("missing").is_empty());
    }

    #[test]
    fn iteration_order_is_creation_order() {
        let mut db = Database::new("test");
        for name in ["zeta", "alpha", "mid"] {
            db.create_table(TableSchema::new(name).column("a", ColumnType::Int))
                .unwrap();
        }
        let names: Vec<&str> = db.tables().map(|t| t.schema.name.as_str()).collect();
        assert_eq!(names, vec!["zeta", "alpha", "mid"]);
    }
}
