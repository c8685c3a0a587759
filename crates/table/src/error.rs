//! Error type for the table substrate.

use std::fmt;

/// Errors produced by table operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// A column name was not found in the schema.
    UnknownColumn(String),
    /// A value's type did not match the column type.
    TypeMismatch {
        /// Column the value was destined for.
        column: String,
        /// Expected type name.
        expected: &'static str,
        /// What was actually provided (debug rendering).
        got: String,
    },
    /// A row had the wrong number of values.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values provided.
        got: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// Requested index.
        index: usize,
        /// Number of rows.
        len: usize,
    },
    /// Two tables had incompatible schemas for the requested operation.
    SchemaMismatch(String),
    /// CSV parsing failed.
    Csv(String),
    /// A column has more distinct categories than a dense code can
    /// index.
    TooManyCategories {
        /// The column being coded.
        column: String,
        /// Its number of categories (null counted as one).
        categories: usize,
        /// The largest supported number of categories.
        max: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            TableError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch in column `{column}`: expected {expected}, got {got}"
            ),
            TableError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, row has {got}"
                )
            }
            TableError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds (table has {len} rows)")
            }
            TableError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            TableError::Csv(msg) => write!(f, "csv error: {msg}"),
            TableError::TooManyCategories {
                column,
                categories,
                max,
            } => write!(
                f,
                "column `{column}` has {categories} categories; at most {max} are supported"
            ),
        }
    }
}

impl std::error::Error for TableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            TableError::UnknownColumn("x".into()).to_string(),
            "unknown column `x`"
        );
        assert!(TableError::ArityMismatch {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("3"));
    }
}
