//! Typed column storage.

use serde::{Deserialize, Serialize};

use crate::error::TableError;
use crate::schema::DataType;
use crate::value::{Value, ValueRef};
use crate::Result;

/// A single column of typed, nullable values.
///
/// Storage is a `Vec<Option<T>>` per type. This keeps the substrate simple
/// and auditable; a null bitmap + dense vector would be faster but is not
/// needed at the scales the RDI experiments run at (≤ tens of millions of
/// cells).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column.
    Float(Vec<Option<f64>>),
    /// String column.
    Str(Vec<Option<String>>),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(Vec::with_capacity(cap)),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True iff the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// The value at row `i` as a dynamic [`Value`].
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn value(&self, i: usize) -> Value {
        self.value_ref(i).to_value()
    }

    /// The value at row `i`, borrowed: unlike [`Column::value`], no
    /// string cell is cloned.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn value_ref(&self, i: usize) -> ValueRef<'_> {
        match self {
            Column::Int(v) => v[i].map_or(ValueRef::Null, ValueRef::Int),
            Column::Float(v) => v[i].map_or(ValueRef::Null, ValueRef::Float),
            Column::Str(v) => v[i].as_deref().map_or(ValueRef::Null, ValueRef::Str),
            Column::Bool(v) => v[i].map_or(ValueRef::Null, ValueRef::Bool),
        }
    }

    /// True iff the cell at row `i` is null; borrows, unlike
    /// [`Column::value`], so no string cell is cloned.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(v) => v[i].is_none(),
            Column::Float(v) => v[i].is_none(),
            Column::Str(v) => v[i].is_none(),
            Column::Bool(v) => v[i].is_none(),
        }
    }

    /// Push a dynamic value, checking its type against the column type.
    ///
    /// `Int` values are accepted into `Float` columns (widening); float
    /// `NaN` is stored as null.
    pub fn push(&mut self, value: Value, column_name: &str) -> Result<()> {
        let mismatch = |expected: &'static str, got: &Value| TableError::TypeMismatch {
            column: column_name.to_string(),
            expected,
            got: format!("{got:?}"),
        };
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(if x.is_nan() { None } else { Some(x) }),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(x)) => v.push(Some(x)),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, v) => return Err(mismatch(col.dtype().name(), &v)),
        }
        Ok(())
    }

    /// Overwrite the cell at row `i` with a (type-checked) value.
    pub fn set(&mut self, i: usize, value: Value, column_name: &str) -> Result<()> {
        if i >= self.len() {
            return Err(TableError::RowOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        let mismatch = |expected: &'static str, got: &Value| TableError::TypeMismatch {
            column: column_name.to_string(),
            expected,
            got: format!("{got:?}"),
        };
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v[i] = Some(x),
            (Column::Int(v), Value::Null) => v[i] = None,
            (Column::Float(v), Value::Float(x)) => v[i] = if x.is_nan() { None } else { Some(x) },
            (Column::Float(v), Value::Int(x)) => v[i] = Some(x as f64),
            (Column::Float(v), Value::Null) => v[i] = None,
            (Column::Str(v), Value::Str(x)) => v[i] = Some(x),
            (Column::Str(v), Value::Null) => v[i] = None,
            (Column::Bool(v), Value::Bool(x)) => v[i] = Some(x),
            (Column::Bool(v), Value::Null) => v[i] = None,
            (col, v) => return Err(mismatch(col.dtype().name(), &v)),
        }
        Ok(())
    }

    /// Gather the cells at `indices` into a new column (clone semantics).
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Append all cells from `other` (must have the same dtype).
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend(b.iter().cloned()),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(TableError::SchemaMismatch(format!(
                    "cannot append {} column to {} column",
                    b.dtype().name(),
                    a.dtype().name()
                )))
            }
        }
        Ok(())
    }

    /// Iterator over cells as `f64` (nulls and non-numeric cells are `None`).
    pub fn iter_f64(&self) -> Box<dyn Iterator<Item = Option<f64>> + '_> {
        match self {
            Column::Int(v) => Box::new(v.iter().map(|x| x.map(|i| i as f64))),
            Column::Float(v) => Box::new(v.iter().copied()),
            Column::Bool(v) => Box::new(v.iter().map(|x| x.map(|b| if b { 1.0 } else { 0.0 }))),
            Column::Str(v) => Box::new(v.iter().map(|_| None)),
        }
    }

    /// Non-null numeric values of the column.
    pub fn numeric_values(&self) -> Vec<f64> {
        self.iter_f64().flatten().collect()
    }

    /// Borrowed string cells, if this is a string column.
    pub fn as_str_slice(&self) -> Option<&[Option<String>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed integer cells, if this is an integer column.
    pub fn as_int_slice(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed float cells, if this is a float column.
    pub fn as_float_slice(&self) -> Option<&[Option<f64>]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(5), "c").unwrap();
        c.push(Value::Null, "c").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(0), Value::Int(5));
        assert!(c.value(1).is_null());
        assert!(!c.is_null(0) && c.is_null(1));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn int_widens_into_float() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Int(3), "c").unwrap();
        assert_eq!(c.value(0), Value::Float(3.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::empty(DataType::Int);
        let err = c.push(Value::str("x"), "age").unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
        assert!(err.to_string().contains("age"));
    }

    #[test]
    fn nan_stored_as_null() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Float(f64::NAN), "c").unwrap();
        assert!(c.value(0).is_null());
    }

    #[test]
    fn gather_reorders_and_repeats() {
        let mut c = Column::empty(DataType::Str);
        for s in ["a", "b", "c"] {
            c.push(Value::str(s), "c").unwrap();
        }
        let g = c.gather(&[2, 0, 0]);
        assert_eq!(g.value(0), Value::str("c"));
        assert_eq!(g.value(1), Value::str("a"));
        assert_eq!(g.value(2), Value::str("a"));
    }

    #[test]
    fn set_overwrites() {
        let mut c = Column::empty(DataType::Bool);
        c.push(Value::Bool(true), "c").unwrap();
        c.set(0, Value::Bool(false), "c").unwrap();
        assert_eq!(c.value(0), Value::Bool(false));
        assert!(c.set(5, Value::Bool(true), "c").is_err());
    }

    #[test]
    fn extend_from_same_type() {
        let mut a = Column::empty(DataType::Int);
        a.push(Value::Int(1), "a").unwrap();
        let mut b = Column::empty(DataType::Int);
        b.push(Value::Int(2), "b").unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
        let s = Column::empty(DataType::Str);
        assert!(a.extend_from(&s).is_err());
    }

    #[test]
    fn numeric_values_skip_nulls() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Float(1.5), "c").unwrap();
        c.push(Value::Null, "c").unwrap();
        assert_eq!(c.numeric_values(), vec![1.5]);
    }
}
