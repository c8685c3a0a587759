//! Dynamically-typed cell values.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A single cell value in a [`crate::Table`].
///
/// `Value` is the dynamically-typed interchange type used at the API
/// boundary (row construction, predicates, group keys). Storage inside a
/// table is typed per column (see [`crate::Column`]), so `Value` never
/// appears in hot inner loops unless an algorithm explicitly asks for it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing value (SQL `NULL`).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is normalized to [`Value::Null`] on insertion.
    Float(f64),
    /// UTF-8 string (also used for categorical codes).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Shorthand for building a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// True iff the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one (`Int`, `Float`, `Bool`).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        self.as_ref().as_f64()
    }

    /// Integer view of the value, if it is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        self.as_ref().as_str()
    }

    /// Boolean view of the value, if it is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrowed view of this value; no string is cloned.
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }

    /// Total order over values used for sorting and range predicates;
    /// see [`ValueRef::total_cmp`], which this delegates to.
    #[inline]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_ref().total_cmp(&other.as_ref())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

/// A borrowed cell value: [`Value`] without ownership of string
/// payloads, read straight out of a typed column by
/// [`crate::Column::value_ref`].
///
/// Order, equality and hashing are exactly [`Value`]'s (`Value`
/// delegates to this type), so code that sorts, dedups or groups cells
/// can work on `ValueRef`s and clone only the values it keeps
/// ([`ValueRef::to_value`]).
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// Missing value (SQL `NULL`).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed UTF-8 string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl ValueRef<'_> {
    /// True iff the value is [`ValueRef::Null`].
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Numeric view of the value, if it has one (`Int`, `Float`, `Bool`).
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            ValueRef::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The owned [`Value`] (clones a string payload).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
        }
    }

    /// Total order over values used for sorting and range predicates.
    ///
    /// `Null` sorts first; numeric types compare by numeric value
    /// (`Int(2) == Float(2.0)`); distinct type families order as
    /// `Null < numeric/bool < Str`. Float `NaN` (only reachable if a caller
    /// constructs one directly) sorts after all other floats.
    #[inline]
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        fn rank(v: &ValueRef<'_>) -> u8 {
            match v {
                Null => 0,
                Int(_) | Float(_) | Bool(_) => 1,
                Str(_) => 2,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(fa), Some(fb)) => fa.total_cmp(&fb),
                _ => rank(a).cmp(&rank(b)),
            },
        }
    }
}

impl<'a> ValueRef<'a> {
    /// String view of the value, if it is a `Str`.
    #[inline]
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for ValueRef<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            ValueRef::Null => 0u8.hash(state),
            // Hash numerics through their f64 bit pattern so that
            // Int(2), Float(2.0) and Bool(..) hash consistently with `eq`.
            ValueRef::Int(i) => (*i as f64).to_bits().hash(state),
            ValueRef::Float(f) => f.to_bits().hash(state),
            ValueRef::Bool(b) => (if *b { 1.0f64 } else { 0.0f64 }).to_bits().hash(state),
            ValueRef::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(h(&Value::Bool(false)), h(&Value::Int(0)));
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::str("a"), Value::Int(1), Value::Null];
        vs.sort();
        assert!(vs[0].is_null());
        assert_eq!(vs[2], Value::str("a"));
    }

    #[test]
    fn nan_becomes_null() {
        let v: Value = f64::NAN.into();
        assert!(v.is_null());
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::str("apple") < Value::str("banana"));
    }

    #[test]
    fn display_roundtrip_simple() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }
}
