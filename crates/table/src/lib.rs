//! # rdi-table
//!
//! A small, dependency-light, in-memory **typed columnar table** substrate
//! used by every crate in the Responsible Data Integration (RDI) toolkit.
//!
//! The design goals are, in order:
//!
//! 1. **Correctness & clarity** — the RDI algorithms built on top (coverage
//!    analysis, distribution tailoring, join sampling, …) are the research
//!    contribution; the substrate must be easy to audit.
//! 2. **Determinism** — no hash-order dependence in any user-visible output.
//! 3. **Adequate performance** — columnar storage, hash joins, and
//!    predicate evaluation are efficient enough to run million-row
//!    experiments on a laptop.
//!
//! ## Quick tour
//!
//! ```
//! use rdi_table::{Schema, Field, DataType, Role, Table, Value, Predicate};
//!
//! let schema = Schema::new(vec![
//!     Field::new("age", DataType::Int),
//!     Field::new("race", DataType::Str).with_role(Role::Sensitive),
//!     Field::new("outcome", DataType::Bool).with_role(Role::Target),
//! ]);
//! let mut t = Table::new(schema);
//! t.push_row(vec![Value::Int(34), Value::str("white"), Value::Bool(true)]).unwrap();
//! t.push_row(vec![Value::Int(29), Value::str("black"), Value::Bool(false)]).unwrap();
//!
//! let adults = t.filter(&Predicate::ge("age", Value::Int(30)));
//! assert_eq!(adults.num_rows(), 1);
//! ```

#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod delta;
pub mod error;
pub mod group;
pub mod join;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod value;

pub use column::Column;
pub use csv::{read_csv_str, write_csv_string};
pub use delta::TableDelta;
pub use error::TableError;
pub use group::{GroupKey, GroupSpec, GroupStats};
pub use join::{hash_join, join_multiplicity, JoinSide};
pub use predicate::Predicate;
pub use schema::{DataType, Field, Role, Schema};
pub use table::Table;
pub use value::{Value, ValueRef};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TableError>;
