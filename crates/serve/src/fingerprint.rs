//! Content fingerprints for cache keying — incrementally maintainable.
//!
//! A cached sketch is only valid for the exact table content it was
//! built from, so cache keys pair the table id with a 64-bit content
//! fingerprint: an order-dependent fold over the schema (field names,
//! types, roles) and every value, built from the same seeded hashing
//! primitives the sketches themselves use (`rdi_discovery::hash`). Two
//! tables with equal schema and equal values always fingerprint
//! identically across processes; any edit — a renamed column, a single
//! changed cell, a reordered row — changes the fingerprint and misses
//! the cache.
//!
//! The fold is **row-major with the row count folded last**, so a lake
//! that applies deltas can keep an [`FpState`] per table and refresh
//! the fingerprint in O(delta): an append hashes only the new rows and
//! extends the running fold; a delete re-folds the retained per-row
//! hashes (u64 mixing only — no cell is ever re-hashed). A cold
//! [`table_fingerprint`] of the mutated table is always bitwise equal
//! to the maintained state's [`FpState::fingerprint`] — the invariant
//! the whole incremental-maintenance layer keys off.

use rdi_discovery::hash::{hash_bytes, hash_value_ref, splitmix64};
use rdi_table::Table;

/// Seed domain for schema bytes, distinct from value hashing so a
/// column *named* like a value never collides with one *containing* it.
const SCHEMA_SEED: u64 = 0x5348_454d_4121;
/// Seed domain for cell values.
const VALUE_SEED: u64 = 0x5641_4c55_4521;
/// Initial state of every per-row hash chain.
const ROW_SEED: u64 = 0x524f_5721;

/// Order-dependent combine: position matters, so row/column
/// permutations of the same multiset fingerprint differently (a sketch
/// built over a column is positionally agnostic, but equality of
/// content is the conservative invariant to key on).
fn fold(h: u64, x: u64) -> u64 {
    splitmix64(h.rotate_left(7) ^ x)
}

/// Incrementally maintained fingerprint state for one table.
///
/// Holds the schema fold (`base`), one content hash per row, and the
/// running fold of `base` with every row hash in row order. The
/// exposed fingerprint folds the row count in last, so appends never
/// have to undo it.
#[derive(Debug, Clone)]
pub struct FpState {
    /// Seed + schema fold — rows are folded on top of this.
    base: u64,
    /// Per-row content hashes, in row order.
    rows: Vec<u64>,
    /// `base` folded with every entry of `rows`, in order.
    folded: u64,
}

impl FpState {
    /// Build the state from a table's full content (the cold path).
    pub fn from_table(table: &Table) -> Self {
        let mut base = splitmix64(0x7264_692d_7365_7276); // "rdi-serv"
        for field in table.schema().fields() {
            base = fold(base, hash_bytes(field.name.as_bytes(), SCHEMA_SEED));
            base = fold(
                base,
                hash_bytes(format!("{:?}", field.dtype).as_bytes(), SCHEMA_SEED),
            );
            base = fold(
                base,
                hash_bytes(format!("{:?}", field.role).as_bytes(), SCHEMA_SEED),
            );
        }
        let rows: Vec<u64> = (0..table.num_rows())
            .map(|ri| Self::row_hash(table, ri))
            .collect();
        let folded = rows.iter().fold(base, |h, &r| fold(h, r));
        FpState { base, rows, folded }
    }

    /// Content hash of one row: a fold over its cells in column order.
    fn row_hash(table: &Table, ri: usize) -> u64 {
        let mut h = ROW_SEED;
        for ci in 0..table.num_columns() {
            h = fold(
                h,
                hash_value_ref(table.column_at(ci).value_ref(ri), VALUE_SEED),
            );
        }
        h
    }

    /// The table's current content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        fold(self.folded, self.rows.len() as u64)
    }

    /// Rows currently covered by the state.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Absorb appended rows: hash only the new rows, extend the fold.
    /// O(delta rows × columns).
    pub fn append(&mut self, appended: &Table) {
        for ri in 0..appended.num_rows() {
            let r = Self::row_hash(appended, ri);
            self.folded = fold(self.folded, r);
            self.rows.push(r);
        }
    }

    /// Absorb a row deletion: drop the named row hashes and re-fold the
    /// survivors. O(remaining rows) u64 folds — no cell is re-hashed.
    /// Indices beyond the current row count are ignored (the table
    /// mutation itself bounds-checks; the state mirrors what the table
    /// accepted).
    pub fn delete(&mut self, sorted_indices: &[usize]) {
        let mut doomed = sorted_indices.iter().copied().peekable();
        let mut i = 0usize;
        self.rows.retain(|_| {
            let drop_it = doomed.peek() == Some(&i);
            if drop_it {
                doomed.next();
            }
            i += 1;
            !drop_it
        });
        self.folded = self.rows.iter().fold(self.base, |h, &r| fold(h, r));
    }

    /// Absorb a drop-to-empty (schema retained, all rows gone).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.folded = self.base;
    }
}

/// Fingerprint a table's full content: schema, then every row's values
/// in column order, then the row count.
pub fn table_fingerprint(table: &Table) -> u64 {
    FpState::from_table(table).fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, TableDelta, Value};

    fn two_col(vals: &[(&str, f64)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (k, v) in vals {
            t.push_row(vec![Value::str(*k), Value::Float(*v)]).unwrap();
        }
        t
    }

    #[test]
    fn equal_content_equal_fingerprint() {
        let a = two_col(&[("x", 1.0), ("y", 2.0)]);
        let b = two_col(&[("x", 1.0), ("y", 2.0)]);
        assert_eq!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn any_edit_changes_the_fingerprint() {
        let base = two_col(&[("x", 1.0), ("y", 2.0)]);
        let cell = two_col(&[("x", 1.0), ("y", 2.5)]);
        let order = two_col(&[("y", 2.0), ("x", 1.0)]);
        assert_ne!(table_fingerprint(&base), table_fingerprint(&cell));
        assert_ne!(table_fingerprint(&base), table_fingerprint(&order));
    }

    #[test]
    fn schema_rename_changes_the_fingerprint() {
        let a = two_col(&[("x", 1.0)]);
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("v", DataType::Float),
        ]);
        let mut b = Table::new(schema);
        b.push_row(vec![Value::str("x"), Value::Float(1.0)])
            .unwrap();
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn empty_tables_with_different_schemas_differ() {
        let a = Table::new(Schema::new(vec![Field::new("a", DataType::Int)]));
        let b = Table::new(Schema::new(vec![Field::new("b", DataType::Int)]));
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn incremental_state_tracks_cold_fingerprint_through_deltas() {
        let mut live = two_col(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]);
        let mut fp = FpState::from_table(&live);
        assert_eq!(fp.fingerprint(), table_fingerprint(&live));

        // append
        let extra = two_col(&[("d", 4.0), ("e", 5.0)]);
        live.apply_delta(&TableDelta::Append(extra.clone()))
            .unwrap();
        fp.append(&extra);
        assert_eq!(fp.fingerprint(), table_fingerprint(&live));
        assert_eq!(fp.num_rows(), live.num_rows());

        // delete (unsorted, duplicated input — state sees it sorted+deduped)
        live.apply_delta(&TableDelta::Delete(vec![3, 0, 0]))
            .unwrap();
        fp.delete(&[0, 3]);
        assert_eq!(fp.fingerprint(), table_fingerprint(&live));

        // drop to empty
        live.apply_delta(&TableDelta::Drop).unwrap();
        fp.clear();
        assert_eq!(fp.fingerprint(), table_fingerprint(&live));
        // an empty table still fingerprints its schema
        let other = Table::new(Schema::new(vec![Field::new("z", DataType::Int)]));
        assert_ne!(fp.fingerprint(), table_fingerprint(&other));
    }

    #[test]
    fn append_then_delete_roundtrips_to_the_original_fingerprint() {
        let base = two_col(&[("x", 1.0), ("y", 2.0)]);
        let mut fp = FpState::from_table(&base);
        let original = fp.fingerprint();
        fp.append(&two_col(&[("z", 9.0)]));
        assert_ne!(fp.fingerprint(), original);
        fp.delete(&[2]);
        assert_eq!(fp.fingerprint(), original, "same content, same fingerprint");
    }
}
