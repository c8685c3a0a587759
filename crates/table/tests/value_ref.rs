//! Property tests: borrowed cells (`ValueRef`) order, compare, hash
//! and round-trip exactly like the owned, Value-based reference they
//! replaced, on adversarial cells.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use rdi_table::{Column, DataType, Field, Schema, Table, Value};

/// The owned-value total order as it was before `Value` delegated to
/// `ValueRef`.
fn reference_cmp(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => 1,
            Value::Str(_) => 2,
        }
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (x, y) if rank(x) == 1 && rank(y) == 1 => match (x.as_f64(), y.as_f64()) {
            (Some(fx), Some(fy)) => fx.total_cmp(&fy),
            _ => rank(x).cmp(&rank(y)),
        },
        (x, y) => rank(x).cmp(&rank(y)),
    }
}

/// The owned-value hash as it was before `Value` delegated to
/// `ValueRef`.
fn reference_hash(v: &Value) -> u64 {
    let mut s = DefaultHasher::new();
    match v {
        Value::Null => 0u8.hash(&mut s),
        Value::Int(i) => (*i as f64).to_bits().hash(&mut s),
        Value::Float(f) => f.to_bits().hash(&mut s),
        Value::Bool(b) => (if *b { 1.0f64 } else { 0.0f64 }).to_bits().hash(&mut s),
        Value::Str(x) => {
            2u8.hash(&mut s);
            x.hash(&mut s);
        }
    }
    s.finish()
}

fn std_hash<T: Hash>(v: &T) -> u64 {
    let mut s = DefaultHasher::new();
    v.hash(&mut s);
    s.finish()
}

/// Variant and payload, with floats by bit pattern (`-0.0 ≠ 0.0`,
/// `NaN` comparable).
fn exact(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Mixed-type cells: `Int(1)`, `Float(1.0)` and `Bool(true)` are all
/// equal; signed zeros, infinities, NaN, extreme integers, empty and
/// non-ASCII strings.
fn arb_value() -> BoxedStrategy<Value> {
    const INTS: [i64; 7] = [-1, 0, 1, 2, 3, i64::MIN, i64::MAX];
    const FLOATS: [f64; 9] = [
        -0.0,
        0.0,
        1.0,
        2.0,
        2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -1e300,
    ];
    const STRS: [&str; 9] = ["", "a", "A", "é", "e\u{301}", "日本", "a\u{0}", " ", "1"];
    prop_oneof![
        1 => Just(Value::Null),
        2 => (0usize..INTS.len()).prop_map(|i| Value::Int(INTS[i])),
        2 => (0usize..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
        1 => any::<bool>().prop_map(Value::Bool),
        2 => (0usize..STRS.len()).prop_map(|i| Value::str(STRS[i])),
    ]
    .boxed()
}

/// A cell as the typed column stores it, read without `value_ref`.
fn reference_cell(col: &Column, i: usize) -> Value {
    match col {
        Column::Int(v) => v[i].map_or(Value::Null, Value::Int),
        Column::Float(v) => v[i].map_or(Value::Null, Value::Float),
        Column::Str(v) => v[i].clone().map_or(Value::Null, Value::Str),
        Column::Bool(v) => v[i].map_or(Value::Null, Value::Bool),
    }
}

/// One column per type, `0..max_rows` rows of adversarial cells (each
/// column's cells are the `arb_value` draws of its type, else null).
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    let dtypes = [
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Str,
    ];
    let row = prop::collection::vec(arb_value(), 4);
    (prop::collection::vec(row, 0..max_rows), any::<bool>()).prop_map(move |(rows, all_null)| {
        let fields = dtypes.iter().map(|&t| Field::new(t.name(), t)).collect();
        let mut t = Table::new(Schema::new(fields));
        for cells in rows {
            let typed = cells
                .into_iter()
                .zip(dtypes)
                .enumerate()
                .map(|(j, (v, t))| match (&v, t) {
                    // the first column may be all null
                    _ if all_null && j == 0 => Value::Null,
                    (Value::Int(_), DataType::Int)
                    | (Value::Float(_), DataType::Float)
                    | (Value::Bool(_), DataType::Bool)
                    | (Value::Str(_), DataType::Str) => v,
                    _ => Value::Null,
                })
                .collect();
            t.push_row(typed).unwrap();
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `ValueRef` (and `Value`, which delegates to it) orders, compares
    /// and hashes exactly like the owned reference, and round-trips.
    #[test]
    fn value_ref_agrees_with_value_reference(a in arb_value(), b in arb_value()) {
        let want = reference_cmp(&a, &b);
        prop_assert_eq!(a.as_ref().cmp(&b.as_ref()), want);
        prop_assert_eq!(a.as_ref().total_cmp(&b.as_ref()), want);
        prop_assert_eq!(a.cmp(&b), want);
        prop_assert_eq!(a.as_ref() == b.as_ref(), want == Ordering::Equal);
        prop_assert_eq!(a == b, want == Ordering::Equal);
        prop_assert_eq!(std_hash(&a.as_ref()), reference_hash(&a));
        prop_assert_eq!(std_hash(&a), reference_hash(&a));
        prop_assert_eq!(exact(&a.as_ref().to_value()), exact(&a));
        prop_assert_eq!(a.as_ref().is_null(), a.is_null());
        prop_assert_eq!(a.as_ref().as_str(), a.as_str());
        prop_assert_eq!(
            a.as_ref().as_f64().map(f64::to_bits),
            a.as_f64().map(f64::to_bits)
        );
    }

    /// Every cell of a typed column reads back through `value_ref` (and
    /// `value`) as exactly what the column stores; `distinct` equals the
    /// owned sort-and-dedup it replaced.
    #[test]
    fn column_cells_round_trip(t in arb_table(30)) {
        for (j, f) in t.schema().fields().iter().enumerate() {
            let col = t.column_at(j);
            for i in 0..t.num_rows() {
                let want = exact(&reference_cell(col, i));
                prop_assert_eq!(exact(&col.value_ref(i).to_value()), want.clone());
                prop_assert_eq!(exact(&col.value(i)), want);
                prop_assert_eq!(col.value_ref(i).is_null(), col.is_null(i));
            }
            let mut owned: Vec<Value> = (0..t.num_rows())
                .map(|i| reference_cell(col, i))
                .filter(|v| !v.is_null())
                .collect();
            owned.sort_by(reference_cmp);
            owned.dedup_by(|a, b| reference_cmp(a, b) == Ordering::Equal);
            let got: Vec<String> = t.distinct(&f.name).unwrap().iter().map(exact).collect();
            let want: Vec<String> = owned.iter().map(exact).collect();
            prop_assert_eq!(got, want);
        }
    }
}
