//! Missing-value imputation strategies.

use rdi_table::{GroupSpec, Table, TableError, Value};

/// How to fill (or drop) missing cells of a numeric column.
#[derive(Debug, Clone)]
pub enum ImputeStrategy {
    /// Remove rows where the column is null (the tutorial's resolution
    /// (i) — shrinks small groups further).
    DropRows,
    /// Replace with the column's global mean (resolution (ii) — pulls
    /// minority values toward the majority).
    Mean,
    /// Replace with the mean of the row's demographic group (per the
    /// given spec); falls back to the global mean for groups with no
    /// observed values.
    GroupMean(GroupSpec),
    /// Hot-deck: fill a missing cell with the mean target value of its
    /// `k` nearest donors, by Euclidean distance on the feature columns.
    /// Donors are the rows with a numeric target and no null feature;
    /// among donors at equal distance the earlier row wins. A missing
    /// cell whose own features are incomplete, or a table with no
    /// donors, is left null.
    HotDeckKnn {
        /// Numeric (`Int`, `Float` or `Bool`) columns used as the
        /// distance space.
        features: Vec<String>,
        /// Number of neighbors averaged (all donors when fewer); must be
        /// at least 1.
        k: usize,
    },
    /// Simple-regression imputation: fit ordinary least squares
    /// `target ≈ a + b·predictor` on complete rows and predict missing
    /// cells from the predictor (falls back to the target's mean when the
    /// predictor is constant or itself missing).
    Regression {
        /// Numeric predictor column.
        predictor: String,
    },
}

/// Impute `column` of `table` under a strategy; returns the new table.
///
/// Fails on an unknown column, on a fill value the column's type
/// rejects, and on `HotDeckKnn` with `k = 0`.
pub fn impute(table: &Table, column: &str, strategy: &ImputeStrategy) -> rdi_table::Result<Table> {
    let (out, filled) = match strategy {
        ImputeStrategy::DropRows => {
            let target = table.column(column)?;
            let keep: Vec<usize> = (0..table.num_rows())
                .filter(|&i| !target.is_null(i))
                .collect();
            (table.take(&keep), 0)
        }
        ImputeStrategy::Mean => {
            let mean = table.mean(column)?.unwrap_or(0.0);
            fill_nulls(table, column, |_i| Ok(Some(mean)))?
        }
        ImputeStrategy::GroupMean(spec) => {
            let global = table.mean(column)?.unwrap_or(0.0);
            let stats = spec.stats(table, column)?;
            // Sorted map: group-mean lookup must not depend on hash order
            // (lint rule R1), and BTreeMap keeps snapshots reproducible.
            let means: std::collections::BTreeMap<_, f64> = stats
                .into_iter()
                .map(|(k, s)| (k, if s.non_null > 0 { s.mean } else { global }))
                .collect();
            fill_nulls(table, column, |i| {
                let key = spec.key_of(table, i)?;
                Ok(Some(means.get(&key).copied().unwrap_or(global)))
            })?
        }
        ImputeStrategy::HotDeckKnn { features, k } => hot_deck(table, column, features, *k)?,
        ImputeStrategy::Regression { predictor } => {
            let pcol = table.column(predictor)?;
            let tcol = table.column(column)?;
            // fit OLS on complete (predictor, target) pairs
            let (xs, ys): (Vec<f64>, Vec<f64>) = pcol
                .iter_f64()
                .zip(tcol.iter_f64())
                .filter_map(|(x, y)| x.zip(y))
                .unzip();
            let fallback = table.mean(column)?.unwrap_or(0.0);
            let fit = if xs.len() >= 2 {
                let n = xs.len() as f64;
                let mx = xs.iter().sum::<f64>() / n;
                let my = ys.iter().sum::<f64>() / n;
                let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
                if sxx > 1e-12 {
                    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
                    let b = sxy / sxx;
                    Some((my - b * mx, b))
                } else {
                    None
                }
            } else {
                None
            };
            fill_nulls(table, column, |i| {
                Ok(Some(match (fit, pcol.value(i).as_f64()) {
                    (Some((a, b)), Some(x)) => a + b * x,
                    _ => fallback,
                }))
            })?
        }
    };
    rdi_obs::counter("cleaning.cells_imputed").add(filled);
    Ok(out)
}

/// The [`ImputeStrategy::HotDeckKnn`] arm. Per missing row it evaluates
/// every donor's distance and selects the `k` nearest in linear time,
/// sorting only those `k`. Selection and sort share one total key
/// (distance in [`f64::total_cmp`] order, then donor row order), so the
/// neighbours and the order they are summed in match a stable sort of
/// all donors by distance.
fn hot_deck(
    table: &Table,
    column: &str,
    features: &[String],
    k: usize,
) -> rdi_table::Result<(Table, u64)> {
    if k == 0 {
        return Err(TableError::SchemaMismatch(
            "hot-deck imputation needs k ≥ 1 neighbours".into(),
        ));
    }
    let feat_cols = features
        .iter()
        .map(|f| table.column(f))
        .collect::<rdi_table::Result<Vec<_>>>()?;
    let target = table.column(column)?;
    let (n, d) = (table.num_rows(), features.len());
    // Row-major coordinates of every row; `complete[i]` is false when a
    // feature of row `i` is null or non-numeric.
    let mut coords = vec![0.0; n * d];
    let mut complete = vec![true; n];
    for (f, col) in feat_cols.iter().enumerate() {
        for (i, x) in col.iter_f64().enumerate() {
            match x {
                Some(x) => coords[i * d + f] = x,
                None => complete[i] = false,
            }
        }
    }
    let mut donor_coords = Vec::new();
    let mut donor_targets = Vec::new();
    for (i, y) in target.iter_f64().enumerate() {
        if let (Some(y), true) = (y, complete[i]) {
            donor_coords.extend_from_slice(&coords[i * d..(i + 1) * d]);
            donor_targets.push(y);
        }
    }
    let m = donor_targets.len();
    let kk = k.min(m);
    let mut scratch: Vec<(i64, usize)> = Vec::with_capacity(m);
    let mut distances = 0u64;
    let out = fill_nulls(table, column, |i| {
        if m == 0 || !complete[i] {
            return Ok(None);
        }
        let p = &coords[i * d..(i + 1) * d];
        scratch.clear();
        scratch.extend((0..m).map(|j| {
            let q = &donor_coords[j * d..(j + 1) * d];
            let dist: f64 = p.iter().zip(q).map(|(a, b)| (a - b).powi(2)).sum();
            (total_order_key(dist), j)
        }));
        distances += m as u64;
        scratch.select_nth_unstable(kk - 1);
        let head = &mut scratch[..kk];
        head.sort_unstable();
        let sum = head.iter().map(|&(_, j)| donor_targets[j]).sum::<f64>();
        Ok(Some(sum / kk as f64))
    })?;
    rdi_obs::counter("cleaning.knn_distances").add(distances);
    Ok(out)
}

/// An integer that orders like `x` under [`f64::total_cmp`] (the same
/// bit transform, done once per distance instead of per comparison).
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Fill each null cell of `column` with `fill(row)`, leaving it null
/// where `fill` yields `None`; returns the new table and the number of
/// cells filled.
fn fill_nulls(
    table: &Table,
    column: &str,
    mut fill: impl FnMut(usize) -> rdi_table::Result<Option<f64>>,
) -> rdi_table::Result<(Table, u64)> {
    let target = table.column(column)?;
    let mut out = table.clone();
    let mut filled = 0;
    for i in (0..table.num_rows()).filter(|&i| target.is_null(i)) {
        if let Some(v) = fill(i)? {
            out.set_value(i, column, Value::Float(v))?;
            filled += 1;
        }
    }
    Ok((out, filled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Role, Schema};

    fn t() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
            Field::new("aux", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        let rows: Vec<(&str, Option<f64>, f64)> = vec![
            ("a", Some(1.0), 0.0),
            ("a", Some(3.0), 0.1),
            ("a", None, 0.05),
            ("b", Some(10.0), 5.0),
            ("b", None, 5.1),
        ];
        for (g, x, aux) in rows {
            t.push_row(vec![
                Value::str(g),
                x.map_or(Value::Null, Value::Float),
                Value::Float(aux),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn drop_rows_removes_incomplete() {
        let out = impute(&t(), "x", &ImputeStrategy::DropRows).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.column("x").unwrap().null_count(), 0);
    }

    #[test]
    fn mean_fills_with_global_mean() {
        let out = impute(&t(), "x", &ImputeStrategy::Mean).unwrap();
        // global mean of (1, 3, 10) = 14/3
        let v = out.value(2, "x").unwrap().as_f64().unwrap();
        assert!((v - 14.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.column("x").unwrap().null_count(), 0);
    }

    #[test]
    fn group_mean_respects_groups() {
        let spec = GroupSpec::new(vec!["g"]);
        let out = impute(&t(), "x", &ImputeStrategy::GroupMean(spec)).unwrap();
        // group a mean = 2.0, group b mean = 10.0
        assert_eq!(out.value(2, "x").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(out.value(4, "x").unwrap().as_f64().unwrap(), 10.0);
    }

    #[test]
    fn hotdeck_uses_nearest_neighbors() {
        let out = impute(
            &t(),
            "x",
            &ImputeStrategy::HotDeckKnn {
                features: vec!["aux".into()],
                k: 1,
            },
        )
        .unwrap();
        // row 2 (aux=0.05) is nearest to row 0 (aux=0.0) → x = 1.0
        assert_eq!(out.value(2, "x").unwrap().as_f64().unwrap(), 1.0);
        // row 4 (aux=5.1) nearest to row 3 (aux=5.0) → x = 10.0
        assert_eq!(out.value(4, "x").unwrap().as_f64().unwrap(), 10.0);
    }

    #[test]
    fn hotdeck_k2_averages() {
        let out = impute(
            &t(),
            "x",
            &ImputeStrategy::HotDeckKnn {
                features: vec!["aux".into()],
                k: 2,
            },
        )
        .unwrap();
        // row 2 neighbors: rows 0 (x=1) and 1 (x=3) → 2.0
        assert_eq!(out.value(2, "x").unwrap().as_f64().unwrap(), 2.0);
    }

    #[test]
    fn hotdeck_rejects_zero_k() {
        let strat = ImputeStrategy::HotDeckKnn {
            features: vec!["aux".into()],
            k: 0,
        };
        let err = impute(&t(), "x", &strat).unwrap_err();
        assert!(matches!(err, TableError::SchemaMismatch(_)), "{err}");
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// Brute-force hot-deck reference: read every cell as a dynamic
    /// value, stable-sort all donors by distance, average the first `k`.
    fn hot_deck_reference(t: &Table, column: &str, features: &[String], k: usize) -> Vec<Value> {
        let point = |i: usize| -> Option<Vec<f64>> {
            features
                .iter()
                .map(|f| t.value(i, f).unwrap().as_f64())
                .collect()
        };
        let donors: Vec<(Vec<f64>, f64)> = (0..t.num_rows())
            .filter_map(|i| Some((point(i)?, t.value(i, column).unwrap().as_f64()?)))
            .collect();
        (0..t.num_rows())
            .map(|i| {
                let v = t.value(i, column).unwrap();
                let Some(p) = point(i).filter(|_| v.is_null() && !donors.is_empty()) else {
                    return v;
                };
                let mut dists: Vec<(f64, f64)> = donors
                    .iter()
                    .map(|(q, y)| (p.iter().zip(q).map(|(a, b)| (a - b).powi(2)).sum(), *y))
                    .collect();
                dists.sort_by(|a, b| a.0.total_cmp(&b.0));
                let kk = k.min(dists.len());
                Value::Float(dists[..kk].iter().map(|(_, y)| y).sum::<f64>() / kk as f64)
            })
            .collect()
    }

    proptest::proptest! {
        /// The selection-based hot-deck fills every cell bit for bit as
        /// the brute-force reference does, on inputs built to stress it:
        /// few distinct coordinates (ties), `k` from 1 to past the donor
        /// count, tables with no donors, null features, `Int`/`Bool`
        /// features, zero to two features, and `Str` targets.
        #[test]
        fn hotdeck_matches_brute_force_reference(
            rows in proptest::collection::vec(((0u8..4, -50.0f64..50.0), (0u8..5, 0u8..5)), 0..14),
            kinds in (0u8..3, 0u8..3),
            str_target in proptest::bool::ANY,
            nfeat in 0usize..3,
            k in 1usize..16,
        ) {
            // feature kind 0 = Float, 1 = Int, 2 = Bool; raw cell 0 = null,
            // 1..5 = one of four values
            let kind = |c: u8| [DataType::Float, DataType::Int, DataType::Bool][c as usize];
            let cell = |c: u8, raw: u8| match (c, raw) {
                (_, 0) => Value::Null,
                (0, r) => Value::Float(f64::from(r) * 0.5),
                (1, r) => Value::Int(i64::from(r) - 2),
                (_, r) => Value::Bool(r % 2 == 0),
            };
            let schema = Schema::new(vec![
                Field::new("y", if str_target { DataType::Str } else { DataType::Float }),
                Field::new("f0", kind(kinds.0)),
                Field::new("f1", kind(kinds.1)),
            ]);
            let mut t = Table::new(schema);
            for &((present, y), (a, b)) in &rows {
                let y = match (present, str_target) {
                    (0, _) => Value::Null,
                    (_, true) => Value::str(format!("s{present}")),
                    (_, false) => Value::Float(y),
                };
                t.push_row(vec![y, cell(kinds.0, a), cell(kinds.1, b)]).unwrap();
            }
            let features: Vec<String> = ["f0", "f1"][..nfeat].iter().map(|f| f.to_string()).collect();
            let expect = hot_deck_reference(&t, "y", &features, k);
            let out = impute(&t, "y", &ImputeStrategy::HotDeckKnn { features, k }).unwrap();
            for (i, want) in expect.iter().enumerate() {
                let got = out.value(i, "y").unwrap();
                match (&got, want) {
                    (Value::Float(g), Value::Float(w)) => {
                        proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "row {}", i)
                    }
                    _ => proptest::prop_assert_eq!(&got, want, "row {}", i),
                }
            }
        }
    }

    #[test]
    fn regression_imputes_from_predictor() {
        // x = 2·aux + 1 exactly on complete rows
        let schema = Schema::new(vec![
            Field::new("aux", DataType::Float),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..10 {
            let aux = i as f64;
            t.push_row(vec![Value::Float(aux), Value::Float(2.0 * aux + 1.0)])
                .unwrap();
        }
        t.push_row(vec![Value::Float(20.0), Value::Null]).unwrap();
        let out = impute(
            &t,
            "x",
            &ImputeStrategy::Regression {
                predictor: "aux".into(),
            },
        )
        .unwrap();
        let v = out.value(10, "x").unwrap().as_f64().unwrap();
        assert!((v - 41.0).abs() < 1e-9, "v={v}");
    }

    #[test]
    fn regression_falls_back_on_constant_predictor() {
        let schema = Schema::new(vec![
            Field::new("aux", DataType::Float),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Float(1.0), Value::Float(10.0)])
            .unwrap();
        t.push_row(vec![Value::Float(1.0), Value::Float(20.0)])
            .unwrap();
        t.push_row(vec![Value::Float(1.0), Value::Null]).unwrap();
        let out = impute(
            &t,
            "x",
            &ImputeStrategy::Regression {
                predictor: "aux".into(),
            },
        )
        .unwrap();
        assert_eq!(out.value(2, "x").unwrap().as_f64().unwrap(), 15.0);
    }

    proptest::proptest! {
        /// Group-mean imputation must be a pure function of the table
        /// contents: repeated runs are bitwise identical (no hash-order
        /// dependence — guards the R1 conversion of the means map), and
        /// every filled cell matches an independently computed group mean.
        #[test]
        fn group_mean_impute_is_order_invariant(
            raw in proptest::collection::vec(
                (0u8..3, -100.0f64..100.0, 0u8..4),
                1..40,
            ),
        ) {
            // third component: 0 = missing cell, 1..4 = present
            let rows: Vec<(u8, Option<f64>)> = raw
                .iter()
                .map(|&(g, x, m)| (g, (m != 0).then_some(x)))
                .collect();
            let schema = Schema::new(vec![
                Field::new("g", DataType::Str).with_role(Role::Sensitive),
                Field::new("x", DataType::Float),
            ]);
            let mut t = Table::new(schema);
            for (g, x) in &rows {
                t.push_row(vec![
                    Value::str(format!("g{g}")),
                    x.map_or(Value::Null, Value::Float),
                ])
                .unwrap();
            }
            let spec = GroupSpec::new(vec!["g"]);
            let a = impute(&t, "x", &ImputeStrategy::GroupMean(spec.clone())).unwrap();
            let b = impute(&t, "x", &ImputeStrategy::GroupMean(spec)).unwrap();
            // reference group means, computed in row order per group
            let mut sums: std::collections::BTreeMap<u8, (f64, usize)> =
                std::collections::BTreeMap::new();
            let mut gsum = 0.0;
            let mut gcnt = 0usize;
            for (g, x) in &rows {
                if let Some(x) = x {
                    let e = sums.entry(*g).or_insert((0.0, 0));
                    e.0 += x;
                    e.1 += 1;
                    gsum += x;
                    gcnt += 1;
                }
            }
            let global = if gcnt > 0 { gsum / gcnt as f64 } else { 0.0 };
            for (i, (g, x)) in rows.iter().enumerate() {
                let va = a.value(i, "x").unwrap().as_f64().unwrap();
                let vb = b.value(i, "x").unwrap().as_f64().unwrap();
                proptest::prop_assert_eq!(va.to_bits(), vb.to_bits());
                if x.is_none() {
                    let expect = match sums.get(g) {
                        Some(&(s, c)) if c > 0 => s / c as f64,
                        _ => global,
                    };
                    proptest::prop_assert!((va - expect).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn original_values_untouched() {
        for strat in [
            ImputeStrategy::Mean,
            ImputeStrategy::GroupMean(GroupSpec::new(vec!["g"])),
        ] {
            let out = impute(&t(), "x", &strat).unwrap();
            assert_eq!(out.value(0, "x").unwrap().as_f64().unwrap(), 1.0);
            assert_eq!(out.value(3, "x").unwrap().as_f64().unwrap(), 10.0);
        }
    }
}
