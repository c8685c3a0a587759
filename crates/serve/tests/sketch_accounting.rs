//! Exact sketch-work accounting of the serving index: warm queries,
//! delta maintenance and warm replays build (or rebuild) exactly the
//! sketches they should.
//!
//! The assertions compare the process-wide `rdi-obs` counters
//! `discovery.sketches_built` and `sketch.rebuilds` before and after an
//! operation, so no other sketch-building test may run concurrently in
//! the same process. These tests therefore live in their own
//! integration-test binary and each takes one shared lock.

use std::sync::{Mutex, MutexGuard};

use rdi_serve::{LakeIndex, LakeIndexConfig, ServeRequest, ServeSession, SessionConfig};
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, TableDelta, Value};
use rdi_tailor::DtProblem;

/// Serialises this binary's tests.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn str_table(col: &str, vals: &[&str]) -> Table {
    let schema = Schema::new(vec![Field::new(col, DataType::Str)]);
    let mut t = Table::new(schema);
    for v in vals {
        t.push_row(vec![Value::str(*v)]).unwrap();
    }
    t
}

fn index_with(tables: &[(&str, &[&str])]) -> LakeIndex {
    let mut idx = LakeIndex::default();
    for (id, vals) in tables {
        idx.register(*id, str_table("key", vals), 1.0).unwrap();
    }
    idx
}

/// Bitwise equality of two rankings.
fn assert_ranking_eq(a: &[(String, f64)], b: &[(String, f64)]) {
    assert_eq!(a.len(), b.len());
    for ((ai, asc), (bi, bsc)) in a.iter().zip(b) {
        assert_eq!(ai, bi);
        assert_eq!(asc.to_bits(), bsc.to_bits(), "scores byte-identical");
    }
}

fn grouped(rows: &[(&str, f64)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("x", DataType::Float),
    ]);
    let mut t = Table::new(schema);
    for (g, x) in rows {
        t.push_row(vec![Value::str(*g), Value::Float(*x)]).unwrap();
    }
    t
}

fn session() -> ServeSession {
    let mut idx = LakeIndex::new(LakeIndexConfig::default());
    idx.register("abc", str_table("key", &["a", "b", "c"]), 1.0)
        .unwrap();
    idx.register("abx", str_table("key", &["a", "b", "x"]), 1.0)
        .unwrap();
    let rows: Vec<(&str, f64)> = (0..60)
        .map(|i| (if i % 3 == 0 { "min" } else { "maj" }, i as f64))
        .collect();
    idx.register("pop", grouped(&rows), 1.0).unwrap();
    ServeSession::new(idx, SessionConfig::default())
}

fn mixed_batch() -> Vec<ServeRequest> {
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["group"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), 5),
            (GroupKey(vec![Value::str("min")]), 5),
        ],
    );
    vec![
        ServeRequest::UnionTopK {
            query: str_table("key", &["a", "b", "c"]),
            k: 2,
        },
        ServeRequest::JoinableTopK {
            query: str_table("key", &["a", "b"]),
            column: "key".into(),
            k: 2,
        },
        ServeRequest::CoverageProbe {
            table: "pop".into(),
            attributes: vec!["group".into()],
            threshold: 10,
        },
        ServeRequest::TailorRun {
            problem,
            sources: vec!["pop".into()],
            max_draws: 5_000,
        },
    ]
}

#[test]
fn repeat_queries_build_no_new_sketches() {
    let _serial = serial();
    let mut idx = index_with(&[("t1", &["a", "b", "c"]), ("t2", &["x", "y", "z"])]);
    let q = str_table("key", &["a", "b"]);
    let built = rdi_obs::counter("discovery.sketches_built");
    let first = idx.union_top_k(&q, 2).unwrap();
    let after_first = built.get();
    let second = idx.union_top_k(&q, 2).unwrap();
    assert_eq!(built.get(), after_first, "warm query builds nothing");
    assert_eq!(first, second);
}

#[test]
fn append_delta_keeps_answers_bitwise_identical_to_cold_rebuild() {
    let _serial = serial();
    let mut idx = index_with(&[
        ("t1", &["a", "b", "c"]),
        ("t2", &["x", "y", "z"]),
        ("t3", &["a", "x", "q"]),
    ]);
    let q = str_table("key", &["a", "b", "x"]);
    // warm both sketch kinds so maintenance has something to do
    idx.union_top_k(&q, 3).unwrap();
    idx.joinable_top_k(&q, "key", 3).unwrap();

    let delta = TableDelta::Append(str_table("key", &["b", "w"]));
    let built = rdi_obs::counter("discovery.sketches_built");
    let before = built.get();
    assert_eq!(idx.apply_delta("t1", &delta).unwrap(), 2);
    let union_after = idx.union_top_k(&q, 3).unwrap();
    let join_after = idx.joinable_top_k(&q, "key", 3).unwrap();
    assert_eq!(
        built.get(),
        before,
        "delta maintenance and warm re-query build zero sketches"
    );

    // cold reference: a fresh index registered with the final content
    let mut cold = index_with(&[
        ("t1", &["a", "b", "c", "b", "w"]),
        ("t2", &["x", "y", "z"]),
        ("t3", &["a", "x", "q"]),
    ]);
    assert_ranking_eq(&union_after, &cold.union_top_k(&q, 3).unwrap());
    assert_ranking_eq(&join_after, &cold.joinable_top_k(&q, "key", 3).unwrap());
}

#[test]
fn delete_delta_repairs_incrementally_then_rebuilds_past_debt() {
    let _serial = serial();
    let config = LakeIndexConfig {
        deletion_debt_threshold: 2,
        ..LakeIndexConfig::default()
    };
    let mut idx = LakeIndex::new(config);
    idx.register("t1", str_table("key", &["a", "b", "c", "d", "e", "f"]), 1.0)
        .unwrap();
    idx.register("t2", str_table("key", &["a", "x"]), 1.0)
        .unwrap();
    let q = str_table("key", &["a", "b", "c"]);
    idx.union_top_k(&q, 2).unwrap();

    // 2 deleted rows: at the threshold, still incremental
    let rebuilds = rdi_obs::counter("sketch.rebuilds");
    let before = rebuilds.get();
    assert_eq!(
        idx.apply_delta("t1", &TableDelta::Delete(vec![4, 5]))
            .unwrap(),
        2
    );
    assert_eq!(rebuilds.get(), before, "below/at threshold: no rebuild");
    let mut cold = index_with(&[("t1", &["a", "b", "c", "d"]), ("t2", &["a", "x"])]);
    assert_ranking_eq(
        &idx.union_top_k(&q, 2).unwrap(),
        &cold.union_top_k(&q, 2).unwrap(),
    );

    // one more deleted row crosses the threshold → counted rebuild
    assert_eq!(
        idx.apply_delta("t1", &TableDelta::Delete(vec![3])).unwrap(),
        1
    );
    assert!(rebuilds.get() > before, "debt crossed: rebuild counted");
    let mut cold = index_with(&[("t1", &["a", "b", "c"]), ("t2", &["a", "x"])]);
    assert_ranking_eq(
        &idx.union_top_k(&q, 2).unwrap(),
        &cold.union_top_k(&q, 2).unwrap(),
    );
}

#[test]
fn warm_replay_is_bitwise_identical_and_builds_nothing() {
    let _serial = serial();
    let mut s = session();
    let batch = mixed_batch();
    let cold = s.submit_batch(&batch);
    // Re-serve the same stream over the warm index: same arrival
    // indices, so even the randomized tailor run replays exactly.
    let mut warm_session = ServeSession::new(s.into_index(), SessionConfig::default());
    let built = rdi_obs::counter("discovery.sketches_built").get();
    let warm = warm_session.submit_batch(&batch);
    assert_eq!(
        rdi_obs::counter("discovery.sketches_built").get(),
        built,
        "warm replay rebuilds no sketches"
    );
    assert_eq!(cold.responses, warm.responses);
}
