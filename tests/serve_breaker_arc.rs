//! The full session-breaker arc on a live serving session: two
//! consecutive failures trip the breaker open, the next batch sheds
//! inside the cooldown, the first batch after the cooldown admits
//! exactly one half-open probe, and the probe's success closes the
//! breaker again.
//!
//! This is the one check on the `serve.breaker_probes`,
//! `serve.breaker_recoveries` and `fault.breaker.closed` counters.
//! Deliberately a single `#[test]` in its own integration-test file:
//! it asserts global counter deltas, which another test's breakers in
//! the same process would race.

use responsible_data_integration::fault::RecoveryState;
use responsible_data_integration::obs;
use responsible_data_integration::prelude::*;

fn counter(name: &str) -> u64 {
    obs::counter(name).get()
}

fn coverage_probe(table: &str) -> ServeRequest {
    ServeRequest::CoverageProbe {
        table: table.to_string(),
        attributes: vec!["group".to_string()],
        threshold: 1,
    }
}

#[test]
fn breaker_trips_sheds_probes_and_recovers() {
    let schema = Schema::new(vec![
        Field::new("key", DataType::Str).with_role(Role::Id),
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
    ]);
    let mut lake = Table::new(schema);
    for (key, group) in [("k0", "maj"), ("k1", "min"), ("k2", "maj")] {
        lake.push_row(vec![Value::str(key), Value::str(group)])
            .unwrap();
    }
    let mut index = LakeIndex::default();
    index.register("lake00", lake, 1.0).unwrap();
    let mut session = ServeSession::new(
        index,
        SessionConfig {
            breaker_threshold: 2,
            breaker_cooldown_ticks: 2,
            seed: 9,
            ..SessionConfig::default()
        },
    );
    let healthy = coverage_probe("lake00");

    let names = [
        "serve.breaker_trips",
        "serve.breaker_probes",
        "serve.breaker_recoveries",
        "serve.shed",
        "fault.breaker.closed",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();

    // tick 1: two unknown-table failures → the breaker trips open.
    let trip = session.submit_batch(&[coverage_probe("ghost00"), coverage_probe("ghost01")]);
    assert!(trip.responses.iter().all(|r| r.is_err()));
    assert_eq!(session.breaker_state(), RecoveryState::Open);
    // tick 2: still inside the cooldown → the whole batch sheds.
    let shed = session.submit_batch(std::slice::from_ref(&healthy));
    assert_eq!(shed.shed, 1, "open breaker must shed the batch");
    // tick 3: cooldown elapsed → exactly one half-open probe; its
    // success closes the breaker (counted as a recovery).
    let probe = session.submit_batch(std::slice::from_ref(&healthy));
    assert!(probe.responses[0].is_ok(), "probe must succeed");
    // tick 4: closed again — normal admission.
    let closed = session.submit_batch(&[healthy]);
    assert!(closed.responses[0].is_ok(), "closed breaker admits");
    assert_eq!(session.breaker_state(), RecoveryState::Closed);

    let delta: Vec<u64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| counter(n) - b)
        .collect();
    let (trips, probes, recoveries) = (delta[0], delta[1], delta[2]);
    assert_eq!((trips, probes, recoveries), (1, 1, 1));
    assert_eq!(delta[3], 1, "serve.shed");
    assert_eq!(delta[4], 1, "fault.breaker.closed");
}
