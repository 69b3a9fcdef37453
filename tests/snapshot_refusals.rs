//! Restore refusals: a snapshot whose checksum holds but whose state this
//! engine cannot resume is refused with a typed [`SnapshotError`] at
//! restore time, never accepted and then panicking at the end of the run.

use parallelxl::apps::Scale;
use parallelxl::sim::json;
use parallelxl::{
    ClusterPoint, DesignPoint, JsonValue, PointArch, RunError, RunSpec, SessionStatus, SimSession,
    Snapshot, SnapshotError,
};

/// The snapshot text of `spec` paused at cycle 1,000.
fn paused_at_cycle_1000(spec: &RunSpec) -> Snapshot {
    let mut session = SimSession::start(spec).unwrap().expect("variant exists");
    let clock = session.clock();
    match session.advance(Some(clock.cycles_to_time(1_000))).unwrap() {
        SessionStatus::Paused { .. } => {}
        SessionStatus::Finished(_) => panic!("{spec:?} finished before cycle 1000"),
    }
    Snapshot::from_json(&session.snapshot().to_json()).unwrap()
}

/// The malformed-payload message `SimSession::resume` refused with.
fn refusal(spec: &RunSpec, snap: &Snapshot) -> String {
    match SimSession::resume(spec, snap) {
        Err(RunError::Snapshot(SnapshotError::Malformed(message))) => message,
        other => panic!("{spec:?}: expected a malformed-snapshot refusal, got {other:?}"),
    }
}

/// `snap` with the first item of the payload array at `path` set to
/// `value`, re-sealed so its checksum holds.
fn with_first_item(snap: &Snapshot, path: &[&str], value: u64) -> Snapshot {
    let mut payload = snap.payload.clone();
    let mut node = &mut payload;
    for key in path {
        let JsonValue::Object(members) = node else {
            panic!("{key}: parent is not an object");
        };
        node = &mut members
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{key} missing from the snapshot"))
            .1;
    }
    let JsonValue::Array(items) = node else {
        panic!("{path:?} is not an array");
    };
    items[0] = json::num(value);
    let text = Snapshot::new(snap.engine.clone(), payload).to_json();
    Snapshot::from_json(&text).expect("checksum holds")
}

/// A 4-PE FlexArch spec and a 2-chip hierarchical-stealing spec.
fn flex_and_hier() -> [(RunSpec, Vec<&'static str>); 2] {
    let flex = DesignPoint::accel(PointArch::Flex, 1, 4);
    let hier = DesignPoint::accel(PointArch::Flex, 2, 2).clustered(ClusterPoint::new(2));
    [
        (RunSpec::new("uts", Scale::Tiny, flex), vec!["policy"]),
        (
            RunSpec::new("uts", Scale::Tiny, hier),
            vec!["policy", "flex"],
        ),
    ]
}

#[test]
fn an_lfsr_state_past_16_bits_is_refused() {
    for (spec, policy) in flex_and_hier() {
        let snap = paused_at_cycle_1000(&spec);
        let path = [policy.as_slice(), &["lfsrs"]].concat();
        let message = refusal(&spec, &with_first_item(&snap, &path, 1 << 16));
        assert!(
            message.contains("\"lfsrs\" is out of range for u16"),
            "{spec:?}: {message}"
        );
    }
}

#[test]
fn a_round_robin_victim_past_the_host_block_is_refused() {
    for (spec, policy) in flex_and_hier() {
        let snap = paused_at_cycle_1000(&spec);
        let path = [policy.as_slice(), &["rr_victim"]].concat();
        // Unit 4 is the host block of a 4-PE fabric, the last victim a
        // round-robin sweep reaches.
        SimSession::resume(&spec, &with_first_item(&snap, &path, 4))
            .unwrap()
            .unwrap()
            .finish()
            .unwrap();
        for victim in [5, u64::MAX] {
            let message = refusal(&spec, &with_first_item(&snap, &path, victim));
            assert!(
                message.contains(&format!("rr_victim {victim} is past unit 4")),
                "{spec:?}: {message}"
            );
        }
    }
}

#[test]
fn a_steal_failure_count_past_32_bits_is_refused() {
    let [_, (hier, _)] = flex_and_hier();
    let snap = paused_at_cycle_1000(&hier);
    let message = refusal(
        &hier,
        &with_first_item(&snap, &["policy", "fails"], 1 << 32),
    );
    assert!(
        message.contains("\"fails\" is out of range for u32"),
        "{message}"
    );
}

#[test]
fn a_result_slot_past_the_host_slots_is_refused() {
    for point in [
        DesignPoint::accel(PointArch::Flex, 1, 4),
        DesignPoint::cpu(4),
    ] {
        let spec = RunSpec::new("uts", Scale::Tiny, point);
        let snap = paused_at_cycle_1000(&spec);
        for slot in [9, 20, 256] {
            // Re-seal the edited payload so its checksum holds.
            let mut payload = snap.payload.clone();
            let JsonValue::Object(members) = &mut payload else {
                panic!("payload is an object");
            };
            for (key, value) in members.iter_mut() {
                if key == "result_slot" {
                    *value = json::num(slot);
                }
            }
            let text = Snapshot::new(snap.engine.clone(), payload).to_json();
            let sealed = Snapshot::from_json(&text).expect("checksum holds");
            let message = refusal(&spec, &sealed);
            assert!(message.contains("result_slot"), "{spec:?}: {message}");
        }
        // The untouched snapshot still resumes and finishes.
        SimSession::resume(&spec, &snap)
            .unwrap()
            .unwrap()
            .finish()
            .unwrap();
    }
}

#[test]
fn telemetry_disagreements_are_refused_on_every_engine() {
    for point in [
        DesignPoint::accel(PointArch::Flex, 1, 4),
        DesignPoint::accel(PointArch::Lite, 1, 4),
        DesignPoint::cpu(4),
    ] {
        let plain = RunSpec::new("uts", Scale::Tiny, point);
        let sampled = plain.clone().with_telemetry(500);
        let wider = plain.clone().with_telemetry(1_000);
        for (taken, resumed, expected) in [
            (
                &plain,
                &sampled,
                "this engine samples telemetry, the snapshot does not",
            ),
            (
                &sampled,
                &plain,
                "the snapshot carries telemetry state, this engine has telemetry off",
            ),
            (&sampled, &wider, "telemetry epoch width mismatch"),
        ] {
            let snap = paused_at_cycle_1000(taken);
            assert_eq!(refusal(resumed, &snap), expected, "{resumed:?}");
        }
    }
}
