//! Restore refusals: a snapshot whose checksum holds but whose state this
//! engine cannot resume is refused with a typed [`SnapshotError`] at
//! restore time, never accepted and then panicking at the end of the run.

use parallelxl::apps::Scale;
use parallelxl::sim::json;
use parallelxl::{
    ClusterConfig, Continuation, DesignPoint, FaultPlan, JsonValue, PointArch, RunError, RunSpec,
    SessionStatus, SimSession, Snapshot, SnapshotError, Time,
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
fn with_first_item(snap: &Snapshot, path: &[&str], value: JsonValue) -> Snapshot {
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
    items[0] = value;
    let text = Snapshot::new(snap.engine.clone(), payload).to_json();
    Snapshot::from_json(&text).expect("checksum holds")
}

/// `snap` with its first pending event replaced by the event `words` (tag
/// first) at the same time, re-sealed so its checksum holds.
fn with_first_event(snap: &Snapshot, words: &[u64]) -> Snapshot {
    let events = json::get_arr(&snap.payload, "events").unwrap();
    let when = json::words_of(&events[0], "events").unwrap()[0];
    let entry = json::arr_u64([when].into_iter().chain(words.iter().copied()));
    with_first_item(snap, &["events"], entry)
}

/// A 4-PE FlexArch spec and a 2-chip hierarchical-stealing spec.
fn flex_and_hier() -> [(RunSpec, Vec<&'static str>); 2] {
    let flex = DesignPoint::accel(PointArch::Flex, 1, 4);
    let hier = DesignPoint::accel(PointArch::Flex, 2, 2).clustered(ClusterConfig::new(2));
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
        let message = refusal(&spec, &with_first_item(&snap, &path, json::num(1 << 16)));
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
        SimSession::resume(&spec, &with_first_item(&snap, &path, json::num(4)))
            .unwrap()
            .unwrap()
            .finish()
            .unwrap();
        for victim in [5, u64::MAX] {
            let message = refusal(&spec, &with_first_item(&snap, &path, json::num(victim)));
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
        &with_first_item(&snap, &["policy", "fails"], json::num(1 << 32)),
    );
    assert!(
        message.contains("\"fails\" is out of range for u32"),
        "{message}"
    );
}

#[test]
fn a_fault_spec_index_past_the_plan_is_refused() {
    let plan = FaultPlan::new(7)
        .kill_pe(2, Time::from_us(1))
        .corrupt_pstore(0, Time::from_us(2), 0xBEEF);
    let flex = DesignPoint::accel(PointArch::Flex, 1, 4);
    let spec = RunSpec::new("uts", Scale::Tiny, flex).with_faults(plan);
    let snap = paused_at_cycle_1000(&spec);
    SimSession::resume(&spec, &snap)
        .unwrap()
        .unwrap()
        .finish()
        .unwrap();
    // The plan has specs 0 and 1; `rescue_pending` stores a spec index
    // plus one (0 is "none"), `corrupt_pending` a tile's (entry, spec)
    // pairs.
    for (key, value, spec_named) in [
        ("rescue_pending", json::num(3), 2),
        ("rescue_pending", json::num(u64::MAX), u64::MAX - 1),
        ("corrupt_pending", json::arr_u64([0, 2]), 2),
    ] {
        let message = refusal(&spec, &with_first_item(&snap, &["faults", key], value));
        assert!(
            message.contains(&format!(
                "{key} names fault spec {spec_named}, past the plan's 2"
            )),
            "{message}"
        );
    }
    // Pending events name specs too: a fault firing, a duplicate argument
    // message (`dup_of` stores the index plus one) and a retransmission,
    // whose attempt count must also fit its byte.
    let host = Continuation::host(0).encode();
    for (words, needle) in [
        (vec![5, 2], "fault spec 2 is out of range 0..2"),
        (
            vec![3, host, 0, 0, 0, 3],
            "fault spec 2 is out of range 0..2",
        ),
        (
            vec![6, host, 0, 0, 0, 0, 2],
            "fault spec 2 is out of range 0..2",
        ),
        (
            vec![6, host, 0, 0, 0, 256, 0],
            "attempt 256 is out of range for u8",
        ),
    ] {
        let message = refusal(&spec, &with_first_event(&snap, &words));
        assert!(
            message.contains(&format!("events: {needle}")),
            "{words:?}: {message}"
        );
    }
}

#[test]
fn an_event_naming_a_unit_past_the_engine_is_refused() {
    let flex = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    );
    let cpu = RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(4));
    for spec in [&cpu, &flex] {
        let snap = paused_at_cycle_1000(spec);
        // Tag 0 wakes a unit: a core, or a PE.
        let message = refusal(spec, &with_first_event(&snap, &[0, 99]));
        assert!(
            message.contains("events: unit 99 is out of range 0..4"),
            "{spec:?}: {message}"
        );
    }
    // A steal request may target the host block, unit 4 of a 4-PE fabric,
    // but no unit past it.
    let snap = paused_at_cycle_1000(&flex);
    let message = refusal(&flex, &with_first_event(&snap, &[1, 0, 5]));
    assert!(
        message.contains("events: steal victim 5 is out of range 0..5"),
        "{message}"
    );
    // A steal reply is sized before its thief is read: one with no thief
    // word is refused, not indexed past its end.
    let message = refusal(&flex, &with_first_event(&snap, &[2]));
    assert!(
        message.contains("events: event tag 2 holds 1 words"),
        "{message}"
    );
    let message = refusal(&flex, &with_first_event(&snap, &[2, 99]));
    assert!(
        message.contains("events: unit 99 is out of range 0..4"),
        "{message}"
    );
}

#[test]
fn an_argument_to_a_continuation_past_the_engine_is_refused() {
    // One tile of four PEs, with the default 8192-entry P-Store.
    let flex = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    );
    let snap = paused_at_cycle_1000(&flex);
    let stray = Continuation::pstore(0, 0, 1).encode() | 1 << 60;
    for (k, needle) in [
        (
            Continuation::host(200).encode(),
            "host slot 200 is out of range 0..8".to_owned(),
        ),
        (
            Continuation::pstore(99, 0, 0).encode(),
            "continuation tile 99 is out of range 0..1".to_owned(),
        ),
        (
            Continuation::pstore(0, 8192, 0).encode(),
            "P-Store entry 8192 is out of range 0..8192".to_owned(),
        ),
        (
            stray,
            format!("continuation word {stray:#x} does not re-encode to itself"),
        ),
    ] {
        // An argument arriving (tag 3) and one being retransmitted (tag 6).
        for words in [vec![3, k, 0, 0, 0, 0], vec![6, k, 0, 0, 0, 0, 0]] {
            let message = refusal(&flex, &with_first_event(&snap, &words));
            assert!(
                message.contains(&format!("events: {needle}")),
                "{words:?}: {message}"
            );
        }
    }
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

/// `snap` with its top-level payload member `key` set to `value`,
/// re-sealed so its checksum holds.
fn with_member(snap: &Snapshot, key: &str, value: JsonValue) -> Snapshot {
    let mut payload = snap.payload.clone();
    let JsonValue::Object(members) = &mut payload else {
        panic!("payload is an object");
    };
    members
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{key} missing from the snapshot"))
        .1 = value;
    let text = Snapshot::new(snap.engine.clone(), payload).to_json();
    Snapshot::from_json(&text).expect("checksum holds")
}

/// A flag word is 0 or 1; any other value is refused rather than read as
/// set.
#[test]
fn a_flag_word_other_than_0_or_1_is_refused() {
    let flex = DesignPoint::accel(PointArch::Flex, 1, 4);
    let spec = RunSpec::new("uts", Scale::Tiny, flex.clone());
    let snap = paused_at_cycle_1000(&spec);
    let message = refusal(&spec, &with_member(&snap, "launched", json::num(2)));
    assert!(
        message.contains("\"launched\" is out of range for bool"),
        "{message}"
    );

    let plan = FaultPlan::new(7).kill_pe(2, Time::from_us(1));
    let faulted = RunSpec::new("uts", Scale::Tiny, flex).with_faults(plan);
    let snap = paused_at_cycle_1000(&faulted);
    let message = refusal(
        &faulted,
        &with_first_item(&snap, &["faults", "dead"], json::num(2)),
    );
    assert!(
        message.contains("\"dead\" is out of range for bool"),
        "{message}"
    );

    let lite = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Lite, 1, 4),
    );
    let snap = paused_at_cycle_1000(&lite);
    let message = refusal(
        &lite,
        &with_first_item(&snap, &["host_written"], json::num(2)),
    );
    assert!(
        message.contains("\"host_written\" is out of range for bool"),
        "{message}"
    );
}

/// The CPU runtime's free join frames must be empty frames below the
/// table's high-water mark, each listed once: a resumed run pops them to
/// place new successors.
#[test]
fn a_free_join_frame_that_is_not_free_is_refused() {
    let spec = RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(4));
    let snap = paused_at_cycle_1000(&spec);
    let frames = json::get_arr(&snap.payload, "pending").unwrap();
    let live = frames
        .iter()
        .position(|frame| frame.as_array().is_some_and(|words| !words.is_empty()))
        .expect("a live join frame at cycle 1000") as u64;
    let free: Vec<u64> = json::get_words(&snap.payload, "pending_free").unwrap();
    let freed = *free.last().expect("a freed join frame at cycle 1000");
    for bad in [vec![u64::from(u32::MAX)], vec![live], vec![freed, freed]] {
        let message = refusal(
            &spec,
            &with_member(&snap, "pending_free", json::arr_u64(bad.clone())),
        );
        assert!(message.contains("\"pending_free\""), "{bad:?}: {message}");
    }
    SimSession::resume(&spec, &snap)
        .unwrap()
        .unwrap()
        .finish()
        .unwrap();
}
