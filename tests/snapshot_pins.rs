//! Snapshot byte pins: the text of a mid-run snapshot is part of the
//! checkpoint contract, so eight representative runs pin it byte for byte.
//!
//! Each pin is a Tiny run with tracing and telemetry on, paused at a
//! fraction of the uninterrupted run's kernel cycles. Four are `uts` at
//! half way: FlexArch 1x4, LiteArch 1x4, the 4-core CPU baseline and a
//! 2-chip hierarchical 2x2 cluster under a PE stall. The other four are
//! paused where a codec the first four leave empty holds state: quicksort
//! on FlexArch 1x4 (memory pages, live cache ways, bandwidth epochs) and on
//! the Zedboard prototype (stream buffers), `uts` on the central queue, and
//! queens on FlexArch 2x4 under a mixed fault plan (a dead PE awaiting
//! rescue, a corrupted P-Store entry awaiting repair). A fresh snapshot
//! must equal its fixture, and a session resumed from the fixture must
//! finish byte-identical to [`execute`].

use parallelxl::apps::Scale;
use parallelxl::sim::json::{self, JsonValue};
use parallelxl::sim::NetClass;
use parallelxl::{
    execute, ClusterConfig, DesignPoint, FaultPlan, Platform, PointArch, RunSpec, SessionStatus,
    SimSession, Snapshot, Time,
};
use std::path::PathBuf;

/// A pinned run: fixture name, spec, and the fraction of its kernel
/// cycles it pauses at.
type Pin = (&'static str, RunSpec, (u64, u64));

/// The pinned runs.
fn pins() -> Vec<Pin> {
    let spec = |bench, point| {
        RunSpec::new(bench, Scale::Tiny, point)
            .with_trace(32)
            .with_telemetry(500)
    };
    let flex = |tiles, pes| DesignPoint::accel(PointArch::Flex, tiles, pes);
    // `golden_cross_engine`'s mixed plan: a PE death, a stall, drops and
    // duplicates on both networks, and a P-Store corruption.
    let mixed = FaultPlan::new(0xFA_17)
        .kill_pe(5, Time::from_us(2))
        .stall_pe(1, Time::from_us(1), 400)
        .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 400, 6)
        .drop_messages(NetClass::Task, Time::ZERO, Time::MAX, 400, 4)
        .duplicate_messages(NetClass::Arg, Time::ZERO, Time::MAX, 400, 6)
        .duplicate_messages(NetClass::Task, Time::ZERO, Time::MAX, 400, 4)
        .corrupt_pstore(0, Time::from_us(3), 0xFFFF);
    let half = (1, 2);
    vec![
        ("uts_flex_1x4", spec("uts", flex(1, 4)), half),
        (
            "uts_lite_1x4",
            spec("uts", DesignPoint::accel(PointArch::Lite, 1, 4)),
            half,
        ),
        ("uts_cpu_4", spec("uts", DesignPoint::cpu(4)), half),
        (
            "uts_hier_2x2_2chips_stall",
            spec("uts", flex(2, 2).clustered(ClusterConfig::new(2)))
                .with_faults(FaultPlan::new(7).stall_pe(1, Time::from_ns(500), 200)),
            half,
        ),
        ("quicksort_flex_1x4", spec("quicksort", flex(1, 4)), half),
        (
            "quicksort_zedflex_1x4",
            spec("quicksort", flex(1, 4).on_platform(Platform::Zedboard)),
            half,
        ),
        (
            "uts_central_1x4",
            spec("uts", DesignPoint::accel(PointArch::Central, 1, 4)),
            (1, 8),
        ),
        (
            "queens_flex_2x4_mixed_faults",
            spec("queens", flex(2, 4)).with_faults(mixed),
            (5, 8),
        ),
    ]
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.snapshot.json"))
}

/// The snapshot text of `spec` paused at `num / den` of its uninterrupted
/// kernel cycles.
fn paused_snapshot(spec: &RunSpec, (num, den): (u64, u64)) -> String {
    let reference = execute(spec).unwrap().expect("variant exists");
    let mut session = SimSession::start(spec).unwrap().expect("variant exists");
    let clock = session.clock();
    let cycle = clock.time_to_cycles(reference.kernel) * num / den;
    match session.advance(Some(clock.cycles_to_time(cycle))).unwrap() {
        SessionStatus::Paused { .. } => session.snapshot().to_json(),
        SessionStatus::Finished(_) => panic!("{spec:?} finished before cycle {cycle}"),
    }
}

#[test]
fn fresh_snapshots_match_their_pins_byte_for_byte() {
    for (name, spec, at) in pins() {
        let pinned = std::fs::read_to_string(fixture(name)).expect("pin exists");
        assert_eq!(
            paused_snapshot(&spec, at),
            pinned.trim_end(),
            "{name}: snapshot text moved"
        );
    }
}

/// The pinned payload of fixture `name`.
fn pinned_payload(name: &str) -> JsonValue {
    let pinned = std::fs::read_to_string(fixture(name)).expect("pin exists");
    Snapshot::from_json(pinned.trim_end())
        .expect("pin parses")
        .payload
}

/// Member `path` of `value`, one key per level.
fn at_path<'a>(value: &'a JsonValue, path: &[&'static str]) -> &'a JsonValue {
    path.iter().fold(value, |v, key| {
        json::get(v, key).expect("pinned field exists")
    })
}

/// Whether `value` holds a word, directly or in a nested array.
fn holds_a_word(value: &JsonValue) -> bool {
    match value {
        JsonValue::Array(items) => items.iter().any(holds_a_word),
        JsonValue::Object(members) => !members.is_empty(),
        _ => true,
    }
}

/// Each of the later pins holds the state it was added for, so a
/// re-capture cannot pin an empty codec.
#[test]
fn the_pins_hold_the_state_they_were_added_for() {
    let coherent = ["backend", "state"];
    for (name, paths) in [
        (
            "quicksort_flex_1x4",
            vec![
                vec!["mem"],
                [&coherent[..], &["dram_meter"]].concat(),
                [&coherent[..], &["bus_meter"]].concat(),
            ],
        ),
        (
            "quicksort_zedflex_1x4",
            vec![[&coherent[..], &["streams"]].concat()],
        ),
        ("uts_central_1x4", vec![vec!["policy", "queue", "items"]]),
        (
            "queens_flex_2x4_mixed_faults",
            vec![vec!["faults", "corrupt_pending"]],
        ),
    ] {
        let payload = pinned_payload(name);
        for path in paths {
            assert!(
                holds_a_word(at_path(&payload, &path)),
                "{name}: {path:?} is empty"
            );
        }
    }
    // Every L1 of the quicksort pin lists live ways, and the fault pin has
    // a dead PE still awaiting rescue and a tainted P-Store entry.
    let quicksort = pinned_payload("quicksort_flex_1x4");
    for l1 in json::get_arr(at_path(&quicksort, &coherent), "l1s").unwrap() {
        assert!(!json::get_words::<u64>(l1, "live").unwrap().is_empty());
    }
    let queens = pinned_payload("queens_flex_2x4_mixed_faults");
    let faults = json::get(&queens, "faults").unwrap();
    assert!(json::get_words::<u64>(faults, "dead").unwrap().contains(&1));
    assert!(json::get_words::<u64>(faults, "rescue_pending")
        .unwrap()
        .iter()
        .any(|&r| r != 0));
    let tainted = json::get_arr(&queens, "pstores").unwrap();
    assert!(tainted
        .iter()
        .any(|tile| !json::get_words::<u64>(tile, "taint").unwrap().is_empty()));
}

#[test]
fn resuming_from_a_pin_finishes_like_execute() {
    for (name, spec, _) in pins() {
        let pinned = std::fs::read_to_string(fixture(name)).expect("pin exists");
        let snap = Snapshot::from_json(pinned.trim_end()).expect("pin parses");
        let out = SimSession::resume(&spec, &snap)
            .unwrap()
            .expect("variant exists")
            .finish()
            .unwrap();
        let reference = execute(&spec).unwrap().expect("variant exists");
        assert_eq!(out.to_jsonl(), reference.to_jsonl(), "{name}: run moved");
        assert_eq!(
            out.timeline.to_jsonl(),
            reference.timeline.to_jsonl(),
            "{name}: timeline moved"
        );
    }
}
