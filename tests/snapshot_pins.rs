//! Snapshot byte pins: the text of a mid-run snapshot is part of the
//! checkpoint contract, so four representative runs pin it byte for byte.
//!
//! Each pin is `uts` at Tiny with tracing and telemetry on, paused at half
//! the uninterrupted run's kernel cycles: FlexArch 1x4, LiteArch 1x4, the
//! 4-core CPU baseline and a 2-chip hierarchical 2x2 cluster under a PE
//! stall. A fresh snapshot must equal its fixture, and a session resumed
//! from the fixture must finish byte-identical to [`execute`].

use parallelxl::apps::Scale;
use parallelxl::{
    execute, ClusterPoint, DesignPoint, FaultPlan, PointArch, RunSpec, SessionStatus, SimSession,
    Snapshot, Time,
};
use std::path::PathBuf;

/// The four pinned runs, by fixture name.
fn pins() -> Vec<(&'static str, RunSpec)> {
    let spec = |point| {
        RunSpec::new("uts", Scale::Tiny, point)
            .with_trace(32)
            .with_telemetry(500)
    };
    vec![
        (
            "uts_flex_1x4",
            spec(DesignPoint::accel(PointArch::Flex, 1, 4)),
        ),
        (
            "uts_lite_1x4",
            spec(DesignPoint::accel(PointArch::Lite, 1, 4)),
        ),
        ("uts_cpu_4", spec(DesignPoint::cpu(4))),
        (
            "uts_hier_2x2_2chips_stall",
            spec(DesignPoint::accel(PointArch::Flex, 2, 2).clustered(ClusterPoint::new(2)))
                .with_faults(FaultPlan::new(7).stall_pe(1, Time::from_ns(500), 200)),
        ),
    ]
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.snapshot.json"))
}

/// The snapshot text of `spec` paused at half its uninterrupted kernel
/// cycles.
fn half_way_snapshot(spec: &RunSpec) -> String {
    let reference = execute(spec).unwrap().expect("variant exists");
    let mut session = SimSession::start(spec).unwrap().expect("variant exists");
    let clock = session.clock();
    let half = clock.time_to_cycles(reference.kernel) / 2;
    match session.advance(Some(clock.cycles_to_time(half))).unwrap() {
        SessionStatus::Paused { .. } => session.snapshot().to_json(),
        SessionStatus::Finished(_) => panic!("{spec:?} finished before cycle {half}"),
    }
}

#[test]
fn fresh_snapshots_match_their_pins_byte_for_byte() {
    for (name, spec) in pins() {
        let pinned = std::fs::read_to_string(fixture(name)).expect("pin exists");
        assert_eq!(
            half_way_snapshot(&spec),
            pinned.trim_end(),
            "{name}: snapshot text moved"
        );
    }
}

#[test]
fn resuming_from_a_pin_finishes_like_execute() {
    for (name, spec) in pins() {
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
