//! Checkpoint/restore determinism gate: pausing a simulation at *any*
//! cycle boundary, serializing the engine through the versioned snapshot
//! envelope, and resuming in a fresh session must be invisible — the
//! restored run's results, metrics, trace and telemetry timeline are
//! byte-identical to an uninterrupted run of the same spec. Driven by the
//! vendored `pxl_sim::qcheck` harness over random benchmarks, scales,
//! engines (on the simulated SoC and the Zedboard prototype), fault plans,
//! telemetry epochs and checkpoint epochs.

use parallelxl::apps::{by_name, Scale};
use parallelxl::arch::RunStatus;
use parallelxl::sim::qcheck::{check, Gen};
use parallelxl::{
    execute, AccelResult, ClusterConfig, DesignPoint, Engine, EngineKind, FaultPlan, LiteDriver,
    Platform, PointArch, RunError, RunOutcome, RunSpec, SessionStatus, SimSession,
    SimulationBuilder, Snapshot, SnapshotError, Task, Time, Worker, Workload, SNAPSHOT_VERSION,
};

/// A random design point: any of the engines at small shapes, including
/// multi-chip clusters (hierarchical and flat stealing) whose snapshots
/// must carry the inter-chip link's in-flight serialization state.
fn random_point(g: &mut Gen) -> DesignPoint {
    match g.range(0, 5) {
        0 => DesignPoint::accel(PointArch::Flex, g.usize_in(1, 2), g.usize_in(2, 4)),
        1 => DesignPoint::accel(PointArch::Central, 1, g.usize_in(2, 4)),
        2 => DesignPoint::accel(PointArch::Lite, 1, g.usize_in(2, 4)),
        3 => {
            // A 2-chip cluster: chips must divide tiles, so 2 or 4 tiles.
            let tiles = 2 * g.usize_in(1, 2);
            let mut cluster = ClusterConfig::new(2).with_link(g.range(4, 64), g.range(1, 16));
            if g.bool() {
                cluster = cluster.flat();
            }
            DesignPoint::accel(PointArch::Flex, tiles, g.usize_in(2, 4)).clustered(cluster)
        }
        _ => DesignPoint::cpu(g.usize_in(1, 4)),
    }
}

/// A random fault plan valid for `point` (accelerator engines only —
/// seeded, so the plan is part of the deterministic run identity).
fn random_faults(g: &mut Gen, point: &DesignPoint) -> Option<FaultPlan> {
    let accel = point.accel_config()?;
    if !matches!(point.arch, PointArch::Flex | PointArch::Central) || g.bool() {
        return None;
    }
    let pes = accel.tiles * accel.pes_per_tile;
    let pe = g.usize_in(0, pes - 1);
    let at = Time::from_ns(g.range(100, 2_000));
    let plan = FaultPlan::new(g.u64());
    Some(if g.bool() {
        plan.kill_pe(pe, at)
    } else {
        plan.stall_pe(pe, at, g.range(10, 500))
    })
}

#[test]
fn any_checkpoint_epoch_restores_byte_identically() {
    check(10, "pause/snapshot/restore is invisible", |g: &mut Gen| {
        let bench = *g.pick(&["uts", "queens", "nw"]);
        let scale = if g.ratio(1, 8) {
            Scale::Small
        } else {
            Scale::Tiny
        };
        let point = random_point(g);
        let faults = random_faults(g, &point);
        // Half the runs also sample telemetry: the sampler state rides in
        // the snapshot, so a restored run's timeline must match too.
        let telemetry = g.bool().then(|| g.range(100, 5_000));
        // Half the runs swap in a memory-heavy benchmark at Tiny
        // scale: spmvcrs and stencil2d pause with dirty, owned and evicted
        // lines live in the L1s and the L2, which the sparse cache layout
        // must carry exactly.
        let (bench, scale) = if g.ratio(1, 2) {
            (*g.pick(&["spmvcrs", "stencil2d"]), Scale::Tiny)
        } else {
            (bench, scale)
        };
        let mut spec = RunSpec::new(bench, scale, point).with_trace(1 << 10);
        if let Some(plan) = faults {
            spec = spec.with_faults(plan);
        }
        if let Some(every) = telemetry {
            spec = spec.with_telemetry(every);
        }

        assert_checkpoint_invisible(&spec, |total| g.range(1, total + total / 4 + 2));
    });
}

/// The same gate on the Zedboard prototype, whose stream buffers and
/// Cortex-A9 memory restore through their own state: every case checks a
/// flex point (with a fault plan in some cases) and the 2-core A9.
#[test]
fn zedboard_checkpoint_epochs_restore_byte_identically() {
    check(
        10,
        "zedboard pause/snapshot/restore is invisible",
        |g: &mut Gen| {
            let bench = *g.pick(&["uts", "queens", "nw", "spmvcrs", "stencil2d"]);
            let flex = DesignPoint::accel(PointArch::Flex, 1, g.usize_in(2, 4));
            for point in [flex, DesignPoint::cpu(2)] {
                let point = point.on_platform(Platform::Zedboard);
                let mut spec = RunSpec::new(bench, Scale::Tiny, point.clone()).with_trace(1 << 10);
                if let Some(plan) = random_faults(g, &point) {
                    spec = spec.with_faults(plan);
                }
                if let Some(every) = g.bool().then(|| g.range(100, 5_000)) {
                    spec = spec.with_telemetry(every);
                }
                // Every pause falls inside the run, so the prototype's state
                // is live when it is saved; the check above covers epochs
                // past the end.
                assert_checkpoint_invisible(&spec, |total| g.range(1, total));
            }
        },
    );
}

/// A failed reference run has no kernel time to draw its checkpoint epoch
/// from; epochs are drawn over this many cycles instead, which puts some
/// pauses before the failure and some after it.
const FAILED_RUN_CYCLES: u64 = 50_000;

/// A finished run as the gate compares it: the outcome's JSONL and timeline,
/// or the error's text.
fn rendered(run: Result<RunOutcome, RunError>) -> Result<(String, String), String> {
    run.map(|out| (out.to_jsonl(), out.timeline.to_jsonl()))
        .map_err(|e| e.to_string())
}

/// Pauses `spec` at the epoch `epoch_of(total cycles)` picks, round-trips
/// the snapshot envelope into a fresh session and finishes there. The
/// outcome must be byte-identical to an uninterrupted [`execute`] of the
/// spec; a reference that fails must fail with the same error text.
fn assert_checkpoint_invisible(spec: &RunSpec, epoch_of: impl FnOnce(u64) -> u64) {
    // The uninterrupted run is the reference; a bench without a variant
    // for this engine is a skip, not a failure.
    let reference = match execute(spec) {
        Ok(None) => return,
        Ok(Some(out)) => Ok(out),
        Err(e) => Err(e),
    };
    let mut session = SimSession::start(spec).unwrap().expect("variant exists");
    let clock = session.clock();
    let total = match &reference {
        Ok(out) => clock.time_to_cycles(out.kernel).max(2),
        Err(_) => FAILED_RUN_CYCLES,
    };
    // Any epoch, including ones past the end (degenerate: the run
    // finishes before its first checkpoint boundary).
    let epoch = epoch_of(total);
    let resumed = match session.advance(Some(clock.cycles_to_time(epoch))) {
        Ok(SessionStatus::Paused { .. }) => {
            // Round-trip the envelope exactly as a checkpoint file would,
            // then finish in a brand-new session.
            let text = session.snapshot().to_json();
            let snap = Snapshot::from_json(&text).unwrap();
            SimSession::resume(spec, &snap).unwrap().unwrap().finish()
        }
        Ok(SessionStatus::Finished(out)) => Ok(*out),
        Err(e) => Err(e),
    };
    assert_eq!(
        rendered(resumed),
        rendered(reference),
        "{spec:?}: a checkpoint at cycle {epoch} of ~{total} must be invisible"
    );
}

#[test]
fn a_failing_run_fails_the_same_way_after_a_restore() {
    // Queens at Small overflows a 2-PE central queue near cycle 49,000:
    // pauses before the overflow restore and then fail, the last pause
    // lands after it.
    let spec = RunSpec::new(
        "queens",
        Scale::Small,
        DesignPoint::accel(PointArch::Central, 1, 2),
    );
    assert!(execute(&spec).is_err(), "the reference must fail");
    for epoch in [1_000, 30_000, 60_000] {
        assert_checkpoint_invisible(&spec, |_| epoch);
    }
}

/// An engine built from `spec` with the benchmark's inputs in its memory,
/// driven leg by leg through `Engine::run_until`.
struct Driven {
    engine: Box<dyn Engine>,
    worker: Box<dyn Worker>,
    shape: Result<Task, Box<dyn LiteDriver>>,
}

impl Driven {
    fn new(spec: &RunSpec) -> Driven {
        let bench = by_name(&spec.benchmark, spec.scale).expect("known benchmark");
        let mut engine = SimulationBuilder::from_run_spec(spec)
            .and_then(|b| b.build())
            .expect("valid point");
        let (worker, shape) = if engine.kind() == EngineKind::Lite {
            let inst = bench.lite(engine.mem_mut()).expect("lite mapping");
            (inst.worker, Err(inst.driver))
        } else {
            let inst = bench.flex(engine.mem_mut());
            (inst.worker, Ok(inst.root))
        };
        Driven {
            engine,
            worker,
            shape,
        }
    }

    fn run_until(&mut self, pause_at: Option<Time>) -> RunStatus {
        let workload = match &mut self.shape {
            Ok(root) => Workload::dynamic(self.worker.as_mut(), *root),
            Err(driver) => Workload::rounds(self.worker.as_mut(), driver.as_mut()),
        };
        self.engine.run_until(workload, pause_at).expect("run leg")
    }

    fn finish(&mut self) -> AccelResult {
        match self.run_until(None) {
            RunStatus::Finished(out) => out,
            RunStatus::Paused { .. } => unreachable!("no pause boundary was requested"),
        }
    }
}

/// The CPU baseline and LiteArch resolve their counter handles on a unit's
/// first task, and a restore rebuilds the registry those handles index. An
/// engine that has already run part of another leg, so its handles are
/// resolved, must forget them when it restores: the finished run's result,
/// metrics and trace equal the uninterrupted run's.
#[test]
fn a_restore_into_a_used_engine_forgets_its_counter_handles() {
    for point in [
        DesignPoint::cpu(4),
        DesignPoint::accel(PointArch::Lite, 1, 4),
    ] {
        let spec = RunSpec::new("uts", Scale::Tiny, point)
            .with_trace(1 << 14)
            .with_telemetry(500);
        let reference = Driven::new(&spec).finish();
        let at = |num: u64| Time::from_ps(reference.elapsed.as_ps() * num / 4);
        let mut source = Driven::new(&spec);
        assert!(matches!(
            source.run_until(Some(at(2))),
            RunStatus::Paused { .. }
        ));
        let snap = Snapshot::from_json(&source.engine.snapshot().to_json()).unwrap();
        let mut used = Driven::new(&spec);
        assert!(matches!(
            used.run_until(Some(at(3))),
            RunStatus::Paused { .. }
        ));
        used.engine
            .restore(&snap)
            .expect("restore into a used engine");
        let out = used.finish();
        assert_eq!(out.result, reference.result, "{spec:?}");
        assert_eq!(out.elapsed, reference.elapsed, "{spec:?}");
        assert_eq!(
            out.metrics.to_json(),
            reference.metrics.to_json(),
            "{spec:?}"
        );
        assert_eq!(out.trace.to_jsonl(), reference.trace.to_jsonl(), "{spec:?}");
        assert_eq!(
            out.timeline.to_jsonl(),
            reference.timeline.to_jsonl(),
            "{spec:?}"
        );
    }
}

/// A snapshot from the current engine, as serialized text.
fn sample_snapshot() -> String {
    let spec = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 2),
    );
    SimSession::start(&spec)
        .unwrap()
        .unwrap()
        .snapshot()
        .to_json()
}

#[test]
fn foreign_snapshot_versions_are_rejected() {
    let good = sample_snapshot();
    assert!(Snapshot::from_json(&good).is_ok());
    let needle = format!("\"snapshot_version\":{SNAPSHOT_VERSION}");
    assert!(
        good.contains(&needle),
        "envelope must lead with its version"
    );
    let tampered = good.replace(&needle, "\"snapshot_version\":999");
    match Snapshot::from_json(&tampered) {
        Err(SnapshotError::VersionMismatch { found }) => assert_eq!(found, 999),
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

#[test]
fn corrupted_snapshot_payloads_are_rejected() {
    // A hand-built envelope keeps the corruption surgical: the payload
    // changes, the claimed checksum goes stale.
    let snap = Snapshot::new("flex", parallelxl::JsonValue::parse("{\"pc\":41}").unwrap());
    let good = snap.to_json();
    assert!(Snapshot::from_json(&good).is_ok());
    let corrupted = good.replace("{\"pc\":41}", "{\"pc\":42}");
    assert_ne!(good, corrupted, "corruption must have happened");
    match Snapshot::from_json(&corrupted) {
        Err(SnapshotError::ChecksumMismatch { claimed, actual }) => {
            assert_ne!(claimed, actual);
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    // Structurally broken envelopes are malformed, not a crash.
    assert!(matches!(
        Snapshot::from_json(&format!("{{\"snapshot_version\":{SNAPSHOT_VERSION}}}")),
        Err(SnapshotError::Malformed(_))
    ));
}

#[test]
fn version_one_checkpoints_are_refused() {
    // Version 1 wrote every cache way and P-Store slot; its files are
    // refused like any foreign version rather than misread as sparse.
    let v1 = sample_snapshot().replace(
        &format!("\"snapshot_version\":{SNAPSHOT_VERSION}"),
        "\"snapshot_version\":1",
    );
    assert_eq!(
        Snapshot::from_json(&v1),
        Err(SnapshotError::VersionMismatch { found: 1 })
    );
}
