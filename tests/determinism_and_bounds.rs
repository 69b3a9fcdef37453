//! Determinism and theoretical-bound checks on the simulated architecture.

use parallelxl::apps::{by_name, suite, Scale};
use parallelxl::arch::{AccelConfig, FlexEngine};
use parallelxl::dse::pe_geometry;
use parallelxl::model::SerialExecutor;
use parallelxl::{execute, DesignPoint, Engine, PointArch, RunOutcome, RunSpec, Workload};

/// Runs `bench` on `point` through the canonical spec path (golden-checked).
fn run(bench: &str, scale: Scale, point: DesignPoint) -> RunOutcome {
    execute(&RunSpec::new(bench, scale, point))
        .unwrap_or_else(|e| panic!("{e}"))
        .expect("the benchmark has a mapping for this engine")
}

/// An accelerator point with `pes` PEs in the paper's geometry.
fn accel(arch: PointArch, pes: usize) -> DesignPoint {
    let (tiles, per_tile) = pe_geometry(pes);
    DesignPoint::accel(arch, tiles, per_tile)
}

/// Same configuration and seed ⇒ bit-identical simulated time and stats.
#[test]
fn simulations_are_deterministic() {
    for name in ["uts", "quicksort", "bfsqueue"] {
        let a = run(name, Scale::Tiny, accel(PointArch::Flex, 8));
        let b = run(name, Scale::Tiny, accel(PointArch::Flex, 8));
        assert_eq!(
            a.kernel, b.kernel,
            "{name}: flex elapsed must be reproducible"
        );
        assert_eq!(
            a.metrics.get("accel.steal_attempts"),
            b.metrics.get("accel.steal_attempts"),
            "{name}: steal traffic must be reproducible"
        );
        let c = run(name, Scale::Tiny, DesignPoint::cpu(4));
        let d = run(name, Scale::Tiny, DesignPoint::cpu(4));
        assert_eq!(
            c.kernel, d.kernel,
            "{name}: cpu elapsed must be reproducible"
        );
    }
}

/// The work-stealing space bound (Section II-C): the parallel execution's
/// task storage must stay within S1 * P, where S1 is the serial executor's
/// requirement.
#[test]
fn space_bound_holds_across_benchmarks() {
    for bench in suite(Scale::Tiny) {
        let name = bench.meta().name;
        let mut serial = SerialExecutor::new();
        let inst = bench.flex(serial.mem_mut());
        let mut worker = inst.worker;
        serial
            .run(worker.as_mut(), inst.root)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let s1 = serial.stats().s1() as u64;

        for pes in [4usize, 16] {
            let out = run(name, Scale::Tiny, accel(PointArch::Flex, pes));
            let s_p =
                out.metrics.get("accel.queue_peak_sum") + out.metrics.get("accel.pstore_peak_sum");
            // nw's root builds the whole block graph up front, so its S1
            // already includes every pending block; other benchmarks unfold
            // dynamically.
            assert!(
                s_p <= s1 * pes as u64,
                "{name}: S_{pes} = {s_p} exceeds S1*P = {}",
                s1 * pes as u64
            );
        }
    }
}

/// More PEs must never make a scalable benchmark catastrophically slower.
#[test]
fn adding_pes_is_not_catastrophic() {
    for name in ["queens", "cilksort", "bbgemm"] {
        let t1 = run(name, Scale::Small, accel(PointArch::Flex, 1)).seconds();
        let t16 = run(name, Scale::Small, accel(PointArch::Flex, 16)).seconds();
        assert!(
            t16 < t1 * 1.10,
            "{name}: 16 PEs ({t16:.6}s) regressed vs 1 PE ({t1:.6}s)"
        );
    }
}

/// The paper's geometry: multi-PE accelerators are built from 4-PE tiles.
#[test]
fn sweep_geometries_validate() {
    for pes in [1usize, 2, 4, 8, 16, 32] {
        let (tiles, per_tile) = pe_geometry(pes);
        let cfg = AccelConfig::flex(tiles, per_tile);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_pes(), pes);
    }
}

/// Queue overflow is detected (not silently dropped) when the task queue is
/// sized below the space bound.
#[test]
fn undersized_queues_fail_loudly() {
    let bench = by_name("uts", Scale::Tiny).unwrap();
    let mut cfg = AccelConfig::flex(1, 2);
    cfg.task_queue_entries = 2;
    let mut engine = FlexEngine::new(cfg, bench.profile());
    let inst = bench.flex(engine.mem_mut());
    let mut worker = inst.worker;
    let err = engine
        .run(Workload::dynamic(worker.as_mut(), inst.root))
        .unwrap_err();
    assert!(
        matches!(
            err,
            parallelxl::arch::AccelError::QueueFull { .. }
                | parallelxl::arch::AccelError::PStoreFull { .. }
        ),
        "got {err}"
    );
}

/// The paper's knapsack observation (Section V-D1): the LiteArch variant
/// "sacrifices algorithmic efficiency in order to map to parallel-for" —
/// level-synchronous rounds see stale pruning bounds and pay a barrier per
/// item level, so at scale the Lite knapsack is slower in absolute terms
/// even though both variants scale well (Table IV vs Fig. 7).
#[test]
fn knapsack_lite_is_absolutely_slower_than_flex_at_scale() {
    let flex = run("knapsack", Scale::Paper, accel(PointArch::Flex, 32));
    let lite = run("knapsack", Scale::Paper, accel(PointArch::Lite, 32));
    assert!(
        lite.seconds() > flex.seconds(),
        "lite ({}) must be slower than flex ({}) at 32 PEs",
        lite.whole,
        flex.whole
    );
}

/// Raising the software runtime's steal cost must slow the multicore CPU on
/// a steal-heavy workload — the knob that separates hardware from software
/// work stealing.
#[test]
fn software_steal_cost_hurts_cpu_scaling() {
    use parallelxl::cpu::{CpuEngine, SoftwareCosts};
    use parallelxl::sim::config::{CpuCoreParams, MemoryConfig};

    let bench = by_name("uts", Scale::Tiny).unwrap();
    let run = |steal_instrs: u64| {
        let mut engine = CpuEngine::with_params(
            8,
            bench.profile(),
            CpuCoreParams::micro2018(),
            MemoryConfig::micro2018(),
            SoftwareCosts {
                steal_attempt_instrs: steal_instrs,
                ..SoftwareCosts::default()
            },
        );
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        out.elapsed
    };
    let cheap = run(50);
    let expensive = run(3_000);
    assert!(
        expensive > cheap,
        "3000-instruction steals ({expensive}) must be slower than 50 ({cheap})"
    );
}
