//! Metric-namespace parity across the execution fabric.
//!
//! Every engine is one scheduling policy over the same fabric
//! (docs/fabric.md), so the canonical metric families must be present no
//! matter which policy ran: the accelerator engines (FlexArch, LiteArch,
//! the centralized-queue ablation) all emit `accel.*` and `pe{n}.*`, the
//! CPU baseline the analogous `cpu.*` / `core{n}.*`, and *all* engines
//! register the shared `fault.*` / `watchdog.*` families — fault plan armed
//! or not — so fabric-level counters cannot silently diverge per engine
//! again.

use parallelxl::apps::Scale;
use parallelxl::{execute, DesignPoint, PointArch, RunOutcome, RunSpec};

/// Runs `bench` at Tiny scale on `point`, golden-checked.
fn run(bench: &str, point: DesignPoint) -> RunOutcome {
    execute(&RunSpec::new(bench, Scale::Tiny, point))
        .unwrap_or_else(|e| panic!("{e}"))
        .expect("the benchmark has a mapping for this engine")
}
use pxl_sim::Metrics;

/// The fault/watchdog families `pxl_arch::register_fault_metrics` pins at
/// zero in every engine.
const FAULT_FAMILY: [&str; 5] = [
    "fault.injected",
    "fault.recovered",
    "fault.skipped",
    "fault.unrecovered",
    "watchdog.stalls",
];

fn assert_registered(engine: &str, metrics: &Metrics, names: &[&str]) {
    for name in names {
        assert!(
            metrics.kind(name).is_some(),
            "{engine} must register `{name}` (got: {})",
            metrics
                .iter()
                .map(|(k, ..)| k)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}

#[test]
fn every_engine_registers_the_canonical_families() {
    let pes = 4;

    let flex = run("queens", DesignPoint::accel(PointArch::Flex, 1, pes));
    let lite = run("queens", DesignPoint::accel(PointArch::Lite, 1, pes));
    let central = run("queens", DesignPoint::accel(PointArch::Central, 1, pes));
    let cpu = run("queens", DesignPoint::cpu(pes));

    // Accelerator engines: one fabric, so one accounting vocabulary.
    for (engine, out) in [("flex", &flex), ("lite", &lite), ("central", &central)] {
        assert_registered(engine, &out.metrics, &["accel.tasks", "accel.ops"]);
        for pe in 0..pes {
            assert_registered(
                engine,
                &out.metrics,
                &[&format!("pe{pe}.tasks"), &format!("pe{pe}.busy_ps")],
            );
        }
    }
    // The CPU baseline mirrors the same shape under its own prefixes.
    assert_registered("cpu", &cpu.metrics, &["cpu.tasks"]);
    for core in 0..pes {
        assert_registered(
            "cpu",
            &cpu.metrics,
            &[&format!("core{core}.tasks"), &format!("core{core}.busy_ps")],
        );
    }

    // The shared fault/watchdog namespace exists everywhere, armed or not.
    for (engine, out) in [
        ("flex", &flex),
        ("lite", &lite),
        ("central", &central),
        ("cpu", &cpu),
    ] {
        assert_registered(engine, &out.metrics, &FAULT_FAMILY);
        for name in FAULT_FAMILY {
            assert_eq!(
                out.metrics.get(name),
                0,
                "{engine}: `{name}` must stay zero on a fault-free run"
            );
        }
    }
}

/// The dynamic engines also share the steal-accounting vocabulary — the
/// policies differ in *how* tasks move, not in what gets counted.
#[test]
fn dynamic_engines_share_the_steal_vocabulary() {
    let flex = run("uts", DesignPoint::accel(PointArch::Flex, 1, 4));
    let central = run("uts", DesignPoint::accel(PointArch::Central, 1, 4));
    for (engine, out) in [("flex", &flex), ("central", &central)] {
        assert_registered(
            engine,
            &out.metrics,
            &[
                "accel.steal_attempts",
                "accel.steal_hits",
                "accel.spawns",
                "accel.queue_peak_sum",
                "accel.pstore_peak_sum",
            ],
        );
        assert!(
            out.metrics.get("accel.steal_hits") > 0,
            "{engine} must move tasks through its queues"
        );
    }
}

/// The CPU baseline and LiteArch register a name only once something
/// counts under it: a core or Lite PE that ran no task reports no
/// `core{n}.*` or `pe{n}.*`, and a single core, which never steals, no
/// `cpu.steal_*`. (The fabric registers every name up front, so its idle
/// PEs report zero.) These lists pin Tiny uts exactly.
#[test]
fn lazily_registered_names_appear_only_once_counted() {
    const MEM: &str = "mem.bus_txns mem.c2c_transfers mem.dirty_transfers mem.dram_bytes \
        mem.dram_lines mem.dram_sat_events mem.l1_hits mem.l1_misses mem.l1_writebacks \
        mem.l2_evictions mem.l2_hits mem.l2_misses mem.l2_writebacks mem.prefetches \
        mem.remote_invalidations mem.upgrades";
    const FAULT: &str = "fault.injected fault.recovered fault.skipped fault.unrecovered";
    let cores = |ids: &[u32]| -> String {
        ids.iter()
            .map(|c| format!("core{c}.busy_ps core{c}.tasks"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    // Sixteen cores, nine of which ever ran a task; ids sort as text.
    let cpu16 = format!(
        "{} cpu.queue_peak_sum cpu.steal_attempts cpu.steal_hits cpu.tasks {FAULT} {MEM} \
         trace.dropped watchdog.stalls",
        cores(&[0, 12, 13, 14, 15, 2, 5, 6, 8])
    );
    let cpu1 = format!(
        "{} cpu.queue_peak_sum cpu.tasks {FAULT} {MEM} trace.dropped watchdog.stalls",
        cores(&[0])
    );
    let pes: Vec<String> = [0, 1, 10, 11, 12, 13, 14, 15, 2, 3, 4, 5, 6, 7, 8, 9]
        .iter()
        .map(|p| format!("pe{p}.busy_ps pe{p}.tasks"))
        .collect();
    let lite = format!(
        "accel.ops accel.tasks {FAULT} lite.rounds lite.tasks {MEM} {} trace.dropped \
         watchdog.stalls",
        pes.join(" ")
    );
    for (point, expected) in [
        (DesignPoint::cpu(16), cpu16),
        (DesignPoint::cpu(1), cpu1),
        (DesignPoint::accel(PointArch::Lite, 4, 4), lite),
    ] {
        let out = run("uts", point.clone());
        let names: Vec<&str> = out.metrics.iter().map(|(name, ..)| name).collect();
        let expected: Vec<&str> = expected.split_whitespace().collect();
        assert_eq!(names, expected, "{point:?}");
    }
}
