//! Ablation study of the FlexArch scheduling design choices that
//! `DESIGN.md` calls out (Sections II-C and III-A of the paper):
//!
//! * **LIFO local order** — the worker pops its own deque depth-first,
//!   "which is important because it results in much better task locality".
//! * **Steal from the head** — "it enables stealing a larger chunk of work
//!   with each request".
//! * **LFSR (random) victim selection** vs a cyclic scan.
//! * **Greedy scheduling** — routing a just-readied task back to the PE
//!   that produced its last argument, "critical for guaranteeing the
//!   asymptotic bound on space".
//!
//! Each variant flips exactly one knob from the published design and
//! reports the slowdown and the peak task-storage footprint.
//!
//! A last table splits the same 16 PEs across 2 and 4 chips and compares
//! hierarchical stealing (intra-chip first) with flat stealing across the
//! inter-chip link.

use pxl_apps::{Benchmark, Scale};
use pxl_arch::{
    AccelConfig, ClusterConfig, Engine, FabricEngine, LocalOrder, SchedPolicy, SchedulingPolicy,
    StealEnd, VictimSelect, Workload,
};
use pxl_bench::{bench, render_table};
use pxl_dse::{pe_geometry, DesignPoint, PointArch};
use pxl_flow::{execute, RunSpec};

fn config(pes: usize, policy: SchedPolicy) -> AccelConfig {
    let (tiles, per_tile) = pe_geometry(pes);
    let mut cfg = AccelConfig::flex(tiles, per_tile);
    cfg.policy = policy;
    cfg
}

/// Runs `b` on a policy-instantiated fabric, reporting simulation failures
/// as data — an ablated policy blowing the space bound is a finding, not a
/// bug.
fn try_run<P: SchedulingPolicy>(
    b: &dyn Benchmark,
    cfg: AccelConfig,
) -> Result<(pxl_sim::Time, pxl_sim::Metrics), String> {
    let mut engine = FabricEngine::<P>::new(cfg, b.profile());
    let inst = b.flex(engine.mem_mut());
    let mut worker = inst.worker;
    match engine.run(Workload::dynamic(worker.as_mut(), inst.root)) {
        Ok(out) => {
            b.check(engine.memory(), out.result)?;
            Ok((out.elapsed, out.metrics))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn main() {
    let variants: Vec<(&str, SchedPolicy)> = vec![
        ("baseline (paper)", SchedPolicy::default()),
        (
            "FIFO local order",
            SchedPolicy {
                local_order: LocalOrder::Fifo,
                ..SchedPolicy::default()
            },
        ),
        (
            "steal from tail",
            SchedPolicy {
                steal_end: StealEnd::Tail,
                ..SchedPolicy::default()
            },
        ),
        (
            "round-robin victims",
            SchedPolicy {
                victim_select: VictimSelect::RoundRobin,
                ..SchedPolicy::default()
            },
        ),
        (
            "no greedy routing",
            SchedPolicy {
                greedy_routing: false,
                ..SchedPolicy::default()
            },
        ),
    ];

    for name in ["uts", "cilksort", "nw"] {
        let b = bench(name, Scale::Paper);
        println!("## Ablation: {name} (FlexArch, 16 PEs)\n");
        let (base_elapsed, _) =
            try_run::<pxl_arch::FlexPolicy>(b.as_ref(), config(16, SchedPolicy::default()))
                .expect("baseline runs");
        let mut rows = Vec::new();
        let mut push_row =
            |label: &str, outcome: Result<(pxl_sim::Time, pxl_sim::Metrics), String>| match outcome
            {
                Ok((elapsed, stats)) => {
                    let storage =
                        stats.get("accel.queue_peak_sum") + stats.get("accel.pstore_peak_sum");
                    rows.push(vec![
                        label.to_owned(),
                        format!("{elapsed}"),
                        format!("{:.2}x", elapsed.as_secs_f64() / base_elapsed.as_secs_f64()),
                        format!("{}", stats.get("accel.steal_hits")),
                        format!("{storage}"),
                    ]);
                }
                Err(e) => rows.push(vec![
                    label.to_owned(),
                    format!("FAILED: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            };
        for (label, policy) in &variants {
            push_row(
                label,
                try_run::<pxl_arch::FlexPolicy>(b.as_ref(), config(16, *policy)),
            );
        }
        // The strawman every distributed design is measured against: one
        // shared ready queue serializing all 16 PEs' accesses.
        let (tiles, per_tile) = pe_geometry(16);
        push_row(
            "centralized queue",
            try_run::<pxl_arch::CentralPolicy>(b.as_ref(), AccelConfig::central(tiles, per_tile)),
        );
        println!(
            "{}",
            render_table(
                &[
                    "Variant",
                    "Kernel time",
                    "Slowdown",
                    "Steals",
                    "Peak task storage"
                ],
                &rows
            )
        );
    }
    stealing_hierarchy();
}

/// Small uts and bfsqueue on a 16-PE FlexArch split across 2 and 4 chips,
/// hierarchical vs. flat stealing. "Inter-chip steals" is
/// `link.steal_hits / accel.steal_hits`: the fraction of successful steals
/// that crossed a chip boundary.
fn stealing_hierarchy() {
    println!("## Stealing hierarchy (FlexArch, 16 PEs, Small)\n");
    let mut rows = Vec::new();
    for name in ["uts", "bfsqueue"] {
        for chips in [2, 4] {
            let hier = ClusterConfig::new(chips);
            for (mode, cluster) in [("hier", hier), ("flat", hier.flat())] {
                let point = DesignPoint::accel(PointArch::Flex, 4, 4).clustered(cluster);
                let out = execute(&RunSpec::new(name, Scale::Small, point))
                    .unwrap_or_else(|e| panic!("{e}"))
                    .expect("flex clusters run uts and bfsqueue");
                let steals = out.metrics.get("accel.steal_hits");
                let inter_chip = if steals == 0 {
                    0.0
                } else {
                    out.metrics.get("link.steal_hits") as f64 / steals as f64
                };
                rows.push(vec![
                    name.to_owned(),
                    format!("{mode}{chips}"),
                    format!("{}", out.kernel),
                    format!("{steals}"),
                    format!("{:.1}%", inter_chip * 100.0),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Benchmark",
                "Engine",
                "Kernel time",
                "Steals",
                "Inter-chip steals"
            ],
            &rows
        )
    );
}
