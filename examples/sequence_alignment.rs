//! Sequence alignment: the paper's motivating *general task-parallel*
//! pattern (Fig. 2c). Runs the `nw` benchmark — Needleman-Wunsch with a
//! blocked wavefront task graph built through explicit continuation
//! passing — on FlexArch, LiteArch and the CPU baseline, and prints the
//! comparison the paper's evaluation makes.
//!
//! Run with: `cargo run --release --example sequence_alignment`

use parallelxl::apps::{by_name, Scale};
use parallelxl::dse::pe_geometry;
use parallelxl::{execute, DesignPoint, PointArch, RunOutcome, RunSpec};

fn main() {
    let bench = by_name("nw", Scale::Small).expect("nw registered");
    let meta = bench.meta();
    println!(
        "{} ({}, {} pattern, {} memory intensity)\n",
        meta.name, meta.source, meta.approach, meta.mem_intensity
    );
    let run = |point: DesignPoint| -> RunOutcome {
        execute(&RunSpec::new("nw", Scale::Small, point))
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("nw runs on every engine")
    };

    let cpu1 = run(DesignPoint::cpu(1));
    let cpu8 = run(DesignPoint::cpu(8));
    println!("CPU 1 core : {:>12}", cpu1.whole.to_string());
    println!(
        "CPU 8 cores: {:>12}  ({:.2}x)",
        cpu8.whole.to_string(),
        cpu1.seconds() / cpu8.seconds()
    );

    for pes in [1usize, 4, 16, 32] {
        let (tiles, per_tile) = pe_geometry(pes);
        let out = run(DesignPoint::accel(PointArch::Flex, tiles, per_tile));
        println!(
            "FlexArch {pes:2} PEs: {:>12}  ({:.2}x vs 1 core; {} block tasks, {} steals)",
            out.whole.to_string(),
            cpu1.seconds() / out.seconds(),
            out.metrics.get("accel.tasks"),
            out.metrics.get("accel.steal_hits"),
        );
    }

    // The LiteArch mapping replaces the P-Store dependence tracking with
    // one anti-diagonal of blocks per host-synchronized round.
    let lite = run(DesignPoint::accel(PointArch::Lite, 4, 4));
    println!(
        "LiteArch 16 PEs: {:>12}  ({:.2}x vs 1 core; {} rounds)",
        lite.whole.to_string(),
        cpu1.seconds() / lite.seconds(),
        lite.metrics.get("lite.rounds"),
    );
}
