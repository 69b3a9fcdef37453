//! Design-space exploration with the ParallelXL design methodology
//! (Section IV): describe accelerator designs as template parameters,
//! estimate their FPGA resources, check device fitting, and simulate a
//! cache-size sweep — "without rewriting any code".
//!
//! Run with: `cargo run --release --example design_space_exploration`

use parallelxl::apps::Scale;
use parallelxl::cost::FpgaDevice;
use parallelxl::{
    execute, Axis, DesignPoint, Explorer, PointArch, RunOutcome, RunSpec, SearchSpace,
};
use pxl_bench::BenchEvaluator;

fn main() {
    let run = |point: DesignPoint| -> RunOutcome {
        execute(&RunSpec::new("stencil2d", Scale::Small, point))
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("FlexArch runs every benchmark")
    };

    // 1. Pick one design point and inspect its resource estimate.
    let mut point = DesignPoint::accel(PointArch::Flex, 4, 4);
    point.cache_kb = 16;
    let res = point.resources("stencil2d").expect("known benchmark");
    println!(
        "stencil2d FlexArch, 16 PEs, 16 KB caches:\n  per PE  : {:>6} LUT {:>6} FF {:>3} DSP {:>3} BRAM",
        res.pe.lut, res.pe.ff, res.pe.dsp, res.pe.bram18
    );
    println!(
        "  per tile: {:>6} LUT {:>6} FF {:>3} DSP {:>3} BRAM",
        res.tile.lut, res.tile.ff, res.tile.dsp, res.tile.bram18
    );
    for device in [FpgaDevice::artix_7a75t(), FpgaDevice::kintex_7k160t()] {
        println!(
            "  {}: fits {} tiles",
            device.name,
            device.max_tiles(&res.tile)
        );
    }

    // 2. Sweep PE counts and simulate each design point.
    println!("\nPE sweep (simulated whole-program time):");
    let pe_sweep = SearchSpace::new()
        .benchmarks(["stencil2d"])
        .pe_counts([1, 4, 16]);
    for point in pe_sweep.points() {
        let pes = point.units();
        println!("  {:>2} PEs -> {}", pes, run(point).whole);
    }

    // 3. Sweep the tile cache (the paper's Fig. 9 experiment, one point per
    //    capacity) and watch BRAM cost trade against performance.
    println!("\nCache sweep at 16 PEs:");
    for kb in [4usize, 8, 16, 32] {
        let mut point = DesignPoint::accel(PointArch::Flex, 4, 4);
        point.cache_kb = kb;
        let bram = point
            .resources("stencil2d")
            .expect("known benchmark")
            .tile
            .bram18;
        println!(
            "  {kb:>2} KB caches ({bram:>3} BRAM/tile) -> {}",
            run(point).whole
        );
    }

    // 4. Cross all the axes at once with the DSE engine (pxl-dse): prune
    //    infeasible points against the low-cost device, evaluate the rest
    //    in parallel, and read back the Pareto front over runtime, energy,
    //    and area. See docs/dse.md.
    let space = SearchSpace::new()
        .benchmarks(["stencil2d"])
        .archs([PointArch::Flex, PointArch::Lite, PointArch::Cpu])
        .tiles(Axis::list([1, 2, 4]))
        .pes_per_tile(Axis::fixed(4))
        .cache_kb(Axis::list([8, 16, 32]))
        .device(FpgaDevice::artix_7a75t());
    let evaluator = BenchEvaluator::new(Scale::Small, Scale::Tiny);
    let outcome = Explorer::new(&evaluator).explore(&space);
    println!("\n{}", outcome.report_markdown());
}
