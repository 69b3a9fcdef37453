//! End-to-end simulation throughput: how fast the host simulates one full
//! accelerator/CPU/Lite run of a small benchmark. These are the costs that
//! determine how long the paper's evaluation sweep takes to regenerate.
//!
//! Hand-rolled timing loops (no external harness dependency, so the
//! workspace builds offline). Run with `cargo bench --bench endtoend`.

use std::hint::black_box;
use std::time::Instant;

use pxl_apps::Scale;
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::{execute, RunSpec};

/// Times `iters` full runs of `f` and prints ms/run.
fn timeit(name: &str, iters: u32, mut f: impl FnMut()) {
    f(); // warmup
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    println!(
        "{name:<24} {:>10.2} ms/run ({iters} runs)",
        total.as_secs_f64() * 1e3 / iters as f64
    );
}

fn main() {
    for name in ["queens", "uts", "spmvcrs"] {
        for (label, point) in [
            ("flex8", DesignPoint::accel(PointArch::Flex, 2, 4)),
            ("cpu4", DesignPoint::cpu(4)),
            ("lite8", DesignPoint::accel(PointArch::Lite, 2, 4)),
        ] {
            let spec = RunSpec::new(name, Scale::Tiny, point);
            timeit(&format!("{name}/{label}"), 10, || {
                let out = execute(&spec).unwrap_or_else(|e| panic!("{e}"));
                black_box(out.expect("every engine has a mapping").kernel);
            });
        }
    }
}
