//! A coarse host-speed floor for the flex fabric: every Tiny flex 4x4
//! (16-PE) row below must sustain more than 1e5 simulated cycles per
//! second. Typical rates are ~10x above the floor, so host noise cannot
//! trip it; a reading below it means the hot dispatch path (or the
//! functional-memory path that spmvcrs and stencil2d load) regressed by
//! an order of magnitude.
//!
//! Timing is meaningless in a debug build, so the test is compiled only
//! with optimisations: `cargo test --release -p pxl-bench --test
//! smoke_floor`.
#![cfg(not(debug_assertions))]

use std::time::Instant;

use pxl_apps::Scale;
use pxl_arch::AccelConfig;
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::{execute, RunSpec};

/// Simulated flex clock cycles per host second that every row must beat.
const FLEX_SMOKE_FLOOR: f64 = 1.0e5;

/// Timed repetitions per row after one warm run; the row reports the
/// fastest. Runs are deterministic, so repetitions differ only by host
/// noise, which only ever adds time.
const REPS: usize = 5;

#[test]
fn tiny_flex_rows_sustain_the_floor() {
    let cycle_ps = AccelConfig::flex(1, 1).clock.cycles_to_time(1).as_ps();
    for name in ["uts", "queens", "spmvcrs", "stencil2d"] {
        let spec = RunSpec::new(name, Scale::Tiny, DesignPoint::accel(PointArch::Flex, 4, 4));
        let run = || {
            execute(&spec)
                .unwrap_or_else(|e| panic!("{e}"))
                .expect("flex runs every floor benchmark")
        };
        let mut out = run();
        let mut wall_s = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            out = run();
            wall_s = wall_s.min(start.elapsed().as_secs_f64().max(1e-9));
        }
        let cycles_per_sec = (out.kernel.as_ps() / cycle_ps) as f64 / wall_s;
        assert!(
            cycles_per_sec > FLEX_SMOKE_FLOOR,
            "{name} flex sustained only {cycles_per_sec:.3e} sim cycles/s \
             (floor {FLEX_SMOKE_FLOOR:.1e})"
        );
    }
}
