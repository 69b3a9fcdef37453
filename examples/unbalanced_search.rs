//! Unbalanced Tree Search: the paper's load-balancing stress test.
//!
//! UTS builds a tree whose subtree sizes vary wildly, so static work
//! division fails and throughput depends on the scheduler. This example
//! contrasts the hardware work stealing of FlexArch with LiteArch's static
//! round-based distribution and the software runtime's hundreds-of-
//! instructions steals, and prints the per-PE load balance.
//!
//! Run with: `cargo run --release --example unbalanced_search`

use parallelxl::apps::Scale;
use parallelxl::{execute, DesignPoint, PointArch, RunOutcome, RunSpec};

fn main() {
    println!("Unbalanced Tree Search (counting a hash-shaped binomial tree)\n");
    let run = |point: DesignPoint| -> RunOutcome {
        execute(&RunSpec::new("uts", Scale::Small, point))
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("uts runs on every engine")
    };

    let cpu8 = run(DesignPoint::cpu(8));
    let flex = run(DesignPoint::accel(PointArch::Flex, 2, 4));
    let lite = run(DesignPoint::accel(PointArch::Lite, 2, 4));

    println!(
        "CPU 8 cores (software stealing): {:>12}",
        cpu8.whole.to_string()
    );
    println!(
        "FlexArch 8 PEs (hardware stealing): {:>9}  ({:.2}x vs software)",
        flex.whole.to_string(),
        cpu8.seconds() / flex.seconds()
    );
    println!(
        "LiteArch 8 PEs (static rounds): {:>13}  ({:.2}x vs software, {} rounds)\n",
        lite.whole.to_string(),
        cpu8.seconds() / lite.seconds(),
        lite.metrics.get("lite.rounds"),
    );

    println!(
        "FlexArch steal traffic: {} attempts, {} successful",
        flex.metrics.get("accel.steal_attempts"),
        flex.metrics.get("accel.steal_hits"),
    );
    println!("Per-PE tasks executed (hardware stealing balances the skewed tree):");
    for pe in 0..8 {
        let tasks = flex.metrics.get(&format!("pe{pe}.tasks"));
        let busy_us = flex.metrics.get(&format!("pe{pe}.busy_ps")) as f64 / 1e6;
        println!("  PE {pe}: {tasks:>6} tasks, busy {busy_us:>8.1} us");
    }
}
