//! Quickstart: the paper's running Fibonacci example (Fig. 5), expressed as
//! a ParallelXL worker and executed on a simulated FlexArch accelerator and
//! the Cilk-style CPU baseline — everything through the `parallelxl` facade
//! and the unified [`Engine`] API.
//!
//! Run with: `cargo run --release --example quickstart`

use parallelxl::{
    AccelConfig, Continuation, CpuEngine, Engine, ExecProfile, FlexEngine, SerialExecutor, Task,
    TaskContext, TaskTypeId, Worker, Workload,
};

const FIB: TaskTypeId = TaskTypeId(0);
const SUM: TaskTypeId = TaskTypeId(1);

/// The Rust analogue of the paper's C++ worker description (CPPWD): one
/// homogeneous worker dispatching on the task type.
struct FibWorker;

impl Worker for FibWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let k = task.k;
        if task.ty == FIB {
            let n = task.args[0];
            ctx.compute(2);
            if n < 2 {
                // Base case: return the value through the continuation.
                ctx.send_arg(k, n);
            } else {
                // create successor task (join counter = 2) ...
                let kk = ctx.make_successor(SUM, k, 2);
                // ... then spawn the children, each pointed at its own
                // argument slot of the successor.
                ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
                ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
            }
        } else {
            ctx.compute(1);
            ctx.send_arg(k, task.args[0] + task.args[1]);
        }
    }
}

fn main() {
    let n = 20;
    let root = || Task::new(FIB, Continuation::host(0), &[n]);

    // Ground truth on the single-PE reference scheduler.
    let mut serial = SerialExecutor::new();
    let expected = serial.run(&mut FibWorker, root()).expect("serial run");
    println!(
        "fib({n}) = {expected}  (serial reference, S1 = {} tasks)",
        serial.stats().s1()
    );

    // FlexArch accelerators of growing size, each driven through the
    // `Engine` trait every engine shares.
    for (tiles, pes) in [(1, 1), (1, 4), (2, 4), (4, 4)] {
        let mut engine = FlexEngine::try_new(AccelConfig::flex(tiles, pes), ExecProfile::scalar())
            .expect("valid flex config");
        let out = engine
            .run(Workload::dynamic(&mut FibWorker, root()))
            .expect("flex run");
        assert_eq!(out.result, expected);
        println!(
            "FlexArch {:2} PEs: {:>12}  ({} tasks, {} successful steals)",
            tiles * pes,
            out.elapsed.to_string(),
            out.metrics.get("accel.tasks"),
            out.metrics.get("accel.steal_hits"),
        );
    }

    // The software baseline: same worker, same workload shape, software
    // runtime costs.
    for cores in [1, 4, 8] {
        let mut cpu = CpuEngine::new(cores, ExecProfile::scalar());
        let out = cpu
            .run(Workload::dynamic(&mut FibWorker, root()))
            .expect("cpu run");
        assert_eq!(out.result, expected);
        println!(
            "CPU  {cores:2} cores: {:>12}  ({} tasks, {} successful steals)",
            out.elapsed.to_string(),
            out.metrics.get("cpu.tasks"),
            out.metrics.get("cpu.steal_hits"),
        );
    }
}
