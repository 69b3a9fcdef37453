//! Renders the dynamic task graph of the paper's Fibonacci example
//! (Fig. 2b) as Graphviz DOT, and prints graph statistics for the
//! benchmarks' graphs — the critical path that bounds speedup, and the
//! ratio of work to span.
//!
//! Run with: `cargo run --release --example task_graph > fib.dot`
//! then: `dot -Tpng fib.dot -o fib.png`

use parallelxl::apps::{by_name, Scale};
use parallelxl::model::{Continuation, SerialExecutor, Task, TaskContext, TaskTypeId, Worker};

const FIB: TaskTypeId = TaskTypeId(0);
const SUM: TaskTypeId = TaskTypeId(1);

struct FibWorker;
impl Worker for FibWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let k = task.k;
        if task.ty == FIB {
            let n = task.args[0];
            if n < 2 {
                ctx.send_arg(k, n);
            } else {
                let kk = ctx.make_successor(SUM, k, 2);
                ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
                ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
            }
        } else {
            ctx.send_arg(k, task.args[0] + task.args[1]);
        }
    }
}

fn main() {
    // The paper's Fig. 2(b): fib(4) as a dynamic task graph.
    let mut exec = SerialExecutor::new();
    let result = exec
        .run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[4]))
        .expect("fib(4) runs");
    let graph = exec.graph();
    eprintln!(
        "fib(4) = {result}: {} nodes, {} edges, critical path {}",
        graph.node_count(),
        graph.edge_count(),
        graph.critical_path_len()
    );
    println!(
        "{}",
        graph.to_dot(&|t| if t == FIB { "fib".into() } else { "S".into() })
    );

    // Work/span summary for each benchmark's real task graph.
    eprintln!("\nbenchmark    nodes  critical-path  parallelism");
    for name in ["nw", "quicksort", "queens", "uts"] {
        let bench = by_name(name, Scale::Tiny).expect("registered");
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        exec.run(worker.as_mut(), inst.root).expect("runs");
        let g = exec.graph();
        let cp = g.critical_path_len();
        eprintln!(
            "{name:12} {:>5}  {:>13}  {:>10.1}",
            g.node_count(),
            cp,
            g.node_count() as f64 / cp as f64
        );
    }
}
