//! Vector-vector add: the paper's first task-graph example (Fig. 2a).
//!
//! A 256-element vector sum decomposed into 64-element chunks with the
//! `parallel_for` helper — "in case where the source vectors are very long,
//! it is more efficient to use recursive decomposition", which is exactly
//! what [`parallelxl::model::ParallelFor`] does. Runs on FlexArch and
//! renders the recorded task graph so the recursive split/join structure of
//! Fig. 2(a) is visible.
//!
//! Run with: `cargo run --release --example vector_add`

use parallelxl::arch::{AccelConfig, Engine, FlexEngine, Workload};
use parallelxl::model::{
    Continuation, ExecProfile, ParallelFor, SerialExecutor, Task, TaskContext, TaskTypeId, Worker,
};

const SPLIT: TaskTypeId = TaskTypeId(0);
const JOIN: TaskTypeId = TaskTypeId(1);

const N: u64 = 256;
const CHUNK: u64 = 64;
const A: u64 = 0x1000;
const B: u64 = 0x2000;
const C: u64 = 0x3000;

struct VvaddWorker {
    pf: ParallelFor,
}

impl Worker for VvaddWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let pf = self.pf;
        let handled = pf.step(task, ctx, |ctx, lo, hi| {
            // Stream both source chunks in, add, stream the result out.
            ctx.dma_read(A + 4 * lo, (hi - lo) * 4);
            ctx.dma_read(B + 4 * lo, (hi - lo) * 4);
            ctx.compute(hi - lo);
            for i in lo..hi {
                let a = ctx.mem().read_u32(A + 4 * i);
                let b = ctx.mem().read_u32(B + 4 * i);
                ctx.mem().write_u32(C + 4 * i, a.wrapping_add(b));
            }
            ctx.dma_write(C + 4 * lo, (hi - lo) * 4);
            hi - lo
        });
        assert!(handled, "only parallel_for tasks exist here");
    }
}

fn fill_inputs(mem: &mut parallelxl::mem::Memory) {
    for i in 0..N {
        mem.write_u32(A + 4 * i, i as u32);
        mem.write_u32(B + 4 * i, (1000 + i) as u32);
    }
}

fn main() {
    let pf = ParallelFor::new(SPLIT, JOIN, CHUNK);

    // Run on a 4-PE FlexArch accelerator.
    let mut engine = FlexEngine::new(AccelConfig::flex(1, 4), ExecProfile::new(8.0, 4.0));
    fill_inputs(engine.mem_mut());
    let out = engine
        .run(Workload::dynamic(
            &mut VvaddWorker { pf },
            pf.root_task(0, N, Continuation::host(0)),
        ))
        .expect("vvadd runs");
    assert_eq!(out.result, N, "reduction counts every element");
    for i in 0..N {
        assert_eq!(
            engine.memory().read_u32(C + 4 * i),
            (1000 + 2 * i) as u32,
            "c[{i}]"
        );
    }
    println!(
        "vvadd({N}) on 4 PEs: {} ({} tasks, {} steals)",
        out.elapsed,
        out.metrics.get("accel.tasks"),
        out.metrics.get("accel.steal_hits")
    );

    // Show the Fig. 2(a) task graph: chunks under a recursive split tree.
    let mut exec = SerialExecutor::new();
    fill_inputs(exec.mem_mut());
    exec.run(
        &mut VvaddWorker { pf },
        pf.root_task(0, N, Continuation::host(0)),
    )
    .expect("trace runs");
    let graph = exec.graph();
    println!(
        "task graph: {} nodes, critical path {} (vs {} chunk tasks)",
        graph.node_count(),
        graph.critical_path_len(),
        N / CHUNK
    );
    println!(
        "{}",
        graph.to_dot(&|t| if t == SPLIT {
            "vvadd".into()
        } else {
            "S".into()
        })
    );
}
