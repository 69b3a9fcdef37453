//! `bfsqueue` — breadth-first search with a frontier queue (MachSuite, PF).
//!
//! Level-synchronous BFS: each level's frontier lives in a queue, and the
//! paper parallelizes "across the frontier with a parallel-for loop"
//! (Section V-A). Discovered vertices are appended to the next-level queue
//! with an atomic tail bump. Neighbor lookups are the irregular,
//! high-memory-intensity part (Table II: Irregular / High).
//!
//! On FlexArch the level loop itself is expressed with continuation
//! passing: a `LEVEL` task runs the frontier parallel-for whose join spawns
//! the next `LEVEL` task (sequential composition, Fig. 1(a)). On LiteArch
//! the host driver performs the level loop, one round per level.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, ParallelFor, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::InputRng;

/// Start one BFS level.
const BF_LEVEL: TaskTypeId = TaskTypeId(0);
/// Successor of a level's parallel-for: advance to the next level.
const BF_NEXT: TaskTypeId = TaskTypeId(1);
/// Parallel-for split over frontier indices.
const BF_SPLIT: TaskTypeId = TaskTypeId(2);
/// Parallel-for join.
const BF_JOIN: TaskTypeId = TaskTypeId(3);

/// Frontier entries per leaf task.
const GRAIN: u64 = 32;
/// "Unvisited" distance marker.
const INF: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Layout {
    row_ptr: u64,
    edges: u64,
    dist: u64,
    /// Two frontier queues, selected by level parity.
    queue: [u64; 2],
    /// Tail counters of the two queues.
    count: [u64; 2],
    /// Current level word (written by the level task / Lite driver).
    level_word: u64,
}

/// One generation of the input graph in CSR form.
struct Graph {
    row_ptr: Vec<u32>,
    edges: Vec<u32>,
}

impl Graph {
    fn nodes(&self) -> u64 {
        self.row_ptr.len() as u64 - 1
    }

    fn layout(&self) -> Layout {
        let n = self.nodes();
        let mut alloc = Allocator::new(0x10000);
        Layout {
            row_ptr: alloc.alloc_array(n + 1, 4),
            edges: alloc.alloc_array(self.edges.len() as u64, 4),
            dist: alloc.alloc_array(n, 4),
            queue: [alloc.alloc_array(n, 4), alloc.alloc_array(n, 4)],
            count: [alloc.alloc(64, 64), alloc.alloc(64, 64)],
            level_word: alloc.alloc(64, 64),
        }
    }

    /// Bytes of input and output: the CSR arrays, `dist` and both queues.
    fn footprint(&self) -> u64 {
        4 * (self.row_ptr.len() + self.edges.len() + 3 * self.nodes() as usize) as u64
    }

    /// Host-side golden distances.
    fn golden(&self) -> Vec<u32> {
        let mut dist = vec![INF; self.nodes() as usize];
        dist[0] = 0;
        let mut frontier = vec![0usize];
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                for e in self.row_ptr[v]..self.row_ptr[v + 1] {
                    let u = self.edges[e as usize] as usize;
                    if dist[u] == INF {
                        dist[u] = level;
                        next.push(u);
                    }
                }
            }
            frontier = next;
        }
        dist
    }
}

/// The BFS benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BfsQueue {
    n: u64,
    extra_edges: u64,
    seed: u64,
}

impl BfsQueue {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let (n, extra_edges) = match scale {
            Scale::Tiny => (512, 3),
            Scale::Small => (8_192, 5),
            Scale::Paper => (32_768, 7),
        };
        BfsQueue {
            n,
            extra_edges,
            seed: 0xBF5,
        }
    }

    /// Deterministic graph: a ring (guaranteeing connectivity) plus random
    /// extra out-edges per node, in CSR form. Generated once per
    /// `flex`/`lite`/`check` call; the layout, footprint and golden
    /// distances all derive from it.
    fn gen_graph(&self) -> Graph {
        let mut rng = InputRng::new(self.seed);
        let mut row_ptr = vec![0u32];
        let mut edges = Vec::new();
        for v in 0..self.n {
            edges.push(((v + 1) % self.n) as u32);
            for _ in 0..rng.next_in(2 * self.extra_edges) {
                edges.push(rng.next_in(self.n) as u32);
            }
            row_ptr.push(edges.len() as u32);
        }
        Graph { row_ptr, edges }
    }

    /// Generates the graph and writes it with the BFS state seeded at
    /// vertex 0; returns the layout and the footprint in bytes.
    fn setup_memory(&self, mem: &mut Memory) -> (Layout, u64) {
        let g = self.gen_graph();
        let l = g.layout();
        mem.write_u32_slice(l.row_ptr, &g.row_ptr);
        mem.write_u32_slice(l.edges, &g.edges);
        mem.write_u32_slice(l.dist, &vec![INF; self.n as usize]);
        // Seed: vertex 0 at distance 0 in queue 0.
        mem.write_u32(l.dist, 0);
        mem.write_u32(l.queue[0], 0);
        mem.write_u64(l.count[0], 1);
        mem.write_u64(l.count[1], 0);
        mem.write_u64(l.level_word, 0);
        (l, g.footprint())
    }

    fn pf(&self) -> ParallelFor {
        ParallelFor::new(BF_SPLIT, BF_JOIN, GRAIN)
    }
}

impl Benchmark for BfsQueue {
    fn meta(&self) -> Meta {
        Meta {
            name: "bfsqueue",
            source: "MachSuite",
            approach: "PF",
            recursive_nested: false,
            data_dependent: false,
            mem_pattern: "Irregular",
            mem_intensity: "High",
        }
    }

    fn profile(&self) -> ExecProfile {
        // Memory-bound pointer chasing: little for HLS or NEON to exploit.
        ExecProfile::new(2.0, 2.0)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let (layout, footprint_bytes) = self.setup_memory(mem);
        Instance {
            worker: Box::new(BfsWorker {
                layout,
                pf: self.pf(),
            }),
            // args: level, visited count so far (excluding the source).
            root: Task::new(BF_LEVEL, Continuation::host(0), &[0, 0]),
            footprint_bytes,
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let (layout, footprint_bytes) = self.setup_memory(mem);
        Some(LiteInstance {
            worker: Box::new(BfsWorker {
                layout,
                pf: self.pf(),
            }),
            driver: Box::new(BfsLiteDriver { layout }),
            footprint_bytes,
        })
    }

    fn check(&self, mem: &Memory, result: u64) -> Result<(), String> {
        // The graph is dropped before `dist` is read back.
        let (dist, golden) = {
            let g = self.gen_graph();
            (g.layout().dist, g.golden())
        };
        let got = mem.read_u32_slice(dist, golden.len());
        if got != golden {
            let bad = got.iter().zip(&golden).position(|(a, b)| a != b).unwrap();
            return Err(format!(
                "bfsqueue: dist[{bad}] = {}, want {}",
                got[bad], golden[bad]
            ));
        }
        let visited = golden.iter().filter(|&&d| d != INF).count() as u64;
        if result != visited - 1 {
            return Err(format!(
                "bfsqueue: visited {result} vertices, want {}",
                visited - 1
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct BfsWorker {
    layout: Layout,
    pf: ParallelFor,
}

impl BfsWorker {
    /// Visits frontier entries `[lo, hi)` of the current level's queue;
    /// returns the number of vertices discovered.
    fn visit_range(&self, ctx: &mut dyn TaskContext, lo: u64, hi: u64) -> u64 {
        let l = self.layout;
        let level = ctx.read_u32(l.level_word) as u64;
        let (cur_q, next_q) = (
            l.queue[(level & 1) as usize],
            l.queue[((level + 1) & 1) as usize],
        );
        let next_count = l.count[((level + 1) & 1) as usize];
        ctx.dma_read(cur_q + 4 * lo, (hi - lo) * 4);
        let mut discovered = 0u64;
        for i in lo..hi {
            let v = ctx.mem().read_u32(cur_q + 4 * i) as u64;
            let (e_lo, e_hi) = {
                ctx.load(l.row_ptr + 4 * v, 8);
                let m = ctx.mem();
                (
                    m.read_u32(l.row_ptr + 4 * v) as u64,
                    m.read_u32(l.row_ptr + 4 * (v + 1)) as u64,
                )
            };
            ctx.dma_read(l.edges + 4 * e_lo, (e_hi - e_lo) * 4);
            ctx.compute(2 * (e_hi - e_lo) + 2);
            for e in e_lo..e_hi {
                let u = ctx.mem().read_u32(l.edges + 4 * e) as u64;
                // Irregular visited check.
                let d = ctx.read_u32(l.dist + 4 * u);
                if d == INF {
                    ctx.write_u32(l.dist + 4 * u, level as u32 + 1);
                    // Atomic tail bump + enqueue.
                    ctx.amo(next_count);
                    let m = ctx.mem();
                    let tail = m.read_u64(next_count);
                    m.write_u32(next_q + 4 * tail, u as u32);
                    m.write_u64(next_count, tail + 1);
                    ctx.store(next_q + 4 * tail, 4);
                    discovered += 1;
                }
            }
        }
        discovered
    }
}

impl Worker for BfsWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let l = self.layout;
        match task.ty {
            BF_LEVEL => {
                let (level, visited) = (task.args[0], task.args[1]);
                ctx.write_u32(l.level_word, level as u32);
                let cur_count = l.count[(level & 1) as usize];
                ctx.load(cur_count, 8);
                let n_f = ctx.mem().read_u64(cur_count);
                if n_f == 0 {
                    ctx.send_arg(task.k, visited);
                    return;
                }
                // Reset the next queue's tail, then run this level's
                // parallel-for; its join feeds the NEXT task.
                ctx.write_u64(l.count[((level + 1) & 1) as usize], 0);
                let kk = ctx.make_successor_with(BF_NEXT, task.k, 1, &[(1, level), (2, visited)]);
                ctx.spawn(self.pf.root_task(0, n_f, kk));
            }
            BF_NEXT => {
                let discovered = task.args[0];
                let (level, visited) = (task.args[1], task.args[2]);
                ctx.compute(2);
                ctx.spawn(Task::new(
                    BF_LEVEL,
                    task.k,
                    &[level + 1, visited + discovered],
                ));
            }
            _ => {
                let handled = self
                    .pf
                    .step(task, ctx, |ctx, lo, hi| self.visit_range(ctx, lo, hi));
                assert!(handled, "bfsqueue: unexpected task type {}", task.ty);
            }
        }
    }
}

/// LiteArch driver: one round per BFS level; the host reads the frontier
/// size and chops it into leaf-size chunks.
#[derive(Debug)]
struct BfsLiteDriver {
    layout: Layout,
}

impl pxl_arch::LiteDriver for BfsLiteDriver {
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        let l = self.layout;
        let level = round as u64;
        let n_f = mem.read_u64(l.count[(level & 1) as usize]);
        if n_f == 0 {
            return None;
        }
        mem.write_u32(l.level_word, level as u32);
        mem.write_u64(l.count[((level + 1) & 1) as usize], 0);
        Some(
            (0..n_f.div_ceil(GRAIN))
                .map(|i| {
                    Task::new(
                        BF_SPLIT,
                        Continuation::host(0),
                        &[i * GRAIN, ((i + 1) * GRAIN).min(n_f)],
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_arch::{Engine, Workload};
    use pxl_model::SerialExecutor;

    #[test]
    fn serial_searches() {
        let bench = BfsQueue::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_searches() {
        let bench = BfsQueue::new(Scale::Tiny);
        let mut engine =
            pxl_arch::FlexEngine::new(pxl_arch::AccelConfig::flex(2, 2), bench.profile());
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
    }

    #[test]
    fn lite_searches() {
        let bench = BfsQueue::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let out = engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        assert!(
            out.metrics.get("lite.rounds") >= 3,
            "BFS needs several levels"
        );
    }

    #[test]
    fn ring_makes_graph_connected() {
        let bench = BfsQueue::new(Scale::Tiny);
        let golden = bench.gen_graph().golden();
        assert!(golden.iter().all(|&d| d != INF), "every vertex reachable");
    }
}
