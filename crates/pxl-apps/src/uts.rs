//! `uts` — Unbalanced Tree Search (UTS benchmark suite, FJ).
//!
//! Dynamically constructs and counts an unbalanced tree whose shape is
//! determined by per-node hashes (the original uses SHA-1; we use a
//! SplitMix64 mixer with the same role). A binomial tree: each non-root
//! node has `b` children with probability `q` (with `q*b < 1` the tree is
//! finite but its subtree sizes have enormous variance), while the root
//! fans out to `r` children. "The unbalanced nature of the tree stresses
//! the load balancing capability of the architecture" (Section V-A) — this
//! is the benchmark where hardware work stealing shines over the software
//! runtime (6.50x vs 3.91x at 8 PEs/cores in Table IV).
//!
//! The LiteArch variant expands the tree level by level; imbalance across
//! a level plus the per-round barrier limit its scaling, matching the
//! paper's Lite numbers tapering at 16-32 PEs.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::splitmix64;

/// Count a node's subtree (forks over children ranges).
const UTS_NODE: TaskTypeId = TaskTypeId(0);
/// Sum join.
const UTS_SUM: TaskTypeId = TaskTypeId(1);
/// LiteArch: expand one node into the next-round list.
const UTS_LITE: TaskTypeId = TaskTypeId(2);

/// Cost (abstract ops) of hashing one node — the UTS workload knob; the
/// original spends most of its time in SHA-1.
const HASH_OPS: u64 = 40;

#[derive(Debug, Clone, Copy)]
struct Layout {
    /// LiteArch next-round list: count word + (state, depth) records.
    next_list: u64,
}

/// Tree-shape parameters.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Root fan-out.
    root_children: u64,
    /// Non-root branching factor when a node is internal.
    b: u64,
    /// Probability (as numerator over 2^16) that a node is internal.
    q_num: u64,
    /// Hard depth limit (safety bound).
    max_depth: u64,
}

impl Shape {
    /// Number of children of the node with hash `state` at `depth`.
    fn children(&self, state: u64, depth: u64) -> u64 {
        if depth >= self.max_depth {
            return 0;
        }
        if depth == 0 {
            return self.root_children;
        }
        let h = splitmix64(state ^ 0x7575);
        if (h & 0xFFFF) < self.q_num {
            self.b
        } else {
            0
        }
    }

    fn child_state(&self, state: u64, idx: u64) -> u64 {
        splitmix64(state.wrapping_mul(0x100_0193).wrapping_add(idx + 1))
    }
}

/// The UTS benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Uts {
    shape: Shape,
    root_state: u64,
    /// Subtrees below this depth are counted serially inside one task.
    cutoff: u64,
}

impl Uts {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let (root_children, q_num, cutoff) = match scale {
            // q = q_num / 65536; with b = 8, E[children] = 8q < 1.
            Scale::Tiny => (32, 7_300, 3),
            Scale::Small => (256, 7_700, 4),
            Scale::Paper => (3_000, 8_000, 9),
        };
        Uts {
            shape: Shape {
                root_children,
                b: 8,
                q_num,
                max_depth: 60,
            },
            root_state: 0x57A7_2024,
            cutoff,
        }
    }

    fn layout(&self) -> Layout {
        let mut alloc = Allocator::new(0x10000);
        let next_list = alloc.alloc_array(1 + 2 * 4_000_000, 8);
        Layout { next_list }
    }

    /// Host-side golden tree size (iterative to dodge deep recursion).
    fn golden(&self) -> u64 {
        let mut stack = vec![(self.root_state, 0u64)];
        let mut count = 0u64;
        while let Some((state, depth)) = stack.pop() {
            count += 1;
            let m = self.shape.children(state, depth);
            for i in 0..m {
                stack.push((self.shape.child_state(state, i), depth + 1));
            }
        }
        count
    }
}

/// Serial subtree count; returns nodes visited.
fn serial_count(shape: &Shape, state: u64, depth: u64) -> u64 {
    let mut stack = vec![(state, depth)];
    let mut count = 0u64;
    while let Some((s, d)) = stack.pop() {
        count += 1;
        let m = shape.children(s, d);
        for i in 0..m {
            stack.push((shape.child_state(s, i), d + 1));
        }
    }
    count
}

impl Benchmark for Uts {
    fn meta(&self) -> Meta {
        Meta {
            name: "uts",
            source: "UTS",
            approach: "FJ",
            recursive_nested: true,
            data_dependent: true,
            mem_pattern: "Regular",
            mem_intensity: "Low",
        }
    }

    fn profile(&self) -> ExecProfile {
        // The SHA-like hash datapath unrolls fully in HLS (eight rounds in
        // flight per cycle).
        ExecProfile::new(8.0, 2.0)
    }

    fn flex(&self, _mem: &mut Memory) -> Instance {
        Instance {
            worker: Box::new(UtsWorker {
                shape: self.shape,
                cutoff: self.cutoff,
                layout: self.layout(),
            }),
            // args: state, depth, child_lo, child_hi (0,0 = evaluate node).
            root: Task::new(UTS_NODE, Continuation::host(0), &[self.root_state, 0, 0, 0]),
            footprint_bytes: 4096,
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let layout = self.layout();
        mem.write_u64(layout.next_list, 0);
        Some(LiteInstance {
            worker: Box::new(UtsWorker {
                shape: self.shape,
                cutoff: self.cutoff,
                layout,
            }),
            driver: Box::new(UtsLiteDriver {
                layout,
                root_state: self.root_state,
                cutoff: self.cutoff,
            }),
            footprint_bytes: 4096,
        })
    }

    fn check(&self, _mem: &Memory, result: u64) -> Result<(), String> {
        let want = self.golden();
        if result != want {
            return Err(format!("uts: counted {result} nodes, want {want}"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct UtsWorker {
    shape: Shape,
    cutoff: u64,
    layout: Layout,
}

impl Worker for UtsWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let shape = self.shape;
        match task.ty {
            UTS_NODE => {
                let (state, depth) = (task.args[0], task.args[1]);
                let (lo, hi) = (task.args[2], task.args[3]);
                if hi > lo {
                    // A range-split task over this node's children.
                    if hi - lo > 2 {
                        ctx.compute(2);
                        let mid = lo + (hi - lo) / 2;
                        let kk = ctx.make_successor(UTS_SUM, task.k, 2);
                        ctx.spawn(Task::new(
                            UTS_NODE,
                            kk.with_slot(1),
                            &[state, depth, mid, hi],
                        ));
                        ctx.spawn(Task::new(
                            UTS_NODE,
                            kk.with_slot(0),
                            &[state, depth, lo, mid],
                        ));
                    } else if hi - lo == 2 {
                        ctx.compute(2);
                        let kk = ctx.make_successor(UTS_SUM, task.k, 2);
                        for (slot, i) in [(0u8, lo), (1u8, lo + 1)] {
                            ctx.spawn(Task::new(
                                UTS_NODE,
                                kk.with_slot(slot),
                                &[shape.child_state(state, i), depth + 1, 0, 0],
                            ));
                        }
                    } else {
                        ctx.compute(1);
                        ctx.spawn(Task::new(
                            UTS_NODE,
                            task.k,
                            &[shape.child_state(state, lo), depth + 1, 0, 0],
                        ));
                    }
                    return;
                }
                // Evaluate the node itself.
                ctx.compute(HASH_OPS);
                if depth >= self.cutoff {
                    let nodes = serial_count(&shape, state, depth);
                    ctx.compute(HASH_OPS * nodes);
                    ctx.send_arg(task.k, nodes);
                    return;
                }
                let m = shape.children(state, depth);
                if m == 0 {
                    ctx.send_arg(task.k, 1);
                } else {
                    // Count self + children: successor adds 1 via preset.
                    let kk = ctx.make_successor_with(UTS_SUM, task.k, 2, &[(2, 1)]);
                    let mid = m / 2;
                    ctx.spawn(Task::new(
                        UTS_NODE,
                        kk.with_slot(1),
                        &[state, depth, mid, m],
                    ));
                    ctx.spawn(Task::new(
                        UTS_NODE,
                        kk.with_slot(0),
                        &[state, depth, 0, mid],
                    ));
                }
            }
            UTS_SUM => {
                ctx.compute(1);
                // args[2] carries an optional preset "+1" for the node itself.
                ctx.send_arg(task.k, task.args[0] + task.args[1] + task.args[2]);
            }
            UTS_LITE => {
                let (state, depth) = (task.args[0], task.args[1]);
                ctx.compute(HASH_OPS);
                if depth >= self.cutoff {
                    let nodes = serial_count(&shape, state, depth);
                    ctx.compute(HASH_OPS * nodes);
                    ctx.send_arg(task.k, nodes);
                    return;
                }
                // Count self, expand children into the next round.
                ctx.send_arg(task.k, 1);
                let m = shape.children(state, depth);
                if m > 0 {
                    let list = self.layout.next_list;
                    ctx.amo(list);
                    let mem = ctx.mem();
                    let mut count = mem.read_u64(list);
                    for i in 0..m {
                        let rec = list + 8 + 16 * count;
                        mem.write_u64(rec, shape.child_state(state, i));
                        mem.write_u64(rec + 8, depth + 1);
                        count += 1;
                    }
                    mem.write_u64(list, count);
                    ctx.store(list + 8, 16);
                }
            }
            other => panic!("uts: unexpected task type {other}"),
        }
    }
}

/// Level-synchronous LiteArch driver.
#[derive(Debug)]
struct UtsLiteDriver {
    layout: Layout,
    root_state: u64,
    cutoff: u64,
}

impl pxl_arch::LiteDriver for UtsLiteDriver {
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        let frontier: Vec<(u64, u64)> = if round == 0 {
            vec![(self.root_state, 0)]
        } else {
            let list = self.layout.next_list;
            let count = mem.read_u64(list);
            let frontier = (0..count)
                .map(|i| {
                    let rec = list + 8 + 16 * i;
                    (mem.read_u64(rec), mem.read_u64(rec + 8))
                })
                .collect();
            mem.write_u64(list, 0);
            frontier
        };
        if frontier.is_empty() || round as u64 > self.cutoff {
            return None;
        }
        Some(
            frontier
                .iter()
                .map(|&(state, depth)| Task::new(UTS_LITE, Continuation::host(0), &[state, depth]))
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
    fn tree_is_nontrivial_and_finite() {
        let bench = Uts::new(Scale::Tiny);
        let n = bench.golden();
        assert!(n > 100, "tree too small: {n}");
        assert!(n < 5_000_000, "tree too large: {n}");
    }

    #[test]
    fn tree_is_unbalanced() {
        // Subtree sizes under the root must vary wildly — that is the point
        // of the benchmark.
        let bench = Uts::new(Scale::Tiny);
        let sizes: Vec<u64> = (0..bench.shape.root_children)
            .map(|i| {
                serial_count(
                    &bench.shape,
                    bench.shape.child_state(bench.root_state, i),
                    1,
                )
            })
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max >= 8 * min.max(1), "not unbalanced: min={min} max={max}");
    }

    #[test]
    fn serial_counts_tree() {
        let bench = Uts::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_counts_tree() {
        let bench = Uts::new(Scale::Tiny);
        let mut engine =
            pxl_arch::FlexEngine::new(pxl_arch::AccelConfig::flex(2, 2), bench.profile());
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        assert!(
            out.metrics.get("accel.steal_hits") > 0,
            "imbalance forces steals"
        );
    }

    #[test]
    fn lite_rounds_count_tree() {
        let bench = Uts::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let out = engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
    }

    #[test]
    fn a_reused_lite_driver_finishes_a_restored_run_like_a_fresh_one() {
        let bench = Uts::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(2, 2), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let start = engine.snapshot();
        engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        let mut finish = |driver: &mut dyn pxl_arch::LiteDriver| {
            engine.restore(&start).unwrap();
            let out = engine
                .run(Workload::rounds(worker.as_mut(), driver))
                .unwrap();
            (out.result, out.elapsed, out.metrics.to_json())
        };
        let reused = finish(driver.as_mut());
        let fresh = finish(bench.lite(&mut Memory::new()).unwrap().driver.as_mut());
        assert_eq!(reused, fresh);
        assert_eq!(reused.0, bench.golden());
    }
}
