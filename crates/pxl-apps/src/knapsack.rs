//! `knapsack` — 0-1 knapsack by branch and bound (Cilk apps, FJ).
//!
//! Items are pre-sorted by value density; each task decides whether to take
//! or skip the next item, pruning branches whose fractional upper bound
//! cannot beat the best solution found so far. The best-so-far value lives
//! in shared memory and is updated with atomics, so pruning quality — and
//! therefore the amount of work — is *data-dependent and schedule-
//! dependent*, the hallmark irregularity of branch and bound.
//!
//! The LiteArch variant is the paper's cautionary tale: it "uses a
//! different algorithm that sacrifices algorithmic efficiency in order to
//! map to parallel-for" (Section V-D1) — a level-synchronous expansion
//! whose pruning only sees the best value from *previous rounds*, so it
//! explores more nodes; it scales well but its absolute performance is much
//! lower, exactly the shape of Table IV and Fig. 7.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::InputRng;

/// Branch on one item (forks take/skip).
const KS_NODE: TaskTypeId = TaskTypeId(0);
/// Max join.
const KS_MAX: TaskTypeId = TaskTypeId(1);
/// LiteArch: expand one node, appending children to the next-round list.
const KS_LITE: TaskTypeId = TaskTypeId(2);

#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Item table: (weight u32, value u32) pairs, density-sorted.
    items: u64,
    /// Best-so-far value (shared, atomically updated).
    best: u64,
    /// LiteArch next-round list: count word + (idx, cap, value) records.
    next_list: u64,
}

/// The knapsack benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Knapsack {
    n_items: u32,
    capacity: u64,
    /// Items beyond this depth are solved serially inside a task.
    cutoff: u32,
    seed: u64,
}

impl Knapsack {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let (n_items, capacity, cutoff) = match scale {
            Scale::Tiny => (14, 0, 5),
            Scale::Small => (20, 0, 8),
            Scale::Paper => (24, 0, 12),
        };
        let mut k = Knapsack {
            n_items,
            capacity,
            cutoff,
            seed: 0x6A95,
        };
        // Capacity at 45% of the total weight: large enough that many
        // subsets are feasible, small enough that the greedy prefix is not.
        let total: u64 = k.gen_items().iter().map(|(w, _)| w).sum();
        k.capacity = total * 45 / 100;
        k
    }

    fn layout(&self) -> Layout {
        let mut alloc = Allocator::new(0x10000);
        let items = alloc.alloc_array(self.n_items as u64, 8);
        let best = alloc.alloc(8, 64);
        let next_list = alloc.alloc_array(1 + 3 * 2_000_000, 8);
        Layout {
            items,
            best,
            next_list,
        }
    }

    /// Deterministic item set, sorted by value density (descending).
    fn gen_items(&self) -> Vec<(u64, u64)> {
        let mut rng = InputRng::new(self.seed);
        // Near-equal-density items: pruning hinges on the best-so-far value
        // rather than the density order, keeping the search tree bushy.
        let mut items: Vec<(u64, u64)> = (0..self.n_items)
            .map(|_| {
                let w = 20 + rng.next_in(100);
                (w, w + rng.next_in(3))
            })
            .collect();
        items.sort_by(|a, b| (b.1 * a.0).cmp(&(a.1 * b.0)));
        items
    }

    /// Generates the items once and writes them; returns the layout and
    /// the items for the worker.
    fn setup_memory(&self, mem: &mut Memory) -> (Layout, Vec<(u64, u64)>) {
        let l = self.layout();
        let items = self.gen_items();
        for (i, &(w, v)) in items.iter().enumerate() {
            mem.write_u32(l.items + 8 * i as u64, w as u32);
            mem.write_u32(l.items + 8 * i as u64 + 4, v as u32);
        }
        mem.write_u64(l.best, 0);
        mem.write_u64(l.next_list, 0);
        (l, items)
    }

    /// Exact DP solution for checking.
    fn golden(&self) -> u64 {
        let items = self.gen_items();
        let cap = self.capacity as usize;
        let mut dp = vec![0u64; cap + 1];
        for (w, v) in items {
            for c in (w as usize..=cap).rev() {
                dp[c] = dp[c].max(dp[c - w as usize] + v);
            }
        }
        dp[cap]
    }
}

/// Upper bound for the remaining items: current value plus everything that
/// is left, as in the Cilk-5 knapsack application. Deliberately loose — a
/// tight LP-relaxation bound prunes random instances almost instantly and
/// leaves no parallelism to study.
fn upper_bound(items: &[(u64, u64)], idx: usize, cap: u64, value: u64) -> u64 {
    let _ = cap;
    value + items[idx..].iter().map(|(_, v)| v).sum::<u64>()
}

/// Serial branch-and-bound of a subtree; returns (best value under this
/// node given `global_best` pruning, nodes explored).
fn serial_bb(
    items: &[(u64, u64)],
    idx: usize,
    cap: u64,
    value: u64,
    global_best: &mut u64,
) -> (u64, u64) {
    if value > *global_best {
        *global_best = value;
    }
    if idx == items.len() {
        return (value, 1);
    }
    if upper_bound(items, idx, cap, value) <= *global_best {
        return (value, 1);
    }
    let (w, v) = items[idx];
    let mut best = value;
    let mut nodes = 1;
    if w <= cap {
        let (b, k) = serial_bb(items, idx + 1, cap - w, value + v, global_best);
        best = best.max(b);
        nodes += k;
    }
    let (b, k) = serial_bb(items, idx + 1, cap, value, global_best);
    best = best.max(b);
    nodes += k;
    (best, nodes)
}

impl Benchmark for Knapsack {
    fn meta(&self) -> Meta {
        Meta {
            name: "knapsack",
            source: "Cilk apps",
            approach: "FJ",
            recursive_nested: true,
            data_dependent: true,
            mem_pattern: "Regular",
            mem_intensity: "Low",
        }
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile::new(4.0, 2.0)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let (layout, items) = self.setup_memory(mem);
        Instance {
            worker: Box::new(KnapsackWorker {
                items,
                cutoff: self.cutoff,
                layout,
            }),
            root: Task::new(KS_NODE, Continuation::host(0), &[0, self.capacity, 0]),
            footprint_bytes: 8 * self.n_items as u64 + 64,
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let (layout, items) = self.setup_memory(mem);
        Some(LiteInstance {
            worker: Box::new(KnapsackWorker {
                items,
                cutoff: self.cutoff,
                layout,
            }),
            driver: Box::new(KsLiteDriver {
                layout,
                nodes: vec![(0, self.capacity, 0)],
            }),
            footprint_bytes: 8 * self.n_items as u64 + 64,
        })
    }

    fn check(&self, mem: &Memory, result: u64) -> Result<(), String> {
        let want = self.golden();
        let l = self.layout();
        let best = mem.read_u64(l.best);
        if best != want {
            return Err(format!("knapsack: shared best {best}, want {want}"));
        }
        // FlexArch/CPU return the optimum through the join tree; the Lite
        // variant reports only through the shared best word (result == 0).
        if result != 0 && result != want {
            return Err(format!("knapsack: best value {result}, want {want}"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct KnapsackWorker {
    /// Item table cached in the worker's ROM/scratchpad (written once by the
    /// host; read-only during the search).
    items: Vec<(u64, u64)>,
    cutoff: u32,
    layout: Layout,
}

impl KnapsackWorker {
    /// Reads the shared best (timed) and publishes improvements (atomic max).
    fn update_best(&self, ctx: &mut dyn TaskContext, value: u64) {
        let best_addr = self.layout.best;
        let current = {
            let m = ctx.mem();
            m.read_u64(best_addr)
        };
        if value > current {
            ctx.amo(best_addr);
            let m = ctx.mem();
            if value > m.read_u64(best_addr) {
                m.write_u64(best_addr, value);
            }
        } else {
            ctx.load(best_addr, 8);
        }
    }
}

impl Worker for KnapsackWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let (idx, cap, value) = (task.args[0] as usize, task.args[1], task.args[2]);
        match task.ty {
            KS_NODE => {
                ctx.compute(6);
                self.update_best(ctx, value);
                let global = ctx.mem().read_u64(self.layout.best);
                if idx == self.items.len() || upper_bound(&self.items, idx, cap, value) <= global {
                    ctx.send_arg(task.k, value);
                    return;
                }
                if idx as u32 >= self.cutoff {
                    let mut best = global;
                    let (sub_best, nodes) = serial_bb(&self.items, idx, cap, value, &mut best);
                    ctx.compute(6 * nodes);
                    self.update_best(ctx, sub_best);
                    ctx.send_arg(task.k, sub_best);
                    return;
                }
                let (w, v) = self.items[idx];
                if w <= cap {
                    let kk = ctx.make_successor(KS_MAX, task.k, 2);
                    ctx.spawn(Task::new(
                        KS_NODE,
                        kk.with_slot(1),
                        &[idx as u64 + 1, cap, value],
                    ));
                    ctx.spawn(Task::new(
                        KS_NODE,
                        kk.with_slot(0),
                        &[idx as u64 + 1, cap - w, value + v],
                    ));
                } else {
                    // Item does not fit: sequential composition (skip).
                    ctx.spawn(Task::new(KS_NODE, task.k, &[idx as u64 + 1, cap, value]));
                }
            }
            KS_MAX => {
                ctx.compute(1);
                ctx.send_arg(task.k, task.args[0].max(task.args[1]));
            }
            KS_LITE => {
                ctx.compute(6);
                self.update_best(ctx, value);
                // Pruning only sees the best published in earlier rounds —
                // the algorithmic inefficiency of the parallel-for mapping.
                let global = ctx.mem().read_u64(self.layout.best);
                if idx == self.items.len() || upper_bound(&self.items, idx, cap, value) <= global {
                    return;
                }
                if idx as u32 >= self.cutoff {
                    let mut best = global;
                    let (sub_best, nodes) = serial_bb(&self.items, idx, cap, value, &mut best);
                    ctx.compute(6 * nodes);
                    self.update_best(ctx, sub_best);
                    return;
                }
                let (w, v) = self.items[idx];
                let list = self.layout.next_list;
                ctx.amo(list);
                let mem = ctx.mem();
                let mut count = mem.read_u64(list);
                let push = |mem: &mut Memory, i: u64, c: u64, val: u64, count: &mut u64| {
                    let rec = list + 8 + 24 * *count;
                    mem.write_u64(rec, i);
                    mem.write_u64(rec + 8, c);
                    mem.write_u64(rec + 16, val);
                    *count += 1;
                };
                if w <= cap {
                    push(mem, idx as u64 + 1, cap - w, value + v, &mut count);
                }
                push(mem, idx as u64 + 1, cap, value, &mut count);
                mem.write_u64(list, count);
                ctx.store(list + 8, 24);
            }
            other => panic!("knapsack: unexpected task type {other}"),
        }
    }
}

/// Level-synchronous LiteArch driver.
#[derive(Debug)]
struct KsLiteDriver {
    layout: Layout,
    nodes: Vec<(u64, u64, u64)>,
}

impl pxl_arch::LiteDriver for KsLiteDriver {
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        if round > 0 {
            let list = self.layout.next_list;
            let count = mem.read_u64(list);
            self.nodes = (0..count)
                .map(|i| {
                    let rec = list + 8 + 24 * i;
                    (
                        mem.read_u64(rec),
                        mem.read_u64(rec + 8),
                        mem.read_u64(rec + 16),
                    )
                })
                .collect();
            mem.write_u64(list, 0);
        }
        if self.nodes.is_empty() {
            return None;
        }
        Some(
            self.nodes
                .iter()
                .map(|&(idx, cap, value)| {
                    Task::new(KS_LITE, Continuation::host(6), &[idx, cap, value])
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
    fn serial_finds_optimum() {
        let bench = Knapsack::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_finds_optimum() {
        let bench = Knapsack::new(Scale::Tiny);
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
    fn lite_finds_optimum_with_more_work() {
        let bench = Knapsack::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let out = engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        // Result comes back via the shared best word, not host slot 0.
        let l = bench.layout();
        let best = engine.memory().read_u64(l.best);
        assert_eq!(best, bench.golden());
        let _ = out;
    }

    #[test]
    fn upper_bound_is_admissible() {
        let bench = Knapsack::new(Scale::Tiny);
        let items = bench.gen_items();
        // The bound at the root must be >= the exact optimum.
        assert!(upper_bound(&items, 0, bench.capacity, 0) >= bench.golden());
    }

    #[test]
    fn golden_dp_small_case() {
        // Hand-checkable instance.
        let k = Knapsack {
            n_items: 3,
            capacity: 50,
            cutoff: 1,
            seed: 0,
        };
        // Items are generated from the seed; just ensure DP <= sum of values.
        let items = k.gen_items();
        let total: u64 = items.iter().map(|(_, v)| v).sum();
        assert!(k.golden() <= total);
    }
}
