//! `quicksort` — classic Quicksort with Hoare partitioning (in-house, FJ).
//!
//! A divide-and-conquer sort that recursively partitions an array and sorts
//! the two halves in parallel (fork-join across the divide-and-conquer
//! tree). The partition step itself is serial, so speedup is bounded by
//! Amdahl's law — the effect the paper highlights when quicksort's
//! scalability tapers off beyond 8-16 PEs (Section V-D1).
//!
//! The LiteArch variant follows the paper's multi-round recipe: round *r*
//! processes every segment at recursion depth *r* with a parallel-for, and
//! each task appends the two child segments to a next-round list in shared
//! memory.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::InputRng;

/// Sort a segment (fork-join version).
const QS_SORT: TaskTypeId = TaskTypeId(0);
/// Join of two sorted halves (forwards a count of sorted elements).
const QS_JOIN: TaskTypeId = TaskTypeId(1);
/// LiteArch: partition-or-sort one segment, appending children to the
/// next-round list.
const QS_LITE: TaskTypeId = TaskTypeId(2);

/// Below this many elements, sort serially with insertion sort.
const SERIAL_CUTOFF: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Layout {
    data: u64,
    /// LiteArch only: next-round segment list (count word + (lo,hi) pairs).
    next_list: u64,
}

impl Layout {
    fn elem(&self, i: u64) -> u64 {
        self.data + 4 * i
    }
}

/// The quicksort benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Quicksort {
    n: u64,
    seed: u64,
}

impl Quicksort {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Tiny => 1 << 10,
            Scale::Small => 1 << 13,
            Scale::Paper => 1 << 16,
        };
        Quicksort { n, seed: 0x51C2 }
    }

    fn layout(&self) -> Layout {
        let mut alloc = Allocator::new(0x10000);
        let data = alloc.alloc_array(self.n, 4);
        let next_list = alloc.alloc_array(2 * self.n + 1, 8);
        Layout { data, next_list }
    }

    fn gen_input(&self) -> Vec<u32> {
        let mut rng = InputRng::new(self.seed);
        (0..self.n).map(|_| rng.next_u64() as u32).collect()
    }

    fn setup_memory(&self, mem: &mut Memory) -> Layout {
        let l = self.layout();
        mem.write_u32_slice(l.data, &self.gen_input());
        l
    }

    fn footprint(&self) -> u64 {
        4 * self.n
    }
}

impl Benchmark for Quicksort {
    fn meta(&self) -> Meta {
        Meta {
            name: "quicksort",
            source: "In-house",
            approach: "FJ",
            recursive_nested: true,
            data_dependent: true,
            mem_pattern: "Regular",
            mem_intensity: "Medium",
        }
    }

    fn profile(&self) -> ExecProfile {
        // HLS pipelines the partition scan at two elements per cycle; the
        // branchy scalar loop on the OOO core averages ~1.5 ops/cycle.
        ExecProfile::new(4.0, 1.5)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let layout = self.setup_memory(mem);
        Instance {
            worker: Box::new(QuicksortWorker { layout }),
            root: Task::new(QS_SORT, Continuation::host(0), &[0, self.n]),
            footprint_bytes: self.footprint(),
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let layout = self.setup_memory(mem);
        Some(LiteInstance {
            worker: Box::new(QuicksortWorker { layout }),
            driver: Box::new(QsLiteDriver {
                layout,
                current: vec![(0, self.n)],
            }),
            footprint_bytes: self.footprint(),
        })
    }

    fn check(&self, mem: &Memory, result: u64) -> Result<(), String> {
        let l = self.layout();
        let got = mem.read_u32_slice(l.data, self.n as usize);
        let mut want = self.gen_input();
        want.sort_unstable();
        if got != want {
            let bad = got.iter().zip(&want).position(|(a, b)| a != b).unwrap();
            return Err(format!(
                "quicksort: element {bad} = {}, want {}",
                got[bad], want[bad]
            ));
        }
        if result != self.n {
            return Err(format!(
                "quicksort: reduction reported {result} sorted elements, want {}",
                self.n
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct QuicksortWorker {
    layout: Layout,
}

impl QuicksortWorker {
    /// Serial Hoare partition over `[lo, hi)`; returns the split point.
    /// Charges a streaming read of the range plus stores for actual swaps.
    fn partition(&self, ctx: &mut dyn TaskContext, lo: u64, hi: u64) -> u64 {
        let l = self.layout;
        let len = hi - lo;
        // Median-of-three pivot to avoid quadratic behavior.
        let m = ctx.mem();
        let a = m.read_u32(l.elem(lo));
        let b = m.read_u32(l.elem(lo + len / 2));
        let c = m.read_u32(l.elem(hi - 1));
        let pivot = a.max(b).min(a.min(b).max(c));

        // The scan streams the whole segment once.
        ctx.dma_read(l.elem(lo), len * 4);
        ctx.compute(2 * len);

        let mem = ctx.mem();
        let mut i = lo as i64 - 1;
        let mut j = hi as i64;
        let mut swaps = 0u64;
        loop {
            loop {
                i += 1;
                if mem.read_u32(l.elem(i as u64)) >= pivot {
                    break;
                }
            }
            loop {
                j -= 1;
                if mem.read_u32(l.elem(j as u64)) <= pivot {
                    break;
                }
            }
            if i >= j {
                break;
            }
            let x = mem.read_u32(l.elem(i as u64));
            let y = mem.read_u32(l.elem(j as u64));
            mem.write_u32(l.elem(i as u64), y);
            mem.write_u32(l.elem(j as u64), x);
            swaps += 1;
        }
        // Swapped lines are written back.
        ctx.dma_write(l.elem(lo), (swaps * 8).min(len * 4));
        j as u64 + 1
    }

    /// Serial insertion sort for small segments.
    fn base_sort(&self, ctx: &mut dyn TaskContext, lo: u64, hi: u64) {
        let l = self.layout;
        let len = hi - lo;
        ctx.dma_read(l.elem(lo), len * 4);
        let mem = ctx.mem();
        let mut seg = mem.read_u32_slice(l.elem(lo), len as usize);
        let mut moves = 0u64;
        for i in 1..seg.len() {
            let v = seg[i];
            let mut j = i;
            while j > 0 && seg[j - 1] > v {
                seg[j] = seg[j - 1];
                j -= 1;
                moves += 1;
            }
            seg[j] = v;
        }
        mem.write_u32_slice(l.elem(lo), &seg);
        ctx.compute(2 * len + moves);
        ctx.dma_write(l.elem(lo), len * 4);
    }
}

impl Worker for QuicksortWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        match task.ty {
            QS_SORT => {
                let (lo, hi) = (task.args[0], task.args[1]);
                if hi - lo <= SERIAL_CUTOFF {
                    self.base_sort(ctx, lo, hi);
                    ctx.send_arg(task.k, hi - lo);
                } else {
                    let p = self.partition(ctx, lo, hi);
                    // Guard against degenerate splits.
                    let p = p.clamp(lo + 1, hi - 1);
                    let kk = ctx.make_successor(QS_JOIN, task.k, 2);
                    ctx.spawn(Task::new(QS_SORT, kk.with_slot(1), &[p, hi]));
                    ctx.spawn(Task::new(QS_SORT, kk.with_slot(0), &[lo, p]));
                }
            }
            QS_JOIN => {
                ctx.compute(1);
                ctx.send_arg(task.k, task.args[0] + task.args[1]);
            }
            QS_LITE => {
                let (lo, hi) = (task.args[0], task.args[1]);
                if hi - lo <= SERIAL_CUTOFF {
                    self.base_sort(ctx, lo, hi);
                    ctx.send_arg(task.k, hi - lo);
                } else {
                    let p = self.partition(ctx, lo, hi).clamp(lo + 1, hi - 1);
                    // Append both children to the next-round list with an
                    // atomic bump of the count word.
                    let l = self.layout;
                    ctx.amo(l.next_list);
                    let mem = ctx.mem();
                    let mut count = mem.read_u64(l.next_list);
                    for &(a, b) in &[(lo, p), (p, hi)] {
                        mem.write_u64(l.next_list + 8 + 16 * count, a);
                        mem.write_u64(l.next_list + 16 + 16 * count, b);
                        count += 1;
                    }
                    mem.write_u64(l.next_list, count);
                    ctx.store(l.next_list + 8, 32);
                }
            }
            other => panic!("quicksort: unexpected task type {other}"),
        }
    }
}

/// LiteArch driver: one recursion level per round.
#[derive(Debug)]
struct QsLiteDriver {
    layout: Layout,
    current: Vec<(u64, u64)>,
}

impl pxl_arch::LiteDriver for QsLiteDriver {
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        if round > 0 {
            // Collect segments the previous round appended.
            let l = self.layout;
            let count = mem.read_u64(l.next_list);
            self.current = (0..count)
                .map(|i| {
                    (
                        mem.read_u64(l.next_list + 8 + 16 * i),
                        mem.read_u64(l.next_list + 16 + 16 * i),
                    )
                })
                .collect();
            mem.write_u64(l.next_list, 0);
        }
        if self.current.is_empty() {
            return None;
        }
        Some(
            self.current
                .iter()
                .map(|&(lo, hi)| Task::new(QS_LITE, Continuation::host(0), &[lo, hi]))
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
    fn serial_sorts() {
        let bench = Quicksort::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_sorts() {
        let bench = Quicksort::new(Scale::Tiny);
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
    fn lite_rounds_sort() {
        let bench = Quicksort::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let out = engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        assert!(
            out.metrics.get("lite.rounds") >= 2,
            "must need several rounds"
        );
    }

    #[test]
    fn partition_splits_strictly() {
        // The clamp guarantees both children are strictly smaller, so the
        // recursion terminates even on adversarial (constant) input.
        let mut bench = Quicksort::new(Scale::Tiny);
        bench.seed = 1;
        let mut exec = SerialExecutor::new();
        let l = bench.layout();
        exec.mem_mut()
            .write_u32_slice(l.data, &vec![7u32; bench.n as usize]);
        let mut worker = QuicksortWorker { layout: l };
        let result = exec
            .run(
                &mut worker,
                Task::new(QS_SORT, Continuation::host(0), &[0, bench.n]),
            )
            .unwrap();
        assert_eq!(result, bench.n);
    }
}
