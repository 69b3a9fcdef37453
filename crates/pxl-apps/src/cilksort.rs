//! `cilksort` — parallel merge sort with parallel merging (Cilk apps, FJ).
//!
//! Recursively sorts halves in parallel, then merges them *in parallel*:
//! the merge splits the larger sorted run at its midpoint, binary-searches
//! the split value in the other run, and forks the two sub-merges
//! (Akl & Santoro's algorithm, as in the Cilk-5 distribution). Below a
//! grain size it falls back to a serial quicksort for leaves and a serial
//! merge for small runs.
//!
//! This is the one benchmark the paper could **not** express on LiteArch:
//! "we were able to implement parallel-for versions of nw, quicksort,
//! queens and knapsack, but not cilksort, due to the complexity and
//! irregularity of its dynamic task graph" (Section V-A) — so
//! [`Benchmark::lite`] returns `None`.

use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::InputRng;

/// Sort `[lo,hi)` into buffer `dest`.
const CS_SORT: TaskTypeId = TaskTypeId(0);
/// Successor of two half-sorts: launch the parallel merge.
const CS_MERGE: TaskTypeId = TaskTypeId(1);
/// Merge two sorted runs into the destination buffer.
const CS_MRANGE: TaskTypeId = TaskTypeId(2);
/// Join of two sub-merges (sums merged-element counts).
const CS_MJOIN: TaskTypeId = TaskTypeId(3);

/// Leaf sorts below this size run serial quicksort.
const SORT_GRAIN: u64 = 512;
/// Merges below this total size run serially.
const MERGE_GRAIN: u64 = 1024;

#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Buffer 0: the data array.
    x: u64,
    /// Buffer 1: the temporary array.
    y: u64,
}

impl Layout {
    fn buf(&self, which: u64) -> u64 {
        if which == 0 {
            self.x
        } else {
            self.y
        }
    }
}

/// The cilksort benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Cilksort {
    n: u64,
    seed: u64,
}

impl Cilksort {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Tiny => 1 << 10,
            Scale::Small => 1 << 13,
            Scale::Paper => 1 << 17,
        };
        Cilksort { n, seed: 0xC11C }
    }

    fn layout(&self) -> Layout {
        let mut alloc = Allocator::new(0x10000);
        let x = alloc.alloc_array(self.n, 4);
        let y = alloc.alloc_array(self.n, 4);
        Layout { x, y }
    }

    fn gen_input(&self) -> Vec<u32> {
        let mut rng = InputRng::new(self.seed);
        (0..self.n).map(|_| rng.next_u64() as u32).collect()
    }

    fn setup_memory(&self, mem: &mut Memory) -> Layout {
        let l = self.layout();
        mem.write_u32_slice(l.x, &self.gen_input());
        l
    }
}

impl Benchmark for Cilksort {
    fn meta(&self) -> Meta {
        Meta {
            name: "cilksort",
            source: "Cilk apps",
            approach: "FJ",
            recursive_nested: true,
            data_dependent: true,
            mem_pattern: "Regular",
            mem_intensity: "Medium",
        }
    }

    fn profile(&self) -> ExecProfile {
        // Streaming merges pipeline at multiple elements per cycle out of
        // scratchpads in HLS; the CPU also does well with predictable
        // sequential accesses.
        ExecProfile::new(8.0, 2.5)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let layout = self.setup_memory(mem);
        Instance {
            worker: Box::new(CilksortWorker { layout }),
            // Sort the whole array into buffer 0 (in place).
            root: Task::new(CS_SORT, Continuation::host(0), &[0, self.n, 0]),
            footprint_bytes: 8 * self.n,
        }
    }

    fn lite(&self, _mem: &mut Memory) -> Option<LiteInstance> {
        None // Not expressible as homogeneous parallel-for rounds (Section V-A).
    }

    fn check(&self, mem: &Memory, result: u64) -> Result<(), String> {
        let l = self.layout();
        let got = mem.read_u32_slice(l.x, self.n as usize);
        let mut want = self.gen_input();
        want.sort_unstable();
        if got != want {
            let bad = got.iter().zip(&want).position(|(a, b)| a != b).unwrap();
            return Err(format!(
                "cilksort: element {bad} = {}, want {}",
                got[bad], want[bad]
            ));
        }
        if result != self.n {
            return Err(format!(
                "cilksort: merged {result} elements, want {}",
                self.n
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct CilksortWorker {
    layout: Layout,
}

impl CilksortWorker {
    /// Serial leaf sort of `X[lo,hi)` written into `dest`.
    fn leaf_sort(&self, ctx: &mut dyn TaskContext, lo: u64, hi: u64, dest: u64) {
        let l = self.layout;
        let len = hi - lo;
        ctx.dma_read(l.x + 4 * lo, len * 4);
        let mem = ctx.mem();
        let mut seg = mem.read_u32_slice(l.x + 4 * lo, len as usize);
        seg.sort_unstable();
        mem.write_u32_slice(l.buf(dest) + 4 * lo, &seg);
        // ~2 ops per comparison, n log n comparisons.
        let logn = 64 - len.leading_zeros() as u64;
        ctx.compute(2 * len * logn.max(1));
        ctx.dma_write(l.buf(dest) + 4 * lo, len * 4);
    }

    /// Serial merge of src[a_lo,a_hi) and src[b_lo,b_hi) into dst at d_lo.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware task message fields
    fn serial_merge(
        &self,
        ctx: &mut dyn TaskContext,
        src: u64,
        a_lo: u64,
        a_hi: u64,
        b_lo: u64,
        b_hi: u64,
        d_lo: u64,
    ) -> u64 {
        let l = self.layout;
        let total = (a_hi - a_lo) + (b_hi - b_lo);
        ctx.dma_read(l.buf(src) + 4 * a_lo, (a_hi - a_lo) * 4);
        ctx.dma_read(l.buf(src) + 4 * b_lo, (b_hi - b_lo) * 4);
        let dst = 1 - src;
        let mem = ctx.mem();
        let a = mem.read_u32_slice(l.buf(src) + 4 * a_lo, (a_hi - a_lo) as usize);
        let b = mem.read_u32_slice(l.buf(src) + 4 * b_lo, (b_hi - b_lo) as usize);
        let mut out = Vec::with_capacity(total as usize);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        mem.write_u32_slice(l.buf(dst) + 4 * d_lo, &out);
        ctx.compute(2 * total);
        ctx.dma_write(l.buf(dst) + 4 * d_lo, total * 4);
        total
    }
}

impl Worker for CilksortWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let l = self.layout;
        match task.ty {
            CS_SORT => {
                let (lo, hi, dest) = (task.args[0], task.args[1], task.args[2]);
                if hi - lo <= SORT_GRAIN {
                    self.leaf_sort(ctx, lo, hi, dest);
                    ctx.send_arg(task.k, hi - lo);
                } else {
                    let mid = lo + (hi - lo) / 2;
                    // Children sort into the opposite buffer; the successor
                    // merges them back into `dest`.
                    let kk = ctx.make_successor_with(
                        CS_MERGE,
                        task.k,
                        2,
                        &[(2, lo), (3, mid), (4, hi), (5, dest)],
                    );
                    ctx.spawn(Task::new(CS_SORT, kk.with_slot(1), &[mid, hi, 1 - dest]));
                    ctx.spawn(Task::new(CS_SORT, kk.with_slot(0), &[lo, mid, 1 - dest]));
                }
            }
            CS_MERGE => {
                let (lo, mid, hi, dest) = (task.args[2], task.args[3], task.args[4], task.args[5]);
                let src = 1 - dest;
                ctx.compute(2);
                ctx.spawn(Task::new(CS_MRANGE, task.k, &[lo, mid, mid, hi, lo, src]));
            }
            CS_MRANGE => {
                let (a_lo, a_hi, b_lo, b_hi, d_lo, src) = (
                    task.args[0],
                    task.args[1],
                    task.args[2],
                    task.args[3],
                    task.args[4],
                    task.args[5],
                );
                let total = (a_hi - a_lo) + (b_hi - b_lo);
                if total <= MERGE_GRAIN {
                    let merged = self.serial_merge(ctx, src, a_lo, a_hi, b_lo, b_hi, d_lo);
                    ctx.send_arg(task.k, merged);
                } else {
                    // Split the larger run at its midpoint, binary-search
                    // the other run.
                    let (a_len, b_len) = (a_hi - a_lo, b_hi - b_lo);
                    let (ma, mb);
                    if a_len >= b_len {
                        ma = a_lo + a_len / 2;
                        let v = ctx.read_u32(l.buf(src) + 4 * ma);
                        mb = lower_bound(ctx, l.buf(src), b_lo, b_hi, v);
                    } else {
                        mb = b_lo + b_len / 2;
                        let v = ctx.read_u32(l.buf(src) + 4 * mb);
                        ma = lower_bound(ctx, l.buf(src), a_lo, a_hi, v);
                    }
                    let kk = ctx.make_successor(CS_MJOIN, task.k, 2);
                    let left = (ma - a_lo) + (mb - b_lo);
                    ctx.spawn(Task::new(
                        CS_MRANGE,
                        kk.with_slot(1),
                        &[ma, a_hi, mb, b_hi, d_lo + left, src],
                    ));
                    ctx.spawn(Task::new(
                        CS_MRANGE,
                        kk.with_slot(0),
                        &[a_lo, ma, b_lo, mb, d_lo, src],
                    ));
                }
            }
            CS_MJOIN => {
                ctx.compute(1);
                ctx.send_arg(task.k, task.args[0] + task.args[1]);
            }
            other => panic!("cilksort: unexpected task type {other}"),
        }
    }
}

/// Binary search: first index in `[lo, hi)` whose value is `>= v`.
fn lower_bound(ctx: &mut dyn TaskContext, base: u64, mut lo: u64, mut hi: u64, v: u32) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let x = ctx.read_u32(base + 4 * mid);
        ctx.compute(2);
        if x < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_arch::{Engine, Workload};
    use pxl_model::SerialExecutor;

    #[test]
    fn serial_sorts() {
        let bench = Cilksort::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_sorts() {
        let bench = Cilksort::new(Scale::Tiny);
        let mut engine =
            pxl_arch::FlexEngine::new(pxl_arch::AccelConfig::flex(2, 2), bench.profile());
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        // Parallel merging generates plenty of tasks.
        assert!(out.metrics.get("accel.tasks") > 4);
    }

    #[test]
    fn already_sorted_input_still_works() {
        let bench = Cilksort::new(Scale::Tiny);
        let l = bench.layout();
        let mut exec = SerialExecutor::new();
        let sorted: Vec<u32> = (0..bench.n as u32).collect();
        exec.mem_mut().write_u32_slice(l.x, &sorted);
        let mut worker = CilksortWorker { layout: l };
        let result = exec
            .run(
                &mut worker,
                Task::new(CS_SORT, Continuation::host(0), &[0, bench.n, 0]),
            )
            .unwrap();
        assert_eq!(result, bench.n);
        assert_eq!(exec.memory().read_u32_slice(l.x, bench.n as usize), sorted);
    }

    #[test]
    fn lower_bound_agrees_with_std() {
        let mut exec = SerialExecutor::new();
        let data: Vec<u32> = vec![1, 3, 3, 5, 9, 9, 9, 12];
        exec.mem_mut().write_u32_slice(0x100, &data);
        for v in [0u32, 1, 2, 3, 4, 9, 12, 13] {
            let got = lower_bound(&mut exec, 0x100, 0, data.len() as u64, v);
            let want = data.partition_point(|&x| x < v) as u64;
            assert_eq!(got, want, "lower_bound({v})");
        }
    }
}
