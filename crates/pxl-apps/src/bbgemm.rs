//! `bbgemm` — blocked matrix multiplication (MachSuite, PF).
//!
//! Dense `n x n` integer GEMM with 32x32 blocking for locality
//! (Lam/Rothberg/Wolf), parallelized with **two nested parallel-for loops**
//! over the block-row and block-column indices, exactly as in the paper
//! (Section V-A). Each leaf task runs the full k-loop for one output block:
//! it DMAs the A and B blocks into scratchpads and performs the
//! multiply-accumulate with a deeply unrolled HLS datapath.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::{pack2, unpack2, InputRng};

/// Outer parallel-for over block rows.
const GM_I: TaskTypeId = TaskTypeId(0);
/// Inner parallel-for over block columns of one block row.
const GM_J: TaskTypeId = TaskTypeId(1);
/// Join (sums completed-block counts).
const GM_SUM: TaskTypeId = TaskTypeId(2);
/// LiteArch / leaf: compute one output block.
const GM_BLOCK: TaskTypeId = TaskTypeId(3);

/// Block edge (the paper uses 32).
const BLOCK: u64 = 32;

#[derive(Debug, Clone, Copy)]
struct Layout {
    a: u64,
    b: u64,
    c: u64,
    n: u64,
}

impl Layout {
    fn grid(&self) -> u64 {
        self.n / BLOCK
    }
    fn a_at(&self, i: u64, j: u64) -> u64 {
        self.a + 4 * (i * self.n + j)
    }
    fn b_at(&self, i: u64, j: u64) -> u64 {
        self.b + 4 * (i * self.n + j)
    }
    fn c_at(&self, i: u64, j: u64) -> u64 {
        self.c + 4 * (i * self.n + j)
    }
}

/// The blocked GEMM benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Bbgemm {
    n: u64,
    seed: u64,
}

impl Bbgemm {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Tiny => 64,
            Scale::Small => 128,
            Scale::Paper => 256,
        };
        Bbgemm { n, seed: 0x6E66 }
    }

    fn layout(&self) -> Layout {
        let mut alloc = Allocator::new(0x10000);
        let a = alloc.alloc_array(self.n * self.n, 4);
        let b = alloc.alloc_array(self.n * self.n, 4);
        let c = alloc.alloc_array(self.n * self.n, 4);
        Layout { a, b, c, n: self.n }
    }

    fn gen_inputs(&self) -> (Vec<u32>, Vec<u32>) {
        let mut rng = InputRng::new(self.seed);
        let n2 = (self.n * self.n) as usize;
        let a: Vec<u32> = (0..n2).map(|_| rng.next_in(100) as u32).collect();
        let b: Vec<u32> = (0..n2).map(|_| rng.next_in(100) as u32).collect();
        (a, b)
    }

    fn setup_memory(&self, mem: &mut Memory) -> Layout {
        let l = self.layout();
        let (a, b) = self.gen_inputs();
        mem.write_u32_slice(l.a, &a);
        mem.write_u32_slice(l.b, &b);
        l
    }

    fn footprint(&self) -> u64 {
        3 * 4 * self.n * self.n
    }

    fn golden(&self) -> Vec<u32> {
        let (a, b) = self.gen_inputs();
        let n = self.n as usize;
        let mut c = vec![0u32; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
                }
            }
        }
        c
    }
}

impl Benchmark for Bbgemm {
    fn meta(&self) -> Meta {
        Meta {
            name: "bbgemm",
            source: "MachSuite",
            approach: "PF",
            recursive_nested: true,
            data_dependent: false,
            mem_pattern: "Regular",
            mem_intensity: "Medium",
        }
    }

    fn profile(&self) -> ExecProfile {
        // A fully unrolled MAC array sustains many multiply-accumulates per
        // cycle out of block scratchpads; NEON gives the CPU 4-wide MACs.
        ExecProfile::new(16.0, 4.0)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let layout = self.setup_memory(mem);
        let g = layout.grid();
        Instance {
            worker: Box::new(BbgemmWorker { layout }),
            root: Task::new(GM_I, Continuation::host(0), &[0, g]),
            footprint_bytes: self.footprint(),
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let layout = self.setup_memory(mem);
        let g = layout.grid();
        Some(LiteInstance {
            worker: Box::new(BbgemmWorker { layout }),
            driver: Box::new(
                move |_mem: &mut Memory, round: usize| -> Option<RoundTasks> {
                    (round == 0).then(|| {
                        (0..g * g)
                            .map(|bij| {
                                Task::new(
                                    GM_BLOCK,
                                    Continuation::host(0),
                                    &[pack2((bij / g) as u32, (bij % g) as u32)],
                                )
                            })
                            .collect()
                    })
                },
            ),
            footprint_bytes: self.footprint(),
        })
    }

    fn check(&self, mem: &Memory, result: u64) -> Result<(), String> {
        let l = self.layout();
        let golden = self.golden();
        let got = mem.read_u32_slice(l.c, golden.len());
        if got != golden {
            let bad = got.iter().zip(&golden).position(|(a, b)| a != b).unwrap();
            return Err(format!(
                "bbgemm: C[{bad}] = {}, want {}",
                got[bad], golden[bad]
            ));
        }
        let blocks = l.grid() * l.grid();
        if result != blocks {
            return Err(format!("bbgemm: {result} blocks completed, want {blocks}"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct BbgemmWorker {
    layout: Layout,
}

impl BbgemmWorker {
    /// Computes output block (bi, bj): full k-loop with scratchpad DMA.
    fn do_block(&self, ctx: &mut dyn TaskContext, bi: u64, bj: u64) {
        let l = self.layout;
        let g = l.grid();
        let n = l.n;
        // Accumulator scratchpad, computed functionally then written once.
        let mut acc = vec![0u32; (BLOCK * BLOCK) as usize];
        for bk in 0..g {
            // DMA A(bi,bk) and B(bk,bj) blocks into scratchpads, row by row
            // (each block row is contiguous in the source matrix).
            for r in 0..BLOCK {
                ctx.dma_read(l.a_at(bi * BLOCK + r, bk * BLOCK), BLOCK * 4);
                ctx.dma_read(l.b_at(bk * BLOCK + r, bj * BLOCK), BLOCK * 4);
            }
            ctx.compute(BLOCK * BLOCK * BLOCK);
            let mem = ctx.mem();
            for i in 0..BLOCK {
                for k in 0..BLOCK {
                    let aik = mem.read_u32(l.a_at(bi * BLOCK + i, bk * BLOCK + k));
                    for j in 0..BLOCK {
                        let bkj = mem.read_u32(l.b_at(bk * BLOCK + k, bj * BLOCK + j));
                        let idx = (i * BLOCK + j) as usize;
                        acc[idx] = acc[idx].wrapping_add(aik.wrapping_mul(bkj));
                    }
                }
            }
        }
        let mem = ctx.mem();
        for i in 0..BLOCK {
            mem.write_u32_slice(
                l.c_at(bi * BLOCK + i, bj * BLOCK),
                &acc[(i * BLOCK) as usize..((i + 1) * BLOCK) as usize],
            );
        }
        for r in 0..BLOCK {
            ctx.dma_write(l.c_at(bi * BLOCK + r, bj * BLOCK), BLOCK * 4);
        }
        let _ = n;
    }
}

impl Worker for BbgemmWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let g = self.layout.grid();
        match task.ty {
            // Outer parallel-for over block rows.
            GM_I => {
                let (lo, hi) = (task.args[0], task.args[1]);
                if hi - lo > 1 {
                    ctx.compute(2);
                    let mid = lo + (hi - lo) / 2;
                    let kk = ctx.make_successor(GM_SUM, task.k, 2);
                    ctx.spawn(Task::new(GM_I, kk.with_slot(1), &[mid, hi]));
                    ctx.spawn(Task::new(GM_I, kk.with_slot(0), &[lo, mid]));
                } else {
                    // One block row: sequential composition into the nested
                    // inner parallel-for.
                    ctx.compute(1);
                    ctx.spawn(Task::new(GM_J, task.k, &[lo, 0, g]));
                }
            }
            // Inner parallel-for over block columns.
            GM_J => {
                let (bi, lo, hi) = (task.args[0], task.args[1], task.args[2]);
                if hi - lo > 1 {
                    ctx.compute(2);
                    let mid = lo + (hi - lo) / 2;
                    let kk = ctx.make_successor(GM_SUM, task.k, 2);
                    ctx.spawn(Task::new(GM_J, kk.with_slot(1), &[bi, mid, hi]));
                    ctx.spawn(Task::new(GM_J, kk.with_slot(0), &[bi, lo, mid]));
                } else {
                    self.do_block(ctx, bi, lo);
                    ctx.send_arg(task.k, 1);
                }
            }
            GM_SUM => {
                ctx.compute(1);
                ctx.send_arg(task.k, task.args[0] + task.args[1]);
            }
            GM_BLOCK => {
                let (bi, bj) = unpack2(task.args[0]);
                self.do_block(ctx, bi as u64, bj as u64);
                ctx.send_arg(task.k, 1);
            }
            other => panic!("bbgemm: unexpected task type {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_arch::{Engine, Workload};
    use pxl_model::SerialExecutor;

    #[test]
    fn serial_multiplies() {
        let bench = Bbgemm::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_multiplies() {
        let bench = Bbgemm::new(Scale::Tiny);
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
    fn lite_multiplies() {
        let bench = Bbgemm::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let out = engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        assert_eq!(
            out.metrics.get("lite.rounds"),
            1,
            "single data-parallel round"
        );
    }
}
