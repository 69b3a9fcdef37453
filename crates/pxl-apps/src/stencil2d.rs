//! `stencil2d` — 2D 3x3 stencil over an image (MachSuite, PF).
//!
//! Applies a 3x3 convolution kernel to every interior pixel. The image is
//! broken into blocks and parallelized "across the blocks" with a
//! parallel-for (Section V-A). Each leaf DMAs its block plus halo rows into
//! a scratchpad, convolves with a fully unrolled multiply-add array, and
//! streams the output block back — regular access, high memory intensity
//! (Table II).

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, ParallelFor, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::InputRng;

/// Parallel-for split over block indices.
const ST_SPLIT: TaskTypeId = TaskTypeId(0);
/// Parallel-for join.
const ST_JOIN: TaskTypeId = TaskTypeId(1);

/// Block edge in pixels.
const BLOCK: u64 = 32;
/// Convolution kernel (3x3).
const KERNEL: [[i32; 3]; 3] = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];

#[derive(Debug, Clone, Copy)]
struct Layout {
    src: u64,
    dst: u64,
    n: u64,
}

impl Layout {
    fn grid(&self) -> u64 {
        self.n / BLOCK
    }
    fn src_at(&self, r: u64, c: u64) -> u64 {
        self.src + 4 * (r * self.n + c)
    }
    fn dst_at(&self, r: u64, c: u64) -> u64 {
        self.dst + 4 * (r * self.n + c)
    }
}

/// The stencil benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Stencil2d {
    n: u64,
    seed: u64,
}

impl Stencil2d {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Tiny => 128,
            Scale::Small => 256,
            Scale::Paper => 512,
        };
        Stencil2d { n, seed: 0x57E6 }
    }

    fn layout(&self) -> Layout {
        let mut alloc = Allocator::new(0x10000);
        let src = alloc.alloc_array(self.n * self.n, 4);
        let dst = alloc.alloc_array(self.n * self.n, 4);
        Layout {
            src,
            dst,
            n: self.n,
        }
    }

    fn gen_image(&self) -> Vec<i32> {
        let mut rng = InputRng::new(self.seed);
        (0..self.n * self.n)
            .map(|_| rng.next_in(256) as i32)
            .collect()
    }

    fn setup_memory(&self, mem: &mut Memory) -> Layout {
        let l = self.layout();
        mem.write_i32_slice(l.src, &self.gen_image());
        l
    }

    fn footprint(&self) -> u64 {
        8 * self.n * self.n
    }

    fn golden(&self) -> Vec<i32> {
        let img = self.gen_image();
        let n = self.n as usize;
        let mut out = vec![0i32; n * n];
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                let mut acc = 0i32;
                for (kr, row) in KERNEL.iter().enumerate() {
                    for (kc, &w) in row.iter().enumerate() {
                        acc += w * img[(r + kr - 1) * n + (c + kc - 1)];
                    }
                }
                out[r * n + c] = acc;
            }
        }
        out
    }

    fn pf(&self) -> ParallelFor {
        ParallelFor::new(ST_SPLIT, ST_JOIN, 1)
    }
}

impl Benchmark for Stencil2d {
    fn meta(&self) -> Meta {
        Meta {
            name: "stencil2d",
            source: "MachSuite",
            approach: "PF",
            recursive_nested: false,
            data_dependent: false,
            mem_pattern: "Regular",
            mem_intensity: "High",
        }
    }

    fn profile(&self) -> ExecProfile {
        // The 3x3 MAC array unrolls completely in HLS.
        ExecProfile::new(16.0, 4.0)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let layout = self.setup_memory(mem);
        let pf = self.pf();
        let blocks = layout.grid() * layout.grid();
        Instance {
            worker: Box::new(StencilWorker { layout, pf }),
            root: pf.root_task(0, blocks, Continuation::host(0)),
            footprint_bytes: self.footprint(),
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let layout = self.setup_memory(mem);
        let pf = self.pf();
        let blocks = layout.grid() * layout.grid();
        Some(LiteInstance {
            worker: Box::new(StencilWorker { layout, pf }),
            driver: Box::new(
                move |_mem: &mut Memory, round: usize| -> Option<RoundTasks> {
                    (round == 0).then(|| {
                        (0..blocks)
                            .map(|b| Task::new(ST_SPLIT, Continuation::host(0), &[b, b + 1]))
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
        let got = mem.read_i32_slice(l.dst, golden.len());
        if got != golden {
            let bad = got.iter().zip(&golden).position(|(a, b)| a != b).unwrap();
            return Err(format!(
                "stencil2d: pixel {bad} = {}, want {}",
                got[bad], golden[bad]
            ));
        }
        let blocks = l.grid() * l.grid();
        if result != blocks {
            return Err(format!("stencil2d: {result} blocks done, want {blocks}"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct StencilWorker {
    layout: Layout,
    pf: ParallelFor,
}

impl StencilWorker {
    fn do_block(&self, ctx: &mut dyn TaskContext, b: u64) {
        let l = self.layout;
        let g = l.grid();
        let n = l.n;
        let (br, bc) = (b / g, b % g);
        let (r0, c0) = (br * BLOCK, bc * BLOCK);
        // DMA the block plus one halo row above and below (halo columns ride
        // along in the same cache lines).
        let halo_lo = r0.saturating_sub(1);
        let halo_hi = (r0 + BLOCK + 1).min(n);
        let col_lo = c0.saturating_sub(1);
        for r in halo_lo..halo_hi {
            ctx.dma_read(l.src_at(r, col_lo), (BLOCK + 2).min(n) * 4);
        }
        ctx.compute(BLOCK * BLOCK * 18); // 9 multiplies + 9 adds per pixel

        // The scratchpad: the block plus its halo, one slice read per row.
        // Its first column is `col_lo` and its first row `halo_lo`.
        let width = ((c0 + BLOCK + 1).min(n) - col_lo) as usize;
        let mem = ctx.mem();
        let pad: Vec<Vec<i32>> = (halo_lo..halo_hi)
            .map(|r| mem.read_i32_slice(l.src_at(r, col_lo), width))
            .collect();
        // Border pixels are never written: only each interior row's interior
        // span, with one slice write.
        let (c_lo, c_hi) = (c0.max(1), (c0 + BLOCK).min(n - 1));
        for r in r0.max(1)..(r0 + BLOCK).min(n - 1) {
            let out: Vec<i32> = (c_lo..c_hi)
                .map(|c| {
                    let mut acc = 0i32;
                    for (kr, row) in KERNEL.iter().enumerate() {
                        let src = &pad[(r + kr as u64 - 1 - halo_lo) as usize];
                        for (kc, &w) in row.iter().enumerate() {
                            acc += w * src[(c + kc as u64 - 1 - col_lo) as usize];
                        }
                    }
                    acc
                })
                .collect();
            mem.write_i32_slice(l.dst_at(r, c_lo), &out);
        }
        for r in r0..(r0 + BLOCK).min(n) {
            ctx.dma_write(l.dst_at(r, c0), BLOCK * 4);
        }
    }
}

impl Worker for StencilWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let handled = self.pf.step(task, ctx, |ctx, lo, hi| {
            for b in lo..hi {
                self.do_block(ctx, b);
            }
            hi - lo
        });
        assert!(handled, "stencil2d: unexpected task type {}", task.ty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_arch::{Engine, Workload};
    use pxl_model::SerialExecutor;

    #[test]
    fn serial_convolves() {
        let bench = Stencil2d::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_convolves() {
        let bench = Stencil2d::new(Scale::Tiny);
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
    fn lite_convolves() {
        let bench = Stencil2d::new(Scale::Tiny);
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
    fn borders_stay_zero() {
        let bench = Stencil2d::new(Scale::Tiny);
        let golden = bench.golden();
        let n = bench.n as usize;
        assert!(golden[..n].iter().all(|&v| v == 0), "top row untouched");
        assert!(
            golden[(n - 1) * n..].iter().all(|&v| v == 0),
            "bottom row untouched"
        );
    }
}
