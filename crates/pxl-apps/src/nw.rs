//! `nw` — Needleman-Wunsch sequence alignment (in-house, CP pattern).
//!
//! A dynamic-programming algorithm where each matrix element depends on its
//! north, west and northwest neighbors. Parallelized exactly as the paper
//! describes: "by blocking the matrix, and using continuation passing to
//! construct the task graph, similar to Figure 2(c)" — each block is a
//! pending task whose join counter counts its north/west block
//! dependencies, and a completed block explicitly sends tokens to the
//! continuations of its east and south dependents.
//!
//! The worker follows the HLS scratchpad style of Section V-A: each block
//! task DMAs its **boundary vectors** (the south edge of the block above,
//! the east edge of the block to the left), computes the whole block inside
//! a local scratchpad, and writes back only its own south/east boundary —
//! the score matrix itself never touches global memory, keeping the
//! benchmark at the "Medium" memory intensity of Table II.
//!
//! The LiteArch variant processes the blocked matrix one anti-diagonal per
//! round; the host barrier between rounds enforces the dependencies instead
//! of the P-Store.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::{pack2, unpack2, InputRng};

/// Root task: builds the block task graph.
const NW_ROOT: TaskTypeId = TaskTypeId(0);
/// One matrix block.
const NW_BLOCK: TaskTypeId = TaskTypeId(1);

/// Sentinel for "no dependent in this direction" in preset continuation
/// words (a real encoded continuation never has all bits set).
const NO_CONT: u64 = u64::MAX;

/// Alignment scoring: +1 match, -1 mismatch, -1 gap.
const MATCH: i32 = 1;
const MISMATCH: i32 = -1;
const GAP: i32 = -1;

#[derive(Debug, Clone, Copy)]
struct Layout {
    seq_a: u64,
    seq_b: u64,
    /// South-edge rows: `g*g` vectors of `block` i32 cells.
    h_bound: u64,
    /// East-edge columns: `g*g` vectors of `block` i32 cells.
    v_bound: u64,
    n: u32,
    block: u32,
}

impl Layout {
    fn grid(&self) -> u32 {
        self.n / self.block
    }

    /// Address of the south-edge vector of block (bi, bj).
    fn h_at(&self, bi: u32, bj: u32) -> u64 {
        self.h_bound + 4 * ((bi * self.grid() + bj) as u64 * self.block as u64)
    }

    /// Address of the east-edge vector of block (bi, bj).
    fn v_at(&self, bi: u32, bj: u32) -> u64 {
        self.v_bound + 4 * ((bi * self.grid() + bj) as u64 * self.block as u64)
    }
}

/// The Needleman-Wunsch benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Nw {
    n: u32,
    block: u32,
    seed: u64,
}

impl Nw {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let (n, block) = match scale {
            Scale::Tiny => (64, 16),
            Scale::Small => (256, 16),
            Scale::Paper => (1024, 32),
        };
        Nw {
            n,
            block,
            seed: 0x9A17,
        }
    }

    fn layout(&self) -> Layout {
        let g = (self.n / self.block) as u64;
        let mut alloc = Allocator::new(0x10000);
        let seq_a = alloc.alloc_array(self.n as u64, 1);
        let seq_b = alloc.alloc_array(self.n as u64, 1);
        let h_bound = alloc.alloc_array(g * g * self.block as u64, 4);
        let v_bound = alloc.alloc_array(g * g * self.block as u64, 4);
        Layout {
            seq_a,
            seq_b,
            h_bound,
            v_bound,
            n: self.n,
            block: self.block,
        }
    }

    fn gen_seqs(&self) -> (Vec<u8>, Vec<u8>) {
        let mut rng = InputRng::new(self.seed);
        let a: Vec<u8> = (0..self.n).map(|_| rng.next_in(4) as u8).collect();
        let b: Vec<u8> = (0..self.n).map(|_| rng.next_in(4) as u8).collect();
        (a, b)
    }

    fn setup_memory(&self, mem: &mut Memory) -> Layout {
        let l = self.layout();
        let (a, b) = self.gen_seqs();
        mem.write_bytes(l.seq_a, &a);
        mem.write_bytes(l.seq_b, &b);
        l
    }

    fn footprint(&self) -> u64 {
        let g = (self.n / self.block) as u64;
        2 * self.n as u64 + 2 * 4 * g * g * self.block as u64
    }

    /// Host-side golden DP (full matrix).
    fn golden(&self) -> Vec<i32> {
        let (a, b) = self.gen_seqs();
        let n = self.n as usize;
        let w = n + 1;
        let mut m = vec![0i32; w * w];
        for i in 0..=n {
            m[i * w] = GAP * i as i32;
            m[i] = GAP * i as i32;
        }
        for i in 1..=n {
            for j in 1..=n {
                let s = if b[i - 1] == a[j - 1] {
                    MATCH
                } else {
                    MISMATCH
                };
                m[i * w + j] = (m[(i - 1) * w + j - 1] + s)
                    .max(m[(i - 1) * w + j] + GAP)
                    .max(m[i * w + j - 1] + GAP);
            }
        }
        m
    }
}

impl Benchmark for Nw {
    fn meta(&self) -> Meta {
        Meta {
            name: "nw",
            source: "In-house",
            approach: "CP",
            recursive_nested: true,
            data_dependent: true,
            mem_pattern: "Regular",
            mem_intensity: "Medium",
        }
    }

    fn profile(&self) -> ExecProfile {
        // HLS pipelines the cell-update loop with anti-diagonal unrolling
        // inside the block scratchpad; the CPU gets modest vectorization of
        // the max-reductions.
        ExecProfile::new(12.0, 3.0)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let layout = self.setup_memory(mem);
        Instance {
            worker: Box::new(NwWorker { layout }),
            root: Task::new(NW_ROOT, Continuation::host(0), &[]),
            footprint_bytes: self.footprint(),
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let layout = self.setup_memory(mem);
        Some(LiteInstance {
            worker: Box::new(NwWorker { layout }),
            driver: Box::new(NwLiteDriver { layout }),
            footprint_bytes: self.footprint(),
        })
    }

    fn check(&self, mem: &Memory, result: u64) -> Result<(), String> {
        let l = self.layout();
        let golden = self.golden();
        let n = self.n as usize;
        let w = n + 1;
        let want = golden[n * w + n];
        if result as i64 as i32 != want {
            return Err(format!("nw: result {result} != golden score {want}"));
        }
        // Check every block's stored boundaries against the golden matrix.
        let (g, b) = (l.grid(), l.block as usize);
        for bi in 0..g {
            for bj in 0..g {
                let south_row = (bi as usize + 1) * b;
                for x in 0..b {
                    let got = mem.read_i32(l.h_at(bi, bj) + 4 * x as u64);
                    let want = golden[south_row * w + bj as usize * b + 1 + x];
                    if got != want {
                        return Err(format!(
                            "nw: south edge of block ({bi},{bj})[{x}] = {got}, want {want}"
                        ));
                    }
                }
                let east_col = (bj as usize + 1) * b;
                for y in 0..b {
                    let got = mem.read_i32(l.v_at(bi, bj) + 4 * y as u64);
                    let want = golden[(bi as usize * b + 1 + y) * w + east_col];
                    if got != want {
                        return Err(format!(
                            "nw: east edge of block ({bi},{bj})[{y}] = {got}, want {want}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Worker for both FlexArch and LiteArch (the block kernel is identical;
/// only the dependence plumbing differs).
#[derive(Debug, Clone)]
struct NwWorker {
    layout: Layout,
}

impl NwWorker {
    /// Computes one block in a scratchpad and sends completion tokens.
    fn do_block(&self, task: &Task, ctx: &mut dyn TaskContext) {
        let l = self.layout;
        let (bi, bj) = unpack2(task.args[2]);
        let b = l.block as usize;
        let g = l.grid();

        // Gather boundary inputs: north row (south edge of the block above),
        // west column (east edge of the block to the left), and the
        // northwest corner cell.
        let north: Vec<i32> = if bi == 0 {
            (0..b)
                .map(|x| GAP * (bj as i32 * b as i32 + 1 + x as i32))
                .collect()
        } else {
            ctx.dma_read(l.h_at(bi - 1, bj), (b * 4) as u64);
            let m = ctx.mem();
            (0..b)
                .map(|x| m.read_i32(l.h_at(bi - 1, bj) + 4 * x as u64))
                .collect()
        };
        let west: Vec<i32> = if bj == 0 {
            (0..b)
                .map(|y| GAP * (bi as i32 * b as i32 + 1 + y as i32))
                .collect()
        } else {
            ctx.dma_read(l.v_at(bi, bj - 1), (b * 4) as u64);
            let m = ctx.mem();
            (0..b)
                .map(|y| m.read_i32(l.v_at(bi, bj - 1) + 4 * y as u64))
                .collect()
        };
        let corner: i32 = if bi == 0 {
            GAP * (bj as i32 * b as i32)
        } else if bj == 0 {
            GAP * (bi as i32 * b as i32)
        } else {
            ctx.load(l.h_at(bi - 1, bj - 1) + 4 * (b as u64 - 1), 4);
            ctx.mem()
                .read_i32(l.h_at(bi - 1, bj - 1) + 4 * (b as u64 - 1))
        };
        ctx.dma_read(l.seq_a + (bj as u64 * b as u64), b as u64);
        ctx.dma_read(l.seq_b + (bi as u64 * b as u64), b as u64);

        // Cell updates inside the scratchpad: 3 ops per cell.
        ctx.compute(3 * (b * b) as u64);
        let mem = ctx.mem();
        let seq_a: Vec<u8> = (0..b)
            .map(|x| mem.read_u8(l.seq_a + (bj as usize * b + x) as u64))
            .collect();
        let seq_b: Vec<u8> = (0..b)
            .map(|y| mem.read_u8(l.seq_b + (bi as usize * b + y) as u64))
            .collect();
        // prev[0] is the corner; prev[1..] the north row. cur[0] from west.
        let mut prev: Vec<i32> = std::iter::once(corner)
            .chain(north.iter().copied())
            .collect();
        let mut east = vec![0i32; b];
        let mut south = vec![0i32; b];
        for (y, &bc) in seq_b.iter().enumerate() {
            let mut cur = vec![0i32; b + 1];
            cur[0] = west[y];
            for (x, &ac) in seq_a.iter().enumerate() {
                let s = if bc == ac { MATCH } else { MISMATCH };
                cur[x + 1] = (prev[x] + s).max(prev[x + 1] + GAP).max(cur[x] + GAP);
            }
            east[y] = cur[b];
            if y == b - 1 {
                south.copy_from_slice(&cur[1..]);
            }
            prev = cur;
        }
        for (x, &v) in south.iter().enumerate() {
            mem.write_i32(l.h_at(bi, bj) + 4 * x as u64, v);
        }
        for (y, &v) in east.iter().enumerate() {
            mem.write_i32(l.v_at(bi, bj) + 4 * y as u64, v);
        }
        ctx.dma_write(l.h_at(bi, bj), (b * 4) as u64);
        ctx.dma_write(l.v_at(bi, bj), (b * 4) as u64);

        // Notify dependents (explicit continuation passing, Fig. 2(c)).
        if task.args[3] != NO_CONT {
            ctx.send_arg(Continuation::decode(task.args[3]), 0);
        }
        if task.args[4] != NO_CONT {
            ctx.send_arg(Continuation::decode(task.args[4]), 0);
        }
        if (bi, bj) == (g - 1, g - 1) {
            let score = east[b - 1];
            ctx.send_arg(task.k, score as i64 as u64);
        }
    }
}

impl Worker for NwWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        if task.ty == NW_ROOT {
            // Build the grid of pending block tasks in reverse raster order
            // so each block's east/south continuations already exist.
            let l = self.layout;
            let g = l.grid();
            let mut conts = vec![NO_CONT; (g * g) as usize];
            let idx = |bi: u32, bj: u32| (bi * g + bj) as usize;
            for bi in (0..g).rev() {
                for bj in (0..g).rev() {
                    let join = (bi > 0) as u8 + (bj > 0) as u8;
                    let right = if bj + 1 < g {
                        conts[idx(bi, bj + 1)]
                    } else {
                        NO_CONT
                    };
                    // East neighbor's west-token is slot 1; south's north-token slot 0.
                    let right = if right == NO_CONT {
                        NO_CONT
                    } else {
                        Continuation::decode(right).with_slot(1).encode()
                    };
                    let down = if bi + 1 < g {
                        conts[idx(bi + 1, bj)]
                    } else {
                        NO_CONT
                    };
                    let k = if (bi, bj) == (g - 1, g - 1) {
                        task.k
                    } else {
                        // Non-final blocks produce no root-visible value.
                        Continuation::host(6)
                    };
                    if join == 0 {
                        // Block (0,0) is immediately ready.
                        ctx.spawn(Task::new(
                            NW_BLOCK,
                            k,
                            &[0, 0, pack2(bi, bj), right, down, 0],
                        ));
                    } else {
                        let kk = ctx.make_successor_with(
                            NW_BLOCK,
                            k,
                            join,
                            &[(2, pack2(bi, bj)), (3, right), (4, down)],
                        );
                        conts[idx(bi, bj)] = kk.encode();
                    }
                }
            }
        } else {
            self.do_block(task, ctx);
        }
    }
}

/// Host driver for the LiteArch variant: one anti-diagonal of blocks per
/// round. A pure function of `(mem, round)` — no internal state — so a
/// checkpointed run resumes mid-sequence with a freshly built driver (the
/// contract `docs/checkpoint.md` requires of LiteArch drivers).
#[derive(Debug)]
struct NwLiteDriver {
    layout: Layout,
}

impl pxl_arch::LiteDriver for NwLiteDriver {
    fn next_round(&mut self, _mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        let g = self.layout.grid();
        let d = round as u32;
        if d >= 2 * g - 1 {
            return None;
        }
        let mut tasks = Vec::new();
        for bi in 0..g {
            if d < bi {
                continue;
            }
            let bj = d - bi;
            if bj >= g {
                continue;
            }
            let k = if (bi, bj) == (g - 1, g - 1) {
                Continuation::host(0)
            } else {
                Continuation::host(6)
            };
            tasks.push(Task::new(
                NW_BLOCK,
                k,
                &[0, 0, pack2(bi, bj), NO_CONT, NO_CONT, 0],
            ));
        }
        Some(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_arch::{Engine, Workload};
    use pxl_model::SerialExecutor;

    #[test]
    fn serial_matches_golden() {
        let bench = Nw::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_multi_pe_matches_golden() {
        let bench = Nw::new(Scale::Tiny);
        let mut engine =
            pxl_arch::FlexEngine::new(pxl_arch::AccelConfig::flex(2, 2), bench.profile());
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        assert!(out.metrics.get("accel.tasks") >= 16, "one task per block");
    }

    #[test]
    fn lite_matches_golden() {
        let bench = Nw::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let mut worker = inst.worker;
        let mut driver = inst.driver;
        let out = engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
        // 4x4 grid of blocks -> 7 anti-diagonal rounds.
        assert_eq!(out.metrics.get("lite.rounds"), 7);
    }

    #[test]
    fn score_is_bounded_by_perfect_match() {
        let bench = Nw::new(Scale::Tiny);
        let g = bench.golden();
        let n = bench.n as usize;
        let score = g[(n + 1) * (n + 1) - 1];
        assert!(score <= n as i32, "score bounded by perfect match");
    }
}
