//! `spmvcrs` — sparse matrix-vector multiply, compressed row storage
//! (MachSuite, PF).
//!
//! `y = A*x` with A in CRS format. Parallelized "across the matrix rows
//! using parallel-for" (Section V-A). The column-index gather of `x` is the
//! irregular, high-memory-intensity part (Table II: Irregular / High) —
//! this benchmark is bandwidth-bound, which is why the paper's Fig. 6 shows
//! the Zedboard accelerator *losing* to the CPU and Fig. 7 shows all
//! implementations converging at scale.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, ParallelFor, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};
use crate::util::InputRng;

/// Parallel-for split over rows.
const SP_SPLIT: TaskTypeId = TaskTypeId(0);
/// Parallel-for join.
const SP_JOIN: TaskTypeId = TaskTypeId(1);
/// Rows per leaf task.
const GRAIN: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Layout {
    row_ptr: u64,
    col_idx: u64,
    vals: u64,
    x: u64,
    y: u64,
}

/// One generation of the CRS matrix and the dense input vector.
struct Matrix {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<u32>,
    x: Vec<u32>,
}

impl Matrix {
    fn layout(&self) -> Layout {
        let rows = self.x.len() as u64;
        let nnz = self.col_idx.len() as u64;
        let mut alloc = Allocator::new(0x10000);
        Layout {
            row_ptr: alloc.alloc_array(rows + 1, 4),
            col_idx: alloc.alloc_array(nnz, 4),
            vals: alloc.alloc_array(nnz, 4),
            x: alloc.alloc_array(rows, 4),
            y: alloc.alloc_array(rows, 4),
        }
    }

    /// Bytes of input and output: the CRS arrays plus `x` and `y`.
    fn footprint(&self) -> u64 {
        4 * (self.row_ptr.len() + self.col_idx.len() + self.vals.len() + 2 * self.x.len()) as u64
    }

    fn golden(&self) -> Vec<u32> {
        self.row_ptr
            .windows(2)
            .map(|w| {
                (w[0]..w[1])
                    .map(|e| {
                        self.vals[e as usize]
                            .wrapping_mul(self.x[self.col_idx[e as usize] as usize])
                    })
                    .fold(0u32, u32::wrapping_add)
            })
            .collect()
    }
}

/// The SpMV benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SpmvCrs {
    rows: u64,
    avg_nnz: u64,
    seed: u64,
}

impl SpmvCrs {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let (rows, avg_nnz) = match scale {
            Scale::Tiny => (512, 8),
            Scale::Small => (4096, 12),
            Scale::Paper => (16384, 16),
        };
        SpmvCrs {
            rows,
            avg_nnz,
            seed: 0x59B1,
        }
    }

    /// Deterministic CRS inputs. Generated once per `flex`/`lite`/`check`
    /// call; the layout, footprint and golden output all derive from it.
    fn gen_matrix(&self) -> Matrix {
        let mut rng = InputRng::new(self.seed);
        let mut row_ptr = Vec::with_capacity(self.rows as usize + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for _ in 0..self.rows {
            let nnz = 1 + rng.next_in(2 * self.avg_nnz);
            let mut cols: Vec<u32> = (0..nnz).map(|_| rng.next_in(self.rows) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                col_idx.push(c);
                vals.push(1 + rng.next_in(9) as u32);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        let x: Vec<u32> = (0..self.rows).map(|_| rng.next_in(100) as u32).collect();
        Matrix {
            row_ptr,
            col_idx,
            vals,
            x,
        }
    }

    /// Generates the inputs and writes them; returns the layout and the
    /// footprint in bytes.
    fn setup_memory(&self, mem: &mut Memory) -> (Layout, u64) {
        let m = self.gen_matrix();
        let l = m.layout();
        mem.write_u32_slice(l.row_ptr, &m.row_ptr);
        mem.write_u32_slice(l.col_idx, &m.col_idx);
        mem.write_u32_slice(l.vals, &m.vals);
        mem.write_u32_slice(l.x, &m.x);
        (l, m.footprint())
    }

    fn pf(&self) -> ParallelFor {
        ParallelFor::new(SP_SPLIT, SP_JOIN, GRAIN)
    }
}

impl Benchmark for SpmvCrs {
    fn meta(&self) -> Meta {
        Meta {
            name: "spmvcrs",
            source: "MachSuite",
            approach: "PF",
            recursive_nested: false,
            data_dependent: false,
            mem_pattern: "Irregular",
            mem_intensity: "High",
        }
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile::new(4.0, 3.0)
    }

    fn flex(&self, mem: &mut Memory) -> Instance {
        let (layout, footprint_bytes) = self.setup_memory(mem);
        let pf = self.pf();
        Instance {
            worker: Box::new(SpmvWorker { layout, pf }),
            root: pf.root_task(0, self.rows, Continuation::host(0)),
            footprint_bytes,
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let (layout, footprint_bytes) = self.setup_memory(mem);
        let pf = self.pf();
        let rows = self.rows;
        Some(LiteInstance {
            worker: Box::new(SpmvWorker { layout, pf }),
            driver: Box::new(
                move |_mem: &mut Memory, round: usize| -> Option<RoundTasks> {
                    (round == 0).then(|| {
                        (0..rows.div_ceil(GRAIN))
                            .map(|i| {
                                // Leaf-size chunks, directly at the split type
                                // (ranges at or below the grain run the leaf).
                                Task::new(
                                    SP_SPLIT,
                                    Continuation::host(0),
                                    &[i * GRAIN, ((i + 1) * GRAIN).min(rows)],
                                )
                            })
                            .collect()
                    })
                },
            ),
            footprint_bytes,
        })
    }

    fn check(&self, mem: &Memory, result: u64) -> Result<(), String> {
        // The matrix is dropped before `y` is read back, so the check never
        // holds the inputs, the golden vector and the read-back at once.
        let (y, golden) = {
            let m = self.gen_matrix();
            (m.layout().y, m.golden())
        };
        let got = mem.read_u32_slice(y, golden.len());
        if got != golden {
            let bad = got.iter().zip(&golden).position(|(a, b)| a != b).unwrap();
            return Err(format!(
                "spmvcrs: y[{bad}] = {}, want {}",
                got[bad], golden[bad]
            ));
        }
        if result != self.rows {
            return Err(format!(
                "spmvcrs: processed {result} rows, want {}",
                self.rows
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct SpmvWorker {
    layout: Layout,
    pf: ParallelFor,
}

impl Worker for SpmvWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let l = self.layout;
        let handled = self.pf.step(task, ctx, |ctx, lo, hi| {
            // Row pointers and the row's index/value streams are sequential;
            // the x gather is irregular (one timed load per element).
            ctx.dma_read(l.row_ptr + 4 * lo, (hi - lo + 1) * 4);
            let (e_lo, e_hi) = {
                let m = ctx.mem();
                (
                    m.read_u32(l.row_ptr + 4 * lo) as u64,
                    m.read_u32(l.row_ptr + 4 * hi) as u64,
                )
            };
            ctx.dma_read(l.col_idx + 4 * e_lo, (e_hi - e_lo) * 4);
            ctx.dma_read(l.vals + 4 * e_lo, (e_hi - e_lo) * 4);
            ctx.compute(2 * (e_hi - e_lo));
            for r in lo..hi {
                let (start, end) = {
                    let m = ctx.mem();
                    (
                        m.read_u32(l.row_ptr + 4 * r) as u64,
                        m.read_u32(l.row_ptr + 4 * (r + 1)) as u64,
                    )
                };
                let mut acc = 0u32;
                for e in start..end {
                    let col = ctx.mem().read_u32(l.col_idx + 4 * e) as u64;
                    // Irregular gather: a real timed load.
                    let xv = ctx.read_u32(l.x + 4 * col);
                    let av = ctx.mem().read_u32(l.vals + 4 * e);
                    acc = acc.wrapping_add(av.wrapping_mul(xv));
                }
                ctx.mem().write_u32(l.y + 4 * r, acc);
            }
            ctx.dma_write(l.y + 4 * lo, (hi - lo) * 4);
            hi - lo
        });
        assert!(handled, "spmvcrs: unexpected task type {}", task.ty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_model::SerialExecutor;

    #[test]
    fn serial_multiplies() {
        let bench = SpmvCrs::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_multiplies() {
        let bench = SpmvCrs::new(Scale::Tiny);
        let mut engine =
            pxl_arch::FlexEngine::new(pxl_arch::AccelConfig::flex(2, 2), bench.profile());
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine.run(worker.as_mut(), inst.root).unwrap();
        bench.check(engine.memory(), out.result).unwrap();
    }

    #[test]
    fn lite_multiplies() {
        let bench = SpmvCrs::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let out = engine.run(worker.as_mut(), driver.as_mut()).unwrap();
        bench.check(engine.memory(), out.result).unwrap();
    }

    #[test]
    fn matrix_structure_is_valid() {
        let bench = SpmvCrs::new(Scale::Tiny);
        let m = bench.gen_matrix();
        assert_eq!(m.row_ptr.len() as u64, bench.rows + 1);
        assert_eq!(m.col_idx.len(), m.vals.len());
        assert_eq!(m.x.len() as u64, bench.rows);
        assert!(
            m.row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "monotone row_ptr"
        );
        assert!(m.col_idx.iter().all(|&c| (c as u64) < bench.rows));
    }
}
