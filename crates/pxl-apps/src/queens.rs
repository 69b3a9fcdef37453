//! `queens` — the N-queens problem (Cilk apps, FJ).
//!
//! Counts all placements of N queens on an N x N board. The solution-space
//! search forks on candidate column positions; below a depth cutoff each
//! task explores its subtree serially (standard Cilk apps granularity
//! control). Board state travels entirely in task arguments as bitmasks —
//! the benchmark's memory intensity is "Low" (Table II).
//!
//! The paper's PE-level customization note applies here: "in queens, each
//! PE is designed to check multiple candidate locations on a chessboard in
//! parallel" (Section V-D2) — captured by the high accelerator
//! ops-per-cycle in [`Benchmark::profile`].
//!
//! The LiteArch variant is level-synchronous: round *r* holds all partial
//! boards with *r* queens placed; each task expands one board, appending
//! children to the next-round list, until the depth cutoff, after which
//! tasks count serially.

use pxl_arch::RoundTasks;
use pxl_mem::{Allocator, Memory};
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};

use crate::common::{Benchmark, Instance, LiteInstance, Meta, Scale};

/// Explore a candidate range of one row (forks).
const Q_SEARCH: TaskTypeId = TaskTypeId(0);
/// Sum join.
const Q_SUM: TaskTypeId = TaskTypeId(1);
/// LiteArch: expand-or-count one board.
const Q_LITE: TaskTypeId = TaskTypeId(2);

/// Known solution counts for checking.
const SOLUTIONS: [(u32, u64); 6] = [
    (6, 4),
    (8, 92),
    (10, 724),
    (11, 2_680),
    (12, 14_200),
    (13, 73_712),
];

#[derive(Debug, Clone, Copy)]
struct Layout {
    /// LiteArch next-round board list: count word + 4-word board records.
    next_list: u64,
}

/// The N-queens benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Queens {
    n: u32,
    /// Rows below this depth are explored serially within one task.
    cutoff: u32,
}

impl Queens {
    /// Creates the benchmark at a preset scale.
    pub fn new(scale: Scale) -> Self {
        let (n, cutoff) = match scale {
            Scale::Tiny => (8, 3),
            Scale::Small => (10, 4),
            Scale::Paper => (12, 4),
        };
        Queens { n, cutoff }
    }

    fn layout(&self) -> Layout {
        let mut alloc = Allocator::new(0x10000);
        // Generously sized frontier list for the Lite variant.
        let next_list = alloc.alloc_array(1 + 4 * 600_000, 8);
        Layout { next_list }
    }

    /// Host-side golden count.
    fn golden(&self) -> u64 {
        fn count(n: u32, cols: u64, d1: u64, d2: u64, row: u32) -> u64 {
            if row == n {
                return 1;
            }
            let mut total = 0;
            for c in 0..n {
                if free(n, cols, d1, d2, row, c) {
                    let (nc, nd1, nd2) = place(cols, d1, d2, row, c);
                    total += count(n, nc, nd1, nd2, row + 1);
                }
            }
            total
        }
        count(self.n, 0, 0, 0, 0)
    }
}

/// Whether column `c` in `row` is attacked.
#[inline]
fn free(n: u32, cols: u64, d1: u64, d2: u64, row: u32, c: u32) -> bool {
    let _ = n;
    cols & (1 << c) == 0 && d1 & (1 << (row + c)) == 0 && d2 & (1 << (row + 31 - c)) == 0
}

/// Masks after placing a queen at (row, c).
#[inline]
fn place(cols: u64, d1: u64, d2: u64, row: u32, c: u32) -> (u64, u64, u64) {
    (cols | 1 << c, d1 | 1 << (row + c), d2 | 1 << (row + 31 - c))
}

/// Serial subtree count; returns (solutions, explored nodes) so the caller
/// can charge compute proportional to the actual search effort.
///
/// Visits the free columns of each row as one bit set, lowest column first:
/// the same children in the same order as testing every column with
/// [`free`], without the attacked ones. `d1` bit `row + c` is bit `c` of
/// `d1 >> row`; `d2` bit `row + 31 - c` is bit `31 - c` of `d2 >> row`, so
/// reversing its low 32 bits lines it up with the columns.
fn serial_count(n: u32, cols: u64, d1: u64, d2: u64, row: u32) -> (u64, u64) {
    if row == n {
        return (1, 1);
    }
    let attacked = cols | d1 >> row | ((d2 >> row) as u32).reverse_bits() as u64;
    let mut open = !attacked & ((1 << n) - 1);
    let mut total = 0;
    let mut nodes = 1;
    while open != 0 {
        let c = open.trailing_zeros();
        open &= open - 1;
        let (nc, nd1, nd2) = place(cols, d1, d2, row, c);
        let (t, k) = serial_count(n, nc, nd1, nd2, row + 1);
        total += t;
        nodes += k;
    }
    (total, nodes)
}

impl Benchmark for Queens {
    fn meta(&self) -> Meta {
        Meta {
            name: "queens",
            source: "Cilk apps",
            approach: "FJ",
            recursive_nested: true,
            data_dependent: true,
            mem_pattern: "Regular",
            mem_intensity: "Low",
        }
    }

    fn profile(&self) -> ExecProfile {
        // The HLS worker checks all candidate columns of a row in parallel
        // (bitmask logic unrolls completely); the CPU checks them serially
        // with good branch prediction.
        ExecProfile::new(8.0, 2.0)
    }

    fn flex(&self, _mem: &mut Memory) -> Instance {
        Instance {
            worker: Box::new(QueensWorker {
                n: self.n,
                cutoff: self.cutoff,
                layout: self.layout(),
            }),
            root: Task::new(
                Q_SEARCH,
                Continuation::host(0),
                &[0, 0, 0, 0, pack_range(0, 0, self.n)],
            ),
            footprint_bytes: 4096,
        }
    }

    fn lite(&self, mem: &mut Memory) -> Option<LiteInstance> {
        let layout = self.layout();
        mem.write_u64(layout.next_list, 0);
        Some(LiteInstance {
            worker: Box::new(QueensWorker {
                n: self.n,
                cutoff: self.cutoff,
                layout,
            }),
            driver: Box::new(QueensLiteDriver {
                layout,
                cutoff: self.cutoff,
            }),
            footprint_bytes: 4096,
        })
    }

    fn check(&self, _mem: &Memory, result: u64) -> Result<(), String> {
        let want = SOLUTIONS
            .iter()
            .find(|(n, _)| *n == self.n)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| self.golden());
        if result != want {
            return Err(format!("queens({}): counted {result}, want {want}", self.n));
        }
        Ok(())
    }
}

/// Packs (row, candidate range) into one argument word.
fn pack_range(row: u32, lo: u32, hi: u32) -> u64 {
    ((row as u64) << 32) | ((lo as u64) << 16) | hi as u64
}

fn unpack_range(w: u64) -> (u32, u32, u32) {
    (
        (w >> 32) as u32,
        ((w >> 16) & 0xFFFF) as u32,
        (w & 0xFFFF) as u32,
    )
}

#[derive(Debug, Clone)]
struct QueensWorker {
    n: u32,
    cutoff: u32,
    layout: Layout,
}

impl Worker for QueensWorker {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let n = self.n;
        match task.ty {
            Q_SEARCH => {
                let (cols, d1, d2) = (task.args[0], task.args[1], task.args[2]);
                let (row, lo, hi) = unpack_range(task.args[4]);
                if row >= self.cutoff {
                    // Serial subtree exploration.
                    let (count, nodes) = serial_count(n, cols, d1, d2, row);
                    ctx.compute(4 * nodes);
                    ctx.send_arg(task.k, count);
                } else if hi - lo > 1 {
                    // Fork the candidate range in two.
                    ctx.compute(2);
                    let mid = lo + (hi - lo) / 2;
                    let kk = ctx.make_successor(Q_SUM, task.k, 2);
                    ctx.spawn(Task::new(
                        Q_SEARCH,
                        kk.with_slot(1),
                        &[cols, d1, d2, 0, pack_range(row, mid, hi)],
                    ));
                    ctx.spawn(Task::new(
                        Q_SEARCH,
                        kk.with_slot(0),
                        &[cols, d1, d2, 0, pack_range(row, lo, mid)],
                    ));
                } else {
                    // Single candidate: place if legal, descend one row.
                    ctx.compute(4);
                    let c = lo;
                    if free(n, cols, d1, d2, row, c) {
                        let (nc, nd1, nd2) = place(cols, d1, d2, row, c);
                        if row + 1 == n {
                            ctx.send_arg(task.k, 1);
                        } else {
                            ctx.spawn(Task::new(
                                Q_SEARCH,
                                task.k,
                                &[nc, nd1, nd2, 0, pack_range(row + 1, 0, n)],
                            ));
                        }
                    } else {
                        ctx.send_arg(task.k, 0);
                    }
                }
            }
            Q_SUM => {
                ctx.compute(1);
                ctx.send_arg(task.k, task.args[0] + task.args[1]);
            }
            Q_LITE => {
                let (cols, d1, d2) = (task.args[0], task.args[1], task.args[2]);
                let row = task.args[4] as u32;
                if row >= self.cutoff {
                    let (count, nodes) = serial_count(n, cols, d1, d2, row);
                    ctx.compute(4 * nodes);
                    ctx.send_arg(task.k, count);
                } else {
                    // Expand one level, appending legal children to the
                    // shared next-round list.
                    ctx.compute(4 * n as u64);
                    let list = self.layout.next_list;
                    ctx.amo(list);
                    let mem = ctx.mem();
                    let mut count = mem.read_u64(list);
                    for c in 0..n {
                        if free(n, cols, d1, d2, row, c) {
                            let (nc, nd1, nd2) = place(cols, d1, d2, row, c);
                            let rec = list + 8 + 32 * count;
                            mem.write_u64(rec, nc);
                            mem.write_u64(rec + 8, nd1);
                            mem.write_u64(rec + 16, nd2);
                            mem.write_u64(rec + 24, (row + 1) as u64);
                            count += 1;
                        }
                    }
                    mem.write_u64(list, count);
                    ctx.store(list + 8, 32);
                }
            }
            other => panic!("queens: unexpected task type {other}"),
        }
    }
}

/// Level-synchronous LiteArch driver. A pure function of `(mem, round)`:
/// round 0 starts from the empty board, every later round reads the
/// frontier the previous round's tasks appended to `next_list` in simulated
/// memory. Keeping the frontier in memory rather than driver fields is what
/// lets a checkpointed run resume mid-sequence with a freshly built driver
/// (the contract `docs/checkpoint.md` requires of LiteArch drivers).
#[derive(Debug)]
struct QueensLiteDriver {
    layout: Layout,
    cutoff: u32,
}

impl pxl_arch::LiteDriver for QueensLiteDriver {
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        let boards: Vec<(u64, u64, u64, u64)> = if round == 0 {
            vec![(0, 0, 0, 0)]
        } else {
            let list = self.layout.next_list;
            let count = mem.read_u64(list);
            let boards = (0..count)
                .map(|i| {
                    let rec = list + 8 + 32 * i;
                    (
                        mem.read_u64(rec),
                        mem.read_u64(rec + 8),
                        mem.read_u64(rec + 16),
                        mem.read_u64(rec + 24),
                    )
                })
                .collect();
            mem.write_u64(list, 0);
            boards
        };
        if boards.is_empty() || round as u32 > self.cutoff {
            return None;
        }
        Some(
            boards
                .iter()
                .map(|&(cols, d1, d2, row)| {
                    Task::new(Q_LITE, Continuation::host(0), &[cols, d1, d2, 0, row])
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
    fn serial_counts_92_for_8_queens() {
        let bench = Queens::new(Scale::Tiny);
        let mut exec = SerialExecutor::new();
        let inst = bench.flex(exec.mem_mut());
        let mut worker = inst.worker;
        let result = exec.run(worker.as_mut(), inst.root).unwrap();
        assert_eq!(result, 92);
        bench.check(exec.memory(), result).unwrap();
    }

    #[test]
    fn flex_parallel_counts() {
        let bench = Queens::new(Scale::Tiny);
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
    fn lite_rounds_count() {
        let bench = Queens::new(Scale::Tiny);
        let mut engine =
            pxl_arch::LiteEngine::new(pxl_arch::AccelConfig::lite(1, 4), bench.profile());
        let inst = bench.lite(engine.mem_mut()).unwrap();
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        let out = engine
            .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            .unwrap();
        bench.check(engine.memory(), out.result).unwrap();
    }

    /// Reference for `serial_count`: the same search, testing every column
    /// of each row with `free`.
    fn column_loop_count(n: u32, cols: u64, d1: u64, d2: u64, row: u32) -> (u64, u64) {
        if row == n {
            return (1, 1);
        }
        let (mut total, mut nodes) = (0, 1);
        for c in 0..n {
            if free(n, cols, d1, d2, row, c) {
                let (nc, nd1, nd2) = place(cols, d1, d2, row, c);
                let (t, k) = column_loop_count(n, nc, nd1, nd2, row + 1);
                total += t;
                nodes += k;
            }
        }
        (total, nodes)
    }

    /// Every board the parallel search hands to `serial_count`: all legal
    /// placements of the first `cutoff` rows.
    fn boards_at(n: u32, cutoff: u32) -> Vec<(u64, u64, u64)> {
        let mut boards = vec![(0, 0, 0)];
        for row in 0..cutoff {
            boards = boards
                .into_iter()
                .flat_map(|(cols, d1, d2)| {
                    (0..n)
                        .filter(move |&c| free(n, cols, d1, d2, row, c))
                        .map(move |c| place(cols, d1, d2, row, c))
                })
                .collect();
        }
        boards
    }

    #[test]
    fn bit_set_search_matches_the_column_loop() {
        let cutoffs = [Scale::Tiny, Scale::Small, Scale::Paper].map(|s| Queens::new(s).cutoff);
        for n in 6..=12 {
            for cutoff in cutoffs {
                let boards = boards_at(n, cutoff);
                assert!(!boards.is_empty(), "n={n}");
                for (cols, d1, d2) in boards {
                    assert_eq!(
                        serial_count(n, cols, d1, d2, cutoff),
                        column_loop_count(n, cols, d1, d2, cutoff),
                        "n={n} cutoff {cutoff} board {cols:#x}/{d1:#x}/{d2:#x}"
                    );
                }
            }
        }
        // The whole tree from the empty board, too.
        for n in 6..=10 {
            assert_eq!(
                serial_count(n, 0, 0, 0, 0),
                column_loop_count(n, 0, 0, 0, 0)
            );
        }
    }

    #[test]
    fn golden_matches_known_counts() {
        for (n, want) in [(6u32, 4u64), (8, 92)] {
            let q = Queens { n, cutoff: 2 };
            assert_eq!(q.golden(), want, "n={n}");
        }
    }
}
