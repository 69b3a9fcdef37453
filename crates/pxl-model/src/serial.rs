//! The serial reference executor.
//!
//! [`SerialExecutor`] runs a computation on a single logical processing
//! element with a LIFO task stack and an unbounded pending-task store. It is
//! the model-level ground truth the timing engines are validated against:
//!
//! * **Golden results** — every benchmark's output under any engine and PE
//!   count must match its output under the serial executor.
//! * **Space bound** — it measures *S₁*, the serial task-storage
//!   requirement. Work-stealing theory (Section II-C) bounds a `P`-PE
//!   execution's space by `S_P ≤ S₁·P`, which is what lets hardware task
//!   queues be finitely sized; integration tests check the simulated
//!   accelerator against this bound.
//! * **Task graph** — it records the dynamic task graph the run unfolds
//!   ([`SerialExecutor::graph`]), for structural checks and DOT rendering
//!   (the paper's Fig. 2). Each task's instance id is its graph node.

use pxl_mem::Memory;

use crate::pending::PendingTable;
use crate::task::{Continuation, PendingTask, Task, TaskTypeId};
use crate::trace::{EdgeKind, NodeId, TaskGraph};
use crate::worker::{TaskContext, Worker};

/// Number of host-interface result registers.
pub const HOST_SLOTS: usize = 8;

/// Errors a model-level execution can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Execution drained every queue but pending tasks never became ready —
    /// the task graph leaked joins (an argument was never sent).
    LeakedPending {
        /// Number of pending tasks left in the P-Store.
        count: usize,
    },
    /// The computation finished without writing the root continuation's
    /// host result register.
    NoResult {
        /// The slot that was expected to be written.
        slot: u8,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::LeakedPending { count } => {
                write!(f, "computation leaked {count} pending task(s)")
            }
            ExecError::NoResult { slot } => {
                write!(f, "no result delivered to host slot {slot}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Counters the serial executor collects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialStats {
    /// Ready tasks executed.
    pub tasks_executed: u64,
    /// Child tasks spawned.
    pub spawns: u64,
    /// Argument messages sent.
    pub args_sent: u64,
    /// Pending successor tasks created.
    pub successors: u64,
    /// Compute operations charged.
    pub ops: u64,
    /// Timed load/store/DMA line touches.
    pub mem_accesses: u64,
    /// Peak depth of the ready-task stack (the serial space bound `S₁`
    /// contribution from ready tasks).
    pub max_stack: usize,
    /// Peak number of simultaneously pending tasks.
    pub max_pending: usize,
}

impl SerialStats {
    /// The serial space requirement `S₁`: peak ready + pending tasks.
    pub fn s1(&self) -> usize {
        // Peak combined occupancy is conservatively bounded by the sum of
        // the individual peaks.
        self.max_stack + self.max_pending
    }
}

/// Single-PE reference scheduler (LIFO, greedy, unbounded storage).
///
/// # Examples
///
/// See the crate-level Fibonacci example.
#[derive(Debug, Default)]
pub struct SerialExecutor {
    mem: Memory,
    stack: Vec<Task>,
    pending: PendingTable,
    host: [Option<u64>; HOST_SLOTS],
    stats: SerialStats,
    graph: TaskGraph,
    /// The graph node of the task executing now.
    current: NodeId,
}

impl SerialExecutor {
    /// Creates an executor with empty memory.
    pub fn new() -> Self {
        SerialExecutor::default()
    }

    /// Mutable access to functional memory, for input setup and output
    /// checking.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Shared access to functional memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The collected statistics.
    pub fn stats(&self) -> SerialStats {
        self.stats
    }

    /// Value delivered to a host result register, if any.
    pub fn host_result(&self, slot: u8) -> Option<u64> {
        self.host.get(slot as usize).copied().flatten()
    }

    /// The task graph recorded by every run so far.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    fn push(&mut self, task: Task) {
        self.stack.push(task);
        self.stats.max_stack = self.stats.max_stack.max(self.stack.len());
    }

    /// Runs `root` to completion and returns the value delivered to the
    /// root continuation's host slot.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::LeakedPending`] if the task graph strands
    /// pending tasks, or [`ExecError::NoResult`] if the root result slot is
    /// never written (only checked when the root continuation targets the
    /// host).
    pub fn run<W: Worker + ?Sized>(
        &mut self,
        worker: &mut W,
        root: Task,
    ) -> Result<u64, ExecError> {
        let result_slot = match root.k {
            Continuation::Host { slot } => Some(slot),
            _ => None,
        };
        let node = self.graph.add_node(root.ty, false, root.args[0]);
        self.push(root.with_id(node.0 as u64));
        while let Some(task) = self.stack.pop() {
            self.stats.tasks_executed += 1;
            self.current = NodeId(task.id as usize);
            worker.execute(&task, self);
        }
        let count = self.pending.live();
        if count > 0 {
            return Err(ExecError::LeakedPending { count });
        }
        match result_slot {
            Some(slot) => self.host_result(slot).ok_or(ExecError::NoResult { slot }),
            None => Ok(0),
        }
    }
}

impl TaskContext for SerialExecutor {
    fn spawn(&mut self, task: Task) {
        self.stats.spawns += 1;
        let node = self.graph.add_node(task.ty, false, task.args[0]);
        self.graph.add_edge(self.current, node, EdgeKind::Spawn);
        self.push(task.with_id(node.0 as u64));
    }

    fn send_arg(&mut self, k: Continuation, value: u64) {
        self.stats.args_sent += 1;
        match k {
            Continuation::Host { slot } => {
                self.host[slot as usize] = Some(value);
            }
            Continuation::PStore { entry, slot, .. } => {
                let target = self
                    .pending
                    .id(entry)
                    .expect("argument sent to a freed P-Store entry");
                let target = NodeId(target as usize);
                self.graph.add_edge(self.current, target, EdgeKind::Arg);
                if let Some(ready) = self.pending.fill(entry, slot, value).flatten() {
                    self.graph.set_label(target, ready.args[0]);
                    self.push(ready);
                }
            }
        }
    }

    fn make_successor_with(
        &mut self,
        ty: TaskTypeId,
        k: Continuation,
        join: u8,
        preset: &[(u8, u64)],
    ) -> Continuation {
        self.stats.successors += 1;
        let node = self.graph.add_node(ty, true, 0);
        self.graph.add_edge(self.current, node, EdgeKind::Successor);
        let mut pending = PendingTask::new(ty, k, join).with_id(node.0 as u64);
        for &(slot, value) in preset {
            pending = pending.preset(slot, value);
        }
        let entry = self.pending.alloc(pending);
        self.stats.max_pending = self.stats.max_pending.max(self.pending.live());
        Continuation::pstore(0, entry, 0)
    }

    fn compute(&mut self, ops: u64) {
        self.stats.ops += ops;
    }

    fn load(&mut self, _addr: u64, _bytes: u32) {
        self.stats.mem_accesses += 1;
    }

    fn store(&mut self, _addr: u64, _bytes: u32) {
        self.stats.mem_accesses += 1;
    }

    fn amo(&mut self, _addr: u64) {
        self.stats.mem_accesses += 1;
    }

    fn dma_read(&mut self, _addr: u64, bytes: u64) {
        self.stats.mem_accesses += bytes.div_ceil(64);
    }

    fn dma_write(&mut self, _addr: u64, bytes: u64) {
        self.stats.mem_accesses += bytes.div_ceil(64);
    }

    fn mem(&mut self) -> &mut Memory {
        &mut self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIB: TaskTypeId = TaskTypeId(0);
    const SUM: TaskTypeId = TaskTypeId(1);

    struct FibWorker;
    impl Worker for FibWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let k = task.k;
            if task.ty == FIB {
                let n = task.args[0];
                ctx.compute(2);
                if n < 2 {
                    ctx.send_arg(k, n);
                } else {
                    let kk = ctx.make_successor(SUM, k, 2);
                    ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
                    ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
                }
            } else {
                ctx.compute(1);
                ctx.send_arg(k, task.args[0] + task.args[1]);
            }
        }
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }

    #[test]
    fn fibonacci_matches_reference() {
        for n in [0u64, 1, 2, 5, 10, 15] {
            let mut exec = SerialExecutor::new();
            let got = exec
                .run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[n]))
                .unwrap();
            assert_eq!(got, fib(n), "fib({n})");
        }
    }

    #[test]
    fn stats_are_collected() {
        let mut exec = SerialExecutor::new();
        let _ = exec
            .run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[10]))
            .unwrap();
        let s = exec.stats();
        assert!(s.tasks_executed > 100);
        assert!(s.spawns > 0);
        assert!(s.successors > 0);
        assert!(s.max_pending > 0);
        assert!(s.ops > 0);
        assert!(s.s1() >= s.max_stack);
        // LIFO depth-first: the stack of fib(10) stays shallow.
        assert!(s.max_stack < 30, "depth-first stack got {}", s.max_stack);
    }

    #[test]
    fn pstore_entries_are_recycled() {
        let mut exec = SerialExecutor::new();
        let _ = exec
            .run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[12]))
            .unwrap();
        // Every entry was freed; peak live is far below total successors.
        assert_eq!(exec.pending.live(), 0);
        assert!((exec.stats.max_pending as u64) < exec.stats.successors);
    }

    struct LeakyWorker;
    impl Worker for LeakyWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            // Creates a successor but never sends it any argument.
            let _ = ctx.make_successor(SUM, task.k, 2);
        }
    }

    #[test]
    fn leaked_pending_is_detected() {
        let mut exec = SerialExecutor::new();
        let err = exec
            .run(
                &mut LeakyWorker,
                Task::new(FIB, Continuation::host(0), &[1]),
            )
            .unwrap_err();
        assert_eq!(err, ExecError::LeakedPending { count: 1 });
        assert!(err.to_string().contains("leaked"));
    }

    struct SilentWorker;
    impl Worker for SilentWorker {
        fn execute(&mut self, _task: &Task, _ctx: &mut dyn TaskContext) {}
    }

    #[test]
    fn missing_result_is_detected() {
        let mut exec = SerialExecutor::new();
        let err = exec
            .run(
                &mut SilentWorker,
                Task::new(FIB, Continuation::host(3), &[]),
            )
            .unwrap_err();
        assert_eq!(err, ExecError::NoResult { slot: 3 });
    }

    struct MemWorker;
    impl Worker for MemWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let a = ctx.read_u32(0x100) as u64;
            ctx.write_u32(0x200, (a + 1) as u32);
            ctx.send_arg(task.k, a + 1);
        }
    }

    #[test]
    fn memory_accessors_flow_through_context() {
        let mut exec = SerialExecutor::new();
        exec.mem_mut().write_u32(0x100, 41);
        let got = exec
            .run(&mut MemWorker, Task::new(FIB, Continuation::host(0), &[]))
            .unwrap();
        assert_eq!(got, 42);
        assert_eq!(exec.memory().read_u32(0x200), 42);
        assert_eq!(exec.stats().mem_accesses, 2);
    }
}
