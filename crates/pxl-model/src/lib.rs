//! The ParallelXL computation model: tasks with explicit continuation
//! passing.
//!
//! This crate implements Section II of the paper. The primitives:
//!
//! * A **task** is a tuple *(f, args, k)* — a function id ([`TaskTypeId`]),
//!   argument words, and a [`Continuation`] pointing at the pending task
//!   that should receive this task's return value.
//! * A task may **spawn** children; spawned tasks eventually **join** by
//!   sending arguments to a pending **successor** task created with
//!   `make_successor`. Each pending task carries a **join counter**; when the
//!   counter reaches zero the task becomes ready.
//! * Everything else — sequential composition, fork-join, data-parallel
//!   loops, the wavefront pattern of dynamic programming — is built from
//!   these primitives (the paper's Fig. 1 and Fig. 2).
//!
//! Algorithms are described by implementing [`Worker`], the Rust analogue of
//! the paper's C++-based worker description (CPPWD, Fig. 5): a worker
//! receives one ready task and talks to the architecture exclusively through
//! the port-like methods of [`TaskContext`] (`spawn`, `send_arg`,
//! `make_successor`, plus memory and compute accounting).
//!
//! The crate also provides [`patterns::ParallelFor`] (the paper's
//! `parallel_for` helper with `blocked_range` semantics), the
//! [`pending::PendingTable`] every engine keeps its waiting successors in,
//! and a [`serial::SerialExecutor`] — the single-PE reference scheduler used
//! for golden checks, for measuring the serial space bound *S₁* that sizes
//! hardware queues (Section II-C) and for recording task graphs
//! ([`trace::TaskGraph`]).
//!
//! # Examples
//!
//! Fibonacci, the paper's running example (Fig. 5), and its serial execution:
//!
//! ```
//! use pxl_model::{Continuation, Task, TaskContext, TaskTypeId, Worker};
//! use pxl_model::serial::SerialExecutor;
//!
//! const FIB: TaskTypeId = TaskTypeId(0);
//! const SUM: TaskTypeId = TaskTypeId(1);
//!
//! struct FibWorker;
//! impl Worker for FibWorker {
//!     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
//!         let k = task.k;
//!         if task.ty == FIB {
//!             let n = task.args[0];
//!             if n < 2 {
//!                 ctx.send_arg(k, n);
//!             } else {
//!                 let kk = ctx.make_successor(SUM, k, 2);
//!                 ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
//!                 ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
//!             }
//!         } else {
//!             ctx.send_arg(k, task.args[0] + task.args[1]);
//!         }
//!     }
//! }
//!
//! let mut exec = SerialExecutor::new();
//! let root = Task::new(FIB, Continuation::host(0), &[10]);
//! let result = exec.run(&mut FibWorker, root).unwrap();
//! assert_eq!(result, 55);
//! ```

pub mod patterns;
pub mod pending;
pub mod serial;
pub mod task;
pub mod trace;
pub mod worker;

pub use patterns::{BlockedRange, ParallelFor};
pub use pending::{PendingTable, PendingTableError};
pub use serial::SerialExecutor;
pub use task::{
    Argument, Continuation, PendingTask, Task, TaskTypeId, MAX_ARGS, PENDING_WORDS, TASK_WORDS,
};
pub use trace::TaskGraph;
pub use worker::{ExecProfile, TaskContext, Worker};
