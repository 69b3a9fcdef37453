//! The software baseline: a multicore CPU running a Cilk-style task runtime.
//!
//! The paper compares its accelerators against "an optimized parallel
//! software implementation using Intel Cilk Plus" on one to eight four-issue
//! out-of-order cores (Table III). This crate models that baseline by
//! executing *the same* [`pxl_model::Worker`] benchmarks through a software
//! work-stealing runtime whose primitives cost tens-to-hundreds of
//! instructions instead of the accelerator's few cycles — the asymmetry the
//! paper identifies as the key advantage of hardware task management
//! ("A work stealing operation may require hundreds of instructions in
//! software, but only needs several cycles on the accelerator",
//! Section V-D1).
//!
//! Each core:
//!
//! * runs at 1 GHz with an effective-IPC model for runtime code and the
//!   benchmark's [`pxl_model::ExecProfile`] CPU rate for kernel code
//!   (capturing `-O3` + NEON auto-vectorization);
//! * owns a THE-protocol-style work-stealing deque;
//! * accesses memory through its private L1 in the shared MOESI hierarchy
//!   of [`pxl_mem`], with an out-of-order overlap factor that hides part of
//!   each miss behind independent work;
//! * performs joins in shared memory: every `send_arg` pays an atomic
//!   update on the pending task's join-counter cache line, so join-counter
//!   ping-pong between cores emerges from the coherence model.

pub mod engine;

pub use engine::{CpuEngine, SoftwareCosts};
