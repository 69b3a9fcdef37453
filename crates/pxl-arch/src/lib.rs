//! The ParallelXL accelerator architecture (Section III of the paper).
//!
//! An accelerator is a set of **tiles** connected by argument and
//! work-stealing networks; each tile contains several **processing
//! elements** (worker + task-management unit), a shared **P-Store** for
//! pending tasks, an argument/task **router**, and an L1 cache port into the
//! coherent memory hierarchy. Two tile variants are provided, matching the
//! paper's Table I:
//!
//! | Pattern               | [`ArchKind::Flex`] | [`ArchKind::Lite`] |
//! |-----------------------|--------------------|--------------------|
//! | Data-parallel         | yes                | yes                |
//! | Fork-join             | yes                | no                 |
//! | General task-parallel | yes                | no                 |
//! | Task scheduling       | work stealing      | static distribution|
//!
//! The crate simulates them at cycle granularity on top of the
//! [`pxl_sim`] event kernel and the [`pxl_mem`] hierarchy. The runtime
//! services every engine needs — functional memory, metrics, tracing, the
//! quiescence watchdog, telemetry, task ids and host slots — live once in
//! [`EngineCore`]. Everything else that does not depend on task
//! distribution — memory backend, P-Store joins, fault injection/recovery,
//! the PE-side `TaskContext` — lives once in the [`fabric`] module; a
//! [`SchedulingPolicy`] supplies the distribution:
//!
//! * [`FlexEngine`] — the full continuation-passing machine: LIFO task
//!   deques, LFSR victim selection, steal-from-head, distributed P-Stores,
//!   greedy scheduling (a task made ready by the last arriving argument is
//!   routed back to the PE that produced it), and a host interface block
//!   that PEs steal root tasks from. A [`policy::FlexPolicy`] instantiation
//!   of the fabric.
//! * [`LiteEngine`] — the lightweight data-parallel machine: no P-Store, no
//!   steal network; the host statically distributes range chunks round-robin
//!   and synchronizes between rounds.
//! * [`CentralEngine`] — the centralized strawman: FlexArch's task model
//!   over one global ready queue whose single port serializes every
//!   acquisition. A [`policy::CentralPolicy`] instantiation, kept for the
//!   Flex-vs-Lite-vs-central ablation.
//!
//! See `docs/fabric.md` for the fabric/policy split and how to add a
//! policy.

pub mod api;
pub mod config;
pub mod core;
pub mod deque;
pub mod fabric;
pub mod lite;
pub mod policy;
pub mod pstore;

pub use crate::core::{register_fault_metrics, EmbedsCore, EngineCore, Watchdog};
pub use api::{Engine, EngineKind, Workload};
pub use config::{
    AccelConfig, ArchCosts, ArchKind, ClusterConfig, ConfigError, LocalOrder, Platform,
    SchedPolicy, StealEnd, StealMode, VictimSelect,
};
pub use deque::TaskDeque;
pub use fabric::{
    AccelError, AccelResult, CentralEngine, FabricEngine, FlexEngine, HierEngine, RunStatus,
};
pub use lite::{LiteDriver, LiteEngine, RoundTasks};
pub use policy::{CentralPolicy, FlexPolicy, HierPolicy, SchedulingPolicy};
pub use pstore::{FillOutcome, PStore, PStoreError, PStoreStateError};
