//! The unified engine API: one trait over FlexArch, LiteArch and the
//! software baseline.
//!
//! Every execution engine in the framework — [`FlexEngine`](crate::FlexEngine),
//! [`LiteEngine`](crate::LiteEngine) and `pxl_cpu::CpuEngine` — models the
//! same contract: set up inputs in functional [`Memory`], run a workload,
//! read back results and typed [`Metrics`]. The [`Engine`] trait captures that contract so harnesses
//! (notably `pxl-bench`) can drive any engine through one generic code path
//! instead of per-engine glue.
//!
//! The engines differ in *what they run*: FlexArch and the CPU baseline
//! execute a dynamic task graph from a single root task, while LiteArch
//! needs a host-side driver that statically constructs one round of tasks
//! at a time. [`Workload`] expresses both shapes; an engine rejects the
//! shape it cannot execute with [`AccelError::Unsupported`], the same way
//! the hardware's missing P-Store rejects spawns.

use pxl_mem::Memory;
use pxl_model::{Task, Worker};
use pxl_sim::snapshot::{Snapshot, SnapshotError};
use pxl_sim::{Clock, Metrics, Time};

use crate::core::EmbedsCore;
use crate::fabric::{AccelError, AccelResult, RunStatus};
use crate::lite::LiteDriver;

/// Which engine family an [`Engine`] implementation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// FlexArch: continuation-passing hardware with work stealing.
    Flex,
    /// LiteArch: static data-parallel rounds.
    Lite,
    /// The centralized shared-queue ablation of FlexArch.
    Central,
    /// FlexArch with hierarchical (intra-chip-first) work stealing on a
    /// multi-chip cluster.
    Hier,
    /// The Cilk-style multicore software baseline.
    Cpu,
}

impl EngineKind {
    /// Short lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Flex => "flex",
            EngineKind::Lite => "lite",
            EngineKind::Central => "central",
            EngineKind::Hier => "hier",
            EngineKind::Cpu => "cpu",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A workload an [`Engine`] can be asked to run.
///
/// The lifetime ties the borrowed worker (and driver) to the duration of
/// the `run` call; engines never retain them.
pub enum Workload<'a> {
    /// A dynamic task graph grown from `root` by `worker` (FlexArch, CPU).
    Dynamic {
        /// Executes each task functionally and reports costs.
        worker: &'a mut dyn Worker,
        /// The root task, typically continuing into host slot 0.
        root: Task,
    },
    /// Host-driven rounds of statically distributed tasks (LiteArch).
    Rounds {
        /// Executes each task functionally and reports costs.
        worker: &'a mut dyn Worker,
        /// Constructs each round until it returns `None`.
        driver: &'a mut dyn LiteDriver,
    },
}

impl<'a> Workload<'a> {
    /// A dynamic task-graph workload.
    pub fn dynamic(worker: &'a mut dyn Worker, root: Task) -> Self {
        Workload::Dynamic { worker, root }
    }

    /// A round-driven data-parallel workload.
    pub fn rounds(worker: &'a mut dyn Worker, driver: &'a mut dyn LiteDriver) -> Self {
        Workload::Rounds { worker, driver }
    }

    /// Short label of the workload shape, used in error messages.
    pub fn shape(&self) -> &'static str {
        match self {
            Workload::Dynamic { .. } => "dynamic task graph",
            Workload::Rounds { .. } => "host-driven rounds",
        }
    }
}

/// The common surface of every execution engine.
///
/// Every engine embeds an [`EngineCore`](crate::EngineCore) (the
/// [`EmbedsCore`] supertrait); the memory, metrics and host-slot accessors
/// read it.
///
/// # Examples
///
/// Driving FlexArch through the trait object the way `pxl-bench` does:
///
/// ```
/// use pxl_arch::{AccelConfig, Engine, FlexEngine, Workload};
/// use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};
///
/// const DOUBLE: TaskTypeId = TaskTypeId(0);
/// struct Doubler;
/// impl Worker for Doubler {
///     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
///         ctx.compute(1);
///         ctx.send_arg(task.k, task.args[0] * 2);
///     }
/// }
///
/// let mut engine: Box<dyn Engine> =
///     Box::new(FlexEngine::new(AccelConfig::flex(1, 2), ExecProfile::scalar()));
/// let mut worker = Doubler;
/// let root = Task::new(DOUBLE, Continuation::host(0), &[21]);
/// let out = engine.run(Workload::dynamic(&mut worker, root)).unwrap();
/// assert_eq!(out.result, 42);
/// assert!(out.metrics.get("accel.tasks") > 0);
/// ```
pub trait Engine: EmbedsCore + std::fmt::Debug {
    /// Which engine family this is.
    fn kind(&self) -> EngineKind;

    /// Number of processing elements or cores.
    fn units(&self) -> usize;

    /// The engine's logic clock — the domain in which callers express
    /// cycle counts (e.g. a checkpoint interval of N cycles pauses at
    /// `clock().cycles_to_time(N)` boundaries).
    fn clock(&self) -> Clock;

    /// Shared access to functional memory for output checking.
    fn memory(&self) -> &Memory {
        &self.core().mem
    }

    /// Mutable access to functional memory for input setup.
    fn mem_mut(&mut self) -> &mut Memory {
        &mut self.core_mut().mem
    }

    /// The engine's metrics registry. Fully aggregated metrics are moved
    /// into [`AccelResult::metrics`] when `run` returns; this accessor
    /// exposes whatever the engine currently holds.
    fn metrics(&self) -> &Metrics {
        &self.core().metrics
    }

    /// Value delivered to a host result register, if any.
    fn host_result(&self, slot: u8) -> Option<u64> {
        self.core().host_result(slot)
    }

    /// Runs `workload` to completion. Call once per engine (or once per
    /// [`Engine::restore`]).
    ///
    /// # Errors
    ///
    /// [`AccelError::Finished`] when the engine already finished a run,
    /// [`AccelError::Unsupported`] when the workload shape does not match
    /// the engine (e.g. rounds on FlexArch), plus every error the concrete
    /// engine's own run path can produce.
    fn run(&mut self, workload: Workload<'_>) -> Result<AccelResult, AccelError> {
        match self.run_until(workload, None)? {
            RunStatus::Finished(result) => Ok(result),
            RunStatus::Paused { .. } => unreachable!("run_until without a pause never pauses"),
        }
    }

    /// Runs one leg of `workload`: launches on the first call (a no-op on
    /// an engine restored from a snapshot) and advances until the
    /// computation drains or, when `pause_at` is given, until the next
    /// schedulable step lies beyond that boundary with work still
    /// outstanding. Legs compose — keep calling with an equivalent workload
    /// until [`RunStatus::Finished`]; a [`RunStatus::Paused`] engine is at
    /// a deterministic boundary where [`Engine::snapshot`] may be taken.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    fn run_until(
        &mut self,
        workload: Workload<'_>,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError> {
        self.core().check_runnable()?;
        self.advance(workload, pause_at)
    }

    /// The engine's own leg of [`Engine::run_until`], which calls it only
    /// on an engine that has not finished its run.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    fn advance(
        &mut self,
        workload: Workload<'_>,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError>;

    /// Serializes the engine's complete mutable simulation state into a
    /// versioned, checksummed [`Snapshot`]. Capture at construction time or
    /// at a [`RunStatus::Paused`] boundary; restoring into a fresh engine
    /// built from the same configuration resumes byte-identically to an
    /// uninterrupted run (see `docs/checkpoint.md`).
    fn snapshot(&self) -> Snapshot;

    /// Overwrites the engine's mutable state with a snapshot captured by
    /// [`Engine::snapshot`] on an identically configured engine.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::EngineMismatch`] for a snapshot from a different
    /// engine family, [`SnapshotError::Malformed`] when the payload does
    /// not describe this configuration.
    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use crate::fabric::{CentralEngine, FlexEngine};
    use crate::lite::LiteEngine;
    use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId};

    const LEAF: TaskTypeId = TaskTypeId(0);

    struct Doubler;
    impl Worker for Doubler {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            ctx.compute(1);
            ctx.send_arg(task.k, task.args[0] * 2);
        }
    }

    #[test]
    fn flex_runs_dynamic_and_rejects_rounds() {
        let mut engine = FlexEngine::new(AccelConfig::flex(1, 2), ExecProfile::scalar());
        let dyn_engine: &mut dyn Engine = &mut engine;
        assert_eq!(dyn_engine.kind(), EngineKind::Flex);
        assert_eq!(dyn_engine.units(), 2);
        let mut worker = Doubler;
        let root = Task::new(LEAF, Continuation::host(0), &[5]);
        let out = dyn_engine
            .run(Workload::dynamic(&mut worker, root))
            .unwrap();
        assert_eq!(out.result, 10);
        assert_eq!(dyn_engine.host_result(0), Some(10));

        let mut engine = FlexEngine::new(AccelConfig::flex(1, 2), ExecProfile::scalar());
        let mut worker = Doubler;
        let mut driver = |_: &mut Memory, _: usize| None;
        let err = Engine::run(&mut engine, Workload::rounds(&mut worker, &mut driver)).unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)), "got {err}");
    }

    #[test]
    fn lite_runs_rounds_and_rejects_dynamic() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        let dyn_engine: &mut dyn Engine = &mut engine;
        assert_eq!(dyn_engine.kind(), EngineKind::Lite);
        let mut worker = Doubler;
        let mut driver = |_: &mut Memory, round: usize| {
            (round == 0).then(|| vec![Task::new(LEAF, Continuation::host(0), &[4])])
        };
        let out = dyn_engine
            .run(Workload::rounds(&mut worker, &mut driver))
            .unwrap();
        assert_eq!(out.result, 8);

        let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        let mut worker = Doubler;
        let err = Engine::run(
            &mut engine,
            Workload::dynamic(&mut worker, Task::new(LEAF, Continuation::host(0), &[1])),
        )
        .unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)));
    }

    #[test]
    fn central_runs_dynamic_through_the_trait() {
        let mut engine = CentralEngine::new(AccelConfig::central(1, 2), ExecProfile::scalar());
        let dyn_engine: &mut dyn Engine = &mut engine;
        assert_eq!(dyn_engine.kind(), EngineKind::Central);
        let mut worker = Doubler;
        let root = Task::new(LEAF, Continuation::host(0), &[5]);
        let out = dyn_engine
            .run(Workload::dynamic(&mut worker, root))
            .unwrap();
        assert_eq!(out.result, 10);

        let mut engine = CentralEngine::new(AccelConfig::central(1, 2), ExecProfile::scalar());
        let mut worker = Doubler;
        let mut driver = |_: &mut Memory, _: usize| None;
        let err = Engine::run(&mut engine, Workload::rounds(&mut worker, &mut driver)).unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)), "got {err}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EngineKind::Flex.label(), "flex");
        assert_eq!(EngineKind::Lite.to_string(), "lite");
        assert_eq!(EngineKind::Central.label(), "central");
        assert_eq!(EngineKind::Hier.label(), "hier");
        assert_eq!(EngineKind::Cpu.label(), "cpu");
    }
}
