//! A pausable, checkpointable simulation run: the code every run goes
//! through.
//!
//! [`execute`](crate::execute) starts a [`SimSession`] and finishes it in
//! one shot. A caller holding the session itself owns the running
//! simulation — the engine, the benchmark's worker (and LiteArch driver),
//! and the root task — so it can advance it leg by leg, pause at
//! deterministic cycle boundaries, serialize a [`Snapshot`] of the paused
//! state, and later rebuild an identical session from that snapshot with
//! [`SimSession::resume`].
//!
//! The determinism contract (see `docs/checkpoint.md`): a run paused at
//! any boundary, snapshotted, JSON-round-tripped, restored into a fresh
//! session and run to completion produces byte-identical results, metrics
//! and traces to the same spec executed without interruption. The
//! `pxl-serve` job server builds crash recovery and cooperative preemption
//! on exactly this contract.
//!
//! # Examples
//!
//! ```
//! use pxl_apps::Scale;
//! use pxl_dse::{DesignPoint, PointArch};
//! use pxl_flow::{SessionStatus, SimSession, RunSpec};
//!
//! let spec = RunSpec::new("uts", Scale::Tiny, DesignPoint::accel(PointArch::Flex, 1, 2));
//! let mut session = SimSession::start(&spec).unwrap().unwrap();
//! let outcome = session.finish().unwrap();
//! assert_eq!(outcome.engine, "flex");
//! ```

use pxl_apps::{by_name, Benchmark};
use pxl_arch::{Engine, EngineKind, LiteDriver, RunStatus, Workload};
use pxl_model::{Task, Worker};
use pxl_sim::{Clock, Snapshot, Time};

use crate::run::init_time;
use crate::{RunError, RunOutcome, RunSpec, SimulationBuilder};

/// What one [`SimSession::advance`] leg produced.
#[derive(Debug)]
pub enum SessionStatus {
    /// The computation drained and validated; the session is spent.
    Finished(Box<RunOutcome>),
    /// The run paused at the requested boundary with work outstanding; the
    /// engine is at a deterministic point where [`SimSession::snapshot`]
    /// may be taken, and [`SimSession::advance`] continues it.
    Paused {
        /// The boundary the run paused at (simulated time).
        at: Time,
    },
}

/// The workload shape re-presented to the engine each leg.
enum Shape {
    /// Dynamic task graph (FlexArch, the central ablation, CPU). The root
    /// is re-passed every leg; engines launch it exactly once.
    Dynamic { root: Task },
    /// Host-driven rounds (LiteArch). Drivers are pure functions of
    /// `(memory, round)`, so a rebuilt driver resumes correctly.
    Rounds { driver: Box<dyn LiteDriver> },
}

/// An owned, in-flight simulation of one [`RunSpec`]: the engine, the
/// benchmark's worker, the workload shape the engine executes and the
/// input footprint.
pub struct SimSession {
    spec: RunSpec,
    bench: Box<dyn Benchmark>,
    engine: Box<dyn Engine>,
    worker: Box<dyn Worker>,
    shape: Shape,
    footprint_bytes: u64,
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("spec", &self.spec.canonical())
            .field("engine", &self.engine.kind().label())
            .finish_non_exhaustive()
    }
}

impl SimSession {
    /// Builds the engine and instantiates the benchmark, ready to advance
    /// from cycle zero.
    ///
    /// Returns `Ok(None)` when the spec targets LiteArch and the benchmark
    /// has no LiteArch mapping (mirroring [`crate::execute`]).
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownBenchmark`] or any engine-construction failure.
    pub fn start(spec: &RunSpec) -> Result<Option<SimSession>, RunError> {
        SimSession::build(spec, None)
    }

    /// Rebuilds a session from a [`Snapshot`] taken by
    /// [`SimSession::snapshot`] on a session of the *same spec*, resuming
    /// at the checkpointed boundary.
    ///
    /// The benchmark's inputs are re-initialized and then overwritten by
    /// the snapshot's memory image, so the restored state is exactly the
    /// paused run's — including any in-place mutations the run had already
    /// made.
    ///
    /// # Errors
    ///
    /// [`RunError::Snapshot`] when the snapshot does not match the spec's
    /// engine family or configuration; otherwise as [`SimSession::start`].
    pub fn resume(spec: &RunSpec, snap: &Snapshot) -> Result<Option<SimSession>, RunError> {
        SimSession::build(spec, Some(snap))
    }

    /// Builds the engine and sets up the benchmark's inputs in its memory
    /// in the shape the engine runs: rounds for LiteArch, a dynamic task
    /// graph otherwise.
    fn build(spec: &RunSpec, snap: Option<&Snapshot>) -> Result<Option<SimSession>, RunError> {
        let bench = by_name(&spec.benchmark, spec.scale)
            .ok_or_else(|| RunError::UnknownBenchmark(spec.benchmark.clone()))?;
        let mut engine = SimulationBuilder::from_run_spec(spec)?
            .build()
            .map_err(RunError::Build)?;
        let (worker, shape, footprint_bytes) = match engine.kind() {
            EngineKind::Lite => {
                let Some(inst) = bench.lite(engine.mem_mut()) else {
                    return Ok(None);
                };
                let driver = inst.driver;
                (inst.worker, Shape::Rounds { driver }, inst.footprint_bytes)
            }
            EngineKind::Flex | EngineKind::Hier | EngineKind::Central | EngineKind::Cpu => {
                let inst = bench.flex(engine.mem_mut());
                let root = inst.root;
                (inst.worker, Shape::Dynamic { root }, inst.footprint_bytes)
            }
        };
        if let Some(snap) = snap {
            engine.restore(snap).map_err(RunError::Snapshot)?;
        }
        Ok(Some(SimSession {
            spec: spec.clone(),
            bench,
            engine,
            worker,
            shape,
            footprint_bytes,
        }))
    }

    /// The spec this session is running.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The engine's logic clock — converts the spec's cycle-denominated
    /// checkpoint interval into pause times.
    pub fn clock(&self) -> Clock {
        self.engine.clock()
    }

    /// Serializes the engine's complete state. Call at construction time
    /// or when the last [`SimSession::advance`] returned
    /// [`SessionStatus::Paused`].
    pub fn snapshot(&self) -> Snapshot {
        self.engine.snapshot()
    }

    /// The engine's live metrics registry — counters accumulated so far,
    /// readable mid-run at a paused boundary (the job server's progress
    /// events are built from this).
    pub fn metrics(&self) -> &pxl_sim::Metrics {
        self.engine.metrics()
    }

    /// Runs one leg: to completion when `pause_at` is `None`, otherwise
    /// until the next schedulable step lies beyond `pause_at` (with work
    /// still outstanding). On completion the output is validated against
    /// the benchmark's golden reference and initialization time is charged.
    /// Failure messages and the finished [`RunOutcome`] carry the spec's
    /// architecture label.
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] for simulation failures, [`RunError::WrongResult`]
    /// when the finished run fails golden validation.
    pub fn advance(&mut self, pause_at: Option<Time>) -> Result<SessionStatus, RunError> {
        let label = self.spec.point.arch.label();
        let units = self.engine.units();
        let name = self.bench.meta().name;
        let workload = match &mut self.shape {
            Shape::Dynamic { root } => Workload::dynamic(self.worker.as_mut(), *root),
            Shape::Rounds { driver } => Workload::rounds(self.worker.as_mut(), driver.as_mut()),
        };
        let status = self
            .engine
            .run_until(workload, pause_at)
            .map_err(|e| RunError::Sim(format!("{name} on {label}/{units}u failed: {e}")))?;
        let out = match status {
            RunStatus::Paused { at } => return Ok(SessionStatus::Paused { at }),
            RunStatus::Finished(out) => out,
        };
        let check = self.bench.check(self.engine.memory(), out.result);
        let outcome = RunOutcome {
            bench: name.to_owned(),
            engine: label.to_owned(),
            units,
            kernel: out.elapsed,
            whole: out.elapsed + init_time(self.footprint_bytes),
            metrics: out.metrics,
            trace: out.trace,
            timeline: out.timeline,
        };
        if let Err(e) = check {
            return Err(RunError::WrongResult {
                message: format!("{name} on {label}/{units}u wrong: {e}"),
                outcome: Box::new(outcome),
            });
        }
        Ok(SessionStatus::Finished(Box::new(outcome)))
    }

    /// Advances with no pause boundary: runs the rest of the computation.
    ///
    /// # Errors
    ///
    /// As [`SimSession::advance`].
    pub fn finish(&mut self) -> Result<RunOutcome, RunError> {
        match self.advance(None)? {
            SessionStatus::Finished(out) => Ok(*out),
            SessionStatus::Paused { .. } => unreachable!("no pause boundary was requested"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;
    use pxl_apps::Scale;
    use pxl_dse::{DesignPoint, PointArch};
    use pxl_sim::{FaultPlan, SnapshotError};

    fn points() -> Vec<DesignPoint> {
        vec![
            DesignPoint::accel(PointArch::Flex, 1, 2),
            DesignPoint::accel(PointArch::Central, 1, 2),
            DesignPoint::accel(PointArch::Lite, 1, 2),
            DesignPoint::cpu(2),
        ]
    }

    #[test]
    fn uninterrupted_session_matches_execute() {
        for point in points() {
            let spec = RunSpec::new("uts", Scale::Tiny, point).with_trace(1 << 12);
            let reference = execute(&spec).unwrap().unwrap();
            let mut session = SimSession::start(&spec).unwrap().unwrap();
            let out = session.finish().unwrap();
            assert_eq!(out.to_jsonl(), reference.to_jsonl());
        }
    }

    #[test]
    fn paused_snapshot_resumes_byte_identically_on_every_engine() {
        for point in points() {
            let label = point.arch.label();
            let spec = RunSpec::new("uts", Scale::Tiny, point).with_trace(1 << 12);
            let reference = execute(&spec).unwrap().unwrap();
            let pause = Time::from_ps(reference.kernel.as_ps() / 2);

            let mut session = SimSession::start(&spec).unwrap().unwrap();
            match session.advance(Some(pause)).unwrap() {
                SessionStatus::Paused { at } => assert_eq!(at, pause),
                SessionStatus::Finished(_) => {
                    panic!("{label}: mid-run pause must leave work outstanding")
                }
            }
            // Round-trip the snapshot through its serialized form, as the
            // server's checkpoint files do.
            let snap = Snapshot::from_json(&session.snapshot().to_json()).unwrap();
            let mut restored = SimSession::resume(&spec, &snap).unwrap().unwrap();
            let out = restored.finish().unwrap();
            assert_eq!(
                out.to_jsonl(),
                reference.to_jsonl(),
                "{label}: restored leg"
            );

            // The paused original must finish identically too.
            let out = session.finish().unwrap();
            assert_eq!(out.to_jsonl(), reference.to_jsonl(), "{label}: paused leg");
        }
    }

    #[test]
    fn resume_survives_active_fault_plans() {
        let spec = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 2, 2),
        )
        .with_faults(FaultPlan::new(0xC0FFEE).kill_pe(3, Time::from_ns(500)));
        let reference = execute(&spec).unwrap().unwrap();
        let pause = Time::from_ps(reference.kernel.as_ps() / 2);
        let mut session = SimSession::start(&spec).unwrap().unwrap();
        assert!(matches!(
            session.advance(Some(pause)).unwrap(),
            SessionStatus::Paused { .. }
        ));
        let snap = session.snapshot();
        let mut restored = SimSession::resume(&spec, &snap).unwrap().unwrap();
        let out = restored.finish().unwrap();
        assert_eq!(out.to_jsonl(), reference.to_jsonl());
    }

    #[test]
    fn resume_rejects_a_snapshot_from_another_engine() {
        let flex = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 1, 2),
        );
        let snap = SimSession::start(&flex).unwrap().unwrap().snapshot();
        let cpu = RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(2));
        let err = SimSession::resume(&cpu, &snap).unwrap_err();
        assert!(
            matches!(
                &err,
                RunError::Snapshot(SnapshotError::EngineMismatch { .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("snapshot restore failed"));
    }
}
