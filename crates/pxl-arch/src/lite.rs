//! The LiteArch execution engine: static data-parallel distribution.
//!
//! A LiteArch tile (Fig. 3(c)) drops the P-Store, the argument/task router
//! and all work-stealing hardware: "This architecture supports the
//! data-parallel pattern with the host CPU splitting the range into smaller
//! subranges, and enqueuing the tasks for execution on the PEs"
//! (Section III-B). The interface block assigns tasks to PEs statically
//! (round-robin) over the argument/task network.
//!
//! Algorithms with dynamic task graphs are mapped to LiteArch the way the
//! paper describes (Section V-A): "use multiple rounds, with each round
//! processing one level of the task graph using a parallel-for, and at the
//! same time constructing the next level". The host-side logic that builds
//! each round is a [`LiteDriver`].

use pxl_mem::Memory;
use pxl_model::serial::HOST_SLOTS;
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};
use pxl_sim::json;
use pxl_sim::snapshot::{malformed, Snapshot, SnapshotError};
use pxl_sim::{Clock, FaultKind, Time, TraceEvent};

use crate::api::{Engine, EngineKind, Workload};
use crate::config::{AccelConfig, ArchKind};
use crate::core::{EmbedsCore, EngineCore};
use crate::fabric::{timed_memory_path, AccelError, MemBackend, RunStatus};

/// The engine-wide counters, registered on first use
/// ([`EngineCore::count`]).
const COUNTERS: &[&str] = &["accel.tasks", "accel.ops", "lite.rounds", "lite.tasks"];
const TASKS: usize = 0;
const OPS: usize = 1;
const ROUNDS: usize = 2;
const ROUND_TASKS: usize = 3;

/// One round of statically distributed tasks.
pub type RoundTasks = Vec<Task>;

/// Host-side round constructor for LiteArch executions.
///
/// The engine calls [`LiteDriver::next_round`] repeatedly; each returned
/// batch is distributed round-robin over the PEs and run to completion
/// before the next round starts (a host-side barrier). Return `None` when
/// the computation is finished.
pub trait LiteDriver {
    /// Builds the tasks of round `round`, inspecting `mem` for results of
    /// previous rounds (e.g. the next BFS frontier). `None` ends the run.
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks>;
}

/// Blanket impl so simple closures can drive single- or multi-round runs.
impl<F> LiteDriver for F
where
    F: FnMut(&mut Memory, usize) -> Option<RoundTasks>,
{
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        self(mem, round)
    }
}

/// The LiteArch accelerator simulator.
///
/// Tasks may not spawn children or create successors — attempting either is
/// an [`AccelError::Unsupported`], enforcing Table I in the simulator the
/// way leaving out the P-Store enforces it in hardware. Arguments sent to a
/// host slot are *accumulated* (summed) into that slot, which is how
/// reductions (queens solution counts, knapsack best values) come back.
///
/// # Examples
///
/// ```
/// use pxl_arch::{AccelConfig, Engine, LiteEngine, Workload};
/// use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};
///
/// const LEAF: TaskTypeId = TaskTypeId(0);
/// struct SumWorker;
/// impl Worker for SumWorker {
///     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
///         let (lo, hi) = (task.args[0], task.args[1]);
///         ctx.compute(hi - lo);
///         ctx.send_arg(task.k, (lo..hi).sum::<u64>());
///     }
/// }
///
/// let mut engine = LiteEngine::new(AccelConfig::lite(1, 4), ExecProfile::scalar());
/// let mut driver = |_mem: &mut pxl_mem::Memory, round: usize| {
///     (round == 0).then(|| {
///         (0..4u64)
///             .map(|i| Task::new(LEAF, Continuation::host(0), &[i * 25, (i + 1) * 25]))
///             .collect()
///     })
/// };
/// let out = engine
///     .run(Workload::rounds(&mut SumWorker, &mut driver))
///     .unwrap();
/// assert_eq!(out.result, (0..100).sum::<u64>());
/// ```
#[derive(Debug)]
pub struct LiteEngine {
    cfg: AccelConfig,
    profile: ExecProfile,
    /// Memory, metrics, trace, watchdog, telemetry (ticked at round
    /// barriers), task ids (sequential in dispatch order) and the host
    /// slots, which accumulate.
    core: EngineCore,
    backend: MemBackend,
    /// Simulated time at the last round barrier. A field (not a `run`
    /// local) so a paused or restored engine resumes exactly where it
    /// stopped.
    now: Time,
    /// The next round to request from the driver.
    round: usize,
}

impl LiteEngine {
    /// Creates an engine for `cfg` with the benchmark's execution profile.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AccelConfig::validate`] or is not
    /// a LiteArch configuration. Use [`LiteEngine::try_new`] to handle those
    /// cases as errors.
    pub fn new(cfg: AccelConfig, profile: ExecProfile) -> Self {
        Self::try_new(cfg, profile).expect("invalid accelerator configuration")
    }

    /// Fallible constructor: returns [`AccelError::InvalidConfig`] if the
    /// configuration fails [`AccelConfig::validate`] or is not a LiteArch
    /// configuration.
    pub fn try_new(cfg: AccelConfig, profile: ExecProfile) -> Result<Self, AccelError> {
        cfg.validate()
            .map_err(|e| AccelError::InvalidConfig(e.to_string()))?;
        if cfg.arch != ArchKind::Lite {
            return Err(AccelError::InvalidConfig(
                "LiteEngine requires ArchKind::Lite".to_string(),
            ));
        }
        Ok(LiteEngine {
            profile,
            core: EngineCore::new(
                &cfg.clock,
                cfg.max_sim_time_us,
                cfg.watchdog_quiescence_cycles,
                cfg.trace_capacity,
                cfg.telemetry_every_cycles,
            )
            .with_lazy_counters(COUNTERS, "pe", cfg.num_pes()),
            backend: MemBackend::for_config(&cfg),
            now: Time::ZERO,
            round: 0,
            cfg,
        })
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }
}

/// LiteArch's static fault schedule: the fault plan (validated to hold only
/// PE deaths and stalls on Lite) as the interface block applies it when it
/// places a round, and as the finished run accounts it. Lite has no event
/// loop to fire faults from (docs/fabric.md says why), so the schedule is a
/// pure function of the configuration, built on each `advance` leg and
/// never checkpointed.
#[derive(Debug)]
struct StaticSchedule {
    /// Each PE's earliest death `(at, spec)`; a later one is skipped.
    death: Vec<Option<(Time, usize)>>,
    /// Each PE's stall windows `(from, to, spec)`, sorted.
    stalls: Vec<Vec<(Time, Time, usize)>>,
    /// Every death `(pe, at, spec)` in plan order.
    deaths: Vec<(usize, Time, usize)>,
}

impl StaticSchedule {
    fn new(cfg: &AccelConfig) -> Self {
        let num_pes = cfg.num_pes();
        let mut schedule = StaticSchedule {
            death: vec![None; num_pes],
            stalls: vec![Vec::new(); num_pes],
            deaths: Vec::new(),
        };
        let specs = cfg.fault_plan.as_ref().map_or(&[][..], |plan| plan.specs());
        for (idx, spec) in specs.iter().enumerate() {
            match spec.kind {
                FaultKind::PeDeath { pe } => {
                    schedule.deaths.push((pe, spec.from, idx));
                    if schedule.death[pe].is_none_or(|(t, _)| spec.from < t) {
                        schedule.death[pe] = Some((spec.from, idx));
                    }
                }
                FaultKind::PeStall { pe, cycles } => {
                    let to = spec.from + cfg.clock.cycles_to_time(cycles);
                    schedule.stalls[pe].push((spec.from, to, idx));
                }
                _ => {}
            }
        }
        for windows in &mut schedule.stalls {
            windows.sort();
        }
        schedule
    }

    /// Places task `i` of a round, given each PE's busy-until horizon
    /// `pe_time` and the task's serial dispatch slot `dispatched`. Chunk `i`
    /// belongs to PE `i mod P`; the interface block's scoreboard reassigns
    /// a dead PE's chunks to the next live PE in rotation, and a stall only
    /// pushes the start past its window. Returns the PE, its start and
    /// whether the task was reassigned (a rescue), or `None` when every PE
    /// is dead.
    fn place(&self, i: usize, dispatched: Time, pe_time: &[Time]) -> Option<(usize, Time, bool)> {
        let num_pes = pe_time.len();
        (0..num_pes).find_map(|off| {
            let pe = (i + off) % num_pes;
            let mut start = pe_time[pe].max(dispatched);
            for &(s, e, _) in &self.stalls[pe] {
                if start >= s && start < e {
                    start = e;
                }
            }
            // A PE that begins a task before its death commits it
            // (fail-stop at dispatch granularity).
            let alive = self.death[pe].is_none_or(|(d, _)| start < d);
            alive.then_some((pe, start, off > 0))
        })
    }

    /// Accounts the plan against a run that finished at `now`: everything
    /// that fired inside the simulated interval was absorbed by static
    /// reassignment (deaths) or by waiting out the window (stalls); the
    /// rest, and every death but a PE's earliest, is skipped. Deaths are
    /// recorded in plan order, then each PE's stalls in time order.
    fn account(&self, core: &mut EngineCore, now: Time) {
        for &(pe, at, idx) in &self.deaths {
            if self.death[pe] == Some((at, idx)) && at <= now {
                core.metrics.incr("fault.pe_deaths");
                core.record_injected(at, idx, pe);
                core.record_recovered(now, idx, pe);
            } else {
                core.metrics.incr("fault.skipped");
            }
        }
        for (pe, windows) in self.stalls.iter().enumerate() {
            for &(s, e, idx) in windows {
                if s <= now {
                    core.metrics.incr("fault.pe_stalls");
                    core.record_injected(s, idx, pe);
                    core.record_recovered(e, idx, pe);
                } else {
                    core.metrics.incr("fault.skipped");
                }
            }
        }
    }
}

impl Engine for LiteEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Lite
    }

    fn units(&self) -> usize {
        self.cfg.num_pes()
    }

    fn clock(&self) -> Clock {
        self.cfg.clock.clone()
    }

    /// Runs rounds until the driver returns `None` or, when `pause_at` is
    /// given, until the simulated clock passes that boundary at a round
    /// barrier. Rounds are atomic: the engine pauses *between* rounds, the
    /// natural checkpoint for a machine whose host synchronizes every round.
    /// LiteArch drivers must derive round `r` from `(mem, r)` alone, so an
    /// equivalent driver resumes a paused or restored run. The result is
    /// the accumulated value of host slot 0.
    fn advance(
        &mut self,
        workload: Workload<'_>,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError> {
        let Workload::Rounds { worker, driver } = workload else {
            return Err(AccelError::Unsupported(format!(
                "LiteArch runs host-driven rounds, not {}",
                workload.shape()
            )));
        };
        let num_pes = self.cfg.num_pes();
        let schedule = StaticSchedule::new(&self.cfg);
        loop {
            if let Some(pause) = pause_at {
                if self.now > pause {
                    return Ok(RunStatus::Paused { at: pause });
                }
            }
            let round = self.round;
            let Some(tasks) = driver.next_round(&mut self.core.mem, round) else {
                break;
            };
            self.core.count(ROUNDS, 1);
            self.core.count(ROUND_TASKS, tasks.len() as u64);
            let mut now = self.now
                + self
                    .cfg
                    .clock
                    .cycles_to_time(self.cfg.costs.round_sync_cycles);
            // Static round-robin distribution by the interface block. The IF
            // dispatches tasks serially over the argument/task network, so
            // PE p's i-th task is available only after its dispatch slot.
            let dispatch = self
                .cfg
                .clock
                .cycles_to_time(self.cfg.costs.if_dispatch_cycles);
            let mut pe_time = vec![now; num_pes];
            for (i, task) in tasks.into_iter().enumerate() {
                let dispatched = now + Time::from_ps(dispatch.as_ps() * (i as u64 + 1));
                let Some((pe, start, reassigned)) = schedule.place(i, dispatched, &pe_time) else {
                    // Every PE is dead: the IF can never dispatch this task
                    // (the IF, unit `num_pes`, holds the undispatchable work).
                    return Err(self.core.stall(dispatched, Some(num_pes)));
                };
                if reassigned {
                    self.core.metrics.incr("fault.rescued_tasks");
                }
                let task = task.with_id(self.core.alloc_task_id());
                let end = self.execute_task(start, pe, task, worker)?;
                pe_time[pe] = end;
                self.core.watchdog.progress(end, pe);
                if end > self.core.limit {
                    return Err(AccelError::TimedOut);
                }
            }
            // Host-side barrier: the round ends when the slowest PE drains.
            now = pe_time.into_iter().max().unwrap_or(now);
            self.now = now;
            self.round += 1;
            // Sample at the round barrier: rounds are atomic and pauses only
            // land between them, so a resumed leg replays the same barrier
            // sequence and produces the identical timeline.
            self.sample_if_due(now);
        }
        let now = self.now;
        let result = self.core.host[0].unwrap_or(0);
        Ok(RunStatus::Finished(self.finish_run(
            result,
            now,
            |engine| {
                schedule.account(&mut engine.core, now);
                engine.core.metrics.merge(&engine.backend.take_stats());
                engine.backend.take_trace()
            },
        )))
    }

    fn snapshot(&self) -> Snapshot {
        let host = &self.core.host;
        let head = vec![
            ("now_ps", json::word(&self.now)),
            ("round", json::word(&self.round)),
            ("next_task_id", json::num(self.core.next_task_id)),
            ("host", json::arr_u64(host.iter().map(|h| h.unwrap_or(0)))),
            ("host_written", json::words(&host.map(|h| h.is_some()))),
        ];
        let backend = ("backend", self.backend.state_to_json_value());
        self.core.snapshot("lite", head, backend, Vec::new())
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        snap.expect_engine("lite")?;
        let p = &snap.payload;
        self.now = json::get_word(p, "now_ps")?;
        self.round = json::get_word(p, "round")?;
        let host: Vec<u64> = json::get_words_n(p, "host", HOST_SLOTS)?;
        let written: Vec<bool> = json::get_words_n(p, "host_written", HOST_SLOTS)?;
        for (slot, (&value, &w)) in self.core.host.iter_mut().zip(host.iter().zip(&written)) {
            *slot = match (w, value) {
                (true, _) => Some(value),
                (false, 0) => None,
                (false, _) => return Err(malformed("an unwritten host slot holds a value")),
            };
        }
        self.core.restore(p, |_| {})?;
        self.backend
            .restore_state(json::get(p, "backend")?)
            .map_err(malformed)
    }
}

impl LiteEngine {
    fn execute_task(
        &mut self,
        start: Time,
        pe: usize,
        task: Task,
        worker: &mut dyn Worker,
    ) -> Result<Time, AccelError> {
        let start = start
            + self
                .cfg
                .clock
                .cycles_to_time(self.cfg.costs.dispatch_cycles);
        let port = self.backend.port_of(&self.cfg, pe);
        let mut ctx = LiteCtx {
            now: start,
            port,
            cfg: &self.cfg,
            profile: self.profile,
            core: &mut self.core,
            backend: &mut self.backend,
            ops: 0,
            error: None,
        };
        worker.execute(&task, &mut ctx);
        let end = ctx.now;
        let ops = ctx.ops;
        let err = ctx.error.take();
        if let Some(e) = err {
            return Err(e);
        }
        let busy_ps = (end - start).as_ps();
        self.core.count(TASKS, 1);
        self.core.count(OPS, ops);
        self.core.count_task(pe, busy_ps);
        self.core.trace.emit(
            start,
            TraceEvent::TaskDispatch {
                unit: pe as u32,
                ty: task.ty.0,
                task: task.id,
            },
        );
        self.core.trace.emit(
            end,
            TraceEvent::TaskComplete {
                unit: pe as u32,
                ty: task.ty.0,
                busy_ps,
                task: task.id,
            },
        );
        Ok(end)
    }
}

/// The PE-side [`TaskContext`] for LiteArch: no spawning, no successors.
struct LiteCtx<'e> {
    now: Time,
    port: usize,
    cfg: &'e AccelConfig,
    profile: ExecProfile,
    /// The engine's memory and host slots, borrowed for the task's
    /// duration.
    core: &'e mut EngineCore,
    backend: &'e mut MemBackend,
    ops: u64,
    error: Option<AccelError>,
}

impl TaskContext for LiteCtx<'_> {
    fn spawn(&mut self, _task: Task) {
        self.error = Some(AccelError::Unsupported(
            "LiteArch tiles cannot spawn tasks (no work-stealing TMU; see Table I)".into(),
        ));
    }

    fn send_arg(&mut self, k: Continuation, value: u64) {
        self.now += self
            .cfg
            .clock
            .cycles_to_time(self.cfg.costs.send_arg_cycles);
        match k {
            Continuation::Host { slot } => {
                let cell = &mut self.core.host[slot as usize];
                *cell = Some(cell.unwrap_or(0).wrapping_add(value));
            }
            Continuation::PStore { .. } => {
                self.error = Some(AccelError::Unsupported(
                    "LiteArch tiles have no P-Store to receive arguments".into(),
                ));
            }
        }
    }

    fn make_successor_with(
        &mut self,
        _ty: TaskTypeId,
        _k: Continuation,
        _join: u8,
        _preset: &[(u8, u64)],
    ) -> Continuation {
        self.error = Some(AccelError::Unsupported(
            "LiteArch tiles have no P-Store (see Table I)".into(),
        ));
        Continuation::host((HOST_SLOTS - 1) as u8)
    }

    timed_memory_path!();

    fn mem(&mut self) -> &mut Memory {
        &mut self.core.mem
    }
}

impl EmbedsCore for LiteEngine {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    /// Host result slots written so far and completed rounds: the static
    /// machine's equivalents of the fabric's queue-depth gauges.
    fn gauges(&self, _now: Time) -> Vec<(&'static str, u64)> {
        let written = self.core.host.iter().filter(|h| h.is_some()).count();
        vec![
            ("host_written", written as u64),
            ("rounds", self.round as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_sim::FaultPlan;

    const LEAF: TaskTypeId = TaskTypeId(0);

    struct SumWorker;
    impl Worker for SumWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let (lo, hi) = (task.args[0], task.args[1]);
            ctx.compute(hi - lo);
            ctx.send_arg(task.k, (lo..hi).sum::<u64>());
        }
    }

    fn chunk_tasks(n: u64, chunks: u64) -> RoundTasks {
        let per = n / chunks;
        (0..chunks)
            .map(|i| Task::new(LEAF, Continuation::host(0), &[i * per, (i + 1) * per]))
            .collect()
    }

    fn one_round(tasks: RoundTasks) -> impl FnMut(&mut Memory, usize) -> Option<RoundTasks> {
        let mut tasks = Some(tasks);
        move |_mem, round| if round == 0 { tasks.take() } else { None }
    }

    #[test]
    fn single_round_reduction() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 4), ExecProfile::scalar());
        let out = engine
            .run(Workload::rounds(
                &mut SumWorker,
                &mut one_round(chunk_tasks(1000, 8)),
            ))
            .unwrap();
        assert_eq!(out.result, (0..1000).sum::<u64>());
        assert_eq!(out.metrics.get("accel.tasks"), 8);
        assert_eq!(out.metrics.get("lite.rounds"), 1);
    }

    #[test]
    fn more_pes_finish_sooner() {
        let run = |tiles, pes| {
            let mut engine = LiteEngine::new(AccelConfig::lite(tiles, pes), ExecProfile::scalar());
            engine
                .run(Workload::rounds(
                    &mut SumWorker,
                    &mut one_round(chunk_tasks(100_000, 64)),
                ))
                .unwrap()
                .elapsed
        };
        let t1 = run(1, 1);
        let t8 = run(2, 4);
        assert!(t8 < t1, "8 PEs ({t8}) must beat 1 PE ({t1})");
    }

    #[test]
    fn multi_round_execution_uses_memory_between_rounds() {
        struct DoubleWorker;
        impl Worker for DoubleWorker {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let addr = task.args[0];
                let v = ctx.read_u32(addr);
                ctx.write_u32(addr, v * 2);
                ctx.send_arg(task.k, 0);
            }
        }
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        engine.mem_mut().write_u32(0x100, 1);
        let mut driver = |_mem: &mut Memory, round: usize| {
            (round < 3).then(|| vec![Task::new(LEAF, Continuation::host(1), &[0x100])])
        };
        let out = engine
            .run(Workload::rounds(&mut DoubleWorker, &mut driver))
            .unwrap();
        assert_eq!(engine.memory().read_u32(0x100), 8, "three doubling rounds");
        assert_eq!(out.metrics.get("lite.rounds"), 3);
    }

    struct SpawnyWorker;
    impl Worker for SpawnyWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            ctx.spawn(*task);
        }
    }

    #[test]
    fn spawning_is_rejected() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 1), ExecProfile::scalar());
        let err = engine
            .run(Workload::rounds(
                &mut SpawnyWorker,
                &mut one_round(vec![Task::new(LEAF, Continuation::host(0), &[])]),
            ))
            .unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)), "got {err}");
    }

    struct SuccessorWorker;
    impl Worker for SuccessorWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let _ = ctx.make_successor(TaskTypeId(9), task.k, 2);
        }
    }

    #[test]
    fn successors_are_rejected() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 1), ExecProfile::scalar());
        let err = engine
            .run(Workload::rounds(
                &mut SuccessorWorker,
                &mut one_round(vec![Task::new(LEAF, Continuation::host(0), &[])]),
            ))
            .unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)));
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        // A multi-round driver that is a pure function of (mem, round), as
        // the checkpoint contract requires of LiteArch drivers: a restored
        // engine replays the remaining rounds through a fresh driver value.
        struct DoubleWorker;
        impl Worker for DoubleWorker {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let addr = task.args[0];
                let v = ctx.read_u32(addr);
                ctx.write_u32(addr, v * 2);
                ctx.send_arg(task.k, u64::from(v));
            }
        }
        let driver = || {
            |_mem: &mut Memory, round: usize| -> Option<RoundTasks> {
                (round < 6).then(|| {
                    (0..4u64)
                        .map(|i| Task::new(LEAF, Continuation::host(0), &[0x100 + 4 * i]))
                        .collect()
                })
            }
        };
        let mk = || {
            let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
            for i in 0..4u64 {
                engine.mem_mut().write_u32(0x100 + 4 * i, i as u32 + 1);
            }
            engine
        };
        let reference = mk()
            .run(Workload::rounds(&mut DoubleWorker, &mut driver()))
            .unwrap();
        let pause = Time::from_ps(reference.elapsed.as_ps() / 2);

        let mut paused = mk();
        match paused
            .run_until(
                Workload::rounds(&mut DoubleWorker, &mut driver()),
                Some(pause),
            )
            .unwrap()
        {
            RunStatus::Paused { at } => assert_eq!(at, pause),
            RunStatus::Finished(_) => panic!("six rounds must outlast {pause}"),
        }
        let blob = paused.snapshot().to_json();
        let snap = Snapshot::from_json(&blob).expect("snapshot survives its wire format");
        let mut restored = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        restored
            .restore(&snap)
            .expect("restore into a fresh engine");

        for (label, engine) in [("paused", &mut paused), ("restored", &mut restored)] {
            let out =
                match engine.run_until(Workload::rounds(&mut DoubleWorker, &mut driver()), None) {
                    Ok(RunStatus::Finished(out)) => out,
                    other => panic!("{label} leg: {other:?}"),
                };
            assert_eq!(out.result, reference.result, "{label} result");
            assert_eq!(out.elapsed, reference.elapsed, "{label} elapsed");
            assert_eq!(
                out.metrics.to_json(),
                reference.metrics.to_json(),
                "{label} metrics"
            );
            assert_eq!(
                out.trace.to_jsonl(),
                reference.trace.to_jsonl(),
                "{label} trace"
            );
            assert_eq!(engine.memory().read_u32(0x100), 64, "{label} memory");
        }

        // A Flex snapshot must not restore into a Lite engine.
        let mut flex_snap = paused.snapshot();
        flex_snap.engine = "flex".to_owned();
        let err = mk().restore(&flex_snap).expect_err("engine mismatch");
        assert!(
            matches!(err, SnapshotError::EngineMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn restore_refuses_a_value_in_an_unwritten_host_slot() {
        let engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        let text = engine.snapshot().payload.to_json();
        assert!(text.contains("\"host\":[0,"), "{text}");
        let tampered = text.replacen("\"host\":[0,", "\"host\":[5,", 1);
        let snap = Snapshot::new("lite", pxl_sim::json::JsonValue::parse(&tampered).unwrap());
        let mut fresh = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        let err = fresh.restore(&snap).expect_err("slot 0 was never written");
        assert!(
            matches!(&err, SnapshotError::Malformed(m) if m.contains("unwritten host slot")),
            "{err}"
        );
    }

    #[test]
    fn static_schedule_skips_dead_pes_and_waits_out_stalls() {
        let schedule = |plan: FaultPlan| {
            let mut cfg = AccelConfig::lite(1, 2);
            cfg.fault_plan = Some(plan);
            StaticSchedule::new(&cfg)
        };
        let pe_time = [Time::ZERO, Time::ZERO];
        let dispatched = Time::from_ps(10);
        let one_dead = schedule(FaultPlan::new(1).kill_pe(0, Time::ZERO));
        assert_eq!(
            one_dead.place(0, dispatched, &pe_time),
            Some((1, dispatched, true)),
            "PE 1 is alive"
        );
        let all_dead = schedule(
            FaultPlan::new(1)
                .kill_pe(0, Time::ZERO)
                .kill_pe(1, Time::ZERO),
        );
        assert_eq!(all_dead.place(0, dispatched, &pe_time), None);
        // A stall covering the dispatch slot pushes the start to its end.
        let stalled = schedule(FaultPlan::new(1).stall_pe(0, Time::from_ps(5), 3));
        let end = Time::from_ps(5) + AccelConfig::lite(1, 2).clock.cycles_to_time(3);
        assert_eq!(
            stalled.place(0, dispatched, &pe_time),
            Some((0, end, false))
        );
    }

    #[test]
    fn host_slot_accumulates() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        let tasks: RoundTasks = (0..4)
            .map(|i| Task::new(LEAF, Continuation::host(2), &[0, i + 1]))
            .collect();
        let _ = engine
            .run(Workload::rounds(&mut SumWorker, &mut one_round(tasks)))
            .unwrap();
        // Sums of 0..1, 0..2, 0..3, 0..4 = 0 + 1 + 3 + 6.
        assert_eq!(engine.host_result(2), Some(10));
        assert_eq!(engine.host_result(3), None);
    }
}
