//! Event-driven multicore CPU engine with a software work-stealing runtime.

use pxl_mem::zedboard::{zedboard_cpu_core, zedboard_cpu_memory};
use pxl_mem::{AccessKind, Memory, MemorySystem, PortId};
use pxl_model::{
    Continuation, ExecProfile, PendingTable, PendingTask, Task, TaskContext, TaskTypeId, Worker,
    TASK_WORDS,
};
use pxl_sim::config::{CpuCoreParams, MemoryConfig};
use pxl_sim::json::{self, EventWords, JsonValue};
use pxl_sim::snapshot::{malformed, Snapshot, SnapshotError};
use pxl_sim::{EventQueue, Time, TraceEvent, Tracer, XorShift64};

use pxl_arch::core::{events_to_json, read_events, EmbedsCore, EngineCore, RootRun, UnitState};
use pxl_arch::deque::TaskDeque;
use pxl_arch::fabric::AccelError;
use pxl_arch::{Engine, EngineKind, RunStatus, Workload};

/// Core cycles without a task completion before the quiescence watchdog
/// declares the run stalled while work is still outstanding — the same
/// window [`pxl_arch::AccelConfig`] defaults to for the accelerators.
const WATCHDOG_QUIESCENCE_CYCLES: u64 = 1_000_000;

/// Simulated microseconds after which a run fails as
/// [`AccelError::TimedOut`], the hard backstop behind the watchdog.
const MAX_SIM_TIME_US: u64 = 2_000_000;

/// Base simulated address of the runtime's join-counter frames. Each pending
/// task's counter lives on its own cache line, so coherence traffic on joins
/// is modelled but false sharing is not.
const JOIN_FRAME_BASE: u64 = 0x4000_0000_0000;
/// Base simulated address of the per-core deque metadata (THE protocol
/// head/tail words); thieves and victims contend on these lines.
const DEQUE_META_BASE: u64 = 0x4100_0000_0000;

/// The engine-wide counters, registered on first use
/// ([`EngineCore::count`]): a single core never steals, so it reports no
/// `cpu.steal_*`.
const COUNTERS: &[&str] = &["cpu.tasks", "cpu.steal_attempts", "cpu.steal_hits"];
const TASKS: usize = 0;
const STEAL_ATTEMPTS: usize = 1;
const STEAL_HITS: usize = 2;

/// Instruction costs of the software runtime's primitives.
///
/// Derived from published Cilk-5/Cilk Plus overhead analyses: a spawn is a
/// few dozen instructions (frame setup + deque push), a successful steal
/// several hundred (locking, frame theft, resumption).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareCosts {
    /// Pop + dispatch of a local task.
    pub dispatch_instrs: u64,
    /// Spawning a child task (frame allocation + deque push).
    pub spawn_instrs: u64,
    /// Returning a value through a join counter (excluding the atomic).
    pub send_arg_instrs: u64,
    /// Creating a successor frame.
    pub successor_instrs: u64,
    /// One steal attempt (victim selection, locking, transfer).
    pub steal_attempt_instrs: u64,
    /// Idle backoff after a failed steal.
    pub steal_backoff_instrs: u64,
    /// Effective instructions per cycle for runtime bookkeeping code.
    pub runtime_ipc: f64,
}

impl Default for SoftwareCosts {
    fn default() -> Self {
        SoftwareCosts {
            dispatch_instrs: 25,
            spawn_instrs: 40,
            send_arg_instrs: 30,
            successor_instrs: 45,
            steal_attempt_instrs: 300,
            steal_backoff_instrs: 150,
            runtime_ipc: 2.0,
        }
    }
}

#[derive(Debug, Clone)]
enum Event {
    CoreWake { core: usize },
    StealTry { core: usize },
    TaskRun { core: usize, task: Task },
}

impl Event {
    /// Flat word encoding for checkpointing: a tag word followed by the
    /// variant's fields (tasks expand to [`TASK_WORDS`] words).
    fn to_words(&self) -> Vec<u64> {
        match self {
            Event::CoreWake { core } => vec![0, *core as u64],
            Event::StealTry { core } => vec![1, *core as u64],
            Event::TaskRun { core, task } => {
                let mut w = vec![2, *core as u64];
                w.extend(task.to_words());
                w
            }
        }
    }

    /// Inverse of [`Event::to_words`]; every event must name one of
    /// `cores` cores.
    fn from_words(body: &mut EventWords, cores: usize) -> Result<Event, String> {
        let tag = body.tag();
        let core = body.index(cores, "unit")?;
        Ok(match tag {
            0 => Event::CoreWake { core },
            1 => Event::StealTry { core },
            2 => Event::TaskRun {
                core,
                task: Task::from_words(body.take(TASK_WORDS)?)?,
            },
            tag => return Err(format!("unknown cpu event tag {tag}")),
        })
    }
}

/// The multicore software-runtime simulator.
///
/// # Examples
///
/// ```
/// use pxl_arch::{Engine, Workload};
/// use pxl_cpu::CpuEngine;
/// use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};
///
/// const FIB: TaskTypeId = TaskTypeId(0);
/// const SUM: TaskTypeId = TaskTypeId(1);
/// struct Fib;
/// impl Worker for Fib {
///     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
///         let k = task.k;
///         if task.ty == FIB {
///             let n = task.args[0];
///             ctx.compute(2);
///             if n < 2 {
///                 ctx.send_arg(k, n);
///             } else {
///                 let kk = ctx.make_successor(SUM, k, 2);
///                 ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
///                 ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
///             }
///         } else {
///             ctx.send_arg(k, task.args[0] + task.args[1]);
///         }
///     }
/// }
///
/// let mut cpu = CpuEngine::new(4, ExecProfile::scalar());
/// let root = Task::new(FIB, Continuation::host(0), &[12]);
/// let out = cpu.run(Workload::dynamic(&mut Fib, root)).unwrap();
/// assert_eq!(out.result, 144);
/// ```
#[derive(Debug)]
pub struct CpuEngine {
    cores: usize,
    core_params: CpuCoreParams,
    costs: SoftwareCosts,
    profile: ExecProfile,
    /// Memory, metrics, trace, watchdog, telemetry (ticked at event-pop
    /// epoch boundaries), task ids and host slots.
    core: EngineCore,
    root: RootRun,
    memsys: MemorySystem,
    deques: Vec<TaskDeque>,
    rngs: Vec<XorShift64>,
    units: UnitState,
    /// Join frames; an entry number names the frame's counter line at
    /// [`JOIN_FRAME_BASE`].
    pending: PendingTable,
    events: EventQueue<Event>,
    /// Reusable buffer for the tasks a task's joins make ready, recycled
    /// across task executions so a join costs no allocation.
    scratch_ready: Vec<Task>,
}

impl CpuEngine {
    /// Creates an engine with `cores` Table III cores and default software
    /// costs.
    pub fn new(cores: usize, profile: ExecProfile) -> Self {
        CpuEngine::with_params(
            cores,
            profile,
            CpuCoreParams::micro2018(),
            MemoryConfig::micro2018(),
            SoftwareCosts::default(),
        )
    }

    /// Creates the Zedboard prototype's software baseline: `cores`
    /// Cortex-A9 cores over the Zynq processing system's memory, running
    /// `profile`'s benchmark. The A9's narrow NEON and shallow OOO window
    /// retire kernel code at roughly 60% of the big core's per-clock rate,
    /// and its 32-bit Cilk runtime code is less dense than the 4-issue
    /// core's.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn zedboard(cores: usize, profile: ExecProfile) -> Self {
        let a9_profile =
            ExecProfile::new(profile.accel_ops_per_cycle, profile.cpu_ops_per_cycle * 0.6);
        let a9_costs = SoftwareCosts {
            runtime_ipc: 1.2,
            steal_attempt_instrs: 400,
            ..SoftwareCosts::default()
        };
        CpuEngine::with_params(
            cores,
            a9_profile,
            zedboard_cpu_core(),
            zedboard_cpu_memory(),
            a9_costs,
        )
    }

    /// Creates an engine with explicit core, memory and runtime parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_params(
        cores: usize,
        profile: ExecProfile,
        core_params: CpuCoreParams,
        memory: MemoryConfig,
        costs: SoftwareCosts,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        let memsys = MemorySystem::new(vec![memory.cpu_l1.clone(); cores], &memory);
        CpuEngine {
            cores,
            core: EngineCore::new(
                &core_params.clock,
                MAX_SIM_TIME_US,
                WATCHDOG_QUIESCENCE_CYCLES,
                0,
                0,
            )
            .with_lazy_counters(COUNTERS, "core", cores),
            root: RootRun::default(),
            core_params,
            costs,
            profile,
            memsys,
            deques: (0..cores).map(|_| TaskDeque::new(1 << 20)).collect(),
            rngs: (0..cores)
                .map(|i| XorShift64::new(0xC0FE + 77 * i as u64))
                .collect(),
            units: UnitState::new(cores),
            pending: PendingTable::new(),
            events: EventQueue::new(),
            scratch_ready: Vec::new(),
        }
    }

    /// Enables structured event tracing (runtime + memory hierarchy) with a
    /// bounded buffer of `capacity` records per source; zero disables.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.core.trace = Tracer::bounded(capacity);
        self.memsys.enable_trace(capacity);
    }

    /// Enables in-run telemetry sampling every `every_cycles` core cycles;
    /// zero disables it. Configure before launching (or restoring) a run.
    pub fn set_telemetry_every(&mut self, every_cycles: u64) {
        self.core
            .set_telemetry_every(&self.core_params.clock, every_cycles);
    }

    fn runtime_cycles(&self, instrs: u64) -> Time {
        let cycles = (instrs as f64 / self.costs.runtime_ipc).ceil() as u64;
        self.core_params.clock.cycles_to_time(cycles)
    }

    fn handle(&mut self, now: Time, event: Event, worker: &mut dyn Worker) {
        match event {
            Event::CoreWake { core } => self.core_wake(now, core, worker),
            Event::StealTry { core } => self.steal_try(now, core, worker),
            Event::TaskRun { core, task } => {
                if self.units.is_busy(core, now) {
                    self.deques[core]
                        .push_tail(task, now)
                        .expect("software deque is unbounded");
                } else {
                    self.execute_task(now, core, task, worker);
                }
            }
        }
    }

    fn core_wake(&mut self, now: Time, core: usize, worker: &mut dyn Worker) {
        if self.units.is_busy(core, now) {
            return;
        }
        let t = now + self.runtime_cycles(self.costs.dispatch_instrs);
        if let Some(task) = self.deques[core].pop_tail(t) {
            self.units.steal_fails[core] = 0;
            self.execute_task(t, core, task, worker);
        } else if self.cores > 1 {
            self.events.push(
                now + self.runtime_cycles(self.costs.steal_attempt_instrs),
                Event::StealTry { core },
            );
            self.core.count(STEAL_ATTEMPTS, 1);
        }
        // A single core with an empty deque parks; outstanding bookkeeping
        // wakes it via TaskRun events.
    }

    fn steal_try(&mut self, now: Time, core: usize, worker: &mut dyn Worker) {
        if self.units.is_busy(core, now) {
            return;
        }
        // Random victim among the other cores; the THE protocol's locking
        // shows up as an atomic on the victim's deque metadata line.
        let mut victim = self.rngs[core].next_in_range(self.cores as u64 - 1) as usize;
        if victim >= core {
            victim += 1;
        }
        self.core.trace.emit(
            now,
            TraceEvent::StealRequest {
                thief: core as u32,
                victim: victim as u32,
            },
        );
        let t = self.memsys.access(
            PortId(core),
            DEQUE_META_BASE + 64 * victim as u64,
            AccessKind::Amo,
            now,
        );
        match self.deques[victim].steal_head(t) {
            Some(task) => {
                self.core.count(STEAL_HITS, 1);
                self.core.trace.emit(
                    t,
                    TraceEvent::StealGrant {
                        thief: core as u32,
                        victim: victim as u32,
                    },
                );
                self.units.steal_fails[core] = 0;
                self.execute_task(t, core, task, worker);
            }
            None => {
                self.core.trace.emit(
                    t,
                    TraceEvent::StealFail {
                        thief: core as u32,
                        victim: victim as u32,
                    },
                );
                let fails = self.units.failed_steal(core);
                let backoff = self.costs.steal_backoff_instrs << fails;
                self.events
                    .push(t + self.runtime_cycles(backoff), Event::CoreWake { core });
            }
        }
    }

    fn execute_task(&mut self, start: Time, core: usize, task: Task, worker: &mut dyn Worker) {
        self.core.trace.emit(
            start,
            TraceEvent::TaskDispatch {
                unit: core as u32,
                ty: task.ty.0,
                task: task.id,
            },
        );
        let mut deque = std::mem::replace(&mut self.deques[core], TaskDeque::new(0));
        let ready = std::mem::take(&mut self.scratch_ready);
        let mut ctx = CpuCtx {
            now: start,
            core,
            cur_task: task.id,
            engine: self,
            deque: &mut deque,
            ready,
            spawned: 0,
        };
        worker.execute(&task, &mut ctx);
        let end = ctx.now;
        let mut ready = std::mem::take(&mut ctx.ready);
        let spawned = ctx.spawned;
        self.deques[core] = deque;
        self.root.outstanding += spawned + ready.len() as u64;
        self.core.count(TASKS, 1);
        self.core.count_task(core, (end - start).as_ps());
        self.core.trace.emit(
            end,
            TraceEvent::TaskComplete {
                unit: core as u32,
                ty: task.ty.0,
                busy_ps: (end - start).as_ps(),
                task: task.id,
            },
        );
        // Greedy continuation: tasks made ready by this core run on this
        // core next (they were pushed LIFO inside the context); nothing else
        // to do beyond waking up.
        for task in ready.drain(..) {
            self.deques[core]
                .push_tail(task, end)
                .expect("software deque is unbounded");
        }
        self.scratch_ready = ready;
        self.root.last_useful = self.root.last_useful.max(end);
        self.core.watchdog.progress(end, core);
        self.root.outstanding -= 1;
        self.units.busy_until[core] = end;
        self.events.push(end, Event::CoreWake { core });
    }
}

/// Per-task execution context on one core.
struct CpuCtx<'e> {
    now: Time,
    core: usize,
    /// Instance id of the task this context executes (the `parent` of its
    /// spawns and the `from` of its argument sends).
    cur_task: u64,
    engine: &'e mut CpuEngine,
    deque: &'e mut TaskDeque,
    /// Tasks whose joins completed during this task's execution.
    ready: Vec<Task>,
    spawned: u64,
}

impl CpuCtx<'_> {
    /// Charge a memory access, hiding `mem_overlap` of the miss penalty
    /// behind the out-of-order window.
    fn mem_access(&mut self, addr: u64, kind: AccessKind) {
        // L1 hits are fully pipelined; only the portion beyond the hit
        // latency can be (partially) hidden by the OOO window.
        let hit = self.engine.core_params.clock.period();
        let full = self
            .engine
            .memsys
            .access(PortId(self.core), addr, kind, self.now);
        let raw = full - self.now;
        let exposed = if raw > hit {
            let extra = raw - hit;
            let hidden = (extra.as_ps() as f64 * self.engine.core_params.mem_overlap) as u64;
            raw - Time::from_ps(hidden)
        } else {
            raw
        };
        self.now += exposed;
    }

    /// A DMA burst: the CPU has no DMA engine, so it is a software loop
    /// touching every line of `addr..addr + bytes`.
    fn stream(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        if bytes == 0 {
            return;
        }
        let line = self.engine.memsys.line_bytes() as u64;
        let last = (addr + bytes - 1) & !(line - 1);
        let mut a = addr & !(line - 1);
        loop {
            self.mem_access(a, kind);
            if a == last {
                break;
            }
            a += line;
        }
    }
}

impl TaskContext for CpuCtx<'_> {
    fn spawn(&mut self, task: Task) {
        self.now += self.engine.runtime_cycles(self.engine.costs.spawn_instrs);
        let task = task.with_id(self.engine.core.alloc_task_id());
        self.engine.core.trace.emit(
            self.now,
            TraceEvent::Spawn {
                unit: self.core as u32,
                ty: task.ty.0,
                parent: self.cur_task,
                child: task.id,
            },
        );
        self.spawned += 1;
        self.deque
            .push_tail(task, self.now)
            .expect("software deque is unbounded");
    }

    fn send_arg(&mut self, k: Continuation, value: u64) {
        self.now += self
            .engine
            .runtime_cycles(self.engine.costs.send_arg_instrs);
        match k {
            Continuation::Host { slot } => {
                self.engine.core.host[slot as usize] = Some(value);
            }
            Continuation::PStore { entry, slot, .. } => {
                // Atomic decrement of the join counter in shared memory.
                self.mem_access(JOIN_FRAME_BASE + 64 * entry as u64, AccessKind::Amo);
                let join_target = self.engine.pending.id(entry).unwrap_or(0);
                self.engine.core.trace.emit(
                    self.now,
                    TraceEvent::PStoreJoin {
                        tile: 0,
                        slot,
                        task: join_target,
                        from: self.cur_task,
                    },
                );
                let ready = self.engine.pending.fill(entry, slot, value);
                if let Some(task) = ready.expect("argument sent to a freed runtime frame") {
                    self.ready.push(task);
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
        self.now += self
            .engine
            .runtime_cycles(self.engine.costs.successor_instrs);
        let id = self.engine.core.alloc_task_id();
        let mut pending = PendingTask::new(ty, k, join).with_id(id);
        for &(slot, value) in preset {
            pending = pending.preset(slot, value);
        }
        let entry = self.engine.pending.alloc(pending);
        // Initialize the frame's join-counter line.
        self.mem_access(JOIN_FRAME_BASE + 64 * entry as u64, AccessKind::Write);
        Continuation::pstore(0, entry, 0)
    }

    fn compute(&mut self, ops: u64) {
        let cycles = self.engine.profile.cpu_cycles(ops);
        self.now += self.engine.core_params.clock.cycles_to_time(cycles);
    }

    fn load(&mut self, addr: u64, _bytes: u32) {
        self.mem_access(addr, AccessKind::Read);
    }

    fn store(&mut self, addr: u64, _bytes: u32) {
        self.mem_access(addr, AccessKind::Write);
    }

    fn amo(&mut self, addr: u64) {
        self.mem_access(addr, AccessKind::Amo);
    }

    fn dma_read(&mut self, addr: u64, bytes: u64) {
        self.stream(addr, bytes, AccessKind::Read);
    }

    fn dma_write(&mut self, addr: u64, bytes: u64) {
        self.stream(addr, bytes, AccessKind::Write);
    }

    fn mem(&mut self) -> &mut Memory {
        &mut self.engine.core.mem
    }
}

impl EmbedsCore for CpuEngine {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    /// Pending events, ready tasks across the deques and pending joins: the
    /// software runtime's equivalents of the fabric's queue-depth gauges.
    fn gauges(&self, _now: Time) -> Vec<(&'static str, u64)> {
        let ready: usize = self.deques.iter().map(TaskDeque::len).sum();
        vec![
            ("events", self.events.len() as u64),
            ("ready_tasks", ready as u64),
            ("pending_joins", self.pending.live() as u64),
        ]
    }

    /// The first core whose deque still holds work.
    fn blocked_unit(&self) -> Option<usize> {
        (0..self.cores).find(|&c| !self.deques[c].is_empty())
    }
}

impl Engine for CpuEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Cpu
    }

    fn units(&self) -> usize {
        self.cores
    }

    fn clock(&self) -> pxl_sim::Clock {
        self.core_params.clock.clone()
    }

    /// Runs `root` on core 0 (the thread that called the Cilk spawn
    /// root); other cores join by stealing. Queue/P-Store overflow cannot
    /// occur (software stores are heap-backed) but leaks and timeouts are
    /// detected.
    fn advance(
        &mut self,
        workload: Workload<'_>,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError> {
        let Workload::Dynamic { worker, root } = workload else {
            return Err(AccelError::Unsupported(format!(
                "the CPU baseline runs dynamic task graphs, not {}",
                workload.shape()
            )));
        };
        // Seeds `root` on core 0 and wakes the other cores, unless the
        // engine is already launched (notably after a restore).
        if let Some(root) = self.root.launch(&mut self.core, root) {
            self.events.push(
                Time::ZERO,
                Event::TaskRun {
                    core: 0,
                    task: root,
                },
            );
            for core in 1..self.cores {
                self.events.push(Time::ZERO, Event::CoreWake { core });
            }
        }
        loop {
            if let Some(pause) = pause_at {
                // Pause only between events and only while work remains; a
                // drained computation always runs to its finished result.
                if self.root.outstanding > 0 {
                    match self.events.peek_time() {
                        Some(next) if next > pause => return Ok(RunStatus::Paused { at: pause }),
                        _ => {}
                    }
                }
            }
            let Some((now, event)) = self.events.pop() else {
                break;
            };
            if self.root.outstanding == 0 {
                break;
            }
            self.check_step(now)?;
            self.handle(now, event, worker);
        }

        let leaked = self.pending.live();
        if leaked > 0 {
            return Err(AccelError::LeakedPending { count: leaked });
        }
        let result = self.root.result(&self.core)?;
        let elapsed = self.root.last_useful;
        Ok(RunStatus::Finished(self.finish_run(
            result,
            elapsed,
            |engine| {
                let queue_peak: usize = engine.deques.iter().map(TaskDeque::peak).sum();
                let metrics = &mut engine.core.metrics;
                metrics.add("cpu.queue_peak_sum", queue_peak as u64);
                metrics.merge(&engine.memsys.take_stats());
                engine.memsys.take_trace()
            },
        )))
    }

    fn snapshot(&self) -> Snapshot {
        let mut head = self.root.fields(&self.core);
        head.extend([
            (
                "deques",
                JsonValue::Array(
                    self.deques
                        .iter()
                        .map(TaskDeque::state_to_json_value)
                        .collect(),
                ),
            ),
            (
                "rngs",
                json::arr_u64(self.rngs.iter().map(XorShift64::state)),
            ),
        ]);
        head.extend(self.units.fields());
        head.extend([
            ("pending", self.pending.cells_to_json()),
            ("pending_free", self.pending.free_to_json()),
            ("host", self.core.host_cells()),
            ("events", events_to_json(&self.events, Event::to_words)),
        ]);
        let memsys = ("memsys", self.memsys.state_to_json_value());
        self.core.snapshot("cpu", head, memsys, Vec::new())
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        snap.expect_engine("cpu")?;
        let p = &snap.payload;
        self.root = RootRun::read(p)?;

        let deques = json::get_arr_n(p, "deques", self.cores)?;
        let rngs: Vec<u64> = json::get_words_n(p, "rngs", self.cores)?;
        for (deque, state) in self.deques.iter_mut().zip(deques) {
            deque.restore_state(state).map_err(malformed)?;
        }
        // XorShift64 state is never zero, so new(state) restores it exactly.
        self.rngs = rngs.iter().map(|s| XorShift64::new(*s)).collect();
        self.units.read(p)?;

        self.pending = PendingTable::read(p, "pending", "pending_free").map_err(malformed)?;

        self.core.read_host_cells(p)?;
        let cores = self.cores;
        read_events(p, &mut self.events, |body| Event::from_words(body, cores))?;
        self.core.restore(p, |_| {})?;
        self.memsys
            .restore_state(json::get(p, "memsys")?)
            .map_err(malformed)
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

    fn run_fib(cores: usize, n: u64) -> pxl_arch::AccelResult {
        let mut cpu = CpuEngine::new(cores, ExecProfile::scalar());
        cpu.run(Workload::dynamic(
            &mut FibWorker,
            Task::new(FIB, Continuation::host(0), &[n]),
        ))
        .expect("fib must complete")
    }

    #[test]
    fn one_core_computes_fib() {
        let out = run_fib(1, 14);
        assert_eq!(out.result, fib(14));
        assert!(out.metrics.get("cpu.tasks") > 100);
    }

    #[test]
    fn multicore_scales_and_matches() {
        let n = 16;
        let t1 = run_fib(1, n);
        let t4 = run_fib(4, n);
        assert_eq!(t4.result, fib(n));
        assert!(
            t4.elapsed < t1.elapsed,
            "4 cores ({}) must beat 1 core ({})",
            t4.elapsed,
            t1.elapsed
        );
        assert!(t4.metrics.get("cpu.steal_hits") > 0);
    }

    #[test]
    fn deterministic() {
        let a = run_fib(4, 14);
        let b = run_fib(4, 14);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let n = 15;
        let root = || Task::new(FIB, Continuation::host(0), &[n]);
        let mk = || {
            let mut cpu = CpuEngine::new(4, ExecProfile::scalar());
            cpu.set_trace_capacity(4096);
            cpu
        };
        let reference = {
            let mut cpu = mk();
            cpu.run(Workload::dynamic(&mut FibWorker, root()))
                .expect("reference run")
        };
        let pause = Time::from_ps(reference.elapsed.as_ps() / 2);

        let mut paused = mk();
        match paused
            .run_until(Workload::dynamic(&mut FibWorker, root()), Some(pause))
            .unwrap()
        {
            RunStatus::Paused { at } => assert_eq!(at, pause),
            RunStatus::Finished(_) => panic!("fib must still be in flight at {pause}"),
        }
        let blob = paused.snapshot().to_json();
        let snap = Snapshot::from_json(&blob).expect("snapshot survives its wire format");
        let mut restored = mk();
        restored
            .restore(&snap)
            .expect("restore into a fresh engine");

        let finish = |cpu: &mut CpuEngine| match cpu
            .run_until(Workload::dynamic(&mut FibWorker, root()), None)
        {
            Ok(RunStatus::Finished(out)) => out,
            other => panic!("resumed leg: {other:?}"),
        };
        let a = finish(&mut paused);
        let b = finish(&mut restored);
        for (label, out) in [("paused", &a), ("restored", &b)] {
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
        }

        // A core-count mismatch is rejected rather than silently resumed.
        let mut narrow = CpuEngine::new(2, ExecProfile::scalar());
        let err = narrow.restore(&snap).expect_err("core mismatch");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err}");
    }

    #[test]
    fn restore_refuses_stray_words_instead_of_skipping_them() {
        let mut cpu = CpuEngine::new(2, ExecProfile::scalar());
        let root = Task::new(FIB, Continuation::host(0), &[12]);
        let _ = cpu
            .run_until(
                Workload::dynamic(&mut FibWorker, root),
                Some(Time::from_ns(2_000)),
            )
            .unwrap();
        let text = cpu.snapshot().payload.to_json();
        for needle in ["\"events\":[[", "\"pending\":[["] {
            assert!(text.contains(needle), "{needle} missing from the snapshot");
            let tampered = text.replacen(needle, &format!("{needle}\"x\","), 1);
            let snap = Snapshot::new("cpu", JsonValue::parse(&tampered).unwrap());
            let mut fresh = CpuEngine::new(2, ExecProfile::scalar());
            let err = fresh.restore(&snap).expect_err(needle);
            assert!(
                matches!(&err, SnapshotError::Malformed(m) if m.contains("non-u64")),
                "{needle}: {err}"
            );
        }
    }

    #[test]
    fn software_spawn_is_much_slower_than_hardware() {
        // The same fib on a 1-PE accelerator vs one CPU core: the CPU core
        // at 1 GHz with identical ExecProfile must still pay far more time
        // per task because runtime primitives cost tens of instructions.
        let cpu = run_fib(1, 12);
        let cpu_ns_per_task = cpu.elapsed.as_ns_f64() / cpu.metrics.get("cpu.tasks") as f64;
        let mut accel =
            pxl_arch::FlexEngine::new(pxl_arch::AccelConfig::flex(1, 1), ExecProfile::scalar());
        let out = accel
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[12]),
            ))
            .unwrap();
        let accel_ns_per_task = out.elapsed.as_ns_f64() / out.metrics.get("accel.tasks") as f64;
        // At 1/5 the clock rate, the accelerator should still be competitive
        // per task thanks to cheap task management.
        assert!(
            cpu_ns_per_task > accel_ns_per_task * 0.5,
            "cpu {cpu_ns_per_task:.1} ns/task vs accel {accel_ns_per_task:.1} ns/task"
        );
    }

    struct LeakyWorker;
    impl Worker for LeakyWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let _ = ctx.make_successor(SUM, task.k, 2);
        }
    }

    #[test]
    fn zedboard_a9_configuration_runs_and_is_slower() {
        let root = Task::new(FIB, Continuation::host(0), &[14]);
        let big = run_fib(2, 14);
        let mut a9 = CpuEngine::zedboard(2, ExecProfile::scalar());
        let out = a9.run(Workload::dynamic(&mut FibWorker, root)).unwrap();
        assert_eq!(out.result, fib(14));
        assert!(
            out.elapsed > big.elapsed,
            "667 MHz dual-issue A9s ({}) must trail the 1 GHz four-issue cores ({})",
            out.elapsed,
            big.elapsed
        );
    }

    #[test]
    fn lower_runtime_ipc_slows_the_runtime() {
        let run = |ipc: f64| {
            let mut cpu = CpuEngine::with_params(
                2,
                ExecProfile::scalar(),
                pxl_sim::config::CpuCoreParams::micro2018(),
                pxl_sim::config::MemoryConfig::micro2018(),
                SoftwareCosts {
                    runtime_ipc: ipc,
                    ..SoftwareCosts::default()
                },
            );
            cpu.run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[14]),
            ))
            .unwrap()
            .elapsed
        };
        assert!(run(1.0) > run(3.0), "denser runtime code must be faster");
    }

    #[test]
    fn single_core_never_steals() {
        let out = run_fib(1, 12);
        assert_eq!(out.metrics.get("cpu.steal_attempts"), 0);
        assert_eq!(out.metrics.get("cpu.steal_hits"), 0);
    }

    #[test]
    fn leaks_are_detected() {
        let mut cpu = CpuEngine::new(2, ExecProfile::scalar());
        let err = cpu
            .run(Workload::dynamic(
                &mut LeakyWorker,
                Task::new(FIB, Continuation::host(0), &[]),
            ))
            .unwrap_err();
        assert_eq!(err, AccelError::LeakedPending { count: 1 });
    }

    #[test]
    fn memory_flows_through_cpu_l1() {
        struct MemWorker;
        impl Worker for MemWorker {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let mut sum = 0u64;
                for i in 0..64u64 {
                    sum += ctx.read_u32(0x2000 + 4 * i) as u64;
                }
                ctx.send_arg(task.k, sum);
            }
        }
        let mut cpu = CpuEngine::new(1, ExecProfile::scalar());
        for i in 0..64u64 {
            cpu.mem_mut().write_u32(0x2000 + 4 * i, 2 * i as u32);
        }
        let out = cpu
            .run(Workload::dynamic(
                &mut MemWorker,
                Task::new(FIB, Continuation::host(0), &[]),
            ))
            .unwrap();
        assert_eq!(out.result, (0..64).map(|i| 2 * i).sum::<u64>());
        assert!(out.metrics.get("mem.l1_hits") > 0);
    }
}
