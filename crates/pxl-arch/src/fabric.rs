//! The shared execution fabric: everything about the accelerator that does
//! *not* depend on how ready tasks are distributed.
//!
//! [`FabricEngine`] is a cycle-level, event-driven simulator of the paper's
//! Fig. 3(b) tile microarchitecture — the memory backend, P-Store joins and
//! greedy routing, the fault state machine and its recovery invariants,
//! metric-handle registration, trace emission, and the PE-side
//! [`TaskContext`], on top of the [`EngineCore`] services — parameterized
//! by a [`SchedulingPolicy`] that owns only task placement and acquisition:
//!
//! * [`FlexEngine`] = `FabricEngine<FlexPolicy>`: per-PE LIFO deques with
//!   LFSR-victim work stealing (the published FlexArch).
//! * [`CentralEngine`] = `FabricEngine<CentralPolicy>`: one global ready
//!   queue with per-access contention — the centralized strawman that
//!   distributed hardware stealing replaces.
//!
//! The fabric drives the policy at four points: it seeds the root task,
//! wakes idle PEs to pop local work, routes acquire requests to the
//! policy's chosen victim, and lets the victim's policy serve the request
//! (possibly stretching service time to model queue-port contention).
//! Everything else — dispatch costs, crossbar hops, fault injection and
//! recovery, the watchdog — is identical across policies, which is what
//! makes the Flex-vs-central ablation an apples-to-apples comparison.
//!
//! Simulation is event-driven over the global picosecond timebase. A
//! dispatched task executes *functionally* against shared memory while its
//! port operations advance a local timestamp through the memory hierarchy
//! and the TMU cost model; spawned tasks enter the policy's storage with
//! their spawn-time visibility, so a thief whose request arrives earlier
//! cannot see them.

use pxl_mem::zedboard::AcpParams;
use pxl_mem::{AccessKind, Memory, MemorySystem, PortId, ZedboardMemory};
use pxl_model::serial::HOST_SLOTS;
use pxl_model::{
    Continuation, ExecProfile, PendingTask, Task, TaskContext, TaskTypeId, Worker, TASK_WORDS,
};
use pxl_sim::json::{self, JsonValue};
use pxl_sim::snapshot::{malformed, Snapshot, SnapshotError};
use pxl_sim::{
    Clock, CounterId, EventQueue, EventSlab, FaultKind, FaultPlan, FaultScheduler, HistogramId,
    Metrics, NetClass, SendVerdict, Time, Timeline, TraceEvent, Tracer,
};

use crate::api::{Engine, EngineKind, Workload};
use crate::config::{AccelConfig, LinkTopology, MemBackendKind};
use crate::core::{events_to_json, read_events, EmbedsCore, EngineCore, RootRun, UnitState};
use crate::policy::{CentralPolicy, FlexPolicy, HierPolicy, SchedulingPolicy};
use crate::pstore::{PStore, PStoreError};

/// How many times a dropped network message is retransmitted before the
/// sender gives up and the loss becomes [`TraceEvent::FaultUnrecovered`]
/// (the quiescence watchdog then flags the resulting stall).
const MAX_SEND_RETRIES: u8 = 8;

/// Errors an accelerator simulation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// A PE's task queue overflowed; the configuration violates the space
    /// bound for this workload.
    QueueFull {
        /// The PE whose queue overflowed.
        pe: usize,
    },
    /// Every tile's P-Store was full when a worker created a successor.
    PStoreFull {
        /// The tile that first rejected the allocation.
        tile: usize,
    },
    /// Execution drained but pending tasks never became ready.
    LeakedPending {
        /// Pending tasks stranded across all P-Stores.
        count: usize,
    },
    /// The root continuation's host register was never written.
    NoResult {
        /// Expected host result slot.
        slot: u8,
    },
    /// Simulated time exceeded the configured safety limit. This is the hard
    /// backstop behind the quiescence watchdog ([`AccelError::Stalled`]),
    /// which normally fires much earlier and with better diagnostics.
    TimedOut,
    /// The quiescence watchdog saw no forward progress for longer than
    /// [`AccelConfig::watchdog_quiescence_cycles`] while work was still
    /// outstanding: the computation is deadlocked or livelocked.
    Stalled {
        /// The unit that last made forward progress (completed a task or
        /// delivered an argument), if any unit ever did.
        last_unit: Option<usize>,
        /// How long (simulated microseconds) the fabric had been quiescent
        /// when the watchdog fired.
        idle_us: u64,
        /// A unit still holding undispatchable work, if one exists
        /// (`num_pes` denotes the host interface block).
        blocked_unit: Option<usize>,
    },
    /// A P-Store protocol violation: filling a freed entry, addressing a
    /// nonexistent entry or slot, or a malformed allocation — either a model
    /// bug or the effect of injected state corruption.
    PStoreCorrupt {
        /// The tile whose P-Store rejected the operation.
        tile: usize,
        /// The underlying P-Store error.
        source: PStoreError,
    },
    /// The configuration failed [`AccelConfig::validate`] or names the wrong
    /// architecture for this engine.
    InvalidConfig(String),
    /// The configuration is invalid or the operation is unsupported by the
    /// selected architecture (e.g. spawning on LiteArch).
    Unsupported(String),
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::QueueFull { pe } => write!(f, "task queue of PE {pe} overflowed"),
            AccelError::PStoreFull { tile } => {
                write!(f, "all P-Stores full (first rejected by tile {tile})")
            }
            AccelError::LeakedPending { count } => {
                write!(f, "computation leaked {count} pending task(s)")
            }
            AccelError::NoResult { slot } => write!(f, "no result in host slot {slot}"),
            AccelError::TimedOut => write!(f, "simulation exceeded its time limit"),
            AccelError::Stalled {
                last_unit,
                idle_us,
                blocked_unit,
            } => {
                write!(f, "watchdog: no forward progress for {idle_us} us")?;
                match last_unit {
                    Some(u) => write!(f, "; unit {u} made the last progress")?,
                    None => write!(f, "; no unit ever made progress")?,
                }
                if let Some(b) = blocked_unit {
                    write!(f, "; unit {b} still holds undispatched work")?;
                }
                Ok(())
            }
            AccelError::PStoreCorrupt { tile, source } => {
                write!(f, "P-Store protocol violation on tile {tile}: {source}")
            }
            AccelError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            AccelError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for AccelError {}

/// Outcome of a completed accelerator run.
#[derive(Debug, Clone)]
pub struct AccelResult {
    /// Value delivered to the root continuation's host slot.
    pub result: u64,
    /// Simulated time from launch to the last useful event.
    pub elapsed: Time,
    /// Aggregated typed metrics (engine + memory system).
    pub metrics: Metrics,
    /// Structured event trace (empty unless tracing was enabled in the
    /// configuration).
    pub trace: Tracer,
    /// In-run telemetry timeline (empty unless `telemetry_every_cycles`
    /// was set in the configuration).
    pub timeline: Timeline,
}

/// The memory path behind the PEs (coherent SoC caches or Zedboard stream
/// buffers).
#[derive(Debug)]
pub(crate) enum MemBackend {
    Coherent(Box<MemorySystem>),
    Zedboard(Box<ZedboardMemory>),
}

impl MemBackend {
    pub(crate) fn for_config(cfg: &AccelConfig) -> Self {
        let mut backend = match cfg.mem_backend {
            MemBackendKind::Coherent => MemBackend::Coherent(Box::new(MemorySystem::new(
                vec![cfg.memory.accel_l1.clone(); cfg.tiles],
                &cfg.memory,
            ))),
            MemBackendKind::Zedboard => MemBackend::Zedboard(Box::new(ZedboardMemory::new(
                cfg.num_pes(),
                AcpParams::default(),
            ))),
        };
        if cfg.trace_capacity > 0 {
            backend.enable_trace(cfg.trace_capacity);
        }
        backend
    }

    pub(crate) fn enable_trace(&mut self, capacity: usize) {
        match self {
            MemBackend::Coherent(m) => m.enable_trace(capacity),
            MemBackend::Zedboard(m) => m.enable_trace(capacity),
        }
    }

    pub(crate) fn take_trace(&mut self) -> Tracer {
        match self {
            MemBackend::Coherent(m) => m.take_trace(),
            MemBackend::Zedboard(m) => m.take_trace(),
        }
    }

    /// Memory port used by PE `pe`: the tile L1 for the coherent system, a
    /// per-PE stream-buffer group on the Zedboard.
    pub(crate) fn port_of(&self, cfg: &AccelConfig, pe: usize) -> usize {
        match self {
            MemBackend::Coherent(_) => cfg.tile_of_pe(pe),
            MemBackend::Zedboard(_) => pe,
        }
    }

    pub(crate) fn access(&mut self, port: usize, addr: u64, kind: AccessKind, now: Time) -> Time {
        match self {
            MemBackend::Coherent(m) => m.access(PortId(port), addr, kind, now),
            MemBackend::Zedboard(m) => m.access(port, addr, kind, now),
        }
    }

    pub(crate) fn access_bytes(
        &mut self,
        port: usize,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        now: Time,
    ) -> Time {
        match self {
            MemBackend::Coherent(m) => m.access_bytes(PortId(port), addr, bytes, kind, now),
            MemBackend::Zedboard(m) => m.access_bytes(port, addr, bytes, kind, now),
        }
    }

    pub(crate) fn take_stats(&mut self) -> Metrics {
        match self {
            MemBackend::Coherent(m) => m.take_stats(),
            MemBackend::Zedboard(m) => m.take_stats(),
        }
    }

    /// Serializes the backend's mutable state for engine snapshots, tagged
    /// with the backend kind so a restore into the wrong memory path fails
    /// loudly.
    pub(crate) fn state_to_json_value(&self) -> JsonValue {
        let (kind, state) = match self {
            MemBackend::Coherent(m) => ("coherent", m.state_to_json_value()),
            MemBackend::Zedboard(m) => ("zedboard", m.state_to_json_value()),
        };
        json::obj(vec![
            ("kind", JsonValue::Str(kind.to_owned())),
            ("state", state),
        ])
    }

    /// Restores state captured by [`MemBackend::state_to_json_value`].
    pub(crate) fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        let kind = json::get_str(value, "kind")?;
        let state = json::get(value, "state")?;
        match (self, kind) {
            (MemBackend::Coherent(m), "coherent") => m.restore_state(state),
            (MemBackend::Zedboard(m), "zedboard") => m.restore_state(state),
            (_, k) => Err(format!("memory backend mismatch: snapshot holds {k:?}")),
        }
    }
}

/// A scheduled fabric event. Task payloads live in the engine's task slab
/// ([`FabricEngine::task_slab`]); the variants carry only `u32` slots, so
/// every event is a few words and heap churn in the queue never copies a
/// task body. A slot is claimed exactly once — at the push that created it
/// — and released exactly once, by `handle()` at pop.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// PE finished its previous activity; look for work.
    PeWake { pe: usize },
    /// A steal request reaches the victim's TMU (victim == num_pes means the
    /// host interface block).
    StealArrive { thief: usize, victim: usize },
    /// The steal response reaches the thief; the granted task (if any)
    /// lives in the task slab.
    StealReply { thief: usize, task: Option<u32> },
    /// An argument message reaches its destination P-Store or host register.
    /// `dup_of` marks an injected duplicate copy (the spec that duplicated
    /// it); the receiver discards it, modelling sequence-number dedup.
    ArgArrive {
        k: Continuation,
        value: u64,
        from_pe: usize,
        from_task: u64,
        dup_of: Option<usize>,
    },
    /// A ready task (greedy-routed) reaches a PE. `dup_of` as on
    /// [`Event::ArgArrive`].
    TaskRun {
        pe: usize,
        task: u32,
        dup_of: Option<usize>,
    },
    /// A planned one-shot fault (PE death, PE stall, P-Store corruption)
    /// fires.
    FaultFire { spec: usize },
    /// A dropped argument message is retransmitted after backoff.
    ArgResend {
        k: Continuation,
        value: u64,
        from_pe: usize,
        from_task: u64,
        attempt: u8,
        spec: usize,
    },
    /// A dropped ready-task message is retransmitted after backoff.
    TaskResend {
        pe: usize,
        task: u32,
        attempt: u8,
        spec: usize,
    },
}

impl Event {
    /// Flat word encoding for snapshots: a tag word, then the variant's
    /// fields. Tasks are resolved through `slab` and flatten inline via
    /// [`Task::to_words`], so the wire format is identical to the old
    /// by-value event layout; `Option` indices encode as the value plus
    /// one, with zero meaning `None`.
    fn to_words(self, slab: &EventSlab<Task>) -> Vec<u64> {
        let opt = |o: Option<usize>| o.map_or(0, |s| s as u64 + 1);
        match self {
            Event::PeWake { pe } => vec![0, pe as u64],
            Event::StealArrive { thief, victim } => vec![1, thief as u64, victim as u64],
            Event::StealReply { thief, task } => {
                let mut w = vec![2, thief as u64];
                if let Some(slot) = task {
                    w.extend_from_slice(&slab.get(slot).to_words());
                }
                w
            }
            Event::ArgArrive {
                k,
                value,
                from_pe,
                from_task,
                dup_of,
            } => vec![3, k.encode(), value, from_pe as u64, from_task, opt(dup_of)],
            Event::TaskRun { pe, task, dup_of } => {
                let mut w = vec![4, pe as u64, opt(dup_of)];
                w.extend_from_slice(&slab.get(task).to_words());
                w
            }
            Event::FaultFire { spec } => vec![5, spec as u64],
            Event::ArgResend {
                k,
                value,
                from_pe,
                from_task,
                attempt,
                spec,
            } => vec![
                6,
                k.encode(),
                value,
                from_pe as u64,
                from_task,
                attempt as u64,
                spec as u64,
            ],
            Event::TaskResend {
                pe,
                task,
                attempt,
                spec,
            } => {
                let mut w = vec![7, pe as u64, attempt as u64, spec as u64];
                w.extend_from_slice(&slab.get(task).to_words());
                w
            }
        }
    }

    /// Inverse of [`Event::to_words`]: inline task words are re-homed into
    /// `slab` and the rebuilt event carries the fresh slot.
    fn from_words(words: &[u64], slab: &mut EventSlab<Task>) -> Result<Event, String> {
        let tag = *words.first().ok_or("event encoding is empty")?;
        let expect = |n: usize| -> Result<(), String> {
            if words.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "event tag {tag} holds {} words, expected {n}",
                    words.len()
                ))
            }
        };
        let opt = |w: u64| if w == 0 { None } else { Some(w as usize - 1) };
        match tag {
            0 => {
                expect(2)?;
                Ok(Event::PeWake {
                    pe: words[1] as usize,
                })
            }
            1 => {
                expect(3)?;
                Ok(Event::StealArrive {
                    thief: words[1] as usize,
                    victim: words[2] as usize,
                })
            }
            2 => {
                let task = match words.len() {
                    2 => None,
                    n if n == 2 + TASK_WORDS => Some(slab.insert(Task::from_words(&words[2..])?)),
                    n => return Err(format!("event tag 2 holds {n} words")),
                };
                Ok(Event::StealReply {
                    thief: words[1] as usize,
                    task,
                })
            }
            3 => {
                expect(6)?;
                Ok(Event::ArgArrive {
                    k: Continuation::decode(words[1]),
                    value: words[2],
                    from_pe: words[3] as usize,
                    from_task: words[4],
                    dup_of: opt(words[5]),
                })
            }
            4 => {
                expect(3 + TASK_WORDS)?;
                Ok(Event::TaskRun {
                    pe: words[1] as usize,
                    dup_of: opt(words[2]),
                    task: slab.insert(Task::from_words(&words[3..])?),
                })
            }
            5 => {
                expect(2)?;
                Ok(Event::FaultFire {
                    spec: words[1] as usize,
                })
            }
            6 => {
                expect(7)?;
                Ok(Event::ArgResend {
                    k: Continuation::decode(words[1]),
                    value: words[2],
                    from_pe: words[3] as usize,
                    from_task: words[4],
                    attempt: words[5] as u8,
                    spec: words[6] as usize,
                })
            }
            7 => {
                expect(4 + TASK_WORDS)?;
                Ok(Event::TaskResend {
                    pe: words[1] as usize,
                    attempt: words[2] as u8,
                    spec: words[3] as usize,
                    task: slab.insert(Task::from_words(&words[4..])?),
                })
            }
            t => Err(format!("unknown event tag {t}")),
        }
    }
}

/// Engine-side fault-injection state, present only when the configuration
/// carries a [`FaultPlan`].
#[derive(Debug)]
struct FaultState {
    sched: FaultScheduler,
    /// Fail-stop flags: a dead PE never begins another task; faults are
    /// injected at task-dispatch granularity so in-flight tasks commit.
    dead: Vec<bool>,
    /// Per-PE death spec still awaiting rescue (the victim's deque was
    /// non-empty at death; recovery completes when it drains via stealing).
    rescue_pending: Vec<Option<usize>>,
    /// Per-tile corruption specs awaiting ECC repair: `(entry, spec)` pairs
    /// cleared when the entry's next fill scrubs the taint.
    corrupt_pending: Vec<Vec<(u32, usize)>>,
}

impl FaultState {
    fn new(plan: &FaultPlan, num_pes: usize, tiles: usize) -> Self {
        FaultState {
            sched: FaultScheduler::new(plan),
            dead: vec![false; num_pes],
            rescue_pending: vec![None; num_pes],
            corrupt_pending: vec![Vec::new(); tiles],
        }
    }
}

/// Stamps the timed memory-path methods of a [`TaskContext`] impl —
/// `compute`, `load`, `store`, `amo`, `dma_read` and `dma_write` — so every
/// engine context shares one implementation of the op-cost and cache-timing
/// arithmetic. The expanding type must expose `cfg`, `profile`, `backend`,
/// `port`, `now` and `ops` fields with their usual fabric meanings.
macro_rules! timed_memory_path {
    () => {
        fn compute(&mut self, ops: u64) {
            self.ops += ops;
            let cycles = self.profile.accel_cycles(ops);
            self.now += self.cfg.clock.cycles_to_time(cycles);
        }

        fn load(&mut self, addr: u64, _bytes: u32) {
            self.now = self
                .backend
                .access(self.port, addr, pxl_mem::AccessKind::Read, self.now);
        }

        fn store(&mut self, addr: u64, _bytes: u32) {
            self.now = self
                .backend
                .access(self.port, addr, pxl_mem::AccessKind::Write, self.now);
        }

        fn amo(&mut self, addr: u64) {
            self.now = self
                .backend
                .access(self.port, addr, pxl_mem::AccessKind::Amo, self.now);
        }

        fn dma_read(&mut self, addr: u64, bytes: u64) {
            self.now = self.backend.access_bytes(
                self.port,
                addr,
                bytes,
                pxl_mem::AccessKind::Read,
                self.now,
            );
        }

        fn dma_write(&mut self, addr: u64, bytes: u64) {
            self.now = self.backend.access_bytes(
                self.port,
                addr,
                bytes,
                pxl_mem::AccessKind::Write,
                self.now,
            );
        }
    };
}
pub(crate) use timed_memory_path;

/// The FlexArch accelerator simulator: the shared fabric driven by
/// [`FlexPolicy`]'s distributed work stealing.
pub type FlexEngine = FabricEngine<FlexPolicy>;

/// The centralized shared-queue accelerator simulator: the shared fabric
/// driven by [`CentralPolicy`]'s single global ready queue. Exists to
/// quantify, against [`FlexEngine`] on identical cost models, what
/// distributed hardware work stealing buys.
pub type CentralEngine = FabricEngine<CentralPolicy>;

/// The multi-chip cluster simulator: the shared fabric driven by
/// [`HierPolicy`]'s hierarchical (intra-chip-first, spill-on-starvation)
/// work stealing over a [`crate::ClusterConfig`]'s partitioned tiles and
/// modeled inter-chip link tier. On a 1-chip cluster it reproduces
/// [`FlexEngine`] byte-for-byte.
pub type HierEngine = FabricEngine<HierPolicy>;

/// Inter-chip link traffic classes, stamped into
/// [`TraceEvent::LinkXfer`] records.
const LINK_STEAL_REQ: u8 = 0;
const LINK_STEAL_REPLY: u8 = 1;
const LINK_ARG: u8 = 2;
const LINK_TASK: u8 = 3;

/// Typed handles for the inter-chip link counters; registered only on
/// multi-chip clusters so single-chip metric dumps stay byte-identical.
#[derive(Debug, Clone, Copy)]
struct LinkIds {
    msgs: CounterId,
    steal_msgs: CounterId,
    arg_msgs: CounterId,
    task_msgs: CounterId,
    steal_hits: CounterId,
    stall_ps: CounterId,
}

/// The modeled inter-chip link tier of a multi-chip cluster.
///
/// Each directed chip pair owns a bounded-bandwidth link: a message
/// departing at `t` waits until the pair's `next_free`, occupies the link
/// for `occupancy`, and arrives after `latency` per topology hop. The
/// `next_free` horizon is the link's only mutable state and is carried
/// through snapshots so a restored run replays in-flight serialization
/// byte-identically.
#[derive(Debug)]
struct LinkState {
    chips: usize,
    /// One-way latency per topology hop.
    latency: Time,
    /// Serialization window one message holds a directed link for.
    occupancy: Time,
    topology: LinkTopology,
    /// When each directed pair's link frees up (row-major `src * chips +
    /// dst`).
    next_free: Vec<Time>,
    ids: LinkIds,
}

impl LinkState {
    /// Builds the link tier for a multi-chip cluster, registering its
    /// `link.*` counters; `None` for single-chip configurations.
    fn for_config(cfg: &AccelConfig, metrics: &mut Metrics) -> Option<LinkState> {
        let cluster = cfg.cluster?;
        if cluster.chips <= 1 {
            return None;
        }
        Some(LinkState {
            chips: cluster.chips,
            latency: cfg.clock.cycles_to_time(cluster.link_latency_cycles),
            occupancy: cfg.clock.cycles_to_time(cluster.link_occupancy_cycles),
            topology: cluster.topology,
            next_free: vec![Time::ZERO; cluster.chips * cluster.chips],
            ids: LinkIds {
                msgs: metrics.register_counter("link.msgs"),
                steal_msgs: metrics.register_counter("link.steal_msgs"),
                arg_msgs: metrics.register_counter("link.arg_msgs"),
                task_msgs: metrics.register_counter("link.task_msgs"),
                steal_hits: metrics.register_counter("link.steal_hits"),
                stall_ps: metrics.register_counter("link.stall_ps"),
            },
        })
    }
}

/// The event-driven accelerator simulator, generic over a
/// [`SchedulingPolicy`] that owns task placement and acquisition.
///
/// Typical use: build with [`FabricEngine::new`], lay out inputs through
/// [`Engine::mem_mut`], then [`Engine::run`] a root task as a
/// [`Workload::dynamic`].
///
/// # Examples
///
/// ```
/// use pxl_arch::{AccelConfig, Engine, FlexEngine, Workload};
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
/// let mut engine = FlexEngine::new(AccelConfig::flex(2, 4), ExecProfile::scalar());
/// let root = Task::new(FIB, Continuation::host(0), &[12]);
/// let out = engine.run(Workload::dynamic(&mut Fib, root)).unwrap();
/// assert_eq!(out.result, 144);
/// ```
#[derive(Debug)]
pub struct FabricEngine<P: SchedulingPolicy> {
    cfg: AccelConfig,
    profile: ExecProfile,
    /// Memory, metrics, trace, watchdog, telemetry, task ids and host slots.
    core: EngineCore,
    root: RootRun,
    backend: MemBackend,
    /// Task placement and acquisition — the only part that differs between
    /// engine families. `pub(crate)` so the `Engine` facade can label runs
    /// by `policy.kind()`.
    pub(crate) policy: P,
    pstores: Vec<PStore>,
    /// Hot per-unit scheduling state (struct-of-arrays).
    units: UnitState,
    hetero_rr: usize,
    events: EventQueue<Event>,
    /// Payload store for task-carrying events; see [`Event`].
    task_slab: EventSlab<Task>,
    /// Reusable spill buffers for [`FabricCtx`] outputs, recycled across
    /// task executions so the dispatch loop stops allocating per task.
    scratch_args: Vec<(Time, Continuation, u64)>,
    scratch_spawns: Vec<(Time, Task)>,
    inflight_args: u64,
    faults: Option<FaultState>,
    /// The inter-chip link tier; `None` on single-chip configurations
    /// (including 1-chip clusters), keeping those byte-identical to stock.
    link: Option<LinkState>,
    ids: FabricIds,
    error: Option<AccelError>,
}

/// Outcome of one [`Engine::run_until`] leg.
#[derive(Debug)]
pub enum RunStatus {
    /// The computation drained; the result and aggregated statistics are
    /// final. The engine's metrics and trace have been moved into the
    /// result.
    Finished(AccelResult),
    /// Every event at or before the pause boundary has been processed and
    /// work is still outstanding. The engine can be snapshotted here and
    /// resumed with another `run_until` leg.
    Paused {
        /// The pause boundary that was reached.
        at: Time,
    },
}

/// Typed handles into the metrics registry for the engine's hot counters;
/// registered once at construction so per-event updates skip string lookups.
#[derive(Debug)]
struct FabricIds {
    steal_attempts: CounterId,
    steal_hits: CounterId,
    spawns: CounterId,
    successors: CounterId,
    args: CounterId,
    ops: CounterId,
    tasks: CounterId,
    task_ps: HistogramId,
    queue_peak_sum: CounterId,
    pstore_peak_sum: CounterId,
    pe_tasks: Vec<CounterId>,
    pe_busy_ps: Vec<CounterId>,
}

impl FabricIds {
    fn register(metrics: &mut Metrics, num_pes: usize) -> Self {
        FabricIds {
            steal_attempts: metrics.register_counter("accel.steal_attempts"),
            steal_hits: metrics.register_counter("accel.steal_hits"),
            spawns: metrics.register_counter("accel.spawns"),
            successors: metrics.register_counter("accel.successors"),
            args: metrics.register_counter("accel.args"),
            ops: metrics.register_counter("accel.ops"),
            tasks: metrics.register_counter("accel.tasks"),
            task_ps: metrics.register_histogram("accel.task_ps"),
            queue_peak_sum: metrics.register_counter("accel.queue_peak_sum"),
            pstore_peak_sum: metrics.register_counter("accel.pstore_peak_sum"),
            pe_tasks: (0..num_pes)
                .map(|pe| metrics.register_counter(&format!("pe{pe}.tasks")))
                .collect(),
            pe_busy_ps: (0..num_pes)
                .map(|pe| metrics.register_counter(&format!("pe{pe}.busy_ps")))
                .collect(),
        }
    }
}

impl<P: SchedulingPolicy> FabricEngine<P> {
    /// Creates an engine for `cfg` with the benchmark's execution profile.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AccelConfig::validate`] or names
    /// a different architecture than the policy implements. Use
    /// [`FabricEngine::try_new`] to handle those cases as errors.
    pub fn new(cfg: AccelConfig, profile: ExecProfile) -> Self {
        Self::try_new(cfg, profile).expect("invalid accelerator configuration")
    }

    /// Fallible constructor: returns [`AccelError::InvalidConfig`] if the
    /// configuration fails [`AccelConfig::validate`] or names a different
    /// architecture than the policy implements.
    pub fn try_new(cfg: AccelConfig, profile: ExecProfile) -> Result<Self, AccelError> {
        cfg.validate()
            .map_err(|e| AccelError::InvalidConfig(e.to_string()))?;
        let policy = P::for_config(&cfg);
        if cfg.arch != policy.arch() {
            return Err(AccelError::InvalidConfig(format!(
                "the {} engine requires ArchKind::{:?} (got ArchKind::{:?})",
                policy.kind(),
                policy.arch(),
                cfg.arch
            )));
        }
        let backend = MemBackend::for_config(&cfg);
        let num_pes = cfg.num_pes();
        let mut core = EngineCore::new(
            &cfg.clock,
            cfg.max_sim_time_us,
            cfg.watchdog_quiescence_cycles,
            cfg.trace_capacity,
            cfg.telemetry_every_cycles,
        );
        let ids = FabricIds::register(&mut core.metrics, num_pes);
        let link = LinkState::for_config(&cfg, &mut core.metrics);
        let faults = cfg
            .fault_plan
            .as_ref()
            .map(|plan| FaultState::new(plan, num_pes, cfg.tiles));
        Ok(FabricEngine {
            policy,
            link,
            pstores: (0..cfg.tiles)
                .map(|_| PStore::new(cfg.pstore_entries))
                .collect(),
            units: UnitState::new(num_pes),
            hetero_rr: 0,
            events: EventQueue::new(),
            task_slab: EventSlab::new(),
            scratch_args: Vec::new(),
            scratch_spawns: Vec::new(),
            inflight_args: 0,
            faults,
            core,
            root: RootRun::default(),
            ids,
            error: None,
            backend,
            cfg,
            profile,
        })
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    fn cycles(&self, n: u64) -> Time {
        self.cfg.clock.cycles_to_time(n)
    }

    /// Chip a unit is partitioned onto; the host interface block
    /// (`unit == num_pes`) sits on chip 0 next to the platform's host port.
    fn chip_of_unit(&self, unit: usize) -> usize {
        if unit >= self.cfg.num_pes() {
            0
        } else {
            self.cfg.chip_of_pe(unit)
        }
    }

    /// Routes a message leaving chip `src` at `at` toward chip `dst`
    /// through the inter-chip link tier, returning its arrival time.
    ///
    /// The directed pair's link serializes messages on its bounded
    /// bandwidth: a message departs no earlier than the pair's `next_free`
    /// horizon (the wait is counted in `link.stall_ps` and stamped into the
    /// [`TraceEvent::LinkXfer`] record), occupies the link for the
    /// occupancy window, and pays one link latency per topology hop. A
    /// no-op on single-chip configurations or intra-chip traffic.
    fn link_transit(&mut self, at: Time, src: usize, dst: usize, class: u8) -> Time {
        let Some(link) = self.link.as_mut() else {
            return at;
        };
        if src == dst {
            return at;
        }
        let hops = link.topology.hops(src, dst, link.chips);
        let pair = src * link.chips + dst;
        let depart = at.max(link.next_free[pair]);
        link.next_free[pair] = depart + link.occupancy;
        let wait_ps = (depart - at).as_ps();
        let (ids, latency) = (link.ids, link.latency);
        self.core.metrics.inc(ids.msgs);
        self.core.metrics.inc(match class {
            LINK_STEAL_REQ | LINK_STEAL_REPLY => ids.steal_msgs,
            LINK_ARG => ids.arg_msgs,
            _ => ids.task_msgs,
        });
        self.core.metrics.add_to(ids.stall_ps, wait_ps);
        self.core.trace.emit(
            at,
            TraceEvent::LinkXfer {
                src_chip: src as u32,
                dst_chip: dst as u32,
                class,
                wait_ps,
            },
        );
        depart + Time::from_ps(latency.as_ps() * hops)
    }

    fn is_dead(&self, pe: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.dead[pe])
    }

    /// Whether `pe` can accept new work of type `ty`: it supports the type
    /// and has not been killed by a fault.
    fn can_run(&self, pe: usize, ty: TaskTypeId) -> bool {
        !self.is_dead(pe) && self.cfg.pe_supports(pe, ty)
    }
}

impl<P: SchedulingPolicy> Engine for FabricEngine<P> {
    fn kind(&self) -> EngineKind {
        self.policy.kind()
    }

    fn units(&self) -> usize {
        self.cfg.num_pes()
    }

    fn clock(&self) -> Clock {
        self.cfg.clock.clone()
    }

    fn run_until(
        &mut self,
        workload: Workload<'_>,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError> {
        let Workload::Dynamic { worker, root } = workload else {
            return Err(AccelError::Unsupported(format!(
                "{} runs dynamic task graphs, not {}",
                self.policy.arch().name(),
                workload.shape()
            )));
        };
        // The host seeds `root` at the interface block and schedules the
        // launch events (PE wakes, timed faults) — skipped on a restored,
        // already-launched engine.
        if let Some(root) = self.root.launch(&mut self.core, root) {
            self.policy.seed(root);
            for pe in 0..self.cfg.num_pes() {
                self.events.push(Time::ZERO, Event::PeWake { pe });
            }
            let timed = self
                .faults
                .as_ref()
                .map(|f| f.sched.timed())
                .unwrap_or_default();
            for (at, spec) in timed {
                self.events.push(at, Event::FaultFire { spec });
            }
        }
        loop {
            if let Some(pause) = pause_at {
                // Pause only between events and only while work remains; a
                // drained computation always runs to its finished result.
                if self.root.outstanding > 0 || self.inflight_args > 0 {
                    match self.events.peek_time() {
                        Some(next) if next > pause => return Ok(RunStatus::Paused { at: pause }),
                        _ => {}
                    }
                }
            }
            let Some((now, event)) = self.events.pop() else {
                break;
            };
            if self.root.outstanding == 0 && self.inflight_args == 0 {
                break;
            }
            self.check_step(now)?;
            self.handle(now, event, worker);
            if let Some(err) = self.error.take() {
                return Err(err);
            }
        }

        if self.root.outstanding > 0 || self.inflight_args > 0 {
            // The event queue drained with work still outstanding: nothing
            // can ever make progress again (e.g. an unrecoverable message
            // loss or every supporting PE dead with stranded work).
            let at = self
                .root
                .last_useful
                .max(self.core.watchdog.last_progress());
            let blocked = self.blocked_unit();
            return Err(self.core.stall(at, blocked));
        }

        let leaked: usize = self.pstores.iter().map(|p| p.occupancy()).sum();
        if leaked > 0 {
            return Err(AccelError::LeakedPending { count: leaked });
        }
        let result = self.root.result(&self.core)?;
        let elapsed = self.root.last_useful;
        Ok(RunStatus::Finished(self.finish_run(
            result,
            elapsed,
            |engine| {
                let (queue_peak, queue_peak_sum) = engine.policy.queue_peaks();
                let pstore_peak_sum: usize = engine.pstores.iter().map(PStore::peak).sum();
                let metrics = &mut engine.core.metrics;
                metrics.max("accel.queue_peak", queue_peak);
                metrics.add_to(engine.ids.queue_peak_sum, queue_peak_sum);
                metrics.add_to(engine.ids.pstore_peak_sum, pstore_peak_sum as u64);
                metrics.merge(&engine.backend.take_stats());
                engine.backend.take_trace()
            },
        )))
    }

    fn snapshot(&self) -> Snapshot {
        let mut head = self.root.fields(&self.core);
        // Version 2 keeps `inflight_args` between `outstanding` and
        // `last_useful_ps`.
        head.insert(4, ("inflight_args", json::num(self.inflight_args)));
        head.push(("hetero_rr", json::num(self.hetero_rr as u64)));
        head.extend(self.units.fields());
        head.extend([
            ("host", self.core.host_cells()),
            (
                "events",
                events_to_json(&self.events, |e| e.to_words(&self.task_slab)),
            ),
            ("policy", self.policy.state_to_json_value()),
            (
                "pstores",
                JsonValue::Array(
                    self.pstores
                        .iter()
                        .map(PStore::state_to_json_value)
                        .collect(),
                ),
            ),
        ]);
        let mut tail = Vec::new();
        if let Some(link) = &self.link {
            tail.push((
                "link",
                json::arr_u64(link.next_free.iter().map(|t| t.as_ps())),
            ));
        }
        if let Some(faults) = &self.faults {
            let (rng, remaining) = faults.sched.save_state();
            tail.push((
                "faults",
                json::obj(vec![
                    ("rng", json::num(rng)),
                    (
                        "remaining",
                        json::arr_u64(remaining.iter().map(|r| u64::from(*r))),
                    ),
                    (
                        "dead",
                        json::arr_u64(faults.dead.iter().map(|d| u64::from(*d))),
                    ),
                    (
                        "rescue_pending",
                        json::arr_u64(
                            faults
                                .rescue_pending
                                .iter()
                                .map(|r| r.map_or(0, |s| s as u64 + 1)),
                        ),
                    ),
                    (
                        "corrupt_pending",
                        JsonValue::Array(
                            faults
                                .corrupt_pending
                                .iter()
                                .map(|tile| {
                                    json::arr_u64(tile.iter().flat_map(|(entry, spec)| {
                                        [u64::from(*entry), *spec as u64]
                                    }))
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        self.core.snapshot(
            self.policy.kind().label(),
            head,
            ("backend", self.backend.state_to_json_value()),
            tail,
        )
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        snap.expect_engine(self.policy.kind().label())?;
        let p = &snap.payload;
        let num_pes = self.cfg.num_pes();

        self.root = RootRun::read(p)?;
        self.inflight_args = json::get_u64(p, "inflight_args")?;
        self.hetero_rr = json::get_uint(p, "hetero_rr")?;

        self.units.read(p)?;
        self.core.read_host_cells(p)?;
        self.task_slab.clear();
        read_events(p, &mut self.events, |body| {
            Event::from_words(body, &mut self.task_slab)
        })?;

        self.policy
            .restore_state(json::get(p, "policy")?)
            .map_err(malformed)?;

        let pstores = json::get_arr(p, "pstores")?;
        if pstores.len() != self.pstores.len() {
            return Err(malformed(format!(
                "snapshot holds {} P-Store tiles, this engine has {}",
                pstores.len(),
                self.pstores.len()
            )));
        }
        for (pstore, state) in self.pstores.iter_mut().zip(pstores) {
            pstore.restore_state(state).map_err(malformed)?;
        }

        // Identical registration order keeps the typed handles valid.
        self.core.restore(p, |metrics| {
            self.ids = FabricIds::register(metrics, num_pes);
            self.link = LinkState::for_config(&self.cfg, metrics);
        })?;
        self.backend
            .restore_state(json::get(p, "backend")?)
            .map_err(malformed)?;

        match (&mut self.link, p.get("link")) {
            (Some(link), Some(_)) => {
                let next_free = json::get_u64s(p, "link")?;
                if next_free.len() != link.chips * link.chips {
                    return Err(malformed("link state chip count mismatch"));
                }
                link.next_free = next_free.iter().map(|ps| Time::from_ps(*ps)).collect();
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(malformed(
                    "this engine models an inter-chip link, the snapshot does not",
                ));
            }
            (None, Some(_)) => {
                return Err(malformed(
                    "the snapshot carries link state, this engine has no cluster",
                ));
            }
        }

        match (&mut self.faults, p.get("faults")) {
            (Some(faults), Some(saved)) => {
                let rng = json::get_u64(saved, "rng")?;
                let remaining = json::get_u64s(saved, "remaining")?
                    .iter()
                    .map(|r| u32::try_from(*r).map_err(|_| malformed("fault budget overflow")))
                    .collect::<Result<Vec<u32>, _>>()?;
                // `load_state` refuses a budget list whose length is not the
                // plan's spec count, so this bounds every pending spec index.
                let num_specs = remaining.len();
                faults.sched.load_state(rng, remaining).map_err(malformed)?;
                let spec_index = |key: &str, spec: u64| {
                    usize::try_from(spec)
                        .ok()
                        .filter(|i| *i < num_specs)
                        .ok_or_else(|| {
                            malformed(format!(
                                "{key} names fault spec {spec}, past the plan's {num_specs}"
                            ))
                        })
                };
                let dead = json::get_u64s(saved, "dead")?;
                let rescue = json::get_u64s(saved, "rescue_pending")?;
                if dead.len() != num_pes || rescue.len() != num_pes {
                    return Err(malformed("fault state PE count mismatch"));
                }
                faults.dead = dead.iter().map(|d| *d != 0).collect();
                faults.rescue_pending = rescue
                    .iter()
                    .map(|r| match r {
                        0 => Ok(None),
                        r => spec_index("rescue_pending", r - 1).map(Some),
                    })
                    .collect::<Result<_, _>>()?;
                let corrupt = json::get_arr(saved, "corrupt_pending")?;
                if corrupt.len() != faults.corrupt_pending.len() {
                    return Err(malformed("fault state tile count mismatch"));
                }
                faults.corrupt_pending = corrupt
                    .iter()
                    .map(|tile| {
                        let flat = json::u64s(tile, "corrupt_pending")?;
                        if !flat.len().is_multiple_of(2) {
                            return Err(malformed("corrupt_pending holds an odd word count"));
                        }
                        flat.chunks(2)
                            .map(|pair| {
                                let entry = u32::try_from(pair[0])
                                    .map_err(|_| malformed("corrupt entry overflow"))?;
                                Ok((entry, spec_index("corrupt_pending", pair[1])?))
                            })
                            .collect()
                    })
                    .collect::<Result<_, SnapshotError>>()?;
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(malformed(
                    "this engine carries a fault plan, the snapshot does not",
                ));
            }
            (None, Some(_)) => {
                return Err(malformed(
                    "the snapshot carries fault state, this engine has no fault plan",
                ));
            }
        }

        self.error = None;
        Ok(())
    }
}

impl<P: SchedulingPolicy> FabricEngine<P> {
    fn handle(&mut self, now: Time, event: Event, worker: &mut dyn Worker) {
        match event {
            Event::PeWake { pe } => self.pe_wake(now, pe, worker),
            Event::StealArrive { thief, victim } => self.steal_arrive(now, thief, victim),
            Event::StealReply { thief, task } => {
                let task = task.map(|slot| self.task_slab.take(slot));
                self.steal_reply(now, thief, task, worker)
            }
            Event::ArgArrive {
                k,
                value,
                from_pe,
                from_task,
                dup_of,
            } => self.arg_arrive(now, k, value, from_pe, from_task, dup_of),
            Event::TaskRun { pe, task, dup_of } => {
                let task = self.task_slab.take(task);
                self.task_run(now, pe, task, dup_of, worker)
            }
            Event::FaultFire { spec } => self.fault_fire(now, spec),
            Event::ArgResend {
                k,
                value,
                from_pe,
                from_task,
                attempt,
                spec,
            } => self.send_arg_msg(now, k, value, from_pe, from_task, attempt, spec),
            Event::TaskResend {
                pe,
                task,
                attempt,
                spec,
            } => {
                let task = self.task_slab.take(task);
                self.send_task_msg(now, pe, task, attempt, spec)
            }
        }
    }

    fn pe_wake(&mut self, now: Time, pe: usize, worker: &mut dyn Worker) {
        if self.is_dead(pe) || self.units.is_busy(pe, now) {
            return;
        }
        if let Some(task) = self.policy.pop_local(pe, now) {
            self.units.steal_fails[pe] = 0;
            self.execute_task(
                now + self.cycles(self.cfg.costs.dispatch_cycles),
                pe,
                task,
                worker,
            );
        } else {
            self.begin_steal(now, pe);
        }
    }

    fn begin_steal(&mut self, now: Time, pe: usize) {
        let victim = self.policy.acquire_target(pe);
        self.core.metrics.inc(self.ids.steal_attempts);
        self.core.trace.emit(
            now,
            TraceEvent::StealRequest {
                thief: pe as u32,
                victim: victim as u32,
            },
        );
        // A cross-chip request pays the inter-chip link past the local
        // crossbar hop (hierarchical policies make this the rare case).
        let arrive = self.link_transit(
            now + self.cycles(self.cfg.costs.net_hop_cycles),
            self.chip_of_unit(pe),
            self.chip_of_unit(victim),
            LINK_STEAL_REQ,
        );
        self.events
            .push(arrive, Event::StealArrive { thief: pe, victim });
    }

    fn steal_arrive(&mut self, now: Time, thief: usize, victim: usize) {
        let service = self.cycles(self.cfg.costs.steal_service_cycles);
        let (task, done) = if self.is_dead(thief) {
            // The thief died while its request was in flight; the victim's
            // TMU does not hand work to a corpse (and must not disturb its
            // queue state serving one).
            (None, now + service)
        } else {
            let FabricEngine { policy, cfg, .. } = self;
            let pred = |t: &Task| cfg.pe_supports(thief, t.ty);
            policy.serve_acquire(victim, now, service, &pred)
        };
        if task.is_some() {
            self.core.metrics.inc(self.ids.steal_hits);
            self.core.trace.emit(
                done,
                TraceEvent::StealGrant {
                    thief: thief as u32,
                    victim: victim as u32,
                },
            );
            if let Some(link) = self.link.as_ref() {
                if self.chip_of_unit(thief) != self.chip_of_unit(victim) {
                    self.core.metrics.inc(link.ids.steal_hits);
                }
            }
            if victim < self.cfg.num_pes() && self.is_dead(victim) {
                // Work stealing doubles as the rescue path for a dead PE's
                // stranded deque.
                self.core.metrics.incr("fault.rescued_tasks");
                self.check_rescued(done, victim);
            }
        } else {
            self.core.trace.emit(
                done,
                TraceEvent::StealFail {
                    thief: thief as u32,
                    victim: victim as u32,
                },
            );
        }
        let reply = self.link_transit(
            done + self.cycles(self.cfg.costs.net_hop_cycles),
            self.chip_of_unit(victim),
            self.chip_of_unit(thief),
            LINK_STEAL_REPLY,
        );
        let task = task.map(|t| self.task_slab.insert(t));
        self.events.push(reply, Event::StealReply { thief, task });
    }

    fn steal_reply(
        &mut self,
        now: Time,
        thief: usize,
        task: Option<Task>,
        worker: &mut dyn Worker,
    ) {
        match task {
            Some(t) => {
                if self.is_dead(thief) {
                    // The thief died with the reply in flight; forward the
                    // task to a live supporter instead of losing it.
                    let Some(dest) = self.supporter_for(thief, t.ty) else {
                        self.error = Some(AccelError::Unsupported(format!(
                            "no live PE supports task type {}",
                            t.ty
                        )));
                        return;
                    };
                    self.core.metrics.incr("fault.rescued_tasks");
                    self.push_local(dest, t, now);
                    self.events.push(now, Event::PeWake { pe: dest });
                    return;
                }
                self.units.steal_fails[thief] = 0;
                if self.units.is_busy(thief, now) {
                    // The thief picked up greedy-routed work meanwhile; bank
                    // the stolen task in its queue.
                    self.push_local(thief, t, now);
                } else {
                    self.execute_task(now, thief, t, worker);
                }
            }
            None => {
                if self.is_dead(thief) {
                    // A corpse does not reschedule itself.
                    return;
                }
                // Exponential backoff caps event churn while the accelerator
                // is starved for parallelism (e.g. quicksort's serial
                // partition phases).
                let fails = self.units.failed_steal(thief);
                let backoff = self.cfg.costs.steal_backoff_cycles << fails;
                self.events
                    .push(now + self.cycles(backoff), Event::PeWake { pe: thief });
            }
        }
    }

    fn push_local(&mut self, pe: usize, task: Task, at: Time) {
        if self.policy.push(pe, task, at).is_err() {
            self.error = Some(AccelError::QueueFull { pe });
        }
    }

    /// A planned one-shot fault fires: kill a PE, stall a PE, or corrupt a
    /// P-Store entry. Network faults are reactive (consulted per send) and
    /// never reach here.
    fn fault_fire(&mut self, now: Time, spec: usize) {
        let Some(kind) = self.faults.as_ref().map(|f| f.sched.spec(spec).kind) else {
            return;
        };
        match kind {
            FaultKind::PeDeath { pe } => {
                if self.is_dead(pe) {
                    self.core.metrics.incr("fault.skipped");
                    return;
                }
                self.faults.as_mut().unwrap().dead[pe] = true;
                self.core.record_injected(now, spec, pe);
                self.core.metrics.incr("fault.pe_deaths");
                if self.policy.unit_queue_empty(pe) {
                    // Nothing to rescue: the fabric already routes around the
                    // corpse, so the fault is absorbed immediately.
                    self.core.record_recovered(now, spec, pe);
                } else {
                    self.faults.as_mut().unwrap().rescue_pending[pe] = Some(spec);
                }
            }
            FaultKind::PeStall { pe, cycles } => {
                if self.is_dead(pe) {
                    self.core.metrics.incr("fault.skipped");
                    return;
                }
                let resume = self.units.busy_until[pe].max(now) + self.cycles(cycles);
                self.units.busy_until[pe] = resume;
                self.core.record_injected(now, spec, pe);
                self.core.metrics.incr("fault.pe_stalls");
                // A transient stall always clears itself; recovery is the
                // wake at `resume` (the tracer's stable sort orders it).
                self.core.record_recovered(resume, spec, pe);
                self.events.push(resume, Event::PeWake { pe });
            }
            FaultKind::PStoreCorrupt { tile, mask } => {
                match self.pstores[tile].corrupt(mask) {
                    Some(entry) => {
                        self.core.record_injected(now, spec, tile);
                        self.core.metrics.incr("fault.pstore_hits");
                        if self.pstores[tile].tainted(entry) {
                            self.faults.as_mut().unwrap().corrupt_pending[tile].push((entry, spec));
                        } else {
                            // The upset XOR-cancelled an earlier one on the
                            // same entry: the stored words are back to their
                            // true values, so every pending corruption of the
                            // entry is resolved, this one included.
                            let cancelled: Vec<usize> = {
                                let queue =
                                    &mut self.faults.as_mut().unwrap().corrupt_pending[tile];
                                let hits = queue
                                    .iter()
                                    .filter(|(e, _)| *e == entry)
                                    .map(|(_, s)| *s)
                                    .collect();
                                queue.retain(|(e, _)| *e != entry);
                                hits
                            };
                            for s in cancelled {
                                self.core.record_recovered(now, s, tile);
                            }
                            self.core.record_recovered(now, spec, tile);
                        }
                    }
                    // No live entry to corrupt: the fault lands on unused
                    // storage and is a no-op.
                    None => self.core.metrics.incr("fault.skipped"),
                }
            }
            FaultKind::NetDrop { .. } | FaultKind::NetDup { .. } => {}
        }
    }

    /// Sends an argument message through the (possibly faulty) argument
    /// network. `at` is the delivery time computed by the sender; `attempt`
    /// counts prior drops of this message and `spec` is the spec that caused
    /// the most recent drop.
    #[allow(clippy::too_many_arguments)]
    fn send_arg_msg(
        &mut self,
        at: Time,
        k: Continuation,
        value: u64,
        from_pe: usize,
        from_task: u64,
        attempt: u8,
        spec: usize,
    ) {
        let verdict = match self.faults.as_mut() {
            Some(fs) => fs.sched.on_send(NetClass::Arg, at),
            None => SendVerdict::Deliver,
        };
        match verdict {
            SendVerdict::Deliver => {
                // Every prior drop of this message is now masked: one
                // recovery per injected drop keeps traces and counters equal.
                for _ in 0..attempt {
                    self.core.record_recovered(at, spec, from_pe);
                }
                self.events.push(
                    at,
                    Event::ArgArrive {
                        k,
                        value,
                        from_pe,
                        from_task,
                        dup_of: None,
                    },
                );
            }
            SendVerdict::Drop { spec: drop_spec } => {
                self.core.record_injected(at, drop_spec, from_pe);
                self.core.metrics.incr("fault.dropped_args");
                if attempt >= MAX_SEND_RETRIES {
                    self.core.metrics.incr("fault.unrecovered");
                    self.core.trace.emit(
                        at,
                        TraceEvent::FaultUnrecovered {
                            spec: drop_spec as u32,
                            unit: from_pe as u32,
                        },
                    );
                    // The argument is lost for good; `inflight_args` stays
                    // elevated so the watchdog diagnoses the stall.
                } else {
                    self.core.metrics.incr("fault.retries");
                    let backoff = self.cfg.costs.steal_backoff_cycles << attempt.min(6);
                    self.events.push(
                        at + self.cycles(backoff),
                        Event::ArgResend {
                            k,
                            value,
                            from_pe,
                            from_task,
                            attempt: attempt + 1,
                            spec: drop_spec,
                        },
                    );
                }
            }
            SendVerdict::Duplicate { spec: dup_spec } => {
                self.core.record_injected(at, dup_spec, from_pe);
                self.core.metrics.incr("fault.dup_args");
                for _ in 0..attempt {
                    self.core.record_recovered(at, spec, from_pe);
                }
                // Both copies are delivered; the receiver discards the
                // flagged duplicate one hop later (sequence-number dedup).
                self.inflight_args += 1;
                self.events.push(
                    at,
                    Event::ArgArrive {
                        k,
                        value,
                        from_pe,
                        from_task,
                        dup_of: None,
                    },
                );
                self.events.push(
                    at + self.cycles(self.cfg.costs.net_hop_cycles),
                    Event::ArgArrive {
                        k,
                        value,
                        from_pe,
                        from_task,
                        dup_of: Some(dup_spec),
                    },
                );
            }
        }
    }

    /// Sends a ready task across the (possibly faulty) task network toward
    /// `dest`; delivery pays one crossbar hop past `at`.
    fn send_task_msg(&mut self, at: Time, dest: usize, task: Task, attempt: u8, spec: usize) {
        let hop = self.cycles(self.cfg.costs.net_hop_cycles);
        let verdict = match self.faults.as_mut() {
            Some(fs) => fs.sched.on_send(NetClass::Task, at),
            None => SendVerdict::Deliver,
        };
        match verdict {
            SendVerdict::Deliver => {
                for _ in 0..attempt {
                    self.core.record_recovered(at, spec, dest);
                }
                self.events.push(
                    at + hop,
                    Event::TaskRun {
                        pe: dest,
                        task: self.task_slab.insert(task),
                        dup_of: None,
                    },
                );
            }
            SendVerdict::Drop { spec: drop_spec } => {
                self.core.record_injected(at, drop_spec, dest);
                self.core.metrics.incr("fault.dropped_tasks");
                if attempt >= MAX_SEND_RETRIES {
                    self.core.metrics.incr("fault.unrecovered");
                    self.core.trace.emit(
                        at,
                        TraceEvent::FaultUnrecovered {
                            spec: drop_spec as u32,
                            unit: dest as u32,
                        },
                    );
                } else {
                    self.core.metrics.incr("fault.retries");
                    let backoff = self.cfg.costs.steal_backoff_cycles << attempt.min(6);
                    self.events.push(
                        at + self.cycles(backoff),
                        Event::TaskResend {
                            pe: dest,
                            task: self.task_slab.insert(task),
                            attempt: attempt + 1,
                            spec: drop_spec,
                        },
                    );
                }
            }
            SendVerdict::Duplicate { spec: dup_spec } => {
                self.core.record_injected(at, dup_spec, dest);
                self.core.metrics.incr("fault.dup_tasks");
                for _ in 0..attempt {
                    self.core.record_recovered(at, spec, dest);
                }
                self.root.outstanding += 1;
                self.events.push(
                    at + hop,
                    Event::TaskRun {
                        pe: dest,
                        task: self.task_slab.insert(task),
                        dup_of: None,
                    },
                );
                self.events.push(
                    at + hop + hop,
                    Event::TaskRun {
                        pe: dest,
                        task: self.task_slab.insert(task),
                        dup_of: Some(dup_spec),
                    },
                );
            }
        }
    }

    /// After a successful steal from `victim`, completes a pending PE-death
    /// recovery if the victim was dead and its deque just drained.
    fn check_rescued(&mut self, at: Time, victim: usize) {
        let pending = self.faults.as_ref().and_then(|f| f.rescue_pending[victim]);
        let Some(spec) = pending else { return };
        if !self.policy.unit_queue_empty(victim) {
            return;
        }
        self.faults.as_mut().unwrap().rescue_pending[victim] = None;
        self.core.metrics.incr("fault.rescues");
        self.core.record_recovered(at, spec, victim);
    }

    /// Picks a live PE that can process `ty`, preferring `preferred` and
    /// then its tile (round-robin among the tile's supporters), falling back
    /// to any live supporter in the accelerator.
    fn supporter_for(&mut self, preferred: usize, ty: TaskTypeId) -> Option<usize> {
        if self.can_run(preferred, ty) {
            return Some(preferred);
        }
        let per_tile = self.cfg.pes_per_tile;
        let tile_base = self.cfg.tile_of_pe(preferred) * per_tile;
        self.hetero_rr = self.hetero_rr.wrapping_add(1);
        for i in 0..per_tile {
            let pe = tile_base + (self.hetero_rr + i) % per_tile;
            if self.can_run(pe, ty) {
                return Some(pe);
            }
        }
        (0..self.cfg.num_pes()).find(|&pe| self.can_run(pe, ty))
    }

    fn arg_arrive(
        &mut self,
        now: Time,
        k: Continuation,
        value: u64,
        from_pe: usize,
        from_task: u64,
        dup_of: Option<usize>,
    ) {
        self.inflight_args -= 1;
        if let Some(spec) = dup_of {
            // Sequence-number dedup at the receiver: the duplicate copy is
            // recognised and discarded.
            self.core.metrics.incr("fault.dup_discarded");
            self.core.record_recovered(now, spec, from_pe);
            return;
        }
        self.root.last_useful = self.root.last_useful.max(now);
        self.core.watchdog.progress(now, from_pe);
        match k {
            Continuation::Host { slot } => {
                self.core.host[slot as usize] = Some(value);
            }
            Continuation::PStore { tile, entry, slot } => {
                let join_target = self.pstores[tile as usize].pending_id(entry).unwrap_or(0);
                self.core.trace.emit(
                    now,
                    TraceEvent::PStoreJoin {
                        tile: tile as u32,
                        slot,
                        task: join_target,
                        from: from_task,
                    },
                );
                let outcome = match self.pstores[tile as usize].fill(entry, slot, value) {
                    Ok(outcome) => outcome,
                    Err(source) => {
                        self.error = Some(AccelError::PStoreCorrupt {
                            tile: tile as usize,
                            source,
                        });
                        return;
                    }
                };
                if outcome.repaired {
                    // The entry's ECC scrubbed injected taint on this fill.
                    self.core.metrics.incr("fault.pstore_repairs");
                    let specs: Vec<usize> = match self.faults.as_mut() {
                        Some(fs) => {
                            let queue = &mut fs.corrupt_pending[tile as usize];
                            let hits = queue
                                .iter()
                                .filter(|(e, _)| *e == entry)
                                .map(|(_, s)| *s)
                                .collect();
                            queue.retain(|(e, _)| *e != entry);
                            hits
                        }
                        None => Vec::new(),
                    };
                    for spec in specs {
                        self.core.record_recovered(now, spec, tile as usize);
                    }
                }
                if let Some(ready) = outcome.ready {
                    self.core.trace.emit(
                        now,
                        TraceEvent::PStoreDealloc {
                            tile: tile as u32,
                            occupancy: self.pstores[tile as usize].occupancy() as u32,
                        },
                    );
                    self.root.outstanding += 1;
                    // Greedy scheduling (default): the ready task returns to
                    // the PE that produced the last argument. The ablation
                    // instead leaves it with a PE of the P-Store's tile.
                    let preferred = if self.cfg.policy.greedy_routing {
                        from_pe
                    } else {
                        tile as usize * self.cfg.pes_per_tile
                            + entry as usize % self.cfg.pes_per_tile
                    };
                    let Some(dest) = self.supporter_for(preferred, ready.ty) else {
                        self.error = Some(AccelError::Unsupported(format!(
                            "no PE supports task type {}",
                            ready.ty
                        )));
                        return;
                    };
                    if self.cfg.tile_of_pe(dest) == tile as usize {
                        // Intra-tile handoff: no routed network involved.
                        self.events.push(
                            now,
                            Event::TaskRun {
                                pe: dest,
                                task: self.task_slab.insert(ready),
                                dup_of: None,
                            },
                        );
                    } else {
                        let at = self.link_transit(
                            now,
                            self.cfg.chip_of_tile(tile as usize),
                            self.chip_of_unit(dest),
                            LINK_TASK,
                        );
                        self.send_task_msg(at, dest, ready, 0, 0);
                    }
                }
            }
        }
    }

    fn task_run(
        &mut self,
        now: Time,
        pe: usize,
        task: Task,
        dup_of: Option<usize>,
        worker: &mut dyn Worker,
    ) {
        if let Some(spec) = dup_of {
            self.root.outstanding -= 1;
            self.core.metrics.incr("fault.dup_discarded");
            self.core.record_recovered(now, spec, pe);
            return;
        }
        if self.is_dead(pe) {
            // The destination died while the task was in flight: reroute to
            // a live supporter over one more crossbar hop. The reroute is
            // not subject to further injection so recovery always converges.
            let Some(dest) = self.supporter_for(pe, task.ty) else {
                self.error = Some(AccelError::Unsupported(format!(
                    "no live PE supports task type {}",
                    task.ty
                )));
                return;
            };
            self.core.metrics.incr("fault.rescued_tasks");
            let at = self.link_transit(
                now + self.cycles(self.cfg.costs.net_hop_cycles),
                self.chip_of_unit(pe),
                self.chip_of_unit(dest),
                LINK_TASK,
            );
            self.events.push(
                at,
                Event::TaskRun {
                    pe: dest,
                    task: self.task_slab.insert(task),
                    dup_of: None,
                },
            );
            return;
        }
        if self.units.is_busy(pe, now) {
            self.push_local(pe, task, now);
        } else {
            self.execute_task(now, pe, task, worker);
        }
    }

    fn execute_task(&mut self, start: Time, pe: usize, task: Task, worker: &mut dyn Worker) {
        let tile = self.cfg.tile_of_pe(pe);
        let port = self.backend.port_of(&self.cfg, pe);
        self.core.trace.emit(
            start,
            TraceEvent::TaskDispatch {
                unit: pe as u32,
                ty: task.ty.0,
                task: task.id,
            },
        );
        // Recycle the context's spill buffers across executions; the
        // capacity survives the round-trip so steady state never allocates.
        let out_args = std::mem::take(&mut self.scratch_args);
        let out_spawns = std::mem::take(&mut self.scratch_spawns);
        // Borrow the engine's pieces disjointly so the context can push
        // spawns straight into the policy with accurate visibility
        // timestamps.
        let FabricEngine {
            cfg,
            profile,
            core,
            backend,
            pstores,
            policy,
            ..
        } = self;
        let mut ctx = FabricCtx {
            now: start,
            pe,
            tile,
            port,
            cfg,
            profile: *profile,
            core,
            backend,
            pstores,
            policy,
            cur_task: task.id,
            out_args,
            out_spawns,
            spawned: 0,
            successors: 0,
            args_sent: 0,
            ops: 0,
            error: None,
        };
        worker.execute(&task, &mut ctx);
        let end = ctx.now;
        let out_args = std::mem::take(&mut ctx.out_args);
        let out_spawns = std::mem::take(&mut ctx.out_spawns);
        let (spawned, successors, args_sent, ops) =
            (ctx.spawned, ctx.successors, ctx.args_sent, ctx.ops);
        let ctx_error = ctx.error.take();
        if let Some(e) = ctx_error {
            self.error = Some(e);
            return;
        }
        for &(at, task) in &out_spawns {
            let Some(dest) = self.supporter_for(pe, task.ty) else {
                self.error = Some(AccelError::Unsupported(format!(
                    "no PE supports task type {}",
                    task.ty
                )));
                return;
            };
            let at = self.link_transit(
                at,
                self.chip_of_unit(pe),
                self.chip_of_unit(dest),
                LINK_TASK,
            );
            self.push_local(dest, task, at);
            self.events.push(at, Event::PeWake { pe: dest });
        }
        self.root.outstanding += spawned;
        let busy_ps = (end - start).as_ps();
        self.core.metrics.add_to(self.ids.spawns, spawned);
        self.core.metrics.add_to(self.ids.successors, successors);
        self.core.metrics.add_to(self.ids.args, args_sent);
        self.core.metrics.add_to(self.ids.ops, ops);
        self.core.metrics.inc(self.ids.tasks);
        self.core.metrics.observe(self.ids.task_ps, busy_ps);
        self.core.metrics.inc(self.ids.pe_tasks[pe]);
        self.core.metrics.add_to(self.ids.pe_busy_ps[pe], busy_ps);
        self.core.trace.emit(
            end,
            TraceEvent::TaskComplete {
                unit: pe as u32,
                ty: task.ty.0,
                busy_ps,
                task: task.id,
            },
        );
        for &(at, k, value) in &out_args {
            // The host interface block and chip 0 share a die; a P-Store
            // continuation lives on its tile's chip.
            let dst_chip = match k {
                Continuation::Host { .. } => 0,
                Continuation::PStore { tile, .. } => self.cfg.chip_of_tile(tile as usize),
            };
            let at = self.link_transit(at, self.chip_of_unit(pe), dst_chip, LINK_ARG);
            self.inflight_args += 1;
            self.send_arg_msg(at, k, value, pe, task.id, 0, 0);
        }
        self.root.last_useful = self.root.last_useful.max(end);
        self.core.watchdog.progress(end, pe);
        self.root.outstanding -= 1;
        self.scratch_args = out_args;
        self.scratch_args.clear();
        self.scratch_spawns = out_spawns;
        self.scratch_spawns.clear();
        // The PE stays busy (gating greedy routing and steal replies) until
        // its completion wake fires at `end`.
        self.units.busy_until[pe] = end;
        self.events.push(end, Event::PeWake { pe });
    }
}

impl<P: SchedulingPolicy> EmbedsCore for FabricEngine<P> {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    /// Pending event count, ready tasks across the policy's stores,
    /// inter-chip links still serializing a message, and total P-Store
    /// occupancy.
    fn gauges(&self, now: Time) -> Vec<(&'static str, u64)> {
        let inflight_links = self.link.as_ref().map_or(0, |l| {
            l.next_free.iter().filter(|free| **free > now).count() as u64
        });
        let pstore = self.pstores.iter().map(PStore::occupancy).sum::<usize>();
        vec![
            ("events", self.events.len() as u64),
            ("ready_tasks", self.policy.ready_tasks()),
            ("inflight_links", inflight_links),
            ("pstore_occupancy", pstore as u64),
        ]
    }

    /// The first PE whose queue still holds work, else the host interface
    /// block (`num_pes`) if its queue does.
    fn blocked_unit(&self) -> Option<usize> {
        let num_pes = self.cfg.num_pes();
        (0..num_pes)
            .find(|&pe| !self.policy.unit_queue_empty(pe))
            .or((!self.policy.host_queue_empty()).then_some(num_pes))
    }
}

/// The PE-side [`TaskContext`] used during fabric task execution — one
/// implementation of the worker-visible memory path, spawn accounting, and
/// P-Store allocation protocol for every scheduling policy.
struct FabricCtx<'e, P: SchedulingPolicy> {
    now: Time,
    pe: usize,
    tile: usize,
    port: usize,
    cfg: &'e AccelConfig,
    profile: ExecProfile,
    /// The engine's memory, trace and task-id allocator, borrowed for the
    /// task's duration.
    core: &'e mut EngineCore,
    backend: &'e mut MemBackend,
    pstores: &'e mut Vec<PStore>,
    policy: &'e mut P,
    /// Instance id of the task this context executes (the `parent` of every
    /// spawn it makes).
    cur_task: u64,
    out_args: Vec<(Time, Continuation, u64)>,
    /// Spawns whose task type this PE's worker cannot process — routed to a
    /// supporting PE over the intra-tile bus after execution.
    out_spawns: Vec<(Time, Task)>,
    spawned: u64,
    successors: u64,
    args_sent: u64,
    ops: u64,
    error: Option<AccelError>,
}

impl<P: SchedulingPolicy> FabricCtx<'_, P> {
    fn cycles(&self, n: u64) -> Time {
        self.cfg.clock.cycles_to_time(n)
    }
}

impl<P: SchedulingPolicy> TaskContext for FabricCtx<'_, P> {
    fn spawn(&mut self, task: Task) {
        if self.error.is_some() {
            return;
        }
        self.now += self.cycles(self.cfg.costs.spawn_cycles);
        self.spawned += 1;
        let task = task.with_id(self.core.alloc_task_id());
        self.core.trace.emit(
            self.now,
            TraceEvent::Spawn {
                unit: self.pe as u32,
                ty: task.ty.0,
                parent: self.cur_task,
                child: task.id,
            },
        );
        if self.cfg.pe_supports(self.pe, task.ty) {
            if self.policy.push(self.pe, task, self.now).is_err() {
                self.error = Some(AccelError::QueueFull { pe: self.pe });
            }
        } else {
            // Heterogeneous workers: hand the task to a supporting PE over
            // the intra-tile bus.
            let at = self.now + self.cycles(self.cfg.costs.net_hop_cycles);
            self.out_spawns.push((at, task));
        }
    }

    fn send_arg(&mut self, k: Continuation, value: u64) {
        if self.error.is_some() {
            return;
        }
        self.now += self.cycles(self.cfg.costs.send_arg_cycles);
        self.args_sent += 1;
        let remote = match k {
            Continuation::Host { .. } => true,
            Continuation::PStore { tile, .. } => tile as usize != self.tile,
        };
        let deliver = if remote {
            self.now + self.cycles(self.cfg.costs.net_hop_cycles)
        } else {
            self.now
        };
        self.out_args.push((deliver, k, value));
    }

    fn make_successor_with(
        &mut self,
        ty: TaskTypeId,
        k: Continuation,
        join: u8,
        preset: &[(u8, u64)],
    ) -> Continuation {
        if self.error.is_some() {
            return Continuation::host((HOST_SLOTS - 1) as u8);
        }
        self.now += self.cycles(self.cfg.costs.successor_cycles);
        self.successors += 1;
        let mut pending = PendingTask::new(ty, k, join).with_id(self.core.alloc_task_id());
        for &(slot, value) in preset {
            pending = pending.preset(slot, value);
        }
        // Allocate locally; overflow to other tiles over the network. On a
        // cluster the probe order visits the same chip's tiles before
        // spilling to remote chips (identical to the flat order at 1 chip).
        let tiles = self.pstores.len();
        let tpc = self.cfg.tiles_per_chip().max(1);
        let chip_base = (self.tile / tpc) * tpc;
        for probe in 0..tiles {
            let t = if probe < tpc {
                chip_base + (self.tile - chip_base + probe) % tpc
            } else {
                (chip_base + probe) % tiles
            };
            match self.pstores[t].alloc(pending) {
                Ok(Some(entry)) => {
                    if probe > 0 {
                        self.now += self.cycles(self.cfg.costs.net_hop_cycles);
                    }
                    self.core.trace.emit(
                        self.now,
                        TraceEvent::PStoreAlloc {
                            tile: t as u32,
                            occupancy: self.pstores[t].occupancy() as u32,
                        },
                    );
                    return Continuation::pstore(t as u16, entry, 0);
                }
                Ok(None) => {} // tile full; probe the next one
                Err(source) => {
                    self.error = Some(AccelError::PStoreCorrupt { tile: t, source });
                    return Continuation::host((HOST_SLOTS - 1) as u8);
                }
            }
        }
        self.error = Some(AccelError::PStoreFull { tile: self.tile });
        Continuation::host((HOST_SLOTS - 1) as u8)
    }

    timed_memory_path!();

    fn mem(&mut self) -> &mut Memory {
        &mut self.core.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccelConfig, ClusterConfig};

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

    fn run_fib(tiles: usize, pes: usize, n: u64) -> AccelResult {
        let mut engine = FlexEngine::new(AccelConfig::flex(tiles, pes), ExecProfile::scalar());
        engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[n]),
            ))
            .expect("fib must complete")
    }

    #[test]
    fn single_pe_computes_fib() {
        let out = run_fib(1, 1, 12);
        assert_eq!(out.result, fib(12));
        assert!(out.elapsed > Time::ZERO);
        assert!(out.metrics.get("accel.tasks") > 100);
    }

    #[test]
    fn multi_pe_same_answer_and_faster() {
        let n = 16;
        let t1 = run_fib(1, 1, n);
        let t8 = run_fib(2, 4, n);
        assert_eq!(t1.result, fib(n));
        assert_eq!(t8.result, fib(n));
        assert!(
            t8.elapsed < t1.elapsed,
            "8 PEs ({}) must beat 1 PE ({})",
            t8.elapsed,
            t1.elapsed
        );
        assert!(t8.metrics.get("accel.steal_hits") > 0, "work must migrate");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_fib(2, 2, 14);
        let b = run_fib(2, 2, 14);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.result, b.result);
        assert_eq!(
            a.metrics.get("accel.steal_attempts"),
            b.metrics.get("accel.steal_attempts")
        );
    }

    #[test]
    fn space_bound_holds() {
        // S_P <= S_1 * P (Section II-C): measure S_1 with the serial
        // executor, then check the parallel queue peaks.
        let n = 14;
        let mut serial = pxl_model::SerialExecutor::new();
        let _ = serial
            .run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[n]))
            .unwrap();
        let s1 = serial.stats().s1() as u64;
        let p = 8u64;
        let out = run_fib(2, 4, n);
        let s_p =
            out.metrics.get("accel.queue_peak_sum") + out.metrics.get("accel.pstore_peak_sum");
        assert!(
            s_p <= s1 * p,
            "space bound violated: S_P={s_p} > S_1*P={}",
            s1 * p
        );
    }

    #[test]
    fn queue_overflow_is_reported() {
        let mut cfg = AccelConfig::flex(1, 1);
        cfg.task_queue_entries = 2;
        let mut engine = FlexEngine::new(cfg, ExecProfile::scalar());
        // fib(16) needs more than 2 queue slots on one PE.
        let err = engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[16]),
            ))
            .unwrap_err();
        assert!(matches!(err, AccelError::QueueFull { .. }), "got {err}");
    }

    #[test]
    fn pstore_overflow_is_reported() {
        let mut cfg = AccelConfig::flex(1, 2);
        cfg.pstore_entries = 2;
        let mut engine = FlexEngine::new(cfg, ExecProfile::scalar());
        let err = engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[18]),
            ))
            .unwrap_err();
        assert!(matches!(err, AccelError::PStoreFull { .. }), "got {err}");
    }

    struct LeakyWorker;
    impl Worker for LeakyWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let _ = ctx.make_successor(SUM, task.k, 2);
        }
    }

    #[test]
    fn leaked_pending_is_reported() {
        let mut engine = FlexEngine::new(AccelConfig::flex(1, 1), ExecProfile::scalar());
        let err = engine
            .run(Workload::dynamic(
                &mut LeakyWorker,
                Task::new(FIB, Continuation::host(0), &[]),
            ))
            .unwrap_err();
        assert_eq!(err, AccelError::LeakedPending { count: 1 });
    }

    #[test]
    fn memory_traffic_flows_through_hierarchy() {
        struct MemWorker;
        impl Worker for MemWorker {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let mut sum = 0u64;
                for i in 0..64u64 {
                    sum += ctx.read_u32(0x1000 + 4 * i) as u64;
                }
                ctx.send_arg(task.k, sum);
            }
        }
        let mut engine = FlexEngine::new(AccelConfig::flex(1, 1), ExecProfile::scalar());
        for i in 0..64u64 {
            engine.mem_mut().write_u32(0x1000 + 4 * i, i as u32);
        }
        let out = engine
            .run(Workload::dynamic(
                &mut MemWorker,
                Task::new(FIB, Continuation::host(0), &[]),
            ))
            .unwrap();
        assert_eq!(out.result, (0..64).sum::<u64>());
        assert!(out.metrics.get("mem.l1_misses") >= 1);
        assert!(
            out.metrics.get("mem.l1_hits") > 32,
            "strided reads must hit"
        );
    }

    #[test]
    fn heterogeneous_workers_compute_fib() {
        // The Section III-A extension: PE slots 0-2 process only FIB, slot 3
        // only SUM. Tasks route to supporting PEs; results stay golden.
        let mut cfg = AccelConfig::flex(2, 4);
        cfg.pe_task_types = Some(vec![0b01, 0b01, 0b01, 0b10]);
        let mut engine = FlexEngine::new(cfg, ExecProfile::scalar());
        let out = engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[14]),
            ))
            .unwrap();
        assert_eq!(out.result, fib(14));
        // SUM-only PEs (slots 3 and 7) must have executed all the SUM tasks
        // and FIB PEs none of them; per-PE counters let us check the split.
        let sum_pe_tasks = out.metrics.get("pe3.tasks") + out.metrics.get("pe7.tasks");
        assert!(sum_pe_tasks > 0, "SUM slots must execute the join tasks");
    }

    #[test]
    fn heterogeneous_config_is_validated() {
        let mut cfg = AccelConfig::flex(1, 4);
        cfg.pe_task_types = Some(vec![0b01, 0b01]); // wrong length
        assert!(cfg.validate().is_err());
        let mut cfg = AccelConfig::flex(1, 2);
        cfg.pe_task_types = Some(vec![0b01, 0]); // empty mask
        assert!(cfg.validate().is_err());
        let mut cfg = AccelConfig::flex(1, 2);
        cfg.pe_task_types = Some(vec![0b01, 0b10]);
        assert!(cfg.validate().is_ok());
        assert!(cfg.pe_supports(0, FIB));
        assert!(!cfg.pe_supports(0, SUM));
        assert!(cfg.pe_supports(1, SUM));
    }

    #[test]
    fn unsupported_task_type_is_an_error_not_a_hang() {
        // No PE supports SUM: the first join completion must error out.
        let mut cfg = AccelConfig::flex(1, 2);
        cfg.pe_task_types = Some(vec![0b01, 0b01]);
        let mut engine = FlexEngine::new(cfg, ExecProfile::scalar());
        let err = engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[6]),
            ))
            .unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)), "got {err}");
    }

    #[test]
    fn central_engine_computes_fib() {
        let mut engine = CentralEngine::new(AccelConfig::central(2, 4), ExecProfile::scalar());
        let out = engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[14]),
            ))
            .expect("central fib must complete");
        assert_eq!(out.result, fib(14));
        assert!(out.metrics.get("accel.tasks") > 100);
        // With no per-PE storage every spawn lands in the global queue and
        // can only leave through an acquisition (greedy-routed join tasks
        // may bypass it while their PE is idle).
        assert!(out.metrics.get("accel.steal_hits") >= out.metrics.get("accel.spawns"));
    }

    #[test]
    fn central_queue_contention_costs_against_flex() {
        // Same cost model, same workload, 8 PEs: the single-ported global
        // queue must not beat distributed stealing.
        let flex = run_fib(2, 4, 15);
        let mut engine = CentralEngine::new(AccelConfig::central(2, 4), ExecProfile::scalar());
        let central = engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[15]),
            ))
            .unwrap();
        assert_eq!(central.result, flex.result);
        assert!(
            central.elapsed >= flex.elapsed,
            "central ({}) must not beat flex ({})",
            central.elapsed,
            flex.elapsed
        );
    }

    #[test]
    fn engines_reject_mismatched_arch() {
        let err = CentralEngine::try_new(AccelConfig::flex(1, 1), ExecProfile::scalar())
            .expect_err("flex config must not drive the central engine");
        assert!(matches!(err, AccelError::InvalidConfig(_)), "got {err}");
        let err = FlexEngine::try_new(AccelConfig::central(1, 1), ExecProfile::scalar())
            .expect_err("central config must not drive the flex engine");
        assert!(matches!(err, AccelError::InvalidConfig(_)), "got {err}");
    }

    #[test]
    fn faster_profile_reduces_elapsed_time() {
        let run = |accel_rate: f64| {
            let mut engine =
                FlexEngine::new(AccelConfig::flex(1, 1), ExecProfile::new(accel_rate, 1.0));
            engine
                .run(Workload::dynamic(
                    &mut FibWorker,
                    Task::new(FIB, Continuation::host(0), &[14]),
                ))
                .unwrap()
                .elapsed
        };
        assert!(run(8.0) < run(1.0));
    }

    /// The checkpoint determinism gate at engine level: pause mid-run,
    /// snapshot through the JSON wire format, restore into a freshly built
    /// engine, and finish both legs. The paused original, the restored
    /// engine, and an uninterrupted reference must agree byte-for-byte on
    /// result, elapsed time, metrics, and trace.
    fn assert_resume_identical_on<P: SchedulingPolicy>(mk_cfg: impl Fn() -> AccelConfig, n: u64) {
        let root = || Task::new(FIB, Continuation::host(0), &[n]);
        let reference = {
            let mut engine = FabricEngine::<P>::new(mk_cfg(), ExecProfile::scalar());
            engine
                .run(Workload::dynamic(&mut FibWorker, root()))
                .expect("reference run")
        };
        let pause = Time::from_ps(reference.elapsed.as_ps() / 2);

        let mut paused = FabricEngine::<P>::new(mk_cfg(), ExecProfile::scalar());
        match paused
            .run_until(Workload::dynamic(&mut FibWorker, root()), Some(pause))
            .unwrap()
        {
            RunStatus::Paused { at } => assert_eq!(at, pause),
            RunStatus::Finished(_) => panic!("fib must still be in flight at {pause}"),
        }
        let blob = paused.snapshot().to_json();
        let snap = Snapshot::from_json(&blob).expect("snapshot survives its wire format");

        let mut restored = FabricEngine::<P>::new(mk_cfg(), ExecProfile::scalar());
        restored
            .restore(&snap)
            .expect("restore into a fresh engine");

        let finish = |engine: &mut FabricEngine<P>| match engine
            .run_until(Workload::dynamic(&mut FibWorker, root()), None)
        {
            Ok(RunStatus::Finished(out)) => out,
            Ok(RunStatus::Paused { .. }) => unreachable!("no pause requested"),
            Err(e) => panic!("resumed leg failed: {e}"),
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
    }

    fn assert_resume_identical(mk_cfg: impl Fn() -> AccelConfig, n: u64) {
        assert_resume_identical_on::<FlexPolicy>(mk_cfg, n);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        assert_resume_identical(|| AccelConfig::flex(2, 2), 14);
    }

    #[test]
    fn snapshot_restore_holds_under_faults() {
        assert_resume_identical(
            || {
                let mut cfg = AccelConfig::flex(2, 4);
                cfg.fault_plan = Some(
                    FaultPlan::new(0xF01D)
                        .kill_pe(3, Time::from_ns(400))
                        .drop_messages(NetClass::Arg, Time::ZERO, Time::from_us(2), 80, 6)
                        .corrupt_pstore(1, Time::from_ns(900), 0xFF),
                );
                cfg
            },
            15,
        );
    }

    #[test]
    fn restore_rejects_mismatched_shape_and_engine() {
        let mut small = FlexEngine::new(AccelConfig::flex(1, 1), ExecProfile::scalar());
        let root = Task::new(FIB, Continuation::host(0), &[8]);
        let _ = small
            .run_until(Workload::dynamic(&mut FibWorker, root), Some(Time::ZERO))
            .unwrap();
        let snap = small.snapshot();

        // Same family, different shape: the restore must fail loudly rather
        // than resume into a structurally different fabric.
        let mut other = FlexEngine::new(AccelConfig::flex(2, 4), ExecProfile::scalar());
        let err = other.restore(&snap).expect_err("shape mismatch");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err}");

        // Different engine family entirely.
        let mut central = CentralEngine::new(AccelConfig::central(1, 1), ExecProfile::scalar());
        let err = central.restore(&snap).expect_err("engine mismatch");
        assert!(
            matches!(err, SnapshotError::EngineMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn restore_refuses_stray_words_instead_of_skipping_them() {
        let mut engine = FlexEngine::new(AccelConfig::flex(2, 2), ExecProfile::scalar());
        let root = Task::new(FIB, Continuation::host(0), &[12]);
        let _ = engine
            .run_until(
                Workload::dynamic(&mut FibWorker, root),
                Some(Time::from_ns(400)),
            )
            .unwrap();
        let text = engine.snapshot().payload.to_json();
        // One list of words each from the event queue, a PE deque, a
        // P-Store entry and the policy's per-PE LFSRs (whose items are
        // narrowed one by one, so the refusal names the field, not an index).
        for (needle, refusal) in [
            ("\"events\":[[", "non-u64"),
            ("\"items\":[[", "non-u64"),
            ("\"entries\":[[", "non-u64"),
            ("\"lfsrs\":[", "\"lfsrs\" is not an unsigned integer"),
        ] {
            assert!(text.contains(needle), "{needle} missing from the snapshot");
            let tampered = text.replacen(needle, &format!("{needle}\"x\","), 1);
            let snap = Snapshot::new("flex", JsonValue::parse(&tampered).unwrap());
            let mut fresh = FlexEngine::new(AccelConfig::flex(2, 2), ExecProfile::scalar());
            let err = fresh.restore(&snap).expect_err(needle);
            assert!(
                matches!(&err, SnapshotError::Malformed(m) if m.contains(refusal)),
                "{needle}: {err}"
            );
        }
    }

    fn cluster_cfg(tiles: usize, pes: usize, chips: usize) -> AccelConfig {
        let mut cfg = AccelConfig::flex(tiles, pes);
        cfg.cluster = Some(ClusterConfig::new(chips));
        cfg
    }

    #[test]
    fn hier_engine_computes_fib_across_chips() {
        let mut engine = HierEngine::new(cluster_cfg(4, 2, 2), ExecProfile::scalar());
        let out = engine
            .run(Workload::dynamic(
                &mut FibWorker,
                Task::new(FIB, Continuation::host(0), &[16]),
            ))
            .expect("clustered fib must complete");
        assert_eq!(out.result, fib(16));
        // The cluster actually used the link: inter-chip traffic is
        // metered, and both chips executed tasks.
        assert!(out.metrics.get("link.msgs") > 0, "no link traffic");
        let chip0: u64 = (0..4)
            .map(|pe| out.metrics.get(&format!("pe{pe}.tasks")))
            .sum();
        let chip1: u64 = (4..8)
            .map(|pe| out.metrics.get(&format!("pe{pe}.tasks")))
            .sum();
        assert!(chip0 > 0 && chip1 > 0, "both chips must run tasks");
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let run = || {
            let mut cfg = cluster_cfg(4, 2, 2);
            cfg.trace_capacity = 1 << 14;
            let mut engine = HierEngine::new(cfg, ExecProfile::scalar());
            engine
                .run(Workload::dynamic(
                    &mut FibWorker,
                    Task::new(FIB, Continuation::host(0), &[15]),
                ))
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.result, b.result);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert_eq!(a.trace.to_jsonl(), b.trace.to_jsonl());
    }

    #[test]
    fn hierarchical_stealing_crosses_the_link_less_than_flat() {
        // Same 2-chip fabric, same workload: the hierarchical policy's
        // intra-chip-first victim draws must move fewer steal messages over
        // the inter-chip link than the naive flat baseline.
        let flat = {
            let mut cfg = cluster_cfg(4, 2, 2);
            cfg.cluster = Some(ClusterConfig::new(2).flat());
            let mut engine = FlexEngine::new(cfg, ExecProfile::scalar());
            engine
                .run(Workload::dynamic(
                    &mut FibWorker,
                    Task::new(FIB, Continuation::host(0), &[16]),
                ))
                .unwrap()
        };
        let hier = {
            let mut engine = HierEngine::new(cluster_cfg(4, 2, 2), ExecProfile::scalar());
            engine
                .run(Workload::dynamic(
                    &mut FibWorker,
                    Task::new(FIB, Continuation::host(0), &[16]),
                ))
                .unwrap()
        };
        assert_eq!(flat.result, hier.result);
        assert!(
            hier.metrics.get("link.steal_msgs") < flat.metrics.get("link.steal_msgs"),
            "hier {} vs flat {} cross-chip steal messages",
            hier.metrics.get("link.steal_msgs"),
            flat.metrics.get("link.steal_msgs"),
        );
    }

    #[test]
    fn link_occupancy_serializes_and_slows_the_run() {
        let run = |occupancy_cycles: u64| {
            let mut cfg = AccelConfig::flex(4, 2);
            cfg.cluster = Some(ClusterConfig::new(2).flat().with_link(64, occupancy_cycles));
            let mut engine = FlexEngine::new(cfg, ExecProfile::scalar());
            engine
                .run(Workload::dynamic(
                    &mut FibWorker,
                    Task::new(FIB, Continuation::host(0), &[15]),
                ))
                .unwrap()
        };
        let fast = run(1);
        let slow = run(512);
        assert_eq!(fast.result, slow.result);
        assert!(
            slow.elapsed > fast.elapsed,
            "choking link bandwidth must cost time ({} vs {})",
            slow.elapsed,
            fast.elapsed
        );
        assert!(
            slow.metrics.get("link.stall_ps") > fast.metrics.get("link.stall_ps"),
            "bandwidth pressure must surface as link stall time"
        );
    }

    #[test]
    fn cluster_snapshot_restore_resumes_byte_identically() {
        assert_resume_identical_on::<HierPolicy>(|| cluster_cfg(4, 2, 2), 15);
        // The flat baseline on a cluster snapshots link state through the
        // stock Flex policy path.
        assert_resume_identical_on::<FlexPolicy>(
            || {
                let mut cfg = AccelConfig::flex(4, 2);
                cfg.cluster = Some(ClusterConfig::new(2).flat());
                cfg
            },
            15,
        );
    }

    #[test]
    fn cluster_snapshots_are_not_portable_to_single_chip_engines() {
        let mut clustered = HierEngine::new(cluster_cfg(2, 2, 2), ExecProfile::scalar());
        let root = Task::new(FIB, Continuation::host(0), &[10]);
        let _ = clustered
            .run_until(
                Workload::dynamic(&mut FibWorker, root),
                Some(Time::from_ns(50)),
            )
            .unwrap();
        let snap = clustered.snapshot();
        // Same policy family, no cluster: the link payload must be refused.
        let mut single = HierEngine::new(
            {
                let mut cfg = AccelConfig::flex(2, 2);
                cfg.cluster = Some(ClusterConfig::new(1));
                cfg
            },
            ExecProfile::scalar(),
        );
        let err = single.restore(&snap).expect_err("link state mismatch");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err}");
    }
}
