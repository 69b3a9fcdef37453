//! The runtime services every engine embeds.
//!
//! FlexArch, LiteArch, the centralized ablation, the cluster fabric and the
//! CPU baseline differ in how they place and run tasks, not in the services
//! a run needs around that: functional memory, the metrics registry, the
//! tracer, the quiescence watchdog, the telemetry sampler, task ids and the
//! host result slots. [`EngineCore`] owns them once. Through the
//! [`EmbedsCore`] trait it also runs the checks before every simulated step
//! and the end-of-run rollup against the engine around it, and it reads and
//! writes the snapshot fields of its services. [`RootRun`] (launch and
//! drain state) and [`UnitState`] (per-unit busy horizon and steal backoff)
//! are what the two single-root engines, the fabric and the CPU baseline,
//! share on top.

use pxl_mem::Memory;
use pxl_model::serial::HOST_SLOTS;
use pxl_model::{Continuation, Task};
use pxl_sim::json::{self, EventWords, JsonValue};
use pxl_sim::snapshot::{malformed, Snapshot, SnapshotError};
use pxl_sim::{
    Clock, CounterId, EventQueue, Metrics, TelemetrySampler, Time, Timeline, TraceEvent, Tracer,
};

use crate::fabric::{AccelError, AccelResult};

/// One snapshot payload member.
pub type Field = (&'static str, JsonValue);

/// The quiescence watchdog: declares a run stalled when no unit makes
/// forward progress (task completion or argument delivery) for longer than
/// the configured window while work is still outstanding.
#[derive(Debug)]
pub struct Watchdog {
    window: Time,
    last_progress: Time,
    last_unit: Option<usize>,
}

impl Watchdog {
    /// A watchdog that fires after `window` of quiescence.
    pub fn new(window: Time) -> Self {
        Watchdog {
            window,
            last_progress: Time::ZERO,
            last_unit: None,
        }
    }

    /// Records forward progress by `unit` at `at`.
    pub fn progress(&mut self, at: Time, unit: usize) {
        if at >= self.last_progress {
            self.last_progress = at;
            self.last_unit = Some(unit);
        }
    }

    /// Whether the window has elapsed without progress as of `now`.
    pub fn expired(&self, now: Time) -> bool {
        now.saturating_sub(self.last_progress) > self.window
    }

    /// When any unit last made forward progress.
    pub fn last_progress(&self) -> Time {
        self.last_progress
    }
}

/// Registers the canonical fault/watchdog counter families at zero so every
/// engine — fault plan armed or not — reports the same metric namespace
/// (`fault.injected`, `fault.recovered`, `fault.skipped`,
/// `fault.unrecovered`, `watchdog.stalls`).
pub fn register_fault_metrics(metrics: &mut Metrics) {
    metrics.register_counter("fault.injected");
    metrics.register_counter("fault.recovered");
    metrics.register_counter("fault.skipped");
    metrics.register_counter("fault.unrecovered");
    metrics.register_counter("watchdog.stalls");
}

/// A telemetry sampler every `every_cycles` of `clock`; `None` for zero.
fn sampler(clock: &Clock, every_cycles: u64) -> Option<TelemetrySampler> {
    (every_cycles > 0).then(|| TelemetrySampler::new(clock.cycles_to_time(every_cycles)))
}

/// Counter handles resolved on first use, for the engines that register a
/// name only once something counts under it: LiteArch and the CPU baseline
/// (an idle core reports no `core{n}.*`, a single core no `cpu.steal_*`).
/// The fabric registers every name up front instead (`FabricIds`), so its
/// idle PEs report zero. The handles index the registry they were resolved
/// in; [`EngineCore`] forgets them whenever it replaces that registry.
#[derive(Debug, Default)]
struct LazyCounters {
    /// Engine-wide names; `names[i]` is counter `i` of [`EngineCore::count`].
    names: &'static [&'static str],
    /// Prefix of the per-unit pair: unit `u` counts under
    /// `{prefix}{u}.tasks` and `{prefix}{u}.busy_ps`.
    unit_prefix: &'static str,
    named: Vec<Option<CounterId>>,
    units: Vec<Option<[CounterId; 2]>>,
}

impl LazyCounters {
    fn forget(&mut self) {
        self.named.fill(None);
        self.units.fill(None);
    }
}

/// The runtime services every engine embeds. See the module docs.
#[derive(Debug)]
pub struct EngineCore {
    /// Functional memory the workers read and write.
    pub mem: Memory,
    /// The metrics registry; the fault/watchdog families and
    /// `trace.dropped` are registered from construction on. The lazy
    /// counter handles index it, so it is replaced only by
    /// [`EngineCore::restore`] and the end-of-run rollup.
    pub metrics: Metrics,
    /// The engine's structured event trace.
    pub trace: Tracer,
    /// Simulated time past which a run fails as [`AccelError::TimedOut`]:
    /// the hard backstop behind the watchdog.
    pub limit: Time,
    /// The quiescence watchdog.
    pub watchdog: Watchdog,
    /// In-run telemetry sampler; `None` keeps the per-step cost to one
    /// `Option` check.
    pub telemetry: Option<TelemetrySampler>,
    /// Run-unique task instance ids, stamped in dispatch or spawn order so
    /// trace consumers can rebuild the task DAG. Id 0 means "no task"; the
    /// first task gets id 1.
    pub next_task_id: u64,
    /// The host result registers.
    pub host: [Option<u64>; HOST_SLOTS],
    lazy: LazyCounters,
    /// Set by the end-of-run rollup, which hands the registry to the
    /// result; cleared by [`EngineCore::restore`].
    finished: bool,
}

impl EngineCore {
    /// Services for an engine on `clock`: a time limit of
    /// `max_sim_time_us`, a watchdog window of `watchdog_cycles`, a trace
    /// bounded to `trace_capacity` records (zero disables it) and a
    /// telemetry epoch of `telemetry_every_cycles` (zero disables it).
    pub fn new(
        clock: &Clock,
        max_sim_time_us: u64,
        watchdog_cycles: u64,
        trace_capacity: usize,
        telemetry_every_cycles: u64,
    ) -> Self {
        EngineCore {
            mem: Memory::new(),
            metrics: EngineCore::fresh_metrics(),
            trace: Tracer::bounded(trace_capacity),
            limit: Time::from_us(max_sim_time_us),
            watchdog: Watchdog::new(clock.cycles_to_time(watchdog_cycles)),
            telemetry: sampler(clock, telemetry_every_cycles),
            next_task_id: 1,
            host: [None; HOST_SLOTS],
            lazy: LazyCounters::default(),
            finished: false,
        }
    }

    /// Refuses a run leg on an engine whose run has finished: the rollup
    /// moved its metrics into the result, so nothing is left to run on
    /// until a snapshot is restored.
    ///
    /// # Errors
    ///
    /// [`AccelError::Finished`] once [`EmbedsCore::finish_run`] has run.
    pub fn check_runnable(&self) -> Result<(), AccelError> {
        if self.finished {
            return Err(AccelError::Finished);
        }
        Ok(())
    }

    /// Names the counters [`EngineCore::count`] and
    /// [`EngineCore::count_task`] register on first use: `names[i]` is
    /// engine-wide counter `i`, and each of `units` units `u` counts its
    /// tasks and busy time under `{unit_prefix}{u}.tasks` and
    /// `{unit_prefix}{u}.busy_ps`. A name enters the registry, and so the
    /// snapshot and the report, only once something counts under it.
    pub fn with_lazy_counters(
        mut self,
        names: &'static [&'static str],
        unit_prefix: &'static str,
        units: usize,
    ) -> Self {
        self.lazy = LazyCounters {
            names,
            unit_prefix,
            named: vec![None; names.len()],
            units: vec![None; units],
        };
        self
    }

    /// Adds `delta` to engine-wide lazy counter `i`, registering its name
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `i` names no counter of [`EngineCore::with_lazy_counters`].
    #[inline]
    pub fn count(&mut self, i: usize, delta: u64) {
        let id = match self.lazy.named[i] {
            Some(id) => id,
            None => *self.lazy.named[i].insert(self.metrics.register_counter(self.lazy.names[i])),
        };
        self.metrics.add_to(id, delta);
    }

    /// Counts one task of `busy_ps` on `unit`, registering the unit's
    /// `tasks`/`busy_ps` pair on its first task.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is past the units of
    /// [`EngineCore::with_lazy_counters`].
    #[inline]
    pub fn count_task(&mut self, unit: usize, busy_ps: u64) {
        let [tasks, busy] = match self.lazy.units[unit] {
            Some(ids) => ids,
            None => self.resolve_unit(unit),
        };
        self.metrics.inc(tasks);
        self.metrics.add_to(busy, busy_ps);
    }

    #[cold]
    fn resolve_unit(&mut self, unit: usize) -> [CounterId; 2] {
        let prefix = self.lazy.unit_prefix;
        *self.lazy.units[unit].insert([
            self.metrics
                .register_counter(&format!("{prefix}{unit}.tasks")),
            self.metrics
                .register_counter(&format!("{prefix}{unit}.busy_ps")),
        ])
    }

    /// Installs `metrics` as the registry and returns the old one. Every
    /// lazy handle indexes the old registry, so all are forgotten here.
    fn replace_metrics(&mut self, metrics: Metrics) -> Metrics {
        self.lazy.forget();
        std::mem::replace(&mut self.metrics, metrics)
    }

    fn fresh_metrics() -> Metrics {
        let mut metrics = Metrics::new();
        register_fault_metrics(&mut metrics);
        metrics.register_counter("trace.dropped");
        metrics
    }

    /// Samples telemetry every `every_cycles` of `clock`; zero disables it.
    /// Configure before launching (or restoring) a run.
    pub fn set_telemetry_every(&mut self, clock: &Clock, every_cycles: u64) {
        self.telemetry = sampler(clock, every_cycles);
    }

    /// Hands out the next run-unique task instance id.
    pub fn alloc_task_id(&mut self) -> u64 {
        let id = self.next_task_id;
        self.next_task_id += 1;
        id
    }

    /// Value delivered to a host result register, if any.
    pub fn host_result(&self, slot: u8) -> Option<u64> {
        self.host.get(slot as usize).copied().flatten()
    }

    /// Builds the [`AccelError::Stalled`] diagnosis, emitting the
    /// `watchdog.stall` trace event and counter. `blocked_unit` is a unit
    /// still holding undispatchable work, if the caller found one
    /// (`num_pes` denotes the host interface block).
    pub fn stall(&mut self, now: Time, blocked_unit: Option<usize>) -> AccelError {
        let last_unit = self.watchdog.last_unit;
        let idle_ps = now.saturating_sub(self.watchdog.last_progress).as_ps();
        self.metrics.incr("watchdog.stalls");
        self.trace.emit(
            now,
            TraceEvent::WatchdogStall {
                unit: last_unit.map_or(u32::MAX, |u| u as u32),
                idle_ps,
            },
        );
        AccelError::Stalled {
            last_unit,
            idle_us: idle_ps / 1_000_000,
            blocked_unit,
        }
    }

    /// Records an injected fault: the `fault.injected` counter plus a
    /// [`TraceEvent::FaultInjected`] at `at`.
    pub fn record_injected(&mut self, at: Time, spec: usize, unit: usize) {
        self.metrics.incr("fault.injected");
        self.trace.emit(
            at,
            TraceEvent::FaultInjected {
                spec: spec as u32,
                unit: unit as u32,
            },
        );
    }

    /// Records a recovered fault: the `fault.recovered` counter plus a
    /// [`TraceEvent::FaultRecovered`] at `at`.
    pub fn record_recovered(&mut self, at: Time, spec: usize, unit: usize) {
        self.metrics.incr("fault.recovered");
        self.trace.emit(
            at,
            TraceEvent::FaultRecovered {
                spec: spec as u32,
                unit: unit as u32,
            },
        );
    }

    /// Seals a snapshot of engine kind `engine`. The payload holds, in
    /// order: `head` (the engine's own leading fields), the core's
    /// `watchdog`, `metrics` and `mem`, the engine's memory timing model
    /// (`memory`, under the engine's key), the core's `trace`, `tail` (the
    /// engine's optional fields), and last the core's `telemetry` when the
    /// engine samples.
    pub fn snapshot(
        &self,
        engine: &str,
        mut head: Vec<Field>,
        memory: Field,
        tail: Vec<Field>,
    ) -> Snapshot {
        let watchdog = json::obj(vec![
            ("last_progress_ps", json::word(&self.watchdog.last_progress)),
            ("last_unit", json::word(&self.watchdog.last_unit)),
        ]);
        head.extend([
            ("watchdog", watchdog),
            ("metrics", self.metrics.to_json_value()),
            ("mem", self.mem.state_to_json_value()),
            memory,
            ("trace", self.trace.state_to_json_value()),
        ]);
        head.extend(tail);
        if let Some(telemetry) = &self.telemetry {
            head.push(("telemetry", telemetry.state_to_json_value()));
        }
        Snapshot::new(engine, json::obj(head))
    }

    /// Restores the core's fields of a payload [`EngineCore::snapshot`]
    /// wrote: `next_task_id`, the watchdog, metrics, memory, trace and
    /// telemetry. The metrics registry is rebuilt: `register` re-registers
    /// the engine's typed handles in construction order, then the saved
    /// values merge into the fresh slots. A finished engine becomes
    /// runnable again.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for a missing or mistyped field, and
    /// when the snapshot and this engine disagree on sampling telemetry or
    /// on its epoch width.
    pub fn restore(
        &mut self,
        p: &JsonValue,
        register: impl FnOnce(&mut Metrics),
    ) -> Result<(), SnapshotError> {
        self.finished = false;
        self.next_task_id = json::get_word(p, "next_task_id")?;
        let watchdog = json::get(p, "watchdog")?;
        self.watchdog.last_progress = json::get_word(watchdog, "last_progress_ps")?;
        self.watchdog.last_unit = json::get_word(watchdog, "last_unit")?;
        let saved = Metrics::from_json_value(json::get(p, "metrics")?)
            .map_err(|e| malformed(format!("metrics: {e}")))?;
        let mut metrics = EngineCore::fresh_metrics();
        register(&mut metrics);
        metrics.merge(&saved);
        self.replace_metrics(metrics);
        self.mem
            .restore_state(json::get(p, "mem")?)
            .map_err(malformed)?;
        self.trace = Tracer::state_from_json_value(json::get(p, "trace")?).map_err(malformed)?;
        let telemetry = paired(
            self.telemetry.as_mut(),
            p.get("telemetry"),
            "this engine samples telemetry, the snapshot does not",
            "the snapshot carries telemetry state, this engine has telemetry off",
        )?;
        if let Some((telemetry, saved)) = telemetry {
            let restored = TelemetrySampler::state_from_json_value(saved).map_err(malformed)?;
            if restored.every() != telemetry.every() {
                return Err(malformed("telemetry epoch width mismatch"));
            }
            *telemetry = restored;
        }
        Ok(())
    }

    /// The `host` field of the single-root engines: one array per slot,
    /// `[]` when unwritten and `[value]` otherwise.
    pub fn host_cells(&self) -> JsonValue {
        JsonValue::Array(self.host.iter().map(json::words).collect())
    }

    /// Restores the slots [`EngineCore::host_cells`] wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] unless `host` holds exactly
    /// [`HOST_SLOTS`] cells of zero or one `u64`.
    pub fn read_host_cells(&mut self, p: &JsonValue) -> Result<(), SnapshotError> {
        for (slot, cell) in self
            .host
            .iter_mut()
            .zip(json::get_arr_n(p, "host", HOST_SLOTS)?)
        {
            *slot = json::cell_of::<u64, 1>(cell, "host")?.map(|[v]| v);
        }
        Ok(())
    }
}

/// Pairs an optional part of an engine with the payload member that saves
/// it: both present, or neither.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] with `only_engine` when the engine has the
/// part and the snapshot lacks it, or `only_snapshot` the other way round.
pub(crate) fn paired<'a, T>(
    part: Option<T>,
    saved: Option<&'a JsonValue>,
    only_engine: &str,
    only_snapshot: &str,
) -> Result<Option<(T, &'a JsonValue)>, SnapshotError> {
    match (part, saved) {
        (Some(part), Some(saved)) => Ok(Some((part, saved))),
        (None, None) => Ok(None),
        (Some(_), None) => Err(malformed(only_engine)),
        (None, Some(_)) => Err(malformed(only_snapshot)),
    }
}

/// The `events` field: one word array per pending event, the event's time
/// in picoseconds followed by `words(event)`, in pop order.
pub fn events_to_json<E>(
    events: &EventQueue<E>,
    mut words: impl FnMut(&E) -> Vec<u64>,
) -> JsonValue {
    JsonValue::Array(
        events
            .ordered()
            .into_iter()
            .map(|(when, event)| {
                let mut all = vec![when.as_ps()];
                all.extend(words(event));
                json::arr_u64(all)
            })
            .collect(),
    )
}

/// Refills `events` from the field [`events_to_json`] wrote, decoding each
/// event body from its tag on with `decode`, which must read every word.
/// Re-pushing in pop order reproduces every tie-break.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] for a non-`u64` word, an entry without a
/// time and a tag, a body `decode` refuses or one with words left over.
pub fn read_events<E>(
    p: &JsonValue,
    events: &mut EventQueue<E>,
    mut decode: impl FnMut(&mut EventWords) -> Result<E, String>,
) -> Result<(), SnapshotError> {
    events.clear();
    for entry in json::get_arr(p, "events")? {
        let words = json::words_of(entry, "events")?;
        let [when, tag, ref fields @ ..] = words[..] else {
            return Err(malformed("events: an entry holds no time and tag"));
        };
        let mut body = EventWords::new(tag, fields);
        let event = decode(&mut body)
            .and_then(|event| body.end().map(|()| event))
            .map_err(|e| malformed(format!("events: {e}")))?;
        events.push(Time::from_ps(when), event);
    }
    Ok(())
}

/// Reads a continuation word of a snapshot's event: a host slot must lie
/// in `0..HOST_SLOTS`, a P-Store target in `0..tiles` tiles and
/// `0..pstore_entries` entries, and the word must be the encoding of the
/// continuation it decodes to (no stray bits).
///
/// # Errors
///
/// Names the word and what is wrong with it.
pub fn continuation_in(
    word: u64,
    tiles: usize,
    pstore_entries: usize,
) -> Result<Continuation, String> {
    let k = Continuation::decode(word);
    if k.encode() != word {
        return Err(format!(
            "continuation word {word:#x} does not re-encode to itself"
        ));
    }
    match k {
        Continuation::Host { slot } => json::index_in(slot.into(), HOST_SLOTS, "host slot")?,
        Continuation::PStore { tile, entry, .. } => {
            json::index_in(tile.into(), tiles, "continuation tile")?;
            json::index_in(entry.into(), pstore_entries, "P-Store entry")?
        }
    };
    Ok(k)
}

/// Launch and drain state of a run from one root task: the fabric's and the
/// CPU baseline's.
#[derive(Debug, Default)]
pub struct RootRun {
    /// Whether the root task has been seeded. A restored engine is already
    /// launched, so launching again is a no-op.
    pub launched: bool,
    /// Host slot the root continuation targets, latched at launch so a
    /// paused or restored engine can still finish the run.
    pub result_slot: Option<u8>,
    /// Tasks spawned or made ready and not yet completed.
    pub outstanding: u64,
    /// Simulated time of the last useful event: the run's elapsed time.
    pub last_useful: Time,
}

impl RootRun {
    /// Latches `root`'s result slot and returns it stamped with the first
    /// task id, for the engine to seed; `None` when already launched.
    pub fn launch(&mut self, core: &mut EngineCore, root: Task) -> Option<Task> {
        if self.launched {
            return None;
        }
        self.launched = true;
        self.result_slot = match root.k {
            Continuation::Host { slot } => Some(slot),
            _ => None,
        };
        self.outstanding = 1;
        Some(root.with_id(core.alloc_task_id()))
    }

    /// The value the root delivered, or zero for a root that reports to no
    /// host slot.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoResult`] when the root's slot was never written.
    pub fn result(&self, core: &EngineCore) -> Result<u64, AccelError> {
        match self.result_slot {
            Some(slot) => core.host[slot as usize].ok_or(AccelError::NoResult { slot }),
            None => Ok(0),
        }
    }

    /// The leading payload fields: `launched`, `result_slot`,
    /// `next_task_id`, `outstanding` and `last_useful_ps`.
    pub fn fields(&self, core: &EngineCore) -> Vec<Field> {
        vec![
            ("launched", json::word(&self.launched)),
            (
                "result_slot",
                json::word(&self.result_slot.map(usize::from)),
            ),
            ("next_task_id", json::num(core.next_task_id)),
            ("outstanding", json::num(self.outstanding)),
            ("last_useful_ps", json::word(&self.last_useful)),
        ]
    }

    /// Reads the fields [`RootRun::fields`] wrote, except `next_task_id`,
    /// which [`EngineCore::restore`] reads.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for a missing field, a `launched` word
    /// other than 0 or 1, or a `result_slot` naming no host slot.
    pub fn read(p: &JsonValue) -> Result<RootRun, SnapshotError> {
        let result_slot = json::get_word::<Option<usize>>(p, "result_slot")?;
        if let Some(slot) = result_slot.filter(|&s| s >= HOST_SLOTS) {
            return Err(malformed(format!(
                "result_slot {} names no host slot (1..={HOST_SLOTS}, or 0 for none)",
                slot as u64 + 1
            )));
        }
        Ok(RootRun {
            launched: json::get_word(p, "launched")?,
            result_slot: result_slot.map(|s| s as u8),
            outstanding: json::get_word(p, "outstanding")?,
            last_useful: json::get_word(p, "last_useful_ps")?,
        })
    }
}

/// Hot per-unit scheduling state of the event-driven engines (fabric PEs,
/// CPU cores) as parallel dense arrays: the dispatch loop reads
/// `busy_until` on every wake and `steal_fails` on every steal outcome.
#[derive(Debug)]
pub struct UnitState {
    /// Completion horizon per unit: wakes before this instant are ignored.
    pub busy_until: Vec<Time>,
    /// Consecutive failed steals per unit, bounding the backoff shift.
    pub steal_fails: Vec<u32>,
}

impl UnitState {
    /// Idle state for `units` units.
    pub fn new(units: usize) -> Self {
        UnitState {
            busy_until: vec![Time::ZERO; units],
            steal_fails: vec![0; units],
        }
    }

    /// Whether `unit` is still running its last task at `now`.
    pub fn is_busy(&self, unit: usize, now: Time) -> bool {
        now < self.busy_until[unit]
    }

    /// Counts a failed steal by `unit`; returns the backoff shift, which
    /// doubles the backoff per consecutive failure up to 2^6.
    pub fn failed_steal(&mut self, unit: usize) -> u32 {
        let fails = self.steal_fails[unit].min(6);
        self.steal_fails[unit] = self.steal_fails[unit].saturating_add(1);
        fails
    }

    /// The `steal_fails` and `busy_until_ps` payload fields.
    pub fn fields(&self) -> [Field; 2] {
        [
            ("steal_fails", json::words(&self.steal_fails)),
            ("busy_until_ps", json::words(&self.busy_until)),
        ]
    }

    /// Restores the fields [`UnitState::fields`] wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the snapshot describes a different
    /// unit count or a fail count past `u32`.
    pub fn read(&mut self, p: &JsonValue) -> Result<(), SnapshotError> {
        let units = self.busy_until.len();
        self.steal_fails = json::get_words_n(p, "steal_fails", units)?;
        self.busy_until = json::get_words_n(p, "busy_until_ps", units)?;
        Ok(())
    }
}

/// An engine built around an [`EngineCore`]: what the core's per-step
/// checks and end-of-run rollup need from the engine that embeds it.
pub trait EmbedsCore {
    /// The embedded services.
    fn core(&self) -> &EngineCore;

    /// The embedded services, mutably.
    fn core_mut(&mut self) -> &mut EngineCore;

    /// Instantaneous engine gauges recorded with every telemetry sample.
    fn gauges(&self, now: Time) -> Vec<(&'static str, u64)>;

    /// A unit still holding undispatchable work, named in a stall
    /// diagnosis.
    fn blocked_unit(&self) -> Option<usize> {
        None
    }

    /// Takes a telemetry sample at `now` if an epoch boundary has passed.
    #[inline]
    fn sample_if_due(&mut self, now: Time) {
        if self.core().telemetry.as_ref().is_some_and(|t| t.due(now)) {
            let gauges = self.gauges(now);
            let core = self.core_mut();
            if let Some(t) = core.telemetry.as_mut() {
                t.tick(now, &core.metrics, &gauges);
            }
        }
    }

    /// The checks an event-driven engine makes before handling the step at
    /// `now`: the hard time limit, then the watchdog, then a telemetry
    /// sample at the epoch boundary *before* the step that crossed it, so a
    /// resumed leg replays the sample identically.
    ///
    /// # Errors
    ///
    /// [`AccelError::TimedOut`] past the limit, [`AccelError::Stalled`] when
    /// the watchdog's window has passed without progress.
    #[inline]
    fn check_step(&mut self, now: Time) -> Result<(), AccelError> {
        if now > self.core().limit {
            return Err(AccelError::TimedOut);
        }
        if self.core().watchdog.expired(now) {
            let blocked = self.blocked_unit();
            return Err(self.core_mut().stall(now, blocked));
        }
        self.sample_if_due(now);
        Ok(())
    }

    /// The end-of-run rollup. Closes the final telemetry window at
    /// `elapsed` first, so the last sample's deltas cover only in-run
    /// activity. Then `rollup` lands the engine's end-of-run metrics and
    /// returns its memory system's trace, which the core's trace absorbs
    /// before `trace.dropped` is counted and the result is built.
    fn finish_run(
        &mut self,
        result: u64,
        elapsed: Time,
        rollup: impl FnOnce(&mut Self) -> Tracer,
    ) -> AccelResult
    where
        Self: Sized,
    {
        let gauges = self.gauges(elapsed);
        let core = self.core_mut();
        let timeline = match core.telemetry.as_mut() {
            Some(t) => {
                t.flush(elapsed, &core.metrics, &gauges);
                t.take_timeline()
            }
            None => Timeline::default(),
        };
        let mem_trace = rollup(self);
        let core = self.core_mut();
        let mut trace = std::mem::take(&mut core.trace);
        trace.absorb(mem_trace);
        trace.finish();
        core.metrics.add("trace.dropped", trace.dropped());
        core.finished = true;
        AccelResult {
            result,
            elapsed,
            metrics: core.replace_metrics(Metrics::new()),
            trace,
            timeline,
        }
    }
}
