//! Scheduling policies: the part of an accelerator that decides *where
//! ready tasks live* and *how idle PEs acquire them*.
//!
//! The paper's architectural variable is task distribution — FlexArch's
//! hardware work stealing vs. LiteArch's static rounds — while the task
//! model, P-Store joins, memory system and fault story are shared fabric
//! ([`crate::fabric`]). A [`SchedulingPolicy`] owns exactly that variable
//! for event-driven engines:
//!
//! * [`FlexPolicy`] — per-PE LIFO deques, LFSR (or round-robin) victim
//!   selection, steal-from-head; the paper's Fig. 3(b) TMU.
//! * [`CentralPolicy`] — the implicit strawman: one global ready queue at
//!   the interface block, every acquisition serialized through its single
//!   port. The Flex-vs-central ablation quantifies what distributed
//!   hardware stealing buys.
//!
//! LiteArch's placement rule is not event-driven (the interface block
//! assigns a whole round up front), so it is not a policy: it lives in
//! [`crate::lite`], next to the static fault schedule it applies.
//!
//! See `docs/fabric.md` for how to add a policy; `examples/custom_policy.rs`
//! runs a user-defined one end to end.

use std::collections::VecDeque;

use pxl_model::{Task, TASK_WORDS};
use pxl_sim::json::{self, JsonValue};
use pxl_sim::{Lfsr16, Time};

use crate::api::EngineKind;
use crate::config::{AccelConfig, ArchKind, LocalOrder, StealEnd, VictimSelect};
use crate::deque::TaskDeque;

/// Task placement and acquisition for the event-driven fabric
/// ([`crate::fabric::FabricEngine`]).
///
/// The fabric calls the policy at well-defined points of its event loop and
/// owns everything else (dispatch costs, faults, watchdog, tracing,
/// metrics). A policy therefore only decides: where a pushed task is
/// stored, what an idle PE pops locally, which unit a starving PE sends its
/// acquire request to, and how the victim serves that request. The victim
/// index `num_pes` denotes the host interface block.
pub trait SchedulingPolicy: std::fmt::Debug {
    /// Builds policy state for a validated configuration.
    fn for_config(cfg: &AccelConfig) -> Self
    where
        Self: Sized;

    /// Engine family label this policy instantiates.
    fn kind(&self) -> EngineKind;

    /// Architecture a configuration must name to drive this policy.
    fn arch(&self) -> ArchKind;

    /// Installs the root task at the host interface before launch.
    fn seed(&mut self, root: Task);

    /// Stores a ready task for `pe`, visible to consumers from `at`.
    /// Returns the task back on overflow (the fabric reports
    /// [`crate::AccelError::QueueFull`]).
    fn push(&mut self, pe: usize, task: Task, at: Time) -> Result<(), Task>;

    /// Pops local work for `pe` visible at `now`, free of network charge.
    /// Policies without per-PE storage return `None`, forcing every
    /// acquisition through the remote path.
    fn pop_local(&mut self, pe: usize, now: Time) -> Option<Task>;

    /// The unit an idle `pe` sends its remote acquire request to: another
    /// PE, or `num_pes` for the host interface block.
    fn acquire_target(&mut self, pe: usize) -> usize;

    /// Serves an acquire request arriving at `victim` at `now`. `service`
    /// is the cost model's steal-service latency and `pred` filters tasks
    /// the thief can execute. Returns the granted task (if any) and the
    /// time service completed — a policy models queue-port contention by
    /// stretching that completion time.
    fn serve_acquire(
        &mut self,
        victim: usize,
        now: Time,
        service: Time,
        pred: &dyn Fn(&Task) -> bool,
    ) -> (Option<Task>, Time);

    /// Whether `pe`'s local storage holds no tasks (watchdog diagnosis and
    /// dead-PE rescue accounting).
    fn unit_queue_empty(&self, pe: usize) -> bool;

    /// Whether the host interface holds no tasks (watchdog diagnosis).
    fn host_queue_empty(&self) -> bool;

    /// `(max, sum)` of per-queue occupancy peaks, for the space-bound
    /// statistics (`accel.queue_peak`, `accel.queue_peak_sum`).
    fn queue_peaks(&self) -> (u64, u64);

    /// Total tasks currently queued across every store this policy owns
    /// (per-PE deques plus the host interface) — the instantaneous
    /// ready-task gauge the telemetry sampler records each epoch.
    fn ready_tasks(&self) -> u64;

    /// Serializes the policy's mutable state (queue contents, RNG
    /// registers, rotation cursors) for engine snapshots. Configuration-
    /// derived fields are rebuilt by [`SchedulingPolicy::for_config`] on
    /// restore, not serialized.
    fn state_to_json_value(&self) -> JsonValue;

    /// Replaces the policy's mutable state with one captured by
    /// [`SchedulingPolicy::state_to_json_value`] on a policy built from the
    /// same configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when the state is malformed or shaped for a
    /// different configuration.
    fn restore_state(&mut self, value: &JsonValue) -> Result<(), String>;
}

/// FlexArch's distributed work stealing (the paper's Fig. 3(b) TMU).
///
/// Each PE owns a bounded task deque; idle PEs pop their configured local
/// end, then steal: a 16-bit LFSR (or round-robin rotation, under the
/// ablation's [`VictimSelect::RoundRobin`]) picks a victim among the other
/// PEs and the host interface block, and the victim serves the configured
/// steal end of its deque.
#[derive(Debug)]
pub struct FlexPolicy {
    deques: Vec<TaskDeque>,
    lfsrs: Vec<Lfsr16>,
    rr_victim: Vec<usize>,
    host_queue: VecDeque<Task>,
    local_order: LocalOrder,
    steal_end: StealEnd,
    victim_select: VictimSelect,
    num_pes: usize,
}

impl SchedulingPolicy for FlexPolicy {
    fn for_config(cfg: &AccelConfig) -> Self {
        let num_pes = cfg.num_pes();
        FlexPolicy {
            deques: (0..num_pes)
                .map(|_| TaskDeque::new(cfg.task_queue_entries))
                .collect(),
            lfsrs: (0..num_pes)
                .map(|i| Lfsr16::new(0xACE1 ^ (i as u16).wrapping_mul(0x9E37)))
                .collect(),
            rr_victim: (0..num_pes).collect(),
            host_queue: VecDeque::new(),
            local_order: cfg.policy.local_order,
            steal_end: cfg.policy.steal_end,
            victim_select: cfg.policy.victim_select,
            num_pes,
        }
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Flex
    }

    fn arch(&self) -> ArchKind {
        ArchKind::Flex
    }

    fn seed(&mut self, root: Task) {
        self.host_queue.push_back(root);
    }

    fn push(&mut self, pe: usize, task: Task, at: Time) -> Result<(), Task> {
        self.deques[pe].push_tail(task, at)
    }

    fn pop_local(&mut self, pe: usize, now: Time) -> Option<Task> {
        match self.local_order {
            LocalOrder::Lifo => self.deques[pe].pop_tail(now),
            LocalOrder::Fifo => self.deques[pe].pop_head(now),
        }
    }

    fn acquire_target(&mut self, pe: usize) -> usize {
        // Victim space: all other PEs plus the host interface block.
        let num_pes = self.num_pes;
        if num_pes == 1 {
            return num_pes; // only the IF is stealable
        }
        match self.victim_select {
            VictimSelect::Lfsr => {
                let mut v = self.lfsrs[pe].next_in_range(num_pes + 1);
                if v == pe {
                    v = num_pes;
                }
                v
            }
            VictimSelect::RoundRobin => {
                let mut v = (self.rr_victim[pe] + 1) % (num_pes + 1);
                if v == pe {
                    v = (v + 1) % (num_pes + 1);
                }
                self.rr_victim[pe] = v;
                v
            }
        }
    }

    fn serve_acquire(
        &mut self,
        victim: usize,
        now: Time,
        service: Time,
        pred: &dyn Fn(&Task) -> bool,
    ) -> (Option<Task>, Time) {
        let done = now + service;
        let task = if victim == self.num_pes {
            // The interface block's task is taken only by a supporting PE.
            match self.host_queue.front() {
                Some(t) if pred(t) => self.host_queue.pop_front(),
                _ => None,
            }
        } else {
            match self.steal_end {
                StealEnd::Head => self.deques[victim].steal_head_if(done, pred),
                StealEnd::Tail => match self.deques[victim].pop_tail(done) {
                    Some(t) if pred(&t) => Some(t),
                    Some(t) => {
                        // Put an unsupported task back (hardware would not
                        // have offered it).
                        let _ = self.deques[victim].push_tail(t, done);
                        None
                    }
                    None => None,
                },
            }
        };
        (task, done)
    }

    fn unit_queue_empty(&self, pe: usize) -> bool {
        self.deques[pe].is_empty()
    }

    fn host_queue_empty(&self) -> bool {
        self.host_queue.is_empty()
    }

    fn queue_peaks(&self) -> (u64, u64) {
        let max = self.deques.iter().map(TaskDeque::peak).max().unwrap_or(0);
        let sum: usize = self.deques.iter().map(TaskDeque::peak).sum();
        (max as u64, sum as u64)
    }

    fn ready_tasks(&self) -> u64 {
        let queued: usize = self.deques.iter().map(TaskDeque::len).sum();
        (queued + self.host_queue.len()) as u64
    }

    fn state_to_json_value(&self) -> JsonValue {
        let deques = self.deques.iter().map(TaskDeque::state_to_json_value);
        let host_queue = self.host_queue.iter().map(|t| json::arr_u64(t.to_words()));
        json::obj(vec![
            ("deques", JsonValue::Array(deques.collect())),
            (
                "lfsrs",
                json::arr_u64(self.lfsrs.iter().map(|l| u64::from(l.state()))),
            ),
            ("rr_victim", json::words(&self.rr_victim)),
            ("host_queue", JsonValue::Array(host_queue.collect())),
        ])
    }

    fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        let deque_states = json::get_arr_n(value, "deques", self.num_pes)?;
        let lfsrs: Vec<u16> = json::get_words_n(value, "lfsrs", self.num_pes)?;
        let rr_victim: Vec<usize> = json::get_words_n(value, "rr_victim", self.num_pes)?;
        // Round-robin victims cycle over the PEs and the host block
        // (unit `num_pes`); nothing past it is reachable.
        if let Some(v) = rr_victim.iter().find(|v| **v > self.num_pes) {
            return Err(format!(
                "policy state: rr_victim {v} is past unit {}",
                self.num_pes
            ));
        }
        let host_queue = json::get_arr(value, "host_queue")?
            .iter()
            .map(|entry| {
                Task::from_words(&json::record_of::<u64, TASK_WORDS>(entry, "host_queue")?)
            })
            .collect::<Result<_, String>>()?;
        for (deque, state) in self.deques.iter_mut().zip(deque_states) {
            deque.restore_state(state)?;
        }
        self.lfsrs = lfsrs.into_iter().map(Lfsr16::new).collect();
        self.rr_victim = rr_victim;
        self.host_queue = host_queue;
        Ok(())
    }
}

/// The centralized shared-queue strawman: one global ready queue at the
/// host interface block.
///
/// Every ready task — the root, every spawn, every completed join — lands
/// in the same FIFO queue, and every idle PE must fetch over the network
/// from unit `num_pes`. The queue has a single port: concurrent
/// acquisitions serialize, each paying [`crate::ArchCosts`]'
/// `central_queue_cycles` after the port frees up. That serialization point
/// is precisely what FlexArch's distributed deques remove, which is what
/// the Flex-vs-Lite-vs-central ablation measures.
///
/// The queue's capacity is the aggregate of the per-PE budget
/// (`task_queue_entries * num_pes`), so a workload that fits FlexArch's
/// distributed storage also fits the central queue.
#[derive(Debug)]
pub struct CentralPolicy {
    queue: TaskDeque,
    /// When the queue's single port next becomes free.
    next_free: Time,
    /// Per-access occupancy of the port.
    access: Time,
    num_pes: usize,
}

impl SchedulingPolicy for CentralPolicy {
    fn for_config(cfg: &AccelConfig) -> Self {
        let num_pes = cfg.num_pes();
        CentralPolicy {
            queue: TaskDeque::new(cfg.task_queue_entries.saturating_mul(num_pes)),
            next_free: Time::ZERO,
            access: cfg.clock.cycles_to_time(cfg.costs.central_queue_cycles),
            num_pes,
        }
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Central
    }

    fn arch(&self) -> ArchKind {
        ArchKind::Central
    }

    fn seed(&mut self, root: Task) {
        let _ = self.queue.push_tail(root, Time::ZERO);
    }

    fn push(&mut self, _pe: usize, task: Task, at: Time) -> Result<(), Task> {
        self.queue.push_tail(task, at)
    }

    fn pop_local(&mut self, _pe: usize, _now: Time) -> Option<Task> {
        // No per-PE storage: every acquisition goes through the global
        // queue's port, paying the round trip and any contention.
        None
    }

    fn acquire_target(&mut self, _pe: usize) -> usize {
        self.num_pes // always the interface block's global queue
    }

    fn serve_acquire(
        &mut self,
        _victim: usize,
        now: Time,
        _service: Time,
        pred: &dyn Fn(&Task) -> bool,
    ) -> (Option<Task>, Time) {
        // Single-port contention: the request waits for the port, then
        // occupies it for one access regardless of hit or miss.
        let start = self.next_free.max(now);
        let done = start + self.access;
        self.next_free = done;
        // FIFO service from the head keeps the oldest ready task first.
        let task = self.queue.steal_head_if(done, pred);
        (task, done)
    }

    fn unit_queue_empty(&self, _pe: usize) -> bool {
        true // PEs hold no tasks; everything lives at the IF
    }

    fn host_queue_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn queue_peaks(&self) -> (u64, u64) {
        let peak = self.queue.peak() as u64;
        (peak, peak)
    }

    fn ready_tasks(&self) -> u64 {
        self.queue.len() as u64
    }

    fn state_to_json_value(&self) -> JsonValue {
        json::obj(vec![
            ("queue", self.queue.state_to_json_value()),
            ("next_free_ps", json::num(self.next_free.as_ps())),
        ])
    }

    fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        let next_free = json::get_word(value, "next_free_ps")?;
        self.queue.restore_state(json::get(value, "queue")?)?;
        self.next_free = Time::from_ps(next_free);
        Ok(())
    }
}

/// Topology-aware work stealing for multi-chip clusters
/// ([`crate::config::ClusterConfig`]): FlexArch's TMU with a two-level
/// victim space.
///
/// Placement, local pops, and victim-side service are exactly
/// [`FlexPolicy`]'s. Victim *selection* is hierarchical: while a thief's
/// consecutive-failure count sits below the cluster's spill threshold, the
/// LFSR draws only among the thief's own chip's PEs (plus the host
/// interface); past the threshold it widens to the whole cluster, accepting
/// the inter-chip link charge for the chance of finding work. The failure
/// count resets whenever local work appears (a successful pop or a push to
/// the PE).
///
/// On a 1-chip cluster every draw delegates verbatim to [`FlexPolicy`], so
/// the policy is byte-identical to stock FlexArch — the golden gate the
/// cluster tests pin.
#[derive(Debug)]
pub struct HierPolicy {
    inner: FlexPolicy,
    chips: usize,
    pes_per_chip: usize,
    spill_threshold: u32,
    /// Per-PE consecutive failed-acquisition count since local work last
    /// appeared.
    fails: Vec<u32>,
}

impl HierPolicy {
    /// Intra-chip victim draw for `pe`: its own chip's other PEs plus the
    /// host interface block, mirroring [`FlexPolicy::acquire_target`]'s
    /// self-maps-to-host rule within the reduced span.
    fn intra_chip_target(&mut self, pe: usize) -> usize {
        let num_pes = self.inner.num_pes;
        let per_chip = self.pes_per_chip;
        let base = (pe / per_chip) * per_chip;
        match self.inner.victim_select {
            VictimSelect::Lfsr => {
                let r = self.inner.lfsrs[pe].next_in_range(per_chip + 1);
                let v = if r == per_chip { num_pes } else { base + r };
                if v == pe {
                    num_pes
                } else {
                    v
                }
            }
            VictimSelect::RoundRobin => {
                // The rotation cursor stores global victim indices; cycle it
                // through the chip-local span (own PEs, then the host IF).
                let cur = self.inner.rr_victim[pe];
                let local = if cur >= base && cur < base + per_chip {
                    cur - base
                } else {
                    per_chip
                };
                let mut next = (local + 1) % (per_chip + 1);
                if base + next == pe {
                    next = (next + 1) % (per_chip + 1);
                }
                let v = if next == per_chip {
                    num_pes
                } else {
                    base + next
                };
                self.inner.rr_victim[pe] = v;
                v
            }
        }
    }
}

impl SchedulingPolicy for HierPolicy {
    fn for_config(cfg: &AccelConfig) -> Self {
        let inner = FlexPolicy::for_config(cfg);
        let chips = cfg.chips();
        let spill_threshold = match cfg.cluster.map(|c| c.stealing) {
            Some(crate::config::StealMode::Hierarchical { spill_threshold }) => spill_threshold,
            // Flat (or no) cluster stealing: always draw cluster-wide.
            _ => 0,
        };
        HierPolicy {
            pes_per_chip: inner.num_pes / chips,
            fails: vec![0; inner.num_pes],
            inner,
            chips,
            spill_threshold,
        }
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Hier
    }

    fn arch(&self) -> ArchKind {
        ArchKind::Flex
    }

    fn seed(&mut self, root: Task) {
        self.inner.seed(root);
    }

    fn push(&mut self, pe: usize, task: Task, at: Time) -> Result<(), Task> {
        let pushed = self.inner.push(pe, task, at);
        if pushed.is_ok() {
            self.fails[pe] = 0;
        }
        pushed
    }

    fn pop_local(&mut self, pe: usize, now: Time) -> Option<Task> {
        let task = self.inner.pop_local(pe, now);
        if task.is_some() {
            self.fails[pe] = 0;
        }
        task
    }

    fn acquire_target(&mut self, pe: usize) -> usize {
        let fails = self.fails[pe];
        self.fails[pe] = fails.saturating_add(1);
        if self.chips <= 1 || fails >= self.spill_threshold {
            // Spill: the flat cluster-wide draw (identical LFSR math to
            // stock FlexArch, so 1-chip clusters stay byte-identical).
            self.inner.acquire_target(pe)
        } else {
            self.intra_chip_target(pe)
        }
    }

    fn serve_acquire(
        &mut self,
        victim: usize,
        now: Time,
        service: Time,
        pred: &dyn Fn(&Task) -> bool,
    ) -> (Option<Task>, Time) {
        self.inner.serve_acquire(victim, now, service, pred)
    }

    fn unit_queue_empty(&self, pe: usize) -> bool {
        self.inner.unit_queue_empty(pe)
    }

    fn host_queue_empty(&self) -> bool {
        self.inner.host_queue_empty()
    }

    fn queue_peaks(&self) -> (u64, u64) {
        self.inner.queue_peaks()
    }

    fn ready_tasks(&self) -> u64 {
        self.inner.ready_tasks()
    }

    fn state_to_json_value(&self) -> JsonValue {
        json::obj(vec![
            ("flex", self.inner.state_to_json_value()),
            ("fails", json::words(&self.fails)),
        ])
    }

    fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        self.inner.restore_state(json::get(value, "flex")?)?;
        self.fails = json::get_words_n(value, "fails", self.inner.num_pes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flex_policy_single_pe_targets_the_interface() {
        let mut p = FlexPolicy::for_config(&AccelConfig::flex(1, 1));
        assert_eq!(p.acquire_target(0), 1);
        assert_eq!(p.kind(), EngineKind::Flex);
    }

    #[test]
    fn central_policy_serializes_queue_accesses() {
        let cfg = AccelConfig::central(1, 4);
        let mut p = CentralPolicy::for_config(&cfg);
        p.seed(Task::new(
            pxl_model::TaskTypeId(0),
            pxl_model::Continuation::host(0),
            &[],
        ));
        let service = Time::from_ps(1);
        let t0 = Time::from_ps(1_000);
        let (hit, done_a) = p.serve_acquire(4, t0, service, &|_| true);
        assert!(hit.is_some());
        // A second request landing at the same instant waits for the port.
        let (_, done_b) = p.serve_acquire(4, t0, service, &|_| true);
        assert!(done_b > done_a, "concurrent accesses must serialize");
        assert!(done_a > t0, "an access occupies the port");
    }

    #[test]
    fn central_policy_has_no_local_work() {
        let cfg = AccelConfig::central(1, 4);
        let mut p = CentralPolicy::for_config(&cfg);
        p.seed(Task::new(
            pxl_model::TaskTypeId(0),
            pxl_model::Continuation::host(0),
            &[],
        ));
        assert!(p.pop_local(0, Time::from_us(1)).is_none());
        assert!(p.unit_queue_empty(0));
        assert!(!p.host_queue_empty());
    }

    #[test]
    fn hier_policy_single_chip_draws_match_flex() {
        // The golden gate at the policy level: with one chip the hierarchical
        // draw must consume the LFSRs exactly like stock FlexArch.
        let cfg = {
            let mut c = AccelConfig::flex(2, 4);
            c.cluster = Some(crate::config::ClusterConfig::new(1));
            c
        };
        let mut flex = FlexPolicy::for_config(&cfg);
        let mut hier = HierPolicy::for_config(&cfg);
        for round in 0..64 {
            for pe in 0..8 {
                assert_eq!(
                    flex.acquire_target(pe),
                    hier.acquire_target(pe),
                    "round {round} pe {pe}"
                );
            }
        }
    }

    #[test]
    fn hier_policy_stays_intra_chip_until_spill() {
        let cfg = {
            let mut c = AccelConfig::flex(4, 4);
            c.cluster = Some(crate::config::ClusterConfig::new(2).hierarchical(3));
            c
        };
        let mut hier = HierPolicy::for_config(&cfg);
        let num_pes = cfg.num_pes();
        // PE 12 lives on chip 1 (PEs 8..16). Its first three draws must stay
        // on its own chip or target the host interface.
        for attempt in 0..3 {
            let v = hier.acquire_target(12);
            assert!(
                (8..16).contains(&v) || v == num_pes,
                "attempt {attempt} spilled early to {v}"
            );
            assert_ne!(v, 12, "never self-steals");
        }
        // Past the threshold the draw widens to the whole cluster; with the
        // Lfsr stream some draw eventually lands off-chip.
        let spilled = (0..64).any(|_| {
            let v = hier.acquire_target(12);
            v < 8
        });
        assert!(spilled, "spilled draws must reach the other chip");
        // Local work resets the failure count: the next draw is gated again.
        let task = Task::new(
            pxl_model::TaskTypeId(0),
            pxl_model::Continuation::host(0),
            &[],
        );
        hier.push(12, task, Time::ZERO).unwrap();
        assert!(hier.pop_local(12, Time::from_us(1)).is_some());
        for _ in 0..3 {
            let v = hier.acquire_target(12);
            assert!((8..16).contains(&v) || v == num_pes);
        }
    }
}
