//! Deterministic fault injection: seeded, replayable fault schedules.
//!
//! A [`FaultPlan`] is a declarative, serializable-by-value description of
//! the faults to arm against one simulation: transient PE stalls, permanent
//! PE death, dropped or duplicated messages on the task- and
//! argument-networks, and P-Store slot corruption. Plans are plain data
//! (they derive `Clone`/`PartialEq`) so they can live inside an engine
//! configuration and be compared across runs.
//!
//! A [`FaultScheduler`] is the runtime side: it owns a [`XorShift64`]
//! seeded from the plan, tracks per-spec budgets, and answers two
//! questions deterministically:
//!
//! * [`FaultScheduler::timed`] — at which simulated times do the
//!   *time-armed* faults (death, stall, corruption) fire?
//! * [`FaultScheduler::on_send`] — should this network message be
//!   delivered, dropped, or duplicated? Probabilistic faults consume the
//!   scheduler's RNG in message order, so two runs of the same seed and
//!   workload fault the exact same messages.
//!
//! Determinism is the whole point: the same `(plan, workload)` pair must
//! replay byte-identically, which is what makes fault regressions
//! debuggable at all.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::fault::{FaultPlan, FaultScheduler, NetClass, SendVerdict};
//! use pxl_sim::Time;
//!
//! let plan = FaultPlan::new(42)
//!     .kill_pe(3, Time::from_us(10))
//!     .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 1000, 2);
//! let mut sched = FaultScheduler::new(&plan);
//! assert_eq!(sched.timed(), vec![(Time::from_us(10), 0)]);
//! // per_mille = 1000 drops every matching message until the budget of 2
//! // is exhausted.
//! assert!(matches!(
//!     sched.on_send(NetClass::Arg, Time::from_us(1)),
//!     SendVerdict::Drop { .. }
//! ));
//! assert!(matches!(
//!     sched.on_send(NetClass::Arg, Time::from_us(2)),
//!     SendVerdict::Drop { .. }
//! ));
//! assert_eq!(
//!     sched.on_send(NetClass::Arg, Time::from_us(3)),
//!     SendVerdict::Deliver
//! );
//! ```

use crate::json::{self, JsonValue};
use crate::rng::XorShift64;
use crate::time::Time;

/// Which on-chip network a message fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetClass {
    /// The task network: ready tasks routed between tiles.
    Task,
    /// The argument network: argument messages toward P-Stores and the
    /// host interface.
    Arg,
}

impl NetClass {
    /// Short stable label for logs and JSONL records.
    pub fn label(self) -> &'static str {
        match self {
            NetClass::Task => "task_net",
            NetClass::Arg => "arg_net",
        }
    }
}

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The PE stops dispatching tasks for `cycles` accelerator cycles,
    /// then resumes (a transient hang: clock glitch, voltage droop).
    PeStall {
        /// The stalled PE (flat index).
        pe: usize,
        /// Stall length in accelerator cycles.
        cycles: u64,
    },
    /// The PE permanently stops dispatching tasks (fail-stop at task
    /// granularity: an in-flight task commits, nothing new starts).
    PeDeath {
        /// The dead PE (flat index).
        pe: usize,
    },
    /// Messages on `net` inside the window are dropped with probability
    /// `per_mille`/1000 each, up to `max` total (0 = unlimited).
    NetDrop {
        /// Which network loses messages.
        net: NetClass,
        /// Per-message drop probability in 1/1000 units (1000 = always).
        per_mille: u16,
        /// Budget of messages to drop; 0 means no budget limit.
        max: u32,
    },
    /// Messages on `net` inside the window are duplicated with probability
    /// `per_mille`/1000 each, up to `max` total (0 = unlimited).
    NetDup {
        /// Which network duplicates messages.
        net: NetClass,
        /// Per-message duplication probability in 1/1000 units.
        per_mille: u16,
        /// Budget of messages to duplicate; 0 means no budget limit.
        max: u32,
    },
    /// XORs `mask` into every argument word of one live entry of the
    /// tile's P-Store (the lowest live index), modeling a multi-bit upset
    /// that the store's ECC scrubber detects and repairs on next access.
    PStoreCorrupt {
        /// The tile whose P-Store is hit.
        tile: usize,
        /// Bit-flip mask applied to the entry's argument words.
        mask: u64,
    },
}

/// A fault plus the simulated-time window it is armed in.
///
/// Time-armed faults (`PeStall`, `PeDeath`, `PStoreCorrupt`) fire once at
/// `from`; message faults (`NetDrop`, `NetDup`) are active for every send
/// in `[from, until]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Start of the arming window (fire time for one-shot faults).
    pub from: Time,
    /// End of the arming window (inclusive; ignored by one-shot faults).
    pub until: Time,
}

impl FaultSpec {
    /// Reads one spec of [`FaultPlan::to_json_value`]'s `specs` array.
    fn from_json_value(value: &JsonValue) -> Result<FaultSpec, String> {
        let net = || match json::get_str(value, "net") {
            Ok("task_net") => Ok(NetClass::Task),
            Ok("arg_net") => Ok(NetClass::Arg),
            other => Err(format!("bad net {:?}", other.ok())),
        };
        let kind = match json::get_str(value, "kind").ok() {
            Some("pe_stall") => FaultKind::PeStall {
                pe: json::get_word(value, "pe")?,
                cycles: json::get_word(value, "cycles")?,
            },
            Some("pe_death") => FaultKind::PeDeath {
                pe: json::get_word(value, "pe")?,
            },
            Some("net_drop") => FaultKind::NetDrop {
                net: net()?,
                per_mille: json::get_word(value, "per_mille")?,
                max: json::get_word(value, "max")?,
            },
            Some("net_dup") => FaultKind::NetDup {
                net: net()?,
                per_mille: json::get_word(value, "per_mille")?,
                max: json::get_word(value, "max")?,
            },
            Some("pstore_corrupt") => FaultKind::PStoreCorrupt {
                tile: json::get_word(value, "tile")?,
                mask: json::get_word(value, "mask")?,
            },
            other => return Err(format!("unknown kind {other:?}")),
        };
        Ok(FaultSpec {
            kind,
            from: Time::from_ps(json::get_word(value, "from_ps")?),
            until: Time::from_ps(json::get_word(value, "until_ps")?),
        })
    }
}

/// A seeded, replayable schedule of faults.
///
/// Construct with [`FaultPlan::new`] and the builder methods; hand the
/// plan to an engine configuration (or `RunSpec::with_faults` in
/// `pxl-flow`) to arm it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the scheduler's probabilistic decisions.
    pub seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds a raw spec.
    pub fn with_spec(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Permanently kills `pe` at time `at`.
    pub fn kill_pe(self, pe: usize, at: Time) -> Self {
        self.with_spec(FaultSpec {
            kind: FaultKind::PeDeath { pe },
            from: at,
            until: at,
        })
    }

    /// Stalls `pe` for `cycles` accelerator cycles starting at `at`.
    pub fn stall_pe(self, pe: usize, at: Time, cycles: u64) -> Self {
        self.with_spec(FaultSpec {
            kind: FaultKind::PeStall { pe, cycles },
            from: at,
            until: at,
        })
    }

    /// Drops messages on `net` in `[from, until]` with probability
    /// `per_mille`/1000, at most `max` of them (0 = unlimited).
    pub fn drop_messages(
        self,
        net: NetClass,
        from: Time,
        until: Time,
        per_mille: u16,
        max: u32,
    ) -> Self {
        self.with_spec(FaultSpec {
            kind: FaultKind::NetDrop {
                net,
                per_mille,
                max,
            },
            from,
            until,
        })
    }

    /// Duplicates messages on `net` in `[from, until]` with probability
    /// `per_mille`/1000, at most `max` of them (0 = unlimited).
    pub fn duplicate_messages(
        self,
        net: NetClass,
        from: Time,
        until: Time,
        per_mille: u16,
        max: u32,
    ) -> Self {
        self.with_spec(FaultSpec {
            kind: FaultKind::NetDup {
                net,
                per_mille,
                max,
            },
            from,
            until,
        })
    }

    /// Corrupts one live entry of tile `tile`'s P-Store at time `at` by
    /// XORing `mask` into its argument words.
    pub fn corrupt_pstore(self, tile: usize, at: Time, mask: u64) -> Self {
        self.with_spec(FaultSpec {
            kind: FaultKind::PStoreCorrupt { tile, mask },
            from: at,
            until: at,
        })
    }

    /// The armed fault specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the plan arms no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The plan as a JSON value (see [`FaultPlan::from_json_value`]).
    pub fn to_json_value(&self) -> JsonValue {
        let specs = self
            .specs
            .iter()
            .map(|s| {
                let kind = |k: &str| JsonValue::Str(k.to_owned());
                let mut members = match s.kind {
                    FaultKind::PeStall { pe, cycles } => vec![
                        ("kind", kind("pe_stall")),
                        ("pe", json::num(pe as u64)),
                        ("cycles", json::num(cycles)),
                    ],
                    FaultKind::PeDeath { pe } => {
                        vec![("kind", kind("pe_death")), ("pe", json::num(pe as u64))]
                    }
                    FaultKind::NetDrop {
                        net,
                        per_mille,
                        max,
                    } => vec![
                        ("kind", kind("net_drop")),
                        ("net", kind(net.label())),
                        ("per_mille", json::num(per_mille.into())),
                        ("max", json::num(max.into())),
                    ],
                    FaultKind::NetDup {
                        net,
                        per_mille,
                        max,
                    } => vec![
                        ("kind", kind("net_dup")),
                        ("net", kind(net.label())),
                        ("per_mille", json::num(per_mille.into())),
                        ("max", json::num(max.into())),
                    ],
                    FaultKind::PStoreCorrupt { tile, mask } => vec![
                        ("kind", kind("pstore_corrupt")),
                        ("tile", json::num(tile as u64)),
                        ("mask", json::num(mask)),
                    ],
                };
                members.push(("from_ps", json::num(s.from.as_ps())));
                members.push(("until_ps", json::num(s.until.as_ps())));
                json::obj(members)
            })
            .collect();
        json::obj(vec![
            ("seed", json::num(self.seed)),
            ("specs", JsonValue::Array(specs)),
        ])
    }

    /// The plan rendered as one canonical JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Rebuilds a plan from [`FaultPlan::to_json_value`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, malformed or out-of-range
    /// field.
    pub fn from_json_value(value: &JsonValue) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(json::get_word(value, "seed")?);
        for (i, spec) in json::get_arr(value, "specs")?.iter().enumerate() {
            let spec =
                FaultSpec::from_json_value(spec).map_err(|e| format!("fault spec {i}: {e}"))?;
            plan = plan.with_spec(spec);
        }
        Ok(plan)
    }

    /// Parses [`FaultPlan::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = JsonValue::parse(text).map_err(|e| format!("fault plan: {e}"))?;
        FaultPlan::from_json_value(&value)
    }

    /// Checks the plan against an accelerator geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first spec that references a PE or
    /// tile outside the geometry, or uses a probability above 1000.
    pub fn validate(&self, num_pes: usize, tiles: usize) -> Result<(), String> {
        for (i, spec) in self.specs.iter().enumerate() {
            match spec.kind {
                FaultKind::PeStall { pe, .. } | FaultKind::PeDeath { pe } => {
                    if pe >= num_pes {
                        return Err(format!(
                            "fault spec {i} targets PE {pe} but the accelerator has {num_pes} PEs"
                        ));
                    }
                }
                FaultKind::PStoreCorrupt { tile, .. } => {
                    if tile >= tiles {
                        return Err(format!(
                            "fault spec {i} targets tile {tile} but the accelerator has {tiles} tiles"
                        ));
                    }
                }
                FaultKind::NetDrop { per_mille, .. } | FaultKind::NetDup { per_mille, .. } => {
                    if per_mille > 1000 {
                        return Err(format!("fault spec {i} has per_mille {per_mille} > 1000"));
                    }
                }
            }
            if spec.until < spec.from {
                return Err(format!("fault spec {i} has an empty window"));
            }
        }
        Ok(())
    }
}

/// What the scheduler decided for one network send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendVerdict {
    /// The message crosses the network untouched.
    Deliver,
    /// The message is lost; `spec` indexes the plan's responsible spec.
    Drop {
        /// Index of the deciding spec in [`FaultPlan::specs`].
        spec: usize,
    },
    /// The message is delivered twice; `spec` indexes the responsible
    /// spec. The receiver is expected to discard the duplicate (sequence
    /// numbers in hardware).
    Duplicate {
        /// Index of the deciding spec in [`FaultPlan::specs`].
        spec: usize,
    },
}

/// Runtime state of one armed [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultScheduler {
    rng: XorShift64,
    specs: Vec<FaultSpec>,
    /// Remaining budget per spec (`u32::MAX` when the spec is unlimited).
    remaining: Vec<u32>,
}

impl FaultScheduler {
    /// Arms `plan`: seeds the RNG and resets every spec's budget.
    pub fn new(plan: &FaultPlan) -> Self {
        let remaining = plan
            .specs
            .iter()
            .map(|s| match s.kind {
                FaultKind::NetDrop { max, .. } | FaultKind::NetDup { max, .. } => {
                    if max == 0 {
                        u32::MAX
                    } else {
                        max
                    }
                }
                _ => 1,
            })
            .collect();
        FaultScheduler {
            rng: XorShift64::new(plan.seed),
            specs: plan.specs.clone(),
            remaining,
        }
    }

    /// The one-shot faults (death, stall, corruption) as `(fire time, spec
    /// index)` pairs, sorted by time then index so an engine can push them
    /// into its event queue deterministically.
    pub fn timed(&self) -> Vec<(Time, usize)> {
        let mut out: Vec<(Time, usize)> = self
            .specs
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(
                    s.kind,
                    FaultKind::PeStall { .. }
                        | FaultKind::PeDeath { .. }
                        | FaultKind::PStoreCorrupt { .. }
                )
            })
            .map(|(i, s)| (s.from, i))
            .collect();
        out.sort();
        out
    }

    /// The spec at `idx`.
    pub fn spec(&self, idx: usize) -> &FaultSpec {
        &self.specs[idx]
    }

    /// The scheduler's position: the RNG state and the remaining budget of
    /// every spec. Together with the plan this reconstructs the scheduler
    /// exactly (see [`FaultScheduler::load_state`]).
    pub fn save_state(&self) -> (u64, Vec<u32>) {
        (self.rng.state(), self.remaining.clone())
    }

    /// Restores a position captured by [`FaultScheduler::save_state`] into
    /// a scheduler freshly armed from the same plan.
    ///
    /// # Errors
    ///
    /// Returns a message if `remaining` does not match the plan's spec
    /// count.
    pub fn load_state(&mut self, rng_state: u64, remaining: Vec<u32>) -> Result<(), String> {
        if remaining.len() != self.specs.len() {
            return Err(format!(
                "fault scheduler: {} budgets for {} specs",
                remaining.len(),
                self.specs.len()
            ));
        }
        self.rng = XorShift64::new(rng_state);
        self.remaining = remaining;
        Ok(())
    }

    /// Decides the fate of one message sent on `net` at time `now`.
    ///
    /// Scans specs in plan order; the first drop/dup spec whose window,
    /// budget and coin-flip all hit decides. The RNG advances once per
    /// matching in-window spec with budget, whether or not it fires, so the
    /// decision stream depends only on the message order.
    pub fn on_send(&mut self, net: NetClass, now: Time) -> SendVerdict {
        for i in 0..self.specs.len() {
            let s = self.specs[i];
            let (spec_net, per_mille, dup) = match s.kind {
                FaultKind::NetDrop { net, per_mille, .. } => (net, per_mille, false),
                FaultKind::NetDup { net, per_mille, .. } => (net, per_mille, true),
                _ => continue,
            };
            if spec_net != net || now < s.from || now > s.until || self.remaining[i] == 0 {
                continue;
            }
            if self.rng.next_in_range(1000) < per_mille as u64 {
                self.remaining[i] -= 1;
                return if dup {
                    SendVerdict::Duplicate { spec: i }
                } else {
                    SendVerdict::Drop { spec: i }
                };
            }
        }
        SendVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_accumulate_specs() {
        let plan = FaultPlan::new(7)
            .kill_pe(1, Time::from_us(5))
            .stall_pe(2, Time::from_us(1), 500)
            .corrupt_pstore(0, Time::from_us(2), 0xFF)
            .drop_messages(NetClass::Task, Time::ZERO, Time::MAX, 10, 3);
        assert_eq!(plan.specs().len(), 4);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }

    #[test]
    fn validation_checks_geometry_and_probability() {
        let plan = FaultPlan::new(1).kill_pe(8, Time::ZERO);
        assert!(plan.validate(8, 2).is_err());
        assert!(plan.validate(9, 2).is_ok());
        let plan = FaultPlan::new(1).corrupt_pstore(2, Time::ZERO, 1);
        assert!(plan.validate(8, 2).is_err());
        let plan = FaultPlan::new(1).drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 1001, 0);
        assert!(plan.validate(8, 2).is_err());
        let plan = FaultPlan::new(1).with_spec(FaultSpec {
            kind: FaultKind::PeDeath { pe: 0 },
            from: Time::from_us(2),
            until: Time::from_us(1),
        });
        assert!(plan.validate(8, 2).is_err());
    }

    #[test]
    fn timed_faults_sorted_by_fire_time() {
        let plan = FaultPlan::new(1)
            .kill_pe(0, Time::from_us(9))
            .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 1, 0)
            .stall_pe(1, Time::from_us(3), 10);
        let sched = FaultScheduler::new(&plan);
        assert_eq!(
            sched.timed(),
            vec![(Time::from_us(3), 2), (Time::from_us(9), 0)]
        );
    }

    #[test]
    fn send_verdicts_replay_identically() {
        let plan = FaultPlan::new(99)
            .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 250, 0)
            .duplicate_messages(NetClass::Task, Time::ZERO, Time::MAX, 250, 0);
        let mut a = FaultScheduler::new(&plan);
        let mut b = FaultScheduler::new(&plan);
        for i in 0..500u64 {
            let net = if i % 2 == 0 {
                NetClass::Arg
            } else {
                NetClass::Task
            };
            assert_eq!(
                a.on_send(net, Time::from_ps(i)),
                b.on_send(net, Time::from_ps(i))
            );
        }
    }

    #[test]
    fn budget_and_window_bound_message_faults() {
        let plan = FaultPlan::new(3).drop_messages(
            NetClass::Arg,
            Time::from_us(1),
            Time::from_us(2),
            1000,
            1,
        );
        let mut s = FaultScheduler::new(&plan);
        // Outside the window: delivered.
        assert_eq!(s.on_send(NetClass::Arg, Time::ZERO), SendVerdict::Deliver);
        // Wrong network: delivered.
        assert_eq!(
            s.on_send(NetClass::Task, Time::from_us(1)),
            SendVerdict::Deliver
        );
        // In window: dropped, consuming the whole budget.
        assert_eq!(
            s.on_send(NetClass::Arg, Time::from_us(1)),
            SendVerdict::Drop { spec: 0 }
        );
        assert_eq!(
            s.on_send(NetClass::Arg, Time::from_us(2)),
            SendVerdict::Deliver
        );
    }

    #[test]
    fn scheduler_state_resumes_the_decision_stream() {
        let plan = FaultPlan::new(99)
            .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 250, 5)
            .duplicate_messages(NetClass::Task, Time::ZERO, Time::MAX, 250, 0);
        let mut full = FaultScheduler::new(&plan);
        let mut half = FaultScheduler::new(&plan);
        for i in 0..100u64 {
            half.on_send(NetClass::Arg, Time::from_ps(i));
        }
        let (rng, remaining) = half.save_state();
        let mut resumed = FaultScheduler::new(&plan);
        resumed.load_state(rng, remaining).unwrap();
        for i in 0..100u64 {
            full.on_send(NetClass::Arg, Time::from_ps(i));
        }
        for i in 100..300u64 {
            assert_eq!(
                full.on_send(NetClass::Arg, Time::from_ps(i)),
                resumed.on_send(NetClass::Arg, Time::from_ps(i)),
                "message {i} diverged after restore"
            );
        }
        assert!(resumed.load_state(1, vec![0]).is_err(), "bad budget length");
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::new(0xD1E)
            .kill_pe(1, Time::from_us(5))
            .stall_pe(2, Time::from_us(1), 500)
            .corrupt_pstore(0, Time::from_us(2), 0xFF)
            .drop_messages(NetClass::Task, Time::ZERO, Time::MAX, 10, 3)
            .duplicate_messages(NetClass::Arg, Time::from_ps(7), Time::from_us(9), 1000, 0);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        // Canonical rendering is stable across a round trip.
        assert_eq!(back.to_json(), json);
        // Time::MAX (u64::MAX ps, beyond 2^53) survives exactly.
        assert_eq!(back.specs()[3].until, Time::MAX);
    }

    #[test]
    fn json_errors_name_the_problem() {
        assert!(FaultPlan::from_json("{}").unwrap_err().contains("seed"));
        assert!(FaultPlan::from_json("{\"seed\":1}")
            .unwrap_err()
            .contains("specs"));
        assert!(
            FaultPlan::from_json("{\"seed\":1,\"specs\":[{\"kind\":\"nope\"}]}")
                .unwrap_err()
                .contains("unknown kind")
        );
        assert!(
            FaultPlan::from_json("{\"seed\":1,\"specs\":[{\"kind\":\"pe_death\"}]}")
                .unwrap_err()
                .contains("missing field pe")
        );
        assert!(FaultPlan::from_json(
            "{\"seed\":1,\"specs\":[{\"kind\":\"net_drop\",\"net\":\"bus\",\"per_mille\":1,\"max\":0,\"from_ps\":0,\"until_ps\":1}]}"
        )
        .unwrap_err()
        .contains("bad net"));
    }

    #[test]
    fn out_of_range_fields_are_refused_not_truncated() {
        let plan = |per_mille: &str, max: &str| {
            FaultPlan::from_json(&format!(
                "{{\"seed\":1,\"specs\":[{{\"kind\":\"net_drop\",\"net\":\"arg_net\",\
                 \"per_mille\":{per_mille},\"max\":{max},\"from_ps\":0,\"until_ps\":1}}]}}"
            ))
        };
        assert!(plan("400", "2").is_ok());
        // 65936 would truncate to 400 as a u16 and then pass validate's
        // ≤ 1000 check; 4294967298 would truncate to 2 as a u32.
        let err = plan("65936", "2").unwrap_err();
        assert!(
            err.contains("per_mille") && err.contains("out of range"),
            "{err}"
        );
        let err = plan("400", "4294967298").unwrap_err();
        assert!(err.contains("\"max\"") && err.contains("u32"), "{err}");
    }

    #[test]
    fn net_labels_are_stable() {
        assert_eq!(NetClass::Task.label(), "task_net");
        assert_eq!(NetClass::Arg.label(), "arg_net");
    }
}
