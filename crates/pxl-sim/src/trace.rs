//! Bounded structured event tracing with deterministic ordering and JSONL
//! export.
//!
//! A [`Tracer`] records [`TraceEvent`]s stamped with simulated time. Tracing
//! is off by default ([`Tracer::disabled`]) and costs one branch per emit
//! site; a bounded tracer ([`Tracer::bounded`]) keeps at most `capacity`
//! records and counts the rest as dropped, so traces of long runs cannot
//! exhaust host memory.
//!
//! Determinism: records carry a `(t_ps, seq)` pair. `seq` is the emission
//! order within one tracer; [`Tracer::absorb`] renumbers the absorbed
//! records to continue the local numbering, and [`Tracer::finish`] stably
//! sorts by time and renumbers once more, so two identical runs produce
//! byte-identical [`Tracer::to_jsonl`] output.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::{Time, TraceEvent, Tracer};
//!
//! let mut t = Tracer::bounded(16);
//! t.emit(
//!     Time::from_ps(500),
//!     TraceEvent::Spawn {
//!         unit: 0,
//!         ty: 1,
//!         parent: 0,
//!         child: 1,
//!     },
//! );
//! t.emit(
//!     Time::from_ps(100),
//!     TraceEvent::StealGrant { thief: 1, victim: 0 },
//! );
//! t.finish();
//! assert_eq!(t.records()[0].at, Time::from_ps(100));
//! assert!(t.to_jsonl().starts_with("{\"t_ps\":100,\"seq\":0,"));
//! ```

use crate::json::{self, JsonValue};
use crate::time::Time;

/// The trace dialect: the one place each event's JSONL `kind` label and
/// its fields, in JSONL order, are written down. It generates
/// [`TraceEvent`], [`TraceEvent::kind`], the field writer behind
/// [`TraceRecord::to_json_value`] and the checked decoder behind
/// [`TraceRecord::from_json_value`]; the profiler reads traces through the
/// same decoder. A decoded field its type cannot hold (a `thief` past
/// `u32::MAX`, say) is refused, not truncated.
macro_rules! trace_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $label:literal { $($field:ident: $ty:ty),* $(,)? }
    )*) => {
        /// One structured simulator event.
        ///
        /// `unit` is a flat PE/core index across the whole accelerator or
        /// CPU; `ty` is the task-type id; `port` is the memory port of the
        /// issuing unit; `level` is the cache level (1 = L1, 2 = L2).
        /// `task`, `parent`, `child` and `from` are run-unique task instance
        /// ids stamped by the engine at spawn time; together they let a
        /// profiler reconstruct the causal spawn/join DAG from the event
        /// stream alone.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[$doc])* $variant { $($field: $ty),* },)*
        }

        impl TraceEvent {
            /// Short stable name used as the JSONL `"kind"` field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $label,)*
                }
            }

            /// Appends the event's fields, in JSONL order, to `members`.
            fn write_fields(&self, members: &mut Vec<(String, JsonValue)>) {
                match *self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(members.push((
                            stringify!($field).to_owned(),
                            json::num(u64::from($field)),
                        ));)*
                    })*
                }
            }

            /// Reads an event of JSONL kind `kind` from `value`'s members.
            fn read_fields(kind: &str, value: &JsonValue) -> Result<TraceEvent, String> {
                Ok(match kind {
                    $($label => TraceEvent::$variant {
                        $($field: json::get_uint(value, stringify!($field))?),*
                    },)*
                    other => return Err(format!("trace: unknown kind {other:?}")),
                })
            }
        }

        #[cfg(test)]
        impl TraceEvent {
            /// An event of a uniformly chosen kind, every field drawn
            /// across its type's whole range.
            fn arbitrary(g: &mut crate::qcheck::Gen) -> TraceEvent {
                let kinds: &[fn(&mut crate::qcheck::Gen) -> TraceEvent] =
                    &[$(|g| TraceEvent::$variant { $($field: g.uint()),* }),*];
                g.pick(kinds)(g)
            }

            /// Each field's name and the largest value its type holds, in
            /// JSONL order.
            fn field_maxes(&self) -> Vec<(&'static str, u64)> {
                match self {
                    $(TraceEvent::$variant { .. } => {
                        vec![$((stringify!($field), <$ty>::MAX as u64)),*]
                    })*
                }
            }
        }
    };
}

trace_events! {
    /// A task began executing on a processing element.
    TaskDispatch = "task_dispatch" { unit: u32, ty: u8, task: u64 }
    /// A task finished executing; `busy_ps` is its modeled run length.
    TaskComplete = "task_complete" { unit: u32, ty: u8, busy_ps: u64, task: u64 }
    /// A task spawned a child task (`parent` → `child` edge of the DAG).
    Spawn = "spawn" { unit: u32, ty: u8, parent: u64, child: u64 }
    /// A task-management unit sent a steal request to a victim.
    StealRequest = "steal_request" { thief: u32, victim: u32 }
    /// A steal request found work and the task migrated.
    StealGrant = "steal_grant" { thief: u32, victim: u32 }
    /// A steal request found the victim's queue empty.
    StealFail = "steal_fail" { thief: u32, victim: u32 }
    /// A P-Store entry was allocated for a continuation.
    PStoreAlloc = "pstore_alloc" { tile: u32, occupancy: u32 }
    /// An argument joined a pending continuation in the P-Store; `task` is
    /// the joined successor's instance id, `from` the sender's (`from` →
    /// `task` edge of the DAG).
    PStoreJoin = "pstore_join" { tile: u32, slot: u8, task: u64, from: u64 }
    /// A continuation became ready and its P-Store entry was freed.
    PStoreDealloc = "pstore_dealloc" { tile: u32, occupancy: u32 }
    /// A memory access hit in the given cache level.
    CacheHit = "cache_hit" { port: u32, level: u8 }
    /// A memory access missed in the given cache level.
    CacheMiss = "cache_miss" { port: u32, level: u8 }
    /// A cache line was evicted from the given level.
    CacheEvict = "cache_evict" { port: u32, level: u8 }
    /// A DRAM bandwidth epoch filled up and an access spilled to a later
    /// epoch.
    DramSaturated = "dram_saturated" { epoch: u64, committed_ps: u64 }
    /// A planned fault fired; `spec` indexes the fault plan, `unit` is the
    /// affected PE/tile/sender.
    FaultInjected = "fault.injected" { spec: u32, unit: u32 }
    /// A previously injected fault was fully masked by the recovery
    /// machinery (retry, rescue, repair, or stall expiry).
    FaultRecovered = "fault.recovered" { spec: u32, unit: u32 }
    /// A fault exhausted its recovery budget and was given up on.
    FaultUnrecovered = "fault.unrecovered" { spec: u32, unit: u32 }
    /// The quiescence watchdog declared the run stalled; `unit` is the
    /// unit that last made forward progress, `idle_ps` how long ago.
    WatchdogStall = "watchdog.stall" { unit: u32, idle_ps: u64 }
    /// A message crossed the inter-chip link of a multi-chip cluster.
    /// `class` tags the traffic type (0 = steal request, 1 = steal reply,
    /// 2 = argument, 3 = routed task); `wait_ps` is how long the message
    /// queued behind the directed link's bounded bandwidth before
    /// departing.
    LinkXfer = "link_xfer" { src_chip: u32, dst_chip: u32, class: u8, wait_ps: u64 }
}

/// One recorded event with its timestamp and sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Time,
    /// Deterministic tiebreak for events at the same timestamp.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The record as one JSON object: `t_ps`, `seq`, `kind`, then the
    /// event's fields in the order the dialect table lists them.
    pub fn to_json_value(&self) -> JsonValue {
        let mut members = vec![
            ("t_ps".to_owned(), json::num(self.at.as_ps())),
            ("seq".to_owned(), json::num(self.seq)),
            (
                "kind".to_owned(),
                JsonValue::Str(self.event.kind().to_owned()),
            ),
        ];
        self.event.write_fields(&mut members);
        JsonValue::Object(members)
    }

    /// Renders the record as one JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Rebuilds a record from a [`TraceRecord::to_json_value`] object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown kind or the missing, mistyped
    /// or out-of-range field.
    pub fn from_json_value(value: &JsonValue) -> Result<TraceRecord, String> {
        let event = TraceEvent::read_fields(json::get_str(value, "kind")?, value)?;
        Ok(TraceRecord {
            at: Time::from_ps(json::get_u64(value, "t_ps")?),
            seq: json::get_u64(value, "seq")?,
            event,
        })
    }
}

/// A bounded, optionally-disabled event trace buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tracer {
    capacity: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
    next_seq: u64,
}

impl Tracer {
    /// A tracer that records nothing (the default for all engines).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer that keeps at most `capacity` records and counts the
    /// overflow as dropped. `capacity == 0` is equivalent to
    /// [`Tracer::disabled`].
    pub fn bounded(capacity: usize) -> Self {
        Tracer {
            capacity,
            ..Tracer::default()
        }
    }

    /// Whether emits will be recorded (or at least counted as dropped).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event at simulated time `at`.
    #[inline]
    pub fn emit(&mut self, at: Time, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push(TraceRecord { at, seq, event });
    }

    /// Moves every record of `other` into this tracer, renumbering them to
    /// continue the local sequence. The capacity of `self` still bounds the
    /// total; overflow counts as dropped.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        if self.capacity == 0 {
            self.dropped += other.records.len() as u64;
            return;
        }
        for r in other.records {
            if self.records.len() >= self.capacity {
                self.dropped += 1;
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.records.push(TraceRecord { seq, ..r });
        }
    }

    /// Establishes the final deterministic order: stable-sorts by timestamp
    /// (emission order breaks ties) and renumbers `seq` from zero. Engines
    /// call this once before returning a result.
    pub fn finish(&mut self) {
        order_by_time(&mut self.records);
        for (i, r) in self.records.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        self.next_seq = self.records.len() as u64;
    }

    /// The recorded events.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of events that did not fit in the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the trace as JSONL: one JSON object per line, trailing
    /// newline after each, deterministic given [`Tracer::finish`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Serializes the complete tracer state — capacity, drop count,
    /// sequence cursor and every buffered record — for snapshot/restore.
    pub fn state_to_json_value(&self) -> JsonValue {
        json::obj(vec![
            ("capacity", json::num(self.capacity as u64)),
            ("dropped", json::num(self.dropped)),
            ("next_seq", json::num(self.next_seq)),
            (
                "records",
                JsonValue::Array(
                    self.records
                        .iter()
                        .map(TraceRecord::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a tracer from [`Tracer::state_to_json_value`] output. The
    /// round trip is exact, so a restored run keeps emitting with the same
    /// capacity bound, drop count and sequence numbering as the original.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, or the
    /// field of a state [`Tracer::emit`] and [`Tracer::absorb`] never
    /// produce: more records than `capacity`, a record whose `seq` is not
    /// its position, or a `next_seq` other than the record count.
    pub fn state_from_json_value(value: &JsonValue) -> Result<Tracer, String> {
        let records = json::get_arr(value, "records")?
            .iter()
            .map(TraceRecord::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let capacity = json::get_uint(value, "capacity")?;
        let next_seq = json::get_u64(value, "next_seq")?;
        if records.len() > capacity {
            return Err(format!(
                "trace: records holds {} records, past capacity {capacity}",
                records.len()
            ));
        }
        if let Some(i) = (0..records.len()).find(|&i| records[i].seq != i as u64) {
            return Err(format!(
                "trace: records[{i}] has seq {}, want {i}",
                records[i].seq
            ));
        }
        if next_seq != records.len() as u64 {
            return Err(format!(
                "trace: next_seq {next_seq} is not the record count {}",
                records.len()
            ));
        }
        Ok(Tracer {
            capacity,
            records,
            dropped: json::get_u64(value, "dropped")?,
            next_seq,
        })
    }
}

/// Stably sorts `records` by time. Engines emit close to time order, so one
/// insertion pass places most records a few slots back; once its moves
/// outgrow four per placed record plus a fixed allowance (an absorbed
/// memory trace is a long run behind the engine's records), the slice goes
/// to a stable sort, which still sees equal-time records in emission order.
/// Returns whether the insertion pass placed every record itself.
fn order_by_time(records: &mut [TraceRecord]) -> bool {
    let mut moves = 0;
    for i in 1..records.len() {
        let r = records[i];
        let mut j = i;
        while j > 0 && records[j - 1].at > r.at {
            records[j] = records[j - 1];
            j -= 1;
        }
        records[j] = r;
        moves += i - j;
        if moves > 4 * i + 4096 {
            records.sort_by_key(|r| r.at);
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn(unit: u32) -> TraceEvent {
        TraceEvent::Spawn {
            unit,
            ty: 0,
            parent: 0,
            child: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(Time::from_ps(1), spawn(0));
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0, "disabled is free, not dropping");
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let mut t = Tracer::bounded(2);
        for i in 0..5 {
            t.emit(Time::from_ps(i), spawn(0));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn finish_orders_by_time_then_emission() {
        let mut t = Tracer::bounded(8);
        t.emit(Time::from_ps(50), spawn(1));
        t.emit(Time::from_ps(10), spawn(2));
        t.emit(Time::from_ps(10), spawn(3));
        t.finish();
        let units: Vec<u32> = t
            .records()
            .iter()
            .map(|r| match r.event {
                TraceEvent::Spawn { unit, .. } => unit,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(units, [2, 3, 1]);
        assert_eq!(
            t.records().iter().map(|r| r.seq).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn absorb_renumbers_and_respects_capacity() {
        let mut a = Tracer::bounded(3);
        a.emit(Time::from_ps(5), spawn(0));
        let mut b = Tracer::bounded(8);
        b.emit(Time::from_ps(1), spawn(1));
        b.emit(Time::from_ps(2), spawn(2));
        b.emit(Time::from_ps(3), spawn(3));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.dropped(), 1);
        a.finish();
        assert_eq!(a.records()[0].at, Time::from_ps(1));
    }

    #[test]
    fn state_round_trip_is_exact_for_every_kind() {
        let events = [
            TraceEvent::TaskDispatch {
                unit: 1,
                ty: 2,
                task: 3,
            },
            TraceEvent::TaskComplete {
                unit: 1,
                ty: 2,
                busy_ps: 500,
                task: 3,
            },
            spawn(4),
            TraceEvent::StealRequest {
                thief: 1,
                victim: 2,
            },
            TraceEvent::StealGrant {
                thief: 1,
                victim: 2,
            },
            TraceEvent::StealFail {
                thief: 1,
                victim: 2,
            },
            TraceEvent::PStoreAlloc {
                tile: 0,
                occupancy: 3,
            },
            TraceEvent::PStoreJoin {
                tile: 0,
                slot: 1,
                task: 9,
                from: 8,
            },
            TraceEvent::PStoreDealloc {
                tile: 0,
                occupancy: 2,
            },
            TraceEvent::CacheHit { port: 0, level: 1 },
            TraceEvent::CacheMiss { port: 0, level: 2 },
            TraceEvent::CacheEvict { port: 0, level: 1 },
            TraceEvent::DramSaturated {
                epoch: 3,
                committed_ps: 99_000,
            },
            TraceEvent::FaultInjected { spec: 0, unit: 1 },
            TraceEvent::FaultRecovered { spec: 0, unit: 1 },
            TraceEvent::FaultUnrecovered { spec: 0, unit: 1 },
            TraceEvent::WatchdogStall {
                unit: 1,
                idle_ps: 77,
            },
            TraceEvent::LinkXfer {
                src_chip: 0,
                dst_chip: 1,
                class: 3,
                wait_ps: 640,
            },
        ];
        let mut t = Tracer::bounded(64);
        for (i, e) in events.iter().enumerate() {
            t.emit(Time::from_ps(i as u64 * 10), *e);
        }
        t.emit(Time::from_ps(1), spawn(0));
        let back = Tracer::state_from_json_value(&t.state_to_json_value()).unwrap();
        assert_eq!(back, t);
        // Continued emission behaves identically in both tracers.
        let mut a = t.clone();
        let mut b = back;
        a.emit(Time::from_ps(5), spawn(9));
        b.emit(Time::from_ps(5), spawn(9));
        a.finish();
        b.finish();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn state_parse_errors_name_the_problem() {
        use crate::json::JsonValue;
        let v = JsonValue::parse("{\"capacity\":4,\"dropped\":0,\"next_seq\":0}").unwrap();
        assert!(Tracer::state_from_json_value(&v)
            .unwrap_err()
            .contains("records"));
        let v = JsonValue::parse(
            "{\"capacity\":4,\"dropped\":0,\"next_seq\":0,\
             \"records\":[{\"t_ps\":1,\"seq\":0,\"kind\":\"nope\"}]}",
        )
        .unwrap();
        assert!(Tracer::state_from_json_value(&v)
            .unwrap_err()
            .contains("unknown kind"));
        // States `emit` and `absorb` never produce are refused by field.
        let record = |seq| {
            format!("{{\"t_ps\":1,\"seq\":{seq},\"kind\":\"spawn\",\"unit\":0,\"ty\":0,\"parent\":0,\"child\":0}}")
        };
        for (capacity, next_seq, seqs, refusal) in [
            (1, 2, [0, 1], Some("past capacity 1")),
            (4, 3, [0, 1], Some("next_seq 3")),
            (4, 2, [1, 0], Some("records[0] has seq 1")),
            (4, 2, [0, 1], None),
        ] {
            let text = format!(
                "{{\"capacity\":{capacity},\"dropped\":0,\"next_seq\":{next_seq},\"records\":[{},{}]}}",
                record(seqs[0]),
                record(seqs[1])
            );
            let restored = Tracer::state_from_json_value(&JsonValue::parse(&text).unwrap());
            match refusal {
                Some(field) => assert!(restored.unwrap_err().contains(field)),
                None => assert_eq!(restored.unwrap().len(), 2),
            }
        }
    }

    /// Record times in one of the shapes `finish` has to order: near-sorted
    /// with many equal times, sorted with a few far-displaced records,
    /// concatenated sorted runs, reversed, or all equal.
    fn arbitrary_times(g: &mut crate::qcheck::Gen, n: usize) -> Vec<u64> {
        let mut base = 0;
        match g.usize_in(0, 5) {
            0 => (0..n)
                .map(|_| {
                    base += g.range(0, 3);
                    base.saturating_sub(g.range(0, 12))
                })
                .collect(),
            1 => {
                let mut times: Vec<u64> = (0..n as u64).collect();
                for _ in 0..g.usize_in(1, 4).min(n) {
                    let i = g.usize_in(0, n);
                    times[i] = g.range(0, n as u64 + 1);
                }
                times
            }
            2 => {
                let runs = g.usize_in(1, 6);
                let mut times = Vec::new();
                for k in 0..runs {
                    let len = (n - times.len()) / (runs - k);
                    let mut t = g.range(0, 64);
                    times.extend((0..len).map(|_| {
                        t += g.range(0, 4);
                        t
                    }));
                }
                times
            }
            3 => (0..n as u64).rev().map(|t| t / 2).collect(),
            _ => vec![7; n],
        }
    }

    #[test]
    fn finish_equals_a_stable_sort_by_time() {
        // [fell back to the stable sort, placed every record by insertion]
        let mut paths = [0; 2];
        crate::qcheck::check(192, "finish is a stable sort by time", |g| {
            let n = g.usize_in(0, 3000);
            let times = arbitrary_times(g, n);
            let mut t = Tracer::bounded(n.max(1));
            // Some traces take their tail through `absorb`, as an engine
            // takes in its memory system's trace.
            let split = if g.bool() { g.usize_in(0, n + 1) } else { n };
            for (i, &at) in times[..split].iter().enumerate() {
                t.emit(Time::from_ps(at), spawn(i as u32));
            }
            let mut tail = Tracer::bounded(n.max(1));
            for (i, &at) in times.iter().enumerate().skip(split) {
                tail.emit(Time::from_ps(at), spawn(i as u32));
            }
            t.absorb(tail);
            let mut want = t.records().to_vec();
            want.sort_by_key(|r| r.at);
            for (i, r) in want.iter_mut().enumerate() {
                r.seq = i as u64;
            }
            paths[usize::from(order_by_time(&mut t.records().to_vec()))] += 1;
            t.finish();
            assert_eq!(t.records(), want);
        });
        assert!(paths.iter().all(|&p| p > 0), "paths taken: {paths:?}");
    }

    #[test]
    fn jsonl_lines_match_schema() {
        let mut t = Tracer::bounded(4);
        t.emit(
            Time::from_ps(100),
            TraceEvent::StealGrant {
                thief: 2,
                victim: 0,
            },
        );
        t.emit(
            Time::from_ps(200),
            TraceEvent::DramSaturated {
                epoch: 3,
                committed_ps: 99_000,
            },
        );
        t.finish();
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_ps\":100,\"seq\":0,\"kind\":\"steal_grant\",\"thief\":2,\"victim\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"t_ps\":200,\"seq\":1,\"kind\":\"dram_saturated\",\"epoch\":3,\"committed_ps\":99000}"
        );
    }

    #[test]
    fn every_kind_round_trips_across_the_full_field_ranges() {
        crate::qcheck::check(512, "trace dialect round trip", |g| {
            let mut t = Tracer::bounded(g.usize_in(1, 8));
            for _ in 0..g.usize_in(0, 12) {
                t.emit(Time::from_ps(g.uint()), TraceEvent::arbitrary(g));
            }
            let back = Tracer::state_from_json_value(&t.state_to_json_value()).unwrap();
            assert_eq!(back, t);
            for r in t.records() {
                let value = r.to_json_value();
                assert_eq!(TraceRecord::from_json_value(&value), Ok(*r));
                assert_eq!(r.to_json(), value.to_json());
                for (field, max) in r.event.field_maxes() {
                    let Some(past) = max.checked_add(1) else {
                        continue;
                    };
                    let mut wide = value.clone();
                    if let JsonValue::Object(members) = &mut wide {
                        members.iter_mut().find(|(k, _)| k == field).unwrap().1 = json::num(past);
                    }
                    let err = TraceRecord::from_json_value(&wide).unwrap_err();
                    assert!(err.contains(field) && err.contains("out of range"), "{err}");
                }
            }
        });
    }
}
