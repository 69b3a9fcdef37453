//! The pending-task store (P-Store).
//!
//! Each FlexArch tile has a P-Store holding tasks that are waiting for
//! arguments (Section III-A). "Its function is analogous to the reservation
//! stations in an out-of-order processor." The structure consists of a free
//! list, a join-counter array, a metadata array and argument arrays; here
//! one [`pxl_model::PendingTask`] per entry plays all of those roles. The
//! P-Store is *distributed*: one per tile, addressable from remote tiles
//! through the continuation's tile field.
//!
//! Protocol violations (an argument addressed to a freed entry, an
//! out-of-range slot) are *recoverable errors*, not panics: the fault
//! injector deliberately provokes them, and a simulated hardware bug must
//! surface as a failed run, never a crashed process. The store also models
//! an ECC scrubber: [`PStore::corrupt`] flips bits in a live entry's
//! argument words, and the next [`PStore::fill`] touching that entry
//! detects and repairs the damage before applying the new argument.

use pxl_model::{PendingTable, PendingTableError, PendingTask, Task, MAX_ARGS};
use pxl_sim::json::{self, FieldError, JsonValue};

/// A protocol violation detected by the P-Store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PStoreError {
    /// An argument arrived for an entry outside the store.
    OutOfBounds {
        /// The offending entry index.
        entry: u32,
    },
    /// An argument arrived for a freed or never-allocated entry.
    DeadEntry {
        /// The offending entry index.
        entry: u32,
    },
    /// An argument named a slot past the argument array.
    BadSlot {
        /// The targeted entry.
        entry: u32,
        /// The out-of-range slot.
        slot: u8,
    },
    /// An allocation carried an impossible join counter.
    BadJoin {
        /// The rejected join counter.
        join: u8,
    },
}

impl std::fmt::Display for PStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PStoreError::OutOfBounds { entry } => {
                write!(f, "P-Store entry {entry} is out of bounds")
            }
            PStoreError::DeadEntry { entry } => {
                write!(f, "argument delivered to dead P-Store entry {entry}")
            }
            PStoreError::BadSlot { entry, slot } => {
                write!(f, "argument slot {slot} out of range for entry {entry}")
            }
            PStoreError::BadJoin { join } => {
                write!(f, "join counter {join} outside 1..={MAX_ARGS}")
            }
        }
    }
}

impl std::error::Error for PStoreError {}

/// Result of a successful [`PStore::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The completed task, when this argument was the last of the join.
    pub ready: Option<Task>,
    /// Whether the scrubber repaired injected corruption on the way in.
    pub repaired: bool,
}

/// One tile's pending-task storage.
///
/// # Examples
///
/// ```
/// use pxl_arch::PStore;
/// use pxl_model::{Continuation, PendingTask, TaskTypeId};
///
/// let mut ps = PStore::new(4);
/// let p = PendingTask::new(TaskTypeId(1), Continuation::host(0), 2);
/// let entry = ps.alloc(p).expect("store has space").expect("valid join");
/// assert!(ps.fill(entry, 0, 10).unwrap().ready.is_none());
/// let ready = ps.fill(entry, 1, 20).unwrap().ready.expect("join complete");
/// assert_eq!(ready.args[..2], [10, 20]);
/// assert_eq!(ps.occupancy(), 0); // entry freed on completion
/// // Filling the freed entry again is an error, not a panic.
/// assert!(ps.fill(entry, 0, 0).is_err());
/// ```
/// Storage is *lazy*: the entries (a [`PendingTable`]) and `taint` only
/// cover the high-water mark of slots ever allocated, so an engine with the
/// default 8192-entry stores pays for the handful of slots a run actually
/// touches, not megabytes of zeroed arrays at construction. The eager
/// equivalent's free list is always `[capacity-1, ..., high_water]` (virgin
/// slots, descending) followed by the table's LIFO free stack, so that
/// stack plus the high-water mark represent it exactly and allocation order
/// is identical to the eager layout. Snapshots follow the same rule and
/// cover only the slots below the high-water mark.
#[derive(Debug, Clone)]
pub struct PStore {
    entries: PendingTable,
    /// Outstanding corruption per entry: the XOR mask the scrubber must
    /// undo on next access (0 = clean).
    taint: Vec<u64>,
    capacity: usize,
    peak: usize,
    total_allocs: u64,
    full_events: u64,
    repairs: u64,
}

impl PStore {
    /// Creates a P-Store with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        PStore {
            entries: PendingTable::new(),
            taint: Vec::new(),
            capacity,
            peak: 0,
            total_allocs: 0,
            full_events: 0,
            repairs: 0,
        }
    }

    /// Number of live pending tasks.
    pub fn occupancy(&self) -> usize {
        self.entries.live()
    }

    /// Peak number of simultaneously pending tasks.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total successful allocations.
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Number of allocation attempts rejected for lack of space.
    pub fn full_events(&self) -> u64 {
        self.full_events
    }

    /// Number of corrupted entries the scrubber has repaired.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Allocates an entry for `pending`, returning its index, `None` if
    /// the store is full.
    ///
    /// # Errors
    ///
    /// [`PStoreError::BadJoin`] if the pending task's join counter is
    /// outside `1..=MAX_ARGS` (allocation misuse: a ready task should be
    /// spawned, not parked).
    pub fn alloc(&mut self, pending: PendingTask) -> Result<Option<u32>, PStoreError> {
        if pending.join == 0 || pending.join as usize > MAX_ARGS {
            return Err(PStoreError::BadJoin { join: pending.join });
        }
        if self.occupancy() >= self.capacity {
            self.full_events += 1;
            return Ok(None);
        }
        let e = self.entries.alloc(pending);
        self.taint.resize(self.entries.high_water(), 0);
        self.taint[e as usize] = 0;
        self.total_allocs += 1;
        self.peak = self.peak.max(self.occupancy());
        Ok(Some(e))
    }

    /// Delivers an argument to `slot` of `entry`, repairing any injected
    /// corruption first. When the join counter reaches zero the entry is
    /// deallocated and the ready task returned in the outcome.
    ///
    /// # Errors
    ///
    /// [`PStoreError`] on any protocol violation: an out-of-bounds or dead
    /// entry (the argument outlived its join), or an out-of-range slot.
    pub fn fill(&mut self, entry: u32, slot: u8, value: u64) -> Result<FillOutcome, PStoreError> {
        if entry as usize >= self.capacity {
            return Err(PStoreError::OutOfBounds { entry });
        }
        if slot as usize >= MAX_ARGS {
            return Err(PStoreError::BadSlot { entry, slot });
        }
        // A slot past the high-water mark was never allocated — dead, like
        // a freed one.
        let taint = match self.taint.get_mut(entry as usize) {
            Some(t) => std::mem::take(t),
            None => return Err(PStoreError::DeadEntry { entry }),
        };
        let dead = PStoreError::DeadEntry { entry };
        let cell = self.entries.get_mut(entry).ok_or(dead)?;
        let repaired = taint != 0;
        if repaired {
            // The ECC scrubber detects the upset on access and restores the
            // stored words (XOR masks are self-inverse).
            for arg in cell.args.iter_mut() {
                *arg ^= taint;
            }
            self.repairs += 1;
        }
        let ready = self.entries.fill(entry, slot, value).ok_or(dead)?;
        Ok(FillOutcome { ready, repaired })
    }

    /// Injects corruption: XORs `mask` into every argument word of the
    /// lowest-indexed live entry, returning that entry, or `None` when the
    /// store holds no live entry (nothing to corrupt). The damage is
    /// repaired by the scrubber on the entry's next [`PStore::fill`].
    pub fn corrupt(&mut self, mask: u64) -> Option<u32> {
        let (entry, cell) = self.entries.first_live_mut()?;
        for arg in cell.args.iter_mut() {
            *arg ^= mask;
        }
        self.taint[entry as usize] ^= mask;
        Some(entry)
    }

    /// Whether `entry` currently carries unrepaired injected corruption.
    pub fn tainted(&self, entry: u32) -> bool {
        self.taint.get(entry as usize).is_some_and(|t| *t != 0)
    }

    /// The task instance id of the pending task in `entry`, or `None` when
    /// the entry is out of bounds or dead. Used by the tracer to label join
    /// events with the successor they feed.
    pub fn pending_id(&self, entry: u32) -> Option<u64> {
        self.entries.id(entry)
    }

    /// Serializes the store for engine snapshots, covering only the slots
    /// below the high-water mark:
    /// `{"capacity":C,"entries":[...],"taint":[entry,mask,...],
    /// "recycled":[...],"peak":..,"total_allocs":..,"full_events":..,
    /// "repairs":..}`. `entries` holds one word-encoded pending task per
    /// slot ever allocated (empty array = free slot), `taint` flat
    /// `[entry, mask]` pairs for the entries carrying a non-zero mask, and
    /// `recycled` the free stack in order (allocation pops its tail).
    pub fn state_to_json_value(&self) -> JsonValue {
        let taint = self
            .taint
            .iter()
            .enumerate()
            .filter(|(_, mask)| **mask != 0)
            .flat_map(|(entry, mask)| [entry as u64, *mask]);
        json::obj(vec![
            ("capacity", json::num(self.capacity as u64)),
            ("entries", self.entries.cells_to_json()),
            ("taint", json::arr_u64(taint)),
            ("recycled", self.entries.free_to_json()),
            ("peak", json::num(self.peak as u64)),
            ("total_allocs", json::num(self.total_allocs)),
            ("full_events", json::num(self.full_events)),
            ("repairs", json::num(self.repairs)),
        ])
    }

    /// Replaces the store's contents with a state captured by
    /// [`PStore::state_to_json_value`]. The store keeps its configured
    /// capacity, which must match the snapshot's. On error the store is
    /// left unchanged.
    ///
    /// # Errors
    ///
    /// [`PStoreStateError`] when the snapshot was taken from a store of a
    /// different capacity, or describes a state no store can reach: more
    /// entries than capacity, taint past the high-water mark, a recycled
    /// slot that is not free, or a free-slot count that disagrees with the
    /// recycled stack.
    pub fn restore_state(&mut self, value: &JsonValue) -> Result<(), PStoreStateError> {
        let capacity = json::get_word::<u64>(value, "capacity")?;
        if capacity != self.capacity as u64 {
            return Err(PStoreStateError::CapacityMismatch {
                found: capacity,
                expected: self.capacity,
            });
        }
        let found = json::get_arr(value, "entries")?.len();
        if found > self.capacity {
            return Err(PStoreStateError::TooManyEntries {
                found,
                capacity: self.capacity,
            });
        }
        let entries = PendingTable::read(value, "entries", "recycled")?;
        let high_water = entries.high_water();
        let mut taint = vec![0; high_water];
        for [entry, mask] in json::records_of::<u64, 2>(json::get(value, "taint")?, "taint")? {
            if entry >= high_water as u64 {
                return Err(PStoreStateError::TaintPastHighWater { entry, high_water });
            }
            taint[entry as usize] = mask;
        }
        let peak = json::get_word(value, "peak")?;
        let total_allocs = json::get_word(value, "total_allocs")?;
        let full_events = json::get_word(value, "full_events")?;
        let repairs = json::get_word(value, "repairs")?;
        self.entries = entries;
        self.taint = taint;
        self.peak = peak;
        self.total_allocs = total_allocs;
        self.full_events = full_events;
        self.repairs = repairs;
        Ok(())
    }
}

/// Why a P-Store snapshot was refused by [`PStore::restore_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PStoreStateError {
    /// The snapshot was taken from a store of a different capacity.
    CapacityMismatch {
        /// The snapshot's capacity.
        found: u64,
        /// This store's capacity.
        expected: usize,
    },
    /// The snapshot lists more entries than the store holds.
    TooManyEntries {
        /// Entries listed.
        found: usize,
        /// The store's capacity.
        capacity: usize,
    },
    /// A taint mask names a slot at or past the high-water mark.
    TaintPastHighWater {
        /// The tainted entry.
        entry: u64,
        /// Slots the snapshot lists.
        high_water: usize,
    },
    /// A recycled slot is live, past the high-water mark, or listed twice.
    RecycledNotFree {
        /// The offending slot.
        entry: u64,
    },
    /// The number of free slots below the high-water mark differs from
    /// the recycled stack's length.
    FreeCountMismatch {
        /// Free slots among the listed entries.
        free: usize,
        /// Length of the recycled stack.
        recycled: usize,
    },
    /// A field is missing or has the wrong type or shape.
    Malformed(String),
}

impl std::fmt::Display for PStoreStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PStoreStateError::CapacityMismatch { found, expected } => write!(
                f,
                "pstore state: capacity {found}, this store has {expected} entries"
            ),
            PStoreStateError::TooManyEntries { found, capacity } => write!(
                f,
                "pstore state: {found} entries for a {capacity}-entry store"
            ),
            PStoreStateError::TaintPastHighWater { entry, high_water } => write!(
                f,
                "pstore state: taint on entry {entry}, past the high-water mark {high_water}"
            ),
            PStoreStateError::RecycledNotFree { entry } => {
                write!(f, "pstore state: recycled entry {entry} is not a free slot")
            }
            PStoreStateError::FreeCountMismatch { free, recycled } => write!(
                f,
                "pstore state: {free} free slots but {recycled} recycled entries"
            ),
            PStoreStateError::Malformed(msg) => write!(f, "pstore state: {msg}"),
        }
    }
}

impl std::error::Error for PStoreStateError {}

impl From<FieldError> for PStoreStateError {
    fn from(err: FieldError) -> Self {
        PStoreStateError::Malformed(err.to_string())
    }
}

/// The table's free-list refusals, in the P-Store's terms.
impl From<PendingTableError> for PStoreStateError {
    fn from(err: PendingTableError) -> Self {
        match err {
            PendingTableError::NotFree { entry, .. } => PStoreStateError::RecycledNotFree { entry },
            PendingTableError::FreeCount { empty, listed, .. } => {
                PStoreStateError::FreeCountMismatch {
                    free: empty,
                    recycled: listed,
                }
            }
            PendingTableError::Malformed(msg) => PStoreStateError::Malformed(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_model::{Continuation, TaskTypeId};

    fn pending(join: u8) -> PendingTask {
        PendingTask::new(TaskTypeId(7), Continuation::host(0), join)
    }

    fn must_alloc(ps: &mut PStore, join: u8) -> u32 {
        ps.alloc(pending(join)).unwrap().unwrap()
    }

    #[test]
    fn alloc_fill_free_cycle() {
        let mut ps = PStore::new(2);
        let a = must_alloc(&mut ps, 1);
        let b = must_alloc(&mut ps, 2);
        assert_ne!(a, b);
        assert_eq!(ps.occupancy(), 2);
        assert!(ps.alloc(pending(1)).unwrap().is_none(), "store is full");
        assert_eq!(ps.full_events(), 1);
        let ready = ps.fill(a, 0, 42).unwrap().ready.unwrap();
        assert_eq!(ready.args[0], 42);
        assert_eq!(ps.occupancy(), 1);
        // Freed entry is reusable.
        assert!(ps.alloc(pending(1)).unwrap().is_some());
    }

    #[test]
    fn peak_occupancy() {
        let mut ps = PStore::new(8);
        let ids: Vec<u32> = (0..5).map(|_| must_alloc(&mut ps, 1)).collect();
        for id in &ids {
            let _ = ps.fill(*id, 0, 0);
        }
        assert_eq!(ps.peak(), 5);
        assert_eq!(ps.total_allocs(), 5);
        assert_eq!(ps.occupancy(), 0);
    }

    #[test]
    fn partial_join_keeps_entry_live() {
        let mut ps = PStore::new(1);
        let e = must_alloc(&mut ps, 3);
        assert!(ps.fill(e, 0, 1).unwrap().ready.is_none());
        assert!(ps.fill(e, 2, 3).unwrap().ready.is_none());
        assert_eq!(ps.occupancy(), 1);
        let ready = ps.fill(e, 1, 2).unwrap().ready.unwrap();
        assert_eq!(ready.args[..3], [1, 2, 3]);
    }

    #[test]
    fn filling_freed_entry_is_a_recoverable_error() {
        let mut ps = PStore::new(1);
        let e = must_alloc(&mut ps, 1);
        assert!(ps.fill(e, 0, 0).is_ok());
        assert_eq!(ps.fill(e, 0, 0), Err(PStoreError::DeadEntry { entry: e }));
        // The store stays usable after the violation.
        assert!(ps.alloc(pending(1)).unwrap().is_some());
    }

    #[test]
    fn bad_addresses_are_recoverable_errors() {
        let mut ps = PStore::new(2);
        let e = must_alloc(&mut ps, 2);
        assert_eq!(ps.fill(9, 0, 0), Err(PStoreError::OutOfBounds { entry: 9 }));
        assert_eq!(
            ps.fill(e, MAX_ARGS as u8, 0),
            Err(PStoreError::BadSlot {
                entry: e,
                slot: MAX_ARGS as u8
            })
        );
        // Misuse left the entry intact.
        assert_eq!(ps.occupancy(), 1);
    }

    #[test]
    fn bad_join_is_rejected_at_alloc() {
        let mut ps = PStore::new(2);
        let mut p = pending(1);
        p.join = 0;
        assert_eq!(ps.alloc(p), Err(PStoreError::BadJoin { join: 0 }));
        let mut p = pending(1);
        p.join = (MAX_ARGS + 1) as u8;
        assert!(ps.alloc(p).is_err());
        assert_eq!(ps.occupancy(), 0, "rejected allocs hold no entry");
    }

    #[test]
    fn corruption_is_repaired_on_next_fill() {
        let mut ps = PStore::new(4);
        let e = must_alloc(&mut ps, 2);
        let _ = ps.fill(e, 0, 0xAAAA).unwrap();
        let hit = ps.corrupt(0xFF00).expect("a live entry exists");
        assert_eq!(hit, e);
        let out = ps.fill(e, 1, 0x5555).unwrap();
        assert!(out.repaired, "scrubber must flag the repair");
        let ready = out.ready.expect("join of two complete");
        assert_eq!(ready.args[..2], [0xAAAA, 0x5555], "values restored");
        assert_eq!(ps.repairs(), 1);
    }

    #[test]
    fn pending_id_tracks_live_entries() {
        let mut ps = PStore::new(2);
        let e = ps.alloc(pending(1).with_id(55)).unwrap().unwrap();
        assert_eq!(ps.pending_id(e), Some(55));
        let _ = ps.fill(e, 0, 0);
        assert_eq!(ps.pending_id(e), None, "freed entries have no id");
        assert_eq!(ps.pending_id(99), None, "out of bounds has no id");
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut a = PStore::new(4);
        let e0 = must_alloc(&mut a, 2);
        let e1 = must_alloc(&mut a, 1);
        let _ = a.fill(e0, 0, 7).unwrap();
        let _ = a.fill(e1, 0, 9).unwrap(); // frees e1
        a.corrupt(0xF0F0);
        let state = a.state_to_json_value();
        let mut b = PStore::new(4);
        b.restore_state(&state).unwrap();
        assert_eq!(b.occupancy(), a.occupancy());
        assert_eq!(b.tainted(e0), a.tainted(e0));
        // Identical future behavior: same allocation order, same repair.
        let (na, nb) = (must_alloc(&mut a, 1), must_alloc(&mut b, 1));
        assert_eq!(na, nb, "free-list order survives the round trip");
        let (oa, ob) = (a.fill(e0, 1, 3).unwrap(), b.fill(e0, 1, 3).unwrap());
        assert_eq!(oa, ob);
        assert!(ob.repaired, "taint mask survives the round trip");
        assert_eq!(ob.ready.unwrap().args[..2], [7, 3]);
        assert_eq!(b.repairs(), a.repairs());
        // Capacity mismatch is rejected.
        let mut wrong = PStore::new(8);
        assert_eq!(
            wrong.restore_state(&state).unwrap_err(),
            PStoreStateError::CapacityMismatch {
                found: 4,
                expected: 8
            }
        );
    }

    #[test]
    fn snapshots_cover_only_slots_below_the_high_water_mark() {
        let mut ps = PStore::new(8192);
        for _ in 0..3 {
            must_alloc(&mut ps, 2);
        }
        let state = ps.state_to_json_value();
        assert_eq!(json::get_arr(&state, "entries").unwrap().len(), 3);
        assert_eq!(json::get_words::<u64>(&state, "taint").unwrap(), []);
        assert_eq!(json::get_word::<u64>(&state, "capacity").unwrap(), 8192);
        assert_eq!(
            PStore::new(8192).state_to_json_value().to_json(),
            "{\"capacity\":8192,\"entries\":[],\"taint\":[],\"recycled\":[],\
             \"peak\":0,\"total_allocs\":0,\"full_events\":0,\"repairs\":0}"
        );
        // Freed slots and taint ride along; the virgin tail does not.
        let _ = ps.fill(1, 0, 0).unwrap();
        let _ = ps.fill(1, 1, 0).unwrap();
        ps.corrupt(0x30);
        let state = ps.state_to_json_value();
        assert_eq!(json::get_words::<u64>(&state, "recycled").unwrap(), [1]);
        assert_eq!(json::get_words::<u64>(&state, "taint").unwrap(), [0, 0x30]);
        let mut back = PStore::new(8192);
        back.restore_state(&state).unwrap();
        assert_eq!(back.state_to_json_value().to_json(), state.to_json());
        assert_eq!(must_alloc(&mut back, 1), must_alloc(&mut ps, 1));
        assert_eq!(must_alloc(&mut back, 1), 3, "then the first virgin slot");
    }

    #[test]
    fn impossible_states_are_refused_with_typed_errors() {
        // Two slots allocated, slot 1 freed: entries [live, free].
        let mut ps = PStore::new(4);
        must_alloc(&mut ps, 2);
        let e1 = must_alloc(&mut ps, 1);
        let _ = ps.fill(e1, 0, 0).unwrap();
        let good = ps.state_to_json_value().to_json();
        let refuse = |from: &str, to: &str| {
            let text = good.replace(from, to);
            assert_ne!(text, good, "{from} not found");
            let mut store = PStore::new(4);
            let err = store
                .restore_state(&JsonValue::parse(&text).unwrap())
                .unwrap_err();
            assert_eq!(store.occupancy(), 0, "refusal leaves the store as it was");
            err
        };
        let live = r#"[7,0,2,0,0,0,0,0,0,0]"#;
        assert!(good.contains(live), "{good}");
        assert_eq!(
            refuse(
                "\"entries\":[",
                &format!("\"entries\":[{live},{live},{live},{live},")
            ),
            PStoreStateError::TooManyEntries {
                found: 6,
                capacity: 4
            }
        );
        assert_eq!(
            refuse("\"taint\":[]", "\"taint\":[2,1]"),
            PStoreStateError::TaintPastHighWater {
                entry: 2,
                high_water: 2
            }
        );
        // The table's free-list refusals (each case is tested there) keep
        // the P-Store's variants and messages.
        let err = refuse("\"recycled\":[1]", "\"recycled\":[0]");
        assert_eq!(err, PStoreStateError::RecycledNotFree { entry: 0 });
        assert_eq!(
            err.to_string(),
            "pstore state: recycled entry 0 is not a free slot"
        );
        let err = refuse("\"recycled\":[1]", "\"recycled\":[]");
        assert_eq!(
            err,
            PStoreStateError::FreeCountMismatch {
                free: 1,
                recycled: 0
            }
        );
        assert_eq!(
            err.to_string(),
            "pstore state: 1 free slots but 0 recycled entries"
        );
        assert!(matches!(
            refuse("\"taint\":[]", "\"taint\":[0]"),
            PStoreStateError::Malformed(_)
        ));
        // A stray non-numeric word is refused, not skipped: dropping the
        // string would leave a well-formed entry.
        let err = refuse(live, r#"[7,0,2,"x",0,0,0,0,0,0,0]"#);
        assert!(
            matches!(&err, PStoreStateError::Malformed(m) if m.contains("non-u64")),
            "{err}"
        );
    }

    #[test]
    fn corrupting_an_empty_store_is_a_no_op() {
        let mut ps = PStore::new(2);
        assert_eq!(ps.corrupt(0xFF), None);
        assert_eq!(ps.repairs(), 0);
    }

    #[test]
    fn double_corruption_cancels_and_accumulates_correctly() {
        let mut ps = PStore::new(2);
        let e = must_alloc(&mut ps, 2);
        let _ = ps.fill(e, 0, 7).unwrap();
        ps.corrupt(0b1100);
        ps.corrupt(0b1010);
        let out = ps.fill(e, 1, 8).unwrap();
        assert!(out.repaired);
        assert_eq!(out.ready.unwrap().args[..2], [7, 8]);
    }
}
