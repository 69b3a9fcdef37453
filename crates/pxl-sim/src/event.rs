//! A deterministic discrete-event queue with data-oriented internals.
//!
//! The accelerator and CPU models are predominantly cycle-driven, but the
//! surrounding system (memory responses, steal round trips, host/accelerator
//! interface transactions) is naturally event-driven — the same split the
//! paper uses when embedding a cycle-based RTL simulator inside gem5's
//! event-driven core. [`EventQueue`] orders arbitrary payloads by timestamp
//! with FIFO tie-breaking so simulation is deterministic regardless of
//! insertion order at equal times.
//!
//! # Data layout
//!
//! Payloads never move after insertion: they live in a free-list
//! [`EventSlab`] and the queue orders only compact 24-byte
//! `(time, seq, slot)` index entries. Two lanes hold those entries:
//!
//! * a **near-future bucket ring** — `NUM_BUCKETS` buckets of
//!   `1 << BUCKET_SHIFT` picoseconds each, covering the window
//!   `[cursor, cursor + NUM_BUCKETS)` of absolute bucket indices. The
//!   dominant short-latency events (PE wakes, steal hops, argument
//!   deliveries) land here with O(1) pushes and amortized-O(1) pops: the
//!   cursor only moves forward, so empty-bucket skips are paid once per
//!   bucket, not once per pop.
//! * a **far/overflow binary heap** for everything beyond the window
//!   (watchdog horizons, timed faults, long stalls) and, defensively, for
//!   any push behind the cursor.
//!
//! Correctness never depends on lane placement: every pop compares the
//! earliest candidate of *both* lanes under the same `(time, seq)` order, so
//! a misrouted entry costs a heap operation, never a reordering. The pop
//! order is therefore bit-identical to the plain binary-heap implementation
//! this replaced (a qcheck property in `tests/properties.rs` holds the two
//! equivalent over random interleavings).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Near-future lane geometry: `NUM_BUCKETS` buckets of `1 << BUCKET_SHIFT`
/// picoseconds. At the fabric's 200 MHz clock (5000 ps/cycle) this spans
/// ~420 cycles — wide enough for dispatch/steal/backoff deltas, while
/// watchdog- and fault-horizon events overflow to the heap lane.
const BUCKET_SHIFT: u32 = 13;
const NUM_BUCKETS: usize = 256;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;

/// A free-list slab: stable `u32` handles to payloads that never move until
/// removed. [`EventQueue`] stores its payloads here; `pxl-arch` reuses it to
/// park task payloads outside its event enum so events stay small.
#[derive(Debug, Clone)]
pub struct EventSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for EventSlab<T> {
    fn default() -> Self {
        EventSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> EventSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        EventSlab::default()
    }

    /// Stores `value`, returning its stable slot handle.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Removes and returns the payload at `slot`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant — a handle was used twice or never issued,
    /// which is always a logic error in the caller.
    pub fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .take()
            .expect("slab slot is occupied");
        self.free.push(slot);
        value
    }

    /// Shared access to the payload at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant.
    pub fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .as_ref()
            .expect("slab slot is occupied")
    }

    /// Number of live payloads.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no payloads are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every payload and recycles all slots.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// A compact index entry: the heap and buckets order these 24-byte records
/// while the payload stays put in the slab.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    when: Time,
    seq: u64,
    slot: u32,
}

impl IndexEntry {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.when, self.seq)
    }
}

impl PartialEq for IndexEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for IndexEntry {}

impl Ord for IndexEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // and break timestamp ties by insertion order (lower seq first).
        other.key().cmp(&self.key())
    }
}
impl PartialOrd for IndexEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One ring bucket: entries sorted by `(time, seq)` ascending, consumed
/// from `head` forward. Simulated time mostly moves forward, so the common
/// push is an O(1) append at the back and every pop is an O(1) read at
/// `head`; only the rare out-of-order push within a bucket pays a binary
/// search plus a short memmove. The consumed prefix is reclaimed wholesale
/// when the bucket drains.
#[derive(Debug, Clone, Default)]
struct Bucket {
    entries: Vec<IndexEntry>,
    head: usize,
}

impl Bucket {
    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.entries.len()
    }

    /// The earliest live entry (entries are ascending past `head`).
    #[inline]
    fn front(&self) -> Option<&IndexEntry> {
        self.entries.get(self.head)
    }

    #[inline]
    fn push(&mut self, entry: IndexEntry) {
        if self.is_empty() {
            self.entries.clear();
            self.head = 0;
        }
        if self
            .entries
            .last()
            .is_none_or(|back| back.key() < entry.key())
        {
            self.entries.push(entry);
        } else {
            let at =
                self.head + self.entries[self.head..].partition_point(|e| e.key() < entry.key());
            self.entries.insert(at, entry);
        }
    }

    /// Consumes the earliest live entry.
    #[inline]
    fn pop_front(&mut self) -> IndexEntry {
        let entry = self.entries[self.head];
        self.head += 1;
        if self.head == self.entries.len() {
            self.entries.clear();
            self.head = 0;
        }
        entry
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
    }

    /// The live (unconsumed) entries.
    fn live(&self) -> &[IndexEntry] {
        &self.entries[self.head..]
    }
}

/// A time-ordered queue of events carrying payloads of type `T`.
///
/// Events scheduled for the same instant pop in the order they were pushed,
/// making simulations reproducible. See the module docs for the slab +
/// two-lane index layout behind the API.
///
/// # Examples
///
/// ```
/// use pxl_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(5), "late");
/// q.push(Time::from_ns(1), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, Time::from_ns(1));
/// assert_eq!(e, "early");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    slab: EventSlab<T>,
    /// The near-future ring; bucket `b` (absolute index) lives at
    /// `b & BUCKET_MASK` while `b` is inside `[cursor, cursor +
    /// NUM_BUCKETS)`.
    buckets: Vec<Bucket>,
    /// Entries currently in the ring (across all buckets).
    near_len: usize,
    /// Absolute bucket index the ring window starts at; monotone
    /// non-decreasing between [`EventQueue::clear`]s.
    cursor: u64,
    /// Far-future / overflow lane.
    far: BinaryHeap<IndexEntry>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            slab: EventSlab::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Bucket::default()).collect(),
            near_len: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }
}

#[inline]
fn bucket_of(when: Time) -> u64 {
    when.as_ps() >> BUCKET_SHIFT
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `payload` at absolute time `when`.
    pub fn push(&mut self, when: Time, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slab.insert(payload);
        let entry = IndexEntry { when, seq, slot };
        let bucket = bucket_of(when);
        // Behind-cursor pushes (possible only for times already popped past)
        // fall through to the heap lane, which keeps them correctly ordered.
        if bucket >= self.cursor && bucket - self.cursor < NUM_BUCKETS as u64 {
            self.buckets[(bucket & BUCKET_MASK) as usize].push(entry);
            self.near_len += 1;
        } else {
            self.far.push(entry);
        }
        self.len += 1;
    }

    /// Ring position of the earliest near-lane entry (its bucket's back),
    /// advancing `cursor` over the empty buckets it skips (each bucket is
    /// skipped at most once between clears, making pops amortized O(1)).
    fn find_near(&mut self) -> Option<usize> {
        if self.near_len == 0 {
            return None;
        }
        let mut bucket = self.cursor;
        loop {
            let pos = (bucket & BUCKET_MASK) as usize;
            if !self.buckets[pos].is_empty() {
                self.cursor = bucket;
                return Some(pos);
            }
            bucket += 1;
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let near = self.find_near();
        let entry = match (near, self.far.peek()) {
            (None, None) => return None,
            (Some(pos), far_top) => {
                let near_entry = *self.buckets[pos].front().expect("bucket is non-empty");
                if far_top.is_none_or(|f| near_entry.key() <= f.key()) {
                    self.near_len -= 1;
                    self.buckets[pos].pop_front()
                } else {
                    self.pop_far()
                }
            }
            (None, Some(_)) => self.pop_far(),
        };
        self.len -= 1;
        Some((entry.when, self.slab.take(entry.slot)))
    }

    /// Pops the far lane and re-centers the ring window on the popped time.
    /// Safe because every remaining entry orders at or after the popped one,
    /// so no live ring entry can fall behind the advanced cursor.
    fn pop_far(&mut self) -> IndexEntry {
        let entry = self.far.pop().expect("far lane is non-empty");
        self.cursor = self.cursor.max(bucket_of(entry.when));
        entry
    }

    /// Returns the timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        let mut best: Option<(Time, u64)> = self.far.peek().map(|e| e.key());
        if self.near_len > 0 {
            let mut bucket = self.cursor;
            loop {
                let pos = (bucket & BUCKET_MASK) as usize;
                if let Some(min) = self.buckets[pos].front() {
                    if best.is_none_or(|b| min.key() < b) {
                        best = Some(min.key());
                    }
                    break;
                }
                bucket += 1;
            }
        }
        best.map(|(when, _)| when)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.slab.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.near_len = 0;
        self.cursor = 0;
        self.far.clear();
        self.len = 0;
    }

    /// Returns every pending event in the exact order `pop` would yield
    /// them (time order, insertion order at equal times), without
    /// consuming the queue.
    ///
    /// Snapshot/restore uses this: re-pushing the returned sequence into a
    /// fresh queue reproduces the pop order exactly, because fresh
    /// sequence numbers assigned in this order preserve every tie-break.
    pub fn ordered(&self) -> Vec<(Time, &T)> {
        let mut entries: Vec<IndexEntry> = self
            .buckets
            .iter()
            .flat_map(Bucket::live)
            .chain(self.far.iter())
            .copied()
            .collect();
        entries.sort_by_key(IndexEntry::key);
        entries
            .into_iter()
            .map(|e| (e.when, self.slab.get(e.slot)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), 3);
        q.push(Time::from_ps(10), 1);
        q.push(Time::from_ps(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ps(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(7), "x");
        assert_eq!(q.peek_time(), Some(Time::from_ps(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ordered_matches_pop_order_and_preserves_ties() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(9), 'c');
        q.push(Time::from_ps(4), 'a');
        q.push(Time::from_ps(4), 'b');
        let snap: Vec<(Time, char)> = q.ordered().into_iter().map(|(t, &p)| (t, p)).collect();
        // Rebuilding from the snapshot must pop identically to the original.
        let mut rebuilt = EventQueue::new();
        for &(t, p) in &snap {
            rebuilt.push(t, p);
        }
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| rebuilt.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(snap, a);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), 'a');
        q.push(Time::from_ps(5), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        q.push(Time::from_ps(1), 'c');
        q.push(Time::from_ps(50), 'd');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'd');
        assert!(q.pop().is_none());
    }

    /// Events far beyond the bucket window (watchdog-scale horizons) take
    /// the heap lane and still interleave correctly with near-lane traffic.
    #[test]
    fn far_future_events_interleave_with_near_traffic() {
        let mut q = EventQueue::new();
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        q.push(Time::from_ps(10 * horizon), -1); // far lane
        q.push(Time::from_ps(3), 0);
        q.push(Time::from_ps(horizon - 1), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ps(3)));
        assert_eq!(q.pop().unwrap().1, 0);
        // Pushing near the popped time after the window re-centers.
        q.push(Time::from_ps(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // After draining the near lane the far event surfaces, and the
        // window re-centers on it so follow-up pushes are near again.
        assert_eq!(q.pop().unwrap(), (Time::from_ps(10 * horizon), -1));
        q.push(Time::from_ps(10 * horizon + 5), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }

    /// The slab recycles slots: a long-running push/pop steady state must
    /// not grow storage without bound.
    #[test]
    fn slab_recycles_slots_in_steady_state() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(Time::from_ps(i * 7), i);
            q.push(Time::from_ps(i * 7 + 3), i);
            let _ = q.pop();
            let _ = q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.slab.slots.len() <= 8,
            "steady state leaked {} slab slots",
            q.slab.slots.len()
        );
    }

    #[test]
    fn slab_insert_take_get_roundtrip() {
        let mut slab = EventSlab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(*slab.get(a), "a");
        assert_eq!(slab.take(a), "a");
        assert_eq!(slab.len(), 1);
        let c = slab.insert("c");
        assert_eq!(c, a, "freed slot must be recycled");
        assert_eq!(*slab.get(b), "b");
        slab.clear();
        assert!(slab.is_empty());
    }
}
