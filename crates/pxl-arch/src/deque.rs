//! The task-management unit's work-stealing deque.
//!
//! Each PE's TMU owns a double-ended task queue (Section III-A): the worker
//! pushes and pops at the **tail** in LIFO order (depth-first traversal of
//! the task graph, which the paper notes gives much better task locality
//! than FIFO), while thieves steal from the **head** — the oldest task,
//! closest to the root of the spawn tree, so each steal transfers a large
//! chunk of work.
//!
//! Entries carry an availability timestamp: the simulator executes a task's
//! spawns eagerly in host time, so a task spawned "later this cycle window"
//! must stay invisible to a thief whose steal request arrives before the
//! spawn's simulated time.

use std::collections::VecDeque;

use pxl_model::{Task, TASK_WORDS};
use pxl_sim::json::{self, JsonValue};
use pxl_sim::{EventSlab, Time};

/// A bounded double-ended task queue with timestamped availability.
///
/// # Examples
///
/// ```
/// use pxl_arch::TaskDeque;
/// use pxl_model::{Continuation, Task, TaskTypeId};
/// use pxl_sim::Time;
///
/// let mut q = TaskDeque::new(8);
/// let t = Task::new(TaskTypeId(0), Continuation::host(0), &[]);
/// q.push_tail(t, Time::from_ns(10)).unwrap();
/// assert!(q.steal_head(Time::from_ns(5)).is_none()); // not visible yet
/// assert!(q.steal_head(Time::from_ns(10)).is_some());
/// ```
/// Ring entries are 16 bytes — an arena slot plus the availability
/// timestamp — so head/tail churn never moves task payloads.
#[derive(Debug, Clone, Copy)]
struct DequeEntry {
    slot: u32,
    avail: Time,
}

#[derive(Debug, Clone)]
pub struct TaskDeque {
    /// Head/tail order over arena slots; the hot path touches only these
    /// compact entries.
    items: VecDeque<DequeEntry>,
    /// Per-run task arena: payloads stay put between push and pop/steal,
    /// and freed slots recycle so steady-state traffic never allocates.
    arena: EventSlab<Task>,
    capacity: usize,
    peak: usize,
    total_pushed: u64,
}

impl TaskDeque {
    /// Creates a deque holding at most `capacity` tasks.
    pub fn new(capacity: usize) -> Self {
        TaskDeque {
            items: VecDeque::new(),
            arena: EventSlab::new(),
            capacity,
            peak: 0,
            total_pushed: 0,
        }
    }

    /// Number of tasks currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Peak occupancy observed (for checking the `S_P <= S_1 * P` space
    /// bound).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total tasks ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Pushes a task at the tail, visible from time `available_at`.
    ///
    /// # Errors
    ///
    /// Returns the task back if the queue is full.
    pub fn push_tail(&mut self, task: Task, available_at: Time) -> Result<(), Task> {
        if self.items.len() >= self.capacity {
            return Err(task);
        }
        let slot = self.arena.insert(task);
        self.items.push_back(DequeEntry {
            slot,
            avail: available_at,
        });
        self.total_pushed += 1;
        self.peak = self.peak.max(self.items.len());
        Ok(())
    }

    /// Pops the most recently pushed task (LIFO), if one is visible at
    /// `now`.
    pub fn pop_tail(&mut self, now: Time) -> Option<Task> {
        match self.items.back() {
            Some(e) if e.avail <= now => {
                let e = self.items.pop_back().expect("back exists");
                Some(self.arena.take(e.slot))
            }
            _ => None,
        }
    }

    /// Steals the oldest task (head), if one is visible at `now`.
    pub fn steal_head(&mut self, now: Time) -> Option<Task> {
        match self.items.front() {
            Some(e) if e.avail <= now => {
                let e = self.items.pop_front().expect("front exists");
                Some(self.arena.take(e.slot))
            }
            _ => None,
        }
    }

    /// Pops the oldest task (head) for FIFO local ordering — an ablation
    /// of the TMU's LIFO discipline, not used by the default architecture.
    pub fn pop_head(&mut self, now: Time) -> Option<Task> {
        self.steal_head(now)
    }

    /// Steals the head only if it is visible at `now` *and* satisfies
    /// `pred` — the type-filtered steal of the heterogeneous-worker
    /// extension (a thief only takes tasks its worker can process).
    pub fn steal_head_if(&mut self, now: Time, pred: impl Fn(&Task) -> bool) -> Option<Task> {
        match self.items.front() {
            Some(e) if e.avail <= now && pred(self.arena.get(e.slot)) => {
                let e = self.items.pop_front().expect("front exists");
                Some(self.arena.take(e.slot))
            }
            _ => None,
        }
    }

    /// Serializes contents and counters for engine snapshots. Each queued
    /// item is the task's word encoding followed by its availability
    /// timestamp; capacity comes from configuration, not the snapshot.
    pub fn state_to_json_value(&self) -> JsonValue {
        let items = self
            .items
            .iter()
            .map(|e| {
                let words = self.arena.get(e.slot).to_words();
                json::arr_u64(words.into_iter().chain([e.avail.as_ps()]))
            })
            .collect();
        json::obj(vec![
            ("items", JsonValue::Array(items)),
            ("peak", json::num(self.peak as u64)),
            ("total_pushed", json::num(self.total_pushed)),
        ])
    }

    /// Replaces contents and counters with a state captured by
    /// [`TaskDeque::state_to_json_value`]. The deque keeps its configured
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns a message when the state is malformed or holds more tasks
    /// than this deque's capacity.
    pub fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        let entries = json::get_arr(value, "items")?;
        if entries.len() > self.capacity {
            return Err(format!(
                "deque state holds {} tasks, capacity is {}",
                entries.len(),
                self.capacity
            ));
        }
        let mut items = VecDeque::with_capacity(entries.len());
        let mut arena = EventSlab::new();
        for entry in entries {
            let words = json::record_of::<u64, { TASK_WORDS + 1 }>(entry, "items")?;
            let task = Task::from_words(&words[..TASK_WORDS])?;
            items.push_back(DequeEntry {
                slot: arena.insert(task),
                avail: Time::from_ps(words[TASK_WORDS]),
            });
        }
        let peak = json::get_word(value, "peak")?;
        let total_pushed = json::get_word(value, "total_pushed")?;
        self.items = items;
        self.arena = arena;
        self.peak = peak;
        self.total_pushed = total_pushed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_model::{Continuation, TaskTypeId};

    fn task(n: u64) -> Task {
        Task::new(TaskTypeId(0), Continuation::host(0), &[n])
    }

    #[test]
    fn lifo_at_tail_fifo_at_head() {
        let mut q = TaskDeque::new(16);
        for i in 0..4 {
            q.push_tail(task(i), Time::ZERO).unwrap();
        }
        assert_eq!(q.pop_tail(Time::ZERO).unwrap().args[0], 3);
        assert_eq!(q.steal_head(Time::ZERO).unwrap().args[0], 0);
        assert_eq!(q.pop_tail(Time::ZERO).unwrap().args[0], 2);
        assert_eq!(q.steal_head(Time::ZERO).unwrap().args[0], 1);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut q = TaskDeque::new(2);
        q.push_tail(task(0), Time::ZERO).unwrap();
        q.push_tail(task(1), Time::ZERO).unwrap();
        let rejected = q.push_tail(task(2), Time::ZERO).unwrap_err();
        assert_eq!(rejected.args[0], 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn availability_gates_visibility() {
        let mut q = TaskDeque::new(4);
        q.push_tail(task(0), Time::from_ns(100)).unwrap();
        assert!(q.pop_tail(Time::from_ns(99)).is_none());
        assert!(q.steal_head(Time::from_ns(99)).is_none());
        assert!(q.pop_tail(Time::from_ns(100)).is_some());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = TaskDeque::new(8);
        for i in 0..5 {
            q.push_tail(task(i), Time::ZERO).unwrap();
        }
        for _ in 0..3 {
            q.pop_tail(Time::ZERO);
        }
        q.push_tail(task(9), Time::ZERO).unwrap();
        assert_eq!(q.peak(), 5);
        assert_eq!(q.total_pushed(), 6);
    }

    #[test]
    fn state_round_trip_preserves_order_and_visibility() {
        let mut a = TaskDeque::new(8);
        for i in 0..4 {
            a.push_tail(task(i), Time::from_ns(i * 10)).unwrap();
        }
        let _ = a.pop_tail(Time::MAX);
        let state = a.state_to_json_value();
        let mut b = TaskDeque::new(8);
        b.restore_state(&state).unwrap();
        assert_eq!(b.len(), a.len());
        assert_eq!((b.peak(), b.total_pushed()), (a.peak(), a.total_pushed()));
        // Availability timestamps survive: head is visible at 0, next is not.
        assert!(b.steal_head(Time::ZERO).is_some());
        assert!(b.steal_head(Time::ZERO).is_none());
        assert_eq!(b.steal_head(Time::from_ns(10)).unwrap().args[0], 1);
        // Restoring into a smaller deque is rejected.
        let mut tiny = TaskDeque::new(2);
        assert!(tiny.restore_state(&state).unwrap_err().contains("capacity"));
        // A stray non-numeric word is refused, not skipped into a shorter
        // (or, with one word too many, a valid-looking) item.
        let tampered = state
            .to_json()
            .replacen("\"items\":[[", "\"items\":[[\"x\",", 1);
        let err = TaskDeque::new(8)
            .restore_state(&JsonValue::parse(&tampered).unwrap())
            .unwrap_err();
        assert!(
            err.contains("\"items\"") && err.contains("non-u64"),
            "{err}"
        );
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let mut q = TaskDeque::new(4);
        assert!(q.pop_tail(Time::MAX).is_none());
        assert!(q.steal_head(Time::MAX).is_none());
    }
}
