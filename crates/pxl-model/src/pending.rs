//! The pending-task table: where successors wait for their arguments.
//!
//! A successor made by `make_successor` waits until its join counter reaches
//! zero (Section II-A). FlexArch keeps these tasks in each tile's P-Store,
//! the CPU runtime in join frames, and the serial reference in an unbounded
//! store; all three are a [`PendingTable`]. An entry freed by a completed
//! join is reused last in, first out before a new slot is appended, so entry
//! numbers, which name P-Store slots and the CPU's join-frame addresses,
//! depend only on the order of allocations and joins.
//!
//! # Examples
//!
//! ```
//! use pxl_model::{Continuation, PendingTable, PendingTask, TaskTypeId};
//!
//! let mut table = PendingTable::new();
//! let p = || PendingTask::new(TaskTypeId(1), Continuation::host(0), 1);
//! let (a, b) = (table.alloc(p()), table.alloc(p()));
//! assert_eq!((a, b), (0, 1));
//! assert!(table.fill(a, 0, 7).unwrap().is_some(), "a one-argument join completes");
//! assert_eq!(table.alloc(p()), a, "the freed entry is reused first");
//! assert_eq!(table.live(), 2);
//! assert!(table.fill(9, 0, 0).is_none(), "no task waits in entry 9");
//! ```

use pxl_sim::json::{self, FieldError, JsonValue};

use crate::task::{PendingTask, Task, PENDING_WORDS};

/// Pending tasks by entry number, with a LIFO stack of freed entries.
#[derive(Debug, Clone, Default)]
pub struct PendingTable {
    /// One slot per entry ever allocated (the high-water mark); `None` is
    /// free.
    slots: Vec<Option<PendingTask>>,
    /// Freed entries in the order they were freed; allocation pops the tail.
    free: Vec<u32>,
}

impl PendingTable {
    /// An empty table.
    pub fn new() -> Self {
        PendingTable::default()
    }

    /// Number of live pending tasks.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of entries ever allocated: live ones plus freed ones.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Stores `task` in the most recently freed entry, or in a new one when
    /// none is free, and returns the entry.
    pub fn alloc(&mut self, task: PendingTask) -> u32 {
        match self.free.pop() {
            Some(entry) => {
                self.slots[entry as usize] = Some(task);
                entry
            }
            None => {
                self.slots.push(Some(task));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The live task in `entry`, for in-place repair.
    pub fn get_mut(&mut self, entry: u32) -> Option<&mut PendingTask> {
        self.slots.get_mut(entry as usize)?.as_mut()
    }

    /// The instance id of the live task in `entry`.
    pub fn id(&self, entry: u32) -> Option<u64> {
        self.slots.get(entry as usize)?.as_ref().map(|task| task.id)
    }

    /// The lowest-numbered live entry and its task.
    pub fn first_live_mut(&mut self) -> Option<(u32, &mut PendingTask)> {
        self.slots
            .iter_mut()
            .enumerate()
            .find_map(|(entry, cell)| cell.as_mut().map(|task| (entry as u32, task)))
    }

    /// Delivers `value` to argument `slot` of the task in `entry`. Returns
    /// `None` when no task waits there, otherwise `Some` of the task this
    /// argument made ready, whose entry is then freed.
    pub fn fill(&mut self, entry: u32, slot: u8, value: u64) -> Option<Option<Task>> {
        let ready = self.get_mut(entry)?.fill(slot, value);
        if ready.is_some() {
            self.slots[entry as usize] = None;
            self.free.push(entry);
        }
        Some(ready)
    }

    /// The slots for a snapshot: `[]` for a free entry, the task's
    /// [`PENDING_WORDS`] words for a live one.
    pub fn cells_to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.slots
                .iter()
                .map(|cell| json::arr_u64(cell.iter().flat_map(PendingTask::to_words)))
                .collect(),
        )
    }

    /// The free stack for a snapshot, oldest first.
    pub fn free_to_json(&self) -> JsonValue {
        json::words(&self.free)
    }

    /// Reads a table written as [`PendingTable::cells_to_json`] under
    /// `cells_key` of `value` and [`PendingTable::free_to_json`] under
    /// `free_key`.
    ///
    /// # Errors
    ///
    /// [`PendingTableError`] for a malformed cell or free word, and for a
    /// free stack no run can leave: an entry that is live, past the
    /// high-water mark or listed twice, or a count that differs from the
    /// number of free slots.
    pub fn read(
        value: &JsonValue,
        cells_key: &'static str,
        free_key: &'static str,
    ) -> Result<PendingTable, PendingTableError> {
        let slots = json::get_arr(value, cells_key)?
            .iter()
            .map(|cell| {
                json::cell_of::<u64, PENDING_WORDS>(cell, cells_key)?
                    .map(|words| PendingTask::from_words(&words))
                    .transpose()
                    .map_err(PendingTableError::Malformed)
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Each free entry must be an empty slot listed once: an entry popped
        // twice would hand one slot to two pending tasks.
        let mut listed = vec![false; slots.len()];
        let free = json::get_words::<u64>(value, free_key)?
            .into_iter()
            .map(|entry| {
                usize::try_from(entry)
                    .ok()
                    .filter(|&e| {
                        e < slots.len()
                            && slots[e].is_none()
                            && !std::mem::replace(&mut listed[e], true)
                    })
                    .map(|e| e as u32)
                    .ok_or(PendingTableError::NotFree {
                        key: free_key,
                        entry,
                    })
            })
            .collect::<Result<Vec<u32>, _>>()?;
        let empty = slots.iter().filter(|cell| cell.is_none()).count();
        if empty != free.len() {
            return Err(PendingTableError::FreeCount {
                key: free_key,
                empty,
                listed: free.len(),
            });
        }
        Ok(PendingTable { slots, free })
    }
}

/// Why [`PendingTable::read`] refused a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PendingTableError {
    /// The free stack lists an entry that is live, past the high-water
    /// mark, or already listed.
    NotFree {
        /// The free stack's key.
        key: &'static str,
        /// The offending entry.
        entry: u64,
    },
    /// The free stack's length differs from the number of free slots.
    FreeCount {
        /// The free stack's key.
        key: &'static str,
        /// Free slots below the high-water mark.
        empty: usize,
        /// Entries the free stack lists.
        listed: usize,
    },
    /// A field is missing or has the wrong type or shape.
    Malformed(String),
}

impl std::fmt::Display for PendingTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PendingTableError::NotFree { key, entry } => {
                write!(f, "{key:?} lists entry {entry}, which is not a free slot")
            }
            PendingTableError::FreeCount { key, empty, listed } => write!(
                f,
                "{key:?} lists {listed} free entries, but {empty} slots are free"
            ),
            PendingTableError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for PendingTableError {}

impl From<FieldError> for PendingTableError {
    fn from(err: FieldError) -> Self {
        PendingTableError::Malformed(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Continuation, TaskTypeId};

    fn pending(join: u8) -> PendingTask {
        PendingTask::new(TaskTypeId(7), Continuation::host(0), join)
    }

    fn snapshot(table: &PendingTable) -> String {
        json::obj(vec![
            ("cells", table.cells_to_json()),
            ("free", table.free_to_json()),
        ])
        .to_json()
    }

    fn read(text: &str) -> Result<PendingTable, PendingTableError> {
        PendingTable::read(&JsonValue::parse(text).unwrap(), "cells", "free")
    }

    #[test]
    fn freed_entries_are_reused_last_in_first_out() {
        let mut table = PendingTable::new();
        let entries: Vec<u32> = (0..4).map(|_| table.alloc(pending(1))).collect();
        assert_eq!(entries, [0, 1, 2, 3]);
        for e in [1, 3, 0] {
            assert!(table.fill(e, 0, 0).unwrap().is_some());
        }
        assert_eq!((table.live(), table.high_water()), (1, 4));
        let again: Vec<u32> = (0..4).map(|_| table.alloc(pending(1))).collect();
        assert_eq!(again, [0, 3, 1, 4], "freed entries first, newest first");
    }

    #[test]
    fn partial_joins_stay_live_and_dead_entries_are_reported() {
        let mut table = PendingTable::new();
        let e = table.alloc(pending(2).with_id(55));
        assert_eq!(table.fill(e, 0, 1), Some(None));
        assert_eq!(table.id(e), Some(55));
        let ready = table.fill(e, 1, 2).unwrap().expect("join complete");
        assert_eq!((ready.id, ready.args[..2].to_vec()), (55, vec![1, 2]));
        assert_eq!(table.fill(e, 0, 0), None, "a freed entry holds no task");
        assert_eq!(table.fill(99, 0, 0), None, "past the high-water mark");
        assert_eq!(table.id(e), None);
        assert!(table.first_live_mut().is_none());
    }

    #[test]
    fn a_snapshot_restores_the_same_allocation_order() {
        let mut table = PendingTable::new();
        for _ in 0..3 {
            table.alloc(pending(2));
        }
        table.fill(1, 0, 0).unwrap();
        table.fill(1, 1, 0).unwrap();
        let text = snapshot(&table);
        assert_eq!(
            text,
            "{\"cells\":[[7,0,2,0,0,0,0,0,0,0],[],[7,0,2,0,0,0,0,0,0,0]],\"free\":[1]}"
        );
        let mut back = read(&text).unwrap();
        assert_eq!(snapshot(&back), text);
        assert_eq!(back.alloc(pending(1)), table.alloc(pending(1)));
        assert_eq!(back.alloc(pending(1)), 3, "then a new slot");
        assert_eq!(snapshot(&PendingTable::new()), "{\"cells\":[],\"free\":[]}");
    }

    #[test]
    fn a_free_stack_no_run_can_leave_is_refused() {
        // Entries [live, free].
        let mut table = PendingTable::new();
        table.alloc(pending(2));
        let e1 = table.alloc(pending(1));
        table.fill(e1, 0, 0).unwrap();
        let good = snapshot(&table);
        let refuse = |from: &str, to: &str| {
            let text = good.replace(from, to);
            assert_ne!(text, good, "{from} not found");
            read(&text).unwrap_err()
        };
        let not_free = |entry| PendingTableError::NotFree { key: "free", entry };
        assert_eq!(refuse("\"free\":[1]", "\"free\":[0]"), not_free(0));
        assert_eq!(refuse("\"free\":[1]", "\"free\":[2]"), not_free(2));
        assert_eq!(
            refuse("\"free\":[1]", &format!("\"free\":[{}]", u64::MAX)),
            not_free(u64::MAX)
        );
        assert_eq!(refuse("\"free\":[1]", "\"free\":[1,1]"), not_free(1));
        let count = refuse("\"free\":[1]", "\"free\":[]");
        assert_eq!(
            count,
            PendingTableError::FreeCount {
                key: "free",
                empty: 1,
                listed: 0
            }
        );
        assert_eq!(
            count.to_string(),
            "\"free\" lists 0 free entries, but 1 slots are free"
        );
        // A stray word is refused, not skipped: dropping it would leave a
        // well-formed cell.
        let err = refuse("[7,0,2,", "[7,0,\"x\",2,");
        assert!(
            matches!(&err, PendingTableError::Malformed(m) if m.contains("non-u64")),
            "{err}"
        );
        assert!(matches!(
            refuse("[7,0,2,", "[7,0,"),
            PendingTableError::Malformed(_)
        ));
    }
}
