//! Set-associative cache arrays with MOESI line states.
//!
//! [`CacheArray`] is the tag/state half of a cache (the data half lives in
//! the shared functional [`crate::Memory`]). One array models each
//! accelerator-tile L1, each CPU-core L1, and the shared L2. The coherence
//! controller in [`crate::system`] drives the per-line [`LineState`] machine.

use pxl_sim::config::CacheParams;
use pxl_sim::json::{self, FieldError, JsonValue};

/// MOESI coherence state of one cache line.
///
/// The paper's platform (Table III) keeps accelerator L1s, CPU L1s and the
/// shared L2 coherent with a MOESI snooping protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified: exclusive and dirty.
    Modified,
    /// Owned: shared and dirty; this cache supplies data on snoops.
    Owned,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly multiple copies, clean in this cache.
    Shared,
}

impl LineState {
    /// Whether this cache must write the line back when evicting it.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// Whether a store may proceed without a bus upgrade.
    pub fn can_write_silently(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// Whether this cache owns the line (M, O or E): it supplies data on a
    /// snoop, and at most one cache may own a line.
    pub fn owns(self) -> bool {
        !matches!(self, LineState::Shared)
    }
}

/// The tag/state array of one set-associative cache with true-LRU
/// replacement.
///
/// # Examples
///
/// ```
/// use pxl_mem::cache::{CacheArray, LineState};
/// use pxl_sim::config::CacheParams;
///
/// let mut c = CacheArray::new(&CacheParams::accel_l1_32k());
/// assert!(c.lookup(0x1000).is_none());
/// c.install(0x1000, LineState::Exclusive);
/// assert_eq!(c.lookup(0x1000), Some(LineState::Exclusive));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// Tag of each way of each set, `assoc` consecutive entries per set:
    /// `line + 1`, with 0 marking an invalid way. Struct-of-arrays so a set
    /// probe compares `assoc` adjacent `u64`s (one or two cache lines)
    /// instead of striding over wider records, and so construction is a
    /// zeroed (lazily mapped) allocation rather than an eager pattern fill.
    lines: Vec<u64>,
    /// Coherence state per way, encoded so 0 = `Shared` (the all-zero
    /// fresh array matches the eager initializer this replaced).
    states: Vec<u8>,
    /// LRU timestamp per way (monotone per-array counter).
    last_use: Vec<u64>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    use_counter: u64,
}

/// Internal `states` byte for a [`LineState`]; inverse of [`dec_state`].
/// The snapshot wire value is `3 - enc_state(s)`, preserving the recorded
/// encoding (Modified=0 … Shared=3) while keeping `Shared == 0` in memory.
#[inline]
fn enc_state(s: LineState) -> u8 {
    match s {
        LineState::Shared => 0,
        LineState::Exclusive => 1,
        LineState::Owned => 2,
        LineState::Modified => 3,
    }
}

#[inline]
fn dec_state(b: u8) -> LineState {
    match b {
        0 => LineState::Shared,
        1 => LineState::Exclusive,
        2 => LineState::Owned,
        _ => LineState::Modified,
    }
}

impl CacheArray {
    /// Builds an array from cache geometry parameters.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not realizable (see
    /// [`CacheParams::num_sets`]).
    pub fn new(params: &CacheParams) -> Self {
        let num_sets = params.num_sets();
        let line_shift = params.line_bytes.trailing_zeros();
        assert_eq!(
            1usize << line_shift,
            params.line_bytes,
            "line size must be a power of two"
        );
        CacheArray {
            lines: vec![0; num_sets * params.ways],
            states: vec![0; num_sets * params.ways],
            last_use: vec![0; num_sets * params.ways],
            assoc: params.ways,
            line_shift,
            set_mask: (num_sets - 1) as u64,
            use_counter: 0,
        }
    }

    /// Index into the flat per-way arrays of way `way` of the set holding
    /// `line`, or of the set's first way when searching.
    #[inline]
    fn base(&self, line: u64) -> usize {
        self.set_index(line) * self.assoc
    }

    /// Way index (flat) of `line` if resident: a linear compare over the
    /// set's `assoc` adjacent tags.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.base(line);
        self.lines[base..base + self.assoc]
            .iter()
            .position(|&l| l == line + 1)
            .map(|i| base + i)
    }

    /// Converts a byte address to a line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up a byte address; on hit returns the line state and refreshes
    /// LRU.
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let line = self.line_of(addr);
        self.use_counter += 1;
        let w = self.find(line)?;
        self.last_use[w] = self.use_counter;
        Some(dec_state(self.states[w]))
    }

    /// Peeks at a line's state without touching LRU (for snoops).
    pub fn peek(&self, addr: u64) -> Option<LineState> {
        self.find(self.line_of(addr))
            .map(|w| dec_state(self.states[w]))
    }

    /// The flat way index (`set * assoc + way`) holding a byte address's
    /// line, if resident, without touching LRU. A line keeps its way until
    /// it is evicted or invalidated, so the index names it until then.
    #[inline]
    pub fn way_of(&self, addr: u64) -> Option<usize> {
        self.find(self.line_of(addr))
    }

    /// Every resident line as `(byte address, state)`, in way order.
    pub fn resident(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.lines
            .iter()
            .zip(&self.states)
            .filter(|(&l, _)| l != 0)
            .map(|(&l, &s)| ((l - 1) << self.line_shift, dec_state(s)))
    }

    /// Sets the state of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        let w = self
            .find(self.line_of(addr))
            .expect("set_state on a non-resident line");
        self.states[w] = enc_state(state);
    }

    /// Installs a line (choosing an LRU victim) and returns the evicted
    /// line's byte address and state, if a valid line was displaced.
    pub fn install(&mut self, addr: u64, state: LineState) -> Option<(u64, LineState)> {
        self.install_way(addr, state).1
    }

    /// [`CacheArray::install`], also returning the flat way index (see
    /// [`CacheArray::way_of`]) the line now occupies.
    pub fn install_way(
        &mut self,
        addr: u64,
        state: LineState,
    ) -> (usize, Option<(u64, LineState)>) {
        let line = self.line_of(addr);
        self.use_counter += 1;
        let tick = self.use_counter;
        // Re-installing an already-resident line just updates it.
        if let Some(w) = self.find(line) {
            self.states[w] = enc_state(state);
            self.last_use[w] = tick;
            return (w, None);
        }
        let base = self.base(line);
        let victim = (base..base + self.assoc)
            .min_by_key(|&w| {
                if self.lines[w] == 0 {
                    0
                } else {
                    self.last_use[w] + 1
                }
            })
            .expect("cache set has at least one way");
        let evicted = match self.lines[victim] {
            0 => None,
            l => Some(((l - 1) << self.line_shift, dec_state(self.states[victim]))),
        };
        self.lines[victim] = line + 1;
        self.states[victim] = enc_state(state);
        self.last_use[victim] = tick;
        (victim, evicted)
    }

    /// Removes a line if resident, returning its state.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let w = self.find(self.line_of(addr))?;
        self.lines[w] = 0;
        Some(dec_state(self.states[w]))
    }

    /// Number of valid lines currently resident (O(size); for tests/stats).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != 0).count()
    }

    /// Invalidates everything (e.g. between benchmark phases).
    pub fn flush_all(&mut self) {
        self.lines.fill(0);
    }

    /// Serializes tag/state/LRU for snapshot/restore, listing only the
    /// ways a fresh array would not reproduce:
    /// `{"use_counter":N,"slots":S,"live":[w,line+1,state,last_use,...]}`.
    /// `slots` is the array's way count (sets × associativity); `live` is
    /// a flat list of quads in ascending way order, one per way whose
    /// in-memory `(line+1, state, last_use)` is not all zero. `line+1` is
    /// zero for an invalid way; `state` uses the wire encoding Modified=0
    /// … Shared=3.
    pub fn state_to_json_value(&self) -> JsonValue {
        let live = (0..self.lines.len())
            .filter(|&w| self.lines[w] != 0 || self.states[w] != 0 || self.last_use[w] != 0)
            .flat_map(|w| {
                [
                    w as u64,
                    self.lines[w],
                    3 - self.states[w] as u64,
                    self.last_use[w],
                ]
            });
        json::obj(vec![
            ("use_counter", json::num(self.use_counter)),
            ("slots", json::num(self.lines.len() as u64)),
            ("live", json::arr_u64(live)),
        ])
    }

    /// Restores a state captured by [`CacheArray::state_to_json_value`]
    /// into an array of identical geometry: every way is reset to the
    /// fresh (all-zero) state, then the listed live ways are set. On error
    /// the array is left unchanged.
    ///
    /// # Errors
    ///
    /// [`CacheStateError`] on a geometry mismatch, a way index out of
    /// range or out of order, an unknown line state, a line outside its
    /// way's set or held twice by one set, or a malformed field.
    pub fn restore_state(&mut self, value: &JsonValue) -> Result<(), CacheStateError> {
        let use_counter = json::get_word(value, "use_counter")?;
        let slots = json::get_word(value, "slots")?;
        if slots != self.lines.len() as u64 {
            return Err(CacheStateError::SlotsMismatch {
                found: slots,
                expected: self.lines.len(),
            });
        }
        let live = json::records_of::<u64, 4>(json::get(value, "live")?, "live")?;
        let mut previous = None;
        for &[way, _, state, _] in &live {
            if way >= slots {
                return Err(CacheStateError::WayOutOfRange { way, slots });
            }
            if let Some(previous) = previous.filter(|&p| p >= way) {
                return Err(CacheStateError::WaysNotAscending { way, previous });
            }
            if state > 3 {
                return Err(CacheStateError::UnknownState { way, state });
            }
            previous = Some(way);
        }
        // An array only ever places a line in its own set, once, and a line
        // address must convert back to a byte address. Ways ascend, so one
        // set's ways are listed together.
        let mut set_lines: Vec<(u64, u64)> = Vec::new();
        for &[way, tag, ..] in &live {
            let Some(line) = tag.checked_sub(1) else {
                continue;
            };
            let set = way / self.assoc as u64;
            if self.set_index(line) as u64 != set
                || line
                    .checked_shl(self.line_shift)
                    .map(|a| a >> self.line_shift)
                    != Some(line)
            {
                return Err(CacheStateError::MisplacedLine { way, line });
            }
            set_lines.retain(|&(s, _)| s == set);
            if set_lines.contains(&(set, line)) {
                return Err(CacheStateError::DuplicateLine { way, line });
            }
            set_lines.push((set, line));
        }
        // Fresh zeroed vectors rather than an in-place fill: the allocator
        // hands back untouched zero pages, so restoring a sparse state
        // never writes the whole array.
        let n = self.lines.len();
        self.lines = vec![0; n];
        self.states = vec![0; n];
        self.last_use = vec![0; n];
        for [way, line, state, last_use] in live {
            let w = way as usize;
            self.lines[w] = line;
            self.states[w] = 3 - state as u8;
            self.last_use[w] = last_use;
        }
        self.use_counter = use_counter;
        Ok(())
    }
}

/// Why a cache-array snapshot was refused by [`CacheArray::restore_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheStateError {
    /// The snapshot was taken from an array with a different way count.
    SlotsMismatch {
        /// The snapshot's way count.
        found: u64,
        /// This array's way count.
        expected: usize,
    },
    /// A live way index lies past the end of the array.
    WayOutOfRange {
        /// The offending way index.
        way: u64,
        /// The array's way count.
        slots: u64,
    },
    /// Live ways are not listed in strictly ascending order.
    WaysNotAscending {
        /// The offending way index.
        way: u64,
        /// The way listed before it.
        previous: u64,
    },
    /// A live way holds a line outside the way's set, or one whose byte
    /// address does not fit a `u64`.
    MisplacedLine {
        /// The offending way index.
        way: u64,
        /// The line address it holds.
        line: u64,
    },
    /// A set holds the same line in two ways.
    DuplicateLine {
        /// The later of the two ways.
        way: u64,
        /// The line address both hold.
        line: u64,
    },
    /// A line state outside the wire encoding `0..=3`.
    UnknownState {
        /// The way carrying it.
        way: u64,
        /// The unknown state value.
        state: u64,
    },
    /// A field is missing or has the wrong type or shape.
    Malformed(String),
}

impl std::fmt::Display for CacheStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheStateError::SlotsMismatch { found, expected } => {
                write!(f, "cache state: {found} slots for a {expected}-slot array")
            }
            CacheStateError::WayOutOfRange { way, slots } => {
                write!(
                    f,
                    "cache state: way {way} is outside the {slots}-slot array"
                )
            }
            CacheStateError::WaysNotAscending { way, previous } => write!(
                f,
                "cache state: way {way} listed after way {previous}; live ways must ascend"
            ),
            CacheStateError::MisplacedLine { way, line } => {
                write!(f, "cache state: way {way} cannot hold line {line:#x}")
            }
            CacheStateError::DuplicateLine { way, line } => write!(
                f,
                "cache state: way {way} holds line {line:#x}, which its set already holds"
            ),
            CacheStateError::UnknownState { way, state } => {
                write!(f, "cache state: way {way} has unknown line state {state}")
            }
            CacheStateError::Malformed(msg) => write!(f, "cache state: {msg}"),
        }
    }
}

impl std::error::Error for CacheStateError {}

impl From<FieldError> for CacheStateError {
    fn from(err: FieldError) -> Self {
        CacheStateError::Malformed(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways x 64B lines = 256 B.
        let params = CacheParams {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
            next_line_prefetch: false,
            clock: pxl_sim::Clock::ghz1("t"),
        };
        CacheArray::new(&params)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = tiny();
        assert_eq!(c.lookup(0), None);
        c.install(0, LineState::Exclusive);
        assert_eq!(c.lookup(0), Some(LineState::Exclusive));
        assert_eq!(c.lookup(63), Some(LineState::Exclusive)); // same line
        assert_eq!(c.lookup(64), None); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even line numbers).
        c.install(0, LineState::Shared); // line 0
        c.install(2 * 64, LineState::Shared);
        // Touch line 0 so line 2 becomes LRU.
        assert!(c.lookup(0).is_some());
        let evicted = c.install(4 * 64, LineState::Shared);
        assert_eq!(evicted, Some((2 * 64, LineState::Shared)));
        assert!(c.peek(0).is_some());
        assert!(c.peek(4 * 64).is_some());
        assert!(c.peek(2 * 64).is_none());
    }

    #[test]
    fn install_prefers_invalid_ways() {
        let mut c = tiny();
        c.install(0, LineState::Modified);
        // Second install in the same set must use the empty way, not evict.
        assert_eq!(c.install(2 * 64, LineState::Shared), None);
    }

    #[test]
    fn reinstall_updates_state_in_place() {
        let mut c = tiny();
        c.install(0, LineState::Shared);
        assert_eq!(c.install(0, LineState::Modified), None);
        assert_eq!(c.peek(0), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        c.install(0, LineState::Owned);
        assert_eq!(c.invalidate(0), Some(LineState::Owned));
        assert_eq!(c.invalidate(0), None);
        c.install(0, LineState::Shared);
        c.install(64, LineState::Shared);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn state_round_trip_keeps_lru_behavior() {
        let mut a = tiny();
        a.install(0, LineState::Modified);
        a.install(2 * 64, LineState::Shared);
        a.install(64, LineState::Owned);
        assert!(a.lookup(0).is_some()); // refresh LRU on line 0
        let state = a.state_to_json_value();
        let mut b = tiny();
        b.restore_state(&state).unwrap();
        assert_eq!(b.peek(0), Some(LineState::Modified));
        assert_eq!(b.peek(64), Some(LineState::Owned));
        // Same LRU victim choice after restore.
        assert_eq!(
            a.install(4 * 64, LineState::Shared),
            b.install(4 * 64, LineState::Shared)
        );
        assert_eq!(
            a.state_to_json_value().to_json(),
            b.state_to_json_value().to_json()
        );
        // Geometry mismatch is refused.
        let params = CacheParams {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
            next_line_prefetch: false,
            clock: pxl_sim::Clock::ghz1("t"),
        };
        let mut wrong = CacheArray::new(&params);
        let err = wrong.restore_state(&state).unwrap_err();
        assert_eq!(
            err,
            CacheStateError::SlotsMismatch {
                found: 4,
                expected: 8
            }
        );
        assert!(err.to_string().contains("slots"), "{err}");
    }

    #[test]
    fn fresh_array_encodes_no_live_ways() {
        let state = tiny().state_to_json_value();
        assert_eq!(state.to_json(), r#"{"use_counter":0,"slots":4,"live":[]}"#);
        let big = CacheArray::new(&CacheParams::accel_l1_32k());
        assert_eq!(
            big.state_to_json_value().get("live"),
            Some(&JsonValue::Array(vec![]))
        );
    }

    #[test]
    fn live_ways_cover_invalidated_lines_and_restore_resets_the_rest() {
        let mut a = tiny();
        a.install(0, LineState::Modified); // way 0 (set 0)
        a.install(64, LineState::Shared); // way 2 (set 1)
        a.invalidate(64); // tag cleared; state and LRU stamp linger
        let state = a.state_to_json_value();
        assert_eq!(
            state.get("live").unwrap().to_json(),
            "[0,1,0,1,2,0,3,2]",
            "Modified line 0 at way 0, invalidated way 2 keeps its stamp"
        );
        // Restoring into a used array forgets everything not listed.
        let mut b = tiny();
        b.install(3 * 64, LineState::Owned);
        b.install(5 * 64, LineState::Exclusive);
        b.restore_state(&state).unwrap();
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.peek(3 * 64), None);
        assert_eq!(b.state_to_json_value().to_json(), state.to_json());
    }

    #[test]
    fn bad_live_lists_are_refused_with_typed_errors() {
        let restore = |live: &str| {
            let state =
                JsonValue::parse(&format!(r#"{{"use_counter":9,"slots":4,"live":{live}}}"#))
                    .unwrap();
            let mut c = tiny();
            c.install(0, LineState::Owned);
            let before = c.state_to_json_value().to_json();
            let err = c.restore_state(&state).unwrap_err();
            assert_eq!(
                c.state_to_json_value().to_json(),
                before,
                "refusal changes nothing"
            );
            err
        };
        assert_eq!(
            restore("[4,1,0,1]"),
            CacheStateError::WayOutOfRange { way: 4, slots: 4 }
        );
        assert_eq!(
            restore("[1,1,0,1,1,2,0,2]"),
            CacheStateError::WaysNotAscending {
                way: 1,
                previous: 1
            }
        );
        assert_eq!(
            restore("[2,1,0,1,1,2,0,2]"),
            CacheStateError::WaysNotAscending {
                way: 1,
                previous: 2
            }
        );
        assert_eq!(
            restore("[0,1,4,1]"),
            CacheStateError::UnknownState { way: 0, state: 4 }
        );
        // Line 1 belongs to set 1 (ways 2 and 3), not to way 0.
        assert_eq!(
            restore("[0,2,0,1]"),
            CacheStateError::MisplacedLine { way: 0, line: 1 }
        );
        let beyond = 1u64 << 60;
        assert_eq!(
            restore(&format!("[0,{},0,1]", beyond + 1)),
            CacheStateError::MisplacedLine {
                way: 0,
                line: beyond
            }
        );
        assert_eq!(
            restore("[2,2,0,1,3,2,0,2]"),
            CacheStateError::DuplicateLine { way: 3, line: 1 }
        );
        // An invalidated way (tag 0) and the same line in the next set's
        // first way are fine.
        assert!(tiny()
            .restore_state(
                &JsonValue::parse(
                    r#"{"use_counter":9,"slots":4,"live":[0,3,0,1,1,0,3,2,2,2,0,3]}"#
                )
                .unwrap()
            )
            .is_ok());
        assert!(matches!(restore("[0,1,0]"), CacheStateError::Malformed(_)));
        let err = restore(r#"[0,1,"x",0,1]"#);
        assert!(
            matches!(&err, CacheStateError::Malformed(m) if m.contains("non-u64")),
            "{err}"
        );
    }

    #[test]
    fn state_predicates() {
        assert!(LineState::Modified.is_dirty());
        assert!(LineState::Owned.is_dirty());
        assert!(!LineState::Exclusive.is_dirty());
        assert!(!LineState::Shared.is_dirty());
        assert!(LineState::Modified.can_write_silently());
        assert!(LineState::Exclusive.can_write_silently());
        assert!(!LineState::Owned.can_write_silently());
        assert!(!LineState::Shared.can_write_silently());
        assert!(LineState::Modified.owns());
        assert!(LineState::Owned.owns());
        assert!(LineState::Exclusive.owns());
        assert!(!LineState::Shared.owns());
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_missing_line_panics() {
        let mut c = tiny();
        c.set_state(0, LineState::Shared);
    }
}
