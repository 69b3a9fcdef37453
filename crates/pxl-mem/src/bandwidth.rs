//! Epoch-bucketed bandwidth metering for shared resources.
//!
//! The simulator executes each task's memory accesses eagerly at dispatch
//! time, so accesses from different PEs reach a shared resource (snoop bus,
//! L2 port, DRAM channel) *out of global time order*. A naive
//! "next-free-time" watermark would let one PE running ahead in local time
//! push the watermark into the future and stall every later-dispatched
//! access behind it — serializing the machine spuriously.
//!
//! [`BandwidthMeter`] instead divides time into fixed epochs and tracks how
//! much service time each epoch has committed. An access landing in a full
//! epoch spills into the next one. Aggregate throughput is limited exactly;
//! arrival order within an epoch does not matter. The approximation is the
//! epoch granularity (default 100 ns), far finer than the phenomena being
//! modelled (DRAM saturation over microseconds).

use pxl_sim::json::{self, JsonValue};
use pxl_sim::Time;

/// A serially-occupied shared resource with epoch-granular accounting.
///
/// # Examples
///
/// ```
/// use pxl_mem::bandwidth::BandwidthMeter;
/// use pxl_sim::Time;
///
/// let mut m = BandwidthMeter::new(1_000); // 1 ns epochs for the example
/// // Fill one epoch with 500 ps twice; the third access spills over.
/// let t0 = m.acquire(Time::ZERO, 500);
/// let t1 = m.acquire(Time::ZERO, 500);
/// let t2 = m.acquire(Time::ZERO, 500);
/// assert_eq!(t0, Time::ZERO);
/// assert!(t1 >= t0 && t2 >= Time::from_ps(1_000));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthMeter {
    epoch_ps: u64,
    /// Committed service time per epoch, in pages of [`PAGE_EPOCHS`]
    /// consecutive epochs keyed by page index (`epoch / PAGE_EPOCHS`) and
    /// sorted by it. Accesses cluster in time, so most land in the page
    /// `hint` names and cost no search.
    pages: Vec<(u64, Box<[u64; PAGE_EPOCHS]>)>,
    /// Index into `pages` of the page the last reservation used.
    hint: usize,
    /// The sum of every epoch's use, kept as it changes so reading it costs
    /// nothing.
    committed_ps: u64,
}

/// Epochs per page of a [`BandwidthMeter`].
const PAGE_EPOCHS: usize = 256;

impl BandwidthMeter {
    /// Creates a meter with the given epoch length in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_ps` is zero.
    pub fn new(epoch_ps: u64) -> Self {
        assert!(epoch_ps > 0, "epoch must be nonzero");
        BandwidthMeter {
            epoch_ps,
            pages: Vec::new(),
            hint: 0,
            committed_ps: 0,
        }
    }

    /// A meter with the default 100 ns epoch.
    pub fn default_epoch() -> Self {
        BandwidthMeter::new(100_000)
    }

    /// The committed service time of `epoch`, allocating its page on first
    /// use.
    #[inline]
    fn used_mut(&mut self, epoch: u64) -> &mut u64 {
        let page = epoch / PAGE_EPOCHS as u64;
        if self.pages.get(self.hint).is_none_or(|(p, _)| *p != page) {
            self.hint = match self.pages.binary_search_by_key(&page, |(p, _)| *p) {
                Ok(i) => i,
                Err(i) => {
                    self.pages.insert(i, (page, Box::new([0; PAGE_EPOCHS])));
                    i
                }
            };
        }
        &mut self.pages[self.hint].1[(epoch % PAGE_EPOCHS as u64) as usize]
    }

    /// Reserves `occupancy_ps` of service time at or after `at`, returning
    /// the service start time.
    ///
    /// Occupancies larger than one epoch consume multiple epochs.
    pub fn acquire(&mut self, at: Time, occupancy_ps: u64) -> Time {
        if occupancy_ps == 0 {
            return at;
        }
        let mut epoch = at.as_ps() / self.epoch_ps;
        let mut remaining = occupancy_ps;
        let mut start: Option<Time> = None;
        let epoch_ps = self.epoch_ps;
        loop {
            let used = self.used_mut(epoch);
            if *used >= epoch_ps {
                epoch += 1;
                continue;
            }
            if start.is_none() {
                // Service begins in this epoch, after the work already
                // committed here (but never before the request itself).
                let begin = Time::from_ps(epoch * epoch_ps + *used).max(at);
                start = Some(begin);
            }
            let take = remaining.min(epoch_ps - *used);
            *used += take;
            self.committed_ps += take;
            remaining -= take;
            if remaining == 0 {
                return start.expect("start set on first reservation");
            }
            epoch += 1;
        }
    }

    /// Total committed service time (for tests/stats).
    pub fn total_committed_ps(&self) -> u64 {
        self.committed_ps
    }

    /// Epoch length in picoseconds.
    pub fn epoch_ps(&self) -> u64 {
        self.epoch_ps
    }

    /// Epoch index containing `t`.
    pub fn epoch_of(&self, t: Time) -> u64 {
        t.as_ps() / self.epoch_ps
    }

    /// Serializes the committed usage for snapshot/restore, as
    /// `[epoch, used_ps]` pairs in ascending epoch order, one per epoch
    /// with committed time (every epoch a reservation touches commits some).
    pub fn state_to_json_value(&self) -> JsonValue {
        JsonValue::Array(
            self.pages
                .iter()
                .flat_map(|(page, used)| {
                    let first = page * PAGE_EPOCHS as u64;
                    used.iter()
                        .enumerate()
                        .filter(|(_, &u)| u != 0)
                        .map(move |(i, &u)| (first + i as u64, u))
                })
                .map(|(epoch, used)| json::arr_u64([epoch, used]))
                .collect(),
        )
    }

    /// Replaces the committed usage with a state captured by
    /// [`BandwidthMeter::state_to_json_value`]. On error the meter is left
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns a message for anything that is not an array of
    /// `[epoch, used]` pairs, for pairs the meter never writes (zero use,
    /// or epochs that repeat or descend), and for pairs whose committed
    /// time overflows `u64`.
    pub fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        let pairs = value
            .as_array()
            .ok_or("bandwidth state: not an array of pairs")?;
        let mut pages: Vec<(u64, Box<[u64; PAGE_EPOCHS]>)> = Vec::new();
        let mut committed_ps = 0u64;
        let mut previous = None;
        for pair in pairs {
            let [epoch, used] = json::record_of::<u64, 2>(pair, "epochs")?;
            if let Some(previous) = previous.filter(|&p| p >= epoch) {
                return Err(format!(
                    "bandwidth state: epoch {epoch} listed after epoch {previous}; epochs must ascend"
                ));
            }
            if used == 0 {
                return Err(format!("bandwidth state: epoch {epoch} commits no time"));
            }
            previous = Some(epoch);
            committed_ps = committed_ps
                .checked_add(used)
                .ok_or("bandwidth state: committed time overflows u64")?;
            let page = epoch / PAGE_EPOCHS as u64;
            if pages.last().is_none_or(|(p, _)| *p != page) {
                pages.push((page, Box::new([0; PAGE_EPOCHS])));
            }
            let (_, last) = pages.last_mut().expect("pushed above");
            last[(epoch % PAGE_EPOCHS as u64) as usize] = used;
        }
        self.pages = pages;
        self.hint = 0;
        self.committed_ps = committed_ps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_starts_immediately() {
        let mut m = BandwidthMeter::new(100_000);
        assert_eq!(m.acquire(Time::from_ns(5), 500), Time::from_ns(5));
    }

    #[test]
    fn saturation_spills_into_later_epochs() {
        let mut m = BandwidthMeter::new(1_000);
        // Commit 3 epochs' worth of work all at t=0.
        let mut last = Time::ZERO;
        for _ in 0..6 {
            last = m.acquire(Time::ZERO, 500);
        }
        assert!(
            last >= Time::from_ps(2_000),
            "sixth access must start in epoch 2"
        );
        assert_eq!(m.total_committed_ps(), 3_000);
    }

    #[test]
    fn out_of_order_arrivals_do_not_serialize() {
        let mut m = BandwidthMeter::new(100_000);
        // A PE far ahead in local time consumes bandwidth at 1 ms.
        let _ = m.acquire(Time::from_us(1_000), 5_000);
        // Another PE's access at 1 us must NOT be pushed behind it.
        let t = m.acquire(Time::from_us(1), 5_000);
        assert!(t < Time::from_us(2), "early access stalled to {t}");
    }

    #[test]
    fn long_occupancy_spans_epochs() {
        let mut m = BandwidthMeter::new(1_000);
        let start = m.acquire(Time::ZERO, 2_500);
        assert_eq!(start, Time::ZERO);
        assert_eq!(m.total_committed_ps(), 2_500);
        // Epochs 0..2 are now (partially) full.
        let next = m.acquire(Time::ZERO, 1_000);
        assert!(next >= Time::from_ps(2_000));
    }

    /// The sum of the `[epoch, used_ps]` pairs the meter serializes.
    fn sum_of_pairs(m: &BandwidthMeter) -> u64 {
        let state = m.state_to_json_value();
        let pairs = state.as_array().unwrap();
        pairs
            .iter()
            .map(|p| json::words_of::<u64>(p, "pair").unwrap()[1])
            .sum()
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut a = BandwidthMeter::new(1_000);
        for i in 0..10 {
            let _ = a.acquire(Time::from_ps(i * 300), 400);
        }
        assert_eq!(a.total_committed_ps(), sum_of_pairs(&a));
        assert_eq!(a.total_committed_ps(), 4_000);
        let state = a.state_to_json_value();
        let mut b = BandwidthMeter::new(1_000);
        b.restore_state(&state).unwrap();
        assert_eq!(b.total_committed_ps(), a.total_committed_ps());
        // Identical future behavior.
        for i in 0..20 {
            assert_eq!(
                a.acquire(Time::from_ps(i * 150), 250),
                b.acquire(Time::from_ps(i * 150), 250)
            );
        }
        for m in [&a, &b] {
            assert_eq!(m.total_committed_ps(), sum_of_pairs(m));
        }
        assert_eq!(b.total_committed_ps(), 9_000);
        // A restore replaces the running total along with the epochs.
        let mut c = BandwidthMeter::new(1_000);
        let _ = c.acquire(Time::ZERO, 700);
        c.restore_state(&state).unwrap();
        assert_eq!(c.total_committed_ps(), 4_000);
        let bad = JsonValue::parse("[[1]]").unwrap();
        assert!(b.restore_state(&bad).is_err());
        let overflow = JsonValue::parse(&format!("[[0,{}],[1,1]]", u64::MAX)).unwrap();
        assert!(b
            .restore_state(&overflow)
            .unwrap_err()
            .contains("overflows"));
        // Pairs the meter never writes: zero use, a repeated or descending
        // epoch.
        let state_after = b.state_to_json_value();
        let refused = |text: &str| {
            let mut m = b.clone();
            let err = m
                .restore_state(&JsonValue::parse(text).unwrap())
                .unwrap_err();
            assert_eq!(m.state_to_json_value().to_json(), state_after.to_json());
            err
        };
        assert!(refused("[[0,5],[3,0]]").contains("epoch 3 commits no time"));
        assert!(refused("[[0,5],[700,5],[700,1]]").contains("epoch 700 listed after epoch 700"));
        assert!(refused("[[0,5],[700,5],[2,1]]").contains("epoch 2 listed after epoch 700"));
        assert_eq!(
            b.total_committed_ps(),
            9_000,
            "a refused state changes nothing"
        );
    }

    #[test]
    fn epochs_across_pages_round_trip_in_order() {
        let mut m = BandwidthMeter::new(1_000);
        // Out of time order and across several pages, with one reservation
        // spilling over a page boundary.
        for (at, ps) in [
            (900_000, 700),
            (3_000, 700),
            (255_500, 1_200),
            (70_000_000, 700),
            (3_000, 700),
        ] {
            let _ = m.acquire(Time::from_ps(at), ps);
        }
        assert_eq!(
            m.state_to_json_value().to_json(),
            "[[3,1000],[4,400],[255,1000],[256,200],[900,700],[70000,700]]"
        );
        let mut back = BandwidthMeter::new(1_000);
        back.restore_state(&m.state_to_json_value()).unwrap();
        assert_eq!(back.total_committed_ps(), m.total_committed_ps());
        assert_eq!(
            back.acquire(Time::from_ps(255_000), 600),
            m.acquire(Time::from_ps(255_000), 600)
        );
        assert_eq!(
            back.state_to_json_value().to_json(),
            m.state_to_json_value().to_json()
        );
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut m = BandwidthMeter::new(1_000);
        assert_eq!(m.acquire(Time::from_ps(123), 0), Time::from_ps(123));
        assert_eq!(m.total_committed_ps(), 0);
    }
}
