//! Order statistics over host-time samples.
//!
//! Every timing the benchmark reports is a nearest-rank percentile or a
//! median, never a mean: host speed drifts over seconds, and a single
//! stalled op moves a mean but not a rank.

/// Percentiles `tail` may pick, highest first. The ladder stops at p95
/// (it needs 200 ops), so a faster build that runs more ops does not
/// climb to a higher percentile and read a worse tail.
const TAIL_LADDER: [f64; 5] = [95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the middle pair for an even count; `None` when
/// `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100); `None` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(p, v.len()) - 1])
}

/// A tail latency with the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (100 = the maximum).
    pub pct: f64,
    /// The sample at that nearest rank.
    pub value: f64,
    /// Samples it was read from.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// ranked beyond it. With too few samples for any ladder step it falls
/// back to the maximum (reported as percentile 100); `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    let last = *v.last()?;
    let pick = TAIL_LADDER
        .iter()
        .find(|&&p| n - rank(p, n) >= TAIL_BEYOND)
        .map(|&p| (p, v[rank(p, n) - 1]));
    let (pct, value) = pick.unwrap_or((100.0, last));
    Some(Tail {
        pct,
        value,
        samples: n,
    })
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&v, 75.0), Some(6.0));
        assert_eq!(percentile(&v, 100.0), Some(8.0));
        assert_eq!(percentile(&[3.0], 25.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_of_nothing_is_none() {
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_of_one_sample_is_its_maximum() {
        let t = tail(&[7.0]).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (100.0, 7.0, 1));
    }

    #[test]
    fn tail_of_equal_samples_is_that_value() {
        let t = tail(&[5.0; 200]).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 5.0));
    }

    #[test]
    fn more_samples_do_not_raise_the_tail_percentile() {
        for n in [200, 400, 20_000] {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(tail(&v).unwrap().pct, 95.0, "n={n}");
        }
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in [20, 21, 50, 99, 100, 101, 500, 1000, 5000, 20_000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&v).unwrap();
            let beyond = n - rank(t.pct, n);
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{} leaves {beyond}", t.pct);
            // The next-higher ladder step would leave fewer than ten.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.pct) {
                assert!(
                    n - rank(higher, n) < TAIL_BEYOND,
                    "n={n}: p{higher} also fits"
                );
            }
        }
        // Below 20 samples even p50 leaves fewer than ten: fall back to max.
        for n in [2, 10, 19] {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let t = tail(&v).unwrap();
            assert_eq!((t.pct, t.value), (100.0, f64::from(n - 1)));
        }
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
