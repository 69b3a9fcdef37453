//! A minimal hand-rolled property-testing harness.
//!
//! The repository builds in fully offline environments, so it cannot pull in
//! `proptest`. This module supplies the subset the test-suite needs: a
//! seedable input generator ([`Gen`]) built on [`XorShift64`] and a driver
//! ([`check`]) that runs a property across many deterministic seeds and, on
//! failure, reports which case (and thus which seed) broke so the run can be
//! replayed exactly with [`check_case`].
//!
//! # Examples
//!
//! ```
//! use pxl_sim::qcheck::{check, Gen};
//!
//! check(64, "reverse twice is identity", |g: &mut Gen| {
//!     let v = g.vec_u64(32, 1_000);
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::XorShift64;

/// Deterministic input generator handed to each property case.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: XorShift64,
}

impl Gen {
    /// Creates a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: XorShift64::new(seed),
        }
    }

    /// A uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.rng.next_in_range(hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// `true` with probability `num / den`.
    pub fn ratio(&mut self, num: u64, den: u64) -> bool {
        self.rng.next_in_range(den) < num
    }

    /// A vector of up to `max_len` values, each in `[0, max_val)`.
    pub fn vec_u64(&mut self, max_len: usize, max_val: u64) -> Vec<u64> {
        let len = self.usize_in(0, max_len + 1);
        (0..len).map(|_| self.rng.next_in_range(max_val)).collect()
    }

    /// An unsigned integer spread across `T`'s whole range: a random bit
    /// width, then either a random value of that width or its all-ones
    /// value, halving the width until `T` holds it. Zero, each type's `MAX`
    /// and the values in between all turn up.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> T {
        let mut width = self.range(0, 65);
        loop {
            let ones = if width == 0 {
                0
            } else {
                u64::MAX >> (64 - width)
            };
            let value = if self.bool() { ones } else { self.u64() & ones };
            if let Ok(v) = T::try_from(value) {
                return v;
            }
            width /= 2;
        }
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.usize_in(0, items.len())]
    }
}

/// Derives the deterministic seed for case `i` of a property run.
fn case_seed(i: usize) -> u64 {
    // Golden-ratio stride keeps neighbouring cases decorrelated; |1 avoids
    // the xorshift all-zero fixed point.
    (0x9E37_79B9_7F4A_7C15u64 ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)) | 1
}

/// Runs `prop` for `cases` deterministic seeds; any panic inside the
/// property fails the whole check with the offending case index.
///
/// # Panics
///
/// Panics (re-raising the property's message) when a case fails.
pub fn check<F>(cases: usize, name: &str, mut prop: F)
where
    F: FnMut(&mut Gen),
{
    for i in 0..cases {
        let mut g = Gen::new(case_seed(i));
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property '{name}' failed at case {i}/{cases} \
                 (replay with qcheck::check_case({i}, ...)): {msg}"
            );
        }
    }
}

/// Replays exactly one case of a [`check`] run, for debugging a reported
/// failure.
pub fn check_case<F>(case: usize, mut prop: F)
where
    F: FnMut(&mut Gen),
{
    let mut g = Gen::new(case_seed(case));
    prop(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        check(8, "collect", |g| first.push(g.u64()));
        let mut second = Vec::new();
        check(8, "collect", |g| second.push(g.u64()));
        assert_eq!(first, second);
        assert_eq!(first.len(), 8);
        // All distinct seeds in practice.
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len());
    }

    #[test]
    fn generators_respect_bounds() {
        check(64, "bounds", |g| {
            let v = g.range(10, 20);
            assert!((10..20).contains(&v));
            let u = g.usize_in(0, 5);
            assert!(u < 5);
            let vec = g.vec_u64(16, 100);
            assert!(vec.len() <= 16);
            assert!(vec.iter().all(|&x| x < 100));
            let item = *g.pick(&[1, 2, 3]);
            assert!((1..=3).contains(&item));
        });
    }

    #[test]
    fn failure_names_the_case() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check(16, "always fails", |_g| panic!("boom"));
        }));
        let err = outcome.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always fails"), "{msg}");
        assert!(msg.contains("case 0/16"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn replay_matches_original_case() {
        let mut seen = Vec::new();
        check(4, "collect", |g| seen.push(g.u64()));
        let mut replayed = 0;
        check_case(2, |g| replayed = g.u64());
        assert_eq!(replayed, seen[2]);
    }
}
