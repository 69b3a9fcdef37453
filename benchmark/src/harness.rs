//! The measurement loop shared by every workload: seeded pass order,
//! repeated setup, the timed window, and the metric report.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spans::Spans;
use crate::{host, stats};

/// Options every workload receives.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Fixes the op order within each pass and the serve request mix.
    pub seed: u64,
    /// Minimum length of the timed window.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Shrink every input to `Scale::Tiny` (self-tests only).
    pub tiny: bool,
}

/// How many times an untraced run sets up; `setup_s` is the median. The
/// first setup is the one the run uses; the others are spread evenly over
/// the timed window, so the median does not hang on the host's speed in
/// the first second.
pub const SETUPS: usize = 7;

/// SplitMix64: the benchmark's own generator, so the op order does not
/// depend on any RNG inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// `0..n` in a fresh random order.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }
}

/// Op latencies and outcomes of one kind of pass (plain or traced).
#[derive(Debug, Default)]
pub struct Tally {
    /// Host milliseconds of every op, per group (spec or request kind).
    pub group_ms: Vec<Vec<f64>>,
    /// Ops tried.
    pub attempted: u64,
    /// Ops that failed a check or returned an error.
    pub failed: u64,
    /// Checked ops per host second, one sample per lap (see [`Tally::lap`]).
    pub lap_rates: Vec<f64>,
    /// When the current lap began, with the attempted and checked ops then.
    lap_from: Option<(Instant, u64, u64)>,
}

impl Tally {
    fn new(groups: usize) -> Tally {
        Tally {
            group_ms: vec![Vec::new(); groups],
            ..Tally::default()
        }
    }

    /// Records one op of `group`.
    pub fn record(&mut self, group: usize, ms: f64, ok: bool) {
        self.group_ms[group].push(ms);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` ops that could not run because an earlier step failed.
    pub fn record_failures(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Marks `n` already-recorded ops as failed (a later check caught them).
    pub fn fail(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    fn checked(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Starts a lap: a stretch of ops whose rate is one sample.
    pub fn begin_lap(&mut self) {
        self.lap_from = Some((Instant::now(), self.attempted, self.checked()));
    }

    /// Closes the current lap, recording its checked ops per host second,
    /// and starts the next. A lap without ops records nothing. Every pass
    /// is one lap unless the workload closes laps inside it.
    pub fn lap(&mut self) {
        if let Some((t, attempted, checked)) = self.lap_from {
            if self.attempted > attempted {
                let ok = self.checked().saturating_sub(checked);
                self.lap_rates
                    .push(ok as f64 / t.elapsed().as_secs_f64().max(1e-9));
            }
        }
        self.begin_lap();
    }

    /// Checked ops per host second that one lap in ten reaches (the 90th
    /// percentile of lap rates), for the reason given at [`Tally::p10`].
    pub fn rate(&self) -> f64 {
        stats::percentile(&self.lap_rates, 90.0).unwrap_or(0.0)
    }

    /// 10th-percentile op latency per group, geometric mean across groups.
    /// Per group, so a seed that reorders ops cannot shift the percentile
    /// from one spec's latency to another's. The fast end rather than the
    /// median: on a shared host, ops switch every few seconds between the
    /// program's own speed and a slow state up to 1.4x longer, and how
    /// much of a run is slow changes from run to run. Interference only
    /// adds time, and most stretches of a few seconds hold fast ops, so
    /// the fast end repeats where the median and p75 do not. p10 rather than
    /// p5: a serve request now and then escapes the transport wait, and
    /// p5 of about 64 requests moves when four of one kind do.
    pub fn p10(&self) -> f64 {
        let p10s: Vec<f64> = self
            .group_ms
            .iter()
            .filter_map(|g| stats::percentile(g, 10.0))
            .collect();
        stats::geomean(&p10s).unwrap_or(0.0)
    }

    /// All op latencies, pooled.
    pub fn pooled(&self) -> Vec<f64> {
        self.group_ms.iter().flatten().copied().collect()
    }
}

/// What a timed window produced.
#[derive(Debug)]
pub struct Window {
    /// Untraced passes (all of them when not tracing).
    pub plain: Tally,
    /// Traced passes (trace mode only).
    pub traced: Tally,
    /// Spans of the traced passes.
    pub spans: Spans,
    /// Minor faults per op over the window.
    pub minflt_per_op: f64,
    /// Run-queue wait over the window, ms.
    pub runq_wait_ms: f64,
    /// Length of the window, s.
    pub seconds: f64,
    /// Median host seconds of one setup.
    pub setup_s: f64,
}

/// Runs whole passes until `opts.seconds` have passed. In trace mode
/// passes alternate untraced/traced (ending on a traced one), so both
/// kinds see the same host drift and their rates give the tracing
/// overhead. `pass` gets the tally to record into and, when traced, the
/// span recorder.
///
/// An untraced window also sets up [`SETUPS`] − 1 more times between
/// passes, evenly over the window, with `setup_again` (which returns its
/// host seconds and discards what it built); `setup_s` is the median of
/// those and `first_setup_s`.
///
/// # Errors
///
/// A failed `setup_again`.
pub fn window(
    opts: &Opts,
    groups: usize,
    rng: &mut Rng,
    first_setup_s: f64,
    mut setup_again: impl FnMut() -> Result<f64, String>,
    mut pass: impl FnMut(&mut Tally, Option<&mut Spans>, &mut Rng),
) -> Result<Window, String> {
    let start = Instant::now();
    let minflt0 = host::minor_faults().unwrap_or(0);
    let runq0 = host::runq_wait_ns();
    let mut w = Window {
        plain: Tally::new(groups),
        traced: Tally::new(groups),
        spans: Spans::new(start),
        minflt_per_op: 0.0,
        runq_wait_ms: 0.0,
        seconds: 0.0,
        setup_s: first_setup_s,
    };
    let mut setups = vec![first_setup_s];
    for i in 0.. {
        let traced = opts.trace && i % 2 == 1;
        let tally = if traced { &mut w.traced } else { &mut w.plain };
        tally.begin_lap();
        if traced {
            pass(tally, Some(&mut w.spans), rng);
        } else {
            pass(tally, None, rng);
        }
        tally.lap();
        let elapsed = || start.elapsed().as_secs_f64();
        while !opts.trace
            && setups.len() < SETUPS
            && elapsed() >= opts.seconds * setups.len() as f64 / SETUPS as f64
        {
            setups.push(setup_again()?);
        }
        if elapsed() >= opts.seconds && (!opts.trace || traced) {
            break;
        }
    }
    w.seconds = start.elapsed().as_secs_f64();
    w.setup_s = stats::median(&setups).unwrap_or(first_setup_s);
    let ops = (w.plain.attempted + w.traced.attempted).max(1);
    w.minflt_per_op = host::minor_faults().unwrap_or(0).saturating_sub(minflt0) as f64 / ops as f64;
    w.runq_wait_ms = host::runq_wait_ns().saturating_sub(runq0) as f64 / 1e6;
    Ok(w)
}

/// Runs `setup` and returns what it built with its host seconds.
///
/// # Errors
///
/// The error of `setup`.
pub fn timed<S>(setup: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let t = Instant::now();
    let state = setup()?;
    Ok((state, t.elapsed().as_secs_f64()))
}

/// A finished run: counts plus every metric by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops tried, plain and traced passes together.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Whether the setup checks and every op passed.
    pub correct: bool,
    /// End-to-end or per-layer metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Fills the end-to-end metrics shared by every workload from the plain
/// passes of `w`.
pub fn end_to_end(report: &mut Report, w: &Window, sim_ms: f64) {
    report.set("setup_s", w.setup_s);
    report.set("runs_per_s", w.plain.rate());
    report.set("op_ms_p10", w.plain.p10());
    report.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    report.set("sim_ms", sim_ms);
    report
        .notes
        .push(format!("host.runq_wait_ms = {} ms", w.runq_wait_ms));
}

/// Fills the per-layer metrics shared by every workload. `op_ms_tail`
/// comes from the untraced passes of the window.
pub fn common_layers(report: &mut Report, w: &Window, op_span: &str) {
    if let Some(t) = stats::tail(&w.plain.pooled()) {
        report.set("op_ms_tail", t.value);
        report
            .notes
            .push(format!("op_ms_tail is p{} of {} samples", t.pct, t.samples));
    }
    report.set("host.minflt_per_op", w.minflt_per_op);
    report.set("host.runq_wait_ms", w.runq_wait_ms);
    let (plain, traced) = (w.plain.rate(), w.traced.rate());
    if traced > 0.0 {
        report.set("bench.trace_overhead_pct", (plain / traced - 1.0) * 100.0);
    }
    if let Some(c) = w.spans.coverage(op_span) {
        report.set("bench.span_cover_pct", c * 100.0);
        report.notes.push(format!(
            "child spans cover {:.2}% of {op_span} span time",
            c * 100.0
        ));
    }
}

/// Mean self time of span `name` per op, ms.
pub fn self_ms_per_op(w: &Window, name: &str) -> f64 {
    let ops = w.traced.attempted.max(1) as f64;
    w.spans
        .rollup()
        .get(name)
        .map_or(0.0, |t| t.self_ns as f64 / 1e6 / ops)
}

/// Mean duration of one `name` span, ms.
pub fn mean_span_ms(w: &Window, name: &str) -> f64 {
    w.spans
        .rollup()
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<usize> = Rng::new(1).order(16);
        assert_eq!(a, Rng::new(1).order(16));
        assert_ne!(a, Rng::new(2).order(16));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn laps_without_ops_record_nothing() {
        let mut t = Tally::new(1);
        t.lap();
        t.lap();
        assert!(t.lap_rates.is_empty());
        t.record(0, 1.0, true);
        t.lap();
        t.record(0, 1.0, false);
        t.lap();
        assert_eq!(t.lap_rates.len(), 2);
        assert!(t.lap_rates[0] > 0.0);
        assert_eq!(t.lap_rates[1], 0.0);
    }

    #[test]
    fn tally_p10_is_per_group() {
        let mut t = Tally::new(2);
        for ms in [1.0, 1.0, 1.0] {
            t.record(0, ms, true);
        }
        t.record(1, 100.0, true);
        assert!((t.p10() - 10.0).abs() < 1e-9);
        t.fail(1);
        assert_eq!((t.attempted, t.failed), (4, 1));
    }
}
