//! `checkpoint`: one op is a write+restore round trip of a paused
//! `SimSession` — `snapshot`, `Snapshot::to_json`, `Snapshot::from_json`,
//! `SimSession::resume`.
//!
//! Each spec runs paused at every sixteenth of its reference kernel time,
//! continuing from the restored session each time, and its final outcome
//! must equal the uninterrupted reference byte for byte. The six runs of
//! a pass advance side by side, one pause of each in turn. It is the only
//! workload through the snapshot codec and the restore path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pxl_apps::Scale;
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::{RunSpec, SessionStatus, SimSession};
use pxl_sim::{Snapshot, Time};

use crate::flow::{self, Case};
use crate::harness::{self, Opts, Report, Rng, Tally};
use crate::spans::{step, Spans};

/// Pauses at `k/PARTS` of the kernel time for `k` in `1..PARTS`.
const PARTS: u64 = 16;

fn specs(scale: Scale) -> Vec<RunSpec> {
    let points = [
        DesignPoint::accel(PointArch::Flex, 2, 4),
        DesignPoint::accel(PointArch::Lite, 2, 4),
        DesignPoint::cpu(4),
    ];
    ["uts", "queens"]
        .iter()
        .flat_map(|b| points.clone().map(|p| RunSpec::new(*b, scale, p)))
        .collect()
}

/// One round trip; `None` when any stage fails.
fn round_trip(
    session: &SimSession,
    spec: &RunSpec,
    spans: &mut Option<&mut Spans>,
    op: u64,
    snapshot_bytes: &mut Vec<usize>,
) -> Option<SimSession> {
    let snap = step(spans, "sim.snapshot", op, || session.snapshot());
    let text = step(spans, "sim.encode", op, || snap.to_json());
    snapshot_bytes.push(text.len());
    let back = step(spans, "sim.decode", op, || Snapshot::from_json(&text)).ok()?;
    let resumed = step(spans, "flow.resume", op, || SimSession::resume(spec, &back));
    // Freeing the decoded tree is part of the codec's cost.
    step(spans, "sim.drop", op, || drop((snap, text, back)));
    resumed.ok().flatten()
}

/// One untimed round trip at mid-run, so the first timed op finds the
/// codec paths warm.
fn warm_up(case: &Case) -> Result<(), String> {
    let fail = || format!("warm-up round trip of {} failed", case.spec.canonical());
    let mut session = SimSession::start(&case.spec)
        .ok()
        .flatten()
        .ok_or_else(fail)?;
    let half = Time::from_ps(case.kernel.as_ps() / 2);
    session.advance(Some(half)).map_err(|_| fail())?;
    round_trip(&session, &case.spec, &mut None, 0, &mut Vec::new())
        .map(drop)
        .ok_or_else(fail)
}

/// One spec's paused run within a pass.
struct Run<'a> {
    case: &'a Case,
    group: usize,
    /// `None` once the run has failed or finished.
    session: Option<SimSession>,
    /// Round trips this run has recorded.
    trips: u64,
}

impl<'a> Run<'a> {
    fn start(
        case: &'a Case,
        group: usize,
        tally: &mut Tally,
        spans: &mut Option<&mut Spans>,
    ) -> Self {
        let started = step(spans, "flow.start", tally.attempted, || {
            SimSession::start(&case.spec)
        });
        let session = started.ok().flatten();
        if session.is_none() {
            eprintln!("checkpoint: {} did not start", case.spec.canonical());
            tally.record_failures(PARTS - 1);
        }
        Run {
            case,
            group,
            session,
            trips: 0,
        }
    }

    /// Advances to pause `k` and makes its round trip.
    fn pause(
        &mut self,
        k: u64,
        tally: &mut Tally,
        spans: &mut Option<&mut Spans>,
        snapshot_bytes: &mut Vec<usize>,
    ) {
        let Some(mut session) = self.session.take() else {
            return;
        };
        let spec = &self.case.spec;
        let op = tally.attempted;
        let at = Time::from_ps(self.case.kernel.as_ps() / PARTS * k);
        let leg = step(spans, "flow.advance", op, || {
            catch_unwind(AssertUnwindSafe(|| session.advance(Some(at))))
        });
        match leg {
            Ok(Ok(SessionStatus::Paused { .. })) => {}
            // No work was left beyond this boundary: the run is over.
            Ok(Ok(SessionStatus::Finished(out))) => {
                self.check(out.to_jsonl() == self.case.reference, tally);
                return;
            }
            _ => {
                eprintln!("checkpoint: {} failed before pause {k}", spec.canonical());
                tally.record_failures(PARTS - k);
                return;
            }
        }
        let t = Instant::now();
        let root = spans.as_deref_mut().map(|s| s.open("op", op));
        let restored = catch_unwind(AssertUnwindSafe(|| {
            round_trip(&session, spec, spans, op, snapshot_bytes)
        }));
        if let (Some(s), Some(root)) = (spans.as_deref_mut(), root) {
            s.close_through(root);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match restored {
            Ok(Some(next)) => {
                tally.record(self.group, ms, true);
                self.trips += 1;
                self.session = Some(next);
            }
            _ => {
                eprintln!("checkpoint: {} round trip {k} failed", spec.canonical());
                tally.record(self.group, ms, false);
                tally.record_failures(PARTS - 1 - k);
            }
        }
    }

    /// Runs to the end and compares the outcome with the reference.
    fn finish(mut self, tally: &mut Tally, spans: &mut Option<&mut Spans>) {
        let Some(mut session) = self.session.take() else {
            return;
        };
        let finished = step(spans, "flow.finish", tally.attempted, || {
            catch_unwind(AssertUnwindSafe(|| session.finish()))
        });
        self.check(
            matches!(&finished, Ok(Ok(out)) if out.to_jsonl() == self.case.reference),
            tally,
        );
    }

    /// A restored run that diverges fails every round trip it made.
    fn check(&self, same: bool, tally: &mut Tally) {
        if !same {
            eprintln!(
                "checkpoint: {} diverged from its reference",
                self.case.spec.canonical()
            );
            tally.fail(self.trips);
        }
    }
}

/// Runs the `checkpoint` workload.
///
/// # Errors
///
/// A failed reference run during setup.
pub fn run(opts: &Opts, process_start: Instant, rng: &mut Rng) -> Result<(Report, Spans), String> {
    let scale = if opts.tiny { Scale::Tiny } else { Scale::Small };
    let setup = || -> Result<Vec<Case>, String> {
        let cases: Vec<Case> = specs(scale)
            .into_iter()
            .map(flow::reference)
            .collect::<Result<_, _>>()?;
        cases.iter().try_for_each(warm_up)?;
        Ok(cases)
    };
    let cases = setup()?;
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let mut snapshot_bytes = Vec::new();
    let w = harness::window(
        opts,
        cases.len(),
        rng,
        first_setup_s,
        || harness::timed(setup).map(|(_, s)| s),
        |tally, mut spans, rng| {
            let mut untraced = Vec::new();
            let bytes = if spans.is_some() {
                &mut snapshot_bytes
            } else {
                &mut untraced
            };
            let mut runs: Vec<Run> = rng
                .order(cases.len())
                .into_iter()
                .map(|i| Run::start(&cases[i], i, tally, &mut spans))
                .collect();
            // The runs advance together, one pause of each in turn, and
            // every turn is one rate sample: a whole pass (about five
            // seconds) is too long to give enough samples in one window,
            // and a turn holds every spec, as a pass does elsewhere.
            for k in 1..PARTS {
                for run in &mut runs {
                    run.pause(k, tally, &mut spans, bytes);
                }
                tally.lap();
            }
            for run in runs {
                run.finish(tally, &mut spans);
            }
        },
    )?;
    let mut report = Report {
        attempted: w.plain.attempted + w.traced.attempted,
        failed: w.plain.failed + w.traced.failed,
        ..Report::default()
    };
    if opts.trace {
        for (metric, span) in [
            ("flow.start_ms", "flow.start"),
            ("flow.advance_ms", "flow.advance"),
            ("sim.snapshot_ms", "sim.snapshot"),
            ("sim.encode_ms", "sim.encode"),
            ("sim.decode_ms", "sim.decode"),
            ("flow.resume_ms", "flow.resume"),
            ("sim.drop_ms", "sim.drop"),
        ] {
            report.set(metric, harness::mean_span_ms(&w, span));
        }
        let kb: Vec<f64> = snapshot_bytes.iter().map(|b| *b as f64 / 1024.0).collect();
        report.set(
            "sim.snapshot_kb",
            kb.iter().sum::<f64>() / kb.len().max(1) as f64,
        );
        flow::count_layers(&mut report, &cases);
        harness::common_layers(&mut report, &w, "op");
    } else {
        harness::end_to_end(&mut report, &w, flow::sim_ms(&cases));
    }
    report.notes.push(format!(
        "{} specs x {} round trips per pass; {} plain ops, {} traced ops over {:.2} s",
        cases.len(),
        PARTS - 1,
        w.plain.attempted,
        w.traced.attempted,
        w.seconds
    ));
    Ok((report, w.spans))
}
