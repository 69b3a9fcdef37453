//! `task_dense` and `mem_bound`: one op is `pxl_flow::execute` of a
//! `Scale::Paper` spec through to a golden-checked `RunOutcome`.
//!
//! Both workloads run their benchmarks on the same three engines (flex
//! 4x4, lite 4x4, cpu 16), so the contrast between them is the input:
//! `uts`/`queens` spawn tens of thousands of tasks and never touch the
//! memory timing model, `spmvcrs`/`stencil2d` spawn a few hundred tasks
//! that make hundreds of thousands of L1 accesses.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pxl_apps::{by_name, Scale};
use pxl_arch::{EngineKind, Workload};
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::{execute, RunSpec, SimulationBuilder};
use pxl_sim::{Metrics, Time};

use crate::harness::{self, Opts, Report, Rng, Tally};
use crate::spans::Spans;

/// The engines both flow workloads run on.
pub fn points() -> [DesignPoint; 3] {
    [
        DesignPoint::accel(PointArch::Flex, 4, 4),
        DesignPoint::accel(PointArch::Lite, 4, 4),
        DesignPoint::cpu(16),
    ]
}

/// One spec with the reference outcome setup captured for it.
pub struct Case {
    /// The spec executed.
    pub spec: RunSpec,
    /// `RunOutcome::to_jsonl` of the uninterrupted reference run.
    pub reference: String,
    /// Reference kernel time.
    pub kernel: Time,
    /// Reference whole-program time.
    pub whole: Time,
    /// Reference metrics.
    pub metrics: Metrics,
}

impl Case {
    fn accel(&self) -> bool {
        self.spec.point.arch != PointArch::Cpu
    }
}

/// Executes `spec` once as the reference every later op is compared with.
///
/// # Errors
///
/// The run error, or a missing LiteArch mapping.
pub fn reference(spec: RunSpec) -> Result<Case, String> {
    let out = execute(&spec)
        .map_err(|e| format!("reference run of {}: {e}", spec.canonical()))?
        .ok_or_else(|| format!("{} has no LiteArch mapping", spec.benchmark))?;
    Ok(Case {
        reference: out.to_jsonl(),
        kernel: out.kernel,
        whole: out.whole,
        metrics: out.metrics,
        spec,
    })
}

/// The specs of `task_dense` or `mem_bound`.
pub fn specs(benches: &[&str], scale: Scale) -> Vec<RunSpec> {
    benches
        .iter()
        .flat_map(|b| points().map(|p| RunSpec::new(*b, scale, p)))
        .collect()
}

/// Whole-program simulated ms summed over one pass of `cases`.
pub fn sim_ms(cases: &[Case]) -> f64 {
    cases.iter().map(|c| c.whole.as_ps() as f64 / 1e9).sum()
}

/// One untraced op: exactly `execute`, then a byte comparison.
fn plain_op(case: &Case) -> (f64, bool) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| execute(&case.spec)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = matches!(&out, Ok(Ok(Some(o))) if o.to_jsonl() == case.reference);
    (ms, ok)
}

/// One traced op: the steps of `execute`, each called through its public
/// API inside a span. Returns the op's host ms and whether the kernel
/// time, metrics and golden check match the reference.
fn traced_op(case: &Case, spans: &mut Spans, op: u64) -> (f64, bool) {
    let spec = &case.spec;
    let t = Instant::now();
    let root = spans.open("op", op);
    let run_span = if case.accel() { "arch.run" } else { "cpu.run" };
    let mut steps = || -> Option<(bool, Time, Metrics)> {
        let bench = spans.time("apps.lookup", op, || by_name(&spec.benchmark, spec.scale))?;
        let mut engine = spans
            .time("flow.build", op, || {
                SimulationBuilder::from_run_spec(spec).and_then(|b| b.build())
            })
            .ok()?;
        let out = if engine.kind() == EngineKind::Lite {
            let inst = spans.time("apps.inputs", op, || bench.lite(engine.mem_mut()))?;
            let (mut worker, mut driver) = (inst.worker, inst.driver);
            let out = spans.time(run_span, op, || {
                engine.run(Workload::rounds(worker.as_mut(), driver.as_mut()))
            });
            spans.time("flow.teardown", op, || drop((worker, driver)));
            out
        } else {
            let inst = spans.time("apps.inputs", op, || bench.flex(engine.mem_mut()));
            let mut worker = inst.worker;
            let out = spans.time(run_span, op, || {
                engine.run(Workload::dynamic(worker.as_mut(), inst.root))
            });
            spans.time("flow.teardown", op, || drop(worker));
            out
        }
        .ok()?;
        let checked = spans.time("apps.check", op, || {
            bench.check(engine.memory(), out.result).is_ok()
        });
        spans.time("flow.teardown", op, || drop((engine, bench)));
        Some((checked, out.elapsed, out.metrics))
    };
    let result = catch_unwind(AssertUnwindSafe(&mut steps)).ok().flatten();
    spans.close_through(root);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = result.is_some_and(|(checked, kernel, metrics)| {
        checked && kernel == case.kernel && metrics.to_json() == case.metrics.to_json()
    });
    (ms, ok)
}

/// Runs one pass: every case once, in a seeded order.
fn pass(cases: &[Case], tally: &mut Tally, mut spans: Option<&mut Spans>, rng: &mut Rng) {
    for i in rng.order(cases.len()) {
        let (ms, ok) = match spans.as_deref_mut() {
            Some(s) => traced_op(&cases[i], s, tally.attempted),
            None => plain_op(&cases[i]),
        };
        tally.record(i, ms, ok);
    }
}

/// Exact per-pass counts from the reference outcomes: the per-layer
/// counters of pxl-arch, pxl-cpu and pxl-mem.
pub fn count_layers(report: &mut Report, cases: &[Case]) {
    let sum = |accel: bool, name: &str| -> u64 {
        cases
            .iter()
            .filter(|c| c.accel() == accel)
            .map(|c| c.metrics.get(name))
            .sum()
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let all = |name: &str| sum(true, name) + sum(false, name);
    report.set("arch.tasks", sum(true, "accel.tasks") as f64);
    report.set(
        "arch.steal_hit_ratio",
        ratio(
            sum(true, "accel.steal_hits"),
            sum(true, "accel.steal_attempts"),
        ),
    );
    report.set(
        "cpu.steal_hit_ratio",
        ratio(
            sum(false, "cpu.steal_hits"),
            sum(false, "cpu.steal_attempts"),
        ),
    );
    let (hits, misses) = (all("mem.l1_hits"), all("mem.l1_misses"));
    report.set("mem.l1_accesses", (hits + misses) as f64);
    report.set("mem.l1_hit_ratio", ratio(hits, hits + misses));
    report.set("mem.dram_lines", all("mem.dram_lines") as f64);
    report.set("mem.dram_sat_events", all("mem.dram_sat_events") as f64);
}

/// Host time per task and per worker op from the traced passes'
/// `arch.run`/`cpu.run` spans, divided by the matching counters.
fn engine_layers(report: &mut Report, w: &harness::Window, cases: &[Case]) {
    // Counter totals over every traced execution of each case.
    let runs = |accel: bool, name: &str| -> f64 {
        cases
            .iter()
            .zip(&w.traced.group_ms)
            .filter(|(c, _)| c.accel() == accel)
            .map(|(c, ops)| c.metrics.get(name) as f64 * ops.len() as f64)
            .sum()
    };
    let rollup = w.spans.rollup();
    let ns = |name: &str| rollup.get(name).map_or(0.0, |t| t.total_ns as f64);
    let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    report.set("arch.run_ms", harness::mean_span_ms(w, "arch.run"));
    report.set("cpu.run_ms", harness::mean_span_ms(w, "cpu.run"));
    report.set(
        "arch.ns_per_task",
        per(ns("arch.run"), runs(true, "accel.tasks")),
    );
    report.set(
        "cpu.ns_per_task",
        per(ns("cpu.run"), runs(false, "cpu.tasks")),
    );
    report.set(
        "model.ns_per_op",
        per(ns("arch.run"), runs(true, "accel.ops")),
    );
}

/// Runs `task_dense` or `mem_bound`.
///
/// # Errors
///
/// A failed reference run during setup.
pub fn run(
    benches: &[&str],
    opts: &Opts,
    process_start: Instant,
    rng: &mut Rng,
) -> Result<(Report, Spans), String> {
    let scale = if opts.tiny { Scale::Tiny } else { Scale::Paper };
    let setup = || -> Result<Vec<Case>, String> {
        specs(benches, scale).into_iter().map(reference).collect()
    };
    let cases = setup()?;
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let w = harness::window(
        opts,
        cases.len(),
        rng,
        first_setup_s,
        || harness::timed(setup).map(|(_, s)| s),
        |tally, spans, rng| pass(&cases, tally, spans, rng),
    )?;
    let mut report = Report {
        attempted: w.plain.attempted + w.traced.attempted,
        failed: w.plain.failed + w.traced.failed,
        ..Report::default()
    };
    if opts.trace {
        for (metric, span) in [
            ("apps.lookup_ms", "apps.lookup"),
            ("flow.build_ms", "flow.build"),
            ("apps.inputs_ms", "apps.inputs"),
            ("apps.check_ms", "apps.check"),
            ("flow.teardown_ms", "flow.teardown"),
        ] {
            report.set(metric, harness::self_ms_per_op(&w, span));
        }
        engine_layers(&mut report, &w, &cases);
        count_layers(&mut report, &cases);
        harness::common_layers(&mut report, &w, "op");
    } else {
        harness::end_to_end(&mut report, &w, sim_ms(&cases));
    }
    report.notes.push(format!(
        "{} specs, {} plain ops, {} traced ops over {:.2} s",
        cases.len(),
        w.plain.attempted,
        w.traced.attempted,
        w.seconds
    ));
    Ok((report, w.spans))
}
