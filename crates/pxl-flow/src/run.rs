//! Executing a [`RunSpec`]: the one validated path from a serializable
//! request to a [`RunOutcome`].
//!
//! [`execute`] turns a spec into a finished, golden-checked run;
//! [`measure`] additionally folds in the energy/resource models to
//! produce the [`Measurement`] tuple the design-space explorer ranks.
//! Both report whole-program time (host initialization plus kernel),
//! matching the paper's methodology: "performance numbers are obtained by
//! comparing whole program execution time, which include initialization
//! and data transfers".
//!
//! [`execute`] is a [`SimSession`] started and finished in one call.
//! Every driver, the Zedboard prototype's Fig. 6 rows included, and the
//! `pxl-serve` job server go through this module, so a spec means the same
//! run everywhere.

use pxl_cost::resources::TileResources;
use pxl_cost::EnergyModel;
use pxl_dse::{Measurement, PointArch};
use pxl_sim::{Metrics, Time, Timeline, Tracer};

use crate::{FlowError, RunSpec, SimSession};

/// Host memcpy bandwidth used to charge initialization time for the
/// benchmark's data footprint (bytes/second). Charged identically to CPU
/// and accelerator runs — on the integrated SoC both engines read the same
/// shared memory.
const INIT_BW: f64 = 25.6e9;

pub(crate) fn init_time(footprint_bytes: u64) -> Time {
    Time::from_ps((footprint_bytes as f64 / INIT_BW * 1e12) as u64)
}

/// Outcome of one validated simulation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Benchmark name.
    pub bench: String,
    /// The point's architecture label ("flex", "lite", "central", "cpu"),
    /// on either platform.
    pub engine: String,
    /// PEs or cores used.
    pub units: usize,
    /// Kernel time (simulated).
    pub kernel: Time,
    /// Whole-program time: initialization + kernel.
    pub whole: Time,
    /// Engine + memory metrics.
    pub metrics: Metrics,
    /// Structured event trace (empty unless tracing was enabled).
    pub trace: Tracer,
    /// Windowed telemetry timeline (empty unless a telemetry policy was
    /// set). Not part of [`RunOutcome::to_jsonl`] — export it separately
    /// with [`pxl_sim::Timeline::to_jsonl`].
    pub timeline: Timeline,
}

impl RunOutcome {
    /// Whole-program seconds.
    pub fn seconds(&self) -> f64 {
        self.whole.as_secs_f64()
    }

    /// Renders the outcome as one JSONL record: identity, times, a summary
    /// of the headline metrics (steals, P-Store high-water mark, L1 miss
    /// rate, DRAM traffic), and the full metrics registry.
    pub fn to_jsonl(&self) -> String {
        let m = &self.metrics;
        let l1_refs = m.get("mem.l1_hits") + m.get("mem.l1_misses");
        let l1_miss_rate = if l1_refs == 0 {
            0.0
        } else {
            m.get("mem.l1_misses") as f64 / l1_refs as f64
        };
        let steal_attempts = m.get("accel.steal_attempts") + m.get("cpu.steal_attempts");
        let steal_hits = m.get("accel.steal_hits") + m.get("cpu.steal_hits");
        format!(
            concat!(
                "{{\"bench\":\"{}\",\"engine\":\"{}\",\"units\":{},",
                "\"kernel_ps\":{},\"whole_ps\":{},",
                "\"steal_attempts\":{},\"steal_hits\":{},",
                "\"pstore_peak_sum\":{},\"l1_miss_rate\":{:.6},",
                "\"dram_bytes\":{},\"trace_events\":{},\"trace_dropped\":{},\"metrics\":{}}}"
            ),
            self.bench,
            self.engine,
            self.units,
            self.kernel.as_ps(),
            self.whole.as_ps(),
            steal_attempts,
            steal_hits,
            m.get("accel.pstore_peak_sum"),
            l1_miss_rate,
            m.get("mem.dram_bytes"),
            self.trace.len(),
            m.get("trace.dropped"),
            m.to_json(),
        )
    }
}

/// Writes one [`RunOutcome::to_jsonl`] record per outcome to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_jsonl(path: &std::path::Path, outcomes: &[RunOutcome]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for out in outcomes {
        writeln!(f, "{}", out.to_jsonl())?;
    }
    f.into_inner()?.flush()
}

/// Why a run failed, with the failing stage typed.
#[derive(Debug)]
pub enum RunError {
    /// The spec names a benchmark [`pxl_apps::by_name`] does not know.
    UnknownBenchmark(String),
    /// The engine could not be constructed from the spec.
    Build(FlowError),
    /// The simulation itself failed (deadlock, watchdog, capacity).
    Sim(String),
    /// A checkpoint snapshot could not be restored (wrong engine family,
    /// mismatched configuration, version or checksum failure).
    Snapshot(pxl_sim::SnapshotError),
    /// The run completed but its output failed golden validation. The
    /// finished outcome rides along so fault-injection harnesses can still
    /// report the corrupted run's timing, metrics and trace.
    WrongResult {
        /// The validation failure: `"{bench} on {arch}/{units}u wrong: ..."`.
        message: String,
        /// The (invalid) completed run.
        outcome: Box<RunOutcome>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark(name) => write!(f, "unknown benchmark {name:?}"),
            RunError::Build(e) => write!(f, "{e}"),
            RunError::Sim(message) => write!(f, "{message}"),
            RunError::Snapshot(e) => write!(f, "snapshot restore failed: {e}"),
            RunError::WrongResult { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<FlowError> for RunError {
    fn from(e: FlowError) -> Self {
        RunError::Build(e)
    }
}

/// Executes a [`RunSpec`] end to end: benchmark lookup, engine
/// construction, simulation, golden validation — a [`SimSession`] started
/// and finished in one call.
///
/// Returns `Ok(None)` when the spec targets LiteArch and the benchmark has
/// no LiteArch mapping.
///
/// # Errors
///
/// A typed [`RunError`] naming the failing stage.
pub fn execute(spec: &RunSpec) -> Result<Option<RunOutcome>, RunError> {
    let Some(mut session) = SimSession::start(spec)? else {
        return Ok(None);
    };
    session.finish().map(warn_dropped)
}

/// Warns on stderr when a finished one-shot run dropped trace events, so
/// its trace (and any profile built from it) is known to be incomplete.
fn warn_dropped(outcome: RunOutcome) -> Option<RunOutcome> {
    let dropped = outcome.metrics.get("trace.dropped");
    if dropped > 0 {
        eprintln!(
            "[trace] warning: {} on {}/{}u dropped {dropped} trace \
             event(s); the trace (and any profile built from it) is incomplete",
            outcome.bench, outcome.engine, outcome.units
        );
    }
    Some(outcome)
}

/// Executes a [`RunSpec`] and folds in the energy and FPGA-resource
/// models: the [`Measurement`] tuple the design-space explorer builds its
/// Pareto fronts from. `resources` is the per-tile estimate for
/// accelerator points (`None` measures zero LUT/BRAM, as for the CPU
/// baseline).
///
/// # Errors
///
/// Any [`execute`] failure; a spec whose benchmark has no LiteArch
/// mapping fails as [`FlowError::NoLiteVariant`] (a measurement, unlike a
/// run, cannot represent "not applicable"), and a Zedboard spec fails
/// [`RunSpec::check_priced`] before it is simulated.
pub fn measure(spec: &RunSpec, resources: Option<&TileResources>) -> Result<Measurement, RunError> {
    spec.check_priced().map_err(RunError::Build)?;
    let out = execute(spec)?
        .ok_or_else(|| RunError::Build(FlowError::NoLiteVariant(spec.benchmark.clone())))?;
    Ok(measurement_of(spec, resources, &out))
}

/// Folds the energy and FPGA-resource models into an already-completed
/// outcome of `spec` — the deterministic mapping [`measure`] applies, split
/// out for callers (the `pxl-serve` job server) that need the outcome's
/// metrics *and* the measurement from one simulation. The models price
/// the simulated SoC only: callers refuse a spec
/// [`RunSpec::check_priced`] refuses.
pub fn measurement_of(
    spec: &RunSpec,
    resources: Option<&TileResources>,
    out: &RunOutcome,
) -> Measurement {
    let model = EnergyModel::default();
    let energy_j = match spec.point.arch {
        PointArch::Cpu => model.cpu_energy(&out.metrics, out.kernel, out.units),
        arch => {
            model.accel_energy_for(&out.metrics, out.kernel, out.units, arch == PointArch::Lite)
        }
    }
    .total_j();
    let (lut, bram18) = match resources {
        Some(r) => {
            let tiles = spec.point.tiles.max(1) as u64;
            (
                u64::from(r.tile.lut) * tiles,
                u64::from(r.tile.bram18) * tiles,
            )
        }
        None => (0, 0),
    };
    Measurement {
        kernel_ps: out.kernel.as_ps(),
        whole_ps: out.whole.as_ps(),
        energy_j,
        lut,
        bram18,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_apps::Scale;
    use pxl_dse::DesignPoint;
    use pxl_sim::FaultPlan;

    #[test]
    fn execute_runs_a_spec_on_every_arch() {
        for (point, label) in [
            (DesignPoint::accel(PointArch::Flex, 1, 2), "flex"),
            (DesignPoint::accel(PointArch::Central, 1, 2), "central"),
            (DesignPoint::accel(PointArch::Lite, 1, 2), "lite"),
            (DesignPoint::cpu(2), "cpu"),
        ] {
            let spec = RunSpec::new("uts", Scale::Tiny, point);
            let out = execute(&spec)
                .unwrap_or_else(|e| panic!("uts on {label}: {e}"))
                .expect("uts runs everywhere");
            assert_eq!(out.engine, label);
            assert_eq!(out.units, 2);
            assert!(out.whole > out.kernel, "init time must be charged");
        }
    }

    #[test]
    fn execute_is_deterministic() {
        let spec = RunSpec::new(
            "queens",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 1, 4),
        )
        .with_trace(1 << 12);
        let a = execute(&spec).unwrap().unwrap();
        let b = execute(&spec).unwrap().unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "same spec, same bytes");
    }

    #[test]
    fn lite_without_a_mapping_is_not_an_error_for_execute() {
        let spec = RunSpec::new(
            "cilksort",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Lite, 1, 4),
        );
        assert!(execute(&spec).unwrap().is_none());
        // ...but it is for measure, which must produce a tuple.
        let err = measure(&spec, None).unwrap_err();
        assert!(
            matches!(&err, RunError::Build(FlowError::NoLiteVariant(n)) if n == "cilksort"),
            "{err}"
        );
    }

    #[test]
    fn zedboard_specs_run_but_are_not_measured() {
        let point =
            DesignPoint::accel(PointArch::Flex, 1, 4).on_platform(pxl_arch::Platform::Zedboard);
        let spec = RunSpec::new("uts", Scale::Tiny, point);
        assert!(execute(&spec).unwrap().is_some());
        let err = measure(&spec, None).unwrap_err();
        assert!(
            matches!(&err, RunError::Build(FlowError::InvalidConfig(m)) if m.contains("Zedboard")),
            "{err}"
        );
    }

    #[test]
    fn unknown_benchmarks_fail_typed() {
        let spec = RunSpec::new("nope", Scale::Tiny, DesignPoint::cpu(1));
        let err = execute(&spec).unwrap_err();
        assert!(matches!(&err, RunError::UnknownBenchmark(n) if n == "nope"));
        assert_eq!(err.to_string(), "unknown benchmark \"nope\"");
    }

    #[test]
    fn fault_plans_thread_through_the_spec() {
        let clean = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 1, 2),
        );
        let faulted =
            clean
                .clone()
                .with_faults(FaultPlan::new(7).stall_pe(1, Time::from_us(1), 50_000));
        let a = execute(&clean).unwrap().unwrap();
        let b = execute(&faulted).unwrap().unwrap();
        assert!(
            b.kernel > a.kernel,
            "a stalled PE must slow the run: {} !> {}",
            b.kernel.as_ps(),
            a.kernel.as_ps()
        );
        // Faults on the CPU baseline are rejected at build time.
        let cpu = RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(2))
            .with_faults(FaultPlan::new(7).kill_pe(0, Time::from_us(1)));
        assert!(matches!(
            execute(&cpu).unwrap_err(),
            RunError::Build(FlowError::InvalidConfig(_))
        ));
    }

    #[test]
    fn measure_matches_execute_timing() {
        let spec = RunSpec::new("queens", Scale::Tiny, DesignPoint::cpu(4));
        let out = execute(&spec).unwrap().unwrap();
        let m = measure(&spec, None).unwrap();
        assert_eq!(m.kernel_ps, out.kernel.as_ps());
        assert_eq!(m.whole_ps, out.whole.as_ps());
        assert!(m.energy_j > 0.0);
        assert_eq!((m.lut, m.bram18), (0, 0));
    }

    #[test]
    fn profile_override_changes_the_run() {
        let base = RunSpec::new("queens", Scale::Tiny, DesignPoint::cpu(2));
        let slow = base
            .clone()
            .with_profile(pxl_model::ExecProfile::new(1.0, 0.01));
        let a = execute(&base).unwrap().unwrap();
        let b = execute(&slow).unwrap().unwrap();
        assert!(
            b.kernel > a.kernel,
            "a slower profile must lengthen the run"
        );
    }
}
