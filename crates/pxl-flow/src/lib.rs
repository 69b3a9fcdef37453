//! The ParallelXL design methodology (Section IV of the paper).
//!
//! The paper's flow takes a C++ worker description and an architectural
//! template, elaborates the template with the designer's parameters
//! (architecture, tiles, PEs, queue and P-Store entries, cache size), and
//! emits accelerator RTL. In this reproduction the parameters are a
//! `pxl-dse` [`DesignPoint`](pxl_dse::DesignPoint), and the "RTL" is the
//! simulator engine it elaborates to:
//!
//! ```text
//! RunSpec { benchmark, scale, DesignPoint, ... }
//!        |
//! SimulationBuilder::from_run_spec(..).build()  ->  Box<dyn Engine>
//!        |
//! execute / measure / SimSession  ->  golden-checked RunOutcome
//! ```
//!
//! A serializable [`RunSpec`] is the one way to name a run, and a
//! [`SimSession`] the one way to perform it — [`execute`] starts and
//! finishes one, [`measure`] adds the cost models: every experiment driver
//! and the `pxl-serve` job server share it. "Design space exploration can
//! be done easily by changing the parameters given to the framework,
//! without rewriting any code" (Section IV-C) — that is a `pxl-dse` search
//! space over design points. The same template runs on the simulated SoC
//! and on the Zedboard prototype (Fig. 6): the platform is one more member
//! of the design point, so a prototype run is a spec like any other. The
//! cost models price only the simulated SoC, so [`measure`] and the job
//! server refuse a Zedboard spec ([`RunSpec::check_priced`]).
//!
//! # Examples
//!
//! ```
//! use pxl_apps::Scale;
//! use pxl_dse::{DesignPoint, PointArch};
//! use pxl_flow::{execute, RunSpec};
//!
//! let mut point = DesignPoint::accel(PointArch::Flex, 4, 4);
//! point.cache_kb = 16;
//! let out = execute(&RunSpec::new("queens", Scale::Tiny, point))
//!     .unwrap()
//!     .expect("FlexArch runs every benchmark");
//! assert_eq!(out.units, 16);
//! assert!(out.whole > out.kernel);
//! ```

pub mod run;
pub mod session;
pub mod spec;

pub use run::{execute, measure, measurement_of, write_jsonl, RunError, RunOutcome};
pub use session::{SessionStatus, SimSession};
pub use spec::{CheckpointPolicy, RunSpec, SpecError, TelemetryPolicy};

use pxl_arch::{
    ArchKind, CentralEngine, ConfigError, Engine, FlexEngine, HierEngine, LiteEngine, Platform,
    StealMode,
};
use pxl_cpu::CpuEngine;
use pxl_dse::PointArch;
use pxl_model::ExecProfile;

/// Errors produced while elaborating a design into an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The architectural parameters are not realizable, with the violated
    /// constraint typed so callers (e.g. the `pxl-dse` pruner) can report
    /// *why* a design point is infeasible.
    Config(ConfigError),
    /// Some other aspect of the request is invalid (unknown benchmark,
    /// zero CPU cores, fault plans on the software baseline, ...).
    InvalidConfig(String),
    /// The selected benchmark has no LiteArch variant.
    NoLiteVariant(String),
}

impl From<ConfigError> for FlowError {
    fn from(e: ConfigError) -> Self {
        FlowError::Config(e)
    }
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Config(e) => write!(f, "invalid configuration: {e}"),
            FlowError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            FlowError::NoLiteVariant(name) => {
                write!(f, "benchmark '{name}' has no LiteArch mapping")
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// The bridge from the design flow to the simulator: elaborates a
/// [`RunSpec`]'s design point into an engine behind the [`Engine`] trait —
/// FlexArch, LiteArch, the centralized-queue ablation, a multi-chip
/// cluster, or the CPU baseline, on the simulated SoC or the Zedboard
/// prototype.
///
/// # Examples
///
/// ```
/// use pxl_apps::Scale;
/// use pxl_dse::{DesignPoint, PointArch};
/// use pxl_flow::{RunSpec, SimulationBuilder};
///
/// let spec = RunSpec::new("uts", Scale::Tiny, DesignPoint::accel(PointArch::Flex, 1, 4))
///     .with_trace(4096);
/// let engine = SimulationBuilder::from_run_spec(&spec).unwrap().build().unwrap();
/// assert_eq!(engine.kind().label(), "flex");
/// assert_eq!(engine.units(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    spec: RunSpec,
    profile: ExecProfile,
}

impl SimulationBuilder {
    /// The single construction path from a serializable [`RunSpec`]:
    /// resolves the benchmark's execution profile (unless the spec
    /// overrides it) and checks that the spec's design point can carry the
    /// rest of the spec.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] when the point does not exist on its
    /// platform ([`DesignPoint::check_platform`](pxl_dse::DesignPoint::check_platform)),
    /// when the spec needs the benchmark's own profile but names an unknown
    /// benchmark, or when it arms a fault plan on the CPU baseline, which
    /// has no modelled fault surface. (Design-point validation happens
    /// later, at [`SimulationBuilder::build`].)
    pub fn from_run_spec(spec: &RunSpec) -> Result<SimulationBuilder, FlowError> {
        let profile = match spec.profile {
            Some(p) => p,
            None => pxl_apps::by_name(&spec.benchmark, spec.scale)
                .ok_or_else(|| {
                    FlowError::InvalidConfig(format!("unknown benchmark {:?}", spec.benchmark))
                })?
                .profile(),
        };
        spec.point
            .check_platform()
            .map_err(FlowError::InvalidConfig)?;
        if spec.faults.is_some() && spec.point.arch == PointArch::Cpu {
            return Err(FlowError::InvalidConfig(
                "fault injection requires an accelerator target; \
                 the CPU baseline has no modelled fault surface"
                    .into(),
            ));
        }
        Ok(SimulationBuilder {
            spec: spec.clone(),
            profile,
        })
    }

    /// Validates the target and constructs the engine: FlexArch, LiteArch
    /// or the central ablation from the point's elaborated configuration,
    /// or the software baseline for CPU points (Table III cores, or the
    /// Zedboard's Cortex-A9s), with the spec's trace capacity, telemetry
    /// and fault plan written in.
    ///
    /// # Errors
    ///
    /// [`FlowError::Config`] with the violated constraint when the
    /// accelerator configuration is not realizable (the fault plan is
    /// validated against it here too), [`FlowError::InvalidConfig`] when
    /// the CPU has zero cores or more cores than the memory system has L1
    /// ports ([`pxl_mem::MAX_L1_PORTS`]).
    pub fn build(&self) -> Result<Box<dyn Engine>, FlowError> {
        let spec = &self.spec;
        let telemetry_every = spec.telemetry.as_ref().map_or(0, |tp| tp.every_cycles);
        let Some(mut config) = spec.point.accel_config() else {
            let cores = spec.point.units();
            if cores == 0 {
                return Err(FlowError::InvalidConfig(
                    "the CPU baseline needs at least one core".into(),
                ));
            }
            if cores > pxl_mem::MAX_L1_PORTS {
                return Err(FlowError::InvalidConfig(format!(
                    "{cores} cores need {cores} L1 ports; the memory system has at most {}",
                    pxl_mem::MAX_L1_PORTS
                )));
            }
            let mut engine = match spec.point.platform {
                Platform::Coherent => CpuEngine::new(cores, self.profile),
                Platform::Zedboard => CpuEngine::zedboard(cores, self.profile),
            };
            if spec.trace_capacity > 0 {
                engine.set_trace_capacity(spec.trace_capacity);
            }
            if telemetry_every > 0 {
                engine.set_telemetry_every(telemetry_every);
            }
            return Ok(Box::new(engine));
        };
        config.trace_capacity = spec.trace_capacity;
        config.telemetry_every_cycles = telemetry_every;
        config.fault_plan = spec.faults.clone();
        // Validate up front so callers get the typed constraint (the
        // engines re-validate, but only report strings).
        config.validate().map_err(FlowError::Config)?;
        // Unwrap AccelError::InvalidConfig so FlowError does not stack a
        // second "invalid configuration:" prefix on it.
        let lift = |e: pxl_arch::AccelError| match e {
            pxl_arch::AccelError::InvalidConfig(msg) => FlowError::InvalidConfig(msg),
            other => FlowError::InvalidConfig(other.to_string()),
        };
        // A multi-chip cluster with hierarchical stealing swaps in the
        // HierPolicy engine; flat-stealing clusters and all single-chip
        // configs run the stock engines (the link tier lives in the shared
        // fabric, so flat clusters still pay it).
        let hierarchical = config
            .cluster
            .is_some_and(|c| c.chips > 1 && matches!(c.stealing, StealMode::Hierarchical { .. }));
        Ok(match config.arch {
            ArchKind::Flex if hierarchical => {
                Box::new(HierEngine::try_new(config, self.profile).map_err(lift)?)
            }
            ArchKind::Flex => Box::new(FlexEngine::try_new(config, self.profile).map_err(lift)?),
            ArchKind::Lite => Box::new(LiteEngine::try_new(config, self.profile).map_err(lift)?),
            ArchKind::Central => {
                Box::new(CentralEngine::try_new(config, self.profile).map_err(lift)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_builder_targets_any_design_point() {
        use pxl_apps::Scale;
        use pxl_arch::EngineKind;
        use pxl_dse::{DesignPoint, PointArch};

        let point = DesignPoint {
            arch: PointArch::Flex,
            tiles: 1,
            pes_per_tile: 2,
            cache_kb: 16,
            task_queue_entries: 64,
            pstore_entries: 512,
            cluster: None,
            platform: Platform::Coherent,
        };
        let build = |point: &DesignPoint| {
            SimulationBuilder::from_run_spec(&RunSpec::new("uts", Scale::Tiny, point.clone()))
                .unwrap()
                .build()
        };
        let engine = build(&point).unwrap();
        assert_eq!(engine.kind(), EngineKind::Flex);
        assert_eq!(engine.units(), 2);

        let cpu = build(&DesignPoint::cpu(3)).unwrap();
        assert_eq!(cpu.kind(), EngineKind::Cpu);
        assert_eq!(cpu.units(), 3);

        // Infeasible points still fail with the typed constraint.
        let mut bad = point.clone();
        bad.cache_kb = 3;
        let err = build(&bad).unwrap_err();
        assert_eq!(
            err,
            FlowError::Config(ConfigError::BadCacheGeometry { bytes: 3 * 1024 })
        );
        assert_eq!(
            err.to_string(),
            "invalid configuration: cache size 3072 does not form a power-of-two number of sets"
        );
    }

    #[test]
    fn simulation_builder_constructs_all_three_engines() {
        use pxl_apps::Scale;
        use pxl_arch::EngineKind;
        use pxl_dse::{DesignPoint, PointArch};

        for (point, kind) in [
            (DesignPoint::accel(PointArch::Flex, 1, 4), EngineKind::Flex),
            (DesignPoint::accel(PointArch::Lite, 1, 4), EngineKind::Lite),
            (DesignPoint::cpu(4), EngineKind::Cpu),
        ] {
            let engine = SimulationBuilder::from_run_spec(&RunSpec::new("uts", Scale::Tiny, point))
                .unwrap()
                .build()
                .unwrap();
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.units(), 4);
        }
    }

    #[test]
    fn simulation_builder_validates_before_constructing() {
        use pxl_apps::Scale;
        use pxl_dse::{DesignPoint, PointArch};

        let build = |point: DesignPoint| {
            SimulationBuilder::from_run_spec(&RunSpec::new("uts", Scale::Tiny, point))
                .unwrap()
                .build()
                .unwrap_err()
        };
        let err = build(DesignPoint::accel(PointArch::Flex, 0, 4));
        assert_eq!(err, FlowError::Config(ConfigError::NoTiles));

        let err = build(DesignPoint::cpu(0));
        assert!(matches!(err, FlowError::InvalidConfig(_)));

        // One L1 port per tile or core, at most 64 of them.
        let err = build(DesignPoint::accel(PointArch::Flex, 65, 1));
        assert_eq!(
            err,
            FlowError::Config(ConfigError::TooManyPorts { tiles: 65 })
        );
        let err = build(DesignPoint::cpu(65));
        assert!(
            matches!(&err, FlowError::InvalidConfig(m) if m.contains("at most 64")),
            "{err}"
        );

        // A point the Zedboard prototype never had, built in code rather
        // than decoded from JSON, is refused before any engine is built.
        let zed_lite = DesignPoint::accel(PointArch::Lite, 1, 4).on_platform(Platform::Zedboard);
        let err = SimulationBuilder::from_run_spec(&RunSpec::new("uts", Scale::Tiny, zed_lite))
            .unwrap_err();
        assert_eq!(
            err,
            FlowError::InvalidConfig(
                "the Zedboard prototype has no lite accelerator (flex|cpu)".into()
            )
        );
    }

    #[test]
    fn simulation_builder_threads_trace_capacity() {
        use pxl_apps::Scale;
        use pxl_arch::Workload;
        use pxl_dse::{DesignPoint, PointArch};
        use pxl_model::{Continuation, Task, TaskContext, TaskTypeId, Worker};

        struct Doubler;
        impl Worker for Doubler {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                ctx.compute(1);
                ctx.send_arg(task.k, task.args[0] * 2);
            }
        }

        let spec = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 1, 2),
        )
        .with_trace(1024);
        let mut engine = SimulationBuilder::from_run_spec(&spec)
            .unwrap()
            .build()
            .unwrap();
        let mut worker = Doubler;
        let root = Task::new(TaskTypeId(0), Continuation::host(0), &[21]);
        let out = engine.run(Workload::dynamic(&mut worker, root)).unwrap();
        assert_eq!(out.result, 42);
        assert!(!out.trace.is_empty(), "tracing must be on");
    }
}
