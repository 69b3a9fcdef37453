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
//! A serializable [`RunSpec`] is the one way to name a run, and
//! [`execute`]/[`measure`] (or the pausable [`SimSession`]) the one way to
//! perform it: every experiment driver and the `pxl-serve` job server
//! share it. "Design space exploration can be done easily by changing the
//! parameters given to the framework, without rewriting any code"
//! (Section IV-C) — that is a `pxl-dse` search space over design points.
//! Custom workers and platforms a spec cannot name (the Zedboard
//! prototype) use [`SimulationBuilder::from_config`] /
//! [`SimulationBuilder::cpu_with`] and [`run_checked`] directly.
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

pub use run::{execute, measure, measurement_of, run_checked, write_jsonl, RunError, RunOutcome};
pub use session::{SessionStatus, SimSession};
pub use spec::{CheckpointPolicy, RunSpec, SpecError, TelemetryPolicy};

use pxl_arch::{
    AccelConfig, ArchKind, CentralEngine, ConfigError, Engine, FlexEngine, HierEngine, LiteEngine,
    StealMode,
};
use pxl_cpu::{CpuEngine, SoftwareCosts};
use pxl_model::ExecProfile;
use pxl_sim::config::{CpuCoreParams, MemoryConfig};
use pxl_sim::FaultPlan;

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

/// What a [`SimulationBuilder`] instantiates.
#[derive(Debug, Clone)]
enum Target {
    /// An accelerator (FlexArch or LiteArch) from a validated config.
    Accel(AccelConfig),
    /// The multicore software baseline.
    Cpu {
        cores: usize,
        core: CpuCoreParams,
        memory: MemoryConfig,
        costs: SoftwareCosts,
    },
}

/// One entry point for constructing any execution engine behind the
/// [`Engine`] trait: FlexArch, LiteArch, the centralized-queue ablation,
/// or the CPU baseline.
///
/// This is the bridge from the design flow to the simulator. Benchmark
/// runs come in through [`SimulationBuilder::from_run_spec`]; custom
/// workers hand a raw [`AccelConfig`] (or CPU parameters) to
/// [`SimulationBuilder::from_config`] (or [`SimulationBuilder::cpu`]) to
/// get a boxed engine ready to run workloads.
///
/// # Examples
///
/// ```
/// use pxl_arch::AccelConfig;
/// use pxl_flow::SimulationBuilder;
/// use pxl_model::ExecProfile;
///
/// let engine = SimulationBuilder::from_config(AccelConfig::flex(1, 4), ExecProfile::scalar())
///     .trace(4096)
///     .build()
///     .unwrap();
/// assert_eq!(engine.kind().label(), "flex");
/// assert_eq!(engine.units(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    target: Target,
    profile: ExecProfile,
    trace_capacity: usize,
    telemetry_every: u64,
    faults: Option<FaultPlan>,
}

impl SimulationBuilder {
    /// Targets an accelerator from a raw configuration (FlexArch or
    /// LiteArch according to `config.arch`).
    pub fn from_config(config: AccelConfig, profile: ExecProfile) -> Self {
        SimulationBuilder {
            target: Target::Accel(config),
            profile,
            trace_capacity: 0,
            telemetry_every: 0,
            faults: None,
        }
    }

    /// Targets the software baseline with `cores` Table III cores.
    pub fn cpu(cores: usize, profile: ExecProfile) -> Self {
        SimulationBuilder::cpu_with(
            cores,
            profile,
            CpuCoreParams::micro2018(),
            MemoryConfig::micro2018(),
            SoftwareCosts::default(),
        )
    }

    /// Targets the software baseline with explicit core, memory and runtime
    /// parameters (e.g. the Zedboard's Cortex-A9 configuration).
    pub fn cpu_with(
        cores: usize,
        profile: ExecProfile,
        core: CpuCoreParams,
        memory: MemoryConfig,
        costs: SoftwareCosts,
    ) -> Self {
        SimulationBuilder {
            target: Target::Cpu {
                cores,
                core,
                memory,
                costs,
            },
            profile,
            trace_capacity: 0,
            telemetry_every: 0,
            faults: None,
        }
    }

    /// Enables structured event tracing with a bounded buffer of `capacity`
    /// records per source (zero, the default, disables tracing).
    pub fn trace(&mut self, capacity: usize) -> &mut Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables in-run telemetry sampling every `every_cycles` engine-clock
    /// cycles (zero, the default, records no timeline). Telemetry is pure
    /// observation: enabling it never changes results, metrics or traces.
    pub fn telemetry(&mut self, every_cycles: u64) -> &mut Self {
        self.telemetry_every = every_cycles;
        self
    }

    /// Arms a deterministic fault-injection plan for the run. Only
    /// accelerator targets accept one — the software baseline has no
    /// modelled fault surface — and the plan is validated against the
    /// configuration (PE and tile indices, LiteArch's restricted fault
    /// vocabulary) at [`SimulationBuilder::build`].
    pub fn with_faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = Some(plan);
        self
    }

    /// Validates the target and constructs the engine.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] when the accelerator configuration is
    /// not realizable or the CPU has zero cores.
    pub fn build(&self) -> Result<Box<dyn Engine>, FlowError> {
        match &self.target {
            Target::Accel(config) => {
                let mut config = config.clone();
                config.trace_capacity = self.trace_capacity;
                config.telemetry_every_cycles = self.telemetry_every;
                if let Some(plan) = &self.faults {
                    config.fault_plan = Some(plan.clone());
                }
                // Validate up front so callers get the typed constraint
                // (the engines re-validate, but only report strings).
                config.validate().map_err(FlowError::Config)?;
                // Unwrap AccelError::InvalidConfig so FlowError does not
                // stack a second "invalid configuration:" prefix on it.
                let lift = |e: pxl_arch::AccelError| match e {
                    pxl_arch::AccelError::InvalidConfig(msg) => FlowError::InvalidConfig(msg),
                    other => FlowError::InvalidConfig(other.to_string()),
                };
                // A multi-chip cluster with hierarchical stealing swaps in
                // the HierPolicy engine; flat-stealing clusters and all
                // single-chip configs run the stock engines (the link tier
                // lives in the shared fabric, so flat clusters still pay it).
                let hierarchical = config.cluster.is_some_and(|c| {
                    c.chips > 1 && matches!(c.stealing, StealMode::Hierarchical { .. })
                });
                Ok(match config.arch {
                    ArchKind::Flex if hierarchical => {
                        Box::new(HierEngine::try_new(config, self.profile).map_err(lift)?)
                    }
                    ArchKind::Flex => {
                        Box::new(FlexEngine::try_new(config, self.profile).map_err(lift)?)
                    }
                    ArchKind::Lite => {
                        Box::new(LiteEngine::try_new(config, self.profile).map_err(lift)?)
                    }
                    ArchKind::Central => {
                        Box::new(CentralEngine::try_new(config, self.profile).map_err(lift)?)
                    }
                })
            }
            Target::Cpu {
                cores,
                core,
                memory,
                costs,
            } => {
                if self.faults.is_some() {
                    return Err(FlowError::InvalidConfig(
                        "fault injection requires an accelerator target; \
                         the CPU baseline has no modelled fault surface"
                            .into(),
                    ));
                }
                if *cores == 0 {
                    return Err(FlowError::InvalidConfig(
                        "the CPU baseline needs at least one core".into(),
                    ));
                }
                let mut engine = CpuEngine::with_params(
                    *cores,
                    self.profile,
                    core.clone(),
                    memory.clone(),
                    *costs,
                );
                if self.trace_capacity > 0 {
                    engine.set_trace_capacity(self.trace_capacity);
                }
                if self.telemetry_every > 0 {
                    engine.set_telemetry_every(self.telemetry_every);
                }
                Ok(Box::new(engine))
            }
        }
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
        use pxl_arch::EngineKind;
        let flex = SimulationBuilder::from_config(
            pxl_arch::AccelConfig::flex(1, 4),
            ExecProfile::scalar(),
        )
        .build()
        .unwrap();
        assert_eq!(flex.kind(), EngineKind::Flex);
        assert_eq!(flex.units(), 4);

        let lite = SimulationBuilder::from_config(
            pxl_arch::AccelConfig::lite(1, 2),
            ExecProfile::scalar(),
        )
        .build()
        .unwrap();
        assert_eq!(lite.kind(), EngineKind::Lite);

        let cpu = SimulationBuilder::cpu(2, ExecProfile::scalar())
            .build()
            .unwrap();
        assert_eq!(cpu.kind(), EngineKind::Cpu);
        assert_eq!(cpu.units(), 2);
    }

    #[test]
    fn simulation_builder_validates_before_constructing() {
        let err = SimulationBuilder::from_config(
            pxl_arch::AccelConfig::flex(0, 4),
            ExecProfile::scalar(),
        )
        .build()
        .unwrap_err();
        assert_eq!(err, FlowError::Config(ConfigError::NoTiles));

        let err = SimulationBuilder::cpu(0, ExecProfile::scalar())
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidConfig(_)));
    }

    #[test]
    fn simulation_builder_threads_trace_capacity() {
        use pxl_arch::Workload;
        use pxl_model::{Continuation, Task, TaskContext, TaskTypeId, Worker};

        struct Doubler;
        impl Worker for Doubler {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                ctx.compute(1);
                ctx.send_arg(task.k, task.args[0] * 2);
            }
        }

        let mut engine = SimulationBuilder::from_config(
            pxl_arch::AccelConfig::flex(1, 2),
            ExecProfile::scalar(),
        )
        .trace(1024)
        .build()
        .unwrap();
        let mut worker = Doubler;
        let root = Task::new(TaskTypeId(0), Continuation::host(0), &[21]);
        let out = engine.run(Workload::dynamic(&mut worker, root)).unwrap();
        assert_eq!(out.result, 42);
        assert!(!out.trace.is_empty(), "tracing must be on");
    }
}
