//! The canonical, serializable description of one simulation run.
//!
//! A [`RunSpec`] names everything a run needs — benchmark and input scale,
//! the architectural [`DesignPoint`] on its platform (the simulated SoC or
//! the Zedboard prototype), an optional execution-profile override, trace
//! capacity, and an optional fault plan — as plain data
//! with an exact JSON round trip. It is the one request type every driver
//! (`pxl-bench --bin all/dse/faults/profile`) and the `pxl-serve` job
//! server build runs from, and its [`RunSpec::canonical`] string is the
//! identity used for result-cache keys and request deduplication.
//!
//! # Examples
//!
//! ```
//! use pxl_dse::{DesignPoint, PointArch};
//! use pxl_flow::RunSpec;
//! use pxl_apps::Scale;
//!
//! let spec = RunSpec::new("uts", Scale::Tiny, DesignPoint::accel(PointArch::Flex, 2, 4));
//! let json = spec.to_json();
//! let back = RunSpec::from_json(&json).unwrap();
//! assert_eq!(back, spec);
//! assert_eq!(back.to_json(), json); // byte-exact round trip
//! assert_eq!(
//!     spec.canonical(),
//!     "bench=uts scale=tiny arch=flex tiles=2 pes=4 cache_kb=32 queue=1024 pstore=8192"
//! );
//! ```

use pxl_apps::Scale;
use pxl_arch::{ClusterConfig, Platform, StealMode};
use pxl_dse::{DesignPoint, PointArch};
use pxl_model::ExecProfile;
use pxl_sim::json::{self, FieldError, FieldProblem, JsonValue};
use pxl_sim::{fnv64, FaultPlan};

/// Why a [`RunSpec`] could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The text is not well-formed JSON.
    Json(String),
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but malformed.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "run spec is not valid JSON: {e}"),
            SpecError::Missing(field) => write!(f, "run spec is missing field '{field}'"),
            SpecError::Invalid { field, message } => {
                write!(f, "run spec field '{field}': {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// When a run should checkpoint its simulation state.
///
/// The run pauses at every multiple of `every_cycles` engine-clock cycles
/// of simulated time and serializes an engine snapshot (see
/// `docs/checkpoint.md`). Checkpointing is pure observation: a run with a
/// checkpoint policy produces byte-identical results, metrics and traces
/// to the same run without one, which is why the policy is *excluded* from
/// [`RunSpec::canonical`] — the cache key identifies the simulated work,
/// not how durably it is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint interval in engine-clock cycles of simulated time
    /// (must be nonzero).
    pub every_cycles: u64,
}

impl CheckpointPolicy {
    /// A policy checkpointing every `every_cycles` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every_cycles` is zero — "checkpoint never" is spelled by
    /// omitting the policy, not by a zero interval.
    pub fn every(every_cycles: u64) -> Self {
        assert!(every_cycles > 0, "checkpoint interval must be nonzero");
        CheckpointPolicy { every_cycles }
    }
}

/// When a run should sample in-run telemetry.
///
/// The engine snapshots its metric counters and live gauges at every
/// multiple of `every_cycles` engine-clock cycles of simulated time into a
/// windowed timeline (see `docs/metrics.md`). Like checkpointing, telemetry
/// is pure observation: a run with a telemetry policy produces
/// byte-identical results, metrics and traces to the same run without one,
/// which is why the policy is *excluded* from [`RunSpec::canonical`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryPolicy {
    /// Sampling epoch width in engine-clock cycles of simulated time
    /// (must be nonzero).
    pub every_cycles: u64,
}

impl TelemetryPolicy {
    /// A policy sampling every `every_cycles` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every_cycles` is zero — "sample never" is spelled by
    /// omitting the policy, not by a zero epoch.
    pub fn every(every_cycles: u64) -> Self {
        assert!(every_cycles > 0, "telemetry epoch must be nonzero");
        TelemetryPolicy { every_cycles }
    }
}

/// A serializable simulation request: one benchmark run on one design
/// point. See the [module docs](self) for the role it plays.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Benchmark name (Table II, via `pxl_apps::by_name`).
    pub benchmark: String,
    /// Input scale.
    pub scale: Scale,
    /// The architectural point to run on (accelerator or CPU baseline), on
    /// the simulated SoC or the Zedboard prototype. The JSON `point`
    /// object carries `"platform":"zedboard"` for a Zedboard point and
    /// omits the member for the SoC; the canonical string likewise ends in
    /// `platform=zedboard` only for Zedboard points.
    pub point: DesignPoint,
    /// Execution-profile override; `None` uses the benchmark's own profile.
    pub profile: Option<ExecProfile>,
    /// Trace buffer capacity per source (0 disables tracing).
    pub trace_capacity: usize,
    /// Deterministic fault plan to arm (accelerator points only).
    pub faults: Option<FaultPlan>,
    /// Periodic checkpointing of simulation state; `None` never pauses.
    /// Not part of the run's [`RunSpec::canonical`] identity.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Periodic in-run telemetry sampling; `None` records no timeline.
    /// Not part of the run's [`RunSpec::canonical`] identity.
    pub telemetry: Option<TelemetryPolicy>,
}

impl RunSpec {
    /// A spec with no tracing, no faults, and the benchmark's own profile.
    pub fn new(benchmark: impl Into<String>, scale: Scale, point: DesignPoint) -> Self {
        RunSpec {
            benchmark: benchmark.into(),
            scale,
            point,
            profile: None,
            trace_capacity: 0,
            faults: None,
            checkpoint: None,
            telemetry: None,
        }
    }

    /// Sets the trace buffer capacity.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Arms a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the execution profile.
    pub fn with_profile(mut self, profile: ExecProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Checkpoints simulation state every `every_cycles` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every_cycles` is zero.
    pub fn with_checkpoint(mut self, every_cycles: u64) -> Self {
        self.checkpoint = Some(CheckpointPolicy::every(every_cycles));
        self
    }

    /// Samples in-run telemetry every `every_cycles` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every_cycles` is zero.
    pub fn with_telemetry(mut self, every_cycles: u64) -> Self {
        self.telemetry = Some(TelemetryPolicy::every(every_cycles));
        self
    }

    /// Refuses a spec the energy and FPGA-resource models cannot price.
    /// They describe the simulated SoC; the Zedboard prototype's Cortex-A9
    /// cores and stream buffers have no model, so a Zedboard spec is
    /// refused wherever a [`Measurement`](pxl_dse::Measurement) would be
    /// made.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`](crate::FlowError::InvalidConfig) for a
    /// Zedboard spec.
    pub fn check_priced(&self) -> Result<(), crate::FlowError> {
        if self.point.platform == Platform::Zedboard {
            let why = "the energy and resource models do not price the Zedboard prototype";
            return Err(crate::FlowError::InvalidConfig(why.to_owned()));
        }
        Ok(())
    }

    /// The canonical one-line identity string: benchmark, scale and the
    /// point's spec, plus trace/profile/fault terms only when they differ
    /// from the defaults. Two specs are the same run if and only if their
    /// canonical strings match — this is the result-cache and dedup key.
    ///
    /// The [`CheckpointPolicy`] is deliberately *not* part of the key:
    /// checkpointing is observation, not simulation — a checkpointed run
    /// and an uninterrupted run of the same spec produce the same bytes,
    /// so they may share a cache entry.
    pub fn canonical(&self) -> String {
        let mut out = format!(
            "bench={} scale={} {}",
            self.benchmark,
            self.scale.label(),
            self.point.spec()
        );
        if self.trace_capacity > 0 {
            out.push_str(&format!(" trace={}", self.trace_capacity));
        }
        if let Some(p) = &self.profile {
            out.push_str(&format!(
                " profile={}:{}",
                p.accel_ops_per_cycle, p.cpu_ops_per_cycle
            ));
        }
        if let Some(plan) = &self.faults {
            // The plan's full JSON would bloat the key; its FNV-64 content
            // address identifies it exactly (same scheme as ResultCache).
            out.push_str(&format!(
                " faults=fnv:{:016x}",
                fnv64(plan.to_json().as_bytes())
            ));
        }
        out
    }

    /// The spec as a JSON value (fixed member order; optional members
    /// omitted when unset, so rendering is canonical).
    pub fn to_json_value(&self) -> JsonValue {
        let text = |s: &str| JsonValue::Str(s.to_owned());
        let every = |cycles| json::obj(vec![("every_cycles", json::num(cycles))]);
        let p = &self.point;
        let mut point = match p.arch {
            PointArch::Cpu => vec![
                ("arch", text("cpu")),
                ("cores", json::num(p.units() as u64)),
            ],
            arch => {
                let mut members = vec![
                    ("arch", text(arch.label())),
                    ("tiles", json::num(p.tiles as u64)),
                    ("pes_per_tile", json::num(p.pes_per_tile as u64)),
                    ("cache_kb", json::num(p.cache_kb as u64)),
                    ("task_queue_entries", json::num(p.task_queue_entries as u64)),
                    ("pstore_entries", json::num(p.pstore_entries as u64)),
                ];
                // Optional member, omitted for single-chip points, so every
                // pre-cluster spec's JSON rendering is byte-unchanged.
                if let Some(c) = &p.cluster {
                    let (stealing, spill_threshold) = match c.stealing {
                        StealMode::Hierarchical { spill_threshold } => {
                            ("hierarchical", spill_threshold)
                        }
                        StealMode::Flat => ("flat", 0),
                    };
                    members.push((
                        "cluster",
                        json::obj(vec![
                            ("chips", json::num(c.chips as u64)),
                            ("link_latency_cycles", json::num(c.link_latency_cycles)),
                            ("link_occupancy_cycles", json::num(c.link_occupancy_cycles)),
                            ("stealing", text(stealing)),
                            ("spill_threshold", json::num(spill_threshold.into())),
                        ]),
                    ));
                }
                members
            }
        };
        // Omitted on the coherent SoC, so every spec from before the
        // platform member existed renders byte-unchanged.
        if p.platform == Platform::Zedboard {
            point.push(("platform", text("zedboard")));
        }
        let mut members = vec![
            ("benchmark", text(&self.benchmark)),
            ("scale", text(self.scale.label())),
            ("point", json::obj(point)),
        ];
        if let Some(p) = &self.profile {
            members.push((
                "profile",
                json::obj(vec![
                    (
                        "accel_ops_per_cycle",
                        JsonValue::num_f64(p.accel_ops_per_cycle),
                    ),
                    ("cpu_ops_per_cycle", JsonValue::num_f64(p.cpu_ops_per_cycle)),
                ]),
            ));
        }
        if self.trace_capacity > 0 {
            members.push(("trace_capacity", json::num(self.trace_capacity as u64)));
        }
        if let Some(plan) = &self.faults {
            members.push(("faults", plan.to_json_value()));
        }
        if let Some(cp) = &self.checkpoint {
            members.push(("checkpoint", every(cp.every_cycles)));
        }
        if let Some(tp) = &self.telemetry {
            members.push(("telemetry", every(tp.every_cycles)));
        }
        json::obj(members)
    }

    /// The spec as one canonical JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Rebuilds a spec from [`RunSpec::to_json_value`] output.
    ///
    /// # Errors
    ///
    /// A typed [`SpecError`] naming the missing or malformed field; a
    /// point the Zedboard prototype never had (lite, central, a cluster) is
    /// [`SpecError::Invalid`] on `point.platform`.
    pub fn from_json_value(value: &JsonValue) -> Result<RunSpec, SpecError> {
        let benchmark = json::get_str(value, "benchmark")?.to_owned();
        let scale_label = json::get_str(value, "scale")?;
        let scale = Scale::from_label(scale_label).ok_or_else(|| SpecError::Invalid {
            field: "scale",
            message: format!("unknown scale {scale_label:?} (tiny|small|paper)"),
        })?;
        let point = parse_point(json::get(value, "point")?)?;
        let profile = match json::get_opt(value, "profile") {
            None => None,
            Some(p) => {
                let accel = json::get_f64(p, "accel_ops_per_cycle")?;
                let cpu = json::get_f64(p, "cpu_ops_per_cycle")?;
                if accel <= 0.0 || cpu <= 0.0 {
                    return Err(SpecError::Invalid {
                        field: "profile",
                        message: "ops-per-cycle rates must be positive".to_owned(),
                    });
                }
                Some(ExecProfile::new(accel, cpu))
            }
        };
        let trace_capacity = match json::get_opt(value, "trace_capacity") {
            None => 0,
            Some(t) => json::word_of(t, "trace_capacity")?,
        };
        let faults = json::get_opt(value, "faults")
            .map(FaultPlan::from_json_value)
            .transpose()
            .map_err(|message| SpecError::Invalid {
                field: "faults",
                message,
            })?;
        let checkpoint = every_cycles(
            value,
            "checkpoint",
            "checkpoint interval must be nonzero \
             (omit the member to disable checkpointing)",
        )?
        .map(|every_cycles| CheckpointPolicy { every_cycles });
        let telemetry = every_cycles(
            value,
            "telemetry",
            "telemetry epoch must be nonzero \
             (omit the member to disable sampling)",
        )?
        .map(|every_cycles| TelemetryPolicy { every_cycles });
        Ok(RunSpec {
            benchmark,
            scale,
            point,
            profile,
            trace_capacity,
            faults,
            checkpoint,
            telemetry,
        })
    }

    /// Parses [`RunSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// A typed [`SpecError`] naming the problem.
    pub fn from_json(text: &str) -> Result<RunSpec, SpecError> {
        let value = JsonValue::parse(text).map_err(|e| SpecError::Json(e.to_string()))?;
        RunSpec::from_json_value(&value)
    }
}

/// Maps a field reader's error onto the spec's: an absent member is
/// [`SpecError::Missing`], anything else [`SpecError::Invalid`].
impl From<FieldError> for SpecError {
    fn from(err: FieldError) -> SpecError {
        match err.problem {
            FieldProblem::Missing => SpecError::Missing(err.key),
            _ => SpecError::Invalid {
                field: err.key,
                message: err.to_string(),
            },
        }
    }
}

/// The optional `{"every_cycles": n}` policy member `key`; a zero interval
/// is refused with `zero`.
fn every_cycles(
    value: &JsonValue,
    key: &'static str,
    zero: &str,
) -> Result<Option<u64>, SpecError> {
    let Some(policy) = json::get_opt(value, key) else {
        return Ok(None);
    };
    let invalid = |message: &str| SpecError::Invalid {
        field: key,
        message: message.to_owned(),
    };
    match json::get_word(policy, "every_cycles") {
        Ok(0) => Err(invalid(zero)),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(invalid("expected {\"every_cycles\": <unsigned integer>}")),
    }
}

fn parse_point(value: &JsonValue) -> Result<DesignPoint, SpecError> {
    let point = match json::get_str(value, "arch")? {
        "cpu" => DesignPoint::cpu(json::get_word(value, "cores")?),
        arch => DesignPoint {
            arch: match arch {
                "flex" => PointArch::Flex,
                "lite" => PointArch::Lite,
                "central" => PointArch::Central,
                other => {
                    return Err(SpecError::Invalid {
                        field: "point.arch",
                        message: format!("unknown arch {other:?} (flex|lite|central|cpu)"),
                    })
                }
            },
            tiles: json::get_word(value, "tiles")?,
            pes_per_tile: json::get_word(value, "pes_per_tile")?,
            cache_kb: json::get_word(value, "cache_kb")?,
            task_queue_entries: json::get_word(value, "task_queue_entries")?,
            pstore_entries: json::get_word(value, "pstore_entries")?,
            cluster: json::get_opt(value, "cluster")
                .map(parse_cluster)
                .transpose()?,
            platform: Platform::Coherent,
        },
    };
    let invalid = |message: String| SpecError::Invalid {
        field: "point.platform",
        message,
    };
    let point = match json::get_opt(value, "platform").map(JsonValue::as_str) {
        None => point,
        Some(Some("zedboard")) => point.on_platform(Platform::Zedboard),
        Some(_) => {
            let expected = "expected \"zedboard\" (omit the member for the coherent SoC)";
            return Err(invalid(expected.to_owned()));
        }
    };
    point.check_platform().map_err(invalid)?;
    Ok(point)
}

fn parse_cluster(value: &JsonValue) -> Result<ClusterConfig, SpecError> {
    let chips = json::get_word(value, "chips")?;
    if chips < 2 {
        return Err(SpecError::Invalid {
            field: "cluster",
            message: "a cluster needs at least 2 chips (omit the member for one chip)".to_owned(),
        });
    }
    let stealing = match json::get_str(value, "stealing")? {
        "flat" => StealMode::Flat,
        "hierarchical" => StealMode::Hierarchical {
            spill_threshold: json::get_word(value, "spill_threshold")?,
        },
        other => {
            return Err(SpecError::Invalid {
                field: "stealing",
                message: format!("unknown stealing mode {other:?} (hierarchical|flat)"),
            });
        }
    };
    Ok(ClusterConfig {
        chips,
        link_latency_cycles: json::get_word(value, "link_latency_cycles")?,
        link_occupancy_cycles: json::get_word(value, "link_occupancy_cycles")?,
        stealing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_sim::{NetClass, Time};

    fn full_spec() -> RunSpec {
        RunSpec::new(
            "uts",
            Scale::Small,
            DesignPoint::accel(PointArch::Flex, 2, 4),
        )
        .with_trace(1 << 18)
        .with_profile(ExecProfile::new(0.75, 1.25))
        .with_faults(
            FaultPlan::new(0xD1E)
                .kill_pe(3, Time::from_us(2))
                .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 500, 6),
        )
        .with_checkpoint(250_000)
        .with_telemetry(50_000)
    }

    #[test]
    fn json_round_trip_is_exact() {
        for spec in [
            RunSpec::new("queens", Scale::Tiny, DesignPoint::cpu(4)),
            RunSpec::new(
                "nw",
                Scale::Paper,
                DesignPoint::accel(PointArch::Lite, 1, 4),
            ),
            full_spec(),
            RunSpec::new(
                "stencil2d",
                Scale::Small,
                DesignPoint::accel(PointArch::Flex, 2, 4).on_platform(Platform::Zedboard),
            )
            .with_trace(1 << 12),
            RunSpec::new(
                "uts",
                Scale::Tiny,
                DesignPoint::cpu(2).on_platform(Platform::Zedboard),
            ),
        ] {
            let json = spec.to_json();
            let back = RunSpec::from_json(&json).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.to_json(), json, "canonical rendering is stable");
        }
    }

    #[test]
    fn canonical_strings_identify_runs() {
        let base = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 2, 4),
        );
        assert_eq!(
            base.canonical(),
            "bench=uts scale=tiny arch=flex tiles=2 pes=4 cache_kb=32 queue=1024 pstore=8192"
        );
        assert_eq!(
            RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(8)).canonical(),
            "bench=uts scale=tiny arch=cpu cores=8"
        );
        assert_eq!(
            RunSpec::new(
                "uts",
                Scale::Tiny,
                base.point.clone().on_platform(Platform::Zedboard)
            )
            .canonical(),
            "bench=uts scale=tiny arch=flex tiles=2 pes=4 cache_kb=32 queue=1024 pstore=8192 \
             platform=zedboard"
        );
        // Every knob that changes the run changes the key.
        let variants = [
            base.clone().with_trace(1024),
            base.clone().with_profile(ExecProfile::new(1.0, 2.0)),
            base.clone()
                .with_faults(FaultPlan::new(1).kill_pe(0, Time::from_us(1))),
            RunSpec::new("uts", Scale::Small, base.point.clone()),
        ];
        for v in &variants {
            assert_ne!(v.canonical(), base.canonical(), "{}", v.canonical());
        }
        // And different fault plans get different keys.
        let a = base
            .clone()
            .with_faults(FaultPlan::new(1).kill_pe(0, Time::from_us(1)));
        let b = base
            .clone()
            .with_faults(FaultPlan::new(2).kill_pe(0, Time::from_us(1)));
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn parse_errors_are_typed() {
        assert!(matches!(
            RunSpec::from_json("nope").unwrap_err(),
            SpecError::Json(_)
        ));
        assert_eq!(
            RunSpec::from_json("{}").unwrap_err(),
            SpecError::Missing("benchmark")
        );
        assert_eq!(
            RunSpec::from_json(r#"{"benchmark":"uts"}"#).unwrap_err(),
            SpecError::Missing("scale")
        );
        assert!(matches!(
            RunSpec::from_json(r#"{"benchmark":"uts","scale":"huge"}"#).unwrap_err(),
            SpecError::Invalid { field: "scale", .. }
        ));
        assert_eq!(
            RunSpec::from_json(r#"{"benchmark":"uts","scale":"tiny"}"#).unwrap_err(),
            SpecError::Missing("point")
        );
        assert!(matches!(
            RunSpec::from_json(r#"{"benchmark":"uts","scale":"tiny","point":{"arch":"warp"}}"#)
                .unwrap_err(),
            SpecError::Invalid {
                field: "point.arch",
                ..
            }
        ));
        assert_eq!(
            RunSpec::from_json(r#"{"benchmark":"uts","scale":"tiny","point":{"arch":"flex"}}"#)
                .unwrap_err(),
            SpecError::Missing("tiles")
        );
        let err = RunSpec::from_json(
            r#"{"benchmark":"uts","scale":"tiny","point":{"arch":"cpu","cores":2},"faults":{"seed":1}}"#,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Invalid {
                    field: "faults",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("faults"));
        // The Zedboard prototype had only single-chip FlexArch and the CPU.
        let zed = |point: DesignPoint| {
            RunSpec::new("uts", Scale::Tiny, point.on_platform(Platform::Zedboard)).to_json()
        };
        for json in [
            zed(DesignPoint::accel(PointArch::Lite, 1, 4)),
            zed(DesignPoint::accel(PointArch::Central, 1, 4)),
            zed(DesignPoint::accel(PointArch::Flex, 2, 4).clustered(ClusterConfig::new(2))),
            zed(DesignPoint::cpu(2)).replace("zedboard", "fpga"),
        ] {
            let err = RunSpec::from_json(&json).unwrap_err();
            assert!(
                matches!(
                    err,
                    SpecError::Invalid {
                        field: "point.platform",
                        ..
                    }
                ),
                "{json}: {err}"
            );
        }
    }

    #[test]
    fn checkpoint_policy_round_trips_but_never_changes_the_key() {
        let base = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 2, 4),
        );
        let ck = base.clone().with_checkpoint(100_000);
        // Serialization distinguishes them...
        assert_ne!(base.to_json(), ck.to_json());
        let back = RunSpec::from_json(&ck.to_json()).unwrap();
        assert_eq!(back.checkpoint, Some(CheckpointPolicy::every(100_000)));
        // ...but the cache identity does not: checkpointing is observation.
        assert_eq!(base.canonical(), ck.canonical());

        // A zero interval is rejected at parse time with a typed error.
        let zero = ck.to_json().replace("100000", "0");
        assert!(matches!(
            RunSpec::from_json(&zero).unwrap_err(),
            SpecError::Invalid {
                field: "checkpoint",
                ..
            }
        ));
    }

    #[test]
    fn telemetry_policy_round_trips_but_never_changes_the_key() {
        let base = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 2, 4),
        );
        let tl = base.clone().with_telemetry(25_000);
        // Serialization distinguishes them...
        assert_ne!(base.to_json(), tl.to_json());
        let back = RunSpec::from_json(&tl.to_json()).unwrap();
        assert_eq!(back.telemetry, Some(TelemetryPolicy::every(25_000)));
        // ...but the cache identity does not: telemetry is observation.
        assert_eq!(base.canonical(), tl.canonical());

        // A zero epoch is rejected at parse time with a typed error.
        let zero = tl.to_json().replace("25000", "0");
        assert!(matches!(
            RunSpec::from_json(&zero).unwrap_err(),
            SpecError::Invalid {
                field: "telemetry",
                ..
            }
        ));
    }

    #[test]
    fn profile_floats_survive_exactly() {
        let spec = RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(2))
            .with_profile(ExecProfile::new(0.6000000000000001, 1.0 / 3.0));
        let back = RunSpec::from_json(&spec.to_json()).unwrap();
        let (a, b) = (back.profile.unwrap(), spec.profile.unwrap());
        assert_eq!(
            a.accel_ops_per_cycle.to_bits(),
            b.accel_ops_per_cycle.to_bits()
        );
        assert_eq!(a.cpu_ops_per_cycle.to_bits(), b.cpu_ops_per_cycle.to_bits());
    }
}
