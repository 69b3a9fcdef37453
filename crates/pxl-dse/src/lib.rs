//! Parallel design-space exploration over the ParallelXL architecture
//! template.
//!
//! The template's whole purpose (Section IV of the paper) is that a
//! designer tunes the architecture — FlexArch vs. LiteArch vs. staying on
//! the CPU, tile and PE counts, cache capacity, task-queue and P-Store
//! depths — per workload. The paper's FlexArch-vs-LiteArch study and its
//! Tables IV/V are exactly such an exploration, done by hand. This crate
//! turns "which accelerator config should I build for this workload?" into
//! one call:
//!
//! 1. a declarative [`SearchSpace`]: each architectural knob is an
//!    [`Axis`] (explicit list or range), crossed into [`DesignPoint`]s and
//!    **pruned before simulation** — [`pxl_arch::AccelConfig::validate`]
//!    rejects unrealizable configurations with a typed
//!    [`pxl_arch::ConfigError`], and the `pxl-cost` resource model
//!    ([`pxl_cost::resources::FpgaDevice::max_tiles`]) rejects points that
//!    do not fit the target device, so infeasible points never cost a
//!    simulation;
//! 2. an [`Explorer`] that evaluates feasible points in parallel on the
//!    shared [`pxl_sim::pool`] worker pool, through any [`Evaluate`]
//!    implementation (the harness's evaluator runs full engine simulations
//!    via `pxl-flow`'s `SimulationBuilder`);
//! 3. a **content-addressed [`ResultCache`]**: every (workload, seed,
//!    profile, config, fidelity) key is hashed with the stable
//!    [`pxl_sim::hash`] FNV-1a and persisted as JSONL, so re-runs and
//!    interrupted sweeps resume instantly and only new points simulate;
//! 4. two [`Strategy`]s — exhaustive [`Strategy::Grid`] and a budgeted
//!    [`Strategy::SuccessiveHalving`] that promotes configurations on
//!    short inputs before spending full-size runs;
//! 5. a [`ParetoFront`] over (runtime, energy, LUT/BRAM footprint) per
//!    workload, exported as JSONL plus a markdown report naming the knee
//!    point.
//!
//! Determinism: simulations are seeded and deterministic, candidates are
//! enumerated in a fixed order, the worker pool returns results in input
//! order, and floating-point objectives round-trip exactly through the
//!  cache's JSONL — so a same-seed re-exploration is 100% cache hits and
//! produces a **byte-identical** Pareto front. See `docs/dse.md`.
//!
//! # Examples
//!
//! Exploring a synthetic space with a closure evaluator (the benchmark
//! harness substitutes real simulations):
//!
//! ```
//! use pxl_dse::{Axis, Candidate, Explorer, Fidelity, Measurement, PointArch, SearchSpace};
//!
//! let space = SearchSpace::new()
//!     .benchmarks(["queens"])
//!     .archs([PointArch::Flex])
//!     .tiles(Axis::list([1, 2]))
//!     .pes_per_tile(Axis::list([2, 4]));
//! let eval = |c: &Candidate, _f: Fidelity| -> Result<Measurement, String> {
//!     let units = c.point.units() as u64;
//!     Ok(Measurement {
//!         kernel_ps: 1_000_000 / units,
//!         whole_ps: 1_000_000 / units,
//!         energy_j: 0.001 * units as f64,
//!         lut: 5_000 * units,
//!         bram18: 8 * units,
//!     })
//! };
//! let outcome = Explorer::new(&eval).explore(&space);
//! assert_eq!(outcome.evaluated.len(), 4);
//! let front = &outcome.fronts[0];
//! assert!(!front.points.is_empty());
//! ```

pub mod cache;
pub mod explore;
pub mod pareto;
pub mod space;

pub use cache::{measurement_from_json_value, measurement_to_json_value, Measurement, ResultCache};
pub use explore::{Evaluate, Evaluated, Exploration, Explorer, FailedPoint, Fidelity, Strategy};
pub use pareto::{dominates, FrontPoint, ParetoFront};
pub use space::{
    pe_geometry, Axis, Candidate, DesignPoint, Partition, PointArch, PruneReason, PrunedCandidate,
    SearchSpace,
};
