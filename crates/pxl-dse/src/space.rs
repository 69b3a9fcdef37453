//! Declarative search spaces over the architectural template's knobs, with
//! up-front feasibility pruning.
//!
//! A [`SearchSpace`] crosses one [`Axis`] per knob — architecture, tiles,
//! PEs per tile, cache capacity, task-queue and P-Store entries — into
//! [`DesignPoint`]s, pairs every point with every benchmark into
//! [`Candidate`]s, and [`SearchSpace::partition`] splits the candidates
//! into the feasible set and the pruned set *before* any simulation runs:
//!
//! * [`pxl_arch::AccelConfig::validate`] rejects unrealizable
//!   configurations ([`PruneReason::Config`] carries the typed
//!   [`ConfigError`]);
//! * benchmarks without a LiteArch variant cannot instantiate LiteArch
//!   points ([`PruneReason::NoLiteVariant`]);
//! * when a target [`FpgaDevice`] is set, the `pxl-cost` resource model
//!   rejects points whose tiles do not fit
//!   ([`PruneReason::DoesNotFit`]).

use pxl_arch::{AccelConfig, ArchKind, ClusterConfig, ConfigError, Platform, StealMode};
use pxl_cost::resources::{tile_resources, FpgaDevice, TileResources};

/// The values one architectural knob ranges over.
///
/// # Examples
///
/// ```
/// use pxl_dse::Axis;
///
/// assert_eq!(Axis::list([4, 2, 4]).values(), &[4, 2]);
/// assert_eq!(Axis::range(1, 4).values(), &[1, 2, 3, 4]);
/// assert_eq!(Axis::pow2(4, 32).values(), &[4, 8, 16, 32]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    values: Vec<usize>,
}

impl Axis {
    /// An explicit list of values, kept in the given order (duplicates
    /// dropped).
    pub fn list(values: impl IntoIterator<Item = usize>) -> Self {
        let mut out = Vec::new();
        for v in values {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        Axis { values: out }
    }

    /// Every integer in `lo..=hi`.
    pub fn range(lo: usize, hi: usize) -> Self {
        Axis {
            values: (lo..=hi).collect(),
        }
    }

    /// Powers of two from `lo` to `hi` inclusive (`lo` is rounded up to a
    /// power of two).
    pub fn pow2(lo: usize, hi: usize) -> Self {
        let mut v = lo.max(1).next_power_of_two();
        let mut values = Vec::new();
        while v <= hi {
            values.push(v);
            v *= 2;
        }
        Axis { values }
    }

    /// A single fixed value.
    pub fn fixed(value: usize) -> Self {
        Axis {
            values: vec![value],
        }
    }

    /// The axis's values, in enumeration order.
    pub fn values(&self) -> &[usize] {
        &self.values
    }
}

/// Which execution target a design point instantiates: one of the two tile
/// architectures, or staying on the multicore software baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PointArch {
    /// FlexArch (work stealing, full task parallelism).
    Flex,
    /// LiteArch (static data-parallel rounds).
    Lite,
    /// The centralized shared-queue ablation of FlexArch.
    Central,
    /// The Table III multicore CPU baseline — "build no accelerator".
    Cpu,
}

impl PointArch {
    /// The spec-string label (`flex` / `lite` / `cpu`).
    pub fn label(self) -> &'static str {
        match self {
            PointArch::Flex => "flex",
            PointArch::Lite => "lite",
            PointArch::Central => "central",
            PointArch::Cpu => "cpu",
        }
    }

    /// The accelerator architecture, `None` for the CPU baseline.
    pub fn arch_kind(self) -> Option<ArchKind> {
        match self {
            PointArch::Flex => Some(ArchKind::Flex),
            PointArch::Lite => Some(ArchKind::Lite),
            PointArch::Central => Some(ArchKind::Central),
            PointArch::Cpu => None,
        }
    }
}

impl std::fmt::Display for PointArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The `steal=` term of a clustered point's spec string
/// (`hier:<threshold>` / `flat`).
fn steal_label(stealing: StealMode) -> String {
    match stealing {
        StealMode::Hierarchical { spill_threshold } => format!("hier:{spill_threshold}"),
        StealMode::Flat => "flat".to_owned(),
    }
}

/// One assignment of the template's knobs, on one platform.
///
/// CPU points carry only a core count (`tiles == 1`,
/// `pes_per_tile == cores`); their accelerator-only knobs are normalized to
/// zero so equivalent baseline points collapse to one spec.
///
/// [`DesignPoint::platform`] is [`Platform::Coherent`] (the simulated SoC)
/// unless a point is moved onto the Zedboard prototype with
/// [`DesignPoint::on_platform`]. The coherent platform is left out of
/// [`DesignPoint::spec`] and of the spec JSON, so only Zedboard points
/// carry a platform term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignPoint {
    /// Execution target.
    pub arch: PointArch,
    /// Number of tiles (1 for CPU points).
    pub tiles: usize,
    /// PEs per tile (cores for CPU points).
    pub pes_per_tile: usize,
    /// Tile cache capacity in KiB (0 for CPU points).
    pub cache_kb: usize,
    /// Per-PE task queue entries (0 for CPU points).
    pub task_queue_entries: usize,
    /// Per-tile P-Store entries (0 for CPU points).
    pub pstore_entries: usize,
    /// Multi-chip cluster shape; `None` is the classic single-chip point,
    /// so single-chip spec strings and cache keys are unchanged from before
    /// clusters existed.
    pub cluster: Option<ClusterConfig>,
    /// The platform the point is built on: the coherent SoC or the Zedboard
    /// prototype, which has only single-chip FlexArch and CPU points (see
    /// [`DesignPoint::check_platform`]).
    pub platform: Platform,
}

impl DesignPoint {
    /// An accelerator point with the paper's default capacities — the same
    /// values [`pxl_arch::AccelConfig::flex`] bakes in (32 KiB tile cache,
    /// 1024-entry task queues, 8192-entry P-Store) — so
    /// [`DesignPoint::accel_config`] reproduces a raw
    /// `AccelConfig::flex(tiles, pes)` exactly.
    ///
    /// # Panics
    ///
    /// Panics when `arch` is [`PointArch::Cpu`]; use [`DesignPoint::cpu`].
    pub fn accel(arch: PointArch, tiles: usize, pes_per_tile: usize) -> Self {
        assert!(
            arch != PointArch::Cpu,
            "the CPU baseline has no accelerator knobs; use DesignPoint::cpu"
        );
        DesignPoint {
            arch,
            tiles,
            pes_per_tile,
            cache_kb: 32,
            task_queue_entries: 1024,
            pstore_entries: 8192,
            cluster: None,
            platform: Platform::Coherent,
        }
    }

    /// A CPU-baseline point with `cores` cores.
    pub fn cpu(cores: usize) -> Self {
        DesignPoint {
            arch: PointArch::Cpu,
            tiles: 1,
            pes_per_tile: cores,
            cache_kb: 0,
            task_queue_entries: 0,
            pstore_entries: 0,
            cluster: None,
            platform: Platform::Coherent,
        }
    }

    /// Splits the point's tiles across a multi-chip cluster.
    pub fn clustered(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Moves the point onto `platform`.
    pub fn on_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Checks that the point exists on its platform: the Zedboard prototype
    /// had no LiteArch, no central ablation and no multi-chip cluster.
    ///
    /// # Errors
    ///
    /// What the prototype lacks, as a message.
    pub fn check_platform(&self) -> Result<(), String> {
        match (self.platform, self.arch) {
            (Platform::Coherent, _) | (_, PointArch::Cpu) => Ok(()),
            (_, PointArch::Flex) if self.cluster.is_none() => Ok(()),
            (_, PointArch::Flex) => Err("the Zedboard prototype has no multi-chip cluster".into()),
            (_, arch) => Err(format!(
                "the Zedboard prototype has no {arch} accelerator (flex|cpu)"
            )),
        }
    }

    /// Total execution units: PEs for accelerators, cores for the CPU.
    pub fn units(&self) -> usize {
        self.tiles * self.pes_per_tile
    }

    /// The accelerator configuration this point elaborates to (`None` for
    /// CPU points). The configuration is *not* validated here; feasibility
    /// is [`SearchSpace::partition`]'s job.
    pub fn accel_config(&self) -> Option<AccelConfig> {
        let arch = self.arch.arch_kind()?;
        let mut cfg = match arch {
            ArchKind::Flex => AccelConfig::flex(self.tiles, self.pes_per_tile),
            ArchKind::Lite => AccelConfig::lite(self.tiles, self.pes_per_tile),
            ArchKind::Central => AccelConfig::central(self.tiles, self.pes_per_tile),
        };
        cfg.task_queue_entries = self.task_queue_entries;
        cfg.pstore_entries = self.pstore_entries;
        cfg.memory.accel_l1 = cfg.memory.accel_l1.clone().with_size(self.cache_kb * 1024);
        cfg.cluster = self.cluster;
        cfg.platform = self.platform;
        cfg.clock = self.platform.accel_clock();
        Some(cfg)
    }

    /// The per-PE and per-tile FPGA resource estimate of this point for
    /// `bench` (`None` for CPU points, for Zedboard points, whose stream
    /// buffers the model does not price, and for workers the `pxl-cost`
    /// model does not know). The central ablation keeps FlexArch's tile
    /// hardware (P-Store, full task model) and only swaps the queue
    /// organization, so it costs flex-tile resources.
    pub fn resources(&self, bench: &str) -> Option<TileResources> {
        let coherent = self.platform == Platform::Coherent;
        let kind = self.arch.arch_kind().filter(|_| coherent)?;
        tile_resources(
            bench,
            kind != ArchKind::Lite,
            self.pes_per_tile as u32,
            self.cache_kb * 1024,
        )
    }

    /// The canonical spec string — the point's identity in cache keys,
    /// Pareto reports and JSONL output. A Zedboard point ends in
    /// ` platform=zedboard`; a coherent one has no platform term.
    ///
    /// # Examples
    ///
    /// ```
    /// use pxl_arch::Platform;
    /// use pxl_dse::{DesignPoint, PointArch};
    ///
    /// let p = DesignPoint {
    ///     arch: PointArch::Flex,
    ///     tiles: 4,
    ///     pes_per_tile: 4,
    ///     cache_kb: 32,
    ///     task_queue_entries: 1024,
    ///     pstore_entries: 4096,
    ///     cluster: None,
    ///     platform: Platform::Coherent,
    /// };
    /// assert_eq!(
    ///     p.spec(),
    ///     "arch=flex tiles=4 pes=4 cache_kb=32 queue=1024 pstore=4096"
    /// );
    /// assert_eq!(DesignPoint::cpu(8).spec(), "arch=cpu cores=8");
    /// use pxl_arch::ClusterConfig;
    /// assert_eq!(
    ///     p.clustered(ClusterConfig::new(2)).spec(),
    ///     "arch=flex tiles=4 pes=4 cache_kb=32 queue=1024 pstore=4096 \
    ///      chips=2 link_lat=32 link_occ=8 steal=hier:2"
    /// );
    /// assert_eq!(
    ///     DesignPoint::cpu(2).on_platform(Platform::Zedboard).spec(),
    ///     "arch=cpu cores=2 platform=zedboard"
    /// );
    /// ```
    pub fn spec(&self) -> String {
        let mut out = match self.arch {
            PointArch::Cpu => format!("arch=cpu cores={}", self.units()),
            _ => format!(
                "arch={} tiles={} pes={} cache_kb={} queue={} pstore={}",
                self.arch.label(),
                self.tiles,
                self.pes_per_tile,
                self.cache_kb,
                self.task_queue_entries,
                self.pstore_entries
            ),
        };
        // Cluster and platform terms append only when set, so every
        // single-chip coherent spec string (and the cache keys derived from
        // it) is byte-identical to the format from before either existed.
        // The CPU baseline has no chips to split, so it has no cluster terms.
        if let Some(c) = self.cluster.filter(|_| self.arch != PointArch::Cpu) {
            out.push_str(&format!(
                " chips={} link_lat={} link_occ={} steal={}",
                c.chips,
                c.link_latency_cycles,
                c.link_occupancy_cycles,
                steal_label(c.stealing)
            ));
        }
        if self.platform == Platform::Zedboard {
            out.push_str(" platform=zedboard");
        }
        out
    }
}

/// The paper's tile geometry for a total PE count: up to 4 PEs in a single
/// tile, then 4-PE tiles (the scalability study's shape, also used by the
/// benchmark harness).
///
/// # Panics
///
/// Panics on PE counts above 4 that are not multiples of 4: they have no
/// such geometry, and rounding them down would build a different machine.
pub fn pe_geometry(pes: usize) -> (usize, usize) {
    if pes <= 4 {
        (1, pes)
    } else {
        assert!(
            pes.is_multiple_of(4),
            "PE counts above 4 must be multiples of 4, got {pes}"
        );
        (pes / 4, 4)
    }
}

/// One (benchmark, design point) pair to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Benchmark name.
    pub bench: String,
    /// The design point.
    pub point: DesignPoint,
    /// Resource estimate for accelerator points on known benchmarks.
    pub resources: Option<TileResources>,
}

/// Why a candidate was pruned before simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum PruneReason {
    /// The configuration is not realizable.
    Config(ConfigError),
    /// The benchmark has no LiteArch variant.
    NoLiteVariant,
    /// The point needs more tiles than fit the target device.
    DoesNotFit {
        /// Device name.
        device: &'static str,
        /// Tiles of this size that do fit.
        max_tiles: u32,
    },
}

impl std::fmt::Display for PruneReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PruneReason::Config(e) => write!(f, "invalid configuration: {e}"),
            PruneReason::NoLiteVariant => write!(f, "no LiteArch variant"),
            PruneReason::DoesNotFit { device, max_tiles } => {
                write!(f, "does not fit {device} (max {max_tiles} tiles)")
            }
        }
    }
}

/// A pruned candidate and the constraint it violated.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedCandidate {
    /// The infeasible candidate.
    pub candidate: Candidate,
    /// Which constraint pruned it.
    pub reason: PruneReason,
}

/// The result of feasibility-partitioning a space's candidates.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Candidates worth simulating.
    pub feasible: Vec<Candidate>,
    /// Candidates rejected up front, with reasons.
    pub pruned: Vec<PrunedCandidate>,
}

/// A declarative design space: benchmarks × architectures × one [`Axis`]
/// per knob, with optional device fitting.
///
/// Defaults: FlexArch, 4 tiles, 4 PEs per tile, 32 KiB cache, 1024-entry
/// queues, 4096-entry P-Store, one chip, no device constraint, no
/// benchmarks (set at least one). The P-Store default is half of
/// [`DesignPoint::accel`]'s 8192 entries; both appear in spec strings and
/// cache keys, so changing either would orphan cached results.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    benchmarks: Vec<String>,
    archs: Vec<PointArch>,
    tiles: Axis,
    pes_per_tile: Axis,
    cache_kb: Axis,
    task_queue_entries: Axis,
    pstore_entries: Axis,
    /// Paired (tiles, pes_per_tile) geometries; when set, replaces the
    /// tiles × pes cross product (the scalability-sweep shape).
    geometry_pairs: Option<Vec<(usize, usize)>>,
    device: Option<FpgaDevice>,
    /// Chip counts; values above 1 grow FlexArch points into clusters.
    chips: Axis,
    /// Inter-chip link latency axis (engine cycles per hop).
    link_latency_cycles: Axis,
    /// Inter-chip link occupancy axis (engine cycles per message).
    link_occupancy_cycles: Axis,
    /// Cross-chip stealing disciplines to enumerate for multi-chip points.
    steal_modes: Vec<StealMode>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace::new()
    }
}

impl SearchSpace {
    /// An empty space with the builder defaults.
    pub fn new() -> Self {
        SearchSpace {
            benchmarks: Vec::new(),
            archs: vec![PointArch::Flex],
            tiles: Axis::fixed(4),
            pes_per_tile: Axis::fixed(4),
            cache_kb: Axis::fixed(32),
            task_queue_entries: Axis::fixed(1024),
            pstore_entries: Axis::fixed(4096),
            geometry_pairs: None,
            device: None,
            chips: Axis::fixed(1),
            link_latency_cycles: Axis::fixed(32),
            link_occupancy_cycles: Axis::fixed(8),
            steal_modes: vec![StealMode::Hierarchical { spill_threshold: 2 }],
        }
    }

    /// Sets the benchmarks to explore.
    pub fn benchmarks<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.benchmarks = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the architectures axis (duplicates dropped, order kept).
    pub fn archs(mut self, archs: impl IntoIterator<Item = PointArch>) -> Self {
        let mut out: Vec<PointArch> = Vec::new();
        for a in archs {
            if !out.contains(&a) {
                out.push(a);
            }
        }
        self.archs = out;
        self
    }

    /// Sets the tiles axis.
    pub fn tiles(mut self, axis: Axis) -> Self {
        self.tiles = axis;
        self
    }

    /// Sets the PEs-per-tile axis.
    pub fn pes_per_tile(mut self, axis: Axis) -> Self {
        self.pes_per_tile = axis;
        self
    }

    /// Sets the cache-capacity axis (KiB).
    pub fn cache_kb(mut self, axis: Axis) -> Self {
        self.cache_kb = axis;
        self
    }

    /// Sets the task-queue-entries axis.
    pub fn task_queue_entries(mut self, axis: Axis) -> Self {
        self.task_queue_entries = axis;
        self
    }

    /// Sets the P-Store-entries axis.
    pub fn pstore_entries(mut self, axis: Axis) -> Self {
        self.pstore_entries = axis;
        self
    }

    /// Replaces the tiles × PEs cross product with the paper's scalability
    /// geometry: one `(tiles, pes_per_tile)` pair per total PE count, via
    /// [`pe_geometry`].
    pub fn pe_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.geometry_pairs = Some(counts.into_iter().map(pe_geometry).collect());
        self
    }

    /// Constrains accelerator points to tiles that fit `device` (checked in
    /// [`SearchSpace::partition`]). On clustered points each *chip's* tile
    /// share must fit: a 2-chip 8-tile point needs 4 tiles per device.
    pub fn device(mut self, device: FpgaDevice) -> Self {
        self.device = Some(device);
        self
    }

    /// Sets the chip-count axis. Values above 1 turn FlexArch points into
    /// multi-chip clusters; the value 1 keeps the classic single-chip point.
    pub fn chips(mut self, axis: Axis) -> Self {
        self.chips = axis;
        self
    }

    /// Sets the inter-chip link latency axis (engine cycles per hop).
    pub fn link_latency_cycles(mut self, axis: Axis) -> Self {
        self.link_latency_cycles = axis;
        self
    }

    /// Sets the inter-chip link occupancy axis (engine cycles per message;
    /// the inverse-bandwidth knob).
    pub fn link_occupancy_cycles(mut self, axis: Axis) -> Self {
        self.link_occupancy_cycles = axis;
        self
    }

    /// Sets the cross-chip stealing disciplines to enumerate (duplicates
    /// dropped, order kept). Only multi-chip points expand over this list.
    pub fn steal_modes(mut self, modes: impl IntoIterator<Item = StealMode>) -> Self {
        let mut out: Vec<StealMode> = Vec::new();
        for m in modes {
            if !out.contains(&m) {
                out.push(m);
            }
        }
        self.steal_modes = out;
        self
    }

    /// The benchmarks under exploration.
    pub fn benchmark_names(&self) -> &[String] {
        &self.benchmarks
    }

    /// All design points, in deterministic enumeration order (architecture
    /// outermost, then geometry, cache, queue, P-Store). CPU points are
    /// normalized to a core count and deduplicated.
    pub fn points(&self) -> Vec<DesignPoint> {
        let pairs: Vec<(usize, usize)> = match &self.geometry_pairs {
            Some(p) => p.clone(),
            None => {
                let mut out = Vec::new();
                for &t in self.tiles.values() {
                    for &p in self.pes_per_tile.values() {
                        out.push((t, p));
                    }
                }
                out
            }
        };
        let mut points = Vec::new();
        for &arch in &self.archs {
            if arch == PointArch::Cpu {
                // The baseline has no accelerator knobs: one point per
                // distinct core count.
                for &(tiles, pes) in &pairs {
                    let p = DesignPoint::cpu(tiles * pes);
                    if !points.contains(&p) {
                        points.push(p);
                    }
                }
                continue;
            }
            let clusters = self.cluster_variants(arch);
            for &(tiles, pes_per_tile) in &pairs {
                for &cache_kb in self.cache_kb.values() {
                    for &task_queue_entries in self.task_queue_entries.values() {
                        for &pstore_entries in self.pstore_entries.values() {
                            for &cluster in &clusters {
                                points.push(DesignPoint {
                                    arch,
                                    tiles,
                                    pes_per_tile,
                                    cache_kb,
                                    task_queue_entries,
                                    pstore_entries,
                                    cluster,
                                    platform: Platform::Coherent,
                                });
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// The cluster shapes one base point expands into: `None` for each
    /// chips=1 value, the chips × link × stealing cross product otherwise.
    /// Only FlexArch points cluster (the link tier needs work stealing);
    /// with the default single-chip axes this is just `[None]`, so spaces
    /// that never mention chips enumerate exactly as before.
    fn cluster_variants(&self, arch: PointArch) -> Vec<Option<ClusterConfig>> {
        let mut out: Vec<Option<ClusterConfig>> = Vec::new();
        if arch != PointArch::Flex {
            return vec![None];
        }
        for &chips in self.chips.values() {
            if chips <= 1 {
                if !out.contains(&None) {
                    out.push(None);
                }
                continue;
            }
            for &lat in self.link_latency_cycles.values() {
                for &occ in self.link_occupancy_cycles.values() {
                    for &stealing in &self.steal_modes {
                        let c = Some(ClusterConfig {
                            chips,
                            link_latency_cycles: lat as u64,
                            link_occupancy_cycles: occ as u64,
                            stealing,
                        });
                        if !out.contains(&c) {
                            out.push(c);
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            out.push(None);
        }
        out
    }

    /// All (benchmark, point) candidates: benchmarks outermost, so one
    /// benchmark's candidates are contiguous.
    pub fn candidates(&self) -> Vec<Candidate> {
        let points = self.points();
        let mut out = Vec::with_capacity(self.benchmarks.len() * points.len());
        for bench in &self.benchmarks {
            for point in &points {
                out.push(Candidate {
                    bench: bench.clone(),
                    point: point.clone(),
                    resources: point.resources(bench),
                });
            }
        }
        out
    }

    /// Splits [`SearchSpace::candidates`] into feasible and pruned sets —
    /// the up-front check that keeps infeasible points from ever costing a
    /// simulation.
    pub fn partition(&self) -> Partition {
        let mut partition = Partition::default();
        for candidate in self.candidates() {
            match self.prune_reason(&candidate) {
                None => partition.feasible.push(candidate),
                Some(reason) => partition.pruned.push(PrunedCandidate { candidate, reason }),
            }
        }
        partition
    }

    fn prune_reason(&self, candidate: &Candidate) -> Option<PruneReason> {
        let point = &candidate.point;
        if point.arch == PointArch::Cpu {
            // The baseline only needs at least one core.
            return (point.units() == 0).then_some(PruneReason::Config(ConfigError::NoPes));
        }
        if let Some(cfg) = point.accel_config() {
            if let Err(e) = cfg.validate() {
                return Some(PruneReason::Config(e));
            }
        }
        if point.arch == PointArch::Lite {
            // Known benchmark without a Lite worker variant; unknown
            // workers carry no resource model and are left to the
            // evaluator.
            if let Some((_, lite)) = pxl_cost::resources::worker(&candidate.bench) {
                if lite.is_none() {
                    return Some(PruneReason::NoLiteVariant);
                }
            }
        }
        if let (Some(device), Some(resources)) = (&self.device, &candidate.resources) {
            let max_tiles = device.max_tiles(&resources.tile);
            // Each chip is its own device: fit the per-chip tile share, not
            // the cluster total.
            let chips = point.cluster.map_or(1, |c| c.chips.max(1));
            let per_chip_tiles = point.tiles.div_ceil(chips);
            if per_chip_tiles as u32 > max_tiles {
                return Some(PruneReason::DoesNotFit {
                    device: device.name,
                    max_tiles,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_axis_space() -> SearchSpace {
        SearchSpace::new()
            .benchmarks(["queens"])
            .archs([PointArch::Flex, PointArch::Lite])
            .tiles(Axis::list([1, 2]))
            .cache_kb(Axis::pow2(16, 32))
    }

    #[test]
    fn axes_enumerate_deterministically() {
        assert_eq!(Axis::range(2, 5).values(), &[2, 3, 4, 5]);
        assert_eq!(Axis::pow2(3, 16).values(), &[4, 8, 16]);
        assert_eq!(Axis::pow2(16, 8).values(), &[] as &[usize]);
        assert_eq!(Axis::fixed(7).values(), &[7]);
        assert_eq!(Axis::list([5, 5, 1]).values(), &[5, 1]);
    }

    #[test]
    fn points_are_the_cross_product_in_order() {
        let points = three_axis_space().points();
        assert_eq!(points.len(), 2 * 2 * 2);
        // Arch outermost, then tiles, then cache.
        assert_eq!(
            points[0].spec(),
            DesignPoint {
                arch: PointArch::Flex,
                tiles: 1,
                pes_per_tile: 4,
                cache_kb: 16,
                task_queue_entries: 1024,
                pstore_entries: 4096,
                cluster: None,
                platform: Platform::Coherent,
            }
            .spec()
        );
        assert_eq!(points[1].cache_kb, 32);
        assert_eq!(points[2].tiles, 2);
        assert_eq!(points[4].arch, PointArch::Lite);
        // Enumeration is reproducible.
        assert_eq!(points, three_axis_space().points());
    }

    #[test]
    fn accel_defaults_reproduce_the_raw_flex_config() {
        // Drivers that used to build `AccelConfig::flex(t, p)` directly now
        // route through `DesignPoint::accel`; the elaborated configuration
        // must be indistinguishable or migrated runs would drift.
        for (arch, reference) in [
            (PointArch::Flex, AccelConfig::flex(2, 4)),
            (PointArch::Lite, AccelConfig::lite(2, 4)),
            (PointArch::Central, AccelConfig::central(2, 4)),
        ] {
            let cfg = DesignPoint::accel(arch, 2, 4).accel_config().unwrap();
            assert_eq!(cfg.task_queue_entries, reference.task_queue_entries);
            assert_eq!(cfg.pstore_entries, reference.pstore_entries);
            assert_eq!(
                cfg.memory.accel_l1.size_bytes,
                reference.memory.accel_l1.size_bytes
            );
            assert_eq!(cfg.memory.accel_l1.ways, reference.memory.accel_l1.ways);
            assert_eq!(cfg.arch, reference.arch);
            assert_eq!(cfg.num_pes(), reference.num_pes());
        }
    }

    #[test]
    #[should_panic(expected = "use DesignPoint::cpu")]
    fn accel_rejects_the_cpu_arch() {
        let _ = DesignPoint::accel(PointArch::Cpu, 1, 4);
    }

    #[test]
    fn cpu_points_are_normalized_and_deduped() {
        let space = SearchSpace::new()
            .benchmarks(["uts"])
            .archs([PointArch::Cpu])
            .tiles(Axis::list([1, 2, 4]))
            .pes_per_tile(Axis::list([2, 4]));
        let points = space.points();
        // 1x4 and 2x2 (and 2x4, 4x2) collapse: cores in {2, 4, 8, 16}.
        let cores: Vec<usize> = points.iter().map(|p| p.units()).collect();
        assert_eq!(cores, vec![2, 4, 8, 16]);
        assert!(points.iter().all(|p| p.cache_kb == 0
            && p.task_queue_entries == 0
            && p.pstore_entries == 0
            && p.accel_config().is_none()));
    }

    #[test]
    fn pe_counts_use_the_paper_geometry() {
        assert_eq!(pe_geometry(1), (1, 1));
        assert_eq!(pe_geometry(4), (1, 4));
        assert_eq!(pe_geometry(8), (2, 4));
        assert_eq!(pe_geometry(32), (8, 4));
        let space = SearchSpace::new()
            .benchmarks(["queens"])
            .pe_counts([1, 4, 16]);
        let points = space.points();
        let geo: Vec<(usize, usize)> = points.iter().map(|p| (p.tiles, p.pes_per_tile)).collect();
        assert_eq!(geo, vec![(1, 1), (1, 4), (4, 4)]);
    }

    #[test]
    #[should_panic(expected = "multiples of 4")]
    fn pe_counts_without_a_paper_geometry_are_rejected() {
        let _ = SearchSpace::new().pe_counts([6]);
    }

    #[test]
    fn resources_grow_with_cache_size() {
        // The Fig. 9 sweep: smaller caches use fewer BRAMs.
        let brams: Vec<u32> = [4, 8, 16, 32]
            .iter()
            .map(|&kb| {
                let mut point = DesignPoint::accel(PointArch::Flex, 4, 4);
                point.cache_kb = kb;
                // The simulated machine gets the same cache the estimate
                // prices.
                let l1 = point.accel_config().unwrap().memory.accel_l1;
                assert_eq!(l1.size_bytes, kb * 1024);
                point.resources("nw").unwrap().tile.bram18
            })
            .collect();
        assert!(brams.windows(2).all(|w| w[0] < w[1]), "{brams:?}");
    }

    #[test]
    fn resources_follow_the_tile_architecture() {
        let of = |arch| DesignPoint::accel(arch, 4, 4).resources("stencil2d");
        let flex = of(PointArch::Flex).unwrap();
        assert!(of(PointArch::Lite).unwrap().tile.lut < flex.tile.lut);
        assert_eq!(
            of(PointArch::Central),
            Some(flex),
            "central keeps flex tiles"
        );
        assert_eq!(DesignPoint::cpu(4).resources("stencil2d"), None);
        let zed = DesignPoint::accel(PointArch::Flex, 1, 4).on_platform(Platform::Zedboard);
        assert_eq!(zed.resources("stencil2d"), None, "zedboard is unpriced");
        assert_eq!(
            DesignPoint::accel(PointArch::Flex, 4, 4).resources("my-custom-kernel"),
            None,
            "unknown worker"
        );
    }

    #[test]
    fn partition_prunes_bad_geometry_lite_gaps_and_device_misfits() {
        let space = SearchSpace::new()
            .benchmarks(["queens", "cilksort"])
            .archs([PointArch::Flex, PointArch::Lite])
            .cache_kb(Axis::list([32, 48])); // 48 KiB -> 384 sets, invalid
        let partition = space.partition();
        let reasons: Vec<&PruneReason> = partition.pruned.iter().map(|p| &p.reason).collect();
        // Both benches x both archs get a 48 KiB point pruned; cilksort
        // additionally loses both Lite points (32 KiB pruned as
        // NoLiteVariant; 48 KiB fails validation first).
        assert!(
            reasons
                .iter()
                .filter(|r| matches!(r, PruneReason::Config(ConfigError::BadCacheGeometry { .. })))
                .count()
                >= 4
        );
        assert!(reasons.contains(&&PruneReason::NoLiteVariant));
        assert!(partition.feasible.iter().all(|c| c.point.cache_kb == 32
            && !(c.bench == "cilksort" && c.point.arch == PointArch::Lite)));

        // Device fitting: cilksort's huge worker caps tiles below 8 even on
        // the mainstream device.
        let space = SearchSpace::new()
            .benchmarks(["cilksort"])
            .tiles(Axis::list([1, 8]))
            .device(FpgaDevice::kintex_7k160t());
        let partition = space.partition();
        assert_eq!(partition.feasible.len(), 1);
        assert_eq!(partition.feasible[0].point.tiles, 1);
        assert!(matches!(
            partition.pruned[0].reason,
            PruneReason::DoesNotFit { device, .. } if device == "Kintex XC7K160T"
        ));
    }

    #[test]
    fn prune_reasons_render() {
        assert_eq!(
            PruneReason::Config(ConfigError::NoTiles).to_string(),
            "invalid configuration: accelerator needs at least one tile"
        );
        assert_eq!(
            PruneReason::NoLiteVariant.to_string(),
            "no LiteArch variant"
        );
        assert_eq!(
            PruneReason::DoesNotFit {
                device: "Artix XC7A75T",
                max_tiles: 3
            }
            .to_string(),
            "does not fit Artix XC7A75T (max 3 tiles)"
        );
    }

    #[test]
    fn candidates_carry_resources_for_known_benchmarks() {
        let space = SearchSpace::new().benchmarks(["nw", "mystery"]);
        let candidates = space.candidates();
        assert_eq!(candidates.len(), 2);
        assert!(candidates[0].resources.is_some());
        assert!(candidates[1].resources.is_none(), "unknown worker");
        // Unknown workers stay feasible (no resource model to prune with).
        assert_eq!(space.partition().feasible.len(), 2);
    }
}
