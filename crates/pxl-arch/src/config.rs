//! Accelerator configuration: architecture choice, geometry, and
//! microarchitectural costs.
//!
//! These are the knobs the paper's architectural template exposes
//! (Section IV-A): "the designer can configure the architecture (FlexArch
//! or LiteArch), the number of tiles and PEs, the number of entries of the
//! task queue and P-Store, as well as the cache size."

use pxl_mem::zedboard::zedboard_accel_clock;
use pxl_sim::config::MemoryConfig;
use pxl_sim::{Clock, FaultPlan};

/// Which tile architecture to instantiate (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Full continuation-passing support with work-stealing scheduling.
    Flex,
    /// Data-parallel only, with static task distribution.
    Lite,
    /// FlexArch's task model over one global ready queue at the host
    /// interface — the centralized strawman the distributed TMUs replace.
    Central,
}

impl ArchKind {
    /// Short display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::Flex => "FlexArch",
            ArchKind::Lite => "LiteArch",
            ArchKind::Central => "CentralArch",
        }
    }

    /// The feature matrix row of Table I:
    /// (data-parallel, fork-join, general task-parallel, scheduling).
    pub fn features(self) -> (bool, bool, bool, &'static str) {
        match self {
            ArchKind::Flex => (true, true, true, "Work-Stealing"),
            ArchKind::Lite => (true, false, false, "Static Distribution"),
            ArchKind::Central => (true, true, true, "Shared Queue"),
        }
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a configuration is not realizable, as reported by
/// [`AccelConfig::validate`].
///
/// Typed variants let callers — most importantly the `pxl-dse` feasibility
/// pruner — report *which* constraint a design point violates instead of
/// pattern-matching on message strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `tiles == 0`.
    NoTiles,
    /// `pes_per_tile == 0`.
    NoPes,
    /// A task queue with fewer than two entries cannot hold a task while a
    /// steal is in flight.
    TaskQueueTooSmall {
        /// The rejected capacity.
        entries: usize,
    },
    /// FlexArch with `pstore_entries == 0`.
    EmptyPStore,
    /// More tiles than the continuation encoding can address.
    TooManyTiles {
        /// The rejected tile count.
        tiles: usize,
    },
    /// More tiles than the coherent memory system has L1 ports (one per
    /// tile, at most [`pxl_mem::MAX_L1_PORTS`]).
    TooManyPorts {
        /// The rejected tile count.
        tiles: usize,
    },
    /// The quiescence watchdog window is zero.
    ZeroWatchdogWindow,
    /// The tile cache capacity does not form an integral, power-of-two
    /// number of sets with the configured associativity and line size.
    BadCacheGeometry {
        /// The rejected capacity in bytes.
        bytes: usize,
    },
    /// The armed fault plan is inconsistent with the geometry.
    FaultPlan(String),
    /// The fault plan uses fault kinds LiteArch does not model.
    LiteFaultVocabulary,
    /// Heterogeneous type masks do not cover every PE slot.
    TypeMaskCount {
        /// PE slots per tile.
        expected: usize,
        /// Masks supplied.
        got: usize,
    },
    /// A heterogeneous PE slot supports no task type at all.
    EmptyTypeMask,
    /// A cluster with `chips == 0`.
    NoChips,
    /// The tile count does not split evenly across the cluster's chips.
    ClusterTileSplit {
        /// Tiles in the accelerator.
        tiles: usize,
        /// Chips in the cluster.
        chips: usize,
    },
    /// A multi-chip cluster on an architecture without work stealing
    /// (LiteArch's static rounds and CentralArch's single global queue
    /// have no distributed scheduler to make topology-aware).
    ClusterNeedsStealing,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoTiles => write!(f, "accelerator needs at least one tile"),
            ConfigError::NoPes => write!(f, "tiles need at least one PE"),
            ConfigError::TaskQueueTooSmall { entries } => {
                write!(f, "task queues need at least two entries (got {entries})")
            }
            ConfigError::EmptyPStore => write!(f, "FlexArch needs a non-empty P-Store"),
            ConfigError::TooManyTiles { tiles } => {
                write!(
                    f,
                    "tile index must fit the continuation encoding ({tiles} tiles)"
                )
            }
            ConfigError::TooManyPorts { tiles } => write!(
                f,
                "{tiles} tiles need {tiles} L1 ports; the coherent memory system has at most {}",
                pxl_mem::MAX_L1_PORTS
            ),
            ConfigError::ZeroWatchdogWindow => {
                write!(f, "the quiescence watchdog needs a nonzero window")
            }
            ConfigError::BadCacheGeometry { bytes } => write!(
                f,
                "cache size {bytes} does not form a power-of-two number of sets"
            ),
            ConfigError::FaultPlan(msg) => write!(f, "fault plan: {msg}"),
            ConfigError::LiteFaultVocabulary => write!(
                f,
                "LiteArch has no routed networks or P-Store; its fault plans \
                 support only PE death and PE stalls"
            ),
            ConfigError::TypeMaskCount { expected, got } => write!(
                f,
                "heterogeneous config needs one type mask per PE slot ({got} != {expected})"
            ),
            ConfigError::EmptyTypeMask => {
                write!(f, "every heterogeneous PE slot must support some task type")
            }
            ConfigError::NoChips => write!(f, "a cluster needs at least one chip"),
            ConfigError::ClusterTileSplit { tiles, chips } => {
                write!(f, "{tiles} tiles do not split evenly across {chips} chips")
            }
            ConfigError::ClusterNeedsStealing => write!(
                f,
                "multi-chip clusters need a work-stealing architecture (FlexArch)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How thieves treat the chip boundary when picking steal victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealMode {
    /// Topology-aware: steal intra-chip first, spill to inter-chip victims
    /// only after `spill_threshold` consecutive failed attempts.
    Hierarchical {
        /// Consecutive failed acquisitions before a thief widens its victim
        /// pool from its own chip to the whole cluster.
        spill_threshold: u32,
    },
    /// Topology-blind baseline: uniform victim selection over every PE in
    /// the cluster, paying the inter-chip link on every remote pick.
    Flat,
}

/// Multi-chip cluster layered above one [`AccelConfig`]: the chip count,
/// the tile-to-chip partition, and the modeled inter-chip link tier.
///
/// A cluster splits the accelerator's `tiles` into `chips` equal contiguous
/// blocks (the partitioning pass — see [`ClusterConfig::partition`]). Tiles
/// within a chip keep the single-chip crossbar costs; any message between
/// chips (steal requests/replies, argument sends, routed tasks) additionally
/// pays `link_latency_cycles` for its one link hop and serializes on the
/// directed link's bounded bandwidth (`link_occupancy_cycles` per message).
/// A 1-chip cluster is exactly the stock single-chip accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of chips; the accelerator's tiles split evenly across them.
    pub chips: usize,
    /// One-way latency of the link between two chips, in accelerator
    /// cycles.
    pub link_latency_cycles: u64,
    /// Serialization occupancy of one message on a directed link — the
    /// inverse of link bandwidth. Messages queued behind a busy link wait;
    /// zero models an infinitely wide link.
    pub link_occupancy_cycles: u64,
    /// Victim-selection strategy across the chip boundary.
    pub stealing: StealMode,
}

impl ClusterConfig {
    /// A cluster of `chips` chips with the default link model: every chip
    /// pair one 32-cycle hop apart (a serdes crossing is an order of
    /// magnitude above the 4-cycle on-chip crossbar hop), an 8-cycle
    /// per-message serialization window, and hierarchical stealing that
    /// spills after two failed intra-chip attempts.
    pub fn new(chips: usize) -> Self {
        ClusterConfig {
            chips,
            link_latency_cycles: 32,
            link_occupancy_cycles: 8,
            stealing: StealMode::Hierarchical { spill_threshold: 2 },
        }
    }

    /// Switches to the flat (topology-blind) stealing baseline.
    pub fn flat(mut self) -> Self {
        self.stealing = StealMode::Flat;
        self
    }

    /// Switches to hierarchical stealing with the given spill threshold.
    pub fn hierarchical(mut self, spill_threshold: u32) -> Self {
        self.stealing = StealMode::Hierarchical { spill_threshold };
        self
    }

    /// Overrides the link latency and per-message occupancy (both in
    /// accelerator cycles).
    pub fn with_link(mut self, latency_cycles: u64, occupancy_cycles: u64) -> Self {
        self.link_latency_cycles = latency_cycles;
        self.link_occupancy_cycles = occupancy_cycles;
        self
    }

    /// The partitioning pass: assigns each of `tiles` tiles to a chip in
    /// equal contiguous blocks, returning the tile-indexed chip map.
    /// Contiguous blocks keep a tile's intra-chip neighbours exactly the
    /// tiles the single-chip crossbar already made cheap.
    pub fn partition(&self, tiles: usize) -> Vec<usize> {
        let per_chip = tiles / self.chips.max(1);
        (0..tiles).map(|t| t / per_chip.max(1)).collect()
    }
}

/// The platform a design runs on: which memory path backs the PEs, which
/// clock drives the fabric and, for the software baseline, which cores run
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// The future SoC of Table III: coherent per-tile L1 caches over the
    /// shared L2, a 200 MHz fabric and four-issue out-of-order cores.
    Coherent,
    /// The Zedboard prototype of Section V-B: per-PE stream buffers over a
    /// single ACP port, a 125 MHz fabric and two Cortex-A9 cores.
    Zedboard,
}

impl Platform {
    /// The accelerator logic clock on this platform.
    pub fn accel_clock(self) -> Clock {
        match self {
            Platform::Coherent => Clock::mhz200("accel"),
            Platform::Zedboard => zedboard_accel_clock(),
        }
    }
}

/// Cycle costs of the hardware task-management operations, in accelerator
/// (200 MHz) cycles.
///
/// The defaults encode the paper's central efficiency claim: "a work
/// stealing operation may require hundreds of instructions in software, but
/// only needs several cycles on the accelerator" (Section V-D1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchCosts {
    /// Dequeue a task from the local queue tail into the worker.
    pub dispatch_cycles: u64,
    /// Enqueue a spawned task at the local queue tail.
    pub spawn_cycles: u64,
    /// Issue an argument message (router + P-Store update, local tile).
    pub send_arg_cycles: u64,
    /// Allocate a P-Store entry and return a continuation.
    pub successor_cycles: u64,
    /// One-way latency of a message on the inter-tile crossbar.
    pub net_hop_cycles: u64,
    /// Victim-side service time of a steal request (head dequeue).
    pub steal_service_cycles: u64,
    /// Thief-side backoff between failed steal attempts.
    pub steal_backoff_cycles: u64,
    /// Host interface dispatch cost per task (LiteArch static distribution).
    pub if_dispatch_cycles: u64,
    /// Host-side cost to set up and launch one LiteArch round.
    pub round_sync_cycles: u64,
    /// Port occupancy of one access to CentralArch's global ready queue;
    /// concurrent accesses serialize behind it.
    pub central_queue_cycles: u64,
}

impl Default for ArchCosts {
    fn default() -> Self {
        ArchCosts {
            dispatch_cycles: 1,
            spawn_cycles: 1,
            send_arg_cycles: 2,
            successor_cycles: 2,
            net_hop_cycles: 4,
            steal_service_cycles: 2,
            steal_backoff_cycles: 4,
            if_dispatch_cycles: 2,
            round_sync_cycles: 200,
            central_queue_cycles: 2,
        }
    }
}

/// Which end of the local deque the worker operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalOrder {
    /// Depth-first (the architecture's default; best task locality).
    Lifo,
    /// Breadth-first (ablation).
    Fifo,
}

/// Which end of the victim's deque a thief steals from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealEnd {
    /// The oldest task — closest to the root of the spawn tree, so each
    /// steal transfers a large chunk of work (the default).
    Head,
    /// The newest task (ablation).
    Tail,
}

/// How a thief picks its victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimSelect {
    /// Random via the TMU's 16-bit LFSR (the default).
    Lfsr,
    /// Cyclic scan (ablation).
    RoundRobin,
}

/// Scheduling-policy knobs for ablation studies of the paper's design
/// choices (Section II-C / III-A). The defaults are the published
/// architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedPolicy {
    /// Worker-side deque discipline.
    pub local_order: LocalOrder,
    /// Thief-side steal end.
    pub steal_end: StealEnd,
    /// Victim selection.
    pub victim_select: VictimSelect,
    /// Route a task made ready by its last argument back to the producing
    /// PE (required for the space bound).
    pub greedy_routing: bool,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy {
            local_order: LocalOrder::Lifo,
            steal_end: StealEnd::Head,
            victim_select: VictimSelect::Lfsr,
            greedy_routing: true,
        }
    }
}

/// Full configuration of one accelerator instance.
///
/// # Examples
///
/// ```
/// use pxl_arch::{AccelConfig, ArchKind};
///
/// let cfg = AccelConfig::flex(4, 4); // 4 tiles x 4 PEs = 16 PEs
/// assert_eq!(cfg.num_pes(), 16);
/// assert_eq!(cfg.tile_of_pe(5), 1);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccelConfig {
    /// FlexArch or LiteArch.
    pub arch: ArchKind,
    /// Number of tiles.
    pub tiles: usize,
    /// PEs per tile (the paper's experiments use 4).
    pub pes_per_tile: usize,
    /// Capacity of each PE's task queue.
    pub task_queue_entries: usize,
    /// Capacity of each tile's P-Store.
    pub pstore_entries: usize,
    /// Microarchitectural costs.
    pub costs: ArchCosts,
    /// Scheduling-policy knobs (defaults = the published architecture).
    pub policy: SchedPolicy,
    /// Heterogeneous workers (the Section III-A extension): when set, one
    /// bitmask per PE slot within a tile, bit `i` meaning the slot's worker
    /// can process [`pxl_model::TaskTypeId`] `i`. `None` = homogeneous
    /// workers (the paper's default).
    pub pe_task_types: Option<Vec<u64>>,
    /// Accelerator logic clock.
    pub clock: Clock,
    /// Memory system parameters (per-tile L1, shared L2, DRAM).
    pub memory: MemoryConfig,
    /// The platform whose memory path backs the PEs.
    pub platform: Platform,
    /// Simulated-time safety limit; runs exceeding it abort with an error.
    pub max_sim_time_us: u64,
    /// Structured event-trace buffer capacity in records; zero (the
    /// default) disables tracing entirely.
    pub trace_capacity: usize,
    /// Telemetry epoch width in accelerator cycles; zero (the default)
    /// disables in-run telemetry sampling entirely.
    pub telemetry_every_cycles: u64,
    /// Deterministic fault schedule to arm against this run (`None` = the
    /// happy path).
    pub fault_plan: Option<FaultPlan>,
    /// Accelerator cycles without forward progress (task completion or
    /// argument delivery) before the quiescence watchdog declares the run
    /// stalled while work is still outstanding.
    pub watchdog_quiescence_cycles: u64,
    /// Multi-chip cluster layered above this accelerator (`None` = one
    /// chip, the paper's configuration). A present 1-chip cluster behaves
    /// byte-identically to `None`.
    pub cluster: Option<ClusterConfig>,
}

impl AccelConfig {
    /// A FlexArch accelerator with the paper's defaults (Table III platform,
    /// 4 PEs per tile).
    pub fn flex(tiles: usize, pes_per_tile: usize) -> Self {
        AccelConfig {
            arch: ArchKind::Flex,
            tiles,
            pes_per_tile,
            task_queue_entries: 1024,
            pstore_entries: 8192,
            costs: ArchCosts::default(),
            policy: SchedPolicy::default(),
            pe_task_types: None,
            clock: Platform::Coherent.accel_clock(),
            memory: MemoryConfig::micro2018(),
            platform: Platform::Coherent,
            max_sim_time_us: 2_000_000,
            trace_capacity: 0,
            telemetry_every_cycles: 0,
            fault_plan: None,
            watchdog_quiescence_cycles: 1_000_000,
            cluster: None,
        }
    }

    /// A LiteArch accelerator with the paper's defaults.
    pub fn lite(tiles: usize, pes_per_tile: usize) -> Self {
        AccelConfig {
            arch: ArchKind::Lite,
            ..AccelConfig::flex(tiles, pes_per_tile)
        }
    }

    /// A centralized shared-queue accelerator: FlexArch's task model with
    /// one global ready queue instead of distributed work stealing.
    pub fn central(tiles: usize, pes_per_tile: usize) -> Self {
        AccelConfig {
            arch: ArchKind::Central,
            ..AccelConfig::flex(tiles, pes_per_tile)
        }
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.tiles * self.pes_per_tile
    }

    /// Tile index that PE `pe` belongs to.
    pub fn tile_of_pe(&self, pe: usize) -> usize {
        pe / self.pes_per_tile
    }

    /// Number of chips in the cluster (1 without a cluster config).
    pub fn chips(&self) -> usize {
        self.cluster.map_or(1, |c| c.chips.max(1))
    }

    /// Tiles per chip under the cluster's contiguous partition.
    pub fn tiles_per_chip(&self) -> usize {
        self.tiles / self.chips()
    }

    /// Chip index that tile `tile` is partitioned onto.
    pub fn chip_of_tile(&self, tile: usize) -> usize {
        tile / self.tiles_per_chip().max(1)
    }

    /// Chip index that PE `pe` is partitioned onto.
    pub fn chip_of_pe(&self, pe: usize) -> usize {
        self.chip_of_tile(self.tile_of_pe(pe))
    }

    /// Whether PE `pe`'s worker can process task type `ty` (always true for
    /// homogeneous workers).
    pub fn pe_supports(&self, pe: usize, ty: pxl_model::TaskTypeId) -> bool {
        match &self.pe_task_types {
            None => true,
            Some(masks) => {
                let slot = pe % self.pes_per_tile;
                ty.0 < 64 && masks[slot] & (1u64 << ty.0) != 0
            }
        }
    }

    /// Checks that the configuration is realizable.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tiles == 0 {
            return Err(ConfigError::NoTiles);
        }
        if self.pes_per_tile == 0 {
            return Err(ConfigError::NoPes);
        }
        if self.task_queue_entries < 2 {
            return Err(ConfigError::TaskQueueTooSmall {
                entries: self.task_queue_entries,
            });
        }
        if self.arch != ArchKind::Lite && self.pstore_entries < 1 {
            return Err(ConfigError::EmptyPStore);
        }
        if self.tiles > u16::MAX as usize {
            return Err(ConfigError::TooManyTiles { tiles: self.tiles });
        }
        if self.platform == Platform::Coherent && self.tiles > pxl_mem::MAX_L1_PORTS {
            return Err(ConfigError::TooManyPorts { tiles: self.tiles });
        }
        if self.watchdog_quiescence_cycles == 0 {
            return Err(ConfigError::ZeroWatchdogWindow);
        }
        // The tile cache must be realizable as an integral, power-of-two
        // number of sets (this check lived in the design flow's builder
        // before pxl-dse needed it for pruning; it now has one home).
        let l1 = &self.memory.accel_l1;
        let set_bytes = l1.ways * l1.line_bytes;
        if set_bytes == 0
            || !l1.size_bytes.is_multiple_of(set_bytes)
            || !(l1.size_bytes / set_bytes).is_power_of_two()
        {
            return Err(ConfigError::BadCacheGeometry {
                bytes: l1.size_bytes,
            });
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.num_pes(), self.tiles)
                .map_err(ConfigError::FaultPlan)?;
            if self.arch == ArchKind::Lite {
                let unsupported = plan.specs().iter().any(|s| {
                    matches!(
                        s.kind,
                        pxl_sim::FaultKind::NetDrop { .. }
                            | pxl_sim::FaultKind::NetDup { .. }
                            | pxl_sim::FaultKind::PStoreCorrupt { .. }
                    )
                });
                if unsupported {
                    return Err(ConfigError::LiteFaultVocabulary);
                }
            }
        }
        if let Some(cluster) = &self.cluster {
            if cluster.chips == 0 {
                return Err(ConfigError::NoChips);
            }
            if !self.tiles.is_multiple_of(cluster.chips) {
                return Err(ConfigError::ClusterTileSplit {
                    tiles: self.tiles,
                    chips: cluster.chips,
                });
            }
            if cluster.chips > 1 && self.arch != ArchKind::Flex {
                return Err(ConfigError::ClusterNeedsStealing);
            }
        }
        if let Some(masks) = &self.pe_task_types {
            if masks.len() != self.pes_per_tile {
                return Err(ConfigError::TypeMaskCount {
                    expected: self.pes_per_tile,
                    got: masks.len(),
                });
            }
            if masks.contains(&0) {
                return Err(ConfigError::EmptyTypeMask);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_feature_matrix() {
        let (dp, fj, tp, sched) = ArchKind::Flex.features();
        assert!(dp && fj && tp);
        assert_eq!(sched, "Work-Stealing");
        let (dp, fj, tp, sched) = ArchKind::Lite.features();
        assert!(dp && !fj && !tp);
        assert_eq!(sched, "Static Distribution");
        assert_eq!(ArchKind::Flex.to_string(), "FlexArch");
    }

    #[test]
    fn geometry_helpers() {
        let cfg = AccelConfig::flex(8, 4);
        assert_eq!(cfg.num_pes(), 32);
        assert_eq!(cfg.tile_of_pe(0), 0);
        assert_eq!(cfg.tile_of_pe(3), 0);
        assert_eq!(cfg.tile_of_pe(4), 1);
        assert_eq!(cfg.tile_of_pe(31), 7);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        assert!(AccelConfig::flex(1, 1).validate().is_ok());
        assert_eq!(
            AccelConfig::flex(0, 4).validate(),
            Err(ConfigError::NoTiles)
        );
        assert_eq!(AccelConfig::flex(4, 0).validate(), Err(ConfigError::NoPes));
        let mut c = AccelConfig::flex(1, 1);
        c.task_queue_entries = 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TaskQueueTooSmall { entries: 1 })
        );
        let mut c = AccelConfig::flex(1, 1);
        c.pstore_entries = 0;
        assert_eq!(c.validate(), Err(ConfigError::EmptyPStore));
        let mut c = AccelConfig::lite(1, 1);
        c.pstore_entries = 0;
        assert!(c.validate().is_ok(), "LiteArch has no P-Store");
        assert!(AccelConfig::flex(64, 1).validate().is_ok());
        let err = AccelConfig::lite(65, 1).validate().unwrap_err();
        assert_eq!(err, ConfigError::TooManyPorts { tiles: 65 });
        assert!(err.to_string().contains("at most 64"), "{err}");
    }

    #[test]
    fn validation_rejects_unrealizable_cache_geometry() {
        // 2-way, 64 B lines -> 128 B sets; 48 KiB gives 384 sets (not a
        // power of two), 1000 B does not even divide evenly.
        let mut c = AccelConfig::flex(1, 4);
        c.memory.accel_l1 = c.memory.accel_l1.clone().with_size(48 * 1024);
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadCacheGeometry { bytes: 48 * 1024 })
        );
        let mut c = AccelConfig::flex(1, 4);
        c.memory.accel_l1 = c.memory.accel_l1.clone().with_size(1000);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadCacheGeometry { .. })
        ));
        // Every power-of-two capacity from 4 KiB up is fine.
        for kb in [4, 8, 16, 32, 64] {
            let mut c = AccelConfig::flex(1, 4);
            c.memory.accel_l1 = c.memory.accel_l1.clone().with_size(kb * 1024);
            assert!(c.validate().is_ok(), "{kb} KiB");
        }
    }

    #[test]
    fn config_errors_render_their_constraint() {
        assert_eq!(
            ConfigError::NoTiles.to_string(),
            "accelerator needs at least one tile"
        );
        assert_eq!(
            ConfigError::BadCacheGeometry { bytes: 3072 }.to_string(),
            "cache size 3072 does not form a power-of-two number of sets"
        );
        assert_eq!(
            ConfigError::TypeMaskCount {
                expected: 4,
                got: 2
            }
            .to_string(),
            "heterogeneous config needs one type mask per PE slot (2 != 4)"
        );
    }

    #[test]
    fn cluster_partition_is_contiguous_and_even() {
        let cluster = ClusterConfig::new(4);
        assert_eq!(cluster.partition(8), vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let mut cfg = AccelConfig::flex(8, 4);
        cfg.cluster = Some(cluster);
        cfg.validate().unwrap();
        assert_eq!(cfg.chips(), 4);
        assert_eq!(cfg.tiles_per_chip(), 2);
        assert_eq!(cfg.chip_of_tile(0), 0);
        assert_eq!(cfg.chip_of_tile(7), 3);
        assert_eq!(cfg.chip_of_pe(0), 0);
        assert_eq!(cfg.chip_of_pe(31), 3);
        // Helpers agree with the explicit partition map.
        for tile in 0..cfg.tiles {
            assert_eq!(cfg.chip_of_tile(tile), cluster.partition(cfg.tiles)[tile]);
        }
    }

    #[test]
    fn cluster_validation_catches_bad_shapes() {
        let mut cfg = AccelConfig::flex(3, 4);
        cfg.cluster = Some(ClusterConfig::new(2));
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ClusterTileSplit { tiles: 3, chips: 2 })
        );
        let mut cfg = AccelConfig::flex(4, 4);
        cfg.cluster = Some(ClusterConfig::new(0));
        assert_eq!(cfg.validate(), Err(ConfigError::NoChips));
        let mut cfg = AccelConfig::lite(4, 4);
        cfg.cluster = Some(ClusterConfig::new(2));
        assert_eq!(cfg.validate(), Err(ConfigError::ClusterNeedsStealing));
        // One chip of anything is the stock accelerator: always fine.
        let mut cfg = AccelConfig::central(4, 4);
        cfg.cluster = Some(ClusterConfig::new(1));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn default_costs_are_a_few_cycles() {
        let c = ArchCosts::default();
        // The hardware steal path must be O(cycles), not O(hundreds).
        let steal_round_trip = 2 * c.net_hop_cycles + c.steal_service_cycles;
        assert!(steal_round_trip < 20);
    }
}
