//! Memory-system substrate for the ParallelXL simulator.
//!
//! The paper integrates its accelerators into a general-purpose,
//! cache-coherent memory hierarchy (Section III-D): one L1 cache per
//! accelerator tile and per CPU core, an inclusive shared L2, a MOESI
//! snooping protocol, and a DDR3-1600 DRAM channel. This crate implements
//! that hierarchy as two cooperating halves:
//!
//! * **Functional memory** ([`func::Memory`]) — a sparse byte-addressable
//!   store holding the *actual data* every benchmark computes on, plus a
//!   bump [`func::Allocator`] for laying out inputs. Correctness of every
//!   simulated run is checked against golden references using this state.
//! * **Timing hierarchy** ([`system::MemorySystem`]) — a latency/bandwidth
//!   oracle that tracks per-line MOESI state in every L1 and the L2, models
//!   LRU replacement, next-line prefetching, bus and DRAM contention, and
//!   answers "when does this access complete?". Snoops consult a
//!   [`directory`] of sharers and owner per L2 way instead of scanning
//!   every L1; it is derived state, never serialized, and a restore
//!   rebuilds it and enforces the inclusion it relies on.
//!
//! A third module, [`zedboard`], models the constrained Zynq-7000 prototype
//! platform of Section V-B (stream buffers instead of coherent L1s, a single
//! bandwidth-limited ACP port), used to reproduce Fig. 6.

pub mod bandwidth;
pub mod cache;
pub mod directory;
pub mod func;
pub mod system;
pub mod zedboard;

pub use bandwidth::BandwidthMeter;
pub use cache::{CacheArray, CacheStateError, LineState};
pub use directory::MAX_L1_PORTS;
pub use func::{Allocator, Memory};
pub use system::{AccessKind, CoherenceError, MemorySystem, PortId};
pub use zedboard::ZedboardMemory;
