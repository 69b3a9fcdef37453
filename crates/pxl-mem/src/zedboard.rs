//! The constrained Zynq-7000 (Zedboard) prototype platform of Section V-B.
//!
//! The paper's FPGA prototype could not implement coherent L1 caches on the
//! fabric, so it used **stream buffers** connecting PEs to the processing
//! system's L2 cache through a **single ACP port** whose bandwidth is much
//! lower than the CPU-to-L2 path. This module models exactly that: per-port
//! stream buffers with sequential-stream hits, all line transfers serialized
//! through one bandwidth-limited ACP channel. It is used to reproduce Fig. 6,
//! including its negative results (the spmvcrs slowdown, and nw/stencil2d not
//! scaling from 4 to 8 PEs).

use pxl_sim::config::{CacheParams, CpuCoreParams, DramParams, MemoryConfig};
use pxl_sim::json::{self, JsonValue};
use pxl_sim::{Clock, CounterId, Metrics, Time, TraceEvent, Tracer};

use crate::bandwidth::BandwidthMeter;
use crate::system::AccessKind;

/// Timing of the single ACP port between the FPGA fabric and the ARM L2.
#[derive(Debug, Clone, PartialEq)]
pub struct AcpParams {
    /// Round-trip latency of an isolated line request.
    pub latency: Time,
    /// Sustained bandwidth in bytes per second (shared by all PEs).
    pub bandwidth_bytes_per_sec: f64,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Stream buffers per PE port.
    pub streams_per_port: usize,
}

impl Default for AcpParams {
    fn default() -> Self {
        AcpParams {
            latency: Time::from_ns(100),
            bandwidth_bytes_per_sec: 2.0e9,
            line_bytes: 64,
            streams_per_port: 4,
        }
    }
}

#[derive(Debug, Clone)]
struct Stream {
    /// The last line address served by this stream.
    last_line: u64,
    /// LRU tick.
    last_use: u64,
}

/// Memory path for accelerator PEs on the Zedboard prototype: stream buffers
/// over one shared ACP port.
///
/// Implements the same access-oracle shape as
/// [`crate::MemorySystem::access`], so the accelerator engine can run against
/// either backing.
///
/// # Examples
///
/// ```
/// use pxl_mem::zedboard::{AcpParams, ZedboardMemory};
/// use pxl_mem::AccessKind;
/// use pxl_sim::Time;
///
/// let mut mem = ZedboardMemory::new(4, AcpParams::default());
/// let t1 = mem.access(0, 0x0, AccessKind::Read, Time::ZERO);
/// // Re-reading the same line hits in the stream buffer.
/// let t2 = mem.access(0, 0x8, AccessKind::Read, t1);
/// assert!(t2 - t1 < t1 - Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct ZedboardMemory {
    params: AcpParams,
    streams: Vec<Vec<Stream>>,
    acp_meter: BandwidthMeter,
    tick: u64,
    stats: Metrics,
    ids: ZedIds,
    trace: Tracer,
    accel_clock: Clock,
}

/// Typed handles for the stream-buffer hot counters; re-registered whenever
/// `stats` is replaced, mirroring the coherent path's `MemIds`.
#[derive(Debug, Clone, Copy)]
struct ZedIds {
    stream_hits: CounterId,
    stream_misses: CounterId,
    stream_seq: CounterId,
    acp_lines: CounterId,
}

impl ZedIds {
    fn register(m: &mut Metrics) -> Self {
        ZedIds {
            stream_hits: m.register_counter("zed.stream_hits"),
            stream_misses: m.register_counter("zed.stream_misses"),
            stream_seq: m.register_counter("zed.stream_seq"),
            acp_lines: m.register_counter("zed.acp_lines"),
        }
    }
}

impl ZedboardMemory {
    /// Creates the memory path for `ports` PE ports.
    pub fn new(ports: usize, params: AcpParams) -> Self {
        let streams_per_port = params.streams_per_port;
        let mut stats = Metrics::new();
        let ids = ZedIds::register(&mut stats);
        ZedboardMemory {
            params,
            streams: vec![Vec::with_capacity(streams_per_port); ports],
            acp_meter: BandwidthMeter::default_epoch(),
            tick: 0,
            stats,
            ids,
            trace: Tracer::disabled(),
            accel_clock: zedboard_accel_clock(),
        }
    }

    /// Borrow the accumulated statistics.
    pub fn stats(&self) -> &Metrics {
        &self.stats
    }

    /// Takes the statistics out, leaving an empty registry.
    pub fn take_stats(&mut self) -> Metrics {
        let taken = std::mem::take(&mut self.stats);
        self.ids = ZedIds::register(&mut self.stats);
        taken
    }

    /// Enables structured event tracing with a bounded buffer of `capacity`
    /// records (zero disables). Stream-buffer hits and misses are reported
    /// as level-0 cache events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Tracer::bounded(capacity);
    }

    /// Takes the accumulated event trace out, leaving a disabled tracer.
    pub fn take_trace(&mut self) -> Tracer {
        std::mem::take(&mut self.trace)
    }

    /// Serializes the complete path state — stream buffers (in allocation
    /// order, which the LRU replacement depends on), ACP meter, LRU tick,
    /// statistics and trace — for snapshot/restore.
    pub fn state_to_json_value(&self) -> JsonValue {
        let streams = self.streams.iter().map(|port| {
            let pairs = port
                .iter()
                .map(|s| json::arr_u64([s.last_line, s.last_use]));
            JsonValue::Array(pairs.collect())
        });
        json::obj(vec![
            ("streams", JsonValue::Array(streams.collect())),
            ("acp_meter", self.acp_meter.state_to_json_value()),
            ("tick", json::num(self.tick)),
            ("stats", self.stats.to_json_value()),
            ("trace", self.trace.state_to_json_value()),
        ])
    }

    /// Restores the state captured by
    /// [`ZedboardMemory::state_to_json_value`] into a path built with the
    /// same parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed field or geometry
    /// mismatch (wrong port count, too many streams for a port).
    pub fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        let ports = json::get_arr_n(value, "streams", self.streams.len())?;
        let mut streams = Vec::with_capacity(ports.len());
        for port in ports {
            let entries = port
                .as_array()
                .ok_or("zedboard state: port streams is not an array")?;
            if entries.len() > self.params.streams_per_port {
                return Err(format!(
                    "zedboard state: {} streams on one port, limit is {}",
                    entries.len(),
                    self.params.streams_per_port
                ));
            }
            let mut list = Vec::with_capacity(self.params.streams_per_port);
            for entry in entries {
                let [last_line, last_use] = json::record_of::<u64, 2>(entry, "streams")?;
                list.push(Stream {
                    last_line,
                    last_use,
                });
            }
            streams.push(list);
        }
        self.acp_meter
            .restore_state(json::get(value, "acp_meter")?)?;
        let tick = json::get_word(value, "tick")?;
        self.stats = Metrics::from_json_value(json::get(value, "stats")?)?;
        self.ids = ZedIds::register(&mut self.stats);
        self.trace = Tracer::state_from_json_value(json::get(value, "trace")?)?;
        self.streams = streams;
        self.tick = tick;
        Ok(())
    }

    fn line_transfer(&self) -> Time {
        Time::from_ps(
            (self.params.line_bytes as f64 / self.params.bandwidth_bytes_per_sec * 1e12).round()
                as u64,
        )
    }

    /// One access of up to a line; returns completion time.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn access(&mut self, port: usize, addr: u64, kind: AccessKind, now: Time) -> Time {
        assert!(port < self.streams.len(), "port {port} out of range");
        let line = addr / self.params.line_bytes as u64;
        self.tick += 1;
        let tick = self.tick;

        // Same-line hit in an existing stream buffer: fabric-local access.
        if let Some(s) = self.streams[port].iter_mut().find(|s| s.last_line == line) {
            s.last_use = tick;
            self.stats.inc(self.ids.stream_hits);
            self.trace.emit(
                now,
                TraceEvent::CacheHit {
                    port: port as u32,
                    level: 0,
                },
            );
            return now + self.accel_clock.period();
        }

        // Sequential advance of an existing stream: latency hidden by the
        // stream prefetcher, but ACP bandwidth is consumed.
        let transfer = self.line_transfer();
        let sequential = self.streams[port]
            .iter_mut()
            .find(|s| s.last_line + 1 == line);
        let is_seq = sequential.is_some();
        if let Some(s) = sequential {
            s.last_line = line;
            s.last_use = tick;
        } else {
            // New stream: allocate (LRU) and pay the full round trip.
            let streams = &mut self.streams[port];
            if streams.len() < self.params.streams_per_port {
                streams.push(Stream {
                    last_line: line,
                    last_use: tick,
                });
            } else {
                let lru = streams
                    .iter_mut()
                    .min_by_key(|s| s.last_use)
                    .expect("at least one stream");
                lru.last_line = line;
                lru.last_use = tick;
            }
        }

        let start = self.acp_meter.acquire(now, transfer.as_ps());
        self.stats.inc(self.ids.acp_lines);
        self.stats
            .add("zed.acp_bytes", self.params.line_bytes as u64);
        let mut done = start + transfer;
        if !is_seq {
            self.stats.inc(self.ids.stream_misses);
            self.trace.emit(
                now,
                TraceEvent::CacheMiss {
                    port: port as u32,
                    level: 0,
                },
            );
            done += self.params.latency;
        } else {
            self.stats.inc(self.ids.stream_seq);
        }
        if matches!(kind, AccessKind::Amo) {
            done += self.params.latency; // locked round trip
        }
        done
    }

    /// Burst access (line by line), as in
    /// [`crate::MemorySystem::access_bytes`].
    pub fn access_bytes(
        &mut self,
        port: usize,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        now: Time,
    ) -> Time {
        if bytes == 0 {
            return now;
        }
        let line = self.params.line_bytes as u64;
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let mut t = now;
        let mut a = first;
        loop {
            t = self.access(port, a, kind, t);
            if a == last {
                break;
            }
            a += line;
        }
        t
    }
}

/// The Zedboard prototype's 125 MHz fabric clock, which drives its PEs and
/// stream buffers.
pub fn zedboard_accel_clock() -> Clock {
    Clock::new("zed_accel", 8_000)
}

/// Memory configuration of the Zedboard's ARM processing system (two
/// Cortex-A9 cores, 512 KB L2, 32-bit DDR3).
pub fn zedboard_cpu_memory() -> MemoryConfig {
    MemoryConfig {
        accel_l1: CacheParams {
            // Unused on the Zedboard (the fabric has stream buffers instead),
            // but kept for config completeness.
            size_bytes: 4 * 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
            next_line_prefetch: false,
            clock: Clock::new("zed_accel_l1", 10_000),
        },
        cpu_l1: CacheParams {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency_cycles: 1,
            next_line_prefetch: true,
            clock: Clock::new("zed_cpu_l1", 1_500), // 667 MHz
        },
        l2: CacheParams {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency_cycles: 8,
            next_line_prefetch: false,
            clock: Clock::new("zed_l2", 1_500),
        },
        dram: DramParams {
            access_latency_ns: 70,
            peak_bw_bytes_per_sec: 4.2e9,
        },
    }
}

/// Core parameters of the Zedboard's Cortex-A9 (dual-issue, 667 MHz).
pub fn zedboard_cpu_core() -> CpuCoreParams {
    CpuCoreParams {
        issue_width: 2,
        iq_entries: 16,
        rob_entries: 40,
        clock: Clock::new("zed_cpu", 1_500),
        mem_overlap: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_hits_are_fast() {
        let mut m = ZedboardMemory::new(1, AcpParams::default());
        let t1 = m.access(0, 0, AccessKind::Read, Time::ZERO);
        let t2 = m.access(0, 32, AccessKind::Read, t1);
        assert_eq!(t2 - t1, Time::from_ps(8_000)); // one 125 MHz cycle
        assert_eq!(m.stats().get("zed.stream_hits"), 1);
    }

    #[test]
    fn sequential_stream_is_bandwidth_bound_not_latency_bound() {
        let mut m = ZedboardMemory::new(1, AcpParams::default());
        let t1 = m.access(0, 0, AccessKind::Read, Time::ZERO);
        let cold = t1 - Time::ZERO;
        let t2 = m.access(0, 64, AccessKind::Read, t1);
        let seq = t2 - t1;
        assert!(seq < cold, "sequential line must avoid the ACP latency");
        assert!(seq >= m.line_transfer(), "but still consumes bandwidth");
    }

    #[test]
    fn acp_serializes_across_ports() {
        let mut m = ZedboardMemory::new(2, AcpParams::default());
        let t_a = m.access(0, 0, AccessKind::Read, Time::ZERO);
        let t_b = m.access(1, 0x10000, AccessKind::Read, Time::ZERO);
        // Port 1 queues behind port 0's transfer.
        assert!(t_b > t_a || t_b >= m.line_transfer() + m.line_transfer());
        assert_eq!(m.stats().get("zed.acp_lines"), 2);
    }

    #[test]
    fn stream_lru_replacement() {
        let p = AcpParams {
            streams_per_port: 2,
            ..AcpParams::default()
        };
        let mut m = ZedboardMemory::new(1, p);
        let mut t = Time::ZERO;
        t = m.access(0, 0, AccessKind::Read, t); // stream A (line 0)
        t = m.access(0, 100 * 64, AccessKind::Read, t); // stream B
        t = m.access(0, 200 * 64, AccessKind::Read, t); // evicts A (LRU)
        let misses_before = m.stats().get("zed.stream_misses");
        let _ = m.access(0, 0, AccessKind::Read, t); // A gone -> miss
        assert_eq!(m.stats().get("zed.stream_misses"), misses_before + 1);
    }

    #[test]
    fn burst_touches_every_line() {
        let mut m = ZedboardMemory::new(1, AcpParams::default());
        let t = m.access_bytes(0, 0, 256, AccessKind::Read, Time::ZERO);
        assert!(t >= m.line_transfer());
        assert_eq!(m.stats().get("zed.acp_lines"), 4);
        assert_eq!(m.access_bytes(0, 0, 0, AccessKind::Read, t), t);
    }

    #[test]
    fn amo_pays_locked_round_trip() {
        let mut m1 = ZedboardMemory::new(1, AcpParams::default());
        let w = m1.access(0, 0, AccessKind::Write, Time::ZERO);
        let mut m2 = ZedboardMemory::new(1, AcpParams::default());
        let a = m2.access(0, 0, AccessKind::Amo, Time::ZERO);
        assert!(a > w);
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let p = AcpParams {
            streams_per_port: 2,
            ..AcpParams::default()
        };
        let mut a = ZedboardMemory::new(2, p.clone());
        a.enable_trace(128);
        let mut t = Time::ZERO;
        for i in 0..30u64 {
            t = a.access((i % 2) as usize, (i % 5) * 300 * 64, AccessKind::Read, t);
        }
        let state = a.state_to_json_value();
        let mut b = ZedboardMemory::new(2, p.clone());
        b.enable_trace(128);
        b.restore_state(&state).unwrap();
        // Identical future behavior, including LRU victim choices.
        for i in 0..30u64 {
            let ta = a.access((i % 2) as usize, i * 700 * 64, AccessKind::Read, t);
            let tb = b.access((i % 2) as usize, i * 700 * 64, AccessKind::Read, t);
            assert_eq!(ta, tb, "access {i} diverged after restore");
            t = ta;
        }
        assert_eq!(b.stats().to_json(), a.stats().to_json());
        assert_eq!(b.take_trace().to_jsonl(), a.take_trace().to_jsonl());
        // Wrong port count is refused.
        let mut wrong = ZedboardMemory::new(3, p);
        let err = wrong.restore_state(&state).unwrap_err();
        assert!(
            err.contains("\"streams\" holds 2 items, expected 3"),
            "{err}"
        );
    }

    #[test]
    fn cpu_side_config_is_weaker_than_table3() {
        let zed = zedboard_cpu_memory();
        let big = MemoryConfig::micro2018();
        assert!(zed.l2.size_bytes < big.l2.size_bytes);
        assert!(zed.dram.peak_bw_bytes_per_sec < big.dram.peak_bw_bytes_per_sec);
        let core = zedboard_cpu_core();
        assert!(core.issue_width < 4);
    }
}
