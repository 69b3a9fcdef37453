//! Host-throughput benchmark: how fast the simulator itself runs.
//!
//! Measures wall-clock simulated-cycles/sec and tasks/sec for every engine
//! — FlexArch, LiteArch, the centralized-queue ablation and the CPU
//! baseline — on four benchmarks with mappings for all of them, so the
//! fabric's hot dispatch loop has a recorded perf trajectory and
//! refactors can be shown not to slow it down. uts and queens load the
//! scheduler; spmvcrs and stencil2d load the memory model and the
//! functional data plane.
//!
//! Appends one JSONL record per (benchmark, engine) to
//! `bench_results.jsonl` (tagged `"perf":true` to keep them separable from
//! experiment records) and prints a markdown table.
//!
//! Pass `--smoke` to run at `Scale::Tiny` for a quick end-to-end check.

use std::io::Write;
use std::time::Instant;

use pxl_apps::Scale;
use pxl_arch::AccelConfig;
use pxl_bench::render_table;
use pxl_dse::{pe_geometry, ClusterPoint, DesignPoint, PointArch};
use pxl_flow::{execute, RunSpec};
use pxl_sim::config::CpuCoreParams;

const PES: usize = 16;
const BENCHES: [&str; 4] = ["uts", "queens", "spmvcrs", "stencil2d"];
/// The benchmarks the multi-chip rows run: one irregular-tree and one
/// queue-driven workload, matching the cluster study in EXPERIMENTS.md.
const CLUSTER_BENCHES: [&str; 2] = ["uts", "bfsqueue"];

struct PerfRow {
    bench: &'static str,
    engine: &'static str,
    units: usize,
    wall_s: f64,
    sim_cycles: u64,
    tasks: u64,
    /// `link.steal_hits / accel.steal_hits` for cluster rows: the fraction
    /// of successful steals that crossed a chip boundary. `None` on
    /// single-chip engines.
    inter_chip_steals: Option<f64>,
}

impl PerfRow {
    fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_s
    }

    fn tasks_per_sec(&self) -> f64 {
        self.tasks as f64 / self.wall_s
    }

    fn to_jsonl(&self, host: &str) -> String {
        let cluster = self
            .inter_chip_steals
            .map(|r| format!(",\"inter_chip_steals\":{r:.4}"))
            .unwrap_or_default();
        format!(
            concat!(
                "{{\"perf\":true,\"host\":\"{}\",\"bench\":\"{}\",\"engine\":\"{}\",",
                "\"units\":{},\"wall_s\":{:.6},\"sim_cycles\":{},",
                "\"tasks\":{},\"cycles_per_sec\":{:.1},\"tasks_per_sec\":{:.1}{}}}"
            ),
            host,
            self.bench,
            self.engine,
            self.units,
            self.wall_s,
            self.sim_cycles,
            self.tasks,
            self.cycles_per_sec(),
            self.tasks_per_sec(),
            cluster,
        )
    }
}

/// One simulated clock period in picoseconds for `engine`'s timebase.
fn cycle_ps(engine: &str) -> u64 {
    match engine {
        "cpu" => CpuCoreParams::micro2018().clock.cycles_to_time(1).as_ps(),
        _ => AccelConfig::flex(1, 1).clock.cycles_to_time(1).as_ps(),
    }
}

/// How many times each row's run is repeated; the row reports the
/// *fastest* repetition. Runs are deterministic, so repetitions differ
/// only by host noise (scheduler preemption, frequency scaling), which is
/// strictly additive — the minimum wall time is the least-contended
/// sample and the most reproducible statistic on a shared machine.
const REPS: usize = 5;

/// Times `spec` end to end (benchmark lookup, engine construction, run and
/// golden check), as `engine`'s row for `name`.
fn measure(name: &'static str, engine: &'static str, spec: &RunSpec) -> PerfRow {
    let run = || {
        execute(spec)
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("perf benchmarks run on every engine")
    };
    let mut out = run();
    let mut wall_s = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        out = run();
        wall_s = wall_s.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    let tasks = out.metrics.get("accel.tasks") + out.metrics.get("cpu.tasks");
    // `link.*` counters only exist on multi-chip fabrics, so their absence
    // marks a single-chip row.
    let inter_chip_steals = if out.metrics.get("link.msgs") > 0 {
        let hits = out.metrics.get("accel.steal_hits");
        Some(if hits == 0 {
            0.0
        } else {
            out.metrics.get("link.steal_hits") as f64 / hits as f64
        })
    } else {
        None
    };
    PerfRow {
        bench: name,
        engine,
        units: out.units,
        wall_s,
        sim_cycles: out.kernel.as_ps() / cycle_ps(engine),
        tasks,
        inter_chip_steals,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Tiny } else { Scale::Small };
    let mut rows = Vec::new();
    let (tiles, per_tile) = pe_geometry(PES);
    for name in BENCHES {
        eprintln!("[perf] {name}: flex/lite/central/cpu at {PES} units...");
        for arch in [PointArch::Flex, PointArch::Lite, PointArch::Central] {
            let point = DesignPoint::accel(arch, tiles, per_tile);
            rows.push(measure(
                name,
                arch.label(),
                &RunSpec::new(name, scale, point),
            ));
        }
        let point = DesignPoint::cpu(PES);
        rows.push(measure(name, "cpu", &RunSpec::new(name, scale, point)));
    }

    // Multi-chip fabrics: the same 16 PEs split across 2 and 4 chips,
    // stealing hierarchically vs. flat across the inter-chip link.
    for name in CLUSTER_BENCHES {
        eprintln!("[perf] {name}: 2-chip and 4-chip clusters at {PES} PEs...");
        for (chips, hier_label, flat_label) in [(2, "hier2", "flat2"), (4, "hier4", "flat4")] {
            let hier = ClusterPoint::new(chips);
            for (cluster, label) in [(hier, hier_label), (hier.flat(), flat_label)] {
                let point = DesignPoint::accel(PointArch::Flex, tiles, per_tile).clustered(cluster);
                rows.push(measure(name, label, &RunSpec::new(name, scale, point)));
            }
        }
    }

    println!("## Host throughput ({:?})\n", scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.to_owned(),
                r.engine.to_owned(),
                format!("{:.1} ms", r.wall_s * 1e3),
                format!("{:.3e}", r.cycles_per_sec()),
                format!("{:.3e}", r.tasks_per_sec()),
                r.inter_chip_steals
                    .map_or("-".to_owned(), |x| format!("{:.1}%", x * 100.0)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Benchmark",
                "Engine",
                "Wall",
                "Sim cycles/s",
                "Tasks/s",
                "Inter-chip steals"
            ],
            &table
        )
    );

    // Smoke mode doubles as a coarse perf regression gate for CI: the flex
    // fabric at Tiny sustains well over 10^6 simulated cycles/s on any
    // machine this runs on, so a reading below the floor means the hot
    // dispatch path itself regressed by an order of magnitude (the floor is
    // ~10x below typical so host noise can never trip it).
    if smoke {
        const FLEX_SMOKE_FLOOR: f64 = 1.0e5;
        for r in rows.iter().filter(|r| r.engine == "flex") {
            assert!(
                r.cycles_per_sec() > FLEX_SMOKE_FLOOR,
                "perf smoke floor: {} flex sustained only {:.3e} sim cycles/s (floor {:.1e})",
                r.bench,
                r.cycles_per_sec(),
                FLEX_SMOKE_FLOOR
            );
        }
        eprintln!("[perf] smoke floor ok: flex rows above {FLEX_SMOKE_FLOOR:.1e} sim cycles/s");
    }

    let path = std::path::Path::new("bench_results.jsonl");
    let host = pxl_bench::host_build_id();
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            for row in &rows {
                writeln!(w, "{}", row.to_jsonl(&host))?;
            }
            w.into_inner()?.flush()
        });
    match appended {
        Ok(()) => eprintln!(
            "[perf] appended {} records to {}",
            rows.len(),
            path.display()
        ),
        Err(e) => eprintln!("[perf] failed to write {}: {e}", path.display()),
    }
}
