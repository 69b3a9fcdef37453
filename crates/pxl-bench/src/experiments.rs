//! One function per table/figure of the paper's evaluation.
//!
//! Each function renders a markdown fragment; the `all` binary concatenates
//! them into `EXPERIMENTS.md`-ready output. The expensive scalability sweep
//! ([`run_scaling`]) is shared by Table IV, Fig. 7 and Fig. 8.

use std::collections::BTreeMap;

use pxl_apps::{suite, Scale};
use pxl_arch::{ArchKind, Platform};
use pxl_cost::resources::{tile_resources, FpgaDevice};
use pxl_cost::EnergyModel;
use pxl_dse::{pe_geometry, DesignPoint, PointArch};
use pxl_flow::{execute, RunSpec};
use pxl_sim::PlatformConfig;

use crate::{geomean, parallel_map, render_table, RunOutcome, ALL_BENCHES, ZEDBOARD_BENCHES};

/// Core counts of the CPU sweep (Table IV columns).
pub const CPU_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// PE counts of the accelerator sweep (Table IV columns).
pub const PE_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// All runs of one benchmark in the scalability sweep.
#[derive(Debug)]
pub struct BenchScaling {
    /// CPU runs at [`CPU_SWEEP`] core counts.
    pub cpu: Vec<RunOutcome>,
    /// FlexArch runs at [`PE_SWEEP`] PE counts.
    pub flex: Vec<RunOutcome>,
    /// LiteArch runs at [`PE_SWEEP`] PE counts (empty when no Lite variant).
    pub lite: Vec<RunOutcome>,
}

/// Results of the full sweep, keyed by benchmark name (Table II order is
/// reconstructed from [`ALL_BENCHES`]).
pub type ScalingResults = BTreeMap<String, BenchScaling>;

/// Runs the whole scalability sweep (CPU 1-8 cores, Flex/Lite 1-32 PEs for
/// all ten benchmarks) with host-side parallelism.
///
/// # Panics
///
/// Panics if any run fails or does not validate — experiment results must
/// never silently ship wrong data.
pub fn run_scaling(scale: Scale) -> ScalingResults {
    let mut specs = Vec::new();
    for name in ALL_BENCHES {
        for c in CPU_SWEEP {
            specs.push(RunSpec::new(name, scale, DesignPoint::cpu(c)));
        }
        for p in PE_SWEEP {
            let (tiles, per_tile) = pe_geometry(p);
            for arch in [PointArch::Flex, PointArch::Lite] {
                specs.push(RunSpec::new(
                    name,
                    scale,
                    DesignPoint::accel(arch, tiles, per_tile),
                ));
            }
        }
    }
    let mut results: ScalingResults = ScalingResults::new();
    for (spec, outcome) in specs.iter().zip(execute_all(&specs)) {
        let entry = results
            .entry(spec.benchmark.clone())
            .or_insert_with(|| BenchScaling {
                cpu: Vec::new(),
                flex: Vec::new(),
                lite: Vec::new(),
            });
        // LiteArch runs of benchmarks without a Lite mapping come back empty.
        let Some(out) = outcome else { continue };
        match spec.point.arch {
            PointArch::Cpu => entry.cpu.push(out),
            PointArch::Lite => entry.lite.push(out),
            _ => entry.flex.push(out),
        }
    }
    results
}

/// Executes `specs` on the host worker pool, outcomes in spec order (`None`
/// where a LiteArch point meets a benchmark without a LiteArch mapping).
///
/// # Panics
///
/// Panics if any run fails or does not validate — experiment results must
/// never silently ship wrong data.
fn execute_all(specs: &[RunSpec]) -> Vec<Option<RunOutcome>> {
    let jobs: Vec<_> = specs
        .iter()
        .map(|spec| move || execute(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.canonical())))
        .collect();
    parallel_map(jobs)
}

/// [`execute_all`] over FlexArch and CPU points, which run every benchmark.
fn execute_all_present(specs: &[RunSpec]) -> Vec<RunOutcome> {
    execute_all(specs)
        .into_iter()
        .map(|out| out.expect("FlexArch and the CPU run every benchmark"))
        .collect()
}

/// Flattens sweep results into one outcome list in Table II benchmark
/// order (CPU runs first, then Flex, then Lite, each by ascending units) —
/// the record stream `bench_results.jsonl` is built from.
pub fn all_outcomes(results: &ScalingResults) -> Vec<RunOutcome> {
    ALL_BENCHES
        .iter()
        .filter_map(|name| results.get(*name))
        .flat_map(|b| b.cpu.iter().chain(&b.flex).chain(&b.lite))
        .cloned()
        .collect()
}

/// Table I: tile architecture comparison.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = [
        ("Data-Parallel", 0),
        ("Fork-Join", 1),
        ("General Task-Parallel", 2),
    ]
    .iter()
    .map(|&(label, idx)| {
        let yes_no = |arch: ArchKind| {
            let f = arch.features();
            let v = [f.0, f.1, f.2][idx];
            if v { "Yes" } else { "No" }.to_owned()
        };
        vec![
            label.to_owned(),
            yes_no(ArchKind::Flex),
            yes_no(ArchKind::Lite),
        ]
    })
    .chain(std::iter::once(vec![
        "Task Scheduling".to_owned(),
        ArchKind::Flex.features().3.to_owned(),
        ArchKind::Lite.features().3.to_owned(),
    ]))
    .collect();
    format!(
        "## Table I — tile architectures\n\n{}",
        render_table(&["Pattern", "FlexArch", "LiteArch"], &rows)
    )
}

/// Table II: benchmark characteristics.
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = suite(Scale::Paper)
        .iter()
        .map(|b| {
            let m = b.meta();
            vec![
                m.name.to_owned(),
                m.source.to_owned(),
                m.approach.to_owned(),
                if m.recursive_nested { "Yes" } else { "No" }.to_owned(),
                if m.data_dependent { "Yes" } else { "No" }.to_owned(),
                m.mem_pattern.to_owned(),
                m.mem_intensity.to_owned(),
            ]
        })
        .collect();
    format!(
        "## Table II — benchmarks\n\n{}",
        render_table(&["Name", "From", "PA", "R/N", "DP", "MP", "MI"], &rows)
    )
}

/// Table III: platform configuration.
pub fn table3() -> String {
    let rows: Vec<Vec<String>> = PlatformConfig::micro2018()
        .table3_rows()
        .into_iter()
        .map(|(k, v)| vec![k, v])
        .collect();
    format!(
        "## Table III — platform configuration\n\n{}",
        render_table(&["Component", "Parameters"], &rows)
    )
}

fn speedups(base: &RunOutcome, runs: &[RunOutcome]) -> Vec<f64> {
    runs.iter().map(|r| base.seconds() / r.seconds()).collect()
}

/// Table IV: benchmark scalability (speedup of n units over 1 unit).
pub fn table4(results: &ScalingResults) -> String {
    let mut rows = Vec::new();
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); CPU_SWEEP.len() + 2 * PE_SWEEP.len()];
    for name in ALL_BENCHES {
        let r = &results[name];
        let mut row = vec![name.to_owned()];
        let mut col = 0;
        let cpu_s = speedups(&r.cpu[0], &r.cpu);
        for s in &cpu_s {
            row.push(format!("{s:.2}"));
            geo[col].push(*s);
            col += 1;
        }
        let flex_s = speedups(&r.flex[0], &r.flex);
        for s in &flex_s {
            row.push(format!("{s:.2}"));
            geo[col].push(*s);
            col += 1;
        }
        if r.lite.is_empty() {
            row.extend(PE_SWEEP.iter().map(|_| "N/A".to_owned()));
        } else {
            let lite_s = speedups(&r.lite[0], &r.lite);
            for s in &lite_s {
                row.push(format!("{s:.2}"));
                geo[col].push(*s);
                col += 1;
            }
        }
        rows.push(row);
    }
    let mut geo_row = vec!["geomean".to_owned()];
    for col in geo {
        geo_row.push(format!("{:.2}", geomean(col)));
    }
    rows.push(geo_row);
    let mut headers: Vec<String> = vec!["Benchmark".into()];
    headers.extend(CPU_SWEEP.iter().map(|c| format!("{c}-C")));
    headers.extend(PE_SWEEP.iter().map(|p| format!("F{p}-PE")));
    headers.extend(PE_SWEEP.iter().map(|p| format!("L{p}-PE")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "## Table IV — benchmark scalability (speedup over one core / one PE)\n\n{}",
        render_table(&headers_ref, &rows)
    )
}

/// Fig. 7: performance normalized to a single out-of-order core, with the
/// eight-core software line.
pub fn fig7(results: &ScalingResults) -> String {
    let mut rows = Vec::new();
    let mut flex32_norm = Vec::new();
    let mut flex32_over_8c = Vec::new();
    for name in ALL_BENCHES {
        let r = &results[name];
        let c1 = r.cpu[0].seconds();
        let c8 = r.cpu.last().expect("cpu sweep nonempty").seconds();
        let mut row = vec![name.to_owned()];
        for out in &r.flex {
            row.push(format!("{:.2}", c1 / out.seconds()));
        }
        if r.lite.is_empty() {
            row.push("N/A".to_owned());
        } else {
            let l32 = r.lite.last().expect("lite sweep nonempty");
            row.push(format!("{:.2}", c1 / l32.seconds()));
        }
        row.push(format!("{:.2}", c1 / c8));
        let f32_ = r.flex.last().expect("flex sweep nonempty").seconds();
        flex32_norm.push(c1 / f32_);
        flex32_over_8c.push(c8 / f32_);
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["Benchmark".into()];
    headers.extend(PE_SWEEP.iter().map(|p| format!("Flex {p}PE")));
    headers.push("Lite 32PE".into());
    headers.push("8-core line".into());
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "## Fig. 7 — performance normalized to one OOO core\n\n{}\nFlexArch 32 PE vs one core: geomean {:.1}x (max {:.1}x); vs eight cores: geomean {:.1}x (max {:.1}x)\n",
        render_table(&headers_ref, &rows),
        geomean(flex32_norm.iter().copied()),
        flex32_norm.iter().cloned().fold(0.0, f64::max),
        geomean(flex32_over_8c.iter().copied()),
        flex32_over_8c.iter().cloned().fold(0.0, f64::max),
    )
}

/// Fig. 8: performance vs energy efficiency of the 16-PE accelerators,
/// normalized to the eight-core CPU.
pub fn fig8(results: &ScalingResults) -> String {
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    let mut flex_eff = Vec::new();
    let mut lite_eff = Vec::new();
    for name in ALL_BENCHES {
        let r = &results[name];
        let c8 = &r.cpu[CPU_SWEEP.len() - 1];
        let cpu_energy = model.cpu_energy(&c8.metrics, c8.kernel, 8).total_j();
        let f16 = r
            .flex
            .iter()
            .find(|o| o.units == 16)
            .expect("16-PE flex run present");
        let fe = model
            .accel_energy_for(&f16.metrics, f16.kernel, 16, false)
            .total_j();
        let f_perf = c8.seconds() / f16.seconds();
        let f_effx = cpu_energy / fe;
        flex_eff.push(f_effx);
        rows.push(vec![
            name.to_owned(),
            "Flex".to_owned(),
            format!("{f_perf:.2}"),
            format!("{f_effx:.1}"),
            format!(
                "{}",
                if f_perf * f_effx > 1.0 {
                    "below"
                } else {
                    "above"
                }
            ),
        ]);
        if let Some(l16) = r.lite.iter().find(|o| o.units == 16) {
            let le = model
                .accel_energy_for(&l16.metrics, l16.kernel, 16, true)
                .total_j();
            let l_perf = c8.seconds() / l16.seconds();
            let l_effx = cpu_energy / le;
            lite_eff.push(l_effx);
            rows.push(vec![
                name.to_owned(),
                "Lite".to_owned(),
                format!("{l_perf:.2}"),
                format!("{l_effx:.1}"),
                format!(
                    "{}",
                    if l_perf * l_effx > 1.0 {
                        "below"
                    } else {
                        "above"
                    }
                ),
            ]);
        }
    }
    format!(
        "## Fig. 8 — normalized performance and energy efficiency (16 PEs vs 8 cores)\n\n{}\nGeomean energy efficiency vs 8 OOO cores: FlexArch {:.1}x, LiteArch {:.1}x\n",
        render_table(
            &["Benchmark", "Arch", "Norm. perf", "Norm. energy eff", "Iso-power"],
            &rows
        ),
        geomean(flex_eff),
        geomean(lite_eff),
    )
}

/// Fig. 6: Zedboard prototype — accelerators vs two-core parallel software.
pub fn fig6(scale: Scale) -> String {
    let zedflex = |pes| {
        let (tiles, per_tile) = pe_geometry(pes);
        DesignPoint::accel(PointArch::Flex, tiles, per_tile).on_platform(Platform::Zedboard)
    };
    let specs: Vec<RunSpec> = ZEDBOARD_BENCHES
        .iter()
        .flat_map(|&name| {
            [
                DesignPoint::cpu(2).on_platform(Platform::Zedboard),
                zedflex(4),
                zedflex(8),
            ]
            .map(|point| RunSpec::new(name, scale, point))
        })
        .collect();
    let outs = execute_all_present(&specs);
    let mut rows = Vec::new();
    let (mut s4all, mut s8all) = (Vec::new(), Vec::new());
    for (i, &name) in ZEDBOARD_BENCHES.iter().enumerate() {
        let cpu = &outs[3 * i];
        let a4 = &outs[3 * i + 1];
        let a8 = &outs[3 * i + 2];
        let s4 = cpu.seconds() / a4.seconds();
        let s8 = cpu.seconds() / a8.seconds();
        s4all.push(s4);
        s8all.push(s8);
        rows.push(vec![
            name.to_owned(),
            format!("{s4:.2}"),
            format!("{s8:.2}"),
        ]);
    }
    rows.push(vec![
        "geomean".to_owned(),
        format!("{:.2}", geomean(s4all)),
        format!("{:.2}", geomean(s8all)),
    ]);
    format!(
        "## Fig. 6 — Zedboard prototype: accelerator speedup over 2-core parallel software\n\n(knapsack and bfsqueue rely on fine-grained coherent sharing and were not\nimplemented on the prototype, as in the paper.)\n\n{}",
        render_table(&["Benchmark", "4 PEs", "8 PEs"], &rows)
    )
}

/// Table V: per-PE and per-tile resource utilization.
pub fn table5() -> String {
    let mut rows = Vec::new();
    for name in ALL_BENCHES {
        let flex = tile_resources(name, true, 4, 32 * 1024).expect("known benchmark");
        let lite = tile_resources(name, false, 4, 32 * 1024);
        let fmt4 = |r: pxl_cost::ResourceVec| {
            vec![
                r.lut.to_string(),
                r.ff.to_string(),
                r.dsp.to_string(),
                r.bram18.to_string(),
            ]
        };
        let mut row = vec![name.to_owned()];
        row.extend(fmt4(flex.pe));
        row.extend(fmt4(flex.tile));
        match lite {
            Some(l) => {
                row.extend(fmt4(l.pe));
                row.extend(fmt4(l.tile));
            }
            None => row.extend(std::iter::repeat_n("N/A".to_owned(), 8)),
        }
        rows.push(row);
    }
    let headers = [
        "Benchmark",
        "F-PE LUT",
        "FF",
        "DSP",
        "RAM",
        "F-Tile LUT",
        "FF",
        "DSP",
        "RAM",
        "L-PE LUT",
        "FF",
        "DSP",
        "RAM",
        "L-Tile LUT",
        "FF",
        "DSP",
        "RAM",
    ];
    // Device fitting summary (Section V-E).
    let artix = FpgaDevice::artix_7a75t();
    let kintex = FpgaDevice::kintex_7k160t();
    let fits = |flex: bool| {
        ALL_BENCHES
            .iter()
            .filter_map(|n| tile_resources(n, flex, 4, 32 * 1024))
            .map(|t| {
                (
                    artix.max_tiles(&t.tile) as f64,
                    kintex.max_tiles(&t.tile) as f64,
                )
            })
            .collect::<Vec<_>>()
    };
    let flex_fits = fits(true);
    let lite_fits = fits(false);
    let avg = |v: &[(f64, f64)], which: fn(&(f64, f64)) -> f64| {
        v.iter().map(which).sum::<f64>() / v.len() as f64
    };
    format!(
        "## Table V — resource utilization (4-PE tiles, 32 KB cache)\n\n{}\nDevice fitting: Artix XC7A75T fits on average {:.1} FlexArch / {:.1} LiteArch tiles;\nKintex XC7K160T fits {:.1} / {:.1} (capped at the 8-tile architecture).\n",
        render_table(&headers, &rows),
        avg(&flex_fits, |t| t.0),
        avg(&lite_fits, |t| t.0),
        avg(&flex_fits, |t| t.1),
        avg(&lite_fits, |t| t.1),
    )
}

/// Fig. 9: FlexArch 16-PE performance while sweeping the tile cache from
/// 4 KB to 32 KB, normalized to the 32 KB configuration.
pub fn fig9(scale: Scale) -> String {
    const SIZES: [usize; 4] = [4, 8, 16, 32];
    let specs: Vec<RunSpec> = ALL_BENCHES
        .iter()
        .flat_map(|&name| {
            SIZES.map(|cache_kb| {
                let point = DesignPoint::accel(PointArch::Flex, 4, 4);
                RunSpec::new(name, scale, DesignPoint { cache_kb, ..point })
            })
        })
        .collect();
    let outs = execute_all_present(&specs);
    let mut rows = Vec::new();
    for (i, &name) in ALL_BENCHES.iter().enumerate() {
        let base = outs[4 * i + 3].seconds(); // 32 KB
        let mut row = vec![name.to_owned()];
        for j in 0..4 {
            row.push(format!("{:.2}", base / outs[4 * i + j].seconds()));
        }
        rows.push(row);
    }
    format!(
        "## Fig. 9 — FlexArch 16-PE performance vs tile cache size (normalized to 32 KB)\n\n{}",
        render_table(&["Benchmark", "4KB", "8KB", "16KB", "32KB"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("Work-Stealing"));
        let t2 = table2();
        assert!(t2.contains("MachSuite") && t2.contains("cilksort"));
        let t3 = table3();
        assert!(t3.contains("MOESI"));
        let t5 = table5();
        assert!(t5.contains("5961"), "cilksort flex PE LUTs present");
        assert!(t5.contains("Artix"));
    }

    #[test]
    fn tiny_scaling_sweep_and_reports() {
        // A miniature end-to-end of the full pipeline at Tiny scale.
        let results = run_scaling(Scale::Tiny);
        assert_eq!(results.len(), 10);
        let t4 = table4(&results);
        assert!(t4.contains("geomean"));
        assert!(t4.contains("N/A"), "cilksort Lite column");
        let f7 = fig7(&results);
        assert!(f7.contains("8-core line"));
        let f8 = fig8(&results);
        assert!(f8.contains("energy efficiency"));
    }

    #[test]
    fn fig9_tiny() {
        let s = fig9(Scale::Tiny);
        assert!(s.contains("4KB"));
        assert_eq!(s.lines().filter(|l| l.starts_with('|')).count(), 12);
    }

    #[test]
    fn zedboard_paths_run() {
        for point in [
            DesignPoint::accel(PointArch::Flex, 1, 4),
            DesignPoint::cpu(2),
        ] {
            let spec = RunSpec::new(
                "stencil2d",
                Scale::Tiny,
                point.on_platform(Platform::Zedboard),
            );
            let out = execute(&spec)
                .unwrap()
                .expect("the Zedboard engines run stencil2d");
            assert!(out.kernel > pxl_sim::Time::ZERO);
        }
    }

    #[test]
    fn fig6_tiny() {
        let s = fig6(Scale::Tiny);
        assert!(s.contains("geomean"));
        let table_rows: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(
            !table_rows.iter().any(|l| l.contains("knapsack")),
            "knapsack was not implemented on the prototype"
        );
        assert_eq!(table_rows.len(), ZEDBOARD_BENCHES.len() + 3);
    }
}
