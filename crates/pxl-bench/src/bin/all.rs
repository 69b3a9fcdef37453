//! Runs every experiment and emits the full evaluation report
//! (EXPERIMENTS.md-ready markdown) plus a machine-readable
//! `bench_results.jsonl` with one record per (benchmark, engine, units)
//! run of the scalability sweep.
//!
//! Pass `--smoke` to run at `Scale::Tiny` for a quick end-to-end check.
//! Pass `--trace-out <path>` to re-run the sweep's fastest whole-program
//! configuration with event tracing and dump its JSONL trace there, plus a
//! Perfetto/Chrome trace next to it (`<path>.perfetto.json`) for
//! <https://ui.perfetto.dev>.
use pxl_apps::Scale;
use pxl_bench::experiments as ex;
use pxl_bench::RunOutcome;
use pxl_dse::{pe_geometry, DesignPoint, PointArch};
use pxl_flow::RunSpec;
use pxl_profile::{to_perfetto_json, Layout};

/// Re-runs `won`'s exact configuration with tracing enabled, phrased as a
/// canonical [`RunSpec`].
fn rerun_traced(won: &RunOutcome, scale: Scale) -> RunOutcome {
    let point = match won.engine.as_str() {
        "cpu" => DesignPoint::cpu(won.units),
        label => {
            let (tiles, per_tile) = pe_geometry(won.units);
            let arch = match label {
                "flex" => PointArch::Flex,
                "central" => PointArch::Central,
                "lite" => PointArch::Lite,
                other => panic!("cannot re-trace engine {other}"),
            };
            DesignPoint::accel(arch, tiles, per_tile)
        }
    };
    let spec = RunSpec::new(won.bench.clone(), scale, point).with_trace(1 << 20);
    pxl_flow::execute(&spec)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", won.bench, won.engine))
        .expect("it ran in the sweep")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let scale = if smoke { Scale::Tiny } else { Scale::Paper };
    println!("# ParallelXL — regenerated evaluation (Section V)\n");
    println!("{}\n", ex::table1());
    println!("{}\n", ex::table2());
    println!("{}\n", ex::table3());
    eprintln!("[fig6] running Zedboard prototype sweep...");
    println!("{}\n", ex::fig6(scale));
    eprintln!("[table4/fig7/fig8] running scalability sweep...");
    let results = ex::run_scaling(scale);
    println!("{}\n", ex::table4(&results));
    println!("{}\n", ex::fig7(&results));
    println!("{}\n", ex::table5());
    println!("{}\n", ex::fig8(&results));
    let outcomes = ex::all_outcomes(&results);
    let jsonl = std::path::Path::new("bench_results.jsonl");
    match pxl_bench::write_jsonl_stamped(jsonl, &outcomes, &pxl_bench::host_build_id()) {
        Ok(()) => eprintln!(
            "[jsonl] wrote {} records to {}",
            outcomes.len(),
            jsonl.display()
        ),
        Err(e) => eprintln!("[jsonl] failed to write {}: {e}", jsonl.display()),
    }

    if let Some(path) = trace_out {
        // The winning run: fastest whole-program time across the sweep,
        // with a deterministic (bench, engine, units) tiebreak.
        let won = outcomes
            .iter()
            .min_by_key(|o| (o.whole.as_ps(), o.bench.clone(), o.engine.clone(), o.units))
            .expect("the sweep produced outcomes");
        eprintln!(
            "[trace] winning run: {}/{} at {} units ({} ps whole) — re-running traced...",
            won.bench,
            won.engine,
            won.units,
            won.whole.as_ps()
        );
        let traced = rerun_traced(won, scale);
        let layout = if won.engine == "cpu" {
            Layout::new(won.units, won.units)
        } else {
            let (_, per_tile) = pe_geometry(won.units);
            Layout::new(won.units, per_tile)
        };
        let label = format!("{}/{}", won.bench, won.engine);
        let perfetto_path = format!("{path}.perfetto.json");
        match std::fs::write(&path, traced.trace.to_jsonl()).and_then(|()| {
            std::fs::write(
                &perfetto_path,
                to_perfetto_json(traced.trace.records(), &layout, &label),
            )
        }) {
            Ok(()) => eprintln!(
                "[trace] wrote {} events to {path} (+ {perfetto_path})",
                traced.trace.len()
            ),
            Err(e) => eprintln!("[trace] failed to write {path}: {e}"),
        }
    }

    eprintln!("[fig9] running cache-size sweep...");
    println!("{}", ex::fig9(scale));
}
