//! Profiling driver: traced runs + full `pxl-profile` analysis per
//! (benchmark, engine).
//!
//! Runs every Table II benchmark on FlexArch, the centralized-queue
//! ablation, LiteArch (where a mapping exists), the CPU baseline and a
//! 2-chip hierarchical cluster with event tracing enabled, reconstructs
//! each run's task graph, and emits:
//!
//! - `profile_report.md` — markdown report per run: work/span/parallelism,
//!   the critical path, latency percentiles, per-unit utilization
//!   timelines, and per-tile bottleneck verdicts;
//! - `profile_results.jsonl` — one machine-readable record per run;
//! - `profile_traces/<bench>.<engine>.perfetto.json` — Chrome/Perfetto
//!   traces that open directly in <https://ui.perfetto.dev>;
//! - `telemetry_timeline.jsonl` — the windowed counter/gauge timeline of a
//!   telemetry-sampled run (see docs/metrics.md), plus a Perfetto export
//!   with `telemetry.*` counter tracks alongside the slices.
//!
//! The driver doubles as a regression gate: it exits nonzero when any
//! profile violates the structural invariants (span ≤ makespan, trace work
//! equal to the engine's `accel.task_ps` sum, utilization within
//! \[0, 1\]), when a trace's JSONL dump does not parse back to exactly the
//! records the run emitted, or when a second same-seed run does not
//! reproduce the report and the Perfetto export byte-identically.
//!
//! Pass `--smoke` to run at `Scale::Tiny` (the CI configuration).

use pxl_apps::Scale;
use pxl_arch::ClusterConfig;
use pxl_bench::{render_table, RunOutcome, ALL_BENCHES};
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::RunSpec;
use pxl_profile::{to_perfetto_json, to_perfetto_json_with_timeline, Layout, Profile};

/// Trace buffer large enough that smoke/small runs never drop events (a
/// dropped event weakens the work cross-check; the report warns if any).
const TRACE_CAPACITY: usize = 1 << 20;

/// The engines the driver profiles. Accelerators run the paper's 8-PE
/// (2 tiles × 4) geometry; the CPU baseline runs 4 cores as one tile; the
/// hierarchical cluster splits the same 8 PEs across 2 chips of 2 tiles,
/// exercising the per-chip rollups and link-bound analysis.
const ENGINES: [&str; 5] = ["flex", "central", "lite", "cpu", "hier"];

fn layout_for(label: &str) -> Layout {
    match label {
        "cpu" => Layout::new(4, 4),
        "hier" => Layout::clustered(8, 2, 2),
        _ => Layout::new(8, 4),
    }
}

/// Runs `name` on the labeled engine with tracing on, through the
/// canonical [`RunSpec`] path. `None` means LiteArch with no Lite mapping.
fn run_traced(name: &str, scale: Scale, label: &str) -> Option<RunOutcome> {
    let point = match label {
        "flex" => DesignPoint::accel(PointArch::Flex, 2, 4),
        "central" => DesignPoint::accel(PointArch::Central, 2, 4),
        "lite" => DesignPoint::accel(PointArch::Lite, 2, 4),
        "cpu" => DesignPoint::cpu(4),
        "hier" => DesignPoint::accel(PointArch::Flex, 4, 2).clustered(ClusterConfig::new(2)),
        other => panic!("unknown engine label {other}"),
    };
    let spec = RunSpec::new(name, scale, point).with_trace(TRACE_CAPACITY);
    pxl_flow::execute(&spec).unwrap_or_else(|e| panic!("{e}"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Tiny } else { Scale::Small };
    let trace_dir = std::path::Path::new("profile_traces");
    if let Err(e) = std::fs::create_dir_all(trace_dir) {
        eprintln!("[profile] cannot create {}: {e}", trace_dir.display());
        std::process::exit(1);
    }

    let mut failures: Vec<String> = Vec::new();
    let mut report = String::from(
        "# ParallelXL profile report\n\n\
         Task-graph, latency and bottleneck analysis of traced runs \
         (see docs/profiling.md for field definitions).\n\n",
    );
    let mut jsonl: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

    for name in ALL_BENCHES {
        for label in ENGINES {
            let Some(out) = run_traced(name, scale, label) else {
                continue; // no LiteArch mapping
            };
            // Offline profiling reads saved JSONL: every dump must parse
            // back to exactly the records the run emitted.
            match pxl_profile::parse_jsonl(&out.trace.to_jsonl()) {
                Ok(parsed) if parsed == out.trace.records() => {}
                Ok(_) => failures.push(format!("{name}/{label}: trace JSONL re-reads differently")),
                Err(e) => failures.push(format!("{name}/{label}: trace JSONL does not parse: {e}")),
            }
            let layout = layout_for(label);
            let profile = Profile::analyze(out.trace.records(), &out.metrics, &layout, out.kernel);
            for v in profile.check_invariants() {
                failures.push(format!("{name}/{label}: {v}"));
            }
            let md = profile.render_markdown(name, label);
            let run_label = format!("{name}/{label}");
            let perfetto = to_perfetto_json(out.trace.records(), &layout, &run_label);

            // Determinism gate: a second same-seed run must reproduce both
            // artifacts byte-for-byte.
            let again = run_traced(name, scale, label).expect("engine ran once already");
            let profile2 =
                Profile::analyze(again.trace.records(), &again.metrics, &layout, again.kernel);
            if profile2.render_markdown(name, label) != md
                || to_perfetto_json(again.trace.records(), &layout, &run_label) != perfetto
            {
                failures.push(format!("{run_label}: profile not byte-deterministic"));
            }

            let trace_path = trace_dir.join(format!("{name}.{label}.perfetto.json"));
            if let Err(e) = std::fs::write(&trace_path, &perfetto) {
                failures.push(format!("failed to write {}: {e}", trace_path.display()));
            }
            rows.push(vec![
                name.to_owned(),
                label.to_owned(),
                profile.elapsed.as_ps().to_string(),
                profile.graph.work_ps.to_string(),
                profile.graph.span_ps.to_string(),
                format!("{:.2}x", profile.parallelism()),
                profile.tiles.first().map_or("-", |t| t.verdict).to_owned(),
            ]);
            jsonl.push(profile.render_jsonl(name, label));
            report.push_str(&md);
            report.push('\n');
            eprintln!(
                "[profile] {run_label}: {} events, span {} ps / makespan {} ps",
                profile.trace_events,
                profile.graph.span_ps,
                profile.elapsed.as_ps()
            );
        }
    }

    println!("# Profile summary\n");
    println!(
        "{}",
        render_table(
            &[
                "bench",
                "engine",
                "makespan_ps",
                "work_ps",
                "span_ps",
                "parallelism",
                "tile0 verdict"
            ],
            &rows,
        )
    );

    for (path, contents) in [
        ("profile_report.md", report),
        ("profile_results.jsonl", jsonl.join("\n") + "\n"),
    ] {
        match std::fs::write(path, contents) {
            Ok(()) => eprintln!("[profile] wrote {path}"),
            Err(e) => failures.push(format!("failed to write {path}: {e}")),
        }
    }

    // Telemetry smoke: a traced run with an epoch sampler must produce a
    // non-empty JSONL timeline, a second same-seed run must reproduce it
    // byte-identically, and the Perfetto export must grow counter tracks
    // alongside the slices.
    let telemetry_spec = RunSpec::new("uts", scale, DesignPoint::accel(PointArch::Flex, 2, 4))
        .with_trace(TRACE_CAPACITY)
        .with_telemetry(500);
    let traced = pxl_flow::execute(&telemetry_spec)
        .unwrap_or_else(|e| panic!("{e}"))
        .expect("uts has a flex variant");
    let timeline_jsonl = traced.timeline.to_jsonl();
    if traced.timeline.samples().is_empty() {
        failures.push("telemetry: a 500-cycle epoch must produce samples".to_owned());
    }
    let again = pxl_flow::execute(&telemetry_spec)
        .unwrap_or_else(|e| panic!("{e}"))
        .expect("uts has a flex variant");
    if again.timeline.to_jsonl() != timeline_jsonl {
        failures
            .push("telemetry: timeline not byte-deterministic across same-seed runs".to_owned());
    }
    match std::fs::write("telemetry_timeline.jsonl", &timeline_jsonl) {
        Ok(()) => eprintln!(
            "[profile] wrote telemetry_timeline.jsonl ({} sample(s))",
            traced.timeline.samples().len()
        ),
        Err(e) => failures.push(format!("failed to write telemetry_timeline.jsonl: {e}")),
    }
    let counters = to_perfetto_json_with_timeline(
        traced.trace.records(),
        &layout_for("flex"),
        "uts/flex+telemetry",
        &traced.timeline,
    );
    if !counters.contains("\"ph\":\"C\"") {
        failures.push("telemetry: perfetto export must contain counter tracks".to_owned());
    }
    let counter_path = trace_dir.join("uts.flex.telemetry.perfetto.json");
    if let Err(e) = std::fs::write(&counter_path, &counters) {
        failures.push(format!("failed to write {}: {e}", counter_path.display()));
    }

    if !failures.is_empty() {
        eprintln!("\n[profile] FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    eprintln!("[profile] all runs profiled deterministically; invariants hold");
}
