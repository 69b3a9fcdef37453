//! End-to-end and per-layer host-time benchmark of the ParallelXL
//! simulator. See `benchmark/README.md` for the workloads and metrics.
//!
//! ```text
//! pxl-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod checkpoint;
mod flow;
mod harness;
mod host;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use harness::{Opts, Report, Rng};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["task_dense", "mem_bound", "checkpoint", "serve"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("runs_per_s", "ops/s"),
    ("op_ms_p10", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_ms", "ms_simulated"),
];

/// Per-layer metrics: name and unit. A layer a workload does not
/// exercise reports 0. `op_ms_tail` is listed here, unbounded, because
/// on a shared host a tail latency measures the neighbours as much as
/// the program.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("op_ms_tail", "ms"),
    ("apps.lookup_ms", "ms"),
    ("flow.build_ms", "ms"),
    ("apps.inputs_ms", "ms"),
    ("apps.check_ms", "ms"),
    ("flow.teardown_ms", "ms"),
    ("arch.run_ms", "ms"),
    ("arch.ns_per_task", "ns"),
    ("arch.tasks", "count"),
    ("arch.steal_hit_ratio", "ratio"),
    ("cpu.run_ms", "ms"),
    ("cpu.ns_per_task", "ns"),
    ("cpu.steal_hit_ratio", "ratio"),
    ("model.ns_per_op", "ns"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.dram_lines", "count"),
    ("mem.dram_sat_events", "count"),
    ("host.minflt_per_op", "count"),
    ("host.runq_wait_ms", "ms"),
    ("flow.start_ms", "ms"),
    ("flow.advance_ms", "ms"),
    ("sim.snapshot_ms", "ms"),
    ("sim.encode_ms", "ms"),
    ("sim.decode_ms", "ms"),
    ("flow.resume_ms", "ms"),
    ("sim.drop_ms", "ms"),
    ("sim.snapshot_kb", "KiB"),
    ("sim.trace_emit_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.stats_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.inproc_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.preemptions", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_cover_pct", "%"),
];

struct Args {
    workload: String,
    opts: Opts,
    spans: Option<PathBuf>,
}

const USAGE: &str =
    "usage: pxl-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny: false,
        },
        spans,
    })
}

/// Runs one workload to its report.
///
/// # Errors
///
/// A setup failure (a reference run that fails, a server that does not
/// start).
pub fn run_workload(
    workload: &str,
    opts: &Opts,
    process_start: Instant,
) -> Result<(Report, spans::Spans), String> {
    let mut rng = Rng::new(opts.seed);
    let (mut report, spans) = match workload {
        "task_dense" => flow::run(&["uts", "queens"], opts, process_start, &mut rng)?,
        "mem_bound" => flow::run(&["spmvcrs", "stencil2d"], opts, process_start, &mut rng)?,
        "checkpoint" => checkpoint::run(opts, process_start, &mut rng)?,
        "serve" => serve::run(opts, process_start, &mut rng)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in names {
        report.metrics.entry(name).or_insert(0.0);
    }
    report.correct = report.failed == 0;
    Ok((report, spans))
}

/// The result line the driver reads.
fn result_json(report: &Report, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                report.metrics.get(name).copied().unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (report, spans) = match run_workload(&args.workload, &args.opts, process_start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: setup failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.opts.trace {
        let path = args.spans.unwrap_or_else(|| {
            PathBuf::from(format!(
                "bench_spans/{}-seed{}.jsonl",
                args.workload, args.opts.seed
            ))
        });
        match spans.write_jsonl(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                spans.all().len(),
                path.display()
            ),
            Err(e) => eprintln!("# spans: could not write {}: {e}", path.display()),
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# error_rate = {error_rate} ratio ({} failed of {} attempted)",
        report.failed, report.attempted
    );
    let names: &[(&str, &str)] = if args.opts.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, unit) in names {
        println!("# {name} = {} {unit}", report.metrics[name]);
    }
    println!("{}", result_json(&report, args.opts.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "metric name {name:?}");
            assert!(seen.insert(*name), "metric {name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?} of {name}"
            );
        }
    }

    /// BENCHMARK.json lists exactly the workloads and metrics printed here.
    #[test]
    fn benchmark_json_matches_the_binary() {
        use pxl_sim::json::JsonValue;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| m.get(field).and_then(JsonValue::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            let got: Vec<(String, String)> = names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let ok: Vec<String> = [
            "--workload",
            "serve",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.opts.seed, a.opts.trace),
            ("serve", 3, true)
        );
        for bad in [
            vec![
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "serve",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            vec![
                "--workload",
                "serve",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            vec!["--workload", "serve", "--seed", "1", "--trace", "0"],
            vec!["--workload"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
    }

    /// A `Scale::Tiny` run of every workload, plain and traced: every
    /// metric is emitted, no op fails, and traced spans nest in their op.
    #[test]
    fn tiny_smoke_of_every_workload() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 7,
                    seconds: 0.05,
                    trace,
                    tiny: true,
                };
                let (report, spans) = run_workload(workload, &opts, Instant::now())
                    .unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(report.attempted > 0, "{workload}: no ops");
                assert_eq!(
                    report.failed, 0,
                    "{workload} trace={trace}: {:?}",
                    report.notes
                );
                assert!(report.correct);
                let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, _) in names {
                    assert!(
                        report.metrics.contains_key(name),
                        "{workload}: {name} missing"
                    );
                }
                assert_eq!(
                    report.metrics.len(),
                    names.len(),
                    "{workload}: extra metrics"
                );
                if trace {
                    assert!(!spans.all().is_empty(), "{workload}: no spans");
                    assert!(
                        spans::nested(spans.all()),
                        "{workload}: spans escape their op"
                    );
                } else {
                    for (name, _) in END_TO_END {
                        assert!(report.metrics[name] > 0.0, "{workload}: {name} is 0");
                    }
                }
                let line = result_json(&report, trace);
                assert!(line.starts_with("{\"correct\":true,"), "{line}");
            }
        }
    }
}
