//! The cluster golden gate: a 1-chip [`ClusterConfig`] must be a perfect
//! no-op. Running any fixture workload with `cluster = Some(1 chip)` — on
//! the stock [`FlexEngine`] *or* the hierarchical [`HierEngine`] — must
//! reproduce the stock engine's bytes exactly: the same trace JSONL, the
//! same metric names and values, the same result and elapsed time, all
//! checked against the on-disk `tests/fixtures/` seeds.
//!
//! This is the invariant that lets the inter-chip link tier and the
//! hierarchical stealing policy live inside the shared fabric without
//! perturbing every single-chip run ever recorded.

use parallelxl::apps::{by_name, Scale};
use parallelxl::arch::{
    AccelConfig, AccelResult, CentralEngine, ClusterConfig, FlexEngine, HierEngine,
};
use parallelxl::sim::metrics::MetricKind;
use parallelxl::{Engine, FaultPlan, NetClass, Time, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

const TRACE_CAPACITY: usize = 1 << 16;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Serializes result/elapsed plus every registered counter (and histogram
/// summary) as stable `key=value` lines — the full observable surface of a
/// run. Any counter that exists in one run but not the other shows up as a
/// line diff, so a 1-chip engine that registered `link.*` metrics would
/// fail here even if their values were zero.
fn metrics_lines(out: &AccelResult) -> String {
    let mut lines = String::new();
    writeln!(lines, "result={}", out.result).unwrap();
    writeln!(lines, "elapsed_ps={}", out.elapsed.as_ps()).unwrap();
    let mut rows: Vec<String> = Vec::new();
    for (name, kind, value, hist) in out.metrics.iter() {
        match kind {
            MetricKind::Histogram => {
                rows.push(format!("hist:{name}.count={}", hist.count()));
                rows.push(format!("hist:{name}.sum={}", hist.sum()));
            }
            _ => rows.push(format!("{name}={value}")),
        }
    }
    rows.sort();
    for row in rows {
        lines.push_str(&row);
        lines.push('\n');
    }
    lines
}

fn flex_config(tiles: usize, pes: usize, plan: Option<FaultPlan>) -> AccelConfig {
    let mut cfg = AccelConfig::flex(tiles, pes);
    cfg.trace_capacity = TRACE_CAPACITY;
    cfg.fault_plan = plan;
    cfg
}

fn run_flex(cfg: AccelConfig, bench_name: &str) -> AccelResult {
    let bench = by_name(bench_name, Scale::Tiny).unwrap();
    let mut engine = FlexEngine::new(cfg, bench.profile());
    let inst = bench.flex(engine.mem_mut());
    let mut worker = inst.worker;
    let out = engine
        .run(Workload::dynamic(worker.as_mut(), inst.root))
        .expect("run completes");
    bench
        .check(engine.memory(), out.result)
        .expect("run stays golden");
    out
}

fn run_hier(cfg: AccelConfig, bench_name: &str) -> AccelResult {
    let bench = by_name(bench_name, Scale::Tiny).unwrap();
    let mut engine = HierEngine::new(cfg, bench.profile());
    let inst = bench.flex(engine.mem_mut());
    let mut worker = inst.worker;
    let out = engine
        .run(Workload::dynamic(worker.as_mut(), inst.root))
        .expect("run completes");
    bench
        .check(engine.memory(), out.result)
        .expect("run stays golden");
    out
}

fn assert_same_bytes(case: &str, engine: &str, stock: &AccelResult, got: &AccelResult) {
    let (want_trace, got_trace) = (stock.trace.to_jsonl(), got.trace.to_jsonl());
    if got_trace != want_trace {
        let diff = got_trace
            .lines()
            .zip(want_trace.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match diff {
            Some((i, (g, w))) => panic!(
                "{case}/{engine}: 1-chip cluster trace diverges at line {}:\n  got:  {g}\n  want: {w}",
                i + 1
            ),
            None => panic!(
                "{case}/{engine}: 1-chip cluster trace length changed ({} vs {})",
                got_trace.lines().count(),
                want_trace.lines().count()
            ),
        }
    }
    assert_eq!(
        metrics_lines(got),
        metrics_lines(stock),
        "{case}/{engine}: 1-chip cluster metrics diverged"
    );
}

/// The three Flex fixture seeds (including the mixed-fault one), each run
/// stock, then with a 1-chip cluster on FlexEngine, then with a 1-chip
/// cluster on HierEngine — all three must be byte-identical, and the stock
/// trace must still match the on-disk fixture so the gate is anchored to
/// the recorded seeds rather than to itself.
#[test]
fn one_chip_cluster_is_byte_identical_to_stock_flex() {
    let mixed = || {
        FaultPlan::new(0xFA_17)
            .kill_pe(5, Time::from_us(2))
            .stall_pe(1, Time::from_us(1), 400)
            .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 400, 6)
            .drop_messages(NetClass::Task, Time::ZERO, Time::MAX, 400, 4)
            .duplicate_messages(NetClass::Arg, Time::ZERO, Time::MAX, 400, 6)
            .duplicate_messages(NetClass::Task, Time::ZERO, Time::MAX, 400, 4)
            .corrupt_pstore(0, Time::from_us(3), 0xFFFF)
    };
    let cases: [(&str, &str, usize, usize, Option<FaultPlan>); 3] = [
        ("queens_flex_1x4", "queens", 1, 4, None),
        ("uts_flex_2x4", "uts", 2, 4, None),
        (
            "queens_flex_2x4_mixed_faults",
            "queens",
            2,
            4,
            Some(mixed()),
        ),
    ];
    for (fixture, bench, tiles, pes, plan) in cases {
        let stock = run_flex(flex_config(tiles, pes, plan.clone()), bench);

        // Anchor: the stock run still reproduces the recorded fixture.
        let fixture_path = fixture_dir().join(format!("{fixture}.trace.jsonl"));
        let want = std::fs::read_to_string(&fixture_path).unwrap_or_else(|e| {
            panic!(
                "{fixture}: missing fixture {} ({e})",
                fixture_path.display()
            )
        });
        assert_eq!(
            stock.trace.to_jsonl(),
            want,
            "{fixture}: stock run no longer matches the recorded fixture"
        );

        // Gate: a 1-chip cluster is invisible on either engine.
        let mut clustered = flex_config(tiles, pes, plan.clone());
        clustered.cluster = Some(ClusterConfig::new(1));
        assert_same_bytes(fixture, "flex", &stock, &run_flex(clustered.clone(), bench));
        assert_same_bytes(fixture, "hier", &stock, &run_hier(clustered, bench));
    }
}

/// The flat-stealing 1-chip variant is equally invisible: `StealMode` only
/// matters across a chip boundary, which a 1-chip cluster does not have.
#[test]
fn one_chip_flat_cluster_is_also_invisible() {
    let stock = run_flex(flex_config(2, 4, None), "uts");
    let mut cfg = flex_config(2, 4, None);
    cfg.cluster = Some(ClusterConfig::new(1).flat());
    assert_same_bytes("uts_flex_2x4", "flex-flat", &stock, &run_flex(cfg, "uts"));
}

fn run_central(cfg: AccelConfig, bench_name: &str) -> AccelResult {
    let bench = by_name(bench_name, Scale::Tiny).unwrap();
    let mut engine = CentralEngine::new(cfg, bench.profile());
    let inst = bench.flex(engine.mem_mut());
    let mut worker = inst.worker;
    let out = engine
        .run(Workload::dynamic(worker.as_mut(), inst.root))
        .expect("run completes");
    bench
        .check(engine.memory(), out.result)
        .expect("run stays golden");
    out
}

/// The centralized-queue ablation shares the fabric, so the 1-chip gate
/// must hold for it too: wrapping a stock central run in a 1-chip cluster
/// changes no trace or metric byte.
#[test]
fn one_chip_cluster_is_byte_identical_to_stock_central() {
    for bench in ["uts", "queens"] {
        let mut stock_cfg = AccelConfig::central(2, 4);
        stock_cfg.trace_capacity = TRACE_CAPACITY;
        let stock = run_central(stock_cfg.clone(), bench);
        let mut clustered = stock_cfg;
        clustered.cluster = Some(ClusterConfig::new(1));
        assert_same_bytes(
            &format!("{bench}_central_2x4"),
            "central",
            &stock,
            &run_central(clustered, bench),
        );
    }
}
