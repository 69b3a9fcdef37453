//! Tracing through the unified [`Engine`] API is deterministic: two runs
//! of the same spec serialize to byte-identical JSONL, with or without a
//! seeded fault plan.
//!
//! [`Engine`]: parallelxl::Engine

use parallelxl::apps::{by_name, Scale};
use parallelxl::dse::{DesignPoint, PointArch};
use parallelxl::sim::qcheck::{check, Gen};
use parallelxl::{FaultPlan, NetClass, RunSpec, SimulationBuilder, Time, Workload};

/// Two traced runs of the same seed/configuration serialize to
/// byte-identical JSONL — the trace is deterministic, ordered, and stable.
#[test]
fn same_seed_traces_are_byte_identical() {
    let run_traced = |bench_name: &str| {
        let bench = by_name(bench_name, Scale::Tiny).expect("known benchmark");
        let spec = RunSpec::new(
            bench_name,
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 1, 4),
        )
        .with_trace(1 << 16);
        let mut engine = SimulationBuilder::from_run_spec(&spec)
            .and_then(|b| b.build())
            .expect("valid config");
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .expect("traced run");
        assert!(!out.trace.is_empty(), "trace captured events");
        out.trace.to_jsonl()
    };

    for name in ["queens", "uts", "spmvcrs"] {
        let first = run_traced(name);
        let second = run_traced(name);
        assert_eq!(
            first, second,
            "{name}: traces diverge across same-seed runs"
        );
        assert!(first
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}

/// Any seeded fault plan replays byte-identically: two traced runs of the
/// same `(plan, workload)` pair serialize to the same JSONL and produce the
/// same result, elapsed time, and metrics — the whole point of seeding the
/// fault scheduler.
#[test]
fn any_seeded_fault_plan_replays_byte_identically() {
    check(10, "fault plans replay byte-identically", |g: &mut Gen| {
        // Bounded random plan against flex(2, 4): kill/stall a minority of
        // the 8 PEs and keep drop budgets below the retry limit so every
        // generated plan is survivable.
        let mut plan = FaultPlan::new(g.range(0, u64::MAX));
        // A single message is retried at most MAX_SEND_RETRIES (8) times, so
        // the drop budget across all specs stays at 8 to guarantee delivery.
        let mut drops_left = 8u64;
        for _ in 0..g.usize_in(1, 5) {
            plan = match g.range(0, 5) {
                0 => plan.kill_pe(g.usize_in(0, 8), Time::from_us(g.range(0, 20))),
                1 => plan.stall_pe(
                    g.usize_in(0, 8),
                    Time::from_us(g.range(0, 20)),
                    g.range(1, 2_000),
                ),
                2 if drops_left > 0 => {
                    let budget = g.range(1, drops_left + 1);
                    drops_left -= budget;
                    plan.drop_messages(
                        *g.pick(&[NetClass::Arg, NetClass::Task]),
                        Time::ZERO,
                        Time::MAX,
                        g.range(1, 1_001) as u16,
                        budget as u32,
                    )
                }
                2 | 3 => plan.duplicate_messages(
                    *g.pick(&[NetClass::Arg, NetClass::Task]),
                    Time::ZERO,
                    Time::MAX,
                    g.range(1, 1_001) as u16,
                    g.range(1, 9) as u32,
                ),
                _ => plan.corrupt_pstore(
                    g.usize_in(0, 2),
                    Time::from_us(g.range(0, 20)),
                    g.range(1, u64::MAX),
                ),
            };
        }
        let bench_name = *g.pick(&["queens", "uts"]);

        let run_traced = || {
            let bench = by_name(bench_name, Scale::Tiny).expect("known");
            let spec = RunSpec::new(
                bench_name,
                Scale::Tiny,
                DesignPoint::accel(PointArch::Flex, 2, 4),
            )
            .with_faults(plan.clone())
            .with_trace(1 << 16);
            let mut engine = SimulationBuilder::from_run_spec(&spec)
                .and_then(|b| b.build())
                .expect("valid faulted config");
            let inst = bench.flex(engine.mem_mut());
            let mut worker = inst.worker;
            let out = engine
                .run(Workload::dynamic(worker.as_mut(), inst.root))
                .expect("bounded plans are survivable");
            bench
                .check(engine.memory(), out.result)
                .expect("faulted run stays golden");
            (out.trace.to_jsonl(), out.result, out.elapsed, out.metrics)
        };

        let (trace_a, result_a, elapsed_a, metrics_a) = run_traced();
        let (trace_b, result_b, elapsed_b, metrics_b) = run_traced();
        assert_eq!(trace_a, trace_b, "{bench_name}: fault replay diverged");
        assert_eq!(result_a, result_b);
        assert_eq!(elapsed_a, elapsed_b);
        assert_eq!(metrics_a, metrics_b);
        assert_eq!(
            metrics_a.get("fault.recovered"),
            metrics_a.get("fault.injected"),
            "{bench_name}: recovery accounting must balance"
        );
    });
}

/// A finished engine has handed its metrics to the result, so a second run
/// on it is refused with a typed error on every engine, and a restore makes
/// it runnable again: the rerun repeats the first run exactly.
#[test]
fn a_finished_engine_refuses_to_run_until_restored() {
    use parallelxl::arch::{LiteDriver, RunStatus};
    use parallelxl::{AccelError, AccelResult, Engine, EngineKind, Task, Worker};

    type Instance = (Box<dyn Worker>, Result<Task, Box<dyn LiteDriver>>);

    fn run(engine: &mut dyn Engine, inst: &mut Instance) -> Result<AccelResult, AccelError> {
        let (worker, shape) = inst;
        let workload = match shape {
            Ok(root) => Workload::dynamic(worker.as_mut(), *root),
            Err(driver) => Workload::rounds(worker.as_mut(), driver.as_mut()),
        };
        match engine.run_until(workload, None)? {
            RunStatus::Finished(out) => Ok(out),
            RunStatus::Paused { .. } => unreachable!("no pause boundary was requested"),
        }
    }

    for point in [
        DesignPoint::accel(PointArch::Flex, 2, 2),
        DesignPoint::accel(PointArch::Lite, 2, 2),
        DesignPoint::cpu(4),
    ] {
        let spec = RunSpec::new("uts", Scale::Tiny, point);
        let bench = by_name("uts", Scale::Tiny).unwrap();
        let mut engine = SimulationBuilder::from_run_spec(&spec)
            .and_then(|b| b.build())
            .unwrap();
        // A LiteArch driver is a pure function of `(mem, round)`, so the
        // restored run reuses the first run's driver as well as its worker.
        let mut inst: Instance = if engine.kind() == EngineKind::Lite {
            let inst = bench.lite(engine.mem_mut()).unwrap();
            (inst.worker, Err(inst.driver))
        } else {
            let inst = bench.flex(engine.mem_mut());
            (inst.worker, Ok(inst.root))
        };
        let fresh = engine.snapshot();
        let first = run(engine.as_mut(), &mut inst).unwrap();
        let err = run(engine.as_mut(), &mut inst).unwrap_err();
        assert!(matches!(err, AccelError::Finished), "{spec:?}: {err}");
        assert!(err.to_string().contains("already finished"), "{err}");
        engine.restore(&fresh).unwrap();
        let again = run(engine.as_mut(), &mut inst).unwrap();
        assert_eq!(again.result, first.result, "{spec:?}");
        assert_eq!(again.elapsed, first.elapsed, "{spec:?}");
        assert_eq!(again.metrics.to_json(), first.metrics.to_json(), "{spec:?}");
    }
}
