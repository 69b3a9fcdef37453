//! Fault-injection acceptance tests: a seeded [`FaultPlan`] must be
//! survivable (every Table II workload completes with golden results and
//! `fault.recovered == fault.injected`), replayable (same seed, byte-equal
//! trace), and diagnosable (the quiescence watchdog names the stalled unit
//! when recovery is impossible).

use parallelxl::apps::{by_name, suite, Scale};
use parallelxl::arch::{AccelConfig, FlexEngine, LiteEngine};
use parallelxl::{
    AccelError, DesignPoint, Engine, FaultPlan, NetClass, PointArch, RunSpec, SimulationBuilder,
    Time, Workload,
};

/// Runs `bench` on FlexArch with `cfg`, returning the engine result.
fn run_flex_cfg(
    cfg: AccelConfig,
    bench: &dyn parallelxl::apps::Benchmark,
) -> parallelxl::AccelResult {
    let mut engine = FlexEngine::new(cfg, bench.profile());
    let inst = bench.flex(engine.mem_mut());
    let mut worker = inst.worker;
    let out = engine
        .run(Workload::dynamic(worker.as_mut(), inst.root))
        .expect("faulted run completes");
    bench
        .check(engine.memory(), out.result)
        .expect("faulted run stays golden");
    out
}

/// Killing one PE early in the run leaves every Table II workload
/// golden-correct with results identical to the fault-free run, and every
/// injected fault accounted as recovered.
#[test]
fn single_pe_death_is_survived_by_every_benchmark() {
    for bench in suite(Scale::Tiny) {
        let name = bench.meta().name;
        let cfg = AccelConfig::flex(2, 4);

        let clean = run_flex_cfg(cfg.clone(), bench.as_ref());

        let mut faulted_cfg = cfg;
        faulted_cfg.fault_plan = Some(FaultPlan::new(7).kill_pe(2, Time::from_us(1)));
        let faulted = run_flex_cfg(faulted_cfg, bench.as_ref());

        assert_eq!(
            clean.result, faulted.result,
            "{name}: PE death changed the computed result"
        );
        let m = &faulted.metrics;
        assert_eq!(m.get("fault.pe_deaths"), 1, "{name}: death must fire");
        assert_eq!(
            m.get("fault.recovered"),
            m.get("fault.injected"),
            "{name}: every injected fault must be recovered"
        );
        assert_eq!(m.get("fault.unrecovered"), 0, "{name}: nothing unrecovered");
    }
}

/// A mixed plan (death + stall + drops + dups + corruption) still completes
/// with golden results and balanced recovery accounting.
#[test]
fn mixed_fault_plan_is_survived() {
    for name in ["queens", "uts", "knapsack"] {
        let bench = by_name(name, Scale::Tiny).expect("known benchmark");
        let mut cfg = AccelConfig::flex(2, 4);
        cfg.fault_plan = Some(
            FaultPlan::new(0xFA_17)
                .kill_pe(5, Time::from_us(2))
                .stall_pe(1, Time::from_us(1), 400)
                .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 400, 6)
                .drop_messages(NetClass::Task, Time::ZERO, Time::MAX, 400, 4)
                .duplicate_messages(NetClass::Arg, Time::ZERO, Time::MAX, 400, 6)
                .duplicate_messages(NetClass::Task, Time::ZERO, Time::MAX, 400, 4)
                .corrupt_pstore(0, Time::from_us(3), 0xFFFF),
        );
        let out = run_flex_cfg(cfg, bench.as_ref());
        let m = &out.metrics;
        assert!(m.get("fault.injected") > 0, "{name}: plan must inject");
        assert_eq!(
            m.get("fault.recovered"),
            m.get("fault.injected"),
            "{name}: recovery accounting must balance"
        );
        assert_eq!(m.get("fault.unrecovered"), 0, "{name}: nothing unrecovered");
    }
}

/// Dropped messages are retransmitted with bounded backoff until delivered.
#[test]
fn dropped_messages_are_retried_to_delivery() {
    let bench = by_name("queens", Scale::Tiny).unwrap();
    let mut cfg = AccelConfig::flex(2, 4);
    cfg.fault_plan = Some(
        FaultPlan::new(11)
            .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 1000, 8)
            .drop_messages(NetClass::Task, Time::ZERO, Time::MAX, 1000, 4),
    );
    let out = run_flex_cfg(cfg, bench.as_ref());
    let m = &out.metrics;
    assert_eq!(
        m.get("fault.dropped_args") + m.get("fault.dropped_tasks"),
        12
    );
    assert!(m.get("fault.retries") > 0, "drops must trigger resends");
    assert_eq!(m.get("fault.recovered"), m.get("fault.injected"));
    assert_eq!(m.get("fault.unrecovered"), 0);
}

/// Duplicated messages are discarded at the receiver exactly once each.
#[test]
fn duplicated_messages_are_discarded_at_the_receiver() {
    let bench = by_name("uts", Scale::Tiny).unwrap();
    let mut cfg = AccelConfig::flex(2, 4);
    cfg.fault_plan = Some(
        FaultPlan::new(23)
            .duplicate_messages(NetClass::Arg, Time::ZERO, Time::MAX, 1000, 8)
            .duplicate_messages(NetClass::Task, Time::ZERO, Time::MAX, 1000, 4),
    );
    let out = run_flex_cfg(cfg, bench.as_ref());
    let m = &out.metrics;
    let dups = m.get("fault.dup_args") + m.get("fault.dup_tasks");
    assert_eq!(dups, 12, "both duplication budgets must be spent");
    assert_eq!(
        m.get("fault.dup_discarded"),
        dups,
        "every duplicate must be discarded exactly once"
    );
    assert_eq!(m.get("fault.recovered"), m.get("fault.injected"));
}

/// P-Store corruption is detected and repaired by the ECC scrub on the
/// entry's next argument fill; the join still completes correctly.
#[test]
fn pstore_corruption_is_scrubbed() {
    let bench = by_name("queens", Scale::Tiny).unwrap();
    let mut cfg = AccelConfig::flex(1, 4);
    cfg.fault_plan = Some(
        FaultPlan::new(5)
            .corrupt_pstore(0, Time::from_us(1), 0xDEAD)
            .corrupt_pstore(0, Time::from_us(2), 0xBEEF),
    );
    let out = run_flex_cfg(cfg, bench.as_ref());
    let m = &out.metrics;
    // A corruption that finds no live entry is counted as skipped, never
    // silently lost. (A fault scheduled past the end of the run never
    // fires at all, so only a lower bound is portable across timings.)
    assert!(m.get("fault.pstore_hits") + m.get("fault.skipped") >= 1);
    // One scrub can repair several accumulated upsets of the same entry, so
    // repairs is bounded by hits but only required once any hit landed.
    let hits = m.get("fault.pstore_hits");
    assert!(m.get("fault.pstore_repairs") <= hits);
    assert!(hits == 0 || m.get("fault.pstore_repairs") >= 1);
    assert_eq!(m.get("fault.recovered"), m.get("fault.injected"));
}

/// An empty fault plan changes nothing: same result, same cycle count, same
/// metrics as a run with no plan armed at all.
#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    let bench = by_name("spmvcrs", Scale::Tiny).unwrap();
    let clean = run_flex_cfg(AccelConfig::flex(1, 4), bench.as_ref());
    let mut cfg = AccelConfig::flex(1, 4);
    cfg.fault_plan = Some(FaultPlan::new(99));
    let armed = run_flex_cfg(cfg, bench.as_ref());
    assert_eq!(clean.result, armed.result);
    assert_eq!(clean.elapsed, armed.elapsed);
    assert_eq!(clean.metrics, armed.metrics);
}

/// When every argument message is dropped forever, retries exhaust and the
/// quiescence watchdog diagnoses the stall in bounded time, naming units.
#[test]
fn watchdog_diagnoses_an_unrecoverable_stall() {
    // Total loss on either network: arguments on one tile, ready tasks
    // routed between two tiles.
    let cases = [
        (NetClass::Arg, AccelConfig::flex(1, 4), "fault.dropped_args"),
        (
            NetClass::Task,
            AccelConfig::flex(2, 2),
            "fault.dropped_tasks",
        ),
    ];
    for (net, mut cfg, dropped) in cases {
        let bench = by_name("queens", Scale::Tiny).unwrap();
        cfg.watchdog_quiescence_cycles = 50_000;
        cfg.fault_plan = Some(FaultPlan::new(1).drop_messages(net, Time::ZERO, Time::MAX, 1000, 0));
        let mut engine = FlexEngine::new(cfg, bench.profile());
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let err = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .expect_err("total message loss cannot complete");
        match err {
            AccelError::Stalled { idle_us, .. } => {
                let msg = err.to_string();
                assert!(
                    msg.contains("watchdog"),
                    "diagnosis names the watchdog: {msg}"
                );
                assert!(msg.contains("unit"), "diagnosis names a unit: {msg}");
                // 50k cycles at 200 MHz is 250 us; the watchdog must not wait
                // for the multi-second hard time limit.
                assert!(
                    idle_us <= 1_000,
                    "stall flagged in bounded time: {idle_us} us"
                );
            }
            other => panic!("{net:?}: expected a watchdog stall, got: {other}"),
        }
        // Every lost message was sent once and retried to exhaustion.
        let m = engine.metrics();
        let unrecovered = m.get("fault.unrecovered");
        assert!(unrecovered >= 1, "{net:?}: a message must be lost");
        assert_eq!(m.get(dropped), 9 * unrecovered, "{net:?}: {dropped}");
        assert_eq!(m.get("fault.retries"), 8 * unrecovered, "{net:?}: retries");
    }
}

/// LiteArch statically reassigns a dead PE's chunks and pads past stall
/// windows; results stay golden and accounting balances.
#[test]
fn lite_survives_pe_death_and_stalls() {
    let bench = by_name("uts", Scale::Tiny).unwrap();
    let mut cfg = AccelConfig::lite(1, 4);
    cfg.fault_plan = Some(FaultPlan::new(3).kill_pe(1, Time::ZERO).stall_pe(
        2,
        Time::from_us(1),
        2_000,
    ));
    let mut engine = LiteEngine::new(cfg, bench.profile());
    let inst = bench
        .lite(engine.mem_mut())
        .expect("uts has a Lite mapping");
    let mut worker = inst.worker;
    let mut driver = inst.driver;
    let out = engine
        .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
        .expect("Lite survives the plan");
    bench
        .check(engine.memory(), out.result)
        .expect("Lite result stays golden");
    let m = &out.metrics;
    assert_eq!(m.get("fault.pe_deaths"), 1);
    assert_eq!(m.get("fault.pe_stalls"), 1);
    assert!(
        m.get("fault.rescued_tasks") > 0,
        "chunks must be reassigned"
    );
    assert_eq!(m.get("fault.recovered"), m.get("fault.injected"));
}

/// Lite accounts its static schedule against the finished run: a PE's
/// earliest death wins, and a later death of the same PE or any fault past
/// the run's end is skipped.
#[test]
fn lite_skips_shadowed_and_late_faults() {
    let bench = by_name("uts", Scale::Tiny).unwrap();
    let late = Time::from_us(100_000);
    let mut cfg = AccelConfig::lite(1, 4);
    cfg.fault_plan = Some(
        FaultPlan::new(5)
            .kill_pe(1, Time::from_us(2))
            .kill_pe(1, Time::ZERO)
            .kill_pe(3, late)
            .stall_pe(2, late, 2_000),
    );
    let mut engine = LiteEngine::new(cfg, bench.profile());
    let inst = bench
        .lite(engine.mem_mut())
        .expect("uts has a Lite mapping");
    let mut worker = inst.worker;
    let mut driver = inst.driver;
    let out = engine
        .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
        .expect("Lite survives the plan");
    bench
        .check(engine.memory(), out.result)
        .expect("Lite result stays golden");
    assert!(out.elapsed < late, "the run ends before {late}");
    let m = &out.metrics;
    assert_eq!(m.get("fault.pe_deaths"), 1);
    assert_eq!(m.get("fault.pe_stalls"), 0);
    assert_eq!(m.get("fault.skipped"), 3);
    assert_eq!(m.get("fault.recovered"), m.get("fault.injected"));
}

/// Killing every Lite PE leaves undispatchable work; the watchdog reports
/// the stall instead of spinning.
#[test]
fn lite_with_all_pes_dead_stalls_with_a_diagnosis() {
    let bench = by_name("uts", Scale::Tiny).unwrap();
    let mut cfg = AccelConfig::lite(1, 4);
    let mut plan = FaultPlan::new(4);
    for pe in 0..4 {
        plan = plan.kill_pe(pe, Time::ZERO);
    }
    cfg.fault_plan = Some(plan);
    let mut engine = LiteEngine::new(cfg, bench.profile());
    let inst = bench
        .lite(engine.mem_mut())
        .expect("uts has a Lite mapping");
    let mut worker = inst.worker;
    let mut driver = inst.driver;
    let err = engine
        .run(Workload::rounds(worker.as_mut(), driver.as_mut()))
        .expect_err("no live PE can dispatch");
    match err {
        AccelError::Stalled { blocked_unit, .. } => {
            assert!(
                blocked_unit.is_some(),
                "diagnosis must name the unit holding undispatched work"
            );
        }
        other => panic!("expected a watchdog stall, got: {other}"),
    }
}

/// Invalid fault plans are rejected as recoverable configuration errors at
/// construction, through both the engine and builder entry points.
#[test]
fn invalid_fault_plans_are_rejected_up_front() {
    let profile = parallelxl::ExecProfile::scalar();

    // A plan referencing a PE outside the geometry.
    let mut cfg = AccelConfig::flex(1, 4);
    cfg.fault_plan = Some(FaultPlan::new(0).kill_pe(99, Time::ZERO));
    let err = FlexEngine::try_new(cfg, profile).expect_err("PE 99 does not exist");
    assert!(
        matches!(err, AccelError::InvalidConfig(_)),
        "expected InvalidConfig, got: {err}"
    );
    assert!(err.to_string().contains("PE 99"), "{err}");

    // LiteArch rejects network and P-Store faults it cannot model.
    let lite_plan = FaultPlan::new(0).drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 10, 0);
    let build = |point: DesignPoint, plan: FaultPlan| {
        let spec = RunSpec::new("uts", Scale::Tiny, point)
            .with_profile(profile)
            .with_faults(plan);
        SimulationBuilder::from_run_spec(&spec).and_then(|b| b.build())
    };
    let err = build(DesignPoint::accel(PointArch::Lite, 1, 4), lite_plan)
        .expect_err("LiteArch has no routed networks");
    assert!(err.to_string().contains("LiteArch"), "{err}");

    // The CPU baseline has no modelled fault surface at all.
    let err = build(
        DesignPoint::cpu(2),
        FaultPlan::new(0).kill_pe(0, Time::ZERO),
    )
    .expect_err("CPU target rejects fault plans");
    assert!(err.to_string().contains("accelerator"), "{err}");
}

/// Traced fault runs emit the fault/watchdog event vocabulary and the
/// injected/recovered events agree with the counters.
#[test]
fn fault_trace_events_match_the_counters() {
    let bench = by_name("queens", Scale::Tiny).unwrap();
    let mut cfg = AccelConfig::flex(2, 4);
    cfg.fault_plan = Some(
        FaultPlan::new(77)
            .kill_pe(3, Time::from_us(1))
            .drop_messages(NetClass::Arg, Time::ZERO, Time::MAX, 500, 4),
    );
    cfg.trace_capacity = 1 << 16;
    let mut engine = FlexEngine::new(cfg, bench.profile());
    let inst = bench.flex(engine.mem_mut());
    let mut worker = inst.worker;
    let out = engine
        .run(Workload::dynamic(worker.as_mut(), inst.root))
        .expect("faulted run completes");
    let jsonl = out.trace.to_jsonl();
    let count = |kind: &str| {
        jsonl
            .lines()
            .filter(|l| l.contains(&format!("\"kind\":\"{kind}\"")))
            .count() as u64
    };
    assert_eq!(count("fault.injected"), out.metrics.get("fault.injected"));
    assert_eq!(count("fault.recovered"), out.metrics.get("fault.recovered"));
    assert_eq!(count("watchdog.stall"), 0, "this plan is survivable");
}
