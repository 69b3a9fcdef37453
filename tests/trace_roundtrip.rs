//! Trace serialization round-trip: [`Tracer::to_jsonl`] output parsed by
//! `pxl_profile::parse_jsonl` must reproduce the in-memory records exactly
//! — same count, same order, same payloads — for real traces from every
//! engine, including faulted runs. The re-rendered JSONL must also be
//! byte-identical to the original dump, closing the loop in both
//! directions.

use parallelxl::apps::{suite, Scale};
use parallelxl::profile::{parse_jsonl, parse_line};
use parallelxl::{
    execute, ClusterConfig, DesignPoint, FaultPlan, PointArch, RunSpec, Time, TraceEvent,
    TraceRecord, Tracer,
};

/// Runs `spec` traced and returns the trace.
fn traced_run(spec: RunSpec) -> Tracer {
    let name = spec.benchmark.clone();
    execute(&spec.with_trace(1 << 18))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .expect("a dynamic engine runs every benchmark")
        .trace
}

fn flex(tiles: usize, pes: usize) -> DesignPoint {
    DesignPoint::accel(PointArch::Flex, tiles, pes)
}

fn assert_roundtrip(name: &str, trace: &Tracer) {
    let dump = trace.to_jsonl();
    let parsed: Vec<TraceRecord> =
        parse_jsonl(&dump).unwrap_or_else(|e| panic!("{name}: dump does not parse: {e}"));
    assert_eq!(
        parsed.len(),
        trace.len(),
        "{name}: record count changed across the round trip"
    );
    for (i, (got, want)) in parsed.iter().zip(trace.records()).enumerate() {
        assert_eq!(
            got, want,
            "{name}: record {i} changed across the round trip"
        );
    }
    // Ordering is the finished tracer's contract: nondecreasing time,
    // sequence numbers dense from zero.
    for (i, pair) in parsed.windows(2).enumerate() {
        assert!(
            pair[0].at <= pair[1].at,
            "{name}: time went backwards at record {i}"
        );
    }
    for (i, r) in parsed.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "{name}: seq not dense at record {i}");
    }
    // Re-rendering the parsed records must reproduce the dump exactly.
    let rerendered: String = parsed.iter().map(|r| r.to_json() + "\n").collect();
    assert_eq!(rerendered, dump, "{name}: re-rendered JSONL diverges");
}

#[test]
fn every_benchmark_trace_round_trips_on_flex() {
    for bench in suite(Scale::Tiny) {
        let name = bench.meta().name;
        let trace = traced_run(RunSpec::new(name, Scale::Tiny, flex(2, 4)));
        assert!(!trace.is_empty(), "{name}: flex run produced no events");
        assert_roundtrip(name, &trace);
    }
}

#[test]
fn cpu_and_central_traces_round_trip() {
    let cpu = traced_run(RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(4)));
    assert_roundtrip("uts/cpu", &cpu);
    let central = traced_run(RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Central, 2, 4),
    ));
    assert_roundtrip("uts/central", &central);
}

#[test]
fn faulted_trace_round_trips_including_fault_events() {
    let trace = traced_run(
        RunSpec::new("queens", Scale::Tiny, flex(2, 4))
            .with_faults(FaultPlan::new(0xD1E).kill_pe(3, Time::from_us(2))),
    );
    assert!(
        trace
            .records()
            .iter()
            .any(|r| r.event.kind().starts_with("fault.")),
        "the kill must appear in the trace"
    );
    assert_roundtrip("queens/kill1", &trace);
}

#[test]
fn task_ids_survive_the_round_trip() {
    use parallelxl::TraceEvent;
    let trace = traced_run(RunSpec::new("queens", Scale::Tiny, flex(1, 4)));
    let dump = trace.to_jsonl();
    let parsed = parse_jsonl(&dump).unwrap();
    let dispatched: Vec<u64> = parsed
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::TaskDispatch { task, .. } => Some(task),
            _ => None,
        })
        .collect();
    assert!(!dispatched.is_empty());
    assert!(
        dispatched.iter().all(|&t| t != 0),
        "every dispatch must carry a stamped task id"
    );
    assert!(
        dispatched.contains(&1),
        "the root task (id 1) must be dispatched"
    );
}

#[test]
fn malformed_lines_are_rejected_with_context() {
    assert!(parse_line("{\"t_ps\":1,\"seq\":0}").is_err());
    let err = parse_jsonl("{\"t_ps\":1,\"seq\":0,\"kind\":\"spawn\",\"unit\":0,\"ty\":0,\"parent\":0,\"child\":1}\nnot json\n")
        .unwrap_err();
    assert!(err.starts_with("line 2:"), "got: {err}");
}

#[test]
fn cluster_traces_with_link_transfers_round_trip() {
    let point = DesignPoint::accel(PointArch::Flex, 4, 2).clustered(ClusterConfig::new(2));
    let spec = RunSpec::new("uts", Scale::Tiny, point).with_trace(1 << 18);
    let out = execute(&spec)
        .expect("a 2-chip uts run succeeds")
        .expect("uts maps onto flex");
    assert!(
        out.trace
            .records()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::LinkXfer { .. })),
        "a 2-chip run sends messages over the link"
    );
    assert_eq!(
        parse_jsonl(&out.trace.to_jsonl()).expect("the profiler reads cluster traces"),
        out.trace.records()
    );
    assert_roundtrip("uts on a 2-chip cluster", &out.trace);
}

#[test]
fn out_of_range_fields_are_refused_not_truncated() {
    let line = "{\"t_ps\":5,\"seq\":0,\"kind\":\"steal_fail\",\"thief\":4294967297,\"victim\":0}";
    let err = parse_line(line).unwrap_err();
    assert!(
        err.contains("thief") && err.contains("out of range"),
        "{err}"
    );
    let fits = line.replace("4294967297", "4294967295");
    assert!(matches!(
        parse_line(&fits).unwrap().event,
        TraceEvent::StealFail {
            thief: u32::MAX,
            victim: 0
        }
    ));
}
