//! Wire-protocol and service-contract tests for simulation-as-a-service:
//! property-based round-trips of [`RunSpec`] and [`JobEvent`] (driven by
//! the vendored `pxl_sim::qcheck` harness), typed rejection of malformed
//! requests over a real socket, and the end-to-end determinism guarantee —
//! the same spec submitted twice returns byte-identical payloads, the
//! second from the content-addressed cache. The last group pins the
//! transport and the server's limits: round trips free of delayed-ACK
//! waits, the line and connection caps, the line deadline, stalled
//! readers (detached, and never holding up dispatch) and panicking jobs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use parallelxl::benchmarks::Scale;
use parallelxl::serve::{
    journal, measurement_to_json_value, Client, ClientError, ErrorCode, JobEvent, JobId, JobKind,
    Request, Server, ServerConfig,
};
use parallelxl::sim::json::JsonValue;
use parallelxl::sim::qcheck::{check, Gen};
use parallelxl::sim::Snapshot;
use parallelxl::sim::{FaultPlan, NetClass, Time};
use parallelxl::{DesignPoint, ExecProfile, PointArch, RunSpec};

fn arb_point(g: &mut Gen) -> DesignPoint {
    if g.ratio(1, 4) {
        return DesignPoint::cpu(g.usize_in(1, 16));
    }
    let arch = *g.pick(&[PointArch::Flex, PointArch::Central, PointArch::Lite]);
    DesignPoint {
        arch,
        tiles: g.usize_in(1, 8),
        pes_per_tile: g.usize_in(1, 16),
        cache_kb: g.usize_in(1, 64),
        task_queue_entries: g.usize_in(1, 4096),
        pstore_entries: g.usize_in(1, 16384),
        cluster: None,
    }
}

fn arb_faults(g: &mut Gen) -> FaultPlan {
    let mut plan = FaultPlan::new(g.u64());
    for _ in 0..g.usize_in(1, 4) {
        let at = Time::from_ps(g.range(1, 1_000_000_000));
        plan = match g.range(0, 5) {
            0 => plan.kill_pe(g.usize_in(0, 15), at),
            1 => plan.stall_pe(g.usize_in(0, 15), at, g.range(1, 100_000)),
            2 => {
                let net = *g.pick(&[NetClass::Task, NetClass::Arg]);
                plan.drop_messages(
                    net,
                    at,
                    at + Time::from_ps(g.range(1, 1_000_000)),
                    g.range(1, 1000) as u16,
                    g.range(0, 100) as u32,
                )
            }
            3 => {
                let net = *g.pick(&[NetClass::Task, NetClass::Arg]);
                plan.duplicate_messages(
                    net,
                    at,
                    at + Time::from_ps(g.range(1, 1_000_000)),
                    g.range(1, 1000) as u16,
                    g.range(0, 100) as u32,
                )
            }
            _ => plan.corrupt_pstore(g.usize_in(0, 7), at, g.u64()),
        };
    }
    plan
}

fn arb_spec(g: &mut Gen) -> RunSpec {
    let bench = *g.pick(&["uts", "queens", "cilksort", "bfsqueue", "made-up"]);
    let scale = *g.pick(&[Scale::Tiny, Scale::Small, Scale::Paper]);
    let mut spec = RunSpec::new(bench, scale, arb_point(g));
    if g.bool() {
        spec = spec.with_trace(g.usize_in(1, 1 << 20));
    }
    if g.ratio(1, 3) {
        // Strictly positive, non-round floats so exact f64 round-tripping
        // is actually exercised.
        spec = spec.with_profile(ExecProfile::new(
            g.range(1, 1_000_000) as f64 / 997.0,
            g.range(1, 1_000_000) as f64 / 131.0,
        ));
    }
    if g.ratio(1, 3) {
        spec = spec.with_faults(arb_faults(g));
    }
    spec
}

/// Any spec survives JSON exactly: parse(render(s)) == s, re-rendering is
/// byte-identical, and the canonical identity is stable across the trip.
#[test]
fn run_specs_round_trip_exactly() {
    check(128, "RunSpec JSON round-trip", |g: &mut Gen| {
        let spec = arb_spec(g);
        let json = spec.to_json();
        let back = RunSpec::from_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json, "re-render must be byte-identical");
        assert_eq!(back.canonical(), spec.canonical());
    });
}

fn arb_event(g: &mut Gen) -> JobEvent {
    let job = JobId(g.u64());
    let result = parallelxl::dse::Measurement {
        kernel_ps: g.u64(),
        whole_ps: g.u64(),
        energy_j: g.range(1, u64::MAX) as f64 / 1.7e18,
        lut: g.range(0, 1 << 20),
        bram18: g.range(0, 1 << 10),
    };
    match g.range(0, 12) {
        0 => JobEvent::Accepted {
            job,
            tenant: format!("tenant-{}", g.range(0, 100)),
            key: format!("{:016x}", g.u64()),
        },
        1 => JobEvent::Queued {
            job,
            position: g.range(0, 1000),
        },
        2 => JobEvent::Running { job },
        3 => JobEvent::Metrics {
            job,
            kernel_ps: g.u64(),
            steal_attempts: g.u64(),
            dram_bytes: g.u64(),
            trace_events: g.u64(),
        },
        4 => JobEvent::Done {
            job,
            cached: g.bool(),
            result,
            trace_events: g.bool().then(|| g.u64()),
            resumed_from_cycle: g.bool().then(|| g.u64()),
        },
        5 => JobEvent::Failed {
            job,
            error: format!("uts on flex/{}u failed: watchdog", g.range(1, 64)),
        },
        6 => JobEvent::Error {
            code: *g.pick(&[
                ErrorCode::BadJson,
                ErrorCode::BadRequest,
                ErrorCode::UnknownOp,
                ErrorCode::BadSpec,
                ErrorCode::QuotaExceeded,
                ErrorCode::Draining,
                ErrorCode::LineTooLong,
                ErrorCode::Overloaded,
            ]),
            message: format!("case {}", g.u64()),
        },
        7 => JobEvent::Status {
            queued: g.range(0, 1000),
            running: g.range(0, 64),
            completed: g.u64(),
            failed: g.u64(),
            paused: g.bool(),
            draining: g.bool(),
        },
        8 => JobEvent::Preempted {
            job,
            cycle: g.u64(),
        },
        9 => JobEvent::Stats {
            tenants: (0..g.usize_in(0, 3))
                .map(|i| (format!("tenant-{i}"), g.range(0, 100)))
                .collect(),
            queued: g.range(0, 1000),
            running: g.range(0, 64),
            completed: g.u64(),
            failed: g.u64(),
            recovered: g.u64(),
            resumed: g.u64(),
            preempted: g.u64(),
            journal_torn: g.u64(),
            journal: g.bool(),
            paused: g.bool(),
            draining: g.bool(),
        },
        10 => JobEvent::Progress {
            job,
            cycle: g.u64(),
            tasks: g.u64(),
            tasks_per_sec: g.u64(),
        },
        _ => JobEvent::Drained { completed: g.u64() },
    }
}

/// Any event survives the wire exactly, including `u64::MAX` counters and
/// awkward `f64` energies.
#[test]
fn job_events_round_trip_exactly() {
    check(256, "JobEvent JSON round-trip", |g: &mut Gen| {
        let event = arb_event(g);
        let line = event.to_json();
        let back = JobEvent::from_json(&line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        assert_eq!(back, event);
        assert_eq!(back.to_json(), line, "re-render must be byte-identical");
    });
}

/// Malformed lines sent over a real socket come back as typed `error`
/// events with the documented codes — the server never disconnects or
/// crashes on garbage.
#[test]
fn malformed_requests_are_rejected_with_typed_codes() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let cases = [
        ("{\"op\":", ErrorCode::BadJson),
        ("42", ErrorCode::BadRequest),
        ("{\"op\":\"emit\"}", ErrorCode::UnknownOp),
        ("{\"op\":\"submit\",\"kind\":\"sim\"}", ErrorCode::BadRequest),
        (
            "{\"op\":\"submit\",\"tenant\":\"t\",\"kind\":\"sim\",\"spec\":{\"benchmark\":\"uts\"}}",
            ErrorCode::BadSpec,
        ),
    ];
    for (line, expected) in cases {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match JobEvent::from_json(reply.trim_end()).unwrap() {
            JobEvent::Error { code, message } => {
                assert_eq!(code, expected, "{line} → {code:?}: {message}");
                assert!(!message.is_empty());
                if code == ErrorCode::UnknownOp {
                    assert!(
                        message.contains("\"emit\""),
                        "an unknown-op rejection must name the op: {message:?}"
                    );
                }
            }
            other => panic!("{line}: expected a typed error, got {other:?}"),
        }
    }
    // The connection is still healthy after all that garbage.
    writeln!(writer, "{}", Request::Status.to_json()).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(matches!(
        JobEvent::from_json(reply.trim_end()).unwrap(),
        JobEvent::Status {
            queued: 0,
            running: 0,
            ..
        }
    ));
    let mut client = Client::connect(server.addr()).unwrap();
    client.drain().unwrap();
    server.join();
}

/// One wire line nested far past the JSON depth limit is refused as
/// `bad_json` instead of overflowing the connection thread's stack and
/// aborting the server; a fresh connection is still served afterwards.
#[test]
fn deeply_nested_lines_are_refused_without_killing_the_server() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{}", "[".repeat(100_000)).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match JobEvent::from_json(reply.trim_end()).unwrap() {
        JobEvent::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadJson, "{message}");
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!((stats.queued, stats.running, stats.completed), (0, 0, 0));
    client.drain().unwrap();
    server.join();
}

/// The determinism contract end to end: submitting the same spec twice
/// yields byte-identical `done` payloads, and the second is a pure
/// content-addressed cache hit.
#[test]
fn same_spec_twice_is_deterministic_and_cached() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = RunSpec::new(
        "queens",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    );
    let (j1, key1) = client.submit_with_key("ci", JobKind::Dse, &spec).unwrap();
    let first = client.wait(j1).unwrap();
    let (j2, key2) = client.submit_with_key("ci", JobKind::Dse, &spec).unwrap();
    let second = client.wait(j2).unwrap();
    assert_eq!(key1, key2, "identical specs must share a content address");
    let (
        JobEvent::Done {
            cached: c1,
            result: r1,
            ..
        },
        JobEvent::Done {
            cached: c2,
            result: r2,
            ..
        },
    ) = (&first, &second)
    else {
        panic!("expected done events, got {first:?} / {second:?}");
    };
    assert!(!*c1, "first submission must simulate");
    assert!(*c2, "second submission must be a cache hit");
    assert_eq!(
        measurement_to_json_value(r1).to_json(),
        measurement_to_json_value(r2).to_json(),
        "payloads must be byte-identical"
    );
    client.drain().unwrap();
    let summary = server.join();
    assert_eq!(summary.cache_hits, 1);
    assert_eq!(summary.cache_misses, 1);
}

/// The `stats` op over a real socket: the reply is byte-stable (two asks
/// against unchanged state are identical lines), and the typed
/// `Client::stats()` reflects completed work and per-tenant depths.
#[test]
fn stats_round_trips_over_a_socket_and_is_byte_stable() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut lines = Vec::new();
    for _ in 0..2 {
        writeln!(writer, "{}", Request::Stats.to_json()).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        lines.push(reply.trim_end().to_owned());
    }
    assert_eq!(
        lines[0], lines[1],
        "unchanged state must render identically"
    );
    match JobEvent::from_json(&lines[0]).unwrap() {
        JobEvent::Stats {
            tenants,
            queued,
            running,
            completed,
            journal,
            ..
        } => {
            assert!(tenants.is_empty(), "no tenant has submitted yet");
            assert_eq!((queued, running, completed), (0, 0, 0));
            assert!(!journal, "no journal was configured");
        }
        other => panic!("expected a stats event, got {other:?}"),
    }

    // The typed client sees finished work and the (drained) tenant.
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = RunSpec::new(
        "queens",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    );
    let job = client.submit("carol", JobKind::Sim, &spec).unwrap();
    match client.wait(job).unwrap() {
        JobEvent::Done { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.tenants, vec![("carol".to_owned(), 0)]);
    assert!(!stats.journal);
    client.drain().unwrap();
    server.join();
}

/// A checkpointed job reports `progress` at every epoch boundary: cycles
/// are ascending epoch multiples and the task count never goes backwards.
#[test]
fn checkpointed_jobs_report_progress_beats() {
    let base = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 2),
    );
    let reference = parallelxl::flow::execute(&base).unwrap().unwrap();
    let session = parallelxl::flow::SimSession::start(&base).unwrap().unwrap();
    let epoch = session
        .clock()
        .time_to_cycles(Time::from_ps(reference.kernel.as_ps() / 4))
        .max(1);

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let job = client
        .submit("ci", JobKind::Sim, &base.with_checkpoint(epoch))
        .unwrap();
    let mut beats: Vec<parallelxl::serve::Progress> = Vec::new();
    let terminal = client.wait_with_progress(job, |p| beats.push(p)).unwrap();
    match terminal {
        JobEvent::Done { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        !beats.is_empty(),
        "an epoch of {epoch} cycles must yield at least one boundary"
    );
    for pair in beats.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle, "cycles must ascend");
        assert!(pair[0].tasks <= pair[1].tasks, "tasks must not regress");
    }
    for p in &beats {
        assert_eq!(p.job, job);
        assert_eq!(p.cycle % epoch, 0, "beats land on epoch boundaries");
    }
    client.drain().unwrap();
    server.join();
}

fn read_event(reader: &mut impl BufRead) -> JobEvent {
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    JobEvent::from_json(reply.trim_end()).unwrap_or_else(|e| panic!("{e}: {reply:?}"))
}

fn tiny_queens() -> RunSpec {
    RunSpec::new(
        "queens",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    )
}

/// A scratch directory unique to one test in this process.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pxl-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A request is one write on a socket with Nagle's algorithm off: a small
/// round trip must not wait out a delayed ACK (~40 ms per line when it
/// does, so 100 round trips would take seconds).
#[test]
fn sequential_round_trips_are_not_held_by_the_transport() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.stats().unwrap();
    let start = Instant::now();
    for _ in 0..100 {
        client.stats().unwrap();
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "100 stats round trips took {took:?}"
    );
    client.drain().unwrap();
    server.join();
}

/// A line at the 1 MiB limit is served; one byte more is refused with
/// `line_too_long`, its rest discarded, and the connection keeps working.
#[test]
fn oversized_lines_are_refused_and_the_connection_survives() {
    let limit = 1 << 20;
    let server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let padded = |len: usize| {
        let head = "{\"op\":\"status\",\"pad\":\"";
        let tail = "\"}";
        format!(
            "{head}{}{tail}\n",
            "x".repeat(len - head.len() - tail.len())
        )
    };

    writer.write_all(padded(limit).as_bytes()).unwrap();
    assert!(
        matches!(read_event(&mut reader), JobEvent::Status { .. }),
        "a line of exactly the limit is served"
    );
    writer.write_all(padded(limit + 1).as_bytes()).unwrap();
    match read_event(&mut reader) {
        JobEvent::Error { code, message } => {
            assert_eq!(code, ErrorCode::LineTooLong, "{message}");
            assert!(message.contains(&limit.to_string()), "{message}");
        }
        other => panic!("expected line_too_long, got {other:?}"),
    }
    writeln!(writer, "{}", Request::Stats.to_json()).unwrap();
    assert!(
        matches!(read_event(&mut reader), JobEvent::Stats { .. }),
        "the rest of the long line was discarded, not parsed"
    );
    let mut client = Client::connect(server.addr()).unwrap();
    client.drain().unwrap();
    server.join();
}

/// Past the 64-connection cap a client gets one typed `overloaded` line
/// and is closed, also when it sent a request before reading; the clients
/// inside the cap are untouched, and a freed slot admits a new connection.
#[test]
fn connections_past_the_cap_are_refused_overloaded() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut inside: Vec<Client> = (0..64)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    for client in &mut inside {
        client.stats().unwrap();
    }

    let mut idle = Client::connect(server.addr()).unwrap();
    match idle.next_event() {
        Err(ClientError::Rejected {
            code: ErrorCode::Overloaded,
            message,
        }) => assert!(message.contains("64"), "{message}"),
        other => panic!("expected an overloaded refusal, got {other:?}"),
    }
    assert!(
        matches!(idle.next_event(), Err(ClientError::Io(_))),
        "the refused connection is closed"
    );
    // A refused client that submits at once still reads the typed
    // refusal, not a reset.
    for _ in 0..8 {
        let mut eager = Client::connect(server.addr()).unwrap();
        match eager.submit("eager", JobKind::Sim, &tiny_queens()) {
            Err(ClientError::Rejected {
                code: ErrorCode::Overloaded,
                ..
            }) => {}
            other => panic!("expected an overloaded refusal, got {other:?}"),
        }
    }
    inside[0].stats().unwrap();

    // The slot frees once the server sees the close.
    drop(inside.pop());
    let mut admitted = None;
    for _ in 0..200 {
        let mut c = Client::connect(server.addr()).unwrap();
        if c.stats().is_ok() {
            admitted = Some(c);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut fourth = admitted.expect("a freed slot admits a new connection");
    fourth.drain().unwrap();
    let summary = server.join();
    assert_eq!((summary.completed, summary.failed), (0, 0));
}

/// A line left unfinished past the line deadline closes its connection,
/// while a connection that idles with a job outstanding is never cut.
#[test]
fn unfinished_lines_time_out_but_idle_clients_stay() {
    let deadline = Duration::from_millis(300);
    let server =
        Server::start_with_timeouts(ServerConfig::default(), Duration::from_secs(10), deadline)
            .unwrap();
    let mut idle = Client::connect(server.addr()).unwrap();
    idle.pause().unwrap();
    let job = idle.submit("idle", JobKind::Sim, &tiny_queens()).unwrap();

    let mut slow = TcpStream::connect(server.addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    slow.write_all(b"{\"op\":").unwrap();
    let mut rest = Vec::new();
    slow.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no reply to an unfinished line: {rest:?}");
    assert!(start.elapsed() >= deadline, "cut before the deadline");

    std::thread::sleep(deadline * 2);
    idle.resume().unwrap();
    assert!(matches!(idle.wait(job).unwrap(), JobEvent::Done { .. }));
    idle.drain().unwrap();
    assert_eq!(server.join().completed, 1);
}

/// Opens a raw connection that submits `tiny_queens` under `tenant`, then
/// asks for replies and never reads them, until the server's replies back
/// up and it stops reading: its reader thread for this connection is then
/// blocked in a write.
fn stalled_client(addr: std::net::SocketAddr, tenant: &str) -> TcpStream {
    let mut stalled = TcpStream::connect(addr).unwrap();
    let submit = Request::Submit {
        tenant: tenant.to_owned(),
        kind: JobKind::Sim,
        spec: Box::new(tiny_queens()),
    };
    writeln!(stalled, "{}", submit.to_json()).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let batch = format!("{}\n", Request::Stats.to_json()).repeat(1024);
    let mut sent = 0usize;
    while sent < 256 << 20 && stalled.write_all(batch.as_bytes()).is_ok() {
        sent += batch.len();
    }
    stalled
}

/// Reads a stalled connection until the server closes it (EOF or a reset).
fn wait_detached(mut stalled: TcpStream) {
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut sink = [0u8; 1 << 16];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the stalled client was not detached: {e}"),
        }
    }
}

/// A client that stops reading is detached once a write to it outlasts
/// the write timeout. The server keeps serving others meanwhile, the
/// stalled client's socket is closed, and its job still runs to `done`
/// in the job log and the drain totals.
#[test]
fn a_stalled_reader_is_detached_and_its_job_still_finishes() {
    let dir = scratch_dir("stalled");
    let log = dir.join("jobs.jsonl");
    let server = Server::start_with_timeouts(
        ServerConfig {
            job_log: Some(log.clone()),
            flush_every_record: false,
            ..ServerConfig::default()
        },
        Duration::from_millis(300),
        Duration::from_secs(30),
    )
    .unwrap();
    let mut ctl = Client::connect(server.addr()).unwrap();
    ctl.pause().unwrap();

    let stalled = stalled_client(server.addr(), "stalled");
    // The stalled connection holds no lock the others need.
    assert_eq!(ctl.stats().unwrap().queued, 1);
    wait_detached(stalled);

    ctl.resume().unwrap();
    assert_eq!(ctl.drain().unwrap(), 1);
    let summary = server.join();
    assert_eq!((summary.completed, summary.failed), (1, 0));
    let text = std::fs::read_to_string(&log).unwrap();
    let done = text
        .lines()
        .filter(|l| matches!(JobEvent::from_json(l), Ok(JobEvent::Done { .. })))
        .count();
    assert_eq!(done, 1, "the detached client's job is journaled as done");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled client holds up only the threads that write to it, never
/// dispatch. Its job is dispatched first and its `running` line cannot go
/// out, yet another tenant's job still runs to `done` well inside the
/// default 10 s write timeout. The stalled job finishes after the detach.
#[test]
fn a_stalled_client_does_not_hold_up_dispatch() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut ctl = Client::connect(server.addr()).unwrap();
    ctl.pause().unwrap();
    let stalled = stalled_client(server.addr(), "stalled");
    let other = ctl.submit("other", JobKind::Sim, &tiny_queens()).unwrap();
    assert_eq!(ctl.stats().unwrap().queued, 2);

    let start = Instant::now();
    ctl.resume().unwrap();
    assert!(matches!(ctl.wait(other).unwrap(), JobEvent::Done { .. }));
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "a job beside a stalled client took {took:?}"
    );

    // Reading would unstall it: the stalled job completes, for the
    // drain, only once the write timeout detaches its client.
    assert_eq!(ctl.drain().unwrap(), 2);
    let summary = server.join();
    assert_eq!((summary.completed, summary.failed), (2, 0));
    drop(stalled);
}

/// A simulation that panics — here, resuming from a checkpoint whose
/// checksum holds but whose CPU free list points past its pending table —
/// fails its job with a typed `failed` event instead of killing the pool
/// worker, and the drain still completes.
#[test]
fn a_panicking_job_fails_and_the_server_still_drains() {
    let dir = scratch_dir("panic");
    let spec = RunSpec::new("uts", Scale::Tiny, DesignPoint::cpu(2));
    let mut session = parallelxl::flow::SimSession::start(&spec).unwrap().unwrap();
    let cycle = 2000;
    let paused = session
        .advance(Some(session.clock().cycles_to_time(cycle)))
        .unwrap();
    assert!(matches!(
        paused,
        parallelxl::flow::SessionStatus::Paused { .. }
    ));
    let envelope = JsonValue::parse(&session.snapshot().to_json()).unwrap();
    let mut payload = envelope.get("payload").unwrap().clone();
    let JsonValue::Object(members) = &mut payload else {
        panic!("a snapshot payload is an object");
    };
    let (_, free) = members
        .iter_mut()
        .find(|(k, _)| k == "pending_free")
        .expect("the CPU engine snapshots its pending free list");
    *free = JsonValue::Array(vec![JsonValue::num_u64(u64::from(u32::MAX))]);
    let engine = envelope.get("engine").unwrap().as_str().unwrap();
    let crafted = Snapshot::new(engine, payload);
    std::fs::write(dir.join("job-1.ckpt.json"), crafted.to_json()).unwrap();
    let log = dir.join("journal.jsonl");
    std::fs::write(
        &log,
        format!(
            "{}\n{}\n",
            journal::submit_line(1, "ci", JobKind::Sim, &spec),
            journal::checkpoint_line(1, cycle, "job-1.ckpt.json")
        ),
    )
    .unwrap();

    let server = Server::start(ServerConfig {
        job_log: Some(log.clone()),
        checkpoint_dir: Some(dir.clone()),
        flush_every_record: false,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.drain().unwrap(), 0);
    let summary = server.join();
    assert_eq!((summary.recovered, summary.failed), (1, 1));
    let text = std::fs::read_to_string(&log).unwrap();
    let error = text
        .lines()
        .find_map(|l| match JobEvent::from_json(l) {
            Ok(JobEvent::Failed {
                job: JobId(1),
                error,
            }) => Some(error),
            _ => None,
        })
        .expect("the job ends with a failed event");
    assert!(error.contains("panicked"), "{error}");
    let _ = std::fs::remove_dir_all(&dir);
}
