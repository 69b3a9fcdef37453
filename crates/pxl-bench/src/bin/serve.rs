//! Job-server driver: boots a `pxl-serve` [`Server`] on a loopback port
//! and drives the full service contract end to end, exiting nonzero if any
//! guarantee is broken. This is the CI smoke for simulation-as-a-service:
//!
//! 1. **Fair share** — with one worker and dispatch paused, a tenant that
//!    floods the queue first must still alternate with a later tenant
//!    (deterministic round-robin `running` order).
//! 2. **Dedup** — the same spec submitted twice yields byte-identical
//!    `done` payloads, the second a pure content-addressed cache hit.
//! 3. **Quotas** — a tenant at its quota is refused with the
//!    `quota_exceeded` code while other tenants keep submitting.
//! 4. **Profiling** — a `profile` job reports its trace size and never
//!    hits the measurement cache.
//! 5. **Live introspection** — a checkpointed job streams `progress`
//!    events (ascending epoch-boundary cycles, monotone task counts), and
//!    the `stats` op answers with the full byte-stable health picture
//!    (per-tenant depths, lifecycle counters, journal state).
//! 6. **Graceful drain** — `shutdown` finishes every admitted job,
//!    refuses new ones with the `draining` code, and reports the total.
//! 7. **Hostile clients** — against the server's fixed limits (with a
//!    short write timeout): more connections than the cap (refused
//!    `overloaded`, also for a client that submits before reading), an
//!    oversized line (`line_too_long`), malformed lines, and a client
//!    that never reads its replies (detached once a write to it times
//!    out). The server keeps serving and drains with exact totals, the
//!    stalled client's job included.
//! 8. **Crash recovery** — a child server process is SIGKILLed mid-run
//!    with checkpointed jobs in flight, restarted on the same journal,
//!    and must finish every admitted job exactly once, resuming from
//!    durable checkpoints (`done` events with nonzero
//!    `resumed_from_cycle`).
//!
//! Every event the server emits is appended to `serve_jobs.jsonl`, and the
//! crash phase leaves its recovered journal in `serve_crash/` (both CI
//! artifacts); the hostile phase logs to `serve_hostile.jsonl`. This binary
//! re-parses the logs to check they are valid line-delimited JSON with the
//! expected event counts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use pxl_apps::Scale;
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::RunSpec;
use pxl_serve::{
    measurement_to_json_value, Client, ClientConfig, ClientError, ErrorCode, JobEvent, JobId,
    JobKind, Request, Server, ServerConfig,
};

const JOB_LOG: &str = "serve_jobs.jsonl";
const HOSTILE_LOG: &str = "serve_hostile.jsonl";
const CRASH_DIR: &str = "serve_crash";

fn flex_spec(bench: &str) -> RunSpec {
    RunSpec::new(
        bench,
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 2),
    )
}

fn cpu_spec(bench: &str) -> RunSpec {
    RunSpec::new(bench, Scale::Tiny, DesignPoint::cpu(2))
}

fn done_payload(
    event: &JobEvent,
    failures: &mut Vec<String>,
    what: &str,
) -> Option<(bool, String)> {
    match event {
        JobEvent::Done { cached, result, .. } => {
            Some((*cached, measurement_to_json_value(result).to_json()))
        }
        other => {
            failures.push(format!("{what}: expected done, got {other:?}"));
            None
        }
    }
}

fn main() {
    // Child mode: `serve --crash-server <dir>` runs one server lifetime
    // for the crash-recovery phase (the parent SIGKILLs the first one).
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--crash-server" {
        crash_server_child(Path::new(&args[2]));
        return;
    }

    let mut failures: Vec<String> = Vec::new();
    // The job log opens in append mode (it doubles as the recovery
    // journal); start each smoke run from a clean slate.
    let _ = std::fs::remove_file(JOB_LOG);
    let server = Server::start(ServerConfig {
        workers: 1,
        tenant_quota: 4,
        job_log: Some(JOB_LOG.into()),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("server start: {e}"));
    let mut client = Client::connect(server.addr()).unwrap_or_else(|e| panic!("connect: {e}"));
    let check = |r: Result<(), ClientError>| r.unwrap_or_else(|e| panic!("{e}"));

    // Phase 1: fair share. Pause so the queue fills before the single
    // worker starts; the running order is then exactly the scheduler's
    // deterministic round-robin, not a submission race.
    check(client.pause().map(|_| ()));
    let a = flex_spec("uts");
    let b = flex_spec("queens");
    let a1 = client.submit("alice", JobKind::Sim, &a).unwrap();
    let a2 = client.submit("alice", JobKind::Sim, &a).unwrap();
    let a3 = client.submit("alice", JobKind::Sim, &a).unwrap();
    let b1 = client.submit("bob", JobKind::Sim, &b).unwrap();
    let b2 = client.submit("bob", JobKind::Sim, &b).unwrap();
    check(client.resume().map(|_| ()));
    // The terminal event is the last per job, so once five are in, every
    // running event has been seen too.
    let mut running = Vec::new();
    let mut terminal = 0;
    while terminal < 5 {
        match client.next_event() {
            Ok(JobEvent::Running { job }) => running.push(job),
            Ok(JobEvent::Done { .. }) => terminal += 1,
            Ok(JobEvent::Failed { job, error }) => {
                terminal += 1;
                failures.push(format!("fair-share: {job} failed: {error}"));
            }
            Ok(_) => {}
            Err(e) => panic!("fair-share: {e}"),
        }
    }
    let expected = vec![a1, b1, a2, b2, a3];
    if running != expected {
        failures.push(format!(
            "fair-share: running order {running:?} != round-robin {expected:?}"
        ));
    }
    eprintln!("[serve] fair-share: alice flooded, bob still alternated ({running:?})");

    // Phase 2: dedup. The same dse spec twice — the second submission must
    // be answered from the content-addressed cache with identical bytes.
    let spec = flex_spec("uts");
    let (d1, key1) = client
        .submit_with_key("dedup", JobKind::Dse, &spec)
        .unwrap();
    let first = client.wait(d1).unwrap();
    let (d2, key2) = client
        .submit_with_key("dedup", JobKind::Dse, &spec)
        .unwrap();
    let second = client.wait(d2).unwrap();
    if key1 != key2 {
        failures.push(format!("dedup: content addresses differ: {key1} != {key2}"));
    }
    if let (Some((c1, p1)), Some((c2, p2))) = (
        done_payload(&first, &mut failures, "dedup first"),
        done_payload(&second, &mut failures, "dedup second"),
    ) {
        if c1 {
            failures.push("dedup: first submission must simulate, not hit".to_owned());
        }
        if !c2 {
            failures.push("dedup: second identical submission must be a cache hit".to_owned());
        }
        if p1 != p2 {
            failures.push(format!("dedup: payloads differ:\n  {p1}\n  {p2}"));
        } else {
            eprintln!("[serve] dedup: {key1} hit the cache with byte-identical payload");
        }
    }

    // Phase 3: quotas. A tenant at its quota is refused; others are not.
    check(client.pause().map(|_| ()));
    let mut flood = Vec::new();
    for _ in 0..4 {
        flood.push(
            client
                .submit("flood", JobKind::Sim, &cpu_spec("uts"))
                .unwrap(),
        );
    }
    match client.submit("flood", JobKind::Sim, &cpu_spec("uts")) {
        Err(ClientError::Rejected {
            code: ErrorCode::QuotaExceeded,
            message,
        }) => eprintln!("[serve] quota: fifth job refused ({message})"),
        other => failures.push(format!("quota: expected quota_exceeded, got {other:?}")),
    }
    let calm = client
        .submit("calm", JobKind::Sim, &cpu_spec("queens"))
        .unwrap();
    check(client.resume().map(|_| ()));
    for job in flood.iter().chain([&calm]) {
        if let JobEvent::Failed { error, .. } = client.wait(*job).unwrap() {
            failures.push(format!("quota: {job} failed: {error}"));
        }
    }

    // Phase 4: a profile job reports its trace size and never caches.
    let p1 = client
        .submit("prof", JobKind::Profile, &flex_spec("uts"))
        .unwrap();
    match client.wait(p1).unwrap() {
        JobEvent::Done {
            cached,
            trace_events,
            ..
        } => {
            if cached {
                failures.push("profile: must not be served from the cache".to_owned());
            }
            match trace_events {
                Some(n) if n > 0 => eprintln!("[serve] profile: {n} trace events captured"),
                other => failures.push(format!("profile: bad trace_events {other:?}")),
            }
        }
        other => failures.push(format!("profile: expected done, got {other:?}")),
    }

    // Phase 5: live introspection. A checkpointed job streams progress
    // beats at every epoch boundary, and the stats op reports the full
    // health picture. The spec must be fresh (uncached) so a real
    // simulation leg runs.
    let watch_spec = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    );
    let reference = pxl_flow::execute(&watch_spec)
        .unwrap_or_else(|e| panic!("introspect reference: {e}"))
        .expect("uts has a flex variant");
    let session = pxl_flow::SimSession::start(&watch_spec)
        .unwrap_or_else(|e| panic!("introspect session: {e}"))
        .expect("uts has a flex variant");
    let watch_epoch = session
        .clock()
        .time_to_cycles(pxl_sim::Time::from_ps(reference.kernel.as_ps() / 4))
        .max(1);
    let watched = client
        .submit(
            "watch",
            JobKind::Sim,
            &watch_spec.with_checkpoint(watch_epoch),
        )
        .unwrap();
    let mut beats = Vec::new();
    match client.wait_with_progress(watched, |p| beats.push(p)) {
        Ok(JobEvent::Done { .. }) => {}
        other => failures.push(format!("introspect: expected done, got {other:?}")),
    }
    if beats.is_empty() {
        failures.push(format!(
            "introspect: a {watch_epoch}-cycle epoch must yield progress beats"
        ));
    }
    if beats.windows(2).any(|w| w[0].cycle >= w[1].cycle) {
        failures.push(format!("introspect: cycles must ascend: {beats:?}"));
    }
    if beats.windows(2).any(|w| w[0].tasks > w[1].tasks) {
        failures.push(format!("introspect: tasks must not regress: {beats:?}"));
    }
    if let Some(last) = beats.last() {
        eprintln!(
            "[serve] progress: {} beat(s), last at cycle {} with {} task(s)",
            beats.len(),
            last.cycle,
            last.tasks
        );
    }
    let stats = client.stats().unwrap_or_else(|e| panic!("stats: {e}"));
    if !stats.journal {
        failures.push("stats: the job log must register as a journal".to_owned());
    }
    if stats.completed != 14 || stats.failed != 0 {
        failures.push(format!(
            "stats: expected 14 completed / 0 failed so far, got {stats:?}"
        ));
    }
    if !stats.tenants.iter().any(|(t, d)| t == "watch" && *d == 0) {
        failures.push(format!(
            "stats: the drained 'watch' tenant must appear at depth 0: {:?}",
            stats.tenants
        ));
    }
    eprintln!(
        "[serve] stats: {} tenant(s), {} completed, journal={}",
        stats.tenants.len(),
        stats.completed,
        stats.journal
    );

    // Phase 6: graceful drain. The in-flight submission finishes, new work
    // is refused with the draining code, and the totals add up.
    let last = client
        .submit("alice", JobKind::Sim, &flex_spec("queens"))
        .unwrap();
    let completed = client.drain().unwrap_or_else(|e| panic!("drain: {e}"));
    if let JobEvent::Failed { error, .. } = client.wait(last).unwrap() {
        failures.push(format!("drain: {last} failed: {error}"));
    }
    match client.submit("alice", JobKind::Sim, &flex_spec("uts")) {
        Err(ClientError::Rejected {
            code: ErrorCode::Draining,
            ..
        }) => {}
        other => failures.push(format!("drain: expected draining rejection, got {other:?}")),
    }
    let summary = server.join();
    let jobs = 15u64; // 5 fair-share + 2 dedup + 5 quota + 1 profile + 1 introspect + 1 drain
    if completed != jobs || summary.completed != jobs || summary.failed != 0 {
        failures.push(format!(
            "drain: expected {jobs} completed / 0 failed, got drain={completed}, {summary:?}"
        ));
    }
    eprintln!(
        "[serve] drain: {completed} job(s) completed, {} cache hit(s), {} miss(es)",
        summary.cache_hits, summary.cache_misses
    );

    // The job log must be valid line-delimited JSON with matching counts.
    // Write-ahead journal records (submit/checkpoint) share the file with
    // the event stream; canonical rendering puts their discriminator
    // first.
    let log = std::fs::read_to_string(JOB_LOG).unwrap_or_else(|e| panic!("read {JOB_LOG}: {e}"));
    let mut done = 0u64;
    let mut drained = 0u64;
    for (i, line) in log.lines().enumerate() {
        if line.starts_with("{\"journal\":") {
            continue;
        }
        match JobEvent::from_json(line) {
            Ok(JobEvent::Done { .. }) => done += 1,
            Ok(JobEvent::Drained { .. }) => drained += 1,
            Ok(_) => {}
            Err(e) => failures.push(format!("{JOB_LOG}:{}: {e}", i + 1)),
        }
    }
    if done != jobs || drained != 1 {
        failures.push(format!(
            "{JOB_LOG}: expected {jobs} done + 1 drained, got {done} + {drained}"
        ));
    }
    eprintln!(
        "[jsonl] wrote {} event(s) to {JOB_LOG}",
        log.lines().count()
    );

    // Phase 7: hostile clients against the server's limits.
    let hostile = hostile_phase(&mut failures);

    // Phase 8: kill-and-restart crash recovery (child server processes).
    let (crash_jobs, crash_resumed) = crash_recovery_phase(&mut failures);

    println!("# pxl-serve smoke\n");
    println!("| guarantee | result |");
    println!("|---|---|");
    println!("| fair-share round-robin | {:?} |", running);
    println!("| dedup cache hit | key {key1} |");
    println!(
        "| jobs completed / failed | {} / {} |",
        summary.completed, summary.failed
    );
    println!(
        "| cache hits / misses | {} / {} |",
        summary.cache_hits, summary.cache_misses
    );
    println!(
        "| live introspection | {} progress beat(s), {} tenant(s) in stats |",
        beats.len(),
        stats.tenants.len()
    );
    println!("| hostile clients | {hostile} |");
    println!(
        "| crash recovery | {crash_jobs} job(s) exactly once, {crash_resumed} resumed from checkpoint |"
    );

    if !failures.is_empty() {
        eprintln!("\n[serve] FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    eprintln!("[serve] all service guarantees held");
}

/// The server's fixed connection cap and line limit.
const SERVER_CONNECTIONS: usize = 64;
const SERVER_LINE_BYTES: usize = 1 << 20;
/// Connections the hostile phase opens past the cap.
const HOSTILE_REFUSED: usize = 3;

/// The next event line on a raw connection, or why there is none.
fn raw_event(reader: &mut impl BufRead) -> Result<JobEvent, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed".to_owned()),
        Ok(_) => JobEvent::from_json(line.trim_end()),
        Err(e) => Err(e.to_string()),
    }
}

/// A raw connection the server has admitted (it answered a `status`),
/// retrying while a freed slot is still counted as taken.
fn admitted_raw(addr: SocketAddr) -> Option<TcpStream> {
    for _ in 0..200 {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        writeln!(stream, "{}", Request::Status.to_json()).ok()?;
        let mut reader = BufReader::new(stream.try_clone().ok()?);
        if let Ok(JobEvent::Status { .. }) = raw_event(&mut reader) {
            return Some(stream);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

/// Phase 7: a server with its 64-connection cap, its 1 MiB line limit
/// and a 250 ms write timeout (instead of 10 s, so the phase takes
/// seconds) meets clients that break every rule. Returns the report row.
fn hostile_phase(failures: &mut Vec<String>) -> String {
    let _ = std::fs::remove_file(HOSTILE_LOG);
    let server = Server::start_with_timeouts(
        ServerConfig {
            workers: 1,
            job_log: Some(HOSTILE_LOG.into()),
            flush_every_record: false,
            ..ServerConfig::default()
        },
        Duration::from_millis(250),
        Duration::from_secs(30),
    )
    .unwrap_or_else(|e| panic!("hostile server start: {e}"));
    let addr = server.addr();
    let bounded = ClientConfig {
        read_timeout: Some(Duration::from_secs(30)),
        connect_attempts: 1,
        ..ClientConfig::default()
    };
    let connect = || Client::connect_with(addr, &bounded).unwrap_or_else(|e| panic!("{e}"));
    let mut ctl = connect();
    ctl.pause().unwrap_or_else(|e| panic!("hostile pause: {e}"));

    // Garbage on one connection: each line gets its typed refusal, and
    // the connection still answers afterwards.
    let mut garbage = TcpStream::connect(addr).unwrap_or_else(|e| panic!("{e}"));
    let _ = garbage.set_read_timeout(Some(Duration::from_secs(30)));
    let mut garbage_reader = BufReader::new(garbage.try_clone().unwrap_or_else(|e| panic!("{e}")));
    let lines = [
        (
            format!("[{}]", "0,".repeat(SERVER_LINE_BYTES / 2) + "0"),
            ErrorCode::LineTooLong,
        ),
        ("{\"op\":".to_owned(), ErrorCode::BadJson),
        ("[]".to_owned(), ErrorCode::BadRequest),
        ("{\"op\":\"launch\"}".to_owned(), ErrorCode::UnknownOp),
    ];
    for (line, want) in &lines {
        let _ = writeln!(garbage, "{line}");
        match raw_event(&mut garbage_reader) {
            Ok(JobEvent::Error { code, .. }) if code == *want => {}
            other => failures.push(format!("hostile: expected {}, got {other:?}", want.label())),
        }
    }
    let _ = writeln!(garbage, "{}", Request::Status.to_json());
    if !matches!(raw_event(&mut garbage_reader), Ok(JobEvent::Status { .. })) {
        failures.push("hostile: the garbage connection stopped answering".to_owned());
    }

    // Fill the cap, then knock: every extra connection is refused.
    // Fill the cap, then knock: every extra connection is refused, the
    // last one after it already sent a request.
    let mut holders: Vec<Client> = (0..SERVER_CONNECTIONS - 2).map(|_| connect()).collect();
    for h in &mut holders {
        h.stats().unwrap_or_else(|e| panic!("hostile holder: {e}"));
    }
    let mut refused = 0;
    for knock in 0..HOSTILE_REFUSED {
        let mut extra = connect();
        // `None`: the extra connection was served instead of refused.
        let refusal = if knock + 1 == HOSTILE_REFUSED {
            extra
                .submit("knocker", JobKind::Sim, &flex_spec("queens"))
                .err()
        } else {
            extra.next_event().err()
        };
        match refusal {
            Some(ClientError::Rejected {
                code: ErrorCode::Overloaded,
                ..
            }) => refused += 1,
            other => failures.push(format!("hostile: expected overloaded, got {other:?}")),
        }
    }
    drop(holders);

    // A client that submits a job and then never reads: its replies back
    // up until a write to it times out and the server detaches it.
    let Some(mut stalled) = admitted_raw(addr) else {
        failures.push("hostile: freed slots never admitted a new connection".to_owned());
        return "not run".to_owned();
    };
    let submit = Request::Submit {
        tenant: "stalled".to_owned(),
        kind: JobKind::Sim,
        spec: Box::new(flex_spec("uts")),
    };
    let _ = writeln!(stalled, "{}", submit.to_json());
    let _ = stalled.set_write_timeout(Some(Duration::from_secs(1)));
    let batch = format!("{}\n", Request::Stats.to_json()).repeat(1024);
    let mut flooded = 0usize;
    while flooded < 256 << 20 && stalled.write_all(batch.as_bytes()).is_ok() {
        flooded += batch.len();
    }
    match ctl.stats() {
        Ok(stats) if stats.queued == 1 => {}
        other => failures.push(format!(
            "hostile: stats beside a stalled reader: expected 1 queued, got {other:?}"
        )),
    }
    let _ = stalled.set_read_timeout(Some(Duration::from_secs(30)));
    let mut sink = vec![0u8; 1 << 16];
    let detached = loop {
        match stalled.read(&mut sink) {
            Ok(0) => break true,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break true,
            Err(_) => break false,
        }
    };
    if !detached {
        failures.push("hostile: the stalled reader was never detached".to_owned());
    }

    // The server is still up: a fresh job runs, and the drain counts the
    // stalled client's job too.
    ctl.resume()
        .unwrap_or_else(|e| panic!("hostile resume: {e}"));
    let own = ctl
        .submit("ctl", JobKind::Sim, &flex_spec("queens"))
        .unwrap_or_else(|e| panic!("hostile submit: {e}"));
    if !matches!(ctl.wait(own), Ok(JobEvent::Done { .. })) {
        failures.push(format!("hostile: {own} did not finish"));
    }
    let drained = ctl.drain().unwrap_or_else(|e| panic!("hostile drain: {e}"));
    let summary = server.join();
    if drained != 2 || summary.completed != 2 || summary.failed != 0 {
        failures.push(format!(
            "hostile: expected 2 completed / 0 failed, got drain={drained}, {summary:?}"
        ));
    }
    let log =
        std::fs::read_to_string(HOSTILE_LOG).unwrap_or_else(|e| panic!("read {HOSTILE_LOG}: {e}"));
    let (mut done, mut overloaded, mut too_long) = (0, 0, 0);
    for (i, line) in log.lines().enumerate() {
        if line.starts_with("{\"journal\":") {
            continue;
        }
        match JobEvent::from_json(line) {
            Ok(JobEvent::Done { .. }) => done += 1,
            Ok(JobEvent::Error {
                code: ErrorCode::Overloaded,
                ..
            }) => overloaded += 1,
            Ok(JobEvent::Error {
                code: ErrorCode::LineTooLong,
                ..
            }) => too_long += 1,
            Ok(_) => {}
            Err(e) => failures.push(format!("{HOSTILE_LOG}:{}: {e}", i + 1)),
        }
    }
    if (done, overloaded, too_long) != (2, refused, 1) {
        failures.push(format!(
            "{HOSTILE_LOG}: expected 2 done, {refused} overloaded, 1 line_too_long; \
             got {done}, {overloaded}, {too_long}"
        ));
    }
    eprintln!(
        "[serve] hostile: {refused} connection(s) refused overloaded, oversized and malformed \
         lines refused, stalled reader detached after {} KiB of requests, 2 job(s) drained",
        flooded >> 10
    );
    format!(
        "{refused} refused overloaded, line_too_long + 3 malformed typed, stalled reader detached, \
         {} / {} completed / failed",
        summary.completed, summary.failed
    )
}

/// One server lifetime for the crash phase: journal, checkpoints and
/// cache all live in `dir`, and the bound address is published through
/// `dir/addr.txt` (written atomically). Blocks until drained — or until
/// the parent SIGKILLs us.
fn crash_server_child(dir: &Path) {
    let server = Server::start(ServerConfig {
        workers: 1,
        tenant_quota: 16,
        cache_path: Some(dir.join("cache.jsonl")),
        job_log: Some(dir.join("journal.jsonl")),
        checkpoint_dir: Some(dir.to_path_buf()),
        flush_every_record: true,
    })
    .unwrap_or_else(|e| panic!("child server: {e}"));
    let tmp = dir.join("addr.tmp");
    std::fs::write(&tmp, server.addr().to_string()).unwrap_or_else(|e| panic!("write addr: {e}"));
    std::fs::rename(&tmp, dir.join("addr.txt")).unwrap_or_else(|e| panic!("publish addr: {e}"));
    let summary = server.join();
    eprintln!(
        "[serve-child] drained: {} completed, {} recovered, {} resumed leg(s)",
        summary.completed, summary.recovered, summary.resumed
    );
}

/// Spawns `--crash-server` children and polls for the published address.
fn spawn_crash_server(dir: &Path) -> (std::process::Child, std::net::SocketAddr) {
    let addr_file = dir.join("addr.txt");
    let _ = std::fs::remove_file(&addr_file);
    let exe = std::env::current_exe().unwrap_or_else(|e| panic!("current_exe: {e}"));
    let mut child = std::process::Command::new(exe)
        .arg("--crash-server")
        .arg(dir)
        .spawn()
        .unwrap_or_else(|e| panic!("spawn crash server: {e}"));
    for _ in 0..1000 {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                return (child, addr);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!(
        "crash server never published its address in {}",
        dir.display()
    );
}

/// SIGKILLs a server with checkpointed jobs in flight, restarts it on the
/// same journal, and verifies exactly-once completion with checkpoint
/// resume. Returns (jobs completed exactly once, jobs resumed from a
/// checkpoint) for the report.
fn crash_recovery_phase(failures: &mut Vec<String>) -> (u64, u64) {
    let dir = Path::new(CRASH_DIR);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {CRASH_DIR}: {e}"));
    let journal_path = dir.join("journal.jsonl");
    // Retries with bounded backoff: the child needs a moment to bind.
    let retry = ClientConfig {
        connect_attempts: 20,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(100),
        ..ClientConfig::default()
    };

    // A checkpoint epoch well inside the flex runs, so every leg yields
    // several durable snapshots before finishing.
    let base = flex_spec("uts");
    let reference = pxl_flow::execute(&base)
        .unwrap_or_else(|e| panic!("reference run: {e}"))
        .expect("uts has a flex variant");
    let session = pxl_flow::SimSession::start(&base)
        .unwrap_or_else(|e| panic!("reference session: {e}"))
        .expect("uts has a flex variant");
    let epoch = session
        .clock()
        .time_to_cycles(pxl_sim::Time::from_ps(reference.kernel.as_ps() / 8))
        .max(1);

    // Lifetime 1: admit six distinct jobs (no dedup), all checkpointed,
    // across three tenants, then SIGKILL as soon as the journal records
    // the first durable checkpoint.
    let (mut child, addr) = spawn_crash_server(dir);
    let mut jobs: Vec<JobId> = Vec::new();
    {
        let mut client =
            Client::connect_with(addr, &retry).unwrap_or_else(|e| panic!("connect: {e}"));
        let specs = [
            flex_spec("uts"),
            flex_spec("queens"),
            RunSpec::new(
                "uts",
                Scale::Tiny,
                DesignPoint::accel(PointArch::Flex, 1, 4),
            ),
            RunSpec::new(
                "queens",
                Scale::Tiny,
                DesignPoint::accel(PointArch::Flex, 1, 4),
            ),
            cpu_spec("uts"),
            cpu_spec("queens"),
        ];
        for (n, spec) in specs.iter().enumerate() {
            let tenant = ["alice", "bob", "carol"][n % 3];
            let spec = spec.clone().with_checkpoint(epoch);
            jobs.push(
                client
                    .submit(tenant, JobKind::Sim, &spec)
                    .unwrap_or_else(|e| panic!("crash submit: {e}")),
            );
        }
        for _ in 0..1000 {
            let text = std::fs::read_to_string(&journal_path).unwrap_or_default();
            if text.contains("{\"journal\":\"checkpoint\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    child.kill().unwrap_or_else(|e| panic!("kill: {e}"));
    let _ = child.wait();
    eprintln!("[serve] crash: SIGKILLed lifetime 1 after the first durable checkpoint");

    // Lifetime 2: same journal, same checkpoint dir. Recovery re-queues
    // every unfinished job; drain waits for all of them.
    let (mut child, addr) = spawn_crash_server(dir);
    {
        let mut client =
            Client::connect_with(addr, &retry).unwrap_or_else(|e| panic!("reconnect: {e}"));
        client
            .drain()
            .unwrap_or_else(|e| panic!("crash drain: {e}"));
    }
    let status = child.wait().unwrap_or_else(|e| panic!("wait: {e}"));
    if !status.success() {
        failures.push(format!("crash: restarted server exited with {status}"));
    }

    // The full journal (both lifetimes) is the exactly-once ledger.
    let text =
        std::fs::read_to_string(&journal_path).unwrap_or_else(|e| panic!("read journal: {e}"));
    let mut resumed = 0u64;
    let mut exactly_once = 0u64;
    for job in &jobs {
        let mut done = 0u64;
        let mut failed = 0u64;
        for line in text.lines() {
            match JobEvent::from_json(line) {
                Ok(JobEvent::Done {
                    job: j,
                    resumed_from_cycle,
                    ..
                }) if j == *job => {
                    done += 1;
                    if let Some(cycle) = resumed_from_cycle {
                        if cycle == 0 {
                            failures.push(format!("crash: {job} resumed from cycle 0"));
                        }
                        resumed += 1;
                    }
                }
                Ok(JobEvent::Failed { job: j, error }) if j == *job => {
                    failures.push(format!("crash: {job} failed: {error}"));
                    failed += 1;
                }
                _ => {}
            }
        }
        if done == 1 && failed == 0 {
            exactly_once += 1;
        } else {
            failures.push(format!(
                "crash: {job} must complete exactly once, got {done} done / {failed} failed"
            ));
        }
    }
    if resumed == 0 {
        failures.push("crash: no job resumed from a checkpoint after the restart".to_owned());
    }
    eprintln!(
        "[serve] crash: {exactly_once}/{} job(s) completed exactly once across the kill, \
         {resumed} resumed from durable checkpoints",
        jobs.len()
    );
    (exactly_once, resumed)
}
