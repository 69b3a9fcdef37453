//! The job server: a threaded TCP loop that admits [`Request`]s, schedules
//! jobs fairly across tenants, executes them on a [`WorkerPool`], dedupes
//! identical work through the content-addressed [`ResultCache`], and
//! streams [`JobEvent`]s back as they happen.
//!
//! # Lifecycle of a job
//!
//! `submit` → write-ahead journal record → `accepted` + `queued` →
//! (dispatcher picks it, fair-share) → `running` → either a cache hit
//! (`done` with `cached:true`, no simulation) or a simulation leg. A leg
//! with a [`CheckpointPolicy`](pxl_flow::CheckpointPolicy) pauses at every
//! epoch boundary, persists a [`Snapshot`], and — if another job is
//! waiting for the worker — yields cooperatively (`preempted` event, back
//! to the queue quota-exempt). The final leg ends in `metrics` + `done`
//! carrying `resumed_from_cycle` when it was not the first leg.
//!
//! # Crash safety
//!
//! The job log doubles as a write-ahead journal (see [`crate::journal`]):
//! submissions are journaled before they are acknowledged, checkpoints
//! after they are durable, and the emitted `done`/`failed` events mark
//! jobs terminal. On restart with the same `job_log`, admitted-but-
//! unfinished jobs are rehydrated (detached from their vanished clients)
//! and resume from their latest loadable checkpoint — or from cycle 0 if
//! none survives. Completion is exactly-once: a job either reached its
//! terminal event before the crash or it runs (once) after recovery.
//!
//! # Threads
//!
//! One accept loop, one reader thread per connection, one dispatcher, and
//! `workers` simulation threads (a [`pxl_sim::pool::WorkerPool`]). All
//! shared state lives in one mutex; the dispatcher wakes on a condvar
//! whenever the queue, pause flag, or in-flight count changes. Simulations
//! run without the lock held.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pxl_dse::{Measurement, ResultCache};
use pxl_flow::{FlowError, RunError, RunSpec, SessionStatus, SimSession};
use pxl_sim::pool::WorkerPool;
use pxl_sim::{Metrics, Snapshot};

use crate::journal::{self, Journal};
use crate::protocol::{ErrorCode, JobEvent, JobId, JobKind, Request};
use crate::sched::FairQueue;

/// Trace capacity forced onto profile jobs whose spec does not request
/// tracing (a profile job's artifact *is* the trace).
const PROFILE_TRACE_CAPACITY: usize = 1 << 16;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulation worker threads (clamped to at least 1).
    pub workers: usize,
    /// Max queued jobs per tenant before submissions are refused with
    /// `quota_exceeded`.
    pub tenant_quota: usize,
    /// Persist the result cache to this JSONL file (`None` = in-memory).
    pub cache_path: Option<PathBuf>,
    /// The job log *and* write-ahead journal: every emitted [`JobEvent`]
    /// plus the journal records, one JSON line each, opened in append
    /// mode so restarts recover from it (`None` = no log, no recovery).
    pub job_log: Option<PathBuf>,
    /// Durable checkpoints land here as `job-<id>.ckpt.json` (`None` =
    /// checkpoints stay in memory: preemption still works, but crash
    /// recovery restarts jobs from cycle 0).
    pub checkpoint_dir: Option<PathBuf>,
    /// Fsync the journal after every record (the default). Turning it
    /// off trades the power-loss guarantee for fewer syscalls.
    pub flush_every_record: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            tenant_quota: 64,
            cache_path: None,
            job_log: None,
            checkpoint_dir: None,
            flush_every_record: true,
        }
    }
}

/// Lifetime totals reported by [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs that finished successfully (cached or fresh).
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Result-cache hits (jobs answered without simulating).
    pub cache_hits: u64,
    /// Result-cache misses (jobs that ran a simulation).
    pub cache_misses: u64,
    /// Jobs rehydrated from the journal at startup.
    pub recovered: u64,
    /// Simulation legs that resumed from a checkpoint.
    pub resumed: u64,
    /// Cooperative yields at checkpoint boundaries.
    pub preempted: u64,
    /// Unparseable journal lines tolerated at startup (the torn tail of
    /// a crashed write).
    pub journal_torn: u64,
}

type Writer = Arc<Mutex<TcpStream>>;

struct Job {
    kind: JobKind,
    tenant: String,
    spec: RunSpec,
    key: String,
    /// `None` for jobs rehydrated from the journal — their submitter is
    /// gone, but every event still reaches the job log.
    client: Option<Writer>,
    /// The checkpoint the next leg resumes from: `(cycle, snapshot)`.
    resume: Option<(u64, Snapshot)>,
}

struct Core {
    queue: FairQueue,
    jobs: HashMap<u64, Job>,
    cache: ResultCache,
    next_job: u64,
    paused: bool,
    draining: bool,
    stopped: bool,
    inflight: usize,
    completed: u64,
    failed: u64,
    recovered: u64,
    resumed: u64,
    preempted: u64,
    journal_torn: u64,
    drain_waiters: Vec<Writer>,
    journal: Option<Journal>,
    checkpoint_dir: Option<PathBuf>,
}

impl Core {
    fn log_line(&mut self, line: &str) {
        if let Some(j) = &mut self.journal {
            j.record(line);
        }
    }

    fn status_event(&self) -> JobEvent {
        JobEvent::Status {
            queued: self.queue.len() as u64,
            running: self.inflight as u64,
            completed: self.completed,
            failed: self.failed,
            paused: self.paused,
            draining: self.draining,
        }
    }

    /// The full health picture for [`Request::Stats`]: tenants come out of
    /// the queue name-sorted, so identical states render byte-identically.
    fn stats_event(&self) -> JobEvent {
        JobEvent::Stats {
            tenants: self.queue.depths(),
            queued: self.queue.len() as u64,
            running: self.inflight as u64,
            completed: self.completed,
            failed: self.failed,
            recovered: self.recovered,
            resumed: self.resumed,
            preempted: self.preempted,
            journal_torn: self.journal_torn,
            journal: self.journal.is_some(),
            paused: self.paused,
            draining: self.draining,
        }
    }
}

struct Shared {
    core: Mutex<Core>,
    work: Condvar,
}

fn send_line(writer: &Writer, line: &str) {
    // A vanished client must not take the server down; its events are
    // still in the job log.
    let mut stream = writer.lock().expect("writer mutex");
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// [`send_line`] for jobs that may have no client (journal-recovered).
fn maybe_send(writer: &Option<Writer>, line: &str) {
    if let Some(w) = writer {
        send_line(w, line);
    }
}

/// Logs (under the core lock) then sends each event, preserving order.
fn emit(shared: &Shared, writer: &Writer, events: &[JobEvent]) {
    let lines: Vec<String> = events.iter().map(JobEvent::to_json).collect();
    {
        let mut core = shared.core.lock().expect("core mutex");
        for line in &lines {
            core.log_line(line);
        }
    }
    for line in &lines {
        send_line(writer, line);
    }
}

/// The cache identity of a submission: the job kind qualifying the spec's
/// canonical string (a `sim` and a `dse` of the same spec differ in their
/// resource columns, so they must not share a cache slot).
pub fn cache_key(kind: JobKind, spec: &RunSpec) -> String {
    format!("serve kind={} {}", kind.label(), spec.canonical())
}

/// The snapshot file name for a job inside the checkpoint directory.
fn checkpoint_file_name(job: JobId) -> String {
    format!("job-{}.ckpt.json", job.0)
}

/// Loads one snapshot file. Any failure — missing file, torn write,
/// corrupted checksum, foreign format version — means the job restarts
/// from cycle 0 rather than refusing recovery.
fn load_checkpoint(dir: &Path, file: &str) -> Option<Snapshot> {
    let text = std::fs::read_to_string(dir.join(file)).ok()?;
    Snapshot::from_json(&text).ok()
}

/// A running job server bound to a loopback port.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    dispatcher: JoinHandle<()>,
}

impl Server {
    /// Binds `127.0.0.1:0` (an OS-assigned port — this is a local harness,
    /// not an internet-facing daemon) and starts the accept loop, the
    /// dispatcher and the simulation pool. When `job_log` names an
    /// existing journal, unfinished jobs from previous lifetimes are
    /// re-queued first (in id order, quota-exempt) and resume from their
    /// latest loadable checkpoint.
    ///
    /// # Errors
    ///
    /// The bind failure or a cache/journal/checkpoint-dir file failure,
    /// as a message.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let cache = match &config.cache_path {
            Some(path) => ResultCache::open(path)?,
            None => ResultCache::in_memory(),
        };
        // Replay BEFORE opening for append, so recovery sees exactly the
        // previous lifetimes' records.
        let (journal, recovery) = match &config.job_log {
            Some(path) => {
                let recovery = journal::replay(path);
                (
                    Some(Journal::open(path, config.flush_every_record)?),
                    recovery,
                )
            }
            None => (None, journal::Recovery::default()),
        };
        if let Some(dir) = &config.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }

        let mut queue = FairQueue::new(config.tenant_quota);
        let mut jobs = HashMap::new();
        let recovered = recovery.jobs.len() as u64;
        for r in recovery.jobs {
            let resume = r.checkpoint.as_ref().and_then(|(cycle, file)| {
                let snap = load_checkpoint(config.checkpoint_dir.as_deref()?, file)?;
                Some((*cycle, snap))
            });
            let key = cache_key(r.kind, &r.spec);
            queue.restore(&r.tenant, JobId(r.job));
            jobs.insert(
                r.job,
                Job {
                    kind: r.kind,
                    tenant: r.tenant,
                    spec: r.spec,
                    key,
                    client: None,
                    resume,
                },
            );
        }

        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                queue,
                jobs,
                cache,
                next_job: recovery.next_job.max(1),
                paused: false,
                draining: false,
                stopped: false,
                inflight: 0,
                completed: 0,
                failed: 0,
                recovered,
                resumed: 0,
                preempted: 0,
                journal_torn: recovery.torn_lines,
                drain_waiters: Vec::new(),
                journal,
                checkpoint_dir: config.checkpoint_dir.clone(),
            }),
            work: Condvar::new(),
        });

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pxl-serve-dispatch".to_owned())
                .spawn(move || dispatch_loop(&shared, workers, addr))
                .map_err(|e| format!("spawn dispatcher: {e}"))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pxl-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| format!("spawn accept loop: {e}"))?
        };
        Ok(Server {
            addr,
            shared,
            accept,
            dispatcher,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Crash-safety counters as a metrics registry (name-ordered when
    /// rendered): `server.journal_torn`, `server.preemptions`,
    /// `server.recovered_jobs`, `server.resumed_legs`.
    pub fn metrics(&self) -> Metrics {
        let core = self.shared.core.lock().expect("core mutex");
        let mut m = Metrics::new();
        m.add("server.journal_torn", core.journal_torn);
        m.add("server.preemptions", core.preempted);
        m.add("server.recovered_jobs", core.recovered);
        m.add("server.resumed_legs", core.resumed);
        m
    }

    /// Waits for a graceful drain (a client's `shutdown` request) to finish
    /// and returns the lifetime totals. Blocks until then.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn join(self) -> ServeSummary {
        self.dispatcher.join().expect("dispatcher thread panicked");
        self.accept.join().expect("accept thread panicked");
        let core = self.shared.core.lock().expect("core mutex");
        ServeSummary {
            completed: core.completed,
            failed: core.failed,
            cache_hits: core.cache.hits() as u64,
            cache_misses: core.cache.misses() as u64,
            recovered: core.recovered,
            resumed: core.resumed,
            preempted: core.preempted,
            journal_torn: core.journal_torn,
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.core.lock().expect("core mutex").stopped {
            break;
        }
        let Ok(stream) = conn else { continue };
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("pxl-serve-conn".to_owned())
            .spawn(move || serve_connection(stream, &shared));
        if spawned.is_err() {
            continue;
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    use std::io::BufRead;
    let Ok(reading) = stream.try_clone() else {
        return;
    };
    let writer: Writer = Arc::new(Mutex::new(stream));
    let reader = std::io::BufReader::new(reading);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match Request::from_json(&line) {
            Err(e) => emit(
                shared,
                &writer,
                &[JobEvent::Error {
                    code: e.code,
                    message: e.message,
                }],
            ),
            Ok(request) => handle_request(shared, &writer, request),
        }
    }
}

fn handle_request(shared: &Arc<Shared>, writer: &Writer, request: Request) {
    match request {
        Request::Submit { tenant, kind, spec } => {
            let key = cache_key(kind, &spec);
            let mut core = shared.core.lock().expect("core mutex");
            if core.draining {
                drop(core);
                emit(
                    shared,
                    writer,
                    &[JobEvent::Error {
                        code: ErrorCode::Draining,
                        message: "the server is draining and accepts no new jobs".to_owned(),
                    }],
                );
                return;
            }
            let id = core.next_job;
            match core.queue.enqueue(&tenant, JobId(id)) {
                Err(quota) => {
                    drop(core);
                    emit(
                        shared,
                        writer,
                        &[JobEvent::Error {
                            code: ErrorCode::QuotaExceeded,
                            message: quota.to_string(),
                        }],
                    );
                }
                Ok(position) => {
                    core.next_job += 1;
                    // Write-ahead: the journal knows about the job before
                    // the client does, so an ack implies recoverability.
                    let record = journal::submit_line(id, &tenant, kind, &spec);
                    core.log_line(&record);
                    core.jobs.insert(
                        id,
                        Job {
                            kind,
                            tenant: tenant.clone(),
                            spec: *spec,
                            key: key.clone(),
                            client: Some(Arc::clone(writer)),
                            resume: None,
                        },
                    );
                    let events = [
                        JobEvent::Accepted {
                            job: JobId(id),
                            tenant,
                            key: ResultCache::address(&key),
                        },
                        JobEvent::Queued {
                            job: JobId(id),
                            position: position as u64,
                        },
                    ];
                    for e in &events {
                        core.log_line(&e.to_json());
                    }
                    drop(core);
                    shared.work.notify_all();
                    for e in &events {
                        send_line(writer, &e.to_json());
                    }
                }
            }
        }
        Request::Status => {
            let event = {
                let mut core = shared.core.lock().expect("core mutex");
                let event = core.status_event();
                core.log_line(&event.to_json());
                event
            };
            send_line(writer, &event.to_json());
        }
        Request::Stats => {
            let event = {
                let mut core = shared.core.lock().expect("core mutex");
                let event = core.stats_event();
                core.log_line(&event.to_json());
                event
            };
            send_line(writer, &event.to_json());
        }
        Request::Pause | Request::Resume => {
            let event = {
                let mut core = shared.core.lock().expect("core mutex");
                core.paused = matches!(request, Request::Pause);
                let event = core.status_event();
                core.log_line(&event.to_json());
                event
            };
            shared.work.notify_all();
            send_line(writer, &event.to_json());
        }
        Request::Shutdown => {
            let mut core = shared.core.lock().expect("core mutex");
            core.draining = true;
            core.drain_waiters.push(Arc::clone(writer));
            drop(core);
            shared.work.notify_all();
        }
    }
}

fn dispatch_loop(shared: &Arc<Shared>, workers: usize, addr: SocketAddr) {
    let pool = WorkerPool::new(workers);
    let mut core = shared.core.lock().expect("core mutex");
    loop {
        if core.draining && core.queue.is_empty() && core.inflight == 0 {
            let event = JobEvent::Drained {
                completed: core.completed,
            };
            core.log_line(&event.to_json());
            core.stopped = true;
            let waiters = std::mem::take(&mut core.drain_waiters);
            drop(core);
            for w in &waiters {
                send_line(w, &event.to_json());
            }
            // The accept loop is blocked in accept(); poke it so it sees
            // the stopped flag and exits.
            let _ = TcpStream::connect(addr);
            break;
        }
        if !core.paused && core.inflight < workers {
            if let Some(job_id) = core.queue.pop() {
                core.inflight += 1;
                let client = core
                    .jobs
                    .get(&job_id.0)
                    .expect("queued job is registered")
                    .client
                    .clone();
                let running = JobEvent::Running { job: job_id };
                core.log_line(&running.to_json());
                drop(core);
                maybe_send(&client, &running.to_json());
                let task_shared = Arc::clone(shared);
                pool.submit(move || run_job(&task_shared, job_id));
                core = shared.core.lock().expect("core mutex");
                continue;
            }
        }
        core = shared.work.wait(core).expect("core mutex");
    }
    // Drain condition guarantees no jobs are in flight here, so this
    // returns promptly.
    pool.shutdown();
}

/// How one scheduling leg of a job ended.
enum Verdict {
    /// The simulation completed (or the cache answered).
    Done {
        result: Measurement,
        trace_events: Option<u64>,
        metrics: Option<JobEvent>,
        resumed_from_cycle: Option<u64>,
    },
    /// The leg yielded at a checkpoint boundary because another job was
    /// waiting for the worker.
    Preempted {
        cycle: u64,
        snapshot: Snapshot,
    },
    Failed(String),
}

/// Runs one scheduling leg of a job and applies its outcome: terminal
/// events for `Done`/`Failed`, re-queue + `preempted` event for a yield.
fn run_job(shared: &Arc<Shared>, job_id: JobId) {
    let (spec, kind, key, client, resume, hit) = {
        let mut core = shared.core.lock().expect("core mutex");
        let job = core
            .jobs
            .get_mut(&job_id.0)
            .expect("running job is registered");
        let spec = job.spec.clone();
        let kind = job.kind;
        let key = job.key.clone();
        let client = job.client.clone();
        let resume = job.resume.take();
        // Profile jobs always execute: their artifact is the trace, which
        // the measurement cache does not store.
        let hit = if kind == JobKind::Profile {
            None
        } else {
            core.cache.get(&key)
        };
        (spec, kind, key, client, resume, hit)
    };

    let cached = hit.is_some();
    let resumed_leg = resume.is_some();
    let verdict = match hit {
        Some(result) => Verdict::Done {
            result,
            trace_events: None,
            metrics: None,
            resumed_from_cycle: None,
        },
        None => execute_leg(shared, job_id, &spec, kind, resume, &client),
    };

    match verdict {
        Verdict::Preempted { cycle, snapshot } => {
            let event = JobEvent::Preempted { job: job_id, cycle };
            {
                let mut core = shared.core.lock().expect("core mutex");
                if resumed_leg {
                    core.resumed += 1;
                }
                let job = core
                    .jobs
                    .get_mut(&job_id.0)
                    .expect("preempted job is registered");
                job.resume = Some((cycle, snapshot));
                let tenant = job.tenant.clone();
                core.queue.requeue_front(&tenant, job_id);
                core.inflight -= 1;
                core.preempted += 1;
                core.log_line(&event.to_json());
            }
            maybe_send(&client, &event.to_json());
            shared.work.notify_all();
        }
        Verdict::Done {
            result,
            trace_events,
            metrics,
            resumed_from_cycle,
        } => {
            let mut events: Vec<JobEvent> = Vec::new();
            let ckpt_dir = {
                let mut core = shared.core.lock().expect("core mutex");
                core.jobs.remove(&job_id.0);
                core.inflight -= 1;
                if !cached && kind != JobKind::Profile {
                    // Ignore a cache-persistence failure: the job itself
                    // succeeded and the client still gets its result.
                    let _ = core.cache.insert(&key, result);
                }
                core.completed += 1;
                if resumed_leg {
                    core.resumed += 1;
                }
                if let Some(m) = metrics {
                    events.push(m);
                }
                events.push(JobEvent::Done {
                    job: job_id,
                    cached,
                    result,
                    trace_events,
                    resumed_from_cycle,
                });
                for e in &events {
                    core.log_line(&e.to_json());
                }
                core.checkpoint_dir.clone()
            };
            // The terminal event is journaled; the snapshot file is now
            // dead weight.
            if let Some(dir) = ckpt_dir {
                let _ = std::fs::remove_file(dir.join(checkpoint_file_name(job_id)));
            }
            for e in &events {
                maybe_send(&client, &e.to_json());
            }
            shared.work.notify_all();
        }
        Verdict::Failed(error) => {
            let event = JobEvent::Failed { job: job_id, error };
            let ckpt_dir = {
                let mut core = shared.core.lock().expect("core mutex");
                core.jobs.remove(&job_id.0);
                core.inflight -= 1;
                core.failed += 1;
                if resumed_leg {
                    core.resumed += 1;
                }
                core.log_line(&event.to_json());
                core.checkpoint_dir.clone()
            };
            if let Some(dir) = ckpt_dir {
                let _ = std::fs::remove_file(dir.join(checkpoint_file_name(job_id)));
            }
            maybe_send(&client, &event.to_json());
            shared.work.notify_all();
        }
    }
}

/// Runs one simulation leg: from the job's start (or its latest
/// checkpoint) either to completion or to the first checkpoint boundary
/// at which another job is waiting for the worker. Each boundary reached
/// emits a [`JobEvent::Progress`] to the job's client (and the job log)
/// before deciding whether to yield.
fn execute_leg(
    shared: &Arc<Shared>,
    job_id: JobId,
    spec: &RunSpec,
    kind: JobKind,
    resume: Option<(u64, Snapshot)>,
    client: &Option<Writer>,
) -> Verdict {
    let run_spec = if kind == JobKind::Profile && spec.trace_capacity == 0 {
        spec.clone().with_trace(PROFILE_TRACE_CAPACITY)
    } else {
        spec.clone()
    };
    let resumed_from_cycle = resume.as_ref().map(|(c, _)| *c);
    let session = match &resume {
        Some((_, snap)) => SimSession::resume(&run_spec, snap),
        None => SimSession::start(&run_spec),
    };
    let mut session = match session {
        Err(e) => return Verdict::Failed(e.to_string()),
        Ok(None) => {
            return Verdict::Failed(
                RunError::Build(FlowError::NoLiteVariant(spec.benchmark.clone())).to_string(),
            )
        }
        Ok(Some(s)) => s,
    };
    let every = spec.checkpoint.map(|c| c.every_cycles);
    let clock = session.clock();
    // The next boundary: the first epoch multiple strictly beyond the
    // resume point.
    let mut boundary = every.map(|e| match resumed_from_cycle {
        Some(c) => (c / e + 1) * e,
        None => e,
    });
    loop {
        let pause = boundary.map(|b| clock.cycles_to_time(b));
        match session.advance(pause) {
            Err(e) => return Verdict::Failed(e.to_string()),
            Ok(SessionStatus::Finished(out)) => {
                // DSE jobs fold in the FPGA resource estimate; sim/profile
                // jobs (and CPU-baseline points, which have no accelerator
                // design) measure zero.
                let resources = if kind == JobKind::Dse {
                    spec.point.resources(&spec.benchmark)
                } else {
                    None
                };
                let result = pxl_flow::measurement_of(&run_spec, resources.as_ref(), &out);
                let m = &out.metrics;
                let snapshot = JobEvent::Metrics {
                    job: job_id,
                    kernel_ps: out.kernel.as_ps(),
                    steal_attempts: m.get("accel.steal_attempts") + m.get("cpu.steal_attempts"),
                    dram_bytes: m.get("mem.dram_bytes"),
                    trace_events: out.trace.len() as u64,
                };
                let trace_events = (kind == JobKind::Profile).then(|| out.trace.len() as u64);
                return Verdict::Done {
                    result,
                    trace_events,
                    metrics: Some(snapshot),
                    resumed_from_cycle,
                };
            }
            Ok(SessionStatus::Paused { .. }) => {
                let cycle = boundary.expect("paused only at a requested boundary");
                let snap = session.snapshot();
                persist_checkpoint(shared, job_id, cycle, &snap);
                // Progress is derived from simulation state only (cycles
                // and task counters), so a resumed leg reports the same
                // numbers an uninterrupted run would.
                let m = session.metrics();
                let tasks = m.get("accel.tasks") + m.get("cpu.tasks");
                let progress = JobEvent::Progress {
                    job: job_id,
                    cycle,
                    tasks,
                    tasks_per_sec: pxl_sim::rate_per_sec(
                        tasks,
                        clock.cycles_to_time(cycle).as_ps(),
                    ),
                };
                let contended = {
                    let mut core = shared.core.lock().expect("core mutex");
                    core.log_line(&progress.to_json());
                    !core.queue.is_empty()
                };
                maybe_send(client, &progress.to_json());
                if contended {
                    return Verdict::Preempted {
                        cycle,
                        snapshot: snap,
                    };
                }
                boundary = every.map(|e| cycle + e);
            }
        }
    }
}

/// Writes the snapshot atomically (temp file + rename) and journals it.
/// Failures degrade durability but never fail the running job.
fn persist_checkpoint(shared: &Arc<Shared>, job_id: JobId, cycle: u64, snap: &Snapshot) {
    let dir = {
        let core = shared.core.lock().expect("core mutex");
        core.checkpoint_dir.clone()
    };
    let Some(dir) = dir else { return };
    let file = checkpoint_file_name(job_id);
    let tmp = dir.join(format!("{file}.tmp"));
    let durable = std::fs::write(&tmp, format!("{}\n", snap.to_json()))
        .and_then(|()| std::fs::rename(&tmp, dir.join(&file)));
    if durable.is_ok() {
        let line = journal::checkpoint_line(job_id.0, cycle, &file);
        let mut core = shared.core.lock().expect("core mutex");
        core.log_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_keys_qualify_the_kind() {
        use pxl_apps::Scale;
        use pxl_dse::{DesignPoint, PointArch};
        let spec = RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 2, 4),
        );
        let sim = cache_key(JobKind::Sim, &spec);
        let dse = cache_key(JobKind::Dse, &spec);
        assert_eq!(
            sim,
            "serve kind=sim bench=uts scale=tiny arch=flex tiles=2 pes=4 \
             cache_kb=32 queue=1024 pstore=8192"
        );
        assert_ne!(sim, dse, "sim and dse must not share a cache slot");
        assert_ne!(
            ResultCache::address(&sim),
            ResultCache::address(&dse),
            "content addresses must differ too"
        );
    }
}
