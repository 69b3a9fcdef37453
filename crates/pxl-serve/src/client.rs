//! The typed client: a blocking connection that submits specs and reads
//! the server's event stream.
//!
//! One connection is one ordered stream: the server interleaves events
//! from all of this client's jobs onto it in emission order. Helpers that
//! wait for a particular reply ([`Client::submit`], [`Client::wait`],
//! [`Client::status`]) buffer any other events they read past, and
//! [`Client::next_event`] drains that buffer first — no event is ever
//! dropped.
//!
//! [`Client::connect`] blocks indefinitely, which suits tests driving a
//! server they own. Against a server that can crash and restart (the
//! crash-recovery smoke, CI), use [`Client::connect_with`]: it bounds the
//! connect and read times ([`ClientError::TimedOut`] instead of hanging)
//! and retries refused connections with bounded exponential backoff and
//! deterministic, seeded jitter — so a fleet of restarting clients does
//! not reconnect in lockstep, yet every run of the harness behaves the
//! same.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pxl_flow::RunSpec;
use pxl_sim::XorShift64;

use crate::protocol::{ErrorCode, JobEvent, JobId, JobKind, Request};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The connection failed or closed.
    Io(String),
    /// A bounded connect or read exceeded its [`ClientConfig`] deadline.
    TimedOut(String),
    /// The server sent something that does not parse as a [`JobEvent`].
    Protocol(String),
    /// The server rejected the request with a typed error event.
    Rejected {
        /// The machine-checkable rejection reason.
        code: ErrorCode,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::TimedOut(e) => write!(f, "timed out: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected { code, message } => {
                write!(f, "rejected ({}): {message}", code.label())
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Connection tunables for [`Client::connect_with`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for one TCP connect attempt.
    pub connect_timeout: Duration,
    /// Deadline for one blocking read; `None` blocks forever (the
    /// [`Client::connect`] behaviour).
    pub read_timeout: Option<Duration>,
    /// Connect attempts before giving up (clamped to at least 1).
    pub connect_attempts: u32,
    /// Backoff before retry `n` is `backoff_base * 2^(n-1)` capped at
    /// [`ClientConfig::backoff_max`], half of it deterministic and half
    /// jittered by the seeded RNG ("equal jitter").
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_max: Duration,
    /// Seed for the jitter RNG — same seed, same retry schedule.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(60)),
            connect_attempts: 8,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x9E3779B97F4A7C15,
        }
    }
}

impl ClientConfig {
    /// The backoff to sleep after failed attempt `attempt` (1-based):
    /// exponential in the attempt number, capped, with the upper half
    /// drawn from `rng`.
    fn backoff(&self, attempt: u32, rng: &mut XorShift64) -> Duration {
        let base = self.backoff_base.as_millis() as u64;
        let cap = self.backoff_max.as_millis() as u64;
        let exp = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32))
            .min(cap);
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            rng.next_u64() % (half + 1)
        };
        Duration::from_millis(half + jitter)
    }
}

/// Maps one I/O failure to the typed client error, distinguishing
/// deadline expiry (`WouldBlock`/`TimedOut`, platform-dependent) from
/// real transport failures.
fn io_error(context: &str, e: &std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ClientError::TimedOut(format!("{context}: {e}"))
        }
        _ => ClientError::Io(format!("{context}: {e}")),
    }
}

/// The counters a [`Client::status`] round-trip returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusSnapshot {
    /// Jobs waiting across all tenant queues.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished successfully since startup.
    pub completed: u64,
    /// Jobs failed since startup.
    pub failed: u64,
    /// Whether dispatch is paused.
    pub paused: bool,
    /// Whether the server is draining.
    pub draining: bool,
}

/// The server-health picture a [`Client::stats`] round-trip returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-tenant queue depths, sorted by tenant name (drained tenants
    /// appear at depth 0).
    pub tenants: Vec<(String, u64)>,
    /// Jobs waiting across all tenant queues.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished successfully since startup.
    pub completed: u64,
    /// Jobs failed since startup.
    pub failed: u64,
    /// Jobs re-admitted from the journal at startup.
    pub recovered: u64,
    /// Execution legs resumed from a persisted checkpoint.
    pub resumed: u64,
    /// Cooperative yields at checkpoint boundaries.
    pub preempted: u64,
    /// Torn trailing journal lines discarded at recovery.
    pub journal_torn: u64,
    /// Whether a journal is attached (crash-safe mode).
    pub journal: bool,
    /// Whether dispatch is paused.
    pub paused: bool,
    /// Whether the server is draining.
    pub draining: bool,
}

/// One [`JobEvent::Progress`] beat, as handed to the
/// [`Client::wait_with_progress`] callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// The reporting job.
    pub job: JobId,
    /// Simulated cycles completed so far.
    pub cycle: u64,
    /// Tasks executed so far (accelerator + CPU).
    pub tasks: u64,
    /// Task throughput in tasks per simulated second.
    pub tasks_per_sec: u64,
}

/// A blocking connection to a [`crate::Server`].
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pending: VecDeque<(JobEvent, String)>,
}

impl Client {
    /// Connects to a server's [`crate::Server::addr`]: one attempt, no
    /// deadlines (reads block until the server answers).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection fails.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        Client::from_stream(writer)
    }

    /// Connects with bounded timeouts and retry: up to
    /// `config.connect_attempts` connect attempts, each bounded by
    /// `config.connect_timeout`, sleeping a capped, seeded-jitter
    /// exponential backoff between attempts. The returned client's reads
    /// are bounded by `config.read_timeout` and fail as
    /// [`ClientError::TimedOut`] instead of hanging — the behaviour a
    /// harness needs when the server may have crashed mid-answer.
    ///
    /// # Errors
    ///
    /// The last attempt's failure: [`ClientError::TimedOut`] when it hit
    /// the deadline, [`ClientError::Io`] when the connection was refused.
    pub fn connect_with(addr: SocketAddr, config: &ClientConfig) -> Result<Client, ClientError> {
        let attempts = config.connect_attempts.max(1);
        let mut rng = XorShift64::new(config.jitter_seed);
        let mut last = None;
        for attempt in 1..=attempts {
            match TcpStream::connect_timeout(&addr, config.connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(config.read_timeout)
                        .map_err(|e| ClientError::Io(format!("set read timeout: {e}")))?;
                    return Client::from_stream(stream);
                }
                Err(e) => last = Some(io_error("connect", &e)),
            }
            if attempt < attempts {
                std::thread::sleep(config.backoff(attempt, &mut rng));
            }
        }
        Err(last.expect("at least one attempt was made"))
    }

    fn from_stream(writer: TcpStream) -> Result<Client, ClientError> {
        // Each request is one small write followed by a wait for the
        // reply; with Nagle's algorithm on, that write can sit behind the
        // server's delayed ACK for tens of milliseconds.
        writer
            .set_nodelay(true)
            .map_err(|e| ClientError::Io(format!("set TCP_NODELAY: {e}")))?;
        let reading = writer
            .try_clone()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Client {
            writer,
            reader: BufReader::new(reading),
            pending: VecDeque::new(),
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut line = request.to_json();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| io_error("send", &e))
    }

    fn read_event(&mut self) -> Result<(JobEvent, String), ClientError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| io_error("read", &e))?;
            if n == 0 {
                return Err(ClientError::Io("server closed the connection".to_owned()));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                continue;
            }
            let event = JobEvent::from_json(trimmed).map_err(ClientError::Protocol)?;
            // The server refuses a connection past its cap with one
            // `overloaded` line and closes it: no request can succeed.
            if let JobEvent::Error {
                code: code @ ErrorCode::Overloaded,
                message,
            } = event
            {
                return Err(ClientError::Rejected { code, message });
            }
            return Ok((event, trimmed.to_owned()));
        }
    }

    /// The next event on this connection with its raw wire line (oldest
    /// buffered event first). Blocks until one arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on disconnect, [`ClientError::Protocol`] on an
    /// unparseable line, [`ClientError::Rejected`] with
    /// [`ErrorCode::Overloaded`] when the server refused the connection at
    /// its cap (the server closes the connection right after).
    pub fn next_event_raw(&mut self) -> Result<(JobEvent, String), ClientError> {
        if let Some(buffered) = self.pending.pop_front() {
            return Ok(buffered);
        }
        self.read_event()
    }

    /// [`Client::next_event_raw`] without the raw line.
    ///
    /// # Errors
    ///
    /// Same as [`Client::next_event_raw`].
    pub fn next_event(&mut self) -> Result<JobEvent, ClientError> {
        self.next_event_raw().map(|(event, _)| event)
    }

    /// Submits one spec as a job under `tenant`, returning the assigned id
    /// and the content address of its cache identity. Events of other jobs
    /// arriving meanwhile are buffered; the new job's `queued` event stays
    /// in the stream for [`Client::next_event`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] with the server's typed error code
    /// (`quota_exceeded`, `draining`, ...), or a transport failure.
    pub fn submit_with_key(
        &mut self,
        tenant: &str,
        kind: JobKind,
        spec: &RunSpec,
    ) -> Result<(JobId, String), ClientError> {
        self.send(&Request::Submit {
            tenant: tenant.to_owned(),
            kind,
            spec: Box::new(spec.clone()),
        })?;
        loop {
            let (event, raw) = self.read_event()?;
            match event {
                JobEvent::Accepted { job, key, .. } => return Ok((job, key)),
                JobEvent::Error { code, message } => {
                    return Err(ClientError::Rejected { code, message })
                }
                other => self.pending.push_back((other, raw)),
            }
        }
    }

    /// [`Client::submit_with_key`] without the content address.
    ///
    /// # Errors
    ///
    /// Same as [`Client::submit_with_key`].
    pub fn submit(
        &mut self,
        tenant: &str,
        kind: JobKind,
        spec: &RunSpec,
    ) -> Result<JobId, ClientError> {
        self.submit_with_key(tenant, kind, spec).map(|(job, _)| job)
    }

    /// Reads until `job`'s terminal event ([`JobEvent::Done`] or
    /// [`JobEvent::Failed`]) and returns it with its raw wire line.
    /// Checks the pending buffer first; other events read past are
    /// buffered in arrival order.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure. A *failed job* is not an `Err`:
    /// the caller gets the [`JobEvent::Failed`] event.
    pub fn wait_raw(&mut self, job: JobId) -> Result<(JobEvent, String), ClientError> {
        if let Some(at) = self.pending.iter().position(|(e, _)| {
            matches!(e,
                JobEvent::Done { job: j, .. } | JobEvent::Failed { job: j, .. } if *j == job)
        }) {
            return Ok(self.pending.remove(at).expect("position is in range"));
        }
        loop {
            let (event, raw) = self.read_event()?;
            match &event {
                JobEvent::Done { job: j, .. } | JobEvent::Failed { job: j, .. } if *j == job => {
                    return Ok((event, raw))
                }
                _ => self.pending.push_back((event, raw)),
            }
        }
    }

    /// [`Client::wait_raw`] without the raw line.
    ///
    /// # Errors
    ///
    /// Same as [`Client::wait_raw`].
    pub fn wait(&mut self, job: JobId) -> Result<JobEvent, ClientError> {
        self.wait_raw(job).map(|(event, _)| event)
    }

    /// [`Client::wait`] that hands `job`'s [`JobEvent::Progress`] beats to
    /// `on_progress` as they arrive (buffered ones first, in order)
    /// instead of burying them in the pending buffer. Events of other
    /// jobs read past remain readable via [`Client::next_event`].
    ///
    /// # Errors
    ///
    /// Same as [`Client::wait_raw`]. A failed job is not an `Err`: the
    /// caller gets the [`JobEvent::Failed`] event.
    pub fn wait_with_progress(
        &mut self,
        job: JobId,
        mut on_progress: impl FnMut(Progress),
    ) -> Result<JobEvent, ClientError> {
        let mut kept: Vec<(JobEvent, String)> = Vec::new();
        let terminal = loop {
            let next = match self.pending.pop_front() {
                Some(buffered) => buffered,
                None => match self.read_event() {
                    Ok(fresh) => fresh,
                    Err(e) => {
                        // Keep what was read past even on failure.
                        for k in kept.into_iter().rev() {
                            self.pending.push_front(k);
                        }
                        return Err(e);
                    }
                },
            };
            match &next.0 {
                JobEvent::Progress {
                    job: j,
                    cycle,
                    tasks,
                    tasks_per_sec,
                } if *j == job => on_progress(Progress {
                    job,
                    cycle: *cycle,
                    tasks: *tasks,
                    tasks_per_sec: *tasks_per_sec,
                }),
                JobEvent::Done { job: j, .. } | JobEvent::Failed { job: j, .. } if *j == job => {
                    break next.0;
                }
                _ => kept.push(next),
            }
        };
        for k in kept.into_iter().rev() {
            self.pending.push_front(k);
        }
        Ok(terminal)
    }

    fn await_status(&mut self) -> Result<StatusSnapshot, ClientError> {
        loop {
            let (event, raw) = self.read_event()?;
            match event {
                JobEvent::Status {
                    queued,
                    running,
                    completed,
                    failed,
                    paused,
                    draining,
                } => {
                    return Ok(StatusSnapshot {
                        queued,
                        running,
                        completed,
                        failed,
                        paused,
                        draining,
                    })
                }
                other => self.pending.push_back((other, raw)),
            }
        }
    }

    /// Asks for the server's counters.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    pub fn status(&mut self) -> Result<StatusSnapshot, ClientError> {
        self.send(&Request::Status)?;
        self.await_status()
    }

    /// Asks for the full server-health picture: per-tenant queue depths,
    /// lifecycle counters and journal state. Events of other jobs read
    /// past are buffered.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&Request::Stats)?;
        loop {
            let (event, raw) = self.read_event()?;
            match event {
                JobEvent::Stats {
                    tenants,
                    queued,
                    running,
                    completed,
                    failed,
                    recovered,
                    resumed,
                    preempted,
                    journal_torn,
                    journal,
                    paused,
                    draining,
                } => {
                    return Ok(StatsSnapshot {
                        tenants,
                        queued,
                        running,
                        completed,
                        failed,
                        recovered,
                        resumed,
                        preempted,
                        journal_torn,
                        journal,
                        paused,
                        draining,
                    })
                }
                other => self.pending.push_back((other, raw)),
            }
        }
    }

    /// Pauses dispatch (running jobs finish; queued jobs wait). The
    /// returned snapshot acknowledges the flag.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    pub fn pause(&mut self) -> Result<StatusSnapshot, ClientError> {
        self.send(&Request::Pause)?;
        self.await_status()
    }

    /// Resumes dispatch. The returned snapshot acknowledges the flag.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    pub fn resume(&mut self) -> Result<StatusSnapshot, ClientError> {
        self.send(&Request::Resume)?;
        self.await_status()
    }

    /// Requests a graceful drain and blocks until the server's
    /// [`JobEvent::Drained`] arrives, returning the lifetime completed
    /// count. Events of still-finishing jobs arriving meanwhile are
    /// buffered and remain readable via [`Client::next_event`].
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.send(&Request::Shutdown)?;
        loop {
            let (event, raw) = self.read_event()?;
            match event {
                JobEvent::Drained { completed } => return Ok(completed),
                other => self.pending.push_back((other, raw)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_exponential_and_deterministic() {
        let config = ClientConfig {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(400),
            jitter_seed: 42,
            ..ClientConfig::default()
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = XorShift64::new(seed);
            (1..=6).map(|n| config.backoff(n, &mut rng)).collect()
        };
        let a = schedule(42);
        // Equal-jitter: each sleep lies in [cap/2, cap] of its capped
        // exponential 100, 200, 400, 400, ...
        for (i, (d, cap)) in a.iter().zip([100u64, 200, 400, 400, 400, 400]).enumerate() {
            let ms = d.as_millis() as u64;
            assert!(
                ms >= cap / 2 && ms <= cap,
                "attempt {}: {ms}ms vs cap {cap}",
                i + 1
            );
        }
        assert_eq!(a, schedule(42), "same seed, same schedule");
        assert_ne!(a, schedule(43), "different seeds diverge");
    }

    #[test]
    fn bounded_reads_surface_timed_out() {
        // A listener that accepts and then says nothing.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let keep = std::thread::spawn(move || listener.accept());
        let config = ClientConfig {
            read_timeout: Some(Duration::from_millis(50)),
            connect_attempts: 1,
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, &config).unwrap();
        let err = client.next_event().unwrap_err();
        assert!(matches!(err, ClientError::TimedOut(_)), "{err}");
        assert!(err.to_string().starts_with("timed out"));
        drop(client);
        let _ = keep.join();
    }

    #[test]
    fn refused_connections_retry_then_fail_typed() {
        // Bind and drop to get a port that refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = ClientConfig {
            connect_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            ..ClientConfig::default()
        };
        let err = match Client::connect_with(addr, &config) {
            Err(e) => e,
            Ok(_) => panic!("connect to a dropped listener must fail"),
        };
        assert!(
            matches!(err, ClientError::Io(_) | ClientError::TimedOut(_)),
            "{err}"
        );
    }
}
