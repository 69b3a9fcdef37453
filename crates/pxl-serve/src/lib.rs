//! Simulation-as-a-service: a job server over the canonical
//! [`RunSpec`](pxl_flow::RunSpec) API.
//!
//! Everything the workspace can run — simulations, design-space
//! evaluations, profiled runs — is one serializable spec, so it can also
//! be a *job*: submitted over a socket, queued fairly across tenants,
//! deduplicated by content address, and answered with a byte-stable
//! result payload. This crate provides the three layers:
//!
//! - [`protocol`]: the line-delimited JSON wire format — typed
//!   [`Request`]s, [`JobEvent`]s and [`ErrorCode`]s with exact JSON
//!   round-trips (built on `pxl_sim::json`, no external dependencies).
//! - [`sched`]: [`FairQueue`], deterministic round-robin fair-share
//!   queuing with per-tenant quotas — pure data, unit-testable.
//! - [`journal`]: the write-ahead job journal that makes the server
//!   crash-safe — submissions are durable before they are acknowledged,
//!   and a restart replays the journal to recover unfinished jobs.
//! - [`server`]/[`client`]: the threaded TCP [`Server`] (accept loop,
//!   dispatcher, `pxl_sim::pool::WorkerPool` simulation workers,
//!   content-addressed `ResultCache` dedup, checkpoint/restore with
//!   cooperative preemption, graceful drain, JSONL job log) and the
//!   blocking [`Client`] with configurable timeouts and retry/backoff
//!   ([`ClientConfig`]).
//!
//! # Example
//!
//! ```
//! use pxl_apps::Scale;
//! use pxl_dse::{DesignPoint, PointArch};
//! use pxl_flow::RunSpec;
//! use pxl_serve::{Client, JobEvent, JobKind, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let spec = RunSpec::new("uts", Scale::Tiny, DesignPoint::accel(PointArch::Flex, 1, 2));
//! let job = client.submit("docs", JobKind::Sim, &spec).unwrap();
//! match client.wait(job).unwrap() {
//!     JobEvent::Done { result, .. } => assert!(result.kernel_ps > 0),
//!     other => panic!("unexpected {other:?}"),
//! }
//! client.drain().unwrap();
//! server.join();
//! ```

pub mod client;
pub mod journal;
pub mod protocol;
pub mod sched;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, Progress, StatsSnapshot, StatusSnapshot};
pub use protocol::{
    measurement_from_json_value, measurement_to_json_value, ErrorCode, JobEvent, JobId, JobKind,
    JobStatus, Request, RequestError,
};
pub use sched::{FairQueue, QuotaExceeded};
pub use server::{cache_key, ServeSummary, Server, ServerConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_apps::Scale;
    use pxl_dse::{DesignPoint, PointArch};
    use pxl_flow::RunSpec;

    fn tiny_spec(bench: &str, pes: usize) -> RunSpec {
        RunSpec::new(
            bench,
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 1, pes),
        )
    }

    #[test]
    fn end_to_end_fair_share_dedup_and_drain() {
        let server = Server::start(ServerConfig {
            workers: 1,
            tenant_quota: 8,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        // Pause so the queue fills before the single worker starts: the
        // dispatch order is then exactly FairQueue's deterministic
        // round-robin.
        assert!(client.pause().unwrap().paused);
        let spec_a = tiny_spec("uts", 2);
        let spec_b = tiny_spec("queens", 2);
        let a1 = client.submit("alice", JobKind::Sim, &spec_a).unwrap();
        let a2 = client.submit("alice", JobKind::Sim, &spec_a).unwrap();
        let b1 = client.submit("bob", JobKind::Sim, &spec_b).unwrap();
        assert!(!client.resume().unwrap().paused);

        // Alice flooded first, but bob's job must run between hers. The
        // terminal (done) event is the last per job, so once all three are
        // in, every running event has been seen too.
        let mut running_order = Vec::new();
        let mut finished = std::collections::HashMap::new();
        while finished.len() < 3 {
            let (event, raw) = client.next_event_raw().unwrap();
            match &event {
                JobEvent::Running { job } => running_order.push(*job),
                JobEvent::Done { job, .. } => {
                    finished.insert(*job, (event.clone(), raw));
                }
                JobEvent::Failed { job, error } => panic!("{job} failed: {error}"),
                _ => {}
            }
        }
        assert_eq!(running_order, vec![a1, b1, a2]);

        // a2 ran the same spec as a1: it must be a pure cache hit with a
        // byte-identical payload.
        let (done_a1, raw_a1) = finished.remove(&a1).unwrap();
        let (done_a2, raw_a2) = finished.remove(&a2).unwrap();
        let (cached_1, result_1) = match done_a1 {
            JobEvent::Done { cached, result, .. } => (cached, result),
            other => panic!("unexpected {other:?}"),
        };
        let (cached_2, result_2) = match done_a2 {
            JobEvent::Done { cached, result, .. } => (cached, result),
            other => panic!("unexpected {other:?}"),
        };
        assert!(!cached_1, "first run must simulate");
        assert!(cached_2, "second identical run must be a cache hit");
        assert_eq!(
            measurement_to_json_value(&result_1).to_json(),
            measurement_to_json_value(&result_2).to_json(),
            "identical specs must produce byte-identical payloads\n a1: {raw_a1}\n a2: {raw_a2}"
        );
        match finished.remove(&b1).unwrap().0 {
            JobEvent::Done { cached, .. } => assert!(!cached),
            other => panic!("unexpected {other:?}"),
        }

        // Graceful drain: refuse new work, finish everything, report.
        let c1 = client
            .submit("carol", JobKind::Sim, &tiny_spec("uts", 4))
            .unwrap();
        let completed = client.drain().unwrap();
        assert_eq!(completed, 4, "the in-flight job must finish before drain");
        match client.wait(c1).unwrap() {
            JobEvent::Done { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        let err = client
            .submit("carol", JobKind::Sim, &tiny_spec("uts", 2))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Rejected {
                    code: ErrorCode::Draining,
                    ..
                }
            ),
            "{err}"
        );
        let summary = server.join();
        assert_eq!(summary.completed, 4);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 3);
    }

    #[test]
    fn quotas_and_failures_are_typed() {
        let server = Server::start(ServerConfig {
            workers: 1,
            tenant_quota: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.pause().unwrap();
        let ok = client
            .submit("a", JobKind::Sim, &tiny_spec("uts", 2))
            .unwrap();
        let err = client
            .submit("a", JobKind::Sim, &tiny_spec("queens", 2))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ClientError::Rejected {
                    code: ErrorCode::QuotaExceeded,
                    ..
                }
            ),
            "{err}"
        );
        // A spec naming an unknown benchmark is admitted (the server does
        // not simulate at admission time) and fails as a typed job event.
        let bad = client
            .submit(
                "b",
                JobKind::Sim,
                &RunSpec::new("nope", Scale::Tiny, DesignPoint::cpu(1)),
            )
            .unwrap();
        client.resume().unwrap();
        match client.wait(ok).unwrap() {
            JobEvent::Done { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        match client.wait(bad).unwrap() {
            JobEvent::Failed { error, .. } => {
                assert_eq!(error, "unknown benchmark \"nope\"");
            }
            other => panic!("unexpected {other:?}"),
        }
        client.drain().unwrap();
        let summary = server.join();
        assert_eq!((summary.completed, summary.failed), (1, 1));
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pxl-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// Done events per job id in a journal file: the exactly-once ledger.
    fn done_counts(path: &std::path::Path) -> std::collections::HashMap<u64, u64> {
        let mut counts = std::collections::HashMap::new();
        for line in std::fs::read_to_string(path).unwrap().lines() {
            if let Ok(JobEvent::Done { job, .. }) = JobEvent::from_json(line) {
                *counts.entry(job.0).or_insert(0) += 1;
            }
        }
        counts
    }

    /// A previous lifetime admitted jobs 1 and 2, finished only job 1, and
    /// crashed before job 2 ran. Job 2 also has a durable checkpoint at
    /// about half its run. Returns job 2's spec, its checkpoint epoch and
    /// its uninterrupted outcome.
    fn crashed_lifetime(dir: &std::path::Path) -> (RunSpec, u64, pxl_flow::RunOutcome) {
        let base = tiny_spec("uts", 2);
        let reference = pxl_flow::execute(&base).unwrap().unwrap();
        let mut session = pxl_flow::SimSession::start(&base).unwrap().unwrap();
        let clock = session.clock();
        let epoch = clock
            .time_to_cycles(pxl_sim::Time::from_ps(reference.kernel.as_ps() / 2))
            .max(1);
        let spec = base.clone().with_checkpoint(epoch);
        match session.advance(Some(clock.cycles_to_time(epoch))).unwrap() {
            pxl_flow::SessionStatus::Paused { .. } => {}
            other => panic!("expected a pause, got {other:?}"),
        }
        std::fs::write(
            dir.join("job-2.ckpt.json"),
            format!("{}\n", session.snapshot().to_json()),
        )
        .unwrap();
        let mut j = journal::Journal::open(&dir.join("journal.jsonl"), true).unwrap();
        j.record(&journal::submit_line(1, "alice", JobKind::Sim, &base));
        j.record(
            &JobEvent::Done {
                job: JobId(1),
                cached: false,
                result: pxl_flow::measurement_of(&base, None, &reference),
                trace_events: None,
                resumed_from_cycle: None,
            }
            .to_json(),
        );
        j.record(&journal::submit_line(2, "alice", JobKind::Sim, &spec));
        j.record(&journal::checkpoint_line(2, epoch, "job-2.ckpt.json"));
        (spec, epoch, reference)
    }

    /// Restarts a server on `dir`'s journal and checkpoints, drains it,
    /// and returns its summary.
    fn restart(dir: &std::path::Path) -> ServeSummary {
        let server = Server::start(ServerConfig {
            workers: 1,
            job_log: Some(dir.join("journal.jsonl")),
            checkpoint_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.drain().unwrap();
        server.join()
    }

    /// Job 2's one done event in the journal: its result and resume cycle.
    fn job_two_done(log: &std::path::Path) -> (pxl_dse::Measurement, Option<u64>) {
        std::fs::read_to_string(log)
            .unwrap()
            .lines()
            .filter_map(|l| JobEvent::from_json(l).ok())
            .find_map(|e| match e {
                JobEvent::Done {
                    job: JobId(2),
                    result,
                    resumed_from_cycle,
                    ..
                } => Some((result, resumed_from_cycle)),
                _ => None,
            })
            .expect("job 2 completed")
    }

    #[test]
    fn restart_recovers_unfinished_jobs_exactly_once() {
        let dir = temp_dir("recover");
        let log = dir.join("journal.jsonl");
        let (_, epoch, _) = crashed_lifetime(&dir);

        let summary = restart(&dir);
        assert_eq!(summary.recovered, 1, "only job 2 was unfinished");
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.resumed, 1, "job 2 resumed from its checkpoint");
        assert_eq!(summary.journal_torn, 0);

        // Exactly-once across the crash: one done per job in the full
        // journal, and job 2's final leg names its resume cycle.
        let counts = done_counts(&log);
        assert_eq!(counts.get(&1), Some(&1), "finished jobs must not re-run");
        assert_eq!(counts.get(&2), Some(&1));
        assert_eq!(job_two_done(&log).1, Some(epoch));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn upgraded_server_reruns_version_one_checkpoints_from_cycle_zero() {
        let dir = temp_dir("upgrade");
        let log = dir.join("journal.jsonl");
        let (spec, _, reference) = crashed_lifetime(&dir);
        // The checkpoint on disk was written by a server of the previous
        // snapshot format version.
        let ckpt = dir.join("job-2.ckpt.json");
        let current = format!("\"snapshot_version\":{}", pxl_sim::SNAPSHOT_VERSION);
        let text = std::fs::read_to_string(&ckpt).unwrap();
        assert!(text.contains(&current));
        std::fs::write(&ckpt, text.replace(&current, "\"snapshot_version\":1")).unwrap();

        let summary = restart(&dir);
        assert_eq!(summary.recovered, 1);
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.resumed, 0, "a version-1 checkpoint is not resumed");
        assert_eq!(summary.failed, 0);

        // Job 2 ran once, from cycle 0, to the uninterrupted run's result.
        let counts = done_counts(&log);
        assert_eq!((counts.get(&1), counts.get(&2)), (Some(&1), Some(&1)));
        let (result, resumed_from) = job_two_done(&log);
        assert_eq!(resumed_from, None);
        assert_eq!(
            measurement_to_json_value(&result).to_json(),
            measurement_to_json_value(&pxl_flow::measurement_of(&spec, None, &reference)).to_json()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_line_is_tolerated_and_counted() {
        let dir = temp_dir("torn");
        let log = dir.join("journal.jsonl");
        {
            let mut j = journal::Journal::open(&log, false).unwrap();
            j.record(&journal::submit_line(
                1,
                "a",
                JobKind::Sim,
                &tiny_spec("uts", 2),
            ));
        }
        // A crash tore the next record mid-write.
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"journal\":\"submit\",\"job\":2,\"ten");
        std::fs::write(&log, text).unwrap();

        let server = Server::start(ServerConfig {
            workers: 1,
            job_log: Some(log.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        assert_eq!(server.metrics().get("server.journal_torn"), 1);
        let mut client = Client::connect(server.addr()).unwrap();
        client.drain().unwrap();
        let summary = server.join();
        assert_eq!(summary.journal_torn, 1);
        assert_eq!(summary.recovered, 1, "the intact submit still recovers");
        assert_eq!(summary.completed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_job_yields_to_a_waiting_tenant() {
        // Find a checkpoint epoch well inside the run so the first
        // boundary arrives while the other tenant is still queued.
        let base = tiny_spec("uts", 2);
        let reference = pxl_flow::execute(&base).unwrap().unwrap();
        let session = pxl_flow::SimSession::start(&base).unwrap().unwrap();
        let epoch = session
            .clock()
            .time_to_cycles(pxl_sim::Time::from_ps(reference.kernel.as_ps() / 4))
            .max(1);

        let server = Server::start(ServerConfig {
            workers: 1,
            tenant_quota: 8,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.pause().unwrap().paused);
        let a = client
            .submit("alice", JobKind::Sim, &base.clone().with_checkpoint(epoch))
            .unwrap();
        let b = client
            .submit("bob", JobKind::Sim, &tiny_spec("queens", 2))
            .unwrap();
        assert!(!client.resume().unwrap().paused);

        let mut preemptions = Vec::new();
        let mut done = std::collections::HashMap::new();
        while done.len() < 2 {
            match client.next_event().unwrap() {
                JobEvent::Preempted { job, cycle } => preemptions.push((job, cycle)),
                JobEvent::Done {
                    job,
                    resumed_from_cycle,
                    ..
                } => {
                    done.insert(job, resumed_from_cycle);
                }
                JobEvent::Failed { job, error } => panic!("{job} failed: {error}"),
                _ => {}
            }
        }
        assert_eq!(
            preemptions.first(),
            Some(&(a, epoch)),
            "alice must yield at her first checkpoint while bob waits"
        );
        assert_eq!(done.get(&b), Some(&None), "bob's job never resumed");
        let resumed = done.get(&a).copied().flatten();
        assert!(
            resumed.is_some_and(|c| c >= epoch),
            "alice's final leg must resume from a checkpoint, got {resumed:?}"
        );

        client.drain().unwrap();
        let summary = server.join();
        assert_eq!(summary.completed, 2);
        assert!(summary.preempted >= 1);
        assert!(summary.resumed >= 1);
    }
}
