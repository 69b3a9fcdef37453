//! The line-delimited JSON wire protocol: typed requests, job events and
//! error codes, with exact JSON round-trips in both directions.
//!
//! Every message is one JSON object on one line. Client→server messages
//! are [`Request`]s discriminated by `"op"`; server→client messages are
//! [`JobEvent`]s discriminated by `"event"`. Rendering is canonical
//! (fixed member order via [`JsonValue`]), so two identical results are
//! byte-identical on the wire — the property the dedup smoke asserts.

use pxl_dse::Measurement;
pub use pxl_dse::{measurement_from_json_value, measurement_to_json_value};
use pxl_flow::{RunSpec, SpecError};
use pxl_sim::json::{self, get_bool, get_str, get_u64, FieldError, FieldProblem, JsonValue};

/// A server-assigned job identity, unique within one server lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// What a submitted spec should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Simulate and report the runtime/energy measurement (no FPGA
    /// resource model — `lut`/`bram18` are zero).
    Sim,
    /// Simulate as a design-space-exploration evaluation: the measurement
    /// includes the elaborated design's LUT/BRAM footprint.
    Dse,
    /// Simulate with event tracing and report the measurement plus the
    /// trace size. Profile jobs always execute (their artifact is the
    /// trace, not the cached measurement).
    Profile,
}

impl JobKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Sim => "sim",
            JobKind::Dse => "dse",
            JobKind::Profile => "profile",
        }
    }

    /// Parses a [`JobKind::label`] string.
    pub fn from_label(label: &str) -> Option<JobKind> {
        match label {
            "sim" => Some(JobKind::Sim),
            "dse" => Some(JobKind::Dse),
            "profile" => Some(JobKind::Profile),
            _ => None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting in its tenant's queue.
    Queued,
    /// Executing on a pool worker.
    Running,
    /// Finished with a result payload.
    Done,
    /// Finished with an error.
    Failed,
}

impl JobStatus {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// Why the server rejected a request (typed, machine-checkable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not well-formed JSON.
    BadJson,
    /// The line parses but is not a valid request shape.
    BadRequest,
    /// The request's `"op"` is not one the server knows.
    UnknownOp,
    /// The submitted spec failed [`RunSpec::from_json_value`].
    BadSpec,
    /// The tenant already has its quota of queued jobs.
    QuotaExceeded,
    /// The server is draining and accepts no new submissions.
    Draining,
    /// The line exceeds the server's line-length limit; the rest of it is
    /// discarded and the connection stays open.
    LineTooLong,
    /// The server is at its connection cap; the connection is closed
    /// right after this refusal.
    Overloaded,
}

impl ErrorCode {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::BadSpec => "bad_spec",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::Draining => "draining",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::Overloaded => "overloaded",
        }
    }

    /// Parses an [`ErrorCode::label`] string.
    pub fn from_label(label: &str) -> Option<ErrorCode> {
        match label {
            "bad_json" => Some(ErrorCode::BadJson),
            "bad_request" => Some(ErrorCode::BadRequest),
            "unknown_op" => Some(ErrorCode::UnknownOp),
            "bad_spec" => Some(ErrorCode::BadSpec),
            "quota_exceeded" => Some(ErrorCode::QuotaExceeded),
            "draining" => Some(ErrorCode::Draining),
            "line_too_long" => Some(ErrorCode::LineTooLong),
            "overloaded" => Some(ErrorCode::Overloaded),
            _ => None,
        }
    }
}

/// A rejected request: the typed code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The machine-checkable rejection reason.
    pub code: ErrorCode,
    /// What was wrong, for humans.
    pub message: String,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.label(), self.message)
    }
}

impl std::error::Error for RequestError {}

/// One client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one spec as a job under a tenant.
    Submit {
        /// The tenant whose queue and quota the job charges.
        tenant: String,
        /// What the job produces.
        kind: JobKind,
        /// The run to perform.
        spec: Box<RunSpec>,
    },
    /// Ask for queue/running/completed counters.
    Status,
    /// Ask for full server health: per-tenant queue depths, lifecycle
    /// counters (recovered/resumed/preempted), and journal state.
    Stats,
    /// Stop dispatching queued jobs (running jobs finish).
    Pause,
    /// Resume dispatching.
    Resume,
    /// Drain gracefully: finish every queued and running job, then stop.
    Shutdown,
}

impl Request {
    /// The request as one canonical JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        match self {
            Request::Submit { tenant, kind, spec } => json::obj(vec![
                ("op", text("submit")),
                ("tenant", text(tenant)),
                ("kind", text(kind.label())),
                ("spec", spec.to_json_value()),
            ]),
            Request::Status => op_only("status"),
            Request::Stats => op_only("stats"),
            Request::Pause => op_only("pause"),
            Request::Resume => op_only("resume"),
            Request::Shutdown => op_only("shutdown"),
        }
    }

    /// One wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// A typed [`RequestError`] naming exactly what was rejected.
    pub fn from_json(line: &str) -> Result<Request, RequestError> {
        let value = JsonValue::parse(line).map_err(|e| RequestError {
            code: ErrorCode::BadJson,
            message: e.to_string(),
        })?;
        if value.as_object().is_none() {
            return Err(RequestError {
                code: ErrorCode::BadRequest,
                message: "a request must be a JSON object".to_owned(),
            });
        }
        let bad = |message: String| RequestError {
            code: ErrorCode::BadRequest,
            message,
        };
        let op = get_str(&value, "op").map_err(|_| bad("missing string field 'op'".to_owned()))?;
        match op {
            "submit" => {
                let tenant = get_str(&value, "tenant")
                    .map_err(|_| bad("submit needs a string field 'tenant'".to_owned()))?;
                if tenant.is_empty() {
                    return Err(bad("'tenant' must be non-empty".to_owned()));
                }
                let kind_label = get_str(&value, "kind")
                    .map_err(|_| bad("submit needs a string field 'kind'".to_owned()))?;
                let kind = JobKind::from_label(kind_label)
                    .ok_or_else(|| bad(format!("unknown kind {kind_label:?} (sim|dse|profile)")))?;
                let spec_value = json::get(&value, "spec")
                    .map_err(|_| bad("submit needs a 'spec' object".to_owned()))?;
                let spec =
                    RunSpec::from_json_value(spec_value).map_err(|e: SpecError| RequestError {
                        code: ErrorCode::BadSpec,
                        message: e.to_string(),
                    })?;
                Ok(Request::Submit {
                    tenant: tenant.to_owned(),
                    kind,
                    spec: Box::new(spec),
                })
            }
            "status" => Ok(Request::Status),
            "stats" => Ok(Request::Stats),
            "pause" => Ok(Request::Pause),
            "resume" => Ok(Request::Resume),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(RequestError {
                code: ErrorCode::UnknownOp,
                message: format!("unknown op {other:?}"),
            }),
        }
    }
}

fn op_only(op: &str) -> JsonValue {
    json::obj(vec![("op", text(op))])
}

fn text(s: &str) -> JsonValue {
    JsonValue::Str(s.to_owned())
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The submission was admitted; `key` is the 16-hex-digit content
    /// address of the spec's canonical identity (the dedup key).
    Accepted {
        /// The assigned job.
        job: JobId,
        /// The tenant it was charged to.
        tenant: String,
        /// Content address of the canonical spec.
        key: String,
    },
    /// The job entered its tenant's queue at `position` (0 = next).
    Queued {
        /// The queued job.
        job: JobId,
        /// Depth in the tenant's queue at admission.
        position: u64,
    },
    /// The job started executing on a pool worker.
    Running {
        /// The running job.
        job: JobId,
    },
    /// A headline-metrics snapshot from a freshly executed (non-cached)
    /// run, emitted between `running` and `done`.
    Metrics {
        /// The job the snapshot belongs to.
        job: JobId,
        /// Kernel time (simulated picoseconds).
        kernel_ps: u64,
        /// Work-stealing attempts (accelerator + CPU).
        steal_attempts: u64,
        /// DRAM traffic in bytes.
        dram_bytes: u64,
        /// Captured trace events (0 unless tracing was on).
        trace_events: u64,
    },
    /// The job finished; `result` is the measurement payload.
    Done {
        /// The finished job.
        job: JobId,
        /// Whether the result came from the content-addressed cache
        /// without simulating.
        cached: bool,
        /// The measurement.
        result: Measurement,
        /// Trace size for profile jobs (`None` for sim/dse).
        trace_events: Option<u64>,
        /// The simulated cycle the final leg resumed from, for jobs that
        /// were preempted or recovered from a checkpoint (`None` for jobs
        /// that ran uninterrupted from cycle zero).
        resumed_from_cycle: Option<u64>,
    },
    /// A checkpointed job cooperatively yielded its worker at a cycle
    /// boundary so queued work (e.g. a starved tenant) can run; it is back
    /// in its tenant's queue and will resume from the checkpoint.
    Preempted {
        /// The preempted job.
        job: JobId,
        /// The simulated cycle it checkpointed and yielded at.
        cycle: u64,
    },
    /// The job failed (unknown benchmark, infeasible point, simulation or
    /// golden-validation failure).
    Failed {
        /// The failed job.
        job: JobId,
        /// The failure, in [`pxl_flow::RunError`] message format.
        error: String,
    },
    /// A request was rejected before becoming a job.
    Error {
        /// The typed rejection.
        code: ErrorCode,
        /// What was wrong.
        message: String,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Jobs waiting across all tenant queues.
        queued: u64,
        /// Jobs currently executing.
        running: u64,
        /// Jobs finished successfully since startup.
        completed: u64,
        /// Jobs failed since startup.
        failed: u64,
        /// Whether dispatch is paused.
        paused: bool,
        /// Whether the server is draining.
        draining: bool,
    },
    /// Answer to [`Request::Stats`]: the full server-health picture.
    /// Rendering is canonical (tenants name-sorted by the server), so two
    /// identical states are byte-identical on the wire.
    Stats {
        /// Per-tenant queue depths, sorted by tenant name. Tenants whose
        /// queues have drained still appear at depth 0.
        tenants: Vec<(String, u64)>,
        /// Jobs waiting across all tenant queues.
        queued: u64,
        /// Jobs currently executing.
        running: u64,
        /// Jobs finished successfully since startup.
        completed: u64,
        /// Jobs failed since startup.
        failed: u64,
        /// Jobs re-admitted from the journal at startup.
        recovered: u64,
        /// Execution legs resumed from a persisted checkpoint.
        resumed: u64,
        /// Cooperative yields at checkpoint boundaries.
        preempted: u64,
        /// Torn trailing journal lines discarded at recovery.
        journal_torn: u64,
        /// Whether a journal is attached (crash-safe mode).
        journal: bool,
        /// Whether dispatch is paused.
        paused: bool,
        /// Whether the server is draining.
        draining: bool,
    },
    /// Periodic progress from a running checkpointed job, emitted each
    /// time it reaches a checkpoint boundary: how far the simulation has
    /// advanced and how fast it is spawning work.
    Progress {
        /// The running job.
        job: JobId,
        /// Simulated cycles completed so far.
        cycle: u64,
        /// Tasks executed so far (accelerator + CPU).
        tasks: u64,
        /// Task throughput over the simulated time so far, in tasks per
        /// simulated second.
        tasks_per_sec: u64,
    },
    /// Graceful shutdown finished: every admitted job completed.
    Drained {
        /// Jobs finished successfully over the server's lifetime.
        completed: u64,
    },
}

impl JobEvent {
    /// The event as one canonical JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        let job = |job: &JobId| ("job", json::num(job.0));
        let (name, mut rest) = match self {
            JobEvent::Accepted {
                job: j,
                tenant,
                key,
            } => (
                "accepted",
                vec![job(j), ("tenant", text(tenant)), ("key", text(key))],
            ),
            JobEvent::Queued { job: j, position } => {
                ("queued", vec![job(j), ("position", json::num(*position))])
            }
            JobEvent::Running { job: j } => ("running", vec![job(j)]),
            JobEvent::Metrics {
                job: j,
                kernel_ps,
                steal_attempts,
                dram_bytes,
                trace_events,
            } => (
                "metrics",
                vec![
                    job(j),
                    ("kernel_ps", json::num(*kernel_ps)),
                    ("steal_attempts", json::num(*steal_attempts)),
                    ("dram_bytes", json::num(*dram_bytes)),
                    ("trace_events", json::num(*trace_events)),
                ],
            ),
            JobEvent::Done {
                job: j,
                cached,
                result,
                trace_events,
                resumed_from_cycle,
            } => {
                let mut rest = vec![
                    job(j),
                    ("cached", JsonValue::Bool(*cached)),
                    ("result", measurement_to_json_value(result)),
                ];
                if let Some(n) = trace_events {
                    rest.push(("trace_events", json::num(*n)));
                }
                if let Some(c) = resumed_from_cycle {
                    rest.push(("resumed_from_cycle", json::num(*c)));
                }
                ("done", rest)
            }
            JobEvent::Preempted { job: j, cycle } => {
                ("preempted", vec![job(j), ("cycle", json::num(*cycle))])
            }
            JobEvent::Failed { job: j, error } => ("failed", vec![job(j), ("error", text(error))]),
            JobEvent::Error { code, message } => (
                "error",
                vec![("code", text(code.label())), ("message", text(message))],
            ),
            JobEvent::Status {
                queued,
                running,
                completed,
                failed,
                paused,
                draining,
            } => (
                "status",
                vec![
                    ("queued", json::num(*queued)),
                    ("running", json::num(*running)),
                    ("completed", json::num(*completed)),
                    ("failed", json::num(*failed)),
                    ("paused", JsonValue::Bool(*paused)),
                    ("draining", JsonValue::Bool(*draining)),
                ],
            ),
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
                let depths = tenants
                    .iter()
                    .map(|(name, d)| (name.clone(), json::num(*d)));
                (
                    "stats",
                    vec![
                        ("tenants", JsonValue::Object(depths.collect())),
                        ("queued", json::num(*queued)),
                        ("running", json::num(*running)),
                        ("completed", json::num(*completed)),
                        ("failed", json::num(*failed)),
                        ("recovered", json::num(*recovered)),
                        ("resumed", json::num(*resumed)),
                        ("preempted", json::num(*preempted)),
                        ("journal_torn", json::num(*journal_torn)),
                        ("journal", JsonValue::Bool(*journal)),
                        ("paused", JsonValue::Bool(*paused)),
                        ("draining", JsonValue::Bool(*draining)),
                    ],
                )
            }
            JobEvent::Progress {
                job: j,
                cycle,
                tasks,
                tasks_per_sec,
            } => (
                "progress",
                vec![
                    job(j),
                    ("cycle", json::num(*cycle)),
                    ("tasks", json::num(*tasks)),
                    ("tasks_per_sec", json::num(*tasks_per_sec)),
                ],
            ),
            JobEvent::Drained { completed } => {
                ("drained", vec![("completed", json::num(*completed))])
            }
        };
        let mut members = vec![("event", text(name))];
        members.append(&mut rest);
        json::obj(members)
    }

    /// One wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Rebuilds an event from [`JobEvent::to_json_value`] output.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json_value(value: &JsonValue) -> Result<JobEvent, String> {
        let name =
            get_str(value, "event").map_err(|_| "missing string field 'event'".to_owned())?;
        event_from_fields(name, value)
            .map_err(|e| format!("{name}: {e}"))?
            .ok_or_else(|| format!("unknown event {name:?}"))
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// A message naming the problem.
    pub fn from_json(line: &str) -> Result<JobEvent, String> {
        let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
        JobEvent::from_json_value(&value)
    }
}

/// The members of a `name` event; `None` for an unknown event name.
fn event_from_fields(name: &str, v: &JsonValue) -> Result<Option<JobEvent>, FieldError> {
    Ok(Some(match name {
        "accepted" => JobEvent::Accepted {
            job: JobId(get_u64(v, "job")?),
            tenant: get_str(v, "tenant")?.to_owned(),
            key: get_str(v, "key")?.to_owned(),
        },
        "queued" => JobEvent::Queued {
            job: JobId(get_u64(v, "job")?),
            position: get_u64(v, "position")?,
        },
        "running" => JobEvent::Running {
            job: JobId(get_u64(v, "job")?),
        },
        "metrics" => JobEvent::Metrics {
            job: JobId(get_u64(v, "job")?),
            kernel_ps: get_u64(v, "kernel_ps")?,
            steal_attempts: get_u64(v, "steal_attempts")?,
            dram_bytes: get_u64(v, "dram_bytes")?,
            trace_events: get_u64(v, "trace_events")?,
        },
        "done" => JobEvent::Done {
            job: JobId(get_u64(v, "job")?),
            cached: get_bool(v, "cached")?,
            result: measurement_from_json_value(json::get(v, "result")?)?,
            trace_events: json::get_opt(v, "trace_events")
                .map(|n| json::u64_of(n, "trace_events"))
                .transpose()?,
            resumed_from_cycle: json::get_opt(v, "resumed_from_cycle")
                .map(|n| json::u64_of(n, "resumed_from_cycle"))
                .transpose()?,
        },
        "preempted" => JobEvent::Preempted {
            job: JobId(get_u64(v, "job")?),
            cycle: get_u64(v, "cycle")?,
        },
        "failed" => JobEvent::Failed {
            job: JobId(get_u64(v, "job")?),
            error: get_str(v, "error")?.to_owned(),
        },
        "error" => JobEvent::Error {
            code: ErrorCode::from_label(get_str(v, "code")?).ok_or(FieldError {
                key: "code",
                problem: FieldProblem::NotA("a known error code"),
            })?,
            message: get_str(v, "message")?.to_owned(),
        },
        "status" => JobEvent::Status {
            queued: get_u64(v, "queued")?,
            running: get_u64(v, "running")?,
            completed: get_u64(v, "completed")?,
            failed: get_u64(v, "failed")?,
            paused: get_bool(v, "paused")?,
            draining: get_bool(v, "draining")?,
        },
        "stats" => JobEvent::Stats {
            tenants: json::get_u64_map(v, "tenants")?
                .into_iter()
                .map(|(tenant, depth)| (tenant.to_owned(), depth))
                .collect(),
            queued: get_u64(v, "queued")?,
            running: get_u64(v, "running")?,
            completed: get_u64(v, "completed")?,
            failed: get_u64(v, "failed")?,
            recovered: get_u64(v, "recovered")?,
            resumed: get_u64(v, "resumed")?,
            preempted: get_u64(v, "preempted")?,
            journal_torn: get_u64(v, "journal_torn")?,
            journal: get_bool(v, "journal")?,
            paused: get_bool(v, "paused")?,
            draining: get_bool(v, "draining")?,
        },
        "progress" => JobEvent::Progress {
            job: JobId(get_u64(v, "job")?),
            cycle: get_u64(v, "cycle")?,
            tasks: get_u64(v, "tasks")?,
            tasks_per_sec: get_u64(v, "tasks_per_sec")?,
        },
        "drained" => JobEvent::Drained {
            completed: get_u64(v, "completed")?,
        },
        _ => return Ok(None),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_apps::Scale;
    use pxl_dse::{DesignPoint, PointArch};

    fn spec() -> RunSpec {
        RunSpec::new(
            "uts",
            Scale::Tiny,
            DesignPoint::accel(PointArch::Flex, 2, 4),
        )
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Submit {
                tenant: "alice".to_owned(),
                kind: JobKind::Dse,
                spec: Box::new(spec()),
            },
            Request::Status,
            Request::Stats,
            Request::Pause,
            Request::Resume,
            Request::Shutdown,
        ];
        for r in requests {
            let line = r.to_json();
            let back = Request::from_json(&line).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.to_json(), line, "canonical rendering is stable");
        }
    }

    #[test]
    fn malformed_requests_get_typed_codes() {
        let cases = [
            ("{not json", ErrorCode::BadJson),
            ("[1,2]", ErrorCode::BadRequest),
            ("{\"po\":\"submit\"}", ErrorCode::BadRequest),
            ("{\"op\":\"launch\"}", ErrorCode::UnknownOp),
            ("{\"op\":\"submit\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"submit\",\"tenant\":\"\",\"kind\":\"sim\",\"spec\":{}}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"submit\",\"tenant\":\"a\",\"kind\":\"warp\",\"spec\":{}}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"submit\",\"tenant\":\"a\",\"kind\":\"sim\",\"spec\":{}}",
                ErrorCode::BadSpec,
            ),
            (
                "{\"op\":\"submit\",\"tenant\":\"a\",\"kind\":\"sim\",\"spec\":{\"benchmark\":\"uts\",\"scale\":\"huge\"}}",
                ErrorCode::BadSpec,
            ),
        ];
        for (line, code) in cases {
            let err = Request::from_json(line).unwrap_err();
            assert_eq!(err.code, code, "{line} → {err}");
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn out_of_range_fault_plans_are_bad_specs() {
        let submit = |per_mille: u64| {
            let plan = format!(
                "{{\"seed\":1,\"specs\":[{{\"kind\":\"net_drop\",\"net\":\"arg_net\",\
                 \"per_mille\":{per_mille},\"max\":0,\"from_ps\":0,\"until_ps\":1}}]}}"
            );
            let mut spec = spec().to_json_value();
            if let JsonValue::Object(members) = &mut spec {
                members.push(("faults".to_owned(), JsonValue::parse(&plan).unwrap()));
            }
            Request::from_json(&format!(
                "{{\"op\":\"submit\",\"tenant\":\"a\",\"kind\":\"sim\",\"spec\":{}}}",
                spec.to_json()
            ))
        };
        assert!(submit(400).is_ok());
        let err = submit(65_936).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadSpec, "{err}");
        assert!(err.message.contains("per_mille"), "{err}");
    }

    #[test]
    fn error_labels_round_trip() {
        let codes = [
            (ErrorCode::BadJson, "bad_json"),
            (ErrorCode::BadRequest, "bad_request"),
            (ErrorCode::UnknownOp, "unknown_op"),
            (ErrorCode::BadSpec, "bad_spec"),
            (ErrorCode::QuotaExceeded, "quota_exceeded"),
            (ErrorCode::Draining, "draining"),
            (ErrorCode::LineTooLong, "line_too_long"),
            (ErrorCode::Overloaded, "overloaded"),
        ];
        for (code, label) in codes {
            assert_eq!(code.label(), label);
            assert_eq!(ErrorCode::from_label(label), Some(code));
        }
        assert_eq!(ErrorCode::from_label("too_long"), None);
    }

    #[test]
    fn unknown_op_rejection_names_the_op() {
        for op in ["launch", "emit", "stat"] {
            let err = Request::from_json(&format!("{{\"op\":\"{op}\"}}")).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownOp);
            assert!(
                err.message.contains(&format!("\"{op}\"")),
                "message {:?} should quote the offending op {op:?}",
                err.message
            );
        }
    }

    #[test]
    fn stats_rendering_is_canonical() {
        let e = JobEvent::Stats {
            tenants: vec![("a".to_owned(), 1), ("b".to_owned(), 0)],
            queued: 1,
            running: 0,
            completed: 0,
            failed: 0,
            recovered: 0,
            resumed: 0,
            preempted: 0,
            journal_torn: 0,
            journal: false,
            paused: false,
            draining: false,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"stats\",\"tenants\":{\"a\":1,\"b\":0},\"queued\":1,\
             \"running\":0,\"completed\":0,\"failed\":0,\"recovered\":0,\
             \"resumed\":0,\"preempted\":0,\"journal_torn\":0,\
             \"journal\":false,\"paused\":false,\"draining\":false}"
        );
    }

    #[test]
    fn events_round_trip() {
        let m = Measurement {
            kernel_ps: 123,
            whole_ps: 456,
            energy_j: 0.1 + 0.2, // deliberately ugly f64
            lut: 7,
            bram18: 0,
        };
        let events = [
            JobEvent::Accepted {
                job: JobId(1),
                tenant: "a".to_owned(),
                key: "00baadf00dcafe99".to_owned(),
            },
            JobEvent::Queued {
                job: JobId(1),
                position: 3,
            },
            JobEvent::Running { job: JobId(1) },
            JobEvent::Metrics {
                job: JobId(1),
                kernel_ps: 5,
                steal_attempts: 6,
                dram_bytes: 7,
                trace_events: 0,
            },
            JobEvent::Done {
                job: JobId(1),
                cached: true,
                result: m,
                trace_events: None,
                resumed_from_cycle: None,
            },
            JobEvent::Done {
                job: JobId(2),
                cached: false,
                result: m,
                trace_events: Some(42),
                resumed_from_cycle: Some(200_000),
            },
            JobEvent::Preempted {
                job: JobId(2),
                cycle: 100_000,
            },
            JobEvent::Failed {
                job: JobId(3),
                error: "uts on flex/8u failed: watchdog".to_owned(),
            },
            JobEvent::Error {
                code: ErrorCode::QuotaExceeded,
                message: "tenant a has 64 queued jobs".to_owned(),
            },
            JobEvent::Status {
                queued: 1,
                running: 2,
                completed: 3,
                failed: 0,
                paused: false,
                draining: true,
            },
            JobEvent::Stats {
                tenants: vec![("alice".to_owned(), 2), ("bob".to_owned(), 0)],
                queued: 2,
                running: 1,
                completed: 5,
                failed: 1,
                recovered: 3,
                resumed: 2,
                preempted: 4,
                journal_torn: 1,
                journal: true,
                paused: false,
                draining: false,
            },
            JobEvent::Stats {
                tenants: Vec::new(),
                queued: 0,
                running: 0,
                completed: 0,
                failed: 0,
                recovered: 0,
                resumed: 0,
                preempted: 0,
                journal_torn: 0,
                journal: false,
                paused: true,
                draining: true,
            },
            JobEvent::Progress {
                job: JobId(7),
                cycle: 100_000,
                tasks: 4_096,
                tasks_per_sec: 8_192_000,
            },
            JobEvent::Drained { completed: 9 },
        ];
        for e in events {
            let line = e.to_json();
            let back = JobEvent::from_json(&line).unwrap();
            assert_eq!(back, e);
            assert_eq!(back.to_json(), line, "canonical rendering is stable");
        }
    }

    #[test]
    fn measurement_payloads_are_byte_stable() {
        let m = Measurement {
            kernel_ps: u64::MAX,
            whole_ps: 1,
            energy_j: 1.0 / 3.0,
            lut: 0,
            bram18: 0,
        };
        let a = measurement_to_json_value(&m).to_json();
        let parsed = measurement_from_json_value(&JsonValue::parse(&a).unwrap()).unwrap();
        assert_eq!(parsed.energy_j.to_bits(), m.energy_j.to_bits());
        assert_eq!(parsed.kernel_ps, u64::MAX, "u64::MAX survives (raw token)");
        assert_eq!(measurement_to_json_value(&parsed).to_json(), a);
    }

    #[test]
    fn bad_events_name_the_field() {
        assert!(JobEvent::from_json("{\"event\":\"queued\"}")
            .unwrap_err()
            .contains("missing field job"));
        assert!(JobEvent::from_json("{\"event\":\"nope\"}")
            .unwrap_err()
            .contains("unknown event"));
        assert!(JobEvent::from_json("{}").unwrap_err().contains("'event'"));
    }
}
