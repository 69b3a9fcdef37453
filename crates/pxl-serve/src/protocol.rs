//! The line-delimited JSON wire protocol: typed requests, job events and
//! error codes, with exact JSON round-trips in both directions.
//!
//! Every message is one JSON object on one line. Client→server messages
//! are [`Request`]s discriminated by `"op"`; server→client messages are
//! [`JobEvent`]s discriminated by `"event"`. Rendering is canonical
//! (fixed member order via [`JsonValue`]), so two identical results are
//! byte-identical on the wire — the property the dedup smoke asserts.

use pxl_dse::Measurement;
use pxl_flow::{RunSpec, SpecError};
use pxl_sim::json::JsonValue;

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
            Request::Submit { tenant, kind, spec } => JsonValue::Object(vec![
                ("op".to_owned(), JsonValue::Str("submit".to_owned())),
                ("tenant".to_owned(), JsonValue::Str(tenant.clone())),
                ("kind".to_owned(), JsonValue::Str(kind.label().to_owned())),
                ("spec".to_owned(), spec.to_json_value()),
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
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| RequestError {
                code: ErrorCode::BadRequest,
                message: "missing string field 'op'".to_owned(),
            })?;
        match op {
            "submit" => {
                let tenant = value
                    .get("tenant")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| RequestError {
                        code: ErrorCode::BadRequest,
                        message: "submit needs a string field 'tenant'".to_owned(),
                    })?
                    .to_owned();
                if tenant.is_empty() {
                    return Err(RequestError {
                        code: ErrorCode::BadRequest,
                        message: "'tenant' must be non-empty".to_owned(),
                    });
                }
                let kind_label =
                    value
                        .get("kind")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| RequestError {
                            code: ErrorCode::BadRequest,
                            message: "submit needs a string field 'kind'".to_owned(),
                        })?;
                let kind = JobKind::from_label(kind_label).ok_or_else(|| RequestError {
                    code: ErrorCode::BadRequest,
                    message: format!("unknown kind {kind_label:?} (sim|dse|profile)"),
                })?;
                let spec_value = value.get("spec").ok_or_else(|| RequestError {
                    code: ErrorCode::BadRequest,
                    message: "submit needs a 'spec' object".to_owned(),
                })?;
                let spec =
                    RunSpec::from_json_value(spec_value).map_err(|e: SpecError| RequestError {
                        code: ErrorCode::BadSpec,
                        message: e.to_string(),
                    })?;
                Ok(Request::Submit {
                    tenant,
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
    JsonValue::Object(vec![("op".to_owned(), JsonValue::Str(op.to_owned()))])
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

/// Renders a [`Measurement`] as a canonical JSON object (fixed member
/// order; `energy_j` in shortest-round-trip form, so re-rendering a parsed
/// payload is byte-identical).
pub fn measurement_to_json_value(m: &Measurement) -> JsonValue {
    JsonValue::Object(vec![
        ("kernel_ps".to_owned(), JsonValue::num_u64(m.kernel_ps)),
        ("whole_ps".to_owned(), JsonValue::num_u64(m.whole_ps)),
        ("energy_j".to_owned(), JsonValue::num_f64(m.energy_j)),
        ("lut".to_owned(), JsonValue::num_u64(m.lut)),
        ("bram18".to_owned(), JsonValue::num_u64(m.bram18)),
    ])
}

/// Parses [`measurement_to_json_value`] output.
///
/// # Errors
///
/// Names the missing or malformed field.
pub fn measurement_from_json_value(value: &JsonValue) -> Result<Measurement, String> {
    let u = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("result: missing field {key}"))
    };
    let energy_j = value
        .get("energy_j")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| "result: missing field energy_j".to_owned())?;
    Ok(Measurement {
        kernel_ps: u("kernel_ps")?,
        whole_ps: u("whole_ps")?,
        energy_j,
        lut: u("lut")?,
        bram18: u("bram18")?,
    })
}

impl JobEvent {
    /// The event as one canonical JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        let ev = |name: &str, mut rest: Vec<(String, JsonValue)>| {
            let mut members = vec![("event".to_owned(), JsonValue::Str(name.to_owned()))];
            members.append(&mut rest);
            JsonValue::Object(members)
        };
        match self {
            JobEvent::Accepted { job, tenant, key } => ev(
                "accepted",
                vec![
                    ("job".to_owned(), JsonValue::num_u64(job.0)),
                    ("tenant".to_owned(), JsonValue::Str(tenant.clone())),
                    ("key".to_owned(), JsonValue::Str(key.clone())),
                ],
            ),
            JobEvent::Queued { job, position } => ev(
                "queued",
                vec![
                    ("job".to_owned(), JsonValue::num_u64(job.0)),
                    ("position".to_owned(), JsonValue::num_u64(*position)),
                ],
            ),
            JobEvent::Running { job } => ev(
                "running",
                vec![("job".to_owned(), JsonValue::num_u64(job.0))],
            ),
            JobEvent::Metrics {
                job,
                kernel_ps,
                steal_attempts,
                dram_bytes,
                trace_events,
            } => ev(
                "metrics",
                vec![
                    ("job".to_owned(), JsonValue::num_u64(job.0)),
                    ("kernel_ps".to_owned(), JsonValue::num_u64(*kernel_ps)),
                    (
                        "steal_attempts".to_owned(),
                        JsonValue::num_u64(*steal_attempts),
                    ),
                    ("dram_bytes".to_owned(), JsonValue::num_u64(*dram_bytes)),
                    ("trace_events".to_owned(), JsonValue::num_u64(*trace_events)),
                ],
            ),
            JobEvent::Done {
                job,
                cached,
                result,
                trace_events,
                resumed_from_cycle,
            } => {
                let mut rest = vec![
                    ("job".to_owned(), JsonValue::num_u64(job.0)),
                    ("cached".to_owned(), JsonValue::Bool(*cached)),
                    ("result".to_owned(), measurement_to_json_value(result)),
                ];
                if let Some(n) = trace_events {
                    rest.push(("trace_events".to_owned(), JsonValue::num_u64(*n)));
                }
                if let Some(c) = resumed_from_cycle {
                    rest.push(("resumed_from_cycle".to_owned(), JsonValue::num_u64(*c)));
                }
                ev("done", rest)
            }
            JobEvent::Preempted { job, cycle } => ev(
                "preempted",
                vec![
                    ("job".to_owned(), JsonValue::num_u64(job.0)),
                    ("cycle".to_owned(), JsonValue::num_u64(*cycle)),
                ],
            ),
            JobEvent::Failed { job, error } => ev(
                "failed",
                vec![
                    ("job".to_owned(), JsonValue::num_u64(job.0)),
                    ("error".to_owned(), JsonValue::Str(error.clone())),
                ],
            ),
            JobEvent::Error { code, message } => ev(
                "error",
                vec![
                    ("code".to_owned(), JsonValue::Str(code.label().to_owned())),
                    ("message".to_owned(), JsonValue::Str(message.clone())),
                ],
            ),
            JobEvent::Status {
                queued,
                running,
                completed,
                failed,
                paused,
                draining,
            } => ev(
                "status",
                vec![
                    ("queued".to_owned(), JsonValue::num_u64(*queued)),
                    ("running".to_owned(), JsonValue::num_u64(*running)),
                    ("completed".to_owned(), JsonValue::num_u64(*completed)),
                    ("failed".to_owned(), JsonValue::num_u64(*failed)),
                    ("paused".to_owned(), JsonValue::Bool(*paused)),
                    ("draining".to_owned(), JsonValue::Bool(*draining)),
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
            } => ev(
                "stats",
                vec![
                    (
                        "tenants".to_owned(),
                        JsonValue::Object(
                            tenants
                                .iter()
                                .map(|(name, depth)| (name.clone(), JsonValue::num_u64(*depth)))
                                .collect(),
                        ),
                    ),
                    ("queued".to_owned(), JsonValue::num_u64(*queued)),
                    ("running".to_owned(), JsonValue::num_u64(*running)),
                    ("completed".to_owned(), JsonValue::num_u64(*completed)),
                    ("failed".to_owned(), JsonValue::num_u64(*failed)),
                    ("recovered".to_owned(), JsonValue::num_u64(*recovered)),
                    ("resumed".to_owned(), JsonValue::num_u64(*resumed)),
                    ("preempted".to_owned(), JsonValue::num_u64(*preempted)),
                    ("journal_torn".to_owned(), JsonValue::num_u64(*journal_torn)),
                    ("journal".to_owned(), JsonValue::Bool(*journal)),
                    ("paused".to_owned(), JsonValue::Bool(*paused)),
                    ("draining".to_owned(), JsonValue::Bool(*draining)),
                ],
            ),
            JobEvent::Progress {
                job,
                cycle,
                tasks,
                tasks_per_sec,
            } => ev(
                "progress",
                vec![
                    ("job".to_owned(), JsonValue::num_u64(job.0)),
                    ("cycle".to_owned(), JsonValue::num_u64(*cycle)),
                    ("tasks".to_owned(), JsonValue::num_u64(*tasks)),
                    (
                        "tasks_per_sec".to_owned(),
                        JsonValue::num_u64(*tasks_per_sec),
                    ),
                ],
            ),
            JobEvent::Drained { completed } => ev(
                "drained",
                vec![("completed".to_owned(), JsonValue::num_u64(*completed))],
            ),
        }
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
        let name = value
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing string field 'event'".to_owned())?;
        let job = || {
            value
                .get("job")
                .and_then(JsonValue::as_u64)
                .map(JobId)
                .ok_or_else(|| format!("{name}: missing field job"))
        };
        let text = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{name}: missing field {key}"))
        };
        let num = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{name}: missing field {key}"))
        };
        let flag = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("{name}: missing field {key}"))
        };
        match name {
            "accepted" => Ok(JobEvent::Accepted {
                job: job()?,
                tenant: text("tenant")?,
                key: text("key")?,
            }),
            "queued" => Ok(JobEvent::Queued {
                job: job()?,
                position: num("position")?,
            }),
            "running" => Ok(JobEvent::Running { job: job()? }),
            "metrics" => Ok(JobEvent::Metrics {
                job: job()?,
                kernel_ps: num("kernel_ps")?,
                steal_attempts: num("steal_attempts")?,
                dram_bytes: num("dram_bytes")?,
                trace_events: num("trace_events")?,
            }),
            "done" => Ok(JobEvent::Done {
                job: job()?,
                cached: flag("cached")?,
                result: value
                    .get("result")
                    .ok_or_else(|| "done: missing field result".to_owned())
                    .and_then(measurement_from_json_value)?,
                trace_events: value.get("trace_events").and_then(JsonValue::as_u64),
                resumed_from_cycle: value.get("resumed_from_cycle").and_then(JsonValue::as_u64),
            }),
            "preempted" => Ok(JobEvent::Preempted {
                job: job()?,
                cycle: num("cycle")?,
            }),
            "failed" => Ok(JobEvent::Failed {
                job: job()?,
                error: text("error")?,
            }),
            "error" => {
                let label = text("code")?;
                let code = ErrorCode::from_label(&label)
                    .ok_or_else(|| format!("error: unknown code {label:?}"))?;
                Ok(JobEvent::Error {
                    code,
                    message: text("message")?,
                })
            }
            "status" => Ok(JobEvent::Status {
                queued: num("queued")?,
                running: num("running")?,
                completed: num("completed")?,
                failed: num("failed")?,
                paused: flag("paused")?,
                draining: flag("draining")?,
            }),
            "stats" => {
                let tenants = value
                    .get("tenants")
                    .and_then(JsonValue::as_object)
                    .ok_or_else(|| "stats: missing field tenants".to_owned())?
                    .iter()
                    .map(|(tenant, depth)| {
                        depth
                            .as_u64()
                            .map(|d| (tenant.clone(), d))
                            .ok_or_else(|| format!("stats: tenant {tenant:?} depth malformed"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(JobEvent::Stats {
                    tenants,
                    queued: num("queued")?,
                    running: num("running")?,
                    completed: num("completed")?,
                    failed: num("failed")?,
                    recovered: num("recovered")?,
                    resumed: num("resumed")?,
                    preempted: num("preempted")?,
                    journal_torn: num("journal_torn")?,
                    journal: flag("journal")?,
                    paused: flag("paused")?,
                    draining: flag("draining")?,
                })
            }
            "progress" => Ok(JobEvent::Progress {
                job: job()?,
                cycle: num("cycle")?,
                tasks: num("tasks")?,
                tasks_per_sec: num("tasks_per_sec")?,
            }),
            "drained" => Ok(JobEvent::Drained {
                completed: num("completed")?,
            }),
            other => Err(format!("unknown event {other:?}")),
        }
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
