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
use pxl_sim::json::{self, get_bool, get_str, get_word, FieldError, FieldProblem, JsonValue};

/// A server-assigned job identity, unique within one server lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Declares a fieldless wire enum together with its stable labels: each
/// row is a variant and the one string that names it on the wire.
macro_rules! wire_labels {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident = $label:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl $name {
            /// Stable wire label.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }

            /// Parses a [`Self::label`] string.
            pub fn from_label(label: &str) -> Option<$name> {
                match label {
                    $($label => Some($name::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

wire_labels! {
    /// What a submitted spec should produce.
    JobKind {
        /// Simulate and report the runtime/energy measurement (no FPGA
        /// resource model — `lut`/`bram18` are zero).
        Sim = "sim",
        /// Simulate as a design-space-exploration evaluation: the
        /// measurement includes the elaborated design's LUT/BRAM footprint.
        Dse = "dse",
        /// Simulate with event tracing and report the measurement plus the
        /// trace size. Profile jobs always execute (their artifact is the
        /// trace, not the cached measurement).
        Profile = "profile",
    }
}

wire_labels! {
    /// Why the server rejected a request (typed, machine-checkable).
    ErrorCode {
        /// The line is not well-formed JSON.
        BadJson = "bad_json",
        /// The line parses but is not a valid request shape.
        BadRequest = "bad_request",
        /// The request's `"op"` is not one the server knows.
        UnknownOp = "unknown_op",
        /// The submitted spec failed [`RunSpec::from_json_value`] or
        /// [`RunSpec::check_priced`].
        BadSpec = "bad_spec",
        /// The tenant already has its quota of queued jobs.
        QuotaExceeded = "quota_exceeded",
        /// The server is draining and accepts no new submissions.
        Draining = "draining",
        /// The line exceeds the server's line-length limit; the rest of it
        /// is discarded and the connection stays open.
        LineTooLong = "line_too_long",
        /// The server is at its connection cap; the connection is closed
        /// right after this refusal.
        Overloaded = "overloaded",
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
                // Every job reports a measurement, so a spec the cost
                // models cannot price is refused with the malformed ones.
                let spec = RunSpec::from_json_value(spec_value)
                    .map_err(|e: SpecError| e.to_string())
                    .and_then(|s| s.check_priced().map_err(|e| e.to_string()).map(|()| s))
                    .map_err(|message| RequestError {
                        code: ErrorCode::BadSpec,
                        message,
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

/// How one [`JobEvent`] field type is rendered as, and read back from, its
/// wire member.
trait WireField: Sized {
    /// The member's value; `None` omits the member.
    fn to_member(&self) -> Option<JsonValue>;

    /// Reads the member `key` of `event`.
    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError>;
}

impl WireField for u64 {
    fn to_member(&self) -> Option<JsonValue> {
        Some(json::num(*self))
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        get_word(event, key)
    }
}

/// An optional count, omitted from the wire when `None`.
impl WireField for Option<u64> {
    fn to_member(&self) -> Option<JsonValue> {
        self.map(json::num)
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        json::get_opt(event, key)
            .map(|n| json::word_of(n, key))
            .transpose()
    }
}

impl WireField for bool {
    fn to_member(&self) -> Option<JsonValue> {
        Some(JsonValue::Bool(*self))
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        get_bool(event, key)
    }
}

impl WireField for String {
    fn to_member(&self) -> Option<JsonValue> {
        Some(text(self))
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        get_str(event, key).map(str::to_owned)
    }
}

impl WireField for JobId {
    fn to_member(&self) -> Option<JsonValue> {
        Some(json::num(self.0))
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        get_word(event, key).map(JobId)
    }
}

impl WireField for ErrorCode {
    fn to_member(&self) -> Option<JsonValue> {
        Some(text(self.label()))
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        ErrorCode::from_label(get_str(event, key)?).ok_or(FieldError {
            key,
            problem: FieldProblem::NotA("a known error code"),
        })
    }
}

impl WireField for Measurement {
    fn to_member(&self) -> Option<JsonValue> {
        Some(measurement_to_json_value(self))
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        measurement_from_json_value(json::get(event, key)?)
    }
}

/// Per-tenant queue depths, rendered as one object in list order.
impl WireField for Vec<(String, u64)> {
    fn to_member(&self) -> Option<JsonValue> {
        let depths = self.iter().map(|(name, d)| (name.clone(), json::num(*d)));
        Some(JsonValue::Object(depths.collect()))
    }

    fn read(event: &JsonValue, key: &'static str) -> Result<Self, FieldError> {
        Ok(json::get_u64_map(event, key)?
            .into_iter()
            .map(|(tenant, depth)| (tenant.to_owned(), depth))
            .collect())
    }
}

/// Declares [`JobEvent`] and its wire codec from one table: each row is a
/// variant, its `"event"` label and its fields in wire order.
macro_rules! job_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $label:literal { $($(#[$fdoc:meta])* $field:ident: $ty:ty,)* }
    )*) => {
        /// One server→client message.
        #[derive(Debug, Clone, PartialEq)]
        pub enum JobEvent {
            $($(#[$doc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl JobEvent {
            /// The event as one canonical JSON object.
            pub fn to_json_value(&self) -> JsonValue {
                let mut members = Vec::new();
                match self {
                    $(JobEvent::$variant { $($field),* } => {
                        members.push(("event", text($label)));
                        $(if let Some(value) = $field.to_member() {
                            members.push((stringify!($field), value));
                        })*
                    })*
                }
                json::obj(members)
            }

            /// The members of a `name` event; `None` for an unknown event
            /// name.
            fn from_fields(name: &str, v: &JsonValue) -> Result<Option<JobEvent>, FieldError> {
                Ok(Some(match name {
                    $($label => JobEvent::$variant {
                        $($field: WireField::read(v, stringify!($field))?,)*
                    },)*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

job_events! {
    /// The submission was admitted; `key` is the 16-hex-digit content
    /// address of the spec's canonical identity (the dedup key).
    Accepted = "accepted" {
        /// The assigned job.
        job: JobId,
        /// The tenant it was charged to.
        tenant: String,
        /// Content address of the canonical spec.
        key: String,
    }
    /// The job entered its tenant's queue at `position` (0 = next).
    Queued = "queued" {
        /// The queued job.
        job: JobId,
        /// Depth in the tenant's queue at admission.
        position: u64,
    }
    /// The job started executing on a pool worker.
    Running = "running" {
        /// The running job.
        job: JobId,
    }
    /// A headline-metrics snapshot from a freshly executed (non-cached)
    /// run, emitted between `running` and `done`.
    Metrics = "metrics" {
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
    }
    /// The job finished; `result` is the measurement payload.
    Done = "done" {
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
    }
    /// A checkpointed job cooperatively yielded its worker at a cycle
    /// boundary so queued work (e.g. a starved tenant) can run; it is back
    /// in its tenant's queue and will resume from the checkpoint.
    Preempted = "preempted" {
        /// The preempted job.
        job: JobId,
        /// The simulated cycle it checkpointed and yielded at.
        cycle: u64,
    }
    /// The job failed (unknown benchmark, infeasible point, simulation or
    /// golden-validation failure).
    Failed = "failed" {
        /// The failed job.
        job: JobId,
        /// The failure, in [`pxl_flow::RunError`] message format.
        error: String,
    }
    /// A request was rejected before becoming a job.
    Error = "error" {
        /// The typed rejection.
        code: ErrorCode,
        /// What was wrong.
        message: String,
    }
    /// Answer to [`Request::Status`].
    Status = "status" {
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
    }
    /// Answer to [`Request::Stats`]: the full server-health picture.
    /// Rendering is canonical (tenants name-sorted by the server), so two
    /// identical states are byte-identical on the wire.
    Stats = "stats" {
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
    }
    /// Periodic progress from a running checkpointed job, emitted each
    /// time it reaches a checkpoint boundary: how far the simulation has
    /// advanced and how fast it is spawning work.
    Progress = "progress" {
        /// The running job.
        job: JobId,
        /// Simulated cycles completed so far.
        cycle: u64,
        /// Tasks executed so far (accelerator + CPU).
        tasks: u64,
        /// Task throughput over the simulated time so far, in tasks per
        /// simulated second.
        tasks_per_sec: u64,
    }
    /// Graceful shutdown finished: every admitted job completed.
    Drained = "drained" {
        /// Jobs finished successfully over the server's lifetime.
        completed: u64,
    }
}

impl JobEvent {
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
        JobEvent::from_fields(name, value)
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
            (
                JobEvent::Accepted {
                    job: JobId(1),
                    tenant: "a".to_owned(),
                    key: "00baadf00dcafe99".to_owned(),
                },
                r#"{"event":"accepted","job":1,"tenant":"a","key":"00baadf00dcafe99"}"#,
            ),
            (
                JobEvent::Queued {
                    job: JobId(1),
                    position: 3,
                },
                r#"{"event":"queued","job":1,"position":3}"#,
            ),
            (
                JobEvent::Running { job: JobId(1) },
                r#"{"event":"running","job":1}"#,
            ),
            (
                JobEvent::Metrics {
                    job: JobId(1),
                    kernel_ps: 5,
                    steal_attempts: 6,
                    dram_bytes: 7,
                    trace_events: 0,
                },
                r#"{"event":"metrics","job":1,"kernel_ps":5,"steal_attempts":6,"dram_bytes":7,"trace_events":0}"#,
            ),
            (
                JobEvent::Done {
                    job: JobId(1),
                    cached: true,
                    result: m,
                    trace_events: None,
                    resumed_from_cycle: None,
                },
                r#"{"event":"done","job":1,"cached":true,"result":{"kernel_ps":123,"whole_ps":456,"energy_j":0.30000000000000004,"lut":7,"bram18":0}}"#,
            ),
            (
                JobEvent::Done {
                    job: JobId(2),
                    cached: false,
                    result: m,
                    trace_events: Some(42),
                    resumed_from_cycle: Some(200_000),
                },
                r#"{"event":"done","job":2,"cached":false,"result":{"kernel_ps":123,"whole_ps":456,"energy_j":0.30000000000000004,"lut":7,"bram18":0},"trace_events":42,"resumed_from_cycle":200000}"#,
            ),
            (
                JobEvent::Preempted {
                    job: JobId(2),
                    cycle: 100_000,
                },
                r#"{"event":"preempted","job":2,"cycle":100000}"#,
            ),
            (
                JobEvent::Failed {
                    job: JobId(3),
                    error: "uts on flex/8u failed: watchdog".to_owned(),
                },
                r#"{"event":"failed","job":3,"error":"uts on flex/8u failed: watchdog"}"#,
            ),
            (
                JobEvent::Error {
                    code: ErrorCode::QuotaExceeded,
                    message: "tenant a has 64 queued jobs".to_owned(),
                },
                r#"{"event":"error","code":"quota_exceeded","message":"tenant a has 64 queued jobs"}"#,
            ),
            (
                JobEvent::Status {
                    queued: 1,
                    running: 2,
                    completed: 3,
                    failed: 0,
                    paused: false,
                    draining: true,
                },
                r#"{"event":"status","queued":1,"running":2,"completed":3,"failed":0,"paused":false,"draining":true}"#,
            ),
            (
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
                r#"{"event":"stats","tenants":{"alice":2,"bob":0},"queued":2,"running":1,"completed":5,"failed":1,"recovered":3,"resumed":2,"preempted":4,"journal_torn":1,"journal":true,"paused":false,"draining":false}"#,
            ),
            (
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
                r#"{"event":"stats","tenants":{},"queued":0,"running":0,"completed":0,"failed":0,"recovered":0,"resumed":0,"preempted":0,"journal_torn":0,"journal":false,"paused":true,"draining":true}"#,
            ),
            (
                JobEvent::Progress {
                    job: JobId(7),
                    cycle: 100_000,
                    tasks: 4_096,
                    tasks_per_sec: 8_192_000,
                },
                r#"{"event":"progress","job":7,"cycle":100000,"tasks":4096,"tasks_per_sec":8192000}"#,
            ),
            (
                JobEvent::Drained { completed: 9 },
                r#"{"event":"drained","completed":9}"#,
            ),
        ];
        for (e, pinned) in events {
            let line = e.to_json();
            assert_eq!(line, pinned, "wire bytes are pinned");
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
