//! `serve`: one op is one client request to an in-process loopback
//! `Server` until its terminal reply.
//!
//! One `Client` on one connection runs a closed loop over a seeded mix,
//! so it measures the wire codec, `FairQueue`, the dedup cache and trace
//! emission one request at a time. The server has one worker and no
//! journal or checkpoint directory, so no op touches the disk.

use std::time::{Duration, Instant};

use pxl_apps::Scale;
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::{execute, measurement_of, RunSpec, SimSession};
use pxl_serve::{
    measurement_to_json_value, Client, ClientConfig, ClientError, JobEvent, JobKind, Server,
    ServerConfig,
};
use pxl_sim::Time;

use crate::harness::{self, Opts, Report, Rng, Tally};
use crate::spans::{step, Spans};

/// Trace capacity the server forces onto profile jobs.
const PROFILE_TRACE: usize = 1 << 16;

/// Checkpoint boundaries per fresh job, so each sends progress events.
const MISS_LEGS: u64 = 4;

/// In-process executions per spec behind each traced-run baseline.
const INPROC_REPS: usize = 5;

/// Request kinds; also the tally groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A fresh design point: a cache miss that simulates.
    Miss,
    /// A repeat of a hot spec: a dedup hit, wire and protocol only.
    Hit,
    /// A profile job: always executes, traced.
    Profile,
    /// A `stats` probe.
    Stats,
}

/// Number of [`Kind`]s.
const KINDS: usize = 4;

/// One round of the mix, shuffled by the seed: one request of each kind.
/// Equal shares are an assumption, not a measurement: the repository
/// holds no recorded serve traffic to take the shares from.
const ROUND: [Kind; KINDS] = [Kind::Miss, Kind::Hit, Kind::Profile, Kind::Stats];

impl Kind {
    fn group(self) -> usize {
        self as usize
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Miss => "op.miss",
            Kind::Hit => "op.hit",
            Kind::Profile => "op.profile",
            Kind::Stats => "op.stats",
        }
    }
}

/// A spec with the payload its `done` event must carry.
struct Expect {
    spec: RunSpec,
    /// Canonical JSON of the expected measurement.
    result: String,
    /// Expected `trace_events` (profile jobs only).
    trace_events: Option<u64>,
    /// Kernel simulated time.
    kernel: Time,
    /// Whole-program simulated time.
    whole: Time,
}

fn expect(spec: RunSpec, kind: JobKind) -> Result<Expect, String> {
    let run_spec = if kind == JobKind::Profile {
        spec.clone().with_trace(PROFILE_TRACE)
    } else {
        spec.clone()
    };
    let out = execute(&run_spec)
        .map_err(|e| format!("reference run of {}: {e}", spec.canonical()))?
        .ok_or_else(|| format!("{} has no LiteArch mapping", spec.benchmark))?;
    Ok(Expect {
        result: measurement_to_json_value(&measurement_of(&run_spec, None, &out)).to_json(),
        trace_events: (kind == JobKind::Profile).then_some(out.trace.len() as u64),
        kernel: out.kernel,
        whole: out.whole,
        spec,
    })
}

/// A started server, its one client and the references.
struct Ctx {
    server: Server,
    client: Client,
    hot: Vec<Expect>,
    profile: Expect,
    /// Fresh points differ from this spec only in P-Store capacity, which
    /// these runs never fill: each is a cache miss doing the same
    /// simulated work, with this reference.
    miss: Expect,
    next_miss: usize,
    hot_turn: usize,
    /// Jobs the server has completed, as `stats` must report.
    completed: u64,
    /// Window jobs answered from the dedup cache.
    cached: u64,
}

struct Reply {
    terminal: JobEvent,
    progress: u64,
}

/// Submits one job (`serve.submit`: until `accepted`) and reads the
/// stream up to its terminal event (`serve.wait`).
fn job(
    client: &mut Client,
    tenant: &str,
    kind: JobKind,
    spec: &RunSpec,
    spans: &mut Option<&mut Spans>,
    op: u64,
) -> Result<Reply, ClientError> {
    let job = step(spans, "serve.submit", op, || {
        client.submit(tenant, kind, spec)
    })?;
    step(spans, "serve.wait", op, || {
        let mut progress = 0;
        loop {
            match client.next_event()? {
                JobEvent::Progress { job: j, .. } if j == job => progress += 1,
                e @ (JobEvent::Done { job: j, .. } | JobEvent::Failed { job: j, .. })
                    if j == job =>
                {
                    return Ok(Reply {
                        terminal: e,
                        progress,
                    });
                }
                _ => {}
            }
        }
    })
}

fn points(scale: Scale) -> (Vec<RunSpec>, RunSpec, RunSpec) {
    let hot = vec![
        RunSpec::new("uts", scale, DesignPoint::accel(PointArch::Flex, 1, 4)),
        RunSpec::new("queens", scale, DesignPoint::accel(PointArch::Lite, 1, 4)),
        RunSpec::new("queens", scale, DesignPoint::cpu(4)),
    ];
    let profile = RunSpec::new("queens", scale, DesignPoint::accel(PointArch::Flex, 1, 2));
    let miss = RunSpec::new("uts", scale, DesignPoint::accel(PointArch::Flex, 2, 2));
    (hot, profile, miss)
}

fn setup(scale: Scale) -> Result<Ctx, String> {
    let (hot, profile, miss) = points(scale);
    let hot: Vec<Expect> = hot
        .into_iter()
        .map(|s| expect(s, JobKind::Sim))
        .collect::<Result<_, _>>()?;
    let profile = expect(profile, JobKind::Profile)?;
    let mut miss = expect(miss, JobKind::Sim)?;
    let session = SimSession::start(&miss.spec)
        .map_err(|e| e.to_string())?
        .ok_or("fresh-point base has no mapping")?;
    let kernel_cycles = session.clock().time_to_cycles(miss.kernel);
    miss.spec = miss
        .spec
        .clone()
        .with_checkpoint((kernel_cycles / MISS_LEGS).max(1));

    let server = Server::start(ServerConfig {
        workers: 1,
        tenant_quota: 64,
        cache_path: None,
        job_log: None,
        checkpoint_dir: None,
        flush_every_record: false,
    })?;
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(60)),
        ..ClientConfig::default()
    };
    let client = Client::connect_with(server.addr(), &config).map_err(|e| e.to_string())?;
    let mut ctx = Ctx {
        server,
        client,
        hot,
        profile,
        miss,
        next_miss: 0,
        hot_turn: 0,
        completed: 0,
        cached: 0,
    };
    // Warm the dedup cache: the first submit of each hot spec simulates.
    for i in 0..ctx.hot.len() {
        let spec = ctx.hot[i].spec.clone();
        let reply = job(&mut ctx.client, "hot", JobKind::Sim, &spec, &mut None, 0)
            .map_err(|e| e.to_string())?;
        if !matches!(&reply.terminal, JobEvent::Done { result, .. }
            if measurement_to_json_value(result).to_json() == ctx.hot[i].result)
        {
            return Err(format!(
                "warm-up of {} failed: {:?}",
                spec.canonical(),
                reply.terminal
            ));
        }
        ctx.completed += 1;
    }
    Ok(ctx)
}

fn teardown(mut ctx: Ctx) -> Result<(u64, u64), String> {
    ctx.client.drain().map_err(|e| e.to_string())?;
    let preemptions = ctx.server.metrics().get("server.preemptions");
    let summary = ctx.server.join();
    Ok((summary.failed, preemptions))
}

/// Whole-program simulated ms of the fixed specs (hot, profile and the
/// fresh-point base): identical for every seed.
fn sim_ms(ctx: &Ctx) -> f64 {
    ctx.hot
        .iter()
        .chain([&ctx.profile, &ctx.miss])
        .map(|e| e.whole.as_ps() as f64 / 1e9)
        .sum()
}

/// Median host ms of `execute(spec)` over [`INPROC_REPS`] runs per spec.
fn inproc_ms<'a>(specs: impl IntoIterator<Item = &'a RunSpec> + Clone) -> f64 {
    let mut ms = Vec::new();
    for _ in 0..INPROC_REPS {
        for spec in specs.clone() {
            let t = Instant::now();
            let _ = execute(spec);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    crate::stats::median(&ms).unwrap_or(0.0)
}

/// Runs one request of `kind`; returns its host ms and whether its reply
/// checked out.
fn request(ctx: &mut Ctx, kind: Kind, spans: &mut Option<&mut Spans>, op: u64) -> (f64, bool) {
    let t = Instant::now();
    let root = spans.as_deref_mut().map(|s| s.open(kind.span(), op));
    let close = |spans: &mut Option<&mut Spans>| {
        if let (Some(s), Some(root)) = (spans.as_deref_mut(), root) {
            s.close_through(root);
        }
    };
    if kind == Kind::Stats {
        let stats = step(spans, "serve.stats", op, || ctx.client.stats());
        close(spans);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = stats.is_ok_and(|s| {
            s.completed == ctx.completed && s.failed == 0 && s.queued == 0 && s.running == 0
        });
        return (ms, ok);
    }
    let (spec, job_kind, tenant, want) = match kind {
        Kind::Miss => {
            ctx.next_miss += 1;
            let mut spec = ctx.miss.spec.clone();
            spec.point.pstore_entries += ctx.next_miss;
            (spec, JobKind::Sim, "fresh", &ctx.miss)
        }
        Kind::Hit => {
            ctx.hot_turn = (ctx.hot_turn + 1) % ctx.hot.len();
            let e = &ctx.hot[ctx.hot_turn];
            (e.spec.clone(), JobKind::Sim, "hot", e)
        }
        _ => (
            ctx.profile.spec.clone(),
            JobKind::Profile,
            "profile",
            &ctx.profile,
        ),
    };
    let (want_result, want_trace) = (want.result.clone(), want.trace_events);
    let reply = job(&mut ctx.client, tenant, job_kind, &spec, spans, op);
    close(spans);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = match &reply {
        Ok(Reply {
            terminal:
                JobEvent::Done {
                    cached,
                    result,
                    trace_events,
                    ..
                },
            progress,
            ..
        }) => {
            ctx.completed += 1;
            ctx.cached += u64::from(*cached);
            let expect_cached = kind == Kind::Hit;
            *cached == expect_cached
                && measurement_to_json_value(result).to_json() == want_result
                && *trace_events == want_trace
                && (kind != Kind::Miss || *progress > 0)
        }
        _ => false,
    };
    (ms, ok)
}

fn pass(ctx: &mut Ctx, tally: &mut Tally, mut spans: Option<&mut Spans>, rng: &mut Rng) {
    let mut round = ROUND;
    rng.shuffle(&mut round);
    for kind in round {
        let (ms, ok) = request(ctx, kind, &mut spans, tally.attempted);
        tally.record(kind.group(), ms, ok);
    }
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// A failed reference run, server start or warm-up during setup.
pub fn run(opts: &Opts, process_start: Instant, rng: &mut Rng) -> Result<(Report, Spans), String> {
    let scale = if opts.tiny { Scale::Tiny } else { Scale::Small };
    let mut ctx = setup(scale)?;
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let w = harness::window(
        opts,
        KINDS,
        rng,
        first_setup_s,
        || {
            let (other, s) = harness::timed(|| setup(scale))?;
            teardown(other)?;
            Ok(s)
        },
        |tally, spans, rng| pass(&mut ctx, tally, spans, rng),
    )?;
    let sim = sim_ms(&ctx);
    let (dones, cached) = (ctx.completed - ctx.hot.len() as u64, ctx.cached);
    // In-process executions of the requests' specs, after the window: the
    // baseline the transport and server overhead are read against.
    let baselines = opts.trace.then(|| {
        let traced_profile = ctx.profile.spec.clone().with_trace(PROFILE_TRACE);
        (
            inproc_ms(ctx.hot.iter().map(|e| &e.spec)),
            inproc_ms([&ctx.miss.spec]),
            inproc_ms([&traced_profile]) - inproc_ms([&ctx.profile.spec]),
        )
    });
    let (server_failed, preemptions) = teardown(ctx)?;
    let mut report = Report {
        attempted: w.plain.attempted + w.traced.attempted,
        failed: w.plain.failed + w.traced.failed + server_failed,
        ..Report::default()
    };
    if let Some((inproc_hot, inproc_miss, trace_emit)) = baselines {
        let s = &w.spans;
        let (hit, miss, stats) = (
            s.median_ms("op.hit"),
            s.median_ms("op.miss"),
            s.median_ms("serve.stats"),
        );
        report.set("serve.submit_ms", s.median_ms("serve.submit"));
        report.set("serve.wait_ms", s.median_ms("serve.wait"));
        report.set("serve.stats_ms", stats);
        report.set("serve.hit_ms", hit);
        report.set("serve.miss_ms", miss);
        report.set("serve.inproc_ms", inproc_hot);
        report.set("serve.overhead_ms", miss - inproc_miss);
        report.set("serve.cache_hit_ratio", cached as f64 / dones.max(1) as f64);
        report.set("serve.preemptions", preemptions as f64);
        report.set("sim.trace_emit_ms", trace_emit);
        harness::common_layers(&mut report, &w, "op.");
        report.notes.push(format!(
            "transport gap: stats {stats:.3} ms and dedup hit {hit:.3} ms over the wire \
             vs {inproc_hot:.3} ms to execute the hot specs in process; \
             miss {miss:.3} ms vs {inproc_miss:.3} ms in process"
        ));
    } else {
        harness::end_to_end(&mut report, &w, sim);
    }
    report.notes.push(format!(
        "{} requests per round ({:?}); {} plain ops, {} traced ops over {:.2} s",
        ROUND.len(),
        ROUND,
        w.plain.attempted,
        w.traced.attempted,
        w.seconds
    ));
    Ok((report, w.spans))
}
