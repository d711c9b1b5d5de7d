//! Serving-front-end load: an open-loop Poisson generator driving
//! `Server::submit_for`, and a saturated lossless `serve_trace` replay whose
//! output hash is checked against the crossbar baseline.

use crate::closed::guard_profile;
use crate::inputs::{poisson_offsets, SATURATED_REQUESTS, SERVE_CACHE, SERVE_TENANTS};
use crate::spans::Tracer;
use brsmn_serve::{serve_trace, BackendKind, ServeConfig, ServeReport, Server, TenantSpec, Trace};
use std::time::{Duration, Instant};

/// Shared queue capacity and per-tenant quota: deep enough to hold a whole
/// saturated pass, so `serve_trace` never backs off and its rate is the
/// serving thread's drain rate.
const QUEUE: usize = 2 * SATURATED_REQUESTS;

/// One shard, one engine worker, a 256-plan cache, 3 equal tenants.
pub fn config(n: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(n);
    cfg.queue.max_fanout = n;
    cfg.shards = 1;
    cfg.workers_per_shard = 1;
    cfg.plan_cache = SERVE_CACHE;
    cfg.queue_capacity = QUEUE;
    cfg.tenants = vec![TenantSpec::even(QUEUE); SERVE_TENANTS as usize];
    cfg
}

/// Failures a serve report records: rejections and routing errors.
pub fn report_failures(r: &ServeReport) -> u64 {
    guard_profile(&r.engine.stages.plan_profile);
    r.rejected + r.served_err
}

/// One saturated, lossless replay of `trace` through a fresh server.
pub fn saturated(cfg: &ServeConfig, trace: &Trace) -> ServeReport {
    serve_trace(cfg.clone(), trace).expect("valid serve config")
}

/// The output hash of `trace` replayed through the crossbar baseline.
pub fn crossbar_hash(cfg: &ServeConfig, trace: &Trace) -> u64 {
    let mut cfg = cfg.clone();
    cfg.backend = BackendKind::Crossbar;
    cfg.plan_cache = 0;
    serve_trace(cfg, trace)
        .expect("valid serve config")
        .output_hash
}

/// What one open-loop run measured, over the requests due after warm-up.
pub struct OpenLoop {
    /// Due time → completion, µs, per served request.
    pub latency_us: Vec<f64>,
    /// The server's own submit → completion latency, µs.
    pub inner_us: Vec<f64>,
    /// Duration of each `submit_for` call, ns.
    pub submit_ns: Vec<f64>,
    /// How late the generator issued each request, µs.
    pub lag_us: Vec<f64>,
    /// Requests due after warm-up.
    pub attempted: u64,
    /// Rejected, shed, or failed to route.
    pub failed: u64,
    pub report: ServeReport,
}

struct Issued {
    due_ns: u64,
    sent_ns: u64,
    submit_ns: u64,
    accepted: bool,
}

/// Drives a fresh server with Poisson arrivals at `rate` per second for
/// `seconds`, cycling through `trace`'s requests. Arrivals in the first
/// `warmup` seconds are served but not measured. Latency is timed from
/// each request's due time: the submit call's start plus the server's own
/// submit → completion latency, so a late generator shows as latency.
pub fn open_loop(
    cfg: &ServeConfig,
    trace: &Trace,
    rate: f64,
    seconds: f64,
    warmup: f64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> OpenLoop {
    let offsets = poisson_offsets(rate, seconds, seed);
    let warm_ns = (warmup * 1e9) as u64;
    let mut issued = Vec::with_capacity(offsets.len());
    let mut server = Server::start(cfg.clone()).expect("valid serve config");
    let start = Instant::now() + Duration::from_micros(200);
    for (i, &due_ns) in offsets.iter().enumerate() {
        let req = &trace.requests[i % trace.requests.len()];
        let due = start + Duration::from_nanos(due_ns);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        let mut submit = || server.submit_for(req.tenant_id(), req.source, &req.dests, None);
        let res = match tracer.as_deref_mut() {
            Some(tr) => tr.span("serve.submit_for", i as u64, submit).0,
            None => submit(),
        };
        let t1 = Instant::now();
        // Ids are submission sequence numbers, accepted or not.
        debug_assert!(res.as_ref().map_or(true, |&id| id == i as u64));
        issued.push(Issued {
            due_ns,
            sent_ns: t0.duration_since(start).as_nanos() as u64,
            submit_ns: t1.duration_since(t0).as_nanos() as u64,
            accepted: res.is_ok(),
        });
    }
    let report = server.shutdown();
    guard_profile(&report.engine.stages.plan_profile);

    let mut done: Vec<Option<(bool, u64)>> = vec![None; issued.len()];
    for c in &report.completions {
        done[c.id as usize] = Some((c.ok, c.latency_ns));
    }
    let mut out = OpenLoop {
        latency_us: Vec::new(),
        inner_us: Vec::new(),
        submit_ns: Vec::new(),
        lag_us: Vec::new(),
        attempted: 0,
        failed: 0,
        report,
    };
    for (i, is) in issued
        .iter()
        .enumerate()
        .filter(|(_, is)| is.due_ns >= warm_ns)
    {
        out.attempted += 1;
        out.submit_ns.push(is.submit_ns as f64);
        out.lag_us.push((is.sent_ns - is.due_ns) as f64 / 1e3);
        match done[i] {
            Some((true, inner)) if is.accepted => {
                out.inner_us.push(inner as f64 / 1e3);
                let lat = (is.sent_ns - is.due_ns + inner) as f64 / 1e3;
                out.latency_us.push(lat);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record(
                        "serve.request",
                        start + Duration::from_nanos(is.sent_ns),
                        inner,
                        i as u64,
                    );
                }
            }
            _ => out.failed += 1,
        }
    }
    out
}
