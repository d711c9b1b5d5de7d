//! End-to-end and per-layer benchmark of the BRSMN router.
//!
//! ```text
//! perfbench --workload <cold-dense|churn-cache> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1`
//! makes the separate traced run that yields the per-layer metrics. The
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Every output is
//! checked; a wrong output exits with code 1, a `plan-profile` build with
//! code 3. See `README.md` for the workloads and metrics.

mod closed;
mod inputs;
mod ladder;
mod serving;
mod spans;
mod stats;

use closed::{LoopResult, Tally};
use inputs::{Frames, BATCH, N_ENGINE, SATURATED_REQUESTS};
use spans::Tracer;
use stats::{median, percentile, quantile, sorted, tail_percentile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use brsmn_core::{Engine, EngineConfig, EngineStats, MulticastAssignment};
use brsmn_serve::Trace;

/// Set-ups per run, spread evenly over the closed loop (one a second of a
/// 55 s run); `setup_s` is the time 9 of 10 of them stay within.
const SETUP_REPEATS: usize = 55;
/// Offered rate, requests per second, of the traced run's open loop on a
/// workload's serve traffic. It is fixed, so the serve layer sees the same
/// load on every run and every commit. The saturated `serve_trace` rate of
/// both workloads' traffic was 6.8k-10.6k req/s on a 2-vCPU VM, so this
/// is a fifth to a third of it (see README.md).
const SERVE_RATE: f64 = 2_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdDense,
    ChurnCache,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cold-dense" => Ok(Workload::ColdDense),
            "churn-cache" => Ok(Workload::ChurnCache),
            _ => Err(format!(
                "unknown workload {s:?} (expected cold-dense or churn-cache)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdDense => "cold-dense",
            Workload::ChurnCache => "churn-cache",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("{flag}: expected a positive number, got {v:?}"))
    };
    let args = Args {
        workload: Workload::parse(&get("--workload")?)?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds", get("--seconds")?)?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
    };
    Ok(args)
}

/// The result line and the human-readable report above it.
struct Out {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Out {
    fn new() -> Self {
        Out {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite reading cannot be written as JSON; report it as
            // 0 rather than corrupt the line (the human report shows why).
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The engine-side inputs of a workload: its frame stream, the engine
/// configuration, and the frames set-up routes (which pre-fill the cache).
struct EngineLoad {
    frames: Frames,
    cfg: EngineConfig,
    warm: Vec<MulticastAssignment>,
}

/// A workload's engine load and its serve traffic: the engine frames cut
/// into single-source requests.
fn workload_inputs(w: Workload, seed: u64) -> (EngineLoad, Trace) {
    let one_worker = EngineConfig::sequential();
    let load = match w {
        Workload::ColdDense => {
            let frames = inputs::dense_frames(N_ENGINE, inputs::DENSE_POOL, seed);
            let warm = frames.asgs[..8 * BATCH].to_vec();
            EngineLoad {
                frames,
                cfg: one_worker,
                warm,
            }
        }
        Workload::ChurnCache => {
            let churn = inputs::churn(seed);
            EngineLoad {
                frames: churn.frames,
                cfg: one_worker.with_plan_cache(inputs::CHURN_CACHE),
                // Coldest first: a cache shard that overflows during the
                // pre-fill then evicts cold layouts rather than the hottest
                // (an exact entry lost while its class stays cached is
                // never re-inserted, so the hot layout would read from the
                // canonical tier for good).
                warm: churn.pool[..inputs::CHURN_CACHE]
                    .iter()
                    .rev()
                    .cloned()
                    .collect(),
            }
        }
    };
    let trace = inputs::trace_from_frames(&load.frames, seed, SATURATED_REQUESTS);
    (load, trace)
}

/// Prints the pooled p50 and p99 of `samples_us` with their sample support.
fn latency_lines(what: &str, samples_us: &[f64], report: &mut String) {
    let s = sorted(samples_us);
    let p50 = percentile(&s, 0.5);
    let tail = tail_percentile(&s, 99);
    let _ = writeln!(
        report,
        "  {what}: {}; {}",
        p50.describe("us"),
        tail.describe("us")
    );
}

/// The p95 latency of each window that 9 of 10 windows stay within.
fn windowed_tail(windows: &[Vec<f64>], report: &mut String) -> f64 {
    let tails: Vec<stats::Percentile> = windows
        .iter()
        .map(|w| tail_percentile(&sorted(w), 95))
        .collect();
    let values: Vec<f64> = tails.iter().map(|p| p.value).collect();
    let m = quantile(&values, closed::SUSTAINED);
    let lowest_q = tails.iter().map(|p| p.q).fold(1.0, f64::min);
    let _ = writeln!(
        report,
        "  windowed tail: p{:.0} over {} windows of {} s of each window's p95 = {m:.3} us \
         (lowest percentile used p{:.0}; window tails {:.1} .. {:.1} us)",
        closed::SUSTAINED * 100.0,
        values.len(),
        closed::TAIL_WINDOW_NS / 1_000_000_000,
        lowest_q * 100.0,
        values.iter().cloned().fold(f64::INFINITY, f64::min),
        values.iter().cloned().fold(0.0, f64::max),
    );
    m
}

fn engine_e2e(args: &Args, out: &mut Out, report: &mut String) {
    let (load, _) = workload_inputs(args.workload, args.seed);
    let n = load.frames.n();
    // The set-ups are spread over the run, one before each segment of the
    // closed loop, so they sample the machine's speed spells as the loop
    // does. The loop keeps the first set-up's engine.
    let mut setups = Vec::new();
    let mut engine = None;
    let mut tally = Tally::default();
    let mut lr = LoopResult::new(n);
    for _ in 0..SETUP_REPEATS {
        let (e, ns, t) = closed::setup(n, load.cfg, &load.warm);
        setups.push(ns as f64 / 1e9);
        tally.add(t);
        let engine = engine.get_or_insert(e);
        lr.run(engine, &load.frames, args.seconds / SETUP_REPEATS as f64);
    }
    tally.add(lr.tally);

    let _ = writeln!(
        report,
        "{}: {} calls of {BATCH} frames (n = {n}), {} distinct frames in the stream",
        args.workload.name(),
        lr.calls(),
        inputs::distinct_frames(&load.frames)
    );
    let lat_us: Vec<f64> = lr.call_ns.iter().map(|ns| ns / 1e3).collect();
    latency_lines("route_batch latency", &lat_us, report);
    let p95 = windowed_tail(&lr.windows_us(closed::TAIL_WINDOW_NS), report);
    let windows = lr.windows_us(closed::WINDOW_NS);
    let window_ms = closed::WINDOW_NS as f64 / 1e6;
    let medians: Vec<f64> = windows.iter().map(|w| median(w)).collect();
    let p50 = quantile(&medians, closed::SUSTAINED);
    let _ = writeln!(
        report,
        "  windowed median: p{:.0} over {} windows of {window_ms} ms of each window's p50 = \
         {p50:.3} us (windows of {} to {} calls; window medians {:.1} .. {:.1} us)",
        closed::SUSTAINED * 100.0,
        windows.len(),
        windows.iter().map(Vec::len).min().unwrap_or(0),
        windows.iter().map(Vec::len).max().unwrap_or(0),
        medians.iter().cloned().fold(f64::INFINITY, f64::min),
        medians.iter().cloned().fold(0.0, f64::max),
    );
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| (w.len() * BATCH) as f64 * 1e6 / w.iter().sum::<f64>())
        .collect();
    let fps = quantile(&rates, 1.0 - closed::SUSTAINED);
    let _ = writeln!(
        report,
        "  windowed rate: p{:.0} over the same windows of each window's frames/s = {fps:.1} \
         (window rates {:.1} .. {:.1}; whole-run mean {:.1})",
        (1.0 - closed::SUSTAINED) * 100.0,
        rates.iter().cloned().fold(f64::INFINITY, f64::min),
        rates.iter().cloned().fold(0.0, f64::max),
        lr.frames_per_s(),
    );
    let s = &lr.stats;
    let frames = (lr.calls() * BATCH) as f64;
    let _ = writeln!(
        report,
        "  cache: {} exact hits, {} canonical hits, {} misses, {} evictions \
         ({:.1} % / {:.1} % / {:.1} % of frames)",
        s.plan_exact_hits,
        s.plan_canonical_hits,
        s.plan_misses,
        s.plan_evictions,
        100.0 * s.plan_exact_hits as f64 / frames,
        100.0 * s.plan_canonical_hits as f64 / frames,
        100.0 * s.plan_misses as f64 / frames,
    );
    let _ = writeln!(
        report,
        "  set-ups: {SETUP_REPEATS}, {:.4} .. {:.4} s, median {:.4} s",
        setups.iter().cloned().fold(f64::INFINITY, f64::min),
        setups.iter().cloned().fold(0.0, f64::max),
        median(&setups),
    );
    // Set-up routes count as attempted frames like the loop's own.
    out.put("setup_s", quantile(&setups, closed::SUSTAINED), "s");
    out.put("frames_per_s", fps, "1/s");
    out.put("lat_p50_us", p50, "us");
    out.put("lat_p95_us", p95, "us");
    out.put(
        "success_ratio",
        1.0 - tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.correct = tally.failed == 0;
}

/// A saturated `serve_trace` pass and its crossbar check.
struct Saturated {
    /// Delivered requests per second.
    rate: f64,
    attempted: u64,
    failed: u64,
    served_err: u64,
    /// The pass's output hash equals the crossbar replay's.
    hash_ok: bool,
}

/// Replays `trace` saturated once (a `serve.serve_trace` span), then checks
/// the output hash against the same trace through the crossbar baseline.
fn saturated_pass(cfg: &brsmn_serve::ServeConfig, trace: &Trace, tr: &mut Tracer) -> Saturated {
    let (r, _) = tr.span("serve.serve_trace", 0, || serving::saturated(cfg, trace));
    let hash_ok = r.output_hash == serving::crossbar_hash(cfg, trace);
    Saturated {
        rate: r.frames_per_sec,
        attempted: r.submitted,
        failed: serving::report_failures(&r) + if hash_ok { 0 } else { r.submitted },
        served_err: r.served_err,
        hash_ok,
    }
}

fn per_frame(x: u64, frames: u64) -> f64 {
    x as f64 / frames.max(1) as f64
}

/// Engine-side per-layer metrics from the ladder run; returns the tracing
/// overhead (traced over untraced frames per second).
fn engine_layers(lad: &ladder::Ladder, s: &EngineStats, out: &mut Out, report: &mut String) -> f64 {
    let frames = lad.frames;
    let p = &s.stages.plan_profile;
    out.put("rbn.plan_ns_per_frame", lad.plan.mean(), "ns");
    out.put(
        "rbn.tag_derive_ops_per_frame",
        per_frame(p.tag_derive_ops, frames),
        "count",
    );
    out.put(
        "rbn.rank_ops_per_frame",
        per_frame(p.rank_ops, frames),
        "count",
    );
    out.put(
        "rbn.scatter_ops_per_frame",
        per_frame(p.scatter_ops, frames),
        "count",
    );
    out.put(
        "rbn.quasisort_ops_per_frame",
        per_frame(p.quasisort_ops, frames),
        "count",
    );
    out.put(
        "rbn.sweep_passes_per_frame",
        per_frame(s.stages.sweep_passes, frames),
        "count",
    );
    out.put("core.fastpath.exec_ns_per_frame", lad.replay.mean(), "ns");
    out.put(
        "core.fastpath.replay_permuted_ns_per_frame",
        lad.replay_permuted.mean(),
        "ns",
    );
    out.put(
        "core.fastpath.scratch_bytes",
        s.scratch_bytes as f64,
        "bytes",
    );
    let batch_ns = lad.batch_chunk.ns / (lad.batch_chunk.calls as f64 * BATCH as f64);
    out.put("core.batch.ns_per_frame", batch_ns, "ns");
    let soa_gain = lad.route_into.mean() / batch_ns;
    out.put("core.batch.soa_gain", soa_gain, "ratio");
    out.put(
        "core.batch.planned_ratio",
        per_frame(s.batch_planned_frames, frames),
        "ratio",
    );
    out.put("core.canonical.ns_per_call", lad.canonicalize.mean(), "ns");
    out.put(
        "core.plancache.fingerprint_ns",
        lad.fingerprint.mean(),
        "ns",
    );
    out.put("core.plancache.lookup_ns", lad.lookup.mean(), "ns");
    out.put(
        "core.plancache.lookup_canonical_ns",
        lad.lookup_canonical.mean(),
        "ns",
    );
    out.put("core.plancache.insert_ns", lad.insert.mean(), "ns");
    out.put(
        "core.plancache.capture_ns_per_frame",
        lad.capture_overhead.mean(),
        "ns",
    );
    out.put(
        "core.plancache.exact_hit_ratio",
        per_frame(s.plan_exact_hits, frames),
        "ratio",
    );
    out.put(
        "core.plancache.canonical_hit_ratio",
        per_frame(s.plan_canonical_hits, frames),
        "ratio",
    );
    out.put(
        "core.plancache.evictions_per_kframe",
        1000.0 * per_frame(s.plan_evictions, frames),
        "count",
    );
    out.put(
        "core.plancache.footprint_bytes",
        s.plan_cache_bytes as f64,
        "bytes",
    );
    let (miss, hit, uncached) = (
        lad.miss_path.mean(),
        lad.hit_path.mean(),
        lad.route_into.mean(),
    );
    let break_even = (miss - uncached) / (miss - hit);
    out.put("core.plancache.break_even_hit_ratio", break_even, "ratio");

    // Layer closure: the ladder's rows plus the unattributed driver time
    // add up to the untraced route_batch time of the same frames.
    let nframes = frames as f64;
    let rows = lad.rows;
    let whole = lad.untraced_ns / nframes;
    let driver = whole - rows.total() / nframes;
    out.put("core.engine.driver_ns_per_frame", driver, "ns");
    out.put(
        "core.engine.busy_over_wall",
        s.busy_nanos as f64 / lad.wall_ns as f64,
        "ratio",
    );
    let overhead = lad.untraced_ns / lad.traced_ns;

    let _ = writeln!(report, "layer closure over {frames} frames (ns/frame):");
    for (name, v) in [
        ("rbn (plan = route_into - replay)", rows.rbn / nframes),
        (
            "core.fastpath (replay, permuted replay)",
            rows.fastpath / nframes,
        ),
        ("core.canonical", rows.canonical / nframes),
        (
            "core.plancache (probe, insert, capture)",
            rows.plancache / nframes,
        ),
        ("core.engine.driver (unattributed)", driver),
    ] {
        let _ = writeln!(
            report,
            "  {name:<42} {v:>12.1}  {:>6.1}%",
            100.0 * v / whole
        );
    }
    let _ = writeln!(report, "  {:<42} {whole:>12.1}", "= untraced route_batch");
    let _ = writeln!(
        report,
        "  harness.trace_overhead (traced/untraced frames/s) = {overhead:.4}"
    );
    let _ = writeln!(
        report,
        "  ladder: {} exact hits, {} canonical hits, {} misses; soa_gain {soa_gain:.3}; break-even hit ratio {break_even:.3}",
        lad.exact_hits, lad.canonical_hits, lad.misses
    );
    overhead
}

/// `core.fastpath.level_ns.*` from an n = 256 dense probe beside the
/// paper's gate-delay model at the same n.
fn level_table(frames: &Frames, out: &mut Out, report: &mut String) {
    let engine = Engine::with_config(N_ENGINE, EngineConfig::sequential()).expect("valid engine");
    let mut stats = EngineStats::empty(N_ENGINE);
    let calls = 32;
    for c in 0..calls {
        let batch = frames.batch(c);
        let o = engine.route_batch(batch);
        let t = closed::check_batch(batch, &o);
        assert_eq!(t.failed, 0, "level probe frames route");
        stats.merge(&o.stats);
    }
    let nframes = (calls * BATCH) as u64;
    let sim = brsmn_sim::brsmn_routing_time(N_ENGINE);
    let _ = writeln!(
        report,
        "per-level cost at n = {N_ENGINE}: measured ns/frame vs gate delays"
    );
    for (i, (lv, gd)) in stats.stages.levels.iter().zip(&sim.per_level).enumerate() {
        let ns = per_frame(lv.nanos, nframes);
        out.put(format!("core.fastpath.level_ns.{}", i + 1), ns, "ns");
        out.put(
            format!("sim.level_gate_delays.{}", i + 1),
            *gd as f64,
            "gate_delays",
        );
        let _ = writeln!(
            report,
            "  level {}: {ns:>10.1} ns   {gd:>6} gate delays",
            i + 1
        );
    }
    let final_ns = per_frame(stats.stages.final_nanos, nframes);
    out.put("core.fastpath.final_ns", final_ns, "ns");
    out.put(
        "sim.final_gate_delays",
        sim.final_stage as f64,
        "gate_delays",
    );
    out.put("sim.routing_gate_delays", sim.total as f64, "gate_delays");
    let _ = writeln!(
        report,
        "  final: {final_ns:>10.1} ns   {:>6} gate delays (total {})",
        sim.final_stage, sim.total
    );
}

/// Serve-side per-layer metrics from a traced open loop.
fn serve_layers(open: &serving::OpenLoop, out: &mut Out) {
    let r = &open.report;
    let sub = sorted(&open.submit_ns);
    out.put("serve.submit_ns_p50", percentile(&sub, 0.5).value, "ns");
    out.put("serve.submit_ns_p99", tail_percentile(&sub, 99).value, "ns");
    let inner = sorted(&open.inner_us);
    out.put(
        "serve.inner_lat_p50_us",
        percentile(&inner, 0.5).value,
        "us",
    );
    out.put(
        "serve.inner_lat_p99_us",
        tail_percentile(&inner, 99).value,
        "us",
    );
    let rounds = r.rounds.max(1) as f64;
    out.put(
        "serve.round_route_us_mean",
        r.engine.busy_nanos as f64 / rounds / 1e3,
        "us",
    );
    out.put(
        "serve.frames_per_round",
        (r.accepted + r.drained) as f64 / rounds,
        "count",
    );
    out.put(
        "serve.busy_share",
        r.engine.busy_nanos as f64 / r.wall_nanos.max(1) as f64,
        "ratio",
    );
    let max_queued = r.tenants.iter().map(|t| t.max_queued).max().unwrap_or(0);
    out.put("serve.max_queued", max_queued as f64, "count");
    let lag = sorted(&open.lag_us);
    out.put(
        "harness.gen_lag_p99_us",
        tail_percentile(&lag, 99).value,
        "us",
    );
}

fn traced(args: &Args, out: &mut Out, report: &mut String) -> Tracer {
    let mut tr = Tracer::new();
    let w = args.workload;
    let s = args.seconds;
    let (load, trace) = workload_inputs(w, args.seed);
    let n = load.frames.n();
    let mut tally = Tally::default();

    // Engine: two engines set up alike (one untraced, one traced), and
    // the ladder, interleaved chunk by chunk.
    let (a, _, t) = closed::setup(n, load.cfg, &load.warm);
    tally.add(t);
    let (b, _, t) = closed::setup(n, load.cfg, &load.warm);
    tally.add(t);
    let (lad, stats) = ladder::run(
        &load.frames,
        [&a, &b],
        &load.warm,
        0.55 * s,
        args.seed,
        &mut tr,
    );
    tally.add(lad.tally);
    let engine_overhead = engine_layers(&lad, &stats, out, report);

    let dense;
    let level_frames = if w == Workload::ColdDense {
        &load.frames
    } else {
        dense = inputs::dense_frames(N_ENGINE, 32 * BATCH, args.seed);
        &dense
    };
    level_table(level_frames, out, report);

    // Serving: a saturated pass (checked against the crossbar), then a
    // traced open loop at the fixed offered rate.
    let cfg = serving::config(trace.n);
    let sat = saturated_pass(&cfg, &trace, &mut tr);
    let rate = SERVE_RATE;
    let open = serving::open_loop(&cfg, &trace, rate, 0.35 * s, 0.2, args.seed, Some(&mut tr));
    serve_layers(&open, out);
    out.put("harness.trace_overhead", engine_overhead, "ratio");
    let _ = writeln!(
        report,
        "serving (n = {}): saturated {:.0} req/s; open loop at {rate:.0} req/s offered \
         ({:.0} % of saturated); {} rejected, {} route errors",
        trace.n,
        sat.rate,
        100.0 * rate / sat.rate,
        open.report.rejected,
        open.report.served_err
    );
    latency_lines(
        "due -> completion latency (traced)",
        &open.latency_us,
        report,
    );
    latency_lines("generator lag (traced)", &open.lag_us, report);

    out.attempted = tally.attempted + sat.attempted + open.attempted;
    out.failed = tally.failed + sat.failed + open.failed;
    out.correct =
        tally.failed == 0 && sat.hash_ok && sat.served_err == 0 && open.report.served_err == 0;
    tr
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold-dense|churn-cache> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = Out::new();
    let mut report = String::new();
    if args.trace {
        let tr = traced(&args, &mut out, &mut report);
        let _ = writeln!(report, "span self times (calls, mean ns, mean self ns):");
        for (name, t) in tr.totals() {
            let calls = t.calls.max(1) as f64;
            let _ = writeln!(
                report,
                "  {name:<40} {:>9} {:>12.1} {:>12.1}",
                t.calls,
                t.total_ns as f64 / calls,
                t.self_ns as f64 / calls
            );
        }
        let path = PathBuf::from(".bench_out").join(format!("spans-{}.tsv", args.workload.name()));
        match tr.write(&path) {
            Ok(()) => {
                let _ = writeln!(report, "spans written to {}", path.display());
            }
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        engine_e2e(&args, &mut out, &mut report);
        out.put("rss_peak_mb", stats::rss_peak_mb().unwrap_or(0.0), "MB");
    }
    print!("{report}");
    for (name, value, unit) in &out.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output check failed");
        ExitCode::FAILURE
    }
}
