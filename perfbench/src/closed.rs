//! Closed-loop engine load: one client calling `Engine::route_batch` with
//! 16-frame batches, the next call issued when the previous one returns.

use crate::inputs::{Frames, BATCH};
use brsmn_core::{
    BatchOutput, Engine, EngineConfig, EngineStats, MulticastAssignment, PlanOpProfile,
};
use std::time::Instant;

/// The closed loops' `frames_per_s` and `lat_p50_us` are read over
/// windows of this many ns. The machine switches between a slow and a fast
/// state for seconds at a time, and how much of a run each state fills
/// changes from run to run; a window this short mostly sees one state.
pub const WINDOW_NS: u64 = 250_000_000;
/// Windows of the tail latency `lat_p95_us`: long enough that a window's
/// p95 has at least ten calls beyond it.
pub const TAIL_WINDOW_NS: u64 = 1_000_000_000;
/// Share of windows (and of set-ups) a reported figure must hold in: the
/// rate reached, or the latency not exceeded, in 9 of 10 windows. It reads
/// the slow state, which every run on the recording VM visited, instead of
/// the mix of states, which changed from run to run (see README.md).
pub const SUSTAINED: f64 = 0.9;

/// Work attempted, and how much of it failed: a route error or a result
/// that does not realize its frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Tallies one checked output.
    pub fn frame(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Refuses to record when a planning profile carries clock readings: the
/// `plan-profile` feature is then compiled in, and its per-op clocks would
/// be measured along with the router.
pub fn guard_profile(p: &PlanOpProfile) {
    if p.total_nanos() != 0 {
        eprintln!(
            "perfbench: refusing to record: a PlanOpProfile carries {} ns of per-op clock \
             readings, so the `plan-profile` feature is compiled in; build without it",
            p.total_nanos()
        );
        std::process::exit(3);
    }
}

/// Checks one routed batch: every frame must route, and its result must
/// realize the frame.
pub fn check_batch(batch: &[MulticastAssignment], out: &BatchOutput) -> Tally {
    guard_profile(&out.stats.stages.plan_profile);
    let mut t = Tally::default();
    for (asg, r) in batch.iter().zip(&out.results) {
        t.frame(r.as_ref().is_ok_and(|r| r.realizes(asg)));
    }
    t
}

/// Builds an engine and warms it on `warm` (pre-filling its plan cache
/// when it has one). Returns the engine, the set-up time in ns (output
/// checks excluded) and the check tally.
pub fn setup(n: usize, cfg: EngineConfig, warm: &[MulticastAssignment]) -> (Engine, u64, Tally) {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let engine = Engine::with_config(n, cfg).expect("valid engine config");
    let mut ns = t0.elapsed().as_nanos() as u64;
    for chunk in warm.chunks(BATCH) {
        let t = Instant::now();
        let out = engine.route_batch(chunk);
        ns += t.elapsed().as_nanos() as u64;
        tally.add(check_batch(chunk, &out));
    }
    (engine, ns, tally)
}

/// What one closed loop measured, over one or more segments.
pub struct LoopResult {
    /// Latency of each call, in ns, in call order.
    pub call_ns: Vec<f64>,
    /// Start of each call, ns after the first segment began.
    pub call_start_ns: Vec<u64>,
    /// The merged `EngineStats` of every call.
    pub stats: EngineStats,
    pub tally: Tally,
    origin: Instant,
}

impl LoopResult {
    pub fn new(n: usize) -> Self {
        LoopResult {
            call_ns: Vec::new(),
            call_start_ns: Vec::new(),
            stats: EngineStats::empty(n),
            tally: Tally::default(),
            origin: Instant::now(),
        }
    }

    pub fn calls(&self) -> usize {
        self.call_ns.len()
    }

    /// Frames per second spent inside `route_batch`, over the whole run.
    pub fn frames_per_s(&self) -> f64 {
        (self.calls() * BATCH) as f64 * 1e9 / self.call_ns.iter().sum::<f64>()
    }

    /// Call latencies, µs, grouped by call start into windows of
    /// `window_ns`. Windows with fewer than half the median window's calls
    /// (the cut-off first and last ones) are left out.
    pub fn windows_us(&self, window_ns: u64) -> Vec<Vec<f64>> {
        let mut w: Vec<Vec<f64>> = Vec::new();
        for (&start, &ns) in self.call_start_ns.iter().zip(&self.call_ns) {
            let k = (start / window_ns) as usize;
            if w.len() <= k {
                w.resize(k + 1, Vec::new());
            }
            w[k].push(ns / 1e3);
        }
        let mut counts: Vec<usize> = w.iter().map(Vec::len).collect();
        counts.sort_unstable();
        let half = counts[counts.len() / 2] / 2;
        w.retain(|v| !v.is_empty() && v.len() >= half);
        w
    }

    /// Calls `route_batch` on the stream's next batches for `seconds` of
    /// wall time, continuing where the previous segment stopped.
    pub fn run(&mut self, engine: &Engine, frames: &Frames, seconds: f64) {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let batch = frames.batch(self.calls());
            let t0 = Instant::now();
            self.call_start_ns
                .push(t0.duration_since(self.origin).as_nanos() as u64);
            let out = engine.route_batch(batch);
            let ns = t0.elapsed().as_nanos() as u64;
            self.call_ns.push(ns as f64);
            self.tally.add(check_batch(batch, &out));
            self.stats.merge(&out.stats);
        }
    }
}
