//! `bench_report` — records the fast-path bench trajectory as
//! `BENCH_route.json`: frames/s and ns/frame for the scratch-arena fast
//! path, the PR-1 allocating reference path, the plan-capture cache
//! (cold capture / warm replay), and the cache-less cold planners
//! (per-frame `simd-cold` vs SoA lockstep `batch-cold`) at
//! n ∈ {64, 256, 1024}, sequential and on 4 workers, over dense 64-frame
//! batches.
//!
//! ```text
//! cargo run --release -p brsmn-bench --bin bench_report             # writes ./BENCH_route.json
//! cargo run --release -p brsmn-bench --bin bench_report out.json 5  # path + repeats
//! ```
//!
//! Headline numbers:
//! * `speedup_fast_vs_reference_seq_n256` — fast ≥ 2× reference frames/s at
//!   n = 256, batch 64, sequential (the fast-path PR's acceptance bar);
//! * `speedup_fast_vs_reference_seq_n1024` — the same ratio at n = 1024;
//! * `speedup_warm_replay_vs_fast_seq_n256` — warm plan-cache replay over
//!   fresh fast-path planning at n = 256, sequential (the plan-cache PR's
//!   acceptance bar: ≥ 2×);
//! * `speedup_batch_cold_vs_simd_cold_seq_n256` — SoA lockstep batch
//!   planning over per-frame planning on a cache-less engine at n = 256,
//!   sequential (how much the batch transpose buys with no replay to hide
//!   behind; the 1.5× cold-vs-warm target itself is gated by
//!   `tests/cold_speedup.rs`).
//!
//! `hardware_threads` records the host's available parallelism: when it is
//! 1, the 4-worker points time-slice one core and their throughput matching
//! the sequential points (busy/wall ≈ 1.0 per point) is expected, not a
//! scheduling defect.

use brsmn_bench::{measure_cold_path, measure_replay_path, measure_route_path, RoutePoint};
use brsmn_core::PlanOpProfile;
use serde::{Deserialize, Serialize};

const FRAMES: usize = 64;
const SEED: u64 = 7;
/// Distinct assignments cycled by the warm-replay batch.
const DISTINCT: usize = 8;

/// The recorded trajectory (`BENCH_route.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RouteBenchReport {
    /// Frames per batch.
    batch: usize,
    /// Workload seed.
    seed: u64,
    /// Best-of-N repeats per point.
    repeats: usize,
    /// Hardware threads available to this run
    /// (`std::thread::available_parallelism`).
    hardware_threads: usize,
    /// Fast over reference frames/s at n = 256, sequential — the fast-path
    /// PR's acceptance headline.
    speedup_fast_vs_reference_seq_n256: f64,
    /// Fast over reference frames/s at n = 1024, sequential.
    speedup_fast_vs_reference_seq_n1024: f64,
    /// Warm plan-cache replay over fresh fast-path planning at n = 256,
    /// sequential — the plan-cache PR's acceptance headline.
    speedup_warm_replay_vs_fast_seq_n256: f64,
    /// SoA lockstep batch planning over per-frame planning on a cache-less
    /// engine at n = 256, sequential — the batch-planner PR's headline.
    speedup_batch_cold_vs_simd_cold_seq_n256: f64,
    /// Where cold planning time goes, per op category, at n = 256
    /// sequential on the per-frame wide-lane kernels. Op counts are always
    /// exact; nanosecond columns need the `plan-profile` cargo feature.
    plan_profile_simd_cold_seq_n256: PlanOpProfile,
    /// The same breakdown on the SoA lockstep batch planner.
    plan_profile_batch_cold_seq_n256: PlanOpProfile,
    /// One measurement per (n, workers, path); every point also embeds its
    /// own `plan_profile`.
    points: Vec<RoutePoint>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_route.json");
    let repeats: usize = args.get(1).map_or(5, |s| s.parse().expect("repeats"));

    let mut points = Vec::new();
    let mut seq_fast = [0.0f64; 2]; // [n=256, n=1024]
    let mut seq_ref = [0.0f64; 2];
    let mut seq_warm_n256 = 0.0f64;
    let mut seq_cold_n256 = [0.0f64; 2]; // [simd-cold, batch-cold]
    let mut seq_cold_profiles: [PlanOpProfile; 2] = Default::default();
    for n in [64usize, 256, 1024] {
        for workers in [1usize, 4] {
            for fast in [true, false] {
                let p = measure_route_path(n, FRAMES, SEED, workers, fast, repeats);
                print_point(&p);
                if workers == 1 {
                    let slot = match n {
                        256 => Some(0),
                        1024 => Some(1),
                        _ => None,
                    };
                    if let Some(s) = slot {
                        if fast {
                            seq_fast[s] = p.frames_per_sec;
                        } else {
                            seq_ref[s] = p.frames_per_sec;
                        }
                    }
                }
                points.push(p);
            }
            for lockstep in [false, true] {
                let p = measure_cold_path(n, FRAMES, SEED, workers, lockstep, repeats);
                print_point(&p);
                if n == 256 && workers == 1 {
                    seq_cold_n256[lockstep as usize] = p.frames_per_sec;
                    seq_cold_profiles[lockstep as usize] = p.plan_profile.clone();
                }
                points.push(p);
            }
            for warm in [false, true] {
                let p = measure_replay_path(n, FRAMES, SEED, workers, DISTINCT, warm, repeats);
                print_point(&p);
                if n == 256 && workers == 1 && warm {
                    seq_warm_n256 = p.frames_per_sec;
                }
                points.push(p);
            }
        }
    }

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let report = RouteBenchReport {
        batch: FRAMES,
        seed: SEED,
        repeats,
        hardware_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        speedup_fast_vs_reference_seq_n256: ratio(seq_fast[0], seq_ref[0]),
        speedup_fast_vs_reference_seq_n1024: ratio(seq_fast[1], seq_ref[1]),
        speedup_warm_replay_vs_fast_seq_n256: ratio(seq_warm_n256, seq_fast[0]),
        speedup_batch_cold_vs_simd_cold_seq_n256: ratio(seq_cold_n256[1], seq_cold_n256[0]),
        plan_profile_simd_cold_seq_n256: seq_cold_profiles[0].clone(),
        plan_profile_batch_cold_seq_n256: seq_cold_profiles[1].clone(),
        points,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out_path, format!("{json}\n")).expect("write report");
    eprintln!(
        "wrote {out_path}: fast/reference n=256 = {:.2}x, n=1024 = {:.2}x, \
         warm-replay/fast n=256 = {:.2}x, batch-cold/simd-cold n=256 = {:.2}x",
        report.speedup_fast_vs_reference_seq_n256,
        report.speedup_fast_vs_reference_seq_n1024,
        report.speedup_warm_replay_vs_fast_seq_n256,
        report.speedup_batch_cold_vs_simd_cold_seq_n256,
    );
}

fn print_point(p: &RoutePoint) {
    eprintln!(
        "n={:5} workers={} path={:12}: {:>12.0} frames/s, {:>10.0} ns/frame, busy/wall {:.2}",
        p.n, p.workers, p.path, p.frames_per_sec, p.ns_per_frame, p.busy_over_wall
    );
}
