//! Seeded input generation for the workloads. Everything here runs
//! before any clock starts; the same seed gives the same inputs.

use brsmn_core::{
    canonicalize, plan_fingerprint, relabel_inputs, relabel_outputs, MulticastAssignment,
};
use brsmn_serve::{Trace, TraceRequest};
use brsmn_workloads::random::{random_multicast, RandomSpec};
use brsmn_workloads::sessions::{SessionConfig, SessionSim};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Frames per `Engine::route_batch` call.
pub const BATCH: usize = 16;

/// Network size of `cold-dense` and `churn-cache` (and of the per-level
/// probe, which sits beside the n = 256 gate-delay model).
pub const N_ENGINE: usize = 256;
/// Distinct dense frames cycled by `cold-dense` (the cache is off, so a
/// repeat costs exactly what a fresh frame does).
pub const DENSE_POOL: usize = 2048;

/// Plan-cache capacity (per tier) of `churn-cache`.
pub const CHURN_CACHE: usize = 128;
/// Recurring teleconference layouts, twice the cache capacity.
pub const CHURN_POOL: usize = 2 * CHURN_CACHE;
/// Zipf exponent of the draw over the recurring pool. With it the engine's
/// counters show about 52 % exact hits, 31 % canonical hits and 17 % misses,
/// close to the drawn 55/30/15 mix; at 1.3 so many mid-ranked layouts lost
/// their exact entries that the split was about 32/43/25.
pub const CHURN_ZIPF: f64 = 2.0;
/// Frames in one pass of the churn stream (cycled when a run needs more).
pub const CHURN_STREAM: usize = 8192;
/// Frame mix of the churn stream: verbatim repeats, relabeled repeats,
/// never-seen layouts (the rest).
pub const CHURN_VERBATIM: f64 = 0.55;
pub const CHURN_RELABELED: f64 = 0.30;

/// Tenants and plan-cache capacity of the serving front end.
pub const SERVE_TENANTS: u32 = 3;
pub const SERVE_CACHE: usize = 256;
/// Requests carved from a workload's frames for the serving front end;
/// one saturated `serve_trace` pass replays them all.
pub const SATURATED_REQUESTS: usize = 16_000;

/// A cycled stream of frames, consumed `BATCH` at a time.
pub struct Frames {
    pub asgs: Vec<MulticastAssignment>,
}

impl Frames {
    fn new(mut asgs: Vec<MulticastAssignment>) -> Self {
        asgs.truncate(asgs.len() / BATCH * BATCH);
        assert!(!asgs.is_empty(), "at least one batch of frames");
        Frames { asgs }
    }

    pub fn n(&self) -> usize {
        self.asgs[0].n()
    }

    /// Batches in one pass over the stream.
    fn batches(&self) -> usize {
        self.asgs.len() / BATCH
    }

    /// The frames of the `call`-th `route_batch` call.
    pub fn batch(&self, call: usize) -> &[MulticastAssignment] {
        let b = call % self.batches();
        &self.asgs[b * BATCH..(b + 1) * BATCH]
    }
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` fresh `RandomSpec::dense` frames of size `n`.
pub fn dense_frames(n: usize, count: usize, seed: u64) -> Frames {
    let mut rng = rng_for(seed, 1);
    Frames::new(
        (0..count)
            .map(|_| random_multicast(RandomSpec::dense(n), rng.gen()))
            .collect(),
    )
}

fn random_perm(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(rng);
    p
}

/// The `churn-cache` inputs: the recurring pool (hottest first; the first
/// `CHURN_CACHE` layouts pre-fill the cache) and the frame stream.
pub struct Churn {
    pub pool: Vec<MulticastAssignment>,
    pub frames: Frames,
}

/// Teleconference layouts as snapshots of one `SessionSim` at n = 256,
/// each a relabeling class of its own (so a never-seen layout cannot hit
/// the canonical tier by accident).
pub fn churn(seed: u64) -> Churn {
    let mut sim = SessionSim::new(SessionConfig::default_for(N_ENGINE), seed);
    for _ in 0..64 {
        sim.step();
    }
    let mut classes = HashSet::new();
    let mut fresh_layout = || loop {
        let (asg, _) = sim.step();
        if classes.insert(canonicalize(&asg).fingerprint()) {
            return asg;
        }
    };
    let pool: Vec<MulticastAssignment> = (0..CHURN_POOL).map(|_| fresh_layout()).collect();

    let weights: Vec<f64> = (1..=CHURN_POOL)
        .map(|k| (k as f64).powf(-CHURN_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut rng = rng_for(seed, 2);
    let zipf = |rng: &mut StdRng| {
        let u: f64 = rng.gen();
        cdf.partition_point(|&c| c < u).min(CHURN_POOL - 1)
    };
    let asgs = (0..CHURN_STREAM)
        .map(|_| {
            let u: f64 = rng.gen();
            if u < CHURN_VERBATIM {
                pool[zipf(&mut rng)].clone()
            } else if u < CHURN_VERBATIM + CHURN_RELABELED {
                let base = &pool[zipf(&mut rng)];
                let outs = random_perm(N_ENGINE, &mut rng);
                let ins = random_perm(N_ENGINE, &mut rng);
                relabel_inputs(&relabel_outputs(base, &outs), &ins)
            } else {
                fresh_layout()
            }
        })
        .collect();
    Churn {
        pool,
        frames: Frames::new(asgs),
    }
}

/// Serve traffic carved from engine frames: every active input of a frame
/// becomes one `source → dests` request, tenants taken round-robin. The
/// requests carry no deadline, so a stall of the machine shows as latency
/// rather than as shed requests.
pub fn trace_from_frames(frames: &Frames, seed: u64, count: usize) -> Trace {
    let mut requests = Vec::with_capacity(count);
    'outer: for (tick, asg) in frames.asgs.iter().enumerate() {
        for (source, dests) in asg.iter().filter(|(_, d)| !d.is_empty()) {
            if requests.len() == count {
                break 'outer;
            }
            requests.push(TraceRequest {
                tick: tick as u64,
                source,
                dests: dests.to_vec(),
                tenant: Some(requests.len() as u32 % SERVE_TENANTS),
                deadline: None,
            });
        }
    }
    Trace {
        n: frames.n(),
        seed,
        requests,
    }
}

/// Distinct exact fingerprints in `frames` (reported beside the hit ratios).
pub fn distinct_frames(frames: &Frames) -> usize {
    frames
        .asgs
        .iter()
        .map(plan_fingerprint)
        .collect::<HashSet<_>>()
        .len()
}

/// Seeded exponential inter-arrival offsets (ns from the start) of a
/// Poisson process at `rate` per second, covering `seconds`.
pub fn poisson_offsets(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = rng_for(seed, 3);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t > horizon {
            return out;
        }
        out.push(t as u64);
    }
}
