//! Batched, multi-threaded routing engine with per-stage instrumentation.
//!
//! The sequential router in [`crate::brsmn`] answers "is the construction
//! correct?". This module answers "how fast can a software realization go?"
//! by exploiting the frame-level parallelism the BRSMN has by design:
//! distinct multicast assignments ("frames") share no state, so a batch is
//! spread across a scoped-thread worker pool ([`brsmn_rbn::par::par_map`]).
//! Output order is deterministic: results are reassembled by frame index.
//!
//! [`Engine::route_batch`] has one driver. Pass A probes the plan cache
//! once per frame, pass B plans the cache misses — in lockstep SoA chunks
//! through the [`crate::BatchPlanner`] when a chunk is at least
//! [`crate::MIN_SOA_CHUNK`] frames wide, per frame on the zero-allocation
//! fast path otherwise — and pass C replays the hits. Every schedule is
//! **bit-identical** to routing the frames one by one with [`Brsmn::route`];
//! `tests/engine_equivalence.rs` and `brsmn-bench`'s `simd_equivalence`
//! pin this down.
//!
//! Every route is instrumented by a [`StageTimer`]: per-level wall time,
//! blocks routed, switch settings computed, and planner sweep passes, rolled
//! up into an [`EngineStats`] that serializes to JSON for the benchmark
//! harness (`brsmn-bench`) and the `brsmn-cli route --parallel --stats`
//! path.
//!
//! # Example
//!
//! ```
//! use brsmn_core::{Engine, EngineConfig, MulticastAssignment};
//!
//! let batch: Vec<MulticastAssignment> = (0..8)
//!     .map(|s| {
//!         let mut sets = vec![Vec::new(); 8];
//!         sets[s % 8] = (0..8).collect(); // one broadcast per frame
//!         MulticastAssignment::from_sets(8, sets).unwrap()
//!     })
//!     .collect();
//!
//! let engine = Engine::with_config(8, EngineConfig::batch(2)).unwrap();
//! let out = engine.route_batch(&batch);
//! assert_eq!(out.results.len(), 8);
//! assert!(out.results.iter().all(|r| r.is_ok()));
//! assert_eq!(out.stats.frames_ok, 8);
//! ```

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::batch::{with_thread_batch_planner, MIN_SOA_CHUNK};
use crate::brsmn::{final_switch, Brsmn};
use crate::bsn::Bsn;
use crate::canonical::{canonicalize, Canonicalized};
use crate::error::CoreError;
use crate::fastpath::{
    route_assignment_fast_buffered, route_assignment_replay_buffered,
    route_assignment_replay_permuted, with_thread_scratch, RouteScratch,
};
use crate::payload::{RoutePayload, SelfRoutedMsg};
use crate::plancache::{plan_fingerprint, CanonicalHit, CapturedPlan, PlanCache};
use crate::verify::{verify_routing, FaultReport};
use brsmn_rbn::par;
use brsmn_rbn::PlanOpProfile;
use brsmn_switch::{Line, Tag};
use brsmn_topology::log2_exact;
use serde::{Deserialize, Serialize};

/// Planner tree sweeps per BSN: scatter (forward + backward), ε-divide
/// (forward + backward), bit sort (forward + backward).
const SWEEPS_PER_BSN: u64 = 6;

/// How the [`Engine`] parallelizes and whether it caches plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker threads for frame-level parallelism; `0` = one per hardware
    /// thread.
    pub workers: usize,
    /// Capacity (in captured plans) of the shared [`PlanCache`] consulted
    /// before planning each frame; `0` disables the cache. A hit replays
    /// the snapshotted switch-setting planes bit-identically at
    /// execution-only cost; a miss plans as usual while capturing the plan
    /// for next time. Only [`Engine::route_batch`] consults the cache — the
    /// self-routing model always plans fresh.
    pub plan_cache: usize,
}

impl Default for EngineConfig {
    /// Frame-level parallelism on every hardware thread, no plan cache —
    /// the right default for batches.
    fn default() -> Self {
        EngineConfig::batch(0)
    }
}

impl EngineConfig {
    /// Frame-level parallelism across `workers` threads (`0` = auto).
    /// Best when the batch is large relative to the worker count.
    pub fn batch(workers: usize) -> Self {
        EngineConfig {
            workers,
            plan_cache: 0,
        }
    }

    /// Sequential configuration: one worker. The engine then matches
    /// [`Brsmn::route`] exactly while still collecting [`EngineStats`].
    pub fn sequential() -> Self {
        EngineConfig::batch(1)
    }

    /// Enables the plan-capture cache with room for `capacity` captured
    /// plans (see [`EngineConfig::plan_cache`]; `0` disables).
    pub fn with_plan_cache(mut self, capacity: usize) -> Self {
        self.plan_cache = capacity;
        self
    }
}

/// Wall time and work counters for one BSN level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStats {
    /// BSN blocks routed at this level (summed over the batch).
    pub blocks: u64,
    /// Wall time spent in those blocks, nanoseconds, summed over the
    /// workers, so with several workers it can exceed elapsed wall time.
    pub nanos: u64,
}

/// Accumulates per-stage instrumentation during a route.
///
/// One timer lives on each worker; [`StageTimer::merge`] folds them into
/// the batch total. Exposed so external drivers (benches, the CLI) can
/// instrument custom routing loops.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimer {
    /// Per-level counters, index `i` = BSN level `i + 1`.
    pub levels: Vec<LevelStats>,
    /// 2×2 switches set in the final stage.
    pub final_switches: u64,
    /// Wall time in the final stage, nanoseconds.
    pub final_nanos: u64,
    /// Total 2×2 switch settings computed (both RBNs of every BSN, plus the
    /// final stage).
    pub switch_settings: u64,
    /// Planner tree sweeps executed (forward/backward waves of the scatter,
    /// ε-divide and bit-sort planners).
    pub sweep_passes: u64,
    /// Per-op planning profile: what the sweeps spent their time on. Op
    /// counts are always exact; nanosecond totals are nonzero only when the
    /// `plan-profile` feature is compiled in.
    pub plan_profile: PlanOpProfile,
}

impl StageTimer {
    /// A fresh, empty timer.
    pub fn new() -> Self {
        StageTimer::default()
    }

    /// Records one BSN of `size` lines routed at 1-based `level`.
    pub fn record_bsn(&mut self, level: usize, size: usize, elapsed: Duration) {
        if self.levels.len() < level {
            self.levels.resize(level, LevelStats::default());
        }
        let slot = &mut self.levels[level - 1];
        slot.blocks += 1;
        slot.nanos += elapsed.as_nanos() as u64;
        // Scatter RBN + quasisorting RBN: 2 · (size/2) · log2(size) settings.
        self.switch_settings += (size as u64) * u64::from(log2_exact(size));
        self.sweep_passes += SWEEPS_PER_BSN;
    }

    /// Records `blocks` BSNs of `size` lines **replayed** from a captured
    /// plan at 1-based `level`, taking `elapsed` in total (the replay kernel
    /// records a whole level at once). The replayed settings count toward
    /// [`StageTimer::switch_settings`] (they were applied to the fabric) but
    /// not toward [`StageTimer::sweep_passes`] — no planner sweep ran, which
    /// is exactly the work the cache elides.
    pub fn record_bsn_replay(&mut self, level: usize, blocks: u64, size: usize, elapsed: Duration) {
        if self.levels.len() < level {
            self.levels.resize(level, LevelStats::default());
        }
        let slot = &mut self.levels[level - 1];
        slot.blocks += blocks;
        slot.nanos += elapsed.as_nanos() as u64;
        self.switch_settings += blocks * (size as u64) * u64::from(log2_exact(size));
    }

    /// Records one final-stage 2×2 switch.
    pub fn record_final(&mut self, elapsed: Duration) {
        self.record_final_stage(1, elapsed);
    }

    /// Records `switches` final-stage 2×2 switches taking `elapsed` in total.
    pub fn record_final_stage(&mut self, switches: u64, elapsed: Duration) {
        self.final_switches += switches;
        self.final_nanos += elapsed.as_nanos() as u64;
        self.switch_settings += switches;
    }

    /// Folds another timer (another worker's) into this one.
    pub fn merge(&mut self, other: &StageTimer) {
        if self.levels.len() < other.levels.len() {
            self.levels.resize(other.levels.len(), LevelStats::default());
        }
        for (slot, o) in self.levels.iter_mut().zip(&other.levels) {
            slot.blocks += o.blocks;
            slot.nanos += o.nanos;
        }
        self.final_switches += other.final_switches;
        self.final_nanos += other.final_nanos;
        self.switch_settings += other.switch_settings;
        self.sweep_passes += other.sweep_passes;
        self.plan_profile.merge(&other.plan_profile);
    }
}

/// Aggregate instrumentation for one batch route, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Network size.
    pub n: usize,
    /// Frames in the batch.
    pub batch: usize,
    /// Worker threads actually used for frame-level parallelism.
    pub workers: usize,
    /// Frames routed successfully.
    pub frames_ok: usize,
    /// Frames that returned an error (or, on the resilient path, exhausted
    /// the whole retry ladder without producing a verified result).
    pub frames_failed: usize,
    /// Frames whose primary attempt failed verification but that recovered
    /// on the reference-router retry
    /// ([`Engine::route_batch_resilient`]; always 0 on the plain paths).
    pub frames_retried: usize,
    /// Frames that recovered only via the degraded re-plan stage of the
    /// retry ladder (always 0 on the plain paths).
    pub frames_degraded: usize,
    /// Per-stage counters summed over all frames and workers.
    pub stages: StageTimer,
    /// End-to-end wall time for the whole batch, nanoseconds.
    pub wall_nanos: u64,
    /// Sum of per-frame route times, nanoseconds. `busy_nanos / wall_nanos`
    /// approximates the achieved parallel speedup.
    pub busy_nanos: u64,
    /// Frames routed on the zero-allocation fast path: every frame of
    /// [`Engine::route_batch`] but those rejected for a wrong size, and 0
    /// on the self-routing and resilient paths.
    pub fastpath_frames: u64,
    /// Largest per-worker scratch-arena footprint observed, bytes (0 on the
    /// reference path).
    pub scratch_bytes: u64,
    /// Frames served by replaying a captured plan from the [`PlanCache`] —
    /// exact and canonical tiers combined (0 when
    /// [`EngineConfig::plan_cache`] is 0).
    pub plan_hits: u64,
    /// Fast-path frames that missed both cache tiers and planned fresh
    /// while capturing (equals `fastpath_frames` when the cache is cold,
    /// 0 with the cache off).
    pub plan_misses: u64,
    /// The subset of `plan_hits` served by the exact tier (the stored
    /// assignment equalled the frame's).
    pub plan_exact_hits: u64,
    /// The subset of `plan_hits` served by the canonical tier: the frame
    /// was a *relabeling* of a cached plan's assignment, replayed through
    /// the permuted executor.
    pub plan_canonical_hits: u64,
    /// Captured plans evicted from the cache during this batch (LRU
    /// pressure across both tiers; 0 until the cache overflows its
    /// capacity).
    pub plan_evictions: u64,
    /// Resident footprint of the plan cache at the end of the batch, bytes
    /// (packed setting planes plus keys; 0 with the cache off).
    pub plan_cache_bytes: u64,
    /// Plans the cache was warm-started with from a persisted snapshot
    /// (cumulative over the cache's lifetime; 0 without
    /// `PlanCache::load_snapshot`).
    pub plan_snapshot_loaded: u64,
    /// Width, in `u64` words, of the SIMD lane blocks the fast path's
    /// plane sweeps ran on ([`brsmn_rbn::LANES`]). 0 on the reference
    /// path, whose array-based planners don't vectorize. Merges by max.
    pub simd_lane_width: u64,
    /// Frames planned in lockstep SoA chunks by the
    /// [`crate::BatchPlanner`]: the cache misses that fell in a chunk of
    /// at least [`crate::MIN_SOA_CHUNK`] frames (a subset of `plan_misses`
    /// with the cache on, of `fastpath_frames` always). Misses in narrower
    /// chunks, and frames of a lockstep chunk that failed and fell back to
    /// per-frame planning, are not counted.
    pub batch_planned_frames: u64,
    /// Live member nodes of the distributed control plane that striped
    /// this batch (`brsmn-cluster`'s `DistributedEngine`; 0 for
    /// single-process engines). Merges by max.
    pub cluster_nodes: u64,
    /// Control-plane messages delivered so far by the cluster's virtual
    /// network (cumulative over the cluster's lifetime, like
    /// `plan_snapshot_loaded`; 0 single-process). Merges by max.
    pub cluster_messages: u64,
    /// Control-plane messages lost to simulated drops or partitions
    /// (cumulative; 0 single-process). Merges by max.
    pub cluster_messages_dropped: u64,
    /// Membership epoch the cluster had agreed on when the batch routed
    /// (0 single-process and before any reconfiguration). Merges by max.
    pub cluster_epoch: u64,
}

impl EngineStats {
    /// Frames routed per second of wall time.
    pub fn frames_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.batch as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// `busy / wall` — effective parallelism achieved by the batch.
    pub fn speedup(&self) -> f64 {
        if self.wall_nanos == 0 {
            1.0
        } else {
            self.busy_nanos as f64 / self.wall_nanos as f64
        }
    }

    /// An empty stats record for an `n`-port fabric — the identity of
    /// [`EngineStats::merge`], and the base every driver's record is built
    /// from by struct update.
    pub fn empty(n: usize) -> Self {
        EngineStats {
            n,
            batch: 0,
            workers: 0,
            frames_ok: 0,
            frames_failed: 0,
            frames_retried: 0,
            frames_degraded: 0,
            stages: StageTimer::new(),
            wall_nanos: 0,
            busy_nanos: 0,
            fastpath_frames: 0,
            scratch_bytes: 0,
            plan_hits: 0,
            plan_misses: 0,
            plan_exact_hits: 0,
            plan_canonical_hits: 0,
            plan_evictions: 0,
            plan_cache_bytes: 0,
            plan_snapshot_loaded: 0,
            simd_lane_width: 0,
            batch_planned_frames: 0,
            cluster_nodes: 0,
            cluster_messages: 0,
            cluster_messages_dropped: 0,
            cluster_epoch: 0,
        }
    }

    /// Folds another stats record (a shard's, or a later round's) into this
    /// one.
    ///
    /// Work counters (`batch`, frame outcomes, stage counters, `busy_nanos`,
    /// `fastpath_frames`, plan-cache hit/miss/eviction tallies) and
    /// `workers` add; `scratch_bytes` and `plan_cache_bytes` take the max
    /// (arenas are per worker and shards share one cache, so adding would
    /// double-count); `wall_nanos` takes the max,
    /// which is exact for shards running concurrently — drivers that know
    /// the true end-to-end wall time (e.g. [`ShardedEngine::route_batch`],
    /// the serving loop) overwrite it after merging.
    pub fn merge(&mut self, other: &EngineStats) {
        debug_assert_eq!(self.n, other.n, "merging stats across network sizes");
        self.batch += other.batch;
        self.workers += other.workers;
        self.frames_ok += other.frames_ok;
        self.frames_failed += other.frames_failed;
        self.frames_retried += other.frames_retried;
        self.frames_degraded += other.frames_degraded;
        self.stages.merge(&other.stages);
        self.wall_nanos = self.wall_nanos.max(other.wall_nanos);
        self.busy_nanos += other.busy_nanos;
        self.fastpath_frames += other.fastpath_frames;
        self.scratch_bytes = self.scratch_bytes.max(other.scratch_bytes);
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.plan_exact_hits += other.plan_exact_hits;
        self.plan_canonical_hits += other.plan_canonical_hits;
        self.plan_evictions += other.plan_evictions;
        self.plan_cache_bytes = self.plan_cache_bytes.max(other.plan_cache_bytes);
        // Snapshot loads are a cache-lifetime tally shared by every shard
        // holding the cache, so max (like the footprint), not sum.
        self.plan_snapshot_loaded = self.plan_snapshot_loaded.max(other.plan_snapshot_loaded);
        // The lane width is a property of the code path, not a tally.
        self.simd_lane_width = self.simd_lane_width.max(other.simd_lane_width);
        self.batch_planned_frames += other.batch_planned_frames;
        // Cluster figures are cluster-wide lifetime values (every node's
        // stats record reports the same shared control plane), so max.
        self.cluster_nodes = self.cluster_nodes.max(other.cluster_nodes);
        self.cluster_messages = self.cluster_messages.max(other.cluster_messages);
        self.cluster_messages_dropped = self
            .cluster_messages_dropped
            .max(other.cluster_messages_dropped);
        self.cluster_epoch = self.cluster_epoch.max(other.cluster_epoch);
    }
}

/// Result of routing a batch: per-frame outcomes (in input order) plus the
/// aggregated instrumentation.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// One result per input frame, order preserved.
    pub results: Vec<Result<RoutingResult, CoreError>>,
    /// Aggregated per-stage instrumentation.
    pub stats: EngineStats,
}

/// How a frame fared on the resilient path's verify → retry → degrade
/// ladder ([`Engine::route_batch_resilient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameOutcome {
    /// The primary attempt verified — the fabric behaved.
    Ok,
    /// The primary attempt failed verification; the reference-router retry
    /// produced a verified result.
    Retried,
    /// Only the degraded re-plan (faulty block avoided) produced a verified
    /// result.
    Degraded,
    /// Every stage of the ladder failed; the frame's result is an error.
    Failed,
}

/// A router that the engine can drive through its verify → retry → degrade
/// ladder ([`Engine::route_batch_resilient`]).
///
/// The three stages mirror the degradation policy of the fault-tolerance
/// subsystem: a fast primary attempt, a retry on the reference (allocating)
/// router — which clears transient upsets — and a final re-plan that avoids
/// the faulty region using the compact-sequence freedom of Lemmas 1–5
/// (rotating the scatter target `s`). Implementations that have no fault
/// mask (e.g. a healthy [`Brsmn`]) return `None` from
/// [`ResilientRouter::route_degraded`].
pub trait ResilientRouter {
    /// The primary (fast-path) attempt.
    fn route_primary(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError>;

    /// The retry attempt after the primary result failed verification.
    fn route_retry(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError>;

    /// The degraded re-plan guided by the verifier's localization; `None`
    /// when the router has no way to steer around the reported region.
    fn route_degraded(
        &self,
        asg: &MulticastAssignment,
        report: &FaultReport,
    ) -> Option<Result<RoutingResult, CoreError>>;
}

/// A healthy network is trivially resilient: the fast path is primary, the
/// reference router is the retry, and there is no fault mask to degrade
/// around. This is the zero-false-positive control of the fault campaign.
impl ResilientRouter for Brsmn {
    fn route_primary(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.route(asg)
    }

    fn route_retry(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.route_reference(asg)
    }

    fn route_degraded(
        &self,
        _asg: &MulticastAssignment,
        _report: &FaultReport,
    ) -> Option<Result<RoutingResult, CoreError>> {
        None
    }
}

/// The batched, multi-threaded BRSMN routing engine.
#[derive(Debug, Clone)]
pub struct Engine {
    net: Brsmn,
    cfg: EngineConfig,
    plan_cache: Option<Arc<PlanCache>>,
}

/// One frame's slot in a batch route: `None` until a pass routes it.
type Slot = Option<Result<RoutingResult, CoreError>>;

/// Pass-A verdict for a frame that does not plan in pass B.
enum FrameProbe {
    /// Replay this already-looked-up exact-tier plan.
    ExactHit(Arc<CapturedPlan>),
    /// Replay this canonical-tier hit through the permuted executor.
    CanonHit(CanonicalHit),
    /// An earlier miss of this batch claimed the frame's fingerprint or
    /// relabeling class: probe again in pass C, after pass B's inserts
    /// (it then hits what the miss inserted — or re-plans if that miss
    /// failed, exactly as routing the frames one call each would).
    Deferred,
}

/// A pass-A cache miss: the frame index plus, when a cache is configured,
/// the fingerprint and canonical form its inserts are keyed by.
type Miss = (usize, Option<(u64, Canonicalized)>);

/// Timers and counters one worker's share of a batch adds to
/// [`EngineStats`].
#[derive(Default)]
struct Tally {
    timer: StageTimer,
    busy_nanos: u64,
    scratch_bytes: u64,
    exact_hits: u64,
    canonical_hits: u64,
    misses: u64,
    evictions: u64,
    batch_planned: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.timer.merge(&other.timer);
        self.busy_nanos += other.busy_nanos;
        self.scratch_bytes = self.scratch_bytes.max(other.scratch_bytes);
        self.exact_hits += other.exact_hits;
        self.canonical_hits += other.canonical_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.batch_planned += other.batch_planned;
    }
}

/// Inserts a fresh capture under its exact key and — since one plan serves
/// its whole relabeling class — under its canonical key. Returns the
/// evictions the two inserts caused.
fn insert_capture(
    cache: &PlanCache,
    fp: u64,
    asg: &MulticastAssignment,
    canon: &Canonicalized,
    plan: CapturedPlan,
) -> u64 {
    let plan = Arc::new(plan);
    u64::from(cache.insert(fp, asg, Arc::clone(&plan)))
        + u64::from(cache.insert_canonical(canon, plan))
}

/// Splits `batch` into frames of the engine's size, which leave their slot
/// `None`, and frames of any other size, whose slot gets a typed error.
/// Returns the slots and the number of frames to route.
fn reject_wrong_size(n: usize, batch: &[MulticastAssignment]) -> (Vec<Slot>, usize) {
    let mut routed = 0;
    let slots = batch
        .iter()
        .enumerate()
        .map(|(i, asg)| {
            if asg.n() == n {
                routed += 1;
                None
            } else {
                Some(Err(CoreError::Config(format!(
                    "frame {i} is an assignment of size {}, but the engine routes size {n}",
                    asg.n()
                ))))
            }
        })
        .collect();
    (slots, routed)
}

/// Unwraps the filled slots and counts `(ok, failed)` frames.
fn collect_results(slots: Vec<Slot>) -> (Vec<Result<RoutingResult, CoreError>>, usize, usize) {
    let results: Vec<_> = slots
        .into_iter()
        .map(|s| s.expect("every frame is routed or rejected exactly once"))
        .collect();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let failed = results.len() - ok;
    (results, ok, failed)
}

impl Engine {
    /// An engine over an `n × n` BRSMN with the default (batch) config.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        Engine::with_config(n, EngineConfig::default())
    }

    /// An engine with an explicit [`EngineConfig`]. When
    /// [`EngineConfig::plan_cache`] is nonzero the engine builds its own
    /// cache; use [`Engine::share_plan_cache`] to pool one across engines.
    pub fn with_config(n: usize, cfg: EngineConfig) -> Result<Self, CoreError> {
        let plan_cache = if cfg.plan_cache > 0 {
            Some(Arc::new(PlanCache::new(cfg.plan_cache)))
        } else {
            None
        };
        Ok(Engine {
            net: Brsmn::new(n)?,
            cfg,
            plan_cache,
        })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The plan cache this engine consults, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Replaces this engine's plan cache with a shared one (captured plans
    /// are pure functions of the assignment, so sharing across engines —
    /// e.g. the shards of a [`ShardedEngine`] — is always sound and lets one
    /// shard's capture serve another's replay).
    pub fn share_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = Some(cache);
    }

    /// Routes a batch of frames with the **semantic** message model on the
    /// zero-allocation fast path, each worker reusing its thread-local
    /// arenas.
    ///
    /// Results come back in input order and are bit-identical to calling
    /// [`Brsmn::route`] on each frame sequentially. A frame whose size is
    /// not the engine's gets [`CoreError::Config`] in its slot and never
    /// reaches the cache or a planner. The driver runs three passes, which
    /// only reorder *when* each frame runs, never what it computes — the
    /// results, cache tallies and captured plans equal those of routing
    /// the frames one `route_batch` call each:
    ///
    /// * **Pass A** (sequential) probes the [`PlanCache`], if configured,
    ///   once per tier per frame: the assignment fingerprint first (an
    ///   exact hit replays the captured setting planes verbatim), then the
    ///   canonical relabeling class (a canonical hit replays a class
    ///   member's plan through the permuted executor). A frame whose
    ///   fingerprint or class an earlier miss of this batch already claimed
    ///   is *deferred*, so no plan is computed twice within the batch.
    /// * **Pass B** spreads the misses over the workers in chunks of up to
    ///   [`crate::MAX_BATCH_FRAMES`] frames. A chunk of at least
    ///   [`crate::MIN_SOA_CHUNK`] frames plans in lockstep through a
    ///   thread-local [`crate::BatchPlanner`]; a narrower one plans frame
    ///   by frame. With a cache, each plan is captured and inserted into
    ///   both tiers. A lockstep chunk that fails re-plans every one of its
    ///   frames one by one, so error values stay byte-identical to scalar
    ///   routing.
    /// * **Pass C** replays the hits and routes the deferred frames
    ///   through a fresh probe of the (now warmed) cache.
    pub fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));
        let cache = self.plan_cache.as_deref();
        let wall_start = Instant::now();
        let (mut slots, routed) = reject_wrong_size(n, batch);

        // Pass A: classify every frame with at most one probe per cache
        // tier. A miss keeps its fingerprint and canonical form as the keys
        // of its inserts.
        let mut probes: Vec<(usize, FrameProbe)> = Vec::new();
        let mut misses: Vec<Miss> = Vec::new();
        let mut claimed_fp: HashSet<u64> = HashSet::new();
        let mut claimed_class: HashSet<u64> = HashSet::new();
        for (i, asg) in batch.iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            let Some(cache) = cache else {
                misses.push((i, None));
                continue;
            };
            let fp = plan_fingerprint(asg);
            if claimed_fp.contains(&fp) {
                probes.push((i, FrameProbe::Deferred));
                continue;
            }
            if let Some(plan) = cache.lookup(fp, asg) {
                probes.push((i, FrameProbe::ExactHit(plan)));
                continue;
            }
            let canon = canonicalize(asg);
            if claimed_class.contains(&canon.fingerprint()) {
                probes.push((i, FrameProbe::Deferred));
                continue;
            }
            if let Some(hit) = cache.lookup_canonical(&canon) {
                probes.push((i, FrameProbe::CanonHit(hit)));
                continue;
            }
            claimed_fp.insert(fp);
            claimed_class.insert(canon.fingerprint());
            misses.push((i, Some((fp, canon))));
        }

        // Pass B: plan the misses in balanced chunks, one or more per
        // worker, none wider than the SoA frame cap.
        let chunk_count = misses
            .len()
            .div_ceil(crate::MAX_BATCH_FRAMES)
            .max(workers);
        let chunk_size = misses.len().div_ceil(chunk_count).max(1);
        let chunks: Vec<&[Miss]> = misses.chunks(chunk_size).collect();
        let planned = par::par_map(&chunks, workers, |_, chunk| {
            let t0 = Instant::now();
            let mut tally = Tally::default();
            let mut entries = Vec::with_capacity(chunk.len());
            let soa = chunk.len() >= MIN_SOA_CHUNK
                && self.plan_chunk_soa(batch, chunk, &mut tally, &mut entries).is_ok();
            if !soa {
                // Per-frame planning; after a failed lockstep chunk, the
                // partial timer and results are discarded so nothing is
                // counted twice.
                tally = Tally::default();
                entries.clear();
                with_thread_scratch(n, |scratch| {
                    for (i, keys) in chunk.iter() {
                        let keys = keys.as_ref().map(|(fp, canon)| (*fp, canon));
                        let r = self.plan_one(&batch[*i], keys, scratch, &mut tally);
                        entries.push((*i, r));
                    }
                    tally.scratch_bytes = scratch.footprint_bytes() as u64;
                });
            }
            tally.busy_nanos = t0.elapsed().as_nanos() as u64;
            (entries, tally)
        });

        // Pass C: replay the hits; deferred frames re-probe the (now
        // warmed) cache.
        let replayed = par::par_map(&probes, workers, |_, (i, probe)| {
            let t0 = Instant::now();
            let mut tally = Tally::default();
            let asg = &batch[*i];
            let r = with_thread_scratch(n, |scratch| {
                let r = match probe {
                    FrameProbe::ExactHit(plan) => {
                        tally.exact_hits = 1;
                        self.replay_exact(asg, plan, scratch, &mut tally.timer)
                    }
                    FrameProbe::CanonHit(hit) => {
                        tally.canonical_hits = 1;
                        self.replay_canonical(asg, hit, scratch, &mut tally.timer)
                    }
                    FrameProbe::Deferred => self.route_frame_cached(asg, scratch, &mut tally),
                };
                tally.scratch_bytes = scratch.footprint_bytes() as u64;
                r
            });
            tally.busy_nanos = t0.elapsed().as_nanos() as u64;
            (*i, r, tally)
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut total = Tally::default();
        for (entries, tally) in planned {
            total.merge(&tally);
            for (i, r) in entries {
                slots[i] = Some(r);
            }
        }
        for (i, r, tally) in replayed {
            total.merge(&tally);
            slots[i] = Some(r);
        }
        let (results, frames_ok, frames_failed) = collect_results(slots);

        BatchOutput {
            results,
            stats: EngineStats {
                batch: batch.len(),
                workers,
                frames_ok,
                frames_failed,
                stages: total.timer,
                wall_nanos,
                busy_nanos: total.busy_nanos,
                fastpath_frames: routed as u64,
                scratch_bytes: total.scratch_bytes,
                plan_hits: total.exact_hits + total.canonical_hits,
                plan_misses: total.misses,
                plan_exact_hits: total.exact_hits,
                plan_canonical_hits: total.canonical_hits,
                plan_evictions: total.evictions,
                plan_cache_bytes: cache.map_or(0, |c| c.footprint_bytes() as u64),
                plan_snapshot_loaded: cache.map_or(0, |c| c.stats().snapshot_loaded),
                simd_lane_width: brsmn_rbn::LANES as u64,
                batch_planned_frames: total.batch_planned,
                ..EngineStats::empty(n)
            },
        }
    }

    /// Plans one chunk of misses in lockstep through this thread's
    /// [`crate::BatchPlanner`], inserting every capture into the cache if
    /// one is configured. All or nothing: on the first frame error nothing
    /// is inserted and the error returns.
    fn plan_chunk_soa(
        &self,
        batch: &[MulticastAssignment],
        chunk: &[Miss],
        tally: &mut Tally,
        entries: &mut Vec<(usize, Result<RoutingResult, CoreError>)>,
    ) -> Result<(), CoreError> {
        let n = self.net.n();
        let cache = self.plan_cache.as_deref();
        with_thread_batch_planner(n, chunk.len(), |bp| {
            let mut refs: [&MulticastAssignment; crate::MAX_BATCH_FRAMES] =
                [&batch[chunk[0].0]; crate::MAX_BATCH_FRAMES];
            for (k, &(i, _)) in chunk.iter().enumerate() {
                refs[k] = &batch[i];
            }
            let refs = &refs[..chunk.len()];
            match cache {
                None => bp.route_frames(self.net.wiring(), refs, &mut tally.timer, None)?,
                Some(cache) => {
                    let mut caps = Vec::with_capacity(chunk.len());
                    for _ in 0..chunk.len() {
                        caps.push(CapturedPlan::new(n)?);
                    }
                    bp.route_frames(self.net.wiring(), refs, &mut tally.timer, Some(&mut caps))?;
                    for ((i, keys), plan) in chunk.iter().zip(caps) {
                        if let Some((fp, canon)) = keys {
                            tally.evictions += insert_capture(cache, *fp, &batch[*i], canon, plan);
                        }
                    }
                    // Misses are a cache statistic: without a cache there
                    // is nothing to miss.
                    tally.misses += chunk.len() as u64;
                }
            }
            entries.extend(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(k, &(i, _))| (i, Ok(bp.frame_result(k)))),
            );
            tally.batch_planned += chunk.len() as u64;
            tally.scratch_bytes = bp.footprint_bytes() as u64;
            Ok(())
        })
    }

    /// Plans one frame on the per-frame fast path. With `keys` (the
    /// frame's fingerprint and canonical form, present iff a cache is
    /// configured) the plan is captured and inserted into both cache tiers,
    /// and the frame counts as a miss.
    fn plan_one(
        &self,
        asg: &MulticastAssignment,
        keys: Option<(u64, &Canonicalized)>,
        scratch: &mut RouteScratch,
        tally: &mut Tally,
    ) -> Result<RoutingResult, CoreError> {
        let n = self.net.n();
        let wiring = self.net.wiring();
        let timer = Some(&mut tally.timer);
        match (self.plan_cache.as_deref(), keys) {
            (Some(cache), Some((fp, canon))) => {
                tally.misses += 1;
                let mut plan = CapturedPlan::new(n)?;
                let r = route_assignment_fast_buffered(
                    n,
                    wiring,
                    asg,
                    scratch,
                    None,
                    timer,
                    Some(&mut plan),
                );
                if r.is_ok() {
                    tally.evictions += insert_capture(cache, fp, asg, canon, plan);
                }
                r
            }
            _ => route_assignment_fast_buffered(n, wiring, asg, scratch, None, timer, None),
        }
    }

    /// Replays an exact-tier hit.
    fn replay_exact(
        &self,
        asg: &MulticastAssignment,
        plan: &CapturedPlan,
        scratch: &mut RouteScratch,
        timer: &mut StageTimer,
    ) -> Result<RoutingResult, CoreError> {
        route_assignment_replay_buffered(
            self.net.n(),
            self.net.wiring(),
            asg,
            plan,
            scratch,
            None,
            Some(timer),
        )
    }

    /// Replays a canonical-tier hit through the permuted executor.
    fn replay_canonical(
        &self,
        asg: &MulticastAssignment,
        hit: &CanonicalHit,
        scratch: &mut RouteScratch,
        timer: &mut StageTimer,
    ) -> Result<RoutingResult, CoreError> {
        route_assignment_replay_permuted(
            self.net.n(),
            self.net.wiring(),
            asg,
            &hit.plan,
            &hit.input_map,
            &hit.output_map,
            scratch,
            Some(timer),
        )
    }

    /// Routes one deferred frame through a fresh probe of the cache (which
    /// pass B configured): exact-tier replay, then canonical-tier permuted
    /// replay, then fresh planning with capture and two-tier insertion.
    fn route_frame_cached(
        &self,
        asg: &MulticastAssignment,
        scratch: &mut RouteScratch,
        tally: &mut Tally,
    ) -> Result<RoutingResult, CoreError> {
        let cache = self
            .plan_cache
            .as_deref()
            .expect("only a cache defers frames");
        let fp = plan_fingerprint(asg);
        if let Some(plan) = cache.lookup(fp, asg) {
            tally.exact_hits += 1;
            return self.replay_exact(asg, &plan, scratch, &mut tally.timer);
        }
        let canon = canonicalize(asg);
        if let Some(hit) = cache.lookup_canonical(&canon) {
            tally.canonical_hits += 1;
            return self.replay_canonical(asg, &hit, scratch, &mut tally.timer);
        }
        self.plan_one(asg, Some((fp, &canon)), scratch, tally)
    }

    /// Routes a batch with the **self-routing** message model (messages
    /// reduced to `SEQ` tag streams before entering the network). A frame
    /// whose size is not the engine's gets [`CoreError::Config`] in its
    /// slot, as in [`Engine::route_batch`].
    pub fn route_batch_self_routing(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        self.route_batch_with(batch, |n, src, dests| {
            SelfRoutedMsg::prepare(n, src, dests)
        })
    }

    /// Routes one frame, returning its result and instrumentation (a
    /// one-frame [`Engine::route_batch`]).
    pub fn route_one(
        &self,
        asg: &MulticastAssignment,
    ) -> (Result<RoutingResult, CoreError>, EngineStats) {
        let out = self.route_batch(std::slice::from_ref(asg));
        let mut results = out.results;
        (results.remove(0), out.stats)
    }

    /// Routes a batch through `router` with post-route verification and the
    /// graceful-degradation ladder, in parallel across the configured
    /// workers.
    ///
    /// Each frame's attempt sequence is: **primary** → verify; on failure
    /// **retry** (reference router) → verify; on failure **degraded**
    /// re-plan (if the router offers one) → verify. A frame that exhausts
    /// the ladder yields [`CoreError::Verification`] carrying the last
    /// [`FaultReport`] (or the routing error of the last attempt). The
    /// outcomes are returned per frame and rolled up into
    /// [`EngineStats::frames_retried`] / [`EngineStats::frames_degraded`] /
    /// [`EngineStats::frames_failed`]; `frames_ok` counts **verified**
    /// frames regardless of which rung delivered them.
    pub fn route_batch_resilient<R>(
        &self,
        batch: &[MulticastAssignment],
        router: &R,
    ) -> (BatchOutput, Vec<FrameOutcome>)
    where
        R: ResilientRouter + Sync,
    {
        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));

        let wall_start = Instant::now();
        let frames = par::par_map(batch, workers, |_idx, asg| {
            let frame_start = Instant::now();
            let (result, outcome) = route_resilient_frame(asg, router);
            (result, outcome, frame_start.elapsed().as_nanos() as u64)
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut busy_nanos = 0u64;
        let mut results = Vec::with_capacity(frames.len());
        let mut outcomes = Vec::with_capacity(frames.len());
        let (mut frames_ok, mut frames_failed) = (0usize, 0usize);
        let (mut frames_retried, mut frames_degraded) = (0usize, 0usize);
        for (result, outcome, frame_nanos) in frames {
            busy_nanos += frame_nanos;
            match outcome {
                FrameOutcome::Ok => frames_ok += 1,
                FrameOutcome::Retried => {
                    frames_ok += 1;
                    frames_retried += 1;
                }
                FrameOutcome::Degraded => {
                    frames_ok += 1;
                    frames_degraded += 1;
                }
                FrameOutcome::Failed => frames_failed += 1,
            }
            results.push(result);
            outcomes.push(outcome);
        }

        (
            BatchOutput {
                results,
                stats: EngineStats {
                    batch: batch.len(),
                    workers,
                    frames_ok,
                    frames_failed,
                    frames_retried,
                    frames_degraded,
                    wall_nanos,
                    busy_nanos,
                    ..EngineStats::empty(n)
                },
            },
            outcomes,
        )
    }

    /// The reference-recursion batch driver over a payload preparation
    /// function; it carries the self-routing message model.
    fn route_batch_with<P, F>(&self, batch: &[MulticastAssignment], prepare: F) -> BatchOutput
    where
        P: RoutePayload + Send,
        F: Fn(usize, usize, &[usize]) -> P + Sync,
    {
        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));

        let wall_start = Instant::now();
        let (mut slots, _) = reject_wrong_size(n, batch);
        let frames = par::par_map(batch, workers, |i, asg| {
            if slots[i].is_some() {
                return None;
            }
            let frame_start = Instant::now();
            let mut timer = StageTimer::new();
            let result = self.route_frame(asg, &mut timer, &prepare);
            Some((result, timer, frame_start.elapsed().as_nanos() as u64))
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut stages = StageTimer::new();
        let mut busy_nanos = 0u64;
        for (slot, frame) in slots.iter_mut().zip(frames) {
            if let Some((result, timer, frame_nanos)) = frame {
                stages.merge(&timer);
                busy_nanos += frame_nanos;
                *slot = Some(result);
            }
        }
        let (results, frames_ok, frames_failed) = collect_results(slots);

        BatchOutput {
            results,
            stats: EngineStats {
                batch: batch.len(),
                workers,
                frames_ok,
                frames_failed,
                stages,
                wall_nanos,
                busy_nanos,
                ..EngineStats::empty(n)
            },
        }
    }

    /// Routes one frame end to end with instrumentation.
    fn route_frame<P, F>(
        &self,
        asg: &MulticastAssignment,
        timer: &mut StageTimer,
        prepare: &F,
    ) -> Result<RoutingResult, CoreError>
    where
        P: RoutePayload + Send,
        F: Fn(usize, usize, &[usize]) -> P + Sync,
    {
        let n = self.net.n();
        let lines: Vec<Line<P>> = (0..n)
            .map(|i| {
                let dests = asg.dests(i);
                if dests.is_empty() {
                    Line::empty()
                } else {
                    Line {
                        tag: Tag::Eps,
                        payload: Some(prepare(n, i, dests)),
                    }
                }
            })
            .collect();
        let out = route_block_timed(lines, 0, 1, timer)?;
        crate::brsmn::extract_result(out)
    }
}


/// `S` independent fabrics routing stripes of one batch concurrently.
///
/// Frame `i` of a batch goes to shard `i mod S` (round-robin striping), the
/// shards route their stripes in parallel (one scoped thread per shard, each
/// shard's [`Engine`] applying its own worker config inside), and the
/// per-frame results are reassembled in input order. Because the shards are
/// fully independent fabrics and striping never reorders frames, the output
/// is **bit-identical** to routing the same batch through a single
/// [`Engine`] — `crates/core/tests/shard_props.rs` pins this down.
///
/// Per-shard [`EngineStats`] are folded with [`EngineStats::merge`];
/// `wall_nanos` is the measured end-to-end time (so
/// [`EngineStats::frames_per_sec`] reflects the sharded throughput), while
/// `workers` sums the shards' worker counts.
///
/// # Example
///
/// ```
/// use brsmn_core::{Engine, MulticastAssignment, ShardedEngine};
///
/// let batch: Vec<MulticastAssignment> = (0..6)
///     .map(|s| {
///         let mut sets = vec![Vec::new(); 8];
///         sets[s % 8] = (0..8).collect();
///         MulticastAssignment::from_sets(8, sets).unwrap()
///     })
///     .collect();
/// let single = Engine::new(8).unwrap().route_batch(&batch);
/// let sharded = ShardedEngine::new(8, 3).unwrap().route_batch(&batch);
/// for (a, b) in single.results.iter().zip(&sharded.results) {
///     assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    shards: Vec<Engine>,
}

impl ShardedEngine {
    /// `shards` independent fabrics of size `n`, each with the default
    /// (batch) engine config.
    pub fn new(n: usize, shards: usize) -> Result<Self, CoreError> {
        ShardedEngine::with_config(n, shards, EngineConfig::default())
    }

    /// `shards` independent fabrics, each running `cfg` internally.
    ///
    /// For a serving deployment the usual shape is `cfg.workers = 1` and
    /// parallelism purely from the shard count; `workers > 1` nests
    /// frame-level pools inside each shard.
    pub fn with_config(n: usize, shards: usize, cfg: EngineConfig) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::Config(
                "ShardedEngine needs at least one shard".to_string(),
            ));
        }
        let mut shards = (0..shards)
            .map(|_| Engine::with_config(n, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        // One cache for the whole fleet: a plan captured by any shard serves
        // replays on every shard (settings are a pure function of the
        // assignment, not of the fabric instance that planned them).
        if cfg.plan_cache > 0 {
            let shared = Arc::new(PlanCache::new(cfg.plan_cache));
            for shard in &mut shards {
                shard.share_plan_cache(Arc::clone(&shared));
            }
        }
        Ok(ShardedEngine { shards })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.shards[0].n()
    }

    /// Number of independent fabrics.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.shards[0].config()
    }

    /// The plan cache shared by every shard, if configured.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.shards[0].plan_cache()
    }

    /// Replaces every shard's plan cache with `cache`, pooling capture and
    /// replay across the fleet. The usual use is warm-starting: load a
    /// [`PlanCacheSnapshot`](crate::plancache::PlanCacheSnapshot) into a
    /// cache before serving and hand it to the engine here.
    pub fn share_plan_cache(&mut self, cache: Arc<PlanCache>) {
        for shard in &mut self.shards {
            shard.share_plan_cache(Arc::clone(&cache));
        }
    }

    /// Routes a batch striped round-robin across the shards; results come
    /// back in input order, bit-identical to a single [`Engine`].
    pub fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        let s = self.shards.len();
        if s == 1 || batch.len() <= 1 {
            return self.shards[0].route_batch(batch);
        }

        let stripes: Vec<Vec<MulticastAssignment>> = (0..s)
            .map(|k| batch.iter().skip(k).step_by(s).cloned().collect())
            .collect();

        let wall_start = Instant::now();
        let shard_outs = par::par_map(&stripes, s, |k, stripe| {
            self.shards[k].route_batch(stripe)
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut results: Vec<Option<Result<RoutingResult, CoreError>>> =
            (0..batch.len()).map(|_| None).collect();
        let mut stats = EngineStats::empty(self.n());
        for (k, out) in shard_outs.into_iter().enumerate() {
            for (j, r) in out.results.into_iter().enumerate() {
                results[k + j * s] = Some(r);
            }
            stats.merge(&out.stats);
        }
        stats.wall_nanos = wall_nanos;

        BatchOutput {
            results: results
                .into_iter()
                .map(|r| r.expect("striping covers every frame exactly once"))
                .collect(),
            stats,
        }
    }
}

/// Drives one frame through the verify → retry → degrade ladder.
fn route_resilient_frame<R: ResilientRouter>(
    asg: &MulticastAssignment,
    router: &R,
) -> (Result<RoutingResult, CoreError>, FrameOutcome) {
    // Checks one attempt: Ok(result) if it verified, Err(the error to carry
    // forward) otherwise.
    let check = |attempt: Result<RoutingResult, CoreError>| match attempt {
        Ok(r) => match verify_routing(asg, &r) {
            Ok(()) => Ok(r),
            Err(report) => Err(CoreError::Verification(report)),
        },
        Err(e) => Err(e),
    };

    let primary_failure = match check(router.route_primary(asg)) {
        Ok(r) => return (Ok(r), FrameOutcome::Ok),
        Err(e) => e,
    };

    let retry_failure = match check(router.route_retry(asg)) {
        Ok(r) => return (Ok(r), FrameOutcome::Retried),
        Err(e) => e,
    };

    // Degrading needs the verifier's localization. A routing error (e.g. a
    // fault-induced planner failure) localizes nothing, so use whichever
    // attempt produced a report, preferring the fresher retry.
    let report = [&retry_failure, &primary_failure]
        .into_iter()
        .find_map(|e| match e {
            CoreError::Verification(r) => Some(r.clone()),
            _ => None,
        });
    if let Some(report) = report {
        if let Some(degraded) = router.route_degraded(asg, &report) {
            match check(degraded) {
                Ok(r) => return (Ok(r), FrameOutcome::Degraded),
                Err(e) => return (Err(e), FrameOutcome::Failed),
            }
        }
    }
    (Err(retry_failure), FrameOutcome::Failed)
}


/// Instrumented version of the recursive router in [`crate::brsmn`].
/// Produces exactly the same output lines: the two halves compute the
/// disjoint output ranges `[lo, lo+size/2)` and `[lo+size/2, lo+size)`,
/// concatenated in order.
fn route_block_timed<P: RoutePayload>(
    lines: Vec<Line<P>>,
    lo: usize,
    level: usize,
    timer: &mut StageTimer,
) -> Result<Vec<Line<P>>, CoreError> {
    let size = lines.len();
    if size == 2 {
        let t0 = Instant::now();
        let out = final_switch(lines, lo, &mut None)?;
        timer.record_final(t0.elapsed());
        return Ok(out);
    }

    let t0 = Instant::now();
    let bsn = Bsn::new(size)?;
    let (mut out, _trace) = bsn.route_reference(lines, lo)?;
    for line in out.iter_mut() {
        if line.tag != Tag::Eps {
            let branch = line.tag;
            let payload = line.payload.take().expect("tagged line has a payload");
            line.payload = Some(payload.descend(branch, lo, size));
        }
    }
    timer.record_bsn(level, size, t0.elapsed());

    let lower = out.split_off(size / 2);
    let mut up = route_block_timed(out, lo, level + 1, timer)?;
    let down = route_block_timed(lower, lo + size / 2, level + 1, timer)?;
    up.extend(down);
    Ok(up)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_assignment() -> MulticastAssignment {
        MulticastAssignment::from_sets(
            8,
            vec![
                vec![0, 1],
                vec![],
                vec![3, 4, 7],
                vec![2],
                vec![],
                vec![],
                vec![],
                vec![5, 6],
            ],
        )
        .unwrap()
    }

    /// `count` distinct single-source frames of size `n`; frame `f`'s
    /// source sends to `f + 1` outputs, so no two share a relabeling
    /// class.
    fn distinct_frames(n: usize, count: usize) -> Vec<MulticastAssignment> {
        (0..count)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f % n] = (0..=f % n).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect()
    }

    /// Routes every frame of `batch` as its own one-frame `route_batch`
    /// call, merging the stats.
    fn route_one_by_one(
        engine: &Engine,
        batch: &[MulticastAssignment],
    ) -> (Vec<Result<RoutingResult, CoreError>>, EngineStats) {
        let mut stats = EngineStats::empty(engine.n());
        let results = batch
            .iter()
            .map(|asg| {
                let (r, s) = engine.route_one(asg);
                stats.merge(&s);
                r
            })
            .collect();
        (results, stats)
    }

    #[test]
    fn engine_matches_sequential_router_on_paper_example() {
        let net = Brsmn::new(8).unwrap();
        let expect = net.route(&paper_assignment()).unwrap();
        for cfg in [EngineConfig::sequential(), EngineConfig::batch(4)] {
            let engine = Engine::with_config(8, cfg).unwrap();
            let (result, stats) = engine.route_one(&paper_assignment());
            assert_eq!(result.unwrap(), expect);
            assert_eq!(stats.frames_ok, 1);
            assert_eq!(stats.frames_failed, 0);
        }
    }

    #[test]
    fn batch_results_keep_input_order() {
        let n = 16;
        let batch: Vec<MulticastAssignment> = (0..40)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f % n] = vec![(f * 7) % n, (f * 7 + 1) % n]
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        let net = Brsmn::new(n).unwrap();
        let engine = Engine::with_config(n, EngineConfig::batch(4)).unwrap();
        let out = engine.route_batch(&batch);
        assert_eq!(out.results.len(), batch.len());
        for (asg, result) in batch.iter().zip(&out.results) {
            assert_eq!(result.as_ref().unwrap(), &net.route(asg).unwrap());
        }
        assert_eq!(out.stats.frames_ok, batch.len());
    }

    #[test]
    fn self_routing_batch_agrees_with_semantic() {
        let engine = Engine::with_config(8, EngineConfig::batch(2)).unwrap();
        let batch = vec![paper_assignment(); 8];
        let sem = engine.route_batch(&batch);
        let slf = engine.route_batch_self_routing(&batch);
        for (a, b) in sem.results.iter().zip(&slf.results) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn stats_count_stages_exactly() {
        // One 8×8 frame: one 8-BSN, two 4-BSNs, four final switches.
        let engine = Engine::with_config(8, EngineConfig::sequential()).unwrap();
        let (result, stats) = engine.route_one(&paper_assignment());
        result.unwrap();
        assert_eq!(stats.stages.levels.len(), 2);
        assert_eq!(stats.stages.levels[0].blocks, 1);
        assert_eq!(stats.stages.levels[1].blocks, 2);
        assert_eq!(stats.stages.final_switches, 4);
        // Settings: 8·3 (level 1) + 2·(4·2) (level 2) + 4 (final) = 44.
        assert_eq!(stats.stages.switch_settings, 44);
        assert_eq!(stats.stages.sweep_passes, 3 * SWEEPS_PER_BSN);
        assert_eq!(stats.batch, 1);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn stats_serialize_to_json_and_back() {
        let engine = Engine::with_config(8, EngineConfig::sequential()).unwrap();
        let (_, stats) = engine.route_one(&paper_assignment());
        let json = serde_json::to_string(&stats).unwrap();
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert!(json.contains("switch_settings"));
    }

    #[test]
    fn wrong_size_frames_get_typed_errors_in_place() {
        // Frames 1 and 3 of 5 have the wrong size; the rest route as if
        // the wrong-size frames were absent, on both message models, with
        // the cache on and off.
        let net = Brsmn::new(8).unwrap();
        let small = MulticastAssignment::from_sets(4, vec![vec![0, 1], vec![], vec![3], vec![]])
            .unwrap();
        let large = distinct_frames(16, 1).remove(0);
        let batch = vec![
            paper_assignment(),
            small.clone(),
            paper_assignment(),
            large,
            paper_assignment(),
        ];
        for cache in [0, 16] {
            let engine =
                Engine::with_config(8, EngineConfig::sequential().with_plan_cache(cache)).unwrap();
            for out in [
                engine.route_batch(&batch),
                engine.route_batch_self_routing(&batch),
            ] {
                assert_eq!(out.results.len(), 5);
                for i in [1, 3] {
                    assert!(
                        matches!(out.results[i], Err(CoreError::Config(_))),
                        "cache {cache}: frame {i} gave {:?}",
                        out.results[i]
                    );
                }
                for i in [0, 2, 4] {
                    assert_eq!(
                        out.results[i].as_ref().unwrap(),
                        &net.route(&paper_assignment()).unwrap()
                    );
                }
                assert_eq!(out.stats.frames_ok, 3);
                assert_eq!(out.stats.frames_failed, 2);
            }
            if let Some(cache) = engine.plan_cache() {
                // No wrong-size frame reached the cache: the one resident
                // plan is the paper example's.
                assert_eq!(cache.len(), 1);
            }
        }
        // A batch of nothing but wrong-size frames routes nothing.
        let engine = Engine::with_config(8, EngineConfig::batch(2).with_plan_cache(16)).unwrap();
        let out = engine.route_batch(&[small.clone(), small]);
        assert!(out.results.iter().all(|r| matches!(r, Err(CoreError::Config(_)))));
        assert_eq!(out.stats.fastpath_frames, 0);
        assert_eq!(out.stats.plan_misses, 0);
        assert_eq!(engine.plan_cache().unwrap().len(), 0);
    }

    #[test]
    fn route_batch_matches_reference_router() {
        let n = 16;
        let batch: Vec<MulticastAssignment> = (0..12)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f % n] = (0..n).step_by(f % 3 + 1).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        let net = Brsmn::new(n).unwrap();
        let engine = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let out = engine.route_batch(&batch);
        for (asg, got) in batch.iter().zip(&out.results) {
            assert_eq!(got.as_ref().unwrap(), &net.route_reference(asg).unwrap());
        }
        // The instrumented reference recursion (the self-routing model's
        // driver) records identical work counters.
        let slf = engine.route_batch_self_routing(&batch);
        assert_eq!(
            out.stats.stages.switch_settings,
            slf.stats.stages.switch_settings
        );
        assert_eq!(out.stats.stages.sweep_passes, slf.stats.stages.sweep_passes);
        assert_eq!(out.stats.fastpath_frames, batch.len() as u64);
        assert!(out.stats.scratch_bytes > 0);
        assert_eq!(slf.stats.fastpath_frames, 0);
        assert_eq!(slf.stats.scratch_bytes, 0);
    }

    #[test]
    fn plan_cache_hits_are_bit_identical_and_counted() {
        let n = 16;
        let distinct: Vec<MulticastAssignment> = (0..4)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f] = (0..n).step_by(f + 1).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        // 4 distinct frames, each repeated 5 times.
        let batch: Vec<MulticastAssignment> = (0..20).map(|i| distinct[i % 4].clone()).collect();

        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        let a = plain.route_batch(&batch);
        let b = cached.route_batch(&batch);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        assert_eq!(b.stats.plan_misses, 4);
        assert_eq!(b.stats.plan_hits, 16);
        assert_eq!(b.stats.plan_evictions, 0);
        assert!(b.stats.plan_cache_bytes > 0);
        assert_eq!(a.stats.plan_hits, 0);
        assert_eq!(a.stats.plan_misses, 0);
        // Replay applies the same settings but runs no planner sweeps.
        assert_eq!(
            a.stats.stages.switch_settings,
            b.stats.stages.switch_settings
        );
        assert!(b.stats.stages.sweep_passes < a.stats.stages.sweep_passes);
        // A second pass over the same batch is all hits.
        let c = cached.route_batch(&batch);
        assert_eq!(c.stats.plan_hits, 20);
        assert_eq!(c.stats.plan_misses, 0);
    }

    #[test]
    fn plan_cache_capacity_pressure_evicts_and_stays_correct() {
        let n = 16;
        // Distinct fanouts put every frame in its own relabeling class, so
        // neither the exact nor the canonical tier can absorb the churn.
        let distinct: Vec<MulticastAssignment> = (0..6)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f] = (0..=f).map(|k| (f * 3 + k) % n).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        // Capacity 2 < 6 distinct frames, cycled twice: every round-trip
        // re-misses what was evicted, and results stay correct throughout.
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(2)).unwrap();
        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let batch: Vec<MulticastAssignment> = (0..12).map(|i| distinct[i % 6].clone()).collect();
        let a = plain.route_batch(&batch);
        let b = cached.route_batch(&batch);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        assert!(b.stats.plan_evictions > 0);
        assert_eq!(b.stats.plan_hits + b.stats.plan_misses, 12);
        assert!(cached.plan_cache().unwrap().len() <= 2);
    }

    #[test]
    fn batched_driver_matches_one_frame_calls_and_counts() {
        let n = 16;
        // 4 distinct shapes cycled over 20 frames: duplicates exercise the
        // claim-and-defer pass, distinct frames the SoA chunks.
        let distinct: Vec<MulticastAssignment> = (0..4)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f] = (0..n).step_by(f + 1).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        let batch: Vec<MulticastAssignment> = (0..20).map(|i| distinct[i % 4].clone()).collect();

        for cache in [0, 64] {
            let cfg = EngineConfig::sequential().with_plan_cache(cache);
            let batched = Engine::with_config(n, cfg).unwrap();
            let one_by_one = Engine::with_config(n, cfg).unwrap();
            let a = batched.route_batch(&batch);
            let (b_results, b) = route_one_by_one(&one_by_one, &batch);
            for (x, y) in a.results.iter().zip(&b_results) {
                assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
            }
            // Same work, different schedule: identical counters either way.
            assert_eq!(a.stats.plan_hits, b.plan_hits);
            assert_eq!(a.stats.plan_canonical_hits, b.plan_canonical_hits);
            assert_eq!(a.stats.plan_misses, b.plan_misses);
            assert_eq!(a.stats.stages.switch_settings, b.stages.switch_settings);
            assert_eq!(a.stats.stages.sweep_passes, b.stages.sweep_passes);
            // One-frame calls never fill a lockstep chunk.
            assert_eq!(b.batch_planned_frames, 0);
            assert_eq!(a.stats.simd_lane_width, brsmn_rbn::LANES as u64);
            if cache == 0 {
                // Without a cache every frame of the batch plans in one
                // 20-frame SoA chunk.
                assert_eq!(a.stats.batch_planned_frames, 20);
            } else {
                // With a cache only the 4 misses plan — a chunk narrower
                // than MIN_SOA_CHUNK plans per frame — and hits replay.
                assert_eq!(a.stats.plan_misses, 4);
                assert_eq!(
                    a.stats.batch_planned_frames,
                    if 4 >= MIN_SOA_CHUNK { 4 } else { 0 }
                );
                let warm = batched.route_batch(&batch);
                assert_eq!(warm.stats.plan_hits, 20);
                assert_eq!(warm.stats.batch_planned_frames, 0);
            }
        }
        // The reference recursion (self-routing model) reports no lane
        // width at all.
        let engine = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let c = engine.route_batch_self_routing(&batch);
        assert_eq!(c.stats.simd_lane_width, 0);
        assert_eq!(c.stats.batch_planned_frames, 0);
    }

    #[test]
    fn only_chunks_of_min_soa_chunk_frames_plan_in_lockstep() {
        let n = 32;
        let frames = distinct_frames(n, 2 * MIN_SOA_CHUNK + 8);
        assert!(frames.len() <= n, "frames share relabeling classes");
        let net = Brsmn::new(n).unwrap();
        let check = |engine: &Engine, batch: &[MulticastAssignment], want_planned: usize| {
            let out = engine.route_batch(batch);
            for (asg, got) in batch.iter().zip(&out.results) {
                assert_eq!(got.as_ref().unwrap(), &net.route(asg).unwrap());
            }
            assert_eq!(
                out.stats.batch_planned_frames, want_planned as u64,
                "{} frames on {} worker(s)",
                batch.len(),
                out.stats.workers
            );
        };
        let sequential = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        // One worker: the whole batch is one chunk.
        check(&sequential, &frames[..MIN_SOA_CHUNK - 1], 0);
        check(&sequential, &frames[..MIN_SOA_CHUNK], MIN_SOA_CHUNK);
        // Two workers, 2·MIN_SOA_CHUNK − 1 misses: one chunk of exactly
        // MIN_SOA_CHUNK frames plans in lockstep, the other per frame.
        let two = Engine::with_config(n, EngineConfig::batch(2)).unwrap();
        check(&two, &frames[..2 * MIN_SOA_CHUNK - 1], MIN_SOA_CHUNK);
        // With a cache, hits leave the chunks: warm all but MIN_SOA_CHUNK − 1
        // frames, then only the narrow chunk of cold ones plans (per frame).
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        let cold = MIN_SOA_CHUNK - 1;
        check(&cached, &frames[cold..], frames.len() - cold);
        let out = cached.route_batch(&frames);
        assert_eq!(out.stats.plan_misses, cold as u64);
        assert_eq!(out.stats.batch_planned_frames, 0);
    }

    #[test]
    fn sharded_engine_shares_one_plan_cache() {
        let n = 16;
        let mut sets = vec![Vec::new(); n];
        sets[3] = (0..n).collect();
        let asg = MulticastAssignment::from_sets(n, sets).unwrap();
        let batch = vec![asg; 16];
        let sharded = ShardedEngine::with_config(
            n,
            4,
            EngineConfig::sequential().with_plan_cache(32),
        )
        .unwrap();
        let out = sharded.route_batch(&batch);
        assert_eq!(out.stats.frames_ok, 16);
        // One distinct assignment: at most one capture per shard can race,
        // but the shared cache holds exactly one resident plan and at least
        // the second pass is all hits.
        assert_eq!(sharded.plan_cache().unwrap().len(), 1);
        let again = sharded.route_batch(&batch);
        assert_eq!(again.stats.plan_hits, 16);
        assert_eq!(again.stats.plan_misses, 0);
    }
}
