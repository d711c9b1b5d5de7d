//! The traced per-frame ladder: the engine's per-frame routing steps
//! replayed one public call at a time, each call a span, so every layer's
//! share of a frame can be read off and summed against the untraced
//! `route_batch` time of the same frames. Each chunk of frames is routed
//! three ways back to back, so a drift in machine speed hits all three
//! alike: untraced `route_batch`, traced `route_batch` on a twin engine in
//! the same state (the tracing overhead), and the ladder.
//!
//! With a plan cache the ladder follows the engine's probe order: exact
//! fingerprint lookup, then canonicalization and the canonical tier, then
//! capture and insertion on a miss. Without one it plans and executes with
//! `route_into`. Extra *probe* calls split what one call mixes (planning
//! versus execution, capture overhead) and time the layers the configured
//! path skips; they are spans too but are kept out of the closure rows.

use crate::closed::{check_batch, guard_profile, Tally};
use crate::inputs::{Frames, BATCH};
use crate::spans::Tracer;
use brsmn_core::{
    canonicalize, plan_fingerprint, relabel_inputs, relabel_outputs, BatchPlanner, Brsmn,
    CapturedPlan, Engine, EngineStats, MulticastAssignment, PlanCache, RouteScratch, RoutingResult,
    StageTimer,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Running count and sum of a per-call duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum {
    pub calls: u64,
    pub ns: f64,
}

impl Sum {
    fn add(&mut self, ns: f64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Mean ns per call (0 when never called).
    pub fn mean(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// Layer rows in ns summed over frames. Together they cover exactly the
/// spans on the configured path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rows {
    /// Planning: `route_into` minus `route_replay_into` of the same frame.
    pub rbn: f64,
    /// Execution: replays, verbatim or permuted.
    pub fastpath: f64,
    pub canonical: f64,
    /// Fingerprint, both lookups, insertion, and capture overhead
    /// (`route_capture` minus `route_into`).
    pub plancache: f64,
}

impl Rows {
    fn add(&mut self, o: &Rows) {
        self.rbn += o.rbn;
        self.fastpath += o.fastpath;
        self.canonical += o.canonical;
        self.plancache += o.plancache;
    }

    pub fn total(&self) -> f64 {
        self.rbn + self.fastpath + self.canonical + self.plancache
    }
}

/// Everything the ladder run measured except the engine's own stats.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Frames routed (by each of the three ways).
    pub frames: u64,
    /// `route_batch` time of the same frames, untraced and traced.
    pub untraced_ns: f64,
    pub traced_ns: f64,
    /// Σ of the traced `route_batch` calls' own wall times.
    pub wall_ns: u64,
    pub rows: Rows,
    pub exact_hits: u64,
    pub canonical_hits: u64,
    pub misses: u64,
    pub route_into: Sum,
    pub route_capture: Sum,
    pub replay: Sum,
    pub replay_permuted: Sum,
    /// `route_into − route_replay_into`, on frames where both ran.
    pub plan: Sum,
    /// `route_capture − route_into`, on frames where both ran.
    pub capture_overhead: Sum,
    pub fingerprint: Sum,
    pub lookup: Sum,
    pub lookup_canonical: Sum,
    pub canonicalize: Sum,
    /// `insert` plus `insert_canonical` of one captured plan.
    pub insert: Sum,
    /// One `BatchPlanner::route_frames` call per chunk.
    pub batch_chunk: Sum,
    /// Full per-frame path cost of a cache miss and of an exact hit (for
    /// the break-even hit ratio).
    pub miss_path: Sum,
    pub hit_path: Sum,
    pub tally: Tally,
}

fn realized(scratch: &RouteScratch, asg: &MulticastAssignment) -> bool {
    RoutingResult::new(scratch.output_sources().collect()).realizes(asg)
}

struct Runner<'a> {
    net: Brsmn,
    scratch: RouteScratch,
    planner: BatchPlanner,
    rng: StdRng,
    tr: &'a mut Tracer,
    out: Ladder,
}

impl Runner<'_> {
    fn route_into(&mut self, f: &MulticastAssignment, id: u64) -> f64 {
        let (net, scratch) = (&self.net, &mut self.scratch);
        let (r, ns) = self
            .tr
            .span("rbn.route_into", id, || net.route_into(f, scratch));
        self.out
            .tally
            .frame(r.is_ok() && realized(&self.scratch, f));
        self.out.route_into.add(ns as f64);
        ns as f64
    }

    fn route_capture(
        &mut self,
        f: &MulticastAssignment,
        id: u64,
    ) -> (Option<Arc<CapturedPlan>>, f64) {
        let (net, scratch) = (&self.net, &mut self.scratch);
        let (r, ns) = self
            .tr
            .span("rbn.route_capture", id, || net.route_capture(f, scratch));
        self.out.route_capture.add(ns as f64);
        let ok = r.as_ref().is_ok_and(|(res, _)| res.realizes(f));
        self.out.tally.frame(ok);
        (r.ok().map(|(_, plan)| Arc::new(plan)), ns as f64)
    }

    fn replay(&mut self, f: &MulticastAssignment, plan: &CapturedPlan, id: u64) -> f64 {
        let (net, scratch) = (&self.net, &mut self.scratch);
        let (r, ns) = self.tr.span("core.fastpath.route_replay_into", id, || {
            net.route_replay_into(f, plan, scratch)
        });
        self.out
            .tally
            .frame(r.is_ok() && realized(&self.scratch, f));
        self.out.replay.add(ns as f64);
        ns as f64
    }

    /// Canonicalizes `f`, probes the canonical tier and, on a hit, replays
    /// through the permuted executor. Returns the three durations (the last
    /// `None` on a canonical miss).
    fn replay_permuted(
        &mut self,
        f: &MulticastAssignment,
        cache: &PlanCache,
        id: u64,
    ) -> (f64, f64, Option<f64>) {
        let (canon, t_c) = self
            .tr
            .span("core.canonical.canonicalize", id, || canonicalize(f));
        self.out.canonicalize.add(t_c as f64);
        let (hit, t_lc) = self.tr.span("core.plancache.lookup_canonical", id, || {
            cache.lookup_canonical(&canon)
        });
        self.out.lookup_canonical.add(t_lc as f64);
        let Some(hit) = hit else {
            return (t_c as f64, t_lc as f64, None);
        };
        let (net, scratch) = (&self.net, &mut self.scratch);
        let (r, ns) = self.tr.span("core.fastpath.route_replay_permuted", id, || {
            net.route_replay_permuted(f, &hit.plan, &hit.input_map, &hit.output_map, scratch)
        });
        self.out
            .tally
            .frame(r.as_ref().is_ok_and(|r| r.realizes(f)));
        self.out.replay_permuted.add(ns as f64);
        (t_c as f64, t_lc as f64, Some(ns as f64))
    }

    /// Inserts a fresh capture into both tiers, canonicalizing again as the
    /// engine does.
    fn insert(
        &mut self,
        cache: &PlanCache,
        fp: u64,
        f: &MulticastAssignment,
        plan: &Arc<CapturedPlan>,
        id: u64,
    ) -> f64 {
        let (_, ns) = self.tr.span("core.plancache.insert", id, || {
            cache.insert(fp, f, Arc::clone(plan));
            cache.insert_canonical(&canonicalize(f), Arc::clone(plan));
        });
        self.out.insert.add(ns as f64);
        ns as f64
    }

    fn fingerprint_lookup(
        &mut self,
        cache: &PlanCache,
        f: &MulticastAssignment,
        id: u64,
    ) -> (u64, Option<Arc<CapturedPlan>>, f64) {
        let (fp, t_fp) = self
            .tr
            .span("core.plancache.fingerprint", id, || plan_fingerprint(f));
        self.out.fingerprint.add(t_fp as f64);
        let (hit, t_lu) = self
            .tr
            .span("core.plancache.lookup", id, || cache.lookup(fp, f));
        self.out.lookup.add(t_lu as f64);
        (fp, hit, (t_fp + t_lu) as f64)
    }

    /// One frame on the cached path, returning its layer rows. Every frame
    /// also gets a `route_into` probe (per-frame planning, for the SoA A/B).
    fn cached_frame(&mut self, cache: &PlanCache, f: &MulticastAssignment, id: u64) -> Rows {
        let mut row = Rows::default();
        let (fp, hit, t_probe) = self.fingerprint_lookup(cache, f, id);
        row.plancache += t_probe;
        if let Some(plan) = hit {
            self.out.exact_hits += 1;
            let t_rep = self.replay(f, &plan, id);
            row.fastpath += t_rep;
            self.out.hit_path.add(t_probe + t_rep);
            let t_into = self.route_into(f, id);
            self.out.plan.add(t_into - t_rep);
            return row;
        }
        let (t_c, t_lc, permuted) = self.replay_permuted(f, cache, id);
        row.canonical += t_c;
        row.plancache += t_lc;
        if let Some(t_perm) = permuted {
            self.out.canonical_hits += 1;
            row.fastpath += t_perm;
            self.route_into(f, id);
            return row;
        }
        self.out.misses += 1;
        let (plan, t_cap) = self.route_capture(f, id);
        let Some(plan) = plan else { return row };
        let t_ins = self.insert(cache, fp, f, &plan, id);
        // Probes splitting the capture into planning, execution and
        // capture overhead.
        let t_into = self.route_into(f, id);
        let t_rep = self.replay(f, &plan, id);
        self.out.plan.add(t_into - t_rep);
        self.out.capture_overhead.add(t_cap - t_into);
        row.rbn += t_into - t_rep;
        row.fastpath += t_rep;
        row.plancache += t_ins + (t_cap - t_into);
        self.out.miss_path.add(t_probe + t_c + t_lc + t_cap + t_ins);
        row
    }

    /// One frame on the cache-off path (`route_into`), plus probes of the
    /// cache layers against the stand-in cache.
    fn uncached_frame(&mut self, probe: &PlanCache, f: &MulticastAssignment, id: u64) -> Rows {
        let t_into = self.route_into(f, id);
        let (plan, t_cap) = self.route_capture(f, id);
        let Some(plan) = plan else {
            return Rows::default();
        };
        let t_rep = self.replay(f, &plan, id);
        self.out.plan.add(t_into - t_rep);
        self.out.capture_overhead.add(t_cap - t_into);

        let (fp, _, t_miss_probe) = self.fingerprint_lookup(probe, f, id);
        let (t_c, t_lc, _) = self.replay_permuted(f, probe, id);
        let t_ins = self.insert(probe, fp, f, &plan, id);
        self.out
            .miss_path
            .add(t_miss_probe + t_c + t_lc + t_cap + t_ins);
        let (_, _, t_hit_probe) = self.fingerprint_lookup(probe, f, id);
        self.out.hit_path.add(t_hit_probe + t_rep);
        // A relabeling of the frame hits the class just inserted.
        let n = f.n();
        let mut outs: Vec<usize> = (0..n).collect();
        let mut ins = outs.clone();
        outs.shuffle(&mut self.rng);
        ins.shuffle(&mut self.rng);
        let g = relabel_inputs(&relabel_outputs(f, &outs), &ins);
        self.replay_permuted(&g, probe, id);

        Rows {
            rbn: t_into - t_rep,
            fastpath: t_rep,
            ..Rows::default()
        }
    }

    /// Lockstep SoA planning of one chunk (`core.batch`).
    fn batch(&mut self, chunk: &[MulticastAssignment], c: u64) {
        let refs: Vec<&MulticastAssignment> = chunk.iter().collect();
        let mut timer = StageTimer::new();
        self.planner.ensure(self.net.n(), chunk.len());
        let (planner, wiring) = (&mut self.planner, self.net.wiring());
        let (r, ns) = self.tr.span("core.batch.route_frames", c, || {
            planner.route_frames(wiring, &refs, &mut timer, None)
        });
        guard_profile(&timer.plan_profile);
        self.out.batch_chunk.add(ns as f64);
        for (k, f) in chunk.iter().enumerate() {
            self.out
                .tally
                .frame(r.is_ok() && self.planner.frame_result(k).realizes(f));
        }
    }
}

/// Runs the ladder over `frames` (from the first batch on) for `seconds`.
/// `engines` are two engines set up alike (pre-filled from `prefill`); the
/// ladder's own cache mirrors theirs and is pre-filled the same way.
/// Returns the ladder's measurements and the merged `EngineStats` of the
/// traced `route_batch` calls.
pub fn run(
    frames: &Frames,
    engines: [&Engine; 2],
    prefill: &[MulticastAssignment],
    seconds: f64,
    seed: u64,
    tr: &mut Tracer,
) -> (Ladder, EngineStats) {
    let n = frames.n();
    let mut run = Runner {
        net: Brsmn::new(n).expect("valid network size"),
        scratch: RouteScratch::new(n).expect("valid network size"),
        planner: BatchPlanner::new(),
        rng: StdRng::seed_from_u64(seed),
        tr,
        out: Ladder::default(),
    };
    // The cache the configured path consults, and a stand-in for timing
    // the cache layers on a cache-off path.
    let capacity = engines[0].config().plan_cache;
    let cache = (capacity > 0).then(|| PlanCache::new(capacity));
    let probe = PlanCache::new(256);
    if let Some(cache) = &cache {
        for f in prefill {
            let (_, plan) = run
                .net
                .route_capture(f, &mut run.scratch)
                .expect("pre-fill frames route");
            let plan = Arc::new(plan);
            cache.insert(plan_fingerprint(f), f, Arc::clone(&plan));
            cache.insert_canonical(&canonicalize(f), plan);
        }
    }
    let mut stats = EngineStats::empty(n);
    let start = Instant::now();
    let mut c = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let chunk = frames.batch(c);
        // Alternate which engine goes first: the second call finds the
        // chunk's frames already in the CPU caches.
        for traced in [!c.is_multiple_of(2), c.is_multiple_of(2)] {
            if traced {
                let (out, ns) = run.tr.span("core.engine.route_batch", c as u64, || {
                    engines[1].route_batch(chunk)
                });
                run.out.traced_ns += ns as f64;
                run.out.tally.add(check_batch(chunk, &out));
                run.out.wall_ns += out.stats.wall_nanos;
                stats.merge(&out.stats);
            } else {
                let t0 = Instant::now();
                let out = engines[0].route_batch(chunk);
                run.out.untraced_ns += t0.elapsed().as_nanos() as f64;
                run.out.tally.add(check_batch(chunk, &out));
            }
        }

        for (k, f) in chunk.iter().enumerate() {
            let id = (c * BATCH + k) as u64;
            let open = run.tr.begin("ladder.frame", id);
            let row = match &cache {
                Some(cache) => run.cached_frame(cache, f, id),
                None => run.uncached_frame(&probe, f, id),
            };
            run.tr.end(open);
            run.out.rows.add(&row);
        }
        run.batch(chunk, c as u64);
        run.out.frames += BATCH as u64;
        c += 1;
    }
    (run.out, stats)
}
