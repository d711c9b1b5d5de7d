//! Pins the zero-allocation invariant of the routing fast path: after one
//! warm-up frame at a given size, `Brsmn::route_into` performs **zero** heap
//! allocations per frame, measured by a counting global allocator.
//!
//! Gated behind the `alloc-count` feature because a global allocator is
//! process-wide state no other test should inherit:
//!
//! ```text
//! cargo test -q -p brsmn-bench --features alloc-count --test alloc_count
//! ```
//!
//! The harness runs these tests on parallel threads, so the counter is per
//! thread: each test counts only its own allocations, and every bound is
//! exact.
#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use brsmn_bench::dense_batch;
use brsmn_core::{
    canonicalize, plan_fingerprint, relabel_inputs, relabel_outputs, BatchPlanner, Brsmn,
    MulticastAssignment, PlanCache, RouteScratch, StageTimer, MIN_SOA_CHUNK,
};
use std::sync::Arc;

/// Wraps the system allocator, counting every allocation and reallocation
/// made by the calling thread.
struct CountingAlloc;

thread_local! {
    // `const` initialization and a `Drop`-free type: reading or bumping the
    // counter never allocates, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn fast_path_steady_state_allocates_nothing() {
    let n = 256;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, 8, 3);
    let mut scratch = RouteScratch::new(n).unwrap();

    // Warm up: the arena takes its one-time allocations for this size, and
    // every frame shape in the batch is exercised once.
    for asg in &batch {
        net.route_into(asg, &mut scratch).unwrap();
    }

    // Steady state: many frames, zero heap traffic — reading the delivery
    // out of the arena included.
    let mut delivered = 0usize;
    let before = allocs();
    for _ in 0..10 {
        for asg in &batch {
            net.route_into(asg, &mut scratch).unwrap();
            delivered += scratch.output_sources().flatten().count();
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "fast path allocated in steady state at n={n}"
    );
    assert!(delivered > 0, "workload delivered nothing");
}

#[test]
fn warm_plan_cache_hit_allocates_nothing() {
    // A warm hit is the engine's steady state for repeated frames:
    // fingerprint the assignment, look the plan up, replay it into the
    // arena. All three must be heap-silent at n = 256.
    let n = 256;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, 8, 3);
    let mut scratch = RouteScratch::new(n).unwrap();

    let cache = PlanCache::new(64);
    for asg in &batch {
        let (_, plan) = net.route_capture(asg, &mut scratch).unwrap();
        cache.insert(plan_fingerprint(asg), asg, Arc::new(plan));
    }
    // The cache's residency is real, accounted memory — the plan-arena
    // analogue of the engine's `scratch_bytes`.
    assert!(cache.footprint_bytes() > 0, "warm cache reports no footprint");

    // Warm up the replay path once per frame shape.
    for asg in &batch {
        let plan = cache.lookup(plan_fingerprint(asg), asg).unwrap();
        net.route_replay_into(asg, &plan, &mut scratch).unwrap();
    }

    let mut delivered = 0usize;
    let before = allocs();
    for _ in 0..10 {
        for asg in &batch {
            let plan = cache
                .lookup(plan_fingerprint(asg), asg)
                .expect("warmed cache hits");
            net.route_replay_into(asg, &plan, &mut scratch).unwrap();
            delivered += scratch.output_sources().flatten().count();
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "warm plan-cache hit allocated in steady state at n={n}"
    );
    assert!(delivered > 0, "workload delivered nothing");
}

#[test]
fn canonical_hit_allocates_only_its_form_maps_and_result() {
    // A canonical-tier hit is low-allocation, not zero: canonicalizing the
    // probe builds its canonical form, the hit composes two permutation
    // maps, and the permuted replay returns a fresh result. Nothing else
    // may allocate — not the probe, not the replay, not its checks.
    let n = 256;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, 8, 3);
    let mut scratch = RouteScratch::new(n).unwrap();

    // Seed the canonical tier with a relabeled member of each frame's
    // class, so every probe below hits canonically.
    let rot: Vec<usize> = (0..n).map(|i| (i + 37) % n).collect();
    let cache = PlanCache::new(64);
    for asg in &batch {
        let member = relabel_inputs(&relabel_outputs(asg, &rot), &rot);
        let (_, plan) = net.route_capture(&member, &mut scratch).unwrap();
        cache.insert_canonical(&canonicalize(&member), Arc::new(plan));
    }

    let mut hit = |asg: &MulticastAssignment| {
        let canon = canonicalize(asg);
        let hit = cache.lookup_canonical(&canon).expect("seeded class hits");
        let r = net
            .route_replay_permuted(asg, &hit.plan, &hit.input_map, &hit.output_map, &mut scratch)
            .unwrap();
        assert!(r.realizes(asg));
    };
    // Warm up the permuted replay path once per frame shape.
    for asg in &batch {
        hit(asg);
    }

    for asg in &batch {
        // The canonical form: the fanout order, the two canonicalization
        // permutations, the representative's set table, and one set per
        // active input.
        let form = 4 + asg.active_inputs() as u64;
        // The two composed live → plan maps, and the result.
        let expected = form + 2 + 1;
        let before = allocs();
        hit(asg);
        let after = allocs();
        assert_eq!(
            after - before,
            expected,
            "canonical hit at n={n} with {} active inputs",
            asg.active_inputs()
        );
    }
}

#[test]
fn soa_batch_planning_steady_state_allocates_nothing() {
    // The lockstep SoA planner shares the invariant of the per-frame fast
    // path: after one warm-up batch at a fixed (n, frames) shape, planning
    // and executing a whole batch — and reading every delivery out of the
    // arena — is heap-silent. (StageTimer is warmed too: its per-level rows
    // grow only on first sight of each level.) The batch is wide enough
    // for the engine to plan it in lockstep too.
    let n = 256;
    let frames = MIN_SOA_CHUNK.max(8);
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, frames, 3);
    let refs: Vec<&MulticastAssignment> = batch.iter().collect();
    let mut planner = BatchPlanner::new();
    planner.ensure(n, frames);
    let mut timer = StageTimer::new();

    // Warm up: the SoA planes, rank rows, and line arenas take their
    // one-time allocations for this shape.
    planner
        .route_frames(net.wiring(), &refs, &mut timer, None)
        .unwrap();
    assert!(planner.footprint_bytes() > 0, "arena reports no footprint");

    let mut delivered = 0usize;
    let before = allocs();
    for _ in 0..10 {
        planner
            .route_frames(net.wiring(), &refs, &mut timer, None)
            .unwrap();
        for f in 0..frames {
            delivered += planner.frame_delivery(f).flatten().count();
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "SoA batch planner allocated in steady state at n={n}, frames={frames}"
    );
    assert!(delivered > 0, "workload delivered nothing");
}

#[test]
fn profiled_paths_stay_heap_silent() {
    // The per-op planning profiler must be free in steady state on both the
    // scalar and the SoA paths: op tallies are plain adds on TLS/arena
    // state, and the ProfClock reads compile to constants without the
    // `plan-profile` feature. CI runs this suite with the feature both off
    // and on (`--features alloc-count` and `--features
    // alloc-count,plan-profile`); the assertion is identical.
    let n = 256;
    let frames = 8;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, frames, 3);
    let refs: Vec<&MulticastAssignment> = batch.iter().collect();
    let mut scratch = RouteScratch::new(n).unwrap();
    let mut planner = BatchPlanner::new();
    planner.ensure(n, frames);
    let mut timer = StageTimer::new();

    // Warm up both paths with the timer attached (its level rows take
    // their one-time allocations here).
    for asg in &batch {
        net.route_into_timed(asg, &mut scratch, &mut timer).unwrap();
    }
    planner
        .route_frames(net.wiring(), &refs, &mut timer, None)
        .unwrap();
    assert!(
        timer.plan_profile.total_ops() > 0,
        "profiler recorded no planning ops"
    );

    let before = allocs();
    for _ in 0..10 {
        for asg in &batch {
            net.route_into_timed(asg, &mut scratch, &mut timer).unwrap();
        }
        planner
            .route_frames(net.wiring(), &refs, &mut timer, None)
            .unwrap();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "profiled carried-rank paths allocated in steady state at n={n}"
    );
}

#[test]
fn reference_path_allocates_per_frame() {
    // Sanity check that the counter works at all: the PR-1 reference router
    // allocates heavily on every frame.
    let n = 64;
    let net = Brsmn::new(n).unwrap();
    let asg = &dense_batch(n, 1, 5)[0];
    net.route_reference(asg).unwrap();
    let before = allocs();
    net.route_reference(asg).unwrap();
    assert!(allocs() > before, "counting allocator saw no allocations");
}
