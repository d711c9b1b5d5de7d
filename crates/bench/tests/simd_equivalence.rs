//! Property suite pinning the tentpole invariant of the wide-lane/SoA PR:
//! neither the `[u64; 4]` lane kernels nor the lockstep `BatchPlanner`
//! schedule may change a single observable bit. Three angles:
//!
//! * the wide-lane fast path agrees with the allocating reference router on
//!   every routing result across dense, sparse, and α-heavy shapes at
//!   n ∈ {8, 16, 64, 256} (the word-level scalar loops themselves are
//!   oracle-checked in `brsmn-rbn`'s unit tests);
//! * the SoA batch planner is bit-identical to per-frame planning on
//!   **results, switch settings, and per-level traces** — captured plans
//!   compare equal as whole setting tensors, and traced replay through a
//!   batch-captured plan reproduces the per-frame trace — including ragged
//!   batches down to a single frame;
//! * the engine's batched dispatch agrees with routing the same frames one
//!   `route_batch` call each under **mixed cache hit/miss traffic**
//!   (duplicated frames, pre-warmed entries) on results *and* on every
//!   cache counter, and both agree with a cache-less engine.

use brsmn_core::{
    with_thread_batch_planner, with_thread_scratch, Brsmn, CapturedPlan, CoreError, Engine,
    EngineConfig, EngineStats, MulticastAssignment, StageTimer,
};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

/// Builds a valid multicast assignment from a per-output source choice
/// (each output claimed by at most one input — always realizable).
fn assignment_from_choices(n: usize, choices: &[Option<usize>]) -> MulticastAssignment {
    let mut sets = vec![Vec::new(); n];
    for (o, c) in choices.iter().enumerate() {
        if let Some(src) = c {
            sets[*src].push(o);
        }
    }
    MulticastAssignment::from_sets(n, sets).expect("choices form a valid assignment")
}

/// One frame drawn from three load shapes: **dense**, **sparse**, and
/// **α-heavy** (a handful of sources share all outputs).
fn shaped(n: usize) -> impl Strategy<Value = MulticastAssignment> {
    (
        0u8..3,
        vec(option::weighted(0.9, 0..n), n),
        1usize..=4,
        vec(0usize..4, n),
    )
        .prop_map(move |(shape, choices, k, picks)| match shape {
            0 => assignment_from_choices(n, &choices),
            1 => {
                let thinned: Vec<Option<usize>> = choices
                    .iter()
                    .enumerate()
                    .map(|(o, c)| if o % 3 == 0 { *c } else { None })
                    .collect();
                assignment_from_choices(n, &thinned)
            }
            _ => {
                let choices: Vec<Option<usize>> =
                    picks.iter().map(|&i| Some((i % k) * n / 4)).collect();
                assignment_from_choices(n, &choices)
            }
        })
}

fn sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(16), Just(64), Just(256)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_lanes_match_the_reference_router_across_shapes(
        (n, asg) in sizes().prop_flat_map(|n| (Just(n), shaped(n)))
    ) {
        let net = Brsmn::new(n).expect("valid size");
        let fast = net.route(&asg).expect("fast path routes");
        let reference = net.route_reference(&asg).expect("reference routes");
        prop_assert_eq!(&fast, &reference);
        prop_assert!(fast.realizes(&asg));
    }

    #[test]
    fn batch_planner_matches_per_frame_on_results_settings_and_traces(
        (n, frames) in prop_oneof![Just(8usize), Just(16), Just(64)]
            .prop_flat_map(|n| (Just(n), vec(shaped(n), 1..=9)))
    ) {
        let net = Brsmn::new(n).expect("valid size");
        let fr = frames.len();
        let refs: Vec<&MulticastAssignment> = frames.iter().collect();
        let mut caps: Vec<CapturedPlan> = (0..fr)
            .map(|_| CapturedPlan::new(n).expect("valid size"))
            .collect();
        let mut timer = StageTimer::new();
        let results = with_thread_batch_planner(n, fr, |bp| {
            bp.route_frames(net.wiring(), &refs, &mut timer, Some(&mut caps))?;
            Ok::<_, CoreError>((0..fr).map(|f| bp.frame_result(f)).collect::<Vec<_>>())
        })
        .expect("lockstep batch routes");

        for (f, asg) in frames.iter().enumerate() {
            let (want_r, want_plan) =
                with_thread_scratch(n, |s| net.route_capture(asg, s)).expect("capture routes");
            prop_assert_eq!(&results[f], &want_r);
            // Whole setting tensors compare equal: every switch of every
            // stage of every level, plus the final column.
            prop_assert_eq!(&caps[f], &want_plan);
            // And the traced replay of the batch-captured plan reproduces
            // the per-frame trace exactly.
            let (replay_r, replay_trace) =
                with_thread_scratch(n, |s| net.route_replay_traced(asg, &caps[f], s))
                    .expect("replay routes");
            let (traced_r, want_trace) = net.route_traced(asg).expect("traced route");
            prop_assert_eq!(&replay_r, &traced_r);
            prop_assert_eq!(&replay_trace, &want_trace);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_dispatch_matches_per_frame_under_mixed_cache_traffic(
        (n, pool, picks) in sizes().prop_flat_map(|n| {
            (Just(n), vec(shaped(n), 3..=5), vec(any::<u8>(), 1..=20))
        })
    ) {
        // Duplicated picks from a small pool + a pre-warmed first frame
        // make the measured batch a genuine hit/miss mix for the cache.
        let batch: Vec<MulticastAssignment> = picks
            .iter()
            .map(|&i| pool[i as usize % pool.len()].clone())
            .collect();
        let warm = vec![pool[0].clone()];

        let cfg = EngineConfig::batch(1).with_plan_cache(64);
        let batched = Engine::with_config(n, cfg).expect("valid size");
        let per_frame = Engine::with_config(n, cfg).expect("valid size");
        let oracle = Engine::with_config(n, EngineConfig::batch(1)).expect("valid size");

        assert!(batched.route_batch(&warm).results[0].is_ok());
        assert!(per_frame.route_batch(&warm).results[0].is_ok());

        let a = batched.route_batch(&batch);
        // The per-frame oracle: the same frames, one route_batch call each.
        let mut b = EngineStats::empty(n);
        let b_results: Vec<_> = batch
            .iter()
            .map(|asg| {
                let (r, s) = per_frame.route_one(asg);
                b.merge(&s);
                r
            })
            .collect();
        let c = oracle.route_batch(&batch);
        for ((x, y), z) in a.results.iter().zip(&b_results).zip(&c.results) {
            let x = x.as_ref().expect("shaped frames route");
            prop_assert_eq!(x, y.as_ref().expect("shaped frames route"));
            prop_assert_eq!(x, z.as_ref().expect("shaped frames route"));
        }
        // The batched dispatch must preserve the per-frame driver's cache
        // accounting exactly, not just its outputs.
        prop_assert_eq!(a.stats.plan_hits, b.plan_hits);
        prop_assert_eq!(a.stats.plan_canonical_hits, b.plan_canonical_hits);
        prop_assert_eq!(a.stats.plan_misses, b.plan_misses);
        prop_assert_eq!(a.stats.stages.switch_settings, b.stages.switch_settings);
        prop_assert_eq!(a.stats.stages.sweep_passes, b.stages.sweep_passes);
    }
}
