//! Acceptance properties of the plan-capture cache: a replayed plan is
//! **bit-identical** to fresh planning — same routing result, same per-level
//! trace, same final settings table — across dense, sparse and α-heavy
//! multicasts; the assignment fingerprint is order-independent but never
//! trusted alone (a colliding fingerprint with a different assignment is a
//! miss, not a wrong plan); and an [`Engine`] under LRU pressure (capacity 1,
//! capacity < distinct frames) stays correct while evicting.

use brsmn_core::plancache::fingerprint_inputs;
use brsmn_core::{
    canonicalize, plan_fingerprint, relabel_inputs, relabel_outputs, Brsmn, Engine, EngineConfig,
    EngineStats, MulticastAssignment, PlanCache, RouteScratch,
};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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
/// **α-heavy** (a handful of sources share all outputs, so destination sets
/// straddle both halves at every level).
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

/// [`assignment_from_choices`] for any `n ≥ 1`. `from_sets` rejects
/// n = 1 as a network size, but such a value can still arrive through
/// deserialization, and equality must stay lawful on it.
fn frame_any_size(n: usize, choices: &[Option<usize>]) -> MulticastAssignment {
    if n >= 2 {
        return assignment_from_choices(n, choices);
    }
    let mut sets = vec![Vec::new(); n];
    for (o, c) in choices.iter().enumerate() {
        if let Some(src) = c {
            sets[*src].push(o);
        }
    }
    serde_json::from_str(&format!("{{\"n\":{n},\"dests\":{sets:?}}}")).unwrap()
}

/// Two frames for the equality law, over n ∈ {1, 2, 4, 8, 64}. `a` is
/// nearly idle (each output claimed with probability 0.05) or dense; `b`
/// is `a` itself, `a` with one output toggled, `a` with one input
/// silenced, an independent frame, or a frame of twice the size.
fn equality_pairs() -> impl Strategy<Value = (MulticastAssignment, MulticastAssignment)> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(64)].prop_flat_map(|n| {
        (
            any::<bool>(),
            vec(option::weighted(0.05, 0..n), n),
            vec(option::weighted(0.9, 0..n), n),
            0u8..5,
            (0..n, 0..n),
        )
            .prop_map(move |(idle, sparse, dense, kind, (x, y))| {
                let choices = if idle { sparse } else { dense.clone() };
                let a = frame_any_size(n, &choices);
                let b = match kind {
                    0 => a.clone(),
                    1 => {
                        let mut c = choices;
                        c[x] = if c[x].is_some() { None } else { Some(y) };
                        frame_any_size(n, &c)
                    }
                    2 => {
                        let c: Vec<Option<usize>> =
                            choices.iter().map(|&s| s.filter(|&s| s != y)).collect();
                        frame_any_size(n, &c)
                    }
                    3 => frame_any_size(n, &dense),
                    _ => MulticastAssignment::empty(2 * n).unwrap(),
                };
                (a, b)
            })
    })
}

/// One frame over n ∈ {8, 16, 64}.
fn frames() -> impl Strategy<Value = (usize, MulticastAssignment)> {
    prop_oneof![Just(8usize), Just(16), Just(64)].prop_flat_map(|n| (Just(n), shaped(n)))
}

/// A batch of frames over one shared size.
fn frame_batches() -> impl Strategy<Value = (usize, Vec<MulticastAssignment>)> {
    prop_oneof![Just(8usize), Just(16), Just(64)]
        .prop_flat_map(|n| (Just(n), vec(shaped(n), 6..=10)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Capture → replay reproduces the fresh route bit for bit: result,
    /// full per-level trace, and the settings table left in the scratch
    /// arena all coincide.
    #[test]
    fn replay_is_bit_identical_to_fresh_planning((n, asg) in frames()) {
        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();

        let (want_r, want_t) = net.route_traced(&asg).unwrap();
        let want_settings = {
            net.route_into(&asg, &mut scratch).unwrap();
            scratch.settings_table().clone()
        };

        let (captured_r, plan) = net.route_capture(&asg, &mut scratch).unwrap();
        prop_assert_eq!(&captured_r, &want_r, "capturing perturbed the route");

        let (replay_r, replay_t) = net.route_replay_traced(&asg, &plan, &mut scratch).unwrap();
        prop_assert_eq!(&replay_r, &want_r);
        prop_assert_eq!(&replay_t, &want_t);
        prop_assert_eq!(scratch.settings_table(), &want_settings);

        // The lean (untraced) replay delivers the same source table.
        net.route_replay_into(&asg, &plan, &mut scratch).unwrap();
        let from_arena: Vec<Option<usize>> = scratch.output_sources().collect();
        let explicit: Vec<Option<usize>> = (0..n).map(|o| want_r.output_source(o)).collect();
        prop_assert_eq!(from_arena, explicit);
    }

    /// The fingerprint hashes the *set* of (input, destination-set) pairs:
    /// feeding the inputs in any order gives the same key, while nearby
    /// assignments (one destination moved) get different keys — and even a
    /// forced key collision cannot produce a wrong plan, because lookup
    /// compares the full assignment.
    #[test]
    fn fingerprint_is_order_independent_but_collision_checked(
        (n, asg) in frames(),
        rot in 0usize..64,
    ) {
        let inputs: Vec<(usize, &[usize])> = asg.iter().filter(|(_, d)| !d.is_empty()).collect();
        prop_assume!(!inputs.is_empty());
        let mut rotated = inputs.clone();
        rotated.rotate_left(rot % inputs.len());
        let mut reversed = inputs.clone();
        reversed.reverse();
        let fp = plan_fingerprint(&asg);
        prop_assert_eq!(fingerprint_inputs(n, inputs), fp);
        prop_assert_eq!(fingerprint_inputs(n, rotated), fp);
        prop_assert_eq!(fingerprint_inputs(n, reversed), fp);

        // Move one destination to a different output: the assignment
        // differs, and whatever its fingerprint, a lookup under the
        // original key must refuse to serve the original plan for it.
        let (src, dests) = asg
            .iter()
            .find(|(_, d)| !d.is_empty())
            .map(|(i, d)| (i, d.to_vec()))
            .unwrap();
        let vacant = (0..n).find(|o| asg.source_of_output(*o).is_none());
        prop_assume!(vacant.is_some());
        let mut sets: Vec<Vec<usize>> = (0..n).map(|i| asg.dests(i).to_vec()).collect();
        sets[src] = {
            let mut d = dests.clone();
            d[0] = vacant.unwrap();
            d.sort_unstable();
            d
        };
        let other = MulticastAssignment::from_sets(n, sets).unwrap();
        prop_assert_ne!(&other, &asg);

        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        let (_, plan) = net.route_capture(&asg, &mut scratch).unwrap();
        let cache = PlanCache::new(8);
        cache.insert(fp, &asg, Arc::new(plan));
        // Same key, different assignment: the equality check turns the
        // would-be collision into a miss.
        prop_assert!(cache.lookup(fp, &other).is_none());
        prop_assert!(cache.lookup(fp, &asg).is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The plan cache's collision guard is `MulticastAssignment`'s
    /// hand-written, length-first equality. It must agree with comparing
    /// the sizes and every `(input, destination set)` pair, on nearly idle
    /// frames and n = 1 included.
    #[test]
    fn equality_agrees_with_pairwise_comparison((a, b) in equality_pairs()) {
        let pairwise = a.n() == b.n() && a.iter().eq(b.iter());
        prop_assert_eq!(a == b, pairwise);
        prop_assert_eq!(b == a, pairwise);
        prop_assert!(a == a.clone());
    }

    /// A replay of a plan captured for *another* assignment never returns
    /// `Ok` with a wrong delivery: here the plan is for `a` minus one
    /// input, so replaying it for `a` drops that input's messages. Exact
    /// and (identity-)permuted replay either reject the frame or realize
    /// it exactly.
    #[test]
    fn replay_of_a_foreign_plan_errs_or_realizes(
        choices in vec(option::weighted(0.8, 0..8usize), 8),
        drop_pick in 0usize..8,
    ) {
        let n = 8;
        let a = assignment_from_choices(n, &choices);
        let live: Vec<usize> = (0..n).filter(|&i| !a.dests(i).is_empty()).collect();
        prop_assume!(!live.is_empty());
        let dropped = live[drop_pick % live.len()];
        let without: Vec<Option<usize>> =
            choices.iter().map(|&c| c.filter(|&s| s != dropped)).collect();
        let b = assignment_from_choices(n, &without);

        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        let (_, plan) = net.route_capture(&b, &mut scratch).unwrap();
        let identity: Vec<usize> = (0..n).collect();
        let exact = net.route_replay(&a, &plan, &mut scratch);
        let permuted = net.route_replay_permuted(&a, &plan, &identity, &identity, &mut scratch);
        for r in [exact, permuted].into_iter().flatten() {
            prop_assert!(r.realizes(&a), "replay returned Ok without realizing {}", a);
        }
    }
}

/// The case that showed the delivery check missing dropped messages: the
/// plan of `b` (= `a` without input 7) replayed for `a` leaves output 4
/// idle. Before the connection count was checked, the replay returned `Ok`.
#[test]
fn replay_that_drops_a_message_is_rejected() {
    let n = 8;
    let a = MulticastAssignment::from_sets(
        n,
        vec![vec![2], vec![6, 7], vec![1], vec![], vec![], vec![0, 3], vec![], vec![4]],
    )
    .unwrap();
    let b = MulticastAssignment::from_sets(
        n,
        vec![vec![2], vec![6, 7], vec![1], vec![], vec![], vec![0, 3], vec![], vec![]],
    )
    .unwrap();
    let net = Brsmn::new(n).unwrap();
    let mut scratch = RouteScratch::new(n).unwrap();
    let (_, plan) = net.route_capture(&b, &mut scratch).unwrap();
    let identity: Vec<usize> = (0..n).collect();

    assert!(net.route_replay(&a, &plan, &mut scratch).is_err());
    assert!(net.route_replay_into(&a, &plan, &mut scratch).is_err());
    assert!(net
        .route_replay_permuted(&a, &plan, &identity, &identity, &mut scratch)
        .is_err());
    // The plan still serves the assignment it was captured for.
    assert!(net.route_replay(&b, &plan, &mut scratch).unwrap().realizes(&b));
}

/// The per-stage counters an engine records: blocks per level, switch
/// settings, final-stage switches.
fn stage_counts(stats: &EngineStats) -> (Vec<u64>, u64, u64) {
    (
        stats.stages.levels.iter().map(|l| l.blocks).collect(),
        stats.stages.switch_settings,
        stats.stages.final_switches,
    )
}

/// At every size n = 2 … 1024, an exact-tier replay and a canonical-tier
/// (permuted) replay deliver what fresh planning delivers, and record the
/// same block, setting and final-switch counts in `EngineStats.stages`.
#[test]
fn replays_match_fresh_results_and_stage_counts_at_every_size() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for m in 1..=10 {
        let n = 1usize << m;
        let choices: Vec<Option<usize>> = (0..n)
            .map(|_| rng.gen_bool(0.9).then(|| rng.gen_range(0..n)))
            .collect();
        let asg = assignment_from_choices(n, &choices);
        let shift = rng.gen_range(1..n);
        let rot: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
        let relabeled = relabel_inputs(&relabel_outputs(&asg, &rot), &rot);

        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(8)).unwrap();
        let (fresh, fresh_stats) = plain.route_one(&asg);
        let (fresh_rel, fresh_rel_stats) = plain.route_one(&relabeled);
        let fresh = fresh.unwrap();
        let fresh_rel = fresh_rel.unwrap();

        let (captured, _) = cached.route_one(&asg);
        assert_eq!(captured.unwrap(), fresh, "n = {n}: capture");
        let (exact, exact_stats) = cached.route_one(&asg);
        assert_eq!(exact_stats.plan_exact_hits, 1, "n = {n}: exact hit");
        assert_eq!(exact.unwrap(), fresh, "n = {n}: exact replay");
        assert_eq!(stage_counts(&exact_stats), stage_counts(&fresh_stats), "n = {n}");

        if relabeled != asg {
            assert_eq!(canonicalize(&relabeled).canonical, canonicalize(&asg).canonical);
            let (permuted, permuted_stats) = cached.route_one(&relabeled);
            assert_eq!(permuted_stats.plan_canonical_hits, 1, "n = {n}: canonical hit");
            assert_eq!(permuted.unwrap(), fresh_rel, "n = {n}: permuted replay");
            assert_eq!(
                stage_counts(&permuted_stats),
                stage_counts(&fresh_rel_stats),
                "n = {n}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An engine whose cache is far too small (capacity 1, then capacity
    /// below the number of distinct frames) keeps evicting and re-capturing
    /// — and every delivered frame still matches the cache-less engine.
    #[test]
    fn eviction_pressure_never_corrupts_results((n, batch) in frame_batches()) {
        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        // Cycle the batch three times so evicted plans get re-requested.
        let cycled: Vec<MulticastAssignment> = batch
            .iter()
            .cycle()
            .take(batch.len() * 3)
            .cloned()
            .collect();
        let want = plain.route_batch(&cycled);
        for capacity in [1usize, (batch.len() / 2).max(1)] {
            let cached = Engine::with_config(
                n,
                EngineConfig::sequential().with_plan_cache(capacity),
            )
            .unwrap();
            let got = cached.route_batch(&cycled);
            for (a, b) in want.results.iter().zip(&got.results) {
                prop_assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            }
            prop_assert_eq!(
                got.stats.plan_hits + got.stats.plan_misses,
                cycled.len() as u64
            );
            let resident = cached.plan_cache().unwrap().len();
            prop_assert!(resident <= capacity, "{} plans in a {}-plan cache", resident, capacity);
        }
    }
}
