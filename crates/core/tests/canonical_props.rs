//! Acceptance properties of the canonical cache tier: canonicalization is
//! a **total, idempotent** map whose fibers are exactly the relabeling
//! classes (any two input/output relabelings of a frame share one
//! representative and one fingerprint); the permuted replay path serves a
//! relabeled frame **bit-identically** to fresh planning from another
//! member's captured plan; and the whole working set survives a snapshot
//! round-trip — a warm-started engine replays every frame on first sight.

use brsmn_core::{
    canonicalize, relabel_inputs, relabel_outputs, Brsmn, Engine, EngineConfig,
    MulticastAssignment, PlanCache, RouteScratch,
};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
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

/// A uniformly shuffled permutation of `0..n` (Fisher–Yates driven by
/// sampled swap keys).
fn permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    vec(0u64..u64::MAX, n).prop_map(move |keys| {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            idx.swap(i, (keys[i] % (i as u64 + 1)) as usize);
        }
        idx
    })
}

/// A frame plus two independent (input, output) relabeling pairs.
fn frame_with_relabelings() -> impl Strategy<
    Value = (
        usize,
        MulticastAssignment,
        (Vec<usize>, Vec<usize>),
        (Vec<usize>, Vec<usize>),
    ),
> {
    prop_oneof![Just(8usize), Just(16), Just(64)].prop_flat_map(|n| {
        (
            Just(n),
            shaped(n),
            (permutation(n), permutation(n)),
            (permutation(n), permutation(n)),
        )
    })
}

/// Applies an (input, output) relabeling pair to a frame.
fn relabel(a: &MulticastAssignment, (ip, op): &(Vec<usize>, Vec<usize>)) -> MulticastAssignment {
    relabel_inputs(&relabel_outputs(a, op), ip)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is idempotent, and its output permutations really
    /// do map the live frame onto the representative — the defining law
    /// `relabel_inputs(relabel_outputs(a, output_perm), input_perm) == canonical`.
    #[test]
    fn canonicalize_is_idempotent_and_its_perms_reach_the_representative(
        (n, asg, _, _) in frame_with_relabelings(),
    ) {
        let c = canonicalize(&asg);
        prop_assert_eq!(
            relabel(&asg, &(c.input_perm.clone(), c.output_perm.clone())),
            c.canonical.clone()
        );

        let again = canonicalize(&c.canonical);
        prop_assert_eq!(&again.canonical, &c.canonical);
        let identity: Vec<usize> = (0..n).collect();
        prop_assert_eq!(&again.input_perm, &identity);
        prop_assert_eq!(&again.output_perm, &identity);
    }

    /// The representative is built without `from_sets`' validation, so
    /// check it here: rebuilding it through `from_sets` from its own sets
    /// succeeds and gives back the same value, for the frame and its
    /// relabelings alike.
    #[test]
    fn canonical_form_revalidates((n, asg, pair1, pair2) in frame_with_relabelings()) {
        for a in [asg.clone(), relabel(&asg, &pair1), relabel(&asg, &pair2)] {
            let c = canonicalize(&a).canonical;
            let sets: Vec<Vec<usize>> = c.iter().map(|(_, d)| d.to_vec()).collect();
            let rebuilt = MulticastAssignment::from_sets(n, sets).unwrap();
            prop_assert!(rebuilt.iter().eq(c.iter()));
            prop_assert_eq!(rebuilt, c);
        }
    }

    /// Any two relabelings of one frame canonicalize to the same
    /// representative and the same fingerprint — the soundness of keying a
    /// cache tier on the canonical form.
    #[test]
    fn relabelings_share_representative_and_fingerprint(
        (_, asg, pair1, pair2) in frame_with_relabelings(),
    ) {
        let (a, b) = (relabel(&asg, &pair1), relabel(&asg, &pair2));
        let (ca, cb) = (canonicalize(&a), canonicalize(&b));
        prop_assert_eq!(&ca.canonical, &cb.canonical);
        prop_assert_eq!(ca.fingerprint(), cb.fingerprint());
        prop_assert_eq!(&ca.canonical, &canonicalize(&asg).canonical);
    }

    /// One member's captured plan serves any other member through the
    /// cache's composed permutation maps, bit-identical to fresh planning
    /// of the live frame.
    #[test]
    fn permuted_replay_is_bit_identical_to_fresh_planning(
        (n, asg, pair1, pair2) in frame_with_relabelings(),
    ) {
        let donor = relabel(&asg, &pair1);
        let live = relabel(&asg, &pair2);

        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        let (_, plan) = net.route_capture(&donor, &mut scratch).unwrap();

        // Store the donor's plan under the class key, then probe with the
        // live member exactly as the engine does.
        let cache = PlanCache::new(8);
        cache.insert_canonical(&canonicalize(&donor), Arc::new(plan));
        let hit = cache.lookup_canonical(&canonicalize(&live)).unwrap();

        let replayed = net
            .route_replay_permuted(&live, &hit.plan, &hit.input_map, &hit.output_map, &mut scratch)
            .unwrap();
        let fresh = net.route(&live).unwrap();
        prop_assert_eq!(&replayed, &fresh);
        prop_assert!(replayed.realizes(&live));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End to end through the engine: a churn batch (every frame a distinct
    /// relabeling of one shape) misses the exact tier but rides the
    /// canonical tier, with results identical to a cache-less engine — and
    /// after a snapshot round-trip a warm engine replays every frame on
    /// first sight.
    #[test]
    fn churn_batches_ride_the_canonical_tier_and_survive_snapshots(
        (n, asg, _, _) in frame_with_relabelings(),
        shifts in vec(1usize..8, 4..=6),
    ) {
        // Distinct relabelings by rotating ports with coprime-ish shifts;
        // dedup below keeps the accounting exact even when two coincide.
        let mut batch = vec![asg.clone()];
        for (k, s) in shifts.iter().enumerate() {
            let rot: Vec<usize> = (0..n).map(|i| (i + s + k) % n).collect();
            batch.push(relabel(&asg, &(rot.clone(), rot)));
        }

        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        let want = plain.route_batch(&batch);
        let cold = cached.route_batch(&batch);
        for (a, b) in want.results.iter().zip(&cold.results) {
            prop_assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }

        // One class: exactly one fresh plan (frame 0's, the only exact-tier
        // resident). Every later frame equal to frame 0 hits exactly;
        // everything else — including repeats of canonically-served frames,
        // which are never promoted into the exact tier — hits canonically.
        let repeats_of_first = batch[1..].iter().filter(|f| **f == batch[0]).count() as u64;
        prop_assert_eq!(cold.stats.plan_misses, 1);
        prop_assert_eq!(cold.stats.plan_exact_hits, repeats_of_first);
        prop_assert_eq!(
            cold.stats.plan_canonical_hits,
            batch.len() as u64 - 1 - repeats_of_first,
            "every relabeled frame must hit canonically"
        );
        prop_assert_eq!(
            cold.stats.plan_hits + cold.stats.plan_misses,
            batch.len() as u64
        );

        // Snapshot → fresh cache → warm engine: zero fresh planning, and
        // identical hit behavior on a probe batch.
        let snap = cached.plan_cache().unwrap().snapshot();
        let warmed = Arc::new(PlanCache::new(64));
        let loaded = warmed.load_snapshot(&snap).unwrap();
        prop_assert_eq!(loaded.loaded, 1);

        let mut warm_engine =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        warm_engine.share_plan_cache(Arc::clone(&warmed));
        let warm = warm_engine.route_batch(&batch);
        for (a, b) in want.results.iter().zip(&warm.results) {
            prop_assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        prop_assert_eq!(warm.stats.plan_misses, 0, "snapshot-warmed engine plans nothing");
        prop_assert_eq!(warm.stats.plan_hits, batch.len() as u64);
        prop_assert_eq!(warm.stats.plan_snapshot_loaded, 1);
    }
}
