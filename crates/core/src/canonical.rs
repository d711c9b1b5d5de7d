//! Canonicalization of multicast assignments up to input/output relabeling
//! — the equivalence the canonical plan-cache tier hits on.
//!
//! Two assignments are *relabeling-equivalent* when one maps onto the other
//! by composing [`crate::algebra::relabel_inputs`] and
//! [`crate::algebra::relabel_outputs`] with some pair of permutations: the
//! same multicast **shape** with different participants. Under churn-heavy
//! conference traffic that is exactly how frames recur — a session keeps its
//! fanout profile while members come and go — so a cache keyed on the
//! canonical representative hits where an exact-assignment key misses.
//!
//! # The canonical form
//!
//! [`canonicalize`] sorts the active inputs by fanout (descending, ties by
//! input index) and hands rank `r` the next run of consecutive outputs:
//! input 0 gets the largest destination set as `{0, …, f₀−1}`, input 1 the
//! next as `{f₀, …, f₀+f₁−1}`, and so on; idle inputs and unclaimed outputs
//! fill the remaining positions in index order. The result depends only on
//! the *multiset of fanouts* — which is invariant under any relabeling — so
//! equivalent assignments canonicalize to the identical representative (the
//! property `canonical_props` pins), and the representative of a canonical
//! form is itself (idempotence).
//!
//! The returned permutations satisfy, in `algebra` terms,
//!
//! ```text
//! relabel_inputs(&relabel_outputs(asg, &output_perm), &input_perm)
//!     == canonical
//! ```
//!
//! which is what lets a cached plan captured for *one* member of the class
//! serve *every* member: place each live source at the plan's corresponding
//! input position, execute the captured setting planes verbatim, and read
//! each live output from the plan's corresponding output position (see
//! `fastpath::route_assignment_replay_permuted`).

use crate::assignment::MulticastAssignment;

/// An assignment reduced to its relabeling-equivalence class: the canonical
/// representative plus the permutations mapping the live assignment onto it.
///
/// Produced by [`canonicalize`]; consumed by the canonical tier of
/// [`crate::PlanCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonicalized {
    /// The canonical representative of the equivalence class — identical
    /// for every relabeling of the same shape.
    pub canonical: MulticastAssignment,
    /// Input permutation: live input `i` occupies canonical position
    /// `input_perm[i]`.
    pub input_perm: Vec<usize>,
    /// Output permutation: live output `d` occupies canonical position
    /// `output_perm[d]`.
    pub output_perm: Vec<usize>,
}

impl Canonicalized {
    /// The class fingerprint, the key of the cache's canonical tier: a
    /// hash of `n` and the representative's fanout sequence (non-increasing
    /// from input 0 up to the first idle input), which determines the
    /// representative. It mixes one word per active input, where
    /// [`crate::plan_fingerprint`] of the representative would mix one per
    /// destination; the tier still guards every hit with full equality of
    /// the representatives.
    pub fn fingerprint(&self) -> u64 {
        let fanouts = self
            .canonical
            .iter()
            .map(|(_, d)| d.len())
            .take_while(|&f| f > 0);
        crate::plancache::fingerprint_fanouts(self.canonical.n(), fanouts)
    }
}

/// Reduces `asg` to its canonical representative and the permutation pair
/// mapping `asg` onto it. Order-independent: any two
/// relabelings of one assignment produce the **same** `canonical` (their
/// permutations differ — each maps its own labels home).
///
/// ```
/// use brsmn_core::{canonicalize, relabel_outputs, MulticastAssignment};
///
/// let a = MulticastAssignment::from_sets(
///     4,
///     vec![vec![1, 3], vec![], vec![0], vec![]],
/// )
/// .unwrap();
/// // Relabel the outputs: same shape, different participants.
/// let b = relabel_outputs(&a, &[2, 0, 3, 1]);
///
/// let ca = canonicalize(&a);
/// let cb = canonicalize(&b);
/// assert_eq!(ca.canonical, cb.canonical, "one class, one representative");
/// // The canonical form packs the largest fanout first: {0,1}, then {2}.
/// assert_eq!(ca.canonical.dests(0), &[0, 1]);
/// assert_eq!(ca.canonical.dests(1), &[2]);
/// ```
pub fn canonicalize(asg: &MulticastAssignment) -> Canonicalized {
    let n = asg.n();
    // Rank the active inputs by fanout, largest first; ties break on the
    // input index purely to make *this member's* permutation deterministic
    // — any tie order yields the same canonical assignment. The keys are
    // distinct, so an unstable sort gives the same order.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    order.extend((0..n).filter(|&i| !asg.dests(i).is_empty()));
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(asg.dests(i).len()), i));

    const UNSET: usize = usize::MAX;
    let mut input_perm = vec![UNSET; n];
    let mut output_perm = vec![UNSET; n];
    let mut sets = Vec::with_capacity(n);
    let mut next_out = 0usize;
    for (rank, &i) in order.iter().enumerate() {
        input_perm[i] = rank;
        let dests = asg.dests(i);
        // The k-th smallest live destination lands on the k-th slot of the
        // rank's consecutive output run.
        for (k, &d) in dests.iter().enumerate() {
            output_perm[d] = next_out + k;
        }
        sets.push((next_out..next_out + dests.len()).collect());
        next_out += dests.len();
    }
    let claimed = next_out;
    sets.resize_with(n, Vec::new);
    // Idle inputs and unclaimed outputs take the remaining positions in
    // index order — full bijections, so permuted replay can address every
    // line.
    let mut next_rank = order.len();
    for p in input_perm.iter_mut() {
        if *p == UNSET {
            *p = next_rank;
            next_rank += 1;
        }
    }
    for p in output_perm.iter_mut() {
        if *p == UNSET {
            *p = next_out;
            next_out += 1;
        }
    }
    // Consecutive runs starting at 0 are sorted, disjoint and in range by
    // construction, so the representative skips `from_sets`' validation.
    // Debug builds check the tiling (without allocating, so the hit's
    // allocation count is the same in every build).
    debug_assert!(sets.iter().flatten().copied().eq(0..claimed));
    Canonicalized {
        canonical: MulticastAssignment::from_valid_sets(n, sets),
        input_perm,
        output_perm,
    }
}

/// Inverts a permutation of `0..n`: `invert_permutation(p)[p[i]] == i`.
///
/// The canonical cache tier stores the *inverse* of the representative's
/// canonicalization permutations, so a hit composes "live → canonical →
/// representative" with two array reads per line.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{relabel_inputs, relabel_outputs};

    fn asg(n: usize, sets: Vec<Vec<usize>>) -> MulticastAssignment {
        MulticastAssignment::from_sets(n, sets).unwrap()
    }

    #[test]
    fn canonical_form_packs_fanouts_descending() {
        let a = asg(8, vec![
            vec![6],
            vec![],
            vec![0, 2, 5],
            vec![],
            vec![1, 7],
            vec![],
            vec![],
            vec![],
        ]);
        let c = canonicalize(&a);
        assert_eq!(c.canonical.dests(0), &[0, 1, 2]);
        assert_eq!(c.canonical.dests(1), &[3, 4]);
        assert_eq!(c.canonical.dests(2), &[5]);
        assert!(c.canonical.dests(3).is_empty());
        // Input 2 (fanout 3) ranks first; input 4 (fanout 2) second.
        assert_eq!(c.input_perm[2], 0);
        assert_eq!(c.input_perm[4], 1);
        assert_eq!(c.input_perm[0], 2);
        // The permutations really map the live assignment onto the form.
        let mapped = relabel_inputs(&relabel_outputs(&a, &c.output_perm), &c.input_perm);
        assert_eq!(mapped, c.canonical);
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let a = asg(8, vec![
            vec![3, 4],
            vec![],
            vec![0],
            vec![],
            vec![1, 2, 6],
            vec![],
            vec![],
            vec![],
        ]);
        let c = canonicalize(&a);
        let cc = canonicalize(&c.canonical);
        assert_eq!(cc.canonical, c.canonical);
        let id: Vec<usize> = (0..8).collect();
        assert_eq!(cc.input_perm, id);
        assert_eq!(cc.output_perm, id);
    }

    #[test]
    fn relabelings_share_one_representative() {
        let a = asg(8, vec![
            vec![0, 5],
            vec![],
            vec![2],
            vec![],
            vec![1, 3, 7],
            vec![],
            vec![],
            vec![],
        ]);
        let rot_in: Vec<usize> = (0..8).map(|i| (i + 3) % 8).collect();
        let rot_out: Vec<usize> = (0..8).map(|d| (d + 5) % 8).collect();
        let b = relabel_inputs(&a, &rot_in);
        let c = relabel_outputs(&b, &rot_out);
        assert_ne!(a, c);
        assert_eq!(canonicalize(&a).canonical, canonicalize(&c).canonical);
        assert_eq!(
            canonicalize(&a).fingerprint(),
            canonicalize(&c).fingerprint()
        );
    }

    #[test]
    fn invert_permutation_round_trips() {
        let p = vec![3usize, 0, 2, 1];
        let inv = invert_permutation(&p);
        assert_eq!(inv, vec![1, 3, 2, 0]);
        for (i, &pi) in p.iter().enumerate() {
            assert_eq!(inv[pi], i);
        }
    }

    #[test]
    fn empty_assignment_canonicalizes_to_itself() {
        let a = MulticastAssignment::empty(4).unwrap();
        let c = canonicalize(&a);
        assert_eq!(c.canonical, a);
        assert_eq!(c.input_perm, vec![0, 1, 2, 3]);
        assert_eq!(c.output_perm, vec![0, 1, 2, 3]);
    }
}
