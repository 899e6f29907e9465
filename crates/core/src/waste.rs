//! The expected-waste distance function (Section 4.1 of the paper).
//!
//! When two cells (or cell sets) `a` and `b` are combined into one
//! multicast group, every event published in `a` is also delivered to
//! the subscribers interested only in `b`, and vice versa. The expected
//! number of such unwanted deliveries is the clustering distance:
//!
//! `d(a, b) = p_p(a)·|s(b) \ s(a)| + p_p(b)·|s(a) \ s(b)|`
//!
//! (Members the two sides share cost nothing; only disagreement is
//! waste, weighted by how often each side's events fire.)
//!
//! Note: the paper's formula as printed pairs `p_p(a)` with
//! `|s(a) \ s(b)|`; the prose defines `d` as "the expected number of
//! messages sent to subscribers who are not interested in them", which
//! pairs each side's publication probability with the *other* side's
//! exclusive members — an event in `a` wastes deliveries on subscribers
//! who are only in `s(b)`. We implement the semantics (both variants are
//! symmetric and coincide when `p_p(a) = p_p(b)`).

use crate::membership::BitSet;

/// Expected waste of merging member sets `a` (publication mass `pa`)
/// and `b` (mass `pb`) into one multicast group.
///
/// # Panics
///
/// Panics if the two sets have different universes.
///
/// # Examples
///
/// ```
/// use pubsub_core::{expected_waste, BitSet};
///
/// let a = BitSet::from_members(10, [0, 1]);
/// let b = BitSet::from_members(10, [1, 2, 3]);
/// // Events in a (mass 0.5) waste on {2, 3}; events in b (mass 0.25)
/// // waste on {0}.
/// assert_eq!(expected_waste(0.5, &a, 0.25, &b), 0.5 * 2.0 + 0.25 * 1.0);
/// ```
pub fn expected_waste(pa: f64, a: &BitSet, pb: f64, b: &BitSet) -> f64 {
    let (only_a, only_b) = a.waste_counts(b);
    pa * only_b as f64 + pb * only_a as f64
}

/// Weighted expected waste: each member `i` of the exclusive sets
/// counts `weights[i]` deliveries. The aggregation layer clusters over
/// canonical classes, where class `i` stands for `weights[i]` concrete
/// subscribers; the weighted integer counts then equal the concrete
/// counts exactly, so this produces bit-for-bit the same `f64` as
/// [`expected_waste`] over the expanded memberships.
pub(crate) fn expected_waste_weighted(
    pa: f64,
    a: &BitSet,
    pb: f64,
    b: &BitSet,
    weights: &[u64],
) -> f64 {
    let (only_a, only_b) = a.weighted_waste_counts(b, weights);
    pa * only_b as f64 + pb * only_a as f64
}

/// The popularity rating `r(a) = p_p(a) · |s(a)|` used to rank
/// hyper-cells before truncation (Section 4.1, "Implementation Notes").
pub fn popularity(prob: f64, members: &BitSet) -> f64 {
    prob * members.count() as f64
}

/// Weighted popularity: `p_p(a) · Σ weights[i]` over the members —
/// equal to [`popularity`] over the expanded concrete membership.
pub(crate) fn popularity_weighted(prob: f64, members: &BitSet, weights: &[u64]) -> f64 {
    prob * members.weighted_count(weights) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_for_identical_membership() {
        let a = BitSet::from_members(20, [1, 5, 9]);
        let b = a.clone();
        assert_eq!(expected_waste(0.3, &a, 0.7, &b), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = BitSet::from_members(20, [1, 2]);
        let b = BitSet::from_members(20, [2, 3, 4]);
        assert_eq!(
            expected_waste(0.3, &a, 0.7, &b),
            expected_waste(0.7, &b, 0.3, &a)
        );
    }

    #[test]
    fn non_negative_and_grows_with_disagreement() {
        let a = BitSet::from_members(20, [1, 2]);
        let b = BitSet::from_members(20, [3]);
        let c = BitSet::from_members(20, [3, 4, 5]);
        let d_ab = expected_waste(0.5, &a, 0.5, &b);
        let d_ac = expected_waste(0.5, &a, 0.5, &c);
        assert!(d_ab >= 0.0);
        assert!(d_ac > d_ab);
    }

    #[test]
    fn weighted_by_publication_mass() {
        let a = BitSet::from_members(10, [0]);
        let b = BitSet::from_members(10, [1]);
        // All the waste of events-in-a lands on b's member and vice
        // versa: d = pa·1 + pb·1.
        assert_eq!(expected_waste(0.9, &a, 0.1, &b), 1.0);
        assert_eq!(expected_waste(0.0, &a, 0.0, &b), 0.0);
    }

    #[test]
    fn popularity_is_mass_times_size() {
        let s = BitSet::from_members(10, [0, 1, 2, 3]);
        assert_eq!(popularity(0.25, &s), 1.0);
        assert_eq!(popularity(0.0, &s), 0.0);
    }
}
