//! The ordering-agnostic compact topology representation (§4.2).
//!
//! Definition 1 of the paper: two search states are *equivalent* when they
//! share the same network topology. Because blocks of one action type are
//! consumed in a fixed canonical order (Algorithm 2's `GetBlock` returns the
//! first unfinished block of the requested type), the intermediate topology
//! is a pure function of *how many* actions of each type finished — so a
//! state is represented by the vector `V = (v_i)` of per-type finished-action
//! counts. This collapses every interleaving with the same counts into a
//! single satisfiability lookup.

use crate::action::ActionTypeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-action-type finished counts, `V = (v_i)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompactState {
    counts: Vec<u16>,
}

impl CompactState {
    /// The origin state: nothing finished, for `num_types` action types.
    pub fn origin(num_types: usize) -> Self {
        Self {
            counts: vec![0; num_types],
        }
    }

    /// Builds directly from counts.
    pub fn from_counts(counts: Vec<u16>) -> Self {
        Self { counts }
    }

    /// Count of finished actions of type `a`.
    #[inline]
    pub fn count(&self, a: ActionTypeId) -> u16 {
        self.counts[a.index()]
    }

    /// Number of action types.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.counts.len()
    }

    /// Total finished actions `Σ v_i`.
    #[inline]
    pub fn total(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Raw counts slice.
    #[inline]
    pub fn counts(&self) -> &[u16] {
        &self.counts
    }

    /// Successor state after one more action of type `a`.
    pub fn advanced(&self, a: ActionTypeId) -> Self {
        let mut next = self.clone();
        next.counts[a.index()] += 1;
        next
    }

    /// The componentwise sum: where a residual's vector `self` sits in the
    /// box of a spec whose vector `origin` the residual starts at.
    pub fn offset_by(&self, origin: &CompactState) -> Self {
        let counts = self.counts.iter().zip(&origin.counts);
        Self {
            counts: counts.map(|(v, o)| v + o).collect(),
        }
    }

    /// Predecessor state before the last action of type `a`
    /// (Eq. 8: `v*_a = v_a − 1`). Returns `None` if `v_a` is zero.
    pub fn receded(&self, a: ActionTypeId) -> Option<Self> {
        if self.counts[a.index()] == 0 {
            return None;
        }
        let mut prev = self.clone();
        prev.counts[a.index()] -= 1;
        Some(prev)
    }

    /// True when every count matches the target's.
    pub fn is_target(&self, target: &CompactState) -> bool {
        self == target
    }

    /// Componentwise `<=` against the target (sanity invariant: the search
    /// never overshoots a type's block supply).
    pub fn within(&self, target: &CompactState) -> bool {
        self.counts.iter().zip(&target.counts).all(|(a, b)| a <= b)
    }

    /// Per-type remaining counts against a target.
    pub fn remaining(&self, target: &CompactState) -> Vec<u16> {
        self.counts
            .iter()
            .zip(&target.counts)
            .map(|(done, all)| all - done)
            .collect()
    }

    /// Mixed-radix dense index of this state within the box `[0, target]`,
    /// used by the DP planner's dense tables.
    pub fn dense_index(&self, target: &CompactState) -> usize {
        let mut idx = 0usize;
        for (i, &v) in self.counts.iter().enumerate() {
            idx = idx * (target.counts[i] as usize + 1) + v as usize;
        }
        idx
    }

    /// Steps to the lexicographic successor within the box `[0, target]` —
    /// odometer order, the last type the fastest digit, so
    /// [`dense_index`](Self::dense_index) grows by exactly one. Every
    /// predecessor `V − e_a` of a state is lexicographically smaller than
    /// it, and consecutive states are one action apart except where a digit
    /// rolls over. Returns false, back at the origin, after the target.
    pub fn step_in_box(&mut self, target: &CompactState) -> bool {
        for (count, &bound) in self.counts.iter_mut().zip(&target.counts).rev() {
            if *count < bound {
                *count += 1;
                return true;
            }
            *count = 0;
        }
        false
    }

    /// Size of the dense box `Π (v*_i + 1)` for a target state, saturating
    /// at `usize::MAX` (the DP planner refuses oversized boxes).
    pub fn box_size(target: &CompactState) -> usize {
        target
            .counts
            .iter()
            .fold(1usize, |acc, &v| acc.saturating_mul(v as usize + 1))
    }
}

impl fmt::Display for CompactState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn step_in_box_visits_every_state_once_in_dense_order() {
        let target = CompactState::from_counts(vec![2, 0, 3]);
        let mut v = CompactState::origin(3);
        let mut dense = 0;
        while v.step_in_box(&target) {
            dense += 1;
            assert!(v.within(&target));
            assert_eq!(v.dense_index(&target), dense, "{v}");
        }
        assert_eq!(dense + 1, CompactState::box_size(&target));
        assert_eq!(v, CompactState::origin(3), "wraps to the origin");
    }

    #[test]
    fn origin_is_zero() {
        let v = CompactState::origin(3);
        assert_eq!(v.total(), 0);
        assert_eq!(v.num_types(), 3);
        assert_eq!(v.to_string(), "(0,0,0)");
    }

    #[test]
    fn advance_and_recede_are_inverse() {
        let v = CompactState::origin(2).advanced(ActionTypeId(1));
        assert_eq!(v.count(ActionTypeId(1)), 1);
        assert_eq!(v.receded(ActionTypeId(1)).unwrap(), CompactState::origin(2));
        assert_eq!(v.receded(ActionTypeId(0)), None);
    }

    #[test]
    fn target_and_within() {
        let target = CompactState::from_counts(vec![2, 1]);
        let mid = CompactState::from_counts(vec![1, 1]);
        assert!(mid.within(&target));
        assert!(!mid.is_target(&target));
        assert!(target.is_target(&target));
        assert_eq!(mid.remaining(&target), vec![1, 0]);
        let over = CompactState::from_counts(vec![3, 0]);
        assert!(!over.within(&target));
    }

    #[test]
    fn dense_index_is_a_bijection_over_the_box() {
        let target = CompactState::from_counts(vec![2, 3, 1]);
        let size = CompactState::box_size(&target);
        assert_eq!(size, 3 * 4 * 2);
        let mut seen = vec![false; size];
        for a in 0..=2u16 {
            for b in 0..=3u16 {
                for c in 0..=1u16 {
                    let idx = CompactState::from_counts(vec![a, b, c]).dense_index(&target);
                    assert!(idx < size);
                    assert!(!seen[idx], "collision at {idx}");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn box_size_saturates() {
        let huge = CompactState::from_counts(vec![u16::MAX; 8]);
        assert_eq!(CompactState::box_size(&huge), usize::MAX);
    }

    proptest! {
        /// Equivalence-by-counts: any permutation of the same action multiset
        /// reaches the same compact state (Definition 1 of the paper).
        #[test]
        fn prop_order_does_not_matter(seq in proptest::collection::vec(0u8..4, 0..30)) {
            let mut forward = CompactState::origin(4);
            for &a in &seq {
                forward = forward.advanced(ActionTypeId(a));
            }
            let mut reversed = CompactState::origin(4);
            for &a in seq.iter().rev() {
                reversed = reversed.advanced(ActionTypeId(a));
            }
            let mut sorted_seq = seq.clone();
            sorted_seq.sort_unstable();
            let mut sorted = CompactState::origin(4);
            for &a in &sorted_seq {
                sorted = sorted.advanced(ActionTypeId(a));
            }
            prop_assert_eq!(&forward, &reversed);
            prop_assert_eq!(&forward, &sorted);
            prop_assert_eq!(forward.total(), seq.len());
        }

        #[test]
        fn prop_dense_index_within_bounds(
            counts in proptest::collection::vec(0u16..5, 1..5)
        ) {
            let target = CompactState::from_counts(counts.clone());
            let idx = target.dense_index(&target);
            prop_assert_eq!(idx, CompactState::box_size(&target) - 1);
            let origin = CompactState::origin(counts.len());
            prop_assert_eq!(origin.dense_index(&target), 0);
        }
    }
}
