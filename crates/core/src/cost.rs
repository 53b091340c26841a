//! The operational cost model (Eq. 1, Eq. 9, §5).
//!
//! Cost counts *serial phases*: consecutive actions of the same type are
//! executed by operators in parallel, while a type change forces a new
//! serial phase. The generalized cost function of §5 adds a per-extra-action
//! overhead: operating `x` blocks of one type in one phase costs
//! `f_cost(x) = 1 + α(x−1)` with `α ∈ [0, 1]` (α = 0 by default).
//!
//! The A\* heuristic is derived here too. The paper's Eq. 9 sums
//! `1 + α(N_a − 1)` over types with remaining actions. When the *current*
//! run's type still has remaining actions, that sum overestimates by up to
//! `1 − α` (the remaining actions of the open type can extend the current
//! phase at cost α each, with no new phase). [`CostModel::heuristic`]
//! therefore charges the open type `α·N_a` instead, which is a true lower
//! bound; the literal Eq. 9 variant is kept as
//! [`HeuristicMode::PaperEq9`] for the ablation benches.

use crate::action::ActionTypeId;
use serde::{Deserialize, Serialize};

/// Which cost-to-go estimate the A\* planner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeuristicMode {
    /// Rigorous lower bound (default): the type of the open run contributes
    /// `α·N_a`, every other remaining type `1 + α(N_a − 1)`.
    Admissible,
    /// Literal Eq. 9: every remaining type contributes `1 + α(N_a − 1)`.
    /// Marginally inadmissible when the open run's type has actions left;
    /// kept for fidelity comparisons.
    PaperEq9,
    /// No guidance (h ≡ 0): degrades A\* to uniform-cost search. Used by the
    /// "Klotski w/o A\*" ablation (Figure 10).
    None,
}

/// Cost model with the §5 parallel-overhead parameter α.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Extra cost per same-type action beyond the first in a phase.
    pub alpha: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { alpha: 0.0 }
    }
}

impl CostModel {
    /// Creates a model with the given α.
    ///
    /// # Panics
    /// Panics if α is outside `[0, 1]` (§5 defines it on that interval).
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self { alpha }
    }

    /// Incremental cost of appending an action of type `next` after `prev`
    /// (`None` = start of the sequence).
    #[inline]
    pub fn step_cost(&self, prev: Option<ActionTypeId>, next: ActionTypeId) -> f64 {
        if prev == Some(next) {
            self.alpha
        } else {
            1.0
        }
    }

    /// Cost of operating `x ≥ 1` blocks of one type in one phase:
    /// `f_cost(x) = 1 + α(x−1)`.
    #[inline]
    fn phase_cost(&self, x: usize) -> f64 {
        assert!(x >= 1, "a phase holds at least one action");
        1.0 + self.alpha * (x as f64 - 1.0)
    }

    /// Total cost of an action-type sequence (Eq. 1 generalized).
    pub(crate) fn sequence_cost(&self, types: &[ActionTypeId]) -> f64 {
        let mut prev = None;
        let mut total = 0.0;
        for &t in types {
            total += self.step_cost(prev, t);
            prev = Some(t);
        }
        total
    }

    /// Cost-to-go lower bound `h(n)` given per-type remaining counts and the
    /// type of the last finished action.
    pub fn heuristic(
        &self,
        mode: HeuristicMode,
        remaining: &[u16],
        last: Option<ActionTypeId>,
    ) -> f64 {
        match mode {
            HeuristicMode::None => 0.0,
            HeuristicMode::PaperEq9 => remaining
                .iter()
                .filter(|&&n| n > 0)
                .map(|&n| self.phase_cost(n as usize))
                .sum(),
            HeuristicMode::Admissible => {
                let mut h = 0.0;
                for (i, &n) in remaining.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    if last == Some(ActionTypeId(i as u8)) {
                        // The open run can absorb these at α each.
                        h += self.alpha * n as f64;
                    } else {
                        h += self.phase_cost(n as usize);
                    }
                }
                h
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const A0: ActionTypeId = ActionTypeId(0);
    const A1: ActionTypeId = ActionTypeId(1);

    #[test]
    fn eq1_counts_type_changes_plus_one() {
        let m = CostModel::default();
        // (0,0,1,1,0): three runs -> cost 3 = two changes + 1.
        let seq = [A0, A0, A1, A1, A0];
        assert_eq!(m.sequence_cost(&seq), 3.0);
        assert_eq!(m.sequence_cost(&[A0]), 1.0);
        assert_eq!(m.sequence_cost(&[]), 0.0);
    }

    #[test]
    fn alpha_charges_same_type_continuations() {
        let m = CostModel::new(0.25);
        // Runs of length 2 and 2: (1+0.25) + (1+0.25) = 2.5.
        assert!((m.sequence_cost(&[A0, A0, A1, A1]) - 2.5).abs() < 1e-12);
        assert!((m.phase_cost(3) - 1.5).abs() < 1e-12);
        assert_eq!(m.phase_cost(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn alpha_out_of_range_rejected() {
        CostModel::new(1.5);
    }

    #[test]
    fn heuristic_counts_remaining_types_when_alpha_zero() {
        let m = CostModel::default();
        let h = m.heuristic(HeuristicMode::Admissible, &[3, 0, 2], None);
        assert_eq!(h, 2.0);
        assert_eq!(m.heuristic(HeuristicMode::None, &[3, 0, 2], None), 0.0);
    }

    #[test]
    fn admissible_discounts_the_open_run() {
        let m = CostModel::default();
        // Last action was type 0 and type 0 has remaining actions: with
        // alpha = 0 they are free continuations.
        let h_adm = m.heuristic(HeuristicMode::Admissible, &[2, 1], Some(A0));
        let h_paper = m.heuristic(HeuristicMode::PaperEq9, &[2, 1], Some(A0));
        assert_eq!(h_adm, 1.0);
        assert_eq!(h_paper, 2.0, "Eq.9 overcounts the open run");
    }

    #[test]
    fn heuristic_equals_true_cost_for_single_type() {
        let m = CostModel::new(0.5);
        // 4 remaining actions of a fresh type: optimum is one phase of 4.
        let h = m.heuristic(HeuristicMode::Admissible, &[4], None);
        assert!((h - m.phase_cost(4)).abs() < 1e-12);
    }

    proptest! {
        /// h is admissible: for any remaining multiset and any completion
        /// order, h <= actual cost of that completion.
        #[test]
        fn prop_admissible_heuristic_is_lower_bound(
            remaining in proptest::collection::vec(0u16..4, 1..4),
            shuffle_seed in 0u64..1000,
            last_raw in 0usize..4,
        ) {
            let m = CostModel::new(0.3);
            let last = if last_raw < remaining.len() {
                Some(ActionTypeId(last_raw as u8))
            } else {
                None
            };
            // Build an arbitrary completion order of the remaining actions.
            let mut seq: Vec<ActionTypeId> = remaining
                .iter()
                .enumerate()
                .flat_map(|(i, &n)| std::iter::repeat_n(ActionTypeId(i as u8), n as usize))
                .collect();
            // Cheap deterministic shuffle.
            let len = seq.len();
            if len > 1 {
                for i in 0..len {
                    let j = (shuffle_seed as usize + i * 7919) % len;
                    seq.swap(i, j);
                }
            }
            // Actual cost of this completion, continuing from `last`.
            let mut prev = last;
            let mut actual = 0.0;
            for &t in &seq {
                actual += m.step_cost(prev, t);
                prev = Some(t);
            }
            let h = m.heuristic(HeuristicMode::Admissible, &remaining, last);
            prop_assert!(
                h <= actual + 1e-9,
                "h = {h} exceeds actual completion cost {actual} for {remaining:?} last={last:?}"
            );
        }
    }
}
