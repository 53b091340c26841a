//! Space and power constraints (§2.4, §7.2).
//!
//! "We need to remove/decommission the old switches first to create space
//! for the new switches in the same location" (§2.4) — and "the old and new
//! hardware generations often share the same space and power. In some cases
//! there are additional space and power available to support transient
//! state but that could be limited. We consider such constraints when
//! generating intermediate states in Klotski" (§7.2).
//!
//! The model: every operation block changes the floor-space footprint when
//! it executes — drains of old hardware free space, installs of new
//! hardware consume it — and the total footprint of any intermediate state
//! must stay within the site budget. Footprint is linear in the finished
//! actions, so for compact state `V` it evaluates in O(|A|) via per-type
//! prefix sums, keeping satisfiability checking cheap.

use crate::compact::CompactState;
use serde::{Deserialize, Serialize};

/// Linear space model over a migration's operation blocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceModel {
    /// Site budget in rack units.
    pub budget: f64,
    /// Footprint before any action.
    pub initial_used: f64,
    /// `prefix[a][v]` = cumulative footprint delta after `v` finished
    /// actions of type `a` (`prefix[a][0] == 0`).
    prefix: Vec<Vec<f64>>,
}

impl SpaceModel {
    /// Builds a model from per-block deltas: `deltas[a][i]` is the footprint
    /// change when the `i`-th block of type `a` executes (negative for
    /// drains of old hardware, positive for installs).
    pub(crate) fn from_deltas(budget: f64, initial_used: f64, deltas: &[Vec<f64>]) -> Self {
        assert!(budget.is_finite() && budget >= 0.0, "budget must be finite");
        assert!(
            initial_used.is_finite() && initial_used >= 0.0,
            "initial footprint must be finite"
        );
        let prefix = deltas
            .iter()
            .map(|d| {
                let mut acc = 0.0;
                let mut p = Vec::with_capacity(d.len() + 1);
                p.push(0.0);
                for &x in d {
                    assert!(x.is_finite(), "space deltas must be finite");
                    acc += x;
                    p.push(acc);
                }
                p
            })
            .collect();
        Self {
            budget,
            initial_used,
            prefix,
        }
    }

    /// Footprint of a compact state.
    pub fn used(&self, v: &CompactState) -> f64 {
        let mut used = self.initial_used;
        for (a, p) in self.prefix.iter().enumerate() {
            used += p[v.counts()[a] as usize];
        }
        used
    }

    /// True iff the state fits the site budget (with float tolerance so an
    /// exactly-full site is legal).
    pub fn fits(&self, v: &CompactState) -> bool {
        self.used(v) <= self.budget + 1e-9
    }

    /// The model for the residual migration after `progress` actions: the
    /// current footprint becomes the initial one and only the remaining
    /// blocks' deltas are kept (used by the §7.1 replanning path).
    pub(crate) fn residual(&self, progress: &CompactState) -> SpaceModel {
        let initial_used = self.used(progress);
        let prefix = self
            .prefix
            .iter()
            .enumerate()
            .map(|(a, p)| {
                let done = progress.counts()[a] as usize;
                p[done..].iter().map(|x| x - p[done]).collect()
            })
            .collect();
        SpaceModel {
            budget: self.budget,
            initial_used,
            prefix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two types: type 0 drains free 1.0 each, type 1 installs use 0.5 each.
    fn model() -> SpaceModel {
        SpaceModel::from_deltas(
            3.5,
            3.0,
            &[vec![-1.0, -1.0, -1.0], vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5]],
        )
    }

    #[test]
    fn origin_uses_initial_footprint() {
        let m = model();
        let origin = CompactState::origin(2);
        assert_eq!(m.used(&origin), 3.0);
        assert!(m.fits(&origin));
    }

    #[test]
    fn installs_consume_and_drains_free() {
        let m = model();
        let v = CompactState::from_counts(vec![1, 2]);
        assert!((m.used(&v) - 3.0).abs() < 1e-12); // 3 - 1 + 1
        assert!(m.fits(&v));
    }

    #[test]
    fn overfull_state_rejected() {
        let m = model();
        // No drains, two installs: 3 + 1.0 = 4.0 > 3.5.
        let v = CompactState::from_counts(vec![0, 2]);
        assert!(!m.fits(&v));
        // One install fits exactly at the transient slack.
        assert!(m.fits(&CompactState::from_counts(vec![0, 1])));
    }

    #[test]
    fn target_state_fits_by_construction() {
        let m = model();
        // All drained, all installed: 3 - 3 + 3 = 3 <= 3.5.
        assert!(m.fits(&CompactState::from_counts(vec![3, 6])));
    }

    #[test]
    fn exactly_full_is_legal() {
        let m = SpaceModel::from_deltas(1.0, 0.0, &[vec![1.0]]);
        assert!(m.fits(&CompactState::from_counts(vec![1])));
    }

    #[test]
    #[should_panic(expected = "budget must be finite")]
    fn bad_budget_rejected() {
        SpaceModel::from_deltas(f64::NAN, 0.0, &[]);
    }

    #[test]
    fn residual_shifts_the_origin() {
        let m = model();
        let progress = CompactState::from_counts(vec![1, 1]);
        let r = m.residual(&progress);
        assert!((r.initial_used - m.used(&progress)).abs() < 1e-12);
        // One more drain and one more install in residual coordinates
        // equals two drains and two installs in original coordinates.
        let rv = CompactState::from_counts(vec![1, 1]);
        let ov = CompactState::from_counts(vec![2, 2]);
        assert!((r.used(&rv) - m.used(&ov)).abs() < 1e-12);
        assert_eq!(r.fits(&rv), m.fits(&ov));
    }
}
