//! Unexpected traffic surges (§7.2 deployment experience).
//!
//! "In one incident, warm storage decided to change its backup placement
//! strategy during a network migration. That caused days of traffic spikes."
//! Surge events multiply the rate of one demand class (or all classes) for a
//! window of migration steps; the controller injects them to exercise the
//! replanning path.

use crate::demand::{DemandClass, DemandMatrix};
use serde::{Deserialize, Serialize};

/// A traffic surge active over a window of migration steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurgeEvent {
    /// First migration step (0-based) at which the surge is active.
    pub from_step: usize,
    /// First step at which the surge is no longer active (exclusive).
    pub until_step: usize,
    /// Multiplier applied to affected demands (e.g. 1.4 = +40%).
    pub factor: f64,
    /// Affected class; `None` = all classes.
    pub class: Option<DemandClass>,
}

impl SurgeEvent {
    /// A surge on one class.
    pub fn on_class(from_step: usize, until_step: usize, factor: f64, class: DemandClass) -> Self {
        Self {
            from_step,
            until_step,
            factor,
            class: Some(class),
        }
    }

    /// True if the surge is active at `step`.
    pub fn active_at(&self, step: usize) -> bool {
        (self.from_step..self.until_step).contains(&step)
    }

    /// Applies this surge to a copy of `matrix` if active at `step`.
    pub fn apply(&self, matrix: &DemandMatrix, step: usize) -> DemandMatrix {
        let mut out = matrix.clone();
        self.apply_in_place(&mut out, step);
        out
    }

    /// Scales the affected demands of `matrix` if the surge is active at
    /// `step`; outside its window the matrix is left alone.
    fn apply_in_place(&self, matrix: &mut DemandMatrix, step: usize) {
        assert!(
            self.factor.is_finite() && self.factor >= 0.0,
            "surge factor must be finite and non-negative"
        );
        if self.active_at(step) {
            matrix.scale_where(self.factor, |d| self.class.is_none_or(|c| d.class == c));
        }
    }
}

/// The demand the fleet actually carries at `step`: the planning matrix
/// scaled by accumulated organic growth, with every surge active at `step`
/// applied on top, in order — one copy of `base`, scaled in place. The
/// controller and the lookahead's oracle test both simulate the world
/// through this one function.
pub fn realized_demand(
    base: &DemandMatrix,
    growth_multiplier: f64,
    surges: &[SurgeEvent],
    step: usize,
) -> DemandMatrix {
    let mut out = base.scaled(growth_multiplier);
    for s in surges {
        s.apply_in_place(&mut out, step);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;
    use klotski_topology::SwitchId;

    fn matrix() -> DemandMatrix {
        [
            Demand {
                src: SwitchId(0),
                dst: SwitchId(1),
                gbps: 10.0,
                class: DemandClass::RswToEbb,
            },
            Demand {
                src: SwitchId(2),
                dst: SwitchId(3),
                gbps: 20.0,
                class: DemandClass::RswToRsw,
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn surge_applies_only_in_window() {
        let s = SurgeEvent::on_class(2, 5, 2.0, DemandClass::RswToRsw);
        assert!(!s.active_at(1));
        assert!(s.active_at(2));
        assert!(s.active_at(4));
        assert!(!s.active_at(5));
        let m = matrix();
        assert_eq!(s.apply(&m, 1), m);
        let surged = s.apply(&m, 3);
        assert!((surged.class_total_gbps(DemandClass::RswToRsw) - 40.0).abs() < 1e-9);
        assert!((surged.class_total_gbps(DemandClass::RswToEbb) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn classless_surge_scales_everything() {
        let s = SurgeEvent {
            from_step: 0,
            until_step: 10,
            factor: 1.5,
            class: None,
        };
        let surged = s.apply(&matrix(), 0);
        assert!((surged.total_gbps() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn stacked_surges_compose_multiplicatively() {
        let surges = vec![
            SurgeEvent {
                from_step: 0,
                until_step: 10,
                factor: 2.0,
                class: None,
            },
            SurgeEvent::on_class(0, 10, 3.0, DemandClass::RswToEbb),
        ];
        let out = realized_demand(&matrix(), 1.0, &surges, 0);
        assert!((out.class_total_gbps(DemandClass::RswToEbb) - 60.0).abs() < 1e-9);
        assert!((out.class_total_gbps(DemandClass::RswToRsw) - 40.0).abs() < 1e-9);
    }

    /// `realized_demand` as it stood before it scaled one copy in place: a
    /// fresh matrix per surge, inactive ones included.
    fn cloning_chain(
        base: &DemandMatrix,
        growth: f64,
        surges: &[SurgeEvent],
        step: usize,
    ) -> DemandMatrix {
        let mut out = base.scaled(growth);
        for s in surges {
            out = if !s.active_at(step) {
                out.clone()
            } else if let Some(class) = s.class {
                out.iter()
                    .cloned()
                    .map(|mut d| {
                        if d.class == class {
                            d.gbps *= s.factor;
                        }
                        d
                    })
                    .collect()
            } else {
                out.scaled(s.factor)
            };
        }
        out
    }

    #[test]
    fn in_place_scaling_is_bit_equal_to_the_cloning_chain() {
        // Factors with no short binary expansion, so a changed
        // multiplication order would show in the low bits.
        let surges = vec![
            SurgeEvent {
                from_step: 0,
                until_step: 4,
                factor: 1.08,
                class: None,
            },
            SurgeEvent::on_class(1, 3, 1.37, DemandClass::RswToEbb),
            SurgeEvent::on_class(2, 6, 0.9, DemandClass::RswToRsw),
            SurgeEvent {
                from_step: 2,
                until_step: 3,
                factor: 1.013,
                class: None,
            },
        ];
        let base = matrix().scaled(1.0 / 3.0);
        for step in 0..7 {
            let growth = 1.01_f64.powi(step as i32 + 1);
            let got = realized_demand(&base, growth, &surges, step);
            let want = cloning_chain(&base, growth, &surges, step);
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.gbps.to_bits(), w.gbps.to_bits(), "step {step}");
            }
            assert_eq!(got, want, "step {step}");
        }
    }

    #[test]
    fn empty_window_never_fires() {
        let s = SurgeEvent::on_class(3, 3, 9.0, DemandClass::RswToEbb);
        assert!(!s.active_at(3));
        assert_eq!(s.apply(&matrix(), 3), matrix());
    }
}
