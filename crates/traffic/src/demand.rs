//! The demand set `D` of the problem formulation (§3, Table 2).
//!
//! A demand carries a source switch, a target switch, and a forecasted rate.
//! Demand constraints require a live path per demand and bounded per-circuit
//! ECMP utilization on every checked intermediate topology.

use klotski_topology::SwitchId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which endpoint-pair class a demand belongs to (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DemandClass {
    /// Region egress: rack switch to express-backbone router.
    RswToEbb,
    /// Region ingress: express-backbone router to rack switch.
    EbbToRsw,
    /// East/west between buildings: rack switch to rack switch.
    RswToRsw,
}

impl DemandClass {
    /// All classes.
    pub const ALL: [DemandClass; 3] = [
        DemandClass::RswToEbb,
        DemandClass::EbbToRsw,
        DemandClass::RswToRsw,
    ];
}

/// One forecasted traffic demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Source switch (`d_src`).
    pub src: SwitchId,
    /// Target switch (`d_tgt`).
    pub dst: SwitchId,
    /// Forecasted rate in Gbps.
    pub gbps: f64,
    /// Endpoint-pair class.
    pub class: DemandClass,
}

/// The demand set `D`: a collection of demands with aggregate queries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DemandMatrix {
    demands: Vec<Demand>,
}

impl DemandMatrix {
    /// Empty demand set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a demand.
    ///
    /// # Panics
    /// Panics on non-finite or negative rates and on `src == dst`
    /// (both indicate a generator bug, not an operational condition).
    pub(crate) fn push(&mut self, d: Demand) {
        assert!(
            d.gbps.is_finite() && d.gbps >= 0.0,
            "demand rate must be finite and non-negative, got {}",
            d.gbps
        );
        assert_ne!(d.src, d.dst, "demand endpoints must differ");
        self.demands.push(d);
    }

    /// Number of demands.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// True if there are no demands.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// All demands.
    pub fn iter(&self) -> impl Iterator<Item = &Demand> + '_ {
        self.demands.iter()
    }

    /// Multiplies every demand by `factor` (demand growth / forecast update).
    ///
    /// # Panics
    /// Panics on negative or non-finite factors.
    pub(crate) fn scale(&mut self, factor: f64) {
        self.scale_where(factor, |_| true);
    }

    /// Multiplies every demand `affected` selects by `factor` (a surge on
    /// one class).
    ///
    /// # Panics
    /// Panics on negative or non-finite factors.
    pub(crate) fn scale_where(&mut self, factor: f64, affected: impl Fn(&Demand) -> bool) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        for d in &mut self.demands {
            if affected(d) {
                d.gbps *= factor;
            }
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut out = self.clone();
        out.scale(factor);
        out
    }

    /// Groups demands by destination. Routing evaluates one shortest-path
    /// DAG per distinct destination, so the number of groups (not the number
    /// of demands) drives satisfiability-checking cost.
    pub fn by_destination(&self) -> BTreeMap<SwitchId, Vec<&Demand>> {
        let mut groups: BTreeMap<SwitchId, Vec<&Demand>> = BTreeMap::new();
        for d in &self.demands {
            groups.entry(d.dst).or_default().push(d);
        }
        groups
    }

    /// Distinct destination count.
    pub fn num_destinations(&self) -> usize {
        self.by_destination().len()
    }
}

impl FromIterator<Demand> for DemandMatrix {
    fn from_iter<T: IntoIterator<Item = Demand>>(iter: T) -> Self {
        let mut m = DemandMatrix::new();
        for d in iter {
            m.push(d);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rate totals, read only by the crate's tests.
    impl DemandMatrix {
        /// Total rate across all demands, Gbps.
        pub(crate) fn total_gbps(&self) -> f64 {
            self.demands.iter().map(|d| d.gbps).sum()
        }

        /// Total rate of one class, Gbps.
        pub(crate) fn class_total_gbps(&self, class: DemandClass) -> f64 {
            self.demands
                .iter()
                .filter(|d| d.class == class)
                .map(|d| d.gbps)
                .sum()
        }
    }

    fn d(src: u32, dst: u32, gbps: f64, class: DemandClass) -> Demand {
        Demand {
            src: SwitchId(src),
            dst: SwitchId(dst),
            gbps,
            class,
        }
    }

    #[test]
    fn totals_and_class_totals() {
        let m: DemandMatrix = [
            d(0, 1, 10.0, DemandClass::RswToEbb),
            d(1, 0, 20.0, DemandClass::EbbToRsw),
            d(0, 2, 5.0, DemandClass::RswToRsw),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.len(), 3);
        assert!((m.total_gbps() - 35.0).abs() < 1e-9);
        assert!((m.class_total_gbps(DemandClass::RswToEbb) - 10.0).abs() < 1e-9);
        assert!((m.class_total_gbps(DemandClass::RswToRsw) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scale_multiplies_everything() {
        let mut m: DemandMatrix = [d(0, 1, 10.0, DemandClass::RswToEbb)].into_iter().collect();
        m.scale(1.5);
        assert!((m.total_gbps() - 15.0).abs() < 1e-9);
        let m2 = m.scaled(2.0);
        assert!((m2.total_gbps() - 30.0).abs() < 1e-9);
        assert!((m.total_gbps() - 15.0).abs() < 1e-9, "original unchanged");
    }

    #[test]
    fn by_destination_groups() {
        let m: DemandMatrix = [
            d(0, 5, 1.0, DemandClass::RswToEbb),
            d(1, 5, 2.0, DemandClass::RswToEbb),
            d(2, 6, 3.0, DemandClass::RswToRsw),
        ]
        .into_iter()
        .collect();
        let groups = m.by_destination();
        assert_eq!(groups.len(), 2);
        assert_eq!(m.num_destinations(), 2);
        assert_eq!(groups[&SwitchId(5)].len(), 2);
        assert_eq!(groups[&SwitchId(6)].len(), 1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rate_rejected() {
        let mut m = DemandMatrix::new();
        m.push(d(0, 1, -1.0, DemandClass::RswToEbb));
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_demand_rejected() {
        let mut m = DemandMatrix::new();
        m.push(d(3, 3, 1.0, DemandClass::RswToRsw));
    }

    #[test]
    fn zero_rate_allowed() {
        let mut m = DemandMatrix::new();
        m.push(d(0, 1, 0.0, DemandClass::RswToEbb));
        assert_eq!(m.total_gbps(), 0.0);
    }
}
