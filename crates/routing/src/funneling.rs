//! Traffic-funneling stress model.
//!
//! §2.2 of the paper: circuits of one migration step cannot be drained at
//! the exact same instant. While `k−1` of `k` sibling circuits are already
//! down, the survivor transiently carries the whole group's traffic —
//! upstream funneling when the drain is below, downstream funneling when it
//! is above. §7.2 records the production mitigation: "Klotski increases the
//! utilization of related circuits while planning."
//!
//! [`FunnelingModel`] implements that mitigation: when a state is checked
//! right after a *drain* action, the circuits related to the drained block —
//! the still-usable circuits incident to the drained elements' neighbor
//! switches — have their planned load inflated by a headroom factor before
//! the θ comparison.

use crate::loads::LoadMap;
use klotski_topology::{CircuitId, NetState, SwitchId, Topology};

/// Headroom model for asynchronous drains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunnelingModel {
    /// Multiplier applied to related circuits' loads (≥ 1.0).
    /// 1.0 disables the model.
    pub headroom_factor: f64,
}

impl Default for FunnelingModel {
    fn default() -> Self {
        // Sized for "one sibling of four still settling": 4/3 of planned load.
        Self {
            headroom_factor: 4.0 / 3.0,
        }
    }
}

impl FunnelingModel {
    /// A disabled model (factor 1.0).
    pub fn disabled() -> Self {
        Self {
            headroom_factor: 1.0,
        }
    }

    /// True if the model does anything.
    pub fn is_enabled(&self) -> bool {
        self.headroom_factor > 1.0
    }

    /// Circuits related to a drain of `drained_switches`: every still-usable
    /// circuit incident to a neighbor of a drained switch. These are the
    /// circuits that transiently absorb the drained block's traffic.
    fn related_circuits(
        &self,
        topo: &Topology,
        state: &NetState,
        drained_switches: &[SwitchId],
    ) -> Vec<CircuitId> {
        let mut seen = vec![false; topo.num_circuits()];
        let mut out = Vec::new();
        for &d in drained_switches {
            for &(_, neighbor) in topo.neighbors(d) {
                for &(c, _) in topo.neighbors(neighbor) {
                    if !seen[c.index()] && state.circuit_usable(topo, c) {
                        seen[c.index()] = true;
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// Inflates the loads of the circuits related to the drained switches.
    /// Call between routing and the θ comparison.
    pub fn apply(
        &self,
        topo: &Topology,
        state: &NetState,
        drained_switches: &[SwitchId],
        loads: &mut LoadMap,
    ) {
        assert!(
            self.headroom_factor >= 1.0,
            "headroom factor must be >= 1.0"
        );
        if !self.is_enabled() || drained_switches.is_empty() {
            return;
        }
        for c in self.related_circuits(topo, state, drained_switches) {
            loads.scale_circuit(c, self.headroom_factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_topology::{
        graph::{SwitchSpec, TopologyBuilder},
        DcId, Generation, SwitchRole,
    };

    /// Two FADUs under one SSW; draining fadu1 stresses ssw-fadu0.
    fn fan() -> (Topology, [SwitchId; 3], [CircuitId; 2]) {
        let mut b = TopologyBuilder::new("fan");
        let spec = |r| SwitchSpec::new(r, Generation::V1, DcId(0), 16);
        let ssw = b.add_switch(spec(SwitchRole::Ssw));
        let f0 = b.add_switch(spec(SwitchRole::Fadu));
        let f1 = b.add_switch(spec(SwitchRole::Fadu));
        let c0 = b.add_circuit(ssw, f0, 100.0).unwrap();
        let c1 = b.add_circuit(ssw, f1, 100.0).unwrap();
        (b.build(), [ssw, f0, f1], [c0, c1])
    }

    #[test]
    fn related_circuits_are_neighbors_siblings() {
        let (t, sw, ck) = fan();
        let mut state = NetState::all_up(&t);
        state.drain_switch(&t, sw[2]);
        let model = FunnelingModel::default();
        let related = model.related_circuits(&t, &state, &[sw[2]]);
        // The drained FADU's neighbor is the SSW; its surviving circuit is c0.
        assert_eq!(related, vec![ck[0]]);
    }

    #[test]
    fn apply_inflates_only_related_circuits() {
        let (t, sw, ck) = fan();
        let mut state = NetState::all_up(&t);
        let mut loads = LoadMap::new(&t);
        loads.add_directed(&t, ck[0], sw[0], 60.0);
        state.drain_switch(&t, sw[2]);
        FunnelingModel {
            headroom_factor: 1.5,
        }
        .apply(&t, &state, &[sw[2]], &mut loads);
        assert!((loads.max_direction(ck[0]) - 90.0).abs() < 1e-9);
        assert_eq!(loads.max_direction(ck[1]), 0.0);
    }

    #[test]
    fn disabled_model_is_a_noop() {
        let (t, sw, ck) = fan();
        let mut state = NetState::all_up(&t);
        state.drain_switch(&t, sw[2]);
        let mut loads = LoadMap::new(&t);
        loads.add_directed(&t, ck[0], sw[0], 60.0);
        FunnelingModel::disabled().apply(&t, &state, &[sw[2]], &mut loads);
        assert!((loads.max_direction(ck[0]) - 60.0).abs() < 1e-9);
        assert!(!FunnelingModel::disabled().is_enabled());
    }

    #[test]
    fn empty_drain_set_is_a_noop() {
        let (t, sw, ck) = fan();
        let state = NetState::all_up(&t);
        let mut loads = LoadMap::new(&t);
        loads.add_directed(&t, ck[0], sw[0], 10.0);
        FunnelingModel::default().apply(&t, &state, &[], &mut loads);
        assert!((loads.max_direction(ck[0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn sub_unit_factor_rejected() {
        let (t, sw, _) = fan();
        let mut state = NetState::all_up(&t);
        state.drain_switch(&t, sw[2]);
        let mut loads = LoadMap::new(&t);
        FunnelingModel {
            headroom_factor: 0.5,
        }
        .apply(&t, &state, &[sw[2]], &mut loads);
    }
}
