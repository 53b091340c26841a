//! Activation overlay over the immutable union topology.
//!
//! A [`NetState`] records which switches and circuits are currently *up*.
//! Draining a switch clears its bit; its circuits keep their own bits but
//! become unusable because a circuit is only usable when both endpoints and
//! the circuit itself are up. Migration actions are pure bit-flips, so
//! applying the same multiset of actions always yields the same state —
//! the invariant behind the paper's ordering-agnostic compact representation
//! (Definition 1, §4.2).

use crate::bitset::BitSet;
use crate::graph::Topology;
use crate::ids::{CircuitId, SwitchId};
use serde::{Deserialize, Serialize};

/// Which switches/circuits of a union topology are currently active.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NetState {
    switch_up: BitSet,
    circuit_up: BitSet,
}

impl NetState {
    /// All switches and circuits up.
    pub fn all_up(topo: &Topology) -> Self {
        Self {
            switch_up: BitSet::new_all_set(topo.num_switches()),
            circuit_up: BitSet::new_all_set(topo.num_circuits()),
        }
    }

    /// True if the switch's own bit is up.
    #[inline]
    pub fn switch_up(&self, id: SwitchId) -> bool {
        self.switch_up.get(id.index())
    }

    /// True if the circuit's own bit is up (endpoints not considered).
    #[inline]
    pub fn circuit_up(&self, id: CircuitId) -> bool {
        self.circuit_up.get(id.index())
    }

    /// A circuit is *usable* iff its own bit and both endpoint switches are up.
    #[inline]
    pub fn circuit_usable(&self, topo: &Topology, id: CircuitId) -> bool {
        if !self.circuit_up(id) {
            return false;
        }
        let c = topo.circuit(id);
        self.switch_up(c.a) && self.switch_up(c.b)
    }

    /// Sets a switch up or down.
    #[inline]
    pub fn set_switch(&mut self, id: SwitchId, up: bool) {
        self.switch_up.set(id.index(), up);
    }

    /// Sets a circuit up or down.
    #[inline]
    pub fn set_circuit(&mut self, id: CircuitId, up: bool) {
        self.circuit_up.set(id.index(), up);
    }

    /// Drains a switch and all its incident circuits.
    pub fn drain_switch(&mut self, topo: &Topology, id: SwitchId) {
        self.set_switch(id, false);
        for &(c, _) in topo.neighbors(id) {
            self.set_circuit(c, false);
        }
    }

    /// Undrains a switch and all its incident circuits *whose far endpoint is
    /// already up*. Circuits toward still-down peers stay down.
    pub fn undrain_switch(&mut self, topo: &Topology, id: SwitchId) {
        self.set_switch(id, true);
        for &(c, far) in topo.neighbors(id) {
            if self.switch_up(far) {
                self.set_circuit(c, true);
            }
        }
    }

    /// Count of *usable* incident circuits of a switch.
    pub fn active_degree(&self, topo: &Topology, id: SwitchId) -> usize {
        topo.neighbors(id)
            .iter()
            .filter(|&&(c, _)| self.circuit_usable(topo, c))
            .count()
    }

    /// Iterates over ids of switches currently up.
    pub fn switches_up(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.switch_up.iter_ones().map(SwitchId::from_index)
    }

    /// Fills `out` (cleared first) with every circuit whose usability
    /// differs between `self` and `other`, ascending. Only a circuit whose
    /// own bit or an endpoint's bit differs can have flipped, so the diff
    /// XORs the two states' words and judges those candidates alone: the
    /// circuits whose own bit flipped (distinct and ascending, straight off
    /// the words), and the circuits incident to a flipped switch whose own
    /// bit held. A drain or undrain flips the bits of the circuits it
    /// changes, so the second kind is rare; only when one changed is the
    /// list sorted and deduplicated (a circuit with both ends flipped is
    /// met twice). A reused `out` allocates nothing once grown.
    pub fn usability_diff_into(&self, topo: &Topology, other: &NetState, out: &mut Vec<CircuitId>) {
        out.clear();
        let differs = |c: CircuitId| self.circuit_usable(topo, c) != other.circuit_usable(topo, c);
        for s in self.switch_up.iter_diff(&other.switch_up) {
            for &(c, _) in topo.neighbors(SwitchId::from_index(s)) {
                if self.circuit_up(c) == other.circuit_up(c) && differs(c) {
                    out.push(c);
                }
            }
        }
        let endpoint_only = !out.is_empty();
        let flipped = self.circuit_up.iter_diff(&other.circuit_up);
        out.extend(flipped.map(CircuitId::from_index).filter(|&c| differs(c)));
        if endpoint_only {
            out.sort_unstable();
            out.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{SwitchSpec, TopologyBuilder};
    use crate::ids::DcId;
    use crate::presets::{self, PresetId};
    use crate::switch::{Generation, SwitchRole};
    use proptest::prelude::*;

    /// rsw - fsw - ssw line.
    fn line() -> (Topology, [SwitchId; 3], [CircuitId; 2]) {
        let mut b = TopologyBuilder::new("line");
        let spec = |r| SwitchSpec::new(r, Generation::V1, DcId(0), 32);
        let rsw = b.add_switch(spec(SwitchRole::Rsw));
        let fsw = b.add_switch(spec(SwitchRole::Fsw));
        let ssw = b.add_switch(spec(SwitchRole::Ssw));
        let c0 = b.add_circuit(rsw, fsw, 100.0).unwrap();
        let c1 = b.add_circuit(fsw, ssw, 100.0).unwrap();
        (b.build(), [rsw, fsw, ssw], [c0, c1])
    }

    #[test]
    fn all_up_is_all_usable() {
        let (t, sw, ck) = line();
        let up = NetState::all_up(&t);
        assert!(sw.iter().all(|&s| up.switch_up(s)));
        assert!(ck.iter().all(|&c| up.circuit_usable(&t, c)));
    }

    #[test]
    fn drain_switch_kills_incident_circuits() {
        let (t, sw, ck) = line();
        let mut s = NetState::all_up(&t);
        s.drain_switch(&t, sw[1]);
        assert!(!s.switch_up(sw[1]));
        assert!(!s.circuit_up(ck[0]));
        assert!(!s.circuit_up(ck[1]));
        assert_eq!(s.active_degree(&t, sw[0]), 0);
    }

    #[test]
    fn circuit_unusable_when_endpoint_down_even_if_bit_up() {
        let (t, sw, ck) = line();
        let mut s = NetState::all_up(&t);
        s.set_switch(sw[2], false);
        assert!(s.circuit_up(ck[1]), "circuit bit itself untouched");
        assert!(!s.circuit_usable(&t, ck[1]));
        assert!(s.circuit_usable(&t, ck[0]));
    }

    #[test]
    fn undrain_restores_only_circuits_to_live_peers() {
        let (t, sw, ck) = line();
        let mut s = NetState::all_up(&t);
        s.drain_switch(&t, sw[1]);
        s.set_switch(sw[2], false); // far peer also down
        s.undrain_switch(&t, sw[1]);
        assert!(s.switch_up(sw[1]));
        assert!(s.circuit_up(ck[0]), "peer rsw is up, circuit restored");
        assert!(!s.circuit_up(ck[1]), "peer ssw is down, circuit stays down");
    }

    #[test]
    fn drain_undrain_roundtrip_is_identity_when_peers_up() {
        let (t, sw, _) = line();
        let orig = NetState::all_up(&t);
        let mut s = orig.clone();
        s.drain_switch(&t, sw[1]);
        s.undrain_switch(&t, sw[1]);
        assert_eq!(s, orig);
    }

    #[test]
    fn iterators_report_up_elements() {
        let (t, sw, _) = line();
        let mut s = NetState::all_up(&t);
        s.set_switch(sw[1], false);
        let ups: Vec<SwitchId> = s.switches_up().collect();
        assert_eq!(ups, vec![sw[0], sw[2]]);
    }

    /// One edit of a state — what migration actions and a fleet's
    /// disturbances do to the bits — drawn as `x`: kind `x % 6`, element
    /// `x / 6`.
    fn edit(t: &Topology, s: &mut NetState, x: usize) {
        let (kind, i) = (x % 6, x / 6);
        let sw = SwitchId::from_index(i % t.num_switches());
        let c = CircuitId::from_index(i % t.num_circuits());
        match kind {
            // Drains, and undrains toward peers that may be down.
            0 => s.drain_switch(t, sw),
            1 => s.undrain_switch(t, sw),
            // Circuit-only failures and repairs.
            2 => s.set_circuit(c, false),
            3 => s.set_circuit(c, true),
            // A switch down with its circuit bits left up, and back.
            4 => s.set_switch(sw, false),
            _ => s.set_switch(sw, true),
        }
    }

    fn edits() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..600_000, 0..48)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word diff is the definition it replaces: every circuit whose
        /// usability differs, ascending, whatever the scratch held before.
        #[test]
        fn prop_usability_diff_is_the_per_circuit_definition(
            common in edits(),
            only_a in edits(),
            only_b in edits(),
        ) {
            let t = presets::build(PresetId::A).topology;
            let mut a = NetState::all_up(&t);
            for &e in &common {
                edit(&t, &mut a, e);
            }
            let mut b = a.clone();
            for &e in &only_a {
                edit(&t, &mut a, e);
            }
            for &e in &only_b {
                edit(&t, &mut b, e);
            }
            let reference: Vec<CircuitId> = (0..t.num_circuits())
                .map(CircuitId::from_index)
                .filter(|&c| a.circuit_usable(&t, c) != b.circuit_usable(&t, c))
                .collect();
            let mut diff = vec![CircuitId::from_index(0); 3];
            a.usability_diff_into(&t, &b, &mut diff);
            prop_assert_eq!(&diff, &reference);
            b.usability_diff_into(&t, &a, &mut diff);
            prop_assert_eq!(&diff, &reference);
        }
    }
}
