//! Usable-circuit bitmask, hoisted out of routing inner loops.
//!
//! `NetState::circuit_usable` consults the circuit's own bit plus both
//! endpoint switches. The BFS and flow sweeps ask that question once per
//! circuit *per destination group*, so a full satisfiability check repeats
//! it O(|destinations| × |C|) times over an unchanging state. [`UsableMask`]
//! evaluates the predicate once per circuit per state and answers from a
//! bitset afterwards — and, being read-only after [`compute`], it is shared
//! safely across parallel routing lanes.
//!
//! [`compute`]: UsableMask::compute

use klotski_topology::{BitSet, CircuitId, NetState, Topology};

/// The set of circuits usable under one `(Topology, NetState)` pair.
#[derive(Debug, Clone)]
pub struct UsableMask {
    bits: BitSet,
    len: usize,
}

impl Default for UsableMask {
    fn default() -> Self {
        Self {
            bits: BitSet::new(0),
            len: 0,
        }
    }
}

impl UsableMask {
    /// An empty mask; call [`compute`](Self::compute) before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recomputes the mask for `state`, reusing the allocation when the
    /// topology size is unchanged.
    pub fn compute(&mut self, topo: &Topology, state: &NetState) {
        let n = topo.num_circuits();
        if self.len != n {
            self.bits = BitSet::new(n);
            self.len = n;
        } else {
            self.bits.clear_all();
        }
        for i in 0..n {
            if state.circuit_usable(topo, CircuitId::from_index(i)) {
                self.bits.set(i, true);
            }
        }
    }

    /// Overwrites the usability bit of one circuit. The incremental engine
    /// flips exactly the circuits whose usability changed between two
    /// states, skipping the full O(|C|) rescan of [`compute`](Self::compute).
    #[inline]
    pub(crate) fn set(&mut self, c: CircuitId, usable: bool) {
        self.bits.set(c.index(), usable);
    }

    /// True if circuit `c` was usable in the state last computed.
    #[inline]
    pub(crate) fn usable(&self, c: CircuitId) -> bool {
        self.bits.get(c.index())
    }

    /// [`usable`](Self::usable) by dense circuit index — the form the
    /// CSR-flattened routing loops use, skipping the id round-trip.
    #[inline]
    pub(crate) fn usable_idx(&self, c: usize) -> bool {
        self.bits.get(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_topology::{
        graph::{SwitchSpec, TopologyBuilder},
        DcId, Generation, SwitchRole,
    };

    impl UsableMask {
        /// A mask computed for one state.
        pub(crate) fn for_state(topo: &Topology, state: &NetState) -> Self {
            let mut m = Self::new();
            m.compute(topo, state);
            m
        }
    }

    fn line3() -> (Topology, [klotski_topology::SwitchId; 3], [CircuitId; 2]) {
        let mut b = TopologyBuilder::new("line");
        let x = b.add_switch(SwitchSpec::new(SwitchRole::Rsw, Generation::V1, DcId(0), 8));
        let y = b.add_switch(SwitchSpec::new(SwitchRole::Fsw, Generation::V1, DcId(0), 8));
        let z = b.add_switch(SwitchSpec::new(SwitchRole::Ebb, Generation::V1, DcId(0), 8));
        let c0 = b.add_circuit(x, y, 100.0).unwrap();
        let c1 = b.add_circuit(y, z, 100.0).unwrap();
        (b.build(), [x, y, z], [c0, c1])
    }

    #[test]
    fn mask_matches_predicate() {
        let (t, sw, ck) = line3();
        let mut state = NetState::all_up(&t);
        state.set_circuit(ck[0], false);
        state.set_switch(sw[2], false);
        let m = UsableMask::for_state(&t, &state);
        for &c in &ck {
            assert_eq!(m.usable(c), state.circuit_usable(&t, c), "{c}");
        }
        assert!(!m.usable(ck[0]), "down circuit");
        assert!(!m.usable(ck[1]), "down endpoint");
    }

    #[test]
    fn recompute_tracks_state_changes() {
        let (t, _, ck) = line3();
        let mut state = NetState::all_up(&t);
        let mut m = UsableMask::for_state(&t, &state);
        assert!(m.usable(ck[0]) && m.usable(ck[1]));
        state.set_circuit(ck[1], false);
        m.compute(&t, &state);
        assert!(m.usable(ck[0]) && !m.usable(ck[1]));
        assert_eq!(m.len, 2);
    }
}
