//! Per-circuit directional load accounting.
//!
//! Circuits are full duplex: a 400 Gbps circuit carries 400 Gbps in each
//! direction. [`LoadMap`] therefore tracks two accumulators per circuit —
//! the `a→b` and `b→a` directions — and reports utilization as the maximum
//! of the two, which is what bounds congestion in practice.

use klotski_topology::{CircuitId, SwitchId, Topology};

/// Directional traffic loads over the circuits of one topology.
///
/// Dense on purpose: a routing sweep adds into every slot of the usable
/// fabric about a dozen times per check, so bookkeeping per add (to keep
/// `clear` proportional to the slots written) costs far more than the one
/// `fill` it saves.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadMap {
    /// `loads[2c]` = flow in the circuit's `a→b` direction,
    /// `loads[2c+1]` = flow in the `b→a` direction, Gbps.
    loads: Vec<f64>,
}

impl LoadMap {
    /// Zero loads for a topology.
    pub fn new(topo: &Topology) -> Self {
        Self {
            loads: vec![0.0; topo.num_circuits() * 2],
        }
    }

    /// Resets all loads to zero (reused across satisfiability checks).
    pub fn clear(&mut self) {
        self.loads.fill(0.0);
    }

    /// The directional slot index for flow on `c` *leaving* switch `from`
    /// (which must be an endpoint of `c`). Precomputing the slot lets hot
    /// loops skip the endpoint comparison on replay.
    #[inline]
    pub fn directed_slot(topo: &Topology, c: CircuitId, from: SwitchId) -> u32 {
        let circuit = topo.circuit(c);
        let dir = if from == circuit.a {
            0
        } else {
            debug_assert_eq!(from, circuit.b, "from must be an endpoint");
            1
        };
        (c.index() * 2 + dir) as u32
    }

    /// Adds `gbps` of flow to a directional slot from [`directed_slot`].
    ///
    /// [`directed_slot`]: Self::directed_slot
    #[inline]
    pub fn add_slot(&mut self, slot: u32, gbps: f64) {
        self.loads[slot as usize] += gbps;
    }

    /// The directional slots, indexed like [`directed_slot`] — the flat view
    /// the incremental engine's one-matrix load sweep adds into.
    ///
    /// [`directed_slot`]: Self::directed_slot
    #[inline]
    pub(crate) fn slots_mut(&mut self) -> &mut [f64] {
        &mut self.loads
    }

    /// Adds `gbps` of flow on circuit `c` in the direction *leaving* switch
    /// `from` (which must be an endpoint of `c`).
    #[inline]
    pub fn add_directed(&mut self, topo: &Topology, c: CircuitId, from: SwitchId, gbps: f64) {
        self.add_slot(Self::directed_slot(topo, c, from), gbps);
    }

    /// Flow on circuit `c` in its `a→b` direction.
    #[inline]
    pub fn forward(&self, c: CircuitId) -> f64 {
        self.loads[c.index() * 2]
    }

    /// Flow on circuit `c` in its `b→a` direction.
    #[inline]
    pub fn reverse(&self, c: CircuitId) -> f64 {
        self.loads[c.index() * 2 + 1]
    }

    /// Worst-direction flow on circuit `c`.
    #[inline]
    pub fn max_direction(&self, c: CircuitId) -> f64 {
        self.forward(c).max(self.reverse(c))
    }

    /// Worst-direction utilization of circuit `c` against its capacity.
    #[inline]
    pub fn utilization(&self, topo: &Topology, c: CircuitId) -> f64 {
        self.max_direction(c) / topo.circuit(c).capacity_gbps
    }

    /// Multiplies both directions of circuit `c` by `factor` (funneling).
    #[inline]
    pub fn scale_circuit(&mut self, c: CircuitId, factor: f64) {
        self.loads[c.index() * 2] *= factor;
        self.loads[c.index() * 2 + 1] *= factor;
    }

    /// Number of circuits covered.
    pub fn num_circuits(&self) -> usize {
        self.loads.len() / 2
    }

    /// Total flow over all circuits and directions, Gbps. Useful as a
    /// conservation diagnostic in tests.
    pub fn total_flow(&self) -> f64 {
        self.loads.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_topology::{
        graph::{SwitchSpec, TopologyBuilder},
        DcId, Generation, SwitchRole,
    };

    fn pair() -> (Topology, SwitchId, SwitchId, CircuitId) {
        let mut b = TopologyBuilder::new("p");
        let x = b.add_switch(SwitchSpec::new(SwitchRole::Rsw, Generation::V1, DcId(0), 8));
        let y = b.add_switch(SwitchSpec::new(SwitchRole::Fsw, Generation::V1, DcId(0), 8));
        let c = b.add_circuit(x, y, 100.0).unwrap();
        (b.build(), x, y, c)
    }

    #[test]
    fn directions_are_independent() {
        let (t, x, y, c) = pair();
        let mut l = LoadMap::new(&t);
        l.add_directed(&t, c, x, 30.0);
        l.add_directed(&t, c, y, 70.0);
        assert_eq!(l.forward(c), 30.0);
        assert_eq!(l.reverse(c), 70.0);
        assert_eq!(l.max_direction(c), 70.0);
        assert!((l.utilization(&t, c) - 0.7).abs() < 1e-12);
        assert!((l.total_flow() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets() {
        let (t, x, _, c) = pair();
        let mut l = LoadMap::new(&t);
        l.add_directed(&t, c, x, 10.0);
        l.clear();
        assert_eq!(l.max_direction(c), 0.0);
        assert_eq!(l.num_circuits(), 1);
    }

    #[test]
    fn clear_after_scale_circuit_matches_fresh_map() {
        let (t, x, y, c) = pair();
        let mut l = LoadMap::new(&t);
        l.add_directed(&t, c, x, 10.0);
        l.add_directed(&t, c, y, 5.0);
        // `scale_circuit` writes slots without going through `add_slot`;
        // `clear` must reset those too.
        l.scale_circuit(c, 2.0);
        assert_ne!(l, LoadMap::new(&t));
        l.clear();
        assert_eq!(l, LoadMap::new(&t));
        // Reuse after a clear accumulates from zero again.
        l.add_slot(LoadMap::directed_slot(&t, c, x), 7.0);
        assert_eq!(l.forward(c), 7.0);
        assert_eq!(l.reverse(c), 0.0);
    }

    #[test]
    fn slot_api_matches_directed_api() {
        let (t, x, y, c) = pair();
        let mut a = LoadMap::new(&t);
        let mut b = LoadMap::new(&t);
        a.add_directed(&t, c, x, 3.0);
        a.add_directed(&t, c, y, 4.0);
        b.add_slot(LoadMap::directed_slot(&t, c, x), 3.0);
        b.add_slot(LoadMap::directed_slot(&t, c, y), 4.0);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_circuit_scales_both_directions() {
        let (t, x, y, c) = pair();
        let mut l = LoadMap::new(&t);
        l.add_directed(&t, c, x, 10.0);
        l.add_directed(&t, c, y, 20.0);
        l.scale_circuit(c, 1.5);
        assert_eq!(l.forward(c), 15.0);
        assert_eq!(l.reverse(c), 30.0);
    }
}
