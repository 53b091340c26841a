//! Flattened CSR (compressed-sparse-row) view of a [`Topology`].
//!
//! Routing hot loops — per-destination BFS, reverse flow sweeps, and the
//! incremental engine's toggle classification — only ever ask four things
//! about the graph: a switch's incident circuits, a circuit's endpoints, its
//! hop weight, and its WCMP split weight. Answering those from the object
//! graph (`Vec<Vec<(CircuitId, SwitchId)>>` adjacency plus a `Circuit`
//! struct lookup per edge) costs two dependent loads per edge visit and
//! scatters the working set across per-switch heap allocations.
//!
//! [`CsrGraph`] bakes the answers into flat arrays built once per
//! topology: a classic offsets/edges CSR adjacency whose [`CsrEdge`] entries
//! carry the circuit id, the far switch, the *directional load slot*, and
//! the hop weight — everything the inner loops need in one 16-byte record —
//! then the 8-byte `(slot, far)` half of every record, which is all a load
//! sweep reads, and per-circuit endpoint, hop, and WCMP-weight arrays for
//! the toggle classifier. One graph is shared (`Arc`) by every routing
//! engine and every worker lane; it is immutable after build, matching the
//! union-graph design (migrations flip activation bits, never edges).
//!
//! Edge order within a switch's slice is exactly the `Topology::neighbors`
//! insertion order. Routing determinism depends on this: downhill lists are
//! collected in neighbor-scan order and f64 flow shares are summed in that
//! order, so the CSR view must reproduce it bit-for-bit. Where each record
//! sits in its row is kept per directed slot ([`CsrGraph::position`]), so
//! an engine that names a circuit's records by row index finds them
//! without a scan.

use crate::graph::Topology;

/// One directed adjacency record: everything the routing inner loops need
/// about visiting circuit `circuit` from its near endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrEdge {
    /// Dense circuit index.
    pub circuit: u32,
    /// Far endpoint's dense switch index.
    pub far: u32,
    /// Directional load slot for flow *leaving the near endpoint* over this
    /// circuit — precomputed `LoadMap::directed_slot`: `circuit * 2`, plus 1
    /// when the near endpoint is the circuit's `b` side.
    pub slot: u32,
    /// Hop weight (`Circuit::hop_weight` widened for distance arithmetic).
    pub hop: u32,
}

/// Immutable flat-array view of one topology, shared by all routing engines.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u + 1]` indexes `edges` for switch `u`.
    offsets: Vec<u32>,
    /// Adjacency records, per switch in `Topology::neighbors` order.
    edges: Vec<CsrEdge>,
    /// `(slot, far)` of every adjacency record, in the same order.
    links: Vec<(u32, u32)>,
    /// Per directed slot: the index of its record within its near
    /// endpoint's row.
    positions: Vec<u32>,
    /// Per-circuit hop weight (for toggle classification off the hot path).
    hop: Vec<u32>,
    /// Per-circuit endpoints as dense switch indices `(a, b)`.
    ends: Vec<(u32, u32)>,
    /// Per-circuit WCMP split weight: the configured routing weight, falling
    /// back to the physical capacity — precomputed so the sweep never
    /// touches the `Circuit` structs.
    wcmp: Vec<f64>,
}

impl CsrGraph {
    /// Flattens `topo`. Edge order within each switch's slice equals the
    /// `Topology::neighbors` insertion order (a determinism invariant, see
    /// the module docs).
    pub fn build(topo: &Topology) -> Self {
        let n = topo.num_switches();
        let m = topo.num_circuits();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(2 * m);
        let mut positions = vec![0; 2 * m];
        offsets.push(0u32);
        for u in 0..n {
            for (k, &(c, far)) in topo
                .neighbors(crate::SwitchId::from_index(u))
                .iter()
                .enumerate()
            {
                let ck = topo.circuit(c);
                let dir = if ck.a.index() == u { 0 } else { 1 };
                let slot = c.index() * 2 + dir;
                positions[slot] = k as u32;
                edges.push(CsrEdge {
                    circuit: c.index() as u32,
                    far: far.0,
                    slot: slot as u32,
                    hop: ck.hop_weight as u32,
                });
            }
            offsets.push(edges.len() as u32);
        }
        let links = edges.iter().map(|e| (e.slot, e.far)).collect();
        let mut hop = Vec::with_capacity(m);
        let mut ends = Vec::with_capacity(m);
        let mut wcmp = Vec::with_capacity(m);
        for i in 0..m {
            let ck = topo.circuit(crate::CircuitId::from_index(i));
            hop.push(ck.hop_weight as u32);
            ends.push((ck.a.0, ck.b.0));
            wcmp.push(ck.routing_weight.unwrap_or(ck.capacity_gbps));
        }
        Self {
            offsets,
            edges,
            links,
            positions,
            hop,
            ends,
            wcmp,
        }
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of circuits.
    #[inline]
    pub fn num_circuits(&self) -> usize {
        self.hop.len()
    }

    /// Adjacency slice of switch `u`, in `Topology::neighbors` order.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[CsrEdge] {
        &self.edges[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// The row offsets: switch `u`'s adjacency slice starts at edge index
    /// `offsets()[u]`, and the last of the `num_switches() + 1` entries is
    /// the directed edge count. For side tables laid out like the adjacency
    /// itself: [`links`](Self::links), and the incremental engine's
    /// per-destination DAG arena of 2-byte indices into each row.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// `(slot, far)` of every directed edge, row after row like the
    /// adjacency: switch `u`'s are `links()[offsets()[u]..offsets()[u + 1]]`.
    /// Half the bytes of a [`CsrEdge`], for a load sweep that reads nothing
    /// else.
    #[inline]
    pub fn links(&self) -> &[(u32, u32)] {
        &self.links
    }

    /// The index `k` of directed slot `slot`'s record within its near
    /// endpoint `u`'s row: `neighbors(u)[k].slot == slot`. A circuit's two
    /// records are slots `2c` (near end `a`) and `2c + 1` (near end `b`), so
    /// `slot ^ 1` names the far end's record of the same circuit.
    #[inline]
    pub fn position(&self, slot: u32) -> usize {
        self.positions[slot as usize] as usize
    }

    /// Hop weight of circuit `c`.
    #[inline]
    pub fn hop(&self, c: u32) -> u32 {
        self.hop[c as usize]
    }

    /// Endpoints of circuit `c` as dense switch indices.
    #[inline]
    pub fn ends(&self, c: u32) -> (u32, u32) {
        self.ends[c as usize]
    }

    /// WCMP split weight of circuit `c`.
    #[inline]
    pub fn wcmp_weight(&self, c: u32) -> f64 {
        self.wcmp[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{self, PresetId};
    use crate::{CircuitId, SwitchId};

    #[test]
    fn csr_mirrors_topology_adjacency() {
        let p = presets::build(PresetId::A);
        let t = &p.topology;
        let g = CsrGraph::build(t);
        assert_eq!(g.num_switches(), t.num_switches());
        assert_eq!(g.num_circuits(), t.num_circuits());
        for u in 0..t.num_switches() {
            let adj = t.neighbors(SwitchId::from_index(u));
            let csr = g.neighbors(u as u32);
            assert_eq!(adj.len(), csr.len(), "degree of switch {u}");
            let row = g.offsets()[u] as usize..g.offsets()[u + 1] as usize;
            assert_eq!(row.len(), csr.len(), "offsets row of switch {u}");
            let links: Vec<(u32, u32)> = csr.iter().map(|e| (e.slot, e.far)).collect();
            assert_eq!(g.links()[row], links[..], "links row of switch {u}");
            for (&(c, far), e) in adj.iter().zip(csr) {
                assert_eq!(e.circuit as usize, c.index());
                assert_eq!(e.far, far.0);
                let ck = t.circuit(c);
                assert_eq!(e.hop, ck.hop_weight as u32);
                let dir = if ck.a.index() == u { 0 } else { 1 };
                assert_eq!(e.slot as usize, c.index() * 2 + dir);
            }
        }
    }

    #[test]
    fn every_record_sits_at_its_slot_position() {
        let p = presets::build(PresetId::A);
        let g = CsrGraph::build(&p.topology);
        for u in 0..g.num_switches() as u32 {
            for (k, e) in g.neighbors(u).iter().enumerate() {
                assert_eq!(g.position(e.slot), k, "switch {u}");
                let far = g.neighbors(e.far)[g.position(e.slot ^ 1)];
                assert_eq!((far.circuit, far.far), (e.circuit, u), "switch {u}");
            }
        }
    }

    #[test]
    fn per_circuit_arrays_match_circuit_structs() {
        let p = presets::build(PresetId::A);
        let t = &p.topology;
        let g = CsrGraph::build(t);
        for i in 0..t.num_circuits() {
            let ck = t.circuit(CircuitId::from_index(i));
            assert_eq!(g.hop(i as u32), ck.hop_weight as u32);
            assert_eq!(g.ends(i as u32), (ck.a.0, ck.b.0));
            let w = ck.routing_weight.unwrap_or(ck.capacity_gbps);
            assert_eq!(g.wcmp_weight(i as u32).to_bits(), w.to_bits());
        }
    }
}
