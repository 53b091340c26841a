//! The union topology graph and its builder.
//!
//! A [`Topology`] is immutable once built. It contains *every* switch and
//! circuit that exists at any point of a migration — old-generation hardware
//! that will be drained and new-generation hardware that will be undrained.
//! Which elements are currently live is tracked separately by
//! [`NetState`](crate::netstate::NetState). This split is what makes
//! Klotski's compact state representation (§4.2 of the paper) sound: the
//! intermediate network is a pure function of which actions finished, never
//! of their order.

use crate::circuit::Circuit;
use crate::error::TopologyError;
use crate::ids::{CircuitId, DcId, GridId, PlaneId, PodId, SwitchId};
use crate::stats::TopologyStats;
use crate::switch::{Generation, Switch, SwitchRole};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An immutable multi-layer DCN graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    switches: Vec<Switch>,
    circuits: Vec<Circuit>,
    /// Adjacency: for each switch, the incident circuits and far endpoints.
    adj: Vec<Vec<(CircuitId, SwitchId)>>,
}

impl Topology {
    /// Topology name (preset id or NPD-supplied name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of switches in the union graph.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of circuits in the union graph.
    #[inline]
    pub fn num_circuits(&self) -> usize {
        self.circuits.len()
    }

    /// Looks up a switch record.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.index()]
    }

    /// Looks up a circuit record.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn circuit(&self, id: CircuitId) -> &Circuit {
        &self.circuits[id.index()]
    }

    /// All switches in id order.
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// All circuits in id order.
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// Incident circuits of `id` with their far endpoints, in insertion order.
    #[inline]
    pub fn neighbors(&self, id: SwitchId) -> &[(CircuitId, SwitchId)] {
        &self.adj[id.index()]
    }

    /// Union-graph degree of a switch (count of incident circuits).
    #[inline]
    pub fn degree(&self, id: SwitchId) -> usize {
        self.adj[id.index()].len()
    }

    /// All switches with the given role, in id order.
    pub fn switches_by_role(&self, role: SwitchRole) -> impl Iterator<Item = &Switch> + '_ {
        self.switches.iter().filter(move |s| s.role == role)
    }

    /// Circuits whose endpoints are exactly `{a, b}` (there may be several
    /// parallel circuits between a pair).
    pub fn circuits_between(&self, a: SwitchId, b: SwitchId) -> Vec<CircuitId> {
        self.adj[a.index()]
            .iter()
            .filter(|&&(_, far)| far == b)
            .map(|&(c, _)| c)
            .collect()
    }

    /// Sum of all circuit capacities, in Gbps.
    pub fn total_capacity_gbps(&self) -> f64 {
        self.circuits.iter().map(|c| c.capacity_gbps).sum()
    }

    /// Aggregate statistics (per-role counts, capacities).
    pub fn stats(&self) -> TopologyStats {
        TopologyStats::compute(self)
    }

    /// Overrides a switch's physical port budget. Migration-spec builders
    /// use this to derive budgets that reflect real chassis sizing: enough
    /// ports for the old world, the new world, and a bounded transient
    /// overlap — which is what makes the Eq. 6 port constraints bind
    /// mid-migration ("we often need to decommission some circuits first to
    /// free up the ports", §2.3).
    pub fn set_max_ports(&mut self, id: SwitchId, max_ports: u16) {
        self.switches[id.index()].max_ports = max_ports;
    }

    /// Overrides a circuit's capacity. Migration-spec builders use this to
    /// normalize the capacity of circuits *outside* the migration scope so
    /// they carry their current traffic within bounds — which is
    /// tautologically true of a working production network and must be made
    /// true of synthetic ones.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite capacities.
    pub fn set_capacity(&mut self, id: CircuitId, capacity_gbps: f64) {
        assert!(
            capacity_gbps.is_finite() && capacity_gbps > 0.0,
            "capacity must be finite and positive"
        );
        self.circuits[id.index()].capacity_gbps = capacity_gbps;
    }

    /// Sets a WCMP routing-weight override on a built topology; see
    /// [`Circuit::routing_weight`].
    pub fn set_routing_weight(&mut self, id: CircuitId, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        self.circuits[id.index()].routing_weight = Some(weight);
    }

    /// Validates structural invariants of the union graph: no isolated
    /// switches. Self-loops and bad capacities are rejected at build time.
    ///
    /// Port budgets are deliberately NOT checked here: a migration union
    /// graph contains both hardware generations wired to the same neighbors,
    /// so the union degree of a shared switch legitimately exceeds its
    /// chassis ports. The port constraint (Eq. 6 of the paper) binds on the
    /// *active* state — see [`Topology::port_violations`].
    pub fn validate(&self) -> Result<(), TopologyError> {
        for s in &self.switches {
            if self.degree(s.id) == 0 {
                return Err(TopologyError::Isolated(s.id));
            }
        }
        Ok(())
    }

    /// True if any live switch exceeds its port budget in `state` —
    /// the boolean form of [`port_violations`](Self::port_violations),
    /// allocation-free and early-exiting for the satisfiability hot path.
    pub fn has_port_violation(&self, state: &crate::netstate::NetState) -> bool {
        self.switches.iter().any(|s| {
            state.switch_up(s.id) && state.active_degree(self, s.id) > s.max_ports as usize
        })
    }

    /// Returns every switch whose count of *usable* incident circuits in
    /// `state` exceeds its physical port budget (the Eq. 6 constraint).
    pub fn port_violations(&self, state: &crate::netstate::NetState) -> Vec<TopologyError> {
        let mut violations = Vec::new();
        for s in &self.switches {
            if !state.switch_up(s.id) {
                continue;
            }
            let deg = state.active_degree(self, s.id);
            if deg > s.max_ports as usize {
                violations.push(TopologyError::PortOverflow {
                    switch: s.id,
                    degree: deg,
                    max_ports: s.max_ports,
                });
            }
        }
        violations
    }

    /// Validates the union graph as a *standalone* network (no pending
    /// migration): structural invariants plus port budgets with everything
    /// active. Use this for single-generation topologies.
    pub fn validate_standalone(&self) -> Result<(), TopologyError> {
        self.validate()?;
        let all_up = crate::netstate::NetState::all_up(self);
        match self.port_violations(&all_up).into_iter().next() {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }
}

/// Incremental builder for [`Topology`].
///
/// Generators (fabric, HGRID, DMAG, backbone) all append into one shared
/// builder so that cross-layer circuits can reference switches created by a
/// previous stage.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    switches: Vec<Switch>,
    circuits: Vec<Circuit>,
    adj: Vec<Vec<(CircuitId, SwitchId)>>,
    /// Switches added so far per `(dc, role, generation)` triple: the next
    /// name ordinal of each.
    ordinals: HashMap<(DcId, SwitchRole, Generation), usize>,
}

/// Parameters for [`TopologyBuilder::add_switch`].
#[derive(Debug, Clone)]
pub struct SwitchSpec {
    pub role: SwitchRole,
    pub generation: Generation,
    pub dc: DcId,
    pub plane: Option<PlaneId>,
    pub pod: Option<PodId>,
    pub grid: Option<GridId>,
    pub max_ports: u16,
}

impl SwitchSpec {
    /// Convenience constructor with no positional coordinates.
    pub fn new(role: SwitchRole, generation: Generation, dc: DcId, max_ports: u16) -> Self {
        Self {
            role,
            generation,
            dc,
            plane: None,
            pod: None,
            grid: None,
            max_ports,
        }
    }

    /// Sets the plane coordinate.
    pub fn plane(mut self, plane: PlaneId) -> Self {
        self.plane = Some(plane);
        self
    }

    /// Sets the pod coordinate.
    pub fn pod(mut self, pod: PodId) -> Self {
        self.pod = Some(pod);
        self
    }

    /// Sets the grid coordinate.
    pub fn grid(mut self, grid: GridId) -> Self {
        self.grid = Some(grid);
        self
    }
}

impl TopologyBuilder {
    /// Starts an empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            switches: Vec::new(),
            circuits: Vec::new(),
            adj: Vec::new(),
            ordinals: HashMap::new(),
        }
    }

    /// Number of switches added so far.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of circuits added so far.
    pub fn num_circuits(&self) -> usize {
        self.circuits.len()
    }

    /// Read access to a switch added earlier.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.index()]
    }

    /// Appends a switch and returns its id. The ordinal used in the generated
    /// name is the count of previously added switches with the same
    /// (dc, role, generation) triple.
    pub fn add_switch(&mut self, spec: SwitchSpec) -> SwitchId {
        let id = SwitchId::from_index(self.switches.len());
        let next = self
            .ordinals
            .entry((spec.dc, spec.role, spec.generation))
            .or_insert(0);
        let ordinal = *next;
        *next += 1;
        let name = Switch::canonical_name(
            spec.dc,
            spec.role,
            spec.generation,
            spec.plane,
            spec.pod,
            spec.grid,
            ordinal,
        );
        self.switches.push(Switch {
            id,
            role: spec.role,
            generation: spec.generation,
            dc: spec.dc,
            plane: spec.plane,
            pod: spec.pod,
            grid: spec.grid,
            max_ports: spec.max_ports,
            name,
        });
        self.adj.push(Vec::new());
        id
    }

    /// Appends a circuit between two existing switches.
    ///
    /// Rejects self-loops, unknown endpoints, and non-positive capacities.
    pub fn add_circuit(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        capacity_gbps: f64,
    ) -> Result<CircuitId, TopologyError> {
        if a.index() >= self.switches.len() {
            return Err(TopologyError::UnknownSwitch(a));
        }
        if b.index() >= self.switches.len() {
            return Err(TopologyError::UnknownSwitch(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        let id = CircuitId::from_index(self.circuits.len());
        if !(capacity_gbps.is_finite() && capacity_gbps > 0.0) {
            return Err(TopologyError::BadCapacity {
                circuit: id,
                capacity: capacity_gbps,
            });
        }
        self.circuits.push(Circuit {
            id,
            a,
            b,
            capacity_gbps,
            hop_weight: Circuit::HOP,
            routing_weight: None,
        });
        self.adj[a.index()].push((id, b));
        self.adj[b.index()].push((id, a));
        Ok(id)
    }

    /// Marks a circuit as a transparent relay (half hop weight); see
    /// [`Circuit::hop_weight`].
    pub fn set_half_hop(&mut self, id: CircuitId) {
        self.circuits[id.index()].hop_weight = Circuit::HALF_HOP;
    }

    /// Sets a WCMP routing-weight override; see [`Circuit::routing_weight`].
    pub fn set_routing_weight(&mut self, id: CircuitId, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        self.circuits[id.index()].routing_weight = Some(weight);
    }

    /// Snapshot of a switch's current neighbors: (far endpoint, capacity)
    /// per incident circuit. Used to mirror wiring onto a new-generation
    /// twin while the builder is being mutated.
    pub fn neighbor_snapshot(&self, of: SwitchId) -> Vec<(SwitchId, f64)> {
        self.adj[of.index()]
            .iter()
            .map(|&(c, far)| (far, self.circuits[c.index()].capacity_gbps))
            .collect()
    }

    /// Adds `count` parallel circuits between `a` and `b`.
    pub fn add_parallel_circuits(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        capacity_gbps: f64,
        count: usize,
    ) -> Result<Vec<CircuitId>, TopologyError> {
        (0..count)
            .map(|_| self.add_circuit(a, b, capacity_gbps))
            .collect()
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        Topology {
            name: self.name,
            switches: self.switches,
            circuits: self.circuits,
            adj: self.adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(role: SwitchRole) -> SwitchSpec {
        SwitchSpec::new(role, Generation::V1, DcId(0), 64)
    }

    fn tiny() -> (Topology, SwitchId, SwitchId, SwitchId) {
        let mut b = TopologyBuilder::new("tiny");
        let rsw = b.add_switch(spec(SwitchRole::Rsw));
        let fsw = b.add_switch(spec(SwitchRole::Fsw));
        let ssw = b.add_switch(spec(SwitchRole::Ssw));
        b.add_circuit(rsw, fsw, 100.0).unwrap();
        b.add_circuit(fsw, ssw, 200.0).unwrap();
        (b.build(), rsw, fsw, ssw)
    }

    #[test]
    fn build_and_query() {
        let (t, rsw, fsw, ssw) = tiny();
        assert_eq!(t.name(), "tiny");
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_circuits(), 2);
        assert_eq!(t.degree(fsw), 2);
        assert_eq!(t.degree(rsw), 1);
        assert_eq!(t.neighbors(rsw)[0].1, fsw);
        assert_eq!(t.switch(ssw).role, SwitchRole::Ssw);
        assert!((t.total_capacity_gbps() - 300.0).abs() < 1e-9);
        t.validate().unwrap();
    }

    #[test]
    fn names_are_unique_per_coordinates() {
        let mut b = TopologyBuilder::new("t");
        let a = b.add_switch(spec(SwitchRole::Ssw));
        let c = b.add_switch(spec(SwitchRole::Ssw));
        assert_ne!(b.switch(a).name, b.switch(c).name);
        assert!(b.switch(a).name.contains("SSW"));
    }

    #[test]
    fn name_ordinals_count_earlier_switches_of_the_same_triple() {
        let t = crate::presets::build(crate::presets::PresetId::E).topology;
        let switches = t.switches();
        for (i, s) in switches.iter().enumerate() {
            let ordinal = switches[..i]
                .iter()
                .filter(|e| (e.dc, e.role, e.generation) == (s.dc, s.role, s.generation))
                .count();
            let name =
                Switch::canonical_name(s.dc, s.role, s.generation, s.plane, s.pod, s.grid, ordinal);
            assert_eq!(s.name, name, "switch {i}");
        }
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new("t");
        let a = b.add_switch(spec(SwitchRole::Rsw));
        assert_eq!(
            b.add_circuit(a, a, 100.0).unwrap_err(),
            TopologyError::SelfLoop(a)
        );
    }

    #[test]
    fn unknown_switch_rejected() {
        let mut b = TopologyBuilder::new("t");
        let a = b.add_switch(spec(SwitchRole::Rsw));
        let ghost = SwitchId(99);
        assert_eq!(
            b.add_circuit(a, ghost, 100.0).unwrap_err(),
            TopologyError::UnknownSwitch(ghost)
        );
    }

    #[test]
    fn bad_capacity_rejected() {
        let mut b = TopologyBuilder::new("t");
        let a = b.add_switch(spec(SwitchRole::Rsw));
        let c = b.add_switch(spec(SwitchRole::Fsw));
        assert!(matches!(
            b.add_circuit(a, c, 0.0),
            Err(TopologyError::BadCapacity { .. })
        ));
        assert!(matches!(
            b.add_circuit(a, c, f64::NAN),
            Err(TopologyError::BadCapacity { .. })
        ));
        assert!(matches!(
            b.add_circuit(a, c, -5.0),
            Err(TopologyError::BadCapacity { .. })
        ));
    }

    #[test]
    fn parallel_circuits() {
        let mut b = TopologyBuilder::new("t");
        let a = b.add_switch(spec(SwitchRole::Fadu));
        let c = b.add_switch(spec(SwitchRole::Fauu));
        let ids = b.add_parallel_circuits(a, c, 400.0, 3).unwrap();
        assert_eq!(ids.len(), 3);
        let t = b.build();
        assert_eq!(t.circuits_between(a, c).len(), 3);
        assert_eq!(t.circuits_between(c, a).len(), 3);
    }

    #[test]
    fn validate_detects_isolated() {
        let mut b = TopologyBuilder::new("t");
        b.add_switch(spec(SwitchRole::Rsw));
        let t = b.build();
        assert!(matches!(t.validate(), Err(TopologyError::Isolated(_))));
    }

    #[test]
    fn validate_detects_port_overflow() {
        let mut b = TopologyBuilder::new("t");
        let mut s = spec(SwitchRole::Fsw);
        s.max_ports = 1;
        let hub = b.add_switch(s);
        let x = b.add_switch(spec(SwitchRole::Rsw));
        let y = b.add_switch(spec(SwitchRole::Rsw));
        b.add_circuit(hub, x, 100.0).unwrap();
        b.add_circuit(hub, y, 100.0).unwrap();
        let t = b.build();
        t.validate().unwrap(); // structural validation ignores ports
        assert!(matches!(
            t.validate_standalone(),
            Err(TopologyError::PortOverflow { degree: 2, .. })
        ));
        // Draining one peer brings the hub back under budget.
        let mut state = crate::netstate::NetState::all_up(&t);
        state.drain_switch(&t, y);
        assert!(t.port_violations(&state).is_empty());
    }

    #[test]
    fn circuits_between_is_symmetric_and_exact() {
        let (t, rsw, fsw, ssw) = tiny();
        assert_eq!(t.circuits_between(rsw, fsw).len(), 1);
        assert_eq!(t.circuits_between(rsw, ssw).len(), 0);
    }
}
