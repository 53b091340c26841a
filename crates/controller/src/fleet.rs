//! Simulated fleet: the planned activation overlay plus live disturbances.
//!
//! The controller tracks two views of the network. The *planned* state is
//! the canonical overlay of the migration's compact progress — the world as
//! the plan believes it to be. Disturbances (failed circuits, externally
//! drained switches) live in a separate overlay keyed by the step at which
//! they recover, and the *observed* state — what a shadow audit must judge
//! — is the planned state with every active disturbance applied on top.
//!
//! Keeping the overlays separate is what makes rollback tractable: rolling
//! back restores an earlier planned state and re-applies the disturbances,
//! without trying to invert them.

use klotski_core::migration::MigrationSpec;
use klotski_topology::{CircuitId, NetState, SwitchId, Topology};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::collections::{BTreeMap, HashSet};

/// The fleet's live state: planned overlay + disturbances.
#[derive(Debug, Clone)]
pub(crate) struct FleetSim {
    /// Canonical overlay of the migration's progress (no disturbances).
    pub planned: NetState,
    /// Circuits down outside the plan, with the step (exclusive) at which
    /// each recovers; `None` = permanently down. `BTreeMap` keeps the
    /// application order deterministic.
    failed_circuits: BTreeMap<CircuitId, Option<usize>>,
    /// Switches drained by external operations, same window convention.
    drained_switches: BTreeMap<SwitchId, Option<usize>>,
}

impl FleetSim {
    /// A fleet starting at the migration's initial state with no
    /// disturbances.
    pub(crate) fn new(initial: NetState) -> Self {
        Self {
            planned: initial,
            failed_circuits: BTreeMap::new(),
            drained_switches: BTreeMap::new(),
        }
    }

    /// Fails a circuit until `until_step` (exclusive; `None` = forever).
    pub(crate) fn fail_circuit(&mut self, circuit: CircuitId, until_step: Option<usize>) {
        self.failed_circuits.insert(circuit, until_step);
    }

    /// Drains a switch by external operation until `until_step`.
    pub(crate) fn drain_external(&mut self, switch: SwitchId, until_step: Option<usize>) {
        self.drained_switches.insert(switch, until_step);
    }

    /// Expires every disturbance whose window ends at or before `step`.
    pub(crate) fn expire(&mut self, step: usize) {
        self.failed_circuits
            .retain(|_, until| until.is_none_or(|u| u > step));
        self.drained_switches
            .retain(|_, until| until.is_none_or(|u| u > step));
    }

    /// The observed state: planned overlay with every active disturbance
    /// applied. This is the state shadow audits judge.
    pub(crate) fn observed(&self, topo: &Topology) -> NetState {
        let mut s = self.planned.clone();
        for &c in self.failed_circuits.keys() {
            s.set_circuit(c, false);
        }
        for &sw in self.drained_switches.keys() {
            s.drain_switch(topo, sw);
        }
        s
    }

    /// How far the observed state has drifted from the plan: elements the
    /// plan believes are up but the fleet reports down. Disturbances only
    /// clear bits, so every circuit whose usability differs is one of those.
    pub(crate) fn drift(&self, topo: &Topology) -> Drift {
        let observed = self.observed(topo);
        let mut lost = Vec::new();
        self.planned.usability_diff_into(topo, &observed, &mut lost);
        let circuits = lost.len();
        let mut switches = 0usize;
        for sw in self.planned.switches_up() {
            if !observed.switch_up(sw) {
                switches += 1;
            }
        }
        Drift { circuits, switches }
    }
}

/// Observed-vs-planned divergence found by a shadow audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Drift {
    /// Usable-in-plan circuits that the fleet reports unusable.
    pub circuits: usize,
    /// Up-in-plan switches that the fleet reports down.
    pub switches: usize,
}

/// Switches the migration or its traffic touches: members of any operation
/// block and every demand endpoint. Scripted disturbances avoid them —
/// routine maintenance never touches the migration's own hardware, and
/// taking down an endpoint rack would trivially void reachability rather
/// than exercise the network's headroom.
fn involved_switches(spec: &MigrationSpec) -> HashSet<SwitchId> {
    let mut involved: HashSet<SwitchId> = spec
        .blocks
        .iter()
        .flat_map(|b| b.switches.iter().copied())
        .collect();
    for d in spec.demands.iter() {
        involved.insert(d.src);
        involved.insert(d.dst);
    }
    involved
}

/// One seeded-random element of `candidates`, `None` when there is none.
fn pick<T: Copy>(candidates: &[T], rng: &mut SmallRng) -> Option<T> {
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.random_range(0..candidates.len())])
}

/// Picks a seeded-random circuit that is usable in `observed` and not
/// involved in the migration: not listed in any operation block and not
/// incident to a block member or a demand endpoint.
pub(crate) fn pick_uninvolved_circuit(
    spec: &MigrationSpec,
    observed: &NetState,
    rng: &mut SmallRng,
) -> Option<CircuitId> {
    let involved_switches = involved_switches(spec);
    let involved_circuits: HashSet<CircuitId> = spec
        .blocks
        .iter()
        .flat_map(|b| b.circuits.iter().copied())
        .collect();
    let candidates: Vec<CircuitId> = spec
        .topology
        .circuits()
        .iter()
        .filter(|c| {
            observed.circuit_usable(&spec.topology, c.id)
                && !involved_circuits.contains(&c.id)
                && !involved_switches.contains(&c.a)
                && !involved_switches.contains(&c.b)
        })
        .map(|c| c.id)
        .collect();
    pick(&candidates, rng)
}

/// Picks a seeded-random switch that is up in `observed` and neither a
/// block member nor a demand endpoint — the victim of an external
/// operation (§7.2, "Simultaneous operations").
pub(crate) fn pick_uninvolved_switch(
    spec: &MigrationSpec,
    observed: &NetState,
    rng: &mut SmallRng,
) -> Option<SwitchId> {
    let involved = involved_switches(spec);
    let candidates: Vec<SwitchId> = observed
        .switches_up()
        .filter(|s| !involved.contains(s))
        .collect();
    pick(&candidates, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::migration::{MigrationBuilder, MigrationOptions};
    use klotski_topology::presets::{self, PresetId};
    use rand::SeedableRng;

    fn spec() -> MigrationSpec {
        MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &MigrationOptions::default())
            .unwrap()
    }

    #[test]
    fn disturbances_overlay_and_expire() {
        let spec = spec();
        let mut fleet = FleetSim::new(spec.initial.clone());
        let victim = spec.topology.circuits().iter().next().unwrap().id;
        fleet.fail_circuit(victim, Some(3));
        assert!(!fleet
            .observed(&spec.topology)
            .circuit_usable(&spec.topology, victim));
        // The planned view never sees the failure.
        assert!(fleet.planned.circuit_usable(&spec.topology, victim));
        fleet.expire(2);
        assert_eq!(fleet.drift(&spec.topology).circuits, 1);
        fleet.expire(3);
        assert_eq!(fleet.drift(&spec.topology), Drift::default());
        assert!(fleet
            .observed(&spec.topology)
            .circuit_usable(&spec.topology, victim));
    }

    #[test]
    fn permanent_disturbance_never_expires() {
        let spec = spec();
        let mut fleet = FleetSim::new(spec.initial.clone());
        fleet.drain_external(spec.topology.circuits().iter().next().unwrap().a, None);
        fleet.expire(usize::MAX - 1);
        assert_eq!(fleet.drift(&spec.topology).switches, 1);
    }

    #[test]
    fn drift_counts_observed_divergence() {
        let spec = spec();
        let mut fleet = FleetSim::new(spec.initial.clone());
        assert_eq!(fleet.drift(&spec.topology), Drift::default());
        let victim = spec.topology.circuits().iter().next().unwrap().id;
        fleet.fail_circuit(victim, None);
        assert_eq!(fleet.drift(&spec.topology).circuits, 1);
    }

    #[test]
    fn picked_circuit_is_uninvolved_and_deterministic() {
        let spec = spec();
        let fleet = FleetSim::new(spec.initial.clone());
        let observed = fleet.observed(&spec.topology);
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        let a = pick_uninvolved_circuit(&spec, &observed, &mut rng_a);
        let b = pick_uninvolved_circuit(&spec, &observed, &mut rng_b);
        assert_eq!(a, b);
        if let Some(c) = a {
            let involved: Vec<_> = spec
                .blocks
                .iter()
                .flat_map(|bl| bl.circuits.iter().copied())
                .collect();
            assert!(!involved.contains(&c));
        }
    }

    #[test]
    fn picked_switch_is_up_uninvolved_and_deterministic() {
        let spec = spec();
        let mut observed = spec.initial.clone();
        let draw = |observed: &NetState| {
            pick_uninvolved_switch(&spec, observed, &mut SmallRng::seed_from_u64(7))
        };
        let first = draw(&observed).expect("preset A has uninvolved switches");
        assert_eq!(draw(&observed), Some(first));
        assert!(spec.blocks.iter().all(|b| !b.switches.contains(&first)));
        assert!(spec
            .demands
            .iter()
            .all(|d| d.src != first && d.dst != first));
        // A switch that is already down is never picked again.
        observed.drain_switch(&spec.topology, first);
        assert_ne!(draw(&observed), Some(first));
    }
}
