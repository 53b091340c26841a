//! Demand-constraint evaluation (Eq. 4–5) and demand calibration.

use crate::ecmp::{EcmpRouter, RouteOutcome, SplitPolicy};
use crate::loads::LoadMap;
use klotski_topology::{CircuitId, NetState, Topology};
use klotski_traffic::DemandMatrix;

/// Utilization summary of one routed state.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// Highest worst-direction utilization over usable circuits.
    pub max_utilization: f64,
    /// The circuit attaining `max_utilization`, if any traffic was routed.
    pub worst_circuit: Option<CircuitId>,
    /// Number of usable circuits whose utilization exceeds θ.
    pub violations: usize,
    /// Smallest residual capacity `(θ·W_c − load)` over usable circuits,
    /// Gbps. Negative iff some circuit violates θ. This is the quantity the
    /// MRC baseline greedily maximizes.
    pub min_residual_gbps: f64,
}

/// Outcome of an Eq. 4–5 evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyOutcome {
    /// Eq. 4: every demand has a live path.
    pub all_reachable: bool,
    /// Count of unreachable demands.
    pub unreachable_demands: usize,
    /// Eq. 5 summary.
    pub report: UtilizationReport,
}

impl SafetyOutcome {
    /// True iff both demand constraints hold.
    pub fn satisfied(&self) -> bool {
        self.all_reachable && self.report.violations == 0
    }
}

/// Evaluates the demand constraints of (`topo`, `state`) under `demands`
/// with utilization bound `theta`, reusing the caller's router and load
/// buffers.
pub fn evaluate_with(
    router: &mut EcmpRouter,
    loads: &mut LoadMap,
    topo: &Topology,
    state: &NetState,
    demands: &DemandMatrix,
    theta: f64,
) -> SafetyOutcome {
    assert!(theta > 0.0, "utilization bound must be positive");
    loads.clear();
    let route = router.route(topo, state, demands, loads);
    let report = summarize(topo, state, loads, theta);
    SafetyOutcome {
        all_reachable: route.all_reachable(),
        unreachable_demands: route.unreachable.len(),
        report,
    }
}

/// One-shot convenience wrapper around [`evaluate_with`] that allocates
/// fresh buffers. Prefer [`evaluate_with`] in loops.
pub fn evaluate(
    topo: &Topology,
    state: &NetState,
    demands: &DemandMatrix,
    theta: f64,
) -> SafetyOutcome {
    evaluate_policy(topo, state, demands, theta, SplitPolicy::Ecmp)
}

/// Like [`evaluate`], with an explicit flow-split policy.
pub fn evaluate_policy(
    topo: &Topology,
    state: &NetState,
    demands: &DemandMatrix,
    theta: f64,
    policy: SplitPolicy,
) -> SafetyOutcome {
    let mut router = EcmpRouter::with_policy(topo, policy);
    let mut loads = LoadMap::new(topo);
    evaluate_with(&mut router, &mut loads, topo, state, demands, theta)
}

/// Summarizes utilization over the usable circuits of a state.
pub fn summarize(
    topo: &Topology,
    state: &NetState,
    loads: &LoadMap,
    theta: f64,
) -> UtilizationReport {
    let mut max_utilization = 0.0_f64;
    let mut worst_circuit = None;
    let mut violations = 0usize;
    let mut min_residual = f64::INFINITY;
    for c in topo.circuits() {
        if !state.circuit_usable(topo, c.id) {
            continue;
        }
        let load = loads.max_direction(c.id);
        let util = load / c.capacity_gbps;
        if util > max_utilization {
            max_utilization = util;
            worst_circuit = Some(c.id);
        }
        if util > theta {
            violations += 1;
        }
        let residual = theta * c.capacity_gbps - load;
        if residual < min_residual {
            min_residual = residual;
        }
    }
    UtilizationReport {
        max_utilization,
        worst_circuit,
        violations,
        min_residual_gbps: if min_residual.is_finite() {
            min_residual
        } else {
            0.0
        },
    }
}

/// Returns the factor by which the demands behind `loads` can be scaled so
/// that the maximum utilization of (`topo`, `state`) over the circuits
/// selected by `filter` becomes exactly `target`.
///
/// ECMP loads are linear in the demand rates, so the factor is simply
/// `target / max_utilization`. `loads` (with outcome `route`) are whatever
/// the caller already routed, under the split policy it chose. Migration
/// specs use this to pin the utilization of the layer being migrated (e.g.
/// the FA layer) at a chosen fraction of θ, independent of how hot the
/// untouched fabric below happens to be — which is how we reproduce the
/// paper's utilization sweeps (Figure 12) without production traffic data —
/// and go on sizing capacities from the same loads.
///
/// # Panics
/// Panics if any demand is unreachable, or if no selected circuit carries
/// traffic.
pub fn scale_from_routed(
    topo: &Topology,
    state: &NetState,
    route: &RouteOutcome,
    loads: &LoadMap,
    target: f64,
    filter: impl Fn(CircuitId) -> bool,
) -> f64 {
    assert!(target > 0.0, "target utilization must be positive");
    assert!(
        route.all_reachable(),
        "cannot calibrate: {} unreachable demands",
        route.unreachable.len()
    );
    let mut max_util = 0.0_f64;
    for c in topo.circuits() {
        if state.circuit_usable(topo, c.id) && filter(c.id) {
            max_util = max_util.max(loads.utilization(topo, c.id));
        }
    }
    assert!(
        max_util > 0.0,
        "cannot calibrate: no traffic routed over selected circuits"
    );
    target / max_util
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_topology::{
        graph::{SwitchSpec, TopologyBuilder},
        DcId, Generation, SwitchId, SwitchRole,
    };
    use klotski_traffic::{Demand, DemandClass};

    /// src -2 circuits-> dst with capacities 100 and 50.
    fn twolink() -> (Topology, SwitchId, SwitchId, CircuitId, CircuitId) {
        let mut b = TopologyBuilder::new("t");
        let s = b.add_switch(SwitchSpec::new(SwitchRole::Rsw, Generation::V1, DcId(0), 8));
        let d = b.add_switch(SwitchSpec::new(SwitchRole::Ebb, Generation::V1, DcId(0), 8));
        let c0 = b.add_circuit(s, d, 100.0).unwrap();
        let c1 = b.add_circuit(s, d, 50.0).unwrap();
        (b.build(), s, d, c0, c1)
    }

    fn demand(s: SwitchId, d: SwitchId, gbps: f64) -> DemandMatrix {
        [Demand {
            src: s,
            dst: d,
            gbps,
            class: DemandClass::RswToEbb,
        }]
        .into_iter()
        .collect()
    }

    /// Routes `demands` and calibrates over every circuit.
    fn calibrate(topo: &Topology, state: &NetState, demands: &DemandMatrix, target: f64) -> f64 {
        let mut loads = LoadMap::new(topo);
        let route = EcmpRouter::new(topo).route(topo, state, demands, &mut loads);
        scale_from_routed(topo, state, &route, &loads, target, |_| true)
    }

    #[test]
    fn utilization_uses_worst_circuit() {
        let (t, s, d, _c0, c1) = twolink();
        let state = NetState::all_up(&t);
        // 60 Gbps split equally: 30 on each. c1 (50 Gbps) is at 0.6.
        let out = evaluate(&t, &state, &demand(s, d, 60.0), 0.75);
        assert!(out.satisfied());
        assert!((out.report.max_utilization - 0.6).abs() < 1e-9);
        assert_eq!(out.report.worst_circuit, Some(c1));
        // theta*50 - 30 = 7.5 is the binding residual.
        assert!((out.report.min_residual_gbps - 7.5).abs() < 1e-9);
    }

    #[test]
    fn violation_detected_above_theta() {
        let (t, s, d, _, _) = twolink();
        let state = NetState::all_up(&t);
        let out = evaluate(&t, &state, &demand(s, d, 90.0), 0.75);
        // 45 on the 50 Gbps circuit = 0.9 > 0.75.
        assert!(!out.satisfied());
        assert!(out.all_reachable);
        assert_eq!(out.report.violations, 1);
        assert!(out.report.min_residual_gbps < 0.0);
    }

    #[test]
    fn unreachable_fails_even_with_zero_traffic() {
        let (t, s, d, c0, c1) = twolink();
        let mut state = NetState::all_up(&t);
        state.set_circuit(c0, false);
        state.set_circuit(c1, false);
        let out = evaluate(&t, &state, &demand(s, d, 0.0), 0.75);
        assert!(!out.satisfied());
        assert!(!out.all_reachable);
        assert_eq!(out.unreachable_demands, 1);
    }

    #[test]
    fn drained_circuits_are_excluded_from_report() {
        let (t, s, d, _c0, c1) = twolink();
        let mut state = NetState::all_up(&t);
        state.set_circuit(c1, false);
        let out = evaluate(&t, &state, &demand(s, d, 70.0), 0.75);
        // All 70 on the 100 Gbps circuit: util 0.7, one usable circuit.
        assert!(out.satisfied());
        assert!((out.report.max_utilization - 0.7).abs() < 1e-9);
    }

    #[test]
    fn calibration_hits_target_exactly() {
        let (t, s, d, _, _) = twolink();
        let state = NetState::all_up(&t);
        let m = demand(s, d, 60.0);
        let factor = calibrate(&t, &state, &m, 0.5);
        let scaled = m.scaled(factor);
        let out = evaluate(&t, &state, &scaled, 0.75);
        assert!((out.report.max_utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn calibration_rejects_disconnected_state() {
        let (t, s, d, c0, c1) = twolink();
        let mut state = NetState::all_up(&t);
        state.set_circuit(c0, false);
        state.set_circuit(c1, false);
        calibrate(&t, &state, &demand(s, d, 10.0), 0.5);
    }

    #[test]
    fn empty_matrix_is_trivially_satisfied() {
        let (t, _, _, _, _) = twolink();
        let state = NetState::all_up(&t);
        let out = evaluate(&t, &state, &DemandMatrix::new(), 0.75);
        assert!(out.satisfied());
        assert_eq!(out.report.max_utilization, 0.0);
    }
}
