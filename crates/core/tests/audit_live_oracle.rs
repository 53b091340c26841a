//! Differential oracle for [`SatChecker::audit_live`]: on disturbed live
//! states (failed circuits, an externally drained switch) under scaled
//! demand matrices, every [`LiveAudit`] field must equal what the routing
//! crate's one-shot `evaluate_policy` reports for the same state and
//! demands. One long-lived checker audits the whole sweep, so stale load or
//! outcome buffers between audits would show up as a mismatch.
//!
//! Scope: `evaluate_policy` routes with the same `EcmpRouter` code, so this
//! guards `audit_live`'s own wiring (mask, buffer reuse, `summarize`, the
//! port check, field mapping) — not routing correctness, which `ecmp.rs`'s
//! hand-built unit cases (splits, conservation, unreachability) cover.

use klotski_core::migration::{MigrationBuilder, MigrationOptions};
use klotski_core::satcheck::{EscMode, SatChecker};
use klotski_routing::evaluate_policy;
use klotski_topology::presets::{self, PresetId};
use klotski_topology::{CircuitId, SwitchId};

/// Splitmix-style step of the sweep's deterministic RNG.
fn next_rand(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    *x
}

fn audit_matches_oracle_on(id: PresetId) {
    let spec =
        MigrationBuilder::for_preset(&presets::build(id), &MigrationOptions::default()).unwrap();
    let topo = &spec.topology;
    let mut checker = SatChecker::new(&spec, EscMode::Compact);
    let (mut safe, mut unsafe_) = (0, 0);
    let mut x = 0x11fe_a0d1 ^ id as u64;
    for round in 0..6 {
        // Failed circuits (more each round) and, on odd rounds, one switch
        // drained behind the planner's back.
        let mut state = spec.initial.clone();
        for _ in 0..round * 2 {
            let c =
                CircuitId::from_index((next_rand(&mut x) % topo.num_circuits() as u64) as usize);
            state.set_circuit(c, false);
        }
        if round % 2 == 1 {
            let s = SwitchId::from_index((next_rand(&mut x) % topo.num_switches() as u64) as usize);
            state.drain_switch(topo, s);
        }
        for factor in [0.5, 1.0, 1.8] {
            let demands = spec.demands.scaled(factor);
            let audit = checker.audit_live(&spec, &state, &demands);
            let oracle = evaluate_policy(topo, &state, &demands, spec.theta, spec.split);
            let ports = spec.check_ports && topo.has_port_violation(&state);
            let ctx = format!("{id} round {round} x{factor}");

            assert_eq!(audit.all_reachable, oracle.all_reachable, "{ctx}");
            assert_eq!(
                audit.unreachable_demands, oracle.unreachable_demands,
                "{ctx}"
            );
            assert_eq!(
                audit.max_utilization.to_bits(),
                oracle.report.max_utilization.to_bits(),
                "{ctx}"
            );
            assert_eq!(audit.worst_circuit, oracle.report.worst_circuit, "{ctx}");
            assert_eq!(audit.theta_violations, oracle.report.violations, "{ctx}");
            assert_eq!(
                audit.min_residual_gbps.to_bits(),
                oracle.report.min_residual_gbps.to_bits(),
                "{ctx}"
            );
            assert_eq!(audit.port_violation, ports, "{ctx}");
            assert_eq!(audit.safe, oracle.satisfied() && !ports, "{ctx}");
            assert_eq!(audit.violation().is_none(), audit.safe, "{ctx}");
            if audit.safe {
                safe += 1;
            } else {
                unsafe_ += 1;
            }
        }
    }
    assert_eq!(checker.stats().live_audits, 18);
    assert!(
        safe > 0 && unsafe_ > 0,
        "sweep on {id} must cross the safety boundary (safe={safe} unsafe={unsafe_})"
    );
}

#[test]
fn audit_live_matches_evaluate_policy_on_preset_a() {
    audit_matches_oracle_on(PresetId::A);
}

#[test]
fn audit_live_matches_evaluate_policy_on_preset_c() {
    audit_matches_oracle_on(PresetId::C);
}
