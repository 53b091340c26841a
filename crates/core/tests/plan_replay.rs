//! Differential oracles for the plan-replay walk (`klotski_core::replay`).
//!
//! - The lookahead, [`PlanReplay::plan_still_safe`], must equal the fold it
//!   replaced: every state of the pending suffix routed from scratch by
//!   `evaluate_policy` under the realized matrix, AND-ed. One long-lived
//!   replay answers several successive calls per case — shrinking suffix,
//!   drifting demand — as the controller drives it, so a stale base state,
//!   stale rates, or a wrong toggle set between calls shows up as a
//!   mismatch.
//! - The fused validate + audit walk must produce, byte for byte, the
//!   `PlanAudit` the scalar loop `audit_plan` used to run produced: base
//!   matrix, loads read before funneling headroom is applied.

use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::plan::{validate_plan, MigrationPlan, PlanPhase};
use klotski_core::planner::{AStarPlanner, Planner};
use klotski_core::report::{PhaseAudit, PlanAudit};
use klotski_core::{
    audit_plan, validate_and_audit_on, ActionTypeId, CompactState, EnsembleSpec, PlanReplay,
};
use klotski_parallel::WorkerPool;
use klotski_routing::{
    evaluate_policy, evaluate_with, CsrGraph, EcmpRouter, FunnelingModel, LoadMap,
};
use klotski_topology::presets::{self, PresetId};
use klotski_topology::NetState;
use klotski_traffic::surge::realized_demand;
use klotski_traffic::{DemandClass, DemandMatrix, SurgeEvent};
use proptest::prelude::*;
use std::sync::{Arc, LazyLock};

/// The fold `plan_still_safe` replaced, verbatim: a fresh router, CSR and
/// load map per state.
fn from_scratch_fold(
    spec: &MigrationSpec,
    state: &NetState,
    progress: &CompactState,
    pending: &[PlanPhase],
    realized: &DemandMatrix,
) -> bool {
    let mut s = state.clone();
    let mut v = progress.clone();
    for phase in pending {
        for _ in &phase.blocks {
            spec.apply_next(&mut s, &v, phase.kind);
            v = v.advanced(phase.kind);
            let out = evaluate_policy(&spec.topology, &s, realized, spec.theta, spec.split);
            if !out.satisfied() {
                return false;
            }
        }
    }
    true
}

/// One migration with two block orders to replay: the planner's (safe
/// under the planning matrix) and every drain before any undrain (walks
/// through overloaded and, for the in-place swaps, disconnected states).
struct World {
    spec: MigrationSpec,
    planned: Vec<PlanPhase>,
    drains_first: Vec<PlanPhase>,
}

fn world(id: PresetId) -> World {
    let spec =
        MigrationBuilder::for_preset(&presets::build_for_bench(id), &MigrationOptions::default())
            .unwrap();
    let planned = AStarPlanner::default().plan(&spec).unwrap().plan.phases();
    let mut kinds: Vec<ActionTypeId> = spec.actions.ids().collect();
    kinds.sort_by_key(|&a| !spec.kind_is_drain(a));
    let drains_first = kinds
        .into_iter()
        .map(|kind| PlanPhase {
            kind,
            blocks: spec.blocks_by_type[kind.index()].clone(),
        })
        .collect();
    World {
        spec,
        planned,
        drains_first,
    }
}

/// Presets A and B route ECMP; the DMAG migration routes WCMP.
static WORLDS: LazyLock<Vec<World>> = LazyLock::new(|| {
    [PresetId::A, PresetId::B, PresetId::EDmag]
        .into_iter()
        .map(world)
        .collect()
});

/// `(progress, state, pending)` after the first `done` blocks of `phases`;
/// like the controller's canary batches, the cut may fall inside a phase.
fn after(
    spec: &MigrationSpec,
    phases: &[PlanPhase],
    done: usize,
) -> (CompactState, NetState, Vec<PlanPhase>) {
    let mut v = CompactState::origin(spec.num_types());
    let mut state = spec.initial.clone();
    let mut pending = Vec::new();
    let mut left = done;
    for phase in phases {
        let take = left.min(phase.blocks.len());
        for _ in 0..take {
            spec.apply_next(&mut state, &v, phase.kind);
            v = v.advanced(phase.kind);
        }
        left -= take;
        if take < phase.blocks.len() {
            pending.push(PlanPhase {
                kind: phase.kind,
                blocks: phase.blocks[take..].to_vec(),
            });
        }
    }
    (v, state, pending)
}

fn new_replay(spec: &MigrationSpec) -> PlanReplay {
    let csr = Arc::new(CsrGraph::build(&spec.topology));
    PlanReplay::new(spec, csr, Arc::new(WorkerPool::new(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lookahead_equals_the_from_scratch_fold(
        world in 0usize..3,
        drains_first in proptest::bool::ANY,
        cuts in proptest::collection::vec(0.0f64..1.0, 3),
        growth in 0.6f64..1.5,
        surged in 0usize..8,
        surge_factor in 1.0f64..1.5,
    ) {
        let w = &WORLDS[world];
        let phases = if drains_first { &w.drains_first } else { &w.planned };
        let total: usize = phases.iter().map(|p| p.blocks.len()).sum();
        let surges: Vec<SurgeEvent> = DemandClass::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| surged & (1 << i) != 0)
            .map(|(_, class)| SurgeEvent::on_class(0, 2, surge_factor, class))
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| (c * total as f64) as usize).collect();
        cuts.sort_unstable();

        // Successive calls on one replay: the suffix shrinks, growth
        // compounds, and the surges expire after the second call.
        let mut replay = new_replay(&w.spec);
        for (step, &done) in cuts.iter().enumerate() {
            let (progress, state, pending) = after(&w.spec, phases, done);
            let realized =
                realized_demand(&w.spec.demands, growth.powi(step as i32 + 1), &surges, step);
            prop_assert_eq!(
                replay.plan_still_safe(&w.spec, &state, &progress, &pending, &realized),
                from_scratch_fold(&w.spec, &state, &progress, &pending, &realized),
                "world {} drains_first {} call {} from block {}/{}",
                world, drains_first, step, done, total
            );
        }
    }
}

#[test]
fn lookahead_rejects_an_overloaded_and_an_unreachable_suffix() {
    let w = &WORLDS[0];
    let (progress, state, planned) = after(&w.spec, &w.planned, 0);
    let mut replay = new_replay(&w.spec);
    // The planner's order is safe under the planning matrix …
    assert!(replay.plan_still_safe(&w.spec, &state, &progress, &planned, &w.spec.demands));
    // … over θ once demand doubles …
    let doubled = w.spec.demands.scaled(2.0);
    assert!(!from_scratch_fold(
        &w.spec, &state, &progress, &planned, &doubled
    ));
    assert!(!replay.plan_still_safe(&w.spec, &state, &progress, &planned, &doubled));
    // … and draining every v1 grid first cuts demands off outright, which
    // no amount of headroom forgives.
    let trickle = w.spec.demands.scaled(1e-6);
    let mut s = state.clone();
    let mut v = progress.clone();
    for _ in &w.drains_first[0].blocks {
        w.spec.apply_next(&mut s, &v, w.drains_first[0].kind);
        v = v.advanced(w.drains_first[0].kind);
    }
    let cut_off = evaluate_policy(&w.spec.topology, &s, &trickle, w.spec.theta, w.spec.split);
    assert!(!cut_off.all_reachable && cut_off.report.violations == 0);
    assert!(!replay.plan_still_safe(&w.spec, &state, &progress, &w.drains_first, &trickle));
    // The same replay still answers the safe question correctly afterwards.
    assert!(replay.plan_still_safe(&w.spec, &state, &progress, &planned, &w.spec.demands));
}

#[test]
#[should_panic(expected = "share the base demand endpoints")]
fn lookahead_refuses_a_matrix_with_other_endpoints() {
    let w = &WORLDS[0];
    let (progress, state, planned) = after(&w.spec, &w.planned, 0);
    let reordered: DemandMatrix = {
        let mut demands: Vec<_> = w.spec.demands.iter().cloned().collect();
        demands.reverse();
        demands.into_iter().collect()
    };
    new_replay(&w.spec).plan_still_safe(&w.spec, &state, &progress, &planned, &reordered);
}

/// `audit_plan` as it stood before the walk: one from-scratch router, every
/// phase-end state routed under the base matrix, nothing else applied.
fn scalar_audit(spec: &MigrationSpec, plan: &MigrationPlan) -> PlanAudit {
    let topo = &spec.topology;
    let mut router = EcmpRouter::with_policy(topo, spec.split);
    let mut loads = LoadMap::new(topo);
    let mut state = spec.initial.clone();
    let mut v = CompactState::origin(spec.num_types());
    let mut phases = Vec::new();
    for (i, phase) in plan.phases().iter().enumerate() {
        let mut switch_ops = 0;
        for &b in &phase.blocks {
            switch_ops += spec.blocks[b.index()].action_weight();
            spec.apply_next(&mut state, &v, phase.kind);
            v = v.advanced(phase.kind);
        }
        let outcome = evaluate_with(
            &mut router,
            &mut loads,
            topo,
            &state,
            &spec.demands,
            spec.theta,
        );
        let worst_circuit = outcome.report.worst_circuit.map(|c| {
            let ck = topo.circuit(c);
            format!("{} <-> {}", topo.switch(ck.a).name, topo.switch(ck.b).name)
        });
        let min_port_slack = topo
            .switches()
            .iter()
            .filter(|s| state.switch_up(s.id))
            .map(|s| (s.max_ports as usize).saturating_sub(state.active_degree(topo, s.id)))
            .min()
            .unwrap_or(0);
        phases.push(PhaseAudit {
            index: i + 1,
            action: spec.actions.kind(phase.kind).to_string(),
            blocks: phase.blocks.len(),
            switch_ops,
            max_utilization: outcome.report.max_utilization,
            worst_circuit,
            min_port_slack,
            space_used: spec.space.as_ref().map(|m| m.used(&v)),
        });
    }
    PlanAudit {
        migration: spec.name.clone(),
        theta: spec.theta,
        phases,
    }
}

#[test]
fn fused_and_standalone_audits_are_byte_identical_to_the_scalar_loop() {
    let funneling = MigrationOptions {
        funneling: FunnelingModel {
            headroom_factor: 1.15,
        },
        ..MigrationOptions::default()
    };
    let ensemble = MigrationOptions {
        ensemble: Some(EnsembleSpec::with_k(3, 11)),
        ..MigrationOptions::default()
    };
    let from_scratch = MigrationOptions {
        incremental: false,
        ..MigrationOptions::default()
    };
    for (what, id, opts) in [
        ("preset A", PresetId::A, MigrationOptions::default()),
        ("DMAG (WCMP)", PresetId::EDmag, MigrationOptions::default()),
        ("funneling headroom", PresetId::A, funneling),
        ("K=3 ensemble", PresetId::A, ensemble),
        ("incremental off", PresetId::A, from_scratch),
    ] {
        let spec = MigrationBuilder::for_preset(&presets::build_for_bench(id), &opts).unwrap();
        let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
        let scalar = scalar_audit(&spec, &plan);
        assert!(!scalar.phases.is_empty(), "{what}");
        let expected = serde_json::to_string(&scalar).unwrap();

        let pool = Arc::new(WorkerPool::new(2));
        let fused = validate_and_audit_on(&spec, &plan, pool).expect(what);
        assert_eq!(
            serde_json::to_string(&fused).unwrap(),
            expected,
            "{what}: fused"
        );
        let standalone = audit_plan(&spec, &plan);
        assert_eq!(
            serde_json::to_string(&standalone).unwrap(),
            expected,
            "{what}: standalone"
        );
    }
}

#[test]
fn the_fused_walk_fails_exactly_where_validation_does() {
    let w = &WORLDS[0];
    let steps: Vec<_> = w
        .drains_first
        .iter()
        .flat_map(|p| {
            p.blocks.iter().map(|&block| klotski_core::plan::PlanStep {
                kind: p.kind,
                block,
            })
        })
        .collect();
    let unsafe_plan = MigrationPlan::new(steps);
    let verdict = validate_plan(&w.spec, &unsafe_plan).unwrap_err();
    let fused = validate_and_audit_on(&w.spec, &unsafe_plan, Arc::new(WorkerPool::new(1)));
    assert_eq!(fused.unwrap_err(), verdict);
    // The audit-only mode judges nothing: the unsafe plan still gets its
    // sheet, identical to the scalar loop's.
    assert_eq!(
        audit_plan(&w.spec, &unsafe_plan),
        scalar_audit(&w.spec, &unsafe_plan)
    );
}
