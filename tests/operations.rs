//! Operational-pipeline integration: the controller's run loop under
//! scripted disturbances, replanning, and the NPD interface.

use klotski::controller::{run, ControllerConfig, ReplanPolicy, ScenarioEvent};
use klotski::core::migration::{MigrationBuilder, MigrationOptions};
use klotski::core::planner::{AStarPlanner, Planner};
use klotski::npd::convert::{attach_plan, npd_to_topology, region_to_npd};
use klotski::npd::Npd;
use klotski::routing::FunnelingModel;
use klotski::topology::presets::{self, PresetId};
use klotski::traffic::DemandClass;

fn plan_and_spec(
    id: PresetId,
) -> (
    klotski::core::migration::MigrationSpec,
    klotski::core::MigrationPlan,
) {
    let spec =
        MigrationBuilder::for_preset(&presets::build_for_bench(id), &MigrationOptions::default())
            .unwrap();
    let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
    (spec, plan)
}

/// +25 %/step organic growth on preset A — past the bound after one phase
/// — applied in whole phases (`canary_blocks: 0`: one step per phase).
fn heavy_growth() -> ControllerConfig {
    ControllerConfig {
        canary_blocks: 0,
        demand_growth_per_step: 0.25,
        ..ControllerConfig::default()
    }
}

#[test]
fn executor_survives_compound_failures() {
    // Everything §7.2 lists at once: organic growth, a surge, two
    // maintenance windows on uninvolved switches and a link failure.
    let (spec, plan) = plan_and_spec(PresetId::B);
    let cfg = ControllerConfig {
        seed: 9,
        canary_blocks: 0,
        demand_growth_per_step: 0.01,
        events: vec![
            ScenarioEvent::surge(0, 2, 1.1, Some(DemandClass::RswToEbb)),
            ScenarioEvent::external_op(0, Some(2), None),
            ScenarioEvent::link_failure(1, Some(3), None),
            ScenarioEvent::external_op(2, Some(3), None),
        ],
        ..ControllerConfig::default()
    };
    let report = run(&spec, &plan, &cfg);
    assert!(report.completed, "abort: {:?}", report.abort_reason);
    assert!(!report.rolled_back);
    assert_eq!(report.steps.len(), plan.num_phases());
    assert!(report.steps.iter().all(|st| st.safe), "{:?}", report.steps);
    // The audits judged the disturbed fleet, not the plan's beliefs.
    let drift: Vec<usize> = report.steps.iter().map(|st| st.drift_switches).collect();
    assert_eq!(drift, [1, 1, 1, 0]);
    assert!(report.steps[1].drift_circuits > report.steps[0].drift_circuits);
}

#[test]
fn heavy_growth_forces_replanning_or_explicit_abort() {
    let (spec, plan) = plan_and_spec(PresetId::A);
    let report = run(&spec, &plan, &heavy_growth());
    // The first phase already audits over the bound: the controller pauses
    // there, replans the residual migration under the realized demand, and
    // finishes on the revised plan.
    let pause = &report.steps[0];
    assert!(!pause.safe && pause.paused);
    assert!(
        pause.pause_reason.as_deref().unwrap().contains("theta"),
        "{:?}",
        pause.pause_reason
    );
    assert_eq!(report.replans.len(), 1);
    assert!(report.replans[0].ok && report.replans[0].phases > 0);
    assert!(report.completed, "abort: {:?}", report.abort_reason);
    assert!(report.steps[1..].iter().all(|st| st.safe && !st.paused));
}

#[test]
fn replanning_disabled_aborts_instead() {
    let (spec, plan) = plan_and_spec(PresetId::A);
    let cfg = ControllerConfig {
        replan: ReplanPolicy {
            max_replans: 0,
            ..ReplanPolicy::default()
        },
        ..heavy_growth()
    };
    let without = run(&spec, &plan, &cfg);
    // With no replan budget the pause the test above replans out of becomes
    // a rollback to the last audited-safe state (here the migration's
    // initial one), with a reason that names the exhausted budget.
    assert!(!without.completed && without.rolled_back);
    assert!(without.replans.is_empty());
    assert_eq!(without.steps.len(), 1);
    let reason = without.abort_reason.as_deref().unwrap();
    assert!(
        reason.contains("replan budget exhausted (0 replans)"),
        "{reason}"
    );
    let rollback = without.rollback.as_ref().unwrap();
    assert!(rollback.safe);
    assert_eq!(rollback.to_step, None);
}

#[test]
fn funneling_enabled_specs_still_plan() {
    // §7.2: production planning inflates related circuits for drain
    // asynchrony. Plans must exist (possibly longer) with the model on.
    let preset = presets::build(PresetId::A);
    let plain = MigrationBuilder::hgrid_v1_to_v2(&preset, &MigrationOptions::default()).unwrap();
    let opts = MigrationOptions {
        funneling: FunnelingModel {
            headroom_factor: 1.15,
        },
        ..MigrationOptions::default()
    };
    let stressed = MigrationBuilder::hgrid_v1_to_v2(&preset, &opts).unwrap();
    let base = AStarPlanner::default().plan(&plain).unwrap().cost;
    let hard = AStarPlanner::default().plan(&stressed).unwrap().cost;
    assert!(
        hard >= base,
        "funneling headroom can only constrain further"
    );
}

/// The converter refuses exactly the switches the routing engine cannot
/// index.
#[test]
fn the_switch_width_limit_is_the_engines() {
    assert_eq!(
        klotski::npd::convert::MAX_SWITCH_CIRCUITS,
        klotski::routing::IncrementalRouter::MAX_ROW
    );
}

#[test]
fn npd_pipeline_end_to_end() {
    // NPD in -> topology -> plan -> phases in NPD out, all through JSON.
    let preset = presets::build(PresetId::A);
    let doc = region_to_npd(&preset.config);
    let json = doc.to_json_pretty().unwrap();
    let parsed = Npd::from_json(&json).unwrap();
    let (topo, _) = npd_to_topology(&parsed).unwrap();
    assert_eq!(topo.num_switches(), preset.topology.num_switches());

    let spec = MigrationBuilder::hgrid_v1_to_v2(&preset, &MigrationOptions::default()).unwrap();
    let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
    let mut shipped = parsed;
    attach_plan(&mut shipped, &spec, &plan);
    assert_eq!(shipped.phases.len(), plan.num_phases());
    let final_doc = Npd::from_json(&shipped.to_json_pretty().unwrap()).unwrap();
    assert_eq!(final_doc.phases, shipped.phases);
}

#[test]
fn residual_specs_are_well_formed_mid_migration() {
    let (spec, plan) = plan_and_spec(PresetId::A);
    // Execute the first phase by hand, then replan the rest.
    let phases = plan.phases();
    let mut state = spec.initial.clone();
    let mut v = klotski::core::CompactState::origin(spec.num_types());
    for _ in &phases[0].blocks {
        spec.apply_next(&mut state, &v, phases[0].kind);
        v = v.advanced(phases[0].kind);
    }
    let residual = spec.residual(&v, state, spec.demands.clone());
    assert_eq!(
        residual.num_blocks(),
        spec.num_blocks() - phases[0].blocks.len()
    );
    let rest = AStarPlanner::default().plan(&residual).unwrap();
    klotski::core::plan::validate_plan(&residual, &rest.plan).unwrap();
}
