//! End-to-end integration: preset topology → migration spec → every planner
//! → independent plan validation → execution by the controller.

use klotski::baselines::{JanusPlanner, MrcPlanner};
use klotski::controller::{run, ControllerConfig};
use klotski::core::migration::{MigrationBuilder, MigrationOptions, MigrationType};
use klotski::core::plan::validate_plan;
use klotski::core::planner::{AStarPlanner, DpPlanner, Planner};
use klotski::topology::presets::{self, PresetId};

fn spec(id: PresetId) -> klotski::core::migration::MigrationSpec {
    MigrationBuilder::for_preset(&presets::build_for_bench(id), &MigrationOptions::default())
        .unwrap()
}

#[test]
fn hgrid_pipeline_on_a_and_b() {
    for id in [PresetId::A, PresetId::B] {
        let spec = spec(id);
        assert_eq!(spec.migration_type, MigrationType::HgridV1V2);
        let planners: Vec<Box<dyn Planner>> = vec![
            Box::new(AStarPlanner::default()),
            Box::new(DpPlanner::default()),
            Box::new(MrcPlanner::default()),
            Box::new(JanusPlanner::default()),
        ];
        let mut costs = Vec::new();
        for planner in &planners {
            let outcome = planner
                .plan(&spec)
                .unwrap_or_else(|e| panic!("{} failed on {id}: {e}", planner.name()));
            validate_plan(&spec, &outcome.plan)
                .unwrap_or_else(|e| panic!("{} produced unsafe plan on {id}: {e}", planner.name()));
            costs.push(outcome.cost);
        }
        // A*, DP, Janus agree; MRC can only be worse.
        assert!((costs[0] - costs[1]).abs() < 1e-9, "{id}: A* vs DP");
        assert!((costs[0] - costs[3]).abs() < 1e-9, "{id}: A* vs Janus");
        assert!(costs[2] >= costs[0], "{id}: MRC beats the optimum?");
    }
}

#[test]
fn every_preset_plans_and_validates_with_astar() {
    for id in PresetId::ALL {
        let spec = spec(id);
        let outcome = AStarPlanner::default()
            .plan(&spec)
            .unwrap_or_else(|e| panic!("A* failed on {id}: {e}"));
        validate_plan(&spec, &outcome.plan).unwrap_or_else(|e| panic!("unsafe on {id}: {e}"));
        assert_eq!(outcome.plan.num_steps(), spec.num_blocks(), "{id}");
        // The plan must really migrate: the final state equals the target.
        let mut state = spec.initial.clone();
        let mut v = klotski::core::CompactState::origin(spec.num_types());
        for step in outcome.plan.steps() {
            spec.apply_next(&mut state, &v, step.kind);
            v = v.advanced(step.kind);
        }
        assert_eq!(state, spec.target_state(), "{id}");
    }
}

#[test]
fn planned_migration_executes_cleanly() {
    let spec = spec(PresetId::B);
    let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
    // Whole phases (no canary split): one audited step per planned phase.
    let cfg = ControllerConfig {
        canary_blocks: 0,
        ..ControllerConfig::default()
    };
    let report = run(&spec, &plan, &cfg);
    assert!(report.completed, "{:?}", report.abort_reason);
    assert!(report.replans.is_empty() && report.flight.is_none());
    assert!(report.steps.iter().all(|st| st.safe));
    assert_eq!(report.steps.len(), plan.num_phases());
    assert_eq!(report.audit_stats.live_audits, report.steps.len() as u64);
}

#[test]
fn dmag_capability_split_between_planners() {
    let spec = spec(PresetId::EDmag);
    assert!(spec.migration_type.changes_topology());
    assert!(AStarPlanner::default().plan(&spec).is_ok());
    assert!(DpPlanner::default().plan(&spec).is_ok());
    assert!(MrcPlanner::default().plan(&spec).is_err());
    assert!(JanusPlanner::default().plan(&spec).is_err());
}

#[test]
fn optimal_cost_is_stable_across_planner_configs() {
    let spec = spec(PresetId::A);
    let reference = AStarPlanner::default().plan(&spec).unwrap().cost;
    use klotski::core::cost::HeuristicMode;
    use klotski::core::EscMode;
    for esc in [EscMode::Compact, EscMode::FullTopology, EscMode::Off] {
        for heuristic in [HeuristicMode::Admissible, HeuristicMode::None] {
            for secondary in [true, false] {
                let planner = AStarPlanner {
                    esc,
                    heuristic,
                    secondary_priority: secondary,
                    ..AStarPlanner::default()
                };
                let cost = planner.plan(&spec).unwrap().cost;
                assert!(
                    (cost - reference).abs() < 1e-9,
                    "esc {esc:?} heuristic {heuristic:?} secondary {secondary}: {cost} vs {reference}"
                );
            }
        }
    }
}
