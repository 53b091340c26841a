//! Search counters are claims, not decoration: the paper's speed argument
//! for A\* is a count of satisfiability checks (§4.4, Fig. 8b, Fig. 10), so
//! the counts are pinned exactly — and a search that ends without a plan
//! must still report the work it did.
//!
//! Every test here runs planners that publish to the process-global
//! telemetry registry, and two of them read deltas off it, so they all take
//! one lock.

use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::planner::{AStarPlanner, DpPlanner, PlanStats, Planner, SearchBudget};
use klotski_core::{CompactState, PlanError};
use klotski_telemetry::registry;
use klotski_topology::presets::{self, PresetId};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn hgrid(id: PresetId) -> MigrationSpec {
    MigrationBuilder::hgrid_v1_to_v2(&presets::build(id), &MigrationOptions::default()).unwrap()
}

/// The `klotski_search_*` counters of one planner label, read together.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Published {
    plans: u64,
    expansions: u64,
    pruned: u64,
    sat_checks: u64,
}

impl Published {
    fn read(planner: &str) -> Self {
        let get = |family: &str| {
            registry()
                .counter(&format!("{family}{{planner=\"{planner}\"}}"))
                .get()
        };
        Self {
            plans: get("klotski_search_plans_total"),
            expansions: get("klotski_search_expansions_total"),
            pruned: get("klotski_search_pruned_total"),
            sat_checks: get("klotski_search_sat_checks_total"),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            plans: self.plans - before.plans,
            expansions: self.expansions - before.expansions,
            pruned: self.pruned - before.pruned,
            sat_checks: self.sat_checks - before.sat_checks,
        }
    }
}

/// The specs `klotski export D|C|B` + `klotski plan` build, planned with the
/// default A\*. Checking at pop moved the three checker-side counters and
/// nothing else: the eager search (every successor checked when generated)
/// read `sat_checks` 56 / 56 / 27, `full_evaluations` 40 / 40 / 23 and
/// `incremental_dirty` 1350 / 1350 / 702 on the same instances.
#[test]
fn astar_counters_are_pinned_on_presets_d_c_b() {
    let _serial = serial();
    // (visited, generated, pruned, deduped, sat_checks, full_evaluations,
    // incremental_dirty)
    let pins = [
        (PresetId::D, (32, 56, 6, 4, 37, 33, 810)),
        (PresetId::C, (32, 56, 6, 4, 37, 33, 810)),
        (PresetId::B, (17, 27, 4, 1, 20, 19, 442)),
    ];
    for (id, pin) in pins {
        let PlanStats {
            states_visited,
            states_generated,
            states_pruned,
            states_deduped,
            sat_checks,
            cache_hits,
            full_evaluations,
            incremental_dirty,
            ..
        } = AStarPlanner::default().plan(&hgrid(id)).unwrap().stats;
        assert_eq!(
            (
                states_visited,
                states_generated,
                states_pruned,
                states_deduped,
                sat_checks,
                full_evaluations,
                incremental_dirty
            ),
            pin,
            "preset {id:?}"
        );
        // One check per pop that is neither stale nor the origin, and every
        // such pop ends as an expansion or a rejection.
        assert_eq!(sat_checks, states_visited - 1 + states_pruned);
        assert_eq!(sat_checks, cache_hits + full_evaluations);
    }
}

#[test]
fn an_astar_search_that_exhausts_its_budget_publishes_its_work() {
    let _serial = serial();
    let spec = hgrid(PresetId::A);
    let before = Published::read("astar");
    let err = AStarPlanner {
        budget: SearchBudget::tight(2, Duration::from_secs(3600)),
        ..AStarPlanner::default()
    }
    .plan(&spec)
    .unwrap_err();
    let moved = Published::read("astar").since(before);
    // Two states expanded; the pop that would have been the third tripped
    // the gate, and the error counts it.
    let PlanError::BudgetExceeded { states_visited, .. } = err else {
        panic!("expected a budget error, got {err:?}");
    };
    assert_eq!(states_visited, 3);
    assert_eq!(moved.expansions, 2);
    assert_eq!(moved.sat_checks, moved.expansions - 1 + moved.pruned);
    assert_eq!(moved.plans, 0, "plans_total counts completed searches");
}

#[test]
fn a_dp_search_without_a_plan_publishes_its_work() {
    let _serial = serial();
    let mut spec = hgrid(PresetId::A);
    let swept = CompactState::box_size(&spec.target_counts) as u64 - 1;

    // A box over budget is refused before the sweep starts: nothing to add.
    let before = Published::read("dp");
    let err = DpPlanner {
        budget: SearchBudget::tight(2, Duration::from_secs(3600)),
        ..DpPlanner::default()
    }
    .plan(&spec)
    .unwrap_err();
    assert!(matches!(
        err,
        PlanError::BudgetExceeded {
            states_visited: 0,
            ..
        }
    ));
    assert_eq!(Published::read("dp").since(before).expansions, 0);

    // With θ collapsed after the build no state but the origin is feasible:
    // the sweep visits the whole box, checks the two first-layer states and
    // proves there is no plan.
    spec.theta = 1e-9;
    let before = Published::read("dp");
    let err = DpPlanner::default().plan(&spec).unwrap_err();
    assert_eq!(err, PlanError::NoFeasiblePlan);
    assert_eq!(
        Published::read("dp").since(before),
        Published {
            plans: 0,
            expansions: swept,
            pruned: 2,
            sat_checks: 2,
        }
    );
}
