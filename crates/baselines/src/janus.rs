//! A Janus-style baseline planner (after reference [4]).
//!
//! Janus plans network changes by exploiting topology symmetry. Following
//! the evaluation setup ("we define the superblock in Janus as the
//! operation block in Klotski", §6.1), this planner searches the same
//! block-level space as Klotski but with Janus's cost profile:
//!
//! - an upfront **preprocessing pass over all available action
//!   combinations** — every ordered block pair is applied and routed once
//!   (§6.2 names this as one of the two reasons Janus is slow);
//! - **exhaustive traversal**: the whole reachable space is swept (no
//!   best-first early exit);
//! - **full-topology state keys**: equivalence is detected by hashing the
//!   entire activation state instead of Klotski's compact representation;
//! - **no topology-changing migrations**: Janus assumes the symmetry
//!   structure is preserved, which a DMAG layer insertion violates (§6.3).
//!
//! It still returns optimal plans on the migrations it supports
//! (Figure 8a) — just 8–381× slower (Figure 8b).

use klotski_core::error::PlanError;
use klotski_core::migration::MigrationSpec;
use klotski_core::planner::{DpPlanner, PlanOutcome, Planner, SearchBudget};
use klotski_core::{CompactState, CostModel, EscMode};
use klotski_routing::{EcmpRouter, LoadMap};
use std::time::Instant;

/// Janus-style exhaustive symmetry planner.
#[derive(Debug, Clone, Default)]
pub struct JanusPlanner {
    /// Cost model.
    pub cost: CostModel,
    /// Budget (shared with the embedded exhaustive sweep).
    pub budget: SearchBudget,
}

impl Planner for JanusPlanner {
    fn name(&self) -> &'static str {
        "janus"
    }

    fn plan(&self, spec: &MigrationSpec) -> Result<PlanOutcome, PlanError> {
        if spec.migration_type.changes_topology() {
            return Err(PlanError::UnsupportedMigration(format!(
                "Janus assumes migration-invariant symmetry; {} changes the topology",
                spec.migration_type
            )));
        }
        let start = Instant::now();

        // --- Preprocessing: apply and route every ordered action-type pair
        // from the origin (Janus scores candidate plan fragments upfront).
        let mut router = EcmpRouter::with_policy(&spec.topology, spec.split);
        let mut loads = LoadMap::new(&spec.topology);
        let mut preprocessing_checks: u64 = 0;
        let origin = CompactState::origin(spec.num_types());
        for a in spec.actions.ids() {
            if spec.target_counts.count(a) == 0 {
                continue;
            }
            let mut first = spec.initial.clone();
            spec.apply_next(&mut first, &origin, a);
            let va = origin.advanced(a);
            for b in spec.actions.ids() {
                // Pairs over *blocks*, not types: evaluate each remaining
                // block of type b after each block of type a.
                for idx in va.count(b)..spec.target_counts.count(b) {
                    let mut pair = first.clone();
                    // Apply block `idx` of type b directly.
                    let block = spec.block_for(b, idx);
                    block.apply(&spec.topology, &mut pair, spec.kind_is_drain(b));
                    loads.clear();
                    router.route(&spec.topology, &pair, &spec.demands, &mut loads);
                    preprocessing_checks += 1;
                    if start.elapsed() > self.budget.time_limit {
                        return Err(PlanError::BudgetExceeded {
                            states_visited: preprocessing_checks,
                            elapsed: start.elapsed(),
                        });
                    }
                }
            }
        }

        // --- Exhaustive sweep of the pruned space with full-topology
        // hashing (the DP recurrence visits every state, which is exactly
        // Janus's traversal behaviour).
        let remaining_budget = self.budget.time_limit.saturating_sub(start.elapsed());
        let sweep = DpPlanner {
            cost: self.cost,
            esc: EscMode::FullTopology,
            budget: SearchBudget {
                max_states: self.budget.max_states,
                time_limit: remaining_budget,
                // The inner sweep honors the caller's deadline.
                deadline: self.budget.deadline,
            },
            pool: None,
        };
        let mut outcome = sweep.plan(spec)?;
        outcome.stats.sat_checks += preprocessing_checks;
        outcome.stats.full_evaluations += preprocessing_checks;
        outcome.stats.planning_time = start.elapsed();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::migration::{MigrationBuilder, MigrationOptions};
    use klotski_core::plan::validate_plan;
    use klotski_core::planner::AStarPlanner;
    use klotski_topology::presets::{self, PresetId};

    fn spec(id: PresetId) -> MigrationSpec {
        MigrationBuilder::for_preset(&presets::build_for_bench(id), &MigrationOptions::default())
            .unwrap()
    }

    #[test]
    fn janus_finds_the_optimum_on_a() {
        let spec = spec(PresetId::A);
        let janus = JanusPlanner::default().plan(&spec).unwrap();
        let optimal = AStarPlanner::default().plan(&spec).unwrap();
        validate_plan(&spec, &janus.plan).unwrap();
        assert!((janus.cost - optimal.cost).abs() < 1e-9);
    }

    #[test]
    fn janus_burns_more_evaluations_than_astar() {
        let spec = spec(PresetId::A);
        let janus = JanusPlanner::default().plan(&spec).unwrap();
        let astar = AStarPlanner::default().plan(&spec).unwrap();
        assert!(janus.stats.full_evaluations > astar.stats.full_evaluations);
    }

    #[test]
    fn janus_rejects_dmag() {
        let spec = spec(PresetId::EDmag);
        assert!(matches!(
            JanusPlanner::default().plan(&spec),
            Err(PlanError::UnsupportedMigration(_))
        ));
    }

    #[test]
    fn janus_respects_time_budget() {
        let spec = spec(PresetId::B);
        let planner = JanusPlanner {
            budget: SearchBudget::tight(u64::MAX, std::time::Duration::from_nanos(1)),
            ..JanusPlanner::default()
        };
        assert!(matches!(
            planner.plan(&spec),
            Err(PlanError::BudgetExceeded { .. })
        ));
    }
}
