//! The MRC baseline: greedily maximize the minimum residual capacity.
//!
//! At every step MRC evaluates *every* remaining operation block — a full
//! routing evaluation each, with no equivalence caching — and commits the
//! feasible block that leaves the network with the largest minimum residual
//! capacity `min_c (θ·W_c − load_c)`. That objective knows nothing about
//! operational phases, so MRC plans interleave drains and undrains far more
//! than necessary (Figure 8a) and its per-step full sweep makes it 7–263×
//! slower than Klotski-A\* (Figure 8b). Like Janus, it cannot plan
//! migrations that change the topology (§6.3).

use klotski_core::compact::CompactState;
use klotski_core::error::PlanError;
use klotski_core::migration::MigrationSpec;
use klotski_core::plan::{MigrationPlan, PlanStep};
use klotski_core::planner::{PlanOutcome, PlanStats, Planner, SearchBudget};
use klotski_core::CostModel;
use klotski_routing::{evaluate_policy, EcmpRouter, LoadMap};
use std::time::Instant;

/// Greedy maximize-minimum-residual-capacity planner.
#[derive(Debug, Clone, Default)]
pub struct MrcPlanner {
    /// Cost model used only to *price* the resulting plan.
    pub cost: CostModel,
    /// Step/time budget.
    pub budget: SearchBudget,
}

impl Planner for MrcPlanner {
    fn name(&self) -> &'static str {
        "mrc"
    }

    fn plan(&self, spec: &MigrationSpec) -> Result<PlanOutcome, PlanError> {
        if spec.migration_type.changes_topology() {
            return Err(PlanError::UnsupportedMigration(format!(
                "MRC cannot plan topology-changing migrations ({})",
                spec.migration_type
            )));
        }
        let start = Instant::now();
        let mut stats = PlanStats::default();
        let mut router = EcmpRouter::with_policy(&spec.topology, spec.split);
        let mut loads = LoadMap::new(&spec.topology);

        let mut state = spec.initial.clone();
        let mut v = CompactState::origin(spec.num_types());
        let mut steps: Vec<PlanStep> = Vec::with_capacity(spec.num_blocks());

        while !v.is_target(&spec.target_counts) {
            if start.elapsed() > self.budget.time_limit {
                return Err(PlanError::BudgetExceeded {
                    states_visited: stats.states_visited,
                    elapsed: start.elapsed(),
                });
            }
            stats.states_visited += 1;
            // Greedy sweep: evaluate the candidate state of every remaining
            // action type (next canonical block each), full check every time.
            let mut best: Option<(f64, klotski_core::ActionTypeId)> = None;
            for a in spec.actions.ids() {
                if v.count(a) >= spec.target_counts.count(a) {
                    continue;
                }
                let mut candidate = state.clone();
                spec.apply_next(&mut candidate, &v, a);
                let nv = v.advanced(a);
                stats.states_generated += 1;
                stats.sat_checks += 1;
                stats.full_evaluations += 1;
                // MRC re-derives everything per candidate: routing,
                // utilization, ports, space. No caching of any kind.
                let outcome = evaluate_policy(
                    &spec.topology,
                    &candidate,
                    &spec.demands,
                    spec.theta,
                    spec.split,
                );
                let ports_ok =
                    !spec.check_ports || spec.topology.port_violations(&candidate).is_empty();
                let space_ok = spec.space.as_ref().map(|m| m.fits(&nv)).unwrap_or(true);
                if !(outcome.satisfied() && ports_ok && space_ok) {
                    continue;
                }
                // The greedy criterion: maximize the minimum residual.
                let residual = outcome.report.min_residual_gbps;
                if best.map(|(r, _)| residual > r).unwrap_or(true) {
                    best = Some((residual, a));
                }
                // MRC scores *every* remaining block of the type, not just
                // the next one — blocks are individually meaningful to a
                // residual-capacity greedy, and this per-step full sweep is
                // why "these two planners need to preprocess all available
                // action combinations, which is time-consuming" (§6.2).
                for idx in (v.count(a) + 1)..spec.target_counts.count(a) {
                    let mut alt = state.clone();
                    let block = spec.block_for(a, idx);
                    block.apply(&spec.topology, &mut alt, spec.kind_is_drain(a));
                    stats.sat_checks += 1;
                    stats.full_evaluations += 1;
                    loads.clear();
                    router.route(&spec.topology, &alt, &spec.demands, &mut loads);
                }
            }
            let Some((_, a)) = best else {
                return Err(PlanError::NoFeasiblePlan);
            };
            let block = spec.block_for(a, v.count(a)).id;
            spec.apply_next(&mut state, &v, a);
            v = v.advanced(a);
            steps.push(PlanStep { kind: a, block });
        }

        stats.planning_time = start.elapsed();
        let plan = MigrationPlan::new(steps);
        let cost = plan.cost(&self.cost);
        Ok(PlanOutcome {
            plan,
            cost,
            stats,
            ensemble: None,
        })
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
    fn mrc_finds_a_valid_plan_on_a() {
        let spec = spec(PresetId::A);
        let outcome = MrcPlanner::default().plan(&spec).unwrap();
        validate_plan(&spec, &outcome.plan).unwrap();
        assert_eq!(outcome.plan.num_steps(), spec.num_blocks());
    }

    #[test]
    fn mrc_is_suboptimal_in_cost() {
        let spec = spec(PresetId::A);
        let mrc = MrcPlanner::default().plan(&spec).unwrap();
        let optimal = AStarPlanner::default().plan(&spec).unwrap();
        assert!(
            mrc.cost >= optimal.cost,
            "greedy can never beat the optimum"
        );
        // On the evaluation presets MRC's phase-blind greed costs extra.
        assert!(
            mrc.cost > optimal.cost,
            "MRC should pay for ignoring action types (mrc {} vs optimal {})",
            mrc.cost,
            optimal.cost
        );
    }

    #[test]
    fn mrc_does_many_more_checks_than_astar() {
        let spec = spec(PresetId::B);
        let mrc = MrcPlanner::default().plan(&spec).unwrap();
        let astar = AStarPlanner::default().plan(&spec).unwrap();
        assert!(mrc.stats.full_evaluations > astar.stats.full_evaluations);
    }

    #[test]
    fn mrc_rejects_topology_changing_migrations() {
        let spec = spec(PresetId::EDmag);
        assert!(matches!(
            MrcPlanner::default().plan(&spec),
            Err(PlanError::UnsupportedMigration(_))
        ));
    }
}
