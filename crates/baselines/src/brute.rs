//! Exact brute-force planner: the optimality oracle.
//!
//! Enumerates every feasible interleaving of action types by depth-first
//! search with only trivial cost-bound pruning, so its result is the true
//! optimum by construction. Exponential — usable on instances with at most
//! a few dozen blocks — and exactly what the test suite needs to certify
//! that the DP and A\* planners (and their admissible heuristic) are
//! optimal.

use klotski_core::compact::CompactState;
use klotski_core::error::PlanError;
use klotski_core::migration::MigrationSpec;
use klotski_core::plan::{MigrationPlan, PlanStep};
use klotski_core::planner::{PlanOutcome, PlanStats, Planner, SearchBudget};
use klotski_core::satcheck::{EscMode, SatChecker};
use klotski_core::{ActionTypeId, CostModel};
use klotski_topology::NetState;
use std::time::Instant;

/// Exhaustive DFS planner (test oracle).
#[derive(Debug, Clone, Default)]
pub struct BruteForcePlanner {
    /// Cost model.
    pub cost: CostModel,
    /// Budget; DFS aborts when exceeded.
    pub budget: SearchBudget,
}

struct Dfs<'a> {
    spec: &'a MigrationSpec,
    cost: CostModel,
    checker: SatChecker,
    best_cost: f64,
    best_seq: Option<Vec<ActionTypeId>>,
    stats: PlanStats,
    start: Instant,
    budget: SearchBudget,
    out_of_budget: bool,
}

impl Dfs<'_> {
    fn run(
        &mut self,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
        g: f64,
        seq: &mut Vec<ActionTypeId>,
    ) {
        if self.out_of_budget {
            return;
        }
        self.stats.states_visited += 1;
        if self.stats.states_visited > self.budget.max_states
            || self.start.elapsed() > self.budget.time_limit
        {
            self.out_of_budget = true;
            return;
        }
        if v.is_target(&self.spec.target_counts) {
            if g < self.best_cost {
                self.best_cost = g;
                self.best_seq = Some(seq.clone());
            }
            return;
        }
        for a in self.spec.actions.ids() {
            if v.count(a) >= self.spec.target_counts.count(a) {
                continue;
            }
            let step = self.cost.step_cost(last, a);
            if g + step >= self.best_cost {
                continue; // cannot improve (costs are non-negative)
            }
            let mut next_state = state.clone();
            self.spec.apply_next(&mut next_state, v, a);
            let nv = v.advanced(a);
            self.stats.states_generated += 1;
            if !self.checker.check(self.spec, &nv, &next_state, Some(a)) {
                continue;
            }
            seq.push(a);
            self.run(&nv, &next_state, Some(a), g + step, seq);
            seq.pop();
        }
    }
}

impl Planner for BruteForcePlanner {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn plan(&self, spec: &MigrationSpec) -> Result<PlanOutcome, PlanError> {
        let start = Instant::now();
        let mut dfs = Dfs {
            spec,
            cost: self.cost,
            // The oracle itself may use the (correct) compact cache — it
            // only skips re-evaluation, never changes verdicts.
            checker: SatChecker::new(spec, EscMode::Compact),
            best_cost: f64::INFINITY,
            best_seq: None,
            stats: PlanStats::default(),
            start,
            budget: self.budget.clone(),
            out_of_budget: false,
        };
        let origin = CompactState::origin(spec.num_types());
        let mut seq = Vec::new();
        dfs.run(&origin, &spec.initial.clone(), None, 0.0, &mut seq);
        if dfs.out_of_budget && dfs.best_seq.is_none() {
            return Err(PlanError::BudgetExceeded {
                states_visited: dfs.stats.states_visited,
                elapsed: start.elapsed(),
            });
        }
        let mut stats = dfs.stats;
        stats.absorb_sat(dfs.checker.stats());
        stats.planning_time = start.elapsed();
        match dfs.best_seq {
            None => Err(PlanError::NoFeasiblePlan),
            Some(types) => {
                // Materialize canonical blocks along the sequence.
                let mut v = CompactState::origin(spec.num_types());
                let mut steps = Vec::with_capacity(types.len());
                for a in types {
                    steps.push(PlanStep {
                        kind: a,
                        block: spec.block_for(a, v.count(a)).id,
                    });
                    v = v.advanced(a);
                }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::migration::{MigrationBuilder, MigrationOptions};
    use klotski_core::plan::validate_plan;
    use klotski_core::planner::{AStarPlanner, DpPlanner};
    use klotski_topology::presets::{self, PresetId};

    fn spec() -> MigrationSpec {
        MigrationBuilder::for_preset(&presets::build(PresetId::A), &MigrationOptions::default())
            .unwrap()
    }

    #[test]
    fn oracle_certifies_astar_and_dp_optimality() {
        let spec = spec();
        let brute = BruteForcePlanner::default().plan(&spec).unwrap();
        validate_plan(&spec, &brute.plan).unwrap();
        let astar = AStarPlanner::default().plan(&spec).unwrap();
        let dp = DpPlanner::default().plan(&spec).unwrap();
        assert!((brute.cost - astar.cost).abs() < 1e-9, "A* not optimal");
        assert!((brute.cost - dp.cost).abs() < 1e-9, "DP not optimal");
    }

    #[test]
    fn oracle_certifies_optimality_under_alpha() {
        let spec = spec();
        for alpha in [0.3, 0.7] {
            let brute = BruteForcePlanner {
                cost: CostModel::new(alpha),
                ..BruteForcePlanner::default()
            }
            .plan(&spec)
            .unwrap();
            let astar = AStarPlanner::with_alpha(alpha).plan(&spec).unwrap();
            assert!(
                (brute.cost - astar.cost).abs() < 1e-9,
                "alpha {alpha}: brute {} vs astar {}",
                brute.cost,
                astar.cost
            );
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let spec = spec();
        let planner = BruteForcePlanner {
            budget: SearchBudget::tight(1, std::time::Duration::from_secs(60)),
            ..BruteForcePlanner::default()
        };
        assert!(matches!(
            planner.plan(&spec),
            Err(PlanError::BudgetExceeded { .. })
        ));
    }
}
