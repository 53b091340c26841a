//! The DP-based planner (§4.3, Algorithm 1).
//!
//! The DP state is `f(V, a)` — the minimal cost of reaching compact state
//! `V` with a last action of type `a`. States are swept in lexicographic
//! (odometer) order: every predecessor `V − e_a` of `V` (Eq. 8) is
//! lexicographically smaller, so its `f` is final when `V` pulls from its
//! `|A|` predecessors per Eq. 7 — the same guarantee as Algorithm 1's
//! ascending-`Σ v_i` order, without materialising the box, and with
//! consecutive states one block apart, the delta the incremental checker is
//! fast on. The optimal sequence is rebuilt from an auxiliary predecessor
//! table, exactly as `GetAnswer` does in the paper's pseudocode.
//!
//! Complexity is Θ(|A|·Π(v*_i + 1)·(|A| + |S| + |C|)) (Theorem 1): unlike
//! A\*, the sweep touches every state of the box whether or not it can be on
//! an optimal path. What it does not do is *check* an arrival `(V, a)` whose
//! predecessor no feasible sequence reaches: Eq. 7 can only yield ∞ there,
//! whatever the verdict, so the satisfiability check is skipped — and with
//! it the whole state, when that holds for every arriving type.

use crate::action::ActionTypeId;
use crate::compact::CompactState;
use crate::cost::CostModel;
use crate::error::PlanError;
use crate::migration::MigrationSpec;
use crate::plan::{MigrationPlan, PlanStep};
use crate::planner::{run_search, Found, PlanOutcome, PlanStats, Planner, SearchBudget};
use crate::satcheck::{EscMode, Prior, SatChecker, Verdicts};
use klotski_parallel::WorkerPool;
use klotski_telemetry::{log_event, span};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NO_LAST: u8 = u8::MAX;

/// The Klotski DP planner.
#[derive(Debug, Clone)]
pub struct DpPlanner {
    /// Cost model (α).
    pub cost: CostModel,
    /// ESC cache mode.
    pub esc: EscMode,
    /// State/time budget; `max_states` bounds the box size `Π(v*_i + 1)`.
    pub budget: SearchBudget,
    /// Satisfiability lanes. `None` plans on `spec.threads` lanes; the
    /// planning service passes each worker's `lanes_per_worker` count. A
    /// [`WorkerPool`] is a lane count: its helpers spawn per call and are
    /// joined before the call returns, so nothing is kept across jobs.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Default for DpPlanner {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            esc: EscMode::Compact,
            budget: SearchBudget::default(),
            pool: None,
        }
    }
}

impl DpPlanner {
    /// Planner with a given α, defaults elsewhere.
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            cost: CostModel::new(alpha),
            ..Self::default()
        }
    }
}

impl Planner for DpPlanner {
    fn name(&self) -> &'static str {
        "klotski-dp"
    }

    fn plan(&self, spec: &MigrationSpec) -> Result<PlanOutcome, PlanError> {
        self.plan_seeded(spec, None).map(|(outcome, _)| outcome)
    }

    fn plan_seeded(
        &self,
        spec: &MigrationSpec,
        prior: Option<Prior>,
    ) -> Result<(PlanOutcome, Verdicts), PlanError> {
        let mut guard = span!("dp.plan", "migration" = spec.name.as_str());
        // The sweep touches the whole box: refuse one over budget before
        // building a checker for it.
        if CompactState::box_size(&spec.target_counts) as u64 > self.budget.max_states {
            guard.field("outcome", "budget");
            return Err(PlanError::BudgetExceeded {
                states_visited: 0,
                elapsed: Duration::ZERO,
            });
        }
        run_search(
            "dp",
            guard,
            spec,
            self.esc,
            &self.pool,
            prior,
            |checker, stats, start| self.sweep(spec, checker, stats, start),
        )
    }
}

impl DpPlanner {
    fn sweep(
        &self,
        spec: &MigrationSpec,
        checker: &mut SatChecker,
        stats: &mut PlanStats,
        start: Instant,
    ) -> Result<Found, PlanError> {
        let progress_every = spec.progress_every.max(1);
        let target = &spec.target_counts;
        let num_types = spec.num_types();
        let box_size = CompactState::box_size(target);

        // Dense tables over (V, last): f costs and predecessor action types.
        let mut f = vec![f64::INFINITY; box_size * num_types];
        let mut pred = vec![NO_LAST; box_size * num_types];
        let slot = |dense: usize, a: usize| dense * num_types + a;

        // `dense_index` stride of each type: `V − e_a` sits `stride[a]` below
        // `V` in the tables.
        let mut stride = vec![1usize; num_types];
        for a in (1..num_types).rev() {
            stride[a - 1] = stride[a] * (target.counts()[a] as usize + 1);
        }

        // The origin is implicit: f(origin, none) = 0. First-layer states
        // (one action done) pay the initial phase cost of 1.
        let mut v = CompactState::origin(num_types);
        let mut arriving: Vec<ActionTypeId> = Vec::with_capacity(num_types);
        for dense in 1..box_size {
            let stepped = v.step_in_box(target);
            debug_assert!(stepped && v.dense_index(target) == dense);
            // Per-state budget gate: time limit and absolute deadline (the
            // box pre-check above already bounds the state count).
            self.budget.check(stats.states_visited, start)?;
            stats.states_visited += 1;
            if stats.states_visited.is_multiple_of(progress_every) {
                log_event!(
                    "dp.progress",
                    "swept" = stats.states_visited,
                    "box_size" = box_size as u64,
                );
            }
            // Arriving types whose verdict Eq. 7 can read: the predecessor
            // is the origin or has a finite f under some last action.
            arriving.clear();
            arriving.extend(spec.actions.ids().filter(|a| {
                v.count(*a) > 0 && {
                    let prev = dense - stride[a.index()];
                    prev == 0 || (0..num_types).any(|b| f[slot(prev, b)].is_finite())
                }
            }));
            if arriving.is_empty() {
                continue;
            }
            // Algorithm 1 line 9: states that violate the constraints can
            // never appear in a sequence; skip their updates. IsAvailable is
            // checked on the *reached* state V with last action a (funneling
            // keys on the arriving drain); without funneling the arriving
            // types share a cache key and cost one evaluation.
            let state = spec.state_for(&v);
            for &a in &arriving {
                let t0 = Instant::now();
                let ok = checker.check(spec, &v, &state, Some(a));
                stats.satcheck_time += t0.elapsed();
                if !ok {
                    stats.states_pruned += 1;
                    continue;
                }
                stats.states_generated += 1;
                let prev = dense - stride[a.index()];
                let mut best = f64::INFINITY;
                let mut best_prev = NO_LAST;
                if prev == 0 {
                    best = 1.0; // first action opens the first phase
                } else {
                    for a_star in 0..num_types {
                        let base = f[slot(prev, a_star)];
                        if !base.is_finite() {
                            continue;
                        }
                        let step = self.cost.step_cost(Some(ActionTypeId(a_star as u8)), a);
                        if base + step < best {
                            best = base + step;
                            best_prev = a_star as u8;
                        }
                    }
                }
                let s = slot(dense, a.index());
                if best < f[s] {
                    f[s] = best;
                    pred[s] = best_prev;
                }
            }
        }

        // Answer: best f over last actions at the target state.
        let target_dense = target.dense_index(target);
        let mut best_cost = f64::INFINITY;
        let mut best_last = NO_LAST;
        for a in 0..num_types {
            let c = f[slot(target_dense, a)];
            if c < best_cost {
                best_cost = c;
                best_last = a as u8;
            }
        }
        if !best_cost.is_finite() {
            return Err(PlanError::NoFeasiblePlan);
        }

        // GetAnswer: walk predecessors back from the target.
        let mut rev_steps = Vec::with_capacity(target.total());
        let mut v = target.clone();
        let mut last = best_last;
        while v.total() > 0 {
            let kind = ActionTypeId(last);
            let idx = v.count(kind) - 1;
            rev_steps.push(PlanStep {
                kind,
                block: spec.blocks_by_type[kind.index()][idx as usize],
            });
            let prev_last = pred[slot(v.dense_index(target), kind.index())];
            v = v.receded(kind).expect("count was positive");
            last = if v.total() == 0 { NO_LAST } else { prev_last };
        }
        rev_steps.reverse();
        Ok((MigrationPlan::new(rev_steps), best_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{MigrationBuilder, MigrationOptions};
    use crate::plan::validate_plan;
    use crate::planner::AStarPlanner;
    use klotski_topology::presets::{self, PresetId};
    use std::time::Duration;

    fn spec() -> MigrationSpec {
        MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &MigrationOptions::default())
            .unwrap()
    }

    #[test]
    fn dp_finds_valid_plan() {
        let spec = spec();
        let outcome = DpPlanner::default().plan(&spec).unwrap();
        validate_plan(&spec, &outcome.plan).unwrap();
        assert!((outcome.plan.cost(&CostModel::default()) - outcome.cost).abs() < 1e-9);
    }

    #[test]
    fn dp_and_astar_agree_on_optimal_cost() {
        let spec = spec();
        let dp = DpPlanner::default().plan(&spec).unwrap();
        let astar = AStarPlanner::default().plan(&spec).unwrap();
        assert!(
            (dp.cost - astar.cost).abs() < 1e-9,
            "dp {} vs a* {}",
            dp.cost,
            astar.cost
        );
    }

    #[test]
    fn dp_and_astar_agree_under_alpha() {
        let spec = spec();
        for alpha in [0.25, 0.5, 1.0] {
            let dp = DpPlanner::with_alpha(alpha).plan(&spec).unwrap();
            let astar = AStarPlanner::with_alpha(alpha).plan(&spec).unwrap();
            assert!(
                (dp.cost - astar.cost).abs() < 1e-9,
                "alpha {alpha}: dp {} vs a* {}",
                dp.cost,
                astar.cost
            );
        }
    }

    #[test]
    fn dp_sweeps_no_fewer_states_than_astar_visits() {
        let spec = spec();
        let dp = DpPlanner::default().plan(&spec).unwrap();
        let astar = AStarPlanner::default().plan(&spec).unwrap();
        assert!(dp.stats.states_visited >= astar.stats.states_visited);
    }

    #[test]
    fn unreachable_corner_of_the_box_is_swept_but_never_checked() {
        // Draining v1 grids far ahead of the v2 undrains is infeasible, so
        // the states beyond that frontier have no feasible predecessor: the
        // sweep visits them (budget and progress count the whole box) and
        // checks none of them.
        let spec = spec();
        let box_size = CompactState::box_size(&spec.target_counts) as u64;
        let dp = DpPlanner::default().plan(&spec).unwrap();
        assert_eq!(dp.stats.states_visited, box_size - 1, "all but the origin");
        assert!(
            dp.stats.full_evaluations < box_size - 1,
            "{} evaluations in a box of {box_size}",
            dp.stats.full_evaluations
        );
        let astar = AStarPlanner::default().plan(&spec).unwrap();
        assert!((dp.cost - astar.cost).abs() < 1e-9);
        validate_plan(&spec, &dp.plan).unwrap();
    }

    #[test]
    fn oversized_box_is_rejected() {
        let spec = spec();
        let planner = DpPlanner {
            budget: SearchBudget::tight(3, Duration::from_secs(3600)),
            ..DpPlanner::default()
        };
        assert!(matches!(
            planner.plan(&spec),
            Err(PlanError::BudgetExceeded { .. })
        ));
    }
}
