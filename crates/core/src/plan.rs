//! Migration plans: ordered action sequences and their validation.
//!
//! A plan is the action sequence `L` of the formulation, at operation-block
//! granularity. Consecutive same-type steps form one *phase* — the unit
//! operators execute in parallel and the unit the EDP-Lite pipeline receives
//! ("Klotski returns an ordered list of topology phases. Each phase
//! corresponds to one migration step", §5).

use crate::action::ActionTypeId;
use crate::blocks::BlockId;
use crate::cost::CostModel;
use crate::migration::MigrationSpec;
use klotski_parallel::WorkerPool;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One block-level action of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStep {
    /// Action type executed.
    pub kind: ActionTypeId,
    /// Operation block operated.
    pub block: BlockId,
}

/// A run of consecutive same-type steps, executed in parallel by operators.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanPhase {
    /// The phase's action type.
    pub kind: ActionTypeId,
    /// Blocks operated in this phase, in order.
    pub blocks: Vec<BlockId>,
}

/// An ordered migration plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationPlan {
    steps: Vec<PlanStep>,
}

impl MigrationPlan {
    /// Wraps a step sequence.
    pub fn new(steps: Vec<PlanStep>) -> Self {
        Self { steps }
    }

    /// The block-level steps.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Number of block-level steps `|L|`.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of serial phases (the α = 0 cost, Eq. 1).
    pub fn num_phases(&self) -> usize {
        self.phases().len()
    }

    /// Groups consecutive same-type steps into phases.
    pub fn phases(&self) -> Vec<PlanPhase> {
        let mut phases: Vec<PlanPhase> = Vec::new();
        for step in &self.steps {
            match phases.last_mut() {
                Some(p) if p.kind == step.kind => p.blocks.push(step.block),
                _ => phases.push(PlanPhase {
                    kind: step.kind,
                    blocks: vec![step.block],
                }),
            }
        }
        phases
    }

    /// Cost of the plan under a cost model (Eq. 1 / Eq. 9 generalization).
    pub fn cost(&self, model: &CostModel) -> f64 {
        let types: Vec<ActionTypeId> = self.steps.iter().map(|s| s.kind).collect();
        model.sequence_cost(&types)
    }
}

impl fmt::Display for MigrationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, phase) in self.phases().iter().enumerate() {
            writeln!(
                f,
                "phase {}: {} x{} ({:?})",
                i + 1,
                phase.kind,
                phase.blocks.len(),
                phase.blocks.iter().map(|b| b.0).collect::<Vec<_>>()
            )?;
        }
        Ok(())
    }
}

/// Why a plan failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// A block appears zero or multiple times, or an unknown block appears
    /// (Eq. 2–3 availability constraints).
    Availability(String),
    /// Blocks of one type are not consumed in canonical order, so the
    /// compact representation would not describe the replayed states.
    NonCanonicalOrder { step: usize },
    /// An intermediate state violates the demand or port constraints.
    UnsafeState { step: usize },
    /// The final state is not the migration target.
    WrongTarget,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::Availability(why) => write!(f, "availability violated: {why}"),
            PlanViolation::NonCanonicalOrder { step } => {
                write!(f, "non-canonical block order at step {step}")
            }
            PlanViolation::UnsafeState { step } => {
                write!(f, "constraints violated after step {step}")
            }
            PlanViolation::WrongTarget => write!(f, "plan does not reach the target topology"),
        }
    }
}

impl std::error::Error for PlanViolation {}

/// Replays `plan` over `spec`, verifying Eq. 2–6 at every intermediate state
/// and that the final state is the target. This is the independent oracle
/// used by tests and by operators before handing a plan to deployment.
/// Checks run on a private pool of `spec.threads` lanes; the verdict is
/// identical at every lane count.
pub fn validate_plan(spec: &MigrationSpec, plan: &MigrationPlan) -> Result<(), PlanViolation> {
    let pool = Arc::new(WorkerPool::new(spec.threads));
    crate::replay::validating_walk(spec, plan, pool, false).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{MigrationBuilder, MigrationOptions};
    use klotski_topology::presets::{self, PresetId};

    fn spec() -> MigrationSpec {
        MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &MigrationOptions::default())
            .unwrap()
    }

    /// Hand-built alternating plan: drain g0, undrain g0', drain g1, ...
    fn alternating(spec: &MigrationSpec) -> MigrationPlan {
        let drains = &spec.blocks_by_type[0];
        let undrains = &spec.blocks_by_type[1];
        let mut steps = Vec::new();
        for i in 0..drains.len().max(undrains.len()) {
            if i < drains.len() {
                steps.push(PlanStep {
                    kind: ActionTypeId(0),
                    block: drains[i],
                });
            }
            if i < undrains.len() {
                steps.push(PlanStep {
                    kind: ActionTypeId(1),
                    block: undrains[i],
                });
            }
        }
        MigrationPlan::new(steps)
    }

    #[test]
    fn phases_group_consecutive_types() {
        let plan = MigrationPlan::new(vec![
            PlanStep {
                kind: ActionTypeId(0),
                block: BlockId(0),
            },
            PlanStep {
                kind: ActionTypeId(0),
                block: BlockId(1),
            },
            PlanStep {
                kind: ActionTypeId(1),
                block: BlockId(2),
            },
            PlanStep {
                kind: ActionTypeId(0),
                block: BlockId(3),
            },
        ]);
        let phases = plan.phases();
        assert_eq!(plan.num_phases(), 3);
        assert_eq!(phases[0].blocks.len(), 2);
        assert_eq!(phases[1].blocks, vec![BlockId(2)]);
        assert_eq!(plan.cost(&CostModel::default()), 3.0);
        assert!((plan.cost(&CostModel::new(0.5)) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn planner_output_validates() {
        use crate::planner::Planner;
        let spec = spec();
        let plan = crate::planner::AStarPlanner::default()
            .plan(&spec)
            .unwrap()
            .plan;
        validate_plan(&spec, &plan).unwrap();
    }

    #[test]
    fn duplicate_block_rejected() {
        let spec = spec();
        let mut plan = alternating(&spec);
        let dup = plan.steps()[0];
        let mut steps = plan.steps().to_vec();
        steps[1] = dup;
        plan = MigrationPlan::new(steps);
        assert!(matches!(
            validate_plan(&spec, &plan),
            Err(PlanViolation::Availability(_))
        ));
    }

    #[test]
    fn incomplete_plan_rejected() {
        let spec = spec();
        let plan = MigrationPlan::new(alternating(&spec).steps()[..2].to_vec());
        assert!(matches!(
            validate_plan(&spec, &plan),
            Err(PlanViolation::Availability(_))
        ));
    }

    #[test]
    fn unsafe_all_drains_first_rejected() {
        let spec = spec();
        // Drain every v1 grid before any v2 undrain: violates theta.
        let mut steps = Vec::new();
        for &b in &spec.blocks_by_type[0] {
            steps.push(PlanStep {
                kind: ActionTypeId(0),
                block: b,
            });
        }
        for &b in &spec.blocks_by_type[1] {
            steps.push(PlanStep {
                kind: ActionTypeId(1),
                block: b,
            });
        }
        let plan = MigrationPlan::new(steps);
        assert!(matches!(
            validate_plan(&spec, &plan),
            Err(PlanViolation::UnsafeState { .. })
        ));
    }

    #[test]
    fn non_canonical_order_rejected() {
        let spec = spec();
        let mut steps = alternating(&spec).steps().to_vec();
        // Swap the two drain steps: same multiset, wrong canonical order.
        let drain_positions: Vec<usize> = steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == ActionTypeId(0))
            .map(|(i, _)| i)
            .collect();
        steps.swap(drain_positions[0], drain_positions[1]);
        assert!(matches!(
            validate_plan(&spec, &MigrationPlan::new(steps)),
            Err(PlanViolation::NonCanonicalOrder { .. })
        ));
    }

    #[test]
    fn display_shows_phases() {
        let spec = spec();
        let plan = alternating(&spec);
        let shown = plan.to_string();
        assert!(shown.contains("phase 1"));
        assert!(shown.lines().count() == plan.num_phases());
    }
}
