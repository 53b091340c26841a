//! Plan execution simulator with the §7 operational machinery.
//!
//! Klotski's output is a *logical* plan; actually operating a datacenter for
//! months surfaces the issues §7 describes. The executor simulates a plan
//! phase by phase against a world where:
//!
//! - demand grows organically between phases and is re-forecast (§7.1);
//! - unexpected traffic surges hit mid-migration (§7.2, the warm-storage
//!   incident);
//! - the configuration/push pipeline can fail an operation, requiring
//!   audited retries (§7.2, "Failures during operation duration");
//! - routine maintenance not controlled by Klotski can take an uninvolved
//!   switch down during a phase (§7.2, "Simultaneous operations").
//!
//! When the realized world makes any state of the *remaining plan* unsafe
//! (the lookahead of [`PlanReplay::plan_still_safe`]), the executor re-runs
//! the planner on the residual migration with the updated demand — exactly
//! the production replanning loop.

use crate::compact::CompactState;
use crate::error::PlanError;
use crate::migration::MigrationSpec;
use crate::plan::{MigrationPlan, PlanPhase};
use crate::planner::Planner;
use crate::replay::PlanReplay;
use klotski_parallel::WorkerPool;
use klotski_routing::{evaluate_with, CsrGraph, EcmpRouter, LoadMap};
use klotski_topology::{NetState, SwitchId};
use klotski_traffic::{surge::apply_surges, DemandMatrix, SurgeEvent};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Executor tunables.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// RNG seed for fault injection.
    pub seed: u64,
    /// Probability that one phase's push fails and must be retried.
    pub failure_prob: f64,
    /// Retries before the execution aborts.
    pub max_retries: u32,
    /// Traffic surges active by phase index.
    pub surges: Vec<SurgeEvent>,
    /// Organic demand growth per phase (e.g. 0.02 = +2%/phase, §7.1).
    pub demand_growth_per_phase: f64,
    /// Probability that routine external maintenance takes one uninvolved
    /// switch down during a phase.
    pub external_maintenance_prob: f64,
    /// Whether to replan on safety violations instead of aborting.
    pub replan_on_violation: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            seed: 23,
            failure_prob: 0.0,
            max_retries: 3,
            surges: Vec::new(),
            demand_growth_per_phase: 0.0,
            external_maintenance_prob: 0.0,
            replan_on_violation: true,
        }
    }
}

/// What happened during one executed phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase index in execution order (across replans).
    pub index: usize,
    /// Blocks operated.
    pub blocks_operated: usize,
    /// Push attempts needed (1 = clean).
    pub attempts: u32,
    /// Maximum circuit utilization under realized demand after the phase.
    pub realized_max_utilization: f64,
    /// Whether the post-phase state satisfied the constraints under
    /// realized demand.
    pub safe: bool,
    /// Whether an external maintenance event was active.
    pub external_maintenance: bool,
}

/// Full execution trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Per-phase records.
    pub phases: Vec<PhaseRecord>,
    /// Whether the migration reached its target.
    pub completed: bool,
    /// How many times the planner was re-invoked mid-migration.
    pub replans: usize,
    /// Why execution stopped early, if it did.
    pub abort_reason: Option<String>,
}

/// Executes `plan` for `spec`, replanning with `planner` when the realized
/// world invalidates the remaining plan.
pub fn execute(
    spec: &MigrationSpec,
    plan: &MigrationPlan,
    planner: &dyn Planner,
    cfg: &ExecutorConfig,
) -> ExecutionReport {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut report = ExecutionReport {
        phases: Vec::new(),
        completed: false,
        replans: 0,
        abort_reason: None,
    };

    // Working copies: these evolve as the world changes.
    let mut active_spec = spec.clone();
    let mut pending: Vec<PlanPhase> = plan.phases();
    let mut state = spec.initial.clone();
    let mut progress = CompactState::origin(spec.num_types());
    let mut demand_multiplier = 1.0_f64;
    let mut phase_counter = 0usize;
    // Observed states (maintenance victims are off the canonical overlay)
    // route from scratch on one reused router; the lookahead replays
    // canonical states on its incremental engine. Residual specs share the
    // topology, so the router outlives replans; the replay does not.
    let csr = Arc::new(CsrGraph::build(&spec.topology));
    let mut router = EcmpRouter::from_csr(csr.clone(), spec.split);
    let mut loads = LoadMap::new(&spec.topology);
    let pool = Arc::new(WorkerPool::new(spec.threads));
    let mut lookahead: Option<PlanReplay> = None;

    'phases: while let Some(phase) = pending.first().cloned() {
        // --- Push pipeline: the operation can fail and be retried. Every
        // retry re-audits that the block is still the next canonical one.
        let mut attempts = 1u32;
        while rng.random_range(0.0..1.0) < cfg.failure_prob {
            attempts += 1;
            if attempts > cfg.max_retries {
                report.abort_reason = Some(format!(
                    "phase {phase_counter}: push failed after {attempts} attempts"
                ));
                return report;
            }
        }

        // --- Apply the phase's blocks.
        for _ in &phase.blocks {
            active_spec.apply_next(&mut state, &progress, phase.kind);
            progress = progress.advanced(phase.kind);
        }
        pending.remove(0);

        // --- Realized world: organic growth + surges (+ maintenance).
        demand_multiplier *= 1.0 + cfg.demand_growth_per_phase;
        let realized: DemandMatrix = realized_demand(
            &active_spec.demands,
            demand_multiplier,
            &cfg.surges,
            phase_counter,
        );
        let maintenance = rng.random_range(0.0..1.0) < cfg.external_maintenance_prob;
        let mut observed_state = state.clone();
        if maintenance {
            if let Some(victim) = pick_uninvolved_switch(&active_spec, &observed_state, &mut rng) {
                observed_state.drain_switch(&active_spec.topology, victim);
            }
        }

        let outcome = evaluate_with(
            &mut router,
            &mut loads,
            &active_spec.topology,
            &observed_state,
            &realized,
            active_spec.theta,
        );
        report.phases.push(PhaseRecord {
            index: phase_counter,
            blocks_operated: phase.blocks.len(),
            attempts,
            realized_max_utilization: outcome.report.max_utilization,
            safe: outcome.satisfied(),
            external_maintenance: maintenance,
        });
        phase_counter += 1;

        // --- Replanning loop (§7.1): if any state of the remaining plan
        // would be unsafe under realized demand, re-run the planner on the
        // residual migration.
        if !pending.is_empty()
            && !lookahead
                .get_or_insert_with(|| PlanReplay::new(&active_spec, csr.clone(), pool.clone()))
                .plan_still_safe(&active_spec, &state, &progress, &pending, &realized)
        {
            if !cfg.replan_on_violation {
                report.abort_reason = Some(format!(
                    "phase {phase_counter}: remaining plan unsafe and replanning disabled"
                ));
                return report;
            }
            // The replay is bound to the spec generation it was built for,
            // and should not sit in memory beside the replanner's engine.
            lookahead = None;
            let residual = active_spec.residual(&progress, state.clone(), realized.clone());
            match planner.plan(&residual) {
                Ok(new_outcome) => {
                    report.replans += 1;
                    active_spec = residual;
                    progress = CompactState::origin(active_spec.num_types());
                    pending = new_outcome.plan.phases();
                    continue 'phases;
                }
                Err(PlanError::NoFeasiblePlan) | Err(PlanError::TargetInfeasible(_)) => {
                    report.abort_reason = Some(format!(
                        "phase {phase_counter}: no feasible residual plan under realized demand"
                    ));
                    return report;
                }
                Err(e) => {
                    report.abort_reason = Some(format!("replanning failed: {e}"));
                    return report;
                }
            }
        }
    }

    report.completed = progress.is_target(&active_spec.target_counts);
    report
}

/// The demand the fleet actually carries at `step`: the planning matrix
/// scaled by accumulated organic growth, with every surge active at `step`
/// applied on top. Shared by the executor and the live controller so both
/// simulate the same world.
pub fn realized_demand(
    base: &DemandMatrix,
    growth_multiplier: f64,
    surges: &[SurgeEvent],
    step: usize,
) -> DemandMatrix {
    apply_surges(&base.scaled(growth_multiplier), surges, step)
}

/// Picks a random switch that is up, not part of any operation block —
/// routine maintenance never touches the migration's own hardware — and not
/// a demand endpoint (draining an endpoint rack would trivially void
/// reachability rather than exercise the network's headroom).
pub fn pick_uninvolved_switch(
    spec: &MigrationSpec,
    state: &NetState,
    rng: &mut SmallRng,
) -> Option<SwitchId> {
    let mut involved: std::collections::HashSet<SwitchId> = spec
        .blocks
        .iter()
        .flat_map(|b| b.switches.iter().copied())
        .collect();
    for d in spec.demands.iter() {
        involved.insert(d.src);
        involved.insert(d.dst);
    }
    let candidates: Vec<SwitchId> = state
        .switches_up()
        .filter(|s| !involved.contains(s))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.random_range(0..candidates.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{MigrationBuilder, MigrationOptions};
    use crate::planner::{AStarPlanner, Planner};
    use klotski_topology::presets::{self, PresetId};
    use klotski_traffic::DemandClass;

    fn plan_and_spec() -> (MigrationSpec, MigrationPlan) {
        let spec = MigrationBuilder::hgrid_v1_to_v2(
            &presets::build(PresetId::A),
            &MigrationOptions::default(),
        )
        .unwrap();
        let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
        (spec, plan)
    }

    #[test]
    fn clean_execution_completes() {
        let (spec, plan) = plan_and_spec();
        let report = execute(
            &spec,
            &plan,
            &AStarPlanner::default(),
            &ExecutorConfig::default(),
        );
        assert!(report.completed, "{:?}", report.abort_reason);
        assert_eq!(report.replans, 0);
        assert!(report.phases.iter().all(|p| p.safe));
        assert_eq!(report.phases.len(), plan.num_phases());
    }

    #[test]
    fn growth_triggers_replanning_or_still_completes() {
        let (spec, plan) = plan_and_spec();
        let cfg = ExecutorConfig {
            demand_growth_per_phase: 0.10,
            ..ExecutorConfig::default()
        };
        let report = execute(&spec, &plan, &AStarPlanner::default(), &cfg);
        // Growth of 10%/phase must either complete (possibly after
        // replanning) or abort with an explicit infeasibility reason.
        assert!(report.completed || report.abort_reason.is_some());
    }

    #[test]
    fn surge_mid_migration_is_survivable_with_replanning() {
        let (spec, plan) = plan_and_spec();
        let cfg = ExecutorConfig {
            surges: vec![SurgeEvent::on_class(1, 3, 1.3, DemandClass::RswToRsw)],
            ..ExecutorConfig::default()
        };
        let report = execute(&spec, &plan, &AStarPlanner::default(), &cfg);
        assert!(report.completed || report.abort_reason.is_some());
        if report.completed {
            assert!(report.phases.len() >= plan.num_phases());
        }
    }

    #[test]
    fn repeated_push_failures_abort_with_reason() {
        let (spec, plan) = plan_and_spec();
        let cfg = ExecutorConfig {
            failure_prob: 1.0,
            max_retries: 2,
            ..ExecutorConfig::default()
        };
        let report = execute(&spec, &plan, &AStarPlanner::default(), &cfg);
        assert!(!report.completed);
        assert!(report.abort_reason.unwrap().contains("push failed"));
    }

    #[test]
    fn occasional_failures_just_cost_attempts() {
        let (spec, plan) = plan_and_spec();
        let cfg = ExecutorConfig {
            failure_prob: 0.3,
            max_retries: 50,
            seed: 5,
            ..ExecutorConfig::default()
        };
        let report = execute(&spec, &plan, &AStarPlanner::default(), &cfg);
        assert!(report.completed, "{:?}", report.abort_reason);
        assert!(report.phases.iter().any(|p| p.attempts >= 1));
    }

    #[test]
    fn external_maintenance_is_recorded() {
        let (spec, plan) = plan_and_spec();
        let cfg = ExecutorConfig {
            external_maintenance_prob: 1.0,
            ..ExecutorConfig::default()
        };
        let report = execute(&spec, &plan, &AStarPlanner::default(), &cfg);
        assert!(report.phases.iter().all(|p| p.external_maintenance));
    }

    #[test]
    fn report_serializes() {
        let (spec, plan) = plan_and_spec();
        let report = execute(
            &spec,
            &plan,
            &AStarPlanner::default(),
            &ExecutorConfig::default(),
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: ExecutionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.completed, report.completed);
        assert_eq!(back.replans, report.replans);
        assert_eq!(back.phases.len(), report.phases.len());
        for (a, b) in back.phases.iter().zip(&report.phases) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.safe, b.safe);
            // serde_json's default float parser is not exact-roundtrip;
            // utilizations only need to survive within float noise.
            assert!((a.realized_max_utilization - b.realized_max_utilization).abs() < 1e-12);
        }
    }
}
