//! Human-readable plan reports: the per-phase safety timeline operators
//! review before a plan ships (§7.2 adds "extra audits and safety checks to
//! Klotski's plans during operation" — this is the pre-flight audit sheet).

use crate::compact::CompactState;
use crate::migration::MigrationSpec;
use crate::plan::{MigrationPlan, PlanStep};
use klotski_routing::UtilizationReport;
use klotski_topology::NetState;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Safety snapshot after one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseAudit {
    /// 1-based phase number.
    pub index: usize,
    /// Action-type label.
    pub action: String,
    /// Blocks operated in parallel.
    pub blocks: usize,
    /// Switch-level operations.
    pub switch_ops: usize,
    /// Peak circuit utilization after the phase.
    pub max_utilization: f64,
    /// Name of the hottest circuit's endpoints.
    pub worst_circuit: Option<String>,
    /// Minimum free-port slack across switches (ports − active degree).
    pub min_port_slack: usize,
    /// Floor space used / budget, if the migration carries a space model.
    pub space_used: Option<f64>,
}

/// Full pre-flight audit of a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanAudit {
    /// Migration instance name.
    pub migration: String,
    /// Utilization bound θ the phases are audited against.
    pub theta: f64,
    /// Per-phase snapshots, in execution order.
    pub phases: Vec<PhaseAudit>,
}

impl PlanAudit {
    /// Highest utilization any phase reaches.
    pub fn peak_utilization(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.max_utilization)
            .fold(0.0, f64::max)
    }

    /// Headroom to θ at the tightest moment of the whole migration.
    pub fn min_headroom(&self) -> f64 {
        self.theta - self.peak_utilization()
    }
}

impl fmt::Display for PlanAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan audit for {} (theta = {:.0}%)",
            self.migration,
            self.theta * 100.0
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  phase {:>2}: {:<22} {:>2} block(s) {:>4} ops | peak util {:>5.1}%{} | min port slack {}{}",
                p.index,
                p.action,
                p.blocks,
                p.switch_ops,
                p.max_utilization * 100.0,
                p.worst_circuit
                    .as_deref()
                    .map(|w| format!(" ({w})"))
                    .unwrap_or_default(),
                p.min_port_slack,
                p.space_used
                    .map(|s| format!(" | space {s:.2}"))
                    .unwrap_or_default(),
            )?;
        }
        writeln!(
            f,
            "  tightest headroom to theta: {:.1} percentage points",
            self.min_headroom() * 100.0
        )
    }
}

impl PhaseAudit {
    /// The record of phase `index` (1-based), whose `steps` ended in
    /// `(v, state)` with base-matrix utilization `report`.
    pub(crate) fn record(
        spec: &MigrationSpec,
        index: usize,
        steps: &[PlanStep],
        v: &CompactState,
        state: &NetState,
        report: &UtilizationReport,
    ) -> Self {
        let topo = &spec.topology;
        let worst_circuit = report.worst_circuit.map(|c| {
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
        PhaseAudit {
            index,
            action: spec.actions.kind(steps[0].kind).to_string(),
            blocks: steps.len(),
            switch_ops: steps
                .iter()
                .map(|s| spec.blocks[s.block.index()].action_weight())
                .sum(),
            max_utilization: report.max_utilization,
            worst_circuit,
            min_port_slack,
            space_used: spec.space.as_ref().map(|m| m.used(v)),
        }
    }
}

/// Audits a plan: replays it phase by phase, recording utilization (of the
/// base matrix, without funneling headroom), port slack, and space footprint
/// after each phase. Judges nothing — an unsafe plan still gets its sheet;
/// [`validate_and_audit_on`](crate::replay::validate_and_audit_on) is the
/// same walk with the verdict.
pub fn audit_plan(spec: &MigrationSpec, plan: &MigrationPlan) -> PlanAudit {
    crate::replay::audit(spec, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{MigrationBuilder, MigrationOptions};
    use crate::planner::{AStarPlanner, Planner};
    use klotski_topology::presets::{self, PresetId};

    fn audited() -> (MigrationSpec, PlanAudit) {
        let spec = MigrationBuilder::hgrid_v1_to_v2(
            &presets::build(PresetId::A),
            &MigrationOptions::default(),
        )
        .unwrap();
        let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
        let audit = audit_plan(&spec, &plan);
        (spec, audit)
    }

    #[test]
    fn audit_covers_every_phase_and_stays_under_theta() {
        let (spec, audit) = audited();
        assert!(!audit.phases.is_empty());
        assert_eq!(audit.theta, spec.theta);
        for p in &audit.phases {
            assert!(
                p.max_utilization <= spec.theta + 1e-9,
                "phase {} exceeds theta",
                p.index
            );
            assert!(p.blocks > 0 && p.switch_ops > 0);
        }
        assert!(audit.min_headroom() >= -1e-9);
        // Total ops across phases equal the migration's workload.
        let total: usize = audit.phases.iter().map(|p| p.switch_ops).sum();
        assert_eq!(total, spec.num_switch_actions());
    }

    #[test]
    fn space_column_present_for_in_place_swaps() {
        let (_, audit) = audited();
        assert!(audit.phases.iter().all(|p| p.space_used.is_some()));
    }

    #[test]
    fn display_is_one_line_per_phase() {
        let (_, audit) = audited();
        let shown = audit.to_string();
        // header + phases + headroom footer
        assert_eq!(shown.lines().count(), audit.phases.len() + 2);
        assert!(shown.contains("peak util"));
    }
}
