//! Planner runners behind the report binary's experiments.

use klotski_baselines::{JanusPlanner, MrcPlanner};
use klotski_core::cost::HeuristicMode;
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::planner::{AStarPlanner, DpPlanner, PlanStats, Planner, SearchBudget};
use klotski_core::{CostModel, EscMode, PlanError};
use klotski_topology::presets::{self, PresetId};
use std::time::{Duration, Instant};

/// Per-planner wall-clock limit for report runs. The paper caps planners at
/// 24 h; the report uses a laptop-friendly cap.
const PLANNER_TIME_LIMIT: Duration = Duration::from_secs(120);

/// Which planner (or Klotski ablation variant) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// Klotski with the A\* search planner (§4.4).
    KlotskiAStar,
    /// Klotski with the DP planner (§4.3).
    KlotskiDp,
    /// The greedy MRC baseline.
    Mrc,
    /// The Janus-style baseline.
    Janus,
    /// Ablation: A\* without the operation-block locality merge —
    /// per-symmetry-block actions (Figure 10's "Klotski w/o OB").
    WithoutOb,
    /// Ablation: no informed search — h ≡ 0 and no secondary priority
    /// (Figure 10's "Klotski w/o A\*").
    WithoutAStar,
    /// Ablation: no satisfiability caching (Figure 10's "Klotski w/o ESC").
    WithoutEsc,
}

impl PlannerKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PlannerKind::KlotskiAStar => "Klotski-A*",
            PlannerKind::KlotskiDp => "Klotski-DP",
            PlannerKind::Mrc => "MRC",
            PlannerKind::Janus => "Janus",
            PlannerKind::WithoutOb => "Klotski w/o OB",
            PlannerKind::WithoutAStar => "Klotski w/o A*",
            PlannerKind::WithoutEsc => "Klotski w/o ESC",
        }
    }

    /// The four planners of Figures 8 and 9.
    pub const COMPARISON: [PlannerKind; 4] = [
        PlannerKind::Mrc,
        PlannerKind::Janus,
        PlannerKind::KlotskiDp,
        PlannerKind::KlotskiAStar,
    ];

    /// The four variants of Figure 10.
    pub const ABLATION: [PlannerKind; 4] = [
        PlannerKind::WithoutOb,
        PlannerKind::WithoutAStar,
        PlannerKind::WithoutEsc,
        PlannerKind::KlotskiAStar,
    ];
}

/// One planner execution's result.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub planner: PlannerKind,
    /// Plan cost, `None` on failure.
    pub cost: Option<f64>,
    /// Wall-clock planning time (includes failed runs up to their abort).
    pub time: Duration,
    /// Search counters (zeroed on hard failures).
    pub stats: PlanStats,
    /// Failure, if any.
    pub error: Option<PlanError>,
}

impl RunResult {
    /// True when the planner produced a plan.
    pub fn ok(&self) -> bool {
        self.cost.is_some()
    }

    /// "✗" for failures, formatted cost otherwise.
    pub fn cost_cell(&self) -> String {
        match self.cost {
            Some(c) => format!("{c:.1}"),
            None => "✗".into(),
        }
    }
}

/// Builds the migration spec for a preset with the given options
/// (bench-scaled topology).
pub fn spec_for(id: PresetId, opts: &MigrationOptions) -> MigrationSpec {
    let preset = presets::build_for_bench(id);
    MigrationBuilder::for_preset(&preset, opts)
        .unwrap_or_else(|e| panic!("spec for {id} failed: {e}"))
}

/// Spec variant without the operation-block locality merge: every block is
/// split down to roughly symmetry-block size (≤ 2 switches per block, §4.1).
pub fn spec_without_ob(id: PresetId, opts: &MigrationOptions) -> Result<MigrationSpec, PlanError> {
    let preset = presets::build_for_bench(id);
    // Largest natural group size determines the split factor needed to get
    // to ~2-switch blocks.
    let base = MigrationBuilder::for_preset(&preset, opts)?;
    let largest = base
        .blocks
        .iter()
        .map(|b| b.switches.len())
        .max()
        .unwrap_or(2)
        .max(2);
    let mut fine = opts.clone();
    fine.block_scale = (largest as f64 / 2.0).max(1.0);
    MigrationBuilder::for_preset(&preset, &fine)
}

/// Runs one planner kind on a spec with the report's budget.
pub fn run_planner(kind: PlannerKind, spec: &MigrationSpec, alpha: f64) -> RunResult {
    let budget = SearchBudget {
        max_states: 50_000_000,
        time_limit: PLANNER_TIME_LIMIT,
        ..SearchBudget::default()
    };
    let cost = CostModel::new(alpha);
    let start = Instant::now();
    let outcome = match kind {
        PlannerKind::KlotskiAStar => AStarPlanner {
            cost,
            budget,
            ..AStarPlanner::default()
        }
        .plan(spec),
        PlannerKind::KlotskiDp => DpPlanner {
            cost,
            budget,
            ..DpPlanner::default()
        }
        .plan(spec),
        PlannerKind::Mrc => MrcPlanner { cost, budget }.plan(spec),
        PlannerKind::Janus => JanusPlanner { cost, budget }.plan(spec),
        // w/o OB runs A* itself; the spec must be built by `spec_without_ob`.
        PlannerKind::WithoutOb => AStarPlanner {
            cost,
            budget,
            ..AStarPlanner::default()
        }
        .plan(spec),
        PlannerKind::WithoutAStar => AStarPlanner {
            cost,
            budget,
            heuristic: HeuristicMode::None,
            secondary_priority: false,
            ..AStarPlanner::default()
        }
        .plan(spec),
        PlannerKind::WithoutEsc => AStarPlanner {
            cost,
            budget,
            esc: EscMode::Off,
            ..AStarPlanner::default()
        }
        .plan(spec),
    };
    let time = start.elapsed();
    match outcome {
        Ok(o) => RunResult {
            planner: kind,
            cost: Some(o.cost),
            time,
            stats: o.stats,
            error: None,
        },
        Err(e) => RunResult {
            planner: kind,
            cost: None,
            time,
            stats: PlanStats::default(),
            error: Some(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(PlannerKind::KlotskiAStar.label(), "Klotski-A*");
        assert_eq!(PlannerKind::WithoutEsc.label(), "Klotski w/o ESC");
        assert_eq!(PlannerKind::COMPARISON.len(), 4);
        assert_eq!(PlannerKind::ABLATION.len(), 4);
    }

    #[test]
    fn run_all_comparison_planners_on_a() {
        let spec = spec_for(PresetId::A, &MigrationOptions::default());
        let mut costs = Vec::new();
        for kind in PlannerKind::COMPARISON {
            let r = run_planner(kind, &spec, 0.0);
            assert!(r.ok(), "{} failed: {:?}", kind.label(), r.error);
            costs.push(r.cost.unwrap());
        }
        // Janus, DP, and A* agree on the optimum; MRC is >= it.
        assert!((costs[1] - costs[3]).abs() < 1e-9);
        assert!((costs[2] - costs[3]).abs() < 1e-9);
        assert!(costs[0] >= costs[3]);
    }

    #[test]
    fn without_ob_spec_has_fine_blocks() {
        let opts = MigrationOptions::default();
        let coarse = spec_for(PresetId::A, &opts);
        let fine = spec_without_ob(PresetId::A, &opts).unwrap();
        assert!(fine.num_blocks() > coarse.num_blocks());
        assert!(fine
            .blocks
            .iter()
            .all(|b| b.switches.len() <= 3 || !b.circuits.is_empty()));
    }

    #[test]
    fn failed_run_reports_cross() {
        let spec = spec_for(PresetId::EDmag, &MigrationOptions::default());
        let r = run_planner(PlannerKind::Mrc, &spec, 0.0);
        assert!(!r.ok());
        assert_eq!(r.cost_cell(), "✗");
    }
}
