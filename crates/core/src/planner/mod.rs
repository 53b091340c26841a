//! The Klotski planners (§4.3–§4.4).
//!
//! Both planners search the pruned, compacted state space: states are
//! compact count vectors `V` over operation-block action types, and the
//! search graph's edges are "perform the next canonical block of type `a`".
//!
//! - [`DpPlanner`] (Algorithm 1) sweeps the whole box `[0, V*]` in ascending
//!   total-action order and computes the exact optimum by recurrence —
//!   polynomial in `|L|`, but it must visit every state.
//! - [`AStarPlanner`] (Algorithm 2) expands states best-first under the
//!   domain-specific priority `f = g + h` with the remaining-action-type
//!   lower bound as `h` and the finished-action count as secondary priority,
//!   checking each state when it is popped and returning as soon as the
//!   target is.
//!
//! Both reach the satisfiability engine one state at a time, through
//! [`SatChecker::check`](crate::satcheck::SatChecker::check), inside
//! `run_search`, which also owns a search's span and telemetry.

mod astar;
mod dp;

pub use astar::AStarPlanner;
pub use dp::DpPlanner;

use crate::cost::CostModel;
use crate::error::PlanError;
use crate::migration::MigrationSpec;
use crate::plan::MigrationPlan;
use crate::satcheck::{EnsembleBreakdown, EscMode, Prior, SatChecker, SatStats, Verdicts};
use klotski_parallel::WorkerPool;
use klotski_telemetry::SpanGuard;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search counters reported by every planner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanStats {
    /// States processed (popped / swept).
    pub states_visited: u64,
    /// Successor states generated. A\* pushes each one unchecked, unless a
    /// path at least as cheap to the same key is already known (then it
    /// counts as deduped too); DP counts the arrivals that passed their check.
    pub states_generated: u64,
    /// States rejected by the satisfiability check — by A\* when popped, by
    /// DP on arrival.
    #[serde(default)]
    pub states_pruned: u64,
    /// Candidates dropped as stale or non-improving duplicates.
    #[serde(default)]
    pub states_deduped: u64,
    /// Satisfiability queries issued.
    pub sat_checks: u64,
    /// Queries served from the ESC cache.
    pub cache_hits: u64,
    /// Queries neither the ESC cache nor the rescaling bound answered (see
    /// [`SatStats::full_evaluations`]): space-model rejections included.
    pub full_evaluations: u64,
    /// Queries decided off an entry an earlier search of the run judged
    /// under another planning matrix, without routing (see
    /// [`SatStats::rescaled`]); zero without a [`Prior`].
    #[serde(default)]
    pub rescaled: u64,
    /// Destinations replayed from the incremental routing cache.
    #[serde(default)]
    pub incremental_clean: u64,
    /// Destinations re-routed because a circuit toggle touched them.
    #[serde(default)]
    pub incremental_dirty: u64,
    /// Entries resident in the ESC cache at the end of the search.
    #[serde(default)]
    pub esc_entries: u64,
    /// Estimated ESC cache footprint in bytes at the end of the search.
    #[serde(default)]
    pub esc_bytes: u64,
    /// Wall time spent inside satisfiability checks.
    #[serde(default)]
    pub satcheck_time: Duration,
    /// Wall-clock planning time.
    pub planning_time: Duration,
    /// Traffic-ensemble size K (0 when no ensemble is configured).
    #[serde(default)]
    pub ensemble_matrices: u64,
    /// Total per-matrix evaluations across all full evaluations.
    #[serde(default)]
    pub ensemble_matrix_checks: u64,
    /// Full evaluations killed by some ensemble matrix (short-circuited).
    #[serde(default)]
    pub ensemble_short_circuits: u64,
}

impl PlanStats {
    /// Folds a checker's counters in.
    pub fn absorb_sat(&mut self, s: SatStats) {
        self.sat_checks = s.checks;
        self.cache_hits = s.cache_hits;
        self.full_evaluations = s.full_evaluations;
        self.rescaled = s.rescaled;
        self.incremental_clean = s.incremental_clean;
        self.incremental_dirty = s.incremental_dirty;
        self.esc_entries = s.esc_entries;
        self.esc_bytes = s.esc_bytes;
        self.ensemble_matrices = s.ensemble_matrices;
        self.ensemble_matrix_checks = s.ensemble_matrix_checks;
        self.ensemble_short_circuits = s.ensemble_short_circuits;
    }

    /// ESC cache hit rate over all satisfiability queries, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.sat_checks == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.sat_checks as f64
        }
    }
}

/// What a search hands back: the plan and its cost.
pub(crate) type Found = (MigrationPlan, f64);

/// One search, from its span to its telemetry: builds the checker — on
/// `prior`'s cache, when it fits — runs `search` on it, and — whatever the
/// outcome — folds the checker's counters into the stats, stamps the span
/// and publishes the counters. A search that burns its budget or proves
/// infeasibility did the work its counters say. A plan comes back with the
/// checker's cache.
pub(crate) fn run_search(
    planner: &str,
    mut guard: SpanGuard,
    spec: &MigrationSpec,
    esc: EscMode,
    pool: &Option<Arc<WorkerPool>>,
    prior: Option<Prior>,
    search: impl FnOnce(&mut SatChecker, &mut PlanStats, Instant) -> Result<Found, PlanError>,
) -> Result<(PlanOutcome, Verdicts), PlanError> {
    let start = Instant::now();
    let pool = pool
        .clone()
        .unwrap_or_else(|| Arc::new(WorkerPool::new(spec.threads)));
    let mut checker = SatChecker::with_prior(spec, esc, pool, prior);
    let mut stats = PlanStats::default();
    let found = search(&mut checker, &mut stats, start);
    stats.absorb_sat(checker.stats());
    stats.planning_time = start.elapsed();
    flush_search_metrics(planner, &stats, found.is_ok());
    match found {
        Ok((plan, cost)) => {
            guard
                .field("outcome", "done")
                .field("expansions", stats.states_visited)
                .field("cost", cost);
            let ensemble =
                (!spec.extra_demands.is_empty()).then(|| checker.ensemble_breakdown().clone());
            if let Some(ens) = &ensemble {
                emit_ensemble_trace(planner, ens);
            }
            let outcome = PlanOutcome {
                plan,
                cost,
                stats,
                ensemble,
            };
            Ok((outcome, checker.into_verdicts()))
        }
        Err(err) => {
            let outcome = match err {
                PlanError::BudgetExceeded { .. } => "budget",
                _ => "infeasible",
            };
            guard.field("outcome", outcome);
            Err(err)
        }
    }
}

/// Publishes one search's counters to the global telemetry registry under
/// the `klotski_search_*` families, labelled by planner. Every search adds
/// its work; only a `completed` one (it returned a plan) counts in
/// `klotski_search_plans_total` and the plan-time summary.
fn flush_search_metrics(planner: &str, stats: &PlanStats, completed: bool) {
    let reg = klotski_telemetry::registry();
    for (family, help) in [
        ("klotski_search_plans_total", "Completed planner searches"),
        ("klotski_search_expansions_total", "States popped / swept"),
        (
            "klotski_search_generated_total",
            "Successor states generated",
        ),
        (
            "klotski_search_pruned_total",
            "States rejected by the satisfiability check",
        ),
        (
            "klotski_search_deduped_total",
            "Candidates dropped as stale or non-improving duplicates",
        ),
        ("klotski_search_sat_checks_total", "Satisfiability queries"),
        (
            "klotski_search_esc_hits_total",
            "Queries served from the ESC cache",
        ),
        (
            "klotski_search_full_evaluations_total",
            "Queries the ESC cache did not answer",
        ),
        (
            "klotski_search_incremental_clean_total",
            "Destinations whose cached routing structure was reused unchanged",
        ),
        (
            "klotski_search_incremental_dirty_total",
            "Destinations whose routing structure was patched or rebuilt",
        ),
        (
            "klotski_search_satcheck_us_total",
            "Microseconds spent inside satisfiability checks",
        ),
        ("klotski_search_plan_seconds", "Wall time of one search"),
    ] {
        reg.set_help(family, help);
    }
    let label = |family: &str| format!("{family}{{planner=\"{planner}\"}}");
    reg.counter(&label("klotski_search_plans_total"))
        .add(u64::from(completed));
    if completed {
        reg.loglinear(&label("klotski_search_plan_seconds"))
            .record(stats.planning_time);
    }
    for (family, value) in [
        ("klotski_search_expansions_total", stats.states_visited),
        ("klotski_search_generated_total", stats.states_generated),
        ("klotski_search_pruned_total", stats.states_pruned),
        ("klotski_search_deduped_total", stats.states_deduped),
        ("klotski_search_sat_checks_total", stats.sat_checks),
        ("klotski_search_esc_hits_total", stats.cache_hits),
        (
            "klotski_search_full_evaluations_total",
            stats.full_evaluations,
        ),
        (
            "klotski_search_incremental_clean_total",
            stats.incremental_clean,
        ),
        (
            "klotski_search_incremental_dirty_total",
            stats.incremental_dirty,
        ),
        (
            "klotski_search_satcheck_us_total",
            stats.satcheck_time.as_micros() as u64,
        ),
    ] {
        reg.counter(&label(family)).add(value);
    }
}

/// Emits one `satcheck.ensemble` trace event per ensemble matrix, so
/// `trace summarize` can render which matrix killed how many candidates.
fn emit_ensemble_trace(planner: &str, breakdown: &EnsembleBreakdown) {
    for (k, m) in breakdown.matrices.iter().enumerate() {
        klotski_telemetry::log_event!(
            "satcheck.ensemble",
            "planner" = planner,
            "matrix" = k as u64,
            "label" = m.label.as_str(),
            "checks" = m.checks,
            "kills" = m.kills,
            "wall_us" = m.wall_ns / 1_000,
        );
    }
}

/// A successful planning result.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The optimal plan found.
    pub plan: MigrationPlan,
    /// Its cost under the planner's cost model.
    pub cost: f64,
    /// Search counters.
    pub stats: PlanStats,
    /// Per-matrix ensemble accounting (`None` for single-matrix searches
    /// and for baselines that don't run the ensemble checker).
    pub ensemble: Option<EnsembleBreakdown>,
}

/// Common planner interface (Klotski planners and baselines alike).
pub trait Planner {
    /// Short name for reports ("klotski-a*", "klotski-dp", "mrc", "janus").
    fn name(&self) -> &'static str;

    /// Computes a migration plan for `spec`.
    fn plan(&self, spec: &MigrationSpec) -> Result<PlanOutcome, PlanError>;

    /// [`plan`](Self::plan) for a later spec generation of a run, handed the
    /// ESC cache of the searches before it (`prior`: a §7.1 replan whose
    /// residual starts at the root's canonical overlay of `prior.frame`),
    /// returning the outcome with this search's cache — what the lookahead
    /// seeds from and the next replan is handed. The plan, its cost and
    /// every counter but the split of checks into cache hits, `rescaled` and
    /// full evaluations are `plan`'s. A planner that keeps no ESC cache
    /// hands the prior's back untouched (an empty one without a prior).
    fn plan_seeded(
        &self,
        spec: &MigrationSpec,
        prior: Option<Prior>,
    ) -> Result<(PlanOutcome, Verdicts), PlanError> {
        let outcome = self.plan(spec)?;
        Ok((outcome, prior.map(|p| p.verdicts).unwrap_or_default()))
    }
}

/// Which Klotski planner to run. The one place a front end's planner name
/// (`klotski plan --planner`, `?planner=`, a scenario's `planner` field)
/// becomes a planner: [`parse`](Self::parse) the name, then
/// [`build`](Self::build) it over the caller's cost model, budget and pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerKind {
    /// The A\* planner (§4.4).
    AStar,
    /// The DP planner (§4.3).
    Dp,
}

impl PlannerKind {
    /// Resolves a wire name: `astar` (or `a*`) and `dp`. The error is the
    /// message both front ends show the operator.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "astar" | "a*" => Ok(Self::AStar),
            "dp" => Ok(Self::Dp),
            other => Err(format!(
                "unknown planner {other:?} (expected \"astar\" or \"dp\")"
            )),
        }
    }

    /// The planner with every other knob at its default (compact ESC,
    /// admissible heuristic, secondary priority), searching on `pool`.
    pub fn build(
        self,
        cost: CostModel,
        budget: SearchBudget,
        pool: Arc<WorkerPool>,
    ) -> Box<dyn Planner> {
        match self {
            Self::AStar => Box::new(AStarPlanner {
                cost,
                budget,
                pool: Some(pool),
                ..AStarPlanner::default()
            }),
            Self::Dp => Box::new(DpPlanner {
                cost,
                budget,
                pool: Some(pool),
                ..DpPlanner::default()
            }),
        }
    }
}

/// Shared resource budget. The paper caps planners at 24 hours; benches use
/// much tighter limits so ablation failures ("cross" marks in Figures 9–11)
/// surface quickly. Besides the relative limits, a budget may carry an
/// absolute wall-clock [`deadline`](Self::deadline) (per-request deadlines
/// in the planning service), checked at every planner expansion, so an
/// expired search returns [`PlanError::BudgetExceeded`] promptly instead of
/// a partial plan.
#[derive(Debug, Clone)]
pub struct SearchBudget {
    /// Maximum states to process before giving up.
    pub max_states: u64,
    /// Wall-clock limit relative to the search start.
    pub time_limit: Duration,
    /// Absolute deadline; `None` means unbounded.
    pub deadline: Option<Instant>,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            max_states: 50_000_000,
            time_limit: Duration::from_secs(24 * 3600),
            deadline: None,
        }
    }
}

impl SearchBudget {
    /// A tight budget for tests and benches.
    pub fn tight(max_states: u64, time_limit: Duration) -> Self {
        Self {
            max_states,
            time_limit,
            ..Self::default()
        }
    }

    /// Adds an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The per-expansion budget gate: errors once the state count, the
    /// relative time limit or the absolute deadline says the search must
    /// stop. Planners call this once per expanded state.
    pub fn check(&self, states_visited: u64, start: Instant) -> Result<(), PlanError> {
        let elapsed = start.elapsed();
        let exceeded = states_visited > self.max_states
            || elapsed > self.time_limit
            || self.deadline.is_some_and(|d| Instant::now() > d);
        if exceeded {
            return Err(PlanError::BudgetExceeded {
                states_visited,
                elapsed,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_sat_counters() {
        let mut stats = PlanStats::default();
        stats.absorb_sat(SatStats {
            checks: 10,
            cache_hits: 4,
            full_evaluations: 6,
            ..Default::default()
        });
        assert_eq!(stats.sat_checks, 10);
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(stats.full_evaluations, 6);
    }

    #[test]
    fn planner_kind_parses_the_wire_names_and_nothing_else() {
        assert_eq!(PlannerKind::parse("astar"), Ok(PlannerKind::AStar));
        assert_eq!(PlannerKind::parse("a*"), Ok(PlannerKind::AStar));
        assert_eq!(PlannerKind::parse("dp"), Ok(PlannerKind::Dp));
        for bad in ["", "DP", "AStar", "sat", "astar "] {
            assert_eq!(
                PlannerKind::parse(bad),
                Err(format!(
                    "unknown planner {bad:?} (expected \"astar\" or \"dp\")"
                ))
            );
        }
    }

    #[test]
    fn default_budget_matches_paper_cap() {
        let b = SearchBudget::default();
        assert_eq!(b.time_limit, Duration::from_secs(86400));
    }

    #[test]
    fn budget_check_passes_within_limits() {
        let b = SearchBudget::default();
        assert!(b.check(0, Instant::now()).is_ok());
        assert!(b.check(1000, Instant::now()).is_ok());
    }

    #[test]
    fn budget_check_fails_past_deadline() {
        let b = SearchBudget::default().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(
            b.check(0, Instant::now()),
            Err(PlanError::BudgetExceeded { .. })
        ));
        let ok = SearchBudget::default().with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(ok.check(0, Instant::now()).is_ok());
    }
}
