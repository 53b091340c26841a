//! The A\* search planner (§4.4, Algorithm 2).
//!
//! Search states are `(V, last action type)`. Successors apply every action
//! type's next canonical block; only states whose topology satisfies the
//! demand and port constraints expand. The priority is
//! `f(n) = g(n) + h(n)` — existing cost plus the remaining-action-type lower
//! bound (Eq. 9 / the admissible refinement, see [`crate::cost`]) — with the
//! number of finished actions as secondary priority: among equal-`f` states,
//! the one closer to the target expands first. A\* returns the moment the
//! target state is popped, which is why it visits far fewer states than the
//! DP sweep in practice.
//!
//! The satisfiability check runs when a state is popped, not when it is
//! generated (Algorithm 2 checks at generation): a successor the search
//! never pops is never routed. The plan, its cost and the expansion count
//! are those of the eager search — the argument sits on
//! `AStarPlanner::search` and in DESIGN.md ("Model refinements documented
//! as deviations").

use crate::action::ActionTypeId;
use crate::compact::CompactState;
use crate::cost::{CostModel, HeuristicMode};
use crate::error::PlanError;
use crate::migration::MigrationSpec;
use crate::plan::{MigrationPlan, PlanStep};
use crate::planner::{run_search, Found, PlanOutcome, PlanStats, Planner, SearchBudget};
use crate::satcheck::{EscMode, Prior, SatChecker, Verdicts};
use klotski_parallel::WorkerPool;
use klotski_telemetry::{log_event, span};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Key of a search state: dense index of `V` in the target box, plus the
/// last action type (`u8::MAX` = origin).
type StateKey = (u32, u8);

const NO_LAST: u8 = u8::MAX;

/// Heap entry. `BinaryHeap` is a max-heap, so `Ord` is inverted on `f` and,
/// when the secondary priority is enabled, kept natural on `finished` (more
/// finished actions = closer to the target = expand first). The insertion
/// sequence number makes tie-breaking deterministic.
struct HeapEntry {
    f: f64,
    finished: u32,
    seq: u64,
    key: StateKey,
    g: f64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: "greater" = should pop first = smaller f.
        other
            .f
            .total_cmp(&self.f)
            .then(self.finished.cmp(&other.finished))
            .then(other.seq.cmp(&self.seq))
    }
}

/// The Klotski A\* planner.
#[derive(Debug, Clone)]
pub struct AStarPlanner {
    /// Cost model (α).
    pub cost: CostModel,
    /// ESC cache mode.
    pub esc: EscMode,
    /// Cost-to-go estimate.
    pub heuristic: HeuristicMode,
    /// Whether equal-`f` states are ordered by finished-action count.
    pub secondary_priority: bool,
    /// State/time budget.
    pub budget: SearchBudget,
    /// Satisfiability lanes. `None` plans on `spec.threads` lanes; the
    /// planning service passes each worker's `lanes_per_worker` count. A
    /// [`WorkerPool`] is a lane count: its helpers spawn per call and are
    /// joined before the call returns, so nothing is kept across jobs.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Default for AStarPlanner {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            esc: EscMode::Compact,
            heuristic: HeuristicMode::Admissible,
            secondary_priority: true,
            budget: SearchBudget::default(),
            pool: None,
        }
    }
}

impl AStarPlanner {
    /// Planner with a given α, defaults elsewhere.
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            cost: CostModel::new(alpha),
            ..Self::default()
        }
    }
}

impl Planner for AStarPlanner {
    fn name(&self) -> &'static str {
        "klotski-a*"
    }

    fn plan(&self, spec: &MigrationSpec) -> Result<PlanOutcome, PlanError> {
        self.plan_seeded(spec, None).map(|(outcome, _)| outcome)
    }

    fn plan_seeded(
        &self,
        spec: &MigrationSpec,
        prior: Option<Prior>,
    ) -> Result<(PlanOutcome, Verdicts), PlanError> {
        let guard = span!("astar.plan", "migration" = spec.name.as_str());
        run_search(
            "astar",
            guard,
            spec,
            self.esc,
            &self.pool,
            prior,
            |checker, stats, start| self.search(spec, checker, stats, start),
        )
    }
}

impl AStarPlanner {
    /// The best-first loop. Algorithm 2 checks a successor when it is
    /// generated; this loop checks a state when it is *popped*, and pushes
    /// successors unchecked. The plan is the same and the checks are fewer:
    ///
    /// - Feasibility is a function of the key `(V, last)` alone, so a key
    ///   gets the same verdict whenever it is asked.
    /// - Only feasible pops expand. An infeasible key can enter `best_g`,
    ///   `parents` and the heap, but only under its own key, and its pop is
    ///   discarded — so `best_g` and `parents` restricted to feasible keys,
    ///   and the relative `seq` order of feasible entries (pushes happen in
    ///   the same order, `seq` only grows), are those of the eager search.
    ///   The heap's total order over feasible entries is therefore the
    ///   eager one, and so are the expansion sequence, `states_visited`,
    ///   the plan and its cost.
    /// - Every popped key was generated by a feasible expansion, which the
    ///   eager search checked at that moment: the lazy search routes a
    ///   subset of the states the eager one routes, on every instance.
    fn search(
        &self,
        spec: &MigrationSpec,
        checker: &mut SatChecker,
        stats: &mut PlanStats,
        start: Instant,
    ) -> Result<Found, PlanError> {
        // Expansion interval between `astar.progress` events, configured
        // per instance via `MigrationOptions::progress_every`.
        let progress_every = spec.progress_every.max(1);
        let target = &spec.target_counts;

        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let mut best_g: HashMap<StateKey, f64> = HashMap::new();
        let mut parents: HashMap<StateKey, StateKey> = HashMap::new();
        let mut seq = 0u64;

        let origin = CompactState::origin(spec.num_types());
        let origin_key: StateKey = (origin.dense_index(target) as u32, NO_LAST);
        let h0 = self
            .cost
            .heuristic(self.heuristic, &origin.remaining(target), None);
        best_g.insert(origin_key, 0.0);
        heap.push(HeapEntry {
            f: h0,
            finished: 0,
            seq,
            key: origin_key,
            g: 0.0,
        });

        while let Some(entry) = heap.pop() {
            let (dense, last_raw) = entry.key;
            // Stale entry: a better g was found after this was pushed.
            match best_g.get(&entry.key) {
                Some(&g) if entry.g > g + 1e-12 => {
                    stats.states_deduped += 1;
                    continue;
                }
                _ => {}
            }
            // Per-pop budget gate: state count, time limit and absolute
            // deadline all stop the search here, before the pop's check — a
            // run of infeasible pops cannot outlive a deadline. The count is
            // of feasible expansions, this pop included if it turns out to
            // be one.
            self.budget.check(stats.states_visited + 1, start)?;

            let v = decode(dense, target);
            let last = (last_raw != NO_LAST).then_some(ActionTypeId(last_raw));
            // The origin is the spec's validated initial state; every other
            // key is checked here, once per pop.
            if last.is_some() {
                let state = spec.state_for(&v);
                let t0 = Instant::now();
                let ok = checker.check(spec, &v, &state, last);
                stats.satcheck_time += t0.elapsed();
                if !ok {
                    stats.states_pruned += 1;
                    continue;
                }
            }
            stats.states_visited += 1;
            if stats.states_visited.is_multiple_of(progress_every) {
                log_event!(
                    "astar.progress",
                    "expansions" = stats.states_visited,
                    "frontier" = heap.len() as u64,
                    "f" = entry.f,
                );
            }
            if v.is_target(target) {
                return Ok((rebuild_plan(spec, &parents, entry.key, target), entry.g));
            }

            for a in spec.actions.ids() {
                if v.count(a) >= target.count(a) {
                    continue;
                }
                stats.states_generated += 1;
                let nv = v.advanced(a);
                let g = entry.g + self.cost.step_cost(last, a);
                let key: StateKey = (nv.dense_index(target) as u32, a.0);
                let improved = match best_g.get(&key) {
                    Some(&old) => g < old - 1e-12,
                    None => true,
                };
                if !improved {
                    stats.states_deduped += 1;
                    continue;
                }
                best_g.insert(key, g);
                parents.insert(key, entry.key);
                let h = self
                    .cost
                    .heuristic(self.heuristic, &nv.remaining(target), Some(a));
                seq += 1;
                heap.push(HeapEntry {
                    f: g + h,
                    finished: if self.secondary_priority {
                        nv.total() as u32
                    } else {
                        0
                    },
                    seq,
                    key,
                    g,
                });
            }
        }

        Err(PlanError::NoFeasiblePlan)
    }
}

/// Decodes a dense index back into counts (inverse of
/// [`CompactState::dense_index`]).
fn decode(mut dense: u32, target: &CompactState) -> CompactState {
    let mut counts = vec![0u16; target.num_types()];
    for i in (0..target.num_types()).rev() {
        let radix = target.counts()[i] as u32 + 1;
        counts[i] = (dense % radix) as u16;
        dense /= radix;
    }
    CompactState::from_counts(counts)
}

/// Walks the parent chain from the target back to the origin, materializing
/// the block-level steps (the canonical block of each type transition).
fn rebuild_plan(
    spec: &MigrationSpec,
    parents: &HashMap<StateKey, StateKey>,
    mut key: StateKey,
    target: &CompactState,
) -> MigrationPlan {
    let mut rev_steps = Vec::new();
    while key.1 != NO_LAST {
        let kind = ActionTypeId(key.1);
        let v = decode(key.0, target);
        // The step consumed block index v[kind] - 1 of its type.
        let idx = v.count(kind) - 1;
        rev_steps.push(PlanStep {
            kind,
            block: spec.blocks_by_type[kind.index()][idx as usize],
        });
        key = *parents
            .get(&key)
            .expect("every non-origin key has a parent");
    }
    rev_steps.reverse();
    MigrationPlan::new(rev_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{MigrationBuilder, MigrationOptions};
    use crate::plan::validate_plan;
    use klotski_topology::presets::{self, PresetId};
    use std::time::Duration;

    fn spec() -> MigrationSpec {
        MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &MigrationOptions::default())
            .unwrap()
    }

    #[test]
    fn progress_interval_is_configurable_per_spec() {
        use klotski_telemetry as telemetry;
        // A sink scoped to this thread: isolated from every other test in
        // this binary, and no global sink needed.
        let count_progress = |spec: &MigrationSpec| {
            let ring = std::sync::Arc::new(telemetry::RingSink::new(1 << 16));
            let scope = telemetry::scope(ring.clone());
            let outcome = AStarPlanner::default().plan(spec).unwrap();
            drop(scope);
            let mut progress = 0u64;
            for line in ring.lines() {
                if let Ok(telemetry::Record::Event { name, .. }) = telemetry::parse_line(&line) {
                    if name == "astar.progress" {
                        progress += 1;
                    }
                }
            }
            (outcome.stats.states_visited, progress)
        };

        // Preset A visits far fewer than 4096 states: the default interval
        // emits nothing, a 1-expansion interval emits one event per visit.
        let (visited, coarse) = count_progress(&spec());
        assert!(visited < 4096, "preset A stays tiny: {visited}");
        assert_eq!(coarse, 0, "default interval stays quiet on preset A");

        let mut fine_spec = spec();
        fine_spec.progress_every = 1;
        let (visited, fine) = count_progress(&fine_spec);
        assert_eq!(fine, visited, "one progress event per expansion");
    }

    #[test]
    fn finds_a_valid_plan_on_preset_a() {
        let spec = spec();
        let outcome = AStarPlanner::default().plan(&spec).unwrap();
        validate_plan(&spec, &outcome.plan).unwrap();
        assert_eq!(outcome.plan.num_steps(), spec.num_blocks());
        assert!(
            outcome.cost >= 2.0,
            "at least one drain + one undrain phase"
        );
        assert!((outcome.plan.cost(&CostModel::default()) - outcome.cost).abs() < 1e-9);
    }

    #[test]
    fn decode_inverts_dense_index() {
        let target = CompactState::from_counts(vec![3, 2, 4]);
        for a in 0..=3u16 {
            for b in 0..=2u16 {
                for c in 0..=4u16 {
                    let v = CompactState::from_counts(vec![a, b, c]);
                    let dense = v.dense_index(&target) as u32;
                    assert_eq!(decode(dense, &target), v);
                }
            }
        }
    }

    #[test]
    fn all_heuristic_modes_agree_on_cost() {
        let spec = spec();
        let mut costs = Vec::new();
        for heuristic in [
            HeuristicMode::Admissible,
            HeuristicMode::PaperEq9,
            HeuristicMode::None,
        ] {
            let planner = AStarPlanner {
                heuristic,
                ..AStarPlanner::default()
            };
            costs.push(planner.plan(&spec).unwrap().cost);
        }
        assert!((costs[0] - costs[2]).abs() < 1e-9, "admissible vs UCS");
        // Eq. 9 is near-admissible here; flag if it ever degrades the plan.
        assert!((costs[1] - costs[0]).abs() < 1e-9, "Eq.9 result differs");
    }

    #[test]
    fn heuristic_prunes_work() {
        let spec = spec();
        let guided = AStarPlanner::default().plan(&spec).unwrap();
        let blind = AStarPlanner {
            heuristic: HeuristicMode::None,
            ..AStarPlanner::default()
        }
        .plan(&spec)
        .unwrap();
        assert!(
            guided.stats.states_visited <= blind.stats.states_visited,
            "guided {} vs blind {}",
            guided.stats.states_visited,
            blind.stats.states_visited
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let spec = spec();
        let planner = AStarPlanner {
            budget: SearchBudget::tight(2, Duration::from_secs(3600)),
            ..AStarPlanner::default()
        };
        assert!(matches!(
            planner.plan(&spec),
            Err(PlanError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn expired_deadline_reports_budget() {
        let spec = spec();
        let planner = AStarPlanner {
            budget: SearchBudget::default().with_deadline(Instant::now()),
            ..AStarPlanner::default()
        };
        assert!(matches!(
            planner.plan(&spec),
            Err(PlanError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn budget_gate_precedes_the_check_of_an_infeasible_frontier() {
        // With θ collapsed after the build, every state but the origin is
        // infeasible: the frontier after the first expansion is two
        // infeasible pops.
        let mut spec = spec();
        spec.theta = 1e-9;
        let run = |budget: SearchBudget| {
            let planner = AStarPlanner {
                budget,
                ..AStarPlanner::default()
            };
            let mut checker = SatChecker::new(&spec, EscMode::Compact);
            let mut stats = PlanStats::default();
            let result = planner.search(&spec, &mut checker, &mut stats, Instant::now());
            (result.map(|_| ()), stats, checker.stats().checks)
        };

        let (result, stats, checks) = run(SearchBudget::default());
        assert_eq!(result, Err(PlanError::NoFeasiblePlan));
        assert_eq!((stats.states_visited, stats.states_generated), (1, 2));
        assert_eq!((stats.states_pruned, checks), (2, 2), "one check per pop");

        // A budget that ends at the first expansion stops the search at the
        // next pop — before that pop's check, not after the run of rejects.
        let (result, stats, checks) = run(SearchBudget::tight(1, Duration::from_secs(3600)));
        assert!(matches!(result, Err(PlanError::BudgetExceeded { .. })));
        assert_eq!(
            (stats.states_visited, stats.states_pruned, checks),
            (1, 0, 0)
        );
    }

    #[test]
    fn shared_pool_reproduces_owned_pool_plan() {
        let spec = spec();
        let owned = AStarPlanner::default().plan(&spec).unwrap();
        let pool = Arc::new(WorkerPool::new(2));
        let planner = AStarPlanner {
            pool: Some(Arc::clone(&pool)),
            ..AStarPlanner::default()
        };
        // Same pool reused across two jobs; plans stay identical.
        for _ in 0..2 {
            let shared = planner.plan(&spec).unwrap();
            assert_eq!(shared.plan, owned.plan);
            assert!((shared.cost - owned.cost).abs() < 1e-12);
        }
    }

    #[test]
    fn alpha_increases_cost() {
        let spec = spec();
        let base = AStarPlanner::default().plan(&spec).unwrap().cost;
        let alpha = AStarPlanner::with_alpha(0.5).plan(&spec).unwrap().cost;
        assert!(alpha > base, "alpha must charge same-type continuations");
    }

    #[test]
    fn esc_modes_agree() {
        let spec = spec();
        let compact = AStarPlanner::default().plan(&spec).unwrap();
        for esc in [EscMode::FullTopology, EscMode::Off] {
            let other = AStarPlanner {
                esc,
                ..AStarPlanner::default()
            }
            .plan(&spec)
            .unwrap();
            assert!((other.cost - compact.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn esc_saves_full_evaluations() {
        let spec = spec();
        let cached = AStarPlanner::default().plan(&spec).unwrap();
        let uncached = AStarPlanner {
            esc: EscMode::Off,
            ..AStarPlanner::default()
        }
        .plan(&spec)
        .unwrap();
        assert!(cached.stats.full_evaluations <= uncached.stats.full_evaluations);
    }
}
