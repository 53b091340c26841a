//! The Klotski planners are exact, as a property (Fig. 8a's "always
//! optimal"): on random tiny instances DP's cost equals the brute-force
//! oracle's and A\*'s, its plan validates, and all agree on infeasibility —
//! across block scales, θ, the funneling headroom model and a K=2 traffic
//! ensemble. The DP sweep skips the check of every arrival whose predecessor
//! no feasible sequence reaches; this is the oracle that says skipping never
//! costs an optimum.
//!
//! A\* checks a state when it is popped. The reference it is held to is
//! [`eager_astar`] below — Algorithm 2 verbatim, every successor checked
//! when it is generated — and the claim is stronger than equal cost: the
//! same plan steps from the same number of expansions, with no more
//! evaluations, under every ESC mode.
//!
//! Both planners hand the lookahead the utilization their own checks
//! measured, in the ESC cache the plan arrives with
//! (`Planner::plan_seeded`); on the same instances that hand-off is held to
//! the from-scratch route of every plan state.

use klotski::baselines::BruteForcePlanner;
use klotski::core::cost::HeuristicMode;
use klotski::core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski::core::plan::{validate_plan, MigrationPlan, PlanStep};
use klotski::core::planner::{AStarPlanner, DpPlanner, PlanOutcome, Planner};
use klotski::core::satcheck::{EscMode, SatChecker, Verdicts};
use klotski::core::{ActionTypeId, CompactState, CostModel, EnsembleSpec, LiveEngine, PlanReplay};
use klotski::parallel::WorkerPool;
use klotski::routing::{evaluate_policy, FunnelingModel};
use klotski::topology::fabric::FabricConfig;
use klotski::topology::hgrid::HgridConfig;
use klotski::topology::ma::BackboneConfig;
use klotski::topology::presets::{self, Preset, PresetId};
use klotski::topology::region::{build_region, RegionConfig};
use klotski::traffic::{DemandGenConfig, DemandMatrix};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A search key: `(V, last action type)`, `None` at the origin.
type Key = (CompactState, Option<ActionTypeId>);

/// The planner's heap order: smallest `f` first, then most finished
/// actions, then earliest pushed.
struct HeapEntry {
    f: f64,
    finished: usize,
    seq: u64,
    g: f64,
    key: Key,
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
        other
            .f
            .total_cmp(&self.f)
            .then(self.finished.cmp(&other.finished))
            .then(other.seq.cmp(&self.seq))
    }
}

/// What the reference search reports.
struct Eager {
    plan: MigrationPlan,
    cost: f64,
    states_visited: u64,
    full_evaluations: u64,
}

/// Algorithm 2 as the paper writes it: every successor of an expanded state
/// is checked when generated, and only the feasible ones enter the queue.
/// Default cost model, admissible heuristic, secondary priority on — the
/// configuration of `AStarPlanner::default()`.
fn eager_astar(spec: &MigrationSpec, esc: EscMode) -> Option<Eager> {
    let cost = CostModel::default();
    let target = &spec.target_counts;
    let mut checker = SatChecker::new(spec, esc);
    let mut heap = BinaryHeap::new();
    let mut best_g: HashMap<Key, f64> = HashMap::new();
    let mut parents: HashMap<Key, Key> = HashMap::new();
    let mut seq = 0u64;
    let mut states_visited = 0u64;

    let origin: Key = (CompactState::origin(spec.num_types()), None);
    best_g.insert(origin.clone(), 0.0);
    heap.push(HeapEntry {
        f: cost.heuristic(HeuristicMode::Admissible, &origin.0.remaining(target), None),
        finished: 0,
        seq,
        g: 0.0,
        key: origin,
    });
    while let Some(entry) = heap.pop() {
        if entry.g > best_g[&entry.key] + 1e-12 {
            continue;
        }
        states_visited += 1;
        let (v, last) = &entry.key;
        if v.is_target(target) {
            let mut steps = Vec::new();
            let mut key = &entry.key;
            while let (v, Some(kind)) = key {
                let idx = usize::from(v.count(*kind) - 1);
                steps.push(PlanStep {
                    kind: *kind,
                    block: spec.blocks_by_type[kind.index()][idx],
                });
                key = &parents[key];
            }
            steps.reverse();
            return Some(Eager {
                plan: MigrationPlan::new(steps),
                cost: entry.g,
                states_visited,
                full_evaluations: checker.stats().full_evaluations,
            });
        }
        let state = spec.state_for(v);
        for a in spec.actions.ids() {
            if v.count(a) >= target.count(a) {
                continue;
            }
            let nv = v.advanced(a);
            let mut next_state = state.clone();
            spec.apply_next(&mut next_state, v, a);
            if !checker.check(spec, &nv, &next_state, Some(a)) {
                continue;
            }
            let g = entry.g + cost.step_cost(*last, a);
            let key: Key = (nv, Some(a));
            if best_g.get(&key).is_some_and(|&old| g >= old - 1e-12) {
                continue;
            }
            best_g.insert(key.clone(), g);
            parents.insert(key.clone(), entry.key.clone());
            seq += 1;
            heap.push(HeapEntry {
                f: g + cost.heuristic(HeuristicMode::Admissible, &key.0.remaining(target), Some(a)),
                finished: key.0.total(),
                seq,
                g,
                key,
            });
        }
    }
    None
}

/// Runs `AStarPlanner` and [`eager_astar`] on `spec` under every ESC mode
/// and holds the planner to the reference. Returns the planner's cost
/// (`None`: both found the instance infeasible).
fn assert_lazy_is_eager(spec: &MigrationSpec) -> Result<Option<f64>, String> {
    let mut cost = None;
    for esc in [EscMode::Compact, EscMode::FullTopology, EscMode::Off] {
        let lazy = AStarPlanner {
            esc,
            ..AStarPlanner::default()
        }
        .plan(spec);
        match (lazy, eager_astar(spec, esc)) {
            (Ok(lazy), Some(eager)) => {
                if lazy.plan != eager.plan {
                    return Err(format!("{esc:?}: plans differ"));
                }
                if (lazy.cost - eager.cost).abs() > 1e-12 {
                    return Err(format!("{esc:?}: cost {} vs {}", lazy.cost, eager.cost));
                }
                if lazy.stats.states_visited != eager.states_visited {
                    return Err(format!(
                        "{esc:?}: {} expansions vs {}",
                        lazy.stats.states_visited, eager.states_visited
                    ));
                }
                if lazy.stats.full_evaluations > eager.full_evaluations {
                    return Err(format!(
                        "{esc:?}: {} evaluations, the eager search made {}",
                        lazy.stats.full_evaluations, eager.full_evaluations
                    ));
                }
                let s = &lazy.stats;
                if s.sat_checks != s.states_visited - 1 + s.states_pruned {
                    return Err(format!("{esc:?}: not one check per checked pop: {s:?}"));
                }
                cost = Some(lazy.cost);
            }
            (Err(_), None) => {}
            (lazy, eager) => {
                return Err(format!(
                    "{esc:?}: feasibility differs: A*={:?} eager={:?}",
                    lazy.map(|o| o.cost),
                    eager.map(|o| o.cost)
                ))
            }
        }
    }
    Ok(cost)
}

/// The random tiny instance of both properties below: preset A's HGRID
/// migration under a drawn θ, demand seed, block scale, funneling model and
/// K=2 ensemble. `None` when the spec does not build (the origin already
/// breaks θ): no instance at all.
fn instance(
    theta: f64,
    seed: u64,
    scale_idx: usize,
    funneling_on: bool,
    ensemble_on: bool,
) -> Option<MigrationSpec> {
    let opts = MigrationOptions {
        theta,
        demand_cfg: DemandGenConfig {
            seed,
            ..DemandGenConfig::default()
        },
        block_scale: [0.5, 1.0, 2.0][scale_idx],
        funneling: FunnelingModel {
            headroom_factor: if funneling_on { 1.2 } else { 1.0 },
        },
        ensemble: ensemble_on.then(|| EnsembleSpec::with_k(2, seed)),
        ..MigrationOptions::default()
    };
    MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts).ok()
}

/// The headroom hand-off of one planned outcome, held to the from-scratch
/// route: at every step the cache the plan arrived with holds the max
/// utilization `evaluate_policy` reports for the step's state under the
/// planning matrix, bit for bit — except where the funneling model inflated
/// that step's check before its summary, which holds at least that much
/// (funneling only scales loads up), and under an ESC that keeps nothing
/// (`Off`: no entry at all). And a lookahead reading it answers as one
/// reading an empty cache does, on the same trip, judging the same states
/// with no more sweeps.
fn assert_headroom_hands_off(
    spec: &MigrationSpec,
    out: &PlanOutcome,
    verdicts: &Verdicts,
    esc: EscMode,
) -> Result<(), String> {
    let origin = CompactState::origin(spec.num_types());
    let mut v = origin.clone();
    let mut state = spec.initial.clone();
    for (i, step) in out.plan.steps().iter().enumerate() {
        spec.apply_next(&mut state, &v, step.kind);
        v = v.advanced(step.kind);
        let funneled = spec.funneling.is_enabled() && spec.kind_is_drain(step.kind);
        let oracle = evaluate_policy(
            &spec.topology,
            &state,
            &spec.demands,
            spec.theta,
            spec.split,
        )
        .report
        .max_utilization;
        let entry = verdicts.measured(spec, &origin, &v, &state, Some(step.kind));
        match entry {
            None if esc == EscMode::Off => {}
            Some((u, _)) if funneled && esc != EscMode::Off && u >= oracle => {}
            Some((u, planned))
                if !funneled
                    && esc != EscMode::Off
                    && u.to_bits() == oracle.to_bits()
                    && planned.iter().eq(spec.demands.iter().map(|d| &d.gbps)) => {}
            other => {
                return Err(format!(
                    "step {i} (funneled: {funneled}): {:?}, the oracle reads {oracle:e}",
                    other.map(|(u, _)| u)
                ))
            }
        }
    }

    let phases = out.plan.phases();
    let pool = || Arc::new(WorkerPool::new(1));
    let (mut cached_engine, mut cold_engine) =
        (LiveEngine::new(spec, pool()), LiveEngine::new(spec, pool()));
    let replay = PlanReplay::new(spec, &origin);
    let empty = Verdicts::default();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for call in 0..8 {
        // Every rate moved by its own factor in [0.6, 1.4): some worlds the
        // bound clears outright, some need exact sweeps, some trip.
        let realized: DemandMatrix = spec
            .demands
            .iter()
            .cloned()
            .map(|mut d| {
                x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(call + 1);
                d.gbps *= 0.6 + 0.8 * (x >> 11) as f64 / (1u64 << 53) as f64;
                d
            })
            .collect();
        let fast = replay.lookahead(
            &mut cached_engine,
            verdicts,
            spec,
            &origin,
            &phases,
            &realized,
        );
        let slow = replay.lookahead(&mut cold_engine, &empty, spec, &origin, &phases, &realized);
        if fast.trip != slow.trip || fast.bound + fast.swept != slow.swept {
            return Err(format!("call {call}: cached {fast:?}, cold {slow:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_headroom_hand_off_is_the_from_scratch_utilization(
        theta in 0.65f64..0.95,
        seed in 0u64..500,
        scale_idx in 0usize..3,
        funneling_on in proptest::bool::ANY,
        ensemble_on in proptest::bool::ANY,
    ) {
        if let Some(spec) = instance(theta, seed, scale_idx, funneling_on, ensemble_on) {
            for esc in [EscMode::Compact, EscMode::FullTopology, EscMode::Off] {
                let planners: [(&str, Box<dyn Planner>); 2] = [
                    ("a*", Box::new(AStarPlanner { esc, ..AStarPlanner::default() })),
                    ("dp", Box::new(DpPlanner { esc, ..DpPlanner::default() })),
                ];
                for (name, planner) in planners {
                    if let Ok((out, verdicts)) = planner.plan_seeded(&spec, None) {
                        let held = assert_headroom_hands_off(&spec, &out, &verdicts, esc);
                        prop_assert!(held.is_ok(), "{name} {esc:?}: {}", held.unwrap_err());
                    }
                }
            }
        }
    }

    #[test]
    fn prop_dp_cost_equals_brute_force_and_astar(
        theta in 0.65f64..0.95,
        seed in 0u64..500,
        scale_idx in 0usize..3,
        funneling_on in proptest::bool::ANY,
        ensemble_on in proptest::bool::ANY,
    ) {
        if let Some(spec) = instance(theta, seed, scale_idx, funneling_on, ensemble_on) {
            let dp = DpPlanner::default().plan(&spec);
            let brute = BruteForcePlanner::default().plan(&spec);
            let astar = assert_lazy_is_eager(&spec);
            prop_assert!(astar.is_ok(), "{}", astar.unwrap_err());
            match (dp, brute, astar.unwrap()) {
                (Ok(dp), Ok(brute), Some(astar)) => {
                    prop_assert!(
                        (dp.cost - brute.cost).abs() < 1e-9,
                        "dp {} brute {}", dp.cost, brute.cost
                    );
                    prop_assert!(
                        (dp.cost - astar).abs() < 1e-9,
                        "dp {} a* {}", dp.cost, astar
                    );
                    prop_assert!(validate_plan(&spec, &dp.plan).is_ok());
                }
                (Err(_), Err(_), None) => {}
                (dp, brute, astar) => prop_assert!(
                    false,
                    "planners disagree on feasibility: DP={:?} brute={:?} A*={:?}",
                    dp.map(|o| o.cost),
                    brute.map(|o| o.cost),
                    astar
                ),
            }
        }
    }
}

/// The same comparison where routing is weighted and the migration changes
/// the layering: the DMAG instance `optimality.rs` certifies against the
/// oracle (WCMP, a layer inserted), and the spine forklift of the middle
/// building of a three-building region (`multi_dc.rs`'s instance, 12 + 12
/// blocks).
#[test]
fn lazy_astar_is_eager_astar_on_dmag_and_ssw_forklift() {
    let opts = MigrationOptions::default();
    let dmag = MigrationBuilder::dmag(&presets::build_for_bench(PresetId::EDmag), &opts).unwrap();
    let config = RegionConfig {
        name: "three-dc-one-forklift".into(),
        dcs: vec![
            FabricConfig {
                pods: 3,
                rsws_per_pod: 4,
                planes: 4,
                ssws_per_plane: 4,
                rsw_fsw_gbps: 800.0,
                fsw_ssw_gbps: 1600.0,
                ..FabricConfig::default()
            };
            3
        ],
        hgrid_v1: HgridConfig::v1(4, 4, 2),
        hgrid_v2: None,
        backbone: BackboneConfig {
            ebs: 4,
            drs: 2,
            ebbs: 2,
            ..BackboneConfig::default()
        },
        dmag: None,
        ssw_forklift_dcs: vec![1],
    };
    let (topology, handles) = build_region(&config);
    let region = Preset {
        id: PresetId::A, // tag only; planning reads topology + handles
        config,
        topology,
        handles,
    };
    let forklift = MigrationBuilder::ssw_forklift(&region, &opts).unwrap();
    assert_eq!(forklift.target_counts.counts(), &[12, 12]);
    for spec in [&dmag, &forklift] {
        let cost = assert_lazy_is_eager(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(cost.is_some(), "{} plans", spec.name);
    }
}
