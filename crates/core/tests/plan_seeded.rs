//! `plan_seeded ≡ plan`: a residual searched on the ESC cache its root's
//! search left is the residual searched cold — the same plan bytes, cost,
//! rejections and checks — for A\* and DP, with funneling on and off, under
//! uniformly rescaled demand, a one-class surge, a demand planned at 0 and
//! realized positive (`k = ∞`), and a residual that starts off the canonical
//! overlay (a failed circuit: no prior is handed at all).
//!
//! Beneath the planners, every check a prior-seeded checker makes over the
//! whole residual box equals the kit's from-scratch `Reference` — the
//! inherited decisions among them included — and every checked vector
//! names the state its root-box key does (Definition 1). At the margin, `θ = u · k` exactly, the bound
//! declines and the state is routed.
//!
//! Across requests: the verdicts a search of one document left, adopted by
//! a search of the same document under other names, plan it exactly as
//! cold — same bytes, cost, states and checks, with no full evaluation.

mod common;

use common::Reference;
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::planner::{AStarPlanner, DpPlanner, Planner};
use klotski_core::satcheck::{EscMode, SatChecker};
use klotski_core::{ActionTypeId, CompactState, Prior, Verdicts};
use klotski_parallel::WorkerPool;
use klotski_routing::FunnelingModel;
use klotski_topology::presets::{self, Preset, PresetId};
use klotski_topology::region::build_region;
use klotski_traffic::{DemandClass, DemandGenConfig, DemandMatrix, EnsembleSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// How the residual's world differs from the root's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum World {
    /// Every rate times the factor.
    Uniform(f64),
    /// One class ×1.3, the rest as planned: `k_lo < k_hi`.
    Surge,
    /// A demand the root planned at 0 carries its generated rate: `k = ∞`.
    Unplanned,
    /// As planned, but a circuit failed: the residual is off the overlay.
    Drift,
}

const WORLDS: [World; 7] = [
    World::Uniform(0.9),
    World::Uniform(1.0),
    World::Uniform(1.13),
    World::Uniform(1.3),
    World::Surge,
    World::Unplanned,
    World::Drift,
];

/// Preset A's HGRID migration under a drawn θ, demand seed, block scale and
/// funneling model; `None` when it does not build.
fn instance(theta: f64, seed: u64, scale_idx: usize, funneling: bool) -> Option<MigrationSpec> {
    let opts = MigrationOptions {
        theta,
        demand_cfg: DemandGenConfig {
            seed,
            ..DemandGenConfig::default()
        },
        block_scale: [0.5, 1.0, 2.0][scale_idx],
        funneling: FunnelingModel {
            headroom_factor: if funneling { 1.2 } else { 1.0 },
        },
        threads: 1,
        ..MigrationOptions::default()
    };
    MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts).ok()
}

fn planner(astar: bool) -> Box<dyn Planner> {
    if astar {
        Box::new(AStarPlanner::default())
    } else {
        Box::new(DpPlanner::default())
    }
}

/// `matrix` with every rate mapped by `f`.
fn remap(
    matrix: &DemandMatrix,
    f: impl Fn(usize, &klotski_traffic::Demand) -> f64,
) -> DemandMatrix {
    (matrix.iter().enumerate())
        .map(|(i, d)| klotski_traffic::Demand {
            gbps: f(i, d),
            ..d.clone()
        })
        .collect()
}

/// Every check of a checker seeded with `prior` over the residual's whole
/// box, held to the from-scratch reference; returns how many it decided
/// without routing.
fn walk_box(
    root: &MigrationSpec,
    frame: &CompactState,
    residual: &MigrationSpec,
    prior: Prior,
) -> Result<u64, String> {
    let pool = Arc::new(WorkerPool::new(1));
    let mut seeded = SatChecker::with_prior(residual, EscMode::Compact, pool, Some(prior));
    let mut reference = Reference::new(residual);
    let target = &residual.target_counts;
    let mut v = CompactState::origin(residual.num_types());
    while v.step_in_box(target) {
        let state = residual.state_for(&v);
        if state != root.state_for(&v.offset_by(frame)) {
            return Err(format!("{v} is not its root-box key's state"));
        }
        let arriving = residual.actions.ids().filter(|&a| v.count(a) > 0);
        // Without funneling every arriving type shares one key.
        let keys = if residual.funneling.is_enabled() {
            usize::MAX
        } else {
            1
        };
        for last in arriving.take(keys) {
            let before = seeded.stats().rescaled;
            let got = seeded.check(residual, &v, &state, Some(last));
            let want = reference.check(residual, &v, &state, Some(last));
            if got != want {
                let how = if seeded.stats().rescaled > before {
                    "inherited"
                } else {
                    "routed"
                };
                return Err(format!("{v} after {last}: {how} {got}, reference {want}"));
            }
        }
    }
    Ok(seeded.stats().rescaled)
}

/// One drawn case of the property below.
fn seeded_is_cold(
    theta: f64,
    seed: u64,
    scale_idx: usize,
    funneling: bool,
    astar: bool,
    at: f64,
    world: World,
) {
    let Some(mut root) = instance(theta, seed, scale_idx, funneling) else {
        return;
    };
    let generated = root.demands.clone();
    if world == World::Unplanned {
        root.demands = remap(&generated, |i, d| if i == 0 { 0.0 } else { d.gbps });
    }
    let planner = planner(astar);
    let Ok((root_out, verdicts)) = planner.plan_seeded(&root, None) else {
        return;
    };

    // The residual starts at a state of the root's plan, inside the
    // region its search checked.
    let steps = root_out.plan.steps();
    if steps.len() < 2 {
        return;
    }
    let cut = 1 + ((at * (steps.len() - 1) as f64) as usize).min(steps.len() - 2);
    let mut frame = CompactState::origin(root.num_types());
    for step in &steps[..cut] {
        frame = frame.advanced(step.kind);
    }
    let mut initial = root.state_for(&frame);
    if world == World::Drift {
        let topo = &root.topology;
        let usable: Vec<_> = topo
            .circuits()
            .iter()
            .filter(|c| initial.circuit_usable(topo, c.id))
            .map(|c| c.id)
            .collect();
        initial.set_circuit(usable[seed as usize % usable.len()], false);
    }
    let realized = match world {
        World::Uniform(k) => root.demands.scaled(k),
        World::Surge => remap(&root.demands, |_, d| match d.class {
            DemandClass::RswToEbb => 1.3 * d.gbps,
            _ => d.gbps,
        }),
        World::Unplanned => generated,
        World::Drift => root.demands.clone(),
    };
    let residual = root.residual(&frame, initial, realized);

    let mut cache = verdicts;
    let prior = cache.prior_for(&root, &frame, &residual);
    assert_eq!(
        prior.is_some(),
        world != World::Drift,
        "the gate is exact state equality"
    );

    let cold = planner.plan(&residual);
    let warm = planner.plan_seeded(&residual, prior.clone());
    match (cold, warm) {
        (Ok(cold), Ok((warm, _))) => {
            assert_eq!(
                serde_json::to_string(&cold.plan).unwrap(),
                serde_json::to_string(&warm.plan).unwrap()
            );
            assert_eq!(cold.cost.to_bits(), warm.cost.to_bits());
            let (c, w) = (cold.stats, warm.stats);
            assert_eq!(
                (
                    c.sat_checks,
                    c.states_pruned,
                    c.states_visited,
                    c.cache_hits
                ),
                (
                    w.sat_checks,
                    w.states_pruned,
                    w.states_visited,
                    w.cache_hits
                )
            );
            assert_eq!(c.rescaled, 0);
            assert_eq!(w.rescaled + w.full_evaluations, c.full_evaluations);
            if world == World::Drift {
                assert_eq!(w.rescaled, 0);
            }
        }
        (Err(cold), Err(warm)) => {
            assert_eq!(std::mem::discriminant(&cold), std::mem::discriminant(&warm))
        }
        (cold, warm) => panic!(
            "feasibility differs: cold {:?}, seeded {:?}",
            cold.map(|o| o.cost),
            warm.map(|(o, _)| o.cost)
        ),
    }

    if let Some(prior) = prior {
        let rescaled = walk_box(&root, &frame, &residual, prior);
        assert!(rescaled.is_ok(), "{}", rescaled.unwrap_err());
        if world != World::Unplanned {
            assert!(rescaled.unwrap() > 0, "finite k decides inherited states");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_plan_seeded_is_plan(
        theta in 0.65f64..0.95,
        seed in 0u64..500,
        scale_idx in 0usize..3,
        funneling in proptest::bool::ANY,
        astar in proptest::bool::ANY,
        at in 0.0f64..1.0,
        world in 0usize..WORLDS.len(),
    ) {
        seeded_is_cold(theta, seed, scale_idx, funneling, astar, at, WORLDS[world]);
    }
}

/// The root's DP plan on preset A, the state after its second step, and the
/// `u` its search measured there.
fn margin_case() -> (MigrationSpec, Verdicts, CompactState, ActionTypeId, f64) {
    let root = MigrationBuilder::hgrid_v1_to_v2(
        &presets::build(PresetId::A),
        &MigrationOptions {
            threads: 1,
            ..MigrationOptions::default()
        },
    )
    .unwrap();
    let (out, verdicts) = DpPlanner::default().plan_seeded(&root, None).unwrap();
    let steps = out.plan.steps();
    let origin = CompactState::origin(root.num_types());
    let frame = origin.advanced(steps[0].kind);
    let a = steps[1].kind;
    let w = frame.advanced(a);
    let (u, planned) = verdicts
        .measured(&root, &origin, &w, &root.state_for(&w), Some(a))
        .expect("a plan state's check summarized its loads");
    assert!(planned.iter().eq(root.demands.iter().map(|d| &d.gbps)));
    (root, verdicts, frame, a, u)
}

/// `θ = u · k` exactly: neither half of the bound decides, the state is
/// routed, and the verdict is the route's; a hair to either side, the bound
/// decides without routing.
#[test]
fn a_state_at_the_margin_is_routed() {
    let (root, verdicts, frame, a, u) = margin_case();
    let at = root.theta / u;
    for (k, routed) in [
        (at, true),
        (at * (1.0 - 1e-6), false),
        (at * (1.0 + 1e-6), false),
    ] {
        let residual = root.residual(&frame, root.state_for(&frame), root.demands.scaled(k));
        let prior = verdicts.clone().prior_for(&root, &frame, &residual);
        let pool = Arc::new(WorkerPool::new(1));
        let mut seeded = SatChecker::with_prior(&residual, EscMode::Compact, pool, prior);
        let v = CompactState::origin(residual.num_types()).advanced(a);
        let state = residual.state_for(&v);
        let got = seeded.check(&residual, &v, &state, Some(a));
        let s = seeded.stats();
        assert_eq!(
            (s.rescaled, s.full_evaluations),
            if routed { (0, 1) } else { (1, 0) },
            "k = {k:e}"
        );
        let want = Reference::new(&residual).check(&residual, &v, &state, Some(a));
        assert_eq!(got, want, "k = {k:e}");
    }
}

/// A prior from another run — another topology, matrices with other
/// endpoints, another funneling model — fits nothing: it is dropped, never
/// a panic, and the checker starts cold with the same verdicts.
#[test]
fn a_prior_that_does_not_fit_is_dropped() {
    let (root, verdicts, frame, a, _) = margin_case();
    let v = CompactState::origin(root.num_types()).advanced(a);
    let pool = || Arc::new(WorkerPool::new(1));
    let residual = root.residual(&frame, root.state_for(&frame), root.demands.clone());

    let mut truncated = residual.clone();
    truncated.demands = truncated.demands.iter().skip(1).cloned().collect();
    // The same preset built again: equal, but not the run's topology.
    let rebuilt = MigrationBuilder::hgrid_v1_to_v2(
        &presets::build(PresetId::A),
        &MigrationOptions {
            threads: 1,
            ..MigrationOptions::default()
        },
    )
    .unwrap()
    .residual(&frame, root.state_for(&frame), root.demands.clone());
    // Another funneling model: every measured `u` is another quantity.
    let mut funneled = residual.clone();
    funneled.funneling = FunnelingModel {
        headroom_factor: 1.5,
    };

    for spec in [&truncated, &rebuilt, &funneled] {
        let mut cache = verdicts.clone();
        assert!(
            cache.prior_for(&root, &frame, spec).is_none(),
            "{}",
            spec.name
        );
        let prior = Prior {
            verdicts: verdicts.clone(),
            frame: frame.clone(),
        };
        let mut seeded = SatChecker::with_prior(spec, EscMode::Compact, pool(), Some(prior));
        let state = spec.state_for(&v);
        let got = seeded.check(spec, &v, &state, Some(a));
        assert_eq!(seeded.stats().rescaled, 0);
        assert_eq!(seeded.stats().esc_entries, 1, "a fresh cache");
        assert_eq!(got, Reference::new(spec).check(spec, &v, &state, Some(a)));
    }
    // A frame off the box, or with the wrong arity.
    for frame in [
        CompactState::origin(root.num_types()),
        CompactState::origin(3),
    ] {
        let mut cache = verdicts.clone();
        assert!(cache.prior_for(&root, &frame, &residual).is_none());
    }
}

/// Preset A under `opts`, its region named `name`: the same network and
/// demand whatever the name.
fn named(name: &str, opts: &MigrationOptions) -> MigrationSpec {
    let mut config = presets::config(PresetId::A);
    config.name = name.into();
    let (topology, handles) = build_region(&config);
    let preset = Preset {
        id: PresetId::A,
        config,
        topology,
        handles,
    };
    MigrationBuilder::for_preset(&preset, opts).expect("preset A builds")
}

/// One drawn case of the adoption property below: a search of a renamed
/// document handed the verdicts the first document's search left plans
/// exactly like a cold search of it, and routes nothing.
fn adopted_is_cold(theta: f64, seed: u64, funneling: bool, astar: bool, ensemble: bool) {
    let opts = MigrationOptions {
        theta,
        demand_cfg: DemandGenConfig {
            seed,
            ..DemandGenConfig::default()
        },
        funneling: FunnelingModel {
            headroom_factor: if funneling { 1.2 } else { 1.0 },
        },
        ensemble: ensemble.then(|| EnsembleSpec::with_k(4, seed)),
        threads: 1,
        ..MigrationOptions::default()
    };
    let first = named("tenant-a", &opts);
    let renamed = named("tenant-b", &opts);
    assert_ne!(first.name, renamed.name);
    assert!(!Arc::ptr_eq(&first.topology, &renamed.topology));

    let planner = planner(astar);
    let Ok((_, verdicts)) = planner.plan_seeded(&first, None) else {
        return;
    };
    let prior = verdicts.adopt(&renamed).expect("a renamed copy adopts");
    let cold = planner.plan(&renamed).expect("the first document planned");
    let (warm, left) = planner.plan_seeded(&renamed, Some(prior)).unwrap();
    assert_eq!(
        serde_json::to_string(&cold.plan).unwrap(),
        serde_json::to_string(&warm.plan).unwrap()
    );
    assert_eq!(cold.cost.to_bits(), warm.cost.to_bits());
    let (c, w) = (cold.stats, warm.stats);
    assert_eq!(
        (c.states_visited, c.states_pruned, c.sat_checks),
        (w.states_visited, w.states_pruned, w.sat_checks)
    );
    assert_eq!((w.full_evaluations, w.rescaled), (0, 0));
    assert_eq!(w.cache_hits, w.sat_checks);
    // Handed on again, the cache still adopts: resuming added no matrix.
    assert!(left.adopt(&first).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_adopted_from_a_renamed_document_is_plan(
        theta in 0.65f64..0.95,
        seed in 0u64..500,
        funneling in proptest::bool::ANY,
        astar in proptest::bool::ANY,
        ensemble in proptest::bool::ANY,
    ) {
        adopted_is_cold(theta, seed, funneling, astar, ensemble);
    }
}
