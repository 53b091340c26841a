//! Differential oracles for the plan-replay walk (`klotski_core::replay`).
//!
//! - The lookahead, [`PlanReplay::lookahead`], must equal the fold it
//!   replaced: every state of the pending suffix routed from scratch by
//!   `evaluate_policy` under the realized matrix, AND-ed — reading an empty
//!   cache and reading the search's. One long-lived replay answers several
//!   successive calls per case — shrinking suffix, drifting demand — as the
//!   controller drives it, so a stale base state, stale rates, a ratio taken
//!   against the wrong matrix or a wrong toggle set between calls shows up
//!   as a mismatch. A cache whose matrices have other endpoints is ignored.
//! - The headroom bound that lets the lookahead skip a sweep must dominate
//!   the sweep it skips, with the margin the derivation beside
//!   `HEADROOM_SLACK` claims, and a state inside the margin must be swept,
//!   not guessed.
//! - The fused validate + audit walk must produce, byte for byte, the
//!   `PlanAudit` the scalar loop `audit_plan` used to run produced: base
//!   matrix, loads read before funneling headroom is applied.

mod common;

use common::{chain, jittered, ratio, Rng};
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::plan::{validate_plan, MigrationPlan, PlanPhase};
use klotski_core::planner::{AStarPlanner, Planner};
use klotski_core::report::{PhaseAudit, PlanAudit};
use klotski_core::satcheck::Verdicts;
use klotski_core::{
    audit_plan, validate_and_audit_on, ActionTypeId, CompactState, EnsembleSpec, LiveEngine,
    LookaheadVerdict, PlanReplay,
};
use klotski_parallel::WorkerPool;
use klotski_routing::{evaluate_policy, evaluate_with, EcmpRouter, FunnelingModel, LoadMap};
use klotski_topology::presets::{self, PresetId};
use klotski_topology::NetState;
use klotski_traffic::surge::realized_demand;
use klotski_traffic::{DemandClass, DemandMatrix, SurgeEvent};
use proptest::prelude::*;
use std::sync::{Arc, LazyLock};

/// The fold `plan_still_safe` replaced, verbatim: a fresh router, CSR and
/// load map per state.
fn from_scratch_fold(
    spec: &MigrationSpec,
    state: &NetState,
    progress: &CompactState,
    pending: &[PlanPhase],
    realized: &DemandMatrix,
) -> bool {
    let mut s = state.clone();
    let mut v = progress.clone();
    for phase in pending {
        for _ in &phase.blocks {
            spec.apply_next(&mut s, &v, phase.kind);
            v = v.advanced(phase.kind);
            let out = evaluate_policy(&spec.topology, &s, realized, spec.theta, spec.split);
            if !out.satisfied() {
                return false;
            }
        }
    }
    true
}

/// One migration with two block orders to replay: the planner's (safe
/// under the planning matrix) and every drain before any undrain (walks
/// through overloaded and, for the in-place swaps, disconnected states) —
/// and the ESC cache the planner's search left.
struct World {
    spec: MigrationSpec,
    planned: Vec<PlanPhase>,
    drains_first: Vec<PlanPhase>,
    verdicts: Verdicts,
}

fn world(id: PresetId) -> World {
    let spec =
        MigrationBuilder::for_preset(&presets::build_for_bench(id), &MigrationOptions::default())
            .unwrap();
    let (outcome, verdicts) = AStarPlanner::default().plan_seeded(&spec, None).unwrap();
    let planned = outcome.plan.phases();
    let mut kinds: Vec<ActionTypeId> = spec.actions.ids().collect();
    kinds.sort_by_key(|&a| !spec.kind_is_drain(a));
    let drains_first = kinds
        .into_iter()
        .map(|kind| PlanPhase {
            kind,
            blocks: spec.blocks_by_type[kind.index()].clone(),
        })
        .collect();
    World {
        spec,
        planned,
        drains_first,
        verdicts,
    }
}

/// Presets A and B route ECMP; the DMAG migration routes WCMP.
static WORLDS: LazyLock<Vec<World>> = LazyLock::new(|| {
    [PresetId::A, PresetId::B, PresetId::EDmag]
        .into_iter()
        .map(world)
        .collect()
});

/// `(progress, state, pending)` after the first `done` blocks of `phases`;
/// like the controller's canary batches, the cut may fall inside a phase.
fn after(
    spec: &MigrationSpec,
    phases: &[PlanPhase],
    done: usize,
) -> (CompactState, NetState, Vec<PlanPhase>) {
    let mut v = CompactState::origin(spec.num_types());
    let mut state = spec.initial.clone();
    let mut pending = Vec::new();
    let mut left = done;
    for phase in phases {
        let take = left.min(phase.blocks.len());
        for _ in 0..take {
            spec.apply_next(&mut state, &v, phase.kind);
            v = v.advanced(phase.kind);
        }
        left -= take;
        if take < phase.blocks.len() {
            pending.push(PlanPhase {
                kind: phase.kind,
                blocks: phase.blocks[take..].to_vec(),
            });
        }
    }
    (v, state, pending)
}

/// A lookahead as the controller drives it: the replay of one plan
/// generation, the cache it reads and the live engine its sweeps run on.
struct Replay<'a> {
    engine: LiveEngine,
    replay: PlanReplay,
    cache: &'a Verdicts,
}

impl Replay<'_> {
    fn lookahead(
        &mut self,
        spec: &MigrationSpec,
        progress: &CompactState,
        pending: &[PlanPhase],
        realized: &DemandMatrix,
    ) -> LookaheadVerdict {
        (self.replay).lookahead(
            &mut self.engine,
            self.cache,
            spec,
            progress,
            pending,
            realized,
        )
    }

    fn plan_still_safe(
        &mut self,
        spec: &MigrationSpec,
        progress: &CompactState,
        pending: &[PlanPhase],
        realized: &DemandMatrix,
    ) -> bool {
        self.lookahead(spec, progress, pending, realized)
            .trip
            .is_none()
    }
}

/// A replay of plans for `spec` reading `cache`, keyed at `spec`'s origin.
fn new_replay<'a>(spec: &MigrationSpec, cache: &'a Verdicts) -> Replay<'a> {
    Replay {
        engine: LiveEngine::new(spec, Arc::new(WorkerPool::new(1))),
        replay: PlanReplay::new(spec, &CompactState::origin(spec.num_types())),
        cache,
    }
}

/// `matrix` in reverse demand order: the same demands, other endpoints
/// index by index.
fn reversed(matrix: &DemandMatrix) -> DemandMatrix {
    let mut demands: Vec<_> = matrix.iter().cloned().collect();
    demands.reverse();
    demands.into_iter().collect()
}

/// `matrix` with the rate of demand `at` replaced.
fn with_rate(matrix: &DemandMatrix, at: usize, gbps: f64) -> DemandMatrix {
    matrix
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, mut d)| {
            if i == at {
                d.gbps = gbps;
            }
            d
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lookahead_equals_the_from_scratch_fold(
        world in 0usize..3,
        drains_first in proptest::bool::ANY,
        cuts in proptest::collection::vec(0.0f64..1.0, 5),
        growth in 0.75f64..1.3,
        surged in 0usize..8,
        surge_factor in 1.0f64..1.5,
        jitter in proptest::bool::ANY,
        zeroed in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let w = &WORLDS[world];
        let phases = if drains_first { &w.drains_first } else { &w.planned };
        let total: usize = phases.iter().map(|p| p.blocks.len()).sum();
        let surges: Vec<SurgeEvent> = DemandClass::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| surged & (1 << i) != 0)
            .map(|(_, class)| SurgeEvent::on_class(0, 2, surge_factor, class))
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| (c * total as f64) as usize).collect();
        cuts.sort_unstable();
        let mut rng = Rng(seed);
        // A spec that plans one demand at rate 0 while the world carries it:
        // no finite rescaling of its own matrix covers the realized one, but
        // the search's cache measured under the world's base rates, and the
        // ratio is taken against the matrix an entry was measured under.
        let zeroed_spec = zeroed.then(|| {
            let at = rng.below(w.spec.demands.len());
            let mut spec = w.spec.clone();
            spec.demands = with_rate(&spec.demands, at, 0.0);
            spec
        });
        let spec = zeroed_spec.as_ref().unwrap_or(&w.spec);

        // Successive calls on one replay: the suffix shrinks, growth
        // compounds, the surges expire after the second call, and a
        // jittered world moves every rate by its own factor at every call.
        let empty = Verdicts::default();
        let mut replays = [new_replay(spec, &empty), new_replay(spec, &w.verdicts)];
        for (step, &done) in cuts.iter().enumerate() {
            let (progress, state, pending) = after(spec, phases, done);
            let mut realized =
                realized_demand(&w.spec.demands, growth.powi(step as i32 + 1), &surges, step);
            if jitter {
                realized = jittered(&realized, 1.0, 0.5, &mut rng);
            }
            let expected = from_scratch_fold(spec, &state, &progress, &pending, &realized);
            for (cached, replay) in replays.iter_mut().enumerate() {
                prop_assert_eq!(
                    replay.plan_still_safe(spec, &progress, &pending, &realized),
                    expected,
                    "world {} drains_first {} jitter {} zeroed {} cached {} call {} from block {}/{}",
                    world, drains_first, jitter, zeroed, cached, step, done, total
                );
            }
        }
    }
}

/// The inequality the lookahead's cache reads rest on, measured: a state's max
/// utilization under any rescaled matrix is at most `k` times its max
/// utilization under the planning matrix. The derivation beside
/// `HEADROOM_SLACK` allows the floating-point sweep a relative 3·10⁻¹⁰ over
/// that; the real error stays under 10⁻¹², three orders inside the 10⁻⁹
/// margin the lookahead keeps.
#[test]
fn headroom_bound_dominates_the_sweep() {
    let mut rng = Rng(19);
    for (wi, w) in WORLDS.iter().enumerate() {
        let (topo, planned) = (&w.spec.topology, &w.spec.demands);
        for phases in [&w.planned, &w.drains_first] {
            for (si, state) in chain(&w.spec, phases).iter().enumerate() {
                let u = evaluate_policy(topo, state, planned, w.spec.theta, w.spec.split)
                    .report
                    .max_utilization;
                let class = DemandClass::ALL[rng.below(3)];
                let surge = [SurgeEvent::on_class(0, 1, 1.37, class)];
                for (what, rescaled) in [
                    ("grown", planned.scaled(1.0 + (si % 7) as f64 / 9.0)),
                    ("shrunk", planned.scaled(1.0 / 3.0)),
                    ("surged", realized_demand(planned, 1.01, &surge, 0)),
                    ("jittered", jittered(planned, 1.0, 0.5, &mut rng)),
                ] {
                    let k = ratio(planned, &rescaled);
                    let swept = evaluate_policy(topo, state, &rescaled, w.spec.theta, w.spec.split)
                        .report
                        .max_utilization;
                    assert!(
                        swept <= k * u * (1.0 + 1e-12),
                        "world {wi} state {si} {what}: swept {swept:e} > k {k:e} * u {u:e}"
                    );
                }
            }
        }
    }
}

/// A state whose bound lands within the margin of θ is neither cleared nor
/// rejected on the estimate: it is swept, and the verdict is the fold's on
/// both sides of θ. The search's cache measured every planned state, so a
/// sweep counted here is the bound declining.
#[test]
fn a_state_inside_the_margin_is_swept_not_guessed() {
    for w in WORLDS.iter() {
        let spec = &w.spec;
        let (progress, state, pending) = after(spec, &w.planned, 0);
        let tightest = chain(spec, &w.planned)
            .iter()
            .map(|s| {
                evaluate_policy(&spec.topology, s, &spec.demands, spec.theta, spec.split)
                    .report
                    .max_utilization
            })
            .fold(0.0, f64::max);
        let mut replay = new_replay(spec, &w.verdicts);
        for (side, expected) in [(1.0 - 1e-12, true), (1.0 + 1e-12, false)] {
            let realized = spec.demands.scaled(spec.theta * side / tightest);
            let verdict = replay.lookahead(spec, &progress, &pending, &realized);
            assert!(verdict.swept >= 1, "{side}: {verdict:?}");
            assert_eq!(verdict.trip.is_none(), expected, "{side}: {verdict:?}");
            assert_eq!(
                from_scratch_fold(spec, &state, &progress, &pending, &realized),
                expected,
                "{side}"
            );
        }
    }
}

#[test]
fn lookahead_rejects_an_overloaded_and_an_unreachable_suffix() {
    let w = &WORLDS[0];
    let (progress, state, planned) = after(&w.spec, &w.planned, 0);
    let mut replay = new_replay(&w.spec, &w.verdicts);
    // The planner's order is safe under the planning matrix …
    assert!(replay.plan_still_safe(&w.spec, &progress, &planned, &w.spec.demands));
    // … over θ once demand doubles …
    let doubled = w.spec.demands.scaled(2.0);
    assert!(!from_scratch_fold(
        &w.spec, &state, &progress, &planned, &doubled
    ));
    assert!(!replay.plan_still_safe(&w.spec, &progress, &planned, &doubled));
    // … and draining every v1 grid first cuts demands off outright, which
    // no amount of headroom forgives (the cache measured no `u` for a
    // disconnected state: it is swept).
    let trickle = w.spec.demands.scaled(1e-6);
    let mut s = state.clone();
    let mut v = progress.clone();
    for _ in &w.drains_first[0].blocks {
        w.spec.apply_next(&mut s, &v, w.drains_first[0].kind);
        v = v.advanced(w.drains_first[0].kind);
    }
    let cut_off = evaluate_policy(&w.spec.topology, &s, &trickle, w.spec.theta, w.spec.split);
    assert!(!cut_off.all_reachable && cut_off.report.violations == 0);
    assert!(!replay.plan_still_safe(&w.spec, &progress, &w.drains_first, &trickle));
    // The same replay still answers the safe question correctly afterwards.
    assert!(replay.plan_still_safe(&w.spec, &progress, &planned, &w.spec.demands));
}

#[test]
#[should_panic(expected = "share the base demand endpoints")]
fn lookahead_refuses_a_matrix_with_other_endpoints() {
    let w = &WORLDS[0];
    let (progress, _, planned) = after(&w.spec, &w.planned, 0);
    let empty = Verdicts::default();
    let reordered = reversed(&w.spec.demands);
    new_replay(&w.spec, &empty).plan_still_safe(&w.spec, &progress, &planned, &reordered);
}

/// The refusal comes from the lookahead's own endpoint check, not from the
/// engine's rate table: at half the planned rates the search's cache clears
/// every state by the headroom bound and the engine is never handed the
/// matrix.
#[test]
#[should_panic(expected = "share the base demand endpoints")]
fn lookahead_refuses_a_reordered_matrix_the_bound_would_clear() {
    let w = &WORLDS[0];
    let (progress, _, planned) = after(&w.spec, &w.planned, 0);
    let mut replay = new_replay(&w.spec, &w.verdicts);
    let halved = w.spec.demands.scaled(0.5);
    let states: usize = planned.iter().map(|p| p.blocks.len()).sum();
    // The cache alone answers, call after call.
    for _ in 0..2 {
        let verdict = replay.lookahead(&w.spec, &progress, &planned, &halved);
        assert_eq!(
            (verdict.trip, verdict.swept, verdict.bound),
            (None, 0, states)
        );
    }
    replay.plan_still_safe(&w.spec, &progress, &planned, &reversed(&halved));
}

/// A cache whose matrices have other endpoints than the spec's measured
/// nothing its rates can be compared with: handed the cache of a search of
/// the same migration with its demands in reverse order — which holds a
/// measurement for every planned state — the lookahead sweeps every state
/// and answers exactly as with an empty cache.
#[test]
fn a_cache_that_does_not_pair_is_ignored() {
    for w in WORLDS.iter() {
        let spec = &w.spec;
        let mut reordered = spec.clone();
        reordered.demands = reversed(&spec.demands);
        let (_, foreign) = AStarPlanner::default()
            .plan_seeded(&reordered, None)
            .unwrap();
        let (progress, _, planned) = after(spec, &w.planned, 0);
        let mut v = progress.clone();
        let mut state = spec.initial.clone();
        for phase in &planned {
            for _ in &phase.blocks {
                spec.apply_next(&mut state, &v, phase.kind);
                v = v.advanced(phase.kind);
                let measured = foreign.measured(spec, &progress, &v, &state, Some(phase.kind));
                assert!(measured.is_some(), "unmeasured: {:?}", v.counts());
            }
        }
        let empty = Verdicts::default();
        let (mut ignored, mut cold) = (new_replay(spec, &foreign), new_replay(spec, &empty));
        for growth in [0.5, 2.0] {
            let realized = spec.demands.scaled(growth);
            let verdict = ignored.lookahead(spec, &progress, &planned, &realized);
            assert_eq!(verdict.bound, 0, "x{growth}: {verdict:?}");
            assert_eq!(
                verdict,
                cold.lookahead(spec, &progress, &planned, &realized),
                "x{growth}"
            );
        }
    }
}

/// `audit_plan` as it stood before the walk: one from-scratch router, every
/// phase-end state routed under the base matrix, nothing else applied.
fn scalar_audit(spec: &MigrationSpec, plan: &MigrationPlan) -> PlanAudit {
    let topo = &spec.topology;
    let mut router = EcmpRouter::with_policy(topo, spec.split);
    let mut loads = LoadMap::new(topo);
    let mut state = spec.initial.clone();
    let mut v = CompactState::origin(spec.num_types());
    let mut phases = Vec::new();
    for (i, phase) in plan.phases().iter().enumerate() {
        let mut switch_ops = 0;
        for &b in &phase.blocks {
            switch_ops += spec.blocks[b.index()].action_weight();
            spec.apply_next(&mut state, &v, phase.kind);
            v = v.advanced(phase.kind);
        }
        let outcome = evaluate_with(
            &mut router,
            &mut loads,
            topo,
            &state,
            &spec.demands,
            spec.theta,
        );
        let worst_circuit = outcome.report.worst_circuit.map(|c| {
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
        phases.push(PhaseAudit {
            index: i + 1,
            action: spec.actions.kind(phase.kind).to_string(),
            blocks: phase.blocks.len(),
            switch_ops,
            max_utilization: outcome.report.max_utilization,
            worst_circuit,
            min_port_slack,
            space_used: spec.space.as_ref().map(|m| m.used(&v)),
        });
    }
    PlanAudit {
        migration: spec.name.clone(),
        theta: spec.theta,
        phases,
    }
}

#[test]
fn fused_and_standalone_audits_are_byte_identical_to_the_scalar_loop() {
    let funneling = MigrationOptions {
        funneling: FunnelingModel {
            headroom_factor: 1.15,
        },
        ..MigrationOptions::default()
    };
    let ensemble = MigrationOptions {
        ensemble: Some(EnsembleSpec::with_k(3, 11)),
        ..MigrationOptions::default()
    };
    for (what, id, opts, incremental) in [
        ("preset A", PresetId::A, MigrationOptions::default(), true),
        (
            "DMAG (WCMP)",
            PresetId::EDmag,
            MigrationOptions::default(),
            true,
        ),
        ("funneling headroom", PresetId::A, funneling, true),
        ("K=3 ensemble", PresetId::A, ensemble, true),
        (
            "incremental off",
            PresetId::A,
            MigrationOptions::default(),
            false,
        ),
    ] {
        let mut spec = MigrationBuilder::for_preset(&presets::build_for_bench(id), &opts).unwrap();
        spec.incremental = incremental;
        let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
        let scalar = scalar_audit(&spec, &plan);
        assert!(!scalar.phases.is_empty(), "{what}");
        let expected = serde_json::to_string(&scalar).unwrap();

        let pool = Arc::new(WorkerPool::new(2));
        let fused = validate_and_audit_on(&spec, &plan, pool).expect(what);
        assert_eq!(
            serde_json::to_string(&fused).unwrap(),
            expected,
            "{what}: fused"
        );
        let standalone = audit_plan(&spec, &plan);
        assert_eq!(
            serde_json::to_string(&standalone).unwrap(),
            expected,
            "{what}: standalone"
        );
    }
}

#[test]
fn the_fused_walk_fails_exactly_where_validation_does() {
    let w = &WORLDS[0];
    let steps: Vec<_> = w
        .drains_first
        .iter()
        .flat_map(|p| {
            p.blocks.iter().map(|&block| klotski_core::plan::PlanStep {
                kind: p.kind,
                block,
            })
        })
        .collect();
    let unsafe_plan = MigrationPlan::new(steps);
    let verdict = validate_plan(&w.spec, &unsafe_plan).unwrap_err();
    let fused = validate_and_audit_on(&w.spec, &unsafe_plan, Arc::new(WorkerPool::new(1)));
    assert_eq!(fused.unwrap_err(), verdict);
    // The audit-only mode judges nothing: the unsafe plan still gets its
    // sheet, identical to the scalar loop's.
    assert_eq!(
        audit_plan(&w.spec, &unsafe_plan),
        scalar_audit(&w.spec, &unsafe_plan)
    );
}
