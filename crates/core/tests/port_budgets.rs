//! Port budgets kept by delta against the recount, on specs where Eq. 6
//! actually binds.
//!
//! No route of the incremental engine recounts every switch's usable
//! circuits: its `LiveEngine` keeps `degree[switch]` and the number of
//! switches over budget beside the state it routed last, moved by ±1 per
//! endpoint of every toggled circuit and recounted only where the engine
//! has no base to diff against. `Topology::has_port_violation` and
//! `NetState::active_degree` are the oracle. No shipped preset ever fails
//! Eq. 6 after routing — the §7.2 space model rejects those states first —
//! so the specs here drop the space model: every v2 grid can be cabled in
//! beside every v1 grid, which the shared switches have no ports for.

use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::planner::{AStarPlanner, Planner};
use klotski_core::{validate_and_audit_on, ActionTypeId, CompactState, EscMode};
use klotski_core::{LiveEngine, PlanReplay, SatChecker};
use klotski_parallel::WorkerPool;
use klotski_topology::presets::{self, PresetId};
use klotski_topology::NetState;
use klotski_traffic::EnsembleSpec;
use proptest::prelude::*;
use std::sync::Arc;

/// An HGRID spec without the space model, `k` matrices.
fn port_bound_spec(id: PresetId, block_scale: f64, k: usize) -> MigrationSpec {
    let opts = MigrationOptions {
        block_scale,
        ensemble: (k > 1).then(|| EnsembleSpec::with_k(k, 11)),
        ..MigrationOptions::default()
    };
    let mut spec = MigrationBuilder::hgrid_v1_to_v2(&presets::build(id), &opts).unwrap();
    assert_eq!(spec.extra_demands.len(), k - 1);
    spec.space = None;
    spec
}

/// The kept degrees and verdict are those of `base`, recounted.
fn assert_recount(spec: &MigrationSpec, (base, degree, over): (&NetState, &[u32], bool)) {
    let topo = &spec.topology;
    assert_eq!(over, topo.has_port_violation(base));
    for s in topo.switches() {
        assert_eq!(
            degree[s.id.index()] as usize,
            base.active_degree(topo, s.id),
            "{}",
            s.id
        );
    }
}

/// One check of `(v, state_for(v))` on a ported checker and its unported
/// twin: the engine's base is that state, its port budgets are the
/// recount's, and ports are all that separates the two verdicts. Returns
/// whether the state breaks Eq. 6.
fn check_against_recount(
    spec: &MigrationSpec,
    unported: &MigrationSpec,
    checkers: &mut (SatChecker, SatChecker),
    v: &CompactState,
) -> bool {
    let state = spec.state_for(v);
    let ported = checkers.0.check(spec, v, &state, None);
    let budgets = checkers.0.port_budgets().expect("incremental checker");
    assert_eq!(budgets.0, &state, "the state checked last is the base");
    assert_recount(spec, budgets);
    let demand_ok = checkers.1.check(unported, v, &state, None);
    let over = spec.topology.has_port_violation(&state);
    assert_eq!(ported, demand_ok && !over, "verdict at {v}");
    over
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random one-block steps (either direction), cousin jumps and returns
    /// to visited states over preset A's box, at 1 and 2 lanes, K = 1 and 3.
    #[test]
    fn prop_delta_port_budgets_equal_the_recount(
        moves in proptest::collection::vec(0usize..4000, 24..40),
        lanes in 1usize..3,
        ensemble_on in proptest::bool::ANY,
    ) {
        let spec = port_bound_spec(PresetId::A, 2.0, if ensemble_on { 3 } else { 1 });
        let mut unported = spec.clone();
        unported.check_ports = false;
        let mut checkers = (
            SatChecker::with_threads(&spec, EscMode::Off, lanes),
            SatChecker::with_threads(&unported, EscMode::Off, lanes),
        );
        let target = spec.target_counts.counts().to_vec();
        let mut v = CompactState::origin(spec.num_types());
        let mut visited = vec![v.clone()];
        let (mut over, mut within) = (0, 0);
        // Both ends of the port story are on every walk: the origin, and
        // every v2 grid up beside every v1 grid.
        let crowded = CompactState::from_counts(vec![0, target[1]]);
        for forced in [v.clone(), crowded.clone(), v.clone()] {
            if check_against_recount(&spec, &unported, &mut checkers, &forced) {
                over += 1;
            } else {
                within += 1;
            }
        }
        for (kind, pick) in moves.into_iter().map(|m| (m % 4, m / 4)) {
            v = match kind {
                // One block forward (0) or back (1), turning at the walls.
                0 | 1 => {
                    let a = ActionTypeId((pick % 2) as u8);
                    let room = v.count(a) < target[a.index()];
                    match v.receded(a) {
                        Some(back) if kind == 1 || !room => back,
                        _ => v.advanced(a),
                    }
                }
                // A cousin: any state of the box.
                2 => CompactState::from_counts(vec![
                    (pick % (target[0] as usize + 1)) as u16,
                    (pick / 7 % (target[1] as usize + 1)) as u16,
                ]),
                // Back to a state the walk has been to.
                _ => visited[pick % visited.len()].clone(),
            };
            visited.push(v.clone());
            if check_against_recount(&spec, &unported, &mut checkers, &v) {
                over += 1;
            } else {
                within += 1;
            }
        }
        prop_assert!(over >= 1 && within >= 2, "{} over, {} within", over, within);
        // Every check routed: cache off, no space model.
        let checks = visited.len() as u64 + 2;
        prop_assert_eq!(checkers.0.stats().full_evaluations, checks);
    }
}

/// A jump across 72 blocks is one delta like any other: the word diff of
/// the two states names every toggled circuit however many blocks lie
/// between them, and the degrees moved by it equal the recount. Only the
/// first check, with no base, recounts.
#[test]
fn a_72_block_jump_is_one_delta() {
    for k in [1, 3] {
        let spec = port_bound_spec(PresetId::C, 4.0, k);
        assert_eq!(spec.target_counts.counts(), &[24, 48]);
        let mut unported = spec.clone();
        unported.check_ports = false;
        let mut checkers = (
            SatChecker::with_threads(&spec, EscMode::Off, 2),
            SatChecker::with_threads(&unported, EscMode::Off, 2),
        );
        let walk = [
            vec![24, 0],  // first check: no base yet, recount
            vec![0, 48],  // 72 blocks away: one delta
            vec![1, 48],  // one block: delta
            vec![1, 47],  // and back down
            vec![24, 48], // 24 blocks: delta
            vec![0, 0],   // 72 blocks again
            vec![0, 1],
        ];
        let over: Vec<bool> = walk
            .into_iter()
            .map(|counts| {
                let v = CompactState::from_counts(counts);
                check_against_recount(&spec, &unported, &mut checkers, &v)
            })
            .collect();
        assert!(over[1] && !over[4] && !over[5], "{over:?}");
    }
}

/// The validating walk and a run's live engine both keep their budgets by
/// delta — by the same word diff of consecutive states — and both agree
/// with the recount where ports bind: after every check, every lookahead
/// call (reading the search's cache, sweeping what it cannot clear) and
/// every audit. A released engine has no base; its next route recounts.
#[test]
fn validating_walk_and_live_engine_agree_with_the_recount() {
    let spec = port_bound_spec(PresetId::A, 2.0, 1);
    let (outcome, verdicts) = AStarPlanner::default().plan_seeded(&spec, None).unwrap();
    let plan = outcome.plan;
    let pool = Arc::new(WorkerPool::new(1));
    // The real walk (debug builds assert the recount on every check)...
    validate_and_audit_on(&spec, &plan, Arc::clone(&pool)).unwrap();
    // ...and its checks, step by step: fresh checker, cache off.
    let mut checker = SatChecker::with_pool(&spec, EscMode::Off, Arc::clone(&pool));
    let mut state = spec.initial.clone();
    let mut v = CompactState::origin(spec.num_types());
    for step in plan.steps() {
        spec.apply_next(&mut state, &v, step.kind);
        v = v.advanced(step.kind);
        assert!(checker.check(&spec, &v, &state, Some(step.kind)));
        let budgets = checker.port_budgets().unwrap();
        assert_eq!(budgets.0, &state);
        assert_recount(&spec, budgets);
    }

    // Every v2 grid cabled in beside every v1 grid: no ports for that.
    let crowded = spec.state_for(&CompactState::from_counts(vec![
        0,
        spec.target_counts.counts()[1],
    ]));
    assert!(spec.topology.has_port_violation(&crowded));
    let origin = CompactState::origin(spec.num_types());
    let mut engine = LiveEngine::new(&spec, pool);
    let replay = PlanReplay::new(&spec, &origin);
    let phases = plan.phases();
    // Sweeps under a realized matrix the cache cannot clear everywhere, the
    // cache alone at the planned rates, sweeps under another.
    for (growth, swept) in [(1.6, true), (1.0, false), (1.7, true)] {
        let realized = spec.demands.scaled(growth);
        let verdict = replay.lookahead(&mut engine, &verdicts, &spec, &origin, &phases, &realized);
        assert_eq!(verdict.swept > 0, swept, "x{growth}: {verdict:?}");
        assert_recount(&spec, engine.port_budgets().unwrap());
        // An audit on the engine the lookahead just moved along the plan.
        for (audited, over) in [(&crowded, true), (&state, false)] {
            let audit = engine.audit_live(&spec, audited, &realized);
            assert_eq!(audit.port_violation, over, "x{growth}");
            let budgets = engine.port_budgets().unwrap();
            assert_eq!(budgets.0, audited);
            assert_recount(&spec, budgets);
        }
    }

    // Released after an audit of `state`: the degrees kept for it go with
    // the engine, and the first route of the rebuilt one recounts.
    engine.release();
    assert!(engine.port_budgets().is_none());
    engine.load(&spec, &spec.demands);
    engine.route(&spec, &crowded);
    let budgets = engine.port_budgets().unwrap();
    assert_eq!(budgets.0, &crowded);
    assert!(budgets.2);
    assert_recount(&spec, budgets);
}
