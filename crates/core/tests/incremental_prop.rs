//! Differential property tests for delta-aware incremental satisfiability:
//! random block-application walks where every child is checked through the
//! incremental engine, one `check` after the other — sibling to sibling, then
//! a cousin jump to the next parent's children, the deltas pop-time checking
//! produces — and re-checked by a from-scratch single-threaded reference. Verdicts AND
//! per-circuit loads must be bit-identical — the incremental path is a pure
//! evaluation-speed optimization, never a semantics knob — across thread
//! counts, ESC cache modes, funneling settings, and with or without a
//! traffic ensemble.

use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::satcheck::{EscMode, SatChecker};
use klotski_core::{ActionTypeId, CompactState, EnsembleSpec};
use klotski_routing::FunnelingModel;
use klotski_topology::presets::{self, PresetId};
use klotski_topology::{CircuitId, NetState};
use proptest::prelude::*;

/// Builds the instance twice: once with incremental evaluation on (the
/// default) and once forced to from-scratch routing.
fn spec_pair(
    id: PresetId,
    funneling: f64,
    ensemble: Option<EnsembleSpec>,
) -> (MigrationSpec, MigrationSpec) {
    let opts = MigrationOptions {
        funneling: FunnelingModel {
            headroom_factor: funneling,
        },
        ensemble,
        ..MigrationOptions::default()
    };
    let spec = MigrationBuilder::for_preset(&presets::build(id), &opts).unwrap();
    assert!(spec.incremental, "incremental is the default");
    let mut full = spec.clone();
    full.incremental = false;
    (spec, full)
}

/// Splitmix-style step of the walk's deterministic RNG.
fn next_rand(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    *x
}

/// One random walk: at each step expand every applicable successor of the
/// current state, check them in generation order (the engine diffs each
/// against whatever it routed last), compare each verdict against the
/// reference, spot-check one
/// candidate's per-circuit loads bit-for-bit, then advance along a random
/// feasible edge.
fn differential_walk(
    spec: &MigrationSpec,
    spec_full: &MigrationSpec,
    threads: usize,
    mode: EscMode,
    seed: u64,
    steps: usize,
) {
    let target = spec.target_counts.clone();
    let mut incr = SatChecker::with_threads(spec, mode, threads);
    let mut full = SatChecker::with_threads(spec_full, EscMode::Off, 1);
    assert!(incr.is_incremental() && !full.is_incremental());
    // The base matrix alone, from scratch: what both ensemble checkers leave
    // on their load buffer after a passing check.
    let base_spec = MigrationSpec {
        extra_demands: Vec::new(),
        ensemble_labels: Vec::new(),
        ensemble: None,
        ..spec_full.clone()
    };
    let mut base = SatChecker::with_threads(&base_spec, EscMode::Off, 1);
    let mut v = CompactState::origin(spec.num_types());
    let mut state = spec.initial.clone();
    let mut x = seed | 1;
    for step in 0..steps {
        let mut cand: Vec<(ActionTypeId, CompactState, NetState)> = Vec::new();
        for a in spec.actions.ids() {
            if v.count(a) >= target.count(a) {
                continue;
            }
            let mut ns = state.clone();
            spec.apply_next(&mut ns, &v, a);
            cand.push((a, v.advanced(a), ns));
        }
        if cand.is_empty() {
            break;
        }

        let got: Vec<bool> = cand
            .iter()
            .map(|(a, nv, ns)| incr.check(spec, nv, ns, Some(*a)))
            .collect();
        let expected: Vec<bool> = cand
            .iter()
            .map(|(a, nv, ns)| full.check(spec_full, nv, ns, Some(*a)))
            .collect();
        assert_eq!(
            got, expected,
            "verdicts diverged at step {step} ({mode:?} x{threads})"
        );

        // Spot-check one candidate's loads. A single re-check may be served
        // by the ESC cache (then the checker's load buffer is stale and not
        // comparable), so only compare when an evaluation actually ran and
        // finished routing (verdict true).
        let pick = (next_rand(&mut x) % cand.len() as u64) as usize;
        let (pa, pv, ps) = &cand[pick];
        let before = incr.stats().full_evaluations;
        let ok = incr.check(spec, pv, ps, Some(*pa));
        let evaluated = incr.stats().full_evaluations > before;
        let ok_full = full.check(spec_full, pv, ps, Some(*pa));
        assert_eq!(ok, ok_full, "spot-check verdict at step {step}");
        if ok && evaluated {
            // Both checkers leave the base matrix as judged, headroom
            // applied, whatever the ensemble swept after it.
            assert!(base.check(&base_spec, pv, ps, Some(*pa)));
            let want = base.last_loads();
            for (judged, who) in [
                (incr.last_loads(), "incremental"),
                (full.last_loads(), "full"),
            ] {
                for i in 0..spec.topology.num_circuits() {
                    let c = CircuitId::from_index(i);
                    assert_eq!(
                        judged.forward(c).to_bits(),
                        want.forward(c).to_bits(),
                        "{who}: forward load of {c} at step {step} ({mode:?} x{threads})"
                    );
                    assert_eq!(
                        judged.reverse(c).to_bits(),
                        want.reverse(c).to_bits(),
                        "{who}: reverse load of {c} at step {step} ({mode:?} x{threads})"
                    );
                }
            }
        }

        let feasible: Vec<usize> = (0..cand.len()).filter(|&i| got[i]).collect();
        if feasible.is_empty() {
            break;
        }
        let step_pick = feasible[(next_rand(&mut x) % feasible.len() as u64) as usize];
        let (_, nv, ns) = cand.swap_remove(step_pick);
        v = nv;
        state = ns;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Preset A: random walks across thread counts, all three cache modes,
    /// funneling on/off, and single-matrix vs a K=3 or K=8 ensemble (whose
    /// loads after a passing check are the base matrix's, as judged).
    #[test]
    fn prop_incremental_walk_matches_full_on_preset_a(
        seed in 0u64..1_000_000,
        funneling_on in proptest::bool::ANY,
        ensemble_idx in 0usize..3,
        threads_idx in 0usize..4,
        mode_idx in 0usize..3,
    ) {
        let funneling = if funneling_on { 1.3 } else { 1.0 };
        let ensemble = [None, Some(3), Some(8)][ensemble_idx].map(|k| EnsembleSpec::with_k(k, seed));
        let threads = [1usize, 2, 4, 8][threads_idx];
        let mode = [EscMode::Compact, EscMode::FullTopology, EscMode::Off][mode_idx];
        let (spec, spec_full) = spec_pair(PresetId::A, funneling, ensemble);
        differential_walk(&spec, &spec_full, threads, mode, seed, 10);
    }
}

/// The whole ensemble grid, deterministically: K ∈ {3, 8} matrices at every
/// lane count, ESC off so every check routes.
#[test]
fn ensemble_walk_matches_full_across_k_and_threads() {
    for k in [3usize, 8] {
        let ensemble = Some(EnsembleSpec::with_k(k, 7));
        let (spec, spec_full) = spec_pair(PresetId::A, 1.0, ensemble);
        assert_eq!(spec.extra_demands.len(), k - 1);
        for threads in [1usize, 2, 4, 8] {
            differential_walk(
                &spec,
                &spec_full,
                threads,
                EscMode::Off,
                0xE5E ^ k as u64,
                10,
            );
        }
    }
}

/// Preset C (full Table 3 scale, ~8k circuits): one deterministic walk per
/// thread count, ESC off so every check exercises the routing path.
#[test]
fn incremental_walk_matches_full_on_preset_c() {
    let (spec, spec_full) = spec_pair(PresetId::C, 1.0, None);
    for threads in [1usize, 2, 4, 8] {
        differential_walk(&spec, &spec_full, threads, EscMode::Off, 0xC0FFEE, 4);
    }
}
