//! Differential property tests for delta-aware incremental satisfiability:
//! random block-application walks where every child is checked through the
//! incremental engine, one `check` after the other — sibling to sibling, then
//! a cousin jump to the next parent's children, the deltas pop-time checking
//! produces — and re-checked by the kit's from-scratch `Reference`. Verdicts
//! AND per-circuit loads must be bit-identical — the incremental path is a
//! pure evaluation-speed optimization, never a semantics knob — across
//! thread counts, ESC cache modes, funneling settings, and with or without
//! a traffic ensemble.

mod common;

use common::{assert_same_loads, successors, Reference, Rng};
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::satcheck::{EscMode, SatChecker};
use klotski_core::{CompactState, EnsembleSpec};
use klotski_routing::FunnelingModel;
use klotski_topology::presets::{self, PresetId};
use proptest::prelude::*;

fn spec(id: PresetId, funneling: f64, ensemble: Option<EnsembleSpec>) -> MigrationSpec {
    let opts = MigrationOptions {
        funneling: FunnelingModel {
            headroom_factor: funneling,
        },
        ensemble,
        ..MigrationOptions::default()
    };
    MigrationBuilder::for_preset(&presets::build(id), &opts).unwrap()
}

/// One random walk: at each step expand every successor of the current
/// state, check them in generation order (the engine diffs each against
/// whatever it routed last), compare each verdict against the reference,
/// spot-check one candidate's per-circuit loads bit for bit, then advance
/// along a random feasible edge.
fn differential_walk(spec: &MigrationSpec, threads: usize, mode: EscMode, seed: u64, steps: usize) {
    let mut incr = SatChecker::with_threads(spec, mode, threads);
    let mut reference = Reference::new(spec);
    let mut v = CompactState::origin(spec.num_types());
    let mut state = spec.initial.clone();
    let mut rng = Rng(seed);
    for step in 0..steps {
        let mut cand = successors(spec, &v, &state);
        if cand.is_empty() {
            break;
        }
        let got: Vec<bool> = (cand.iter())
            .map(|(a, nv, ns)| incr.check(spec, nv, ns, Some(*a)))
            .collect();
        let expected: Vec<bool> = (cand.iter())
            .map(|(a, nv, ns)| reference.check(spec, nv, ns, Some(*a)))
            .collect();
        let ctx = format!("step {step} ({mode:?} x{threads})");
        assert_eq!(got, expected, "verdicts diverged at {ctx}");

        // Spot-check one candidate's loads. A single re-check may be served
        // by the ESC cache (then the checker's load buffer is stale and not
        // comparable), so only compare when an evaluation actually ran and
        // finished routing (verdict true): both leave the base matrix as
        // judged, headroom applied, whatever the ensemble swept after it.
        let (pa, pv, ps) = &cand[rng.below(cand.len())];
        let before = incr.stats().full_evaluations;
        let ok = incr.check(spec, pv, ps, Some(*pa));
        assert_eq!(
            ok,
            reference.check(spec, pv, ps, Some(*pa)),
            "spot-check at {ctx}"
        );
        if ok && incr.stats().full_evaluations > before {
            assert_same_loads(
                &spec.topology,
                incr.last_loads(),
                reference.last_loads(),
                &ctx,
            );
        }

        let feasible: Vec<usize> = (0..cand.len()).filter(|&i| got[i]).collect();
        if feasible.is_empty() {
            break;
        }
        (_, v, state) = cand.swap_remove(feasible[rng.below(feasible.len())]);
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
        differential_walk(&spec(PresetId::A, funneling, ensemble), threads, mode, seed, 10);
    }
}

/// The whole ensemble grid, deterministically: K ∈ {3, 8} matrices at every
/// lane count, ESC off so every check routes.
#[test]
fn ensemble_walk_matches_full_across_k_and_threads() {
    for k in [3usize, 8] {
        let ensemble = Some(EnsembleSpec::with_k(k, 7));
        let spec = spec(PresetId::A, 1.0, ensemble);
        assert_eq!(spec.extra_demands.len(), k - 1);
        for threads in [1usize, 2, 4, 8] {
            differential_walk(&spec, threads, EscMode::Off, 0xE5E ^ k as u64, 10);
        }
    }
}

/// Preset C (full Table 3 scale, ~8k circuits): one deterministic walk per
/// thread count, ESC off so every check exercises the routing path.
#[test]
fn incremental_walk_matches_full_on_preset_c() {
    let spec = spec(PresetId::C, 1.0, None);
    for threads in [1usize, 2, 4, 8] {
        differential_walk(&spec, threads, EscMode::Off, 0xC0FFEE, 4);
    }
}
