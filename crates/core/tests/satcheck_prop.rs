//! Property tests for the satisfiability checker, held to the kit's
//! from-scratch `Reference`. For any migration progress point, any cache
//! mode, any thread count, with deltas or without, a walk of `check` — first
//! pass and repeat pass — returns the reference's verdicts: parallelism is
//! an implementation detail, never a semantics knob. The ensemble fold: its
//! verdict and first failing matrix are those of sweeping every member
//! exactly, and the headroom bound that clears members without routing
//! never clears one that fails.

mod common;

use common::{ratio, sample_states, Reference};
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::planner::{AStarPlanner, Planner};
use klotski_core::satcheck::{EscMode, SatChecker};
use klotski_core::{ActionTypeId, CompactState, EnsembleSpec};
use klotski_routing::{evaluate::summarize, FunnelingModel, SplitPolicy};
use klotski_topology::presets::{self, PresetId};
use klotski_topology::NetState;
use klotski_traffic::{DemandMatrix, TrafficEnsemble};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Verdicts are invariant across thread counts and cache modes, on a
    /// first walk of the items and on a repeat walk of the same checker.
    #[test]
    fn prop_verdicts_survive_thread_count(
        seed in 0u64..1_000_000,
        theta in 0.55f64..0.95,
        funneling in 1.0f64..1.6,
    ) {
        let opts = MigrationOptions {
            theta,
            funneling: klotski_routing::FunnelingModel {
                headroom_factor: funneling,
            },
            ..MigrationOptions::default()
        };
        let spec = MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts)
            .unwrap();
        // The same instance routed without deltas: verdicts must be
        // identical whichever configuration answers.
        let mut spec_full = spec.clone();
        spec_full.incremental = false;
        let states = sample_states(&spec, seed);
        let items: Vec<(&CompactState, &NetState, Option<ActionTypeId>)> = states
            .iter()
            .enumerate()
            .map(|(i, (v, s))| {
                let last = (i % 2 == 0).then_some(ActionTypeId((i % 2) as u8));
                (v, s, last)
            })
            .collect();
        let mut reference = Reference::new(&spec);
        let expected: Vec<bool> = items
            .iter()
            .map(|&(v, s, l)| reference.check(&spec, v, s, l))
            .collect();

        for threads in [1usize, 2, 4] {
            for mode in [EscMode::Compact, EscMode::FullTopology, EscMode::Off] {
                for sp in [&spec, &spec_full] {
                    // Items are several blocks apart: every check is a
                    // jump. The repeat pass is answered by the cache, or
                    // re-routed from the last item's base with it off.
                    let mut checker = SatChecker::with_threads(sp, mode, threads);
                    for pass in 0..2 {
                        let got: Vec<bool> = items
                            .iter()
                            .map(|&(v, s, l)| checker.check(sp, v, s, l))
                            .collect();
                        prop_assert_eq!(
                            &got, &expected,
                            "pass {} {:?} x{} incremental={}", pass, mode, threads, sp.incremental
                        );
                    }
                }
            }
        }
    }
}

/// The kit's sample states the space model admits — one it rejects is routed
/// under no matrix — each with the action type it is checked after: one
/// whose block the state has consumed (alternately the first and the last
/// such type), so a drain brings in the funneling headroom; `None` at the
/// origin.
fn checked_states(
    spec: &MigrationSpec,
    seed: u64,
) -> Vec<(CompactState, NetState, Option<ActionTypeId>)> {
    sample_states(spec, seed)
        .into_iter()
        .filter(|(v, _)| spec.space.as_ref().is_none_or(|m| m.fits(v)))
        .enumerate()
        .map(|(i, (v, s))| {
            let mut done = spec.actions.ids().filter(|&a| v.count(a) > 0);
            let last = if i % 2 == 0 { done.next() } else { done.last() };
            (v, s, last)
        })
        .collect()
}

/// Member evaluations a batch of checks cleared by the headroom bound, and
/// those it swept exactly.
#[derive(Debug, Default, Clone, Copy)]
struct MemberWork {
    cleared: u64,
    swept: u64,
}

/// Differential core of the AND-fold property: on `spec`, the ensemble
/// verdict and its first failing matrix must be the reference's, which
/// sweeps every member exactly — at every thread count, with and without
/// deltas. Every member a check reports cleared by the bound (judged, not
/// swept) must pass before the reference's first failure.
fn assert_and_fold(spec: &MigrationSpec, seed: u64) -> MemberWork {
    let mut spec_full = spec.clone();
    spec_full.incremental = false;
    let items = checked_states(spec, seed);
    let mut reference = Reference::new(spec);
    let folds: Vec<(bool, Option<usize>)> = (items.iter())
        .map(|(v, s, last)| {
            (
                reference.check(spec, v, s, *last),
                reference.last_fail_matrix(),
            )
        })
        .collect();

    let mut work = MemberWork::default();
    for threads in [1usize, 4] {
        for sp in [spec, &spec_full] {
            let what = format!("{} x{threads} incremental={}", sp.name, sp.incremental);
            let mut checker = SatChecker::with_threads(sp, EscMode::Off, threads);
            for ((v, s, last), &(pass, fail)) in items.iter().zip(&folds) {
                let before: Vec<(u64, u64)> = (checker.ensemble_breakdown().matrices.iter())
                    .map(|m| (m.checks, m.swept))
                    .collect();
                assert_eq!(
                    checker.check(sp, v, s, *last),
                    pass,
                    "verdict on {what} at {v}"
                );
                assert_eq!(
                    checker.last_fail_matrix(),
                    fail,
                    "first failure on {what} at {v}"
                );
                let rows = &checker.ensemble_breakdown().matrices;
                for (m, (row, &(checks, swept))) in rows.iter().zip(&before).enumerate().skip(1) {
                    if row.checks == checks {
                        continue;
                    }
                    if row.swept > swept {
                        work.swept += 1;
                    } else {
                        work.cleared += 1;
                        assert!(
                            fail.is_none_or(|f| m < f),
                            "matrix {m} cleared, fails on {what}"
                        );
                    }
                }
            }
        }
    }
    work
}

/// The instance the ensemble properties run on.
fn ensemble_spec(
    preset: PresetId,
    k: usize,
    seed: u64,
    theta: f64,
    split: SplitPolicy,
    funneling: bool,
) -> MigrationSpec {
    let opts = MigrationOptions {
        theta,
        split: Some(split),
        funneling: FunnelingModel {
            headroom_factor: if funneling { 1.3 } else { 1.0 },
        },
        ensemble: Some(EnsembleSpec::with_k(k, seed)),
        ..MigrationOptions::default()
    };
    MigrationBuilder::hgrid_v1_to_v2(&presets::build(preset), &opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A K=1 ensemble is the base matrix alone: verdicts *and* per-circuit
    /// loads are bitwise-identical to the plain single-matrix checker, at
    /// every thread count, with and without incremental routing.
    #[test]
    fn prop_k1_ensemble_is_bitwise_identical_to_single_matrix(
        seed in 0u64..1_000_000,
        theta in 0.55f64..0.95,
    ) {
        let plain_opts = MigrationOptions { theta, ..MigrationOptions::default() };
        let k1_opts = MigrationOptions {
            theta,
            ensemble: Some(EnsembleSpec::with_k(1, seed)),
            ..MigrationOptions::default()
        };
        let preset = presets::build(PresetId::A);
        let plain = MigrationBuilder::hgrid_v1_to_v2(&preset, &plain_opts).unwrap();
        let k1 = MigrationBuilder::hgrid_v1_to_v2(&preset, &k1_opts).unwrap();
        prop_assert!(k1.extra_demands.is_empty(), "K=1 realizes no extra matrices");
        let states = sample_states(&plain, seed);

        for threads in [1usize, 2, 4] {
            for incremental in [true, false] {
                let mut p = plain.clone();
                p.incremental = incremental;
                let mut e = k1.clone();
                e.incremental = incremental;
                let mut plain_checker = SatChecker::with_threads(&p, EscMode::Off, threads);
                let mut k1_checker = SatChecker::with_threads(&e, EscMode::Off, threads);
                for (v, s) in &states {
                    let want = plain_checker.check(&p, v, s, None);
                    let got = k1_checker.check(&e, v, s, None);
                    prop_assert_eq!(
                        got, want,
                        "verdict x{} incremental={}", threads, incremental
                    );
                    prop_assert!(
                        k1_checker.last_loads() == plain_checker.last_loads(),
                        "per-circuit loads diverged x{} incremental={}",
                        threads, incremental
                    );
                    prop_assert_eq!(k1_checker.last_fail_matrix(), None);
                }
                let stats = k1_checker.stats();
                prop_assert_eq!(stats.ensemble_matrices, 0);
                prop_assert_eq!(stats.ensemble_matrix_checks, 0);
            }
        }
    }

    /// The tentpole differential property on preset A: ensemble verdict ==
    /// AND of independent per-matrix checks, first failing matrix index
    /// deterministic across thread counts and engines, every member the
    /// bound clears passing from scratch.
    #[test]
    fn prop_ensemble_verdict_is_and_fold_on_preset_a(
        seed in 0u64..1_000_000,
        k_idx in 0usize..4,
        theta in 0.55f64..0.95,
        wcmp in proptest::bool::ANY,
        funneling in proptest::bool::ANY,
    ) {
        let k = [2usize, 3, 8, 16][k_idx];
        let split = if wcmp { SplitPolicy::Wcmp } else { SplitPolicy::Ecmp };
        assert_and_fold(&ensemble_spec(PresetId::A, k, seed, theta, split, funneling), seed);
    }
}

/// The AND-fold grid, deterministically: K ∈ {2, 3, 8, 16} × ECMP/WCMP ×
/// funneling on/off (× incremental on/off inside the oracle), at two θ. The
/// grid both clears members by the bound and sweeps members it cannot.
#[test]
fn ensemble_verdict_is_and_fold_across_k_split_and_funneling() {
    let mut total = MemberWork::default();
    for k in [2usize, 3, 8, 16] {
        for split in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
            for funneling in [false, true] {
                for theta in [0.62, 0.8] {
                    let seed = 17 + k as u64;
                    let spec = ensemble_spec(PresetId::A, k, seed, theta, split, funneling);
                    let work = assert_and_fold(&spec, seed);
                    total.cleared += work.cleared;
                    total.swept += work.swept;
                }
            }
        }
    }
    assert!(total.cleared > 0 && total.swept > 0, "{total:?}");
}

/// The same AND-fold property on the mid-size preset C, at fixed seeds so
/// the tier-1 suite stays fast. θ = 0.62 sits where the 1.3× surge
/// variants fail while the base matrix often passes, exercising the
/// short-circuit index.
#[test]
fn ensemble_verdict_is_and_fold_on_preset_c() {
    for seed in [3u64, 1009] {
        let spec = ensemble_spec(PresetId::C, 4, seed, 0.62, SplitPolicy::Ecmp, false);
        assert_and_fold(&spec, seed);
    }
}

/// A member inside the bound's slack: θ set to `u_base · k_m` for the member
/// with the largest ratio, so `u · k · (1 + δ) > θ` and the bound declines.
/// The member must be swept, and the verdict must still be the oracle's.
#[test]
fn a_member_inside_the_slack_is_swept_and_agrees_with_the_oracle() {
    for split in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
        for funneling in [false, true] {
            let mut reached = 0;
            let mut spec = ensemble_spec(PresetId::A, 8, 29, 0.8, split, funneling);
            spec.space = None; // every check routes
            let ratios: Vec<f64> = (spec.extra_demands.iter())
                .map(|m| ratio(&spec.demands, m))
                .collect();
            let (m, &k) =
                ratios.iter().enumerate().fold(
                    (0, &0.0),
                    |best, (i, r)| if *r > *best.1 { (i, r) } else { best },
                );
            assert!(k > 1.0, "some member surges past the base");
            let member = m + 1;
            let mut reference = Reference::new(&spec);
            for (v, s, last) in checked_states(&spec, 29) {
                // The base's funneled max utilization, from scratch.
                reference.check(&spec, &v, &s, last);
                let u = summarize(&spec.topology, &s, reference.last_loads(), 1.0).max_utilization;
                if u == 0.0 {
                    continue;
                }
                let mut at_margin = spec.clone();
                at_margin.theta = u * k;
                let pass = reference.check(&at_margin, &v, &s, last);
                let fail = reference.last_fail_matrix();
                for incremental in [true, false] {
                    at_margin.incremental = incremental;
                    let what =
                        format!("{split:?} funneling={funneling} incremental={incremental} at {v}");
                    let mut checker = SatChecker::with_threads(&at_margin, EscMode::Off, 1);
                    assert_eq!(checker.check(&at_margin, &v, &s, last), pass, "{what}");
                    assert_eq!(checker.last_fail_matrix(), fail, "{what}");
                    let row = &checker.ensemble_breakdown().matrices[member];
                    assert_eq!(
                        row.swept, row.checks,
                        "{what}: the bound cleared the margin"
                    );
                    reached += row.checks;
                }
            }
            assert!(
                reached > 0,
                "{split:?} funneling={funneling}: no check reached the member at the margin"
            );
        }
    }
}

/// Two hand-built members: a shrunk copy of the base (`k < 1`), which the
/// bound always clears, and one carrying traffic on a demand the base leaves
/// at 0 (`k = ∞`), which is always swept. Verdicts stay the oracle's.
#[test]
fn an_unbounded_member_is_always_swept_and_a_shrunk_one_always_cleared() {
    for split in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
        for funneling in [false, true] {
            let plain = MigrationOptions {
                split: Some(split),
                funneling: FunnelingModel {
                    headroom_factor: if funneling { 1.3 } else { 1.0 },
                },
                ..MigrationOptions::default()
            };
            let mut spec =
                MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &plain).unwrap();
            let refill = spec.demands.clone();
            let hole: DemandMatrix = refill
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, mut d)| {
                    if i == 0 {
                        d.gbps = 0.0;
                    }
                    d
                })
                .collect();
            let mut ensemble = TrafficEnsemble::new(hole.clone()).unwrap();
            assert!(ensemble
                .push_variant("ewma[shrunk]", hole.scaled(0.8))
                .unwrap());
            assert!(ensemble.push_variant("refill", refill).unwrap());
            assert_eq!(ratio(&hole, &ensemble.extras()[0]), 0.8);
            assert_eq!(ratio(&hole, &ensemble.extras()[1]), f64::INFINITY);
            spec.demands = hole;
            spec.extra_demands = ensemble.extras().to_vec();
            spec.ensemble_labels = ensemble.labels().to_vec();
            assert_and_fold(&spec, 5);
            for incremental in [true, false] {
                spec.incremental = incremental;
                let mut checker = SatChecker::with_threads(&spec, EscMode::Off, 1);
                for (v, s, last) in checked_states(&spec, 5) {
                    checker.check(&spec, &v, &s, last);
                }
                let rows = &checker.ensemble_breakdown().matrices;
                let what = format!("{split:?} funneling={funneling} incremental={incremental}");
                assert!(rows[1].checks > 0 && rows[2].checks > 0, "{what}: {rows:?}");
                assert_eq!(rows[1].swept, 0, "{what}: the shrunk member was swept");
                assert_eq!(rows[2].swept, rows[2].checks, "{what}: k = ∞ was cleared");
            }
        }
    }
}

/// The end-to-end guarantee behind the proptests: the planner's output is
/// byte-identical at every thread count (serialized plans compared as
/// strings).
#[test]
fn planner_output_is_identical_across_thread_counts() {
    let preset = presets::build(PresetId::A);
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4] {
        let opts = MigrationOptions {
            threads,
            ..MigrationOptions::default()
        };
        let spec = MigrationBuilder::hgrid_v1_to_v2(&preset, &opts).unwrap();
        let outcome = AStarPlanner::default().plan(&spec).unwrap();
        let rendered = format!(
            "{}|{:.12}",
            serde_json::to_string(&outcome.plan).unwrap(),
            outcome.cost
        );
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(&rendered, r, "plan changed at {threads} threads"),
        }
    }
}
