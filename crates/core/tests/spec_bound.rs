//! The spec build validates by bound where it can — and the bound never
//! changes a verdict.
//!
//! `finish_spec` routes the initial and the target state once each, under
//! the raw matrix, to calibrate demand and size capacities. Under plain ECMP
//! the calibrated matrix loads every circuit `factor` times as much, so both
//! states are cleared from those loads when `u · factor · (1 + 10⁻⁹) ≤ θ`;
//! anything else — WCMP, no capacity normalization, a state at or past θ —
//! takes `MigrationSpec::validate()` as before. These tests hold the builder
//! to a reference that always validates exactly: a spec it returns passes
//! `validate()` and an independent from-scratch evaluation of both endpoint
//! states; a spec it refuses was refused by `validate()` itself (the exact
//! span is there) with the message the initial state's calibration predicts.
//! From-scratch routes are counted from the `spec.calibrate` /
//! `spec.validate` spans of each build: 2 when the bound clears, 4 when it
//! does not.

use klotski_core::error::PlanError;
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_routing::{evaluate_policy, SplitPolicy};
use klotski_telemetry::{parse_line, scope, Record, RingSink};
use klotski_topology::fabric::FabricConfig;
use klotski_topology::hgrid::HgridConfig;
use klotski_topology::ma::BackboneConfig;
use klotski_topology::presets::{self, Preset, PresetId};
use klotski_topology::region::{build_region, RegionConfig};
use klotski_traffic::{DemandGenConfig, EnsembleSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// Spans of one spec build, by kind.
#[derive(Debug, Default, PartialEq)]
struct Stages {
    /// `spec.calibrate`: one from-scratch route each.
    calibrate: usize,
    /// `spec.validate` with `mode = "bound"`: no route.
    bound: usize,
    /// `spec.validate` with `mode = "exact"`: `validate()` ran — two routes,
    /// one if it stopped at the initial state.
    exact: usize,
}

/// Builds the spec with a sink scoped to this thread (tests beside this one
/// emit spans too) and returns it with the stages the build went through.
fn build(preset: &Preset, opts: &MigrationOptions) -> (Result<MigrationSpec, PlanError>, Stages) {
    let spans = Arc::new(RingSink::new(64));
    let built = {
        let _scope = scope(spans.clone());
        MigrationBuilder::for_preset(preset, opts)
    };
    let lines = spans.lines();
    assert!(lines.len() < 64, "the ring overflowed");
    let mut stages = Stages::default();
    for line in lines {
        if let Ok(Record::Span { name, fields, .. }) = parse_line(&line) {
            let mode = fields.get("mode").and_then(|v| v.as_str());
            match (name.as_str(), mode) {
                ("spec.calibrate", _) => stages.calibrate += 1,
                ("spec.validate", Some("bound")) => stages.bound += 1,
                ("spec.validate", Some("exact")) => stages.exact += 1,
                _ => {}
            }
        }
    }
    (built, stages)
}

/// What a build that always called `validate()` would have said of `spec`:
/// `validate()` itself, and its Eq. 4–6 semantics recomputed on a fresh
/// router per state.
fn assert_valid_exactly(spec: &MigrationSpec) {
    assert_eq!(spec.validate(), Ok(()), "{}", spec.name);
    for state in [spec.initial.clone(), spec.target_state()] {
        let out = evaluate_policy(
            &spec.topology,
            &state,
            &spec.demands,
            spec.theta,
            spec.split,
        );
        assert!(out.satisfied(), "{}: {out:?}", spec.name);
        assert!(!spec.topology.has_port_violation(&state), "{}", spec.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The random preset-A instances of `tests/dp_exact.rs`, crossed with
    /// the calibrated utilization swept up to and past θ, normalization on
    /// and off, and an ensemble.
    #[test]
    fn prop_bound_and_exact_validation_agree(
        theta in 0.65f64..0.95,
        seed in 0u64..500,
        scale_idx in 0usize..3,
        // Of θ: well inside, just inside, and past it.
        band in 0usize..3,
        within in 0.0f64..1.0,
        normalize_off in 0usize..5,
        ensemble_on in proptest::bool::ANY,
    ) {
        let (lo, hi) = [(0.3, 0.9), (0.97, 0.999), (1.003, 1.3)][band];
        let fill = lo + within * (hi - lo);
        let normalize_capacity = normalize_off > 0;
        let opts = MigrationOptions {
            theta,
            demand_cfg: DemandGenConfig { seed, ..DemandGenConfig::default() },
            block_scale: [0.5, 1.0, 2.0][scale_idx],
            initial_layer_utilization: fill * theta,
            normalize_capacity,
            ensemble: ensemble_on.then(|| EnsembleSpec::with_k(2, seed)),
            ..MigrationOptions::default()
        };
        let preset = presets::build(PresetId::A);
        let (built, stages) = build(&preset, &opts);
        prop_assert_eq!(stages.calibrate, 1 + usize::from(normalize_capacity));
        // The bound is tried exactly when both calibration routes exist.
        prop_assert_eq!(stages.bound, usize::from(normalize_capacity));
        match built {
            Ok(spec) => {
                assert_valid_exactly(&spec);
                // Sized capacities keep every other circuit under 0.6 θ, so
                // a layer calibrated inside θ clears from the two routes.
                let cleared = normalize_capacity;
                prop_assert_eq!(stages.exact, usize::from(!cleared), "fill {}", fill);
                prop_assert_eq!(
                    stages.calibrate + 2 * stages.exact,
                    if cleared { 2 } else { 3 }
                );
            }
            Err(e) => {
                // Only `validate()` refuses a spec, and says why.
                prop_assert_eq!(stages.exact, 1, "{}", e);
                if fill > 1.0 {
                    // The migrated layer was calibrated past θ: the initial
                    // state's worst circuit sits at that utilization.
                    let util = opts.initial_layer_utilization;
                    prop_assert_eq!(
                        e,
                        PlanError::InitialInfeasible(format!("0 unreachable, max util {util:.3}"))
                    );
                } else {
                    // Generator capacities left as they are may not carry
                    // either endpoint state.
                    prop_assert!(!normalize_capacity, "{}", e);
                    prop_assert!(matches!(
                        e,
                        PlanError::InitialInfeasible(_) | PlanError::TargetInfeasible(_)
                    ));
                }
            }
        }
    }
}

/// E-DMAG splits by capacity (WCMP) and capacity normalization re-weights
/// the splits: the raw loads bound nothing, every build validates exactly —
/// four routes.
#[test]
fn wcmp_builds_always_validate_exactly() {
    let preset = presets::build_for_bench(PresetId::EDmag);
    let (built, stages) = build(&preset, &MigrationOptions::default());
    let spec = built.unwrap();
    assert_eq!(spec.split, SplitPolicy::Wcmp);
    assert_eq!(
        stages,
        Stages {
            calibrate: 2,
            bound: 0,
            exact: 1
        }
    );
    assert_valid_exactly(&spec);
    // Forcing ECMP onto the HGRID preset's opposite: WCMP on preset A.
    let opts = MigrationOptions {
        split: Some(SplitPolicy::Wcmp),
        ..MigrationOptions::default()
    };
    let (_, stages) = build(&presets::build(PresetId::A), &opts);
    assert_eq!((stages.bound, stages.exact), (0, 1));
}

/// The SSW forklift (ECMP, v2 spine switches mirrored into one building of
/// three) clears by bound like HGRID does, and past θ falls back to the
/// exact refusal.
#[test]
fn ssw_forklift_clears_by_bound_and_falls_back_past_theta() {
    let fabric = FabricConfig {
        pods: 3,
        rsws_per_pod: 4,
        planes: 4,
        ssws_per_plane: 4,
        rsw_fsw_gbps: 800.0,
        fsw_ssw_gbps: 1600.0,
        ..FabricConfig::default()
    };
    let config = RegionConfig {
        name: "three-dc-one-forklift".into(),
        dcs: vec![fabric; 3],
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
    let preset = Preset {
        id: PresetId::A, // tag only
        config,
        topology,
        handles,
    };
    let (built, stages) = build(&preset, &MigrationOptions::default());
    let spec = built.unwrap();
    assert_eq!(spec.split, SplitPolicy::Ecmp);
    assert_eq!(
        stages,
        Stages {
            calibrate: 2,
            bound: 1,
            exact: 0
        }
    );
    assert_valid_exactly(&spec);

    let past = MigrationOptions {
        initial_layer_utilization: 0.8,
        ..MigrationOptions::default()
    };
    let (refused, stages) = build(&preset, &past);
    assert_eq!(
        stages,
        Stages {
            calibrate: 2,
            bound: 1,
            exact: 1
        }
    );
    assert_eq!(
        refused.unwrap_err(),
        PlanError::InitialInfeasible("0 unreachable, max util 0.800".into())
    );
}

/// A state within 10⁻⁹ of θ is not guessed: calibrated to θ exactly, the
/// bound declines and `validate()` decides.
#[test]
fn a_layer_calibrated_to_theta_exactly_is_validated_exactly() {
    let opts = MigrationOptions {
        initial_layer_utilization: MigrationOptions::default().theta,
        ..MigrationOptions::default()
    };
    let (built, stages) = build(&presets::build(PresetId::A), &opts);
    assert_eq!((stages.bound, stages.exact), (1, 1));
    if let Ok(spec) = built {
        assert_valid_exactly(&spec);
    }
}

/// Every shipped HGRID preset builds on two from-scratch routes.
#[test]
fn shipped_hgrid_presets_build_on_two_routes() {
    for id in [PresetId::A, PresetId::B, PresetId::C, PresetId::D] {
        let (built, stages) = build(&presets::build(id), &MigrationOptions::default());
        assert_valid_exactly(&built.unwrap());
        assert_eq!(
            stages,
            Stages {
                calibrate: 2,
                bound: 1,
                exact: 0
            },
            "{id}"
        );
    }
}
