//! Klotski-DP is exact (Fig. 8a's "always optimal", as a property): on
//! random tiny instances its cost equals the brute-force oracle's and A\*'s,
//! its plan validates, and all three agree on infeasibility — across block
//! scales, θ, the funneling headroom model and a K=2 traffic ensemble. The
//! DP sweep skips the check of every arrival whose predecessor no feasible
//! sequence reaches; this is the oracle that says skipping never costs an
//! optimum.

use klotski::baselines::BruteForcePlanner;
use klotski::core::migration::{MigrationBuilder, MigrationOptions};
use klotski::core::plan::validate_plan;
use klotski::core::planner::{AStarPlanner, DpPlanner, Planner};
use klotski::core::EnsembleSpec;
use klotski::routing::FunnelingModel;
use klotski::topology::presets::{self, PresetId};
use klotski::traffic::DemandGenConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_dp_cost_equals_brute_force_and_astar(
        theta in 0.65f64..0.95,
        seed in 0u64..500,
        scale_idx in 0usize..3,
        funneling_on in proptest::bool::ANY,
        ensemble_on in proptest::bool::ANY,
    ) {
        let opts = MigrationOptions {
            theta,
            demand_cfg: DemandGenConfig { seed, ..DemandGenConfig::default() },
            block_scale: [0.5, 1.0, 2.0][scale_idx],
            funneling: FunnelingModel {
                headroom_factor: if funneling_on { 1.2 } else { 1.0 },
            },
            ensemble: ensemble_on.then(|| EnsembleSpec::with_k(2, seed)),
            ..MigrationOptions::default()
        };
        // A spec that does not build (the origin already breaks θ) is no
        // instance at all.
        if let Ok(spec) = MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts) {
            let dp = DpPlanner::default().plan(&spec);
            let brute = BruteForcePlanner::default().plan(&spec);
            let astar = AStarPlanner::default().plan(&spec);
            match (dp, brute, astar) {
                (Ok(dp), Ok(brute), Ok(astar)) => {
                    prop_assert!(
                        (dp.cost - brute.cost).abs() < 1e-9,
                        "dp {} brute {}", dp.cost, brute.cost
                    );
                    prop_assert!(
                        (dp.cost - astar.cost).abs() < 1e-9,
                        "dp {} a* {}", dp.cost, astar.cost
                    );
                    prop_assert!(validate_plan(&spec, &dp.plan).is_ok());
                }
                (Err(_), Err(_), Err(_)) => {}
                (dp, brute, astar) => prop_assert!(
                    false,
                    "planners disagree on feasibility: DP={:?} brute={:?} A*={:?}",
                    dp.map(|o| o.cost),
                    brute.map(|o| o.cost),
                    astar.map(|o| o.cost)
                ),
            }
        }
    }
}
