//! Paper-scale plans: topology E at its full Table 3 size (11 056 switches,
//! 178 096 circuits) under all three migration types, each planned with A\*
//! from its exported document exactly as `klotski plan` plans it.
//!
//! The search counters do not depend on the lane count or the machine, so
//! they are pinned exactly; the only time bound is the paper's "< 4
//! minutes" (§6.1). Ignored by default because each plan routes the
//! O(100k)-circuit union graph (seconds in release, minutes in debug). Run
//! with:
//!
//! ```text
//! KLOTSKI_FULL_SCALE=1 cargo test --release --test full_scale -- --ignored
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use klotski::core::migration::{MigrationBuilder, MigrationOptions};
use klotski::core::planner::SearchBudget;
use klotski::npd::convert::region_to_npd;
use klotski::npd::PlanRequestOptions;
use klotski::parallel::WorkerPool;
use klotski::service::pipeline::{plan_document, PlanArtifact};
use klotski::topology::presets::{self, PresetId};

/// Plans preset `id`'s exported document with A\*, on `pool` (`None`: the
/// CLI's default lanes), within the paper's bound.
fn plan(id: PresetId, pool: Option<Arc<WorkerPool>>) -> PlanArtifact {
    assert!(
        presets::full_scale_requested(),
        "set KLOTSKI_FULL_SCALE=1 for this test"
    );
    let npd = region_to_npd(&presets::config(id));
    let start = Instant::now();
    let artifact = plan_document(
        &npd,
        &PlanRequestOptions::default(),
        SearchBudget::default(),
        pool,
    )
    .unwrap_or_else(|e| panic!("{id} plans: {e}"));
    // The paper's headline: "Klotski-A* uses less than 4 minutes to
    // generate a plan for the largest topology" (§6.1).
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(240),
        "{id}: planning took {elapsed:?}"
    );
    artifact
}

#[test]
#[ignore = "paper-scale; run with KLOTSKI_FULL_SCALE=1 --release -- --ignored"]
fn full_scale_migration_types_keep_their_search_counters() {
    // (cost, phases, states visited, sat checks, full evaluations), as
    // `klotski plan X.json --stats` prints them.
    for (id, pinned) in [
        (PresetId::E, (4.0, 4, 55, 62, 53)),
        (PresetId::EDmag, (5.0, 5, 23, 30, 28)),
        (PresetId::ESsw, (18.0, 18, 122, 167, 131)),
    ] {
        let s = plan(id, None).summary;
        assert_eq!(
            (
                s.cost,
                s.phases,
                s.states_visited,
                s.sat_checks,
                s.full_evaluations
            ),
            pinned,
            "{id}"
        );
    }
}

#[test]
#[ignore = "paper-scale; run with KLOTSKI_FULL_SCALE=1 --release -- --ignored"]
fn full_scale_e_plans_to_the_same_bytes_on_one_and_two_lanes() {
    let preset = presets::build(PresetId::E);
    assert!(preset.topology.num_switches() > 10_000);
    assert!(preset.topology.num_circuits() > 100_000);
    let spec = MigrationBuilder::hgrid_v1_to_v2(&preset, &MigrationOptions::default()).unwrap();
    assert!(spec.num_switch_actions() > 600, "Table 3: ~700 actions");

    let one = plan(PresetId::E, Some(WorkerPool::shared(1)));
    let two = plan(PresetId::E, Some(WorkerPool::shared(2)));
    assert!(
        one.plan_json == two.plan_json,
        "E plans differ across lanes"
    );
}
