//! End-to-end controller runs: safe-pause → replan → complete, rollback
//! under a starved replan budget, and bit-determinism across thread counts.

use klotski_controller::scenario::{ReplanPolicy, ScenarioEvent};
use klotski_controller::{run, run_scenario, ControllerConfig, ControllerReport, Scenario};
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::planner::{AStarPlanner, PlanStats, Planner, SearchBudget};
use klotski_core::{CostModel, MigrationPlan};
use klotski_parallel::WorkerPool;
use klotski_telemetry::{parse_line, registry, scope, Record, RingSink};
use klotski_topology::presets::{self, PresetId};
use klotski_traffic::{DemandClass, EnsembleSpec};
use std::sync::Arc;

/// Preset A with the utilization bound tightened to 0.62: enough headroom
/// for the clean plan, but a mid-phase link failure pushes the drained
/// fabric over θ and forces the controller to act.
fn tight_link_failure_scenario() -> Scenario {
    let mut s = Scenario::sample();
    s.name = "tight-link-failure".to_string();
    s.theta = Some(0.62);
    s.events = vec![ScenarioEvent::link_failure(1, None, None)];
    s
}

/// Preset A's HGRID migration with its A\* plan, for driving [`run`] on a
/// caller-supplied plan the way `benchmark/`'s staged op and library users
/// do.
fn preset_a_plan() -> (MigrationSpec, MigrationPlan) {
    let spec = MigrationBuilder::hgrid_v1_to_v2(
        &presets::build(PresetId::A),
        &MigrationOptions::default(),
    )
    .unwrap();
    let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
    (spec, plan)
}

/// What the retired phase-level simulator's unit tests checked, on the
/// controller: a caller-supplied plan runs one safe step per phase, clean or
/// under disturbances the headroom absorbs (the lookahead re-checks the
/// remaining plan after every step and finds it still safe), and routine
/// maintenance is visible to the audits for exactly as long as it lasts.
#[test]
fn supplied_plan_runs_one_safe_step_per_phase_through_absorbed_disturbances() {
    let (spec, plan) = preset_a_plan();
    let whole_phases = ControllerConfig {
        canary_blocks: 0,
        ..ControllerConfig::default()
    };
    let calm = run(&spec, &plan, &whole_phases);
    assert_eq!(calm.audit_stats.live_audits, calm.steps.len() as u64);
    let grown = ControllerConfig {
        demand_growth_per_step: 0.10,
        ..whole_phases.clone()
    };
    let surged = ControllerConfig {
        events: vec![ScenarioEvent::surge(1, 3, 1.3, Some(DemandClass::RswToRsw))],
        ..whole_phases.clone()
    };
    let maintained = ControllerConfig {
        events: vec![ScenarioEvent::external_op(0, Some(2), None)],
        ..whole_phases
    };
    for (cfg, drift) in [
        (&grown, [0, 0, 0, 0]),
        (&surged, [0, 0, 0, 0]),
        (&maintained, [1, 1, 0, 0]),
    ] {
        let report = run(&spec, &plan, cfg);
        assert!(report.completed, "abort: {:?}", report.abort_reason);
        assert!(report.replans.is_empty());
        assert_eq!(report.steps.len(), plan.num_phases());
        assert!(report.steps.iter().all(|st| st.safe && !st.canary));
        assert!(report.steps[1].max_utilization > calm.steps[1].max_utilization);
        let seen: Vec<usize> = report.steps.iter().map(|st| st.drift_switches).collect();
        assert_eq!(seen, drift);
    }
}

#[test]
fn clean_scenario_completes_without_pausing() {
    let mut s = Scenario::sample();
    s.events.clear();
    let report = run_scenario(&s, None).expect("scenario runs");
    assert!(report.completed, "abort: {:?}", report.abort_reason);
    assert!(!report.rolled_back);
    assert_eq!(report.pauses(), 0);
    assert!(report.replans.is_empty());
    assert!(report.steps.iter().all(|st| st.safe));
    // Canary batching splits phases, so there are at least as many audited
    // batches as planned phases.
    assert!(report.steps.len() >= report.initial_phases);
    assert!(report.steps.iter().any(|st| st.canary));
    assert_eq!(report.audit_stats.live_audits, report.steps.len() as u64);
}

#[test]
fn sample_scenario_survives_its_disturbances() {
    let report = run_scenario(&Scenario::sample(), None).expect("scenario runs");
    assert!(report.completed, "abort: {:?}", report.abort_reason);
    assert!(!report.rolled_back);
    // The link failure is visible to the audits as plan/fleet drift.
    assert!(report.steps.iter().any(|st| st.drift_circuits > 0));
}

#[test]
fn link_failure_pauses_replans_incrementally_and_completes() {
    let report = run_scenario(&tight_link_failure_scenario(), None).expect("scenario runs");

    // The failure lands mid-phase (after the canary batch of the drain
    // phase) and the shadow audit catches the violated bound.
    let pause = report
        .steps
        .iter()
        .find(|st| st.paused)
        .expect("the link failure must trigger a safe-pause");
    assert!(!pause.safe);
    assert!(
        pause.drift_circuits > 0,
        "audit must see the failed circuit"
    );
    assert!(
        pause.pause_reason.as_deref().unwrap().contains("theta"),
        "pause reason: {:?}",
        pause.pause_reason
    );

    // One incremental replan from the observed state, then completion.
    assert_eq!(report.replans.len(), 1);
    let replan = &report.replans[0];
    assert!(replan.ok);
    assert!(replan.phases > 0);
    // The replan search runs the delta-aware machinery: the ESC cache holds
    // its verdicts and child states route from parent deltas.
    assert!(replan.stats.esc_entries > 0, "{:?}", replan.stats);
    assert!(
        replan.stats.incremental_clean + replan.stats.incremental_dirty > 0,
        "{:?}",
        replan.stats
    );
    assert!(report.completed, "abort: {:?}", report.abort_reason);
    assert!(!report.rolled_back);
    // After the replan the plan carries the failure, so drift disappears.
    assert_eq!(report.steps.last().unwrap().drift_circuits, 0);
}

#[test]
fn budget_starved_replan_rolls_back_to_last_safe_step() {
    let mut s = tight_link_failure_scenario();
    s.name = "starved-replan".to_string();
    // A one-state search budget cannot reach the target: the replan fails
    // and the controller must fall back to the last audited-safe snapshot.
    s.replan = ReplanPolicy {
        max_states: 1,
        ..ReplanPolicy::default()
    };
    let report = run_scenario(&s, None).expect("scenario runs");

    assert!(!report.completed);
    assert!(report.rolled_back);
    assert_eq!(report.replans.len(), 1);
    assert!(!report.replans[0].ok);
    let rollback = report.rollback.as_ref().expect("rollback record");
    assert!(rollback.safe, "restored state must audit safe");
    // The pause fired at the step after the last safe one.
    let last_safe = report
        .steps
        .iter()
        .rev()
        .find(|st| st.safe)
        .expect("some step audited safe");
    assert_eq!(rollback.to_step, Some(last_safe.step));
    assert!(
        report
            .abort_reason
            .as_deref()
            .unwrap()
            .contains("replanning failed"),
        "abort: {:?}",
        report.abort_reason
    );
}

#[test]
fn runs_are_bit_deterministic_across_thread_counts() {
    let mut one = tight_link_failure_scenario();
    one.threads = Some(1);
    let mut four = tight_link_failure_scenario();
    four.threads = Some(4);

    let r1 = run_scenario(&one, None).expect("threads=1 runs");
    let r1b = run_scenario(&one, None).expect("threads=1 reruns");
    let r4 = run_scenario(&four, None).expect("threads=4 runs");

    assert_eq!(r1.fingerprint(), r1b.fingerprint(), "rerun must replay");
    assert_eq!(
        r1.fingerprint(),
        r4.fingerprint(),
        "thread count must not change the run"
    );
    // Spot-check the strongest fields behind the hash.
    assert_eq!(r1.steps.len(), r4.steps.len());
    for (a, b) in r1.steps.iter().zip(&r4.steps) {
        assert_eq!(a.max_utilization.to_bits(), b.max_utilization.to_bits());
        assert_eq!(a.pause_reason, b.pause_reason);
    }

    // The starved variant (rollback path) must replay too.
    let mut starved1 = tight_link_failure_scenario();
    starved1.replan = ReplanPolicy {
        max_states: 1,
        ..ReplanPolicy::default()
    };
    let mut starved4 = starved1.clone();
    starved1.threads = Some(1);
    starved4.threads = Some(4);
    let s1 = run_scenario(&starved1, None).expect("starved threads=1");
    let s4 = run_scenario(&starved4, None).expect("starved threads=4");
    assert_eq!(s1.fingerprint(), s4.fingerprint());
    assert!(s1.rolled_back && s4.rolled_back);
}

#[test]
fn ensemble_scenarios_audit_every_realized_matrix() {
    let mut s = Scenario::sample();
    s.name = "ensemble-clean".to_string();
    s.events.clear();
    s.ensemble = Some(EnsembleSpec::with_k(3, 97));
    let report = run_scenario(&s, None).expect("scenario runs");
    assert!(report.completed, "abort: {:?}", report.abort_reason);
    // Each step's shadow audit covers the base matrix plus the realized
    // variants, so strictly more live audits than steps.
    assert!(
        report.audit_stats.live_audits > report.steps.len() as u64,
        "audits {} vs steps {}",
        report.audit_stats.live_audits,
        report.steps.len()
    );
    assert!(report
        .steps
        .iter()
        .all(|st| st.ensemble_fail_matrix.is_none()));
}

#[test]
fn ensemble_runs_are_bit_deterministic_across_thread_counts() {
    let mut s = Scenario::sample();
    s.name = "ensemble-disturbed".to_string();
    s.ensemble = Some(EnsembleSpec::with_k(4, 11));
    let mut one = s.clone();
    one.threads = Some(1);
    let mut four = s.clone();
    four.threads = Some(4);

    let r1 = run_scenario(&one, None).expect("threads=1 runs");
    let r1b = run_scenario(&one, None).expect("threads=1 reruns");
    let r4 = run_scenario(&four, None).expect("threads=4 runs");

    assert_eq!(r1.fingerprint(), r1b.fingerprint(), "rerun must replay");
    assert_eq!(
        r1.fingerprint(),
        r4.fingerprint(),
        "thread count must not change an ensemble run"
    );
    // The decisive matrix (or its absence) replays bit-exactly too — it is
    // part of the fingerprint, but spot-check the raw fields anyway.
    assert_eq!(r1.steps.len(), r4.steps.len());
    for (a, b) in r1.steps.iter().zip(&r4.steps) {
        assert_eq!(a.ensemble_fail_matrix, b.ensemble_fail_matrix);
        assert_eq!(a.max_utilization.to_bits(), b.max_utilization.to_bits());
    }
}

#[test]
fn base_audit_failure_is_attributed_to_matrix_zero() {
    let mut s = tight_link_failure_scenario();
    s.name = "ensemble-base-fail".to_string();
    // EWMA-only variants (surge factor 1.0 collapses the surge range): the
    // link failure breaks the *base* matrix's audit, and the short-circuit
    // must attribute the pause to matrix 0 without auditing the rest.
    s.ensemble = Some(EnsembleSpec {
        surge_factor: 1.0,
        ..EnsembleSpec::with_k(2, 5)
    });
    let report = run_scenario(&s, None).expect("scenario runs");
    let pause = report
        .steps
        .iter()
        .find(|st| st.paused)
        .expect("the link failure must trigger a safe-pause");
    assert_eq!(pause.ensemble_fail_matrix, Some(0));
    assert!(
        pause.pause_reason.as_deref().unwrap().contains("theta"),
        "{:?}",
        pause.pause_reason
    );
}

#[test]
fn clean_runs_carry_no_flight_bundle() {
    let mut s = Scenario::sample();
    s.events.clear();
    let report = run_scenario(&s, None).expect("scenario runs");
    assert!(report.completed);
    assert!(report.flight.is_none());
}

#[test]
fn safe_pause_freezes_a_bundle_with_pre_replan_state() {
    let report = run_scenario(&tight_link_failure_scenario(), None).expect("scenario runs");
    assert!(report.completed, "abort: {:?}", report.abort_reason);
    let bundle = report.flight.as_ref().expect("pause freezes a bundle");
    assert_eq!(bundle.trigger, "safe-pause");
    assert!(
        bundle
            .violated_constraint
            .as_deref()
            .unwrap()
            .contains("theta"),
        "{:?}",
        bundle.violated_constraint
    );
    assert_eq!(bundle.replans_used, 0, "frozen before the replan spends");
    assert!(
        bundle.drift_circuits > 0,
        "failed circuit must show as drift"
    );
    assert_eq!(bundle.safe_point_steps.first(), Some(&-1));
    // The recorder saw every step up to the pause; the last recorded event
    // is the paused step itself.
    assert!(!bundle.events.is_empty());
    assert!(
        bundle.events.last().unwrap().contains("\"pause_reason\""),
        "{:?}",
        bundle.events.last()
    );
}

#[test]
fn rollback_bundle_is_deterministic_and_outside_the_fingerprint() {
    let mut starved1 = tight_link_failure_scenario();
    starved1.replan = ReplanPolicy {
        max_states: 1,
        ..ReplanPolicy::default()
    };
    let mut starved4 = starved1.clone();
    starved1.threads = Some(1);
    starved4.threads = Some(4);
    let s1 = run_scenario(&starved1, None).expect("starved threads=1");
    let s4 = run_scenario(&starved4, None).expect("starved threads=4");

    let b1 = s1.flight.as_ref().expect("rollback freezes a bundle");
    let b4 = s4.flight.as_ref().expect("rollback freezes a bundle");
    assert_eq!(b1.trigger, "rollback");
    assert_eq!(b1, b4, "bundles must be bit-identical across thread counts");
    assert_eq!(b1.replans_used, 1);
    assert!(b1.events.iter().any(|e| e.contains("\"kind\":\"replan\"")));
    assert!(b1
        .events
        .iter()
        .any(|e| e.contains("\"kind\":\"rollback\"")));

    // The bundle survives its dump format and never perturbs the hash.
    let back = klotski_controller::FlightBundle::from_json(&b1.to_json()).unwrap();
    assert_eq!(&back, b1);
    let mut stripped = s1.clone();
    stripped.flight = None;
    assert_eq!(stripped.fingerprint(), s1.fingerprint());
}

#[test]
fn out_of_range_victims_are_rejected_against_the_preset() {
    for (circuit, switch) in [(Some(usize::MAX), None), (None, Some(usize::MAX))] {
        let mut s = Scenario::sample();
        s.events = vec![if circuit.is_some() {
            ScenarioEvent::link_failure(1, None, circuit)
        } else {
            ScenarioEvent::external_op(1, None, switch)
        }];
        let err = run_scenario(&s, None).expect_err("out-of-range victim");
        assert!(
            err.to_string().contains("out of range"),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn shipped_example_scenario_matches_the_builtin_sample() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/surge_and_failure.json"
    ))
    .expect("example scenario file exists");
    let parsed = Scenario::from_json(&json).expect("example scenario parses");
    assert_eq!(parsed, Scenario::sample());
}

/// `examples/scenarios/<file>.json`, parsed.
fn shipped(file: &str) -> Scenario {
    let path = format!(
        "{}/../../examples/scenarios/{file}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let json = std::fs::read_to_string(&path).expect("example scenario file exists");
    Scenario::from_json(&json).expect("example scenario parses")
}

/// What `run_scenario` builds from a scenario before it plans: the spec and
/// the controller config — for driving [`run`] on a caller-supplied plan the
/// way `benchmark/`'s staged op does.
fn spec_and_config(s: &Scenario) -> (MigrationSpec, ControllerConfig) {
    let opts = MigrationOptions {
        theta: s.theta.unwrap_or(MigrationOptions::default().theta),
        threads: s.threads.unwrap_or(MigrationOptions::default().threads),
        block_scale: s.block_scale.unwrap_or(1.0),
        ensemble: s.ensemble.clone(),
        ..MigrationOptions::default()
    };
    let preset = presets::build_for_bench(s.preset_id().unwrap());
    let spec = MigrationBuilder::for_preset(&preset, &opts).unwrap();
    let cfg = ControllerConfig {
        seed: s.seed,
        canary_blocks: s.canary_blocks,
        demand_growth_per_step: s.demand_growth_per_step,
        events: s.events.clone(),
        replan: s.replan.clone(),
        replanner: s.planner_kind().unwrap(),
        alpha: s.alpha,
        ..ControllerConfig::default()
    };
    (spec, cfg)
}

/// `run_scenario(scenario)` with the work its lookahead took, `(bound,
/// swept)`.
fn run_counting_lookahead(scenario: &Scenario) -> (ControllerReport, u64, u64) {
    counting_lookahead(&scenario.name, || {
        run_scenario(scenario, None).expect("scenario runs")
    })
}

/// The run `go` makes, with the work its lookahead took, `(bound, swept)`,
/// read off the run's own `controller.phase` spans (a sink scoped to this
/// thread: tests running beside this one cannot leak into the sums).
fn counting_lookahead(
    name: &str,
    go: impl FnOnce() -> ControllerReport,
) -> (ControllerReport, u64, u64) {
    let counted_before = lookahead_counters();
    let spans = Arc::new(RingSink::new(4096));
    let report = {
        let _scope = scope(spans.clone());
        go()
    };
    let lines = spans.lines();
    assert!(lines.len() < 4096, "{name}: the span ring overflowed");
    let (mut bound, mut swept) = (0u64, 0u64);
    for line in lines {
        if let Ok(Record::Span { name, fields, .. }) = parse_line(&line) {
            if name == "controller.phase" {
                let field = |key| fields.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
                bound += field("lookahead_bound") as u64;
                swept += field("lookahead_swept") as u64;
            }
        }
    }
    assert!(bound + swept > 0, "{name}: the lookahead ran");
    // The registry is process-wide, so other tests may add to it; this
    // run's share must be in there.
    let counted = lookahead_counters();
    assert!(
        counted.0 - counted_before.0 >= bound && counted.1 - counted_before.1 >= swept,
        "{name}: registry {counted_before:?} -> {counted:?}, spans ({bound}, {swept})"
    );
    (report, bound, swept)
}

/// Run fingerprints of the shipped scenarios, captured before the lookahead
/// moved onto the incremental engine and unchanged since the shadow audit
/// joined it there. Every verdict, pause reason and routed utilization of a
/// run is behind its hash, so a lookahead (or audit) that answers differently
/// anywhere in these timelines fails here.
///
/// Beside the storm's pin, the work its run took. Three plan generations
/// judge 590 pending states; the lookahead reads each off the cache the
/// generation's searches left, so it sweeps exactly the two states the
/// rescaling bound cannot clear. `run` with a caller-supplied plan has no
/// search's cache for its first generation, so every state judged there is
/// swept; its replans' searches leave caches the later generations read —
/// 514 cleared, 76 swept in all. And every route of the run — 36 audits,
/// those sweeps — is one advance of the one live engine: nothing is routed
/// from scratch.
#[test]
fn shipped_scenarios_keep_their_fingerprints() {
    for (file, fingerprint) in [
        ("storm_preset_c", 0x8b23_47d9_904b_b13e_u64),
        ("surge_and_failure", 0xd415_282b_9eb6_111b),
        ("tight_link_failure", 0x24d8_003c_2569_c3e0),
    ] {
        let scenario = shipped(file);
        let (report, bound, swept) = run_counting_lookahead(&scenario);
        assert_eq!(
            format!("{:016x}", report.fingerprint()),
            format!("{fingerprint:016x}"),
            "{file}"
        );

        // The cache only saves sweeps: a caller-supplied plan comes with
        // none and runs the same run.
        let (spec, cfg) = spec_and_config(&scenario);
        let planner = cfg.replanner.build(
            CostModel::new(cfg.alpha),
            SearchBudget::default(),
            Arc::new(WorkerPool::new(spec.threads.max(1))),
        );
        let plan = planner.plan(&spec).unwrap().plan;
        let (mut cold, cold_bound, cold_swept) =
            counting_lookahead(file, || run(&spec, &plan, &cfg));
        cold.name = scenario.name.clone();
        assert_eq!(cold.fingerprint(), report.fingerprint(), "{file}");

        let stats = report.audit_stats;
        assert_eq!(
            stats.incremental_clean + stats.incremental_dirty,
            (stats.live_audits + swept) * spec.demands.num_destinations() as u64,
            "{file}: every audit and sweep routes on the live engine"
        );
        if file == "storm_preset_c" {
            assert_eq!((bound, swept, stats.live_audits), (588, 2, 36));
            assert_eq!((cold_bound, cold_swept), (514, 76));
            // Both pauses of the storm are lookahead pauses, and the frozen
            // bundle says which state and circuit tripped it.
            let bundle = report.flight.as_ref().expect("the storm pauses");
            let note = bundle
                .events
                .iter()
                .rfind(|e| e.contains("\"kind\":\"lookahead\""))
                .expect("a lookahead pause leaves a note");
            assert!(
                note.contains("blocks ahead") && note.contains(" <-> ") && note.contains("theta"),
                "{note}"
            );
        }
    }
}

/// The storm as `benchmark/`'s `run_storm` workload runs it — the shipped
/// timeline with the DP planner on one lane — on the eight victim seeds the
/// harness vetted: fingerprints as captured before the run loop kept one
/// live engine, and the same two sweeps on every one.
#[test]
fn harness_storm_variants_keep_their_fingerprints() {
    for (i, (victim, fingerprint)) in [
        (41, 0xad80_820f_b2ec_0527_u64),
        (42, 0xa5a1_c439_bec3_3cdf),
        (43, 0x8fbb_23e8_c9bb_1705),
        (2, 0x9035_2e94_cdc8_bc55),
        (3, 0xa4c5_b53d_abd9_0ecf),
        (4, 0xc491_63de_a60d_f726),
        (7, 0xd64b_6ca6_1dde_2a7a),
        (9, 0xe954_3d83_47c2_5bef),
    ]
    .into_iter()
    .enumerate()
    {
        let mut scenario = shipped("storm_preset_c");
        scenario.name = format!("storm-{}", i + 1);
        scenario.planner = "dp".into();
        scenario.seed = victim;
        scenario.threads = Some(1);
        let (report, _, swept) = run_counting_lookahead(&scenario);
        assert_eq!(
            format!("{:016x}", report.fingerprint()),
            format!("{fingerprint:016x}"),
            "victim seed {victim}"
        );
        assert_eq!(
            (report.steps.len(), report.pauses(), report.replans.len()),
            (36, 2, 2),
            "victim seed {victim}"
        );
        assert_eq!(swept, 2, "victim seed {victim}");
    }
}

/// One ESC cache per run. On the benchmark's storm (DP, victim seed 41, one
/// lane) both replans start at the canonical overlay of their progress and
/// are handed the cache the searches before them left: every check is an
/// ESC hit or decided off an inherited measurement without routing
/// (`rescaled`), but for the few the space model rejects — the replanner's
/// engine is never built. Hits, rescaled and evaluations add up to the cold
/// replans' split (255 = 102 + 153, 131 = 52 + 79), and the initial search
/// is as cold as ever. On the shipped A\* storm the replans inherit too and
/// route the states the initial search never popped.
#[test]
fn replans_inherit_the_runs_verdicts() {
    let split = |s: &PlanStats| (s.sat_checks, s.cache_hits, s.rescaled, s.full_evaluations);
    let mut dp = shipped("storm_preset_c");
    dp.name = "storm-1".into();
    dp.planner = "dp".into();
    dp.threads = Some(1);
    let report = run_scenario(&dp, None).expect("scenario runs");
    assert_eq!(format!("{:016x}", report.fingerprint()), "ad80820fb2ec0527");
    assert_eq!(split(&report.initial_stats), (288, 116, 0, 172));
    let replans: Vec<_> = (report.replans.iter())
        .map(|r| (split(&r.stats), r.stats.incremental_dirty))
        .collect();
    assert_eq!(replans, [((255, 102, 143, 10), 0), ((131, 52, 73, 6), 0)]);

    let report = run_scenario(&shipped("storm_preset_c"), None).expect("scenario runs");
    let replans: Vec<_> = report.replans.iter().map(|r| split(&r.stats)).collect();
    assert_eq!(replans, [(60, 4, 42, 14), (22, 0, 9, 13)]);
}

/// The process-wide `klotski_controller_lookahead_states_total` pair,
/// `(bound, swept)`.
fn lookahead_counters() -> (u64, u64) {
    let get = |how: &str| {
        registry()
            .counter(&format!(
                "klotski_controller_lookahead_states_total{{how=\"{how}\"}}"
            ))
            .get()
    };
    (get("bound"), get("swept"))
}

#[test]
fn reports_roundtrip_through_json() {
    let report = run_scenario(&tight_link_failure_scenario(), None).expect("scenario runs");
    let json = serde_json::to_string(&report).unwrap();
    let back: klotski_controller::ControllerReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.completed, report.completed);
    assert_eq!(back.steps.len(), report.steps.len());
    assert_eq!(back.replans.len(), report.replans.len());
    assert_eq!(back.fingerprint(), report.fingerprint());
}
