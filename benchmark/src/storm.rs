//! `run_storm`: one op is scenario text → controller report through
//! `Scenario::from_json` + `controller::run_scenario`, on the storm timeline
//! of `examples/scenarios/storm_preset_c.json` (preset C, block_scale 2,
//! θ 0.68: four surges, a link failure and an external drain over 36 steps)
//! with `planner: "dp"` and one lane. It is the only workload through
//! Klotski-DP, from-scratch `audit_live`, and residual replans.

use crate::calib::Calibrator;
use crate::metrics::Report;
use crate::staged::search_metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{golden, walk, Env};
use klotski_controller::{
    run_scenario, ControllerConfig, ControllerReport, ReplanPolicy, ReplannerKind, Scenario,
    ScenarioEvent, DEFAULT_FLIGHT_CAPACITY,
};
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::plan::MigrationPlan;
use klotski_core::planner::{DpPlanner, PlanStats, Planner, SearchBudget};
use klotski_core::CostModel;
use klotski_parallel::WorkerPool;
use klotski_telemetry::{parse_line, registry, Record, RingSink};
use klotski_topology::presets;
use std::sync::Arc;
use std::time::Duration;

/// Victim-selection seeds on which the storm completes with 36 steps, two
/// pauses and two replans. Other seeds can draw a victim that forces a third
/// replan (+5–8 % op time) or a rollback (seeds 18 and 1000 do), and a
/// workload may contain no op that fails; `--seed` picks from this list.
const VICTIM_SEEDS: [u64; 8] = [41, 42, 43, 2, 3, 4, 7, 9];

/// Scenario text for `seed`: the timeline of the shipped
/// `storm_preset_c.json` with the DP planner on one lane. Seed 1 (the golden
/// seed) maps to victim seed 41, the calibrated draw the shipped file uses.
fn scenario_text(seed: u64) -> Result<String, String> {
    let victim = VICTIM_SEEDS[(seed.wrapping_sub(golden::GOLDEN_SEED) % 8) as usize];
    let mut events: Vec<ScenarioEvent> = (2..18)
        .step_by(4)
        .map(|at| ScenarioEvent::surge(at, at + 2, 1.08, None))
        .collect();
    events.push(ScenarioEvent::link_failure(7, Some(14), None));
    events.push(ScenarioEvent::external_op(5, Some(12), None));
    let scenario = Scenario {
        name: format!("storm-{seed}"),
        preset: "c".into(),
        seed: victim,
        theta: Some(0.68),
        planner: "dp".into(),
        alpha: 0.0,
        canary_blocks: 1,
        demand_growth_per_step: 0.01,
        threads: Some(1),
        events,
        replan: ReplanPolicy {
            max_replans: 64,
            max_states: 2_000_000,
            time_limit_ms: 30_000,
        },
        progress_every: None,
        block_scale: Some(2.0),
        ensemble: None,
    };
    serde_json::to_string_pretty(&scenario).map_err(|e| e.to_string())
}

fn op(text: &str) -> Result<ControllerReport, String> {
    let scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    run_scenario(&scenario, None).map_err(|e| e.to_string())
}

/// The deterministic part of a report every op of a run must reproduce.
#[derive(Debug, PartialEq)]
struct Shape {
    outcome: &'static str,
    fingerprint: u64,
    steps: usize,
    pauses: usize,
    replans: usize,
}

impl Shape {
    fn of(report: &ControllerReport) -> Self {
        Self {
            outcome: report.outcome_label(),
            fingerprint: report.fingerprint(),
            steps: report.steps.len(),
            pauses: report.pauses(),
            replans: report.replans.len(),
        }
    }
}

struct Ctx {
    text: String,
    reference: Shape,
}

fn setup(env: &Env) -> Result<Ctx, String> {
    let text = scenario_text(env.seed)?;
    let reference = Shape::of(&op(&text)?);
    if reference.outcome != "completed" {
        return Err(format!("storm run ended {}", reference.outcome));
    }
    golden::check(
        env,
        "run_storm",
        &[
            ("fingerprint", format!("{:016x}", reference.fingerprint)),
            ("steps", reference.steps.to_string()),
            ("pauses", reference.pauses.to_string()),
            ("replans", reference.replans.to_string()),
        ],
    )?;
    Ok(Ctx { text, reference })
}

/// Output of one staged op.
struct StagedRun {
    report: ControllerReport,
    spec: MigrationSpec,
    /// The initial DP plan the controller executed, and its search counters.
    plan: MigrationPlan,
    search: PlanStats,
}

/// `run_scenario` stage by stage through the same public calls; the caller
/// checks the report's fingerprint against the whole call's.
fn staged_op(tr: &mut Tracer, text: &str) -> Result<StagedRun, String> {
    tr.next_op();
    tr.span("op", |tr| {
        let scenario = tr
            .span("controller.scenario_parse", |_| {
                Scenario::from_json(text).and_then(|s| s.validate().map(|()| s))
            })
            .map_err(|e| e.to_string())?;
        let id = scenario.preset_id().map_err(|e| e.to_string())?;
        let preset = tr.span("topology.build_region", |_| presets::build_for_bench(id));
        let opts = MigrationOptions {
            theta: scenario.theta.unwrap_or(MigrationOptions::default().theta),
            threads: scenario.threads.unwrap_or(1),
            block_scale: scenario.block_scale.unwrap_or(1.0),
            ..MigrationOptions::default()
        };
        let spec = tr
            .span("core.spec_build", |_| {
                MigrationBuilder::for_preset(&preset, &opts)
            })
            .map_err(|e| e.to_string())?;
        let cfg = ControllerConfig {
            seed: scenario.seed,
            canary_blocks: scenario.canary_blocks,
            demand_growth_per_step: scenario.demand_growth_per_step,
            events: scenario.events.clone(),
            replan: scenario.replan.clone(),
            replanner: ReplannerKind::Dp,
            alpha: scenario.alpha,
            deadline: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        };
        let planner = DpPlanner {
            cost: CostModel::new(cfg.alpha),
            budget: SearchBudget {
                max_states: 50_000_000,
                time_limit: Duration::from_millis(scenario.replan.time_limit_ms.max(30_000)),
                ..SearchBudget::default()
            },
            pool: Some(Arc::new(WorkerPool::new(spec.threads.max(1)))),
            ..DpPlanner::default()
        };
        let outcome = tr
            .span("core.dp.plan", |_| planner.plan(&spec))
            .map_err(|e| e.to_string())?;
        let mut report = tr.span("controller.run", |_| {
            klotski_controller::run(&spec, &outcome.plan, &cfg)
        });
        report.name = scenario.name.clone();
        Ok(StagedRun {
            report,
            spec,
            plan: outcome.plan,
            search: outcome.stats,
        })
    })
}

pub fn run(env: &Env, calibrator: &mut Calibrator) -> Result<Report, String> {
    let mut report = Report::default();
    let (ctx, setup_s) = crate::repeat_setup(env, calibrator, || setup(env))?;
    report.metrics.set("setup_s", setup_s);
    let correct =
        |r: Result<ControllerReport, String>| r.is_ok_and(|r| Shape::of(&r) == ctx.reference);

    if !env.traced {
        let times = crate::timed_ops(env.seconds, calibrator, || correct(op(&ctx.text)));
        crate::report_end_to_end("run_storm", &times, &mut report);
        return Ok(report);
    }

    let mut tr = Tracer::new();
    let mut replan_ms = Vec::new();
    let mut searches = Vec::new();
    let mut last = None;
    let audits_before = registry().snapshot();
    let (plain, staged, cpu_ms_per_op) = crate::alternate_ops(
        env.seconds * 0.7,
        calibrator,
        || correct(op(&ctx.text)),
        || match staged_op(&mut tr, &ctx.text) {
            Ok(s) => {
                replan_ms.extend(s.report.replans.iter().map(|r| r.latency_ms));
                searches.push(s.search);
                let ok = Shape::of(&s.report) == ctx.reference;
                last = Some(s);
                ok
            }
            Err(_) => false,
        },
    );
    crate::report_traced(&mut report, &tr, &plain, &staged, cpu_ms_per_op);
    search_metrics(&mut report.metrics, &searches);
    let m = &mut report.metrics;
    for (metric, span) in [
        ("topology.build_region_ms", "topology.build_region"),
        ("core.spec_build_ms", "core.spec_build"),
        ("core.dp.plan_ms", "core.dp.plan"),
        ("controller.initial_plan_ms", "core.dp.plan"),
        ("controller.run_ms", "controller.run"),
    ] {
        m.set(metric, median(&tr.durations(span, 1e6)));
    }
    m.set("controller.replan_ms_p50", median(&replan_ms));
    m.set("controller.steps", ctx.reference.steps as f64);
    m.set("controller.replans", ctx.reference.replans as f64);
    m.set("controller.pauses", ctx.reference.pauses as f64);
    if let Some(audits) =
        registry().loglinear_since("klotski_controller_audit_seconds", &audits_before)
    {
        m.set("controller.audit_live_us", audits.quantile(0.5) * 1e6);
    }

    // Per-step times come from the controller's own `controller.phase`
    // spans, captured during one extra op so the sink's cost stays out of
    // every other number.
    let ring = Arc::new(RingSink::new(1 << 16));
    let previous = klotski_telemetry::swap(Some(ring.clone()));
    let traced_report = op(&ctx.text);
    klotski_telemetry::swap(previous);
    if !correct(traced_report) {
        report
            .errors
            .push("run with a trace sink installed diverged".into());
    }
    let step_ms: Vec<f64> = ring
        .lines()
        .iter()
        .filter_map(|line| match parse_line(line) {
            Ok(Record::Span { name, dur_us, .. }) if name == "controller.phase" => {
                Some(dur_us as f64 / 1e3)
            }
            _ => None,
        })
        .collect();
    report
        .metrics
        .set("controller.step_ms_p50", median(&step_ms));

    // The walk probes run on the storm's own spec and initial DP plan.
    let last = last.ok_or("no staged storm op succeeded")?;
    walk::probe(&mut tr, &last.spec, &last.plan, &mut report.metrics)?;
    crate::write_trace(env, "run_storm", &tr)?;
    Ok(report)
}
