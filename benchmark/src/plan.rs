//! `plan_single` and `plan_ensemble`: one op is NPD bytes → plan bytes
//! through `Npd::from_json` + `pipeline::plan_document` with default options
//! and a one-lane pool — the call a service worker and `klotski plan` make.
//! `plan_ensemble` adds `ensemble = 8@1` to the same document.

use crate::calib::Calibrator;
use crate::metrics::{Metrics, Report};
use crate::staged::{
    audit_from_scratch, build_spec, plan_from_document, search_metrics, stage_metrics, staged_plan,
};
use crate::stats::SplitMix64;
use crate::trace::Tracer;
use crate::{golden, walk, Env};
use klotski_core::migration::MigrationSpec;
use klotski_core::plan::MigrationPlan;
use klotski_core::planner::SearchBudget;
use klotski_core::EnsembleSpec;
use klotski_npd::api::{fnv1a, PlanRequestOptions};
use klotski_npd::convert::region_to_npd;
use klotski_npd::Npd;
use klotski_parallel::WorkerPool;
use klotski_service::pipeline::{plan_document, PlanArtifact};
use klotski_topology::presets::{self, PresetId};
use std::sync::Arc;
use std::time::Instant;

/// Matrices in `plan_ensemble`'s ensemble, base included.
const ENSEMBLE_K: usize = 8;
/// The ensemble's own seed is fixed: op time moves ±10 % with the surge
/// draws (measured 782–943 ms over eight seeds), which would drown the
/// regression bound. `--seed` names the document instead.
const ENSEMBLE_SEED: u64 = 1;
/// Warm-up ops per set-up: enough for the allocator and the lane threads to
/// settle (`plan_ensemble` ops are ~4× longer, so one does).
const WARMUP_SINGLE: usize = 3;
const WARMUP_ENSEMBLE: usize = 1;

struct Ctx {
    text: String,
    options: PlanRequestOptions,
    pool: Arc<WorkerPool>,
    /// Plan bytes of the last warm-up op; every timed op must equal them.
    reference: Vec<u8>,
    spec: MigrationSpec,
    plan: MigrationPlan,
}

fn op(
    text: &str,
    options: &PlanRequestOptions,
    pool: &Arc<WorkerPool>,
) -> Result<PlanArtifact, String> {
    let npd = Npd::from_json(text).map_err(|e| e.to_string())?;
    plan_document(
        &npd,
        options,
        SearchBudget::default(),
        Some(Arc::clone(pool)),
    )
    .map_err(|e| e.to_string())
}

impl Ctx {
    /// One timed op; true when its plan bytes equal the reference.
    fn op_is_correct(&self) -> bool {
        op(&self.text, &self.options, &self.pool).is_ok_and(|a| a.plan_json == self.reference)
    }
}

/// The preset's full-scale region exported as an NPD document whose name —
/// and therefore digest and plan bytes — derives from the seed.
pub fn document(id: PresetId, seed: u64) -> Npd {
    let mut npd = region_to_npd(&presets::config(id));
    npd.name = format!("{}-{:016x}", npd.name, SplitMix64::new(seed).next_u64());
    npd
}

fn setup(env: &Env, workload: &str, ensemble: bool) -> Result<Ctx, String> {
    let npd = document(PresetId::D, env.seed);
    let text = npd.to_json_pretty().map_err(|e| e.to_string())?;
    let options = PlanRequestOptions {
        ensemble: ensemble.then(|| EnsembleSpec::with_k(ENSEMBLE_K, ENSEMBLE_SEED)),
        ..PlanRequestOptions::default()
    };
    let pool = WorkerPool::shared(1);
    let warmups = if ensemble {
        WARMUP_ENSEMBLE
    } else {
        WARMUP_SINGLE
    };
    let mut artifact = op(&text, &options, &pool)?;
    for _ in 1..warmups {
        artifact = op(&text, &options, &pool)?;
    }
    let spec = build_spec(&npd, &options)?;
    let shipped = std::str::from_utf8(&artifact.plan_json)
        .map_err(|e| e.to_string())
        .and_then(|s| Npd::from_json(s).map_err(|e| e.to_string()))?;
    let plan = plan_from_document(&spec, &shipped)?;
    audit_from_scratch(&spec, &plan)?;
    golden::check(
        env,
        workload,
        &[
            ("plan_fnv", format!("{:016x}", fnv1a(&artifact.plan_json))),
            ("cost", artifact.summary.cost.to_string()),
            ("phases", artifact.summary.phases.to_string()),
        ],
    )?;
    Ok(Ctx {
        text,
        options,
        pool,
        reference: artifact.plan_json,
        spec,
        plan,
    })
}

pub fn run(env: &Env, calibrator: &mut Calibrator, ensemble: bool) -> Result<Report, String> {
    let workload = if ensemble {
        "plan_ensemble"
    } else {
        "plan_single"
    };
    let mut report = Report::default();
    let (ctx, setup_s) = crate::repeat_setup(env, calibrator, || setup(env, workload, ensemble))?;
    report.metrics.set("setup_s", setup_s);

    if !env.traced {
        let times = crate::timed_ops(env.seconds, calibrator, || ctx.op_is_correct());
        crate::report_end_to_end(workload, &times, &mut report);
        return Ok(report);
    }

    let mut tr = Tracer::new();
    let mut searches = Vec::new();
    let share = if ensemble { 0.8 } else { 0.5 };
    let started = Instant::now();
    let (plain, staged, cpu_ms_per_op) = crate::alternate_ops(
        env.seconds * share,
        calibrator,
        || ctx.op_is_correct(),
        || match staged_plan(&mut tr, &ctx.text, &ctx.options, &ctx.pool) {
            Ok(s) => {
                searches.push(s.outcome.stats);
                s.plan_json == ctx.reference && s.outcome.plan == ctx.plan
            }
            Err(_) => false,
        },
    );
    crate::report_traced(&mut report, &tr, &plain, &staged, cpu_ms_per_op);
    stage_metrics(&tr, &mut report.metrics, false);
    search_metrics(&mut report.metrics, &searches);

    walk::probe(&mut tr, &ctx.spec, &ctx.plan, &mut report.metrics)?;
    if !ensemble {
        e_scale_pass(env, started, &mut report.metrics)?;
    }
    crate::write_trace(env, workload, &tr)?;
    Ok(report)
}

/// Staged plans of the preset-E document (11 056 switches / 178 096
/// circuits): do preset D's stage shares hold at paper scale? Up to three
/// plans, as many as the run's time box still has room for; skipped by runs
/// too short to fit one (~5 s).
fn e_scale_pass(env: &Env, started: Instant, m: &mut Metrics) -> Result<(), String> {
    if env.seconds < 10.0 {
        return Ok(());
    }
    let text = document(PresetId::E, env.seed)
        .to_json_pretty()
        .map_err(|e| e.to_string())?;
    let pool = WorkerPool::shared(1);
    let mut tr = Tracer::new();
    let mut spent = 0.0;
    for done in 0..3 {
        if done > 0 && started.elapsed().as_secs_f64() + spent > env.seconds {
            break;
        }
        let t = Instant::now();
        staged_plan(&mut tr, &text, &PlanRequestOptions::default(), &pool)?;
        spent = t.elapsed().as_secs_f64();
    }
    stage_metrics(&tr, m, true);
    Ok(())
}
