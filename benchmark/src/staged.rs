//! `pipeline::plan_document` re-executed stage by stage through the same
//! public functions, with a harness span around each, plus the safety oracle
//! that re-routes every intermediate state of a returned plan from scratch.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::plan::{validate_plan, MigrationPlan, PlanStep};
use klotski_core::planner::{AStarPlanner, PlanOutcome, PlanStats, Planner};
use klotski_core::report::audit_plan;
use klotski_npd::api::{npd_digest, PlanRequestOptions};
use klotski_npd::convert::{attach_plan, npd_to_region};
use klotski_npd::Npd;
use klotski_parallel::WorkerPool;
use klotski_routing::evaluate_policy;
use klotski_topology::presets::{Preset, PresetId};
use klotski_topology::region::build_region;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

/// What the pipeline's private `resolve_options` yields for the two option
/// sets the workloads send: defaults, optionally with an ensemble.
pub fn migration_options(options: &PlanRequestOptions) -> MigrationOptions {
    MigrationOptions {
        ensemble: options.ensemble.clone(),
        ..MigrationOptions::default()
    }
}

/// NPD → region → migration spec, as the pipeline builds it.
pub fn build_spec(npd: &Npd, options: &PlanRequestOptions) -> Result<MigrationSpec, String> {
    let config = npd_to_region(npd).map_err(|e| e.to_string())?;
    let (topology, handles) = build_region(&config);
    let preset = Preset {
        id: PresetId::A, // placeholder tag, as in the pipeline
        config,
        topology,
        handles,
    };
    MigrationBuilder::for_preset(&preset, &migration_options(options)).map_err(|e| e.to_string())
}

/// Output of one staged op.
pub struct Staged {
    pub plan_json: Vec<u8>,
    pub spec: MigrationSpec,
    pub outcome: PlanOutcome,
}

/// One op of the `plan_*` workloads, stage by stage. The caller asserts that
/// `plan_json` equals `plan_document`'s bytes for the same input.
pub fn staged_plan(
    tr: &mut Tracer,
    text: &str,
    options: &PlanRequestOptions,
    pool: &Arc<WorkerPool>,
) -> Result<Staged, String> {
    tr.next_op();
    tr.span("op", |tr| {
        let npd = tr
            .span("npd.decode", |_| Npd::from_json(text))
            .map_err(|e| e.to_string())?;
        black_box(tr.span("npd.digest", |_| (npd_digest(&npd), options.digest())));
        let config = tr
            .span("npd.to_region", |_| npd_to_region(&npd))
            .map_err(|e| e.to_string())?;
        let (topology, handles) = tr.span("topology.build_region", |_| build_region(&config));
        let preset = Preset {
            id: PresetId::A,
            config,
            topology,
            handles,
        };
        let mig = migration_options(options);
        let spec = tr
            .span("core.spec_build", |_| {
                MigrationBuilder::for_preset(&preset, &mig)
            })
            .map_err(|e| e.to_string())?;
        let planner = AStarPlanner {
            pool: Some(Arc::clone(pool)),
            ..AStarPlanner::default()
        };
        let outcome = tr
            .span("core.astar.plan", |_| planner.plan(&spec))
            .map_err(|e| e.to_string())?;
        tr.span("core.validate", |_| validate_plan(&spec, &outcome.plan))
            .map_err(|e| e.to_string())?;
        black_box(tr.span("core.audit", |_| audit_plan(&spec, &outcome.plan)));
        let plan_json = tr
            .span("npd.attach_encode", |_| {
                let mut shipped = npd.clone();
                attach_plan(&mut shipped, &spec, &outcome.plan);
                shipped.to_json_pretty()
            })
            .map_err(|e| e.to_string())?
            .into_bytes();
        Ok(Staged {
            plan_json,
            spec,
            outcome,
        })
    })
}

/// Medians of the staged op's stages → per-layer metrics. The E-scale pass
/// reports the four stages marked so, under names ending in `.e`.
pub fn stage_metrics(tr: &Tracer, m: &mut Metrics, e_scale: bool) {
    for (metric, span, unit_ns, at_e_scale) in [
        ("npd.decode_us", "npd.decode", 1e3, false),
        ("npd.digest_us", "npd.digest", 1e3, false),
        ("npd.to_region_us", "npd.to_region", 1e3, false),
        ("npd.attach_encode_us", "npd.attach_encode", 1e3, false),
        (
            "topology.build_region_ms",
            "topology.build_region",
            1e6,
            true,
        ),
        ("core.spec_build_ms", "core.spec_build", 1e6, true),
        ("core.astar.plan_ms", "core.astar.plan", 1e6, true),
        ("core.validate_ms", "core.validate", 1e6, true),
        ("core.audit_ms", "core.audit", 1e6, false),
    ] {
        let value = median(&tr.durations(span, unit_ns));
        if !e_scale {
            m.set(metric, value);
        } else if at_e_scale {
            m.set(&format!("{metric}.e"), value);
        }
    }
}

/// Search statistics of the staged ops → per-layer metrics: medians of the
/// two times; the counters repeat exactly from op to op, so the last op's
/// stand for all.
pub fn search_metrics(m: &mut Metrics, searches: &[PlanStats]) {
    let Some(s) = searches.last() else {
        return;
    };
    let ms = |f: fn(&PlanStats) -> std::time::Duration| {
        let all: Vec<f64> = searches.iter().map(|s| f(s).as_secs_f64() * 1e3).collect();
        median(&all)
    };
    m.set("core.satcheck_ms", ms(|s| s.satcheck_time));
    m.set(
        "core.search_other_ms",
        ms(|s| s.planning_time.saturating_sub(s.satcheck_time)),
    );
    m.set("core.sat_checks", s.sat_checks as f64);
    m.set("core.full_evaluations", s.full_evaluations as f64);
    m.set("core.esc_hit_ratio", s.cache_hit_rate());
    m.set("core.states_visited", s.states_visited as f64);
    m.set("core.states_generated", s.states_generated as f64);
    m.set(
        "core.ensemble_matrix_checks",
        s.ensemble_matrix_checks as f64,
    );
    m.set(
        "core.ensemble_short_circuits",
        s.ensemble_short_circuits as f64,
    );
}

/// Reads the plan back out of a shipped document: phase block labels →
/// block-level steps of `spec`.
pub fn plan_from_document(spec: &MigrationSpec, shipped: &Npd) -> Result<MigrationPlan, String> {
    let by_label: HashMap<&str, usize> = spec
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.label.as_str(), i))
        .collect();
    if by_label.len() != spec.blocks.len() {
        return Err("block labels are not unique".into());
    }
    let mut steps = Vec::new();
    for phase in &shipped.phases {
        for label in &phase.blocks {
            let &i = by_label
                .get(label.as_str())
                .ok_or_else(|| format!("phase {} names unknown block {label:?}", phase.index))?;
            let block = &spec.blocks[i];
            steps.push(PlanStep {
                kind: block.kind,
                block: block.id,
            });
        }
    }
    Ok(MigrationPlan::new(steps))
}

/// The safety oracle: applies `plan` block by block and re-routes every
/// intermediate state from scratch with the naive `EcmpRouter` — never the
/// engine the planner used — under every matrix of the spec. Each state must
/// reach every demand, stay within θ and within port budgets, and the last
/// one must be the migration target. Returns the number of states checked.
pub fn audit_from_scratch(spec: &MigrationSpec, plan: &MigrationPlan) -> Result<usize, String> {
    let topo = &spec.topology;
    let mut state = spec.initial.clone();
    for (i, step) in plan.steps().iter().enumerate() {
        let block = spec
            .blocks
            .get(step.block.index())
            .ok_or_else(|| format!("step {i}: unknown block"))?;
        block.apply(topo, &mut state, spec.kind_is_drain(block.kind));
        for (k, demands) in std::iter::once(&spec.demands)
            .chain(&spec.extra_demands)
            .enumerate()
        {
            let verdict = evaluate_policy(topo, &state, demands, spec.theta, spec.split);
            if !verdict.satisfied() {
                return Err(format!(
                    "step {i} matrix {k}: unsafe ({} unreachable, max utilization {:.4} vs θ {})",
                    verdict.unreachable_demands, verdict.report.max_utilization, spec.theta
                ));
            }
        }
        if spec.check_ports && topo.has_port_violation(&state) {
            return Err(format!("step {i}: port budget exceeded"));
        }
    }
    if plan.num_steps() != spec.num_blocks() || state != spec.target_state() {
        return Err("plan does not end at the migration target".into());
    }
    Ok(plan.num_steps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::planner::SearchBudget;
    use klotski_npd::convert::region_to_npd;
    use klotski_service::pipeline::plan_document;
    use klotski_topology::presets;

    #[test]
    fn staged_replay_matches_plan_document_on_preset_a() {
        let npd = region_to_npd(&presets::config(PresetId::A));
        let text = npd.to_json_pretty().unwrap();
        let pool = WorkerPool::shared(1);
        for options in [
            PlanRequestOptions::default(),
            PlanRequestOptions {
                ensemble: Some(klotski_core::EnsembleSpec::with_k(3, 5)),
                ..PlanRequestOptions::default()
            },
        ] {
            let whole = plan_document(
                &npd,
                &options,
                SearchBudget::default(),
                Some(Arc::clone(&pool)),
            )
            .unwrap();
            let mut tr = Tracer::new();
            let staged = staged_plan(&mut tr, &text, &options, &pool).unwrap();
            assert_eq!(staged.plan_json, whole.plan_json);
            assert_eq!(staged.outcome.cost, whole.summary.cost);

            let shipped = Npd::from_json(std::str::from_utf8(&whole.plan_json).unwrap()).unwrap();
            let plan = plan_from_document(&staged.spec, &shipped).unwrap();
            assert_eq!(plan, staged.outcome.plan);
            assert_eq!(
                audit_from_scratch(&staged.spec, &plan).unwrap(),
                staged.spec.num_blocks()
            );
            // Every stage is a child of the op's root span.
            assert_eq!(tr.spans().iter().filter(|s| s.parent == 0).count(), 1);
            assert_eq!(tr.spans().len(), 10);
        }
    }

    #[test]
    fn oracle_rejects_an_unsafe_order() {
        let npd = region_to_npd(&presets::config(PresetId::A));
        let spec = build_spec(&npd, &PlanRequestOptions::default()).unwrap();
        // All drains first, then all undrains: the migrated layer goes dark.
        let mut steps: Vec<PlanStep> = spec
            .blocks
            .iter()
            .map(|b| PlanStep {
                kind: b.kind,
                block: b.id,
            })
            .collect();
        steps.sort_by_key(|s| !spec.kind_is_drain(s.kind));
        assert!(audit_from_scratch(&spec, &MigrationPlan::new(steps)).is_err());
    }
}
