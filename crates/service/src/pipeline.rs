//! The one shared planning pipeline behind both `klotski plan` and the
//! service's `/v1/plan`.
//!
//! Byte-identity between the CLI and the daemon is a hard product
//! requirement (operators diff shipped plan documents), so there is exactly
//! one implementation of the NPD → region → spec → plan → attach sequence
//! and both front ends call it: the CLI through [`plan_document`], the
//! service's workers through its two halves, looking up the verdicts of a
//! cached plan between them. The CLI writes
//! [`PlanArtifact::plan_json`] to `-o`; the service returns the same bytes
//! as the response body.

use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::planner::{PlannerKind, SearchBudget};
use klotski_core::report::PlanAudit;
use klotski_core::{validate_and_audit_on, CostModel, PlanError, Prior, Verdicts};
use klotski_npd::api::{digest_hex, npd_digest, AuditResponse, PlanRequestOptions, PlanSummary};
use klotski_npd::convert::{attach_plan, check_switch_width, npd_to_region};
use klotski_npd::Npd;
use klotski_parallel::WorkerPool;
use klotski_topology::presets::{Preset, PresetId};
use klotski_topology::region::build_region;
use std::sync::{Arc, OnceLock};

/// Everything a finished planning job produces. Cached whole behind `Arc`
/// so repeated submissions reuse the bytes, the audit, and the summary.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// Job summary (costs, counters, digests). `cached` is false here; the
    /// serving layer flips it when answering from cache.
    pub summary: PlanSummary,
    /// The plan-attached NPD document, pretty-printed — byte-identical to
    /// what `klotski plan -o` writes for the same input.
    pub plan_json: Vec<u8>,
    /// Per-phase safety audit of the same plan.
    pub audit: PlanAudit,
    /// Lazily encoded audit response bodies (`cached: false` / `true`), so
    /// repeated audit answers reuse bytes instead of re-serializing the
    /// summary + audit on every hit.
    audit_body_miss: OnceLock<Arc<Vec<u8>>>,
    audit_body_hit: OnceLock<Arc<Vec<u8>>>,
}

impl PlanArtifact {
    /// A fresh artifact with empty response-byte caches.
    pub(crate) fn new(summary: PlanSummary, plan_json: Vec<u8>, audit: PlanAudit) -> Self {
        Self {
            summary,
            plan_json,
            audit,
            audit_body_miss: OnceLock::new(),
            audit_body_hit: OnceLock::new(),
        }
    }

    /// The audit response body for this artifact, encoded at most once per
    /// `cached` flag over the artifact's lifetime. Every caller gets the
    /// same bytes the first audit answer produced.
    pub(crate) fn audit_response_bytes(&self, cached: bool) -> Arc<Vec<u8>> {
        let slot = if cached {
            &self.audit_body_hit
        } else {
            &self.audit_body_miss
        };
        Arc::clone(slot.get_or_init(|| {
            let response = AuditResponse {
                summary: PlanSummary {
                    cached,
                    ..self.summary.clone()
                },
                audit: self.audit.clone(),
            };
            Arc::new(
                serde_json::to_string_pretty(&response)
                    .map(String::into_bytes)
                    .unwrap_or_else(|_| b"{}".to_vec()),
            )
        }))
    }
}

/// Why the pipeline rejected or failed a request.
#[derive(Debug)]
pub enum PipelineError {
    /// The request itself is unusable: bad JSON, inconsistent NPD, or
    /// out-of-range options. Maps to 4xx.
    Invalid(String),
    /// The planner gave up: infeasible migration, budget/deadline
    /// exhausted, unsupported type. Carries the planner error.
    Plan(PlanError),
    /// The pipeline produced something it refuses to ship (plan failed
    /// validation, serialization failed). Maps to 500.
    Internal(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Invalid(why) => write!(f, "invalid request: {why}"),
            PipelineError::Plan(e) => write!(f, "planning failed: {e}"),
            PipelineError::Internal(why) => write!(f, "internal error: {why}"),
        }
    }
}

impl PipelineError {
    /// True when the failure is the budget/deadline path.
    pub(crate) fn is_budget_exceeded(&self) -> bool {
        matches!(self, PipelineError::Plan(PlanError::BudgetExceeded { .. }))
    }
}

/// Parses and bounds-checks the request options into planner inputs.
fn resolve_options(
    options: &PlanRequestOptions,
) -> Result<(MigrationOptions, CostModel, PlannerKind), PipelineError> {
    let mut mig = MigrationOptions::default();
    if let Some(theta) = options.theta {
        if !(theta > 0.0 && theta <= 1.0) {
            return Err(PipelineError::Invalid(format!(
                "theta {theta} outside (0, 1]"
            )));
        }
        mig.theta = theta;
    }
    let alpha = options.alpha.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&alpha) {
        return Err(PipelineError::Invalid(format!(
            "alpha {alpha} outside [0, 1]"
        )));
    }
    if let Some(ensemble) = &options.ensemble {
        // Fail the request up front (4xx) instead of deep in spec
        // construction; realization against the topology can still fail
        // later, which surfaces as Invalid through the builder.
        ensemble
            .validate()
            .map_err(|e| PipelineError::Invalid(format!("ensemble: {e}")))?;
        mig.ensemble = Some(ensemble.clone());
    }
    let planner = PlannerKind::parse(options.planner.as_deref().unwrap_or("astar"))
        .map_err(PipelineError::Invalid)?;
    Ok((mig, CostModel { alpha }, planner))
}

/// Plans the migration an NPD document implies and attaches the phases.
///
/// This is the `klotski plan` pipeline verbatim: convert the NPD to a
/// region config, build the region, derive the migration spec, run the
/// selected planner under `budget`, validate and audit in one walk, attach.
/// `pool` is the lane count the search and the validating walk run on (the
/// service's workers pass theirs); `None` (the CLI) takes the spec's
/// `threads`. The plan bytes are identical at every lane count: lanes only
/// split the routing structure's advance, never a sum. Every call searches
/// from a cold ESC cache.
pub fn plan_document(
    npd: &Npd,
    options: &PlanRequestOptions,
    budget: SearchBudget,
    pool: Option<Arc<WorkerPool>>,
) -> Result<PlanArtifact, PipelineError> {
    let _span = klotski_telemetry::span!("pipeline.plan", "npd" = npd.name.as_str());
    let key = (npd_digest(npd), options.digest());
    let instance = build_instance(npd, options)?;
    plan_instance(npd, &instance, key, budget, pool, None).map(|(artifact, _)| artifact)
}

/// The planning instance a request builds: the migration spec of its
/// document and how to plan it.
pub(crate) struct Instance {
    pub spec: MigrationSpec,
    cost: CostModel,
    planner: PlannerKind,
}

/// The first half of [`plan_document`], under a `pipeline.build` span:
/// resolve the options, convert the NPD to a region config, build the
/// region, derive the migration spec.
pub(crate) fn build_instance(
    npd: &Npd,
    options: &PlanRequestOptions,
) -> Result<Instance, PipelineError> {
    let _span = klotski_telemetry::span!("pipeline.build");
    let (mig_options, cost, planner) = resolve_options(options)?;
    let cfg = npd_to_region(npd).map_err(|e| PipelineError::Invalid(e.to_string()))?;
    let (topology, handles) = build_region(&cfg);
    check_switch_width(&topology).map_err(|e| PipelineError::Invalid(e.to_string()))?;
    let preset_like = Preset {
        id: PresetId::A, // placeholder tag; planning reads topology + handles
        config: cfg,
        topology,
        handles,
    };
    let spec = MigrationBuilder::for_preset(&preset_like, &mig_options)
        .map_err(|e| PipelineError::Invalid(e.to_string()))?;
    Ok(Instance {
        spec,
        cost,
        planner,
    })
}

/// The second half of [`plan_document`], inside its `pipeline.plan` span,
/// with the `(npd_digest, options_digest)` pair already computed (the
/// service computes both once at admission, for the cache and coalescing
/// key): search — on `prior`'s verdicts when it fits — then validate and
/// audit (a `pipeline.validate` span), attach and serialize (a
/// `pipeline.encode` span). The validating walk never reads `prior`: it
/// judges every phase from a cold cache, so an inherited verdict cannot
/// ship an unsafe plan. Returns the artifact with the search's ESC cache.
pub(crate) fn plan_instance(
    npd: &Npd,
    instance: &Instance,
    key: (u64, u64),
    budget: SearchBudget,
    pool: Option<Arc<WorkerPool>>,
    prior: Option<Prior>,
) -> Result<(PlanArtifact, Verdicts), PipelineError> {
    let spec = &instance.spec;
    // One pool for the search and the validation replay.
    let pool = pool.unwrap_or_else(|| Arc::new(WorkerPool::new(spec.threads)));

    let planner = instance
        .planner
        .build(instance.cost, budget, Arc::clone(&pool));
    let (outcome, verdicts) = planner
        .plan_seeded(spec, prior)
        .map_err(PipelineError::Plan)?;

    let audit = {
        let _span = klotski_telemetry::span!("pipeline.validate");
        validate_and_audit_on(spec, &outcome.plan, pool)
            .map_err(|e| PipelineError::Internal(format!("produced plan failed validation: {e}")))?
    };

    let plan_json = {
        let _span = klotski_telemetry::span!("pipeline.encode");
        let mut shipped = npd.clone();
        attach_plan(&mut shipped, spec, &outcome.plan);
        shipped
            .to_json_pretty()
            .map_err(|e| PipelineError::Internal(format!("serialization failed: {e}")))?
            .into_bytes()
    };

    let steps = outcome.plan.phases().iter().map(|p| p.blocks.len()).sum();
    let summary = PlanSummary {
        name: spec.name.clone(),
        npd_digest: digest_hex(key.0),
        options_digest: digest_hex(key.1),
        planner: planner.name().to_string(),
        cost: outcome.cost,
        phases: outcome.plan.num_phases(),
        steps,
        states_visited: outcome.stats.states_visited,
        states_generated: outcome.stats.states_generated,
        states_pruned: outcome.stats.states_pruned,
        states_deduped: outcome.stats.states_deduped,
        sat_checks: outcome.stats.sat_checks,
        cache_hits: outcome.stats.cache_hits,
        full_evaluations: outcome.stats.full_evaluations,
        incremental_clean: outcome.stats.incremental_clean,
        incremental_dirty: outcome.stats.incremental_dirty,
        esc_entries: outcome.stats.esc_entries,
        esc_bytes: outcome.stats.esc_bytes,
        satcheck_ms: outcome.stats.satcheck_time.as_millis() as u64,
        planning_ms: outcome.stats.planning_time.as_millis() as u64,
        ensemble_matrices: outcome.stats.ensemble_matrices,
        ensemble_matrix_checks: outcome.stats.ensemble_matrix_checks,
        ensemble_short_circuits: outcome.stats.ensemble_short_circuits,
        ensemble: outcome
            .ensemble
            .as_ref()
            .map(|e| e.matrices.clone())
            .unwrap_or_default(),
        cached: false,
    };
    Ok((PlanArtifact::new(summary, plan_json, audit), verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_core::planner::{AStarPlanner, Planner};
    use klotski_npd::convert::region_to_npd;
    use klotski_topology::presets::{self};

    fn small_npd() -> Npd {
        region_to_npd(&presets::config(PresetId::A))
    }

    #[test]
    fn default_options_plan_and_attach() {
        let npd = small_npd();
        let artifact = plan_document(
            &npd,
            &PlanRequestOptions::default(),
            SearchBudget::default(),
            None,
        )
        .expect("preset A plans");
        assert!(artifact.summary.phases > 0);
        assert_eq!(artifact.summary.planner, "klotski-a*");
        assert!(!artifact.summary.cached);
        // The shipped document must parse and carry the phases.
        let shipped = Npd::from_json(std::str::from_utf8(&artifact.plan_json).unwrap()).unwrap();
        assert_eq!(shipped.phases.len(), artifact.summary.phases);
        assert_eq!(artifact.audit.phases.len(), artifact.summary.phases);
    }

    /// A document whose region has a switch wider than the routing engine
    /// indexes is an invalid request, refused before a spec is built.
    #[test]
    fn a_switch_too_wide_to_route_is_an_invalid_request() {
        let mut npd = small_npd();
        npd.hgrid.layers[1].uplinks_per_ssw = 11_000;
        let err = plan_document(
            &npd,
            &PlanRequestOptions::default(),
            SearchBudget::default(),
            None,
        )
        .map(|_| ())
        .expect_err("refused");
        assert!(
            matches!(&err, PipelineError::Invalid(m) if m.contains("per switch")),
            "{err:?}"
        );
    }

    /// Every preset's exported document plans (bench scale): its bytes are
    /// those of planning the preset itself and attaching the plan.
    #[test]
    fn every_exported_preset_plans_as_its_preset() {
        for id in PresetId::ALL {
            let preset = presets::build_for_bench(id);
            let npd = region_to_npd(&preset.config);
            let artifact = plan_document(
                &npd,
                &PlanRequestOptions::default(),
                SearchBudget::default(),
                None,
            )
            .unwrap_or_else(|e| panic!("the {id} document plans: {e}"));
            let spec = MigrationBuilder::for_preset(&preset, &MigrationOptions::default()).unwrap();
            let plan = AStarPlanner::default().plan(&spec).unwrap().plan;
            let mut shipped = npd;
            attach_plan(&mut shipped, &spec, &plan);
            assert_eq!(
                String::from_utf8(artifact.plan_json).unwrap(),
                shipped.to_json_pretty().unwrap(),
                "{id}"
            );
        }
    }

    #[test]
    fn dp_planner_selectable_and_matches_astar_cost() {
        let npd = small_npd();
        let astar = plan_document(
            &npd,
            &PlanRequestOptions::default(),
            SearchBudget::default(),
            None,
        )
        .unwrap();
        let dp = plan_document(
            &npd,
            &PlanRequestOptions {
                planner: Some("dp".into()),
                ..Default::default()
            },
            SearchBudget::default(),
            None,
        )
        .unwrap();
        assert_eq!(dp.summary.planner, "klotski-dp");
        // Both planners are optimal; costs agree even if tie-breaks differ.
        assert!((astar.summary.cost - dp.summary.cost).abs() < 1e-9);
    }

    #[test]
    fn shared_pool_output_is_byte_identical_to_private_pool() {
        let npd = small_npd();
        let plan = |options: &PlanRequestOptions, lanes: Option<usize>| {
            let pool = lanes.map(WorkerPool::shared);
            plan_document(&npd, options, SearchBudget::default(), pool).unwrap()
        };
        let phases = |artifact: &PlanArtifact| {
            Npd::from_json(std::str::from_utf8(&artifact.plan_json).unwrap())
                .unwrap()
                .phases
        };

        let single = PlanRequestOptions::default();
        let private = plan(&single, None);
        let shared = plan(&single, Some(2));
        assert_eq!(private.plan_json, shared.plan_json);
        assert_eq!(private.summary.cost, shared.summary.cost);

        // An ensemble plan is byte-identical at every lane count.
        let k3: PlanRequestOptions =
            serde_json::from_str(r#"{"ensemble": {"k": 3, "seed": 11}}"#).unwrap();
        let one_lane = plan(&k3, Some(1));
        for lanes in [2, 4] {
            assert_eq!(
                one_lane.plan_json,
                plan(&k3, Some(lanes)).plan_json,
                "{lanes} lanes"
            );
        }

        // K = 1 is the base matrix alone: the single-matrix plan.
        let k1: PlanRequestOptions =
            serde_json::from_str(r#"{"ensemble": {"k": 1, "seed": 11}}"#).unwrap();
        let k1 = plan(&k1, None);
        assert_eq!(phases(&k1), phases(&private));
        assert_eq!(k1.summary.cost, private.summary.cost);
    }

    #[test]
    fn bad_options_are_rejected_as_invalid() {
        let npd = small_npd();
        for options in [
            PlanRequestOptions {
                theta: Some(1.5),
                ..Default::default()
            },
            PlanRequestOptions {
                alpha: Some(-0.1),
                ..Default::default()
            },
            PlanRequestOptions {
                planner: Some("sat".into()),
                ..Default::default()
            },
        ] {
            let err = plan_document(&npd, &options, SearchBudget::default(), None)
                .expect_err("must reject");
            assert!(matches!(err, PipelineError::Invalid(_)), "{err}");
        }
    }

    #[test]
    fn ensemble_options_plan_and_report_per_matrix_counters() {
        let npd = small_npd();
        let options: PlanRequestOptions =
            serde_json::from_str(r#"{"ensemble": {"k": 2, "seed": 11}}"#).unwrap();
        let artifact = plan_document(&npd, &options, SearchBudget::default(), None)
            .expect("preset A plans under a K=2 ensemble");
        assert_eq!(artifact.summary.ensemble_matrices, 2);
        assert_eq!(artifact.summary.ensemble.len(), 2);
        assert!(artifact.summary.ensemble_matrix_checks > 0);
        assert_eq!(artifact.summary.ensemble[0].label, "base");
        // The ensemble spec keys the cache: its options digest must differ
        // from the single-matrix default.
        assert_ne!(
            artifact.summary.options_digest,
            digest_hex(PlanRequestOptions::default().digest())
        );
    }

    #[test]
    fn invalid_ensemble_options_are_rejected_as_invalid() {
        let npd = small_npd();
        for body in [
            r#"{"ensemble": {"k": 0, "seed": 1}}"#,
            r#"{"ensemble": {"k": 999, "seed": 1}}"#,
            r#"{"ensemble": {"k": 2, "seed": 1, "ewma_alphas": [1.5]}}"#,
            r#"{"ensemble": {"k": 2, "seed": 1, "surge_factor": 0.5}}"#,
        ] {
            let options: PlanRequestOptions = serde_json::from_str(body).unwrap();
            let err = plan_document(&npd, &options, SearchBudget::default(), None)
                .expect_err("must reject");
            assert!(matches!(err, PipelineError::Invalid(_)), "{err}");
        }
        // A seedless ensemble must not even deserialize: reproducibility
        // requires the seed on the wire.
        assert!(serde_json::from_str::<PlanRequestOptions>(r#"{"ensemble": {"k": 2}}"#).is_err());
    }

    #[test]
    fn expired_deadline_surfaces_budget_exceeded() {
        let npd = small_npd();
        let budget = SearchBudget::default()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = plan_document(&npd, &PlanRequestOptions::default(), budget, None)
            .expect_err("expired deadline cannot plan");
        assert!(err.is_budget_exceeded(), "{err}");
    }
}
