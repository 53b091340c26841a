//! The controller event loop: Apply → Audit → {Advance, Pause, Replan,
//! Rollback}.
//!
//! Each iteration applies one *batch* of blocks — canary-first: the first
//! `canary_blocks` blocks of a phase apply and audit before the remainder
//! does — then runs a **shadow audit**: it re-derives the actual post-batch
//! topology (the planned overlay plus every injected disturbance), diffs it
//! against the planned state, and re-runs the satisfiability check on the
//! real one under the realized demand — on the run's one live routing
//! engine, which the lookahead's rare sweeps share. A safe audit advances;
//! an unsafe audit (or a lookahead showing the remaining plan has become
//! unsafe) **pauses** the run and triggers an **incremental replan** from the
//! current compact state — the residual migration seeded with the observed
//! topology and realized demand. One ESC cache runs through the run — the
//! lookahead reads it in place, sweeping only what it cannot clear: the
//! initial plan's search leaves its entries, and a replan whose observed
//! state is exactly the canonical overlay of its progress in the cache's
//! root spec (no failure or foreign drain still active) is handed them
//! ([`Prior`](klotski_core::Prior)): every state an earlier search routed
//! is decided from what that search measured wherever the two-sided
//! rescaling bound decides it, and its outcome's cache seeds the next
//! replan. A replan from a drifted state inherits nothing — its keys would
//! name other topologies — and its cache roots a fresh chain at its own
//! spec. When replanning fails or the replan budget runs out, the
//! controller **rolls back** to the most recent audited-safe snapshot that
//! still audits safe under the current world.
//!
//! ## Determinism
//!
//! A run is a pure function of `(spec, plan, config)`: victim selection
//! draws from a seeded RNG, disturbance overlays iterate in `BTreeMap`
//! order, routing verdicts are bit-identical at any thread count, and
//! state-bounded replans expand identically everywhere. Wall-clock only
//! enters latency fields, which [`ControllerReport::fingerprint`] excludes
//! — so a fixed scenario seed yields one fingerprint at any lane count.
//! Time-bound replan aborts (`time_limit_ms`, deadlines) are the one
//! machine-dependent escape hatch; determinism holds whenever the state
//! budget binds first.

use crate::fleet::{pick_uninvolved_circuit, pick_uninvolved_switch, Drift, FleetSim};
use crate::flight::{FlightBundle, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::scenario::{surges, EventKind, ReplanPolicy, Scenario, ScenarioEvent};
use klotski_core::compact::CompactState;
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::plan::{MigrationPlan, PlanPhase};
use klotski_core::planner::{PlanStats, SearchBudget};
use klotski_core::satcheck::{LiveAudit, SatStats, Verdicts};
use klotski_core::{CostModel, LiveEngine, LookaheadTrip, PlanError, PlanReplay, TripCause};
use klotski_parallel::WorkerPool;
use klotski_telemetry::{registry, span, Counter, LogLinearHistogram};
use klotski_topology::{presets, CircuitId, Fnv1a, NetState, SwitchId};
use klotski_traffic::surge::realized_demand;
use klotski_traffic::DemandMatrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which planner the controller re-invokes on pause: the core's planner
/// factory under the name this crate has always exported.
pub use klotski_core::planner::PlannerKind as ReplannerKind;

/// Controller tunables, independent of any scenario file.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Seed for victim selection.
    pub seed: u64,
    /// Canary batch size; 0 applies whole phases at once.
    pub canary_blocks: usize,
    /// Organic demand growth per executed step.
    pub demand_growth_per_step: f64,
    /// Scripted disturbances, fired by step index.
    pub events: Vec<ScenarioEvent>,
    /// Replan budget and rollback trigger.
    pub replan: ReplanPolicy,
    /// Planner used for replans.
    pub replanner: ReplannerKind,
    /// Phase-cost α for replans.
    pub alpha: f64,
    /// Hard wall-clock deadline for the whole run (service jobs); checked
    /// between batches and passed into every replan's search budget.
    pub deadline: Option<Instant>,
    /// Flight-recorder window: structured events retained for the
    /// diagnostics bundle frozen on pause/rollback/abort (≥ 1).
    pub flight_capacity: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            seed: 23,
            canary_blocks: 1,
            demand_growth_per_step: 0.0,
            events: Vec::new(),
            replan: ReplanPolicy::default(),
            replanner: ReplannerKind::AStar,
            alpha: 0.0,
            deadline: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// One applied batch and its shadow audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Execution-order step index (across replans).
    pub step: usize,
    /// Action kind applied.
    pub action: String,
    /// Blocks in the batch.
    pub blocks: usize,
    /// True when the batch was a canary (a strict prefix of its phase).
    pub canary: bool,
    /// Shadow-audit verdict on the observed state under realized demand.
    pub safe: bool,
    /// Observed max circuit utilization.
    pub max_utilization: f64,
    /// Circuits usable in the plan but down in the fleet.
    pub drift_circuits: usize,
    /// Switches up in the plan but down in the fleet.
    pub drift_switches: usize,
    /// Whether the controller paused after this batch.
    pub paused: bool,
    /// The violated constraint that triggered the pause.
    pub pause_reason: Option<String>,
    /// Ensemble matrix index (0 = base, k = k-th variant) whose audit
    /// failed first, in index order; `None` when every matrix audited safe
    /// or the run has no ensemble.
    #[serde(default)]
    pub ensemble_fail_matrix: Option<usize>,
}

/// One replanning attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanRecord {
    /// Step after which the replan ran.
    pub at_step: usize,
    /// Whether the planner produced a plan.
    pub ok: bool,
    /// Phases in the new plan (0 on failure).
    pub phases: usize,
    /// Planner failure, if any.
    pub error: Option<String>,
    /// Wall-clock planning latency, milliseconds. Excluded from
    /// [`ControllerReport::fingerprint`].
    pub latency_ms: f64,
    /// Search counters. `cache_hits`, `rescaled` and `full_evaluations`
    /// split the checks into ESC hits, states decided off the run's
    /// inherited entries without routing, and evaluations; the
    /// `incremental_*` destination counters are the replanner's engine's —
    /// zero when every check was inherited, as the engine is built by the
    /// first route.
    pub stats: PlanStats,
}

/// A rollback to the last audited-safe snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollbackRecord {
    /// Step at which the rollback was triggered.
    pub at_step: usize,
    /// Step whose snapshot was restored; `None` = the migration's initial
    /// state.
    pub to_step: Option<usize>,
    /// Snapshots discarded while walking back to a state that still audits
    /// safe under the current world.
    pub snapshots_skipped: usize,
    /// Whether the restored state audits safe.
    pub safe: bool,
}

/// Full trace of one controller run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerReport {
    /// Scenario (or spec) name.
    pub name: String,
    /// Whether the migration reached its target.
    pub completed: bool,
    /// Whether the run ended in a rollback.
    pub rolled_back: bool,
    /// Why the run stopped early, if it did.
    pub abort_reason: Option<String>,
    /// Every applied batch with its shadow audit.
    pub steps: Vec<StepRecord>,
    /// Every replanning attempt.
    pub replans: Vec<ReplanRecord>,
    /// The rollback, if one happened.
    pub rollback: Option<RollbackRecord>,
    /// Phases of the initial plan.
    pub initial_phases: usize,
    /// Search counters of the initial plan (zeroed when the caller planned
    /// externally).
    pub initial_stats: PlanStats,
    /// Initial planning latency, milliseconds (excluded from the
    /// fingerprint).
    pub initial_latency_ms: f64,
    /// The live engine's counters: `live_audits` counts every shadow audit
    /// (and nothing else); the `incremental_*` destination counters cover
    /// every route the run made, the lookahead's sweeps included.
    pub audit_stats: SatStats,
    /// Flight-recorder diagnostics bundle, frozen at the *last*
    /// safe-pause, rollback, or abort of the run; `None` for a run that
    /// never stopped. Excluded from [`fingerprint`](Self::fingerprint).
    #[serde(default)]
    pub flight: Option<FlightBundle>,
}

impl ControllerReport {
    /// Pauses recorded over the run.
    pub fn pauses(&self) -> usize {
        self.steps.iter().filter(|s| s.paused).count()
    }

    /// Terminal-outcome label shared by the service's run-request counter,
    /// job spans, SSE terminal events, and bench rows: `completed` |
    /// `rolled_back` | `paused` (stopped early — deadline or exhausted
    /// pause — without rolling back). Job-level errors that never produce
    /// a report (invalid scenario, initial-plan failure) are labeled
    /// `failed` by the service.
    pub fn outcome_label(&self) -> &'static str {
        if self.completed {
            "completed"
        } else if self.rolled_back {
            "rolled_back"
        } else {
            "paused"
        }
    }

    /// FNV-1a hash over every deterministic field — equal across thread
    /// counts for a fixed scenario seed. Latency fields and search/audit
    /// counters are excluded; routed utilizations are included bit-exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.str(&self.name);
        h.u64(self.completed as u64);
        h.u64(self.rolled_back as u64);
        opt_str(&mut h, self.abort_reason.as_deref());
        h.u64(self.steps.len() as u64);
        for s in &self.steps {
            h.u64(s.step as u64);
            h.str(&s.action);
            h.u64(s.blocks as u64);
            h.u64(s.canary as u64);
            h.u64(s.safe as u64);
            h.u64(s.max_utilization.to_bits());
            h.u64(s.drift_circuits as u64);
            h.u64(s.drift_switches as u64);
            h.u64(s.paused as u64);
            opt_str(&mut h, s.pause_reason.as_deref());
            h.u64(s.ensemble_fail_matrix.map(|k| k as u64 + 1).unwrap_or(0));
        }
        h.u64(self.replans.len() as u64);
        for r in &self.replans {
            h.u64(r.at_step as u64);
            h.u64(r.ok as u64);
            h.u64(r.phases as u64);
            opt_str(&mut h, r.error.as_deref());
        }
        if let Some(rb) = &self.rollback {
            h.u64(rb.at_step as u64);
            h.u64(rb.to_step.map(|s| s as u64 + 1).unwrap_or(0));
            h.u64(rb.snapshots_skipped as u64);
            h.u64(rb.safe as u64);
        }
        h.u64(self.initial_phases as u64);
        h.finish()
    }
}

/// Mixes an optional string into a fingerprint: a tag, then the string.
fn opt_str(h: &mut Fnv1a, s: Option<&str>) {
    match s {
        None => h.u64(0),
        Some(s) => h.u64(1).str(s),
    };
}

/// Controller failure surfaced to callers (scenario problems, initial
/// planning failures).
#[derive(Debug)]
pub enum ControllerError {
    /// The scenario failed validation.
    Scenario(crate::scenario::ScenarioError),
    /// The initial plan could not be produced.
    InitialPlan(PlanError),
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::Scenario(e) => write!(f, "{e}"),
            ControllerError::InitialPlan(e) => write!(f, "initial planning failed: {e}"),
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<crate::scenario::ScenarioError> for ControllerError {
    fn from(e: crate::scenario::ScenarioError) -> Self {
        ControllerError::Scenario(e)
    }
}

/// `klotski_controller_*` registry handles, registered once per process.
struct ControllerMetrics {
    phases: Arc<Counter>,
    audits: Arc<Counter>,
    audit_failures: Arc<Counter>,
    pauses: Arc<Counter>,
    replans: Arc<Counter>,
    replan_failures: Arc<Counter>,
    rollbacks: Arc<Counter>,
    /// Pending states the lookahead cleared off the run's ESC cache alone.
    lookahead_bound: Arc<Counter>,
    /// Pending states the lookahead swept under the realized matrix.
    lookahead_swept: Arc<Counter>,
    /// Log-linear (p999-resolving) — replan tails are the long-horizon
    /// latency story.
    replan_seconds: Arc<LogLinearHistogram>,
    /// Log-linear wall time of every shadow-audit satisfiability check.
    audit_seconds: Arc<LogLinearHistogram>,
}

fn controller_metrics() -> ControllerMetrics {
    let reg = registry();
    for (name, help) in [
        (
            "klotski_controller_phases_applied_total",
            "Batches applied by the controller (canary batches count).",
        ),
        (
            "klotski_controller_audits_total",
            "Shadow audits of the observed fleet state.",
        ),
        (
            "klotski_controller_audit_failures_total",
            "Shadow audits that found a violated constraint.",
        ),
        (
            "klotski_controller_pauses_total",
            "Safe-pauses (audit failure or invalidated remaining plan).",
        ),
        (
            "klotski_controller_replans_total",
            "Successful incremental replans.",
        ),
        (
            "klotski_controller_replan_failures_total",
            "Replans that failed or exceeded their budget.",
        ),
        (
            "klotski_controller_rollbacks_total",
            "Rollbacks to the last audited-safe snapshot.",
        ),
        (
            "klotski_controller_lookahead_states_total",
            "Pending plan states the lookahead judged, by how: cleared by the headroom bound off the run's ESC cache, or swept under the realized matrix.",
        ),
        (
            "klotski_controller_replan_seconds",
            "Replanning latency (successful and failed attempts).",
        ),
        (
            "klotski_controller_audit_seconds",
            "Shadow-audit satisfiability-check wall time.",
        ),
    ] {
        reg.set_help(name, help);
    }
    ControllerMetrics {
        phases: reg.counter("klotski_controller_phases_applied_total"),
        audits: reg.counter("klotski_controller_audits_total"),
        audit_failures: reg.counter("klotski_controller_audit_failures_total"),
        pauses: reg.counter("klotski_controller_pauses_total"),
        replans: reg.counter("klotski_controller_replans_total"),
        replan_failures: reg.counter("klotski_controller_replan_failures_total"),
        rollbacks: reg.counter("klotski_controller_rollbacks_total"),
        lookahead_bound: reg.counter("klotski_controller_lookahead_states_total{how=\"bound\"}"),
        lookahead_swept: reg.counter("klotski_controller_lookahead_states_total{how=\"swept\"}"),
        replan_seconds: reg.loglinear("klotski_controller_replan_seconds"),
        audit_seconds: reg.loglinear("klotski_controller_audit_seconds"),
    }
}

/// An audited-safe snapshot the controller can roll back to.
struct SafePoint {
    /// Step whose audit blessed this snapshot; `None` = initial state.
    step: Option<usize>,
    planned: NetState,
}

/// What [`run`] carries from batch to batch besides the plan cursor: the
/// growing report, the simulated fleet, the live routing engine, the rollback
/// stack, the flight recorder and the replan budget used. Auditing, freezing
/// a flight bundle and rolling back all read and write this state, so they
/// are its methods.
struct RunLoop<'a> {
    cfg: &'a ControllerConfig,
    met: ControllerMetrics,
    report: ControllerReport,
    fleet: FleetSim,
    /// The run's one routing engine: every shadow audit (`audit_live`) and
    /// every lookahead sweep the run's ESC cache cannot spare routes on it,
    /// each observed or pending state as a delta against whatever it routed
    /// last. It has no ESC cache and shares nothing with the initial
    /// planner's or a replanner's checker. One engine serves the whole run —
    /// every spec generation shares the topology.
    live: LiveEngine,
    safe_points: Vec<SafePoint>,
    recorder: FlightRecorder,
    replans_done: usize,
}

/// The ESC cache the run's searches hand down, and the spec generation its
/// keys index: the active spec's origin sits at `frame` in `root`'s box.
/// The run's own spec is borrowed; a chain re-rooted at a replan owns its
/// residual.
struct Lineage<'a> {
    root: Cow<'a, MigrationSpec>,
    frame: CompactState,
    verdicts: Verdicts,
}

impl<'a> Lineage<'a> {
    /// A chain rooted at `root`, holding what its search left.
    fn rooted(root: Cow<'a, MigrationSpec>, verdicts: Verdicts) -> Self {
        Self {
            frame: CompactState::origin(root.num_types()),
            root,
            verdicts,
        }
    }
}

/// Executes `plan` for `spec` under `cfg`, returning the full run trace.
/// Deterministic for a fixed `cfg.seed` (see the module docs). Without the
/// search's cache, the lookahead sweeps every state it judges until the
/// first replan, which searches cold; the report is the same.
pub fn run(spec: &MigrationSpec, plan: &MigrationPlan, cfg: &ControllerConfig) -> ControllerReport {
    let pool = Arc::new(WorkerPool::new(spec.threads.max(1)));
    run_seeded(spec, plan, Verdicts::default(), cfg, pool)
}

/// [`run`], handed the ESC cache of the search that produced `plan`: the
/// lookahead reads it in place, clearing every pending state it measured
/// wherever the rescaling bound decides, and the first replan inherits it
/// (an empty cache: sweep every pending state, replan cold). The cache only
/// saves work: the report is the same. Audits, sweeps and replans advance
/// on `pool` — for a scenario run, the initial search's.
fn run_seeded(
    spec: &MigrationSpec,
    plan: &MigrationPlan,
    verdicts: Verdicts,
    cfg: &ControllerConfig,
    pool: Arc<WorkerPool>,
) -> ControllerReport {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut ctl = RunLoop {
        cfg,
        met: controller_metrics(),
        report: ControllerReport {
            name: spec.name.clone(),
            completed: false,
            rolled_back: false,
            abort_reason: None,
            steps: Vec::new(),
            replans: Vec::new(),
            rollback: None,
            initial_phases: plan.num_phases(),
            initial_stats: PlanStats::default(),
            initial_latency_ms: 0.0,
            audit_stats: SatStats::default(),
            flight: None,
        },
        fleet: FleetSim::new(spec.initial.clone()),
        live: LiveEngine::new(spec, pool.clone()),
        safe_points: vec![SafePoint {
            step: None,
            planned: spec.initial.clone(),
        }],
        recorder: FlightRecorder::new(cfg.flight_capacity),
        replans_done: 0,
    };
    // The lookahead reads the lineage's cache at the active spec's frame; a
    // replan re-bases both, so each plan generation gets its own replay.
    let mut lineage = Lineage::rooted(Cow::Borrowed(spec), verdicts);
    let mut lookahead = PlanReplay::new(spec, &lineage.frame);

    let mut active = spec.clone();
    let mut pending: Vec<PlanPhase> = plan.phases();
    let mut progress = CompactState::origin(active.num_types());
    let base_demands = spec.demands.clone();
    let surges = surges(&cfg.events);
    let mut multiplier = 1.0_f64;
    let mut step = 0usize;

    'run: while let Some(phase) = pending.first().cloned() {
        if cfg.deadline.is_some_and(|d| Instant::now() > d) {
            let reason = format!("step {step}: run deadline exceeded");
            ctl.recorder.note("abort", step, &reason);
            let drift = ctl.fleet.drift(&active.topology);
            ctl.freeze("deadline-abort", step, None, &drift, ctl.safe_point_steps());
            ctl.report.abort_reason = Some(reason);
            break 'run;
        }

        // --- Apply: canary-first batch of the current phase.
        let total = phase.blocks.len();
        let take = if cfg.canary_blocks == 0 || cfg.canary_blocks >= total {
            total
        } else {
            cfg.canary_blocks
        };
        let canary = take < total;
        let action = active.actions.kind(phase.kind).to_string();
        let mut span = span!(
            "controller.phase",
            "step" = step,
            "action" = action.clone(),
            "blocks" = take,
            "canary" = canary,
        );
        for _ in 0..take {
            active.apply_next(&mut ctl.fleet.planned, &progress, phase.kind);
            progress = progress.advanced(phase.kind);
        }
        if take == total {
            pending.remove(0);
        } else {
            pending[0].blocks.drain(..take);
        }
        ctl.met.phases.inc();

        // --- The world moves: growth, expiring and newly fired events.
        multiplier *= 1.0 + cfg.demand_growth_per_step;
        ctl.fleet.expire(step);
        inject_events(&cfg.events, step, &active, &mut ctl.fleet, &mut rng);
        let realized = realized_demand(&base_demands, multiplier, &surges, step);

        // --- Shadow audit: re-derive the actual topology, diff against the
        // plan, re-run the satisfiability check on the real state.
        let observed = ctl.fleet.observed(&active.topology);
        let drift = ctl.fleet.drift(&active.topology);
        let (audit, ensemble_fail) = ctl.audit(&active, &observed, &realized);
        if !audit.safe {
            ctl.met.audit_failures.inc();
        }

        let mut pause_reason: Option<String> = audit.violation();
        if let Some(k) = ensemble_fail {
            if k > 0 {
                pause_reason = pause_reason.map(|v| format!("ensemble matrix {k}: {v}"));
            }
        }
        if pause_reason.is_none() {
            ctl.safe_points.push(SafePoint {
                step: Some(step),
                planned: ctl.fleet.planned.clone(),
            });
            // Lookahead: a world change can leave the *current* state safe
            // but doom a later one; §7.1 replans before walking into it.
            if !pending.is_empty() {
                let verdict = lookahead.lookahead(
                    &mut ctl.live,
                    &lineage.verdicts,
                    &active,
                    &progress,
                    &pending,
                    &realized,
                );
                ctl.met.lookahead_bound.add(verdict.bound as u64);
                ctl.met.lookahead_swept.add(verdict.swept as u64);
                span.field("lookahead_bound", verdict.bound);
                span.field("lookahead_swept", verdict.swept);
                if let Some(trip) = &verdict.trip {
                    ctl.recorder
                        .note("lookahead", step, &describe_trip(&active, trip));
                    pause_reason = Some("remaining plan unsafe under realized demand".to_string());
                }
            }
        }

        ctl.report.steps.push(StepRecord {
            step,
            action,
            blocks: take,
            canary,
            safe: audit.safe,
            max_utilization: audit.max_utilization,
            drift_circuits: drift.circuits,
            drift_switches: drift.switches,
            paused: pause_reason.is_some(),
            pause_reason: pause_reason.clone(),
            ensemble_fail_matrix: ensemble_fail,
        });
        ctl.recorder
            .step(ctl.report.steps.last().expect("just pushed"));

        // --- Pause → Replan → (Advance | Rollback).
        if let Some(reason) = pause_reason {
            span.field("outcome", "pause");
            ctl.met.pauses.inc();
            // Freeze the safe-pause bundle before replanning so it carries
            // the pre-replan budget state; a later rollback overwrites it.
            ctl.freeze(
                "safe-pause",
                step,
                Some(reason.clone()),
                &drift,
                ctl.safe_point_steps(),
            );
            if ctl.replans_done >= cfg.replan.max_replans {
                drop(span);
                let reason = format!(
                    "{reason}; replan budget exhausted ({} replans)",
                    ctl.replans_done
                );
                ctl.rollback(&active, step, &realized, reason);
                break 'run;
            }
            ctl.replans_done += 1;
            // The replanner builds its own engine over this topology; the two
            // should not share the heap. The next audit rebuilds this one.
            ctl.live.release();
            // Replan from the *observed* state: the residual migration's
            // initial topology carries the live disturbances, so the new
            // plan is safe given the failure, not just given the plan's
            // beliefs. Demand is the realized matrix. The budget is the
            // policy's: state-bounded for determinism, time and deadline as
            // machine backstops.
            let residual = active.residual(&progress, observed.clone(), realized.clone());
            // The run's cache keys the root's box: the residual inherits it
            // when it starts at the root's canonical overlay of its frame —
            // exact state equality, since drift counts one direction only.
            let frame = progress.offset_by(&lineage.frame);
            let prior = lineage.verdicts.prior_for(&lineage.root, &frame, &residual);
            let inherited = prior.is_some();
            let budget = SearchBudget {
                max_states: cfg.replan.max_states,
                time_limit: Duration::from_millis(cfg.replan.time_limit_ms),
                deadline: cfg.deadline,
            };
            let started = Instant::now();
            let outcome = cfg
                .replanner
                .build(CostModel::new(cfg.alpha), budget, pool.clone())
                .plan_seeded(&residual, prior)
                .map_err(|e| deterministic_plan_error(&e));
            let latency = started.elapsed();
            ctl.met.replan_seconds.record(latency);
            ctl.report.replans.push(ReplanRecord {
                at_step: step,
                ok: outcome.is_ok(),
                phases: outcome.as_ref().map_or(0, |(out, _)| out.plan.num_phases()),
                error: outcome.as_ref().err().cloned(),
                latency_ms: latency.as_secs_f64() * 1e3,
                stats: outcome
                    .as_ref()
                    .map(|(out, _)| out.stats)
                    .unwrap_or_default(),
            });
            ctl.recorder
                .replan(ctl.report.replans.last().expect("just pushed"));
            match outcome {
                Ok((out, verdicts)) => {
                    ctl.met.replans.inc();
                    lineage = if inherited {
                        Lineage {
                            frame,
                            verdicts,
                            ..lineage
                        }
                    } else {
                        Lineage::rooted(Cow::Owned(residual.clone()), verdicts)
                    };
                    active = residual;
                    progress = CompactState::origin(active.num_types());
                    ctl.fleet.planned = active.initial.clone();
                    pending = out.plan.phases();
                    lookahead = PlanReplay::new(&active, &lineage.frame);
                }
                Err(msg) => {
                    ctl.met.replan_failures.inc();
                    drop(span);
                    ctl.rollback(
                        &active,
                        step,
                        &realized,
                        format!("replanning failed: {msg}"),
                    );
                    break 'run;
                }
            }
        } else {
            span.field("outcome", "advance");
        }
        step += 1;
    }

    let RunLoop {
        mut report, live, ..
    } = ctl;
    if report.rollback.is_none() && report.abort_reason.is_none() {
        report.completed = progress.is_target(&active.target_counts);
    }
    report.audit_stats = live.stats();
    report
}

impl RunLoop<'_> {
    /// Shadow-audits `observed` under the realized demand and — when the
    /// spec carries a traffic ensemble — under every realized variant, in
    /// index order, short-circuiting on the first unsafe matrix so the
    /// decisive matrix is the same at any thread count. Returns the decisive
    /// audit (the first failing matrix's, or the base audit with
    /// `max_utilization` lifted to the worst across the ensemble) and the
    /// failing matrix index (0 = base). Replans are ensemble-aware
    /// separately: `residual()` re-realizes the spec's ensemble against the
    /// demand it is seeded with. The lookahead is not:
    /// `PlanReplay::lookahead` judges the remaining plan under the base
    /// realized matrix only (off the run's ESC cache where the rescaling
    /// bound decides, by an exact sweep where it does not), so a later state
    /// that only a variant rejects is caught by this audit when the run
    /// reaches it, not ahead of time.
    fn audit(
        &mut self,
        spec: &MigrationSpec,
        observed: &NetState,
        realized: &DemandMatrix,
    ) -> (LiveAudit, Option<usize>) {
        let mut audit = self.audit_one(spec, observed, realized);
        if !audit.safe {
            let fail = spec.ensemble.is_some().then_some(0);
            return (audit, fail);
        }
        let Some(ens_spec) = &spec.ensemble else {
            return (audit, None);
        };
        // Re-realize from the *realized* demand: growth and surges shift the
        // base, so the EWMA/surge variants shift with it. The spec's explicit
        // seed keeps the variants a pure function of (spec, demand).
        let Ok(ens) = ens_spec.realize(realized) else {
            return (audit, None);
        };
        for (i, variant) in ens.extras().iter().enumerate() {
            let v = self.audit_one(spec, observed, variant);
            if !v.safe {
                return (v, Some(i + 1));
            }
            if v.max_utilization > audit.max_utilization {
                audit.max_utilization = v.max_utilization;
                audit.worst_circuit = v.worst_circuit;
            }
            audit.min_residual_gbps = audit.min_residual_gbps.min(v.min_residual_gbps);
        }
        (audit, None)
    }

    /// One timed, counted `audit_live`.
    fn audit_one(
        &mut self,
        spec: &MigrationSpec,
        observed: &NetState,
        demands: &DemandMatrix,
    ) -> LiveAudit {
        let started = Instant::now();
        let audit = self.live.audit_live(spec, observed, demands);
        self.met.audit_seconds.record(started.elapsed());
        self.met.audits.inc();
        audit
    }

    /// Safe-point stack as flight-bundle entries: -1 is the migration's
    /// initial state, other entries the blessing step's index.
    fn safe_point_steps(&self) -> Vec<i64> {
        self.safe_points
            .iter()
            .map(|p| p.step.map(|s| s as i64).unwrap_or(-1))
            .collect()
    }

    /// Freezes the recorder's window with the trigger-time diagnostics onto
    /// the report, replacing any earlier bundle.
    fn freeze(
        &mut self,
        trigger: &str,
        at_step: usize,
        violated_constraint: Option<String>,
        drift: &Drift,
        safe_point_steps: Vec<i64>,
    ) {
        self.report.flight = Some(FlightBundle {
            name: self.report.name.clone(),
            trigger: trigger.to_string(),
            at_step,
            violated_constraint,
            drift_circuits: drift.circuits,
            drift_switches: drift.switches,
            replans_used: self.replans_done,
            replan_budget: self.cfg.replan.clone(),
            safe_point_steps,
            events: self.recorder.lines(),
        });
    }

    /// Restores the most recent snapshot that still audits safe under the
    /// current realized world, walking back further when disturbances have
    /// poisoned newer snapshots too.
    fn rollback(
        &mut self,
        active: &MigrationSpec,
        at_step: usize,
        realized: &DemandMatrix,
        reason: String,
    ) {
        let mut span = span!("controller.rollback", "at_step" = at_step);
        self.met.rollbacks.inc();
        self.report.rolled_back = true;
        // The bundle shows the stack as it stood when the rollback fired,
        // not whatever the walk leaves behind.
        let stack = self.safe_point_steps();
        let mut skipped = 0usize;
        while let Some(point) = self.safe_points.pop() {
            self.fleet.planned = point.planned;
            let observed = self.fleet.observed(&active.topology);
            let (audit, _) = self.audit(active, &observed, realized);
            if audit.safe || self.safe_points.is_empty() {
                span.field("outcome", if audit.safe { "restored" } else { "unsafe" });
                let record = RollbackRecord {
                    at_step,
                    to_step: point.step,
                    snapshots_skipped: skipped,
                    safe: audit.safe,
                };
                self.recorder.rollback(&record);
                self.report.rollback = Some(record);
                let drift = self.fleet.drift(&active.topology);
                self.freeze("rollback", at_step, Some(reason.clone()), &drift, stack);
                self.report.abort_reason = Some(if audit.safe {
                    reason
                } else {
                    format!("{reason}; no audited-safe state to roll back to")
                });
                return;
            }
            self.met.audit_failures.inc();
            skipped += 1;
        }
    }
}

/// The flight-recorder line for a lookahead trip: which pending state, how
/// far ahead, and the constraint it breaks — deterministic, like every
/// recorded field.
fn describe_trip(spec: &MigrationSpec, trip: &LookaheadTrip) -> String {
    let cause = match &trip.cause {
        TripCause::Unreachable { demands } => format!("{demands} demands unreachable"),
        TripCause::OverTheta {
            utilization,
            circuit,
        } => {
            let on = circuit.map_or_else(String::new, |c| {
                let topo = &spec.topology;
                let ends = topo.circuit(c);
                format!(
                    " on {c} ({} <-> {})",
                    topo.switch(ends.a).name,
                    topo.switch(ends.b).name
                )
            });
            format!(
                "utilization {utilization:.4}{on} above theta {}",
                spec.theta
            )
        }
    };
    format!(
        "state {:?}, {} blocks ahead: {cause}",
        trip.state.counts(),
        trip.blocks_ahead
    )
}

/// Formats a planner error without its wall-clock component.
/// `BudgetExceeded`'s `Display` embeds the elapsed time; recording that in
/// the report would leak machine-dependent text into error fields,
/// abort reasons, and the fingerprint.
fn deterministic_plan_error(e: &PlanError) -> String {
    match e {
        PlanError::BudgetExceeded { states_visited, .. } => {
            format!("planner budget exceeded after {states_visited} states")
        }
        other => other.to_string(),
    }
}

/// Fires the non-surge events scheduled for `step` into the fleet.
fn inject_events(
    events: &[ScenarioEvent],
    step: usize,
    spec: &MigrationSpec,
    fleet: &mut FleetSim,
    rng: &mut SmallRng,
) {
    for ev in events {
        if ev.at_step != step {
            continue;
        }
        match ev.kind {
            EventKind::Surge => {}
            EventKind::LinkFailure => {
                let victim = match ev.circuit {
                    Some(idx) if idx < spec.topology.num_circuits() => {
                        Some(CircuitId::from_index(idx))
                    }
                    Some(_) => None,
                    None => pick_uninvolved_circuit(spec, &fleet.observed(&spec.topology), rng),
                };
                if let Some(c) = victim {
                    fleet.fail_circuit(c, ev.until_step);
                }
            }
            EventKind::ExternalOp => {
                let victim = match ev.switch {
                    Some(idx) if idx < spec.topology.num_switches() => {
                        Some(SwitchId::from_index(idx))
                    }
                    Some(_) => None,
                    None => pick_uninvolved_switch(spec, &fleet.observed(&spec.topology), rng),
                };
                if let Some(sw) = victim {
                    fleet.drain_external(sw, ev.until_step);
                }
            }
        }
    }
}

/// Builds the migration named by `scenario`, plans it, and runs the
/// controller against the scripted timeline. `deadline` bounds the whole
/// run including the initial plan (service jobs).
pub fn run_scenario(
    scenario: &Scenario,
    deadline: Option<Instant>,
) -> Result<ControllerReport, ControllerError> {
    scenario.validate()?;
    let id = scenario.preset_id()?;
    let preset = presets::build_for_bench(id);
    let mut opts = MigrationOptions::default();
    if let Some(theta) = scenario.theta {
        opts.theta = theta;
    }
    if let Some(threads) = scenario.threads {
        opts.threads = threads.max(1);
    }
    if let Some(scale) = scenario.block_scale {
        opts.block_scale = scale;
    }
    if let Some(every) = scenario.progress_every {
        opts.progress_every = every.max(1);
    }
    opts.ensemble = scenario.ensemble.clone();
    let spec =
        MigrationBuilder::for_preset(&preset, &opts).map_err(ControllerError::InitialPlan)?;
    // Victim indices can only be range-checked against the built topology;
    // `Scenario::validate` has no preset sizes.
    for (i, ev) in scenario.events.iter().enumerate() {
        if let Some(idx) = ev.circuit {
            if idx >= spec.topology.num_circuits() {
                return Err(ControllerError::Scenario(crate::scenario::ScenarioError(
                    format!(
                        "event {i}: circuit {idx} out of range (preset has {})",
                        spec.topology.num_circuits()
                    ),
                )));
            }
        }
        if let Some(idx) = ev.switch {
            if idx >= spec.topology.num_switches() {
                return Err(ControllerError::Scenario(crate::scenario::ScenarioError(
                    format!(
                        "event {i}: switch {idx} out of range (preset has {})",
                        spec.topology.num_switches()
                    ),
                )));
            }
        }
    }
    let cfg = ControllerConfig {
        seed: scenario.seed,
        canary_blocks: scenario.canary_blocks,
        demand_growth_per_step: scenario.demand_growth_per_step,
        events: scenario.events.clone(),
        replan: scenario.replan.clone(),
        replanner: scenario.planner_kind()?,
        alpha: scenario.alpha,
        deadline,
        flight_capacity: DEFAULT_FLIGHT_CAPACITY,
    };
    // The initial plan runs under a generous state budget (it gates the
    // whole run) but still honors the caller's deadline.
    let initial_budget = SearchBudget {
        max_states: 50_000_000,
        time_limit: Duration::from_millis(scenario.replan.time_limit_ms.max(30_000)),
        deadline,
    };
    let pool = Arc::new(WorkerPool::new(spec.threads.max(1)));
    let planner =
        (cfg.replanner).build(CostModel::new(cfg.alpha), initial_budget, Arc::clone(&pool));
    let started = Instant::now();
    let (outcome, verdicts) = planner
        .plan_seeded(&spec, None)
        .map_err(ControllerError::InitialPlan)?;
    let initial_latency = started.elapsed();
    let mut report = run_seeded(&spec, &outcome.plan, verdicts, &cfg, pool);
    report.name = scenario.name.clone();
    report.initial_stats = outcome.stats;
    report.initial_latency_ms = initial_latency.as_secs_f64() * 1e3;
    Ok(report)
}
