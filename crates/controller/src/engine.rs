//! The controller event loop: Apply → Audit → {Advance, Pause, Replan,
//! Rollback}.
//!
//! Each iteration applies one *batch* of blocks — canary-first: the first
//! `canary_blocks` blocks of a phase apply and audit before the remainder
//! does — then runs a **shadow audit**: it re-derives the actual post-batch
//! topology (the planned overlay plus every injected disturbance), diffs it
//! against the planned state, and re-runs the satisfiability check on the
//! real one under the realized demand. A safe audit advances; an unsafe
//! audit (or a lookahead showing the remaining plan has become unsafe)
//! **pauses** the run and triggers an **incremental replan** from the
//! current compact state — the residual migration seeded with the observed
//! topology and realized demand, searched with the ESC cache and
//! parent-state deltas of PRs 4–5. When replanning fails or the replan
//! budget runs out, the controller **rolls back** to the most recent
//! audited-safe snapshot that still audits safe under the current world.
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

use crate::fleet::{pick_uninvolved_circuit, FleetSim};
use crate::flight::{FlightBundle, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::scenario::{EventKind, ReplanPolicy, Scenario, ScenarioEvent};
use klotski_core::compact::CompactState;
use klotski_core::executor::{pick_uninvolved_switch, realized_demand};
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::plan::{MigrationPlan, PlanPhase};
use klotski_core::planner::{AStarPlanner, DpPlanner, PlanStats, Planner, SearchBudget};
use klotski_core::satcheck::{LiveAudit, SatStats};
use klotski_core::{CostModel, EscMode, PlanError, PlanReplay, SatChecker};
use klotski_parallel::WorkerPool;
use klotski_telemetry::{registry, span, Counter, LogLinearHistogram};
use klotski_topology::{presets, CircuitId, NetState, SwitchId};
use klotski_traffic::{DemandMatrix, SurgeEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which planner the controller re-invokes on pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplannerKind {
    /// The A\* planner (§4.4).
    AStar,
    /// The DP planner (§4.3).
    Dp,
}

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
    /// Search counters (ESC cache hits, incremental clean/dirty, …).
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
    /// Audit-checker counters: `live_audits` counts every shadow audit.
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
        let mut h = Fnv::new();
        h.str(&self.name);
        h.u64(self.completed as u64);
        h.u64(self.rolled_back as u64);
        h.opt_str(self.abort_reason.as_deref());
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
            h.opt_str(s.pause_reason.as_deref());
            h.u64(s.ensemble_fail_matrix.map(|k| k as u64 + 1).unwrap_or(0));
        }
        h.u64(self.replans.len() as u64);
        for r in &self.replans {
            h.u64(r.at_step as u64);
            h.u64(r.ok as u64);
            h.u64(r.phases as u64);
            h.opt_str(r.error.as_deref());
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

/// FNV-1a, the same construction the NPD digests use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u64(0),
            Some(s) => {
                self.u64(1);
                self.str(s);
            }
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
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

/// Executes `plan` for `spec` under `cfg`, returning the full run trace.
/// Deterministic for a fixed `cfg.seed` (see the module docs).
pub fn run(spec: &MigrationSpec, plan: &MigrationPlan, cfg: &ControllerConfig) -> ControllerReport {
    let met = controller_metrics();
    let pool = Arc::new(WorkerPool::new(spec.threads.max(1)));
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let recorder = FlightRecorder::new(cfg.flight_capacity);

    // The audit checker routes arbitrary observed states from scratch
    // (`audit_live`), so it carries neither the ESC cache nor the
    // incremental engine; replan searches own those. One checker serves the
    // whole run — every spec generation shares the topology.
    let mut checker = {
        let mut audit_spec = spec.clone();
        audit_spec.incremental = false;
        SatChecker::with_pool(&audit_spec, EscMode::Off, pool.clone())
    };
    // The lookahead replays *planned* (canonical) states, so it rides an
    // incremental engine — one per spec generation, built on first use and
    // dropped before every replan: a residual spec re-bases the canonical
    // overlay, and the replanner's own checker should not share the heap
    // with an engine it makes obsolete.
    let mut lookahead: Option<PlanReplay> = None;

    let mut report = ControllerReport {
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
    };

    let mut active = spec.clone();
    let mut pending: Vec<PlanPhase> = plan.phases();
    let mut progress = CompactState::origin(active.num_types());
    let mut fleet = FleetSim::new(active.initial.clone());
    let base_demands = spec.demands.clone();
    let surges: Vec<SurgeEvent> = scenario_surges(&cfg.events);
    let mut multiplier = 1.0_f64;
    let mut step = 0usize;
    let mut replans_done = 0usize;
    let mut safe_points: Vec<SafePoint> = vec![SafePoint {
        step: None,
        planned: active.initial.clone(),
    }];

    'run: while let Some(phase) = pending.first().cloned() {
        if cfg.deadline.is_some_and(|d| Instant::now() > d) {
            let reason = format!("step {step}: run deadline exceeded");
            recorder.note("abort", step, &reason);
            report.flight = Some(FlightBundle::freeze(
                &recorder,
                &report.name,
                "deadline-abort",
                step,
                None,
                &fleet.drift(&active.topology),
                replans_done,
                &cfg.replan,
                safe_point_steps(&safe_points),
            ));
            report.abort_reason = Some(reason);
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
            active.apply_next(&mut fleet.planned, &progress, phase.kind);
            progress = progress.advanced(phase.kind);
        }
        if take == total {
            pending.remove(0);
        } else {
            pending[0].blocks.drain(..take);
        }
        met.phases.inc();

        // --- The world moves: growth, expiring and newly fired events.
        multiplier *= 1.0 + cfg.demand_growth_per_step;
        fleet.expire(step);
        inject_events(&cfg.events, step, &active, &mut fleet, &mut rng);
        let realized = realized_demand(&base_demands, multiplier, &surges, step);

        // --- Shadow audit: re-derive the actual topology, diff against the
        // plan, re-run the satisfiability check on the real state.
        let observed = fleet.observed(&active.topology);
        let drift = fleet.drift(&active.topology);
        let (audit, ensemble_fail) =
            ensemble_audit(&mut checker, &active, &met, &observed, &realized);
        if !audit.safe {
            met.audit_failures.inc();
        }

        let mut pause_reason: Option<String> = audit.violation();
        if let Some(k) = ensemble_fail {
            if k > 0 {
                pause_reason = pause_reason.map(|v| format!("ensemble matrix {k}: {v}"));
            }
        }
        if pause_reason.is_none() {
            safe_points.push(SafePoint {
                step: Some(step),
                planned: fleet.planned.clone(),
            });
            // Lookahead: a world change can leave the *current* state safe
            // but doom a later one; §7.1 replans before walking into it.
            if !pending.is_empty()
                && !lookahead
                    .get_or_insert_with(|| {
                        PlanReplay::new(&active, checker.csr().clone(), pool.clone())
                    })
                    .plan_still_safe(&active, &fleet.planned, &progress, &pending, &realized)
            {
                pause_reason = Some("remaining plan unsafe under realized demand".to_string());
            }
        }

        report.steps.push(StepRecord {
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
        recorder.step(report.steps.last().expect("just pushed"));

        // --- Pause → Replan → (Advance | Rollback).
        if let Some(reason) = pause_reason {
            span.field("outcome", "pause");
            met.pauses.inc();
            // Freeze the safe-pause bundle before replanning so it carries
            // the pre-replan budget state; a later rollback overwrites it.
            report.flight = Some(FlightBundle::freeze(
                &recorder,
                &report.name,
                "safe-pause",
                step,
                Some(reason.clone()),
                &drift,
                replans_done,
                &cfg.replan,
                safe_point_steps(&safe_points),
            ));
            if replans_done >= cfg.replan.max_replans {
                drop(span);
                rollback(
                    &mut report,
                    &met,
                    &mut checker,
                    &active,
                    &mut fleet,
                    &mut safe_points,
                    step,
                    &realized,
                    format!("{reason}; replan budget exhausted ({replans_done} replans)"),
                    &recorder,
                    cfg,
                    replans_done,
                );
                break 'run;
            }
            replans_done += 1;
            lookahead = None;
            // Replan from the *observed* state: the residual migration's
            // initial topology carries the live disturbances, so the new
            // plan is safe given the failure, not just given the plan's
            // beliefs. Demand is the realized matrix.
            let residual = active.residual(&progress, observed.clone(), realized.clone());
            let started = Instant::now();
            let outcome = make_planner(cfg, pool.clone()).plan(&residual);
            let latency = started.elapsed();
            met.replan_seconds.record(latency);
            match outcome {
                Ok(out) => {
                    met.replans.inc();
                    report.replans.push(ReplanRecord {
                        at_step: step,
                        ok: true,
                        phases: out.plan.num_phases(),
                        error: None,
                        latency_ms: latency.as_secs_f64() * 1e3,
                        stats: out.stats,
                    });
                    recorder.replan(report.replans.last().expect("just pushed"));
                    active = residual;
                    progress = CompactState::origin(active.num_types());
                    fleet.planned = active.initial.clone();
                    pending = out.plan.phases();
                }
                Err(e) => {
                    met.replan_failures.inc();
                    let msg = deterministic_plan_error(&e);
                    report.replans.push(ReplanRecord {
                        at_step: step,
                        ok: false,
                        phases: 0,
                        error: Some(msg.clone()),
                        latency_ms: latency.as_secs_f64() * 1e3,
                        stats: PlanStats::default(),
                    });
                    recorder.replan(report.replans.last().expect("just pushed"));
                    drop(span);
                    rollback(
                        &mut report,
                        &met,
                        &mut checker,
                        &active,
                        &mut fleet,
                        &mut safe_points,
                        step,
                        &realized,
                        format!("replanning failed: {msg}"),
                        &recorder,
                        cfg,
                        replans_done,
                    );
                    break 'run;
                }
            }
        } else {
            span.field("outcome", "advance");
        }
        step += 1;
    }

    if report.rollback.is_none() && report.abort_reason.is_none() {
        report.completed = progress.is_target(&active.target_counts);
    }
    report.audit_stats = checker.stats();
    report
}

/// Restores the most recent snapshot that still audits safe under the
/// current realized world, walking back further when disturbances have
/// poisoned newer snapshots too.
#[allow(clippy::too_many_arguments)]
fn rollback(
    report: &mut ControllerReport,
    met: &ControllerMetrics,
    checker: &mut SatChecker,
    active: &MigrationSpec,
    fleet: &mut FleetSim,
    safe_points: &mut Vec<SafePoint>,
    at_step: usize,
    realized: &DemandMatrix,
    reason: String,
    recorder: &FlightRecorder,
    cfg: &ControllerConfig,
    replans_done: usize,
) {
    let mut span = span!("controller.rollback", "at_step" = at_step);
    met.rollbacks.inc();
    report.rolled_back = true;
    // The bundle shows the stack as it stood when the rollback fired, not
    // whatever the walk leaves behind.
    let stack = safe_point_steps(safe_points);
    let mut skipped = 0usize;
    while let Some(point) = safe_points.pop() {
        fleet.planned = point.planned.clone();
        let observed = fleet.observed(&active.topology);
        let (audit, _) = ensemble_audit(checker, active, met, &observed, realized);
        if audit.safe || safe_points.is_empty() {
            span.field("outcome", if audit.safe { "restored" } else { "unsafe" });
            report.rollback = Some(RollbackRecord {
                at_step,
                to_step: point.step,
                snapshots_skipped: skipped,
                safe: audit.safe,
            });
            recorder.rollback(report.rollback.as_ref().expect("just set"));
            report.flight = Some(FlightBundle::freeze(
                recorder,
                &report.name,
                "rollback",
                at_step,
                Some(reason.clone()),
                &fleet.drift(&active.topology),
                replans_done,
                &cfg.replan,
                stack,
            ));
            report.abort_reason = Some(if audit.safe {
                reason
            } else {
                format!("{reason}; no audited-safe state to roll back to")
            });
            return;
        }
        met.audit_failures.inc();
        skipped += 1;
    }
}

/// Shadow-audits `observed` under the realized demand and — when the spec
/// carries a traffic ensemble — under every realized variant, in index
/// order, short-circuiting on the first unsafe matrix so the decisive
/// matrix is the same at any thread count. Returns the decisive audit (the
/// first failing matrix's, or the base audit with `max_utilization` lifted
/// to the worst across the ensemble) and the failing matrix index
/// (0 = base). Replans are ensemble-aware separately: `residual()`
/// re-realizes the spec's ensemble against the demand it is seeded with.
/// The lookahead is not: `PlanReplay::plan_still_safe` replays the remaining
/// plan under the base realized matrix only, so a later state that only a
/// variant rejects is caught by this audit when the run reaches it, not
/// ahead of time.
fn ensemble_audit(
    checker: &mut SatChecker,
    spec: &MigrationSpec,
    met: &ControllerMetrics,
    observed: &NetState,
    realized: &DemandMatrix,
) -> (LiveAudit, Option<usize>) {
    let t_audit = Instant::now();
    let mut audit = checker.audit_live(spec, observed, realized);
    met.audit_seconds.record(t_audit.elapsed());
    met.audits.inc();
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
        let t_audit = Instant::now();
        let v = checker.audit_live(spec, observed, variant);
        met.audit_seconds.record(t_audit.elapsed());
        met.audits.inc();
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

/// Safe-point stack as flight-bundle entries: -1 is the migration's initial
/// state, other entries the blessing step's index.
fn safe_point_steps(safe_points: &[SafePoint]) -> Vec<i64> {
    safe_points
        .iter()
        .map(|p| p.step.map(|s| s as i64).unwrap_or(-1))
        .collect()
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

/// Builds the replanner with the policy's budget (state-bounded for
/// determinism, time/deadline as machine backstops) over the shared pool.
fn make_planner(cfg: &ControllerConfig, pool: Arc<WorkerPool>) -> Box<dyn Planner> {
    let budget = SearchBudget {
        max_states: cfg.replan.max_states,
        time_limit: Duration::from_millis(cfg.replan.time_limit_ms),
        deadline: cfg.deadline,
        ..SearchBudget::default()
    };
    let cost = CostModel::new(cfg.alpha);
    match cfg.replanner {
        ReplannerKind::AStar => Box::new(AStarPlanner {
            cost,
            budget,
            pool: Some(pool),
            ..AStarPlanner::default()
        }),
        ReplannerKind::Dp => Box::new(DpPlanner {
            cost,
            budget,
            pool: Some(pool),
            ..DpPlanner::default()
        }),
    }
}

/// Surge events of a timeline as `klotski-traffic` surges.
fn scenario_surges(events: &[ScenarioEvent]) -> Vec<SurgeEvent> {
    events
        .iter()
        .filter(|ev| ev.kind == EventKind::Surge)
        .map(|ev| SurgeEvent {
            from_step: ev.at_step,
            until_step: ev.until_step.unwrap_or(usize::MAX),
            factor: ev.factor,
            class: ev.class,
        })
        .collect()
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
        replanner: if scenario.planner == "dp" {
            ReplannerKind::Dp
        } else {
            ReplannerKind::AStar
        },
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
        ..SearchBudget::default()
    };
    let pool = Arc::new(WorkerPool::new(spec.threads.max(1)));
    let cost = CostModel::new(cfg.alpha);
    let planner: Box<dyn Planner> = match cfg.replanner {
        ReplannerKind::AStar => Box::new(AStarPlanner {
            cost,
            budget: initial_budget,
            pool: Some(pool),
            ..AStarPlanner::default()
        }),
        ReplannerKind::Dp => Box::new(DpPlanner {
            cost,
            budget: initial_budget,
            pool: Some(pool),
            ..DpPlanner::default()
        }),
    };
    let started = Instant::now();
    let outcome = planner.plan(&spec).map_err(ControllerError::InitialPlan)?;
    let initial_latency = started.elapsed();
    let mut report = run(&spec, &outcome.plan, &cfg);
    report.name = scenario.name.clone();
    report.initial_stats = outcome.stats;
    report.initial_latency_ms = initial_latency.as_secs_f64() * 1e3;
    Ok(report)
}
