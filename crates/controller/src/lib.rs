//! # klotski-controller
//!
//! Continuous migration controller: executes a [`MigrationPlan`] phase by
//! phase against a simulated live fleet, keeping the paper's safety
//! invariant (Eq. 4–6) *continuously* true while the world drifts — the
//! operational loop §7 describes but the one-shot planner cannot provide.
//!
//! The controller operationalizes a production runbook:
//!
//! - **canary-first application** — each phase applies a small canary batch
//!   first and audits it before committing the rest;
//! - **shadow audit** — after every batch the controller re-derives the
//!   *actual* topology (planned overlay + injected failures and external
//!   operations), diffs it against the planned state, and re-runs the
//!   satisfiability check on the real one under realized demand
//!   ([`LiveEngine::audit_live`]);
//! - **safe-pause** — a violated constraint halts block application;
//! - **incremental replanning** — the residual migration (current compact
//!   state, observed topology, realized demand) is re-searched with the
//!   ESC cache and parent-state deltas, bounded by a replan budget;
//! - **rollback** — when replanning fails or the budget runs out, the
//!   fleet is restored to the most recent snapshot that still audits safe.
//!
//! Scenarios ([`Scenario`]) script the world: surges, link failures,
//! external ops, all fired by deterministic step index from a fixed seed —
//! a run is replayable bit-for-bit at any thread count
//! ([`ControllerReport::fingerprint`]).
//!
//! [`MigrationPlan`]: klotski_core::plan::MigrationPlan
//! [`LiveEngine::audit_live`]: klotski_core::LiveEngine::audit_live

pub mod engine;
pub mod fleet;
pub mod flight;
pub mod scenario;

pub use engine::{
    run, run_scenario, ControllerConfig, ControllerError, ControllerReport, ReplanRecord,
    ReplannerKind, RollbackRecord, StepRecord,
};
pub use fleet::{Drift, FleetSim};
pub use flight::{FlightBundle, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use scenario::{EventKind, ReplanPolicy, Scenario, ScenarioError, ScenarioEvent};
