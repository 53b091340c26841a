//! # klotski-core
//!
//! The Klotski migration planner (SIGCOMM 2023): problem formulation,
//! search-space pruning, efficient satisfiability checking, and the DP and
//! A\* planners. The operational loop of §7 (apply a phase, audit the real
//! network, re-forecast, replan) lives in `klotski-controller`; this crate
//! gives it the pieces: residual specs, the [`LiveEngine`] its shadow audit
//! ([`LiveEngine::audit_live`]) and [`PlanReplay`] lookahead route on, and
//! the [`PlannerKind`](planner::PlannerKind) factory.
//!
//! ## The problem (§3)
//!
//! A migration is a sequence of *actions* over *operation blocks* — groups
//! of switches/circuits drained or undrained together. Every block is
//! operated exactly once (Eq. 2–3); every checked intermediate topology must
//! route all demands under the utilization bound θ (Eq. 4–5) and respect
//! physical port budgets (Eq. 6). The objective (Eq. 1) minimizes serial
//! operation phases: consecutive actions of the same type merge into one
//! phase; with the generalized cost function (§5), operating `x` blocks in
//! one phase costs `1 + α(x−1)`.
//!
//! ## The solution (§4)
//!
//! - `blocks`: operation blocks — the symmetry blocks (Janus-style
//!   equivalence) of one locality unit, merged by the organization policy
//!   of §5.
//! - [`compact`]: the ordering-agnostic compact topology representation —
//!   a vector counting finished actions per type (Definition 1).
//! - [`satcheck`]: satisfiability checking with the ESC cache keyed on the
//!   compact representation.
//! - [`planner`]: the DP planner (Algorithm 1) and the A\* planner
//!   (Algorithm 2) with the domain-specific priority function.
//!
//! ```
//! use klotski_core::migration::{MigrationBuilder, MigrationOptions};
//! use klotski_core::planner::{AStarPlanner, Planner};
//! use klotski_topology::presets::{self, PresetId};
//!
//! let preset = presets::build(PresetId::A);
//! let spec = MigrationBuilder::hgrid_v1_to_v2(&preset, &MigrationOptions::default()).unwrap();
//! let outcome = AStarPlanner::default().plan(&spec).unwrap();
//! assert!(outcome.plan.num_phases() >= 2); // at least one drain + one undrain phase
//! ```

mod action;
mod blocks;
pub mod compact;
pub mod cost;
pub mod error;
pub mod migration;
pub mod opex;
pub mod plan;
pub mod planner;
mod replay;
pub mod report;
pub mod satcheck;
mod space;

pub use action::{ActionTypeId, BlockClass};
pub use compact::CompactState;
pub use cost::CostModel;
pub use error::PlanError;
pub use migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
pub use plan::{MigrationPlan, PlanPhase};
pub use replay::{
    validate_and_audit_on, LiveEngine, LookaheadTrip, LookaheadVerdict, PlanReplay, TripCause,
};
pub use report::audit_plan;
pub use satcheck::{EnsembleMatrixStat, EscMode, Prior, SatChecker, Verdicts};
// Re-exported so wire-schema crates (npd) can name ensemble specs without a
// direct dependency on the traffic crate.
pub use klotski_traffic::{EnsembleError, EnsembleSpec, TrafficEnsemble};
