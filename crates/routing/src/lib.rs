//! # klotski-routing
//!
//! Routing and safety-evaluation substrate for the Klotski migration
//! planner.
//!
//! Klotski checks the demand constraints of the problem formulation
//! (Eq. 4–5) on every visited intermediate topology: each demand must have a
//! live path, and the ECMP utilization of every circuit must stay below the
//! bound θ. Following the paper (§5), routing models macro-scale behaviour —
//! equal-cost multi-path splitting over shortest paths — not packet-level
//! congestion.
//!
//! The cost model of the whole planner rests on this crate being fast:
//! one satisfiability check is Θ(|S|+|C|) per distinct demand destination
//! (one BFS + one linear flow-propagation pass), with all scratch memory
//! reused across checks via [`EcmpRouter`].
//!
//! Modules:
//! - `ecmp`: hop-count ECMP routing with fractional flow splitting;
//! - `loads`: per-circuit directional load accounting;
//! - `mask`: the usable-circuit bitmask hoisted out of routing loops;
//! - [`evaluate`]: the Eq. 4–5 evaluation combining reachability and
//!   utilization, plus demand calibration helpers;
//! - `funneling`: the traffic-funneling stress factor (§2.2, §7.2);
//! - `incremental`: delta-aware re-routing that caches per-destination
//!   routing structure across nearby states and, on engines large enough to
//!   repay it, fans the destination advance out over a
//!   [`klotski_parallel::WorkerPool`]'s lanes, bit-identical to from-scratch.

mod ecmp;
pub mod evaluate;
mod funneling;
mod incremental;
mod loads;
mod mask;

pub use ecmp::{EcmpRouter, RouteOutcome, SplitPolicy};
pub use evaluate::{
    evaluate, evaluate_policy, evaluate_with, scale_from_routed, SafetyOutcome, UtilizationReport,
};
pub use funneling::FunnelingModel;
pub use incremental::{usability_toggles, IncrementalRouter};
pub use klotski_topology::{CsrEdge, CsrGraph};
pub use loads::LoadMap;
pub use mask::UsableMask;
