//! # klotski-baselines
//!
//! The comparison planners of the paper's evaluation (§6.1):
//!
//! - [`MrcPlanner`]: the greedy maximize-minimum-residual-capacity planner
//!   (after the minimal-rewiring line of work, reference [37]). Fast to
//!   describe, but it ignores action-type batching, so its plans alternate
//!   types and pay far more serial phases than the optimum (Figure 8a), and
//!   it evaluates every remaining block at every step with no caching
//!   (Figure 8b).
//! - [`JanusPlanner`]: a Janus-style planner (reference [4]): symmetry
//!   pruning with operation blocks as superblocks, but exhaustive traversal
//!   of the pruned space with full-topology state keys and an upfront
//!   preprocessing pass over all action combinations. Finds the optimum,
//!   slowly — and cannot plan migrations that change the topology (§6.3).
//! - [`BruteForcePlanner`]: exact enumeration over all action sequences,
//!   usable only on tiny instances; serves as the optimality oracle for the
//!   test suite.

mod brute;
mod janus;
mod mrc;

pub use brute::BruteForcePlanner;
pub use janus::JanusPlanner;
pub use mrc::MrcPlanner;
