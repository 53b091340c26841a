//! # klotski-traffic
//!
//! Traffic-demand substrate for the Klotski migration planner.
//!
//! The paper's safety constraints (Eq. 4–5) are evaluated against
//! *forecasted* traffic demands between three kinds of endpoint pairs:
//! RSW → EBB (region egress), EBB → RSW (region ingress), and RSW → RSW
//! (east/west between buildings), with totals in the hundreds of Tbps at
//! full production scale (§6.1).
//!
//! This crate provides:
//! - [`Demand`]/[`DemandMatrix`]: the demand set `D` of the formulation;
//! - [`generate`]: seeded synthetic demand generation over a topology;
//! - `ensemble`: the set of matrices a robust check must hold under —
//!   the base forecast, EWMA levels read off a seeded synthetic history
//!   (§7.1: demand is re-forecast because migrations last months) and
//!   seeded surges;
//! - [`surge`]: unexpected traffic-surge events (§7.2, the warm-storage
//!   backup incident) and the realized demand the controller audits against.

mod demand;
mod ensemble;
mod generator;
pub mod surge;

pub use demand::{Demand, DemandClass, DemandMatrix};
pub use ensemble::{EnsembleError, EnsembleSpec, TrafficEnsemble};
pub use generator::{generate, DemandGenConfig};
pub use surge::SurgeEvent;
