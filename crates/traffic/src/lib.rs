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
//! - [`generator`]: seeded synthetic demand generation over a topology;
//! - [`history`]/[`forecast`]: synthetic traffic histories and the
//!   forecasters the deployment experience (§7.1) calls for — demand is
//!   re-forecast after each migration step because migrations last months;
//! - [`surge`]: unexpected traffic-surge events (§7.2, the warm-storage
//!   backup incident) and the realized demand the controller audits against.

pub mod demand;
pub mod ensemble;
pub mod forecast;
pub mod generator;
pub mod history;
pub mod surge;

pub use demand::{Demand, DemandClass, DemandMatrix};
pub use ensemble::{matrix_digest, EnsembleError, EnsembleSpec, TrafficEnsemble};
pub use forecast::{EwmaForecaster, Forecaster, LinearTrendForecaster};
pub use generator::{generate, DemandGenConfig};
pub use history::{HistoryConfig, TrafficHistory};
pub use surge::SurgeEvent;
