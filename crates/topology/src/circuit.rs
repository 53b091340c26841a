//! Circuits: bidirectional links between two switches with a capacity.

use crate::ids::{CircuitId, SwitchId};
use serde::{Deserialize, Serialize};

/// A bidirectional circuit between two switches.
///
/// Capacities are in Gbps. Production circuits at Meta are reported in Tbps
/// aggregates (Table 1); generators in this crate emit per-circuit capacities
/// in the 100–800 Gbps range so that layer aggregates land in the paper's
/// Tbps ranges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    /// Dense identifier within the owning topology.
    pub id: CircuitId,
    /// One endpoint (by convention the lower-layer switch).
    pub a: SwitchId,
    /// Other endpoint (by convention the upper-layer switch).
    pub b: SwitchId,
    /// Capacity in Gbps.
    pub capacity_gbps: f64,
    /// Routing hop weight. Ordinary circuits weigh [`Circuit::HOP`]; relay
    /// layers that routing policy treats as transparent (the MA/DMAG layer,
    /// whose two-circuit FAUU→MA→EB path must cost the same as a direct
    /// FAUU→EB circuit — the paper's §7.1 "temporary routing
    /// configurations" under a pure-ECMP substrate) weigh half of it.
    #[serde(default = "Circuit::default_hop_weight")]
    pub hop_weight: u8,
    /// Optional WCMP routing weight override. Production WCMP weights are
    /// *configured* (derived from designed shares), not read off the
    /// physical capacity; `None` falls back to `capacity_gbps`.
    #[serde(default)]
    pub routing_weight: Option<f64>,
}

impl Circuit {
    /// Hop weight of an ordinary circuit.
    pub(crate) const HOP: u8 = 2;
    /// Hop weight of a transparent-relay circuit (half an ordinary hop).
    pub(crate) const HALF_HOP: u8 = 1;

    fn default_hop_weight() -> u8 {
        Circuit::HOP
    }
}
