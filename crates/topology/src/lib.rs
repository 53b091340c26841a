//! # klotski-topology
//!
//! Datacenter-network topology substrate for the Klotski migration planner
//! (SIGCOMM 2023). This crate models Meta-style multi-layer DCNs:
//!
//! - **Switch roles** across eight layers (§2.1 of the paper): rack switches
//!   (RSW), fabric switches (FSW), spine switches (SSW), the disaggregated
//!   fabric-aggregation layer (FADU/FAUU sub-switches of HGRID), the metro
//!   aggregation layer (MA, "DMAG"), and the backbone boundary (EB, DR, EBB).
//! - **Circuits** with capacities in Gbps connecting switches.
//! - **Generators** for fabrics (pods/planes), HGRID v1/v2 grids, DMAG, and
//!   backbone attachment, composed into datacenters and regions.
//! - **Presets** matching the evaluation topologies A–E of the paper
//!   (Table 3), plus the E-DMAG and E-SSW migration variants.
//!
//! The topology is an *immutable union graph*: migrations never mutate the
//! graph itself, they flip activation bits in a [`NetState`] overlay. This is
//! what makes Klotski's compact state representation sound — the topology
//! reachable from a given multiset of finished actions is unique.
//!
//! ```
//! use klotski_topology::presets::{self, PresetId};
//!
//! let preset = presets::build(PresetId::A);
//! let topo = &preset.topology;
//! assert!(topo.num_switches() > 0);
//! // Structural invariants hold on the union graph.
//! topo.validate().unwrap();
//! ```

pub mod bitset;
pub mod circuit;
pub mod csr;
pub mod error;
pub mod fabric;
mod fnv;
pub mod graph;
pub mod hgrid;
pub mod ids;
pub mod ma;
pub mod netstate;
pub mod presets;
pub mod region;
pub mod stats;
pub mod switch;

pub use bitset::BitSet;
pub use circuit::Circuit;
pub use csr::{CsrEdge, CsrGraph};
pub use error::TopologyError;
pub use fnv::{fnv1a, Fnv1a};
pub use graph::{Topology, TopologyBuilder};
pub use ids::{CircuitId, DcId, GridId, PlaneId, PodId, SwitchId};
pub use netstate::NetState;
pub use stats::TopologyStats;
pub use switch::{Generation, Switch, SwitchRole};
