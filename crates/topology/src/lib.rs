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
//! assert!(topo.num_switches() > 0 && topo.num_circuits() > 0);
//! ```

mod bitset;
mod circuit;
mod csr;
mod error;
pub mod fabric;
mod fnv;
pub mod graph;
pub mod hgrid;
mod ids;
pub mod ma;
mod netstate;
pub mod presets;
pub mod region;
mod stats;
mod switch;

pub use bitset::BitSet;
pub use csr::{CsrEdge, CsrGraph};
pub use fnv::{fnv1a, Fnv1a};
pub use graph::Topology;
pub use ids::{CircuitId, DcId, SwitchId};
pub use netstate::NetState;
pub use switch::{Generation, SwitchRole};
