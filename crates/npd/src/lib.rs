//! # klotski-npd
//!
//! The Network Product Definition (NPD) interchange format (§5 of the
//! paper): "NPD is a generic data structure used at Meta to define
//! high-level properties of network topologies. NPD divides DCNs into six
//! parts and describes them separately for scalability. These six parts are
//! Fabric, HGRID, MA, EB, DR, and BB. In each part, it records the switches
//! based on their roles and positions, and the way these switches are
//! interconnected. Besides, NPD also contains information about migration
//! phases and hardware."
//!
//! This crate provides the serde data model ([`Npd`]), JSON
//! (de)serialization, and the conversion in both directions between NPD
//! documents and buildable region topologies — the interface through which
//! an EDP-Lite-style pipeline would drive the planner.
//!
//! ```
//! use klotski_npd::{convert, Npd};
//! use klotski_topology::presets::{self, PresetId};
//!
//! // Export a preset region to NPD, round-trip through JSON, rebuild.
//! let preset = presets::build(PresetId::A);
//! let npd = convert::region_to_npd(&preset.config);
//! let json = npd.to_json_pretty().unwrap();
//! let back = Npd::from_json(&json).unwrap();
//! let (topo, _) = convert::npd_to_topology(&back).unwrap();
//! assert_eq!(topo.num_switches(), preset.topology.num_switches());
//! ```

pub mod api;
pub mod convert;
mod error;
mod schema;

pub use api::{npd_digest, PlanRequestOptions};
pub use schema::Npd;
