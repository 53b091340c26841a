//! Switch roles, hardware generations, and the switch record itself.
//!
//! The role taxonomy follows §2.1 of the paper: a Meta-style DCN stacks rack
//! switches (RSW), fabric switches (FSW), and spine switches (SSW) inside a
//! building; the disaggregated fabric-aggregation layer (HGRID) splits into
//! downlink (FADU) and uplink (FAUU) sub-switch groups; the metro aggregation
//! layer (MA / "DMAG") interconnects nearby regions; and EB, DR, and EBB
//! routers form the boundary to and the core of the wide-area backbone.

use crate::ids::{DcId, GridId, PlaneId, PodId, SwitchId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Role of a switch in the multi-layer DCN (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SwitchRole {
    /// Rack switch: top-of-rack, one per server rack.
    Rsw,
    /// Fabric switch: interconnects RSWs within a pod.
    Fsw,
    /// Spine switch: interconnects FSWs across pods; grouped into planes.
    Ssw,
    /// Fabric Aggregate Downlink Unit: HGRID sub-switch facing the fabric.
    Fadu,
    /// Fabric Aggregate Uplink Unit: HGRID sub-switch facing the backbone.
    Fauu,
    /// Metro aggregation switch (DMAG layer) interconnecting nearby regions.
    Ma,
    /// Backbone-side border router connecting to DRs.
    Eb,
    /// Datacenter router at the datacenter/backbone boundary.
    Dr,
    /// Express backbone router at the WAN core.
    Ebb,
}

impl SwitchRole {
    /// All roles, bottom-up.
    pub const ALL: [SwitchRole; 9] = [
        SwitchRole::Rsw,
        SwitchRole::Fsw,
        SwitchRole::Ssw,
        SwitchRole::Fadu,
        SwitchRole::Fauu,
        SwitchRole::Ma,
        SwitchRole::Eb,
        SwitchRole::Dr,
        SwitchRole::Ebb,
    ];

    /// Layer index, bottom-up: RSW is 0, EBB is 8.
    pub fn layer(self) -> u8 {
        match self {
            SwitchRole::Rsw => 0,
            SwitchRole::Fsw => 1,
            SwitchRole::Ssw => 2,
            SwitchRole::Fadu => 3,
            SwitchRole::Fauu => 4,
            SwitchRole::Ma => 5,
            SwitchRole::Eb => 6,
            SwitchRole::Dr => 7,
            SwitchRole::Ebb => 8,
        }
    }

    /// Short uppercase name used in switch names and NPD files.
    pub fn as_str(self) -> &'static str {
        match self {
            SwitchRole::Rsw => "RSW",
            SwitchRole::Fsw => "FSW",
            SwitchRole::Ssw => "SSW",
            SwitchRole::Fadu => "FADU",
            SwitchRole::Fauu => "FAUU",
            SwitchRole::Ma => "MA",
            SwitchRole::Eb => "EB",
            SwitchRole::Dr => "DR",
            SwitchRole::Ebb => "EBB",
        }
    }
}

impl fmt::Display for SwitchRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown switch-role name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRoleError(pub String);

impl fmt::Display for ParseRoleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown switch role: {:?}", self.0)
    }
}

impl std::error::Error for ParseRoleError {}

impl FromStr for SwitchRole {
    type Err = ParseRoleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "RSW" => Ok(SwitchRole::Rsw),
            "FSW" => Ok(SwitchRole::Fsw),
            "SSW" => Ok(SwitchRole::Ssw),
            "FADU" => Ok(SwitchRole::Fadu),
            "FAUU" => Ok(SwitchRole::Fauu),
            "MA" | "DMAG" => Ok(SwitchRole::Ma),
            "EB" => Ok(SwitchRole::Eb),
            "DR" => Ok(SwitchRole::Dr),
            "EBB" => Ok(SwitchRole::Ebb),
            other => Err(ParseRoleError(other.to_string())),
        }
    }
}

/// Hardware generation of a switch. Multiple generations coexist during a
/// migration (§2.2, "Consider different generations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Generation(pub u8);

impl Generation {
    /// First-generation hardware.
    pub const V1: Generation = Generation(1);
    /// Second-generation hardware.
    pub const V2: Generation = Generation(2);
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A switch record in the union topology.
///
/// Position fields (`plane`, `pod`, `grid`) are optional because they only
/// apply to some roles; they drive symmetry detection and the operation-block
/// organization policy in `klotski-core`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Switch {
    /// Dense identifier within the owning topology.
    pub id: SwitchId,
    /// Layer role.
    pub role: SwitchRole,
    /// Hardware generation.
    pub generation: Generation,
    /// Datacenter building this switch lives in.
    pub dc: DcId,
    /// Spine plane, for plane-aligned roles (FSW, SSW, and plane-aligned FA).
    pub plane: Option<PlaneId>,
    /// Pod, for pod-local roles (RSW, FSW).
    pub pod: Option<PodId>,
    /// HGRID grid, for FA sub-switches (FADU, FAUU) and MAs.
    pub grid: Option<GridId>,
    /// Physical port budget of the chassis (Eq. 6 hard constraint).
    pub max_ports: u16,
    /// Human-readable name, e.g. `dc0/SSW-p2-3` or `dc1/FADU-v2-g0-1`.
    pub name: String,
}

impl Switch {
    /// Formats a canonical switch name from its coordinates.
    pub fn canonical_name(
        dc: DcId,
        role: SwitchRole,
        generation: Generation,
        plane: Option<PlaneId>,
        pod: Option<PodId>,
        grid: Option<GridId>,
        ordinal: usize,
    ) -> String {
        let mut name = format!("{dc}/{role}-{generation}");
        if let Some(p) = plane {
            name.push_str(&format!("-p{}", p.0));
        }
        if let Some(p) = pod {
            name.push_str(&format!("-pod{}", p.0));
        }
        if let Some(g) = grid {
            name.push_str(&format!("-g{}", g.0));
        }
        name.push_str(&format!("-{ordinal}"));
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_bottom_up_and_distinct() {
        let mut layers: Vec<u8> = SwitchRole::ALL.iter().map(|r| r.layer()).collect();
        let sorted = layers.clone();
        layers.sort_unstable();
        assert_eq!(layers, sorted, "ALL must be listed bottom-up");
        layers.dedup();
        assert_eq!(layers.len(), SwitchRole::ALL.len());
    }

    #[test]
    fn role_roundtrips_through_str() {
        for role in SwitchRole::ALL {
            let parsed: SwitchRole = role.as_str().parse().unwrap();
            assert_eq!(parsed, role);
            // Parsing is case-insensitive.
            let parsed_lower: SwitchRole = role.as_str().to_ascii_lowercase().parse().unwrap();
            assert_eq!(parsed_lower, role);
        }
    }

    #[test]
    fn dmag_aliases_ma() {
        assert_eq!("DMAG".parse::<SwitchRole>().unwrap(), SwitchRole::Ma);
    }

    #[test]
    fn unknown_role_is_an_error() {
        let err = "TOR".parse::<SwitchRole>().unwrap_err();
        assert!(err.to_string().contains("TOR"));
    }

    #[test]
    fn generation_display() {
        assert_eq!(Generation::V1.to_string(), "v1");
        assert_eq!(Generation::V2.to_string(), "v2");
        assert!(Generation::V1 < Generation::V2);
    }

    #[test]
    fn canonical_name_includes_coordinates() {
        let name = Switch::canonical_name(
            DcId(1),
            SwitchRole::Fadu,
            Generation::V2,
            None,
            None,
            Some(GridId(3)),
            7,
        );
        assert_eq!(name, "dc1/FADU-v2-g3-7");
    }
}
