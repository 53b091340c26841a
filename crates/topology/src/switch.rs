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
    pub(crate) fn as_str(self) -> &'static str {
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
    pub(crate) fn canonical_name(
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
        use SwitchRole::*;
        let roles = [Rsw, Fsw, Ssw, Fadu, Fauu, Ma, Eb, Dr, Ebb];
        let layers: Vec<u8> = roles.iter().map(|r| r.layer()).collect();
        assert_eq!(layers, (0..9).collect::<Vec<u8>>());
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
