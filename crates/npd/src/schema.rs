//! The NPD document schema: six parts plus hardware and phases.

use serde::{Deserialize, Serialize};

/// A complete NPD document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Npd {
    /// Format version of this document.
    pub version: u32,
    /// Region/topology name.
    pub name: String,
    /// Part 1: per-building fabrics.
    pub fabric: FabricPart,
    /// Part 2: the FA layer's HGRID generations.
    pub hgrid: HgridPart,
    /// Part 3: metro aggregation (empty before a DMAG migration).
    pub ma: MaPart,
    /// Part 4: EB border routers.
    pub eb: EbPart,
    /// Part 5: DR datacenter routers.
    pub dr: DrPart,
    /// Part 6: backbone attachment.
    pub bb: BbPart,
    /// Hardware catalog referenced by the parts.
    pub hardware: Vec<HardwareSpec>,
    /// Ordered migration phases (populated when a plan is attached).
    #[serde(default)]
    pub phases: Vec<MigrationPhase>,
}

impl Npd {
    /// Current schema version.
    pub(crate) const VERSION: u32 = 1;

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// One building's fabric description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricBuilding {
    /// Building index within the region.
    pub building: u16,
    pub pods: usize,
    pub rsws_per_pod: usize,
    pub planes: usize,
    pub ssws_per_plane: usize,
    /// Circuit capacities, Gbps.
    pub rsw_fsw_gbps: f64,
    pub fsw_ssw_gbps: f64,
    /// Hardware catalog references by role.
    pub rsw_hardware: String,
    pub fsw_hardware: String,
    pub ssw_hardware: String,
}

/// Part 1: fabrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricPart {
    pub buildings: Vec<FabricBuilding>,
    /// Buildings (indices into `buildings`) whose SSWs are forklifted: each
    /// gets a second generation of SSWs beside its first (§2.4). Left out
    /// of the document when empty.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub ssw_forklift: Vec<u16>,
}

/// One HGRID generation layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HgridLayer {
    /// Hardware generation (1 = v1, 2 = v2).
    pub generation: u8,
    pub grids: usize,
    pub fadus_per_grid: usize,
    pub fauus_per_grid: usize,
    /// Downward meshing: "plane-aligned" or "spread".
    pub mesh: String,
    pub ssw_fadu_gbps: f64,
    pub fadu_fauu_gbps: f64,
    /// Spread-mesh uplink multiplicity per SSW slot.
    pub uplinks_per_ssw: usize,
    pub hardware: String,
}

/// Part 2: the FA layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HgridPart {
    /// Coexisting generations (one entry outside migrations, two during
    /// an HGRID v1→v2 migration).
    pub layers: Vec<HgridLayer>,
}

/// Part 3: metro aggregation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MaPart {
    /// MA switch count; zero when the layer does not exist (yet).
    pub mas: usize,
    /// EBs each MA wires to.
    pub ebs_per_ma: usize,
    pub fauu_ma_gbps: f64,
    pub ma_eb_gbps: f64,
    pub hardware: String,
}

/// Part 4: EB border routers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EbPart {
    pub ebs: usize,
    pub fauu_eb_gbps: f64,
    pub hardware: String,
}

/// Part 5: DR datacenter routers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrPart {
    pub drs: usize,
    pub eb_dr_gbps: f64,
    pub hardware: String,
}

/// Part 6: backbone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BbPart {
    pub ebbs: usize,
    pub dr_ebb_gbps: f64,
    pub hardware: String,
}

/// A hardware catalog entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Catalog key referenced by the parts (e.g. "rsw-std").
    pub key: String,
    /// Marketing/system name.
    pub model: String,
    /// Physical port count.
    pub ports: u16,
}

/// One migration phase: an ordered step of the output plan ("Klotski
/// returns an ordered list of topology phases", §5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPhase {
    /// 1-based phase number.
    pub index: usize,
    /// Action type label, e.g. `drain-fa-grid-v1`.
    pub action: String,
    /// Labels of the operation blocks executed in parallel in this phase.
    pub blocks: Vec<String>,
    /// Switch-level operation count.
    pub switch_ops: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Npd {
        Npd {
            version: Npd::VERSION,
            name: "region-x".into(),
            fabric: FabricPart {
                buildings: vec![FabricBuilding {
                    building: 0,
                    pods: 2,
                    rsws_per_pod: 2,
                    planes: 2,
                    ssws_per_plane: 2,
                    rsw_fsw_gbps: 400.0,
                    fsw_ssw_gbps: 800.0,
                    rsw_hardware: "rsw-std".into(),
                    fsw_hardware: "fsw-std".into(),
                    ssw_hardware: "ssw-std".into(),
                }],
                ssw_forklift: vec![],
            },
            hgrid: HgridPart {
                layers: vec![HgridLayer {
                    generation: 1,
                    grids: 2,
                    fadus_per_grid: 2,
                    fauus_per_grid: 1,
                    mesh: "plane-aligned".into(),
                    ssw_fadu_gbps: 400.0,
                    fadu_fauu_gbps: 400.0,
                    uplinks_per_ssw: 1,
                    hardware: "fa-v1".into(),
                }],
            },
            ma: MaPart::default(),
            eb: EbPart {
                ebs: 2,
                fauu_eb_gbps: 400.0,
                hardware: "eb-std".into(),
            },
            dr: DrPart {
                drs: 1,
                eb_dr_gbps: 3200.0,
                hardware: "dr-std".into(),
            },
            bb: BbPart {
                ebbs: 1,
                dr_ebb_gbps: 6400.0,
                hardware: "ebb-std".into(),
            },
            hardware: vec![HardwareSpec {
                key: "rsw-std".into(),
                model: "Wedge".into(),
                ports: 64,
            }],
            phases: vec![],
        }
    }

    #[test]
    fn json_roundtrip_preserves_document() {
        let npd = sample();
        let json = npd.to_json_pretty().unwrap();
        let back = Npd::from_json(&json).unwrap();
        assert_eq!(back, npd);
    }

    #[test]
    fn phases_default_to_empty() {
        let mut npd = sample();
        npd.phases.clear();
        let json = npd.to_json_pretty().unwrap();
        // Remove the phases key entirely: serde default must kick in.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let mut obj = v.as_object().unwrap().clone();
        obj.remove("phases");
        let trimmed = serde_json::to_string(&obj).unwrap();
        let back = Npd::from_json(&trimmed).unwrap();
        assert!(back.phases.is_empty());
    }

    /// A document that forklifts nothing says nothing about it, so its
    /// bytes (and digest) are those of a document from before the field.
    #[test]
    fn the_forklift_list_is_written_only_when_it_names_a_building() {
        let mut npd = sample();
        let json = npd.to_json_pretty().unwrap();
        assert!(!json.contains("ssw_forklift"), "{json}");
        npd.fabric.ssw_forklift = vec![0];
        let json = npd.to_json_pretty().unwrap();
        assert!(json.contains("\"ssw_forklift\""), "{json}");
        assert_eq!(Npd::from_json(&json).unwrap(), npd);
    }

    #[test]
    fn six_parts_are_present_in_json() {
        let json = sample().to_json_pretty().unwrap();
        for part in ["fabric", "hgrid", "\"ma\"", "\"eb\"", "\"dr\"", "\"bb\""] {
            assert!(json.contains(part), "missing part {part}");
        }
    }
}
