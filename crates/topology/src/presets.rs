//! Evaluation topology presets A–E (+ E-DMAG, E-SSW) per Table 3.
//!
//! The paper evaluates five production topologies in ascending size, from
//! ~40 switches / ~80 circuits (A) to ~10,000 switches / ~100,000 circuits
//! (E, comparable to a full Meta DCN region), plus two variants of E that
//! differ only in migration type. Exact production blueprints are
//! proprietary; these generators reproduce the published scale and the
//! architecture of §2.1 (4–8 spine planes, up to 36 SSWs per plane, grids of
//! FADU/FAUU sub-switches, EB/DR/EBB backbone attachment).
//!
//! Because the planner's search structure depends on the *FA-layer shape*
//! (grids, generations, meshing) and not on fabric width, the
//! [`build_for_bench`] constructor shrinks only the fabric of the D/E
//! presets when `KLOTSKI_FULL_SCALE` is unset, keeping the planning problem
//! identical while making satisfiability checks laptop-friendly.

use crate::fabric::FabricConfig;
use crate::graph::Topology;
use crate::hgrid::HgridConfig;
use crate::ma::{BackboneConfig, MaConfig};
use crate::region::{build_region, RegionConfig, RegionHandles};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which evaluation topology to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PresetId {
    /// ~40 switches, ~80 circuits, ~50 actions. HGRID v1→v2.
    A,
    /// ~100 switches, ~600 circuits, ~100 actions. HGRID v1→v2.
    B,
    /// ~600 switches, ~8,000 circuits, ~300 actions. HGRID v1→v2.
    C,
    /// ~1,000 switches, ~20,000 circuits, ~300 actions. HGRID v1→v2.
    D,
    /// ~10,000 switches, ~100,000 circuits, ~700 actions. HGRID v1→v2.
    E,
    /// Topology E under a DMAG migration (~100 actions).
    EDmag,
    /// Topology E under an SSW forklift migration (~300 actions).
    ESsw,
}

impl PresetId {
    /// All presets in Table 3 order.
    pub const ALL: [PresetId; 7] = [
        PresetId::A,
        PresetId::B,
        PresetId::C,
        PresetId::D,
        PresetId::E,
        PresetId::EDmag,
        PresetId::ESsw,
    ];

    /// The five HGRID-scalability presets (Figure 8).
    pub const SCALABILITY: [PresetId; 5] = [
        PresetId::A,
        PresetId::B,
        PresetId::C,
        PresetId::D,
        PresetId::E,
    ];
}

impl fmt::Display for PresetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PresetId::A => "A",
            PresetId::B => "B",
            PresetId::C => "C",
            PresetId::D => "D",
            PresetId::E => "E",
            PresetId::EDmag => "E-DMAG",
            PresetId::ESsw => "E-SSW",
        };
        f.write_str(s)
    }
}

/// A built evaluation topology: union graph + element-group handles.
#[derive(Debug, Clone)]
pub struct Preset {
    pub id: PresetId,
    pub config: RegionConfig,
    pub topology: Topology,
    pub handles: RegionHandles,
}

fn fabric(pods: usize, rsws: usize, planes: usize, ssws: usize) -> FabricConfig {
    FabricConfig {
        pods,
        rsws_per_pod: rsws,
        planes,
        ssws_per_plane: ssws,
        // Per-RSW and per-FSW uplink capacity is held constant across
        // plane counts so the fabric never becomes the bottleneck of an
        // FA-layer migration (the paper's migrations stress the FA layer;
        // fabric hotspots would mask the constraints under study).
        rsw_fsw_gbps: 3200.0 / planes as f64,
        fsw_ssw_gbps: 6400.0 / planes as f64,
        ..FabricConfig::default()
    }
}

fn hgrid_v2(grids: usize, fadus: usize, fauus: usize, uplinks: usize) -> HgridConfig {
    HgridConfig {
        uplinks_per_ssw: uplinks,
        ..HgridConfig::v2(grids, fadus, fauus)
    }
}

fn backbone(ebs: usize, drs: usize, ebbs: usize) -> BackboneConfig {
    BackboneConfig {
        ebs,
        drs,
        ebbs,
        ..BackboneConfig::default()
    }
}

/// Region config for a preset at full (paper) scale.
pub fn config(id: PresetId) -> RegionConfig {
    match id {
        PresetId::A => RegionConfig {
            name: "topo-A".into(),
            dcs: vec![fabric(3, 3, 2, 3)],
            hgrid_v1: HgridConfig::v1(3, 3, 2),
            hgrid_v2: Some(hgrid_v2(6, 3, 2, 2)),
            backbone: backbone(3, 2, 2),
            dmag: None,
            ssw_forklift_dcs: vec![],
        },
        PresetId::B => RegionConfig {
            name: "topo-B".into(),
            dcs: vec![fabric(8, 6, 4, 4)],
            hgrid_v1: HgridConfig::v1(4, 4, 2),
            hgrid_v2: Some(hgrid_v2(8, 6, 3, 2)),
            backbone: backbone(4, 2, 2),
            dmag: None,
            ssw_forklift_dcs: vec![],
        },
        PresetId::C => RegionConfig {
            name: "topo-C".into(),
            dcs: vec![fabric(12, 12, 4, 8); 2],
            hgrid_v1: HgridConfig::v1(6, 8, 4),
            hgrid_v2: Some(hgrid_v2(12, 12, 6, 2)),
            backbone: backbone(6, 3, 3),
            dmag: None,
            ssw_forklift_dcs: vec![],
        },
        PresetId::D => RegionConfig {
            name: "topo-D".into(),
            dcs: vec![fabric(32, 20, 4, 16); 2],
            hgrid_v1: HgridConfig::v1(6, 8, 4),
            hgrid_v2: Some(hgrid_v2(12, 12, 6, 2)),
            backbone: backbone(6, 3, 3),
            dmag: None,
            ssw_forklift_dcs: vec![],
        },
        PresetId::E => RegionConfig {
            name: "topo-E".into(),
            dcs: vec![fabric(48, 40, 8, 36); 4],
            hgrid_v1: HgridConfig::v1(8, 16, 8),
            hgrid_v2: Some(hgrid_v2(16, 20, 10, 2)),
            backbone: backbone(8, 4, 4),
            dmag: None,
            ssw_forklift_dcs: vec![],
        },
        PresetId::EDmag => RegionConfig {
            name: "topo-E-DMAG".into(),
            dmag: Some(MaConfig {
                mas: 48,
                ebs_per_ma: 4,
                ..MaConfig::default()
            }),
            hgrid_v2: None,
            ..config(PresetId::E)
        },
        PresetId::ESsw => RegionConfig {
            name: "topo-E-SSW".into(),
            hgrid_v2: None,
            ssw_forklift_dcs: vec![0],
            ..config(PresetId::E)
        },
    }
}

/// Builds a preset at full (paper) scale.
pub fn build(id: PresetId) -> Preset {
    let config = config(id);
    let (topology, handles) = build_region(&config);
    Preset {
        id,
        config,
        topology,
        handles,
    }
}

/// True when the environment requests full-scale D/E topologies.
pub fn full_scale_requested() -> bool {
    std::env::var("KLOTSKI_FULL_SCALE").map(|v| v != "0" && !v.is_empty()) == Ok(true)
}

/// Fabric-only shrink factor applied by [`build_for_bench`] per preset.
///
/// Only the fabric (pods, RSWs per pod, SSWs per plane) shrinks; plane
/// count, the FA layer, the backbone, and the migration union are identical
/// to full scale, so block structure, action types, and the feasible search
/// region do not change — only the cost of each satisfiability check.
fn bench_fabric_shrink(id: PresetId) -> f64 {
    if full_scale_requested() {
        return 1.0;
    }
    match id {
        PresetId::A | PresetId::B | PresetId::C => 1.0,
        PresetId::D => 0.5,
        PresetId::E | PresetId::EDmag | PresetId::ESsw => 0.25,
    }
}

/// Builds a preset for benchmarking: full scale for A–C, fabric shrunk for
/// D/E unless `KLOTSKI_FULL_SCALE=1`.
pub fn build_for_bench(id: PresetId) -> Preset {
    let shrink = bench_fabric_shrink(id);
    let mut cfg = config(id);
    if shrink < 1.0 {
        for fc in &mut cfg.dcs {
            fc.pods = ((fc.pods as f64 * shrink).round() as usize).max(2);
            fc.rsws_per_pod = ((fc.rsws_per_pod as f64 * shrink).round() as usize).max(2);
            fc.ssws_per_plane = ((fc.ssws_per_plane as f64 * shrink).round() as usize).max(2);
        }
        cfg.name.push_str("-bench");
    }
    let (topology, handles) = build_region(&cfg);
    Preset {
        id,
        config: cfg,
        topology,
        handles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netstate::NetState;
    use crate::switch::Generation;

    #[test]
    fn preset_a_is_table3_sized() {
        let p = build(PresetId::A);
        p.topology.validate().unwrap();
        // Base network (v1 world) switch count: total minus v2 FA layer.
        let v2 = p.handles.hgrid_v2_switches().len();
        let base = p.topology.num_switches() - v2;
        assert!(
            (30..=55).contains(&base),
            "topo A base switches = {base}, want ~40"
        );
        // Switch-level action count: v1 FA drains + v2 FA undrains.
        let actions = p.handles.hgrid_v1.all_switches().len() + v2;
        assert!(
            (35..=60).contains(&actions),
            "topo A actions = {actions}, want ~50"
        );
    }

    #[test]
    fn presets_ascend_in_size() {
        let sizes: Vec<usize> = [PresetId::A, PresetId::B, PresetId::C]
            .iter()
            .map(|&id| build(id).topology.num_switches())
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }

    #[test]
    fn hgrid_presets_have_both_generations() {
        for id in [PresetId::A, PresetId::B, PresetId::C] {
            let p = build(id);
            assert!(!p.handles.hgrid_v1.all_switches().is_empty());
            assert!(!p.handles.hgrid_v2_switches().is_empty(), "{id}");
        }
    }

    #[test]
    fn edmag_has_ma_layer_and_no_v2() {
        let p = build_for_bench(PresetId::EDmag);
        assert!(p.handles.ma.is_some());
        assert!(p.handles.hgrid_v2.is_none());
        assert_eq!(p.handles.ma.as_ref().unwrap().all_mas().len(), 48);
    }

    #[test]
    fn essw_forklifts_exactly_one_dc() {
        let p = build_for_bench(PresetId::ESsw);
        assert!(!p.handles.ssw_v2[0].is_empty());
        for dc in 1..p.handles.ssw_v2.len() {
            assert!(p.handles.ssw_v2[dc].is_empty());
        }
        for s in p.handles.ssw_v2_switches() {
            assert_eq!(p.topology.switch(s).generation, Generation::V2);
        }
    }

    #[test]
    fn bench_build_preserves_fa_layer() {
        let full = config(PresetId::E);
        let bench = build_for_bench(PresetId::E);
        assert_eq!(bench.config.hgrid_v1, full.hgrid_v1);
        assert_eq!(bench.config.hgrid_v2, full.hgrid_v2);
        assert_eq!(bench.config.backbone, full.backbone);
        assert!(bench.config.dcs[0].pods < full.dcs[0].pods);
        assert_eq!(bench.config.dcs[0].planes, full.dcs[0].planes);
    }

    #[test]
    fn initial_world_fits_port_budgets() {
        // Draining the not-yet-installed generation must leave a
        // port-feasible network for every preset (at bench scale).
        for id in [PresetId::A, PresetId::B, PresetId::EDmag] {
            let p = build_for_bench(id);
            let mut s = NetState::all_up(&p.topology);
            for sw in p.handles.hgrid_v2_switches() {
                s.drain_switch(&p.topology, sw);
            }
            for sw in p.handles.ssw_v2_switches() {
                s.drain_switch(&p.topology, sw);
            }
            if let Some(ma) = &p.handles.ma {
                for sw in ma.all_mas() {
                    s.drain_switch(&p.topology, sw);
                }
            }
            assert!(
                p.topology.port_violations(&s).is_empty(),
                "{id} initial world violates ports"
            );
        }
    }

    #[test]
    fn display_matches_table3_labels() {
        assert_eq!(PresetId::EDmag.to_string(), "E-DMAG");
        assert_eq!(PresetId::ESsw.to_string(), "E-SSW");
        assert_eq!(PresetId::ALL.len(), 7);
    }
}
