//! HGRID fabric-aggregation layer generator (FADU/FAUU grids).
//!
//! The FA layer serves east/west traffic between buildings of a region and
//! the region's ingress/egress to the backbone (§2.1). The latest generation,
//! HGRID, is disaggregated: commodity sub-switches facing the fabric are
//! grouped into FADUs (downlink units) and sub-switches facing the backbone
//! into FAUUs (uplink units). Grids of FADUs + FAUUs are the natural
//! operation blocks of the HGRID v1→v2 migration (§4.1, Figure 5).
//!
//! Two meshing patterns toward the fabric's spine planes are supported,
//! mirroring Figure 2(c) of the paper:
//!
//! - [`MeshPattern::PlaneAligned`]: FADU `i` of a grid serves spine plane
//!   `i mod planes` and connects to every SSW of that plane (one-to-one
//!   mapping with downstream planes; typical of generation v1).
//! - [`MeshPattern::Spread`]: the SSW slots of all planes are enumerated as
//!   `k = plane·S + j` and slot `k` attaches to FADU `k mod F` of each grid —
//!   smaller capacity per node, no per-plane mapping, balanced across both
//!   sides (typical of generation v2).

use crate::fabric::FabricHandles;
use crate::graph::{SwitchSpec, TopologyBuilder};
use crate::ids::{CircuitId, DcId, GridId, SwitchId};
use crate::switch::{Generation, SwitchRole};
use serde::{Deserialize, Serialize};

/// How FADUs mesh with the spine planes below (Figure 2(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeshPattern {
    /// One-to-one mapping between FADUs and spine planes.
    PlaneAligned,
    /// Stride-spread connections across all planes.
    Spread,
}

/// Parameters of one HGRID generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HgridConfig {
    /// Number of grids (each grid is a group of FADUs + FAUUs).
    pub grids: usize,
    /// FADU sub-switches per grid.
    pub fadus_per_grid: usize,
    /// FAUU sub-switches per grid.
    pub fauus_per_grid: usize,
    /// Hardware generation.
    pub generation: Generation,
    /// Downward meshing pattern.
    pub mesh: MeshPattern,
    /// Capacity of each SSW–FADU circuit, Gbps.
    pub ssw_fadu_gbps: f64,
    /// Capacity of each FADU–FAUU circuit, Gbps.
    pub fadu_fauu_gbps: f64,
    /// For [`MeshPattern::Spread`]: how many FADUs each SSW slot attaches to
    /// per grid. Disaggregated v2 units have smaller per-circuit capacity, so
    /// presets raise this until the v2 layer's aggregate capacity matches or
    /// exceeds v1's (the point of the migration, §2.4). Ignored by
    /// [`MeshPattern::PlaneAligned`].
    pub uplinks_per_ssw: usize,
    /// Port budgets.
    pub fadu_ports: u16,
    pub fauu_ports: u16,
}

impl HgridConfig {
    /// A typical v1 layer: few large plane-aligned units.
    pub fn v1(grids: usize, fadus_per_grid: usize, fauus_per_grid: usize) -> Self {
        Self {
            grids,
            fadus_per_grid,
            fauus_per_grid,
            generation: Generation::V1,
            mesh: MeshPattern::PlaneAligned,
            ssw_fadu_gbps: 400.0,
            fadu_fauu_gbps: 400.0,
            uplinks_per_ssw: 1,
            fadu_ports: 512,
            fauu_ports: 512,
        }
    }

    /// A typical v2 layer: more, smaller, spread units with higher aggregate
    /// capacity (the point of the HGRID v1→v2 migration, §2.4).
    pub fn v2(grids: usize, fadus_per_grid: usize, fauus_per_grid: usize) -> Self {
        Self {
            grids,
            fadus_per_grid,
            fauus_per_grid,
            generation: Generation::V2,
            mesh: MeshPattern::Spread,
            ssw_fadu_gbps: 200.0,
            // Internal grid fabric is deliberately fat: partial
            // deployments concentrate a slice's FADU traffic on the few
            // FAUUs already up, and the internal mesh must absorb that.
            fadu_fauu_gbps: 500.0,
            uplinks_per_ssw: 1,
            fadu_ports: 512,
            fauu_ports: 512,
        }
    }
}

/// Ids of the sub-switches created for one HGRID generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HgridHandles {
    /// Generation these handles belong to.
    pub generation: Generation,
    /// FADUs indexed as `fadus[grid][i]`.
    pub fadus: Vec<Vec<SwitchId>>,
    /// FAUUs indexed as `fauus[grid][i]`.
    pub fauus: Vec<Vec<SwitchId>>,
    /// Circuits from SSWs up to this layer's FADUs.
    pub ssw_fadu_circuits: Vec<CircuitId>,
    /// Circuits within grids (FADU–FAUU).
    pub intra_grid_circuits: Vec<CircuitId>,
}

impl HgridHandles {
    /// Flat list of every sub-switch in this layer.
    pub fn all_switches(&self) -> Vec<SwitchId> {
        self.fadus
            .iter()
            .chain(self.fauus.iter())
            .flatten()
            .copied()
            .collect()
    }

    /// All sub-switches of one grid (FADUs then FAUUs).
    pub fn grid_switches(&self, grid: usize) -> Vec<SwitchId> {
        self.fadus[grid]
            .iter()
            .chain(self.fauus[grid].iter())
            .copied()
            .collect()
    }

    /// Number of grids.
    pub fn num_grids(&self) -> usize {
        self.fadus.len()
    }
}

/// Builds the HGRID sub-switches (no downward wiring yet) into `b`.
///
/// `dc` identifies the aggregation site; FA hardware shares space and power
/// across generations (§7.2), so v1 and v2 layers use the same `dc`.
pub fn build_hgrid(b: &mut TopologyBuilder, dc: DcId, cfg: &HgridConfig) -> HgridHandles {
    assert!(
        cfg.grids > 0 && cfg.fadus_per_grid > 0 && cfg.fauus_per_grid > 0,
        "hgrid must be non-empty"
    );
    let mut fadus = Vec::with_capacity(cfg.grids);
    let mut fauus = Vec::with_capacity(cfg.grids);
    let mut intra = Vec::new();
    for grid in 0..cfg.grids {
        let gid = GridId(grid as u16);
        let grid_fadus: Vec<SwitchId> = (0..cfg.fadus_per_grid)
            .map(|_| {
                b.add_switch(
                    SwitchSpec::new(SwitchRole::Fadu, cfg.generation, dc, cfg.fadu_ports).grid(gid),
                )
            })
            .collect();
        let grid_fauus: Vec<SwitchId> = (0..cfg.fauus_per_grid)
            .map(|_| {
                b.add_switch(
                    SwitchSpec::new(SwitchRole::Fauu, cfg.generation, dc, cfg.fauu_ports).grid(gid),
                )
            })
            .collect();
        // Full bipartite mesh inside the grid.
        for &fd in &grid_fadus {
            for &fu in &grid_fauus {
                intra.push(
                    b.add_circuit(fd, fu, cfg.fadu_fauu_gbps)
                        .expect("intra-grid circuit"),
                );
            }
        }
        fadus.push(grid_fadus);
        fauus.push(grid_fauus);
    }
    HgridHandles {
        generation: cfg.generation,
        fadus,
        fauus,
        ssw_fadu_circuits: Vec::new(),
        intra_grid_circuits: intra,
    }
}

/// Wires an HGRID layer down to one fabric's spine planes according to the
/// layer's mesh pattern. Appends the created circuits to
/// `handles.ssw_fadu_circuits`.
pub fn connect_hgrid_to_fabric(
    b: &mut TopologyBuilder,
    handles: &mut HgridHandles,
    fabric: &FabricHandles,
    cfg: &HgridConfig,
) {
    let planes = fabric.ssws.len();
    for grid_fadus in &handles.fadus {
        for (i, &fadu) in grid_fadus.iter().enumerate() {
            match cfg.mesh {
                MeshPattern::PlaneAligned => {
                    let plane = i % planes;
                    for &ssw in &fabric.ssws[plane] {
                        handles.ssw_fadu_circuits.push(
                            b.add_circuit(ssw, fadu, cfg.ssw_fadu_gbps)
                                .expect("ssw-fadu circuit"),
                        );
                    }
                }
                MeshPattern::Spread => {
                    let fadus = grid_fadus.len();
                    let uplinks = cfg.uplinks_per_ssw.max(1);
                    for (plane, plane_ssws) in fabric.ssws.iter().enumerate() {
                        for (j, &ssw) in plane_ssws.iter().enumerate() {
                            let slot = plane * plane_ssws.len() + j;
                            for m in 0..uplinks {
                                if (slot * uplinks + m) % fadus == i {
                                    handles.ssw_fadu_circuits.push(
                                        b.add_circuit(ssw, fadu, cfg.ssw_fadu_gbps)
                                            .expect("ssw-fadu circuit"),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{build_fabric, FabricConfig};

    fn fabric_handles(b: &mut TopologyBuilder) -> FabricHandles {
        build_fabric(
            b,
            DcId(0),
            &FabricConfig {
                pods: 2,
                rsws_per_pod: 2,
                planes: 2,
                ssws_per_plane: 4,
                ..FabricConfig::default()
            },
        )
    }

    #[test]
    fn build_counts() {
        let cfg = HgridConfig::v1(3, 2, 2);
        let mut b = TopologyBuilder::new("h");
        let h = build_hgrid(&mut b, DcId(9), &cfg);
        assert_eq!(h.all_switches().len(), 3 * (2 + 2));
        assert_eq!(h.num_grids(), 3);
        assert_eq!(h.grid_switches(0).len(), 4);
        // 2x2 bipartite mesh per grid, 3 grids.
        assert_eq!(h.intra_grid_circuits.len(), 12);
        assert_eq!(b.num_circuits(), 12);
    }

    #[test]
    fn plane_aligned_meshes_one_plane_per_fadu() {
        let mut b = TopologyBuilder::new("h");
        let fab = fabric_handles(&mut b);
        let cfg = HgridConfig::v1(1, 2, 1);
        let mut h = build_hgrid(&mut b, DcId(0), &cfg);
        connect_hgrid_to_fabric(&mut b, &mut h, &fab, &cfg);
        let t = b.build();
        // FADU 0 -> all 4 SSWs of plane 0, none of plane 1.
        let fadu0 = h.fadus[0][0];
        for &ssw in &fab.ssws[0] {
            assert_eq!(t.circuits_between(ssw, fadu0).len(), 1);
        }
        for &ssw in &fab.ssws[1] {
            assert_eq!(t.circuits_between(ssw, fadu0).len(), 0);
        }
        assert_eq!(h.ssw_fadu_circuits.len(), 2 * 4);
    }

    #[test]
    fn spread_meshes_across_all_planes() {
        let mut b = TopologyBuilder::new("h");
        let fab = fabric_handles(&mut b);
        let cfg = HgridConfig::v2(1, 2, 1);
        let mut h = build_hgrid(&mut b, DcId(0), &cfg);
        connect_hgrid_to_fabric(&mut b, &mut h, &fab, &cfg);
        let t = b.build();
        // FADU 0 takes SSW indices {0, 2} of *each* plane (stride 2).
        let fadu0 = h.fadus[0][0];
        for plane in 0..2 {
            assert_eq!(t.circuits_between(fab.ssws[plane][0], fadu0).len(), 1);
            assert_eq!(t.circuits_between(fab.ssws[plane][1], fadu0).len(), 0);
            assert_eq!(t.circuits_between(fab.ssws[plane][2], fadu0).len(), 1);
            assert_eq!(t.circuits_between(fab.ssws[plane][3], fadu0).len(), 0);
        }
    }

    #[test]
    fn spread_covers_every_ssw_exactly_once_per_grid() {
        let mut b = TopologyBuilder::new("h");
        let fab = fabric_handles(&mut b);
        let cfg = HgridConfig::v2(2, 2, 1);
        let mut h = build_hgrid(&mut b, DcId(0), &cfg);
        connect_hgrid_to_fabric(&mut b, &mut h, &fab, &cfg);
        let t = b.build();
        // Every SSW must have exactly one uplink per grid = 2 uplinks.
        for ssw in fab.all_ssws() {
            let uplinks = t
                .neighbors(ssw)
                .iter()
                .filter(|&&(_, far)| t.switch(far).role == SwitchRole::Fadu)
                .count();
            assert_eq!(uplinks, 2, "ssw {ssw} uplink count");
        }
    }

    #[test]
    fn v1_and_v2_presets_differ_in_generation_and_mesh() {
        let v1 = HgridConfig::v1(2, 2, 1);
        let v2 = HgridConfig::v2(2, 4, 2);
        assert_eq!(v1.generation, Generation::V1);
        assert_eq!(v2.generation, Generation::V2);
        assert_eq!(v1.mesh, MeshPattern::PlaneAligned);
        assert_eq!(v2.mesh, MeshPattern::Spread);
        assert!(v2.ssw_fadu_gbps < v1.ssw_fadu_gbps, "v2 units are smaller");
    }
}
