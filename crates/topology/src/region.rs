//! Region composition: multiple datacenter fabrics under a shared FA layer
//! and backbone attachment, with optional migration unions.
//!
//! [`build_region`] produces the *union graph* for a migration: it can
//! contain both HGRID generations (HGRID v1→v2 migration), a not-yet-active
//! MA layer (DMAG migration), and/or a parallel second generation of SSWs
//! (SSW forklift migration). Which elements are live at the start/end of a
//! migration is decided by `klotski-core` from the returned
//! [`RegionHandles`].

use crate::fabric::{build_fabric, FabricConfig, FabricHandles};
use crate::graph::{Topology, TopologyBuilder};
use crate::hgrid::{build_hgrid, connect_hgrid_to_fabric, HgridConfig, HgridHandles};
use crate::ids::{CircuitId, DcId, SwitchId};
use crate::ma::{
    build_backbone, build_ma_layer, connect_fauus_to_ebs, BackboneConfig, BackboneHandles,
    MaConfig, MaHandles,
};
use crate::switch::Generation;
use serde::{Deserialize, Serialize};

/// Parameters of a region and of the migration union to embed in it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionConfig {
    /// Region name; becomes the topology name.
    pub name: String,
    /// One fabric config per datacenter building.
    pub dcs: Vec<FabricConfig>,
    /// Current-generation HGRID layer.
    pub hgrid_v1: HgridConfig,
    /// Target-generation HGRID layer (present for HGRID v1→v2 migrations).
    pub hgrid_v2: Option<HgridConfig>,
    /// Backbone attachment.
    pub backbone: BackboneConfig,
    /// MA (DMAG) layer to insert (present for DMAG migrations).
    pub dmag: Option<MaConfig>,
    /// Datacenters whose spine gets a parallel second generation of SSWs
    /// (SSW forklift migrations upgrade all SSWs of one DC at a time, §2.4).
    pub ssw_forklift_dcs: Vec<u16>,
}

/// Everything needed to identify migration element groups in the union graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionHandles {
    /// Per-building fabric handles.
    pub fabrics: Vec<FabricHandles>,
    /// Current-generation HGRID.
    pub hgrid_v1: HgridHandles,
    /// Target-generation HGRID, if part of the union.
    pub hgrid_v2: Option<HgridHandles>,
    /// Backbone routers.
    pub backbone: BackboneHandles,
    /// Direct v1-FAUU → EB circuits, grouped by EB (DMAG drains these
    /// per-EB, following the §5 organization policy).
    pub fauu_eb_v1_by_eb: Vec<Vec<CircuitId>>,
    /// Direct v2-FAUU → EB circuits (flat; activated with the v2 layer).
    pub fauu_eb_v2: Vec<CircuitId>,
    /// MA layer, if part of the union.
    pub ma: Option<MaHandles>,
    /// Second-generation SSWs as `ssw_v2[dc][plane][i]`, if part of the union.
    pub ssw_v2: Vec<Vec<Vec<SwitchId>>>,
    /// Pseudo-DC hosting the aggregation and backbone hardware.
    pub agg_dc: DcId,
}

impl RegionHandles {
    /// All switches of the v1 HGRID layer.
    pub fn hgrid_v1_switches(&self) -> Vec<SwitchId> {
        self.hgrid_v1.all_switches()
    }

    /// All switches of the v2 HGRID layer (empty if absent).
    pub fn hgrid_v2_switches(&self) -> Vec<SwitchId> {
        self.hgrid_v2
            .as_ref()
            .map(|h| h.all_switches())
            .unwrap_or_default()
    }

    /// All v2 SSWs flattened (empty if absent).
    pub fn ssw_v2_switches(&self) -> Vec<SwitchId> {
        self.ssw_v2.iter().flatten().flatten().copied().collect()
    }
}

/// Builds a region union graph per `cfg`.
pub fn build_region(cfg: &RegionConfig) -> (Topology, RegionHandles) {
    assert!(!cfg.dcs.is_empty(), "region needs at least one datacenter");
    let mut b = TopologyBuilder::new(cfg.name.clone());

    // 1. Fabrics, one per building.
    let fabrics: Vec<FabricHandles> = cfg
        .dcs
        .iter()
        .enumerate()
        .map(|(i, fc)| build_fabric(&mut b, DcId(i as u16), fc))
        .collect();
    let agg_dc = DcId(cfg.dcs.len() as u16);

    // 2. Current-generation HGRID, meshed to every fabric.
    let mut hgrid_v1 = build_hgrid(&mut b, agg_dc, &cfg.hgrid_v1);
    for fab in &fabrics {
        connect_hgrid_to_fabric(&mut b, &mut hgrid_v1, fab, &cfg.hgrid_v1);
    }

    // 3. Target-generation HGRID if migrating the FA layer.
    let hgrid_v2 = cfg.hgrid_v2.as_ref().map(|hc| {
        assert_eq!(hc.generation, Generation::V2, "target hgrid must be v2");
        let mut h = build_hgrid(&mut b, agg_dc, hc);
        for fab in &fabrics {
            connect_hgrid_to_fabric(&mut b, &mut h, fab, hc);
        }
        h
    });

    // 4. Second-generation SSWs in the forklifted datacenters.
    let mut ssw_v2: Vec<Vec<Vec<SwitchId>>> = vec![Vec::new(); fabrics.len()];
    for &dc_idx in &cfg.ssw_forklift_dcs {
        let fab = &fabrics[dc_idx as usize];
        let fc = &cfg.dcs[dc_idx as usize];
        let dc = DcId(dc_idx);
        let mut per_plane = Vec::with_capacity(fab.ssws.len());
        for (plane_idx, plane_v1) in fab.ssws.iter().enumerate() {
            let mut row = Vec::with_capacity(plane_v1.len());
            for &old in plane_v1 {
                let new = b.add_switch(crate::graph::SwitchSpec {
                    role: crate::switch::SwitchRole::Ssw,
                    generation: Generation::V2,
                    dc,
                    plane: Some(crate::ids::PlaneId(plane_idx as u16)),
                    pod: None,
                    grid: None,
                    max_ports: fc.ssw_ports,
                });
                // Mirror every circuit of the v1 SSW onto its v2 twin:
                // downlinks to the plane's FSWs and uplinks to FADUs.
                for (far, gbps) in b.neighbor_snapshot(old) {
                    b.add_circuit(new, far, gbps).expect("ssw-v2 mirror");
                }
                row.push(new);
            }
            per_plane.push(row);
        }
        ssw_v2[dc_idx as usize] = per_plane;
    }

    // 5. Backbone and direct FAUU-EB connectivity.
    let backbone = build_backbone(&mut b, agg_dc, &cfg.backbone);
    let v1_fauus: Vec<SwitchId> = hgrid_v1.fauus.iter().flatten().copied().collect();
    let flat_v1 = connect_fauus_to_ebs(&mut b, &v1_fauus, &backbone.ebs, cfg.backbone.fauu_eb_gbps);
    // Regroup flat fu-major list by EB.
    let mut fauu_eb_v1_by_eb: Vec<Vec<CircuitId>> = vec![Vec::new(); backbone.ebs.len()];
    for (i, c) in flat_v1.into_iter().enumerate() {
        fauu_eb_v1_by_eb[i % backbone.ebs.len()].push(c);
    }
    let fauu_eb_v2 = match &hgrid_v2 {
        Some(h) => {
            let v2_fauus: Vec<SwitchId> = h.fauus.iter().flatten().copied().collect();
            connect_fauus_to_ebs(&mut b, &v2_fauus, &backbone.ebs, cfg.backbone.fauu_eb_gbps)
        }
        None => Vec::new(),
    };

    // 6. MA (DMAG) layer if inserting regional aggregation.
    let ma = cfg
        .dmag
        .as_ref()
        .map(|mc| build_ma_layer(&mut b, agg_dc, &v1_fauus, &backbone.ebs, mc));

    let topo = b.build();
    debug_assert!(topo.validate().is_ok());
    (
        topo,
        RegionHandles {
            fabrics,
            hgrid_v1,
            hgrid_v2,
            backbone,
            fauu_eb_v1_by_eb,
            fauu_eb_v2,
            ma,
            ssw_v2,
            agg_dc,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netstate::NetState;
    use crate::switch::SwitchRole;

    fn small_region(hgrid_v2: bool, dmag: bool, forklift: bool) -> (Topology, RegionHandles) {
        build_region(&RegionConfig {
            name: "r".into(),
            dcs: vec![
                FabricConfig {
                    pods: 2,
                    rsws_per_pod: 2,
                    planes: 2,
                    ssws_per_plane: 2,
                    ..FabricConfig::default()
                };
                2
            ],
            hgrid_v1: HgridConfig::v1(2, 2, 1),
            hgrid_v2: hgrid_v2.then(|| HgridConfig::v2(2, 4, 2)),
            backbone: BackboneConfig {
                ebs: 2,
                drs: 1,
                ebbs: 1,
                ..BackboneConfig::default()
            },
            dmag: dmag.then(MaConfig::default),
            ssw_forklift_dcs: if forklift { vec![0, 1] } else { vec![] },
        })
    }

    #[test]
    fn plain_region_builds_and_validates() {
        let (t, h) = small_region(false, false, false);
        t.validate().unwrap();
        assert_eq!(h.fabrics.len(), 2);
        assert_eq!(h.hgrid_v1_switches().len(), 2 * 3);
        assert!(h.hgrid_v2_switches().is_empty());
        assert_eq!(h.fauu_eb_v1_by_eb.len(), 2);
        // 2 grids x 1 fauu x 2 ebs = 4 direct circuits, 2 per EB.
        assert_eq!(h.fauu_eb_v1_by_eb[0].len(), 2);
        assert_eq!(h.agg_dc, DcId(2));
    }

    #[test]
    fn hgrid_union_contains_both_generations() {
        let (t, h) = small_region(true, false, false);
        let v1 = h.hgrid_v1_switches();
        let v2 = h.hgrid_v2_switches();
        assert_eq!(v1.len(), 6);
        assert_eq!(v2.len(), 12);
        for &s in &v1 {
            assert_eq!(t.switch(s).generation, Generation::V1);
        }
        for &s in &v2 {
            assert_eq!(t.switch(s).generation, Generation::V2);
        }
        assert!(!h.fauu_eb_v2.is_empty());
    }

    #[test]
    fn dmag_union_adds_ma_layer() {
        let (t, h) = small_region(false, true, false);
        let ma = h.ma.as_ref().unwrap();
        assert_eq!(ma.all_mas().len(), 4);
        for s in ma.all_mas() {
            assert_eq!(t.switch(s).role, SwitchRole::Ma);
        }
        // Each MA connects to every v1 FAUU (2 of them) and 2 EBs.
        assert_eq!(ma.fauu_ma_circuits.len(), 4 * 2);
        assert_eq!(ma.ma_eb_circuits.len(), 8);
    }

    #[test]
    fn forklift_union_mirrors_ssw_wiring() {
        let (t, h) = small_region(false, false, true);
        assert_eq!(h.ssw_v2.len(), 2);
        let old = h.fabrics[0].ssws[0][0];
        let new = h.ssw_v2[0][0][0];
        assert_eq!(t.switch(new).generation, Generation::V2);
        assert_eq!(t.switch(new).plane, t.switch(old).plane);
        // v2 twin has the same degree as its v1 counterpart.
        assert_eq!(t.degree(new), t.degree(old));
        // And the same far endpoints.
        let mut far_old: Vec<SwitchId> = t.neighbors(old).iter().map(|&(_, f)| f).collect();
        let mut far_new: Vec<SwitchId> = t.neighbors(new).iter().map(|&(_, f)| f).collect();
        far_old.sort_unstable();
        far_new.sort_unstable();
        assert_eq!(far_old, far_new);
    }

    #[test]
    fn initial_like_state_has_no_port_violations() {
        let (t, h) = small_region(true, false, false);
        let mut state = NetState::all_up(&t);
        for s in h.hgrid_v2_switches() {
            state.drain_switch(&t, s);
        }
        assert!(t.port_violations(&state).is_empty());
    }
}
