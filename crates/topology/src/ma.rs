//! Regional/metro aggregation (MA, "DMAG") and backbone attachment (EB/DR/EBB).
//!
//! Above the FA layer the paper introduces the MA (Metro Aggregation) layer
//! providing connectivity between regions in geographic proximity, also
//! disaggregated ("DMAG"). The backbone boundary consists of DRs (datacenter
//! routers), EB routers on the backbone side, and EBB routers at the WAN core
//! (§2.1). The DMAG migration (§2.4, Figure 3(c)) inserts MAs between FAUUs
//! and EBs, draining the direct FAUU–EB circuits.

use crate::graph::{SwitchSpec, TopologyBuilder};
use crate::ids::{CircuitId, DcId, GridId, SwitchId};
use crate::switch::{Generation, SwitchRole};
use serde::{Deserialize, Serialize};

/// Parameters of the backbone attachment of a region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackboneConfig {
    /// Number of EB border routers.
    pub ebs: usize,
    /// Number of DR datacenter routers.
    pub drs: usize,
    /// Number of EBB express-backbone routers.
    pub ebbs: usize,
    /// Capacity of each FAUU–EB circuit, Gbps.
    pub fauu_eb_gbps: f64,
    /// Capacity of each EB–DR circuit, Gbps.
    pub eb_dr_gbps: f64,
    /// Capacity of each DR–EBB circuit, Gbps.
    pub dr_ebb_gbps: f64,
    /// Port budgets.
    pub eb_ports: u16,
    pub dr_ports: u16,
    pub ebb_ports: u16,
}

impl Default for BackboneConfig {
    fn default() -> Self {
        Self {
            ebs: 4,
            drs: 2,
            ebbs: 2,
            fauu_eb_gbps: 400.0,
            eb_dr_gbps: 3200.0,
            dr_ebb_gbps: 6400.0,
            eb_ports: 512,
            dr_ports: 512,
            ebb_ports: 512,
        }
    }
}

/// Ids of the backbone routers of a region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackboneHandles {
    pub ebs: Vec<SwitchId>,
    pub drs: Vec<SwitchId>,
    pub ebbs: Vec<SwitchId>,
}

/// Builds EB → DR → EBB routers with full meshes between adjacent layers.
pub(crate) fn build_backbone(
    b: &mut TopologyBuilder,
    dc: DcId,
    cfg: &BackboneConfig,
) -> BackboneHandles {
    assert!(
        cfg.ebs > 0 && cfg.drs > 0 && cfg.ebbs > 0,
        "backbone must be non-empty"
    );
    let ebs: Vec<SwitchId> = (0..cfg.ebs)
        .map(|_| {
            b.add_switch(SwitchSpec::new(
                SwitchRole::Eb,
                Generation::V1,
                dc,
                cfg.eb_ports,
            ))
        })
        .collect();
    let drs: Vec<SwitchId> = (0..cfg.drs)
        .map(|_| {
            b.add_switch(SwitchSpec::new(
                SwitchRole::Dr,
                Generation::V1,
                dc,
                cfg.dr_ports,
            ))
        })
        .collect();
    let ebbs: Vec<SwitchId> = (0..cfg.ebbs)
        .map(|_| {
            b.add_switch(SwitchSpec::new(
                SwitchRole::Ebb,
                Generation::V1,
                dc,
                cfg.ebb_ports,
            ))
        })
        .collect();
    for &eb in &ebs {
        for &dr in &drs {
            b.add_circuit(eb, dr, cfg.eb_dr_gbps).expect("eb-dr");
        }
    }
    for &dr in &drs {
        for &ebb in &ebbs {
            b.add_circuit(dr, ebb, cfg.dr_ebb_gbps).expect("dr-ebb");
        }
    }
    BackboneHandles { ebs, drs, ebbs }
}

/// Connects a set of FAUUs directly to the EBs (pre-DMAG connectivity).
/// Returns the created circuits; the DMAG migration drains exactly these.
pub(crate) fn connect_fauus_to_ebs(
    b: &mut TopologyBuilder,
    fauus: &[SwitchId],
    ebs: &[SwitchId],
    gbps: f64,
) -> Vec<CircuitId> {
    let mut circuits = Vec::with_capacity(fauus.len() * ebs.len());
    for &fu in fauus {
        for &eb in ebs {
            circuits.push(b.add_circuit(fu, eb, gbps).expect("fauu-eb"));
        }
    }
    circuits
}

/// Parameters of the MA (DMAG) layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaConfig {
    /// Number of MA switches.
    pub mas: usize,
    /// How many EBs each MA wires to (consecutive from its home EB).
    /// Spreading over several EBs keeps a partially-deployed MA layer from
    /// funneling all its traffic into one border router.
    pub ebs_per_ma: usize,
    /// Capacity of each FAUU–MA circuit, Gbps.
    pub fauu_ma_gbps: f64,
    /// Capacity of each MA–EB circuit, Gbps.
    pub ma_eb_gbps: f64,
    /// Port budget.
    pub ma_ports: u16,
}

impl Default for MaConfig {
    fn default() -> Self {
        Self {
            mas: 4,
            ebs_per_ma: 2,
            fauu_ma_gbps: 400.0,
            ma_eb_gbps: 400.0,
            ma_ports: 512,
        }
    }
}

/// Ids and circuits of a DMAG insertion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaHandles {
    /// The MA switches, grouped by the EB they are organized under
    /// (the §5 organization policy groups MAs/circuits by EB).
    pub mas_by_eb: Vec<Vec<SwitchId>>,
    /// All FAUU–MA circuits.
    pub fauu_ma_circuits: Vec<CircuitId>,
    /// All MA–EB circuits.
    pub ma_eb_circuits: Vec<CircuitId>,
}

impl MaHandles {
    /// Flat list of all MA switches.
    pub fn all_mas(&self) -> Vec<SwitchId> {
        self.mas_by_eb.iter().flatten().copied().collect()
    }
}

/// Builds the MA layer between `fauus` and `ebs`.
///
/// MAs are distributed round-robin over EBs: MA `i` homes under EB
/// `i mod ebs.len()`, connects to that EB, and to every FAUU. The grid
/// coordinate records the home EB's index, which the organization policy in
/// `klotski-core` uses to group MAs by EB (§5).
pub(crate) fn build_ma_layer(
    b: &mut TopologyBuilder,
    dc: DcId,
    fauus: &[SwitchId],
    ebs: &[SwitchId],
    cfg: &MaConfig,
) -> MaHandles {
    assert!(cfg.mas > 0 && !ebs.is_empty(), "ma layer must be non-empty");
    let mut mas_by_eb: Vec<Vec<SwitchId>> = vec![Vec::new(); ebs.len()];
    let mut fauu_ma = Vec::new();
    let mut ma_eb = Vec::new();
    for i in 0..cfg.mas {
        let home = i % ebs.len();
        let ma = b.add_switch(
            SwitchSpec::new(SwitchRole::Ma, Generation::V1, dc, cfg.ma_ports)
                .grid(GridId(home as u16)),
        );
        // MA circuits are transparent relays: the two-circuit FAUU->MA->EB
        // path must cost one ordinary hop, or ECMP would never share it
        // with the direct FAUU->EB circuits during the DMAG transition.
        for k in 0..cfg.ebs_per_ma.clamp(1, ebs.len()) {
            let eb = ebs[(home + k) % ebs.len()];
            let eb_ckt = b.add_circuit(ma, eb, cfg.ma_eb_gbps).expect("ma-eb");
            b.set_half_hop(eb_ckt);
            ma_eb.push(eb_ckt);
        }
        for &fu in fauus {
            let c = b.add_circuit(fu, ma, cfg.fauu_ma_gbps).expect("fauu-ma");
            b.set_half_hop(c);
            fauu_ma.push(c);
        }
        mas_by_eb[home].push(ma);
    }
    MaHandles {
        mas_by_eb,
        fauu_ma_circuits: fauu_ma,
        ma_eb_circuits: ma_eb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fauus(b: &mut TopologyBuilder, n: usize) -> Vec<SwitchId> {
        (0..n)
            .map(|_| {
                b.add_switch(SwitchSpec::new(
                    SwitchRole::Fauu,
                    Generation::V1,
                    DcId(0),
                    512,
                ))
            })
            .collect()
    }

    #[test]
    fn backbone_full_meshes() {
        let mut b = TopologyBuilder::new("bb");
        let cfg = BackboneConfig {
            ebs: 3,
            drs: 2,
            ebbs: 2,
            ..BackboneConfig::default()
        };
        let h = build_backbone(&mut b, DcId(0), &cfg);
        assert_eq!(h.ebs.len(), 3);
        let t = b.build();
        assert_eq!(t.num_circuits(), 3 * 2 + 2 * 2);
        for &eb in &h.ebs {
            for &dr in &h.drs {
                assert_eq!(t.circuits_between(eb, dr).len(), 1);
            }
        }
    }

    #[test]
    fn fauu_eb_direct_connectivity() {
        let mut b = TopologyBuilder::new("bb");
        let fu = fauus(&mut b, 2);
        let h = build_backbone(&mut b, DcId(0), &BackboneConfig::default());
        let circuits = connect_fauus_to_ebs(&mut b, &fu, &h.ebs, 400.0);
        assert_eq!(circuits.len(), 2 * 4);
        let t = b.build();
        assert_eq!(t.circuits_between(fu[0], h.ebs[0]).len(), 1);
    }

    #[test]
    fn ma_layer_homes_round_robin() {
        let mut b = TopologyBuilder::new("ma");
        let fu = fauus(&mut b, 3);
        let bb = build_backbone(&mut b, DcId(0), &BackboneConfig::default());
        let cfg = MaConfig {
            mas: 6,
            ..MaConfig::default()
        };
        let h = build_ma_layer(&mut b, DcId(0), &fu, &bb.ebs, &cfg);
        assert_eq!(h.all_mas().len(), 6);
        // 6 MAs over 4 EBs: homes 0,1,2,3,0,1.
        assert_eq!(h.mas_by_eb[0].len(), 2);
        assert_eq!(h.mas_by_eb[3].len(), 1);
        assert_eq!(h.fauu_ma_circuits.len(), 6 * 3);
        // 6 MAs x 2 EBs each (default ebs_per_ma).
        assert_eq!(h.ma_eb_circuits.len(), 12);
        let t = b.build();
        // MA home is recorded in the grid coordinate.
        for (eb_idx, group) in h.mas_by_eb.iter().enumerate() {
            for &ma in group {
                assert_eq!(t.switch(ma).grid, Some(GridId(eb_idx as u16)));
                assert_eq!(t.circuits_between(ma, bb.ebs[eb_idx]).len(), 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_backbone_panics() {
        let mut b = TopologyBuilder::new("bb");
        build_backbone(
            &mut b,
            DcId(0),
            &BackboneConfig {
                ebs: 0,
                ..BackboneConfig::default()
            },
        );
    }
}
