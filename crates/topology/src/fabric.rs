//! Datacenter fabric generator: pods of RSWs + FSWs under spine planes.
//!
//! Follows §2.1 of the paper: a rack of servers connects to a rack switch
//! (RSW); RSWs are interconnected by fabric switches (FSWs), which in turn
//! connect to spine switches (SSWs). The smallest deployment unit is a *pod*
//! (the pod's FSWs plus the RSWs under them); a disjoint end-to-end slice of
//! the fabric served by one set of SSWs and FSWs is a *plane*.
//!
//! Wiring: pod `p` has one FSW per plane; the RSWs of pod `p` connect to all
//! of the pod's FSWs; the FSW of (pod `p`, plane `i`) connects to every SSW
//! of plane `i`.

use crate::graph::{SwitchSpec, TopologyBuilder};
use crate::ids::{DcId, PlaneId, PodId, SwitchId};
use crate::switch::{Generation, SwitchRole};
use serde::{Deserialize, Serialize};

/// Parameters of one datacenter fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Number of pods.
    pub pods: usize,
    /// RSWs per pod.
    pub rsws_per_pod: usize,
    /// Number of spine planes; also the number of FSWs per pod.
    pub planes: usize,
    /// SSWs per plane (up to 36 in production, §2.4).
    pub ssws_per_plane: usize,
    /// Capacity of each RSW–FSW circuit, Gbps.
    pub rsw_fsw_gbps: f64,
    /// Capacity of each FSW–SSW circuit, Gbps.
    pub fsw_ssw_gbps: f64,
    /// Port budgets per role.
    pub rsw_ports: u16,
    pub fsw_ports: u16,
    pub ssw_ports: u16,
    /// Hardware generation of the SSW layer (v1 unless mid-forklift).
    pub ssw_generation: Generation,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            pods: 4,
            rsws_per_pod: 4,
            planes: 4,
            ssws_per_plane: 4,
            rsw_fsw_gbps: 400.0,
            fsw_ssw_gbps: 800.0,
            rsw_ports: 64,
            fsw_ports: 128,
            ssw_ports: 256,
            ssw_generation: Generation::V1,
        }
    }
}

/// Ids of the switches created for one fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricHandles {
    /// The DC this fabric belongs to.
    pub dc: DcId,
    /// All rack switches, pod-major order.
    pub rsws: Vec<SwitchId>,
    /// Fabric switches indexed as `fsws[pod][plane]`.
    pub fsws: Vec<Vec<SwitchId>>,
    /// Spine switches indexed as `ssws[plane][i]`.
    pub ssws: Vec<Vec<SwitchId>>,
}

impl FabricHandles {
    /// Flat list of all SSW ids, plane-major.
    pub fn all_ssws(&self) -> Vec<SwitchId> {
        self.ssws.iter().flatten().copied().collect()
    }
}

/// Builds one fabric into `b` for datacenter `dc`.
pub fn build_fabric(b: &mut TopologyBuilder, dc: DcId, cfg: &FabricConfig) -> FabricHandles {
    assert!(cfg.pods > 0 && cfg.planes > 0, "fabric must be non-empty");

    // Spine planes first.
    let mut ssws = Vec::with_capacity(cfg.planes);
    for plane in 0..cfg.planes {
        let mut row = Vec::with_capacity(cfg.ssws_per_plane);
        for _ in 0..cfg.ssws_per_plane {
            row.push(
                b.add_switch(
                    SwitchSpec::new(SwitchRole::Ssw, cfg.ssw_generation, dc, cfg.ssw_ports)
                        .plane(PlaneId(plane as u16)),
                ),
            );
        }
        ssws.push(row);
    }

    // Pods: FSWs (one per plane) then RSWs.
    let mut fsws = Vec::with_capacity(cfg.pods);
    let mut rsws = Vec::with_capacity(cfg.pods * cfg.rsws_per_pod);
    for pod in 0..cfg.pods {
        let pod_id = PodId(pod as u16);
        let mut pod_fsws = Vec::with_capacity(cfg.planes);
        for (plane, plane_ssws) in ssws.iter().enumerate() {
            let fsw = b.add_switch(
                SwitchSpec::new(SwitchRole::Fsw, Generation::V1, dc, cfg.fsw_ports)
                    .plane(PlaneId(plane as u16))
                    .pod(pod_id),
            );
            // FSW of plane `i` connects to every SSW of plane `i`.
            for &ssw in plane_ssws {
                b.add_circuit(fsw, ssw, cfg.fsw_ssw_gbps)
                    .expect("fsw-ssw circuit");
            }
            pod_fsws.push(fsw);
        }
        for _ in 0..cfg.rsws_per_pod {
            let rsw = b.add_switch(
                SwitchSpec::new(SwitchRole::Rsw, Generation::V1, dc, cfg.rsw_ports).pod(pod_id),
            );
            for &fsw in &pod_fsws {
                b.add_circuit(rsw, fsw, cfg.rsw_fsw_gbps)
                    .expect("rsw-fsw circuit");
            }
            rsws.push(rsw);
        }
        fsws.push(pod_fsws);
    }

    FabricHandles {
        dc,
        rsws,
        fsws,
        ssws,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netstate::NetState;

    fn small() -> FabricConfig {
        FabricConfig {
            pods: 2,
            rsws_per_pod: 3,
            planes: 2,
            ssws_per_plane: 2,
            ..FabricConfig::default()
        }
    }

    #[test]
    fn counts_match_formulas() {
        let cfg = small();
        let mut b = TopologyBuilder::new("f");
        let h = build_fabric(&mut b, DcId(0), &cfg);
        // planes × SSWs + pods × (planes + RSWs); every pod's FSWs meet
        // every SSW of their plane, and every RSW meets one FSW per plane.
        assert_eq!(b.num_switches(), 2 * 2 + 2 * (2 + 3));
        assert_eq!(b.num_circuits(), 2 * 2 * 2 + 2 * 3 * 2);
        assert_eq!(h.rsws.len(), 6);
        assert_eq!(h.fsws.len(), 2);
        assert_eq!(h.fsws[0].len(), 2);
        assert_eq!(h.ssws.len(), 2);
        assert_eq!(h.all_ssws().len(), 4);
    }

    #[test]
    fn wiring_is_plane_aligned() {
        let cfg = small();
        let mut b = TopologyBuilder::new("f");
        let h = build_fabric(&mut b, DcId(0), &cfg);
        let t = b.build();
        // FSW (pod 0, plane 1) connects to both SSWs of plane 1 and none of plane 0.
        let fsw = h.fsws[0][1];
        for &ssw in &h.ssws[1] {
            assert_eq!(t.circuits_between(fsw, ssw).len(), 1);
        }
        for &ssw in &h.ssws[0] {
            assert_eq!(t.circuits_between(fsw, ssw).len(), 0);
        }
        // RSWs connect to all FSWs of their own pod only.
        let rsw = h.rsws[0]; // pod 0
        for &fsw in &h.fsws[0] {
            assert_eq!(t.circuits_between(rsw, fsw).len(), 1);
        }
        for &fsw in &h.fsws[1] {
            assert_eq!(t.circuits_between(rsw, fsw).len(), 0);
        }
    }

    #[test]
    fn fabric_respects_port_budgets() {
        let mut b = TopologyBuilder::new("f");
        build_fabric(&mut b, DcId(0), &FabricConfig::default());
        b.build().validate_standalone().unwrap();
    }

    #[test]
    fn planes_partition_ssws() {
        let mut b = TopologyBuilder::new("f");
        let h = build_fabric(&mut b, DcId(0), &small());
        let t = b.build();
        for (plane, row) in h.ssws.iter().enumerate() {
            for &ssw in row {
                assert_eq!(t.switch(ssw).plane, Some(PlaneId(plane as u16)));
            }
        }
    }

    #[test]
    fn full_fabric_is_connected_when_all_up() {
        let mut b = TopologyBuilder::new("f");
        let h = build_fabric(&mut b, DcId(0), &small());
        let t = b.build();
        let state = NetState::all_up(&t);
        // BFS from the first RSW must reach every switch.
        let mut seen = vec![false; t.num_switches()];
        let mut queue = std::collections::VecDeque::from([h.rsws[0]]);
        seen[h.rsws[0].index()] = true;
        while let Some(u) = queue.pop_front() {
            for &(c, far) in t.neighbors(u) {
                if state.circuit_usable(&t, c) && !seen[far.index()] {
                    seen[far.index()] = true;
                    queue.push_back(far);
                }
            }
        }
        assert!(seen.iter().all(|&x| x), "fabric must be connected");
    }
}
