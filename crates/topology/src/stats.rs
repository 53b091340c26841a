//! Aggregate topology statistics, used by Table 1 / Table 3 reporting.

use crate::graph::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Per-role and aggregate counts of a topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyStats {
    /// Switch counts keyed by role name (BTreeMap for stable ordering).
    pub switches_by_role: BTreeMap<String, usize>,
    /// Total switch count.
    pub total_switches: usize,
    /// Total circuit count.
    pub total_circuits: usize,
    /// Total capacity in Gbps.
    pub total_capacity_gbps: f64,
    /// Number of distinct datacenters observed.
    pub datacenters: usize,
    /// Number of distinct spine planes observed.
    pub planes: usize,
}

impl TopologyStats {
    /// Computes statistics for a topology.
    pub fn compute(topo: &Topology) -> Self {
        let mut switches_by_role = BTreeMap::new();
        let mut dcs = std::collections::BTreeSet::new();
        let mut planes = std::collections::BTreeSet::new();
        for s in topo.switches() {
            *switches_by_role
                .entry(s.role.as_str().to_string())
                .or_insert(0) += 1;
            dcs.insert(s.dc);
            if let Some(p) = s.plane {
                planes.insert(p);
            }
        }
        Self {
            switches_by_role,
            total_switches: topo.num_switches(),
            total_circuits: topo.num_circuits(),
            total_capacity_gbps: topo.total_capacity_gbps(),
            datacenters: dcs.len(),
            planes: planes.len(),
        }
    }
}

impl fmt::Display for TopologyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "switches={} circuits={} capacity={:.1} Tbps dcs={} planes={}",
            self.total_switches,
            self.total_circuits,
            self.total_capacity_gbps / 1000.0,
            self.datacenters,
            self.planes
        )?;
        for (role, count) in &self.switches_by_role {
            writeln!(f, "  {role:<5} {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{SwitchSpec, TopologyBuilder};
    use crate::ids::{DcId, PlaneId};
    use crate::switch::{Generation, SwitchRole};

    #[test]
    fn stats_count_roles_dcs_planes() {
        let mut b = TopologyBuilder::new("t");
        let r = b.add_switch(SwitchSpec::new(
            SwitchRole::Rsw,
            Generation::V1,
            DcId(0),
            16,
        ));
        let f1 = b.add_switch(
            SwitchSpec::new(SwitchRole::Fsw, Generation::V1, DcId(0), 16).plane(PlaneId(0)),
        );
        let f2 = b.add_switch(
            SwitchSpec::new(SwitchRole::Fsw, Generation::V1, DcId(1), 16).plane(PlaneId(1)),
        );
        b.add_circuit(r, f1, 100.0).unwrap();
        b.add_circuit(r, f2, 100.0).unwrap();
        let t = b.build();
        let s = t.stats();
        assert_eq!(s.total_switches, 3);
        assert_eq!(s.total_circuits, 2);
        assert_eq!(s.switches_by_role.get("FSW"), Some(&2));
        assert_eq!(s.switches_by_role.get("RSW"), Some(&1));
        assert_eq!(s.switches_by_role.get("EBB"), None);
        assert_eq!(s.datacenters, 2);
        assert_eq!(s.planes, 2);
        assert!((s.total_capacity_gbps - 200.0).abs() < 1e-9);
        let shown = s.to_string();
        assert!(shown.contains("FSW") && shown.contains("switches=3"));
    }
}
