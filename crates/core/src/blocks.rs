//! Operation blocks (§4.1, §5).
//!
//! *Symmetry blocks* follow Janus's notion of equivalent switches: switches
//! with the same role/generation connecting to the same neighbor set are
//! interchangeable, so their internal operation order never matters. The
//! paper's observation is that in Meta's complex DCNs each symmetry block
//! holds at most two switches — far too little pruning on its own.
//!
//! *Operation blocks* add the locality insight: neighboring switches
//! (a whole HGRID grid; a group of SSWs on one plane; the MAs under one EB)
//! can be operated together with little extra operational cost and little
//! impact on safety. The organization policy (§5) merges symmetry blocks
//! into these units. The builders in [`crate::migration`] group by those
//! units directly; `tests/organization_policy.rs` derives the groups the
//! paper's way (symmetry blocks merged by locality key) and holds every
//! builder to them. The planners then sequence operation blocks, not
//! switches.

use crate::action::ActionTypeId;
use klotski_topology::{CircuitId, NetState, SwitchId, Topology};
use serde::{Deserialize, Serialize};

/// Dense index of an operation block within one migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// A group of switches and/or circuits operated as one action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperationBlock {
    /// Dense id within the owning migration spec.
    pub id: BlockId,
    /// The action type of operating this block.
    pub kind: ActionTypeId,
    /// Switches operated (drained or undrained) by this block.
    pub switches: Vec<SwitchId>,
    /// Circuits operated directly (beyond those implied by switch drains);
    /// used by DMAG's direct-circuit bundles.
    pub circuits: Vec<CircuitId>,
    /// Human-readable label, e.g. `drain-fa-grid-v1/g3`.
    pub label: String,
}

impl OperationBlock {
    /// Number of switch-level actions this block represents (the unit of
    /// Table 3's "Actions" column). Circuit bundles count as one.
    pub fn action_weight(&self) -> usize {
        if self.switches.is_empty() {
            1
        } else {
            self.switches.len()
        }
    }

    /// Applies the block to a state: drains clear elements, undrains
    /// restore them (circuits only come back when both endpoints are up).
    pub fn apply(&self, topo: &Topology, state: &mut NetState, drain: bool) {
        if drain {
            for &s in &self.switches {
                state.drain_switch(topo, s);
            }
            for &c in &self.circuits {
                state.set_circuit(c, false);
            }
        } else {
            for &s in &self.switches {
                state.undrain_switch(topo, s);
            }
            for &c in &self.circuits {
                let ck = topo.circuit(c);
                if state.switch_up(ck.a) && state.switch_up(ck.b) {
                    state.set_circuit(c, true);
                }
            }
        }
    }
}

/// Splits `items` into `parts` contiguous chunks as evenly as possible
/// (first chunks get the remainder). Used by the builders' block-scale
/// sweeps (Figure 11).
pub(crate) fn split_even<T: Clone>(items: &[T], parts: usize) -> Vec<Vec<T>> {
    assert!(parts > 0, "cannot split into zero parts");
    let parts = parts.min(items.len()).max(1);
    let base = items.len() / parts;
    let rem = items.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut idx = 0;
    for p in 0..parts {
        let take = base + usize::from(p < rem);
        out.push(items[idx..idx + take].to_vec());
        idx += take;
    }
    out
}

/// Merges consecutive groups of `groups` into `ceil(len/factor)` larger
/// groups of `factor` originals each (Figure 11's 0.25×/0.5× settings).
pub(crate) fn merge_groups<T: Clone>(groups: &[Vec<T>], factor: usize) -> Vec<Vec<T>> {
    assert!(factor > 0, "merge factor must be positive");
    groups
        .chunks(factor)
        .map(|chunk| chunk.iter().flatten().cloned().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_topology::{
        graph::{SwitchSpec, TopologyBuilder},
        DcId, Generation, SwitchRole,
    };

    /// Two FAUUs sharing the same two FADU neighbors (equivalent), plus one
    /// FADU pair with distinct neighbors (each its own block).
    fn grid() -> (Topology, Vec<SwitchId>) {
        let mut b = TopologyBuilder::new("g");
        let spec = |r| SwitchSpec::new(r, Generation::V1, DcId(0), 32);
        let fd0 = b.add_switch(spec(SwitchRole::Fadu));
        let fd1 = b.add_switch(spec(SwitchRole::Fadu));
        let fu0 = b.add_switch(spec(SwitchRole::Fauu));
        let fu1 = b.add_switch(spec(SwitchRole::Fauu));
        let ssw0 = b.add_switch(spec(SwitchRole::Ssw));
        let ssw1 = b.add_switch(spec(SwitchRole::Ssw));
        for fd in [fd0, fd1] {
            for fu in [fu0, fu1] {
                b.add_circuit(fd, fu, 100.0).unwrap();
            }
        }
        // FADUs face *different* SSWs -> not equivalent.
        b.add_circuit(ssw0, fd0, 100.0).unwrap();
        b.add_circuit(ssw1, fd1, 100.0).unwrap();
        (b.build(), vec![fd0, fd1, fu0, fu1])
    }

    #[test]
    fn split_even_balances() {
        let items: Vec<u32> = (0..10).collect();
        let parts = split_even(&items, 3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let flat: Vec<u32> = parts.into_iter().flatten().collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn split_even_caps_at_len() {
        let items = vec![1, 2];
        let parts = split_even(&items, 5);
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn merge_groups_combines_consecutive() {
        let groups = vec![vec![1], vec![2], vec![3], vec![4], vec![5]];
        let merged = merge_groups(&groups, 2);
        assert_eq!(merged, vec![vec![1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn apply_drain_and_undrain_roundtrip() {
        let (t, cands) = grid();
        let block = OperationBlock {
            id: BlockId(0),
            kind: ActionTypeId(0),
            switches: cands.clone(),
            circuits: vec![],
            label: "test".into(),
        };
        let orig = NetState::all_up(&t);
        let mut s = orig.clone();
        block.apply(&t, &mut s, true);
        for &sw in &cands {
            assert!(!s.switch_up(sw));
        }
        block.apply(&t, &mut s, false);
        assert_eq!(s, orig);
    }

    #[test]
    fn action_weight_counts_switches_or_one() {
        let b1 = OperationBlock {
            id: BlockId(0),
            kind: ActionTypeId(0),
            switches: vec![SwitchId(0), SwitchId(1)],
            circuits: vec![],
            label: "s".into(),
        };
        let b2 = OperationBlock {
            id: BlockId(1),
            kind: ActionTypeId(0),
            switches: vec![],
            circuits: vec![CircuitId(0), CircuitId(1)],
            label: "c".into(),
        };
        assert_eq!(b1.action_weight(), 2);
        assert_eq!(b2.action_weight(), 1);
    }
}
