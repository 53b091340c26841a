//! The paper's organization policy (§4.1, §5) as an oracle for the
//! migration builders.
//!
//! The paper derives operation blocks in two steps: partition the candidate
//! switches into *symmetry blocks* (after Janus: same role, generation and
//! neighbour set, so their internal order never matters), then merge the
//! symmetry blocks whose members share a *locality key* — an HGRID grid, an
//! SSW plane — into one operation block. The builders in
//! `klotski_core::migration` group by grids and planes directly; these tests
//! hold every builder's switch groups to the derivation.

use klotski_core::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_topology::graph::{SwitchSpec, TopologyBuilder};
use klotski_topology::presets::{self, PresetId};
use klotski_topology::{DcId, Generation, SwitchId, SwitchRole, Topology};
use std::collections::{BTreeMap, HashSet};

/// Groups `candidates` into symmetry blocks: switches are equivalent iff
/// they share (role, generation) and the same neighbour set in the union
/// graph. Blocks come in first-seen order; singletons are blocks of one.
fn symmetry_blocks(topo: &Topology, candidates: &[SwitchId]) -> Vec<Vec<SwitchId>> {
    // Neighbour *sets*: parallel circuits do not break interchangeability.
    let mut groups: BTreeMap<(u8, u8, Vec<u32>), Vec<SwitchId>> = BTreeMap::new();
    let mut order = Vec::new();
    for &s in candidates {
        let sw = topo.switch(s);
        let mut neighbors: Vec<u32> = topo.neighbors(s).iter().map(|&(_, far)| far.0).collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        let key = (sw.role.layer(), sw.generation.0, neighbors);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(s);
    }
    order
        .into_iter()
        .map(|k| groups.remove(&k).unwrap())
        .collect()
}

/// A locality key: switches whose keys match may be operated together with
/// little extra cost and little safety impact (§4.1).
type LocalityKey = (u16, u16);

/// Locality by HGRID grid: the sub-switches of one grid sit in one room row.
fn grid_locality(topo: &Topology, s: SwitchId) -> LocalityKey {
    let sw = topo.switch(s);
    (sw.dc.0, sw.grid.expect("an HGRID sub-switch has a grid").0)
}

/// Locality by (datacenter, plane): the SSWs of one plane share rows.
fn plane_locality(topo: &Topology, s: SwitchId) -> LocalityKey {
    let sw = topo.switch(s);
    (sw.dc.0, sw.plane.expect("an SSW has a plane").0)
}

/// The §4.1 derivation: symmetry blocks merged by locality key. A block is
/// keyed by its first member; `assert_blocks_keep_one_locality` checks that
/// no block straddles two keys.
fn derive_groups(
    topo: &Topology,
    candidates: &[SwitchId],
    locality: fn(&Topology, SwitchId) -> LocalityKey,
) -> Vec<Vec<SwitchId>> {
    let mut merged: BTreeMap<LocalityKey, Vec<SwitchId>> = BTreeMap::new();
    for block in symmetry_blocks(topo, candidates) {
        merged
            .entry(locality(topo, block[0]))
            .or_default()
            .extend(block);
    }
    merged.into_values().collect()
}

/// Groups as sets: each group sorted, then the groups sorted.
fn as_sets(groups: impl IntoIterator<Item = Vec<SwitchId>>) -> Vec<Vec<SwitchId>> {
    let mut out: Vec<Vec<SwitchId>> = groups
        .into_iter()
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    out.sort();
    out
}

/// The switch groups of the builder's drain blocks (`drain`) or undrain
/// blocks (`!drain`).
fn builder_groups(spec: &MigrationSpec, drain: bool) -> Vec<Vec<SwitchId>> {
    spec.blocks
        .iter()
        .filter(|b| spec.kind_is_drain(b.kind) == drain && !b.switches.is_empty())
        .map(|b| b.switches.clone())
        .collect()
}

fn spec_for(preset: &presets::Preset) -> MigrationSpec {
    MigrationBuilder::for_preset(preset, &MigrationOptions::default()).unwrap()
}

/// Every symmetry block of `candidates` lies inside one locality key, so
/// keying a block by its first member loses nothing.
fn assert_blocks_keep_one_locality(
    topo: &Topology,
    candidates: &[SwitchId],
    locality: fn(&Topology, SwitchId) -> LocalityKey,
    what: &str,
) {
    for block in symmetry_blocks(topo, candidates) {
        let keys: HashSet<_> = block.iter().map(|&s| locality(topo, s)).collect();
        assert_eq!(keys.len(), 1, "{what}: block {block:?} straddles keys");
    }
}

#[test]
fn hgrid_blocks_are_symmetry_blocks_merged_by_grid() {
    for id in [PresetId::A, PresetId::B, PresetId::C, PresetId::D] {
        let preset = presets::build_for_bench(id);
        let topo = &preset.topology;
        let spec = spec_for(&preset);
        let v1 = preset.handles.hgrid_v1.all_switches();
        let v2 = preset.handles.hgrid_v2_switches();
        for (drain, candidates, layer) in [(true, &v1, "v1"), (false, &v2, "v2")] {
            let what = format!("preset {id} HGRID {layer}");
            assert_blocks_keep_one_locality(topo, candidates, grid_locality, &what);
            let derived = derive_groups(topo, candidates, grid_locality);
            assert!(
                derived.len() < symmetry_blocks(topo, candidates).len(),
                "{what}: the locality merge must actually prune"
            );
            assert_eq!(
                as_sets(builder_groups(&spec, drain)),
                as_sets(derived),
                "{what}: one operation block per derived grid"
            );
        }
    }
}

#[test]
fn ssw_blocks_split_symmetry_blocks_merged_by_plane() {
    let preset = presets::build_for_bench(PresetId::ESsw);
    let topo = &preset.topology;
    let spec = spec_for(&preset);
    let v1: Vec<SwitchId> = preset.handles.fabrics[0].ssws.concat();
    let v2 = preset.handles.ssw_v2_switches();
    let planes = preset.handles.fabrics[0].ssws.len();
    for (drain, candidates, layer) in [(true, &v1, "v1"), (false, &v2, "v2")] {
        let what = format!("E-SSW {layer} SSWs");
        assert_blocks_keep_one_locality(topo, candidates, plane_locality, &what);
        let derived = derive_groups(topo, candidates, plane_locality);
        assert_eq!(derived.len(), planes, "{what}: one derived group per plane");
        // §5 splits each plane into several operation blocks: every block
        // lies inside one derived plane, and the blocks of a plane cover it.
        let mut covered: Vec<Vec<SwitchId>> = vec![Vec::new(); derived.len()];
        for group in builder_groups(&spec, drain) {
            let home = derived
                .iter()
                .position(|d| d.contains(&group[0]))
                .unwrap_or_else(|| panic!("{what}: block {group:?} outside every plane"));
            assert!(
                group.iter().all(|s| derived[home].contains(s)),
                "{what}: block {group:?} straddles planes"
            );
            covered[home].extend(group);
        }
        assert_eq!(as_sets(covered), as_sets(derived), "{what}");
    }
}

#[test]
fn symmetry_blocks_alone_are_tiny() {
    // The paper's observation driving the whole design: "each symmetry
    // block consists of at most two switches for our three real-world
    // migration types" — merging by locality is what prunes the space. It
    // holds on the small presets' grids. The generated grids of B's v2 layer
    // and of C and D mesh every FAUU with every FADU of its grid, so their
    // FAUU blocks reach 3–6 switches, and each generated SSW plane is one
    // symmetry block.
    for (id, layers) in [(PresetId::A, 2), (PresetId::B, 1)] {
        let preset = presets::build(id);
        let all = [
            preset.handles.hgrid_v1.all_switches(),
            preset.handles.hgrid_v2_switches(),
        ];
        for candidates in &all[..layers] {
            let blocks = symmetry_blocks(&preset.topology, candidates);
            let largest = blocks.iter().map(Vec::len).max().unwrap();
            assert!(
                largest <= 2,
                "preset {id}: symmetry blocks should hold at most 2 switches, got {largest}"
            );
        }
    }
}

#[test]
fn derivation_covers_every_candidate_exactly_once() {
    let preset = presets::build(PresetId::A);
    let candidates = preset.handles.hgrid_v2_switches();
    let derived = derive_groups(&preset.topology, &candidates, grid_locality);
    let mut all: Vec<SwitchId> = derived.into_iter().flatten().collect();
    all.sort_unstable();
    let mut expected = candidates;
    expected.sort_unstable();
    assert_eq!(all, expected);
}

/// Two FAUUs sharing the same two FADU neighbours (equivalent), plus one
/// FADU pair with distinct neighbours (each its own block).
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
    // The FADUs face *different* SSWs, so they are not equivalent.
    b.add_circuit(ssw0, fd0, 100.0).unwrap();
    b.add_circuit(ssw1, fd1, 100.0).unwrap();
    (b.build(), vec![fd0, fd1, fu0, fu1])
}

#[test]
fn equivalent_switches_group_together() {
    let (t, cands) = grid();
    let blocks = symmetry_blocks(&t, &cands);
    // fd0 and fd1 are singletons; fu0+fu1 share neighbours {fd0, fd1}.
    assert_eq!(blocks.len(), 3);
    let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
    assert_eq!(sizes.iter().sum::<usize>(), 4);
    assert!(sizes.contains(&2), "the FAUU pair must merge: {blocks:?}");
    // Matches the paper's observation: symmetry blocks hold <= 2 switches.
    assert!(sizes.iter().all(|&s| s <= 2));
}

#[test]
fn different_roles_never_merge() {
    let (t, cands) = grid();
    for block in symmetry_blocks(&t, &cands) {
        let roles: HashSet<_> = block.iter().map(|&s| t.switch(s).role).collect();
        assert_eq!(roles.len(), 1);
    }
}

#[test]
fn parallel_circuits_do_not_break_equivalence() {
    let mut b = TopologyBuilder::new("p");
    let spec = |r| SwitchSpec::new(r, Generation::V1, DcId(0), 32);
    let hub = b.add_switch(spec(SwitchRole::Ssw));
    let x = b.add_switch(spec(SwitchRole::Fadu));
    let y = b.add_switch(spec(SwitchRole::Fadu));
    for _ in 0..2 {
        b.add_circuit(hub, x, 100.0).unwrap();
    }
    b.add_circuit(hub, y, 100.0).unwrap();
    let t = b.build();
    let blocks = symmetry_blocks(&t, &[x, y]);
    assert_eq!(blocks.len(), 1, "x and y both see only the hub");
}
