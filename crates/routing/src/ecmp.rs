//! Hop-count ECMP routing with fractional flow splitting.
//!
//! Klotski uses the equal-cost multi-path routing policy (§5): a demand's
//! flow splits equally at each hop across all shortest-path next hops. This
//! module evaluates ECMP loads exactly (as real-valued flow fractions)
//! rather than by path enumeration: demands sharing a destination are routed
//! in one pass —
//!
//! 1. run a BFS from the destination over *usable* circuits to label every
//!    switch with its hop distance;
//! 2. inject each demand's rate at its source;
//! 3. sweep switches in decreasing-distance order, splitting each switch's
//!    accumulated inflow equally over its downhill circuits.
//!
//! This is Θ(|S|+|C|) per distinct destination, which is what makes a full
//! satisfiability check affordable on an O(100,000)-circuit topology.

use crate::loads::LoadMap;
use crate::mask::UsableMask;
use klotski_topology::{CsrGraph, NetState, SwitchId, Topology};
use klotski_traffic::{Demand, DemandMatrix};
use std::sync::Arc;

/// Distance label for unreachable switches.
pub(crate) const UNREACHED: u32 = u32::MAX;

/// Largest `Circuit::hop_weight`: an ordinary hop is 2, a transparent relay 1.
const MAX_W: usize = 2;

/// Reusable buffers of [`dial_labels`]: a labelling does not allocate.
#[derive(Debug, Clone, Default)]
pub(crate) struct DialScratch {
    /// Circular buckets indexed by distance mod `MAX_W + 1`.
    buckets: [Vec<u32>; MAX_W + 1],
    /// Next free `order` slot per distance level ([`canonical_order`]).
    cursor: Vec<u32>,
}

/// Rewrites a Dial visit order — the reached switches, grouped by ascending
/// distance — into the canonical `(distance, switch index)` order. Every
/// routing path must produce exactly this order: the reverse sweep adds f64
/// shares in it and f64 addition is not associative. Equal-distance switches
/// never exchange flow (hop weights are ≥ 1), so any permutation of ties is
/// *correct*; pinning one makes every evaluation path bit-identical. The
/// levels already sit in their final slots, so this counts instead of
/// sorting: note where each level starts, then drop switches `0..n` into
/// their level's slots in index order.
pub(crate) fn canonical_order(order: &mut [u32], dist: &[u32], cursor: &mut Vec<u32>) {
    // Distances stay below MAX_W · n: a no-op after the first call.
    cursor.resize(MAX_W * dist.len(), 0);
    let mut level = UNREACHED;
    for (i, &u) in order.iter().enumerate() {
        let d = dist[u as usize];
        if d != level {
            level = d;
            cursor[d as usize] = i as u32;
        }
    }
    for (u, &d) in dist.iter().enumerate().filter(|&(_, &d)| d != UNREACHED) {
        let next = &mut cursor[d as usize];
        order[*next as usize] = u as u32;
        *next += 1;
    }
}

/// Weighted shortest-path labelling over usable circuits from `root`: fills
/// `dist` (`UNREACHED` where there is no usable path, everywhere when `root`
/// is down) and `order`, the reached switches in canonical order. Hop weights
/// are `1..=MAX_W`, so this is Dial's algorithm with a tiny circular bucket
/// array — Θ(|S|+|C|). Inlined: [`EcmpRouter::bfs_from`] pins the loop out
/// of `route_group`, the engine's `rebuild_full` carries it in its body.
#[inline]
pub(crate) fn dial_labels(
    csr: &CsrGraph,
    state: &NetState,
    mask: &UsableMask,
    root: SwitchId,
    dist: &mut [u32],
    order: &mut Vec<u32>,
    scratch: &mut DialScratch,
) {
    dist.fill(UNREACHED);
    order.clear();
    if !state.switch_up(root) {
        return;
    }
    let DialScratch { buckets, cursor } = scratch;
    buckets.iter_mut().for_each(Vec::clear);
    dist[root.index()] = 0;
    buckets[0].push(root.0);
    let mut current = 0u32;
    let mut remaining = 1usize;
    while remaining > 0 {
        let slot = (current as usize) % (MAX_W + 1);
        while let Some(u) = buckets[slot].pop() {
            remaining -= 1;
            if dist[u as usize] != current {
                continue; // stale entry, settled at a smaller distance
            }
            order.push(u);
            for e in csr.neighbors(u) {
                if !mask.usable_idx(e.circuit as usize) {
                    continue;
                }
                let nd = current + e.hop;
                let fi = e.far as usize;
                if nd < dist[fi] {
                    dist[fi] = nd;
                    buckets[(nd as usize) % (MAX_W + 1)].push(e.far);
                    remaining += 1;
                }
            }
        }
        current += 1;
    }
    // Bucket pops are LIFO: the order within a level depends on the mask.
    canonical_order(order, dist, cursor);
}

/// How flow splits across a switch's shortest-path next hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Equal-cost multi-path: equal share per downhill circuit (§5).
    #[default]
    Ecmp,
    /// Weighted-cost multi-path: share proportional to circuit capacity.
    /// Models the "temporary routing configurations [created] to balance
    /// the traffic" between coexisting generations (§7.1) — without it, a
    /// sparsely-deployed new layer attracts traffic by path count rather
    /// than by installed capacity.
    Wcmp,
}

/// Result of routing one demand matrix over one network state.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// Demands with no live path from source to destination
    /// (violations of Eq. 4), as (src, dst) pairs.
    pub unreachable: Vec<(SwitchId, SwitchId)>,
    /// Total rate successfully routed, Gbps.
    pub routed_gbps: f64,
}

impl RouteOutcome {
    /// An empty outcome (no demands seen yet).
    pub fn new() -> Self {
        Self {
            unreachable: Vec::new(),
            routed_gbps: 0.0,
        }
    }

    /// True if every demand found a path.
    pub fn all_reachable(&self) -> bool {
        self.unreachable.is_empty()
    }

    /// Resets to the empty outcome, keeping the `unreachable` allocation so
    /// a caller-held buffer can be reused across evaluations.
    pub fn clear(&mut self) {
        self.unreachable.clear();
        self.routed_gbps = 0.0;
    }
}

impl Default for RouteOutcome {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable ECMP routing engine over a flattened [`CsrGraph`]. Holds
/// scratch buffers sized to one topology so repeated satisfiability checks
/// do not allocate.
#[derive(Debug, Clone)]
pub struct EcmpRouter {
    /// Flattened adjacency shared (read-only) by every engine built over
    /// the same topology.
    csr: Arc<CsrGraph>,
    dist: Vec<u32>,
    /// BFS visit order (ascending distance); swept in reverse to propagate.
    order: Vec<u32>,
    inflow: Vec<f64>,
    /// Switches whose inflow was touched this pass (sparse reset).
    touched: Vec<u32>,
    /// Downhill circuits of the switch being swept, as
    /// `(directional load slot, far switch index, split weight)` — collected
    /// once per switch so the weight normalization and the share emission
    /// share a single scan.
    downhill: Vec<(u32, u32, f64)>,
    dial: DialScratch,
    /// Usable-circuit mask storage for [`route`](Self::route); taken out
    /// and restored around each call so the borrow does not alias `self`.
    mask: UsableMask,
    /// Flow-split policy.
    pub policy: SplitPolicy,
}

impl EcmpRouter {
    /// Creates a router sized for `topo`.
    pub fn new(topo: &Topology) -> Self {
        Self::from_csr(Arc::new(CsrGraph::build(topo)), SplitPolicy::Ecmp)
    }

    /// Creates a router with an explicit split policy.
    pub fn with_policy(topo: &Topology, policy: SplitPolicy) -> Self {
        Self::from_csr(Arc::new(CsrGraph::build(topo)), policy)
    }

    /// Creates a router over an already-flattened graph. Checkers that also
    /// hold an incremental engine build the CSR view once and share it here.
    pub fn from_csr(csr: Arc<CsrGraph>, policy: SplitPolicy) -> Self {
        let n = csr.num_switches();
        Self {
            csr,
            dist: vec![UNREACHED; n],
            order: Vec::with_capacity(n),
            inflow: vec![0.0; n],
            touched: Vec::new(),
            downhill: Vec::new(),
            dial: DialScratch::default(),
            mask: UsableMask::new(),
            policy,
        }
    }

    /// Routes every demand of `matrix` over the usable subgraph of
    /// (`topo`, `state`), accumulating directional loads into `loads`.
    ///
    /// `loads` is NOT cleared first, so callers can accumulate several
    /// matrices; clear it explicitly for a fresh evaluation.
    pub fn route(
        &mut self,
        topo: &Topology,
        state: &NetState,
        matrix: &DemandMatrix,
        loads: &mut LoadMap,
    ) -> RouteOutcome {
        let mut mask = std::mem::take(&mut self.mask);
        mask.compute(topo, state);
        let mut outcome = RouteOutcome::new();
        self.route_with_mask_into(topo, state, &mask, matrix, loads, &mut outcome);
        self.mask = mask;
        outcome
    }

    /// Like [`route`](Self::route) with a precomputed usable-circuit mask
    /// (which must match `state`) — callers that evaluate one state under
    /// several matrices compute the mask once — writing into a caller-held
    /// `outcome` buffer (cleared first) so repeated evaluations do not
    /// reallocate the unreachable list.
    pub fn route_with_mask_into(
        &mut self,
        topo: &Topology,
        state: &NetState,
        mask: &UsableMask,
        matrix: &DemandMatrix,
        loads: &mut LoadMap,
        outcome: &mut RouteOutcome,
    ) {
        debug_assert_eq!(self.csr.num_switches(), topo.num_switches());
        outcome.clear();
        for (dst, group) in matrix.by_destination() {
            self.route_group(state, mask, dst, &group, loads, outcome);
        }
    }

    /// Routes the demands of one destination group, accumulating into
    /// `loads` and `outcome`.
    ///
    /// Kept out of line: with a single caller LLVM folds this kernel into
    /// the per-matrix loop, and the merged function is slower end to end
    /// (preset-C storm run on one lane, 10 alternating rounds: run wall
    /// 1 728 vs 1 618 ms, `audit_live` 1 961 vs 1 793 µs, p50). `bfs_from`
    /// is pinned out of line for the same kind of reason, see there.
    #[inline(never)]
    fn route_group(
        &mut self,
        state: &NetState,
        mask: &UsableMask,
        dst: SwitchId,
        group: &[&Demand],
        loads: &mut LoadMap,
        outcome: &mut RouteOutcome,
    ) {
        self.bfs_from(state, mask, dst);
        let Self {
            ref csr,
            ref dist,
            ref order,
            ref mut inflow,
            ref mut touched,
            ref mut downhill,
            policy,
            ..
        } = *self;

        // Inject demand rates at their sources; remember touched switches so
        // the inflow reset stays sparse.
        for d in group {
            let src = d.src.index();
            if dist[src] == UNREACHED || !state.switch_up(d.src) {
                outcome.unreachable.push((d.src, d.dst));
                continue;
            }
            if inflow[src] == 0.0 {
                touched.push(src as u32);
            }
            inflow[src] += d.gbps;
            outcome.routed_gbps += d.gbps;
        }

        // Sweep in decreasing-distance order: every switch forwards its
        // accumulated inflow equally over its downhill usable circuits.
        // BFS order is ascending in distance, so iterate it reversed.
        for i in (0..order.len()).rev() {
            let u = order[i] as usize;
            let flow = inflow[u];
            if flow == 0.0 {
                continue;
            }
            let du = dist[u];
            if du == 0 {
                continue; // the destination absorbs its inflow
            }
            // One scan collects the downhill circuits (shortest-path DAG
            // edges) with their split weights — circuit count for ECMP,
            // capacity for WCMP — normalized by the weight total below.
            downhill.clear();
            let mut total_weight = 0.0_f64;
            for e in csr.neighbors(u as u32) {
                if mask.usable_idx(e.circuit as usize)
                    && dist[e.far as usize].saturating_add(e.hop) == du
                {
                    let weight = match policy {
                        SplitPolicy::Ecmp => 1.0,
                        SplitPolicy::Wcmp => csr.wcmp_weight(e.circuit),
                    };
                    total_weight += weight;
                    downhill.push((e.slot, e.far, weight));
                }
            }
            debug_assert!(
                total_weight > 0.0,
                "a reachable non-destination switch must have a downhill circuit"
            );
            for &(slot, far, weight) in downhill.iter() {
                let fi = far as usize;
                let share = flow * weight / total_weight;
                loads.add_slot(slot, share);
                if inflow[fi] == 0.0 {
                    touched.push(far);
                }
                inflow[fi] += share;
            }
        }

        // Sparse reset for the next group.
        for &u in touched.iter() {
            inflow[u as usize] = 0.0;
        }
        touched.clear();
    }

    /// [`dial_labels`] from `root`, kept out of line: folded into
    /// `route_group` the loop moves the crate's other hot code and planning
    /// gets slower (repository benchmark, 10 rotating rounds, p50:
    /// `plan_ensemble` 837 vs 785 ms, `plan_single` 184.7 vs 179.5 ms). One
    /// out-of-line copy shared with `rebuild_full` reads the same on preset D
    /// and 4 % slower per route on C (min of 200: 1 051 vs 1 013 µs).
    #[inline(never)]
    fn bfs_from(&mut self, state: &NetState, mask: &UsableMask, root: SwitchId) {
        let (dist, order) = (&mut self.dist, &mut self.order);
        dial_labels(&self.csr, state, mask, root, dist, order, &mut self.dial);
    }

    /// Hop distance from `s` to the destination of the most recent
    /// `route_group` BFS (test/diagnostic hook).
    #[cfg(test)]
    fn last_dist(&self, s: SwitchId) -> Option<u32> {
        let d = self.dist[s.index()];
        (d != UNREACHED).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_topology::{
        graph::{SwitchSpec, TopologyBuilder},
        CircuitId, DcId, Generation, SwitchRole,
    };
    use klotski_traffic::DemandClass;

    fn spec(role: SwitchRole) -> SwitchSpec {
        SwitchSpec::new(role, Generation::V1, DcId(0), 64)
    }

    /// Diamond: src -> {m1, m2} -> dst, all capacities 100.
    fn diamond() -> (Topology, [SwitchId; 4], [CircuitId; 4]) {
        diamond_with(100.0, 100.0)
    }

    /// Diamond whose two arms (via m1, via m2) have the given capacities.
    fn diamond_with(via_m1: f64, via_m2: f64) -> (Topology, [SwitchId; 4], [CircuitId; 4]) {
        let mut b = TopologyBuilder::new("diamond");
        let s = b.add_switch(spec(SwitchRole::Rsw));
        let m1 = b.add_switch(spec(SwitchRole::Fsw));
        let m2 = b.add_switch(spec(SwitchRole::Fsw));
        let d = b.add_switch(spec(SwitchRole::Ebb));
        let c0 = b.add_circuit(s, m1, via_m1).unwrap();
        let c1 = b.add_circuit(s, m2, via_m2).unwrap();
        let c2 = b.add_circuit(m1, d, via_m1).unwrap();
        let c3 = b.add_circuit(m2, d, via_m2).unwrap();
        (b.build(), [s, m1, m2, d], [c0, c1, c2, c3])
    }

    fn one_demand(src: SwitchId, dst: SwitchId, gbps: f64) -> DemandMatrix {
        [Demand {
            src,
            dst,
            gbps,
            class: DemandClass::RswToEbb,
        }]
        .into_iter()
        .collect()
    }

    #[test]
    fn ecmp_splits_equally_across_diamond() {
        let (t, sw, ck) = diamond();
        let state = NetState::all_up(&t);
        let mut router = EcmpRouter::new(&t);
        let mut loads = LoadMap::new(&t);
        let out = router.route(&t, &state, &one_demand(sw[0], sw[3], 80.0), &mut loads);
        assert!(out.all_reachable());
        assert!((out.routed_gbps - 80.0).abs() < 1e-9);
        for c in ck {
            assert!((loads.max_direction(c) - 40.0).abs() < 1e-9, "{c}");
        }
    }

    #[test]
    fn wcmp_splits_in_proportion_to_capacity() {
        let (t, sw, ck) = diamond_with(300.0, 100.0);
        let state = NetState::all_up(&t);
        let mut router = EcmpRouter::with_policy(&t, SplitPolicy::Wcmp);
        let mut loads = LoadMap::new(&t);
        let out = router.route(&t, &state, &one_demand(sw[0], sw[3], 80.0), &mut loads);
        assert!(out.all_reachable());
        assert!((loads.max_direction(ck[0]) - 60.0).abs() < 1e-9);
        assert!((loads.max_direction(ck[1]) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn flow_funnels_onto_surviving_path() {
        let (t, sw, ck) = diamond();
        let mut state = NetState::all_up(&t);
        state.set_circuit(ck[1], false); // drop src->m2
        let mut router = EcmpRouter::new(&t);
        let mut loads = LoadMap::new(&t);
        let out = router.route(&t, &state, &one_demand(sw[0], sw[3], 80.0), &mut loads);
        assert!(out.all_reachable());
        assert!((loads.max_direction(ck[0]) - 80.0).abs() < 1e-9);
        assert!((loads.max_direction(ck[2]) - 80.0).abs() < 1e-9);
        assert_eq!(loads.max_direction(ck[3]), 0.0);
    }

    #[test]
    fn unreachable_demand_is_reported() {
        let (t, sw, _) = diamond();
        let mut state = NetState::all_up(&t);
        state.drain_switch(&t, sw[1]);
        state.drain_switch(&t, sw[2]);
        let mut router = EcmpRouter::new(&t);
        let mut loads = LoadMap::new(&t);
        let out = router.route(&t, &state, &one_demand(sw[0], sw[3], 80.0), &mut loads);
        assert_eq!(out.unreachable, vec![(sw[0], sw[3])]);
        assert_eq!(out.routed_gbps, 0.0);
        assert_eq!(loads.total_flow(), 0.0);
    }

    #[test]
    fn down_source_is_unreachable() {
        let (t, sw, _) = diamond();
        let mut state = NetState::all_up(&t);
        state.set_switch(sw[0], false);
        let mut router = EcmpRouter::new(&t);
        let mut loads = LoadMap::new(&t);
        let out = router.route(&t, &state, &one_demand(sw[0], sw[3], 10.0), &mut loads);
        assert!(!out.all_reachable());
    }

    #[test]
    fn flow_is_conserved_per_hop() {
        // Flow crosses exactly dist(src) hops; with a 2-hop path, total
        // per-direction flow = 2 x rate.
        let (t, sw, _) = diamond();
        let state = NetState::all_up(&t);
        let mut router = EcmpRouter::new(&t);
        let mut loads = LoadMap::new(&t);
        router.route(&t, &state, &one_demand(sw[0], sw[3], 60.0), &mut loads);
        assert!((loads.total_flow() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_demands_same_destination_accumulate() {
        let (t, sw, ck) = diamond();
        let state = NetState::all_up(&t);
        let m: DemandMatrix = [
            Demand {
                src: sw[0],
                dst: sw[3],
                gbps: 40.0,
                class: DemandClass::RswToEbb,
            },
            Demand {
                src: sw[1],
                dst: sw[3],
                gbps: 10.0,
                class: DemandClass::RswToEbb,
            },
        ]
        .into_iter()
        .collect();
        let mut router = EcmpRouter::new(&t);
        let mut loads = LoadMap::new(&t);
        let out = router.route(&t, &state, &m, &mut loads);
        assert!(out.all_reachable());
        // sw0's 40 splits 20/20; sw1 sends its own 10 directly: c2 = 20+10.
        assert!((loads.max_direction(ck[2]) - 30.0).abs() < 1e-9);
        assert!((loads.max_direction(ck[3]) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_state_resets_between_routes() {
        let (t, sw, ck) = diamond();
        let state = NetState::all_up(&t);
        let mut router = EcmpRouter::new(&t);
        let mut loads = LoadMap::new(&t);
        router.route(&t, &state, &one_demand(sw[0], sw[3], 80.0), &mut loads);
        loads.clear();
        router.route(&t, &state, &one_demand(sw[0], sw[3], 80.0), &mut loads);
        // Identical result the second time: no stale inflow.
        for c in ck {
            assert!((loads.max_direction(c) - 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bfs_distances_are_hop_counts() {
        let (t, sw, _) = diamond();
        let state = NetState::all_up(&t);
        let mut router = EcmpRouter::new(&t);
        let mask = UsableMask::for_state(&t, &state);
        router.bfs_from(&state, &mask, sw[3]);
        assert_eq!(router.last_dist(sw[3]), Some(0));
        assert_eq!(
            router.last_dist(sw[1]),
            Some(2),
            "one ordinary hop weighs 2"
        );
        assert_eq!(router.last_dist(sw[0]), Some(4));
    }

    proptest::proptest! {
        /// The counting pass is the sort it replaced, on any visit order
        /// Dial's loop can produce: reached switches grouped by ascending
        /// level, in any order within a level — with unreached switches,
        /// gaps between levels (hop weights 1 and 2), nothing reached, one
        /// level only — and with the cursor scratch carried from one
        /// labelling to the next.
        #[test]
        fn prop_canonical_order_is_the_sorted_order(
            labellings in proptest::collection::vec(
                // Per switch: level code (8 = unreached) × 1000 + shuffle key.
                proptest::collection::vec(0u32..9000, 0..40),
                1..4,
            ),
            one_level in proptest::bool::ANY,
        ) {
            let mut cursor = Vec::new();
            for labelling in labellings {
                // Levels stay below the longest path n switches can form.
                let deepest = (MAX_W * labelling.len()).saturating_sub(1) as u32;
                let dist: Vec<u32> = labelling
                    .iter()
                    .map(|&code| match code / 1000 {
                        8 => UNREACHED,
                        _ if one_level => deepest.min(3),
                        // Levels 0, 1, 3, 4, 6, 7, 9, 10.
                        l => (l + l / 2).min(deepest),
                    })
                    .collect();
                let mut order: Vec<u32> = (0..dist.len() as u32)
                    .filter(|&u| dist[u as usize] != UNREACHED)
                    .collect();
                let mut sorted = order.clone();
                sorted.sort_by_key(|&u| (dist[u as usize], u));
                // Grouped by level, shuffled within.
                order.sort_by_key(|&u| (dist[u as usize], labelling[u as usize] % 1000));
                canonical_order(&mut order, &dist, &mut cursor);
                proptest::prop_assert_eq!(order, sorted);
            }
        }
    }

    #[test]
    fn preset_routing_sanity() {
        use klotski_topology::presets::{self, PresetId};
        use klotski_traffic::{generate, DemandGenConfig};
        let p = presets::build(PresetId::A);
        let t = &p.topology;
        // Drain the not-yet-installed v2 generation to get the initial world.
        let mut state = NetState::all_up(t);
        for s in p.handles.hgrid_v2_switches() {
            state.drain_switch(t, s);
        }
        let demands = generate(t, &DemandGenConfig::default());
        let mut router = EcmpRouter::new(t);
        let mut loads = LoadMap::new(t);
        let out = router.route(t, &state, &demands, &mut loads);
        assert!(
            out.all_reachable(),
            "initial world must route all demands: {:?}",
            out.unreachable
        );
        assert!(out.routed_gbps > 0.0);
    }
}
