//! Delta-aware ECMP re-routing across nearby network states.
//!
//! A planner child state differs from its parent by exactly one
//! drained/undrained operation block, yet a from-scratch satisfiability
//! check re-runs BFS + flow sweep for *every* demand destination over the
//! *whole* topology. [`IncrementalRouter`] makes the cost proportional to
//! the delta instead: it caches, per destination group,
//!
//! - the BFS distance labels and canonical visit order,
//! - the shortest-path DAG (each switch's downhill circuits as 2-byte
//!   indices into its CSR adjacency row, ascending — neighbor-scan order —
//!   all in one arena shaped like the CSR adjacency).
//!
//! Given the set of circuits whose usability *toggled* between the cached
//! base state and a new state, each destination classifies every toggle
//! against its cached labels:
//!
//! - a toggle that adds or removes no DAG edge and reaches no unreached
//!   switch leaves the destination alone: a circuit turned on between two
//!   unreached switches connects nothing to the reached region by itself,
//!   and one turned off carried a DAG edge only if both its ends were
//!   reached one hop weight apart. A destination no toggle touches is
//!   *clean*: its routing structure is reused unchanged;
//! - a removed DAG edge is removed from its uphill endpoint's downhill
//!   list, and an added one inserted; a switch left with no usable circuit
//!   at all becomes unreachable (every edge that previously supported it is
//!   itself a toggle, so no stale support can survive unmarked);
//! - a new usable circuit into the unreached region seeds a bounded
//!   Dijkstra that extends distance labels without touching the (much
//!   larger) already-reached region; a reached switch it meets one hop
//!   weight above a new label gains that edge, and a newly settled switch
//!   scans its row for its list;
//! - anything that would *shorten* an existing label — or a patched switch
//!   whose downhill list comes out empty (its shortest path got longer, not
//!   just narrower) — falls back to a full per-destination rebuild.
//!   Fallbacks are exact, just slower; classification only ever errs
//!   toward them.
//!
//! A patch costs its edits, not its rows: a reached switch that stays
//! reached keeps its label through a patch, so its list changes only by
//! the toggled circuits and the circuits into the new region — exactly the
//! edges the classification meets. A list holds row indices in ascending order, and
//! a sorted insert or remove leaves it equal to a rescan of the row (debug
//! builds assert that for every patched list). The canonical order is
//! patched alike: a newly settled switch goes in at the place a binary
//! search finds, and the runs between are copied whole.
//!
//! Only the structure is cached. Loads are not: after the (lane-partitioned)
//! structure advance joins, one sequential sweep on the caller walks each
//! destination's `order`/`dag` once and adds one demand matrix's shares
//! straight into a `LoadMap`'s slots — the base matrix for
//! [`IncrementalRouter::evaluate`], a traffic ensemble's extra `k` for
//! [`IncrementalRouter::replay_extra`], which sweeps the structure the last
//! advance left without advancing again.
//!
//! Determinism: the sweep visits destinations in ascending order, switches
//! in reverse canonical `(distance, switch index)` order, and downhill lists
//! in neighbor-scan order. That is the exact f64 addition sequence a
//! from-scratch sequential evaluation produces per matrix (see
//! `ecmp::canonical_order`), and it runs on one thread, so verdicts
//! and loads are bit-identical to full evaluation at any thread count.

use crate::ecmp::{dial_labels, DialScratch, RouteOutcome, SplitPolicy, UNREACHED};
use crate::loads::LoadMap;
use crate::mask::UsableMask;
use klotski_parallel::{chunk_ranges, WorkerPool};
use klotski_topology::{CircuitId, CsrGraph, NetState, SwitchId, Topology};
use klotski_traffic::{DemandClass, DemandMatrix};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Chunks per lane for the lane-partitioned destination advance: a little
/// oversubscription so fast lanes steal the tail.
const CHUNKS_PER_LANE: usize = 4;

/// What every matrix routed on one engine must have in common.
const SHARED_ENDPOINTS: &str = "every matrix of an engine must share the base demand endpoints";

/// Running totals of incremental-evaluation effort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Completed [`evaluate`](IncrementalRouter::evaluate) calls.
    pub evaluations: u64,
    /// Destinations whose routing structure was reused unchanged.
    pub clean_destinations: u64,
    /// Destinations whose structure was patched or rebuilt.
    pub dirty_destinations: u64,
    /// Destinations that fell back to a full BFS + DAG rebuild.
    pub full_rebuilds: u64,
    /// Non-base ensemble matrices swept: one per
    /// [`replay_extra`](IncrementalRouter::replay_extra).
    pub extra_replays: u64,
}

/// Cached routing structure of one destination group.
#[derive(Debug)]
struct DestEntry {
    dst: SwitchId,
    /// Source switches of this group's demands, in matrix order.
    srcs: Vec<SwitchId>,
    /// Their classes — with `srcs` and `dst`, the endpoint sequence every
    /// matrix routed on this engine must share.
    classes: Vec<DemandClass>,
    /// Demand rates, matrix-contiguous: `rates[i * matrices + m]` is the
    /// rate of demand `i` under matrix `m` (0 = base, then the ensemble
    /// extras — endpoints are shared, only the gbps differ per matrix).
    rates: Vec<f64>,
    /// Hop distance to `dst` for every switch, exact for the engine's base
    /// state (`UNREACHED` when no usable path exists).
    dist: Vec<u32>,
    /// Reached switches in canonical `(dist, index)` order.
    order: Vec<u32>,
    /// The shortest-path DAG the sweep splits over, in one arena shaped
    /// like the CSR adjacency: switch `u`'s downhill list is the first
    /// `dag_len[u]` entries from `csr.offsets()[u]`, ascending (so in
    /// neighbor-scan order), each the row-relative index `k` of a downhill
    /// record `csr.neighbors(u)[k]` — 2 bytes, as a row holds at most
    /// [`IncrementalRouter::MAX_ROW`] records. A list is a subsequence of
    /// its switch's adjacency row, so it always fits the row's segment and
    /// a patch inserts or removes an index in place. The sweep reads each
    /// index's `(slot, far)` from `csr.links()`. Split weights are not
    /// stored: ECMP divides by the list length, WCMP reads
    /// `csr.wcmp_weight(slot >> 1)`.
    dag: Vec<u16>,
    /// Downhill-list lengths; 0 for unreached switches and the destination.
    dag_len: Vec<u32>,
    /// Introspection: last advance reused the structure unchanged.
    last_clean: bool,
    /// Introspection: last advance fell back to a full rebuild.
    last_full: bool,
}

/// Per-lane scratch shared by every destination a lane advances.
#[derive(Debug, Default)]
struct LaneScratch {
    /// Epoch stamps: `marked` membership, new-region membership, and
    /// settled-in-partial-BFS membership.
    mark_stamp: Vec<u32>,
    new_stamp: Vec<u32>,
    settle_stamp: Vec<u32>,
    epoch: u32,
    /// Switches whose downhill list changed: patched base-reached ones,
    /// victims, and the newly settled.
    marked: Vec<u32>,
    /// `(dist, switch)` entry points into the unreached region.
    seeds: Vec<(u32, u32)>,
    /// Switches newly reached by the partial BFS.
    settled: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Labelling buffers of full per-destination rebuilds.
    dial: DialScratch,
    order_buf: Vec<u32>,
}

impl LaneScratch {
    fn sized(csr: &CsrGraph) -> Self {
        let n = csr.num_switches();
        Self {
            mark_stamp: vec![0; n],
            new_stamp: vec![0; n],
            settle_stamp: vec![0; n],
            ..Self::default()
        }
    }

    fn bump_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.epoch = 0;
            self.mark_stamp.fill(0);
            self.new_stamp.fill(0);
            self.settle_stamp.fill(0);
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Delta-aware routing engine over one `(Topology, DemandMatrix)` pair.
///
/// The engine tracks a *base* state: the state of the most recent
/// [`evaluate`](Self::evaluate) or [`rebase`](Self::rebase) call. The next
/// call must pass the exact set of circuits whose usability differs between
/// that base and the new state (`toggles`), or `None` to force a full
/// rebuild (also the only option for the first, priming call).
#[derive(Debug)]
pub struct IncrementalRouter {
    policy: SplitPolicy,
    /// Flattened adjacency shared read-only by every lane.
    csr: Arc<CsrGraph>,
    mask: UsableMask,
    entries: Vec<DestEntry>,
    scratch: Vec<LaneScratch>,
    /// Inflow accumulator of the load sweep, one cell per switch. All zero
    /// between sweeps.
    inflow: Vec<f64>,
    /// Non-base ensemble matrices tracked (every entry's `rates` has
    /// `num_extras + 1` columns).
    num_extras: usize,
    primed: bool,
    stats: IncrementalStats,
}

impl IncrementalRouter {
    /// An engine that additionally tracks `extras` — the non-base matrices
    /// of a traffic ensemble. Every extra must share `matrix`'s exact
    /// `(src, dst, class)` sequence (only rates may differ); the routing
    /// structure is then matrix-independent, and
    /// [`replay_extra`](Self::replay_extra) re-runs the load sweep for one
    /// matrix against the structure the last advance computed.
    ///
    /// # Panics
    /// Panics when an extra's demand endpoints diverge from the base, or
    /// when a switch has more than [`MAX_ROW`](Self::MAX_ROW) circuits.
    pub fn with_csr_ensemble(
        csr: Arc<CsrGraph>,
        matrix: &DemandMatrix,
        extras: &[DemandMatrix],
        lanes: usize,
        policy: SplitPolicy,
    ) -> Self {
        let _ = lanes;
        let n = csr.num_switches();
        let rows = csr.offsets().windows(2);
        let widest = rows.map(|r| (r[1] - r[0]) as usize).max().unwrap_or(0);
        assert!(
            widest <= Self::MAX_ROW,
            "a switch has {widest} circuits; the engine indexes at most {} per switch",
            Self::MAX_ROW
        );
        let edges = *csr.offsets().last().expect("offsets has n + 1 entries") as usize;
        let matrices = extras.len() + 1;
        let entries = matrix
            .by_destination()
            .into_iter()
            .map(|(dst, group)| DestEntry {
                dst,
                srcs: group.iter().map(|d| d.src).collect(),
                classes: group.iter().map(|d| d.class).collect(),
                rates: vec![0.0; group.len() * matrices],
                dist: vec![UNREACHED; n],
                order: Vec::new(),
                dag: vec![0; edges],
                dag_len: vec![0; n],
                last_clean: false,
                last_full: false,
            })
            .collect();
        let mut engine = Self {
            policy,
            scratch: vec![LaneScratch::sized(&csr)],
            csr,
            mask: UsableMask::new(),
            entries,
            inflow: vec![0.0; n],
            num_extras: extras.len(),
            primed: false,
            stats: IncrementalStats::default(),
        };
        for (m, rates) in std::iter::once(matrix).chain(extras).enumerate() {
            assert!(engine.set_rates(m, rates), "{SHARED_ENDPOINTS}");
        }
        engine
    }

    /// Overwrites the base matrix's rates in place with `matrix`'s, keeping
    /// every cached routing structure: the next [`evaluate`](Self::evaluate)
    /// sweeps `matrix` exactly as an engine built over it would. For callers
    /// that re-check one chain of states as demand drifts (growth and surges
    /// rescale `gbps` only), so the structure outlives the forecast. Returns
    /// false, having written no rate, when `matrix`'s `(src, dst, class)`
    /// sequence is not the engine's.
    pub fn try_set_base_rates(&mut self, matrix: &DemandMatrix) -> bool {
        self.set_rates(0, matrix)
    }

    /// Writes `matrix`'s rates into column `m` of every destination's rate
    /// table — after checking that its endpoints are the engine's: on a
    /// mismatch nothing is written and the answer is false.
    fn set_rates(&mut self, m: usize, matrix: &DemandMatrix) -> bool {
        let matrices = self.num_extras + 1;
        let groups = matrix.by_destination();
        let shared = groups.len() == self.entries.len()
            && self
                .entries
                .iter()
                .zip(&groups)
                .all(|(entry, (&dst, group))| {
                    dst == entry.dst
                        && group.len() == entry.srcs.len()
                        && group
                            .iter()
                            .zip(entry.srcs.iter().zip(&entry.classes))
                            .all(|(d, (&src, &class))| (d.src, d.class) == (src, class))
                });
        if shared {
            for (entry, group) in self.entries.iter_mut().zip(groups.values()) {
                for (i, d) in group.iter().enumerate() {
                    entry.rates[i * matrices + m] = d.gbps;
                }
            }
        }
        shared
    }

    /// Most circuits one switch may have: a downhill list holds 16-bit
    /// indices into its switch's adjacency row. Documents past it are
    /// refused before an engine is built (`klotski_npd::convert::
    /// check_switch_width`).
    pub const MAX_ROW: usize = 1 << 16;

    /// Number of destination groups tracked.
    pub fn num_destinations(&self) -> usize {
        self.entries.len()
    }

    /// Effort totals since construction.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Estimated resident bytes of the engine: the per-destination caches,
    /// the sweep's inflow accumulator, and every lane's epoch stamps.
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = self.inflow.capacity() * 8;
        for e in &self.entries {
            bytes += e.dist.capacity() * 4 + e.order.capacity() * 4;
            bytes += e.dag.capacity() * 2 + e.dag_len.capacity() * 4;
            bytes += e.srcs.capacity() * 4 + e.classes.capacity() + e.rates.capacity() * 8;
        }
        for lane in &self.scratch {
            bytes += (lane.mark_stamp.capacity()
                + lane.new_stamp.capacity()
                + lane.settle_stamp.capacity())
                * 4;
        }
        bytes as u64
    }

    /// Always 0: the engine keeps no per-destination circuit set. Kept
    /// while the benchmark's `routing.footprint_bytes` probe reads it; the
    /// probe goes with the harness unpinning (ROADMAP 1(a)).
    pub fn footprint_bytes(&self) -> u64 {
        0
    }

    /// Routes every demand of the base matrix over `state`, accumulating
    /// into `loads` (NOT cleared, matching [`crate::EcmpRouter::route`]) and
    /// writing the outcome into the caller-held buffer.
    ///
    /// `toggles` must be exactly the circuits whose usability differs
    /// between the engine's base state and `state`; pass `None` when that
    /// set is unknown (first call, or a delta too large to be worth it) to
    /// rebuild everything. Either way the result is bit-identical to a
    /// from-scratch sequential evaluation, and `state` becomes the new base.
    pub fn evaluate(
        &mut self,
        pool: &WorkerPool,
        topo: &Topology,
        state: &NetState,
        toggles: Option<&[CircuitId]>,
        loads: &mut LoadMap,
        outcome: &mut RouteOutcome,
    ) {
        self.advance(pool, topo, state, toggles);
        self.stats.evaluations += 1;
        self.sweep(state, 0, loads, outcome);
    }

    /// Sweeps ensemble matrix `k + 1` (the k-th non-base extra) over the
    /// structures of the engine's base state, accumulating into `loads`
    /// (NOT cleared) and writing the outcome buffer.
    ///
    /// Must follow an [`evaluate`](Self::evaluate) or
    /// [`rebase`](Self::rebase) of the same `state`: distance labels, DAGs
    /// and canonical orders are the advance's — no BFS, no DAG work — and the
    /// result is bit-identical to a from-scratch evaluation of that matrix.
    pub fn replay_extra(
        &mut self,
        k: usize,
        state: &NetState,
        loads: &mut LoadMap,
        outcome: &mut RouteOutcome,
    ) {
        assert!(k < self.num_extras, "matrix outside the engine's ensemble");
        self.sweep(state, k + 1, loads, outcome);
        self.stats.extra_replays += 1;
    }

    /// One traversal of every destination, ascending, adding matrix `m`'s
    /// shares into `loads` — see [`sweep_entry`].
    fn sweep(
        &mut self,
        state: &NetState,
        m: usize,
        loads: &mut LoadMap,
        outcome: &mut RouteOutcome,
    ) {
        debug_assert!(self.primed, "the sweep needs a primed engine");
        outcome.clear();
        let acc = loads.slots_mut();
        for entry in &self.entries {
            sweep_entry(
                entry,
                &self.csr,
                self.policy,
                &mut self.inflow,
                acc,
                state,
                self.num_extras + 1,
                m,
                outcome,
            );
        }
    }

    /// Moves the base to `state` updating routing *structures* only, without
    /// sweeping flows. Planners call this with a parent state so each child
    /// evaluation diffs against its parent (one applied block) rather than
    /// an arbitrary cousin.
    pub fn rebase(
        &mut self,
        pool: &WorkerPool,
        topo: &Topology,
        state: &NetState,
        toggles: Option<&[CircuitId]>,
    ) {
        self.advance(pool, topo, state, toggles);
    }

    /// The least work — destinations × CSR directed edges, fixed when the
    /// engine is built — at which an advance fans out over its lanes. Below
    /// it, spawning the helpers costs more than a second lane saves: full D
    /// (27 × 30 966 ≈ 0.8 M) loses at two lanes, full E (28 × 356 192 ≈
    /// 10 M) gains (DESIGN.md §10).
    const MIN_FAN_OUT_WORK: usize = 4_000_000;

    /// Destinations × CSR directed edges: the size an advance's fan-out is
    /// weighed by.
    fn work(&self) -> usize {
        let edges = self.csr.offsets()[self.csr.num_switches()] as usize;
        self.entries.len() * edges
    }

    /// Shared delta engine: updates the usable mask and every destination's
    /// cached structures for `state`.
    fn advance(
        &mut self,
        pool: &WorkerPool,
        topo: &Topology,
        state: &NetState,
        toggles: Option<&[CircuitId]>,
    ) {
        let full_all = !self.primed || toggles.is_none();
        if full_all {
            self.mask.compute(topo, state);
        } else {
            // Flip exactly the changed bits — no full-topology rescan.
            for &c in toggles.unwrap() {
                self.mask.set(c, state.circuit_usable(topo, c));
            }
        }
        let toggle_set: &[CircuitId] = if full_all { &[] } else { toggles.unwrap() };

        let lanes = pool.lanes();
        // Fan out only when the machine can run lanes concurrently and the
        // engine is large enough to repay the helpers' spawn; otherwise the
        // destinations are advanced inline on the caller. Each
        // destination's structure depends on nothing but its own cache and
        // the shared read-only inputs, so execution mode is unobservable in
        // the results.
        let use_pool = lanes > 1
            && klotski_parallel::default_lanes() > 1
            && self.work() >= Self::MIN_FAN_OUT_WORK;
        let Self {
            ref mut entries,
            ref mut scratch,
            ref mask,
            ref csr,
            ..
        } = *self;
        let advance_chunk = |lane: &mut LaneScratch, chunk: &mut [DestEntry]| {
            for entry in chunk {
                advance_entry(entry, lane, csr, state, mask, toggle_set, full_all);
            }
        };
        if use_pool {
            if scratch.len() < lanes {
                // Per-lane scratch is allocated on the first fan-out, so an
                // engine that never fans out (a 1-core host, or work below
                // the constant) carries exactly one lane's worth regardless
                // of its configured width.
                scratch.resize_with(lanes, || LaneScratch::sized(csr));
            }
            // Lane-partitioned advance: contiguous destination chunks
            // (`CHUNKS_PER_LANE` per lane) instead of one task per
            // destination — fewer claim round-trips. Tasks write only
            // their own chunk.
            let mut tasks: Vec<&mut [DestEntry]> = Vec::new();
            let mut rest: &mut [DestEntry] = entries;
            for r in chunk_ranges(rest.len(), lanes * CHUNKS_PER_LANE) {
                let (chunk, tail) = rest.split_at_mut(r.len());
                tasks.push(chunk);
                rest = tail;
            }
            pool.run_scratch_tasks_into(scratch, &mut tasks, |lane, _, chunk| {
                advance_chunk(lane, chunk)
            });
        } else {
            advance_chunk(&mut scratch[0], entries);
        }
        self.primed = true;

        let (mut clean, mut dirty, mut full) = (0u64, 0u64, 0u64);
        for e in &self.entries {
            if e.last_clean {
                clean += 1;
            } else {
                dirty += 1;
            }
            if e.last_full {
                full += 1;
            }
        }
        self.stats.clean_destinations += clean;
        self.stats.dirty_destinations += dirty;
        self.stats.full_rebuilds += full;
    }
}

/// Updates one destination's cached structures for the child state. See
/// the module docs for the classification rules and why each shortcut is
/// sound.
fn advance_entry(
    entry: &mut DestEntry,
    scratch: &mut LaneScratch,
    csr: &CsrGraph,
    state: &NetState,
    mask: &UsableMask,
    toggles: &[CircuitId],
    full_all: bool,
) {
    let epoch = scratch.bump_epoch();
    scratch.marked.clear();
    scratch.seeds.clear();
    scratch.settled.clear();

    let dst_i = entry.dst.index();
    // The cached BFS roots at the destination: dist[dst] == 0 iff the
    // destination switch was up in the base state.
    let mut full = full_all || ((entry.dist[dst_i] == 0) != state.switch_up(entry.dst));

    if !full {
        for &c in toggles {
            let ci = c.index() as u32;
            let (a32, b32) = csr.ends(ci);
            let (ai, bi) = (a32 as usize, b32 as usize);
            let (da, db) = (entry.dist[ai], entry.dist[bi]);
            let w = csr.hop(ci);
            if mask.usable(c) {
                // Toggled ON.
                match (da != UNREACHED, db != UNREACHED) {
                    (true, true) => {
                        if da.saturating_add(w) < db || db.saturating_add(w) < da {
                            full = true; // shortcut: labels would shrink
                            break;
                        } else if da + w == db {
                            insert_downhill(entry, csr, bi, 2 * ci + 1); // b gains a DAG edge
                            mark(scratch, epoch, bi);
                        } else if db + w == da {
                            insert_downhill(entry, csr, ai, 2 * ci);
                            mark(scratch, epoch, ai);
                        }
                        // |da - db| < w (or da == db): not a DAG edge.
                    }
                    (true, false) => scratch.seeds.push((da + w, bi as u32)),
                    (false, true) => scratch.seeds.push((db + w, ai as u32)),
                    // Both unreached: connects nothing to the reached
                    // region by itself; if a chain of new circuits does,
                    // some circuit of the chain has a reached endpoint and
                    // seeds the partial BFS that walks the rest.
                    (false, false) => {}
                }
            } else {
                // Toggled OFF. A base-usable circuit with one endpoint
                // reached always has both reached, so only the both-reached
                // case can carry a DAG edge. A drained uphill end keeps its
                // list: it has no usable circuit left, so the victim pass
                // below drops the list whole.
                if da != UNREACHED && db != UNREACHED {
                    if db + w == da {
                        if state.switch_up(SwitchId(a32)) {
                            remove_downhill(entry, csr, ai, 2 * ci); // a loses a DAG edge
                        }
                        mark(scratch, epoch, ai);
                    } else if da + w == db {
                        if state.switch_up(SwitchId(b32)) {
                            remove_downhill(entry, csr, bi, 2 * ci + 1);
                        }
                        mark(scratch, epoch, bi);
                    }
                }
            }
        }
    }

    // Fast victim pass: a marked switch with no usable circuit left is
    // unreachable (the common case for a freshly drained switch). Partial
    // loss of support is caught below when a patched downhill list comes
    // out empty.
    let mut victims = false;
    if !full {
        for i in 0..scratch.marked.len() {
            let ui = scratch.marked[i] as usize;
            if csr
                .neighbors(ui as u32)
                .iter()
                .all(|e| !mask.usable_idx(e.circuit as usize))
            {
                entry.dist[ui] = UNREACHED;
                entry.dag_len[ui] = 0;
                victims = true;
            }
        }
    }

    // Partial BFS: bounded Dijkstra from the seed entry points over the
    // previously-unreached region only. Seeds span an arbitrary distance
    // range, so this uses a heap rather than Dial buckets.
    if !full && !scratch.seeds.is_empty() {
        scratch.heap.clear();
        for &(d, x) in &scratch.seeds {
            let xi = x as usize;
            // Seed endpoints were unreached in the base; victims cannot
            // appear here (all their circuits are unusable, while a seed's
            // toggled-on circuit is usable and incident).
            if d < entry.dist[xi] {
                entry.dist[xi] = d;
                scratch.new_stamp[xi] = epoch;
                scratch.heap.push(Reverse((d, x)));
            }
        }
        'dijkstra: while let Some(Reverse((d, x))) = scratch.heap.pop() {
            let xi = x as usize;
            if d > entry.dist[xi] || scratch.settle_stamp[xi] == epoch {
                continue; // stale or already settled
            }
            scratch.settle_stamp[xi] = epoch;
            scratch.settled.push(x);
            for e in csr.neighbors(x) {
                if !mask.usable_idx(e.circuit as usize) {
                    continue;
                }
                let nd = d + e.hop;
                let fi = e.far as usize;
                if scratch.new_stamp[fi] == epoch || entry.dist[fi] == UNREACHED {
                    // Still inside the new region.
                    if nd < entry.dist[fi] {
                        entry.dist[fi] = nd;
                        scratch.new_stamp[fi] = epoch;
                        scratch.heap.push(Reverse((nd, e.far)));
                    }
                } else if nd < entry.dist[fi] {
                    // The new region shortcuts into the old one: labels
                    // there would shrink — rebuild from scratch.
                    full = true;
                    break 'dijkstra;
                } else if nd == entry.dist[fi] {
                    // A base-reached switch gains a DAG edge through the
                    // new region.
                    insert_downhill(entry, csr, fi, e.slot ^ 1);
                    mark(scratch, epoch, fi);
                }
            }
        }
        // Newly reached switches need downhill lists and order slots.
        if !full {
            for i in 0..scratch.settled.len() {
                let x = scratch.settled[i];
                mark(scratch, epoch, x as usize);
            }
        }
    }

    // Every marked survivor's downhill list is final: a base-reached
    // switch's was patched edge by edge above (its label is unchanged, so
    // only its toggled circuits and the circuits into the new region can
    // change it), and a newly settled switch, which had no list, scans its
    // row.
    if !full {
        for i in 0..scratch.marked.len() {
            let ui = scratch.marked[i] as usize;
            let du = entry.dist[ui];
            if du == UNREACHED || du == 0 {
                continue; // victim, or the destination itself
            }
            if scratch.settle_stamp[ui] == epoch {
                rebuild_downhill(entry, csr, mask, ui);
            } else {
                debug_assert!(
                    {
                        let rescan = downhill(&entry.dist, csr, mask, ui);
                        downhill_list(entry, csr, ui).iter().copied().eq(rescan)
                    },
                    "switch {ui}'s patched downhill list differs from a rescan of its row"
                );
            }
            if entry.dag_len[ui] == 0 {
                // Lost its last shortest path: its true label grew, and
                // labels downstream of it may be stale too.
                full = true;
                break;
            }
        }
    }

    let structure_changed = !scratch.marked.is_empty();
    entry.last_full = full;
    if full {
        rebuild_full(entry, scratch, csr, state, mask);
    } else if structure_changed {
        // Patch the canonical order: drop victims (removing elements keeps
        // it sorted) and merge the newly settled switches, each at the
        // place a binary search finds, the runs between them copied whole.
        if victims {
            entry.order.retain(|&u| entry.dist[u as usize] != UNREACHED);
        }
        if !scratch.settled.is_empty() {
            let dist = &entry.dist;
            let key = |u: u32| (dist[u as usize], u);
            scratch.settled.sort_unstable_by_key(|&u| key(u));
            scratch.order_buf.clear();
            let mut from = 0;
            for &x in &scratch.settled {
                let at = from + entry.order[from..].partition_point(|&u| key(u) < key(x));
                scratch.order_buf.extend_from_slice(&entry.order[from..at]);
                scratch.order_buf.push(x);
                from = at;
            }
            scratch.order_buf.extend_from_slice(&entry.order[from..]);
            std::mem::swap(&mut entry.order, &mut scratch.order_buf);
        }
    }

    entry.last_clean = !full && !structure_changed;
}

/// The row indices of reached switch `ui`'s downhill records under `dist`,
/// ascending: one scan of its adjacency row (empty for the destination,
/// which forwards nothing).
fn downhill<'a>(
    dist: &'a [u32],
    csr: &'a CsrGraph,
    mask: &'a UsableMask,
    ui: usize,
) -> impl Iterator<Item = u16> + 'a {
    let du = dist[ui];
    csr.neighbors(ui as u32)
        .iter()
        .enumerate()
        .filter(move |(_, e)| {
            du > 0
                && mask.usable_idx(e.circuit as usize)
                && dist[e.far as usize].saturating_add(e.hop) == du
        })
        .map(|(k, _)| k as u16)
}

/// Rewrites reached switch `ui`'s downhill list — its segment of the DAG
/// arena, as indices into its adjacency row — from a scan of its
/// neighbors.
fn rebuild_downhill(entry: &mut DestEntry, csr: &CsrGraph, mask: &UsableMask, ui: usize) {
    let row = &mut entry.dag[csr.offsets()[ui] as usize..];
    let mut len = 0;
    for k in downhill(&entry.dist, csr, mask, ui) {
        row[len] = k;
        len += 1;
    }
    entry.dag_len[ui] = len as u32;
}

/// Switch `ui`'s downhill list: the first `dag_len[ui]` entries of its
/// arena segment.
fn downhill_list<'a>(entry: &'a DestEntry, csr: &CsrGraph, ui: usize) -> &'a [u16] {
    &entry.dag[csr.offsets()[ui] as usize..][..entry.dag_len[ui] as usize]
}

/// Adds the record of directed slot `slot` (leaving `ui`) to switch `ui`'s
/// downhill list. The list ascends by row index, so a sorted insert leaves
/// it exactly as a rescan of the row would; a list is a subsequence of its
/// row, so the segment has room.
fn insert_downhill(entry: &mut DestEntry, csr: &CsrGraph, ui: usize, slot: u32) {
    let k = csr.position(slot) as u16;
    let len = entry.dag_len[ui] as usize;
    let segment = &mut entry.dag[csr.offsets()[ui] as usize..];
    if let Err(at) = segment[..len].binary_search(&k) {
        segment.copy_within(at..len, at + 1);
        segment[at] = k;
        entry.dag_len[ui] += 1;
    }
}

/// Drops the record of directed slot `slot` (leaving `ui`) from switch
/// `ui`'s downhill list, keeping the rest in order.
fn remove_downhill(entry: &mut DestEntry, csr: &CsrGraph, ui: usize, slot: u32) {
    let k = csr.position(slot) as u16;
    let len = entry.dag_len[ui] as usize;
    let list = &mut entry.dag[csr.offsets()[ui] as usize..][..len];
    if let Ok(at) = list.binary_search(&k) {
        list.copy_within(at + 1.., at);
        entry.dag_len[ui] -= 1;
    }
}

/// Adds `ui` to the marked set once per epoch.
#[inline]
fn mark(scratch: &mut LaneScratch, epoch: u32, ui: usize) {
    if scratch.mark_stamp[ui] != epoch {
        scratch.mark_stamp[ui] = epoch;
        scratch.marked.push(ui as u32);
    }
}

/// From-scratch rebuild for one destination: `EcmpRouter`'s labels and order
/// ([`dial_labels`]), plus the DAG the incremental paths patch.
fn rebuild_full(
    entry: &mut DestEntry,
    scratch: &mut LaneScratch,
    csr: &CsrGraph,
    state: &NetState,
    mask: &UsableMask,
) {
    let (dist, order) = (&mut entry.dist, &mut entry.order);
    dial_labels(csr, state, mask, entry.dst, dist, order, &mut scratch.dial);
    entry.dag_len.fill(0);
    for i in 0..entry.order.len() {
        rebuild_downhill(entry, csr, mask, entry.order[i] as usize);
    }
}

/// Injection + reverse sweep of one destination for demand matrix `m`
/// (column `m` of `entry.rates`), from the cached structures into `acc`, a
/// `LoadMap`'s directional slots; `inflow` holds one cell per switch. This
/// mirrors `EcmpRouter::route_group` addition for addition; the differences
/// cannot change a bit of the result:
///
/// - a list entry names its record by row-relative index; the record's
///   `(slot, far)` is read from `csr.links()`, in list order;
/// - under ECMP every split weight is 1.0: the weight total is the list
///   length (a sum of that many ones, exact), the share `flow * 1.0 / total`
///   is the same on every downhill circuit and `x * 1.0 == x`, so it is
///   divided once per switch;
/// - a switch's inflow is zeroed as it is consumed (flow only moves to
///   strictly smaller distances, later in the reverse order), which
///   replaces the oracle's touched-list reset.
#[allow(clippy::too_many_arguments)]
fn sweep_entry(
    entry: &DestEntry,
    csr: &CsrGraph,
    policy: SplitPolicy,
    inflow: &mut [f64],
    acc: &mut [f64],
    state: &NetState,
    matrices: usize,
    m: usize,
    outcome: &mut RouteOutcome,
) {
    for (i, &src) in entry.srcs.iter().enumerate() {
        if entry.dist[src.index()] == UNREACHED || !state.switch_up(src) {
            outcome.unreachable.push((src, entry.dst));
            continue;
        }
        let gbps = entry.rates[i * matrices + m];
        inflow[src.index()] += gbps;
        outcome.routed_gbps += gbps;
    }
    let offsets = csr.offsets();
    let links = csr.links();
    for &u in entry.order.iter().rev() {
        let u = u as usize;
        let flow = std::mem::replace(&mut inflow[u], 0.0);
        if flow == 0.0 {
            continue;
        }
        let e0 = offsets[u] as usize;
        let list = &entry.dag[e0..][..entry.dag_len[u] as usize];
        let row = &links[e0..];
        if list.is_empty() {
            debug_assert_eq!(
                entry.dist[u], 0,
                "a reachable non-destination switch must have a downhill circuit"
            );
            continue; // the destination absorbs its inflow
        }
        match policy {
            SplitPolicy::Ecmp => {
                let share = flow / list.len() as f64;
                for &k in list {
                    let (slot, far) = row[k as usize];
                    acc[slot as usize] += share;
                    inflow[far as usize] += share;
                }
            }
            SplitPolicy::Wcmp => {
                let mut total_weight = 0.0_f64;
                for &k in list {
                    total_weight += csr.wcmp_weight(row[k as usize].0 >> 1);
                }
                for &k in list {
                    let (slot, far) = row[k as usize];
                    let share = flow * csr.wcmp_weight(slot >> 1) / total_weight;
                    acc[slot as usize] += share;
                    inflow[far as usize] += share;
                }
            }
        }
    }
}

/// The circuits whose usability differs between `a` and `b`, ascending:
/// [`NetState::usability_diff_into`] into a fresh `Vec`.
pub fn usability_toggles(topo: &Topology, a: &NetState, b: &NetState) -> Vec<CircuitId> {
    let mut toggles = Vec::new();
    a.usability_diff_into(topo, b, &mut toggles);
    toggles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecmp::EcmpRouter;
    use klotski_topology::presets::{self, PresetId};
    use klotski_topology::region::{build_region, RegionHandles};
    use klotski_traffic::{generate, DemandGenConfig};

    /// `t` with its v2 grid drained, and the default demand matrix.
    fn world(t: Topology, handles: &RegionHandles) -> (Topology, NetState, DemandMatrix) {
        let mut state = NetState::all_up(&t);
        for s in handles.hgrid_v2_switches() {
            state.drain_switch(&t, s);
        }
        let demands = generate(&t, &DemandGenConfig::default());
        (t, state, demands)
    }

    fn preset_world() -> (Topology, NetState, DemandMatrix) {
        let p = presets::build(PresetId::A);
        world(p.topology, &p.handles)
    }

    /// A base-matrix-only engine over a freshly flattened `t`.
    fn engine_over(
        t: &Topology,
        demands: &DemandMatrix,
        lanes: usize,
        policy: SplitPolicy,
    ) -> IncrementalRouter {
        IncrementalRouter::with_csr_ensemble(
            Arc::new(CsrGraph::build(t)),
            demands,
            &[],
            lanes,
            policy,
        )
    }

    fn full_reference(
        topo: &Topology,
        state: &NetState,
        demands: &DemandMatrix,
        policy: SplitPolicy,
    ) -> (LoadMap, RouteOutcome) {
        let mut loads = LoadMap::new(topo);
        let out = EcmpRouter::with_policy(topo, policy).route(topo, state, demands, &mut loads);
        (loads, out)
    }

    fn assert_bit_identical(a: &LoadMap, b: &LoadMap, topo: &Topology, what: &str) {
        for i in 0..topo.num_circuits() {
            let c = CircuitId::from_index(i);
            assert_eq!(
                a.forward(c).to_bits(),
                b.forward(c).to_bits(),
                "{what}: forward {c}"
            );
            assert_eq!(
                a.reverse(c).to_bits(),
                b.reverse(c).to_bits(),
                "{what}: reverse {c}"
            );
        }
    }

    /// Deterministic xorshift for reproducible knockout sequences.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// `prev` after one to three random knockouts or restorations of
    /// switches and circuits.
    fn random_step(t: &Topology, prev: &NetState, seed: &mut u64) -> NetState {
        let mut next = prev.clone();
        for _ in 0..(1 + splitmix(seed) % 3) {
            if splitmix(seed).is_multiple_of(2) {
                let c = CircuitId::from_index((splitmix(seed) % t.num_circuits() as u64) as usize);
                let up = next.circuit_up(c);
                next.set_circuit(c, !up);
            } else {
                let s = SwitchId::from_index((splitmix(seed) % t.num_switches() as u64) as usize);
                if next.switch_up(s) {
                    next.drain_switch(t, s);
                } else {
                    next.undrain_switch(t, s);
                }
            }
        }
        next
    }

    /// `k` ensemble variants of `base`: same endpoints, rates scaled
    /// globally and per class (like the realized EWMA/surge variants).
    fn variants(base: &DemandMatrix, k: usize) -> Vec<DemandMatrix> {
        (0..k)
            .map(|i| {
                base.iter()
                    .cloned()
                    .map(|mut d| {
                        d.gbps *= 0.5 + 0.25 * i as f64;
                        if d.class == klotski_traffic::DemandClass::RswToRsw && i % 2 == 1 {
                            d.gbps *= 1.45;
                        }
                        d
                    })
                    .collect()
            })
            .collect()
    }

    /// One ensemble check's routing at `state`: the base matrix evaluated
    /// after advancing by `toggles`, then every extra swept by
    /// `replay_extra` over the same structure — each checked against
    /// `EcmpRouter` from scratch, bit for bit. `member` arrives holding
    /// whatever the last call swept: its loads are cleared as a checker
    /// clears them, its outcome must be overwritten by the sweep.
    #[allow(clippy::too_many_arguments)]
    fn assert_members_match_scratch(
        engine: &mut IncrementalRouter,
        pool: &WorkerPool,
        t: &Topology,
        state: &NetState,
        toggles: Option<&[CircuitId]>,
        member: &mut (LoadMap, RouteOutcome),
        matrices: &[&DemandMatrix],
        policy: SplitPolicy,
        what: &str,
    ) {
        let (loads, out) = member;
        for (m, matrix) in matrices.iter().enumerate() {
            let what = format!("{what} matrix {m}");
            loads.clear();
            match m.checked_sub(1) {
                None => engine.evaluate(pool, t, state, toggles, loads, out),
                Some(k) => engine.replay_extra(k, state, loads, out),
            }
            let (ref_loads, ref_out) = full_reference(t, state, matrix, policy);
            assert_eq!(*out, ref_out, "{what}");
            assert_eq!(
                out.routed_gbps.to_bits(),
                ref_out.routed_gbps.to_bits(),
                "{what}"
            );
            assert_bit_identical(loads, &ref_loads, t, &what);
        }
    }

    /// The base matrix followed by the extras: matrix index order.
    fn matrices_of<'a>(
        base: &'a DemandMatrix,
        extras: &'a [DemandMatrix],
    ) -> Vec<&'a DemandMatrix> {
        std::iter::once(base).chain(extras).collect()
    }

    #[test]
    fn primed_evaluation_matches_full() {
        let (t, state, demands) = preset_world();
        let pool = WorkerPool::new(2);
        let mut engine = engine_over(&t, &demands, pool.lanes(), SplitPolicy::Ecmp);
        let mut loads = LoadMap::new(&t);
        let mut out = RouteOutcome::new();
        engine.evaluate(&pool, &t, &state, None, &mut loads, &mut out);
        let (ref_loads, ref_out) = full_reference(&t, &state, &demands, SplitPolicy::Ecmp);
        assert_eq!(out, ref_out);
        assert_eq!(out.routed_gbps.to_bits(), ref_out.routed_gbps.to_bits());
        assert_bit_identical(&loads, &ref_loads, &t, "priming");
    }

    /// E's fabric at 3/5 of its Table 3 size: a world whose engine work
    /// passes [`IncrementalRouter::MIN_FAN_OUT_WORK`].
    fn fabric_world() -> (Topology, NetState, DemandMatrix) {
        let mut cfg = presets::config(PresetId::E);
        for fc in &mut cfg.dcs {
            fc.pods = fc.pods * 3 / 5;
            fc.rsws_per_pod = fc.rsws_per_pod * 3 / 5;
            fc.ssws_per_plane = fc.ssws_per_plane * 3 / 5;
        }
        let (t, handles) = build_region(&cfg);
        world(t, &handles)
    }

    /// One engine per lane count walks the same random toggles from
    /// `state`, each held bit for bit to the from-scratch reference at
    /// every step; an engine fans out (and so holds a scratch per lane)
    /// exactly when its lanes, the machine and its work allow. `above`:
    /// the world's work passes the fan-out constant.
    fn walk_in_lockstep(
        (t, state, demands): &(Topology, NetState, DemandMatrix),
        above: bool,
        policy: SplitPolicy,
        lanes: &[usize],
        mut seed: u64,
        steps: usize,
    ) {
        let mut engines: Vec<_> = lanes
            .iter()
            .map(|&n| (WorkerPool::new(n), engine_over(t, demands, n, policy)))
            .collect();
        let mut prev = state.clone();
        let mut loads = LoadMap::new(t);
        let mut out = RouteOutcome::new();
        for step in 0..=steps {
            let next = if step == 0 {
                prev.clone()
            } else {
                random_step(t, &prev, &mut seed)
            };
            let toggles = usability_toggles(t, &prev, &next);
            let (ref_loads, ref_out) = full_reference(t, &next, demands, policy);
            for (pool, engine) in &mut engines {
                let what = format!("step {step} ({} lanes, {policy:?})", pool.lanes());
                loads.clear();
                let delta = (step > 0).then_some(&toggles[..]);
                engine.evaluate(pool, t, &next, delta, &mut loads, &mut out);
                assert_eq!(out, ref_out, "{what}");
                assert_eq!(
                    out.routed_gbps.to_bits(),
                    ref_out.routed_gbps.to_bits(),
                    "{what}"
                );
                assert_bit_identical(&loads, &ref_loads, t, &what);
            }
            prev = next;
        }
        for (pool, engine) in &engines {
            let s = engine.stats();
            assert_eq!(s.evaluations, steps as u64 + 1);
            assert_eq!(
                s.clean_destinations + s.dirty_destinations,
                (steps as u64 + 1) * engine.num_destinations() as u64
            );
            let work = engine.work();
            assert_eq!(
                work >= IncrementalRouter::MIN_FAN_OUT_WORK,
                above,
                "work {work}"
            );
            let fans_out = above && pool.lanes() > 1 && klotski_parallel::default_lanes() > 1;
            let held = if fans_out { pool.lanes() } else { 1 };
            assert_eq!(engine.scratch.len(), held, "{} lanes", pool.lanes());
        }
    }

    #[test]
    fn random_toggle_walk_stays_bit_identical_to_full() {
        // Preset A's work is below the fan-out constant, so every lane
        // count advances inline there; the fabric's is above it, so lanes
        // 2 and 3 fan out on any machine with two cores.
        let small = preset_world();
        for (lanes, policy) in [
            (1, SplitPolicy::Ecmp),
            (3, SplitPolicy::Ecmp),
            (2, SplitPolicy::Wcmp),
        ] {
            walk_in_lockstep(&small, false, policy, &[lanes], 0x5eed ^ lanes as u64, 12);
        }
        // Rows of more than 128 edges, under both split policies.
        let fabric = fabric_world();
        let csr = CsrGraph::build(&fabric.0);
        let widest = (0..csr.num_switches())
            .map(|u| csr.neighbors(u as u32).len())
            .max()
            .unwrap();
        assert!(widest > 128, "the widest row has {widest} edges");
        walk_in_lockstep(&fabric, true, SplitPolicy::Ecmp, &[1, 2, 3], 0x5eed, 4);
        walk_in_lockstep(&fabric, true, SplitPolicy::Wcmp, &[1, 2], 0x5eed ^ 2, 4);
    }

    #[test]
    fn rebase_then_evaluate_matches_direct_evaluation() {
        let (t, state, demands) = preset_world();
        let pool = WorkerPool::new(2);
        let mut engine = engine_over(&t, &demands, pool.lanes(), SplitPolicy::Ecmp);
        let mut loads = LoadMap::new(&t);
        let mut out = RouteOutcome::new();
        engine.evaluate(&pool, &t, &state, None, &mut loads, &mut out);

        // Drain one switch, rebase (structure only), then evaluate a child
        // that drains another switch on top.
        let mut parent = state.clone();
        parent.drain_switch(&t, SwitchId::from_index(0));
        let toggles = usability_toggles(&t, &state, &parent);
        engine.rebase(&pool, &t, &parent, Some(&toggles));

        let mut child = parent.clone();
        child.drain_switch(&t, SwitchId::from_index(5));
        let toggles = usability_toggles(&t, &parent, &child);
        loads.clear();
        engine.evaluate(&pool, &t, &child, Some(&toggles), &mut loads, &mut out);
        let (ref_loads, ref_out) = full_reference(&t, &child, &demands, SplitPolicy::Ecmp);
        assert_eq!(out, ref_out);
        assert_bit_identical(&loads, &ref_loads, &t, "child after rebase");
    }

    #[test]
    fn overwritten_base_rates_sweep_like_an_engine_built_over_them() {
        let (t, start, demands) = preset_world();
        let pool = WorkerPool::new(2);
        for policy in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
            let extras = variants(&demands, 2);
            let mut engine = IncrementalRouter::with_csr_ensemble(
                Arc::new(CsrGraph::build(&t)),
                &demands,
                &extras,
                pool.lanes(),
                policy,
            );
            let mut loads = LoadMap::new(&t);
            let mut member = (LoadMap::new(&t), RouteOutcome::new());
            let mut out = RouteOutcome::new();
            let mut seed = 0x5eed_u64;
            let mut prev = start.clone();
            engine.evaluate(&pool, &t, &prev, None, &mut loads, &mut out);
            // The demand drifts at every step of a chain of nearby states:
            // only the rates are rewritten, the structure stays cached.
            for (i, drifted) in variants(&demands, 4).iter().enumerate() {
                let next = random_step(&t, &prev, &mut seed);
                let toggles = usability_toggles(&t, &prev, &next);
                assert!(engine.try_set_base_rates(drifted));
                loads.clear();
                engine.evaluate(&pool, &t, &next, Some(&toggles), &mut loads, &mut out);
                let (ref_loads, ref_out) = full_reference(&t, &next, drifted, policy);
                assert_eq!(out, ref_out, "{policy:?} step {i}");
                assert_bit_identical(&loads, &ref_loads, &t, "drifted base");
                // The extras' columns are untouched.
                assert_members_match_scratch(
                    &mut engine,
                    &pool,
                    &t,
                    &next,
                    Some(&[]),
                    &mut member,
                    &matrices_of(drifted, &extras),
                    policy,
                    "beside a drifted base",
                );
                prev = next;
            }
            assert!(engine.stats().clean_destinations > 0, "{policy:?}");
        }
    }

    #[test]
    fn base_rates_from_a_matrix_with_other_endpoints_are_refused() {
        let (t, state, demands) = preset_world();
        let mut engine = engine_over(&t, &demands, 1, SplitPolicy::Ecmp);
        let fewer: DemandMatrix = demands.scaled(2.0).iter().skip(1).cloned().collect();
        assert!(!engine.try_set_base_rates(&fewer));
        // No rate was written: the engine still sweeps the matrix it was
        // built over.
        let (mut loads, mut out) = (LoadMap::new(&t), RouteOutcome::new());
        engine.evaluate(&WorkerPool::new(1), &t, &state, None, &mut loads, &mut out);
        let (ref_loads, ref_out) = full_reference(&t, &state, &demands, SplitPolicy::Ecmp);
        assert_eq!(out, ref_out);
        assert_bit_identical(&loads, &ref_loads, &t, "after a refused matrix");
    }

    #[test]
    fn replayed_members_match_from_scratch_at_every_ensemble_size() {
        let (t, state, demands) = preset_world();
        for policy in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
            for k in [1usize, 2, 3, 5, 8, 9, 17] {
                let extras = variants(&demands, k - 1);
                let matrices = matrices_of(&demands, &extras);
                let pool = WorkerPool::new(1 + k % 3);
                let mut engine = IncrementalRouter::with_csr_ensemble(
                    Arc::new(CsrGraph::build(&t)),
                    &demands,
                    &extras,
                    pool.lanes(),
                    policy,
                );
                let mut member = (LoadMap::new(&t), RouteOutcome::new());
                let mut prev = state.clone();
                engine.rebase(&pool, &t, &prev, None);
                let mut seed = 0xab5eed ^ k as u64;
                for step in 0..8 {
                    let what = format!("{policy:?} K={k} step {step}");
                    // A planner's shape: structure-only rebase onto a
                    // parent, then the child one delta further.
                    let parent = random_step(&t, &prev, &mut seed);
                    let toggles = usability_toggles(&t, &prev, &parent);
                    engine.rebase(&pool, &t, &parent, Some(&toggles));
                    if step % 2 == 1 {
                        // A check of the rebased state itself: empty delta.
                        assert_members_match_scratch(
                            &mut engine,
                            &pool,
                            &t,
                            &parent,
                            Some(&[]),
                            &mut member,
                            &matrices,
                            policy,
                            &format!("{what} (rebased)"),
                        );
                    }
                    let next = random_step(&t, &parent, &mut seed);
                    let toggles = usability_toggles(&t, &parent, &next);
                    assert_members_match_scratch(
                        &mut engine,
                        &pool,
                        &t,
                        &next,
                        Some(&toggles),
                        &mut member,
                        &matrices,
                        policy,
                        &what,
                    );
                    prev = next;
                }
                // Per check: one evaluation and K − 1 replays.
                let checks = 8 + 4;
                let s = engine.stats();
                assert_eq!(s.evaluations, checks);
                assert_eq!(s.extra_replays, checks * (k as u64 - 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "the engine indexes at most 65536 per switch")]
    fn a_switch_wider_than_a_row_index_is_refused() {
        use klotski_topology::graph::{SwitchSpec, TopologyBuilder};
        use klotski_topology::{DcId, Generation, SwitchRole};
        // Two switches joined by one circuit more than a 16-bit row index
        // can name.
        let mut b = TopologyBuilder::new("wide");
        let spec = SwitchSpec::new(SwitchRole::Eb, Generation::V1, DcId(0), 64);
        let (x, y) = (b.add_switch(spec.clone()), b.add_switch(spec));
        for _ in 0..=IncrementalRouter::MAX_ROW {
            b.add_circuit(x, y, 100.0).unwrap();
        }
        let t = b.build();
        engine_over(&t, &DemandMatrix::default(), 1, SplitPolicy::Ecmp);
    }

    #[test]
    #[should_panic(expected = "matrix outside the engine's ensemble")]
    fn a_matrix_outside_the_ensemble_is_refused() {
        let (t, state, demands) = preset_world();
        let pool = WorkerPool::new(1);
        let mut engine = engine_over(&t, &demands, 1, SplitPolicy::Ecmp);
        let mut loads = LoadMap::new(&t);
        let mut out = RouteOutcome::new();
        engine.evaluate(&pool, &t, &state, None, &mut loads, &mut out);
        engine.replay_extra(0, &state, &mut loads, &mut out);
    }

    /// One destination's cached structure: labels, canonical order, and
    /// every switch's downhill list of `(slot, far)`, read back through its
    /// row-relative indices.
    type Structure = (Vec<u32>, Vec<u32>, Vec<Vec<(u32, u32)>>);

    /// Every destination's [`Structure`], after checking that each list
    /// fits its switch's row with its indices strictly ascending, and that
    /// the lists of unreached switches and of the destination are empty.
    fn structures(engine: &IncrementalRouter) -> Vec<Structure> {
        let csr = &engine.csr;
        engine
            .entries
            .iter()
            .map(|e| {
                let lists = (0..csr.num_switches())
                    .map(|u| {
                        let row = csr.neighbors(u as u32);
                        let list = downhill_list(e, csr, u);
                        assert!(
                            list.len() <= row.len(),
                            "switch {u}'s list overflows its row"
                        );
                        if e.dist[u] == UNREACHED || e.dist[u] == 0 {
                            assert!(list.is_empty(), "switch {u}'s list");
                        }
                        assert!(list.windows(2).all(|w| w[0] < w[1]), "switch {u}");
                        list.iter()
                            .map(|&k| (row[k as usize].slot, row[k as usize].far))
                            .collect()
                    })
                    .collect();
                (e.dist.clone(), e.order.clone(), lists)
            })
            .collect()
    }

    /// Rebases `engine` onto `next` by its toggles from `prev` and holds
    /// every destination's structure to an engine primed on `next`.
    #[allow(clippy::too_many_arguments)]
    fn rebase_like_fresh(
        engine: &mut IncrementalRouter,
        pool: &WorkerPool,
        t: &Topology,
        demands: &DemandMatrix,
        policy: SplitPolicy,
        prev: &NetState,
        next: &NetState,
        what: &str,
    ) {
        let toggles = usability_toggles(t, prev, next);
        engine.rebase(pool, t, next, Some(&toggles));
        let mut fresh = engine_over(t, demands, pool.lanes(), policy);
        fresh.rebase(pool, t, next, None);
        assert_eq!(structures(engine), structures(&fresh), "{what}");
    }

    /// `s` — `m` — `d` over parallel circuits (three s–m, the third added
    /// from `m`'s side, and two m–d), and `y` beside them with one y–d and
    /// two y–s circuits; demands from `s`, `m` and `y` to `d`.
    fn parallel_world() -> (Topology, DemandMatrix, [SwitchId; 4]) {
        use klotski_topology::graph::{SwitchSpec, TopologyBuilder};
        use klotski_topology::{DcId, Generation, SwitchRole};
        let mut b = TopologyBuilder::new("parallel");
        let spec = SwitchSpec::new(SwitchRole::Eb, Generation::V1, DcId(0), 64);
        let [s, m, d, y] = [(); 4].map(|_| b.add_switch(spec.clone()));
        for (x, z, count) in [(s, m, 2), (m, s, 1), (m, d, 2), (y, d, 1), (y, s, 2)] {
            for _ in 0..count {
                b.add_circuit(x, z, 100.0).unwrap();
            }
        }
        let demands = [s, m, y]
            .into_iter()
            .map(|src| klotski_traffic::Demand {
                src,
                dst: d,
                gbps: 10.0,
                class: DemandClass::RswToRsw,
            })
            .collect();
        (b.build(), demands, [s, m, d, y])
    }

    #[test]
    fn patched_arena_equals_a_freshly_primed_one() {
        let (t, state, demands) = preset_world();
        let pool = WorkerPool::new(2);
        for policy in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
            let mut engine = engine_over(&t, &demands, pool.lanes(), policy);
            engine.rebase(&pool, &t, &state, None);
            let mut prev = state.clone();
            let mut seed = 0xa2e9a;
            let (mut shrunk, mut regrown) = (0, 0);
            for step in 0..40 {
                let next = random_step(&t, &prev, &mut seed);
                let reached: Vec<usize> = engine.entries.iter().map(|e| e.order.len()).collect();
                let what = format!("{policy:?} step {step}");
                rebase_like_fresh(
                    &mut engine,
                    &pool,
                    &t,
                    &demands,
                    policy,
                    &prev,
                    &next,
                    &what,
                );
                for (e, &before) in engine.entries.iter().zip(&reached) {
                    if !e.last_full {
                        shrunk += usize::from(e.order.len() < before);
                        regrown += usize::from(e.order.len() > before);
                    }
                }
                prev = next;
            }
            // The walk patched in every way: victims dropped, regions
            // regrown, and full fallbacks beyond the priming ones.
            let s = engine.stats();
            assert!(
                shrunk > 0 && regrown > 0,
                "{shrunk} shrunk, {regrown} regrown"
            );
            assert!(s.full_rebuilds > engine.num_destinations() as u64);
            assert!(s.dirty_destinations > s.full_rebuilds);

            // One switch loses a DAG edge and gains another in one advance:
            // its first downhill circuit comes back up as its second goes
            // down.
            let mut engine = engine_over(&t, &demands, pool.lanes(), policy);
            engine.rebase(&pool, &t, &state, None);
            let e = &engine.entries[0];
            let u = (0..t.num_switches())
                .find(|&u| e.dag_len[u] >= 2)
                .expect("a switch with two downhill circuits");
            let row = engine.csr.neighbors(u as u32);
            let list = downhill_list(e, &engine.csr, u);
            let [first, second] =
                [0, 1].map(|i| CircuitId::from_index(row[list[i] as usize].circuit as usize));
            let mut narrowed = state.clone();
            narrowed.set_circuit(first, false);
            let mut swapped = state.clone();
            swapped.set_circuit(second, false);
            let what = format!("{policy:?} switch {u} narrowed");
            rebase_like_fresh(
                &mut engine,
                &pool,
                &t,
                &demands,
                policy,
                &state,
                &narrowed,
                &what,
            );
            let what = format!("{policy:?} switch {u} swapped");
            rebase_like_fresh(
                &mut engine,
                &pool,
                &t,
                &demands,
                policy,
                &narrowed,
                &swapped,
                &what,
            );
            let e = &engine.entries[0];
            assert!(!e.last_full && !e.last_clean, "{what}");

            // Parallel circuits between one pair: each has its own record,
            // found by circuit id, not by far switch.
            let (pt, pdemands, [s, m, _, y]) = parallel_world();
            let circuits = |x: SwitchId| -> Vec<CircuitId> {
                pt.neighbors(x).iter().map(|&(c, _)| c).collect()
            };
            let (sm, md, yd) = (circuits(s), circuits(m), circuits(y));
            let (sm, md, yd, ys) = (&sm[..3], &md[3..], yd[0], &yd[1..]);
            let mut base = NetState::all_up(&pt);
            for &c in std::iter::once(&yd).chain(ys) {
                base.set_circuit(c, false);
            }
            let mut engine = engine_over(&pt, &pdemands, pool.lanes(), policy);
            engine.rebase(&pool, &pt, &base, None);
            // (what, circuits switched and their new state, falls back to a
            // full rebuild)
            let steps = [
                ("s loses one of three", vec![(sm[2], false)], false),
                (
                    "s swaps one for another",
                    vec![(sm[2], true), (sm[0], false)],
                    false,
                ),
                ("s gains one back", vec![(sm[0], true)], false),
                ("m loses one of two", vec![(md[0], false)], false),
                (
                    "s gains two through y",
                    vec![(yd, true), (ys[0], true), (ys[1], true)],
                    false,
                ),
                ("y loses its only one", vec![(yd, false)], true),
            ];
            let mut prev = base;
            for (what, switched, full) in steps {
                let mut next = prev.clone();
                for (c, up) in switched {
                    next.set_circuit(c, up);
                }
                let what = format!("{policy:?} parallel: {what}");
                rebase_like_fresh(
                    &mut engine,
                    &pool,
                    &pt,
                    &pdemands,
                    policy,
                    &prev,
                    &next,
                    &what,
                );
                assert_eq!(engine.entries[0].last_full, full, "{what}");
                prev = next;
            }
        }
    }

    #[test]
    fn zero_rate_matrices_and_lost_sources_sweep_like_from_scratch() {
        let (t, state, demands) = preset_world();
        // Matrix 1 is silent, matrix 2 silences every other demand, matrix
        // 3 is plain: switches carry 0.0 flow under some matrices and not
        // under others.
        let holes: DemandMatrix = demands
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, mut d)| {
                if i % 2 == 0 {
                    d.gbps = 0.0;
                }
                d
            })
            .collect();
        let extras = vec![demands.scaled(0.0), holes, demands.scaled(1.25)];
        // One source is drained, another is up but cut off from the fabric.
        let mut srcs = demands.iter().map(|d| d.src);
        let down = srcs.next().unwrap();
        let cut = srcs.find(|&s| s != down).unwrap();
        let mut next = state.clone();
        next.drain_switch(&t, down);
        for &(c, _) in t.neighbors(cut) {
            next.set_circuit(c, false);
        }
        for policy in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
            let pool = WorkerPool::new(2);
            let mut engine = IncrementalRouter::with_csr_ensemble(
                Arc::new(CsrGraph::build(&t)),
                &demands,
                &extras,
                pool.lanes(),
                policy,
            );
            let mut loads = LoadMap::new(&t);
            let mut out = RouteOutcome::new();
            engine.evaluate(&pool, &t, &state, None, &mut loads, &mut out);
            let toggles = usability_toggles(&t, &state, &next);
            assert_members_match_scratch(
                &mut engine,
                &pool,
                &t,
                &next,
                Some(&toggles),
                &mut (LoadMap::new(&t), RouteOutcome::new()),
                &matrices_of(&demands, &extras),
                policy,
                &format!("{policy:?}"),
            );
            loads.clear();
            engine.evaluate(&pool, &t, &next, Some(&[]), &mut loads, &mut out);
            for lost in [down, cut] {
                assert!(out.unreachable.iter().any(|&(s, _)| s == lost), "{lost}");
            }
        }
    }

    #[test]
    fn untouched_destinations_count_as_clean() {
        let (t, state, demands) = preset_world();
        // Two adjacent up switches, neither a destination, with every other
        // circuit on them down: up, yet reached by no destination, so the
        // circuit between them touches no destination's routing.
        let dsts = demands.by_destination();
        let pair = t
            .circuits()
            .iter()
            .find(|c| {
                state.circuit_usable(&t, c.id) && [c.a, c.b].iter().all(|s| !dsts.contains_key(s))
            })
            .expect("a circuit between two non-destination switches");
        let mut island = state.clone();
        for s in [pair.a, pair.b] {
            for &(c, _) in t.neighbors(s) {
                island.set_circuit(c, c == pair.id);
            }
        }
        let mut cut = island.clone();
        cut.set_circuit(pair.id, false);
        let pool = WorkerPool::new(1);
        for (what, base, next) in [
            ("empty delta", &state, &state),
            ("unreached pair joined", &cut, &island),
            ("unreached pair split", &island, &cut),
        ] {
            let mut engine = engine_over(&t, &demands, pool.lanes(), SplitPolicy::Ecmp);
            let mut loads = LoadMap::new(&t);
            let mut out = RouteOutcome::new();
            engine.evaluate(&pool, &t, base, None, &mut loads, &mut out);
            let before = engine.stats();
            let toggles = usability_toggles(&t, base, next);
            assert_eq!(toggles.len(), usize::from(base != next), "{what}");
            loads.clear();
            engine.evaluate(&pool, &t, next, Some(&toggles), &mut loads, &mut out);
            let after = engine.stats();
            assert_eq!(
                after.clean_destinations - before.clean_destinations,
                engine.num_destinations() as u64,
                "{what}"
            );
            assert_eq!(after.dirty_destinations, before.dirty_destinations);
            let (ref_loads, ref_out) = full_reference(&t, next, &demands, SplitPolicy::Ecmp);
            assert_eq!(out, ref_out, "{what}");
            assert_bit_identical(&loads, &ref_loads, &t, what);
            assert!(engine.approx_bytes() > 0);
        }
    }
}
