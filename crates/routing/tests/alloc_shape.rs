//! Allocation shape of the incremental engine, counted rather than timed.
//!
//! The load-sweep data path is fast because of where its bytes live: each
//! destination's DAG is one block shaped like the CSR adjacency holding a
//! 2-byte row index per downhill edge (not one list per switch, and not an
//! 8-byte record per edge), `LoadMap` is a plain dense array, and every
//! sweep — the base matrix's and each ensemble member's — fills a
//! caller-owned one. A counting `#[global_allocator]` pins exactly that, on
//! any machine, without a timer: how many blocks the engine allocates, how
//! many bytes per destination, and that a walk allocates nothing.

use klotski_parallel::WorkerPool;
use klotski_routing::{
    evaluate::summarize, usability_toggles, IncrementalRouter, LoadMap, RouteOutcome, SplitPolicy,
};
use klotski_topology::presets::{self, PresetId};
use klotski_topology::{CircuitId, CsrGraph, NetState};
use klotski_traffic::{generate, DemandGenConfig, DemandMatrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// `(blocks allocated, bytes allocated, blocks freed)` on this thread while
/// counting is on. Thread-local so the test harness's own threads cannot
/// leak into a measurement; `const`-initialised `Cell`s, so touching them
/// from inside the allocator never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    bytes: u64,
    frees: u64,
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, bytes: 0, frees: 0 })
    };
}

struct CountingAlloc;

impl CountingAlloc {
    fn record(update: impl FnOnce(&mut Counts)) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = COUNTS.try_with(|c| {
                    let mut counts = c.get();
                    update(&mut counts);
                    c.set(counts);
                });
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-local `Cell`s and neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(|c| {
            c.allocs += 1;
            c.bytes += layout.size() as u64;
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::record(|c| c.frees += 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(|c| {
            c.allocs += 1;
            c.bytes += layout.size() as u64;
        });
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(|c| {
            c.allocs += 1;
            c.bytes += new_size as u64;
            c.frees += 1;
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|c| c.set(Counts::default()));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, COUNTS.with(|c| c.get()))
}

/// Same endpoints as `base`, rates scaled: an ensemble variant.
fn variant(base: &DemandMatrix, factor: f64) -> DemandMatrix {
    base.iter()
        .cloned()
        .map(|mut d| {
            d.gbps *= factor;
            d
        })
        .collect()
}

/// One test, so the three measurements never overlap.
#[test]
fn engine_allocates_per_destination_and_walks_without_allocating() {
    let p = presets::build(PresetId::B);
    let t = &p.topology;
    let demands = generate(t, &DemandGenConfig::default());
    let extras: Vec<DemandMatrix> = [0.5, 0.75, 1.25].map(|f| variant(&demands, f)).into();
    let csr = Arc::new(CsrGraph::build(t));
    let pool = WorkerPool::new(1);

    // A block walk, the second half of an HGRID migration: the new
    // generation is in, the old one drains two switches at a time. Forward
    // steps turn switches into victims and narrow their neighbours' downhill
    // lists; rebasing back onto the parent regrows them.
    let mut states = vec![NetState::all_up(t)];
    for block in p.handles.hgrid_v1_switches().chunks(2) {
        let mut next = states.last().unwrap().clone();
        for &s in block {
            next.drain_switch(t, s);
        }
        states.push(next);
    }
    assert!(states.len() >= 6, "the walk needs blocks to step over");
    let forward: Vec<Vec<CircuitId>> = states
        .windows(2)
        .map(|w| usability_toggles(t, &w[0], &w[1]))
        .collect();
    assert!(forward.iter().all(|toggles| !toggles.is_empty()));

    let mut loads = LoadMap::new(t);
    let mut out = RouteOutcome::new();
    let mut member = LoadMap::new(t);
    let mut member_out = RouteOutcome::new();

    // (1) Construction + priming: a handful of blocks per destination — its
    // demand columns, labels, order, downhill lists and their lengths —
    // never one per (destination, switch), and fewer bytes per destination
    // than one 8-byte record per directed edge would take.
    let (mut engine, built) = counted(|| {
        let mut engine = IncrementalRouter::with_csr_ensemble(
            csr.clone(),
            &demands,
            &extras,
            pool.lanes(),
            SplitPolicy::Ecmp,
        );
        engine.evaluate(&pool, t, &states[0], None, &mut loads, &mut out);
        engine
    });
    let dests = engine.num_destinations() as u64;
    let switches = t.num_switches() as u64;
    let per_dest_budget = 48 * dests + 256;
    assert!(
        per_dest_budget < dests * switches / 2,
        "preset A is too small for the bound to tell the two shapes apart"
    );
    assert!(
        built.allocs <= per_dest_budget,
        "construction + priming allocated {} blocks for {dests} destinations \
         × {switches} switches",
        built.allocs
    );
    let edges = csr.offsets()[t.num_switches()] as u64;
    let per_dest_bytes = 8 * edges;
    assert!(
        built.bytes < per_dest_bytes * dests,
        "construction + priming allocated {} bytes for {dests} destinations, \
         not under {per_dest_bytes} each",
        built.bytes
    );
    assert!(
        engine.approx_bytes() < per_dest_bytes * dests,
        "the engine estimates {} bytes for {dests} destinations, not under \
         {per_dest_bytes} each",
        engine.approx_bytes()
    );

    // (2) Warm-up: one step of the walk there and back sizes the lane
    // scratch. After it, walking allocates nothing: patches rewrite list
    // segments in place, a full fallback relabels into the buffers it already
    // holds, the sweeps fill caller-owned buffers, `clear` is a fill.
    let mut step = |engine: &mut IncrementalRouter, i: usize| {
        // Checker shape: the child's base matrix is evaluated and
        // summarized, then every member is swept into its own buffer and
        // summarized; the engine is rebased onto the parent and the child
        // evaluated again.
        let child = &states[i + 1];
        loads.clear();
        engine.evaluate(&pool, t, child, Some(&forward[i]), &mut loads, &mut out);
        let mut worst = summarize(t, child, &loads, 0.75).max_utilization;
        for k in 0..extras.len() {
            member.clear();
            engine.replay_extra(k, child, &mut member, &mut member_out);
            worst = worst.max(summarize(t, child, &member, 0.75).max_utilization);
        }
        assert!(worst > 0.0);
        engine.rebase(&pool, t, &states[i], Some(&forward[i]));
        loads.clear();
        engine.evaluate(&pool, t, child, Some(&forward[i]), &mut loads, &mut out);
    };
    step(&mut engine, 0);
    let before = engine.stats();
    let ((), walked) = counted(|| {
        for i in 1..forward.len() {
            step(&mut engine, i);
        }
    });
    let after = engine.stats();
    let full = after.full_rebuilds - before.full_rebuilds;
    let dirty = after.dirty_destinations - before.dirty_destinations;
    assert!(
        full > 0 && dirty > full,
        "the walk must both patch structures and fall back ({dirty} dirty, {full} full)"
    );
    assert!(out.routed_gbps > 0.0);
    assert_eq!(
        walked,
        Counts::default(),
        "evaluate / replay_extra / summarize / rebase along the walk must not touch the allocator"
    );

    // (3) Drop: what was allocated per destination is freed per destination.
    let ((), dropped) = counted(|| drop(engine));
    assert_eq!(dropped.allocs, 0);
    assert!(
        dropped.frees <= per_dest_budget,
        "dropping the engine freed {} blocks for {dests} destinations",
        dropped.frees
    );
    assert!(dropped.frees >= dests, "every destination owns its lists");
}
