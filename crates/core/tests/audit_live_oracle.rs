//! Differential oracle for [`LiveEngine`]: along a *walk* of observed states
//! on one long-lived engine, every [`LiveAudit`] field must equal what the
//! routing crate's one-shot `evaluate_policy` and
//! `Topology::has_port_violation` report for the same state and demands, bit
//! for bit, and the Eq. 6 degrees the engine keeps toggle by toggle must be
//! the audited state's, recounted switch by switch.
//!
//! The walk is what a run shows the engine, and worse: circuits fail and
//! heal, a switch is drained and restored behind the planner's back, the
//! destination switch of a demand goes down and comes back, canonical block
//! steps land in between, the plan jumps more than 64 blocks at once
//! (preset C; preset A has 27), and the demand is rescaled at every step
//! (0.5× / 1.0× / 1.8×, with a per-demand jitter on odd steps). Between
//! audits the lookahead borrows the engine for sweeps of far-away canonical
//! states under the planning matrix. The walk then steps in and out of
//! states where Eq. 6 binds — every new-generation block up beside every old
//! one, a failed circuit and a drained switch on top — and audits one of
//! them under several matrices in a row, the zero-toggle case. Each state
//! is routed as a delta against whatever the engine routed last, so a stale
//! base state, stale rates, a missed toggle, a structure patched wrongly or
//! a port degree moved wrongly shows up as a mismatch against the
//! from-scratch route and recount.
//!
//! `evaluate_policy` routes on `EcmpRouter`, which production no longer
//! runs inside a controller run: it is the reference here.

mod common;

use common::{jittered, Rng};
use klotski_core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski_core::satcheck::LiveAudit;
use klotski_core::{CompactState, LiveEngine};
use klotski_parallel::WorkerPool;
use klotski_routing::{evaluate_policy, SplitPolicy};
use klotski_topology::presets::{self, PresetId};
use klotski_topology::{CircuitId, NetState, SwitchId};
use klotski_traffic::DemandMatrix;
use std::sync::Arc;

/// Every field of `audit` against the from-scratch oracle.
fn assert_audit_is_the_oracles(
    spec: &MigrationSpec,
    state: &NetState,
    demands: &DemandMatrix,
    audit: &LiveAudit,
    ctx: &str,
) {
    let topo = &spec.topology;
    let oracle = evaluate_policy(topo, state, demands, spec.theta, spec.split);
    let ports = spec.check_ports && topo.has_port_violation(state);
    assert_eq!(audit.all_reachable, oracle.all_reachable, "{ctx}");
    assert_eq!(
        audit.unreachable_demands, oracle.unreachable_demands,
        "{ctx}"
    );
    assert_eq!(
        audit.max_utilization.to_bits(),
        oracle.report.max_utilization.to_bits(),
        "{ctx}"
    );
    assert_eq!(audit.worst_circuit, oracle.report.worst_circuit, "{ctx}");
    assert_eq!(audit.theta_violations, oracle.report.violations, "{ctx}");
    assert_eq!(
        audit.min_residual_gbps.to_bits(),
        oracle.report.min_residual_gbps.to_bits(),
        "{ctx}"
    );
    assert_eq!(audit.port_violation, ports, "{ctx}");
    assert_eq!(audit.safe, oracle.satisfied() && !ports, "{ctx}");
    assert_eq!(audit.violation().is_none(), audit.safe, "{ctx}");
}

/// The engine's base is `state`, and the Eq. 6 degrees and verdict it keeps
/// for it are `state`'s, recounted switch by switch.
fn assert_kept_degrees(spec: &MigrationSpec, engine: &LiveEngine, state: &NetState, ctx: &str) {
    let topo = &spec.topology;
    let (base, degree, over) = engine.port_budgets().expect("a route leaves a base");
    assert!(base == state, "{ctx}: the state routed last is the base");
    for s in topo.switches() {
        assert_eq!(
            degree[s.id.index()] as usize,
            state.active_degree(topo, s.id),
            "{ctx}: {}",
            s.id
        );
    }
    assert_eq!(over, topo.has_port_violation(state), "{ctx}");
}

/// What the fleet does to the planned state behind the planner's back.
#[derive(Default)]
struct Disturbances {
    failed: Vec<CircuitId>,
    drained: Option<SwitchId>,
    /// A demand's destination switch, powered off with its circuits left as
    /// they were: every incident circuit turns unusable at once.
    dst_down: Option<SwitchId>,
}

impl Disturbances {
    fn observed(&self, spec: &MigrationSpec, planned: &NetState) -> NetState {
        let mut s = planned.clone();
        for &c in &self.failed {
            s.set_circuit(c, false);
        }
        if let Some(sw) = self.drained {
            s.drain_switch(&spec.topology, sw);
        }
        if let Some(sw) = self.dst_down {
            s.set_switch(sw, false);
        }
        s
    }
}

const STEPS: usize = 66;

/// `jump`: the least number of blocks the plan must move at once when it
/// falls back from the target to the origin.
fn walk_matches_oracle_on(id: PresetId, block_scale: f64, jump: usize, split: SplitPolicy) {
    let opts = MigrationOptions {
        block_scale,
        ..MigrationOptions::default()
    };
    let mut spec = MigrationBuilder::for_preset(&presets::build(id), &opts).unwrap();
    spec.split = split;
    let spec = spec;
    let topo = &spec.topology;

    let mut engine = LiveEngine::new(&spec, Arc::new(WorkerPool::new(1)));
    let mut x = Rng(0x11fe_a0d1 ^ id as u64 ^ ((split == SplitPolicy::Wcmp) as u64) << 8);
    let mut v = CompactState::origin(spec.num_types());
    let mut planned = spec.initial.clone();
    let mut world = Disturbances::default();
    let (mut safe, mut unsafe_, mut sweeps) = (0u64, 0u64, 0u64);
    for step in 0..STEPS {
        // The plan moves: one canonical block on odd steps, and twice the
        // whole box at once — to the target, then back to the origin.
        if step == 30 {
            v = spec.target_counts.clone();
            planned = spec.target_state();
        } else if step == 45 {
            assert!(v.total() > jump, "a jump of {} blocks", v.total());
            v = CompactState::origin(spec.num_types());
            planned = spec.initial.clone();
        } else if step % 2 == 1 {
            let open: Vec<_> = spec
                .actions
                .ids()
                .filter(|&a| v.count(a) < spec.target_counts.count(a))
                .collect();
            if !open.is_empty() {
                let a = open[x.below(open.len())];
                spec.apply_next(&mut planned, &v, a);
                v = v.advanced(a);
            }
        }
        // The world moves.
        if step % 6 == 0 {
            for _ in 0..2 {
                world
                    .failed
                    .push(CircuitId::from_index(x.below(topo.num_circuits())));
            }
        } else if step % 6 == 3 && !world.failed.is_empty() {
            world.failed.remove(0);
        }
        match step {
            10 | 40 => world.drained = Some(SwitchId::from_index(x.below(topo.num_switches()))),
            20 | 48 => world.drained = None,
            14 | 50 => {
                let d = spec.demands.iter().nth(x.below(spec.demands.len()));
                world.dst_down = Some(d.expect("index below len").dst);
            }
            26 | 58 => world.dst_down = None,
            _ => {}
        }
        let observed = world.observed(&spec, &planned);
        let spread = if step % 2 == 1 { 0.25 } else { 0.0 };
        let demands = jittered(&spec.demands, [0.5, 1.0, 1.8][step % 3], spread, &mut x);

        let audit = engine.audit_live(&spec, &observed, &demands);
        let ctx = format!("{id} {split:?} step {step} at {:?}", v.counts());
        assert_audit_is_the_oracles(&spec, &observed, &demands, &audit, &ctx);
        assert_kept_degrees(&spec, &engine, &observed, &ctx);
        if audit.safe {
            safe += 1;
        } else {
            unsafe_ += 1;
        }

        // The lookahead borrows the engine: a sweep of a canonical state
        // somewhere else in the box, under a matrix of other rates.
        if step % 5 == 2 {
            let counts = spec
                .target_counts
                .counts()
                .iter()
                .map(|&c| x.below(c as usize + 1) as u16)
                .collect();
            let far = spec.state_for(&CompactState::from_counts(counts));
            engine.load(&spec, &spec.demands);
            let swept = engine.route(&spec, &far);
            let oracle = evaluate_policy(topo, &far, &spec.demands, spec.theta, spec.split);
            assert_eq!(swept.all_reachable, oracle.all_reachable, "{ctx} sweep");
            assert_eq!(
                swept.unreachable_demands, oracle.unreachable_demands,
                "{ctx} sweep"
            );
            assert_eq!(
                swept.report.max_utilization.to_bits(),
                oracle.report.max_utilization.to_bits(),
                "{ctx} sweep"
            );
            assert_eq!(swept.report, oracle.report, "{ctx} sweep");
            assert_kept_degrees(&spec, &engine, &far, &format!("{ctx} sweep"));
            sweeps += 1;
        }
    }
    let stats = engine.stats();
    assert!(sweeps >= 12);
    assert_eq!(stats.live_audits, STEPS as u64, "audits only, not sweeps");
    let dests = spec.demands.num_destinations() as u64;
    assert_eq!(
        stats.incremental_clean + stats.incremental_dirty,
        (STEPS as u64 + sweeps) * dests,
        "every audit and every sweep is one advance of the one engine"
    );
    assert!(
        stats.incremental_clean > 0,
        "structure is reused: {stats:?}"
    );
    assert!(
        safe > 0 && unsafe_ > 0,
        "walk on {id} must cross the safety boundary (safe={safe} unsafe={unsafe_})"
    );

    // Where Eq. 6 binds: every new-generation block cabled in beside every
    // old one — a state the space model keeps any plan out of, which a live
    // audit does not consult — then a failed circuit and a drained switch
    // on top, stepped into and out of.
    let crowded = spec.state_for(&CompactState::from_counts(
        spec.actions
            .ids()
            .map(|a| {
                if spec.kind_is_drain(a) {
                    0
                } else {
                    spec.target_counts.count(a)
                }
            })
            .collect(),
    ));
    let mut disturbed = crowded.clone();
    disturbed.set_circuit(CircuitId::from_index(x.below(topo.num_circuits())), false);
    disturbed.drain_switch(topo, SwitchId::from_index(x.below(topo.num_switches())));
    let mut over = 0;
    let visits = [&crowded, &disturbed, &spec.initial, &disturbed, &crowded];
    for (i, observed) in visits.into_iter().enumerate() {
        let ctx = format!("{id} {split:?} ports {i}");
        let audit = engine.audit_live(&spec, observed, &spec.demands);
        assert_audit_is_the_oracles(&spec, observed, &spec.demands, &audit, &ctx);
        assert_kept_degrees(&spec, &engine, observed, &ctx);
        over += usize::from(audit.port_violation);
    }
    assert!(
        over >= 2,
        "{id}: Eq. 6 must bind where it is crowded ({over})"
    );
    // Ensemble-style: one unchanged state under several matrices — rates
    // rewritten, zero toggles, the kept degrees untouched.
    for (k, factor) in [0.5, 1.0, 1.8, 1.2].into_iter().enumerate() {
        let ctx = format!("{id} {split:?} matrix {k}");
        let demands = jittered(&spec.demands, factor, 0.25 * (k % 2) as f64, &mut x);
        let audit = engine.audit_live(&spec, &disturbed, &demands);
        assert_audit_is_the_oracles(&spec, &disturbed, &demands, &audit, &ctx);
        assert_kept_degrees(&spec, &engine, &disturbed, &ctx);
    }
}

#[test]
fn live_walk_matches_evaluate_policy_on_preset_a() {
    for split in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
        // Preset A's finest blocks: 27 of them.
        walk_matches_oracle_on(PresetId::A, 8.0, 24, split);
    }
}

#[test]
fn live_walk_matches_evaluate_policy_on_preset_c() {
    for split in [SplitPolicy::Ecmp, SplitPolicy::Wcmp] {
        walk_matches_oracle_on(PresetId::C, 4.0, 64, split);
    }
}

/// `audit_live` takes an *arbitrary* matrix. One whose `(src, dst, class)`
/// sequence is not the engine's — reordered, truncated — cannot reuse the
/// engine's rate table; it gets an engine of its own, never a panic, and the
/// ordinary audits around it read as if nothing happened.
#[test]
fn a_matrix_with_other_endpoints_rebuilds_the_engine() {
    let spec =
        MigrationBuilder::for_preset(&presets::build(PresetId::A), &MigrationOptions::default())
            .unwrap();
    let topo = &spec.topology;
    let mut x = Rng(0x51ab);
    let mut state = spec.initial.clone();
    let mut engine = LiveEngine::new(&spec, Arc::new(WorkerPool::new(1)));

    let mut demands: Vec<_> = spec.demands.iter().cloned().collect();
    demands.reverse();
    let reordered: DemandMatrix = demands.iter().cloned().collect();
    let truncated: DemandMatrix = demands.into_iter().skip(7).collect();
    for (what, matrix) in [
        ("ordinary", spec.demands.scaled(1.1)),
        ("reordered", reordered),
        ("truncated", truncated),
        ("ordinary again", spec.demands.scaled(0.9)),
    ] {
        state.set_circuit(CircuitId::from_index(x.below(topo.num_circuits())), false);
        let audit = engine.audit_live(&spec, &state, &matrix);
        assert_audit_is_the_oracles(&spec, &state, &matrix, &audit, what);
        assert_kept_degrees(&spec, &engine, &state, what);
    }
    assert_eq!(engine.stats().live_audits, 4);
}
