//! Layer probes over the *check walk*: the block-by-block state sequence of
//! a returned plan, replayed through the public `core` and `routing` calls a
//! search makes per state. One walk visits each state once, so every probe
//! reports the median over the walk's states.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use klotski_core::migration::MigrationSpec;
use klotski_core::plan::MigrationPlan;
use klotski_core::{ActionTypeId, CompactState, EscMode, SatChecker};
use klotski_parallel::WorkerPool;
use klotski_routing::{
    evaluate::summarize, usability_toggles, EcmpRouter, IncrementalRouter, LoadMap, RouteOutcome,
    UsableMask,
};
use klotski_topology::{CsrGraph, NetState};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One state of the walk: the compact vector, its overlay, and the action
/// type that produced it.
struct WalkState {
    v: CompactState,
    state: NetState,
    last: ActionTypeId,
}

fn walk_states(spec: &MigrationSpec, plan: &MigrationPlan) -> Vec<WalkState> {
    let mut state = spec.initial.clone();
    let mut v = CompactState::origin(spec.num_types());
    plan.steps()
        .iter()
        .map(|step| {
            spec.apply_next(&mut state, &v, step.kind);
            v = v.advanced(step.kind);
            WalkState {
                v: v.clone(),
                state: state.clone(),
                last: step.kind,
            }
        })
        .collect()
}

/// `SatChecker::check` over the walk on a fresh checker with the ESC off,
/// one span named `name` per state; returns the per-state microseconds.
/// Every state of a valid plan must pass.
fn check_walk(
    tr: &mut Tracer,
    name: &'static str,
    spec: &MigrationSpec,
    walk: &[WalkState],
    lanes: usize,
) -> Result<Vec<f64>, String> {
    let mut checker = SatChecker::with_pool(spec, EscMode::Off, WorkerPool::shared(lanes));
    for (i, w) in walk.iter().enumerate() {
        if !tr.span(name, |_| checker.check(spec, &w.v, &w.state, Some(w.last))) {
            return Err(format!("{name}: walk state {i} fails the checker"));
        }
    }
    Ok(tr.durations(name, 1e3))
}

/// Runs every walk probe for `spec` + `plan` and records the per-layer
/// metrics. Probe spans are roots of their own (op id of the caller).
pub fn probe(
    tr: &mut Tracer,
    spec: &MigrationSpec,
    plan: &MigrationPlan,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let topo = &spec.topology;
    let walk = walk_states(spec, plan);
    if walk.is_empty() {
        return Err("empty check walk".into());
    }
    tr.next_op();
    metrics.set("topology.switches", topo.num_switches() as f64);
    metrics.set("topology.circuits", topo.num_circuits() as f64);
    metrics.set("traffic.matrices", (1 + spec.extra_demands.len()) as f64);
    metrics.set("traffic.demands", spec.demands.len() as f64);

    let csr = tr.span("topology.csr_build", |_| Arc::new(CsrGraph::build(topo)));
    if let Some(ensemble) = &spec.ensemble {
        let realized = tr.span("traffic.ensemble_realize", |_| {
            ensemble.realize(&spec.demands)
        });
        black_box(realized.map_err(|e| e.to_string())?);
    }

    // core: one check per state, incremental engine on / off.
    let scratch_spec = MigrationSpec {
        incremental: false,
        ..spec.clone()
    };
    let incr_spec = MigrationSpec {
        incremental: true,
        ..spec.clone()
    };
    let check_us = check_walk(tr, "core.check", &incr_spec, &walk, 1)?;
    let scratch_us = check_walk(tr, "core.check_scratch", &scratch_spec, &walk, 1)?;
    metrics.set("core.check_us", median(&check_us));
    metrics.set("core.check_scratch_us", median(&scratch_us));

    // parallel: the same from-scratch walk on two lanes, and the bare cost
    // of handing the pool one round of empty tasks.
    let lanes2_us = check_walk(tr, "core.check_scratch.lanes2", &scratch_spec, &walk, 2)?;
    metrics.set(
        "parallel.lanes2_speedup",
        scratch_us.iter().sum::<f64>() / lanes2_us.iter().sum::<f64>().max(1e-9),
    );
    let pool2 = WorkerPool::new(2);
    let dispatch: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            pool2.run(2, |lane, task| {
                black_box((lane, task));
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.set("parallel.dispatch_us", median(&dispatch));

    // routing, incremental engine: one-block steps along the walk.
    let pool1 = WorkerPool::new(1);
    let mut loads = LoadMap::new(topo);
    let mut outcome = RouteOutcome::new();
    let new_engine = || {
        IncrementalRouter::with_csr_ensemble(
            Arc::clone(&csr),
            &spec.demands,
            &spec.extra_demands,
            1,
            spec.split,
        )
    };
    let mut engine = new_engine();
    engine.evaluate(&pool1, topo, &spec.initial, None, &mut loads, &mut outcome);
    let primed = engine.stats();
    let mut prev = &spec.initial;
    for w in &walk {
        let toggles = usability_toggles(topo, prev, &w.state);
        loads.clear();
        tr.span("routing.incr_evaluate", |_| {
            engine.evaluate(
                &pool1,
                topo,
                &w.state,
                Some(&toggles),
                &mut loads,
                &mut outcome,
            )
        });
        for k in 0..spec.extra_demands.len() {
            loads.clear();
            tr.span("routing.replay_extra", |_| {
                engine.replay_extra(k, &w.state, &mut loads, &mut outcome)
            });
        }
        prev = &w.state;
    }
    let stats = engine.stats();
    let clean = stats.clean_destinations - primed.clean_destinations;
    let dirty = stats.dirty_destinations - primed.dirty_destinations;
    metrics.set(
        "routing.incr_clean_ratio",
        clean as f64 / (clean + dirty).max(1) as f64,
    );
    metrics.set("routing.incr_dirty_dests", dirty as f64 / walk.len() as f64);
    metrics.set("routing.incr_bytes", engine.approx_bytes() as f64);
    metrics.set("routing.footprint_bytes", engine.footprint_bytes() as f64);

    let mut engine = new_engine();
    engine.rebase(&pool1, topo, &spec.initial, None);
    let mut prev = &spec.initial;
    for w in &walk {
        let toggles = usability_toggles(topo, prev, &w.state);
        tr.span("routing.incr_rebase", |_| {
            engine.rebase(&pool1, topo, &w.state, Some(&toggles))
        });
        prev = &w.state;
    }

    // routing, from scratch: the audit path's three calls per state.
    let mut router = EcmpRouter::from_csr(Arc::clone(&csr), spec.split);
    let mut mask = UsableMask::new();
    for w in &walk {
        tr.span("routing.mask", |_| mask.compute(topo, &w.state));
        loads.clear();
        tr.span("routing.route_scratch", |_| {
            router.route_with_mask_into(
                topo,
                &w.state,
                &mask,
                &spec.demands,
                &mut loads,
                &mut outcome,
            )
        });
        black_box(tr.span("routing.summarize", |_| {
            summarize(topo, &w.state, &loads, spec.theta)
        }));
    }

    for (metric, span, unit_ns) in [
        ("topology.csr_build_ms", "topology.csr_build", 1e6),
        (
            "traffic.ensemble_realize_ms",
            "traffic.ensemble_realize",
            1e6,
        ),
        ("routing.incr_evaluate_us", "routing.incr_evaluate", 1e3),
        ("routing.replay_extra_us", "routing.replay_extra", 1e3),
        ("routing.incr_rebase_us", "routing.incr_rebase", 1e3),
        ("routing.mask_us", "routing.mask", 1e3),
        ("routing.route_scratch_us", "routing.route_scratch", 1e3),
        ("routing.summarize_us", "routing.summarize", 1e3),
    ] {
        metrics.set(metric, median(&tr.durations(span, unit_ns)));
    }
    Ok(())
}
