//! The incremental routing engine, and the walks that replay a plan — or the
//! states a run actually observes — on it.
//!
//! Every consumer of routing outside the spec build visits a chain of states
//! each a few circuits from the last: a planner's checks, the validating
//! walk over a finished plan, a run's shadow audits and the §7.1 lookahead.
//! That is the shape the structure-only [`IncrementalRouter`] is fast on:
//! only the destinations a delta disturbs re-derive their routing structure.
//!
//! - [`LiveEngine`] is the one wrapper over that engine: it keeps the state
//!   it routed last, diffs the next state against it by the two states'
//!   bit words ([`NetState::usability_diff_into`]) and keeps Eq. 6 port
//!   degrees by the same toggles. A [`SatChecker`] routes every cache miss
//!   on one; a run's shadow audit ([`LiveEngine::audit_live`]) and
//!   lookahead sweeps share another.
//! - [`validate_and_audit_on`] is the one pass over a whole plan:
//!   [`validate_plan_on`](crate::plan::validate_plan_on) and
//!   [`audit_plan`](crate::report::audit_plan) are its verdict-only and
//!   audit-only modes. The validating walk judges every state on a *fresh*
//!   [`SatChecker`] with the ESC cache off — it shares nothing with the
//!   search that produced the plan — and the audit reads each phase-end
//!   record off the state that check just routed.
//! - [`PlanReplay`] is the lookahead: a per-plan *headroom memo* — each
//!   canonical state's max utilization under a planning matrix, read from
//!   the ESC cache the plan arrives with ([`PlanReplay::seeded`]) or swept
//!   once — from which it judges the pending suffix under each step's
//!   realized demand wherever a rescaling bound decides; the exact sweep
//!   runs only for the states it cannot.

use crate::compact::CompactState;
use crate::migration::MigrationSpec;
use crate::plan::{MigrationPlan, PlanPhase, PlanViolation};
use crate::report::{PhaseAudit, PlanAudit};
use crate::satcheck::{funneled_switches, EscMode, LiveAudit, SatChecker, SatStats, Verdicts};
use klotski_parallel::WorkerPool;
use klotski_routing::{
    ecmp::RouteOutcome, evaluate::summarize, CsrGraph, IncrementalRouter, LoadMap, SafetyOutcome,
};
use klotski_topology::{CircuitId, Fnv1a, NetState};
use klotski_traffic::DemandMatrix;
use std::collections::HashMap;
use std::sync::Arc;

/// Relative slack `δ` of the headroom bound [`headroom_clears`]: a state is
/// cleared without a sweep only when `u · k · (1 + δ) ≤ θ`.
///
/// Why the bound is exact. The load sweep (`sweep_entry`) computes every
/// slot as a tree of floating-point additions of non-negatives and
/// multiplications/divisions by positive constants (ECMP `/ len`, WCMP
/// `* w / Σw`), so in exact arithmetic a slot is `L(r) = Σ aᵢ·rᵢ` with
/// `aᵢ ≥ 0` fixed by the routing structure — linear and monotone in every
/// rate — and, with no cancellation anywhere, the computed value satisfies
/// `L(r)·(1 − γ) ≤ fl L(r) ≤ L(r)·(1 + γ)`, `γ ≤ N·ε` for the `N`
/// operations on the longest chain feeding the slot. With
/// `k = maxᵢ fl(rᵢ / pᵢ)` every realized rate obeys `rᵢ ≤ k·pᵢ·(1 + ε)`,
/// hence
///
/// `fl L(r) ≤ (1 + γ)·L(r) ≤ (1 + γ)(1 + ε)·k·L(p) ≤ k · fl L(p) · (1 + 2γ + 2ε)`.
///
/// Dividing by the capacity, taking the maximum over circuits and forming
/// `u · k · (1 + δ)` add a handful of roundings more. Funneling headroom
/// (§7.2) multiplies a slot by the same factor in every matrix, one rounding
/// on each side, so the bound holds between funneled loads too. `N` is
/// bounded by the additions into one slot or inflow cell (destinations +
/// sources + in-degree) times the path depth — under 10⁶ at preset E — so
/// the total relative error is below `2·10⁶·ε + 8ε < 3·10⁻¹⁰ < δ`.
/// (Underflow to subnormals adds an absolute 10⁻³⁰⁰ at most, immaterial
/// against any θ.) The slack costs nothing but work: a state within 10⁻⁹
/// of θ takes the exact sweep.
/// `plan_replay.rs::headroom_bound_dominates_the_sweep` measures the real
/// error three orders of magnitude inside `δ`.
///
/// The lower half, behind [`headroom_rejects`]. With
/// `k_lo = minᵢ fl(rᵢ / pᵢ)` over the rates planned above zero, every such
/// rate obeys `rᵢ ≥ k_lo·pᵢ·(1 − ε)` (a rate planned at zero adds nothing
/// to `L(p)`, so it cannot lower the bound), and the same chain runs the
/// other way:
///
/// `fl L(r) ≥ (1 − γ)·L(r) ≥ (1 − γ)(1 − ε)·k_lo·L(p) ≥ k_lo · fl L(p) · (1 − 2γ − 2ε)`.
///
/// The circuit attaining `u` under `p` then carries at least
/// `u · k_lo · (1 − δ')`, `δ' < 3·10⁻¹⁰`, under `r`: a state with
/// `u · k_lo · (1 − δ) > θ` is over θ, exactly as its sweep would say.
const HEADROOM_SLACK: f64 = 1e-9;

/// The rescaling bound: a state whose max utilization is `u` under one
/// matrix stays within `theta` under every matrix with the same endpoints
/// whose rates are at most `k` times as large, when this holds (see
/// [`HEADROOM_SLACK`]). The lookahead calls it with `k` = the largest
/// realized/planned ratio, the spec build with `k` = the calibration factor
/// (`fl(rᵢ · k) ≤ k·rᵢ·(1 + ε)`, the same premise; `EcmpRouter` adds what
/// `sweep_entry` adds), and an ensemble check with `u` = the base matrix's
/// funneled max utilization and `k` = [`demand_ratio`] of each member.
pub(crate) fn headroom_clears(u: f64, k: f64, theta: f64) -> bool {
    u * k * (1.0 + HEADROOM_SLACK) <= theta
}

/// The rejecting twin of [`headroom_clears`]: a state whose max utilization
/// is `u` under one matrix exceeds `theta` under every matrix with the same
/// endpoints whose rates are at least `k` times as large, when this holds
/// (the lower half of [`HEADROOM_SLACK`]). A replan's checker calls it with
/// `u` an earlier search's measurement and `k` = [`rate_floor`].
pub(crate) fn headroom_rejects(u: f64, k: f64, theta: f64) -> bool {
    u * k * (1.0 - HEADROOM_SLACK) > theta
}

/// The one wrapper over the incremental routing engine: a private
/// [`IncrementalRouter`] that routes whatever state it is shown under
/// whatever matrix is loaded, bit for bit as
/// `klotski_routing::evaluate_policy` would from scratch, plus the state it
/// routed last and Eq. 6 port degrees kept for that state.
///
/// Each route diffs the new state against the last one by their bit words
/// ([`NetState::usability_diff_into`], into the engine's scratch): the
/// circuits whose usability differs, whatever made them differ — a
/// checker's next canonical state, or an observed one carrying failed
/// circuits and switches drained behind the planner's back. Structure is
/// then re-derived only for the destinations the toggles disturb, and port
/// degrees move by ±1 per toggle endpoint; both are rebuilt from the state
/// only where there is no base (first route, [`release`](Self::release),
/// an engine rebuilt by [`load`](Self::load)) or the spec routes without
/// deltas (`incremental == false`). A matrix change rewrites
/// rates only. No ESC cache, and a run's engine shares nothing with any
/// planner's checker: §7's shadow audit is independent of the search.
#[derive(Debug)]
pub struct LiveEngine {
    pool: Arc<WorkerPool>,
    csr: Arc<CsrGraph>,
    /// Built by the first [`load`](Self::load) — or, for a checker, which
    /// loads nothing, by its first route.
    engine: Option<IncrementalRouter>,
    /// The state routed last, while the engine's structure describes it.
    base: Option<NetState>,
    /// Eq. 6 port degree of every switch in `base`: its usable incident
    /// circuits.
    degree: Vec<u32>,
    /// Switches of `base` whose degree exceeds their port budget.
    over_budget: usize,
    /// Toggle scratch: the exact circuits whose usability differs from
    /// `base`.
    toggles: Vec<CircuitId>,
    /// [`route`](Self::route)'s buffers, allocated by its first call.
    swept: Option<(LoadMap, RouteOutcome)>,
    /// Audits counted, and the destination counters of engines released.
    stats: SatStats,
}

impl LiveEngine {
    /// An engine for states of `spec.topology` (which every residual of
    /// `spec` shares), advancing on `pool`'s lanes; the first
    /// [`load`](Self::load) builds it — or, for a checker, which loads
    /// nothing, its first route, over `spec.demands` and the ensemble's
    /// extras (swept one at a time, after the base, by
    /// [`sweep_extra`](Self::sweep_extra)). A checker that never routes
    /// allocates no engine.
    pub fn new(spec: &MigrationSpec, pool: Arc<WorkerPool>) -> Self {
        Self {
            pool,
            csr: Arc::new(CsrGraph::build(&spec.topology)),
            engine: None,
            base: None,
            degree: vec![0; spec.topology.num_switches()],
            over_budget: 0,
            toggles: Vec::new(),
            swept: None,
            stats: SatStats::default(),
        }
    }

    /// Replaces the engine with a fresh one over `demands` plus `extras`,
    /// with no base.
    fn build(&mut self, spec: &MigrationSpec, demands: &DemandMatrix, extras: &[DemandMatrix]) {
        self.release();
        self.engine = Some(IncrementalRouter::with_csr_ensemble(
            self.csr.clone(),
            demands,
            extras,
            self.pool.lanes(),
            spec.split,
        ));
    }

    /// Makes `demands` the matrix [`route`](Self::route) sweeps. A matrix
    /// with the engine's `(src, dst, class)` sequence — growth, surges and
    /// ensemble variants only rescale rates — overwrites the rates and keeps
    /// every cached structure; any other matrix gets a fresh engine built
    /// over it (decided before a single rate is written).
    pub fn load(&mut self, spec: &MigrationSpec, demands: &DemandMatrix) {
        if let Some(engine) = &mut self.engine {
            if engine.try_set_base_rates(demands) {
                return;
            }
        }
        self.build(spec, demands, &[]);
    }

    /// Frees the engine proper — its per-destination structures are most of
    /// a run's heap — keeping the counters; the next [`load`](Self::load)
    /// builds a fresh one and pays one cold route. The run loop releases
    /// before every replan, so the replanner's own engine over the same
    /// topology never sits in memory beside this one.
    pub fn release(&mut self) {
        self.stats = self.stats();
        self.engine = None;
        self.base = None;
    }

    /// The engine proper, while built.
    pub(crate) fn router(&self) -> Option<&IncrementalRouter> {
        self.engine.as_ref()
    }

    /// Eq. 6 on the state routed last: true if a live switch has more usable
    /// circuits than ports, read off the kept degrees.
    pub(crate) fn port_violation(&self) -> bool {
        self.over_budget > 0
    }

    /// The state routed last, each switch's count of usable circuits as kept
    /// for it toggle by toggle, and the Eq. 6 verdict read off those counts;
    /// `None` with no base. Test hook for the delta-against-recount oracle.
    #[doc(hidden)]
    pub fn port_budgets(&self) -> Option<(&NetState, &[u32], bool)> {
        let base = self.base.as_ref()?;
        Some((base, &self.degree, self.port_violation()))
    }

    /// Eq. 4–5 outcome of `state` under the loaded matrix; `state` becomes
    /// the base. With no matrix loaded since the engine was made or
    /// released, the route builds it over `spec.demands` (and the
    /// ensemble's extras).
    pub fn route(&mut self, spec: &MigrationSpec, state: &NetState) -> SafetyOutcome {
        let (mut loads, mut outcome) = self
            .swept
            .take()
            .unwrap_or_else(|| (LoadMap::new(&spec.topology), RouteOutcome::new()));
        self.route_into(spec, state, &mut loads, &mut outcome);
        let routed = SafetyOutcome {
            all_reachable: outcome.all_reachable(),
            unreachable_demands: outcome.unreachable.len(),
            report: summarize(&spec.topology, state, &loads, spec.theta),
        };
        self.swept = Some((loads, outcome));
        routed
    }

    /// Routes the loaded matrix over `state` into `loads` (cleared first),
    /// diffed against the base; `state` becomes the base. An unbuilt engine
    /// is built first, over `spec.demands` and the ensemble's extras. A spec
    /// with `incremental == false` routes as if there were no base: every
    /// destination rebuilt, every port degree recounted.
    pub(crate) fn route_into(
        &mut self,
        spec: &MigrationSpec,
        state: &NetState,
        loads: &mut LoadMap,
        outcome: &mut RouteOutcome,
    ) {
        if self.engine.is_none() {
            self.build(spec, &spec.demands, &spec.extra_demands);
        }
        let delta = match &self.base {
            Some(base) if spec.incremental => {
                base.usability_diff_into(&spec.topology, state, &mut self.toggles);
                true
            }
            _ => false,
        };
        let engine = self.engine.as_mut().expect("built above");
        loads.clear();
        engine.evaluate(
            &self.pool,
            &spec.topology,
            state,
            delta.then_some(&self.toggles[..]),
            loads,
            outcome,
        );
        self.set_base(spec, state, delta);
    }

    /// Sweeps ensemble extra `k` over the state routed last into `loads`
    /// (cleared first): the structure [`route_into`](Self::route_into) just
    /// advanced, one traversal, no advance — bit for bit a from-scratch
    /// route of that matrix.
    pub(crate) fn sweep_extra(
        &mut self,
        k: usize,
        loads: &mut LoadMap,
        outcome: &mut RouteOutcome,
    ) {
        let engine = self.engine.as_mut().expect("a checker's engine is built");
        let base = self.base.as_ref().expect("route a state before its extras");
        loads.clear();
        engine.replay_extra(k, base, loads, outcome);
    }

    /// Makes `state` the base. With `delta`, `self.toggles` is the exact
    /// usability diff from the old base and the port degrees move by it;
    /// otherwise (no delta: the engine rebuilt in full) they are recounted
    /// from `state`.
    fn set_base(&mut self, spec: &MigrationSpec, state: &NetState, delta: bool) {
        let topo = &spec.topology;
        if delta {
            for &c in &self.toggles {
                let now_usable = state.circuit_usable(topo, c);
                let circuit = topo.circuit(c);
                for s in [circuit.a, circuit.b] {
                    let budget = u32::from(topo.switch(s).max_ports);
                    let degree = &mut self.degree[s.index()];
                    if now_usable {
                        *degree += 1;
                        self.over_budget += usize::from(*degree == budget + 1);
                    } else {
                        self.over_budget -= usize::from(*degree == budget + 1);
                        *degree -= 1;
                    }
                }
            }
        } else {
            self.over_budget = 0;
            for s in topo.switches() {
                let degree = state.active_degree(topo, s.id) as u32;
                self.degree[s.id.index()] = degree;
                self.over_budget += usize::from(degree > u32::from(s.max_ports));
            }
        }
        debug_assert_eq!(self.port_violation(), topo.has_port_violation(state));
        match &mut self.base {
            Some(base) => base.clone_from(state),
            None => self.base = Some(state.clone()),
        }
    }

    /// Audits an *arbitrary* live state under an *arbitrary* demand matrix
    /// — the shadow-audit entry point for controllers observing a real
    /// fleet: [`load`](Self::load) and [`route`](Self::route) as one counted
    /// audit, Eq. 6 read off the kept port degrees. The state may carry
    /// disturbances outside the canonical overlay of any compact state;
    /// `demands` may differ from the planning matrix in rates (growth,
    /// surges) or — at the price of a rebuilt engine — in endpoints. The
    /// space model (§7.2) constrains the compact progress vector, which a
    /// live state does not carry, so it is not part of a live audit.
    pub fn audit_live(
        &mut self,
        spec: &MigrationSpec,
        state: &NetState,
        demands: &DemandMatrix,
    ) -> LiveAudit {
        self.stats.live_audits += 1;
        self.load(spec, demands);
        let routed = self.route(spec, state);
        let port_violation = spec.check_ports && self.port_violation();
        LiveAudit {
            safe: routed.satisfied() && !port_violation,
            all_reachable: routed.all_reachable,
            unreachable_demands: routed.unreachable_demands,
            max_utilization: routed.report.max_utilization,
            worst_circuit: routed.report.worst_circuit,
            theta_violations: routed.report.violations,
            min_residual_gbps: routed.report.min_residual_gbps,
            port_violation,
        }
    }

    /// `live_audits` counts [`audit_live`](Self::audit_live) calls only; the
    /// destination counters cover every route, audits and the lookahead's
    /// bare [`route`](Self::route)s alike.
    pub fn stats(&self) -> SatStats {
        let engine = self.engine.as_ref().map(|e| e.stats()).unwrap_or_default();
        SatStats {
            incremental_clean: self.stats.incremental_clean + engine.clean_destinations,
            incremental_dirty: self.stats.incremental_dirty + engine.dirty_destinations,
            ..self.stats
        }
    }
}

/// What the headroom memo holds for a canonical state: its sweep under a
/// planning matrix, by a search's own check or by the lookahead's fill.
#[derive(Debug, Clone, Copy)]
struct Headroom {
    /// Max circuit utilization under that matrix.
    max_utilization: f64,
    /// Demands with no live path. Eq. 4 does not depend on rates —
    /// `sweep_entry` flags a source by `dist` and `switch_up` only — so this
    /// count holds under every matrix with the spec's endpoints.
    unreachable_demands: usize,
    /// The matrix: `None` for this generation's `spec.demands`, `Some(i)`
    /// for [`PlanReplay::earlier`]`[i]` (an entry a search inherited from an
    /// earlier generation and decided by the rescaling bound).
    matrix: Option<usize>,
}

/// Why the lookahead rejected a pending state.
#[derive(Debug, Clone, PartialEq)]
pub enum TripCause {
    /// Eq. 4: this many demands have no live path in the state.
    Unreachable {
        /// Count of unreachable demands.
        demands: usize,
    },
    /// Eq. 5: the exact sweep under the realized matrix put a circuit over θ.
    OverTheta {
        /// Max circuit utilization of the state under the realized matrix.
        utilization: f64,
        /// The circuit attaining it.
        circuit: Option<CircuitId>,
    },
}

/// The first pending state the lookahead found unsafe.
#[derive(Debug, Clone, PartialEq)]
pub struct LookaheadTrip {
    /// Compact vector of the rejected state.
    pub state: CompactState,
    /// Blocks between the current state and the rejected one (1 = the next
    /// block to apply).
    pub blocks_ahead: usize,
    /// The violated constraint.
    pub cause: TripCause,
}

/// One lookahead call's verdict and the work it took.
#[derive(Debug, Clone, PartialEq)]
pub struct LookaheadVerdict {
    /// The first unsafe pending state; `None` when the remaining plan is
    /// still safe.
    pub trip: Option<LookaheadTrip>,
    /// Pending states judged from the headroom memo alone.
    pub bound: usize,
    /// Engine sweeps: memo fills plus exact sweeps of the states the bound
    /// could not clear.
    pub swept: usize,
}

/// `k = maxᵢ realized[i].gbps / planned[i].gbps`, the factor by which the
/// realized matrix exceeds the planning one anywhere: ∞ when a demand
/// planned at 0 carries traffic, NaN (which clears no bound) on a NaN rate.
///
/// # Panics
/// Panics unless the two matrices share one `(src, dst, class)` sequence.
pub(crate) fn demand_ratio(planned: &DemandMatrix, realized: &DemandMatrix) -> f64 {
    const SHARED: &str = "the realized matrix must share the base demand endpoints";
    assert_eq!(planned.len(), realized.len(), "{SHARED}");
    rate_ratio(planned.iter().zip(realized.iter()).map(|(p, r)| {
        assert_eq!((p.src, p.dst, p.class), (r.src, r.dst, r.class), "{SHARED}");
        (p.gbps, r.gbps)
    }))
}

/// [`demand_ratio`] over `(planned, realized)` rate pairs whose endpoints
/// the caller has matched.
pub(crate) fn rate_ratio(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut k = 0.0_f64;
    for (p, r) in pairs {
        let ratio = if r == 0.0 {
            0.0
        } else if p > 0.0 {
            r / p
        } else {
            f64::INFINITY
        };
        // Not `f64::max`: a NaN must stick.
        if ratio > k || ratio.is_nan() {
            k = ratio;
        }
    }
    k
}

/// `k_lo = minᵢ realized[i] / planned[i]` over `(planned, realized)` rate
/// pairs whose endpoints the caller has matched, skipping the demands
/// planned at 0: the factor by which the realized matrix is at least the
/// planning one everywhere it loads — 0 when such a demand is realized at
/// 0, ∞ when no demand is planned above 0, NaN (which rejects no bound) on
/// a NaN rate.
pub(crate) fn rate_floor(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut k = f64::INFINITY;
    for (p, r) in pairs {
        // Not `p > 0.0`: a NaN plan must reach the ratio and stick.
        if p == 0.0 {
            continue;
        }
        let ratio = if r == 0.0 { 0.0 } else { r / p };
        if ratio < k || ratio.is_nan() {
            k = ratio;
        }
    }
    k
}

/// A fingerprint of a matrix's `(src, dst, class)` sequence: two matrices
/// with one fingerprint pair their rates index by index — the premise of
/// every rescaling bound, for callers that keep the rates alone: FNV-1a
/// over the sequence and its length.
pub(crate) fn endpoints_of(matrix: &DemandMatrix) -> u64 {
    let mut h = Fnv1a::new();
    for d in matrix.iter() {
        (h.u64(d.src.index() as u64))
            .u64(d.dst.index() as u64)
            .u64(d.class as u64);
    }
    h.u64(matrix.len() as u64).finish()
}

/// The rates of a matrix, in its demand order.
pub(crate) fn rates_of(matrix: &DemandMatrix) -> impl Iterator<Item = f64> + '_ {
    matrix.iter().map(|d| d.gbps)
}

/// The §7.1 lookahead: re-checks a pending plan suffix against realized
/// demand from a headroom memo, sweeping on the caller's [`LiveEngine`] only
/// what the memo cannot decide.
///
/// One replay serves one spec generation: its memo is keyed by compact
/// vector under the `spec` the plan was made for, and a replan produces a new
/// residual spec (new initial state, re-indexed blocks) — so seed a fresh
/// replay from every new plan. The engine is not the replay's: it outlives
/// every generation.
#[derive(Debug, Default)]
pub struct PlanReplay {
    /// Headroom memo: the planning-matrix sweep of each canonical state. A
    /// compact vector fixes its canonical state, hence its routing
    /// structure, so an entry serves any chain of the spec that visits it.
    headroom: HashMap<CompactState, Headroom>,
    /// The rates of earlier generations' planning matrices that seeded
    /// entries were measured under (`spec.demands`' endpoints, in order).
    earlier: Vec<Vec<f64>>,
}

impl PlanReplay {
    /// A replay whose memo starts with what the searches that produced
    /// `plan` already measured: the ESC cache the plan arrived with
    /// (`verdicts`, keyed with `spec`'s origin at `frame`), read at each
    /// plan state — the base matrix's max utilization, and the planning
    /// matrix it was measured under (this generation's, or an earlier one's
    /// where the search decided the state by the rescaling bound). A state
    /// that passed its check has every demand reachable. A state whose check
    /// applied funneling headroom before its summary seeds nothing, nor
    /// does one without an entry (an ESC-off search, an evicted key): it is
    /// swept the first time the lookahead meets it.
    pub fn seeded(
        spec: &MigrationSpec,
        plan: &MigrationPlan,
        verdicts: &Verdicts,
        frame: &CompactState,
    ) -> Self {
        let mut replay = Self::default();
        if !verdicts.pairs_with(&spec.demands) {
            return replay;
        }
        // Where each cache matrix's `u`s point, once met: this generation's
        // matrix, or a copy in `earlier`.
        let mut matrix_of: Vec<Option<Option<usize>>> = vec![None; verdicts.matrices.len()];
        let mut v = CompactState::origin(spec.num_types());
        let mut state = spec.initial.clone();
        for step in plan.steps() {
            spec.apply_next(&mut state, &v, step.kind);
            v = v.advanced(step.kind);
            if funneled_switches(spec, &v, Some(step.kind)).is_some() {
                continue;
            }
            let Some((max_utilization, m)) =
                verdicts.measured_at(spec, frame, &v, &state, Some(step.kind))
            else {
                continue;
            };
            let matrix = *matrix_of[m].get_or_insert_with(|| {
                let planned = &verdicts.matrices[m];
                (!planned.iter().copied().eq(rates_of(&spec.demands))).then(|| {
                    replay.earlier.push(planned.clone());
                    replay.earlier.len() - 1
                })
            });
            let seeded = Headroom {
                max_utilization,
                unreachable_demands: 0,
                matrix,
            };
            replay.headroom.insert(v.clone(), seeded);
        }
        replay
    }

    /// Replays the `pending` phases from `(progress, state)` under the
    /// `realized` demand: the remaining plan is safe iff every intermediate
    /// state keeps every demand reachable (Eq. 4) and every circuit within θ
    /// (Eq. 5). Ports, funneling headroom, space and ensemble variants are
    /// not part of the lookahead: the shadow audit judges those when the run
    /// gets there.
    ///
    /// Each pending state is judged from its headroom-memo entry — seeded by
    /// the planner, or filled by one sweep under `spec.demands` the first
    /// time the replay meets the state — and `k`, the largest
    /// realized/planned rate ratio against the matrix that entry was
    /// measured under: a state with an unreachable demand is
    /// unsafe under any rates; one with `u · k · (1 + δ) ≤ θ` is safe without
    /// touching the engine (see [`HEADROOM_SLACK`]); any other state is swept
    /// under `realized` itself, and that verdict stands. The answer is
    /// therefore the one a sweep of every pending state would give; what the
    /// memo saves is the sweeps. Worst case (an unseeded memo with every
    /// state inside the margin, or `k = ∞`): one memo fill per state per
    /// replay on top of the exact sweeps.
    ///
    /// Sweeps run on `engine`, which is left holding whichever matrix and
    /// state were swept last.
    ///
    /// # Panics
    /// Panics unless `realized` shares `spec.demands`' `(src, dst, class)`
    /// sequence — growth and surges only rescale rates.
    pub fn lookahead(
        &mut self,
        engine: &mut LiveEngine,
        spec: &MigrationSpec,
        state: &NetState,
        progress: &CompactState,
        pending: &[PlanPhase],
        realized: &DemandMatrix,
    ) -> LookaheadVerdict {
        // Checks `realized` against `spec.demands`' endpoints, which the
        // earlier matrices' rates pair with too.
        let k = demand_ratio(&spec.demands, realized);
        let mut k_earlier: Vec<Option<f64>> = vec![None; self.earlier.len()];
        // Whether this call last loaded `realized` (else `spec.demands`) into
        // the engine, which arrives holding some audit's matrix: rates are
        // rewritten only on a change.
        let mut holds_realized: Option<bool> = None;
        let mut sweep = |exact: bool, s: &NetState| {
            if holds_realized != Some(exact) {
                engine.load(spec, if exact { realized } else { &spec.demands });
                holds_realized = Some(exact);
            }
            engine.route(spec, s)
        };
        let mut verdict = LookaheadVerdict {
            trip: None,
            bound: 0,
            swept: 0,
        };
        let mut s = state.clone();
        let mut v = progress.clone();
        let mut blocks_ahead = 0usize;
        for phase in pending {
            for _ in &phase.blocks {
                spec.apply_next(&mut s, &v, phase.kind);
                v = v.advanced(phase.kind);
                blocks_ahead += 1;
                let mut sweeps = 0;
                let headroom = match self.headroom.get(&v) {
                    Some(&known) => known,
                    None => {
                        sweeps += 1;
                        let planned = sweep(false, &s);
                        let filled = Headroom {
                            max_utilization: planned.report.max_utilization,
                            unreachable_demands: planned.unreachable_demands,
                            matrix: None,
                        };
                        self.headroom.insert(v.clone(), filled);
                        filled
                    }
                };
                let k = match headroom.matrix {
                    None => k,
                    Some(i) => *k_earlier[i].get_or_insert_with(|| {
                        rate_ratio(self.earlier[i].iter().copied().zip(rates_of(realized)))
                    }),
                };
                let cause = if headroom.unreachable_demands > 0 {
                    Some(TripCause::Unreachable {
                        demands: headroom.unreachable_demands,
                    })
                } else if headroom_clears(headroom.max_utilization, k, spec.theta) {
                    None
                } else {
                    sweeps += 1;
                    let exact = sweep(true, &s);
                    (!exact.satisfied()).then_some(TripCause::OverTheta {
                        utilization: exact.report.max_utilization,
                        circuit: exact.report.worst_circuit,
                    })
                };
                verdict.swept += sweeps;
                verdict.bound += usize::from(sweeps == 0);
                if let Some(cause) = cause {
                    verdict.trip = Some(LookaheadTrip {
                        state: v,
                        blocks_ahead,
                        cause,
                    });
                    return verdict;
                }
            }
        }
        verdict
    }
}

/// How [`walk_plan`] judges the states it visits.
enum Judge<'a> {
    /// Full Eq. 2–6 validation of every state on a fresh checker.
    Validate(&'a mut SatChecker),
    /// No verdict: route the base matrix at phase ends only.
    AuditOnly(&'a mut LiveEngine),
}

/// Validates `plan` (as [`validate_plan_on`](crate::plan::validate_plan_on))
/// and audits it (as [`audit_plan`](crate::report::audit_plan)) in one walk:
/// each phase-end record is read off the state the validation just routed —
/// the base matrix's loads, before funneling headroom is applied — so the
/// audit costs no routing of its own.
pub fn validate_and_audit_on(
    spec: &MigrationSpec,
    plan: &MigrationPlan,
    pool: Arc<WorkerPool>,
) -> Result<PlanAudit, PlanViolation> {
    validating_walk(spec, plan, pool, true)
}

/// The validating walk, on a fresh checker with the ESC cache off; without
/// `audit` the returned sheet has no phases.
pub(crate) fn validating_walk(
    spec: &MigrationSpec,
    plan: &MigrationPlan,
    pool: Arc<WorkerPool>,
    audit: bool,
) -> Result<PlanAudit, PlanViolation> {
    let mut checker = SatChecker::with_pool(spec, EscMode::Off, pool);
    walk_plan(spec, plan, Judge::Validate(&mut checker), audit)
}

/// The audit-only mode of the walk: never fails, judges nothing.
pub(crate) fn audit(spec: &MigrationSpec, plan: &MigrationPlan) -> PlanAudit {
    let mut engine = LiveEngine::new(spec, Arc::new(WorkerPool::new(1)));
    engine.load(spec, &spec.demands);
    walk_plan(spec, plan, Judge::AuditOnly(&mut engine), true)
        .expect("an audit-only walk judges nothing")
}

/// Eq. 2–3: every block exactly once, under its own action type.
fn check_availability(spec: &MigrationSpec, plan: &MigrationPlan) -> Result<(), PlanViolation> {
    let mut seen = vec![false; spec.num_blocks()];
    for step in plan.steps() {
        let idx = step.block.index();
        if idx >= seen.len() {
            return Err(PlanViolation::Availability(format!(
                "unknown block {}",
                step.block
            )));
        }
        if seen[idx] {
            return Err(PlanViolation::Availability(format!(
                "block {} operated twice",
                step.block
            )));
        }
        if spec.blocks[idx].kind != step.kind {
            return Err(PlanViolation::Availability(format!(
                "block {} is not of type {}",
                step.block, step.kind
            )));
        }
        seen[idx] = true;
    }
    if !seen.iter().all(|&s| s) {
        return Err(PlanViolation::Availability(
            "some blocks never operated".into(),
        ));
    }
    Ok(())
}

/// The one walk over a whole plan. `judge` decides what happens at each
/// state; with `audit`, every phase end contributes a [`PhaseAudit`].
fn walk_plan(
    spec: &MigrationSpec,
    plan: &MigrationPlan,
    mut judge: Judge<'_>,
    audit: bool,
) -> Result<PlanAudit, PlanViolation> {
    let validating = matches!(judge, Judge::Validate(_));
    if validating {
        check_availability(spec, plan)?;
    }
    let topo = &spec.topology;
    let steps = plan.steps();
    let mut state = spec.initial.clone();
    let mut v = CompactState::origin(spec.num_types());
    let mut phases = Vec::new();
    let mut phase_start = 0usize;
    for (i, step) in steps.iter().enumerate() {
        if validating {
            // Canonical order: the step's block must be the next unconsumed
            // block of its type.
            let expected = spec.blocks_by_type[step.kind.index()]
                .get(v.count(step.kind) as usize)
                .copied();
            if expected != Some(step.block) {
                return Err(PlanViolation::NonCanonicalOrder { step: i });
            }
        }
        spec.apply_next(&mut state, &v, step.kind);
        v = v.advanced(step.kind);
        let phase_end = audit && steps.get(i + 1).is_none_or(|next| next.kind != step.kind);
        let mut report = None;
        match &mut judge {
            Judge::Validate(checker) => {
                // Algorithm 1/2 check every visited state; so does the replay.
                let mut observe = |loads: &LoadMap| {
                    report = Some(summarize(topo, &state, loads, spec.theta));
                };
                let observer: Option<&mut dyn FnMut(&LoadMap)> =
                    if phase_end { Some(&mut observe) } else { None };
                if !checker.check_observing(spec, &v, &state, Some(step.kind), observer) {
                    return Err(PlanViolation::UnsafeState { step: i });
                }
            }
            Judge::AuditOnly(engine) => {
                if phase_end {
                    report = Some(engine.route(spec, &state).report);
                }
            }
        }
        if phase_end {
            let report = report.expect("a state that passed the check was routed");
            phases.push(PhaseAudit::record(
                spec,
                phases.len() + 1,
                &steps[phase_start..=i],
                &v,
                &state,
                &report,
            ));
            phase_start = i + 1;
        }
    }
    if validating && !v.is_target(&spec.target_counts) {
        return Err(PlanViolation::WrongTarget);
    }
    Ok(PlanAudit {
        migration: spec.name.clone(),
        theta: spec.theta,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_topology::SwitchId;
    use klotski_traffic::{Demand, DemandClass};

    fn matrix(rates: &[f64]) -> DemandMatrix {
        (rates.iter().enumerate())
            .map(|(i, &gbps)| Demand {
                src: SwitchId::from_index(i),
                dst: SwitchId::from_index(i + 1),
                gbps,
                class: DemandClass::RswToRsw,
            })
            .collect()
    }

    #[test]
    fn the_two_ratios_bracket_every_rate_the_plan_loads() {
        let planned = matrix(&[2.0, 4.0, 0.0]);
        let ratios = |realized: &[f64]| {
            let realized = matrix(realized);
            let pairs = || rates_of(&planned).zip(rates_of(&realized));
            (demand_ratio(&planned, &realized), rate_floor(pairs()))
        };
        assert_eq!(ratios(&[3.0, 4.0, 0.0]), (1.5, 1.0));
        // Planned at 0: nothing to scale from below, ∞ from above.
        assert_eq!(ratios(&[3.0, 4.0, 1.0]), (f64::INFINITY, 1.0));
        // Realized at 0: nothing from below.
        assert_eq!(ratios(&[0.0, 4.0, 0.0]), (1.0, 0.0));
        assert_eq!(rate_floor([(0.0, 1.0)].into_iter()), f64::INFINITY);
        // NaN sticks, in either direction.
        assert!(rate_ratio([(1.0, f64::NAN), (1.0, 2.0)].into_iter()).is_nan());
        assert!(rate_floor([(1.0, f64::NAN), (1.0, 0.5)].into_iter()).is_nan());
        assert_ne!(endpoints_of(&planned), endpoints_of(&matrix(&[1.0, 1.0])));
        assert_eq!(
            endpoints_of(&planned),
            endpoints_of(&matrix(&[7.0, 7.0, 7.0]))
        );
    }

    #[test]
    fn the_bound_decides_outside_its_margin_only() {
        let theta = 0.75;
        let u = 0.5;
        let at = theta / u;
        assert!(!headroom_clears(u, at, theta) && !headroom_rejects(u, at, theta));
        assert!(headroom_clears(u, at * (1.0 - 1e-8), theta));
        assert!(headroom_rejects(u, at * (1.0 + 1e-8), theta));
        for k in [f64::NAN, f64::INFINITY] {
            assert!(!headroom_clears(0.0, k, theta) && !headroom_rejects(0.0, k, theta));
        }
    }
}
