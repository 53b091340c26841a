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
//!   [`validate_plan`](crate::plan::validate_plan) and
//!   [`audit_plan`](crate::report::audit_plan) are its verdict-only and
//!   audit-only modes. The validating walk judges every state on a *fresh*
//!   [`SatChecker`] with the ESC cache off — it shares nothing with the
//!   search that produced the plan — and the audit reads each phase-end
//!   record off the state that check just routed.
//! - [`PlanReplay`] is the lookahead. It keeps no memo: each pending state
//!   is read in place from the ESC cache of the searches that produced the
//!   plan ([`Verdicts`]) — the max utilization they measured and the
//!   planning matrix they measured it under — and judged under each step's
//!   realized demand wherever the rescaling bound decides; only the states
//!   it cannot decide are swept, once, under the realized matrix.

use crate::compact::CompactState;
use crate::migration::MigrationSpec;
use crate::plan::{MigrationPlan, PlanPhase, PlanViolation};
use crate::report::{PhaseAudit, PlanAudit};
use crate::satcheck::{EscMode, LiveAudit, SatChecker, SatStats, Verdicts};
use klotski_parallel::WorkerPool;
use klotski_routing::{
    evaluate::summarize, CsrGraph, IncrementalRouter, LoadMap, RouteOutcome, SafetyOutcome,
};
use klotski_topology::{CircuitId, Fnv1a, NetState};
use klotski_traffic::DemandMatrix;
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
/// error three orders of magnitude inside `δ`. A funneled `u` may stand in
/// for the plain one: funneling only multiplies loads by a factor ≥ 1, so
/// it clears only what the plain `u` would.
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
/// [`HEADROOM_SLACK`]). The lookahead calls it with `u` an ESC entry's
/// measurement and `k` = the largest realized/planned ratio against that
/// entry's matrix, the spec build with `k` = the calibration factor
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

/// Why the lookahead rejected a pending state.
#[derive(Debug, Clone, PartialEq)]
pub enum TripCause {
    /// Eq. 4: this many demands have no live path in the state.
    Unreachable {
        /// Count of unreachable demands.
        demands: usize,
    },
    /// Eq. 5: the sweep under the realized matrix put a circuit over θ.
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LookaheadVerdict {
    /// The first unsafe pending state; `None` when the remaining plan is
    /// still safe.
    pub trip: Option<LookaheadTrip>,
    /// Pending states the headroom bound cleared off an ESC entry, without
    /// touching the engine.
    pub bound: usize,
    /// Pending states swept under the realized matrix: those without an
    /// entry, and those the bound could not clear.
    pub swept: usize,
}

/// `k = maxᵢ realized[i].gbps / planned[i].gbps`, the factor by which the
/// realized matrix exceeds the planning one anywhere: ∞ when a demand
/// planned at 0 carries traffic, NaN (which clears no bound) on a NaN rate.
///
/// # Panics
/// Panics unless the two matrices share one `(src, dst, class)` sequence.
pub(crate) fn demand_ratio(planned: &DemandMatrix, realized: &DemandMatrix) -> f64 {
    assert_shared_endpoints(planned, realized);
    rate_ratio(rates_of(planned).zip(rates_of(realized)))
}

/// Panics unless the two matrices share one `(src, dst, class)` sequence:
/// the premise of pairing their rates index by index.
fn assert_shared_endpoints(planned: &DemandMatrix, realized: &DemandMatrix) {
    const SHARED: &str = "the realized matrix must share the base demand endpoints";
    assert_eq!(planned.len(), realized.len(), "{SHARED}");
    for (p, r) in planned.iter().zip(realized.iter()) {
        assert_eq!((p.src, p.dst, p.class), (r.src, r.dst, r.class), "{SHARED}");
    }
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

/// The §7.1 lookahead of one plan generation: re-checks a pending plan
/// suffix against realized demand off the ESC cache of the searches that
/// produced the plan, read in place, sweeping on the caller's [`LiveEngine`]
/// only what that cannot decide. It keeps what the generation fixes: the
/// root-box vector of the spec's origin, and the fingerprint of
/// `spec.demands`' endpoints, taken once so that pairing a cache with it
/// costs one comparison per call. Make a new replay for every new plan.
#[derive(Debug)]
pub struct PlanReplay {
    frame: CompactState,
    endpoints: u64,
}

impl PlanReplay {
    /// The lookahead of plans for `spec`, whose origin sits at `frame` in
    /// the box of the caches it will be handed.
    pub fn new(spec: &MigrationSpec, frame: &CompactState) -> Self {
        Self {
            frame: frame.clone(),
            endpoints: endpoints_of(&spec.demands),
        }
    }

    /// Replays the `pending` phases from `progress` (its canonical state)
    /// under the `realized` demand: the remaining plan is safe iff every
    /// intermediate state keeps every demand reachable (Eq. 4) and every
    /// circuit within θ (Eq. 5). Ports, funneling headroom, space and
    /// ensemble variants are not part of the lookahead: the shadow audit
    /// judges those when the run gets there.
    ///
    /// `verdicts` is the cache of the searches that produced the plan, keyed
    /// with `spec`'s origin at this replay's frame. A pending state it
    /// measured — max utilization `u` (funneled where the search applied
    /// funneling) under planning matrix `m` — is safe without touching the
    /// engine when `u · k_m · (1 + δ) ≤ θ`, `k_m` the largest
    /// realized/planned rate ratio against `m` (see [`HEADROOM_SLACK`]).
    /// Any other state is swept under `realized`, and that verdict stands
    /// (Eq. 4 does not depend on rates: an unreachable demand is
    /// [`TripCause::Unreachable`]). The answer is therefore the one a sweep
    /// of every pending state would give; the cache saves sweeps. A cache
    /// whose matrices have other endpoints than `spec.demands` is ignored.
    ///
    /// Sweeps run on `engine`, which is left holding `realized` and the
    /// state swept last.
    ///
    /// # Panics
    /// Panics unless `realized` shares `spec.demands`' `(src, dst, class)`
    /// sequence — growth and surges only rescale rates.
    pub fn lookahead(
        &self,
        engine: &mut LiveEngine,
        verdicts: &Verdicts,
        spec: &MigrationSpec,
        progress: &CompactState,
        pending: &[PlanPhase],
        realized: &DemandMatrix,
    ) -> LookaheadVerdict {
        assert_shared_endpoints(&spec.demands, realized);
        let cache = verdicts.pairs_with(self.endpoints).then_some(verdicts);
        // `k_m` of each cache matrix, on first use.
        let mut ratios: Vec<Option<f64>> = vec![None; verdicts.matrices.len()];
        let mut loaded = false;
        let mut verdict = LookaheadVerdict::default();
        let mut s = spec.state_for(progress);
        let mut v = progress.clone();
        let mut blocks_ahead = 0usize;
        for phase in pending {
            for _ in &phase.blocks {
                spec.apply_next(&mut s, &v, phase.kind);
                v = v.advanced(phase.kind);
                blocks_ahead += 1;
                let measured =
                    cache.and_then(|c| c.measured_at(spec, &self.frame, &v, &s, Some(phase.kind)));
                if let Some((u, m)) = measured {
                    let k = *ratios[m].get_or_insert_with(|| {
                        rate_ratio(verdicts.matrices[m].iter().copied().zip(rates_of(realized)))
                    });
                    if headroom_clears(u, k, spec.theta) {
                        verdict.bound += 1;
                        continue;
                    }
                }
                if !std::mem::replace(&mut loaded, true) {
                    engine.load(spec, realized);
                }
                verdict.swept += 1;
                let exact = engine.route(spec, &s);
                let cause = if !exact.all_reachable {
                    TripCause::Unreachable {
                        demands: exact.unreachable_demands,
                    }
                } else if exact.report.violations > 0 {
                    TripCause::OverTheta {
                        utilization: exact.report.max_utilization,
                        circuit: exact.report.worst_circuit,
                    }
                } else {
                    continue;
                };
                verdict.trip = Some(LookaheadTrip {
                    state: v,
                    blocks_ahead,
                    cause,
                });
                return verdict;
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

/// Validates `plan` (as [`validate_plan`](crate::plan::validate_plan))
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
