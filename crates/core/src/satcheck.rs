//! Efficient satisfiability checking (§4.2).
//!
//! Checking the demand constraints (Eq. 4–5) and port constraints (Eq. 6)
//! dominates planning time: each check walks the whole topology. Klotski's
//! insight is that constraint satisfiability only depends on the
//! intermediate *topology*, and — with blocks consumed in canonical per-type
//! order — the topology only depends on the compact count vector `V`. The
//! checker therefore memoizes check results keyed on `V` (the ESC table
//! `T_c` of Algorithm 2).
//!
//! Three cache modes support the Figure 10 ablation:
//! - [`EscMode::Compact`]: key on `V` — the paper's design;
//! - [`EscMode::FullTopology`]: key on the entire activation bitset, as a
//!   naive implementation would (same hit rate, much more hashing and
//!   memory — the "excessive indexing overhead" the paper warns about);
//! - [`EscMode::Off`]: re-evaluate every time ("Klotski w/o ESC").
//!
//! When the funneling headroom model (§7.2) is enabled, satisfiability also
//! depends on *which* block was just drained, so the cache key gains the
//! last action type (the canonical block order makes `(V, last type)`
//! sufficient).
//!
//! Performance: the hot path is allocation-free — compact keys are the
//! mixed-radix dense index of `V` packed into a `u64` (falling back to the
//! count vector only if the target box overflows) and the usable-circuit
//! predicate is hoisted into a bitmask computed once per evaluation.
//!
//! [`SatChecker::check`] is the one entry point of both planners and the
//! validating walk, one state at a time; a caller hands over no parent
//! context. A cache miss routes on the checker's own [`LiveEngine`], built
//! with the checker over every matrix of the ensemble: the state is diffed
//! against whichever state the engine routed last (toggles from the block
//! lists of the compact diff — one block for a DP sweep step, a few for the
//! jump between two A\* pops), routing structure is re-derived only for the
//! destinations those toggles disturbed (fanned out over the
//! [`WorkerPool`]'s lanes), Eq. 6 port degrees move by the same toggles, and
//! the base matrix's loads are swept once, bit-identical at any lane count.
//! A spec with `incremental == false` — the reference the differential tests
//! compare against — routes from scratch on one sequential [`EcmpRouter`] and
//! recounts Eq. 6.
//!
//! With a traffic ensemble the verdict is the AND over its K matrices, folded
//! in index order with a short-circuit on the first failure — and the base
//! matrix is judged first and alone. Every other member has the base's
//! endpoints with rates at most `k` times the base's (`k` from
//! [`demand_ratio`], once per checker), so the headroom bound
//! ([`headroom_clears`] on the base's funneled max utilization) clears it
//! without routing; only a member the bound cannot clear gets an exact sweep
//! of its own, on the structure the base route just advanced (or from
//! scratch). Verdicts and the first failing index are those of sweeping
//! every member.
//!
//! A check that summarized the base matrix's loads as routed leaves their
//! max utilization in [`SatChecker::last_raw_utilization`] — cache hits
//! included — for the planners' headroom hand-off
//! ([`PlanOutcome::headroom`](crate::planner::PlanOutcome::headroom)).
//!
//! Live (observed, non-canonical) states are not this checker's business:
//! the run loop audits them on an engine of its own.

use crate::action::ActionTypeId;
use crate::compact::CompactState;
use crate::migration::MigrationSpec;
use crate::replay::{demand_ratio, headroom_clears, LiveEngine};
use klotski_parallel::WorkerPool;
use klotski_routing::{
    ecmp::RouteOutcome, evaluate::summarize, CsrGraph, EcmpRouter, LoadMap, UsableMask,
    UtilizationReport,
};
use klotski_telemetry::{registry, Gauge};
use klotski_topology::{CircuitId, NetState, SwitchId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache strategy for satisfiability results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EscMode {
    /// Compact-representation keys (the paper's ESC design).
    Compact,
    /// Full activation-bitset keys (naive ablation).
    FullTopology,
    /// No caching ("Klotski w/o ESC").
    Off,
}

/// Counters exposed for evaluation reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SatStats {
    /// Total satisfiability queries.
    pub checks: u64,
    /// Queries answered from the cache.
    pub cache_hits: u64,
    /// Queries the cache did not answer (every cache miss). Each was
    /// evaluated: rejected by the §7.2 space model before any routing, or
    /// routed and judged (Eq. 4–6) — so this can exceed the routing engine's
    /// advance count by the space model's rejections.
    pub full_evaluations: u64,
    /// Destination groups whose cached routing structure the incremental
    /// engine reused unchanged, over every route of the engine — a checker's
    /// cache misses, or a run's audits and lookahead sweeps, engines
    /// released included. Zero on a from-scratch checker.
    #[serde(default)]
    pub incremental_clean: u64,
    /// Destination groups whose routing structure the incremental engine
    /// patched or rebuilt.
    #[serde(default)]
    pub incremental_dirty: u64,
    /// ESC cache entries currently resident.
    #[serde(default)]
    pub esc_entries: u64,
    /// Estimated resident bytes of the ESC cache (keys + verdicts +
    /// eviction queue).
    #[serde(default)]
    pub esc_bytes: u64,
    /// Resident bytes of the incremental engine's interned per-destination
    /// circuit footprints (zero when incremental evaluation is off).
    #[serde(default)]
    pub footprint_bytes: u64,
    /// Live-state audits ([`LiveEngine::audit_live`]): evaluations of
    /// observed states outside the canonical overlay, never cached. A
    /// checker's engine only routes its cache misses, so a checker reports
    /// zero.
    #[serde(default)]
    pub live_audits: u64,
    /// Traffic-ensemble size K (0 when no ensemble is configured; every
    /// verdict is then over the single planning matrix).
    #[serde(default)]
    pub ensemble_matrices: u64,
    /// Total per-matrix evaluations across all full evaluations (for an
    /// ensemble of K matrices, each full evaluation contributes between 1
    /// and K of these, depending on where it short-circuited).
    #[serde(default)]
    pub ensemble_matrix_checks: u64,
    /// Full evaluations that failed at some ensemble matrix (and skipped
    /// the matrices after it).
    #[serde(default)]
    pub ensemble_short_circuits: u64,
}

impl SatStats {
    /// Fraction of incremental destination advances that reused the cached
    /// routing structure unchanged.
    pub fn incremental_hit_rate(&self) -> f64 {
        let total = self.incremental_clean + self.incremental_dirty;
        if total == 0 {
            0.0
        } else {
            self.incremental_clean as f64 / total as f64
        }
    }
}

/// Per-matrix satisfiability accounting of one ensemble checker: how many
/// times each matrix was evaluated, how many of those evaluations swept its
/// loads exactly, how many candidates it killed (it was the first failing
/// matrix), and the wall time spent on it. Empty when no ensemble is
/// configured. Unlike the `Copy` aggregate counters in
/// [`SatStats`], this is sized by K and lives on the checker; planners
/// surface it through `PlanOutcome.ensemble`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnsembleBreakdown {
    /// One row per ensemble matrix, in check (index) order.
    pub matrices: Vec<EnsembleMatrixStat>,
}

/// One matrix's row in an [`EnsembleBreakdown`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnsembleMatrixStat {
    /// Human-readable matrix label ("base", "ewma[a=0.35]", ...).
    pub label: String,
    /// Evaluations of this matrix: its constraint tail ran, which happens
    /// iff every earlier matrix passed.
    pub checks: u64,
    /// Candidates this matrix killed: it was the first failing matrix, so
    /// every matrix after it was skipped.
    pub kills: u64,
    /// Evaluations that swept this matrix's loads exactly: every one of the
    /// base matrix's, and those of another member's that the headroom bound
    /// could not clear.
    #[serde(default)]
    pub swept: u64,
    /// Wall time of this matrix's evaluations, nanoseconds, measured around
    /// each: the base matrix's covers the route (structure advance and
    /// sweep), its judgement and the port budgets; another member's covers
    /// the bound and, when it could not clear, the exact sweep and its
    /// judgement. A matrix skipped by the short-circuit costs nothing.
    pub wall_ns: u64,
}

impl EnsembleBreakdown {
    fn record(&mut self, k: usize, wall: Duration, swept: bool, kill: bool) {
        let row = &mut self.matrices[k];
        row.checks += 1;
        row.swept += swept as u64;
        row.kills += kill as u64;
        row.wall_ns += wall.as_nanos() as u64;
    }
}

/// Detailed outcome of one live-state audit ([`LiveEngine::audit_live`]).
///
/// Richer than the boolean verdict planners consume: a controller pausing a
/// live migration needs to know *which* constraint broke and by how much.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveAudit {
    /// True iff reachability (Eq. 4), utilization (Eq. 5), and ports
    /// (Eq. 6) all hold.
    pub safe: bool,
    /// Eq. 4: every demand has a live path.
    pub all_reachable: bool,
    /// Count of unreachable demands.
    pub unreachable_demands: usize,
    /// Highest worst-direction utilization over usable circuits.
    pub max_utilization: f64,
    /// The circuit attaining `max_utilization`, if any traffic was routed.
    pub worst_circuit: Option<CircuitId>,
    /// Number of usable circuits whose utilization exceeds θ.
    pub theta_violations: usize,
    /// Smallest residual capacity `(θ·W_c − load)` over usable circuits.
    pub min_residual_gbps: f64,
    /// Eq. 6: some switch exceeds its port budget.
    pub port_violation: bool,
}

impl LiveAudit {
    /// Human-readable description of the dominant violated constraint, or
    /// `None` when the state is safe.
    pub fn violation(&self) -> Option<String> {
        if self.safe {
            return None;
        }
        if !self.all_reachable {
            return Some(format!("{} demands unreachable", self.unreachable_demands));
        }
        if self.theta_violations > 0 {
            return Some(format!(
                "{} circuits above theta (max utilization {:.3}{})",
                self.theta_violations,
                self.max_utilization,
                self.worst_circuit
                    .map(|c| format!(" on {c}"))
                    .unwrap_or_default(),
            ));
        }
        Some("port budget exceeded".to_string())
    }
}

/// ESC cache key. Compact mode packs the dense index of `V` into a `u64`
/// (no per-probe allocation); the `Counts` fallback only exists for target
/// boxes larger than `u64` can index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Dense(u64, u8),
    Counts(Vec<u16>, u8),
    Full(NetState, u8),
}

/// The satisfiability checker with its ESC cache, routing engine, and
/// reusable routing buffers.
#[derive(Debug)]
pub struct SatChecker {
    mode: EscMode,
    /// True when the target box fits in a `u64` dense index (always, in
    /// practice: a box that overflows `u64` could never be searched anyway).
    dense_ok: bool,
    /// The from-scratch path of `incremental == false` specs.
    router: EcmpRouter,
    loads: LoadMap,
    mask: UsableMask,
    /// Reused routing-outcome buffer (no per-evaluation reallocation).
    outcome: RouteOutcome,
    /// Delta evaluation engine (`MigrationOptions.incremental`).
    incremental: Option<LiveEngine>,
    /// `demand_ratio` of each extra ensemble matrix against the base.
    ratios: Vec<f64>,
    /// Where a member the headroom bound cannot clear is swept; present iff
    /// the spec has extra matrices.
    member: Option<(LoadMap, RouteOutcome)>,
    /// Verdict and raw utilization (see `last_raw`) per key.
    cache: HashMap<CacheKey, (bool, Option<f64>)>,
    /// Insertion order of cached keys, for FIFO eviction at `cache_cap`.
    fifo: VecDeque<CacheKey>,
    cache_cap: usize,
    cache_bytes: u64,
    /// Estimated heap bytes of one `CacheKey::Full` activation bitset.
    full_key_bytes: u64,
    stats: SatStats,
    /// Per-matrix ensemble accounting (empty when no ensemble).
    ensemble: EnsembleBreakdown,
    /// Index of the matrix that failed the most recent cache-missing
    /// sequential evaluation (`None` when it passed, or no ensemble).
    last_fail_matrix: Option<usize>,
    /// Max utilization of the base matrix's raw loads on the state the most
    /// recent check judged, when that check (or the one whose cached verdict
    /// answered it) summarized them.
    last_raw: Option<f64>,
    esc_entries_gauge: Arc<Gauge>,
    esc_bytes_gauge: Arc<Gauge>,
}

/// Cache-key discriminant when the last action type is irrelevant.
const NO_LAST: u8 = u8::MAX;

/// Estimated resident bytes of one cached verdict: the key in the map, its
/// FIFO copy, and the verdict itself (a coarse but monotone estimate).
fn key_bytes(key: &CacheKey, full_key_bytes: u64) -> u64 {
    let heap = match key {
        CacheKey::Dense(..) => 0,
        CacheKey::Counts(counts, _) => 2 * counts.len() as u64,
        CacheKey::Full(..) => full_key_bytes,
    };
    2 * (std::mem::size_of::<CacheKey>() as u64 + heap)
        + std::mem::size_of::<(bool, Option<f64>)>() as u64
}

impl SatChecker {
    /// Creates a checker for one migration instance, with the lane count
    /// taken from `spec.threads`.
    pub fn new(spec: &MigrationSpec, mode: EscMode) -> Self {
        Self::with_threads(spec, mode, spec.threads)
    }

    /// Creates a checker with an explicit lane count (≥ 1) for the
    /// incremental engine; verdicts are bit-identical at every count.
    pub fn with_threads(spec: &MigrationSpec, mode: EscMode, threads: usize) -> Self {
        Self::with_pool(spec, mode, Arc::new(WorkerPool::new(threads)))
    }

    /// Creates a checker over an existing worker pool. Long-lived callers
    /// (the planning service's worker threads) share one pool across many
    /// jobs instead of spawning threads per plan; verdicts are identical to
    /// a privately-owned pool of the same lane count.
    pub fn with_pool(spec: &MigrationSpec, mode: EscMode, pool: Arc<WorkerPool>) -> Self {
        let reg = registry();
        reg.set_help(
            "klotski_esc_cache_entries",
            "Resident ESC cache entries of the most recent checker",
        );
        reg.set_help(
            "klotski_esc_cache_bytes",
            "Estimated resident bytes of the ESC cache",
        );
        // One flattened CSR view of the topology, shared read-only by the
        // from-scratch router and the incremental engine.
        let csr = Arc::new(CsrGraph::build(&spec.topology));
        let incremental = spec
            .incremental
            .then(|| LiveEngine::for_checker(spec, csr.clone(), pool));
        let extras = &spec.extra_demands;
        Self {
            mode,
            dense_ok: box_fits_u64(&spec.target_counts),
            router: EcmpRouter::from_csr(csr, spec.split),
            loads: LoadMap::new(&spec.topology),
            mask: UsableMask::new(),
            outcome: RouteOutcome::new(),
            incremental,
            ratios: extras
                .iter()
                .map(|m| demand_ratio(&spec.demands, m))
                .collect(),
            member: (!extras.is_empty())
                .then(|| (LoadMap::new(&spec.topology), RouteOutcome::new())),
            cache: HashMap::new(),
            fifo: VecDeque::new(),
            cache_cap: spec.esc_cache_cap.max(1),
            cache_bytes: 0,
            full_key_bytes: ((spec.topology.num_switches() + spec.topology.num_circuits())
                .div_ceil(8)) as u64,
            stats: SatStats::default(),
            ensemble: EnsembleBreakdown {
                matrices: if extras.is_empty() {
                    Vec::new()
                } else {
                    (0..=extras.len())
                        .map(|k| EnsembleMatrixStat {
                            label: spec
                                .ensemble_labels
                                .get(k)
                                .cloned()
                                .unwrap_or_else(|| format!("m{k}")),
                            ..EnsembleMatrixStat::default()
                        })
                        .collect()
                },
            },
            last_fail_matrix: None,
            last_raw: None,
            esc_entries_gauge: reg.gauge("klotski_esc_cache_entries"),
            esc_bytes_gauge: reg.gauge("klotski_esc_cache_bytes"),
        }
    }

    /// Counter snapshot, folding in the incremental engine's destination
    /// counters and the current ESC cache footprint.
    pub fn stats(&self) -> SatStats {
        let mut s = self.stats;
        if let Some(router) = self.incremental.as_ref().and_then(LiveEngine::router) {
            let es = router.stats();
            s.incremental_clean = es.clean_destinations;
            s.incremental_dirty = es.dirty_destinations;
            s.footprint_bytes = router.footprint_bytes();
        }
        s.esc_entries = self.cache.len() as u64;
        s.esc_bytes = self.cache_bytes;
        s.ensemble_matrices = self.ensemble.matrices.len() as u64;
        s.ensemble_matrix_checks = self.ensemble.matrices.iter().map(|m| m.checks).sum();
        s.ensemble_short_circuits = self.ensemble.matrices.iter().map(|m| m.kills).sum();
        s
    }

    /// Per-matrix ensemble accounting — who killed which candidates, what
    /// was swept, and the wall time spent on each matrix. Empty rows when no
    /// ensemble is configured.
    pub fn ensemble_breakdown(&self) -> &EnsembleBreakdown {
        &self.ensemble
    }

    /// Index of the ensemble matrix that failed the most recent
    /// cache-missing [`check`](Self::check) (`None` when the state passed
    /// all matrices, or no ensemble is configured). Test hook for the
    /// short-circuit determinism proptests.
    #[doc(hidden)]
    pub fn last_fail_matrix(&self) -> Option<usize> {
        self.last_fail_matrix
    }

    /// Max circuit utilization of the state the most recent
    /// [`check`](Self::check) judged, under the base matrix `spec.demands`,
    /// summarized from the loads as routed — bit for bit what
    /// `klotski_routing::evaluate_policy` reports for that state and matrix.
    /// `None` when that check never summarized raw loads: the space model or
    /// an unreachable demand rejected the state first, or funneling headroom
    /// was applied before the summary. A cache hit carries the value of the
    /// evaluation it answers for.
    pub fn last_raw_utilization(&self) -> Option<f64> {
        self.last_raw
    }

    /// True when this checker evaluates child states incrementally.
    pub fn is_incremental(&self) -> bool {
        self.incremental.is_some()
    }

    /// Loads the most recent full evaluation left on the checker's own
    /// buffer (diagnostic/test hook — meaningful right after a cache-missing
    /// [`check`](Self::check) that reached the θ comparison): the base
    /// matrix as judged, funneling headroom applied.
    #[doc(hidden)]
    pub fn last_loads(&self) -> &LoadMap {
        &self.loads
    }

    /// [`LiveEngine::port_budgets`] of the checker's engine; `None` on a
    /// from-scratch checker or before its first route. Test hook for the
    /// delta-against-recount oracle.
    #[doc(hidden)]
    pub fn port_budgets(&self) -> Option<(&NetState, &[u32], bool)> {
        self.incremental.as_ref()?.port_budgets()
    }

    /// Number of cached entries (for memory-footprint reporting).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Checks whether the state identified by `v` (with activation overlay
    /// `state`, which callers maintain incrementally) satisfies the demand
    /// and port constraints. `last` is the action type that produced this
    /// state (`None` for the origin); it matters only when funneling
    /// headroom is enabled.
    pub fn check(
        &mut self,
        spec: &MigrationSpec,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
    ) -> bool {
        self.check_observing(spec, v, state, last, None)
    }

    /// [`check`](Self::check) that hands `on_base` the base matrix's loads
    /// as routed — before funneling headroom is applied, before any ensemble
    /// variant is swept. The plan walk reads its audit records there. A
    /// verdict answered from the cache, or by the space model, routes
    /// nothing and never calls the observer; the walk runs with the cache
    /// off and only records states that passed.
    pub(crate) fn check_observing(
        &mut self,
        spec: &MigrationSpec,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
        on_base: Option<&mut dyn FnMut(&LoadMap)>,
    ) -> bool {
        self.stats.checks += 1;
        let key = self.key_for(spec, v, state, last);
        if let Some(&(hit, raw)) = key.as_ref().and_then(|key| self.cache.get(key)) {
            self.stats.cache_hits += 1;
            self.last_raw = raw;
            return hit;
        }
        self.stats.full_evaluations += 1;
        self.last_raw = None;
        let result = self.evaluate(spec, v, state, last, on_base);
        if let Some(key) = key {
            self.cache_insert(key, (result, self.last_raw));
        }
        result
    }

    /// Inserts a verdict, evicting the oldest entries past the cap (FIFO:
    /// planners revisit recent expansions far more often than old ones, and
    /// FIFO needs no per-hit bookkeeping on the fast path).
    fn cache_insert(&mut self, key: CacheKey, verdict: (bool, Option<f64>)) {
        match self.cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => return,
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.cache_bytes += key_bytes(slot.key(), self.full_key_bytes);
                self.fifo.push_back(slot.key().clone());
                slot.insert(verdict);
            }
        }
        while self.cache.len() > self.cache_cap {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            if self.cache.remove(&old).is_some() {
                self.cache_bytes = self
                    .cache_bytes
                    .saturating_sub(key_bytes(&old, self.full_key_bytes));
            }
        }
        self.esc_entries_gauge.set(self.cache.len() as f64);
        self.esc_bytes_gauge.set(self.cache_bytes as f64);
    }

    /// The cache key of a query, or `None` when caching is off.
    fn key_for(
        &self,
        spec: &MigrationSpec,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
    ) -> Option<CacheKey> {
        // The last action type changes the outcome only via the funneling
        // model; without it, equivalent states are exactly Definition 1.
        let last_key = if spec.funneling.is_enabled() {
            last.map(|a| a.0).unwrap_or(NO_LAST)
        } else {
            NO_LAST
        };
        match self.mode {
            EscMode::Compact => Some(if self.dense_ok {
                CacheKey::Dense(dense_u64(v, &spec.target_counts), last_key)
            } else {
                CacheKey::Counts(v.counts().to_vec(), last_key)
            }),
            EscMode::FullTopology => Some(CacheKey::Full(state.clone(), last_key)),
            EscMode::Off => None,
        }
    }

    /// The actual Eq. 4–6 evaluation on the checker's own buffers; sets
    /// `last_raw` (cleared by the caller) where it summarizes raw loads.
    fn evaluate(
        &mut self,
        spec: &MigrationSpec,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
        on_base: Option<&mut dyn FnMut(&LoadMap)>,
    ) -> bool {
        // Space/power footprint (§7.2) is the cheapest constraint: O(|A|).
        // Checked before routing, so it leaves the incremental base alone.
        if let Some(space) = &spec.space {
            if !space.fits(v) {
                return false;
            }
        }
        // Ensemble accounting is armed only when extra matrices exist, so
        // the single-matrix path pays no timing overhead.
        let t0 = (!spec.extra_demands.is_empty()).then(Instant::now);
        if let Some(engine) = &mut self.incremental {
            engine.route_into(spec, Some(v), state, &mut self.loads, &mut self.outcome);
        } else {
            self.mask.compute(&spec.topology, state);
            self.loads.clear();
            self.router.route_with_mask_into(
                &spec.topology,
                state,
                &self.mask,
                &spec.demands,
                &mut self.loads,
                &mut self.outcome,
            );
        }
        if let Some(observe) = on_base {
            observe(&self.loads);
        }
        let funneled = funneled_switches(spec, v, last);
        let base = judge(spec, state, funneled, &mut self.loads, &self.outcome);
        if funneled.is_none() {
            self.last_raw = base.as_ref().map(|r| r.max_utilization);
        }
        // Port budgets (Eq. 6) depend on the state alone, so they are judged
        // once, with the base matrix: a port failure is matrix 0's kill. The
        // engine keeps them by delta; the from-scratch path recounts.
        let ok = base.as_ref().is_some_and(|r| r.violations == 0)
            && !(spec.check_ports
                && match &self.incremental {
                    Some(engine) => engine.port_violation(),
                    None => spec.topology.has_port_violation(state),
                });
        let Some(t0) = t0 else {
            return ok;
        };
        self.ensemble.record(0, t0.elapsed(), true, !ok);
        let Some(base) = base.filter(|_| ok) else {
            self.last_fail_matrix = Some(0);
            return false;
        };
        // Every other member shares the base's endpoints, hence its
        // reachability and ports; the bound clears it off the base's summary
        // or it is swept — on the structure just advanced, or from scratch
        // with the mask already computed for `state`.
        for k in 0..spec.extra_demands.len() {
            let tk = Instant::now();
            let cleared = headroom_clears(base.max_utilization, self.ratios[k], spec.theta);
            let ok = cleared || {
                let (loads, outcome) = self.member.as_mut().expect("built with the extras");
                match &mut self.incremental {
                    Some(engine) => engine.sweep_extra(k, loads, outcome),
                    None => {
                        loads.clear();
                        self.router.route_with_mask_into(
                            &spec.topology,
                            state,
                            &self.mask,
                            &spec.extra_demands[k],
                            loads,
                            outcome,
                        );
                    }
                }
                judge(spec, state, funneled, loads, outcome).is_some_and(|r| r.violations == 0)
            };
            self.ensemble.record(k + 1, tk.elapsed(), !cleared, !ok);
            if !ok {
                self.last_fail_matrix = Some(k + 1);
                return false;
            }
        }
        self.last_fail_matrix = None;
        true
    }
}

/// The switches whose drain produced `v`, when the funneling headroom model
/// applies to this check: `last` is a drain and the model is enabled.
fn funneled_switches<'a>(
    spec: &'a MigrationSpec,
    v: &CompactState,
    last: Option<ActionTypeId>,
) -> Option<&'a [SwitchId]> {
    let a = last.filter(|_| spec.funneling.is_enabled())?;
    (spec.kind_is_drain(a) && v.count(a) > 0)
        .then(|| &spec.block_for(a, v.count(a) - 1).switches[..])
}

/// The per-matrix tail of an evaluation: reachability (Eq. 4), then
/// funneling headroom applied to `loads` and their utilization summary for
/// the θ comparison (Eq. 5). `None` when a demand is unreachable.
fn judge(
    spec: &MigrationSpec,
    state: &NetState,
    funneled: Option<&[SwitchId]>,
    loads: &mut LoadMap,
    route: &RouteOutcome,
) -> Option<UtilizationReport> {
    if !route.all_reachable() {
        return None;
    }
    let topo = &spec.topology;
    if let Some(drained) = funneled {
        spec.funneling.apply(topo, state, drained, loads);
    }
    Some(summarize(topo, state, loads, spec.theta))
}

/// True when the mixed-radix box `Π (target_i + 1)` fits in a `u64`.
fn box_fits_u64(target: &CompactState) -> bool {
    let mut size = 1u128;
    for &c in target.counts() {
        size = size.saturating_mul(c as u128 + 1);
        if size > u64::MAX as u128 {
            return false;
        }
    }
    true
}

/// Mixed-radix dense index of `v` within `target`'s box, in `u64` (only
/// valid when [`box_fits_u64`]; injective over the box, which is all a cache
/// key needs).
fn dense_u64(v: &CompactState, target: &CompactState) -> u64 {
    let mut idx = 0u64;
    for (&count, &bound) in v.counts().iter().zip(target.counts()) {
        debug_assert!(count <= bound, "count outside the target box");
        idx = idx * (bound as u64 + 1) + count as u64;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{MigrationBuilder, MigrationOptions};
    use klotski_topology::presets::{self, PresetId};
    use klotski_traffic::DemandMatrix;

    fn spec() -> MigrationSpec {
        MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &MigrationOptions::default())
            .unwrap()
    }

    #[test]
    fn origin_and_target_are_satisfiable() {
        let spec = spec();
        let mut checker = SatChecker::new(&spec, EscMode::Compact);
        let origin = CompactState::origin(spec.num_types());
        assert!(checker.check(&spec, &origin, &spec.initial, None));
        let target_state = spec.target_state();
        assert!(checker.check(&spec, &spec.target_counts, &target_state, None));
    }

    #[test]
    fn full_v1_drain_is_unsatisfiable() {
        let spec = spec();
        let mut checker = SatChecker::new(&spec, EscMode::Compact);
        let v = CompactState::from_counts(vec![spec.target_counts.counts()[0], 0]);
        let state = spec.state_for(&v);
        assert!(!checker.check(&spec, &v, &state, Some(ActionTypeId(0))));
    }

    #[test]
    fn cache_hits_on_repeat_queries() {
        let spec = spec();
        let mut checker = SatChecker::new(&spec, EscMode::Compact);
        let origin = CompactState::origin(spec.num_types());
        checker.check(&spec, &origin, &spec.initial, None);
        checker.check(&spec, &origin, &spec.initial, None);
        checker.check(&spec, &origin, &spec.initial, None);
        let s = checker.stats();
        assert_eq!(s.checks, 3);
        assert_eq!(s.full_evaluations, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(checker.cache_len(), 1);
    }

    #[test]
    fn off_mode_never_caches() {
        let spec = spec();
        let mut checker = SatChecker::new(&spec, EscMode::Off);
        let origin = CompactState::origin(spec.num_types());
        checker.check(&spec, &origin, &spec.initial, None);
        checker.check(&spec, &origin, &spec.initial, None);
        let s = checker.stats();
        assert_eq!(s.full_evaluations, 2);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(checker.cache_len(), 0);
    }

    #[test]
    fn full_topology_mode_agrees_with_compact() {
        let spec = spec();
        let mut compact = SatChecker::new(&spec, EscMode::Compact);
        let mut full = SatChecker::new(&spec, EscMode::FullTopology);
        // Walk a few states and compare verdicts.
        for counts in [vec![0, 0], vec![1, 0], vec![1, 1], vec![2, 1], vec![3, 3]] {
            let v = CompactState::from_counts(counts);
            let state = spec.state_for(&v);
            assert_eq!(
                compact.check(&spec, &v, &state, None),
                full.check(&spec, &v, &state, None),
                "modes disagree at {v}"
            );
        }
        assert_eq!(full.cache_len(), 5);
    }

    #[test]
    fn funneling_key_includes_last_action() {
        let opts = MigrationOptions {
            funneling: klotski_routing::FunnelingModel {
                headroom_factor: 1.5,
            },
            ..MigrationOptions::default()
        };
        let spec = MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts).unwrap();
        let mut checker = SatChecker::new(&spec, EscMode::Compact);
        let v = CompactState::from_counts(vec![1, 0]);
        let state = spec.state_for(&v);
        checker.check(&spec, &v, &state, Some(ActionTypeId(0)));
        checker.check(&spec, &v, &state, None);
        // Distinct cache entries because the funneling outcome differs.
        assert_eq!(checker.cache_len(), 2);
        assert_eq!(checker.stats().full_evaluations, 2);
    }

    #[test]
    fn funneling_tightens_the_verdict() {
        // A state that passes without funneling can fail with a large
        // headroom factor.
        let base = spec();
        let opts = MigrationOptions {
            funneling: klotski_routing::FunnelingModel {
                headroom_factor: 10.0,
            },
            ..MigrationOptions::default()
        };
        let funneled =
            MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts).unwrap();
        let v = CompactState::from_counts(vec![1, 0]);

        let mut c1 = SatChecker::new(&base, EscMode::Off);
        let s1 = base.state_for(&v);
        let plain = c1.check(&base, &v, &s1, Some(ActionTypeId(0)));

        let mut c2 = SatChecker::new(&funneled, EscMode::Off);
        let s2 = funneled.state_for(&v);
        let stressed = c2.check(&funneled, &v, &s2, Some(ActionTypeId(0)));

        assert!(plain, "one grid drained must be fine without funneling");
        assert!(!stressed, "x10 headroom must blow through theta");
    }

    #[test]
    fn port_failure_is_judged_once_and_charged_to_the_base_matrix() {
        let opts = MigrationOptions {
            ensemble: Some(klotski_traffic::EnsembleSpec::with_k(3, 11)),
            ..MigrationOptions::default()
        };
        let mut spec =
            MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts).unwrap();
        assert_eq!(spec.extra_demands.len(), 2);
        // Every v2 grid cabled in beside every v1 grid (floor space aside):
        // ample capacity under every matrix, but more live circuits than
        // the shared switches have ports.
        spec.space = None;
        let v = CompactState::from_counts(vec![0, spec.target_counts.counts()[1]]);
        let state = spec.state_for(&v);
        assert!(!spec.topology.port_violations(&state).is_empty());
        let mut unported = spec.clone();
        unported.check_ports = false;
        assert!(SatChecker::new(&unported, EscMode::Off).check(&unported, &v, &state, None));

        let mut checker = SatChecker::new(&spec, EscMode::Off);
        assert!(!checker.check(&spec, &v, &state, None));
        assert_eq!(checker.last_fail_matrix(), Some(0));
        let rows = &checker.ensemble_breakdown().matrices;
        assert_eq!((rows[0].checks, rows[0].swept, rows[0].kills), (1, 1, 1));
        assert!(rows[1..].iter().all(|m| m.checks == 0 && m.kills == 0));
    }

    #[test]
    fn an_ensemble_check_is_one_advance_one_base_sweep_and_one_sweep_per_uncleared_member() {
        let opts = MigrationOptions {
            ensemble: Some(klotski_traffic::EnsembleSpec::with_k(8, 11)),
            ..MigrationOptions::default()
        };
        let mut spec =
            MigrationBuilder::hgrid_v1_to_v2(&presets::build(PresetId::A), &opts).unwrap();
        assert_eq!(spec.extra_demands.len(), 7);
        spec.space = None; // every check routes
        let mut checker = SatChecker::new(&spec, EscMode::Off);
        // The members a check gets to that the bound cannot clear, counted
        // from scratch: the fold stops at the base or at the first failing
        // member.
        let uncleared = |state: &NetState| {
            let route = |m: &DemandMatrix| {
                klotski_routing::evaluate_policy(&spec.topology, state, m, spec.theta, spec.split)
            };
            let base = route(&spec.demands);
            if !base.satisfied() || !spec.topology.port_violations(state).is_empty() {
                return 0;
            }
            let mut swept = 0;
            for m in &spec.extra_demands {
                let k = demand_ratio(&spec.demands, m);
                if !headroom_clears(base.report.max_utilization, k, spec.theta) {
                    swept += 1;
                    if !route(m).satisfied() {
                        break;
                    }
                }
            }
            swept
        };
        // A walk with sibling and cousin jumps: every child of each state
        // along a feasible chain, checked one after the other.
        let mut v = CompactState::origin(spec.num_types());
        let mut state = spec.initial.clone();
        let (mut checks, mut accepted, mut expected_sweeps) = (0, 0, 0);
        for _ in 0..6 {
            let children: Vec<_> = spec
                .actions
                .ids()
                .filter(|&a| v.count(a) < spec.target_counts.count(a))
                .map(|a| {
                    let mut s = state.clone();
                    spec.apply_next(&mut s, &v, a);
                    (v.advanced(a), s, a)
                })
                .collect();
            let verdicts: Vec<bool> = children
                .iter()
                .map(|(v, s, a)| checker.check(&spec, v, s, Some(*a)))
                .collect();
            checks += children.len() as u64;
            accepted += verdicts.iter().filter(|&&ok| ok).count() as u64;
            expected_sweeps += children.iter().map(|(_, s, _)| uncleared(s)).sum::<u64>();
            let next = verdicts
                .iter()
                .rposition(|&ok| ok)
                .expect("a feasible child");
            (v, state) = (children[next].0.clone(), children[next].1.clone());
        }
        let engine = checker
            .incremental
            .as_ref()
            .and_then(LiveEngine::router)
            .unwrap()
            .stats();
        assert!(accepted < checks, "the walk meets rejections");
        assert!(
            expected_sweeps > 0,
            "the walk meets a member the bound cannot clear"
        );
        assert_eq!(engine.evaluations, checks, "one advance per check");
        assert_eq!(engine.extra_replays, expected_sweeps);
        assert_eq!(engine.sweeps, engine.evaluations + engine.extra_replays);
        let rows = &checker.ensemble_breakdown().matrices;
        assert_eq!((rows[0].checks, rows[0].swept), (checks, checks));
        assert_eq!(
            rows[1..].iter().map(|m| m.swept).sum::<u64>(),
            expected_sweeps
        );
        assert!(rows.iter().all(|m| m.swept <= m.checks));
        assert_eq!(
            rows[7].checks, accepted,
            "the last matrix judges what all others passed"
        );
        assert_eq!(rows.iter().map(|m| m.kills).sum::<u64>(), checks - accepted);
    }

    #[test]
    fn dense_u64_is_injective_over_a_small_box() {
        let target = CompactState::from_counts(vec![3, 2, 4]);
        assert!(box_fits_u64(&target));
        let mut seen = std::collections::HashSet::new();
        for a in 0..=3u16 {
            for b in 0..=2u16 {
                for c in 0..=4u16 {
                    let v = CompactState::from_counts(vec![a, b, c]);
                    assert!(seen.insert(dense_u64(&v, &target)), "collision at {v}");
                }
            }
        }
        let huge = CompactState::from_counts(vec![u16::MAX; 5]);
        assert!(!box_fits_u64(&huge));
    }

    #[test]
    fn check_walk_agrees_across_thread_counts_and_cache_modes() {
        let spec = spec();
        let states: Vec<(CompactState, NetState)> = [
            vec![0, 0],
            vec![1, 0],
            vec![1, 1],
            vec![2, 1],
            vec![3, 0],
            vec![2, 4],
            vec![3, 6],
        ]
        .into_iter()
        .map(|c| {
            let v = CompactState::from_counts(c);
            let s = spec.state_for(&v);
            (v, s)
        })
        .collect();
        let items: Vec<(&CompactState, &NetState, Option<ActionTypeId>)> = states
            .iter()
            .map(|(v, s)| (v, s, Some(ActionTypeId(0))))
            .collect();

        let mut reference = SatChecker::with_threads(&spec, EscMode::Off, 1);
        let expected: Vec<bool> = items
            .iter()
            .map(|&(v, s, l)| reference.check(&spec, v, s, l))
            .collect();

        for threads in [1, 2, 4] {
            for mode in [EscMode::Compact, EscMode::FullTopology, EscMode::Off] {
                let mut checker = SatChecker::with_threads(&spec, mode, threads);
                // The same item order (jumps of several blocks between
                // items); a second pass answers from the cache (or
                // re-evaluates in Off mode) with identical verdicts.
                for pass in 0..2 {
                    let got: Vec<bool> = items
                        .iter()
                        .map(|&(v, s, l)| checker.check(&spec, v, s, l))
                        .collect();
                    assert_eq!(
                        got, expected,
                        "{mode:?} with {threads} threads, pass {pass}"
                    );
                }
            }
        }
    }

    #[test]
    fn identical_keys_share_one_evaluation() {
        let spec = spec();
        let mut checker = SatChecker::with_threads(&spec, EscMode::Compact, 4);
        let v = CompactState::from_counts(vec![1, 1]);
        let state = spec.state_for(&v);
        // Funneling off: the last action type is not part of the key, so
        // both queries share one evaluation.
        let first = checker.check(&spec, &v, &state, Some(ActionTypeId(0)));
        let second = checker.check(&spec, &v, &state, Some(ActionTypeId(1)));
        assert_eq!(first, second);
        let s = checker.stats();
        assert_eq!(s.checks, 2);
        assert_eq!(s.full_evaluations, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(checker.cache_len(), 1);
    }
}
