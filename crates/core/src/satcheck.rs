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
//! mixed-radix dense index of `V` packed into a `u64` and the usable-circuit
//! predicate is hoisted into a bitmask computed once per evaluation.
//!
//! [`SatChecker::check`] is the one entry point of both planners and the
//! validating walk, one state at a time; a caller hands over no parent
//! context. A cache miss routes on the checker's own [`LiveEngine`], built
//! with the checker over every matrix of the ensemble: the state is diffed
//! against whichever state the engine routed last by their bit words (one
//! block apart for a DP sweep step, a few for the jump between two A\*
//! pops), routing structure is re-derived only for the destinations those
//! toggles disturbed (fanned out over the [`WorkerPool`]'s lanes), Eq. 6
//! port degrees move by the same toggles, and the base matrix's loads are
//! swept once, bit-identical at any lane count. A spec with `incremental ==
//! false` routes on the same engine without a delta: every destination is
//! rebuilt and Eq. 6 degrees are recounted on every route. The checker has
//! no other routing path; the independent reference the differential tests
//! hold it to lives with those tests.
//!
//! With a traffic ensemble the verdict is the AND over its K matrices, folded
//! in index order with a short-circuit on the first failure — and the base
//! matrix is judged first and alone. Every other member has the base's
//! endpoints with rates at most `k` times the base's (`k` from
//! [`demand_ratio`], once per checker), so the headroom bound
//! ([`headroom_clears`] on the base's funneled max utilization) clears it
//! without routing; only a member the bound cannot clear gets an exact sweep
//! of its own, on the structure the base route just advanced. Verdicts and
//! the first failing index are those of sweeping every member.
//!
//! Every entry keeps what its evaluation measured — the constraint that
//! decided it, the base matrix's judged (funneled) max utilization `u` and
//! the planning matrix it routed — so the cache outlives its search
//! ([`Verdicts`]). A replan's checker can be handed the cache of the
//! searches before it ([`Prior`]): keys index the box of the run's root
//! spec, a residual's vector `v` as `frame + v`, and a state they judged
//! under an earlier matrix is decided by the two-sided rescaling bound
//! where it can be ([`headroom_clears`] with the largest realized/planned
//! rate ratio, [`headroom_rejects`] with the smallest), routed where it
//! cannot. The planners hand the cache on beside their outcome
//! ([`Planner::plan_seeded`](crate::planner::Planner::plan_seeded)), and the
//! lookahead reads it in place
//! ([`PlanReplay::lookahead`](crate::PlanReplay::lookahead)).
//!
//! A cache can also outlive its request. Two specs built from one document
//! under other names, with the same θ and ensemble, answer every check
//! alike, so a finished search's cache can seed the other's search
//! ([`Verdicts::adopt`]): the cache's basis is re-pointed at the new spec's
//! topology, and when the new base rates are the cache's last matrix bit
//! for bit the search resumes under that matrix's index — every inherited
//! entry is a plain hit and no matrix is added. Which specs are alike is
//! the caller's key to keep; the planning daemon keeps each search's cache
//! beside its cached plan, keyed on the name-blanked document and those
//! options, and validates every plan from a cold cache. A cache holds its
//! topology weakly, so a stored one keeps no network alive. Nothing else
//! keeps a cache between requests.
//!
//! Live (observed, non-canonical) states are not this checker's business:
//! the run loop audits them on an engine of its own.

use crate::action::ActionTypeId;
use crate::compact::CompactState;
use crate::migration::MigrationSpec;
use crate::replay::{
    demand_ratio, endpoints_of, headroom_clears, headroom_rejects, rate_floor, rate_ratio,
    rates_of, LiveEngine,
};
use klotski_parallel::WorkerPool;
use klotski_routing::{
    ecmp::RouteOutcome, evaluate::summarize, FunnelingModel, LoadMap, SplitPolicy,
    UtilizationReport,
};
use klotski_topology::{CircuitId, NetState, SwitchId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};
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
    /// Queries answered from the cache: an entry decided under this
    /// checker's planning matrix.
    pub cache_hits: u64,
    /// Queries neither a hit nor the rescaling bound answered. Each was
    /// evaluated: rejected by the §7.2 space model before any routing, or
    /// routed and judged (Eq. 4–6) — so this can exceed the routing engine's
    /// advance count by the space model's rejections.
    pub full_evaluations: u64,
    /// Queries decided off an entry an earlier search judged under another
    /// planning matrix, without routing: a rate-independent failure
    /// (unreachable demand, port budget) or the two-sided rescaling bound
    /// on the `u` it measured. Zero without a [`Prior`].
    #[serde(default)]
    pub rescaled: u64,
    /// Destination groups whose cached routing structure the incremental
    /// engine reused unchanged, over every route of the engine — a checker's
    /// cache misses, or a run's audits and lookahead sweeps, engines
    /// released included. Zero on a spec routed without deltas.
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
/// (no per-probe allocation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Dense(u64, u8),
    Full(NetState, u8),
}

/// The constraint that decided an exact evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Every constraint held under every matrix.
    Pass,
    /// Reachable, within the port budgets, and some matrix put a circuit
    /// over θ.
    OverTheta,
    /// Eq. 4: a demand has no live path — under any rates.
    Unreachable,
    /// Eq. 6, judged before θ: a switch over its port budget — under any
    /// rates.
    Ports,
    /// §7.2: the compact vector overflows the floor space; nothing routed.
    Space,
}

/// One ESC entry: the verdict under the planning matrix that last decided
/// the state, and what the last exact evaluation of the state measured.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The verdict under matrix `decided` (an index into
    /// [`Verdicts::matrices`]), exact or by the rescaling bound.
    pass: bool,
    decided: u16,
    /// The last exact evaluation: what decided it, the base matrix's judged
    /// max utilization (NaN where nothing was summarized: space,
    /// unreachable), and the matrix it routed.
    class: Class,
    u: f64,
    matrix: u16,
}

impl Entry {
    /// The measured `u`, when the evaluation summarized one: the state is
    /// then reachable (Eq. 4 is rate-independent, so under every matrix).
    fn utilization(&self) -> Option<f64> {
        matches!(self.class, Class::Pass | Class::OverTheta | Class::Ports).then_some(self.u)
    }
}

/// What every entry of a cache rests on besides the state and the planning
/// matrix: the box its keys index (the target counts of the spec generation
/// it was started for, the run's *root*), its key kind, and the topology
/// (held weakly: compared by address, never read), split and constraint
/// models of every generation that fills it. Not θ: a
/// measured `u` is θ-free, and the bound reads θ afresh. (A plain hit's
/// `pass` was judged against θ: a run keeps one, and whoever adopts a cache
/// across requests keys it on θ.)
#[derive(Debug, Clone)]
struct Basis {
    target: CompactState,
    mode: EscMode,
    topology: Weak<Topology>,
    check_ports: bool,
    funneling: FunnelingModel,
    split: SplitPolicy,
}

impl Basis {
    fn of(spec: &MigrationSpec, mode: EscMode) -> Self {
        Self {
            target: spec.target_counts.clone(),
            mode,
            topology: Arc::downgrade(&spec.topology),
            check_ports: spec.check_ports,
            funneling: spec.funneling,
            split: spec.split,
        }
    }

    /// True when `spec`, its origin at `frame` in this box, is a generation
    /// of the same run: same topology, split, ports and funneling, and
    /// `frame + spec.target_counts` is the root's target.
    fn admits(&self, spec: &MigrationSpec, frame: &CompactState) -> bool {
        let remaining = spec.target_counts.counts();
        // The allocation outlives every `Weak` to it, so an equal address
        // is the same topology.
        std::ptr::eq(Weak::as_ptr(&self.topology), Arc::as_ptr(&spec.topology))
            && self.check_ports == spec.check_ports
            && self.funneling == spec.funneling
            && self.split == spec.split
            && frame.num_types() == remaining.len()
            && self.target.num_types() == remaining.len()
            && (self.target.counts().iter())
                .zip(frame.counts())
                .zip(remaining)
                .all(|((&t, &f), &r)| u32::from(t) == u32::from(f) + u32::from(r))
    }
}

/// The ESC cache as one search leaves it for the next: each state's verdict
/// and what decided it (see [`SatChecker::check`]), with the rates of the
/// planning matrices the entries were judged under. Keys index the box of
/// the spec generation the cache was started for; a later generation of
/// the same run keys its vector `v` as `frame + v` ([`Prior`]). The default
/// value is empty and fits no spec.
#[derive(Debug, Clone, Default)]
pub struct Verdicts {
    basis: Option<Basis>,
    entries: HashMap<CacheKey, Entry>,
    /// Insertion order of the keys, for FIFO eviction at the cap.
    fifo: VecDeque<CacheKey>,
    /// Estimated resident bytes (keys + entries + eviction queue).
    bytes: u64,
    /// The rates of every planning matrix an entry was judged under, in
    /// search order; all pair index by index, their `(src, dst, class)`
    /// sequence fingerprinted in `endpoints`.
    pub(crate) matrices: Vec<Vec<f64>>,
    endpoints: u64,
    /// Set by [`adopt`](Self::adopt): the next search resumes under the
    /// last matrix when its base rates are that matrix, bit for bit.
    resumes: bool,
}

impl Verdicts {
    /// True when a search of `spec`, its origin at root-box vector `frame`,
    /// can be handed this cache: it was started for a generation of the
    /// same run (same topology, split, ports and funneling; `frame +
    /// spec.target_counts` its target) and every matrix in it has
    /// `spec.demands`' endpoints. It cannot tell whether `spec.initial` is
    /// the root's canonical overlay at `frame` — the caller vouches for that
    /// (the run loop compares the observed state with it).
    pub(crate) fn fits(&self, spec: &MigrationSpec, frame: &CompactState) -> bool {
        self.basis.as_ref().is_some_and(|b| b.admits(spec, frame))
            // Room for the search's own matrix among `u16` indices.
            && self.matrices.len() < usize::from(u16::MAX)
            && self.pairs_with(endpoints_of(&spec.demands))
    }

    /// True when `endpoints` ([`endpoints_of`] a matrix) is the `(src, dst,
    /// class)` sequence of every matrix in the cache (vacuously, with none).
    pub(crate) fn pairs_with(&self, endpoints: u64) -> bool {
        self.matrices.is_empty() || self.endpoints == endpoints
    }

    /// The prior a search of `spec` may be handed from this cache, `root`
    /// being the spec it was started for and `frame` the vector of `root`'s
    /// box at which `spec` has its origin: the cache, taken, when it fits
    /// (same topology, split, ports and funneling; `frame +
    /// spec.target_counts` its box; every matrix with `spec.demands`'
    /// endpoints) and `spec.initial` is exactly `root`'s canonical overlay
    /// of `frame` — the premise of every key it holds; `None`, the cache
    /// left in place, otherwise (a failure or foreign drain still active,
    /// say).
    pub fn prior_for(
        &mut self,
        root: &MigrationSpec,
        frame: &CompactState,
        spec: &MigrationSpec,
    ) -> Option<Prior> {
        let rooted = self
            .basis
            .as_ref()
            .is_some_and(|b| b.target == root.target_counts);
        (rooted && self.fits(spec, frame) && spec.initial == root.state_for(frame)).then(|| Prior {
            verdicts: std::mem::take(self),
            frame: frame.clone(),
        })
    }

    /// The prior a search of `spec` may be handed from the cache a finished
    /// search of another spec left, the caller vouching that the two answer
    /// every check alike — the same network, initial state, blocks, demand,
    /// θ and ensemble under other names. The cache is taken when it was
    /// started at its root's origin for `spec`'s box, split, ports and
    /// funneling, and every matrix in it has `spec.demands`' endpoints: its
    /// basis is then re-pointed at `spec.topology`, and the search resumes
    /// under the cache's last matrix when `spec.demands` has its rates bit
    /// for bit — inherited entries are plain hits and no matrix is added.
    /// `None`, the cache dropped, otherwise. A wrong vouch can mislead the
    /// search; a validating walk from a cold cache still refuses any unsafe
    /// plan it finds.
    pub fn adopt(mut self, spec: &MigrationSpec) -> Option<Prior> {
        self.basis.as_mut()?.topology = Arc::downgrade(&spec.topology);
        let frame = CompactState::origin(spec.num_types());
        self.fits(spec, &frame).then(|| {
            self.resumes = true;
            Prior {
                verdicts: self,
                frame,
            }
        })
    }

    /// What the last exact evaluation of `(v, last)` — `v` a vector of the
    /// generation whose origin sits at `frame`, `state` its canonical
    /// overlay — measured: the base matrix's judged max utilization and the
    /// rates of the planning matrix it was routed under, in demand order.
    /// `None` without an entry, or where that evaluation summarized nothing
    /// (space, unreachable).
    pub fn measured(
        &self,
        spec: &MigrationSpec,
        frame: &CompactState,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
    ) -> Option<(f64, &[f64])> {
        let (u, matrix) = self.measured_at(spec, frame, v, state, last)?;
        Some((u, &self.matrices[matrix]))
    }

    /// [`measured`](Self::measured), naming the matrix by its index in
    /// `matrices`.
    pub(crate) fn measured_at(
        &self,
        spec: &MigrationSpec,
        frame: &CompactState,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
    ) -> Option<(f64, usize)> {
        let key = self.key(spec, frame.counts(), v, state, last)?;
        let entry = self.entries.get(&key)?;
        Some((entry.utilization()?, usize::from(entry.matrix)))
    }

    /// The cache key of a query, or `None` when caching is off (or the
    /// cache has no basis).
    fn key(
        &self,
        spec: &MigrationSpec,
        frame: &[u16],
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
    ) -> Option<CacheKey> {
        let basis = self.basis.as_ref()?;
        // The last action type changes the outcome only via the funneling
        // model; without it, equivalent states are exactly Definition 1.
        let last_key = if spec.funneling.is_enabled() {
            last.map(|a| a.0).unwrap_or(NO_LAST)
        } else {
            NO_LAST
        };
        match basis.mode {
            EscMode::Compact => Some(CacheKey::Dense(
                dense_u64(v, frame, &basis.target),
                last_key,
            )),
            EscMode::FullTopology => Some(CacheKey::Full(state.clone(), last_key)),
            EscMode::Off => None,
        }
    }

    /// Records `entry` under `key` — over whatever the key held — evicting
    /// the oldest keys past [`ESC_CACHE_CAP`] (FIFO: planners revisit recent
    /// expansions far more often than old ones, and FIFO needs no per-hit
    /// bookkeeping on the fast path).
    fn insert(&mut self, key: CacheKey, entry: Entry, full_key_bytes: u64) {
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                slot.insert(entry);
                return;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.bytes += key_bytes(slot.key(), full_key_bytes);
                self.fifo.push_back(slot.key().clone());
                slot.insert(entry);
            }
        }
        while self.entries.len() > ESC_CACHE_CAP {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            if self.entries.remove(&old).is_some() {
                self.bytes = self.bytes.saturating_sub(key_bytes(&old, full_key_bytes));
            }
        }
    }
}

/// The ESC cache of the searches before this one, handed to a search of a
/// later spec generation of the same run ([`Verdicts::prior_for`]).
#[derive(Debug, Clone)]
pub struct Prior {
    /// The cache, as the last search left it.
    pub verdicts: Verdicts,
    /// The vector of the cache's root box at which this search's spec has
    /// its origin: its `v` keys as `frame + v`.
    pub frame: CompactState,
}

/// The satisfiability checker with its ESC cache, routing engine, and
/// reusable routing buffers.
#[derive(Debug)]
pub struct SatChecker {
    loads: LoadMap,
    /// Reused routing-outcome buffer (no per-evaluation reallocation).
    outcome: RouteOutcome,
    /// The engine every cache miss routes on.
    engine: LiveEngine,
    /// `demand_ratio` of each extra ensemble matrix against the base.
    ratios: Vec<f64>,
    /// Where a member the headroom bound cannot clear is swept; present iff
    /// the spec has extra matrices.
    member: Option<(LoadMap, RouteOutcome)>,
    /// The ESC cache: this search's entries and any its prior handed down.
    cache: Verdicts,
    /// The root-box vector of this spec's origin, per type (all zeros
    /// without a prior).
    frame: Vec<u16>,
    /// Index of `spec.demands` in the cache's matrices.
    current: u16,
    /// Whether an entry judged under an earlier matrix may decide a check:
    /// compact keys and a single planning matrix.
    inherits: bool,
    /// `(k_hi, k_lo)` of each matrix of the cache against `spec.demands`,
    /// computed on first use.
    rescale: Vec<Option<(f64, f64)>>,
    /// Estimated heap bytes of one `CacheKey::Full` activation bitset.
    full_key_bytes: u64,
    stats: SatStats,
    /// Per-matrix ensemble accounting (empty when no ensemble).
    ensemble: EnsembleBreakdown,
    /// Index of the matrix that failed the most recent cache-missing
    /// sequential evaluation (`None` when it passed, or no ensemble).
    last_fail_matrix: Option<usize>,
}

/// Cache-key discriminant when the last action type is irrelevant.
const NO_LAST: u8 = u8::MAX;

/// Entries the ESC cache holds before it evicts its oldest: far above what
/// any preset search visits, so the cap bounds memory without changing a
/// search.
const ESC_CACHE_CAP: usize = 1 << 20;

/// Estimated resident bytes of one cached verdict: the key in the map, its
/// FIFO copy, and the entry itself (a coarse but monotone estimate).
fn key_bytes(key: &CacheKey, full_key_bytes: u64) -> u64 {
    let heap = match key {
        CacheKey::Dense(..) => 0,
        CacheKey::Full(..) => full_key_bytes,
    };
    2 * (std::mem::size_of::<CacheKey>() as u64 + heap) + std::mem::size_of::<Entry>() as u64
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
        Self::with_prior(spec, mode, pool, None)
    }

    /// [`with_pool`](Self::with_pool), starting from the cache of the
    /// searches before this one when `prior` fits `spec` (as
    /// [`Verdicts::prior_for`] checks) and was filled in `mode`; any other
    /// prior is dropped and the checker starts empty, keyed by its own
    /// spec's box. Verdicts are the same either way.
    pub fn with_prior(
        spec: &MigrationSpec,
        mode: EscMode,
        pool: Arc<WorkerPool>,
        prior: Option<Prior>,
    ) -> Self {
        let prior = prior.filter(|p| {
            p.verdicts.basis.as_ref().is_some_and(|b| b.mode == mode)
                && p.verdicts.fits(spec, &p.frame)
        });
        let (mut cache, frame) = match prior {
            Some(p) => (p.verdicts, p.frame.counts().to_vec()),
            None => (
                Verdicts {
                    basis: Some(Basis::of(spec, mode)),
                    ..Verdicts::default()
                },
                vec![0; spec.num_types()],
            ),
        };
        cache.endpoints = endpoints_of(&spec.demands);
        let resumed = std::mem::take(&mut cache.resumes)
            && (cache.matrices.last()).is_some_and(|m| {
                m.iter()
                    .map(|r| r.to_bits())
                    .eq(rates_of(&spec.demands).map(f64::to_bits))
            });
        if !resumed {
            cache.matrices.push(rates_of(&spec.demands).collect());
        }
        let current = (cache.matrices.len() - 1) as u16;
        let extras = &spec.extra_demands;
        Self {
            loads: LoadMap::new(&spec.topology),
            outcome: RouteOutcome::new(),
            engine: LiveEngine::new(spec, pool),
            ratios: extras
                .iter()
                .map(|m| demand_ratio(&spec.demands, m))
                .collect(),
            member: (!extras.is_empty())
                .then(|| (LoadMap::new(&spec.topology), RouteOutcome::new())),
            rescale: vec![None; cache.matrices.len()],
            cache,
            frame,
            current,
            inherits: mode == EscMode::Compact && extras.is_empty(),
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
        }
    }

    /// The checker's ESC cache, to hand to the next search of the run.
    pub fn into_verdicts(self) -> Verdicts {
        self.cache
    }

    /// Counter snapshot, folding in the incremental engine's destination
    /// counters and the current ESC cache footprint.
    pub fn stats(&self) -> SatStats {
        let mut s = self.stats;
        if let Some(router) = self.engine.router() {
            let es = router.stats();
            s.incremental_clean = es.clean_destinations;
            s.incremental_dirty = es.dirty_destinations;
        }
        s.esc_entries = self.cache.entries.len() as u64;
        s.esc_bytes = self.cache.bytes;
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

    /// Loads the most recent full evaluation left on the checker's own
    /// buffer (diagnostic/test hook — meaningful right after a cache-missing
    /// [`check`](Self::check) that reached the θ comparison): the base
    /// matrix as judged, funneling headroom applied.
    #[doc(hidden)]
    pub fn last_loads(&self) -> &LoadMap {
        &self.loads
    }

    /// [`LiveEngine::port_budgets`] of the checker's engine; `None` before
    /// its first route. Test hook for the delta-against-recount oracle.
    #[doc(hidden)]
    pub fn port_budgets(&self) -> Option<(&NetState, &[u32], bool)> {
        self.engine.port_budgets()
    }

    /// Number of cached entries (for memory-footprint reporting).
    pub fn cache_len(&self) -> usize {
        self.cache.entries.len()
    }

    /// Checks whether the state identified by `v` (with activation overlay
    /// `state`, which callers maintain incrementally) satisfies the demand
    /// and port constraints. `last` is the action type that produced this
    /// state (`None` for the origin); it matters only when funneling
    /// headroom is enabled.
    ///
    /// An ESC entry decided under this checker's planning matrix answers at
    /// once (`cache_hits`). One an earlier search judged under another
    /// matrix — handed down in a [`Prior`] — decides the state without
    /// routing where it can (`rescaled`; compact keys and a single matrix
    /// only): after the O(|A|) space model passes `v`, an unreachable
    /// demand or an exceeded port budget fails under any rates, and a
    /// measured `u` passes when `u · k_hi · (1 + δ) ≤ θ` and fails when
    /// `u · k_lo · (1 − δ) > θ` — `k_hi` / `k_lo` the largest / smallest
    /// rate ratio of this matrix over that one ([`headroom_clears`],
    /// [`headroom_rejects`]). The same state routes the same structure, and
    /// the sweep is linear and monotone in the rates, so either answer is
    /// the route's. Everything else is evaluated (`full_evaluations`) and
    /// its entry overwritten under this matrix.
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
        let key = self.cache.key(spec, &self.frame, v, state, last);
        if let Some(key) = &key {
            if let Some(&entry) = self.cache.entries.get(key) {
                if entry.decided == self.current {
                    self.stats.cache_hits += 1;
                    return entry.pass;
                }
                if let Some(pass) = self.rescaled(spec, v, &entry) {
                    self.stats.rescaled += 1;
                    let entry = self.cache.entries.get_mut(key).expect("just read");
                    (entry.pass, entry.decided) = (pass, self.current);
                    return pass;
                }
            }
        }
        self.stats.full_evaluations += 1;
        let (pass, class, u) = self.evaluate(spec, v, state, last, on_base);
        if let Some(key) = key {
            let entry = Entry {
                pass,
                decided: self.current,
                class,
                u,
                matrix: self.current,
            };
            self.cache.insert(key, entry, self.full_key_bytes);
        }
        pass
    }

    /// The verdict `entry`, judged under an earlier matrix, gives `v`
    /// without routing — `None` when only an evaluation can tell (see
    /// [`check`](Self::check)).
    fn rescaled(&mut self, spec: &MigrationSpec, v: &CompactState, entry: &Entry) -> Option<bool> {
        if !self.inherits || spec.space.as_ref().is_some_and(|s| !s.fits(v)) {
            return None;
        }
        match entry.class {
            Class::Unreachable | Class::Ports => Some(false),
            Class::Space => None,
            Class::Pass | Class::OverTheta => {
                let planned = &self.cache.matrices[usize::from(entry.matrix)];
                let (k_hi, k_lo) =
                    *self.rescale[usize::from(entry.matrix)].get_or_insert_with(|| {
                        let pairs = || planned.iter().copied().zip(rates_of(&spec.demands));
                        (rate_ratio(pairs()), rate_floor(pairs()))
                    });
                if headroom_clears(entry.u, k_hi, spec.theta) {
                    Some(true)
                } else if headroom_rejects(entry.u, k_lo, spec.theta) {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }

    /// The actual Eq. 4–6 evaluation on the checker's own buffers: the
    /// verdict, the constraint that decided it, and the base matrix's judged
    /// max utilization (NaN where nothing was summarized).
    fn evaluate(
        &mut self,
        spec: &MigrationSpec,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
        on_base: Option<&mut dyn FnMut(&LoadMap)>,
    ) -> (bool, Class, f64) {
        // Space/power footprint (§7.2) is the cheapest constraint: O(|A|).
        // Checked before routing, so it leaves the incremental base alone.
        if let Some(space) = &spec.space {
            if !space.fits(v) {
                return (false, Class::Space, f64::NAN);
            }
        }
        // Ensemble accounting is armed only when extra matrices exist, so
        // the single-matrix path pays no timing overhead.
        let t0 = (!spec.extra_demands.is_empty()).then(Instant::now);
        (self.engine).route_into(spec, state, &mut self.loads, &mut self.outcome);
        if let Some(observe) = on_base {
            observe(&self.loads);
        }
        let funneled = funneled_switches(spec, v, last);
        let base = judge(spec, state, funneled, &mut self.loads, &self.outcome);
        let u = base.as_ref().map_or(f64::NAN, |r| r.max_utilization);
        // Port budgets (Eq. 6) depend on the state alone, so they are judged
        // once, with the base matrix and before θ — an entry over θ is then
        // known within its ports: a port failure is matrix 0's kill. The
        // engine keeps them beside the state it routed.
        let ports = base.is_some() && spec.check_ports && self.engine.port_violation();
        let class = match &base {
            None => Class::Unreachable,
            Some(_) if ports => Class::Ports,
            Some(r) if r.violations > 0 => Class::OverTheta,
            Some(_) => Class::Pass,
        };
        let ok = class == Class::Pass;
        let Some(t0) = t0 else {
            return (ok, class, u);
        };
        self.ensemble.record(0, t0.elapsed(), true, !ok);
        if !ok {
            self.last_fail_matrix = Some(0);
            return (false, class, u);
        }
        // Every other member shares the base's endpoints, hence its
        // reachability and ports; the bound clears it off the base's summary
        // or it is swept on the structure just advanced.
        for k in 0..spec.extra_demands.len() {
            let tk = Instant::now();
            let cleared = headroom_clears(u, self.ratios[k], spec.theta);
            let ok = cleared || {
                let (loads, outcome) = self.member.as_mut().expect("built with the extras");
                self.engine.sweep_extra(k, loads, outcome);
                judge(spec, state, funneled, loads, outcome).is_some_and(|r| r.violations == 0)
            };
            self.ensemble.record(k + 1, tk.elapsed(), !cleared, !ok);
            if !ok {
                self.last_fail_matrix = Some(k + 1);
                return (false, Class::OverTheta, u);
            }
        }
        self.last_fail_matrix = None;
        (true, Class::Pass, u)
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

/// Mixed-radix dense index of `frame + v` within `target`'s box, in `u64`:
/// injective over the box, which is all a cache key needs. Every builder
/// makes two action types of at most `u16::MAX` blocks each, so a box has
/// at most 2³² states.
fn dense_u64(v: &CompactState, frame: &[u16], target: &CompactState) -> u64 {
    let mut idx = 0u64;
    for ((&count, &at), &bound) in v.counts().iter().zip(frame).zip(target.counts()) {
        let count = count + at;
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
        let engine = checker.engine.router().unwrap().stats();
        assert!(accepted < checks, "the walk meets rejections");
        assert!(
            expected_sweeps > 0,
            "the walk meets a member the bound cannot clear"
        );
        assert_eq!(engine.evaluations, checks, "one advance per check");
        assert_eq!(engine.extra_replays, expected_sweeps);
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
    fn a_replan_whose_checks_are_all_inherited_builds_no_engine() {
        let root = spec();
        let frame = CompactState::from_counts(vec![1, 1]);
        let successors: Vec<_> = (root.actions.ids())
            .map(|a| (frame.advanced(a), a))
            .collect();
        let mut search = SatChecker::new(&root, EscMode::Compact);
        for (w, a) in &successors {
            assert!(search.check(&root, w, &root.state_for(w), Some(*a)));
        }
        // Demand halved: every state the root search passed clears.
        let residual = root.residual(&frame, root.state_for(&frame), root.demands.scaled(0.5));
        let prior = search.into_verdicts().prior_for(&root, &frame, &residual);
        let pool = Arc::new(WorkerPool::new(1));
        let mut replan = SatChecker::with_prior(&residual, EscMode::Compact, pool, prior);
        for a in residual.actions.ids() {
            let v = CompactState::origin(residual.num_types()).advanced(a);
            assert!(replan.check(&residual, &v, &residual.state_for(&v), Some(a)));
        }
        let s = replan.stats();
        assert_eq!((s.rescaled, s.full_evaluations, s.esc_entries), (2, 0, 2));
        assert!(replan.engine.router().is_none());
        assert_eq!((s.incremental_clean, s.incremental_dirty), (0, 0));
    }

    /// Memory bound of a cache the daemon keeps beside its plans: one
    /// adopted by request after request with bit-identical rates resumes
    /// under its one matrix every time, so however often it is handed on it
    /// holds one planning matrix — and its entries answer every check.
    #[test]
    fn a_thousand_adoptions_keep_one_planning_matrix() {
        use crate::planner::{AStarPlanner, Planner};
        let first = spec();
        let rebuilt = MigrationSpec {
            name: "renamed".into(),
            topology: Arc::new((*first.topology).clone()),
            ..first.clone()
        };
        let planner = AStarPlanner {
            pool: Some(Arc::new(WorkerPool::new(1))),
            ..AStarPlanner::default()
        };
        let (cold, mut verdicts) = planner.plan_seeded(&first, None).unwrap();
        for i in 0..1000 {
            let spec = if i % 2 == 0 { &rebuilt } else { &first };
            let prior = verdicts.adopt(spec).expect("contents equal");
            let (warm, left) = planner.plan_seeded(spec, Some(prior)).unwrap();
            assert_eq!(warm.plan, cold.plan);
            assert_eq!(warm.stats.full_evaluations, 0);
            verdicts = left;
        }
        assert_eq!(verdicts.matrices.len(), 1);
        assert_eq!(verdicts.entries.len() as u64, cold.stats.esc_entries);

        // A kept cache holds no topology: once its specs are gone the
        // network is freed, and a new one at another address fits it.
        let freed = Arc::downgrade(&first.topology);
        drop((first, cold));
        assert!(verdicts.clone().adopt(&rebuilt).is_some());
        drop(rebuilt);
        assert!(freed.upgrade().is_none());
        assert!(verdicts.adopt(&spec()).is_some());
    }

    #[test]
    fn dense_u64_is_injective_over_a_small_box() {
        let target = CompactState::from_counts(vec![3, 2, 4]);
        let mut seen = std::collections::HashSet::new();
        for a in 0..=3u16 {
            for b in 0..=2u16 {
                for c in 0..=4u16 {
                    let v = CompactState::from_counts(vec![a, b, c]);
                    assert!(
                        seen.insert(dense_u64(&v, &[0; 3], &target)),
                        "collision at {v}"
                    );
                }
            }
        }
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
    fn a_spec_without_deltas_rebuilds_every_destination_on_every_route() {
        let mut spec = spec();
        spec.space = None; // every check routes
        let states: Vec<(CompactState, NetState)> = [
            vec![0, 0],
            vec![1, 0],
            vec![1, 1],
            vec![3, 0],
            vec![2, 4],
            vec![0, 6],
            vec![3, 6],
        ]
        .into_iter()
        .map(|c| {
            let v = CompactState::from_counts(c);
            let s = spec.state_for(&v);
            (v, s)
        })
        .collect();
        // From scratch: the routing crate's one-shot route and the recount.
        let expected: Vec<bool> = states
            .iter()
            .map(|(_, s)| {
                klotski_routing::evaluate_policy(
                    &spec.topology,
                    s,
                    &spec.demands,
                    spec.theta,
                    spec.split,
                )
                .satisfied()
                    && spec.topology.port_violations(s).is_empty()
            })
            .collect();
        assert!(expected.contains(&true) && expected.contains(&false));
        let mut plain = spec.clone();
        plain.incremental = false;
        let routes = states.len() as u64;
        let dests = spec.demands.num_destinations() as u64;
        for lanes in [1, 2] {
            for (sp, delta) in [(&spec, true), (&plain, false)] {
                let mut checker = SatChecker::with_threads(sp, EscMode::Off, lanes);
                let got: Vec<bool> = (states.iter())
                    .map(|(v, s)| checker.check(sp, v, s, Some(ActionTypeId(0))))
                    .collect();
                assert_eq!(got, expected, "x{lanes} delta={delta}");
                let engine = checker.engine.router().unwrap().stats();
                let s = checker.stats();
                assert_eq!(engine.evaluations, routes);
                assert_eq!(s.incremental_clean + s.incremental_dirty, routes * dests);
                if delta {
                    assert!(
                        engine.full_rebuilds < routes * dests,
                        "x{lanes}: {engine:?}"
                    );
                } else {
                    assert_eq!(s.incremental_clean, 0, "x{lanes}");
                    assert_eq!(engine.full_rebuilds, routes * dests, "x{lanes}");
                    assert_eq!(engine.dirty_destinations, routes * dests, "x{lanes}");
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
