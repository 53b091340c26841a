//! The oracle kit the differential tests of this directory share, so each
//! file states only its property: one deterministic RNG, one canonical block
//! walk, one matrix jitter, one demand ratio, one per-circuit load-identity
//! assert — and [`Reference`], Definition 1 judged from scratch.
#![allow(dead_code)]

use klotski_core::migration::MigrationSpec;
use klotski_core::{ActionTypeId, CompactState, PlanPhase};
use klotski_routing::{evaluate::summarize, EcmpRouter, LoadMap, RouteOutcome, UsableMask};
use klotski_topology::{CircuitId, NetState, Topology};
use klotski_traffic::DemandMatrix;

/// splitmix64, the kit's one deterministic RNG.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The canonical successors of `(v, state)`: each action type with a block
/// left, in type order, with the vector and overlay its next block makes.
pub fn successors(
    spec: &MigrationSpec,
    v: &CompactState,
    state: &NetState,
) -> Vec<(ActionTypeId, CompactState, NetState)> {
    (spec.actions.ids())
        .filter(|&a| v.count(a) < spec.target_counts.count(a))
        .map(|a| {
            let mut next = state.clone();
            spec.apply_next(&mut next, v, a);
            (a, v.advanced(a), next)
        })
        .collect()
}

/// `steps` draws of an action type from the origin, each taken when the
/// type has a block left.
pub fn random_vector(spec: &MigrationSpec, rng: &mut Rng, steps: usize) -> CompactState {
    let mut v = CompactState::origin(spec.num_types());
    for _ in 0..steps {
        let a = ActionTypeId(rng.below(spec.num_types()) as u8);
        if v.count(a) < spec.target_counts.count(a) {
            v = v.advanced(a);
        }
    }
    v
}

/// Five random vectors of growing length, then the origin and the target,
/// each with its canonical state.
pub fn sample_states(spec: &MigrationSpec, seed: u64) -> Vec<(CompactState, NetState)> {
    let mut rng = Rng(seed);
    let mut vs: Vec<_> = (0..5)
        .map(|i| random_vector(spec, &mut rng, 1 + 3 * i))
        .collect();
    vs.push(CompactState::origin(spec.num_types()));
    vs.push(spec.target_counts.clone());
    vs.into_iter()
        .map(|v| {
            let s = spec.state_for(&v);
            (v, s)
        })
        .collect()
}

/// Every state `phases` walks through from the spec's initial state.
pub fn chain(spec: &MigrationSpec, phases: &[PlanPhase]) -> Vec<NetState> {
    let mut v = CompactState::origin(spec.num_types());
    let mut state = spec.initial.clone();
    let mut states = Vec::new();
    for phase in phases {
        for _ in &phase.blocks {
            spec.apply_next(&mut state, &v, phase.kind);
            v = v.advanced(phase.kind);
            states.push(state.clone());
        }
    }
    states
}

/// `matrix` scaled by `factor`, every rate then moved by its own factor in
/// `[1 − spread, 1 + spread)`.
pub fn jittered(matrix: &DemandMatrix, factor: f64, spread: f64, rng: &mut Rng) -> DemandMatrix {
    (matrix.iter().cloned())
        .map(|mut d| {
            d.gbps *= factor;
            d.gbps *= 1.0 - spread + 2.0 * spread * rng.unit();
            d
        })
        .collect()
}

/// `maxᵢ realized[i] / planned[i]`, as the checker computes it: 0 for a
/// demand realized at 0, ∞ for one planned at 0 and realized above it.
pub fn ratio(planned: &DemandMatrix, realized: &DemandMatrix) -> f64 {
    (planned.iter().zip(realized.iter()))
        .map(|(p, r)| match (p.gbps, r.gbps) {
            (_, 0.0) => 0.0,
            (p, r) if p > 0.0 => r / p,
            _ => f64::INFINITY,
        })
        .fold(0.0, f64::max)
}

/// `got` carries `want`'s loads on every circuit, both directions, bit for
/// bit.
pub fn assert_same_loads(topo: &Topology, got: &LoadMap, want: &LoadMap, ctx: &str) {
    for c in (0..topo.num_circuits()).map(CircuitId::from_index) {
        let (g, w) = (
            (got.forward(c), got.reverse(c)),
            (want.forward(c), want.reverse(c)),
        );
        assert_eq!(
            (g.0.to_bits(), g.1.to_bits()),
            (w.0.to_bits(), w.1.to_bits()),
            "{ctx}: loads of {c} (forward, reverse)"
        );
    }
}

/// Definition 1 judged from scratch, state by state: the §7.2 space model,
/// then every matrix routed on a sequential [`EcmpRouter`] over a fresh
/// usable mask, reachability (Eq. 4), the funneling headroom of the block
/// just drained, Eq. 6 recounted switch by switch, and θ (Eq. 5). Every
/// ensemble member is swept exactly, whatever the base measured — no
/// headroom bound — so the verdict is the AND over all K matrices.
pub struct Reference {
    router: EcmpRouter,
    mask: UsableMask,
    loads: LoadMap,
    member: LoadMap,
    outcome: RouteOutcome,
    fail: Option<usize>,
}

impl Reference {
    pub fn new(spec: &MigrationSpec) -> Self {
        Self {
            router: EcmpRouter::with_policy(&spec.topology, spec.split),
            mask: UsableMask::new(),
            loads: LoadMap::new(&spec.topology),
            member: LoadMap::new(&spec.topology),
            outcome: RouteOutcome::new(),
            fail: None,
        }
    }

    /// The verdict of `v` (canonical overlay `state`), reached by a block
    /// of type `last`.
    pub fn check(
        &mut self,
        spec: &MigrationSpec,
        v: &CompactState,
        state: &NetState,
        last: Option<ActionTypeId>,
    ) -> bool {
        self.fail = None;
        if spec.space.as_ref().is_some_and(|m| !m.fits(v)) {
            return false;
        }
        let topo = &spec.topology;
        let drained = (last.filter(|&a| spec.funneling.is_enabled() && spec.kind_is_drain(a)))
            .filter(|&a| v.count(a) > 0)
            .map(|a| &spec.block_for(a, v.count(a) - 1).switches[..]);
        self.mask.compute(topo, state);
        let ports = spec.check_ports && topo.has_port_violation(state);
        let mut fold = Vec::with_capacity(1 + spec.extra_demands.len());
        for (k, matrix) in std::iter::once(&spec.demands)
            .chain(&spec.extra_demands)
            .enumerate()
        {
            let loads = if k == 0 {
                &mut self.loads
            } else {
                &mut self.member
            };
            loads.clear();
            (self.router).route_with_mask_into(
                topo,
                state,
                &self.mask,
                matrix,
                loads,
                &mut self.outcome,
            );
            let reachable = self.outcome.all_reachable();
            if let Some(switches) = drained.filter(|_| reachable) {
                spec.funneling.apply(topo, state, switches, loads);
            }
            let within = summarize(topo, state, loads, spec.theta).violations == 0;
            fold.push(reachable && !ports && within);
        }
        let first = fold.iter().position(|&ok| !ok);
        self.fail = first.filter(|_| !spec.extra_demands.is_empty());
        first.is_none()
    }

    /// The base matrix's loads of the last check that routed, as judged:
    /// funneling headroom applied when every demand was reachable.
    pub fn last_loads(&self) -> &LoadMap {
        &self.loads
    }

    /// The first matrix the last check failed, when an ensemble is
    /// configured and the check routed.
    pub fn last_fail_matrix(&self) -> Option<usize> {
        self.fail
    }
}
