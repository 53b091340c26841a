//! Machine-speed calibration.
//!
//! The benchmark runs on shared two-core boxes whose speed drifts by tens of
//! percent over minutes (neighbours on the host: measured raw `op_ms_p50`
//! spread of `plan_single` over ten 24-second windows: 29 %). A fixed
//! harness-owned kernel — the *slice* — is therefore timed between ops, and
//! every reported time is the op time divided by the slice time around it,
//! times [`NOMINAL_SLICE_MS`]: milliseconds on a machine on which the slice
//! takes its nominal time. The same interference slows op and slice, so the
//! ratio repeats (the same windows: 2–6 %).
//!
//! The slice links nothing from the repository's crates, so no change to
//! them moves it. It mixes the kinds of work the ops do — integer hashing,
//! pointer chasing inside and beyond the L2 cache, a BFS with a flow sweep
//! over a small graph, a streaming pass — because neighbours slow these by
//! different amounts (a memory-bound neighbour doubles the chase and leaves
//! the hash alone).

use crate::stats::{median, quantile_sorted, sorted, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

/// What one slice takes on the reference box when it is quiet. Only ratios
/// between commits matter; this constant just keeps the unit readable.
pub const NOMINAL_SLICE_MS: f64 = 10.0;

/// A run is cut into at most this many consecutive batches of at least
/// [`MIN_BATCH`] ops; see [`Timeline::calibrated`].
const BATCHES: usize = 8;
const MIN_BATCH: usize = 4;

const GRAPH_NODES: usize = 4096;
/// Steps of the chase over the 4 MB cycle; each slice walks the same path.
const BIG_STEPS: usize = 100_000;

pub struct Calibrator {
    /// One random cycle over 2^16 slots (256 KB: stays in L2).
    small: Vec<u32>,
    /// One random cycle over 2^20 slots (4 MB: leaves L2).
    big: Vec<u32>,
    /// Random graph in CSR form, degree ~8.
    offsets: Vec<u32>,
    adjacency: Vec<u32>,
    dist: Vec<u32>,
    order: Vec<u32>,
    flow: Vec<f64>,
    load: Vec<f64>,
}

/// A permutation of `0..n` that is a single cycle, so a chase visits all of it.
fn cycle(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; n];
    for w in 0..n {
        next[order[w] as usize] = order[(w + 1) % n];
    }
    next
}

fn chase(next: &[u32], steps: usize) -> u32 {
    let mut i = 0u32;
    for _ in 0..steps {
        i = next[i as usize];
    }
    i
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0x5eed_ca11_b8a7_e000);
        let mut neighbours: Vec<Vec<u32>> = vec![Vec::new(); GRAPH_NODES];
        for u in 0..GRAPH_NODES {
            for _ in 0..4 {
                let v = (rng.next_u64() % GRAPH_NODES as u64) as usize;
                if v != u {
                    neighbours[u].push(v as u32);
                    neighbours[v].push(u as u32);
                }
            }
        }
        let mut offsets = vec![0u32];
        let mut adjacency = Vec::new();
        for list in &neighbours {
            adjacency.extend_from_slice(list);
            offsets.push(adjacency.len() as u32);
        }
        Self {
            small: cycle(1 << 16, &mut rng),
            big: cycle(1 << 20, &mut rng),
            load: vec![0.0; adjacency.len()],
            offsets,
            adjacency,
            dist: vec![0; GRAPH_NODES],
            order: Vec::with_capacity(GRAPH_NODES),
            flow: vec![0.0; GRAPH_NODES],
        }
    }

    /// BFS from `root`, then an equal-split flow sweep down the BFS DAG —
    /// the access pattern of an ECMP evaluation.
    fn bfs_flow(&mut self, root: usize) -> f64 {
        self.dist.fill(u32::MAX);
        self.order.clear();
        self.dist[root] = 0;
        self.order.push(root as u32);
        let mut head = 0;
        while head < self.order.len() {
            let u = self.order[head] as usize;
            head += 1;
            for &v in &self.adjacency[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                if self.dist[v as usize] == u32::MAX {
                    self.dist[v as usize] = self.dist[u] + 1;
                    self.order.push(v);
                }
            }
        }
        self.flow.fill(1.0);
        for &u in self.order.iter().rev() {
            let u = u as usize;
            if self.dist[u] == 0 {
                continue;
            }
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            let downhill = |v: u32| self.dist[v as usize] + 1 == self.dist[u];
            let ways = self.adjacency[lo..hi]
                .iter()
                .filter(|&&v| downhill(v))
                .count();
            let share = self.flow[u] / ways as f64;
            for e in lo..hi {
                let v = self.adjacency[e];
                if self.dist[v as usize] + 1 == self.dist[u] {
                    self.flow[v as usize] += share;
                    self.load[e] += share;
                }
            }
        }
        self.flow[root]
    }

    /// Runs one slice and returns its wall time in milliseconds.
    ///
    /// The 4 MB chase is walked twice, untimed, before the clock starts. A
    /// slice that runs right after an op otherwise finds that table evicted
    /// and chases it 2.4× slower than a slice that follows another slice
    /// (6.35 ms against 2.69 ms), which would make the calibration depend on
    /// how much cache the *program* touches. One warm-up walk is not enough
    /// (4.0 ms: the cache keeps lines touched once at low priority); after
    /// two the timed walk reads the same in both positions.
    pub fn slice(&mut self) -> f64 {
        black_box(chase(&self.big, BIG_STEPS));
        black_box(chase(&self.big, BIG_STEPS));
        let t = Instant::now();
        let mut rng = SplitMix64::new(1);
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc ^= rng.next_u64();
        }
        black_box(acc);
        black_box(chase(&self.small, 300_000));
        black_box(chase(&self.big, BIG_STEPS));
        for d in 0..8usize {
            black_box(self.bfs_flow(d.wrapping_mul(2_654_435_761) % GRAPH_NODES));
        }
        // The streaming pass reads the 4 MB cycle in address order.
        black_box(self.big.iter().fold(0u64, |a, &x| {
            a.wrapping_add(u64::from(x) ^ a.rotate_left(5))
        }));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Op latencies of one measured phase, with the calibration slices taken
/// while it ran.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Milliseconds per op, in the order they ran, failed ones included.
    pub ms: Vec<f64>,
    /// `(ops completed when the slice ran, slice ms)`.
    pub slices: Vec<(usize, f64)>,
    pub failed: u64,
    /// Wall seconds the ops took, slices excluded.
    pub wall_s: f64,
}

impl Timeline {
    /// Times one slice at the current position.
    pub fn calibrate(&mut self, calibrator: &mut Calibrator) {
        self.slices.push((self.ms.len(), calibrator.slice()));
    }

    /// Times one op; `op` returns whether its output was correct.
    pub fn time(&mut self, op: impl FnOnce() -> bool) {
        let t = Instant::now();
        let ok = op();
        let s = t.elapsed().as_secs_f64();
        self.ms.push(s * 1e3);
        self.wall_s += s;
        self.failed += u64::from(!ok);
    }

    pub fn attempted(&self) -> u64 {
        self.ms.len() as u64
    }

    /// Median slice time of the whole phase.
    pub fn slice_ms(&self) -> f64 {
        median(&self.slices.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The `q`-quantile of op time without calibration.
    pub fn raw(&self, q: f64) -> f64 {
        quantile_sorted(&sorted(&self.ms), q)
    }

    /// The `q`-quantile of op time in calibrated milliseconds: the phase is
    /// cut into up to eight consecutive batches of at least four ops (a
    /// quantile of fewer says nothing); each batch yields its quantile
    /// divided by the median of the slices taken within it (its two edges
    /// included); the lower quartile over the batches, times the nominal
    /// slice time, is reported. Batching keeps a burst of interference
    /// inside the batches it hit instead of smearing it over the run, and
    /// the lower quartile lets the quieter batches speak: interference only
    /// ever adds time, and no slice scales a burst away exactly (ten
    /// `serve_zipf` runs: `op_ms_p90` spread 21 % with the median over
    /// batches, 16 % with the lower quartile).
    pub fn calibrated(&self, q: f64) -> f64 {
        let n = self.ms.len();
        let batches = (n / MIN_BATCH).clamp(1, BATCHES);
        let whole = self.slice_ms();
        let ratios: Vec<f64> = (0..batches)
            .map(|b| {
                let (lo, hi) = (b * n / batches, (b + 1) * n / batches);
                let within: Vec<f64> = self
                    .slices
                    .iter()
                    .filter(|(at, _)| (lo..=hi).contains(at))
                    .map(|s| s.1)
                    .collect();
                let slice = if within.is_empty() {
                    whole
                } else {
                    median(&within)
                };
                quantile_sorted(&sorted(&self.ms[lo..hi]), q) / slice
            })
            .collect();
        quantile_sorted(&sorted(&ratios), 0.25) * NOMINAL_SLICE_MS
    }

    /// Correct ops per calibrated second.
    pub fn calibrated_rate(&self) -> f64 {
        let ok = (self.attempted() - self.failed) as f64;
        ok / self.wall_s.max(1e-9) * self.slice_ms() / NOMINAL_SLICE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_quantiles_cancel_a_uniform_slowdown() {
        let build = |slowdown: f64| {
            let mut t = Timeline::default();
            for i in 0..40 {
                t.slices.push((i, 6.0 * slowdown));
                t.ms.push((100.0 + (i % 5) as f64) * slowdown);
                t.wall_s += t.ms[i] / 1e3;
            }
            t.slices.push((40, 6.0 * slowdown));
            t
        };
        let (quiet, noisy) = (build(1.0), build(1.5));
        for q in [0.1, 0.5, 0.9] {
            assert!((quiet.calibrated(q) - noisy.calibrated(q)).abs() < 1e-9);
            assert!((noisy.raw(q) / quiet.raw(q) - 1.5).abs() < 1e-9);
        }
        // 6 ms slices against the 10 ms nominal.
        assert!((quiet.calibrated(0.5) - NOMINAL_SLICE_MS / 6.0 * quiet.raw(0.5)).abs() < 1e-9);
        assert!((quiet.calibrated_rate() - noisy.calibrated_rate()).abs() < 1e-9);
    }

    #[test]
    fn a_burst_stays_inside_its_batch() {
        let mut t = Timeline::default();
        for i in 0..80 {
            // Ops 20..30 run during a burst the slices also see.
            let burst = if (20..30).contains(&i) { 3.0 } else { 1.0 };
            t.slices.push((i, NOMINAL_SLICE_MS * burst));
            t.ms.push(50.0 * burst);
        }
        assert!((t.calibrated(0.9) - 50.0).abs() < 1e-9);
        assert!(t.raw(0.9) > 100.0);
    }

    #[test]
    fn slices_take_measurable_time_and_repeat_their_work() {
        let mut c = Calibrator::new();
        assert!(c.slice() > 0.1);
        let a = c.bfs_flow(7);
        assert_eq!(a, c.bfs_flow(7));
        assert!(a > 1.0, "flow from every node reaches the root");
    }
}
