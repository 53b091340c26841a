//! Estimators and deterministic input generators shared by the workloads.

/// The `q`-quantile of `sorted` (ascending), linearly interpolated between
/// the two nearest ranks. Interpolation keeps the estimate from jumping a
/// whole sample when the op count of a time-boxed run changes by one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty sample (a layer that did not run).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile_sorted(&sorted(values), 0.5)
    }
}

/// Deterministic splitmix64 stream: every generated input derives from one.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// zipf(s) over `n` ranks, sampled by CDF inversion.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Rank (0-based, 0 most popular) for a uniform draw `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far, all threads.
/// `/proc/self/stat` counts in clock ticks (100 Hz on Linux), which is fine
/// for intervals of seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 overall, 12 and 13 after ')'.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert!((quantile_sorted(&v, 0.1) - 1.4).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn splitmix_and_zipf_repeat_for_a_seed() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            let zipf = Zipf::new(256, 1.1);
            (0..2000)
                .map(|_| zipf.rank(rng.next_unit()))
                .collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same sequence");
        assert_ne!(a, draw(8), "another seed, another sequence");
        assert!(a.iter().all(|&r| r < 256));
        let head = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r == 255).count();
        assert!(head > 10 * tail.max(1), "head {head} vs tail {tail}");
        // Reference value pins the generator itself, not just its stability.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
