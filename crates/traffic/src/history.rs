//! Synthetic traffic histories.
//!
//! The paper forecasts demand "based on historical data collected by Meta's
//! DCNs" (§6.1). Production telemetry is proprietary, so this module
//! synthesizes daily aggregate-traffic series with the three components that
//! drive forecasting behaviour during month-long migrations (§7.1): organic
//! growth (trend), weekly seasonality, and noise.

use rand::rngs::SmallRng;
use rand::RngExt;
use rand::SeedableRng;

use serde::{Deserialize, Serialize};

/// Parameters for synthetic history generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryConfig {
    /// RNG seed.
    pub seed: u64,
    /// Linear growth per day as a fraction of the day-0 level (e.g. 0.003 ≈
    /// +9%/month, matching the "traffic grows organically" observation of
    /// §2.3).
    pub daily_growth: f64,
    /// Amplitude of weekly seasonality as a fraction of the trend level.
    pub weekly_amplitude: f64,
    /// Standard deviation of multiplicative noise.
    pub noise_std: f64,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        Self {
            seed: 11,
            daily_growth: 0.003,
            weekly_amplitude: 0.05,
            noise_std: 0.01,
        }
    }
}

/// Daily samples in a synthesized history. The series is a multiplier
/// against a base demand matrix: its trend level is 1 at day 0.
pub(crate) const HISTORY_DAYS: usize = 120;

/// A daily aggregate-traffic series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficHistory {
    samples: Vec<f64>,
}

impl TrafficHistory {
    /// Generates a synthetic history of `HISTORY_DAYS` days, trend level 1
    /// at day 0.
    pub fn synthesize(cfg: &HistoryConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let samples = (0..HISTORY_DAYS)
            .map(|day| {
                let trend = 1.0 + cfg.daily_growth * day as f64;
                let season =
                    1.0 + cfg.weekly_amplitude * (day as f64 * std::f64::consts::TAU / 7.0).sin();
                // Box-Muller for a normal sample; `rand` distributions are
                // kept out to avoid the rand_distr dependency.
                let u1: f64 = rng.random_range(f64::EPSILON..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let noise = 1.0 + cfg.noise_std * z;
                (trend * season * noise).max(0.0)
            })
            .collect();
        Self { samples }
    }

    /// Wraps an existing series.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "history must be non-empty");
        assert!(
            samples.iter().all(|s| s.is_finite() && *s >= 0.0),
            "history samples must be finite and non-negative"
        );
        Self { samples }
    }

    /// The daily samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of days.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Latest sample.
    pub fn latest(&self) -> f64 {
        *self.samples.last().expect("non-empty by construction")
    }

    /// Appends an observed day (operators feed realized traffic back in
    /// between migration steps).
    pub fn observe(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "observed value must be finite and non-negative"
        );
        self.samples.push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = HistoryConfig::default();
        assert_eq!(
            TrafficHistory::synthesize(&cfg),
            TrafficHistory::synthesize(&cfg)
        );
    }

    #[test]
    fn trend_grows_over_time() {
        let cfg = HistoryConfig {
            noise_std: 0.0,
            weekly_amplitude: 0.0,
            ..HistoryConfig::default()
        };
        let h = TrafficHistory::synthesize(&cfg);
        assert!(
            h.samples()[119] > h.samples()[0] * 1.3,
            "+0.3%/day over 120d"
        );
    }

    #[test]
    fn seasonality_oscillates_weekly() {
        let cfg = HistoryConfig {
            noise_std: 0.0,
            daily_growth: 0.0,
            weekly_amplitude: 0.2,
            ..HistoryConfig::default()
        };
        let h = TrafficHistory::synthesize(&cfg);
        // A weekly sinusoid repeats every 7 days.
        for day in 0..7 {
            assert!((h.samples()[day] - h.samples()[day + 7]).abs() < 1e-9);
        }
        let max = h.samples().iter().cloned().fold(f64::MIN, f64::max);
        let min = h.samples().iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 1.15 && min < 0.85);
    }

    #[test]
    fn samples_stay_non_negative() {
        let cfg = HistoryConfig {
            noise_std: 3.0, // absurd noise
            ..HistoryConfig::default()
        };
        let h = TrafficHistory::synthesize(&cfg);
        assert!(h.samples().iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn observe_appends() {
        let mut h = TrafficHistory::from_samples(vec![1.0, 2.0]);
        h.observe(3.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.latest(), 3.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_samples_rejects_nan() {
        TrafficHistory::from_samples(vec![1.0, f64::NAN]);
    }
}
