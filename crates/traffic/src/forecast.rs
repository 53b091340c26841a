//! Demand forecasters.
//!
//! §7.1 of the paper: "we run the forecast after each migration step
//! [and] re-run the migration planning with the updated demand". A
//! forecaster looks at a traffic history and predicts the level over the
//! next migration step; the operator scales the base demand matrix by the
//! predicted level before replanning.

use crate::history::TrafficHistory;

/// Predicts future aggregate traffic levels from a history.
pub trait Forecaster {
    /// Predicts the traffic level `horizon` days past the end of `history`.
    fn forecast(&self, history: &TrafficHistory, horizon: usize) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Ordinary least-squares linear trend over the trailing window.
#[derive(Debug, Clone)]
pub struct LinearTrendForecaster {
    /// How many trailing days to fit (0 = all).
    pub window: usize,
}

impl Default for LinearTrendForecaster {
    fn default() -> Self {
        Self { window: 28 }
    }
}

impl Forecaster for LinearTrendForecaster {
    fn forecast(&self, history: &TrafficHistory, horizon: usize) -> f64 {
        let s = history.samples();
        let start = if self.window == 0 || self.window >= s.len() {
            0
        } else {
            s.len() - self.window
        };
        let w = &s[start..];
        let n = w.len() as f64;
        if w.len() == 1 {
            return w[0];
        }
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = w.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (i, &y) in w.iter().enumerate() {
            let dx = i as f64 - mean_x;
            sxx += dx * dx;
            sxy += dx * (y - mean_y);
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let x = (w.len() - 1 + horizon) as f64;
        (mean_y + slope * (x - mean_x)).max(0.0)
    }

    fn name(&self) -> &'static str {
        "linear-trend"
    }
}

/// Exponentially-weighted moving average; horizon-agnostic (level forecast).
#[derive(Debug, Clone)]
pub struct EwmaForecaster {
    /// Smoothing factor in (0, 1]; higher = more weight on recent days.
    pub alpha: f64,
}

impl Default for EwmaForecaster {
    fn default() -> Self {
        Self { alpha: 0.2 }
    }
}

impl Forecaster for EwmaForecaster {
    fn forecast(&self, history: &TrafficHistory, _horizon: usize) -> f64 {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "EWMA alpha must be in (0, 1]"
        );
        let s = history.samples();
        let mut level = s[0];
        for &y in &s[1..] {
            level = self.alpha * y + (1.0 - self.alpha) * level;
        }
        level
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryConfig;

    fn linear_history() -> TrafficHistory {
        TrafficHistory::from_samples((0..30).map(|d| 100.0 + 2.0 * d as f64).collect())
    }

    #[test]
    fn linear_trend_extrapolates_exactly_on_linear_data() {
        let f = LinearTrendForecaster { window: 0 };
        let h = linear_history();
        // Day 29 is 158; day 29+10 should be 178.
        assert!((f.forecast(&h, 10) - 178.0).abs() < 1e-6);
        assert!((f.forecast(&h, 0) - 158.0).abs() < 1e-6);
    }

    #[test]
    fn linear_trend_respects_window() {
        // First 20 days flat at 100, last 10 days rising steeply.
        let mut v = vec![100.0; 20];
        v.extend((0..10).map(|d| 100.0 + 10.0 * d as f64));
        let h = TrafficHistory::from_samples(v);
        let narrow = LinearTrendForecaster { window: 10 }.forecast(&h, 5);
        let wide = LinearTrendForecaster { window: 0 }.forecast(&h, 5);
        assert!(narrow > wide, "narrow window should chase the recent ramp");
    }

    #[test]
    fn linear_trend_single_sample() {
        let h = TrafficHistory::from_samples(vec![42.0]);
        assert_eq!(LinearTrendForecaster::default().forecast(&h, 7), 42.0);
    }

    #[test]
    fn linear_trend_never_negative() {
        let h = TrafficHistory::from_samples(
            (0..10)
                .map(|d| 100.0 - 15.0 * d as f64)
                .collect::<Vec<_>>()
                .into_iter()
                .map(|x: f64| x.max(0.0))
                .collect(),
        );
        assert!(LinearTrendForecaster { window: 0 }.forecast(&h, 50) >= 0.0);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let h = TrafficHistory::from_samples(vec![5.0; 50]);
        assert!((EwmaForecaster::default().forecast(&h, 3) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_weights_recent_more() {
        let mut v = vec![1.0; 49];
        v.push(10.0);
        let h = TrafficHistory::from_samples(v);
        let fast = EwmaForecaster { alpha: 0.9 }.forecast(&h, 1);
        let slow = EwmaForecaster { alpha: 0.1 }.forecast(&h, 1);
        assert!(fast > slow);
        assert!(fast > 8.0 && slow < 3.0);
    }

    #[test]
    fn forecasters_track_synthetic_growth_within_tolerance() {
        let cfg = HistoryConfig {
            noise_std: 0.005,
            ..HistoryConfig::default()
        };
        let h = TrafficHistory::synthesize(&cfg);
        let truth = 1.0 + cfg.daily_growth * (crate::history::HISTORY_DAYS as f64 + 14.0);
        let pred = LinearTrendForecaster::default().forecast(&h, 14);
        assert!(
            (pred - truth).abs() / truth < 0.1,
            "pred {pred} vs truth {truth}"
        );
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            LinearTrendForecaster::default().name(),
            EwmaForecaster::default().name(),
        ];
        assert_ne!(names[0], names[1]);
    }
}
