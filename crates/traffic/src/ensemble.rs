//! Traffic ensembles for robust satisfiability (METTEOR/COUDER-style).
//!
//! The paper checks every intermediate topology against a *single* forecast
//! matrix, but §7.2's deployment experience (the warm-storage backup surge)
//! and the topology-engineering literature both argue a migration should
//! stay safe under a *set* of plausible traffic matrices. An ensemble is
//! that set: the base forecast at index 0 plus derived variants — EWMA
//! forecast levels at different smoothing factors and seeded surge
//! injections — deduplicated by content digest. A state is safe iff it is
//! safe under **all** matrices; checkers evaluate matrices in index order
//! and short-circuit on the first failure, so the failing index is itself a
//! deterministic function of the state.
//!
//! Every variant is derived by *scaling* the base matrix (globally or per
//! class), so all matrices share the base's exact `(src, dst, class)`
//! sequence. Routing structure (BFS distance labels, splitting DAGs) is
//! demand-independent; identical endpoints mean reachability is
//! matrix-independent too, and only the load sweep differs per matrix.

use crate::demand::{DemandClass, DemandMatrix};
use klotski_topology::Fnv1a;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Upper bound on ensemble size; anything past this is a spec typo, not a
/// workload. A check routes the base matrix and sweeps only the members a
/// headroom bound on the base cannot clear, so its cost grows with those
/// members, not with K; the bound itself is one multiply per member.
pub const MAX_ENSEMBLE: usize = 64;

/// Daily samples in the synthetic history the EWMA ladder reads. The series
/// is a multiplier against the base matrix: its trend level is 1 at day 0.
const HISTORY_DAYS: usize = 120;

/// Organic growth per day, a fraction of the day-0 level: +0.3 %/day is
/// about +9 %/month, the organic growth of §2.3.
const DAILY_GROWTH: f64 = 0.003;

/// Amplitude of the weekly seasonality, a fraction of the trend level.
const WEEKLY_AMPLITUDE: f64 = 0.05;

/// Standard deviation of the multiplicative daily noise.
const NOISE_STD: f64 = 0.01;

/// A seeded daily aggregate-traffic series of [`HISTORY_DAYS`] days: organic
/// growth, weekly seasonality and noise, the three components that drive
/// forecasting over a month-long migration (§7.1). The paper forecasts
/// from production telemetry (§6.1), which is proprietary.
fn synthetic_history(seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..HISTORY_DAYS)
        .map(|day| {
            let trend = 1.0 + DAILY_GROWTH * day as f64;
            let season = 1.0 + WEEKLY_AMPLITUDE * (day as f64 * std::f64::consts::TAU / 7.0).sin();
            // Box-Muller for a normal sample; `rand` distributions are kept
            // out to avoid the rand_distr dependency.
            let u1: f64 = rng.random_range(f64::EPSILON..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let noise = 1.0 + NOISE_STD * z;
            (trend * season * noise).max(0.0)
        })
        .collect()
}

/// The exponentially weighted moving average of `samples` at smoothing
/// factor `alpha` (higher weighs recent days more): a level forecast, the
/// same at every horizon. [`EnsembleSpec::validate`] bounds `alpha`.
fn ewma_level(samples: &[f64], alpha: f64) -> f64 {
    let mut level = samples[0];
    for &y in &samples[1..] {
        level = alpha * y + (1.0 - alpha) * level;
    }
    level
}

/// splitmix64: the seed expander behind the variant RNG. Small, public
/// domain, and stable across platforms — ensemble realization must be
/// byte-for-byte reproducible from the spec's explicit seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Content digest of a demand matrix: FNV-1a over every demand's
/// endpoints, class, and exact rate bits. Two matrices with equal digests
/// route identically, which is what ensemble deduplication cares about.
pub fn matrix_digest(matrix: &DemandMatrix) -> u64 {
    let mut h = Fnv1a::new();
    for d in matrix.iter() {
        (h.bytes(&d.src.0.to_le_bytes()))
            .bytes(&d.dst.0.to_le_bytes())
            .bytes(&[class_tag(d.class)])
            .u64(d.gbps.to_bits());
    }
    h.finish()
}

fn class_tag(class: DemandClass) -> u8 {
    match class {
        DemandClass::RswToEbb => 0,
        DemandClass::EbbToRsw => 1,
        DemandClass::RswToRsw => 2,
    }
}

/// Ensemble construction/validation failures. These surface as 4xx errors
/// in the planning service and as CLI usage errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EnsembleError {
    /// `k == 0`: an ensemble must contain at least the base matrix.
    Empty,
    /// `k` exceeds [`MAX_ENSEMBLE`].
    TooLarge { k: usize, max: usize },
    /// An EWMA smoothing factor outside `(0, 1]` (or non-finite).
    BadAlpha(f64),
    /// A surge factor below 1.0 (or non-finite).
    BadFactor(f64),
    /// A matrix whose `(src, dst, class)` sequence differs from the base.
    DimensionMismatch { matrix: usize, reason: String },
    /// A non-finite or negative rate entry.
    InvalidRate {
        matrix: usize,
        index: usize,
        gbps: f64,
    },
    /// A demand endpoint outside the topology's switch range.
    EndpointOutOfRange {
        matrix: usize,
        switch: u32,
        num_switches: usize,
    },
    /// An unparseable `--ensemble` spec string.
    Malformed(String),
}

impl fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnsembleError::Empty => {
                write!(f, "ensemble must contain at least one matrix (k >= 1)")
            }
            EnsembleError::TooLarge { k, max } => {
                write!(f, "ensemble size {k} exceeds the maximum of {max}")
            }
            EnsembleError::BadAlpha(a) => {
                write!(f, "EWMA smoothing factor {a} outside (0, 1]")
            }
            EnsembleError::BadFactor(x) => {
                write!(f, "surge factor {x} must be finite and >= 1")
            }
            EnsembleError::DimensionMismatch { matrix, reason } => {
                write!(
                    f,
                    "ensemble matrix {matrix} does not match the base demand set: {reason}"
                )
            }
            EnsembleError::InvalidRate {
                matrix,
                index,
                gbps,
            } => {
                write!(
                    f,
                    "ensemble matrix {matrix} demand {index} has invalid rate {gbps}"
                )
            }
            EnsembleError::EndpointOutOfRange {
                matrix,
                switch,
                num_switches,
            } => {
                write!(
                    f,
                    "ensemble matrix {matrix} references switch {switch} outside the \
                     topology's {num_switches} switches"
                )
            }
            EnsembleError::Malformed(why) => write!(f, "malformed ensemble spec: {why}"),
        }
    }
}

impl std::error::Error for EnsembleError {}

fn default_ewma_alphas() -> Vec<f64> {
    vec![0.35, 0.65]
}

fn default_surge_factor() -> f64 {
    1.3
}

/// Declarative recipe for deriving a [`TrafficEnsemble`] from a calibrated
/// base matrix. This is the wire/JSON form carried by planner options and
/// controller scenarios; realization is a pure function of (spec, base), so
/// the same spec reproduces the same ensemble byte-for-byte on any machine.
///
/// `seed` is **required** — surge variants are seeded from it explicitly
/// rather than from any ambient default, which is what makes ensemble runs
/// reproducible across machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSpec {
    /// Total number of matrices K, including the base forecast (K >= 1).
    pub k: usize,
    /// Explicit RNG seed for surge variants. No default: reproducibility
    /// requires the seed to travel with the spec.
    pub seed: u64,
    /// EWMA smoothing ladder; variant i < `ewma_alphas.len()` scales the
    /// base by the EWMA level at `ewma_alphas[i]`.
    #[serde(default = "default_ewma_alphas")]
    pub ewma_alphas: Vec<f64>,
    /// Upper bound of the seeded surge multiplier range `[1, surge_factor]`.
    #[serde(default = "default_surge_factor")]
    pub surge_factor: f64,
}

impl EnsembleSpec {
    /// A spec with K matrices and the default EWMA ladder / surge range.
    pub fn with_k(k: usize, seed: u64) -> Self {
        Self {
            k,
            seed,
            ewma_alphas: default_ewma_alphas(),
            surge_factor: default_surge_factor(),
        }
    }

    /// Parses the CLI shorthand `K@SEED` (e.g. `4@42`).
    pub fn parse(s: &str) -> Result<Self, EnsembleError> {
        let (k_str, seed_str) = s
            .split_once('@')
            .ok_or_else(|| EnsembleError::Malformed(format!("expected K@SEED, got {s:?}")))?;
        let k = k_str.trim().parse::<usize>().map_err(|_| {
            EnsembleError::Malformed(format!("K must be an integer, got {k_str:?}"))
        })?;
        let seed = seed_str.trim().parse::<u64>().map_err(|_| {
            EnsembleError::Malformed(format!("SEED must be a u64, got {seed_str:?}"))
        })?;
        let spec = Self::with_k(k, seed);
        spec.validate()?;
        Ok(spec)
    }

    /// Validates spec fields (not the realized matrices).
    pub fn validate(&self) -> Result<(), EnsembleError> {
        if self.k == 0 {
            return Err(EnsembleError::Empty);
        }
        if self.k > MAX_ENSEMBLE {
            return Err(EnsembleError::TooLarge {
                k: self.k,
                max: MAX_ENSEMBLE,
            });
        }
        for &a in &self.ewma_alphas {
            if !(a.is_finite() && a > 0.0 && a <= 1.0) {
                return Err(EnsembleError::BadAlpha(a));
            }
        }
        if !(self.surge_factor.is_finite() && self.surge_factor >= 1.0) {
            return Err(EnsembleError::BadFactor(self.surge_factor));
        }
        Ok(())
    }

    /// Realizes the ensemble against a calibrated base matrix.
    ///
    /// Variant `i` (0-based among the K−1 non-base slots) is an EWMA level
    /// variant while `i < ewma_alphas.len()`, then a seeded surge variant.
    /// All variants are deduplicated by digest, so the realized ensemble may
    /// hold fewer than K matrices.
    pub fn realize(&self, base: &DemandMatrix) -> Result<TrafficEnsemble, EnsembleError> {
        self.validate()?;
        let mut ensemble = TrafficEnsemble::new(base.clone())?;
        // One shared synthetic history per realization: equal alphas then
        // yield equal levels, which the digest dedupe collapses instead of
        // double-checking the same matrix.
        let history = synthetic_history(self.seed);
        let latest = history[HISTORY_DAYS - 1];
        let mut rng = self.seed;
        for i in 0..self.k - 1 {
            if let Some(&alpha) = self.ewma_alphas.get(i) {
                let level = ewma_level(&history, alpha);
                let ratio = if latest > 0.0 { level / latest } else { 1.0 };
                if !(ratio.is_finite() && ratio >= 0.0) {
                    return Err(EnsembleError::Malformed(format!(
                        "EWMA level ratio {ratio} for alpha {alpha} is not usable"
                    )));
                }
                ensemble.push_variant(format!("ewma[a={alpha}]"), base.scaled(ratio))?;
            } else {
                let pick = splitmix64(&mut rng);
                let frac = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                let class = match pick % 4 {
                    0 => None,
                    r => Some(DemandClass::ALL[(r - 1) as usize]),
                };
                let factor = 1.0 + (self.surge_factor - 1.0) * frac;
                let label = match class {
                    None => format!("surge[all x{factor:.4}]"),
                    Some(c) => format!("surge[{c:?} x{factor:.4}]"),
                };
                let mut surged = base.clone();
                surged.scale_where(factor, |d| class.is_none_or(|c| d.class == c));
                ensemble.push_variant(label, surged)?;
            }
        }
        Ok(ensemble)
    }
}

/// A realized set of traffic matrices sharing the base's demand endpoints.
/// Index 0 is always the base forecast; checkers evaluate in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEnsemble {
    matrices: Vec<DemandMatrix>,
    labels: Vec<String>,
    digests: Vec<u64>,
}

impl TrafficEnsemble {
    /// Starts an ensemble from its base matrix (index 0).
    pub fn new(base: DemandMatrix) -> Result<Self, EnsembleError> {
        validate_rates(&base, 0)?;
        let digest = matrix_digest(&base);
        Ok(Self {
            matrices: vec![base],
            labels: vec!["base".to_string()],
            digests: vec![digest],
        })
    }

    /// Appends a variant. Returns `Ok(false)` when the matrix duplicates an
    /// existing member by digest; errors when its demand dimensions diverge
    /// from the base or a rate is invalid.
    pub fn push_variant(
        &mut self,
        label: impl Into<String>,
        matrix: DemandMatrix,
    ) -> Result<bool, EnsembleError> {
        let index = self.matrices.len();
        validate_rates(&matrix, index)?;
        let base = &self.matrices[0];
        if matrix.len() != base.len() {
            return Err(EnsembleError::DimensionMismatch {
                matrix: index,
                reason: format!("{} demands, base has {}", matrix.len(), base.len()),
            });
        }
        for (j, (d, b)) in matrix.iter().zip(base.iter()).enumerate() {
            if d.src != b.src || d.dst != b.dst || d.class != b.class {
                return Err(EnsembleError::DimensionMismatch {
                    matrix: index,
                    reason: format!(
                        "demand {j} is {:?}->{:?} ({:?}), base has {:?}->{:?} ({:?})",
                        d.src, d.dst, d.class, b.src, b.dst, b.class
                    ),
                });
            }
        }
        let digest = matrix_digest(&matrix);
        if self.digests.contains(&digest) {
            return Ok(false);
        }
        self.matrices.push(matrix);
        self.labels.push(label.into());
        self.digests.push(digest);
        Ok(true)
    }

    /// Checks every endpoint against the topology's switch count.
    pub fn validate_against(&self, num_switches: usize) -> Result<(), EnsembleError> {
        for (i, m) in self.matrices.iter().enumerate() {
            for d in m.iter() {
                for sw in [d.src, d.dst] {
                    if sw.index() >= num_switches {
                        return Err(EnsembleError::EndpointOutOfRange {
                            matrix: i,
                            switch: sw.0,
                            num_switches,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of distinct matrices (K after dedupe).
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// Never true: an ensemble always holds the base.
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// The base forecast matrix (index 0).
    pub fn base(&self) -> &DemandMatrix {
        &self.matrices[0]
    }

    /// All matrices, base first.
    pub fn matrices(&self) -> &[DemandMatrix] {
        &self.matrices
    }

    /// The non-base variants (indices 1..K).
    pub fn extras(&self) -> &[DemandMatrix] {
        &self.matrices[1..]
    }

    /// Human-readable labels, aligned with [`matrices`](Self::matrices).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Per-matrix content digests.
    pub fn digests(&self) -> &[u64] {
        &self.digests
    }

    /// Combined digest over all member digests (order-sensitive).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &d in &self.digests {
            h.u64(d);
        }
        h.finish()
    }
}

fn validate_rates(matrix: &DemandMatrix, index: usize) -> Result<(), EnsembleError> {
    for (j, d) in matrix.iter().enumerate() {
        if !(d.gbps.is_finite() && d.gbps >= 0.0) {
            return Err(EnsembleError::InvalidRate {
                matrix: index,
                index: j,
                gbps: d.gbps,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;
    use klotski_topology::SwitchId;

    fn base() -> DemandMatrix {
        [
            Demand {
                src: SwitchId(0),
                dst: SwitchId(1),
                gbps: 10.0,
                class: DemandClass::RswToEbb,
            },
            Demand {
                src: SwitchId(2),
                dst: SwitchId(1),
                gbps: 20.0,
                class: DemandClass::RswToRsw,
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn k_zero_is_rejected() {
        let spec = EnsembleSpec::with_k(0, 7);
        assert_eq!(spec.validate(), Err(EnsembleError::Empty));
        assert_eq!(EnsembleSpec::parse("0@7"), Err(EnsembleError::Empty));
    }

    #[test]
    fn oversized_k_is_rejected() {
        let spec = EnsembleSpec::with_k(MAX_ENSEMBLE + 1, 7);
        assert!(matches!(
            spec.validate(),
            Err(EnsembleError::TooLarge { .. })
        ));
    }

    #[test]
    fn bad_alpha_and_factor_are_rejected() {
        for alpha in [0.0, -0.2, 1.5, f64::NAN] {
            let spec = EnsembleSpec {
                ewma_alphas: vec![alpha],
                ..EnsembleSpec::with_k(2, 7)
            };
            assert!(
                matches!(spec.validate(), Err(EnsembleError::BadAlpha(_))),
                "{alpha}"
            );
        }
        for factor in [0.5, -1.0, f64::NAN, f64::INFINITY] {
            let spec = EnsembleSpec {
                surge_factor: factor,
                ..EnsembleSpec::with_k(2, 7)
            };
            assert!(
                matches!(spec.validate(), Err(EnsembleError::BadFactor(_))),
                "{factor}"
            );
        }
    }

    #[test]
    fn parse_accepts_shorthand_and_rejects_garbage() {
        let spec = EnsembleSpec::parse("4@42").unwrap();
        assert_eq!(spec.k, 4);
        assert_eq!(spec.seed, 42);
        for bad in ["", "4", "@", "x@1", "4@x", "4@-1", "4@1.5"] {
            assert!(
                matches!(EnsembleSpec::parse(bad), Err(EnsembleError::Malformed(_))),
                "{bad:?} should be malformed"
            );
        }
    }

    #[test]
    fn realization_is_deterministic_in_the_seed() {
        let spec = EnsembleSpec::with_k(6, 42);
        let a = spec.realize(&base()).unwrap();
        let b = spec.realize(&base()).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.matrices(), b.matrices());
        let other = EnsembleSpec::with_k(6, 43).realize(&base()).unwrap();
        assert_ne!(a.digest(), other.digest(), "surge variants follow the seed");
    }

    #[test]
    fn variants_share_the_base_endpoint_structure() {
        let ens = EnsembleSpec::with_k(8, 9).realize(&base()).unwrap();
        assert!(ens.len() >= 2);
        for m in ens.extras() {
            assert_eq!(m.len(), ens.base().len());
            for (d, b) in m.iter().zip(ens.base().iter()) {
                assert_eq!((d.src, d.dst, d.class), (b.src, b.dst, b.class));
            }
        }
        ens.validate_against(3).unwrap();
    }

    /// Every member's label and digest, pinned: plan bytes, fingerprints and
    /// goldens taken with an ensemble hold only while realization is
    /// bit-identical. With K = 8 one surge lands on `EbbToRsw`, which
    /// `base()` lacks, so it duplicates the base and is deduped: seven
    /// members each.
    #[test]
    fn realized_members_keep_their_labels_and_digests() {
        let default_range = [
            ("base", 0x22ce_f8f0_115d_ffff),
            ("ewma[a=0.35]", 0xc73f_4bc1_8fce_e4ef),
            ("ewma[a=0.65]", 0xe4cb_0254_f9e2_7b6b),
            ("surge[all x1.2252]", 0xb5f1_286e_1be7_e9ad),
            ("surge[RswToEbb x1.0344]", 0x7065_a66d_263d_0371),
            ("surge[all x1.2951]", 0x3521_8c93_d308_7aef),
            ("surge[RswToEbb x1.2367]", 0xa0b2_56f9_35fd_0f3a),
        ];
        let wide_range = [
            ("base", 0x22ce_f8f0_115d_ffff),
            ("ewma[a=0.35]", 0xc73f_4bc1_8fce_e4ef),
            ("ewma[a=0.65]", 0xe4cb_0254_f9e2_7b6b),
            ("surge[all x1.3753]", 0xa558_1580_0411_fcf3),
            ("surge[RswToEbb x1.0573]", 0xd5f5_f2bf_4acc_e86c),
            ("surge[all x1.4918]", 0xb784_9f4c_7a79_e8f3),
            ("surge[RswToEbb x1.3946]", 0x0027_2c80_c80b_2213),
        ];
        let wide = EnsembleSpec {
            surge_factor: 1.5,
            ..EnsembleSpec::with_k(8, 9)
        };
        for (spec, want) in [
            (EnsembleSpec::with_k(8, 9), default_range),
            (wide, wide_range),
        ] {
            let ens = spec.realize(&base()).unwrap();
            let got: Vec<(&str, u64)> = ens
                .labels()
                .iter()
                .map(String::as_str)
                .zip(ens.matrices().iter().map(matrix_digest))
                .collect();
            assert_eq!(got, want, "surge_factor {}", spec.surge_factor);
            assert_eq!(ens.digests(), want.map(|(_, d)| d));
        }
    }

    #[test]
    fn duplicate_alphas_dedupe() {
        let spec = EnsembleSpec {
            ewma_alphas: vec![0.4, 0.4],
            ..EnsembleSpec::with_k(3, 5)
        };
        let ens = spec.realize(&base()).unwrap();
        assert_eq!(ens.len(), 2, "identical EWMA variants collapse");
        let mut again = TrafficEnsemble::new(base()).unwrap();
        let twin = ens.extras()[0].clone();
        assert_eq!(again.push_variant("first", twin.clone()), Ok(true));
        assert_eq!(again.push_variant("second", twin), Ok(false));
        assert_eq!(again.len(), 2);
        assert_eq!(again.labels(), ["base", "first"]);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut ens = TrafficEnsemble::new(base()).unwrap();
        // Wrong length.
        let short: DemandMatrix = base().iter().take(1).cloned().collect();
        assert!(matches!(
            ens.push_variant("short", short),
            Err(EnsembleError::DimensionMismatch { matrix: 1, .. })
        ));
        // Same length, different endpoint.
        let skewed: DemandMatrix = base()
            .iter()
            .cloned()
            .map(|mut d| {
                if d.src == SwitchId(2) {
                    d.src = SwitchId(0);
                }
                d
            })
            .collect();
        assert!(matches!(
            ens.push_variant("skewed", skewed),
            Err(EnsembleError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_rates_are_rejected() {
        // serde can smuggle rates `DemandMatrix::push` would panic on
        // (JSON `1e999` parses as +inf), so validation must catch them.
        let json = r#"{"demands":[
            {"src":0,"dst":1,"gbps":1e999,"class":"RswToEbb"},
            {"src":2,"dst":1,"gbps":20.0,"class":"RswToRsw"}]}"#;
        let inf: DemandMatrix = serde_json::from_str(json).unwrap();
        assert!(matches!(
            TrafficEnsemble::new(inf),
            Err(EnsembleError::InvalidRate {
                matrix: 0,
                index: 0,
                ..
            })
        ));
        let json_neg = r#"{"demands":[
            {"src":0,"dst":1,"gbps":10.0,"class":"RswToEbb"},
            {"src":2,"dst":1,"gbps":-3.0,"class":"RswToRsw"}]}"#;
        let neg: DemandMatrix = serde_json::from_str(json_neg).unwrap();
        let mut ens = TrafficEnsemble::new(base()).unwrap();
        assert!(matches!(
            ens.push_variant("neg", neg),
            Err(EnsembleError::InvalidRate {
                matrix: 1,
                index: 1,
                ..
            })
        ));
    }

    #[test]
    fn endpoints_outside_the_topology_are_rejected() {
        let ens = TrafficEnsemble::new(base()).unwrap();
        assert!(matches!(
            ens.validate_against(2),
            Err(EnsembleError::EndpointOutOfRange { switch: 2, .. })
        ));
        ens.validate_against(3).unwrap();
    }

    #[test]
    fn seed_is_explicit_in_the_wire_form() {
        // Satellite: the seed must travel with the spec — a JSON spec
        // without one is rejected rather than falling back to a default.
        let missing: Result<EnsembleSpec, _> = serde_json::from_str(r#"{"k":2}"#);
        assert!(missing.is_err());
        let ok: EnsembleSpec = serde_json::from_str(r#"{"k":2,"seed":7}"#).unwrap();
        assert_eq!(ok.seed, 7);
        assert_eq!(ok.ewma_alphas, vec![0.35, 0.65]);
    }

    #[test]
    fn synthesis_is_deterministic_in_the_seed() {
        assert_eq!(synthetic_history(11), synthetic_history(11));
        assert_ne!(synthetic_history(11), synthetic_history(12));
        assert_eq!(synthetic_history(11).len(), HISTORY_DAYS);
    }

    #[test]
    fn trend_grows_over_time() {
        let h = synthetic_history(11);
        let first: f64 = h[..7].iter().sum();
        let last: f64 = h[HISTORY_DAYS - 7..].iter().sum();
        assert!(last > first * 1.3, "+0.3%/day over 120d");
    }

    #[test]
    fn seasonality_oscillates_weekly() {
        // Detrended, each weekday's mean over the 17 weeks is the weekly
        // sinusoid's value on that day; the noise averages out.
        let h = synthetic_history(11);
        for weekday in 0..7 {
            let days: Vec<usize> = (weekday..HISTORY_DAYS).step_by(7).collect();
            let mean = days
                .iter()
                .map(|&d| h[d] / (1.0 + DAILY_GROWTH * d as f64))
                .sum::<f64>()
                / days.len() as f64;
            let season =
                1.0 + WEEKLY_AMPLITUDE * (weekday as f64 * std::f64::consts::TAU / 7.0).sin();
            assert!(
                (mean - season).abs() < 0.01,
                "weekday {weekday}: {mean} vs {season}"
            );
        }
    }

    #[test]
    fn samples_stay_finite_and_non_negative() {
        for seed in 0..32 {
            assert!(synthetic_history(seed)
                .iter()
                .all(|s| s.is_finite() && *s >= 0.0));
        }
    }

    #[test]
    fn ewma_converges_to_constant() {
        assert!((ewma_level(&[5.0; 50], 0.2) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_weights_recent_more() {
        let mut v = vec![1.0; 49];
        v.push(10.0);
        let fast = ewma_level(&v, 0.9);
        let slow = ewma_level(&v, 0.1);
        assert!(fast > slow);
        assert!(fast > 8.0 && slow < 3.0);
    }

    #[test]
    fn k1_realizes_to_just_the_base() {
        let ens = EnsembleSpec::with_k(1, 99).realize(&base()).unwrap();
        assert_eq!(ens.len(), 1);
        assert!(ens.extras().is_empty());
        assert_eq!(ens.matrices()[0], base());
    }
}
