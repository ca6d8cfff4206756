//! Probability distributions: the simulator's samplers and the normal CDF.
//!
//! The simulator (`iotax-sim`) draws application behaviour, noise and weather
//! from these distributions. The §IX noise litmus in `iotax-core` tests its
//! duplicate errors against the CDF of a fitted [`Normal`], and reads the
//! Student-t fit as a [`StudentT`]. Everything is generic over [`rand::Rng`]
//! so the caller owns seeding and stream-splitting.

use crate::special::erfc;
use rand::{Rng, RngExt};

/// Normal (Gaussian) distribution `N(mean, std²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Location parameter μ.
    pub mean: f64,
    /// Scale parameter σ (> 0).
    pub std: f64,
}

impl Normal {
    /// Construct `N(mean, std²)`. Panics if `std <= 0` or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std > 0.0 && std.is_finite(), "Normal std must be > 0, got {std}");
        assert!(mean.is_finite(), "Normal mean must be finite");
        Self { mean, std }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * sample_std_normal(rng)
    }

    /// Cumulative distribution function at `x`; the KS test's reference.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }
}

/// Draw a standard normal variate via the Marsaglia polar method.
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.random::<f64>() - 1.0;
        let v = 2.0 * rng.random::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
///
/// The natural model for multiplicative I/O noise — the paper measures error
/// as `|log10(y/ŷ)|` (Eq. 6) precisely because throughput perturbations are
/// multiplicative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (log scale).
    pub mu: f64,
    /// Std of the underlying normal (log scale), > 0.
    pub sigma: f64,
}

impl LogNormal {
    /// Construct from log-scale parameters. Panics if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "LogNormal sigma must be > 0");
        Self { mu, sigma }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_std_normal(rng)).exp()
    }
}

/// Student's t distribution with location/scale extension: the parameters
/// of [`fit_student_t`](crate::fit::fit_student_t)'s fit.
///
/// §IX of the paper shows the Δt = 0 duplicate-error distribution follows a
/// t distribution because small duplicate sets bias the set-mean estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
// audit:allow(dead-public-api) -- type of the public field StudentTFit::dist, which iotax-core's noise-floor litmus reads
pub struct StudentT {
    /// Degrees of freedom ν > 0.
    pub df: f64,
    /// Location parameter.
    pub loc: f64,
    /// Scale parameter (> 0).
    pub scale: f64,
}

impl StudentT {
    /// Location-scale t. Panics on invalid parameters.
    pub(crate) fn with_loc_scale(df: f64, loc: f64, scale: f64) -> Self {
        assert!(df > 0.0 && df.is_finite(), "StudentT df must be > 0");
        assert!(scale > 0.0 && scale.is_finite(), "StudentT scale must be > 0");
        Self { df, loc, scale }
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound (> `lo`).
    pub hi: f64,
}

impl Uniform {
    /// Construct `U[lo, hi)`. Panics if `hi <= lo`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "Uniform requires hi > lo");
        Self { lo, hi }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * rng.random::<f64>()
    }
}

/// Pareto (power-law) distribution with minimum `xmin` and tail index `alpha`.
///
/// Models heavy-tailed job I/O volumes: most HPC jobs move little data, a few
/// move petabytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Minimum value (> 0).
    pub xmin: f64,
    /// Tail index α > 0; smaller means heavier tail.
    pub alpha: f64,
}

impl Pareto {
    /// Construct Pareto(xmin, alpha). Panics on non-positive parameters.
    pub fn new(xmin: f64, alpha: f64) -> Self {
        assert!(xmin > 0.0 && alpha > 0.0, "Pareto parameters must be > 0");
        Self { xmin, alpha }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>();
        self.xmin / (1.0 - u).powf(1.0 / self.alpha)
    }
}

/// Categorical distribution over `0..weights.len()` with the given
/// (unnormalized, non-negative) weights.
///
/// Used to pick application archetypes and duplicate-set templates in the
/// workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Build from unnormalized weights. Panics if empty, if any weight is
    /// negative/non-finite, or if all weights are zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Categorical requires at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "at least one weight must be positive");
        Self { cumulative }
    }

    /// Draw a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.random::<f64>() * total;
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Test fixture: the fit and KS tests draw t-distributed data. Nothing
/// outside the tests samples a t.
#[cfg(test)]
impl StudentT {
    /// Draw one sample: `t = Z / sqrt(V/ν)` with `V ~ χ²(ν) = Gamma(ν/2, 2)`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = sample_std_normal(rng);
        let chi2 = Self::sample_gamma(self.df / 2.0, 2.0, rng);
        self.loc + self.scale * z / (chi2 / self.df).sqrt()
    }

    /// Draw from Gamma(`shape`, `scale`) by the Marsaglia–Tsang squeeze
    /// method; shape < 1 is boosted via the U^{1/k} transformation.
    fn sample_gamma<R: Rng + ?Sized>(shape: f64, scale: f64, rng: &mut R) -> f64 {
        let (k, boost) = if shape < 1.0 {
            let u: f64 = rng.random::<f64>().max(1e-300);
            (shape + 1.0, u.powf(1.0 / shape))
        } else {
            (shape, 1.0)
        };
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = sample_std_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.random();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * scale * boost;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1.0);
        (m, v)
    }

    #[test]
    fn normal_sampling_matches_moments() {
        let mut rng = rng_from_seed(1);
        let d = Normal::new(3.0, 2.0);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = moments(&xs);
        assert!((m - 3.0).abs() < 0.03, "mean {m}");
        assert!((v - 4.0).abs() < 0.1, "var {v}");
    }

    #[test]
    fn normal_cdf_known_value() {
        // Φ(1), at one σ above the mean of any normal.
        const PHI_1: f64 = 0.8413447460685429;
        assert!((Normal::new(0.0, 1.0).cdf(1.0) - PHI_1).abs() < 1e-12);
        assert!((Normal::new(-1.0, 0.5).cdf(-0.5) - PHI_1).abs() < 1e-12);
    }

    #[test]
    fn student_t_sampling_variance() {
        let mut rng = rng_from_seed(7);
        let d = StudentT::with_loc_scale(10.0, 0.0, 1.0);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (_, v) = moments(&xs);
        // Var = ν/(ν-2) = 1.25
        assert!((v - 1.25).abs() < 0.05, "var {v}");
    }

    #[test]
    fn gamma_sampling_matches_moments() {
        let mut rng = rng_from_seed(11);
        for &(k, t) in &[(0.5, 2.0), (2.0, 3.0), (9.0, 0.5)] {
            let xs: Vec<f64> =
                (0..150_000).map(|_| StudentT::sample_gamma(k, t, &mut rng)).collect();
            let (m, v) = moments(&xs);
            assert!((m - k * t).abs() < 0.05 * k * t + 0.02, "mean {m} for k={k}");
            assert!((v - k * t * t).abs() < 0.1 * k * t * t + 0.05, "var {v} for k={k}");
        }
    }

    #[test]
    fn pareto_tail_behaviour() {
        let d = Pareto::new(1.0, 2.0);
        let mut rng = rng_from_seed(5);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        // Mean = α/(α-1) = 2 for α = 2.
        let (m, _) = moments(&xs);
        assert!((m - 2.0).abs() < 0.25, "mean {m}");
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let mut rng = rng_from_seed(9);
        let c = Categorical::new(&[1.0, 3.0, 6.0]);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[c.sample(&mut rng)] += 1;
        }
        assert!((counts[0] as f64 / 1e5 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / 1e5 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / 1e5 - 0.6).abs() < 0.01);
    }

    #[test]
    fn categorical_zero_weight_category_never_drawn() {
        let mut rng = rng_from_seed(13);
        let c = Categorical::new(&[0.0, 1.0]);
        for _ in 0..10_000 {
            assert_eq!(c.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic]
    fn normal_rejects_non_positive_std() {
        Normal::new(0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }
}
