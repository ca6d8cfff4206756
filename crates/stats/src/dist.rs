//! Probability distributions: sampling, pdf, cdf, and quantile functions.
//!
//! The simulator (`iotax-sim`) draws application behaviour, noise and weather
//! from these distributions; the litmus tests in `iotax-core` use their CDFs
//! and fits. Everything is generic over [`rand::Rng`] so the caller owns
//! seeding and stream-splitting.

use crate::special::{beta_inc, erfc, inv_norm_cdf, ln_gamma};
use rand::{Rng, RngExt};

/// Common interface for continuous scalar distributions.
pub trait ContinuousDist {
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Draw `n` samples into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

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

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self { mean: 0.0, std: 1.0 }
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

impl ContinuousDist for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * sample_std_normal(rng)
    }

    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        (-0.5 * z * z).exp() / (self.std * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std * inv_norm_cdf(p)
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
}

impl ContinuousDist for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_std_normal(rng)).exp()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        Normal::standard().cdf((x.ln() - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * inv_norm_cdf(p)).exp()
    }
}

/// Student's t distribution with location/scale extension.
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
    /// Standard t with `df` degrees of freedom.
    pub fn new(df: f64) -> Self {
        Self::with_loc_scale(df, 0.0, 1.0)
    }

    /// Location-scale t. Panics on invalid parameters.
    pub(crate) fn with_loc_scale(df: f64, loc: f64, scale: f64) -> Self {
        assert!(df > 0.0 && df.is_finite(), "StudentT df must be > 0");
        assert!(scale > 0.0 && scale.is_finite(), "StudentT scale must be > 0");
        Self { df, loc, scale }
    }

    /// Variance of the distribution; infinite for `df <= 2`.
    pub fn variance(&self) -> f64 {
        if self.df > 2.0 {
            self.scale * self.scale * self.df / (self.df - 2.0)
        } else {
            f64::INFINITY
        }
    }
}

impl ContinuousDist for StudentT {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // t = Z / sqrt(V/ν), V ~ χ²(ν) = Gamma(ν/2, 2)
        let z = sample_std_normal(rng);
        let chi2 = Gamma::new(self.df / 2.0, 2.0).sample(rng);
        self.loc + self.scale * z / (chi2 / self.df).sqrt()
    }

    fn pdf(&self, x: f64) -> f64 {
        let t = (x - self.loc) / self.scale;
        let nu = self.df;
        let ln_c = ln_gamma((nu + 1.0) / 2.0)
            - ln_gamma(nu / 2.0)
            - 0.5 * (nu * std::f64::consts::PI).ln();
        (ln_c - (nu + 1.0) / 2.0 * (1.0 + t * t / nu).ln()).exp() / self.scale
    }

    fn cdf(&self, x: f64) -> f64 {
        let t = (x - self.loc) / self.scale;
        let nu = self.df;
        let ib = beta_inc(nu / 2.0, 0.5, nu / (nu + t * t));
        if t >= 0.0 {
            1.0 - 0.5 * ib
        } else {
            0.5 * ib
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        // Bisection on the CDF: monotone, robust, and plenty fast for the
        // litmus tests (which call this a handful of times).
        let (mut lo, mut hi) = (-1e6_f64, 1e6_f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
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
}

impl ContinuousDist for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * rng.random::<f64>()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x >= self.lo && x < self.hi {
            1.0 / (self.hi - self.lo)
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.lo + p * (self.hi - self.lo)
    }
}

/// Gamma distribution with shape `k` and scale `theta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Gamma {
    /// Shape parameter k > 0.
    pub shape: f64,
    /// Scale parameter θ > 0.
    pub scale: f64,
}

impl Gamma {
    /// Construct Gamma(shape, scale). Panics on non-positive parameters.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "Gamma parameters must be > 0");
        Self { shape, scale }
    }
}

impl ContinuousDist for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia–Tsang squeeze method; boost shape < 1 via the
        // U^{1/k} transformation.
        let (k, boost) = if self.shape < 1.0 {
            let u: f64 = rng.random::<f64>().max(1e-300);
            (self.shape + 1.0, u.powf(1.0 / self.shape))
        } else {
            (self.shape, 1.0)
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
                return d * v * self.scale * boost;
            }
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let k = self.shape;
        let t = self.scale;
        ((k - 1.0) * x.ln() - x / t - ln_gamma(k) - k * t.ln()).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            crate::special::gamma_p(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        let (mut lo, mut hi) = (0.0_f64, self.scale * (self.shape + 20.0) * 20.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
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
}

impl ContinuousDist for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>();
        self.xmin / (1.0 - u).powf(1.0 / self.alpha)
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            0.0
        } else {
            self.alpha * self.xmin.powf(self.alpha) / x.powf(self.alpha + 1.0)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            0.0
        } else {
            1.0 - (self.xmin / x).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        self.xmin / (1.0 - p).powf(1.0 / self.alpha)
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

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when there is exactly zero categories (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
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
        let xs = d.sample_n(&mut rng, 200_000);
        let (m, v) = moments(&xs);
        assert!((m - 3.0).abs() < 0.03, "mean {m}");
        assert!((v - 4.0).abs() < 0.1, "var {v}");
    }

    #[test]
    fn normal_cdf_quantile_round_trip() {
        let d = Normal::new(-1.0, 0.5);
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn student_t_cdf_symmetry_and_tails() {
        let d = StudentT::new(5.0);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        for &x in &[0.5, 1.0, 2.0] {
            assert!((d.cdf(-x) - (1.0 - d.cdf(x))).abs() < 1e-10);
        }
        // t(5) 97.5th percentile = 2.570582 (standard table value).
        assert!((d.quantile(0.975) - 2.570582).abs() < 1e-4);
    }

    #[test]
    fn student_t_approaches_normal_for_large_df() {
        let t = StudentT::new(1000.0);
        let n = Normal::standard();
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            assert!((t.cdf(x) - n.cdf(x)).abs() < 1e-3);
        }
    }

    #[test]
    fn student_t_sampling_variance() {
        let mut rng = rng_from_seed(7);
        let d = StudentT::new(10.0);
        let xs = d.sample_n(&mut rng, 200_000);
        let (_, v) = moments(&xs);
        // Var = ν/(ν-2) = 1.25
        assert!((v - 1.25).abs() < 0.05, "var {v}");
    }

    #[test]
    fn gamma_sampling_matches_moments() {
        let mut rng = rng_from_seed(11);
        for &(k, t) in &[(0.5, 2.0), (2.0, 3.0), (9.0, 0.5)] {
            let d = Gamma::new(k, t);
            let xs = d.sample_n(&mut rng, 150_000);
            let (m, v) = moments(&xs);
            assert!((m - k * t).abs() < 0.05 * k * t + 0.02, "mean {m} for k={k}");
            assert!((v - k * t * t).abs() < 0.1 * k * t * t + 0.05, "var {v} for k={k}");
        }
    }

    #[test]
    fn gamma_cdf_is_chi_squared_for_scale_two() {
        // χ²(2) median is 2 ln 2.
        let d = Gamma::new(1.0, 2.0);
        assert!((d.cdf(2.0 * std::f64::consts::LN_2) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn pareto_tail_behaviour() {
        let d = Pareto::new(1.0, 2.0);
        assert_eq!(d.cdf(0.5), 0.0);
        assert!((d.cdf(2.0) - 0.75).abs() < 1e-12);
        let mut rng = rng_from_seed(5);
        let xs = d.sample_n(&mut rng, 100_000);
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
