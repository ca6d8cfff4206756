//! Kolmogorov–Smirnov goodness-of-fit tests.
//!
//! §IX fits a normal to the Δt = 0 duplicate-error distribution and observes
//! it *fails* — the data is t-distributed. The KS statistic is how the
//! reproduction quantifies that comparison (fit quality of normal vs t).

/// Result of a KS test: the statistic `D` and an asymptotic p-value.
#[derive(Debug, Clone, Copy, PartialEq)]
// audit:allow(dead-public-api) -- return type of the public ks_one_sample, which iotax-core's noise-floor litmus calls
pub struct KsResult {
    /// Supremum distance between the two CDFs.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution approximation).
    pub p_value: f64,
}

/// Asymptotic Kolmogorov survival function Q(λ) = 2 Σ (-1)^{k-1} e^{-2k²λ²}.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda < 1e-8 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-12 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// One-sample KS test of `xs` against a theoretical CDF.
///
/// Panics if `xs` is empty or contains NaN.
pub fn ks_one_sample<F: Fn(f64) -> f64>(xs: &[f64], cdf: F) -> KsResult {
    assert!(!xs.is_empty(), "ks_one_sample requires data");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    KsResult { statistic: d, p_value: kolmogorov_q(lambda) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDist, Normal, StudentT};
    use crate::rng::rng_from_seed;

    #[test]
    fn normal_sample_passes_against_own_cdf() {
        let mut rng = rng_from_seed(21);
        let d = Normal::new(0.0, 1.0);
        let xs = d.sample_n(&mut rng, 5000);
        let r = ks_one_sample(&xs, |x| d.cdf(x));
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
        assert!(r.statistic < 0.03);
    }

    #[test]
    fn heavy_tailed_sample_rejects_normal() {
        // t(3) data against a N(0,1) CDF should clearly reject.
        let mut rng = rng_from_seed(22);
        let t = StudentT::new(3.0);
        let xs = t.sample_n(&mut rng, 5000);
        let n = Normal::standard();
        let r = ks_one_sample(&xs, |x| n.cdf(x));
        assert!(r.p_value < 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn statistic_is_bounded() {
        let xs = [1.0, 2.0, 3.0];
        let r = ks_one_sample(&xs, |_| 0.0);
        assert!(r.statistic <= 1.0 && r.statistic > 0.9);
    }
}
