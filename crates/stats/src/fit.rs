//! Distribution fitting.
//!
//! The §IX noise litmus test fits a Student-t to concurrent-duplicate errors
//! (small duplicate sets make the empirical errors t-distributed) and reads
//! off the system's inherent I/O noise level after Bessel correction.
//! Fitting uses the standard EM algorithm for the location-scale t with a
//! profiled golden-section search over the degrees of freedom.

use crate::describe::{mean, variance_corrected};
use crate::dist::StudentT;
use crate::special::ln_gamma;

/// Maximum-likelihood Normal fit (which is just the sample moments, with
/// Bessel's correction applied to the variance).
#[derive(Debug, Clone, Copy, PartialEq)]
// audit:allow(dead-public-api) -- return type of the public fit_normal, which iotax-core's noise-floor litmus calls
pub struct NormalFit {
    /// Fitted mean.
    pub mean: f64,
    /// Fitted (Bessel-corrected) standard deviation.
    pub std: f64,
    /// Log-likelihood at the fit.
    pub log_likelihood: f64,
}

/// Fit a Normal to data. Panics for fewer than two samples.
pub fn fit_normal(xs: &[f64]) -> NormalFit {
    assert!(xs.len() >= 2, "fit_normal requires at least two samples");
    let m = mean(xs);
    let v = variance_corrected(xs);
    let s = v.sqrt();
    let n = xs.len() as f64;
    // Log-likelihood of N(m, v) over the data.
    let ll = -0.5 * n * ((2.0 * std::f64::consts::PI * v).ln())
        - xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (2.0 * v);
    NormalFit { mean: m, std: s, log_likelihood: ll }
}

/// Result of a location-scale Student-t fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentTFit {
    /// Fitted distribution.
    pub dist: StudentT,
    /// Log-likelihood at the fit.
    pub log_likelihood: f64,
    /// EM iterations used at the selected degrees of freedom.
    pub iterations: usize,
}

fn t_log_likelihood(xs: &[f64], df: f64, loc: f64, scale: f64) -> f64 {
    let nu = df;
    let ln_c = ln_gamma((nu + 1.0) / 2.0)
        - ln_gamma(nu / 2.0)
        - 0.5 * (nu * std::f64::consts::PI).ln()
        - scale.ln();
    xs.iter()
        .map(|&x| {
            let t = (x - loc) / scale;
            ln_c - (nu + 1.0) / 2.0 * (1.0 + t * t / nu).ln()
        })
        .sum()
}

/// EM for location and scale at fixed degrees of freedom.
///
/// E-step: weights w_i = (ν+1)/(ν + ((x-μ)/σ)²); M-step: weighted mean and
/// weighted scale update. Converges linearly; 100 iterations is plenty for
/// the litmus tests.
fn em_fixed_df(xs: &[f64], df: f64) -> (f64, f64, usize) {
    let mut loc = mean(xs);
    let mut scale = variance_corrected(xs).sqrt().max(1e-12);
    let n = xs.len() as f64;
    let mut iters = 0;
    for it in 0..200 {
        iters = it + 1;
        let mut sw = 0.0;
        let mut swx = 0.0;
        for &x in xs {
            let t = (x - loc) / scale;
            let w = (df + 1.0) / (df + t * t);
            sw += w;
            swx += w * x;
        }
        let new_loc = swx / sw;
        let mut s2 = 0.0;
        for &x in xs {
            let t = (x - loc) / scale;
            let w = (df + 1.0) / (df + t * t);
            s2 += w * (x - new_loc) * (x - new_loc);
        }
        let new_scale = (s2 / n).sqrt().max(1e-12);
        let done = (new_loc - loc).abs() < 1e-10 * (1.0 + loc.abs())
            && (new_scale - scale).abs() < 1e-10 * scale;
        loc = new_loc;
        scale = new_scale;
        if done {
            break;
        }
    }
    (loc, scale, iters)
}

/// Fit a location-scale Student-t by maximum likelihood.
///
/// Golden-section search over `log(df)` in `[log(df_min), log(df_max)]`,
/// solving location/scale by EM at each candidate df. Panics for fewer than
/// three samples.
pub fn fit_student_t(xs: &[f64]) -> StudentTFit {
    fit_student_t_bounded(xs, 1.0, 200.0)
}

/// [`fit_student_t`] with explicit degrees-of-freedom search bounds.
pub(crate) fn fit_student_t_bounded(xs: &[f64], df_min: f64, df_max: f64) -> StudentTFit {
    assert!(xs.len() >= 3, "fit_student_t requires at least three samples");
    assert!(df_min > 0.0 && df_max > df_min);
    let obj = |ldf: f64| -> (f64, f64, f64, usize) {
        let df = ldf.exp();
        let (loc, scale, iters) = em_fixed_df(xs, df);
        (t_log_likelihood(xs, df, loc, scale), loc, scale, iters)
    };
    // Golden-section maximization over log(df).
    let gr = (5.0_f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (df_min.ln(), df_max.ln());
    let mut c = b - gr * (b - a);
    let mut d = a + gr * (b - a);
    let mut fc = obj(c);
    let mut fd = obj(d);
    for _ in 0..60 {
        if fc.0 > fd.0 {
            b = d;
            d = c;
            fd = fc;
            c = b - gr * (b - a);
            fc = obj(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + gr * (b - a);
            fd = obj(d);
        }
        if (b - a).abs() < 1e-6 {
            break;
        }
    }
    let (ll, loc, scale, iters, ldf) =
        if fc.0 > fd.0 { (fc.0, fc.1, fc.2, fc.3, c) } else { (fd.0, fd.1, fd.2, fd.3, d) };
    StudentTFit {
        dist: StudentT::with_loc_scale(ldf.exp(), loc, scale),
        log_likelihood: ll,
        iterations: iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDist, Normal};
    use crate::rng::rng_from_seed;

    /// AIC comparison of the two fits: `(normal, t, t_preferred)`.
    fn normal_vs_t(xs: &[f64]) -> (NormalFit, StudentTFit, bool) {
        let n = fit_normal(xs);
        let t = fit_student_t(xs);
        // AIC = 2k - 2 ln L; lower is better. Normal k = 2, t k = 3.
        let aic_n = 2.0 * 2.0 - 2.0 * n.log_likelihood;
        let aic_t = 2.0 * 3.0 - 2.0 * t.log_likelihood;
        (n, t, aic_t < aic_n)
    }

    #[test]
    fn fit_normal_recovers_parameters() {
        let mut rng = rng_from_seed(31);
        let xs = Normal::new(5.0, 2.0).sample_n(&mut rng, 50_000);
        let f = fit_normal(&xs);
        assert!((f.mean - 5.0).abs() < 0.05, "mean {}", f.mean);
        assert!((f.std - 2.0).abs() < 0.05, "std {}", f.std);
    }

    #[test]
    fn fit_t_recovers_low_df() {
        let mut rng = rng_from_seed(32);
        let xs = StudentT::with_loc_scale(4.0, 1.0, 0.5).sample_n(&mut rng, 30_000);
        let f = fit_student_t(&xs);
        assert!((f.dist.loc - 1.0).abs() < 0.03, "loc {}", f.dist.loc);
        assert!((f.dist.scale - 0.5).abs() < 0.05, "scale {}", f.dist.scale);
        assert!(f.dist.df > 2.5 && f.dist.df < 6.5, "df {}", f.dist.df);
    }

    #[test]
    fn fit_t_on_normal_data_gives_large_df() {
        let mut rng = rng_from_seed(33);
        let xs = Normal::new(0.0, 1.0).sample_n(&mut rng, 20_000);
        let f = fit_student_t(&xs);
        assert!(f.dist.df > 25.0, "df {}", f.dist.df);
    }

    #[test]
    fn model_selection_prefers_t_on_t_data() {
        let mut rng = rng_from_seed(34);
        let xs = StudentT::new(3.0).sample_n(&mut rng, 10_000);
        let (_, _, t_preferred) = normal_vs_t(&xs);
        assert!(t_preferred);
    }

    #[test]
    fn model_selection_prefers_normal_on_normal_data() {
        let mut rng = rng_from_seed(35);
        let xs = Normal::new(0.0, 1.0).sample_n(&mut rng, 10_000);
        let (nf, tf, t_preferred) = normal_vs_t(&xs);
        // On truly normal data the t fit degenerates to ~normal; AIC should
        // not pay for the extra parameter.
        assert!(!t_preferred || (tf.log_likelihood - nf.log_likelihood) < 2.0);
    }

    #[test]
    fn t_likelihood_is_finite_on_constant_plus_jitter() {
        let xs: Vec<f64> = (0..100).map(|i| 1.0 + 1e-9 * i as f64).collect();
        let f = fit_student_t(&xs);
        assert!(f.log_likelihood.is_finite());
    }
}
