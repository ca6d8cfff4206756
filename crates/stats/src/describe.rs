//! Descriptive statistics.
//!
//! The paper reports *median* absolute errors throughout because the error
//! distributions have heavy tails (§V), and applies Bessel's correction when
//! estimating duplicate-set variance from small sets (§VI, §IX). Both of
//! those conventions live here so every litmus test uses the same
//! definitions.

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population (biased, `1/n`) variance. Returns `NaN` for an empty slice.
pub fn variance_biased(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample (Bessel-corrected, `1/(n-1)`) variance. Returns `NaN` for fewer
/// than two samples.
///
/// The paper's §IX notes that naive variance of small duplicate sets is
/// biased low because the set mean is estimated from the same samples;
/// Bessel's correction `n/(n-1) · σ²` repairs it.
pub(crate) fn variance_corrected(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Bessel-corrected standard deviation.
pub(crate) fn std_corrected(xs: &[f64]) -> f64 {
    variance_corrected(xs).sqrt()
}

/// Quantile with linear interpolation between order statistics
/// (type-7 / NumPy default). `q ∈ [0, 1]`. Returns `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile requires q in [0,1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// [`quantile`] on data that is already sorted ascending (no copy).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let h = q * (sorted.len() - 1) as f64;
    let lo = crate::cast::f64_to_usize(h.floor());
    let hi = crate::cast::f64_to_usize(h.ceil());
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median (50th percentile). Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median absolute deviation around the median (unscaled).
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Minimum of a slice, ignoring nothing; `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, |a, b| if a.is_nan() || b < a { b } else { a })
}

/// Maximum of a slice; `NaN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, |a, b| if a.is_nan() || b > a { b } else { a })
}

/// A compact five-number-plus summary used in experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Bessel-corrected standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a slice. Panics if `xs` contains NaN.
    pub fn of(xs: &[f64]) -> Self {
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in Summary input"));
        Self {
            n: xs.len(),
            mean: mean(xs),
            std: std_corrected(xs),
            min: sorted.first().copied().unwrap_or(f64::NAN),
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            p95: quantile_sorted(&sorted, 0.95),
            max: sorted.last().copied().unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance_biased(&xs) - 4.0).abs() < 1e-12);
        assert!((variance_corrected(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn bessel_correction_exceeds_biased() {
        let xs = [1.0, 2.0, 3.5, 9.0];
        assert!(variance_corrected(&xs) > variance_biased(&xs));
        // Ratio is exactly n/(n-1).
        let ratio = variance_corrected(&xs) / variance_biased(&xs);
        assert!((ratio - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_nan() {
        assert!(mean(&[]).is_nan());
        assert!(median(&[]).is_nan());
        assert!(variance_corrected(&[1.0]).is_nan());
    }

    #[test]
    fn mad_is_robust_to_outlier() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dirty = [1.0, 2.0, 3.0, 4.0, 500.0];
        assert!((mad(&clean) - mad(&dirty)).abs() < 1.01);
    }

    #[test]
    fn summary_fields_are_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(s.p25 < s.median && s.median < s.p75 && s.p75 < s.p95);
    }
}
