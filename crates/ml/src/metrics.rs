//! The paper's error metric (Eq. 6) and reporting conventions.
//!
//! Targets and predictions live in log10 space, so the absolute
//! log10-ratio error is simply `|y - ŷ|`. The paper reports **medians**
//! because the distributions are heavy-tailed, and converts to percentages
//! as `10^e − 1` (a −25 % error means the model underestimated by 25 %).

use iotax_stats::describe::{median, quantile};

/// Per-row absolute log10-ratio errors, `|y_i − ŷ_i|`.
pub fn abs_log10_errors(y: &[f64], pred: &[f64]) -> Vec<f64> {
    assert_eq!(y.len(), pred.len());
    y.iter().zip(pred).map(|(a, b)| (a - b).abs()).collect()
}

/// Median absolute log10 error.
pub fn median_abs_error(y: &[f64], pred: &[f64]) -> f64 {
    median(&abs_log10_errors(y, pred))
}

/// Convert a log10 error to a percentage: `(10^e − 1) × 100`.
pub fn log10_error_to_pct(e: f64) -> f64 {
    (10f64.powf(e) - 1.0) * 100.0
}

/// Convert a percentage (e.g. 5.71) to a log10 error; the inverse the
/// tests check [`log10_error_to_pct`] against.
#[cfg(test)]
pub(crate) fn pct_to_log10_error(pct: f64) -> f64 {
    (1.0 + pct / 100.0).log10()
}

/// Median absolute error as a percentage — the headline number the paper
/// reports everywhere ("10.01 %", "14.15 %", ...).
pub fn median_abs_error_pct(y: &[f64], pred: &[f64]) -> f64 {
    log10_error_to_pct(median_abs_error(y, pred))
}

/// Quantile of the absolute error distribution, as a percentage.
pub fn error_quantile_pct(y: &[f64], pred: &[f64], q: f64) -> f64 {
    log10_error_to_pct(quantile(&abs_log10_errors(y, pred), q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_have_zero_error() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(median_abs_error(&y, &y), 0.0);
        assert_eq!(median_abs_error_pct(&y, &y), 0.0);
    }

    #[test]
    fn symmetric_over_and_under_estimation() {
        // log(x) = -log(1/x): a 2x overestimate equals a 2x underestimate.
        let y = [1.0];
        let over = abs_log10_errors(&y, &[1.0 + 2f64.log10()]);
        let under = abs_log10_errors(&y, &[1.0 - 2f64.log10()]);
        assert!((over[0] - under[0]).abs() < 1e-12);
    }

    #[test]
    fn pct_round_trip() {
        for &pct in &[0.0, 5.71, 10.01, 14.15, 100.0] {
            let e = pct_to_log10_error(pct);
            assert!((log10_error_to_pct(e) - pct).abs() < 1e-9);
        }
    }

    #[test]
    fn known_percentage_conversion() {
        // 10 % error in linear space = 0.0414 in log10 space.
        assert!((pct_to_log10_error(10.0) - 0.04139).abs() < 1e-4);
        assert!((log10_error_to_pct(std::f64::consts::LOG10_2) - 100.0).abs() < 0.01);
    }

    #[test]
    fn median_is_robust_to_one_blowup() {
        let y = vec![1.0; 101];
        let mut pred = vec![1.01; 101];
        pred[0] = 50.0; // catastrophic outlier
        let med = median_abs_error(&y, &pred);
        assert!((med - 0.01).abs() < 1e-9);
        let mean = abs_log10_errors(&y, &pred).iter().sum::<f64>() / 101.0;
        assert!(mean > med);
    }
}
