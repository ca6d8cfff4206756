//! Property-based tests for the statistics substrate.

use crate::describe::{
    mad, mean, median, quantile, quantile_sorted, variance_biased, variance_corrected,
};
use crate::dist::Normal;
use crate::online::Welford;
use crate::special::{erfc, ln_gamma};
use proptest::prelude::*;

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, min_len..200)
}

proptest! {
    #[test]
    fn quantiles_are_monotone_in_q(xs in finite_vec(1), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, lo) <= quantile(&xs, hi) + 1e-12);
    }

    #[test]
    fn quantiles_are_bounded_by_extremes(xs in finite_vec(1), q in 0.0f64..1.0) {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let v = quantile(&xs, q);
        prop_assert!(v >= min - 1e-12 && v <= max + 1e-12);
    }

    #[test]
    fn bessel_never_shrinks_variance(xs in finite_vec(2)) {
        let b = variance_biased(&xs);
        let c = variance_corrected(&xs);
        prop_assert!(c >= b - 1e-12);
    }

    #[test]
    fn mean_lies_between_extremes(xs in finite_vec(1)) {
        let m = mean(&xs);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    #[test]
    fn translation_shifts_mean_not_variance(xs in finite_vec(2), c in -1e3f64..1e3) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        prop_assert!((mean(&shifted) - mean(&xs) - c).abs() < 1e-6);
        let scale = variance_corrected(&xs).max(1.0);
        prop_assert!((variance_corrected(&shifted) - variance_corrected(&xs)).abs() < 1e-6 * scale);
    }

    #[test]
    fn mad_is_translation_invariant(xs in finite_vec(2), c in -1e3f64..1e3) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        prop_assert!((mad(&shifted) - mad(&xs)).abs() < 1e-8);
    }

    #[test]
    fn welford_matches_batch(xs in finite_vec(2)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!((w.mean() - mean(&xs)).abs() < 1e-6);
        let scale = variance_biased(&xs).max(1.0);
        prop_assert!((w.variance_biased() - variance_biased(&xs)).abs() < 1e-6 * scale);
    }

    #[test]
    fn normal_cdf_is_a_symmetric_cdf(
        mean in -100.0f64..100.0,
        std in 0.01f64..100.0,
        x1 in -1e3f64..1e3,
        x2 in -1e3f64..1e3,
        d in 0.0f64..1e3,
    ) {
        let n = Normal::new(mean, std);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!((0.0..=1.0).contains(&n.cdf(lo)) && (0.0..=1.0).contains(&n.cdf(hi)));
        prop_assert!(n.cdf(lo) <= n.cdf(hi));
        prop_assert!((n.cdf(mean) - 0.5).abs() < 1e-12);
        prop_assert!((n.cdf(mean - d) + n.cdf(mean + d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erfc_is_bounded_and_odd_about_one(x in -6.0f64..6.0) {
        let e = 1.0 - erfc(x);
        prop_assert!((-1.0..=1.0).contains(&e));
        prop_assert!((1.0 - erfc(-x) + e).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.1f64..170.0) {
        prop_assert!((ln_gamma(x + 1.0) - ln_gamma(x) - x.ln()).abs() < 1e-8 * (1.0 + ln_gamma(x).abs()));
    }

    #[test]
    fn quantile_sorted_agrees_with_quantile(xs in finite_vec(1), q in 0.0f64..1.0) {
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(quantile(&xs, q), quantile_sorted(&sorted, q));
    }

    #[test]
    fn median_of_reversed_is_same(xs in finite_vec(1)) {
        let mut rev = xs.clone();
        rev.reverse();
        prop_assert_eq!(median(&xs), median(&rev));
    }
}
