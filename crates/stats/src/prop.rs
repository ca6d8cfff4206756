//! Property-based tests for the statistics substrate.

use crate::describe::{
    mad, mean, median, quantile, quantile_sorted, variance_biased, variance_corrected,
};
use crate::dist::{ContinuousDist, LogNormal, Normal, Pareto, StudentT};
use crate::histogram::Histogram;
use crate::online::Welford;
use crate::special::{beta_inc, erfc, gamma_p, inv_norm_cdf, ln_gamma};
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
        w.extend(&xs);
        prop_assert!((w.mean() - mean(&xs)).abs() < 1e-6);
        let scale = variance_corrected(&xs).max(1.0);
        prop_assert!((w.variance() - variance_corrected(&xs)).abs() < 1e-6 * scale);
    }

    #[test]
    fn welford_merge_is_associative_enough(xs in finite_vec(3), split in 1usize..100) {
        let k = split % (xs.len() - 1) + 1;
        let (a, b) = xs.split_at(k);
        let mut wa = Welford::new();
        wa.extend(a);
        let mut wb = Welford::new();
        wb.extend(b);
        let merged = wa.merge(&wb);
        let mut seq = Welford::new();
        seq.extend(&xs);
        prop_assert_eq!(merged.count(), seq.count());
        prop_assert!((merged.mean() - seq.mean()).abs() < 1e-6);
    }

    #[test]
    fn histogram_conserves_counts(xs in finite_vec(1)) {
        let mut h = Histogram::linear(-1e6, 1e6, 64);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    #[test]
    fn normal_cdf_quantile_round_trip(mean in -100.0f64..100.0, std in 0.01f64..100.0, p in 0.001f64..0.999) {
        let d = Normal::new(mean, std);
        prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-8);
    }

    #[test]
    fn lognormal_support_is_positive(mu in -5.0f64..5.0, sigma in 0.01f64..2.0, p in 0.001f64..0.999) {
        let d = LogNormal::new(mu, sigma);
        prop_assert!(d.quantile(p) > 0.0);
        prop_assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn student_t_cdf_is_monotone(df in 1.0f64..100.0, a in -50.0f64..50.0, b in -50.0f64..50.0) {
        let d = StudentT::new(df);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12);
    }

    #[test]
    fn pareto_respects_xmin(xmin in 0.1f64..100.0, alpha in 0.5f64..5.0, p in 0.001f64..0.999) {
        let d = Pareto::new(xmin, alpha);
        prop_assert!(d.quantile(p) >= xmin);
    }

    #[test]
    fn erfc_is_bounded_and_odd_about_one(x in -6.0f64..6.0) {
        let e = 1.0 - erfc(x);
        prop_assert!((-1.0..=1.0).contains(&e));
        prop_assert!((1.0 - erfc(-x) + e).abs() < 1e-12);
    }

    #[test]
    fn gamma_p_is_a_cdf(a in 0.1f64..50.0, x1 in 0.0f64..100.0, x2 in 0.0f64..100.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let plo = gamma_p(a, lo);
        let phi = gamma_p(a, hi);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&plo));
        prop_assert!(plo <= phi + 1e-10);
    }

    #[test]
    fn beta_inc_symmetry(a in 0.2f64..20.0, b in 0.2f64..20.0, x in 0.001f64..0.999) {
        prop_assert!((beta_inc(a, b, x) - (1.0 - beta_inc(b, a, 1.0 - x))).abs() < 1e-8);
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.1f64..170.0) {
        prop_assert!((ln_gamma(x + 1.0) - ln_gamma(x) - x.ln()).abs() < 1e-8 * (1.0 + ln_gamma(x).abs()));
    }

    #[test]
    fn inv_norm_round_trip(p in 0.0001f64..0.9999) {
        let x = inv_norm_cdf(p);
        let back = Normal::standard().cdf(x);
        prop_assert!((back - p).abs() < 1e-8);
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
