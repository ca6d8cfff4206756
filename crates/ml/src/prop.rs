//! Property-based tests for the ML substrate.

use crate::data::{signed_log, Dataset, Preprocessor};
use crate::gbm::{Gbm, GbmParams, Trainer};
use crate::metrics::{abs_log10_errors, log10_error_to_pct, median_abs_error, pct_to_log10_error};
use crate::prepared::PreparedDataset;
use crate::Regressor;
use proptest::prelude::*;

/// Bin-then-train through the prepared-context API, the shape every
/// production call site uses.
fn fit(data: &Dataset, params: GbmParams) -> Gbm {
    Trainer::new(&PreparedDataset::fit(data, params.max_bins)).fit(params)
}

fn arb_dataset(max_rows: usize) -> impl Strategy<Value = Dataset> {
    (2usize..5, 4usize..max_rows).prop_flat_map(|(n_cols, n_rows)| {
        (
            prop::collection::vec(-1e3f64..1e3, n_rows * n_cols),
            prop::collection::vec(-10f64..10.0, n_rows),
        )
            .prop_map(move |(x, y)| {
                let names = (0..n_cols).map(|i| format!("f{i}")).collect();
                Dataset::new(x, n_rows, n_cols, y, names)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn preprocessor_transform_is_finite_and_invertible_in_rank(data in arb_dataset(64)) {
        let p = Preprocessor::fit(&data);
        let t = p.transform(&data);
        prop_assert!(t.x.iter().all(|v| v.is_finite()));
        // Rank order within a column is preserved (signed log + affine are
        // monotone).
        for c in 0..data.n_cols {
            for i in 1..data.n_rows {
                let raw = data.row(i)[c].partial_cmp(&data.row(i - 1)[c]).unwrap();
                let tr = t.row(i)[c].partial_cmp(&t.row(i - 1)[c]).unwrap();
                if raw != std::cmp::Ordering::Equal {
                    prop_assert_eq!(raw, tr);
                }
            }
        }
    }

    #[test]
    fn signed_log_monotone(a in -1e12f64..1e12, b in -1e12f64..1e12) {
        if a < b {
            prop_assert!(signed_log(a) < signed_log(b) + 1e-15);
        }
    }

    #[test]
    fn error_metric_is_a_metric(y in prop::collection::vec(-5f64..5.0, 1..50)) {
        // Zero at identity, symmetric, positive elsewhere.
        prop_assert_eq!(median_abs_error(&y, &y), 0.0);
        let shifted: Vec<f64> = y.iter().map(|v| v + 1.0).collect();
        let e1 = abs_log10_errors(&y, &shifted);
        let e2 = abs_log10_errors(&shifted, &y);
        for (a, b) in e1.iter().zip(&e2) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pct_conversion_round_trips(pct in 0.0f64..500.0) {
        prop_assert!((log10_error_to_pct(pct_to_log10_error(pct)) - pct).abs() < 1e-6);
    }

    #[test]
    fn binning_respects_order(data in arb_dataset(64)) {
        let binned = PreparedDataset::fit(&data, 16);
        for c in 0..data.n_cols {
            let codes = binned.feature_codes(c);
            for i in 0..data.n_rows {
                for j in 0..data.n_rows {
                    let (xi, xj) = (data.row(i)[c], data.row(j)[c]);
                    let (bi, bj) = (codes[i], codes[j]);
                    if xi < xj {
                        prop_assert!(bi <= bj, "order violated: {xi} -> bin {bi}, {xj} -> bin {bj}");
                    }
                }
            }
        }
    }

    #[test]
    fn bin_edges_round_trip_through_their_codes(data in arb_dataset(64)) {
        // The cut vector is the contract of the prepared context: edges are
        // strictly increasing, every cut value encodes to its own bin, and
        // no code escapes the per-feature bin count.
        let binned = PreparedDataset::fit(&data, 16);
        let bound = binned.bind(&data);
        prop_assert_eq!(bound.n_rows, data.n_rows);
        for c in 0..data.n_cols {
            let cuts = binned.cuts(c);
            prop_assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts not strictly increasing");
            // Every cut value round-trips to its own bin index, so a tree
            // split "code <= b" means exactly "x <= cuts[b]".
            for (b, &edge) in cuts.iter().enumerate() {
                let code = cuts.partition_point(|&v| v < edge);
                prop_assert!(code == b, "edge {edge} mapped to bin {code}, expected {b}");
            }
            // The stored codes are the reference encoding of the raw
            // column, and never escape the cut range.
            let codes = binned.feature_codes(c);
            for (r, &code) in codes.iter().enumerate() {
                let x = data.row(r)[c];
                let expect = cuts.partition_point(|&v| v < x) as u16;
                prop_assert!(code == expect, "row {r}: code {code} vs {expect}");
                prop_assert!((code as usize) <= cuts.len());
            }
        }
    }

    #[test]
    fn gbm_predictions_are_finite_and_bounded_by_target_range(data in arb_dataset(48)) {
        let model = fit(&data, GbmParams { n_trees: 10, max_depth: 3, ..Default::default() });
        let preds = model.predict(&data);
        let lo = data.y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in preds {
            prop_assert!(p.is_finite());
            // Tree ensembles on squared loss cannot extrapolate beyond a
            // generous hull of the targets.
            prop_assert!(p >= lo - (hi - lo) - 1.0 && p <= hi + (hi - lo) + 1.0);
        }
    }

    #[test]
    fn gbm_is_invariant_to_monotone_feature_transforms(data in arb_dataset(40)) {
        // Trees split on order statistics: replacing x with sign(x)·ln(1+|x|)
        // must leave every prediction unchanged (same bins, same splits).
        let params = GbmParams { n_trees: 8, max_depth: 3, max_bins: 64, ..Default::default() };
        let model_raw = fit(&data, params);
        let transformed = Dataset::new(
            data.x.iter().map(|&v| signed_log(v)).collect(),
            data.n_rows,
            data.n_cols,
            data.y.clone(),
            data.names.clone(),
        );
        let model_tr = fit(&transformed, params);
        for i in 0..data.n_rows {
            let a = model_raw.predict_row(data.row(i));
            let b = model_tr.predict_row(transformed.row(i));
            prop_assert!((a - b).abs() < 1e-9, "row {i}: {a} vs {b}");
        }
    }

    #[test]
    fn subset_preserves_rows(data in arb_dataset(40), pick in prop::collection::vec(0usize..1000, 1..10)) {
        let rows: Vec<usize> = pick.iter().map(|p| p % data.n_rows).collect();
        let sub = data.subset(&rows);
        prop_assert_eq!(sub.n_rows, rows.len());
        for (k, &r) in rows.iter().enumerate() {
            prop_assert_eq!(sub.row(k), data.row(r));
            prop_assert_eq!(sub.y[k], data.y[r]);
        }
    }

    #[test]
    fn random_split_partitions_exactly(data in arb_dataset(64), seed in any::<u64>()) {
        let (tr, va, te) = data.split_random(0.6, 0.2, seed);
        prop_assert_eq!(tr.n_rows + va.n_rows + te.n_rows, data.n_rows);
        // Multiset of targets is preserved.
        let mut all: Vec<f64> = tr.y.iter().chain(&va.y).chain(&te.y).copied().collect();
        let mut orig = data.y.clone();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(all, orig);
    }
}
