//! Exhaustive hyperparameter grid search for the GBM.
//!
//! §VI.B sweeps four XGBoost knobs — tree count, depth, row subsample and
//! column subsample — over 8046 configurations. `grid_search` reproduces
//! the sweep, one grid point after another, and its output drives the
//! Fig. 1(a) heatmap. The training fold is binned exactly once — every
//! candidate trains through a [`Trainer`] over the shared
//! [`PreparedDataset`] — and duplicate configurations (overlapping sweep
//! axes) train only once, so the `ml.grid_search.candidates` counter
//! reflects models actually fit.

use crate::data::Dataset;
use crate::gbm::{GbmParams, Trainer};
use crate::metrics::median_abs_error;
use crate::prepared::PreparedDataset;
use crate::Regressor;
use serde::{Deserialize, Serialize};

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- element type of the public grid_search's return, which iotax-core's taxonomy stages call
pub struct GridPoint {
    /// The parameters evaluated.
    pub params: GbmParams,
    /// Median absolute log10 error on the validation set.
    pub val_error: f64,
    /// Median absolute log10 error on the training set (memorization
    /// indicator; see Fig. 3's Cobalt discussion).
    pub train_error: f64,
}

/// Exhaustively evaluate the cross product of the four paper knobs over a
/// prepared training fold.
///
/// Returns all distinct points sorted by validation error (best first);
/// identical configurations produced by overlapping axes are evaluated
/// once. Fails with a usage error naming the knob when a candidate is out
/// of range (zero trees/depth, subsample or colsample outside (0, 1], or
/// a bad value in `base`).
pub fn grid_search(
    train: &PreparedDataset,
    val: &Dataset,
    n_trees: &[usize],
    depths: &[usize],
    subsamples: &[f64],
    colsamples: &[f64],
    base: GbmParams,
) -> iotax_obs::Result<Vec<GridPoint>> {
    let mut combos: Vec<GbmParams> = Vec::new();
    for &t in n_trees {
        for &d in depths {
            for &s in subsamples {
                for &c in colsamples {
                    let params =
                        GbmParams { n_trees: t, max_depth: d, subsample: s, colsample: c, ..base };
                    params.validate()?;
                    if !combos.contains(&params) {
                        combos.push(params);
                    }
                }
            }
        }
    }
    let trainer = Trainer::new(train);
    let mut points: Vec<GridPoint> = combos
        .into_iter()
        .map(|params| {
            iotax_obs::counter!("ml.grid_search.candidates").incr(1);
            let model = trainer.fit(params);
            GridPoint {
                params,
                val_error: median_abs_error(&val.y, &model.predict(val)),
                train_error: median_abs_error(train.targets(), &model.predict_prepared(train)),
            }
        })
        .collect();
    points.sort_by(|a, b| a.val_error.partial_cmp(&b.val_error).expect("finite"));
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;
    use rand::RngExt;

    fn quadratic(n: usize, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random::<f64>() * 2.0 - 1.0;
            x.push(a);
            y.push(a * a);
        }
        Dataset::new(x, n, 1, y, vec!["a".into()])
    }

    fn prepared(data: &Dataset) -> PreparedDataset {
        PreparedDataset::fit(data, GbmParams::default().max_bins)
    }

    #[test]
    fn evaluates_full_cross_product_sorted() {
        let train = quadratic(400, 1);
        let val = quadratic(100, 2);
        let points = grid_search(
            &prepared(&train),
            &val,
            &[5, 50],
            &[1, 4],
            &[1.0],
            &[1.0],
            GbmParams::default(),
        )
        .expect("valid axes");
        assert_eq!(points.len(), 4);
        assert!(points.windows(2).all(|w| w[0].val_error <= w[1].val_error));
    }

    #[test]
    fn duplicate_configurations_collapse() {
        let train = quadratic(300, 8);
        let val = quadratic(80, 9);
        // Repeated axis values describe the same four configurations.
        let points = grid_search(
            &prepared(&train),
            &val,
            &[5, 5, 20],
            &[2, 2],
            &[1.0, 1.0],
            &[1.0],
            GbmParams::default(),
        )
        .expect("valid axes");
        assert_eq!(points.len(), 2, "5/20 trees × depth 2, deduplicated");
    }

    #[test]
    fn out_of_range_axes_are_usage_errors() {
        let train = quadratic(100, 10);
        let val = quadratic(40, 11);
        let p = prepared(&train);
        let err = grid_search(&p, &val, &[0], &[2], &[1.0], &[1.0], GbmParams::default())
            .expect_err("zero trees");
        assert_eq!(err.exit_code(), 64);
        assert!(
            grid_search(&p, &val, &[5], &[2], &[1.5], &[1.0], GbmParams::default()).is_err(),
            "subsample > 1 must be rejected"
        );
        let err = grid_search(&p, &val, &[5], &[2, 0], &[1.0], &[1.0], GbmParams::default())
            .expect_err("zero depth");
        assert_eq!(err.exit_code(), 64);
        assert_eq!(err.to_string(), "max_depth must be at least 1 (got 0)");
    }

    #[test]
    fn deeper_larger_models_win_on_curvy_data() {
        let train = quadratic(800, 3);
        let val = quadratic(200, 4);
        let points = grid_search(
            &prepared(&train),
            &val,
            &[2, 100],
            &[1, 5],
            &[1.0],
            &[1.0],
            GbmParams::default(),
        )
        .expect("valid axes");
        let best = &points[0].params;
        assert!(best.n_trees == 100, "best kept {} trees", best.n_trees);
    }

    #[test]
    fn deterministic_results() {
        let train = quadratic(200, 5);
        let val = quadratic(80, 6);
        let p = prepared(&train);
        let run = || {
            grid_search(&p, &val, &[10], &[2, 3], &[0.8], &[1.0], GbmParams::default())
                .expect("valid axes")
        };
        assert_eq!(run(), run());
    }
}
