//! Gradient-boosted trees — the XGBoost stand-in.
//!
//! Squared loss on log10 targets, shrinkage, λ-regularized leaves, and the
//! paper's four tuned hyperparameters (§VI.B): number of trees, tree depth,
//! column subsampling, and row subsampling. Supports validation-based early
//! stopping, which the golden-model litmus tests use to avoid overfitting
//! the timing feature.
//!
//! Training goes through a [`Trainer`] bound to a [`PreparedDataset`]: the
//! quantile binning is paid once per fold split, then any number of models
//! (grid-search candidates, litmus refits) train on the shared `u16` codes.

use crate::data::Dataset;
use crate::prepared::{BoundDataset, PreparedDataset};
use crate::tree::{RegressionTree, TreeParams, DEFAULT_MAX_BINS};
use crate::Regressor;
use iotax_obs::Error;
use iotax_stats::rng::substream;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Training loss for the GBM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Loss {
    /// Squared error on the log10 target (XGBoost's `reg:squarederror`).
    #[default]
    SquaredError,
    /// Absolute error on the log10 target — exactly the paper's Eq. 6
    /// objective, `mean |log10(y/ŷ)|`. First-order only (h = 1), like
    /// XGBoost's `reg:absoluteerror`.
    AbsoluteError,
}

/// GBM hyperparameters. The four the paper sweeps are `n_trees`,
/// `max_depth`, `colsample`, and `subsample`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbmParams {
    /// Number of boosting rounds (XGBoost default: 100).
    pub n_trees: usize,
    /// Maximum tree depth (XGBoost default: 6).
    pub max_depth: usize,
    /// Learning rate / shrinkage.
    pub learning_rate: f64,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Fraction of rows seen by each tree.
    pub subsample: f64,
    /// Fraction of columns seen by each tree.
    pub colsample: f64,
    /// Minimum hessian weight per child.
    pub min_child_weight: f64,
    /// Histogram bins per feature.
    pub max_bins: usize,
    /// Seed for row/column subsampling.
    pub seed: u64,
    /// Stop after this many rounds without validation improvement.
    pub early_stopping_rounds: Option<usize>,
    /// Training loss.
    pub loss: Loss,
}

impl Default for GbmParams {
    fn default() -> Self {
        Self {
            n_trees: 100,
            max_depth: 6,
            learning_rate: 0.1,
            lambda: 1.0,
            subsample: 1.0,
            colsample: 1.0,
            min_child_weight: 1.0,
            max_bins: DEFAULT_MAX_BINS,
            seed: 0,
            early_stopping_rounds: None,
            loss: Loss::SquaredError,
        }
    }
}

impl GbmParams {
    /// Checks every knob's range; the usage error (sysexits 64) names the
    /// first knob outside it. [`Trainer::fit`] runs it on every fit,
    /// [`grid_search`](crate::search::grid_search) on every candidate.
    pub(crate) fn validate(&self) -> iotax_obs::Result<()> {
        if self.n_trees == 0 {
            return Err(Error::usage("n_trees must be at least 1 (got 0)"));
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(Error::usage(format!(
                "subsample must be in (0, 1] (got {})",
                self.subsample
            )));
        }
        if !(self.colsample > 0.0 && self.colsample <= 1.0) {
            return Err(Error::usage(format!(
                "colsample must be in (0, 1] (got {})",
                self.colsample
            )));
        }
        if self.max_bins < 2 || self.max_bins > u16::MAX as usize {
            return Err(Error::usage(format!(
                "max_bins must be in [2, {}] (got {})",
                u16::MAX,
                self.max_bins
            )));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(Error::usage(format!(
                "learning_rate must be finite and positive (got {})",
                self.learning_rate
            )));
        }
        // A depth-0 tree is a single leaf: the model would be a constant.
        if self.max_depth == 0 {
            return Err(Error::usage("max_depth must be at least 1 (got 0)"));
        }
        if !(self.min_child_weight.is_finite() && self.min_child_weight >= 0.0) {
            return Err(Error::usage(format!(
                "min_child_weight must be finite and non-negative (got {})",
                self.min_child_weight
            )));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(Error::usage(format!(
                "lambda must be finite and non-negative (got {})",
                self.lambda
            )));
        }
        Ok(())
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone)]
// audit:allow(dead-public-api) -- return type of the public Trainer::fit, which iotax-core calls
pub struct Gbm {
    params: GbmParams,
    base: f64,
    trees: Vec<RegressionTree>,
    /// Validation mean-absolute-error trace per round (when a validation
    /// set was supplied).
    pub val_trace: Vec<f64>,
}

/// Trains [`Gbm`] models against a shared [`PreparedDataset`] — bin once,
/// fit many. Optionally carries a validation fold bound under the training
/// cuts, enabling early stopping without re-binning per fit.
#[derive(Debug)]
pub struct Trainer<'a> {
    train: &'a PreparedDataset,
    val: Option<BoundDataset>,
}

impl<'a> Trainer<'a> {
    /// A trainer over a prepared training fold, with no validation set.
    pub fn new(train: &'a PreparedDataset) -> Self {
        Self { train, val: None }
    }

    /// Attach a validation fold (binned here, once, under the training
    /// cuts) for early stopping and per-round MAE traces.
    pub fn with_validation(mut self, val: &Dataset) -> Self {
        self.val = Some(self.train.bind(val));
        self
    }

    /// Fit one model. With a validation fold attached and early stopping
    /// configured, keeps the prefix of trees minimizing validation MAE.
    ///
    /// Panics with `GbmParams::validate`'s message when a knob is out of
    /// range: every parameter set comes from the program itself, so an
    /// invalid one is a bug in its caller.
    pub fn fit(&self, params: GbmParams) -> Gbm {
        if let Err(e) = params.validate() {
            panic!("invalid GBM parameters: {e}");
        }
        let train = self.train;
        let n_rows = train.n_rows();
        let n_cols = train.n_cols();
        assert!(n_rows > 0, "empty training set");
        assert_eq!(
            params.max_bins,
            train.max_bins(),
            "params.max_bins must match the prepared dataset's bin budget"
        );
        let y = train.targets();
        let base = y.iter().sum::<f64>() / n_rows as f64;
        let mut pred = vec![base; n_rows];
        let mut val_pred: Vec<f64> =
            self.val.as_ref().map(|v| vec![base; v.n_rows]).unwrap_or_default();
        let mut val_trace = Vec::new();
        let mut trees: Vec<RegressionTree> = Vec::with_capacity(params.n_trees);
        let mut best_round = 0usize;
        let mut best_val = f64::INFINITY;
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_child_weight: params.min_child_weight,
            lambda: params.lambda,
        };
        let n_sub_rows = ((n_rows as f64) * params.subsample).round().max(1.0) as usize;
        let n_sub_cols = ((n_cols as f64) * params.colsample).round().max(1.0) as usize;

        // Round-reused buffers; their contents are rebuilt from scratch
        // each iteration.
        let mut g: Vec<f64> = Vec::with_capacity(n_rows);
        let h = vec![1.0f64; n_rows];
        let mut rows: Vec<u32> = Vec::with_capacity(n_rows);
        let mut features: Vec<usize> = Vec::with_capacity(n_cols);
        for round in 0..params.n_trees {
            g.clear();
            match params.loss {
                // Squared loss: g = pred − y.
                Loss::SquaredError => g.extend(pred.iter().zip(y).map(|(p, y)| p - y)),
                // Absolute loss: g = sign(pred − y).
                Loss::AbsoluteError => g.extend(pred.iter().zip(y).map(|(p, y)| (p - y).signum())),
            }
            let mut rng = substream(params.seed, 500 + round as u64);
            rows.clear();
            rows.extend(0..n_rows as u32);
            if n_sub_rows < n_rows {
                // Sample without replacement via partial Fisher–Yates.
                for i in 0..n_sub_rows {
                    let j = i + rng.random_range(0..rows.len() - i);
                    rows.swap(i, j);
                }
                rows.truncate(n_sub_rows);
            }
            features.clear();
            features.extend(0..n_cols);
            if n_sub_cols < n_cols {
                for i in 0..n_sub_cols {
                    let j = i + rng.random_range(0..features.len() - i);
                    features.swap(i, j);
                }
                features.truncate(n_sub_cols);
            }
            let mut tree = RegressionTree::fit(train, &g, &h, &mut rows, &features, &tree_params);
            if params.loss == Loss::AbsoluteError {
                // Median leaf renewal: sign gradients find the structure,
                // but the L1-optimal leaf value is the median residual of
                // the rows that land in it (LightGBM's regression_l1 does
                // the same).
                let mut leaf_residuals: std::collections::BTreeMap<usize, Vec<f64>> =
                    std::collections::BTreeMap::new();
                for &r in rows.iter() {
                    let r = r as usize;
                    let leaf = tree.leaf_index_coded(&train.codes, n_rows, r);
                    leaf_residuals.entry(leaf).or_default().push(y[r] - pred[r]);
                }
                for (leaf, residuals) in leaf_residuals {
                    tree.set_leaf_value(leaf, iotax_stats::median(&residuals));
                }
            }
            let tree = tree;
            // Update train predictions by bin code — same branch at every
            // node as the raw-threshold walk.
            for (i, p) in pred.iter_mut().enumerate() {
                *p += params.learning_rate * tree.predict_coded(&train.codes, n_rows, i);
            }
            if let Some(v) = &self.val {
                for (i, p) in val_pred.iter_mut().enumerate() {
                    *p += params.learning_rate * tree.predict_coded(&v.codes, v.n_rows, i);
                }
                let mae = val_pred.iter().zip(&v.y).map(|(p, y)| (p - y).abs()).sum::<f64>()
                    / v.n_rows as f64;
                val_trace.push(mae);
                if mae < best_val - 1e-12 {
                    best_val = mae;
                    best_round = round;
                }
            }
            trees.push(tree);
            iotax_obs::counter!("ml.gbm.trees_fit").incr(1);
            if let (Some(rounds), Some(_)) = (params.early_stopping_rounds, &self.val) {
                if round >= best_round + rounds {
                    break;
                }
            }
        }
        if params.early_stopping_rounds.is_some() && self.val.is_some() {
            trees.truncate(best_round + 1);
        }
        Gbm { params, base, trees, val_trace }
    }
}

impl Gbm {
    /// Number of trees kept after (possible) early stopping.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The parameters the model was fit with.
    pub fn params(&self) -> &GbmParams {
        &self.params
    }

    /// Predict every row of a prepared dataset via its bin codes —
    /// bit-identical to [`Regressor::predict`] on the raw matrix the
    /// context was prepared from.
    pub fn predict_prepared(&self, data: &PreparedDataset) -> Vec<f64> {
        (0..data.n_rows())
            .map(|i| {
                self.base
                    + self.params.learning_rate
                        * self
                            .trees
                            .iter()
                            .map(|t| t.predict_coded(&data.codes, data.n_rows, i))
                            .sum::<f64>()
            })
            .collect()
    }

    /// Gain-based feature importance, normalized to sum to 1 (zeros when
    /// no split was ever made).
    pub fn feature_importance(&self, n_cols: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_cols];
        for t in &self.trees {
            t.accumulate_gains(&mut imp);
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }
}

impl Regressor for Gbm {
    fn predict_row(&self, x: &[f64]) -> f64 {
        self.base
            + self.params.learning_rate * self.trees.iter().map(|t| t.predict_row(x)).sum::<f64>()
    }

    fn predict(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows).map(|i| self.predict_row(data.row(i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::median_abs_error;
    use iotax_stats::rng_from_seed;
    use rand::RngExt;

    /// A nonlinear synthetic task a linear model cannot fit.
    fn friedman(n: usize, seed: u64, noise: f64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let f: Vec<f64> = (0..5).map(|_| rng.random::<f64>()).collect();
            let target = 10.0 * (std::f64::consts::PI * f[0] * f[1]).sin()
                + 20.0 * (f[2] - 0.5).powi(2)
                + 10.0 * f[3]
                + 5.0 * f[4]
                + noise * iotax_stats::dist::sample_std_normal(&mut rng);
            x.extend_from_slice(&f);
            y.push(target);
        }
        Dataset::new(x, n, 5, y, (0..5).map(|i| format!("f{i}")).collect())
    }

    fn fit(train: &Dataset, params: GbmParams) -> Gbm {
        Trainer::new(&PreparedDataset::fit(train, params.max_bins)).fit(params)
    }

    #[test]
    fn fits_nonlinear_function() {
        let train = friedman(2000, 1, 0.0);
        let test = friedman(500, 2, 0.0);
        let model = fit(&train, GbmParams { n_trees: 150, ..Default::default() });
        let err = median_abs_error(&test.y, &model.predict(&test));
        // Target spans ~[0, 30]; median error under 0.8 shows real fit.
        assert!(err < 0.8, "median abs error {err}");
    }

    #[test]
    fn beats_the_mean_predictor_by_a_lot() {
        let train = friedman(1000, 3, 0.0);
        let test = friedman(300, 4, 0.0);
        let model = fit(&train, GbmParams::default());
        let mean = train.y.iter().sum::<f64>() / train.y.len() as f64;
        let mean_err = median_abs_error(&test.y, &vec![mean; test.n_rows]);
        let gbm_err = median_abs_error(&test.y, &model.predict(&test));
        assert!(gbm_err < mean_err / 3.0, "gbm {gbm_err} vs mean {mean_err}");
    }

    #[test]
    fn more_trees_fit_better_on_train() {
        let train = friedman(800, 5, 0.0);
        let prepared = PreparedDataset::fit(&train, DEFAULT_MAX_BINS);
        let trainer = Trainer::new(&prepared);
        let small = trainer.fit(GbmParams { n_trees: 5, ..Default::default() });
        let large = trainer.fit(GbmParams { n_trees: 100, ..Default::default() });
        let e_small = median_abs_error(&train.y, &small.predict(&train));
        let e_large = median_abs_error(&train.y, &large.predict(&train));
        assert!(e_large < e_small);
    }

    #[test]
    fn early_stopping_truncates() {
        let train = friedman(800, 6, 1.0);
        let val = friedman(300, 7, 1.0);
        let prepared = PreparedDataset::fit(&train, DEFAULT_MAX_BINS);
        let model = Trainer::new(&prepared).with_validation(&val).fit(GbmParams {
            n_trees: 400,
            learning_rate: 0.3,
            early_stopping_rounds: Some(10),
            ..Default::default()
        });
        assert!(model.n_trees() < 400, "kept all {} trees", model.n_trees());
        assert!(!model.val_trace.is_empty());
    }

    #[test]
    fn subsampling_still_learns() {
        let train = friedman(1500, 8, 0.0);
        let test = friedman(300, 9, 0.0);
        let model = fit(
            &train,
            GbmParams { subsample: 0.5, colsample: 0.6, n_trees: 150, ..Default::default() },
        );
        let err = median_abs_error(&test.y, &model.predict(&test));
        assert!(err < 1.2, "median abs error {err}");
    }

    #[test]
    fn deterministic_under_seed() {
        let train = friedman(500, 10, 0.5);
        let a = fit(&train, GbmParams { subsample: 0.7, seed: 42, ..Default::default() });
        let b = fit(&train, GbmParams { subsample: 0.7, seed: 42, ..Default::default() });
        assert_eq!(a.predict(&train), b.predict(&train));
    }

    #[test]
    fn coded_predictions_match_the_raw_path_bit_for_bit() {
        let train = friedman(600, 12, 0.3);
        let val = friedman(200, 13, 0.3);
        let params = GbmParams {
            n_trees: 40,
            subsample: 0.8,
            early_stopping_rounds: Some(5),
            ..Default::default()
        };
        let prepared = PreparedDataset::fit(&train, params.max_bins);
        let staged = Trainer::new(&prepared).with_validation(&val).fit(params);
        let raw = staged.predict(&train);
        let coded = staged.predict_prepared(&prepared);
        assert!(raw.iter().zip(&coded).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn validate_names_the_knob_out_of_range() {
        let d = GbmParams::default();
        for (p, knob) in [
            (GbmParams { n_trees: 0, ..d }, "n_trees"),
            (GbmParams { max_depth: 0, ..d }, "max_depth"),
            (GbmParams { subsample: 0.0, ..d }, "subsample"),
            (GbmParams { subsample: 1.5, ..d }, "subsample"),
            (GbmParams { subsample: f64::NAN, ..d }, "subsample"),
            (GbmParams { colsample: -0.2, ..d }, "colsample"),
            (GbmParams { max_bins: 1, ..d }, "max_bins"),
            (GbmParams { max_bins: u16::MAX as usize + 1, ..d }, "max_bins"),
            (GbmParams { max_bins: 1 << 20, ..d }, "max_bins"),
            (GbmParams { learning_rate: 0.0, ..d }, "learning_rate"),
            (GbmParams { min_child_weight: f64::NAN, ..d }, "min_child_weight"),
            (GbmParams { lambda: -1.0, ..d }, "lambda"),
            (GbmParams { lambda: f64::NAN, ..d }, "lambda"),
        ] {
            let err = p.validate().expect_err(knob);
            assert!(err.to_string().starts_with(knob), "{knob}: {err}");
            assert_eq!(err.exit_code(), 64, "usage errors exit with sysexits EX_USAGE");
        }
        assert!(d.validate().is_ok());
        assert!(GbmParams { max_depth: 4, lambda: 0.5, ..d }.validate().is_ok());
    }

    #[test]
    fn a_valid_set_is_fitted_as_given() {
        let p = GbmParams {
            n_trees: 40,
            max_depth: 3,
            learning_rate: 0.2,
            lambda: 0.5,
            subsample: 0.9,
            colsample: 0.8,
            min_child_weight: 2.0,
            max_bins: 128,
            seed: 7,
            early_stopping_rounds: Some(5),
            loss: Loss::AbsoluteError,
        };
        p.validate().expect("valid params");
        // `fit` checks the set; it never clamps or rewrites it.
        let model = fit(&friedman(200, 16, 0.0), p);
        assert_eq!(model.params().n_trees, 40);
        assert_eq!(model.params().max_bins, 128);
        assert_eq!(model.params().loss, Loss::AbsoluteError);
        assert_eq!(*model.params(), p);
    }

    #[test]
    #[should_panic(expected = "learning_rate must be finite and positive (got 0)")]
    fn fit_panics_on_a_zero_learning_rate() {
        fit(&friedman(100, 15, 0.0), GbmParams { learning_rate: 0.0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "max_depth must be at least 1 (got 0)")]
    fn fit_panics_on_a_zero_depth() {
        fit(&friedman(100, 15, 0.0), GbmParams { max_depth: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "lambda must be finite and non-negative (got NaN)")]
    fn fit_panics_on_a_nan_lambda() {
        fit(&friedman(100, 15, 0.0), GbmParams { lambda: f64::NAN, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "bin budget")]
    fn trainer_rejects_mismatched_bin_budgets() {
        let train = friedman(100, 14, 0.0);
        let prepared = PreparedDataset::fit(&train, 64);
        Trainer::new(&prepared).fit(GbmParams { max_bins: 128, ..Default::default() });
    }

    #[test]
    fn absolute_loss_is_robust_to_target_outliers() {
        // Corrupt 5 % of training targets with huge outliers; L1 should
        // degrade far less than L2 on clean test data.
        let mut train = friedman(1500, 20, 0.0);
        for i in (0..train.n_rows).step_by(20) {
            train.y[i] += 500.0;
        }
        let test = friedman(400, 21, 0.0);
        let prepared = PreparedDataset::fit(&train, DEFAULT_MAX_BINS);
        let trainer = Trainer::new(&prepared);
        let l2 = trainer.fit(GbmParams { n_trees: 120, ..Default::default() });
        let l1 = trainer.fit(GbmParams {
            n_trees: 400,
            learning_rate: 0.3,
            loss: Loss::AbsoluteError,
            ..Default::default()
        });
        let e2 = median_abs_error(&test.y, &l2.predict(&test));
        let e1 = median_abs_error(&test.y, &l1.predict(&test));
        assert!(e1 < e2, "L1 {e1} should beat L2 {e2} under outliers");
    }

    #[test]
    fn absolute_loss_still_fits_clean_data() {
        let train = friedman(1200, 22, 0.0);
        let test = friedman(300, 23, 0.0);
        let l1 = fit(
            &train,
            GbmParams {
                n_trees: 400,
                learning_rate: 0.3,
                loss: Loss::AbsoluteError,
                ..Default::default()
            },
        );
        let err = median_abs_error(&test.y, &l1.predict(&test));
        assert!(err < 1.5, "L1 median abs error {err}");
    }

    #[test]
    fn feature_importance_finds_the_signal() {
        // y depends only on features 0..5; features 5..10 are noise.
        let mut rng = rng_from_seed(30);
        let n = 1500;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let f: Vec<f64> = (0..10).map(|_| rng.random::<f64>()).collect();
            y.push(10.0 * f[0] + 5.0 * f[1]);
            x.extend(f);
        }
        let data = Dataset::new(x, n, 10, y, (0..10).map(|i| format!("f{i}")).collect());
        let model = fit(&data, GbmParams::default());
        let imp = model.feature_importance(10);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.5, "f0 importance {}", imp[0]);
        assert!(imp[1] > 0.1, "f1 importance {}", imp[1]);
        assert!(imp[2..].iter().all(|&v| v < 0.05), "noise features matter: {imp:?}");
    }

    #[test]
    fn prediction_is_finite_everywhere() {
        let train = friedman(300, 11, 0.0);
        let model = fit(&train, GbmParams::default());
        for wild in [[0.0; 5], [1e9; 5], [-1e9; 5]] {
            assert!(model.predict_row(&wild).is_finite());
        }
    }
}
