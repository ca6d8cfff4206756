//! The model-based system litmus test (§VII) and feature-set comparisons.
//!
//! The *golden model* is a tuned GBM that sees the application features
//! plus the raw job start time. Because the global system impact ζ_g(t) is
//! a pure function of time, a model with enough capacity learns the whole
//! "I/O weather" timeline — useless for forecasting, but it bounds how much
//! error global system modeling can ever remove. Comparing it against the
//! application-only baseline and the LMT-enriched model reproduces Fig. 4.

use iotax_ml::data::Dataset;
use iotax_ml::gbm::{GbmParams, Trainer};
use iotax_ml::metrics::{median_abs_error, median_abs_error_pct};
use iotax_ml::prepared::PreparedDataset;
use iotax_ml::Regressor;
use iotax_sim::{FeatureSet, SimDataset};
use serde::{Deserialize, Serialize};

/// How much model to spend on each litmus fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effort {
    /// Small models, small grids — seconds per fit; for tests and examples.
    Quick,
    /// Production-shaped models — the figure harness default.
    Full,
}

impl Effort {
    /// Baseline GBM parameters for this effort level.
    pub fn baseline_params(self) -> GbmParams {
        match self {
            Effort::Quick => GbmParams { n_trees: 60, max_depth: 6, ..Default::default() },
            Effort::Full => GbmParams { n_trees: 200, max_depth: 8, ..Default::default() },
        }
    }

    /// Golden-model parameters: deeper and larger, because memorizing the
    /// weather timeline takes capacity (§VII: "a much larger model is
    /// needed").
    pub(crate) fn golden_params(self) -> GbmParams {
        match self {
            Effort::Quick => GbmParams {
                n_trees: 200,
                max_depth: 10,
                learning_rate: 0.15,
                early_stopping_rounds: Some(20),
                ..Default::default()
            },
            Effort::Full => GbmParams {
                n_trees: 250,
                max_depth: 10,
                learning_rate: 0.12,
                early_stopping_rounds: Some(25),
                ..Default::default()
            },
        }
    }
}

/// Train/val/test views of one feature set, split time-ordered.
pub(crate) struct SplitData {
    /// Training split.
    pub train: Dataset,
    /// Validation split.
    pub val: Dataset,
    /// Test split.
    pub test: Dataset,
}

/// Materialize a feature set and split it 70/15/15 with a seeded random
/// permutation (see [`Dataset::split_random`] for why litmus evaluations
/// must not split temporally). The matrix goes through the sanitizer the
/// taxonomy's baseline uses, so salvaged traces with non-finite values
/// reach every fit imputed and with the same rows dropped.
pub(crate) fn split_features(sim: &SimDataset, set: FeatureSet) -> SplitData {
    let m = sim.feature_matrix(set);
    let (data, _) = Dataset::sanitized(m.data, m.n_rows, m.n_cols, m.y, m.names);
    let (train, val, test) = data.split_random(0.70, 0.15, sim.config.seed ^ 0x5EED);
    SplitData { train, val, test }
}

/// Result of fitting one feature set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- return type of the public evaluate_feature_set, which the fig3 bench calls
pub struct FeatureSetResult {
    /// Human-readable feature-set label.
    pub label: String,
    /// Median absolute test error, log10.
    pub test_error_log10: f64,
    /// Median absolute test error, percent.
    pub test_error_pct: f64,
    /// Median absolute *training* error, percent — the memorization
    /// indicator Fig. 3 discusses for timing features.
    pub train_error_pct: f64,
}

/// Fit a GBM on one feature set and report train/test medians.
pub fn evaluate_feature_set(
    sim: &SimDataset,
    set: FeatureSet,
    label: &str,
    params: GbmParams,
) -> FeatureSetResult {
    let data = split_features(sim, set);
    // Bin the training fold once and train through the shared context;
    // training-error scoring rides the same bin codes, while test rows
    // (unseen during binning) go through the raw-threshold path.
    let prepared = PreparedDataset::fit(&data.train, params.max_bins);
    let model = Trainer::new(&prepared).with_validation(&data.val).fit(params);
    let test_pred = model.predict(&data.test);
    let train_pred = model.predict_prepared(&prepared);
    FeatureSetResult {
        label: label.to_owned(),
        test_error_log10: median_abs_error(&data.test.y, &test_pred),
        test_error_pct: median_abs_error_pct(&data.test.y, &test_pred),
        train_error_pct: median_abs_error_pct(&data.train.y, &train_pred),
    }
}

/// The §VII golden-model litmus result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- type of TaxonomyReport's public `system_litmus` field; iotax-analyze renders the report
pub struct SystemLitmus {
    /// Application-only baseline (POSIX features).
    pub baseline: FeatureSetResult,
    /// Golden model: POSIX + start time.
    pub golden: FeatureSetResult,
    /// LMT-enriched model, when the system collects LMT and every job
    /// carries LMT aggregates (Fig. 4's green).
    pub lmt_enriched: Option<FeatureSetResult>,
    /// Relative error reduction of the golden model vs the baseline
    /// (the paper: 40 % on Cori, 30.8 % on Theta).
    pub golden_reduction_pct: f64,
}

/// Run the system-modeling litmus test: the POSIX baseline, the golden
/// model and, where every job carries LMT, the LMT-enriched model, each
/// fit on its own feature set's litmus split. The taxonomy's
/// `core.system_litmus` stage runs it; callers read the result from
/// [`crate::TaxonomyReport::system_litmus`].
pub(crate) fn system_litmus(sim: &SimDataset, effort: Effort) -> SystemLitmus {
    let _span = iotax_obs::span!("core.golden.system_litmus");
    let baseline =
        evaluate_feature_set(sim, FeatureSet::posix(), "POSIX", effort.baseline_params());
    let golden = evaluate_feature_set(
        sim,
        FeatureSet::posix_start_time(),
        "POSIX+StartTime",
        effort.golden_params(),
    );
    let lmt_enriched = lmt_complete(sim).then(|| {
        evaluate_feature_set(sim, FeatureSet::posix_lmt(), "POSIX+LMT", effort.golden_params())
    });
    let golden_reduction_pct = if baseline.test_error_log10 > 0.0 {
        (1.0 - golden.test_error_log10 / baseline.test_error_log10) * 100.0
    } else {
        0.0
    };
    SystemLitmus { baseline, golden, lmt_enriched, golden_reduction_pct }
}

/// Whether the LMT-enriched model can be fit: the system collects LMT
/// and every job carries its LMT aggregates.
pub(crate) fn lmt_complete(sim: &SimDataset) -> bool {
    sim.config.collect_lmt && sim.jobs.iter().all(|j| j.lmt.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_sim::{Platform, SimConfig};

    #[test]
    fn every_effort_preset_passes_the_fit_check() {
        // `Trainer::fit` checks every knob before it trains and panics on
        // one out of range; a 40-row fold keeps the presets' fits cheap.
        let x: Vec<f64> = (0..40).map(f64::from).collect();
        let y = x.iter().map(|v| 0.5 * v).collect();
        let data = Dataset::new(x, 40, 1, y, vec!["x".into()]);
        for effort in [Effort::Quick, Effort::Full] {
            for params in [effort.baseline_params(), effort.golden_params()] {
                let prepared = PreparedDataset::fit(&data, params.max_bins);
                assert_eq!(Trainer::new(&prepared).fit(params).params(), &params);
            }
        }
    }

    #[test]
    fn golden_model_beats_baseline_on_weathered_data() {
        let sim = Platform::new(SimConfig::theta().with_jobs(4_000).with_seed(31)).generate();
        let result = system_litmus(&sim, Effort::Quick);
        assert!(
            result.golden.test_error_log10 < result.baseline.test_error_log10,
            "golden {} vs baseline {}",
            result.golden.test_error_pct,
            result.baseline.test_error_pct
        );
        assert!(result.golden_reduction_pct > 0.0);
    }

    #[test]
    fn lmt_only_on_lmt_systems() {
        let theta = Platform::new(SimConfig::theta().with_jobs(1_500).with_seed(32)).generate();
        assert!(system_litmus(&theta, Effort::Quick).lmt_enriched.is_none());
    }

    #[test]
    fn split_interleaves_time() {
        // Litmus splits must be random in time so the golden model's test
        // start times fall inside the trained weather timeline.
        let sim = Platform::new(SimConfig::theta().with_jobs(1_000).with_seed(33)).generate();
        let data = split_features(&sim, FeatureSet::posix_start_time());
        let col = data.train.names.iter().position(|n| n == "JobStartTime").expect("column");
        let max_train = (0..data.train.n_rows)
            .map(|i| data.train.row(i)[col])
            .fold(f64::NEG_INFINITY, f64::max);
        let min_test =
            (0..data.test.n_rows).map(|i| data.test.row(i)[col]).fold(f64::INFINITY, f64::min);
        assert!(min_test < max_train, "splits do not interleave in time");
    }
}
