//! The generalization (out-of-distribution) litmus test (§VIII).
//!
//! Protocol: train a deep ensemble, decompose each test job's uncertainty
//! into aleatory and epistemic parts, pick the EU threshold at the shoulder
//! of the inverse cumulative error curve, classify jobs above it as OoD,
//! and attribute their *entire* error to `e_OoD` (a sample that is truly
//! OoD has no trustworthy AU/EU split, so the paper takes the conservative
//! attribution).

use iotax_ml::data::Dataset;
use iotax_ml::metrics::abs_log10_errors;
use iotax_ml::nn::MlpParams;
use iotax_uq::{classify_ood, eu_shoulder, ood_error_share, DeepEnsemble, UqPrediction};
use serde::Serialize;

/// Result of the OoD litmus test.
#[derive(Debug, Serialize)]
// audit:allow(dead-public-api) -- return type of the public ood_litmus, which the fig5 bench calls
pub struct OodLitmus {
    /// Per-test-job uncertainty decomposition.
    #[serde(skip)]
    pub predictions: Vec<UqPrediction>,
    /// The fitted ensemble (reused by the pipeline to flag the whole
    /// trace before the noise litmus).
    #[serde(skip)]
    pub ensemble: DeepEnsemble,
    /// Per-test-job OoD flags.
    pub is_ood: Vec<bool>,
    /// The EU-std threshold used.
    pub eu_threshold: f64,
    /// Fraction of test jobs classified OoD (the paper: 0.7 % on Theta).
    pub ood_fraction: f64,
    /// Fraction of total test error carried by OoD jobs (the paper: 2.4 %
    /// on Theta, 2.1 % on Cori).
    pub ood_error_share: f64,
    /// Ratio of mean OoD-job error to mean ID-job error (the paper: ~3×).
    pub error_amplification: f64,
    /// Median aleatory std across test jobs (the AU axis of Fig. 5).
    pub median_aleatory_std: f64,
    /// Median epistemic std across test jobs.
    pub median_epistemic_std: f64,
}

/// Configuration for the OoD litmus.
#[derive(Debug, Clone)]
pub struct OodConfig {
    /// Ensemble size.
    pub ensemble_size: usize,
    /// Base member parameters (heteroscedastic is forced on).
    pub member_params: MlpParams,
    /// Seed.
    pub seed: u64,
    /// Override the shoulder-derived EU threshold.
    pub eu_threshold_override: Option<f64>,
}

impl OodConfig {
    /// A quick configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        Self {
            ensemble_size: 4,
            member_params: MlpParams {
                hidden: vec![48, 48],
                epochs: 25,
                learning_rate: 2e-3,
                ..Default::default()
            },
            seed,
            eu_threshold_override: None,
        }
    }
}

/// Run the OoD litmus: fit the ensemble on `train`, decompose uncertainty
/// on `test`.
pub fn ood_litmus(train: &Dataset, test: &Dataset, cfg: &OodConfig) -> OodLitmus {
    let ensemble =
        DeepEnsemble::fit_default(train, cfg.ensemble_size, cfg.member_params.clone(), cfg.seed);
    let predictions = ensemble.predict_uq_batch(test);
    let means: Vec<f64> = predictions.iter().map(|p| p.mean).collect();
    let errors = abs_log10_errors(&test.y, &means);
    let eu_stds: Vec<f64> = predictions.iter().map(|p| p.epistemic_std()).collect();
    let au_stds: Vec<f64> = predictions.iter().map(|p| p.aleatory_std()).collect();
    let eu_threshold = cfg.eu_threshold_override.unwrap_or_else(|| eu_shoulder(&eu_stds));
    let is_ood = classify_ood(&predictions, eu_threshold);
    let n_ood = is_ood.iter().filter(|&&o| o).count();
    let share = ood_error_share(&errors, &is_ood);
    let mean_of = |flag: bool| -> f64 {
        let vals: Vec<f64> =
            errors.iter().zip(&is_ood).filter(|(_, &o)| o == flag).map(|(e, _)| *e).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let (ood_mean, id_mean) = (mean_of(true), mean_of(false));
    OodLitmus {
        is_ood,
        eu_threshold,
        ood_fraction: n_ood as f64 / predictions.len().max(1) as f64,
        ood_error_share: share,
        error_amplification: if id_mean > 0.0 { ood_mean / id_mean } else { 0.0 },
        median_aleatory_std: iotax_stats::median(&au_stds),
        median_epistemic_std: iotax_stats::median(&eu_stds),
        predictions,
        ensemble,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;
    use rand::RngExt;

    /// In-distribution x ∈ [-1, 1]; the test set has a cluster far outside.
    fn with_ood_tail(seed: u64) -> (Dataset, Dataset) {
        let mut rng = rng_from_seed(seed);
        let mut make = |n: usize, lo: f64, hi: f64| {
            let mut x = Vec::new();
            let mut y = Vec::new();
            for _ in 0..n {
                let a: f64 = lo + (hi - lo) * rng.random::<f64>();
                x.push(a);
                y.push(0.7 * a + 0.1 * iotax_stats::dist::sample_std_normal(&mut rng));
            }
            (x, y)
        };
        let (tx, ty) = make(2_000, -1.0, 1.0);
        let train = Dataset::new(tx, 2_000, 1, ty, vec!["a".into()]);
        let (mut ex, mut ey) = make(460, -1.0, 1.0);
        let (ox, oy) = make(40, 6.0, 9.0);
        ex.extend(ox);
        ey.extend(oy);
        let test = Dataset::new(ex, 500, 1, ey, vec!["a".into()]);
        (train, test)
    }

    #[test]
    fn flags_the_far_cluster_as_ood() {
        let (train, test) = with_ood_tail(1);
        let result = ood_litmus(&train, &test, &OodConfig::quick(3));
        // The last 40 rows are the OoD cluster.
        let flagged_ood: usize = result.is_ood[460..].iter().filter(|&&o| o).count();
        let flagged_id: usize = result.is_ood[..460].iter().filter(|&&o| o).count();
        assert!(flagged_ood >= 30, "only {flagged_ood}/40 OoD jobs flagged");
        assert!(flagged_id <= 46, "{flagged_id} in-distribution jobs flagged");
        assert!(result.ood_fraction > 0.05 && result.ood_fraction < 0.2);
    }

    #[test]
    fn ood_jobs_carry_disproportionate_error() {
        let (train, test) = with_ood_tail(2);
        let result = ood_litmus(&train, &test, &OodConfig::quick(5));
        assert!(
            result.ood_error_share > result.ood_fraction,
            "share {} vs fraction {}",
            result.ood_error_share,
            result.ood_fraction
        );
        assert!(result.error_amplification > 1.5);
    }

    #[test]
    fn threshold_override_is_respected() {
        let (train, test) = with_ood_tail(3);
        let mut cfg = OodConfig::quick(7);
        cfg.eu_threshold_override = Some(f64::INFINITY);
        let result = ood_litmus(&train, &test, &cfg);
        assert_eq!(result.ood_fraction, 0.0);
        assert_eq!(result.ood_error_share, 0.0);
    }
}
