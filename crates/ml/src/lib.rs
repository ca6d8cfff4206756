//! # iotax-ml
//!
//! From-scratch machine-learning substrate for the I/O taxonomy.
//!
//! The paper's models are XGBoost (8046-model exhaustive hyperparameter
//! sweep, §VI.B) and feedforward neural networks tuned by AgEBO-style
//! neural architecture search. The Rust ecosystem has neither, so this
//! crate implements the full stack:
//!
//! * [`data`] — dense datasets, time-ordered splits, signed-log and
//!   standardization preprocessing.
//! * [`metrics`] — the paper's error metric (Eq. 6): absolute log10-ratio
//!   errors, medians, and percent conversions.
//! * `tree` (private) — histogram-binned regression trees with second-order
//!   (gradient/hessian) split gains, the building block of
//! * [`gbm`] — gradient-boosted trees with shrinkage, λ-regularization,
//!   row/column subsampling and early stopping: the XGBoost stand-in whose
//!   four tuned knobs match the paper's sweep.
//! * [`nn`] — multilayer perceptrons with hand-rolled backprop, Adam,
//!   dropout, weight decay, and an optional heteroscedastic head (mean +
//!   variance) for uncertainty quantification.
//! * [`search`] — exhaustive grid search (Fig. 1(a)'s heatmap).
//! * [`nas`] — aging-evolution architecture search (Fig. 2's generations).
//! * [`prepared`] — the shared binned training context: quantile-bin a
//!   fold split once ([`PreparedDataset`]), then train any number of GBMs
//!   through [`Trainer`] without touching the raw floats again.
//!
//! Everything is deterministic under a seed and runs on the calling thread.

pub mod data;
pub mod gbm;
pub mod metrics;
pub mod nas;
pub mod nn;
pub mod prepared;
pub mod search;
mod tree;

#[cfg(test)]
mod prop;

pub use data::Dataset;
pub use gbm::{Gbm, GbmParams, Trainer};
pub use metrics::{abs_log10_errors, median_abs_error, median_abs_error_pct};
pub use nas::{evolve, Genome, NasConfig};
pub use nn::{Mlp, MlpParams};
pub use prepared::PreparedDataset;
pub use search::grid_search;

/// A fitted regression model mapping a raw feature row to a log10
/// throughput prediction.
pub trait Regressor: Send + Sync {
    /// Predict one row of raw (unpreprocessed) features.
    fn predict_row(&self, x: &[f64]) -> f64;

    /// Predict every row of a dataset.
    fn predict(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows).map(|i| self.predict_row(data.row(i))).collect()
    }
}
