//! Datasets, splits, and preprocessing.
//!
//! Splits are *time-ordered*, never shuffled across the boundary: the
//! paper's deployment experiments (§VIII) hinge on evaluating models on
//! data collected after the training period, and shuffling would silently
//! erase exactly the distribution shift being studied.

use serde::{Deserialize, Serialize};

/// What [`Dataset::sanitized`] had to do to make its input usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- return type of the public Dataset::sanitized, which iotax-core's taxonomy calls
pub struct SanitizeReport {
    /// Non-finite feature values replaced by their column median.
    pub imputed_features: usize,
    /// Rows dropped because the target was non-finite.
    pub dropped_rows: usize,
}

impl SanitizeReport {
    /// Whether anything had to be repaired.
    pub fn is_clean(&self) -> bool {
        self.imputed_features == 0 && self.dropped_rows == 0
    }
}

/// A dense row-major dataset with a scalar target per row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Row-major feature values, `n_rows × n_cols`.
    pub x: Vec<f64>,
    /// Number of rows.
    pub n_rows: usize,
    /// Number of feature columns.
    pub n_cols: usize,
    /// Target per row (log10 throughput in this project).
    pub y: Vec<f64>,
    /// Column names, length `n_cols`.
    pub names: Vec<String>,
}

impl Dataset {
    /// Build a dataset; panics if the dimensions are inconsistent.
    pub fn new(x: Vec<f64>, n_rows: usize, n_cols: usize, y: Vec<f64>, names: Vec<String>) -> Self {
        assert_eq!(x.len(), n_rows * n_cols, "x has wrong length");
        assert_eq!(y.len(), n_rows, "y has wrong length");
        assert_eq!(names.len(), n_cols, "names have wrong length");
        assert!(x.iter().all(|v| v.is_finite()), "non-finite feature value");
        assert!(y.iter().all(|v| v.is_finite()), "non-finite target value");
        Self { x, n_rows, n_cols, y, names }
    }

    /// Build a dataset from possibly-dirty values: non-finite features are
    /// imputed to their column's median over finite values (0.0 when a
    /// column has none), and rows with a non-finite *target* are dropped —
    /// a target cannot be imputed without biasing the fit. Dimension
    /// mismatches still panic; they are caller bugs, not dirty data.
    ///
    /// Returns the dataset plus the accounting a caller needs to report
    /// degraded-input conditions upstream.
    pub fn sanitized(
        x: Vec<f64>,
        n_rows: usize,
        n_cols: usize,
        y: Vec<f64>,
        names: Vec<String>,
    ) -> (Self, SanitizeReport) {
        assert_eq!(x.len(), n_rows * n_cols, "x has wrong length");
        assert_eq!(y.len(), n_rows, "y has wrong length");
        assert_eq!(names.len(), n_cols, "names have wrong length");
        let mut report = SanitizeReport { imputed_features: 0, dropped_rows: 0 };

        // Per-column medians over finite values only.
        let mut medians = vec![0.0; n_cols];
        let mut col: Vec<f64> = Vec::with_capacity(n_rows);
        for (c, med) in medians.iter_mut().enumerate() {
            col.clear();
            col.extend((0..n_rows).map(|r| x[r * n_cols + c]).filter(|v| v.is_finite()));
            if !col.is_empty() {
                col.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
                *med = if col.len() % 2 == 1 {
                    col[col.len() / 2]
                } else {
                    (col[col.len() / 2 - 1] + col[col.len() / 2]) / 2.0
                };
            }
        }

        let mut cx = Vec::with_capacity(x.len());
        let mut cy = Vec::with_capacity(n_rows);
        for r in 0..n_rows {
            if !y[r].is_finite() {
                report.dropped_rows += 1;
                continue;
            }
            for (c, &v) in x[r * n_cols..(r + 1) * n_cols].iter().enumerate() {
                if v.is_finite() {
                    cx.push(v);
                } else {
                    report.imputed_features += 1;
                    cx.push(medians[c]);
                }
            }
            cy.push(y[r]);
        }
        let kept = cy.len();
        (Self::new(cx, kept, n_cols, cy, names), report)
    }

    /// One feature row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// A new dataset containing the given rows, in order.
    pub fn subset(&self, rows: &[usize]) -> Self {
        let mut x = Vec::with_capacity(rows.len() * self.n_cols);
        let mut y = Vec::with_capacity(rows.len());
        for &r in rows {
            x.extend_from_slice(self.row(r));
            y.push(self.y[r]);
        }
        Self { x, n_rows: rows.len(), n_cols: self.n_cols, y, names: self.names.clone() }
    }

    /// Split by position into (train, validation, test) with the given
    /// leading fractions; rows must already be in time order.
    pub fn split_ordered(&self, train_frac: f64, val_frac: f64) -> (Self, Self, Self) {
        assert!(train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac < 1.0);
        let n_train = ((self.n_rows as f64) * train_frac).round() as usize;
        let n_val = ((self.n_rows as f64) * val_frac).round() as usize;
        let train: Vec<usize> = (0..n_train).collect();
        let val: Vec<usize> = (n_train..n_train + n_val).collect();
        let test: Vec<usize> = (n_train + n_val..self.n_rows).collect();
        (self.subset(&train), self.subset(&val), self.subset(&test))
    }

    /// Split into (train, validation, test) by a seeded random permutation.
    ///
    /// This is the evaluation split for the *litmus* experiments: the
    /// golden model of §VII must see test jobs whose start times fall
    /// inside the trained weather timeline (a time-based model cannot
    /// extrapolate future weather — the paper calls it "useless for
    /// predicting future performance"). Deployment-drift experiments use
    /// [`Dataset::split_ordered`] instead.
    pub fn split_random(&self, train_frac: f64, val_frac: f64, seed: u64) -> (Self, Self, Self) {
        assert!(train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac < 1.0);
        let mut order: Vec<usize> = (0..self.n_rows).collect();
        let mut rng = iotax_stats::rng::substream(seed, 0xD5);
        use rand::RngExt;
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let n_train = ((self.n_rows as f64) * train_frac).round() as usize;
        let n_val = ((self.n_rows as f64) * val_frac).round() as usize;
        (
            self.subset(&order[..n_train]),
            self.subset(&order[n_train..n_train + n_val]),
            self.subset(&order[n_train + n_val..]),
        )
    }

    /// Column index by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// Feature preprocessing: signed log compression followed by
/// standardization, fit on training data only.
///
/// Darshan counters span twelve orders of magnitude (bytes vs counts);
/// `sign(x)·ln(1+|x|)` makes them commensurable, and the affine
/// standardization centers them for gradient-based models. Tree models are
/// invariant to both, so applying the preprocessor never hurts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Preprocessor {
    /// Per-column mean of the log-compressed training features.
    pub means: Vec<f64>,
    /// Per-column std of the log-compressed training features (≥ tiny).
    pub stds: Vec<f64>,
}

/// Signed log compression.
#[inline]
pub(crate) fn signed_log(x: f64) -> f64 {
    x.signum() * x.abs().ln_1p()
}

impl Preprocessor {
    /// Fit on a training dataset.
    pub(crate) fn fit(train: &Dataset) -> Self {
        let n = train.n_rows.max(1) as f64;
        let mut means = vec![0.0; train.n_cols];
        for i in 0..train.n_rows {
            for (m, &v) in means.iter_mut().zip(train.row(i)) {
                *m += signed_log(v);
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; train.n_cols];
        for i in 0..train.n_rows {
            for ((s, &m), &v) in vars.iter_mut().zip(&means).zip(train.row(i)) {
                let d = signed_log(v) - m;
                *s += d * d;
            }
        }
        let stds = vars.iter().map(|s| (s / n).sqrt().max(1e-9)).collect();
        Self { means, stds }
    }

    /// Transform one raw row into the model space.
    pub(crate) fn transform_row(&self, x: &[f64], out: &mut [f64]) {
        for ((o, &v), (&m, &s)) in out.iter_mut().zip(x).zip(self.means.iter().zip(&self.stds)) {
            *o = (signed_log(v) - m) / s;
        }
    }

    /// Transform a whole dataset (targets pass through).
    pub(crate) fn transform(&self, data: &Dataset) -> Dataset {
        let mut x = vec![0.0; data.x.len()];
        for i in 0..data.n_rows {
            let (a, b) = (i * data.n_cols, (i + 1) * data.n_cols);
            self.transform_row(data.row(i), &mut x[a..b]);
        }
        Dataset {
            x,
            n_rows: data.n_rows,
            n_cols: data.n_cols,
            y: data.y.clone(),
            names: data.names.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // Three columns with very different scales.
        let n = 100;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let f = i as f64;
            x.extend_from_slice(&[f, f * 1e9, -f * 0.001]);
            y.push(f * 0.1);
        }
        Dataset::new(x, n, 3, y, vec!["a".into(), "b".into(), "c".into()])
    }

    #[test]
    fn row_access_and_subset() {
        let d = toy();
        assert_eq!(d.row(2), &[2.0, 2e9, -0.002]);
        let s = d.subset(&[5, 10]);
        assert_eq!(s.n_rows, 2);
        assert_eq!(s.row(1), d.row(10));
        assert_eq!(s.y[0], d.y[5]);
    }

    #[test]
    fn ordered_split_respects_order_and_sizes() {
        let d = toy();
        let (tr, va, te) = d.split_ordered(0.6, 0.2);
        assert_eq!(tr.n_rows, 60);
        assert_eq!(va.n_rows, 20);
        assert_eq!(te.n_rows, 20);
        // Ordering preserved: train rows all precede val rows in y.
        assert!(tr.y.iter().all(|&v| v < va.y[0]));
        assert!(va.y.iter().all(|&v| v < te.y[0]));
    }

    #[test]
    fn preprocessor_standardizes_training_data() {
        let d = toy();
        let p = Preprocessor::fit(&d);
        let t = p.transform(&d);
        // Each column of the transformed training data has ~zero mean and
        // ~unit std.
        for c in 0..t.n_cols {
            let col: Vec<f64> = (0..t.n_rows).map(|i| t.row(i)[c]).collect();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-6, "col {c} var {var}");
        }
    }

    #[test]
    fn signed_log_is_odd_and_monotone() {
        assert_eq!(signed_log(0.0), 0.0);
        assert!((signed_log(-5.0) + signed_log(5.0)).abs() < 1e-12);
        let xs = [-1e12, -5.0, 0.0, 3.0, 1e9];
        let ys: Vec<f64> = xs.iter().map(|&x| signed_log(x)).collect();
        assert!(ys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let d = Dataset::new(vec![7.0; 10], 10, 1, vec![0.0; 10], vec!["k".into()]);
        let p = Preprocessor::fit(&d);
        let t = p.transform(&d);
        assert!(t.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_features() {
        Dataset::new(vec![f64::NAN], 1, 1, vec![0.0], vec!["a".into()]);
    }

    #[test]
    fn sanitized_is_identity_on_clean_input() {
        let d = toy();
        let (s, report) =
            Dataset::sanitized(d.x.clone(), d.n_rows, d.n_cols, d.y.clone(), d.names.clone());
        assert!(report.is_clean());
        assert_eq!(s, d);
    }

    #[test]
    fn sanitized_imputes_features_to_column_median() {
        // Column values 0, 1, 2, NaN, 4 → finite median of {0,1,2,4} = 1.5.
        let x = vec![0.0, 1.0, 2.0, f64::NAN, 4.0];
        let y = vec![0.0; 5];
        let (s, report) = Dataset::sanitized(x, 5, 1, y, vec!["a".into()]);
        assert_eq!(report.imputed_features, 1);
        assert_eq!(report.dropped_rows, 0);
        assert_eq!(s.row(3), &[1.5]);
        assert!(s.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sanitized_drops_rows_with_bad_targets() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![0.1, f64::NEG_INFINITY, 0.3, f64::NAN];
        let (s, report) = Dataset::sanitized(x, 4, 1, y, vec!["a".into()]);
        assert_eq!(report.dropped_rows, 2);
        assert_eq!(s.n_rows, 2);
        assert_eq!(s.y, vec![0.1, 0.3]);
        assert_eq!(s.x, vec![1.0, 3.0]);
    }

    #[test]
    fn sanitized_handles_all_nan_column() {
        let x = vec![f64::NAN, f64::INFINITY];
        let y = vec![0.0, 1.0];
        let (s, report) = Dataset::sanitized(x, 2, 1, y, vec!["a".into()]);
        assert_eq!(report.imputed_features, 2);
        assert_eq!(s.x, vec![0.0, 0.0], "no finite values → impute 0");
    }
}
