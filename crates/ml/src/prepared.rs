//! Prepared (binned) training context, built once and shared across fits.
//!
//! The taxonomy pipeline trains the same fold split hundreds of times —
//! every `grid_search` candidate, every litmus refit, every OoD ensemble
//! member. Quantile binning the raw floats is pure per-dataset work, so
//! [`PreparedDataset`] does it exactly once: feature-major `u16` bin
//! codes, the per-feature cut points, and the targets, packaged so a
//! [`Trainer`](crate::gbm::Trainer) can fit any number of models without
//! touching the raw matrix again.
//!
//! Layout: codes are **feature-major** (`codes[c * n_rows + r]`), because
//! histogram building walks one feature over many rows — the contiguous
//! per-feature stripe turns the inner loop into a sequential scan. Codes
//! are `u16` because `max_bins` is capped at
//! `u16::MAX`: half the memory traffic of `u32` per histogram pass.
//!
//! For strictly increasing cuts, `code(x) <= b  ⟺  x <= cuts[b]`, hence
//! walking a tree by bin code and walking it by raw threshold take the
//! same branch at every node: a model predicts bit-for-bit the same from
//! either representation.

use crate::data::Dataset;

/// A dataset quantile-binned once, ready to train many models.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// Feature-major bin codes, `n_cols × n_rows` (`codes[c * n_rows + r]`).
    pub(crate) codes: Vec<u16>,
    pub(crate) n_rows: usize,
    pub(crate) n_cols: usize,
    /// Per feature: ascending cut points; bin `b` holds values in
    /// `(cuts[b-1], cuts[b]]`, bin `cuts.len()` holds the overflow.
    pub(crate) cuts: Vec<Vec<f64>>,
    /// Training targets, in row order.
    pub(crate) y: Vec<f64>,
    /// The bin budget the cuts were fit with.
    pub(crate) max_bins: usize,
}

impl PreparedDataset {
    /// Quantile-bin a dataset with at most `max_bins` bins per feature.
    pub fn fit(data: &Dataset, max_bins: usize) -> Self {
        assert!(max_bins >= 2 && max_bins <= u16::MAX as usize);
        let cuts: Vec<Vec<f64>> = (0..data.n_cols)
            .map(|c| {
                let mut vals: Vec<f64> =
                    (0..data.n_rows).map(|r| data.x[r * data.n_cols + c]).collect();
                vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
                vals.dedup();
                if vals.len() <= 1 {
                    return Vec::new();
                }
                let want = (max_bins - 1).min(vals.len() - 1);
                let mut cuts = Vec::with_capacity(want);
                for k in 1..=want {
                    let idx = k * (vals.len() - 1) / want;
                    cuts.push(vals[idx.min(vals.len() - 2)]);
                }
                cuts.dedup();
                cuts
            })
            .collect();
        let codes = encode(&cuts, data);
        Self { codes, n_rows: data.n_rows, n_cols: data.n_cols, cuts, y: data.y.clone(), max_bins }
    }

    /// Bin another dataset (validation fold, test fold) under *this*
    /// dataset's cuts, so trained trees can be evaluated on it by code.
    pub(crate) fn bind(&self, data: &Dataset) -> BoundDataset {
        assert_eq!(data.n_cols, self.n_cols, "bound dataset must have the training column layout");
        BoundDataset { codes: encode(&self.cuts, data), n_rows: data.n_rows, y: data.y.clone() }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Training targets, in row order.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// Ascending cut points for feature `c`; bin `b` holds values in
    /// `(cuts[b-1], cuts[b]]` and bin `cuts.len()` holds the overflow.
    #[cfg(test)]
    pub(crate) fn cuts(&self, c: usize) -> &[f64] {
        &self.cuts[c]
    }

    /// The contiguous bin codes of feature `c`, one per row.
    pub(crate) fn feature_codes(&self, c: usize) -> &[u16] {
        &self.codes[c * self.n_rows..(c + 1) * self.n_rows]
    }

    /// Number of bins for feature `c` (cut count + overflow bin).
    pub(crate) fn n_bins(&self, c: usize) -> usize {
        self.cuts[c].len() + 1
    }

    /// The bin budget the cuts were fit with.
    pub(crate) fn max_bins(&self) -> usize {
        self.max_bins
    }
}

/// Another fold binned under a [`PreparedDataset`]'s cuts.
#[derive(Debug, Clone)]
pub(crate) struct BoundDataset {
    /// Feature-major bin codes, `n_cols × n_rows`.
    pub(crate) codes: Vec<u16>,
    pub(crate) n_rows: usize,
    /// Targets of the bound fold, in row order.
    pub(crate) y: Vec<f64>,
}

/// Feature-major bin codes of `data` under `cuts`.
fn encode(cuts: &[Vec<f64>], data: &Dataset) -> Vec<u16> {
    let mut codes = vec![0u16; data.n_rows * data.n_cols];
    for (c, col) in codes.chunks_mut(data.n_rows).enumerate() {
        let cuts = &cuts[c];
        for (r, code) in col.iter_mut().enumerate() {
            let x = data.x[r * data.n_cols + c];
            *code = cuts.partition_point(|&cut| cut < x) as u16;
        }
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<f64> = x.clone();
        Dataset::new(x, n, 1, y, vec!["x0".into()])
    }

    #[test]
    fn codes_are_feature_major_and_monotone() {
        let data = ramp(100);
        let p = PreparedDataset::fit(&data, 16);
        let codes = p.feature_codes(0);
        assert_eq!(codes.len(), 100);
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
        assert!(p.n_bins(0) <= 16);
    }

    #[test]
    fn cuts_map_to_their_own_bin() {
        let data = ramp(10);
        let p = PreparedDataset::fit(&data, 4);
        for (b, cut) in p.cuts(0).iter().enumerate() {
            assert_eq!(p.cuts(0).partition_point(|&x| x < *cut), b, "cut {cut}");
        }
    }

    #[test]
    fn binding_the_training_fold_reproduces_its_codes() {
        let data = ramp(64);
        let p = PreparedDataset::fit(&data, 8);
        let bound = p.bind(&data);
        assert_eq!(bound.codes, p.codes);
        assert_eq!(bound.y, p.y);
    }

    #[test]
    fn bound_rows_clamp_into_the_overflow_bin() {
        let data = ramp(32);
        let p = PreparedDataset::fit(&data, 8);
        let far = Dataset::new(vec![1e9, -1e9], 2, 1, vec![0.0, 0.0], vec!["x0".into()]);
        let bound = p.bind(&far);
        assert_eq!(bound.codes[0] as usize, p.cuts(0).len(), "overflow bin");
        assert_eq!(bound.codes[1], 0, "underflow lands in bin 0");
    }

    #[test]
    #[should_panic(expected = "column layout")]
    fn binding_mismatched_columns_panics() {
        let data = ramp(16);
        let p = PreparedDataset::fit(&data, 8);
        let wide = Dataset::new(vec![0.0; 8], 4, 2, vec![0.0; 4], vec!["a".into(), "b".into()]);
        p.bind(&wide);
    }
}
