//! Histogram-binned regression trees with second-order split gains.
//!
//! The design follows XGBoost's histogram algorithm: features are
//! quantile-binned once per training set ([`PreparedDataset`]), and each
//! node finds its best split by accumulating gradient/hessian histograms —
//! O(rows × features) per level instead of O(rows log rows) per feature.
//! Histogram building walks one feature at a time over the prepared
//! context's contiguous feature-major `u16` codes, and reuses a
//! thread-local histogram scratch instead of allocating per node — the
//! former per-node `vec![0.0; n_bins]` pair was the dominant tree cost.

use crate::prepared::PreparedDataset;
use std::cell::RefCell;

/// Maximum number of histogram bins per feature.
pub(crate) const DEFAULT_MAX_BINS: usize = 256;

/// Parameters controlling a single tree, which `Trainer::fit` fills from
/// the checked `GbmParams`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub(crate) max_depth: usize,
    /// Minimum hessian weight in each child (≥ samples for squared loss).
    pub(crate) min_child_weight: f64,
    /// L2 regularization λ on leaf values.
    pub(crate) lambda: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split feature (meaningless for leaves).
    feature: u32,
    /// Index of the left child; right child is `left + 1`. 0 marks a leaf.
    left: u32,
    /// Split bin: go left when `code[feature] <= bin`. Equivalent to the
    /// raw-value test below because cuts are strictly increasing.
    bin: u16,
    /// Raw-value threshold: go left when `x[feature] <= threshold`.
    threshold: f64,
    /// Leaf value (weight × shrinkage applied by the caller).
    value: f64,
    /// Split gain (0 for leaves); feeds gain-based feature importance.
    gain: f64,
}

const LEAF: Node = Node { feature: 0, left: 0, bin: 0, threshold: 0.0, value: 0.0, gain: 0.0 };

/// One fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegressionTree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Split {
    feature: usize,
    bin: usize,
    gain: f64,
    left_g: f64,
    left_h: f64,
}

fn leaf_value(g: f64, h: f64, lambda: f64) -> f64 {
    -g / (h + lambda)
}

fn gain_term(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Reusable histogram buffers, one set per thread. Invariant: every
/// buffer is all-zero between `best_split` calls (each call clears exactly
/// the bins it touched before returning).
struct SplitScratch {
    hist_g: Vec<f64>,
    hist_h: Vec<f64>,
    hist_n: Vec<u32>,
    /// Occupancy bitmask over bins (one bit per bin). The gain scan walks
    /// set bits instead of every bin, so a deep node holding a dozen rows
    /// against a 256-bin budget does a dozen gain evaluations, not 256.
    occ: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<SplitScratch> = const {
        RefCell::new(SplitScratch {
            hist_g: Vec::new(),
            hist_h: Vec::new(),
            hist_n: Vec::new(),
            occ: Vec::new(),
        })
    };
}

impl RegressionTree {
    /// Fit a tree to gradients `g` and hessians `h` over the row subset
    /// `rows`, considering only `features`. `rows` is reordered in place
    /// (callers pass a scratch buffer).
    pub(crate) fn fit(
        binned: &PreparedDataset,
        g: &[f64],
        h: &[f64],
        rows: &mut [u32],
        features: &[usize],
        params: &TreeParams,
    ) -> Self {
        assert_eq!(g.len(), binned.n_rows);
        assert_eq!(h.len(), binned.n_rows);
        // Every loss this crate trains has unit hessians; detecting that
        // once lets `best_split` count rows in a u32 histogram instead of
        // summing 1.0s — exact-integer float sums, so bit-identical.
        let unit_h = h.iter().all(|&v| v == 1.0);
        let mut nodes = Vec::new();
        // Stack entries: (row range, depth, node index to fill, live
        // features). A feature whose rows all share one bin cannot split
        // the node (the empty right child is rejected by the guards), and
        // a child's rows are a subset of its parent's — so once a feature
        // goes single-bin it is dead for the entire subtree and the
        // children skip its histogram. Duplicate-heavy HPC traces shed
        // most features within a few levels this way.
        nodes.push(LEAF);
        let mut stack: Vec<(usize, usize, usize, usize, Vec<usize>)> =
            vec![(0, rows.len(), 0, 0, features.to_vec())];
        let mut work = Vec::new(); // defer to keep borrow simple
        let mut work_g = Vec::new(); // gradients gathered per node, in row order
        let mut work_h = Vec::new();
        while let Some((lo, hi, depth, node_idx, live)) = stack.pop() {
            work.clear();
            work.extend_from_slice(&rows[lo..hi]);
            work_g.clear();
            work_g.extend(work.iter().map(|&r| g[r as usize]));
            let sum_g = work_g.iter().fold(0.0, |a, &v| a + v);
            let sum_h = if unit_h {
                work.len() as f64
            } else {
                work_h.clear();
                work_h.extend(work.iter().map(|&r| h[r as usize]));
                work_h.iter().fold(0.0, |a, &v| a + v)
            };
            let value = leaf_value(sum_g, sum_h, params.lambda);
            nodes[node_idx] = Node { value, ..LEAF };
            if depth >= params.max_depth || work.len() < 2 {
                continue;
            }
            let (split, dead) = best_split(
                binned,
                &work,
                &work_g,
                if unit_h { None } else { Some(&work_h) },
                &live,
                sum_g,
                sum_h,
                params,
            );
            let Some(split) = split else {
                continue;
            };
            // Partition rows: left = code <= split.bin.
            let codes = binned.feature_codes(split.feature);
            let mut left_count = 0usize;
            for i in lo..hi {
                if codes[rows[i] as usize] as usize <= split.bin {
                    rows.swap(lo + left_count, i);
                    left_count += 1;
                }
            }
            debug_assert!(left_count > 0 && left_count < hi - lo);
            let left_idx = nodes.len();
            nodes.push(LEAF);
            nodes.push(LEAF);
            nodes[node_idx] = Node {
                feature: split.feature as u32,
                left: left_idx as u32,
                bin: split.bin as u16,
                threshold: binned.cuts[split.feature][split.bin],
                value,
                gain: split.gain,
            };
            let child_live: Vec<usize> = if dead.is_empty() {
                live
            } else {
                live.into_iter().filter(|f| !dead.contains(f)).collect()
            };
            stack.push((lo, lo + left_count, depth + 1, left_idx, child_live.clone()));
            stack.push((lo + left_count, hi, depth + 1, left_idx + 1, child_live));
        }
        Self { nodes }
    }

    /// Predict one raw feature row.
    pub(crate) fn predict_row(&self, x: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            let n = &self.nodes[idx];
            if n.left == 0 {
                return n.value;
            }
            idx = if x[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.left as usize + 1
            };
        }
    }

    /// Predict row `row` of a feature-major code matrix (`n_cols × n_rows`).
    /// Takes the same branch as [`predict_row`](Self::predict_row) on the
    /// raw values the codes were binned from.
    pub(crate) fn predict_coded(&self, codes: &[u16], n_rows: usize, row: usize) -> f64 {
        let n = &self.nodes[self.leaf_index_coded(codes, n_rows, row)];
        n.value
    }

    /// Index of the leaf that row `row` of a feature-major code matrix
    /// falls into.
    pub(crate) fn leaf_index_coded(&self, codes: &[u16], n_rows: usize, row: usize) -> usize {
        let mut idx = 0usize;
        loop {
            let n = &self.nodes[idx];
            if n.left == 0 {
                return idx;
            }
            idx = if codes[n.feature as usize * n_rows + row] <= n.bin {
                n.left as usize
            } else {
                n.left as usize + 1
            };
        }
    }

    /// Overwrite a leaf's value (used by L1 median leaf renewal). Panics
    /// if `idx` is not a leaf.
    pub(crate) fn set_leaf_value(&mut self, idx: usize, value: f64) {
        assert_eq!(self.nodes[idx].left, 0, "node {idx} is not a leaf");
        self.nodes[idx].value = value;
    }

    /// Accumulate this tree's split gains into `importances[feature]`
    /// (gain-based feature importance, XGBoost's default).
    pub(crate) fn accumulate_gains(&self, importances: &mut [f64]) {
        for n in &self.nodes {
            if n.left != 0 {
                importances[n.feature as usize] += n.gain;
            }
        }
    }

    /// Maximum depth actually reached.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            let n = &nodes[idx];
            if n.left == 0 {
                0
            } else {
                1 + walk(nodes, n.left as usize).max(walk(nodes, n.left as usize + 1))
            }
        }
        walk(&self.nodes, 0)
    }
}

/// Best split across the candidate features for one node, plus the
/// features found *dead* here — single-bin over the node's rows, which can
/// never split this node or any descendant (see [`RegressionTree::fit`]).
/// `work_g` (and `work_h` when hessians are not all 1.0) are the node's
/// gradients gathered in `rows` order, so the per-feature pass reads them
/// sequentially.
#[expect(
    clippy::too_many_arguments,
    reason = "the node's rows, gradients and sums are separate borrows"
)]
fn best_split(
    binned: &PreparedDataset,
    rows: &[u32],
    work_g: &[f64],
    work_h: Option<&[f64]>,
    features: &[usize],
    sum_g: f64,
    sum_h: f64,
    params: &TreeParams,
) -> (Option<Split>, Vec<usize>) {
    let parent_term = gain_term(sum_g, sum_h, params.lambda);
    // Per feature: (best split, dead-for-subtree flag). Takes the scratch
    // explicitly so the loop below borrows it once per node instead of
    // once per feature.
    let candidate = |scratch: &mut SplitScratch, f: usize| -> (Option<Split>, bool) {
        let n_bins = binned.n_bins(f);
        if n_bins < 2 {
            return (None, true);
        }
        let codes = binned.feature_codes(f);
        {
            let SplitScratch { hist_g, hist_h, hist_n, occ } = scratch;
            if hist_g.len() < n_bins {
                hist_g.resize(n_bins, 0.0);
                hist_h.resize(n_bins, 0.0);
                hist_n.resize(n_bins, 0);
                occ.resize(n_bins.div_ceil(64), 0);
            }
            let mut best: Option<Split> = None;
            let mut dead = false;
            match work_h {
                // Unit hessians: count rows per bin; the counts are exact
                // integers, so `as f64` matches the float sums bit for bit.
                // The scan walks only occupied bins (in ascending order, via
                // the occupancy bitmask): an empty bin adds +0.0 to every
                // accumulator and scores exactly the previous bin's gain,
                // which the strict `>` below never selects — so the skip is
                // bit-identical to the full scan. Deep nodes hold a handful
                // of rows against a 256-bin budget, so this reduces the scan
                // from O(max_bins) to O(occupied).
                None => {
                    for (i, &r) in rows.iter().enumerate() {
                        let b = codes[r as usize] as usize;
                        hist_g[b] += work_g[i];
                        hist_n[b] += 1;
                        occ[b >> 6] |= 1u64 << (b & 63);
                    }
                    let n_words = n_bins.div_ceil(64);
                    dead = occ[..n_words].iter().map(|w| w.count_ones()).sum::<u32>() < 2;
                    let mut acc_g = 0.0;
                    let mut acc_n = 0u32;
                    // The scan visits every occupied bin exactly once (the
                    // early exit below only fires at the highest one), so it
                    // doubles as the zero-restore pass: each bin is cleared
                    // right after it is read, and the separate restore walk
                    // disappears.
                    #[expect(
                        clippy::needless_range_loop,
                        reason = "occ[w] is written back, not just read"
                    )]
                    'scan: for w in 0..n_words {
                        let mut bits = occ[w];
                        occ[w] = 0;
                        while bits != 0 {
                            let b = (w << 6) + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            acc_g += hist_g[b];
                            acc_n += hist_n[b];
                            hist_g[b] = 0.0;
                            hist_n[b] = 0;
                            if b + 1 >= n_bins {
                                // Last bin: nothing to its right to split off.
                                break 'scan;
                            }
                            let acc_h = acc_n as f64;
                            let right_h = sum_h - acc_h;
                            if acc_h < params.min_child_weight || right_h < params.min_child_weight
                            {
                                continue;
                            }
                            let gain = gain_term(acc_g, acc_h, params.lambda)
                                + gain_term(sum_g - acc_g, right_h, params.lambda)
                                - parent_term;
                            if gain > best.map_or(1e-12, |s| s.gain) {
                                best = Some(Split {
                                    feature: f,
                                    bin: b,
                                    gain,
                                    left_g: acc_g,
                                    left_h: acc_h,
                                });
                            }
                        }
                    }
                }
                // Weighted hessians (only reached by explicitly weighted
                // callers): the original dense scan.
                Some(wh) => {
                    for (i, &r) in rows.iter().enumerate() {
                        let b = codes[r as usize] as usize;
                        hist_g[b] += work_g[i];
                        hist_h[b] += wh[i];
                    }
                    let mut acc_g = 0.0;
                    let mut acc_h = 0.0;
                    for b in 0..n_bins - 1 {
                        acc_g += hist_g[b];
                        acc_h += hist_h[b];
                        let right_h = sum_h - acc_h;
                        if acc_h < params.min_child_weight || right_h < params.min_child_weight {
                            continue;
                        }
                        let gain = gain_term(acc_g, acc_h, params.lambda)
                            + gain_term(sum_g - acc_g, right_h, params.lambda)
                            - parent_term;
                        if gain > best.map_or(1e-12, |s| s.gain) {
                            best = Some(Split {
                                feature: f,
                                bin: b,
                                gain,
                                left_g: acc_g,
                                left_h: acc_h,
                            });
                        }
                    }
                    // Restore the all-zero invariant, touching only what
                    // this call dirtied.
                    if 2 * rows.len() < n_bins {
                        for &r in rows {
                            let b = codes[r as usize] as usize;
                            hist_g[b] = 0.0;
                            hist_h[b] = 0.0;
                        }
                    } else {
                        hist_g[..n_bins].fill(0.0);
                        hist_h[..n_bins].fill(0.0);
                    }
                }
            }
            (best, dead)
        }
    };
    // Features in order, keeping the last maximal gain, so the chosen
    // split is deterministic.
    let mut best: Option<Split> = None;
    let mut dead: Vec<usize> = Vec::new();
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        for &f in features {
            let (s, d) = candidate(scratch, f);
            if d {
                dead.push(f);
            }
            if let Some(s) = s {
                let keep = best.as_ref().is_none_or(|c| {
                    s.gain.partial_cmp(&c.gain).expect("finite gains") != std::cmp::Ordering::Less
                });
                if keep {
                    best = Some(s);
                }
            }
        }
    });
    // Guard against degenerate partitions (all rows one side).
    (best.filter(|s| s.left_h > 0.0 && sum_h - s.left_h > 0.0 && s.left_g.is_finite()), dead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    /// `GbmParams::default()`'s tree knobs.
    impl Default for TreeParams {
        fn default() -> Self {
            Self { max_depth: 6, min_child_weight: 1.0, lambda: 1.0 }
        }
    }

    fn step_dataset(n: usize) -> Dataset {
        // y = 1 if x0 > 0.5 else 0 — one split suffices.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let v = i as f64 / n as f64;
            x.push(v);
            y.push(if v > 0.5 { 1.0 } else { 0.0 });
        }
        Dataset::new(x, n, 1, y, vec!["x0".into()])
    }

    fn grads(data: &Dataset, pred: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // Squared loss: g = pred − y, h = 1.
        let g = pred.iter().zip(&data.y).map(|(p, y)| p - y).collect();
        let h = vec![1.0; data.n_rows];
        (g, h)
    }

    fn fit_once(data: &Dataset, params: &TreeParams) -> RegressionTree {
        let binned = PreparedDataset::fit(data, 64);
        let (g, h) = grads(data, &vec![0.0; data.n_rows]);
        let mut rows: Vec<u32> = (0..data.n_rows as u32).collect();
        let features: Vec<usize> = (0..data.n_cols).collect();
        RegressionTree::fit(&binned, &g, &h, &mut rows, &features, params)
    }

    #[test]
    fn learns_a_step_function() {
        let data = step_dataset(200);
        let tree = fit_once(&data, &TreeParams { max_depth: 2, ..Default::default() });
        // With λ = 1 leaves shrink slightly toward zero; check the split.
        assert!(tree.predict_row(&[0.2]).abs() < 0.05);
        assert!(tree.predict_row(&[0.9]) > 0.9);
    }

    #[test]
    fn depth_zero_is_a_single_leaf() {
        let data = step_dataset(100);
        let tree =
            fit_once(&data, &TreeParams { max_depth: 0, lambda: 0.0, min_child_weight: 1.0 });
        assert_eq!(tree.nodes.len(), 1);
        // Leaf = mean of y (λ = 0).
        assert!((tree.predict_row(&[0.3]) - 0.495).abs() < 0.02);
    }

    #[test]
    fn respects_max_depth() {
        let data = step_dataset(512);
        for depth in [1, 2, 3, 5] {
            let tree = fit_once(&data, &TreeParams { max_depth: depth, ..Default::default() });
            assert!(tree.depth() <= depth, "depth {} > {}", tree.depth(), depth);
        }
    }

    #[test]
    fn min_child_weight_blocks_tiny_leaves() {
        let data = step_dataset(100);
        let tree =
            fit_once(&data, &TreeParams { max_depth: 8, min_child_weight: 60.0, lambda: 1.0 });
        // No child can have ≥ 60 samples on both sides more than once.
        assert!(tree.nodes.len() <= 3);
    }

    #[test]
    fn constant_feature_never_splits() {
        let n = 50;
        let d =
            Dataset::new(vec![3.0; n], n, 1, (0..n).map(|i| i as f64).collect(), vec!["k".into()]);
        let tree = fit_once(&d, &TreeParams::default());
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn nonuniform_hessians_take_the_weighted_path() {
        // Same structure as the step set, but down-weight half the rows;
        // the weighted-histogram branch must still find the step split.
        let data = step_dataset(200);
        let binned = PreparedDataset::fit(&data, 64);
        let g: Vec<f64> = data.y.iter().map(|y| -y).collect();
        let h: Vec<f64> = (0..data.n_rows).map(|i| if i % 2 == 0 { 1.0 } else { 0.5 }).collect();
        let mut rows: Vec<u32> = (0..data.n_rows as u32).collect();
        let tree = RegressionTree::fit(
            &binned,
            &g,
            &h,
            &mut rows,
            &[0],
            &TreeParams { max_depth: 2, ..Default::default() },
        );
        assert!(tree.predict_row(&[0.9]) > tree.predict_row(&[0.2]));
    }

    #[test]
    fn two_feature_interaction() {
        // Hierarchical interaction (first-level gain exists, unlike XOR,
        // which greedy trees — including XGBoost — correctly refuse to
        // split at the root): y = 0 when a ≤ .5, else 1 + [b > .5].
        let n = 400;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            x.extend_from_slice(&[a, b]);
            y.push(if a > 0.5 { 1.0 + if b > 0.5 { 1.0 } else { 0.0 } } else { 0.0 });
        }
        let d = Dataset::new(x, n, 2, y, vec!["a".into(), "b".into()]);
        let deep = fit_once(&d, &TreeParams { max_depth: 2, lambda: 0.01, min_child_weight: 1.0 });
        assert!(deep.predict_row(&[0.0, 1.0]).abs() < 0.1);
        assert!((deep.predict_row(&[1.0, 0.0]) - 1.0).abs() < 0.1);
        assert!((deep.predict_row(&[1.0, 1.0]) - 2.0).abs() < 0.1);
    }

    #[test]
    fn coded_prediction_matches_raw_prediction() {
        let data = step_dataset(100);
        // Codes must come from the same cuts the tree was trained under.
        let binned = PreparedDataset::fit(&data, 64);
        let tree = fit_once(&data, &TreeParams { max_depth: 3, ..Default::default() });
        for r in 0..data.n_rows {
            let raw = tree.predict_row(data.row(r));
            let coded = tree.predict_coded(&binned.codes, binned.n_rows, r);
            assert_eq!(raw.to_bits(), coded.to_bits(), "row {r}");
        }
    }
}
