//! Feedforward neural networks with hand-rolled backprop.
//!
//! Dense ReLU layers, Adam, inverted dropout, decoupled weight decay, and
//! an optional **heteroscedastic head** that predicts both a mean and a
//! log-variance under the Gaussian negative log-likelihood — the per-model
//! building block of AutoDEUQ-style deep ensembles (§VIII): the predicted
//! variance estimates *aleatory* uncertainty, and disagreement between
//! ensemble members estimates *epistemic* uncertainty.
//!
//! Training is deliberately serial within a model (bit-for-bit determinism
//! under a seed); a fan-out belongs one level up, across NAS/ensemble
//! members. Ensemble and NAS loops preprocess the training fold once
//! ([`MlpContext::prepare`]) and fit every member against the shared
//! context; per-sample forward/backward passes run in preallocated
//! buffers, with no heap traffic inside the epoch loop.

use crate::data::{Dataset, Preprocessor};
use crate::Regressor;
use iotax_stats::dist::sample_std_normal;
use iotax_stats::rng::substream;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// MLP hyperparameters — the genome the NAS evolves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpParams {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Decoupled weight decay (AdamW style).
    pub weight_decay: f64,
    /// Dropout probability on hidden activations.
    pub dropout: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for init, shuffling, and dropout.
    pub seed: u64,
    /// Predict (mean, log-variance) under Gaussian NLL instead of mean
    /// under squared loss.
    pub heteroscedastic: bool,
    /// Per-parameter gradient clip.
    pub grad_clip: f64,
}

impl Default for MlpParams {
    fn default() -> Self {
        Self {
            hidden: vec![64, 64],
            learning_rate: 1e-3,
            weight_decay: 1e-5,
            dropout: 0.0,
            epochs: 30,
            batch_size: 64,
            seed: 0,
            heteroscedastic: false,
            grad_clip: 5.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Layer {
    w: Vec<f64>, // out × in, row-major — the source of truth
    /// in × out transpose of `w`, refreshed after every optimizer step.
    /// The forward pass walks it input-outer so the inner loop updates
    /// independent output accumulators over contiguous memory — the
    /// compiler vectorizes it, where the per-output dot product serializes
    /// on the f64 add latency chain. Each output still accumulates its
    /// terms in ascending-input order, so the sums are bit-identical to
    /// the row-major fold.
    w_t: Vec<f64>,
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU nets.
        let scale = (2.0 / in_dim as f64).sqrt();
        let w: Vec<f64> = (0..in_dim * out_dim).map(|_| scale * sample_std_normal(rng)).collect();
        let mut layer =
            Self { w, w_t: vec![0.0; in_dim * out_dim], b: vec![0.0; out_dim], in_dim, out_dim };
        layer.refresh_transpose();
        layer
    }

    /// Rebuild the transposed weight copy after `w` changed. One cheap
    /// O(in × out) pass per optimizer step, amortized over a whole batch
    /// of forward passes.
    fn refresh_transpose(&mut self) {
        for o in 0..self.out_dim {
            for i in 0..self.in_dim {
                self.w_t[i * self.out_dim + o] = self.w[o * self.in_dim + i];
            }
        }
    }

    fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.out_dim);
        // Both branches accumulate each output's terms in ascending-input
        // order from 0.0 and add the bias last, so they are bit-identical;
        // the transposed walk wins on wide layers (vectorizable inner
        // loop), the plain dot product on narrow heads (1–2 outputs),
        // where a one-element inner loop is all overhead.
        if self.out_dim < 4 {
            for (o, slot) in out.iter_mut().enumerate() {
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                *slot = row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.b[o];
            }
        } else {
            out.fill(0.0);
            for (i, &xi) in x.iter().enumerate() {
                let col = &self.w_t[i * self.out_dim..(i + 1) * self.out_dim];
                for (slot, &w) in out.iter_mut().zip(col) {
                    *slot += w * xi;
                }
            }
            for (slot, &b) in out.iter_mut().zip(&self.b) {
                *slot += b;
            }
        }
    }
}

/// Adam state for one parameter tensor.
#[derive(Debug, Clone, Default)]
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    fn sized(n: usize) -> Self {
        Self { m: vec![0.0; n], v: vec![0.0; n] }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64, t: usize, clip: f64, wd: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..params.len() {
            let g = grads[i].clamp(-clip, clip);
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * g;
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= lr * (mhat / (vhat.sqrt() + EPS) + wd * params[i]);
        }
    }
}

/// A training fold preprocessed once, shared by every MLP fit against it
/// — the NAS population and all deep-ensemble members train on the same
/// signed-log/standardized matrix instead of re-deriving it per model.
#[derive(Debug, Clone)]
pub struct MlpContext {
    pre: Preprocessor,
    t: Dataset,
    y_mean: f64,
    y_std: f64,
}

impl MlpContext {
    /// Fit the preprocessor and transform the training fold, once.
    pub fn prepare(train: &Dataset) -> Self {
        assert!(train.n_rows > 0, "empty training set");
        let pre = Preprocessor::fit(train);
        let t = pre.transform(train);
        let y_mean = t.y.iter().sum::<f64>() / t.n_rows as f64;
        let y_var = t.y.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / t.n_rows as f64;
        let y_std = y_var.sqrt().max(1e-9);
        Self { pre, t, y_mean, y_std }
    }
}

/// A fitted multilayer perceptron (with internal preprocessing and target
/// standardization).
#[derive(Debug, Clone)]
pub struct Mlp {
    pre: Preprocessor,
    layers: Vec<Layer>,
    params: MlpParams,
    y_mean: f64,
    y_std: f64,
    /// Mean training NLL/MSE per epoch, for convergence inspection.
    pub loss_trace: Vec<f64>,
}

/// Per-sample forward/backward buffers, allocated once per fit.
struct Workspace {
    /// Pre-activations per layer.
    zs: Vec<Vec<f64>>,
    /// Activations: `acts[0]` is the input, `acts[l + 1]` layer `l`'s
    /// post-ReLU (and post-dropout) output.
    acts: Vec<Vec<f64>>,
    /// Inverted-dropout masks per hidden layer (unused when dropout = 0).
    masks: Vec<Vec<f64>>,
    /// Backprop deltas, sized to the widest layer; `prev` is its swap
    /// partner.
    delta: Vec<f64>,
    prev: Vec<f64>,
}

impl Workspace {
    fn sized(layers: &[Layer]) -> Self {
        let zs = layers.iter().map(|l| vec![0.0; l.out_dim]).collect();
        let mut acts = Vec::with_capacity(layers.len() + 1);
        acts.push(vec![0.0; layers[0].in_dim]);
        acts.extend(layers.iter().map(|l| vec![0.0; l.out_dim]));
        let masks = layers.iter().map(|l| vec![0.0; l.out_dim]).collect();
        let widest =
            layers.iter().map(|l| l.in_dim.max(l.out_dim)).max().expect("at least one layer");
        Self { zs, acts, masks, delta: vec![0.0; widest], prev: vec![0.0; widest] }
    }
}

thread_local! {
    /// Prediction-path scratch: (transformed input / layer output, next
    /// layer output). Reused across `forward_raw` calls so batch
    /// prediction allocates nothing per row.
    static FWD_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

impl Mlp {
    /// Fit on a training set (preprocessing it first; callers fitting the
    /// same fold repeatedly should [`MlpContext::prepare`] once and use
    /// [`Mlp::fit_prepared`]).
    pub fn fit(train: &Dataset, params: MlpParams) -> Self {
        Self::fit_prepared(&MlpContext::prepare(train), params)
    }

    /// Fit against a shared, already-preprocessed training context.
    pub fn fit_prepared(ctx: &MlpContext, params: MlpParams) -> Self {
        assert!((0.0..1.0).contains(&params.dropout));
        let t = &ctx.t;
        let (y_mean, y_std) = (ctx.y_mean, ctx.y_std);

        let out_dim = if params.heteroscedastic { 2 } else { 1 };
        let mut dims = vec![t.n_cols];
        dims.extend_from_slice(&params.hidden);
        dims.push(out_dim);
        let mut rng = substream(params.seed, 77);
        let mut layers: Vec<Layer> =
            dims.windows(2).map(|d| Layer::new(d[0], d[1], &mut rng)).collect();
        let mut adams: Vec<(Adam, Adam)> =
            layers.iter().map(|l| (Adam::sized(l.w.len()), Adam::sized(l.b.len()))).collect();

        let mut ws = Workspace::sized(&layers);
        let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut order: Vec<usize> = (0..t.n_rows).collect();
        let mut step = 0usize;
        let mut loss_trace = Vec::with_capacity(params.epochs);
        for epoch in 0..params.epochs {
            // Deterministic shuffle per epoch.
            let mut erng = substream(params.seed, 1000 + epoch as u64);
            for i in (1..order.len()).rev() {
                let j = erng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(params.batch_size) {
                step += 1;
                for g in gw.iter_mut() {
                    g.fill(0.0);
                }
                for g in gb.iter_mut() {
                    g.fill(0.0);
                }
                for &row in batch {
                    let target = (t.y[row] - y_mean) / y_std;
                    epoch_loss += backward_sample(
                        &layers,
                        &params,
                        t.row(row),
                        target,
                        &mut erng,
                        &mut ws,
                        &mut gw,
                        &mut gb,
                    );
                }
                let scale = 1.0 / batch.len() as f64;
                for (l, layer) in layers.iter_mut().enumerate() {
                    for g in gw[l].iter_mut() {
                        *g *= scale;
                    }
                    for g in gb[l].iter_mut() {
                        *g *= scale;
                    }
                    adams[l].0.step(
                        &mut layer.w,
                        &gw[l],
                        params.learning_rate,
                        step,
                        params.grad_clip,
                        params.weight_decay,
                    );
                    adams[l].1.step(
                        &mut layer.b,
                        &gb[l],
                        params.learning_rate,
                        step,
                        params.grad_clip,
                        0.0, // no decay on biases
                    );
                    layer.refresh_transpose();
                }
            }
            loss_trace.push(epoch_loss / t.n_rows as f64);
        }
        Self { pre: ctx.pre.clone(), layers, params, y_mean, y_std, loss_trace }
    }

    fn forward_raw(&self, x: &[f64]) -> (f64, f64) {
        FWD_SCRATCH.with(|scratch| {
            let (cur, next) = &mut *scratch.borrow_mut();
            cur.resize(self.pre.means.len(), 0.0);
            self.pre.transform_row(x, cur);
            let last = self.layers.len() - 1;
            for (l, layer) in self.layers.iter().enumerate() {
                next.resize(layer.out_dim, 0.0);
                layer.forward_into(cur, next);
                if l < last {
                    for v in next.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                std::mem::swap(cur, next);
            }
            let mu = cur[0] * self.y_std + self.y_mean;
            let var = if self.params.heteroscedastic {
                cur[1].clamp(-10.0, 10.0).exp() * self.y_std * self.y_std
            } else {
                0.0
            };
            (mu, var)
        })
    }

    /// Predict mean and variance (variance is 0 for homoscedastic nets).
    pub fn predict_mean_var(&self, x: &[f64]) -> (f64, f64) {
        self.forward_raw(x)
    }

    /// The parameters the model was built with.
    pub fn params(&self) -> &MlpParams {
        &self.params
    }
}

/// Forward + backward for one sample; accumulates parameter grads into
/// `gw`/`gb` and returns the sample loss. Free function (not a method) so
/// `fit` can call it while `self` is still under construction. All
/// intermediate state lives in the caller's [`Workspace`].
#[allow(clippy::too_many_arguments)]
fn backward_sample(
    layers: &[Layer],
    params: &MlpParams,
    x_raw_pre: &[f64],
    target: f64,
    rng: &mut StdRng,
    ws: &mut Workspace,
    gw: &mut [Vec<f64>],
    gb: &mut [Vec<f64>],
) -> f64 {
    let last = layers.len() - 1;
    let dropout_on = params.dropout > 0.0;
    // Forward with caches. Input here is already preprocessed (fit
    // transforms the dataset up front).
    ws.acts[0].copy_from_slice(x_raw_pre);
    for (l, layer) in layers.iter().enumerate() {
        layer.forward_into(&ws.acts[l], &mut ws.zs[l]);
        if l == last {
            ws.acts[l + 1].copy_from_slice(&ws.zs[l]);
        } else {
            // Fused ReLU-copy: activation = max(z, 0) in one pass.
            let a = &mut ws.acts[l + 1];
            for (v, &z) in a.iter_mut().zip(ws.zs[l].iter()) {
                *v = z.max(0.0);
            }
            if dropout_on {
                let keep = 1.0 - params.dropout;
                let mask = &mut ws.masks[l];
                for m in mask.iter_mut() {
                    *m = if rng.random::<f64>() < keep { 1.0 / keep } else { 0.0 };
                }
                for (v, m) in a.iter_mut().zip(mask.iter()) {
                    *v *= m;
                }
            }
        }
    }
    // Loss and output-layer delta.
    let out = &ws.acts[layers.len()];
    let out_dim = layers[last].out_dim;
    let loss = if params.heteroscedastic {
        let mu = out[0];
        let lv = out[1].clamp(-10.0, 10.0);
        let inv = (-lv).exp();
        let resid = target - mu;
        // d/dmu, d/dlv of the NLL.
        ws.delta[0] = -resid * inv;
        ws.delta[1] = 0.5 * (1.0 - resid * resid * inv);
        0.5 * (lv + resid * resid * inv)
    } else {
        let resid = out[0] - target;
        ws.delta[0] = resid;
        0.5 * resid * resid
    };
    // Backward.
    let mut delta_len = out_dim;
    for l in (0..layers.len()).rev() {
        let input = &ws.acts[l];
        let layer = &layers[l];
        let delta = &ws.delta[..delta_len];
        // Parameter grads.
        for o in 0..layer.out_dim {
            gb[l][o] += delta[o];
            let wrow = &mut gw[l][o * layer.in_dim..(o + 1) * layer.in_dim];
            for (gwi, &inp) in wrow.iter_mut().zip(input.iter()) {
                *gwi += delta[o] * inp;
            }
        }
        if l == 0 {
            break;
        }
        // Propagate to the previous layer through W, ReLU, dropout.
        let prev = &mut ws.prev[..layer.in_dim];
        prev.fill(0.0);
        for o in 0..layer.out_dim {
            let wrow = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
            let d = ws.delta[o];
            for (p, &w) in prev.iter_mut().zip(wrow) {
                *p += d * w;
            }
        }
        let z_prev = &ws.zs[l - 1];
        let mask = &ws.masks[l - 1];
        for (i, p) in prev.iter_mut().enumerate() {
            if z_prev[i] <= 0.0 {
                *p = 0.0;
            } else if dropout_on {
                *p *= mask[i];
            }
        }
        delta_len = layer.in_dim;
        std::mem::swap(&mut ws.delta, &mut ws.prev);
    }
    loss
}

impl Regressor for Mlp {
    fn predict_row(&self, x: &[f64]) -> f64 {
        self.forward_raw(x).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::median_abs_error;
    use iotax_stats::rng_from_seed;
    use rand::RngExt;

    fn sine_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random::<f64>() * 4.0 - 2.0;
            let b: f64 = rng.random::<f64>() * 4.0 - 2.0;
            x.extend_from_slice(&[a, b]);
            y.push((a * 1.5).sin() + 0.5 * b);
        }
        Dataset::new(x, n, 2, y, vec!["a".into(), "b".into()])
    }

    #[test]
    fn learns_a_smooth_function() {
        let train = sine_dataset(2000, 1);
        let test = sine_dataset(400, 2);
        let model =
            Mlp::fit(&train, MlpParams { epochs: 60, hidden: vec![32, 32], ..Default::default() });
        let err = median_abs_error(&test.y, &model.predict(&test));
        assert!(err < 0.1, "median abs error {err}");
    }

    #[test]
    fn loss_decreases_during_training() {
        let train = sine_dataset(500, 3);
        let model = Mlp::fit(&train, MlpParams { epochs: 20, ..Default::default() });
        let first = model.loss_trace[0];
        let last = *model.loss_trace.last().expect("non-empty");
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn deterministic_under_seed() {
        let train = sine_dataset(300, 4);
        let p = MlpParams { epochs: 5, seed: 9, dropout: 0.2, ..Default::default() };
        let a = Mlp::fit(&train, p.clone());
        let b = Mlp::fit(&train, p);
        assert_eq!(a.predict(&train), b.predict(&train));
    }

    #[test]
    fn prepared_context_fits_are_bit_identical_to_one_shot() {
        let train = sine_dataset(300, 8);
        let p = MlpParams { epochs: 8, seed: 3, hidden: vec![16], ..Default::default() };
        let ctx = MlpContext::prepare(&train);
        let shared_a = Mlp::fit_prepared(&ctx, p.clone());
        let shared_b = Mlp::fit_prepared(&ctx, p.clone());
        let one_shot = Mlp::fit(&train, p);
        let pa = shared_a.predict(&train);
        let pb = shared_b.predict(&train);
        let po = one_shot.predict(&train);
        assert!(pa.iter().zip(&pb).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(pa.iter().zip(&po).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn heteroscedastic_head_learns_noise_level() {
        // Two regimes: |a| < 1 → tight noise; |a| ≥ 1 → loud noise.
        let mut rng = rng_from_seed(5);
        let n = 3000;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random::<f64>() * 4.0 - 2.0;
            let noise = if a.abs() < 1.0 { 0.05 } else { 0.8 };
            x.push(a);
            y.push(a + noise * iotax_stats::dist::sample_std_normal(&mut rng));
        }
        let train = Dataset::new(x, n, 1, y, vec!["a".into()]);
        let model = Mlp::fit(
            &train,
            MlpParams {
                heteroscedastic: true,
                epochs: 80,
                hidden: vec![32, 32],
                learning_rate: 3e-3,
                ..Default::default()
            },
        );
        let (_, var_quiet) = model.predict_mean_var(&[0.0]);
        let (_, var_loud) = model.predict_mean_var(&[1.8]);
        assert!(var_loud > 4.0 * var_quiet, "quiet {var_quiet:.4} vs loud {var_loud:.4}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        // One tiny deterministic sample, no dropout: analytic grads vs FD.
        let train = sine_dataset(8, 6);
        let params = MlpParams {
            hidden: vec![4],
            epochs: 0,
            dropout: 0.0,
            heteroscedastic: true,
            ..Default::default()
        };
        let model = Mlp::fit(&train, params.clone());
        let mut layers = model.layers.clone();
        let t = model.pre.transform(&train);
        let target = 0.37;
        let x = t.row(0).to_vec();
        let mut rng = rng_from_seed(0);
        let mut ws = Workspace::sized(&layers);
        let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        backward_sample(&layers, &params, &x, target, &mut rng, &mut ws, &mut gw, &mut gb);
        let loss_of = |layers: &[Layer]| {
            let mut rng = rng_from_seed(0);
            let mut zws = Workspace::sized(layers);
            let mut zw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
            let mut zb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
            backward_sample(layers, &params, &x, target, &mut rng, &mut zws, &mut zw, &mut zb)
        };
        let eps = 1e-6;
        for l in 0..layers.len() {
            for i in (0..layers[l].w.len()).step_by(3) {
                let orig = layers[l].w[i];
                layers[l].w[i] = orig + eps;
                layers[l].refresh_transpose();
                let up = loss_of(&layers);
                layers[l].w[i] = orig - eps;
                layers[l].refresh_transpose();
                let down = loss_of(&layers);
                layers[l].w[i] = orig;
                layers[l].refresh_transpose();
                let fd = (up - down) / (2.0 * eps);
                assert!(
                    (fd - gw[l][i]).abs() < 1e-4 * (1.0 + fd.abs()),
                    "layer {l} w[{i}]: fd {fd} vs analytic {}",
                    gw[l][i]
                );
            }
        }
    }

    #[test]
    fn dropout_trains_and_predicts_deterministically() {
        let train = sine_dataset(600, 7);
        let model = Mlp::fit(&train, MlpParams { dropout: 0.3, epochs: 30, ..Default::default() });
        // Prediction applies no dropout: repeated calls identical.
        let p1 = model.predict_row(train.row(0));
        let p2 = model.predict_row(train.row(0));
        assert_eq!(p1, p2);
        let err = median_abs_error(&train.y, &model.predict(&train));
        assert!(err < 0.3, "median abs error {err}");
    }
}
