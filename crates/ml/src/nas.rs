//! Aging-evolution neural architecture search (the AgEBO stand-in).
//!
//! §VI.B tunes neural networks with AgEBO — populations of networks whose
//! architectures and hyperparameters evolve generation by generation.
//! Regularized (aging) evolution is the core of that outer loop: keep a
//! sliding population, sample a tournament, mutate the winner, retire the
//! oldest member. Fig. 2 plots every evaluated network per generation with
//! the duplicate-bound litmus line; [`evolve`] returns exactly that series.

use crate::data::Dataset;
use crate::metrics::median_abs_error;
use crate::nn::{Mlp, MlpContext, MlpParams};
use crate::Regressor;
use iotax_stats::rng::substream;
use rand::rngs::StdRng;
use rand::RngExt;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An evolvable network description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- type of NasRecord's public `genome` field; the fig2 bench reads evolve's records
pub struct Genome {
    /// Hidden layer widths (1-4 layers of 8-256 units).
    pub hidden: Vec<usize>,
    /// log10 learning rate in [-4, -1.5].
    pub log_lr: f64,
    /// Dropout in [0, 0.5).
    pub dropout: f64,
    /// log10 weight decay in [-7, -3].
    pub log_wd: f64,
    /// Training epochs in [10, 60].
    pub epochs: usize,
}

impl Genome {
    /// Random genome.
    pub fn random(rng: &mut StdRng) -> Self {
        let n_layers = rng.random_range(1..=3);
        let hidden = (0..n_layers).map(|_| 1usize << rng.random_range(3..=8)).collect();
        Self {
            hidden,
            log_lr: -4.0 + 2.5 * rng.random::<f64>(),
            dropout: 0.5 * rng.random::<f64>(),
            log_wd: -7.0 + 4.0 * rng.random::<f64>(),
            epochs: rng.random_range(10..=40),
        }
    }

    /// Mutate one aspect of the genome.
    pub(crate) fn mutate(&self, rng: &mut StdRng) -> Self {
        let mut g = self.clone();
        match rng.random_range(0..5) {
            0 => {
                // Resize a random layer.
                let i = rng.random_range(0..g.hidden.len());
                g.hidden[i] = (g.hidden[i] as f64
                    * if rng.random::<f64>() < 0.5 { 0.5 } else { 2.0 })
                .clamp(8.0, 256.0) as usize;
            }
            1 => {
                // Add or remove a layer.
                if g.hidden.len() > 1 && rng.random::<f64>() < 0.5 {
                    g.hidden.pop();
                } else if g.hidden.len() < 4 {
                    g.hidden.push(1usize << rng.random_range(3..=8));
                }
            }
            2 => g.log_lr = (g.log_lr + 0.4 * (rng.random::<f64>() - 0.5)).clamp(-4.0, -1.5),
            3 => g.dropout = (g.dropout + 0.15 * (rng.random::<f64>() - 0.5)).clamp(0.0, 0.49),
            _ => g.log_wd = (g.log_wd + 0.8 * (rng.random::<f64>() - 0.5)).clamp(-7.0, -3.0),
        }
        g
    }

    /// Concretize into trainable parameters.
    pub(crate) fn to_params(&self, seed: u64, heteroscedastic: bool) -> MlpParams {
        MlpParams {
            hidden: self.hidden.clone(),
            learning_rate: 10f64.powf(self.log_lr),
            weight_decay: 10f64.powf(self.log_wd),
            dropout: self.dropout,
            epochs: self.epochs,
            batch_size: 64,
            seed,
            heteroscedastic,
            grad_clip: 5.0,
        }
    }
}

/// NAS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NasConfig {
    /// Population size (the paper uses 30 networks per generation).
    pub population: usize,
    /// Number of generations (the paper runs 10).
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Master seed.
    pub seed: u64,
    /// Train heteroscedastic networks (needed when the survivors feed an
    /// AutoDEUQ-style ensemble).
    pub heteroscedastic: bool,
}

impl Default for NasConfig {
    fn default() -> Self {
        Self { population: 30, generations: 10, tournament: 5, seed: 0, heteroscedastic: false }
    }
}

/// One evaluated network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- element type of the public evolve's return, which the fig2 bench calls
pub struct NasRecord {
    /// Generation index (0 = random init population).
    pub generation: usize,
    /// The genome evaluated.
    pub genome: Genome,
    /// Median absolute log10 error on the validation set.
    pub val_error: f64,
}

/// Run aging evolution; returns every evaluated network in evaluation
/// order (generation 0 is the random population, then one generation per
/// `population` mutations).
pub fn evolve(train: &Dataset, val: &Dataset, cfg: NasConfig) -> Vec<NasRecord> {
    assert!(cfg.population >= 2 && cfg.tournament >= 1);
    let mut rng = substream(cfg.seed, 31);
    // Preprocess the training fold once; every evaluated network trains
    // against the shared context.
    let ctx = MlpContext::prepare(train);
    let eval = |genome: &Genome, idx: u64| -> f64 {
        let model = Mlp::fit_prepared(
            &ctx,
            genome.to_params(substream_seed(cfg.seed, idx), cfg.heteroscedastic),
        );
        median_abs_error(&val.y, &model.predict(val))
    };
    // Generation 0: random population, trained in parallel.
    let genomes: Vec<Genome> = (0..cfg.population).map(|_| Genome::random(&mut rng)).collect();
    let mut history: Vec<NasRecord> = genomes
        .par_iter()
        .enumerate()
        .map(|(i, g)| NasRecord { generation: 0, genome: g.clone(), val_error: eval(g, i as u64) })
        .collect();
    let mut population: VecDeque<(Genome, f64)> =
        history.iter().map(|r| (r.genome.clone(), r.val_error)).collect();

    let mut eval_idx = cfg.population as u64;
    for generation in 1..cfg.generations {
        iotax_obs::counter!("ml.nas.generations").incr(1);
        // Produce one generation of children (in parallel), then age the
        // population by the same count.
        let parents: Vec<Genome> = (0..cfg.population)
            .map(|_| {
                let mut best: Option<&(Genome, f64)> = None;
                for _ in 0..cfg.tournament {
                    let c = &population[rng.random_range(0..population.len())];
                    if best.is_none_or(|b| c.1 < b.1) {
                        best = Some(c);
                    }
                }
                best.expect("non-empty population").0.clone()
            })
            .collect();
        let children: Vec<Genome> = parents.iter().map(|p| p.mutate(&mut rng)).collect();
        let evaluated: Vec<NasRecord> = children
            .into_par_iter()
            .enumerate()
            .map(|(i, g)| NasRecord {
                generation,
                val_error: eval(&g, eval_idx + i as u64),
                genome: g,
            })
            .collect();
        eval_idx += cfg.population as u64;
        for r in &evaluated {
            population.push_back((r.genome.clone(), r.val_error));
            population.pop_front(); // aging: retire the oldest
        }
        history.extend(evaluated);
    }
    history
}

fn substream_seed(seed: u64, idx: u64) -> u64 {
    iotax_stats::rng::splitmix64(seed ^ idx.rotate_left(17))
}

/// The best record of a NAS history.
pub fn best_record(history: &[NasRecord]) -> &NasRecord {
    history
        .iter()
        .min_by(|a, b| a.val_error.partial_cmp(&b.val_error).expect("finite"))
        .expect("non-empty history")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;
    use rand::RngExt;

    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random::<f64>() * 2.0 - 1.0;
            x.push(a);
            y.push(0.8 * a + 0.3);
        }
        Dataset::new(x, n, 1, y, vec!["a".into()])
    }

    fn tiny_cfg() -> NasConfig {
        NasConfig { population: 4, generations: 3, tournament: 2, seed: 5, heteroscedastic: false }
    }

    #[test]
    fn produces_population_times_generations_records() {
        let train = toy(200, 1);
        let val = toy(50, 2);
        let history = evolve(&train, &val, tiny_cfg());
        assert_eq!(history.len(), 4 * 3);
        for r in &history {
            assert!(r.val_error.is_finite());
            assert!(r.generation < 3);
        }
    }

    #[test]
    fn genomes_stay_in_bounds_under_mutation() {
        let mut rng = rng_from_seed(3);
        let mut g = Genome::random(&mut rng);
        for _ in 0..200 {
            g = g.mutate(&mut rng);
            assert!(!g.hidden.is_empty() && g.hidden.len() <= 4);
            assert!(g.hidden.iter().all(|&h| (8..=256).contains(&h)));
            assert!((-4.0..=-1.5).contains(&g.log_lr));
            assert!((0.0..0.5).contains(&g.dropout));
            assert!((-7.0..=-3.0).contains(&g.log_wd));
        }
    }

    #[test]
    fn best_record_is_minimum() {
        let train = toy(150, 4);
        let val = toy(50, 5);
        let history = evolve(&train, &val, tiny_cfg());
        let best = best_record(&history);
        assert!(history.iter().all(|r| r.val_error >= best.val_error));
    }

    #[test]
    fn later_generations_do_not_regress_much() {
        // Evolution's *best-so-far* is monotone by construction; check the
        // plumbing tracks it.
        let train = toy(300, 6);
        let val = toy(80, 7);
        let history = evolve(&train, &val, tiny_cfg());
        let best_gen0 = history
            .iter()
            .filter(|r| r.generation == 0)
            .map(|r| r.val_error)
            .fold(f64::INFINITY, f64::min);
        let best_overall = best_record(&history).val_error;
        assert!(best_overall <= best_gen0 + 1e-12);
    }
}
