//! # iotax-stats
//!
//! Statistics substrate for the `iotax` reproduction of *"A Taxonomy of Error
//! Sources in HPC I/O Machine Learning Models"* (SC'22).
//!
//! The paper's litmus tests are statistical procedures: Bessel-corrected
//! duplicate-set error estimates (§VI, §IX), Student-t fits to concurrent
//! duplicate distributions (§IX), quantile summaries of heavy-tailed error
//! distributions (§V), and distributional comparisons between feature sets
//! (§VI-VII). This crate implements everything those tests need from scratch:
//!
//! * `special` (private) — `erfc`, `ln_gamma`, regularized incomplete
//!   beta/gamma, the numerical bedrock for the distribution CDFs.
//! * [`hashing`] — stable FNV-1a hashing for duplicate-set signatures
//!   that must not drift across Rust releases.
//! * [`dist`] — Normal, LogNormal, Student-t, Uniform, Gamma, Pareto and
//!   categorical sampling with pdf/cdf/quantile where defined.
//! * [`describe`] — descriptive statistics: mean, Bessel-corrected variance,
//!   medians, arbitrary quantiles, MAD.
//! * [`online`] — Welford online moments with parallel-friendly merge.
//! * [`histogram`] — linear- and log-spaced histograms.
//! * [`ks`] — the one-sample Kolmogorov–Smirnov test.
//! * [`fit`] — moment/MLE fitting for Normal and Student-t (EM with a
//!   profiled degrees-of-freedom search).
//! * [`rng`] — deterministic seed-derivation helpers so parallel simulation
//!   streams stay reproducible.
//! * [`fanout`] — the deterministic executor: independent per-item work
//!   on fixed contiguous ranges, one per thread, merged in input order,
//!   so the result does not depend on the thread count. The simulator's
//!   per-job assembly, the trace writer and trace ingest run on it.
//!
//! All sampling is generic over [`rand::Rng`] and deterministic for a given
//! seed, which the experiment harness relies on for bit-for-bit reproduction.

pub mod cast;
pub mod describe;
pub mod dist;
pub mod fanout;
pub mod fit;
pub mod hashing;
pub mod histogram;
pub mod ks;
pub mod online;
pub mod rng;
mod special;

#[cfg(test)]
mod prop;

pub use describe::{mean, median, quantile, variance_biased};
pub use dist::{Categorical, LogNormal, Normal, Pareto, StudentT, Uniform};
pub use fit::{fit_normal, fit_student_t, StudentTFit};
pub use hashing::Fnv1aHasher;
pub use histogram::Histogram;
pub use online::Welford;
pub use rng::{rng_from_seed, substream};
