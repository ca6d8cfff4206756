//! # iotax-stats
//!
//! Statistics substrate for the `iotax` reproduction of *"A Taxonomy of Error
//! Sources in HPC I/O Machine Learning Models"* (SC'22).
//!
//! The paper's litmus tests are statistical procedures: Bessel-corrected
//! duplicate-set error estimates (§VI, §IX), Student-t fits to concurrent
//! duplicate distributions (§IX), quantile summaries of heavy-tailed error
//! distributions (§V), and distributional comparisons between feature sets
//! (§VI-VII). This crate implements everything those tests and the simulator
//! need from scratch:
//!
//! * `special` (private) — `erfc` for the normal CDF and `ln_gamma` for the
//!   Student-t log-likelihood.
//! * [`hashing`] — stable FNV-1a hashing for duplicate-set signatures
//!   that must not drift across Rust releases.
//! * [`dist`] — the simulator's samplers (Normal, LogNormal, Uniform,
//!   Pareto, categorical), the normal CDF the KS test compares against,
//!   and the Student-t parameters of the t fit.
//! * [`describe`] — descriptive statistics: mean, Bessel-corrected variance,
//!   medians, arbitrary quantiles, MAD.
//! * [`online`] — Welford online moments.
//! * [`ks`] — the one-sample Kolmogorov–Smirnov test.
//! * [`fit`] — moment/MLE fitting for Normal and Student-t (EM with a
//!   profiled degrees-of-freedom search).
//! * [`rng`] — deterministic seed-derivation helpers so parallel simulation
//!   streams stay reproducible.
//! * [`fanout`] — the deterministic executor: independent per-item work
//!   in fixed chunks that each worker claims from a shared cursor, merged
//!   in input order, so the result does not depend on the thread count
//!   or the schedule. The simulator's per-job assembly, the trace writer
//!   and trace ingest run on it. It also holds [`fanout::join`] and the
//!   thread count, [`fanout::current_num_threads`].
//!
//! All sampling is generic over [`rand::Rng`] and deterministic for a given
//! seed, which the experiment harness relies on for bit-for-bit reproduction.

pub mod cast;
pub mod describe;
pub mod dist;
pub mod fanout;
pub mod fit;
pub mod hashing;
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
pub use online::Welford;
pub use rng::{rng_from_seed, substream};
