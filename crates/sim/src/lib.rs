//! # iotax-sim
//!
//! The data-generating process: a simulated HPC platform implementing the
//! paper's own model of job I/O throughput (Eq. 3),
//!
//! ```text
//! φ(j) = f_a(j) + f_g(j, ζ_g(t)) + f_l(j, ζ_l(t,j)) + f_n(j, ζ, ω)
//! ```
//!
//! composed multiplicatively (log-additively, matching the paper's
//! log-ratio error metric):
//!
//! * `f_a` — ideal application throughput, a deterministic function of the
//!   job's configuration, fully encoded in its Darshan counters
//!   ([`archetype`], [`darshan_gen`]).
//! * `ζ_g(t)` — global "I/O weather": provisioning epochs, service
//!   degradations and seasonal drift that hit every job ([`weather`]).
//! * `ζ_l(t, j)` — contention: jobs stripe across OSTs and slow each other
//!   down in proportion to overlapped offered load and their own
//!   archetype-specific sensitivity ([`contention`]).
//! * `ω` — inherent noise: multiplicative log-normal perturbation whose
//!   scale is the system's noise level (§IX's ±5.71 % / ±7.21 %).
//!
//! Jobs flow through the real substrates: the workload generator submits
//! requests to the `iotax-sched` scheduler (placements and queue waits are
//! causal), each job's features are read straight off the `iotax-darshan`
//! log generated for it with no encode-and-parse round trip, since the
//! binary format carries such a log exactly ([`platform`]), and LMT
//! telemetry is recorded from the actual per-OST load the jobs deposit
//! ([`telemetry`]).
//!
//! Crucially, [`platform::SimJob`] carries the **hidden ground truth** — the
//! four log-space components above plus novelty flags — which the
//! integration tests use to validate each litmus test, a check the paper
//! could not run on production data.
//!
//! Presets: [`config::SimConfig::theta`] (Darshan + Cobalt, no LMT, quieter
//! noise, fewer duplicates) and [`config::SimConfig::cori`] (Darshan + LMT,
//! noisier, duplicate-heavy), scaled by `with_jobs`.

pub mod apps;
pub mod archetype;
pub mod config;
pub mod contention;
pub mod darshan_gen;
pub mod fault;
pub mod features;
pub mod platform;
pub mod telemetry;
pub mod weather;

pub use config::{SimConfig, SystemKind};
pub use fault::{FaultKind, FaultManifest, FaultPlan};
pub use features::FeatureSet;
pub use platform::{GroundTruth, Platform, SimDataset, SimJob};
pub use weather::Weather;
