//! # iotax-core
//!
//! The paper's primary contribution: a taxonomy of I/O throughput modeling
//! errors with data-driven **litmus tests** that attribute a model's error
//! to five classes —
//!
//! 1. **application modeling** (`e_app`) — fixable by better models /
//!    hyperparameters; bounded below by the duplicate-set litmus (§VI),
//! 2. **global system modeling** (`e_system`) — fixable by system logs;
//!    bounded by the start-time golden model (§VII),
//! 3. **generalization** (`e_OoD`) — novel jobs; quantified by ensemble
//!    epistemic uncertainty (§VIII),
//! 4. **contention** and 5. **inherent noise** (`e_contention + e_noise`)
//!    — irreducible; measured from concurrent duplicates (§IX).
//!
//! Modules:
//!
//! * [`duplicates`] — observational duplicate-set detection.
//! * [`litmus`] — the pure-statistics litmus tests (application bound,
//!   concurrent-duplicate noise floor, Δt-bucket analysis).
//! * [`golden`] — the model-based system litmus (start-time golden model,
//!   LMT-enriched comparison).
//! * [`ood`] — the ensemble-based OoD litmus.
//! * [`taxonomy`] — the end-to-end Fig. 7 pipeline producing an
//!   [`taxonomy::ErrorBreakdown`] with a rendered report.
//! * [`intervals`] — the practical payoff: noise-floor prediction
//!   intervals with an empirical coverage check.
//! * [`advisor`] — prioritized recommendations from a breakdown ("tune",
//!   "collect system logs", "collect rare apps", or "stop — it's noise").

pub mod advisor;
pub mod duplicates;
pub mod golden;
pub mod intervals;
pub mod litmus;
pub mod ood;
pub mod taxonomy;

pub use advisor::{recommend, render_recommendations, Recommendation};
pub use duplicates::{
    feature_signature, find_duplicate_sets, group_signatures, job_signature, DuplicateSets,
};
pub use intervals::{empirical_coverage, interval_from_floor, ThroughputInterval};
pub use litmus::{app_modeling_bound, concurrent_noise_floor, dt_bucket_spreads, NoiseFloor};
pub use taxonomy::{
    AppLitmusStage, BaselineStage, ErrorBreakdown, NoiseFloorStage, OodStage, StageHealth,
    StageMetric, SystemLitmusStage, Taxonomy, TaxonomyReport, TaxonomyRun,
};
