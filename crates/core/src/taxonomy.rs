//! The end-to-end taxonomy pipeline (Fig. 7).
//!
//! Step 1 — train/evaluate a baseline model. Step 2 — duplicate litmus
//! (application bound) and hyperparameter search. Step 3 — start-time
//! golden model and system-log enrichment. Step 4 — ensemble UQ and OoD
//! attribution. Step 5 — concurrent-duplicate noise floor. The result is
//! an [`ErrorBreakdown`]: the pie chart of Fig. 7 as numbers.
//!
//! Two entry points drive the same code:
//!
//! * [`Taxonomy::run`] — one call, full report.
//! * [`TaxonomyRun`] — the staged form: each litmus stage is a typed
//!   state (`new → baseline → app_litmus → system_litmus → ood →
//!   noise_floor → finish`) so callers can stop early, inspect
//!   intermediate numbers, or interleave their own logic. The type system
//!   enforces the stage order the attribution arithmetic assumes.
//!
//! Every stage runs under an `iotax-obs` span (`core.baseline`,
//! `core.app_litmus`, `core.grid_search`, `core.system_litmus`,
//! `core.ood`, `core.noise_floor`); the completed span trees are embedded
//! in [`TaxonomyReport::timings`].

use crate::duplicates::{find_duplicate_sets, DuplicateSets};
use crate::golden::{lmt_complete, system_litmus, Effort, SystemLitmus};
use crate::litmus::{app_modeling_bound, concurrent_noise_floor, AppBound, NoiseFloor};
use crate::ood::{ood_litmus, OodConfig, OodLitmus};
use iotax_ml::data::Dataset;
use iotax_ml::gbm::{GbmParams, Trainer};
use iotax_ml::metrics::{median_abs_error, median_abs_error_pct};
use iotax_ml::prepared::PreparedDataset;
use iotax_ml::search::grid_search;
use iotax_ml::Regressor;
use iotax_obs::{span, Error, ErrorKind, Result, SpanNode};
use iotax_sim::{FeatureSet, SimDataset, SimJob, SystemKind};
use iotax_uq::classify_ood;
use serde::Serialize;

/// Error attribution relative to the baseline model — Fig. 7's segments.
///
/// All `*_share` fields are fractions of the baseline median error;
/// `unexplained_share` is what the litmus estimates fail to cover (the
/// paper: 32.9 % on Theta, 13.5 % on Cori).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// audit:allow(dead-public-api) -- type of TaxonomyReport's public `breakdown` field; iotax-analyze renders the report
pub struct ErrorBreakdown {
    /// Baseline median absolute error, percent.
    pub baseline_pct: f64,
    /// Estimated application modeling error share (inner blue):
    /// `(baseline − duplicate bound) / baseline`.
    pub app_share: f64,
    /// Share actually removed by hyperparameter tuning (outer blue).
    pub app_fixed_share: f64,
    /// Estimated global-system share (inner green):
    /// `(tuned − golden) / baseline`.
    pub system_share: f64,
    /// Share actually removed by adding system logs (outer green; LMT
    /// systems only).
    pub system_fixed_share: Option<f64>,
    /// Share of error carried by OoD-classified jobs (red).
    pub ood_share: f64,
    /// Irreducible contention + noise share (yellow):
    /// `noise floor / baseline`.
    pub noise_share: f64,
    /// Remainder: `1 − app − system − ood − noise`.
    pub unexplained_share: f64,
}

/// Health of one pipeline stage: did it run on full-quality inputs, or
/// did it detect missing/damaged telemetry and continue on what was there?
///
/// Degraded is *not* an error: the stage still produced numbers, but the
/// report flags that their reliability is reduced and why — the pipeline
/// analog of the salvage parser's anomaly list. (A flat struct rather than
/// a payload enum so it serializes through the vendored serde derive.)
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageHealth {
    /// Stage span name (`core.baseline`, `core.app_litmus`, ...).
    pub stage: String,
    /// Whether the stage ran on degraded inputs.
    pub degraded: bool,
    /// Why, when degraded.
    pub reason: Option<String>,
}

impl StageHealth {
    fn from_reasons(stage: &str, reasons: Vec<String>) -> Self {
        if reasons.is_empty() {
            Self { stage: stage.to_owned(), degraded: false, reason: None }
        } else {
            iotax_obs::counter!("core.stages_degraded").incr(1);
            Self { stage: stage.to_owned(), degraded: true, reason: Some(reasons.join("; ")) }
        }
    }
}

/// One scalar a pipeline stage measured, keyed by stage span name — the
/// flat form persisted into run ledgers and compared by `iotax-report`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageMetric {
    /// Stage span name (`core.baseline`, …) or `attribution` for the
    /// final Fig. 7 shares.
    pub stage: String,
    /// Metric name within the stage.
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

/// Everything the pipeline measured.
#[derive(Debug, Serialize)]
pub struct TaxonomyReport {
    /// Run-ledger id when the invocation wrote one (`--ledger`), else None.
    pub run_id: Option<String>,
    /// Which system preset was analyzed.
    pub system: SystemKind,
    /// Jobs analyzed.
    pub n_jobs: usize,
    /// Baseline model median absolute test error, percent.
    pub baseline_median_error_pct: f64,
    /// Tuned model (after grid search) median absolute test error, percent.
    pub tuned_median_error_pct: f64,
    /// The winning grid-search parameters.
    pub tuned_params: GbmParams,
    /// §VI duplicate litmus.
    pub app_bound: AppBound,
    /// §VII golden-model litmus.
    pub system_litmus: SystemLitmus,
    /// §VIII OoD litmus (on the test split).
    pub ood: OodSummary,
    /// §IX concurrent-duplicate noise floor (None when too few
    /// simultaneous duplicates exist).
    pub noise: Option<NoiseFloor>,
    /// The Fig. 7 attribution.
    pub breakdown: ErrorBreakdown,
    /// Per-stage health: which stages ran on degraded inputs and why
    /// (missing MPI-IO telemetry, too few duplicate clusters, ...). One
    /// entry per stage, in pipeline order.
    pub stages: Vec<StageHealth>,
    /// Flat per-stage scalar snapshot, in pipeline order — the numbers
    /// `iotax-report diff`/`gate` compare across runs.
    pub stage_metrics: Vec<StageMetric>,
    /// Per-stage span trees captured while the pipeline ran (the
    /// `core.*` stages, with any nested `ml.*`/`uq.*` spans inside).
    pub timings: Vec<SpanNode>,
    /// Peak heap bytes per `core.*` stage span, largest first, from the
    /// heap-accounting allocator. Informational: populated only when
    /// heap tracking is on (`--ledger` runs turn it on), scheduling-
    /// dependent, and never compared by `iotax-report diff`/`gate`.
    pub stage_peak_heap: Vec<(String, u64)>,
}

impl TaxonomyReport {
    /// The stages that ran degraded (empty on a healthy run).
    pub(crate) fn degraded_stages(&self) -> Vec<&StageHealth> {
        self.stages.iter().filter(|s| s.degraded).collect()
    }

    /// Stamps the run-ledger id onto the report.
    pub fn with_run_id(mut self, run_id: impl Into<String>) -> Self {
        self.run_id = Some(run_id.into());
        self
    }
}

/// Serializable slice of the OoD litmus (the raw predictions stay out of
/// reports).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
// audit:allow(dead-public-api) -- type of TaxonomyReport's public `ood` field; iotax-analyze renders the report
pub struct OodSummary {
    /// EU-std threshold used.
    pub eu_threshold: f64,
    /// Fraction of test jobs flagged OoD.
    pub ood_fraction: f64,
    /// Fraction of test error carried by OoD jobs.
    pub ood_error_share: f64,
    /// Mean OoD error over mean ID error.
    pub error_amplification: f64,
    /// Median aleatory std on the test split.
    pub median_aleatory_std: f64,
    /// Median epistemic std on the test split.
    pub median_epistemic_std: f64,
}

impl From<&OodLitmus> for OodSummary {
    fn from(o: &OodLitmus) -> Self {
        Self {
            eu_threshold: o.eu_threshold,
            ood_fraction: o.ood_fraction,
            ood_error_share: o.ood_error_share,
            error_amplification: o.error_amplification,
            median_aleatory_std: o.median_aleatory_std,
            median_epistemic_std: o.median_epistemic_std,
        }
    }
}

/// Δt tolerance for "simultaneous" duplicates, seconds.
const CONCURRENCY_TOLERANCE: i64 = 1;
/// Minimum duplicate clusters before the application bound is considered
/// trustworthy; fewer marks the stage degraded.
const MIN_DUPLICATE_SETS: usize = 3;
/// Minimum test-split rows before OoD attribution is considered
/// trustworthy; fewer marks the stage degraded.
const MIN_TEST_ROWS: usize = 30;

/// The configurable pipeline.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    /// Model sizes for the litmus fits.
    pub effort: Effort,
    /// OoD litmus configuration.
    pub ood: OodConfig,
    /// Grid-search axes (n_trees × depth; subsample/colsample fixed at the
    /// winner of a coarse sweep to keep run time sane).
    pub grid_trees: Vec<usize>,
    /// Grid-search depth axis.
    pub grid_depths: Vec<usize>,
    /// Minimum concurrent duplicates for the noise litmus.
    pub min_noise_samples: usize,
    /// Master seed.
    pub seed: u64,
}

impl Taxonomy {
    /// Small models, small grids: seconds-scale on a few thousand jobs.
    pub fn quick() -> Self {
        Self {
            effort: Effort::Quick,
            ood: OodConfig::quick(11),
            grid_trees: vec![40, 120],
            grid_depths: vec![3, 8],
            min_noise_samples: 20,
            seed: 11,
        }
    }

    /// Production-shaped pipeline for the figure harness.
    pub fn full() -> Self {
        Self {
            effort: Effort::Full,
            ood: OodConfig::quick(13),
            grid_trees: vec![32, 64, 128],
            grid_depths: vec![3, 6, 9, 15],
            min_noise_samples: 30,
            seed: 13,
        }
    }

    /// Run all five steps on a simulated trace. Thin wrapper over the
    /// staged [`TaxonomyRun`] API; numerically identical to driving the
    /// stages by hand.
    pub fn run(&self, sim: &SimDataset) -> TaxonomyReport {
        TaxonomyRun::with_config(sim, self.clone())
            .baseline()
            .and_then(BaselineStage::app_litmus)
            .and_then(AppLitmusStage::system_litmus)
            .and_then(SystemLitmusStage::ood)
            .and_then(OodStage::noise_floor)
            .map(NoiseFloorStage::finish)
            .expect("taxonomy pipeline")
    }
}

// ---------------------------------------------------------------------------
// The staged pipeline.
// ---------------------------------------------------------------------------

/// Shared inputs threaded through every stage.
struct StageCore<'a> {
    cfg: Taxonomy,
    sim: &'a SimDataset,
    capture: iotax_obs::Capture,
    data: Dataset,
    train: Dataset,
    val: Dataset,
    test: Dataset,
    /// The training fold binned once at baseline time; the baseline fit,
    /// every grid-search candidate, and the tuned refit all train against
    /// this shared context instead of re-quantizing the raw floats.
    prepared: PreparedDataset,
    /// Per-stage health, accumulated as stages run.
    health: Vec<StageHealth>,
}

/// Entry point of the staged pipeline: holds the dataset and config,
/// ready to fit the baseline.
///
/// ```ignore
/// let report = TaxonomyRun::new(&dataset)
///     .baseline()?
///     .app_litmus()?
///     .system_litmus()?
///     .ood()?
///     .noise_floor()?
///     .finish();
/// ```
pub struct TaxonomyRun<'a> {
    cfg: Taxonomy,
    sim: &'a SimDataset,
}

impl<'a> TaxonomyRun<'a> {
    /// Stage a run with the [`Taxonomy::quick`] configuration.
    pub fn new(sim: &'a SimDataset) -> Self {
        Self::with_config(sim, Taxonomy::quick())
    }

    /// Stage a run with an explicit configuration.
    pub(crate) fn with_config(sim: &'a SimDataset, cfg: Taxonomy) -> Self {
        Self { cfg, sim }
    }

    /// Step 1: fit and evaluate the baseline model.
    pub fn baseline(self) -> Result<BaselineStage<'a>> {
        if self.sim.jobs.is_empty() {
            return Err(Error::usage("taxonomy needs a non-empty trace"));
        }
        let capture = iotax_obs::capture();
        let _span = span!("core.baseline");

        // Shared data: POSIX feature matrix, seeded random split. Litmus
        // evaluations measure in-period modeling quality; deployment
        // drift is a separate experiment (Fig. 1(d)) that uses the
        // temporal split. Salvaged traces can carry non-finite values
        // (imputed-to-zero counters still combine into NaN-producing
        // ratios), so the dataset is built through the sanitizing path.
        let m = self.sim.feature_matrix(FeatureSet::posix());
        let (data, sanitize) = Dataset::sanitized(m.data, m.n_rows, m.n_cols, m.y, m.names);
        if data.n_rows == 0 {
            return Err(Error::usage("no job in the trace has a finite throughput target"));
        }
        let mut reasons = Vec::new();
        if !sanitize.is_clean() {
            reasons.push(format!(
                "imputed {} non-finite feature values, dropped {} jobs with non-finite targets",
                sanitize.imputed_features, sanitize.dropped_rows
            ));
        }
        if !self.sim.jobs.iter().any(|j| j.uses_mpiio) {
            reasons.push("no MPI-IO telemetry in trace; POSIX counters only".to_owned());
        }
        let health = vec![StageHealth::from_reasons("core.baseline", reasons)];
        let (train, val, test) = data.split_random(0.70, 0.15, self.cfg.seed ^ 0xA11);

        // Bin the training fold once. Both the baseline parameters and the
        // grid-search candidates use the default bin budget, so one
        // context serves every GBM the pipeline trains.
        let params = self.cfg.effort.baseline_params();
        let prepared = PreparedDataset::fit(&train, params.max_bins);
        let baseline = Trainer::new(&prepared).with_validation(&val).fit(params);
        let test_pred = baseline.predict(&test);
        let baseline_error_log10 = median_abs_error(&test.y, &test_pred);
        let baseline_error_pct = median_abs_error_pct(&test.y, &test_pred);

        Ok(BaselineStage {
            core: StageCore {
                cfg: self.cfg,
                sim: self.sim,
                capture,
                data,
                train,
                val,
                test,
                prepared,
                health,
            },
            baseline_error_log10,
            baseline_error_pct,
        })
    }
}

/// After step 1: the baseline model is fit and scored.
// audit:allow(dead-public-api) -- return type of the public TaxonomyRun::baseline, which iotax-analyze drives
pub struct BaselineStage<'a> {
    core: StageCore<'a>,
    baseline_error_log10: f64,
    /// Baseline median absolute test error, percent.
    pub baseline_error_pct: f64,
}

impl<'a> BaselineStage<'a> {
    /// Step 2: duplicate litmus (application bound) and hyperparameter
    /// search toward it.
    pub fn app_litmus(self) -> Result<AppLitmusStage<'a>> {
        let _span = span!("core.app_litmus");
        let mut core = self.core;

        // Step 2.1: duplicate litmus (whole trace, like the paper), over
        // the jobs stage 1 kept, so the sets index the rows of `data`.
        let dup = find_duplicate_sets(kept(&core.sim.jobs));
        let app_bound = app_modeling_bound(&core.data.y, &dup);
        let mut reasons = Vec::new();
        if dup.n_sets() < MIN_DUPLICATE_SETS {
            reasons.push(format!(
                "only {} duplicate clusters (need {MIN_DUPLICATE_SETS}); application bound \
                 unreliable",
                dup.n_sets()
            ));
        }
        core.health.push(StageHealth::from_reasons("core.app_litmus", reasons));

        // Step 2.2: hyperparameter search toward the bound.
        let grid = {
            let _span = span!("core.grid_search");
            grid_search(
                &core.prepared,
                &core.val,
                &core.cfg.grid_trees,
                &core.cfg.grid_depths,
                &[1.0],
                &[1.0],
                GbmParams { seed: core.cfg.seed, ..Default::default() },
            )
            .map_err(|e| e.wrap("while tuning the app-litmus grid"))?
        };
        let best = grid
            .first()
            .ok_or_else(|| Error::new(ErrorKind::Usage, "grid search axes produced no candidates"))?
            .params;
        let tuned = Trainer::new(&core.prepared).with_validation(&core.val).fit(best);
        let test_pred = tuned.predict(&core.test);
        let tuned_error_log10 = median_abs_error(&core.test.y, &test_pred);
        let tuned_error_pct = median_abs_error_pct(&core.test.y, &test_pred);

        Ok(AppLitmusStage {
            core,
            baseline_error_log10: self.baseline_error_log10,
            baseline_error_pct: self.baseline_error_pct,
            dup,
            app_bound,
            tuned_params: best,
            tuned_error_log10,
            tuned_error_pct,
        })
    }
}

/// After step 2: the application bound is measured and the model tuned.
// audit:allow(dead-public-api) -- return type of the public BaselineStage::app_litmus, which iotax-analyze drives
pub struct AppLitmusStage<'a> {
    core: StageCore<'a>,
    baseline_error_log10: f64,
    /// Baseline median absolute test error, percent.
    pub baseline_error_pct: f64,
    dup: DuplicateSets,
    /// §VI duplicate litmus result.
    pub app_bound: AppBound,
    /// Winning grid-search parameters.
    pub tuned_params: GbmParams,
    tuned_error_log10: f64,
    /// Tuned-model median absolute test error, percent.
    pub tuned_error_pct: f64,
}

impl<'a> AppLitmusStage<'a> {
    /// Step 3: start-time golden model and system-log enrichment.
    pub fn system_litmus(mut self) -> Result<SystemLitmusStage<'a>> {
        let _span = span!("core.system_litmus");
        let sim = self.core.sim;
        let sys = system_litmus(sim, self.core.cfg.effort);
        let mut reasons = Vec::new();
        if sim.config.collect_lmt && !lmt_complete(sim) {
            let missing = sim.jobs.iter().filter(|j| j.lmt.is_none()).count();
            reasons.push(format!(
                "LMT collection enabled but {missing} jobs carry no LMT telemetry; enrichment \
                 skipped"
            ));
        }
        self.core.health.push(StageHealth::from_reasons("core.system_litmus", reasons));
        Ok(SystemLitmusStage { prev: self, sys })
    }
}

/// After step 3: the golden-model litmus has run.
// audit:allow(dead-public-api) -- return type of the public AppLitmusStage::system_litmus, which iotax-analyze drives
pub struct SystemLitmusStage<'a> {
    prev: AppLitmusStage<'a>,
    /// §VII golden-model litmus result.
    pub sys: SystemLitmus,
}

impl<'a> SystemLitmusStage<'a> {
    /// Step 4: ensemble UQ and OoD attribution on the test split, plus
    /// whole-trace OoD flags for the noise stage's exclusion.
    pub fn ood(mut self) -> Result<OodStage<'a>> {
        let _span = span!("core.ood");
        let core = &self.prev.core;
        let ood = ood_litmus(&core.train, &core.test, &core.cfg.ood);
        let all_preds = ood.ensemble.predict_uq_batch(&core.data);
        let exclude = classify_ood(&all_preds, ood.eu_threshold);
        let mut reasons = Vec::new();
        if core.test.n_rows < MIN_TEST_ROWS {
            reasons.push(format!(
                "test split has only {} jobs (need {MIN_TEST_ROWS}); OoD attribution noisy",
                core.test.n_rows
            ));
        }
        self.prev.core.health.push(StageHealth::from_reasons("core.ood", reasons));
        Ok(OodStage { prev: self, ood, exclude })
    }
}

/// After step 4: OoD jobs are identified.
// audit:allow(dead-public-api) -- return type of the public SystemLitmusStage::ood, which iotax-analyze drives
pub struct OodStage<'a> {
    prev: SystemLitmusStage<'a>,
    /// §VIII OoD litmus result (with the trained ensemble).
    pub ood: OodLitmus,
    exclude: Vec<bool>,
}

impl<'a> OodStage<'a> {
    /// Step 5: concurrent-duplicate noise floor, OoD jobs excluded.
    pub fn noise_floor(mut self) -> Result<NoiseFloorStage<'a>> {
        let _span = span!("core.noise_floor");
        let app = &self.prev.prev;
        let core = &app.core;
        // audit:allow(unbounded-corpus-materialization) -- out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
        let starts: Vec<i64> = kept(&core.sim.jobs).map(|j| j.start_time).collect();
        let noise = concurrent_noise_floor(
            &core.data.y,
            &starts,
            &app.dup,
            &self.exclude,
            CONCURRENCY_TOLERANCE,
            core.cfg.min_noise_samples,
        );
        let mut reasons = Vec::new();
        if noise.is_none() {
            reasons.push(format!(
                "fewer than {} concurrent duplicates; noise floor unmeasured",
                core.cfg.min_noise_samples
            ));
        }
        self.prev.prev.core.health.push(StageHealth::from_reasons("core.noise_floor", reasons));
        Ok(NoiseFloorStage { prev: self, noise })
    }
}

/// After step 5: everything is measured; only attribution remains.
// audit:allow(dead-public-api) -- return type of the public OodStage::noise_floor, which iotax-analyze drives
pub struct NoiseFloorStage<'a> {
    prev: OodStage<'a>,
    /// §IX noise floor (None when too few concurrent duplicates exist).
    pub noise: Option<NoiseFloor>,
}

impl NoiseFloorStage<'_> {
    /// Compute the Fig. 7 attribution and assemble the report.
    pub fn finish(self) -> TaxonomyReport {
        let ood_stage = self.prev;
        let sys_stage = ood_stage.prev;
        let app = sys_stage.prev;
        let core = app.core;
        let (sys, ood, noise) = (sys_stage.sys, ood_stage.ood, self.noise);

        let baseline_log10 = app.baseline_error_log10;
        let golden_log10 = sys.golden.test_error_log10;
        let share = |x: f64| if baseline_log10 > 0.0 { x / baseline_log10 } else { 0.0 };
        let app_share = share((baseline_log10 - app.app_bound.median_abs_log10).max(0.0));
        let system_share = share((app.tuned_error_log10 - golden_log10).max(0.0));
        let noise_share = noise.as_ref().map_or(0.0, |n| share(n.median_abs_log10));
        let breakdown = ErrorBreakdown {
            baseline_pct: app.baseline_error_pct,
            app_share,
            app_fixed_share: share((baseline_log10 - app.tuned_error_log10).max(0.0)),
            system_share,
            system_fixed_share: sys
                .lmt_enriched
                .as_ref()
                .map(|l| share((app.tuned_error_log10 - l.test_error_log10).max(0.0))),
            ood_share: ood.ood_error_share,
            noise_share,
            unexplained_share: 1.0 - app_share - system_share - ood.ood_error_share - noise_share,
        };

        let mut stage_metrics = vec![
            metric("core.baseline", "baseline_median_error_pct", app.baseline_error_pct),
            metric("core.app_litmus", "app_bound_median_abs_pct", app.app_bound.median_abs_pct),
            metric("core.app_litmus", "tuned_median_error_pct", app.tuned_error_pct),
            metric("core.system_litmus", "golden_test_error_pct", sys.golden.test_error_pct),
        ];
        if let Some(lmt) = &sys.lmt_enriched {
            stage_metrics.push(metric(
                "core.system_litmus",
                "lmt_test_error_pct",
                lmt.test_error_pct,
            ));
        }
        stage_metrics.push(metric("core.ood", "ood_fraction", ood.ood_fraction));
        stage_metrics.push(metric("core.ood", "ood_error_share", ood.ood_error_share));
        if let Some(n) = &noise {
            stage_metrics.push(metric("core.noise_floor", "median_abs_pct", n.median_abs_pct));
        }
        for (name, value) in [
            ("app_share", breakdown.app_share),
            ("system_share", breakdown.system_share),
            ("ood_share", breakdown.ood_share),
            ("noise_share", breakdown.noise_share),
            ("unexplained_share", breakdown.unexplained_share),
        ] {
            stage_metrics.push(metric("attribution", name, value));
        }

        TaxonomyReport {
            run_id: None,
            system: core.sim.config.system,
            n_jobs: core.sim.jobs.len(),
            baseline_median_error_pct: app.baseline_error_pct,
            tuned_median_error_pct: app.tuned_error_pct,
            tuned_params: app.tuned_params,
            app_bound: app.app_bound,
            system_litmus: sys,
            ood: OodSummary::from(&ood),
            noise,
            breakdown,
            stages: core.health,
            stage_metrics,
            timings: core.capture.finish(),
            stage_peak_heap: iotax_obs::heap_slot_peaks()
                .into_iter()
                .filter(|(name, _)| name.starts_with("core."))
                .collect(),
        }
    }
}

/// The jobs stage 1 kept, in trace order: [`Dataset::sanitized`] drops
/// the rows whose target, log10 throughput, is not finite. The whole-trace
/// litmus stages read these, so their rows line up with `data`'s.
fn kept(jobs: &[SimJob]) -> impl Iterator<Item = &SimJob> {
    jobs.iter().filter(|j| j.log10_throughput().is_finite())
}

/// Shorthand for one [`StageMetric`].
fn metric(stage: &str, name: &str, value: f64) -> StageMetric {
    StageMetric { stage: stage.to_owned(), metric: name.to_owned(), value }
}

impl TaxonomyReport {
    /// Render a human-readable report (the textual Fig. 7).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write into a String is infallible"
        )]
        let _ = self.render_text_into(&mut s);
        s
    }

    fn render_text_into(&self, s: &mut String) -> std::fmt::Result {
        use std::fmt::Write;
        writeln!(s, "I/O error taxonomy — {:?}, {} jobs", self.system, self.n_jobs)?;
        writeln!(s, "────────────────────────────────────────────────────")?;
        writeln!(
            s,
            "step 1  baseline model error          {:>7.2} % (median |log10 ratio|)",
            self.baseline_median_error_pct
        )?;
        writeln!(
            s,
            "step 2.1 application bound (dups)     {:>7.2} %  [{} dups / {} sets, {:.1} % of jobs]",
            self.app_bound.median_abs_pct,
            self.app_bound.n_duplicates,
            self.app_bound.n_sets,
            self.app_bound.duplicate_fraction * 100.0
        )?;
        writeln!(
            s,
            "step 2.2 tuned model error            {:>7.2} %  [best: {} trees, depth {}]",
            self.tuned_median_error_pct, self.tuned_params.n_trees, self.tuned_params.max_depth
        )?;
        writeln!(
            s,
            "step 3.1 golden (+start time) error   {:>7.2} %  [{:+.1} % vs baseline]",
            self.system_litmus.golden.test_error_pct, -self.system_litmus.golden_reduction_pct
        )?;
        if let Some(lmt) = &self.system_litmus.lmt_enriched {
            writeln!(s, "step 3.2 LMT-enriched error           {:>7.2} %", lmt.test_error_pct)?;
        }
        writeln!(
            s,
            "step 4  OoD: {:.2} % of jobs carry {:.2} % of error ({:.1}× amplification)",
            self.ood.ood_fraction * 100.0,
            self.ood.ood_error_share * 100.0,
            self.ood.error_amplification
        )?;
        match &self.noise {
            Some(n) => {
                writeln!(
                    s,
                    "step 5  noise floor                   {:>7.2} %  [±{:.2} % @68 %, ±{:.2} % @95 %; t(ν={:.1}) preferred: {}]",
                    n.median_abs_pct, n.pct_68, n.pct_95, n.t_df, n.t_preferred
                )?;
            }
            None => {
                writeln!(s, "step 5  noise floor: not enough concurrent duplicates")?;
            }
        }
        let b = &self.breakdown;
        writeln!(s, "── error attribution (fractions of baseline) ──────")?;
        writeln!(
            s,
            "application {:>5.1} %   system {:>5.1} %   OoD {:>5.1} %   noise+contention {:>5.1} %   unexplained {:>5.1} %",
            b.app_share * 100.0,
            b.system_share * 100.0,
            b.ood_share * 100.0,
            b.noise_share * 100.0,
            b.unexplained_share * 100.0
        )?;
        let degraded = self.degraded_stages();
        if !degraded.is_empty() {
            writeln!(s, "── degraded stages ────────────────────────────────")?;
            for st in degraded {
                writeln!(s, "{}: {}", st.stage, st.reason.as_deref().unwrap_or("(no reason)"))?;
            }
        }
        if !self.stage_peak_heap.is_empty() {
            writeln!(s, "── peak heap per stage (informational) ────────────")?;
            for (stage, bytes) in &self.stage_peak_heap {
                writeln!(s, "{stage:<24} {:>8.1} MiB", *bytes as f64 / (1024.0 * 1024.0))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_sim::{Platform, SimConfig};

    #[test]
    fn quick_pipeline_produces_consistent_report() {
        let sim = Platform::new(SimConfig::theta().with_jobs(3_000).with_seed(41)).generate();
        let report = Taxonomy::quick().run(&sim);
        assert_eq!(report.n_jobs, 3_000);
        assert!(report.baseline_median_error_pct > 0.0);
        // Tuning never loses to the baseline by much (same family, bigger grid).
        assert!(report.tuned_median_error_pct <= report.baseline_median_error_pct * 1.25 + 1.0);
        // The duplicate bound lower-bounds the tuned model (within litmus
        // tolerance — the paper finds the same ordering).
        assert!(report.app_bound.median_abs_pct <= report.tuned_median_error_pct * 1.5 + 2.0);
        // Shares are sane.
        let b = &report.breakdown;
        for share in [b.app_share, b.system_share, b.ood_share, b.noise_share] {
            assert!((0.0..=1.5).contains(&share), "share {share}");
        }
        let text = report.render_text();
        assert!(text.contains("step 5"));
        assert!(text.contains("error attribution"));
        // The flat metric snapshot covers the headline numbers and the
        // attribution shares, and matches the structured fields exactly.
        assert!(report.run_id.is_none(), "run id only set by --ledger invocations");
        let find = |stage: &str, metric: &str| {
            report
                .stage_metrics
                .iter()
                .find(|m| m.stage == stage && m.metric == metric)
                .unwrap_or_else(|| panic!("missing stage metric {stage}/{metric}"))
                .value
        };
        assert_eq!(
            find("core.baseline", "baseline_median_error_pct"),
            report.baseline_median_error_pct
        );
        assert_eq!(
            find("core.app_litmus", "tuned_median_error_pct"),
            report.tuned_median_error_pct
        );
        assert_eq!(find("attribution", "unexplained_share"), b.unexplained_share);
    }

    #[test]
    fn report_serializes_to_json() {
        let sim = Platform::new(SimConfig::theta().with_jobs(1_500).with_seed(42)).generate();
        let report = Taxonomy::quick().run(&sim);
        let json = serde_json::to_string(&report).expect("serializable");
        assert!(json.contains("baseline_median_error_pct"));
        assert!(json.contains("timings"));
    }

    #[test]
    fn staged_api_matches_one_shot_run() {
        let sim = Platform::new(SimConfig::theta().with_jobs(1_500).with_seed(43)).generate();
        let one_shot = Taxonomy::quick().run(&sim);
        let staged = TaxonomyRun::new(&sim)
            .baseline()
            .expect("baseline")
            .app_litmus()
            .expect("app litmus")
            .system_litmus()
            .expect("system litmus")
            .ood()
            .expect("ood")
            .noise_floor()
            .expect("noise floor")
            .finish();
        // Same code, same seeds — every number must agree exactly.
        assert_eq!(one_shot.baseline_median_error_pct, staged.baseline_median_error_pct);
        assert_eq!(one_shot.tuned_median_error_pct, staged.tuned_median_error_pct);
        assert_eq!(one_shot.tuned_params, staged.tuned_params);
        assert_eq!(one_shot.app_bound.median_abs_log10, staged.app_bound.median_abs_log10);
        assert_eq!(one_shot.breakdown, staged.breakdown);
        assert_eq!(one_shot.noise.map(|n| n.sigma_log10), staged.noise.map(|n| n.sigma_log10));
    }

    #[test]
    fn run_captures_all_five_stage_spans() {
        let sim = Platform::new(SimConfig::theta().with_jobs(1_200).with_seed(44)).generate();
        let report = Taxonomy::quick().run(&sim);
        let names: Vec<&str> = report.timings.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "core.baseline",
                "core.app_litmus",
                "core.system_litmus",
                "core.ood",
                "core.noise_floor"
            ]
        );
        // The grid search nests inside step 2 and dominates its time.
        let app = &report.timings[1];
        assert!(app.children.iter().any(|c| c.name == "core.grid_search"));
        assert!(app.total_us("core.grid_search") <= app.duration_us);
        // Stages open in order: start times are monotone.
        assert!(report.timings.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }

    #[test]
    fn every_stage_reports_health_in_order() {
        let sim = Platform::new(SimConfig::theta().with_jobs(1_500).with_seed(46)).generate();
        let report = Taxonomy::quick().run(&sim);
        let names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "core.baseline",
                "core.app_litmus",
                "core.system_litmus",
                "core.ood",
                "core.noise_floor"
            ]
        );
        // A clean simulated trace degrades nothing structural: features
        // are finite, MPI-IO exists, duplicates abound.
        for st in &report.stages[..3] {
            assert!(!st.degraded, "{}: {:?}", st.stage, st.reason);
            assert!(st.reason.is_none());
        }
    }

    #[test]
    fn posix_only_trace_degrades_baseline_instead_of_erroring() {
        let mut sim = Platform::new(SimConfig::theta().with_jobs(1_200).with_seed(47)).generate();
        for job in &mut sim.jobs {
            job.uses_mpiio = false;
            job.mpiio.iter_mut().for_each(|v| *v = 0.0);
        }
        let report = Taxonomy::quick().run(&sim);
        let baseline = &report.stages[0];
        assert!(baseline.degraded, "POSIX-only trace must degrade the baseline stage");
        assert!(baseline.reason.as_ref().unwrap().contains("MPI-IO"), "{:?}", baseline.reason);
        assert!(report.baseline_median_error_pct > 0.0, "numbers still produced");
        assert!(report.render_text().contains("degraded stages"));
    }

    /// Every Fig. 7 share of `report` is a finite number.
    fn assert_shares_finite(report: &TaxonomyReport) {
        let b = &report.breakdown;
        let shares = [
            b.app_share,
            b.app_fixed_share,
            b.system_share,
            b.ood_share,
            b.noise_share,
            b.unexplained_share,
        ];
        assert!(shares.iter().chain(&b.system_fixed_share).all(|s| s.is_finite()), "{b:?}");
    }

    #[test]
    fn nan_feature_is_imputed_for_every_stage() {
        let mut sim = Platform::new(SimConfig::theta().with_jobs(1_500).with_seed(7)).generate();
        sim.jobs[10].posix[3] = f64::NAN;
        let report = Taxonomy::quick().run(&sim);
        let baseline = &report.stages[0];
        let reason = baseline.reason.as_deref().unwrap_or_default();
        assert!(reason.contains("imputed 1 non-finite feature values"), "{reason}");
        assert_eq!(report.n_jobs, 1_500);
        assert_shares_finite(&report);
    }

    #[test]
    fn dropped_jobs_leave_every_stage_on_the_kept_rows() {
        let mut sim = Platform::new(SimConfig::theta().with_jobs(1_500).with_seed(7)).generate();
        // One member of a duplicate set that outlives it, and one job
        // outside every set.
        let dup = find_duplicate_sets(&sim.jobs);
        let member = dup.sets.iter().find(|set| set.len() > 2).expect("a set of three")[0];
        let loner = dup.set_of.iter().position(Option::is_none).expect("a job outside any set");
        sim.jobs[member].throughput = 0.0;
        sim.jobs[loner].throughput = 0.0;
        let report = Taxonomy::quick().run(&sim);
        let baseline = &report.stages[0];
        let reason = baseline.reason.as_deref().unwrap_or_default();
        assert!(reason.contains("dropped 2 jobs with non-finite targets"), "{reason}");
        assert_eq!(report.app_bound.n_duplicates + 1, dup.n_duplicates(), "member left its set");
        assert!(report.app_bound.median_abs_pct.is_finite());
        assert_shares_finite(&report);
    }

    #[test]
    fn cori_job_without_lmt_skips_enrichment() {
        let mut sim = Platform::new(SimConfig::cori().with_jobs(1_500).with_seed(7)).generate();
        sim.jobs[10].lmt = None;
        let report = Taxonomy::quick().run(&sim);
        assert_eq!(report.system_litmus.lmt_enriched, None);
        let system = &report.stages[2];
        assert!(system.degraded, "a job without LMT must degrade the system litmus");
        let reason = system.reason.as_deref().unwrap_or_default();
        assert!(reason.contains("1 jobs carry no LMT telemetry; enrichment skipped"), "{reason}");
    }

    #[test]
    fn duplicate_free_trace_degrades_app_litmus() {
        let mut sim = Platform::new(SimConfig::theta().with_jobs(800).with_seed(48)).generate();
        // Perturb one counter per job so every observable signature is
        // unique: the duplicate litmus has nothing to work with.
        for (i, job) in sim.jobs.iter_mut().enumerate() {
            job.posix[0] += 1.0 + i as f64;
            job.config_id = i as u64;
        }
        let report = Taxonomy::quick().run(&sim);
        let app = &report.stages[1];
        assert!(app.degraded, "no duplicates must degrade the app litmus");
        assert!(app.reason.as_ref().unwrap().contains("duplicate clusters"), "{:?}", app.reason);
        // And with no duplicate sets the noise floor cannot exist either.
        let noise = &report.stages[4];
        assert!(noise.degraded);
        assert!(report.noise.is_none());
    }

    #[test]
    fn stage_health_serializes_into_report_json() {
        let sim = Platform::new(SimConfig::theta().with_jobs(1_000).with_seed(49)).generate();
        let report = Taxonomy::quick().run(&sim);
        let json = serde_json::to_string(&report).expect("serializable");
        assert!(json.contains("\"stages\""));
        assert!(json.contains("core.noise_floor"));
        assert!(json.contains("\"degraded\""));
    }

    #[test]
    fn stage_peak_heap_populates_under_heap_accounting() {
        iotax_obs::install_heap_accounting();
        let sim = Platform::new(SimConfig::theta().with_jobs(1_000).with_seed(50)).generate();
        let report = Taxonomy::quick().run(&sim);
        assert!(
            report.stage_peak_heap.iter().any(|(stage, _)| stage == "core.baseline"),
            "baseline stage must own heap: {:?}",
            report.stage_peak_heap
        );
        assert!(report.stage_peak_heap.iter().all(|(s, b)| s.starts_with("core.") && *b > 0));
        assert!(
            report.stage_peak_heap.windows(2).all(|w| w[0].1 >= w[1].1),
            "largest first: {:?}",
            report.stage_peak_heap
        );
    }

    #[test]
    fn empty_trace_is_a_usage_error() {
        let sim = Platform::new(SimConfig::theta().with_jobs(100).with_seed(45)).generate();
        let empty = iotax_sim::SimDataset {
            config: sim.config.clone(),
            jobs: Vec::new(),
            weather: sim.weather.clone(),
            lmt: sim.lmt.clone(),
        };
        let err = TaxonomyRun::new(&empty).baseline().map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), iotax_obs::ErrorKind::Usage);
    }
}
