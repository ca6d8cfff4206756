//! Simulation configuration and system presets.

use serde::{Deserialize, Serialize};

/// Which leadership-class system a preset models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// ALCF Theta: Darshan + Cobalt logs, no LMT; ~100 K jobs over 2017-2020.
    Theta,
    /// NERSC Cori: Darshan + LMT logs, no Cobalt; ~1.1 M jobs over 2018-2019.
    Cori,
}

/// Full configuration of the data-generating process.
///
/// The presets are *calibrated to the paper's measured shapes*, not to its
/// hardware: Theta is the quieter system (±5.71 % one-sigma I/O noise,
/// 23.5 % duplicate jobs), Cori the noisier, duplicate-heavy one (±7.21 %,
/// 54 % duplicates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Which system this models (controls which logs exist).
    pub system: SystemKind,
    /// Master seed; every derived stream comes from this.
    pub seed: u64,
    /// Number of jobs to generate.
    pub n_jobs: usize,
    /// Trace horizon in seconds.
    pub horizon_seconds: i64,
    /// Number of distinct applications in the population.
    pub n_apps: usize,
    /// Probability that a new job reuses an existing config of its app
    /// (creates duplicate sets; calibrates the duplicate fraction).
    pub p_reuse_config: f64,
    /// Probability that a duplicate submission arrives as a simultaneous
    /// batch (creates the Δt = 0 concurrent-duplicate population of §IX).
    pub p_batch: f64,
    /// Mean batch size minus two (batch size = 2 + Geometric(mean)).
    pub batch_extra_mean: f64,
    /// Fraction of apps that only appear in the last `novel_era_fraction`
    /// of the timeline (drives deployment-time OoD error, §VIII).
    pub novel_app_fraction: f64,
    /// Tail fraction of the timeline where novel apps live.
    pub novel_era_fraction: f64,
    /// Fraction of apps that are "rare": one-or-two-run apps with widened
    /// parameter distributions (in-period OoD jobs).
    pub rare_app_fraction: f64,
    /// One-sigma inherent I/O noise in log10 space (±5.71 % ⇒ ~0.0241).
    pub noise_sigma_log10: f64,
    /// System peak aggregate I/O bandwidth, bytes/s.
    pub peak_bandwidth: f64,
    /// Machine size in nodes.
    pub total_nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Number of object storage servers (LMT).
    pub n_oss: usize,
    /// Object storage targets per OSS.
    pub osts_per_oss: usize,
    /// Contention/telemetry bucket length in seconds.
    pub bucket_seconds: i64,
    /// Global contention strength multiplier.
    pub contention_strength: f64,
    /// Reference external load (bytes/s per OST) at which contention starts
    /// to bite; calibrated so the simulated ζ_l spread matches production
    /// shapes rather than raw hardware capacity.
    pub contention_reference: f64,
    /// Expected number of service-degradation incidents per year.
    pub incidents_per_year: f64,
    /// Whether LMT telemetry is collected (Cori yes, Theta no).
    pub collect_lmt: bool,
    /// Whether Cobalt scheduler logs are collected (Theta yes, Cori no).
    pub collect_cobalt: bool,
}

const YEAR: i64 = 365 * 24 * 3600;

impl SimConfig {
    /// Theta-like preset. Scale with [`SimConfig::with_jobs`]; the paper's
    /// trace has ~100 K jobs over three years.
    pub fn theta() -> Self {
        Self {
            system: SystemKind::Theta,
            seed: 0xA1CF,
            n_jobs: 100_000,
            horizon_seconds: 3 * YEAR,
            n_apps: 400,
            p_reuse_config: 0.08,
            p_batch: 0.12,
            batch_extra_mean: 1.2,
            novel_app_fraction: 0.06,
            novel_era_fraction: 0.15,
            rare_app_fraction: 0.04,
            // ±5.71 % one-sigma ⇒ log10(1.0571) ≈ 0.02412.
            noise_sigma_log10: 0.02412,
            peak_bandwidth: 200e9,
            total_nodes: 4392,
            cores_per_node: 64,
            n_oss: 8,
            osts_per_oss: 4,
            bucket_seconds: 600,
            contention_strength: 1.0,
            contention_reference: 1.2e8,
            incidents_per_year: 9.0,
            collect_lmt: false,
            collect_cobalt: true,
        }
    }

    /// Cori-like preset. The paper's trace has ~1.1 M jobs over two years;
    /// scale with [`SimConfig::with_jobs`].
    pub fn cori() -> Self {
        Self {
            system: SystemKind::Cori,
            seed: 0xC0B1,
            n_jobs: 1_100_000,
            horizon_seconds: 2 * YEAR,
            n_apps: 700,
            // Cori's duplicate fraction is 54 % vs Theta's 23.5 %.
            p_reuse_config: 0.27,
            p_batch: 0.18,
            batch_extra_mean: 1.6,
            novel_app_fraction: 0.05,
            novel_era_fraction: 0.15,
            rare_app_fraction: 0.04,
            // ±7.21 % one-sigma ⇒ log10(1.0721) ≈ 0.03023.
            noise_sigma_log10: 0.03023,
            peak_bandwidth: 700e9,
            total_nodes: 9688,
            cores_per_node: 32,
            n_oss: 12,
            osts_per_oss: 4,
            bucket_seconds: 600,
            contention_strength: 1.3,
            // Cori runs ~16x Theta's job density; the reference scales with
            // ambient load so the ζ_l spread stays in the production band.
            contention_reference: 1.0e9,
            incidents_per_year: 12.0,
            collect_lmt: true,
            collect_cobalt: false,
        }
    }

    /// Override the job count. The horizon scales proportionally so the
    /// workload *density* (jobs per unit time — what drives contention)
    /// stays at the preset's production level.
    pub fn with_jobs(mut self, n_jobs: usize) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`as` saturates and rounds toward zero, which the pinned traces encode"
        )]
        let scaled = (self.horizon_seconds as f64 * n_jobs as f64 / self.n_jobs as f64) as i64;
        // Floor of 30 days: below that the minimum weather structure
        // (epochs, incidents) would dominate every litmus estimate.
        self.horizon_seconds = scaled.max(30 * 86_400);
        self.n_jobs = n_jobs;
        self
    }

    /// Override the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of OSTs.
    pub(crate) fn n_osts(&self) -> usize {
        self.n_oss * self.osts_per_oss
    }

    /// Per-OST share of peak bandwidth, bytes/s.
    pub(crate) fn ost_capacity(&self) -> f64 {
        self.peak_bandwidth / self.n_osts() as f64
    }

    /// Validate invariants; panics with a message on misconfiguration.
    pub(crate) fn validate(&self) {
        assert!(self.n_jobs > 0, "n_jobs must be positive");
        assert!(self.horizon_seconds > 3600, "horizon too short");
        assert!(self.n_apps > 0, "need at least one app");
        assert!((0.0..1.0).contains(&self.p_reuse_config));
        assert!((0.0..1.0).contains(&self.p_batch));
        assert!((0.0..0.5).contains(&self.novel_app_fraction));
        assert!((0.0..0.9).contains(&self.novel_era_fraction));
        assert!(self.noise_sigma_log10 > 0.0);
        assert!(self.peak_bandwidth > 0.0);
        assert!(self.total_nodes > 0 && self.cores_per_node > 0);
        assert!(self.n_oss > 0 && self.osts_per_oss > 0);
        assert!(self.bucket_seconds >= 60);
        assert!(self.contention_reference > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::theta().validate();
        SimConfig::cori().validate();
    }

    #[test]
    fn builders_override() {
        let c = SimConfig::theta().with_jobs(123).with_seed(9);
        assert_eq!(c.n_jobs, 123);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn noise_presets_match_paper_percentages() {
        // log10(1 + 5.71 %) and log10(1 + 7.21 %).
        assert!((SimConfig::theta().noise_sigma_log10 - (1.0571f64).log10()).abs() < 1e-4);
        assert!((SimConfig::cori().noise_sigma_log10 - (1.0721f64).log10()).abs() < 1e-4);
    }

    #[test]
    fn derived_quantities() {
        let c = SimConfig::theta();
        assert_eq!(c.n_osts(), 32);
        assert!((c.ost_capacity() - 200e9 / 32.0).abs() < 1.0);
    }

    #[test]
    fn cori_is_noisier_and_more_duplicated_than_theta() {
        let t = SimConfig::theta();
        let c = SimConfig::cori();
        assert!(c.noise_sigma_log10 > t.noise_sigma_log10);
        assert!(c.p_reuse_config > t.p_reuse_config);
        assert!(c.collect_lmt && !t.collect_lmt);
        assert!(t.collect_cobalt && !c.collect_cobalt);
    }
}
