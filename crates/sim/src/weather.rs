//! Global system state over time — the "I/O weather" ζ_g(t).
//!
//! §VII separates the *global* system impact (hits every job, expressible as
//! a pure function of time) from local contention. The weather model has
//! three layers, mirroring the climate/weather decomposition of UMAMI \[22\]:
//!
//! * **provisioning epochs** — step changes from hardware/software changes,
//! * **seasonal drift** — slow sinusoidal capacity variation,
//! * **incidents** — Poisson-arriving service degradations lasting hours to
//!   weeks with multiplicative severity.
//!
//! `factor(t)` is what multiplies every job's throughput; the golden model
//! of the §VII litmus test can learn it from the start-time feature alone.

use iotax_stats::dist::{LogNormal, Uniform};
use rand::Rng;
use serde::{Deserialize, Serialize};

const YEAR_SECONDS: f64 = 365.0 * 24.0 * 3600.0;

/// A service degradation interval with multiplicative severity < 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Incident {
    /// Start time, seconds.
    pub start: i64,
    /// Duration, seconds.
    pub duration: i64,
    /// Throughput multiplier during the incident, in (0, 1).
    pub severity: f64,
}

impl Incident {
    /// End time (exclusive).
    pub(crate) fn end(&self) -> i64 {
        self.start + self.duration
    }

    /// Whether the incident covers time `t`.
    pub(crate) fn covers(&self, t: i64) -> bool {
        self.start <= t && t < self.end()
    }
}

/// A provisioning epoch starting at `start` with capacity `level`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Epoch {
    /// Epoch start, seconds.
    pub start: i64,
    /// Capacity multiplier relative to nominal (≈ 0.85 … 1.10).
    pub level: f64,
}

/// The full weather model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weather {
    epochs: Vec<Epoch>,
    incidents: Vec<Incident>,
    seasonal_amplitude: f64,
    seasonal_phase: f64,
    horizon: i64,
}

impl Weather {
    /// Generate a weather timeline.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, horizon: i64, incidents_per_year: f64) -> Self {
        assert!(horizon > 0);
        // Provisioning epochs: one per ~9 months, but at least four per
        // trace so scaled-down horizons keep the global-weather structure
        // the §VII litmus test measures.
        let n_epochs =
            iotax_stats::cast::f64_to_usize((horizon as f64 / (0.75 * YEAR_SECONDS)).ceil()).max(4);
        let level_dist = Uniform::new(0.85, 1.10);
        let mut epochs = Vec::with_capacity(n_epochs);
        for i in 0..n_epochs {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a fraction of the i64 horizon; `as` rounds toward zero, which the pinned traces encode"
            )]
            let start = (horizon as f64 * i as f64 / n_epochs as f64) as i64;
            epochs.push(Epoch { start, level: level_dist.sample(rng) });
        }
        // Incidents: Poisson in count, log-normal in duration (median ~8 h,
        // heavy right tail up to weeks), uniform severity.
        let expected = (incidents_per_year * horizon as f64 / YEAR_SECONDS).max(5.0);
        let n_incidents = sample_poisson(rng, expected);
        // Scale incident durations down with very short traces so a single
        // storm cannot blanket the whole horizon.
        let max_duration = (horizon / 8).clamp(3_600, 21 * 86_400);
        let dur_dist = LogNormal::new((8.0 * 3600.0f64).ln(), 1.1);
        let sev_dist = Uniform::new(0.35, 0.9);
        let start_dist = Uniform::new(0.0, horizon as f64);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "samples within the i64 horizon and a clamped duration; `as` rounds toward zero, which the pinned traces encode"
        )]
        let mut incidents: Vec<Incident> = (0..n_incidents)
            .map(|_| Incident {
                start: start_dist.sample(rng) as i64,
                duration: (dur_dist.sample(rng) as i64).clamp(600, max_duration),
                severity: sev_dist.sample(rng),
            })
            .collect();
        incidents.sort_by_key(|i| i.start);
        Self {
            epochs,
            incidents,
            seasonal_amplitude: Uniform::new(0.01, 0.04).sample(rng),
            seasonal_phase: Uniform::new(0.0, std::f64::consts::TAU).sample(rng),
            horizon,
        }
    }

    /// A flat weather model (factor ≡ 1), the tests' calm baseline.
    #[cfg(test)]
    pub(crate) fn flat(horizon: i64) -> Self {
        Self {
            epochs: vec![Epoch { start: 0, level: 1.0 }],
            incidents: Vec::new(),
            seasonal_amplitude: 0.0,
            seasonal_phase: 0.0,
            horizon,
        }
    }

    /// The degradation incidents.
    #[cfg(test)]
    pub(crate) fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Trace horizon in seconds.
    pub fn horizon(&self) -> i64 {
        self.horizon
    }

    fn epoch_level(&self, t: i64) -> f64 {
        match self.epochs.binary_search_by_key(&t, |e| e.start) {
            Ok(i) => self.epochs[i].level,
            Err(0) => self.epochs.first().map_or(1.0, |e| e.level),
            Err(i) => self.epochs[i - 1].level,
        }
    }

    fn incident_multiplier(&self, t: i64) -> f64 {
        // Overlapping incidents compound by taking the worst severity.
        // Incidents are sorted by start; scan the window that could cover t.
        let upper = self.incidents.partition_point(|i| i.start <= t);
        self.incidents[..upper]
            .iter()
            .rev()
            // Durations are capped at 21 days, so anything starting earlier
            // than that cannot cover t.
            .take_while(|i| t - i.start <= 21 * 86_400)
            .filter(|i| i.covers(t))
            .map(|i| i.severity)
            .fold(1.0, f64::min)
    }

    fn seasonal(&self, t: i64) -> f64 {
        1.0 + self.seasonal_amplitude
            * ((t as f64 / YEAR_SECONDS) * std::f64::consts::TAU + self.seasonal_phase).sin()
    }

    /// Global throughput multiplier at time `t` (≈ 0.3 … 1.15).
    pub fn factor(&self, t: i64) -> f64 {
        self.epoch_level(t) * self.incident_multiplier(t) * self.seasonal(t)
    }

    /// `log10` of [`Weather::factor`].
    pub(crate) fn log10_factor(&self, t: i64) -> f64 {
        self.factor(t).log10()
    }

    /// Mean log-factor over a window, sampled at up to 16 interior points —
    /// what a job that runs through part of an incident actually feels.
    pub(crate) fn mean_log10_factor(&self, start: i64, end: i64) -> f64 {
        let end = end.max(start + 1);
        let n = iotax_stats::cast::i64_to_usize(((end - start) / 600).clamp(1, 16));
        let mut acc = 0.0;
        for k in 0..n {
            let t = start + (end - start) * (2 * k as i64 + 1) / (2 * n as i64);
            acc += self.log10_factor(t);
        }
        acc / n as f64
    }
}

/// Poisson sampling via inversion for small λ, normal approximation above.
fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    use rand::RngExt;
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let z = iotax_stats::dist::sample_std_normal(rng);
        iotax_stats::cast::f64_to_usize((lambda + lambda.sqrt() * z).round().max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;

    const YEAR: i64 = 365 * 24 * 3600;

    #[test]
    fn flat_weather_is_identity() {
        let w = Weather::flat(YEAR);
        for t in [0, 1000, YEAR / 2, YEAR - 1] {
            assert!((w.factor(t) - 1.0).abs() < 1e-12);
            assert_eq!(w.log10_factor(t), 0.0);
        }
    }

    #[test]
    fn factor_stays_in_sane_band() {
        let mut rng = rng_from_seed(11);
        let w = Weather::generate(&mut rng, 3 * YEAR, 10.0);
        for k in 0..5000 {
            let t = k * (3 * YEAR) / 5000;
            let f = w.factor(t);
            assert!(f > 0.25 && f < 1.2, "factor {f} at t {t}");
        }
    }

    #[test]
    fn incidents_actually_degrade() {
        let mut rng = rng_from_seed(12);
        let w = Weather::generate(&mut rng, 3 * YEAR, 20.0);
        assert!(!w.incidents().is_empty());
        let inc = w.incidents()[0];
        let mid = inc.start + inc.duration / 2;
        let during = w.factor(mid);
        // Compare against the same instant with incidents stripped.
        let clean = w.epoch_level(mid) * w.seasonal(mid);
        assert!(during <= clean * inc.severity + 1e-9);
    }

    #[test]
    fn incident_count_scales_with_rate() {
        let mut rng = rng_from_seed(13);
        let quiet = Weather::generate(&mut rng, 3 * YEAR, 2.0);
        let stormy = Weather::generate(&mut rng, 3 * YEAR, 40.0);
        assert!(stormy.incidents().len() > quiet.incidents().len());
    }

    #[test]
    fn mean_log_factor_interpolates() {
        let mut rng = rng_from_seed(14);
        let w = Weather::generate(&mut rng, YEAR, 5.0);
        let m = w.mean_log10_factor(1000, 1000 + 3600);
        let lo = (0..16).map(|k| w.log10_factor(1000 + k * 225)).fold(f64::INFINITY, f64::min);
        let hi = (0..16).map(|k| w.log10_factor(1000 + k * 225)).fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Weather::generate(&mut rng_from_seed(15), YEAR, 8.0);
        let b = Weather::generate(&mut rng_from_seed(15), YEAR, 8.0);
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = rng_from_seed(16);
        let n = 2000;
        let total: usize = (0..n).map(|_| sample_poisson(&mut rng, 7.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 7.0).abs() < 0.25, "mean {mean}");
        let total: usize = (0..n).map(|_| sample_poisson(&mut rng, 100.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1.5, "mean {mean}");
    }
}
