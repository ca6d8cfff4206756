//! Local system impact ζ_l(t, j): OST striping and load-dependent contention.
//!
//! Each job stripes its I/O across a subset of OSTs (wider for bigger
//! jobs); jobs whose stripes overlap in time *and* OSTs slow each other
//! down. The factor a job feels depends on the external offered load on its
//! OSTs during its window and on its archetype's contention sensitivity —
//! which is why identical runs of different applications spread differently
//! (Fig. 1(b)) even under the same system state.
//!
//! Implementation: the timeline is discretized into buckets; pass 1
//! deposits every job's offered rate onto its OSTs' buckets; pass 2 reads
//! back the external load per job. Both passes are O(jobs × buckets
//! touched) and the load grid doubles as the telemetry source.

use crate::archetype::JobConfig;
use iotax_stats::rng::splitmix64;

/// The per-OST offered-load grid.
#[derive(Debug, Clone)]
pub(crate) struct LoadGrid {
    bucket_seconds: i64,
    n_buckets: usize,
    n_osts: usize,
    /// Read rate deposits, bytes/s: `read[bucket * n_osts + ost]`.
    read: Vec<f32>,
    /// Write rate deposits, bytes/s.
    write: Vec<f32>,
    /// Metadata op deposits, ops/s per bucket (MDS is shared).
    meta: Vec<f32>,
}

/// A job's stripe assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stripe {
    /// OST indices this job stripes across.
    pub osts: Vec<u16>,
}

/// Deterministic stripe assignment for a job.
///
/// Stripe width grows with volume (≈ one OST per 64 GiB, clamped); OST
/// choice is a deterministic function of the *job* (not the config), so
/// concurrent duplicates land on different OSTs and genuinely contend —
/// the ζ_l difference §IX relies on.
pub(crate) fn assign_stripe(job_seed: u64, cfg: &JobConfig, n_osts: usize) -> Stripe {
    let width =
        iotax_stats::cast::f64_to_usize((cfg.volume_bytes / 68.7e9).ceil()).clamp(1, n_osts);
    let mut osts = Vec::with_capacity(width);
    let mut state = splitmix64(job_seed ^ 0x0575);
    // Sample without replacement via partial Fisher–Yates over a small
    // index window; for width << n_osts rejection is fine.
    while osts.len() < width {
        state = splitmix64(state);
        let candidate = u16::try_from(state % n_osts as u64).unwrap_or(u16::MAX);
        if !osts.contains(&candidate) {
            osts.push(candidate);
        }
    }
    osts.sort_unstable();
    Stripe { osts }
}

impl LoadGrid {
    /// Grid over `[0, horizon)` with the given bucket length.
    pub fn new(horizon: i64, bucket_seconds: i64, n_osts: usize) -> Self {
        assert!(horizon > 0 && bucket_seconds > 0 && n_osts > 0);
        let n_buckets = iotax_stats::cast::i64_to_usize(horizon.div_euclid(bucket_seconds) + 1);
        Self {
            bucket_seconds,
            n_buckets,
            n_osts,
            read: vec![0.0; n_buckets * n_osts],
            write: vec![0.0; n_buckets * n_osts],
            meta: vec![0.0; n_buckets],
        }
    }

    /// Number of time buckets.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// Bucket length in seconds.
    pub(crate) fn bucket_seconds(&self) -> i64 {
        self.bucket_seconds
    }

    fn bucket_range(&self, start: i64, end: i64) -> (usize, usize) {
        let a = (start.div_euclid(self.bucket_seconds)).clamp(0, self.n_buckets as i64 - 1);
        let b = ((end - 1).max(start).div_euclid(self.bucket_seconds))
            .clamp(a, self.n_buckets as i64 - 1);
        (iotax_stats::cast::i64_to_usize(a), iotax_stats::cast::i64_to_usize(b))
    }

    /// Fraction of bucket `bucket` covered by `[start, end)`.
    fn overlap_frac(&self, bucket: usize, start: i64, end: i64) -> f64 {
        let b0 = bucket as i64 * self.bucket_seconds;
        let b1 = b0 + self.bucket_seconds;
        let lo = start.max(b0);
        let hi = end.min(b1);
        ((hi - lo).max(0) as f64) / self.bucket_seconds as f64
    }

    /// Deposit a job's offered I/O onto its stripe for `[start, end)`,
    /// weighted by each bucket's covered fraction so short bursts do not
    /// smear across whole buckets.
    pub(crate) fn deposit(&mut self, stripe: &Stripe, cfg: &JobConfig, start: i64, end: i64) {
        let duration = (end - start).max(1) as f64;
        let rate = cfg.volume_bytes / duration;
        let per_ost_read = rate * cfg.read_fraction / stripe.osts.len() as f64;
        let per_ost_write = rate * (1.0 - cfg.read_fraction) / stripe.osts.len() as f64;
        let meta_rate = cfg.total_meta_ops() / duration;
        let (a, b) = self.bucket_range(start, end);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the load grid stores f32 by design; its rounding is part of the pinned traces"
        )]
        for bucket in a..=b {
            let frac = self.overlap_frac(bucket, start, end.max(start + 1));
            for &ost in &stripe.osts {
                let idx = bucket * self.n_osts + usize::from(ost);
                self.read[idx] += (per_ost_read * frac) as f32;
                self.write[idx] += (per_ost_write * frac) as f32;
            }
            self.meta[bucket] += (meta_rate * frac) as f32;
        }
    }

    /// Mean external (other-job) load in bytes/s per OST that a job sees on
    /// its stripe over its window — its own deposit subtracted back out.
    pub(crate) fn external_load(
        &self,
        stripe: &Stripe,
        cfg: &JobConfig,
        start: i64,
        end: i64,
    ) -> f64 {
        let duration = (end - start).max(1) as f64;
        let own_rate = cfg.volume_bytes / duration / stripe.osts.len() as f64;
        let (a, b) = self.bucket_range(start, end);
        let mut acc = 0.0f64;
        let mut weight = 0.0f64;
        for bucket in a..=b {
            let frac = self.overlap_frac(bucket, start, end.max(start + 1));
            if frac <= 0.0 {
                continue;
            }
            for &ost in &stripe.osts {
                let idx = bucket * self.n_osts + usize::from(ost);
                let total = self.read[idx] as f64 + self.write[idx] as f64;
                acc += (total - own_rate * frac).max(0.0) * frac;
                weight += frac;
            }
        }
        if weight == 0.0 {
            0.0
        } else {
            acc / weight
        }
    }

    /// Total (read + write) load on one OST in one bucket, bytes/s.
    pub(crate) fn ost_load(&self, bucket: usize, ost: usize) -> (f64, f64) {
        let idx = bucket * self.n_osts + ost;
        (self.read[idx] as f64, self.write[idx] as f64)
    }

    /// Metadata op rate in one bucket, ops/s.
    pub(crate) fn meta_load(&self, bucket: usize) -> f64 {
        self.meta[bucket] as f64
    }
}

/// The multiplicative contention factor (≤ 1) for a job.
///
/// `external_ratio` is external load over the system's contention reference
/// load; `sensitivity` is the archetype's β_l; `strength` the system-wide
/// knob. The response is concave (`ratio^0.6`) because interference from a
/// saturating neighbour is sub-linear in its offered rate — queues serve
/// interleaved requests, they do not starve a job outright.
pub(crate) fn contention_factor(external_ratio: f64, sensitivity: f64, strength: f64) -> f64 {
    1.0 / (1.0 + strength * sensitivity * external_ratio.max(0.0).powf(0.6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;

    fn cfg() -> JobConfig {
        let mut rng = rng_from_seed(1);
        JobConfig::sample(0, &mut rng, 1.0)
    }

    #[test]
    fn stripe_width_scales_with_volume() {
        let mut small = cfg();
        small.volume_bytes = 2e9;
        let mut big = cfg();
        big.volume_bytes = 5e12;
        let s = assign_stripe(1, &small, 32);
        let b = assign_stripe(1, &big, 32);
        assert!(b.osts.len() > s.osts.len());
        assert_eq!(s.osts.len(), 1);
    }

    #[test]
    fn stripes_are_deterministic_per_job_but_differ_between_jobs() {
        let c = cfg();
        assert_eq!(assign_stripe(42, &c, 32), assign_stripe(42, &c, 32));
        // Two duplicate jobs (same config, different seeds) usually land on
        // different OSTs.
        let differs = (0..50)
            .filter(|&i| assign_stripe(i, &c, 32) != assign_stripe(i + 1000, &c, 32))
            .count();
        assert!(differs > 40);
    }

    #[test]
    fn stripe_has_no_repeats_and_fits() {
        let mut c = cfg();
        c.volume_bytes = 1e13;
        let s = assign_stripe(9, &c, 8);
        assert!(s.osts.len() <= 8);
        let mut sorted = s.osts.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), s.osts.len());
    }

    #[test]
    fn deposit_and_external_load_roundtrip() {
        let mut grid = LoadGrid::new(10_000, 100, 4);
        let mut c = cfg();
        c.volume_bytes = 1e12;
        let s1 = Stripe { osts: vec![0, 1] };
        let s2 = Stripe { osts: vec![0, 1] };
        grid.deposit(&s1, &c, 0, 1000);
        // Alone on the system: external load is ~zero.
        assert!(grid.external_load(&s1, &c, 0, 1000) < 1.0);
        grid.deposit(&s2, &c, 0, 1000);
        // Two identical jobs sharing OSTs: each sees the other's rate.
        let expected = 1e12 / 1000.0 / 2.0;
        let ext = grid.external_load(&s1, &c, 0, 1000);
        assert!((ext - expected).abs() < 0.02 * expected, "ext {ext} expected {expected}");
    }

    #[test]
    fn disjoint_stripes_do_not_contend() {
        let mut grid = LoadGrid::new(10_000, 100, 4);
        let c = cfg();
        grid.deposit(&Stripe { osts: vec![0, 1] }, &c, 0, 1000);
        let ext = grid.external_load(&Stripe { osts: vec![2, 3] }, &c, 0, 1000);
        assert!(ext < 1.0, "disjoint stripes saw load {ext}");
    }

    #[test]
    fn non_overlapping_times_do_not_contend() {
        let mut grid = LoadGrid::new(100_000, 100, 4);
        let c = cfg();
        let s = Stripe { osts: vec![0] };
        grid.deposit(&s, &c, 0, 1000);
        let ext = grid.external_load(&s, &c, 50_000, 51_000);
        assert!(ext < 1.0);
    }

    #[test]
    fn contention_factor_shape() {
        assert_eq!(contention_factor(0.0, 1.0, 1.0), 1.0);
        assert!(contention_factor(1.0, 1.0, 1.0) < 0.6);
        // More sensitive apps suffer more at the same load.
        assert!(contention_factor(0.5, 2.2, 1.0) < contention_factor(0.5, 0.4, 1.0));
        // Factor is monotone decreasing in load.
        let f: Vec<f64> = (0..10).map(|i| contention_factor(i as f64 * 0.2, 1.0, 1.0)).collect();
        assert!(f.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn bucket_range_clamps_to_grid() {
        let grid = LoadGrid::new(1000, 100, 2);
        // Should not panic for out-of-horizon windows.
        let c = cfg();
        let s = Stripe { osts: vec![0] };
        assert_eq!(grid.external_load(&s, &c, -500, 2_000_000), 0.0);
    }

    #[test]
    fn meta_load_accumulates() {
        let mut grid = LoadGrid::new(1000, 100, 2);
        let c = cfg();
        let s = Stripe { osts: vec![0] };
        grid.deposit(&s, &c, 0, 500);
        assert!(grid.meta_load(0) > 0.0);
        assert_eq!(grid.meta_load(9), 0.0);
    }
}
