//! Online (streaming) moment estimation.
//!
//! The LMT simulator ingests one sample per server per 5-second tick over
//! multi-year timelines — far too much to buffer. Welford's algorithm keeps
//! running mean/variance in O(1) space.

/// Welford online mean/variance accumulator.
///
/// Numerically stable single-pass estimator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Absorb one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `NaN` if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population (biased) variance; `NaN` if empty.
    pub fn variance_biased(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum observed value; `+∞` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value; `-∞` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe;

    #[test]
    fn matches_batch_statistics() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 5.0 + 2.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - describe::mean(&xs)).abs() < 1e-10);
        assert!((w.variance_biased() - describe::variance_biased(&xs)).abs() < 1e-8);
        assert_eq!(w.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(w.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn empty_statistics_are_nan() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance_biased().is_nan());
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut w = Welford::new();
        for _ in 0..100 {
            w.push(7.5);
        }
        assert!(w.variance_biased().abs() < 1e-12);
        assert_eq!(w.mean(), 7.5);
    }
}
