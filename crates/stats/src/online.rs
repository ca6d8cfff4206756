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

    /// Absorb every element of a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
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

    /// Bessel-corrected variance; `NaN` for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
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

    /// Bessel-corrected standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
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
        w.extend(&xs);
        assert!((w.mean() - describe::mean(&xs)).abs() < 1e-10);
        assert!((w.variance() - describe::variance_corrected(&xs)).abs() < 1e-8);
        assert_eq!(w.min(), describe::min(&xs));
        assert_eq!(w.max(), describe::max(&xs));
    }

    #[test]
    fn empty_statistics_are_nan() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut w = Welford::new();
        for _ in 0..100 {
            w.push(7.5);
        }
        assert!((w.variance()).abs() < 1e-12);
        assert_eq!(w.mean(), 7.5);
    }
}
