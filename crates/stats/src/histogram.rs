//! Linear- and log-spaced histograms.
//!
//! Figure 6 of the paper buckets duplicate pairs by decade of Δt; Darshan
//! itself reports access-size histograms. Both uses share this type.

use serde::{Deserialize, Serialize};

/// A 1-D histogram with explicit bin edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bin edges, ascending, length `bins + 1`.
    pub edges: Vec<f64>,
    /// Counts per bin, length `bins`.
    pub counts: Vec<u64>,
    /// Observations below the first edge.
    pub underflow: u64,
    /// Observations at or above the last edge.
    pub overflow: u64,
}

impl Histogram {
    /// Histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "need hi > lo");
        let w = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + w * i as f64).collect();
        Self { edges, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Index of the bin containing `x`, or `None` for under/overflow.
    pub(crate) fn bin_index(&self, x: f64) -> Option<usize> {
        if x < self.edges[0] || x >= *self.edges.last().expect(">= 2 edges") {
            return None;
        }
        // Binary search for the rightmost edge <= x.
        let i = match self.edges.binary_search_by(|e| e.partial_cmp(&x).expect("finite edges")) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Some(i.min(self.bins() - 1))
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        match self.bin_index(x) {
            Some(i) => self.counts[i] += 1,
            None if x < self.edges[0] => self.underflow += 1,
            None => self.overflow += 1,
        }
    }

    /// Total count including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Normalized density per bin (integrates to the in-range fraction).
    pub fn density(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        self.counts
            .iter()
            .zip(self.edges.windows(2))
            .map(|(&c, e)| c as f64 / (total * (e[1] - e[0])))
            .collect()
    }

    /// Midpoint of each bin (geometric mean for log-spaced histograms would
    /// differ; this is the arithmetic midpoint).
    pub fn centers(&self) -> Vec<f64> {
        self.edges.windows(2).map(|e| 0.5 * (e[0] + e[1])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 9.99, 5.0] {
            h.record(x);
        }
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.counts[5], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn overflow_and_underflow() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.record(-0.1);
        h.record(1.0); // right edge is exclusive
        h.record(5.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn density_integrates_to_one_without_overflow() {
        let mut h = Histogram::linear(0.0, 1.0, 4);
        for x in [0.1, 0.3, 0.6, 0.9] {
            h.record(x);
        }
        let area: f64 =
            h.density().iter().zip(h.edges.windows(2)).map(|(d, e)| d * (e[1] - e[0])).sum();
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_index_boundaries() {
        let h = Histogram::linear(0.0, 2.0, 2);
        assert_eq!(h.bin_index(0.0), Some(0));
        assert_eq!(h.bin_index(1.0), Some(1));
        assert_eq!(h.bin_index(2.0), None);
        assert_eq!(h.bin_index(-0.001), None);
    }
}
