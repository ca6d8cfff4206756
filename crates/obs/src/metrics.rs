//! Monotonic counters and power-of-two histograms.
//!
//! Both are designed to be left on in production paths: the fast path is
//! a single relaxed `fetch_add` on a `&'static` atomic. The global
//! registry mutex is taken only the first time each instrument is touched
//! (guarded by a relaxed load), and by [`snapshot_counters`] /
//! [`snapshot_histograms`] at flush time.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: bucket `i` holds values whose bit length
/// is `i`, i.e. `[2^(i-1), 2^i)`, with bucket 0 holding zero.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { counters: Vec::new(), histograms: Vec::new(), gauges: Vec::new() });

struct Registry {
    counters: Vec<&'static Counter>,
    histograms: Vec<&'static Histogram>,
    gauges: Vec<&'static Gauge>,
}

/// A named monotonic counter. Construct through the [`counter!`] macro,
/// which gives each call site a `&'static` instance.
///
/// [`counter!`]: crate::counter
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Const-constructs an unregistered counter (used by `counter!`).
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `n`; lock-free.
    pub fn incr(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Adds a counter to the global registry once; subsequent calls are a
/// single relaxed load.
pub fn register_counter(counter: &'static Counter) {
    if !counter.registered.load(Ordering::Relaxed)
        && !counter.registered.swap(true, Ordering::AcqRel)
    {
        REGISTRY.lock().expect("obs registry poisoned").counters.push(counter);
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- element type of RunFile's public `counters` field; iotax-report reads RunFiles
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshots every registered counter, sorted by name.
pub(crate) fn snapshot_counters() -> Vec<CounterSnapshot> {
    let mut snaps: Vec<CounterSnapshot> = REGISTRY
        .lock()
        .expect("obs registry poisoned")
        .counters
        .iter()
        .map(|c| CounterSnapshot { name: c.name.to_owned(), value: c.get() })
        .collect();
    snaps.sort_by(|a, b| a.name.cmp(&b.name));
    snaps
}

/// A named last-value gauge. Unlike a [`Counter`], which only adds, a
/// gauge holds the value last [`set`](Gauge::set) (a trace's job count).
/// Construct through the [`gauge!`] macro, which gives each call site a
/// `&'static` instance.
///
/// Gauges are **informational**: they are snapshotted into ledgers and
/// heartbeats but deliberately excluded from `iotax-report`'s
/// `metrics_identical` drift contract, so allocator or environment noise
/// can never fail a determinism gate.
///
/// [`gauge!`]: crate::gauge
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Const-constructs an unregistered gauge (used by `gauge!`).
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Sets the gauge to an absolute value; lock-free.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The gauge's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Adds a gauge to the global registry once; subsequent calls are a
/// single relaxed load.
pub fn register_gauge(gauge: &'static Gauge) {
    if !gauge.registered.load(Ordering::Relaxed) && !gauge.registered.swap(true, Ordering::AcqRel) {
        REGISTRY.lock().expect("obs registry poisoned").gauges.push(gauge);
    }
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// audit:allow(dead-public-api) -- element type of RunFile's public `gauges` field; iotax-report reads RunFiles
pub struct GaugeSnapshot {
    /// Gauge name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshots every registered gauge, plus the allocator's heap gauges
/// when heap tracking is on, sorted by name.
pub(crate) fn snapshot_gauges() -> Vec<GaugeSnapshot> {
    let registry = REGISTRY.lock().expect("obs registry poisoned");
    let mut snaps: Vec<GaugeSnapshot> = registry
        .gauges
        .iter()
        .map(|g| GaugeSnapshot { name: g.name.to_owned(), value: g.get() })
        .collect();
    drop(registry);
    snaps.extend(crate::alloc::gauge_snapshots());
    snaps.sort_by(|a, b| a.name.cmp(&b.name));
    snaps
}

/// A named histogram over `u64` values with power-of-two buckets.
/// Construct through the [`histogram!`] macro.
///
/// [`histogram!`]: crate::histogram
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// Const-constructs an unregistered histogram (used by `histogram!`).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// Records one value; lock-free.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Point-in-time copy of the distribution.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name.to_owned(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// Adds a histogram to the global registry once.
pub fn register_histogram(histogram: &'static Histogram) {
    if !histogram.registered.load(Ordering::Relaxed)
        && !histogram.registered.swap(true, Ordering::AcqRel)
    {
        REGISTRY.lock().expect("obs registry poisoned").histograms.push(histogram);
    }
}

/// Point-in-time state of one histogram. `buckets` holds
/// `(bit_length, count)` pairs for non-empty buckets only.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// `(bit_length, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile: the top edge of the
    /// bucket containing that rank (exact to within a factor of two).
    pub(crate) fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(bits, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return ((1u128 << bits) - 1) as u64;
            }
        }
        u64::MAX
    }
}

/// Fixed-quantile digest of one histogram, as persisted in run ledgers.
/// Quantiles are upper-edge estimates: the top edge of the power-of-two
/// bucket holding that rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: String,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// `sum / count`, 0.0 when empty.
    pub mean: f64,
    /// Upper-edge estimate of the median.
    pub p50: u64,
    /// Upper-edge estimate of the 95th percentile.
    pub p95: u64,
    /// Upper-edge estimate of the 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Digests the snapshot into the fixed p50/p95/p99 summary used by
    /// run ledgers and `iotax-report`.
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            name: self.name.clone(),
            count: self.count,
            sum: self.sum,
            mean: if self.count == 0 { 0.0 } else { self.sum as f64 / self.count as f64 },
            p50: self.approx_quantile(0.50),
            p95: self.approx_quantile(0.95),
            p99: self.approx_quantile(0.99),
        }
    }
}

/// Snapshots every registered histogram, sorted by name.
pub(crate) fn snapshot_histograms() -> Vec<HistogramSnapshot> {
    let mut snaps: Vec<HistogramSnapshot> = REGISTRY
        .lock()
        .expect("obs registry poisoned")
        .histograms
        .iter()
        .map(|h| h.snapshot())
        .collect();
    snaps.sort_by(|a, b| a.name.cmp(&b.name));
    snaps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_macro_registers_once_and_counts() {
        for _ in 0..3 {
            crate::counter!("test.metrics.registers_once").incr(2);
        }
        let snaps = snapshot_counters();
        let mine: Vec<_> =
            snaps.iter().filter(|s| s.name == "test.metrics.registers_once").collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].value, 6);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        crate::counter!("test.metrics.concurrent").incr(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("incrementer thread");
        }
        let snaps = snapshot_counters();
        let mine = snaps.iter().find(|s| s.name == "test.metrics.concurrent").expect("registered");
        assert_eq!(mine.value, 80_000);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = crate::histogram!("test.metrics.histogram");
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        let by_bits: std::collections::BTreeMap<u32, u64> = snap.buckets.iter().copied().collect();
        assert_eq!(by_bits[&0], 1); // 0
        assert_eq!(by_bits[&1], 1); // 1
        assert_eq!(by_bits[&2], 2); // 2, 3
        assert_eq!(by_bits[&3], 1); // 4
        assert_eq!(by_bits[&10], 1); // 1000
        assert_eq!(by_bits[&64], 1); // u64::MAX
        assert!(snap.approx_quantile(0.01) <= 1);
        assert_eq!(snap.approx_quantile(1.0), u64::MAX);
    }

    #[test]
    fn empty_histogram_summary_is_all_zero() {
        let h = Histogram::new("test.metrics.empty");
        let s = h.snapshot().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0));
    }

    #[test]
    fn single_bucket_summary_quantiles_collapse() {
        // Every value is 7 = 2^3 - 1, the exact upper edge of bucket 3:
        // all quantiles are exact.
        let h = Histogram::new("test.metrics.single_bucket");
        for _ in 0..100 {
            h.record(7);
        }
        let s = h.snapshot().summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 700);
        assert_eq!(s.mean, 7.0);
        assert_eq!((s.p50, s.p95, s.p99), (7, 7, 7));
    }

    #[test]
    fn quantiles_on_known_uniform_distribution() {
        // 1..=1000, one each. Rank-500 lands in bucket 9 (256..=511,
        // cumulative 511), rank-950 and rank-990 in bucket 10
        // (512..=1000, cumulative 1000). The estimator returns bucket
        // upper edges: 511, 1023, 1023.
        let h = Histogram::new("test.metrics.uniform");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot().summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.mean, 500.5);
        assert_eq!(s.p50, 511);
        assert_eq!(s.p95, 1023);
        assert_eq!(s.p99, 1023);
    }

    #[test]
    fn gauge_set_semantics() {
        let g = crate::gauge!("test.metrics.gauge_semantics");
        g.set(100);
        assert_eq!(g.get(), 100);
        g.set(40);
        assert_eq!(g.get(), 40, "set moves the value both ways");
        g.set(200);
        assert_eq!(g.get(), 200);
        let snaps = snapshot_gauges();
        let mine: Vec<_> =
            snaps.iter().filter(|s| s.name == "test.metrics.gauge_semantics").collect();
        assert_eq!(mine.len(), 1, "registered exactly once");
        assert_eq!(mine[0].value, 200);
    }

    #[test]
    fn gauge_snapshots_sort_by_name() {
        crate::gauge!("test.metrics.sorted.b").set(2);
        crate::gauge!("test.metrics.sorted.a").set(1);
        let snaps = snapshot_gauges();
        let names: Vec<&str> = snaps
            .iter()
            .filter(|s| s.name.starts_with("test.metrics.sorted."))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["test.metrics.sorted.a", "test.metrics.sorted.b"]);
    }

    #[test]
    fn quantiles_exact_at_bucket_edges() {
        // 98 values of 15 and three of 255 (count 101): p50 rank 51 and
        // p95 rank 96 stay inside the bucket whose upper edge is exactly
        // 15; p99 rank 100 crosses into the 255 bucket.
        let h = Histogram::new("test.metrics.edges");
        for _ in 0..98 {
            h.record(15);
        }
        for _ in 0..3 {
            h.record(255);
        }
        let s = h.snapshot().summary();
        assert_eq!(s.p50, 15);
        assert_eq!(s.p95, 15);
        assert_eq!(s.p99, 255);
    }
}
