//! Pluggable metric sinks and the process-global sink slot.
//!
//! Exactly one sink is installed at a time (default: [`NoopSink`]).
//! Span closes stream to it as they happen; counters and histograms are
//! pushed only by [`flush_metrics`], so the instrument fast paths never
//! see the sink at all.

use crate::metrics::{
    snapshot_counters, snapshot_gauges, snapshot_histograms, CounterSnapshot, GaugeSnapshot,
    HistogramSnapshot,
};
use crate::span::SpanRecord;
use serde::Serialize;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// A metrics backend. All methods default to no-ops so sinks implement
/// only what they care about. Implementations must be `Send + Sync`;
/// span closes can arrive from any thread.
pub trait Sink: Send + Sync {
    /// A span finished (streamed in close order).
    fn span_close(&self, _record: &SpanRecord) {}

    /// A counter value at flush time.
    fn counter_flush(&self, _snapshot: &CounterSnapshot) {}

    /// A histogram state at flush time.
    fn histogram_flush(&self, _snapshot: &HistogramSnapshot) {}

    /// A gauge value at flush time (informational; gate-exempt).
    fn gauge_flush(&self, _snapshot: &GaugeSnapshot) {}

    /// Flush buffered output (called at the end of [`flush_metrics`]).
    fn flush(&self) {}
}

fn sink_slot() -> &'static RwLock<Arc<dyn Sink>> {
    static SLOT: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Arc::new(NoopSink)))
}

/// Installs `sink` globally, returning the previously installed sink
/// (hand it back to [`restore_sink`] for scoped use).
pub fn set_sink(sink: Arc<dyn Sink>) -> Arc<dyn Sink> {
    std::mem::replace(&mut *sink_slot().write().expect("sink slot poisoned"), sink)
}

/// Reinstalls a sink previously returned by [`set_sink`].
pub fn restore_sink(sink: Arc<dyn Sink>) {
    // audit:allow(swallowed-result) -- the displaced sink is dropped by design
    let _ = set_sink(sink);
}

/// Runs `f` against the installed sink (brief read lock; the instrument
/// fast paths never call this).
pub(crate) fn with_sink(f: impl FnOnce(&dyn Sink)) {
    let guard = sink_slot().read().expect("sink slot poisoned");
    f(guard.as_ref());
}

/// Pushes a snapshot of every registered counter, histogram, and gauge
/// to the installed sink, then flushes it.
pub fn flush_metrics() {
    with_sink(|sink| {
        for snap in snapshot_counters() {
            sink.counter_flush(&snap);
        }
        for snap in snapshot_histograms() {
            sink.histogram_flush(&snap);
        }
        for snap in snapshot_gauges() {
            sink.gauge_flush(&snap);
        }
        sink.flush();
    });
}

/// The default sink: discards everything.
pub struct NoopSink;

impl Sink for NoopSink {}

/// Collects counter snapshots in memory for an embedder to read.
#[derive(Default)]
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, collects its counters with this sink
pub struct MemorySink {
    counters: Mutex<Vec<CounterSnapshot>>,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter snapshots from the most recent flush.
    // audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, reads its counters through this
    pub fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        self.counters.lock().expect("memory sink poisoned").clone()
    }
}

impl Sink for MemorySink {
    fn counter_flush(&self, snapshot: &CounterSnapshot) {
        self.counters.lock().expect("memory sink poisoned").push(snapshot.clone());
    }
}

/// Writes one JSON object per line: `{"type":"span"|"counter"|"histogram", …}`.
/// This is the `--metrics-out` format.
pub struct JsonLinesSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonLinesSink {
    /// Creates (truncating) the output file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self { writer: Mutex::new(BufWriter::new(file)) })
    }

    fn write_tagged<T: Serialize>(&self, tag: &str, payload: &T) {
        let mut value =
            serde::Value::Object(vec![("type".to_owned(), serde::Value::Str(tag.to_owned()))]);
        if let (serde::Value::Object(out), serde::Value::Object(fields)) =
            (&mut value, payload.to_value())
        {
            out.extend(fields);
        }
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        // Metrics are best-effort: an unwritable line must not take down
        // the pipeline it is observing.
        // audit:allow(swallowed-result) -- best-effort emission must not take down the observed pipeline
        let _ = serde_json::to_writer(&mut *writer, &value);
        // audit:allow(swallowed-result) -- best-effort emission must not take down the observed pipeline
        let _ = writer.write_all(b"\n");
    }
}

impl Sink for JsonLinesSink {
    fn span_close(&self, record: &SpanRecord) {
        self.write_tagged("span", record);
    }

    fn counter_flush(&self, snapshot: &CounterSnapshot) {
        self.write_tagged("counter", snapshot);
    }

    fn histogram_flush(&self, snapshot: &HistogramSnapshot) {
        self.write_tagged("histogram", snapshot);
    }

    fn gauge_flush(&self, snapshot: &GaugeSnapshot) {
        self.write_tagged("gauge", snapshot);
    }

    fn flush(&self) {
        // audit:allow(swallowed-result) -- flush on a best-effort sink; errors surface on the next write
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Fans every event out to several sinks, in order. Lets `--metrics-out`
/// (JSONL stream) and `--ledger` (run directory) coexist in one process.
pub struct TeeSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl TeeSink {
    /// A tee over `sinks`; events are delivered in the given order.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        Self { sinks }
    }
}

impl Sink for TeeSink {
    fn span_close(&self, record: &SpanRecord) {
        for sink in &self.sinks {
            sink.span_close(record);
        }
    }

    fn counter_flush(&self, snapshot: &CounterSnapshot) {
        for sink in &self.sinks {
            sink.counter_flush(snapshot);
        }
    }

    fn histogram_flush(&self, snapshot: &HistogramSnapshot) {
        for sink in &self.sinks {
            sink.histogram_flush(snapshot);
        }
    }

    fn gauge_flush(&self, snapshot: &GaugeSnapshot) {
        for sink in &self.sinks {
            sink.gauge_flush(snapshot);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// Serializes tests that install a global sink; exposed crate-wide so
/// span tests and sink tests can't race each other's installations.
#[cfg(test)]
pub(crate) fn test_sink_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LedgerSink;

    #[test]
    fn memory_sink_sees_flushed_counters() {
        let _guard = test_sink_lock();
        let sink = Arc::new(MemorySink::new());
        let previous = set_sink(sink.clone());
        crate::counter!("test.sink.flushed").incr(5);
        flush_metrics();
        restore_sink(previous);
        let counters = sink.counter_snapshots();
        let mine = counters.iter().find(|c| c.name == "test.sink.flushed").expect("flushed");
        assert!(mine.value >= 5);
    }

    #[test]
    fn tee_sink_fans_out_to_all_children() {
        let _guard = test_sink_lock();
        let a = Arc::new(LedgerSink::new());
        let b = Arc::new(LedgerSink::new());
        let previous = set_sink(Arc::new(TeeSink::new(vec![
            a.clone() as Arc<dyn Sink>,
            b.clone() as Arc<dyn Sink>,
        ])));
        {
            let _span = crate::span!("tee.root");
        }
        restore_sink(previous);
        for sink in [&a, &b] {
            assert!(sink.span_records().iter().any(|r| r.name == "tee.root"));
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let _guard = test_sink_lock();
        let dir = std::env::temp_dir().join("iotax-obs-sink-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.jsonl");
        let sink = Arc::new(JsonLinesSink::create(&path).expect("create jsonl"));
        let previous = set_sink(sink);
        {
            let _span = crate::span!("jsonl.root");
            crate::histogram!("test.sink.jsonl_bytes").record(4096);
            crate::gauge!("test.sink.jsonl_gauge").set(42);
        }
        flush_metrics();
        restore_sink(previous);

        let text = std::fs::read_to_string(&path).expect("read back");
        let mut saw_span = false;
        let mut saw_histogram = false;
        let mut saw_gauge = false;
        for line in text.lines() {
            let value: serde::Value = serde_json::from_str(line).expect("parseable line");
            match value.get("type").and_then(|t| t.as_str()) {
                Some("span") => {
                    let record: SpanRecord = serde_json::from_str(line).expect("span record");
                    saw_span |= record.name == "jsonl.root";
                }
                Some("histogram") => {
                    let snap: HistogramSnapshot =
                        serde_json::from_str(line).expect("histogram record");
                    saw_histogram |= snap.name == "test.sink.jsonl_bytes";
                }
                Some("gauge") => {
                    let snap: GaugeSnapshot = serde_json::from_str(line).expect("gauge record");
                    saw_gauge |= snap.name == "test.sink.jsonl_gauge" && snap.value == 42;
                }
                Some("counter") => {}
                other => panic!("unexpected line type {other:?}"),
            }
        }
        assert!(saw_span && saw_histogram && saw_gauge);
    }
}
