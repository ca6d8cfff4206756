//! Metric sinks and the process-global sink slot.
//!
//! Exactly one sink is installed at a time (default: [`NoopSink`]).
//! Span closes stream to it as they happen; counters are pushed only by
//! [`flush_metrics`], so the instrument fast paths never see the sink at
//! all.

use crate::metrics::{snapshot_counters, CounterSnapshot};
use crate::span::SpanRecord;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// A metrics backend. Both methods default to no-ops so sinks implement
/// only what they care about. Implementations must be `Send + Sync`;
/// span closes can arrive from any thread.
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, installs its MemorySink through set_sink, whose parameter type this is
pub trait Sink: Send + Sync {
    /// A span finished (streamed in close order).
    fn span_close(&self, _record: &SpanRecord) {}

    /// A counter value at flush time.
    fn counter_flush(&self, _snapshot: &CounterSnapshot) {}
}

fn sink_slot() -> &'static RwLock<Arc<dyn Sink>> {
    static SLOT: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Arc::new(NoopSink)))
}

/// Installs `sink` globally, returning the previously installed sink
/// (hand it back to [`restore_sink`] for scoped use).
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, installs its MemorySink through this
pub fn set_sink(sink: Arc<dyn Sink>) -> Arc<dyn Sink> {
    std::mem::replace(&mut *sink_slot().write().expect("sink slot poisoned"), sink)
}

/// Reinstalls a sink previously returned by [`set_sink`].
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, reinstalls its sinks through this
pub fn restore_sink(sink: Arc<dyn Sink>) {
    let _ = set_sink(sink);
}

/// Runs `f` against the installed sink (brief read lock; the instrument
/// fast paths never call this).
pub(crate) fn with_sink(f: impl FnOnce(&dyn Sink)) {
    let guard = sink_slot().read().expect("sink slot poisoned");
    f(guard.as_ref());
}

/// Pushes a snapshot of every registered counter to the installed sink.
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, reads its counters through a MemorySink with this
pub fn flush_metrics() {
    with_sink(|sink| {
        for snap in snapshot_counters() {
            sink.counter_flush(&snap);
        }
    });
}

/// The default sink: discards everything.
// audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, reinstalls this sink after its traced run
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
}
