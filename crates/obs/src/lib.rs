//! `iotax-obs` — observability for the taxonomy pipeline, plus the
//! workspace-wide error type.
//!
//! The paper's pipeline (simulate → parse → fit → litmus-test) spends its
//! time in a handful of hot loops; this crate makes that time and those
//! loop counts visible without perturbing them:
//!
//! * **Spans** ([`span!`], [`SpanGuard`]) — RAII guards that time a region
//!   and nest into a tree. Completed trees serialize through serde
//!   ([`SpanNode`]) so reports can embed a `timings` section, and every
//!   span close is streamed to the installed sink.
//! * **Counters** ([`counter!`], [`Counter`]) — monotonic, lock-free
//!   (`AtomicU64::fetch_add` on the fast path; a registry mutex is touched
//!   only on each counter's *first* use).
//! * **Histograms** ([`histogram!`], [`Histogram`]) — power-of-two
//!   bucketed value distributions, same lock-free discipline.
//! * **Sinks** ([`Sink`]) — where span closes and flushed counters go:
//!   [`NoopSink`] (default; near-zero overhead), a [`Ledger`]'s span
//!   buffer, or [`MemorySink`] (collects counter snapshots for an
//!   embedder to read).
//! * **Run ledger** ([`Ledger`]) — the one record of a run: `run.json`
//!   holds its spans, counters, histogram digests and gauges.
//! * **Durable store** ([`store`]) — an append-only, CRC-checked
//!   segment log that [`Ledger::finish`] can append finished runs to
//!   (`--store`), with torn-write recovery and quarantine reporting.
//! * **Shared flags** ([`ObsArgs`], [`ObsSession`]) — the one parser of
//!   `--ledger` / `--store` that every workspace bin folds into its flag
//!   loop, and the session that writes `run.json` on every exit path.
//!
//! ```
//! use iotax_obs::{counter, MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let previous = iotax_obs::set_sink(sink.clone());
//! counter!("demo.events").incr(3);
//! iotax_obs::flush_metrics();
//! let events = sink.counter_snapshots().into_iter().find(|c| c.name == "demo.events");
//! assert_eq!(events.map(|c| c.value), Some(3));
//! iotax_obs::restore_sink(previous);
//! ```
//!
//! The unified [`Error`] type lives here because `iotax-obs` sits below
//! every other workspace crate, so both the CLI layer and the substrates
//! can speak it without dependency cycles.

pub mod alloc;
mod error;
mod ledger;
mod metrics;
mod obsargs;
mod recorder;
mod sink;
mod span;
pub mod store;

pub use alloc::{heap_slot_peaks, install_heap_accounting};
pub use error::{Error, ErrorKind, Result};
pub use ledger::{digest_bytes, load_run, run_crashed, InputDigest, Ledger, RunFile, RunManifest};
pub use metrics::{
    register_counter, register_gauge, register_histogram, Counter, CounterSnapshot, Gauge,
    GaugeSnapshot, Histogram, HistogramSummary,
};
pub use obsargs::{ObsArgs, ObsSession, OBS_USAGE};
pub use recorder::{
    install_recorder, record_event, uptime_us, FlightEvent, HeartbeatLine, BLACKBOX_DIR,
    HEARTBEAT_FILE,
};
pub use sink::{flush_metrics, restore_sink, set_sink, MemorySink, NoopSink, Sink};
pub use span::{
    assemble_span_tree, capture, current_span, Capture, SpanGuard, SpanHandle, SpanNode, SpanRecord,
};

/// Opens a timing span; returns a [`SpanGuard`] that closes it on drop.
///
/// Bind the result (`let _span = span!("core.baseline");`) — an unbound
/// statement would drop, and therefore close, the span immediately.
///
/// The two-argument form `span!("name", parent = handle)` attaches the
/// span to an explicit parent captured with [`current_span`] — the
/// spawn-point idiom for work fanned out to other threads.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, parent = $parent:expr) => {
        $crate::SpanGuard::enter_under($name, $parent)
    };
}

/// Returns a `&'static` [`Counter`] for the given name, registering it on
/// first use. Increments are lock-free.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __OBS_COUNTER: $crate::Counter = $crate::Counter::new($name);
        $crate::register_counter(&__OBS_COUNTER);
        &__OBS_COUNTER
    }};
}

/// Returns a `&'static` [`Histogram`] for the given name, registering it
/// on first use. Recording is lock-free.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static __OBS_HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        $crate::register_histogram(&__OBS_HISTOGRAM);
        &__OBS_HISTOGRAM
    }};
}

/// Returns a `&'static` [`Gauge`] for the given name, registering it on
/// first use. Updates are lock-free. Gauges are informational: excluded
/// from `metrics_identical` drift checks by design.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static __OBS_GAUGE: $crate::Gauge = $crate::Gauge::new($name);
        $crate::register_gauge(&__OBS_GAUGE);
        &__OBS_GAUGE
    }};
}

/// Drops a breadcrumb into the flight recorder ring: a named event with a
/// formatted detail string, timestamped against the process span clock.
/// Near-free when no recorder is installed (one relaxed atomic load).
///
/// Call sites should sit inside an open span so the black box can place
/// the breadcrumb in the span timeline.
#[macro_export]
macro_rules! event {
    ($name:literal) => {
        $crate::record_event($name, String::new())
    };
    ($name:literal, $($detail:tt)+) => {
        $crate::record_event($name, format!($($detail)+))
    };
}
