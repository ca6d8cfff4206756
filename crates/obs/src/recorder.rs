//! Flight recorder: a bounded ring of recent span opens/closes, counter
//! deltas, and explicit [`event!`] breadcrumbs, flushed as CRC-checked
//! segments into `<ledger>/blackbox/` when the process dies.
//!
//! The ring is deliberately lossy (oldest events fall off) and cheap to
//! feed: the off path is a single relaxed atomic load, the on path one
//! short mutex hold. Durability happens only at flush time — on a panic
//! (via the installed hook), on the fatal-exit path of `ObsSession`, or
//! explicitly in tests — by appending every buffered event through the
//! same fsync-acked [`store`](crate::store) machinery run ledgers use, so
//! `iotax-report blackbox` can replay the last moments of a crashed run
//! with the usual torn-write guarantees.
//!
//! Panic-hook safety rules (also documented in DESIGN.md):
//! * never unwrap a lock — ring and store locks are taken
//!   poison-tolerantly (`try_lock` + `into_inner`), and a held ring lock
//!   means we drop the events rather than deadlock;
//! * never panic — every I/O error is reported to stderr and swallowed;
//! * never recurse — a hook-active flag makes a panic inside the hook
//!   fall through to the previous hook only.
//!
//! [`event!`]: crate::event

use crate::metrics::CounterSnapshot;
use crate::span::now_us;
use crate::store::SegmentStore;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, RwLock};
use std::time::Duration;

/// Subdirectory of a run-ledger directory that holds flushed black boxes.
pub const BLACKBOX_DIR: &str = "blackbox";

/// Heartbeat stream file inside a run-ledger directory.
pub const HEARTBEAT_FILE: &str = "heartbeat.jsonl";

/// Default ring capacity: enough to cover every span of a full taxonomy
/// run plus breadcrumbs, small enough to flush in one segment.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 4096;

/// Monotonic microseconds since this process first touched the obs
/// layer — the same clock spans are stamped with. Exposed so callers
/// outside `iotax-obs` (e.g. the overhead benchmark) can measure against
/// the span timeline without taking their own `Instant` readings.
pub fn uptime_us() -> u64 {
    now_us()
}

/// One entry in the flight-recorder ring. A named-field struct (not an
/// enum) so it round-trips through the vendored serde derive; `kind`
/// discriminates:
///
/// * `"blackbox"` — flush header: `name` = run id, `detail` = reason,
///   `value` = events dropped from the ring before the flush;
/// * `"span_open"` / `"span_close"` — `name` = span name, `detail` =
///   `/`-joined path, `value` = duration µs (close only);
/// * `"counter"` — `name` = counter name, `value` = delta since the
///   previous capture;
/// * `"event"` — an explicit breadcrumb: `name` + free-form `detail`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Ring sequence number (monotonic per recorder, survives wrap).
    pub seq: u64,
    /// Timestamp, microseconds on the span clock ([`uptime_us`]).
    pub at_us: u64,
    /// Dense thread ordinal (main = 1), 0 for non-thread events.
    pub thread: u64,
    /// Event discriminator (see type docs).
    pub kind: String,
    /// Span, counter, breadcrumb, or run name.
    pub name: String,
    /// Kind-specific detail (span path, breadcrumb text, flush reason).
    pub detail: String,
    /// Kind-specific value (duration, counter delta, dropped count).
    pub value: u64,
}

impl FlightEvent {
    /// Serializes the event to the byte payload stored in a black-box
    /// segment record.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self).unwrap_or_default().into_bytes()
    }

    /// Decodes a black-box record payload. Total: any input that is not
    /// a UTF-8 JSON `FlightEvent` yields `None`, never a panic — the
    /// black box is read *after* a crash, when trusting bytes is exactly
    /// the wrong instinct.
    pub fn decode(payload: &[u8]) -> Option<FlightEvent> {
        let text = std::str::from_utf8(payload).ok()?;
        serde_json::from_str(text).ok()
    }
}

struct Ring {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, mut event: FlightEvent) {
        self.seq += 1;
        event.seq = self.seq;
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

struct Recorder {
    ring: Mutex<Ring>,
    dir: PathBuf,
    run_id: String,
    last_counters: Mutex<BTreeMap<String, u64>>,
}

/// Fast-bail flag: span open/close and `event!` call sites pay one
/// relaxed load when no recorder is installed.
static RECORDER_ON: AtomicBool = AtomicBool::new(false);

fn recorder_slot() -> &'static RwLock<Option<Arc<Recorder>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<Recorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

fn with_recorder(f: impl FnOnce(&Recorder)) {
    // Poison-tolerant: a panic elsewhere must not silence the recorder —
    // it is at its most useful when the process is dying.
    let slot = recorder_slot();
    let guard = slot.read().unwrap_or_else(|p| p.into_inner());
    if let Some(recorder) = guard.as_ref() {
        f(recorder);
    }
}

/// Whether a flight recorder is installed (used by the span layer to
/// decide if it should publish to the ring and the live-stack table).
pub(crate) fn recorder_enabled() -> bool {
    RECORDER_ON.load(Ordering::Relaxed)
}

/// Each thread's open-span path, for heartbeats. The span layer updates
/// it on every open and close while a recorder is installed: one mutexed
/// map update per span, and spans here bound stages and hot loops, not
/// individual iterations.
static LIVE_STACKS: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());

/// Publishes `thread`'s current open-span path (empty = idle).
pub(crate) fn publish_stack(thread: u64, path: String) {
    let mut table = LIVE_STACKS.lock().unwrap_or_else(|p| p.into_inner());
    if path.is_empty() {
        table.remove(&thread);
    } else {
        table.insert(thread, path);
    }
}

/// Snapshot of every thread's live span path.
fn live_stacks() -> Vec<(u64, String)> {
    let table = LIVE_STACKS.lock().unwrap_or_else(|p| p.into_inner());
    table.iter().map(|(t, p)| (*t, p.clone())).collect()
}

/// Installs the process-wide flight recorder: events buffer into a ring
/// of `capacity` (`None` = default) and flush into `dir` (conventionally
/// `<ledger>/blackbox/`) on panic or explicit `flush_blackbox`. The
/// panic hook is chained in front of the existing hook, once per
/// process; reinstalling replaces the ring and target directory.
pub fn install_recorder(dir: impl Into<PathBuf>, run_id: &str, capacity: Option<usize>) {
    let recorder = Arc::new(Recorder {
        ring: Mutex::new(Ring {
            events: VecDeque::new(),
            capacity: capacity.unwrap_or(DEFAULT_RING_CAPACITY).max(1),
            seq: 0,
            dropped: 0,
        }),
        dir: dir.into(),
        run_id: run_id.to_owned(),
        last_counters: Mutex::new(BTreeMap::new()),
    });
    {
        let slot = recorder_slot();
        let mut guard = slot.write().unwrap_or_else(|p| p.into_inner());
        *guard = Some(recorder);
    }
    RECORDER_ON.store(true, Ordering::Release);
    install_panic_hook();
}

fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            static HOOK_ACTIVE: AtomicBool = AtomicBool::new(false);
            if HOOK_ACTIVE.swap(true, Ordering::AcqRel) {
                return; // a panic inside the flush: do not recurse
            }
            let reason = match info.payload().downcast_ref::<&str>() {
                Some(s) => format!("panic: {s}"),
                None => match info.payload().downcast_ref::<String>() {
                    Some(s) => format!("panic: {s}"),
                    None => "panic".to_owned(),
                },
            };
            if let Some(path) = flush_blackbox(&reason) {
                eprintln!("flight recorder: black box written to {}", path.display());
            }
            HOOK_ACTIVE.store(false, Ordering::Release);
        }));
    });
}

/// Records a span open or close into the ring; called by the span layer.
pub(crate) fn record_span(kind: &'static str, name: &str, path: &str, duration_us: u64) {
    if !recorder_enabled() {
        return;
    }
    let event = FlightEvent {
        seq: 0,
        at_us: now_us(),
        thread: crate::span::thread_ordinal(),
        kind: kind.to_owned(),
        name: name.to_owned(),
        detail: path.to_owned(),
        value: duration_us,
    };
    with_recorder(|r| {
        let mut ring = r.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.push(event);
    });
}

/// Drops a breadcrumb into the ring. Use the [`event!`] macro rather
/// than calling this directly — the macro formats lazily and reads as a
/// log line at the call site.
///
/// [`event!`]: crate::event
pub fn record_event(name: &str, detail: String) {
    if !recorder_enabled() {
        return;
    }
    let event = FlightEvent {
        seq: 0,
        at_us: now_us(),
        thread: crate::span::thread_ordinal(),
        kind: "event".to_owned(),
        name: name.to_owned(),
        detail,
        value: 0,
    };
    with_recorder(|r| {
        let mut ring = r.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.push(event);
    });
}

/// Counter movement since the previous capture, as `"counter"` events.
/// The per-increment path stays a bare `fetch_add`; deltas are computed
/// only here, at heartbeat ticks and flush time.
fn counter_delta_events(recorder: &Recorder) -> Vec<FlightEvent> {
    let snaps: Vec<CounterSnapshot> = crate::metrics::snapshot_counters();
    let mut last = recorder.last_counters.lock().unwrap_or_else(|p| p.into_inner());
    let mut moved: Vec<FlightEvent> = Vec::new();
    let at_us = now_us();
    for snap in snaps {
        let prev = last.get(&snap.name).copied().unwrap_or(0);
        if snap.value != prev {
            moved.push(FlightEvent {
                seq: 0,
                at_us,
                thread: 0,
                kind: "counter".to_owned(),
                name: snap.name.clone(),
                detail: String::new(),
                value: snap.value.wrapping_sub(prev),
            });
            last.insert(snap.name, snap.value);
        }
    }
    moved
}

/// Folds counter movement into the ring (the heartbeat-tick path).
fn capture_counter_deltas(recorder: &Recorder) {
    let moved = counter_delta_events(recorder);
    if !moved.is_empty() {
        let mut ring = recorder.ring.lock().unwrap_or_else(|p| p.into_inner());
        for event in moved {
            ring.push(event);
        }
    }
}

/// Flushes the ring into the recorder's black-box directory as one
/// CRC-checked segment-store append batch: a `"blackbox"` header record
/// (run id, reason, dropped count) followed by every buffered event in
/// ring order. Returns the directory written, or `None` when no recorder
/// is installed or the flush failed (failures are reported to stderr,
/// never raised — this runs inside the panic hook).
pub(crate) fn flush_blackbox(reason: &str) -> Option<PathBuf> {
    let mut written: Option<PathBuf> = None;
    with_recorder(|r| {
        // try_lock: if the panicking thread died inside a ring push, the
        // lock may be poisoned (fine, take it) or still held by *this*
        // thread (not fine: locking again would deadlock the hook).
        let drained: Option<(Vec<FlightEvent>, u64)> = match r.ring.try_lock() {
            Ok(mut ring) => Some((ring.events.drain(..).collect(), ring.dropped)),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                let mut ring = p.into_inner();
                Some((ring.events.drain(..).collect(), ring.dropped))
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        let Some((mut events, dropped)) = drained else {
            eprintln!("flight recorder: ring busy during flush; black box skipped");
            return;
        };
        // Final counter movement goes straight into the flush output —
        // pushing it through the ring here would evict the very
        // breadcrumbs this flush exists to persist.
        events.extend(counter_delta_events(r));
        let header = FlightEvent {
            seq: 0,
            at_us: now_us(),
            thread: 0,
            kind: "blackbox".to_owned(),
            name: r.run_id.clone(),
            detail: reason.to_owned(),
            value: dropped,
        };
        match write_blackbox(&r.dir, &header, &events) {
            Ok(()) => written = Some(r.dir.clone()),
            Err(e) => eprintln!("flight recorder: black box write failed: {e}"),
        }
    });
    written
}

fn write_blackbox(dir: &Path, header: &FlightEvent, events: &[FlightEvent]) -> crate::Result<()> {
    let mut store = SegmentStore::open(dir)?;
    store.append(&header.encode())?;
    for event in events {
        store.append(&event.encode())?;
    }
    Ok(())
}

/// One line of the heartbeat stream (`heartbeat.jsonl`): coarse liveness
/// a `iotax-report watch` can tail without touching the run ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatLine {
    /// Tick number, from 1.
    pub seq: u64,
    /// Microseconds on the span clock at the tick.
    pub uptime_us: u64,
    /// Live span stacks: `(thread ordinal, /-joined open-span path)`.
    pub stacks: Vec<(u64, String)>,
    /// Full counter snapshot at the tick.
    pub counters: Vec<CounterSnapshot>,
    /// Gauge snapshot at the tick (informational, gate-exempt).
    pub gauges: Vec<crate::metrics::GaugeSnapshot>,
}

/// Handle to the background heartbeat writer; stops (and joins) the
/// thread on [`Heartbeat::stop`] or drop.
pub(crate) struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Signals the writer thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "heartbeat thread never panics; nothing to propagate at shutdown"
            )]
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the heartbeat writer: every `period_ms` it appends one
/// [`HeartbeatLine`] to `path` and folds counter movement into the
/// flight-recorder ring. Write failures are silently dropped — the
/// heartbeat is best-effort liveness, not ledger data.
pub(crate) fn start_heartbeat(path: PathBuf, period_ms: u64) -> Heartbeat {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("obs-heartbeat".to_owned())
        .spawn(move || heartbeat_loop(&path, period_ms.max(1), &stop_flag))
        .ok();
    Heartbeat { stop, handle }
}

fn heartbeat_loop(path: &Path, period_ms: u64, stop: &AtomicBool) {
    let mut seq = 0u64;
    loop {
        // Tick first — the initial "this run is alive" line lands
        // immediately, so even runs shorter than a period leave a pulse
        // for `iotax-report watch` to find.
        seq += 1;
        with_recorder(capture_counter_deltas);
        let line = HeartbeatLine {
            seq,
            uptime_us: now_us(),
            stacks: live_stacks(),
            counters: crate::metrics::snapshot_counters(),
            gauges: crate::metrics::snapshot_gauges(),
        };
        let Ok(text) = serde_json::to_string(&line) else { continue };
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            #[expect(clippy::let_underscore_must_use, reason = "best-effort liveness stream")]
            let _ = writeln!(file, "{text}");
            #[expect(clippy::let_underscore_must_use, reason = "best-effort liveness stream")]
            let _ = file.flush();
        }
        // Sleep in short slices so stop() never waits a full period.
        let mut slept = 0;
        while slept < period_ms && !stop.load(Ordering::Acquire) {
            let slice = (period_ms - slept).min(25);
            std::thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]
mod tests {
    use super::*;
    use crate::store::scan_store;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iotax-recorder-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// Installing + flushing mutate process-global recorder state, so the
    /// recorder tests serialize on the sink test lock.
    fn drain(dir: &Path) -> Vec<FlightEvent> {
        let scan = scan_store(dir).expect("scan blackbox");
        assert!(scan.is_clean(), "black box damaged: {:?}", scan.damage);
        scan.records.iter().filter_map(|r| FlightEvent::decode(&r.payload)).collect()
    }

    #[test]
    fn ring_wraps_and_reports_drops() {
        let _guard = crate::sink::test_sink_lock();
        let dir = tmp("wrap");
        install_recorder(&dir, "run-wrap", Some(4));
        for i in 0..10 {
            record_event("wrap.breadcrumb", format!("step {i}"));
        }
        let path = flush_blackbox("test wrap").expect("flush");
        let events = drain(&path);
        // Header + the 4 newest breadcrumbs; 6 dropped off the front.
        assert_eq!(events[0].kind, "blackbox");
        assert_eq!(events[0].name, "run-wrap");
        assert_eq!(events[0].detail, "test wrap");
        assert_eq!(events[0].value, 6, "dropped count");
        // Ambient counters moved by other tests may trail as "counter"
        // flush events; the ring contents proper are the breadcrumbs.
        let crumbs: Vec<&str> =
            events[1..].iter().filter(|e| e.kind == "event").map(|e| e.detail.as_str()).collect();
        assert_eq!(crumbs, ["step 6", "step 7", "step 8", "step 9"]);
        let seqs: Vec<u64> =
            events[1..].iter().filter(|e| e.kind == "event").map(|e| e.seq).collect();
        assert_eq!(seqs, [7, 8, 9, 10], "sequence numbers survive the wrap");
        RECORDER_ON.store(false, Ordering::Release);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn span_events_and_counter_deltas_reach_the_ring() {
        let _guard = crate::sink::test_sink_lock();
        let dir = tmp("spans");
        install_recorder(&dir, "run-spans", None);
        {
            let _outer = crate::span!("rec.outer");
            crate::counter!("rec.test_counter").incr(5);
            let _inner = crate::span!("rec.inner");
        }
        let path = flush_blackbox("test spans").expect("flush");
        let events = drain(&path);
        let kinds: Vec<(&str, &str)> = events
            .iter()
            .filter(|e| e.name.starts_with("rec."))
            .map(|e| (e.kind.as_str(), e.name.as_str()))
            .collect();
        assert!(kinds.contains(&("span_open", "rec.outer")));
        assert!(kinds.contains(&("span_close", "rec.inner")));
        assert!(kinds.contains(&("span_close", "rec.outer")));
        let delta = events
            .iter()
            .find(|e| e.kind == "counter" && e.name == "rec.test_counter")
            .expect("counter delta captured at flush");
        assert_eq!(delta.value, 5);
        let close = events
            .iter()
            .find(|e| e.kind == "span_close" && e.name == "rec.inner")
            .expect("inner close");
        assert_eq!(close.detail, "rec.outer/rec.inner", "close carries the full path");
        RECORDER_ON.store(false, Ordering::Release);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_flush_appends_to_the_same_store() {
        let _guard = crate::sink::test_sink_lock();
        let dir = tmp("reflush");
        install_recorder(&dir, "run-reflush", None);
        record_event("reflush.first", String::new());
        flush_blackbox("one").expect("first flush");
        record_event("reflush.second", String::new());
        flush_blackbox("two").expect("second flush");
        let events = drain(&dir);
        let headers: Vec<&str> =
            events.iter().filter(|e| e.kind == "blackbox").map(|e| e.detail.as_str()).collect();
        assert_eq!(headers, ["one", "two"]);
        assert!(events.iter().any(|e| e.name == "reflush.second"));
        RECORDER_ON.store(false, Ordering::Release);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stacks_clear_when_spans_close() {
        let _guard = crate::sink::test_sink_lock();
        let dir = tmp("stacks");
        install_recorder(&dir, "run-stacks", None);
        let thread = crate::span::thread_ordinal();
        {
            let _span = crate::span!("rec.transient");
            assert!(live_stacks().contains(&(thread, "rec.transient".to_owned())));
        }
        assert!(
            !live_stacks().iter().any(|(t, _)| *t == thread),
            "closing the last span must clear this thread's live stack"
        );
        RECORDER_ON.store(false, Ordering::Release);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_writes_parseable_lines() {
        let _guard = crate::sink::test_sink_lock();
        let dir = tmp("heartbeat");
        let path = dir.join(HEARTBEAT_FILE);
        let hb = start_heartbeat(path.clone(), 10);
        let _span = crate::span!("hb.visible");
        std::thread::sleep(Duration::from_millis(120));
        hb.stop();
        let text = std::fs::read_to_string(&path).expect("heartbeat file");
        let lines: Vec<HeartbeatLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("parseable heartbeat line"))
            .collect();
        assert!(!lines.is_empty(), "at least one tick in 120ms at 10ms period");
        assert!(lines.windows(2).all(|w| w[0].seq < w[1].seq), "ticks are ordered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_is_total_on_garbage() {
        assert_eq!(FlightEvent::decode(b"\xff\xfe not utf8"), None);
        assert_eq!(FlightEvent::decode(b"{\"not\": \"a flight event\"}"), None);
        assert_eq!(FlightEvent::decode(b""), None);
        let event = FlightEvent {
            seq: 3,
            at_us: 10,
            thread: 1,
            kind: "event".into(),
            name: "x".into(),
            detail: "y".into(),
            value: 0,
        };
        assert_eq!(FlightEvent::decode(&event.encode()), Some(event));
    }
}
