//! Hierarchical timing spans.
//!
//! A [`SpanGuard`] times the region between its creation and drop. Guards
//! nest through a thread-local stack, so well-scoped `let _span = span!(…)`
//! bindings produce a tree per thread. Each close emits a flat
//! [`SpanRecord`] to the installed sink (close order = post-order), and
//! completed top-level spans accumulate locally so a [`Capture`] can
//! collect them as a serializable [`SpanNode`] tree — this is how
//! `TaxonomyReport` embeds its `timings` section.

use crate::sink::with_sink;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic microseconds since the process first touched the obs layer.
pub(crate) fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Process-unique span ids, allocated at open time. 0 is reserved for
/// "no parent", so the counter starts at 1.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense per-thread ordinals (main thread observes spans first in
/// every binary here, so it is ordinal 1). Stable for the lifetime of
/// the thread; never reused within a process.
pub(crate) fn thread_ordinal() -> u64 {
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// A completed span as streamed to sinks: flat, with enough structure
/// (`id`/`parent`/`thread`, plus `depth` and emission order) to
/// reassemble the tree even when parts of it ran on worker threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name, e.g. `core.grid_search`.
    pub name: String,
    /// `/`-joined ancestor names (same thread only) ending in this span's
    /// own name; cross-thread ancestry is recovered via `parent`.
    pub path: String,
    /// Nesting depth at open time (0 = top level), within this thread.
    pub depth: u32,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the parent span: the enclosing span on this thread if any,
    /// else the explicit parent passed at open time, else 0 (root).
    pub parent: u64,
    /// Dense ordinal of the thread that ran the span (main thread = 1).
    pub thread: u64,
    /// Open time, monotonic microseconds (see [`now_us`]).
    pub start_us: u64,
    /// Close minus open time, microseconds.
    pub duration_us: u64,
}

/// A lightweight cross-thread reference to an *open* span, for handing
/// to worker closures at spawn points so their spans attach to the
/// spawning span instead of floating as per-thread roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    id: u64,
}

/// Returns a handle to the innermost open span on this thread, if any.
/// Capture it *before* fanning work out (e.g. before `par_iter`) and
/// open worker spans with [`SpanGuard::enter_under`].
pub fn current_span() -> Option<SpanHandle> {
    STACK.with(|stack| stack.borrow().frames.last().map(|f| SpanHandle { id: f.id }))
}

/// A span tree node: the serde-round-trippable form embedded in reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Open time, monotonic microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub duration_us: u64,
    /// Nested spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total duration of `name` across this subtree.
    // audit:allow(dead-public-api) -- perfbench-trace, outside the workspace, reads stage times through this
    pub fn total_us(&self, name: &str) -> u64 {
        let own = if self.name == name { self.duration_us } else { 0 };
        own + self.children.iter().map(|c| c.total_us(name)).sum::<u64>()
    }
}

struct Frame {
    name: String,
    start: Instant,
    start_us: u64,
    id: u64,
    /// Parent id passed via [`SpanGuard::enter_under`]; used only when
    /// this frame has no enclosing frame on its own thread.
    explicit_parent: u64,
    children: Vec<SpanNode>,
    /// Heap-attribution slot to restore on close (`None` = heap
    /// accounting was off at open; skip the restore).
    heap_prev: Option<usize>,
}

struct CaptureSlot {
    id: u64,
    /// Stack depth when the capture was opened; spans completing at this
    /// depth are the capture's "top-level" spans.
    base_depth: usize,
    collected: Vec<SpanNode>,
}

#[derive(Default)]
struct SpanStack {
    frames: Vec<Frame>,
    captures: Vec<CaptureSlot>,
    next_capture_id: u64,
}

thread_local! {
    static STACK: RefCell<SpanStack> = RefCell::new(SpanStack::default());
}

/// RAII guard for one timing span; created by the [`span!`] macro.
/// Not `Send`: a span must close on the thread that opened it.
///
/// [`span!`]: crate::span
pub struct SpanGuard {
    // !Send + !Sync: the guard is tied to the thread-local stack.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span named `name`.
    pub fn enter(name: impl Into<String>) -> Self {
        Self::enter_under(name, None)
    }

    /// Opens a span named `name`, attached to `parent` when this thread
    /// has no enclosing span of its own. This is the spawn-point API: a
    /// worker closure opened with the spawner's [`current_span`] handle
    /// assembles under the spawning span instead of floating as a root.
    /// With an enclosing span present (the sequential fallback), natural
    /// nesting wins and the handle is ignored.
    pub fn enter_under(name: impl Into<String>, parent: Option<SpanHandle>) -> Self {
        let name = name.into();
        let start_us = now_us();
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let heap_prev = crate::alloc::enter_scope(&name);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if crate::profiler::publishing_enabled() {
                let path = stack
                    .frames
                    .iter()
                    .map(|f| f.name.as_str())
                    .chain(std::iter::once(name.as_str()))
                    .collect::<Vec<_>>()
                    .join("/");
                crate::recorder::record_span("span_open", &name, &path, 0);
                crate::profiler::publish_stack(thread_ordinal(), path);
            }
            stack.frames.push(Frame {
                name,
                start: Instant::now(),
                start_us,
                id,
                explicit_parent: parent.map_or(0, |h| h.id),
                children: Vec::new(),
                heap_prev,
            });
        });
        Self { _not_send: std::marker::PhantomData }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.frames.pop().expect("span stack underflow");
            let duration_us = frame.start.elapsed().as_micros() as u64;
            let depth = stack.frames.len() as u32;
            let parent = stack.frames.last().map_or(frame.explicit_parent, |f| f.id);
            let heap_prev = frame.heap_prev;
            let node = SpanNode {
                name: frame.name,
                start_us: frame.start_us,
                duration_us,
                children: frame.children,
            };
            let path = stack
                .frames
                .iter()
                .map(|f| f.name.as_str())
                .chain(std::iter::once(node.name.as_str()))
                .collect::<Vec<_>>()
                .join("/");
            crate::alloc::exit_scope(heap_prev);
            if crate::profiler::publishing_enabled() {
                crate::recorder::record_span("span_close", &node.name, &path, duration_us);
                let parent_path =
                    stack.frames.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join("/");
                crate::profiler::publish_stack(thread_ordinal(), parent_path);
            }
            with_sink(|sink| {
                sink.span_close(&SpanRecord {
                    name: node.name.clone(),
                    path: path.clone(),
                    depth,
                    id: frame.id,
                    parent,
                    thread: thread_ordinal(),
                    start_us: node.start_us,
                    duration_us,
                });
            });
            for slot in &mut stack.captures {
                if slot.base_depth == depth as usize {
                    slot.collected.push(node.clone());
                }
            }
            if let Some(parent) = stack.frames.last_mut() {
                parent.children.push(node);
            }
        });
    }
}

/// Marks a point in this thread's span stream; `finish` collects the
/// spans completed at the capture's own nesting depth since. See
/// [`capture`].
pub struct Capture {
    id: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Starts capturing spans on the current thread.
///
/// The capture is anchored at the stack depth where it was opened: every
/// span tree that *completes at that depth* before [`Capture::finish`] is
/// returned. Opened outside any span this means top-level spans; opened
/// inside an enclosing span (the `iotax-analyze` case — the taxonomy runs
/// under the binary's own root span) it means the enclosing span's direct
/// children, so `TaxonomyReport.timings` is populated either way.
pub fn capture() -> Capture {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let id = stack.next_capture_id;
        stack.next_capture_id += 1;
        let base_depth = stack.frames.len();
        stack.captures.push(CaptureSlot { id, base_depth, collected: Vec::new() });
        Capture { id, _not_send: std::marker::PhantomData }
    })
}

impl Capture {
    /// Returns the span trees completed since the capture started.
    pub fn finish(self) -> Vec<SpanNode> {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            match stack.captures.iter().position(|c| c.id == self.id) {
                Some(pos) => stack.captures.remove(pos).collected,
                None => Vec::new(),
            }
        })
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        // `finish` removes the slot first; this only fires for abandoned
        // captures, which must not keep collecting forever.
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.captures.iter().position(|c| c.id == self.id) {
                stack.captures.remove(pos);
            }
        });
    }
}

/// Rebuilds span trees from flat close-order records (e.g. parsed back
/// from a JSONL metrics file or a run ledger).
///
/// Within one thread, close order is post-order, so sibling order is
/// open order and is preserved. Spans opened on *other* threads attach
/// to the parent named by their `parent` id; because their arrival
/// order depends on the thread schedule, such adopted children are
/// ordered after the parent's own-thread children, sorted by
/// `(name, start_us, id)` so the assembled shape is deterministic
/// across schedules.
pub fn assemble_span_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    use std::collections::BTreeMap;

    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        by_id.insert(r.id, i);
    }
    // parent id -> child record indices, in arrival (close) order.
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if r.parent != 0 && by_id.contains_key(&r.parent) {
            children.entry(r.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }

    fn build(records: &[SpanRecord], children: &BTreeMap<u64, Vec<usize>>, i: usize) -> SpanNode {
        let r = &records[i];
        let mut idx: Vec<usize> = children.get(&r.id).cloned().unwrap_or_default();
        idx.sort_by(|&a, &b| {
            let (ra, rb) = (&records[a], &records[b]);
            let key = |rec: &SpanRecord, arrival: usize| {
                if rec.thread == r.thread {
                    // Same-thread siblings: arrival order == open order.
                    (false, String::new(), 0, 0, arrival)
                } else {
                    (true, rec.name.clone(), rec.start_us, rec.id, arrival)
                }
            };
            key(ra, a).cmp(&key(rb, b))
        });
        SpanNode {
            name: r.name.clone(),
            start_us: r.start_us,
            duration_us: r.duration_us,
            children: idx.iter().map(|&c| build(records, children, c)).collect(),
        }
    }

    roots.into_iter().map(|i| build(records, &children, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_nested_tree() {
        let cap = capture();
        {
            let _outer = crate::span!("outer");
            {
                let _a = crate::span!("a");
                let _deep = crate::span!("deep");
            }
            let _b = crate::span!("b");
        }
        let trees = cap.finish();
        assert_eq!(trees.len(), 1);
        let outer = &trees[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(
            outer.children.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(outer.children[0].children[0].name, "deep");
        assert!(outer.duration_us >= outer.children.iter().map(|c| c.duration_us).sum::<u64>());
    }

    #[test]
    fn capture_works_inside_enclosing_span() {
        // The iotax-analyze shape: the pipeline (and its capture) runs
        // under the binary's own root span.
        let _outer = crate::span!("cap.outer");
        let cap = capture();
        {
            let _stage1 = crate::span!("cap.stage1");
            let _nested = crate::span!("cap.nested");
        }
        {
            let _stage2 = crate::span!("cap.stage2");
        }
        let trees = cap.finish();
        assert_eq!(
            trees.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
            vec!["cap.stage1", "cap.stage2"]
        );
        assert_eq!(trees[0].children[0].name, "cap.nested");
    }

    #[test]
    fn abandoned_capture_stops_collecting() {
        {
            let _cap = capture(); // dropped without finish
        }
        let cap = capture();
        {
            let _span = crate::span!("cap.after_abandon");
        }
        assert_eq!(cap.finish().len(), 1);
    }

    #[test]
    fn assemble_matches_capture() {
        use crate::LedgerSink;
        use std::sync::Arc;

        let _guard = crate::sink::test_sink_lock();
        let sink = Arc::new(LedgerSink::new());
        let previous = crate::set_sink(sink.clone());
        let cap = capture();
        {
            let _outer = crate::span!("asm.outer");
            let _inner = crate::span!("asm.inner");
        }
        {
            let _second = crate::span!("asm.second");
        }
        let direct = cap.finish();
        crate::restore_sink(previous);

        // The sink is global: other tests on other threads may interleave
        // records, so keep only this test's uniquely-named spans.
        let records: Vec<_> =
            sink.span_records().into_iter().filter(|r| r.name.starts_with("asm.")).collect();
        assert_eq!(
            records.iter().map(|r| r.path.as_str()).collect::<Vec<_>>(),
            vec!["asm.outer/asm.inner", "asm.outer", "asm.second"]
        );
        let rebuilt = assemble_span_tree(&records);
        assert_eq!(rebuilt, direct);
    }

    #[test]
    fn explicit_parent_grafts_worker_spans() {
        use crate::LedgerSink;
        use std::sync::Arc;

        let _guard = crate::sink::test_sink_lock();
        let sink = Arc::new(LedgerSink::new());
        let previous = crate::set_sink(sink.clone());
        {
            let _root = crate::span!("graft.root");
            let parent = current_span();
            assert!(parent.is_some());
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    std::thread::spawn(move || {
                        let _w = SpanGuard::enter_under(format!("graft.worker{i}"), parent);
                        let _inner = crate::span!("graft.inner");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        crate::restore_sink(previous);

        let records: Vec<_> =
            sink.span_records().into_iter().filter(|r| r.name.starts_with("graft.")).collect();
        let forest = assemble_span_tree(&records);
        assert_eq!(forest.len(), 1, "workers must graft under the spawning span");
        let root = &forest[0];
        assert_eq!(root.name, "graft.root");
        assert_eq!(
            root.children.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            vec!["graft.worker0", "graft.worker1", "graft.worker2", "graft.worker3"],
            "adopted children are name-sorted, independent of close order"
        );
        for w in &root.children {
            assert_eq!(w.children.len(), 1);
            assert_eq!(w.children[0].name, "graft.inner");
        }
    }

    #[test]
    fn assembled_tree_deterministic_across_schedules() {
        use crate::LedgerSink;
        use std::sync::Arc;

        fn shape(nodes: &[SpanNode]) -> String {
            nodes
                .iter()
                .map(|n| format!("{}({})", n.name, shape(&n.children)))
                .collect::<Vec<_>>()
                .join(",")
        }

        let _guard = crate::sink::test_sink_lock();
        let mut shapes: Vec<String> = Vec::new();
        for _round in 0..8 {
            let sink = Arc::new(LedgerSink::new());
            let previous = crate::set_sink(sink.clone());
            {
                let _root = crate::span!("sched.root");
                let parent = current_span();
                let handles: Vec<_> = (0..6)
                    .map(|i| {
                        std::thread::spawn(move || {
                            let _w = SpanGuard::enter_under(format!("sched.w{i}"), parent);
                            let _inner = crate::span!("sched.inner");
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            }
            crate::restore_sink(previous);
            let records: Vec<_> =
                sink.span_records().into_iter().filter(|r| r.name.starts_with("sched.")).collect();
            shapes.push(shape(&assemble_span_tree(&records)));
        }
        assert!(
            shapes.windows(2).all(|w| w[0] == w[1]),
            "assembled shape must not depend on the thread schedule: {shapes:?}"
        );
    }

    #[test]
    fn enter_under_prefers_natural_nesting() {
        let cap = capture();
        {
            let outer = crate::span!("under.outer");
            let handle = current_span();
            {
                let _mid = crate::span!("under.mid");
                // `handle` points at under.outer, but under.mid encloses on
                // this thread — natural nesting must win.
                let _leaf = SpanGuard::enter_under("under.leaf", handle);
            }
            drop(outer);
        }
        let trees = cap.finish();
        let outer = trees.iter().find(|t| t.name == "under.outer").expect("outer captured");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "under.mid");
        assert_eq!(outer.children[0].children[0].name, "under.leaf");
    }

    #[test]
    fn total_us_sums_across_subtree() {
        let tree = SpanNode {
            name: "root".into(),
            start_us: 0,
            duration_us: 10,
            children: vec![
                SpanNode { name: "x".into(), start_us: 1, duration_us: 3, children: vec![] },
                SpanNode {
                    name: "y".into(),
                    start_us: 5,
                    duration_us: 4,
                    children: vec![SpanNode {
                        name: "x".into(),
                        start_us: 6,
                        duration_us: 2,
                        children: vec![],
                    }],
                },
            ],
        };
        assert_eq!(tree.total_us("x"), 5);
        assert_eq!(tree.total_us("root"), 10);
        assert_eq!(tree.total_us("missing"), 0);
    }
}
