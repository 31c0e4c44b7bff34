//! Hierarchical span trees with self-time attribution and Chrome
//! trace-event export.
//!
//! The flat [`crate::span!`] histograms answer "how long does
//! `alloc.drp.split_scan` take in aggregate"; this module answers
//! "*where inside* a DRP run did the time go". When profiling is on
//! ([`set_profiling`]), every [`crate::span::SpanGuard`] additionally
//! records a node in a per-thread span tree: its parent (the span open
//! directly above it on the same thread), its depth, its start offset
//! from the process-wide profile epoch, and its duration. Closing a
//! root span flushes the finished tree into a global collector, from
//! which [`take_spans`] drains and [`chrome_trace_json`] renders a
//! `chrome://tracing` / Perfetto-loadable trace-event file.
//!
//! Self time is attributed on the fly: a closing child adds its
//! duration to its parent's `child_ns`, so
//! [`SpanRecord::self_ns`] = `dur_ns - child_ns` without a second
//! pass.
//!
//! Profiling is off by default even with recording on — span
//! trees allocate (one node per span), which the flat histograms never
//! do. The collector is bounded ([`set_capacity`]); spans beyond the
//! cap are counted in [`dropped`] rather than growing without limit.

use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::Serialize;

/// One completed span in a flushed tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span name (same key as the flat histogram).
    pub name: &'static str,
    /// Dense per-process thread index (0, 1, …) in first-span order.
    pub thread: u64,
    /// Index of the parent span *within the same batch slice*, or
    /// `None` for a root span.
    pub parent: Option<usize>,
    /// Nesting depth: 0 for roots, parent depth + 1 otherwise.
    pub depth: usize,
    /// Start offset in nanoseconds since the profile epoch (the first
    /// profiled span of the process).
    pub start_ns: u64,
    /// Total wall-clock duration.
    pub dur_ns: u64,
    /// Summed durations of direct children.
    pub child_ns: u64,
}

impl SpanRecord {
    /// Time spent in this span excluding its children.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

static PROFILING: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(1 << 19);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn collected() -> &'static Mutex<Vec<SpanRecord>> {
    static COLLECTED: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    COLLECTED.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static LOCAL: RefCell<LocalTree> = const {
        RefCell::new(LocalTree { nodes: Vec::new(), open: Vec::new() })
    };
}

struct LocalTree {
    /// Arena of this thread's spans since the last flush.
    nodes: Vec<SpanRecord>,
    /// Stack of open span indices into `nodes`.
    open: Vec<usize>,
}

/// Turns span-tree collection on or off. Requires recording to be on
/// too ([`crate::enabled`]).
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether span trees are being collected right now.
#[inline]
pub fn profiling() -> bool {
    crate::enabled() && PROFILING.load(Ordering::Relaxed)
}

/// Caps the number of spans the global collector retains; further
/// spans are dropped (and counted in [`dropped`]). Default `2^19`.
pub fn set_capacity(cap: usize) {
    CAPACITY.store(cap, Ordering::Relaxed);
}

/// Spans dropped because the collector was at capacity.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Opens a tree node for a span. Returns `None` when profiling is off
/// (the common case — [`crate::span::SpanGuard`] then skips
/// [`close_span`] entirely).
pub(crate) fn open_span(name: &'static str) -> Option<usize> {
    if !profiling() {
        return None;
    }
    let thread = THREAD_ID.with(|t| *t);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied();
        let depth = l.open.len();
        let idx = l.nodes.len();
        l.nodes.push(SpanRecord {
            name,
            thread,
            parent,
            depth,
            start_ns: now_ns(),
            dur_ns: 0,
            child_ns: 0,
        });
        l.open.push(idx);
        Some(idx)
    })
}

/// Closes the node opened as `idx`; when it was a root, flushes the
/// finished tree to the global collector. Safe against a profiling
/// toggle mid-span: the node was allocated at open time, so the close
/// always balances.
pub(crate) fn close_span(idx: usize) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let end = now_ns();
        let dur = end.saturating_sub(l.nodes[idx].start_ns);
        l.nodes[idx].dur_ns = dur;
        // RAII guards close in LIFO order, so `idx` is the top.
        debug_assert_eq!(l.open.last().copied(), Some(idx));
        l.open.pop();
        if let Some(parent) = l.nodes[idx].parent {
            l.nodes[parent].child_ns += dur;
        }
        if l.open.is_empty() {
            let batch = std::mem::take(&mut l.nodes);
            flush(batch);
        }
    });
}

fn flush(batch: Vec<SpanRecord>) {
    let mut global = collected().lock().expect("span collector poisoned");
    let cap = CAPACITY.load(Ordering::Relaxed);
    if global.len() + batch.len() > cap {
        DROPPED.fetch_add(batch.len() as u64, Ordering::Relaxed);
        return;
    }
    let offset = global.len();
    global.extend(batch.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Drains every collected span (completed trees only; spans still open
/// on some thread are not included until their root closes).
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *collected().lock().expect("span collector poisoned"))
}

/// The Chrome trace-event file. It stays a bare `{"traceEvents": …}`
/// object rather than a [`crate::doc`] envelope, because that is the
/// shape `chrome://tracing` and Perfetto load.
#[derive(Serialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    displayTimeUnit: &'static str,
    traceEvents: Vec<serde_json::Value>,
}

/// A metadata (`"ph": "M"`) event naming one thread.
#[derive(Serialize)]
struct ThreadName {
    name: &'static str,
    ph: &'static str,
    pid: u32,
    tid: u64,
    args: ThreadNameArgs,
}

#[derive(Serialize)]
struct ThreadNameArgs {
    name: String,
}

/// A complete (`"ph": "X"`) event: one span, times in microseconds.
#[derive(Serialize)]
struct Complete {
    name: &'static str,
    cat: &'static str,
    ph: &'static str,
    pid: u32,
    tid: u64,
    ts: f64,
    dur: f64,
    args: CompleteArgs,
}

#[derive(Serialize)]
struct CompleteArgs {
    self_us: f64,
    depth: usize,
}

/// Renders spans as Chrome trace-event JSON (the `{"traceEvents":
/// [...]}` object form), loadable in `chrome://tracing` and Perfetto.
/// Each span becomes a complete (`"ph": "X"`) event with microsecond
/// `ts`/`dur` and its self time and depth in `args`.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let names = threads.into_iter().map(|tid| {
        let args = ThreadNameArgs { name: format!("dbcast thread {tid}") };
        ThreadName { name: "thread_name", ph: "M", pid: 1, tid, args }.to_value()
    });
    let spans = spans.iter().map(|s| {
        Complete {
            name: s.name,
            cat: "dbcast",
            ph: "X",
            pid: 1,
            tid: s.thread,
            ts: s.start_ns as f64 / 1e3,
            dur: s.dur_ns as f64 / 1e3,
            args: CompleteArgs { self_us: s.self_ns() as f64 / 1e3, depth: s.depth },
        }
        .to_value()
    });
    let trace =
        ChromeTrace { displayTimeUnit: "ms", traceEvents: names.chain(spans).collect() };
    let mut out = serde_json::to_string(&trace).expect("a value tree renders");
    out.push('\n');
    out
}

/// Writes [`chrome_trace_json`] to `path`, creating parent
/// directories.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_chrome_trace(path: &Path, spans: &[SpanRecord]) -> io::Result<()> {
    crate::snapshot::write_file(path, &chrome_trace_json(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Vec<SpanRecord> {
        // root (10ns..90ns) with two children; self = 80 - (30 + 20).
        vec![
            SpanRecord {
                name: "root",
                thread: 0,
                parent: None,
                depth: 0,
                start_ns: 10,
                dur_ns: 80,
                child_ns: 50,
            },
            SpanRecord {
                name: "child",
                thread: 0,
                parent: Some(0),
                depth: 1,
                start_ns: 20,
                dur_ns: 30,
                child_ns: 0,
            },
            SpanRecord {
                name: "child",
                thread: 0,
                parent: Some(0),
                depth: 1,
                start_ns: 60,
                dur_ns: 20,
                child_ns: 0,
            },
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = sample_batch();
        assert_eq!(spans[0].self_ns(), 30);
        assert_eq!(spans[1].self_ns(), 30);
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace_json(&sample_batch());
        let trace: serde_json::Value = serde_json::from_str(&json).expect("trace parses");
        assert_eq!(trace.get("displayTimeUnit").and_then(|v| v.as_str()), Some("ms"));
        let events = trace.get("traceEvents").and_then(|v| v.as_seq()).expect("events");
        assert_eq!(events.len(), 4, "one thread name plus three spans");
        let text = |i: usize, key: &str| events[i].get(key).and_then(|v| v.as_str());
        let arg = |i: usize, key: &str| events[i].get("args").and_then(|a| a.get(key));
        assert_eq!((text(0, "name"), text(0, "ph")), (Some("thread_name"), Some("M")));
        assert_eq!((text(1, "name"), text(1, "ph")), (Some("root"), Some("X")));
        assert_eq!(arg(1, "self_us").and_then(|v| v.as_f64()), Some(0.03));
        assert_eq!(arg(2, "depth").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
    }

    #[test]
    fn guards_build_a_tree_and_flush_on_root_close() {
        let _lock = crate::TEST_SWITCH_LOCK.lock().unwrap();
        crate::set_enabled(true);
        set_profiling(true);
        let _ = take_spans();
        {
            let _root = crate::span!("tree.test.root");
            {
                let _inner = crate::span!("tree.test.inner");
                let _leaf = crate::span!("tree.test.leaf");
            }
            // Nothing flushes until the root closes.
            assert!(take_spans().is_empty());
        }
        set_profiling(false);
        let spans: Vec<SpanRecord> =
            take_spans().into_iter().filter(|s| s.name.starts_with("tree.test")).collect();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().position(|s| s.name == "tree.test.root").unwrap();
        let inner = spans.iter().position(|s| s.name == "tree.test.inner").unwrap();
        let leaf = spans.iter().position(|s| s.name == "tree.test.leaf").unwrap();
        assert_eq!(spans[root].parent, None);
        assert_eq!((spans[inner].depth, spans[leaf].depth), (1, 2));
        assert!(spans[root].dur_ns >= spans[inner].dur_ns);
        // One batch flushes contiguously in open order (root, inner,
        // leaf), parents remapped by the batch offset: the leaf's
        // parent is one past the inner's (= the inner itself).
        let batch_offset = spans[inner].parent.expect("inner is nested");
        assert_eq!(spans[leaf].parent, Some(batch_offset + 1));
        // Three spans open at once: the deepest sits at depth 2.
        assert_eq!(spans.iter().map(|s| s.depth).max(), Some(2));
    }

    #[test]
    fn capacity_drops_excess_batches() {
        let _lock = crate::TEST_SWITCH_LOCK.lock().unwrap();
        crate::set_enabled(true);
        set_profiling(true);
        let _ = take_spans();
        let before_dropped = dropped();
        set_capacity(0);
        {
            let _g = crate::span!("tree.test.capacity");
        }
        set_capacity(1 << 19);
        set_profiling(false);
        assert!(dropped() > before_dropped);
        assert!(take_spans().iter().all(|s| s.name != "tree.test.capacity"));
    }
}
