//! Workspace-wide telemetry: hierarchical spans, monotonic counters, gauges,
//! and fixed-bucket histograms behind a pluggable global sink.
//!
//! Every layer of the analysis pipeline (sparse solvers, transient engines,
//! reachability generation, the `GsuAnalysis` φ-sweep, the simulator) emits
//! events through the free functions in this crate. When no sink is
//! installed — the default — every emission is a single relaxed atomic load
//! and nothing else, so instrumented code costs effectively nothing in
//! production paths. Installing a [`Collector`] turns the same calls into
//! in-memory aggregation that can be exported two ways:
//!
//! * [`Collector::run_report_json`] — a structured run report
//!   (`results/telemetry.json` in the bench harness), and
//! * [`Collector::chrome_trace_json`] — a Chrome `trace_event` document
//!   loadable in Perfetto / `chrome://tracing`, with spans nested per
//!   thread.
//!
//! Dependency policy: this crate is **pure `std`** (`Instant`, atomics, a
//! `Mutex`-guarded sink). The crates.io registry is unreachable in some
//! build environments this workspace targets, and the telemetry layer sits
//! below every other crate, so it must not pull in anything. For the same
//! reason it hosts [`json`], the workspace's one JSON reader and writer:
//! every crate that writes or reads a JSON document does it through that
//! module.
//!
//! # Example
//!
//! ```
//! let collector = telemetry::Collector::install();
//! {
//!     let mut span = telemetry::span("solve");
//!     telemetry::counter("solver.iterations", 42);
//!     span.record("residual", 1e-13);
//! }
//! assert_eq!(collector.counter_value("solver.iterations"), Some(42));
//! assert!(collector.chrome_trace_json().contains("\"solve\""));
//! telemetry::clear_sink();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buckets;
mod collector;
mod diag;
pub mod json;
mod log;
pub mod prometheus;
pub mod window;
pub mod work;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use collector::{Collector, FinishedSpan, HistogramSnapshot, Snapshot, SpanStats};
pub use diag::SolveDiag;
pub use log::{
    init_log_from_env, log_enabled, log_event, log_level, set_log_level, set_log_writer,
    take_log_writer, Level,
};
pub use window::{WindowHistogram, WindowSnapshot, DEFAULT_WINDOW_SECS};

/// A value attached to a span as an argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Floating-point argument.
    F64(f64),
    /// Integer argument.
    U64(u64),
    /// String argument.
    Str(String),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// A completed span as handed to the sink.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
    /// Small per-thread index (dense, assigned on first span per thread).
    pub tid: u64,
    /// Nesting depth on its thread at the time the span opened (0 = root).
    pub depth: usize,
    /// Trace id shared by every span in the same request/run tree.
    pub trace_id: u64,
    /// Unique id of this span (process-global, never reused).
    pub span_id: u64,
    /// Span id of the enclosing span, or 0 for a trace root.
    pub parent_id: u64,
    /// Arguments recorded on the span.
    pub args: Vec<(String, ArgValue)>,
}

/// Destination for telemetry events. Implementations must be cheap and
/// non-blocking enough to sit on solver hot paths.
pub trait Sink: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &str, delta: u64);
    /// Sets the gauge `name` to `value` (last write wins).
    fn gauge_set(&self, name: &str, value: f64);
    /// Records one observation of `value` into the histogram `name`.
    fn observe(&self, name: &str, value: f64);
    /// Records a completed span.
    fn record_span(&self, span: SpanRecord);
    /// Records a warning message.
    fn warning(&self, message: &str);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
    static CONTEXT: Cell<TraceContext> = const {
        Cell::new(TraceContext { trace_id: 0, span_id: 0 })
    };
}

/// Identity of the active trace on the calling thread: the trace id shared
/// by the whole request/run tree, and the span id of the innermost open
/// span (the parent of any span opened next).
///
/// Spans inherit the context automatically within a thread; across threads
/// the context must be carried explicitly — capture [`TraceContext::current`]
/// where work is submitted and [`TraceContext::attach`] it inside the
/// worker. `pool::Pool::map_indexed` does exactly this on every thread it
/// runs items on, so spans its items emit parent under the submitting span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every span in the tree; 0 means "no trace yet"
    /// (the next span opened mints a fresh trace).
    pub trace_id: u64,
    /// Span id of the innermost open span; 0 at a trace root.
    pub span_id: u64,
}

impl TraceContext {
    /// The context active on the calling thread.
    pub fn current() -> TraceContext {
        CONTEXT.with(Cell::get)
    }

    /// Mints a fresh root context: a new process-unique trace id with no
    /// parent span. The first span opened under it becomes the trace root.
    pub fn new_root() -> TraceContext {
        TraceContext {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            span_id: 0,
        }
    }

    /// Installs `self` as the calling thread's context until the returned
    /// guard drops (which restores the previous context).
    pub fn attach(self) -> ContextGuard {
        ContextGuard {
            prev: CONTEXT.with(|c| c.replace(self)),
        }
    }
}

/// Formats a trace id as the canonical 16-digit hex string used in HTTP
/// responses, wide-event lines, and `/trace?id=`.
pub fn format_trace_id(trace_id: u64) -> String {
    format!("{trace_id:016x}")
}

/// Parses a hex trace id as produced by [`format_trace_id`]; returns `None`
/// for malformed input or the reserved id 0.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Restores the previously active [`TraceContext`] when dropped; see
/// [`TraceContext::attach`].
#[derive(Debug)]
pub struct ContextGuard {
    prev: TraceContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Whether a sink is installed. The fast path of every emission; callers
/// building expensive event payloads (formatted names, derived statistics)
/// should gate on this first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Locks the sink registry, recovering the guard when a previous holder
/// panicked: the registry only stores an `Option<Arc<dyn Sink>>`, so there is
/// no half-written state to protect and telemetry must never take the
/// process down.
fn lock_sink() -> std::sync::MutexGuard<'static, Option<Arc<dyn Sink>>> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `sink` as the global telemetry destination, replacing any
/// previous one.
pub fn set_sink(sink: Arc<dyn Sink>) {
    *lock_sink() = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the global sink, restoring the no-op default.
pub fn clear_sink() {
    ENABLED.store(false, Ordering::Relaxed);
    *lock_sink() = None;
}

fn with_sink(f: impl FnOnce(&dyn Sink)) {
    if !enabled() {
        return;
    }
    let sink = lock_sink().clone();
    if let Some(sink) = sink {
        f(sink.as_ref());
    }
}

/// Adds `delta` to the monotonic counter `name`.
#[inline]
pub fn counter(name: &str, delta: u64) {
    with_sink(|s| s.counter_add(name, delta));
}

/// Sets the gauge `name` to `value` (last write wins).
#[inline]
pub fn gauge(name: &str, value: f64) {
    with_sink(|s| s.gauge_set(name, value));
}

/// Records one observation of `value` into the histogram `name`.
#[inline]
pub fn observe(name: &str, value: f64) {
    with_sink(|s| s.observe(name, value));
}

/// Records a warning message (and, when `GSU_LOG` enables `warn`, emits a
/// structured log event alongside it).
#[inline]
pub fn warning(message: &str) {
    log_event(Level::Warn, "telemetry", message, &[]);
    with_sink(|s| s.warning(message));
}

fn current_tid() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

/// Opens a span named `name`; the span closes (and is recorded) when the
/// returned guard drops. Nesting is tracked per thread — a span opened while
/// another is live on the same thread records a larger depth and renders
/// nested in the Chrome trace.
///
/// When no sink is installed (and `debug` logging is off) this returns an
/// inert guard at the cost of two atomic loads. With `GSU_LOG=debug` the
/// guard stays live even without a sink, so span durations still stream to
/// the structured log.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() && !log_enabled(Level::Debug) {
        return SpanGuard { inner: None };
    }
    let ctx = TraceContext::current();
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    let trace_id = if ctx.trace_id != 0 {
        ctx.trace_id
    } else {
        NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
    };
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let prev_context = CONTEXT.with(|c| c.replace(TraceContext { trace_id, span_id }));
    SpanGuard {
        inner: Some(SpanInner {
            name: name.to_string(),
            start: Instant::now(),
            tid: current_tid(),
            depth,
            trace_id,
            span_id,
            parent_id: ctx.span_id,
            prev_context,
            args: Vec::new(),
        }),
    }
}

struct SpanInner {
    name: String,
    start: Instant,
    tid: u64,
    depth: usize,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    prev_context: TraceContext,
    args: Vec<(String, ArgValue)>,
}

/// RAII guard for an open span; see [`span`].
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Attaches an argument to the span (a no-op on an inert guard).
    pub fn record(&mut self, key: &str, value: impl Into<ArgValue>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.args.push((key.to_string(), value.into()));
        }
    }

    /// The context `{trace_id, span_id}` this span runs under, or `None` on
    /// an inert guard.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|inner| TraceContext {
            trace_id: inner.trace_id,
            span_id: inner.span_id,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            CONTEXT.with(|c| c.set(inner.prev_context));
            let end = Instant::now();
            if log_enabled(Level::Debug) {
                let dur_us = end.duration_since(inner.start).as_micros() as u64;
                log_event(
                    Level::Debug,
                    "telemetry.span",
                    &inner.name,
                    &[("dur_us", ArgValue::U64(dur_us))],
                );
            }
            with_sink(|s| {
                s.record_span(SpanRecord {
                    name: inner.name,
                    start: inner.start,
                    end,
                    tid: inner.tid,
                    depth: inner.depth,
                    trace_id: inner.trace_id,
                    span_id: inner.span_id,
                    parent_id: inner.parent_id,
                    args: inner.args,
                })
            });
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "SpanGuard({:?}, depth {})", inner.name, inner.depth),
            None => write!(f, "SpanGuard(inert)"),
        }
    }
}

/// Installs a fresh [`Collector`] when the environment variable `var` is set
/// to `1` (the convention used by the bench harness via `GSU_TELEMETRY=1`);
/// returns the collector so the caller can export it at the end of the run.
pub fn init_from_env(var: &str) -> Option<Arc<Collector>> {
    match std::env::var(var) {
        Ok(v) if v == "1" => Some(Collector::install()),
        _ => None,
    }
}

// The sink is process-global; tests anywhere in this crate that install one
// must serialise on this lock.
#[cfg(test)]
pub(crate) static TEST_SINK_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use crate::TEST_SINK_LOCK as TEST_LOCK;

    fn with_collector<T>(f: impl FnOnce(&Arc<Collector>) -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let collector = Collector::install();
        let out = f(&collector);
        clear_sink();
        out
    }

    #[test]
    fn disabled_by_default_costs_nothing_and_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_sink();
        assert!(!enabled());
        counter("x", 1);
        observe("y", 2.0);
        gauge("g", 3.0);
        warning("nope");
        let mut s = span("inert");
        s.record("k", 1.0);
        drop(s);
        // Installing a collector afterwards sees none of it.
        let c = Collector::install();
        assert_eq!(c.counter_value("x"), None);
        assert!(c.spans().is_empty());
        assert!(c.warnings().is_empty());
        clear_sink();
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        with_collector(|c| {
            let threads = 8;
            let per_thread = 1000;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    std::thread::spawn(move || {
                        for _ in 0..per_thread {
                            counter("concurrent.test", 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("incrementer thread");
            }
            assert_eq!(
                c.counter_value("concurrent.test"),
                Some(threads * per_thread)
            );
        });
    }

    #[test]
    fn span_nesting_depths_and_order() {
        with_collector(|c| {
            {
                let mut outer = span("outer");
                outer.record("phi", 7000.0);
                {
                    let _inner1 = span("inner1");
                }
                {
                    let mut inner2 = span("inner2");
                    inner2.record("iterations", 12u64);
                    let _innermost = span("innermost");
                }
            }
            let spans = c.spans();
            // Spans finish innermost-first.
            let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["inner1", "innermost", "inner2", "outer"]);
            let depth_of = |n: &str| spans.iter().find(|s| s.name == n).unwrap().depth;
            assert_eq!(depth_of("outer"), 0);
            assert_eq!(depth_of("inner1"), 1);
            assert_eq!(depth_of("inner2"), 1);
            assert_eq!(depth_of("innermost"), 2);
            // All four spans share the trace minted at "outer", and parent
            // links reconstruct the same tree the depths suggest.
            let of = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
            let outer = of("outer");
            assert_ne!(outer.trace_id, 0);
            assert_eq!(outer.parent_id, 0, "outer is the trace root");
            for name in ["inner1", "inner2", "innermost"] {
                assert_eq!(of(name).trace_id, outer.trace_id);
            }
            assert_eq!(of("inner1").parent_id, outer.span_id);
            assert_eq!(of("inner2").parent_id, outer.span_id);
            assert_eq!(of("innermost").parent_id, of("inner2").span_id);
            // All on one thread here, so the trace nests on a single tid.
            assert_eq!(
                spans.iter().map(|s| s.tid).collect::<Vec<_>>(),
                vec![spans[0].tid; 4]
            );
        });
    }

    #[test]
    fn chrome_trace_nesting_contains_spans_within_parents() {
        let json = with_collector(|c| {
            {
                let _outer = span("parent");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span("child");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let spans = c.spans();
            let child = spans.iter().find(|s| s.name == "child").unwrap();
            let parent = spans.iter().find(|s| s.name == "parent").unwrap();
            // Chrome's B/E-free "X" rendering nests child iff the child's
            // [ts, ts+dur] interval lies within the parent's.
            assert!(child.start_us >= parent.start_us);
            assert!(child.start_us + child.dur_us <= parent.start_us + parent.dur_us);
            c.chrome_trace_json()
        });
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"parent\""));
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn histogram_and_gauge_roundtrip() {
        with_collector(|c| {
            for v in [1.0, 10.0, 100.0, 0.5] {
                observe("h", v);
            }
            gauge("g", 41.0);
            gauge("g", 42.0);
            let h = c.histogram_snapshot("h").expect("histogram exists");
            assert_eq!(h.count, 4);
            assert!((h.sum - 111.5).abs() < 1e-12);
            assert_eq!(h.min, 0.5);
            assert_eq!(h.max, 100.0);
            assert_eq!(c.gauge_value("g"), Some(42.0));
        });
    }

    #[test]
    fn run_report_is_populated() {
        let report = with_collector(|c| {
            counter("solver.iterations", 17);
            gauge("san.states.rmgd", 11.0);
            observe("fox_glynn.window_len", 40.0);
            warning("model X: dropped self-loop rate 2");
            let _s = span("evaluate");
            drop(_s);
            c.run_report_json()
        });
        for needle in [
            "\"schema\":\"gsu-telemetry-v3\"",
            "\"solver.iterations\":17",
            "\"san.states.rmgd\":11",
            "\"fox_glynn.window_len\"",
            "dropped self-loop rate",
            "\"evaluate\"",
        ] {
            assert!(report.contains(needle), "missing {needle} in {report}");
        }
    }

    #[test]
    fn new_root_context_starts_a_fresh_trace() {
        with_collector(|c| {
            {
                let _outer = span("request.a");
                // A fresh root context attached *inside* another trace
                // still breaks out.
                let _fresh = TraceContext::new_root().attach();
                let _root = span("request.b");
                let _child = span("request.b.child");
            }
            let spans = c.spans();
            let of = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
            assert_ne!(of("request.a").trace_id, of("request.b").trace_id);
            assert_eq!(of("request.b").parent_id, 0);
            assert_eq!(of("request.b.child").trace_id, of("request.b").trace_id);
            assert_eq!(of("request.b.child").parent_id, of("request.b").span_id);
            // After both guards dropped, the thread context is restored.
            let _tail = span("request.a.tail");
        });
    }

    #[test]
    fn attach_carries_a_trace_across_threads() {
        with_collector(|c| {
            let ctx = {
                let parent = span("submit");
                parent.context().expect("live guard has a context")
            };
            let worker = std::thread::spawn(move || {
                let _attached = ctx.attach();
                let _s = span("worker.task");
            });
            worker.join().expect("worker thread");
            let spans = c.spans();
            let submit = spans.iter().find(|s| s.name == "submit").unwrap();
            let task = spans.iter().find(|s| s.name == "worker.task").unwrap();
            assert_eq!(task.trace_id, submit.trace_id);
            assert_eq!(task.parent_id, submit.span_id);
            assert_ne!(task.tid, submit.tid, "worker ran on its own thread");
        });
    }

    #[test]
    fn format_trace_id_roundtrip() {
        let ctx = TraceContext::new_root();
        let hex = format_trace_id(ctx.trace_id);
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_trace_id(&hex), Some(ctx.trace_id));
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id("0"), None, "0 is the reserved null trace");
    }

    #[test]
    fn init_from_env_honours_flag() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Unset/0 → no collector; the variable name is test-local.
        assert!(init_from_env("GSU_TELEMETRY_TEST_UNSET").is_none());
        std::env::set_var("GSU_TELEMETRY_TEST_FLAG", "0");
        assert!(init_from_env("GSU_TELEMETRY_TEST_FLAG").is_none());
        std::env::set_var("GSU_TELEMETRY_TEST_FLAG", "1");
        let c = init_from_env("GSU_TELEMETRY_TEST_FLAG");
        assert!(c.is_some());
        assert!(enabled());
        clear_sink();
        std::env::remove_var("GSU_TELEMETRY_TEST_FLAG");
    }
}
