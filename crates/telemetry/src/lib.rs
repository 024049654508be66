//! Workspace-wide telemetry: hierarchical spans, monotonic counters, gauges,
//! and fixed-bucket histograms behind one global [`Collector`].
//!
//! Every layer of the analysis pipeline (sparse solvers, transient engines,
//! reachability generation, the `GsuAnalysis` φ-sweep, the simulator) emits
//! events through the free functions in this crate. When no collector is
//! installed — the default — every emission is a single relaxed atomic load
//! and nothing else, so instrumented code costs effectively nothing in
//! production paths. Installing a [`Collector`] turns the same calls into
//! in-memory aggregation that can be exported two ways:
//!
//! * [`Snapshot::prometheus_text`] — the running aggregates (counters,
//!   gauges, histograms, per-name span durations) as a Prometheus text
//!   exposition, what `gsu-serve /metrics` serves, and
//! * [`Collector::chrome_trace_json`] — the spans of the newest
//!   [`TRACE_CAP`] traces as a Chrome `trace_event` document loadable in
//!   Perfetto / `chrome://tracing`, with spans nested per thread
//!   (`trace.json` in the bench harness).
//!
//! Dependency policy: this crate is **pure `std`** (`Instant`, atomics, a
//! `Mutex`-guarded global collector). The crates.io registry is unreachable
//! in some build environments this workspace targets, and the telemetry
//! layer sits below every other crate, so it must not pull in anything. For the same
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

pub use collector::{Collector, FinishedSpan, HistogramSnapshot, Snapshot, TRACE_CAP};
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

impl ArgValue {
    /// The value as a JSON literal, as every export renders it.
    pub fn to_json(&self) -> String {
        match self {
            ArgValue::F64(v) => json::fmt_f64(*v),
            ArgValue::U64(v) => v.to_string(),
            ArgValue::Str(v) => format!("\"{}\"", json::escape(v)),
        }
    }
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

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<Collector>>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
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

/// Whether a collector is installed. The fast path of every emission; callers
/// building expensive event payloads (formatted names, derived statistics)
/// should gate on this first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Locks the global slot, recovering the guard when a previous holder
/// panicked: the slot only stores an `Option<Arc<Collector>>`, so there is
/// no half-written state to protect and telemetry must never take the
/// process down.
fn lock_sink() -> std::sync::MutexGuard<'static, Option<Arc<Collector>>> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `collector` as the global telemetry destination, replacing any
/// previous one; see [`Collector::install`].
pub(crate) fn set_sink(collector: Arc<Collector>) {
    *lock_sink() = Some(collector);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the global collector, restoring the no-op default.
pub fn clear_sink() {
    ENABLED.store(false, Ordering::Relaxed);
    *lock_sink() = None;
}

fn with_sink(f: impl FnOnce(&Collector)) {
    if !enabled() {
        return;
    }
    let collector = lock_sink().clone();
    if let Some(collector) = collector {
        f(&collector);
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

/// Emits `message` as a `warn` log event (when `GSU_LOG` enables `warn`)
/// and counts it in the `telemetry.warnings` counter.
#[inline]
pub fn warning(message: &str) {
    log_event(Level::Warn, "telemetry", message, &[]);
    counter("telemetry.warnings", 1);
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
/// returned guard drops. Nesting is tracked per thread through the trace
/// context — a span opened while another is live on the same thread
/// records that span as its parent and renders nested in the Chrome trace.
///
/// When no collector is installed (and `debug` logging is off) this returns
/// an inert guard at the cost of two atomic loads. With `GSU_LOG=debug` the
/// guard stays live even without a collector, so span durations still
/// stream to the structured log.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() && !log_enabled(Level::Debug) {
        return SpanGuard { inner: None };
    }
    let ctx = TraceContext::current();
    let trace_id = if ctx.trace_id != 0 {
        ctx.trace_id
    } else {
        NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
    };
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let prev_context = CONTEXT.with(|c| c.replace(TraceContext { trace_id, span_id }));
    SpanGuard {
        inner: Some(SpanInner {
            span: FinishedSpan {
                name: name.to_string(),
                start_us: 0,
                dur_us: 0,
                tid: current_tid(),
                trace_id,
                span_id,
                parent_id: ctx.span_id,
                args: Vec::new(),
            },
            start: Instant::now(),
            prev_context,
        }),
    }
}

/// An open span: the span as it will be recorded (its times are set when
/// it closes), its start instant, and the context to restore.
struct SpanInner {
    span: FinishedSpan,
    start: Instant,
    prev_context: TraceContext,
}

/// RAII guard for an open span; see [`span`].
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Attaches an argument to the span (a no-op on an inert guard).
    pub fn record(&mut self, key: &str, value: impl Into<ArgValue>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.span.args.push((key.to_string(), value.into()));
        }
    }

    /// The context `{trace_id, span_id}` this span runs under, or `None` on
    /// an inert guard.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|inner| TraceContext {
            trace_id: inner.span.trace_id,
            span_id: inner.span.span_id,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(SpanInner {
            mut span,
            start,
            prev_context,
        }) = self.inner.take()
        {
            CONTEXT.with(|c| c.set(prev_context));
            let end = Instant::now();
            if log_enabled(Level::Debug) {
                let dur_us = end.duration_since(start).as_micros() as u64;
                log_event(
                    Level::Debug,
                    "telemetry.span",
                    &span.name,
                    &[("dur_us", ArgValue::U64(dur_us))],
                );
            }
            with_sink(|c| {
                span.start_us = c.us_since_epoch(start);
                span.dur_us = c.us_since_epoch(end).saturating_sub(span.start_us);
                c.record_span(span);
            });
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "SpanGuard({:?})", inner.span.name),
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
        assert_eq!(c.counter_value("telemetry.warnings"), None);
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
    fn span_nesting_parents_and_order() {
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
            // All four spans share the trace minted at "outer", and parent
            // links reconstruct the tree.
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
    fn warnings_are_counted() {
        with_collector(|c| {
            for i in 0..5 {
                warning(&format!("model {i}: dropped self-loop rate"));
            }
            assert_eq!(c.counter_value("telemetry.warnings"), Some(5));
        });
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
