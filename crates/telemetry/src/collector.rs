//! The in-memory [`Collector`], its concurrent [`Snapshot`], and the Chrome
//! trace export.
//!
//! Metric state is split per kind so that emission stays cheap and a
//! snapshot never stalls the emitting threads:
//!
//! * counters, gauges, histograms, and the running per-name span duration
//!   aggregates live in registries of shared atomics behind an `RwLock`ed
//!   name map — emitters take the **read** lock (writers only appear the
//!   first time a name is seen) and then update plain atomics, so
//!   concurrent emitters never contend with each other or with a
//!   concurrent [`Collector::snapshot`];
//! * finished spans are kept whole in a ring of the newest [`TRACE_CAP`]
//!   traces behind a short `Mutex` critical section (a push onto the
//!   trace's entry). Only the trace readers ([`Collector::spans`],
//!   [`Collector::trace_spans`], [`Collector::read_traces`], the Chrome
//!   export) take it; a snapshot never does.
//!
//! A snapshot is therefore *consistent per metric* (every counter value is a
//! real value the counter held) but not a cross-metric atomic cut — fine for
//! a live `/metrics` endpoint, documented here so nobody builds invariants
//! across metrics.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::buckets::{bucket_bound, bucket_index, estimate_quantile, BUCKETS};
use crate::json::escape;
use crate::ArgValue;

/// How many traces the collector keeps whole: a trace past the cap evicts
/// the oldest one.
pub const TRACE_CAP: usize = 256;

/// The trace ring: `(trace id, spans in completion order)`, oldest first.
type Traces = VecDeque<(u64, Vec<FinishedSpan>)>;

/// An `f64` stored as bits in an `AtomicU64` (std has no `AtomicF64`).
#[derive(Debug)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically replaces the value with `f(value)` via a CAS loop.
    fn update(&self, f: impl Fn(f64) -> f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some(f(f64::from_bits(bits)).to_bits())
            });
    }
}

/// One histogram, updated with atomics only — observers never block each
/// other or a concurrent snapshot.
#[derive(Debug)]
struct AtomicHistogram {
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
    buckets: [AtomicU64; BUCKETS],
    // Last observation made under a live trace, as (value, trace id). Two
    // independent relaxed atomics: a racing pair may mix value and trace id
    // from different observations, which is acceptable for an advisory
    // exemplar and keeps the hot path lock-free.
    exemplar_value: AtomicF64,
    exemplar_trace: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_value: AtomicF64::new(0.0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: f64) {
        self.sum.update(|s| s + value);
        self.min.update(|m| m.min(value));
        self.max.update(|m| m.max(value));
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        let trace_id = crate::TraceContext::current().trace_id;
        if trace_id != 0 {
            self.exemplar_value.store(value);
            self.exemplar_trace.store(trace_id, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        // Copy the bucket array first and derive the count from it, so the
        // snapshot is internally consistent even while observers run.
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load();
        let min = self.min.load();
        let max = self.max.load();
        let mean = if count > 0 { sum / count as f64 } else { 0.0 };
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            mean,
            p50: estimate_quantile(&buckets, count, min, max, 0.50),
            p95: estimate_quantile(&buckets, count, min, max, 0.95),
            p99: estimate_quantile(&buckets, count, min, max, 0.99),
            exemplar: match self.exemplar_trace.load(Ordering::Relaxed) {
                0 => None,
                trace_id => Some((trace_id, self.exemplar_value.load())),
            },
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_bound(i), c))
                .collect(),
        }
    }
}

/// A name → shared-atomic registry. Emitters take the read lock (shared with
/// snapshots and each other); the write lock is only taken the first time a
/// name appears.
#[derive(Debug)]
struct Registry<T>(RwLock<BTreeMap<String, Arc<T>>>);

impl<T> Registry<T> {
    fn new() -> Self {
        Registry(RwLock::new(BTreeMap::new()))
    }

    fn get(&self, name: &str) -> Option<Arc<T>> {
        self.0
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
        if let Some(existing) = self.get(name) {
            return existing;
        }
        self.0
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    fn entries(&self) -> Vec<(String, Arc<T>)> {
        self.0
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Read-only view of one histogram: aggregates, log₁₀-bucket estimated
/// quantiles, and the non-empty buckets themselves (as `(le, count)` pairs
/// with per-bucket, non-cumulative counts).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Last observation made under a live trace, as `(trace_id, value)` —
    /// the exemplar that links the histogram back to a concrete request.
    pub exemplar: Option<(u64, f64)>,
    /// Non-empty buckets as `(upper bound, count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
}

/// A point-in-time view of everything a [`Collector`] has aggregated.
///
/// Taken with [`Collector::snapshot`] — safe to call at any time, including
/// while other threads are emitting. It reads the metric registries only,
/// never the trace ring, so its cost does not grow with the spans recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram views, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span durations in µs per span name, sorted by name: the count, sum
    /// and max are exact, the quantiles are bucket estimates.
    pub spans: Vec<(String, HistogramSnapshot)>,
}

/// A completed span with collector-relative timestamps (microseconds).
#[derive(Debug, Clone)]
pub struct FinishedSpan {
    /// Span name.
    pub name: String,
    /// Start, µs since the collector was created.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Per-thread index.
    pub tid: u64,
    /// Trace id shared by every span in the same request/run tree.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Span id of the enclosing span, or 0 for a trace root.
    pub parent_id: u64,
    /// Arguments recorded on the span.
    pub args: Vec<(String, ArgValue)>,
}

/// The global telemetry destination: thread-safe in-memory aggregation
/// with concurrent snapshots, the trace ring, and its Chrome trace export.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    counters: Registry<AtomicU64>,
    gauges: Registry<AtomicF64>,
    histograms: Registry<AtomicHistogram>,
    // Running per-name span durations (µs), updated as each span closes, so
    // a snapshot never reads the trace ring.
    span_stats: Registry<AtomicHistogram>,
    traces: Mutex<Traces>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// Creates an empty collector; its creation instant is the trace epoch.
    pub fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            counters: Registry::new(),
            gauges: Registry::new(),
            histograms: Registry::new(),
            span_stats: Registry::new(),
            traces: Mutex::new(VecDeque::new()),
        }
    }

    /// Creates a collector and installs it as the global one.
    pub fn install() -> Arc<Self> {
        let collector = Arc::new(Collector::new());
        crate::set_sink(collector.clone());
        collector
    }

    fn lock_traces(&self) -> std::sync::MutexGuard<'_, Traces> {
        // A panic while holding the push below cannot leave the ring torn;
        // keep collecting.
        self.traces.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current value of counter `name`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|c| c.load(Ordering::Relaxed))
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|g| g.load())
    }

    /// Aggregate view of histogram `name`.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms.get(name).map(|h| h.snapshot())
    }

    /// The spans of every retained trace: oldest trace first, each trace's
    /// spans in completion order.
    pub fn spans(&self) -> Vec<FinishedSpan> {
        self.lock_traces()
            .iter()
            .flat_map(|(_, spans)| spans)
            .cloned()
            .collect()
    }

    /// Takes a point-in-time [`Snapshot`] of every aggregate.
    ///
    /// Callable concurrently with emitting threads: registries are read
    /// under shared locks and the values are plain atomic loads, so a
    /// snapshot never blocks (or is blocked by) emission, nor by a reader
    /// of the trace ring — this is what lets `gsu-serve` answer `/metrics`
    /// in the middle of a φ-sweep at a cost independent of its uptime.
    pub fn snapshot(&self) -> Snapshot {
        let histograms = |registry: &Registry<AtomicHistogram>| {
            registry
                .entries()
                .into_iter()
                .map(|(name, h)| (name, h.snapshot()))
                .collect()
        };
        Snapshot {
            counters: self
                .counters
                .entries()
                .into_iter()
                .map(|(name, c)| (name, c.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .entries()
                .into_iter()
                .map(|(name, g)| (name, g.load()))
                .collect(),
            histograms: histograms(&self.histograms),
            spans: histograms(&self.span_stats),
        }
    }

    /// Every span belonging to trace `trace_id`, in completion order. The
    /// parent links (`parent_id`) reconstruct the request's span tree
    /// exactly; an empty result means the trace is unknown, evicted, or
    /// recorded nothing.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<FinishedSpan> {
        find_trace(&self.lock_traces(), trace_id)
            .map(<[FinishedSpan]>::to_vec)
            .unwrap_or_default()
    }

    /// Calls `read` with the spans of each retained trace, in completion
    /// order, newest trace first, until it returns `false`. The ring stays
    /// locked for the walk, so `read` must not close spans, and should only
    /// pick out and copy what it needs: every span closing meanwhile waits.
    pub fn read_traces(&self, mut read: impl FnMut(&[FinishedSpan]) -> bool) {
        for (_, spans) in self.lock_traces().iter().rev() {
            if !read(spans) {
                return;
            }
        }
    }

    pub(crate) fn us_since_epoch(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }

    /// Renders the Chrome `trace_event` document (`{"traceEvents": [...]}`,
    /// complete "X" events) of every retained trace, oldest first, loadable
    /// in Perfetto or `chrome://tracing`. Every event's `args` carries
    /// `trace_id` (hex), `span_id`, and `parent_id`, so the span tree
    /// survives the export (and `gsu-bench profile` rebuilds it from exactly
    /// these fields).
    pub fn chrome_trace_json(&self) -> String {
        render_chrome_trace(self.lock_traces().iter().flat_map(|(_, spans)| spans))
    }

    /// Like [`Collector::chrome_trace_json`] but for the spans of one trace
    /// — the document behind `gsu-serve /trace?id=`.
    pub fn chrome_trace_json_for(&self, trace_id: u64) -> String {
        render_chrome_trace(find_trace(&self.lock_traces(), trace_id).unwrap_or_default())
    }

    /// Writes [`Collector::chrome_trace_json`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.chrome_trace_json())
    }

    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        self.counters
            .get_or_insert(name, || AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    }

    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        self.gauges
            .get_or_insert(name, || AtomicF64::new(value))
            .store(value);
    }

    pub(crate) fn observe(&self, name: &str, value: f64) {
        self.histograms
            .get_or_insert(name, AtomicHistogram::new)
            .observe(value);
    }

    /// Adds a closed span to its trace's entry, opening an entry (and
    /// evicting the oldest trace past [`TRACE_CAP`]) for a new trace id.
    pub(crate) fn record_span(&self, span: FinishedSpan) {
        self.span_stats
            .get_or_insert(&span.name, AtomicHistogram::new)
            .observe(span.dur_us as f64);
        let mut traces = self.lock_traces();
        if let Some((_, spans)) = traces.iter_mut().rev().find(|(id, _)| *id == span.trace_id) {
            spans.push(span);
            return;
        }
        let evicted = (traces.len() >= TRACE_CAP).then(|| traces.pop_front());
        traces.push_back((span.trace_id, vec![span]));
        drop(traces);
        if evicted.is_some() {
            self.counter_add("telemetry.traces_evicted", 1);
        }
    }
}

/// The spans of trace `trace_id`, searched from the newest end of the ring.
fn find_trace(traces: &Traces, trace_id: u64) -> Option<&[FinishedSpan]> {
    traces
        .iter()
        .rev()
        .find(|(id, _)| *id == trace_id)
        .map(|(_, spans)| spans.as_slice())
}

/// The one Chrome `trace_event` renderer behind both exports.
fn render_chrome_trace<'a>(spans: impl IntoIterator<Item = &'a FinishedSpan>) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"gsu\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{}",
            escape(&s.name),
            s.start_us,
            s.dur_us,
            s.tid
        ));
        out.push_str(&format!(
            ",\"args\":{{\"trace_id\":\"{:016x}\",\"span_id\":{},\"parent_id\":{}",
            s.trace_id, s.span_id, s.parent_id
        ));
        for (k, v) in &s.args {
            out.push_str(&format!(",\"{}\":{}", escape(k), v.to_json()));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4); see [`crate::prometheus`] for the mapping.
    pub fn prometheus_text(&self) -> String {
        crate::prometheus::render(self)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::json::parse;

    /// A root span of trace 1 lasting `dur_us`.
    fn span(name: &str, dur_us: u64) -> FinishedSpan {
        FinishedSpan {
            name: name.to_string(),
            start_us: 0,
            dur_us,
            tid: 1,
            trace_id: 1,
            span_id: 1,
            parent_id: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn empty_collector_exports_valid_skeletons() {
        let c = Collector::new();
        assert_eq!(
            c.chrome_trace_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
        let snap = c.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty());
        assert!(snap.prometheus_text().is_empty());
    }

    #[test]
    fn escaping_reaches_exports() {
        let c = Collector::new();
        c.record_span(FinishedSpan {
            args: vec![("line".to_string(), ArgValue::Str("a\nb".to_string()))],
            ..span("weird\"name\\", 3)
        });
        let doc = parse(&c.chrome_trace_json()).expect("Chrome trace is JSON");
        let events = doc.array("traceEvents").unwrap();
        assert_eq!(events[0].string("name"), Ok("weird\"name\\"));
        assert_eq!(events[0].get("args").unwrap().string("line"), Ok("a\nb"));
        let text = c.snapshot().prometheus_text();
        assert!(text.contains("gsu_span_count{span=\"weird\\\"name\\\\\"} 1"));
    }

    #[test]
    fn quantiles_exact_for_single_valued_histograms() {
        let c = Collector::new();
        for _ in 0..6 {
            c.observe("h", 16471.0);
        }
        let h = c.histogram_snapshot("h").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.p50, 16471.0);
        assert_eq!(h.p95, 16471.0);
        assert_eq!(h.p99, 16471.0);
        assert_eq!(h.buckets, vec![(1e5, 6)]);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let c = Collector::new();
        for i in 1..=1000 {
            c.observe("h", i as f64);
        }
        let h = c.histogram_snapshot("h").unwrap();
        assert!(h.min <= h.p50 && h.p50 <= h.p95);
        assert!(h.p95 <= h.p99 && h.p99 <= h.max);
        // The median of 1..=1000 lives in the (100, 1000] bucket; the
        // log-interpolated estimate must land inside it.
        assert!(h.p50 > 100.0 && h.p50 <= 1000.0, "p50 = {}", h.p50);
    }

    #[test]
    fn span_aggregates_stay_exact_over_many_spans() {
        let c = Collector::new();
        for dur_us in 1..=10_000u64 {
            c.record_span(span("many", dur_us));
        }
        let snap = c.snapshot();
        let (name, s) = &snap.spans[0];
        assert_eq!(name, "many");
        assert_eq!(s.count, 10_000);
        assert_eq!(s.sum, 50_005_000.0);
        assert_eq!(s.max, 10_000.0);
        // The median, 5000 µs, lies in the (1e3, 1e4] bucket.
        assert!(s.p50 > 1e3 && s.p50 <= 1e4, "p50 = {}", s.p50);
        let text = snap.prometheus_text();
        for line in [
            "gsu_span_count{span=\"many\"} 10000",
            "gsu_span_total_us{span=\"many\"} 50005000",
            "gsu_span_max_us{span=\"many\"} 10000",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line} in {text}");
        }
        // The estimate is exported in whole µs, like the exact families.
        let p50 = text
            .lines()
            .find_map(|l| l.strip_prefix("gsu_span_p50_us{span=\"many\"} "))
            .unwrap();
        assert_eq!(p50.parse::<f64>().unwrap(), s.p50.round(), "{p50}");
        assert!(!p50.contains('.'), "{p50}");
    }

    #[test]
    fn snapshot_does_not_wait_for_the_trace_ring() {
        let c = Arc::new(Collector::new());
        c.record_span(span("held", 5));
        let held = c.lock_traces();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = Arc::clone(&c);
        let scraper = std::thread::spawn(move || tx.send(reader.snapshot()).unwrap());
        let snap = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("snapshot blocked on the trace ring");
        assert_eq!(snap.spans[0].1.count, 1);
        drop(held);
        scraper.join().unwrap();
    }

    #[test]
    fn trace_spans_filter_and_chrome_export_carry_ids() {
        let c = Collector::new();
        let mk = |name: &str, trace_id: u64, span_id: u64, parent_id: u64| FinishedSpan {
            trace_id,
            span_id,
            parent_id,
            ..span(name, 0)
        };
        c.record_span(mk("a.root", 7, 10, 0));
        let mut child = mk("a.child", 7, 11, 10);
        child.args = vec![
            (
                "note".to_string(),
                ArgValue::Str("say \"hi\" {\"name\":\"x\"}".to_string()),
            ),
            ("residual".to_string(), ArgValue::F64(1e-13)),
        ];
        c.record_span(child);
        c.record_span(mk("b.root", 8, 12, 0));
        let spans = c.trace_spans(7);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace_id == 7));
        assert_eq!(
            spans
                .iter()
                .find(|s| s.name == "a.child")
                .unwrap()
                .parent_id,
            10
        );
        assert!(c.trace_spans(99).is_empty());

        let doc = c.chrome_trace_json_for(7);
        assert!(doc.contains("\"a.root\"") && doc.contains("\"a.child\""));
        assert!(!doc.contains("\"b.root\""));
        assert!(doc.contains("\"trace_id\":\"0000000000000007\""));
        assert!(doc.contains("\"span_id\":11,\"parent_id\":10"));
        // The unfiltered export still carries everything.
        assert!(c.chrome_trace_json().contains("\"b.root\""));
        let events = parse(&doc).expect("Chrome trace is JSON");
        let events = events.array("traceEvents").unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.string("note"), Ok("say \"hi\" {\"name\":\"x\"}"));
        assert_eq!(args.num("residual"), Ok(1e-13));
        assert_eq!(args.uint("parent_id"), Ok(10));
        assert_eq!(c.snapshot().spans.len(), 3);
    }

    #[test]
    fn trace_ring_keeps_the_newest_traces_whole() {
        let c = Collector::new();
        let traces = 10 * TRACE_CAP as u64;
        for trace_id in 1..=traces {
            c.record_span(FinishedSpan {
                trace_id,
                span_id: trace_id,
                ..span("one", 1)
            });
        }
        // A three-span trace closes leaf first, root last.
        let last = traces + 1;
        let (root, mid, leaf) = (last, last + 1, last + 2);
        for (name, span_id, parent_id) in
            [("leaf", leaf, mid), ("mid", mid, root), ("root", root, 0)]
        {
            c.record_span(FinishedSpan {
                trace_id: last,
                span_id,
                parent_id,
                ..span(name, 1)
            });
        }
        let spans = c.spans();
        assert_eq!(spans.len(), TRACE_CAP + 2);
        // Oldest retained trace first, the three-span trace last.
        assert_eq!(spans[0].trace_id, traces + 2 - TRACE_CAP as u64);
        assert_eq!(
            c.counter_value("telemetry.traces_evicted"),
            Some(9 * TRACE_CAP as u64 + 1)
        );
        assert!(c.trace_spans(1).is_empty());
        let doc = parse(&c.chrome_trace_json_for(1)).expect("Chrome trace is JSON");
        assert!(doc.array("traceEvents").unwrap().is_empty());
        let tree = c.trace_spans(last);
        let names: Vec<&str> = tree.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["leaf", "mid", "root"]);
        for s in &tree {
            assert!(
                s.parent_id == 0 || tree.iter().any(|p| p.span_id == s.parent_id),
                "orphaned span {}",
                s.name
            );
        }
        let tail: Vec<u64> = spans[TRACE_CAP - 1..].iter().map(|s| s.span_id).collect();
        assert_eq!(tail, [leaf, mid, root]);
        // The aggregates still count every span ever closed.
        let snap = c.snapshot();
        let one = snap.spans.iter().find(|(name, _)| name == "one").unwrap();
        assert_eq!(one.1.count, traces);
    }

    #[test]
    fn snapshot_sees_live_values() {
        let c = Collector::new();
        c.counter_add("a", 2);
        c.gauge_set("g", 1.5);
        c.observe("h", 3.0);
        let snap = c.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 2)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 1.5)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
        assert!(snap.prometheus_text().contains("gsu_a 2"));
    }
}
