//! Concurrency contract of the telemetry collector: four threads emit
//! counters, observations, and spans while the main thread repeatedly calls
//! `Collector::snapshot()`. No emission may be lost, counters must be
//! monotone across snapshots, and the Prometheus text exposition must stay
//! well-formed at every intermediate snapshot. A second test checks trace propagation: span
//! trees reconstruct per request even when four threads interleave their
//! spans on the same collector, and a `pool::Pool::map_indexed` fan-out
//! parents its items under the submitting request.
//!
//! The telemetry sink is process-global, so the tests serialize on a local
//! lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use telemetry::Snapshot;

const WORKERS: usize = 4;
const EMISSIONS_PER_WORKER: u64 = 2_000;

/// Serializes the `#[test]`s in this binary: each installs its own global
/// collector and must not observe the other's traffic.
static SINK: Mutex<()> = Mutex::new(());

#[test]
fn concurrent_emission_loses_nothing_and_snapshots_stay_valid() {
    let _sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let collector = telemetry::Collector::install();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let done = &done;
        for worker in 0..WORKERS {
            scope.spawn(move || {
                for i in 0..EMISSIONS_PER_WORKER {
                    telemetry::counter("conc.events", 1);
                    telemetry::gauge("conc.last_i", i as f64);
                    telemetry::observe("conc.value", (worker * 7 + 1) as f64);
                    if i % 500 == 0 {
                        let mut span = telemetry::span("conc.burst");
                        span.record("worker", worker as u64);
                    }
                }
                if worker == WORKERS - 1 {
                    // Not a synchronization barrier — just lets the snapshot
                    // loop below terminate promptly once traffic stops.
                    done.store(true, Ordering::Relaxed);
                }
            });
        }

        // Snapshot continuously while the workers hammer the sink.
        let mut last_events = 0u64;
        let mut snapshots = 0u64;
        while !done.load(Ordering::Relaxed) {
            let snapshot = collector.snapshot();
            let events = counter_of(&snapshot, "conc.events");
            assert!(
                events >= last_events,
                "counter went backwards: {last_events} -> {events}"
            );
            last_events = events;
            assert_valid_exposition(&snapshot);
            snapshots += 1;
        }
        assert!(snapshots > 0, "snapshot loop never ran");
    });

    // Traffic has stopped (scope joined): the final snapshot must be exact.
    let snapshot = collector.snapshot();
    let total = WORKERS as u64 * EMISSIONS_PER_WORKER;
    assert_eq!(counter_of(&snapshot, "conc.events"), total);

    let hist = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "conc.value")
        .map(|(_, h)| h)
        .expect("conc.value histogram");
    assert_eq!(hist.count, total);
    // Σ over workers of EMISSIONS_PER_WORKER * (7w + 1).
    let expected_sum: f64 = (0..WORKERS)
        .map(|w| EMISSIONS_PER_WORKER as f64 * (w * 7 + 1) as f64)
        .sum();
    assert!(
        (hist.sum - expected_sum).abs() < 1e-6 * expected_sum,
        "sum {} != {expected_sum}",
        hist.sum
    );
    assert_eq!(hist.min, 1.0);
    assert_eq!(hist.max, (7 * (WORKERS - 1) + 1) as f64);

    let spans = snapshot
        .spans
        .iter()
        .find(|(name, _)| name == "conc.burst")
        .map(|(_, s)| s)
        .expect("conc.burst spans");
    assert_eq!(
        spans.count,
        WORKERS as u64 * (EMISSIONS_PER_WORKER.div_ceil(500))
    );

    assert_valid_exposition(&snapshot);
    telemetry::clear_sink();
}

#[test]
fn span_trees_reconstruct_per_request_across_pool_workers() {
    let _sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let collector = telemetry::Collector::install();

    // Scenario 1 — four concurrent "requests", one per thread. Each
    // mints its own trace root and nests spans two deep; the trees must come
    // back disjoint and correctly linked even though all four interleave
    // into one collector.
    let request_traces: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let request_traces = &request_traces;
        for worker in 0..WORKERS {
            scope.spawn(move || {
                let ctx = telemetry::TraceContext::new_root();
                let _attached = ctx.attach();
                {
                    let mut root = telemetry::span("tree.request");
                    root.record("worker", worker as u64);
                    for _ in 0..3 {
                        let _mid = telemetry::span("tree.mid");
                        let _leaf = telemetry::span("tree.leaf");
                    }
                }
                request_traces.lock().unwrap().push(ctx.trace_id);
            });
        }
    });

    let request_traces = request_traces.into_inner().unwrap();
    assert_eq!(request_traces.len(), WORKERS);
    let mut distinct = request_traces.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), WORKERS, "trace ids must be distinct");

    for &trace_id in &request_traces {
        let spans = collector.trace_spans(trace_id);
        assert_eq!(spans.len(), 7, "request tree: 1 root + 3 mid + 3 leaf");
        assert!(spans.iter().all(|s| s.trace_id == trace_id));
        let root = spans
            .iter()
            .find(|s| s.name == "tree.request")
            .expect("request root span");
        assert_eq!(root.parent_id, 0, "request span is the trace root");
        // Every non-root span links to a parent inside the same tree, and
        // the parent is the right kind: mid -> root, leaf -> mid.
        for span in spans.iter().filter(|s| s.span_id != root.span_id) {
            let parent = spans
                .iter()
                .find(|p| p.span_id == span.parent_id)
                .unwrap_or_else(|| panic!("orphaned span {:?}", span.name));
            match span.name.as_str() {
                "tree.mid" => assert_eq!(parent.name, "tree.request"),
                "tree.leaf" => assert_eq!(parent.name, "tree.mid"),
                other => panic!("unexpected span {other:?} in request tree"),
            }
        }
    }

    // Scenario 2 — one request fanning out through `map_indexed`: every
    // thread of the map attaches the submitting thread's context, so the
    // item spans must join the request's trace under the map's span, which
    // parents under the request span, despite running on four threads.
    let ctx = telemetry::TraceContext::new_root();
    let fan_trace = ctx.trace_id;
    {
        let _attached = ctx.attach();
        let _request = telemetry::span("fan.request");
        // The barrier forces the four children to be in flight at once, so
        // they provably run on four distinct threads rather than one fast
        // thread claiming every item.
        let barrier = std::sync::Barrier::new(WORKERS);
        pool::Pool::new(WORKERS).map_indexed(vec![(); WORKERS], |_, ()| {
            let _child = telemetry::span("fan.child");
            barrier.wait();
        });
    }
    let spans = collector.trace_spans(fan_trace);
    assert_eq!(spans.len(), 2 + WORKERS);
    let root = spans.iter().find(|s| s.name == "fan.request").unwrap();
    let map = spans.iter().find(|s| s.name == "pool.map_indexed").unwrap();
    assert_eq!(
        map.parent_id, root.span_id,
        "the map parents to the request"
    );
    let children: Vec<_> = spans.iter().filter(|s| s.name == "fan.child").collect();
    assert_eq!(children.len(), WORKERS);
    assert!(
        children.iter().all(|c| c.parent_id == map.span_id),
        "map items must parent to the map span"
    );
    let tids: std::collections::BTreeSet<u64> = children.iter().map(|c| c.tid).collect();
    assert!(
        tids.len() > 1,
        "fan-out should actually cross threads (got tids {tids:?})"
    );

    // Neither scenario's spans leaked into the other's trace.
    assert!(request_traces.iter().all(|&t| t != fan_trace));
    telemetry::clear_sink();
}

fn counter_of(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// The exposition must parse at any point in time, not just at rest.
fn assert_valid_exposition(snapshot: &Snapshot) {
    let text = snapshot.prometheus_text();
    if !text.is_empty() {
        gsu_serve::validate_exposition(&text).expect("valid Prometheus exposition");
    }
}
