//! End-to-end test of the observability daemon: the acceptance criterion is
//! that `/metrics` answers in Prometheus text format with live counter and
//! histogram values **while a φ-sweep is running in another thread**; and
//! that a long-running daemon keeps only the newest [`TRACE_CAP`] traces.
//!
//! The telemetry sink is process-global, so the tests serialize on a local
//! lock.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gsu_serve::http::http_get;
use gsu_serve::{validate_exposition, Server, SCENARIOS_DIR};
use performability::{GsuAnalysis, GsuParams};
use telemetry::json::{self, Value};
use telemetry::{Collector, TRACE_CAP};

/// Serializes the `#[test]`s in this binary: each installs its own global
/// collector and must not observe the other's traffic.
static SINK: Mutex<()> = Mutex::new(());

#[test]
fn serves_live_metrics_during_a_sweep() {
    let _sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector.clone(), Path::new(SCENARIOS_DIR))
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(2));

    // A φ-sweep hammering the analysis from another thread for the whole
    // duration of the test, so every /metrics scrape observes a collector
    // that is being written to concurrently.
    let stop = Arc::new(AtomicBool::new(false));
    let sweep = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).expect("analysis");
            let mut evaluations = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let points = analysis.sweep_grid(8).expect("sweep");
                evaluations += points.len() as u64;
            }
            evaluations
        })
    };

    // Liveness and readiness first.
    let (status, body) = http_get(addr, "/healthz").expect("/healthz");
    assert_eq!((status, body.trim()), (200, "ok"));
    let (status, _) = http_get(addr, "/readyz").expect("/readyz");
    assert_eq!(status, 200);

    // Scrape /metrics repeatedly while the sweep runs: always a valid
    // exposition, and the evaluation counter must be visibly moving.
    let mut last_evaluations = 0.0f64;
    let mut observed_increase = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let (status, body) = http_get(addr, "/metrics").expect("/metrics");
        assert_eq!(status, 200, "metrics body: {body}");
        let samples = validate_exposition(&body).expect("valid exposition");
        assert!(samples > 0);
        // Absent until the sweep thread's first evaluation lands — treat as 0
        // and keep polling rather than racing the thread start.
        let evaluations = prometheus_value(&body, "gsu_performability_evaluations").unwrap_or(0.0);
        assert!(
            evaluations >= last_evaluations,
            "counter went backwards: {last_evaluations} -> {evaluations}"
        );
        if evaluations > last_evaluations && last_evaluations > 0.0 {
            observed_increase = true;
            break;
        }
        last_evaluations = evaluations;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        observed_increase,
        "never saw the evaluation counter move between scrapes"
    );

    // Criterion proven; release the CPU before the remaining endpoint checks
    // (this container has one core and the sweep thread hogs it).
    stop.store(true, Ordering::Relaxed);
    let swept = sweep.join().expect("sweep thread");
    assert!(swept > 0, "sweep thread never evaluated anything");

    // The exposition carries the request histogram of the scrapes themselves.
    let (_, body) = http_get(addr, "/metrics").expect("/metrics");
    assert!(
        body.contains("gsu_serve_request_us_bucket{le="),
        "request histogram missing: {body}"
    );
    assert!(body.contains("gsu_serve_request_us_count"));
    assert!(body.contains("gsu_serve_requests"));

    // /eval agrees with a direct evaluation of the same φ, and returns the
    // request's trace id.
    let (status, body) = http_get(addr, "/eval?phi=7000").expect("/eval");
    assert_eq!(status, 200, "eval body: {body}");
    let eval = json::parse(&body).expect("/eval body is JSON");
    let served_y = eval.num("y").expect("y field");
    let direct = GsuAnalysis::new(GsuParams::paper_baseline())
        .unwrap()
        .evaluate(7000.0)
        .unwrap();
    assert!(
        (served_y - direct.y).abs() < 1e-12,
        "served y = {served_y}, direct y = {}",
        direct.y
    );
    let trace_id = eval.string("trace_id").expect("trace_id field");
    assert_eq!(trace_id.len(), 16, "trace id is 16 hex digits: {trace_id}");

    // /trace?id= resolves that id to exactly this request's span tree: a
    // serve.eval root (parent_id 0) whose descendants all carry the same
    // trace id and link back to spans within the tree.
    let (status, doc) = http_get(addr, &format!("/trace?id={trace_id}")).expect("/trace?id=");
    assert_eq!(status, 200);
    let trace = json::parse(&doc).expect("/trace document is JSON");
    let events = trace.array("traceEvents").expect("traceEvents");
    assert!(
        !events.is_empty(),
        "trace {trace_id} resolved nothing: {doc}"
    );
    let args = |e: &Value| e.get("args").expect("event args").clone();
    assert!(
        events
            .iter()
            .all(|e| args(e).string("trace_id") == Ok(trace_id)),
        "foreign trace id in {doc}"
    );
    let root = events
        .iter()
        .find(|e| e.string("name") == Ok("serve.eval"))
        .expect("serve.eval span in the tree");
    assert_eq!(
        args(root).uint("parent_id"),
        Ok(0),
        "eval span is the trace root: {root:?}"
    );
    let span_ids: Vec<u64> = events
        .iter()
        .map(|e| args(e).uint("span_id").expect("span_id"))
        .collect();
    for event in events {
        let parent = args(event).uint("parent_id").expect("parent_id");
        assert!(
            parent == 0 || span_ids.contains(&parent),
            "span with dangling parent {parent}: {event:?}"
        );
    }
    // The solver flight recorder annotated at least one solve span.
    assert!(
        events
            .iter()
            .any(|e| args(e).string("solve.method").is_ok()),
        "no solve diagnostics in {doc}"
    );

    // /requests carries the request's canonical wide-event line, with the
    // parameter fingerprint and per-solve iteration counts.
    let (status, log) = http_get(addr, "/requests").expect("/requests");
    assert_eq!(status, 200);
    let line = log
        .lines()
        .find(|l| l.contains(trace_id))
        .expect("wide-event line for the eval");
    let event = json::parse(line).expect("wide-event line is JSON");
    assert_eq!(event.string("schema"), Ok("gsu-wide-event-v1"), "{line}");
    assert_eq!(event.string("trace_id"), Ok(trace_id), "{line}");
    assert_eq!(event.num("phi"), Ok(7000.0), "{line}");
    assert_eq!(event.num("y"), Ok(served_y), "{line}");
    assert_eq!(event.uint("status"), Ok(200), "{line}");
    assert!(event.string("params").is_ok(), "{line}");
    assert!(
        event.get("phases").and_then(Value::as_object).is_some(),
        "{line}"
    );
    let solves = event.array("solves").expect("solves");
    assert!(
        solves.iter().any(|s| s.uint("iterations").is_ok()),
        "wide event without solver iterations: {line}"
    );
    // The queueing-time vs service-time split is spelled out per event.
    assert!(event.uint("queue_us").is_ok(), "{line}");
    assert!(event.uint("service_us").is_ok(), "{line}");

    // /requests?n= limits to the newest lines; bad values 400 structurally.
    let (status, limited) = http_get(addr, "/requests?n=1").expect("/requests?n=1");
    assert_eq!(status, 200);
    assert_eq!(limited.lines().count(), 1, "{limited}");
    let (status, body) = http_get(addr, "/requests?n=-3").expect("/requests bad n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"param\":\"n\""), "{body}");

    // /version and the build-info gauge agree on the crate version.
    let (status, version) = http_get(addr, "/version").expect("/version");
    assert_eq!(status, 200);
    let version = json::parse(&version).expect("/version is JSON");
    assert_eq!(version.string("name"), Ok("gsu-serve"), "{version:?}");
    let (_, metrics) = http_get(addr, "/metrics").expect("/metrics");
    assert!(metrics.contains("gsu_build_info{version=\""), "{metrics}");
    assert!(
        metrics.contains("gsu_http_responses_total{status=\"200\"}"),
        "{metrics}"
    );
    // Cumulative quantile gauges carry the _alltime marker; the windowed
    // families live under distinct gsu_serve_window_* names with a route
    // label, so the two cannot be confused.
    assert!(
        metrics.contains("gsu_serve_request_us_alltime_p50 "),
        "{metrics}"
    );
    assert!(
        !metrics.contains("gsu_serve_request_us_p50 "),
        "unmarked cumulative quantile gauge: {metrics}"
    );
    for suffix in ["p50", "p90", "p99", "p999"] {
        assert!(
            metrics.contains(&format!("gsu_serve_window_request_us_{suffix}{{route=")),
            "windowed {suffix} family missing: {metrics}"
        );
    }
    assert!(
        metrics.contains("gsu_serve_window_request_total{route=\"/metrics\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("gsu_serve_inflight"), "{metrics}");
    assert!(
        metrics.contains("gsu_serve_connections_accepted"),
        "{metrics}"
    );

    // /stats renders the same windowed quantiles as JSON.
    let (status, stats) = http_get(addr, "/stats").expect("/stats");
    assert_eq!(status, 200);
    assert!(stats.starts_with("{\"schema\":\"gsu-stats-v1\""), "{stats}");
    assert!(stats.contains("\"connections\":{\"accepted\":"), "{stats}");
    assert!(stats.contains("\"route\":\"/metrics\""), "{stats}");
    assert!(stats.contains("\"p999_us\":"), "{stats}");
    let stats = json::parse(&stats).expect("/stats is JSON");
    let metrics_route = stats
        .array("routes")
        .expect("routes")
        .iter()
        .find(|r| r.string("route") == Ok("/metrics"))
        .expect("/metrics route");
    assert!(metrics_route.num("p999_us").is_ok(), "{metrics_route:?}");

    // Error handling: missing, unparsable, and out-of-domain φ all produce
    // structured bodies naming the offending parameter.
    for target in ["/eval", "/eval?phi=bogus", "/eval?phi=-5"] {
        let (status, body) = http_get(addr, target).expect(target);
        assert_eq!(status, 400, "{target}: {body}");
        let error = json::parse(&body).expect("error body is JSON");
        assert!(error.string("error").is_ok(), "{target}: {body}");
        assert_eq!(error.string("param"), Ok("phi"), "{target}: {body}");
    }
    let (status, _) = http_get(addr, "/trace?id=nothex!").expect("/trace bad id");
    assert_eq!(status, 400);

    // Trace document and 404 handling.
    let (status, body) = http_get(addr, "/trace").expect("/trace");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"traceEvents\":"), "trace: {body}");
    let (status, _) = http_get(addr, "/nope").expect("404 route");
    assert_eq!(status, 404);

    // Shut everything down and check the final numbers hang together.
    handle.shutdown();
    serving.join().expect("server thread");

    let snapshot = collector.snapshot();
    let requests = counter_of(&snapshot, "serve.requests");
    assert!(requests >= 10, "requests counted: {requests}");
    assert!(counter_of(&snapshot, "http.responses.200") >= 6);
    assert!(counter_of(&snapshot, "http.responses.400") >= 3);
    let evals = counter_of(&snapshot, "performability.evaluations");
    assert!(
        evals >= swept,
        "collector saw {evals} evaluations, sweep thread alone did {swept}"
    );
    telemetry::clear_sink();
}

#[test]
fn retains_only_the_newest_traces() {
    let _sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector.clone(), Path::new(SCENARIOS_DIR))
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(2));

    let ids: Vec<String> = (1..=TRACE_CAP + 20)
        .map(|i| {
            let (status, body) = http_get(addr, &format!("/eval?phi={}", 25 * i)).expect("/eval");
            assert_eq!(status, 200, "eval body: {body}");
            let eval = json::parse(&body).expect("/eval body is JSON");
            eval.string("trace_id").expect("trace_id field").to_string()
        })
        .collect();

    // The first eval's trace was evicted: its id still answers 200, with
    // no events, as an unknown id does. The newest resolves whole.
    assert!(trace_events(addr, &format!("/trace?id={}", ids[0])).is_empty());
    let newest = trace_events(addr, &format!("/trace?id={}", ids[ids.len() - 1]));
    assert!(
        newest.iter().any(|e| e.string("name") == Ok("serve.eval")),
        "newest trace lacks its serve.eval span: {newest:?}"
    );

    // The whole-ring export holds at most TRACE_CAP traces.
    let traces: BTreeSet<String> = trace_events(addr, "/trace")
        .iter()
        .map(|e| {
            let args = e.get("args").expect("event args");
            args.string("trace_id").expect("trace_id").to_string()
        })
        .collect();
    assert!(traces.len() <= TRACE_CAP, "{} traces served", traces.len());

    // Every wide-event line the /requests ring holds still resolves.
    let (status, log) = http_get(addr, "/requests").expect("/requests");
    assert_eq!(status, 200);
    assert_eq!(log.lines().count(), TRACE_CAP);
    for line in log.lines() {
        let event = json::parse(line).expect("wide-event line is JSON");
        let phases = event.get("phases").and_then(Value::as_object);
        if phases.is_some_and(|p| !p.is_empty()) {
            let id = event.string("trace_id").expect("trace_id");
            assert!(
                !trace_events(addr, &format!("/trace?id={id}")).is_empty(),
                "/requests line does not resolve: {line}"
            );
        }
    }
    assert!(collector.counter_value("telemetry.traces_evicted") >= Some(20));

    handle.shutdown();
    serving.join().expect("server thread");
    telemetry::clear_sink();
}

/// The `traceEvents` of the Chrome trace document served at `target`.
fn trace_events(addr: SocketAddr, target: &str) -> Vec<Value> {
    let (status, doc) = http_get(addr, target).expect(target);
    assert_eq!(status, 200, "{target}: {doc}");
    let trace = json::parse(&doc).expect("/trace document is JSON");
    trace.array("traceEvents").expect("traceEvents").to_vec()
}

fn counter_of(snapshot: &telemetry::Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// First sample value of `metric` (label-less form) in a Prometheus body.
fn prometheus_value(body: &str, metric: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let rest = line.strip_prefix(metric)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}
