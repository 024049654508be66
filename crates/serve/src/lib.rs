//! `gsu-serve`: the live observability surface of the guarded-operation
//! performability pipeline.
//!
//! A pure-`std` HTTP/1.1 daemon on [`std::net::TcpListener`] whose accept
//! thread hands connections to a fixed set of worker threads through a
//! bounded queue ([`ACCEPT_QUEUE_CAPACITY`]). Endpoints:
//!
//! | route               | body                                                        |
//! |---------------------|-------------------------------------------------------------|
//! | `GET /metrics`      | Prometheus text exposition of the live [`telemetry::Collector`] |
//! | `GET /healthz`      | liveness (`200 ok` whenever the accept loop is up)          |
//! | `GET /readyz`       | readiness (`200` once the `GsuAnalysis` is built)           |
//! | `GET /trace`        | the Chrome `trace_event` document of the newest 256 traces  |
//! | `GET /trace?id=…`   | the same document restricted to one request's span tree     |
//! | `GET /eval?phi=…`   | a span-instrumented `Y(φ)` evaluation, as JSON              |
//! | `GET /eval?phi=…&mu_new=…` | the same with paper-parameter overrides, memoized per params fingerprint in a bounded cache |
//! | `GET /eval?scenario=…&phi=…` | the same against a named `.gsu` catalog scenario   |
//! | `GET /requests`     | recent `/eval` wide-event lines (JSONL, newest last; `?n=` limits) |
//! | `GET /stats`        | windowed per-route latency quantiles and SLO attainment     |
//! | `GET /version`      | build identity (crate version, git hash, profile)           |
//! | `GET /`             | a plain-text endpoint index                                 |
//!
//! `/eval` makes the analysis itself a servable workload: every request runs
//! a real `GsuAnalysis::evaluate` under a `serve.eval` span **inside a fresh
//! trace context**, so traffic shows up in `/metrics` and `/trace` like any
//! other pipeline work — and every response carries its `trace_id`, which
//! `/trace?id=` resolves to exactly that request's span tree. Each `/eval`
//! additionally appends one canonical wide-event line (φ, parameter
//! fingerprint, per-phase wall breakdown, solver flight-recorder diags,
//! status) to a ring of [`telemetry::TRACE_CAP`] lines served by
//! `/requests`, as many as the collector keeps traces.
//!
//! Dependency policy: pure `std` + in-workspace crates, hand-rolled
//! HTTP/1.1, no TLS (see DESIGN.md, "Dependency policy").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod slo;

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use gsu_scenario::{ScenarioAnalysis, ScenarioSpec};
use performability::{GsuAnalysis, GsuParams, SweepPoint};
use telemetry::json::{self, fmt_f64};
use telemetry::{ArgValue, Collector, FinishedSpan, Level, TraceContext, WindowHistogram};

use http::{Request, Response};

/// Default number of connection-handling worker threads.
pub const DEFAULT_WORKERS: usize = 4;

/// How many accepted connections wait for a worker before the accept loop
/// stops accepting. Each holds an open socket, so the bound is what stops a
/// burst of clients from growing the daemon's memory.
pub const ACCEPT_QUEUE_CAPACITY: usize = 64;

/// Route families tracked by per-route sliding-window latency histograms;
/// any other path lands in [`OTHER_ROUTE`].
pub const WINDOW_ROUTES: &[&str] = &[
    "/",
    "/eval",
    "/healthz",
    "/metrics",
    "/readyz",
    "/requests",
    "/stats",
    "/trace",
    "/version",
];

/// Window-histogram family for paths outside [`WINDOW_ROUTES`].
pub const OTHER_ROUTE: &str = "other";

struct ServerState {
    /// The paper-baseline analysis, built at bind and never evicted.
    analysis: Arc<GsuAnalysis>,
    collector: Arc<Collector>,
    start: Instant,
    ready: AtomicBool,
    shutdown: AtomicBool,
    /// Rendered `gsu_lint_findings_total` exposition block, loaded once at
    /// startup from [`LINT_FINDINGS_PATH`]. Handlers must not touch the
    /// filesystem (blocking I/O off the accept path stalls every request
    /// queued behind the scrape), so the findings snapshot is taken before
    /// the listener starts serving; re-run `gsu-lint --emit-telemetry` and
    /// restart to refresh it.
    lint_findings: String,
    /// Committed serving SLOs (`results/SLO.json`), when present.
    slo: Option<slo::SloDoc>,
    /// Per-route sliding-window latency histograms (µs); keys are
    /// [`WINDOW_ROUTES`] plus [`OTHER_ROUTE`]. Routes under an SLO get its
    /// threshold as the window's "good" bound, so `/stats` attainment is
    /// counted exactly per request.
    windows: BTreeMap<&'static str, WindowHistogram>,
    /// Connections accepted since start.
    accepted: AtomicU64,
    /// Connections accepted but not yet picked up by a worker.
    queue_depth: AtomicU64,
    /// Connections currently inside a handler.
    inflight: AtomicU64,
    /// Hex fingerprint of the served [`GsuParams`], stamped into every
    /// wide-event line so a log mixes runs against different parameter
    /// assignments detectably.
    params_fingerprint: String,
    /// Bounded ring of canonical `/eval` wide-event JSONL lines.
    requests: Mutex<VecDeque<String>>,
    /// The `.gsu` scenario catalog served by `/eval?scenario=`, keyed by
    /// scenario name; read once by [`Server::bind`].
    scenarios: BTreeMap<String, ScenarioSpec>,
    /// Lazily built analyses for `/eval` parameter overrides (`mu_new=`,
    /// `coverage=`, `theta=`, keyed by the params fingerprint) and catalog
    /// scenarios (keyed `scenario:<name>`): each is built on first request
    /// and reused, and at most [`ANALYSIS_CACHE_CAPACITY`] are kept.
    analysis_cache: Mutex<AnalysisCache>,
}

/// How many analyses the `/eval` cache keeps. Each distinct override
/// assignment builds one, so the cap is what stops clients from growing
/// the daemon's memory without bound.
pub const ANALYSIS_CACHE_CAPACITY: usize = 32;

/// The bounded analysis cache, in insertion order. At
/// [`ANALYSIS_CACHE_CAPACITY`] entries a linear scan costs less than hashing.
#[derive(Default)]
struct AnalysisCache(VecDeque<(String, Arc<GsuAnalysis>)>);

impl AnalysisCache {
    /// The entry under `key`.
    fn get(&self, key: &str) -> Option<Arc<GsuAnalysis>> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, a)| a.clone())
    }

    /// Inserts `built` unless a concurrent build got there first, evicting
    /// the oldest insertion past capacity, and returns the cached entry.
    fn insert(&mut self, key: String, built: Arc<GsuAnalysis>) -> Arc<GsuAnalysis> {
        if let Some(raced) = self.get(&key) {
            return raced;
        }
        self.0.push_back((key, built.clone()));
        if self.0.len() > ANALYSIS_CACHE_CAPACITY {
            self.0.pop_front();
            telemetry::counter("serve.analysis_cache.evictions", 1);
        }
        built
    }
}

/// Default location of the findings file `gsu-lint --emit-telemetry`
/// writes, relative to the daemon's working directory.
pub const LINT_FINDINGS_PATH: &str = "results/lint-findings.jsonl";

/// Location of the `.gsu` scenario catalog the daemon serves, relative to
/// its working directory.
pub const SCENARIOS_DIR: &str = "scenarios";

/// A bound (but not yet running) observability daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

/// Remote control for a running [`Server`] — cloneable across threads.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), builds the
    /// paper-baseline [`GsuAnalysis`] that `/eval` serves, and reads the
    /// `.gsu` catalog that `/eval?scenario=` serves from `scenarios_dir`
    /// (usually [`SCENARIOS_DIR`]). A missing directory just disables the
    /// scenario route. `collector` is the (already installed) sink that
    /// `/metrics` and `/trace` render.
    ///
    /// # Errors
    ///
    /// Socket errors, analysis construction failures (surfaced as
    /// `io::Error` — the daemon is useless without its workload), and
    /// catalog I/O or parse errors (a deployment with a broken catalog
    /// should fail loudly, not serve a partial one).
    pub fn bind(
        addr: &str,
        collector: Arc<Collector>,
        scenarios_dir: &Path,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let params = GsuParams::paper_baseline();
        let analysis = GsuAnalysis::new(params)
            .map(Arc::new)
            .map_err(|e| std::io::Error::other(format!("building GsuAnalysis: {e}")))?;
        let scenarios = if scenarios_dir.is_dir() {
            gsu_scenario::load_dir(scenarios_dir)
                .map_err(|e| std::io::Error::other(format!("loading scenario catalog: {e}")))?
                .into_iter()
                .map(|s| (s.name.clone(), s))
                .collect()
        } else {
            BTreeMap::new()
        };
        // A missing SLO file just disables attainment reporting; a present
        // but malformed one fails bind (same policy as the scenario
        // catalog: never serve against a silently broken committed file).
        let slo_doc = if Path::new(slo::SLO_PATH).is_file() {
            Some(slo::load_slo(Path::new(slo::SLO_PATH)).map_err(std::io::Error::other)?)
        } else {
            None
        };
        let window_secs = slo_doc
            .as_ref()
            .map_or(telemetry::DEFAULT_WINDOW_SECS, |d| d.window_s);
        let windows = WINDOW_ROUTES
            .iter()
            .chain(std::iter::once(&OTHER_ROUTE))
            .map(|&route| {
                let bound_us = slo_doc
                    .as_ref()
                    .and_then(|d| d.for_endpoint(route))
                    .map(|s| s.threshold_ms * 1000.0);
                (route, WindowHistogram::new(window_secs, bound_us))
            })
            .collect();
        let state = Arc::new(ServerState {
            analysis,
            collector,
            start: Instant::now(),
            ready: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            lint_findings: lint_exposition(Path::new(LINT_FINDINGS_PATH)),
            slo: slo_doc,
            windows,
            accepted: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            params_fingerprint: params_fingerprint(&params),
            requests: Mutex::new(VecDeque::with_capacity(telemetry::TRACE_CAP)),
            scenarios,
            analysis_cache: Mutex::new(AnalysisCache::default()),
        });
        Ok(Server {
            listener,
            addr,
            state,
        })
    }

    /// The bound socket address (the real port, after `:0` resolution).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            state: self.state.clone(),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] is called, on `workers`
    /// handler threads (at least 1). The accept thread hands each
    /// connection to them through a queue of [`ACCEPT_QUEUE_CAPACITY`];
    /// when the queue is full, accepting waits, and further clients wait in
    /// the kernel's listen backlog rather than in server memory.
    pub fn run(self, workers: usize) {
        telemetry::log_event(
            Level::Info,
            "serve",
            "listening",
            &[
                ("addr", ArgValue::Str(self.addr.to_string())),
                ("workers", ArgValue::U64(workers as u64)),
            ],
        );
        let state = &*self.state;
        let (queue, pending) = mpsc::sync_channel(ACCEPT_QUEUE_CAPACITY);
        let pending = Mutex::new(pending);
        std::thread::scope(|ts| {
            for _ in 0..workers.max(1) {
                ts.spawn(|| serve_queue(state, &pending));
            }
            for conn in self.listener.incoming() {
                if state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                state.accepted.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.connections.accepted", 1);
                // Queue depth counts connections accepted but not yet picked
                // up by a worker, the one blocked in `send` included; the
                // worker decrements it as its first act, and the accept
                // timestamp rides along so that wait becomes the first
                // request's queueing time.
                let depth = state.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                telemetry::gauge("serve.queue_depth", depth as f64);
                if queue.send((stream, Instant::now())).is_err() {
                    break;
                }
            }
            // Closing the queue lets the workers drain it and exit.
            drop(queue);
        });
    }
}

/// A worker's loop: handles queued connections until the accept loop closes
/// the queue and it runs dry.
fn serve_queue(state: &ServerState, pending: &Mutex<Receiver<(TcpStream, Instant)>>) {
    loop {
        let next = pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok((stream, accepted_at)) = next else {
            return;
        };
        let depth = state.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
        telemetry::gauge("serve.queue_depth", depth as f64);
        handle_connection(state, stream, accepted_at);
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The server's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to stop, then pokes it with a throwaway
    /// connection so a blocked `accept` observes the flag.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Serves one connection: up to [`http::KEEPALIVE_MAX_REQUESTS`] sequential
/// requests when the client asks for keep-alive, one otherwise.
///
/// `accepted_at` is when the accept loop saw the connection; the gap to the
/// first `read_request` is the request's *queueing* time (waiting for a
/// worker), split out from service time in the wide events and added to the
/// latency the windowed histograms observe — saturated workers must show up
/// in the served quantiles, not hide between accept and handler.
fn handle_connection(state: &ServerState, mut stream: TcpStream, accepted_at: Instant) {
    let inflight = state.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    telemetry::gauge("serve.inflight", inflight as f64);
    // Responses are written as a handful of small segments; with Nagle on,
    // the tail segments wait out the peer's delayed ACK (~40ms) on every
    // keep-alive exchange, which would dwarf the real service time.
    let _ = stream.set_nodelay(true);
    let mut queue_us = accepted_at.elapsed().as_micros() as u64;
    for served in 0..http::KEEPALIVE_MAX_REQUESTS {
        // Every request runs under its own root trace context: spans
        // recorded while routing (the eval span and the solver spans inside
        // it) share the request's trace id, and the latency histogram
        // observed below captures that id as its exemplar.
        let ctx = TraceContext::new_root();
        let _attached = ctx.attach();
        let (request, path) = match http::read_request(&mut stream, served == 0) {
            Ok(Some(request)) => {
                let path = request.path.clone();
                (Some(request), path)
            }
            // Clean EOF: the client is done with the connection.
            Ok(None) => break,
            Err(e) => match e.kind() {
                // An idle keep-alive client timing out (or vanishing)
                // between requests is the normal end of a persistent
                // connection, not a reportable request.
                std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::UnexpectedEof
                    if served > 0 =>
                {
                    break
                }
                _ => (None, String::from("<unparsed>")),
            },
        };
        // The service clock starts once the request is in hand: on a
        // keep-alive connection the read above blocks for the client's
        // *next* request, and that idle gap is not service time.
        let start = Instant::now();
        // Close after this response unless the client asked to keep the
        // connection and the per-connection budget allows another request.
        let close = request.as_ref().is_none_or(|r| !r.keep_alive)
            || served + 1 == http::KEEPALIVE_MAX_REQUESTS;
        let response = match &request {
            Some(request) => route(state, request, queue_us),
            None => Response::text(400, "bad request: malformed request line\n"),
        };
        let write_ok = http::write_response(&mut stream, &response, close).is_ok();
        let service_us = start.elapsed().as_micros() as u64;
        let total_us = queue_us + service_us;
        telemetry::counter("serve.requests", 1);
        telemetry::counter(&format!("http.responses.{}", response.status), 1);
        telemetry::observe("serve.request_us", total_us as f64);
        window_for(state, &path).record(total_us as f64);
        telemetry::log_event(
            Level::Info,
            "serve",
            "request",
            &[
                ("path", ArgValue::Str(path)),
                ("status", ArgValue::U64(u64::from(response.status))),
                ("dur_us", ArgValue::U64(total_us)),
                ("queue_us", ArgValue::U64(queue_us)),
            ],
        );
        if close || !write_ok || request.is_none() {
            break;
        }
        // Follow-up requests on this connection start service the moment
        // their bytes are read; only the first one waited for a worker.
        queue_us = 0;
    }
    let inflight = state.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
    telemetry::gauge("serve.inflight", inflight as f64);
}

/// The sliding-window histogram tracking `path` (exact match on the known
/// route families, [`OTHER_ROUTE`] otherwise).
fn window_for<'a>(state: &'a ServerState, path: &str) -> &'a WindowHistogram {
    state
        .windows
        .get(path)
        .or_else(|| state.windows.get(OTHER_ROUTE))
        .unwrap_or_else(|| unreachable!("the `other` window family always exists"))
}

fn route(state: &ServerState, request: &Request, queue_us: u64) -> Response {
    if request.method != "GET" {
        return Response::text(405, "only GET is served\n");
    }
    match request.path.as_str() {
        "/healthz" => Response::text(200, "ok\n"),
        "/readyz" => {
            if state.ready.load(Ordering::Relaxed) {
                Response::text(200, "ready\n")
            } else {
                Response::text(503, "starting\n")
            }
        }
        "/metrics" => {
            telemetry::gauge("serve.uptime_s", state.start.elapsed().as_secs_f64());
            let mut body = state.collector.snapshot().prometheus_text();
            body.push_str(&build_info_exposition());
            body.push_str(&state.lint_findings);
            body.push_str(&window_exposition(state));
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body,
            }
        }
        "/trace" => match request.query_value("id") {
            None => Response::json(200, state.collector.chrome_trace_json()),
            Some(raw) => match telemetry::parse_trace_id(raw) {
                Some(id) => Response::json(200, state.collector.chrome_trace_json_for(id)),
                None => Response::json(
                    400,
                    format!(
                        "{{\"error\":\"unparsable trace id: {}\",\"param\":\"id\"}}",
                        json::escape(raw)
                    ),
                ),
            },
        },
        "/eval" => eval(state, request, queue_us),
        "/requests" => {
            // `?n=` limits the response to the newest n lines; bad values
            // get the same structured 400 shape as /eval's parameter
            // failures.
            let limit = match request.query_value("n") {
                None => None,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        return Response::json(
                            400,
                            format!(
                                "{{\"error\":\"unparsable n: {}\",\"param\":\"n\"}}",
                                json::escape(raw)
                            ),
                        )
                    }
                },
            };
            let ring = state.requests.lock().unwrap_or_else(|e| e.into_inner());
            let skip = limit.map_or(0, |n| ring.len().saturating_sub(n));
            let mut body = String::new();
            for line in ring.iter().skip(skip) {
                body.push_str(line);
                body.push('\n');
            }
            Response {
                status: 200,
                content_type: "application/x-ndjson",
                body,
            }
        }
        "/stats" => Response::json(200, stats_json(state)),
        "/version" => Response::json(200, version_json()),
        "/" => Response::text(
            200,
            "gsu-serve: guarded-operation performability observability daemon\n\
             GET /metrics    Prometheus exposition of the live collector\n\
             GET /healthz    liveness\n\
             GET /readyz     readiness\n\
             GET /trace      Chrome trace_event JSON (?id=HEX for one request)\n\
             GET /eval?phi=N evaluate the performability index Y(phi)\n\
             GET /eval?phi=N&mu_new=V&coverage=V&theta=V  the same with paper-parameter overrides (memoized per assignment)\n\
             GET /eval?scenario=NAME&phi=N  the same for a .gsu catalog scenario\n\
             GET /requests   recent /eval wide-event lines (JSONL; ?n=K for the newest K)\n\
             GET /stats      windowed latency quantiles and SLO attainment\n\
             GET /version    build identity\n",
        ),
        _ => Response::text(404, "no such route\n"),
    }
}

fn eval(state: &ServerState, request: &Request, queue_us: u64) -> Response {
    let started = Instant::now();
    let trace_id = TraceContext::current().trace_id;
    let scenario_name = request.query_value("scenario").map(str::to_string);
    // Every failure names the offending query parameter — `scenario` and
    // `phi` alike — so clients can distinguish a bad duration from a bad
    // scenario reference without parsing prose.
    let fail = |param: &str, phi: Option<f64>, msg: &str| -> Response {
        record_wide_event(
            state,
            trace_id,
            scenario_name.as_deref(),
            phi,
            400,
            None,
            started.elapsed(),
            queue_us,
            Some(msg),
        );
        Response::json(
            400,
            format!(
                "{{\"error\":\"{}\",\"param\":\"{param}\"}}",
                json::escape(msg)
            ),
        )
    };
    // Resolve the scenario reference first (a cheap catalog lookup) so an
    // unknown name 400s before any φ parsing or expensive model building.
    let scenario_spec = match scenario_name.as_deref() {
        None => None,
        Some(name) => match lookup_scenario(state, name) {
            Ok(spec) => Some(spec),
            Err(msg) => return fail("scenario", None, &msg),
        },
    };
    let Some(raw) = request.query_value("phi") else {
        return fail("phi", None, "missing query parameter phi");
    };
    let Ok(phi) = raw.parse::<f64>() else {
        return fail("phi", None, &format!("unparsable phi: {raw}"));
    };
    if !phi.is_finite() || phi < 0.0 {
        return fail("phi", Some(phi), &format!("phi out of domain: {phi}"));
    }
    // Paper-parameter overrides (`mu_new=`, `coverage=`, `theta=`): only
    // meaningful against the paper model, so they are rejected alongside a
    // scenario reference rather than silently ignored.
    let overridden = match paper_overrides(request) {
        Ok(params) => {
            if params.is_some() && scenario_spec.is_some() {
                return fail(
                    "scenario",
                    Some(phi),
                    "parameter overrides do not apply to catalog scenarios",
                );
            }
            params
        }
        Err((param, msg)) => return fail(param, Some(phi), &msg),
    };
    // The eval span (and every solver span nested inside it) must be dropped
    // — hence recorded — before the wide event reconstructs the request's
    // span tree from the collector.
    let result = {
        let mut span = telemetry::span("serve.eval");
        span.record("phi", phi);
        let analysis = match (scenario_spec, overridden) {
            (None, None) => Ok(state.analysis.clone()),
            (None, Some(params)) => cached_analysis(state, params_fingerprint(&params), || {
                GsuAnalysis::new(params)
                    .map_err(|e| format!("overridden analysis failed to build: {e}"))
            })
            .map_err(|msg| ("params", msg)),
            (Some(spec), _) => {
                span.record("scenario", spec.name.as_str());
                cached_analysis(state, format!("scenario:{}", spec.name), || {
                    ScenarioAnalysis::new(spec.clone())
                        .map(ScenarioAnalysis::into_analysis)
                        .map_err(|e| format!("scenario `{}` failed to build: {e}", spec.name))
                })
                .map_err(|msg| ("scenario", msg))
            }
        };
        let result = analysis
            .and_then(|analysis| analysis.evaluate(phi).map_err(|e| ("phi", e.to_string())));
        if let Ok(point) = &result {
            span.record("y", point.y);
        }
        result
    };
    match result {
        Ok(point) => {
            record_wide_event(
                state,
                trace_id,
                scenario_name.as_deref(),
                Some(phi),
                200,
                Some(point.y),
                started.elapsed(),
                queue_us,
                None,
            );
            let mut body = format!(
                "{{\"trace_id\":\"{}\"",
                telemetry::format_trace_id(trace_id)
            );
            if let Some(name) = scenario_name.as_deref() {
                let _ = write!(body, ",\"scenario\":\"{}\"", json::escape(name));
            }
            body.push(',');
            body.push_str(&sweep_point_json(&point)[1..]);
            Response::json(200, body)
        }
        Err((param, msg)) => fail(param, Some(phi), &msg),
    }
}

/// Finds a scenario by name in the loaded catalog.
fn lookup_scenario<'a>(state: &'a ServerState, name: &str) -> Result<&'a ScenarioSpec, String> {
    let scenarios = &state.scenarios;
    scenarios.get(name).ok_or_else(|| {
        if scenarios.is_empty() {
            format!("unknown scenario `{name}` (no catalog loaded)")
        } else {
            format!(
                "unknown scenario `{name}` (catalog has {}: {})",
                scenarios.len(),
                scenarios
                    .keys()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    })
}

/// Parses the paper-parameter override query values (`mu_new=`, `coverage=`,
/// `theta=`) into a validated [`GsuParams`], or `None` when no override is
/// present. Validation failures name the offending query parameter.
fn paper_overrides(request: &Request) -> Result<Option<GsuParams>, (&'static str, String)> {
    let mut params = GsuParams::paper_baseline();
    let mut any = false;
    for (name, apply) in [
        (
            "mu_new",
            (|p: GsuParams, v: f64| p.with_mu_new(v)) as fn(GsuParams, f64) -> _,
        ),
        ("coverage", |p: GsuParams, v: f64| p.with_coverage(v)),
        ("theta", |p: GsuParams, v: f64| p.with_theta(v)),
    ] {
        let Some(raw) = request.query_value(name) else {
            continue;
        };
        let Ok(value) = raw.parse::<f64>() else {
            return Err((name, format!("unparsable {name}: {raw}")));
        };
        params = apply(params, value).map_err(|e| (name, e.to_string()))?;
        any = true;
    }
    Ok(any.then_some(params))
}

/// Returns the cached analysis under `key`, building (and caching) it with
/// `build` on first use. Construction runs inside the caller's `serve.eval`
/// span, so cold-start cost is visible in the request's trace.
fn cached_analysis(
    state: &ServerState,
    key: String,
    build: impl FnOnce() -> Result<GsuAnalysis, String>,
) -> Result<Arc<GsuAnalysis>, String> {
    let lock = || {
        state
            .analysis_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    };
    if let Some(hit) = lock().get(&key) {
        telemetry::counter("serve.analysis_cache.hits", 1);
        return Ok(hit);
    }
    // Built outside the lock: a slow cold start must not block requests for
    // cached analyses. A lost race just builds twice.
    telemetry::counter("serve.analysis_cache.misses", 1);
    let built = Arc::new(build()?);
    Ok(lock().insert(key, built))
}

/// Builds the canonical wide-event line for one `/eval` request — trace id,
/// parameter fingerprint, outcome, the queueing-time vs service-time split,
/// per-phase wall breakdown, and the flight-recorder diagnostics of every
/// solve the request ran — and appends it to the bounded `/requests` ring.
///
/// `wall` is pure *service* time (request read to response written);
/// `queue_us` is how long the connection waited for a worker before
/// service began (0 for keep-alive follow-ups). `wall_us` stays the service
/// wall for compatibility; `service_us` spells the same value explicitly
/// next to `queue_us`.
#[allow(clippy::too_many_arguments)]
fn record_wide_event(
    state: &ServerState,
    trace_id: u64,
    scenario: Option<&str>,
    phi: Option<f64>,
    status: u16,
    y: Option<f64>,
    wall: std::time::Duration,
    queue_us: u64,
    error: Option<&str>,
) {
    let spans = state.collector.trace_spans(trace_id);
    let mut line = format!(
        "{{\"schema\":\"gsu-wide-event-v1\",\"trace_id\":\"{}\",\"params\":\"{}\",\
         \"phi\":{},\"status\":{status},\"wall_us\":{},\"queue_us\":{queue_us},\
         \"service_us\":{}",
        telemetry::format_trace_id(trace_id),
        state.params_fingerprint,
        phi.map_or_else(|| "null".to_string(), fmt_f64),
        wall.as_micros(),
        wall.as_micros()
    );
    if let Some(scenario) = scenario {
        let _ = write!(line, ",\"scenario\":\"{}\"", json::escape(scenario));
    }
    if let Some(y) = y {
        let _ = write!(line, ",\"y\":{}", fmt_f64(y));
    }
    if let Some(error) = error {
        let _ = write!(line, ",\"error\":\"{}\"", json::escape(error));
    }
    let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &spans {
        let entry = phases.entry(s.name.as_str()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += s.dur_us;
    }
    line.push_str(",\"phases\":{");
    for (i, (name, (count, total_us))) in phases.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "\"{}\":{{\"count\":{count},\"total_us\":{total_us}}}",
            json::escape(name)
        );
    }
    line.push_str("},\"solves\":[");
    let mut first = true;
    for s in &spans {
        if let Some(solve) = solve_json(s) {
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&solve);
        }
    }
    line.push_str("]}");

    let mut ring = state.requests.lock().unwrap_or_else(|e| e.into_inner());
    while ring.len() >= telemetry::TRACE_CAP {
        ring.pop_front();
    }
    ring.push_back(line);
}

/// Renders one span's `solve.*` flight-recorder args as a JSON object, or
/// `None` for spans that are not solves.
fn solve_json(span: &FinishedSpan) -> Option<String> {
    if !span.args.iter().any(|(k, _)| k == "solve.method") {
        return None;
    }
    let mut out = format!("{{\"span\":\"{}\"", json::escape(&span.name));
    for (key, value) in &span.args {
        let Some(field) = key.strip_prefix("solve.") else {
            continue;
        };
        let _ = write!(out, ",\"{}\":", json::escape(field));
        match value {
            ArgValue::F64(v) => out.push_str(&fmt_f64(*v)),
            ArgValue::U64(v) => out.push_str(&v.to_string()),
            ArgValue::Str(v) => {
                let _ = write!(out, "\"{}\"", json::escape(v));
            }
        }
    }
    out.push('}');
    Some(out)
}

/// Crate version baked into the binary.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git hash baked in at build time via the `GSU_GIT_HASH` environment
/// variable (`scripts/check.sh` exports it); `"unknown"` otherwise.
pub fn git_hash() -> &'static str {
    option_env!("GSU_GIT_HASH").unwrap_or("unknown")
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The `gsu_build_info` exposition block: a constant-1 gauge whose labels
/// carry the build identity, the conventional Prometheus idiom for joining
/// metrics against versions.
pub fn build_info_exposition() -> String {
    format!(
        "# HELP gsu_build_info Build identity of the serving binary (value is always 1).\n\
         # TYPE gsu_build_info gauge\n\
         gsu_build_info{{version=\"{VERSION}\",git=\"{}\",profile=\"{}\"}} 1\n",
        git_hash(),
        profile()
    )
}

/// The `/version` response document.
pub fn version_json() -> String {
    format!(
        "{{\"name\":\"gsu-serve\",\"version\":\"{VERSION}\",\"git\":\"{}\",\"profile\":\"{}\"}}",
        git_hash(),
        profile()
    )
}

/// FNV-1a fingerprint of a parameter assignment, as 16 hex digits. Stable
/// across runs of the same build for the same parameters; any field change
/// changes the fingerprint.
pub fn params_fingerprint(params: &GsuParams) -> String {
    let repr = format!("{params:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in repr.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Renders a [`SweepPoint`] as the `/eval` response document.
pub fn sweep_point_json(point: &SweepPoint) -> String {
    format!(
        "{{\"phi\":{},\"y\":{},\"e_w0\":{},\"e_w_phi\":{},\"y_s1\":{},\"y_s2\":{},\"gamma\":{}}}",
        fmt_f64(point.phi),
        fmt_f64(point.y),
        fmt_f64(point.e_w0),
        fmt_f64(point.e_w_phi),
        fmt_f64(point.y_s1),
        fmt_f64(point.y_s2),
        fmt_f64(point.gamma)
    )
}

/// Renders the `gsu_lint_findings_total` exposition block from the findings
/// file `gsu-lint --emit-telemetry` writes. A missing file means lint has
/// not run — the block is omitted entirely; a present-but-empty file yields
/// an explicit zero sample so dashboards can tell "clean" from "never ran".
pub fn lint_exposition(path: &Path) -> String {
    let Ok(text) = std::fs::read_to_string(path) else {
        return String::new();
    };
    let mut out = String::from(
        "# HELP gsu_lint_findings_total Unsuppressed gsu-lint findings by rule and severity.\n\
         # TYPE gsu_lint_findings_total gauge\n",
    );
    match gsu_lint::report::parse_jsonl(&text) {
        Ok(findings) if findings.is_empty() => {
            out.push_str("gsu_lint_findings_total 0\n");
        }
        Ok(findings) => {
            let mut counts: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
            for f in &findings {
                *counts
                    .entry((f.rule.clone(), f.severity.as_str()))
                    .or_insert(0) += 1;
            }
            for ((rule, severity), n) in &counts {
                let _ = writeln!(
                    out,
                    "gsu_lint_findings_total{{rule=\"{rule}\",severity=\"{severity}\"}} {n}"
                );
            }
        }
        Err(e) => {
            // A tampered or truncated findings file must not take /metrics
            // down; surface the problem as a comment the validator skips.
            let _ = writeln!(out, "# gsu-lint findings file invalid: {e}");
        }
    }
    out
}

/// The recent-window exposition block appended to `/metrics`: per-route
/// latency quantiles over the sliding window, under `gsu_serve_window_*`
/// family names disjoint from the cumulative `*_alltime_*` gauges so
/// dashboards cannot mistake one for the other. Routes with no traffic in
/// the window are omitted; an entirely idle window contributes nothing.
fn window_exposition(state: &ServerState) -> String {
    let snaps: Vec<(&str, telemetry::WindowSnapshot)> = state
        .windows
        .iter()
        .map(|(route, w)| (*route, w.snapshot()))
        .filter(|(_, s)| s.count > 0)
        .collect();
    let Some((_, first)) = snaps.first() else {
        return String::new();
    };
    let mut out = format!(
        "# HELP gsu_serve_window_seconds Width of the sliding latency window.\n\
         # TYPE gsu_serve_window_seconds gauge\n\
         gsu_serve_window_seconds {}\n",
        first.window_secs
    );
    for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
        let _ = writeln!(out, "# TYPE gsu_serve_window_request_us_{suffix} gauge");
        for (route, snap) in &snaps {
            let _ = writeln!(
                out,
                "gsu_serve_window_request_us_{suffix}{{route=\"{route}\"}} {}",
                snap.quantile(q)
            );
        }
    }
    let _ = writeln!(out, "# TYPE gsu_serve_window_request_total gauge");
    for (route, snap) in &snaps {
        let _ = writeln!(
            out,
            "gsu_serve_window_request_total{{route=\"{route}\"}} {}",
            snap.count
        );
    }
    out
}

/// The `/stats` response: windowed per-route latency quantiles plus, when
/// `results/SLO.json` was loaded, per-endpoint SLO attainment and burn rate.
///
/// Burn rate is the error-budget spend ratio `(1 - attainment) / (1 -
/// target)`: 1.0 means failures arrive exactly as fast as the SLO tolerates,
/// above 1.0 the budget is burning down. Endpoints with no traffic in the
/// window report `null` attainment/burn and count as (vacuously) met.
fn stats_json(state: &ServerState) -> String {
    let window_secs = window_for(state, OTHER_ROUTE).window_secs();
    let mut out = format!(
        "{{\"schema\":\"gsu-stats-v1\",\"uptime_s\":{},\"window_s\":{window_secs},\
         \"connections\":{{\"accepted\":{},\"queue_depth\":{},\"inflight\":{}}},\"routes\":[",
        fmt_f64(state.start.elapsed().as_secs_f64()),
        state.accepted.load(Ordering::Relaxed),
        state.queue_depth.load(Ordering::Relaxed),
        state.inflight.load(Ordering::Relaxed),
    );
    let mut first = true;
    for (route, window) in &state.windows {
        let snap = window.snapshot();
        if snap.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"route\":\"{route}\",\"count\":{},\"mean_us\":{},\"p50_us\":{},\
             \"p90_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
            snap.count,
            fmt_f64(snap.mean()),
            fmt_f64(snap.quantile(0.50)),
            fmt_f64(snap.quantile(0.90)),
            fmt_f64(snap.quantile(0.99)),
            fmt_f64(snap.quantile(0.999)),
            fmt_f64(snap.max),
        );
    }
    out.push_str("],\"slos\":[");
    if let Some(doc) = &state.slo {
        for (i, def) in doc.slos.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let snap = window_for(state, &def.endpoint).snapshot();
            let attainment = snap.attainment();
            let burn = attainment.map(|a| (1.0 - a) / (1.0 - def.target));
            let met = attainment.is_none_or(|a| a >= def.target);
            let _ = write!(
                out,
                "{{\"endpoint\":\"{}\",\"threshold_ms\":{},\"target\":{},\"count\":{},\
                 \"attainment\":{},\"burn_rate\":{},\"met\":{met}}}",
                json::escape(&def.endpoint),
                fmt_f64(def.threshold_ms),
                fmt_f64(def.target),
                snap.count,
                attainment.map_or_else(|| "null".to_string(), fmt_f64),
                burn.map_or_else(|| "null".to_string(), fmt_f64),
            );
        }
    }
    out.push_str("]}");
    out
}

/// Validates a Prometheus text exposition: every sample line must be
/// `name[{labels}] value` with a parsable value and a legal metric name.
/// Returns the number of samples.
///
/// # Errors
///
/// A description of the first malformed line.
pub fn validate_exposition(body: &str) -> Result<usize, String> {
    let mut samples = 0;
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", i + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: unparsable value: {line:?}", i + 1))?;
        let name = series.split('{').next().unwrap_or("");
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: illegal metric name: {line:?}", i + 1));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {}: unterminated labels: {line:?}", i + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_validator_accepts_and_rejects() {
        let good = "# TYPE gsu_x counter\ngsu_x 1\ngsu_h_bucket{le=\"+Inf\"} 4\ngsu_g 1.5e-3\n";
        assert_eq!(validate_exposition(good), Ok(3));
        assert!(validate_exposition("").is_err());
        assert!(validate_exposition("gsu_x one\n").is_err());
        assert!(validate_exposition("bad-name 1\n").is_err());
        assert!(validate_exposition("gsu_x{le=\"1\" 2\n").is_err());
    }

    #[test]
    fn lint_exposition_states() {
        let dir = std::env::temp_dir().join(format!("gsu-serve-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("lint-findings.jsonl");

        // Missing file: lint never ran, no block at all.
        assert_eq!(lint_exposition(&dir.join("absent.jsonl")), "");

        // Empty file: explicit zero sample.
        std::fs::write(&file, "").unwrap();
        let body = lint_exposition(&file);
        assert!(body.contains("gsu_lint_findings_total 0"), "{body}");
        assert!(validate_exposition(&body).is_ok(), "{body}");

        // Real findings aggregate by (rule, severity).
        let findings = [
            gsu_lint::Finding::new("no-unwrap", "crates/a/src/lib.rs:1", "m", "s"),
            gsu_lint::Finding::new("no-unwrap", "crates/b/src/lib.rs:2", "m", "s"),
            gsu_lint::Finding::new("san-place-bound", "model RMGd / place 'x'", "m", "s"),
        ];
        let doc: String = findings.iter().map(|f| f.to_jsonl() + "\n").collect();
        std::fs::write(&file, doc).unwrap();
        let body = lint_exposition(&file);
        assert!(
            body.contains("gsu_lint_findings_total{rule=\"no-unwrap\",severity=\"deny\"} 2"),
            "{body}"
        );
        assert!(
            body.contains("gsu_lint_findings_total{rule=\"san-place-bound\",severity=\"warn\"} 1"),
            "{body}"
        );
        assert!(validate_exposition(&body).is_ok(), "{body}");

        // A tampered file degrades to a comment, never a broken exposition.
        std::fs::write(&file, "{\"schema\":\"gsu-lint-v0\"}\n").unwrap();
        let body = lint_exposition(&file);
        assert!(body.contains("# gsu-lint findings file invalid"), "{body}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_info_and_version_carry_identity() {
        let block = build_info_exposition();
        assert!(validate_exposition(&block).is_ok(), "{block}");
        assert!(block.contains(&format!("version=\"{VERSION}\"")), "{block}");
        assert!(block.contains("profile=\""), "{block}");
        let json = version_json();
        assert!(json.contains("\"name\":\"gsu-serve\""), "{json}");
        assert!(
            json.contains(&format!("\"version\":\"{VERSION}\"")),
            "{json}"
        );
        assert!(json.contains("\"git\":"), "{json}");
        let doc = json::parse(&json).expect("/version is JSON");
        assert_eq!(doc.string("version"), Ok(VERSION));
        assert!(doc.string("git").is_ok() && doc.string("profile").is_ok());
    }

    #[test]
    fn params_fingerprint_is_stable_and_sensitive() {
        let base = GsuParams::paper_baseline();
        let fp = params_fingerprint(&base);
        assert_eq!(fp.len(), 16);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(fp, params_fingerprint(&base));
        let tweaked = base.with_coverage(0.5).unwrap();
        assert_ne!(fp, params_fingerprint(&tweaked));
    }

    #[test]
    fn solve_json_renders_flight_recorder_args_only() {
        let mut span = FinishedSpan {
            name: "markov.solve.uniformization".to_string(),
            start_us: 0,
            dur_us: 10,
            tid: 1,
            trace_id: 7,
            span_id: 3,
            parent_id: 2,
            args: vec![
                (
                    "solve.method".to_string(),
                    ArgValue::Str("uniformization".into()),
                ),
                ("solve.iterations".to_string(), ArgValue::U64(42)),
                (
                    "solve.uniformization_rate".to_string(),
                    ArgValue::F64(1224.0),
                ),
                ("states".to_string(), ArgValue::U64(9)),
            ],
        };
        let json = solve_json(&span).expect("a solve span");
        assert_eq!(
            json,
            "{\"span\":\"markov.solve.uniformization\",\"method\":\"uniformization\",\
             \"iterations\":42,\"uniformization_rate\":1224}"
        );
        // A span without solve.method is not a solve.
        span.args.retain(|(k, _)| k == "states");
        assert!(solve_json(&span).is_none());
    }

    #[test]
    fn sweep_point_json_shape() {
        // φ = 0 is the boundary case where Y is exactly 1 and γ exactly 1.
        let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
        let point = analysis.evaluate(0.0).unwrap();
        let json = sweep_point_json(&point);
        assert!(json.starts_with("{\"phi\":0,\"y\":1,"), "{json}");
        assert!(json.ends_with("\"gamma\":1}"), "{json}");
        for key in ["e_w0", "e_w_phi", "y_s1", "y_s2"] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        // Every field reads back to the bits it was computed as.
        let point = analysis.evaluate(5000.0).unwrap();
        let doc = json::parse(&sweep_point_json(&point)).expect("/eval body is JSON");
        for (key, value) in [
            ("phi", point.phi),
            ("y", point.y),
            ("e_w_phi", point.e_w_phi),
        ] {
            assert_eq!(doc.num(key).map(f64::to_bits), Ok(value.to_bits()), "{key}");
        }
    }
}
