//! `gsu-bench loadgen`: a std-only load generator for a live `gsu-serve`.
//!
//! The serving path is part of the artifact: `/eval` answers Y(φ) queries,
//! and `results/SLO.json` promises how fast it does so at a pinned request
//! rate. This module drives that promise end to end — it opens persistent
//! HTTP connections ([`gsu_serve::http::HttpClient`]), replays a seeded
//! workload mix drawn from the committed scenario catalog, and reports
//! exact latency quantiles into a `gsu-loadgen-v1` JSON report, which
//! `gsu-bench regress` reads as `serve:*` records
//! ([`LoadgenReport::bench_records`]) for the latency ratchet.
//!
//! Two driving disciplines:
//!
//! * **Open loop** (the SLO mode): arrivals follow a seeded Poisson
//!   schedule built *before* the run ([`build_schedule`]), and each
//!   request's latency is measured from its **intended** send time, not
//!   from when the client actually got around to sending it. A slow server
//!   therefore inflates the latency of every queued-behind request instead
//!   of silently thinning the arrival rate — the standard correction for
//!   coordinated omission.
//! * **Closed loop**: `connections` workers issue requests back to back
//!   until the deadline. This measures service capacity, not SLO
//!   attainment, and is reported but never gated.
//!
//! The written report must read back equal to the run's own report. With
//! `--check` the run becomes a CI gate: the per-endpoint attainment must
//! meet `SLO.json`, and the
//! server's own `/stats` windowed quantiles must agree with the
//! client-measured ones to within log-bucket resolution (a unit error —
//! ms vs µs — is ~3 decades and fails loudly; honest histogram error is
//! well under the 1.5-decade tolerance).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gsu_scenario::ast::ScenarioSpec;
use gsu_serve::http::{http_get, HttpClient};
use gsu_serve::slo::{self, SloDoc};
use mdcd_sim::SimRng;
use telemetry::json::{self, Value};

use crate::BenchRecord;

/// Schema tag of the JSON report this module writes.
pub const REPORT_SCHEMA: &str = "gsu-loadgen-v1";

/// Largest tolerated disagreement between a client-measured quantile and
/// the server's windowed estimate of the same quantile, in decades
/// (`|log10(server/client)|`). The window histogram's log buckets are
/// one-third of a decade wide, so honest runs land far inside this; a
/// ms-vs-µs unit slip is 3 decades and fails.
pub const STATS_AGREEMENT_DECADES: f64 = 1.5;

/// Smallest client-side sample count for which the `/stats` agreement
/// check is attempted. Below this, the server's window (which also saw
/// the unmeasured warmup requests) and the client's handful of samples
/// can have wildly different quantiles without either being wrong. A
/// quantile `q` further needs `1/(1−q)` samples.
pub const STATS_AGREEMENT_MIN_SAMPLES: u64 = 10;

/// The client samples a quantile `q` needs before the `/stats` agreement
/// check judges it: `1/(1−q)`, and never fewer than
/// [`STATS_AGREEMENT_MIN_SAMPLES`]. On fewer, the sample quantile is the
/// slowest request or close to it, so one outlier would decide the check
/// (p99 needs 100 samples; p50 keeps the floor of 10).
fn quantile_sample_floor(q: f64) -> u64 {
    ((1.0 / (1.0 - q)).round() as u64).max(STATS_AGREEMENT_MIN_SAMPLES)
}

/// Driving discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Seeded Poisson arrivals; latency from intended send time.
    Open,
    /// Back-to-back workers until the deadline.
    Closed,
}

impl Mode {
    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Open => "open",
            Mode::Closed => "closed",
        }
    }

    /// Parses the CLI spelling.
    ///
    /// # Errors
    ///
    /// Anything other than `open` or `closed`.
    pub fn parse(raw: &str) -> Result<Mode, String> {
        match raw {
            "open" => Ok(Mode::Open),
            "closed" => Ok(Mode::Closed),
            other => Err(format!("unknown mode {other:?}: want open|closed")),
        }
    }
}

/// One planned request: the full request target and the endpoint path it
/// is accounted under (`/eval?scenario=…&phi=…` counts as `/eval`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// Endpoint path the sample is attributed to.
    pub endpoint: String,
    /// Full request target including the query string.
    pub target: String,
}

/// Configuration for one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Driving discipline.
    pub mode: Mode,
    /// Open-loop arrival rate; defaults to `SLO.json`'s pinned
    /// `rate_rps`, or 20 when no SLO document is available.
    pub rate: Option<f64>,
    /// Run length in seconds.
    pub duration_s: f64,
    /// Concurrent connections (workers).
    pub connections: usize,
    /// Workload seed: same seed, same arrival schedule and target mix.
    pub seed: u64,
    /// Reuse connections (HTTP keep-alive). `false` reconnects per
    /// request, which quantifies the keep-alive win.
    pub keep_alive: bool,
    /// Label of the report and of its `serve:{label}:{quantile}` gate
    /// records; defaults to the mode name.
    pub label: String,
    /// SLO document to default the rate from and, with `check`, gate on.
    pub slo_path: PathBuf,
    /// Scenario catalog directory for the workload mix; when absent the
    /// mix degrades to plain `/eval` plus the fixed endpoints.
    pub scenarios_dir: PathBuf,
    /// Where to write the `gsu-loadgen-v1` report, if anywhere.
    pub report_path: Option<PathBuf>,
    /// Run the SLO + report + `/stats`-agreement checks.
    pub check: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:9184".to_string(),
            mode: Mode::Open,
            rate: None,
            duration_s: 2.0,
            connections: 2,
            seed: 42,
            keep_alive: true,
            label: String::new(),
            slo_path: PathBuf::from(slo::SLO_PATH),
            scenarios_dir: PathBuf::from(gsu_serve::SCENARIOS_DIR),
            report_path: None,
            check: false,
        }
    }
}

/// Latency statistics for one endpoint (or the whole run).
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointStats {
    /// Endpoint path (`_all` for the run-wide aggregate).
    pub endpoint: String,
    /// Requests issued, including failures.
    pub count: u64,
    /// Requests that errored or returned a non-200 status.
    pub errors: u64,
    /// Mean latency over successful requests, µs.
    pub mean_us: f64,
    /// Exact (sample, not histogram) quantiles over successful requests,
    /// µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Slowest successful request, µs.
    pub max_us: f64,
}

/// Outcome of one `--check` assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short machine-stable name (`slo:/eval`, `stats-agreement:/eval`…).
    pub name: String,
    /// Whether the assertion held.
    pub passed: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Driving discipline the run used.
    pub mode: String,
    /// Record label (`serve:{label}:{quantile}`).
    pub label: String,
    /// Planned open-loop rate (requests/second); for closed-loop runs the
    /// rate that sized the target list.
    pub rate_rps: f64,
    /// Planned run length, seconds.
    pub duration_s: f64,
    /// Concurrent connections.
    pub connections: usize,
    /// Workload seed.
    pub seed: u64,
    /// Whether connections were reused.
    pub keep_alive: bool,
    /// Requests issued, including failures.
    pub requests: u64,
    /// Requests that errored or returned non-200.
    pub errors: u64,
    /// TCP connections actually opened across all workers.
    pub connects: u64,
    /// Wall time of the measured phase, seconds.
    pub elapsed_s: f64,
    /// Successful requests per second of wall time.
    pub throughput_rps: f64,
    /// Run-wide latency aggregate.
    pub overall: EndpointStats,
    /// Per-endpoint breakdown (endpoints with at least one success).
    pub endpoints: Vec<EndpointStats>,
    /// `--check` outcomes; empty when checks were not requested.
    pub checks: Vec<Check>,
}

/// One measured request.
#[derive(Debug, Clone)]
struct Sample {
    endpoint: String,
    latency_us: f64,
    ok: bool,
}

/// Builds the seeded open-loop arrival schedule: nanosecond offsets from
/// the run start, Poisson (exponential inter-arrival) at `rate_rps`,
/// truncated at `duration_s`. The draw is a single serial stream, so the
/// schedule is byte-identical regardless of `GSU_THREADS` or pool state.
pub fn build_schedule(rate_rps: f64, duration_s: f64, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::stream(seed, 0);
    let horizon_ns = (duration_s * 1e9) as u64;
    let mut t_s = 0.0f64;
    let mut out = Vec::new();
    loop {
        t_s += rng.exp(rate_rps);
        let ns = (t_s * 1e9) as u64;
        if ns >= horizon_ns {
            return out;
        }
        out.push(ns);
    }
}

/// Builds the deterministic target mix: ~30% scenario evaluations drawn
/// from the cheap end of `catalog` with φ jittered inside `[0.3θ, 0.8θ]`,
/// ~50% plain `/eval` with φ in `[2000, 9000]`, ~10% `/metrics`, ~10%
/// `/healthz`. With an empty catalog the scenario share folds into plain
/// `/eval`. Deterministic in `seed`.
pub fn build_targets(n: usize, seed: u64, catalog: &[ScenarioSpec]) -> Vec<Target> {
    let cheap: Vec<&ScenarioSpec> = catalog
        .iter()
        .filter(|s| s.name.starts_with("paper-") || s.name == "small-exact")
        .collect();
    let mut rng = SimRng::stream(seed, 1);
    (0..n)
        .map(|_| {
            let u = rng.uniform();
            if u < 0.10 {
                Target {
                    endpoint: "/metrics".to_string(),
                    target: "/metrics".to_string(),
                }
            } else if u < 0.20 {
                Target {
                    endpoint: "/healthz".to_string(),
                    target: "/healthz".to_string(),
                }
            } else if u < 0.50 && !cheap.is_empty() {
                let idx = ((rng.uniform() * cheap.len() as f64) as usize).min(cheap.len() - 1);
                let spec = cheap[idx];
                let phi = spec.params.theta * (0.3 + 0.5 * rng.uniform());
                Target {
                    endpoint: "/eval".to_string(),
                    target: format!("/eval?scenario={}&phi={phi:.1}", spec.name),
                }
            } else {
                let phi = 2000.0 + 7000.0 * rng.uniform();
                Target {
                    endpoint: "/eval".to_string(),
                    target: format!("/eval?phi={phi:.1}"),
                }
            }
        })
        .collect()
}

/// Runs one load-generation pass against a live server.
///
/// # Errors
///
/// Unresolvable address, malformed SLO document, unreachable server
/// (warmup fails), a run with zero successful requests, report write
/// failures, or a written report that does not read back equal to the
/// run's report.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if config.connections == 0 {
        return Err("connections must be at least 1".to_string());
    }
    if !(config.duration_s > 0.0 && config.duration_s.is_finite()) {
        return Err(format!(
            "duration must be positive, got {}",
            config.duration_s
        ));
    }
    let addr: SocketAddr = config
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {}: {e}", config.addr))?
        .next()
        .ok_or_else(|| format!("{} resolves to no address", config.addr))?;

    // The SLO document pins the default open-loop rate; with --check it is
    // mandatory (a gate without a promise to gate on is meaningless).
    let slo_doc = if config.slo_path.is_file() {
        Some(slo::load_slo(&config.slo_path)?)
    } else if config.check {
        return Err(format!(
            "--check needs an SLO document at {}",
            config.slo_path.display()
        ));
    } else {
        None
    };
    let rate = match config.rate {
        Some(r) if r > 0.0 && r.is_finite() => r,
        Some(r) => return Err(format!("rate must be positive, got {r}")),
        None => slo_doc.as_ref().map_or(20.0, |d| d.rate_rps),
    };
    let label = if config.label.is_empty() {
        let suffix = if config.keep_alive {
            ""
        } else {
            "-nokeepalive"
        };
        format!("{}{suffix}", config.mode.as_str())
    } else {
        config.label.clone()
    };

    let catalog = if config.scenarios_dir.is_dir() {
        gsu_scenario::catalog::load_dir(&config.scenarios_dir)
            .map_err(|e| format!("scenario catalog: {e}"))?
    } else {
        Vec::new()
    };
    let schedule = build_schedule(rate, config.duration_s, config.seed);
    let planned = schedule.len().max(config.connections);
    let targets = build_targets(planned, config.seed, &catalog);

    warmup(addr, &targets)?;

    let (samples, connects, elapsed_s) = match config.mode {
        Mode::Open => drive_open(addr, config, &schedule, &targets),
        Mode::Closed => drive_closed(addr, config, &targets),
    };

    let requests = samples.len() as u64;
    let errors = samples.iter().filter(|s| !s.ok).count() as u64;
    let overall = stats_for("_all", &samples)
        .ok_or_else(|| format!("no successful requests ({errors} of {requests} failed)"))?;
    let mut by_endpoint: BTreeMap<&str, Vec<Sample>> = BTreeMap::new();
    for s in &samples {
        by_endpoint.entry(&s.endpoint).or_default().push(s.clone());
    }
    let endpoints: Vec<EndpointStats> = by_endpoint
        .iter()
        .filter_map(|(endpoint, group)| stats_for(endpoint, group))
        .collect();

    let ok = requests - errors;
    let mut report = LoadgenReport {
        mode: config.mode.as_str().to_string(),
        label,
        rate_rps: rate,
        duration_s: config.duration_s,
        connections: config.connections,
        seed: config.seed,
        keep_alive: config.keep_alive,
        requests,
        errors,
        connects,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            ok as f64 / elapsed_s
        } else {
            0.0
        },
        overall,
        endpoints,
        checks: Vec::new(),
    };

    if config.check {
        let doc = slo_doc
            .as_ref()
            .unwrap_or_else(|| unreachable!("--check verified the SLO document above"));
        report.checks = run_checks(addr, doc, &samples, &report);
    }

    // The report must round-trip: one that does not read back as the run
    // measured it is a malformed report, and that is a failure.
    let mut written = report.to_json();
    let mut source = "report".to_string();
    if let Some(path) = &config.report_path {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, &written)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot re-read {}: {e}", path.display()))?;
        source = format!("report {}", path.display());
    }
    if parse_report(&written).map_err(|e| format!("malformed {source}: {e}"))? != report {
        return Err(format!("{source} does not read back as the run's report"));
    }

    Ok(report)
}

/// Issues one unmeasured request per distinct kind of target (each
/// scenario name once, plain `/eval` once, each fixed endpoint once) so
/// scenario model building and other cold-start costs land outside the
/// measured phase.
fn warmup(addr: SocketAddr, targets: &[Target]) -> Result<(), String> {
    let mut representatives: BTreeMap<String, &str> = BTreeMap::new();
    for t in targets {
        let key = match t.target.split_once("scenario=") {
            Some((_, rest)) => format!("scenario:{}", rest.split('&').next().unwrap_or(rest)),
            None => t.endpoint.clone(),
        };
        representatives.entry(key).or_insert(&t.target);
    }
    let mut client = HttpClient::new(addr, true);
    for (kind, target) in representatives {
        let (status, body) = client
            .get(target)
            .map_err(|e| format!("warmup {target} failed: {e}"))?;
        if status != 200 {
            let first = body.lines().next().unwrap_or("");
            return Err(format!("warmup {kind} ({target}) -> {status}: {first}"));
        }
    }
    Ok(())
}

/// Open-loop driver: request `i` of the schedule belongs to worker
/// `i % connections`; each worker sleeps until the intended send time and
/// measures latency **from that intended time**, so scheduling delay
/// caused by a slow server counts against the server (coordinated-
/// omission correction).
fn drive_open(
    addr: SocketAddr,
    config: &LoadgenConfig,
    schedule: &[u64],
    targets: &[Target],
) -> (Vec<Sample>, u64, f64) {
    let workers = config.connections;
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mine: Vec<(u64, Target)> = schedule
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % workers == w)
                    .map(|(i, &offset)| (offset, targets[i % targets.len()].clone()))
                    .collect();
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr, config.keep_alive);
                    let mut samples = Vec::with_capacity(mine.len());
                    for (offset_ns, target) in mine {
                        let intended = start + Duration::from_nanos(offset_ns);
                        if let Some(wait) = intended.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let response = client.get(&target.target);
                        let latency_us = intended.elapsed().as_secs_f64() * 1e6;
                        samples.push(Sample {
                            endpoint: target.endpoint,
                            latency_us,
                            ok: matches!(response, Ok((200, _))),
                        });
                    }
                    (samples, client.connects())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect::<Vec<_>>()
    });
    collect(results, start)
}

/// Closed-loop driver: each worker issues its share of the target mix
/// back to back (cycling) until the deadline; latency is plain
/// request-to-response time.
fn drive_closed(
    addr: SocketAddr,
    config: &LoadgenConfig,
    targets: &[Target],
) -> (Vec<Sample>, u64, f64) {
    let workers = config.connections;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(config.duration_s);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mine: Vec<Target> = targets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % workers == w)
                    .map(|(_, t)| t.clone())
                    .collect();
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr, config.keep_alive);
                    let mut samples = Vec::new();
                    let mut next = 0usize;
                    while Instant::now() < deadline && !mine.is_empty() {
                        let target = &mine[next % mine.len()];
                        next += 1;
                        let sent = Instant::now();
                        let response = client.get(&target.target);
                        samples.push(Sample {
                            endpoint: target.endpoint.clone(),
                            latency_us: sent.elapsed().as_secs_f64() * 1e6,
                            ok: matches!(response, Ok((200, _))),
                        });
                    }
                    (samples, client.connects())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect::<Vec<_>>()
    });
    collect(results, start)
}

/// Flattens per-worker results and stamps the measured wall time.
fn collect(results: Vec<(Vec<Sample>, u64)>, start: Instant) -> (Vec<Sample>, u64, f64) {
    let elapsed_s = start.elapsed().as_secs_f64();
    let connects = results.iter().map(|(_, c)| c).sum();
    let samples = results.into_iter().flat_map(|(s, _)| s).collect();
    (samples, connects, elapsed_s)
}

/// Exact sample statistics for one endpoint; `None` when no request
/// succeeded (quantiles of nothing would be NaN, which JSON cannot carry).
fn stats_for(endpoint: &str, samples: &[Sample]) -> Option<EndpointStats> {
    let count = samples.len() as u64;
    let errors = samples.iter().filter(|s| !s.ok).count() as u64;
    let mut lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_us)
        .collect();
    if lat.is_empty() {
        return None;
    }
    lat.sort_by(f64::total_cmp);
    let q = |p: f64| lat[(((lat.len() - 1) as f64) * p).round() as usize];
    Some(EndpointStats {
        endpoint: endpoint.to_string(),
        count,
        errors,
        mean_us: lat.iter().sum::<f64>() / lat.len() as f64,
        p50_us: q(0.50),
        p90_us: q(0.90),
        p99_us: q(0.99),
        p999_us: q(0.999),
        max_us: lat[lat.len() - 1],
    })
}

/// Runs the `--check` assertions: zero errors, per-endpoint SLO
/// attainment, and `/stats` windowed-quantile agreement.
fn run_checks(
    addr: SocketAddr,
    doc: &SloDoc,
    samples: &[Sample],
    report: &LoadgenReport,
) -> Vec<Check> {
    let mut checks = vec![Check {
        name: "errors".to_string(),
        passed: report.errors == 0,
        detail: format!("{} of {} requests failed", report.errors, report.requests),
    }];

    for def in &doc.slos {
        let bound_us = def.threshold_ms * 1000.0;
        let (total, good) = samples
            .iter()
            .filter(|s| s.endpoint == def.endpoint)
            .fold((0u64, 0u64), |(t, g), s| {
                (t + 1, g + u64::from(s.ok && s.latency_us <= bound_us))
            });
        let (passed, detail) = if total == 0 {
            (false, "no traffic reached this endpoint".to_string())
        } else {
            let attainment = good as f64 / total as f64;
            (
                attainment >= def.target,
                format!(
                    "attainment {attainment:.4} vs target {} at {}ms ({good}/{total} good)",
                    def.target, def.threshold_ms
                ),
            )
        };
        checks.push(Check {
            name: format!("slo:{}", def.endpoint),
            passed,
            detail,
        });
    }

    match http_get(addr, "/stats") {
        Ok((200, body)) => {
            // A body that is not JSON has no routes; each check then fails.
            let stats = json::parse(&body).unwrap_or(Value::Null);
            for def in &doc.slos {
                let Some(measured) = report.endpoints.iter().find(|e| e.endpoint == def.endpoint)
                else {
                    continue; // no-traffic case already failed the slo check
                };
                let (passed, detail) =
                    stats_agreement(measured, stats_route(&stats, &def.endpoint));
                checks.push(Check {
                    name: format!("stats-agreement:{}", def.endpoint),
                    passed,
                    detail,
                });
            }
        }
        Ok((status, _)) => checks.push(Check {
            name: "stats-agreement".to_string(),
            passed: false,
            detail: format!("/stats returned {status}"),
        }),
        Err(e) => checks.push(Check {
            name: "stats-agreement".to_string(),
            passed: false,
            detail: format!("/stats unreachable: {e}"),
        }),
    }
    checks
}

/// Judges the client's p50 and p99 of one endpoint against the server's
/// `/stats` estimates `(p50, p99)`, each within
/// [`STATS_AGREEMENT_DECADES`], on the quantiles that have their
/// `quantile_sample_floor` of successful samples. Passes, as skipped,
/// under [`STATS_AGREEMENT_MIN_SAMPLES`]; fails when the server has no
/// estimate for the route.
fn stats_agreement(measured: &EndpointStats, server: Option<(f64, f64)>) -> (bool, String) {
    let samples = measured.count - measured.errors;
    if samples < STATS_AGREEMENT_MIN_SAMPLES {
        return (
            true,
            format!("skipped: only {samples} samples, floor is {STATS_AGREEMENT_MIN_SAMPLES}"),
        );
    }
    let Some((server_p50, server_p99)) = server else {
        return (false, "route missing from /stats".to_string());
    };
    let mut passed = true;
    let mut detail = Vec::new();
    for (label, q, client, server) in [
        ("p50", 0.50, measured.p50_us, server_p50),
        ("p99", 0.99, measured.p99_us, server_p99),
    ] {
        let floor = quantile_sample_floor(q);
        if samples < floor {
            detail.push(format!("{label} not judged ({samples} < {floor} samples)"));
        } else {
            passed &= (server / client).log10().abs() <= STATS_AGREEMENT_DECADES;
            detail.push(format!("{label} {client:.0}us vs /stats {server:.0}us"));
        }
    }
    (passed, detail.join(", "))
}

/// Pulls `(p50_us, p99_us)` for `route` out of a `gsu-stats-v1` document.
fn stats_route(stats: &Value, route: &str) -> Option<(f64, f64)> {
    let entry = stats
        .array("routes")
        .ok()?
        .iter()
        .find(|r| r.string("route") == Ok(route))?;
    Some((entry.num("p50_us").ok()?, entry.num("p99_us").ok()?))
}

impl LoadgenReport {
    /// Whether every requested check held (vacuously true without
    /// `--check`).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The run's records for the regress gate: `serve:{label}:{q}` for the
    /// overall p50, p99 and p999, each as `wall_ms`, with `threads` the
    /// connections and `grid` the requests. Serving latency has no
    /// deterministic work, so the records carry no counters.
    pub fn bench_records(&self) -> Vec<BenchRecord> {
        [
            ("p50", self.overall.p50_us),
            ("p99", self.overall.p99_us),
            ("p999", self.overall.p999_us),
        ]
        .into_iter()
        .map(|(quantile, value_us)| BenchRecord {
            name: format!("serve:{}:{quantile}", self.label),
            threads: Some(self.connections),
            grid: Some(self.requests as usize),
            wall_ms: Some(value_us / 1000.0),
            counters: Vec::new(),
        })
        .collect()
    }

    /// The `gsu-loadgen-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{REPORT_SCHEMA}\",\"mode\":\"{}\",\"label\":\"{}\",\
             \"rate_rps\":{},\"duration_s\":{},\"connections\":{},\"seed\":{},\
             \"keep_alive\":{},\"requests\":{},\"errors\":{},\"connects\":{},\
             \"elapsed_s\":{},\"throughput_rps\":{},\n \"overall\":",
            json::escape(&self.mode),
            json::escape(&self.label),
            self.rate_rps,
            self.duration_s,
            self.connections,
            self.seed,
            self.keep_alive,
            self.requests,
            self.errors,
            self.connects,
            self.elapsed_s,
            self.throughput_rps,
        );
        push_stats(&mut out, &self.overall);
        out.push_str(",\n \"endpoints\":[");
        for (i, e) in self.endpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            push_stats(&mut out, e);
        }
        out.push_str("],\n \"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"name\":\"{}\",\"passed\":{},\"detail\":\"{}\"}}",
                json::escape(&c.name),
                c.passed,
                json::escape(&c.detail)
            );
        }
        out.push_str("]}\n");
        out
    }

    /// A human-readable summary, one line per fact.
    pub fn render(&self) -> String {
        let mut out = format!(
            "loadgen {} ({}): {} requests in {:.2}s at {:.1} rps planned \
             ({:.1} rps achieved), {} errors, {} connections opened\n",
            self.mode,
            self.label,
            self.requests,
            self.elapsed_s,
            self.rate_rps,
            self.throughput_rps,
            self.errors,
            self.connects,
        );
        let mut rows: Vec<&EndpointStats> = self.endpoints.iter().collect();
        rows.insert(0, &self.overall);
        for e in rows {
            let _ = writeln!(
                out,
                "  {:<10} n={:<5} p50={:>8.0}us p90={:>8.0}us p99={:>8.0}us \
                 p999={:>8.0}us max={:>8.0}us",
                e.endpoint, e.count, e.p50_us, e.p90_us, e.p99_us, e.p999_us, e.max_us
            );
        }
        for c in &self.checks {
            let verdict = if c.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "  check {verdict} {} — {}", c.name, c.detail);
        }
        out
    }
}

/// Appends one [`EndpointStats`] object to `out`.
fn push_stats(out: &mut String, e: &EndpointStats) {
    let _ = write!(
        out,
        "{{\"endpoint\":\"{}\",\"count\":{},\"errors\":{},\"mean_us\":{},\
         \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
        json::escape(&e.endpoint),
        e.count,
        e.errors,
        e.mean_us,
        e.p50_us,
        e.p90_us,
        e.p99_us,
        e.p999_us,
        e.max_us
    );
}

/// Parses a `gsu-loadgen-v1` report back into a [`LoadgenReport`].
///
/// # Errors
///
/// A description of the first missing or malformed field.
pub fn parse_report(text: &str) -> Result<LoadgenReport, String> {
    let doc = json::parse(text)?;
    if doc.string("schema") != Ok(REPORT_SCHEMA) {
        return Err(format!("missing schema tag {REPORT_SCHEMA:?}"));
    }
    let checks = doc
        .array("checks")?
        .iter()
        .map(|check| {
            Ok(Check {
                name: check.string("name")?.to_string(),
                passed: check.boolean("passed")?,
                detail: check.string("detail")?.to_string(),
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(LoadgenReport {
        mode: doc.string("mode")?.to_string(),
        label: doc.string("label")?.to_string(),
        rate_rps: doc.num("rate_rps")?,
        duration_s: doc.num("duration_s")?,
        connections: doc.uint("connections")? as usize,
        seed: doc.uint("seed")?,
        keep_alive: doc.boolean("keep_alive")?,
        requests: doc.uint("requests")?,
        errors: doc.uint("errors")?,
        connects: doc.uint("connects")?,
        elapsed_s: doc.num("elapsed_s")?,
        throughput_rps: doc.num("throughput_rps")?,
        overall: parse_stats(doc.get("overall").ok_or("missing \"overall\" object")?)?,
        endpoints: doc
            .array("endpoints")?
            .iter()
            .map(parse_stats)
            .collect::<Result<_, _>>()?,
        checks,
    })
}

/// Parses one serialized [`EndpointStats`] object.
fn parse_stats(stats: &Value) -> Result<EndpointStats, String> {
    Ok(EndpointStats {
        endpoint: stats.string("endpoint")?.to_string(),
        count: stats.uint("count")?,
        errors: stats.uint("errors")?,
        mean_us: stats.num("mean_us")?,
        p50_us: stats.num("p50_us")?,
        p90_us: stats.num("p90_us")?,
        p99_us: stats.num("p99_us")?,
        p999_us: stats.num("p999_us")?,
        max_us: stats.num("max_us")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_pool_independent() {
        let a = build_schedule(200.0, 1.0, 7);
        assert!(!a.is_empty(), "200 rps over 1s should schedule requests");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets must ascend");
        assert!(*a.last().unwrap_or(&0) < 1_000_000_000, "inside horizon");
        // Byte-identical regardless of the pool the caller runs under:
        // the schedule draw never touches the pool.
        let b = pool::Pool::new(1).scope(|_| build_schedule(200.0, 1.0, 7));
        let c = pool::Pool::new(4).scope(|_| build_schedule(200.0, 1.0, 7));
        assert_eq!(a, b);
        assert_eq!(a, c);
        // …but it is genuinely seeded.
        assert_ne!(a, build_schedule(200.0, 1.0, 8));
    }

    #[test]
    fn schedule_rate_is_roughly_honoured() {
        let n = build_schedule(500.0, 4.0, 11).len() as f64;
        let expect = 500.0 * 4.0;
        assert!(
            (n - expect).abs() < expect * 0.2,
            "got {n} arrivals, want ~{expect}"
        );
    }

    #[test]
    fn target_mix_is_deterministic_and_covers_the_endpoints() {
        let catalog =
            gsu_scenario::catalog::load_dir(std::path::Path::new("../../scenarios")).unwrap();
        let a = build_targets(400, 3, &catalog);
        let b = build_targets(400, 3, &catalog);
        assert_eq!(a, b, "same seed, same mix");
        assert_ne!(a, build_targets(400, 4, &catalog), "seed matters");
        let evals = a.iter().filter(|t| t.endpoint == "/eval").count();
        let scenarios = a.iter().filter(|t| t.target.contains("scenario=")).count();
        let metrics = a.iter().filter(|t| t.endpoint == "/metrics").count();
        let health = a.iter().filter(|t| t.endpoint == "/healthz").count();
        assert!(evals > 200, "evals dominate the mix: {evals}");
        assert!(scenarios > 50, "scenario share present: {scenarios}");
        assert!(metrics > 10, "metrics share present: {metrics}");
        assert!(health > 10, "healthz share present: {health}");
        // Scenario targets only name cheap catalog entries.
        for t in &a {
            if let Some((_, rest)) = t.target.split_once("scenario=") {
                let name = rest.split('&').next().unwrap_or(rest);
                assert!(
                    name.starts_with("paper-") || name == "small-exact",
                    "unexpected scenario {name}"
                );
            }
        }
    }

    #[test]
    fn empty_catalog_folds_scenarios_into_plain_eval() {
        let targets = build_targets(200, 3, &[]);
        assert!(targets.iter().all(|t| !t.target.contains("scenario=")));
        assert!(targets.iter().any(|t| t.endpoint == "/eval"));
    }

    fn sample_report() -> LoadgenReport {
        let stats = |endpoint: &str| EndpointStats {
            endpoint: endpoint.to_string(),
            count: 100,
            errors: 1,
            mean_us: 1234.5,
            p50_us: 1000.0,
            p90_us: 2000.0,
            p99_us: 4000.0,
            p999_us: 8000.0,
            max_us: 9000.5,
        };
        LoadgenReport {
            mode: "open".to_string(),
            label: "open".to_string(),
            rate_rps: 40.0,
            duration_s: 2.0,
            connections: 2,
            seed: 42,
            keep_alive: true,
            requests: 100,
            errors: 1,
            connects: 2,
            elapsed_s: 2.05,
            throughput_rps: 48.3,
            overall: stats("_all"),
            endpoints: vec![stats("/eval"), stats("/metrics")],
            checks: vec![Check {
                name: "slo:/eval".to_string(),
                passed: true,
                detail: "attainment 0.99 vs target 0.9".to_string(),
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let parsed = parse_report(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert!(parsed.passed());

        // Free text is escaped on the way out and reads back exactly; so
        // do quantiles that need every digit and seeds beyond 2^53.
        let odd = "a\"b\\c {x}, {\"name\":1}\nend";
        let mut report = sample_report();
        report.label = odd.to_string();
        report.seed = u64::MAX;
        report.overall.p99_us = 0.1 + 0.2;
        report.checks.push(Check {
            name: format!("slo:{odd}"),
            passed: false,
            detail: odd.to_string(),
        });
        let parsed = parse_report(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert!(!parsed.passed());
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        let good = sample_report().to_json();
        assert!(parse_report("{}").is_err(), "schema tag required");
        assert!(
            parse_report(&good.replace(REPORT_SCHEMA, "gsu-loadgen-v0")).is_err(),
            "wrong schema version"
        );
        assert!(
            parse_report(&good.replace("\"requests\":100", "\"requests\":x")).is_err(),
            "non-numeric field"
        );
        assert!(
            parse_report(&good.replace("\"overall\":", "\"overall_gone\":")).is_err(),
            "missing overall"
        );
        assert!(
            parse_report(&good.replace("\"passed\":true", "\"passed\":\"true\"")).is_err(),
            "non-boolean verdict"
        );
        assert!(
            parse_report(&format!("{good}}}")).is_err(),
            "trailing content"
        );
    }

    #[test]
    fn stats_route_reads_the_serve_stats_shape() {
        let body = r#"{"schema":"gsu-stats-v1","uptime_s":1,"window_s":60,
          "connections":{"accepted":3,"queue_depth":0,"inflight":1},
          "routes":[
            {"route":"/eval","count":10,"mean_us":1500,"p50_us":1200,"p90_us":2000,"p99_us":3000,"p999_us":3500,"max_us":4000},
            {"route":"/metrics","count":4,"mean_us":300,"p50_us":250,"p90_us":400,"p99_us":500,"p999_us":550,"max_us":600}],
          "slos":[{"endpoint":"/eval","threshold_ms":250,"target":0.9,"count":10,"attainment":1,"burn_rate":0,"met":true}]}"#;
        let stats = json::parse(body).unwrap();
        assert_eq!(stats_route(&stats, "/eval"), Some((1200.0, 3000.0)));
        assert_eq!(stats_route(&stats, "/metrics"), Some((250.0, 500.0)));
        assert_eq!(stats_route(&stats, "/nope"), None);
        assert_eq!(stats_route(&Value::Null, "/eval"), None);
    }

    /// Client stats over `latencies_us` (all successful) on `/eval`.
    fn eval_stats(latencies_us: &[f64]) -> EndpointStats {
        let samples: Vec<Sample> = latencies_us
            .iter()
            .map(|&latency_us| Sample {
                endpoint: "/eval".to_string(),
                latency_us,
                ok: true,
            })
            .collect();
        stats_for("/eval", &samples).unwrap()
    }

    #[test]
    fn quantile_floors_follow_one_over_the_tail() {
        assert_eq!(quantile_sample_floor(0.50), STATS_AGREEMENT_MIN_SAMPLES);
        assert_eq!(quantile_sample_floor(0.99), 100);
        assert_eq!(quantile_sample_floor(0.999), 1000);
    }

    #[test]
    fn one_slow_request_in_fifty_does_not_decide_the_p99() {
        // 49 requests near the server's median and one 13 ms outlier: the
        // client's p99 is the outlier, 1.24 decades over the server's
        // 0.75 ms, but 50 samples do not judge a p99.
        let mut latencies = vec![600.0; 49];
        latencies.push(13_289.0);
        let measured = eval_stats(&latencies);
        assert_eq!(measured.p99_us, 13_289.0);
        let (passed, detail) = stats_agreement(&measured, Some((600.0, 750.0)));
        assert!(passed, "{detail}");
        assert!(
            detail.contains("p99 not judged (50 < 100 samples)"),
            "{detail}"
        );
        // With its 100 samples the p99 is judged, and a 3-decade p99 slip
        // fails.
        let measured = eval_stats(&vec![600.0; 100]);
        let (passed, detail) = stats_agreement(&measured, Some((600.0, 600_000.0)));
        assert!(!passed, "{detail}");
    }

    #[test]
    fn a_unit_slip_at_the_median_still_fails() {
        // The server reporting ms as µs (or the reverse) is 3 decades off,
        // and 50 samples judge the p50.
        let measured = eval_stats(&vec![600.0; 50]);
        assert!(stats_agreement(&measured, Some((600.0, 750.0))).0);
        let (passed, detail) = stats_agreement(&measured, Some((0.6, 0.75)));
        assert!(!passed, "{detail}");
        let (passed, detail) = stats_agreement(&measured, Some((600_000.0, 750.0)));
        assert!(!passed, "{detail}");
    }

    #[test]
    fn agreement_skips_thin_traffic_and_fails_a_missing_route() {
        let thin = eval_stats(&[600.0; 9]);
        let (passed, detail) = stats_agreement(&thin, None);
        assert!(passed && detail.starts_with("skipped"), "{detail}");
        let measured = eval_stats(&[600.0; 10]);
        assert_eq!(
            stats_agreement(&measured, None),
            (false, "route missing from /stats".to_string())
        );
    }

    #[test]
    fn exact_quantiles_over_known_samples() {
        let samples: Vec<Sample> = (1..=100)
            .map(|i| Sample {
                endpoint: "/eval".to_string(),
                latency_us: i as f64,
                ok: true,
            })
            .collect();
        let stats = stats_for("/eval", &samples).unwrap();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.p50_us, 51.0);
        assert_eq!(stats.p90_us, 90.0);
        assert_eq!(stats.p99_us, 99.0);
        assert_eq!(stats.max_us, 100.0);
        // All-failure groups have no quantiles to report.
        let failed = vec![Sample {
            endpoint: "/eval".to_string(),
            latency_us: 1.0,
            ok: false,
        }];
        assert!(stats_for("/eval", &failed).is_none());
    }
}
