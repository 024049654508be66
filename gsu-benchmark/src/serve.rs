//! The `gsu-serve` workloads: `serve-cached` (the read path, every analysis
//! already cached) and `serve-churn` (distinct parameter overrides that each
//! build and cache a new analysis, plus malformed requests).
//!
//! Each run spawns the daemon built next to this executable, warms every
//! analysis its mix touches, then drives an open loop — a seeded Poisson
//! schedule, latency timed from when each request was due — over two
//! keep-alive connections, with `/metrics` and `/healthz` probed once a
//! second on the same timeline, and finally a closed loop on the same two
//! connections to measure capacity. Every answer is checked.
//!
//! Neither workload is gated by `BENCHMARK.json`: their latency, capacity
//! and set-up time move with the shared host's speed by more than any
//! bound it may set, and the calibration kernel that steadies the batch
//! workloads does not track them (see the README).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gsu_bench::loadgen::build_schedule;
use gsu_serve::http::{http_get, HttpClient};
use mdcd_sim::SimRng;
use performability::{GsuAnalysis, GsuParams};

use crate::json::{self, Value};
use crate::stats::{check_close, end_to_end, median, memory_mib, quantile, Metric, Outcome};
use crate::{calib, RunConfig};

/// Daemon spawns per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Client connections (and load-generating threads).
const CONNECTIONS: usize = 2;
/// Handler workers the daemon runs with.
const SERVER_WORKERS: &str = "2";
/// Share of the run spent in the open loop; the rest is the closed loop.
const OPEN_SHARE: f64 = 0.75;
/// `op_ms.tail` on serve workloads. A run of the default length has 1500 or
/// more requests, enough for p99, but p99 falls among the requests a
/// `/metrics` scrape blocked and swings with how many the Poisson arrivals
/// put there (40% run-to-run); p90 repeats within 15%. p99 is reported per
/// layer as `serve.eval_ms.p99`.
const TAIL_Q: f64 = 0.90;
/// Calibration kernel runs behind `harness.calib_ms`.
const CALIB_RUNS: usize = 15;
/// Keep the mix draws apart from the arrival schedule, which
/// `build_schedule` draws from `SimRng::stream(seed, 0)`.
const MIX_SALT: u64 = 0x006d_6978;
const OVERRIDE_STREAM: u64 = 0x6d75;
/// Environment the daemon must not inherit: it runs with its defaults.
const DAEMON_ENV: &[&str] = &[
    "GSU_THREADS",
    "GSU_TELEMETRY",
    "GSU_LOG",
    "GSU_REQUEST_LOG_CAP",
    "GSU_POOL_PERMUTE",
    "GSU_POOL_DEFECT",
];

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 60% paper `/eval?phi=`, 40% cheap catalog scenarios, at 200 rps.
    Cached,
    /// 50% distinct `mu_new=` overrides, 40% the cached mix, 10% malformed,
    /// at 100 rps.
    Churn,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Cached => "serve-cached",
            Mix::Churn => "serve-churn",
        }
    }

    fn rate_rps(self) -> f64 {
        match self {
            Mix::Cached => 200.0,
            Mix::Churn => 100.0,
        }
    }
}

/// What a response must be.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// 200 with `y` equal to this committed golden value.
    Y(f64),
    /// 200 with `y` equal to an in-process `GsuAnalysis` at these inputs.
    Override { params: GsuParams, phi: f64 },
    /// 400 whose body names this query parameter.
    BadParam(&'static str),
    /// 200 with a valid Prometheus exposition.
    Metrics,
    /// 200 `ok`.
    Healthz,
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    pub url: String,
    pub expect: Expect,
}

/// Malformed or out-of-domain `/eval` requests and the parameter each 400
/// must name.
const MALFORMED: &[(&str, &str)] = &[
    ("/eval?phi=bogus", "phi"),
    ("/eval", "phi"),
    ("/eval?phi=-5", "phi"),
    ("/eval?phi=20000", "phi"),
    ("/eval?phi=5000&mu_new=abc", "mu_new"),
    ("/eval?phi=5000&mu_new=-1", "mu_new"),
    ("/eval?phi=5000&coverage=1.5", "coverage"),
    ("/eval?phi=5000&theta=-1", "theta"),
    ("/eval?scenario=no-such-scenario&phi=5000", "scenario"),
    (
        "/eval?scenario=paper-baseline&phi=5000&mu_new=0.0001",
        "scenario",
    ),
];

/// The committed answers a mix draws from.
#[derive(Debug, Clone)]
pub struct Goldens {
    /// `(φ, Y)` of the paper baseline.
    paper: Vec<(f64, f64)>,
    /// `(name, [(φ, Y)])` of the cheap catalog scenarios.
    scenarios: Vec<(String, Vec<(f64, f64)>)>,
}

impl Goldens {
    /// Loads the goldens of the paper baseline and of the cheap scenarios
    /// (the paper family and `small-exact`, which build in milliseconds).
    ///
    /// # Errors
    ///
    /// Missing or malformed golden files.
    pub fn load(root: &Path) -> Result<Goldens, String> {
        let dir = root.join("results/golden");
        let read = |name: &str| {
            let path = dir.join(format!("{name}.json"));
            gsu_scenario::read_golden(&path)
                .map(|g| g.points)
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().to_string_lossy().into_owned();
                let stem = name.strip_suffix(".json")?.to_string();
                (stem.starts_with("paper-") || stem == "small-exact").then_some(stem)
            })
            .collect();
        names.sort();
        let scenarios = names
            .into_iter()
            .map(|name| read(&name).map(|points| (name, points)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Goldens {
            paper: read("paper-baseline")?,
            scenarios,
        })
    }

    /// One request per distinct analysis a mix touches, so the timed phase
    /// starts with every cache warm.
    fn warm_targets(&self) -> Vec<Target> {
        let (phi, y) = self.paper[self.paper.len() / 2];
        let mut out = vec![Target {
            url: format!("/eval?phi={phi}"),
            expect: Expect::Y(y),
        }];
        for (name, points) in &self.scenarios {
            let (phi, y) = points[points.len() / 2];
            out.push(Target {
                url: format!("/eval?scenario={name}&phi={phi}"),
                expect: Expect::Y(y),
            });
        }
        out
    }

    /// A cached evaluation: 60% paper, 40% scenario, at golden grid points.
    fn cached(&self, rng: &mut SimRng) -> Target {
        if rng.uniform() < 0.6 || self.scenarios.is_empty() {
            let &(phi, y) = pick(rng, &self.paper);
            Target {
                url: format!("/eval?phi={phi}"),
                expect: Expect::Y(y),
            }
        } else {
            let (name, points) = pick(rng, &self.scenarios);
            let &(phi, y) = pick(rng, points);
            Target {
                url: format!("/eval?scenario={name}&phi={phi}"),
                expect: Expect::Y(y),
            }
        }
    }
}

/// A uniformly drawn element of the non-empty `items`.
fn pick<'a, T>(rng: &mut SimRng, items: &'a [T]) -> &'a T {
    let i = (rng.uniform() * items.len() as f64) as usize;
    &items[i.min(items.len() - 1)]
}

/// The request a mix sends as its `index`-th request: a pure function of
/// the seed and the index, so the open loop's list (built before timing)
/// and the closed loop's on-the-fly draws repeat exactly.
pub fn target(mix: Mix, goldens: &Goldens, seed: u64, index: u64) -> Target {
    let mut rng = SimRng::stream(seed ^ MIX_SALT, index);
    match mix {
        Mix::Cached => goldens.cached(&mut rng),
        Mix::Churn => {
            let u = rng.uniform();
            if u < 0.5 {
                churn_override(goldens, seed, index, &mut rng)
            } else if u < 0.9 {
                goldens.cached(&mut rng)
            } else {
                let &(url, param) = pick(&mut rng, MALFORMED);
                Target {
                    url: url.to_string(),
                    expect: Expect::BadParam(param),
                }
            }
        }
    }
}

/// A `mu_new=` override no other index of this seed uses: the golden-ratio
/// sequence from a seeded offset never repeats, so each one misses the
/// daemon's analysis cache.
fn churn_override(goldens: &Goldens, seed: u64, index: u64, rng: &mut SimRng) -> Target {
    const GOLDEN_RATIO_FRAC: f64 = 0.618_033_988_749_894_8;
    let offset = SimRng::stream(seed, OVERRIDE_STREAM).uniform();
    let frac = (offset + index as f64 * GOLDEN_RATIO_FRAC).fract();
    let mu_new = 5e-5 + 1e-4 * frac;
    let phi = pick(rng, &goldens.paper).0;
    let params = GsuParams {
        mu_new,
        ..GsuParams::paper_baseline()
    };
    Target {
        url: format!("/eval?phi={phi}&mu_new={mu_new}"),
        expect: Expect::Override { params, phi },
    }
}

/// The open-loop timeline: the seeded Poisson arrivals of the mix, plus
/// `/metrics` at every second's half and `/healthz` at its three quarters.
/// Offsets are nanoseconds from the start of the phase.
pub fn open_plan(mix: Mix, goldens: &Goldens, seed: u64, seconds: f64) -> Vec<(u64, Target)> {
    let mut plan: Vec<(u64, Target)> = build_schedule(mix.rate_rps(), seconds, seed)
        .into_iter()
        .enumerate()
        .map(|(i, due)| (due, target(mix, goldens, seed, i as u64)))
        .collect();
    let mut t = 0.0;
    while t + 0.5 < seconds {
        for (at, url, expect) in [
            (t + 0.5, "/metrics", Expect::Metrics),
            (t + 0.75, "/healthz", Expect::Healthz),
        ] {
            if at < seconds {
                plan.push((
                    (at * 1e9) as u64,
                    Target {
                        url: url.to_string(),
                        expect,
                    },
                ));
            }
        }
        t += 1.0;
    }
    plan.sort_by_key(|(due, _)| *due);
    plan
}

/// A spawned daemon; dropping it kills the process and waits for it, on
/// every exit path of the benchmark.
struct Daemon {
    child: Child,
    // Held so the daemon never writes into a closed pipe.
    _stdout: std::io::BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(exe: &Path, root: &Path, cpu: Option<u32>) -> Result<Daemon, String> {
        use std::io::BufRead as _;
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.arg("-c").arg(cpu.to_string()).arg(exe);
                taskset
            }
            None => Command::new(exe),
        };
        cmd.args(["--addr", "127.0.0.1:0", "--workers", SERVER_WORKERS])
            .current_dir(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in DAEMON_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".to_string());
        };
        let mut daemon = Daemon {
            child,
            _stdout: std::io::BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("gsu-serve listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report its address: {line:?}"))?;
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = http_get(self.addr, "/readyz") {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("daemon not ready after 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pins this process (every thread) to the first CPU it may use and returns
/// the second, for the daemon: with the load generator and the daemon on
/// cores of their own, neither migrates onto the other's, which on the
/// reference box halved the run-to-run spread of `/eval` latency. `None`
/// (both unpinned) with fewer than two CPUs or without `taskset`. Decided
/// once per process: after pinning, this process may use only one CPU.
fn pin_client() -> Option<u32> {
    static DAEMON_CPU: std::sync::OnceLock<Option<u32>> = std::sync::OnceLock::new();
    *DAEMON_CPU.get_or_init(pin_once)
}

fn pin_once() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpus = parse_cpu_list(allowed.trim())?;
    let (&client, &daemon) = (cpus.first()?, cpus.get(1)?);
    let pinned = Command::new("taskset")
        .args(["-a", "-p", "-c"])
        .arg(client.to_string())
        .arg(std::process::id().to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    pinned.then_some(daemon)
}

/// Parses a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<u32>().ok()?..=hi.parse::<u32>().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// One answered (or failed) request.
struct Sample {
    expect: Expect,
    latency_ms: f64,
    lag_ms: f64,
    verdict: Result<(), String>,
    /// The `/metrics` body, or an override's `(params, φ, y)` to check
    /// after the run.
    body: Option<String>,
    override_y: Option<(GsuParams, f64, f64)>,
}

/// Checks a response against its expectation. Override answers are only
/// parsed here; they are checked after the run, off the measured path.
fn check(target: &Target, response: std::io::Result<(u16, String)>) -> Sample {
    let mut sample = Sample {
        expect: target.expect.clone(),
        latency_ms: 0.0,
        lag_ms: 0.0,
        verdict: Ok(()),
        body: None,
        override_y: None,
    };
    let (status, body) = match response {
        Ok(r) => r,
        Err(e) => {
            sample.verdict = Err(format!("{}: {e}", target.url));
            return sample;
        }
    };
    let want_status = if matches!(target.expect, Expect::BadParam(_)) {
        400
    } else {
        200
    };
    if status != want_status {
        let first = body.lines().next().unwrap_or("");
        sample.verdict = Err(format!(
            "{} -> {status}, want {want_status}: {first}",
            target.url
        ));
        return sample;
    }
    sample.verdict = match &target.expect {
        Expect::Y(want) => eval_y(&body).and_then(|got| check_close(got, *want)),
        Expect::Override { params, phi } => eval_y(&body).map(|y| {
            sample.override_y = Some((*params, *phi, y));
        }),
        Expect::BadParam(param) => match json::parse(&body) {
            Ok(v) if v.get("param").and_then(Value::as_str) == Some(param) => Ok(()),
            _ => Err(format!("400 does not name {param}: {body}")),
        },
        Expect::Metrics => gsu_serve::validate_exposition(&body).map(|_| {
            sample.body = Some(body);
        }),
        Expect::Healthz => {
            if body.trim() == "ok" {
                Ok(())
            } else {
                Err(format!("/healthz body {body:?}"))
            }
        }
    }
    .map_err(|e| format!("{}: {e}", target.url));
    sample
}

fn eval_y(body: &str) -> Result<f64, String> {
    json::parse(body)?
        .get("y")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no y in {body}"))
}

/// The open loop: two connections take the next due request from a shared
/// timeline, wait until it is due, and time it from then.
fn drive_open(addr: SocketAddr, plan: &[(u64, Target)]) -> (Vec<Sample>, u64) {
    let next = AtomicUsize::new(0);
    let connects = AtomicU64::new(0);
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HttpClient::new(addr, true);
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((offset, target)) = plan.get(i) else {
                            break;
                        };
                        let due = start + Duration::from_nanos(*offset);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let lag_ms = due.elapsed().as_secs_f64() * 1e3;
                        let response = client.get(&target.url);
                        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                        let mut sample = check(target, response);
                        sample.latency_ms = latency_ms;
                        sample.lag_ms = lag_ms;
                        mine.push((i, sample));
                    }
                    connects.fetch_add(client.connects(), Ordering::Relaxed);
                    mine
                })
            })
            .collect();
        let mut all: Vec<(usize, Sample)> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default())
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, s)| s).collect()
    });
    (samples, connects.into_inner())
}

/// The closed loop: two connections send the mix back to back (indices
/// continuing after the open loop's) until the deadline. Returns the
/// samples and the phase's wall time.
fn drive_closed(
    addr: SocketAddr,
    mix: Mix,
    goldens: &Goldens,
    seed: u64,
    first_index: u64,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(first_index);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HttpClient::new(addr, true);
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let target = target(mix, goldens, seed, i);
                        let sent = Instant::now();
                        let response = client.get(&target.url);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let mut sample = check(&target, response);
                        sample.latency_ms = latency_ms;
                        mine.push(sample);
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Where the daemon binary must be: next to this executable.
fn daemon_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let exe = me.with_file_name("gsu-serve");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "gsu-serve not found at {}: build it into the same target directory \
             (cargo build --release -p gsu-serve)",
            exe.display()
        ))
    }
}

/// Runs one serve workload.
pub fn run(mix: Mix, config: &RunConfig) -> Result<Outcome, String> {
    let exe = daemon_exe()?;
    let goldens = Goldens::load(&config.root)?;
    let open_s = config.seconds * OPEN_SHARE;
    let plan = open_plan(mix, &goldens, config.seed, open_s);
    let mut outcome = Outcome::default();
    let daemon_cpu = pin_client();
    if daemon_cpu.is_none() {
        eprintln!(
            "{}: running unpinned (needs two CPUs and taskset)",
            mix.name()
        );
    }

    // Set-up: spawn to ready with every analysis of the mix warm, several
    // times; the last daemon serves the run.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        drop(daemon.take());
        let start = Instant::now();
        let d = Daemon::spawn(&exe, &config.root, daemon_cpu)?;
        d.wait_ready()?;
        for t in goldens.warm_targets() {
            outcome.record(check(&t, http_get(d.addr, &t.url)).verdict);
        }
        setups.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.ok_or("no daemon was started")?;
    let rss_warm = memory_mib(daemon.pid())?.0;

    let (open, connects) = drive_open(daemon.addr, &plan);
    // A lost connection thread's requests count as failures, never as
    // silence.
    for _ in open.len()..plan.len() {
        outcome.record(Err("an open-loop connection thread died".to_string()));
    }
    let (requests_status, requests_body) =
        http_get(daemon.addr, "/requests").map_err(|e| format!("reading /requests: {e}"))?;
    if requests_status != 200 {
        return Err(format!("/requests -> {requests_status}"));
    }
    // The peak is taken before the closed loop, whose request count (and so
    // the daemon's growth) depends on the machine's speed.
    let (rss_open, peak) = memory_mib(daemon.pid())?;
    let (closed, closed_s) = drive_closed(
        daemon.addr,
        mix,
        &goldens,
        config.seed,
        plan.len() as u64,
        config.seconds - open_s,
    );
    drop(daemon);
    // The machine's speed, for context only (see `calib`).
    let kernel_ms = calib::sample(CALIB_RUNS);

    // Every sample's verdict, then the deferred override checks.
    let mut eval_ms = Vec::new();
    let mut scrape_ms = Vec::new();
    let mut healthz_ms = Vec::new();
    let mut last_metrics = String::new();
    for s in &open {
        let latency = if s.verdict.is_ok() {
            s.latency_ms
        } else {
            f64::INFINITY
        };
        match s.expect {
            Expect::Metrics => scrape_ms.push(latency),
            Expect::Healthz => healthz_ms.push(latency),
            _ => eval_ms.push(latency),
        }
        if let Some(body) = &s.body {
            last_metrics.clone_from(body);
        }
    }
    let capacity = closed.iter().filter(|s| s.verdict.is_ok()).count() as f64 / closed_s;
    for s in open.iter().chain(&closed) {
        outcome.record(s.verdict.clone());
        if let Some((params, phi, y)) = s.override_y {
            outcome.record(check_override(params, phi, y));
        }
    }
    outcome.end_to_end = end_to_end(
        mix.name(),
        &setups,
        &eval_ms,
        TAIL_Q,
        (capacity, closed.len()),
        peak,
    );
    let lag: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
    let mut layers = vec![
        Metric::new(
            "serve.healthz_ms.p50",
            quantile(&healthz_ms, 0.5),
            "ms",
            healthz_ms.len(),
        ),
        Metric::new("serve.connects", connects as f64, "count", 1),
        Metric::new(
            "telemetry.scrape_ms.p50",
            quantile(&scrape_ms, 0.5),
            "ms",
            scrape_ms.len(),
        ),
        Metric::new("telemetry.scrape_bytes", last_metrics.len() as f64, "B", 1),
        Metric::new("process.rss_growth_mib", rss_open - rss_warm, "MiB", 1),
        Metric::new(
            "serve.eval_ms.p99",
            quantile(&eval_ms, 0.99),
            "ms",
            eval_ms.len(),
        ),
        Metric::new("harness.lag_ms.p99", quantile(&lag, 0.99), "ms", lag.len()),
        Metric::new(
            "harness.calib_ms",
            median(&kernel_ms),
            "ms",
            kernel_ms.len(),
        ),
    ];
    layers.append(&mut exposition_layers(&last_metrics));
    layers.append(&mut wide_event_layers(&requests_body)?);
    outcome.per_layer = layers;
    Ok(outcome)
}

/// An override answer against a fresh in-process analysis of the same
/// parameters.
fn check_override(params: GsuParams, phi: f64, y: f64) -> Result<(), String> {
    GsuAnalysis::new(params)
        .and_then(|a| a.evaluate(phi))
        .map_err(|e| e.to_string())
        .and_then(|want| check_close(y, want.y))
        .map_err(|e| format!("override mu_new={} phi={phi}: {e}", params.mu_new))
}

/// Per-layer numbers from the daemon's last `/metrics` exposition.
fn exposition_layers(body: &str) -> Vec<Metric> {
    let mut spans = 0.0;
    let mut hits = 0.0;
    let mut misses = 0.0;
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().unwrap_or(0.0);
        if series.starts_with("gsu_span_count{") {
            spans += value;
        } else if series == "gsu_serve_analysis_cache_hits" {
            hits = value;
        } else if series == "gsu_serve_analysis_cache_misses" {
            misses = value;
        }
    }
    let lookups: f64 = hits + misses;
    vec![
        Metric::new("telemetry.spans_retained", spans, "count", 1),
        Metric::new(
            "serve.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
            lookups as usize,
        ),
    ]
}

/// Per-layer numbers from the `/requests` wide events of successful
/// evaluations: service and queueing time, solver work, and the time each
/// layer's spans took, per request.
fn wide_event_layers(body: &str) -> Result<Vec<Metric>, String> {
    let events: Vec<Value> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::parse)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("malformed /requests line: {e}"))?
        .into_iter()
        .filter(|e| e.get("status").and_then(Value::as_f64) == Some(200.0))
        .collect();
    let n = events.len();
    // Folds from +0.0: an empty `f64` sum is -0.0.
    let per_event = |values: &mut dyn Iterator<Item = f64>| {
        let total = values.fold(0.0, |a, b| a + b);
        if n > 0 {
            total / n as f64
        } else {
            0.0
        }
    };
    let phase_us = |e: &Value, span: &str| {
        e.get("phases")
            .and_then(|p| p.get(span))
            .and_then(|p| p.get("total_us"))
            .and_then(Value::as_f64)
    };
    let phase_ms =
        |span: &str| per_event(&mut events.iter().filter_map(|e| phase_us(e, span))) / 1e3;
    let field = |key: &str| -> Vec<f64> {
        events
            .iter()
            .filter_map(|e| e.get(key).and_then(Value::as_f64))
            .collect()
    };
    let solves: Vec<&Value> = events
        .iter()
        .filter_map(|e| e.get("solves").and_then(Value::as_array))
        .flatten()
        .collect();
    let solve_sum = |key: &str| {
        per_event(
            &mut solves
                .iter()
                .filter_map(|s| s.get(key).and_then(Value::as_f64)),
        )
    };
    let evaluate_us: Vec<f64> = events
        .iter()
        .filter_map(|e| phase_us(e, "performability.evaluate"))
        .collect();
    let service = field("service_us");
    let eval_us = per_event(&mut events.iter().filter_map(|e| phase_us(e, "serve.eval")));
    let service_us = per_event(&mut service.iter().copied());
    Ok(vec![
        Metric::new("markov.spmv_ops", solve_sum("spmv_ops"), "count", n),
        Metric::new("markov.iterations", solve_sum("iterations"), "count", n),
        Metric::new(
            "markov.expm_solves",
            per_event(
                &mut solves
                    .iter()
                    .filter(|s| s.get("method").and_then(Value::as_str) == Some("expm"))
                    .map(|_| 1.0),
            ),
            "count",
            n,
        ),
        Metric::new(
            "markov.expm_self_ms",
            phase_ms("markov.solve.expm"),
            "ms",
            n,
        ),
        Metric::new(
            "markov.uniformization_self_ms",
            phase_ms("markov.solve.uniformization"),
            "ms",
            n,
        ),
        Metric::new("markov.steady_ms", phase_ms("markov.solve.steady"), "ms", n),
        Metric::new("core.build_ms", phase_ms("performability.build"), "ms", n),
        Metric::new(
            "core.evaluate_us.p50",
            if evaluate_us.is_empty() {
                0.0
            } else {
                quantile(&evaluate_us, 0.5)
            },
            "us",
            evaluate_us.len(),
        ),
        Metric::new("scenario.build_ms", phase_ms("scenario.build"), "ms", n),
        Metric::new("san.generate_ms", phase_ms("san.generate"), "ms", n),
        Metric::new(
            "serve.service_us.p50",
            quantile(&service, 0.5),
            "us",
            service.len(),
        ),
        Metric::new(
            "serve.queue_us.p99",
            quantile(&field("queue_us"), 0.99),
            "us",
            n,
        ),
        Metric::new(
            "trace.coverage",
            if service_us > 0.0 {
                eval_us / service_us
            } else {
                0.0
            },
            "ratio",
            n,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goldens() -> Goldens {
        Goldens::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")).unwrap()
    }

    #[test]
    fn a_seed_gives_the_same_schedule_and_mix() {
        let g = goldens();
        for mix in [Mix::Cached, Mix::Churn] {
            let a = open_plan(mix, &g, 11, 3.0);
            assert_eq!(a, open_plan(mix, &g, 11, 3.0), "same seed, same plan");
            assert_ne!(a, open_plan(mix, &g, 12, 3.0), "the seed matters");
            assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "due times ascend");
            let probes = a
                .iter()
                .filter(|(_, t)| matches!(t.expect, Expect::Metrics | Expect::Healthz))
                .count();
            assert_eq!(probes, 6, "one /metrics and one /healthz per second");
            // Closed-loop draws continue the same pure sequence.
            assert_eq!(target(mix, &g, 11, 5000), target(mix, &g, 11, 5000));
        }
    }

    #[test]
    fn mixes_have_their_shares() {
        let g = &goldens();
        let n = 4000u64;
        let draws = |mix| {
            (0..n)
                .map(move |i| target(mix, g, 3, i))
                .collect::<Vec<_>>()
        };
        let cached = draws(Mix::Cached);
        let paper = cached
            .iter()
            .filter(|t| t.url.starts_with("/eval?phi="))
            .count();
        assert!(
            (2200..2600).contains(&paper),
            "60% paper evals, got {paper}"
        );
        assert!(cached.iter().all(|t| matches!(t.expect, Expect::Y(_))));
        let churn = draws(Mix::Churn);
        let count = |f: &dyn Fn(&Expect) -> bool| churn.iter().filter(|t| f(&t.expect)).count();
        let overrides = count(&|e| matches!(e, Expect::Override { .. }));
        let bad = count(&|e| matches!(e, Expect::BadParam(_)));
        assert!(
            (1800..2200).contains(&overrides),
            "50% overrides, got {overrides}"
        );
        assert!((300..500).contains(&bad), "10% malformed, got {bad}");
    }

    #[test]
    fn churn_overrides_have_distinct_fingerprints() {
        let g = goldens();
        let mut seen = std::collections::BTreeSet::new();
        let mut overrides = 0;
        for i in 0..20_000 {
            if let Expect::Override { params, .. } = target(Mix::Churn, &g, 9, i).expect {
                overrides += 1;
                params.validate().unwrap();
                assert!(
                    seen.insert(gsu_serve::params_fingerprint(&params)),
                    "index {i} repeats an override"
                );
            }
        }
        assert!(overrides > 9000);
    }

    #[test]
    fn responses_are_checked_against_expectations() {
        let ok = |status, body: &str| Ok((status, body.to_string()));
        let t = |url: &str, expect| Target {
            url: url.to_string(),
            expect,
        };
        let eval = t("/eval?phi=1", Expect::Y(1.5));
        assert!(check(&eval, ok(200, "{\"y\":1.5}")).verdict.is_ok());
        assert!(check(&eval, ok(200, "{\"y\":1.6}")).verdict.is_err());
        assert!(check(&eval, ok(500, "{\"y\":1.5}")).verdict.is_err());
        let io = Err(std::io::Error::other("reset"));
        assert!(check(&eval, io).verdict.is_err());
        let bad = t("/eval?phi=x", Expect::BadParam("phi"));
        let named = "{\"error\":\"e\",\"param\":\"phi\"}";
        assert!(check(&bad, ok(400, named)).verdict.is_ok());
        assert!(check(&bad, ok(400, "{\"param\":\"mu_new\"}"))
            .verdict
            .is_err());
        assert!(check(&bad, ok(200, named)).verdict.is_err());
        let params = GsuParams::paper_baseline();
        let over = t("/eval", Expect::Override { params, phi: 7.0 });
        let s = check(&over, ok(200, "{\"y\":1.25}"));
        assert_eq!(s.override_y, Some((params, 7.0, 1.25)));
    }

    #[test]
    fn override_answers_match_in_process_analysis() {
        let params = GsuParams::paper_baseline().with_mu_new(7e-5).unwrap();
        let y = GsuAnalysis::new(params)
            .unwrap()
            .evaluate(5000.0)
            .unwrap()
            .y;
        assert!(check_override(params, 5000.0, y).is_ok());
        assert!(check_override(params, 5000.0, y * 1.001).is_err());
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3,5-7"), Some(vec![3, 5, 6, 7]));
        assert_eq!(parse_cpu_list("0-x"), None);
    }

    #[test]
    fn server_surfaces_become_layer_metrics() {
        let metrics = "# TYPE gsu_span_count counter\ngsu_span_count{span=\"a\"} 3\n\
                       gsu_span_count{span=\"b\"} 4\ngsu_serve_analysis_cache_hits 3\n\
                       gsu_serve_analysis_cache_misses 1\n";
        let m = exposition_layers(metrics);
        assert_eq!(m[0].value, 7.0);
        assert_eq!(m[1].value, 0.75);
        let requests = "{\"status\":200,\"service_us\":100,\"queue_us\":5,\
            \"phases\":{\"serve.eval\":{\"count\":1,\"total_us\":90},\
            \"markov.solve.expm\":{\"count\":2,\"total_us\":60}},\
            \"solves\":[{\"method\":\"expm\",\"iterations\":4},{\"method\":\"expm\",\"iterations\":6}]}\n\
            {\"status\":400,\"service_us\":9,\"queue_us\":0,\"phases\":{},\"solves\":[]}\n";
        let layers = wide_event_layers(requests).unwrap();
        let get = |name: &str| layers.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("markov.expm_solves"), 2.0);
        assert_eq!(get("markov.iterations"), 10.0);
        assert_eq!(get("markov.expm_self_ms"), 0.06);
        assert_eq!(get("serve.service_us.p50"), 100.0);
        assert_eq!(get("trace.coverage"), 0.9);
    }
}
