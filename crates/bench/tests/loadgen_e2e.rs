//! End-to-end loadgen test: boot a real `gsu-serve` on an ephemeral port,
//! drive it with a short seeded open-loop run gated by a generous SLO
//! document, and confirm the report, the gate records it yields, and the
//! checks all come out as the CI stage expects.

use std::path::{Path, PathBuf};

use gsu_bench::loadgen::{self, LoadgenConfig, Mode};
use gsu_serve::Server;
use telemetry::Collector;

/// Committed scenario catalog, relative to this crate's test CWD.
const SCENARIOS: &str = "../../scenarios";

/// Serializes the two e2e tests: each saturates the box on its own, and
/// quantile assertions are meaningless while another load test is running.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsu-loadgen-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn open_loop_check_run_against_a_live_server() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector, Path::new(SCENARIOS))
        .expect("bind with the committed catalog");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(2));

    let dir = temp_dir("open");
    let slo_path = dir.join("SLO.json");
    // A rate well under this box's capacity (the /stats agreement check is
    // only meaningful below saturation) and generous thresholds: this test
    // asserts the machinery, not the latency of a loaded CI box.
    std::fs::write(
        &slo_path,
        r#"{"schema":"gsu-slo-v1","window_s":60,"rate_rps":12,
  "slos":[
    {"endpoint":"/eval","threshold_ms":2000,"target":0.5},
    {"endpoint":"/metrics","threshold_ms":2000,"target":0.5}
  ]}"#,
    )
    .expect("write slo");
    let report_path = dir.join("loadgen.json");

    let config = LoadgenConfig {
        addr: addr.to_string(),
        mode: Mode::Open,
        duration_s: 3.0,
        connections: 2,
        seed: 42,
        slo_path: slo_path.clone(),
        scenarios_dir: PathBuf::from(SCENARIOS),
        report_path: Some(report_path.clone()),
        check: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("loadgen run");

    assert_eq!(report.mode, "open");
    assert_eq!(report.rate_rps, 12.0, "rate defaults from the SLO document");
    assert!(
        report.requests > 20,
        "expected traffic, got {}",
        report.requests
    );
    assert_eq!(report.errors, 0, "{}", report.render());
    assert!(
        report.connects <= 4,
        "keep-alive should reuse connections, opened {}",
        report.connects
    );
    assert!(
        report.endpoints.iter().any(|e| e.endpoint == "/eval"),
        "mix must hit /eval"
    );
    assert!(!report.checks.is_empty(), "--check populates checks");
    assert!(report.passed(), "{}", report.render());

    // The written report round-trips and matches what run() returned.
    let written = std::fs::read_to_string(&report_path).expect("report file");
    let parsed = loadgen::parse_report(&written).expect("parse written report");
    assert_eq!(parsed, report);

    // The written report is the ratchet's input: one record per gated
    // quantile, in milliseconds, with no work counters.
    let records = gsu_bench::read_bench_records(&report_path).expect("report as records");
    assert_eq!(records.len(), 3);
    for (suffix, value_us) in [
        ("p50", report.overall.p50_us),
        ("p99", report.overall.p99_us),
        ("p999", report.overall.p999_us),
    ] {
        let name = format!("serve:open:{suffix}");
        let record = records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing record {name}"));
        assert_eq!(record.wall_ms, Some(value_us / 1000.0));
        assert_eq!(record.threads, Some(2));
        assert_eq!(record.grid, Some(report.requests as usize));
        assert!(record.counters.is_empty());
    }

    handle.shutdown();
    serving.join().expect("server thread");
    telemetry::clear_sink();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_loop_without_keepalive_reconnects_per_request() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector, Path::new(SCENARIOS))
        .expect("bind with the committed catalog");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(2));

    let dir = temp_dir("closed");
    let config = LoadgenConfig {
        addr: addr.to_string(),
        mode: Mode::Closed,
        rate: Some(50.0),
        duration_s: 0.5,
        connections: 2,
        seed: 7,
        keep_alive: false,
        slo_path: dir.join("no-such-SLO.json"),
        scenarios_dir: PathBuf::from(SCENARIOS),
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("loadgen run");

    assert_eq!(report.mode, "closed");
    assert_eq!(report.label, "closed-nokeepalive");
    assert!(report.requests > 0);
    assert_eq!(report.errors, 0, "{}", report.render());
    assert!(
        report.connects >= report.requests,
        "close mode opens a connection per request: {} connects for {} requests",
        report.connects,
        report.requests
    );
    assert!(report.checks.is_empty(), "no --check, no checks");
    assert!(report.passed(), "vacuously true without checks");

    handle.shutdown();
    serving.join().expect("server thread");
    telemetry::clear_sink();
    let _ = std::fs::remove_dir_all(&dir);
}
