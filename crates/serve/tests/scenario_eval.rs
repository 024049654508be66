//! End-to-end test of `/eval?scenario=`: catalog loading, lazy analysis
//! caching, agreement with a direct evaluation, and structured 400s that
//! name the offending query parameter (`scenario` vs `phi`).

use gsu_serve::http::http_get;
use gsu_serve::Server;
use telemetry::Collector;

const TINY: &str = "\
scenario \"tiny\"
theta 50
lambda 40
mu_new 0.02
mu_old 0.0000001
coverage 0.95
p_ext 0.1
at exp 200
ckpt exp 200
phi_grid 0 25 50
sim_reps 100
sim_seed 5
";

#[test]
fn scenario_eval_round_trip_and_structured_errors() {
    let dir = std::env::temp_dir().join(format!("gsu-serve-scenarios-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tiny.gsu"), TINY).unwrap();

    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector, &dir).expect("bind with the catalog");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(2));

    // A scenario evaluation answers with the scenario name stamped into the
    // body and a Y value matching a direct evaluation of the same spec.
    let (status, body) = http_get(addr, "/eval?scenario=tiny&phi=25").expect("/eval scenario");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"scenario\":\"tiny\""), "{body}");
    let served_y = json_number(&body, "y").expect("y field");
    let spec = gsu_scenario::parse(TINY).unwrap();
    let direct = gsu_scenario::ScenarioAnalysis::new(spec)
        .unwrap()
        .analysis()
        .evaluate(25.0)
        .unwrap();
    assert!(
        (served_y - direct.y).abs() < 1e-12,
        "served y = {served_y}, direct y = {}",
        direct.y
    );

    // A second request hits the cached analysis and must agree exactly.
    let (status, again) = http_get(addr, "/eval?scenario=tiny&phi=25").expect("cached eval");
    assert_eq!(status, 200);
    assert_eq!(json_number(&again, "y"), Some(served_y));

    // Unknown scenario names, and φ failures on a valid scenario, must each
    // name their own parameter in the structured 400 body.
    let (status, body) = http_get(addr, "/eval?scenario=nope&phi=25").expect("unknown scenario");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"param\":\"scenario\""), "{body}");
    assert!(body.contains("unknown scenario `nope`"), "{body}");
    assert!(
        body.contains("catalog has 1: tiny"),
        "error should list the catalog: {body}"
    );
    for target in [
        "/eval?scenario=tiny",
        "/eval?scenario=tiny&phi=bogus",
        "/eval?scenario=tiny&phi=-3",
    ] {
        let (status, body) = http_get(addr, target).expect(target);
        assert_eq!(status, 400, "{target}: {body}");
        assert!(body.contains("\"param\":\"phi\""), "{target}: {body}");
    }
    // An unknown scenario outranks a bad φ: the reference is checked first.
    let (status, body) = http_get(addr, "/eval?scenario=nope&phi=bogus").expect("both bad");
    assert_eq!(status, 400);
    assert!(body.contains("\"param\":\"scenario\""), "{body}");

    // The wide-event log carries the scenario name on success and failure.
    let (status, log) = http_get(addr, "/requests").expect("/requests");
    assert_eq!(status, 200);
    assert!(
        log.lines()
            .any(|l| l.contains("\"scenario\":\"tiny\"") && l.contains("\"status\":200")),
        "{log}"
    );
    assert!(
        log.lines()
            .any(|l| l.contains("\"scenario\":\"nope\"") && l.contains("\"status\":400")),
        "{log}"
    );

    handle.shutdown();
    serving.join().expect("server thread");
    telemetry::clear_sink();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Value of a top-level `"key":number` pair in a flat JSON object.
fn json_number(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
