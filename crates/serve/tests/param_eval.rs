//! End-to-end test of `/eval` paper-parameter overrides: the overridden
//! analysis is memoized per params fingerprint in a cache bounded at
//! `ANALYSIS_CACHE_CAPACITY`, agrees with a direct evaluation, and
//! validation failures name the offending query parameter.

use std::path::Path;

use gsu_serve::http::http_get;
use gsu_serve::{Server, ANALYSIS_CACHE_CAPACITY, SCENARIOS_DIR};
use performability::{GsuAnalysis, GsuParams};
use telemetry::Collector;

#[test]
fn param_override_eval_is_memoized_and_validated() {
    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector.clone(), Path::new(SCENARIOS_DIR))
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(2));

    // An overridden evaluation matches a direct pipeline run on the same
    // parameter assignment.
    let (status, body) = http_get(addr, "/eval?phi=2500&mu_new=0.00005").expect("override eval");
    assert_eq!(status, 200, "{body}");
    let served_y = json_number(&body, "y").expect("y field");
    let params = GsuParams::paper_baseline().with_mu_new(5e-5).unwrap();
    let direct = GsuAnalysis::new(params).unwrap().evaluate(2500.0).unwrap();
    assert!(
        (served_y - direct.y).abs() < 1e-12,
        "served y = {served_y}, direct y = {}",
        direct.y
    );

    // A second request against the same assignment hits the cache: the miss
    // counter stays at one while the hit counter moves.
    let (status, again) = http_get(addr, "/eval?phi=2500&mu_new=0.00005").expect("cached eval");
    assert_eq!(status, 200);
    assert_eq!(json_number(&again, "y"), Some(served_y));
    assert_eq!(
        collector.counter_value("serve.analysis_cache.misses"),
        Some(1)
    );
    assert_eq!(
        collector.counter_value("serve.analysis_cache.hits"),
        Some(1)
    );

    // A different assignment is a fresh build, not a stale cache hit.
    let (status, other) = http_get(addr, "/eval?phi=2500&mu_new=0.0002").expect("second override");
    assert_eq!(status, 200);
    assert_ne!(json_number(&other, "y"), Some(served_y));
    assert_eq!(
        collector.counter_value("serve.analysis_cache.misses"),
        Some(2)
    );

    // Without overrides the prebuilt baseline analysis answers — the cache
    // is never consulted.
    let (status, baseline) = http_get(addr, "/eval?phi=2500").expect("baseline eval");
    assert_eq!(status, 200, "{baseline}");
    assert_eq!(
        collector.counter_value("serve.analysis_cache.misses"),
        Some(2)
    );

    // The cache is bounded: distinct assignments beyond its capacity evict
    // the oldest insertion, which then has to be rebuilt. A hit does not
    // refresh an entry, so the first assignment goes first even though it
    // was requested again more recently than the second.
    assert_eq!(
        collector.counter_value("serve.analysis_cache.evictions"),
        None
    );
    let (status, _) = http_get(addr, "/eval?phi=2500&mu_new=0.00005").expect("cached eval");
    assert_eq!(status, 200);
    assert_eq!(
        collector.counter_value("serve.analysis_cache.hits"),
        Some(2)
    );
    for i in 2..=ANALYSIS_CACHE_CAPACITY {
        let target = format!("/eval?phi=2500&mu_new={}", 1e-5 * (i + 20) as f64);
        let (status, body) = http_get(addr, &target).expect(&target);
        assert_eq!(status, 200, "{target}: {body}");
    }
    assert_eq!(
        collector.counter_value("serve.analysis_cache.misses"),
        Some(ANALYSIS_CACHE_CAPACITY as u64 + 1)
    );
    assert_eq!(
        collector.counter_value("serve.analysis_cache.evictions"),
        Some(1)
    );
    let (status, kept) = http_get(addr, "/eval?phi=2500&mu_new=0.0002").expect("kept");
    assert_eq!(status, 200);
    assert_eq!(json_number(&kept, "y"), json_number(&other, "y"));
    assert_eq!(
        collector.counter_value("serve.analysis_cache.misses"),
        Some(ANALYSIS_CACHE_CAPACITY as u64 + 1)
    );
    let (status, rebuilt) = http_get(addr, "/eval?phi=2500&mu_new=0.00005").expect("evicted");
    assert_eq!(status, 200);
    assert_eq!(json_number(&rebuilt, "y"), Some(served_y));
    assert_eq!(
        collector.counter_value("serve.analysis_cache.misses"),
        Some(ANALYSIS_CACHE_CAPACITY as u64 + 2)
    );

    // Validation failures name the offending parameter.
    for (target, param) in [
        ("/eval?phi=2500&mu_new=bogus", "mu_new"),
        ("/eval?phi=2500&coverage=1.5", "coverage"),
        ("/eval?phi=2500&theta=-1", "theta"),
        ("/eval?phi=2500&scenario=tiny&mu_new=0.0001", "scenario"),
    ] {
        let (status, body) = http_get(addr, target).expect(target);
        assert_eq!(status, 400, "{target}: {body}");
        assert!(
            body.contains(&format!("\"param\":\"{param}\"")),
            "{target}: {body}"
        );
    }

    handle.shutdown();
    serving.join().expect("server thread");
    telemetry::clear_sink();
}

/// Value of a top-level `"key":number` pair in a flat JSON object.
fn json_number(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
