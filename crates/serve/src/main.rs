//! `gsu-serve` binary: bind, install telemetry, serve until killed.
//!
//! ```text
//! gsu-serve [--addr HOST:PORT] [--workers N]      # serve (default 127.0.0.1:9184)
//! gsu-serve smoke [--workers N]                   # self-test: bind :0, probe every
//!                                                 # endpoint, shut down; exit 0/1
//! ```
//!
//! `GSU_LOG=info|debug` turns on the JSONL event log (stderr).

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use gsu_serve::http::http_get;
use gsu_serve::{validate_exposition, Server, DEFAULT_WORKERS, SCENARIOS_DIR};
use telemetry::{json, Collector};

const DEFAULT_ADDR: &str = "127.0.0.1:9184";

struct Args {
    addr: String,
    workers: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: DEFAULT_ADDR.to_string(),
        workers: DEFAULT_WORKERS,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "smoke" => args.smoke = true,
            "--addr" => {
                args.addr = it.next().ok_or("--addr needs a HOST:PORT value")?;
            }
            "--workers" => {
                let raw = it.next().ok_or("--workers needs a count")?;
                args.workers = raw
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--workers needs a positive count, got {raw}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: gsu-serve [smoke] [--addr HOST:PORT] [--workers N]".to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    telemetry::init_log_from_env("GSU_LOG");
    let collector = Collector::install();

    if args.smoke {
        return smoke(collector, args.workers);
    }

    let server = match Server::bind(&args.addr, collector, Path::new(SCENARIOS_DIR)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gsu-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // Printed (and flushed) before serving so scripts binding :0 can scrape
    // the real port from the first stdout line.
    println!("gsu-serve listening on http://{}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.run(args.workers);
    ExitCode::SUCCESS
}

/// Binds an ephemeral port, probes every endpoint through the real TCP
/// stack, and shuts down. The CI smoke gate (scripts/check.sh) runs this
/// when `curl` is unavailable; it is also a quick manual sanity check.
fn smoke(collector: Arc<Collector>, workers: usize) -> ExitCode {
    let server = match Server::bind("127.0.0.1:0", collector, Path::new(SCENARIOS_DIR)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("smoke: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(workers));

    // A Cell so both the `check` closure and the trace round-trip below can
    // bump the count without fighting over a mutable borrow.
    let failures = std::cell::Cell::new(0u32);
    let check = |target: &str, want_status: u16, probe: &dyn Fn(&str) -> Result<(), String>| {
        match http_get(addr, target) {
            Ok((status, body)) if status == want_status => match probe(&body) {
                Ok(()) => println!("smoke: {target} -> {status} ok"),
                Err(why) => {
                    eprintln!("smoke: {target} -> {status} but body invalid: {why}");
                    failures.set(failures.get() + 1);
                }
            },
            Ok((status, body)) => {
                eprintln!(
                    "smoke: {target} -> {status}, want {want_status}; body: {}",
                    body.lines().next().unwrap_or("")
                );
                failures.set(failures.get() + 1);
            }
            Err(e) => {
                eprintln!("smoke: {target} failed: {e}");
                failures.set(failures.get() + 1);
            }
        }
    };

    check("/healthz", 200, &|body| {
        (body.trim() == "ok")
            .then_some(())
            .ok_or_else(|| body.to_string())
    });
    check("/readyz", 200, &|_| Ok(()));
    check("/eval?phi=7000", 200, &|body| {
        let doc = json::parse(body)?;
        doc.num("y")?;
        doc.string("trace_id").map(drop)
    });
    check("/eval?phi=bogus", 400, &|body| {
        member_is(body, "param", "phi")
    });
    // Scenario routes, when a catalog is present next to the daemon (the CI
    // smoke runs from the workspace root, where `scenarios/` is committed).
    if Path::new(SCENARIOS_DIR).is_dir() {
        check("/eval?scenario=paper-baseline&phi=5000", 200, &|body| {
            json::parse(body)?.num("y")?;
            member_is(body, "scenario", "paper-baseline")
        });
        check("/eval?scenario=no-such&phi=5000", 400, &|body| {
            member_is(body, "param", "scenario")
        });
    }
    check("/metrics", 200, &|body| {
        validate_exposition(body)?;
        body.contains("gsu_build_info{")
            .then_some(())
            .ok_or_else(|| "gsu_build_info missing".to_string())?;
        // Earlier probes served requests, so both the cumulative (_alltime)
        // and the recent-window latency families must be present.
        body.contains("gsu_serve_request_us_alltime_p50 ")
            .then_some(())
            .ok_or_else(|| "gsu_serve_request_us_alltime_p50 missing".to_string())?;
        body.contains("gsu_serve_window_request_us_p99{route=")
            .then_some(())
            .ok_or_else(|| "gsu_serve_window_request_us_p99 missing".to_string())
    });
    check("/trace", 200, &|body| {
        json::parse(body)?.array("traceEvents").map(drop)
    });
    check("/trace?id=zzz", 400, &|_| Ok(()));
    check("/stats", 200, &|body| {
        json::parse(body)?.array("routes")?;
        member_is(body, "schema", "gsu-stats-v1")
    });
    check("/requests?n=1", 200, &|body| {
        (body.lines().count() <= 1)
            .then_some(())
            .ok_or_else(|| "more than one line with n=1".to_string())
    });
    check("/requests?n=bogus", 400, &|body| {
        member_is(body, "param", "n")
    });
    check("/version", 200, &|body| {
        member_is(body, "name", "gsu-serve")
    });
    check("/nope", 404, &|_| Ok(()));

    // Round-trip one request through the trace surfaces: the trace id the
    // /eval response returns must resolve to a span tree on /trace?id= and
    // to a wide-event line on /requests.
    match http_get(addr, "/eval?phi=5000") {
        Ok((200, body)) => {
            let trace_id = json::parse(&body)
                .ok()
                .and_then(|doc| doc.string("trace_id").ok().map(str::to_string))
                .unwrap_or_default();
            if trace_id.is_empty() {
                eprintln!("smoke: /eval?phi=5000 response has no trace id: {body}");
                failures.set(failures.get() + 1);
            } else {
                check(&format!("/trace?id={trace_id}"), 200, &|body| {
                    let doc = json::parse(body)?;
                    doc.array("traceEvents")?
                        .iter()
                        .any(|e| {
                            let args = e.get("args");
                            e.string("name") == Ok("serve.eval")
                                && args.is_some_and(|a| a.string("trace_id") == Ok(&trace_id))
                        })
                        .then_some(())
                        .ok_or_else(|| format!("trace {trace_id} not resolved: {body}"))
                });
                check("/requests", 200, &|body| {
                    body.lines()
                        .filter_map(|line| json::parse(line).ok())
                        .any(|e| e.string("trace_id") == Ok(&trace_id) && e.array("solves").is_ok())
                        .then_some(())
                        .ok_or_else(|| format!("no wide event for {trace_id}"))
                });
            }
        }
        Ok((status, body)) => {
            eprintln!("smoke: /eval?phi=5000 -> {status}: {body}");
            failures.set(failures.get() + 1);
        }
        Err(e) => {
            eprintln!("smoke: /eval?phi=5000 failed: {e}");
            failures.set(failures.get() + 1);
        }
    }

    handle.shutdown();
    let _ = serving.join();
    if failures.get() == 0 {
        println!("smoke: all endpoints ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: {} endpoint(s) failed", failures.get());
        ExitCode::FAILURE
    }
}

/// `Ok` when `body` is a JSON object whose string member `key` is `want`.
fn member_is(body: &str, key: &str, want: &str) -> Result<(), String> {
    match json::parse(body)?.string(key)? {
        got if got == want => Ok(()),
        got => Err(format!("{key} is {got:?}, want {want:?}: {body}")),
    }
}
