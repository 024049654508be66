//! `gsu-bench`: the experiment runner and harness utilities as a CLI. Five
//! subcommands:
//!
//! ```text
//! gsu-bench run <experiment>|all [--steps N] [--out DIR]
//! gsu-bench regress [--baseline PATH] --current PATH
//!                   [--threshold FRACTION] [--no-update]
//! gsu-bench profile --trace PATH [--folded | --table]
//! gsu-bench scenarios [--dir PATH] [--golden PATH] [--out PATH]
//!                     [--write-golden | --check]
//! gsu-bench loadgen [--addr HOST:PORT] [--mode open|closed] [--rate RPS]
//!                   [--duration SECONDS] [--connections N] [--seed N]
//!                   [--no-keepalive] [--label NAME] [--slo PATH]
//!                   [--scenarios PATH] [--report PATH] [--check]
//! ```
//!
//! `run` regenerates the paper's tables, figures and studies from the
//! [`gsu_bench::experiments`] table, in-process; every file it writes lands
//! under `--out` (default `results`), and `--steps` sets the φ grid of
//! fig9–fig12 (default 10). It records no timings: the benchmark's
//! `figures` workload runs the same work and `regress` gates its counters.
//!
//! `regress` compares the records of `--current` against the committed
//! baseline (`--baseline`, default `results/BENCH_baseline.json`) — wall
//! time *and* deterministic work counters. `--current` has no default: the
//! gate reads only records measured for the run at hand. The input's kind
//! is read from the document: the record log `scenarios` writes, a
//! `gsu-benchmark` run set, or a `loadgen` report. It exits 0 on pass, 1 on
//! a regression or on a baseline record missing from the input, and 2 on
//! usage or I/O errors (a missing `--current` among them) or an input of no
//! known kind. See [`gsu_bench::regress`] for the gate semantics.
//!
//! `profile` rebuilds the span tree of a Chrome trace written by a
//! `GSU_TELEMETRY=1` run (or fetched from `gsu-serve /trace?id=`) and prints
//! folded flamegraph stacks plus a per-span self-time table; see
//! [`gsu_bench::profile`].
//!
//! `scenarios` sweeps the `.gsu` catalog through the analytic pipeline and
//! checks (or regenerates with `--write-golden`) the committed golden Y(φ)
//! curves; with `--out DIR` it merges per-scenario `BenchRecord`s into
//! `DIR/BENCH_sweep.json` for the regress gate, and without it writes no
//! record. See [`gsu_bench::scenarios`].
//!
//! `loadgen` drives a live `gsu-serve` with a seeded workload mix over
//! persistent connections, writes a `gsu-loadgen-v1` latency report (the
//! serve ratchet's `regress` input), and with `--check` gates the run
//! against the committed `results/SLO.json`; see [`gsu_bench::loadgen`].

#![forbid(unsafe_code)]

use std::process::ExitCode;

use gsu_bench::experiments::{self, RunContext, EXPERIMENTS};
use gsu_bench::regress::{RegressConfig, DEFAULT_THRESHOLD};

const USAGE: &str = "usage: gsu-bench run <experiment>|all [--steps N] [--out DIR]\n  \
                     | gsu-bench regress [--baseline PATH] --current PATH \
                     [--threshold FRACTION] [--no-update]\n  \
                     | gsu-bench profile --trace PATH [--folded | --table]\n  \
                     | gsu-bench scenarios [--dir PATH] [--golden PATH] [--out PATH] \
                     [--write-golden | --check]\n  \
                     | gsu-bench loadgen [--addr HOST:PORT] [--mode open|closed] \
                     [--rate RPS] [--duration SECONDS] [--connections N] [--seed N] \
                     [--no-keepalive] [--label NAME] [--slo PATH] [--scenarios PATH] \
                     [--report PATH] [--check]";

fn main() -> ExitCode {
    telemetry::init_log_from_env("GSU_LOG");
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => run(args),
        Some("regress") => regress(args),
        Some("profile") => profile(args),
        Some("scenarios") => scenarios(args),
        Some("loadgen") => loadgen(args),
        Some("--help") | Some("-h") | None => usage("a subcommand is required"),
        Some(other) => usage(&format!("unknown subcommand {other:?}")),
    }
}

fn run(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut ctx = RunContext::default();
    let mut name: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--steps" => match args.next().and_then(|raw| raw.parse::<usize>().ok()) {
                Some(steps) if steps >= 1 => ctx.steps = steps,
                _ => return usage("--steps needs a count of at least 1"),
            },
            "--out" => match args.next() {
                Some(path) => ctx.out_dir = path.into(),
                None => return usage("--out needs a directory"),
            },
            other if other.starts_with('-') || name.is_some() => {
                return usage(&format!("unknown argument {other:?}"))
            }
            other => name = Some(other.to_string()),
        }
    }
    let selected: Vec<&experiments::Experiment> = match name.as_deref() {
        None => return usage("run needs an experiment name or `all`"),
        Some("all") => EXPERIMENTS.iter().collect(),
        Some(name) => match experiments::find(name) {
            Some(experiment) => vec![experiment],
            None => return usage(&format!("unknown experiment {name:?}")),
        },
    };
    match experiments::run(&selected, &ctx) {
        Ok(failed) if failed.is_empty() => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("gsu-bench run: failed experiments: {}", failed.join(", "));
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!(
                "gsu-bench run: cannot create {}: {e}",
                ctx.out_dir.display()
            );
            ExitCode::from(2)
        }
    }
}

fn profile(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut trace: Option<std::path::PathBuf> = None;
    let mut folded = true;
    let mut table = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => match args.next() {
                Some(path) => trace = Some(path.into()),
                None => return usage("--trace needs a path"),
            },
            "--folded" => table = false,
            "--table" => folded = false,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(trace) = trace else {
        return usage("profile needs --trace PATH");
    };
    let events = match std::fs::read_to_string(&trace)
        .map_err(|e| e.to_string())
        .and_then(|doc| gsu_bench::profile::parse_chrome_trace(&doc))
    {
        Ok(events) => events,
        Err(e) => {
            eprintln!("gsu-bench profile: cannot read {}: {e}", trace.display());
            return ExitCode::from(2);
        }
    };
    if events.is_empty() {
        eprintln!(
            "gsu-bench profile: no span events with trace/span ids in {}",
            trace.display()
        );
        return ExitCode::FAILURE;
    }
    let profile = gsu_bench::profile::build_profile(&events);
    if folded {
        print!("{}", profile.folded());
    }
    if table {
        if folded {
            println!();
        }
        print!("{}", profile.self_time_table());
    }
    ExitCode::SUCCESS
}

fn regress(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut baseline = "results/BENCH_baseline.json".into();
    let mut current = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut update = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => match args.next() {
                Some(path) => baseline = path.into(),
                None => return usage("--baseline needs a path"),
            },
            "--current" => match args.next() {
                Some(path) => current = Some(path.into()),
                None => return usage("--current needs a path"),
            },
            "--threshold" => match args.next().and_then(|raw| raw.parse::<f64>().ok()) {
                Some(t) if t.is_finite() && t >= 0.0 => threshold = t,
                _ => return usage("--threshold needs a non-negative fraction (e.g. 0.10)"),
            },
            "--no-update" => update = false,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(current) = current else {
        return usage("regress needs --current PATH");
    };
    let config = RegressConfig {
        baseline,
        current,
        threshold,
        update,
    };
    match gsu_bench::regress::run(&config) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gsu-bench regress: {e}");
            ExitCode::from(2)
        }
    }
}

fn scenarios(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut config = gsu_bench::scenarios::ScenariosConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => match args.next() {
                Some(path) => config.dir = path.into(),
                None => return usage("--dir needs a path"),
            },
            "--golden" => match args.next() {
                Some(path) => config.golden = path.into(),
                None => return usage("--golden needs a path"),
            },
            "--out" => match args.next() {
                Some(path) => config.out = Some(path.into()),
                None => return usage("--out needs a path"),
            },
            "--write-golden" => config.write_golden = true,
            "--check" => config.write_golden = false,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    match gsu_bench::scenarios::run(&config) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gsu-bench scenarios: {e}");
            ExitCode::from(2)
        }
    }
}

fn loadgen(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut config = gsu_bench::loadgen::LoadgenConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => return usage("--addr needs a HOST:PORT value"),
            },
            "--mode" => match args.next().map(|raw| gsu_bench::loadgen::Mode::parse(&raw)) {
                Some(Ok(mode)) => config.mode = mode,
                Some(Err(why)) => return usage(&why),
                None => return usage("--mode needs open|closed"),
            },
            "--rate" => match args.next().and_then(|raw| raw.parse::<f64>().ok()) {
                Some(rate) if rate.is_finite() && rate > 0.0 => config.rate = Some(rate),
                _ => return usage("--rate needs a positive requests/second value"),
            },
            "--duration" => match args.next().and_then(|raw| raw.parse::<f64>().ok()) {
                Some(s) if s.is_finite() && s > 0.0 => config.duration_s = s,
                _ => return usage("--duration needs a positive seconds value"),
            },
            "--connections" => match args.next().and_then(|raw| raw.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.connections = n,
                _ => return usage("--connections needs a count of at least 1"),
            },
            "--seed" => match args.next().and_then(|raw| raw.parse::<u64>().ok()) {
                Some(seed) => config.seed = seed,
                None => return usage("--seed needs a non-negative integer"),
            },
            "--no-keepalive" => config.keep_alive = false,
            "--label" => match args.next() {
                Some(label) => config.label = label,
                None => return usage("--label needs a name"),
            },
            "--slo" => match args.next() {
                Some(path) => config.slo_path = path.into(),
                None => return usage("--slo needs a path"),
            },
            "--scenarios" => match args.next() {
                Some(path) => config.scenarios_dir = path.into(),
                None => return usage("--scenarios needs a path"),
            },
            "--report" => match args.next() {
                Some(path) => config.report_path = Some(path.into()),
                None => return usage("--report needs a path"),
            },
            "--check" => config.check = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    match gsu_bench::loadgen::run(&config) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gsu-bench loadgen: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "gsu-bench: {why}\n{USAGE}\nexperiments: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}
