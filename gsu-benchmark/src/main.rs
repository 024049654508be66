//! `gsu-benchmark`: the repository benchmark.
//!
//! ```text
//! gsu-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! gsu-benchmark compare REFERENCE.json CANDIDATE.json
//! ```
//!
//! `run` executes workloads from the repository root (it reads
//! `scenarios/`, `results/` and the committed goldens there), prints one
//! line per metric — `<workload> <metric> <value> <unit> n=<samples>` —
//! and, last, one JSON object with the verdict and the end-to-end metrics
//! (or, with `--trace 1`, the per-layer ones). Each run is appended to
//! `<out>/benchmark.json`. It exits 1 when any output check fails.
//!
//! `compare` checks that the candidate run set's median of every
//! (workload, end-to-end metric) pair is no worse than the reference's by
//! more than the bound `BENCHMARK.json` gives it, and that the error rate
//! did not rise; it prints each pair and exits 1 on any disagreement.

#![forbid(unsafe_code)]

mod batch;
mod calib;
mod json;
mod report;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Run, END_TO_END, PER_LAYER};
use stats::{Metric, Outcome};

/// The workloads, in the order `--workload all` runs them. `BENCHMARK.json`
/// gates only the batch ones: on a shared host the serve workloads' numbers
/// do not repeat within any bound it may set (see the README).
const WORKLOADS: &[&str] = &["figures", "catalog", "serve-cached", "serve-churn"];

/// Settings of one run, shared by every workload.
pub struct RunConfig {
    /// The repository root the inputs are read from.
    pub root: PathBuf,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether to run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Where `benchmark.json` and trace files go.
    pub out: PathBuf,
}

const USAGE: &str = "usage:\n  gsu-benchmark run [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]\n  gsu-benchmark compare REFERENCE.json \
                     CANDIDATE.json";

/// Where `compare` reads the bounds, relative to the repository root.
const BOUNDS: &str = "BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("gsu-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The value following flag `flag`.
fn flag_value<'a>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

/// `run`: returns whether every check passed.
fn run(args: &[String]) -> Result<bool, String> {
    let mut workload = "all".to_string();
    let mut config = RunConfig {
        root: PathBuf::from("."),
        seed: 1,
        seconds: 40.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = flag_value(&mut it, flag)?;
        let bad = |what: &str| format!("invalid {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = value.to_string(),
            "--seed" => config.seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && s.is_finite())
                    .ok_or_else(|| bad("want a number of seconds, at least 1"))?;
            }
            "--trace" => {
                config.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--out" => config.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let selected: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if let Some(&w) = WORKLOADS.iter().find(|&&w| w == workload) {
        vec![w]
    } else {
        return Err(format!(
            "unknown workload {workload:?}; choose one of {} or all",
            WORKLOADS.join(", ")
        ));
    };
    std::fs::create_dir_all(&config.out)
        .map_err(|e| format!("cannot create {}: {e}", config.out.display()))?;

    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut reported = Vec::new();
    for name in &selected {
        let outcome = run_workload(name, &config)?;
        let (end_to_end, per_layer) = complete(name, &outcome)?;
        for m in end_to_end
            .iter()
            .chain(per_layer.iter().filter(|_| config.trace))
        {
            println!("{name} {} {} {} n={}", m.name, m.value, m.unit, m.n);
        }
        for why in &outcome.failures {
            eprintln!("{name}: check failed: {why}");
        }
        correct &= outcome.correct();
        attempted += outcome.attempted;
        failed += outcome.failed;
        let shown = if config.trace {
            &per_layer
        } else {
            &end_to_end
        };
        let prefix = if selected.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        reported.extend(
            shown
                .iter()
                .map(|m| (format!("{prefix}{}", m.name), m.clone())),
        );
        report::append_run(
            &config.out.join("benchmark.json"),
            Run {
                workload: name.to_string(),
                seed: config.seed,
                seconds: config.seconds as u64,
                trace: config.trace,
                attempted: outcome.attempted,
                failed: outcome.failed,
                metrics: end_to_end.into_iter().chain(per_layer).collect(),
            },
        )?;
    }
    println!("{}", result_line(correct, attempted, failed, &reported));
    Ok(correct)
}

fn run_workload(name: &str, config: &RunConfig) -> Result<Outcome, String> {
    match name {
        // The batch workloads measure the serial path: pin the global pool
        // to one thread (two measured no faster on two CPUs).
        "figures" | "catalog" => {
            std::env::set_var(pool::THREADS_ENV, "1");
            if name == "figures" {
                batch::figures(config)
            } else {
                batch::catalog(config)
            }
        }
        "serve-cached" => serve::run(serve::Mix::Cached, config),
        "serve-churn" => serve::run(serve::Mix::Churn, config),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// Orders a workload's metrics by the catalog: every end-to-end metric must
/// be present; per-layer metrics the workload does not exercise are 0, and
/// those outside the catalog (the serve-only ones) follow it.
fn complete(workload: &str, outcome: &Outcome) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let find = |list: &[Metric], name: &str| list.iter().find(|m| m.name == name).cloned();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, _)| {
            find(&outcome.end_to_end, name)
                .ok_or_else(|| format!("{workload} did not measure {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut per_layer: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            find(&outcome.per_layer, name).unwrap_or(Metric::new(name, 0.0, unit, 0))
        })
        .collect();
    per_layer.extend(
        outcome
            .per_layer
            .iter()
            .filter(|m| !PER_LAYER.iter().any(|&(name, _)| name == m.name))
            .cloned(),
    );
    Ok((end_to_end, per_layer))
}

/// The final output line: the verdict and the reported metrics as one JSON
/// object.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, Metric)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (key, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(key),
            json::number(m.value),
            json::quote(&m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// `compare`: returns whether the candidate agrees with the reference.
fn compare(args: &[String]) -> Result<bool, String> {
    let [reference, candidate] = args else {
        return Err(format!("compare needs two run sets\n{USAGE}"));
    };
    let bounds_text = std::fs::read_to_string(BOUNDS)
        .map_err(|e| format!("cannot read {BOUNDS} (run from the repository root): {e}"))?;
    let bounds = report::parse_bounds(&bounds_text)?;
    let verdicts = report::compare(
        &report::read_runs(Path::new(reference))?,
        &report::read_runs(Path::new(candidate))?,
        &bounds,
    );
    if verdicts.is_empty() {
        return Err("the run sets share no (workload, metric) pair".to_string());
    }
    for v in &verdicts {
        println!(
            "{:<4} {} {} reference={} candidate={} allowed_worsening={}",
            if v.ok { "ok" } else { "WORSE" },
            v.workload,
            v.metric,
            v.reference,
            v.candidate,
            v.allowed
        );
    }
    let worse = verdicts.iter().filter(|v| !v.ok).count();
    println!("{} pairs compared, {worse} disagree", verdicts.len());
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let metrics = vec![
            (
                "op_ms.p50".to_string(),
                Metric::new("op_ms.p50", 1.25, "ms", 9),
            ),
            ("setup_s".to_string(), Metric::new("setup_s", 0.5, "s", 3)),
        ];
        let line = result_line(true, 12, 0, &metrics);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        assert_eq!(v.num("attempted").unwrap(), 12.0);
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("op_ms.p50").unwrap().num("value").unwrap(), 1.25);
        assert_eq!(m.get("setup_s").unwrap().string("unit").unwrap(), "s");
    }

    #[test]
    fn complete_fills_unexercised_layers_and_requires_end_to_end() {
        let mut outcome = Outcome::default();
        assert!(complete("w", &outcome).is_err());
        outcome.end_to_end = END_TO_END
            .iter()
            .map(|&(n, u)| Metric::new(n, 1.0, u, 1))
            .collect();
        outcome.per_layer = vec![
            Metric::new("serve.connects", 2.0, "count", 1),
            Metric::new("san.states", 22.0, "count", 1),
        ];
        let (e2e, layers) = complete("w", &outcome).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(layers.len(), PER_LAYER.len() + 1);
        let states = layers.iter().find(|m| m.name == "san.states").unwrap();
        assert_eq!(states.value, 22.0);
        let (catalog, extra) = layers.split_at(PER_LAYER.len());
        assert!(catalog
            .iter()
            .filter(|m| m.name != "san.states")
            .all(|m| m.value == 0.0));
        assert_eq!(extra[0].name, "serve.connects", "outside the catalog, last");
    }
}
