//! `gsu-lint` CLI: the deny-by-default static-analysis gate.
//!
//! Exit codes: 0 clean (or everything suppressed / warn-only), 1 at least
//! one unsuppressed deny finding, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use gsu_lint::{
    apply_allowlist, diag::Layer, has_deny, report, sanitize, semantics, source, symbols,
    Allowlist, Finding, RULES,
};
use performability::GsuParams;

const USAGE: &str = "\
gsu-lint: static analysis over source policy, symbols, and GSU model semantics

USAGE:
    gsu-lint [--all | --source | --models] [OPTIONS]
    gsu-lint sanitize [--quick] [OPTIONS]
    gsu-lint self-test
    gsu-lint validate-jsonl <FILE>
    gsu-lint --list-rules

OPTIONS:
    --all               run every static pass (default)
    --source            source-policy + symbol passes only
    --models            model-semantics pass only
    --quick             (sanitize) fewer seeds, smallest scenarios; CI budget
    --root <DIR>        workspace root (default: .)
    --format <FMT>      table (default) or jsonl
    --allow <FILE>      allowlist path (default: <root>/lint.allow)
    --emit-telemetry    write findings to <root>/results/lint-findings.jsonl
                        for the gsu-serve /metrics exposition
    --list-rules        print the rule catalog and exit
    -h, --help          this text

EXIT CODES:
    0  no unsuppressed deny findings
    1  at least one unsuppressed deny finding
    2  usage or I/O error";

struct Options {
    run_source: bool,
    run_models: bool,
    root: PathBuf,
    jsonl: bool,
    allow_path: Option<PathBuf>,
    emit_telemetry: bool,
}

fn main() -> ExitCode {
    telemetry::init_log_from_env("GSU_LOG");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("gsu-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("self-test") => return run_self_test(),
        Some("validate-jsonl") => {
            let path = args
                .get(1)
                .ok_or_else(|| format!("validate-jsonl needs a file\n\n{USAGE}"))?;
            return run_validate_jsonl(path);
        }
        Some("sanitize") => return run_sanitize(&args[1..]),
        _ => {}
    }

    let opts = parse_options(args)?;
    let mut findings = Vec::new();
    if opts.run_source {
        findings
            .extend(source::lint_tree(&opts.root).map_err(|e| format!("source pass failed: {e}"))?);
        findings.extend(
            symbols::lint_tree(&opts.root).map_err(|e| format!("symbol pass failed: {e}"))?,
        );
    }
    if opts.run_models {
        let mut span = telemetry::span("lint.models");
        let mut model_findings = semantics::check_gsu_models(&GsuParams::paper_baseline());
        // The scenario catalog rides the models pass: every committed .gsu
        // file must parse and compile to semantically sound models. A
        // missing directory just means this tree has no catalog.
        let scenarios_dir = opts.root.join("scenarios");
        if scenarios_dir.is_dir() {
            model_findings.extend(semantics::check_scenarios(&scenarios_dir));
        }
        span.record("findings", model_findings.len());
        findings.extend(model_findings);
    }

    report_and_gate(&opts, findings)
}

/// Shared back half of the static passes and the sanitizer: allowlist,
/// telemetry counters, rendering, exit code.
fn report_and_gate(opts: &Options, findings: Vec<Finding>) -> Result<ExitCode, String> {
    let allow_path = opts
        .allow_path
        .clone()
        .unwrap_or_else(|| opts.root.join("lint.allow"));
    let allow = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
        Allowlist::parse(&text)?
    } else if opts.allow_path.is_some() {
        return Err(format!("allowlist {} not found", allow_path.display()));
    } else {
        Allowlist::default()
    };
    let (reported, suppressed) = apply_allowlist(findings, &allow);

    telemetry::counter("lint.findings.reported", reported.len() as u64);
    telemetry::counter("lint.findings.suppressed", suppressed as u64);
    if opts.emit_telemetry {
        let results_dir = opts.root.join("results");
        std::fs::create_dir_all(&results_dir)
            .map_err(|e| format!("creating {}: {e}", results_dir.display()))?;
        let out = results_dir.join("lint-findings.jsonl");
        std::fs::write(&out, report::render_jsonl(&reported))
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        eprintln!(
            "gsu-lint: wrote {} record(s) to {}",
            reported.len(),
            out.display()
        );
    }

    if opts.jsonl {
        print!("{}", report::render_jsonl(&reported));
        eprint!("{}", report::render_summary(&reported, suppressed));
    } else {
        print!("{}", report::render_table(&reported));
        print!("{}", report::render_summary(&reported, suppressed));
    }
    Ok(if has_deny(&reported) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `gsu-lint sanitize [--quick]`: the differential-schedule harness.
fn run_sanitize(args: &[String]) -> Result<ExitCode, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let rest: Vec<String> = args.iter().filter(|a| *a != "--quick").cloned().collect();
    let opts = parse_options(&rest)?;
    let report = sanitize::run(&sanitize::SanitizeOptions {
        quick,
        scenario_dir: opts.root.join("scenarios"),
    })?;
    for line in &report.log {
        eprintln!("sanitize: {line}");
    }
    eprintln!(
        "sanitize: {} differential run(s), {} finding(s)",
        report.runs,
        report.findings.len()
    );
    report_and_gate(&opts, report.findings)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        run_source: true,
        run_models: true,
        root: PathBuf::from("."),
        jsonl: false,
        allow_path: None,
        emit_telemetry: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => {
                opts.run_source = true;
                opts.run_models = true;
            }
            "--source" => {
                opts.run_source = true;
                opts.run_models = false;
            }
            "--models" => {
                opts.run_source = false;
                opts.run_models = true;
            }
            "--root" => {
                opts.root = PathBuf::from(next_value(&mut it, "--root")?);
            }
            "--format" => match next_value(&mut it, "--format")?.as_str() {
                "table" => opts.jsonl = false,
                "jsonl" => opts.jsonl = true,
                other => return Err(format!("unknown format {other:?} (table or jsonl)")),
            },
            "--allow" => {
                opts.allow_path = Some(PathBuf::from(next_value(&mut it, "--allow")?));
            }
            "--emit-telemetry" => opts.emit_telemetry = true,
            "--list-rules" => {
                print_rules();
                std::process::exit(0);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn next_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn print_rules() {
    println!("{:<26}  {:<4}  {:<7}  SUMMARY", "RULE", "SEV", "LAYER");
    for r in RULES {
        let layer = match r.layer {
            Layer::Source => "source",
            Layer::Symbol => "symbol",
            Layer::Model => "model",
            Layer::Runtime => "runtime",
        };
        println!(
            "{:<26}  {:<4}  {:<7}  {}",
            r.id, r.severity, layer, r.summary
        );
    }
}

fn run_self_test() -> Result<ExitCode, String> {
    let log = gsu_lint::self_test()?;
    for line in &log {
        println!("self-test: {line}");
    }
    println!("self-test: OK ({} checks)", log.len());
    Ok(ExitCode::SUCCESS)
}

fn run_validate_jsonl(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let findings: Vec<Finding> = report::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "validate-jsonl: {path}: {} valid record(s) (schema gsu-lint-v2; v1 accepted)",
        findings.len()
    );
    Ok(ExitCode::SUCCESS)
}
