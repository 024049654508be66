//! The bench regression gate: `gsu-bench regress`.
//!
//! Compares a current [`BenchRecord`] log (the `scenario:*` records of
//! `gsu-bench scenarios`, or the `serve:*` records of `gsu-bench loadgen`)
//! against a committed baseline, keyed on `(name, threads)`. A run
//! **regresses** when its wall time exceeds the baseline by more than the
//! threshold fraction (default 10%) and by more than a fixed 2.5 ms slack, or
//! when a deterministic work counter
//! (solver iterations, SpMV operations) exceeds its baseline at all — a
//! zero baseline included. On a clean pass the current numbers are merged
//! into the baseline — speedups ratchet the bar down, new records get
//! seeded — unless the caller asks for a read-only check (`--no-update`,
//! used by CI so the tree stays pristine).
//!
//! With `--benchmark PATH` the gate instead reads a `gsu-benchmark` run set
//! (`benchmark.json`) and ratchets the per-layer work counters of its
//! traced runs ([`BENCHMARK_COUNTERS`]) per workload, at zero tolerance,
//! against the baseline's `benchmark:<workload>` [`CounterRecord`]s.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use telemetry::json::{self, Value};

use crate::{
    bench_record_lines, invalid_log, read_bench_records, read_log, write_json_lines, BenchRecord,
};

/// Default wall-time regression threshold: 10% slower than baseline fails.
/// Work counters get no tolerance.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// Absolute wall-time slack: a record regresses only when it is slower
/// than its baseline by more than the threshold fraction *and* by more
/// than this many milliseconds. The `scenario:*` records are 0.15–4.3 ms,
/// where host noise alone moves a record by 50–80% between runs (at most
/// 1.99 ms, on `three-escorts`, over ten runs on a 2-vCPU shared VM), so a
/// fraction alone either fails on noise or, with the bars raised to dodge
/// it, cannot fail at all. A 10× slowdown of a 0.4 ms record still fails.
/// The slack is no larger than any `serve:*` bar's own allowance (the
/// smallest, 2.5 ms at `--threshold 1.0`), so it loosens none of them.
const WALL_SLACK_MS: f64 = 2.5;

/// Configuration for one gate run.
#[derive(Debug, Clone)]
pub struct RegressConfig {
    /// Baseline log path (committed; `results/BENCH_baseline.json`).
    pub baseline: PathBuf,
    /// Current log path (`results/BENCH_sweep.json`).
    pub current: PathBuf,
    /// Allowed fractional wall-time slowdown before a run counts as a
    /// regression.
    pub threshold: f64,
    /// Whether a passing run merges current numbers into the baseline.
    pub update: bool,
    /// Whether baseline entries missing from the current log are tolerated.
    /// Off by default: a silently vanished experiment is exactly the kind
    /// of coverage loss the gate exists to catch.
    pub allow_missing: bool,
    /// A `gsu-benchmark` run set whose traced work counters are gated
    /// instead of the sweep log (see [`run_counters`]).
    pub benchmark: Option<PathBuf>,
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig {
            baseline: PathBuf::from("results/BENCH_baseline.json"),
            current: PathBuf::from("results/BENCH_sweep.json"),
            threshold: DEFAULT_THRESHOLD,
            update: true,
            allow_missing: false,
            benchmark: None,
        }
    }
}

/// One `(name, threads)` pair present in both logs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Experiment name.
    pub name: String,
    /// Pool width of the run.
    pub threads: usize,
    /// Baseline wall time (ms).
    pub baseline_ms: f64,
    /// Current wall time (ms).
    pub current_ms: f64,
    /// `current / baseline` — `> 1 + threshold` (with more than the
    /// 2.5 ms slack added) means regression.
    pub ratio: f64,
    /// Whether wall time breaches both the threshold and the slack.
    pub regressed: bool,
    /// Baseline solver iterations.
    pub baseline_iterations: u64,
    /// Current solver iterations.
    pub current_iterations: u64,
    /// Baseline SpMV count.
    pub baseline_spmv_ops: u64,
    /// Current SpMV count.
    pub current_spmv_ops: u64,
    /// Baseline stored entries touched by SpMV.
    pub baseline_spmv_nnz: u64,
    /// Current stored entries touched by SpMV.
    pub current_spmv_nnz: u64,
    /// Baseline transient-engine multiply-adds.
    pub baseline_flops: u64,
    /// Current transient-engine multiply-adds.
    pub current_flops: u64,
    /// Whether a work metric exceeds its baseline. Work counters are
    /// deterministic, so unlike wall time this cannot be scheduler noise:
    /// the algorithm itself started doing more work, and any increase
    /// fails.
    pub work_regressed: bool,
}

impl Comparison {
    /// `true` when either the wall time or a work metric regressed.
    pub fn failed(&self) -> bool {
        self.regressed || self.work_regressed
    }
}

/// Work-metric breach test at zero tolerance. A zero baseline is gated
/// like any other: a scenario that solved by expm alone (0 SpMV) and now
/// steps uniformization fails.
fn work_breach(baseline: u64, current: u64) -> bool {
    current > baseline
}

/// The outcome of a gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressReport {
    /// Threshold the comparisons were judged against.
    pub threshold: f64,
    /// Pairs present in both logs, in `(name, threads)` order.
    pub compared: Vec<Comparison>,
    /// Current records with no baseline entry (seeded, never failing).
    pub added: Vec<BenchRecord>,
    /// Baseline records the current log no longer has (kept in the
    /// baseline, but failing the gate unless `allow_missing` is set).
    pub stale: Vec<BenchRecord>,
    /// Whether the baseline file was created from scratch this run.
    pub seeded: bool,
    /// Whether stale baseline entries were tolerated this run.
    pub allow_missing: bool,
}

impl RegressReport {
    /// `true` when no compared pair regressed and no baseline entry went
    /// missing (unless missing entries were explicitly allowed).
    pub fn passed(&self) -> bool {
        self.compared.iter().all(|c| !c.failed()) && (self.allow_missing || self.stale.is_empty())
    }

    /// Human-readable gate summary (one line per pair).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.seeded {
            let _ = writeln!(out, "regress: no baseline found; seeding from current run");
        }
        for c in &self.compared {
            let verdict = if c.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "regress: {:<22} threads={} {:>9.3}ms vs {:>9.3}ms baseline ({:+.1}%) {}",
                c.name,
                c.threads,
                c.current_ms,
                c.baseline_ms,
                (c.ratio - 1.0) * 100.0,
                verdict
            );
            if c.baseline_iterations > 0 || c.current_iterations > 0 {
                let verdict = if work_breach(c.baseline_iterations, c.current_iterations) {
                    "WORK REGRESSED"
                } else {
                    "ok"
                };
                let delta = if c.baseline_iterations > 0 {
                    format!(
                        " ({:+.1}%)",
                        (c.current_iterations as f64 / c.baseline_iterations as f64 - 1.0) * 100.0
                    )
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "regress: {:<22} threads={} {:>9} vs {:>9} baseline iterations{} {}",
                    c.name, c.threads, c.current_iterations, c.baseline_iterations, delta, verdict
                );
            }
            for (counter, current, baseline) in [
                ("spmv_ops", c.current_spmv_ops, c.baseline_spmv_ops),
                ("spmv_nnz", c.current_spmv_nnz, c.baseline_spmv_nnz),
                ("flops", c.current_flops, c.baseline_flops),
            ] {
                if baseline == 0 && current == 0 {
                    continue;
                }
                let verdict = if work_breach(baseline, current) {
                    "WORK REGRESSED"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    out,
                    "regress: {:<22} threads={} {:>9} vs {:>9} baseline {counter} {verdict}",
                    c.name, c.threads, current, baseline
                );
            }
        }
        for r in &self.added {
            let _ = writeln!(
                out,
                "regress: {:<22} threads={} {:>9.3}ms (new; no baseline)",
                r.name, r.threads, r.wall_ms
            );
        }
        for r in &self.stale {
            let _ = writeln!(
                out,
                "regress: {:<22} threads={} baseline entry MISSING from current run{}",
                r.name,
                r.threads,
                if self.allow_missing {
                    " (allowed by --allow-missing)"
                } else {
                    ""
                }
            );
        }
        // On a pass, surface how far the ratchet moved: CI logs otherwise
        // only ever show regressions, so steady speedups stay invisible.
        if self.passed() && !self.compared.is_empty() {
            let faster = self.compared.iter().filter(|c| c.ratio < 1.0).count();
            let log_speedup: f64 = self
                .compared
                .iter()
                .filter(|c| c.ratio > 0.0 && c.ratio.is_finite())
                .map(|c| -c.ratio.ln())
                .sum::<f64>()
                / self.compared.len() as f64;
            let (base_iters, cur_iters) = self
                .compared
                .iter()
                .filter(|c| c.baseline_iterations > 0)
                .fold((0u64, 0u64), |(b, c2), c| {
                    (b + c.baseline_iterations, c2 + c.current_iterations)
                });
            let iter_note = if base_iters > 0 {
                format!(
                    "; iterations {} -> {} ({:+.1}%)",
                    base_iters,
                    cur_iters,
                    (cur_iters as f64 / base_iters as f64 - 1.0) * 100.0
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "regress: ratchet summary: {}/{} records faster; geometric-mean speedup x{:.2}{}",
                faster,
                self.compared.len(),
                log_speedup.exp(),
                iter_note
            );
        }
        let _ = writeln!(
            out,
            "regress: {} compared, {} new, {} stale; wall threshold {:.0}% and \
             {WALL_SLACK_MS} ms, work exact -> {}",
            self.compared.len(),
            self.added.len(),
            self.stale.len(),
            self.threshold * 100.0,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Pure comparison of two record sets (no I/O).
pub fn compare(baseline: &[BenchRecord], current: &[BenchRecord], threshold: f64) -> RegressReport {
    let mut compared = Vec::new();
    let mut added = Vec::new();
    for cur in current {
        match baseline
            .iter()
            .find(|b| b.name == cur.name && b.threads == cur.threads)
        {
            Some(base) => {
                let ratio = if base.wall_ms > 0.0 {
                    cur.wall_ms / base.wall_ms
                } else {
                    f64::INFINITY
                };
                compared.push(Comparison {
                    name: cur.name.clone(),
                    threads: cur.threads,
                    baseline_ms: base.wall_ms,
                    current_ms: cur.wall_ms,
                    ratio,
                    regressed: cur.wall_ms > base.wall_ms * (1.0 + threshold)
                        && cur.wall_ms - base.wall_ms > WALL_SLACK_MS,
                    baseline_iterations: base.iterations,
                    current_iterations: cur.iterations,
                    baseline_spmv_ops: base.spmv_ops,
                    current_spmv_ops: cur.spmv_ops,
                    baseline_spmv_nnz: base.spmv_nnz,
                    current_spmv_nnz: cur.spmv_nnz,
                    baseline_flops: base.flops,
                    current_flops: cur.flops,
                    work_regressed: work_breach(base.iterations, cur.iterations)
                        || work_breach(base.spmv_ops, cur.spmv_ops)
                        || work_breach(base.spmv_nnz, cur.spmv_nnz)
                        || work_breach(base.flops, cur.flops),
                });
            }
            None => added.push(cur.clone()),
        }
    }
    let stale = baseline
        .iter()
        .filter(|b| {
            !current
                .iter()
                .any(|c| c.name == b.name && c.threads == b.threads)
        })
        .cloned()
        .collect();
    RegressReport {
        threshold,
        compared,
        added,
        stale,
        seeded: false,
        allow_missing: false,
    }
}

/// Runs the gate: read both logs, compare, and (on a pass, when
/// `config.update`) merge the current numbers into the baseline. A missing
/// baseline is seeded from the current log and passes trivially; a missing
/// *current* log is an error — the gate is meaningless without measurements.
///
/// # Errors
///
/// I/O failures reading the current log or reading/writing the baseline.
pub fn run(config: &RegressConfig) -> std::io::Result<RegressReport> {
    let current = read_bench_records(&config.current)?;
    if current.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("no bench records in {}", config.current.display()),
        ));
    }
    let (baseline, seeded) = match read_bench_records(&config.baseline) {
        Ok(records) => (records, false),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), true),
        Err(e) => return Err(e),
    };
    let mut report = compare(&baseline, &current, config.threshold);
    report.seeded = seeded;
    report.allow_missing = config.allow_missing;
    if report.passed() && config.update {
        // Merge rather than overwrite: stale baseline entries survive until
        // their experiment runs again.
        let mut merged = baseline;
        for cur in &current {
            match merged
                .iter_mut()
                .find(|b| b.name == cur.name && b.threads == cur.threads)
            {
                Some(slot) => *slot = cur.clone(),
                None => merged.push(cur.clone()),
            }
        }
        let counters = read_counter_records(&config.baseline)?;
        write_baseline(&config.baseline, &merged, &counters)?;
    }
    Ok(report)
}

/// The per-layer work counters of the repository benchmark that
/// [`run_counters`] ratchets: deterministic per pass, so any increase is
/// the algorithm doing more work.
pub const BENCHMARK_COUNTERS: [&str; 5] = [
    "markov.spmv_ops",
    "markov.iterations",
    "markov.expm_solves",
    "san.states",
    "san.nnz",
];

/// Prefix of the baseline records that hold a benchmark workload's
/// counters.
const COUNTER_PREFIX: &str = "benchmark:";

/// The work counters of one benchmark workload, per pass: the baseline
/// record `{"name": "benchmark:<workload>", "<counter>": value, ...}`.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRecord {
    /// `benchmark:<workload>`.
    pub name: String,
    /// `(counter, value)` in [`BENCHMARK_COUNTERS`] order.
    pub counters: Vec<(String, f64)>,
}

/// Whether a log record is a benchmark workload's [`CounterRecord`]: its
/// name carries the `benchmark:` prefix.
pub(crate) fn is_counter_record(record: &Value) -> bool {
    record
        .string("name")
        .is_ok_and(|name| name.starts_with(COUNTER_PREFIX))
}

/// Reads the counter records of a baseline log; a missing file has none.
/// A counter absent from a record is not read (and so not gated).
///
/// # Errors
///
/// Read failures other than `NotFound`, and `InvalidData` for a log that
/// does not read (see [`read_bench_records`]) or a counter that is not a
/// number.
pub fn read_counter_records(path: &Path) -> std::io::Result<Vec<CounterRecord>> {
    let records = match read_log(path) {
        Ok(records) => records,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    records
        .iter()
        .filter(|record| is_counter_record(record))
        .map(|record| {
            let counters = BENCHMARK_COUNTERS
                .iter()
                .filter(|&&counter| record.get(counter).is_some())
                .map(|&counter| Ok((counter.to_string(), record.num(counter)?)))
                .collect::<Result<_, String>>()?;
            Ok(CounterRecord {
                name: record.string("name")?.to_string(),
                counters,
            })
        })
        .collect::<Result<_, String>>()
        .map_err(|e| invalid_log(path, e))
}

/// Writes a baseline log: the sweep records (as
/// [`write_bench_records`](crate::write_bench_records)),
/// then the counter records sorted by name.
fn write_baseline(
    path: &Path,
    records: &[BenchRecord],
    counters: &[CounterRecord],
) -> std::io::Result<()> {
    let mut counters: Vec<&CounterRecord> = counters.iter().collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut objects = bench_record_lines(records);
    objects.extend(counters.iter().map(|c| {
        let mut object = format!("{{\"name\": \"{}\"", json::escape(&c.name));
        for (counter, value) in &c.counters {
            let _ = write!(object, ", \"{counter}\": {value}");
        }
        object.push('}');
        object
    }));
    write_json_lines(path, &objects)
}

/// The traced runs of a `gsu-benchmark` run set as counter records, one
/// per workload. Each counter is the largest value over the workload's
/// traced runs, so a run that did more work than another cannot hide.
///
/// # Errors
///
/// Text that is not a `gsu-benchmark-v1` run set, or a counter without a
/// numeric value.
pub fn parse_run_set(text: &str) -> Result<Vec<CounterRecord>, String> {
    let doc = json::parse(text)?;
    if doc.string("schema") != Ok("gsu-benchmark-v1") {
        return Err("not a gsu-benchmark-v1 run set".to_string());
    }
    let mut out: Vec<CounterRecord> = Vec::new();
    for run in doc.array("runs")? {
        if !run.boolean("trace")? {
            continue;
        }
        let workload = run.string("workload")?;
        let name = format!("{COUNTER_PREFIX}{workload}");
        let metrics = run.array("metrics")?;
        let mut counters = Vec::new();
        for counter in BENCHMARK_COUNTERS {
            let value = metrics
                .iter()
                .find(|m| m.string("name") == Ok(counter))
                .and_then(|m| m.num("value").ok())
                .ok_or_else(|| format!("{workload}: no numeric {counter}"))?;
            counters.push((counter.to_string(), value));
        }
        match out.iter_mut().find(|r| r.name == name) {
            Some(seen) => {
                for ((_, kept), (_, value)) in seen.counters.iter_mut().zip(counters) {
                    *kept = kept.max(value);
                }
            }
            None => out.push(CounterRecord { name, counters }),
        }
    }
    Ok(out)
}

/// One counter of one workload present in both the baseline and the run
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterComparison {
    /// `benchmark:<workload>`.
    pub name: String,
    /// The counter.
    pub counter: String,
    /// Baseline value per pass.
    pub baseline: f64,
    /// Current value per pass.
    pub current: f64,
}

impl CounterComparison {
    /// Zero tolerance: any increase fails.
    pub fn regressed(&self) -> bool {
        self.current > self.baseline
    }
}

/// The outcome of a counter gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterReport {
    /// Counters present in both, in baseline order.
    pub compared: Vec<CounterComparison>,
    /// Workloads of the run set with no baseline record (seeded).
    pub added: Vec<CounterRecord>,
    /// Baseline workloads the run set has no traced run of.
    pub stale: Vec<CounterRecord>,
    /// Whether stale baseline records were tolerated.
    pub allow_missing: bool,
}

impl CounterReport {
    /// `true` when no counter rose and no baseline workload went missing
    /// (unless that was allowed).
    pub fn passed(&self) -> bool {
        self.compared.iter().all(|c| !c.regressed())
            && (self.allow_missing || self.stale.is_empty())
    }

    /// Human-readable gate summary (one line per counter).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.compared {
            let _ = writeln!(
                out,
                "regress: {:<22} {:<20} {:>10} vs {:>10} baseline {}",
                c.name,
                c.counter,
                c.current,
                c.baseline,
                if c.regressed() {
                    "WORK REGRESSED"
                } else {
                    "ok"
                }
            );
        }
        for r in &self.added {
            let _ = writeln!(out, "regress: {:<22} (new; no baseline)", r.name);
        }
        for r in &self.stale {
            let _ = writeln!(
                out,
                "regress: {:<22} baseline entry MISSING from the run set{}",
                r.name,
                if self.allow_missing {
                    " (allowed by --allow-missing)"
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(
            out,
            "regress: {} counters compared, {} new, {} stale; work exact -> {}",
            self.compared.len(),
            self.added.len(),
            self.stale.len(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Pure comparison of baseline and current counter records (no I/O). A
/// counter missing from the baseline record is not gated.
pub fn compare_counters(baseline: &[CounterRecord], current: &[CounterRecord]) -> CounterReport {
    let mut compared = Vec::new();
    let mut stale = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.name == base.name) else {
            stale.push(base.clone());
            continue;
        };
        for (counter, baseline) in &base.counters {
            if let Some((_, current)) = cur.counters.iter().find(|(c, _)| c == counter) {
                compared.push(CounterComparison {
                    name: base.name.clone(),
                    counter: counter.clone(),
                    baseline: *baseline,
                    current: *current,
                });
            }
        }
    }
    let added = current
        .iter()
        .filter(|c| !baseline.iter().any(|b| b.name == c.name))
        .cloned()
        .collect();
    CounterReport {
        compared,
        added,
        stale,
        allow_missing: false,
    }
}

/// Runs the counter gate on the run set `config.benchmark`: compare its
/// traced counters with the baseline's counter records and (on a pass,
/// when `config.update`) merge them in, keeping the sweep records.
///
/// # Errors
///
/// No run set configured, I/O failures, a malformed run set, or one with
/// no traced run.
pub fn run_counters(config: &RegressConfig) -> std::io::Result<CounterReport> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let path = config
        .benchmark
        .as_deref()
        .ok_or_else(|| invalid("no benchmark run set given".to_string()))?;
    let current = parse_run_set(&std::fs::read_to_string(path)?)
        .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
    if current.is_empty() {
        return Err(invalid(format!("no traced runs in {}", path.display())));
    }
    let baseline = read_counter_records(&config.baseline)?;
    let mut report = compare_counters(&baseline, &current);
    report.allow_missing = config.allow_missing;
    if report.passed() && config.update {
        let mut merged = baseline;
        for cur in current {
            match merged.iter_mut().find(|b| b.name == cur.name) {
                Some(slot) => *slot = cur,
                None => merged.push(cur),
            }
        }
        let records = match read_bench_records(&config.baseline) {
            Ok(records) => records,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        write_baseline(&config.baseline, &records, &merged)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_bench_records;

    fn rec(name: &str, wall_ms: f64, threads: usize) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            wall_ms,
            threads,
            grid: 10,
            iterations: 0,
            spmv_ops: 0,
            spmv_nnz: 0,
            flops: 0,
        }
    }

    fn rec_work(name: &str, wall_ms: f64, iterations: u64, spmv_ops: u64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            wall_ms,
            threads: 1,
            grid: 10,
            iterations,
            spmv_ops,
            spmv_nnz: 0,
            flops: 0,
        }
    }

    #[test]
    fn within_threshold_passes() {
        let report = compare(&[rec("fig9", 100.0, 1)], &[rec("fig9", 109.9, 1)], 0.10);
        assert!(report.passed());
        assert_eq!(report.compared.len(), 1);
        assert!(!report.compared[0].regressed);
    }

    #[test]
    fn twenty_percent_slower_fails_default_threshold() {
        let report = compare(
            &[rec("fig9", 100.0, 1)],
            &[rec("fig9", 120.0, 1)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(report.render().contains("REGRESSED"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn ten_fold_slowdown_of_a_small_record_fails() {
        let report = compare(
            &[rec("scenario:paper-baseline", 0.4, 1)],
            &[rec("scenario:paper-baseline", 4.0, 1)],
            DEFAULT_THRESHOLD,
        );
        assert!(report.compared[0].regressed);
        assert!(!report.passed());
    }

    #[test]
    fn jitter_inside_the_slack_passes() {
        // +80% on a 0.4 ms record and +2 ms on a 2.3 ms one: both over the
        // threshold fraction, both inside the absolute slack.
        for (base, cur) in [(0.4, 0.72), (2.3, 2.3 + WALL_SLACK_MS - 0.01)] {
            let report = compare(
                &[rec("scenario:three-escorts", base, 1)],
                &[rec("scenario:three-escorts", cur, 1)],
                DEFAULT_THRESHOLD,
            );
            assert!(!report.compared[0].regressed, "{base} -> {cur}");
            assert!(report.passed());
        }
    }

    #[test]
    fn slack_loosens_no_serve_bar() {
        // At `--threshold 1.0` a bar of at least 2.5 ms already allows more
        // than the slack, so the breach point stays at twice the bar.
        for bar in [2.5, 6.0, 10.0] {
            let at = |cur: f64| {
                compare(
                    &[rec("serve:open:p50", bar, 2)],
                    &[rec("serve:open:p50", cur, 2)],
                    1.0,
                )
                .compared[0]
                    .regressed
            };
            assert!(!at(2.0 * bar));
            assert!(at(2.0 * bar + 1e-9), "bar {bar}");
        }
    }

    #[test]
    fn speedups_and_new_entries_never_fail() {
        let report = compare(
            &[rec("fig9", 100.0, 1)],
            &[rec("fig9", 40.0, 1), rec("fig10", 70.0, 4)],
            0.10,
        );
        assert!(report.passed());
        assert_eq!(report.added.len(), 1);
        assert_eq!(report.added[0].name, "fig10");
    }

    #[test]
    fn work_inflation_fails_even_with_unchanged_wall() {
        // The ISSUE-9 acceptance scenario: fig9 suddenly does 25% more
        // solver iterations but the wall clock (noisy, or masked by a faster
        // machine) is identical. The deterministic work metric must fail the
        // gate on its own.
        let report = compare(
            &[rec_work("fig9", 100.0, 1000, 5000)],
            &[rec_work("fig9", 100.0, 1250, 5000)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(report.compared[0].work_regressed);
        assert!(!report.compared[0].regressed, "wall did not regress");
        let rendered = report.render();
        assert!(rendered.contains("WORK REGRESSED"), "{rendered}");
        assert!(rendered.contains("FAIL"), "{rendered}");

        // Work counters get no tolerance: one extra SpMV or iteration fails,
        // well inside the wall-time threshold.
        for (iterations, spmv_ops) in [(1000, 5001), (1001, 5000)] {
            let report = compare(
                &[rec_work("fig9", 100.0, 1000, 5000)],
                &[rec_work("fig9", 100.0, iterations, spmv_ops)],
                DEFAULT_THRESHOLD,
            );
            assert!(!report.passed(), "{iterations} / {spmv_ops}");
            assert!(report.compared[0].work_regressed);
        }

        // Equal work, or work ratcheting down, passes.
        for (iterations, spmv_ops) in [(1000, 5000), (1000, 4000), (900, 5000)] {
            let report = compare(
                &[rec_work("fig9", 100.0, 1000, 5000)],
                &[rec_work("fig9", 100.0, iterations, spmv_ops)],
                DEFAULT_THRESHOLD,
            );
            assert!(report.passed(), "{iterations} / {spmv_ops}");
        }
    }

    #[test]
    fn passing_run_renders_ratchet_summary() {
        // A 2x speedup with fewer iterations must be visible in the render:
        // per-record iteration delta plus the aggregate ratchet line.
        let report = compare(
            &[rec_work("fig9", 100.0, 1000, 5000)],
            &[rec_work("fig9", 50.0, 800, 4000)],
            DEFAULT_THRESHOLD,
        );
        assert!(report.passed());
        let rendered = report.render();
        assert!(rendered.contains("(-50.0%)"), "{rendered}");
        assert!(rendered.contains("iterations (-20.0%)"), "{rendered}");
        assert!(
            rendered.contains("ratchet summary: 1/1 records faster; geometric-mean speedup x2.00"),
            "{rendered}"
        );
        assert!(
            rendered.contains("iterations 1000 -> 800 (-20.0%)"),
            "{rendered}"
        );

        // A failing run skips the summary — the regression lines are the story.
        let report = compare(
            &[rec_work("fig9", 100.0, 1000, 5000)],
            &[rec_work("fig9", 150.0, 1000, 5000)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(!report.render().contains("ratchet summary"));
    }

    #[test]
    fn zero_work_baseline_is_gated() {
        // A scenario solved by expm alone has a 0 SpMV baseline; moving it to
        // uniformization must fail the gate, not seed a new baseline.
        let report = compare(
            &[rec_work("scenario:paper-baseline", 5.0, 467, 0)],
            &[rec_work("scenario:paper-baseline", 5.0, 467, 120)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(report.compared[0].work_regressed);
        assert!(report.render().contains("WORK REGRESSED"));

        // Records with no work at all (the serve:* latency records) pass.
        let report = compare(
            &[rec("serve:open:p99", 6.0, 2)],
            &[rec("serve:open:p99", 5.0, 2)],
            DEFAULT_THRESHOLD,
        );
        assert!(report.passed());
    }

    #[test]
    fn larger_chain_at_equal_spmv_count_is_gated() {
        // The same products over a chain with more stored entries: invisible
        // to spmv_ops, caught by spmv_nnz at zero tolerance.
        let with_nnz = |spmv_nnz| BenchRecord {
            spmv_nnz,
            ..rec_work("scenario:three-escorts", 50.0, 8_000, 4_000)
        };
        let report = compare(
            &[with_nnz(1_000_000)],
            &[with_nnz(1_000_001)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(report.compared[0].work_regressed);
        let rendered = report.render();
        assert!(rendered.contains("spmv_nnz WORK REGRESSED"), "{rendered}");
        let report = compare(
            &[with_nnz(1_000_000)],
            &[with_nnz(200_000)],
            DEFAULT_THRESHOLD,
        );
        assert!(report.passed());
    }

    #[test]
    fn engine_trade_that_costs_more_flops_is_gated() {
        // Fewer sparse products but a dearer exponential: spmv_ops and
        // spmv_nnz fall, flops rise, and flops alone fails the gate.
        let record = |spmv_ops, flops| BenchRecord {
            spmv_nnz: spmv_ops * 50,
            flops,
            ..rec_work("scenario:two-escorts", 50.0, 100, spmv_ops)
        };
        let report = compare(
            &[record(4_000, 1_000_000)],
            &[record(0, 1_000_001)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(report.compared[0].work_regressed);
        let rendered = report.render();
        assert!(rendered.contains("flops WORK REGRESSED"), "{rendered}");
        let report = compare(
            &[record(4_000, 1_000_000)],
            &[record(0, 300_000)],
            DEFAULT_THRESHOLD,
        );
        assert!(report.passed());
    }

    #[test]
    fn stale_baseline_entries_fail_unless_allowed() {
        // A baseline pair absent from the sweep means an experiment silently
        // stopped running — that must fail loudly, not slide through.
        let mut report = compare(
            &[rec("fig9", 100.0, 1), rec("gone", 50.0, 1)],
            &[rec("fig9", 90.0, 1)],
            0.10,
        );
        assert!(!report.passed());
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.stale[0].name, "gone");
        let rendered = report.render();
        assert!(rendered.contains("MISSING"), "{rendered}");
        assert!(rendered.contains("FAIL"), "{rendered}");

        // The explicit escape hatch downgrades it to a reported note.
        report.allow_missing = true;
        assert!(report.passed());
        let rendered = report.render();
        assert!(
            rendered.contains("allowed by --allow-missing"),
            "{rendered}"
        );
        assert!(rendered.contains("PASS"), "{rendered}");
    }

    #[test]
    fn threads_distinguish_records() {
        // Same experiment at a different pool width is a new pair, not a
        // comparison against the wrong baseline — and the 1-thread baseline
        // entry now counts as missing from the current run.
        let report = compare(&[rec("fig9", 100.0, 1)], &[rec("fig9", 500.0, 4)], 0.10);
        assert_eq!(report.compared.len(), 0);
        assert_eq!(report.added.len(), 1);
        assert_eq!(report.stale.len(), 1);
        assert!(!report.passed());
    }

    #[test]
    fn gate_seeds_updates_and_fails_via_files() {
        let dir = std::env::temp_dir().join("gsu-regress-gate-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let config = RegressConfig {
            baseline: dir.join("BENCH_baseline.json"),
            current: dir.join("BENCH_sweep.json"),
            threshold: 0.10,
            ..RegressConfig::default()
        };

        // Missing current log is an error.
        assert!(run(&config).is_err());

        // First run seeds the baseline and passes.
        write_bench_records(&config.current, &[rec("fig9", 100.0, 1)]).unwrap();
        let report = run(&config).unwrap();
        assert!(report.seeded && report.passed());
        assert_eq!(read_bench_records(&config.baseline).unwrap().len(), 1);

        // A 5% slowdown passes and ratchets the baseline to the new number.
        write_bench_records(&config.current, &[rec("fig9", 105.0, 1)]).unwrap();
        assert!(run(&config).unwrap().passed());
        assert_eq!(
            read_bench_records(&config.baseline).unwrap()[0].wall_ms,
            105.0
        );

        // A 20% regression fails and must NOT touch the baseline.
        write_bench_records(&config.current, &[rec("fig9", 126.0, 1)]).unwrap();
        let report = run(&config).unwrap();
        assert!(!report.passed());
        assert_eq!(
            read_bench_records(&config.baseline).unwrap()[0].wall_ms,
            105.0
        );

        // --no-update: a pass leaves the baseline untouched too.
        let frozen = RegressConfig {
            update: false,
            ..config.clone()
        };
        write_bench_records(&frozen.current, &[rec("fig9", 90.0, 1)]).unwrap();
        assert!(run(&frozen).unwrap().passed());
        assert_eq!(
            read_bench_records(&frozen.baseline).unwrap()[0].wall_ms,
            105.0
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mangled_baseline_fails_the_gate() {
        // One baseline entry that does not read must fail the run, not drop
        // the entry: dropped, its regressed current record would be filed
        // as new and the comparison would pass.
        let dir = std::env::temp_dir().join("gsu-regress-mangled-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let config = RegressConfig {
            baseline: dir.join("BENCH_baseline.json"),
            current: dir.join("BENCH_sweep.json"),
            update: false,
            ..RegressConfig::default()
        };
        let baseline = [rec("fig9", 100.0, 1), rec("fig10", 100.0, 1)];
        write_bench_records(
            &config.current,
            &[rec("fig9", 100.0, 1), rec("fig10", 500.0, 1)],
        )
        .unwrap();
        write_bench_records(&config.baseline, &baseline).unwrap();
        assert!(
            !run(&config).unwrap().passed(),
            "the intact baseline gates fig10"
        );

        let intact = std::fs::read_to_string(&config.baseline).unwrap();
        let fig10 = "{\"name\": \"fig10\", \"wall_ms\": 100.000";
        assert!(intact.contains(fig10), "{intact}");
        for mangled in [
            intact.replace(fig10, "{\"name\": \"fig10\", \"wall_ms\" 100.000"),
            intact.replace(fig10, "{\"name\": \"fig10\", \"wall_ms\": \"100.000\""),
            intact.replace(fig10, "{\"name\": \"fig10\", \"wall\": 100.000"),
            intact.replace("\"threads\": 1, \"grid\": 10, \"iterations\": 0, \"spmv_ops\": 0, \"spmv_nnz\": 0, \"flops\": 0}\n]", "\"threads\": 1}\n]"),
            "not json".to_string(),
        ] {
            std::fs::write(&config.baseline, &mangled).unwrap();
            let err = run(&config).expect_err(&mangled);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `gsu-benchmark-v1` run set with one run per `(workload, trace,
    /// spmv_ops)`; the other counters are fixed.
    fn run_set(runs: &[(&str, bool, u64)]) -> String {
        let mut out = String::from("{\"schema\": \"gsu-benchmark-v1\", \"runs\": [");
        for (i, (workload, trace, spmv)) in runs.iter().enumerate() {
            let sep = if i == 0 { "\n  " } else { ",\n  " };
            out.push_str(&format!(
                "{sep}{{\"workload\": \"{workload}\", \"seed\": 1, \"seconds\": 2, \
                 \"trace\": {trace}, \"attempted\": 9, \"failed\": 0, \"metrics\": [\
                 {{\"name\": \"op_ms.p50\", \"value\": 55.1, \"unit\": \"ms\", \"n\": 9}}, \
                 {{\"name\": \"markov.spmv_ops\", \"value\": {spmv}, \"unit\": \"count\", \"n\": 10}}, \
                 {{\"name\": \"markov.iterations\", \"value\": 900, \"unit\": \"count\", \"n\": 10}}, \
                 {{\"name\": \"markov.expm_solves\", \"value\": 20, \"unit\": \"count\", \"n\": 10}}, \
                 {{\"name\": \"san.states\", \"value\": 150, \"unit\": \"count\", \"n\": 10}}, \
                 {{\"name\": \"san.nnz\", \"value\": 700, \"unit\": \"count\", \"n\": 10}}]}}"
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    #[test]
    fn run_set_counters_come_from_traced_runs_at_their_worst() {
        let text = run_set(&[
            ("catalog", true, 800),
            ("catalog", false, 0),
            ("catalog", true, 801),
            ("figures", true, 0),
        ]);
        let records = parse_run_set(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "benchmark:catalog");
        assert_eq!(
            records[0].counters[0],
            ("markov.spmv_ops".to_string(), 801.0)
        );
        assert_eq!(records[0].counters.len(), BENCHMARK_COUNTERS.len());
        assert_eq!(records[1].counters[0].1, 0.0);
        assert!(parse_run_set("[]").is_err());
        let untraced = run_set(&[("catalog", false, 0)]);
        assert!(parse_run_set(&untraced).unwrap().is_empty());
    }

    #[test]
    fn counters_are_ratcheted_at_zero_tolerance() {
        let base =
            parse_run_set(&run_set(&[("catalog", true, 800), ("figures", true, 0)])).unwrap();
        let same = compare_counters(&base, &base);
        assert!(same.passed());
        assert_eq!(same.compared.len(), 2 * BENCHMARK_COUNTERS.len());

        // One extra SpMV fails, and so does any SpMV where the baseline has
        // none: a zero counter is gated, not seeded.
        for (workload, spmv) in [("catalog", 801), ("figures", 1)] {
            let mut runs = vec![("catalog", true, 800), ("figures", true, 0)];
            runs.retain(|r| r.0 != workload);
            runs.push((workload, true, spmv));
            let current = parse_run_set(&run_set(&runs)).unwrap();
            let report = compare_counters(&base, &current);
            assert!(!report.passed(), "{workload}");
            assert!(report.render().contains("WORK REGRESSED"));
        }

        // A workload that stopped running fails unless allowed; a new one
        // is seeded.
        let current =
            parse_run_set(&run_set(&[("catalog", true, 700), ("serve", true, 5)])).unwrap();
        let mut report = compare_counters(&base, &current);
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.added.len(), 1);
        assert!(!report.passed());
        report.allow_missing = true;
        assert!(report.passed());
    }

    #[test]
    fn counter_and_sweep_gates_keep_each_others_records() {
        let dir = std::env::temp_dir().join("gsu-regress-counter-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let benchmark = dir.join("benchmark.json");
        let config = RegressConfig {
            baseline: dir.join("BENCH_baseline.json"),
            current: dir.join("BENCH_sweep.json"),
            benchmark: Some(benchmark.clone()),
            ..RegressConfig::default()
        };
        write_bench_records(&config.baseline, &[rec_work("fig9", 100.0, 1000, 0)]).unwrap();

        // The counter gate seeds its records beside the sweep record.
        std::fs::write(&benchmark, run_set(&[("catalog", true, 800)])).unwrap();
        assert!(run_counters(&config).unwrap().passed());
        assert_eq!(read_bench_records(&config.baseline).unwrap().len(), 1);
        let counters = read_counter_records(&config.baseline).unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].counters[0].1, 800.0);

        // More work fails and leaves the baseline alone.
        std::fs::write(&benchmark, run_set(&[("catalog", true, 900)])).unwrap();
        assert!(!run_counters(&config).unwrap().passed());
        assert_eq!(read_counter_records(&config.baseline).unwrap(), counters);

        // A sweep-gate update keeps the counter records.
        write_bench_records(&config.current, &[rec_work("fig9", 90.0, 900, 0)]).unwrap();
        assert!(run(&config).unwrap().passed());
        assert_eq!(
            read_bench_records(&config.baseline).unwrap()[0].iterations,
            900
        );
        assert_eq!(read_counter_records(&config.baseline).unwrap(), counters);

        std::fs::remove_dir_all(&dir).ok();
    }
}
