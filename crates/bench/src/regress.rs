//! The bench regression gate: `gsu-bench regress`.
//!
//! One gate serves every ratchet. It reads the [`BenchRecord`]s of a
//! current input and of a committed baseline, keyed on `(name, threads)`
//! (see [`read_bench_records`] for the three input kinds), and judges each
//! baseline record against the current record of its key:
//!
//! * its `wall_ms`, the one noisy metric, fails when the current time is
//!   over the bar by more than the threshold fraction (default 10%,
//!   `--threshold`) *and* by more than a fixed 2.5 ms slack;
//! * each work counter is deterministic and fails on any increase, a zero
//!   baseline included. A counter or wall time the current record lacks
//!   fails; a counter the baseline record lacks is gated against 0.
//!
//! A baseline record the current input lacks fails when the input holds
//! records of its family (the name up to its last `:`: `scenario`,
//! `benchmark`, `serve:open`); records of other families are carried
//! through untouched, so one baseline file holds several gates' records.
//! On a pass the current records are merged into the baseline (speedups
//! ratchet the bars down, new records get seeded) unless the caller asks
//! for a read-only check (`--no-update`, used by CI so the tree stays
//! pristine).

use std::fmt::Write as _;
use std::path::PathBuf;

use telemetry::json;

use crate::{merge_bench_records, read_bench_records, BenchRecord};

/// Default wall-time regression threshold: 10% slower than baseline fails.
/// Work counters get no tolerance.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// Absolute wall-time slack: a record regresses only when it is slower
/// than its baseline by more than the threshold fraction *and* by more
/// than this many milliseconds. The `scenario:*` records are 0.15–4.3 ms,
/// where host noise alone moves a record by 50–80% between runs (at most
/// 1.99 ms, on `three-escorts`, over ten runs on a 2-vCPU shared VM), so a
/// fraction alone either fails on noise or, with the bars raised to dodge
/// it, cannot fail at all. A 10× slowdown of a 0.28 ms record still fails.
/// At `--threshold 1.0` the `serve:*` p99 and p999 bars (6 and 10 ms)
/// allow more than the slack, so it does not loosen them; on the 0.9 ms
/// p50 bar it sets the breach point, 3.4 ms.
const WALL_SLACK_MS: f64 = 2.5;

/// The metric name of a record's wall time.
const WALL: &str = "wall_ms";

/// Configuration for one gate run.
#[derive(Debug, Clone)]
pub struct RegressConfig {
    /// Baseline log path (committed; `results/BENCH_baseline.json`).
    pub baseline: PathBuf,
    /// Current input: a record log, a run set or a loadgen report.
    pub current: PathBuf,
    /// Allowed fractional wall-time slowdown before a run counts as a
    /// regression.
    pub threshold: f64,
    /// Whether a passing run merges current numbers into the baseline.
    pub update: bool,
}

/// One metric of a record present in both the baseline and the current
/// input.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Record name.
    pub name: String,
    /// The record's `threads`, where it has one.
    pub threads: Option<usize>,
    /// `wall_ms` or the work counter's name.
    pub metric: String,
    /// Baseline value (0 for a counter the baseline record lacks).
    pub baseline: f64,
    /// Current value; `None` when the current record lacks the metric.
    pub current: Option<f64>,
    /// Whether the metric fails the gate.
    pub regressed: bool,
}

/// The outcome of a gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressReport {
    /// Threshold the wall times were judged against.
    pub threshold: f64,
    /// Metrics of the records present in both, in baseline order.
    pub compared: Vec<Comparison>,
    /// Current records with no baseline entry (seeded, never failing).
    pub added: Vec<BenchRecord>,
    /// Baseline records of the input's families that the input lacks
    /// (kept in the baseline, failing the gate).
    pub stale: Vec<BenchRecord>,
    /// Whether the baseline file was created from scratch this run.
    pub seeded: bool,
}

/// `name`, then ` threads=N` where the record has a pool width.
fn key(name: &str, threads: Option<usize>) -> String {
    match threads {
        Some(threads) => format!("{name} threads={threads}"),
        None => name.to_string(),
    }
}

/// A record's family: its name up to the last `:`.
fn family(name: &str) -> &str {
    name.rsplit_once(':').map_or("", |(family, _)| family)
}

impl RegressReport {
    /// `true` when no compared metric regressed and no baseline record
    /// went missing.
    pub fn passed(&self) -> bool {
        self.compared.iter().all(|c| !c.regressed) && self.stale.is_empty()
    }

    /// Human-readable gate summary (one line per metric).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.seeded {
            let _ = writeln!(out, "regress: no baseline found; seeding from current run");
        }
        for c in &self.compared {
            let wall = c.metric == WALL;
            let show = |v: f64| {
                if wall {
                    format!("{v:.3}ms")
                } else {
                    v.to_string()
                }
            };
            let current = c.current.map_or("MISSING".to_string(), show);
            let delta = match c.current {
                Some(v) if c.baseline > 0.0 => {
                    format!(" ({:+.1}%)", (v / c.baseline - 1.0) * 100.0)
                }
                _ => String::new(),
            };
            let verdict = match (c.regressed, wall) {
                (false, _) => "ok",
                (true, true) => "REGRESSED",
                (true, false) => "WORK REGRESSED",
            };
            let _ = writeln!(
                out,
                "regress: {:<40} {current:>12} vs {:>12} baseline{delta} {} {verdict}",
                key(&c.name, c.threads),
                show(c.baseline),
                c.metric
            );
        }
        for (records, note) in [
            (&self.added, "(new; no baseline)"),
            (&self.stale, "baseline record MISSING from current input"),
        ] {
            for r in records {
                let _ = writeln!(out, "regress: {:<40} {note}", key(&r.name, r.threads));
            }
        }
        // On a pass, surface how far the ratchet moved: CI logs otherwise
        // only ever show regressions, so steady speedups stay invisible.
        let walls: Vec<f64> = self
            .compared
            .iter()
            .filter(|c| c.metric == WALL && c.baseline > 0.0)
            .filter_map(|c| Some(c.current? / c.baseline))
            .filter(|ratio| *ratio > 0.0)
            .collect();
        if self.passed() && !walls.is_empty() {
            let faster = walls.iter().filter(|&&ratio| ratio < 1.0).count();
            let log_speedup =
                -walls.iter().map(|ratio| ratio.ln()).sum::<f64>() / walls.len() as f64;
            let _ = writeln!(
                out,
                "regress: ratchet summary: {faster}/{} wall bars faster; \
                 geometric-mean speedup x{:.2}",
                walls.len(),
                log_speedup.exp()
            );
        }
        let _ = writeln!(
            out,
            "regress: {} metrics compared, {} new, {} stale; wall threshold {:.0}% and \
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

/// The value of `counter` on `record`, if it has one.
fn counter(record: &BenchRecord, counter: &str) -> Option<f64> {
    record
        .counters
        .iter()
        .find(|(name, _)| name == counter)
        .map(|&(_, value)| value)
}

/// Pure comparison of two record sets (no I/O).
pub fn compare(baseline: &[BenchRecord], current: &[BenchRecord], threshold: f64) -> RegressReport {
    let same = |a: &BenchRecord, b: &BenchRecord| a.name == b.name && a.threads == b.threads;
    let mut compared = Vec::new();
    let mut stale = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| same(c, base)) else {
            if current
                .iter()
                .any(|c| family(&c.name) == family(&base.name))
            {
                stale.push(base.clone());
            }
            continue;
        };
        let row = |metric: &str, baseline: f64, current: Option<f64>, regressed: bool| Comparison {
            name: base.name.clone(),
            threads: base.threads,
            metric: metric.to_string(),
            baseline,
            current,
            regressed,
        };
        if let Some(bar) = base.wall_ms {
            let regressed = cur
                .wall_ms
                .is_none_or(|ms| ms > bar * (1.0 + threshold) && ms - bar > WALL_SLACK_MS);
            compared.push(row(WALL, bar, cur.wall_ms, regressed));
        }
        for (name, value) in &base.counters {
            let now = counter(cur, name);
            compared.push(row(name, *value, now, now.is_none_or(|now| now > *value)));
        }
        for (name, value) in &cur.counters {
            if counter(base, name).is_none() {
                compared.push(row(name, 0.0, Some(*value), *value > 0.0));
            }
        }
    }
    let added = current
        .iter()
        .filter(|c| !baseline.iter().any(|b| same(b, c)))
        .cloned()
        .collect();
    RegressReport {
        threshold,
        compared,
        added,
        stale,
        seeded: false,
    }
}

/// Runs the gate: read both inputs, compare, and (on a pass, when
/// `config.update`) merge the current records into the baseline. A missing
/// baseline is seeded from the current input and passes trivially; a
/// missing or empty *current* input is an error — the gate is meaningless
/// without measurements.
///
/// # Errors
///
/// I/O failures reading the current input or reading/writing the baseline,
/// and `InvalidData` for either one that does not read (see
/// [`read_bench_records`]) or a current input with no records.
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
    if report.passed() && config.update {
        // Merge rather than overwrite: other families' records and stale
        // entries survive until their gate runs again.
        merge_bench_records(&config.baseline, current)?;
    }
    Ok(report)
}

/// Schema tag of a `gsu-benchmark` run set.
pub const RUN_SET_SCHEMA: &str = "gsu-benchmark-v1";

/// The per-layer work counters of the repository benchmark that the gate
/// ratchets: deterministic per pass, so any increase is the algorithm doing
/// more work.
pub const BENCHMARK_COUNTERS: [&str; 5] = [
    "markov.spmv_ops",
    "markov.iterations",
    "markov.expm_solves",
    "san.states",
    "san.nnz",
];

/// The traced runs of a `gsu-benchmark` run set as `benchmark:<workload>`
/// records, one per workload that `BENCHMARK.json` gates (its `serve-*`
/// runs hold per-request averages and are skipped), holding the
/// [`BENCHMARK_COUNTERS`] per pass. Each counter is the largest value over
/// the workload's traced runs, so a run that did more work than another
/// cannot hide.
///
/// # Errors
///
/// Text that is not a `gsu-benchmark-v1` run set, or a counter without a
/// numeric value.
pub fn parse_run_set(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = json::parse(text)?;
    if doc.string("schema") != Ok(RUN_SET_SCHEMA) {
        return Err(format!("not a {RUN_SET_SCHEMA} run set"));
    }
    // The repository benchmark's declaration, read at build time.
    let declaration = json::parse(include_str!("../../../BENCHMARK.json"))?;
    let gated = declaration.array("workloads")?;
    let mut out: Vec<BenchRecord> = Vec::new();
    for run in doc.array("runs")? {
        let workload = run.string("workload")?;
        if !run.boolean("trace")? || !gated.iter().any(|w| w.string("name") == Ok(workload)) {
            continue;
        }
        let name = format!("benchmark:{workload}");
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
            None => out.push(BenchRecord {
                name,
                threads: None,
                grid: None,
                wall_ms: None,
                counters,
            }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_bench_records;
    use std::path::Path;

    fn rec(name: &str, wall_ms: f64, threads: usize) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            threads: Some(threads),
            grid: Some(10),
            wall_ms: Some(wall_ms),
            counters: Vec::new(),
        }
    }

    /// A `scenario:*`-shaped record: one thread, a wall time and the four
    /// work counters `[iterations, spmv_ops, spmv_nnz, flops]`.
    fn rec_work(name: &str, wall_ms: f64, work: [u64; 4]) -> BenchRecord {
        let counters = ["iterations", "spmv_ops", "spmv_nnz", "flops"]
            .into_iter()
            .zip(work)
            .map(|(counter, value)| (counter.to_string(), value as f64))
            .collect();
        BenchRecord {
            counters,
            ..rec(name, wall_ms, 1)
        }
    }

    /// The compared metric `metric` of the first record.
    fn metric<'a>(report: &'a RegressReport, metric: &str) -> &'a Comparison {
        report
            .compared
            .iter()
            .find(|c| c.metric == metric)
            .unwrap_or_else(|| panic!("no {metric} compared"))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gsu-regress-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn committed(file: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(file)
    }

    #[test]
    fn within_threshold_passes() {
        let report = compare(&[rec("fig9", 100.0, 1)], &[rec("fig9", 109.9, 1)], 0.10);
        assert!(report.passed());
        assert_eq!(report.compared.len(), 1);
        assert!(!metric(&report, WALL).regressed);
    }

    #[test]
    fn twenty_percent_slower_fails_default_threshold() {
        let report = compare(
            &[rec("fig9", 100.0, 1)],
            &[rec("fig9", 120.0, 1)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(report.render().contains("wall_ms REGRESSED"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn ten_fold_slowdown_of_a_small_record_fails() {
        for bar in [0.28, 0.4] {
            let report = compare(
                &[rec("scenario:paper-baseline", bar, 1)],
                &[rec("scenario:paper-baseline", 10.0 * bar, 1)],
                DEFAULT_THRESHOLD,
            );
            assert!(metric(&report, WALL).regressed, "{bar} ms");
            assert!(!report.passed());
        }
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
            assert!(!metric(&report, WALL).regressed, "{base} -> {cur}");
            assert!(report.passed());
        }
    }

    #[test]
    fn serve_bars_breach_at_twice_the_bar_or_past_the_slack() {
        // At `--threshold 1.0` a committed serve bar breaches at twice the
        // bar, or at the bar plus the slack when that is later: 3.4 ms on
        // the 0.9 ms p50 bar, 12 and 20 ms on the p99 and p999 bars.
        let bars = read_bench_records(&committed("BENCH_serve_baseline.json")).unwrap();
        let breaches: Vec<(String, f64)> = bars
            .iter()
            .map(|bar| {
                let wall = bar.wall_ms.unwrap();
                let breach = (2.0 * wall).max(wall + WALL_SLACK_MS);
                let at = |cur: f64| {
                    let mut current = bar.clone();
                    current.wall_ms = Some(cur);
                    !compare(std::slice::from_ref(bar), &[current], 1.0).passed()
                };
                assert!(!at(breach), "{}", bar.name);
                assert!(at(breach + 1e-9), "{}", bar.name);
                (bar.name.clone(), breach)
            })
            .collect();
        assert_eq!(
            breaches,
            [
                ("serve:open:p50".to_string(), 3.4),
                ("serve:open:p99".to_string(), 12.0),
                ("serve:open:p999".to_string(), 20.0),
            ]
        );
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
        // fig9 suddenly does 25% more solver iterations but the wall clock
        // (noisy, or masked by a faster machine) is identical. The
        // deterministic work metric must fail the gate on its own.
        let report = compare(
            &[rec_work("fig9", 100.0, [1000, 5000, 0, 0])],
            &[rec_work("fig9", 100.0, [1250, 5000, 0, 0])],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(metric(&report, "iterations").regressed);
        assert!(!metric(&report, WALL).regressed, "wall did not regress");
        let rendered = report.render();
        assert!(rendered.contains("iterations WORK REGRESSED"), "{rendered}");
        assert!(rendered.contains("FAIL"), "{rendered}");

        // Equal work, or work ratcheting down, passes.
        for (iterations, spmv_ops) in [(1000, 5000), (1000, 4000), (900, 5000)] {
            let report = compare(
                &[rec_work("fig9", 100.0, [1000, 5000, 0, 0])],
                &[rec_work("fig9", 100.0, [iterations, spmv_ops, 0, 0])],
                DEFAULT_THRESHOLD,
            );
            assert!(report.passed(), "{iterations} / {spmv_ops}");
        }
    }

    #[test]
    fn passing_run_renders_ratchet_summary() {
        // A 2x speedup with fewer iterations must be visible in the render:
        // per-metric deltas plus the aggregate ratchet line.
        let report = compare(
            &[rec_work("fig9", 100.0, [1000, 5000, 0, 0])],
            &[rec_work("fig9", 50.0, [800, 4000, 0, 0])],
            DEFAULT_THRESHOLD,
        );
        assert!(report.passed());
        let rendered = report.render();
        assert!(rendered.contains("(-50.0%) wall_ms ok"), "{rendered}");
        assert!(rendered.contains("(-20.0%) iterations ok"), "{rendered}");
        assert!(
            rendered
                .contains("ratchet summary: 1/1 wall bars faster; geometric-mean speedup x2.00"),
            "{rendered}"
        );

        // A failing run skips the summary — the regression lines are the story.
        let report = compare(
            &[rec_work("fig9", 100.0, [1000, 5000, 0, 0])],
            &[rec_work("fig9", 150.0, [1000, 5000, 0, 0])],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(!report.render().contains("ratchet summary"));
    }

    #[test]
    fn zero_work_baseline_is_gated() {
        // `scenario:paper-baseline` as committed: solved by expm alone, so
        // its SpMV counters are 0. One more unit of any of its four
        // counters fails, the zero ones included: moving it onto
        // uniformization must fail the gate, not seed a new baseline.
        let work = [206, 0, 0, 402_029];
        let base = rec_work("scenario:paper-baseline", 0.332, work);
        for i in 0..work.len() {
            let mut more = work;
            more[i] += 1;
            let report = compare(
                std::slice::from_ref(&base),
                &[rec_work("scenario:paper-baseline", 0.332, more)],
                DEFAULT_THRESHOLD,
            );
            assert!(!report.passed(), "{}", report.render());
            assert!(report.render().contains("WORK REGRESSED"));
        }

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
        let with_nnz =
            |spmv_nnz| rec_work("scenario:three-escorts", 50.0, [8_000, 4_000, spmv_nnz, 0]);
        let report = compare(
            &[with_nnz(1_000_000)],
            &[with_nnz(1_000_001)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(metric(&report, "spmv_nnz").regressed);
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
        let record = |spmv_ops, flops| {
            rec_work(
                "scenario:two-escorts",
                50.0,
                [100, spmv_ops, spmv_ops * 50, flops],
            )
        };
        let report = compare(
            &[record(4_000, 1_000_000)],
            &[record(0, 1_000_001)],
            DEFAULT_THRESHOLD,
        );
        assert!(!report.passed());
        assert!(metric(&report, "flops").regressed);
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
    fn a_metric_the_current_record_lacks_fails() {
        // A writer that stops emitting a counter (or the wall time) must
        // not pass forever: the baseline's metric is missing, and that fails.
        let base = rec_work("scenario:paper-baseline", 0.332, [206, 0, 0, 402_029]);
        let mut dropped = base.clone();
        dropped.counters.retain(|(counter, _)| counter != "flops");
        let report = compare(std::slice::from_ref(&base), &[dropped], DEFAULT_THRESHOLD);
        assert!(!report.passed());
        assert_eq!(metric(&report, "flops").current, None);
        let rendered = report.render();
        assert!(rendered.contains("MISSING"), "{rendered}");
        assert!(rendered.contains("flops WORK REGRESSED"), "{rendered}");

        let untimed = BenchRecord {
            wall_ms: None,
            ..base.clone()
        };
        let report = compare(std::slice::from_ref(&base), &[untimed], DEFAULT_THRESHOLD);
        assert!(!report.passed());
        assert!(metric(&report, WALL).regressed);

        // A counter the baseline lacks is gated against 0.
        let mut grown = base.clone();
        grown.counters.push(("expm_solves".to_string(), 1.0));
        assert!(!compare(
            std::slice::from_ref(&base),
            &[grown.clone()],
            DEFAULT_THRESHOLD
        )
        .passed());
        grown.counters.last_mut().unwrap().1 = 0.0;
        assert!(compare(std::slice::from_ref(&base), &[grown], DEFAULT_THRESHOLD).passed());
    }

    #[test]
    fn stale_baseline_entries_fail() {
        // A baseline record absent from the input means an experiment
        // silently stopped running — that must fail loudly, not slide
        // through.
        let report = compare(
            &[
                rec("scenario:paper-baseline", 100.0, 1),
                rec("scenario:gone", 50.0, 1),
            ],
            &[rec("scenario:paper-baseline", 90.0, 1)],
            0.10,
        );
        assert!(!report.passed());
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.stale[0].name, "scenario:gone");
        let rendered = report.render();
        assert!(rendered.contains("MISSING"), "{rendered}");
        assert!(rendered.contains("FAIL"), "{rendered}");

        // Another family's records belong to another gate: an input of
        // `scenario:*` records carries the `benchmark:*` ones through.
        let benchmark = BenchRecord {
            name: "benchmark:catalog".to_string(),
            threads: None,
            grid: None,
            wall_ms: None,
            counters: vec![("san.states".to_string(), 1530.0)],
        };
        let report = compare(
            &[rec("scenario:paper-baseline", 100.0, 1), benchmark],
            &[rec("scenario:paper-baseline", 90.0, 1)],
            0.10,
        );
        assert!(report.passed(), "{}", report.render());
        assert!(report.stale.is_empty());
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
        let dir = temp_dir("gate");
        let config = RegressConfig {
            baseline: dir.join("BENCH_baseline.json"),
            current: dir.join("BENCH_sweep.json"),
            threshold: 0.10,
            update: true,
        };
        let bar = |config: &RegressConfig| read_bench_records(&config.baseline).unwrap()[0].wall_ms;

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
        assert_eq!(bar(&config), Some(105.0));

        // A 20% regression fails and must NOT touch the baseline.
        write_bench_records(&config.current, &[rec("fig9", 126.0, 1)]).unwrap();
        let report = run(&config).unwrap();
        assert!(!report.passed());
        assert_eq!(bar(&config), Some(105.0));

        // --no-update: a pass leaves the baseline untouched too.
        let frozen = RegressConfig {
            update: false,
            ..config.clone()
        };
        write_bench_records(&frozen.current, &[rec("fig9", 90.0, 1)]).unwrap();
        assert!(run(&frozen).unwrap().passed());
        assert_eq!(bar(&frozen), Some(105.0));

        // A run set updates its own records and keeps the others.
        std::fs::write(&config.current, run_set(&[("catalog", true, 800)])).unwrap();
        assert!(run(&config).unwrap().passed());
        let records = read_bench_records(&config.baseline).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "benchmark:catalog");
        assert_eq!(records[1], rec("fig9", 105.0, 1));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mangled_baseline_fails_the_gate() {
        // One baseline entry that does not read must fail the run, not drop
        // the entry: dropped, its regressed current record would be filed
        // as new and the comparison would pass.
        let dir = temp_dir("mangled");
        let config = RegressConfig {
            baseline: dir.join("BENCH_baseline.json"),
            current: dir.join("BENCH_sweep.json"),
            threshold: DEFAULT_THRESHOLD,
            update: false,
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
            intact.replace(fig10, "{\"name\": 10, \"wall_ms\": 100.000"),
            intact.replace(
                "\"threads\": 1, \"grid\": 10}\n]",
                "\"threads\": -1, \"grid\": 10}\n]",
            ),
            intact.replace(fig10, "7, {\"name\": \"fig10\", \"wall_ms\": 100.000"),
            "not json".to_string(),
        ] {
            assert_ne!(mangled, intact);
            std::fs::write(&config.baseline, &mangled).unwrap();
            let err = run(&config).expect_err(&mangled);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }

        // A renamed wall time reads as a counter the current record lacks:
        // the entry stays, and the gate fails on it.
        let renamed = intact.replace(fig10, "{\"name\": \"fig10\", \"wall\": 100.000");
        std::fs::write(&config.baseline, &renamed).unwrap();
        let report = run(&config).unwrap();
        assert!(!report.passed());
        assert_eq!(metric(&report, "wall").current, None);
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
        // The benchmark's serve workloads are traced in a `--workload all`
        // run set, but `BENCHMARK.json` gates only figures and catalog.
        let text = run_set(&[
            ("catalog", true, 800),
            ("catalog", false, 0),
            ("serve-churn", true, 53),
            ("catalog", true, 801),
            ("figures", true, 0),
            ("serve-cached", true, 53),
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
        let same = compare(&base, &base, DEFAULT_THRESHOLD);
        assert!(same.passed());
        assert_eq!(same.compared.len(), 2 * BENCHMARK_COUNTERS.len());

        // One more unit of any counter of either workload fails, and so
        // does any SpMV where the baseline has none: a zero counter is
        // gated, not seeded.
        for record in 0..base.len() {
            for counter in 0..BENCHMARK_COUNTERS.len() {
                let mut current = base.clone();
                current[record].counters[counter].1 += 1.0;
                let report = compare(&base, &current, DEFAULT_THRESHOLD);
                assert!(!report.passed(), "{record} {counter}");
                assert!(report.render().contains("WORK REGRESSED"));
            }
        }

        // A workload that stopped running fails.
        let current = parse_run_set(&run_set(&[("catalog", true, 700)])).unwrap();
        let report = compare(&base, &current, DEFAULT_THRESHOLD);
        assert_eq!(report.stale.len(), 1);
        assert!(!report.passed());
    }

    #[test]
    fn committed_baselines_compare_clean_against_themselves() {
        for (file, families) in [
            (
                "BENCH_baseline.json",
                [("scenario:", 14), ("benchmark:", 2)].as_slice(),
            ),
            ("BENCH_serve_baseline.json", [("serve:open:", 3)].as_slice()),
        ] {
            let records = read_bench_records(&committed(file)).unwrap();
            for (prefix, count) in families {
                let n = records
                    .iter()
                    .filter(|r| r.name.starts_with(prefix))
                    .count();
                assert_eq!(n, *count, "{file}: {prefix}");
            }
            let report = compare(&records, &records, DEFAULT_THRESHOLD);
            assert!(report.passed(), "{file}: {}", report.render());
            assert!(report.stale.is_empty() && report.added.is_empty());
            for record in &records {
                assert!(
                    report
                        .compared
                        .iter()
                        .any(|c| c.name == record.name && c.threads == record.threads),
                    "{file}: {} not compared",
                    record.name
                );
            }
        }
    }

    #[test]
    fn records_survive_a_write_and_read() {
        let dir = temp_dir("roundtrip");
        for file in ["BENCH_baseline.json", "BENCH_serve_baseline.json"] {
            let mut records = read_bench_records(&committed(file)).unwrap();
            let copy = dir.join(file);
            write_bench_records(&copy, &records).unwrap();
            let mut back = read_bench_records(&copy).unwrap();
            let order = |a: &BenchRecord, b: &BenchRecord| a.name.cmp(&b.name);
            records.sort_by(order);
            back.sort_by(order);
            assert_eq!(back, records, "{file}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_input_kind_is_recognized() {
        let dir = temp_dir("kinds");
        let log = dir.join("BENCH_sweep.json");
        write_bench_records(&log, &[rec_work("scenario:x", 1.0, [3, 0, 0, 9])]).unwrap();
        let records = read_bench_records(&log).unwrap();
        assert_eq!(records, [rec_work("scenario:x", 1.0, [3, 0, 0, 9])]);

        let benchmark = dir.join("benchmark.json");
        std::fs::write(&benchmark, run_set(&[("figures", true, 0)])).unwrap();
        let records = read_bench_records(&benchmark).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "benchmark:figures");
        assert_eq!(records[0].threads, None);

        let report = dir.join("loadgen-open.json");
        std::fs::write(
            &report,
            r#"{"schema":"gsu-loadgen-v1","mode":"open","label":"open","rate_rps":12,
 "duration_s":5,"connections":2,"seed":42,"keep_alive":true,"requests":59,"errors":0,
 "connects":2,"elapsed_s":5.01,"throughput_rps":11.8,
 "overall":{"endpoint":"_all","count":59,"errors":0,"mean_us":900,"p50_us":800,
  "p90_us":1500,"p99_us":2000,"p999_us":3000,"max_us":3000},
 "endpoints":[],"checks":[]}"#,
        )
        .unwrap();
        let records = read_bench_records(&report).unwrap();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["serve:open:p50", "serve:open:p99", "serve:open:p999"]
        );
        assert_eq!(records[1].wall_ms, Some(2.0));
        assert_eq!((records[1].threads, records[1].grid), (Some(2), Some(59)));
        let gate = RegressConfig {
            baseline: committed("BENCH_serve_baseline.json"),
            current: report,
            threshold: 1.0,
            update: false,
        };
        assert!(run(&gate).unwrap().passed());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_document_of_no_known_kind_is_invalid_data() {
        let dir = temp_dir("unknown");
        let config = RegressConfig {
            baseline: committed("BENCH_baseline.json"),
            current: dir.join("current.json"),
            threshold: DEFAULT_THRESHOLD,
            update: false,
        };
        for text in [
            "{}",
            "{\"schema\": \"gsu-telemetry-v3\"}",
            "\"gsu-benchmark-v1\"",
            "42",
        ] {
            std::fs::write(&config.current, text).unwrap();
            let err = run(&config).expect_err(text);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{text}: {err}");
        }
        // An empty log reads, but holds nothing to gate.
        std::fs::write(&config.current, "[]").unwrap();
        let err = run(&config).expect_err("empty log");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
