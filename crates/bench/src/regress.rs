//! The bench regression gate: `gsu-bench regress`.
//!
//! Compares the current `BENCH_sweep.json` (written by the
//! [`BenchTimer`](crate::BenchTimer)s of `gsu-bench run`) against a committed
//! baseline, keyed on `(name, threads)`. A run **regresses** when its wall
//! time exceeds the baseline by more than the threshold fraction (default
//! 10%), or when a deterministic work counter (solver iterations, SpMV
//! operations) exceeds its baseline at all. On a clean pass the current numbers are merged into the baseline —
//! speedups ratchet the bar down, new experiments get seeded — unless the
//! caller asks for a read-only check (`--no-update`, used by CI so the tree
//! stays pristine).

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::{read_bench_records, write_bench_records, BenchRecord};

/// Default wall-time regression threshold: 10% slower than baseline fails.
/// Work counters get no tolerance.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

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
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig {
            baseline: PathBuf::from("results/BENCH_baseline.json"),
            current: PathBuf::from("results/BENCH_sweep.json"),
            threshold: DEFAULT_THRESHOLD,
            update: true,
            allow_missing: false,
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
    /// `current / baseline` — `> 1 + threshold` means regression.
    pub ratio: f64,
    /// Whether wall time breaches the threshold.
    pub regressed: bool,
    /// Baseline solver iterations (0 = predates work counters, not compared).
    pub baseline_iterations: u64,
    /// Current solver iterations.
    pub current_iterations: u64,
    /// Baseline SpMV count (0 = predates work counters, not compared).
    pub baseline_spmv_ops: u64,
    /// Current SpMV count.
    pub current_spmv_ops: u64,
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

/// Work-metric breach test at zero tolerance: a zero baseline means the
/// metric predates the counters — seed it on the next ratchet instead of
/// comparing.
fn work_breach(baseline: u64, current: u64) -> bool {
    baseline > 0 && current > baseline
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
            if c.baseline_spmv_ops > 0 || c.current_spmv_ops > 0 {
                let verdict = if work_breach(c.baseline_spmv_ops, c.current_spmv_ops) {
                    "WORK REGRESSED"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    out,
                    "regress: {:<22} threads={} {:>9} vs {:>9} baseline spmv_ops {}",
                    c.name, c.threads, c.current_spmv_ops, c.baseline_spmv_ops, verdict
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
            "regress: {} compared, {} new, {} stale; wall threshold {:.0}%, work exact -> {}",
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
                    regressed: cur.wall_ms > base.wall_ms * (1.0 + threshold),
                    baseline_iterations: base.iterations,
                    current_iterations: cur.iterations,
                    baseline_spmv_ops: base.spmv_ops,
                    current_spmv_ops: cur.spmv_ops,
                    work_regressed: work_breach(base.iterations, cur.iterations)
                        || work_breach(base.spmv_ops, cur.spmv_ops),
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
        write_bench_records(&config.baseline, &merged)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, wall_ms: f64, threads: usize) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            wall_ms,
            threads,
            grid: 10,
            iterations: 0,
            spmv_ops: 0,
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
    fn zero_work_baseline_seeds_instead_of_comparing() {
        // A baseline written before the work counters existed has zeroes:
        // the first instrumented run must pass (and, with update on, ratchet
        // the real numbers in) rather than dividing by zero or failing.
        let report = compare(
            &[rec("fig9", 100.0, 1)],
            &[rec_work("fig9", 100.0, 1250, 5000)],
            DEFAULT_THRESHOLD,
        );
        assert!(report.passed());
        assert!(!report.compared[0].work_regressed);
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
}
