//! Scenario-catalog benchmark and golden-curve gate.
//!
//! `gsu-bench scenarios` walks the `.gsu` catalog, builds every scenario's
//! analytic pipeline, sweeps the full Y(φ) curve, and either writes the
//! golden curves (`--write-golden`) or checks the freshly computed curves
//! against the committed goldens to a tight relative tolerance (`--check`,
//! the default). Each scenario's wall time (the minimum over warm passes)
//! and work counters are merged as a `scenario:<name>` [`BenchRecord`] into
//! `<out>/BENCH_sweep.json`, which `gsu-bench regress` ratchets.
//!
//! [`BenchRecord`]: crate::BenchRecord

use std::path::PathBuf;

use gsu_scenario::{load_dir, read_golden, write_golden, GoldenCurve, ScenarioAnalysis};

/// Relative tolerance for golden-curve comparison. The analytic pipeline is
/// deterministic; the slack only absorbs cross-platform libm drift.
pub const GOLDEN_REL_TOL: f64 = 1e-9;

/// Fewest warm passes a scenario's recorded wall time is the minimum of.
const MIN_WARM_PASSES: usize = 5;

/// Least warm wall time, in milliseconds, spent timing one scenario.
const MIN_WARM_MS: f64 = 50.0;

/// Configuration for the `scenarios` subcommand.
#[derive(Debug, Clone)]
pub struct ScenariosConfig {
    /// Directory of `.gsu` scenario files.
    pub dir: PathBuf,
    /// Directory of golden-curve JSON files.
    pub golden: PathBuf,
    /// Directory receiving `BENCH_sweep.json` records.
    pub out: PathBuf,
    /// Regenerate goldens instead of checking against them.
    pub write_golden: bool,
}

impl Default for ScenariosConfig {
    fn default() -> Self {
        ScenariosConfig {
            dir: PathBuf::from("scenarios"),
            golden: PathBuf::from("results/golden"),
            out: PathBuf::from("results"),
            write_golden: false,
        }
    }
}

/// Outcome for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (file stem).
    pub name: String,
    /// Number of φ grid points swept.
    pub points: usize,
    /// Wall-clock milliseconds for build + sweep, the minimum over the warm
    /// passes (infinite when the cold pass failed and none ran).
    pub wall_ms: f64,
    /// Largest relative deviation from the golden curve (0 when writing).
    pub max_rel_err: f64,
    /// `None` on success, `Some(reason)` on failure.
    pub failure: Option<String>,
}

/// The full catalog run.
#[derive(Debug, Clone)]
pub struct ScenariosReport {
    /// One outcome per catalog entry, in name order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Whether goldens were written rather than checked.
    pub wrote_golden: bool,
}

impl ScenariosReport {
    /// `true` when every scenario passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.failure.is_none())
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verb = if self.wrote_golden {
            "wrote"
        } else {
            "checked"
        };
        out.push_str(&format!(
            "scenario catalog: {} {} golden curve(s)\n",
            verb,
            self.outcomes.len()
        ));
        for o in &self.outcomes {
            match &o.failure {
                None => out.push_str(&format!(
                    "  ok   {:<22} {:>3} pts  {:>9.1} ms  max rel err {:.2e}\n",
                    o.name, o.points, o.wall_ms, o.max_rel_err
                )),
                Some(why) => {
                    out.push_str(&format!("  FAIL {:<22} {why}\n", o.name));
                }
            }
        }
        out
    }
}

/// Runs the catalog sweep.
///
/// # Errors
///
/// Fails on catalog I/O or parse errors; per-scenario analytic failures are
/// reported as outcome failures, not hard errors.
pub fn run(config: &ScenariosConfig) -> Result<ScenariosReport, String> {
    let specs = load_dir(&config.dir).map_err(|e| e.to_string())?;
    if specs.is_empty() {
        return Err(format!(
            "no .gsu scenarios found in {}",
            config.dir.display()
        ));
    }
    if config.write_golden {
        std::fs::create_dir_all(&config.golden)
            .map_err(|e| format!("cannot create {}: {e}", config.golden.display()))?;
    }
    // One cold pass per scenario gives its curve and its work counters
    // (deterministic, so identical across passes).
    let mut runs: Vec<_> = specs
        .into_iter()
        .map(|spec| {
            let work_start = telemetry::work::snapshot();
            let curve = ScenarioAnalysis::new(spec.clone()).and_then(|analysis| analysis.curve());
            (
                spec,
                curve,
                telemetry::work::snapshot().delta_since(&work_start),
            )
        })
        .collect();
    // Warm passes then go round-robin over the catalog until every scenario
    // has at least MIN_WARM_PASSES passes and MIN_WARM_MS of timed work, and
    // each records its *minimum* warm wall time. The small scenarios solve
    // in single-digit milliseconds, and a shared host slows whole stretches
    // of a run well past the regress gate's 10% threshold; spreading each
    // scenario's passes over the run and keeping the min filters that out.
    let mut timings = vec![(f64::INFINITY, 0, 0.0); runs.len()];
    loop {
        let mut ran = false;
        for ((spec, curve, _), (wall_ms, passes, timed_ms)) in runs.iter_mut().zip(&mut timings) {
            if curve.is_err() || (*passes >= MIN_WARM_PASSES && *timed_ms >= MIN_WARM_MS) {
                continue;
            }
            let start = std::time::Instant::now();
            *curve = ScenarioAnalysis::new(spec.clone()).and_then(|analysis| analysis.curve());
            let pass_ms = start.elapsed().as_secs_f64() * 1e3;
            *wall_ms = f64::min(*wall_ms, pass_ms);
            *passes += 1;
            *timed_ms += pass_ms;
            ran = true;
        }
        if !ran {
            break;
        }
    }
    let mut outcomes = Vec::with_capacity(runs.len());
    for ((spec, curve, work), (wall_ms, _, _)) in runs.into_iter().zip(timings) {
        let name = spec.name;
        let points = spec.phi_grid.len();
        if curve.is_ok() {
            let record = crate::BenchRecord {
                name: format!("scenario:{name}"),
                wall_ms,
                threads: pool::configured_threads(),
                grid: points,
                iterations: work.solver_iterations,
                spmv_ops: work.spmv_ops,
                spmv_nnz: work.spmv_nnz,
                flops: work.flops,
            };
            if let Err(e) = crate::merge_bench_record(&config.out.join("BENCH_sweep.json"), record)
            {
                eprintln!("bench: failed to update sweep log: {e}");
            }
        }
        let outcome = match curve {
            Err(e) => ScenarioOutcome {
                name: name.clone(),
                points,
                wall_ms,
                max_rel_err: f64::NAN,
                failure: Some(format!("analytic pipeline failed: {e}")),
            },
            Ok(sweep) => {
                let fresh = GoldenCurve {
                    scenario: name.clone(),
                    points: sweep.iter().map(|p| (p.phi, p.y)).collect(),
                };
                let golden_path = config.golden.join(format!("{name}.json"));
                if config.write_golden {
                    match write_golden(&golden_path, &fresh) {
                        Ok(()) => ScenarioOutcome {
                            name,
                            points,
                            wall_ms,
                            max_rel_err: 0.0,
                            failure: None,
                        },
                        Err(e) => ScenarioOutcome {
                            name,
                            points,
                            wall_ms,
                            max_rel_err: f64::NAN,
                            failure: Some(e.to_string()),
                        },
                    }
                } else {
                    match read_golden(&golden_path) {
                        Ok(golden) => {
                            let (max_rel_err, failure) = compare(&golden, &fresh);
                            ScenarioOutcome {
                                name,
                                points,
                                wall_ms,
                                max_rel_err,
                                failure,
                            }
                        }
                        Err(e) => ScenarioOutcome {
                            name,
                            points,
                            wall_ms,
                            max_rel_err: f64::NAN,
                            failure: Some(format!(
                                "missing golden (run `gsu-bench scenarios --write-golden`): {e}"
                            )),
                        },
                    }
                }
            }
        };
        outcomes.push(outcome);
    }
    Ok(ScenariosReport {
        outcomes,
        wrote_golden: config.write_golden,
    })
}

/// Compares a fresh curve against its golden, returning the worst relative
/// error and a failure description when out of tolerance.
fn compare(golden: &GoldenCurve, fresh: &GoldenCurve) -> (f64, Option<String>) {
    if golden.points.len() != fresh.points.len() {
        return (
            f64::NAN,
            Some(format!(
                "golden has {} point(s), analytic sweep produced {}",
                golden.points.len(),
                fresh.points.len()
            )),
        );
    }
    let mut max_rel_err = 0.0f64;
    for (&(gphi, gy), &(fphi, fy)) in golden.points.iter().zip(&fresh.points) {
        if gphi != fphi {
            return (
                f64::NAN,
                Some(format!(
                    "grid mismatch: golden phi {gphi}, scenario phi {fphi}"
                )),
            );
        }
        let rel = (fy - gy).abs() / gy.abs().max(1.0);
        max_rel_err = max_rel_err.max(rel);
        if rel > GOLDEN_REL_TOL {
            return (
                rel,
                Some(format!(
                    "Y({gphi}) = {fy} drifted from golden {gy} (rel err {rel:.2e} > {GOLDEN_REL_TOL:.0e})"
                )),
            );
        }
    }
    (max_rel_err, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(points: Vec<(f64, f64)>) -> GoldenCurve {
        GoldenCurve {
            scenario: "g".to_string(),
            points,
        }
    }

    #[test]
    fn compare_accepts_exact_match() {
        let g = golden(vec![(0.0, 1.0), (10.0, 1.5)]);
        let (err, failure) = compare(&g, &g.clone());
        assert_eq!(err, 0.0);
        assert!(failure.is_none());
    }

    #[test]
    fn compare_rejects_drift_and_shape_mismatch() {
        let g = golden(vec![(0.0, 1.0), (10.0, 1.5)]);
        let drifted = golden(vec![(0.0, 1.0), (10.0, 1.5 + 1e-6)]);
        let (_, failure) = compare(&g, &drifted);
        assert!(failure.is_some());
        let short = golden(vec![(0.0, 1.0)]);
        assert!(compare(&g, &short).1.is_some());
        let moved = golden(vec![(0.0, 1.0), (11.0, 1.5)]);
        assert!(compare(&g, &moved).1.is_some());
    }

    #[test]
    fn missing_catalog_dir_is_an_error() {
        let config = ScenariosConfig {
            dir: PathBuf::from("does-not-exist"),
            ..ScenariosConfig::default()
        };
        assert!(run(&config).is_err());
    }
}
