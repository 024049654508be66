//! The runtime sanitizer: `gsu-lint sanitize`.
//!
//! Every static determinism rule in this linter has a dynamic witness
//! here. The harness evaluates the curves of the paper's figs. 9–12 — one
//! pool task per curve, as the figure experiments fan them out — plus two
//! catalog scenarios, first serially (`GSU_THREADS=1`, the reference
//! schedule), then across a matrix of thread counts and adversarially
//! permuted claim orders (the [`pool::PERMUTE_ENV`] debug hook), and
//! diffs the outputs **bitwise**. The workspace's contract is that every
//! published number is a pure function of its inputs — same bits at any
//! thread count under any schedule — so a single flipped bit is a finding
//! (`sanitize-mismatch`), not a tolerance question.
//!
//! In debug builds the sparse kernels' checked-float tripwires
//! ([`sparsela::checked`]) are armed for the duration: any NaN, infinity,
//! or denormal produced by a matrix op surfaces as a `checked-float`
//! finding naming the kernel.
//!
//! The schedule knobs travel through the environment (that is what the
//! pool reads), so runs are serialized behind a process-wide lock and the
//! prior values are restored on exit — including on error paths. The
//! [`pool::DEFECT_ENV`] hook is deliberately *not* touched: tests set it
//! to plant an order-sensitive reduction and watch this harness catch it.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use crate::diag::Finding;
use gsu_scenario::{catalog, ScenarioAnalysis, ScenarioSpec};
use performability::{GsuAnalysis, GsuParams, SweepPoint};

/// Thread counts every case is replayed under (`1` doubles as a check
/// that the permutation hook is inert on the inline path).
pub const THREAD_MATRIX: &[usize] = &[1, 2, 4];

/// Wake-order permutation seeds for the full run.
const FULL_SEEDS: &[u64] = &[1, 2, 0xdead_beef];
/// Single seed for `--quick` (CI budget: the whole stage stays well under
/// ten seconds because the quick cases are the catalog's smallest models).
const QUICK_SEEDS: &[u64] = &[1];

/// Catalog scenarios for the full run.
const FULL_SCENARIOS: &[&str] = &["paper-short-window", "two-escorts"];
/// Catalog scenarios for `--quick`.
const QUICK_SCENARIOS: &[&str] = &["paper-short-window", "small-exact"];

/// φ-grid size of the figure curves.
const FULL_GRID: usize = 9;
/// φ-grid size under `--quick`.
const QUICK_GRID: usize = 5;

/// Serializes sanitizer runs: the schedule knobs live in the process
/// environment, so two concurrent runs would trample each other.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// What to run.
pub struct SanitizeOptions {
    /// Fewer seeds, smaller grid, smallest scenarios.
    pub quick: bool,
    /// Directory holding the `.gsu` scenario catalog.
    pub scenario_dir: PathBuf,
}

/// The harness outcome: findings (empty on a clean run) plus a human log.
pub struct SanitizeReport {
    /// `sanitize-mismatch` / `checked-float` findings.
    pub findings: Vec<Finding>,
    /// One line per case summarising what was compared.
    pub log: Vec<String>,
    /// Total differential runs executed (excluding baselines).
    pub runs: usize,
}

/// Saved schedule environment, restored on drop so even an error path
/// leaves the process as it found it.
struct EnvState {
    threads: Option<String>,
    permute: Option<String>,
}

impl EnvState {
    fn capture() -> Self {
        EnvState {
            threads: std::env::var(pool::THREADS_ENV).ok(),
            permute: std::env::var(pool::PERMUTE_ENV).ok(),
        }
    }
}

impl Drop for EnvState {
    fn drop(&mut self) {
        restore(pool::THREADS_ENV, self.threads.as_deref());
        restore(pool::PERMUTE_ENV, self.permute.as_deref());
    }
}

fn restore(key: &str, value: Option<&str>) {
    match value {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
}

fn set_schedule(threads: usize, permute: Option<u64>) {
    std::env::set_var(pool::THREADS_ENV, threads.to_string());
    restore(pool::PERMUTE_ENV, permute.map(|s| s.to_string()).as_deref());
}

/// One differential case: a name and a replayable evaluation whose result
/// is the exact bit pattern of every output number.
struct Case {
    name: String,
    eval: Box<dyn Fn() -> Result<Vec<u64>, String>>,
}

/// Flattens a curve to the bit patterns under comparison.
fn encode(points: &[SweepPoint]) -> Vec<u64> {
    points
        .iter()
        .flat_map(|p| [p.phi.to_bits(), p.y.to_bits()])
        .collect()
}

/// The parameter set of every curve of figs. 9–12, in figure order.
fn figure_curves() -> Result<Vec<GsuParams>, String> {
    let base = GsuParams::paper_baseline();
    let slow = base
        .with_overhead_rates(2500.0, 2500.0)
        .map_err(|e| e.to_string())?;
    let short = base.with_theta(5000.0).map_err(|e| e.to_string())?;
    [
        Ok(base),
        base.with_mu_new(5e-5),
        Ok(base),
        Ok(slow),
        slow.with_coverage(0.95),
        slow.with_coverage(0.75),
        slow.with_coverage(0.50),
        Ok(short),
        short.with_mu_new(5e-5),
    ]
    .into_iter()
    .map(|p| p.map_err(|e| e.to_string()))
    .collect()
}

/// Builds the case list: the figure curves plus two catalog scenarios.
/// Each case reconstructs its analyses inside the run so the *whole*
/// pipeline (model build included) executes under the schedule being
/// tested.
fn build_cases(opts: &SanitizeOptions) -> Result<Vec<Case>, String> {
    let grid = if opts.quick { QUICK_GRID } else { FULL_GRID };
    let wanted = if opts.quick {
        QUICK_SCENARIOS
    } else {
        FULL_SCENARIOS
    };

    let curves = figure_curves()?;
    let mut cases = vec![Case {
        name: "fig9-fig12".to_string(),
        eval: Box::new(move || {
            let swept = pool::Pool::current().try_map_indexed(curves.clone(), |_, params| {
                GsuAnalysis::new(params)?.sweep_grid(grid)
            });
            let curves = swept.map_err(|e| format!("figure sweep failed: {e}"))?;
            Ok(curves.iter().flat_map(|points| encode(points)).collect())
        }),
    }];

    let specs = catalog::load_dir(&opts.scenario_dir)
        .map_err(|e| format!("loading {}: {e}", opts.scenario_dir.display()))?;
    for name in wanted {
        let spec: ScenarioSpec =
            specs
                .iter()
                .find(|s| s.name == *name)
                .cloned()
                .ok_or_else(|| {
                    format!(
                        "scenario `{name}` not found in {}",
                        opts.scenario_dir.display()
                    )
                })?;
        cases.push(Case {
            name: spec.name.clone(),
            eval: Box::new(move || {
                let analysis = ScenarioAnalysis::new(spec.clone())
                    .map_err(|e| format!("scenario build failed: {e}"))?;
                let points = analysis
                    .curve()
                    .map_err(|e| format!("scenario curve failed: {e}"))?;
                Ok(encode(&points))
            }),
        });
    }
    Ok(cases)
}

/// Turns the checked-float trips accumulated during one run into findings
/// attributed to `case`. The trip text already names the kernel.
fn drain_trips(case: &str, findings: &mut Vec<Finding>) {
    for trip in sparsela::checked::take_trips() {
        findings.push(Finding::new(
            "checked-float",
            format!("sanitize:{case}"),
            trip,
            "a kernel produced a non-finite or denormal value; clamp or guard the \
             inputs where the message points, do not widen tolerances downstream",
        ));
    }
}

/// Describes the first diverging word of two encoded curves.
fn first_divergence(baseline: &[u64], got: &[u64]) -> String {
    if baseline.len() != got.len() {
        return format!(
            "length changed: {} words became {}",
            baseline.len(),
            got.len()
        );
    }
    let differing = baseline.iter().zip(got).filter(|(a, b)| a != b).count();
    let first = baseline.iter().zip(got).position(|(a, b)| a != b);
    match first {
        Some(word) => {
            let field = if word % 2 == 0 { "phi" } else { "y" };
            format!(
                "{differing} of {} words differ; first at point {} (field {field})",
                baseline.len(),
                word / 2,
            )
        }
        None => "no differing word (length mismatch only)".to_string(),
    }
}

/// Runs the differential harness.
///
/// # Errors
///
/// Infrastructure failures only — a missing scenario directory or a case
/// whose *baseline* evaluation fails. Divergence under an alternate
/// schedule is a finding, not an error.
pub fn run(opts: &SanitizeOptions) -> Result<SanitizeReport, String> {
    let _serial = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = EnvState::capture();
    let mut span = telemetry::span("lint.sanitize");

    sparsela::checked::enable(true);
    let _ = sparsela::checked::take_trips(); // discard stale trips
    let result = run_locked(opts);
    sparsela::checked::enable(false);

    if let Ok(report) = &result {
        span.record("runs", report.runs);
        span.record("findings", report.findings.len());
    }
    result
}

fn run_locked(opts: &SanitizeOptions) -> Result<SanitizeReport, String> {
    let seeds = if opts.quick { QUICK_SEEDS } else { FULL_SEEDS };
    let cases = build_cases(opts)?;
    let mut findings = Vec::new();
    let mut log = Vec::new();
    let mut runs = 0usize;

    for case in &cases {
        // Reference schedule: serial, unpermuted.
        set_schedule(1, None);
        let baseline = (case.eval)().map_err(|e| format!("{} baseline: {e}", case.name))?;
        drain_trips(&case.name, &mut findings);

        let mut mismatches = 0usize;
        for &threads in THREAD_MATRIX {
            for &seed in seeds {
                set_schedule(threads, Some(seed));
                runs += 1;
                match (case.eval)() {
                    Ok(got) => {
                        if got != baseline {
                            mismatches += 1;
                            findings.push(Finding::new(
                                "sanitize-mismatch",
                                format!("sanitize:{}", case.name),
                                format!(
                                    "`{}` diverged bitwise at GSU_THREADS={threads}, \
                                     wake-order seed {seed}: {}",
                                    case.name,
                                    first_divergence(&baseline, &got),
                                ),
                                "outputs must be bitwise schedule-invariant; hunt the \
                                 order-sensitive reduction (hash iteration, completion-order \
                                 collection, shared-state race) — do not allowlist this",
                            ));
                        }
                    }
                    Err(e) => {
                        mismatches += 1;
                        findings.push(Finding::new(
                            "sanitize-mismatch",
                            format!("sanitize:{}", case.name),
                            format!(
                                "`{}` failed outright at GSU_THREADS={threads}, wake-order \
                                 seed {seed} (baseline succeeded): {e}",
                                case.name,
                            ),
                            "a schedule-dependent failure is a concurrency bug; fix the \
                             race rather than retrying",
                        ));
                    }
                }
                drain_trips(&case.name, &mut findings);
            }
        }
        log.push(format!(
            "{}: {} words × {} schedules (threads {:?} × seeds {:?}): {}",
            case.name,
            baseline.len(),
            THREAD_MATRIX.len() * seeds.len(),
            THREAD_MATRIX,
            seeds,
            if mismatches == 0 {
                "bitwise identical".to_string()
            } else {
                format!("{mismatches} DIVERGENT schedules")
            },
        ));
    }

    Ok(SanitizeReport {
        findings,
        log,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_dir() -> PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
    }

    fn quick_opts() -> SanitizeOptions {
        SanitizeOptions {
            quick: true,
            scenario_dir: scenario_dir(),
        }
    }

    /// Keeps the clean run out of the seeded-defect test's window: the
    /// defect hook is process-wide and [`run`] deliberately leaves it alone.
    static DEFECT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn clean_pipeline_is_bitwise_schedule_invariant() {
        // The acceptance criterion itself: figure curves + catalog scenarios produce
        // identical bits under permuted schedules at 1/2/4 threads.
        let _defect = DEFECT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let report = run(&quick_opts()).unwrap();
        assert!(
            report.findings.is_empty(),
            "sanitizer found divergence: {:?}",
            report.findings
        );
        assert_eq!(report.log.len(), 3);
        assert!(
            report.runs >= 9,
            "expected a full matrix, ran {}",
            report.runs
        );
    }

    #[test]
    fn seeded_completion_order_defect_is_caught() {
        // Plant the pool's order-sensitive collection defect and watch the
        // differential harness catch it by scenario name. Completion order
        // can coincide with spawn order on a lucky schedule, so retry a few
        // times; the serial baseline is immune by construction.
        let _defect = DEFECT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let _cleanup = EnvState::capture();
        std::env::set_var(pool::DEFECT_ENV, "completion-order");
        let mut caught = Vec::new();
        for _ in 0..3 {
            let report = run(&quick_opts()).unwrap();
            caught = report
                .findings
                .into_iter()
                .filter(|f| f.rule == "sanitize-mismatch")
                .collect();
            if !caught.is_empty() {
                break;
            }
        }
        std::env::remove_var(pool::DEFECT_ENV);
        assert!(!caught.is_empty(), "defect was never caught");
        let named = caught.iter().any(|f| {
            f.message.contains("fig9")
                || f.message.contains("paper-short-window")
                || f.message.contains("small-exact")
        });
        assert!(named, "mismatch must name the scenario: {caught:?}");
        assert!(caught[0].location.starts_with("sanitize:"));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn injected_nan_surfaces_as_checked_float_finding() {
        let _serial = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        sparsela::checked::enable(true);
        let _ = sparsela::checked::take_trips();
        let dense = sparsela::DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let m = sparsela::CsrMatrix::from_dense(&dense);
        let mut y = vec![0.0; 2];
        m.mul_vec_into(&[f64::NAN, 1.0], &mut y);
        sparsela::checked::enable(false);
        let mut findings = Vec::new();
        drain_trips("unit", &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "checked-float");
        assert!(
            findings[0].message.contains("csr.mul_vec"),
            "trip must name the kernel: {}",
            findings[0].message
        );
        assert_eq!(findings[0].location, "sanitize:unit");
    }
}
