//! The parallelism contract: `GSU_THREADS` changes wall time, never
//! numbers. Sweeps, sensitivity analyses, and Monte-Carlo estimates must be
//! **bitwise** equal at any thread count — and equal to the pre-pool serial
//! path (a plain per-φ `evaluate` loop).
//!
//! Everything lives in one `#[test]` because the thread count is a
//! process-global environment variable: separate `#[test]` functions run
//! concurrently inside one test binary and would race on it.

use guarded_upgrade::performability::sensitivity::local_sensitivity;
use guarded_upgrade::prelude::*;

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("GSU_THREADS", threads);
    let out = f();
    std::env::remove_var("GSU_THREADS");
    out
}

#[test]
fn thread_count_never_changes_results() {
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params).unwrap();

    // --- φ sweep: serial loop vs 1-thread pool vs 4-thread pool. ----------
    let serial: Vec<SweepPoint> = (0..=6)
        .map(|i| analysis.evaluate(params.theta * i as f64 / 6.0).unwrap())
        .collect();
    let one = with_threads("1", || analysis.sweep_grid(6).unwrap());
    let four = with_threads("4", || analysis.sweep_grid(6).unwrap());
    assert_eq!(
        serial, one,
        "GSU_THREADS=1 must match the plain serial loop"
    );
    assert_eq!(one, four, "GSU_THREADS=4 must match GSU_THREADS=1");
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.e_w_phi.to_bits(), b.e_w_phi.to_bits());
    }

    // --- Local sensitivity (per-parameter perturbed pipelines). -----------
    let sens_one = with_threads("1", || local_sensitivity(params, 7000.0, 0.1).unwrap());
    let sens_four = with_threads("4", || local_sensitivity(params, 7000.0, 0.1).unwrap());
    assert_eq!(sens_one, sens_four);
    assert_eq!(sens_one.len(), 7);

    // --- Monte-Carlo estimates (per-replication seed streams). ------------
    let est_one = with_threads("1", || estimate_y(params, 6000.0, 400, 7).unwrap());
    let est_four = with_threads("4", || estimate_y(params, 6000.0, 400, 7).unwrap());
    assert_eq!(est_one.y.to_bits(), est_four.y.to_bits());
    assert_eq!(est_one.guarded, est_four.guarded);
    assert_eq!(est_one.unguarded, est_four.unguarded);

    // --- Grid validation runs before the fan-out: same error at any width. -
    let bad = [4000.0, 1000.0];
    let bad_one = with_threads("1", || analysis.sweep(bad).unwrap_err());
    let bad_four = with_threads("4", || analysis.sweep(bad).unwrap_err());
    assert_eq!(format!("{bad_one}"), format!("{bad_four}"));
    assert!(analysis.sweep([-5.0]).is_err());
    assert!(analysis.sweep([params.theta + 1.0]).is_err());
}
