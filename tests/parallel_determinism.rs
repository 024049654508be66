//! The parallelism contract: `GSU_THREADS` changes wall time, never
//! numbers. Sweeps, sensitivity analyses, and Monte-Carlo estimates must be
//! **bitwise** equal at any thread count. A one-point sweep is bitwise
//! [`GsuAnalysis::evaluate`]; a grid sweep chains its dense transient
//! solves along the grid, so it agrees with a plain per-φ `evaluate` loop
//! to rounding only: `Y` within the goldens' tolerance, every other field
//! within 1e-8.
//!
//! Everything lives in one `#[test]` because the thread count is a
//! process-global environment variable: separate `#[test]` functions run
//! concurrently inside one test binary and would race on it.

use guarded_upgrade::performability::sensitivity::local_sensitivity;
use guarded_upgrade::prelude::*;

/// The goldens' relative tolerance on `Y`.
const GOLDEN_REL_TOL: f64 = 1e-9;

/// `|got − want| / |want|`, or the absolute difference when `want` is 0.
fn rel_err(got: f64, want: f64) -> f64 {
    let diff = (got - want).abs();
    if want == 0.0 {
        diff
    } else {
        diff / want.abs()
    }
}

/// The bits of every field of a sweep point.
fn bits(p: &SweepPoint) -> Vec<u64> {
    [p.phi, p.y]
        .into_iter()
        .chain(other_fields(p).map(|(_, v)| v))
        .map(f64::to_bits)
        .collect()
}

/// Every field of a sweep point but `φ` and `Y`, by name.
fn other_fields(p: &SweepPoint) -> [(&'static str, f64); 15] {
    let m = &p.measures;
    [
        ("e_w0", p.e_w0),
        ("e_w_phi", p.e_w_phi),
        ("y_s1", p.y_s1),
        ("y_s2", p.y_s2),
        ("gamma", p.gamma),
        ("p_a1_gop", m.p_a1_gop),
        ("p_a1_norm_theta", m.p_a1_norm_theta),
        ("p_a1_norm_rem", m.p_a1_norm_rem),
        ("rho1", m.rho1),
        ("rho2", m.rho2),
        ("i_h", m.i_h),
        ("i_tau_h", m.i_tau_h),
        ("i_tau_h_exact", m.i_tau_h_exact),
        ("i_hf", m.i_hf),
        ("i_f", m.i_f),
    ]
}

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
    assert_eq!(one.len(), serial.len());
    for (grid, point) in one.iter().zip(&serial) {
        assert_eq!(grid.phi.to_bits(), point.phi.to_bits());
        let y_err = rel_err(grid.y, point.y);
        assert!(
            y_err <= GOLDEN_REL_TOL,
            "Y at phi {}: grid {} vs evaluate {} (rel err {y_err:.2e})",
            point.phi,
            grid.y,
            point.y
        );
        for ((name, got), (_, want)) in other_fields(grid).into_iter().zip(other_fields(point)) {
            let err = rel_err(got, want);
            assert!(
                err <= 1e-8,
                "{name} at phi {}: grid {got} vs evaluate {want} (rel err {err:.2e})",
                point.phi
            );
        }
        // A one-point sweep is the evaluation itself.
        let solo = analysis.sweep([point.phi]).unwrap();
        assert_eq!(solo.len(), 1);
        assert_eq!(
            bits(&solo[0]),
            bits(point),
            "sweep([{}]) must be evaluate({0}) bit for bit",
            point.phi
        );
    }
    assert_eq!(one, four, "GSU_THREADS=4 must match GSU_THREADS=1");
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(
            bits(a),
            bits(b),
            "GSU_THREADS=4 must match GSU_THREADS=1 bit for bit"
        );
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
