//! The work one `evaluate(φ)` costs on the paper's baseline: three matrix
//! exponentials. The G-OP `(π(φ), L(φ))` pair is one dense horizon on the
//! lumped `RMGd`, and its one structured exponential gives both
//! `e^{Qφ}` and `∫₀^φ e^{Qs} ds`; each normal-mode model adds one
//! survival exponential over `θ − φ`.
//!
//! Kept in a test binary of its own: the work counters are process-global,
//! so no other solve may run beside the one being counted.

use performability::{GsuAnalysis, GsuParams};

#[test]
fn paper_baseline_evaluate_costs_three_exponentials() {
    let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
    let before = telemetry::work::snapshot();
    let point = analysis.evaluate(7000.0).unwrap();
    let work = telemetry::work::snapshot().delta_since(&before);
    assert!(point.y.is_finite());
    assert_eq!(work.expm_solves, 3, "{work:?}");
    assert_eq!(work.spmv_ops, 0, "{work:?}");
}
