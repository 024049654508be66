//! One tally of solver work: the sink's `solver.iterations` counter reads
//! exactly what the ratcheted work counter counts — the uniformization
//! steps actually run plus the squarings of every matrix exponential.
//!
//! Kept in a test binary of its own: the work counters and the telemetry
//! sink are process-global, so no other solve may run beside the one being
//! counted.

use performability::{GsuAnalysis, GsuParams};
use telemetry::Collector;

#[test]
fn sink_iterations_equal_the_work_counter() {
    let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
    let collector = Collector::install();
    let before = telemetry::work::snapshot();
    // Tiny φ (2⁻¹¹, about one expected Poisson step) takes uniformization;
    // the paper optimum takes the exponential.
    let near = analysis.evaluate(0.000_488_281_25).unwrap();
    let far = analysis.evaluate(7000.0).unwrap();
    let work = telemetry::work::snapshot().delta_since(&before);
    telemetry::clear_sink();
    assert!(near.y.is_finite() && far.y.is_finite());

    let solves = |name: &str| collector.counter_value(name).unwrap_or(0);
    assert!(solves("markov.uniformization.solves") >= 1);
    assert!(solves("markov.expm.solves") >= 1);
    assert!(work.solver_iterations > 0);
    assert_eq!(
        collector.counter_value("solver.iterations"),
        Some(work.solver_iterations)
    );
    let steps = collector
        .histogram_snapshot("markov.uniformization.steps")
        .expect("uniformization steps observed");
    assert_eq!(steps.count, solves("markov.uniformization.solves"));
}
