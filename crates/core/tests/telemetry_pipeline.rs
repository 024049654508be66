//! End-to-end check that a full `GsuAnalysis` evaluation feeds the
//! telemetry pipeline: the solver, uniformization, Fox–Glynn, and SAN
//! generation layers must all leave footprints in an installed collector.
//!
//! Kept as a single test in its own binary: the telemetry sink is
//! process-global, and a dedicated integration-test process avoids
//! cross-talk with other tests.

use performability::{GsuAnalysis, GsuParams};
use telemetry::Collector;

#[test]
fn evaluate_records_solver_and_state_space_metrics() {
    let collector = Collector::install();

    let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).expect("baseline builds");
    // Tiny φ: few expected Poisson steps, so the cost-aware Auto selection
    // picks uniformization and exercises Fox–Glynn.
    let near = analysis.evaluate(0.5).expect("small φ evaluates");
    // Paper optimum: enough expected steps that the dense matrix
    // exponential is the cheaper engine.
    let far = analysis.evaluate(7000.0).expect("optimum φ evaluates");
    assert!(near.y.is_finite() && far.y.is_finite());

    telemetry::clear_sink();

    // Steady-state solver: the RMGp ρ solve runs during build.
    assert!(collector.counter_value("solver.solves").unwrap_or(0) >= 1);
    // Iterations: uniformization steps count toward the global work tally.
    assert!(collector.counter_value("solver.iterations").unwrap_or(0) > 0);

    // Both transient engines ran, and every Fox–Glynn window is non-empty.
    assert!(
        collector
            .counter_value("markov.uniformization.solves")
            .unwrap_or(0)
            >= 1
    );
    assert!(collector.counter_value("markov.expm.solves").unwrap_or(0) >= 1);
    assert!(collector.counter_value("fox_glynn.windows").unwrap_or(0) >= 1);
    let window_len = collector
        .histogram_snapshot("fox_glynn.window_len")
        .expect("window lengths observed");
    assert!(window_len.count >= 1);
    assert!(window_len.min >= 1.0, "Fox–Glynn window must be non-empty");

    // State-space generation: all three SAN models report their sizes.
    for model in ["rmgd", "rmgp", "rmnd"] {
        let states = collector
            .gauge_value(&format!("san.states.{model}"))
            .unwrap_or_else(|| panic!("missing san.states.{model}"));
        assert!(states > 0.0, "model {model} generated no states");
    }

    // The per-φ evaluation span wraps the whole pipeline.
    let spans = collector.spans();
    assert!(spans.iter().any(|s| s.name == "performability.evaluate"));
    assert!(spans
        .iter()
        .any(|s| s.name == "markov.transient.distribution"));
    assert_eq!(
        collector.counter_value("performability.evaluations"),
        Some(2)
    );

    // At tiny φ the G-OP chain's π(φ) and L(φ) both resolve to
    // uniformization, so they come from one shared pass: one fused span
    // with exactly one uniformization solve under it.
    let collector = Collector::install();
    let (pi, l) = analysis
        .gd_analyzer()
        .distribution_and_occupancy_at(0.5)
        .expect("fused solve");
    telemetry::clear_sink();
    assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    assert!((l.iter().sum::<f64>() - 0.5).abs() < 1e-12);
    let spans = collector.spans();
    let fused: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "markov.transient.distribution_and_occupancy")
        .collect();
    assert_eq!(fused.len(), 1, "one fused transient span");
    let solves: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "markov.solve.uniformization")
        .collect();
    assert_eq!(solves.len(), 1, "one uniformization solve");
    assert_eq!(solves[0].parent_id, fused[0].span_id);
    assert!(!spans.iter().any(
        |s| s.name == "markov.transient.distribution" || s.name == "markov.transient.occupancy"
    ));
    assert_eq!(
        collector.counter_value("markov.uniformization.solves"),
        Some(1)
    );
}
