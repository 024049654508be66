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
    // Tiny φ (2⁻¹¹): about one expected Poisson step, so the cost-aware
    // Auto selection picks uniformization and exercises Fox–Glynn.
    let near = analysis
        .evaluate(0.000_488_281_25)
        .expect("small φ evaluates");
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
    // One lumping span per solved chain: RMGd by (detected, failure), the
    // two RMNd chains by failure.
    let arg = |span: &telemetry::FinishedSpan, key: &str| {
        span.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let lumps: Vec<_> = spans.iter().filter(|s| s.name == "markov.lump").collect();
    assert_eq!(lumps.len(), 3, "one markov.lump span per lumped chain");
    for lump in &lumps {
        assert!(matches!(arg(lump, "rounds"), Some(telemetry::ArgValue::U64(r)) if r >= 1));
    }
    assert!(lumps
        .iter()
        .any(|s| arg(s, "states") == Some(telemetry::ArgValue::U64(22))
            && arg(s, "blocks") == Some(telemetry::ArgValue::U64(13))));
    assert!(spans.iter().any(|s| s.name == "performability.evaluate"));
    assert!(spans
        .iter()
        .any(|s| s.name == "markov.transient.distribution"));
    assert_eq!(
        collector.counter_value("performability.evaluations"),
        Some(2)
    );

    // At tiny φ the G-OP call resolves to uniformization, so a whole sweep
    // takes every π(φ) and L(φ) from one shared pass: one
    // fused span over every positive φ, with exactly one uniformization
    // solve under it. The exact detection moment reads the same π/L, so no
    // stopped-chain solve runs. The only other transient spans are the two
    // normal-mode survival chains: one dense chain per model over every
    // remaining window θ − φ.
    let collector = Collector::install();
    let points = analysis
        .sweep([0.0, 0.000_244_140_625, 0.000_488_281_25])
        .expect("tiny-φ sweep");
    telemetry::clear_sink();
    assert_eq!(points.len(), 3);
    let spans = collector.spans();
    let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
    let fused = named("markov.transient.distribution_and_occupancy");
    assert_eq!(fused.len(), 1, "one fused transient span");
    assert!(fused[0]
        .args
        .iter()
        .any(|(k, v)| k == "horizons" && *v == telemetry::ArgValue::U64(2)));
    let solves = named("markov.solve.uniformization");
    assert_eq!(solves.len(), 1, "one uniformization solve");
    assert_eq!(solves[0].parent_id, fused[0].span_id);
    assert!(named("markov.transient.occupancy").is_empty());
    let chains = named("markov.transient.distribution");
    assert_eq!(chains.len(), 2, "one survival chain per normal-mode model");
    for chain in chains {
        assert!(chain
            .args
            .iter()
            .any(|(k, v)| k == "horizons" && *v == telemetry::ArgValue::U64(3)));
        assert!(chain
            .args
            .iter()
            .any(|(k, v)| k == "method"
                && *v == telemetry::ArgValue::Str("matrix_exponential".into())));
    }
    // Windows θ − 2⁻¹¹, θ − 2⁻¹², θ (exact in binary): the gaps θ − 2⁻¹¹
    // and 2⁻¹² (twice) take one exponential each per chain.
    assert_eq!(collector.counter_value("markov.expm.solves"), Some(4));
    assert_eq!(
        collector.counter_value("markov.uniformization.solves"),
        Some(1)
    );
    assert_eq!(
        collector.counter_value("performability.evaluations"),
        Some(3)
    );
}
