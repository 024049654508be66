//! Integration tests: the full model-translation pipeline reproduces the
//! qualitative results of the paper's evaluation section (§6).

use guarded_upgrade::prelude::*;

fn optimum_on_grid(analysis: &GsuAnalysis, steps: usize) -> SweepPoint {
    analysis
        .sweep_grid(steps)
        .expect("sweep succeeds")
        .into_iter()
        .max_by(|a, b| a.y.total_cmp(&b.y))
        .expect("non-empty grid")
}

#[test]
fn y_at_zero_is_exactly_one() {
    let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
    let pt = analysis.evaluate(0.0).unwrap();
    assert!((pt.y - 1.0).abs() < 1e-9);
    assert_eq!(pt.y_s2, 0.0);
    assert!((pt.e_w0 - pt.e_w_phi).abs() < 1e-9);
}

#[test]
fn figure9_baseline_optimum_at_7000() {
    let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
    let best = optimum_on_grid(&analysis, 10);
    assert_eq!(best.phi, 7000.0, "paper: optimal φ = 7000 at µnew = 1e-4");
    assert!(
        best.y > 1.4 && best.y < 1.7,
        "Y* = {} (paper ≈ 1.47)",
        best.y
    );
}

#[test]
fn figure9_lower_mu_optimum_at_5000() {
    let params = GsuParams::paper_baseline().with_mu_new(5e-5).unwrap();
    let analysis = GsuAnalysis::new(params).unwrap();
    let best = optimum_on_grid(&analysis, 10);
    assert_eq!(best.phi, 5000.0, "paper: optimal φ = 5000 at µnew = 5e-5");
    assert!(
        best.y > 1.2 && best.y < 1.5,
        "Y* = {} (paper ≈ 1.30)",
        best.y
    );
}

#[test]
fn figure10_higher_overhead_moves_optimum_to_6000() {
    let params = GsuParams::paper_baseline()
        .with_overhead_rates(2500.0, 2500.0)
        .unwrap();
    let analysis = GsuAnalysis::new(params).unwrap();
    // The paper's derived parameters at this setting.
    let (rho1, rho2) = analysis.rho();
    assert!((rho1 - 0.95).abs() < 0.01, "ρ1 = {rho1} (paper 0.95)");
    assert!((rho2 - 0.90).abs() < 0.04, "ρ2 = {rho2} (paper 0.90)");
    let best = optimum_on_grid(&analysis, 10);
    assert_eq!(best.phi, 6000.0, "paper: optimum drops from 7000 to 6000");
}

#[test]
fn figure11_optimum_insensitive_to_coverage_but_benefit_collapses() {
    let base = GsuParams::paper_baseline()
        .with_overhead_rates(2500.0, 2500.0)
        .unwrap();
    let mut last_max = f64::INFINITY;
    for c in [0.95, 0.75, 0.50] {
        let analysis = GsuAnalysis::new(base.with_coverage(c).unwrap()).unwrap();
        let best = optimum_on_grid(&analysis, 10);
        assert_eq!(
            best.phi, 6000.0,
            "paper: optimal φ stays at 6000 for c = {c}"
        );
        assert!(best.y < last_max, "max Y must fall as coverage drops");
        last_max = best.y;
    }
    // Paper: max Y drops from over 1.45 to about 1.15.
    assert!(last_max > 1.1 && last_max < 1.25, "Y*(c=0.5) = {last_max}");
}

#[test]
fn section6_low_coverage_kills_the_benefit() {
    let base = GsuParams::paper_baseline()
        .with_overhead_rates(2500.0, 2500.0)
        .unwrap();
    // c = 0.20: benefit too small to justify guarding (paper: max ≈ 1.06).
    let analysis = GsuAnalysis::new(base.with_coverage(0.20).unwrap()).unwrap();
    let best = optimum_on_grid(&analysis, 20);
    assert!(best.y < 1.10, "max Y = {} should be marginal", best.y);
    assert!(best.y > 1.0);

    // c = 0.10: Y < 1 for large φ and decreasing past its (tiny) maximum.
    let analysis = GsuAnalysis::new(base.with_coverage(0.10).unwrap()).unwrap();
    let pts = analysis.sweep_grid(20).unwrap();
    assert!(pts.iter().filter(|p| p.phi >= 4000.0).all(|p| p.y < 1.0));
    let best = pts.iter().map(|p| p.y).fold(0.0f64, f64::max);
    assert!(best < 1.01, "max Y = {best}");
    // Decreasing tail.
    let tail: Vec<_> = pts.iter().filter(|p| p.phi >= 5000.0).collect();
    for w in tail.windows(2) {
        assert!(w[1].y <= w[0].y + 1e-9);
    }
}

#[test]
fn figure12_shorter_window_favours_earlier_cutoff() {
    let base = GsuParams::paper_baseline().with_theta(5000.0).unwrap();
    let a1 = GsuAnalysis::new(base).unwrap();
    let best1 = optimum_on_grid(&a1, 10);
    assert_eq!(best1.phi, 2500.0, "paper: optimal φ = 2500 at θ = 5000");

    let a2 = GsuAnalysis::new(base.with_mu_new(5e-5).unwrap()).unwrap();
    let best2 = optimum_on_grid(&a2, 10);
    assert!(
        best2.phi <= 2500.0,
        "paper: optimum ≤ 2500 (they report 2000), got {}",
        best2.phi
    );

    // Relative optimum moves earlier than for θ = 10000 (7000/10000 = 0.7).
    assert!(best1.phi / 5000.0 < 0.7);
}

#[test]
fn optimal_phi_search_refines_grid_optimum() {
    let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
    let coarse = optimum_on_grid(&analysis, 10);
    let refined = analysis.optimal_phi(10, 16).unwrap();
    assert!(refined.y >= coarse.y - 1e-12);
    assert!((refined.phi - coarse.phi).abs() <= 1000.0);
}

#[test]
fn gamma_policy_changes_the_tradeoff() {
    // With no S2 discount, longer guards look strictly better (the downturn
    // in Y comes from γ); the optimum should move to larger φ.
    let params = GsuParams::paper_baseline();
    let discounted = GsuAnalysis::new(params).unwrap();
    let undiscounted = GsuAnalysis::new(params)
        .unwrap()
        .with_gamma_policy(GammaPolicy::Constant(1.0));
    let b_disc = optimum_on_grid(&discounted, 10);
    let b_undisc = optimum_on_grid(&undiscounted, 10);
    assert!(b_undisc.phi >= b_disc.phi);
    assert!(b_undisc.y > b_disc.y);
}

#[test]
fn fixed_overhead_matches_computed_overhead_closely() {
    // Running with the paper's rounded ρ values instead of the RMGp solution
    // must not change the story.
    use performability::gsu::{rmgd, rmnd};
    let params = GsuParams::paper_baseline();
    let computed = GsuAnalysis::new(params).unwrap();
    let gd = rmgd::build(&params).unwrap();
    let new = rmnd::build(&params, params.mu_new).unwrap();
    let old = rmnd::build(&params, params.mu_old).unwrap();
    let fixed = GsuAnalysis::from_models(
        params,
        (0.98, 0.95),
        (&gd.model, gd.places.gop),
        (&new.model, new.places.failure),
        (&old.model, old.places.failure),
    )
    .unwrap();
    for phi in [2000.0, 5000.0, 8000.0] {
        let a = computed.evaluate(phi).unwrap();
        let b = fixed.evaluate(phi).unwrap();
        assert!((a.y - b.y).abs() < 0.02, "φ={phi}: {} vs {}", a.y, b.y);
    }
}

#[test]
fn constituent_measures_are_internally_consistent() {
    let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
    for phi in [0.0, 1000.0, 4000.0, 7000.0, 10_000.0] {
        let m = analysis.measures(phi).unwrap();
        m.validate(phi).unwrap();
        // P(S1 | φ) · survival of remainder never exceeds the unguarded
        // survival by much (guarding cannot create reliability from
        // nothing, it only converts failures into safe downgrades).
        let p_s1 = m.p_a1_gop * m.p_a1_norm_rem;
        assert!(p_s1 <= 1.0);
        // Detection + survival + (undetected or detected-then-failed) ≈ 1
        // at the φ boundary of the guarded model.
        assert!(m.p_a1_gop + m.i_h + m.i_hf <= 1.0 + 1e-9);
    }
}
