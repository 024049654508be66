//! Steady-state detection vs the tight uniformization pass on the paper's
//! models.
//!
//! A pass at the default ε with steady-state detection on must agree with a
//! tight pass — ε = 1e-15, no early cut-off — to well under the solver's
//! own ε across the parameter families the figures sweep: fig9/fig12 vary
//! `mu_new` and θ, fig10 slows the overhead rates, fig11 sweeps coverage.

use markov::transient::{self, Method, Options};
use performability::gsu::rmgd;
use performability::GsuParams;
use proptest::prelude::*;
use san::Analyzer;

const AGREE_TOL: f64 = 1e-12;

/// Parameter draws spanning the fig9–fig12 families (baseline θ = 10 000,
/// μ_new = 1e-4, c = 0.95; fig12 uses θ = 5 000, fig9/12 μ_new = 5e-5,
/// fig10/11 overhead rates 2 500 with coverage down to 0.5).
fn family_params() -> impl Strategy<Value = GsuParams> {
    (
        5_000.0..10_000.0f64,
        5e-5..2e-4f64,
        0.5..0.999f64,
        500.0..2_500.0f64,
        500.0..2_500.0f64,
    )
        .prop_map(|(theta, mu_new, coverage, alpha, beta)| {
            GsuParams::paper_baseline()
                .with_theta(theta)
                .unwrap()
                .with_mu_new(mu_new)
                .unwrap()
                .with_coverage(coverage)
                .unwrap()
                .with_overhead_rates(alpha, beta)
                .unwrap()
        })
}

fn tight_opts() -> Options {
    Options {
        method: Method::Uniformization,
        // A vanishing ε widens the Fox–Glynn window, and without detection
        // the pass steps to its right truncation point.
        epsilon: 1e-15,
        steady_state_detection: false,
        ..Options::default()
    }
}

fn detecting_opts() -> Options {
    Options {
        method: Method::Uniformization,
        steady_state_detection: true,
        ..Options::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn detection_matches_tight_uniformization(
        params in family_params(),
        t_frac in 0.05..1.0f64,
    ) {
        let built = rmgd::build(&params).unwrap();
        let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
        let space = analyzer.state_space();
        let ctmc = space.ctmc();
        let pi0 = space.initial_distribution();
        // Keep Λt inside the forced-uniformization step budget.
        let t = t_frac * 200.0;

        let detected = transient::distribution(ctmc, pi0, t, &detecting_opts()).unwrap();
        let tight = transient::distribution(ctmc, pi0, t, &tight_opts()).unwrap();
        for (i, (a, e)) in detected.iter().zip(&tight).enumerate() {
            prop_assert!(
                (a - e).abs() <= AGREE_TOL,
                "distribution state {i}: detected {a} vs tight {e} at t = {t}"
            );
        }

        let detected_occ = transient::occupancy(ctmc, pi0, t, &detecting_opts()).unwrap();
        let tight_occ = transient::occupancy(ctmc, pi0, t, &tight_opts()).unwrap();
        for (i, (a, e)) in detected_occ.iter().zip(&tight_occ).enumerate() {
            // Occupancies are time-integrals (magnitude up to t), so compare
            // relative to the horizon.
            prop_assert!(
                (a - e).abs() <= AGREE_TOL * t.max(1.0),
                "occupancy state {i}: detected {a} vs tight {e} at t = {t}"
            );
        }
    }
}
