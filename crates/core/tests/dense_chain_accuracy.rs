//! Accuracy of the dense chain on the paper's stiff G-OP model.
//!
//! A sweep steps `π(φ)` and `L(φ)` of `RMGd` along its φ grid, one matrix
//! exponential per grid gap, instead of solving every φ from `t = 0`. This
//! test holds the chained answers of the Figure 9 grid against a
//! tight-tolerance uniformization reference (ε = 1e-15, no steady-state
//! detection), which needs ~6·10⁷ sparse steps at φ = θ: about 7 s in a
//! release build, so it is `#[ignore]`d and run by `scripts/check.sh`:
//!
//! ```text
//! cargo test --release -p performability --test dense_chain_accuracy -- --ignored
//! ```

use markov::transient::{Method, Options};
use performability::gsu::rmgd;
use performability::GsuParams;
use san::Analyzer;

/// Entries carrying less mass than this are not compared.
const MASS_FLOOR: f64 = 1e-8;

/// The largest `|got − want| / want` over the entries of `want` above the
/// mass floor.
fn worst_rel_err(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .filter(|(_, w)| w.abs() > MASS_FLOOR)
        .map(|(g, w)| (g - w).abs() / w.abs())
        .fold(0.0, f64::max)
}

#[test]
#[ignore = "tight uniformization reference takes ~7 s in release"]
fn chained_rmgd_grid_matches_a_tight_uniformization_reference() {
    let params = GsuParams::paper_baseline();
    let built = rmgd::build(&params).unwrap();
    let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
    let grid: Vec<f64> = (0..=10).map(|i| params.theta * i as f64 / 10.0).collect();
    let chained = analyzer.distribution_and_occupancy_at_times(&grid).unwrap();

    let slots = [5, 10];
    let reference = analyzer
        .with_transient_options(Options {
            method: Method::Uniformization,
            epsilon: 1e-15,
            max_uniformization_steps: 200_000_000,
            steady_state_detection: false,
            ..Default::default()
        })
        .distribution_and_occupancy_at_times(&slots.map(|slot| grid[slot]))
        .unwrap();

    for (slot, (want_pi, want_l)) in slots.into_iter().zip(reference) {
        let phi = grid[slot];
        let (pi, l) = &chained[slot];
        let pi_err = worst_rel_err(pi, &want_pi);
        let l_err = worst_rel_err(l, &want_l);
        assert!(pi_err <= 1e-9, "π at φ = {phi}: rel err {pi_err:.2e}");
        assert!(l_err <= 1e-9, "L at φ = {phi}: rel err {l_err:.2e}");
    }
}
