//! Accuracy of the dense chain on the paper's stiff G-OP model, lumped.
//!
//! A sweep solves `RMGd` as its quotient by `(detected, failure)` — 13
//! blocks for 22 states — and steps the blocks' `π(φ)` and `L(φ)` along
//! its φ grid, one matrix exponential per grid gap, instead of solving
//! every φ from `t = 0` on the full chain. This test holds the chained
//! block vectors and the Table 1 measures of the Figure 9 grid against a
//! tight-tolerance uniformization reference on the **full** chain
//! (ε = 1e-15, no steady-state detection), which needs ~6·10⁷ sparse steps
//! at φ = θ: several seconds in a release build, so it is `#[ignore]`d and
//! run by `scripts/check.sh`:
//!
//! ```text
//! cargo test --release -p performability --test dense_chain_accuracy -- --ignored
//! ```
//!
//! A dense `(π, L)` horizon steps `π` by the `e^{QΔ}` of the same
//! structured exponential that gives `L`'s integral block; a quick test
//! here pins that on the lumped `RMGd` this is the `n × n` exponential bit
//! for bit.

use markov::expm;
use markov::transient::{self, Method, Options};
use performability::gsu::{rmgd, GopChain, GopPlaces};
use performability::GsuParams;
use san::{Analyzer, StateSpace};

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

/// `[p_a1, i_h, i_hf, i_tau_h, i_tau_h_exact]` from full-chain `π(φ)` and
/// `L(φ)`.
fn full_chain_measures(
    space: &StateSpace,
    places: GopPlaces,
    phi: f64,
    pi: &[f64],
    l: &[f64],
) -> [f64; 5] {
    let sum = |v: &[f64], states: Vec<usize>| -> f64 { states.iter().map(|&s| v[s]).sum() };
    let i_h = sum(pi, space.states_where(|mk| places.in_a3(mk)));
    let i_hf = sum(pi, space.states_where(|mk| places.detected_then_failed(mk)));
    let detected_time = sum(l, space.states_where(|mk| !places.in_a2(mk)));
    [
        sum(pi, space.states_where(|mk| places.in_a1(mk))),
        i_h,
        i_hf,
        sum(l, space.states_where(|mk| places.in_a1(mk))),
        phi * (i_h + i_hf) - detected_time,
    ]
}

/// On the lumped `RMGd` at φ = 5000 and θ, `‖Qφ‖∞ ~ 10⁷`: the `+1` the
/// identity adds to the block's norm never changes its number of
/// squarings, so the pair's `e^{Qφ}` is `expm(Qφ)` bit for bit.
#[test]
fn pair_exponential_is_the_n_by_n_exponential_on_lumped_rmgd() {
    let params = GsuParams::paper_baseline();
    let built = rmgd::build(&params).unwrap();
    let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
    let chain = GopChain::new(&analyzer, built.places.gop).unwrap();
    let q = chain.lumped().ctmc().generator().to_dense();
    assert_eq!(q.rows(), 13);
    let bits = |m: &sparsela::DenseMatrix| -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    for phi in [5000.0, params.theta] {
        let (e, _) = expm::expm_with_integral_scaled(&q, phi).unwrap();
        let mut q_phi = q.clone();
        q_phi.scale(phi);
        assert_eq!(bits(&e), bits(&expm::expm(&q_phi).unwrap()), "φ = {phi}");
    }
}

#[test]
#[ignore = "tight uniformization reference takes several seconds in release"]
fn lumped_rmgd_grid_matches_a_tight_full_chain_reference() {
    let params = GsuParams::paper_baseline();
    let built = rmgd::build(&params).unwrap();
    let places = built.places.gop;
    let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
    let chain = GopChain::new(&analyzer, places).unwrap();
    let lumped = chain.lumped();
    assert_eq!(lumped.ctmc().n_states(), 13);
    let grid: Vec<f64> = (0..=10).map(|i| params.theta * i as f64 / 10.0).collect();
    let chained = lumped.distribution_and_occupancy_at_times(&grid).unwrap();
    let measures = chain.measures(&grid).unwrap();

    let slots = [5, 10];
    let space = analyzer.state_space();
    let tight = Options {
        method: Method::Uniformization,
        epsilon: 1e-15,
        max_uniformization_steps: 200_000_000,
        steady_state_detection: false,
        ..Default::default()
    };
    let reference = transient::distribution_and_occupancy_at_times(
        space.ctmc(),
        space.initial_distribution(),
        &slots.map(|slot| grid[slot]),
        &tight,
    )
    .unwrap();

    for (slot, (want_pi, want_l)) in slots.into_iter().zip(reference) {
        let phi = grid[slot];
        // The block vectors against the reference's block sums.
        let block_sums = |v: &[f64]| {
            let mut sums = vec![0.0; lumped.ctmc().n_states()];
            for (&b, &x) in lumped.block_of().iter().zip(v) {
                sums[b] += x;
            }
            sums
        };
        let (pi, l) = &chained[slot];
        let pi_err = worst_rel_err(pi, &block_sums(&want_pi));
        let l_err = worst_rel_err(l, &block_sums(&want_l));
        assert!(pi_err <= 1e-9, "π at φ = {phi}: rel err {pi_err:.2e}");
        assert!(l_err <= 1e-9, "L at φ = {phi}: rel err {l_err:.2e}");
        // The Table 1 measures of the sweep.
        let m = measures[slot];
        let got = [m.p_a1, m.i_h, m.i_hf, m.i_tau_h, m.i_tau_h_exact];
        let want = full_chain_measures(space, places, phi, &want_pi, &want_l);
        for (name, (got, want)) in ["p_a1", "i_h", "i_hf", "i_tau_h", "i_tau_h_exact"]
            .into_iter()
            .zip(got.into_iter().zip(want))
        {
            let err = (got - want).abs() / want.abs();
            assert!(err <= 1e-9, "{name} at φ = {phi}: rel err {err:.2e}");
        }
    }
}
