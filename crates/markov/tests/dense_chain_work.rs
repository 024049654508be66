//! The work a dense chain costs: a uniform grid of horizons on the matrix
//! exponential takes one exponential for the whole grid, whatever its
//! length — `e^{QΔ}` for `π` alone, and for `(π, L)` the one structured
//! exponential whose `e^{QΔ}` steps `π` and whose integral block steps `L`.
//!
//! Kept in a test binary of its own: the work counters are process-global,
//! so no other solve may run beside the one being counted.

use markov::transient::{self, Method, Options};
use markov::Ctmc;
use proptest::prelude::*;

/// A random birth–death chain over `n` states with rates in [0.5, 2.5).
fn arb_birth_death(n: usize) -> impl Strategy<Value = Ctmc> {
    proptest::collection::vec(0.5..2.5f64, 2 * (n - 1)).prop_map(move |rates| {
        let up = (0..n - 1).map(|i| (i, i + 1, rates[i]));
        let down = (0..n - 1).map(|i| (i + 1, i, rates[n - 1 + i]));
        Ctmc::from_transitions(n, up.chain(down)).expect("valid birth-death chain")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn uniform_dense_grid_costs_one_exponential(
        chain in arb_birth_death(6),
        points in 1usize..12,
        gap in 1u32..64,
    ) {
        let opts = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };
        // Integer horizons: every gap of the grid is exactly `gap`.
        let times: Vec<f64> = (0..=points).map(|k| f64::from(gap) * k as f64).collect();
        let pi0 = chain.point_distribution(0);

        let before = telemetry::work::snapshot();
        let solved = transient::distribution_and_occupancy_at_times(&chain, &pi0, &times, &opts)
            .unwrap();
        let work = telemetry::work::snapshot().delta_since(&before);
        prop_assert_eq!(solved.len(), times.len());
        prop_assert!(work.expm_solves == 1, "π and L over {points} horizons: {work:?}");

        let before = telemetry::work::snapshot();
        transient::distribution_at_times(&chain, &pi0, &times, &opts).unwrap();
        let work = telemetry::work::snapshot().delta_since(&before);
        prop_assert!(work.expm_solves == 1, "π over {points} horizons: {work:?}");
    }
}
