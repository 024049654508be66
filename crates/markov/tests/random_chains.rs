//! Property tests on randomly generated chains: the different solution
//! engines must agree with each other and with structural invariants.

use markov::expm;
use markov::lump::Lumping;
use markov::steady::{stationarity_residual, steady_state};
use markov::transient::{self, Method, Options};
use markov::Ctmc;
use markov::MarkovError;
use proptest::prelude::*;
use sparsela::DenseMatrix;

/// A random dense-ish CTMC over `n` states with rates in (0, scale].
fn arb_ctmc(n: usize, scale: f64) -> impl Strategy<Value = Ctmc> {
    proptest::collection::vec(0.0..1.0f64, n * n).prop_map(move |raw| {
        let mut transitions = Vec::new();
        for (k, v) in raw.iter().enumerate() {
            let (i, j) = (k / n, k % n);
            if i != j && *v > 0.3 {
                transitions.push((i, j, *v * scale));
            }
        }
        // Guarantee irreducibility with a base cycle.
        for i in 0..n {
            transitions.push((i, (i + 1) % n, 0.05 * scale));
        }
        Ctmc::from_transitions(n, transitions).expect("valid random chain")
    })
}

/// A random unichain: a transient prefix of 1–4 states feeding one
/// irreducible class of 2–6 states, under a random relabeling of the
/// states. Returns the chain and which of its states are transient.
///
/// Prefix state `i` only jumps to later states (a later prefix state or the
/// class), so every prefix state is transient and the class is the one
/// closed class; a base cycle keeps the class irreducible. Rates span four
/// decades so the class is stiff.
fn arb_unichain() -> impl Strategy<Value = (Ctmc, Vec<bool>)> {
    const MAX_N: usize = 10;
    (
        1usize..5,
        2usize..7,
        proptest::collection::vec(0.0..1.0f64, MAX_N * MAX_N),
        proptest::collection::vec(-2.0..2.0f64, MAX_N * MAX_N),
        proptest::collection::vec(0.0..1.0f64, MAX_N),
    )
        .prop_map(|(prefix, class, edges, log_rates, keys)| {
            let n = prefix + class;
            // label[i] is the state number of the i-th state in
            // prefix-then-class order: ascending order of random keys.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
            let mut label = vec![0; n];
            for (state, &i) in order.iter().enumerate() {
                label[i] = state;
            }
            let rate = |i: usize, j: usize| 10f64.powf(log_rates[i * MAX_N + j]);
            let mut transitions = Vec::new();
            for i in 0..n {
                // Prefix states move forward; class states stay in the class.
                let targets = if i < prefix { i + 1..n } else { prefix..n };
                for j in targets {
                    let base = (i < prefix && j == i + 1)
                        || (i >= prefix && j == prefix + (i - prefix + 1) % class);
                    if i != j && (base || edges[i * MAX_N + j] > 0.6) {
                        transitions.push((label[i], label[j], rate(i, j)));
                    }
                }
            }
            let chain = Ctmc::from_transitions(n, transitions).expect("valid random unichain");
            let mut transient = vec![false; n];
            for &state in &label[..prefix] {
                transient[state] = true;
            }
            (chain, transient)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn transient_engines_agree(chain in arb_ctmc(5, 3.0), t in 0.01..20.0f64) {
        let pi0 = chain.point_distribution(0);
        let uni = Options {
            method: Method::Uniformization,
            max_uniformization_steps: 50_000_000,
            steady_state_detection: false,
            ..Default::default()
        };
        let exp = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };

        let a = transient::distribution(&chain, &pi0, t, &uni).unwrap();
        let b = transient::distribution(&chain, &pi0, t, &exp).unwrap();
        prop_assert!(sparsela::vector::diff_norm_inf(&a, &b) < 1e-8,
            "uniformization vs expm at t={t}");
        prop_assert!(sparsela::vector::is_stochastic(&a, 1e-9));
        prop_assert!(sparsela::vector::is_stochastic(&b, 1e-7));
    }

    #[test]
    fn occupancy_engines_agree_and_sum_to_t(
        chain in arb_ctmc(4, 2.0),
        t in 0.1..10.0f64,
    ) {
        let pi0 = chain.point_distribution(0);
        let uni = Options {
            method: Method::Uniformization,
            max_uniformization_steps: 50_000_000,
            steady_state_detection: false,
            ..Default::default()
        };
        let exp = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };

        let a = transient::occupancy(&chain, &pi0, t, &uni).unwrap();
        let b = transient::occupancy(&chain, &pi0, t, &exp).unwrap();
        prop_assert!(sparsela::vector::diff_norm_inf(&a, &b) < 1e-7);
        prop_assert!((a.iter().sum::<f64>() - t).abs() < 1e-7);
    }

    #[test]
    fn steady_methods_agree(chain in arb_ctmc(6, 1.0)) {
        // Direct LU is the one steady-state method; it must agree with the
        // balance equations. Stationarity: π·Q ≈ 0.
        let direct = steady_state(&chain).unwrap();
        prop_assert!(sparsela::vector::is_stochastic(&direct, 1e-12));
        prop_assert!(stationarity_residual(&chain, &direct) < 1e-10);
    }

    #[test]
    fn unichain_reduction_zeroes_the_transient_prefix(
        unichain in arb_unichain(),
    ) {
        let (chain, transient) = unichain;
        let pi = steady_state(&chain).unwrap();
        for (s, &is_transient) in transient.iter().enumerate() {
            if is_transient {
                prop_assert!(pi[s] == 0.0, "transient state {s} carries {}", pi[s]);
            }
        }
        prop_assert!(sparsela::vector::is_stochastic(&pi, 1e-12));
        let max_exit = (0..chain.n_states())
            .map(|s| chain.exit_rate(s))
            .fold(0.0, f64::max);
        prop_assert!(stationarity_residual(&chain, &pi) <= 1e-10 * max_exit);
    }

    #[test]
    fn two_closed_classes_are_reducible(
        unichain in arb_unichain(),
        feed in 0.1..5.0f64,
    ) {
        let (chain, transient) = unichain;
        // A second closed class (an absorbing state) fed from a transient
        // state: two terminal components.
        let n = chain.n_states();
        let from = transient.iter().position(|&t| t).expect("a transient prefix");
        let mut transitions: Vec<(usize, usize, f64)> = chain.transitions().collect();
        transitions.push((from, n, feed));
        let two = Ctmc::from_transitions(n + 1, transitions).unwrap();
        prop_assert!(
            matches!(steady_state(&two), Err(MarkovError::Reducible { components: 2 })),
            "expected a reducible chain"
        );
    }

    #[test]
    fn long_transient_approaches_steady_state(chain in arb_ctmc(5, 2.0)) {
        let pi0 = chain.point_distribution(0);
        let pi_t = transient::distribution(&chain, &pi0, 1e4, &Options::default()).unwrap();
        let pi_inf = steady_state(&chain).unwrap();
        prop_assert!(sparsela::vector::diff_norm_inf(&pi_t, &pi_inf) < 1e-6);
    }

    #[test]
    fn hitting_time_mean_consistent_with_cdf(
        chain in arb_ctmc(4, 1.5),
        target in 1usize..4,
    ) {
        // E[T·1{T≤H}] for growing H converges to E[T] (non-defective here
        // since the chain is irreducible). E[T] from state 0 solves
        // (−Q_TT)·m = 1 over the non-target states T.
        let pi0 = chain.point_distribution(0);
        let others: Vec<usize> = (0..chain.n_states()).filter(|&s| s != target).collect();
        let mut neg_qtt = DenseMatrix::zeros(others.len(), others.len());
        for (i, &r) in others.iter().enumerate() {
            for (j, &c) in others.iter().enumerate() {
                neg_qtt[(i, j)] = -chain.generator().get(r, c);
            }
        }
        let m = neg_qtt.lu().unwrap().solve(&vec![1.0; others.len()]).unwrap();
        let mean = m[others.iter().position(|&s| s == 0).unwrap()];
        let horizon = mean * 50.0 + 10.0;
        let truncated = markov::first_passage::truncated_mean_hitting_time(
            &chain, &pi0, &[target], horizon, &Options::default(),
        ).unwrap();
        prop_assert!((truncated - mean).abs() < 0.02 * mean.max(0.1),
            "truncated {truncated} vs mean {mean}");
    }

    #[test]
    fn fused_transient_solve_is_bitwise_the_two_calls(
        chain in arb_ctmc(5, 2.0),
        t in 0.0..30.0f64,
        start in 0usize..5,
        method in 0usize..3,
        ssd in 0usize..2,
    ) {
        let pi0 = chain.point_distribution(start);
        let opts = Options {
            method: [Method::Auto, Method::Uniformization, Method::MatrixExponential][method],
            steady_state_detection: ssd == 1,
            ..Default::default()
        };
        let (pi, l) = transient::distribution_and_occupancy(&chain, &pi0, t, &opts).unwrap();
        // The two calls forced to the pair's one engine.
        let forced = Options {
            method: transient::pair_method(&chain, t, &opts).unwrap(),
            ..opts.clone()
        };
        let want_pi = transient::distribution(&chain, &pi0, t, &forced).unwrap();
        let want_l = transient::occupancy(&chain, &pi0, t, &forced).unwrap();
        prop_assert!(bits(&pi) == bits(&want_pi), "π at t = {t}");
        prop_assert!(bits(&l) == bits(&want_l), "L at t = {t}");
    }

    #[test]
    fn multi_horizon_pass_matches_one_horizon_solves(
        chain in arb_ctmc(5, 2.0),
        times in proptest::collection::vec(0.0..30.0f64, 1..6),
        start in 0usize..5,
        ssd in 0usize..2,
    ) {
        // Ascending, with t = 0 and a horizon long enough that Auto resolves
        // both π and L to the matrix exponential.
        let mut times = times;
        times.push(0.0);
        times.push(200.0);
        times.sort_by(f64::total_cmp);
        let pi0 = chain.point_distribution(start);
        let opts = Options {
            steady_state_detection: ssd == 1,
            ..Default::default()
        };
        let all = transient::distribution_and_occupancy_at_times(&chain, &pi0, &times, &opts)
            .unwrap();
        prop_assert_eq!(all.len(), times.len());
        for (&t, (pi, l)) in times.iter().zip(&all) {
            let (want_pi, want_l) =
                transient::distribution_and_occupancy(&chain, &pi0, t, &opts).unwrap();
            prop_assert!(relative_diff(pi, &want_pi) <= 1e-12,
                "π at t = {t}: {}", relative_diff(pi, &want_pi));
            prop_assert!(relative_diff(l, &want_l) <= 1e-12,
                "L at t = {t}: {}", relative_diff(l, &want_l));
            prop_assert!((l.iter().sum::<f64>() - t).abs() <= 1e-9 * t.max(1.0),
                "Σ L = {} at t = {t}", l.iter().sum::<f64>());
        }
    }

    #[test]
    fn multi_horizon_uniformization_pass_is_bitwise_one_horizon_solves(
        unichain in arb_unichain(),
        times in proptest::collection::vec(0.0..30.0f64, 1..6),
        start in 0usize..10,
        ssd in 0usize..2,
    ) {
        // Unsorted, with t = 0 and a repeated horizon, on stiff chains whose
        // early powers carry states of tiny mass. Every step is the same
        // kernel whatever the windows, so each horizon of the pass is its
        // one-horizon solve bit for bit, with detection on or off.
        let chain = unichain.0;
        let mut times = times;
        times.push(0.0);
        times.push(times[0]);
        let pi0 = chain.point_distribution(start % chain.n_states());
        let opts = Options {
            method: Method::Uniformization,
            steady_state_detection: ssd == 1,
            ..Default::default()
        };
        let all = transient::distribution_and_occupancy_at_times(&chain, &pi0, &times, &opts)
            .unwrap();
        let pis = transient::distribution_at_times(&chain, &pi0, &times, &opts).unwrap();
        prop_assert_eq!(all.len(), times.len());
        for ((&t, (pi, l)), pi_only) in times.iter().zip(&all).zip(&pis) {
            let (want_pi, want_l) =
                transient::distribution_and_occupancy(&chain, &pi0, t, &opts).unwrap();
            let want_pi_only = transient::distribution(&chain, &pi0, t, &opts).unwrap();
            prop_assert!(bits(pi) == bits(&want_pi), "π at t = {t}");
            prop_assert!(bits(l) == bits(&want_l), "L at t = {t}");
            prop_assert!(bits(pi_only) == bits(&want_pi_only), "π-only at t = {t}");
        }
    }

    #[test]
    fn dense_chain_matches_one_horizon_solves(
        chain in arb_ctmc(5, 2.0),
        steps in proptest::collection::vec(0usize..3, 3..8),
        start in 0usize..5,
    ) {
        // Horizons on a power-of-two unit u ≥ 1/(max exit rate), so every
        // gap is exact and a repeated step is a repeated gap. A 100-step
        // budget puts Λt ≥ 40 (all dense horizons) on the matrix
        // exponential and leaves Λt < 1 (t = u/8) on uniformization.
        let u = (1.0 / chain.max_exit_rate()).log2().ceil().exp2();
        let opts = Options {
            max_uniformization_steps: 100,
            ..Default::default()
        };
        let mut times = vec![0.0, u / 8.0];
        let mut units = 40;
        for step in steps {
            units += 8 * step;
            times.push(u * units as f64);
        }
        let pi0 = chain.point_distribution(start);
        let all = transient::distribution_and_occupancy_at_times(&chain, &pi0, &times, &opts)
            .unwrap();
        // The π-only chain, fed the horizons in descending order.
        let reversed: Vec<f64> = times.iter().rev().copied().collect();
        let pis = transient::distribution_at_times(&chain, &pi0, &reversed, &opts).unwrap();
        prop_assert_eq!(all.len(), times.len());
        for ((&t, (pi, l)), pi_only) in times.iter().zip(&all).zip(pis.iter().rev()) {
            let want_pi = transient::distribution(&chain, &pi0, t, &opts).unwrap();
            let want_l = transient::occupancy(&chain, &pi0, t, &opts).unwrap();
            prop_assert!(relative_diff(pi, &want_pi) <= 1e-9,
                "π at t = {t}: {}", relative_diff(pi, &want_pi));
            prop_assert!(relative_diff(pi_only, &want_pi) <= 1e-9,
                "π-only at t = {t}: {}", relative_diff(pi_only, &want_pi));
            prop_assert!(relative_diff(l, &want_l) <= 1e-9,
                "L at t = {t}: {}", relative_diff(l, &want_l));
            prop_assert!((l.iter().sum::<f64>() - t).abs() <= 1e-9 * t.max(1.0),
                "Σ L = {} at t = {t}", l.iter().sum::<f64>());
            // One horizon alone is the separate solves, bit for bit.
            let (one_pi, one_l) =
                transient::distribution_and_occupancy(&chain, &pi0, t, &opts).unwrap();
            let one = transient::distribution_at_times(&chain, &pi0, &[t], &opts).unwrap();
            prop_assert!(bits(&one_pi) == bits(&want_pi), "one-horizon π at t = {t}");
            prop_assert!(bits(&one_l) == bits(&want_l), "one-horizon L at t = {t}");
            prop_assert!(bits(&one[0]) == bits(&want_pi), "one-horizon π-only at t = {t}");
        }
    }

    #[test]
    fn truncated_mean_hitting_time_is_bitwise_the_two_call_reference(
        chain in arb_ctmc(5, 2.0),
        target in 1usize..5,
        horizon in 0.0..30.0f64,
        ssd in 0usize..2,
    ) {
        let pi0 = chain.point_distribution(0);
        let opts = Options {
            steady_state_detection: ssd == 1,
            ..Default::default()
        };
        let got = markov::first_passage::truncated_mean_hitting_time(
            &chain, &pi0, &[target], horizon, &opts,
        ).unwrap();
        // h·P[T ≤ h] − ∫₀ʰ P[T ≤ t] dt on the chain stopped at the target,
        // from separate distribution and occupancy solves forced to the
        // pair's one engine.
        let stopped = Ctmc::from_transitions(
            chain.n_states(),
            chain.transitions().filter(|&(from, _, _)| from != target),
        ).unwrap();
        let forced = Options {
            method: transient::pair_method(&stopped, horizon, &opts).unwrap(),
            ..opts.clone()
        };
        let cdf = transient::distribution(&stopped, &pi0, horizon, &forced).unwrap()[target];
        let integral = transient::occupancy(&stopped, &pi0, horizon, &forced).unwrap()[target];
        prop_assert_eq!(got.to_bits(), (horizon * cdf - integral).to_bits());
    }
}

/// A random chain with planted exchangeable components, and an observation
/// of it: macro-state `i` is replicated `copies[i]` times, and the rate from
/// a copy of `i` into macro-state `j ≠ i` is split at random among the
/// copies of `j`, so every copy of `i` has the same summed rate into `j` up
/// to rounding. Copies of one macro-state move among themselves at random
/// rates. Each macro-state carries one of two observation labels.
fn arb_planted() -> impl Strategy<Value = (Ctmc, Vec<u64>, usize)> {
    (
        proptest::collection::vec(1usize..4, 2..6),
        proptest::collection::vec(0.0..1.0f64, 256),
        proptest::collection::vec(0u64..2, 6),
    )
        .prop_map(|(copies, raw, labels)| {
            let mut raw = raw.into_iter().cycle();
            let mut next = move || raw.next().unwrap_or(0.5);
            let m = copies.len();
            let first: Vec<usize> = copies
                .iter()
                .scan(0, |at, &c| {
                    *at += c;
                    Some(*at - c)
                })
                .collect();
            let mut transitions = Vec::new();
            for i in 0..m {
                for j in (0..m).filter(|&j| j != i) {
                    // A base cycle keeps every macro-state reachable.
                    let cycle = if j == (i + 1) % m { 0.1 } else { 0.0 };
                    let u = next();
                    let rate = cycle + if u > 0.4 { 2.0 * u } else { 0.0 };
                    if rate == 0.0 {
                        continue;
                    }
                    for a in 0..copies[i] {
                        let weights: Vec<f64> = (0..copies[j]).map(|_| 0.1 + next()).collect();
                        let total: f64 = weights.iter().sum();
                        for (b, w) in weights.iter().enumerate() {
                            transitions.push((first[i] + a, first[j] + b, rate * w / total));
                        }
                    }
                }
                for a in 0..copies[i] {
                    for b in (0..copies[i]).filter(|&b| b != a) {
                        transitions.push((first[i] + a, first[i] + b, 1.5 * next()));
                    }
                }
            }
            let n: usize = copies.iter().sum();
            let observation = (0..m)
                .flat_map(|i| std::iter::repeat_n(labels[i], copies[i]))
                .collect();
            let chain = Ctmc::from_transitions(n, transitions).expect("valid planted chain");
            (chain, observation, m)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lumped_chain_preserves_class_sums_under_each_engine(
        planted in arb_planted(),
        t in 0.01..5.0f64,
        start in 0usize..16,
    ) {
        let (chain, observation, _) = planted;
        let lumping = Lumping::coarsest(&chain, &observation).unwrap();
        let pi0 = chain.point_distribution(start % chain.n_states());
        let q_pi0 = lumping.aggregate(&pi0);
        for method in [Method::Uniformization, Method::MatrixExponential] {
            let opts = Options {
                method,
                epsilon: 1e-15,
                steady_state_detection: false,
                ..Default::default()
            };
            let (pi, l) = transient::distribution_and_occupancy(&chain, &pi0, t, &opts).unwrap();
            let (q_pi, q_l) =
                transient::distribution_and_occupancy(lumping.quotient(), &q_pi0, t, &opts)
                    .unwrap();
            let (want_pi, want_l) = (lumping.aggregate(&pi), lumping.aggregate(&l));
            prop_assert!(relative_diff(&q_pi, &want_pi) <= 1e-12,
                "π at t = {t}, {method:?}: {}", relative_diff(&q_pi, &want_pi));
            prop_assert!(relative_diff(&q_l, &want_l) <= 1e-12,
                "L at t = {t}, {method:?}: {}", relative_diff(&q_l, &want_l));
        }
    }

    #[test]
    fn lumping_refines_the_observation_and_is_at_least_as_coarse_as_planted(
        planted in arb_planted(),
    ) {
        let (chain, observation, macro_states) = planted;
        let lumping = Lumping::coarsest(&chain, &observation).unwrap();
        let block_of = lumping.block_of();
        for s in 0..chain.n_states() {
            for t in 0..chain.n_states() {
                if block_of[s] == block_of[t] {
                    prop_assert_eq!(observation[s], observation[t]);
                }
            }
        }
        // The planted partition is lumpable and refines the observation;
        // the coarsest one is at least as coarse.
        prop_assert!(lumping.n_blocks() <= macro_states,
            "{} blocks for {macro_states} planted components", lumping.n_blocks());
        prop_assert!(lumping.rounds() >= 1);
    }

    #[test]
    fn lumping_a_quotient_returns_it_unchanged(planted in arb_planted()) {
        let (chain, observation, _) = planted;
        let lumping = Lumping::coarsest(&chain, &observation).unwrap();
        let mut block_observation = vec![0; lumping.n_blocks()];
        for (&b, &label) in lumping.block_of().iter().zip(&observation) {
            block_observation[b] = label;
        }
        let again = Lumping::coarsest(lumping.quotient(), &block_observation).unwrap();
        let identity: Vec<usize> = (0..lumping.n_blocks()).collect();
        prop_assert_eq!(again.block_of(), &identity[..]);
        prop_assert!(again.quotient() == lumping.quotient());
    }

    #[test]
    fn relabelling_states_keeps_the_block_sizes(
        planted in arb_planted(),
        keys in proptest::collection::vec(0.0..1.0f64, 20),
    ) {
        let (chain, observation, _) = planted;
        // A permutation of the states: ascending order of random keys.
        let n = chain.n_states();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
        let mut label_of = vec![0; n];
        for (new, &old) in order.iter().enumerate() {
            label_of[old] = new;
        }
        let relabelled = Ctmc::from_transitions(
            n,
            chain.transitions().map(|(from, to, rate)| (label_of[from], label_of[to], rate)),
        ).unwrap();
        let relabelled_observation: Vec<u64> = order.iter().map(|&old| observation[old]).collect();
        let sizes = |lumping: &Lumping| {
            let mut sizes = vec![0usize; lumping.n_blocks()];
            for &b in lumping.block_of() {
                sizes[b] += 1;
            }
            sizes.sort_unstable();
            sizes
        };
        let original = Lumping::coarsest(&chain, &observation).unwrap();
        let permuted = Lumping::coarsest(&relabelled, &relabelled_observation).unwrap();
        prop_assert_eq!(sizes(&original), sizes(&permuted));
        // The same partition, not just the same sizes: two states share a
        // block exactly when their relabelled copies do.
        let (before, after) = (original.block_of(), permuted.block_of());
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    before[a] == before[b],
                    after[label_of[a]] == after[label_of[b]]
                );
            }
        }
    }
}

/// A random block-triangular chain in topological order: 2–5 strongly
/// connected components of 1–4 states, numbered component by component.
/// Each component is a cycle plus random extra rates; each feeds the next
/// from its last state to the next one's first, and at random any later
/// state. Rates span two decades.
fn arb_block_triangular() -> impl Strategy<Value = Ctmc> {
    const MAX_N: usize = 20;
    (
        proptest::collection::vec(1usize..5, 2..6),
        proptest::collection::vec(0.0..1.0f64, MAX_N * MAX_N),
        proptest::collection::vec(-1.0..1.0f64, MAX_N * MAX_N),
    )
        .prop_map(|(sizes, edges, log_rates)| {
            let n: usize = sizes.iter().sum();
            let mut first = Vec::new();
            let mut block_of = Vec::new();
            for (b, &size) in sizes.iter().enumerate() {
                first.push(block_of.len());
                block_of.extend(std::iter::repeat_n(b, size));
            }
            let last = |b: usize| first[b] + sizes[b] - 1;
            let mut transitions = Vec::new();
            for i in 0..n {
                let b = block_of[i];
                for j in (0..n).filter(|&j| j != i && block_of[j] >= b) {
                    let base = if block_of[j] == b {
                        j == if i == last(b) { first[b] } else { i + 1 }
                    } else {
                        i == last(b) && block_of[j] == b + 1 && j == first[b + 1]
                    };
                    let extra = if block_of[j] == b { 0.6 } else { 0.8 };
                    if base || edges[i * MAX_N + j] > extra {
                        transitions.push((i, j, 10f64.powf(log_rates[i * MAX_N + j])));
                    }
                }
            }
            Ctmc::from_transitions(n, transitions).expect("valid block-triangular chain")
        })
}

/// Every entry of the block-triangular result `a` against the dense `b`:
/// `|a − b| ≤ 1e-13 · max(|a|, |b|)`, above a rounding floor of `1e-14` of
/// the largest entry. Neither kernel is accurate entry by entry below that
/// floor: a structural zero, below the diagonal blocks, is an exact zero
/// in `a` and rounding noise in `b`, and a small entry formed by
/// cancellation carries the rounding of the large ones.
fn assert_entries_close(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    let floor = 1e-14 * a.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-13 * x.abs().max(y.abs()) + floor,
            "{what}, entry {k}: {x:e} vs {y:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn block_triangular_exponential_matches_the_hidden_order(
        chain in arb_block_triangular(),
        log_norm in -0.7..2.0f64,
    ) {
        // ‖Qt‖∞ from 0.2 to 100: no squarings to five.
        let n = chain.n_states();
        let mut qt = chain.generator().to_dense();
        qt.scale(10f64.powf(log_norm) / qt.norm_inf());
        // In reverse order every component sits below the ones it feeds,
        // and each feeds the next, so no split of the reversed matrix has
        // only zeros below it: it is one block, the dense arithmetic.
        let reverse = |m: &DenseMatrix| {
            let mut out = DenseMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    out[(n - 1 - r, n - 1 - c)] = m[(r, c)];
                }
            }
            out
        };
        let hidden = reverse(&qt);
        let e = expm::expm(&qt).unwrap();
        assert_entries_close(&e, &reverse(&expm::expm(&hidden).unwrap()), "expm");
        let (e, f) = expm::expm_with_integral(&qt).unwrap();
        let (he, hf) = expm::expm_with_integral(&hidden).unwrap();
        assert_entries_close(&e, &reverse(&he), "E");
        assert_entries_close(&f, &reverse(&hf), "F");
    }

    #[test]
    fn dense_chain_does_not_depend_on_the_state_numbering(
        chain in arb_block_triangular(),
        keys in proptest::collection::vec(0.0..1.0f64, 20),
        start in 0usize..20,
    ) {
        // label[i] is state i's number in the relabelled chain: its rank
        // among the random keys.
        let n = chain.n_states();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
        let mut label = vec![0; n];
        for (rank, &i) in order.iter().enumerate() {
            label[i] = rank;
        }
        let relabelled = Ctmc::from_transitions(
            n,
            chain
                .generator()
                .iter()
                .filter(|&(r, c, _)| r != c)
                .map(|(r, c, rate)| (label[r], label[c], rate)),
        )
        .unwrap();
        let opts = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };
        let u = 1.0 / chain.max_exit_rate();
        let times = [0.25 * u, u, 2.0 * u, 3.0 * u, 10.0 * u, 40.0 * u];
        let pi0 = chain.point_distribution(start % n);
        let relabelled_pi0 = relabelled.point_distribution(label[start % n]);
        let solved = transient::distribution_and_occupancy_at_times(&chain, &pi0, &times, &opts)
            .unwrap();
        let relabelled_solved = transient::distribution_and_occupancy_at_times(
            &relabelled,
            &relabelled_pi0,
            &times,
            &opts,
        )
        .unwrap();
        for (&t, ((pi, l), (rpi, rl))) in times.iter().zip(solved.iter().zip(&relabelled_solved)) {
            let back = |v: &[f64]| -> Vec<f64> { label.iter().map(|&k| v[k]).collect() };
            prop_assert!(relative_diff(&back(rpi), pi) <= 1e-13,
                "π at t = {t}: {}", relative_diff(&back(rpi), pi));
            prop_assert!(relative_diff(&back(rl), l) <= 1e-13,
                "L at t = {t}: {}", relative_diff(&back(rl), l));
        }
    }
}

/// `‖a − b‖∞ / ‖b‖∞` (the absolute difference against a zero vector).
fn relative_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let diff = sparsela::vector::diff_norm_inf(a, b);
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
