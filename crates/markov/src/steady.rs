//! Steady-state and absorbing-chain analysis.

use sparsela::iterative::IterOptions;
use sparsela::{vector, CooMatrix, DenseMatrix};

use crate::{graph, Ctmc, MarkovError, Result};

/// Chain size at or below which [`SteadyMethod::Auto`] prefers the dense
/// direct solver: the `O(n³)` factorization is cheaper than assembling and
/// iterating a Krylov solve for chains this small.
pub const AUTO_DIRECT_CUTOFF: usize = 64;

/// Method used for steady-state solution of an irreducible CTMC.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SteadyMethod {
    /// Dense LU on `πQ = 0` with one equation replaced by normalization.
    /// Exact; preferred for small chains.
    #[default]
    Direct,
    /// Gauss–Seidel sweeps on `πQ = 0` with per-sweep normalization.
    GaussSeidel {
        /// Iteration budget and tolerance.
        options: IterOptions,
    },
    /// Jacobi-preconditioned BiCGStab on `Qᵀπ = 0` with one equation
    /// replaced by normalization. Converges in far fewer matrix products
    /// than the stationary sweeps on stiff chains.
    BiCgStab {
        /// Iteration budget and tolerance.
        options: IterOptions,
    },
    /// Cost-based choice: dense LU for chains up to
    /// [`AUTO_DIRECT_CUTOFF`] states, otherwise Krylov (BiCGStab) with a
    /// Gauss–Seidel sweep as the fallback if the Krylov solve breaks down.
    Auto,
}

/// Computes the long-run (steady-state) distribution of a CTMC.
///
/// The chain must be a **unichain**: exactly one recurrent class (terminal
/// strongly connected component), possibly preceded by transient states.
/// Transient states receive probability zero; the stationary distribution of
/// the recurrent class is embedded into the full state space. An irreducible
/// chain is the special case with no transient states.
///
/// # Errors
///
/// * [`MarkovError::Reducible`] when the chain has more than one terminal
///   strongly connected component (the long-run distribution would depend on
///   the initial state).
/// * [`MarkovError::InvalidModel`] for an empty chain.
/// * Solver-specific failures ([`MarkovError::LinAlg`]).
pub fn steady_state(ctmc: &Ctmc, method: &SteadyMethod) -> Result<Vec<f64>> {
    steady_state_with_hint(ctmc, method, None)
}

/// [`steady_state`] with an optional warm-start hint.
///
/// `hint` is a previous stationary vector over the **full** state space —
/// typically the solution at a neighboring point of a parameter sweep.
/// Iterative methods start from it instead of the uniform distribution,
/// which cuts their iteration count sharply when the hint is close;
/// [`SteadyMethod::Direct`] ignores it. A hint of the wrong length, or one
/// carrying no mass on the recurrent class, is silently discarded — the
/// hint is an accelerator, never a correctness input.
///
/// # Errors
///
/// Same conditions as [`steady_state`].
pub fn steady_state_with_hint(
    ctmc: &Ctmc,
    method: &SteadyMethod,
    hint: Option<&[f64]>,
) -> Result<Vec<f64>> {
    let n = ctmc.n_states();
    if n == 0 {
        return Err(MarkovError::InvalidModel {
            context: "steady state of an empty chain".to_string(),
        });
    }
    let hint = hint.filter(|h| h.len() == n && h.iter().all(|v| v.is_finite() && *v >= 0.0));
    if n == 1 {
        return Ok(vec![1.0]);
    }
    let (component_of, components) = graph::strongly_connected_components(ctmc.generator());
    if components == 1 {
        return solve_irreducible(ctmc, method, hint);
    }

    // Identify terminal components (no outgoing cross-component edges).
    let mut terminal = vec![true; components];
    for (u, v, _) in ctmc.transitions() {
        if component_of[u] != component_of[v] {
            terminal[component_of[u]] = false;
        }
    }
    let terminal_components: Vec<usize> = (0..components).filter(|&c| terminal[c]).collect();
    if terminal_components.len() != 1 {
        return Err(MarkovError::Reducible {
            components: terminal_components.len(),
        });
    }
    let recurrent = terminal_components[0];

    // Restrict to the recurrent class and solve there.
    let class: Vec<usize> = (0..n).filter(|&s| component_of[s] == recurrent).collect();
    if class.len() == 1 {
        let mut pi = vec![0.0; n];
        pi[class[0]] = 1.0;
        return Ok(pi);
    }
    let index_in_class: std::collections::HashMap<usize, usize> =
        class.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let sub_transitions: Vec<(usize, usize, f64)> = ctmc
        .transitions()
        .filter_map(
            |(u, v, r)| match (index_in_class.get(&u), index_in_class.get(&v)) {
                (Some(&iu), Some(&iv)) => Some((iu, iv, r)),
                _ => None,
            },
        )
        .collect();
    let sub = Ctmc::from_transitions(class.len(), sub_transitions)?;
    // Restrict the hint to the recurrent class; it only survives if it
    // still carries normalizable mass there.
    let sub_hint: Option<Vec<f64>> = hint.and_then(|h| {
        let mut restricted: Vec<f64> = class.iter().map(|&s| h[s]).collect();
        let mass: f64 = restricted.iter().sum();
        if mass > 0.0 {
            vector::scale(1.0 / mass, &mut restricted);
            Some(restricted)
        } else {
            None
        }
    });
    let sub_pi = solve_irreducible(&sub, method, sub_hint.as_deref())?;
    let mut pi = vec![0.0; n];
    for (i, &s) in class.iter().enumerate() {
        pi[s] = sub_pi[i];
    }
    Ok(pi)
}

fn solve_irreducible(ctmc: &Ctmc, method: &SteadyMethod, hint: Option<&[f64]>) -> Result<Vec<f64>> {
    match method {
        SteadyMethod::Direct => direct(ctmc),
        SteadyMethod::GaussSeidel { options } => sweep(ctmc, options, hint).map(|(pi, _)| pi),
        SteadyMethod::BiCgStab { options } => bicgstab_steady(ctmc, options, hint),
        SteadyMethod::Auto => {
            if ctmc.n_states() <= AUTO_DIRECT_CUTOFF {
                return direct(ctmc);
            }
            let options = IterOptions::default();
            match bicgstab_steady(ctmc, &options, hint) {
                Ok(pi) => Ok(pi),
                // Krylov breakdown (possible on hard spectra) falls back to
                // the unconditionally convergent Gauss–Seidel sweep.
                Err(MarkovError::LinAlg(_)) => {
                    telemetry::counter("solver.auto_fallback", 1);
                    sweep(ctmc, &options, hint).map(|(pi, _)| pi)
                }
                Err(e) => Err(e),
            }
        }
    }
}

fn record_steady_solve(method: &str, iterations: usize, final_delta: f64, tolerance: f64) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter("solver.solves", 1);
    telemetry::counter(&format!("solver.steady_{method}.solves"), 1);
    if iterations > 0 {
        telemetry::counter("solver.iterations", iterations as u64);
        telemetry::observe("solver.final_delta", final_delta);
        if final_delta > 0.0 {
            telemetry::observe("solver.tolerance_headroom", tolerance / final_delta);
        }
    }
}

/// Initial iterate for the iterative solvers: the (renormalized) hint when
/// one is available and carries mass, the uniform distribution otherwise.
fn start_vector(n: usize, hint: Option<&[f64]>) -> Vec<f64> {
    if let Some(h) = hint {
        let mass: f64 = h.iter().sum();
        if mass > 0.0 {
            let mut x = h.to_vec();
            vector::scale(1.0 / mass, &mut x);
            return x;
        }
    }
    vec![1.0 / n as f64; n]
}

fn direct(ctmc: &Ctmc) -> Result<Vec<f64>> {
    let mut span = telemetry::span("markov.solve.steady");
    telemetry::SolveDiag::new("direct").record_on(&mut span);
    record_steady_solve("direct", 0, 0.0, 0.0);
    let n = ctmc.n_states();
    // Solve Qᵀ x = 0 with the last equation replaced by Σx = 1.
    let mut a = DenseMatrix::zeros(n, n);
    for (r, c, v) in ctmc.generator().iter() {
        a[(c, r)] = v;
    }
    for c in 0..n {
        a[(n - 1, c)] = 1.0;
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let lu = a.lu().map_err(MarkovError::from)?;
    let mut pi = lu.solve(&b).map_err(MarkovError::from)?;
    cleanup(&mut pi);
    Ok(pi)
}

/// Gauss–Seidel sweeps on the balance equations
/// `π_j · (−q_jj) = Σ_{i≠j} π_i q_ij`.
/// Returns the stationary vector and the number of sweeps it took (the
/// iteration count is what the warm-start tests assert on).
fn sweep(ctmc: &Ctmc, options: &IterOptions, hint: Option<&[f64]>) -> Result<(Vec<f64>, usize)> {
    let n = ctmc.n_states();
    let qt = ctmc.generator().transpose();
    let mut span = telemetry::span("markov.solve.steady");
    let mut flight = telemetry::SolveDiag::new("gauss_seidel");
    let mut pi = start_vector(n, hint);
    let mut delta = f64::INFINITY;
    for it in 1..=options.max_iterations {
        delta = 0.0;
        for j in 0..n {
            let exit = ctmc.exit_rate(j);
            if exit == 0.0 {
                // Irreducibility was checked; exit 0 can only mean n == 1.
                continue;
            }
            let mut inflow = 0.0;
            for (i, v) in qt.row(j) {
                if i != j {
                    inflow += pi[i] * v;
                }
            }
            let new = inflow / exit;
            delta = delta.max((new - pi[j]).abs());
            pi[j] = new;
        }
        vector::normalize_l1(&mut pi);
        if telemetry::enabled() {
            flight.push_residual(delta);
        }
        if delta <= options.tolerance && it > 1 {
            telemetry::work::count_iterations(it as u64);
            cleanup(&mut pi);
            flight.iterations = it as u64;
            flight.record_on(&mut span);
            record_steady_solve("gauss_seidel", it, delta, options.tolerance);
            return Ok((pi, it));
        }
    }
    telemetry::work::count_iterations(options.max_iterations as u64);
    flight.iterations = options.max_iterations as u64;
    flight.record_on(&mut span);
    telemetry::counter("solver.not_converged", 1);
    Err(MarkovError::LinAlg(sparsela::LinAlgError::NotConverged {
        iterations: options.max_iterations,
        residual: delta,
        tolerance: options.tolerance,
    }))
}

/// Krylov steady-state solve: `A·π = e_{n−1}` where `A` is `Qᵀ` with its
/// last row replaced by the normalization equation `Σπ = 1`.
///
/// The system is square and nonsingular for an irreducible chain, and its
/// diagonal (`−` exit rates, plus the `1` in the normalization row) never
/// vanishes, so the Jacobi preconditioner inside [`sparsela::iterative::bicgstab`]
/// is always well defined.
fn bicgstab_steady(ctmc: &Ctmc, options: &IterOptions, hint: Option<&[f64]>) -> Result<Vec<f64>> {
    let n = ctmc.n_states();
    let mut coo = CooMatrix::new(n, n);
    for (r, c, v) in ctmc.generator().iter() {
        // A = Qᵀ: entry (c, r). The normalization equation overwrites row
        // n−1, so Qᵀ entries destined for it are dropped here.
        if c != n - 1 {
            coo.push(c, r, v);
        }
    }
    for j in 0..n {
        coo.push(n - 1, j, 1.0);
    }
    let a = coo.to_csr();
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let x0 = start_vector(n, hint);
    let mut span = telemetry::span("markov.solve.steady");
    let (mut pi, conv) = sparsela::iterative::bicgstab(&a, &b, &x0, options)?;
    cleanup(&mut pi);
    let mut flight = telemetry::SolveDiag::new("bicgstab");
    flight.iterations = conv.iterations as u64;
    flight.record_on(&mut span);
    record_steady_solve(
        "bicgstab",
        conv.iterations,
        conv.final_delta,
        options.tolerance,
    );
    Ok(pi)
}

fn cleanup(pi: &mut [f64]) {
    for p in pi.iter_mut() {
        if *p < 0.0 && *p > -1e-9 {
            *p = 0.0;
        }
    }
    vector::normalize_l1(pi);
}

/// Result of analysing a CTMC with absorbing states.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsorbingAnalysis {
    /// Transient (non-absorbing) states, ascending.
    pub transient_states: Vec<usize>,
    /// Absorbing states, ascending.
    pub absorbing_states: Vec<usize>,
    /// `absorption_probability[i][j]` — probability that, starting from
    /// `transient_states[i]`, the chain is eventually absorbed in
    /// `absorbing_states[j]`.
    pub absorption_probability: DenseMatrix,
    /// Expected time to absorption from each transient state.
    pub expected_time_to_absorption: Vec<f64>,
}

impl AbsorbingAnalysis {
    /// Absorption probability into `absorbing` starting from the initial
    /// distribution `pi0` over **all** states (mass on absorbing states
    /// counts as already absorbed there).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] on length mismatch and
    /// [`MarkovError::AbsorptionStructure`] when `absorbing` is not an
    /// absorbing state of the analysed chain.
    pub fn absorption_from(&self, pi0: &[f64], absorbing: usize) -> Result<f64> {
        let n = self.transient_states.len() + self.absorbing_states.len();
        if pi0.len() != n {
            return Err(MarkovError::InvalidDistribution {
                context: format!("distribution length {} != {} states", pi0.len(), n),
            });
        }
        let j = self
            .absorbing_states
            .iter()
            .position(|&s| s == absorbing)
            .ok_or_else(|| MarkovError::AbsorptionStructure {
                context: format!("state {absorbing} is not absorbing"),
            })?;
        let mut prob = pi0[absorbing];
        for (i, &s) in self.transient_states.iter().enumerate() {
            prob += pi0[s] * self.absorption_probability[(i, j)];
        }
        Ok(prob)
    }

    /// Expected time to absorption from the initial distribution `pi0`
    /// (time spent already absorbed counts as zero).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] on length mismatch.
    pub fn mean_time_from(&self, pi0: &[f64]) -> Result<f64> {
        let n = self.transient_states.len() + self.absorbing_states.len();
        if pi0.len() != n {
            return Err(MarkovError::InvalidDistribution {
                context: format!("distribution length {} != {} states", pi0.len(), n),
            });
        }
        Ok(self
            .transient_states
            .iter()
            .enumerate()
            .map(|(i, &s)| pi0[s] * self.expected_time_to_absorption[i])
            .sum())
    }
}

/// Analyses a CTMC with absorbing states: absorption probabilities
/// `B = (−Q_TT)⁻¹ Q_TA` and expected times to absorption
/// `τ = (−Q_TT)⁻¹ 1`.
///
/// # Errors
///
/// * [`MarkovError::AbsorptionStructure`] when the chain has no absorbing
///   state, or some transient state cannot reach absorption (the analysis
///   would be ill-posed).
/// * [`MarkovError::LinAlg`] if the dense solve fails.
pub fn absorbing_analysis(ctmc: &Ctmc) -> Result<AbsorbingAnalysis> {
    let absorbing = ctmc.absorbing_states();
    if absorbing.is_empty() {
        return Err(MarkovError::AbsorptionStructure {
            context: "chain has no absorbing states".to_string(),
        });
    }
    let is_absorbing: Vec<bool> = {
        let mut v = vec![false; ctmc.n_states()];
        for &s in &absorbing {
            v[s] = true;
        }
        v
    };
    let transient: Vec<usize> = (0..ctmc.n_states()).filter(|&s| !is_absorbing[s]).collect();

    let reaches = graph::can_reach(ctmc.generator(), &absorbing);
    if let Some(&stuck) = transient.iter().find(|&&s| !reaches[s]) {
        return Err(MarkovError::AbsorptionStructure {
            context: format!("transient state {stuck} cannot reach any absorbing state"),
        });
    }

    let t = transient.len();
    let a = absorbing.len();
    let index_of_transient: std::collections::HashMap<usize, usize> =
        transient.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let index_of_absorbing: std::collections::HashMap<usize, usize> =
        absorbing.iter().enumerate().map(|(j, &s)| (s, j)).collect();

    // Assemble −Q_TT (dense) and Q_TA.
    let mut neg_qtt = DenseMatrix::zeros(t, t);
    let mut qta = DenseMatrix::zeros(t, a);
    for (r, c, v) in ctmc.generator().iter() {
        if let Some(&i) = index_of_transient.get(&r) {
            if let Some(&ic) = index_of_transient.get(&c) {
                neg_qtt[(i, ic)] = -v;
            } else if let Some(&j) = index_of_absorbing.get(&c) {
                qta[(i, j)] = v;
            }
        }
    }

    let lu = neg_qtt.lu().map_err(MarkovError::from)?;

    let mut absorption_probability = DenseMatrix::zeros(t, a);
    let mut rhs = vec![0.0; t];
    for j in 0..a {
        for (i, item) in rhs.iter_mut().enumerate() {
            *item = qta[(i, j)];
        }
        let col = lu.solve(&rhs).map_err(MarkovError::from)?;
        for (i, &v) in col.iter().enumerate() {
            absorption_probability[(i, j)] = v.clamp(0.0, 1.0);
        }
    }

    let expected_time_to_absorption = lu.solve(&vec![1.0; t]).map_err(MarkovError::from)?;

    Ok(AbsorbingAnalysis {
        transient_states: transient,
        absorbing_states: absorbing,
        absorption_probability,
        expected_time_to_absorption,
    })
}

/// Checks the residual `‖π·Q‖∞` of a claimed stationary vector — handy for
/// validating any solver's output.
pub fn stationarity_residual(ctmc: &Ctmc, pi: &[f64]) -> f64 {
    let flow: Vec<f64> = ctmc.generator().mul_vec_transpose(pi);
    vector::norm_inf(&flow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn birth_death(n: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i, i + 1, lambda));
            t.push((i + 1, i, mu));
        }
        Ctmc::from_transitions(n, t).unwrap()
    }

    /// Closed-form M/M/1/K distribution with utilisation ρ = λ/µ.
    fn mm1k(n: usize, lambda: f64, mu: f64) -> Vec<f64> {
        let rho: f64 = lambda / mu;
        let z: f64 = (0..n).map(|i| rho.powi(i as i32)).sum();
        (0..n).map(|i| rho.powi(i as i32) / z).collect()
    }

    #[test]
    fn direct_matches_birth_death_closed_form() {
        let c = birth_death(5, 2.0, 3.0);
        let pi = steady_state(&c, &SteadyMethod::Direct).unwrap();
        let want = mm1k(5, 2.0, 3.0);
        for (a, b) in pi.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(stationarity_residual(&c, &pi) < 1e-12);
    }

    #[test]
    fn all_methods_agree() {
        let c = birth_death(6, 1.0, 1.5);
        let d = steady_state(&c, &SteadyMethod::Direct).unwrap();
        let g = steady_state(
            &c,
            &SteadyMethod::GaussSeidel {
                options: IterOptions::default(),
            },
        )
        .unwrap();
        let k = steady_state(
            &c,
            &SteadyMethod::BiCgStab {
                options: IterOptions::default(),
            },
        )
        .unwrap();
        let a = steady_state(&c, &SteadyMethod::Auto).unwrap();
        for other in [&g, &k, &a] {
            assert!(vector::diff_norm_inf(&d, other) < 1e-8);
        }
    }

    #[test]
    fn bicgstab_matches_direct() {
        let c = birth_death(12, 2.0, 3.0);
        let d = steady_state(&c, &SteadyMethod::Direct).unwrap();
        let opts = IterOptions {
            tolerance: 1e-12,
            ..Default::default()
        };
        let k = steady_state(&c, &SteadyMethod::BiCgStab { options: opts }).unwrap();
        assert!(vector::diff_norm_inf(&d, &k) < 1e-9);
        assert!(stationarity_residual(&c, &k) < 1e-9);
    }

    #[test]
    fn auto_uses_direct_on_small_and_krylov_on_large() {
        let small = birth_death(6, 1.0, 2.0);
        let a = steady_state(&small, &SteadyMethod::Auto).unwrap();
        let d = steady_state(&small, &SteadyMethod::Direct).unwrap();
        assert_eq!(a, d);

        let large = birth_death(AUTO_DIRECT_CUTOFF + 20, 1.0, 1.1);
        let a = steady_state(&large, &SteadyMethod::Auto).unwrap();
        let d = steady_state(&large, &SteadyMethod::Direct).unwrap();
        assert!(vector::diff_norm_inf(&a, &d) < 1e-8);
    }

    #[test]
    fn warm_start_hint_cuts_sweep_iterations() {
        let c = birth_death(40, 1.0, 1.2);
        let exact = steady_state(&c, &SteadyMethod::Direct).unwrap();
        let opts = IterOptions {
            tolerance: 1e-12,
            ..Default::default()
        };
        let (cold_pi, cold) = sweep(&c, &opts, None).unwrap();
        assert!(vector::diff_norm_inf(&cold_pi, &exact) < 1e-8);
        let (warm_pi, warm) = sweep(&c, &opts, Some(&exact)).unwrap();
        assert!(vector::diff_norm_inf(&warm_pi, &exact) < 1e-8);
        assert!(
            warm < cold,
            "warm start took {warm} iterations vs cold {cold}"
        );
    }

    #[test]
    fn degenerate_hints_are_discarded() {
        let c = birth_death(5, 2.0, 3.0);
        let want = steady_state(&c, &SteadyMethod::Direct).unwrap();
        let method = SteadyMethod::GaussSeidel {
            options: IterOptions::default(),
        };
        for bad in [
            vec![0.0; 5],                   // no mass
            vec![0.25; 4],                  // wrong length
            vec![f64::NAN; 5],              // non-finite
            vec![-1.0, 1.0, 0.0, 0.0, 0.0], // negative entries
        ] {
            let pi = steady_state_with_hint(&c, &method, Some(&bad)).unwrap();
            assert!(vector::diff_norm_inf(&pi, &want) < 1e-8);
        }
    }

    #[test]
    fn hint_survives_unichain_reduction() {
        // State 0 is transient; hint mass on it must be redistributed.
        let c = Ctmc::from_transitions(3, [(0, 1, 5.0), (1, 2, 1.0), (2, 1, 3.0)]).unwrap();
        let hint = [0.5, 0.4, 0.1];
        let method = SteadyMethod::GaussSeidel {
            options: IterOptions::default(),
        };
        let pi = steady_state_with_hint(&c, &method, Some(&hint)).unwrap();
        assert!(pi[0].abs() < 1e-10);
        assert!((pi[1] - 0.75).abs() < 1e-8);
        assert!((pi[2] - 0.25).abs() < 1e-8);
    }

    #[test]
    fn two_terminal_classes_rejected() {
        // {0,1} is one recurrent class; isolated state 2 is another.
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            steady_state(&c, &SteadyMethod::Direct),
            Err(MarkovError::Reducible { components: 2 })
        ));
    }

    #[test]
    fn unichain_with_transient_prefix() {
        // 0 → {1, 2} cycle: state 0 is transient, long-run mass sits on the
        // 1 <-> 2 cycle with rates 1 and 3 ⇒ π = (0, 3/4, 1/4).
        let c = Ctmc::from_transitions(3, [(0, 1, 5.0), (1, 2, 1.0), (2, 1, 3.0)]).unwrap();
        let options = IterOptions::default();
        for method in [
            SteadyMethod::Direct,
            SteadyMethod::GaussSeidel {
                options: options.clone(),
            },
            SteadyMethod::BiCgStab { options },
        ] {
            let pi = steady_state(&c, &method).unwrap();
            assert!(pi[0].abs() < 1e-10);
            assert!((pi[1] - 0.75).abs() < 1e-9);
            assert!((pi[2] - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn unichain_into_absorbing_state() {
        // All mass eventually in the absorbing state 2.
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let pi = steady_state(&c, &SteadyMethod::Direct).unwrap();
        assert_eq!(pi, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::from_transitions(1, std::iter::empty()).unwrap();
        assert_eq!(steady_state(&c, &SteadyMethod::Direct).unwrap(), vec![1.0]);
    }

    #[test]
    fn periodic_chain_iterative_methods_converge() {
        // 0 <-> 1 with equal rates: the embedded jump chain is periodic, so
        // a plain power iteration on it would oscillate forever.
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let options = IterOptions::default();
        for method in [
            SteadyMethod::GaussSeidel {
                options: options.clone(),
            },
            SteadyMethod::BiCgStab { options },
        ] {
            let pi = steady_state(&c, &method).unwrap();
            assert!((pi[0] - 0.5).abs() < 1e-9, "{method:?}: {pi:?}");
        }
    }

    #[test]
    fn absorbing_analysis_pure_death() {
        // 0 -> 1 -> 2(absorbing) at rate 1: time to absorption = 2.
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let a = absorbing_analysis(&c).unwrap();
        assert_eq!(a.transient_states, vec![0, 1]);
        assert_eq!(a.absorbing_states, vec![2]);
        assert!((a.absorption_probability[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((a.expected_time_to_absorption[0] - 2.0).abs() < 1e-12);
        assert!((a.expected_time_to_absorption[1] - 1.0).abs() < 1e-12);
        assert!((a.mean_time_from(&[1.0, 0.0, 0.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn absorbing_analysis_competing_risks() {
        // 0 -> 1 at rate a, 0 -> 2 at rate b: P[absorb in 1] = a/(a+b).
        let (a_rate, b_rate) = (2.0, 6.0);
        let c = Ctmc::from_transitions(3, [(0, 1, a_rate), (0, 2, b_rate)]).unwrap();
        let an = absorbing_analysis(&c).unwrap();
        let p1 = an.absorption_from(&[1.0, 0.0, 0.0], 1).unwrap();
        let p2 = an.absorption_from(&[1.0, 0.0, 0.0], 2).unwrap();
        assert!((p1 - 0.25).abs() < 1e-12);
        assert!((p2 - 0.75).abs() < 1e-12);
        assert!((an.mean_time_from(&[1.0, 0.0, 0.0]).unwrap() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn absorbing_mass_already_absorbed_counts() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0)]).unwrap();
        let an = absorbing_analysis(&c).unwrap();
        let p = an.absorption_from(&[0.0, 1.0], 1).unwrap();
        assert_eq!(p, 1.0);
        assert_eq!(an.mean_time_from(&[0.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn no_absorbing_states_rejected() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            absorbing_analysis(&c),
            Err(MarkovError::AbsorptionStructure { .. })
        ));
    }

    #[test]
    fn unreachable_absorption_rejected() {
        // States {0,1} form a recurrent class; 2 -> 3 absorbing.
        let c = Ctmc::from_transitions(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(matches!(
            absorbing_analysis(&c),
            Err(MarkovError::AbsorptionStructure { .. })
        ));
    }

    #[test]
    fn wrong_absorbing_state_query_errors() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0)]).unwrap();
        let an = absorbing_analysis(&c).unwrap();
        assert!(an.absorption_from(&[1.0, 0.0], 0).is_err());
        assert!(an.absorption_from(&[1.0], 1).is_err());
        assert!(an.mean_time_from(&[1.0]).is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A random irreducible generator: a rate-carrying Hamiltonian cycle
        /// guarantees irreducibility, extra random edges roughen the
        /// structure.
        fn irreducible_ctmc(n: usize, cycle_rates: &[f64], extras: &[(usize, usize, f64)]) -> Ctmc {
            let mut t: Vec<(usize, usize, f64)> =
                (0..n).map(|i| (i, (i + 1) % n, cycle_rates[i])).collect();
            for &(u, v, r) in extras {
                if u != v {
                    t.push((u % n, v % n, r));
                }
            }
            Ctmc::from_transitions(n, t).unwrap()
        }

        proptest! {
            /// BiCGStab agrees with the dense direct solver and with
            /// Gauss–Seidel on random irreducible generators (ISSUE 8
            /// satellite).
            #[test]
            fn bicgstab_agrees_with_direct_and_sweeps(
                cycle_rates in proptest::collection::vec(0.1..5.0f64, 8),
                extras in proptest::collection::vec(
                    (0usize..8, 0usize..8, 0.05..3.0f64), 0..20),
            ) {
                let c = irreducible_ctmc(8, &cycle_rates, &extras);
                let d = steady_state(&c, &SteadyMethod::Direct).unwrap();
                let opts = IterOptions {
                    tolerance: 1e-13,
                    ..Default::default()
                };
                let k = steady_state(
                    &c,
                    &SteadyMethod::BiCgStab { options: opts.clone() },
                ).unwrap();
                prop_assert!(vector::diff_norm_inf(&d, &k) < 1e-8);
                let g = steady_state(
                    &c,
                    &SteadyMethod::GaussSeidel { options: opts },
                ).unwrap();
                prop_assert!(vector::diff_norm_inf(&g, &k) < 1e-7);
            }
        }
    }
}
