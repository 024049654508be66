//! Steady-state and absorbing-chain analysis.

use sparsela::{vector, DenseMatrix};

use crate::{graph, Ctmc, MarkovError, Result};

/// Computes the long-run (steady-state) distribution of a CTMC by a dense
/// LU solve of `πQ = 0` with one equation replaced by normalization.
///
/// The chain must be a **unichain**: exactly one recurrent class (terminal
/// strongly connected component), possibly preceded by transient states.
/// Transient states receive probability zero; the stationary distribution of
/// the recurrent class is solved on the class alone and embedded into the
/// full state space. An irreducible chain is the special case with no
/// transient states.
///
/// # Errors
///
/// * [`MarkovError::Reducible`] when the chain has more than one terminal
///   strongly connected component (the long-run distribution would depend on
///   the initial state).
/// * [`MarkovError::InvalidModel`] for an empty chain.
/// * [`MarkovError::LinAlg`] when the factorization fails.
pub fn steady_state(ctmc: &Ctmc) -> Result<Vec<f64>> {
    let n = ctmc.n_states();
    if n == 0 {
        return Err(MarkovError::InvalidModel {
            context: "steady state of an empty chain".to_string(),
        });
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }
    let (component_of, components) = graph::strongly_connected_components(ctmc.generator());
    if components == 1 {
        return direct(ctmc);
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
    let sub_pi = direct(&sub)?;
    let mut pi = vec![0.0; n];
    for (i, &s) in class.iter().enumerate() {
        pi[s] = sub_pi[i];
    }
    Ok(pi)
}

/// Dense LU on an irreducible chain.
fn direct(ctmc: &Ctmc) -> Result<Vec<f64>> {
    let mut span = telemetry::span("markov.solve.steady");
    telemetry::SolveDiag::new("direct").record_on(&mut span);
    if telemetry::enabled() {
        telemetry::counter("solver.solves", 1);
        telemetry::counter("solver.steady_direct.solves", 1);
    }
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
        let pi = steady_state(&c).unwrap();
        let want = mm1k(5, 2.0, 3.0);
        for (a, b) in pi.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(stationarity_residual(&c, &pi) < 1e-12);
    }

    #[test]
    fn two_terminal_classes_rejected() {
        // {0,1} is one recurrent class; isolated state 2 is another.
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            steady_state(&c),
            Err(MarkovError::Reducible { components: 2 })
        ));
    }

    #[test]
    fn unichain_with_transient_prefix() {
        // 0 → {1, 2} cycle: state 0 is transient, long-run mass sits on the
        // 1 <-> 2 cycle with rates 1 and 3 ⇒ π = (0, 3/4, 1/4).
        let c = Ctmc::from_transitions(3, [(0, 1, 5.0), (1, 2, 1.0), (2, 1, 3.0)]).unwrap();
        let pi = steady_state(&c).unwrap();
        assert!(pi[0].abs() < 1e-10);
        assert!((pi[1] - 0.75).abs() < 1e-9);
        assert!((pi[2] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn unichain_into_absorbing_state() {
        // All mass eventually in the absorbing state 2.
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let pi = steady_state(&c).unwrap();
        assert_eq!(pi, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::from_transitions(1, std::iter::empty()).unwrap();
        assert_eq!(steady_state(&c).unwrap(), vec![1.0]);
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
}
