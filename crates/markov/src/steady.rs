//! Steady-state analysis.

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
}
