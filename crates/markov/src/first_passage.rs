//! First-passage (hitting-time) analysis.
//!
//! These solvers answer "when does the chain first enter a target set?" —
//! the question behind the paper's detection-time density `h(τ)`: with the
//! detected-states set as target, `P[T ≤ t]` *is* `∫₀ᵗ h(τ)dτ` and the
//! moments below give the exact (uncensored) mean detection time. When the
//! target set is closed (no transition leaves it), stopping the chain
//! changes nothing on it, so `P[T ≤ t]` is the target mass of the
//! unstopped chain's `π(t)`; the G-OP measure engine reads the exact
//! truncated detection moment that way, off the `π`/`L` of its one sweep
//! pass, and [`truncated_mean_hitting_time`] is the general stopped-chain
//! reference it is tested against.

use sparsela::DenseMatrix;

use crate::{graph, transient, Ctmc, MarkovError, Result};

/// Moments of the first-passage time into a target set.
#[derive(Debug, Clone, PartialEq)]
pub struct HittingMoments {
    /// States outside the target set, ascending (index space of the moment
    /// vectors).
    pub non_target_states: Vec<usize>,
    /// `E[T | start = s]` for each non-target state.
    pub mean: Vec<f64>,
    /// `E[T² | start = s]` for each non-target state.
    pub second_moment: Vec<f64>,
}

impl HittingMoments {
    /// Mean hitting time from an initial distribution over **all** states
    /// (mass already on the target counts as zero).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] on a length mismatch.
    pub fn mean_from(&self, pi0: &[f64], n_states: usize) -> Result<f64> {
        if pi0.len() != n_states {
            return Err(MarkovError::InvalidDistribution {
                context: format!("distribution length {} != {n_states} states", pi0.len()),
            });
        }
        Ok(self
            .non_target_states
            .iter()
            .zip(&self.mean)
            .map(|(&s, m)| pi0[s] * m)
            .sum())
    }

    /// Variance of the hitting time from a single non-target state.
    ///
    /// Returns `None` when `state` is inside the target set.
    pub fn variance_of(&self, state: usize) -> Option<f64> {
        let i = self.non_target_states.iter().position(|&s| s == state)?;
        Some((self.second_moment[i] - self.mean[i] * self.mean[i]).max(0.0))
    }
}

/// Computes the first two moments of the time to first hit `targets`.
///
/// Solves `(−Q_NN)·m = 1` and `(−Q_NN)·m₂ = 2m`, where `Q_NN` is the
/// generator restricted to non-target states (the chain is conceptually
/// stopped at the target, so target outflows are irrelevant).
///
/// # Errors
///
/// * [`MarkovError::AbsorptionStructure`] when `targets` is empty, refers to
///   unknown states, or some non-target state cannot reach the target (its
///   hitting time would be infinite).
/// * [`MarkovError::LinAlg`] if the dense solve fails.
pub fn hitting_moments(ctmc: &Ctmc, targets: &[usize]) -> Result<HittingMoments> {
    let n = ctmc.n_states();
    if targets.is_empty() {
        return Err(MarkovError::AbsorptionStructure {
            context: "empty target set".to_string(),
        });
    }
    let mut is_target = vec![false; n];
    for &t in targets {
        if t >= n {
            return Err(MarkovError::AbsorptionStructure {
                context: format!("target state {t} outside state space 0..{n}"),
            });
        }
        is_target[t] = true;
    }
    let reaches = graph::can_reach(ctmc.generator(), targets);
    let non_target: Vec<usize> = (0..n).filter(|&s| !is_target[s]).collect();
    if let Some(&stuck) = non_target.iter().find(|&&s| !reaches[s]) {
        return Err(MarkovError::AbsorptionStructure {
            context: format!("state {stuck} cannot reach the target set"),
        });
    }

    let m = non_target.len();
    let index: std::collections::HashMap<usize, usize> = non_target
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i))
        .collect();
    let mut neg_qnn = DenseMatrix::zeros(m, m);
    for (r, c, v) in ctmc.generator().iter() {
        if let (Some(&i), Some(&j)) = (index.get(&r), index.get(&c)) {
            neg_qnn[(i, j)] = -v;
        }
    }
    let lu = neg_qnn.lu().map_err(MarkovError::from)?;
    let mean = lu.solve(&vec![1.0; m]).map_err(MarkovError::from)?;
    let rhs2: Vec<f64> = mean.iter().map(|v| 2.0 * v).collect();
    let second_moment = lu.solve(&rhs2).map_err(MarkovError::from)?;

    Ok(HittingMoments {
        non_target_states: non_target,
        mean,
        second_moment,
    })
}

/// The probability that the chain has hit `targets` by time `t`, starting
/// from `pi0` — i.e. the CDF of the (phase-type) first-passage time.
///
/// Implemented by making the target states absorbing and running the
/// transient solver.
///
/// # Errors
///
/// Propagates target-set validation and transient-solver failures.
pub fn hitting_probability_by(
    ctmc: &Ctmc,
    pi0: &[f64],
    targets: &[usize],
    t: f64,
    opts: &transient::Options,
) -> Result<f64> {
    ctmc.check_distribution(pi0)?;
    let n = ctmc.n_states();
    if targets.is_empty() {
        return Err(MarkovError::AbsorptionStructure {
            context: "empty target set".to_string(),
        });
    }
    let mut is_target = vec![false; n];
    for &s in targets {
        if s >= n {
            return Err(MarkovError::AbsorptionStructure {
                context: format!("target state {s} outside state space 0..{n}"),
            });
        }
        is_target[s] = true;
    }
    let stopped = Ctmc::from_transitions(
        n,
        ctmc.transitions().filter(|&(from, _, _)| !is_target[from]),
    )?;
    let pi = transient::distribution(&stopped, pi0, t, opts)?;
    Ok(pi
        .iter()
        .enumerate()
        .filter(|&(s, _)| is_target[s])
        .map(|(_, p)| p)
        .sum())
}

/// The exact truncated first moment `E[T·1{T ≤ horizon}]` of the hitting
/// time, computed by integration by parts:
/// `E[T·1{T≤h}] = h·P[T ≤ h] − ∫₀^h P[T ≤ t] dt`,
/// with the integral evaluated as an accumulated occupancy of the stopped
/// chain's target states.
///
/// This is the exact counterpart of the paper's Table 1 `∫₀^φ τh(τ)dτ`
/// reward structure (which additionally counts censored paths at weight φ).
///
/// # Errors
///
/// Propagates target-set validation and transient-solver failures.
pub fn truncated_mean_hitting_time(
    ctmc: &Ctmc,
    pi0: &[f64],
    targets: &[usize],
    horizon: f64,
    opts: &transient::Options,
) -> Result<f64> {
    ctmc.check_distribution(pi0)?;
    let n = ctmc.n_states();
    let mut is_target = vec![false; n];
    for &s in targets {
        if s >= n {
            return Err(MarkovError::AbsorptionStructure {
                context: format!("target state {s} outside state space 0..{n}"),
            });
        }
        is_target[s] = true;
    }
    let stopped = Ctmc::from_transitions(
        n,
        ctmc.transitions().filter(|&(from, _, _)| !is_target[from]),
    )?;
    let (pi_h, occupancy) = transient::distribution_and_occupancy(&stopped, pi0, horizon, opts)?;
    let cdf_h: f64 = pi_h
        .iter()
        .enumerate()
        .filter(|&(s, _)| is_target[s])
        .map(|(_, p)| p)
        .sum();
    let integral_cdf: f64 = occupancy
        .iter()
        .enumerate()
        .filter(|&(s, _)| is_target[s])
        .map(|(_, l)| l)
        .sum();
    Ok(horizon * cdf_h - integral_cdf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_hitting_moments() {
        // 0 -> 1 at rate ν: T ~ Exp(ν): E[T] = 1/ν, Var = 1/ν².
        let nu = 2.5;
        let c = Ctmc::from_transitions(2, [(0, 1, nu)]).unwrap();
        let m = hitting_moments(&c, &[1]).unwrap();
        assert_eq!(m.non_target_states, vec![0]);
        assert!((m.mean[0] - 1.0 / nu).abs() < 1e-12);
        assert!((m.variance_of(0).unwrap() - 1.0 / (nu * nu)).abs() < 1e-12);
        assert_eq!(m.variance_of(1), None);
    }

    #[test]
    fn erlang_hitting_moments() {
        // 3-stage chain at rate ν: Erlang(3, ν): mean 3/ν, var 3/ν².
        let nu = 1.5;
        let c = Ctmc::from_transitions(4, [(0, 1, nu), (1, 2, nu), (2, 3, nu)]).unwrap();
        let m = hitting_moments(&c, &[3]).unwrap();
        assert!((m.mean_from(&[1.0, 0.0, 0.0, 0.0], 4).unwrap() - 3.0 / nu).abs() < 1e-12);
        assert!((m.variance_of(0).unwrap() - 3.0 / (nu * nu)).abs() < 1e-10);
    }

    #[test]
    fn hitting_time_ignores_target_outflows() {
        // Chain continues past the target; hitting time must not care.
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0), (1, 2, 5.0), (2, 0, 9.0)]).unwrap();
        let m = hitting_moments(&c, &[1]).unwrap();
        assert!((m.mean[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unreachable_target_rejected() {
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0)]).unwrap();
        assert!(matches!(
            hitting_moments(&c, &[2]),
            Err(MarkovError::AbsorptionStructure { .. })
        ));
        assert!(hitting_moments(&c, &[]).is_err());
        assert!(hitting_moments(&c, &[7]).is_err());
    }

    #[test]
    fn hitting_probability_is_erlang_cdf() {
        let nu = 2.0;
        let c = Ctmc::from_transitions(3, [(0, 1, nu), (1, 2, nu), (2, 0, 100.0)]).unwrap();
        let pi0 = c.point_distribution(0);
        let t = 1.2;
        let got =
            hitting_probability_by(&c, &pi0, &[2], t, &transient::Options::default()).unwrap();
        let x = nu * t;
        let want = 1.0 - (1.0 + x) * (-x).exp(); // Erlang(2, ν) CDF
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn truncated_mean_matches_closed_form() {
        // T ~ Exp(ν): E[T·1{T≤h}] = 1/ν − e^{−νh}(h + 1/ν).
        let nu = 0.8;
        let h = 2.0;
        let c = Ctmc::from_transitions(2, [(0, 1, nu)]).unwrap();
        let got =
            truncated_mean_hitting_time(&c, &[1.0, 0.0], &[1], h, &transient::Options::default())
                .unwrap();
        let want = 1.0 / nu - (-nu * h).exp() * (h + 1.0 / nu);
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn truncated_mean_below_censored_mean() {
        // The censored mean E[min(T, h)] always dominates E[T·1{T≤h}].
        let nu = 0.5;
        let h = 1.0;
        let c = Ctmc::from_transitions(2, [(0, 1, nu)]).unwrap();
        let truncated =
            truncated_mean_hitting_time(&c, &[1.0, 0.0], &[1], h, &transient::Options::default())
                .unwrap();
        let censored = (1.0 - (-nu * h).exp()) / nu; // ∫₀^h P[T>t]dt
        assert!(truncated < censored);
        assert!(truncated >= 0.0);
    }

    #[test]
    fn mean_from_counts_target_mass_as_zero() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0)]).unwrap();
        let m = hitting_moments(&c, &[1]).unwrap();
        assert_eq!(m.mean_from(&[0.0, 1.0], 2).unwrap(), 0.0);
        assert!((m.mean_from(&[0.5, 0.5], 2).unwrap() - 0.5).abs() < 1e-12);
        assert!(m.mean_from(&[1.0], 2).is_err());
    }
}
