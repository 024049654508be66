//! First-passage (hitting-time) analysis.
//!
//! These solvers answer "when does the chain first enter a target set?" —
//! the question behind the paper's detection-time density `h(τ)`: with the
//! detected-states set as target, `P[T ≤ t]` *is* `∫₀ᵗ h(τ)dτ`. When the
//! target set is closed (no transition leaves it), stopping the chain
//! changes nothing on it, so `P[T ≤ t]` is the target mass of the
//! unstopped chain's `π(t)`; the G-OP measure engine reads the exact
//! truncated detection moment that way, off the `π`/`L` of its one sweep
//! pass, and [`truncated_mean_hitting_time`] is the general stopped-chain
//! reference it is tested against.

use crate::{transient, Ctmc, MarkovError, Result};

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
    if targets.is_empty() {
        return Err(MarkovError::AbsorptionStructure {
            context: "empty target set".to_string(),
        });
    }
    let (stopped, is_target) = stopped_at(ctmc, pi0, targets)?;
    let pi = transient::distribution(&stopped, pi0, t, opts)?;
    Ok(target_mass(&pi, &is_target))
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
    let (stopped, is_target) = stopped_at(ctmc, pi0, targets)?;
    let (pi_h, occupancy) = transient::distribution_and_occupancy(&stopped, pi0, horizon, opts)?;
    Ok(horizon * target_mass(&pi_h, &is_target) - target_mass(&occupancy, &is_target))
}

/// `ctmc` with every transition out of `targets` removed (the clock stops
/// at the first hit), and the target indicator; checks `pi0` against the
/// chain on the way.
fn stopped_at(ctmc: &Ctmc, pi0: &[f64], targets: &[usize]) -> Result<(Ctmc, Vec<bool>)> {
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
    Ok((stopped, is_target))
}

/// The sum of `v` over the target states, in state order.
fn target_mass(v: &[f64], is_target: &[bool]) -> f64 {
    v.iter()
        .zip(is_target)
        .filter(|&(_, &t)| t)
        .map(|(x, _)| x)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
