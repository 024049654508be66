//! Reward variables on Markov models (UltraSAN-style).
//!
//! A [`RewardStructure`] pairs a **rate reward** with every state (reward
//! accrues at that rate while the chain sojourns in the state). The three
//! reward variables the DSN 2002 study uses are:
//!
//! * expected **instant-of-time** reward at `t`: `Σ_s r(s)·π_s(t)`
//!   ([`RewardStructure::instant`] applied to a transient distribution);
//! * expected **accumulated interval-of-time** reward over `[0, t]`:
//!   `Σ_s r(s)·L_s(t)` ([`RewardStructure::accumulated`] applied to the
//!   occupancy vector);
//! * expected **steady-state** reward: `Σ_s r(s)·π_s(∞)`
//!   ([`RewardStructure::instant`] applied to a stationary distribution).

use crate::{Ctmc, MarkovError, Result};

/// Rate rewards per state.
///
/// # Example
///
/// ```
/// use markov::reward::RewardStructure;
///
/// // Reward 1 in state 0, 0 elsewhere: expected reward = P[state 0].
/// let r = RewardStructure::from_rates(vec![1.0, 0.0]);
/// assert_eq!(r.instant(&[0.25, 0.75]), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RewardStructure {
    rates: Vec<f64>,
}

impl RewardStructure {
    /// Builds a structure with the given per-state rate rewards.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        RewardStructure { rates }
    }

    /// Builds a structure assigning rate `rate` to every state in `states`
    /// (zero elsewhere) over a space of `n` states.
    ///
    /// # Panics
    ///
    /// Panics if some state index is `>= n`.
    pub fn indicator(n: usize, states: &[usize], rate: f64) -> Self {
        let mut rates = vec![0.0; n];
        for &s in states {
            assert!(s < n, "indicator state {s} out of range 0..{n}");
            rates[s] = rate;
        }
        RewardStructure::from_rates(rates)
    }

    /// Number of states the structure is defined over.
    pub fn n_states(&self) -> usize {
        self.rates.len()
    }

    /// The per-state rate rewards.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Expected instant-of-time (or steady-state) reward under the state
    /// distribution `pi`.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len()` differs from the structure's state count.
    pub fn instant(&self, pi: &[f64]) -> f64 {
        assert_eq!(pi.len(), self.rates.len(), "instant: length mismatch");
        sparsela::vector::dot(&self.rates, pi)
    }

    /// Expected accumulated reward over `[0, t]` given the occupancy vector
    /// `l = L(t)` (from [`crate::transient::occupancy`]): `Σ_s r(s)·L_s(t)`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] on a state-count mismatch with
    /// the chain or occupancy vector.
    pub fn accumulated(&self, ctmc: &Ctmc, l: &[f64]) -> Result<f64> {
        self.check_against(ctmc)?;
        if l.len() != self.rates.len() {
            return Err(MarkovError::InvalidModel {
                context: format!(
                    "occupancy length {} does not match {} states",
                    l.len(),
                    self.rates.len()
                ),
            });
        }
        Ok(sparsela::vector::dot(&self.rates, l))
    }

    fn check_against(&self, ctmc: &Ctmc) -> Result<()> {
        if ctmc.n_states() != self.rates.len() {
            return Err(MarkovError::InvalidModel {
                context: format!(
                    "reward structure over {} states applied to chain with {}",
                    self.rates.len(),
                    ctmc.n_states()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{self, Options};

    #[test]
    fn indicator_builds_correct_rates() {
        let r = RewardStructure::indicator(4, &[1, 3], 2.0);
        assert_eq!(r.rates(), &[0.0, 2.0, 0.0, 2.0]);
        assert_eq!(r.n_states(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indicator_rejects_bad_state() {
        RewardStructure::indicator(2, &[5], 1.0);
    }

    #[test]
    fn instant_reward_is_dot_product() {
        let r = RewardStructure::from_rates(vec![1.0, 10.0]);
        assert_eq!(r.instant(&[0.5, 0.5]), 5.5);
    }

    #[test]
    fn accumulated_rate_reward_is_occupancy_weighted() {
        let mu = 0.5;
        let c = Ctmc::from_transitions(2, [(0, 1, mu)]).unwrap();
        let t = 3.0;
        let l = transient::occupancy(&c, &[1.0, 0.0], t, &Options::default()).unwrap();
        // Reward 1 while in state 0: expected up-time = (1 − e^{−µt})/µ.
        let r = RewardStructure::indicator(2, &[0], 1.0);
        let got = r.accumulated(&c, &l).unwrap();
        let want = (1.0 - (-mu * t).exp()) / mu;
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn mismatched_sizes_rejected() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0)]).unwrap();
        let r = RewardStructure::from_rates(vec![1.0, 2.0, 3.0]);
        assert!(r.accumulated(&c, &[0.5, 0.5]).is_err());
        let r2 = RewardStructure::from_rates(vec![1.0, 2.0]);
        assert!(r2.accumulated(&c, &[0.5, 0.5, 0.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn instant_panics_on_mismatch() {
        RewardStructure::from_rates(vec![1.0]).instant(&[0.5, 0.5]);
    }
}
