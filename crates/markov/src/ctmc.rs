//! Continuous-time Markov chains.

use sparsela::{CooMatrix, CsrMatrix};

use crate::{Dtmc, MarkovError, Result};

/// A continuous-time Markov chain, stored as its infinitesimal generator `Q`
/// in sparse form (off-diagonal entries are rates, diagonal entries are the
/// negated exit rates).
///
/// Build with [`Ctmc::from_transitions`]; parallel transitions between the
/// same pair of states are summed.
///
/// # Example
///
/// ```
/// use markov::Ctmc;
///
/// # fn main() -> Result<(), markov::MarkovError> {
/// let ctmc = Ctmc::from_transitions(3, [
///     (0, 1, 2.0),
///     (1, 2, 1.0),
///     (2, 0, 0.5),
/// ])?;
/// assert_eq!(ctmc.n_states(), 3);
/// assert_eq!(ctmc.exit_rate(0), 2.0);
/// assert_eq!(ctmc.generator().get(0, 0), -2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    n: usize,
    /// Full generator including the diagonal.
    q: CsrMatrix,
    /// Exit rate per state (`−q_ii`), cached.
    exit_rates: Vec<f64>,
}

impl Ctmc {
    /// Builds a chain over states `0..n` from `(from, to, rate)` transition
    /// triplets. Self-loops are rejected (they are meaningless in a CTMC);
    /// duplicate pairs are summed.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when a state index is out of
    /// range, a rate is negative/non-finite, or a self-loop is supplied.
    pub fn from_transitions<I>(n: usize, transitions: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut coo = CooMatrix::new(n, n);
        let mut exit = vec![0.0f64; n];
        for (from, to, rate) in transitions {
            if from >= n || to >= n {
                return Err(MarkovError::InvalidModel {
                    context: format!("transition ({from} -> {to}) outside state space 0..{n}"),
                });
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(MarkovError::InvalidModel {
                    context: format!("transition ({from} -> {to}) has invalid rate {rate}"),
                });
            }
            if from == to {
                return Err(MarkovError::InvalidModel {
                    context: format!("self-loop on state {from} is not allowed in a CTMC"),
                });
            }
            if rate > 0.0 {
                coo.push(from, to, rate);
                exit[from] += rate;
            }
        }
        for (s, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                coo.push(s, s, -e);
            }
        }
        Ok(Ctmc {
            n,
            q: coo.into_csr(),
            exit_rates: exit,
        })
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// The infinitesimal generator `Q` (diagonal included).
    pub fn generator(&self) -> &CsrMatrix {
        &self.q
    }

    /// The exit rate of state `s` (`−q_ss`).
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.n_states()`.
    pub fn exit_rate(&self, s: usize) -> f64 {
        self.exit_rates[s]
    }

    /// Iterates over the off-diagonal transitions `(from, to, rate)`.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.q.iter().filter(|&(r, c, _)| r != c)
    }

    /// The largest exit rate; any `Λ ≥` this value is a valid uniformization
    /// rate.
    pub fn max_exit_rate(&self) -> f64 {
        self.exit_rates.iter().fold(0.0, |m, &v| m.max(v))
    }

    /// Builds the uniformized DTMC `P = I + Q/Λ` for a uniformization rate
    /// `Λ`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when `Λ` is smaller than the
    /// maximum exit rate (which would produce negative probabilities) or not
    /// positive.
    pub fn uniformized(&self, lambda: f64) -> Result<Dtmc> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(MarkovError::InvalidModel {
                context: format!("uniformization rate must be positive, got {lambda}"),
            });
        }
        let max_exit = self.max_exit_rate();
        if lambda < max_exit * (1.0 - 1e-12) {
            return Err(MarkovError::InvalidModel {
                context: format!("uniformization rate {lambda} below maximum exit rate {max_exit}"),
            });
        }
        let mut coo = CooMatrix::new(self.n, self.n);
        for (r, c, v) in self.q.iter() {
            if r != c {
                coo.push(r, c, v / lambda);
            }
        }
        for s in 0..self.n {
            let stay = 1.0 - self.exit_rates[s] / lambda;
            // Clamp tiny negative rounding noise.
            coo.push(s, s, stay.max(0.0));
        }
        Dtmc::from_matrix(coo.into_csr())
    }

    /// Validates that `pi` is a probability distribution over this chain's
    /// states.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] on length mismatch,
    /// negative entries, non-finite entries, or a total differing from 1 by
    /// more than `1e-9`.
    pub fn check_distribution(&self, pi: &[f64]) -> Result<()> {
        if pi.len() != self.n {
            return Err(MarkovError::InvalidDistribution {
                context: format!(
                    "distribution length {} does not match {} states",
                    pi.len(),
                    self.n
                ),
            });
        }
        if !sparsela::vector::all_finite(pi) {
            return Err(MarkovError::InvalidDistribution {
                context: "distribution contains non-finite entries".to_string(),
            });
        }
        if pi.iter().any(|&p| p < -1e-12) {
            return Err(MarkovError::InvalidDistribution {
                context: "distribution contains negative entries".to_string(),
            });
        }
        let total: f64 = pi.iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(MarkovError::InvalidDistribution {
                context: format!("distribution sums to {total}, expected 1"),
            });
        }
        Ok(())
    }

    /// The point distribution concentrated on state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.n_states()`.
    pub fn point_distribution(&self, s: usize) -> Vec<f64> {
        assert!(s < self.n, "state {s} out of range");
        let mut pi = vec![0.0; self.n];
        pi[s] = 1.0;
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_rows_sum_to_zero() {
        let c = Ctmc::from_transitions(3, [(0, 1, 2.0), (0, 2, 3.0), (1, 0, 1.0)]).unwrap();
        for s in c.generator().row_sums() {
            assert!(s.abs() < 1e-12);
        }
        assert_eq!(c.exit_rate(0), 5.0);
        assert_eq!(c.exit_rate(2), 0.0);
    }

    #[test]
    fn duplicate_transitions_are_summed() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0), (0, 1, 2.0)]).unwrap();
        assert_eq!(c.exit_rate(0), 3.0);
        assert_eq!(c.generator().get(0, 1), 3.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Ctmc::from_transitions(2, [(0, 2, 1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, [(0, 1, -1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, [(0, 1, f64::NAN)]).is_err());
        assert!(Ctmc::from_transitions(2, [(0, 0, 1.0)]).is_err());
    }

    #[test]
    fn zero_rate_transitions_dropped() {
        let c = Ctmc::from_transitions(2, [(0, 1, 0.0)]).unwrap();
        assert_eq!((c.exit_rate(0), c.exit_rate(1)), (0.0, 0.0));
        assert_eq!(c.transitions().count(), 0);
    }

    #[test]
    fn uniformized_is_stochastic() {
        let c = Ctmc::from_transitions(3, [(0, 1, 2.0), (1, 2, 4.0), (2, 0, 1.0)]).unwrap();
        let lambda = c.max_exit_rate() * 1.05;
        let p = c.uniformized(lambda).unwrap();
        for s in p.matrix().row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Self-loop probability on the fastest state.
        assert!((p.matrix().get(1, 1) - (1.0 - 4.0 / lambda)).abs() < 1e-12);
    }

    #[test]
    fn uniformized_rejects_small_rate() {
        let c = Ctmc::from_transitions(2, [(0, 1, 10.0)]).unwrap();
        assert!(c.uniformized(5.0).is_err());
        assert!(c.uniformized(0.0).is_err());
        assert!(c.uniformized(10.0).is_ok());
    }

    #[test]
    fn check_distribution_validates() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0)]).unwrap();
        assert!(c.check_distribution(&[1.0, 0.0]).is_ok());
        assert!(c.check_distribution(&[0.5, 0.5]).is_ok());
        assert!(c.check_distribution(&[1.0]).is_err());
        assert!(c.check_distribution(&[2.0, -1.0]).is_err());
        assert!(c.check_distribution(&[0.7, 0.7]).is_err());
        assert!(c.check_distribution(&[f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn point_distribution_is_valid() {
        let c = Ctmc::from_transitions(3, [(0, 1, 1.0)]).unwrap();
        let pi = c.point_distribution(1);
        assert_eq!(pi, vec![0.0, 1.0, 0.0]);
        c.check_distribution(&pi).unwrap();
    }

    #[test]
    fn transitions_iterator_excludes_diagonal() {
        let c = Ctmc::from_transitions(2, [(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let ts: Vec<_> = c.transitions().collect();
        assert_eq!(ts, vec![(0, 1, 2.0), (1, 0, 3.0)]);
    }
}
