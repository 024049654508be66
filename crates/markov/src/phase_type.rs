//! Continuous phase-type (PH) distributions.
//!
//! A phase-type distribution is the law of the time to absorption of a CTMC
//! with one absorbing state. The generalized G-OP builders take the
//! acceptance-test and checkpoint durations as PH laws and expand each
//! phase into the model (`performability::gsu::rmgp`), so this module
//! holds the textbook constructors and the representation `(α, S, s⁰)` they
//! build.

use sparsela::DenseMatrix;

use crate::{MarkovError, Result};

/// A continuous phase-type distribution `PH(α, S)`.
///
/// `S` is the sub-generator over transient phases, `α` the initial phase
/// distribution and `s⁰ = −S·1` the exit-rate vector into absorption.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseType {
    /// Sub-generator over the transient phases (dense; PH models are small).
    s: DenseMatrix,
    /// Exit-rate vector into absorption, `s⁰ = −S·1`.
    exit: Vec<f64>,
    /// Initial distribution over phases (may sum to < 1 when some initial
    /// mass starts absorbed).
    alpha: Vec<f64>,
}

impl PhaseType {
    /// Builds a PH law directly from its representation `(α, S)`.
    ///
    /// The exit vector is derived as `s⁰ = −S·1`; any initial mass missing
    /// from `α` is a point mass at zero.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidModel`] when `S` is not square or does not
    ///   match `α`'s length, or has a positive diagonal / negative
    ///   off-diagonal entry or a positive row sum.
    /// * [`MarkovError::InvalidDistribution`] when `α` has a negative entry
    ///   or mass above one.
    pub fn from_representation(alpha: Vec<f64>, s: DenseMatrix) -> Result<Self> {
        let m = alpha.len();
        if s.rows() != m || s.cols() != m {
            return Err(MarkovError::InvalidModel {
                context: format!(
                    "sub-generator is {}x{} but the initial vector has {m} phases",
                    s.rows(),
                    s.cols()
                ),
            });
        }
        let mut exit = vec![0.0; m];
        for i in 0..m {
            let mut row_sum = 0.0;
            for j in 0..m {
                let v = s[(i, j)];
                if !v.is_finite() || (i == j && v > 0.0) || (i != j && v < 0.0) {
                    return Err(MarkovError::InvalidModel {
                        context: format!("sub-generator entry S[{i},{j}] = {v} is invalid"),
                    });
                }
                row_sum += v;
            }
            if row_sum > 1e-9 {
                return Err(MarkovError::InvalidModel {
                    context: format!("sub-generator row {i} sums to {row_sum} > 0"),
                });
            }
            exit[i] = (-row_sum).max(0.0);
        }
        let mass: f64 = alpha.iter().sum();
        if alpha.iter().any(|&a| !a.is_finite() || a < 0.0) || mass > 1.0 + 1e-9 {
            return Err(MarkovError::InvalidDistribution {
                context: format!("initial phase vector {alpha:?} is not sub-stochastic"),
            });
        }
        Ok(PhaseType { s, exit, alpha })
    }

    /// The exponential law of rate `nu` as a one-phase PH distribution.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] unless `nu` is finite and
    /// positive.
    pub fn exponential(nu: f64) -> Result<Self> {
        Self::erlang(1, nu)
    }

    /// The Erlang(`k`, `rate`) law — `k` exponential stages of rate `rate`
    /// in series. `k = 1` degenerates to the exponential law.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when `k == 0` or `rate` is not
    /// finite and positive.
    pub fn erlang(k: usize, rate: f64) -> Result<Self> {
        if k == 0 || !rate.is_finite() || rate <= 0.0 {
            return Err(MarkovError::InvalidModel {
                context: format!(
                    "Erlang needs k >= 1 stages and a positive rate, got ({k}, {rate})"
                ),
            });
        }
        let mut s = DenseMatrix::zeros(k, k);
        for i in 0..k {
            s[(i, i)] = -rate;
            if i + 1 < k {
                s[(i, i + 1)] = rate;
            }
        }
        let mut alpha = vec![0.0; k];
        alpha[0] = 1.0;
        Self::from_representation(alpha, s)
    }

    /// The hyperexponential law of `branches = [(weight, rate), ...]`: an
    /// initial probabilistic choice among parallel exponential branches.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when no branch is given, a
    /// weight or rate is out of domain, or the weights do not sum to one
    /// (tolerance `1e-6`).
    pub fn hyperexponential(branches: &[(f64, f64)]) -> Result<Self> {
        if branches.is_empty() {
            return Err(MarkovError::InvalidModel {
                context: "hyperexponential needs at least one branch".to_string(),
            });
        }
        let mut total = 0.0;
        for &(w, r) in branches {
            if !w.is_finite() || w < 0.0 || !r.is_finite() || r <= 0.0 {
                return Err(MarkovError::InvalidModel {
                    context: format!("hyperexponential branch ({w}, {r}) is out of domain"),
                });
            }
            total += w;
        }
        if (total - 1.0).abs() > 1e-6 {
            return Err(MarkovError::InvalidModel {
                context: format!("hyperexponential branch weights sum to {total}, expected 1"),
            });
        }
        let m = branches.len();
        let mut s = DenseMatrix::zeros(m, m);
        let mut alpha = vec![0.0; m];
        for (i, &(w, r)) in branches.iter().enumerate() {
            s[(i, i)] = -r;
            alpha[i] = w;
        }
        // Normalize away the 1e-6 tolerance so the law is exactly proper.
        let scale: f64 = alpha.iter().sum();
        for a in &mut alpha {
            *a /= scale;
        }
        Self::from_representation(alpha, s)
    }

    /// An Erlang approximation of the deterministic duration `mean`, using
    /// `stages` phases of rate `stages / mean`.
    ///
    /// The approximation preserves the mean exactly; its standard deviation
    /// is `mean / sqrt(stages)`, so the error shrinks as `stages` grows
    /// (Chebyshev: `P[|T − mean| > ε] ≤ mean² / (stages·ε²)`).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when `stages == 0` or `mean`
    /// is not finite and positive.
    pub fn deterministic_approx(mean: f64, stages: usize) -> Result<Self> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(MarkovError::InvalidModel {
                context: format!("deterministic approximation needs a positive mean, got {mean}"),
            });
        }
        Self::erlang(stages, stages as f64 / mean)
    }

    /// Number of transient phases.
    pub fn n_phases(&self) -> usize {
        self.alpha.len()
    }

    /// The initial phase distribution `α` (may sum to < 1 for laws with a
    /// point mass at zero).
    pub fn initial(&self) -> &[f64] {
        &self.alpha
    }

    /// The sub-generator `S` over the transient phases.
    pub fn sub_generator(&self) -> &DenseMatrix {
        &self.s
    }

    /// The exit-rate vector `s⁰` into absorption.
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `law` is exactly the representation `(alpha, s, exit)`.
    fn assert_representation(law: &PhaseType, alpha: &[f64], s: &[&[f64]], exit: &[f64]) {
        assert_eq!(law.n_phases(), alpha.len());
        assert_eq!(law.initial(), alpha);
        assert_eq!(law.sub_generator(), &DenseMatrix::from_rows(s));
        assert_eq!(law.exit_rates(), exit);
    }

    #[test]
    fn exponential_is_one_phase() {
        let nu = 1.7;
        let ph = PhaseType::exponential(nu).unwrap();
        assert_representation(&ph, &[1.0], &[&[-nu]], &[nu]);
        assert!(PhaseType::exponential(0.0).is_err());
        assert!(PhaseType::exponential(f64::NAN).is_err());
    }

    #[test]
    fn erlang_is_a_series_of_equal_stages() {
        let nu = 2.0;
        let ph = PhaseType::erlang(3, nu).unwrap();
        assert_representation(
            &ph,
            &[1.0, 0.0, 0.0],
            &[&[-nu, nu, 0.0], &[0.0, -nu, nu], &[0.0, 0.0, -nu]],
            &[0.0, 0.0, nu],
        );
        assert_eq!(
            PhaseType::erlang(1, nu).unwrap(),
            PhaseType::exponential(nu).unwrap()
        );
        assert!(PhaseType::erlang(0, nu).is_err());
        assert!(PhaseType::erlang(2, -1.0).is_err());
    }

    #[test]
    fn hyperexponential_is_a_choice_of_parallel_stages() {
        let ph = PhaseType::hyperexponential(&[(0.3, 1.0), (0.7, 4.0)]).unwrap();
        assert_representation(&ph, &[0.3, 0.7], &[&[-1.0, 0.0], &[0.0, -4.0]], &[1.0, 4.0]);

        assert!(PhaseType::hyperexponential(&[]).is_err());
        assert!(PhaseType::hyperexponential(&[(0.4, 1.0), (0.4, 2.0)]).is_err());
        assert!(PhaseType::hyperexponential(&[(0.7, 1.0), (0.7, 2.0)]).is_err());
        assert!(PhaseType::hyperexponential(&[(0.5, -1.0), (0.5, 2.0)]).is_err());
        assert!(PhaseType::hyperexponential(&[(-0.2, 1.0), (1.2, 2.0)]).is_err());
    }

    #[test]
    fn hyperexponential_weights_are_normalized() {
        // Weights within the 1e-6 tolerance are scaled to an exactly proper
        // initial vector.
        let ph = PhaseType::hyperexponential(&[(0.5, 1.0), (0.5000004, 2.0)]).unwrap();
        let total = 0.5 + 0.5000004;
        assert_eq!(ph.initial(), &[0.5 / total, 0.5000004 / total]);
    }

    #[test]
    fn deterministic_approx_is_erlang_with_the_mean_kept() {
        let mean = 2.0;
        for k in [1, 4, 16] {
            let ph = PhaseType::deterministic_approx(mean, k).unwrap();
            assert_eq!(
                ph,
                PhaseType::erlang(k, k as f64 / mean).unwrap(),
                "k = {k}"
            );
        }
        assert!(PhaseType::deterministic_approx(0.0, 8).is_err());
        assert!(PhaseType::deterministic_approx(2.0, 0).is_err());
    }

    #[test]
    fn from_representation_derives_exit_rates() {
        // A two-phase Coxian: phase 0 exits at 0.5 or moves on at 1.5.
        let s = DenseMatrix::from_rows(&[&[-2.0, 1.5], &[0.0, -3.0]]);
        let ph = PhaseType::from_representation(vec![1.0, 0.0], s).unwrap();
        assert_representation(&ph, &[1.0, 0.0], &[&[-2.0, 1.5], &[0.0, -3.0]], &[0.5, 3.0]);
        // A sub-stochastic initial vector is kept as given.
        let s = DenseMatrix::from_vec(1, 1, vec![-1.0]).unwrap();
        let ph = PhaseType::from_representation(vec![0.75], s).unwrap();
        assert_representation(&ph, &[0.75], &[&[-1.0]], &[1.0]);
    }

    #[test]
    fn from_representation_rejects_bad_structure() {
        // Positive row sum.
        let s = DenseMatrix::from_vec(1, 1, vec![0.5]).unwrap();
        assert!(PhaseType::from_representation(vec![1.0], s).is_err());
        // Dimension mismatch.
        let s = DenseMatrix::zeros(2, 2);
        assert!(PhaseType::from_representation(vec![1.0], s).is_err());
        // Negative off-diagonal.
        let s = DenseMatrix::from_vec(2, 2, vec![-1.0, -0.5, 0.0, -1.0]).unwrap();
        assert!(PhaseType::from_representation(vec![0.5, 0.5], s).is_err());
        // Super-stochastic initial vector.
        let s = DenseMatrix::from_vec(1, 1, vec![-1.0]).unwrap();
        assert!(PhaseType::from_representation(vec![1.5], s).is_err());
    }
}
