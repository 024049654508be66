//! Discrete-time Markov chains.

use sparsela::CsrMatrix;

use crate::{MarkovError, Result};

/// A discrete-time Markov chain stored as its validated (row-)stochastic
/// transition matrix.
///
/// [`Ctmc::uniformized`](crate::Ctmc::uniformized) returns one: the
/// uniformized embedding `P = I + Q/Λ` whose power sequence the transient
/// solvers step.
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    p: CsrMatrix,
}

impl Dtmc {
    /// Wraps an existing stochastic matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when the matrix is not square,
    /// has negative entries, or has rows not summing to 1 within `1e-9`.
    pub fn from_matrix(p: CsrMatrix) -> Result<Self> {
        if p.rows() != p.cols() {
            return Err(MarkovError::InvalidModel {
                context: format!(
                    "transition matrix must be square, got {}x{}",
                    p.rows(),
                    p.cols()
                ),
            });
        }
        for (r, c, v) in p.iter() {
            if !v.is_finite() || v < 0.0 {
                return Err(MarkovError::InvalidModel {
                    context: format!("entry ({r}, {c}) = {v} is not a probability"),
                });
            }
        }
        for (r, s) in p.row_sums().into_iter().enumerate() {
            if (s - 1.0).abs() > 1e-9 {
                return Err(MarkovError::InvalidModel {
                    context: format!("row {r} sums to {s}, expected 1"),
                });
            }
        }
        Ok(Dtmc { p })
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.p.rows()
    }

    /// The transition matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsela::CooMatrix;

    #[test]
    fn from_matrix_validates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.5);
        coo.push(0, 1, 0.5);
        coo.push(1, 1, 1.0);
        assert!(Dtmc::from_matrix(coo.into_csr()).is_ok());

        let mut bad = CooMatrix::new(2, 2);
        bad.push(0, 0, 0.9);
        bad.push(1, 1, 1.0);
        assert!(Dtmc::from_matrix(bad.into_csr()).is_err());
    }
}
