//! Sparse and dense linear-algebra kernels used by the Markov reward model
//! solvers in this workspace.
//!
//! This crate is deliberately small and dependency-free. It provides exactly
//! the numerical substrate required to solve the reward models produced by
//! the stochastic-activity-network layer:
//!
//! * [`CooMatrix`] — a coordinate-format builder for assembling matrices from
//!   unordered `(row, col, value)` triplets (duplicate entries are summed).
//! * [`CsrMatrix`] — compressed sparse row storage with the matrix-vector
//!   products (`A·x` and `Aᵀ·x`) that drive uniformization.
//! * [`DenseMatrix`] — a small dense matrix with LU factorization
//!   ([`LuDecomposition`]), used for direct steady-state solutions and by the
//!   matrix-exponential transient solver in the `markov` crate.
//! * [`BlockedKernel`] — a transposed, gather-oriented layout of a CSR
//!   matrix built once and applied across all powers of a uniformization
//!   pass, with a fused step-plus-weighted-accumulate and an adaptive
//!   (mass-dropping) scatter variant.
//! * [`vector`] — the handful of BLAS-1 style kernels (`axpy`, `dot`, norms)
//!   the solvers need.
//!
//! # Example
//!
//! ```
//! use sparsela::{CooMatrix, vector};
//!
//! // Assemble [[2, -1], [-1, 2]] and multiply by [1, 1].
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, 2.0);
//! coo.push(0, 1, -1.0);
//! coo.push(1, 0, -1.0);
//! coo.push(1, 1, 2.0);
//! let csr = coo.to_csr();
//! let y = csr.mul_vec(&[1.0, 1.0]);
//! assert_eq!(y, vec![1.0, 1.0]);
//! assert!((vector::norm_l2(&y) - 2f64.sqrt()).abs() < 1e-15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocked;
pub mod checked;
mod coo;
mod csr;
mod dense;
mod error;
pub mod vector;

pub use blocked::BlockedKernel;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::{DenseMatrix, LuDecomposition};
pub use error::LinAlgError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinAlgError>;
