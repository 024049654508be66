//! Iterative solvers for sparse linear systems `A·x = b`: Gauss–Seidel,
//! the classical stationary sweep of UltraSAN-era tools, and
//! Jacobi-preconditioned BiCGStab.
//!
//! `markov::steady` solves its Krylov steady-state systems with
//! [`bicgstab`]; its Gauss–Seidel method sweeps the balance equations
//! directly rather than calling [`gauss_seidel`], which serves as the
//! reference the BiCGStab tests compare against.

use crate::{CsrMatrix, LinAlgError, Result};

/// Telemetry for one finished solve. All calls no-op unless a global
/// telemetry sink is installed, so the hot path pays one atomic load.
fn record_solve(method: &str, conv: &Convergence, opts: &IterOptions) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter("solver.solves", 1);
    telemetry::counter("solver.iterations", conv.iterations as u64);
    telemetry::counter(&format!("solver.{method}.solves"), 1);
    telemetry::observe("solver.final_delta", conv.final_delta);
    if conv.final_delta > 0.0 {
        // How far under the tolerance the solve landed (>= 1 on success).
        telemetry::observe(
            "solver.tolerance_headroom",
            opts.tolerance / conv.final_delta,
        );
    }
}

/// Options controlling an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterOptions {
    /// Maximum number of sweeps before giving up.
    pub max_iterations: usize,
    /// Convergence tolerance on the ∞-norm of successive iterates'
    /// difference.
    pub tolerance: f64,
}

impl Default for IterOptions {
    fn default() -> Self {
        IterOptions {
            max_iterations: 10_000,
            tolerance: 1e-12,
        }
    }
}

/// Convergence report returned together with the solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final ∞-norm difference between successive iterates.
    pub final_delta: f64,
}

/// Solves `A·x = b` by Gauss–Seidel iteration, starting from `x0`.
///
/// # Errors
///
/// * [`LinAlgError::NotSquare`] when `A` is not square.
/// * [`LinAlgError::Singular`] when a diagonal entry is zero.
/// * [`LinAlgError::NotConverged`] when the tolerance is not met within the
///   iteration budget.
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &IterOptions,
) -> Result<(Vec<f64>, Convergence)> {
    check_square(a, b, x0)?;
    let n = a.rows();
    let diag = checked_diagonal(a)?;
    let mut span = telemetry::span("sparsela.solve");
    let mut flight = telemetry::SolveDiag::new("gauss_seidel");
    let mut x = x0.to_vec();
    let mut delta = f64::INFINITY;
    for it in 1..=opts.max_iterations {
        delta = 0.0;
        for r in 0..n {
            let mut acc = b[r];
            for (c, v) in a.row(r) {
                if c != r {
                    acc -= v * x[c];
                }
            }
            let new = acc / diag[r];
            delta = delta.max((new - x[r]).abs());
            x[r] = new;
        }
        if telemetry::enabled() {
            flight.push_residual(delta);
        }
        if delta <= opts.tolerance {
            telemetry::work::count_iterations(it as u64);
            let conv = Convergence {
                iterations: it,
                final_delta: delta,
            };
            flight.iterations = it as u64;
            flight.record_on(&mut span);
            record_solve("gauss_seidel", &conv, opts);
            return Ok((x, conv));
        }
    }
    telemetry::work::count_iterations(opts.max_iterations as u64);
    flight.iterations = opts.max_iterations as u64;
    flight.record_on(&mut span);
    telemetry::counter("solver.not_converged", 1);
    Err(LinAlgError::NotConverged {
        iterations: opts.max_iterations,
        residual: delta,
        tolerance: opts.tolerance,
    })
}

/// Solves `A·x = b` by BiCGStab with Jacobi (diagonal) preconditioning,
/// starting from `x0`.
///
/// BiCGStab is the workspace's Krylov option for the ill-conditioned,
/// non-symmetric systems that steady-state and absorbing analyses produce:
/// where stationary sweeps such as Gauss–Seidel converge linearly
/// at a rate set by the spectral radius, BiCGStab typically needs far fewer
/// matrix–vector products, and a good initial guess (warm start from a
/// neighbouring parameter point) directly shortens the iteration.
///
/// Convergence is declared on `‖r‖∞ ≤ opts.tolerance` where `r = b − A·x`
/// is the true (unpreconditioned) residual.
///
/// # Errors
///
/// * [`LinAlgError::NotSquare`] when `A` is not square.
/// * [`LinAlgError::Singular`] when a diagonal entry is zero (the Jacobi
///   preconditioner is undefined).
/// * [`LinAlgError::NotConverged`] when the tolerance is not met within the
///   iteration budget or the recurrence breaks down.
pub fn bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &IterOptions,
) -> Result<(Vec<f64>, Convergence)> {
    check_square(a, b, x0)?;
    let n = a.rows();
    let inv_diag: Vec<f64> = checked_diagonal(a)?.iter().map(|d| 1.0 / d).collect();
    let mut span = telemetry::span("sparsela.solve");
    let mut flight = telemetry::SolveDiag::new("bicgstab");

    let mut x = x0.to_vec();
    let mut r = {
        let mut ax = vec![0.0; n];
        a.mul_vec_into(&x, &mut ax);
        b.iter()
            .zip(&ax)
            .map(|(bi, axi)| bi - axi)
            .collect::<Vec<f64>>()
    };
    let r_shadow = r.clone();
    let mut rho_prev = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut p_hat = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut s_hat = vec![0.0; n];
    let mut t = vec![0.0; n];

    let mut delta = crate::vector::norm_inf(&r);
    if delta <= opts.tolerance {
        let conv = Convergence {
            iterations: 0,
            final_delta: delta,
        };
        flight.record_on(&mut span);
        record_solve("bicgstab", &conv, opts);
        return Ok((x, conv));
    }

    let finish = |x: Vec<f64>,
                  it: usize,
                  delta: f64,
                  flight: &mut telemetry::SolveDiag,
                  span: &mut telemetry::SpanGuard| {
        telemetry::work::count_iterations(it as u64);
        let conv = Convergence {
            iterations: it,
            final_delta: delta,
        };
        flight.iterations = it as u64;
        flight.record_on(span);
        record_solve("bicgstab", &conv, opts);
        Ok((x, conv))
    };

    let mut performed = 0usize;
    for it in 1..=opts.max_iterations {
        performed = it;
        let rho: f64 = crate::vector::dot(&r_shadow, &r);
        if rho == 0.0 || !rho.is_finite() {
            break; // breakdown: shadow residual orthogonal to residual
        }
        let beta = (rho / rho_prev) * (alpha / omega);
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        for i in 0..n {
            p_hat[i] = p[i] * inv_diag[i];
        }
        a.mul_vec_into(&p_hat, &mut v);
        let rv = crate::vector::dot(&r_shadow, &v);
        if rv == 0.0 || !rv.is_finite() {
            break;
        }
        alpha = rho / rv;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        delta = crate::vector::norm_inf(&s);
        if telemetry::enabled() {
            flight.push_residual(delta);
        }
        if delta <= opts.tolerance {
            crate::vector::axpy(alpha, &p_hat, &mut x);
            return finish(x, it, delta, &mut flight, &mut span);
        }
        for i in 0..n {
            s_hat[i] = s[i] * inv_diag[i];
        }
        a.mul_vec_into(&s_hat, &mut t);
        let tt = crate::vector::dot(&t, &t);
        if tt == 0.0 || !tt.is_finite() {
            break;
        }
        omega = crate::vector::dot(&t, &s) / tt;
        if omega == 0.0 || !omega.is_finite() {
            break;
        }
        for i in 0..n {
            x[i] += alpha * p_hat[i] + omega * s_hat[i];
        }
        for i in 0..n {
            r[i] = s[i] - omega * t[i];
        }
        delta = crate::vector::norm_inf(&r);
        if telemetry::enabled() {
            flight.push_residual(delta);
        }
        if delta <= opts.tolerance {
            return finish(x, it, delta, &mut flight, &mut span);
        }
        rho_prev = rho;
    }
    telemetry::work::count_iterations(performed as u64);
    flight.iterations = performed as u64;
    flight.record_on(&mut span);
    telemetry::counter("solver.not_converged", 1);
    Err(LinAlgError::NotConverged {
        iterations: performed,
        residual: delta,
        tolerance: opts.tolerance,
    })
}

/// Residual `‖A·x − b‖∞` — useful for verifying any solver's output.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn residual_inf(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    crate::vector::diff_norm_inf(&ax, b)
}

fn check_square(a: &CsrMatrix, b: &[f64], x0: &[f64]) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(LinAlgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != a.rows() || x0.len() != a.rows() {
        return Err(LinAlgError::DimensionMismatch {
            context: "iterative solve right-hand side / initial guess".to_string(),
            expected: (a.rows(), 1),
            found: (b.len(), x0.len()),
        });
    }
    Ok(())
}

fn checked_diagonal(a: &CsrMatrix) -> Result<Vec<f64>> {
    let diag = a.diagonal();
    for (i, d) in diag.iter().enumerate() {
        if *d == 0.0 || !d.is_finite() {
            return Err(LinAlgError::Singular { pivot: i });
        }
    }
    Ok(diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        // Tridiagonal [−1, 2, −1]: symmetric positive definite, so both
        // methods converge.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn gauss_seidel_solves_spd_system() {
        let a = laplacian_1d(8);
        let b = vec![1.0; 8];
        let (x, conv) = gauss_seidel(&a, &b, &[0.0; 8], &IterOptions::default()).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-9);
        assert!(conv.iterations > 1);
    }

    #[test]
    fn zero_diagonal_is_singular() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        let r = gauss_seidel(&a, &[1.0, 1.0], &[0.0, 0.0], &IterOptions::default());
        assert!(matches!(r, Err(LinAlgError::Singular { .. })));
    }

    #[test]
    fn divergent_system_reports_not_converged() {
        // Gauss–Seidel diverges when the matrix is not diagonally dominant
        // enough: on [[1, 2], [3, 1]] each sweep multiplies the error by 6.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let opts = IterOptions {
            max_iterations: 50,
            ..Default::default()
        };
        let r = gauss_seidel(&a, &[1.0, 1.0], &[0.0, 0.0], &opts);
        assert!(matches!(r, Err(LinAlgError::NotConverged { .. })));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = laplacian_1d(3);
        let r = gauss_seidel(&a, &[1.0; 2], &[0.0; 3], &IterOptions::default());
        assert!(matches!(r, Err(LinAlgError::DimensionMismatch { .. })));
    }

    #[test]
    fn bicgstab_solves_spd_system() {
        let a = laplacian_1d(16);
        let b = vec![1.0; 16];
        let (x, conv) = bicgstab(&a, &b, &[0.0; 16], &IterOptions::default()).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-9);
        assert!(conv.iterations >= 1);
    }

    #[test]
    fn bicgstab_needs_fewer_iterations_than_sweeps() {
        let a = laplacian_1d(32);
        let b = vec![1.0; 32];
        let opts = IterOptions::default();
        let (_, cg) = gauss_seidel(&a, &b, &[0.0; 32], &opts).unwrap();
        let (_, cb) = bicgstab(&a, &b, &[0.0; 32], &opts).unwrap();
        assert!(
            cb.iterations < cg.iterations,
            "bicgstab {} vs gauss-seidel {}",
            cb.iterations,
            cg.iterations
        );
    }

    #[test]
    fn bicgstab_warm_start_shortens_iteration() {
        let a = laplacian_1d(24);
        let b = vec![1.0; 24];
        let opts = IterOptions::default();
        let (x, _) = bicgstab(&a, &b, &[0.0; 24], &opts).unwrap();
        // Continuation scenario: a slightly perturbed right-hand side solved
        // cold vs warm-started from the neighbouring solution.
        let b2: Vec<f64> = (0..24).map(|i| 1.0 + 1e-3 * (i as f64 / 24.0)).collect();
        let (_, cold) = bicgstab(&a, &b2, &[0.0; 24], &opts).unwrap();
        let (_, warm) = bicgstab(&a, &b2, &x, &opts).unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn bicgstab_converged_guess_returns_immediately() {
        let a = laplacian_1d(4);
        let b = a.mul_vec(&[1.0, 2.0, 3.0, 4.0]);
        let (x, conv) = bicgstab(&a, &b, &[1.0, 2.0, 3.0, 4.0], &IterOptions::default()).unwrap();
        assert_eq!(conv.iterations, 0);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn bicgstab_zero_diagonal_is_singular() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        let r = bicgstab(&a, &[1.0, 1.0], &[0.0, 0.0], &IterOptions::default());
        assert!(matches!(r, Err(LinAlgError::Singular { .. })));
    }

    #[test]
    fn bicgstab_budget_exhaustion_reports_not_converged() {
        let a = laplacian_1d(32);
        let opts = IterOptions {
            max_iterations: 1,
            tolerance: 1e-15,
        };
        let r = bicgstab(&a, &[1.0; 32], &[0.0; 32], &opts);
        assert!(matches!(r, Err(LinAlgError::NotConverged { .. })));
    }

    proptest! {
        /// BiCGStab agrees with the stationary sweeps on random strictly
        /// diagonally dominant systems (ISSUE 8 satellite).
        #[test]
        fn bicgstab_agrees_with_sweeps(
            offdiag in proptest::collection::vec(-0.2..0.2f64, 36),
            b in proptest::collection::vec(-5.0..5.0f64, 6),
        ) {
            let mut coo = CooMatrix::new(6, 6);
            for r in 0..6 {
                for c in 0..6 {
                    if r == c {
                        coo.push(r, c, 2.0);
                    } else {
                        coo.push(r, c, offdiag[r * 6 + c]);
                    }
                }
            }
            let a = coo.to_csr();
            let opts = IterOptions::default();
            let (xb, _) = bicgstab(&a, &b, &[0.0; 6], &opts).unwrap();
            let (xg, _) = gauss_seidel(&a, &b, &[0.0; 6], &opts).unwrap();
            prop_assert!(crate::vector::diff_norm_inf(&xb, &xg) < 1e-8);
            prop_assert!(residual_inf(&a, &xb, &b) < 1e-8);
        }
    }
}
