//! BLAS-1 style vector kernels.
//!
//! All functions panic on length mismatch: these are internal hot-path
//! kernels and a mismatch is always a programming error, never a data error.

/// Computes the dot product `x · y`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// ```
/// assert_eq!(sparsela::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// In-place `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// ```
/// let mut y = vec![1.0, 1.0];
/// sparsela::vector::axpy(2.0, &[1.0, 3.0], &mut y);
/// assert_eq!(y, vec![3.0, 7.0]);
/// ```
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    telemetry::work::count_axpy(1);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place `x ← alpha * x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// The Euclidean norm `√(Σxᵢ²)`.
pub fn norm_l2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// The max-norm `max|xᵢ|` (0 for an empty vector).
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// The max-norm of the difference `max|xᵢ − yᵢ|`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn diff_norm_inf(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "diff_norm_inf: length mismatch");
    x.iter().zip(y).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
}

/// Rescales `x` in place so that its entries sum to one.
///
/// Used to keep probability vectors stochastic in the face of floating-point
/// drift. Does nothing when the sum is zero or not finite.
///
/// Returns the sum prior to normalization.
pub fn normalize_l1(x: &mut [f64]) -> f64 {
    let s: f64 = x.iter().sum();
    if s != 0.0 && s.is_finite() {
        let inv = 1.0 / s;
        for xi in x.iter_mut() {
            *xi *= inv;
        }
    }
    s
}

/// Returns `true` when every entry is finite (no NaN / ±∞).
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Returns `true` when `x` is a probability vector: non-negative entries
/// summing to 1 within `tol`.
pub fn is_stochastic(x: &[f64], tol: f64) -> bool {
    x.iter().all(|&v| v >= -tol) && (x.iter().sum::<f64>() - 1.0).abs() <= tol
}

/// Returns `true` when `a` and `b` differ by at most `tol` (absolute), the
/// workspace's sanctioned alternative to `==`/`!=` between floats. NaN
/// compares unequal to everything, matching IEEE semantics.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[-3.0]), -6.0);
    }

    #[test]
    fn axpy_with_zero_alpha_is_identity() {
        let mut y = vec![1.0, -2.0, 5.5];
        let before = y.clone();
        axpy(0.0, &[9.0, 9.0, 9.0], &mut y);
        assert_eq!(y, before);
    }

    #[test]
    fn norms_of_unit_vectors() {
        let e = [0.0, 1.0, 0.0];
        assert_eq!(norm_l2(&e), 1.0);
        assert_eq!(norm_inf(&e), 1.0);
    }

    #[test]
    fn norm_inf_of_empty_is_zero() {
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn normalize_makes_stochastic() {
        let mut x = vec![1.0, 3.0];
        let s = normalize_l1(&mut x);
        assert_eq!(s, 4.0);
        assert!(is_stochastic(&x, 1e-15));
        assert_eq!(x, vec![0.25, 0.75]);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0, 0.0];
        normalize_l1(&mut x);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn stochastic_rejects_negative() {
        assert!(!is_stochastic(&[-0.5, 1.5], 1e-9));
        assert!(is_stochastic(&[0.5, 0.5], 1e-9));
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn dot_is_symmetric(x in proptest::collection::vec(-1e3..1e3f64, 0..20)) {
            let y: Vec<f64> = x.iter().rev().cloned().collect();
            prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-9);
        }

        #[test]
        fn cauchy_schwarz(
            x in proptest::collection::vec(-1e3..1e3f64, 1..20),
        ) {
            let y: Vec<f64> = x.iter().map(|v| v * 0.5 + 1.0).collect();
            prop_assert!(dot(&x, &y).abs() <= norm_l2(&x) * norm_l2(&y) + 1e-6);
        }

        #[test]
        fn normalize_yields_probability_vector(
            x in proptest::collection::vec(1e-3..1e3f64, 1..30),
        ) {
            let mut x = x;
            normalize_l1(&mut x);
            prop_assert!(is_stochastic(&x, 1e-12));
        }

        #[test]
        fn triangle_inequality_inf(
            x in proptest::collection::vec(-1e3..1e3f64, 1..20),
        ) {
            let y: Vec<f64> = x.iter().map(|v| -v * 2.0).collect();
            let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
            prop_assert!(norm_inf(&sum) <= norm_inf(&x) + norm_inf(&y) + 1e-9);
        }
    }
}
