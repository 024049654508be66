//! Dense matrix exponential by scaling-and-squaring with Padé(13)
//! approximants (Higham 2005), plus the block-augmentation trick for the
//! integral `∫₀ᵗ e^{Qs} ds` needed by accumulated-reward solutions.
//!
//! Uniformization is the method of choice for CTMC transients, but its cost
//! grows linearly in `Λ·t`. The guarded-operation models are *stiff*:
//! message rates are ~10³/h while the horizons are ~10⁴ h, so `Λ·t ≈ 10⁷⁻⁸`.
//! For the small state spaces produced by the GSU SANs (tens to hundreds of
//! states), the dense exponential costs `O(n³ log(‖Q‖t))` and wins by orders
//! of magnitude. [`crate::transient`] picks between the two engines per
//! horizon by a rough flop count of each.

use sparsela::{DenseMatrix, LinAlgError};

use crate::{MarkovError, Result};

/// Padé(13) numerator coefficients (Higham, *The scaling and squaring method
/// for the matrix exponential revisited*, 2005).
const PADE13: [f64; 14] = [
    64_764_752_532_480_000.0,
    32_382_376_266_240_000.0,
    7_771_770_303_897_600.0,
    1_187_353_796_428_800.0,
    129_060_195_264_000.0,
    10_559_470_521_600.0,
    670_442_572_800.0,
    33_522_128_640.0,
    1_323_241_920.0,
    40_840_800.0,
    960_960.0,
    16_380.0,
    182.0,
    1.0,
];

/// The ∞-norm threshold below which a single Padé(13) evaluation meets
/// double-precision accuracy.
const THETA13: f64 = 5.371_920_351_148_152;

/// Computes `exp(A)` for a square dense matrix.
///
/// # Errors
///
/// * [`MarkovError::InvalidModel`] when `A` is not square or contains
///   non-finite entries.
/// * [`MarkovError::LinAlg`] when the internal Padé solve fails (does not
///   happen for generator matrices).
pub fn expm(a: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != a.cols() {
        return Err(MarkovError::InvalidModel {
            context: format!(
                "expm requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    if !sparsela::vector::all_finite(a.as_slice()) {
        return Err(MarkovError::InvalidModel {
            context: "expm input contains non-finite entries".to_string(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(DenseMatrix::zeros(0, 0));
    }

    // Scaling: bring ‖A/2^s‖∞ under the Padé(13) threshold.
    let norm = a.norm_inf();
    let s = if norm > THETA13 {
        (norm / THETA13).log2().ceil() as u32
    } else {
        0
    };
    // Each squaring doubles the covered horizon, so `s` plays the role an
    // iteration count plays for the sweep solvers: it is the deterministic
    // work knob of the method, and feeds the same flight-recorder and
    // work-ratchet channels.
    telemetry::work::count_expm(1);
    telemetry::work::count_iterations(s as u64);
    let mut span = telemetry::span("markov.solve.expm");
    let mut flight = telemetry::SolveDiag::new("expm");
    flight.iterations = s as u64;
    flight.record_on(&mut span);
    let mut scaled = a.clone();
    scaled.scale(0.5f64.powi(s as i32));

    let mut r = pade13(&scaled)?;
    for _ in 0..s {
        r = r.mul(&r)?;
    }
    Ok(r)
}

/// Computes `exp(A)` and the integral `F = ∫₀¹ exp(A·u) du · A`… more
/// usefully phrased: returns `(E, F)` with `E = exp(A)` and
/// `F = ∫₀¹ exp(A·s) ds` evaluated via the block augmentation
///
/// ```text
/// exp([[A, I], [0, 0]]) = [[exp(A), ∫₀¹ exp(A·s) ds], [0, I]]
/// ```
///
/// To integrate over `[0, t]`, pass `A = Q·t` and multiply the returned `F`
/// by `t` (see [`expm_with_integral_scaled`]).
///
/// # Errors
///
/// Same failure modes as [`expm`].
pub fn expm_with_integral(a: &DenseMatrix) -> Result<(DenseMatrix, DenseMatrix)> {
    if a.rows() != a.cols() {
        return Err(MarkovError::InvalidModel {
            context: format!(
                "expm_with_integral requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    let n = a.rows();
    let mut block = DenseMatrix::zeros(2 * n, 2 * n);
    for r in 0..n {
        for c in 0..n {
            block[(r, c)] = a[(r, c)];
        }
        block[(r, n + r)] = 1.0;
    }
    let e = expm(&block)?;
    let mut top_left = DenseMatrix::zeros(n, n);
    let mut top_right = DenseMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            top_left[(r, c)] = e[(r, c)];
            top_right[(r, c)] = e[(r, n + c)];
        }
    }
    Ok((top_left, top_right))
}

/// Returns `(exp(Q·t), ∫₀ᵗ exp(Q·s) ds)`.
///
/// # Errors
///
/// Same failure modes as [`expm`].
pub fn expm_with_integral_scaled(q: &DenseMatrix, t: f64) -> Result<(DenseMatrix, DenseMatrix)> {
    if !t.is_finite() || t < 0.0 {
        return Err(MarkovError::InvalidModel {
            context: format!("time horizon must be finite and >= 0, got {t}"),
        });
    }
    let mut qt = q.clone();
    qt.scale(t);
    // exp([[Qt, I],[0,0]]) gives ∫₀¹ exp(Qt·u) du = (1/t)∫₀ᵗ exp(Q·s) ds.
    let (e, mut f) = expm_with_integral(&qt)?;
    f.scale(t);
    Ok((e, f))
}

/// Single Padé(13) rational approximation `r13(A) ≈ exp(A)` for
/// `‖A‖∞ ≤ θ13`.
fn pade13(a: &DenseMatrix) -> Result<DenseMatrix> {
    let n = a.rows();
    let ident = DenseMatrix::identity(n);
    let a2 = a.mul(a)?;
    let a4 = a2.mul(&a2)?;
    let a6 = a2.mul(&a4)?;
    let b = &PADE13;

    // U = A · (A6·(b13·A6 + b11·A4 + b9·A2) + b7·A6 + b5·A4 + b3·A2 + b1·I)
    let mut inner_u = DenseMatrix::zeros(n, n);
    inner_u.add_scaled(b[13], &a6).map_err(MarkovError::from)?;
    inner_u.add_scaled(b[11], &a4).map_err(MarkovError::from)?;
    inner_u.add_scaled(b[9], &a2).map_err(MarkovError::from)?;
    let mut u = a6.mul(&inner_u)?;
    u.add_scaled(b[7], &a6).map_err(MarkovError::from)?;
    u.add_scaled(b[5], &a4).map_err(MarkovError::from)?;
    u.add_scaled(b[3], &a2).map_err(MarkovError::from)?;
    u.add_scaled(b[1], &ident).map_err(MarkovError::from)?;
    let u = a.mul(&u)?;

    // V = A6·(b12·A6 + b10·A4 + b8·A2) + b6·A6 + b4·A4 + b2·A2 + b0·I
    let mut inner_v = DenseMatrix::zeros(n, n);
    inner_v.add_scaled(b[12], &a6).map_err(MarkovError::from)?;
    inner_v.add_scaled(b[10], &a4).map_err(MarkovError::from)?;
    inner_v.add_scaled(b[8], &a2).map_err(MarkovError::from)?;
    let mut v = a6.mul(&inner_v)?;
    v.add_scaled(b[6], &a6).map_err(MarkovError::from)?;
    v.add_scaled(b[4], &a4).map_err(MarkovError::from)?;
    v.add_scaled(b[2], &a2).map_err(MarkovError::from)?;
    v.add_scaled(b[0], &ident).map_err(MarkovError::from)?;

    // Solve (V − U)·R = (V + U) column by column.
    let mut vm = v.clone();
    vm.add_scaled(-1.0, &u).map_err(MarkovError::from)?;
    let mut vp = v;
    vp.add_scaled(1.0, &u).map_err(MarkovError::from)?;

    let lu = vm.lu().map_err(|e| match e {
        LinAlgError::Singular { pivot } => MarkovError::LinAlg(LinAlgError::Singular { pivot }),
        other => MarkovError::LinAlg(other),
    })?;
    let mut r = DenseMatrix::zeros(n, n);
    let mut col = vec![0.0; n];
    for c in 0..n {
        for (ri, item) in col.iter_mut().enumerate() {
            *item = vp[(ri, c)];
        }
        let x = lu.solve(&col)?;
        for (ri, &item) in x.iter().enumerate() {
            r[(ri, c)] = item;
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .fold(0.0, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z = DenseMatrix::zeros(3, 3);
        let e = expm(&z).unwrap();
        assert_eq!(max_abs_diff(&e, &DenseMatrix::identity(3)), 0.0);
    }

    #[test]
    fn exp_of_diagonal() {
        let mut d = DenseMatrix::zeros(2, 2);
        d[(0, 0)] = 1.0;
        d[(1, 1)] = -2.0;
        let e = expm(&d).unwrap();
        assert!((e[(0, 0)] - 1f64.exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - (-2f64).exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn exp_of_nilpotent() {
        // N = [[0,1],[0,0]] => exp(N) = I + N exactly.
        let mut nmat = DenseMatrix::zeros(2, 2);
        nmat[(0, 1)] = 1.0;
        let e = expm(&nmat).unwrap();
        assert!((e[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((e[(0, 1)] - 1.0).abs() < 1e-13);
        assert!((e[(1, 1)] - 1.0).abs() < 1e-14);
        assert!(e[(1, 0)].abs() < 1e-14);
    }

    #[test]
    fn exp_of_rotation_generator() {
        // A = [[0, -θ],[θ, 0]] => exp(A) = rotation by θ.
        let theta = 1.3;
        let mut a = DenseMatrix::zeros(2, 2);
        a[(0, 1)] = -theta;
        a[(1, 0)] = theta;
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - theta.cos()).abs() < 1e-12);
        assert!((e[(0, 1)] + theta.sin()).abs() < 1e-12);
        assert!((e[(1, 0)] - theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn generator_exponential_is_stochastic_even_when_stiff() {
        // Two-state generator with a huge rate and long horizon: Q·t has
        // norm ~1e8, exercising deep scaling.
        let q = DenseMatrix::from_rows(&[&[-5000.0, 5000.0], &[1000.0, -1000.0]]);
        let mut qt = q.clone();
        qt.scale(10_000.0);
        let e = expm(&qt).unwrap();
        for r in 0..2 {
            let sum: f64 = (0..2).map(|c| e[(r, c)]).sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
            for c in 0..2 {
                assert!(e[(r, c)] >= -1e-9);
            }
        }
        // Should equal the steady state (1/6, 5/6) to high accuracy.
        assert!((e[(0, 0)] - 1.0 / 6.0).abs() < 1e-6);
        assert!((e[(0, 1)] - 5.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn semigroup_property() {
        let a = DenseMatrix::from_rows(&[&[-1.0, 1.0, 0.0], &[0.5, -1.5, 1.0], &[0.2, 0.0, -0.2]]);
        let e1 = expm(&a).unwrap();
        let mut a2 = a.clone();
        a2.scale(2.0);
        let e2 = expm(&a2).unwrap();
        let e1e1 = e1.mul(&e1).unwrap();
        assert!(max_abs_diff(&e2, &e1e1) < 1e-10);
    }

    #[test]
    fn integral_of_zero_generator_is_t_identity() {
        let q = DenseMatrix::zeros(2, 2);
        let (e, f) = expm_with_integral_scaled(&q, 3.0).unwrap();
        assert!(max_abs_diff(&e, &DenseMatrix::identity(2)) < 1e-13);
        let mut ti = DenseMatrix::identity(2);
        ti.scale(3.0);
        assert!(max_abs_diff(&f, &ti) < 1e-12);
    }

    #[test]
    fn integral_matches_quadrature() {
        let q = DenseMatrix::from_rows(&[&[-2.0, 2.0], &[1.0, -1.0]]);
        let t = 1.5;
        let (_, f) = expm_with_integral_scaled(&q, t).unwrap();
        // Simpson quadrature of ∫₀ᵗ exp(Q·s) ds.
        let steps = 2000;
        let h = t / steps as f64;
        let mut acc = DenseMatrix::zeros(2, 2);
        for i in 0..=steps {
            let mut qs = q.clone();
            qs.scale(i as f64 * h);
            let e = expm(&qs).unwrap();
            let w = if i == 0 || i == steps {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            };
            acc.add_scaled(w * h / 3.0, &e).unwrap();
        }
        assert!(max_abs_diff(&f, &acc) < 1e-6);
    }

    #[test]
    fn rejects_non_square_and_nan() {
        assert!(expm(&DenseMatrix::zeros(2, 3)).is_err());
        let mut a = DenseMatrix::zeros(2, 2);
        a[(0, 0)] = f64::NAN;
        assert!(expm(&a).is_err());
        let q = DenseMatrix::zeros(2, 2);
        assert!(expm_with_integral_scaled(&q, -1.0).is_err());
        assert!(expm_with_integral_scaled(&q, f64::INFINITY).is_err());
    }

    #[test]
    fn empty_matrix() {
        let e = expm(&DenseMatrix::zeros(0, 0)).unwrap();
        assert_eq!(e.rows(), 0);
    }
}
