//! Dense matrix exponential by scaling-and-squaring with Padé(13)
//! approximants (Higham 2005), and the integral `∫₀ᵗ e^{Qs} ds` needed by
//! accumulated-reward solutions from the same exponential.
//!
//! Uniformization is the method of choice for CTMC transients, but its cost
//! grows linearly in `Λ·t`. The guarded-operation models are *stiff*:
//! message rates are ~10³/h while the horizons are ~10⁴ h, so `Λ·t ≈ 10⁷⁻⁸`.
//! For the small state spaces produced by the GSU SANs (tens to hundreds of
//! states), the dense exponential costs `O(n³ log(‖Q‖t))` and wins by orders
//! of magnitude. [`crate::transient`] picks between the two engines per
//! call by a calibrated cost model of each.
//!
//! The integral comes from Van Loan's block (*Computing integrals involving
//! the matrix exponential*, IEEE TAC 1978):
//!
//! ```text
//! exp([[A, I], [0, 0]]) = [[exp(A), ∫₀¹ exp(A·s) ds], [0, I]]
//! ```
//!
//! The block's bottom rows are known at every step — zero in each Padé
//! product, `[0 | b·I]` in the Padé sums, `[0 | I]` once solved — so only
//! its top rows `[E | F]` are carried, as one `n × 2n` slab. A product
//! costs `X₁·[X₂ | Y₂]`, the Padé solve is an LU of the top slab pivoted in
//! its first `n` columns, and a squaring is `E ← E², F ← E·F + F`: about
//! `2n³` per squaring, where the dense `2n` block cost `8n³` and `π`
//! needed a separate `n × n` exponential besides.
//!
//! Every sum keeps the dense block's order, and the terms it drops are the
//! zero half's `±0` products: a sum that starts at `+0` never becomes
//! `−0`, so adding them changes no bit. So `(E, F)` are bitwise the top
//! blocks of [`expm`] applied to the explicit `2n × 2n` block, and `E` is
//! bitwise `expm(A)` whenever the `+1` the identity adds to the block's norm
//! leaves the number of squarings unchanged. [`expm`] is the same routine
//! without the right half.

use std::borrow::Cow;

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
    scale_and_square(a, false, "expm")
}

/// Returns `(E, F)` with `E = exp(A)` and `F = ∫₀¹ exp(A·s) ds`: the top
/// blocks of `exp([[A, I], [0, 0]])`, computed on the block's top rows (see
/// the module docs).
///
/// To integrate over `[0, t]`, pass `A = Q·t` and multiply the returned `F`
/// by `t` (see [`expm_with_integral_scaled`]).
///
/// # Errors
///
/// Same failure modes as [`expm`].
pub fn expm_with_integral(a: &DenseMatrix) -> Result<(DenseMatrix, DenseMatrix)> {
    let top = scale_and_square(a, true, "expm_with_integral")?;
    Ok((half(&top, 0), half(&top, a.rows())))
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

/// The dense products' worth of one Padé(13) evaluation besides the
/// squarings: six products (`A²`, `A⁴`, `A⁶` and the three that form `U`
/// and `V`) and the LU solve, counted as two. A scaling-and-squaring
/// exponential costs `s + PADE_PRODUCTS` products of its slab.
pub(crate) const PADE_PRODUCTS: u32 = 8;

/// The number of squarings `s` that brings a matrix of ∞-norm `norm` under
/// the Padé(13) threshold: `‖A/2^s‖∞ ≤ θ13`.
pub(crate) fn squarings(norm: f64) -> u32 {
    if norm > THETA13 {
        (norm / THETA13).log2().ceil() as u32
    } else {
        0
    }
}

/// Scaling and squaring on `A`, or, with `integral`, on the top rows of
/// `[[A, I], [0, 0]]`: returns `exp(A)`, or with `integral` the top rows
/// `[exp(A) | ∫₀¹ exp(A·s) ds]`.
fn scale_and_square(a: &DenseMatrix, integral: bool, name: &str) -> Result<DenseMatrix> {
    if a.rows() != a.cols() {
        return Err(MarkovError::InvalidModel {
            context: format!(
                "{name} requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    if !sparsela::vector::all_finite(a.as_slice()) {
        return Err(MarkovError::InvalidModel {
            context: format!("{name} input contains non-finite entries"),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(DenseMatrix::zeros(0, 0));
    }

    // Scaling: bring the ∞-norm under the Padé(13) threshold. Each row of
    // the block adds the identity's 1 to the same row of `A`.
    let norm = if integral {
        a.norm_inf() + 1.0
    } else {
        a.norm_inf()
    };
    let s = squarings(norm);
    // Each squaring doubles the covered horizon, so `s` plays the role an
    // iteration count plays for the sweep solvers: it is the deterministic
    // work knob of the method, and feeds the same flight-recorder and
    // work-ratchet channels.
    telemetry::work::count_expm(1);
    telemetry::work::count_iterations(s as u64);
    let m = if integral { 2 * n } else { n };
    telemetry::work::count_dense_flops(
        u64::from(s + PADE_PRODUCTS) * (n as u64) * (n as u64) * (m as u64),
    );
    let mut span = telemetry::span("markov.solve.expm");
    let mut flight = telemetry::SolveDiag::new("expm");
    flight.iterations = s as u64;
    flight.record_on(&mut span);

    // The top rows `[X | Y]` of the scaled block: `X = A/2^s`, `Y = I/2^s`.
    let c = 0.5f64.powi(s as i32);
    let mut top = DenseMatrix::zeros(n, m);
    for r in 0..n {
        for col in 0..n {
            top[(r, col)] = a[(r, col)] * c;
        }
        if integral {
            top[(r, n + r)] = c;
        }
    }
    let mut top = pade13(&top)?;
    // [E | F]² has top rows [E² | E·F + F]: one product of E with both
    // halves, then the right half's carry.
    for _ in 0..s {
        let mut next = left(&top).mul(&top)?;
        add_right_half(&mut next, 1.0, &top);
        top = next;
    }
    Ok(top)
}

/// The `n × n` block of an `n × m` top slab starting at column `from`.
fn half(top: &DenseMatrix, from: usize) -> DenseMatrix {
    let n = top.rows();
    let mut out = DenseMatrix::zeros(n, n);
    for r in 0..n {
        out.as_mut_slice()[r * n..(r + 1) * n].copy_from_slice(&top.row(r)[from..from + n]);
    }
    out
}

/// The left `n × n` block `X` of a top slab `[X | Y]`: the slab itself
/// when it has no right half.
fn left(top: &DenseMatrix) -> Cow<'_, DenseMatrix> {
    if top.cols() == top.rows() {
        Cow::Borrowed(top)
    } else {
        Cow::Owned(half(top, 0))
    }
}

/// `top ← top + alpha · [0 | Y]` for the right half `Y` of `other`; a
/// no-op on a slab without one.
fn add_right_half(top: &mut DenseMatrix, alpha: f64, other: &DenseMatrix) {
    let (n, m) = (top.rows(), top.cols());
    for (row, other) in top
        .as_mut_slice()
        .chunks_exact_mut(m)
        .zip(other.as_slice().chunks_exact(m))
    {
        for (t, o) in row[n..].iter_mut().zip(&other[n..]) {
            *t += alpha * o;
        }
    }
}

/// `top[i][i] += beta`: the `β·I` of a Padé sum, which lands on the block's
/// left half (its bottom-right `β·I` is implied).
fn add_to_diagonal(top: &mut DenseMatrix, beta: f64) {
    for i in 0..top.rows() {
        top[(i, i)] += beta;
    }
}

/// Single Padé(13) rational approximation `r13(A) ≈ exp(A)` for
/// `‖A‖∞ ≤ θ13`, on the top rows `a = [X | Y]` of the scaled block (or
/// `X` alone): returns the top rows of `r13`.
///
/// Every power of the block, and every sum of powers, has zero bottom rows,
/// so a product's top rows are `X₁·[X₂ | Y₂]`: one `n × n` by `n × m`
/// product. The one right factor with a nonzero bottom row, `w` (its
/// `b1·I`), gets its extra term where `U` is formed.
fn pade13(a: &DenseMatrix) -> Result<DenseMatrix> {
    let (n, m) = (a.rows(), a.cols());
    let a2 = left(a).mul(a)?;
    let a4 = left(&a2).mul(&a2)?;
    let a6 = left(&a2).mul(&a4)?;
    let b = &PADE13;

    // U = A · (A6·(b13·A6 + b11·A4 + b9·A2) + b7·A6 + b5·A4 + b3·A2 + b1·I)
    let mut inner_u = DenseMatrix::zeros(n, m);
    inner_u.add_scaled(b[13], &a6).map_err(MarkovError::from)?;
    inner_u.add_scaled(b[11], &a4).map_err(MarkovError::from)?;
    inner_u.add_scaled(b[9], &a2).map_err(MarkovError::from)?;
    // Each temporary slab is freed after its last use: at 50 states a slab
    // is 40 KB, and holding all eleven to the end raised the catalog
    // workload's peak RSS by ~0.15 MiB.
    let mut w = left(&a6).mul(&inner_u)?;
    drop(inner_u);
    w.add_scaled(b[7], &a6).map_err(MarkovError::from)?;
    w.add_scaled(b[5], &a4).map_err(MarkovError::from)?;
    w.add_scaled(b[3], &a2).map_err(MarkovError::from)?;
    add_to_diagonal(&mut w, b[1]);
    // `w`'s bottom-right block is b1·I, so A's right half Y adds b1·Y to
    // U's right half, after the products of its left half.
    let mut u = left(a).mul(&w)?;
    drop(w);
    add_right_half(&mut u, b[1], a);

    // V = A6·(b12·A6 + b10·A4 + b8·A2) + b6·A6 + b4·A4 + b2·A2 + b0·I
    let mut inner_v = DenseMatrix::zeros(n, m);
    inner_v.add_scaled(b[12], &a6).map_err(MarkovError::from)?;
    inner_v.add_scaled(b[10], &a4).map_err(MarkovError::from)?;
    inner_v.add_scaled(b[8], &a2).map_err(MarkovError::from)?;
    let mut v = left(&a6).mul(&inner_v)?;
    drop(inner_v);
    v.add_scaled(b[6], &a6).map_err(MarkovError::from)?;
    v.add_scaled(b[4], &a4).map_err(MarkovError::from)?;
    v.add_scaled(b[2], &a2).map_err(MarkovError::from)?;
    add_to_diagonal(&mut v, b[0]);
    drop((a2, a4, a6));

    // Solve (V − U)·R = (V + U).
    let mut vm = v.clone();
    vm.add_scaled(-1.0, &u).map_err(MarkovError::from)?;
    let mut vp = v;
    vp.add_scaled(1.0, &u).map_err(MarkovError::from)?;
    solve_top(vm, &vp)
}

/// The top rows of `R` in `(V − U)·R = (V + U)`, from the top rows `vm` and
/// `vp` of the two sides, whose bottom rows are `[0 | b0·I]`.
///
/// `R`'s bottom rows are then exactly `[0 | I]`, and partial pivoting never
/// picks a bottom row (their left half is zero), so the top rows take an LU
/// of the `n × m` slab `vm`, pivoted in its first `n` columns. Column `c`
/// of the right half has the unit vector at bottom row `c − n` of `R`, so
/// its back substitution subtracts the slab's column `c` last, exactly
/// where the dense `2n` solve did.
fn solve_top(mut lu: DenseMatrix, vp: &DenseMatrix) -> Result<DenseMatrix> {
    let (n, m) = (lu.rows(), lu.cols());
    let a = lu.as_mut_slice();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_val = a[k * m + k].abs();
        for r in (k + 1)..n {
            let v = a[r * m + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val == 0.0 || !pivot_val.is_finite() {
            return Err(MarkovError::LinAlg(LinAlgError::Singular { pivot: k }));
        }
        if pivot_row != k {
            let (head, tail) = a.split_at_mut(pivot_row * m);
            head[k * m..(k + 1) * m].swap_with_slice(&mut tail[..m]);
            perm.swap(k, pivot_row);
        }
        let (head, tail) = a.split_at_mut((k + 1) * m);
        let pivot = &head[k * m..];
        let inv_pivot = 1.0 / pivot[k];
        for row in tail.chunks_exact_mut(m) {
            let factor = row[k] * inv_pivot;
            row[k] = factor;
            if factor != 0.0 {
                for (x, &u) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                    *x -= factor * u;
                }
            }
        }
    }

    // Every column at once, row by row: each entry takes the same
    // subtractions, in the same order, as a solve of its column alone.
    let mut out = DenseMatrix::zeros(n, m);
    let x = out.as_mut_slice();
    for (row, &p) in x.chunks_exact_mut(m).zip(&perm) {
        row.copy_from_slice(vp.row(p));
    }
    // Forward substitution with the unit lower triangle.
    for r in 1..n {
        let (done, rest) = x.split_at_mut(r * m);
        let row = &mut rest[..m];
        for (k, xk) in done.chunks_exact(m).enumerate() {
            let l = a[r * m + k];
            for (xi, &v) in row.iter_mut().zip(xk) {
                *xi -= l * v;
            }
        }
    }
    // Back substitution with the upper triangle, then, in the right half,
    // the unit bottom entry.
    for r in (0..n).rev() {
        let (head, done) = x.split_at_mut((r + 1) * m);
        let row = &mut head[r * m..];
        let lu_row = &a[r * m..(r + 1) * m];
        for (&u, xk) in lu_row[r + 1..n].iter().zip(done.chunks_exact(m)) {
            for (xi, &v) in row.iter_mut().zip(xk) {
                *xi -= u * v;
            }
        }
        for (xi, &q) in row[n..].iter_mut().zip(&lu_row[n..]) {
            *xi -= q;
        }
        for xi in row.iter_mut() {
            *xi /= lu_row[r];
        }
    }
    Ok(out)
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

    /// A random generator over `n` states with about a third of its rates
    /// zero and its last state absorbing (a `-0.0` diagonal), scaled to
    /// `‖Q‖∞ = 1`.
    fn random_generator(n: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut q = DenseMatrix::zeros(n, n);
        for r in 0..n.saturating_sub(1) {
            for c in (0..n).filter(|&c| c != r) {
                let u = uniform();
                if u > 0.35 {
                    q[(r, c)] = u * 10f64.powf(3.0 * uniform() - 1.0);
                }
            }
        }
        for r in 0..n {
            let exit: f64 = (0..n).filter(|&c| c != r).map(|c| q[(r, c)]).sum();
            q[(r, r)] = -exit;
        }
        let norm = q.norm_inf();
        if norm > 0.0 {
            q.scale(1.0 / norm);
        }
        q
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn structured_pair_is_the_explicit_block_bit_for_bit() {
        for n in [1, 2, 3, 5, 8, 13, 20] {
            for (i, norm_t) in [0.3, 1.0, 4.9, 6.0, 47.0, 1e3, 2.5e4, 1e6, 6e7]
                .into_iter()
                .enumerate()
            {
                let mut qt = random_generator(n, (n * 100 + i) as u64);
                qt.scale(norm_t);
                let (e, f) = expm_with_integral(&qt).unwrap();
                let mut block = DenseMatrix::zeros(2 * n, 2 * n);
                for r in 0..n {
                    for c in 0..n {
                        block[(r, c)] = qt[(r, c)];
                    }
                    block[(r, n + r)] = 1.0;
                }
                let dense = expm(&block).unwrap();
                let mut top_left = DenseMatrix::zeros(n, n);
                let mut top_right = DenseMatrix::zeros(n, n);
                for r in 0..n {
                    for c in 0..n {
                        top_left[(r, c)] = dense[(r, c)];
                        top_right[(r, c)] = dense[(r, n + c)];
                    }
                }
                assert_eq!(bits(&e), bits(&top_left), "E, n = {n}, ‖Q‖t = {norm_t}");
                assert_eq!(bits(&f), bits(&top_right), "F, n = {n}, ‖Q‖t = {norm_t}");
                // E is the n × n exponential whenever the block's +1 leaves
                // the number of squarings alone.
                if squarings(qt.norm_inf() + 1.0) == squarings(qt.norm_inf()) {
                    assert_eq!(
                        bits(&e),
                        bits(&expm(&qt).unwrap()),
                        "n = {n}, ‖Q‖t = {norm_t}"
                    );
                }
            }
        }
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
