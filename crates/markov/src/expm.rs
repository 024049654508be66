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
//! its first `n` columns, and a squaring is `E ← E², F ← E·F + F`. [`expm`]
//! is the same routine without the right half.
//!
//! *The block-triangular layout.* A matrix whose states are in topological
//! order of its strongly connected components is block upper triangular,
//! and so is every matrix the routine builds from it: `[X | Y]` (the
//! identity is diagonal), every Padé power and sum, the LU factors of
//! `V − U` (no pivot leaves its diagonal block: the rows below it are zero
//! in its column) and every squaring, in both halves of the slab. So the
//! routine first finds the finest contiguous block-upper-triangular layout
//! of its input, in `O(n²)`, and then stores and touches only the blocks on
//! or right of the diagonal: row `i` of either half holds columns from the
//! start of `i`'s block on. The layout is a property of the input, not an
//! option: a matrix without one is a single block and takes the dense
//! arithmetic. With diagonal blocks of sizes `b_J` starting at `s_J`, one
//! `n × n` product costs `P = Σ_J b_J·(n − s_J)·(s_J + b_J)` multiply-adds
//! (`n³` for one block, about `n³/6` for a triangular matrix), a slab
//! product and a squaring `2P`. Acyclic chains, the limit where every
//! block is one state (Marie, Reibman and Trivedi's ACE), cost the least.
//!
//! Every sum keeps the dense order of its nonzero terms, and the terms a
//! skipped block holds are `±0` products: a sum that starts at `+0` never
//! becomes `−0`, so adding them changes no bit. So the structured routine
//! returns the dense routine's values on the same input, and `(E, F)` are
//! the top blocks of [`expm`] applied to the explicit `2n × 2n` block. `E`
//! is bitwise `expm(A)` whenever the `+1` the identity adds to the block's
//! norm leaves the number of squarings unchanged. Products write into
//! slabs allocated once per exponential, each on its own.

use std::ops::Range;
use std::slice::{ChunksExact, ChunksExactMut};

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
    let e = scale_and_square(a, false, "expm")?;
    DenseMatrix::from_vec(a.rows(), a.rows(), e).map_err(MarkovError::from)
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
    // The slab interleaves the halves (see `Slab`): `E` is every even
    // entry in row-major order, `F` every odd one.
    let half = |h: usize| {
        let mut out = DenseMatrix::zeros(a.rows(), a.rows());
        for (o, &v) in out
            .as_mut_slice()
            .iter_mut()
            .zip(top.iter().skip(h).step_by(2))
        {
            *o = v;
        }
        out
    };
    Ok((half(0), half(1)))
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

/// The products' worth of one Padé(13) evaluation besides the squarings:
/// six products (`A²`, `A⁴`, `A⁶` and the three that form `U` and `V`) and
/// the LU solve, counted as two. A scaling-and-squaring exponential costs
/// `s + PADE_PRODUCTS` products of its slab.
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

/// The multiply-adds of one `n × n` product of two matrices in a
/// block-upper-triangular layout whose diagonal blocks have these sizes, in
/// order: row `i` runs `k` over the columns from the start of its block, and
/// each `k` runs over the columns from the start of its own.
pub(crate) fn product_madds(blocks: &[usize]) -> u64 {
    let n: usize = blocks.iter().sum();
    let mut start = 0;
    let mut madds = 0u64;
    for &b in blocks {
        madds += (b * (n - start) * (start + b)) as u64;
        start += b;
    }
    madds
}

/// The finest contiguous block-upper-triangular layout of a square matrix:
/// the split of its indices into the most consecutive blocks such that
/// every entry below the diagonal blocks is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layout {
    /// `start[i]`: the first index of the block that holds `i`.
    start: Vec<usize>,
    /// `end[i]`: one past the last index of that block.
    end: Vec<usize>,
}

impl Layout {
    /// One pass from the last row up: a block may start at `p` exactly when
    /// no row from `p` on has a nonzero left of column `p`, so `p` starts a
    /// block when the leftmost nonzero column of rows `p..n` is not left of
    /// it.
    fn of(a: &DenseMatrix) -> Layout {
        let n = a.rows();
        let mut start = vec![0; n];
        let mut end = vec![n; n];
        let mut leftmost = n;
        let mut block_end = n;
        for p in (0..n).rev() {
            let first = a.row(p).iter().position(|&v| v != 0.0).unwrap_or(n);
            leftmost = leftmost.min(first);
            end[p] = block_end;
            if leftmost >= p {
                start[p..block_end].fill(p);
                block_end = p;
            }
        }
        Layout { start, end }
    }

    /// The sizes of the diagonal blocks, in order.
    fn blocks(&self) -> Vec<usize> {
        let mut blocks = Vec::new();
        let mut i = 0;
        while i < self.end.len() {
            blocks.push(self.end[i] - i);
            i = self.end[i];
        }
        blocks
    }
}

/// Scaling and squaring on `A`, or, with `integral`, on the top rows of
/// `[[A, I], [0, 0]]`: returns the slab of `exp(A)`, or with `integral` of
/// the top rows `[exp(A) | ∫₀¹ exp(A·s) ds]`, in [`Slab`]'s column order.
fn scale_and_square(a: &DenseMatrix, integral: bool, name: &str) -> Result<Vec<f64>> {
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
    let layout = Layout::of(a);
    let slab = Slab {
        n,
        w: if integral { 2 } else { 1 },
        layout: &layout,
    };
    if n == 0 {
        return Ok(Vec::new());
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
    // work-ratchet channels. The flops are the structured multiply-adds.
    telemetry::work::count_expm(1);
    telemetry::work::count_iterations(s as u64);
    telemetry::work::count_dense_flops(
        u64::from(s + PADE_PRODUCTS) * slab.w as u64 * product_madds(&layout.blocks()),
    );
    let mut span = telemetry::span("markov.solve.expm");
    let mut flight = telemetry::SolveDiag::new("expm");
    flight.iterations = s as u64;
    flight.record_on(&mut span);

    // The top rows `[X | Y]` of the scaled block: `X = A/2^s`, `Y = I/2^s`.
    let c = 0.5f64.powi(s as i32);
    let w = slab.w;
    let mut top = slab.zeros();
    for (r, row) in slab.rows_mut(&mut top).enumerate() {
        let from = layout.start[r];
        for (j, &v) in a.row(r).iter().enumerate().skip(from) {
            row[j * w] = v * c;
        }
        if integral {
            row[r * w + 1] = c;
        }
    }
    let (mut top, mut next) = slab.pade13(top)?;
    // [E | F]² has top rows [E² | E·F + F]: one product of E with both
    // halves, then the right half's carry.
    for _ in 0..s {
        slab.product(&mut next, &top, &top);
        slab.add_right(&mut next, 1.0, &top);
        std::mem::swap(&mut top, &mut next);
    }
    Ok(top)
}

/// The shape every slab of one exponential shares: the `n × n` matrix, or
/// the `n × 2n` top rows `[X | Y]` with column `j` of `X` at `2j` and
/// column `j` of `Y` at `2j + 1` (`w` slab columns per column of `A`), in
/// the input's [`Layout`]. Interleaving the halves makes the stored part of
/// a row one span: columns `start[i]..n` of both halves, at
/// `w·start[i]..w·n`. Every operation reads and writes only those spans,
/// and the rest of a slab stays the `+0` it was allocated with.
struct Slab<'a> {
    n: usize,
    w: usize,
    layout: &'a Layout,
}

impl Slab<'_> {
    /// A fresh slab of zeros, allocated on its own.
    fn zeros(&self) -> Vec<f64> {
        vec![0.0; self.n * self.n * self.w]
    }

    /// The stored span of a row whose block starts at `from`.
    fn span(&self, from: usize) -> Range<usize> {
        from * self.w..self.n * self.w
    }

    /// The slab's rows.
    fn rows<'s>(&self, slab: &'s [f64]) -> ChunksExact<'s, f64> {
        slab.chunks_exact(self.n * self.w)
    }

    /// The slab's rows, mutably.
    fn rows_mut<'s>(&self, slab: &'s mut [f64]) -> ChunksExactMut<'s, f64> {
        slab.chunks_exact_mut(self.n * self.w)
    }

    /// `out ← X·y`, where `X` is the left `n × n` half of `x`: the top rows
    /// of the product of two slabs, whose bottom rows are zero. Row `i`
    /// runs `k` over the columns of its block and right of it, and each `k`
    /// adds its row's stored span.
    fn product(&self, out: &mut [f64], x: &[f64], y: &[f64]) {
        let (w, m, start) = (self.w, self.n * self.w, &self.layout.start);
        for (i, (row, x_row)) in self.rows_mut(out).zip(self.rows(x)).enumerate() {
            row[start[i] * w..].fill(0.0);
            for (k, y_row) in self.rows(y).enumerate().skip(start[i]) {
                let xik = x_row[k * w];
                if xik == 0.0 {
                    continue;
                }
                let from = start[k] * w;
                for (o, &v) in row[from..].iter_mut().zip(&y_row[from..m]) {
                    *o += xik * v;
                }
            }
        }
    }

    /// `dst ← dst + alpha · src` over the stored spans.
    fn add(&self, dst: &mut [f64], alpha: f64, src: &[f64]) {
        for (i, (d, s)) in self.rows_mut(dst).zip(self.rows(src)).enumerate() {
            let span = self.span(self.layout.start[i]);
            for (d, &s) in d[span.clone()].iter_mut().zip(&s[span]) {
                *d += alpha * s;
            }
        }
    }

    /// `dst ← dst + alpha · [0 | Y]` for the right half `Y` of `src`; a
    /// no-op on slabs without one.
    fn add_right(&self, dst: &mut [f64], alpha: f64, src: &[f64]) {
        if self.w == 1 {
            return;
        }
        for (i, (d, s)) in self.rows_mut(dst).zip(self.rows(src)).enumerate() {
            let span = self.span(self.layout.start[i]);
            for (d, &s) in d[span.clone()].iter_mut().zip(&s[span]).skip(1).step_by(2) {
                *d += alpha * s;
            }
        }
    }

    /// `dst[i][i] += beta`: the `β·I` of a Padé sum, which lands on the
    /// slab's left half (the block's bottom-right `β·I` is implied).
    fn add_to_diagonal(&self, dst: &mut [f64], beta: f64) {
        for (i, row) in self.rows_mut(dst).enumerate() {
            row[i * self.w] += beta;
        }
    }

    /// Single Padé(13) rational approximation `r13(A) ≈ exp(A)` for
    /// `‖A‖∞ ≤ θ13`, on the top rows `x = [X | Y]` of the scaled block (or
    /// `X` alone). Returns the top rows of `r13` and a spare slab for the
    /// squarings.
    ///
    /// Every power of the block, and every sum of powers, has zero bottom
    /// rows, so a product's top rows are `X₁·[X₂ | Y₂]`. The one right
    /// factor with a nonzero bottom row, `w` (its `b1·I`), gets its extra
    /// term where `U` is formed. Seven slabs are live at the peak (while
    /// `V` is formed), and each is freed or reused once its value is dead:
    /// at 50 states a slab is 40 KB, and holding every temporary to the
    /// end raised the catalog workload's peak RSS by ~0.15 MiB.
    fn pade13(&self, x: Vec<f64>) -> Result<(Vec<f64>, Vec<f64>)> {
        let b = &PADE13;
        let mut a2 = self.zeros();
        self.product(&mut a2, &x, &x);
        let mut a4 = self.zeros();
        self.product(&mut a4, &a2, &a2);
        let mut a6 = self.zeros();
        self.product(&mut a6, &a2, &a4);

        // U = A · (A6·(b13·A6 + b11·A4 + b9·A2) + b7·A6 + b5·A4 + b3·A2 + b1·I)
        let mut inner = self.zeros();
        self.add(&mut inner, b[13], &a6);
        self.add(&mut inner, b[11], &a4);
        self.add(&mut inner, b[9], &a2);
        let mut w = self.zeros();
        self.product(&mut w, &a6, &inner);
        self.add(&mut w, b[7], &a6);
        self.add(&mut w, b[5], &a4);
        self.add(&mut w, b[3], &a2);
        self.add_to_diagonal(&mut w, b[1]);
        // `w`'s bottom-right block is b1·I, so A's right half Y adds b1·Y to
        // U's right half, after the products of its left half.
        let mut u = inner;
        self.product(&mut u, &x, &w);
        self.add_right(&mut u, b[1], &x);

        // V = A6·(b12·A6 + b10·A4 + b8·A2) + b6·A6 + b4·A4 + b2·A2 + b0·I
        drop(w);
        let mut inner = self.zeros();
        self.add(&mut inner, b[12], &a6);
        self.add(&mut inner, b[10], &a4);
        self.add(&mut inner, b[8], &a2);
        let mut v = self.zeros();
        self.product(&mut v, &a6, &inner);
        drop(inner);
        self.add(&mut v, b[6], &a6);
        self.add(&mut v, b[4], &a4);
        self.add(&mut v, b[2], &a2);
        self.add_to_diagonal(&mut v, b[0]);
        drop((a2, a4, a6));

        // Solve (V − U)·R = (V + U): `v` becomes the left side, `u` the
        // right, and R lands in the slab `x` held.
        for (vi, ui) in v.iter_mut().zip(u.iter_mut()) {
            let (p, q) = (*vi, *ui);
            *vi = p - q;
            *ui = p + q;
        }
        let mut r = x;
        self.solve(v, &u, &mut r)?;
        Ok((r, u))
    }

    /// The top rows `out` of `R` in `(V − U)·R = (V + U)`, from the top rows
    /// `lu` and `rhs` of the two sides, whose bottom rows are `[0 | b0·I]`.
    ///
    /// `R`'s bottom rows are then exactly `[0 | I]`, and partial pivoting
    /// never picks a bottom row (their left half is zero), so the top rows
    /// take an LU of the slab `lu`, pivoted in its left half. No pivot
    /// leaves its diagonal block either: the rows below the block are zero
    /// in its columns. So the pivot search, the elimination and the unit
    /// lower triangle stay inside the diagonal blocks, and each row keeps
    /// its stored span. Column `c` of the right half has the unit vector at
    /// bottom row `c` of `R`, so its back substitution subtracts the slab's
    /// right-half column `c` last, exactly where the dense `2n` solve did.
    fn solve(&self, mut lu: Vec<f64>, rhs: &[f64], out: &mut [f64]) -> Result<()> {
        let (n, w) = (self.n, self.w);
        let m = n * w;
        let Layout { start, end } = self.layout;
        let a = lu.as_mut_slice();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = a[k * m + k * w].abs();
            for r in (k + 1)..end[k] {
                let v = a[r * m + k * w].abs();
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
            let inv_pivot = 1.0 / pivot[k * w];
            // Right of the pivot column: the left half's later columns and
            // the right half's from `k` on, one span, then the right half's
            // columns of the block before `k`.
            let right = k * w + 1..m;
            let block_right = if w == 2 {
                start[k] * 2 + 1..k * 2
            } else {
                0..0
            }
            .step_by(2);
            for row in tail[..(end[k] - k - 1) * m].chunks_exact_mut(m) {
                let factor = row[k * w] * inv_pivot;
                row[k * w] = factor;
                if factor != 0.0 {
                    for (x, &u) in row[right.clone()].iter_mut().zip(&pivot[right.clone()]) {
                        *x -= factor * u;
                    }
                    for c in block_right.clone() {
                        row[c] -= factor * pivot[c];
                    }
                }
            }
        }

        // Every column at once, row by row: each entry takes the same
        // subtractions, in the same order, as a solve of its column alone.
        for (r, (row, &p)) in self.rows_mut(out).zip(&perm).enumerate() {
            let span = self.span(start[r]);
            row[span.clone()].copy_from_slice(&rhs[p * m..(p + 1) * m][span]);
        }
        // Forward substitution with the unit lower triangle of the block.
        for r in 1..n {
            let (done, rest) = out.split_at_mut(r * m);
            let row = &mut rest[..m];
            let span = self.span(start[r]);
            for k in start[r]..r {
                let l = a[r * m + k * w];
                let xk = &done[k * m..(k + 1) * m];
                for (xi, &v) in row[span.clone()].iter_mut().zip(&xk[span.clone()]) {
                    *xi -= l * v;
                }
            }
        }
        // Back substitution with the upper triangle, then, in the right half,
        // the unit bottom entry.
        for r in (0..n).rev() {
            let (head, done) = out.split_at_mut((r + 1) * m);
            let row = &mut head[r * m..];
            let lu_row = &a[r * m..(r + 1) * m];
            for (k, xk) in (r + 1..n).zip(done.chunks_exact(m)) {
                let u = lu_row[k * w];
                let span = self.span(start[k]);
                for (xi, &v) in row[span.clone()].iter_mut().zip(&xk[span]) {
                    *xi -= u * v;
                }
            }
            let span = self.span(start[r]);
            if w == 2 {
                for c in (span.start + 1..m).step_by(2) {
                    row[c] -= lu_row[c];
                }
            }
            let pivot = lu_row[r * w];
            for xi in &mut row[span] {
                *xi /= pivot;
            }
        }
        Ok(())
    }
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
                let dense = expm(&van_loan_block(&qt)).unwrap();
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

    /// The explicit `2n × 2n` Van Loan block `[[A, I], [0, 0]]`.
    fn van_loan_block(a: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let mut block = DenseMatrix::zeros(2 * n, 2 * n);
        for r in 0..n {
            for c in 0..n {
                block[(r, c)] = a[(r, c)];
            }
            block[(r, n + r)] = 1.0;
        }
        block
    }

    #[test]
    fn layout_is_the_finest_contiguous_block_triangular_split() {
        // Upper triangular (an acyclic chain in topological order): every
        // state is a block of its own.
        let triangular = DenseMatrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, -2.0, 1.5, 0.5],
            &[0.0, 0.0, -3.0, 3.0],
            &[0.0, 0.0, 0.0, -0.0],
        ]);
        let layout = Layout::of(&triangular);
        assert_eq!(layout.blocks(), vec![1, 1, 1, 1]);
        assert_eq!(layout.start, vec![0, 1, 2, 3]);
        assert_eq!(layout.end, vec![1, 2, 3, 4]);
        // Irreducible (a cycle through every state): one block.
        let cycle = DenseMatrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, -1.0, 1.0, 0.0],
            &[0.0, 0.0, -1.0, 1.0],
            &[1.0, 0.0, 0.0, -1.0],
        ]);
        assert_eq!(Layout::of(&cycle).blocks(), vec![4]);
        // Cycles {0, 1} and {3, 4} around the singleton {2}, each feeding
        // the next, in topological order: three blocks ...
        let chain = DenseMatrix::from_rows(&[
            &[-2.0, 1.0, 1.0, 0.0, 0.0],
            &[3.0, -3.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, -1.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, -4.0, 4.0],
            &[0.0, 0.0, 0.0, 5.0, -5.0],
        ]);
        let layout = Layout::of(&chain);
        assert_eq!(layout.blocks(), vec![2, 1, 2]);
        assert_eq!(layout.start, vec![0, 0, 2, 3, 3]);
        assert_eq!(layout.end, vec![2, 2, 3, 5, 5]);
        // ... and in reverse order one: every split has a rate below it.
        let mut reversed = DenseMatrix::zeros(5, 5);
        for r in 0..5 {
            for c in 0..5 {
                reversed[(4 - r, 4 - c)] = chain[(r, c)];
            }
        }
        assert_eq!(Layout::of(&reversed).blocks(), vec![5]);
        // The explicit Van Loan block: A's layout, then a singleton for
        // every zero bottom row.
        assert_eq!(
            Layout::of(&van_loan_block(&chain)).blocks(),
            vec![2, 1, 2, 1, 1, 1, 1, 1]
        );
        assert_eq!(
            Layout::of(&van_loan_block(&cycle)).blocks(),
            vec![4, 1, 1, 1, 1]
        );
        // The multiply-adds of one product: n³ for one block, and the
        // blocks' sum otherwise.
        assert_eq!(product_madds(&[4]), 64);
        assert_eq!(product_madds(&[1, 1, 1, 1]), 4 + 2 * 3 + 3 * 2 + 4);
        assert_eq!(
            product_madds(&Layout::of(&chain).blocks()),
            2 * 5 * 2 + 3 * 3 + 2 * 2 * 5
        );
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
