//! Cache-friendly kernels for the repeated `y ← x·A` of uniformization.
//!
//! [`CsrMatrix::mul_vec_transpose_into`] advances a distribution by
//! *scattering* each source row into the output, which writes all over `y`
//! and re-reads `y` from memory on every update. The power iterations of
//! uniformization apply the **same** matrix thousands of times, so it pays
//! to build a transposed, gather-oriented layout once and reuse it for every
//! step:
//!
//! * [`BlockedKernel`] stores `Aᵀ` in CSR form, processed in fixed-width
//!   row chunks (a SELL-C-style layout with C = [`CHUNK`], σ = 1, no
//!   padding — scalar code needs none). Each output entry is a single
//!   gather-reduce with one sequential write, and the chunked loop keeps
//!   the write region resident in L1 while `x` streams through cache.
//! * [`BlockedKernel::apply_fused`] folds the Fox–Glynn-weighted
//!   accumulation `acc ← acc + w·x` into the same pass over the chunk, so
//!   a uniformization step costs one traversal instead of two.
//! * [`spmv_transpose_adaptive`] is the scatter form with support
//!   tracking: source rows whose mass is below a caller-budgeted drop
//!   tolerance are skipped and their (exactly accounted) mass reported
//!   back, which is what adaptive uniformization needs while the
//!   probability mass is still concentrated on few states.

use crate::CsrMatrix;

/// Output rows per chunk of the blocked layout.
pub const CHUNK: usize = 256;

/// A transposed, gather-oriented layout of a sparse matrix, built once and
/// applied many times.
///
/// For a matrix `A`, the kernel computes `y = Aᵀ·x` (the row-vector product
/// `x·A` that advances probability distributions). Agreement with the
/// reference scatter kernel is property-tested to `1e-12`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedKernel {
    /// Rows of the original matrix (length of `x`).
    rows: usize,
    /// Columns of the original matrix (length of `y`).
    cols: usize,
    /// CSR row pointers of `Aᵀ`: entry `j` delimits the sources feeding
    /// output `j`.
    col_ptr: Vec<usize>,
    /// Source row of each stored entry.
    row_idx: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f64>,
}

impl BlockedKernel {
    /// Builds the transposed layout from a CSR matrix in `O(nnz)`.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let rows = a.rows();
        let cols = a.cols();
        let nnz = a.nnz();
        let mut col_ptr = vec![0usize; cols + 1];
        for (_, c, _) in a.iter() {
            col_ptr[c + 1] += 1;
        }
        for j in 0..cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for (r, c, v) in a.iter() {
            let k = cursor[c];
            row_idx[k] = r;
            values[k] = v;
            cursor[c] += 1;
        }
        BlockedKernel {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Computes `y = Aᵀ·x` (gather form).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "BlockedKernel::apply: x length");
        assert_eq!(y.len(), self.cols, "BlockedKernel::apply: y length");
        telemetry::work::count_spmv(self.values.len());
        for chunk_start in (0..self.cols).step_by(CHUNK) {
            let chunk_end = (chunk_start + CHUNK).min(self.cols);
            for (j, yj) in y[chunk_start..chunk_end].iter_mut().enumerate() {
                let j = chunk_start + j;
                let mut acc = 0.0;
                for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                    acc += self.values[k] * x[self.row_idx[k]];
                }
                *yj = acc;
            }
        }
        crate::checked::check_slice("blocked.apply", y);
    }

    /// Computes `y = Aᵀ·x` and `acc ← acc + weight·x` in one pass.
    ///
    /// This fuses a uniformization step with its Fox–Glynn-weighted
    /// accumulation: both read `x` chunk by chunk, so the second traversal
    /// of the reference implementation disappears. A `weight` of zero skips
    /// the accumulation entirely (steps outside the Poisson window).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or when the matrix is not square (the
    /// fused accumulate only makes sense when `x` and `y` index the same
    /// state space).
    pub fn apply_fused(&self, x: &[f64], y: &mut [f64], weight: f64, acc: &mut [f64]) {
        assert_eq!(
            self.rows, self.cols,
            "BlockedKernel::apply_fused: matrix must be square"
        );
        assert_eq!(x.len(), self.rows, "BlockedKernel::apply_fused: x length");
        assert_eq!(y.len(), self.cols, "BlockedKernel::apply_fused: y length");
        assert_eq!(
            acc.len(),
            self.rows,
            "BlockedKernel::apply_fused: acc length"
        );
        telemetry::work::count_spmv(self.values.len());
        let accumulate = weight != 0.0;
        if accumulate {
            telemetry::work::count_axpy(1);
        }
        for chunk_start in (0..self.cols).step_by(CHUNK) {
            let chunk_end = (chunk_start + CHUNK).min(self.cols);
            if accumulate {
                for (aj, xj) in acc[chunk_start..chunk_end]
                    .iter_mut()
                    .zip(&x[chunk_start..chunk_end])
                {
                    *aj += weight * xj;
                }
            }
            for (j, yj) in y[chunk_start..chunk_end].iter_mut().enumerate() {
                let j = chunk_start + j;
                let mut a = 0.0;
                for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                    a += self.values[k] * x[self.row_idx[k]];
                }
                *yj = a;
            }
        }
        crate::checked::check_slice("blocked.apply_fused", y);
        if accumulate {
            crate::checked::check_slice("blocked.apply_fused.acc", acc);
        }
    }
}

/// Result of one adaptive scatter step; see [`spmv_transpose_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStep {
    /// Mass of the source entries that were dropped (exact sum of the
    /// skipped `x` values).
    pub dropped_mass: f64,
    /// Number of source rows that actually contributed to the product.
    pub active_sources: usize,
}

/// Computes `y = Aᵀ·x` in scatter form, skipping source rows whose value is
/// positive but below `drop_tol` and reporting their summed mass back.
///
/// The caller owns the error budget: for a (sub)stochastic `A`, the L1
/// error introduced by one step is exactly the dropped mass (a stochastic
/// matrix does not amplify L1 norms), so dropping at most
/// `budget / expected_steps` per step bounds the total error by `budget`.
/// Entries that are exactly zero are skipped without being counted as
/// dropped. With `drop_tol == 0.0` this is the reference scatter kernel
/// plus support counting.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn spmv_transpose_adaptive(
    a: &CsrMatrix,
    x: &[f64],
    y: &mut [f64],
    drop_tol: f64,
) -> AdaptiveStep {
    assert_eq!(x.len(), a.rows(), "spmv_transpose_adaptive: x length");
    assert_eq!(y.len(), a.cols(), "spmv_transpose_adaptive: y length");
    y.fill(0.0);
    let mut dropped_mass = 0.0;
    let mut active_sources = 0usize;
    let mut touched = 0usize;
    for (r, &xr) in x.iter().enumerate() {
        if xr == 0.0 {
            continue;
        }
        if xr.abs() < drop_tol {
            dropped_mass += xr;
            continue;
        }
        active_sources += 1;
        let row = a.row(r);
        touched += row.len();
        for (c, v) in row {
            y[c] += v * xr;
        }
    }
    telemetry::work::count_spmv(touched);
    crate::checked::check_slice("blocked.spmv_transpose_adaptive", y);
    AdaptiveStep {
        dropped_mass,
        active_sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        // [[0.5, 0.5, 0],
        //  [0,   0,   1],
        //  [0.2, 0,   0.8]]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 0.5);
        coo.push(0, 1, 0.5);
        coo.push(1, 2, 1.0);
        coo.push(2, 0, 0.2);
        coo.push(2, 2, 0.8);
        coo.to_csr()
    }

    #[test]
    fn apply_matches_reference_kernel() {
        let a = sample();
        let k = BlockedKernel::from_csr(&a);
        assert_eq!(k.nnz(), a.nnz());
        let x = [0.3, 0.3, 0.4];
        let mut want = vec![0.0; 3];
        a.mul_vec_transpose_into(&x, &mut want);
        let mut got = vec![0.0; 3];
        k.apply(&x, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-15);
        }
    }

    #[test]
    fn apply_fused_accumulates_and_steps() {
        let a = sample();
        let k = BlockedKernel::from_csr(&a);
        let x = [0.2, 0.5, 0.3];
        let mut y = vec![0.0; 3];
        let mut acc = vec![1.0; 3];
        k.apply_fused(&x, &mut y, 0.25, &mut acc);
        let mut want_y = vec![0.0; 3];
        a.mul_vec_transpose_into(&x, &mut want_y);
        for (g, w) in y.iter().zip(&want_y) {
            assert!((g - w).abs() < 1e-15);
        }
        for (aj, xj) in acc.iter().zip(&x) {
            assert!((aj - (1.0 + 0.25 * xj)).abs() < 1e-15);
        }
    }

    #[test]
    fn apply_fused_zero_weight_skips_accumulation() {
        let a = sample();
        let k = BlockedKernel::from_csr(&a);
        let mut y = vec![0.0; 3];
        let mut acc = vec![0.125; 3];
        k.apply_fused(&[1.0, 0.0, 0.0], &mut y, 0.0, &mut acc);
        assert_eq!(acc, vec![0.125; 3]);
    }

    #[test]
    fn adaptive_with_zero_tolerance_is_exact() {
        let a = sample();
        let x = [0.1, 0.0, 0.9];
        let mut want = vec![0.0; 3];
        a.mul_vec_transpose_into(&x, &mut want);
        let mut got = vec![0.0; 3];
        let step = spmv_transpose_adaptive(&a, &x, &mut got, 0.0);
        assert_eq!(got, want);
        assert_eq!(step.dropped_mass, 0.0);
        assert_eq!(step.active_sources, 2);
    }

    #[test]
    fn adaptive_drops_and_accounts_tiny_mass() {
        let a = sample();
        let tiny = 1e-30;
        let x = [1.0 - tiny, tiny, 0.0];
        let mut y = vec![0.0; 3];
        let step = spmv_transpose_adaptive(&a, &x, &mut y, 1e-20);
        assert_eq!(step.active_sources, 1);
        assert!((step.dropped_mass - tiny).abs() < 1e-45);
        // Row 1's contribution is gone entirely.
        assert_eq!(y[2], 0.0);
    }

    #[test]
    fn rectangular_apply_works() {
        // 2x3 matrix: y = Aᵀx has length 3.
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        let a = coo.to_csr();
        let k = BlockedKernel::from_csr(&a);
        assert_eq!((k.rows(), k.cols()), (2, 3));
        let mut y = vec![0.0; 3];
        k.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 3.0, 2.0]);
    }

    proptest! {
        /// The blocked gather kernel agrees with the reference CSR scatter
        /// kernel on random sparse matrices to 1e-12 (ISSUE 8 satellite).
        #[test]
        fn blocked_agrees_with_reference(
            triplets in proptest::collection::vec(
                (0usize..24, 0usize..24, -4.0..4.0f64), 0..160),
            x in proptest::collection::vec(-2.0..2.0f64, 24),
        ) {
            let mut coo = CooMatrix::new(24, 24);
            for &(r, c, v) in &triplets {
                coo.push(r, c, v);
            }
            let a = coo.to_csr();
            let k = BlockedKernel::from_csr(&a);
            let mut want = vec![0.0; 24];
            a.mul_vec_transpose_into(&x, &mut want);
            let mut got = vec![0.0; 24];
            k.apply(&x, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-12);
            }
            // The fused variant produces the same product and the exact
            // weighted accumulation.
            let mut fused = vec![0.0; 24];
            let mut acc = vec![0.0; 24];
            k.apply_fused(&x, &mut fused, 0.5, &mut acc);
            for ((f, w), (a_i, x_i)) in fused.iter().zip(&want).zip(acc.iter().zip(&x)) {
                prop_assert!((f - w).abs() < 1e-12);
                prop_assert!((a_i - 0.5 * x_i).abs() < 1e-12);
            }
        }

        /// Adaptive scatter with a tolerance of zero is bitwise the
        /// reference kernel; with a tolerance it never loses more mass than
        /// it reports.
        #[test]
        fn adaptive_accounts_exactly(
            triplets in proptest::collection::vec(
                (0usize..12, 0usize..12, 0.0..1.0f64), 0..60),
            x in proptest::collection::vec(0.0..1.0f64, 12),
            drop_tol in 0.0..0.5f64,
        ) {
            let mut coo = CooMatrix::new(12, 12);
            for &(r, c, v) in &triplets {
                coo.push(r, c, v);
            }
            let a = coo.to_csr();
            let mut exact = vec![0.0; 12];
            a.mul_vec_transpose_into(&x, &mut exact);
            let mut adaptive = vec![0.0; 12];
            let step = spmv_transpose_adaptive(&a, &x, &mut adaptive, drop_tol);
            // Dropped mass bounds the output error: each skipped source row
            // contributes at most (row sum) * x_r, and row sums here are
            // bounded by the matrix's norm.
            let row_norm = a.norm_inf().max(1.0);
            let err: f64 = exact.iter().zip(&adaptive).map(|(e, g)| (e - g).abs()).sum();
            prop_assert!(err <= step.dropped_mass * row_norm + 1e-12);
            prop_assert!(step.active_sources <= 12);
        }
    }
}
