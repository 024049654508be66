//! The cache-friendly kernel for the repeated `y ← x·A` of uniformization.
//!
//! [`CsrMatrix::mul_vec_transpose_into`] advances a distribution by
//! *scattering* each source row into the output, which writes all over `y`
//! and re-reads `y` from memory on every update. A uniformization pass
//! applies the **same** matrix thousands of times, so [`BlockedKernel`]
//! builds a transposed, gather-oriented layout once and reuses it for every
//! step: `Aᵀ` in CSR form, processed in fixed-width row chunks (a
//! SELL-C-style layout with C = [`CHUNK`], σ = 1, no padding — scalar code
//! needs none). Each output entry is a single gather-reduce with one
//! sequential write, and the chunked loop keeps the write region resident
//! in L1 while `x` streams through cache.

use crate::CsrMatrix;

/// Output rows per chunk of the blocked layout.
const CHUNK: usize = 256;

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
        coo.into_csr()
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
    fn rectangular_apply_works() {
        // 2x3 matrix: y = Aᵀx has length 3.
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        let a = coo.into_csr();
        let k = BlockedKernel::from_csr(&a);
        assert_eq!((k.rows(), k.cols()), (2, 3));
        let mut y = vec![0.0; 3];
        k.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 3.0, 2.0]);
    }

    proptest! {
        /// The blocked gather kernel agrees with the reference CSR scatter
        /// kernel on random sparse matrices to 1e-12.
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
            let a = coo.into_csr();
            let k = BlockedKernel::from_csr(&a);
            let mut want = vec![0.0; 24];
            a.mul_vec_transpose_into(&x, &mut want);
            let mut got = vec![0.0; 24];
            k.apply(&x, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-12);
            }
        }
    }
}
