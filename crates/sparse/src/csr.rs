//! Compressed sparse row matrices.

use crate::{CooMatrix, DenseMatrix, LinAlgError, Result};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// CSR is the workhorse representation for the Markov solvers: the
/// uniformization and power-iteration kernels repeatedly compute `xᵀ·A`
/// (equivalently `Aᵀ·x`), which CSR supports with one pass over the data.
///
/// Construct via [`CooMatrix::into_csr`] or [`CsrMatrix::from_dense`].
///
/// # Example
///
/// ```
/// use sparsela::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 3);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 2, 2.0);
/// coo.push(1, 1, 3.0);
/// let a = coo.into_csr();
/// assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
/// assert_eq!(a.mul_vec_transpose(&[1.0, 1.0]), vec![1.0, 3.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from raw parts.
    ///
    /// Intended for use by [`CooMatrix::into_csr`]; asserts structural
    /// invariants in debug builds.
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert!(col_idx.iter().all(|&c| c < cols || cols == 0));
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Creates an empty (all-zero) `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from a dense row-major matrix, skipping zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut coo = CooMatrix::new(dense.rows(), dense.cols());
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                coo.push(r, c, dense[(r, c)]);
            }
        }
        coo.into_csr()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)` (zero when not stored).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "CsrMatrix::get: index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(col, value)` pairs of one row, in ascending column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> Row<'_> {
        assert!(row < self.rows, "CsrMatrix::row: row {row} out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        Row {
            cols: &self.col_idx[lo..hi],
            vals: &self.values[lo..hi],
            pos: 0,
        }
    }

    /// Iterates over all `(row, col, value)` triplets.
    pub fn iter(&self) -> Triplets<'_> {
        Triplets {
            matrix: self,
            row: 0,
            pos: 0,
        }
    }

    /// Computes `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: length mismatch");
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Computes `y = A·x` into a caller-provided buffer (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec_into: x length mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec_into: y length mismatch");
        telemetry::work::count_spmv(self.values.len());
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
        crate::checked::check_slice("csr.mul_vec", y);
    }

    /// Computes `y = Aᵀ·x` (equivalently the row vector `xᵀ·A`).
    ///
    /// This is the kernel used to advance probability distributions:
    /// `π' = π·P`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn mul_vec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "mul_vec_transpose: length mismatch");
        let mut y = vec![0.0; self.cols];
        self.mul_vec_transpose_into(x, &mut y);
        y
    }

    /// Computes `y = Aᵀ·x` into a caller-provided buffer (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn mul_vec_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "mul_vec_transpose_into: x length");
        assert_eq!(y.len(), self.cols, "mul_vec_transpose_into: y length");
        telemetry::work::count_spmv(self.values.len());
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                y[self.col_idx[k]] += self.values[k] * xr;
            }
        }
        crate::checked::check_slice("csr.mul_vec_transpose", y);
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.cols, self.rows, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(c, r, v);
        }
        coo.into_csr()
    }

    /// Per-row sums `Σ_c A[r, c]`.
    ///
    /// For a CTMC generator these should all be (numerically) zero; for a
    /// stochastic matrix, one.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Converts to a dense matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::InvalidValue`] if the matrix would exceed
    /// `limit` total entries (guard against accidental densification of a
    /// huge state space).
    pub fn to_dense_checked(&self, limit: usize) -> Result<DenseMatrix> {
        let total = self.rows.saturating_mul(self.cols);
        if total > limit {
            return Err(LinAlgError::InvalidValue {
                context: format!(
                    "refusing to densify {}x{} matrix ({} entries > limit {})",
                    self.rows, self.cols, total, limit
                ),
            });
        }
        Ok(self.densify())
    }

    /// Converts to a dense matrix without a size guard.
    pub fn to_dense(&self) -> DenseMatrix {
        self.densify()
    }

    fn densify(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Maximum absolute row sum (the induced ∞-norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// Iterator over one row of a [`CsrMatrix`]; see [`CsrMatrix::row`].
#[derive(Debug, Clone)]
pub struct Row<'a> {
    cols: &'a [usize],
    vals: &'a [f64],
    pos: usize,
}

impl<'a> Iterator for Row<'a> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.cols.len() {
            let item = (self.cols[self.pos], self.vals[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cols.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Row<'_> {}

/// Iterator over all stored triplets of a [`CsrMatrix`]; see
/// [`CsrMatrix::iter`].
#[derive(Debug, Clone)]
pub struct Triplets<'a> {
    matrix: &'a CsrMatrix,
    row: usize,
    pos: usize,
}

impl<'a> Iterator for Triplets<'a> {
    type Item = (usize, usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.matrix.rows {
            if self.pos < self.matrix.row_ptr[self.row + 1] {
                let k = self.pos;
                self.pos += 1;
                return Some((self.row, self.matrix.col_idx[k], self.matrix.values[k]));
            }
            self.row += 1;
            if self.row < self.matrix.rows {
                self.pos = self.matrix.row_ptr[self.row];
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.into_csr()
    }

    #[test]
    fn get_reads_stored_and_zero_entries() {
        let a = sample();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[test]
    fn identity_behaves() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x);
        assert_eq!(i.mul_vec_transpose(&x), x);
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = sample();
        assert_eq!(a.mul_vec(&[1.0, 2.0, 3.0]), vec![7.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_swaps_shape() {
        let t = sample().transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 2.0);
    }

    #[test]
    fn row_iterator_is_sorted_and_exact() {
        let a = sample();
        let r0: Vec<_> = a.row(0).collect();
        assert_eq!(r0, vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(a.row(0).len(), 2);
        assert_eq!(a.row(1).len(), 1);
    }

    #[test]
    fn triplets_iterate_all() {
        let a = sample();
        let all: Vec<_> = a.iter().collect();
        assert_eq!(all, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
    }

    #[test]
    fn triplets_skip_empty_leading_rows() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(2, 2, 5.0);
        let a = coo.into_csr();
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(2, 2, 5.0)]);
    }

    #[test]
    fn row_sums_add_each_row() {
        let a = sample();
        assert_eq!(a.row_sums(), vec![3.0, 3.0]);
    }

    #[test]
    fn norm_inf_is_max_abs_row_sum() {
        let a = sample();
        assert_eq!(a.norm_inf(), 3.0);
    }

    #[test]
    fn densify_guard_trips() {
        let a = CsrMatrix::zeros(100, 100);
        assert!(a.to_dense_checked(50).is_err());
        assert!(a.to_dense_checked(10_000).is_ok());
    }

    #[test]
    fn dense_roundtrip() {
        let a = sample();
        let d = a.to_dense();
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(a, back);
    }

    #[test]
    fn zero_matrix_products() {
        let z = CsrMatrix::zeros(2, 2);
        assert_eq!(z.mul_vec(&[1.0, 1.0]), vec![0.0, 0.0]);
        assert_eq!(z.mul_vec_transpose(&[1.0, 1.0]), vec![0.0, 0.0]);
    }

    proptest! {
        #[test]
        fn transpose_product_identity(
            triplets in proptest::collection::vec(
                (0usize..5, 0usize..7, -4.0..4.0f64), 0..40),
            x in proptest::collection::vec(-2.0..2.0f64, 5),
        ) {
            let mut coo = CooMatrix::new(5, 7);
            for &(r, c, v) in &triplets {
                coo.push(r, c, v);
            }
            let a = coo.into_csr();
            let via_transpose_matrix = a.transpose().mul_vec(&x);
            let via_kernel = a.mul_vec_transpose(&x);
            for (u, v) in via_transpose_matrix.iter().zip(&via_kernel) {
                prop_assert!((u - v).abs() < 1e-10);
            }
        }

        #[test]
        fn mul_matches_dense(
            triplets in proptest::collection::vec(
                (0usize..4, 0usize..4, -4.0..4.0f64), 0..30),
            x in proptest::collection::vec(-2.0..2.0f64, 4),
        ) {
            let mut coo = CooMatrix::new(4, 4);
            for &(r, c, v) in &triplets {
                coo.push(r, c, v);
            }
            let a = coo.into_csr();
            let d = a.to_dense();
            let ys = a.mul_vec(&x);
            for r in 0..4 {
                let want: f64 = (0..4).map(|c| d[(r, c)] * x[c]).sum();
                prop_assert!((ys[r] - want).abs() < 1e-10);
            }
        }
    }
}
