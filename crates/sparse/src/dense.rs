//! Dense matrices and LU factorization.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinAlgError, Result};

/// A dense row-major matrix of `f64`.
///
/// Dense storage is used where the Markov models are small enough that direct
/// methods dominate: LU-based steady-state solves, and the scaling-and-squaring
/// matrix exponential in the `markov` crate (which must be dense anyway, as
/// `exp(Q·t)` of a sparse generator is generally full).
///
/// # Example
///
/// ```
/// use sparsela::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = a.lu().unwrap();
/// let x = lu.solve(&[10.0, 12.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        DenseMatrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when
    /// `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinAlgError::DimensionMismatch {
                context: "DenseMatrix::from_vec".to_string(),
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major mutable view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when the inner dimensions
    /// disagree.
    pub fn mul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(LinAlgError::DimensionMismatch {
                context: "DenseMatrix::mul".to_string(),
                expected: (self.cols, self.cols),
                found: (other.rows, other.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (cij, bkj) in crow.iter_mut().zip(orow) {
                    *cij += aik * bkj;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: length mismatch");
        (0..self.rows)
            .map(|r| crate::vector::dot(self.row(r), x))
            .collect()
    }

    /// Row-vector product `xᵀ · self` returned as a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "vec_mul: length mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (yc, v) in y.iter_mut().zip(self.row(r)) {
                *yc += xr * v;
            }
        }
        y
    }

    /// In-place `self ← self + alpha · other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f64, other: &DenseMatrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinAlgError::DimensionMismatch {
                context: "DenseMatrix::add_scaled".to_string(),
                expected: (self.rows, self.cols),
                found: (other.rows, other.cols),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// The induced ∞-norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::NotSquare`] for non-square matrices and
    /// [`LinAlgError::Singular`] when a pivot vanishes.
    pub fn lu(&self) -> Result<LuDecomposition> {
        LuDecomposition::new(self)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// The result of LU factorization with partial pivoting: `P·A = L·U`.
///
/// Obtained from [`DenseMatrix::lu`]; solves `A·x = b` and `xᵀ·A = bᵀ` in
/// `O(n²)` per right-hand side after the `O(n³)` factorization.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: DenseMatrix,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 / −1.0), used by `det`.
    perm_sign: f64,
}

impl LuDecomposition {
    fn new(a: &DenseMatrix) -> Result<Self> {
        if a.rows != a.cols {
            return Err(LinAlgError::NotSquare {
                rows: a.rows,
                cols: a.cols,
            });
        }
        let n = a.rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at or
            // below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(LinAlgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let inv_pivot = 1.0 / lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] * inv_pivot;
                lu[(r, k)] = factor;
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        let ukc = lu[(k, c)];
                        lu[(r, c)] -= factor * ukc;
                    }
                }
            }
        }

        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinAlgError::DimensionMismatch {
                context: "LuDecomposition::solve".to_string(),
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        // Apply permutation: y = P·b.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit lower triangle.
        for r in 1..n {
            let mut acc = x[r];
            for (c, &xc) in x.iter().enumerate().take(r) {
                acc -= self.lu[(r, c)] * xc;
            }
            x[r] = acc;
        }
        // Back substitution with upper triangle.
        for r in (0..n).rev() {
            let mut acc = x[r];
            for (c, &xc) in x.iter().enumerate().skip(r + 1) {
                acc -= self.lu[(r, c)] * xc;
            }
            x[r] = acc / self.lu[(r, r)];
        }
        Ok(x)
    }

    /// Solves the transposed system `Aᵀ·x = b` (i.e. the row system
    /// `xᵀ·A = bᵀ`), which is how steady-state equations `π·Q = 0` are posed.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when `b.len() != self.dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinAlgError::DimensionMismatch {
                context: "LuDecomposition::solve_transpose".to_string(),
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        // Aᵀ = (Pᵀ L U)ᵀ = Uᵀ Lᵀ P. Solve Uᵀ·z = b, then Lᵀ·w = z, then
        // x = Pᵀ·w.
        let mut z = b.to_vec();
        // Uᵀ is lower triangular: forward substitution.
        for r in 0..n {
            let mut acc = z[r];
            for (c, &zc) in z.iter().enumerate().take(r) {
                acc -= self.lu[(c, r)] * zc;
            }
            z[r] = acc / self.lu[(r, r)];
        }
        // Lᵀ is unit upper triangular: back substitution.
        for r in (0..n).rev() {
            let mut acc = z[r];
            for (c, &zc) in z.iter().enumerate().skip(r + 1) {
                acc -= self.lu[(c, r)] * zc;
            }
            z[r] = acc;
        }
        // x[perm[i]] = w[i].
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = z[i];
        }
        Ok(x)
    }

    /// The determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_solve_is_identity() {
        let lu = DenseMatrix::identity(3).lu().unwrap();
        let b = vec![1.0, 2.0, 3.0];
        assert_eq!(lu.solve(&b).unwrap(), b);
        assert_eq!(lu.solve_transpose(&b).unwrap(), b);
        assert_eq!(lu.det(), 1.0);
    }

    #[test]
    fn solve_2x2() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(LinAlgError::Singular { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinAlgError::NotSquare { .. })));
    }

    #[test]
    fn mul_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c, DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn mul_shape_mismatch_errors() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 2);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn vec_mul_is_transpose_mul_vec() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = [5.0, 6.0];
        assert_eq!(a.vec_mul(&x), a.transpose().mul_vec(&x));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn norm_inf_max_row() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.25]]);
        assert_eq!(a.norm_inf(), 3.0);
    }

    #[test]
    fn display_shows_entries() {
        let a = DenseMatrix::identity(2);
        let s = a.to_string();
        assert!(s.contains("1.000000"));
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = DenseMatrix::identity(2);
        let b = DenseMatrix::identity(2);
        a.add_scaled(2.0, &b).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    fn arb_well_conditioned(n: usize) -> impl Strategy<Value = DenseMatrix> {
        proptest::collection::vec(-1.0..1.0f64, n * n).prop_map(move |mut data| {
            // Make strictly diagonally dominant so the matrix is invertible.
            for i in 0..n {
                data[i * n + i] += (n as f64) + 1.0;
            }
            DenseMatrix::from_vec(n, n, data).expect("sized correctly")
        })
    }

    proptest! {
        #[test]
        fn lu_solve_residual_small(
            a in arb_well_conditioned(5),
            b in proptest::collection::vec(-10.0..10.0f64, 5),
        ) {
            let lu = a.lu().unwrap();
            let x = lu.solve(&b).unwrap();
            let r = a.mul_vec(&x);
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-8);
            }
        }

        #[test]
        fn transpose_solve_residual_small(
            a in arb_well_conditioned(5),
            b in proptest::collection::vec(-10.0..10.0f64, 5),
        ) {
            let lu = a.lu().unwrap();
            let x = lu.solve_transpose(&b).unwrap();
            let r = a.vec_mul(&x); // xᵀ·A
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-8);
            }
        }

        #[test]
        fn det_of_product_sign_consistency(a in arb_well_conditioned(4)) {
            let lu = a.lu().unwrap();
            // Diagonally dominant with positive diagonal => positive determinant.
            prop_assert!(lu.det() > 0.0);
        }
    }
}
