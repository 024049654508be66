//! Coordinate-format sparse matrix assembly.

use crate::CsrMatrix;

/// A sparse matrix in coordinate (triplet) format, used for assembly.
///
/// Entries may be pushed in any order; duplicates at the same position are
/// summed when converting to [`CsrMatrix`]. This is the natural target when
/// generating a Markov chain from a reachability graph, where the same
/// transition may be produced several times (e.g. two activity cases leading
/// to the same successor state).
///
/// # Example
///
/// ```
/// use sparsela::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 2.0);
/// coo.push(0, 1, 3.0); // summed with the previous entry
/// let csr = coo.into_csr();
/// assert_eq!(csr.get(0, 1), 5.0);
/// assert_eq!(csr.nnz(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds `value` at `(row, col)`. Zero values are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds — assembly writes out of
    /// bounds only through a programming error.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "CooMatrix::push: index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Converts to compressed sparse row format, summing duplicates and
    /// dropping entries that cancel to exactly zero. The entry list is
    /// sorted in place; a caller that needs the COO afterwards clones it.
    pub fn into_csr(self) -> CsrMatrix {
        let mut sorted = self.entries;
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());

        row_ptr.push(0);
        let mut current_row = 0usize;
        let mut i = 0usize;
        while i < sorted.len() {
            let (r, c, _) = sorted[i];
            // Sum the run of duplicates at (r, c).
            let mut v = 0.0;
            while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                v += sorted[i].2;
                i += 1;
            }
            if v != 0.0 {
                while current_row < r {
                    row_ptr.push(col_idx.len());
                    current_row += 1;
                }
                col_idx.push(c);
                values.push(v);
            }
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }

        CsrMatrix::from_raw_parts(self.rows, self.cols, row_ptr, col_idx, values)
    }
}

impl FromIterator<(usize, usize, f64)> for CooMatrix {
    /// Builds a matrix sized to fit the triplets.
    fn from_iter<I: IntoIterator<Item = (usize, usize, f64)>>(iter: I) -> Self {
        let entries: Vec<_> = iter.into_iter().collect();
        let rows = entries.iter().map(|&(r, _, _)| r + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|&(_, c, _)| c + 1).max().unwrap_or(0);
        let mut coo = CooMatrix::new(rows, cols);
        for (r, c, v) in entries {
            coo.push(r, c, v);
        }
        coo
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_matrix_has_no_entries() {
        let coo = CooMatrix::new(3, 4);
        let csr = coo.into_csr();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 1.5);
        coo.push(1, 0, 2.5);
        coo.push(0, 0, 1.0);
        let csr = coo.into_csr();
        assert_eq!(csr.get(1, 0), 4.0);
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, -1.0);
        assert_eq!(coo.into_csr().nnz(), 0);
    }

    #[test]
    fn zero_push_is_skipped() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.0);
        assert_eq!(coo.into_csr().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_panics_out_of_bounds() {
        CooMatrix::new(1, 1).push(0, 1, 1.0);
    }

    #[test]
    fn from_iterator_sizes_to_fit() {
        let coo: CooMatrix = vec![(0, 2, 1.0), (3, 1, 2.0)].into_iter().collect();
        assert_eq!(coo.rows(), 4);
        assert_eq!(coo.cols(), 3);
    }

    #[test]
    fn extend_appends() {
        let mut coo = CooMatrix::new(2, 2);
        coo.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(coo.into_csr().nnz(), 2);
    }

    #[test]
    fn trailing_empty_rows_are_represented() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        let csr = coo.into_csr();
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.row(3).count(), 0);
    }

    proptest! {
        #[test]
        fn into_csr_preserves_sums(
            triplets in proptest::collection::vec(
                (0usize..6, 0usize..6, -10.0..10.0f64), 0..50)
        ) {
            let mut coo = CooMatrix::new(6, 6);
            for &(r, c, v) in &triplets {
                coo.push(r, c, v);
            }
            let csr = coo.into_csr();
            // Dense reference accumulation.
            let mut dense = [[0.0f64; 6]; 6];
            for &(r, c, v) in &triplets {
                dense[r][c] += v;
            }
            for (r, row) in dense.iter().enumerate() {
                for (c, &want) in row.iter().enumerate() {
                    prop_assert!((csr.get(r, c) - want).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn push_order_does_not_matter(
            triplets in proptest::collection::vec(
                (0usize..5, 0usize..5, -5.0..5.0f64), 1..30)
        ) {
            let mut a = CooMatrix::new(5, 5);
            let mut b = CooMatrix::new(5, 5);
            for &(r, c, v) in &triplets {
                a.push(r, c, v);
            }
            for &(r, c, v) in triplets.iter().rev() {
                b.push(r, c, v);
            }
            let (ca, cb) = (a.into_csr(), b.into_csr());
            for r in 0..5 {
                for c in 0..5 {
                    prop_assert!((ca.get(r, c) - cb.get(r, c)).abs() < 1e-12);
                }
            }
        }
    }
}
