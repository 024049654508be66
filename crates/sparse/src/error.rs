use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinAlgError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: String,
        /// Shape expected by the operation.
        expected: (usize, usize),
        /// Shape actually supplied.
        found: (usize, usize),
    },
    /// A matrix required to be square was not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A factorization or direct solve hit a (numerically) singular pivot.
    Singular {
        /// Index of the pivot at which elimination broke down.
        pivot: usize,
    },
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        /// The offending (row, col) pair.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
    /// An input value was invalid (NaN, non-positive where positivity is required, …).
    InvalidValue {
        /// Description of the invalid input.
        context: String,
    },
}

impl fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinAlgError::DimensionMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            LinAlgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinAlgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinAlgError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            LinAlgError::InvalidValue { context } => {
                write!(f, "invalid value: {context}")
            }
        }
    }
}

impl std::error::Error for LinAlgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinAlgError::DimensionMismatch {
            context: "mul_vec".to_string(),
            expected: (3, 3),
            found: (3, 2),
        };
        let s = e.to_string();
        assert!(s.contains("mul_vec"));
        assert!(s.contains("3x3"));
        assert!(s.contains("3x2"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinAlgError>();
    }
}
