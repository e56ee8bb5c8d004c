//! Error type shared by the linear algebra kernels.

use std::fmt;

/// Errors produced by factorizations and solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// What was being attempted (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The matrix is not square but the operation requires it.
    NotSquare {
        /// Actual shape encountered.
        shape: (usize, usize),
    },
    /// A factorization failed because the matrix is singular (or, for
    /// Cholesky, not positive definite) at the given pivot index.
    Singular {
        /// Pivot index at which the breakdown occurred.
        pivot: usize,
    },
    /// A reconstructed factorization (e.g. restored from a snapshot) does
    /// not satisfy the factor's structural invariants.
    InvalidFactor {
        /// Which invariant was violated.
        reason: &'static str,
    },
    /// Input contained NaN or infinite entries.
    NonFinite,
    /// The input was empty where a non-empty input is required.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix is {}x{} but must be square", shape.0, shape.1)
            }
            LinalgError::Singular { pivot } => {
                write!(
                    f,
                    "matrix is singular or not positive definite at pivot {pivot}"
                )
            }
            LinalgError::InvalidFactor { reason } => {
                write!(f, "invalid factorization factor: {reason}")
            }
            LinalgError::NonFinite => write!(f, "input contains NaN or infinite values"),
            LinalgError::Empty => write!(f, "input is empty"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains("2x3"));
        let e = LinalgError::NotSquare { shape: (2, 3) };
        assert!(e.to_string().contains("square"));
        let e = LinalgError::Singular { pivot: 7 };
        assert!(e.to_string().contains('7'));
        let e = LinalgError::InvalidFactor {
            reason: "not lower-triangular",
        };
        assert!(e.to_string().contains("lower-triangular"));
        assert!(LinalgError::NonFinite.to_string().contains("NaN"));
        assert!(LinalgError::Empty.to_string().contains("empty"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LinalgError::Empty);
    }
}
