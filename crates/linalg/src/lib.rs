//! # mfod-linalg
//!
//! Small, dependency-free dense linear algebra kernels sized for the needs of
//! the `mfod` workspace: penalized least-squares smoothing systems
//! (a few hundred unknowns at most), kernel matrices for one-class SVMs,
//! covariance manipulation for depth functions, and Gauss–Legendre
//! quadrature for penalty matrices.
//!
//! The centerpiece is [`Matrix`], a row-major dense `f64` matrix, with the
//! one factorization the workspace uses: [`cholesky::Cholesky`], for the
//! SPD solves of the ridge and smoothing systems. The work-stealing pool
//! behind every parallel fan-out lives in [`par`].
//!
//! Free-function vector kernels (dot products, norms, robust statistics such
//! as the median and the MAD) live in [`vector`]; Gauss–Legendre nodes in
//! [`quadrature`].
//!
//! ## Example
//!
//! ```
//! use mfod_linalg::{Matrix, cholesky::Cholesky};
//!
//! // Solve the SPD system (AᵀA + I) x = b.
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
//! let mut ata = a.transpose().matmul(&a);
//! for i in 0..2 { ata[(i, i)] += 1.0; }
//! let chol = Cholesky::new(&ata).unwrap();
//! let x = chol.solve(&[1.0, 1.0]);
//! assert_eq!(x.len(), 2);
//! ```

// Index-based loops are used deliberately in the numeric kernels: the
// loop index mirrors the textbook formulas being implemented.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod error;
pub mod matrix;
pub mod par;
pub mod quadrature;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;

/// Workspace-wide `Result` alias for linear algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
