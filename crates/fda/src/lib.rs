//! # mfod-fda
//!
//! Functional data representation for the `mfod` workspace, implementing
//! Section 2 of Lejeune et al. (EDBT 2020): noisy discrete measurements of a
//! curve are turned into a smooth *basis expansion*
//!
//! ```text
//! x̃(t) = Σ_l α_l φ_l(t)
//! ```
//!
//! whose coefficients are estimated by penalized least squares
//! (`α* = (ΦᵀΦ + λR)⁻¹ Φᵀ y`, Eq. 4 of the paper) so that derivatives of any
//! order can then be evaluated *analytically* (Eq. 2) — which is what the
//! geometric mapping functions of `mfod-geometry` consume.
//!
//! ## Modules
//!
//! * [`grid`] — strictly increasing evaluation grids.
//! * [`bspline`] — the one basis, B-splines (Sec. 2.1): Cox–de Boor,
//!   arbitrary-order derivatives, design matrices and exact Gauss–Legendre
//!   penalty matrices.
//! * [`smooth`] — the penalized least-squares smoother, LOOCV/GCV
//!   diagnostics and automatic basis-size/λ selection.
//! * [`selcache`] — grid-cached selection plans: the y-independent part of
//!   the selection ladder precomputed once per shared observation grid.
//! * [`datum`] — fitted single- and multi-channel functional data
//!   ([`datum::FunctionalDatum`], [`datum::MultiFunctionalDatum`]) and raw
//!   measurement containers ([`datum::RawCurve`], [`datum::RawSample`]).
//! * [`snapshot`] — the selector's persistence codecs.
//!
//! ## Quickstart
//!
//! ```
//! use mfod_fda::prelude::*;
//!
//! // Noisy samples of sin(2πt) on 40 points.
//! let m = 40;
//! let ts: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
//! let ys: Vec<f64> = ts.iter().map(|t| (std::f64::consts::TAU * t).sin()).collect();
//!
//! let basis = BSplineBasis::uniform(0.0, 1.0, 12, 4).unwrap();
//! let smoother = PenalizedLeastSquares::new(basis, 1e-6, 2).unwrap();
//! let fit = smoother.fit(&ts, &ys).unwrap();
//!
//! // Evaluate the smooth curve and its first derivative anywhere.
//! let x = fit.eval(0.25);
//! let dx = fit.eval_deriv(0.25, 1);
//! assert!((x - 1.0).abs() < 0.05);           // sin(π/2) = 1
//! assert!(dx.abs() < 1.0);                   // derivative ≈ 0 at the crest
//! ```

// Index-based loops are used deliberately in the numeric kernels: the
// loop index mirrors the textbook formulas being implemented.
#![allow(clippy::needless_range_loop)]

pub mod bspline;
pub mod datum;
pub mod error;
pub mod grid;
pub mod selcache;
pub mod smooth;
pub mod snapshot;

pub use bspline::BSplineBasis;
pub use datum::{FunctionalDatum, MultiFunctionalDatum, RawCurve, RawSample};
pub use error::FdaError;
pub use grid::Grid;
pub use selcache::SelectionPlan;
pub use smooth::{
    BasisSelector, FitDiagnostics, PenalizedLeastSquares, SelectionCriterion, SelectionResult,
};

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, FdaError>;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bspline::BSplineBasis;
    pub use crate::datum::{FunctionalDatum, MultiFunctionalDatum, RawCurve, RawSample};
    pub use crate::error::FdaError;
    pub use crate::grid::Grid;
    pub use crate::selcache::SelectionPlan;
    pub use crate::smooth::{
        BasisSelector, FitDiagnostics, PenalizedLeastSquares, SelectionCriterion, SelectionResult,
    };
}
