//! # mfod-geometry
//!
//! The paper's core idea (Sec. 3): treat a multivariate functional datum as
//! a **path** `X(t) ∈ R^p` and aggregate its `p` channels into a single
//! univariate functional datum through an interpretable *geometric mapping
//! function*. The mapped curve implicitly encodes the correlation between
//! channels w.r.t. `t`, so standard multivariate outlier detectors applied
//! to it can catch outliers whose abnormality hides in the channel
//! *relationship* (mixed-type outliers) and not only in individual channels.
//!
//! The flagship mapping is the **curvature** (Eq. 5 of the paper)
//!
//! ```text
//! κ(t) = ‖D¹( D¹X(t) / ‖D¹X(t)‖ )‖ / ‖D¹X(t)‖
//! ```
//!
//! implemented both in that definitional form ([`curvature::CurvatureEq5`])
//! and in the equivalent closed form
//! `κ = √(‖X′‖²‖X″‖² − (X′·X″)²) / ‖X′‖³` ([`curvature::Curvature`]); a
//! property test pins their agreement.
//!
//! Additional mappings (speed, arc length, torsion, turning angle, …) make
//! the "one example of mapping function" of the paper a family, and power
//! the ablation experiments.
//!
//! Each mapping is a formula over the path's derivative values on the grid
//! ([`mapping::PathDerivatives`]); [`MappingFunction::map`] evaluates the
//! orders the formula reads and checks the result.
//!
//! ```
//! use mfod_geometry::prelude::*;
//! use mfod_fda::prelude::*;
//! use std::sync::Arc;
//!
//! // The straight path (t, 2t) has zero curvature and constant speed √5.
//! // An order-2 B-spline with two functions spans the lines on [0, 1]; its
//! // coefficients are the values at t = 0 and t = 1.
//! let basis = Arc::new(BSplineBasis::uniform(0.0, 1.0, 2, 2).unwrap());
//! let x = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, 1.0]).unwrap();
//! let y = FunctionalDatum::new(basis, vec![0.0, 2.0]).unwrap();
//! let path = MultiFunctionalDatum::new(vec![x, y]).unwrap();
//! let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
//!
//! let kappa = Curvature.map(&path, &grid).unwrap();
//! assert!(kappa.iter().all(|&k| k.abs() < 1e-10));
//! let speed = Speed.map(&path, &grid).unwrap();
//! assert!(speed.iter().all(|&s| (s - 5f64.sqrt()).abs() < 1e-10));
//! ```

pub mod component;
pub mod curvature;
pub mod error;
pub mod kinematics;
pub mod mapping;
pub mod snapshot;
pub mod torsion;

pub use component::ComponentMapping;
pub use curvature::{Curvature, CurvatureEq5, RadiusOfCurvature};
pub use error::GeometryError;
pub use kinematics::{Acceleration, ArcLength, LogSpeed, Speed, SrvfNorm, TurningAngle};
pub use mapping::{MappingFunction, PathDerivatives};
pub use snapshot::{snapshot_mapping, MappingSnapshot};
pub use torsion::Torsion;

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, GeometryError>;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::component::ComponentMapping;
    pub use crate::curvature::{Curvature, CurvatureEq5, RadiusOfCurvature};
    pub use crate::error::GeometryError;
    pub use crate::kinematics::{Acceleration, ArcLength, LogSpeed, Speed, SrvfNorm, TurningAngle};
    pub use crate::mapping::{MappingFunction, PathDerivatives};
    pub use crate::snapshot::{snapshot_mapping, MappingSnapshot};
    pub use crate::torsion::Torsion;
}
