//! Curvature mapping functions (Eq. 5 of the paper).
//!
//! The curvature of a path `X(t) ∈ R^p` measures how quickly the unit
//! tangent changes direction relative to the distance travelled. Two
//! algebraically equivalent implementations are provided:
//!
//! * [`Curvature`] — the closed form
//!   `κ = √(‖X′‖²‖X″‖² − (X′·X″)²) / ‖X′‖³`, preferred in the pipeline
//!   (one fused expression, no intermediate normalization), and
//! * [`CurvatureEq5`] — the paper's definitional form
//!   `κ = ‖D¹(D¹X/‖D¹X‖)‖ / ‖D¹X‖`, expanding the derivative of the unit
//!   tangent as `T′ = X″/‖X′‖ − X′·(X′ᵀX″)/‖X′‖³`.
//!
//! **Stationary-point convention.** Where `‖X′(t)‖ < SPEED_EPS` the
//! curvature is undefined; both mappings return `0` there. This matches the
//! use in the paper: a stationary point of a *smoothed* path is a
//! measure-zero event and the downstream detector consumes grid samples.

use crate::mapping::{MappingFunction, PathDerivatives, SPEED_EPS};
use crate::Result;
use mfod_linalg::vector;
use std::ops::RangeInclusive;

/// Closed-form curvature `κ = √(‖X′‖²‖X″‖² − (X′·X″)²) / ‖X′‖³`.
///
/// Requires `p >= 2`: a path in `R¹` is a straight line whose curvature is
/// identically zero, so mapping it is almost surely a bug (augment the
/// sample first, as the paper does with the squared channel).
#[derive(Debug, Clone, Copy, Default)]
pub struct Curvature;

/// Curvature at a point given velocity `v = X′` and acceleration `a = X″`.
///
/// Exposed for reuse by [`RadiusOfCurvature`], tests and benchmarks.
pub fn curvature_from_derivatives(v: &[f64], a: &[f64]) -> f64 {
    let speed_sq = vector::dot(v, v);
    let speed = speed_sq.sqrt();
    if speed < SPEED_EPS {
        return 0.0;
    }
    let acc_sq = vector::dot(a, a);
    let va = vector::dot(v, a);
    // Lagrange identity: ‖v‖²‖a‖² − (v·a)² = ‖v × a‖² >= 0; clamp the
    // floating-point residual.
    let cross_sq = (speed_sq * acc_sq - va * va).max(0.0);
    cross_sq.sqrt() / (speed_sq * speed)
}

impl MappingFunction for Curvature {
    fn name(&self) -> &'static str {
        "curvature"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Curvature)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn orders(&self) -> RangeInclusive<usize> {
        1..=2
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        Ok(d.rows(1)
            .zip(d.rows(2))
            .map(|(v, a)| curvature_from_derivatives(v, a))
            .collect())
    }
}

/// Definitional curvature, Eq. 5 of the paper: the norm of the derivative
/// of the unit tangent, scaled by the speed.
///
/// `T′` is expanded analytically (quotient rule on `X′/‖X′‖`), so this is
/// exact, not a finite difference. Kept separate from [`Curvature`] to
/// document and test the equivalence of the two formulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct CurvatureEq5;

impl MappingFunction for CurvatureEq5 {
    fn name(&self) -> &'static str {
        "curvature-eq5"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::CurvatureEq5)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn orders(&self) -> RangeInclusive<usize> {
        1..=2
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        let unit_tangent_rate = |v: &[f64], a: &[f64]| {
            let speed = vector::norm2(v);
            if speed < SPEED_EPS {
                return 0.0;
            }
            // T' = a/‖v‖ − v (v·a)/‖v‖³
            let va = vector::dot(v, a);
            let mut tprime: Vec<f64> = a.iter().map(|ai| ai / speed).collect();
            let coef = va / (speed * speed * speed);
            for (tp, vi) in tprime.iter_mut().zip(v) {
                *tp -= coef * vi;
            }
            vector::norm2(&tprime) / speed
        };
        Ok(d.rows(1)
            .zip(d.rows(2))
            .map(|(v, a)| unit_tangent_rate(v, a))
            .collect())
    }
}

/// Radius of the osculating (tangent) circle, `r = 1/κ` (Fig. 2 of the
/// paper), capped at `1/SPEED_EPS` where the path is locally straight.
#[derive(Debug, Clone, Copy, Default)]
pub struct RadiusOfCurvature;

impl MappingFunction for RadiusOfCurvature {
    fn name(&self) -> &'static str {
        "radius-of-curvature"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::RadiusOfCurvature)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn orders(&self) -> RangeInclusive<usize> {
        Curvature.orders()
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        Ok(Curvature
            .formula(d)?
            .into_iter()
            .map(|k| {
                if k < SPEED_EPS {
                    1.0 / SPEED_EPS
                } else {
                    1.0 / k
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::closed_form::{circle, helix, line};
    use crate::GeometryError;
    use mfod_fda::Grid;

    #[test]
    fn circle_curvature_is_inverse_radius() {
        let grid = Grid::uniform(0.0, 1.0, 33).unwrap();
        for &r in &[0.5, 1.0, 2.0, 10.0] {
            let k = Curvature.map_derivatives(&circle(r, &grid)).unwrap();
            for &ki in &k {
                assert!((ki - 1.0 / r).abs() < 1e-8, "r={r}: κ={ki}");
            }
        }
    }

    #[test]
    fn line_curvature_is_zero() {
        let grid = Grid::uniform(0.0, 1.0, 17).unwrap();
        let k = Curvature
            .map_derivatives(&line(&[0.0, 1.0], &[1.0, 2.0], &grid))
            .unwrap();
        assert!(k.iter().all(|&ki| ki.abs() < 1e-10), "{k:?}");
    }

    #[test]
    fn eq5_matches_closed_form() {
        let grid = Grid::uniform(0.0, 1.0, 25).unwrap();
        let path = circle(1.5, &grid);
        let k1 = Curvature.map_derivatives(&path).unwrap();
        let k2 = CurvatureEq5.map_derivatives(&path).unwrap();
        for (a, b) in k1.iter().zip(&k2) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn curvature_is_parametrization_dependent_scaling_invariant() {
        // Scaling the whole path by c scales curvature by 1/c.
        let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
        let k1 = Curvature.map_derivatives(&circle(1.0, &grid)).unwrap();
        let k3 = Curvature.map_derivatives(&circle(3.0, &grid)).unwrap();
        for (a, b) in k1.iter().zip(&k3) {
            assert!((a / 3.0 - b).abs() < 1e-8);
        }
    }

    #[test]
    fn radius_of_curvature_inverts() {
        let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
        let r = RadiusOfCurvature
            .map_derivatives(&circle(2.0, &grid))
            .unwrap();
        assert!(r.iter().all(|&ri| (ri - 2.0).abs() < 1e-7), "{r:?}");
        // straight line => capped radius
        let r = RadiusOfCurvature
            .map_derivatives(&line(&[0.0, 1.0], &[1.0, 2.0], &grid))
            .unwrap();
        assert!(r.iter().all(|&ri| ri == 1.0 / SPEED_EPS));
    }

    #[test]
    fn univariate_input_rejected() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        assert!(matches!(
            Curvature.map_derivatives(&line(&[0.0], &[1.0], &grid)),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
    }

    #[test]
    fn stationary_path_maps_to_zero() {
        // constant path: X(t) = (1, 1): speed 0 everywhere
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        let still = line(&[1.0, 1.0], &[0.0, 0.0], &grid);
        let k = Curvature.map_derivatives(&still).unwrap();
        assert!(k.iter().all(|&ki| ki == 0.0));
        let k = CurvatureEq5.map_derivatives(&still).unwrap();
        assert!(k.iter().all(|&ki| ki == 0.0));
    }

    #[test]
    fn pointwise_helper_known_values() {
        // planar: v = (1, 0), a = (0, 1) → κ = 1
        assert!((curvature_from_derivatives(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        // v = (2, 0), a = (0, 1): κ = ‖v×a‖/‖v‖³ = 2/8 = 0.25
        assert!((curvature_from_derivatives(&[2.0, 0.0], &[0.0, 1.0]) - 0.25).abs() < 1e-12);
        // parallel v, a → 0
        assert_eq!(curvature_from_derivatives(&[1.0, 1.0], &[2.0, 2.0]), 0.0);
        // zero velocity → 0 by convention
        assert_eq!(curvature_from_derivatives(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn helix_curvature_in_3d() {
        // The helix (r cos ωt, r sin ωt, ct) has κ = rω² / (r²ω² + c²).
        let (r, omega, c) = (1.0, std::f64::consts::TAU, 0.5);
        let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
        let expect = r * omega * omega / (r * r * omega * omega + c * c);
        for mapping in [&Curvature as &dyn MappingFunction, &CurvatureEq5] {
            let k = mapping.map_derivatives(&helix(r, omega, c, &grid)).unwrap();
            assert!(k.iter().all(|&ki| (ki - expect).abs() < 1e-9), "{k:?}");
        }
    }
}
