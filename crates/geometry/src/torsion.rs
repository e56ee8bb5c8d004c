//! Torsion mapping for space curves (`p = 3`).

use crate::mapping::{MappingFunction, PathDerivatives, SPEED_EPS};
use crate::Result;
use mfod_linalg::vector;
use std::ops::RangeInclusive;

/// Torsion `τ(t) = ((X′ × X″) · X‴) / ‖X′ × X″‖²` of a path in `R³`: the
/// rate at which the curve leaves its osculating plane. Planar curves have
/// zero torsion; by convention points where `‖X′ × X″‖ < SPEED_EPS`
/// (straight segments) also map to zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Torsion;

/// Cross product of two 3-vectors.
fn cross3(a: &[f64], b: &[f64]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// Torsion at a point from the first three derivatives — exposed for tests.
pub fn torsion_from_derivatives(v: &[f64], a: &[f64], j: &[f64]) -> f64 {
    let c = cross3(v, a);
    let denom = vector::dot(&c, &c);
    if denom < SPEED_EPS * SPEED_EPS {
        return 0.0;
    }
    vector::dot(&c, j) / denom
}

impl MappingFunction for Torsion {
    fn name(&self) -> &'static str {
        "torsion"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Torsion)
    }

    fn min_dim(&self) -> usize {
        3
    }

    fn max_dim(&self) -> usize {
        3
    }

    fn orders(&self) -> RangeInclusive<usize> {
        1..=3
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        Ok(d.rows(1)
            .zip(d.rows(2))
            .zip(d.rows(3))
            .map(|((v, a), j)| torsion_from_derivatives(v, a, j))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::closed_form::{helix, line, path};
    use crate::GeometryError;
    use mfod_fda::Grid;

    #[test]
    fn helix_torsion_analytic() {
        // The helix (r cos ωt, r sin ωt, ct) has τ = cω / (r²ω² + c²).
        let (r, omega, c) = (2.0, 1.0, 0.5);
        let grid = Grid::uniform(0.0, 9.0, 10).unwrap();
        let tau = Torsion.map_derivatives(&helix(r, omega, c, &grid)).unwrap();
        let expect = c * omega / (r * r * omega * omega + c * c);
        for (t, ti) in grid.iter().zip(&tau) {
            assert!((ti - expect).abs() < 1e-10, "t={t}: {ti}");
        }
    }

    #[test]
    fn planar_curve_has_zero_torsion() {
        // parabola in the z = 0 plane
        let v = [1.0, 2.0, 0.0];
        let a = [0.0, 2.0, 0.0];
        let j = [0.0, 0.0, 0.0];
        assert_eq!(torsion_from_derivatives(&v, &a, &j), 0.0);
    }

    #[test]
    fn straight_segment_convention() {
        let v = [1.0, 0.0, 0.0];
        let a = [2.0, 0.0, 0.0]; // parallel: cross = 0
        let j = [0.0, 1.0, 0.0];
        assert_eq!(torsion_from_derivatives(&v, &a, &j), 0.0);
    }

    #[test]
    fn mapping_requires_3d() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        assert!(matches!(
            Torsion.map_derivatives(&line(&[0.0; 2], &[1.0; 2], &grid)),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
        assert!(Torsion
            .map_derivatives(&line(&[0.0; 4], &[1.0; 4], &grid))
            .is_err());
    }

    #[test]
    fn cubic_twisted_curve_maps_finite() {
        // twisted cubic (t, t², t³): τ = 3/(9t⁴ + 9t² + 1)
        let grid = Grid::uniform(0.0, 1.0, 11).unwrap();
        let cubic = path(&grid, |t, d| match d {
            0 => vec![t, t * t, t * t * t],
            1 => vec![1.0, 2.0 * t, 3.0 * t * t],
            2 => vec![0.0, 2.0, 6.0 * t],
            _ => vec![0.0, 0.0, 6.0],
        });
        let tau = Torsion.map_derivatives(&cubic).unwrap();
        for (t, ti) in grid.iter().zip(&tau) {
            let expect = 3.0 / (9.0 * t.powi(4) + 9.0 * t * t + 1.0);
            assert!((ti - expect).abs() < 1e-8, "t={t}: {ti} vs {expect}");
        }
    }
}
