//! Kinematic mapping functions: speed, log-speed, arc length, acceleration
//! magnitude and planar turning angle.
//!
//! These complement the curvature mapping: speed-type mappings are sensitive
//! to *magnitude/isolated* outlyingness (a spike changes `‖X′‖` sharply),
//! while arc length accumulates persistent deviations — together they cover
//! the Hubert et al. taxonomy discussed in Sec. 1.1 of the paper.

use crate::mapping::{MappingFunction, PathDerivatives, SPEED_EPS};
use crate::Result;
use mfod_linalg::vector;
use std::ops::RangeInclusive;

/// Speed mapping `s(t) = ‖D¹X(t)‖`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Speed;

impl MappingFunction for Speed {
    fn name(&self) -> &'static str {
        "speed"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Speed)
    }

    fn orders(&self) -> RangeInclusive<usize> {
        1..=1
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        Ok(d.rows(1).map(vector::norm2).collect())
    }
}

/// Log-speed mapping `log(‖D¹X(t)‖ + ε)`, a variance-stabilized speed
/// useful when speeds span orders of magnitude.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogSpeed;

impl MappingFunction for LogSpeed {
    fn name(&self) -> &'static str {
        "log-speed"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::LogSpeed)
    }

    fn orders(&self) -> RangeInclusive<usize> {
        Speed.orders()
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        let speed = Speed.formula(d)?;
        Ok(speed.into_iter().map(|s| (s + SPEED_EPS).ln()).collect())
    }
}

/// Cumulative arc length `ℓ(t) = ∫ₐᵗ ‖D¹X(u)‖ du` (trapezoidal on the
/// grid), a monotone mapping that accumulates persistent deviations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArcLength;

impl MappingFunction for ArcLength {
    fn name(&self) -> &'static str {
        "arc-length"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::ArcLength)
    }

    fn orders(&self) -> RangeInclusive<usize> {
        Speed.orders()
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        let speed = Speed.formula(d)?;
        Ok(vector::cumtrapz(d.grid().points(), &speed))
    }
}

/// Acceleration-magnitude mapping `‖D²X(t)‖`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acceleration;

impl MappingFunction for Acceleration {
    fn name(&self) -> &'static str {
        "acceleration"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Acceleration)
    }

    fn orders(&self) -> RangeInclusive<usize> {
        2..=2
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        Ok(d.rows(2).map(vector::norm2).collect())
    }
}

/// Norm of the square-root velocity function (SRVF) of shape analysis
/// (Srivastava & Klassen, *Functional and Shape Data Analysis* — the
/// paper's reference \[15\]): `‖q(t)‖ = ‖X′(t)‖ / √‖X′(t)‖ = √‖X′(t)‖`.
///
/// The SRVF is the representation under which the elastic (Fisher–Rao)
/// metric becomes the plain L² metric, so distances between mapped curves
/// approximate elastic shape distances — a principled alternative feature
/// for the detector stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrvfNorm;

impl MappingFunction for SrvfNorm {
    fn name(&self) -> &'static str {
        "srvf-norm"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::SrvfNorm)
    }

    fn orders(&self) -> RangeInclusive<usize> {
        Speed.orders()
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        let speed = Speed.formula(d)?;
        Ok(speed.into_iter().map(f64::sqrt).collect())
    }
}

/// Planar turning angle `θ(t) = atan2(x₂′(t), x₁′(t))`, unwrapped to be
/// continuous. Only defined for `p = 2`; where the speed vanishes the last
/// well-defined angle is carried forward.
#[derive(Debug, Clone, Copy, Default)]
pub struct TurningAngle;

impl MappingFunction for TurningAngle {
    fn name(&self) -> &'static str {
        "turning-angle"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::TurningAngle)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn max_dim(&self) -> usize {
        2
    }

    fn orders(&self) -> RangeInclusive<usize> {
        1..=1
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(d.grid().len());
        let mut prev_raw: Option<f64> = None;
        let mut offset = 0.0;
        let mut last = 0.0;
        for v in d.rows(1) {
            let angle = if vector::norm2(v) < SPEED_EPS {
                last // carry the last well-defined angle forward
            } else {
                let raw = v[1].atan2(v[0]);
                if let Some(p) = prev_raw {
                    // unwrap: keep |Δθ| <= π by adding multiples of 2π
                    let mut d = raw - p;
                    while d > std::f64::consts::PI {
                        d -= std::f64::consts::TAU;
                        offset -= std::f64::consts::TAU;
                    }
                    while d < -std::f64::consts::PI {
                        d += std::f64::consts::TAU;
                        offset += std::f64::consts::TAU;
                    }
                }
                prev_raw = Some(raw);
                raw + offset
            };
            last = angle;
            out.push(angle);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::closed_form::{circle, line};
    use crate::GeometryError;
    use mfod_fda::Grid;

    fn line_2d(slope_x: f64, slope_y: f64, grid: &Grid) -> PathDerivatives {
        line(&[0.0, 0.0], &[slope_x, slope_y], grid)
    }

    #[test]
    fn speed_of_line_is_constant() {
        let grid = Grid::uniform(0.0, 1.0, 11).unwrap();
        let s = Speed.map_derivatives(&line_2d(3.0, 4.0, &grid)).unwrap();
        assert!(s.iter().all(|&v| (v - 5.0).abs() < 1e-10), "{s:?}");
    }

    #[test]
    fn speed_of_circle_is_circumference_rate() {
        // circle of radius r traversed once in unit time: speed = 2πr
        let grid = Grid::uniform(0.0, 1.0, 11).unwrap();
        let s = Speed.map_derivatives(&circle(2.0, &grid)).unwrap();
        let expect = std::f64::consts::TAU * 2.0;
        assert!(s.iter().all(|&v| (v - expect).abs() < 1e-8), "{s:?}");
    }

    #[test]
    fn log_speed_is_log_of_speed() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        let path = line_2d(3.0, 4.0, &grid);
        let s = Speed.map_derivatives(&path).unwrap();
        let ls = LogSpeed.map_derivatives(&path).unwrap();
        for (a, b) in s.iter().zip(&ls) {
            assert!(((a + SPEED_EPS).ln() - b).abs() < 1e-12);
        }
    }

    #[test]
    fn arc_length_of_line_is_distance() {
        let grid = Grid::uniform(0.0, 1.0, 101).unwrap();
        let l = ArcLength
            .map_derivatives(&line_2d(3.0, 4.0, &grid))
            .unwrap();
        assert_eq!(l[0], 0.0);
        assert!((l[100] - 5.0).abs() < 1e-9);
        // monotone non-decreasing
        for w in l.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn arc_length_of_circle_is_circumference() {
        let grid = Grid::uniform(0.0, 1.0, 201).unwrap();
        let l = ArcLength.map_derivatives(&circle(1.0, &grid)).unwrap();
        assert!((l[200] - std::f64::consts::TAU).abs() < 1e-6, "{}", l[200]);
    }

    #[test]
    fn acceleration_of_line_is_zero() {
        let grid = Grid::uniform(0.0, 1.0, 7).unwrap();
        let a = Acceleration
            .map_derivatives(&line_2d(1.0, 2.0, &grid))
            .unwrap();
        assert!(a.iter().all(|&v| v.abs() < 1e-10));
    }

    #[test]
    fn acceleration_of_circle_is_centripetal() {
        // ‖a‖ = ω²r with ω = 2π, r = 1
        let grid = Grid::uniform(0.0, 1.0, 7).unwrap();
        let a = Acceleration.map_derivatives(&circle(1.0, &grid)).unwrap();
        let expect = std::f64::consts::TAU * std::f64::consts::TAU;
        assert!(a.iter().all(|&v| (v - expect).abs() < 1e-7), "{a:?}");
    }

    #[test]
    fn turning_angle_of_line_is_constant() {
        let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
        let th = TurningAngle
            .map_derivatives(&line_2d(1.0, 1.0, &grid))
            .unwrap();
        let expect = std::f64::consts::FRAC_PI_4;
        assert!(th.iter().all(|&v| (v - expect).abs() < 1e-10), "{th:?}");
    }

    #[test]
    fn turning_angle_of_circle_unwraps_continuously() {
        // Full traversal of a circle turns the tangent by 2π total without
        // jumps larger than the grid step would imply.
        let grid = Grid::uniform(0.0, 1.0, 101).unwrap();
        let th = TurningAngle.map_derivatives(&circle(1.0, &grid)).unwrap();
        let total = th[100] - th[0];
        assert!(
            (total.abs() - std::f64::consts::TAU).abs() < 1e-6,
            "total {total}"
        );
        for w in th.windows(2) {
            assert!((w[1] - w[0]).abs() < 0.2, "jump {}", (w[1] - w[0]).abs());
        }
    }

    #[test]
    fn turning_angle_requires_exactly_2d() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        assert!(matches!(
            TurningAngle.map_derivatives(&line(&[0.0; 3], &[1.0; 3], &grid)),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
    }

    #[test]
    fn srvf_norm_is_sqrt_speed() {
        let grid = Grid::uniform(0.0, 1.0, 7).unwrap();
        let q = SrvfNorm.map_derivatives(&line_2d(3.0, 4.0, &grid)).unwrap();
        // ‖X′‖ = 5 everywhere ⇒ ‖q‖ = √5
        assert!(
            q.iter().all(|&v| (v - 5.0f64.sqrt()).abs() < 1e-10),
            "{q:?}"
        );
        // circle of radius r: speed 2πr ⇒ √(2πr)
        let q = SrvfNorm.map_derivatives(&circle(2.0, &grid)).unwrap();
        let expect = (std::f64::consts::TAU * 2.0).sqrt();
        assert!(q.iter().all(|&v| (v - expect).abs() < 1e-7));
        assert_eq!(SrvfNorm.name(), "srvf-norm");
    }

    #[test]
    fn speed_works_for_univariate() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        let s = Speed
            .map_derivatives(&line(&[0.0], &[-2.0], &grid))
            .unwrap();
        assert!(s.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }
}
