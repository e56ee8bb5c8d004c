//! Property-based tests for the geometric mapping functions.

use mfod_fda::prelude::*;
use mfod_geometry::curvature::curvature_from_derivatives;
use mfod_geometry::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The bivariate path whose channels have the given coefficients in the
/// cubic Bernstein basis: `BSplineBasis::uniform(0, 1, 4, 4)` spans the
/// cubic polynomials on [0, 1].
fn cubic_path(cx: Vec<f64>, cy: Vec<f64>) -> MultiFunctionalDatum {
    let basis = Arc::new(BSplineBasis::uniform(0.0, 1.0, 4, 4).unwrap());
    let x = FunctionalDatum::new(Arc::clone(&basis), cx).unwrap();
    let y = FunctionalDatum::new(basis, cy).unwrap();
    MultiFunctionalDatum::new(vec![x, y]).unwrap()
}

/// Random smooth bivariate path from cubic channels.
fn poly_path() -> impl Strategy<Value = MultiFunctionalDatum> {
    (
        prop::collection::vec(-3.0..3.0f64, 4),
        prop::collection::vec(-3.0..3.0f64, 4),
    )
        .prop_map(|(cx, cy)| cubic_path(cx, cy))
}

proptest! {
    #[test]
    fn curvature_nonnegative(path in poly_path()) {
        let grid = Grid::uniform(0.0, 1.0, 21).unwrap();
        let k = Curvature.map(&path, &grid).unwrap();
        prop_assert!(k.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn eq5_equals_closed_form(path in poly_path()) {
        let grid = Grid::uniform(0.0, 1.0, 17).unwrap();
        let k1 = Curvature.map(&path, &grid).unwrap();
        let k2 = CurvatureEq5.map(&path, &grid).unwrap();
        for (a, b) in k1.iter().zip(&k2) {
            prop_assert!((a - b).abs() < 1e-7 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn curvature_invariant_to_rigid_motion(
        path in poly_path(),
        angle in 0.0..std::f64::consts::TAU,
        dx in -5.0..5.0f64,
        dy in -5.0..5.0f64,
    ) {
        // Rotate + translate the path: curvature must be unchanged.
        let (c, s) = (angle.cos(), angle.sin());
        let grid = Grid::uniform(0.0, 1.0, 13).unwrap();
        let k_orig = Curvature.map(&path, &grid).unwrap();

        // Rebuild rotated channels in the same basis: rotation is linear so
        // coefficients rotate likewise; the basis is a partition of unity,
        // so translation adds to every coefficient.
        let cx = path.channels()[0].coefs();
        let cy = path.channels()[1].coefs();
        let rx: Vec<f64> = (0..4).map(|i| c * cx[i] - s * cy[i] + dx).collect();
        let ry: Vec<f64> = (0..4).map(|i| s * cx[i] + c * cy[i] + dy).collect();
        let moved = cubic_path(rx, ry);
        let k_moved = Curvature.map(&moved, &grid).unwrap();
        for (a, b) in k_orig.iter().zip(&k_moved) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn curvature_scales_inversely(path in poly_path(), scale in 0.5..4.0f64) {
        let grid = Grid::uniform(0.0, 1.0, 13).unwrap();
        let k_orig = Curvature.map(&path, &grid).unwrap();
        let sx: Vec<f64> = path.channels()[0].coefs().iter().map(|v| v * scale).collect();
        let sy: Vec<f64> = path.channels()[1].coefs().iter().map(|v| v * scale).collect();
        let scaled = cubic_path(sx, sy);
        let k_scaled = Curvature.map(&scaled, &grid).unwrap();
        for (a, b) in k_orig.iter().zip(&k_scaled) {
            // κ(cX) = κ(X)/c wherever the speed is not degenerate
            if *a > 1e-6 {
                prop_assert!((a / scale - b).abs() < 1e-5 * (1.0 + a.abs()), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn pointwise_curvature_triangle(v in prop::collection::vec(-5.0..5.0f64, 3),
                                    a in prop::collection::vec(-5.0..5.0f64, 3)) {
        let k = curvature_from_derivatives(&v, &a);
        prop_assert!(k >= 0.0);
        prop_assert!(k.is_finite());
        // bound: κ <= ‖a‖ / ‖v‖²
        let vn = mfod_linalg::vector::norm2(&v);
        let an = mfod_linalg::vector::norm2(&a);
        if vn > 1e-6 {
            prop_assert!(k <= an / (vn * vn) + 1e-9);
        }
    }

    #[test]
    fn arc_length_monotone_and_additive(path in poly_path()) {
        let grid = Grid::uniform(0.0, 1.0, 41).unwrap();
        let l = ArcLength.map(&path, &grid).unwrap();
        prop_assert_eq!(l[0], 0.0);
        for w in l.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        // arc length >= straight-line distance between endpoints
        let ends = path.eval_grid(&Grid::new(vec![0.0, 1.0]).unwrap());
        let chord = mfod_linalg::vector::dist2(ends.row(0), ends.row(1));
        prop_assert!(l[40] >= chord - 1e-6, "arc {} < chord {chord}", l[40]);
    }

    #[test]
    fn speed_matches_arc_length_derivative(path in poly_path()) {
        // finite-difference the cumulative arc length and compare to speed
        let grid = Grid::uniform(0.0, 1.0, 201).unwrap();
        let l = ArcLength.map(&path, &grid).unwrap();
        let s = Speed.map(&path, &grid).unwrap();
        let h = 1.0 / 200.0;
        for j in 1..200 {
            // near-stationary points the speed is non-smooth (norm kink), so
            // the finite difference is unreliable there — skip them
            if s[j] < 0.1 {
                continue;
            }
            let fd = (l[j + 1] - l[j - 1]) / (2.0 * h);
            prop_assert!((fd - s[j]).abs() < 0.05 * (1.0 + s[j]), "j={j}");
        }
    }
}
