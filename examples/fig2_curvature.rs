//! Regenerates the geometry of the paper's **Fig. 2**: the curvature as the
//! inverse radius of the tangent (osculating) circle, on a curve with a
//! slow bend followed by a sharp one.
//!
//! ```sh
//! cargo run --release --example fig2_curvature
//! ```

use mfod::fda::prelude::*;
use mfod::geometry::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A planar path that starts almost straight and then turns sharply:
    // x(t) = t, y(t) = t⁴, which is nearly flat near 0, bends hardest near
    // t = 0.5 and straightens again as it steepens. The quartic Bernstein
    // basis (an order-5 B-spline with 5 functions) spans both channels: t
    // has coefficients k/4, and t⁴ is the last basis function.
    let basis = Arc::new(BSplineBasis::uniform(0.0, 1.0, 5, 5)?);
    let x = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, 0.25, 0.5, 0.75, 1.0])?;
    let y = FunctionalDatum::new(basis, vec![0.0, 0.0, 0.0, 0.0, 1.0])?;
    let path = MultiFunctionalDatum::new(vec![x, y])?;

    let grid = Grid::uniform(0.0, 1.0, 21)?;
    let kappa = Curvature.map(&path, &grid)?;
    let radius = RadiusOfCurvature.map(&path, &grid)?;

    println!("# Fig. 2: curvature κ(t) and tangent-circle radius r(t) = 1/κ(t)");
    println!("{:>6} {:>12} {:>14}", "t", "kappa", "radius");
    for ((t, k), r) in grid.iter().zip(&kappa).zip(&radius) {
        println!("{t:>6.2} {k:>12.5} {r:>14.3}");
    }

    // The figure's statement: where the tangent direction changes slowly the
    // circle is large (small κ); where it turns fast the circle is small.
    let early = kappa[2]; // t = 0.1: nearly straight
    let bend = kappa[10]; // t = 0.5: the sharpest bend
    println!("\n# κ(0.1) = {early:.5} (large tangent circle)");
    println!("# κ(0.5) = {bend:.5} (small tangent circle)");
    assert!(
        bend > early * 3.0,
        "curvature must grow sharply along this path"
    );

    // Analytic cross-check at t where y = t⁴: κ = |y''| / (1 + y'²)^{3/2}.
    for &t in &[0.25f64, 0.5, 0.75] {
        let yp = 4.0 * t * t * t;
        let ypp = 12.0 * t * t;
        let analytic = ypp / (1.0 + yp * yp).powf(1.5);
        let j = (t * 20.0).round() as usize;
        println!("# t={t}: analytic {analytic:.5} vs mapped {:.5}", kappa[j]);
        assert!((analytic - kappa[j]).abs() < 1e-6);
    }
    println!("# OK: Eq. 5 curvature matches the analytic plane-curve formula");
    Ok(())
}
