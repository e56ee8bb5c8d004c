//! Property-based tests for the functional-data layer.

use mfod_fda::prelude::*;
use proptest::prelude::*;

fn bspline_params() -> impl Strategy<Value = (usize, usize)> {
    // (order, len) with len >= order
    (1usize..=5).prop_flat_map(|order| (Just(order), order..=(order + 12)))
}

proptest! {
    #[test]
    fn bspline_partition_of_unity((order, len) in bspline_params(), t in 0.0..=1.0f64) {
        let b = BSplineBasis::uniform(0.0, 1.0, len, order).unwrap();
        let vals = b.eval(t, 0);
        let s: f64 = vals.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-10, "sum {s}");
        prop_assert!(vals.iter().all(|&v| v >= -1e-12), "negative value");
    }

    #[test]
    fn bspline_local_support((order, len) in bspline_params(), t in 0.0..=1.0f64) {
        let b = BSplineBasis::uniform(0.0, 1.0, len, order).unwrap();
        let nz = b.eval(t, 0).iter().filter(|&&v| v.abs() > 1e-12).count();
        prop_assert!(nz <= order, "{nz} non-zero values for order {order}");
    }

    #[test]
    fn bspline_first_derivative_sums_to_zero(
        (order, len) in bspline_params(),
        t in 0.01..=0.99f64,
    ) {
        prop_assume!(order >= 2);
        let b = BSplineBasis::uniform(0.0, 1.0, len, order).unwrap();
        let s: f64 = b.eval(t, 1).iter().sum();
        prop_assert!(s.abs() < 1e-8, "derivative sum {s}");
    }

    #[test]
    fn bspline_derivative_matches_finite_difference(
        len in 4usize..=12,
        t in 0.05..=0.95f64,
    ) {
        let b = BSplineBasis::uniform(0.0, 1.0, len, 4).unwrap();
        let h = 1e-6;
        let vp = b.eval(t + h, 0);
        let vm = b.eval(t - h, 0);
        let d = b.eval(t, 1);
        for l in 0..len {
            let fd = (vp[l] - vm[l]) / (2.0 * h);
            prop_assert!((d[l] - fd).abs() < 1e-4 * (1.0 + d[l].abs()), "l={l}");
        }
    }

    #[test]
    fn penalty_quadratic_form_nonnegative(
        len in 4usize..=10,
        q in 0usize..=2,
        coefs in prop::collection::vec(-10.0..10.0f64, 10),
    ) {
        let b = BSplineBasis::uniform(0.0, 1.0, len, 4).unwrap();
        let r = b.penalty(q);
        let c = &coefs[..len];
        // cᵀ R c = ∫ (D^q Σ c φ)² >= 0
        let rc = r.matvec(c);
        let v = mfod_linalg::vector::dot(c, &rc);
        prop_assert!(v >= -1e-9, "quadratic form {v}");
    }

    #[test]
    fn smoother_reproduces_spline_space_elements(
        len in 5usize..=9,
        coefs in prop::collection::vec(-3.0..3.0f64, 9),
    ) {
        // Data generated exactly from the spline space are fit exactly
        // (λ = 0, enough observation points).
        let b = BSplineBasis::uniform(0.0, 1.0, len, 4).unwrap();
        let c = &coefs[..len];
        let m = 40;
        let ts: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let ys: Vec<f64> = ts
            .iter()
            .map(|&t| {
                let vals = b.eval(t, 0);
                mfod_linalg::vector::dot(c, &vals)
            })
            .collect();
        let fit = PenalizedLeastSquares::new(b, 0.0, 2).unwrap().fit(&ts, &ys).unwrap();
        for &t in &[0.1, 0.45, 0.9] {
            let b2 = BSplineBasis::uniform(0.0, 1.0, len, 4).unwrap();
            let expect = mfod_linalg::vector::dot(c, &b2.eval(t, 0));
            prop_assert!((fit.eval(t) - expect).abs() < 1e-7);
        }
    }

    #[test]
    fn loocv_nonnegative_and_scales(
        lambda in 1e-8..1e2f64,
        len in 5usize..=10,
    ) {
        let m = 30;
        let ts: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| (6.0 * t).sin() + 0.1 * (40.0 * t).cos()).collect();
        let b = BSplineBasis::uniform(0.0, 1.0, len, 4).unwrap();
        let s = PenalizedLeastSquares::new(b, lambda, 2).unwrap();
        let (_, d) = s.fit_with_diagnostics(&ts, &ys).unwrap();
        prop_assert!(d.loocv >= 0.0);
        prop_assert!(d.gcv >= 0.0);
        prop_assert!(d.rss >= 0.0);
        prop_assert!(d.df >= -1e-9 && d.df <= len as f64 + 1e-9);
    }

    #[test]
    fn grid_uniform_is_sorted_and_bounded(
        a in -100.0..100.0f64,
        width in 0.1..50.0f64,
        m in 2usize..200,
    ) {
        let g = Grid::uniform(a, a + width, m).unwrap();
        prop_assert_eq!(g.len(), m);
        prop_assert_eq!(g.start(), a);
        prop_assert_eq!(g.end(), a + width);
        for w in g.points().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn planned_selection_bit_matches_unplanned_on_shared_grids(
        m in 20usize..=60,
        jitter in 0.0..0.4f64,
        freq in 0.5..3.0f64,
        curves in prop::collection::vec(prop::collection::vec(-0.5..0.5f64, 60), 3),
    ) {
        // A shared (possibly non-uniform) grid, three curves through one
        // plan: winner, score and coefficients must be bit-identical to
        // the uncached per-curve ladder.
        let ts: Vec<f64> = (0..m)
            .map(|j| {
                let u = j as f64 / (m - 1) as f64;
                u + jitter * 0.4 * (u * (1.0 - u)) * (j as f64 * 2.3).sin()
            })
            .collect();
        let sel = BasisSelector {
            sizes: vec![5, 7, 9],
            lambdas: vec![1e-8, 1e-3],
            ..BasisSelector::default()
        };
        let plan = sel.plan(&ts).unwrap();
        for noise in &curves {
            let ys: Vec<f64> = ts
                .iter()
                .zip(noise)
                .map(|(&t, &n)| (std::f64::consts::TAU * freq * t).sin() + n)
                .collect();
            let unplanned = sel.select(&ts, &ys).unwrap();
            let planned = plan.select(&ys).unwrap();
            prop_assert_eq!(unplanned.size, planned.size);
            prop_assert_eq!(unplanned.lambda.to_bits(), planned.lambda.to_bits());
            prop_assert_eq!(unplanned.score.to_bits(), planned.score.to_bits());
            prop_assert_eq!(unplanned.datum.coefs().len(), planned.datum.coefs().len());
            for (a, b) in unplanned.datum.coefs().iter().zip(planned.datum.coefs()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(
                unplanned.diagnostics.loocv.to_bits(),
                planned.diagnostics.loocv.to_bits()
            );
            prop_assert_eq!(
                unplanned.diagnostics.gcv.to_bits(),
                planned.diagnostics.gcv.to_bits()
            );
        }
    }

    #[test]
    fn mixed_grid_batches_fall_back_per_sample(
        m_plan in 20usize..=40,
        m_other in 20usize..=40,
        warp in 0.05..0.5f64,
    ) {
        // A plan built on one grid must route curves from any other grid
        // through the uncached fallback with identical results — the
        // batch-with-heterogeneous-grids scenario of the pipeline fit.
        let grid_a: Vec<f64> = (0..m_plan).map(|j| j as f64 / (m_plan - 1) as f64).collect();
        let grid_b: Vec<f64> = (0..m_other)
            .map(|j| (j as f64 / (m_other - 1) as f64).powf(1.0 + warp))
            .collect();
        let sel = BasisSelector::default();
        let plan = sel.plan(&grid_a).unwrap();
        let same_len_and_bits = grid_a.len() == grid_b.len()
            && grid_a.iter().zip(&grid_b).all(|(a, b)| a.to_bits() == b.to_bits());
        prop_assert_eq!(plan.same_grid(&grid_b), same_len_and_bits);
        let ys: Vec<f64> = grid_b
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).cos() + 0.1 * (9.0 * t).sin())
            .collect();
        let direct = sel.select(&grid_b, &ys).unwrap();
        let via_plan = sel.select_with_plan(&plan, &grid_b, &ys).unwrap();
        prop_assert_eq!(direct.size, via_plan.size);
        prop_assert_eq!(direct.score.to_bits(), via_plan.score.to_bits());
        for (a, b) in direct.datum.coefs().iter().zip(via_plan.datum.coefs()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn multivariate_grid_eval_matches_pointwise(
        slope1 in -5.0..5.0f64,
        slope2 in -5.0..5.0f64,
    ) {
        use std::sync::Arc;
        // order 2, two functions: the lines through (0, c₀) and (1, c₁)
        let basis = Arc::new(BSplineBasis::uniform(0.0, 1.0, 2, 2).unwrap());
        let c1 = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, slope1]).unwrap();
        let c2 = FunctionalDatum::new(basis, vec![1.0, 1.0 + slope2]).unwrap();
        let mfd = MultiFunctionalDatum::new(vec![c1, c2]).unwrap();
        let g = Grid::uniform(0.0, 1.0, 7).unwrap();
        let m = mfd.eval_grid(&g);
        for (j, t) in g.iter().enumerate() {
            for (k, c) in mfd.channels().iter().enumerate() {
                prop_assert_eq!(m[(j, k)].to_bits(), c.eval(t).to_bits());
            }
            prop_assert!((m[(j, 0)] - slope1 * t).abs() < 1e-12);
            prop_assert!((m[(j, 1)] - (1.0 + slope2 * t)).abs() < 1e-12);
        }
    }
}
