//! Property-based tests for the depth-based scorers.

use mfod_depth::aggregate::{IntegratedDepth, ModifiedBandDepth};
use mfod_depth::projection::univariate_outlyingness;
use mfod_depth::{DirOut, FunctionalOutlierScorer, Funta, GriddedDataSet};
use mfod_linalg::Matrix;
use proptest::prelude::*;

/// A univariate dataset of n smooth-ish curves on m grid points.
fn curves(n: usize, m: usize) -> impl Strategy<Value = GriddedDataSet> {
    prop::collection::vec((0.2..2.0f64, -1.0..1.0f64, -0.5..0.5f64), n).prop_map(move |params| {
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let values: Vec<Vec<f64>> = params
            .iter()
            .map(|&(a, b, c)| {
                grid.iter()
                    .map(|&t| a * (std::f64::consts::TAU * t).sin() + b * t + c)
                    .collect()
            })
            .collect();
        GriddedDataSet::from_univariate(grid, values).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn funta_scores_bounded(data in curves(8, 20)) {
        let s = Funta::new().score(&data).unwrap();
        prop_assert_eq!(s.len(), 8);
        prop_assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn funta_translation_of_all_curves_is_invariant(data in curves(6, 15), shift in -5.0..5.0f64) {
        // translating EVERY curve by the same constant changes no crossing
        let s1 = Funta::new().score(&data).unwrap();
        let shifted: Vec<Matrix> = data
            .samples()
            .iter()
            .map(|s| {
                let mut m = s.clone();
                for v in m.as_mut_slice() {
                    *v += shift;
                }
                m
            })
            .collect();
        let data2 = GriddedDataSet::new(data.grid().to_vec(), shifted).unwrap();
        let s2 = Funta::new().score(&data2).unwrap();
        for (a, b) in s1.iter().zip(&s2) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dirout_scores_nonnegative_finite(data in curves(8, 20)) {
        if let Ok(scores) = DirOut::new().decompose(&data) {
            prop_assert!(scores.fo.iter().all(|&v| v >= 0.0 && v.is_finite()));
            prop_assert!(scores.vo.iter().all(|&v| v >= -1e-12 && v.is_finite()));
            // FO = ‖MO‖² + VO componentwise
            for i in 0..8 {
                let mo_sq: f64 = scores.mo[i].iter().map(|v| v * v).sum();
                prop_assert!((scores.fo[i] - (mo_sq + scores.vo[i])).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reference_scoring_consistent_with_self(data in curves(10, 15)) {
        // scoring the reference against itself equals joint self-scoring
        if let (Ok(joint), Ok(against)) = (
            DirOut::new().score(&data),
            DirOut::new().score_against(&data, &data),
        ) {
            for (a, b) in joint.iter().zip(&against) {
                prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn univariate_outlyingness_is_scale_invariant(
        pts in prop::collection::vec(-10.0..10.0f64, 7),
        scale in 0.1..10.0f64,
    ) {
        if let Ok(o1) = univariate_outlyingness(&pts) {
            let scaled: Vec<f64> = pts.iter().map(|x| x * scale).collect();
            let o2 = univariate_outlyingness(&scaled).unwrap();
            for (a, b) in o1.iter().zip(&o2) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mbd_outlyingness_in_unit_interval(data in curves(9, 12)) {
        let s = ModifiedBandDepth.score(&data).unwrap();
        prop_assert!(s.iter().all(|&v| (-1e-12..=1.0).contains(&v)));
    }

    #[test]
    fn integrated_depth_orderings(data in curves(8, 15)) {
        // infimum depth <= integral depth pointwise implies
        // infimum outlyingness >= integral outlyingness
        if let (Ok(int), Ok(inf)) = (
            IntegratedDepth::integral().score(&data),
            IntegratedDepth::infimum().score(&data),
        ) {
            for (a, b) in int.iter().zip(&inf) {
                prop_assert!(b + 1e-9 >= *a, "infimum {b} < integral {a}");
            }
        }
    }
}
