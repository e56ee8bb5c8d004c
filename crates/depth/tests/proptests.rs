//! Property-based tests for the depth-based scorers.

use mfod_depth::aggregate::{IntegratedDepth, ModifiedBandDepth};
use mfod_depth::projection::{
    projection_outlyingness, projection_outlyingness_against, projection_outlyingness_against_on,
    projection_outlyingness_on, univariate_outlyingness, ProjectionConfig, ProjectionOutcome,
};
use mfod_depth::{DepthError, DirOut, FunctionalOutlierScorer, Funta, GriddedDataSet};
use mfod_linalg::{par, vector, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// Projection outlyingness as the per-direction selection loop computed
/// it: directions in draw order, the median by `median_in_place`, then the
/// MAD by `median_in_place` over the absolute deviations.
fn selection_loop(
    reference: &Matrix,
    queries: Option<&Matrix>,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome, DepthError> {
    let (n_ref, p) = (reference.nrows(), reference.ncols());
    let scored = queries.unwrap_or(reference);
    if p == 1 {
        let refs = reference.col(0);
        let (med, mad) = (vector::median(&refs), vector::mad_raw(&refs));
        if mad <= 0.0 || !mad.is_finite() {
            let set = if queries.is_some() {
                "reference set"
            } else {
                "set"
            };
            return Err(DepthError::DegenerateScale {
                context: format!("MAD of the {n_ref}-point univariate {set} is zero"),
            });
        }
        return Ok(ProjectionOutcome {
            scores: scored
                .col(0)
                .iter()
                .map(|&x| (x - med).abs() / mad)
                .collect(),
            used_directions: 1,
            degenerate_directions: 0,
        });
    }
    let normal = |rng: &mut StdRng| {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    let total = config.n_directions + p;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = vec![0.0; scored.nrows()];
    let (mut used, mut degenerate) = (0usize, 0usize);
    let mut dir = vec![0.0; p];
    for d in 0..total {
        if d < p {
            dir.fill(0.0);
            dir[d] = 1.0;
        } else {
            for v in dir.iter_mut() {
                *v = normal(&mut rng);
            }
            if vector::normalize(&mut dir, 1e-12) <= 1e-12 {
                degenerate += 1;
                continue;
            }
        }
        let proj: Vec<f64> = (0..n_ref)
            .map(|i| vector::dot(reference.row(i), &dir))
            .collect();
        let mut scratch = proj.clone();
        let med = vector::median_in_place(&mut scratch);
        for (s, &x) in scratch.iter_mut().zip(&proj) {
            *s = (x - med).abs();
        }
        let mad = vector::median_in_place(&mut scratch);
        if mad <= 1e-300 || !mad.is_finite() {
            degenerate += 1;
            continue;
        }
        used += 1;
        for (i, o) in out.iter_mut().enumerate() {
            let v = (vector::dot(scored.row(i), &dir) - med).abs() / mad;
            if v > *o {
                *o = v;
            }
        }
    }
    if used == 0 {
        return Err(DepthError::DegenerateDirections { attempted: total });
    }
    Ok(ProjectionOutcome {
        scores: out,
        used_directions: used,
        degenerate_directions: degenerate,
    })
}

/// An outcome with its scores as bit patterns, so `-0.0` and `0.0` differ.
fn bits(
    outcome: Result<ProjectionOutcome, DepthError>,
) -> Result<(Vec<u64>, usize, usize), DepthError> {
    outcome.map(|o| {
        let scores = o.scores.iter().map(|v| v.to_bits()).collect();
        (scores, o.used_directions, o.degenerate_directions)
    })
}

/// A cloud of `rows` points in `R^p` whose coordinates are often tied:
/// half of them sit on a coarse lattice that includes `±0.0`, so some
/// directions degenerate and many projections repeat.
fn tied_cloud(rows: std::ops::RangeInclusive<usize>, p: usize) -> impl Strategy<Value = Matrix> {
    let coordinate = (0usize..6, -3.0..3.0f64).prop_map(|(kind, x)| match kind {
        0 => -0.0,
        1 => 0.0,
        2 | 3 => x.round(),
        _ => x,
    });
    prop::collection::vec(prop::collection::vec(coordinate, p), rows).prop_map(|rows| {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    })
}

/// A reference cloud, a query cloud of the same dimension and a direction
/// budget, for `p` in 1..=3.
fn clouds() -> impl Strategy<Value = (Matrix, Matrix, ProjectionConfig)> {
    (1usize..=3, 8usize..=40, 0u64..1000).prop_flat_map(|(p, n_directions, seed)| {
        (
            tied_cloud(1..=60, p),
            tied_cloud(1..=12, p),
            Just(ProjectionConfig { n_directions, seed }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn projection_outlyingness_matches_the_selection_loop_bit_for_bit(
        (reference, queries, config) in clouds()
    ) {
        let joint = bits(selection_loop(&reference, None, &config));
        let against = bits(selection_loop(&reference, Some(&queries), &config));
        for threads in [1usize, 8] {
            let pool = par::Pool::with_threads(threads);
            prop_assert_eq!(
                bits(projection_outlyingness_on(&pool, &reference, &config)),
                joint.clone(),
                "joint, p = {}, {} threads", reference.ncols(), threads
            );
            prop_assert_eq!(
                bits(projection_outlyingness_against_on(&pool, &reference, &queries, &config)),
                against.clone(),
                "against, p = {}, {} threads", reference.ncols(), threads
            );
        }
    }
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
    fn univariate_projection_outlyingness_scale_invariant(
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
    fn projection_against_self_matches_joint(rows in prop::collection::vec(
        prop::collection::vec(-5.0..5.0f64, 2), 9)) {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let cfg = ProjectionConfig::default();
        if let Ok(joint) = projection_outlyingness(&cloud, &cfg) {
            let against = projection_outlyingness_against(&cloud, &cloud, &cfg).unwrap();
            for (a, b) in joint.iter().zip(&against) {
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
