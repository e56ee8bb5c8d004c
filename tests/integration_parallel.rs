//! The parallel runtime must be a pure wall-clock optimization: fitted
//! models and pipeline scores have to be **bit-for-bit identical** no
//! matter how many pool threads fit or score them, and a panicking job
//! must neither poison the global pool nor lose its payload.

use mfod::depth::projection::ProjectionConfig;
use mfod::depth::GriddedDataSet;
use mfod::detect::prelude::*;
use mfod::linalg::par::{self, Pool};
use mfod::linalg::Matrix;
use mfod::prelude::{Curvature, DirOut, GeomOutlierPipeline, PipelineConfig};
use mfod_fixtures::{ecg_fitted, ecg_split};
use std::sync::Arc;

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} row {i}: {x} != {y}");
    }
}

#[test]
fn fitted_pipeline_scores_are_identical_across_pool_sizes() {
    let (train, test) = ecg_split();
    // The pipeline's detector (isolation forest) is fitted on the global
    // pool; two fits of the same config must agree with each other all
    // the way through scoring.
    let a = ecg_fitted(&train);
    let b = ecg_fitted(&train);
    let scores_a = a.score(test.samples()).unwrap();
    let scores_b = b.score(test.samples()).unwrap();
    assert_bits_eq(&scores_a, &scores_b, "refit through global pool");
    // Parallel scoring reproduces sequential scoring on the same artifact.
    let par_scores = a.par_score(test.samples()).unwrap();
    assert_bits_eq(&scores_a, &par_scores, "par_score vs score");
}

#[test]
fn pipeline_fit_is_identical_across_pool_sizes() {
    // The grid-cached selection engine fans per-(sample × channel) basis
    // selection out over the pool; fitted artifacts and scores must be
    // bit-for-bit identical at pool sizes 1 / 2 / 8 and on the global
    // pool.
    let (train, test) = ecg_split();
    let pipeline = GeomOutlierPipeline::new(
        PipelineConfig::fast(),
        Arc::new(Curvature),
        Arc::new(IsolationForest {
            n_trees: 60,
            ..Default::default()
        }),
    );
    let fitted: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&k| {
            pipeline
                .fit_on(&Pool::with_threads(k), train.samples())
                .unwrap()
        })
        .collect();
    let global = pipeline.fit(train.samples()).unwrap();
    let reference = fitted[0].score(test.samples()).unwrap();
    for (what, f) in [("2 threads", &fitted[1]), ("8 threads", &fitted[2])] {
        assert_eq!(f.selected_bases(), fitted[0].selected_bases(), "{what}");
        assert_bits_eq(&f.score(test.samples()).unwrap(), &reference, what);
    }
    assert_eq!(global.selected_bases(), fitted[0].selected_bases());
    assert_bits_eq(&global.score(test.samples()).unwrap(), &reference, "global");
    // feature extraction too, through the explicit-pool entry point
    let f_seq = pipeline
        .features_on(&Pool::with_threads(1), train.samples())
        .unwrap();
    let f_wide = pipeline
        .features_on(&Pool::with_threads(8), train.samples())
        .unwrap();
    assert_bits_eq(f_seq.as_slice(), f_wide.as_slice(), "features 1 vs 8");
}

#[test]
fn dirout_grid_fanout_is_identical_across_pool_sizes() {
    let (train, _) = ecg_split();
    let gridded = mfod::DepthBaseline::gridded(&train).unwrap();
    let scorer = DirOut::new();
    let seq = scorer
        .decompose_on(&Pool::with_threads(1), &gridded)
        .unwrap();
    let wide = scorer
        .decompose_on(&Pool::with_threads(8), &gridded)
        .unwrap();
    assert_bits_eq(&seq.fo, &wide.fo, "dirout FO 1 vs 8 threads");
    assert_bits_eq(&seq.vo, &wide.vo, "dirout VO 1 vs 8 threads");
    assert_eq!(seq.degenerate_directions, wide.degenerate_directions);
}

#[test]
fn iforest_fit_on_explicit_pools_matches_global_fit() {
    let x = Matrix::from_fn(120, 5, |i, j| {
        ((i * 13 + j * 5) as f64 * 0.41).sin() + if i % 19 == 0 { 6.0 } else { 0.0 }
    });
    let forest = IsolationForest {
        n_trees: 50,
        subsample: 64,
        seed: 3,
    };
    let seq = forest.fit_on(&Pool::with_threads(1), &x).unwrap();
    let wide = forest.fit_on(&Pool::with_threads(8), &x).unwrap();
    let global = forest.fit(&x).unwrap();
    let s_seq = seq.score_batch(&x).unwrap();
    assert_bits_eq(&s_seq, &wide.score_batch(&x).unwrap(), "1 vs 8 threads");
    assert_bits_eq(&s_seq, &global.score_batch(&x).unwrap(), "1 vs global");
}

#[test]
fn projection_fit_is_identical_across_pool_sizes() {
    // Four channels take the projection layer's two-selection path; the
    // ECG test above reaches only the sorted planar one.
    let curves = |n: usize, salt: usize| {
        let grid: Vec<f64> = (0..12).map(|j| j as f64 / 11.0).collect();
        let samples = (0..n)
            .map(|i| {
                Matrix::from_fn(12, 4, |j, k| {
                    (((i + salt) * 7 + j * 3 + k) as f64 * 0.23).cos() * (k + 1) as f64
                })
            })
            .collect();
        GriddedDataSet::new(grid, samples).unwrap()
    };
    let (reference, queries) = (curves(64, 0), curves(9, 101));
    let scorer = DirOut {
        projection: ProjectionConfig {
            n_directions: 64,
            seed: 21,
        },
    };
    let seq = scorer
        .decompose_against_on(&Pool::with_threads(1), &reference, &queries)
        .unwrap();
    let wide = scorer
        .decompose_against_on(&Pool::with_threads(8), &reference, &queries)
        .unwrap();
    let global = scorer.decompose_against(&reference, &queries).unwrap();
    for other in [&wide, &global] {
        assert_bits_eq(&seq.fo, &other.fo, "dirout FO across pools");
        assert_bits_eq(&seq.vo, &other.vo, "dirout VO across pools");
        for (a, b) in seq.mo.iter().zip(&other.mo) {
            assert_bits_eq(a, b, "dirout MO across pools");
        }
        assert_eq!(seq.degenerate_directions, other.degenerate_directions);
        assert_eq!(seq.attempted_directions, other.attempted_directions);
    }
}

#[test]
fn panicking_job_propagates_its_payload_and_spares_the_pool() {
    let caught = std::panic::catch_unwind(|| {
        par::par_map(32, |i| {
            if i == 17 {
                std::panic::panic_any("original payload");
            }
            i
        })
    })
    .expect_err("panic must reach the caller");
    assert_eq!(
        *caught.downcast::<&str>().expect("payload preserved"),
        "original payload"
    );
    // The global pool survives: real work still runs after the panic.
    let out = par::par_map(64, |i| i * 2);
    assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
}
