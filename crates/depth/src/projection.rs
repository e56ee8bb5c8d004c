//! Projection-depth primitives: Stahel–Donoho outlyingness in 1-D (exact)
//! and in `R^p` via random directions, as used by the directional
//! outlyingness baseline (Zuo 2003; Dai & Genton 2019).
//!
//! The random-direction approximation is the hot path of the Dir.out
//! baseline (one call per grid point). Per direction it projects the
//! cloud, takes the median, then the MAD on a reused scratch buffer, and
//! folds the normalized residuals into the running maximum. The
//! RNG-drawn direction stream depends only on `p` and the configuration,
//! so it is drawn **sequentially, once** per call; Dir.out draws it once
//! for all of its grid points. The public `*_on` functions fan contiguous
//! direction blocks out across the worker pool of [`mfod_linalg::par`];
//! Dir.out, whose grid-point fan-out already feeds every thread, runs the
//! same loop inline as one block. Either way the per-direction maxima are
//! folded **in direction order**, so the scores are bit-for-bit identical
//! to the plain sequential loop at any thread count.

use crate::error::DepthError;
use crate::Result;
use mfod_linalg::{par, vector, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Exact univariate Stahel–Donoho outlyingness `|x − med| / MAD` of each
/// entry of `points` w.r.t. the whole set.
///
/// Errors with [`DepthError::DegenerateScale`] when the MAD is zero.
pub fn univariate_outlyingness(points: &[f64]) -> Result<Vec<f64>> {
    if points.is_empty() {
        return Err(DepthError::TooFewSamples { got: 0, need: 1 });
    }
    let med = vector::median(points);
    let mad = vector::mad_raw(points);
    if mad <= 0.0 || !mad.is_finite() {
        return Err(DepthError::DegenerateScale {
            context: format!("MAD of the {}-point univariate set is zero", points.len()),
        });
    }
    Ok(points.iter().map(|&x| (x - med).abs() / mad).collect())
}

/// Configuration for random-direction projection outlyingness in `R^p`.
#[derive(Debug, Clone)]
pub struct ProjectionConfig {
    /// Number of random unit directions (coordinate axes are always
    /// included in addition).
    pub n_directions: usize,
    /// RNG seed for reproducible directions.
    pub seed: u64,
}

impl Default for ProjectionConfig {
    fn default() -> Self {
        ProjectionConfig {
            n_directions: 128,
            seed: 0x5EED_D1CE,
        }
    }
}

/// Projection-outlyingness scores together with the direction budget that
/// produced them.
///
/// Degenerate directions (zero MAD of the projected reference cloud, or a
/// random draw too short to normalize) are skipped silently by the score
/// computation; this bookkeeping lets callers observe when the *effective*
/// direction budget collapses well below [`ProjectionConfig::n_directions`]
/// — the approximation quality degrades long before every direction dies
/// and the computation turns into a hard error.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionOutcome {
    /// Outlyingness per scored point; **higher = more outlying**.
    pub scores: Vec<f64>,
    /// Directions that contributed to the supremum (positive finite MAD).
    pub used_directions: usize,
    /// Directions skipped because they degenerated.
    pub degenerate_directions: usize,
}

/// Approximates the projection outlyingness
/// `O(x) = sup_u |uᵀx − med(uᵀZ)| / MAD(uᵀZ)` of every row of `cloud`
/// (an `n x p` matrix) by maximizing over random unit directions plus the
/// `p` coordinate axes.
///
/// For `p = 1` the exact univariate computation is used. Degenerate
/// directions (zero MAD) are skipped; if *every* direction degenerates the
/// cloud is concentrated and [`DepthError::DegenerateDirections`] is
/// returned. Runs on the global worker pool; see
/// [`projection_outlyingness_full`] for the direction diagnostics and
/// [`projection_outlyingness_on`] for an explicit pool.
pub fn projection_outlyingness(cloud: &Matrix, config: &ProjectionConfig) -> Result<Vec<f64>> {
    projection_outlyingness_full(cloud, config).map(|outcome| outcome.scores)
}

/// [`projection_outlyingness`] with the degenerate-direction diagnostics.
pub fn projection_outlyingness_full(
    cloud: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    projection_outlyingness_on(par::global(), cloud, config)
}

/// [`projection_outlyingness_full`] on an explicit worker pool. The output
/// is bit-for-bit identical for every pool size ([`par::Pool::with_threads`]
/// with 1 thread reproduces the sequential loop exactly).
pub fn projection_outlyingness_on(
    pool: &par::Pool,
    cloud: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    let directions = Directions::draw(cloud.ncols(), config);
    outlyingness_along(Some(pool), &directions, cloud, None)
}

/// Approximates the projection outlyingness of each row of `queries`
/// **with respect to the `reference` cloud**: the median and MAD of every
/// direction's projections are estimated from `reference` only, so query
/// points do not influence the location/scale estimates (the train/test
/// protocol). Runs on the global worker pool.
pub fn projection_outlyingness_against(
    reference: &Matrix,
    queries: &Matrix,
    config: &ProjectionConfig,
) -> Result<Vec<f64>> {
    projection_outlyingness_against_full(reference, queries, config).map(|outcome| outcome.scores)
}

/// [`projection_outlyingness_against`] with the degenerate-direction
/// diagnostics.
pub fn projection_outlyingness_against_full(
    reference: &Matrix,
    queries: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    projection_outlyingness_against_on(par::global(), reference, queries, config)
}

/// [`projection_outlyingness_against_full`] on an explicit worker pool.
pub fn projection_outlyingness_against_on(
    pool: &par::Pool,
    reference: &Matrix,
    queries: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    let directions = Directions::draw(reference.ncols(), config);
    outlyingness_along(Some(pool), &directions, reference, Some(queries))
}

/// The direction stream of a [`ProjectionConfig`] in `R^p`: the `p`
/// coordinate axes, then every random draw that normalizes. It depends
/// only on `p` and the configuration, never on the cloud, so one stream
/// serves every cloud of that dimension. For `p = 1` it is empty: the
/// exact univariate path needs no directions.
pub(crate) struct Directions {
    p: usize,
    /// Unit directions, one after another (`count × p` values).
    units: Vec<f64>,
    count: usize,
    /// Random draws too short to normalize, counted as degenerate.
    short_draws: usize,
    /// Directions attempted: `n_directions + p`.
    attempted: usize,
}

impl Directions {
    /// Draws the stream: axes first, then random unit vectors. A draw
    /// that fails to normalize is counted and skipped, but it still
    /// consumes its RNG values, so the draws after it do not shift.
    pub(crate) fn draw(p: usize, config: &ProjectionConfig) -> Directions {
        let attempted = config.n_directions + p;
        let mut directions = Directions {
            p,
            units: Vec::new(),
            count: 0,
            short_draws: 0,
            attempted,
        };
        if p == 1 {
            return directions;
        }
        directions.units.reserve(attempted * p);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dir = vec![0.0; p];
        for d in 0..attempted {
            if d < p {
                // coordinate axes first: cheap and often informative
                dir.fill(0.0);
                dir[d] = 1.0;
            } else {
                // isotropic Gaussian direction, normalized
                for v in dir.iter_mut() {
                    *v = standard_normal(&mut rng);
                }
                if vector::normalize(&mut dir, 1e-12) <= 1e-12 {
                    directions.short_draws += 1;
                    continue;
                }
            }
            directions.units.extend_from_slice(&dir);
            directions.count += 1;
        }
        directions
    }

    /// Folds directions `range` into a partial supremum over the scored
    /// points, returning it with the block's used and degenerate counts.
    /// The projections keep row order; one scratch buffer takes the
    /// median select and then the MAD select, both in place.
    fn fold_block(
        &self,
        range: std::ops::Range<usize>,
        reference: &Matrix,
        queries: Option<&Matrix>,
    ) -> (Vec<f64>, usize, usize) {
        let n_ref = reference.nrows();
        let mut partial = vec![0.0; queries.map_or(n_ref, Matrix::nrows)];
        let mut used = 0usize;
        let mut degenerate = 0usize;
        let mut proj = vec![0.0; n_ref];
        let mut scratch = vec![0.0; n_ref];
        for d in range {
            let u = &self.units[d * self.p..(d + 1) * self.p];
            for (i, pr) in proj.iter_mut().enumerate() {
                *pr = vector::dot(reference.row(i), u);
            }
            scratch.copy_from_slice(&proj);
            let med = vector::median_in_place(&mut scratch);
            for (s, &pr) in scratch.iter_mut().zip(&proj) {
                *s = (pr - med).abs();
            }
            let mad = vector::median_in_place(&mut scratch);
            if mad <= 1e-300 || !mad.is_finite() {
                degenerate += 1;
                continue;
            }
            used += 1;
            match queries {
                None => {
                    for (o, &pr) in partial.iter_mut().zip(proj.iter()) {
                        let v = (pr - med).abs() / mad;
                        if v > *o {
                            *o = v;
                        }
                    }
                }
                Some(q) => {
                    for (i, o) in partial.iter_mut().enumerate() {
                        let v = (vector::dot(q.row(i), u) - med).abs() / mad;
                        if v > *o {
                            *o = v;
                        }
                    }
                }
            }
        }
        (partial, used, degenerate)
    }
}

/// Shared body of the joint and against variants: location and scale
/// come from `reference`; scores are computed for `queries` when given,
/// else for `reference` itself. `directions` must be drawn for the
/// cloud's dimension.
///
/// With `fan_out`, contiguous blocks of directions spread over that pool;
/// without it, the loop runs inline on the calling thread as one block.
/// The block partials fold in block (= direction) order, so both give
/// the same bits.
pub(crate) fn outlyingness_along(
    fan_out: Option<&par::Pool>,
    directions: &Directions,
    reference: &Matrix,
    queries: Option<&Matrix>,
) -> Result<ProjectionOutcome> {
    let n_ref = reference.nrows();
    let p = reference.ncols();
    if n_ref == 0 || queries.is_some_and(|q| q.nrows() == 0) {
        return Err(DepthError::TooFewSamples { got: 0, need: 1 });
    }
    if let Some(q) = queries.filter(|q| q.ncols() != p) {
        return Err(DepthError::ShapeMismatch(format!(
            "query dimension {} != reference dimension {p}",
            q.ncols()
        )));
    }
    if p == 1 {
        let scores = match queries {
            None => univariate_outlyingness(&reference.col(0))?,
            Some(q) => {
                let refs = reference.col(0);
                let med = vector::median(&refs);
                let mad = vector::mad_raw(&refs);
                if mad <= 0.0 || !mad.is_finite() {
                    return Err(DepthError::DegenerateScale {
                        context: format!(
                            "MAD of the {n_ref}-point univariate reference set is zero"
                        ),
                    });
                }
                q.col(0).iter().map(|&x| (x - med).abs() / mad).collect()
            }
        };
        return Ok(ProjectionOutcome {
            scores,
            used_directions: 1,
            degenerate_directions: 0,
        });
    }
    assert_eq!(directions.p, p, "directions drawn for another dimension");

    // Each block folds its residuals into a partial supremum as it goes,
    // so the transient memory is O(blocks × n) rather than
    // O(directions × n). The block count follows the pool's stealing
    // granularity (`task_chunks`, i.e. split-factor × threads) instead of
    // the thread count, so a block whose directions all degenerate early
    // cannot leave its thread idle while another grinds through
    // expensive ones — idle threads steal the remaining blocks.
    let n_dirs = directions.count;
    let blocks = match fan_out {
        None => vec![directions.fold_block(0..n_dirs, reference, queries)],
        Some(pool) => {
            let n_blocks = pool.task_chunks(n_dirs).max(1);
            let (base, extra) = (n_dirs / n_blocks, n_dirs % n_blocks);
            let mut bounds = Vec::with_capacity(n_blocks + 1);
            let mut start = 0usize;
            bounds.push(0);
            for b in 0..n_blocks {
                start += base + usize::from(b < extra);
                bounds.push(start);
            }
            pool.map(n_blocks, |b| {
                directions.fold_block(bounds[b]..bounds[b + 1], reference, queries)
            })
        }
    };

    // Merge the block partials in block (= direction) order. The
    // strictly-greater max update over the nonnegative finite residuals
    // is associative, so the blocked fold is bit-for-bit identical to the
    // one-direction-at-a-time sequential loop.
    let mut out = vec![0.0; queries.map_or(n_ref, Matrix::nrows)];
    let mut used = 0usize;
    let mut degenerate = directions.short_draws;
    for (partial, block_used, block_degenerate) in blocks {
        used += block_used;
        degenerate += block_degenerate;
        for (o, &v) in out.iter_mut().zip(partial.iter()) {
            if v > *o {
                *o = v;
            }
        }
    }
    if used == 0 {
        return Err(DepthError::DegenerateDirections {
            attempted: directions.attempted,
        });
    }
    Ok(ProjectionOutcome {
        scores: out,
        used_directions: used,
        degenerate_directions: degenerate,
    })
}

/// Projection depth `PD(x) = 1 / (1 + O(x))` for every row of `cloud`.
pub fn projection_depth(cloud: &Matrix, config: &ProjectionConfig) -> Result<Vec<f64>> {
    Ok(projection_outlyingness(cloud, config)?
        .into_iter()
        .map(|o| 1.0 / (1.0 + o))
        .collect())
}

/// Standard normal variate via Box–Muller (keeps the dependency surface to
/// `rand`'s uniform source only).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Coordinate-wise median of the rows of `cloud` — the center estimate used
/// for the direction vector of the directional outlyingness.
pub fn coordinate_median(cloud: &Matrix) -> Vec<f64> {
    (0..cloud.ncols())
        .map(|k| vector::median(&cloud.col(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn univariate_known_values() {
        // points: 0..=4, med = 2, MAD = 1
        let pts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let o = univariate_outlyingness(&pts).unwrap();
        assert_eq!(o, vec![2.0, 1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn univariate_flags_extreme_point() {
        let mut pts = vec![0.0, 0.1, -0.1, 0.05, -0.05, 0.02];
        pts.push(10.0);
        let o = univariate_outlyingness(&pts).unwrap();
        let max_idx = o
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 6);
    }

    #[test]
    fn univariate_degenerate_scale() {
        assert!(matches!(
            univariate_outlyingness(&[1.0, 1.0, 1.0, 5.0]),
            Err(DepthError::DegenerateScale { .. })
        ));
        assert!(univariate_outlyingness(&[]).is_err());
    }

    #[test]
    fn multivariate_center_is_least_outlying() {
        // cross-shaped cloud around the origin plus one extreme point
        let rows: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
            vec![0.5, 0.5],
            vec![-0.5, 0.5],
            vec![0.5, -0.5],
            vec![-0.5, -0.5],
            vec![8.0, 8.0],
        ];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let o = projection_outlyingness(&cloud, &ProjectionConfig::default()).unwrap();
        // origin must have the smallest outlyingness, the far point the largest
        let min_idx = o
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let max_idx = o
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(min_idx, 0, "{o:?}");
        assert_eq!(max_idx, 9, "{o:?}");
    }

    #[test]
    fn depth_is_monotone_in_outlyingness() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i as f64).sin()]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let cfg = ProjectionConfig::default();
        let o = projection_outlyingness(&cloud, &cfg).unwrap();
        let d = projection_depth(&cloud, &cfg).unwrap();
        for i in 0..10 {
            assert!((d[i] - 1.0 / (1.0 + o[i])).abs() < 1e-12);
            assert!(d[i] > 0.0 && d[i] <= 1.0);
        }
    }

    #[test]
    fn reproducible_with_same_seed() {
        let rows: Vec<Vec<f64>> = (0..15)
            .map(|i| {
                vec![
                    (i as f64 * 0.7).sin(),
                    (i as f64 * 1.3).cos(),
                    i as f64 * 0.1,
                ]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let cfg = ProjectionConfig {
            n_directions: 64,
            seed: 42,
        };
        let o1 = projection_outlyingness(&cloud, &cfg).unwrap();
        let o2 = projection_outlyingness(&cloud, &cfg).unwrap();
        assert_eq!(o1, o2);
    }

    #[test]
    fn pool_sizes_agree_bit_for_bit() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                vec![
                    (i as f64 * 0.31).sin(),
                    (i as f64 * 0.77).cos(),
                    (i as f64 * 0.13).tan().atan(),
                    i as f64 * 0.05,
                ]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let queries = Matrix::from_rows(&refs[..7]);
        let cfg = ProjectionConfig {
            n_directions: 48,
            seed: 9,
        };
        let p1 = par::Pool::with_threads(1);
        let p8 = par::Pool::with_threads(8);
        let seq = projection_outlyingness_on(&p1, &cloud, &cfg).unwrap();
        let par8 = projection_outlyingness_on(&p8, &cloud, &cfg).unwrap();
        let global = projection_outlyingness_full(&cloud, &cfg).unwrap();
        assert_eq!(seq, par8);
        assert_eq!(seq, global);
        for (a, b) in seq.scores.iter().zip(&par8.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let seq_q = projection_outlyingness_against_on(&p1, &cloud, &queries, &cfg).unwrap();
        let par_q = projection_outlyingness_against_on(&p8, &cloud, &queries, &cfg).unwrap();
        assert_eq!(seq_q, par_q);
        assert_eq!(
            seq_q,
            projection_outlyingness_against_full(&cloud, &queries, &cfg).unwrap()
        );
    }

    #[test]
    fn direction_budget_is_accounted() {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, (i as f64).cos()]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let cfg = ProjectionConfig {
            n_directions: 32,
            seed: 5,
        };
        let outcome = projection_outlyingness_full(&cloud, &cfg).unwrap();
        // a generic cloud degenerates along no direction
        assert_eq!(outcome.used_directions, cfg.n_directions + 2);
        assert_eq!(outcome.degenerate_directions, 0);

        // A rank-1 cloud (all points on the line y = x) keeps only the
        // directions with a component along the line: the two axes survive,
        // but any direction orthogonal to (1, 1) degenerates. With random
        // directions almost surely none is exactly orthogonal, so this
        // cloud still uses every direction — instead, collapse one
        // coordinate to force axis-aligned degeneracy.
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 3.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let flat = Matrix::from_rows(&refs);
        let outcome = projection_outlyingness_full(&flat, &cfg).unwrap();
        // the y axis projects every point to 3.0: zero MAD, degenerate
        assert!(outcome.degenerate_directions >= 1, "{outcome:?}");
        assert_eq!(
            outcome.used_directions + outcome.degenerate_directions,
            cfg.n_directions + 2
        );
    }

    #[test]
    fn degenerate_cloud_errors() {
        let cloud = Matrix::filled(6, 2, 3.0); // all points identical
        let err = projection_outlyingness(&cloud, &ProjectionConfig::default()).unwrap_err();
        assert!(
            matches!(err, DepthError::DegenerateDirections { attempted } if attempted == 130),
            "{err:?}"
        );
    }

    #[test]
    fn coordinate_median_centers() {
        let cloud = Matrix::from_rows(&[&[0.0, 10.0], &[1.0, 20.0], &[2.0, 30.0]]);
        assert_eq!(coordinate_median(&cloud), vec![1.0, 20.0]);
    }

    #[test]
    fn affine_invariance_of_univariate() {
        // O is invariant to shift and positive scaling.
        let pts = [0.0, 1.0, 2.0, 3.0, 10.0];
        let o1 = univariate_outlyingness(&pts).unwrap();
        let scaled: Vec<f64> = pts.iter().map(|x| 5.0 * x - 7.0).collect();
        let o2 = univariate_outlyingness(&scaled).unwrap();
        for (a, b) in o1.iter().zip(&o2) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
