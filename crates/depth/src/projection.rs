//! Projection-depth primitives: Stahel–Donoho outlyingness in 1-D (exact)
//! and in `R^p` via random directions, as used by the directional
//! outlyingness baseline (Zuo 2003; Dai & Genton 2019).
//!
//! The random-direction approximation is the hot path of the Dir.out
//! baseline (one call per grid point). Per direction it projects the
//! cloud column by column, takes the median and MAD of the reference
//! projections, and folds the normalized residuals of the scored points
//! into a running maximum without branching. The RNG-drawn direction
//! stream depends only on `p` and the configuration, so it is drawn
//! **sequentially, once** per call; Dir.out and the integrated depths
//! draw it once for all of their grid points.
//!
//! How the median and MAD are found depends on the cloud. In the plane
//! the stream is visited in angle order modulo `π`, so neighbouring
//! directions sort the cloud almost alike (a direction and its opposite
//! sort it in reverse, so projections onto the lower half-plane are
//! negated): the reference rows' sorted order is carried from one
//! direction to the next and an insertion sort repairs it, the median is
//! read off the middle, and the MAD is found by a binary search over the
//! two runs of deviations that grow outward from the median. The repair
//! moves a row about `(n − 1) / (2 · directions)` places per direction,
//! so a planar cloud of more than twice as many rows as directions takes
//! two in-place selections per direction instead, and so does every
//! cloud above the plane, where no visiting order keeps the projections
//! nearly sorted. Both give the bits of [`vector::median_in_place`]
//! applied twice, and the supremum is a maximum, so the visiting order
//! cannot move a score.
//!
//! The direction loop runs inline on the calling thread: its callers,
//! Dir.out and the integrated depths, fan their grid points out over the
//! worker pool of [`mfod_linalg::par`] instead, and reassemble them in
//! grid order, so the scores are bit-for-bit identical to the plain
//! sequential loop at any thread count. NaN or infinite coordinates are
//! rejected with [`DepthError::NonFinite`].

use crate::error::DepthError;
use crate::Result;
use mfod_linalg::{vector, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Exact univariate Stahel–Donoho outlyingness `|x − med| / MAD` of each
/// entry of `points` w.r.t. the whole set.
///
/// Errors with [`DepthError::NonFinite`] when a point is NaN or infinite,
/// and with [`DepthError::DegenerateScale`] when the MAD is zero.
pub fn univariate_outlyingness(points: &[f64]) -> Result<Vec<f64>> {
    if points.is_empty() {
        return Err(DepthError::TooFewSamples { got: 0, need: 1 });
    }
    if !vector::all_finite(points) {
        return Err(DepthError::NonFinite);
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
pub(crate) struct ProjectionOutcome {
    /// Outlyingness per scored point; **higher = more outlying**.
    pub scores: Vec<f64>,
    /// Directions that contributed to the supremum (positive finite MAD).
    pub used_directions: usize,
    /// Directions skipped because they degenerated.
    pub degenerate_directions: usize,
}

/// The direction stream of a [`ProjectionConfig`] in `R^p`: the `p`
/// coordinate axes, then every random draw that normalizes. It depends
/// only on `p` and the configuration, never on the cloud, so one stream
/// serves every cloud of that dimension. For `p = 1` it is empty: the
/// exact univariate path needs no directions.
pub(crate) struct Directions {
    p: usize,
    /// Unit directions, one after another (`count × p` values): in the
    /// plane sorted by angle modulo `π`, otherwise in draw order.
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
    /// In the plane the drawn directions are then stored in angle order
    /// modulo `π` (`u` and `−u` order a cloud in reverse), the order
    /// [`Directions::fold`] visits them in.
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
        if p == 2 {
            let mut by_angle: Vec<(f64, &[f64])> = directions
                .units
                .chunks_exact(2)
                .map(|u| (u[1].atan2(u[0]).rem_euclid(std::f64::consts::PI), u))
                .collect();
            by_angle.sort_by(|a, b| a.0.total_cmp(&b.0));
            let units = by_angle
                .iter()
                .flat_map(|(_, u)| u.iter().copied())
                .collect();
            directions.units = units;
        }
        directions
    }

    /// Folds every direction into the supremum over the scored points,
    /// returning it with the used and degenerate direction counts.
    fn fold(&self, reference: &Matrix, queries: Option<&Matrix>) -> (Vec<f64>, usize, usize) {
        let n_ref = reference.nrows();
        // Column-major copies: a projection is then `p` sweeps over
        // contiguous columns, summed in `vector::dot`'s order.
        let ref_columns = reference.transpose();
        let query_columns = queries.map(Matrix::transpose);
        let mut partial = vec![0.0; queries.map_or(n_ref, Matrix::nrows)];
        let mut proj = vec![0.0; n_ref];
        let mut query_proj = vec![0.0; queries.map_or(0, Matrix::nrows)];
        let mut scale = MedianMad::new(self.p, n_ref, self.count);
        let mut used = 0usize;
        let mut degenerate = 0usize;
        for d in 0..self.count {
            let u = &self.units[d * self.p..(d + 1) * self.p];
            project(&ref_columns, u, &mut proj);
            let (med, mad) = scale.of(&proj, u);
            if mad <= 1e-300 || !mad.is_finite() {
                degenerate += 1;
                continue;
            }
            used += 1;
            let scored = match &query_columns {
                None => &proj,
                Some(columns) => {
                    project(columns, u, &mut query_proj);
                    &query_proj
                }
            };
            for (o, &x) in partial.iter_mut().zip(scored) {
                let v = (x - med).abs() / mad;
                // the strictly-greater update, written as a select
                *o = if v > *o { v } else { *o };
            }
        }
        (partial, used, degenerate)
    }
}

/// `out[i] = ⟨row i, u⟩` for the cloud whose transpose is `columns`,
/// summed in [`vector::dot`]'s order (its `-0.0` start is an exact
/// identity), so the bits match the row-wise dot product.
fn project(columns: &Matrix, u: &[f64], out: &mut [f64]) {
    for (o, &x) in out.iter_mut().zip(columns.row(0)) {
        *o = x * u[0];
    }
    for (k, &uk) in u.iter().enumerate().skip(1) {
        for (o, &x) in out.iter_mut().zip(columns.row(k)) {
            *o += x * uk;
        }
    }
}

/// Finds one direction's median and raw MAD of the reference projections.
enum MedianMad {
    /// In the plane: the projections, negated for directions that point
    /// into the lower half-plane, sorted ascending under
    /// [`f64::total_cmp`] with the rows they came from and kept from one
    /// direction to the next. `warm` is false until the first sort.
    Sorted {
        values: Vec<f64>,
        rows: Vec<u32>,
        warm: bool,
    },
    /// Otherwise: scratch for two in-place selections.
    Select(Vec<f64>),
}

impl MedianMad {
    /// The sorted path for `n` points in the plane, the selections
    /// otherwise. In angle order modulo `π` each pair of rows swaps once
    /// over the `count` directions, so the insertion sort moves a row
    /// about `(n − 1) / (2 · count)` places per direction; it loses to
    /// two selections once that nears one place per row, which is where
    /// clouds beyond `2 · count` rows (or beyond `u32` row indices) go.
    fn new(p: usize, n: usize, count: usize) -> Self {
        match u32::try_from(n) {
            Ok(n32) if p == 2 && n <= 2 * count => MedianMad::Sorted {
                values: vec![0.0; n],
                rows: (0..n32).collect(),
                warm: false,
            },
            _ => MedianMad::Select(vec![0.0; n]),
        }
    }

    /// `(median, MAD)` of the finite projections `proj` (in row order)
    /// onto the unit direction `u`: bit-for-bit
    /// [`vector::median_in_place`] applied to them and then to their
    /// absolute deviations from the median.
    fn of(&mut self, proj: &[f64], u: &[f64]) -> (f64, f64) {
        match self {
            MedianMad::Sorted { values, rows, warm } => {
                // `−u` orders the cloud in reverse, so projections onto a
                // lower half-plane direction are negated to keep one
                // ascending order. Negation is exact and reverses the
                // total order, so the median negates back and the MAD
                // is unchanged, bit for bit.
                let sign = if u[1] < 0.0 || (u[1] == 0.0 && u[0] < 0.0) {
                    -1.0
                } else {
                    1.0
                };
                let key = |r: u32| sign * proj[r as usize];
                if !*warm {
                    rows.sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)));
                    *warm = true;
                }
                for (v, &r) in values.iter_mut().zip(rows.iter()) {
                    *v = key(r);
                }
                // The previous direction's order is nearly right for this
                // one, so the insertion sort moves few rows.
                for k in 1..values.len() {
                    let (v, r) = (values[k], rows[k]);
                    let mut j = k;
                    while j > 0 && v.total_cmp(&values[j - 1]).is_lt() {
                        values[j] = values[j - 1];
                        rows[j] = rows[j - 1];
                        j -= 1;
                    }
                    values[j] = v;
                    rows[j] = r;
                }
                let (med, mad) = sorted_median_mad(values);
                (sign * med, mad)
            }
            MedianMad::Select(scratch) => {
                scratch.copy_from_slice(proj);
                let med = vector::median_in_place(scratch);
                for (s, &x) in scratch.iter_mut().zip(proj) {
                    *s = (x - med).abs();
                }
                (med, vector::median_in_place(scratch))
            }
        }
    }
}

/// Median and raw MAD of finite `sorted` values, ascending under
/// [`f64::total_cmp`]: bit-for-bit what [`vector::median_in_place`]
/// returns for the values and then for their absolute deviations from
/// that median.
///
/// `(x − med).abs()` is monotone on each side of the median, so the
/// deviations form two ascending runs that start at the middle: `below`
/// walks down from index `n/2 − 1`, `above` walks up from `n/2`. The
/// lowest `n/2` deviations are a prefix of each run; a binary search
/// finds how many come from `below`, and the MAD's order statistics sit
/// at the seam.
fn sorted_median_mad(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let mid = n / 2;
    let med = if n % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    };
    let below = |i: usize| (sorted[mid - 1 - i] - med).abs();
    let above = |j: usize| (sorted[mid + j] - med).abs();
    // The smallest `i` in 0..=mid with `i == mid` or
    // `below(i) >= above(mid - 1 - i)`: the predicate only turns true as
    // `i` grows, since `below` ascends and `above(mid - 1 - i)` descends.
    let (mut lo, mut hi) = (0, mid);
    while lo < hi {
        let i = (lo + hi) / 2;
        if below(i) >= above(mid - 1 - i) {
            hi = i;
        } else {
            lo = i + 1;
        }
    }
    let (i, j) = (lo, mid - lo);
    // order statistic `mid` of the deviations: the next one after the prefix
    let next = match (i < mid, j < n - mid) {
        (true, true) => below(i).min(above(j)),
        (true, false) => below(i),
        (false, _) => above(j),
    };
    if n % 2 == 1 {
        return (med, next);
    }
    // order statistic `mid − 1`: the last one in the prefix
    let last = match (i > 0, j > 0) {
        (true, true) => below(i - 1).max(above(j - 1)),
        (true, false) => below(i - 1),
        (false, _) => above(j - 1),
    };
    (med, 0.5 * (last + next))
}

/// Approximates the projection outlyingness
/// `O(x) = sup_u |uᵀx − med(uᵀZ)| / MAD(uᵀZ)` by maximizing over the
/// unit `directions` (drawn for the cloud's dimension): location and
/// scale come from the `reference` cloud `Z` (an `n x p` matrix), and
/// scores are computed for the rows of `queries` when given, else for
/// `reference` itself.
///
/// For `p = 1` the exact univariate computation is used. Degenerate
/// directions (zero MAD) are skipped; if *every* direction degenerates the
/// cloud is concentrated and [`DepthError::DegenerateDirections`] is
/// returned.
pub(crate) fn outlyingness_along(
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
    // The sorted-order MAD needs a total order on the projections that
    // matches their numeric order; a NaN row would also score as deepest.
    if !reference.is_finite() || queries.is_some_and(|q| !q.is_finite()) {
        return Err(DepthError::NonFinite);
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

    // The strictly-greater max update over the nonnegative, never-NaN
    // residuals is associative and commutative, so the plane's angle
    // order moves no bit against the one-direction-at-a-time loop in
    // draw order.
    let (scores, used, degenerate) = directions.fold(reference, queries);
    if used == 0 {
        return Err(DepthError::DegenerateDirections {
            attempted: directions.attempted,
        });
    }
    Ok(ProjectionOutcome {
        scores,
        used_directions: used,
        degenerate_directions: directions.short_draws + degenerate,
    })
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
    use proptest::prelude::*;

    /// Scores `reference` (or `queries` against it) along the direction
    /// stream of `config`, the way Dir.out does at one grid point.
    fn outlyingness(
        reference: &Matrix,
        queries: Option<&Matrix>,
        config: &ProjectionConfig,
    ) -> Result<ProjectionOutcome> {
        let directions = Directions::draw(reference.ncols(), config);
        outlyingness_along(&directions, reference, queries)
    }

    fn cloud_of(rows: &[Vec<f64>]) -> Matrix {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

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
        let cloud = cloud_of(&[
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
        ]);
        let o = outlyingness(&cloud, None, &ProjectionConfig::default())
            .unwrap()
            .scores;
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
        let cloud = cloud_of(&rows);
        let cfg = ProjectionConfig {
            n_directions: 64,
            seed: 42,
        };
        let o1 = outlyingness(&cloud, None, &cfg).unwrap();
        let o2 = outlyingness(&cloud, None, &cfg).unwrap();
        assert_eq!(o1, o2);
    }

    #[test]
    fn direction_budget_is_accounted() {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, (i as f64).cos()]).collect();
        let cloud = cloud_of(&rows);
        let cfg = ProjectionConfig {
            n_directions: 32,
            seed: 5,
        };
        let outcome = outlyingness(&cloud, None, &cfg).unwrap();
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
        let flat = cloud_of(&rows);
        let outcome = outlyingness(&flat, None, &cfg).unwrap();
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
        let err = outlyingness(&cloud, None, &ProjectionConfig::default()).unwrap_err();
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

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    /// A generic cloud of 9 points in `R^p` with `bad` as one coordinate
    /// of row 4.
    fn cloud_with(p: usize, bad: f64) -> Matrix {
        let mut cloud = Matrix::zeros(9, p);
        for i in 0..9 {
            for k in 0..p {
                cloud[(i, k)] = (i as f64 * (0.7 + k as f64)).sin();
            }
        }
        cloud[(4, p - 1)] = bad;
        cloud
    }

    fn small_config() -> ProjectionConfig {
        ProjectionConfig {
            n_directions: 16,
            seed: 3,
        }
    }

    #[test]
    fn univariate_rejects_non_finite_points() {
        for bad in NON_FINITE {
            assert_eq!(
                univariate_outlyingness(&[1.0, bad, 2.0, 3.0]),
                Err(DepthError::NonFinite)
            );
        }
    }

    #[test]
    fn joint_outlyingness_rejects_non_finite_clouds() {
        for (p, bad) in [1, 2, 3]
            .into_iter()
            .flat_map(|p| NON_FINITE.map(|b| (p, b)))
        {
            let cloud = cloud_with(p, bad);
            assert_eq!(
                outlyingness(&cloud, None, &small_config()),
                Err(DepthError::NonFinite),
                "p = {p}"
            );
        }
    }

    #[test]
    fn against_outlyingness_rejects_non_finite_reference_or_queries() {
        for (p, bad) in [1, 2, 3]
            .into_iter()
            .flat_map(|p| NON_FINITE.map(|b| (p, b)))
        {
            let clean = cloud_with(p, 0.5);
            let dirty = cloud_with(p, bad);
            for (reference, queries) in [(&dirty, &clean), (&clean, &dirty)] {
                assert_eq!(
                    outlyingness(reference, Some(queries), &small_config()),
                    Err(DepthError::NonFinite),
                    "p = {p}"
                );
            }
        }
    }

    /// Values with ties, duplicates and both zeros: a quarter are `±0.0`,
    /// a quarter sit on a coarse lattice, the rest are arbitrary.
    fn tied_values() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0usize..5, -4.0..4.0f64), 1..=200).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(kind, x)| match kind {
                    0 => -0.0,
                    1 => 0.0,
                    2 => (2.0 * x).round() / 2.0,
                    _ => x,
                })
                .collect()
        })
    }

    /// Projection outlyingness as the per-direction selection loop computed
    /// it: directions in draw order, the median by `median_in_place`, then the
    /// MAD by `median_in_place` over the absolute deviations.
    fn selection_loop(
        reference: &Matrix,
        queries: Option<&Matrix>,
        config: &ProjectionConfig,
    ) -> Result<ProjectionOutcome> {
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
    fn bits(outcome: Result<ProjectionOutcome>) -> Result<(Vec<u64>, usize, usize)> {
        outcome.map(|o| {
            let scores = o.scores.iter().map(|v| v.to_bits()).collect();
            (scores, o.used_directions, o.degenerate_directions)
        })
    }

    /// A cloud of `rows` points in `R^p` whose coordinates are often tied:
    /// half of them sit on a coarse lattice that includes `±0.0`, so some
    /// directions degenerate and many projections repeat.
    fn tied_cloud(
        rows: std::ops::RangeInclusive<usize>,
        p: usize,
    ) -> impl Strategy<Value = Matrix> {
        let coordinate = (0usize..6, -3.0..3.0f64).prop_map(|(kind, x)| match kind {
            0 => -0.0,
            1 => 0.0,
            2 | 3 => x.round(),
            _ => x,
        });
        prop::collection::vec(prop::collection::vec(coordinate, p), rows)
            .prop_map(|rows| cloud_of(&rows))
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
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn sorted_median_mad_matches_two_selections(values in tied_values()) {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let (med, mad) = sorted_median_mad(&sorted);
            let mut scratch = values.clone();
            let want_med = vector::median_in_place(&mut scratch);
            let mut deviations: Vec<f64> = values.iter().map(|x| (x - want_med).abs()).collect();
            let want_mad = vector::median_in_place(&mut deviations);
            prop_assert_eq!(med.to_bits(), want_med.to_bits(), "median of {:?}", values);
            prop_assert_eq!(mad.to_bits(), want_mad.to_bits(), "MAD of {:?}", values);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn outlyingness_along_matches_the_selection_loop_bit_for_bit(
            (reference, queries, config) in clouds()
        ) {
            prop_assert_eq!(
                bits(outlyingness(&reference, None, &config)),
                bits(selection_loop(&reference, None, &config)),
                "joint, p = {}", reference.ncols()
            );
            prop_assert_eq!(
                bits(outlyingness(&reference, Some(&queries), &config)),
                bits(selection_loop(&reference, Some(&queries), &config)),
                "against, p = {}", reference.ncols()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn projection_against_self_matches_joint(rows in prop::collection::vec(
            prop::collection::vec(-5.0..5.0f64, 2), 9)) {
            let cloud = cloud_of(&rows);
            let cfg = ProjectionConfig::default();
            if let Ok(joint) = outlyingness(&cloud, None, &cfg) {
                let against = outlyingness(&cloud, Some(&cloud), &cfg).unwrap();
                for (a, b) in joint.scores.iter().zip(&against.scores) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
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
