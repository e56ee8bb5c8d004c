//! Directional outlyingness — `Dir.out` (Dai & Genton, *CSDA* 2019), the
//! paper's second baseline.
//!
//! At every grid point the point cloud `{X_i(t_j)}_i ⊂ R^p` is scored with
//! projection-depth outlyingness, oriented by the unit vector from the
//! cloud's center to the point:
//!
//! ```text
//! O(X_i(t), t) = (1/PD(X_i(t)) − 1) · v_i(t) = O_pd(X_i(t)) · v_i(t)
//! ```
//!
//! The pointwise scores are then aggregated over `t` into
//!
//! * `MO_i = (1/|T|) ∫ O(X_i(t), t) dt` — *mean* directional outlyingness
//!   (a vector in `R^p`; large for magnitude/isolated-style outliers), and
//! * `VO_i = (1/|T|) ∫ ‖O(X_i(t), t) − MO_i‖² dt` — *variation* of
//!   directional outlyingness (large for shape/persistent outliers),
//!
//! combined into the **functional outlyingness** `FO = ‖MO‖² + VO` used as
//! the ranking score (Dai & Genton eq. (5); their MS-plot reads the two
//! components separately, which [`DirOutScores`] exposes).
//!
//! The per-grid-point cloud scoring fans out over the worker pool of
//! [`mfod_linalg::par`], with per-point blocks reassembled in grid order —
//! scores are bit-for-bit identical at any pool size. The random
//! projection directions depend only on `p` and the configuration, so
//! each decomposition draws them once for all grid points, and each grid
//! point runs its direction loop inline: the grid fan-out already feeds
//! every thread. For bivariate data, such as the paper's two-channel
//! ECG, that loop keeps the reference projections sorted from one
//! direction to the next instead of selecting the median and MAD afresh,
//! as long as there are at most twice as many reference curves as
//! directions (see [`crate::projection`]). Orienting a point and
//! aggregating over `t` work in reused buffers, not per-row or
//! per-sample allocations.

use crate::dataset::GriddedDataSet;
use crate::projection::{coordinate_median, outlyingness_along, Directions, ProjectionConfig};
use crate::{FunctionalOutlierScorer, Result};
use mfod_linalg::{par, vector, Matrix};

/// The directional-outlyingness scorer.
#[derive(Debug, Clone, Default)]
pub struct DirOut {
    /// Random-projection settings for the pointwise projection depth
    /// (ignored for univariate clouds, which are computed exactly).
    pub projection: ProjectionConfig,
}

impl DirOut {
    /// Scorer with default projection settings.
    pub fn new() -> Self {
        DirOut::default()
    }

    /// Full decomposition: per-sample `MO` vectors, `VO` and `FO` values.
    /// Runs on the global worker pool; see [`DirOut::decompose_on`].
    pub fn decompose(&self, data: &GriddedDataSet) -> Result<DirOutScores> {
        self.decompose_on(par::global(), data)
    }

    /// [`DirOut::decompose`] on an explicit worker pool.
    ///
    /// Every grid point's point cloud is scored independently along the
    /// same direction stream, drawn once per call, so the grid loop fans
    /// out across `pool` and the per-point blocks are reassembled in grid
    /// order — scores are bit-for-bit identical at any pool size, and
    /// the first failing grid point in grid order is the one reported,
    /// exactly as in the sequential loop.
    pub fn decompose_on(&self, pool: &par::Pool, data: &GriddedDataSet) -> Result<DirOutScores> {
        let dims = Dims {
            n: data.n(),
            m: data.m(),
            p: data.dim(),
        };
        let directions = Directions::draw(data.dim(), &self.projection);
        decompose_pointwise_on(pool, dims, data.grid(), |j| {
            let cloud = data.point_cloud(j);
            let outcome =
                outlyingness_along(&directions, &cloud, None).map_err(|e| e.at_grid_point(j))?;
            Ok(oriented_block(&outcome, &cloud, &cloud))
        })
    }
}

/// The MO/VO/FO decomposition of a dataset under directional outlyingness.
#[derive(Debug, Clone)]
pub struct DirOutScores {
    /// Mean directional outlyingness per sample (vectors in `R^p`).
    pub mo: Vec<Vec<f64>>,
    /// Variation of directional outlyingness per sample.
    pub vo: Vec<f64>,
    /// Combined functional outlyingness `‖MO‖² + VO` per sample.
    pub fo: Vec<f64>,
    /// Projection directions skipped as degenerate, summed over all grid
    /// points — a quality signal: when it approaches
    /// [`DirOutScores::attempted_directions`] the effective direction
    /// budget has collapsed and the supremum is estimated from very few
    /// directions.
    pub degenerate_directions: usize,
    /// Projection directions attempted across all grid points
    /// (`used + degenerate`, as reported by the projection layer per grid
    /// point) — the denominator for
    /// [`DirOutScores::degenerate_directions`] when reporting
    /// direction-budget collapse.
    pub attempted_directions: usize,
}

impl DirOut {
    /// MO/VO/FO of each `queries` sample with location/scale estimated from
    /// `reference` only (the train/test protocol: training contamination
    /// inflates the reference MAD and genuinely degrades the method, as the
    /// paper's Fig. 3 probes). Runs on the global worker pool; see
    /// [`DirOut::decompose_against_on`].
    pub fn decompose_against(
        &self,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<DirOutScores> {
        self.decompose_against_on(par::global(), reference, queries)
    }

    /// [`DirOut::decompose_against`] on an explicit worker pool, with the
    /// same grid-order determinism contract as [`DirOut::decompose_on`].
    pub fn decompose_against_on(
        &self,
        pool: &par::Pool,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<DirOutScores> {
        if reference.m() != queries.m() || reference.dim() != queries.dim() {
            return Err(crate::DepthError::ShapeMismatch(
                "reference and queries must share grid and channels".into(),
            ));
        }
        let dims = Dims {
            n: queries.n(),
            m: queries.m(),
            p: queries.dim(),
        };
        let directions = Directions::draw(queries.dim(), &self.projection);
        decompose_pointwise_on(pool, dims, queries.grid(), |j| {
            let ref_cloud = reference.point_cloud(j);
            let query_cloud = queries.point_cloud(j);
            let outcome = outlyingness_along(&directions, &ref_cloud, Some(&query_cloud))
                .map_err(|e| e.at_grid_point(j))?;
            Ok(oriented_block(&outcome, &ref_cloud, &query_cloud))
        })
    }
}

/// Problem sizes shared by the decompose drivers.
#[derive(Clone, Copy)]
struct Dims {
    /// Scored samples.
    n: usize,
    /// Grid points.
    m: usize,
    /// Channels.
    p: usize,
}

/// Per-grid-point result: the flattened `n × p` oriented-outlyingness
/// block plus the direction bookkeeping, accumulated in grid order.
type PointBlock = (Vec<f64>, usize, usize);

/// Orients pointwise outlyingness magnitudes at one grid point: each
/// scored row of `queries` gets `O_pd(x_i) · v_i` with `v_i` the unit
/// vector from the `reference` cloud's coordinate-wise median to the
/// point. The outcome's degenerate and attempted (`used + degenerate`)
/// direction counts ride along for grid-order accumulation.
fn oriented_block(
    outcome: &crate::projection::ProjectionOutcome,
    reference: &Matrix,
    queries: &Matrix,
) -> PointBlock {
    let magnitude = &outcome.scores;
    let n = queries.nrows();
    let p = queries.ncols();
    let center = coordinate_median(reference);
    let mut block = vec![0.0; n * p];
    // Each row of the block holds its point's direction until it is scaled.
    for (i, dir) in block.chunks_exact_mut(p).enumerate() {
        for ((d, &a), &c) in dir.iter_mut().zip(queries.row(i)).zip(&center) {
            *d = a - c;
        }
        if vector::normalize(dir, 1e-12) <= 1e-12 {
            // the point sits exactly at the center: zero outlyingness
            dir.fill(0.0);
        }
        vector::scale(magnitude[i], dir);
    }
    (
        block,
        outcome.degenerate_directions,
        outcome.used_directions + outcome.degenerate_directions,
    )
}

/// Shared driver of both decompositions: fans `per_point` (the pointwise
/// cloud scoring at grid index `j`, returning the oriented `n × p` block
/// and a degenerate-direction count) out over `pool`, reassembles the
/// blocks in grid order, and aggregates over `t` with the trapezoid rule
/// normalized by `|T|`.
fn decompose_pointwise_on(
    pool: &par::Pool,
    dims: Dims,
    grid: &[f64],
    per_point: impl Fn(usize) -> Result<PointBlock> + Sync,
) -> Result<DirOutScores> {
    let Dims { n, m, p } = dims;
    let span = grid[m - 1] - grid[0];
    let blocks = pool.try_map(m, per_point)?;
    let mut degenerate_directions = 0usize;
    let mut attempted_directions = 0usize;
    for (_, degenerate, attempted) in &blocks {
        degenerate_directions += degenerate;
        attempted_directions += attempted;
    }
    // Aggregate straight off the per-point blocks — sample i's value at
    // grid point j, channel k is blocks[j].0[i*p + k] — so no transposed
    // copy of the O(n·m·p) oriented-outlyingness tensor is materialized.
    let mut mo = Vec::with_capacity(n);
    let mut vo = Vec::with_capacity(n);
    let mut fo = Vec::with_capacity(n);
    // one sample's series over the grid, reused for every channel and sample
    let mut series = vec![0.0; m];
    for i in 0..n {
        let mut mo_i = vec![0.0; p];
        for (k, mo_ik) in mo_i.iter_mut().enumerate() {
            for (s, (block, _, _)) in series.iter_mut().zip(&blocks) {
                *s = block[i * p + k];
            }
            *mo_ik = vector::trapz(grid, &series) / span;
        }
        for (s, (block, _, _)) in series.iter_mut().zip(&blocks) {
            *s = block[i * p..(i + 1) * p]
                .iter()
                .zip(&mo_i)
                .map(|(o, mo_ik)| {
                    let d = o - mo_ik;
                    d * d
                })
                .sum::<f64>();
        }
        let vo_i = vector::trapz(grid, &series) / span;
        let fo_i = vector::dot(&mo_i, &mo_i) + vo_i;
        mo.push(mo_i);
        vo.push(vo_i);
        fo.push(fo_i);
    }
    Ok(DirOutScores {
        mo,
        vo,
        fo,
        degenerate_directions,
        attempted_directions,
    })
}

impl FunctionalOutlierScorer for DirOut {
    fn name(&self) -> &'static str {
        "dir.out"
    }

    fn snapshot(&self) -> Option<crate::DepthScorerSnapshot> {
        Some(crate::DepthScorerSnapshot::DirOut {
            n_directions: self.projection.n_directions,
            seed: self.projection.seed,
        })
    }

    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>> {
        Ok(self.decompose(data)?.fo)
    }

    fn score_against(
        &self,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<Vec<f64>> {
        Ok(self.decompose_against(reference, queries)?.fo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle_with(outlier: Vec<f64>, m: usize) -> GriddedDataSet {
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut curves: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let a = (i as f64 - 5.5) * 0.05;
                grid.iter()
                    .map(|&t| (std::f64::consts::TAU * t).sin() + a)
                    .collect()
            })
            .collect();
        curves.push(outlier);
        GriddedDataSet::from_univariate(grid, curves).unwrap()
    }

    #[test]
    fn magnitude_outlier_has_large_mo() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let shifted: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin() + 3.0)
            .collect();
        let d = bundle_with(shifted, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        let n = d.n();
        // outlier is the last sample: largest ‖MO‖, and largest FO
        let mo_norm: Vec<f64> = scores.mo.iter().map(|v| vector::norm2(v)).collect();
        let max_mo = mo_norm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_mo, n - 1, "{mo_norm:?}");
        let max_fo = scores
            .fo
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_fo, n - 1);
        // a persistent magnitude shift has *low* VO relative to its MO²
        let i = n - 1;
        assert!(scores.fo[i] > scores.vo[i] * 2.0, "MO should dominate");
    }

    #[test]
    fn shape_outlier_has_large_vo() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        // phase-inverted: same range, different shape
        let inverted: Vec<f64> = grid
            .iter()
            .map(|&t| -(std::f64::consts::TAU * t).sin())
            .collect();
        let d = bundle_with(inverted, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        let n = d.n();
        let max_vo = scores
            .vo
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_vo, n - 1, "{:?}", scores.vo);
        let max_fo = scores
            .fo
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_fo, n - 1);
    }

    #[test]
    fn isolated_spike_detected() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut spiky: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin())
            .collect();
        spiky[20] += 5.0; // narrow magnitude peak
        let d = bundle_with(spiky, m);
        let s = DirOut::new().score(&d).unwrap();
        let max_fo = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_fo, d.n() - 1, "{s:?}");
    }

    #[test]
    fn mo_and_vo_reflect_outlier_type() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        // magnitude outlier: large ‖MO‖, modest VO
        let shifted: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin() + 3.0)
            .collect();
        let d = bundle_with(shifted, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        let n = d.n();
        let max_mo = scores
            .mo
            .iter()
            .map(|mo| vector::norm2(mo))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        assert_eq!(max_mo, n - 1);
        // shape outlier: large VO relative to the bundle
        let inverted: Vec<f64> = grid
            .iter()
            .map(|&t| -(std::f64::consts::TAU * t).sin())
            .collect();
        let d = bundle_with(inverted, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        let max_vo = scores
            .vo
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_vo, n - 1);
    }

    #[test]
    fn grid_loop_is_identical_across_pool_sizes() {
        let m = 30;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let shifted: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin() + 2.0)
            .collect();
        let d = bundle_with(shifted, m);
        let scorer = DirOut::new();
        let seq = scorer
            .decompose_on(&par::Pool::with_threads(1), &d)
            .unwrap();
        let wide = scorer
            .decompose_on(&par::Pool::with_threads(8), &d)
            .unwrap();
        let global = scorer.decompose(&d).unwrap();
        for other in [&wide, &global] {
            assert_eq!(seq.degenerate_directions, other.degenerate_directions);
            assert_eq!(seq.attempted_directions, other.attempted_directions);
            for (a, b) in seq.fo.iter().zip(&other.fo) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in seq.vo.iter().zip(&other.vo) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (ma, mb) in seq.mo.iter().zip(&other.mo) {
                for (a, b) in ma.iter().zip(mb) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        // the against variant too: reference = first 10 curves
        let reference = d.subset(&(0..10).collect::<Vec<_>>()).unwrap();
        let seq_q = scorer
            .decompose_against_on(&par::Pool::with_threads(1), &reference, &d)
            .unwrap();
        let wide_q = scorer
            .decompose_against_on(&par::Pool::with_threads(8), &reference, &d)
            .unwrap();
        assert_eq!(seq_q.degenerate_directions, wide_q.degenerate_directions);
        for (a, b) in seq_q.fo.iter().zip(&wide_q.fo) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Dir.out as it stood before the hoisted direction stream: every
    /// grid point re-draws its directions, and every direction takes
    /// `median` and then `mad_raw`, which recomputes the median.
    mod reference {
        use super::super::{decompose_pointwise_on, oriented_block, Dims};
        use crate::projection::{ProjectionConfig, ProjectionOutcome};
        use crate::{DepthError, DirOutScores, GriddedDataSet, Result};
        use mfod_linalg::{par, vector, Matrix};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        fn standard_normal(rng: &mut StdRng) -> f64 {
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        }

        fn outlyingness(
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
                    return Err(DepthError::DegenerateScale {
                        context: match queries {
                            None => format!("MAD of the {n_ref}-point univariate set is zero"),
                            Some(_) => {
                                format!("MAD of the {n_ref}-point univariate reference set is zero")
                            }
                        },
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
                        *v = standard_normal(&mut rng);
                    }
                    if vector::normalize(&mut dir, 1e-12) <= 1e-12 {
                        degenerate += 1;
                        continue;
                    }
                }
                let proj: Vec<f64> = (0..n_ref)
                    .map(|i| vector::dot(reference.row(i), &dir))
                    .collect();
                let med = vector::median(&proj);
                let mad = vector::mad_raw(&proj);
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

        pub fn decompose_against(
            config: &ProjectionConfig,
            reference: &GriddedDataSet,
            queries: Option<&GriddedDataSet>,
        ) -> Result<DirOutScores> {
            let scored = queries.unwrap_or(reference);
            let dims = Dims {
                n: scored.n(),
                m: scored.m(),
                p: scored.dim(),
            };
            let pool = par::Pool::with_threads(1);
            decompose_pointwise_on(&pool, dims, scored.grid(), |j| {
                let ref_cloud = reference.point_cloud(j);
                let query_cloud = queries.map(|q| q.point_cloud(j));
                let outcome = outlyingness(&ref_cloud, query_cloud.as_ref(), config)
                    .map_err(|e| e.at_grid_point(j))?;
                Ok(oriented_block(
                    &outcome,
                    &ref_cloud,
                    query_cloud.as_ref().unwrap_or(&ref_cloud),
                ))
            })
        }
    }

    /// `n` curves in `p` channels; channel 1 is flat across every curve
    /// on the first four grid points, so its axis direction degenerates
    /// there.
    fn channels(n: usize, m: usize, p: usize, seed: u64) -> GriddedDataSet {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let samples = (0..n)
            .map(|i| {
                let shift = if i == n - 1 { 2.5 } else { 0.3 * next() };
                let mut s = Matrix::zeros(m, p);
                for (j, &t) in grid.iter().enumerate() {
                    for k in 0..p {
                        let flat = k == 1 && j < 4;
                        s[(j, k)] = if flat {
                            1.0
                        } else {
                            (std::f64::consts::TAU * t + k as f64).sin() + shift + 0.1 * next()
                        };
                    }
                }
                s
            })
            .collect();
        GriddedDataSet::new(grid, samples).unwrap()
    }

    fn assert_same(got: &DirOutScores, want: &DirOutScores, what: &str) {
        assert_eq!(
            got.degenerate_directions, want.degenerate_directions,
            "{what}: degenerate"
        );
        assert_eq!(
            got.attempted_directions, want.attempted_directions,
            "{what}: attempted"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.fo), bits(&want.fo), "{what}: FO");
        assert_eq!(bits(&got.vo), bits(&want.vo), "{what}: VO");
        for (a, b) in got.mo.iter().zip(&want.mo) {
            assert_eq!(bits(a), bits(b), "{what}: MO");
        }
    }

    #[test]
    fn hoisted_directions_match_the_per_point_loop_bit_for_bit() {
        let config = ProjectionConfig {
            n_directions: 40,
            seed: 17,
        };
        let scorer = DirOut {
            projection: config.clone(),
        };
        for p in [1usize, 2, 3] {
            let data = channels(21, 15, p, p as u64);
            let reference_set = data.subset(&(0..14).collect::<Vec<_>>()).unwrap();
            let joint = reference::decompose_against(&config, &data, None).unwrap();
            let against =
                reference::decompose_against(&config, &reference_set, Some(&data)).unwrap();
            if p > 1 {
                assert!(joint.degenerate_directions > 0, "the flat axis degenerates");
            }
            for threads in [1usize, 8] {
                let pool = par::Pool::with_threads(threads);
                let what = format!("p = {p}, {threads} threads");
                assert_same(&scorer.decompose_on(&pool, &data).unwrap(), &joint, &what);
                assert_same(
                    &scorer
                        .decompose_against_on(&pool, &reference_set, &data)
                        .unwrap(),
                    &against,
                    &format!("{what}, against"),
                );
            }
            assert_eq!(scorer.score(&data).unwrap(), joint.fo);
        }
        // A grid point where every curve coincides fails the same way.
        let mut samples: Vec<Matrix> = channels(9, 6, 2, 5).samples().to_vec();
        for s in &mut samples {
            s.row_mut(3).copy_from_slice(&[0.5, -0.5]);
        }
        let collapsed = GriddedDataSet::new(channels(9, 6, 2, 5).grid().to_vec(), samples).unwrap();
        let want = reference::decompose_against(&config, &collapsed, None).unwrap_err();
        assert_eq!(scorer.decompose(&collapsed).unwrap_err(), want);
        assert!(
            matches!(&want, crate::DepthError::AtGridPoint { grid_index: 3, .. }),
            "{want:?}"
        );
    }

    #[test]
    fn scores_nonnegative_and_finite() {
        let m = 25;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let flat: Vec<f64> = grid.to_vec();
        let d = bundle_with(flat, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        assert!(scores.fo.iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert!(scores.vo.iter().all(|&v| v >= 0.0 && v.is_finite()));
        // univariate clouds take the exact path: one direction per point
        assert_eq!(scores.attempted_directions, m);
        assert_eq!(scores.degenerate_directions, 0);
    }

    #[test]
    fn multivariate_input() {
        use mfod_linalg::Matrix;
        let m = 20;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut samples = Vec::new();
        for i in 0..10 {
            let a = (i as f64 - 4.5) * 0.1;
            let mut s = Matrix::zeros(m, 2);
            for (j, &t) in grid.iter().enumerate() {
                s[(j, 0)] = t + a;
                s[(j, 1)] = t * t + a;
            }
            samples.push(s);
        }
        // abnormal correlation: channel 2 inversely related
        let mut s = Matrix::zeros(m, 2);
        for (j, &t) in grid.iter().enumerate() {
            s[(j, 0)] = t;
            s[(j, 1)] = -t * t;
        }
        samples.push(s);
        let d = GriddedDataSet::new(grid, samples).unwrap();
        let scores = DirOut::new().score(&d).unwrap();
        let max_idx = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 10, "{scores:?}");
        assert_eq!(DirOut::new().name(), "dir.out");
    }
}
