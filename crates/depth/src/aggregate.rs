//! Pointwise-depth aggregation (the classical UFD→MFD depth extension the
//! paper critiques in Sec. 1.2) and the fast modified band depth.
//!
//! The classic recipe computes a multivariate depth of the point cloud
//! `{X_i(t_j)}_i` at every grid point and aggregates over `t`. The paper
//! identifies two weaknesses that our implementations make explicit and
//! testable:
//!
//! 1. the **integral** aggregation averages away isolated outliers
//!    (issue (2)), which the **infimum** aggregation fixes;
//! 2. pointwise depths barely react to persistent shape outliers
//!    (issue (1)).

use crate::dataset::GriddedDataSet;
use crate::error::DepthError;
use crate::projection::{outlyingness_along, Directions, ProjectionConfig};
use crate::{FunctionalOutlierScorer, Result};
use mfod_linalg::{par, vector};

/// How pointwise depth values are aggregated into a sample score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// `(1/|T|) ∫ depth dt` — the classical average (Fraiman–Muniz /
    /// Claeskens et al. style); susceptible to masking isolated outliers.
    Integral,
    /// `inf_t depth(t)` — the paper's suggested fix for issue (2): a single
    /// deeply outlying instant dominates the score.
    Infimum,
}

/// Integrated (or infimum-aggregated) projection-depth scorer: pointwise
/// projection depth `PD = 1/(1+O)` aggregated over the grid; outlyingness
/// is reported as `1 − aggregated depth` (higher = more outlying).
#[derive(Debug, Clone)]
pub struct IntegratedDepth {
    /// Aggregation rule over `t`.
    pub aggregation: Aggregation,
    /// Random-projection settings for multivariate pointwise clouds.
    pub projection: ProjectionConfig,
}

impl IntegratedDepth {
    /// Classical integral aggregation.
    pub fn integral() -> Self {
        IntegratedDepth {
            aggregation: Aggregation::Integral,
            projection: ProjectionConfig::default(),
        }
    }

    /// Infimum aggregation.
    pub fn infimum() -> Self {
        IntegratedDepth {
            aggregation: Aggregation::Infimum,
            projection: ProjectionConfig::default(),
        }
    }

    /// Pointwise depths for every sample: an `n x m` table (row = sample).
    ///
    /// The direction stream depends only on the channel count, so one
    /// draw serves every grid point; the grid points fan out over the
    /// global worker pool and come back in grid order, so the first
    /// failing grid point is the one reported.
    pub fn pointwise_depths(&self, data: &GriddedDataSet) -> Result<Vec<Vec<f64>>> {
        let directions = Directions::draw(data.dim(), &self.projection);
        let outlyingness = par::global().try_map(data.m(), |j| {
            outlyingness_along(&directions, &data.point_cloud(j), None)
                .map_err(|e| e.at_grid_point(j))
        })?;
        Ok((0..data.n())
            .map(|i| {
                outlyingness
                    .iter()
                    .map(|o| 1.0 / (1.0 + o.scores[i]))
                    .collect()
            })
            .collect())
    }
}

impl FunctionalOutlierScorer for IntegratedDepth {
    fn name(&self) -> &'static str {
        match self.aggregation {
            Aggregation::Integral => "integrated-depth",
            Aggregation::Infimum => "infimum-depth",
        }
    }

    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>> {
        let grid = data.grid();
        let span = grid[data.m() - 1] - grid[0];
        let table = self.pointwise_depths(data)?;
        Ok(table
            .into_iter()
            .map(|row| {
                let depth = match self.aggregation {
                    Aggregation::Integral => vector::trapz(grid, &row) / span,
                    Aggregation::Infimum => vector::min(&row),
                };
                1.0 - depth
            })
            .collect())
    }
}

/// Modified band depth (López-Pintado & Romo, J=2 bands) for univariate
/// functional data, computed with the O(n·m·log n) rank formula of Sun &
/// Genton; outlyingness is `1 − MBD`.
///
/// For multivariate data the per-channel MBD values are averaged (the
/// marginal MFD extension).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModifiedBandDepth;

impl ModifiedBandDepth {
    /// MBD value (depth, not outlyingness) per sample for channel `k`.
    fn mbd_channel(&self, data: &GriddedDataSet, k: usize) -> Vec<f64> {
        let n = data.n();
        let m = data.m();
        let pairs = (n * (n - 1)) as f64 / 2.0;
        let mut depth = vec![0.0; n];
        for j in 0..m {
            let vals = data.channel_at(j, k);
            let ranks = vector::average_ranks(&vals);
            for i in 0..n {
                // With rank r (1-based), the number of pairs {a, b} whose
                // band [min, max] covers x_i at this grid point is
                // (r − 1)(n − r) + (n − 1): one curve strictly below and one
                // strictly above, plus every pair that contains curve i
                // itself. Average ranks extend this smoothly to ties.
                let r = ranks[i];
                let count = (r - 1.0) * (n as f64 - r) + (n as f64 - 1.0);
                depth[i] += count / pairs;
            }
        }
        depth.iter_mut().for_each(|d| *d /= m as f64);
        depth
    }
}

impl FunctionalOutlierScorer for ModifiedBandDepth {
    fn name(&self) -> &'static str {
        "modified-band-depth"
    }

    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>> {
        if data.n() < 2 {
            return Err(DepthError::TooFewSamples {
                got: data.n(),
                need: 2,
            });
        }
        let n = data.n();
        let mut depth = vec![0.0; n];
        for k in 0..data.dim() {
            let d = self.mbd_channel(data, k);
            for i in 0..n {
                depth[i] += d[i];
            }
        }
        Ok(depth
            .into_iter()
            .map(|d| 1.0 - d / data.dim() as f64)
            .collect())
    }
}

/// The classical Fraiman–Muniz depth (2001; the paper's reference \[6\]):
/// pointwise univariate rank depth `1 − |1/2 − F̂_t(x)|` integrated over the
/// grid, channels averaged for multivariate data. Outlyingness is
/// `1 − depth`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FraimanMuniz;

impl FraimanMuniz {
    fn depth_channel(&self, data: &GriddedDataSet, k: usize) -> Vec<f64> {
        let n = data.n();
        let m = data.m();
        let mut depth = vec![0.0; n];
        for j in 0..m {
            let vals = data.channel_at(j, k);
            let ranks = vector::average_ranks(&vals);
            for i in 0..n {
                // midrank empirical CDF F̂ = (rank − ½)/n: symmetric, so the
                // sample median gets F̂ = ½ exactly for odd n
                let f = (ranks[i] - 0.5) / n as f64;
                depth[i] += 1.0 - (0.5 - f).abs();
            }
        }
        depth.iter_mut().for_each(|d| *d /= m as f64);
        depth
    }
}

impl FunctionalOutlierScorer for FraimanMuniz {
    fn name(&self) -> &'static str {
        "fraiman-muniz"
    }

    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>> {
        if data.n() < 2 {
            return Err(DepthError::TooFewSamples {
                got: data.n(),
                need: 2,
            });
        }
        let n = data.n();
        let mut depth = vec![0.0; n];
        for k in 0..data.dim() {
            let d = self.depth_channel(data, k);
            for i in 0..n {
                depth[i] += d[i];
            }
        }
        Ok(depth
            .into_iter()
            .map(|d| 1.0 - d / data.dim() as f64)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shifted_bundle(extra: Option<Vec<f64>>) -> GriddedDataSet {
        let m = 30;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut curves: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                let a = (i as f64 - 4.0) * 0.1;
                grid.iter().map(|&t| (6.0 * t).sin() + a).collect()
            })
            .collect();
        if let Some(e) = extra {
            curves.push(e);
        }
        GriddedDataSet::from_univariate(grid, curves).unwrap()
    }

    #[test]
    fn central_curve_is_deepest_under_integral() {
        let d = shifted_bundle(None);
        let s = IntegratedDepth::integral().score(&d).unwrap();
        // curve 4 (offset 0) is the central one: minimal outlyingness
        let min_idx = s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(min_idx, 4, "{s:?}");
    }

    #[test]
    fn infimum_catches_isolated_outlier_integral_masks() {
        // A curve identical to the deepest one except for one huge spike.
        let m = 30;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut spiky: Vec<f64> = grid.iter().map(|&t| (6.0 * t).sin()).collect();
        spiky[15] += 50.0;
        let d = shifted_bundle(Some(spiky));
        let inf = IntegratedDepth::infimum().score(&d).unwrap();
        let int = IntegratedDepth::integral().score(&d).unwrap();
        let n = d.n();
        // infimum must rank the spiky curve most outlying
        let inf_rank = inf.iter().filter(|&&v| v > inf[n - 1]).count();
        assert_eq!(inf_rank, 0, "infimum should top-rank the spike: {inf:?}");
        // the spiky curve's margin over the runner-up is much larger under
        // infimum than under integral (the masking effect, issue (2))
        let margin = |s: &[f64]| {
            let mut sorted = s.to_vec();
            sorted.sort_by(|a, b| b.total_cmp(a));
            (sorted[0] - sorted[1]) / (sorted[1].abs() + 1e-12)
        };
        assert!(
            margin(&inf) > margin(&int),
            "infimum margin {} vs integral margin {}",
            margin(&inf),
            margin(&int)
        );
    }

    #[test]
    fn mbd_ranks_center_deepest() {
        let d = shifted_bundle(None);
        let s = ModifiedBandDepth.score(&d).unwrap();
        let min_idx = s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(min_idx, 4, "{s:?}");
        // extreme offsets are the most outlying
        let max_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(max_idx == 0 || max_idx == 8);
    }

    #[test]
    fn mbd_rank_formula_matches_bruteforce() {
        // brute-force MBD on a tiny dataset with distinct values
        let grid = vec![0.0, 1.0, 2.0];
        let curves = vec![
            vec![0.0, 1.0, 0.0],
            vec![1.0, 3.0, 2.0],
            vec![2.0, 2.0, 1.0],
            vec![3.0, 0.0, 3.0],
        ];
        let d = GriddedDataSet::from_univariate(grid, curves.clone()).unwrap();
        let fast = ModifiedBandDepth.score(&d).unwrap();
        let n = curves.len();
        let m = 3;
        let pairs = (n * (n - 1) / 2) as f64;
        for i in 0..n {
            let mut depth = 0.0;
            for j in 0..m {
                let mut covered = 0.0;
                for a in 0..n {
                    for b in (a + 1)..n {
                        let lo = curves[a][j].min(curves[b][j]);
                        let hi = curves[a][j].max(curves[b][j]);
                        if curves[i][j] >= lo && curves[i][j] <= hi {
                            covered += 1.0;
                        }
                    }
                }
                depth += covered / pairs;
            }
            depth /= m as f64;
            assert!(
                (fast[i] - (1.0 - depth)).abs() < 1e-12,
                "sample {i}: fast {} vs brute {}",
                fast[i],
                1.0 - depth
            );
        }
    }

    #[test]
    fn mbd_depth_bounds() {
        let d = shifted_bundle(None);
        let s = ModifiedBandDepth.score(&d).unwrap();
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)), "{s:?}");
        assert_eq!(ModifiedBandDepth.name(), "modified-band-depth");
    }

    #[test]
    fn first_collapsed_grid_point_is_the_one_reported() {
        use mfod_linalg::Matrix;
        // Every curve coincides at grid points 3 and 7, in one and in two
        // channels: the univariate MAD or every direction degenerates there.
        for p in [1usize, 2] {
            let m = 12;
            let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
            let samples = (0..9)
                .map(|i| {
                    let mut s = Matrix::zeros(m, p);
                    for (j, &t) in grid.iter().enumerate() {
                        for k in 0..p {
                            let collapsed = j == 3 || j == 7;
                            s[(j, k)] = if collapsed {
                                0.25
                            } else {
                                (6.0 * t + k as f64).sin() + 0.1 * i as f64
                            };
                        }
                    }
                    s
                })
                .collect();
            let d = GriddedDataSet::new(grid, samples).unwrap();
            for scorer in [IntegratedDepth::integral(), IntegratedDepth::infimum()] {
                let err = scorer.score(&d).unwrap_err();
                assert!(
                    matches!(err, DepthError::AtGridPoint { grid_index: 3, .. }),
                    "p = {p}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn scorer_names() {
        assert_eq!(IntegratedDepth::integral().name(), "integrated-depth");
        assert_eq!(IntegratedDepth::infimum().name(), "infimum-depth");
    }

    #[test]
    fn mbd_needs_two_samples() {
        let grid = vec![0.0, 1.0];
        let d = GriddedDataSet::from_univariate(grid, vec![vec![0.0, 1.0]]).unwrap();
        assert!(ModifiedBandDepth.score(&d).is_err());
        assert!(FraimanMuniz.score(&d).is_err());
    }

    #[test]
    fn fraiman_muniz_ranks_center_deepest() {
        let d = shifted_bundle(None);
        let s = FraimanMuniz.score(&d).unwrap();
        let min_idx = s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(min_idx, 4, "{s:?}");
        // the extreme offsets are the most outlying
        let max_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(max_idx == 0 || max_idx == 8);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(FraimanMuniz.name(), "fraiman-muniz");
    }

    #[test]
    fn fraiman_muniz_known_values_tiny() {
        // 3 constant curves at heights 0, 1, 2: ranks 1, 2, 3 →
        // F̂ = 1/6, 1/2, 5/6 → depths 2/3, 1, 2/3 → outlyingness 1/3, 0, 1/3.
        let grid = vec![0.0, 1.0];
        let d = GriddedDataSet::from_univariate(
            grid,
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]],
        )
        .unwrap();
        let s = FraimanMuniz.score(&d).unwrap();
        assert!((s[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!(s[1].abs() < 1e-12);
        assert!((s[2] - 1.0 / 3.0).abs() < 1e-12);
    }
}
