//! FUNTA — *functional tangential angle* pseudo-depth (Kuhnt & Rehage,
//! *JMVA* 2016), one of the paper's two baselines.
//!
//! For every pair of curves, FUNTA finds the points where they intersect
//! (sign changes of the difference of their linear interpolants) and records
//! the intersection angle between the two segments. Deep (central) curves
//! cross others at shallow angles; shape outliers cross steeply. The
//! pseudo-depth is `1 − mean(|γ|/π)`; we report the **outlyingness**
//! `mean(|γ|/π)` directly so that higher = more outlying.
//!
//! For multivariate functional data the per-channel outlyingness values are
//! averaged (the paper: "average these angles over both their number and
//! the parameters"). As the paper notes (Sec. 1.2), FUNTA only targets
//! persistent *shape* outliers: magnitude outliers that never intersect the
//! bulk produce no angles at all and receive outlyingness 0 — faithfully
//! reproduced here.
//!
//! Each call takes every segment's slope angle once per (curve, channel)
//! and scans the curve pairs on those tables. About a third of all
//! segments cross, too irregular a pattern for a branch predictor, so the
//! scan writes every segment's angle into a pre-sized buffer and advances
//! its cursor by the crossing test. The kept angles come out in the same
//! (curve, segment) order a branching loop would push them in, for FUNTA
//! and rFUNTA alike, so the scores keep their bits.

use crate::dataset::GriddedDataSet;
use crate::error::DepthError;
use crate::{FunctionalOutlierScorer, Result};
use mfod_linalg::par;

/// The FUNTA scorer.
#[derive(Debug, Clone)]
pub struct Funta {
    /// Fraction trimmed from each tail of the angle distribution before
    /// averaging (`0.0` = plain FUNTA; `> 0` = the robustified rFUNTA
    /// variant of Kuhnt & Rehage).
    pub trim: f64,
}

impl Default for Funta {
    fn default() -> Self {
        Funta { trim: 0.0 }
    }
}

/// Every curve's values and segment slope angles for one FUNTA call.
///
/// A segment's slope depends only on (curve, segment, channel), so its
/// `atan` is taken once here instead of twice per crossing in the pair
/// scan. Storage is curve-major, then channel-major, so one (curve,
/// channel) pair is two contiguous slices: `m` values and `m − 1` angles.
struct SlopeTables {
    dim: usize,
    m: usize,
    values: Vec<f64>,
    angles: Vec<f64>,
}

impl SlopeTables {
    /// Tables for every curve of `data`, with segment widths taken from
    /// `grid`: [`Funta::score_against_on`] measures the slopes of both
    /// sides on the queries' grid.
    fn new(data: &GriddedDataSet, grid: &[f64]) -> Self {
        let (dim, m) = (data.dim(), data.m());
        let mut values = Vec::with_capacity(data.n() * dim * m);
        let mut angles = Vec::with_capacity(data.n() * dim * (m - 1));
        for x in data.samples() {
            for k in 0..dim {
                values.extend((0..m).map(|l| x[(l, k)]));
                angles.extend((0..m - 1).map(|l| {
                    let dt = grid[l + 1] - grid[l];
                    ((x[(l + 1, k)] - x[(l, k)]) / dt).atan()
                }));
            }
        }
        SlopeTables {
            dim,
            m,
            values,
            angles,
        }
    }

    /// Values and segment angles of curve `i`, channel `k`.
    fn curve(&self, i: usize, k: usize) -> Curve<'_> {
        let c = i * self.dim + k;
        Curve {
            values: &self.values[c * self.m..(c + 1) * self.m],
            angles: &self.angles[c * (self.m - 1)..(c + 1) * (self.m - 1)],
        }
    }
}

/// One channel of one curve in a [`SlopeTables`].
#[derive(Clone, Copy)]
struct Curve<'a> {
    values: &'a [f64],
    angles: &'a [f64],
}

impl Funta {
    /// Plain FUNTA (untrimmed mean of intersection angles).
    pub fn new() -> Self {
        Funta::default()
    }

    /// Robustified rFUNTA with the given per-tail trimming fraction
    /// (`0 <= trim < 0.5`).
    pub fn robust(trim: f64) -> Result<Self> {
        if !(0.0..0.5).contains(&trim) {
            return Err(DepthError::InvalidParameter(format!(
                "trim must be in [0, 0.5), got {trim}"
            )));
        }
        Ok(Funta { trim })
    }

    /// [`FunctionalOutlierScorer::score`] on an explicit worker pool: the
    /// curves fan out across `pool` and come back in index order, so the
    /// scores are bit-for-bit identical at any pool size.
    pub fn score_on(&self, pool: &par::Pool, data: &GriddedDataSet) -> Result<Vec<f64>> {
        if data.n() < 2 {
            return Err(DepthError::TooFewSamples {
                got: data.n(),
                need: 2,
            });
        }
        let tables = SlopeTables::new(data, data.grid());
        let segments = (data.n() - 1) * (data.m() - 1);
        Ok(pool.map(data.n(), |i| {
            self.outlyingness(data.dim(), segments, |k, angles| {
                let xi = tables.curve(i, k);
                (0..data.n()).filter(|&j| j != i).fold(0, |kept, j| {
                    angles_between(xi, tables.curve(j, k), angles, kept)
                })
            })
        }))
    }

    /// [`FunctionalOutlierScorer::score_against`] on an explicit worker
    /// pool: the queries fan out across `pool` and come back in index
    /// order, so the scores are bit-for-bit identical at any pool size.
    pub fn score_against_on(
        &self,
        pool: &par::Pool,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<Vec<f64>> {
        if reference.n() < 1 {
            return Err(DepthError::TooFewSamples {
                got: reference.n(),
                need: 1,
            });
        }
        if reference.m() != queries.m() || reference.dim() != queries.dim() {
            return Err(DepthError::ShapeMismatch(
                "reference and queries must share grid and channels".into(),
            ));
        }
        let refs = SlopeTables::new(reference, queries.grid());
        let tables = SlopeTables::new(queries, queries.grid());
        let segments = reference.n() * (queries.m() - 1);
        Ok(pool.map(queries.n(), |i| {
            self.outlyingness(queries.dim(), segments, |k, angles| {
                let xi = tables.curve(i, k);
                (0..reference.n()).fold(0, |kept, j| {
                    angles_between(xi, refs.curve(j, k), angles, kept)
                })
            })
        }))
    }

    /// One curve's outlyingness: `collect(k, angles)` writes the curve's
    /// intersection angles `|γ|` in channel `k` to the front of `angles`
    /// and returns how many it kept; they are normalized by `π`, and the
    /// per-channel aggregates are averaged over the `dim` channels. One
    /// buffer of `segments` angles, the most a channel can write, serves
    /// every channel.
    fn outlyingness(
        &self,
        dim: usize,
        segments: usize,
        collect: impl Fn(usize, &mut [f64]) -> usize,
    ) -> f64 {
        let mut angles = vec![0.0; segments];
        let mut total = 0.0;
        for k in 0..dim {
            let kept = collect(k, &mut angles);
            let kept = &mut angles[..kept];
            for gamma in kept.iter_mut() {
                *gamma /= std::f64::consts::PI;
            }
            total += self.aggregate(kept);
        }
        total / dim as f64
    }

    fn aggregate(&self, angles: &mut [f64]) -> f64 {
        if angles.is_empty() {
            // a curve that never intersects anything yields no angle
            // information; FUNTA leaves it maximally deep
            return 0.0;
        }
        let kept: &[f64] = if self.trim > 0.0 {
            angles.sort_by(|a, b| a.total_cmp(b));
            let cut = ((angles.len() as f64) * self.trim).floor() as usize;
            if angles.len() > 2 * cut {
                &angles[cut..angles.len() - cut]
            } else {
                angles
            }
        } else {
            angles
        };
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Writes the intersection angles `|γ|` between two curves in one channel
/// to `angles`, in segment order from index `kept`, and returns the new
/// count. Every segment's angle is written and the count advances only
/// where the curves meet, so the scan never branches on the crossing
/// test; `angles` needs room for one angle per segment past `kept`.
fn angles_between(xi: Curve<'_>, xj: Curve<'_>, angles: &mut [f64], mut kept: usize) -> usize {
    let mut d0 = xi.values[0] - xj.values[0];
    let values = xi.values[1..].iter().zip(&xj.values[1..]);
    for ((&vi, &vj), (&ai, &aj)) in values.zip(xi.angles.iter().zip(xj.angles)) {
        let d1 = vi - vj;
        // Crossing inside the segment (strict sign change), or exact touch
        // at its left endpoint counted once. `&` and `|` evaluate every
        // comparison, so the test compiles to flags, not jumps.
        let meets = (d0 > 0.0) & (d1 < 0.0) | (d0 < 0.0) & (d1 > 0.0) | (d0 == 0.0);
        // intersection angle between the two segments, in [0, π)
        angles[kept] = (ai - aj).abs();
        kept += usize::from(meets);
        d0 = d1;
    }
    kept
}

impl FunctionalOutlierScorer for Funta {
    fn name(&self) -> &'static str {
        if self.trim > 0.0 {
            "rfunta"
        } else {
            "funta"
        }
    }

    fn snapshot(&self) -> Option<crate::DepthScorerSnapshot> {
        Some(crate::DepthScorerSnapshot::Funta { trim: self.trim })
    }

    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>> {
        self.score_on(par::global(), data)
    }

    fn score_against(
        &self,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<Vec<f64>> {
        self.score_against_on(par::global(), reference, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bundle of gently crossing lines (slopes near 1 through a common
    /// pivot) plus one steeply descending crosser.
    fn crossing_bundle() -> GriddedDataSet {
        let m = 21;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut curves = Vec::new();
        for i in 0..8 {
            // slopes 0.86 … 1.14 pivoting around (0.5, 0.5): the inliers
            // cross each other at shallow angles
            let slope = 0.86 + i as f64 * 0.04;
            curves.push(
                grid.iter()
                    .map(|&t| 0.5 + slope * (t - 0.5))
                    .collect::<Vec<f64>>(),
            );
        }
        // steep crosser: descends through the whole bundle
        curves.push(grid.iter().map(|&t| 1.0 - 4.0 * t).collect::<Vec<f64>>());
        GriddedDataSet::from_univariate(grid, curves).unwrap()
    }

    #[test]
    fn steep_crosser_is_most_outlying() {
        let d = crossing_bundle();
        let s = Funta::new().score(&d).unwrap();
        let max_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 8, "{s:?}");
        // outlyingness is in [0, 1]
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // inliers cross each other at shallow angles: their scores must be
        // clearly below the crosser's
        for i in 0..8 {
            assert!(s[i] < s[8] * 0.8, "inlier {i} score {} vs {}", s[i], s[8]);
        }
    }

    #[test]
    fn parallel_curves_have_zero_outlyingness() {
        // Curves that never cross produce no angles at all.
        let grid: Vec<f64> = (0..10).map(|j| j as f64).collect();
        let curves: Vec<Vec<f64>> = (0..5)
            .map(|i| grid.iter().map(|&t| t + i as f64).collect())
            .collect();
        let d = GriddedDataSet::from_univariate(grid, curves).unwrap();
        let s = Funta::new().score(&d).unwrap();
        assert!(s.iter().all(|&v| v == 0.0), "{s:?}");
    }

    #[test]
    fn identical_slopes_crossing_at_zero_angle() {
        // Two identical-slope curves that touch: the angle is zero.
        let grid = vec![0.0, 1.0, 2.0];
        let c1 = vec![0.0, 1.0, 2.0];
        let c2 = vec![0.0, 1.0, 2.0]; // identical curve: d0 == 0 everywhere
        let d = GriddedDataSet::from_univariate(grid, vec![c1, c2]).unwrap();
        let s = Funta::new().score(&d).unwrap();
        assert!(s.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn shape_outlier_in_sine_bundle() {
        // Phase-inverted sine among in-phase sines: a persistent shape
        // outlier that FUNTA is designed to catch.
        let m = 50;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut curves: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                let a = 1.0 + i as f64 * 0.02;
                grid.iter()
                    .map(|&t| a * (std::f64::consts::TAU * t).sin())
                    .collect()
            })
            .collect();
        curves.push(
            grid.iter()
                .map(|&t| -(std::f64::consts::TAU * t).sin())
                .collect(),
        );
        let d = GriddedDataSet::from_univariate(grid, curves).unwrap();
        let s = Funta::new().score(&d).unwrap();
        let max_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 9, "{s:?}");
    }

    #[test]
    fn multichannel_averages_channels() {
        use mfod_linalg::Matrix;
        let grid = vec![0.0, 0.5, 1.0];
        // channel 0: curves cross; channel 1: all identical (no angles)
        let s1 = Matrix::from_rows(&[&[0.0, 5.0], &[0.5, 5.0], &[1.0, 5.0]]);
        let s2 = Matrix::from_rows(&[&[1.0, 5.0], &[0.5, 5.0], &[0.0, 5.0]]);
        let d = GriddedDataSet::new(grid, vec![s1, s2]).unwrap();
        let s = Funta::new().score(&d).unwrap();
        // channel 0 angle: |atan(1) - atan(-1)| / π = (π/2)/π = 0.5, halved
        // by the flat channel's zero
        assert!((s[0] - 0.25).abs() < 1e-12, "{s:?}");
        assert!((s[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn robust_variant_trims_extremes() {
        let d = crossing_bundle();
        let plain = Funta::new().score(&d).unwrap();
        let robust = Funta::robust(0.2).unwrap().score(&d).unwrap();
        assert_eq!(plain.len(), robust.len());
        // trimming must not create scores outside [0, 1]
        assert!(robust.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(Funta::robust(0.5).is_err());
        assert!(Funta::robust(-0.1).is_err());
        assert_eq!(Funta::new().name(), "funta");
        assert_eq!(Funta::robust(0.1).unwrap().name(), "rfunta");
    }

    /// The pairwise formulas as they stood before the slope tables: two
    /// `atan`s per crossing, sequential over curves.
    mod reference {
        use crate::dataset::GriddedDataSet;
        use mfod_linalg::Matrix;

        fn angles_between(grid: &[f64], xi: &Matrix, xj: &Matrix, k: usize, out: &mut Vec<f64>) {
            for l in 0..grid.len() - 1 {
                let d0 = xi[(l, k)] - xj[(l, k)];
                let d1 = xi[(l + 1, k)] - xj[(l + 1, k)];
                let crosses = (d0 > 0.0 && d1 < 0.0) || (d0 < 0.0 && d1 > 0.0) || d0 == 0.0;
                if !crosses {
                    continue;
                }
                let dt = grid[l + 1] - grid[l];
                let slope_i = (xi[(l + 1, k)] - xi[(l, k)]) / dt;
                let slope_j = (xj[(l + 1, k)] - xj[(l, k)]) / dt;
                let gamma = (slope_i.atan() - slope_j.atan()).abs();
                out.push(gamma / std::f64::consts::PI);
            }
        }

        fn aggregate(trim: f64, mut angles: Vec<f64>) -> f64 {
            if angles.is_empty() {
                return 0.0;
            }
            if trim > 0.0 {
                angles.sort_by(|a, b| a.total_cmp(b));
                let cut = ((angles.len() as f64) * trim).floor() as usize;
                if angles.len() > 2 * cut {
                    angles = angles[cut..angles.len() - cut].to_vec();
                }
            }
            angles.iter().sum::<f64>() / angles.len() as f64
        }

        pub fn score(trim: f64, data: &GriddedDataSet) -> Vec<f64> {
            (0..data.n())
                .map(|i| {
                    let mut total = 0.0;
                    for k in 0..data.dim() {
                        let mut angles = Vec::new();
                        for j in (0..data.n()).filter(|&j| j != i) {
                            angles_between(
                                data.grid(),
                                data.sample(i),
                                data.sample(j),
                                k,
                                &mut angles,
                            );
                        }
                        total += aggregate(trim, angles);
                    }
                    total / data.dim() as f64
                })
                .collect()
        }

        pub fn score_against(
            trim: f64,
            reference: &GriddedDataSet,
            queries: &GriddedDataSet,
        ) -> Vec<f64> {
            (0..queries.n())
                .map(|i| {
                    let mut total = 0.0;
                    for k in 0..queries.dim() {
                        let mut angles = Vec::new();
                        for j in 0..reference.n() {
                            angles_between(
                                queries.grid(),
                                queries.sample(i),
                                reference.sample(j),
                                k,
                                &mut angles,
                            );
                        }
                        total += aggregate(trim, angles);
                    }
                    total / queries.dim() as f64
                })
                .collect()
        }
    }

    /// Two-channel wiggly curves on an uneven grid (offset by `shift`),
    /// with a duplicated curve so exact touches (`d0 == 0`) occur too.
    fn wiggly(n: usize, m: usize, seed: u64, shift: f64) -> GriddedDataSet {
        use mfod_linalg::Matrix;
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let grid: Vec<f64> = (0..m)
            .map(|j| shift + j as f64 + 0.3 * (j as f64).sin())
            .collect();
        let mut samples: Vec<Matrix> = (0..n)
            .map(|i| {
                let (phase, amp) = (next() * 3.0, 1.0 + next());
                let mut s = Matrix::zeros(m, 2);
                for j in 0..m {
                    let t = j as f64 / m as f64;
                    s[(j, 0)] = amp * (std::f64::consts::TAU * t + phase).sin() + 0.2 * next();
                    s[(j, 1)] = (i as f64 * 0.1 - 0.5) * t + 0.3 * next();
                }
                s
            })
            .collect();
        samples[n - 1] = samples[0].clone();
        GriddedDataSet::new(grid, samples).unwrap()
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn slope_tables_match_the_pairwise_formula_bit_for_bit() {
        let data = wiggly(23, 31, 7, 0.0);
        let reference_set = wiggly(17, 31, 11, 0.0);
        // same length, different grid: segment widths come from the queries
        let queries = wiggly(9, 31, 13, 2.5);
        for scorer in [Funta::new(), Funta::robust(0.2).unwrap()] {
            let joint = reference::score(scorer.trim, &data);
            let against = reference::score_against(scorer.trim, &reference_set, &queries);
            for threads in [1usize, 8] {
                let pool = par::Pool::with_threads(threads);
                let what = format!("{} on {threads} threads", scorer.name());
                assert_bits(&scorer.score_on(&pool, &data).unwrap(), &joint, &what);
                assert_bits(
                    &scorer
                        .score_against_on(&pool, &reference_set, &queries)
                        .unwrap(),
                    &against,
                    &format!("{what}, against"),
                );
            }
            assert_bits(&scorer.score(&data).unwrap(), &joint, "global pool");
            assert_bits(
                &scorer.score_against(&reference_set, &queries).unwrap(),
                &against,
                "global pool, against",
            );
        }
    }

    /// Curves on a lattice grid with lattice values, so exact touches
    /// (`d0 == 0`) and equal slopes are common.
    fn lattice(
        n: usize,
        dim: usize,
        grid: &[f64],
    ) -> impl proptest::strategy::Strategy<Value = GriddedDataSet> {
        use proptest::prelude::*;
        let (m, grid) = (grid.len(), grid.to_vec());
        prop::collection::vec(-3i32..=3, n * m * dim).prop_map(move |levels| {
            let samples = levels
                .chunks_exact(m * dim)
                .map(|curve| {
                    let values = curve.iter().map(|&l| f64::from(l) / 2.0).collect();
                    mfod_linalg::Matrix::from_vec(m, dim, values)
                })
                .collect();
            GriddedDataSet::new(grid.clone(), samples).unwrap()
        })
    }

    /// A joint set, a reference set and a query set sharing `m` and the
    /// channel count; the query grid is uneven and differs from the others.
    fn touching_sets(
    ) -> impl proptest::strategy::Strategy<Value = (GriddedDataSet, GriddedDataSet, GriddedDataSet, f64)>
    {
        use proptest::prelude::*;
        (2usize..=9, 1usize..=9, 2usize..=14, 1usize..=2).prop_flat_map(|(n, n_q, m, dim)| {
            let even: Vec<f64> = (0..m).map(|j| j as f64).collect();
            let uneven: Vec<f64> = (0..m).map(|j| j as f64 + 0.25 * (j % 3) as f64).collect();
            (
                lattice(n, dim, &even),
                lattice(n, dim, &even),
                lattice(n_q, dim, &uneven),
                prop::sample::select(vec![0.0, 0.1, 0.25, 0.4]),
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn branch_free_scan_matches_the_pairwise_formula_with_exact_touches(
            (data, reference_set, queries, trim) in touching_sets()
        ) {
            let scorer = Funta { trim };
            let joint = reference::score(trim, &data);
            let against = reference::score_against(trim, &reference_set, &queries);
            for threads in [1usize, 8] {
                let pool = par::Pool::with_threads(threads);
                let what = format!("trim {trim} on {threads} threads");
                assert_bits(&scorer.score_on(&pool, &data).unwrap(), &joint, &what);
                assert_bits(
                    &scorer.score_against_on(&pool, &reference_set, &queries).unwrap(),
                    &against,
                    &format!("{what}, against"),
                );
            }
        }
    }

    /// `|atan(a) − atan(b)| / π`: the normalized intersection angle of two
    /// segments with slopes `a` and `b`.
    fn angle(a: f64, b: f64) -> f64 {
        (a.atan() - b.atan()).abs() / std::f64::consts::PI
    }

    #[test]
    fn outlyingness_is_the_mean_normalized_angle_averaged_over_channels() {
        use mfod_linalg::Matrix;
        let grid = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        // Straight lines, so each pair meets at most once. Channel 0:
        // c0 = 0, c1 = t − 2.5 and c2 = 3 − 2t (slopes 0, 1, −2) cross
        // pairwise inside segments. Channel 1: c0 = t and c2 = 4 − t
        // touch at t = 2, a grid point, counted once; c1 = t + 10 meets
        // neither and contributes no angle.
        let curve = |ch0: fn(f64) -> f64, ch1: fn(f64) -> f64| {
            let rows: Vec<[f64; 2]> = grid.iter().map(|&t| [ch0(t), ch1(t)]).collect();
            Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>())
        };
        let samples = vec![
            curve(|_| 0.0, |t| t),
            curve(|t| t - 2.5, |t| t + 10.0),
            curve(|t| 3.0 - 2.0 * t, |t| 4.0 - t),
        ];
        let data = GriddedDataSet::new(grid, samples).unwrap();
        // per channel: the mean of the curve's normalized angles, or 0
        // without any; then the mean over the two channels
        let channel0 = [
            (angle(0.0, 1.0) + angle(0.0, -2.0)) / 2.0,
            (angle(1.0, 0.0) + angle(1.0, -2.0)) / 2.0,
            (angle(-2.0, 0.0) + angle(-2.0, 1.0)) / 2.0,
        ];
        let channel1 = [angle(1.0, -1.0), 0.0, angle(-1.0, 1.0)];
        let s = Funta::new().score(&data).unwrap();
        for i in 0..3 {
            let want = (channel0[i] + channel1[i]) / 2.0;
            assert!((s[i] - want).abs() < 1e-15, "curve {i}: {} vs {want}", s[i]);
        }
        // by hand: c0 = (0.3012 + 0.5) / 2, c1 = 0.4262 / 2, c2 = (0.4774 + 0.5) / 2
        assert!((s[0] - 0.4006).abs() < 1e-4, "{s:?}");
        assert!((s[1] - 0.2131).abs() < 1e-4, "{s:?}");
        assert!((s[2] - 0.4887).abs() < 1e-4, "{s:?}");
    }

    #[test]
    fn amplitude_scaled_curve_meeting_the_bundle_at_shared_zeros_ranks_deepest() {
        // A triangle wave with exact zeros at t = 0, 1/2 and 1, wiggled by
        // ±δ between the zeros: the bundle members cross each other in
        // six of the eight segments. Three times the wave lies outside the
        // bundle except at the zeros, so it meets each member only there,
        // at the left ends of segments 0 and 4.
        let grid: Vec<f64> = (0..9).map(|j| j as f64 / 8.0).collect();
        let wave = [0.0, 1.0, 2.0, 1.0, 0.0, -1.0, -2.0, -1.0, 0.0];
        let wiggle = [0.0, 1.0, -1.0, 1.0, 0.0, -1.0, 1.0, -1.0, 0.0];
        let deltas = [-0.6, -0.2, 0.2, 0.6];
        let mut curves: Vec<Vec<f64>> = deltas
            .iter()
            .map(|d| wave.iter().zip(&wiggle).map(|(v, w)| v + d * w).collect())
            .collect();
        curves.push(wave.iter().map(|v| 3.0 * v).collect());
        let data = GriddedDataSet::from_univariate(grid, curves).unwrap();
        let s = Funta::new().score(&data).unwrap();
        // Its only angles: slope ±24 against the member's ±8(1 + δ), the
        // same at both zeros.
        let want = deltas
            .iter()
            .map(|d| angle(24.0, 8.0 * (1.0 + d)))
            .sum::<f64>()
            / 4.0;
        assert!((s[4] - want).abs() < 1e-12, "{} vs {want}", s[4]);
        assert!((s[4] - 0.0376).abs() < 1e-4, "{s:?}");
        // FUNTA averages the angles at the crossings a curve has, not how
        // often or where it crosses: the amplitude outlier scores as the
        // deepest curve of the set, below every member it dwarfs.
        for (i, member) in s[..4].iter().enumerate() {
            assert!(*member > 4.0 * s[4], "member {i}: {member} vs {}", s[4]);
        }
    }

    #[test]
    fn needs_two_samples() {
        let grid = vec![0.0, 1.0];
        let d = GriddedDataSet::from_univariate(grid, vec![vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            Funta::new().score(&d),
            Err(DepthError::TooFewSamples { .. })
        ));
    }
}
