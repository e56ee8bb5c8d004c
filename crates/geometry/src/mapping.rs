//! The [`MappingFunction`] trait: geometric aggregation of a `p`-channel
//! functional datum into a univariate functional datum sampled on a grid,
//! and [`PathDerivatives`], the derivative values every mapping reads.

use crate::{GeometryError, Result};
use mfod_fda::{Grid, MultiFunctionalDatum};
use mfod_linalg::{vector, Matrix};
use std::ops::RangeInclusive;

/// Numerical floor below which a velocity is treated as zero (stationary
/// point convention; see [`crate::curvature::Curvature`]).
pub const SPEED_EPS: f64 = 1e-10;

/// The derivatives of a path `X : T → R^p` on a grid, one `m × p` matrix
/// per order: row `j` of order `d` is `D^d X(t_j)`.
///
/// The values are the analytic derivatives of the basis expansion (Eq. 2
/// of the paper), so a mapping is a formula over them.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDerivatives {
    grid: Grid,
    dim: usize,
    orders: RangeInclusive<usize>,
    values: Vec<Matrix>,
}

impl PathDerivatives {
    /// Evaluates the derivative orders `orders` of `datum` on `grid`,
    /// through [`MultiFunctionalDatum::eval_grid_deriv`].
    pub fn evaluate(
        datum: &MultiFunctionalDatum,
        grid: &Grid,
        orders: RangeInclusive<usize>,
    ) -> Self {
        PathDerivatives {
            grid: grid.clone(),
            dim: datum.dim(),
            values: orders
                .clone()
                .map(|d| datum.eval_grid_deriv(grid, d))
                .collect(),
            orders,
        }
    }

    /// Wraps given values: `values[i]` holds order `first_order + i`.
    ///
    /// Every matrix must have one row per grid point and the same number
    /// `p >= 1` of columns; otherwise the error is
    /// [`GeometryError::DerivativesMismatch`].
    pub fn new(grid: Grid, first_order: usize, values: Vec<Matrix>) -> Result<Self> {
        let mismatch = |what: String| Err(GeometryError::DerivativesMismatch(what));
        let Some(first) = values.first() else {
            return mismatch("no derivative order given".into());
        };
        let dim = first.ncols();
        if dim == 0 {
            return mismatch("the path has no channel".into());
        }
        for (i, v) in values.iter().enumerate() {
            if v.shape() != (grid.len(), dim) {
                return mismatch(format!(
                    "order {} is {:?}, expected {:?}",
                    first_order.saturating_add(i),
                    v.shape(),
                    (grid.len(), dim)
                ));
            }
        }
        let Some(last_order) = first_order.checked_add(values.len() - 1) else {
            return mismatch(format!("order {first_order} + {} overflows", values.len()));
        };
        Ok(PathDerivatives {
            grid,
            dim,
            orders: first_order..=last_order,
            values,
        })
    }

    /// The evaluation grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The path dimension `p`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The derivative orders held.
    pub fn orders(&self) -> RangeInclusive<usize> {
        self.orders.clone()
    }

    /// The `m × p` values of order `d`.
    ///
    /// # Panics
    /// Panics if order `d` is not held.
    pub fn order(&self, d: usize) -> &Matrix {
        assert!(
            self.orders.contains(&d),
            "order {d} outside the held orders {:?}",
            self.orders
        );
        &self.values[d - self.orders.start()]
    }

    /// The rows `D^d X(t_j)` of order `d`, in grid order.
    ///
    /// # Panics
    /// Panics if order `d` is not held.
    pub fn rows(&self, d: usize) -> impl Iterator<Item = &[f64]> {
        let values = self.order(d);
        (0..values.nrows()).map(move |j| values.row(j))
    }
}

/// A geometric aggregation function: maps a multivariate functional datum
/// `X : T → R^p` to a univariate functional datum evaluated on a grid.
///
/// A mapping is a formula over the analytic derivatives of the smoothed
/// path ([`PathDerivatives`]), so the quality of the mapped curve is
/// inherited from the smoothing step — this is why the paper insists on
/// the functional approximation (Sec. 2) before the mapping (Sec. 3).
/// Implementations provide the formula; [`MappingFunction::map`] and
/// [`MappingFunction::map_derivatives`] evaluate and check around it.
pub trait MappingFunction: Send + Sync {
    /// Short identifier used in experiment reports (e.g. `"curvature"`).
    fn name(&self) -> &'static str;

    /// Smallest path dimension `p` the mapping supports.
    fn min_dim(&self) -> usize {
        1
    }

    /// Largest path dimension supported (`usize::MAX` when unconstrained).
    fn max_dim(&self) -> usize {
        usize::MAX
    }

    /// The derivative orders the formula reads (curvature: `1..=2`).
    fn orders(&self) -> RangeInclusive<usize>;

    /// The formula: the mapped value at every grid point of `d`. It may
    /// assume what [`MappingFunction::map_derivatives`] checks: a
    /// supported dimension and every order of
    /// [`MappingFunction::orders`] present.
    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>>;

    /// The concrete snapshot form of this mapping, when it supports
    /// persistence (see `mfod-persist`).
    ///
    /// The default is `None`: a custom mapping cannot be written into a
    /// model snapshot until it opts in, surfaced as a typed error at
    /// snapshot time ([`crate::snapshot::snapshot_mapping`]). An
    /// implementation must guarantee that restoring the returned snapshot
    /// yields a mapping that computes **bit-identically** to `self`.
    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        None
    }

    /// Validates a path dimension against `min_dim`/`max_dim`.
    fn check_dim(&self, p: usize) -> Result<()> {
        if p < self.min_dim() || p > self.max_dim() {
            return Err(GeometryError::DimensionUnsupported {
                mapping: self.name(),
                need: self.min_dim(),
                got: p,
            });
        }
        Ok(())
    }

    /// Applies the formula to given derivative values: checks the
    /// dimension and the held orders, runs
    /// [`MappingFunction::formula`] and rejects a non-finite
    /// result with [`GeometryError::NonFinite`].
    fn map_derivatives(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        self.check_dim(d.dim())?;
        let (need, held) = (self.orders(), d.orders());
        if need.start() < held.start() || need.end() > held.end() {
            return Err(GeometryError::DerivativesMismatch(format!(
                "mapping {} reads orders {need:?}, the values hold {held:?}",
                self.name()
            )));
        }
        let out = self.formula(d)?;
        if !vector::all_finite(&out) {
            return Err(GeometryError::NonFinite);
        }
        Ok(out)
    }

    /// Evaluates the mapped univariate function at every grid point: the
    /// orders the formula reads, then [`MappingFunction::map_derivatives`].
    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.map_derivatives(&PathDerivatives::evaluate(datum, grid, self.orders()))
    }
}

/// Closed-form derivative values for the unit tests.
#[cfg(test)]
pub(crate) mod closed_form {
    use super::PathDerivatives;
    use mfod_fda::Grid;
    use mfod_linalg::Matrix;

    /// Orders `0..=3` of the path whose `d`-th derivative at `t` is `f(t, d)`.
    pub fn path(grid: &Grid, f: impl Fn(f64, usize) -> Vec<f64>) -> PathDerivatives {
        let values = (0..=3)
            .map(|d| {
                let rows: Vec<Vec<f64>> = grid.iter().map(|t| f(t, d)).collect();
                Matrix::from_fn(grid.len(), rows[0].len(), |j, k| rows[j][k])
            })
            .collect();
        PathDerivatives::new(grid.clone(), 0, values).unwrap()
    }

    /// `D^d (r cos ωt, r sin ωt) = r ωᵈ (cos(ωt + dπ/2), sin(ωt + dπ/2))`.
    fn rotating(r: f64, omega: f64, t: f64, d: usize) -> [f64; 2] {
        let phase = omega * t + d as f64 * std::f64::consts::FRAC_PI_2;
        let scale = r * omega.powi(d as i32);
        [scale * phase.cos(), scale * phase.sin()]
    }

    /// The circle of radius `r` traversed once on `[0, 1]`.
    pub fn circle(r: f64, grid: &Grid) -> PathDerivatives {
        path(grid, |t, d| {
            rotating(r, std::f64::consts::TAU, t, d).to_vec()
        })
    }

    /// The helix `(r cos ωt, r sin ωt, ct)`.
    pub fn helix(r: f64, omega: f64, c: f64, grid: &Grid) -> PathDerivatives {
        path(grid, |t, d| {
            let [x, y] = rotating(r, omega, t, d);
            let z = match d {
                0 => c * t,
                1 => c,
                _ => 0.0,
            };
            vec![x, y, z]
        })
    }

    /// The line `X(t) = origin + t · velocity`.
    pub fn line(origin: &[f64], velocity: &[f64], grid: &Grid) -> PathDerivatives {
        path(grid, |t, d| match d {
            0 => origin
                .iter()
                .zip(velocity)
                .map(|(o, v)| o + t * v)
                .collect(),
            1 => velocity.to_vec(),
            _ => vec![0.0; velocity.len()],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    struct FirstChannel;
    impl MappingFunction for FirstChannel {
        fn name(&self) -> &'static str {
            "first-channel"
        }
        fn orders(&self) -> RangeInclusive<usize> {
            0..=0
        }
        fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
            Ok(d.order(0).col(0))
        }
        fn min_dim(&self) -> usize {
            2
        }
    }

    /// Orders `first_order ..` of a path whose `m × p` values are all 1.
    fn constant(m: usize, p: usize, first_order: usize, orders: usize) -> PathDerivatives {
        let grid = Grid::uniform(0.0, 1.0, m).unwrap();
        let values = (0..orders).map(|_| Matrix::filled(m, p, 1.0)).collect();
        PathDerivatives::new(grid, first_order, values).unwrap()
    }

    #[test]
    fn check_dim_enforced() {
        let m = FirstChannel;
        assert!(matches!(
            m.map_derivatives(&constant(5, 1, 0, 1)),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
        let v = m.map_derivatives(&constant(5, 2, 0, 1)).unwrap();
        assert_eq!(v, vec![1.0; 5]);
    }

    #[test]
    fn new_rejects_mismatched_shapes() {
        let grid = Grid::uniform(0.0, 1.0, 4).unwrap();
        let bad = |values: Vec<Matrix>| {
            matches!(
                PathDerivatives::new(grid.clone(), 1, values),
                Err(GeometryError::DerivativesMismatch(_))
            )
        };
        assert!(bad(vec![]));
        assert!(bad(vec![Matrix::zeros(4, 0)]));
        assert!(bad(vec![Matrix::zeros(3, 2)]));
        assert!(bad(vec![Matrix::zeros(4, 2), Matrix::zeros(4, 3)]));
        assert!(matches!(
            PathDerivatives::new(grid.clone(), usize::MAX, vec![Matrix::zeros(4, 2); 2]),
            Err(GeometryError::DerivativesMismatch(_))
        ));
        let d = PathDerivatives::new(grid, 1, vec![Matrix::zeros(4, 2); 2]).unwrap();
        assert_eq!((d.dim(), d.orders()), (2, 1..=2));
        assert_eq!(d.rows(2).count(), 4);
    }

    #[test]
    fn missing_orders_are_typed() {
        // curvature reads 1..=2; values holding only order 1 are refused
        assert!(matches!(
            Curvature.map_derivatives(&constant(5, 2, 1, 1)),
            Err(GeometryError::DerivativesMismatch(_))
        ));
        assert!(matches!(
            Torsion.map_derivatives(&constant(5, 3, 2, 2)),
            Err(GeometryError::DerivativesMismatch(_))
        ));
    }

    /// Every shipped mapping, with a path dimension it supports.
    fn every_mapping() -> Vec<(Box<dyn MappingFunction>, usize)> {
        vec![
            (Box::new(Curvature), 2),
            (Box::new(CurvatureEq5), 2),
            (Box::new(RadiusOfCurvature), 2),
            (Box::new(Speed), 2),
            (Box::new(LogSpeed), 2),
            (Box::new(ArcLength), 2),
            (Box::new(Acceleration), 2),
            (Box::new(SrvfNorm), 2),
            (Box::new(TurningAngle), 2),
            (Box::new(Torsion), 3),
            (Box::new(ComponentMapping::value(0)), 2),
            (Box::new(ComponentMapping::derivative(1, 2)), 2),
        ]
    }

    #[test]
    fn a_nan_value_is_non_finite_for_every_mapping() {
        let grid = Grid::uniform(0.0, 1.0, 6).unwrap();
        for (mapping, p) in every_mapping() {
            let orders = mapping.orders();
            let values = orders
                .clone()
                .map(|d| {
                    // a curved, moving path with one NaN row
                    let mut v = Matrix::from_fn(6, p, |j, k| (j + k + d) as f64 + 1.0);
                    v.row_mut(3).fill(f64::NAN);
                    v
                })
                .collect();
            let d = PathDerivatives::new(grid.clone(), *orders.start(), values).unwrap();
            assert_eq!(
                mapping.map_derivatives(&d),
                Err(GeometryError::NonFinite),
                "{}",
                mapping.name()
            );
        }
    }

    #[test]
    fn torsion_rejects_a_planar_path() {
        assert!(matches!(
            Torsion.map_derivatives(&constant(5, 2, 1, 3)),
            Err(GeometryError::DimensionUnsupported {
                need: 3,
                got: 2,
                ..
            })
        ));
    }
}
