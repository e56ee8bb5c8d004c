//! Functional data containers: raw measurements and fitted basis expansions,
//! in both univariate (UFD) and multivariate (MFD) flavors.

use crate::bspline::BSplineBasis;
use crate::error::FdaError;
use crate::grid::Grid;
use crate::Result;
use mfod_linalg::{vector, Matrix};
use std::sync::Arc;

/// Raw (possibly noisy, possibly sparse) measurements of a single channel:
/// `y_j ≈ x(t_j)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RawCurve {
    /// Measurement abscissae (strictly increasing).
    pub t: Vec<f64>,
    /// Measured values, same length as `t`.
    pub y: Vec<f64>,
}

impl RawCurve {
    /// Creates and validates a raw curve.
    pub fn new(t: Vec<f64>, y: Vec<f64>) -> Result<Self> {
        if t.len() != y.len() {
            return Err(FdaError::LengthMismatch {
                t_len: t.len(),
                y_len: y.len(),
            });
        }
        if t.len() < 2 {
            return Err(FdaError::TooFewPoints {
                got: t.len(),
                need: 2,
            });
        }
        if !vector::all_finite(&t) || !vector::all_finite(&y) {
            return Err(FdaError::NonFinite);
        }
        for w in t.windows(2) {
            if w[0] >= w[1] {
                return Err(FdaError::InvalidAbscissae(
                    "measurement abscissae must be strictly increasing".into(),
                ));
            }
        }
        Ok(RawCurve { t, y })
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Always false for validated curves.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Observation domain `[t_1, t_m]`.
    pub fn domain(&self) -> (f64, f64) {
        (self.t[0], *self.t.last().expect("non-empty"))
    }
}

/// Raw measurements of a `p`-channel multivariate functional sample sharing
/// a common set of abscissae.
///
/// The paper allows per-sample abscissae `t_{i•}` (Sec. 2); channels of one
/// sample, however, come from synchronized sensors and share them.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSample {
    /// Shared measurement abscissae (strictly increasing).
    pub t: Vec<f64>,
    /// One measurement vector per channel, each of `t.len()` values.
    pub channels: Vec<Vec<f64>>,
}

impl RawSample {
    /// Creates and validates a raw multivariate sample.
    pub fn new(t: Vec<f64>, channels: Vec<Vec<f64>>) -> Result<Self> {
        if channels.is_empty() {
            return Err(FdaError::ChannelMismatch(
                "sample must have >= 1 channel".into(),
            ));
        }
        if t.len() < 2 {
            return Err(FdaError::TooFewPoints {
                got: t.len(),
                need: 2,
            });
        }
        if !vector::all_finite(&t) {
            return Err(FdaError::NonFinite);
        }
        for w in t.windows(2) {
            if w[0] >= w[1] {
                return Err(FdaError::InvalidAbscissae(
                    "measurement abscissae must be strictly increasing".into(),
                ));
            }
        }
        for (k, c) in channels.iter().enumerate() {
            if c.len() != t.len() {
                return Err(FdaError::ChannelMismatch(format!(
                    "channel {k} has {} values but there are {} abscissae",
                    c.len(),
                    t.len()
                )));
            }
            if !vector::all_finite(c) {
                return Err(FdaError::NonFinite);
            }
        }
        Ok(RawSample { t, channels })
    }

    /// Wraps a univariate curve as a 1-channel sample.
    pub fn from_univariate(curve: RawCurve) -> Self {
        RawSample {
            t: curve.t,
            channels: vec![curve.y],
        }
    }

    /// Number of channels `p`.
    pub fn dim(&self) -> usize {
        self.channels.len()
    }

    /// Number of measurement points `m`.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Always false for validated samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Observation domain `[t_1, t_m]`.
    pub fn domain(&self) -> (f64, f64) {
        (self.t[0], *self.t.last().expect("non-empty"))
    }

    /// Returns a new sample with an extra channel derived point-wise from an
    /// existing one — e.g. the paper's UFD → MFD augmentation that appends
    /// the squared series (Sec. 4.1):
    ///
    /// ```
    /// # use mfod_fda::datum::{RawCurve, RawSample};
    /// let s = RawSample::from_univariate(
    ///     RawCurve::new(vec![0.0, 0.5, 1.0], vec![1.0, 2.0, 3.0]).unwrap(),
    /// );
    /// let bivariate = s.augment_with(0, |y| y * y).unwrap();
    /// assert_eq!(bivariate.dim(), 2);
    /// assert_eq!(bivariate.channels[1], vec![1.0, 4.0, 9.0]);
    /// ```
    pub fn augment_with(&self, channel: usize, f: impl Fn(f64) -> f64) -> Result<Self> {
        let src = self.channels.get(channel).ok_or_else(|| {
            FdaError::ChannelMismatch(format!(
                "channel {channel} out of range (p = {})",
                self.dim()
            ))
        })?;
        let derived: Vec<f64> = src.iter().map(|&y| f(y)).collect();
        if !vector::all_finite(&derived) {
            return Err(FdaError::NonFinite);
        }
        let mut channels = self.channels.clone();
        channels.push(derived);
        Ok(RawSample {
            t: self.t.clone(),
            channels,
        })
    }

    /// Borrows channel `k` as a [`RawCurve`]-style `(t, y)` pair.
    pub fn channel(&self, k: usize) -> Option<(&[f64], &[f64])> {
        self.channels
            .get(k)
            .map(|c| (self.t.as_slice(), c.as_slice()))
    }
}

/// A fitted univariate functional datum: a B-spline expansion
/// `x̃(t) = Σ_l α_l φ_l(t)` supporting analytic derivatives of any order.
#[derive(Clone)]
pub struct FunctionalDatum {
    basis: Arc<BSplineBasis>,
    coefs: Vec<f64>,
}

impl std::fmt::Debug for FunctionalDatum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionalDatum")
            .field("order", &self.basis.order())
            .field("len", &self.coefs.len())
            .finish()
    }
}

impl FunctionalDatum {
    /// Wraps a coefficient vector over a basis.
    pub fn new(basis: Arc<BSplineBasis>, coefs: Vec<f64>) -> Result<Self> {
        if coefs.len() != basis.len() {
            return Err(FdaError::InvalidParameter(format!(
                "coefficient vector length {} != basis size {}",
                coefs.len(),
                basis.len()
            )));
        }
        if !vector::all_finite(&coefs) {
            return Err(FdaError::NonFinite);
        }
        Ok(FunctionalDatum { basis, coefs })
    }

    /// The underlying basis.
    pub fn basis(&self) -> &Arc<BSplineBasis> {
        &self.basis
    }

    /// The expansion coefficients.
    pub fn coefs(&self) -> &[f64] {
        &self.coefs
    }

    /// Domain `[a, b]` of the datum.
    pub fn domain(&self) -> (f64, f64) {
        self.basis.domain()
    }

    /// Evaluates the function at `t`.
    pub fn eval(&self, t: f64) -> f64 {
        self.eval_deriv(t, 0)
    }

    /// Evaluates the `d`-th derivative at `t` (Eq. 2 of the paper: the
    /// derivative of the expansion is the expansion of basis derivatives).
    pub fn eval_deriv(&self, t: f64, d: usize) -> f64 {
        let vals = self.basis.eval(t, d);
        vector::dot(&self.coefs, &vals)
    }
}

/// A fitted multivariate functional datum: `p` channels over a common
/// domain, viewed as a path `X(t) ∈ R^p` (the geometric standpoint of
/// Sec. 3).
#[derive(Debug, Clone)]
pub struct MultiFunctionalDatum {
    channels: Vec<FunctionalDatum>,
}

impl MultiFunctionalDatum {
    /// Bundles fitted channels; all domains must agree (within 1e-9 relative
    /// tolerance).
    pub fn new(channels: Vec<FunctionalDatum>) -> Result<Self> {
        if channels.is_empty() {
            return Err(FdaError::ChannelMismatch(
                "need at least one channel".into(),
            ));
        }
        let (a0, b0) = channels[0].domain();
        let tol = 1e-9 * (b0 - a0).abs().max(1.0);
        for (k, c) in channels.iter().enumerate().skip(1) {
            let (a, b) = c.domain();
            if (a - a0).abs() > tol || (b - b0).abs() > tol {
                return Err(FdaError::ChannelMismatch(format!(
                    "channel {k} domain [{a}, {b}] differs from [{a0}, {b0}]"
                )));
            }
        }
        Ok(MultiFunctionalDatum { channels })
    }

    /// Wraps a single channel.
    pub fn from_univariate(datum: FunctionalDatum) -> Self {
        MultiFunctionalDatum {
            channels: vec![datum],
        }
    }

    /// Number of channels `p`.
    pub fn dim(&self) -> usize {
        self.channels.len()
    }

    /// Common domain.
    pub fn domain(&self) -> (f64, f64) {
        self.channels[0].domain()
    }

    /// Borrow the channels.
    pub fn channels(&self) -> &[FunctionalDatum] {
        &self.channels
    }

    /// Evaluates on a grid into an `m x p` matrix (rows = grid points).
    pub fn eval_grid(&self, grid: &Grid) -> Matrix {
        self.eval_grid_deriv(grid, 0)
    }

    /// Evaluates the `d`-th derivative on a grid into an `m x p` matrix:
    /// row `j` is `D^d X(t_j)`, channel by channel through
    /// [`FunctionalDatum::eval_deriv`].
    pub fn eval_grid_deriv(&self, grid: &Grid, d: usize) -> Matrix {
        let mut out = Matrix::zeros(grid.len(), self.dim());
        for (j, t) in grid.iter().enumerate() {
            for (k, c) in self.channels.iter().enumerate() {
                out[(j, k)] = c.eval_deriv(t, d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The order-2, 2-function B-spline basis {1 − t, t} on [0, 1].
    fn hat_basis() -> Arc<BSplineBasis> {
        Arc::new(BSplineBasis::uniform(0.0, 1.0, 2, 2).unwrap())
    }

    fn linear_datum(slope: f64, intercept: f64) -> FunctionalDatum {
        // exact: the coefficients are the values at t = 0 and t = 1
        FunctionalDatum::new(hat_basis(), vec![intercept, intercept + slope]).unwrap()
    }

    #[test]
    fn raw_curve_validation() {
        assert!(RawCurve::new(vec![0.0, 1.0], vec![1.0, 2.0]).is_ok());
        assert!(RawCurve::new(vec![0.0], vec![1.0]).is_err());
        assert!(RawCurve::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(RawCurve::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(RawCurve::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(RawCurve::new(vec![0.0, 1.0], vec![f64::NAN, 2.0]).is_err());
        let c = RawCurve::new(vec![0.0, 0.5, 1.0], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.domain(), (0.0, 1.0));
    }

    #[test]
    fn raw_sample_validation() {
        assert!(RawSample::new(vec![0.0, 1.0], vec![]).is_err());
        assert!(RawSample::new(vec![0.0, 1.0], vec![vec![1.0]]).is_err());
        assert!(RawSample::new(vec![0.0, 1.0], vec![vec![1.0, f64::NAN]]).is_err());
        let s = RawSample::new(vec![0.0, 1.0], vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let (t, y) = s.channel(1).unwrap();
        assert_eq!(t, &[0.0, 1.0]);
        assert_eq!(y, &[3.0, 4.0]);
        assert!(s.channel(2).is_none());
    }

    #[test]
    fn augmentation_appends_squared_channel() {
        let s = RawSample::from_univariate(
            RawCurve::new(vec![0.0, 0.5, 1.0], vec![-1.0, 2.0, 3.0]).unwrap(),
        );
        let b = s.augment_with(0, |y| y * y).unwrap();
        assert_eq!(b.dim(), 2);
        assert_eq!(b.channels[1], vec![1.0, 4.0, 9.0]);
        // original untouched
        assert_eq!(s.dim(), 1);
        assert!(s.augment_with(3, |y| y).is_err());
        assert!(s.augment_with(0, |y| y.ln()).is_err()); // ln(-1) = NaN
    }

    #[test]
    fn functional_datum_eval_and_derivatives() {
        let d = linear_datum(2.0, 1.0);
        assert!((d.eval(0.25) - 1.5).abs() < 1e-12);
        assert!((d.eval_deriv(0.7, 1) - 2.0).abs() < 1e-12);
        assert_eq!(d.eval_deriv(0.7, 5), 0.0);
        assert_eq!(d.domain(), (0.0, 1.0));
        assert_eq!(d.coefs(), &[1.0, 3.0]);
    }

    #[test]
    fn functional_datum_validation() {
        let basis = hat_basis();
        assert!(FunctionalDatum::new(Arc::clone(&basis), vec![1.0]).is_err());
        assert!(FunctionalDatum::new(basis, vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn grid_evaluation() {
        let d = MultiFunctionalDatum::from_univariate(linear_datum(1.0, 0.0));
        let g = Grid::uniform(0.0, 1.0, 5).unwrap();
        assert_eq!(d.eval_grid(&g).col(0), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let dv = d.eval_grid_deriv(&g, 1).col(0);
        assert!(dv.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn multivariate_path_evaluation() {
        let mfd = MultiFunctionalDatum::new(vec![linear_datum(1.0, 0.0), linear_datum(-2.0, 1.0)])
            .unwrap();
        assert_eq!(mfd.dim(), 2);
        let g = Grid::uniform(0.0, 1.0, 3).unwrap();
        let m = mfd.eval_grid(&g);
        assert_eq!(m.shape(), (3, 2));
        assert!((m[(1, 0)] - 0.5).abs() < 1e-12);
        assert!(m[(1, 1)].abs() < 1e-12);
        assert!((m[(2, 1)] + 1.0).abs() < 1e-12);
        let dm = mfd.eval_grid_deriv(&g, 1);
        assert_eq!(dm.row(1), &[1.0, -2.0]);
    }

    #[test]
    fn multivariate_rejects_domain_mismatch() {
        let a = linear_datum(1.0, 0.0);
        let basis = Arc::new(BSplineBasis::uniform(0.0, 2.0, 2, 2).unwrap());
        let b = FunctionalDatum::new(basis, vec![0.0, 1.0]).unwrap();
        assert!(MultiFunctionalDatum::new(vec![a, b]).is_err());
        assert!(MultiFunctionalDatum::new(vec![]).is_err());
    }

    #[test]
    fn from_univariate_wrappers() {
        let d = linear_datum(1.0, 0.0);
        let mfd = MultiFunctionalDatum::from_univariate(d);
        assert_eq!(mfd.dim(), 1);
        assert_eq!(mfd.domain(), (0.0, 1.0));
    }

    #[test]
    fn bspline_backed_datum_roundtrip() {
        // Fit noiseless cubic data and check the datum evaluates closely.
        let ts: Vec<f64> = (0..30).map(|j| j as f64 / 29.0).collect();
        let ys: Vec<f64> = ts.iter().map(|t| t * t * t).collect();
        let basis = BSplineBasis::uniform(0.0, 1.0, 10, 4).unwrap();
        let fit = crate::smooth::PenalizedLeastSquares::new(basis, 0.0, 2)
            .unwrap()
            .fit(&ts, &ys)
            .unwrap();
        assert!((fit.eval(0.5) - 0.125).abs() < 1e-9);
        assert!((fit.eval_deriv(0.5, 1) - 0.75).abs() < 1e-8);
        assert!((fit.eval_deriv(0.5, 2) - 3.0).abs() < 1e-7);
    }
}
