//! Strictly increasing evaluation grids over a closed interval.

use crate::error::FdaError;
use crate::Result;

/// A strictly increasing set of abscissae `t_1 < t_2 < … < t_m`.
///
/// The paper evaluates every reconstructed sample on "the same regular grid
/// of `T`" (Sec. 4.1); [`Grid::uniform`] builds exactly that. Non-uniform
/// grids are supported because the functional representation makes no
/// assumption on the distribution of the measurement points (Sec. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    points: Vec<f64>,
}

impl Grid {
    /// Builds a grid from explicit points, validating strict monotonicity
    /// and finiteness.
    pub fn new(points: Vec<f64>) -> Result<Self> {
        if points.len() < 2 {
            return Err(FdaError::TooFewPoints {
                got: points.len(),
                need: 2,
            });
        }
        if !points.iter().all(|v| v.is_finite()) {
            return Err(FdaError::NonFinite);
        }
        for w in points.windows(2) {
            if w[0] >= w[1] {
                return Err(FdaError::InvalidAbscissae(format!(
                    "grid must be strictly increasing, found {} >= {}",
                    w[0], w[1]
                )));
            }
        }
        Ok(Grid { points })
    }

    /// Builds a uniform grid of `m >= 2` points spanning `[a, b]` inclusive.
    pub fn uniform(a: f64, b: f64, m: usize) -> Result<Self> {
        if !(a.is_finite() && b.is_finite()) {
            return Err(FdaError::NonFinite);
        }
        if a >= b {
            return Err(FdaError::InvalidDomain { a, b });
        }
        if m < 2 {
            return Err(FdaError::TooFewPoints { got: m, need: 2 });
        }
        let step = (b - a) / (m - 1) as f64;
        let mut points: Vec<f64> = (0..m).map(|j| a + step * j as f64).collect();
        // guard against rounding drift on the right endpoint
        points[m - 1] = b;
        Ok(Grid { points })
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: grids have at least two points by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrow the points.
    #[inline]
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Left endpoint.
    #[inline]
    pub fn start(&self) -> f64 {
        self.points[0]
    }

    /// Right endpoint.
    #[inline]
    pub fn end(&self) -> f64 {
        *self.points.last().expect("grid is non-empty")
    }

    /// `(start, end)` pair.
    #[inline]
    pub fn domain(&self) -> (f64, f64) {
        (self.start(), self.end())
    }

    /// Iterator over the points.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, f64>> {
        self.points.iter().copied()
    }
}

impl AsRef<[f64]> for Grid {
    fn as_ref(&self) -> &[f64] {
        &self.points
    }
}

impl<'a> IntoIterator for &'a Grid {
    type Item = f64;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, f64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_endpoints_exact() {
        let g = Grid::uniform(0.0, 1.0, 85).unwrap();
        assert_eq!(g.len(), 85);
        assert_eq!(g.start(), 0.0);
        assert_eq!(g.end(), 1.0);
        assert_eq!(g.domain(), (0.0, 1.0));
    }

    #[test]
    fn uniform_spacing() {
        let g = Grid::uniform(0.0, 2.0, 5).unwrap();
        assert_eq!(g.points(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Grid::uniform(1.0, 1.0, 5),
            Err(FdaError::InvalidDomain { .. })
        ));
        assert!(matches!(
            Grid::uniform(2.0, 1.0, 5),
            Err(FdaError::InvalidDomain { .. })
        ));
        assert!(matches!(
            Grid::uniform(0.0, 1.0, 1),
            Err(FdaError::TooFewPoints { .. })
        ));
        assert!(matches!(
            Grid::uniform(f64::NAN, 1.0, 5),
            Err(FdaError::NonFinite)
        ));
    }

    #[test]
    fn new_validates_monotonicity() {
        assert!(Grid::new(vec![0.0, 0.5, 0.5, 1.0]).is_err());
        assert!(Grid::new(vec![0.0, -0.5]).is_err());
        assert!(Grid::new(vec![0.0, f64::NAN]).is_err());
        assert!(Grid::new(vec![0.0]).is_err());
        assert!(Grid::new(vec![0.0, 0.3, 0.9]).is_ok());
    }

    #[test]
    fn iteration() {
        let g = Grid::uniform(0.0, 1.0, 3).unwrap();
        let v: Vec<f64> = (&g).into_iter().collect();
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
        assert!(!g.is_empty());
    }
}
