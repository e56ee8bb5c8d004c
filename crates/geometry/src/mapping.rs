//! The [`MappingFunction`] trait: geometric aggregation of a `p`-channel
//! functional datum into a univariate functional datum sampled on a grid.

use crate::Result;
use mfod_fda::{Grid, MultiFunctionalDatum};

/// Numerical floor below which a velocity is treated as zero (stationary
/// point convention; see [`crate::curvature::Curvature`]).
pub const SPEED_EPS: f64 = 1e-10;

/// A geometric aggregation function: maps a multivariate functional datum
/// `X : T → R^p` to a univariate functional datum evaluated on a grid.
///
/// Implementations read analytic derivatives off the basis expansion, so the
/// quality of the mapped curve is inherited from the smoothing step — this
/// is why the paper insists on the functional approximation (Sec. 2) before
/// the mapping (Sec. 3).
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

    /// Evaluates the mapped univariate function at every grid point.
    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>>;

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

    /// Validates the datum dimension against `min_dim`/`max_dim`.
    fn check_dim(&self, datum: &MultiFunctionalDatum) -> Result<()> {
        let p = datum.dim();
        if p < self.min_dim() || p > self.max_dim() {
            return Err(crate::GeometryError::DimensionUnsupported {
                mapping: self.name(),
                need: self.min_dim(),
                got: p,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeometryError;
    use mfod_fda::prelude::*;
    use std::sync::Arc;

    struct FirstChannel;
    impl MappingFunction for FirstChannel {
        fn name(&self) -> &'static str {
            "first-channel"
        }
        fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
            self.check_dim(datum)?;
            Ok(datum.channels()[0].eval_grid(grid))
        }
        fn min_dim(&self) -> usize {
            2
        }
    }

    fn linear_mfd(p: usize) -> MultiFunctionalDatum {
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let channels = (0..p)
            .map(|k| {
                FunctionalDatum::new(Arc::clone(&basis), vec![k as f64, 1.0 + k as f64]).unwrap()
            })
            .collect();
        MultiFunctionalDatum::new(channels).unwrap()
    }

    #[test]
    fn check_dim_enforced() {
        let m = FirstChannel;
        let uni = linear_mfd(1);
        assert!(matches!(
            m.map(&uni, &Grid::uniform(0.0, 1.0, 5).unwrap()),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
        let bi = linear_mfd(2);
        let v = m.map(&bi, &Grid::uniform(0.0, 1.0, 5).unwrap()).unwrap();
        assert_eq!(v.len(), 5);
    }
}
