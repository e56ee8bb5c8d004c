//! Component extraction "mappings": project a single channel (or a channel
//! derivative) back out of the MFD. These serve as ablation baselines — the
//! degenerate aggregation that ignores cross-channel geometry.

use crate::mapping::{MappingFunction, PathDerivatives};
use crate::{GeometryError, Result};
use std::ops::RangeInclusive;

/// Extracts channel `channel`'s `deriv`-th derivative evaluated on the grid.
///
/// With `deriv = 0` this is the identity representation of one channel; it
/// deliberately discards all cross-channel structure, which is exactly what
/// the geometric mappings are designed to keep — making this the natural
/// control condition in the mapping ablation (experiment A1).
#[derive(Debug, Clone, Copy)]
pub struct ComponentMapping {
    channel: usize,
    deriv: usize,
}

impl ComponentMapping {
    /// Mapping that evaluates channel `channel` itself.
    pub fn value(channel: usize) -> Self {
        ComponentMapping { channel, deriv: 0 }
    }

    /// Mapping that evaluates the `deriv`-th derivative of `channel`.
    pub fn derivative(channel: usize, deriv: usize) -> Self {
        ComponentMapping { channel, deriv }
    }

    /// The extracted channel index.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The derivative order.
    pub fn deriv(&self) -> usize {
        self.deriv
    }
}

impl MappingFunction for ComponentMapping {
    fn name(&self) -> &'static str {
        "component"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Component {
            channel: self.channel,
            deriv: self.deriv,
        })
    }

    fn orders(&self) -> RangeInclusive<usize> {
        self.deriv..=self.deriv
    }

    fn formula(&self, d: &PathDerivatives) -> Result<Vec<f64>> {
        if self.channel >= d.dim() {
            return Err(GeometryError::ChannelOutOfRange {
                channel: self.channel,
                dim: d.dim(),
            });
        }
        Ok(d.order(self.deriv).col(self.channel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::closed_form::path;
    use mfod_fda::Grid;

    /// The path (1, t²).
    fn datum(grid: &Grid) -> PathDerivatives {
        path(grid, |t, d| match d {
            0 => vec![1.0, t * t],
            1 => vec![0.0, 2.0 * t],
            2 => vec![0.0, 2.0],
            _ => vec![0.0, 0.0],
        })
    }

    #[test]
    fn value_extraction() {
        let grid = Grid::uniform(0.0, 1.0, 3).unwrap();
        let v = ComponentMapping::value(1)
            .map_derivatives(&datum(&grid))
            .unwrap();
        assert_eq!(v.len(), 3);
        assert!((v[1] - 0.25).abs() < 1e-12);
        assert!((v[2] - 1.0).abs() < 1e-12);
        assert_eq!(ComponentMapping::value(1).channel(), 1);
        assert_eq!(ComponentMapping::value(1).deriv(), 0);
    }

    #[test]
    fn derivative_extraction() {
        let grid = Grid::uniform(0.0, 1.0, 3).unwrap();
        let m = ComponentMapping::derivative(1, 1);
        let v = m.map_derivatives(&datum(&grid)).unwrap();
        // D(t²) = 2t
        assert!((v[1] - 1.0).abs() < 1e-12);
        assert!((v[2] - 2.0).abs() < 1e-12);
        assert_eq!(m.deriv(), 1);
    }

    #[test]
    fn out_of_range_channel() {
        let grid = Grid::uniform(0.0, 1.0, 3).unwrap();
        assert!(matches!(
            ComponentMapping::value(7).map_derivatives(&datum(&grid)),
            Err(GeometryError::ChannelOutOfRange { channel: 7, dim: 2 })
        ));
    }
}
