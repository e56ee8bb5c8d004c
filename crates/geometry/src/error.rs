//! Error type for geometric mapping functions.

use mfod_fda::FdaError;
use std::fmt;

/// Errors produced while computing geometric mappings.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometryError {
    /// The mapping requires a minimum path dimension the datum lacks
    /// (e.g. torsion needs `p = 3`).
    DimensionUnsupported {
        /// Name of the mapping.
        mapping: &'static str,
        /// Dimension required.
        need: usize,
        /// Dimension of the datum.
        got: usize,
    },
    /// A channel index is out of range.
    ChannelOutOfRange {
        /// Requested channel.
        channel: usize,
        /// Number of channels.
        dim: usize,
    },
    /// The mapping implementation does not support an optional capability
    /// (e.g. persistence snapshots for a custom user mapping).
    Unsupported {
        /// Name of the mapping.
        mapping: &'static str,
        /// The unsupported capability.
        what: &'static str,
    },
    /// Derivative values whose shapes disagree with the grid or with each
    /// other, or that lack an order the mapping reads.
    DerivativesMismatch(String),
    /// The mapped values are not finite (degenerate geometry not covered by
    /// the documented conventions).
    NonFinite,
    /// The underlying functional representation failed.
    Fda(FdaError),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::DimensionUnsupported { mapping, need, got } => {
                write!(
                    f,
                    "mapping {mapping} needs dimension {need}, datum has {got}"
                )
            }
            GeometryError::ChannelOutOfRange { channel, dim } => {
                write!(f, "channel {channel} out of range for p = {dim}")
            }
            GeometryError::Unsupported { mapping, what } => {
                write!(f, "mapping {mapping} does not support {what}")
            }
            GeometryError::DerivativesMismatch(what) => {
                write!(f, "derivative values do not fit: {what}")
            }
            GeometryError::NonFinite => write!(f, "mapping produced non-finite values"),
            GeometryError::Fda(e) => write!(f, "functional representation failure: {e}"),
        }
    }
}

impl std::error::Error for GeometryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GeometryError::Fda(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FdaError> for GeometryError {
    fn from(e: FdaError) -> Self {
        GeometryError::Fda(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = GeometryError::DimensionUnsupported {
            mapping: "torsion",
            need: 3,
            got: 2,
        };
        assert!(e.to_string().contains("torsion"));
        let e = GeometryError::ChannelOutOfRange { channel: 5, dim: 2 };
        assert!(e.to_string().contains('5'));
        let e = GeometryError::Unsupported {
            mapping: "custom",
            what: "snapshots",
        };
        assert!(e.to_string().contains("snapshots"));
        let e = GeometryError::DerivativesMismatch("order 3 is (4, 2)".into());
        assert!(e.to_string().contains("order 3"));
        let e: GeometryError = FdaError::NonFinite.into();
        assert!(e.to_string().contains("functional"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
