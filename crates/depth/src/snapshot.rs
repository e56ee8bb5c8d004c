//! Plain-data snapshot forms of the depth scorers.
//!
//! Depth scorers are configuration-only (they carry no fitted state), so
//! their snapshot is just the constructor parameters. The wire codecs
//! live in the `mfod` crate next to the other artifact kinds — this
//! module is pure data, keeping `mfod-depth` free of a persistence
//! dependency.

use crate::projection::ProjectionConfig;
use crate::{DirOut, FunctionalOutlierScorer, Funta, Result};
use std::sync::Arc;

/// Constructor parameters of a persistable depth scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DepthScorerSnapshot {
    /// [`Funta`] with its per-tail trimming fraction.
    Funta {
        /// See [`Funta::trim`] (`0.0` = plain FUNTA).
        trim: f64,
    },
    /// [`DirOut`] with its random-projection settings.
    DirOut {
        /// See [`ProjectionConfig::n_directions`].
        n_directions: usize,
        /// See [`ProjectionConfig::seed`].
        seed: u64,
    },
}

impl DepthScorerSnapshot {
    /// Rebuilds the scorer, re-running the constructors' parameter
    /// validation (e.g. the rFUNTA trim range), so a tampered snapshot
    /// cannot resurrect a scorer the constructor would have rejected.
    pub fn restore(&self) -> Result<Arc<dyn FunctionalOutlierScorer>> {
        match *self {
            DepthScorerSnapshot::Funta { trim } => Ok(Arc::new(Funta::robust(trim)?)),
            DepthScorerSnapshot::DirOut { n_directions, seed } => Ok(Arc::new(DirOut {
                projection: ProjectionConfig { n_directions, seed },
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funta_roundtrips_through_snapshot() {
        let f = Funta::robust(0.1).unwrap();
        let snap = f.snapshot().unwrap();
        assert_eq!(snap, DepthScorerSnapshot::Funta { trim: 0.1 });
        let restored = snap.restore().unwrap();
        assert_eq!(restored.name(), "rfunta");
        assert_eq!(
            Funta::new().snapshot().unwrap().restore().unwrap().name(),
            "funta"
        );
    }

    #[test]
    fn dirout_roundtrips_through_snapshot() {
        let d = DirOut {
            projection: ProjectionConfig {
                n_directions: 32,
                seed: 99,
            },
        };
        let snap = d.snapshot().unwrap();
        assert_eq!(
            snap,
            DepthScorerSnapshot::DirOut {
                n_directions: 32,
                seed: 99
            }
        );
        assert_eq!(snap.restore().unwrap().name(), "dir.out");
    }

    #[test]
    fn invalid_trim_is_rejected_on_restore() {
        let snap = DepthScorerSnapshot::Funta { trim: 0.7 };
        assert!(snap.restore().is_err());
    }
}
