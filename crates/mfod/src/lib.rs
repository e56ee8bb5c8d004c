//! # mfod — outlier detection in multivariate functional data via geometric aggregation
//!
//! A production-quality Rust reproduction of
//! *Lejeune, Mothe, Teste — "Outlier detection in multivariate functional
//! data based on a geometric aggregation", EDBT 2020*.
//!
//! ## The method in one paragraph
//!
//! A multivariate functional datum (MFD) is `p` noisy channels observed
//! along a continuous variable `t`. The paper's pipeline (1) smooths each
//! channel with a penalized B-spline expansion so derivatives become
//! analytic, (2) views the sample as a *path* `X(t) ∈ R^p` and aggregates
//! it into a univariate functional datum through a geometric **mapping
//! function** — the curvature `κ(t)` (Eq. 5) being the flagship — and
//! (3) hands the mapped curves, evaluated on a common grid, to a standard
//! multivariate outlier detector (Isolation Forest or one-class SVM). The
//! geometry of the path encodes the correlation *between* channels, so the
//! pipeline catches mixed-type outliers that per-channel depth methods miss
//! and stays robust when the training set itself is contaminated (Fig. 3).
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`mfod_linalg`] | dense matrices, Cholesky/LU/QR/eigen, quadrature |
//! | [`mfod_fda`] | bases (B-spline/Fourier/polynomial), penalized smoothing, LOOCV selection |
//! | [`mfod_geometry`] | mapping functions: curvature, speed, arc length, torsion, … |
//! | [`mfod_depth`] | baselines: FUNTA, Dir.out, integrated/infimum depth, MBD |
//! | [`mfod_detect`] | detectors: iForest, ν-OCSVM (SMO), LOF, Mahalanobis |
//! | [`mfod_datasets`] | ECG simulator (ECG200 stand-in), taxonomy generators, splits |
//! | [`mfod_eval`] | AUC/ROC, k-fold CV, repeated-experiment aggregation |
//! | this crate | the end-to-end [`pipeline::GeomOutlierPipeline`], baseline adapters, ν tuning, the Sec. 5 ensemble, and the Fig. 1–3 experiment harnesses |
//!
//! ## Quickstart
//!
//! ```
//! use mfod::prelude::*;
//!
//! // Simulated ECG beats (the paper's data), augmented with the squared
//! // series so the UFD become bivariate MFD (Sec. 4.1).
//! let ecg = EcgSimulator::new(EcgConfig::default()).unwrap();
//! let data = ecg.generate(40, 8, 7).unwrap().augment_with(0, |y| y * y).unwrap();
//!
//! // Train/test split with 10% training contamination.
//! let split = SplitConfig { train_size: 24, contamination: 0.10 };
//! let (train, test) = split.split_datasets(&data, 1).unwrap();
//!
//! // Curvature mapping + Isolation Forest.
//! let pipeline = GeomOutlierPipeline::new(
//!     PipelineConfig::fast(),
//!     std::sync::Arc::new(Curvature),
//!     std::sync::Arc::new(IsolationForest::default()),
//! );
//! let fitted = pipeline.fit(train.samples()).unwrap();
//! let scores = fitted.score(test.samples()).unwrap();
//! let auc = mfod_eval::auc(&scores, test.labels()).unwrap();
//! assert!(auc > 0.6, "AUC {auc}");
//! ```

pub mod baselines;
pub mod ensemble;
pub mod error;
pub mod experiment;
pub mod pipeline;
pub mod snapshot;
pub mod tune;

pub use baselines::{DepthBaseline, DepthBaselineSnapshot, FittedDepthBaseline};
pub use ensemble::{FittedMappingEnsemble, MappingEnsemble};
pub use error::MfodError;
pub use experiment::{Fig3Config, Fig3Row};
pub use pipeline::{FeatureTransform, FittedPipeline, GeomOutlierPipeline, PipelineConfig};
pub use snapshot::{EnsembleSnapshot, PipelineSnapshot};
pub use tune::NuTuner;

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, MfodError>;

// Re-export the member crates under stable names for downstream users.
pub use mfod_datasets as datasets;
pub use mfod_depth as depth;
pub use mfod_detect as detect;
pub use mfod_eval as eval;
pub use mfod_fda as fda;
pub use mfod_geometry as geometry;
pub use mfod_linalg as linalg;
pub use mfod_persist as persist;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use crate::baselines::{DepthBaseline, DepthBaselineSnapshot, FittedDepthBaseline};
    pub use crate::ensemble::{FittedMappingEnsemble, MappingEnsemble};
    pub use crate::error::MfodError;
    pub use crate::experiment::{Fig3Config, Fig3Row};
    pub use crate::pipeline::{
        FeatureTransform, FittedPipeline, GeomOutlierPipeline, PipelineConfig,
    };
    pub use crate::snapshot::{EnsembleSnapshot, PipelineSnapshot};
    pub use crate::tune::NuTuner;
    pub use mfod_datasets::{
        EcgConfig, EcgSimulator, LabeledDataSet, OutlierType, SplitConfig, TaxonomyConfig,
    };
    pub use mfod_depth::{DirOut, FunctionalOutlierScorer, Funta, GriddedDataSet};
    pub use mfod_detect::prelude::*;
    pub use mfod_eval::{auc, roc_curve};
    pub use mfod_fda::prelude::*;
    pub use mfod_geometry::prelude::*;
}
