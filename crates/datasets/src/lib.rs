//! # mfod-datasets
//!
//! Data for the paper's experiments, and the substitution for its one
//! external resource:
//!
//! * [`ecg`] — a parametric ECG-beat simulator standing in for the
//!   PhysioNet/UCR **ECG200** dataset (m = 85 samples per beat, a normal
//!   class and an abnormal class mixing persistent-shape, isolated and
//!   mixed-type outliers). The [`ecg`] module docs give the substitution
//!   rationale; [`ucr`] loads the real UCR files when they are present.
//! * [`taxonomy`] — synthetic generators for each class of the Hubert et
//!   al. outlier taxonomy the paper builds on (Sec. 1.1): isolated
//!   magnitude/shift, persistent shape/amplitude, and the mixed-type
//!   "abnormal correlation between channels" case that motivates the
//!   geometric mapping.
//! * [`fig1`] — the bivariate example of the paper's Fig. 1 (21 samples,
//!   one shape-persistent outlier).
//! * [`split`] — contamination-controlled train/test splitting
//!   (Sec. 4.1: training sets with c ∈ {5,…,25}% outliers).
//! * [`labeled`] — the `(samples, labels)` container shared by all of the
//!   above, with CSV persistence.

// Index-based loops are used deliberately in the numeric kernels: the
// loop index mirrors the textbook formulas being implemented.
#![allow(clippy::needless_range_loop)]

pub mod ecg;
pub mod error;
pub mod fig1;
pub mod labeled;
pub(crate) mod rngutil;
pub mod split;
pub mod taxonomy;
pub mod ucr;

pub use ecg::{AbnormalMode, EcgConfig, EcgSimulator};
pub use error::DatasetError;
pub use labeled::LabeledDataSet;
pub use split::{ContaminatedSplit, SplitConfig};
pub use taxonomy::{OutlierType, TaxonomyConfig};

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, DatasetError>;
