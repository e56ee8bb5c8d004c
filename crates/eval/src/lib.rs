//! # mfod-eval
//!
//! Evaluation machinery for the paper's experimental protocol (Sec. 4.1):
//!
//! * [`roc`] — ROC curves and the tie-aware Mann–Whitney AUC used as the
//!   headline metric of Fig. 3;
//! * [`cv`] — seeded k-fold cross-validation index generation (the paper
//!   tunes the OCSVM ν by 5-fold CV on the training set);
//! * [`runner`] — the repeated-split experiment runner that produces the
//!   "average and standard deviation AUC over 50 repetitions" aggregation
//!   of Fig. 3.
//!
//! The crate is deliberately detector-agnostic: it consumes plain score
//! vectors and boolean labels (`true` = outlier; scores oriented higher =
//! more outlying).

pub mod cv;
pub mod error;
pub mod roc;
pub mod runner;

pub use cv::KFold;
pub use error::EvalError;
pub use roc::{auc, roc_curve, RocPoint};
pub use runner::{run_repeated, MethodSummary, RepeatedSummary};

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, EvalError>;
