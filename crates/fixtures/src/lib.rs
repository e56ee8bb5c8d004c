//! # mfod-fixtures
//!
//! Shared **test and bench fixtures** for the workspace — a dev-only
//! crate so that unit tests, integration tests, proptests and benches
//! all build against one fixture helper instead of copy-pasting
//! pipeline setups. No production crate depends on this one; it appears
//! strictly under `[dev-dependencies]`.
//!
//! * pipeline fixtures (re-exported at the root) — deterministic fitted
//!   pipelines: the two-channel sine bundle ([`sine_pipeline`]) and the
//!   simulated-ECG acceptance split ([`ecg_split`]/[`ecg_fitted`]).
//!   These moved here from `mfod-stream`'s former `fixtures` cargo
//!   feature, which this crate replaces.
//! * [`persist`] — synthetic persist-layer fixtures: multi-section
//!   "tenant fleet" snapshots for exercising lazy section decode.

pub mod persist;
mod pipeline;

pub use pipeline::{ecg_fitted, ecg_split, sine_pipeline, FixtureConfig};
