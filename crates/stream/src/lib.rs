//! # mfod-stream
//!
//! Online scoring for the geometric-aggregation outlier pipeline: the
//! serving-side complement of the paper's offline experiment protocol.
//!
//! The batch pipeline (`mfod`) fits per-channel penalized smoothing, a
//! geometric mapping and a multivariate detector in one offline pass. A
//! production system instead sees an unbounded stream of multichannel
//! observations and must keep scoring without refitting. This crate
//! provides that layer:
//!
//! * [`WindowBuffer`] — per-channel buffers cutting the observation
//!   stream into consecutive [`mfod_fda::RawSample`] windows, one per
//!   `ts.len()` observations (tumbling windows on the training grid);
//! * [`MicroBatcher`] — accumulates windows and scores each micro-batch in
//!   parallel through a shared `Arc<FittedPipeline>`, bit for bit equal
//!   to offline `FittedPipeline::score` on the same windows (every window
//!   gets its own cross-validated smoothing, as in the paper);
//! * [`ThresholdCalibrator`] — converts raw outlyingness scores into
//!   binary alarms at the empirical `1 − contamination` quantile of the
//!   training scores;
//! * [`OnlineScorer`] — the push-based facade composing all three, with
//!   running throughput/latency counters ([`StreamStats`]).
//!
//! The serving path has one failure policy: a flush scores inline on the
//! caller's thread, a failed or panicking flush keeps its batch pending
//! for a retry, and after `max_flush_retries` failed retries the batch is
//! quarantined ([`QuarantineReport`]) so the stream stays live. Fault
//! hooks from `mfod-faultline` let tests drive all of these paths
//! deterministically; disarmed they cost one relaxed atomic load.
//!
//! ## Quickstart
//!
//! ```
//! use mfod::prelude::*;
//! use mfod_stream::{BatchConfig, OnlineScorer, StreamConfig, WindowConfig};
//! use std::sync::Arc;
//!
//! // Fit the offline pipeline on simulated ECG beats.
//! let data = EcgSimulator::new(EcgConfig { m: 24, ..Default::default() })
//!     .unwrap()
//!     .generate(10, 2, 7)
//!     .unwrap()
//!     .augment_with(0, |y| y * y)
//!     .unwrap();
//! let pipeline = GeomOutlierPipeline::new(
//!     PipelineConfig::fast(),
//!     Arc::new(Curvature),
//!     Arc::new(IsolationForest { n_trees: 20, ..Default::default() }),
//! );
//! let fitted = pipeline.fit(data.samples()).unwrap().into_shared();
//! let train_scores = fitted.score(data.samples()).unwrap();
//!
//! // Serve: one beat-length tumbling window, micro-batches of 4.
//! let ts = data.samples()[0].t.clone();
//! let mut scorer = OnlineScorer::new(
//!     Arc::clone(&fitted),
//!     StreamConfig {
//!         window: WindowConfig::tumbling(ts, 2),
//!         batch: BatchConfig { batch_size: 4, ..Default::default() },
//!     },
//! )
//! .unwrap();
//! scorer.calibrate(&train_scores, 0.15).unwrap();
//!
//! // Stream observations; verdicts pop out as micro-batches fill.
//! let mut verdicts = Vec::new();
//! for sample in data.samples() {
//!     for j in 0..sample.t.len() {
//!         let obs = [sample.channels[0][j], sample.channels[1][j]];
//!         verdicts.extend(scorer.push(&obs).unwrap());
//!     }
//! }
//! verdicts.extend(scorer.finish().unwrap());
//! assert_eq!(verdicts.len(), data.len());
//! assert!(scorer.stats().windows_per_sec().unwrap() > 0.0);
//! ```

pub mod batch;
pub mod calibrate;
pub mod engine;
pub mod error;
pub mod stats;
pub mod window;

pub use batch::{BatchConfig, MicroBatcher, ScoredWindow};
pub use calibrate::ThresholdCalibrator;
pub use engine::{OnlineScorer, QuarantineReport, StreamConfig, Verdict};
pub use error::StreamError;
pub use stats::{StatsSnapshot, StreamStats};
pub use window::{WindowBuffer, WindowConfig};

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, StreamError>;
