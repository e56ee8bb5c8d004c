//! The end-to-end online scorer: observations in, calibrated verdicts out.
//!
//! # Observability
//!
//! The scorer always maintains its per-instance [`StreamStats`] view
//! (counter snapshot via [`OnlineScorer::stats`], per-batch latency
//! quantiles via [`OnlineScorer::latency_snapshot`]). Additionally, with
//! the environment variable `MFOD_OBS=1` the streaming layer reports to
//! the process-wide `mfod-obs` recorder: flush reasons (batch-full /
//! manual), window-drop counts from `take_pending`, batch assembly
//! latency and per-batch scoring latency. Set
//! `MFOD_OBS_JSON=<path>` to dump the recorder's full
//! `MetricsSnapshot` as JSON (see `examples/observability.rs`).
//! Instrumentation never changes scores — only what gets counted.

use crate::batch::{BatchConfig, MicroBatcher, ScoredWindow};
use crate::calibrate::ThresholdCalibrator;
use crate::error::StreamError;
use crate::stats::{StatsSnapshot, StreamStats};
use crate::window::{WindowBuffer, WindowConfig};
use crate::Result;
use mfod::FittedPipeline;
use std::sync::Arc;

/// A batch the scorer gave up on: after the initial flush attempt plus
/// `max_flush_retries` retries all failed, the pending windows are moved
/// aside so the stream can keep scoring. Retrieve reports via
/// [`OnlineScorer::drain_quarantine`]; the windows can be inspected and
/// resubmitted (they will score under fresh sequence numbers).
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// Sequence number of the first quarantined window.
    pub first_seq: u64,
    /// The quarantined windows, in submission order.
    pub windows: Vec<mfod_fda::RawSample>,
    /// Consecutive flush failures that triggered the quarantine.
    pub attempts: u32,
    /// Display of the error from the final flush attempt.
    pub error: String,
}

/// Full streaming configuration: window geometry + batching policy.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Sliding-window geometry.
    pub window: WindowConfig,
    /// Micro-batching policy.
    pub batch: BatchConfig,
}

/// A scored window with its calibrated verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Window sequence number (0-based, gap-free).
    pub seq: u64,
    /// Raw outlyingness score; **higher = more outlying**.
    pub score: f64,
    /// Whether the calibrated threshold flags this window (always `false`
    /// when the scorer is uncalibrated).
    pub is_outlier: bool,
}

/// Composes [`WindowBuffer`] → [`MicroBatcher`] → [`ThresholdCalibrator`]
/// behind a single push-based interface, sharing one `Arc<FittedPipeline>`
/// across all scoring threads.
pub struct OnlineScorer {
    buffer: WindowBuffer,
    batcher: MicroBatcher,
    calibrator: Option<ThresholdCalibrator>,
    stats: Arc<StreamStats>,
    quarantine: Vec<QuarantineReport>,
}

impl std::fmt::Debug for OnlineScorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineScorer")
            .field("window_len", &self.buffer.config().ts.len())
            .field("batcher", &self.batcher)
            .field("calibrated", &self.calibrator.is_some())
            .finish()
    }
}

impl OnlineScorer {
    /// Builds an uncalibrated scorer (verdicts report `is_outlier: false`;
    /// use [`OnlineScorer::with_calibrator`] or
    /// [`OnlineScorer::calibrate`] for alarms).
    pub fn new(pipeline: Arc<FittedPipeline>, config: StreamConfig) -> Result<Self> {
        // Fail at construction, not on the first batch: a window geometry
        // the pipeline would reject wedges the stream otherwise.
        if let (Some(&first), Some(&last)) = (config.window.ts.first(), config.window.ts.last()) {
            if !pipeline.accepts_domain((first, last)) {
                let (a, b) = pipeline.domain();
                return Err(crate::error::StreamError::Config(format!(
                    "window ts span [{first}, {last}] differs from the pipeline's training \
                     domain [{a}, {b}]"
                )));
            }
        }
        let trained_channels = pipeline.selected_bases().len();
        if config.window.channels != trained_channels {
            return Err(crate::error::StreamError::Config(format!(
                "window is configured for {} channels, pipeline was trained on {}",
                config.window.channels, trained_channels
            )));
        }
        let stats = Arc::new(StreamStats::new());
        let batcher = MicroBatcher::new(pipeline, config.batch.clone(), Arc::clone(&stats))?;
        let buffer = WindowBuffer::new(config.window)?;
        Ok(OnlineScorer {
            buffer,
            batcher,
            calibrator: None,
            stats,
            quarantine: Vec::new(),
        })
    }

    /// Attaches a pre-built calibrator.
    pub fn with_calibrator(mut self, calibrator: ThresholdCalibrator) -> Self {
        self.calibrator = Some(calibrator);
        self
    }

    /// Calibrates the alarm threshold from training scores (see
    /// [`ThresholdCalibrator::from_scores`]), which should come from
    /// [`FittedPipeline::score`] like the verdicts this scorer emits.
    pub fn calibrate(&mut self, train_scores: &[f64], contamination: f64) -> Result<()> {
        self.calibrator = Some(ThresholdCalibrator::from_scores(
            train_scores,
            contamination,
        )?);
        Ok(())
    }

    /// Calibrates by scoring `train` through the pipeline this scorer
    /// serves (see [`ThresholdCalibrator::fit`]), so the threshold matches
    /// the score distribution of the verdicts it will emit.
    pub fn calibrate_from_samples(
        &mut self,
        train: &[mfod_fda::RawSample],
        contamination: f64,
    ) -> Result<()> {
        self.calibrator = Some(ThresholdCalibrator::fit(
            self.batcher.pipeline(),
            train,
            contamination,
        )?);
        Ok(())
    }

    /// The calibrator, if any.
    pub fn calibrator(&self) -> Option<&ThresholdCalibrator> {
        self.calibrator.as_ref()
    }

    /// Ingests one multichannel observation; returns the verdicts released
    /// by any micro-batch this observation completed.
    ///
    /// When the batcher has exhausted its flush retries on a poisoned
    /// batch, the batch is **quarantined** instead of wedging the stream:
    /// the pending windows move into a [`QuarantineReport`], this call
    /// returns [`StreamError::Quarantined`] once, and subsequent pushes
    /// score normally.
    pub fn push(&mut self, obs: &[f64]) -> Result<Vec<Verdict>> {
        let window = self.buffer.push(obs)?;
        // Count only after validation, so the counter agrees with
        // `WindowBuffer::observations` when pushes are rejected.
        self.stats.record_observation();
        match window {
            None => Ok(Vec::new()),
            Some(window) => {
                let scored = self
                    .batcher
                    .submit(window)
                    .map_err(|e| self.quarantine_on_give_up(e))?;
                Ok(self.apply_calibration(scored))
            }
        }
    }

    /// Flushes every pending window (end of stream). Like
    /// [`OnlineScorer::push`], a batch that has exhausted its flush
    /// retries is quarantined rather than blocking the stream forever.
    pub fn finish(&mut self) -> Result<Vec<Verdict>> {
        let scored = self
            .batcher
            .flush()
            .map_err(|e| self.quarantine_on_give_up(e))?;
        Ok(self.apply_calibration(scored))
    }

    /// Converts a flush give-up into a quarantine: drains the pending
    /// batch into a [`QuarantineReport`] so the scorer stays live. All
    /// other errors pass through unchanged.
    fn quarantine_on_give_up(&mut self, e: StreamError) -> StreamError {
        let StreamError::FlushRetriesExhausted {
            attempts,
            last_error,
        } = e
        else {
            return e;
        };
        let tagged = self.batcher.take_pending_tagged();
        let first_seq = tagged.first().map(|(s, _)| *s).unwrap_or(0);
        let windows: Vec<mfod_fda::RawSample> = tagged.into_iter().map(|(_, w)| w).collect();
        let count = windows.len();
        self.stats.record_quarantine();
        // The give-up is one surfaced error, already counted by the
        // batcher's `errors_total`/`win_errors`; a quarantine adds none.
        if let Some(m) = mfod_obs::active() {
            m.quarantined_sessions.add(1);
            mfod_obs::journal::instant("stream.quarantine");
        }
        self.quarantine.push(QuarantineReport {
            first_seq,
            windows,
            attempts,
            error: last_error,
        });
        StreamError::Quarantined {
            windows: count,
            first_seq,
        }
    }

    /// Batches currently sitting in quarantine.
    pub fn quarantined(&self) -> usize {
        self.quarantine.len()
    }

    /// Removes and returns every [`QuarantineReport`] accumulated so far.
    pub fn drain_quarantine(&mut self) -> Vec<QuarantineReport> {
        std::mem::take(&mut self.quarantine)
    }

    /// Counter snapshot (throughput, latency, alarm counts).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Per-batch scoring-latency histogram of this scorer (see
    /// [`StreamStats::latency_snapshot`]): p50/p95/p99 via
    /// [`mfod_obs::HistogramSnapshot::quantile_duration`], `None` before
    /// the first flushed batch.
    pub fn latency_snapshot(&self) -> mfod_obs::HistogramSnapshot {
        self.stats.latency_snapshot()
    }

    /// Windows buffered but not yet scored.
    pub fn pending_windows(&self) -> usize {
        self.batcher.pending()
    }

    /// Removes every pending window without scoring it (see
    /// [`MicroBatcher::take_pending`]) — the recovery path when a flush
    /// keeps failing on a poisoned window. Sequence numbers of the drained
    /// windows are consumed, keeping later verdicts aligned with
    /// submission order.
    pub fn take_pending(&mut self) -> Vec<mfod_fda::RawSample> {
        self.batcher.take_pending()
    }

    fn apply_calibration(&self, scored: Vec<ScoredWindow>) -> Vec<Verdict> {
        let verdicts: Vec<Verdict> = scored
            .into_iter()
            .map(|s| Verdict {
                seq: s.seq,
                score: s.score,
                is_outlier: self
                    .calibrator
                    .map(|c| c.is_alarm(s.score))
                    .unwrap_or(false),
            })
            .collect();
        let alarms = verdicts.iter().filter(|v| v.is_outlier).count() as u64;
        if alarms > 0 {
            self.stats.record_alarms(alarms);
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_fda::RawSample;
    use mfod_fixtures::{sine_pipeline, FixtureConfig};

    fn setup() -> (Arc<FittedPipeline>, Vec<RawSample>, Vec<f64>) {
        sine_pipeline(&FixtureConfig {
            n_samples: 10,
            ..Default::default()
        })
    }

    #[test]
    fn end_to_end_push_finish() {
        let (fitted, train, ts) = setup();
        let train_scores = fitted.score(&train).unwrap();
        let config = StreamConfig {
            window: WindowConfig::tumbling(ts.clone(), 2),
            batch: BatchConfig {
                batch_size: 3,
                ..Default::default()
            },
        };
        let mut scorer = OnlineScorer::new(Arc::clone(&fitted), config).unwrap();
        scorer.calibrate(&train_scores, 0.2).unwrap();
        assert!(scorer.calibrator().is_some());
        assert!(format!("{scorer:?}").contains("OnlineScorer"));

        // Stream the training samples back through, observation by
        // observation.
        let mut verdicts = Vec::new();
        for sample in &train {
            for j in 0..sample.t.len() {
                let obs = [sample.channels[0][j], sample.channels[1][j]];
                verdicts.extend(scorer.push(&obs).unwrap());
            }
        }
        verdicts.extend(scorer.finish().unwrap());
        assert_eq!(verdicts.len(), train.len());
        assert_eq!(scorer.pending_windows(), 0);

        // Verdict scores must equal the offline scores of the same curves.
        for (v, offline) in verdicts.iter().zip(&train_scores) {
            assert_eq!(v.score.to_bits(), offline.to_bits(), "seq {}", v.seq);
        }
        // Calibration at 20% flags the highest-scoring ~20% of training.
        let alarms = verdicts.iter().filter(|v| v.is_outlier).count();
        assert!((1..=3).contains(&alarms), "alarms {alarms}");
        let snap = scorer.stats();
        assert_eq!(snap.observations, (train.len() * ts.len()) as u64);
        assert_eq!(snap.windows, train.len() as u64);
        assert_eq!(snap.alarms, alarms as u64);
        assert!(snap.windows_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn construction_rejects_mismatched_stream_geometry() {
        let (fitted, _, ts) = setup();
        // window span differs from the training domain
        let stretched: Vec<f64> = ts.iter().map(|t| t * 2.0).collect();
        let err = OnlineScorer::new(
            Arc::clone(&fitted),
            StreamConfig {
                window: WindowConfig::tumbling(stretched, 2),
                batch: BatchConfig::default(),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("training"), "{err}");
        // wrong channel count for the trained pipeline
        let err = OnlineScorer::new(
            Arc::clone(&fitted),
            StreamConfig {
                window: WindowConfig::tumbling(ts.clone(), 3),
                batch: BatchConfig::default(),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("channels"), "{err}");
    }

    #[test]
    fn calibrate_from_samples_follows_the_serving_mode() {
        let (fitted, train, ts) = setup();
        // Matches an explicit calibration on the same pipeline.
        let mut exact = OnlineScorer::new(
            Arc::clone(&fitted),
            StreamConfig {
                window: WindowConfig::tumbling(ts, 2),
                batch: BatchConfig::default(),
            },
        )
        .unwrap();
        exact.calibrate_from_samples(&train, 0.2).unwrap();
        let reference = ThresholdCalibrator::fit(&fitted, &train, 0.2).unwrap();
        assert_eq!(
            exact.calibrator().unwrap().threshold().to_bits(),
            reference.threshold().to_bits()
        );
    }

    #[test]
    fn take_pending_drains_without_scoring() {
        let (fitted, train, ts) = setup();
        let mut scorer = OnlineScorer::new(
            fitted,
            StreamConfig {
                window: WindowConfig::tumbling(ts.clone(), 2),
                batch: BatchConfig {
                    batch_size: 100,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        for j in 0..ts.len() {
            scorer
                .push(&[train[0].channels[0][j], train[0].channels[1][j]])
                .unwrap();
        }
        assert_eq!(scorer.pending_windows(), 1);
        let drained = scorer.take_pending();
        assert_eq!(drained.len(), 1);
        assert_eq!(scorer.pending_windows(), 0);
        assert!(scorer.finish().unwrap().is_empty());
    }

    #[test]
    fn rejected_pushes_do_not_inflate_counters() {
        let (fitted, train, ts) = setup();
        let mut scorer = OnlineScorer::new(
            fitted,
            StreamConfig {
                window: WindowConfig::tumbling(ts, 2),
                batch: BatchConfig::default(),
            },
        )
        .unwrap();
        assert!(scorer.push(&[1.0]).is_err()); // wrong channel count
        assert!(scorer.push(&[1.0, f64::NAN]).is_err()); // non-finite
        assert_eq!(scorer.stats().observations, 0);
        scorer
            .push(&[train[0].channels[0][0], train[0].channels[1][0]])
            .unwrap();
        assert_eq!(scorer.stats().observations, 1);
    }

    #[test]
    fn exhausted_retries_quarantine_and_the_scorer_stays_live() {
        let (fitted, train, ts) = setup();
        let mut scorer = OnlineScorer::new(
            fitted,
            StreamConfig {
                window: WindowConfig::tumbling(ts.clone(), 2),
                batch: BatchConfig {
                    batch_size: 1,
                    max_flush_retries: 0,
                },
            },
        )
        .unwrap();
        let push_window = |scorer: &mut OnlineScorer, i: usize| {
            let mut out = Ok(Vec::new());
            for j in 0..ts.len() {
                out = scorer.push(&[train[i].channels[0][j], train[i].channels[1][j]]);
            }
            out
        };
        // One injected flush failure; with zero retries the next flush
        // gives up and the engine quarantines the batch.
        mfod_faultline::install(mfod_faultline::FaultPlan::new(41).rule(
            mfod_faultline::points::STREAM_FLUSH,
            mfod_faultline::FaultRule::always().times(1),
        ));
        let err = push_window(&mut scorer, 0).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        let err = push_window(&mut scorer, 1).unwrap_err();
        mfod_faultline::disarm();
        assert!(
            matches!(
                err,
                crate::StreamError::Quarantined {
                    windows: 2,
                    first_seq: 0
                }
            ),
            "{err}"
        );
        // The scorer is still live: the next window scores normally on
        // the seq after the quarantined ones.
        let verdicts = push_window(&mut scorer, 2).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].seq, 2);
        assert!(verdicts[0].score.is_finite());
        assert_eq!(scorer.pending_windows(), 0);
        // The report carries the windows, the attempt count and the
        // underlying error.
        assert_eq!(scorer.quarantined(), 1);
        assert_eq!(scorer.stats().quarantined, 1);
        let reports = scorer.drain_quarantine();
        assert_eq!(scorer.quarantined(), 0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].first_seq, 0);
        assert_eq!(reports[0].windows.len(), 2);
        assert_eq!(reports[0].attempts, 1);
        assert!(reports[0].error.contains("injected fault"));
        // Quarantined windows survive intact and can be rescored.
        let rescored = scorer
            .batcher
            .pipeline()
            .score(&reports[0].windows)
            .unwrap();
        assert!(rescored.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn uncalibrated_never_alarms() {
        let (fitted, train, ts) = setup();
        let config = StreamConfig {
            window: WindowConfig::tumbling(ts, 2),
            batch: BatchConfig {
                batch_size: 1,
                ..Default::default()
            },
        };
        let mut scorer = OnlineScorer::new(fitted, config).unwrap();
        let mut verdicts = Vec::new();
        for sample in &train[..3] {
            for j in 0..sample.t.len() {
                let obs = [sample.channels[0][j], sample.channels[1][j]];
                verdicts.extend(scorer.push(&obs).unwrap());
            }
        }
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| !v.is_outlier));
        assert!(verdicts.iter().all(|v| v.score.is_finite()));
    }
}
