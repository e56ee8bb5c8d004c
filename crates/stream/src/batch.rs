//! Parallel micro-batching: accumulate windows, score them together.
//!
//! Scoring a window costs one smoothing + mapping + detector pass; doing
//! that per window serializes the whole stream. The [`MicroBatcher`]
//! trades a bounded amount of latency (at most `batch_size − 1` windows)
//! for the right to score a batch across all cores at once.
//!
//! # Failure semantics
//!
//! A flush scores inline, on the caller's thread. Every flush failure
//! leaves the batch in the pending queue with its sequence numbers
//! intact, so nothing is ever silently dropped:
//!
//! * a pipeline error (or an injected `stream.flush` fault) surfaces as
//!   [`StreamError::Pipeline`];
//! * a panic inside scoring is caught and surfaces as
//!   [`StreamError::ScorePanicked`] — the batcher stays usable;
//! * after `max_flush_retries` consecutive failures the batcher refuses
//!   further attempts with [`StreamError::FlushRetriesExhausted`] until
//!   the batch is drained via [`MicroBatcher::take_pending`] (the
//!   `OnlineScorer` turns this into a quarantine).

use crate::error::StreamError;
use crate::stats::StreamStats;
use crate::Result;
use mfod::FittedPipeline;
use mfod_fda::RawSample;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Micro-batching policy.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Score as soon as this many windows are pending.
    pub batch_size: usize,
    /// Consecutive flush failures tolerated before the batcher gives up
    /// on the batch: once the initial attempt plus `max_flush_retries`
    /// retries have all failed, every further flush returns
    /// [`StreamError::FlushRetriesExhausted`] until the batch is drained.
    pub max_flush_retries: u32,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch_size: 16,
            max_flush_retries: 3,
        }
    }
}

/// Why a flush happened — reported to the global recorder (`mfod-obs`)
/// per flushed batch when `MFOD_OBS=1`.
#[derive(Debug, Clone, Copy)]
enum FlushReason {
    /// The batch reached `batch_size`.
    Full,
    /// An explicit [`MicroBatcher::flush`] (incl. end-of-stream finish).
    Manual,
}

/// A scored window: `seq` is the 0-based submission index, so callers can
/// join scores back to their windows across flush boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredWindow {
    /// Submission sequence number (0-based, gap-free).
    pub seq: u64,
    /// Outlyingness score; **higher = more outlying**.
    pub score: f64,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one scoring attempt through [`FittedPipeline::par_score`] with
/// panic containment: a caught panic becomes
/// [`StreamError::ScorePanicked`]. The injected-fault hooks live here so
/// they ride the same catch machinery as real failures.
fn score_attempt(pipeline: &FittedPipeline, batch: &[RawSample]) -> Result<Vec<f64>> {
    catch_unwind(AssertUnwindSafe(|| {
        mfod_faultline::stall(mfod_faultline::points::STREAM_DELAY);
        if mfod_faultline::should_fire(mfod_faultline::points::STREAM_FLUSH) {
            return Err(StreamError::Pipeline(mfod::MfodError::Pipeline(
                "injected fault: stream.flush".into(),
            )));
        }
        pipeline.par_score(batch).map_err(Into::into)
    }))
    .unwrap_or_else(|payload| Err(StreamError::ScorePanicked(panic_message(payload))))
}

/// Accumulates windows and scores them in parallel through a shared
/// [`FittedPipeline`].
///
/// Invariants, property-tested in `tests/proptests.rs`:
/// * every submitted window is scored exactly once, or drained with an
///   explicit count — never silently lost;
/// * results preserve submission order within and across flushes;
/// * `seq` numbers are assigned at submission, consecutive from 0.
pub struct MicroBatcher {
    pipeline: Arc<FittedPipeline>,
    config: BatchConfig,
    stats: Arc<StreamStats>,
    /// Pending windows and their submission-assigned sequence numbers,
    /// kept in lockstep (`pending[i]` ↔ `pending_seqs[i]`).
    pending: Vec<RawSample>,
    pending_seqs: Vec<u64>,
    next_seq: u64,
    oldest_pending: Option<Instant>,
    consecutive_failures: u32,
    last_error: Option<String>,
}

impl std::fmt::Debug for MicroBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroBatcher")
            .field("label", &self.pipeline.label())
            .field("batch_size", &self.config.batch_size)
            .field("pending", &self.pending.len())
            .field("consecutive_failures", &self.consecutive_failures)
            .finish()
    }
}

impl MicroBatcher {
    /// Creates a batcher scoring through `pipeline`; scores are bit-for-bit
    /// identical to [`FittedPipeline::score`] on the same windows.
    pub fn new(
        pipeline: Arc<FittedPipeline>,
        config: BatchConfig,
        stats: Arc<StreamStats>,
    ) -> Result<Self> {
        if config.batch_size == 0 {
            return Err(StreamError::Config("batch_size must be >= 1".into()));
        }
        Ok(MicroBatcher {
            pipeline,
            config,
            stats,
            pending: Vec::new(),
            pending_seqs: Vec::new(),
            next_seq: 0,
            oldest_pending: None,
            consecutive_failures: 0,
            last_error: None,
        })
    }

    /// The batching policy.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// The shared pipeline this batcher scores through.
    pub(crate) fn pipeline(&self) -> &Arc<FittedPipeline> {
        &self.pipeline
    }

    /// Windows waiting for the next flush.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Consecutive flush failures on the current pending batch (reset by
    /// a successful flush or [`MicroBatcher::take_pending`]).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Removes and returns every pending window **without scoring them**.
    /// Their sequence numbers (assigned at submission) stay consumed, so
    /// later scores remain aligned with submission order. This is the
    /// recovery path after a failed [`MicroBatcher::flush`]: inspect the
    /// returned windows, resubmit the good ones. Also resets the
    /// consecutive-failure counter.
    pub fn take_pending(&mut self) -> Vec<RawSample> {
        self.take_pending_tagged()
            .into_iter()
            .map(|(_, w)| w)
            .collect()
    }

    /// Like [`MicroBatcher::take_pending`] but keeps each window paired
    /// with its sequence number — the quarantine path needs both.
    pub(crate) fn take_pending_tagged(&mut self) -> Vec<(u64, RawSample)> {
        self.oldest_pending = None;
        self.consecutive_failures = 0;
        self.last_error = None;
        let seqs = std::mem::take(&mut self.pending_seqs);
        let batch = std::mem::take(&mut self.pending);
        if let Some(m) = mfod_obs::active() {
            m.stream_window_drops.add(batch.len() as u64);
        }
        seqs.into_iter().zip(batch).collect()
    }

    /// Submits one window. Returns the scores released by this submission:
    /// empty unless the batch filled up, in which case every pending
    /// window is scored and returned in submission order.
    pub fn submit(&mut self, window: RawSample) -> Result<Vec<ScoredWindow>> {
        if self.pending.is_empty() {
            self.oldest_pending = Some(Instant::now());
        }
        self.pending.push(window);
        self.pending_seqs.push(self.next_seq);
        self.next_seq += 1;
        if self.pending.len() >= self.config.batch_size {
            return self.flush_with_reason(FlushReason::Full);
        }
        Ok(Vec::new())
    }

    /// Scores every pending window now (end-of-stream or latency-critical
    /// paths). Safe to call with nothing pending.
    ///
    /// On a scoring error the batch stays pending — nothing is dropped and
    /// sequence numbers stay aligned with submission order, so the caller
    /// can retry (or drain and inspect the offending windows). After the
    /// initial attempt plus `max_flush_retries` retries have all failed,
    /// the batcher stops retrying (see
    /// [`StreamError::FlushRetriesExhausted`]).
    pub fn flush(&mut self) -> Result<Vec<ScoredWindow>> {
        self.flush_with_reason(FlushReason::Manual)
    }

    fn flush_with_reason(&mut self, reason: FlushReason) -> Result<Vec<ScoredWindow>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let obs = mfod_obs::active();
        if self.consecutive_failures > self.config.max_flush_retries {
            if let Some(m) = obs {
                m.errors_total.add(1);
                m.win_errors.add(1);
            }
            return Err(StreamError::FlushRetriesExhausted {
                attempts: self.consecutive_failures,
                last_error: self.last_error.clone().unwrap_or_default(),
            });
        }
        // Batch assembly latency: how long the oldest window waited from
        // submission to the start of this flush.
        let assembly = match (obs, self.oldest_pending) {
            (Some(_), Some(oldest)) => Some(oldest.elapsed()),
            _ => None,
        };
        let started = Instant::now();
        // The batch stays pending while it scores, so a failed attempt
        // leaves it where a retry finds it.
        let scores = match score_attempt(&self.pipeline, &self.pending) {
            Ok(scores) => scores,
            Err(e) => {
                self.consecutive_failures += 1;
                self.last_error = Some(e.to_string());
                if let Some(m) = obs {
                    m.errors_total.add(1);
                    m.win_errors.add(1);
                }
                return Err(e);
            }
        };
        let elapsed = started.elapsed();
        self.pending.clear();
        self.oldest_pending = None;
        self.consecutive_failures = 0;
        self.last_error = None;
        self.stats.record_batch(scores.len() as u64, elapsed);
        if let Some(m) = obs {
            match reason {
                FlushReason::Full => m.stream_flush_full.add(1),
                FlushReason::Manual => m.stream_flush_manual.add(1),
            }
            if let Some(a) = assembly {
                m.stream_batch_assembly.record_duration(a);
            }
            m.stream_batch_score.record_duration(elapsed);
            // Windowed telemetry: throughput rate, rolling flush-latency
            // quantiles, and the score-distribution sketch the drift
            // monitor reads. Sketch quantization never feeds back into
            // the scores handed to callers.
            m.win_stream_windows.add(scores.len() as u64);
            m.win_batch_score.record_duration(elapsed);
            for &score in &scores {
                m.win_score_dist
                    .record(mfod_obs::window::quantize_score(score));
            }
        }
        Ok(self
            .pending_seqs
            .drain(..)
            .zip(scores)
            .map(|(seq, score)| ScoredWindow { seq, score })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_fixtures::{sine_pipeline, FixtureConfig};

    fn tiny_pipeline() -> (Arc<FittedPipeline>, Vec<RawSample>, Vec<f64>) {
        sine_pipeline(&FixtureConfig::default())
    }

    #[test]
    fn flushes_exactly_at_batch_size() {
        let (fitted, windows, _) = tiny_pipeline();
        let stats = Arc::new(StreamStats::new());
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 5,
                ..Default::default()
            },
            Arc::clone(&stats),
        )
        .unwrap();
        let mut released = Vec::new();
        for w in windows.iter().cloned() {
            released.extend(b.submit(w).unwrap());
        }
        // 12 windows, batch 5 → flushes at 5 and 10, 2 pending
        assert_eq!(released.len(), 10);
        assert_eq!(b.pending(), 2);
        released.extend(b.flush().unwrap());
        assert_eq!(released.len(), 12);
        let seqs: Vec<u64> = released.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..12).collect::<Vec<_>>());
        assert!(released.iter().all(|r| r.score.is_finite()));
        let snap = stats.snapshot();
        assert_eq!(snap.windows, 12);
        assert_eq!(snap.batches, 3);
        assert!(b.flush().unwrap().is_empty());
    }

    #[test]
    fn batched_scores_match_offline_scores() {
        let (fitted, windows, _) = tiny_pipeline();
        let offline = fitted.score(&windows).unwrap();
        let stats = Arc::new(StreamStats::new());
        let mut b = MicroBatcher::new(
            Arc::clone(&fitted),
            BatchConfig {
                batch_size: 7,
                ..Default::default()
            },
            stats,
        )
        .unwrap();
        let mut scored = Vec::new();
        for w in windows.iter().cloned() {
            scored.extend(b.submit(w).unwrap());
        }
        scored.extend(b.flush().unwrap());
        assert_eq!(scored.len(), offline.len());
        for (s, o) in scored.iter().zip(&offline) {
            assert_eq!(s.score.to_bits(), o.to_bits(), "seq {}", s.seq);
        }
    }

    #[test]
    fn failed_flush_keeps_the_batch_and_seq_alignment() {
        let (fitted, windows, ts) = tiny_pipeline();
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 100,
                ..Default::default()
            },
            Arc::new(StreamStats::new()),
        )
        .unwrap();
        assert!(b.submit(windows[0].clone()).unwrap().is_empty());
        assert!(b.submit(windows[1].clone()).unwrap().is_empty());
        // A window from a foreign domain poisons the batch.
        let foreign = RawSample::new(
            ts.iter().map(|t| t * 5.0).collect(),
            windows[0].channels.clone(),
        )
        .unwrap();
        assert!(b.submit(foreign).unwrap().is_empty());
        // Scoring fails, but nothing is dropped.
        assert!(b.flush().is_err());
        assert_eq!(b.pending(), 3);
        assert_eq!(b.consecutive_failures(), 1);
        // Recovery: drain the poisoned batch (seqs 0..3 stay consumed) and
        // resubmit the good windows — their scores land on fresh seqs.
        let drained = b.take_pending();
        assert_eq!(drained.len(), 3);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.consecutive_failures(), 0);
        for w in &drained[..2] {
            assert!(b.submit(w.clone()).unwrap().is_empty());
        }
        let rescored = b.flush().unwrap();
        assert_eq!(rescored.len(), 2);
        assert_eq!(rescored[0].seq, 3);
        assert_eq!(rescored[1].seq, 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let (fitted, _, _) = tiny_pipeline();
        assert!(MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 0,
                ..Default::default()
            },
            Arc::new(StreamStats::new()),
        )
        .is_err());
    }

    #[test]
    fn injected_flush_faults_exhaust_into_typed_give_up() {
        let (fitted, windows, _) = tiny_pipeline();
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 100,
                max_flush_retries: 1,
            },
            Arc::new(StreamStats::new()),
        )
        .unwrap();
        for w in &windows[..2] {
            assert!(b.submit(w.clone()).unwrap().is_empty());
        }
        mfod_faultline::install(mfod_faultline::FaultPlan::new(32).rule(
            mfod_faultline::points::STREAM_FLUSH,
            mfod_faultline::FaultRule::always(),
        ));
        // Initial attempt + 1 retry fail with the injected pipeline error…
        for attempt in 1..=2u32 {
            let err = b.flush().unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{err}");
            assert_eq!(b.consecutive_failures(), attempt);
            assert_eq!(b.pending(), 2);
        }
        // …then the batcher gives up without touching the pipeline again.
        let err = b.flush().unwrap_err();
        assert!(
            matches!(
                &err,
                StreamError::FlushRetriesExhausted { attempts: 2, last_error }
                    if last_error.contains("injected fault")
            ),
            "{err}"
        );
        let report = mfod_faultline::disarm().unwrap();
        // Give-up short-circuits: only the two real attempts hit the hook.
        assert_eq!(report.hits(mfod_faultline::points::STREAM_FLUSH), 2);
        // Draining resets the batcher; the windows rescore on fresh seqs.
        let drained = b.take_pending();
        assert_eq!(drained.len(), 2);
        for w in drained {
            b.submit(w).unwrap();
        }
        let scored = b.flush().unwrap();
        assert_eq!(scored.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![2, 3]);
    }
}
