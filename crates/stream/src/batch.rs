//! Parallel micro-batching: accumulate windows, score them together.
//!
//! Scoring a window costs one smoothing + mapping + detector pass; doing
//! that per window serializes the whole stream. The [`MicroBatcher`]
//! trades a bounded amount of latency (at most `batch_size − 1` windows,
//! or `max_delay` wall-clock) for the right to score a batch across all
//! cores at once.
//!
//! # Failure semantics
//!
//! Every flush failure leaves the batch in the pending queue with its
//! sequence numbers intact, so nothing is ever silently dropped:
//!
//! * a pipeline error (or an injected `stream.flush` fault) surfaces as
//!   [`StreamError::Pipeline`];
//! * a panic inside scoring is caught and surfaces as
//!   [`StreamError::ScorePanicked`] — the batcher stays usable;
//! * with a [`ScoringDeadline`], a flush that overruns its budget surfaces
//!   as [`StreamError::DeadlineExceeded`] — the caller never hangs;
//! * after `max_flush_retries` consecutive failures the batcher refuses
//!   further attempts with [`StreamError::FlushRetriesExhausted`] until
//!   the batch is drained via [`MicroBatcher::take_pending`] (the
//!   `OnlineScorer` turns this into a quarantine).
//!
//! Backpressure is explicit: with `max_pending` set, a submission that
//! finds the queue at capacity is handled per [`OverloadPolicy`] — shed
//! loudly ([`StreamError::Overloaded`]), drop the oldest pending window,
//! or block on an inline flush. Shed windows are counted, never silently
//! discarded.

use crate::error::StreamError;
use crate::stats::StreamStats;
use crate::Result;
use mfod::FittedPipeline;
use mfod_fda::RawSample;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A wall-clock budget for one flush: scoring that overruns it is
/// abandoned (the batch returns to the pending queue) instead of wedging
/// the stream.
///
/// Deadline-bounded flushes score on a helper thread and wait at most
/// `budget`; a timed-out scoring run finishes in the background and its
/// result is discarded, so a single slow batch costs one thread, never a
/// hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoringDeadline {
    /// Maximum wall-clock time one flush may spend scoring.
    pub budget: Duration,
}

impl ScoringDeadline {
    /// A deadline with the given budget.
    pub fn new(budget: Duration) -> Self {
        ScoringDeadline { budget }
    }
}

/// What to do when a submission finds the pending queue at `max_pending`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Shed the **new** window: count it and return
    /// [`StreamError::Overloaded`] without enqueueing (no sequence number
    /// is consumed). The default — loud and lossless for already-queued
    /// work.
    #[default]
    Reject,
    /// Shed the **oldest** pending window (its sequence number stays
    /// consumed) and enqueue the new one — freshest-data-wins streams.
    DropOldest,
    /// Flush inline to make room, then enqueue. If that flush fails the
    /// new window is shed and the flush error propagates.
    Block,
}

/// Micro-batching policy.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Score as soon as this many windows are pending.
    pub batch_size: usize,
    /// Also score when the oldest pending window has waited this long
    /// (checked on submission; streams stalled forever should call
    /// [`MicroBatcher::flush`]).
    pub max_delay: Option<Duration>,
    /// Wall-clock budget per flush (see [`ScoringDeadline`]); `None`
    /// scores inline with no bound.
    pub deadline: Option<ScoringDeadline>,
    /// Pending-queue capacity; `None` is unbounded. Meaningful values are
    /// ≥ `batch_size`, since the queue only grows past `batch_size` while
    /// flushes are failing.
    pub max_pending: Option<usize>,
    /// What to do when a submission finds the queue at `max_pending`.
    pub overload: OverloadPolicy,
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
            max_delay: None,
            deadline: None,
            max_pending: None,
            overload: OverloadPolicy::Reject,
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
    /// The oldest pending window exceeded `max_delay`.
    Expired,
    /// An explicit [`MicroBatcher::flush`] (incl. end-of-stream finish
    /// and [`OverloadPolicy::Block`] room-making flushes).
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

/// How one scoring attempt ended (internal).
enum ScoreOutcome {
    Scores(Vec<f64>),
    Failed(StreamError),
    Panicked(String),
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
/// panic containment. The injected-fault hooks live here so they ride
/// the same catch/deadline machinery as real failures.
fn score_attempt(pipeline: &FittedPipeline, batch: &[RawSample]) -> ScoreOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        mfod_faultline::stall(mfod_faultline::points::STREAM_DELAY);
        if mfod_faultline::should_fire(mfod_faultline::points::STREAM_FLUSH) {
            return Err(StreamError::Pipeline(mfod::MfodError::Pipeline(
                "injected fault: stream.flush".into(),
            )));
        }
        pipeline.par_score(batch).map_err(Into::into)
    }));
    match result {
        Ok(Ok(scores)) => ScoreOutcome::Scores(scores),
        Ok(Err(e)) => ScoreOutcome::Failed(e),
        Err(payload) => ScoreOutcome::Panicked(panic_message(payload)),
    }
}

/// Accumulates windows and scores them in parallel through a shared
/// [`FittedPipeline`].
///
/// Invariants, property-tested in `tests/proptests.rs`:
/// * every submitted window is scored exactly once, or drained/shed with
///   an explicit count — never silently lost;
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
        if config.max_pending == Some(0) {
            return Err(StreamError::Config("max_pending must be >= 1".into()));
        }
        if let Some(deadline) = config.deadline {
            if deadline.budget.is_zero() {
                return Err(StreamError::Config(
                    "scoring deadline budget must be > 0".into(),
                ));
            }
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

    /// Counts `n` shed windows — load shedding is always loud.
    fn shed(&self, n: u64) {
        self.stats.record_sheds(n);
        if let Some(m) = mfod_obs::active() {
            m.sheds_total.add(n);
            m.win_sheds.add(n);
        }
    }

    /// Submits one window. Returns the scores released by this submission:
    /// empty unless the batch filled up (or `max_delay` expired), in which
    /// case every pending window is scored and returned in submission
    /// order. Under [`OverloadPolicy::Block`] a submission at capacity
    /// also releases the scores of the room-making flush.
    pub fn submit(&mut self, window: RawSample) -> Result<Vec<ScoredWindow>> {
        let mut released = Vec::new();
        if let Some(cap) = self.config.max_pending {
            if self.pending.len() >= cap {
                match self.config.overload {
                    OverloadPolicy::Reject => {
                        self.shed(1);
                        return Err(StreamError::Overloaded {
                            pending: self.pending.len(),
                            cap,
                        });
                    }
                    OverloadPolicy::DropOldest => {
                        let excess = self.pending.len() + 1 - cap;
                        self.pending.drain(..excess);
                        self.pending_seqs.drain(..excess);
                        self.shed(excess as u64);
                    }
                    OverloadPolicy::Block => match self.flush_with_reason(FlushReason::Manual) {
                        Ok(scored) => released = scored,
                        Err(e) => {
                            self.shed(1);
                            return Err(e);
                        }
                    },
                }
            }
        }
        if self.pending.is_empty() {
            self.oldest_pending = Some(Instant::now());
        }
        self.pending.push(window);
        self.pending_seqs.push(self.next_seq);
        self.next_seq += 1;
        let full = self.pending.len() >= self.config.batch_size;
        let expired = match (self.config.max_delay, self.oldest_pending) {
            (Some(limit), Some(oldest)) => oldest.elapsed() >= limit,
            _ => false,
        };
        if full || expired {
            released.extend(self.flush_with_reason(if full {
                FlushReason::Full
            } else {
                FlushReason::Expired
            })?);
        }
        Ok(released)
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

    /// Records one flush failure and restores the batch to the pending
    /// queue.
    fn flush_failed(
        &mut self,
        batch: Vec<RawSample>,
        seqs: Vec<u64>,
        err: StreamError,
    ) -> StreamError {
        self.pending = batch;
        self.pending_seqs = seqs;
        self.consecutive_failures += 1;
        self.last_error = Some(err.to_string());
        if let Some(m) = mfod_obs::active() {
            m.errors_total.add(1);
            m.win_errors.add(1);
        }
        err
    }

    fn flush_with_reason(&mut self, reason: FlushReason) -> Result<Vec<ScoredWindow>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        if self.consecutive_failures > self.config.max_flush_retries {
            if let Some(m) = mfod_obs::active() {
                m.errors_total.add(1);
                m.win_errors.add(1);
            }
            return Err(StreamError::FlushRetriesExhausted {
                attempts: self.consecutive_failures,
                last_error: self.last_error.clone().unwrap_or_default(),
            });
        }
        let obs = mfod_obs::active();
        // Batch assembly latency: how long the oldest window waited from
        // submission to the start of this flush.
        let assembly = match (obs, self.oldest_pending) {
            (Some(_), Some(oldest)) => Some(oldest.elapsed()),
            _ => None,
        };
        let batch = std::mem::take(&mut self.pending);
        let seqs = std::mem::take(&mut self.pending_seqs);
        let started = Instant::now();
        let outcome = match self.config.deadline {
            None => score_attempt(&self.pipeline, &batch),
            Some(deadline) => {
                // Score on a helper thread, under this thread's fault
                // plan, and wait at most `budget`. A timed-out run keeps
                // scoring in the background; its result is discarded
                // when the channel sender drops.
                let (tx, rx) = mpsc::channel();
                let pipeline = Arc::clone(&self.pipeline);
                let thread_batch = batch.clone();
                let scope = mfod_faultline::scope();
                std::thread::spawn(move || {
                    let _scope = mfod_faultline::enter(scope);
                    let _ = tx.send(score_attempt(&pipeline, &thread_batch));
                });
                match rx.recv_timeout(deadline.budget) {
                    Ok(outcome) => outcome,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.stats.record_deadline_miss();
                        if let Some(m) = obs {
                            m.deadline_misses.add(1);
                        }
                        let pending = batch.len();
                        return Err(self.flush_failed(
                            batch,
                            seqs,
                            StreamError::DeadlineExceeded {
                                budget: deadline.budget,
                                pending,
                            },
                        ));
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        ScoreOutcome::Panicked("scoring thread died".into())
                    }
                }
            }
        };
        let scores = match outcome {
            ScoreOutcome::Scores(scores) => scores,
            ScoreOutcome::Failed(e) => return Err(self.flush_failed(batch, seqs, e)),
            ScoreOutcome::Panicked(msg) => {
                return Err(self.flush_failed(batch, seqs, StreamError::ScorePanicked(msg)))
            }
        };
        self.oldest_pending = None;
        self.consecutive_failures = 0;
        self.last_error = None;
        let elapsed = started.elapsed();
        self.stats.record_batch(batch.len() as u64, elapsed);
        if let Some(m) = obs {
            match reason {
                FlushReason::Full => m.stream_flush_full.add(1),
                FlushReason::Expired => m.stream_flush_expired.add(1),
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
        Ok(seqs
            .into_iter()
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
    fn max_delay_forces_early_flush() {
        let (fitted, windows, _) = tiny_pipeline();
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 1000,
                max_delay: Some(Duration::ZERO),
                ..Default::default()
            },
            Arc::new(StreamStats::new()),
        )
        .unwrap();
        // With a zero delay budget every submission flushes immediately.
        let r1 = b.submit(windows[0].clone()).unwrap();
        assert_eq!(r1.len(), 1);
        let r2 = b.submit(windows[1].clone()).unwrap();
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].seq, 1);
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
            Arc::clone(&fitted),
            BatchConfig {
                batch_size: 0,
                ..Default::default()
            },
            Arc::new(StreamStats::new()),
        )
        .is_err());
        assert!(MicroBatcher::new(
            Arc::clone(&fitted),
            BatchConfig {
                max_pending: Some(0),
                ..Default::default()
            },
            Arc::new(StreamStats::new()),
        )
        .is_err());
        assert!(MicroBatcher::new(
            fitted,
            BatchConfig {
                deadline: Some(ScoringDeadline::new(Duration::ZERO)),
                ..Default::default()
            },
            Arc::new(StreamStats::new()),
        )
        .is_err());
    }

    #[test]
    fn deadline_miss_restores_pending_then_recovers() {
        let (fitted, windows, _) = tiny_pipeline();
        let stats = Arc::new(StreamStats::new());
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 100,
                deadline: Some(ScoringDeadline::new(Duration::from_millis(10))),
                ..Default::default()
            },
            Arc::clone(&stats),
        )
        .unwrap();
        for w in &windows[..3] {
            assert!(b.submit(w.clone()).unwrap().is_empty());
        }
        // One injected 100ms stall inside scoring blows the 10ms budget.
        mfod_faultline::install(
            mfod_faultline::FaultPlan::new(31).rule(
                mfod_faultline::points::STREAM_DELAY,
                mfod_faultline::FaultRule::always()
                    .times(1)
                    .delay(Duration::from_millis(100)),
            ),
        );
        let err = b.flush().unwrap_err();
        mfod_faultline::disarm();
        assert!(
            matches!(err, StreamError::DeadlineExceeded { pending: 3, .. }),
            "{err}"
        );
        // The batch is back in the queue; the fault is exhausted, so a
        // retry succeeds with the original sequence numbers.
        assert_eq!(b.pending(), 3);
        assert_eq!(b.consecutive_failures(), 1);
        assert_eq!(stats.snapshot().deadline_misses, 1);
        let scored = b.flush().unwrap();
        assert_eq!(
            scored.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn injected_flush_faults_exhaust_into_typed_give_up() {
        let (fitted, windows, _) = tiny_pipeline();
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 100,
                max_flush_retries: 1,
                ..Default::default()
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

    #[test]
    fn reject_policy_sheds_the_new_window() {
        let (fitted, windows, _) = tiny_pipeline();
        let stats = Arc::new(StreamStats::new());
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 100,
                max_pending: Some(2),
                overload: OverloadPolicy::Reject,
                ..Default::default()
            },
            Arc::clone(&stats),
        )
        .unwrap();
        b.submit(windows[0].clone()).unwrap();
        b.submit(windows[1].clone()).unwrap();
        let err = b.submit(windows[2].clone()).unwrap_err();
        assert!(
            matches!(err, StreamError::Overloaded { pending: 2, cap: 2 }),
            "{err}"
        );
        assert_eq!(stats.snapshot().sheds, 1);
        // The shed window consumed no seq: the queued pair scores 0 and 1,
        // and the next submission gets seq 2.
        let scored = b.flush().unwrap();
        assert_eq!(scored.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![0, 1]);
        b.submit(windows[3].clone()).unwrap();
        let scored = b.flush().unwrap();
        assert_eq!(scored[0].seq, 2);
    }

    #[test]
    fn drop_oldest_policy_keeps_the_freshest_windows() {
        let (fitted, windows, _) = tiny_pipeline();
        let stats = Arc::new(StreamStats::new());
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 100,
                max_pending: Some(2),
                overload: OverloadPolicy::DropOldest,
                ..Default::default()
            },
            Arc::clone(&stats),
        )
        .unwrap();
        b.submit(windows[0].clone()).unwrap();
        b.submit(windows[1].clone()).unwrap();
        // At capacity: the oldest window (seq 0) is shed, the new one
        // enqueues as seq 2.
        assert!(b.submit(windows[2].clone()).unwrap().is_empty());
        assert_eq!(b.pending(), 2);
        assert_eq!(stats.snapshot().sheds, 1);
        let scored = b.flush().unwrap();
        assert_eq!(scored.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn block_policy_flushes_inline_to_make_room() {
        let (fitted, windows, _) = tiny_pipeline();
        let stats = Arc::new(StreamStats::new());
        let mut b = MicroBatcher::new(
            fitted,
            BatchConfig {
                batch_size: 100,
                max_pending: Some(2),
                overload: OverloadPolicy::Block,
                ..Default::default()
            },
            Arc::clone(&stats),
        )
        .unwrap();
        b.submit(windows[0].clone()).unwrap();
        b.submit(windows[1].clone()).unwrap();
        // At capacity the submission flushes inline: seqs 0 and 1 come
        // back from the blocking flush, the new window enqueues as seq 2.
        let released = b.submit(windows[2].clone()).unwrap();
        assert_eq!(
            released.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(b.pending(), 1);
        assert_eq!(stats.snapshot().sheds, 0);
        // If the room-making flush fails, the new window is shed and the
        // flush error propagates; the queued windows survive.
        b.submit(windows[3].clone()).unwrap();
        mfod_faultline::install(mfod_faultline::FaultPlan::new(33).rule(
            mfod_faultline::points::STREAM_FLUSH,
            mfod_faultline::FaultRule::always().times(1),
        ));
        let err = b.submit(windows[4].clone()).unwrap_err();
        mfod_faultline::disarm();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(b.pending(), 2);
        assert_eq!(stats.snapshot().sheds, 1);
        let scored = b.flush().unwrap();
        assert_eq!(scored.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![2, 3]);
    }
}
