//! Set-up and client pieces shared by the two serving workloads
//! (`stream`, `rollout`): model fitting on a contaminated split, snapshot
//! encoding, and a closed-loop client that pushes one beat per window into
//! an `OnlineScorer` and times every window from the push that completes it
//! to the call that hands back its verdict.

use crate::common::{ecg_beats, ms};
use crate::trace::span;
use mfod::datasets::{EcgConfig, LabeledDataSet, SplitConfig};
use mfod::detect::IsolationForest;
use mfod::fda::RawSample;
use mfod::geometry::Curvature;
use mfod::pipeline::{FittedPipeline, GeomOutlierPipeline, PipelineConfig};
use mfod_stream::{BatchConfig, OnlineScorer, StreamConfig, Verdict, WindowConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Training contamination of every served model, and the alarm rate it is
/// calibrated to.
pub const CONTAMINATION: f64 = 0.10;

/// Input sizes of the serving workloads.
#[derive(Debug, Clone)]
pub struct Scale {
    pub ecg: EcgConfig,
    pub n_normal: usize,
    pub n_abnormal: usize,
    pub train_size: usize,
    pub pipeline: PipelineConfig,
    pub iforest: IsolationForest,
    /// Distinct beats the stream client cycles through.
    pub stream_beats: usize,
    /// Windows in a traced stream pass.
    pub trace_windows: usize,
    /// Models the rollout cycles through.
    pub models: usize,
    /// Windows per rollout session.
    pub session: usize,
    /// Distinct beats the rollout sessions draw from.
    pub session_beats: usize,
    /// Deployments per model store before it is checked and replaced.
    pub epoch: usize,
    /// Every `rollback_every`-th deployment of an epoch is a rollback.
    pub rollback_every: usize,
    /// Deployments in a traced rollout pass.
    pub trace_cycles: usize,
}

impl Scale {
    pub fn new(smoke: bool) -> Scale {
        if smoke {
            Scale {
                ecg: EcgConfig {
                    m: 40,
                    ..Default::default()
                },
                n_normal: 40,
                n_abnormal: 20,
                train_size: 30,
                pipeline: PipelineConfig::fast(),
                iforest: IsolationForest {
                    n_trees: 20,
                    ..Default::default()
                },
                stream_beats: 48,
                trace_windows: 48,
                models: 2,
                session: 2,
                session_beats: 8,
                epoch: 8,
                rollback_every: 4,
                trace_cycles: 12,
            }
        } else {
            Scale {
                ecg: EcgConfig::default(),
                n_normal: 128,
                n_abnormal: 64,
                train_size: 96,
                pipeline: PipelineConfig::default(),
                iforest: IsolationForest::default(),
                stream_beats: 2048,
                trace_windows: 4096,
                models: 4,
                session: 4,
                session_beats: 64,
                epoch: 64,
                rollback_every: 8,
                trace_cycles: 128,
            }
        }
    }

    /// The labeled beats models are fitted on.
    pub fn data(&self, seed: u64) -> Result<LabeledDataSet, String> {
        span("datasets.generate", || {
            ecg_beats(&self.ecg, self.n_normal, self.n_abnormal, seed)
        })
    }

    /// Fits curvature + iForest on the `split_seed` training split.
    pub fn fit(
        &self,
        data: &LabeledDataSet,
        split_seed: u64,
    ) -> Result<(Arc<FittedPipeline>, LabeledDataSet), String> {
        let split = SplitConfig {
            train_size: self.train_size,
            contamination: CONTAMINATION,
        };
        let (train, _) = span("datasets.split", || split.split_datasets(data, split_seed))
            .map_err(|e| format!("split: {e}"))?;
        let pipeline = GeomOutlierPipeline::new(
            self.pipeline.clone(),
            Arc::new(Curvature),
            Arc::new(self.iforest.clone()),
        );
        let fitted =
            span("mfod.fit", || pipeline.fit(train.samples())).map_err(|e| format!("fit: {e}"))?;
        Ok((Arc::new(fitted), train))
    }
}

/// Snapshot bytes of a fitted model (`FittedPipeline::snapshot` +
/// `persist::to_bytes`).
pub fn encode(model: &FittedPipeline) -> Result<Vec<u8>, String> {
    span("persist.encode", || {
        model.snapshot().map(|s| mfod_persist::to_bytes(&s))
    })
    .map_err(|e| format!("encode: {e}"))
}

/// Tumbling beat-length windows, default micro-batching, exact scoring.
pub fn stream_config(ts: &[f64]) -> StreamConfig {
    StreamConfig {
        window: WindowConfig::tumbling(ts.to_vec(), 2),
        batch: BatchConfig::default(),
    }
}

/// Checks verdict scores against reference scores per *slot* (the input
/// a window was built from) in memory bounded by the number of slots:
/// every window of a slot must carry the same bits, and those bits must
/// equal the slot's reference score.
struct ScoreCheck {
    first: Vec<Option<u64>>,
    windows: Vec<u64>,
    conflicts: u64,
    conflict: Option<String>,
}

impl ScoreCheck {
    fn record(&mut self, slot: usize, score: f64) {
        self.windows[slot] += 1;
        match self.first[slot] {
            None => self.first[slot] = Some(score.to_bits()),
            Some(bits) if bits != score.to_bits() => {
                self.conflicts += 1;
                self.conflict.get_or_insert_with(|| {
                    format!("slot {slot}: verdict scores differ between windows")
                });
            }
            Some(_) => {}
        }
    }
}

/// The client side of a stream: pushes windows, times each one from the
/// push that completes it to the call that hands back its verdict, and
/// checks the verdicts.
pub struct WindowLog {
    /// Index of the current scorer's window 0 (each session's scorer
    /// numbers its windows from 0).
    base: u64,
    pushed: u64,
    /// Windows awaiting their verdict: index, start, slot.
    pending: VecDeque<(u64, Instant, usize)>,
    /// Latency of every window that got its verdict (ms), in order.
    pub latency: Vec<f64>,
    scores: ScoreCheck,
    /// Verdicts for windows never pushed, or handed back twice.
    unexpected: u64,
}

impl WindowLog {
    /// A log for windows built from `slots` distinct inputs.
    pub fn new(slots: usize) -> WindowLog {
        WindowLog {
            base: 0,
            pushed: 0,
            pending: VecDeque::new(),
            latency: Vec::new(),
            scores: ScoreCheck {
                first: vec![None; slots],
                windows: vec![0; slots],
                conflicts: 0,
                conflict: None,
            },
            unexpected: 0,
        }
    }

    /// Windows pushed so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    pub fn new_session(&mut self) {
        self.base = self.pushed;
    }

    fn returned(&mut self, verdicts: &[Verdict], at: Instant) {
        for v in verdicts {
            match self.pending.front() {
                Some(&(index, start, slot)) if index == self.base + v.seq => {
                    self.pending.pop_front();
                    self.latency.push(ms(at - start));
                    self.scores.record(slot, v.score);
                }
                _ => self.unexpected += 1,
            }
        }
    }

    /// Pushes `beat` one observation at a time; the window's clock starts
    /// at the push of its last observation. `slot` names the input for the
    /// score check.
    pub fn push_window(
        &mut self,
        scorer: &mut OnlineScorer,
        beat: &RawSample,
        slot: usize,
    ) -> Result<(), String> {
        let m = beat.t.len();
        let obs = |j: usize| [beat.channels[0][j], beat.channels[1][j]];
        for j in 0..m - 1 {
            let early = scorer.push(&obs(j)).map_err(|e| format!("push: {e}"))?;
            self.unexpected += early.len() as u64;
        }
        self.pending.push_back((self.pushed, Instant::now(), slot));
        self.pushed += 1;
        let verdicts = scorer.push(&obs(m - 1)).map_err(|e| format!("push: {e}"))?;
        self.returned(&verdicts, Instant::now());
        Ok(())
    }

    /// Flushes the scorer's pending windows (`OnlineScorer::finish`).
    pub fn finish(&mut self, scorer: &mut OnlineScorer) -> Result<(), String> {
        let verdicts = scorer.finish().map_err(|e| format!("finish: {e}"))?;
        self.returned(&verdicts, Instant::now());
        Ok(())
    }

    /// Failed windows against the slots' reference scores (missing,
    /// unexpected and mismatching verdicts), and the first failure.
    pub fn verify(&self, reference: impl Fn(usize) -> f64) -> (u64, Option<String>) {
        let c = &self.scores;
        let mut failed = self.unexpected + self.pending.len() as u64 + c.conflicts;
        let mut first = (self.unexpected > 0)
            .then(|| format!("{} unexpected verdicts", self.unexpected))
            .or_else(|| {
                (!self.pending.is_empty())
                    .then(|| format!("{} windows never got a verdict", self.pending.len()))
            })
            .or_else(|| c.conflict.clone());
        for (slot, bits) in c.first.iter().enumerate() {
            let Some(bits) = bits else { continue };
            let want = reference(slot);
            if *bits != want.to_bits() {
                failed += c.windows[slot];
                first.get_or_insert_with(|| {
                    format!(
                        "slot {slot}: verdict score {} != offline score {want}",
                        f64::from_bits(*bits)
                    )
                });
            }
        }
        // a window can both conflict and sit in a mismatching slot
        (failed.min(self.pushed), first)
    }
}
