//! Running throughput / latency counters for the scoring engine.
//!
//! [`StreamStats`] is a thin view over `mfod-obs` primitives: the
//! counters (observations, windows, batches, alarms, quarantines and
//! scoring time) are [`mfod_obs::Counter`]s, and per-batch scoring
//! latency additionally feeds a per-instance [`mfod_obs::Histogram`], so
//! p50/p95/p99 latency is available from [`StreamStats::latency_snapshot`]
//! without enabling the global recorder.

use mfod_obs::{Counter, Histogram, HistogramSnapshot};
use std::time::Duration;

/// Lock-free counters shared by the streaming components. All methods are
/// callable concurrently; readers see a consistent-enough snapshot for
/// monitoring purposes (no cross-counter atomicity is promised).
#[derive(Debug, Default)]
pub struct StreamStats {
    observations: Counter,
    windows: Counter,
    batches: Counter,
    alarms: Counter,
    quarantined: Counter,
    scoring_nanos: Counter,
    /// Per-batch end-to-end scoring latency in nanoseconds (one sample
    /// per flushed micro-batch).
    latency: Histogram,
}

/// A point-in-time copy of [`StreamStats`].
///
/// Ratio accessors ([`StatsSnapshot::windows_per_sec`],
/// [`StatsSnapshot::mean_latency`], [`StatsSnapshot::mean_batch_size`])
/// uniformly return `None` until the first micro-batch has flushed —
/// there is no zero-sentinel path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Raw multichannel observations ingested.
    pub observations: u64,
    /// Windows scored.
    pub windows: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Windows whose score crossed the calibrated threshold.
    pub alarms: u64,
    /// Quarantine events: batches moved aside after exhausting flush
    /// retries (one per quarantined batch, not per window).
    pub quarantined: u64,
    /// Total wall-clock time spent scoring micro-batches end to end
    /// (smoothing → mapping → transform → detector; the per-sample
    /// cross-validated smoothing dominates).
    pub scoring_time: Duration,
}

impl StatsSnapshot {
    /// Mean scored windows per second of scoring time (`None` before the
    /// first batch lands).
    pub fn windows_per_sec(&self) -> Option<f64> {
        let secs = self.scoring_time.as_secs_f64();
        (secs > 0.0 && self.windows > 0).then(|| self.windows as f64 / secs)
    }

    /// Mean scoring latency per window (`None` before the first batch).
    pub fn mean_latency(&self) -> Option<Duration> {
        // Divide in u128 nanos: a `Duration / u32` would truncate the
        // window count on very long-lived streams (≥ 2³² windows).
        (self.windows > 0).then(|| {
            Duration::from_nanos((self.scoring_time.as_nanos() / self.windows as u128) as u64)
        })
    }

    /// Mean windows per flushed micro-batch (`None` before the first
    /// batch) — the knob the scoring fan-out scales with: each batch is
    /// split across the worker pool, so larger effective batches give
    /// the work-stealing scheduler more sub-chunks to balance and
    /// [`StatsSnapshot::windows_per_sec`] directly observes the win.
    pub fn mean_batch_size(&self) -> Option<f64> {
        (self.batches > 0).then(|| self.windows as f64 / self.batches as f64)
    }
}

impl StreamStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_observation(&self) {
        self.observations.add(1);
    }

    pub(crate) fn record_batch(&self, windows: u64, elapsed: Duration) {
        self.batches.add(1);
        self.windows.add(windows);
        self.scoring_nanos
            .add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
        self.latency.record_duration(elapsed);
    }

    pub(crate) fn record_alarms(&self, alarms: u64) {
        self.alarms.add(alarms);
    }

    pub(crate) fn record_quarantine(&self) {
        self.quarantined.add(1);
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            observations: self.observations.get(),
            windows: self.windows.get(),
            batches: self.batches.get(),
            alarms: self.alarms.get(),
            quarantined: self.quarantined.get(),
            scoring_time: Duration::from_nanos(self.scoring_nanos.get()),
        }
    }

    /// The per-batch scoring-latency histogram (one sample per flushed
    /// micro-batch). Quantiles come from
    /// [`HistogramSnapshot::quantile_duration`]; like the mean-style
    /// accessors they return `None` until the first batch has flushed.
    /// Always populated — this histogram is per-instance and does not
    /// require `MFOD_OBS=1`.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StreamStats::new();
        assert_eq!(s.snapshot().windows_per_sec(), None);
        assert_eq!(s.snapshot().mean_latency(), None);
        s.record_observation();
        s.record_observation();
        s.record_batch(8, Duration::from_millis(4));
        s.record_alarms(2);
        s.record_batch(8, Duration::from_millis(4));
        s.record_quarantine();
        let snap = s.snapshot();
        assert_eq!(snap.observations, 2);
        assert_eq!(snap.windows, 16);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.alarms, 2);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.scoring_time, Duration::from_millis(8));
        let wps = snap.windows_per_sec().unwrap();
        assert!((wps - 2000.0).abs() < 1.0, "wps {wps}");
        assert_eq!(snap.mean_latency().unwrap(), Duration::from_micros(500));
        assert_eq!(snap.mean_batch_size(), Some(8.0));
        assert_eq!(StreamStats::new().snapshot().mean_batch_size(), None);
    }

    #[test]
    fn empty_stats_have_no_ratios_or_quantiles() {
        // The documented empty path: every derived accessor is `None`
        // (never a zero sentinel) before the first flushed batch, even
        // when observations have already been ingested.
        let s = StreamStats::new();
        s.record_observation();
        let snap = s.snapshot();
        assert_eq!(snap.observations, 1);
        assert_eq!(snap.windows_per_sec(), None);
        assert_eq!(snap.mean_latency(), None);
        assert_eq!(snap.mean_batch_size(), None);
        let lat = s.latency_snapshot();
        assert_eq!(lat.count, 0);
        assert_eq!(lat.quantile_duration(0.5), None);
        assert_eq!(lat.quantile_duration(0.99), None);
        assert_eq!(lat.mean(), None);
    }

    #[test]
    fn latency_histogram_tracks_batches() {
        let s = StreamStats::new();
        s.record_batch(4, Duration::from_micros(100));
        s.record_batch(4, Duration::from_micros(900));
        let lat = s.latency_snapshot();
        assert_eq!(lat.count, 2);
        let p50 = lat.quantile_duration(0.5).unwrap();
        let p99 = lat.quantile_duration(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 >= Duration::from_micros(900), "p99 {p99:?}");
        assert_eq!(lat.max, Duration::from_micros(900).as_nanos() as u64);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let s = StreamStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.record_batch(1, Duration::from_nanos(10));
                    }
                });
            }
        });
        assert_eq!(s.snapshot().windows, 4000);
        assert_eq!(s.snapshot().batches, 4000);
        assert_eq!(s.latency_snapshot().count, 4000);
    }
}
