//! Sliding-window ingestion: turning an unbounded multichannel sample
//! stream into fixed-length [`RawSample`] windows.

use crate::error::StreamError;
use crate::Result;
use mfod_fda::RawSample;
use std::collections::VecDeque;

/// Geometry of the sliding window.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Observations per emitted window; must equal the number of
    /// observation times the downstream pipeline was trained on.
    pub window_len: usize,
    /// Hop between consecutive window starts: `stride == window_len`
    /// tumbles (every observation in exactly one window), `stride <
    /// window_len` overlaps, `stride > window_len` samples with gaps.
    pub stride: usize,
    /// Channels per observation.
    pub channels: usize,
    /// Observation times assigned to every emitted window (length
    /// `window_len`, strictly increasing) — normally the training grid of
    /// the fitted pipeline.
    pub ts: Vec<f64>,
}

impl WindowConfig {
    /// Tumbling windows (`stride = window_len`) over `ts`.
    pub fn tumbling(ts: Vec<f64>, channels: usize) -> Self {
        WindowConfig {
            window_len: ts.len(),
            stride: ts.len(),
            channels,
            ts,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.window_len < 2 {
            return Err(StreamError::Config(format!(
                "window_len must be >= 2, got {}",
                self.window_len
            )));
        }
        if self.stride == 0 {
            return Err(StreamError::Config("stride must be >= 1".into()));
        }
        if self.channels == 0 {
            return Err(StreamError::Config("need at least one channel".into()));
        }
        if self.ts.len() != self.window_len {
            return Err(StreamError::Config(format!(
                "ts has {} entries, window_len is {}",
                self.ts.len(),
                self.window_len
            )));
        }
        if !self.ts.iter().all(|t| t.is_finite()) {
            return Err(StreamError::Config("window ts must be finite".into()));
        }
        if self.ts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StreamError::Config(
                "window ts must be strictly increasing".into(),
            ));
        }
        Ok(())
    }
}

/// Per-channel ring buffers that assemble the observation stream into
/// overlapping (or gapped) fixed-length windows.
///
/// Invariants, property-tested in `tests/proptests.rs`:
/// * window `w` contains exactly the observations
///   `[w·stride, w·stride + window_len)` of the stream, per channel;
/// * every window is emitted exactly once, in stream order;
/// * memory is `O(channels × window_len)` regardless of stream length.
#[derive(Debug, Clone)]
pub struct WindowBuffer {
    config: WindowConfig,
    /// Last `window_len` observations per channel.
    rings: Vec<VecDeque<f64>>,
    /// Observations ingested so far.
    pushed: u64,
    /// Windows emitted so far.
    emitted: u64,
}

impl WindowBuffer {
    /// Creates an empty buffer for the given geometry.
    pub fn new(config: WindowConfig) -> Result<Self> {
        config.validate()?;
        let rings = vec![VecDeque::with_capacity(config.window_len + 1); config.channels];
        Ok(WindowBuffer {
            config,
            rings,
            pushed: 0,
            emitted: 0,
        })
    }

    /// The configured geometry.
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// Observations ingested so far.
    pub fn observations(&self) -> u64 {
        self.pushed
    }

    /// Windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.emitted
    }

    /// Ingests one multichannel observation (`obs[k]` = channel `k`).
    ///
    /// Returns the completed window, if this observation completed one: at
    /// most one window can complete per observation, since windows are
    /// `window_len` long and start every `stride` observations.
    pub fn push(&mut self, obs: &[f64]) -> Result<Option<RawSample>> {
        if obs.len() != self.config.channels {
            return Err(StreamError::Ingest(format!(
                "observation has {} channels, stream is configured for {}",
                obs.len(),
                self.config.channels
            )));
        }
        // Injected fault: corrupt one channel value to NaN *before* the
        // finiteness gate, modeling upstream data corruption. The gate
        // below must reject it and leave the buffer untouched.
        let poisoned: Option<Vec<f64>> =
            mfod_faultline::should_fire(mfod_faultline::points::STREAM_POISON).then(|| {
                let mut p = obs.to_vec();
                p[0] = f64::NAN;
                p
            });
        let obs: &[f64] = poisoned.as_deref().unwrap_or(obs);
        if !obs.iter().all(|v| v.is_finite()) {
            return Err(StreamError::Ingest(
                "observation values must be finite".into(),
            ));
        }
        for (ring, &v) in self.rings.iter_mut().zip(obs) {
            if ring.len() == self.config.window_len {
                ring.pop_front();
            }
            ring.push_back(v);
        }
        self.pushed += 1;

        let len = self.config.window_len as u64;
        let stride = self.config.stride as u64;
        if self.pushed >= len && (self.pushed - len).is_multiple_of(stride) {
            let channels: Vec<Vec<f64>> = self
                .rings
                .iter()
                .map(|r| r.iter().copied().collect())
                .collect();
            let sample =
                RawSample::new(self.config.ts.clone(), channels).map_err(mfod::MfodError::from)?;
            self.emitted += 1;
            return Ok(Some(sample));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_len: usize, stride: usize, channels: usize) -> WindowConfig {
        let ts = (0..window_len)
            .map(|j| j as f64 / (window_len - 1) as f64)
            .collect();
        WindowConfig {
            window_len,
            stride,
            channels,
            ts,
        }
    }

    #[test]
    fn tumbling_reconstructs_stream() {
        let mut buf = WindowBuffer::new(cfg(4, 4, 2)).unwrap();
        let mut windows = Vec::new();
        for i in 0..12 {
            let obs = [i as f64, 100.0 + i as f64];
            if let Some(w) = buf.push(&obs).unwrap() {
                windows.push(w);
            }
        }
        assert_eq!(windows.len(), 3);
        assert_eq!(buf.windows_emitted(), 3);
        assert_eq!(buf.observations(), 12);
        for (w_idx, w) in windows.iter().enumerate() {
            let (_, ch0) = w.channel(0).unwrap();
            let (_, ch1) = w.channel(1).unwrap();
            for j in 0..4 {
                assert_eq!(ch0[j], (w_idx * 4 + j) as f64);
                assert_eq!(ch1[j], 100.0 + (w_idx * 4 + j) as f64);
            }
        }
    }

    #[test]
    fn overlapping_windows_share_observations() {
        let mut buf = WindowBuffer::new(cfg(5, 2, 1)).unwrap();
        let mut starts = Vec::new();
        for i in 0..11 {
            if let Some(w) = buf.push(&[i as f64]).unwrap() {
                let (_, ys) = w.channel(0).unwrap();
                starts.push(ys[0] as usize);
                assert_eq!(ys.len(), 5);
                for (j, &y) in ys.iter().enumerate() {
                    assert_eq!(y as usize, ys[0] as usize + j);
                }
            }
        }
        assert_eq!(starts, vec![0, 2, 4, 6]);
    }

    #[test]
    fn gapped_stride_skips_observations() {
        let mut buf = WindowBuffer::new(cfg(3, 5, 1)).unwrap();
        let mut starts = Vec::new();
        for i in 0..14 {
            if let Some(w) = buf.push(&[i as f64]).unwrap() {
                starts.push(w.channel(0).unwrap().1[0] as usize);
            }
        }
        // windows start at 0, 5, 10 and need 3 observations each
        assert_eq!(starts, vec![0, 5, 10]);
    }

    #[test]
    fn windows_carry_the_configured_ts() {
        let ts: Vec<f64> = vec![0.0, 0.25, 0.5, 1.0];
        let mut buf = WindowBuffer::new(WindowConfig {
            window_len: 4,
            stride: 4,
            channels: 1,
            ts: ts.clone(),
        })
        .unwrap();
        let mut got = None;
        for i in 0..4 {
            got = buf.push(&[i as f64]).unwrap();
        }
        assert_eq!(got.unwrap().t, ts);
    }

    #[test]
    fn rejects_bad_configs_and_inputs() {
        assert!(WindowBuffer::new(cfg(1, 1, 1)).is_err());
        assert!(WindowBuffer::new(cfg(4, 0, 1)).is_err());
        assert!(WindowBuffer::new(cfg(4, 4, 0)).is_err());
        let mut bad_ts = cfg(4, 4, 1);
        bad_ts.ts[2] = bad_ts.ts[1]; // not strictly increasing
        assert!(WindowBuffer::new(bad_ts).is_err());
        let mut nan_ts = cfg(4, 4, 1);
        nan_ts.ts[0] = f64::NAN;
        assert!(WindowBuffer::new(nan_ts).is_err());
        let mut short = cfg(4, 4, 1);
        short.ts.pop();
        assert!(WindowBuffer::new(short).is_err());

        let mut buf = WindowBuffer::new(cfg(4, 4, 2)).unwrap();
        assert!(buf.push(&[1.0]).is_err());
        assert!(buf.push(&[1.0, f64::INFINITY]).is_err());
        // errors must not corrupt the count
        assert_eq!(buf.observations(), 0);
    }

    #[test]
    fn injected_poison_is_rejected_like_real_corruption() {
        let mut buf = WindowBuffer::new(cfg(4, 4, 2)).unwrap();
        mfod_faultline::install(mfod_faultline::FaultPlan::new(51).rule(
            mfod_faultline::points::STREAM_POISON,
            mfod_faultline::FaultRule::always().times(1),
        ));
        // The poisoned observation is rejected by the finiteness gate and
        // the buffer is untouched — exactly like a real NaN push.
        let err = buf.push(&[1.0, 2.0]).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        assert_eq!(buf.observations(), 0);
        assert_eq!(buf.windows_emitted(), 0);
        // With the fault exhausted the same observation ingests cleanly.
        assert!(buf.push(&[1.0, 2.0]).unwrap().is_none());
        assert_eq!(buf.observations(), 1);
        let report = mfod_faultline::disarm().unwrap();
        assert_eq!(report.fires(mfod_faultline::points::STREAM_POISON), 1);
    }

    #[test]
    fn tumbling_constructor() {
        let ts: Vec<f64> = (0..8).map(|j| j as f64).collect();
        let c = WindowConfig::tumbling(ts, 3);
        assert_eq!(c.window_len, 8);
        assert_eq!(c.stride, 8);
        assert_eq!(c.channels, 3);
        assert!(WindowBuffer::new(c).is_ok());
    }
}
