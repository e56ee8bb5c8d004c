//! Window ingestion: turning an unbounded multichannel sample stream into
//! consecutive fixed-length [`RawSample`] windows.

use crate::error::StreamError;
use crate::Result;
use mfod_fda::RawSample;

/// Geometry of the window: every `ts.len()` observations form one window.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Observation times assigned to every emitted window (strictly
    /// increasing, at least 2) — normally the training grid of the fitted
    /// pipeline. Its length is the window length.
    pub ts: Vec<f64>,
    /// Channels per observation.
    pub channels: usize,
}

impl WindowConfig {
    /// Tumbling windows over `ts`: each observation lands in exactly one
    /// window.
    pub fn tumbling(ts: Vec<f64>, channels: usize) -> Self {
        WindowConfig { ts, channels }
    }

    fn validate(&self) -> Result<()> {
        if self.ts.len() < 2 {
            return Err(StreamError::Config(format!(
                "window ts must have >= 2 entries, got {}",
                self.ts.len()
            )));
        }
        if self.channels == 0 {
            return Err(StreamError::Config("need at least one channel".into()));
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

/// Per-channel buffers that assemble the observation stream into
/// consecutive fixed-length windows.
///
/// Invariants, property-tested in `tests/proptests.rs`:
/// * window `w` contains exactly the observations `[w·len, (w+1)·len)`
///   of the stream, per channel, where `len = ts.len()`;
/// * every window is emitted exactly once, in stream order;
/// * memory is `O(channels × len)` regardless of stream length.
#[derive(Debug, Clone)]
pub struct WindowBuffer {
    config: WindowConfig,
    /// The window being filled, one `Vec` per channel; moved into the
    /// emitted [`RawSample`] once it holds `ts.len()` observations.
    filling: Vec<Vec<f64>>,
    /// Observations ingested so far.
    pushed: u64,
    /// Windows emitted so far.
    emitted: u64,
}

impl WindowBuffer {
    /// Creates an empty buffer for the given geometry.
    pub fn new(config: WindowConfig) -> Result<Self> {
        config.validate()?;
        let filling = vec![Vec::with_capacity(config.ts.len()); config.channels];
        Ok(WindowBuffer {
            config,
            filling,
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
    /// Returns the completed window, if this observation completed one:
    /// every `ts.len()`-th accepted observation does.
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
        for (channel, &v) in self.filling.iter_mut().zip(obs) {
            channel.push(v);
        }
        self.pushed += 1;

        let len = self.config.ts.len();
        if self.filling[0].len() < len {
            return Ok(None);
        }
        let channels = self
            .filling
            .iter_mut()
            .map(|channel| std::mem::replace(channel, Vec::with_capacity(len)))
            .collect();
        let sample =
            RawSample::new(self.config.ts.clone(), channels).map_err(mfod::MfodError::from)?;
        self.emitted += 1;
        Ok(Some(sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_len: usize, channels: usize) -> WindowConfig {
        let ts = (0..window_len)
            .map(|j| j as f64 / (window_len - 1) as f64)
            .collect();
        WindowConfig::tumbling(ts, channels)
    }

    #[test]
    fn tumbling_reconstructs_stream() {
        let mut buf = WindowBuffer::new(cfg(4, 2)).unwrap();
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
    fn windows_carry_the_configured_ts() {
        let ts: Vec<f64> = vec![0.0, 0.25, 0.5, 1.0];
        let mut buf = WindowBuffer::new(WindowConfig::tumbling(ts.clone(), 1)).unwrap();
        let mut got = None;
        for i in 0..4 {
            got = buf.push(&[i as f64]).unwrap();
        }
        assert_eq!(got.unwrap().t, ts);
    }

    #[test]
    fn rejects_bad_configs_and_inputs() {
        assert!(WindowBuffer::new(WindowConfig::tumbling(vec![0.0], 1)).is_err());
        assert!(WindowBuffer::new(cfg(4, 0)).is_err());
        let mut bad_ts = cfg(4, 1);
        bad_ts.ts[2] = bad_ts.ts[1]; // not strictly increasing
        assert!(WindowBuffer::new(bad_ts).is_err());
        let mut nan_ts = cfg(4, 1);
        nan_ts.ts[0] = f64::NAN;
        assert!(WindowBuffer::new(nan_ts).is_err());

        let mut buf = WindowBuffer::new(cfg(4, 2)).unwrap();
        assert!(buf.push(&[1.0]).is_err());
        assert!(buf.push(&[1.0, f64::INFINITY]).is_err());
        // errors must not corrupt the count
        assert_eq!(buf.observations(), 0);
    }

    #[test]
    fn injected_poison_is_rejected_like_real_corruption() {
        let mut buf = WindowBuffer::new(cfg(4, 2)).unwrap();
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
        assert_eq!(c.ts.len(), 8);
        assert_eq!(c.channels, 3);
        assert!(WindowBuffer::new(c).is_ok());
    }
}
