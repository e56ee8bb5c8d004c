//! Score → alarm calibration.
//!
//! Detectors emit raw outlyingness scores on arbitrary scales; a serving
//! system needs a binary decision. Following the paper's contamination-
//! rate framing (the training set is assumed to contain a known fraction
//! of outliers), the threshold is the empirical `1 − contamination`
//! quantile of the *training* scores: anything scoring above what the
//! cleanest `1 − contamination` share of training data scored is flagged.

use crate::error::StreamError;
use crate::Result;
use mfod::FittedPipeline;
use mfod_fda::RawSample;
use mfod_linalg::vector;

/// Converts raw outlyingness scores into binary alarms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdCalibrator {
    threshold: f64,
    contamination: f64,
}

impl ThresholdCalibrator {
    /// Calibrates from already-computed training scores.
    pub fn from_scores(train_scores: &[f64], contamination: f64) -> Result<Self> {
        if train_scores.is_empty() {
            return Err(StreamError::Config("no training scores supplied".into()));
        }
        if !vector::all_finite(train_scores) {
            return Err(StreamError::Config("training scores must be finite".into()));
        }
        if !(0.0..1.0).contains(&contamination) || contamination <= 0.0 {
            return Err(StreamError::Config(format!(
                "contamination must be in (0, 1), got {contamination}"
            )));
        }
        let threshold = vector::quantile(train_scores, 1.0 - contamination);
        Ok(ThresholdCalibrator {
            threshold,
            contamination,
        })
    }

    /// Calibrates by scoring the training samples through `fitted` — the
    /// same path the stream serves, so the realized alarm rate tracks the
    /// requested contamination.
    pub fn fit(fitted: &FittedPipeline, train: &[RawSample], contamination: f64) -> Result<Self> {
        let scores = fitted.par_score(train)?;
        Self::from_scores(&scores, contamination)
    }

    /// The calibrated score threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The contamination rate used for calibration.
    pub fn contamination(&self) -> f64 {
        self.contamination
    }

    /// Whether `score` crosses the alarm threshold.
    pub fn is_alarm(&self, score: f64) -> bool {
        score > self.threshold
    }
}

impl mfod_persist::Encode for ThresholdCalibrator {
    fn encode(&self, w: &mut mfod_persist::Encoder) {
        w.put_f64(self.threshold);
        w.put_f64(self.contamination);
    }
}

impl mfod_persist::Decode for ThresholdCalibrator {
    fn decode(r: &mut mfod_persist::Decoder<'_>) -> mfod_persist::Result<Self> {
        let threshold = r.take_f64()?;
        let contamination = r.take_f64()?;
        // same domain rules `from_scores` enforces at calibration time
        if !threshold.is_finite() {
            return Err(mfod_persist::PersistError::Malformed(format!(
                "calibrator threshold {threshold} is not finite"
            )));
        }
        if !(contamination > 0.0 && contamination < 1.0) {
            return Err(mfod_persist::PersistError::Malformed(format!(
                "calibrator contamination {contamination} outside (0, 1)"
            )));
        }
        Ok(ThresholdCalibrator {
            threshold,
            contamination,
        })
    }
}

impl mfod_persist::Snapshot for ThresholdCalibrator {
    const KIND: u32 = mfod::snapshot::KIND_THRESHOLD_CALIBRATOR;
    const NAME: &'static str = "threshold-calibrator";
}

/// A calibrator restores as itself — the snapshot *is* the state — which
/// lets a [`mfod_persist::ModelRegistry`] hot-swap recalibrated alarm
/// thresholds independently of the (much larger) pipeline snapshots.
impl mfod_persist::Restorable for ThresholdCalibrator {
    type Snapshot = ThresholdCalibrator;

    fn restore(snapshot: ThresholdCalibrator) -> std::result::Result<Self, String> {
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_threshold_flags_the_tail() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let c = ThresholdCalibrator::from_scores(&scores, 0.10).unwrap();
        assert!((c.contamination() - 0.10).abs() < 1e-12);
        // ~10% of training scores exceed the threshold
        let alarms = scores.iter().filter(|&&s| c.is_alarm(s)).count();
        assert!((8..=12).contains(&alarms), "alarms {alarms}");
        assert!(c.is_alarm(1e9));
        assert!(!c.is_alarm(-1.0));
        assert!(
            c.threshold() > 85.0 && c.threshold() < 95.0,
            "{}",
            c.threshold()
        );
    }

    #[test]
    fn snapshot_roundtrip_and_registry_hot_swap() {
        let scores: Vec<f64> = (0..50).map(|i| (i as f64 * 0.739).sin() * 3.0).collect();
        let cal = ThresholdCalibrator::from_scores(&scores, 0.08).unwrap();
        let bytes = mfod_persist::to_bytes(&cal);
        let back: ThresholdCalibrator = mfod_persist::from_bytes(&bytes).unwrap();
        assert_eq!(cal.threshold().to_bits(), back.threshold().to_bits());
        assert_eq!(
            cal.contamination().to_bits(),
            back.contamination().to_bits()
        );
        assert_eq!(mfod_persist::to_bytes(&back), bytes);
        // registry swap: a recalibration replaces the active thresholds
        let registry = mfod_persist::ModelRegistry::<ThresholdCalibrator>::new();
        registry.install_bytes(&bytes).unwrap();
        let recal = ThresholdCalibrator::from_scores(&scores, 0.25).unwrap();
        registry
            .install_bytes(&mfod_persist::to_bytes(&recal))
            .unwrap();
        assert_eq!(registry.generation(), 2);
        assert_eq!(
            registry.active().unwrap().threshold().to_bits(),
            recal.threshold().to_bits()
        );
        // tampered contamination fails decode with a typed error
        let bad = {
            let mut w = mfod_persist::Encoder::new();
            w.put_f64(1.0);
            w.put_f64(1.5);
            w.into_bytes()
        };
        let mut r = mfod_persist::Decoder::new(&bad);
        assert!(matches!(
            <ThresholdCalibrator as mfod_persist::Decode>::decode(&mut r),
            Err(mfod_persist::PersistError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(ThresholdCalibrator::from_scores(&[], 0.1).is_err());
        assert!(ThresholdCalibrator::from_scores(&[1.0, f64::NAN], 0.1).is_err());
        assert!(ThresholdCalibrator::from_scores(&[1.0, 2.0], 0.0).is_err());
        assert!(ThresholdCalibrator::from_scores(&[1.0, 2.0], 1.0).is_err());
        assert!(ThresholdCalibrator::from_scores(&[1.0, 2.0], -0.2).is_err());
        assert!(ThresholdCalibrator::from_scores(&[1.0, 2.0], 1.7).is_err());
    }
}
