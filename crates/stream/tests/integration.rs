//! End-to-end acceptance test of the online scoring subsystem: fit the
//! paper's pipeline on an ECG train split, stream the test split
//! observation by observation through `WindowBuffer` + `MicroBatcher`,
//! and require the streamed scores to be **identical** (bit for bit) to
//! the offline `score`/`score_batch` on the same windows.

use mfod_fixtures::{ecg_fitted as fit, ecg_split};
use mfod_stream::{BatchConfig, OnlineScorer, StreamConfig, ThresholdCalibrator, WindowConfig};
use std::sync::Arc;

/// Streams every observation of `samples` through `scorer`, returning all
/// released verdicts (including the final flush).
fn stream_through(
    scorer: &mut OnlineScorer,
    samples: &[mfod_fda::RawSample],
) -> Vec<mfod_stream::Verdict> {
    let mut verdicts = Vec::new();
    for sample in samples {
        for j in 0..sample.t.len() {
            let obs: Vec<f64> = sample.channels.iter().map(|c| c[j]).collect();
            verdicts.extend(scorer.push(&obs).unwrap());
        }
    }
    verdicts.extend(scorer.finish().unwrap());
    verdicts
}

#[test]
fn streamed_scores_are_bit_identical_to_offline_scores() {
    let (train, test) = ecg_split();
    let fitted = fit(&train);
    let offline = fitted.score(test.samples()).unwrap();
    let ts = test.samples()[0].t.clone();

    // Batch size 7 does not divide the test count: the final flush path is
    // exercised too.
    for batch_size in [1usize, 7, 64] {
        let mut scorer = OnlineScorer::new(
            Arc::clone(&fitted),
            StreamConfig {
                window: WindowConfig::tumbling(ts.clone(), 2),
                batch: BatchConfig {
                    batch_size,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        let verdicts = stream_through(&mut scorer, test.samples());
        assert_eq!(verdicts.len(), test.len(), "batch_size {batch_size}");
        for (v, o) in verdicts.iter().zip(&offline) {
            assert_eq!(
                v.score.to_bits(),
                o.to_bits(),
                "batch_size {batch_size}, window {}: streamed {} != offline {}",
                v.seq,
                v.score,
                o
            );
        }
        // Sequence numbers are gap-free and ordered.
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.seq, i as u64);
        }
        let snap = scorer.stats();
        assert_eq!(snap.windows, test.len() as u64);
        assert_eq!(snap.observations, (test.len() * ts.len()) as u64);
    }
}

#[test]
fn calibrated_alarms_recover_labeled_outliers() {
    let (train, test) = ecg_split();
    let fitted = fit(&train);
    let train_scores = fitted.score(train.samples()).unwrap();
    let calibrator = ThresholdCalibrator::from_scores(&train_scores, 0.25).unwrap();
    let ts = test.samples()[0].t.clone();

    let mut scorer = OnlineScorer::new(
        Arc::clone(&fitted),
        StreamConfig {
            window: WindowConfig::tumbling(ts, 2),
            batch: BatchConfig {
                batch_size: 16,
                ..Default::default()
            },
        },
    )
    .unwrap()
    .with_calibrator(calibrator);

    let verdicts = stream_through(&mut scorer, test.samples());
    // Tumbling windows align 1:1 with test samples, so verdicts can be
    // joined to ground-truth labels by sequence number.
    let labels = test.labels();
    let alarms: Vec<usize> = verdicts
        .iter()
        .filter(|v| v.is_outlier)
        .map(|v| v.seq as usize)
        .collect();
    assert!(!alarms.is_empty(), "calibrated stream raised no alarms");
    let true_outliers = labels.iter().filter(|&&l| l).count();
    let hits = alarms.iter().filter(|&&i| labels[i]).count();
    // The detector separates this data well offline (AUC ≳ 0.8); the
    // streamed, calibrated alarms must recover at least half of the
    // abnormal beats.
    assert!(
        hits * 2 >= true_outliers,
        "alarms {alarms:?} recovered {hits}/{true_outliers} outliers"
    );
    assert_eq!(scorer.stats().alarms, alarms.len() as u64);
}
